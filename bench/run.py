"""contactmech benchmark: seeded CLI workloads, output oracles, traced layers.

    python3 bench/run.py --workload {simulate,verify,wide} --seed N \
        --seconds S --trace {0,1}

Runs from any directory; the package is imported from `src/` of the
checkout that holds this file, and scratch files go to `.bench_work/`.
One client in a closed loop: every command goes through
`contactmech.cli.main` in this process, and the next starts only when
the previous one returns.  A first pass, untimed, warms up and checks
outputs; timed passes then repeat the workload for `--seconds`.  Every
pass's outputs are checked after its timer stops, and every failure
counts in `failed`.

--trace 0 reports the end-to-end metrics: `setup_s` (median over fresh
interpreters of importing contactmech and loading every spec),
`wall_ref` (mean pass time in units of a fixed reference loop, see
`Runner.run_pass`) and `peak_rss_mb`, and prints the pass time in
seconds, `wall_s`, beside them.  --trace 1 spends half
the time on untraced passes and half on traced ones and reports the
per-layer metrics of `tracing.TRACED`, the flow floor and the tracing
overhead.  The last line of standard output is one JSON object; the
lines before it print every metric by name and unit, with the
environment.  Exit code 0 when every check passed, 1 when one failed,
2 when the checkout holds no package to measure.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("simulate", "verify", "wide")
SETUP_RUNS = 7  # set-up probes in a run

# Imports contactmech and loads every spec given as an argument, timing
# both from inside a fresh interpreter; interpreter start-up is excluded.
SETUP_PROBE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import contactmech
from contactmech.specdoc import load_document
for path in sys.argv[2:]:
    load_document(path)
print(repr(time.perf_counter() - start))
"""


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def environment(seed: int) -> dict:
    import numpy

    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def setup_probe(specs) -> float:
    """Seconds a fresh interpreter takes to import contactmech and load `specs`."""
    out = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(SRC), *map(str, specs)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return float(out.stdout.strip())


REFERENCE_CALLS = 10000
_REFERENCE_ENV = {"q": 0.5, "p": -0.25, "s": 0.1, "m": 1.5, "k": 2.0, "gamma": 0.3}


def _reference_h(b):
    return (
        b["p"] * b["p"] / (2.0 * b["m"])
        + b["k"] * b["q"] * b["q"] / 2.0
        + b["gamma"] * b["s"]
    )


def reference_loop() -> float:
    """Seconds of a fixed pure-Python loop in the style of the program's
    hot path: copy a dict of bindings and evaluate a Hamiltonian from it.
    It calls no contactmech code and never changes, so its time follows
    only the speed the machine gives this process at that moment."""
    start = time.perf_counter()
    for i in range(REFERENCE_CALLS):
        b = dict(_REFERENCE_ENV)
        b["q"] = i * 1e-4
        _reference_h(b)
    return time.perf_counter() - start


def run_command(cli, argv) -> tuple:
    """(seconds, exit code, stdout, stderr) of one cli.main call."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed command, not a stop
            code = f"raised {exc!r}"
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


class Runner:
    """Runs passes over a workload's commands and tallies their checks."""

    def __init__(self, cli, commands):
        self.cli = cli
        self.commands = commands
        self.attempted = 0
        self.failures = []  # commands that failed or failed their check
        self.problems = []  # run-level checks that failed

    def run_pass(self) -> dict:
        """One timed pass; outputs are checked after the timers stop.

        The reference loop runs before the first command and after each
        one, outside their timers.  `wall_ref` divides each command's
        time by the mean of the loops on either side of it.  On a 2-vCPU
        virtual machine whose cores are shared with other tenants, the
        same code's pass time drifted by up to 70% over minutes and the
        reference loop drifted with it, so the ratio repeats across runs
        where seconds do not.
        """
        gc.collect()
        results, refs = [], [reference_loop()]
        for cmd in self.commands:
            results.append(run_command(self.cli, cmd.argv))
            refs.append(reference_loop())
        times = [elapsed for elapsed, _, _, _ in results]
        wall_ref = sum(t / (0.5 * (a + b)) for t, a, b in zip(times, refs, refs[1:]))
        seconds = {"simulate": 0.0, "verify": 0.0}
        work = {"simulate": 0, "verify": 0}
        for cmd, (elapsed, code, stdout, stderr) in zip(self.commands, results):
            self.attempted += 1
            try:
                error, count = cmd.check(code, stdout)
            except Exception as exc:  # malformed output fails the check
                error, count = f"check raised {exc!r}", 0
            if error is not None:
                self.failures.append(f"{' '.join(cmd.argv)}: {error} {stderr.strip()}")
            seconds[cmd.kind] += elapsed
            work[cmd.kind] += count
        return {
            "wall": sum(times),
            "wall_ref": wall_ref,
            "times": times,
            "refs": refs,
            "seconds": seconds,
            "work": work,
        }

    def run_for(self, seconds: float, min_passes: int, between=None) -> list:
        """Timed passes until `seconds` have passed; `between` runs after each."""
        passes = []
        deadline = time.perf_counter() + seconds
        while len(passes) < min_passes or time.perf_counter() < deadline:
            passes.append(self.run_pass())
            if between is not None:
                between()
        return passes


def _rate(passes, kind: str) -> float:
    """Work per second spent in `kind` commands, over all the passes."""
    seconds = sum(p["seconds"][kind] for p in passes)
    return sum(p["work"][kind] for p in passes) / seconds if seconds else 0.0


def _mean_wall(passes) -> float:
    return statistics.fmean(p["wall"] for p in passes)


def _spread(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, median, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.4f} median={median:.4f} q3={q3:.4f}"


def end_to_end(runner, specs, seconds: float, work: Path) -> tuple:
    """setup_s, wall_ref and peak_rss_mb, with tracing off.

    Pass times are averaged over the run, not taken at the median: the
    machine's speed switches between a fast and a slow level for seconds
    at a time, and the median pass jumps between the two.
    """
    setups = []
    start = time.perf_counter()

    def probe_setup():
        # spread over the run, so the probes sample the machine's speed
        # across it rather than at one moment
        due = math.ceil(SETUP_RUNS * (time.perf_counter() - start) / seconds)
        if len(setups) < min(due, SETUP_RUNS):
            setups.append(setup_probe(specs))

    passes = runner.run_for(seconds, min_passes=1, between=probe_setup)
    while len(setups) < SETUP_RUNS:
        setups.append(setup_probe(specs))
    (work / "passes.json").write_text(json.dumps({"passes": passes, "setups": setups}))
    walls = [p["wall"] for p in passes]
    refs = [r for p in passes for r in p["refs"]]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_ref": (statistics.fmean(p["wall_ref"] for p in passes), "ratio"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"
        ),
    }
    notes = {"setup_s": _spread(setups)}
    print(f"wall_s {_mean_wall(passes)!r} s (printed, not bounded) {_spread(walls)}")
    print(f"reference_loop_s {statistics.median(refs)!r} s {_spread(refs)}")
    # printed, not bounded: each applies only to workloads with that command
    kinds = {cmd.kind for cmd in runner.commands}
    for name, kind in (("steps_per_s", "simulate"), ("residuals_per_s", "verify")):
        value = repr(_rate(passes, kind)) if kind in kinds else "n/a"
        print(f"{name} {value} 1/s (per second in {kind} commands)")
    return metrics, notes


def per_layer(runner, seed: int, seconds: float, work: Path) -> tuple:
    import floor
    import tracing
    import workloads
    from contactmech.specdoc import parse_document

    untraced = runner.run_for(seconds / 2.0, min_passes=1)
    systems = {
        name: parse_document(doc).system
        for name, doc in workloads.model_documents(seed)
    }
    floor_us, direct_us, mismatch = floor.measure(systems, seed)
    if not mismatch <= 1e-12:
        runner.problems.append(
            f"hand-written flow differs from ContactSystem.flow by {mismatch:.3e}"
        )

    # each traced pass is summarized as it ends; the first keeps its spans
    traced, summaries, counts = [], [], set()
    deadline = time.perf_counter() + seconds / 2.0
    while len(traced) < 2 or time.perf_counter() < deadline:
        tracer = tracing.Tracer()
        with tracer.installed():
            traced.append(runner.run_pass())
        summaries.append(tracer.summary())
        calls = tuple(c for c, _, _ in summaries[-1].values())
        counts.add((calls, tuple(tracer.counts.values())))
        if len(traced) == 1:
            kept = tracer
    if len(counts) != 1:
        runner.problems.append("exact counts differ between traced passes")
    kept.save(work / "spans.npz")

    first = summaries[0]
    metrics = {}

    def put(name, value, unit):
        metrics[name] = (value, unit)

    def median_of(layer, stat):
        return statistics.median(s[layer][stat] for s in summaries)

    for layer in tracing.LAYERS:
        put(f"{layer}.calls", first[layer][0], "count")
        put(f"{layer}.busy_s", median_of(layer, 1), "s")
        put(f"{layer}.self_s", median_of(layer, 2), "s")
    c = kept.counts
    for name, value in c.items():
        put(name, value, "count")
    # a ratio over no attempts reads 1: nothing attempted, nothing lost
    accepted = c["integrate.steps_accepted"]
    attempted = accepted + c["integrate.steps_rejected"]
    put("integrate.accept_ratio", accepted / attempted if attempted else 1.0, "ratio")
    samples = c["analysis.samples_attempted"]
    ok = samples - c["analysis.samples_failed"]
    put("analysis.sample_ok_ratio", ok / samples if samples else 1.0, "ratio")
    flow_calls = first["contact_core.flow"][0]
    flow_busy = median_of("contact_core.flow", 1)
    put("contact_core.flow.mean_us",
        flow_busy / flow_calls * 1e6 if flow_calls else 0.0, "us")
    put("contact_core.flow.floor_us", floor_us, "us")
    put("contact_core.flow.direct_us", direct_us, "us")
    put("cli.simulate.steps_per_s", _rate(untraced, "simulate"), "1/s")
    put("cli.verify.residuals_per_s", _rate(untraced, "verify"), "1/s")
    untraced_wall = _mean_wall(untraced)
    traced_wall = _mean_wall(traced)
    put("trace.untraced_wall_s", untraced_wall, "s")
    put("trace.wall_s", traced_wall, "s")
    put("trace.overhead_s", traced_wall - untraced_wall, "s")
    put("trace.spans", kept.span_count, "count")
    return metrics, {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "contactmech" / "__init__.py").is_file():
        print(f"error: no contactmech package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import contactmech
    from contactmech import cli

    if Path(contactmech.__file__).resolve().parent != SRC / "contactmech":
        print(f"error: contactmech came from {contactmech.__file__}", file=sys.stderr)
        return 2
    import workloads

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    commands = workloads.build(args.workload, args.seed, work, ROOT)
    env = environment(args.seed)
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()),
          f"workload={args.workload} seconds={args.seconds:g} trace={args.trace}")

    runner = Runner(cli, commands)
    runner.run_pass()  # warm-up; its outputs are the first checked run
    if args.trace:
        metrics, notes = per_layer(runner, args.seed, args.seconds, work)
    else:
        specs = workloads.spec_paths(commands)
        metrics, notes = end_to_end(runner, specs, args.seconds, work)

    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit} {notes.get(name, '')}".rstrip())
    failed = len(runner.failures)
    print(f"error_rate {failed / runner.attempted!r} ratio "
          f"({failed} of {runner.attempted} commands)")
    for failure in runner.failures + runner.problems:
        print(f"FAILED {failure}")
    correct = not runner.failures and not runner.problems
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
