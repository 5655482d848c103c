"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py [--runs 10] [--workloads simulate,verify,wide]
        [--trace 0|1] [--first-seed 1] [--out FILE]

For every workload, runs `bench/run.py` once per seed (first-seed,
first-seed + 1, ...) for BENCHMARK.json's run_seconds, one run at a
time, and prints each end-to-end metric's median, quartiles and spread
(the distance between the quartiles as a share of the median) beside
its bound from BENCHMARK.json.  `--out` writes the runs and the summary,
with the environment, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarize(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"]}
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    seconds = config["run_seconds"]
    report = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=600,
            )
            lines = proc.stdout.splitlines()
            env = lines[0] if lines else ""
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                ok = False
                print(f"{workload} seed {seed}: exit {proc.returncode}",
                      file=sys.stderr)
                print(proc.stdout[-2000:] + proc.stderr[-2000:], file=sys.stderr)
            runs.append({"seed": seed, "env": env, "result": result})
        metrics = {}
        for name in runs[0]["result"].get("metrics", {}):
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            metrics[name] = summarize(values)
            s = metrics[name]
            bound = bounds.get(name)
            flag = ""
            if s["spread"] is None:
                continue
            if bound is not None and name != "setup_s" and s["spread"] > bound / 3:
                flag = "  OVER BOUND" if s["spread"] > bound else "  over bound/3"
            print(f"{workload:9s} {name:14s} median {s['median']:.4f} q1 {s['q1']:.4f} "
                  f"q3 {s['q3']:.4f} spread {s['spread']:.3f} bound {bound}{flag}",
                  flush=True)
        report["workloads"][workload] = {"metrics": metrics, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
