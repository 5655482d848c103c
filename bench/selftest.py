"""Self-test of the benchmark's exact counts; not part of the tier-1 suite.

    python3 bench/selftest.py [--seed N]

Runs the traced benchmark twice per workload with one seed and checks
that every count metric repeats exactly.  On `simulate` it also checks
that contact_core.flow.calls equals 4 x RK4 steps + 6 x RKF45 attempts
(one flow call per Runge-Kutta stage) and that no calculus or analysis
function was called.  Exit code 0 when every check holds.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} run failed:\n{proc.stdout[-3000:]}{proc.stderr[-3000:]}"
        )
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items() if m["unit"] == "count"}


def check(workload: str, seed: int) -> list:
    first = traced_counts(workload, seed)
    second = traced_counts(workload, seed)
    failures = [
        f"{workload}: {name} is {first[name]} then {second.get(name)}"
        for name in first
        if first[name] != second.get(name)
    ]
    if workload == "simulate":
        expected = (
            4 * first["integrate.integrate_fixed.steps"]
            + 6 * first["integrate.integrate_adaptive.attempts"]
        )
        if first["contact_core.flow.calls"] != expected:
            failures.append(
                f"simulate: contact_core.flow.calls is "
                f"{first['contact_core.flow.calls']}, expected {expected}"
            )
        failures += [
            f"simulate: {name} is {value}, expected 0"
            for name, value in first.items()
            if name.startswith(("calculus.", "analysis.")) and value != 0
        ]
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    failures = []
    for workload in ("simulate", "verify", "wide"):
        found = check(workload, args.seed)
        print(f"{workload}: {'ok' if not found else 'FAILED'}", flush=True)
        failures += found
    for failure in failures:
        print(failure)
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
