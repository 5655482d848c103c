"""Seeded inputs and output oracles for the benchmark workloads.

Each workload is a list of CLI commands.  The seed draws model
parameters, initial states and `verify --seed` values; the program only
sees the spec files written here and the command arguments.  Every
command carries an oracle that runs after the timer stops and returns
(failure message or None, work count): integrator steps attempted for
`simulate`, residual samples attempted for `verify`.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from contactmech.models import analytic_reference
from contactmech.specdoc import document_for_model, load_document, write_document

MODELS = ("gravity_friction", "damped_free_particle", "damped_oscillator")
SHIPPED_SPEC = Path("specs") / "gravity_friction.yaml"
CHAIN_LENGTH = 6

RK4_ARGS = ("--method", "rk4", "--dt", "1e-3", "--tf", "10")
RKF45_ARGS = ("--method", "rkf45", "--tol", "1e-12", "--tf", "50")
CHAIN_ARGS = ("--method", "rk4", "--dt", "5e-3", "--tf", "2")

#: acceptance criterion 2 bounds the final q and p at this
STATE_TOL = 1e-8
#: analysis.TRAJECTORY_TOLERANCE, for comparisons along integrated paths
TRAJECTORY_TOL = 1e-6


@dataclass(frozen=True)
class Command:
    kind: str  # "simulate" or "verify"
    argv: tuple
    check: Callable[[int, str], tuple]


def _signed(rng: random.Random, lo: float, hi: float) -> float:
    """Magnitude in [lo, hi] with a random sign, so it stays off zero."""
    return rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi)


def model_document(name: str, rng: random.Random) -> dict:
    """A built-in model with seeded parameters inside its closed-form branch.

    Momenta stay off zero and H(0) > 0, so every declared expectation
    holds with margin: dissipated momenta are not also conserved,
    quotients by the energy stay finite, and position quantities are
    "neither" by a wide residual.
    """
    if name == "gravity_friction":
        params = {
            "m": rng.uniform(0.5, 2.0),
            "g": rng.uniform(5.0, 15.0),
            "gamma": rng.uniform(0.2, 1.0),
        }
        p_x = _signed(rng, 0.5, 1.5)
        state = {
            # same sign as p_x keeps x + p_x/(m gamma), the dissipation
            # residual of the x_position candidate, away from zero
            "x": math.copysign(rng.uniform(0.0, 1.0), p_x),
            "y": rng.uniform(0.0, 1.0),
            "p_x": p_x,
            "p_y": _signed(rng, 0.5, 1.5),
            "s": rng.uniform(0.0, 0.5),
        }
    elif name == "damped_free_particle":
        params = {"m": rng.uniform(0.5, 2.0), "gamma": rng.uniform(0.2, 1.0)}
        state = {
            "q": rng.uniform(-1.0, 1.0),
            "p_q": _signed(rng, 0.5, 1.5),
            "s": rng.uniform(0.0, 0.5),
        }
    else:
        m = rng.uniform(0.5, 2.0)
        k = rng.uniform(0.5, 4.0)
        # underdamped: gamma < 2 omega0
        params = {"m": m, "k": k, "gamma": rng.uniform(0.2, 1.2) * math.sqrt(k / m)}
        state = {
            "q": _signed(rng, 0.5, 1.5),
            "p_q": rng.uniform(-1.0, 1.0),
            "s": rng.uniform(0.0, 0.5),
        }
    doc = document_for_model(name, params)
    doc["initial_state"] = state
    return doc


def chain_document(rng: random.Random) -> dict:
    """CHAIN_LENGTH coupled damped oscillators.

    H = sum p_i^2/(2m) + k/2 sum (q_{i+1} - q_i)^2 + gamma s.
    """
    n = CHAIN_LENGTH
    coords = [f"q{i}" for i in range(1, n + 1)]
    momenta = [f"p_{c}" for c in coords]
    kinetic = " + ".join(f"{p}^2" for p in momenta)
    springs = " + ".join(f"(q{i + 1} - q{i})^2" for i in range(1, n))
    hamiltonian = f"({kinetic})/(2*m) + k/2*({springs}) + gamma*s"
    sign = rng.choice((-1.0, 1.0))
    state = {c: rng.uniform(-1.0, 1.0) for c in coords}
    # one sign for every momentum keeps the total momentum off zero
    state.update({p: sign * rng.uniform(0.2, 1.0) for p in momenta})
    state["s"] = rng.uniform(0.0, 0.5)
    return {
        "n": n,
        "coordinates": coords,
        "parameters": {
            "m": rng.uniform(0.5, 2.0),
            "k": rng.uniform(0.5, 3.0),
            "gamma": rng.uniform(0.2, 1.0),
        },
        "hamiltonian": hamiltonian,
        "initial_state": state,
        "symmetries": [
            {
                "name": "common_translation",
                "components": {c: "1" for c in coords},
                "expect": "contact",
            },
            {"name": "s_translation", "components": {"s": "1"}, "expect": "neither"},
        ],
        "quantities": [
            {
                "name": "total_momentum",
                "expression": " + ".join(momenta),
                "expect": "dissipated",
            },
            {"name": "energy", "expression": hamiltonian, "expect": "dissipated"},
            {"name": "q1", "expression": "q1", "expect": "neither"},
        ],
        "maps": [
            {
                "name": "common_shift",
                "components": {c: f"{c} + 1" for c in coords},
                "expect": "contact",
            },
        ],
    }


def _verify_seed(rng: random.Random) -> str:
    return str(rng.randrange(2**31))


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def _steps_attempted(stdout: str) -> int:
    """Accepted + rejected from simulate's 'steps: A accepted, R rejected'."""
    for line in stdout.splitlines():
        if line.startswith("steps:"):
            words = line.split()
            return int(words[1]) + int(words[3])
    raise ValueError("no steps line in simulate output")


def _csv_rows(path: Path) -> list:
    lines = path.read_text().splitlines()
    return [[float(cell) for cell in line.split(",")] for line in lines[1:]]


def _reference_check(model: str, spec: Path, csv: Path, tf: float):
    """Final CSV row against models.analytic_reference, q and p within STATE_TOL."""
    doc = load_document(spec)
    params = doc.system.parameters
    n = doc.system.n

    def check(code: int, stdout: str) -> tuple:
        if code != 0:
            return f"exit code {code}", 0
        steps = _steps_attempted(stdout)
        last = csv.read_text().rstrip("\n").rsplit("\n", 1)[-1]
        row = [float(cell) for cell in last.split(",")]
        if row[0] != tf:
            return f"final time {row[0]!r}, expected {tf!r}", steps
        ref = analytic_reference(model, params, doc.initial_state, row[0])
        got = row[1 : 1 + 2 * n]
        err = max(abs(a - b) for a, b in zip(got, ref.q + ref.p))
        if not err <= STATE_TOL:
            return f"final q/p off the closed form by {err:.3e}", steps
        return None, steps

    return check


def _energy_decay_check(spec: Path, csv: Path):
    """H column follows H(0) exp(-gamma t), which holds for any H = K + gamma s."""
    gamma = load_document(spec).system.parameters["gamma"]

    def check(code: int, stdout: str) -> tuple:
        if code != 0:
            return f"exit code {code}", 0
        steps = _steps_attempted(stdout)
        rows = _csv_rows(csv)
        h0 = rows[0][-1]
        err = max(abs(row[-1] - h0 * math.exp(-gamma * row[0])) for row in rows)
        if not err <= TRAJECTORY_TOL * max(1.0, abs(h0)):
            return f"H deviates from H(0) exp(-gamma t) by {err:.3e}", steps
        return None, steps

    return check


def _residual_samples(node) -> int:
    """samples + failed_samples over every check report nested in a report."""
    if isinstance(node, list):
        return sum(_residual_samples(item) for item in node)
    if not isinstance(node, dict):
        return 0
    own = node["samples"] + node["failed_samples"] if "failed_samples" in node else 0
    return own + sum(_residual_samples(value) for value in node.values())


def _report_check(report: Path):
    """Exit 0, all expectations met, and byte-identical to the first run."""
    first = []

    def check(code: int, stdout: str) -> tuple:
        data = report.read_bytes()
        doc = json.loads(data)
        samples = _residual_samples(doc["checks"])
        if code != 0:
            return f"exit code {code}", samples
        if doc["all_expectations_met"] is not True:
            return "not all expectations met", samples
        if not first:
            first.append(data)
        elif data != first[0]:
            return "report differs from the first run of the same command", samples
        return None, samples

    return check


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def model_documents(seed: int) -> list:
    """(name, document) for the three built-in models under this seed."""
    rng = random.Random(seed)
    return [(name, model_document(name, rng)) for name in MODELS]


def _simulate(seed: int, work: Path, root: Path) -> list:
    commands = []
    for name, doc in model_documents(seed):
        spec = work / f"{name}.yaml"
        write_document(doc, spec)
        for label, args in (("rk4", RK4_ARGS), ("rkf45", RKF45_ARGS)):
            csv = work / f"{name}.{label}.csv"
            tf = float(args[args.index("--tf") + 1])
            argv = ("simulate", str(spec), *args, "--out", str(csv))
            check = _reference_check(name, spec, csv, tf)
            commands.append(Command("simulate", argv, check))
    return commands


def _verify(seed: int, work: Path, root: Path) -> list:
    specs = [root / SHIPPED_SPEC]
    for name, doc in model_documents(seed):
        spec = work / f"{name}.yaml"
        write_document(doc, spec)
        specs.append(spec)
    rng = random.Random(seed)
    commands = []
    for k, spec in enumerate(specs):
        report = work / f"report{k}.json"
        argv = (
            "verify", str(spec), "--seed", _verify_seed(rng), "--report", str(report)
        )
        commands.append(Command("verify", argv, _report_check(report)))
    return commands


def _wide(seed: int, work: Path, root: Path) -> list:
    rng = random.Random(seed)
    spec = work / "chain.yaml"
    write_document(chain_document(rng), spec)
    csv = work / "chain.csv"
    report = work / "chain_report.json"
    simulate = ("simulate", str(spec), *CHAIN_ARGS, "--out", str(csv))
    verify = (
        "verify", str(spec), "--trajectory", str(csv),
        "--seed", _verify_seed(rng), "--report", str(report),
    )
    return [
        Command("simulate", simulate, _energy_decay_check(spec, csv)),
        Command("verify", verify, _report_check(report)),
    ]


COMMANDS_BY_WORKLOAD = {"simulate": _simulate, "verify": _verify, "wide": _wide}


def build(workload: str, seed: int, work: Path, root: Path) -> list:
    """Write the workload's spec files into `work` and return its commands."""
    return COMMANDS_BY_WORKLOAD[workload](seed, work, root)


def spec_paths(commands) -> list:
    """Distinct spec files the commands read, in first-use order."""
    return list(dict.fromkeys(cmd.argv[1] for cmd in commands))
