"""Which entry points import numpy, each run in a fresh interpreter.

Only the column kernels, the sampler, `vf_jacobian` and the `Trajectory`
arrays need numpy, so `verify` loads it; importing the package, loading
a spec, `simulate`, `list-models`, `export-model`, `--help`, usage
errors and a trajectory's `repr` must not.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPECS = sorted((ROOT / "specs").glob("*.yaml"))
SHIPPED_SPEC = str(ROOT / "specs" / "gravity_friction.yaml")


def _run(body: str) -> tuple:
    """The last line `body` prints in a fresh interpreter, and whether
    numpy was imported by the end."""
    script = f"import sys\n{body}\nprint('numpy' in sys.modules)\n"
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, cwd=ROOT
    )
    assert proc.returncode == 0, proc.stderr
    *_, result, loaded = proc.stdout.splitlines()
    return result, loaded == "True"


def _main(argv) -> str:
    """Script body that runs `cli.main(argv)` and prints its exit code."""
    return (
        "from contactmech.cli import main\n"
        "try:\n"
        f"    code = main({list(argv)!r})\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "print(code)"
    )


def test_import_and_spec_loading_leave_numpy_out():
    assert SPECS
    body = (
        "import contactmech\n"
        "from contactmech import load_document\n"
        f"docs = [load_document(path) for path in {list(map(str, SPECS))!r}]\n"
        "print(len(docs))"
    )
    assert _run(body) == (str(len(SPECS)), False)


@pytest.mark.parametrize(
    "argv, code",
    [
        (["simulate", SHIPPED_SPEC, "--out", "{tmp}/rk4.csv"], 0),
        (["simulate", SHIPPED_SPEC, "--method", "rkf45", "--out", "{tmp}/rkf.csv"], 0),
        (["list-models"], 0),
        (["export-model", "damped_oscillator", "--out", "{tmp}/osc.yaml"], 0),
        (["--help"], 0),
        (["simulate"], 2),  # argparse: no spec
        (["simulate", SHIPPED_SPEC, "--tol", "1e-6", "--out", "{tmp}/x.csv"], 2),
    ],
    ids=["simulate-rk4", "simulate-rkf45", "list-models", "export-model",
         "help", "missing-argument", "method-flag"],
)
def test_commands_that_need_no_arrays_leave_numpy_out(tmp_path, argv, code):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert _run(_main(argv)) == (str(code), False)


def test_verify_imports_numpy(tmp_path):
    report = tmp_path / "report.json"
    argv = ["verify", SHIPPED_SPEC, "--report", str(report)]
    assert _run(_main(argv)) == ("0", True)
    assert report.exists()


def test_the_repr_of_an_integrated_trajectory_leaves_numpy_out():
    body = (
        "from contactmech import integrate_fixed, load_document\n"
        f"doc = load_document({SHIPPED_SPEC!r})\n"
        "traj = integrate_fixed(doc.system, doc.initial_state, 0.0, 1.0, 0.25)\n"
        "print(repr(traj))"
    )
    assert _run(body) == (
        "Trajectory(names=('x', 'y', 'p_x', 'p_y', 's'), method='rk4', "
        "rows=5, accepted=4, rejected=0)",
        False,
    )
