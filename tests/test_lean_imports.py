"""What each command or script body loads, each run once in a fresh
interpreter.

`ROWS` is the one table of import rules: per row, the modules it must
load and those it must leave out, and what it must print.
`import contactmech` loads none of the package's modules, and a command
loads only those it runs: a spec load, `list-models`, `export-model`
and `simulate` never load `analysis` or `_pcg64`, which only `verify`
and `analyze` run.  Only the column kernels, the sampler, `vf_jacobian`
and the `Trajectory` arrays need numpy, so `verify` and `analyze` load
it and nothing else does, not even `--help`, a usage error or a
trajectory's `repr`; no command loads numpy.random, as the sampler
draws its stream itself.  The value records are plain classes, so
importing the package, loading every shipped spec, `list-models` and
`simulate` import neither `dataclasses` nor what it pulls in
(`inspect`, `ast`); `verify` imports numpy, which brings `inspect`
itself, but still no `dataclasses`.
"""

import ast
import functools
import importlib.util
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPECS = sorted((ROOT / "specs").glob("*.yaml"))
SHIPPED_SPEC = str(ROOT / "specs" / "gravity_friction.yaml")
SETUP_MODULES = ("dataclasses", "inspect", "ast")
SUBMODULES = tuple(
    f"contactmech.{path.stem}"
    for path in sorted((ROOT / "src" / "contactmech").glob("*.py"))
    if path.stem != "__init__"
)
CHECK_MODULES = ("contactmech.analysis", "contactmech._pcg64")
RANDOM_MODULES = ("numpy.random", "secrets", "_hashlib")
#: what a command that needs no arrays leaves out
NO_ARRAYS = ("numpy", *SETUP_MODULES, *CHECK_MODULES)


def _setup_probe() -> str:
    """The body whose time is the benchmark's setup_s: import, then load
    each spec."""
    path = ROOT / "bench" / "run.py"
    spec = importlib.util.spec_from_file_location("bench_run", path)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run.SETUP_PROBE


def _main(argv, check: str = "") -> str:
    """Script body that runs `cli.main(argv)` and prints its exit code
    and then the value of `check`, if given."""
    return (
        "from contactmech.cli import main\n"
        "try:\n"
        f"    code = main({list(argv)!r})\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        f"print(code{', ' + check if check else ''})"
    )


def _command(argv, code: int = 0, leaves_out=("numpy",), loads=()) -> dict:
    """The row of a `cli.main(argv)` run that must exit with `code`."""
    return {
        "body": _main(argv),
        "printed": str(code),
        "loads": loads,
        "leaves_out": leaves_out,
    }


#: row -> its script `body` (`{tmp}` a fresh directory, `args` its
#: arguments), the modules it `loads` and `leaves_out`, and the last line
#: it must have `printed` before the modules are listed
ROWS = {
    "import": {"body": "import contactmech", "leaves_out": SUBMODULES},
    "setup-probe": {
        "body": _setup_probe,
        "args": (str(ROOT / "src"), *map(str, SPECS)),
        "leaves_out": (*CHECK_MODULES, "contactmech.integrate", "contactmech.cli"),
    },
    "spec-loading": {
        "body": (
            "import contactmech\n"
            f"paths = {list(map(str, SPECS))!r}\n"
            "docs = [contactmech.load_document(p) for p in paths]\n"
            "print(len(docs))"
        ),
        "printed": str(len(SPECS)),
        "leaves_out": ("numpy", *SETUP_MODULES),
    },
    "simulate-rk4": _command(
        ["simulate", SHIPPED_SPEC, "--out", "{tmp}/rk4.csv"], leaves_out=NO_ARRAYS
    ),
    "simulate-rkf45": _command(
        ["simulate", SHIPPED_SPEC, "--method", "rkf45", "--out", "{tmp}/rkf.csv"],
        leaves_out=NO_ARRAYS,
    ),
    "list-models": _command(["list-models"], leaves_out=NO_ARRAYS),
    "export-model": _command(
        ["export-model", "damped_oscillator", "--out", "{tmp}/osc.yaml"],
        leaves_out=NO_ARRAYS,
    ),
    "help": _command(["--help"]),
    "missing-argument": _command(["simulate"], code=2),  # argparse: no spec
    "method-flag": _command(
        ["simulate", SHIPPED_SPEC, "--tol", "1e-6", "--out", "{tmp}/x.csv"], code=2
    ),
    "verify": {
        "body": _main(
            ["verify", SHIPPED_SPEC, "--report", "{tmp}/report.json"],
            check="__import__('os').path.exists('{tmp}/report.json')",
        ),
        "printed": "0 True",
        "loads": ("numpy", *CHECK_MODULES),
        "leaves_out": ("dataclasses", *RANDOM_MODULES),
    },
    "analyze": _command(
        ["analyze", SHIPPED_SPEC, "x_translation"],
        loads=("numpy",),
        leaves_out=RANDOM_MODULES,
    ),
    "trajectory-repr": {
        "body": (
            "from contactmech import integrate_fixed, load_document\n"
            f"doc = load_document({SHIPPED_SPEC!r})\n"
            "traj = integrate_fixed(doc.system, doc.initial_state, 0.0, 1.0, 0.25)\n"
            "print(repr(traj))"
        ),
        "printed": (
            "Trajectory(names=('x', 'y', 'p_x', 'p_y', 's'), method='rk4', "
            "rows=5, accepted=4, rejected=0)"
        ),
        "leaves_out": ("numpy",),
    },
}


@functools.cache
def _run(row: str) -> tuple:
    """The last line the row's body printed before the module list, and
    the set of the row's modules that were in `sys.modules` at its end,
    from one fresh interpreter per row."""
    rule = ROWS[row]
    body = rule["body"]() if callable(rule["body"]) else rule["body"]
    modules = (*rule.get("loads", ()), *rule["leaves_out"])
    with tempfile.TemporaryDirectory() as tmp:
        script = (
            f"import sys\n{body.replace('{tmp}', tmp)}\n"
            f"print([m for m in {modules!r} if m in sys.modules])"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, *rule.get("args", ())],
            capture_output=True, text=True, cwd=ROOT,
        )
    assert proc.returncode == 0, proc.stderr
    *_, printed, loaded = [""] + proc.stdout.splitlines()
    return printed, set(ast.literal_eval(loaded))


def check(row: str) -> None:
    """Assert every rule of `row`: what it printed, each module it must
    load, and that it loaded none it must leave out."""
    rule = ROWS[row]
    printed, loaded = _run(row)
    if "printed" in rule:
        assert printed == rule["printed"]
    assert loaded == set(rule.get("loads", ()))


def test_import_loads_no_submodule():
    assert "contactmech.expr" in SUBMODULES
    check("import")


def test_the_setup_probe_leaves_the_checks_and_the_integrators_out():
    check("setup-probe")


def test_import_and_spec_loading_leave_dataclasses_out():
    assert SPECS
    check("spec-loading")


@pytest.mark.parametrize(
    "row", ["simulate-rk4", "simulate-rkf45", "list-models", "export-model"]
)
def test_commands_without_arrays_leave_dataclasses_out(row):
    check(row)


def test_verify_leaves_dataclasses_out():
    check("verify")
