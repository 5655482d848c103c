"""What the package's import path leaves out, each run in a fresh
interpreter.

`import contactmech` loads none of the package's modules, and a command
loads only those it runs: a spec load, `list-models`, `export-model`
and `simulate` never load `analysis` or `_pcg64`, which only `verify` and `analyze`
run.  The value records are plain classes, so importing the package,
loading every shipped spec, `list-models` and `simulate` import neither
`dataclasses` nor what it pulls in (`inspect`, `ast`); `verify` imports
numpy, which brings `inspect` itself, but still no `dataclasses`.
"""

import importlib.util
import subprocess
import sys
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


def _loaded(body: str, modules, *args) -> str:
    """The list, as printed, of `modules` in `sys.modules` once `body`
    ran in a fresh interpreter with `args` as its arguments."""
    script = f"import sys\n{body}\nprint([m for m in {modules!r} if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, cwd=ROOT
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def _main(argv) -> str:
    """Script body that runs `cli.main(argv)` and requires exit code 0."""
    return f"from contactmech.cli import main\nassert main({list(argv)!r}) == 0"


def test_import_loads_no_submodule():
    assert "contactmech.expr" in SUBMODULES
    assert _loaded("import contactmech", SUBMODULES) == "[]"


def test_the_setup_probe_leaves_the_checks_and_the_integrators_out():
    # the benchmark's setup_s times this body: import, then load each spec
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    modules = (*CHECK_MODULES, "contactmech.integrate", "contactmech.cli")
    assert _loaded(run.SETUP_PROBE, modules, str(ROOT / "src"), *SPECS) == "[]"


def test_import_and_spec_loading_leave_dataclasses_out():
    assert SPECS
    body = (
        "import contactmech\n"
        f"docs = [contactmech.load_document(p) for p in {list(map(str, SPECS))!r}]\n"
        f"assert len(docs) == {len(SPECS)}"
    )
    assert _loaded(body, SETUP_MODULES) == "[]"


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", SHIPPED_SPEC, "--out", "{tmp}/rk4.csv"],
        ["simulate", SHIPPED_SPEC, "--method", "rkf45", "--out", "{tmp}/rkf.csv"],
        ["list-models"],
        ["export-model", "damped_oscillator", "--out", "{tmp}/osc.yaml"],
    ],
    ids=["simulate-rk4", "simulate-rkf45", "list-models", "export-model"],
)
def test_commands_without_arrays_leave_dataclasses_out(tmp_path, argv):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert _loaded(_main(argv), SETUP_MODULES + CHECK_MODULES) == "[]"


def test_verify_leaves_dataclasses_out(tmp_path):
    argv = ["verify", SHIPPED_SPEC, "--report", str(tmp_path / "report.json")]
    modules = ("dataclasses", "numpy", *CHECK_MODULES)
    assert _loaded(_main(argv), modules) == repr(["numpy", *CHECK_MODULES])
