"""What the package's import path leaves out, each run in a fresh
interpreter.

The value records are plain classes, so importing the package, loading
every shipped spec, `list-models` and `simulate` import neither
`dataclasses` nor what it pulls in (`inspect`, `ast`); `verify` imports
numpy, which brings `inspect` itself, but still no `dataclasses`.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPECS = sorted((ROOT / "specs").glob("*.yaml"))
SHIPPED_SPEC = str(ROOT / "specs" / "gravity_friction.yaml")
SETUP_MODULES = ("dataclasses", "inspect", "ast")


def _loaded(body: str, modules) -> str:
    """The list, as printed, of `modules` in `sys.modules` once `body`
    ran in a fresh interpreter."""
    script = f"import sys\n{body}\nprint([m for m in {modules!r} if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, cwd=ROOT
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def _main(argv) -> str:
    """Script body that runs `cli.main(argv)` and requires exit code 0."""
    return f"from contactmech.cli import main\nassert main({list(argv)!r}) == 0"


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
    ],
    ids=["simulate-rk4", "simulate-rkf45", "list-models"],
)
def test_commands_without_arrays_leave_dataclasses_out(tmp_path, argv):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert _loaded(_main(argv), SETUP_MODULES) == "[]"


def test_verify_leaves_dataclasses_out(tmp_path):
    argv = ["verify", SHIPPED_SPEC, "--report", str(tmp_path / "report.json")]
    assert _loaded(_main(argv), ("dataclasses", "numpy")) == "['numpy']"
