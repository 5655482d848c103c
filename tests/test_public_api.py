"""The public surface: the package's names, the names the benchmark's
tracer looks up, and the README's quick start."""

import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import contactmech

ROOT = Path(__file__).resolve().parent.parent

SUBMODULES = (
    "analysis", "calculus", "cli", "contact_core", "expr", "integrate", "models",
    "specdoc",
)

PUBLIC = [
    "ChartPoint",
    "CheckReport",
    "ContactSystem",
    "DivergenceError",
    "DomainError",
    "Expression",
    "ExpressionError",
    "IntegrationError",
    "MissingBindingError",
    "ModelError",
    "ParseError",
    "PointMap",
    "QuantityReport",
    "ScalarField",
    "SpecDocument",
    "SpecError",
    "StepUnderflowError",
    "Trajectory",
    "UnknownNameError",
    "VectorField",
    "analytic_reference",
    "builtin",
    "characterization_residual",
    "check_contact_symmetry_map",
    "check_quantity",
    "classify_symmetry",
    "conserved_from_symmetry",
    "hamilton_equation_residuals",
    "hamiltonian_field",
    "integrate_adaptive",
    "integrate_fixed",
    "lie_bracket",
    "lie_derivative_contact_form",
    "lie_derivative_scalar",
    "list_models",
    "load_document",
    "noether_quantity",
    "parse",
    "quotient_quantity",
    "read_trajectory_csv",
    "reeb_lift",
    "sample_states",
    "vf_jacobian",
    "write_trajectory_csv",
]

#: (module, name) of each name the library no longer defines
REMOVED = (
    ("analysis", "KIND_BRACKET"),
    ("analysis", "product_quantity"),
    ("analysis", "pullback_quantity"),
    ("calculus", "vector_field_value"),
    ("contact_core", "Covector"),
    ("contact_core", "Tangent"),
    ("contact_core", "contact_form_apply"),
    ("contact_core", "hamiltonian_vector_field"),
    ("contact_core", "interior_d_eta"),
    ("contact_core", "reeb_field"),
    ("expr", "finite_difference"),
    ("integrate", "rk4_step"),
    ("integrate", "rkf45_step"),
)


def test_the_package_exports_exactly_its_public_names():
    assert len(PUBLIC) == 44 and PUBLIC == sorted(PUBLIC)
    assert contactmech.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(contactmech, name) is not None


def test_a_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from contactmech import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC
    for name, value in namespace.items():
        assert value is getattr(contactmech, name)


def test_dir_lists_every_public_name():
    assert set(PUBLIC) <= set(dir(contactmech))


def test_a_plain_import_resolves_the_submodules():
    # in a fresh interpreter, where no submodule is loaded yet
    names = (
        "expr", "contact_core", "calculus", "integrate", "analysis", "models",
        "specdoc", "_record",
    )
    script = (
        "import contactmech\n"
        f"for name in {names!r}:\n"
        "    module = getattr(contactmech, name)\n"
        "    assert module.__name__ == f'contactmech.{name}', module\n"
        "    assert name in dir(contactmech), name\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, cwd=ROOT
    )
    assert proc.returncode == 0, proc.stderr


def test_an_unknown_name_raises_an_attribute_error_that_names_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        contactmech.no_such_name


@pytest.mark.parametrize("module_name", SUBMODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(f"contactmech.{module_name}")
    assert module.__all__ == sorted(module.__all__)
    for name in module.__all__:
        assert hasattr(module, name), name


@pytest.mark.parametrize("module_name, name", REMOVED)
def test_a_removed_name_is_gone(module_name, name):
    module = importlib.import_module(f"contactmech.{module_name}")
    assert not hasattr(module, name)
    assert not hasattr(contactmech, name)


def test_every_traced_name_resolves():
    # resolved as the tracer's `Tracer.installed` does: a method on its
    # class's own __dict__, a function as a module attribute
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "bench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for module_name, attr, _, _ in tracing.TRACED:
        module = importlib.import_module(f"contactmech.{module_name}")
        if "." in attr:
            cls_name, method = attr.split(".")
            assert callable(getattr(module, cls_name).__dict__[method]), attr
        else:
            assert callable(getattr(module, attr)), attr


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    path = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", block],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
