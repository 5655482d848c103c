"""Contact Hamiltonian mechanics in Darboux coordinates.

Build dissipative mechanical systems from a Hamiltonian on extended
phase space, integrate their flow, and check which phase-space
quantities the dynamics conserves or dissipates and which vector fields
generate symmetries.

Importing the package loads none of its modules.  `_SOURCES` names the
module that defines each public name; `__getattr__` imports that module
on first use and reads the name from it on every use, binding nothing
here, so a command compiles only the modules it runs and each function
keeps one binding, in the module that defines it.
"""

import importlib

__version__ = "0.1.0"

#: each public name and the submodule that defines it
_SOURCES = {
    name: module
    for module, names in (
        ("expr", "DomainError Expression ExpressionError MissingBindingError "
                 "ParseError UnknownNameError parse"),
        ("contact_core", "ChartPoint ContactSystem"),
        ("calculus", "PointMap ScalarField VectorField characterization_residual "
                     "hamilton_equation_residuals hamiltonian_field lie_bracket "
                     "lie_derivative_contact_form lie_derivative_scalar vf_jacobian"),
        ("integrate", "DivergenceError IntegrationError StepUnderflowError "
                      "Trajectory integrate_adaptive integrate_fixed "
                      "read_trajectory_csv write_trajectory_csv"),
        ("analysis", "CheckReport QuantityReport check_contact_symmetry_map "
                     "check_quantity classify_symmetry conserved_from_symmetry "
                     "noether_quantity quotient_quantity reeb_lift sample_states"),
        ("models", "ModelError analytic_reference builtin list_models"),
        ("specdoc", "SpecDocument SpecError load_document"),
    )
    for name in names.split()
}

#: the submodules that resolve as attributes of a plain `import contactmech`
_SUBMODULES = frozenset(
    ("expr", "contact_core", "calculus", "integrate", "analysis", "models",
     "specdoc", "_record")
)

__all__ = sorted(_SOURCES)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _SOURCES:
        return getattr(importlib.import_module(f"{__name__}.{_SOURCES[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted({*globals(), *_SOURCES, *_SUBMODULES})
