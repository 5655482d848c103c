"""Contact Hamiltonian mechanics in Darboux coordinates.

Build dissipative mechanical systems from a Hamiltonian on extended
phase space, integrate their flow, and check which phase-space
quantities the dynamics conserves or dissipates and which vector fields
generate symmetries.
"""

from .expr import (
    DomainError,
    Expression,
    ExpressionError,
    MissingBindingError,
    ParseError,
    UnknownNameError,
    parse,
)
from .contact_core import ChartPoint, ContactSystem
from .calculus import (
    PointMap,
    ScalarField,
    VectorField,
    characterization_residual,
    hamilton_equation_residuals,
    hamiltonian_field,
    lie_bracket,
    lie_derivative_contact_form,
    lie_derivative_scalar,
    vf_jacobian,
)
from .integrate import (
    DivergenceError,
    IntegrationError,
    StepUnderflowError,
    Trajectory,
    integrate_adaptive,
    integrate_fixed,
    read_trajectory_csv,
    write_trajectory_csv,
)
from .analysis import (
    CheckReport,
    QuantityReport,
    check_contact_symmetry_map,
    check_quantity,
    classify_symmetry,
    conserved_from_symmetry,
    noether_quantity,
    quotient_quantity,
    reeb_lift,
    sample_states,
)
from .models import ModelError, analytic_reference, builtin, list_models
from .specdoc import SpecDocument, SpecError, load_document

__version__ = "0.1.0"

__all__ = [
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
