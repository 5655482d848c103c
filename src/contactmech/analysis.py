"""Symmetry and conserved/dissipated-quantity verification.

All residuals here are pointwise and use exact derivatives; nothing is
estimated by differencing trajectory samples, so a check's resolution is
independent of integrator accuracy.  Trajectories only supply the states
at which quantity residuals are evaluated.

Each check compiles, when it starts, the operator trees that `calculus`
builds into one uncached column kernel, through the system's
`_compile_chart`, and calls it once on the chart columns of all its
states: the sample array, or `traj.states`.  It returns every output as
an (N,) array and a mask of the rows where the scalar kernel would raise
DomainError.  A row's residual in a report is the largest |output| that
report owns (a quantity keeps its two rates apart), NaN if one of them
is NaN.  A masked row counts as failed in every report its kernel feeds,
and a row with a NaN residual in that report only; symmetry
classification runs two kernels, whose failure counts stay apart but
for the rows where H is undefined, which fail both.  Each unmasked
row's outputs are bit-identical to the scalar kernel that the per-point
`calculus` functions run on the same trees.

Checks default to 1e-8 (DEFAULT_TOLERANCE), a bound on pointwise
residuals that only rounding limits; a tol must be finite and positive,
the integrators' rule for dt and tol.  TRAJECTORY_TOLERANCE = 1e-6 is the
bound the oracles use for integrated values, which carry global
integration error.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from . import expr as ex
from .calculus import (
    ScalarField,
    VectorField,
    _bracket_trees,
    _chart_components,
    _chart_expressions,
    _check_bound,
    _check_field,
    _dissipation_trees,
    _lie_eta_trees,
    _map_deviation_trees,
    _rate_trees,
    hamiltonian_field,
    lie_bracket,
)
from .contact_core import ChartPoint, ContactSystem, _given, contact_form_apply
from .integrate import Trajectory, _check_trajectory_chart, _require_positive

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "CheckReport",
    "PointMap",
    "QuantityReport",
    "characterization_residual",
    "check_contact_symmetry_map",
    "check_quantity",
    "classify_symmetry",
    "conserved_from_symmetry",
    "noether_quantity",
    "quotient_quantity",
    "reeb_lift",
    "sample_states",
]

DEFAULT_TOLERANCE = 1e-8
TRAJECTORY_TOLERANCE = 1e-6

#: classification needs both residuals above this multiple of tol to
#: report "neither"; the band in between is inconclusive
NEITHER_MARGIN = 1e3

KIND_CONTACT = "contact-symmetry"
KIND_DYNAMICAL = "dynamical-symmetry"
KIND_CONSERVED = "conserved"
KIND_DISSIPATED = "dissipated"


@dataclass(frozen=True)
class CheckReport:
    """Residual statistics for one check over a set of sample states.

    `samples` counts states where the residual evaluated; states that
    raised a domain error or gave a NaN residual are counted in
    `failed_samples` and excluded from the statistics (an all-failed
    check reports infinite residual, which `as_dict` writes as None).
    """

    subject: str
    kind: str
    samples: int
    max_residual: float
    mean_residual: float
    tolerance: float
    verdict: str
    failed_samples: int = 0

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def as_dict(self) -> dict:
        return {
            "subject": self.subject,
            "kind": self.kind,
            "samples": self.samples,
            "max_residual": _finite_or_none(self.max_residual),
            "mean_residual": _finite_or_none(self.mean_residual),
            "tolerance": float(self.tolerance),
            "verdict": self.verdict,
            "failed_samples": self.failed_samples,
        }


def _finite_or_none(value: float) -> float | None:
    value = float(value)
    return value if math.isfinite(value) else None


def _sampled_report(subject, kind, outputs, failed, tolerance) -> CheckReport:
    """The CheckReport of one kind from the (N,) column-kernel `outputs`
    it owns and the kernel's mask `failed`.

    A row's residual is the largest |output|, NaN if one is NaN; a row
    that `failed` marks or whose residual is NaN counts as failed.  The
    max and the mean, summed left to right, are taken over the Python
    floats of the other rows, so they match a per-row loop bit for bit.
    """
    import numpy as np

    residual = np.max(np.abs(outputs), axis=0)
    residuals = residual[~(failed | np.isnan(residual))].tolist()
    if residuals:
        mx = max(residuals)
        mean = sum(residuals) / len(residuals)
    else:
        mx = mean = math.inf
    return CheckReport(
        subject=subject,
        kind=kind,
        samples=len(residuals),
        max_residual=mx,
        mean_residual=mean,
        tolerance=float(tolerance),
        verdict="pass" if mx <= tolerance else "fail",
        failed_samples=len(failed) - len(residuals),
    )


@dataclass(frozen=True)
class QuantityReport:
    """Joint conserved/dissipated classification of a scalar quantity."""

    subject: str
    classification: str  # conserved | dissipated | both | neither | inconclusive
    conserved: CheckReport
    dissipated: CheckReport

    def as_dict(self) -> dict:
        return {
            "subject": self.subject,
            "classification": self.classification,
            "conserved": self.conserved.as_dict(),
            "dissipated": self.dissipated.as_dict(),
        }


def sample_states(sys: ContactSystem, count: int = 100, seed: int = 42) -> list:
    """Deterministic uniform draws from [-2, 2] per chart direction."""
    if count < 1:
        raise ValueError("need at least one sample")
    import numpy as np

    values = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(count, sys.dim))
    return [ChartPoint.from_flat(row.tolist()) for row in values]


def _sample_columns(sys: ContactSystem, samples: Sequence[ChartPoint]) -> np.ndarray:
    """The 2n+1 chart columns of the sample states, each state checked
    against the system's n up front."""
    import numpy as np

    if not samples:
        raise ValueError("need at least one sample state")
    for point in samples:
        sys._check_point(point)
    return np.array([point.flat() for point in samples]).T


def classify_symmetry(
    sys: ContactSystem,
    field: VectorField,
    samples: Sequence[ChartPoint],
    tol: float = DEFAULT_TOLERANCE,
) -> tuple:
    """Contact-symmetry and dynamical-symmetry reports for a field.

    Contact residual per state: max of |L_Y eta| components and |L_Y H|.
    Dynamical residual: max component of [Y, X_H].  Both reports are
    returned as measured, even a contact pass with a dynamical failure,
    which exact arithmetic rules out.

    Each residual is one column-kernel call over all states; a state
    where a kernel fails counts as failed for that check only, and one
    where H is undefined, from H's own column kernel, fails both.
    """
    tol = _require_positive("tol", tol)
    columns = _sample_columns(sys, samples)
    _check_field(sys, field)
    y = field.components
    h = (sys.hamiltonian,)
    _, undefined = sys._kernel(_given, sys.hamiltonian, columns=True)(*columns)

    def report(kind, trees):
        outputs, failed = sys._compile_chart(trees, columns=True)(*columns)
        return _sampled_report(field.name, kind, outputs, failed | undefined, tol)

    contact = report(KIND_CONTACT, _lie_eta_trees(sys, y) + _rate_trees(sys, y, h))
    return contact, report(KIND_DYNAMICAL, _bracket_trees(sys, y, sys._field))


def noether_quantity(sys: ContactSystem, field: VectorField) -> ScalarField:
    """The dissipated quantity a dynamical symmetry generates.

    F = -i(Y)eta = sum_i p_i Y^{q_i} - Y^s, assembled symbolically.
    """
    total = ex.literal(0.0)
    for i, momentum in enumerate(sys.momenta):
        total = ex.add(total, ex.mul(ex.variable(momentum), field.components[i]))
    expression = ex.sub(total, field.components[2 * sys.n])
    return ScalarField(f"noether[{field.name}]", expression)


def check_quantity(
    sys: ContactSystem,
    quantity: ScalarField,
    traj: Trajectory,
    tol: float = DEFAULT_TOLERANCE,
) -> QuantityReport:
    """Classify a quantity along a trajectory by pointwise rates.

    conserved:  L_{X_H}F = 0 at every sample;
    dissipated: L_{X_H}F + (dH/ds) F = 0 at every sample.
    Both can hold (F = 0); "neither" requires both residuals to exceed
    NEITHER_MARGIN * tol, and the band in between is inconclusive.

    One column kernel returns both rates at every sample; a sample
    where it fails counts as failed in both reports.
    """
    tol = _require_positive("tol", tol)
    _check_trajectory_chart(sys, traj)
    _check_bound(sys, (quantity.expression,))
    kernel = sys._compile_chart(
        _dissipation_trees(sys, quantity.expression), columns=True
    )
    (rate, dissipation), failed = kernel(*traj.states.T)
    conserved = _sampled_report(quantity.name, KIND_CONSERVED, (rate,), failed, tol)
    dissipated = _sampled_report(
        quantity.name, KIND_DISSIPATED, (dissipation,), failed, tol
    )
    if conserved.passed and dissipated.passed:
        label = "both"
    elif conserved.passed:
        label = "conserved"
    elif dissipated.passed:
        label = "dissipated"
    elif (
        conserved.max_residual > NEITHER_MARGIN * tol
        and dissipated.max_residual > NEITHER_MARGIN * tol
    ):
        label = "neither"
    else:
        label = "inconclusive"
    return QuantityReport(quantity.name, label, conserved, dissipated)


def quotient_quantity(f1: ScalarField, f2: ScalarField) -> ScalarField:
    """F1/F2: conserved wherever both inputs are dissipated and F2 != 0."""
    return ScalarField(
        f"{f1.name}/{f2.name}", ex.div(f1.expression, f2.expression)
    )


def conserved_from_symmetry(sys: ContactSystem, field: VectorField) -> ScalarField:
    """-i(Y)eta / H, conserved along trajectories that avoid H = 0."""
    return quotient_quantity(
        noether_quantity(sys, field), ScalarField("H", sys.hamiltonian)
    )


def reeb_lift(sys: ContactSystem, quantity: ScalarField) -> VectorField:
    """The field -F d/ds, whose eta-contraction is -F by construction."""
    zero = ex.literal(0.0)
    components = (zero,) * (2 * sys.n) + (ex.neg(quantity.expression),)
    return VectorField(f"reeb_lift[{quantity.name}]", components)


def characterization_residual(
    sys: ContactSystem, field: VectorField, point: ChartPoint
) -> float:
    """eta([X, X_H]) at a state.

    Vanishing everywhere is equivalent to i(X)eta being a dissipated
    quantity, which turns the dissipated-quantity test into a bracket
    condition.
    """
    bracket = lie_bracket(sys, field, hamiltonian_field(sys), point)
    return contact_form_apply(point, bracket)


@dataclass(frozen=True)
class PointMap:
    """A chart self-map: one target expression per chart variable."""

    name: str
    names: tuple
    components: tuple
    n: int = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        names = tuple(self.names)
        components = tuple(self.components)
        if len(components) != len(names):
            raise ValueError(
                f"{len(names)} chart variables but {len(components)} components"
            )
        n, components = _chart_expressions(components, "a chart map")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "components", components)

    @classmethod
    def from_mapping(
        cls, sys: ContactSystem, name: str, components: Mapping[str, object]
    ) -> "PointMap":
        """Missing entries default to the identity on that variable."""
        built = _chart_components(sys, f"map {name!r}", components, ex.variable)
        return cls(name, sys.chart_names, built)

    def apply(self, sys: ContactSystem, point: ChartPoint) -> ChartPoint:
        return ChartPoint.from_flat(sys._at(point, _given, self.components))


def check_contact_symmetry_map(
    sys: ContactSystem,
    point_map: PointMap,
    samples: Sequence[ChartPoint],
    tol: float = DEFAULT_TOLERANCE,
) -> CheckReport:
    """Finite contact-symmetry test: pullback of eta and of H match.

    Componentwise, (pullback eta)_j = sum_k eta_k(image) * dPhi^k/dx_j is
    compared to eta at the state, and H(image) to H(state); the residual
    is the largest deviation, from one column-kernel call over all states.
    """
    tol = _require_positive("tol", tol)
    columns = _sample_columns(sys, samples)
    if point_map.names != sys.chart_names:
        raise ValueError(
            f"map {point_map.name!r} is over chart {point_map.names}, "
            f"system chart is {sys.chart_names}"
        )
    _check_bound(sys, point_map.components)
    deviations = _map_deviation_trees(sys, point_map.components)
    outputs, failed = sys._compile_chart(deviations, columns=True)(*columns)
    return _sampled_report(point_map.name, KIND_CONTACT, outputs, failed, tol)
