"""Symmetry and conserved/dissipated-quantity verification.

All residuals here are pointwise and use exact derivatives; nothing is
estimated by differencing trajectory samples, so a check's resolution is
independent of integrator accuracy.  Trajectories only supply the states
at which quantity residuals are evaluated.

Two tolerance regimes apply throughout: 1e-8 for pointwise residuals
(rounding-limited) and 1e-6 when comparing against integrated
trajectories (includes global integration error).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import expr as ex
from .calculus import (
    ScalarField,
    VectorField,
    _coerce_component,
    _jacobian,
    hamiltonian_field,
    lie_bracket,
    lie_derivative_contact_form,
    lie_derivative_scalar,
    vector_field_value,
)
from .contact_core import ChartPoint, ContactSystem, contact_form_apply
from .expr import DomainError, Expression
from .integrate import Trajectory

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
    "product_quantity",
    "pullback_quantity",
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
KIND_BRACKET = "bracket-characterization"


@dataclass(frozen=True)
class CheckReport:
    """Residual statistics for one check over a set of sample states.

    `samples` counts states where the residual evaluated; states that
    raised a domain error are counted in `failed_samples` and excluded
    from the statistics (an all-failed check reports infinite residual).
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
            "max_residual": float(self.max_residual),
            "mean_residual": float(self.mean_residual),
            "tolerance": float(self.tolerance),
            "verdict": self.verdict,
            "failed_samples": self.failed_samples,
        }


def _report(subject, kind, residuals, tolerance, failed=0) -> CheckReport:
    if residuals:
        mx = max(residuals)
        mean = sum(residuals) / len(residuals)
    else:
        mx = math.inf
        mean = math.inf
    verdict = "pass" if mx <= tolerance else "fail"
    return CheckReport(
        subject=subject,
        kind=kind,
        samples=len(residuals),
        max_residual=mx,
        mean_residual=mean,
        tolerance=float(tolerance),
        verdict=verdict,
        failed_samples=failed,
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


def sample_states(
    sys: ContactSystem,
    count: int = 100,
    seed: int = 42,
    box: float = 2.0,
    min_abs_momentum: float = 0.0,
) -> list:
    """Deterministic uniform draws from [-box, box] per chart direction.

    With min_abs_momentum > 0, momentum entries are redrawn until they
    clear that magnitude, for checks that later divide by momenta.
    """
    if count < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    values = rng.uniform(-box, box, size=(count, sys.dim))
    if min_abs_momentum > 0.0:
        cols = slice(sys.n, 2 * sys.n)
        block = values[:, cols]
        mask = np.abs(block) < min_abs_momentum
        while np.any(mask):
            block[mask] = rng.uniform(-box, box, size=int(mask.sum()))
            mask = np.abs(block) < min_abs_momentum
        values[:, cols] = block
    return [ChartPoint.from_flat(row.tolist()) for row in values]


def classify_symmetry(
    sys: ContactSystem,
    field: VectorField,
    samples: Sequence[ChartPoint],
    tol: float = DEFAULT_TOLERANCE,
) -> tuple:
    """Contact-symmetry and dynamical-symmetry reports for a field.

    Contact residual per state: max of |L_Y eta| components and |L_Y H|.
    Dynamical residual: max component of [Y, X_H].  A passing contact
    report entails a passing dynamical report; that implication is
    asserted because its failure would mean the operators disagree.
    """
    if not samples:
        raise ValueError("need at least one sample state")
    ham = ScalarField("H", sys.hamiltonian)
    x_h = hamiltonian_field(sys)
    contact_res = []
    contact_failed = 0
    dynamical_res = []
    dynamical_failed = 0
    for point in samples:
        try:
            form = lie_derivative_contact_form(sys, field, point).max_norm()
            rate = abs(lie_derivative_scalar(sys, field, ham, point))
            contact_res.append(max(form, rate))
        except DomainError:
            contact_failed += 1
        try:
            dynamical_res.append(lie_bracket(sys, field, x_h, point).max_norm())
        except DomainError:
            dynamical_failed += 1
    contact = _report(field.name, KIND_CONTACT, contact_res, tol, contact_failed)
    dynamical = _report(
        field.name, KIND_DYNAMICAL, dynamical_res, tol, dynamical_failed
    )
    if contact.passed and not dynamical.passed:
        raise RuntimeError(
            f"field {field.name!r} passed the contact check but failed the "
            f"dynamical check; the two operators are inconsistent"
        )
    return contact, dynamical


def noether_quantity(sys: ContactSystem, field: VectorField) -> ScalarField:
    """The dissipated quantity a dynamical symmetry generates.

    F = -i(Y)eta = sum_i p_i Y^{q_i} - Y^s, assembled symbolically.
    """
    total = ex.literal(0.0)
    for i, momentum in enumerate(sys.momenta):
        total = ex.add(total, ex.mul(ex.variable(momentum), field.components[i]))
    expression = ex.sub(total, field.components[2 * sys.n])
    return ScalarField(f"noether[{field.name}]", expression)


def _quantity_rates(
    sys: ContactSystem, expression: Expression, point: ChartPoint
) -> tuple:
    """(L_{X_H}F, L_{X_H}F + (dH/ds) F) at one state."""
    flow = sys.flow(point.flat())
    env = sys.bindings(point)
    value = expression._run(env)
    rate = 0.0
    for velocity, var in zip(flow, sys.chart_names):
        rate += velocity * expression.derivative(var)._run(env)
    h_s = sys.d_hamiltonian("s", point)
    return rate, rate + h_s * value


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
    """
    if len(traj) == 0:
        raise ValueError("empty trajectory")
    cons = []
    diss = []
    failed = 0
    for point in traj.points():
        try:
            r_cons, r_diss = _quantity_rates(sys, quantity.expression, point)
        except DomainError:
            failed += 1
            continue
        cons.append(abs(r_cons))
        diss.append(abs(r_diss))
    conserved = _report(quantity.name, KIND_CONSERVED, cons, tol, failed)
    dissipated = _report(quantity.name, KIND_DISSIPATED, diss, tol, failed)
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


def product_quantity(dissipated: ScalarField, conserved: ScalarField) -> ScalarField:
    """F*G: dissipated when F is dissipated and G is conserved."""
    return ScalarField(
        f"{dissipated.name}*{conserved.name}",
        ex.mul(dissipated.expression, conserved.expression),
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

    def __post_init__(self):
        names = tuple(self.names)
        components = tuple(self.components)
        if len(names) < 3 or len(names) % 2 == 0:
            raise ValueError(f"a chart map needs 2n+1 variables, got {len(names)}")
        if len(components) != len(names):
            raise ValueError(
                f"{len(names)} chart variables but {len(components)} components"
            )
        if not all(isinstance(c, Expression) for c in components):
            raise TypeError("components must be Expressions")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "components", components)

    @property
    def n(self) -> int:
        return (len(self.components) - 1) // 2

    @classmethod
    def from_mapping(
        cls, sys: ContactSystem, name: str, components: Mapping[str, object]
    ) -> "PointMap":
        """Missing entries default to the identity on that variable."""
        unknown = set(components) - set(sys.chart_names)
        if unknown:
            raise ValueError(
                f"map {name!r} has components for unknown variables: "
                f"{sorted(unknown)}"
            )
        declared = frozenset(sys.chart_names) | frozenset(sys.parameters)
        built = tuple(
            _coerce_component(components[cn], declared)
            if cn in components
            else ex.variable(cn)
            for cn in sys.chart_names
        )
        return cls(name, sys.chart_names, built)

    def apply(self, sys: ContactSystem, point: ChartPoint) -> ChartPoint:
        env = sys.bindings(point)
        return ChartPoint.from_flat(tuple(c._run(env) for c in self.components))


def pullback_quantity(point_map: PointMap, quantity: ScalarField) -> ScalarField:
    """F composed with the map, built by substitution."""
    replacements = dict(zip(point_map.names, point_map.components))
    return ScalarField(
        f"{point_map.name}*{quantity.name}",
        ex.substitute(quantity.expression, replacements),
    )


def check_contact_symmetry_map(
    sys: ContactSystem,
    point_map: PointMap,
    samples: Sequence[ChartPoint],
    tol: float = DEFAULT_TOLERANCE,
) -> CheckReport:
    """Finite contact-symmetry test: pullback of eta and of H match.

    Componentwise, (pullback eta)_j = sum_k eta_k(image) * dPhi^k/dx_j is
    compared to eta at the state, and H(image) to H(state).
    """
    if not samples:
        raise ValueError("need at least one sample state")
    if point_map.names != sys.chart_names:
        raise ValueError(
            f"map {point_map.name!r} is over chart {point_map.names}, "
            f"system chart is {sys.chart_names}"
        )
    n = sys.n
    dim = sys.dim
    residuals = []
    failed = 0
    for point in samples:
        try:
            env = sys.bindings(point)
            image_vals = [c._run(env) for c in point_map.components]
            image = ChartPoint.from_flat(image_vals)
            jac = _jacobian(point_map.components, sys.chart_names, env)
            eta_image = np.zeros(dim)
            eta_image[:n] = [-pi for pi in image.p]
            eta_image[2 * n] = 1.0
            pulled = eta_image @ jac
            eta_here = np.zeros(dim)
            eta_here[:n] = [-pi for pi in point.p]
            eta_here[2 * n] = 1.0
            form_dev = float(np.max(np.abs(pulled - eta_here)))
            h_dev = abs(
                sys.hamiltonian_value(image) - sys.hamiltonian_value(point)
            )
            residuals.append(max(form_dev, h_dev))
        except DomainError:
            failed += 1
    return _report(point_map.name, KIND_CONTACT, residuals, tol, failed)
