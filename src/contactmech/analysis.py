"""Symmetry and conserved/dissipated-quantity verification.

All residuals here are pointwise and use exact derivatives; nothing is
estimated by differencing trajectory samples, so a check's resolution is
independent of integrator accuracy.  Trajectories only supply the states
at which quantity residuals are evaluated.

Each check builds, when it starts, a residual closure around one
straight-line kernel of the flat chart state, and one sample loop runs
it on every state: a state where it raises DomainError counts as failed
in the reports it feeds (symmetry classification runs two closures, so
the contact and dynamical failure counts stay apart).  The arithmetic
after each kernel call is that of the per-point `calculus` functions,
so residuals are bit-identical.

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
    _chart_components,
    _field_dim_check,
    hamiltonian_field,
    lie_bracket,
)
from .contact_core import ACTION_NAME, ChartPoint, ContactSystem, contact_form_apply
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


def _sampled_reports(subject, kinds, residual, rows, tolerance) -> tuple:
    """One CheckReport per kind from `residual` run on each flat row.

    `residual(row)` returns one value per kind; a row where it raises
    DomainError counts as failed in every report it feeds.
    """
    values = []  # row-major, len(kinds) per evaluated row
    failed = 0
    for row in rows:
        try:
            values.extend(residual(row))
        except DomainError:
            failed += 1
    reports = []
    for k, kind in enumerate(kinds):
        residuals = values[k :: len(kinds)]
        if residuals:
            mx = max(residuals)
            mean = sum(residuals) / len(residuals)
        else:
            mx = math.inf
            mean = math.inf
        reports.append(
            CheckReport(
                subject=subject,
                kind=kind,
                samples=len(residuals),
                max_residual=mx,
                mean_residual=mean,
                tolerance=float(tolerance),
                verdict="pass" if mx <= tolerance else "fail",
                failed_samples=failed,
            )
        )
    return tuple(reports)


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
    if not (math.isfinite(box) and box > 0.0):
        raise ValueError(f"box must be finite and positive, got {box!r}")
    if min_abs_momentum >= box:
        # no draw from [-box, box] could clear the bound
        raise ValueError(
            f"min_abs_momentum={min_abs_momentum!r} must be below box={box!r}"
        )
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


def _sample_rows(sys: ContactSystem, samples: Sequence[ChartPoint]) -> list:
    """Flat sample states, each checked against the system's n up front."""
    if not samples:
        raise ValueError("need at least one sample state")
    rows = []
    for point in samples:
        sys._check_point(point)
        rows.append(point.flat())
    return rows


def _partials(components, names) -> tuple:
    """d(component)/d(name), component-major, as expressions."""
    return tuple(comp.derivative(var) for comp in components for var in names)


def _contact_residual(sys: ContactSystem, field: VectorField):
    """Per-state 1-tuple: max of |L_Y eta| components and |L_Y H|.

    The kernel returns Y, dY^s/dx, dY^{q_k}/dx and dH/dx^k for the
    directions whose component is not a literal 0; the arithmetic after
    it is that of `lie_derivative_contact_form` and
    `lie_derivative_scalar`, in the same order.
    """
    n, dim, names = sys.n, sys.dim, sys.chart_names
    y = field.components
    active = [k for k, comp in enumerate(y) if not ex._is_const(comp.root, 0.0)]
    kernel = ex._compile_kernel(
        y
        + _partials((y[2 * n],) + y[:n], names)
        + tuple(sys.hamiltonian.derivative(names[k]) for k in active),
        names,
        sys.parameters,
    )
    d_yq = [slice((2 + k) * dim, (3 + k) * dim) for k in range(n)]
    hs = 2 * dim + n * dim  # start of the dH/dx^k block

    def residual(flat) -> tuple:
        out = kernel(*flat)
        # d(i(Y)eta)/dx^j = dY^s/dx^j - sum_k p_k dY^{q_k}/dx^j, k ascending
        form = list(out[dim : 2 * dim])
        for p_k, block in zip(flat[n : 2 * n], d_yq):
            form = [total - p_k * d for total, d in zip(form, out[block])]
        for i in range(n):
            form[i] -= out[n + i]
        rate = 0.0
        for k, h_k in zip(active, out[hs:]):
            weight = out[k]
            if weight != 0.0:
                rate += weight * h_k
        return (max(max(abs(v) for v in form), abs(rate)),)

    return residual


def _bracket_residual(sys: ContactSystem, field: VectorField):
    """Per-state 1-tuple: max component of [Y, X_H], from one kernel of
    both fields and both Jacobians; the product is `lie_bracket`'s."""
    dim, names = sys.dim, sys.chart_names
    x_h = sys._field
    kernel = ex._compile_kernel(
        field.components
        + x_h
        + _partials(field.components, names)
        + _partials(x_h, names),
        names,
        sys.parameters,
    )
    jb_at = 2 * dim + dim * dim

    def residual(flat) -> tuple:
        out = kernel(*flat)
        va = np.array(out[:dim])
        vb = np.array(out[dim : 2 * dim])
        ja = np.array(out[2 * dim : jb_at]).reshape(dim, dim)
        jb = np.array(out[jb_at:]).reshape(dim, dim)
        return (max(abs(v) for v in (jb @ va - ja @ vb).tolist()),)

    return residual


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

    Each residual is one compiled kernel call per state; a state where
    a kernel raises DomainError counts as failed for that check only.
    """
    rows = _sample_rows(sys, samples)
    _field_dim_check(sys, field)
    (contact,) = _sampled_reports(
        field.name, (KIND_CONTACT,), _contact_residual(sys, field), rows, tol
    )
    (dynamical,) = _sampled_reports(
        field.name, (KIND_DYNAMICAL,), _bracket_residual(sys, field), rows, tol
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


def _quantity_residual(sys: ContactSystem, expression: Expression):
    """Per-state (|L_{X_H}F|, |L_{X_H}F + (dH/ds) F|), from one kernel of
    X_H, F, dF/dx^k in chart order and dH/ds."""
    dim = sys.dim
    kernel = ex._compile_kernel(
        sys._field
        + (expression,)
        + _partials((expression,), sys.chart_names)
        + (sys.hamiltonian.derivative(ACTION_NAME),),
        sys.chart_names,
        sys.parameters,
    )

    def residual(row) -> tuple:
        out = kernel(*row)
        rate = 0.0
        # zip stops after the dim entries of X_H at the front of `out`
        for velocity, slope in zip(out, out[dim + 1 : 2 * dim + 1]):
            rate += velocity * slope
        return abs(rate), abs(rate + out[-1] * out[dim])

    return residual


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

    One compiled kernel returns X_H, F, dF/dx^k in chart order and
    dH/ds at each sample; a sample where it raises DomainError counts as
    failed in both reports.
    """
    if len(traj) == 0:
        raise ValueError("empty trajectory")
    if traj.names != sys.chart_names:
        raise ValueError(
            f"trajectory chart {traj.names} does not match the system "
            f"chart {sys.chart_names}"
        )
    conserved, dissipated = _sampled_reports(
        quantity.name,
        (KIND_CONSERVED, KIND_DISSIPATED),
        _quantity_residual(sys, quantity.expression),
        traj.states.tolist(),
        tol,
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
        built = _chart_components(sys, f"map {name!r}", components, ex.variable)
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


def _map_residual(sys: ContactSystem, point_map: PointMap):
    """Per-state 1-tuple: max of |pullback eta - eta| components and
    |H(image) - H(state)|, from one kernel of the image and the map's
    Jacobian."""
    n, dim = sys.n, sys.dim
    kernel = ex._compile_kernel(
        point_map.components + _partials(point_map.components, sys.chart_names),
        sys.chart_names,
        sys.parameters,
    )

    def residual(flat) -> tuple:
        out = kernel(*flat)
        image = out[:dim]
        jac = np.array(out[dim:]).reshape(dim, dim)
        eta_image = np.zeros(dim)
        eta_image[:n] = [-pi for pi in image[n : 2 * n]]
        eta_image[2 * n] = 1.0
        pulled = eta_image @ jac
        eta_here = np.zeros(dim)
        eta_here[:n] = [-pi for pi in flat[n : 2 * n]]
        eta_here[2 * n] = 1.0
        form_dev = float(np.max(np.abs(pulled - eta_here)))
        h_dev = abs(sys._hamiltonian_flat(image) - sys._hamiltonian_flat(flat))
        return (max(form_dev, h_dev),)

    return residual


def check_contact_symmetry_map(
    sys: ContactSystem,
    point_map: PointMap,
    samples: Sequence[ChartPoint],
    tol: float = DEFAULT_TOLERANCE,
) -> CheckReport:
    """Finite contact-symmetry test: pullback of eta and of H match.

    Componentwise, (pullback eta)_j = sum_k eta_k(image) * dPhi^k/dx_j is
    compared to eta at the state, and H(image) to H(state).  One compiled
    kernel returns the image and the map's Jacobian at each state.
    """
    rows = _sample_rows(sys, samples)
    if point_map.names != sys.chart_names:
        raise ValueError(
            f"map {point_map.name!r} is over chart {point_map.names}, "
            f"system chart is {sys.chart_names}"
        )
    (report,) = _sampled_reports(
        point_map.name, (KIND_CONTACT,), _map_residual(sys, point_map), rows, tol
    )
    return report
