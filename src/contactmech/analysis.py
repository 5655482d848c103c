"""Sampled symmetry and quantity checks, and the quantity constructions.

`analysis` owns the sampled checks and the constructions of quantities
from fields; the candidate types and every per-point function are
`calculus`'s.  All residuals here are pointwise and use exact
derivatives; nothing is estimated by differencing trajectory samples,
so a check's resolution is independent of integrator accuracy.

Each check fits its candidate to the system (`_check_field` or
`_check_bound`), then `_measure`s its operator trees on its states, any
(N, 2n+1) array of chart rows, then reduces them with
`_sampled_report`.  `_measure` runs the column kernel of the trees,
which the system builds once and keeps, once on the chart columns of
all the states.  It returns every output as an (N,) array and a mask of
the rows where the scalar kernel would raise DomainError.  A row's
residual in a report is the largest |output| that report owns (a
quantity keeps its two rates apart), NaN if one of them is NaN.  A
masked row counts as failed in every report its kernel feeds, and a row
with a NaN residual in that report only; symmetry classification runs
two kernels, whose failure counts stay apart but for the rows where H
is undefined, which fail both.  Each unmasked row's outputs are
bit-identical to the scalar kernel that the per-point `calculus`
functions run on the same trees.

Checks default to 1e-8 (DEFAULT_TOLERANCE), a bound on pointwise
residuals that only rounding limits; a tol must be finite and positive,
the integrators' rule for dt and tol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import expr as ex
from .calculus import (
    PointMap,
    ScalarField,
    VectorField,
    _bracket_trees,
    _check_bound,
    _check_field,
    _contact_trees,
    _dissipation_trees,
    _map_deviation_trees,
)
from .contact_core import ContactSystem, _given
from .integrate import _require_positive

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "CheckReport",
    "QuantityReport",
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

    tolerance = float(tolerance)
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
        tolerance=tolerance,
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


def sample_states(sys: ContactSystem, count: int = 100, seed: int = 42) -> np.ndarray:
    """(count, 2n+1) array of seeded uniform draws from [-2, 2]: a row per state."""
    if count < 1:
        raise ValueError("need at least one sample")
    import numpy as np

    return np.random.default_rng(seed).uniform(-2.0, 2.0, size=(count, sys.dim))


def _measure(sys: ContactSystem, states, tol: float, build, *args) -> tuple:
    """(outputs, failed) of the column kernel of the trees
    `build(sys, *args)`, kept on the system, over `states`, an (N, 2n+1)
    array of chart rows, once `tol` is known to be finite and positive."""
    import numpy as np

    _require_positive("tol", tol)
    what = f"an (N, {sys.dim}) array of chart rows with N >= 1 for n={sys.n}"
    try:
        rows = np.asarray(states, dtype=float)
    except ValueError:
        message = f"states must be {what}, got ragged or non-real rows"
        raise ValueError(message) from None
    if rows.ndim != 2 or not len(rows) or rows.shape[1] != sys.dim:
        raise ValueError(f"states must be {what}, got shape {rows.shape}")
    return sys._kernel(build, *args, columns=True)(*rows.T)


def classify_symmetry(
    sys: ContactSystem,
    field: VectorField,
    states,
    tol: float = DEFAULT_TOLERANCE,
) -> tuple:
    """Contact-symmetry and dynamical-symmetry reports for a field at
    `states`, any (N, 2n+1) array of chart rows: a `sample_states` draw,
    `traj.states` or a list of row tuples.

    Contact residual per state: max of |L_Y eta| components and |L_Y H|.
    Dynamical residual: max component of [Y, X_H].  Both reports are
    returned as measured, even a contact pass with a dynamical failure,
    which exact arithmetic rules out.

    Each residual is one column-kernel call over all states; a state
    where a kernel fails counts as failed for that check only, and one
    where H is undefined, from H's own column kernel, fails both.
    """
    _check_field(sys, field)
    _, undefined = _measure(sys, states, tol, _given, sys.hamiltonian)

    def report(kind, build, *args):
        outputs, failed = _measure(sys, states, tol, build, *args)
        return _sampled_report(field.name, kind, outputs, failed | undefined, tol)

    y = field.components
    contact = report(KIND_CONTACT, _contact_trees, y)
    return contact, report(KIND_DYNAMICAL, _bracket_trees, y, sys._field)


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
    states,
    tol: float = DEFAULT_TOLERANCE,
) -> QuantityReport:
    """Classify a quantity by its pointwise rates at `states`, any
    (N, 2n+1) array of chart rows, as for `classify_symmetry`.

    conserved:  L_{X_H}F = 0 at every sample;
    dissipated: L_{X_H}F + (dH/ds) F = 0 at every sample.
    Both can hold (F = 0); "neither" requires both residuals to exceed
    NEITHER_MARGIN * tol, and the band in between is inconclusive.

    One column kernel returns both rates at every sample; a sample
    where it fails counts as failed in both reports.
    """
    _check_bound(sys, (quantity.expression,))
    (rate, dissipation), failed = _measure(
        sys, states, tol, _dissipation_trees, quantity.expression
    )
    conserved = _sampled_report(quantity.name, KIND_CONSERVED, (rate,), failed, tol)
    dissipated = _sampled_report(
        quantity.name, KIND_DISSIPATED, (dissipation,), failed, tol
    )
    margin = NEITHER_MARGIN * conserved.tolerance
    if conserved.passed and dissipated.passed:
        label = "both"
    elif conserved.passed:
        label = "conserved"
    elif dissipated.passed:
        label = "dissipated"
    elif conserved.max_residual > margin and dissipated.max_residual > margin:
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


def check_contact_symmetry_map(
    sys: ContactSystem,
    point_map: PointMap,
    states,
    tol: float = DEFAULT_TOLERANCE,
) -> CheckReport:
    """Finite contact-symmetry test: pullback of eta and of H match at
    `states`, any (N, 2n+1) array of chart rows, as for `classify_symmetry`.

    Componentwise, (pullback eta)_j = sum_k eta_k(image) * dPhi^k/dx_j is
    compared to eta at the state, and H(image) to H(state); the residual
    is the largest deviation, from one column-kernel call over all states.
    """
    _check_field(sys, point_map)
    outputs, failed = _measure(
        sys, states, tol, _map_deviation_trees, point_map.components
    )
    return _sampled_report(point_map.name, KIND_CONTACT, outputs, failed, tol)
