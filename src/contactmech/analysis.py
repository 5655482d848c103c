"""Sampled symmetry and quantity checks, and the quantity constructions.

`analysis` owns the sampled checks and the constructions of quantities
from fields; the candidate types and every per-point function are
`calculus`'s.  All residuals here are pointwise and use exact
derivatives; nothing is estimated by differencing trajectory samples,
so a check's resolution is independent of integrator accuracy.

Each check fits its candidate to the system (`_check_field` or
`_check_bound`), then `_measure`s its operator trees on its states, any
(N, 2n+1) array of chart rows, then reduces them with
`_sampled_report`.  `_run_checks` is that one path for any number of
candidates: the three public checks call it with one candidate each,
`analyze` once on the sampled states, where it also reads H, and
`verify` once per set of states, two stages: every symmetry and map on
the samples, then every quantity and quotient along the trajectory.
`_measure` takes a list of requests, each the build of one check's
tuple of trees, and runs them as the groups of one column kernel (a
list of groups is what makes `expr._compile_kernel` build that form),
which the system builds once and keeps,
once on the chart columns of all the states, each shared subtree (the
derivatives of H above all) once.  It returns, per request, every
output as an (N,) array and a mask of the rows where the scalar kernel
of that request's trees alone would raise DomainError: each guarded
operation keeps a mask of its own, and a request's mask is the OR of
those its trees reach, so no failure leaks from one check into another.
A row's residual in a report is the largest |output| that report owns
(a quantity keeps its two rates apart), NaN if one of them is NaN.  A
masked row counts as failed in every report its request feeds, and a
row with a NaN residual in that report only; symmetry classification
runs two requests, whose failure counts stay apart but for the rows
where H is undefined, by H's own request, which fail both.  Each
unmasked row's outputs are bit-identical to the scalar kernel that the
per-point `calculus` functions run on the same trees.

`sample_states` draws numpy's `default_rng(seed).uniform` stream bit
for bit through `_pcg64`, so no check imports numpy.random.

Checks default to `integrate.DEFAULT_TOLERANCE`, 1e-8, a bound on
pointwise residuals that only rounding limits; a tol must be finite and
positive, the integrators' rule for dt and tol.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from . import expr as ex
from ._record import Record, _set
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
from .integrate import DEFAULT_TOLERANCE, _require_positive

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

#: classification needs both residuals above this multiple of tol to
#: report "neither"; the band in between is inconclusive
NEITHER_MARGIN = 1e3

KIND_CONTACT = "contact-symmetry"
KIND_DYNAMICAL = "dynamical-symmetry"
KIND_CONSERVED = "conserved"
KIND_DISSIPATED = "dissipated"


class CheckReport(Record):
    """Residual statistics for one check over a set of sample states.

    `samples` counts states where the residual evaluated; states that
    raised a domain error or gave a NaN residual are counted in
    `failed_samples` and excluded from the statistics (an all-failed
    check reports infinite residual, which `as_dict` writes as None).
    """

    __slots__ = _fields = (
        "subject", "kind", "samples", "max_residual", "mean_residual",
        "tolerance", "verdict", "failed_samples",
    )

    def __init__(
        self, subject: str, kind: str, samples: int, max_residual: float,
        mean_residual: float, tolerance: float, verdict: str,
        failed_samples: int = 0,
    ):
        _set(self, "subject", subject)
        _set(self, "kind", kind)
        _set(self, "samples", samples)
        _set(self, "max_residual", max_residual)
        _set(self, "mean_residual", mean_residual)
        _set(self, "tolerance", tolerance)
        _set(self, "verdict", verdict)
        _set(self, "failed_samples", failed_samples)

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
    max and the mean are taken over the other rows, the sum of the mean
    added left to right, so they match a per-row loop bit for bit.
    """
    import numpy as np

    tolerance = float(tolerance)
    residual = np.max(np.abs(outputs), axis=0)
    kept = residual[~(failed | np.isnan(residual))]
    if kept.size:
        mx = float(kept.max())
        # accumulate adds in order, where np.sum adds pairwise; a sum
        # that overflows is inf, as Python's is, without a warning
        with np.errstate(over="ignore"):
            total = float(np.add.accumulate(kept)[-1])
        mean = total / kept.size
    else:
        mx = mean = math.inf
    return CheckReport(
        subject=subject,
        kind=kind,
        samples=kept.size,
        max_residual=mx,
        mean_residual=mean,
        tolerance=tolerance,
        verdict="pass" if mx <= tolerance else "fail",
        failed_samples=len(failed) - kept.size,
    )


class QuantityReport(Record):
    """Joint conserved/dissipated classification of a scalar quantity:
    `classification` is conserved, dissipated, both, neither or
    inconclusive."""

    __slots__ = _fields = ("subject", "classification", "conserved", "dissipated")

    def __init__(
        self, subject: str, classification: str, conserved: CheckReport,
        dissipated: CheckReport,
    ):
        _set(self, "subject", subject)
        _set(self, "classification", classification)
        _set(self, "conserved", conserved)
        _set(self, "dissipated", dissipated)

    def as_dict(self) -> dict:
        return {
            "subject": self.subject,
            "classification": self.classification,
            "conserved": self.conserved.as_dict(),
            "dissipated": self.dissipated.as_dict(),
        }


def sample_states(sys: ContactSystem, count: int = 100, seed: int = 42) -> np.ndarray:
    """(count, 2n+1) array of seeded uniform draws from [-2, 2): a row per
    state, numpy's `default_rng(seed).uniform` stream bit for bit."""
    if count < 1:
        raise ValueError("need at least one sample")
    from ._pcg64 import uniform

    return uniform(seed, -2.0, 2.0, (count, sys.dim))


def _requested(sys: ContactSystem, requests) -> list:
    """The build of `_measure`'s kernel: the trees of each request."""
    return [build(sys, *args) for build, args in requests]


def _measure(sys: ContactSystem, states, tol: float, requests) -> list:
    """`(outputs, failed)` per request `(build, args)` over `states`, an
    (N, 2n+1) array of chart rows, once `tol` is known to be finite and
    positive: each request's trees `build(sys, *args)` are a group of one
    column kernel, which the system builds once and keeps, so subtrees
    the requests share run once, and `failed` masks the rows where the
    scalar kernel of that request's trees alone would raise."""
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
    return sys._kernel(_requested, tuple(requests))(*rows.T)


#: each category's label by which of its candidate's reports passed: a
#: symmetry's (contact, dynamical), a quantity's (conserved, dissipated)
#: and a map's (contact,); "inconsistent" is what exact arithmetic rules out
_LABELS = {
    "symmetry": {(True, True): "contact", (True, False): "inconsistent",
                 (False, True): "dynamical", (False, False): "neither"},
    "quantity": {(True, True): "both", (True, False): "conserved",
                 (False, True): "dissipated", (False, False): "neither"},
    "map": {(True,): "contact", (False,): "neither"},
}


def _label(category: str, *reports: CheckReport) -> str:
    """A candidate's label from its reports, by `_LABELS`: "inconclusive"
    when a report evaluated no state, or when a quantity is neither but
    has a residual within NEITHER_MARGIN * tol."""
    label = _LABELS[category][tuple(report.passed for report in reports)]
    margin = NEITHER_MARGIN * reports[0].tolerance
    if not all(report.samples for report in reports) or (
        category == "quantity" and label == "neither"
        and min(report.max_residual for report in reports) <= margin
    ):
        return "inconclusive"
    return label


def _matches(expected: str, observed: str) -> bool:
    """Whether an `observed` label meets an `expected` one: "both" meets
    "conserved" and "dissipated"."""
    if observed == "both":
        return expected in ("conserved", "dissipated")
    return observed == expected


def _run_checks(
    sys: ContactSystem, states, tol: float, fields=(), quantities=(), maps=()
) -> tuple:
    """The reports of every check of `fields`, `quantities` and `maps` at
    `states`, from one `_measure` call: a list of (contact, dynamical)
    pairs as `classify_symmetry` gives them, one of QuantityReports as
    `check_quantity` gives them, one of CheckReports as
    `check_contact_symmetry_map` gives them, and H's `((h,), undefined)`
    when there are fields (None otherwise), its column and the mask of
    the states where it is undefined.

    Every candidate is fitted to the system before anything is measured.
    Each check is its own group of the kernel, after H's when there are
    fields, so its mask holds only the failures of its own trees.
    """
    for field in (*fields, *maps):
        _check_field(sys, field)
    for quantity in quantities:
        _check_bound(sys, (quantity.expression,))
    requests = [(_given, ((sys.hamiltonian,),))] if fields else []
    for field in fields:
        y = field.components
        requests += [(_contact_trees, (y,)), (_bracket_trees, (y, sys._field))]
    requests += [(_dissipation_trees, (q.expression,)) for q in quantities]
    requests += [(_map_deviation_trees, (m.components,)) for m in maps]
    measured = iter(_measure(sys, states, tol, requests))
    h = next(measured) if fields else None

    def symmetry(name):
        (contact, c_failed), (bracket, b_failed) = next(measured), next(measured)
        undefined = h[1]  # a state where H is undefined fails both reports
        return (
            _sampled_report(name, KIND_CONTACT, contact, c_failed | undefined, tol),
            _sampled_report(name, KIND_DYNAMICAL, bracket, b_failed | undefined, tol),
        )

    def quantity(name):
        (rate, dissipation), failed = next(measured)
        conserved = _sampled_report(name, KIND_CONSERVED, (rate,), failed, tol)
        dissipated = _sampled_report(
            name, KIND_DISSIPATED, (dissipation,), failed, tol
        )
        label = _label("quantity", conserved, dissipated)
        return QuantityReport(name, label, conserved, dissipated)

    def deviation(name):
        outputs, failed = next(measured)
        return _sampled_report(name, KIND_CONTACT, outputs, failed, tol)

    return (
        [symmetry(field.name) for field in fields],
        [quantity(q.name) for q in quantities],
        [deviation(m.name) for m in maps],
        h,
    )


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

    H, the contact residuals and the bracket run in one column kernel
    over all states, with a mask each; a state where the contact or the
    bracket trees fail counts as failed for that check only, and one
    where H is undefined fails both.
    """
    ((contact, dynamical),), _, _, _ = _run_checks(sys, states, tol, fields=(field,))
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
    Both can hold (F = 0); `_label` gives the classification.

    One column kernel returns both rates at every sample; a sample
    where it fails counts as failed in both reports.
    """
    _, (report,), _, _ = _run_checks(sys, states, tol, quantities=(quantity,))
    return report


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
    _, _, (report,), _ = _run_checks(sys, states, tol, maps=(point_map,))
    return report
