"""Vector fields, Lie brackets, and Lie derivatives on the chart.

Each geometric operator is one builder of expression trees (L_Y eta,
L_Y F, [A, B], a quantity's two rates, a map's deviations), made with
the folding builders of `expr` and exact symbolic derivatives, so a term
with a literal-0 factor drops out of the tree.  The functions here
evaluate these trees at one state through `ContactSystem._at`, which
compiles them once per system; `analysis` evaluates the same trees
over the columns of all its samples.  The Hamiltonian field is the
tuple of component expressions each ContactSystem builds from the
gradient of H, whose values at a state `ContactSystem.flow` returns;
their derivatives are kept on the shared nodes, which is how second
derivatives of H enter brackets exactly.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from . import expr as ex
from .contact_core import (
    ACTION_NAME,
    ChartPoint,
    ContactSystem,
    Covector,
    Tangent,
    _chart_n,
    _given,
)
from .expr import Expression, MissingBindingError

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ScalarField",
    "VectorField",
    "hamiltonian_field",
    "lie_bracket",
    "lie_derivative_contact_form",
    "lie_derivative_scalar",
    "vf_jacobian",
]

_ZERO = ex.literal(0.0)
_ONE = ex.literal(1.0)


def _chart_components(
    sys: ContactSystem, label: str, components: Mapping[str, object], default
) -> tuple:
    """One expression per chart name, in chart order, from a sparse
    {chart name: source} mapping; `default(name)` fills each missing slot."""
    unknown = set(components) - set(sys.chart_names)
    if unknown:
        raise ValueError(
            f"{label} has components for unknown chart names: {sorted(unknown)}"
        )
    return tuple(
        ex._coerce_component(
            components[cn], sys._declared, f"{label} component {cn!r}"
        )
        if cn in components
        else default(cn)
        for cn in sys.chart_names
    )


def _chart_expressions(components, what: str) -> tuple:
    """(n, the components as a tuple) for 2n+1 component Expressions;
    `what` names the owner when the count is not 2n+1."""
    components = tuple(components)
    n = _chart_n(len(components), what)
    if not all(isinstance(c, Expression) for c in components):
        raise TypeError("components must be Expressions")
    return n, components


@dataclass(frozen=True)
class VectorField:
    """Chart vector field: one expression per (d/dq^i, d/dp_i, d/ds) slot."""

    name: str
    components: tuple
    n: int = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n, components = _chart_expressions(self.components, "a chart field")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "components", components)

    @classmethod
    def from_mapping(
        cls,
        sys: ContactSystem,
        name: str,
        components: Mapping[str, object],
    ) -> "VectorField":
        """Build from a sparse {chart name: source} mapping; missing slots are 0."""
        return cls(
            name, _chart_components(sys, f"field {name!r}", components, lambda _: _ZERO)
        )


@dataclass(frozen=True)
class ScalarField:
    """A named scalar quantity on the chart."""

    name: str
    expression: Expression

    def value(self, sys: ContactSystem, point: ChartPoint) -> float:
        return sys._at(point, _given, self.expression)


def _check_bound(sys: ContactSystem, expressions) -> None:
    """Raise MissingBindingError for a name that is neither a chart name
    nor a parameter; a tree built from `expressions` may fold it away."""
    stray = set().union(*(e.names for e in expressions)) - sys._declared
    if stray:
        raise MissingBindingError(min(stray))


def _check_field(sys: ContactSystem, field: VectorField) -> None:
    if field.n != sys.n:
        raise ValueError(
            f"field {field.name!r} has n={field.n}, system expects n={sys.n}"
        )
    _check_bound(sys, field.components)


def vf_jacobian(
    sys: ContactSystem, field: VectorField, point: ChartPoint
) -> np.ndarray:
    """Matrix of exact partials: entry (k, j) = d(component k)/d(chart var j)."""
    import numpy as np

    _check_field(sys, field)
    values = sys._at(point, _jacobian_trees, field.components)
    return np.array(values).reshape(sys.dim, sys.dim)


def _jacobian_trees(sys: ContactSystem, field: Sequence[Expression]) -> tuple:
    """dY^k/dx^j, row-major over (k, j)."""
    return tuple(y.derivative(var) for y in field for var in sys.chart_names)


def _chart_sum(terms) -> Expression:
    total = _ZERO
    for term in terms:
        total = ex.add(total, term)
    return total


def _rate_trees(sys: ContactSystem, field: Sequence[Expression], fs) -> tuple:
    """L_Y F = sum_k Y^k dF/dx^k for each F of `fs`; dF/dx^k is not built
    where Y^k is a literal 0, which would fold its term away."""
    names = sys.chart_names
    weights = [(v, y) for v, y in zip(names, field) if not ex._is_const(y, 0.0)]
    return tuple(
        _chart_sum(ex.mul(y_k, f.derivative(var)) for var, y_k in weights)
        for f in fs
    )


def _bracket_trees(
    sys: ContactSystem, a: Sequence[Expression], b: Sequence[Expression]
) -> tuple:
    """[A, B]^k = sum_j A^j d_j B^k - sum_j B^j d_j A^k."""
    return tuple(map(ex.sub, _rate_trees(sys, a, b), _rate_trees(sys, b, a)))


def _lie_eta_trees(sys: ContactSystem, field: Sequence[Expression]) -> tuple:
    """Components of L_Y eta against (dq^i, dp_i, ds).

    By Cartan's formula L_Y eta = i(Y)d eta + d(i(Y)eta).  With
    D_j = dY^s/dx^j - sum_k p_k dY^{q_k}/dx^j, the dq^i slot is
    D_{q^i} - Y^{p_i} and every other slot is D_j: the dp_i slot of
    d(i(Y)eta) is D_{p_i} - Y^{q_i}, and i(Y)d eta adds Y^{q_i} back.
    """
    n = sys.n
    y_s = field[2 * n]

    def d_j(var: str) -> Expression:
        total = y_s.derivative(var)
        for momentum, y_q in zip(sys.momenta, field[:n]):
            total = ex.sub(total, ex.mul(ex.variable(momentum), y_q.derivative(var)))
        return total

    slots = [d_j(var) for var in sys.chart_names]
    return tuple(
        ex.sub(slot, y_p) for slot, y_p in zip(slots, field[n : 2 * n])
    ) + tuple(slots[n:])


def _dissipation_trees(sys: ContactSystem, f: Expression) -> tuple:
    """(L_{X_H}F, L_{X_H}F + (dH/ds) F): zero for a conserved and for a
    dissipated quantity respectively."""
    (rate,) = _rate_trees(sys, sys._field, (f,))
    h_s = sys.hamiltonian.derivative(ACTION_NAME)
    return rate, ex.add(rate, ex.mul(h_s, f))


def _eta(sys: ContactSystem, state: Sequence[Expression]) -> tuple:
    """Coefficients of eta = ds - p_i dq^i at a state given as expressions."""
    n = sys.n
    return tuple(ex.neg(p) for p in state[n : 2 * n]) + (_ZERO,) * n + (_ONE,)


def _map_deviation_trees(sys: ContactSystem, image: Sequence[Expression]) -> tuple:
    """Components of Phi*eta - eta, then H o Phi - H, for the map x -> image.

    (Phi*eta)_j = sum_k eta_k(Phi(x)) dPhi^k/dx^j.
    """
    eta_image = _eta(sys, image)
    eta_here = _eta(sys, tuple(map(ex.variable, sys.chart_names)))
    form = tuple(
        ex.sub(
            _chart_sum(
                ex.mul(e_k, phi_k.derivative(var))
                for e_k, phi_k in zip(eta_image, image)
            ),
            e_j,
        )
        for var, e_j in zip(sys.chart_names, eta_here)
    )
    moved = ex.substitute(sys.hamiltonian, dict(zip(sys.chart_names, image)))
    return form + (ex.sub(moved, sys.hamiltonian),)


def lie_bracket(
    sys: ContactSystem, a: VectorField, b: VectorField, point: ChartPoint
) -> Tangent:
    """[a, b]^k = sum_j (a^j d_j b^k - b^j d_j a^k) at the state."""
    _check_field(sys, a)
    _check_field(sys, b)
    return Tangent.from_flat(
        sys._at(point, _bracket_trees, a.components, b.components)
    )


def lie_derivative_scalar(
    sys: ContactSystem, field: VectorField, scalar: ScalarField, point: ChartPoint
) -> float:
    """Directional derivative sum_k Y^k dF/dx^k at the state."""
    _check_field(sys, field)
    (rate,) = sys._at(point, _rate_trees, field.components, (scalar.expression,))
    return rate


def lie_derivative_contact_form(
    sys: ContactSystem, field: VectorField, point: ChartPoint
) -> Covector:
    """L_Y eta at the state, by Cartan's formula (see `_lie_eta_trees`)."""
    _check_field(sys, field)
    return Covector.from_flat(sys._at(point, _lie_eta_trees, field.components))


def hamiltonian_field(sys: ContactSystem, name: str = "hamiltonian_field") -> VectorField:
    """The contact Hamiltonian field as component expressions.

    These are the components `ContactSystem.flow` evaluates, built once
    per system; differentiating them again (Jacobians, brackets) gives
    exact second derivatives of H, kept on the shared nodes.
    """
    return VectorField(name, sys._field)
