"""Candidate types, Lie brackets, and Lie derivatives on the chart.

`calculus` owns the candidate types (`VectorField`, `ScalarField`,
`PointMap`), the rule that fits one to a system (`_check_field`,
`_check_bound`) and every per-point function; `analysis` owns the
sampled checks and the quantity constructions.

Each geometric operator is one builder of expression trees (L_Y eta,
L_Y F, [A, B], a quantity's two rates, a map's deviations, the residuals
of the two equations that define X_H, and the bracket characterization
eta([Y, X_H])), made with the folding builders of `expr` and exact
symbolic derivatives, so a term with a literal-0 factor drops out of the
tree.  The contact form eta is written once, as its coefficients
(`_eta`); each operator on it is built from them by two rules, the rate
Y(F) of a tree (`_rate_trees`) and the pullback of a covector
(`_pullback`).  The functions here evaluate these trees at one state
through `ContactSystem._at`, which compiles them once per system, and do
no arithmetic of their own; a vector or covector result is a flat tuple
in chart order, as `ContactSystem.flow` returns.  The `analysis` checks
evaluate the same trees over the columns of all their samples, through
column kernels the system keeps too.  The Hamiltonian field is the tuple
of component expressions each ContactSystem builds from the gradient of
H, whose values at a state `ContactSystem.flow` returns; their
derivatives are kept on the shared nodes, which is how second
derivatives of H enter brackets exactly.
"""

from __future__ import annotations

from functools import reduce
from typing import TYPE_CHECKING, Mapping, Sequence

from . import expr as ex
from ._record import Record, _set
from .contact_core import ACTION_NAME, ContactSystem, _chart_n, _given
from .expr import Expression, MissingBindingError

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "PointMap",
    "ScalarField",
    "VectorField",
    "characterization_residual",
    "hamilton_equation_residuals",
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
            f"{label} has components for unknown chart names: "
            f"{sorted(unknown, key=repr)} (chart is {', '.join(sys.chart_names)})"
        )
    return tuple(
        ex._coerce_component(
            components[cn], sys._declared, f"{label} component {cn!r}"
        )
        if cn in components
        else default(cn)
        for cn in sys.chart_names
    )


class _Candidate(Record):
    """A named field or map: 2n+1 component Expressions in chart order;
    `n` is not a field."""

    __slots__ = ("name", "components", "n")
    _fields = ("name", "components")
    _what = "a chart candidate"  # names the owner when the count is not 2n+1

    def __init__(self, name: str, components: tuple):
        components = tuple(components)
        n = _chart_n(len(components), self._what)
        if not all(isinstance(c, Expression) for c in components):
            raise TypeError("components must be Expressions")
        _set(self, "name", name)
        _set(self, "components", components)
        _set(self, "n", n)


class VectorField(_Candidate):
    """Chart vector field: one expression per (d/dq^i, d/dp_i, d/ds) slot."""

    __slots__ = ()
    _what = "a chart field"

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


class PointMap(_Candidate):
    """A chart self-map: one target expression per chart variable."""

    __slots__ = ()
    _what = "a chart map"

    @classmethod
    def from_mapping(
        cls, sys: ContactSystem, name: str, components: Mapping[str, object]
    ) -> "PointMap":
        """Missing entries default to the identity on that variable."""
        return cls(
            name, _chart_components(sys, f"map {name!r}", components, ex.variable)
        )


class ScalarField(Record):
    """A named scalar quantity on the chart."""

    __slots__ = _fields = ("name", "expression")

    def __init__(self, name: str, expression: Expression):
        _set(self, "name", name)
        _set(self, "expression", expression)

    def value(self, sys: ContactSystem, point: Sequence[float]) -> float:
        return sys._at(point, _given, self.expression)


def _check_bound(sys: ContactSystem, expressions) -> None:
    """Raise MissingBindingError for a name that is neither a chart name
    nor a parameter; a tree built from `expressions` may fold it away."""
    bits = reduce(lambda acc, e: acc | e._vars, expressions, 0)
    stray = ex._names(bits) - sys._declared
    if stray:
        raise MissingBindingError(min(stray))


def _check_field(sys: ContactSystem, field: _Candidate) -> None:
    """Fit a field or a map to `sys`: the same n, and declared names only."""
    if field.n != sys.n:
        raise ValueError(f"{field.name!r} has n={field.n}, system expects n={sys.n}")
    _check_bound(sys, field.components)


def vf_jacobian(
    sys: ContactSystem, field: VectorField, point: Sequence[float]
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
    return reduce(ex.add, terms, _ZERO)


def _bits(sys: ContactSystem) -> list:
    """(bit in ``_vars``, name) per chart name.  A chart sum skips a tree
    without the bit: its derivative is 0, and the term would fold away."""
    return [(ex._VAR_BITS.get(var, 0), var) for var in sys.chart_names]


def _rate_trees(sys: ContactSystem, field: Sequence[Expression], fs) -> tuple:
    """L_Y F = sum_k Y^k dF/dx^k for each F of `fs`; the term of x^k is
    not built where Y^k is a literal 0 or F is free of x^k, and a
    constant F is 0 without a look at Y."""
    pairs = zip(_bits(sys), field)
    weights = [(b, v, y) for (b, v), y in pairs if not ex._is_const(y, 0.0)]
    return tuple(
        _chart_sum(
            ex.mul(y_k, f.derivative(var)) for bit, var, y_k in weights if f._vars & bit
        ) if f._vars else _ZERO
        for f in fs
    )


def _eta(sys: ContactSystem, state: Sequence[Expression] = ()) -> tuple:
    """Coefficients of eta = ds - p_i dq^i at a state given as expressions,
    the chart's own if none is given."""
    n = sys.n
    ps = state[n : 2 * n] if state else map(ex.variable, sys.chart_names[n : 2 * n])
    return tuple(ex.neg(p) for p in ps) + (_ZERO,) * n + (_ONE,)


def _pullback(
    sys: ContactSystem, covector: Sequence[Expression], image: Sequence[Expression]
) -> tuple:
    """sum_k c_k dPhi^k/dx^j for each chart variable x^j: the covector c
    pulled back by x -> image.  The term of k is not built where c_k is a
    literal 0 or Phi^k is free of x^j (of every x^j, if Phi^k is constant)."""
    pairs = zip(covector, image)
    terms = [(c, f) for c, f in pairs if f._vars and not ex._is_const(c, 0.0)]
    return tuple(
        _chart_sum(ex.mul(c, f.derivative(var)) for c, f in terms if f._vars & bit)
        for bit, var in _bits(sys)
    )


def _bracket_trees(
    sys: ContactSystem, a: Sequence[Expression], b: Sequence[Expression]
) -> tuple:
    """[A, B]^k = sum_j A^j d_j B^k - sum_j B^j d_j A^k."""
    return tuple(map(ex.sub, _rate_trees(sys, a, b), _rate_trees(sys, b, a)))


def _lie_eta_trees(sys: ContactSystem, field: Sequence[Expression]) -> tuple:
    """Components of L_Y eta against (dq^i, dp_i, ds), by Cartan's formula
    in coordinates: (L_Y eta)_j = sum_k eta_k dY^k/dx^j + Y(eta_j)."""
    eta = _eta(sys)
    return tuple(map(ex.add, _pullback(sys, eta, field), _rate_trees(sys, field, eta)))


def _contact_trees(sys: ContactSystem, field: Sequence[Expression]) -> tuple:
    """The components of L_Y eta, then L_Y H: all zero for a contact
    symmetry Y."""
    return _lie_eta_trees(sys, field) + _rate_trees(sys, field, (sys.hamiltonian,))


def _dissipation_trees(sys: ContactSystem, f: Expression) -> tuple:
    """(L_{X_H}F, L_{X_H}F + (dH/ds) F): zero for a conserved and for a
    dissipated quantity respectively."""
    (rate,) = _rate_trees(sys, sys._field, (f,))
    h_s = sys.hamiltonian.derivative(ACTION_NAME)
    return rate, ex.add(rate, ex.mul(h_s, f))


def _map_deviation_trees(sys: ContactSystem, image: Sequence[Expression]) -> tuple:
    """Components of Phi*eta - eta, then H o Phi - H, for the map x -> image."""
    form = map(ex.sub, _pullback(sys, _eta(sys, image), image), _eta(sys))
    moved = ex.substitute(sys.hamiltonian, dict(zip(sys.chart_names, image)))
    return tuple(form) + (ex.sub(moved, sys.hamiltonian),)


def _eta_of(sys: ContactSystem, vector: Sequence[Expression]) -> Expression:
    """eta(v) = sum_k eta_k v^k at the chart's state, for components `vector`."""
    return _chart_sum(map(ex.mul, _eta(sys), vector))


def _hamilton_trees(sys: ContactSystem, field: Sequence[Expression]) -> tuple:
    """Residuals of the two equations that define X_H, for a field Y:
    i(Y)eta + H, then i(Y)d eta - dH + (dH/ds) eta against (dq^i, dp_i,
    ds), where (i(Y)d eta)_k = Y(eta_k) - sum_j Y^j d eta_j/dx^k.  The ds
    slot is the literal 0: d eta has no ds leg and eta_s = 1, so it is
    dH/ds - dH/ds, which as a tree would fail where dH/ds is undefined."""
    h = sys.hamiltonian
    h_s = h.derivative(ACTION_NAME)
    eta = _eta(sys)
    interior = map(ex.sub, _rate_trees(sys, field, eta), _pullback(sys, field, eta))
    r_deta = tuple(
        ex.add(ex.sub(i_k, h.derivative(var)), ex.mul(h_s, eta_k))
        for i_k, var, eta_k in zip(interior, sys.chart_names[:-1], eta)
    )
    return (ex.add(_eta_of(sys, field), h),) + r_deta + (_ZERO,)


def _characterization_trees(sys: ContactSystem, field: Sequence[Expression]):
    """eta([Y, X_H]), zero everywhere iff -i(Y)eta is dissipated."""
    return _eta_of(sys, _bracket_trees(sys, field, sys._field))


def characterization_residual(
    sys: ContactSystem, field: VectorField, point: Sequence[float]
) -> float:
    """eta([X, X_H]) at a state.

    Vanishing everywhere is equivalent to i(X)eta being a dissipated
    quantity, which turns the dissipated-quantity test into a bracket
    condition.
    """
    _check_field(sys, field)
    return sys._at(point, _characterization_trees, field.components)


def lie_bracket(
    sys: ContactSystem, a: VectorField, b: VectorField, point: Sequence[float]
) -> tuple:
    """[a, b]^k = sum_j (a^j d_j b^k - b^j d_j a^k) at the state, in chart
    order."""
    _check_field(sys, a)
    _check_field(sys, b)
    return sys._at(point, _bracket_trees, a.components, b.components)


def lie_derivative_scalar(
    sys: ContactSystem, field: VectorField, scalar: ScalarField, point: Sequence[float]
) -> float:
    """Directional derivative sum_k Y^k dF/dx^k at the state."""
    _check_field(sys, field)
    (rate,) = sys._at(point, _rate_trees, field.components, (scalar.expression,))
    return rate


def lie_derivative_contact_form(
    sys: ContactSystem, field: VectorField, point: Sequence[float]
) -> tuple:
    """L_Y eta at the state against (dq^i, dp_i, ds), by Cartan's formula:
    sum_k eta_k dY^k/dx^j + Y(eta_j) in slot j (see `_lie_eta_trees`)."""
    _check_field(sys, field)
    return sys._at(point, _lie_eta_trees, field.components)


def hamiltonian_field(sys: ContactSystem) -> VectorField:
    """The contact Hamiltonian field as component expressions.

    These are the components `ContactSystem.flow` evaluates, built once
    per system; differentiating them again (Jacobians, brackets) gives
    exact second derivatives of H, kept on the shared nodes.
    """
    return VectorField("hamiltonian_field", sys._field)


def hamilton_equation_residuals(
    sys: ContactSystem, point: Sequence[float], field: VectorField | None = None
) -> tuple:
    """Residuals of both defining equations of the Hamiltonian field.

    Returns (r_eta, r_deta) where r_eta = i(Y)eta + H and r_deta holds
    the 2n+1 components of the covector i(Y)d eta - dH + (dH/ds) eta in
    chart order (see `_hamilton_trees`).  With the system's own field,
    the default, both vanish to rounding; an explicit `field` measures
    how far a candidate is from satisfying the equations.
    """
    if field is None:
        components = sys._field
    else:
        _check_field(sys, field)
        components = field.components
    r_eta, *r_deta = sys._at(point, _hamilton_trees, components)
    return r_eta, tuple(r_deta)
