"""Vector fields, Lie brackets, and Lie derivatives on the chart.

Derivatives of field components are symbolic derivatives from the
expression engine, so brackets carry no finite-difference noise.  The
Hamiltonian field is the tuple of component expressions each
ContactSystem builds from the gradient of H; their derivatives are
cached on the shared components, which is how second derivatives of H
enter bracket computations exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import expr as ex
from .contact_core import ChartPoint, ContactSystem, Covector, Tangent
from .expr import Expression

__all__ = [
    "ScalarField",
    "VectorField",
    "hamiltonian_field",
    "lie_bracket",
    "lie_derivative_contact_form",
    "lie_derivative_scalar",
    "vector_field_value",
    "vf_jacobian",
]

_ZERO = ex.literal(0.0)


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


@dataclass(frozen=True)
class VectorField:
    """Chart vector field: one expression per (d/dq^i, d/dp_i, d/ds) slot."""

    name: str
    components: tuple

    def __post_init__(self):
        components = tuple(self.components)
        if len(components) < 3 or len(components) % 2 == 0:
            raise ValueError(
                f"a chart field needs 2n+1 components, got {len(components)}"
            )
        if not all(isinstance(c, Expression) for c in components):
            raise TypeError("components must be Expressions")
        object.__setattr__(self, "components", components)

    @property
    def n(self) -> int:
        return (len(self.components) - 1) // 2

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
        return self.expression._run(sys.bindings(point))


def _field_dim_check(sys: ContactSystem, field: VectorField) -> None:
    if field.n != sys.n:
        raise ValueError(
            f"field {field.name!r} has n={field.n}, system expects n={sys.n}"
        )


def vector_field_value(
    sys: ContactSystem, field: VectorField, point: ChartPoint
) -> Tangent:
    """Evaluate all components at a state."""
    _field_dim_check(sys, field)
    env = sys.bindings(point)
    return Tangent.from_flat(tuple(c._run(env) for c in field.components))


def vf_jacobian(
    sys: ContactSystem, field: VectorField, point: ChartPoint
) -> np.ndarray:
    """Matrix of exact partials: entry (k, j) = d(component k)/d(chart var j)."""
    _field_dim_check(sys, field)
    env = sys.bindings(point)
    return np.array(
        [
            [comp.derivative(var)._run(env) for var in sys.chart_names]
            for comp in field.components
        ]
    )


def lie_bracket(
    sys: ContactSystem, a: VectorField, b: VectorField, point: ChartPoint
) -> Tangent:
    """[a, b]^k = sum_j (a^j d_j b^k - b^j d_j a^k) at the state."""
    va = np.array(vector_field_value(sys, a, point).flat())
    vb = np.array(vector_field_value(sys, b, point).flat())
    ja = vf_jacobian(sys, a, point)
    jb = vf_jacobian(sys, b, point)
    return Tangent.from_flat((jb @ va - ja @ vb).tolist())


def lie_derivative_scalar(
    sys: ContactSystem, field: VectorField, scalar: ScalarField, point: ChartPoint
) -> float:
    """Directional derivative sum_k Y^k dF/dx^k at the state."""
    _field_dim_check(sys, field)
    env = sys.bindings(point)
    total = 0.0
    for var, comp in zip(sys.chart_names, field.components):
        weight = comp._run(env)
        if weight != 0.0:
            total += weight * scalar.expression.derivative(var)._run(env)
    return total


def lie_derivative_contact_form(
    sys: ContactSystem, field: VectorField, point: ChartPoint
) -> Covector:
    """L_Y eta via Cartan's formula i(Y)d eta + d(i(Y)eta).

    With g = i(Y)eta = Y^s - sum_k p_k Y^{q_k} and
    D_x = dY^s/dx - sum_k p_k dY^{q_k}/dx: the dq^i slot is
    -Y^{p_i} + D_{q^i}, the dp_i slot is D_{p_i} (Y^{q_i} cancels against
    the explicit p_i in g), and the ds slot is D_s.
    """
    _field_dim_check(sys, field)
    env = sys.bindings(point)
    n = sys.n
    y_q = field.components[:n]
    y_s = field.components[2 * n]

    def d_g(var: str) -> float:
        total = y_s.derivative(var)._run(env)
        for p_k, comp in zip(point.p, y_q):
            total -= p_k * comp.derivative(var)._run(env)
        return total

    cq = tuple(
        d_g(c) - field.components[n + i]._run(env)
        for i, c in enumerate(sys.coordinates)
    )
    cp = tuple(d_g(m) for m in sys.momenta)
    return Covector(cq, cp, d_g("s"))


def hamiltonian_field(sys: ContactSystem, name: str = "hamiltonian_field") -> VectorField:
    """The contact Hamiltonian field as component expressions.

    These are the components `ContactSystem.flow` evaluates, built once
    per system; differentiating them again (Jacobians, brackets) gives
    exact second derivatives of H, cached on the shared components.
    """
    return VectorField(name, sys._field)
