"""Darboux-chart states and contact Hamiltonian systems.

The chart is always canonical: coordinates (q^1..q^n, p_1..p_n, s) with
contact form eta = ds - p_i dq^i.  General contact forms and chart
transitions are out of scope; by the Darboux theorem this loses no local
generality.  Coordinate `x` pairs with momentum `p_x`, and `s` is the
reserved action variable, so the pairing is syntactic.

A state is its row: the 2n+1 values in chart order, as a `ChartPoint`
or any sequence of reals, which `ContactSystem.point` checks.  The system
builds the component trees of the contact Hamiltonian field X_H once,
and `ContactSystem.flow` returns their values at a state as a flat
tuple in chart order.  `ContactSystem._at` evaluates any trees at a
state; the geometric operators, the residuals of the two equations that
define X_H among them, are tree builders in `calculus`.
"""

from __future__ import annotations

import math
import re
from collections.abc import Mapping, Sequence

from . import expr as ex
from .expr import FUNCTIONS

__all__ = [
    "ACTION_NAME",
    "ChartPoint",
    "ContactSystem",
]

ACTION_NAME = "s"

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _as_floats(values: Sequence[float], label: str) -> tuple:
    try:
        if isinstance(values, (str, bytes, Mapping)):
            raise TypeError  # they iterate over characters, bytes or keys
        return tuple(map(float, values))
    except (TypeError, ValueError):
        raise ValueError(f"{label} must be a sequence of reals") from None


class _BadName(ValueError):
    """A name ContactSystem rejects; `field` is the argument that holds it."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


def _chart_n(count: int, what: str) -> int:
    """The n of a chart layout with `count` = 2n+1 entries, n >= 1."""
    if count < 3 or count % 2 == 0:
        raise ValueError(f"{what} needs 2n+1 entries, got {count}")
    return (count - 1) // 2


class ChartPoint(tuple):
    """A point of the (2n+1)-dimensional chart, n >= 1: its values in
    chart order (q^1..q^n, p_1..p_n, s), with `q`, `p` and `s` as views."""

    __slots__ = ()

    def __new__(cls, values: Sequence[float]):
        values = _as_floats(values, "a state")
        _chart_n(len(values), "a state")
        return super().__new__(cls, values)

    def __repr__(self) -> str:
        return f"ChartPoint({tuple.__repr__(self)})"

    @property
    def n(self) -> int:
        return len(self) // 2

    @property
    def q(self) -> tuple:
        return self[: self.n]

    @property
    def p(self) -> tuple:
        return self[self.n : -1]

    @property
    def s(self) -> float:
        return self[-1]


class ContactSystem:
    """A Hamiltonian on the chart, with named coordinates and parameters.

    Immutable after construction; evaluation methods are pure, so one
    instance may serve any number of threads.
    """

    __slots__ = (
        "coordinates",
        "momenta",
        "parameters",
        "hamiltonian",
        "chart_names",
        "_declared",
        "_field",
        "_flow_fn",
        "_kernels",
    )

    def __init__(
        self,
        coordinates: Sequence[str],
        hamiltonian,
        parameters: Mapping[str, float] | None = None,
    ):
        coordinates = tuple(coordinates)
        if not coordinates:
            raise ValueError("at least one coordinate is required")
        parameters = dict(parameters or {})

        momenta = tuple(f"p_{c}" for c in coordinates)
        chart_names = coordinates + momenta + (ACTION_NAME,)
        fields = (("coordinates", chart_names), ("parameters", tuple(parameters)))
        for field, names in fields:
            for name in names:
                if not _NAME_RE.match(name):
                    raise _BadName(field, f"invalid name {name!r}")
                if name in FUNCTIONS:
                    raise _BadName(field, f"name {name!r} shadows a built-in function")
        for field, names in (("coordinates", coordinates), ("parameters", parameters)):
            if ACTION_NAME in names:
                raise _BadName(
                    field, f"{ACTION_NAME!r} is reserved for the action variable"
                )
        if len(set(chart_names)) != len(chart_names):
            raise _BadName("coordinates", f"chart names collide: {sorted(chart_names)}")
        clashes = set(parameters).intersection(chart_names)
        if clashes:
            message = f"parameters shadow chart names: {sorted(clashes)}"
            raise _BadName("parameters", message)
        for name, value in parameters.items():
            value = float(value)
            if not math.isfinite(value):
                raise ValueError(f"parameter {name!r} must be finite, got {value!r}")
            parameters[name] = value

        declared = frozenset(chart_names) | frozenset(parameters)
        hamiltonian = ex._coerce_component(hamiltonian, declared, "hamiltonian")

        self.coordinates = coordinates
        self.momenta = momenta
        self.parameters = parameters
        self.hamiltonian = hamiltonian
        self.chart_names = chart_names
        self._declared = declared
        # Darboux form of the contact Hamiltonian field, built once from
        # the gradient of H (kept on H's nodes for d_hamiltonian):
        # dq^i = dH/dp_i, dp_i = -(dH/dq^i + p_i dH/ds),
        # ds = sum_i p_i dH/dp_i - H.
        h_s = hamiltonian.derivative(ACTION_NAME)
        dq = tuple(hamiltonian.derivative(m) for m in momenta)
        dp = tuple(
            ex.neg(ex.add(hamiltonian.derivative(c), ex.mul(ex.variable(m), h_s)))
            for c, m in zip(coordinates, momenta)
        )
        ds = ex.literal(0.0)
        for m, h_p in zip(momenta, dq):
            ds = ex.add(ds, ex.mul(ex.variable(m), h_p))
        self._field = dq + dp + (ex.sub(ds, hamiltonian),)
        self._flow_fn = None
        self._kernels = {}  # compiled trees per (build, args), see _kernel

    @property
    def n(self) -> int:
        return len(self.coordinates)

    @property
    def dim(self) -> int:
        return 2 * self.n + 1

    def __repr__(self):
        return (
            f"ContactSystem(coordinates={self.coordinates!r}, "
            f"hamiltonian={str(self.hamiltonian)!r}, "
            f"parameters={self.parameters!r})"
        )

    def point(self, values: Sequence[float]) -> ChartPoint:
        """`values`, any 2n+1 reals in chart order, as a state of this system."""
        point = ChartPoint(values)
        if point.n != self.n:
            raise ValueError(
                f"state has dimension n={point.n}, system expects n={self.n}"
            )
        return point

    def bindings(self, point: Sequence[float]) -> dict:
        """Complete evaluation environment at a state."""
        env = dict(self.parameters)
        env.update(zip(self.chart_names, self.point(point)))
        return env

    def _kernel(self, build, *args):
        """The kernel of the trees `build(self, *args)` over the chart
        values in chart order, with the parameters folded in, kept on the
        system and keyed by `args`; a list of groups makes a column
        kernel (see `expr._compile_kernel`).  Equal trees share interned
        nodes (-0.0 apart from 0.0), so each structure compiles once."""
        key = (build, args)
        fn = self._kernels.get(key)
        if fn is None:  # benign race: compilation is deterministic
            fn = self._kernels[key] = ex._compile_kernel(
                build(self, *args), self.chart_names, self.parameters
            )
        return fn

    def _at(self, point: Sequence[float], build, *args):
        """The value at a state of the trees `build(self, *args)`."""
        return self._kernel(build, *args)(*self.point(point))

    def hamiltonian_value(self, point: Sequence[float]) -> float:
        return self._at(point, _given, self.hamiltonian)

    def d_hamiltonian(self, var: str, point: Sequence[float]) -> float:
        """Exact partial of H with respect to a chart variable."""
        if var not in self.chart_names:
            raise ValueError(f"{var!r} is not a chart variable")
        return self._at(point, _given, self.hamiltonian.derivative(var))

    def flow(self, flat: Sequence[float]) -> tuple:
        """Right-hand side of the evolution equations in flat layout.

        Runs the field components built at construction, compiled on the
        first call into one kernel that computes shared subtrees once;
        the values are bit-identical to evaluating each component.
        """
        # benign race: compilation is deterministic and idempotent
        fn = self._flow_fn
        if fn is None:
            fn = self._flow_fn = self._kernel(_given, self._field)
        return fn(*flat)


def _given(sys: ContactSystem, trees):
    """The build for `ContactSystem._at` of trees already built."""
    return trees
