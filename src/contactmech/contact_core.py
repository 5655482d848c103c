"""Darboux-chart states and contact Hamiltonian systems.

The chart is always canonical: coordinates (q^1..q^n, p_1..p_n, s) with
contact form eta = ds - p_i dq^i.  General contact forms and chart
transitions are out of scope; by the Darboux theorem this loses no local
generality.  Coordinate `x` pairs with momentum `p_x`, and `s` is the
reserved action variable, so the pairing is syntactic.

`ContactSystem.flow` is the contact Hamiltonian field X_H at a state,
`contact_form_apply` is eta(v), and `hamilton_equation_residuals`
measures how far a field is from the two equations that define X_H.
"""

from __future__ import annotations

import inspect
import math
import operator
import re
from dataclasses import dataclass
from typing import Mapping, Sequence

from . import expr as ex
from .expr import FUNCTIONS

__all__ = [
    "ACTION_NAME",
    "ChartPoint",
    "ContactSystem",
    "Covector",
    "Tangent",
    "contact_form_apply",
    "hamilton_equation_residuals",
]

ACTION_NAME = "s"

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _as_floats(values: Sequence[float], label: str) -> tuple:
    try:
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


class _ChartVector:
    """The (n, n, 1) chart layout shared by points, tangents and covectors.

    A subclass is a frozen dataclass that declares three fields in chart
    order: the n components against q, the n against p, and the one
    against s, with n >= 1.  Their names, read once per class, label the
    validation errors.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._layout = tuple(inspect.get_annotations(cls))
        cls._head = operator.attrgetter(cls._layout[0])
        cls._parts = operator.attrgetter(*cls._layout)

    def __post_init__(self):
        head_name, tail_name, last_name = self._layout
        head = _as_floats(getattr(self, head_name), head_name)
        tail = _as_floats(getattr(self, tail_name), tail_name)
        object.__setattr__(self, head_name, head)
        object.__setattr__(self, tail_name, tail)
        object.__setattr__(self, last_name, float(getattr(self, last_name)))
        if len(head) < 1:
            raise ValueError("chart dimension must be at least 1")
        if len(head) != len(tail):
            raise ValueError(
                f"{head_name} has dimension {len(head)} but {tail_name} has "
                f"{len(tail)}"
            )

    @property
    def n(self) -> int:
        return len(self._head(self))

    def flat(self) -> tuple:
        """Values in chart order (q^1..q^n, p_1..p_n, s)."""
        head, tail, last = self._parts(self)
        return head + tail + (last,)

    @classmethod
    def from_flat(cls, values: Sequence[float]):
        values = tuple(values)
        n = _chart_n(len(values), "a flat state")
        return cls(values[:n], values[n : 2 * n], values[2 * n])

    def max_norm(self) -> float:
        return max(abs(v) for v in self.flat())


@dataclass(frozen=True)
class ChartPoint(_ChartVector):
    """A point (q, p, s) of the (2n+1)-dimensional chart."""

    q: tuple
    p: tuple
    s: float


@dataclass(frozen=True)
class Tangent(_ChartVector):
    """A tangent vector: components against (d/dq^i, d/dp_i, d/ds)."""

    dq: tuple
    dp: tuple
    ds: float


@dataclass(frozen=True)
class Covector(_ChartVector):
    """A covector: components against the basis (dq^i, dp_i, ds)."""

    cq: tuple
    cp: tuple
    cs: float


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

    def _check_point(self, point: ChartPoint) -> None:
        if point.n != self.n:
            raise ValueError(
                f"state has dimension n={point.n}, system expects n={self.n}"
            )

    def point(self, values: Sequence[float]) -> ChartPoint:
        point = ChartPoint.from_flat(values)
        self._check_point(point)
        return point

    def bindings(self, point: ChartPoint) -> dict:
        """Complete evaluation environment at a state."""
        self._check_point(point)
        env = dict(self.parameters)
        env.update(zip(self.chart_names, point.flat()))
        return env

    def _compile_chart(self, result, columns: bool = False):
        """One kernel of an expression or a tuple of them, taking the
        2n+1 chart values in chart order, with the parameters folded in;
        with `columns`, the 2n+1 chart columns of all rows (see
        `expr._compile_kernel`)."""
        return ex._compile_kernel(result, self.chart_names, self.parameters, columns)

    def _kernel(self, build, *args, columns: bool = False):
        """The kernel of the trees `build(self, *args)`, kept on the system
        and keyed by `args` and `columns`; equal trees share interned nodes
        (-0.0 apart from 0.0), so each structure compiles once."""
        key = (build, args, columns)
        fn = self._kernels.get(key)
        if fn is None:  # benign race: compilation is deterministic
            fn = self._kernels[key] = self._compile_chart(build(self, *args), columns)
        return fn

    def _at(self, point: ChartPoint, build, *args):
        """The value at a state of the trees `build(self, *args)`."""
        self._check_point(point)
        return self._kernel(build, *args)(*point.flat())

    def hamiltonian_value(self, point: ChartPoint) -> float:
        return self._at(point, _given, self.hamiltonian)

    def d_hamiltonian(self, var: str, point: ChartPoint) -> float:
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
            fn = self._flow_fn = self._compile_chart(self._field)
        return fn(*flat)


def _given(sys: ContactSystem, trees):
    """The build for `ContactSystem._at` of trees already built."""
    return trees


def _check_dims(point: ChartPoint, v) -> None:
    if point.n != v.n:
        raise ValueError(
            f"dimension mismatch: state has n={point.n}, argument has n={v.n}"
        )


def contact_form_apply(point: ChartPoint, v: Tangent) -> float:
    """eta(v) = v.ds - sum_i p_i v.dq^i at the given state."""
    _check_dims(point, v)
    return v.ds - sum(pi * dqi for pi, dqi in zip(point.p, v.dq))


def hamilton_equation_residuals(
    sys: ContactSystem, point: ChartPoint, field: Tangent | None = None
) -> tuple:
    """Residuals of both defining equations of the Hamiltonian field.

    Returns (r_eta, r_deta) where r_eta = i(X)eta + H and r_deta is the
    covector i(X)d eta - dH + (dH/ds) eta.  With the system's own field,
    `ContactSystem.flow`, both vanish to rounding; passing an explicit
    `field` lets callers measure how far an arbitrary candidate is from
    satisfying the equations.
    """
    sys._check_point(point)
    if field is None:
        field = Tangent.from_flat(sys.flow(point.flat()))
    else:
        _check_dims(point, field)
    h = sys.hamiltonian
    value, *grad = sys._at(point, _given, (h, *map(h.derivative, sys.chart_names)))
    n = sys.n
    h_q = grad[:n]
    h_p = grad[n : 2 * n]
    h_s = grad[2 * n]

    r_eta = contact_form_apply(point, field) + value
    cq = tuple(
        -field.dp[i] - h_q[i] - point.p[i] * h_s for i in range(n)
    )
    cp = tuple(field.dq[i] - h_p[i] for i in range(n))
    # the ds slot cancels identically: 0 - dH/ds + (dH/ds) * 1
    return r_eta, Covector(cq, cp, 0.0)
