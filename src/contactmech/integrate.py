"""Numerical integration of the contact evolution equations.

Explicit Runge-Kutta only: classical RK4 on a fixed grid and the
Fehlberg 4(5) embedded pair with proportional step control.  No
structure-preserving integrator is attempted; verification tests check
results against closed-form oracles instead.

The per-row loops are straight-line functions generated on first use
for each chart dimension (`_generated`): the whole RK4 grid of
`integrate_fixed`, which keeps the state in locals from step to step;
one Fehlberg trial step, whose acceptance and step control stay in
`integrate_adaptive`; and the CSV rows of `write_trajectory_csv`, each
one f-string.  Both integrators write their steps with one stage writer
(`_step_lines`), which unrolls every component's stage arithmetic with
the IEEE operations, in the order, of the textbook formulas written
over lists: ``0.5*h`` and ``h/6`` bound once per step, and each
Fehlberg weighted sum added from the integer 0 in tableau order with
its zero weights, as ``sum`` adds floats before Python 3.12 (which made
it compensated), so that its additions do not depend on the Python
version.  A step calls ``sys.flow`` once per stage through the system,
not its compiled kernel, so a wrapper on ``ContactSystem.flow`` sees
every stage.  A step checks only its result to be finite, which every
non-finite stage value reaches, and adds the values as a balanced tree,
so the generated code nests log2(2n+1) deep and compiles for any n.
Error contract of a step: a DomainError in any stage raises
DivergenceError("right-hand side undefined: ..."), and a stage or
result holding a non-finite value raises DivergenceError("state left
the finite domain"), also when a later stage raises; both carry the
time and state at the step's start.
Finite values whose sum overflows are not an error.  No step evaluates
H at the state it lands on, so each integrator runs H there on the step
that reaches tf: RK4 raises DivergenceError where H is undefined, and
RKF45 rejects that trial step and shrinks it like any other that leaves
the domain.
"""

from __future__ import annotations

import functools
import math
import operator
from array import array
from itertools import chain, starmap
from typing import TYPE_CHECKING, Sequence

from ._record import Frozen
from .contact_core import ChartPoint, ContactSystem, _given
from .expr import DomainError

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "DivergenceError",
    "IntegrationError",
    "StepUnderflowError",
    "Trajectory",
    "integrate_adaptive",
    "integrate_fixed",
    "read_trajectory_csv",
    "write_trajectory_csv",
]


class IntegrationError(Exception):
    """Base class for integration failures."""


def _state_text(names: Sequence[str], state: Sequence[float]) -> str:
    return ", ".join(f"{name}={value!r}" for name, value in zip(names, state))


class DivergenceError(IntegrationError):
    """The state left the finite domain; carries the last good sample."""

    def __init__(
        self, message: str, time: float, state: ChartPoint, names: Sequence[str]
    ):
        super().__init__(
            f"{message} (last good state at t={time!r}: "
            f"{_state_text(names, state)})"
        )
        self.time = time
        self.state = state


class StepUnderflowError(IntegrationError):
    """Adaptive step control shrank below the resolvable step size."""

    def __init__(
        self, time: float, dt: float, state: ChartPoint, names: Sequence[str]
    ):
        super().__init__(
            f"step size underflow at t={time!r}: dt={dt!r} fell below the "
            f"minimum resolvable step (state: {_state_text(names, state)})"
        )
        self.time = time
        self.dt = dt
        self.state = state


class Trajectory(Frozen):
    """Time-ordered chart samples plus integrator metadata: `names`,
    `times`, `states`, `method`, `accepted` and `rejected`.

    A trajectory keeps its N times and its N rows, one after another, in
    float64 buffers (`array('d')`) of its own: the constructor copies
    what it is given.  `times` (N,) and `states` (N, 2n+1) are read-only
    views of them, made on first access, once, with no copy; `len`, the
    points and the CSV writer read the buffers, so a trajectory that is
    only written never needs numpy.  Two trajectories are equal only if
    they are one object.
    """

    def __init__(self, names, times, states, method, accepted=0, rejected=0):
        import numpy as np

        names = tuple(names)
        times = np.asarray(times, dtype=float)
        states = np.asarray(states, dtype=float)
        if times.ndim != 1 or states.ndim != 2:
            raise ValueError("times must be 1-d and states 2-d")
        if len(times) != len(states):
            raise ValueError(
                f"{len(times)} times but {len(states)} states"
            )
        if len(times) == 0:
            raise ValueError("empty trajectory")
        if states.shape[1] != len(names):
            raise ValueError(
                f"states have {states.shape[1]} columns, expected "
                f"{len(names)}"
            )
        self._fill(
            names, array("d", times.tobytes()), array("d", states.tobytes()),
            method, accepted, rejected,
        )

    @classmethod
    def _of_buffers(cls, names, times: array, flat: array, method, accepted, rejected):
        """A trajectory kept as `times` and `flat`, the buffers that an
        integrator or the CSV reader filled: at least one row, each of
        len(names) values.  Only the time order is checked."""
        traj = cls.__new__(cls)
        traj._fill(names, times, flat, method, accepted, rejected)
        return traj

    def _fill(self, names, times: array, flat: array, method, accepted, rejected):
        """Set every field, once `times` is checked to be strictly increasing."""
        if not all(map(operator.lt, times, times[1:])):
            raise ValueError("times must be strictly increasing")
        vars(self).update(
            names=tuple(names), _times=times, _flat=flat,
            method=method, accepted=accepted, rejected=rejected,
        )

    def __repr__(self) -> str:
        return (
            f"Trajectory(names={self.names!r}, method={self.method!r}, "
            f"rows={len(self)}, accepted={self.accepted}, "
            f"rejected={self.rejected})"
        )

    @functools.cached_property
    def times(self) -> np.ndarray:
        import numpy as np

        times = np.frombuffer(self._times)
        times.flags.writeable = False
        return times

    @functools.cached_property
    def states(self) -> np.ndarray:
        import numpy as np

        states = np.frombuffer(self._flat).reshape(len(self), len(self.names))
        states.flags.writeable = False
        return states

    def __len__(self) -> int:
        return len(self._times)

    def point(self, i: int) -> ChartPoint:
        """The state of row `i`; -1 is the final state."""
        dim = len(self.names)
        i = range(len(self))[i]
        return ChartPoint(self._flat[i * dim : (i + 1) * dim])

    def column(self, name: str) -> np.ndarray:
        if name == "t":
            return self.times
        return self.states[:, self.names.index(name)]


def _check_trajectory_chart(sys: ContactSystem, traj: Trajectory) -> None:
    if traj.names != sys.chart_names:
        raise ValueError(
            f"trajectory chart {traj.names} does not match the system "
            f"chart {sys.chart_names}"
        )


def _diverged(sys: ContactSystem, message: str, t: float, last_good):
    return DivergenceError(message, t, ChartPoint(last_good), sys.chart_names)


def _check_final(sys: ContactSystem, row: tuple, t: float, last_good: tuple) -> None:
    """DivergenceError, naming the state `last_good` at `t` before it,
    where the H kernel of `write_trajectory_csv` fails at the final `row`.

    H is interpreted by `Expression._run`, which raises the DomainError
    of that kernel, so a command that writes no CSV compiles no H
    kernel."""
    try:
        sys.hamiltonian._run(sys.bindings(row))
    except DomainError as exc:
        message = f"H undefined at the final state: {exc}"
        raise _diverged(sys, message, t, last_good) from None


def _check_finite(sys: ContactSystem, values, t: float, last_good) -> None:
    # the sum of finite values is finite unless it overflows, so the
    # per-value scan runs only then and on a real divergence
    if math.isfinite(sum(values)):
        return
    if not all(map(math.isfinite, values)):
        raise _diverged(sys, "state left the finite domain", t, last_good)


#: the cells of rows that the RK4 loop keeps as Python floats before it moves
#: them to its buffers, and that the CSV writer formats per write
_CHUNK_CELLS = 2**12

#: about how many characters the CSV reader decodes and splits at a time
_READ_CHARS = 2**15

# Fehlberg 4(5) tableau: the rows that build stages 1..5 from the stages
# before them, the 4th-order weights, and _RKF_ERR = b5 - b4, so the
# weighted sum of the stages estimates the local error of the propagated
# 4th-order solution.
_RKF_A = (
    (1.0 / 4.0,),
    (3.0 / 32.0, 9.0 / 32.0),
    (1932.0 / 2197.0, -7200.0 / 2197.0, 7296.0 / 2197.0),
    (439.0 / 216.0, -8.0, 3680.0 / 513.0, -845.0 / 4104.0),
    (-8.0 / 27.0, 2.0, -3544.0 / 2565.0, 1859.0 / 4104.0, -11.0 / 40.0),
)
_RKF_B4 = (25.0 / 216.0, 0.0, 1408.0 / 2565.0, 2197.0 / 4104.0, -1.0 / 5.0, 0.0)
_RKF_ERR = (
    1.0 / 360.0,
    0.0,
    -128.0 / 4275.0,
    -2197.0 / 75240.0,
    1.0 / 50.0,
    2.0 / 55.0,
)


def _weighted(weights, i: int) -> str:
    """Source of component i of the weighted stage sum: from the integer 0,
    left to right, zero weights kept (0.0 * inf is nan, 0 + -0.0 is 0.0)."""
    return "(0" + "".join(f" + {w!r} * k{j}_{i}" for j, w in enumerate(weights)) + ")"


def _balanced_sum(parts: list) -> str:
    """Source of the sum of `parts` as a balanced tree of additions, so
    that its code nests log2(len(parts)) deep, not len(parts)."""
    if len(parts) == 1:
        return parts[0]
    mid = (len(parts) + 1) // 2
    return f"({_balanced_sum(parts[:mid])} + {_balanced_sum(parts[mid:])})"


def _finite(name: str, parts: list) -> list:
    # the values' sum is finite unless one of them is not or it overflows
    return [
        f"if not _isfinite({_balanced_sum(parts)}):",
        f"    _check_finite(_sys, {name}, t, y)",
    ]


def _undefined(sys: ContactSystem, exc: DomainError, t: float, y, *stages):
    """The DivergenceError of a step whose flow raised `exc` after the
    value tuples `stages`: that of a non-finite stage value, which the
    step's one finite check would name had the flow not raised, else
    that of the flow."""
    if not all(map(math.isfinite, chain.from_iterable(stages))):
        return _diverged(sys, "state left the finite domain", t, y)
    return _diverged(sys, f"right-hand side undefined: {exc}", t, y)


def _step_lines(inputs: list, outputs: list) -> list:
    """The statements of one step from the state `y`, unpacked in
    ``y0, y1, ...``, at time `t`: a ``flow`` call on `y` and then on each
    stage of `inputs` (component sources), whose values are ``k<j>_<i>``;
    then each ``y<i>`` becomes its `outputs` source, and `out` the new
    state, while `y` stays the step's start.

    Only `out` is checked to be finite: every stage value enters its
    component of `out` with a nonzero weight or as ``0.0 * k``, so a
    non-finite stage makes `out` non-finite too.  A stage whose flow
    raises names the tuples of the stages before it, so that a
    non-finite one gives the error the finite check would have given.
    """
    comps = range(len(outputs))
    args = ["y"] + [f"({', '.join(stage)},)" for stage in inputs]
    lines = []
    for j, arg in enumerate(args):
        earlier = "".join(f", k{m}" for m in range(j))
        lines += [
            "try:",
            f"    k{j} = flow({arg})",
            "except _DomainError as exc:",
            f"    raise _undefined(_sys, exc, t, y{earlier}) from None",
            f"{', '.join(f'k{j}_{i}' for i in comps)}, = k{j}",
        ]
    lines += [f"y{i} = {value}" for i, value in enumerate(outputs)]
    ys = [f"y{i}" for i in comps]
    return [*lines, f"out = ({', '.join(ys)},)", *_finite("out", ys)]


def _rk4_source(dim: int) -> str:
    """``fn(sys, y, t0, tf, dt, tiny) -> (times, flat)``: the whole RK4
    grid of `integrate_fixed`, the state kept in locals across steps."""
    comps = range(dim)
    inputs = [
        [f"y{i} + {scale} * k{j}_{i}" for i in comps]
        for j, scale in enumerate(("half", "half", "h"))
    ]
    outputs = [
        f"y{i} + sixth * (k0_{i} + 2.0 * (k1_{i} + k2_{i}) + k3_{i})"
        for i in comps
    ]
    step = "".join(f"        {line}\n" for line in _step_lines(inputs, outputs))
    return f"""\
def _fn(_sys, y, t0, tf, dt, tiny):
    flow = _sys.flow
    {', '.join(f"y{i}" for i in comps)}, = y
    times = _array("d")
    flat = _array("d")
    stamps = [t0]
    block = list(y)
    end = tf - tiny
    grid = 0
    t = t0 + grid * dt
    while True:
        grid += 1
        t_next = t0 + grid * dt
        last = t_next >= end
        if last:
            h = tf - t
            t_next = tf
        elif t_next == t:
            raise ValueError(f"dt={{dt!r}} does not advance t={{t!r}}")
        else:
            h = dt
        half = 0.5 * h
        sixth = h / 6.0
{step}\
        stamps.append(t_next)
        block += out
        if last or not grid % {max(1, _CHUNK_CELLS // dim)}:
            times.fromlist(stamps)
            flat.fromlist(block)
            if last:
                return times, flat
            stamps.clear()
            block.clear()
        y = out
        t = t_next
"""


def _rkf45_source(dim: int) -> str:
    """``fn(sys, y, t, h) -> (out, err)``: one Fehlberg trial step."""
    comps = range(dim)
    inputs = [[f"y{i} + h * {_weighted(row, i)}" for i in comps] for row in _RKF_A]
    outputs = [f"y{i} + h * {_weighted(_RKF_B4, i)}" for i in comps]
    errors = ", ".join(f"abs(h * {_weighted(_RKF_ERR, i)})" for i in comps)
    lines = [
        "flow = _sys.flow",
        f"{', '.join(f'y{i}' for i in comps)}, = y",
        *_step_lines(inputs, outputs),
        f"return out, max([{errors}])",
    ]
    return "def _fn(_sys, y, t, h):\n" + "".join(f"    {line}\n" for line in lines)


def _csv_source(dim: int) -> str:
    """``fn(times, flat, energies) -> lines``: each CSV row as one f-string."""
    vs = ", ".join(f"v{i}" for i in range(dim))
    cells = "".join(f",{{v{i}!r}}" for i in range(dim))
    return (
        "def _fn(times, flat, energies):\n"
        f'    return [f"{{t!r}}{cells},{{h!r}}\\n" '
        f"for t, {vs}, h in zip(times, *[iter(flat)] * {dim}, energies)]\n"
    )


_SOURCES = {"rk4": _rk4_source, "rkf45": _rkf45_source, "csv": _csv_source}


@functools.cache
def _generated(kind: str, dim: int):
    """The generated function `kind` of `_SOURCES` for `dim` chart values.

    Its code depends only on the kind and the chart dimension, because
    it calls ``sys.flow`` on the system it is given (or the H kernel it
    is given); so it is compiled once per pair and shared by every
    system of that dimension.
    """
    env = {
        "_array": array,
        "_DomainError": DomainError,
        "_undefined": _undefined,
        "_check_finite": _check_finite,
        "_isfinite": math.isfinite,
    }
    exec(compile(_SOURCES[kind](dim), f"<{kind} {dim}>", "exec"), env)
    return env["_fn"]


#: the tol of every sampled check in `analysis` and of `--tol` unless one
#: is given
DEFAULT_TOLERANCE = 1e-8


def _require_positive(label: str, value: float) -> float:
    """`value` as a float, which must be positive (so not NaN) and finite."""
    value = float(value)
    if not value > 0.0:
        raise ValueError(f"{label} must be positive, got {value!r}")
    if value == math.inf:
        raise ValueError(f"{label} must be finite, got {value!r}")
    return value


def _validate_window(t0: float, tf: float) -> float:
    t0, tf = float(t0), float(tf)
    if not (math.isfinite(t0) and math.isfinite(tf)):
        raise ValueError("t0 and tf must be finite")
    if not tf > t0:
        raise ValueError(f"tf must exceed t0, got t0={t0!r}, tf={tf!r}")
    return tf - t0


def integrate_fixed(
    sys: ContactSystem,
    s0: Sequence[float],
    t0: float,
    tf: float,
    dt: float,
) -> Trajectory:
    """RK4 on a uniform grid; a shortened final step lands exactly on tf.
    A step too small to move t is a ValueError naming t and dt."""
    span = _validate_window(t0, tf)
    dt = _require_positive("dt", dt)
    y = sys.point(s0)
    tiny = 1e-9 * min(dt, span)
    times, flat = _generated("rk4", sys.dim)(sys, y, t0, tf, dt, tiny)
    last_good = flat[-2 * sys.dim : -sys.dim]
    _check_final(sys, flat[-sys.dim :], times[-2], last_good)
    return Trajectory._of_buffers(
        sys.chart_names, times, flat, "rk4", len(times) - 1, 0
    )


def integrate_adaptive(
    sys: ContactSystem,
    s0: Sequence[float],
    t0: float,
    tf: float,
    tol: float,
) -> Trajectory:
    """Fehlberg 4(5) with per-step acceptance err <= tol*(1 + |state|_inf).

    The mixed absolute/relative control keeps the test meaningful both
    near zero and when the action variable grows large.  Step factor is
    0.9*(budget/err)^(1/5) clamped to [0.2, 5.0].  A trial step that
    raises DivergenceError, or that reaches tf at a state where H is
    undefined, is rejected with factor 0.2; the error propagates, naming
    the last accepted state, only once the step falls below the
    resolvable size.  An accepted step too small to move t raises
    StepUnderflowError.
    """
    span = _validate_window(t0, tf)
    tol = _require_positive("tol", tol)
    y = sys.point(s0)

    step = _generated("rkf45", sys.dim)
    t = float(t0)
    times = array("d", (t,))
    flat = array("d", y)
    accepted = 0
    rejected = 0
    dt = span
    dt_floor = 1e-12 * span
    while t < tf:
        h = min(dt, tf - t)
        try:
            out, err = step(sys, y, t, h)
            if h >= tf - t:
                _check_final(sys, out, t, y)
        except DivergenceError:
            # a trial step that leaves the domain, or lands on tf where H
            # is undefined, is rejected and shrunk
            rejected += 1
            dt = 0.2 * h
            if dt < dt_floor:
                raise
            continue
        budget = tol * (1.0 + max(map(abs, y)))
        if err <= budget:
            t_next = tf if h >= tf - t else t + h
            if t_next == t:
                raise StepUnderflowError(t, h, ChartPoint(y), sys.chart_names)
            t = t_next
            y = out
            times.append(t)
            flat.fromlist(list(y))  # array.extend takes a tuple item by item
            accepted += 1
        else:
            rejected += 1
        factor = 5.0 if err == 0.0 else 0.9 * (budget / err) ** 0.2
        dt = h * min(5.0, max(0.2, factor))
        if t < tf and dt < dt_floor:
            raise StepUnderflowError(t, dt, ChartPoint(y), sys.chart_names)

    return Trajectory._of_buffers(
        sys.chart_names, times, flat, "rkf45", accepted, rejected
    )


def write_trajectory_csv(sys: ContactSystem, traj: Trajectory, path) -> None:
    """Header t,<chart names>,H; shortest round-trip float formatting.

    Each row is one generated f-string of the row's `repr`s, with the H
    cell from the system's scalar H kernel, so writing needs no numpy.
    The H column is computed before the file is opened: the first row
    where H is undefined raises its DomainError, and nothing is written.
    The rows are written `_CHUNK_CELLS` cells at a time."""
    _check_trajectory_chart(sys, traj)
    dim, times, flat = sys.dim, traj._times, traj._flat
    energy = sys._kernel(_given, sys.hamiltonian)
    energies = array("d", list(starmap(energy, zip(*[iter(flat)] * dim))))
    rows = _generated("csv", dim)
    chunk = max(1, _CHUNK_CELLS // (dim + 2))
    with open(path, "w") as f:  # no copy of the whole text, joined or encoded
        f.write("t," + ",".join(traj.names) + ",H\n")
        for a in range(0, len(times), chunk):
            b = a + chunk
            f.writelines(rows(times[a:b], flat[a * dim : b * dim], energies[a:b]))


def read_trajectory_csv(path) -> Trajectory:
    """Read a file produced by write_trajectory_csv (H column is dropped).

    Blank lines are skipped.  A non-finite t or chart cell is a
    ValueError too, and every error names the line's number in the file.
    The file is read about `_READ_CHARS` characters at a time, so it
    costs little memory beyond the trajectory's buffers."""
    times = array("d")
    flat = array("d")
    nonfinite = None  # the first line with a non-finite t or chart cell
    with open(path) as f:
        # the lines of `str.splitlines` of the text, from blocks that each
        # end at a newline
        blocks = iter(lambda: (f.read(_READ_CHARS) + f.readline()).splitlines(), [])
        lines = enumerate(chain.from_iterable(blocks), 1)
        for _, line in lines:
            if line.strip():
                break
        else:
            raise ValueError(f"{path}: empty trajectory file")
        header = line.split(",")
        if len(header) < 5 or header[0] != "t" or header[-1] != "H":
            raise ValueError(f"{path}: expected header t,<chart names>,H")
        for lineno, line in lines:
            if not line.strip():
                continue
            cells = line.split(",")
            if len(cells) != len(header):
                raise ValueError(
                    f"{path}: line {lineno}: expected {len(header)} columns, "
                    f"got {len(cells)}"
                )
            try:
                row = list(map(float, cells))
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: non-numeric cell") from None
            # a finite sum is a row of finite cells; finite cells may
            # overflow it, so only then is each cell looked at
            if nonfinite is None and not math.isfinite(sum(row[:-1])):
                if not all(map(math.isfinite, row[:-1])):
                    nonfinite = lineno
            times.append(row[0])
            flat.fromlist(row[1:-1])
    if not times:
        raise ValueError(f"{path}: no data rows after the header")
    names = tuple(header[1:-1])
    if nonfinite is not None:
        raise ValueError(f"{path}: line {nonfinite}: non-finite cell")
    try:
        return Trajectory._of_buffers(names, times, flat, "file", 0, 0)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
