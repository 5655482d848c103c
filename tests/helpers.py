"""Shared test utilities.

The derivative comparisons need a stream of (expression, bindings) pairs
that are smooth near the sample point and numerically tame, so the
central-difference oracle can be trusted.  Generation is seeded and the
rejection filter only probes plain evaluations, never the symbolic
derivatives under test.

The per-state kernels are compared with a plain tree walk that shares
no code with the generated kernels.

The integrator comparisons need a plain Runge-Kutta reference: one
``sys.flow`` call per stage, the stage arithmetic as list
comprehensions over the components, and the library's own finiteness
check and error constructor, in the same time loops as the library.

The scalar-source comparisons need a writer that puts every operation
in parentheses, with the same binding rule as `expr._Emitter.source`.

The column-kernel comparisons need the per-row check loop the batched
checks replaced: one scalar-kernel call per state, a ``try`` around it,
and the report statistics in plain Python, with the same tree builders
feeding it.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from itertools import chain

import numpy as np

from contactmech import DomainError, MissingBindingError, Trajectory, parse
from contactmech import expr as ex
from contactmech.analysis import (
    KIND_CONSERVED,
    KIND_CONTACT,
    KIND_DISSIPATED,
    KIND_DYNAMICAL,
    CheckReport,
)
from contactmech.calculus import (
    _bracket_trees,
    _dissipation_trees,
    _lie_eta_trees,
    _map_deviation_trees,
    _rate_trees,
)
from contactmech.integrate import _check_finite, _diverged

NAMES = ("a", "b", "c")

def chain_h(length: int) -> str:
    """The Hamiltonian of `length` coupled damped oscillators, written as
    the benchmark's wide workload writes it."""
    kinetic = " + ".join(f"p_q{i}^2" for i in range(1, length + 1))
    springs = " + ".join(f"(q{i + 1} - q{i})^2" for i in range(1, length))
    return f"({kinetic})/(2*m) + k/2*({springs}) + gamma*s"


#: six coupled damped oscillators, as in the benchmark's wide workload
CHAIN_H = chain_h(6)


def chain_document(length: int = 6) -> dict:
    """A spec of the chain_h(length) system with the candidates of the
    benchmark's wide workload, at fixed parameters and state."""
    hamiltonian = chain_h(length)
    coords = [f"q{i}" for i in range(1, length + 1)]
    momenta = [f"p_{c}" for c in coords]
    state = {c: 0.1 * k for k, c in enumerate(coords)}
    state.update({p: 0.3 + 0.1 * k for k, p in enumerate(momenta)})
    state["s"] = 0.2
    return {
        "n": length,
        "coordinates": coords,
        "parameters": {"m": 1.3, "k": 2.1, "gamma": 0.4},
        "hamiltonian": hamiltonian,
        "initial_state": state,
        "symmetries": [
            {
                "name": "common_translation",
                "components": {c: "1" for c in coords},
                "expect": "contact",
            },
            {"name": "s_translation", "components": {"s": "1"}, "expect": "neither"},
        ],
        "quantities": [
            {
                "name": "total_momentum",
                "expression": " + ".join(momenta),
                "expect": "dissipated",
            },
            {"name": "energy", "expression": hamiltonian, "expect": "dissipated"},
            {"name": "q1", "expression": "q1", "expect": "neither"},
        ],
        "maps": [
            {
                "name": "common_shift",
                "components": {c: f"{c} + 1" for c in coords},
                "expect": "contact",
            },
        ],
    }


#: every function, a fractional parameter exponent and (with c < 0) a
#: negative parameter
FUNCTIONS_H = (
    "p_q^2/(2*m) + sin(q)*cos(p_q) + exp(-q^2/2) + log(1 + q^2)"
    " + c*sqrt(1 + p_q^2) + abs(q)*(1 + q^2)^n + gamma*s"
)

def finite_difference(
    expr, var: str, bindings: dict, h: float | None = None
) -> float:
    """Central-difference estimate of a partial; cross-check oracle only."""
    if var not in bindings:
        raise MissingBindingError(var)
    x = float(bindings[var])
    if h is None:
        h = 1e-5 * max(1.0, abs(x))
    lo = dict(bindings)
    hi = dict(bindings)
    lo[var] = x - h
    hi[var] = x + h
    return (expr.evaluate(hi) - expr.evaluate(lo)) / (2.0 * h)


_BINARY = ("+", "-", "*", "/")
_UNARY = ("sin", "cos", "exp", "log", "sqrt")


def _gen_source(rng, depth: int) -> str:
    if depth <= 0 or rng.random() < 0.25:
        if rng.random() < 0.4:
            return format(rng.uniform(-3.0, 3.0), ".3f")
        return str(NAMES[rng.integers(len(NAMES))])
    kind = rng.random()
    if kind < 0.45:
        op = _BINARY[rng.integers(len(_BINARY))]
        return f"({_gen_source(rng, depth - 1)} {op} {_gen_source(rng, depth - 1)})"
    if kind < 0.60:
        return f"({_gen_source(rng, depth - 1)})^{int(rng.integers(2, 4))}"
    if kind < 0.70:
        return f"-({_gen_source(rng, depth - 1)})"
    fn = _UNARY[rng.integers(len(_UNARY))]
    return f"{fn}({_gen_source(rng, depth - 1)})"


def _admissible(expr, bindings: dict) -> bool:
    # Bounds keep the FD oracle accurate: moderate values and slopes,
    # and a stencil that stays inside every function's domain.
    try:
        value = expr.evaluate(bindings)
        slopes = [finite_difference(expr, name, bindings) for name in expr.names]
    except DomainError:
        return False
    if not math.isfinite(value) or abs(value) > 1e2:
        return False
    return all(math.isfinite(s) and abs(s) < 1e3 for s in slopes)


def derivative_cases(count: int, seed: int) -> list:
    """Seeded (expression, bindings) pairs, each with at least one variable."""
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < count:
        expr = parse(_gen_source(rng, 3), NAMES)
        if not expr.names:
            continue
        bindings = {name: float(rng.uniform(-2.0, 2.0)) for name in NAMES}
        if _admissible(expr, bindings):
            cases.append((expr, bindings))
    return cases


# ---------------------------------------------------------------------------
# Reference tree walk
# ---------------------------------------------------------------------------

def _real_pow(base, exponent):
    """``^`` as the grammar defines it: a square is the product ``x*x``,
    and a negative base takes an integer exponent only, so (-2)^inf is an
    error where math.pow gives inf."""
    if exponent == 2.0:
        return base * base
    if base < 0.0 and not float(exponent).is_integer():
        raise ValueError("negative base with a non-integer exponent")
    return math.pow(base, exponent)


_WALK_BINARY = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "^": _real_pow,
}

_WALK_CALLS = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "abs": abs,
    "sign": lambda x: 1.0 if x > 0.0 else (-1.0 if x < 0.0 else 0.0),
}


def walk(node, env):
    """Plain tree-walking evaluation, independent of any generated code."""
    kind = type(node).__name__
    if kind == "Num":
        return node.value
    if kind == "Var":
        return env[node.name]
    if kind == "Neg":
        return -walk(node.arg, env)
    if kind == "Call":
        return _WALK_CALLS[node.fn](walk(node.arg, env))
    return _WALK_BINARY[node.op](walk(node.lhs, env), walk(node.rhs, env))


# ---------------------------------------------------------------------------
# Reference Runge-Kutta integrator
# ---------------------------------------------------------------------------

# Fehlberg 4(5): stage rows, 4th-order weights, and b5 - b4
_RKF_A = (
    (1.0 / 4.0,),
    (3.0 / 32.0, 9.0 / 32.0),
    (1932.0 / 2197.0, -7200.0 / 2197.0, 7296.0 / 2197.0),
    (439.0 / 216.0, -8.0, 3680.0 / 513.0, -845.0 / 4104.0),
    (-8.0 / 27.0, 2.0, -3544.0 / 2565.0, 1859.0 / 4104.0, -11.0 / 40.0),
)
_RKF_B4 = (25.0 / 216.0, 0.0, 1408.0 / 2565.0, 2197.0 / 4104.0, -1.0 / 5.0, 0.0)
_RKF_ERR = (
    1.0 / 360.0, 0.0, -128.0 / 4275.0, -2197.0 / 75240.0, 1.0 / 50.0, 2.0 / 55.0
)


def _sum(values) -> float:
    """Left to right from the integer 0: `sum` of floats before Python 3.12,
    which switched to compensated summation."""
    total = 0
    for value in values:
        total = total + value
    return total


def _rhs(sys, y, t, last_good) -> tuple:
    try:
        k = sys.flow(y)
    except DomainError as exc:
        raise _diverged(
            sys, f"right-hand side undefined: {exc}", t, last_good
        ) from None
    _check_finite(sys, k, t, last_good)
    return k


def reference_rk4(sys, y: tuple, t: float, h: float) -> tuple:
    half = 0.5 * h
    k1 = _rhs(sys, y, t, y)
    k2 = _rhs(sys, tuple([yi + half * ki for yi, ki in zip(y, k1)]), t, y)
    k3 = _rhs(sys, tuple([yi + half * ki for yi, ki in zip(y, k2)]), t, y)
    k4 = _rhs(sys, tuple([yi + h * ki for yi, ki in zip(y, k3)]), t, y)
    sixth = h / 6.0
    out = tuple([
        yi + sixth * (a + 2.0 * (b + c) + d)
        for yi, a, b, c, d in zip(y, k1, k2, k3, k4)
    ])
    _check_finite(sys, out, t, y)
    return out


def reference_rkf45(sys, y: tuple, t: float, h: float) -> tuple:
    ks = [_rhs(sys, y, t, y)]
    for row in _RKF_A:
        stage = tuple([
            yi + h * _sum([a * k for a, k in zip(row, col)])
            for yi, *col in zip(y, *ks)
        ])
        ks.append(_rhs(sys, stage, t, y))
    out = tuple([
        yi + h * _sum([b * k for b, k in zip(_RKF_B4, col)])
        for yi, *col in zip(y, *ks)
    ])
    _check_finite(sys, out, t, y)
    err = max([
        abs(h * _sum([e * k for e, k in zip(_RKF_ERR, col)]))
        for col in zip(*ks)
    ])
    return out, err


def reference_fixed(sys, s0, t0: float, tf: float, dt: float) -> Trajectory:
    """`integrate_fixed` stepping with `reference_rk4`."""
    times, states = reference_fixed_samples(sys, s0, t0, tf, dt)
    return Trajectory(sys.chart_names, np.array(times), np.array(states), "rk4",
                      accepted=len(times) - 1, rejected=0)


def reference_fixed_samples(sys, s0, t0: float, tf: float, dt: float) -> tuple:
    """The times and the row tuples of `reference_fixed`, as lists."""
    y = tuple(s0)
    times = [float(t0)]
    states = [y]
    tiny = 1e-9 * min(dt, tf - t0)
    k = 0
    while True:
        t_k = t0 + k * dt
        t_next = t0 + (k + 1) * dt
        if t_next >= tf - tiny:
            states.append(reference_rk4(sys, y, t_k, tf - t_k))
            times.append(float(tf))
            break
        y = reference_rk4(sys, y, t_k, dt)
        times.append(t_next)
        states.append(y)
        k += 1
    return times, states


def reference_adaptive(sys, s0, t0: float, tf: float, tol: float) -> Trajectory:
    """`integrate_adaptive` stepping with `reference_rkf45`, without its
    step-underflow check."""
    times, states, accepted, rejected = reference_adaptive_samples(sys, s0, t0, tf, tol)
    return Trajectory(sys.chart_names, np.array(times), np.array(states), "rkf45",
                      accepted=accepted, rejected=rejected)


def reference_adaptive_samples(sys, s0, t0: float, tf: float, tol: float) -> tuple:
    """The times and the row tuples of `reference_adaptive`, as lists,
    then its accepted and rejected step counts."""
    y = tuple(s0)
    t = float(t0)
    times = [t]
    states = [y]
    accepted = rejected = 0
    dt = tf - t0
    while t < tf:
        h = min(dt, tf - t)
        out, err = reference_rkf45(sys, y, t, h)
        budget = tol * (1.0 + max(abs(v) for v in y))
        if err <= budget:
            t = tf if h >= tf - t else t + h
            y = out
            times.append(t)
            states.append(y)
            accepted += 1
        else:
            rejected += 1
        factor = 5.0 if err == 0.0 else 0.9 * (budget / err) ** 0.2
        dt = h * min(5.0, max(0.2, factor))
    return times, states, accepted, rejected


# ---------------------------------------------------------------------------
# Reference per-row check loop
# ---------------------------------------------------------------------------

def reference_sampled_reports(subject, kinds, residual, rows, tolerance) -> tuple:
    """One CheckReport per kind from `residual` run on each flat row.

    `residual(row)` returns one value per kind; a row where it raises
    DomainError counts as failed in every report it feeds, and a row
    whose value for a kind is NaN counts as failed in that kind's report.
    """
    values = []  # row-major, len(kinds) per evaluated row
    for row in rows:
        try:
            values.extend(residual(row))
        except DomainError:
            pass  # counted below, as a row missing from the values
    reports = []
    for k, kind in enumerate(kinds):
        residuals = values[k :: len(kinds)]
        total = _sum(residuals)
        if math.isnan(total):  # exactly when some |residual| is NaN
            residuals = [r for r in residuals if not math.isnan(r)]
            total = _sum(residuals)
        if residuals:
            mx = max(residuals)
            mean = total / len(residuals)
        else:
            mx = mean = math.inf
        reports.append(
            CheckReport(
                subject=subject,
                kind=kind,
                samples=len(residuals),
                max_residual=mx,
                mean_residual=mean,
                tolerance=float(tolerance),
                verdict="pass" if mx <= tolerance else "fail",
                failed_samples=len(rows) - len(residuals),
            )
        )
    return tuple(reports)


def chart_kernel(sys, result):
    """`expr._compile_kernel` of `result` over the chart of `sys`, with
    its parameters folded in: a scalar kernel of a tree or a tuple of
    them, a column kernel of a list of groups."""
    return ex._compile_kernel(result, sys.chart_names, sys.parameters)


def reference_max_abs(sys, trees, guards=()):
    """Per-row 1-tuple: the largest |value| of the trees, from one scalar
    kernel, or NaN if one of them is NaN, which `max` alone would drop.
    The kernel also runs the `guards`, so a row fails where one of them
    raises, but their values are dropped."""
    kernel = chart_kernel(sys, tuple(trees) + tuple(guards))

    def residual(row):
        values = tuple(map(abs, kernel(*row)))[: len(trees)]
        total = sum(values)  # NaN exactly when some value is NaN
        return (total if math.isnan(total) else max(values),)

    return residual


def reference_classify(sys, field, rows, tol) -> tuple:
    """The contact and dynamical reports of `classify_symmetry`: a row
    where H is undefined fails in both."""
    y = field.components
    h = (sys.hamiltonian,)
    eta_and_h = _lie_eta_trees(sys, y) + _rate_trees(sys, y, h)
    (contact,) = reference_sampled_reports(
        field.name, (KIND_CONTACT,), reference_max_abs(sys, eta_and_h, h), rows, tol
    )
    bracket = _bracket_trees(sys, y, sys._field)
    (dynamical,) = reference_sampled_reports(
        field.name, (KIND_DYNAMICAL,), reference_max_abs(sys, bracket, h), rows, tol
    )
    return contact, dynamical


def reference_quantity(sys, quantity, rows, tol) -> tuple:
    """The conserved and dissipated reports of `check_quantity`."""
    kernel = chart_kernel(sys, _dissipation_trees(sys, quantity.expression))
    return reference_sampled_reports(
        quantity.name,
        (KIND_CONSERVED, KIND_DISSIPATED),
        lambda row: tuple(map(abs, kernel(*row))),
        rows,
        tol,
    )


def reference_map(sys, point_map, rows, tol) -> CheckReport:
    """The report of `check_contact_symmetry_map`."""
    deviations = _map_deviation_trees(sys, point_map.components)
    (report,) = reference_sampled_reports(
        point_map.name, (KIND_CONTACT,), reference_max_abs(sys, deviations), rows, tol
    )
    return report


def report_bits(report) -> tuple:
    """Every field of a CheckReport, floats by their exact hex form."""
    return (
        report.subject,
        report.kind,
        report.samples,
        report.failed_samples,
        report.max_residual.hex(),
        report.mean_residual.hex(),
        report.tolerance.hex(),
        report.verdict,
    )


#: leaves that reach the edges of every function's domain
_EDGE_LITERALS = ("0", "1", "2", "0.5", "800", "1e200")
_EDGE_FUNCTIONS = _UNARY + ("abs",)


def edge_source(rng, names, depth: int) -> str:
    """Seeded source over `names` using every function, both powers (an
    integer, a fractional and a variable exponent) and literals that
    overflow, divide by zero and leave the real domain."""
    if depth <= 0 or rng.random() < 0.2:
        if rng.random() < 0.3:
            return _EDGE_LITERALS[rng.integers(len(_EDGE_LITERALS))]
        return str(names[rng.integers(len(names))])
    kind = rng.random()
    a = edge_source(rng, names, depth - 1)
    if kind < 0.4:
        op = _BINARY[rng.integers(len(_BINARY))]
        return f"({a} {op} {edge_source(rng, names, depth - 1)})"
    if kind < 0.55:
        exponent = ("2", "3", "-1", "0.5", "2.5", edge_source(rng, names, 0))
        return f"({a})^({exponent[rng.integers(len(exponent))]})"
    if kind < 0.62:
        return f"-({a})"
    fn = _EDGE_FUNCTIONS[rng.integers(len(_EDGE_FUNCTIONS))]
    return f"{fn}({a})"


#: state entries that reach the same edges: signed zeros, infinities, NaN
_EDGE_VALUES = (0.0, -0.0, 1.0, -1.0, -2.0, 800.0, 1e200, math.inf, -math.inf, math.nan)


def edge_rows(rng, dim: int, count: int) -> np.ndarray:
    """`count` seeded flat states, each entry an edge value a third of the
    time and a uniform draw from [-2, 2] otherwise."""
    rows = rng.uniform(-2.0, 2.0, size=(count, dim))
    edges = rng.random((count, dim)) < 1.0 / 3.0
    picks = rng.integers(len(_EDGE_VALUES), size=(count, dim))
    rows[edges] = np.array(_EDGE_VALUES)[picks[edges]]
    return rows


def parenthesized_source(emitter, roots) -> tuple:
    """``(lines, parts)`` of a scalar kernel of ``roots``: the statements
    and the returned expressions that `expr._Emitter.source` writes, but
    with every operation in parentheses, from the same steps and with
    the same binding rule."""
    cells, steps, outputs = emitter.columns(roots)
    reads = Counter(chain(outputs, *(args for _, args in steps.values())))
    code = [f"v{k}" for k in range(len(emitter.index))]
    code += [None if v is None else repr(v) for v in cells]
    depth = [0] * len(code)
    unread = {}
    lines = []

    def read(k):
        text = code[k]
        if k in unread:
            del unread[k]
            code[k] = None
        return text, depth[k]

    for slot, (helper, args) in steps.items():
        texts, depths = zip(*map(read, args))
        if helper == "neg":
            code[slot] = f"(-{texts[0]})"
        elif helper[0] == "_":
            code[slot] = f"{helper}({', '.join(texts)})"
        else:
            code[slot] = f"({texts[0]} {helper} {texts[1]})"
        depth[slot] = 1 + max(depths)
        unread[slot] = None
        if reads[slot] > 1 or depth[slot] > ex._MAX_NESTING:
            for k in unread:
                temp = f"t{len(lines)}"
                lines.append(f"{temp} = {code[k]}")
                code[k], depth[k] = temp, 0
            unread.clear()
    return lines, [read(k)[0] for k in outputs]
