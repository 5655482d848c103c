"""Shared test utilities.

The derivative comparisons need a stream of (expression, bindings) pairs
that are smooth near the sample point and numerically tame, so the
central-difference oracle can be trusted.  Generation is seeded and the
rejection filter only probes plain evaluations, never the symbolic
derivatives under test.
"""

from __future__ import annotations

import math

import numpy as np

from contactmech import DomainError, finite_difference, parse

NAMES = ("a", "b", "c")

#: six coupled damped oscillators, as in the benchmark's wide workload
CHAIN_H = (
    "(p_q1^2 + p_q2^2 + p_q3^2 + p_q4^2 + p_q5^2 + p_q6^2)/(2*m)"
    " + k/2*((q2 - q1)^2 + (q3 - q2)^2 + (q4 - q3)^2 + (q5 - q4)^2"
    " + (q6 - q5)^2) + gamma*s"
)

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
