"""Each operator's expression tree against its coordinate formula.

The formulas are written out here in sympy from the same source strings
the system and fields are parsed from, with every decimal literal taken
as the exact value of its float, and evaluated by mpmath at 50 digits.
The trees come from `calculus`.  sympy and mpmath are test-only tools.
"""

import mpmath
import numpy as np
import pytest
import sympy

from helpers import CHAIN_H, chart_points
from contactmech import (
    ContactSystem,
    PointMap,
    ScalarField,
    VectorField,
    check_contact_symmetry_map,
    classify_symmetry,
    hamiltonian_field,
    lie_bracket,
    lie_derivative_contact_form,
    lie_derivative_scalar,
    noether_quantity,
    parse,
    reeb_lift,
    sample_states,
    vf_jacobian,
)
from contactmech.calculus import (
    _characterization_trees,
    _dissipation_trees,
    _hamilton_trees,
    _map_deviation_trees,
)
from contactmech.contact_core import _given

DIGITS = 50
REL_TOL = 1e-12

OSCILLATOR_H = "(p_x^2 + p_y^2)/2 + k*(x^2 + y^2)/2 + gamma*s"
ROTATION = {"x": "-y", "y": "x", "p_x": "-p_y", "p_y": "p_x"}
DILATION = {"x": "x", "y": "y"}
MIXED = {"q1": "p_q2", "p_q3": "q4*q5", "s": "sin(q6) + p_q1"}
ROTATION_MAP = {
    "x": "0.6*x - 0.8*y", "y": "0.8*x + 0.6*y",
    "p_x": "0.6*p_x - 0.8*p_y", "p_y": "0.8*p_x + 0.6*p_y",
}
NONLINEAR_MAP = {"x": "x + sin(y)", "p_x": "p_x*exp(s)", "s": "s + x*p_y"}


def _oscillator():
    return ContactSystem(("x", "y"), OSCILLATOR_H, {"k": 3.0, "gamma": 0.5})


def _chain():
    return ContactSystem(
        [f"q{i}" for i in range(1, 7)], CHAIN_H, {"m": 1.3, "k": 2.1, "gamma": 0.4}
    )


class Formulas:
    """Coordinate formulas on a system's chart, in sympy."""

    def __init__(self, sys):
        self.sys = sys
        self.x = [sympy.Symbol(name) for name in sys.chart_names]
        self.params = [sympy.Symbol(name) for name in sys.parameters]
        self.H = self.sympy(sys.hamiltonian)

    def sympy(self, expression):
        names = {str(sym): sym for sym in self.x + self.params}
        tree = sympy.sympify(
            str(expression).replace("^", "**"), locals={**names, "abs": sympy.Abs}
        )
        return tree.xreplace(
            {f: sympy.Rational(float(f)) for f in tree.atoms(sympy.Float)}
        )

    def field(self, field):
        return [self.sympy(comp) for comp in field.components]

    def d(self, f, k):
        return sympy.diff(f, self.x[k])

    def eta(self, state):
        """eta = ds - p_i dq^i at a state given by its chart values."""
        n = self.sys.n
        return [-p for p in state[n : 2 * n]] + [0] * n + [1]

    def hamiltonian_field(self):
        n, H, x = self.sys.n, self.H, self.x
        h_s = self.d(H, 2 * n)
        return (
            [self.d(H, n + i) for i in range(n)]
            + [-self.d(H, i) - x[n + i] * h_s for i in range(n)]
            + [sum(x[n + i] * self.d(H, n + i) for i in range(n)) - H]
        )

    def lie_scalar(self, y, f):
        return sum(y_k * self.d(f, k) for k, y_k in enumerate(y))

    def lie_form(self, y):
        """(L_Y eta)_j = sum_k Y^k d_k eta_j + eta_k d_j Y^k."""
        eta = self.eta(self.x)
        dim = len(self.x)
        return [
            sum(y[k] * self.d(eta[j], k) + eta[k] * self.d(y[k], j) for k in range(dim))
            for j in range(dim)
        ]

    def bracket(self, a, b):
        dim = len(self.x)
        return [
            sum(a[j] * self.d(b[k], j) - b[j] * self.d(a[k], j) for j in range(dim))
            for k in range(dim)
        ]

    def hamilton(self, y):
        """i(Y)eta + H, then the components of i(Y)d eta - dH + (dH/ds) eta,
        with (d eta)_jk = d_j eta_k - d_k eta_j."""
        eta, H = self.eta(self.x), self.H
        dim = len(self.x)
        h_s = self.d(H, dim - 1)
        interior = [
            sum(y[j] * (self.d(eta[k], j) - self.d(eta[j], k)) for j in range(dim))
            for k in range(dim)
        ]
        r_eta = sum(e * y_k for e, y_k in zip(eta, y)) + H
        return [r_eta] + [
            interior[k] - self.d(H, k) + h_s * eta[k] for k in range(dim)
        ]

    def characterization(self, y):
        """eta([Y, X_H])."""
        bracket = self.bracket(y, self.hamiltonian_field())
        return sum(e * b for e, b in zip(self.eta(self.x), bracket))

    def dissipation(self, f):
        rate = self.lie_scalar(self.hamiltonian_field(), f)
        return [rate, rate + self.d(self.H, 2 * self.sys.n) * f]

    def map_deviation(self, image):
        """(Phi*eta)_j - eta_j = sum_k eta_k(Phi) d_j Phi^k - eta_j, then
        H(Phi) - H."""
        eta_image, eta = self.eta(image), self.eta(self.x)
        dim = len(self.x)
        form = [
            sum(eta_image[k] * self.d(image[k], j) for k in range(dim)) - eta[j]
            for j in range(dim)
        ]
        moved = self.H.subs(dict(zip(self.x, image)), simultaneous=True)
        return form + [moved - self.H]

    def at(self, exprs, states):
        """Values of `exprs` at each state, at DIGITS significant digits."""
        fn = sympy.lambdify(self.x + self.params, exprs, modules="mpmath")
        params = list(self.sys.parameters.values())
        with mpmath.workdps(DIGITS):
            return [
                [+v for v in fn(*map(mpmath.mpf, list(pt.flat()) + params))]
                for pt in states
            ]


def _assert_agrees(got_rows, exact_rows):
    for got, exact in zip(got_rows, exact_rows, strict=True):
        for g, e in zip(got, exact, strict=True):
            assert abs(g - float(e)) <= REL_TOL * max(1.0, abs(float(e))), (g, e)


#: fields with non-constant components, by system
FIELDS = [
    (_oscillator, "rotation", ROTATION),
    (_oscillator, "dilation", DILATION),
    (_chain, "mixed", MIXED),
]


def _field_case(make, name, mapping):
    sys = make()
    return sys, VectorField.from_mapping(sys, name, mapping)


@pytest.mark.parametrize("case", FIELDS, ids=lambda case: case[1])
def test_contact_trees_match_the_formulas(case):
    sys, field = _field_case(*case)
    oracle = Formulas(sys)
    y = oracle.field(field)
    ham = ScalarField("H", sys.hamiltonian)
    states = chart_points(sys, sample_states(sys, count=15, seed=21))
    got = [
        lie_derivative_contact_form(sys, field, pt)
        + (lie_derivative_scalar(sys, field, ham, pt),)
        for pt in states
    ]
    formulas = oracle.lie_form(y) + [oracle.lie_scalar(y, oracle.H)]
    _assert_agrees(got, oracle.at(formulas, states))


@pytest.mark.parametrize("case", FIELDS, ids=lambda case: case[1])
def test_bracket_trees_match_the_formula(case):
    sys, field = _field_case(*case)
    oracle = Formulas(sys)
    y = oracle.field(field)
    dilation = VectorField.from_mapping(
        sys, "dilation", {c: c for c in sys.coordinates}
    )
    states = chart_points(sys, sample_states(sys, count=15, seed=22))
    for other, formula in (
        (hamiltonian_field(sys), oracle.hamiltonian_field()),
        (dilation, oracle.field(dilation)),
    ):
        got = [lie_bracket(sys, field, other, pt) for pt in states]
        _assert_agrees(got, oracle.at(oracle.bracket(y, formula), states))


@pytest.mark.parametrize("case", FIELDS, ids=lambda case: case[1])
def test_hamilton_and_characterization_trees_match_the_formulas(case):
    sys, field = _field_case(*case)
    oracle = Formulas(sys)
    lift = reeb_lift(sys, ScalarField("H", sys.hamiltonian))
    states = chart_points(sys, sample_states(sys, count=15, seed=25))
    for candidate, y in (
        (field, oracle.field(field)),
        (hamiltonian_field(sys), oracle.hamiltonian_field()),
        (lift, [0] * (sys.dim - 1) + [-oracle.H]),
    ):
        trees = _hamilton_trees(sys, candidate.components) + (
            _characterization_trees(sys, candidate.components),
        )
        got = [[t.evaluate(sys.bindings(pt)) for t in trees] for pt in states]
        formulas = oracle.hamilton(y) + [oracle.characterization(y)]
        _assert_agrees(got, oracle.at(formulas, states))


@pytest.mark.parametrize(
    "make, sources",
    [
        (_oscillator, [OSCILLATOR_H, "x*p_y - y*p_x", "sin(x)*exp(p_y) + s^2"]),
        (_chain, [CHAIN_H, "q2*p_q3 - cos(q4)"]),
    ],
)
def test_dissipation_trees_match_the_formula(make, sources):
    sys = make()
    oracle = Formulas(sys)
    names = sys.chart_names + tuple(sys.parameters)
    expressions = [parse(source, names) for source in sources] + [
        noether_quantity(*_field_case(*case)).expression
        for case in FIELDS
        if case[0] is make
    ]
    states = chart_points(sys, sample_states(sys, count=15, seed=23))
    for expression in expressions:
        trees = _dissipation_trees(sys, expression)
        got = [[t.evaluate(sys.bindings(pt)) for t in trees] for pt in states]
        exact = oracle.at(oracle.dissipation(oracle.sympy(expression)), states)
        _assert_agrees(got, exact)


@pytest.mark.parametrize(
    "make, mapping",
    [
        (_oscillator, NONLINEAR_MAP),
        (_oscillator, ROTATION_MAP),
        (_chain, {"q1": "q1 + p_q2^2", "p_q1": "p_q1*exp(s)", "s": "s + q3*p_q4"}),
    ],
)
def test_map_trees_match_the_formula(make, mapping):
    sys = make()
    point_map = PointMap.from_mapping(sys, "candidate", mapping)
    oracle = Formulas(sys)
    trees = _map_deviation_trees(sys, point_map.components)
    states = chart_points(sys, sample_states(sys, count=15, seed=24))
    got = [[t.evaluate(sys.bindings(pt)) for t in trees] for pt in states]
    exact = oracle.at(oracle.map_deviation(oracle.field(point_map)), states)
    _assert_agrees(got, exact)


# ---------------------------------------------------------------------------
# Residuals whose bits changed when the trees replaced numpy products
# ---------------------------------------------------------------------------

def _matmul_bracket_residuals(sys, field, states):
    """max |[Y, X_H]| per state by the numpy product `jb @ va - ja @ vb`
    that the bracket check used before it compiled the bracket tree."""
    x_h = hamiltonian_field(sys)
    out = []
    for pt in states:
        va = np.array(sys._at(pt, _given, field.components))
        vb = np.array(sys._at(pt, _given, x_h.components))
        ja, jb = vf_jacobian(sys, field, pt), vf_jacobian(sys, x_h, pt)
        out.append(float(np.max(np.abs(jb @ va - ja @ vb))))
    return out


def _matmul_map_residuals(sys, point_map, states):
    """The map residual by the numpy product `eta(image) @ jacobian` that
    the map check used before it compiled the deviation trees."""
    n = sys.n
    as_field = VectorField(point_map.name, point_map.components)
    out = []
    for pt in states:
        image = point_map.apply(sys, pt)
        eta_image = np.array([-v for v in image.p] + [0.0] * n + [1.0])
        eta_here = np.array([-v for v in pt.p] + [0.0] * n + [1.0])
        pulled = eta_image @ vf_jacobian(sys, as_field, pt)
        h_dev = abs(sys.hamiltonian_value(image) - sys.hamiltonian_value(pt))
        out.append(max(float(np.max(np.abs(pulled - eta_here))), h_dev))
    return out


def _assert_no_further(report, before, exact_rows):
    exact = [max(abs(v) for v in row) for row in exact_rows]
    with mpmath.workdps(DIGITS):
        exact_max = max(exact)
        exact_mean = mpmath.fsum(exact) / len(exact)
        assert abs(report.max_residual - exact_max) <= abs(max(before) - exact_max)
        before_mean = sum(before) / len(before)
        assert abs(report.mean_residual - exact_mean) <= abs(before_mean - exact_mean)


def test_chain_translation_bracket_is_no_less_accurate():
    sys = _chain()
    field = VectorField.from_mapping(
        sys, "common_translation", {c: "1" for c in sys.coordinates}
    )
    states = sample_states(sys, count=20, seed=11)
    points = chart_points(sys, states)
    _, dynamical = classify_symmetry(sys, field, states)
    before = _matmul_bracket_residuals(sys, field, points)
    oracle = Formulas(sys)
    exact = oracle.at(
        oracle.bracket(oracle.field(field), oracle.hamiltonian_field()), points
    )
    # the translation commutes with X_H, so only rounding is left
    assert all(v == 0 for row in exact for v in row)
    assert (max(before), dynamical.max_residual) == (
        3.552713678800501e-15,
        1.3322676295501878e-15,
    )
    _assert_no_further(dynamical, before, exact)


def test_rotation_map_residual_is_no_less_accurate():
    sys = _oscillator()
    point_map = PointMap.from_mapping(sys, "rotation", ROTATION_MAP)
    states = sample_states(sys, count=60, seed=9)
    points = chart_points(sys, states)
    report = check_contact_symmetry_map(sys, point_map, states)
    before = _matmul_map_residuals(sys, point_map, points)
    oracle = Formulas(sys)
    exact = oracle.at(oracle.map_deviation(oracle.field(point_map)), points)
    assert (sum(before) / 60, report.mean_residual) == (
        3.7816971776294395e-16,
        3.6567970873591096e-16,
    )
    _assert_no_further(report, before, exact)
