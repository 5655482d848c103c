"""Chart containers, the contact form, and the evolution equations."""

import copy
import functools
import math
import pickle
import random

import numpy as np
import pytest

from helpers import CHAIN_H, FUNCTIONS_H, walk
from contactmech import expr as ex
from contactmech import (
    ChartPoint,
    ContactSystem,
    DomainError,
    PointMap,
    ScalarField,
    VectorField,
    builtin,
    characterization_residual,
    check_contact_symmetry_map,
    check_quantity,
    classify_symmetry,
    hamilton_equation_residuals,
    hamiltonian_field,
    lie_bracket,
    lie_derivative_contact_form,
    lie_derivative_scalar,
    parse,
    reeb_lift,
    sample_states,
    vf_jacobian,
)
from contactmech.calculus import (
    _bracket_trees,
    _characterization_trees,
    _hamilton_trees,
    _lie_eta_trees,
    _rate_trees,
)
from contactmech.contact_core import _given

MODELS = ("gravity_friction", "damped_free_particle", "damped_oscillator")

#: H = 0 on the (x, y) chart: its residuals of a field v are eta(v) and
#: the interior product i(v) d eta
FREE = ContactSystem(("x", "y"), "0")


def test_chart_point_basics():
    pt = ChartPoint([1, 2, 3, 4, 5])
    assert pt.n == 2
    assert (pt.q, pt.p, pt.s) == ((1.0, 2.0), (3.0, 4.0), 5.0)
    # a state is its row: a ChartPoint equals its row tuple
    assert pt == (1.0, 2.0, 3.0, 4.0, 5.0)
    assert all(type(v) is float for v in pt)
    assert ChartPoint(np.array([1.0, 2.0, 3.0, 4.0, 5.0])) == pt
    assert ChartPoint(pt) == pt
    copies = [copy.copy(pt), copy.deepcopy(pt)]
    copies += [
        pickle.loads(pickle.dumps(pt, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    for twin in copies:
        assert type(twin) is ChartPoint and twin == pt


def test_chart_point_validation():
    # exactly 2n+1 values, n >= 1, none dropped
    for values in ([], [1.0], [1.0, 2.0], [1.0, 2.0, 3.0, 4.0]):
        with pytest.raises(ValueError) as err:
            ChartPoint(values)
        assert str(err.value) == f"a state needs 2n+1 entries, got {len(values)}"
    # text and mappings iterate, but not over a state's entries
    for values in (["a", 1.0, 0.0], [None, 1.0, 0.0], 5.0, "123", b"123",
                   {"q": 1.0, "p_q": 2.0, "s": 3.0}):
        with pytest.raises(ValueError) as err:
            ChartPoint(values)
        assert str(err.value) == "a state must be a sequence of reals"
    vec = ChartPoint([1, 2, 3, 4, 5])
    assert vec.n == 2
    assert vec == (1.0, 2.0, 3.0, 4.0, 5.0)
    assert max(map(abs, vec)) == 5.0


def _constant_field(sys, values):
    """The field with the given constant components, in chart order."""
    return VectorField.from_mapping(sys, "v", dict(zip(sys.chart_names, values)))


def test_contact_form_and_interior_product(base_point):
    v = _constant_field(FREE, (1.0, 1.0, -0.5, -10.3, 1.0))
    # for H = 0, r_eta is eta(v) = ds - sum p_i dq^i with p = (1, 1)
    r_eta, w = hamilton_equation_residuals(FREE, base_point, v)
    assert r_eta == -1.0
    assert w == (0.5, 10.3, 1.0, 1.0, 0.0)


def test_reeb_field_is_normalized(base_point):
    # the Reeb field d/ds is the Hamiltonian field of H = -1
    r = ContactSystem(("x", "y"), "-1").flow(base_point)
    assert r == (0.0, 0.0, 0.0, 0.0, 1.0)
    r_eta, w = hamilton_equation_residuals(FREE, base_point, _constant_field(FREE, r))
    assert r_eta == 1.0  # eta(R) = 1
    assert max(map(abs, w)) == 0.0


def test_system_construction(gravity):
    assert gravity.coordinates == ("x", "y")
    assert gravity.momenta == ("p_x", "p_y")
    assert gravity.chart_names == ("x", "y", "p_x", "p_y", "s")
    assert gravity.n == 2 and gravity.dim == 5
    assert gravity.parameters == {"m": 1.0, "g": 9.8, "gamma": 0.5}


@pytest.mark.parametrize(
    "coordinates, hamiltonian, parameters",
    [
        ((), "0", None),                        # no coordinates
        (("s",), "p_s", None),                  # action name reused
        (("x", "p_x"), "x", None),              # momentum collision
        (("sin",), "p_sin", None),              # function shadowed
        (("x",), "p_x", {"s": 1.0}),            # parameter named s
        (("x",), "p_x", {"p_x": 1.0}),          # parameter shadows chart
        (("x",), "p_x", {"k": float("inf")}),   # non-finite parameter
        (("2x",), "0", None),                   # invalid identifier
    ],
)
def test_system_rejects_bad_input(coordinates, hamiltonian, parameters):
    with pytest.raises(ValueError):
        ContactSystem(coordinates, hamiltonian, parameters)


def test_system_reports_undeclared_hamiltonian_names():
    from contactmech import UnknownNameError

    with pytest.raises(UnknownNameError):
        ContactSystem(("x",), "p_x + foo")


def test_system_accepts_parsed_hamiltonian():
    expr = parse("p_q^2/(2*m)", ("p_q", "m"))
    sys = ContactSystem(("q",), expr, {"m": 2.0})
    assert sys.hamiltonian_value((0.0, 2.0, 0.0)) == 1.0


def test_system_rejects_expression_with_stray_names():
    expr = parse("p_q + foo", ("p_q", "foo"))
    with pytest.raises(ValueError, match="hamiltonian references undeclared"):
        ContactSystem(("q",), expr)


def test_system_accepts_a_numeric_hamiltonian():
    sys = ContactSystem(("q",), 2)
    assert sys.flow((1.0, 2.0, 3.0)) == (0.0, 0.0, -2.0)


def test_bindings_include_parameters(gravity, base_point):
    env = gravity.bindings(base_point)
    assert env["p_x"] == 1.0 and env["gamma"] == 0.5 and env["s"] == 0.0
    assert gravity.hamiltonian_value(base_point) == 1.0


def test_point_dimension_checks(gravity):
    with pytest.raises(ValueError):
        gravity.point((0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        gravity.hamiltonian_value(ChartPoint((0.0, 1.0, 0.0)))
    free = ContactSystem(("q",), "p_q^2/2 + s")
    for text in ("123", b"123", {"q": 1.0, "p_q": 2.0, "s": 3.0}):
        with pytest.raises(ValueError, match="a state must be a sequence of reals"):
            free.hamiltonian_value(text)


def test_partial_of_hamiltonian(gravity, base_point):
    assert gravity.d_hamiltonian("s", base_point) == 0.5
    assert gravity.d_hamiltonian("y", base_point) == 9.8
    with pytest.raises(ValueError):
        gravity.d_hamiltonian("m", base_point)  # parameters are not directions


def test_hamiltonian_field_at_base_state(gravity, base_point):
    v = gravity.flow(base_point)
    assert v == (1.0, 1.0, -0.5, -10.3, 1.0)
    # eta(X_H) = -H: r_eta, which is eta(X_H) + H, is 0
    h = gravity.hamiltonian_value(base_point)
    assert h == 1.0
    field = _constant_field(gravity, v)
    r_eta, _ = hamilton_equation_residuals(gravity, base_point, field)
    assert r_eta == 0.0


def test_hamiltonian_field_for_pure_action_hamiltonian():
    sys = ContactSystem(("q",), "s")
    assert sys.flow((0.0, 1.0, 2.0)) == (0.0, -1.0, -2.0)


def test_hamiltonian_field_vanishes_for_zero_hamiltonian():
    sys = ContactSystem(("q",), "0")
    assert max(map(abs, sys.flow((3.0, 4.0, 5.0)))) == 0.0


def test_residuals_vanish_at_base_state(gravity, base_point):
    r_eta, cov = hamilton_equation_residuals(gravity, base_point)
    assert r_eta == 0.0
    assert max(map(abs, cov)) == 0.0
    assert cov[-1] == 0.0


@pytest.mark.parametrize("name", MODELS)
def test_residuals_vanish_on_random_states(name):
    sys = builtin(name)
    worst = 0.0
    for point in sample_states(sys, count=100, seed=42).tolist():
        r_eta, cov = hamilton_equation_residuals(sys, point)
        worst = max(worst, abs(r_eta), *map(abs, cov))
    assert worst <= 1e-12


def test_residuals_flag_a_corrupted_field(gravity, base_point):
    v = gravity.flow(base_point)
    bad = _constant_field(gravity, (v[0] + 1.0,) + v[1:])
    r_eta, cov = hamilton_equation_residuals(gravity, base_point, field=bad)
    assert cov[2] == 1.0  # the dp_x slot
    assert cov[3] == 0.0  # the dp_y slot
    # eta(bad) - eta(X_H) = -p_x * 1
    assert r_eta == -1.0


@pytest.mark.parametrize(
    "name, expected",
    [
        (
            "gravity_friction",
            (0.0, 0.0, -8.881784197001252e-16, 0.0, 0.0, 0.0, 1.352933694190108, 0.0),
        ),
        ("damped_oscillator", (0.0, 0.0, 0.0, 0.0, 1.8390461370876359, 0.0)),
    ],
)
def test_residual_values_are_pinned(name, expected):
    # r_eta, the r_deta slots, then eta([lift of F, X_H]) for F = q^1 and
    # F = H, at the first seed-7 sample; -8.9e-16 is rounding in dq^2
    sys = builtin(name)
    point = sample_states(sys, 1, seed=7)[0].tolist()
    r_eta, r_deta = hamilton_equation_residuals(sys, point)
    names = sys.chart_names
    lifts = [
        reeb_lift(sys, ScalarField("q", parse(sys.coordinates[0], names))),
        reeb_lift(sys, ScalarField("H", sys.hamiltonian)),
    ]
    got = (r_eta, *r_deta, *(characterization_residual(sys, y, point) for y in lifts))
    assert _bits(got) == _bits(expected)


def test_dissipation_rate_identity(gravity, gravity_points):
    # d/dt H along the flow equals -(dH/ds) H.
    worst = 0.0
    for point in gravity_points:
        flow = gravity.flow(point)
        rate = sum(
            flow[k] * gravity.d_hamiltonian(var, point)
            for k, var in enumerate(gravity.chart_names)
        )
        expected = -gravity.d_hamiltonian("s", point) * gravity.hamiltonian_value(
            point
        )
        worst = max(worst, abs(rate - expected))
    assert worst <= 1e-10


def test_repr_mentions_the_hamiltonian(gravity):
    text = repr(gravity)
    assert "gamma * s" in text and "coordinates=('x', 'y')" in text


def test_dimension_mismatch_in_form_helpers(base_point):
    narrow = _constant_field(ContactSystem(("q",), "0"), (1.0, 1.0, 0.0))
    with pytest.raises(ValueError, match="has n=1, system expects n=2"):
        hamilton_equation_residuals(FREE, base_point, narrow)
    with pytest.raises(ValueError, match="has n=1, system expects n=2"):
        characterization_residual(FREE, narrow, base_point)
    states = sample_states(FREE, 3, seed=1)
    with pytest.raises(ValueError) as err:
        check_contact_symmetry_map(FREE, PointMap("Phi", narrow.components), states)
    assert str(err.value) == "'Phi' has n=1, system expects n=2"
    with pytest.raises(ValueError, match="state has dimension n=1"):
        hamilton_equation_residuals(FREE, (0.0, 1.0, 0.0))


# ---------------------------------------------------------------------------
# The compiled kernel against the per-component path
# ---------------------------------------------------------------------------

def _kernel_systems():
    systems = {name: builtin(name) for name in MODELS}
    systems["chain"] = ContactSystem(
        [f"q{i}" for i in range(1, 7)],
        CHAIN_H,
        {"m": 1.3, "k": 2.1, "gamma": 0.4},
    )
    systems["functions"] = ContactSystem(
        ("q",), FUNCTIONS_H, {"m": 1.3, "c": -0.75, "n": 1.5, "gamma": 0.4}
    )
    return systems


def _env(sys, flat):
    env = dict(sys.parameters)
    env.update(zip(sys.chart_names, flat))
    return env


def _per_component(sys, flat):
    env = _env(sys, flat)
    return tuple(c._run(env) for c in sys._field)


def _bits(values):
    # float.hex tells -0.0 from 0.0 and compares nan equal to nan
    return tuple(float(v).hex() for v in values)


def _states(sys, count, seed):
    rng = random.Random(seed)
    return [
        tuple(rng.uniform(-2.0, 2.0) for _ in range(sys.dim))
        for _ in range(count)
    ]


@pytest.mark.parametrize("name", list(_kernel_systems()))
def test_kernel_matches_the_per_component_path(name):
    sys = _kernel_systems()[name]
    for flat in _states(sys, 200, seed=11):
        expected = _per_component(sys, flat)
        assert _bits(sys.flow(flat)) == _bits(expected)
        env = _env(sys, flat)
        assert _bits(expected) == _bits(walk(c, env) for c in sys._field)
        assert _bits([sys.hamiltonian_value(flat)]) == _bits(
            [sys.hamiltonian._run(env)]
        )


def _probes(sys):
    """(label, per-state call, the trees its values come from) for each
    per-state function that evaluates through `ContactSystem._at`.  The
    field and scalar are built anew on every call of this helper."""
    q, p = sys.coordinates[0], sys.momenta[0]
    mix = VectorField.from_mapping(
        sys, "mix", {q: f"{p}*{q}", p: f"sin({q})", "s": f"{p}^2 + s"}
    )
    xh = hamiltonian_field(sys)
    energy = ScalarField("H", sys.hamiltonian)
    h = sys.hamiltonian
    names = sys.chart_names
    return [
        ("hamiltonian_value", sys.hamiltonian_value, (h,)),
        *[
            (f"d_hamiltonian {v}", functools.partial(sys.d_hamiltonian, v),
             (h.derivative(v),))
            for v in names
        ],
        ("field components", lambda pt: sys._at(pt, _given, mix.components),
         mix.components),
        ("vf_jacobian", lambda pt: vf_jacobian(sys, mix, pt).ravel().tolist(),
         tuple(c.derivative(v) for c in mix.components for v in names)),
        ("ScalarField.value", lambda pt: energy.value(sys, pt), (h,)),
        ("lie_bracket", lambda pt: lie_bracket(sys, mix, xh, pt),
         _bracket_trees(sys, mix.components, xh.components)),
        ("lie_derivative_scalar",
         lambda pt: lie_derivative_scalar(sys, mix, energy, pt),
         _rate_trees(sys, mix.components, (h,))),
        ("lie_derivative_contact_form",
         lambda pt: lie_derivative_contact_form(sys, mix, pt),
         _lie_eta_trees(sys, mix.components)),
        ("hamilton_equation_residuals",
         lambda pt: _joined(hamilton_equation_residuals(sys, pt)),
         _hamilton_trees(sys, xh.components)),
        ("hamilton_equation_residuals of a field",
         lambda pt: _joined(hamilton_equation_residuals(sys, pt, mix)),
         _hamilton_trees(sys, mix.components)),
        ("characterization_residual",
         lambda pt: characterization_residual(sys, mix, pt),
         (_characterization_trees(sys, mix.components),)),
    ]


def _joined(residuals):
    r_eta, r_deta = residuals
    return (r_eta, *r_deta)


def _as_list(values):
    return list(values) if isinstance(values, (tuple, list)) else [values]


@pytest.mark.parametrize("name", list(_kernel_systems()))
def test_per_state_functions_match_a_tree_walk(name):
    sys = _kernel_systems()[name]
    for flat in _states(sys, 50, seed=23):
        env = _env(sys, flat)
        # a state is any row: a tuple, a list, a numpy row or a ChartPoint
        rows = (flat, list(flat), np.array(flat), ChartPoint(flat))
        for label, call, trees in _probes(sys):
            expected = [walk(tree, env) for tree in trees]
            for row in rows:
                assert _bits(_as_list(call(row))) == _bits(expected), label


def _no_compile(*args):
    raise AssertionError("compiled again at a new state")


def _sampled_checks(sys):
    """Each sampled check on a field, a quantity and a map built anew on
    every call of this helper, as a function of the state array."""
    q, p = sys.coordinates[0], sys.momenta[0]
    mix = VectorField.from_mapping(sys, "mix", {q: f"{p}*{q}", "s": f"{p}^2 + s"})
    energy = ScalarField("H", sys.hamiltonian)
    moved = PointMap.from_mapping(sys, "moved", {q: f"{q} + 0.5", "s": f"s + {q}"})
    return [
        lambda states: classify_symmetry(sys, mix, states),
        lambda states: check_quantity(sys, energy, states),
        lambda states: check_contact_symmetry_map(sys, moved, states),
    ]


@pytest.mark.parametrize("name", list(_kernel_systems()))
def test_second_call_at_a_new_state_compiles_nothing(name, monkeypatch):
    sys = _kernel_systems()[name]
    first, second = _states(sys, 2, seed=5)
    for _, call, _ in _probes(sys):
        call(first)
    for check in _sampled_checks(sys):
        check(sample_states(sys, 4, seed=5))
    kept = len(sys._kernels)
    monkeypatch.setattr(ex, "_compile_kernel", _no_compile)
    # the probes rebuild their field and scalar, so each call finds
    # its kernel by comparing trees structurally
    for _, call, _ in _probes(sys):
        call(second)
    # ... and so do the sampled checks, on another state array
    for check in _sampled_checks(sys):
        check(sample_states(sys, 6, seed=6))
    assert len(sys._kernels) == kept


def _raised(fn, *args):
    with pytest.raises(DomainError) as err:
        fn(*args)
    return str(err.value)


_DIVISION = "division by zero: float division by zero"


# the messages are those of evaluating each component through its own
# tree, which the kernel must reproduce: the first failing operation wins
@pytest.mark.parametrize(
    "hamiltonian, parameters, flat, message",
    [
        ("p_q^2/2 + log(q) + gamma*s", {}, (-1.0, 1.0, 0.0), "math domain error"),
        ("p_q^2/2 + log(q) + gamma*s", {}, (0.0, 1.0, 0.0), _DIVISION),
        ("p_q^2/2 + sqrt(q) + gamma*s", {}, (-1.0, 1.0, 0.0), "math domain error"),
        (
            "p_q^2/2 + q^n + gamma*s",
            {"n": 0.5},
            (-1.0, 1.0, 0.0),
            "negative base -1.0 with fractional exponent -0.5",
        ),
        ("p_q^2/2 + 1/q + gamma*s", {}, (0.0, 1.0, 0.0), _DIVISION),
        (
            "p_q^2/2 + exp(q) + gamma*s",
            {},
            (1000.0, 1.0, 0.0),
            "overflow: math range error",
        ),
    ],
)
def test_kernel_raises_the_per_component_error(
    hamiltonian, parameters, flat, message
):
    sys = ContactSystem(("q",), hamiltonian, {"gamma": 0.5, **parameters})
    assert _raised(sys.flow, flat) == _raised(_per_component, sys, flat) == message
    try:
        expected = sys.hamiltonian._run(_env(sys, flat))
    except DomainError as exc:
        assert _raised(sys.hamiltonian_value, flat) == str(exc)
    else:
        assert _bits([sys.hamiltonian_value(flat)]) == _bits([expected])


def test_parameter_only_division_by_zero_raises_at_call_time():
    sys = ContactSystem(("q",), "p_q^2/2 + q*(1/(m - m)) + gamma*s",
                        {"m": 2.0, "gamma": 0.5})
    flat = (1.0, 1.0, 0.0)
    first = _raised(sys.flow, flat)
    assert sys._flow_fn is not None  # compiled, then failed in the call
    assert first == _raised(sys.flow, flat) == _raised(_per_component, sys, flat)
    assert first == _DIVISION


def test_overflowing_parameter_subtree_stays_infinite():
    sys = ContactSystem(("q",), "p_q^2/2 + a*10*q + gamma*s",
                        {"a": 1e308, "gamma": 0.5})
    flat = (1.0, 1.0, 0.0)
    out = sys.flow(flat)
    assert out[1:] == (-math.inf, -math.inf)
    assert _bits(out) == _bits(_per_component(sys, flat))
    assert sys.hamiltonian_value(flat) == math.inf


def test_kernel_survives_names_that_look_like_its_own():
    coordinates = ("lambda", "v0", "_y", "_b")
    parameters = {"def": 1.5, "t0": -0.5, "_pw": 2.0, "gamma": 0.3}
    hamiltonian = (
        "(p_lambda^2 + p_v0^2)/(2*def) + p__y^2/2 + p__b^2/2"
        " + t0*lambda*v0 + _pw*(_y - lambda)^2 + exp(t0*_b) + gamma*s"
    )
    sys = ContactSystem(coordinates, hamiltonian, parameters)
    for flat in _states(sys, 50, seed=3):
        assert _bits(sys.flow(flat)) == _bits(_per_component(sys, flat))
        assert sys.hamiltonian_value(flat) == (
            sys.hamiltonian._run(_env(sys, flat))
        )


def test_kernel_keeps_signed_zeros_apart():
    # 0.0 == -0.0, so shared subtrees must not be found by float equality
    fn = ex._compile_kernel(
        (ex.literal(0.0), ex.neg(ex.literal(0.0)), ex.variable("x")), ("x",), {}
    )
    assert _bits(fn(1.0)) == _bits((0.0, -0.0, 1.0))


def test_kernel_cache_keeps_signed_zero_trees_apart():
    # the cache keys trees by equality, and 0.0 == -0.0: a tree must not
    # find the kernel of the tree with the other zero
    sys = ContactSystem(["q"], "p_q^2/2 + gamma*s", {"gamma": 0.5})
    point = (-0.0, 1.0, 0.0)
    zero = ScalarField("a", ex.literal(0.0))
    negative_zero = ScalarField("b", ex.literal(-0.0))
    assert _bits([zero.value(sys, point)]) == _bits([0.0])
    assert _bits([negative_zero.value(sys, point)]) == _bits([-0.0])
    assert _bits([negative_zero.expression.evaluate({})]) == _bits([-0.0])
    # at q = -0.0, q + 0.0 is 0.0 but q + -0.0 is -0.0
    q = ex.Var("q")
    plus_zero = ex.Bin("+", q, ex.Num(0.0))
    plus_negative_zero = ex.Bin("+", q, ex.Num(-0.0))
    assert _bits([ScalarField("c", plus_zero).value(sys, point)]) == _bits([0.0])
    assert _bits([ScalarField("d", plus_negative_zero).value(sys, point)]) == (
        _bits([-0.0])
    )
