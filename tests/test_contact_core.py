"""Chart containers, the contact form, and the evolution equations."""

import functools
import math
import random

import pytest

from helpers import CHAIN_H, FUNCTIONS_H, chart_points, walk
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
    pt = ChartPoint(q=(1.0, 2.0), p=(3.0, 4.0), s=5.0)
    assert pt.n == 2
    assert pt.flat() == (1.0, 2.0, 3.0, 4.0, 5.0)
    assert ChartPoint.from_flat([1, 2, 3, 4, 5]) == pt


def test_chart_point_validation():
    with pytest.raises(ValueError, match="q has dimension 1 but p has 2"):
        ChartPoint((1.0,), (1.0, 2.0), 0.0)
    with pytest.raises(ValueError, match="at least 1"):
        ChartPoint((), (), 1.0)
    with pytest.raises(ValueError, match="q must be a sequence of reals"):
        ChartPoint(("a",), (1.0,), 0.0)
    # from_flat takes exactly 2n+1 values, n >= 1, and drops none
    for values in ([], [1.0], [1.0, 2.0], [1.0, 2.0, 3.0, 4.0]):
        with pytest.raises(ValueError, match="2n\\+1"):
            ChartPoint.from_flat(values)
    vec = ChartPoint.from_flat([1, 2, 3, 4, 5])
    assert vec.n == 2
    assert vec.flat() == (1.0, 2.0, 3.0, 4.0, 5.0)
    assert max(map(abs, vec.flat())) == 5.0


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
    r = ContactSystem(("x", "y"), "-1").flow(base_point.flat())
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
    assert sys.hamiltonian_value(ChartPoint((0.0,), (2.0,), 0.0)) == 1.0


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
        gravity.hamiltonian_value(ChartPoint((0.0,), (1.0,), 0.0))


def test_partial_of_hamiltonian(gravity, base_point):
    assert gravity.d_hamiltonian("s", base_point) == 0.5
    assert gravity.d_hamiltonian("y", base_point) == 9.8
    with pytest.raises(ValueError):
        gravity.d_hamiltonian("m", base_point)  # parameters are not directions


def test_hamiltonian_field_at_base_state(gravity, base_point):
    v = gravity.flow(base_point.flat())
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
    for point in chart_points(sys, sample_states(sys, count=100, seed=42)):
        r_eta, cov = hamilton_equation_residuals(sys, point)
        worst = max(worst, abs(r_eta), *map(abs, cov))
    assert worst <= 1e-12


def test_residuals_flag_a_corrupted_field(gravity, base_point):
    v = gravity.flow(base_point.flat())
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
    point = ChartPoint.from_flat(sample_states(sys, 1, seed=7)[0].tolist())
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
        flow = gravity.flow(point.flat())
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
    with pytest.raises(ValueError, match="state has dimension n=1"):
        hamilton_equation_residuals(FREE, ChartPoint((0.0,), (1.0,), 0.0))


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
        point = ChartPoint.from_flat(flat)
        assert _bits([sys.hamiltonian_value(point)]) == _bits(
            [sys.hamiltonian._run(env)]
        )


def _probes(sys):
    """(label, per-state call, the trees its values come from) for each
    per-state function that evaluates through `ContactSystem._at`.  The
    field, scalar and map are built anew on every call of this helper."""
    q, p = sys.coordinates[0], sys.momenta[0]
    mix = VectorField.from_mapping(
        sys, "mix", {q: f"{p}*{q}", p: f"sin({q})", "s": f"{p}^2 + s"}
    )
    xh = hamiltonian_field(sys)
    energy = ScalarField("H", sys.hamiltonian)
    moved = PointMap.from_mapping(
        sys, "moved", {q: f"{q} + 0.5", p: f"2*{p}", "s": f"s + {q}"}
    )
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
        ("PointMap.apply", lambda pt: moved.apply(sys, pt).flat(), moved.components),
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
        point = ChartPoint.from_flat(flat)
        env = _env(sys, flat)
        for label, call, trees in _probes(sys):
            expected = [walk(tree, env) for tree in trees]
            assert _bits(_as_list(call(point))) == _bits(expected), label


def _no_compile(*args):
    raise AssertionError("compiled again at a new state")


@pytest.mark.parametrize("name", list(_kernel_systems()))
def test_second_call_at_a_new_state_compiles_nothing(name, monkeypatch):
    sys = _kernel_systems()[name]
    first, second = (ChartPoint.from_flat(f) for f in _states(sys, 2, seed=5))
    for _, call, _ in _probes(sys):
        call(first)
    monkeypatch.setattr(ex, "_compile_kernel", _no_compile)
    # the probes rebuild their field, scalar and map, so each call finds
    # its kernel by comparing trees structurally
    for _, call, _ in _probes(sys):
        call(second)


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
    point = ChartPoint.from_flat(flat)
    try:
        expected = sys.hamiltonian._run(_env(sys, flat))
    except DomainError as exc:
        assert _raised(sys.hamiltonian_value, point) == str(exc)
    else:
        assert _bits([sys.hamiltonian_value(point)]) == _bits([expected])


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
    assert sys.hamiltonian_value(ChartPoint.from_flat(flat)) == math.inf


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
        assert sys.hamiltonian_value(ChartPoint.from_flat(flat)) == (
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
    point = ChartPoint((-0.0,), (1.0,), 0.0)
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
