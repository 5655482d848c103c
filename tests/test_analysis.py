"""Symmetry classification, dissipated quantities, and map checks."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import contactmech.expr
from helpers import CHAIN_H
from contactmech import (
    ChartPoint,
    ContactSystem,
    MissingBindingError,
    PointMap,
    ScalarField,
    VectorField,
    builtin,
    characterization_residual,
    check_contact_symmetry_map,
    check_quantity,
    classify_symmetry,
    conserved_from_symmetry,
    hamiltonian_field,
    integrate_fixed,
    lie_bracket,
    lie_derivative_contact_form,
    lie_derivative_scalar,
    noether_quantity,
    parse,
    quotient_quantity,
    reeb_lift,
    sample_states,
)
from contactmech._pcg64 import uniform
from contactmech.calculus import _dissipation_trees, _map_deviation_trees
from contactmech.expr import literal, mul, substitute
from contactmech.integrate import Trajectory


@pytest.fixture(scope="module")
def coarse_traj(gravity, base_point):
    return integrate_fixed(gravity, base_point, 0.0, 10.0, 1e-2)


@pytest.fixture()
def dx(gravity):
    return VectorField.from_mapping(gravity, "d/dx", {"x": "1"})


@pytest.fixture()
def ds(gravity):
    return VectorField.from_mapping(gravity, "d/ds", {"s": "1"})


def momentum_x(gravity):
    return ScalarField("p_x", parse("p_x", gravity.chart_names))


# ---------------------------------------------------------------------------
# State sampling
# ---------------------------------------------------------------------------

def test_sampling_is_deterministic(gravity):
    first = sample_states(gravity, count=10, seed=4)
    second = sample_states(gravity, count=10, seed=4)
    assert first.tolist() == second.tolist()
    assert first.tolist() != sample_states(gravity, count=10, seed=5).tolist()


def test_sampling_respects_the_box(gravity_states):
    for row in gravity_states.tolist():
        assert all(abs(v) <= 2.0 for v in row)


def test_sampling_rejects_empty_request(gravity):
    with pytest.raises(ValueError):
        sample_states(gravity, count=0)


@pytest.mark.parametrize(
    "seed, first, last, digest",
    [
        (
            42,
            (1.0958241942238534, -0.24448624099179073, 1.4343916796455298,
             0.7894721162374556, -1.6232906084494019),
            0.05095697842703295,
            "ffb407128eac8a7b60ab36c34a3eab6f3dd0869698903690c4e4852f34ef3f1b",
        ),
        (
            7,
            (0.5003818664186679, 1.588855203878302, 1.102742760980774,
             -1.0991712400376326, -0.7993348603550983),
            -1.207915672962172,
            "06bced0643c65607c3c90b1c4dcc156f21c976217c2199998d3254991384211c",
        ),
    ],
)
def test_sampling_returns_the_drawn_rows(gravity, seed, first, last, digest):
    # the values of the ChartPoint rows sample_states used to return
    states = sample_states(gravity, count=100, seed=seed)
    assert type(states) is np.ndarray
    assert states.dtype == np.float64 and states.shape == (100, 5)
    assert tuple(states[0].tolist()) == first and states[-1, -1] == last
    assert hashlib.sha256(states.tobytes()).hexdigest() == digest


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**130),
    shape=st.tuples(st.integers(1, 120), st.integers(1, 15)),
)
@example(seed=0, shape=(1, 1))
@example(seed=2**32 - 1, shape=(7, 3))
@example(seed=2**32, shape=(100, 5))
@example(seed=2**64, shape=(100, 13))
@example(seed=2**64 + 3, shape=(120, 15))
@example(seed=2**130, shape=(3, 2))  # a fifth word, mixed in after the pool
def test_the_draw_is_numpys_stream_bit_for_bit(seed, shape):
    expected = np.random.default_rng(seed).uniform(-2.0, 2.0, size=shape)
    drawn = uniform(seed, -2.0, 2.0, shape)
    assert drawn.dtype == np.float64 and drawn.shape == shape
    assert drawn.tobytes() == expected.tobytes()


def test_sampling_takes_numpy_integer_seeds(gravity):
    drawn = sample_states(gravity, count=3, seed=np.uint64(2**64 - 1))
    assert drawn.tolist() == sample_states(gravity, count=3, seed=2**64 - 1).tolist()


def test_sampling_rejects_seeds_as_numpy_does(gravity):
    for draw in (np.random.default_rng, lambda seed: sample_states(gravity, 1, seed)):
        with pytest.raises(ValueError, match="^expected non-negative integer$"):
            draw(-1)
        with pytest.raises(TypeError):
            draw(4.0)


def _state_forms(sys, count, seed):
    """The same rows as a fresh array, as a read-only `traj.states` and
    as a list of tuples."""
    states = sample_states(sys, count=count, seed=seed)
    traj = Trajectory(
        sys.chart_names, np.arange(count, dtype=float), states, "samples"
    )
    assert not traj.states.flags.writeable
    return states, traj.states, [tuple(row) for row in states.tolist()]


def test_sampled_checks_take_any_array_of_chart_rows(gravity, dx, ds):
    shift = PointMap.from_mapping(gravity, "x_shift", {"x": "x + p_x"})
    forms = _state_forms(gravity, 40, 3)
    for check in (
        lambda states: classify_symmetry(gravity, dx, states),
        lambda states: classify_symmetry(gravity, ds, states),
        lambda states: check_contact_symmetry_map(gravity, shift, states),
        lambda states: check_quantity(gravity, momentum_x(gravity), states),
    ):
        reports = [check(states) for states in forms]
        assert reports[0] == reports[1] == reports[2]


@pytest.mark.parametrize(
    "states",
    [np.zeros(5), np.zeros((0, 5)), np.zeros((4, 3)), np.zeros((4, 7))],
    ids=["1-d", "no-rows", "narrow", "wide"],
)
def test_sampled_checks_reject_a_state_array_of_the_wrong_shape(gravity, dx, states):
    identity = PointMap.from_mapping(gravity, "id", {})
    with pytest.raises(ValueError, match=r"\(N, 5\) array .* n=2"):
        classify_symmetry(gravity, dx, states)
    with pytest.raises(ValueError, match=r"\(N, 5\) array .* n=2"):
        check_contact_symmetry_map(gravity, identity, states)
    with pytest.raises(ValueError, match=r"\(N, 5\) array .* n=2"):
        check_quantity(gravity, momentum_x(gravity), states)


def test_sampled_checks_take_chart_points_as_rows(
    gravity, dx, gravity_states, coarse_traj
):
    # a state is its row, so a list of ChartPoints is a list of rows
    identity = PointMap.from_mapping(gravity, "id", {})
    points = [ChartPoint(row) for row in gravity_states.tolist()]
    for check in (
        lambda states: classify_symmetry(gravity, dx, states),
        lambda states: check_contact_symmetry_map(gravity, identity, states),
        lambda states: check_quantity(gravity, momentum_x(gravity), states),
    ):
        assert check(points) == check(gravity_states)
    with pytest.raises(TypeError):  # a trajectory, not its rows
        check_quantity(gravity, momentum_x(gravity), coarse_traj)


# ---------------------------------------------------------------------------
# Symmetry classification
# ---------------------------------------------------------------------------

def test_translation_is_a_contact_symmetry(gravity, dx, gravity_states):
    contact, dynamical = classify_symmetry(gravity, dx, gravity_states)
    assert contact.passed and contact.max_residual == 0.0
    assert dynamical.passed and dynamical.max_residual == 0.0
    assert contact.kind == "contact-symmetry"
    assert dynamical.kind == "dynamical-symmetry"


def test_action_translation_is_no_symmetry_here(gravity, ds, gravity_states):
    # d/ds preserves eta but not H: [d/ds, X_H] has a -gamma ds component.
    contact, dynamical = classify_symmetry(gravity, ds, gravity_states)
    assert not contact.passed
    assert not dynamical.passed
    assert contact.max_residual == 0.5
    assert dynamical.max_residual == 0.5


def test_action_translation_passes_at_a_loose_tolerance(gravity, ds, gravity_states):
    contact, dynamical = classify_symmetry(gravity, ds, gravity_states, tol=1.0)
    assert contact.passed and dynamical.passed


@pytest.mark.parametrize(
    "tol, message",
    [
        (math.inf, "tol must be finite, got inf"),
        (0.0, "tol must be positive, got 0.0"),
        (-1.0, "tol must be positive, got -1.0"),
        (math.nan, "tol must be positive, got nan"),
    ],
    ids=["inf", "zero", "negative", "nan"],
)
@pytest.mark.parametrize("check", ["symmetry", "quantity", "map"])
def test_every_check_requires_a_finite_positive_tolerance(
    gravity, dx, gravity_states, coarse_traj, check, tol, message
):
    # tol = -1 would fail every report and tol = nan leave a quantity
    # "inconclusive"; tol = inf would pass them all
    run = {
        "symmetry": lambda: classify_symmetry(gravity, dx, gravity_states, tol),
        "quantity": lambda: check_quantity(
            gravity, momentum_x(gravity), coarse_traj.states, tol
        ),
        "map": lambda: check_contact_symmetry_map(
            gravity, PointMap.from_mapping(gravity, "id", {}), gravity_states, tol
        ),
    }[check]
    with pytest.raises(ValueError) as err:
        run()
    assert str(err.value) == message


def test_an_all_failed_report_has_null_statistics_in_its_dict(gravity, coarse_traj):
    ratio = quotient_quantity(momentum_x(gravity), ScalarField("0", literal(0.0)))
    data = check_quantity(gravity, ratio, coarse_traj.states).as_dict()
    for kind in ("conserved", "dissipated"):
        assert data[kind]["samples"] == 0
        assert data[kind]["max_residual"] is None
        assert data[kind]["mean_residual"] is None
        assert data[kind]["verdict"] == "fail"


def test_parameter_exponent_drops_no_bracket_samples():
    # The exponent n is a parameter, so d(q^n)/dq = n*q^(n-1) needs no
    # log(q) and every sample with q < 0 must still evaluate.
    sys = ContactSystem(
        ("q",), "p_q^2/2 + q^n + gamma*s", {"n": 2.0, "gamma": 0.5}
    )
    field = VectorField.from_mapping(sys, "d/ds", {"s": "1"})
    samples = sample_states(sys, count=50, seed=3)
    _, dynamical = classify_symmetry(sys, field, samples)
    assert dynamical.failed_samples == 0
    assert dynamical.samples == 50


def test_failed_samples_are_counted_per_check():
    # H = sqrt(q^2) is defined everywhere, but dH/dq = 2q/(2 sqrt(q^2))
    # fails at q = 0 (24 of the 50 samples here), and neither field's
    # contact residual needs it.
    sys = ContactSystem(("q",), "p_q^2/2 + sqrt(q^2) + gamma*s", {"gamma": 0.5})
    rows = sample_states(sys, count=50, seed=42).tolist()
    samples = [(max(q, 0.0), p, s) for q, p, s in rows]
    for components, dynamical_counts in [
        # [d/dp_q, X_H] = dX_H/dp_q never reaches dH/dq
        ({"p_q": "1"}, (50, 0)),
        # [Y, X_H]^s has -X_H^{p_q} d(p_q)/dp_q, and X_H^{p_q} has dH/dq
        ({"s": "p_q"}, (26, 24)),
    ]:
        field = VectorField.from_mapping(sys, "candidate", components)
        contact, dynamical = classify_symmetry(sys, field, samples, tol=1e300)
        assert (contact.samples, contact.failed_samples) == (50, 0)
        assert (dynamical.samples, dynamical.failed_samples) == dynamical_counts


def test_a_sample_where_h_is_undefined_fails_in_both_reports():
    # no residual of d/dx reaches sqrt(y), but H itself is undefined at
    # the samples with y < 0
    sys = ContactSystem(
        ("x", "y"), "p_x^2/2 + p_y^2/2 + sqrt(y) + gamma*s", {"gamma": 0.5}
    )
    field = VectorField.from_mapping(sys, "d/dx", {"x": "1"})
    samples = sample_states(sys, count=50, seed=1)
    undefined = sum(y < 0.0 for y in samples[:, 1].tolist())
    assert undefined == 28
    for report in classify_symmetry(sys, field, samples):
        assert (report.samples, report.failed_samples) == (50 - undefined, undefined)
        assert report.passed and report.max_residual == 0.0


def test_classification_returns_a_contact_pass_with_a_bracket_failure():
    # the 5e-12*sin(1000 q) ripple gives L_Y H = 5e-9 cos(1000 q), inside
    # tol, while its second derivative puts 5e-6 sin(1000 q) in [Y, X_H]:
    # exact arithmetic rules this pair out, and both reports come back
    sys = ContactSystem(
        ("q",), "p_q^2/2 + gamma*s + 5e-12*sin(1000*q)", {"gamma": 0.5}
    )
    field = VectorField.from_mapping(sys, "q_shift", {"q": "1"})
    contact, dynamical = classify_symmetry(sys, field, sample_states(sys))
    assert contact.passed and not dynamical.passed
    assert 4.9e-9 < contact.max_residual <= 5e-9
    assert 4.9e-6 < dynamical.max_residual <= 5e-6


def _no_kernel(*args):
    raise AssertionError("a kernel was compiled before the inputs were checked")


def test_classification_checks_dimensions_before_sampling(
    gravity, dx, gravity_states, monkeypatch
):
    monkeypatch.setattr(contactmech.expr, "_compile_kernel", _no_kernel)
    one_d = builtin("damped_free_particle")
    narrow = VectorField.from_mapping(one_d, "d/dq", {"q": "1"})
    with pytest.raises(ValueError, match="n=1"):
        classify_symmetry(gravity, narrow, gravity_states)
    stray = gravity_states[:4, :3]  # rows of an n=1 chart
    with pytest.raises(ValueError, match=r"n=2, got shape \(4, 3\)"):
        classify_symmetry(gravity, dx, stray)
    shift = PointMap.from_mapping(gravity, "x_shift", {"x": "x + 1"})
    with pytest.raises(ValueError, match=r"n=2, got shape \(4, 3\)"):
        check_contact_symmetry_map(gravity, shift, stray)
    ragged = [(0.0, 1.0, 0.0), (1.0, 2.0)]
    with pytest.raises(ValueError, match=r"\(N, 3\) array .* n=1, got ragged"):
        classify_symmetry(one_d, narrow, ragged)


def test_unbound_field_name_is_reported(gravity, gravity_states, coarse_traj):
    # H does not depend on x, so the field and map trees fold zeta away
    zero = literal(0.0)
    zeta = parse("zeta", ("zeta",))
    stray = VectorField("stray", (zeta,) + (zero,) * 4)
    with pytest.raises(MissingBindingError, match="zeta"):
        classify_symmetry(gravity, stray, gravity_states)
    moved = PointMap("stray", (zeta,) + stray.components[1:])
    with pytest.raises(MissingBindingError, match="zeta"):
        check_contact_symmetry_map(gravity, moved, gravity_states)
    with pytest.raises(MissingBindingError, match="zeta"):
        check_quantity(gravity, ScalarField("zeta", zeta), coarse_traj.states)


def test_evolution_field_is_dynamical_but_not_contact(gravity, gravity_states):
    contact, dynamical = classify_symmetry(
        gravity, hamiltonian_field(gravity), gravity_states
    )
    assert dynamical.passed and dynamical.max_residual == 0.0
    assert not contact.passed


def test_classification_needs_samples(gravity, dx):
    with pytest.raises(ValueError):
        classify_symmetry(gravity, dx, [])


# ---------------------------------------------------------------------------
# Generated quantities
# ---------------------------------------------------------------------------

def test_noether_quantity_of_translation(gravity, dx):
    assert str(noether_quantity(gravity, dx).expression) == "p_x"


def test_noether_quantity_of_reeb_is_constant(gravity, ds):
    assert str(noether_quantity(gravity, ds).expression) == "-1.0"


def test_noether_quantity_of_evolution_field_is_h(gravity, gravity_points):
    quantity = noether_quantity(gravity, hamiltonian_field(gravity))
    for point in gravity_points:
        expected = gravity.hamiltonian_value(point)
        assert abs(quantity.value(gravity, point) - expected) <= 1e-12


def test_momentum_dissipates(gravity, coarse_traj):
    report = check_quantity(gravity, momentum_x(gravity), coarse_traj.states)
    assert report.classification == "dissipated"
    assert report.dissipated.max_residual == 0.0
    assert not report.conserved.passed


def test_energy_dissipates(gravity, coarse_traj):
    ham = ScalarField("H", gravity.hamiltonian)
    report = check_quantity(gravity, ham, coarse_traj.states)
    assert report.classification == "dissipated"
    assert report.dissipated.max_residual <= 1e-8


def test_position_is_neither(gravity, coarse_traj):
    pos = ScalarField("x", parse("x", gravity.chart_names))
    report = check_quantity(gravity, pos, coarse_traj.states)
    assert report.classification == "neither"
    assert report.conserved.max_residual > 1e-2
    assert report.dissipated.max_residual > 1e-2


def test_zero_quantity_is_both(gravity, coarse_traj):
    report = check_quantity(gravity, ScalarField("0", literal(0.0)), coarse_traj.states)
    assert report.classification == "both"


def test_near_miss_is_inconclusive(gravity, coarse_traj):
    # Rates of order 1e-6 fall between the tolerance and the margin that
    # would justify calling the quantity "neither".
    tweaked = ScalarField("p_x+eps*x", parse("p_x + 1e-6*x", gravity.chart_names))
    report = check_quantity(gravity, tweaked, coarse_traj.states)
    assert report.classification == "inconclusive"


def test_quantity_report_dict_round_trip(gravity, coarse_traj):
    report = check_quantity(gravity, momentum_x(gravity), coarse_traj.states)
    data = report.as_dict()
    assert data["classification"] == "dissipated"
    assert data["conserved"]["samples"] == len(coarse_traj)
    assert data["dissipated"]["verdict"] == "pass"


def test_quotient_of_dissipated_is_conserved(gravity, coarse_traj):
    ham = ScalarField("H", gravity.hamiltonian)
    ratio = quotient_quantity(ham, momentum_x(gravity))
    assert ratio.name == "H/p_x"
    report = check_quantity(gravity, ratio, coarse_traj.states)
    assert report.classification == "conserved"
    assert report.conserved.max_residual <= 1e-8


def test_quotient_values_stay_constant(gravity, coarse_traj):
    ham = ScalarField("H", gravity.hamiltonian)
    ratio = quotient_quantity(ham, momentum_x(gravity))
    first = ratio.value(gravity, coarse_traj.point(0))
    for point in coarse_traj.states.tolist():
        assert abs(ratio.value(gravity, point) / first - 1.0) <= 1e-8


def test_quotient_by_zero_reports_failed_samples(gravity, coarse_traj):
    ratio = quotient_quantity(momentum_x(gravity), ScalarField("0", literal(0.0)))
    report = check_quantity(gravity, ratio, coarse_traj.states)
    assert report.conserved.failed_samples == len(coarse_traj)
    assert not report.conserved.passed
    assert not report.dissipated.passed


def test_nan_rate_fails_its_row_in_that_report(gravity, coarse_traj):
    # p_x = inf makes the dissipation residual -gamma*inf + gamma*inf = NaN,
    # while the conserved rate is a plain inf
    states = coarse_traj.states.copy()
    states[37, gravity.chart_names.index("p_x")] = math.inf
    report = check_quantity(gravity, momentum_x(gravity), states)
    dissipated = report.dissipated
    assert (dissipated.samples, dissipated.failed_samples) == (len(states) - 1, 1)
    assert math.isfinite(dissipated.mean_residual)
    conserved = report.conserved
    assert (conserved.samples, conserved.failed_samples) == (len(states), 0)
    assert conserved.max_residual == math.inf


def test_nan_after_the_first_component_fails_the_row(gravity, gravity_states):
    # H does not depend on x, so at y = inf the last deviation,
    # H(image) - H, is inf - inf while every eta component is finite
    shift = PointMap.from_mapping(gravity, "x_shift", {"x": "x + 1"})
    states = gravity_states.copy()
    states[5] = (0.5, math.inf, 1.0, -1.0, 0.0)
    report = check_contact_symmetry_map(gravity, shift, states)
    assert (report.samples, report.failed_samples) == (len(states) - 1, 1)
    assert report.passed and report.max_residual == 0.0


def test_product_with_a_conserved_factor_dissipates(gravity, coarse_traj):
    # F*G is dissipated when F is dissipated and G is conserved
    ham = ScalarField("H", gravity.hamiltonian)
    ratio = quotient_quantity(ham, momentum_x(gravity))
    product = ScalarField(
        "p_x*H/p_x", mul(momentum_x(gravity).expression, ratio.expression)
    )
    report = check_quantity(gravity, product, coarse_traj.states)
    assert report.classification == "dissipated"
    assert report.dissipated.max_residual <= 1e-8


def test_product_with_unit_factor_folds_away(gravity):
    assert str(mul(momentum_x(gravity).expression, literal(1.0))) == "p_x"


def test_conserved_quantity_from_symmetry(gravity, dx, coarse_traj):
    ratio = conserved_from_symmetry(gravity, dx)
    assert ratio.name == "noether[d/dx]/H"
    report = check_quantity(gravity, ratio, coarse_traj.states)
    assert report.classification == "conserved"


def test_momentum_follows_the_decay_envelope(gravity, coarse_traj):
    for t, p_x in zip(coarse_traj.times, coarse_traj.column("p_x")):
        assert abs(p_x - math.exp(-0.5 * t)) <= 1e-6


# ---------------------------------------------------------------------------
# Reeb lifts and the bracket characterization
# ---------------------------------------------------------------------------

def test_reeb_lift_round_trip(gravity):
    lifted = reeb_lift(gravity, momentum_x(gravity))
    assert str(lifted.components[-1]) == "-p_x"
    assert str(noether_quantity(gravity, lifted).expression) == "p_x"


def test_reeb_lift_is_dynamical_but_not_contact(gravity, gravity_states):
    lifted = reeb_lift(gravity, momentum_x(gravity))
    contact, dynamical = classify_symmetry(gravity, lifted, gravity_states)
    assert dynamical.passed and dynamical.max_residual == 0.0
    assert not contact.passed


def test_characterization_of_momentum_lift(gravity, gravity_points):
    lifted = reeb_lift(gravity, momentum_x(gravity))
    worst = max(
        abs(characterization_residual(gravity, lifted, point))
        for point in gravity_points
    )
    assert worst <= 1e-10


def test_characterization_of_position_lift(gravity, base_point, gravity_points):
    lifted = reeb_lift(gravity, ScalarField("x", parse("x", gravity.chart_names)))
    assert characterization_residual(gravity, lifted, base_point) == 1.0
    worst = max(
        abs(characterization_residual(gravity, lifted, point))
        for point in gravity_points
    )
    assert worst > 1e-1


def test_characterization_agrees_with_trajectory_verdicts(
    gravity, gravity_points, coarse_traj
):
    ham = ScalarField("H", gravity.hamiltonian)
    pos = ScalarField("x", parse("x", gravity.chart_names))
    for quantity, expect_dissipated in [
        (momentum_x(gravity), True),
        (ham, True),
        (pos, False),
    ]:
        worst = max(
            abs(characterization_residual(gravity, reeb_lift(gravity, quantity), p))
            for p in gravity_points
        )
        report = check_quantity(gravity, quantity, coarse_traj.states)
        dissipated = report.classification in ("dissipated", "both")
        assert (worst <= 1e-8) == expect_dissipated
        assert dissipated == expect_dissipated


def test_dissipation_theorem_end_to_end(gravity, dx, gravity_states, coarse_traj):
    # Every dynamical symmetry must hand back a dissipated quantity.
    fields = [
        dx,
        hamiltonian_field(gravity),
        reeb_lift(gravity, momentum_x(gravity)),
    ]
    for field in fields:
        _, dynamical = classify_symmetry(gravity, field, gravity_states)
        assert dynamical.passed
        quantity = noether_quantity(gravity, field)
        report = check_quantity(gravity, quantity, coarse_traj.states)
        assert report.classification in ("dissipated", "both"), field.name


# ---------------------------------------------------------------------------
# Finite maps and pullbacks
# ---------------------------------------------------------------------------

def test_point_map_apply(gravity, base_point):
    shift = PointMap.from_mapping(gravity, "x_shift", {"x": "x + 1"})
    image = shift.apply(gravity, base_point)
    assert image.q == (1.0, 0.0)
    assert image.p == base_point.p and image.s == base_point.s


def test_point_map_rejects_unknown_variables(gravity):
    with pytest.raises(ValueError):
        PointMap.from_mapping(gravity, "bad", {"z": "1"})


def test_point_map_rejects_undeclared_names_in_expressions(gravity):
    stray = parse("x + zeta", ("x", "zeta"))
    with pytest.raises(ValueError, match="map 'bad' component 'x' references"):
        PointMap.from_mapping(gravity, "bad", {"x": stray})
    with pytest.raises(ValueError, match="field 'bad' component 'x' references"):
        VectorField.from_mapping(gravity, "bad", {"x": stray})


def test_translation_map_is_a_contact_symmetry(gravity, gravity_states):
    shift = PointMap.from_mapping(gravity, "x_shift", {"x": "x + 1"})
    report = check_contact_symmetry_map(gravity, shift, gravity_states)
    assert report.passed and report.max_residual == 0.0


def test_identity_map_is_a_contact_symmetry(gravity, gravity_states):
    identity = PointMap.from_mapping(gravity, "identity", {})
    report = check_contact_symmetry_map(gravity, identity, gravity_states)
    assert report.passed and report.max_residual == 0.0


@pytest.mark.parametrize(
    "components",
    [
        {"x": "2*x"},          # stretches eta
        {"y": "y + 1"},        # shifts the potential energy
        {"p_x": "2*p_x"},      # changes H
    ],
)
def test_non_symmetry_maps_fail(gravity, gravity_states, components):
    candidate = PointMap.from_mapping(gravity, "candidate", components)
    report = check_contact_symmetry_map(gravity, candidate, gravity_states)
    assert not report.passed
    assert report.max_residual > 1e-1


def test_map_check_validates_the_chart(gravity, gravity_states):
    other = builtin("damped_free_particle")
    wrong = PointMap.from_mapping(other, "identity", {})
    with pytest.raises(ValueError):
        check_contact_symmetry_map(gravity, wrong, gravity_states)


def _pullback(sys, point_map: PointMap, quantity: ScalarField) -> ScalarField:
    """F composed with the map, built by substitution."""
    replacements = dict(zip(sys.chart_names, point_map.components))
    return ScalarField(
        f"{point_map.name}*{quantity.name}",
        substitute(quantity.expression, replacements),
    )


def test_pullback_under_translation_fixes_momentum(gravity):
    shift = PointMap.from_mapping(gravity, "x_shift", {"x": "x + 1"})
    assert str(_pullback(gravity, shift, momentum_x(gravity)).expression) == "p_x"


def test_pullback_composes_expressions(gravity):
    stretch = PointMap.from_mapping(gravity, "stretch", {"x": "2*x"})
    pos = ScalarField("x", parse("x", gravity.chart_names))
    pulled = _pullback(gravity, stretch, pos)
    moved = (3.0, 0.0, 1.0, 1.0, 0.0)
    assert pulled.value(gravity, moved) == 6.0


def test_pullback_by_a_symmetry_stays_dissipated(gravity, coarse_traj):
    # F o Phi is dissipated when F is and Phi is a contact symmetry
    shift = PointMap.from_mapping(gravity, "x_shift", {"x": "x + 1"})
    pulled = _pullback(gravity, shift, momentum_x(gravity))
    report = check_quantity(gravity, pulled, coarse_traj.states)
    assert report.classification == "dissipated"


# ---------------------------------------------------------------------------
# Compiled check kernels against per-point evaluation of the same trees
# ---------------------------------------------------------------------------

OSCILLATOR_H = "(p_x^2 + p_y^2)/2 + k*(x^2 + y^2)/2 + gamma*s"
ROTATION = {"x": "-y", "y": "x", "p_x": "-p_y", "p_y": "p_x"}
DILATION = {"x": "x", "y": "y"}


def _oscillator(k):
    return ContactSystem(("x", "y"), OSCILLATOR_H, {"k": k, "gamma": 0.5})


def _chain():
    return ContactSystem(
        [f"q{i}" for i in range(1, 7)], CHAIN_H, {"m": 1.3, "k": 2.1, "gamma": 0.4}
    )


def _chain_fields(sys):
    coords = sys.coordinates
    return [
        VectorField.from_mapping(sys, "common_translation", {c: "1" for c in coords}),
        VectorField.from_mapping(sys, "s_translation", {"s": "1"}),
        VectorField.from_mapping(
            sys, "mixed", {"q1": "p_q2", "p_q3": "q4*q5", "s": "sin(q6) + p_q1"}
        ),
        hamiltonian_field(sys),
    ]


def _assert_stats(report, residuals):
    # max and mean over every sample, in order, bit for bit
    assert report.max_residual == max(residuals)
    assert report.mean_residual == sum(residuals) / len(residuals)
    assert report.samples == len(residuals) and report.failed_samples == 0


def _assert_classification_parity(sys, field, states):
    points = states.tolist()
    ham = ScalarField("H", sys.hamiltonian)
    x_h = hamiltonian_field(sys)
    contact_res = [
        max(
            *map(abs, lie_derivative_contact_form(sys, field, pt)),
            abs(lie_derivative_scalar(sys, field, ham, pt)),
        )
        for pt in points
    ]
    bracket_res = [max(map(abs, lie_bracket(sys, field, x_h, pt))) for pt in points]
    contact, dynamical = classify_symmetry(sys, field, states, tol=1e300)
    _assert_stats(contact, contact_res)
    _assert_stats(dynamical, bracket_res)
    return contact, dynamical


@pytest.mark.parametrize("k", [1.0, 1e8])
@pytest.mark.parametrize("mapping", [ROTATION, DILATION, None])
def test_classification_matches_calculus_on_the_oscillator(k, mapping):
    sys = _oscillator(k)
    if mapping is None:
        field = hamiltonian_field(sys)
    else:
        field = VectorField.from_mapping(sys, "candidate", mapping)
    _assert_classification_parity(sys, field, sample_states(sys, count=60, seed=9))


@pytest.mark.parametrize("k, residual", [(1.0, 0.0), (1e8, 5.960464477539063e-08)])
def test_rotation_residual_is_pure_rounding(k, residual):
    sys = _oscillator(k)
    rotation = VectorField.from_mapping(sys, "rotation", ROTATION)
    states = sample_states(sys, count=100, seed=42)
    contact, dynamical = _assert_classification_parity(sys, rotation, states)
    assert contact.max_residual == residual
    assert dynamical.max_residual == residual


def test_classification_matches_calculus_on_the_chain():
    sys = _chain()
    states = sample_states(sys, count=20, seed=11)
    for field in _chain_fields(sys):
        _assert_classification_parity(sys, field, states)


def _at_states(sys, trees, states):
    return [
        [tree.evaluate(sys.bindings(pt)) for tree in trees]
        for pt in states.tolist()
    ]


def _assert_quantity_parity(sys, sources, states):
    for source in sources:
        names = sys.chart_names + tuple(sys.parameters)
        quantity = ScalarField(source, parse(source, names))
        rates = _at_states(sys, _dissipation_trees(sys, quantity.expression), states)
        report = check_quantity(sys, quantity, states)
        _assert_stats(report.conserved, [abs(cons) for cons, _ in rates])
        _assert_stats(report.dissipated, [abs(diss) for _, diss in rates])


@pytest.mark.parametrize("k", [1.0, 1e8])
def test_quantity_rates_match_calculus_on_the_oscillator(k):
    sys = _oscillator(k)
    _assert_quantity_parity(
        sys,
        [OSCILLATOR_H, "p_x", "x*p_y - y*p_x", "sin(x)*exp(p_y) + s^2"],
        sample_states(sys, count=60, seed=9),
    )


def test_quantity_rates_match_calculus_on_the_chain():
    sys = _chain()
    noether = [str(noether_quantity(sys, f).expression) for f in _chain_fields(sys)]
    _assert_quantity_parity(
        sys, [CHAIN_H, "q1", "q2*p_q3 - cos(q4)"] + noether,
        sample_states(sys, count=20, seed=11),
    )


def _map_residuals(sys, point_map, states):
    trees = _map_deviation_trees(sys, point_map.components)
    return [max(map(abs, row)) for row in _at_states(sys, trees, states)]


@pytest.mark.parametrize(
    "components",
    [
        {"x": "0.6*x - 0.8*y", "y": "0.8*x + 0.6*y",
         "p_x": "0.6*p_x - 0.8*p_y", "p_y": "0.8*p_x + 0.6*p_y"},
        {"x": "x + sin(y)", "p_x": "p_x*exp(s)", "s": "s + x*p_y"},
    ],
)
def test_map_check_matches_calculus(components):
    sys = _oscillator(3.0)
    point_map = PointMap.from_mapping(sys, "candidate", components)
    states = sample_states(sys, count=60, seed=9)
    report = check_contact_symmetry_map(sys, point_map, states, tol=1e300)
    _assert_stats(report, _map_residuals(sys, point_map, states))
