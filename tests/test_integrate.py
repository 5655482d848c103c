"""Fixed and adaptive steppers, trajectories, and CSV round trips."""

import copy
import functools
import math
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    CHAIN_H,
    FUNCTIONS_H,
    reference_adaptive,
    reference_adaptive_samples,
    reference_fixed,
    reference_fixed_samples,
)
from contactmech import (
    ChartPoint,
    ContactSystem,
    DivergenceError,
    DomainError,
    StepUnderflowError,
    Trajectory,
    builtin,
    integrate_adaptive,
    integrate_fixed,
    load_document,
    read_trajectory_csv,
    write_trajectory_csv,
)
from contactmech.integrate import _CHUNK_CELLS, _generated
from contactmech.models import analytic_reference

SHIPPED_SPEC = Path(__file__).resolve().parents[1] / "specs" / "gravity_friction.yaml"


@pytest.fixture(scope="module")
def pure_action():
    # H = s gives dp = -p, ds = -s: a clean linear benchmark.
    return ContactSystem(("q",), "s")


def rk4_step(sys, state, dt):
    """One RK4 step from t = 0: on a one-step grid the generated loop
    runs exactly that step."""
    return integrate_fixed(sys, state, 0.0, dt, dt).point(-1)


def rkf45_step(sys, state, dt):
    """One Fehlberg step from t = 0: (new state, its error estimate)."""
    out, err = _generated("rkf45", sys.dim)(sys, state, 0.0, dt)
    return ChartPoint(out), err


def test_rk4_step_matches_taylor_polynomial(pure_action):
    state = (0.0, 1.0, 0.0)
    out = rk4_step(pure_action, state, 0.1)
    h = 0.1
    taylor = 1.0 - h + h**2 / 2.0 - h**3 / 6.0 + h**4 / 24.0
    assert out.p[0] == pytest.approx(taylor, abs=5e-16)
    assert abs(out.p[0] - math.exp(-h)) < 1e-7


def test_rk4_step_is_identity_for_zero_hamiltonian():
    sys = ContactSystem(("q",), "0")
    state = (1.5, -2.5, 3.5)
    assert rk4_step(sys, state, 0.25) == state


def test_rk4_step_is_exact_for_free_motion():
    sys = ContactSystem(("q",), "p_q^2/2")
    out = rk4_step(sys, (0.0, 1.0, 0.0), 0.5)
    assert out == (0.5, 1.0, 0.25)


def test_fixed_grid_lands_exactly_on_tf():
    sys = ContactSystem(("q",), "0")
    traj = integrate_fixed(sys, (0.0, 0.0, 0.0), 0.0, 1.0, 0.3)
    assert len(traj) == 5
    assert traj.times[0] == 0.0
    assert traj.times[-1] == 1.0
    assert np.all(np.diff(traj.times) > 0.0)


def test_fixed_grid_with_exact_multiple():
    sys = ContactSystem(("q",), "0")
    traj = integrate_fixed(sys, (0.0, 0.0, 0.0), 0.0, 1.0, 0.25)
    assert np.array_equal(traj.times, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_fixed_records_metadata(gravity, base_point):
    traj = integrate_fixed(gravity, base_point, 0.0, 1.0, 0.1)
    assert traj.method == "rk4"
    assert traj.names == gravity.chart_names
    assert traj.accepted == len(traj) - 1
    assert traj.rejected == 0
    assert traj.point(0) == base_point


def test_fixed_momentum_constant_without_damping():
    sys = builtin("damped_free_particle", gamma=0.0)
    traj = integrate_fixed(sys, (0.0, 1.0, 0.0), 0.0, 2.0, 0.01)
    assert np.all(traj.column("p_q") == 1.0)


@pytest.mark.parametrize("t0, tf, dt", [(0.0, 0.0, 0.1), (1.0, 0.5, 0.1)])
def test_fixed_rejects_empty_window(gravity, base_point, t0, tf, dt):
    with pytest.raises(ValueError):
        integrate_fixed(gravity, base_point, t0, tf, dt)


def test_fixed_rejects_nonpositive_dt(gravity, base_point):
    with pytest.raises(ValueError):
        integrate_fixed(gravity, base_point, 0.0, 1.0, 0.0)


@pytest.mark.parametrize(
    "value, message",
    [
        (math.inf, "must be finite, got inf"),
        (0.0, "must be positive, got 0.0"),
        (-1.0, "must be positive, got -1.0"),
        (math.nan, "must be positive, got nan"),
    ],
    ids=["inf", "zero", "negative", "nan"],
)
@pytest.mark.parametrize(
    "label, run",
    [
        ("dt", lambda sys, s0, v: integrate_fixed(sys, s0, 0.0, 1.0, v)),
        ("tol", lambda sys, s0, v: integrate_adaptive(sys, s0, 0.0, 1.0, v)),
    ],
    ids=["integrate_fixed", "integrate_adaptive"],
)
def test_a_step_or_tolerance_must_be_finite_and_positive(
    gravity, base_point, label, run, value, message
):
    with pytest.raises(ValueError) as err:
        run(gravity, base_point, value)
    assert str(err.value) == f"{label} {message}"


def _count_flow_calls(monkeypatch) -> list:
    calls = []
    flow = ContactSystem.flow

    def counted(self, flat):
        calls.append(flat)
        return flow(self, flat)

    monkeypatch.setattr(ContactSystem, "flow", counted)
    return calls


@pytest.mark.parametrize(
    "t0, tf, steps, stuck",
    [
        # floats are 2 apart at 1e16, so t0 + 1 rounds back to t0
        (1e16, 1.0000000000001e16, 0, 1e16),
        # 1 apart below 2^53 and 2 apart above: four steps reach 2^53
        (2.0**53 - 4.0, 2.0**53 + 64.0, 4, 2.0**53),
    ],
)
def test_fixed_stops_at_the_first_step_that_cannot_advance_t(
    gravity, base_point, monkeypatch, t0, tf, steps, stuck
):
    calls = _count_flow_calls(monkeypatch)
    with pytest.raises(ValueError) as err:
        integrate_fixed(gravity, base_point, t0, tf, 1.0)
    assert str(err.value) == f"dt=1.0 does not advance t={stuck!r}"
    assert len(calls) == 4 * steps


def test_adaptive_underflows_when_an_accepted_step_cannot_advance_t(
    gravity, base_point
):
    tf = 1.0000000000001e16
    with pytest.raises(StepUnderflowError) as err:
        integrate_adaptive(gravity, base_point, 1e16, tf, 1e-9)
    assert 1e16 <= err.value.time < tf
    assert err.value.time + err.value.dt == err.value.time


def test_halving_dt_reduces_error_at_fourth_order(gravity, base_point):
    errors = []
    for dt in (0.1, 0.05):
        traj = integrate_fixed(gravity, base_point, 0.0, 10.0, dt)
        ref = analytic_reference("gravity_friction", None, base_point, 10.0)
        final = traj.point(-1)
        errors.append(max(abs(a - b) for a, b in zip(final, ref)))
    assert 12.0 <= errors[0] / errors[1] <= 20.0


def test_divergence_reports_last_finite_state():
    sys = ContactSystem(("q",), "s^2")
    with pytest.raises(DivergenceError) as err:
        integrate_fixed(sys, (0.0, 0.0, -1.0), 0.0, 2.0, 0.01)
    assert err.value.time < 1.1
    assert all(math.isfinite(v) for v in err.value.state)
    # the message names the last good state, name=value in chart order
    state = ", ".join(
        f"{name}={value!r}"
        for name, value in zip(sys.chart_names, err.value.state)
    )
    assert f"t={err.value.time!r}: {state})" in str(err.value)


# ---------------------------------------------------------------------------
# The error contract of one step: DivergenceError with the pre-step state
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sqrt_well():
    # dp_q = -(1/(2 sqrt(q)) + gamma p_q) is undefined for q < 0
    return ContactSystem(("q",), "p_q^2/2 + sqrt(q) + gamma*s", {"gamma": 0.5})


def _divergence(fn, *args) -> DivergenceError:
    with pytest.raises(DivergenceError) as err:
        fn(*args)
    return err.value


_UNDEFINED = "right-hand side undefined: math domain error (last good state at "


@pytest.mark.parametrize("step", [rk4_step, rkf45_step])
def test_domain_error_in_a_later_stage_reports_the_step_start(sqrt_well, step):
    start = (1e-3, -10.0, 0.0)
    sqrt_well.flow(start)  # the first stage is defined
    err = _divergence(step, sqrt_well, start, 0.1)
    assert str(err) == _UNDEFINED + "t=0.0: q=0.001, p_q=-10.0, s=0.0)"
    assert err.time == 0.0
    assert type(err.state) is ChartPoint
    assert err.state == start


def test_fixed_domain_error_reports_the_last_step_start(sqrt_well):
    err = _divergence(
        integrate_fixed, sqrt_well, (0.05, -1.0, 0.0), 0.0, 1.0, 0.01
    )
    state = (0.008237819765289901, -1.1055254069642355, 0.01498045774278203)
    assert str(err) == _UNDEFINED + (
        "t=0.04: q=0.008237819765289901, p_q=-1.1055254069642355, "
        "s=0.01498045774278203)"
    )
    assert err.time == 0.04
    assert err.state == state
    sqrt_well.flow(state)  # a later stage failed


def test_adaptive_domain_error_reports_the_last_accepted_state(sqrt_well):
    err = _divergence(
        integrate_adaptive, sqrt_well, (1.0, 0.0, 0.0), 0.0, 3.0, 1e-9
    )
    state = (8.849057730566228e-12, -1.1787139993658506, -0.7195332502287782)
    assert str(err) == _UNDEFINED + (
        "t=2.1877280745818948: q=8.849057730566228e-12, "
        "p_q=-1.1787139993658506, s=-0.7195332502287782)"
    )
    assert err.time == 2.1877280745818948
    assert err.state == state
    sqrt_well.flow(state)


def test_adaptive_rejects_a_trial_step_that_leaves_the_domain(sqrt_well):
    # the first trial step spans the window and a stage reaches q < 0;
    # shrinking it lets the integrator follow q down to the wall
    err = _divergence(
        integrate_adaptive, sqrt_well, (0.05, -1.0, 0.0), 0.0, 0.1, 1e-9
    )
    assert err.time == 0.04728932275892085
    assert err.state == (
        1.2847893306187424e-13, -1.1807896922117374, 0.019130851460745137
    )


def test_adaptive_rejects_a_trial_step_that_lands_where_h_is_undefined(sqrt_well):
    # the first trial step spans the window and lands at q < 0, where H is
    # undefined; it is rejected and shrunk like one whose stages leave the
    # domain, so the integrator follows q down to the wall
    start = (0.3216163596339798, -0.23162499106286089, 0.0)
    err = _divergence(
        integrate_adaptive, sqrt_well, start, 0.0, 0.647399290208085,
        0.12166773794205021,
    )
    assert str(err) == _UNDEFINED + (
        "t=0.6370100116743426: q=3.591063439733745e-13, "
        "p_q=-1.002315858143546, s=-0.14101814248964153)"
    )
    assert err.time == 0.6370100116743426
    assert err.state == (
        3.591063439733745e-13, -1.002315858143546, -0.14101814248964153
    )


@pytest.mark.parametrize(
    "integrate, q0, p0, tf, step",
    [
        (integrate_fixed, 0.024412509485166194, -0.13171571760675124,
         0.08600481672762073, 0.08600481672762073),
    ],
    ids=["rk4"],
)
def test_a_final_state_where_h_is_undefined_diverges(
    sqrt_well, integrate, q0, p0, tf, step
):
    # one step reaches q < 0, where no step evaluates the flow; without
    # the final check the CSV writer would be the first to raise
    start = (q0, p0, 0.0)
    err = _divergence(integrate, sqrt_well, start, 0.0, tf, step)
    assert str(err) == (
        "H undefined at the final state: math domain error (last good state "
        f"at t=0.0: q={q0!r}, p_q={p0!r}, s=0.0)"
    )
    assert err.time == 0.0
    assert err.state == start


@pytest.mark.parametrize("step", [rk4_step, rkf45_step])
def test_non_finite_stage_stops_the_step(step):
    # dp_q = -a*10 = -inf; evaluating the next stage at p_q = -inf would
    # raise in sin(p_q) instead
    sys = ContactSystem(("q",), "p_q^2/2 + cos(p_q) + a*10*q", {"a": 1e308})
    start = (1.0, 1.0, 0.0)
    err = _divergence(step, sys, start, 0.1)
    assert str(err) == (
        "state left the finite domain (last good state at t=0.0: "
        "q=1.0, p_q=1.0, s=0.0)"
    )
    assert err.state == start


class _Scripted:
    """A stand-in system whose flow ignores its input and returns the next
    value of `script` (a stage tuple), or raises it (a DomainError)."""

    chart_names = ("q", "p_q", "s")
    dim = 3

    def __init__(self, script):
        self.script = iter(script)

    def flow(self, flat):
        value = next(self.script)
        if isinstance(value, DomainError):
            raise value
        return value


_STEPS = {
    "rk4": (4, lambda sys, y: _generated("rk4", 3)(sys, y, 0.0, 0.1, 0.1, 1e-10)),
    "rkf45": (6, lambda sys, y: _generated("rkf45", 3)(sys, y, 0.0, 0.1)),
}


@pytest.mark.parametrize(
    "method, stage, later",
    [
        (method, stage, later)
        for method, (count, _) in _STEPS.items()
        for stage in range(count)
        for later in ("finite", "raises")[: 1 + (stage < count - 1)]
    ],
)
def test_a_non_finite_stage_leaves_the_finite_domain_whatever_follows(
    method, stage, later
):
    # the step checks only its result, which every stage value reaches
    # (RKF45 keeps its zero weights as 0.0 * k); a later flow that raises
    # must not turn the error into "right-hand side undefined"
    count, step = _STEPS[method]
    finite, bad = (0.5, -0.25, 1.0), (0.5, math.inf, 1.0)
    following = DomainError("math domain error") if later == "raises" else finite
    script = [finite] * stage + [bad] + [following] * (count - stage - 1)
    err = _divergence(step, _Scripted(script), (1.0, 1.0, 0.0))
    assert str(err) == (
        "state left the finite domain (last good state at t=0.0: "
        "q=1.0, p_q=1.0, s=0.0)"
    )


@pytest.mark.parametrize("method", list(_STEPS))
def test_a_flow_that_raises_after_finite_stages_is_undefined(method):
    count, step = _STEPS[method]
    script = [(0.5, -0.25, 1.0)] * (count - 1) + [DomainError("math domain error")]
    err = _divergence(step, _Scripted(script), (1.0, 1.0, 0.0))
    assert str(err) == _UNDEFINED + "t=0.0: q=1.0, p_q=1.0, s=0.0)"


def test_finite_stages_whose_sum_overflows_do_not_raise():
    # RKF45: two stage components at 1e308 (their sum is inf)
    two = ContactSystem(("x", "y"), "1e308*(p_x + p_y)")
    start = (0.0, 0.0, 0.0, 0.0, 0.0)
    assert sum(two.flow(start)) == math.inf
    out, err = rkf45_step(two, start, 1e-3)
    assert out == (1e305, 1e305, 0.0, 0.0, 0.0)
    assert err == 6.237000967296e287
    # RK4 forms a + 2(b + c) + d, which overflows at 1e308; seven
    # components of 2.8e307 overflow the stage and output sums but no
    # component
    c = 2.8e307
    coordinates = tuple(f"x{i}" for i in range(6))
    seven = ContactSystem(
        coordinates, f"{c!r}*({' + '.join(f'p_{x}' for x in coordinates)}) - {c!r}"
    )
    zeros = seven.point((0.0,) * 13)
    assert sum(seven.flow(zeros)) == math.inf
    out = rk4_step(seven, zeros, 1.0)
    assert out == (c,) * 6 + (0.0,) * 6 + (c,)
    assert sum(out) == math.inf
    traj = integrate_fixed(seven, zeros, 0.0, 2.0, 1.0)
    assert traj.states[-1].tolist() == [2 * c] * 6 + [0.0] * 6 + [2 * c]


def test_non_finite_output_reports_the_step_start():
    # every stage is finite; the combination overflows
    two = ContactSystem(("x", "y"), "1e308*(p_x + p_y)")
    start = (1.0, -2.0, 0.0, 0.0, 0.5)
    err = _divergence(integrate_fixed, two, start, 0.25, 1.0, 0.1)
    assert str(err) == (
        "state left the finite domain (last good state at t=0.25: "
        "x=1.0, y=-2.0, p_x=0.0, p_y=0.0, s=0.5)"
    )
    assert err.time == 0.25
    assert err.state == start
    err = _divergence(rkf45_step, two, start, 2.0)
    assert str(err) == (
        "state left the finite domain (last good state at t=0.0: "
        "x=1.0, y=-2.0, p_x=0.0, p_y=0.0, s=0.5)"
    )
    assert err.time == 0.0
    assert err.state == start


def test_an_overflowing_square_leaves_the_finite_domain():
    # a square is a product, so p_q^2 at 1e200 is inf, not an overflow
    # error, and the first stage's action component is inf - inf
    sys = ContactSystem(("q",), "p_q^2/2 + gamma*s", {"gamma": 0.5})
    start = (0.0, 1e200, 0.0)
    assert sys.hamiltonian_value(start) == math.inf
    err = _divergence(integrate_fixed, sys, start, 0.0, 0.1, 0.01)
    assert str(err) == (
        "state left the finite domain (last good state at t=0.0: "
        "q=0.0, p_q=1e+200, s=0.0)"
    )
    assert err.state == start


def test_each_stage_calls_flow_through_the_method(gravity, base_point, monkeypatch):
    # a wrapper on the class sees one call per stage
    calls = []
    flow = ContactSystem.flow

    def counted(self, flat):
        calls.append(1)
        return flow(self, flat)

    monkeypatch.setattr(ContactSystem, "flow", counted)
    rk4_step(gravity, base_point, 0.1)
    assert len(calls) == 4
    rkf45_step(gravity, base_point, 0.1)
    assert len(calls) == 4 + 6
    traj = integrate_adaptive(gravity, base_point, 0.0, 1.0, 1e-9)
    assert len(calls) == 4 + 6 + 6 * (traj.accepted + traj.rejected)


def test_non_finite_initial_state_diverges_immediately(gravity):
    bad = (math.nan, 0.0, 1.0, 1.0, 0.0)
    with pytest.raises(DivergenceError):
        integrate_fixed(gravity, bad, 0.0, 1.0, 0.1)


def test_rkf45_step_estimate_tracks_the_true_error(gravity, base_point):
    out, err = rkf45_step(gravity, base_point, 0.1)
    ref = analytic_reference("gravity_friction", None, base_point, 0.1)
    true_err = max(abs(a - b) for a, b in zip(out, ref))
    assert 0.5 * true_err <= err <= 2.0 * true_err


def test_rkf45_step_error_scales_at_fifth_order(gravity, base_point):
    _, coarse = rkf45_step(gravity, base_point, 0.1)
    _, fine = rkf45_step(gravity, base_point, 0.01)
    assert 0.5e5 <= coarse / fine <= 2e5


def test_adaptive_tracks_the_decay_envelope(gravity, base_point):
    traj = integrate_adaptive(gravity, base_point, 0.0, 10.0, 1e-9)
    h0 = gravity.hamiltonian_value(base_point)
    hf = gravity.hamiltonian_value(traj.point(-1))
    assert abs(hf / h0 - math.exp(-5.0)) <= 1e-6
    assert traj.method == "rkf45"
    assert traj.accepted == len(traj) - 1
    assert traj.rejected > 0
    assert traj.times[-1] == 10.0


def test_adaptive_zero_hamiltonian_takes_one_step():
    sys = ContactSystem(("q",), "0")
    traj = integrate_adaptive(sys, (1.0, 2.0, 3.0), 0.0, 5.0, 1e-9)
    assert len(traj) == 2
    assert traj.times[-1] == 5.0
    assert traj.point(1) == traj.point(0)


def test_adaptive_step_count_grows_as_tolerance_shrinks(gravity, base_point):
    counts = [
        len(integrate_adaptive(gravity, base_point, 0.0, 10.0, tol))
        for tol in (1e-3, 1e-6, 1e-9)
    ]
    assert counts[0] < counts[1] < counts[2]


def test_adaptive_underflows_on_a_potential_kink():
    sys = ContactSystem(("q",), "p_q^2/2 + 100*abs(q)")
    with pytest.raises(StepUnderflowError) as err:
        integrate_adaptive(sys, (-1.0, 1.0, 0.0), 0.0, 2.0, 1e-13)
    assert 0.0 < err.value.time < 2.0
    assert err.value.dt < 1e-9
    assert type(err.value.state) is ChartPoint
    q, p_q, s = err.value.state
    assert abs(q) < 1e-3  # stuck at the kink
    assert f"(state: q={q!r}, p_q={p_q!r}, s={s!r})" in str(err.value)


def test_adaptive_rejects_nonpositive_tolerance(gravity, base_point):
    with pytest.raises(ValueError):
        integrate_adaptive(gravity, base_point, 0.0, 1.0, 0.0)


def test_trajectory_validation():
    names = ("q", "p_q", "s")
    good = np.zeros((3, 3))
    with pytest.raises(ValueError):
        Trajectory(names, np.array([0.0, 0.0, 1.0]), good, "rk4")
    with pytest.raises(ValueError):
        Trajectory(names, np.array([0.0, 1.0]), good, "rk4")
    with pytest.raises(ValueError):
        Trajectory(names, np.array([]), np.zeros((0, 3)), "rk4")
    with pytest.raises(ValueError):
        Trajectory(("q", "s"), np.array([0.0]), np.zeros((1, 3)), "rk4")


@pytest.mark.parametrize(
    "names, times, states, message",
    [
        ("q p_q s", [0.0, 0.0, 1.0], [[0.0] * 3] * 3, "times must be strictly"),
        ("q p_q s", [0.0, 1.0], [[0.0] * 3] * 3, "2 times but 3 states"),
        # numpy reads states=[] as 1-d, so an empty list fails on the shape
        ("q p_q s", [], [], "times must be 1-d and states 2-d"),
        ("q s", [0.0], [[0.0] * 3], "states have 3 columns, expected 2"),
    ],
)
def test_trajectory_validation_of_lists(names, times, states, message):
    with pytest.raises(ValueError) as err:
        Trajectory(tuple(names.split()), times, states, "rk4")
    assert str(err.value).startswith(message)


@pytest.fixture(scope="module")
def shipped():
    return load_document(SHIPPED_SPEC)


@pytest.mark.parametrize("method", ["rk4", "rkf45"])
def test_integrated_trajectory_makes_its_arrays_once_from_its_rows(
    method, shipped, tmp_path
):
    sys, s0 = shipped.system, shipped.initial_state
    if method == "rk4":
        traj = integrate_fixed(sys, s0, 0.0, 2.0, 1e-2)
    else:
        traj = integrate_adaptive(sys, s0, 0.0, 2.0, 1e-9)
    lazy = tmp_path / "lazy.csv"
    write_trajectory_csv(sys, traj, lazy)
    assert "times" not in vars(traj) and "states" not in vars(traj)
    times = np.array(traj._times)
    rows = np.array(traj._flat).reshape(len(traj), len(traj.names))
    assert traj.times.dtype == traj.states.dtype == np.float64
    assert traj.times.shape == (len(traj),) and traj.states.shape == (len(traj), 5)
    assert np.array_equal(traj.times, times) and np.array_equal(traj.states, rows)
    assert traj.times is traj.times and traj.states is traj.states
    eager = Trajectory(
        traj.names, times, rows, traj.method, traj.accepted, traj.rejected
    )
    write_trajectory_csv(sys, eager, tmp_path / "eager.csv")
    assert lazy.read_bytes() == (tmp_path / "eager.csv").read_bytes()
    assert [traj.point(i) for i in range(len(traj))] == [
        eager.point(i) for i in range(len(eager))
    ]
    assert traj.point(-1) == eager.point(-1) == eager.point(len(eager) - 1)


@pytest.mark.parametrize("method", ["rk4", "rkf45"])
def test_the_start_may_be_any_row(method, shipped):
    # a tuple, a list, a numpy row or a ChartPoint, with bit-identical runs
    sys, s0 = shipped.system, shipped.initial_state
    if method == "rk4":
        integrate, step = integrate_fixed, 1e-2
    else:
        integrate, step = integrate_adaptive, 1e-9
    runs = [
        integrate(sys, row, 0.0, 2.0, step)
        for row in (s0, tuple(s0), list(s0), np.array(s0))
    ]
    for traj in runs:
        assert traj.times.tobytes() == runs[0].times.tobytes()
        assert traj.states.tobytes() == runs[0].states.tobytes()
        assert (traj.accepted, traj.rejected) == (runs[0].accepted, runs[0].rejected)
        assert traj.point(0) == s0 and type(traj.point(0)) is ChartPoint
    with pytest.raises(ValueError) as err:
        integrate(sys, (0.0, 1.0, 0.0), 0.0, 2.0, step)
    assert str(err.value) == "state has dimension n=1, system expects n=2"


def test_trajectories_are_equal_only_to_themselves(shipped):
    sys, s0 = shipped.system, shipped.initial_state
    a = integrate_fixed(sys, s0, 0.0, 1.0, 0.25)
    b = integrate_fixed(sys, s0, 0.0, 1.0, 0.25)
    assert a == a and a != b
    assert hash(a) == hash(a)
    assert len({a, b}) == 2
    assert copy.copy(a) != a


def test_trajectory_repr_shows_its_metadata_not_its_samples(shipped):
    sys, s0 = shipped.system, shipped.initial_state
    traj = integrate_adaptive(sys, s0, 0.0, 1.0, 1e-6)
    assert repr(traj) == (
        "Trajectory(names=('x', 'y', 'p_x', 'p_y', 's'), method='rkf45', "
        f"rows={len(traj)}, accepted={traj.accepted}, rejected={traj.rejected})"
    )
    assert len(traj) == traj.accepted + 1


def test_a_constructed_trajectory_keeps_its_own_copy_of_the_arrays():
    times, states = np.array([0.0, 1.0]), np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    traj = Trajectory(("q", "p_q", "s"), times, states, "rk4")
    times[1], states[1, 0] = 9.0, 9.0
    assert traj.point(1) == (4.0, 5.0, 6.0)
    assert traj.times.tolist() == [0.0, 1.0]
    assert traj.states.tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]


@pytest.mark.parametrize("built", ["integrated", "constructed"])
def test_trajectory_arrays_are_read_only(built, gravity, base_point):
    traj = integrate_fixed(gravity, base_point, 0.0, 1.0, 0.5)
    if built == "constructed":
        traj = Trajectory(traj.names, traj.times, traj.states, "rk4")
    with pytest.raises(ValueError):
        traj.times[0] = 1.0
    with pytest.raises(ValueError):
        traj.states[0, 0] = 1.0
    assert traj.point(0) == base_point


def test_trajectory_columns(gravity, base_point):
    traj = integrate_fixed(gravity, base_point, 0.0, 1.0, 0.5)
    assert np.array_equal(traj.column("t"), traj.times)
    assert traj.column("p_x")[0] == 1.0
    assert traj.point(-1) == traj.point(len(traj) - 1)
    with pytest.raises(ValueError):
        traj.column("nope")


def test_csv_round_trip_is_bitwise(tmp_path, gravity, base_point):
    traj = integrate_fixed(gravity, base_point, 0.0, 1.0, 0.1)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(gravity, traj, path)
    first = path.read_text()
    assert first.splitlines()[0] == "t,x,y,p_x,p_y,s,H"
    back = read_trajectory_csv(path)
    assert back.names == traj.names
    assert back.method == "file"
    assert np.array_equal(back.times, traj.times)
    assert np.array_equal(back.states, traj.states)
    # writing what was read reproduces the file byte for byte
    again = tmp_path / "again.csv"
    write_trajectory_csv(gravity, back, again)
    assert again.read_text() == first


def test_csv_write_requires_matching_chart(tmp_path, gravity):
    other = builtin("damped_free_particle")
    traj = integrate_fixed(
        other, (0.0, 1.0, 0.0), 0.0, 1.0, 0.5
    )
    with pytest.raises(ValueError, match="does not match the system chart"):
        write_trajectory_csv(gravity, traj, tmp_path / "x.csv")


@pytest.mark.parametrize(
    "content, message",
    [
        ("", "empty"),
        ("a,b\n1,2\n", "header"),
        ("t,q,p_q,s,H\n0.0,1.0,2.0\n", "columns"),
        ("t,q,p_q,s,H\n0.0,1.0,2.0,3.0,oops\n", "non-numeric"),
        ("t,q,p_q,s,H\n", "bad.csv: no data rows"),
        ("t,q,p_q,s,H\n1.0,0,0,0,0\n0.0,0,0,0,0\n", "bad.csv: times must be"),
        ("t,q,p_q,s,H\n0.0,0,0,0,0\n1.0,nan,0,0,0\n", "bad.csv: line 3: non-finite"),
        ("t,q,p_q,s,H\n0.0,0,0,0,0\ninf,0,0,0,0\n", "bad.csv: line 3: non-finite"),
        ("t,q,p_q,s,H\n0.0,0,-inf,0,0\n1.0,0,0,0,0\n", "bad.csv: line 2: non-finite"),
        # lines are numbered as in the file, blank ones included
        ("t,q,p_q,s,H\n0,0,0,0,0\n\n1,0,0,0,0\n2,0,0,0,0\n3,0,0,x,0\n",
         "bad.csv: line 6: non-numeric cell"),
        ("\nt,q,p_q,s,H\n\n0,0,0,0,0\n1,0,0,0\n", "bad.csv: line 5: expected 5"),
        ("t,q,p_q,s,H\n\n\n0,0,0,0,0\n\n1,0,nan,0,0\n", "bad.csv: line 6: non-finite"),
        # ... at every break of str.splitlines, not only at newlines
        ("t,q,p_q,s,H\n0,0,0,0,0\f1,0,0,0,0\n2,0,0,x,0\n", "bad.csv: line 4: non-numeric"),
        ("t,q,p_q,s,H\r\n0,0,0,0,0\r\n\r\n1,0,0,0,0\r2,0,nan,0,0\n",
         "bad.csv: line 5: non-finite"),
    ],
)
def test_csv_read_errors(tmp_path, content, message):
    path = tmp_path / "bad.csv"
    path.write_bytes(content.encode())
    with pytest.raises(ValueError, match=message):
        read_trajectory_csv(path)


def test_csv_cells_whose_sum_overflows_are_finite(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text("t,q,p_q,s,H\n0,1e308,1e308,-1e308,inf\n1,-1e308,-1e308,0,0\n")
    traj = read_trajectory_csv(path)
    assert traj.states.tolist() == [[1e308, 1e308, -1e308], [-1e308, -1e308, 0.0]]

# ---------------------------------------------------------------------------
# Bit-identical to the plain reference integrator in helpers.py
# ---------------------------------------------------------------------------

def _parity_systems() -> dict:
    collision = ("lambda", "v0", "_y", "_b", "y0", "h")
    return {
        "gravity_friction": (builtin("gravity_friction"), (0.0, 0.0, 1.0, 1.0, 0.0)),
        "damped_free_particle": (builtin("damped_free_particle"), (0.5, -1.0, 0.25)),
        "damped_oscillator": (builtin("damped_oscillator"), (1.0, 0.0, 0.0)),
        "chain": (
            ContactSystem(
                [f"q{i}" for i in range(1, 7)], CHAIN_H,
                {"m": 1.3, "k": 2.1, "gamma": 0.4},
            ),
            (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0, -0.5, 0.0),
        ),
        "functions": (
            ContactSystem(
                ("q",), FUNCTIONS_H, {"m": 1.3, "c": -0.75, "n": 1.5, "gamma": 0.4}
            ),
            (0.3, -0.7, 0.1),
        ),
        # chart and parameter names that a code generator might also use
        "collision": (
            ContactSystem(
                collision,
                "(p_lambda^2 + p_v0^2)/(2*def) + p__y^2/2 + p__b^2/2"
                " + (p_y0^2 + p_h^2)/2 + t0*lambda*v0 + _pw*(_y - lambda)^2"
                " + exp(t0*_b^2) + half*(y0 - h)^2 + sixth*h^2 + out*y0 + gamma*s",
                {"def": 1.5, "t0": -0.5, "_pw": 2.0, "half": 0.7, "sixth": 0.2,
                 "out": -0.1, "gamma": 0.3},
            ),
            (0.1, -0.2, 0.3, 0.0, 0.5, -0.5, 0.4, 0.0, -0.3, 0.2, 0.1, -0.1, 0.0),
        ),
        # 0 + (-0.0) is 0.0, so the RKF45 sums must start from 0
        "signed_zeros": (builtin("gravity_friction"), (-0.0, 0.0, -0.0, 1.0, -0.0)),
    }


def _same_bits(a: Trajectory, b: Trajectory) -> bool:
    # tobytes tells -0.0 from 0.0, which == does not
    return (
        a.times.tobytes() == b.times.tobytes()
        and a.states.tobytes() == b.states.tobytes()
        and (a.accepted, a.rejected) == (b.accepted, b.rejected)
    )


@pytest.mark.parametrize("name", list(_parity_systems()))
def test_fixed_is_bit_identical_to_the_reference(name):
    sys, flat = _parity_systems()[name]
    s0 = sys.point(flat)
    traj = integrate_fixed(sys, s0, 0.0, 20.0, 1e-3)
    assert len(traj) == 20_001
    assert _same_bits(traj, reference_fixed(sys, s0, 0.0, 20.0, 1e-3))


@pytest.mark.parametrize("name", list(_parity_systems()))
def test_adaptive_is_bit_identical_to_the_reference(name):
    sys, flat = _parity_systems()[name]
    s0 = sys.point(flat)
    traj = integrate_adaptive(sys, s0, 0.0, 20.0, 1e-12)
    assert traj.rejected > 0
    assert _same_bits(traj, reference_adaptive(sys, s0, 0.0, 20.0, 1e-12))


@pytest.mark.parametrize("name", list(_parity_systems()))
def test_stage_states_are_bit_identical_to_the_reference(name, monkeypatch):
    # the state of every stage, as flow sees it: a signed zero that does
    # not reach the trajectory still shows here
    sys, flat = _parity_systems()[name]
    s0 = sys.point(flat)
    seen = []
    flow = ContactSystem.flow

    def recorded(self, values):
        seen.append(tuple(map(float.hex, values)))
        return flow(self, values)

    monkeypatch.setattr(ContactSystem, "flow", recorded)
    runs = []
    for fixed, adaptive in (
        (integrate_fixed, integrate_adaptive),
        (reference_fixed, reference_adaptive),
    ):
        seen.clear()
        fixed(sys, s0, 0.0, 0.2, 1e-3)
        adaptive(sys, s0, 0.0, 2.0, 1e-12)
        runs.append(list(seen))
    assert len(runs[0]) > 4 * 200
    assert runs[0] == runs[1]


@pytest.mark.parametrize("name", ["gravity_friction", "damped_free_particle",
                                  "damped_oscillator", "chain"])
@pytest.mark.parametrize("t0, tf, dt", [(0.0, 1.0, 0.3), (0.25, 2.0, 0.15)])
def test_a_shortened_last_step_is_bit_identical_to_the_reference(name, t0, tf, dt):
    sys, flat = _parity_systems()[name]
    s0 = sys.point(flat)
    traj = integrate_fixed(sys, s0, t0, tf, dt)
    assert traj.times[-1] == tf
    assert traj.times[-1] - traj.times[-2] < dt
    assert _same_bits(traj, reference_fixed(sys, s0, t0, tf, dt))


# ---------------------------------------------------------------------------
# The generated CSV rows against a plain writer
# ---------------------------------------------------------------------------

_EDGE_FLOATS = (
    -1.7976931348623157e308, -0.0, 5e-324, 1e-05, 0.1 + 0.2, 1e16,
    1.7976931348623157e308,
)


def _reference_csv(sys, traj) -> str:
    lines = ["t," + ",".join(traj.names) + ",H"]
    for t, row in zip(traj.times.tolist(), traj.states.tolist()):
        lines.append(",".join(map(repr, (t, *row, sys.hamiltonian_value(row)))))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n", [1, 2, 6])
def test_csv_rows_are_the_reprs_of_their_cells(tmp_path, n):
    coordinates = [f"q{i}" for i in range(1, n + 1)]
    hamiltonian = " + ".join(f"p_{q}^2/2" for q in coordinates) + " + gamma*s"
    sys = ContactSystem(coordinates, hamiltonian, {"gamma": 0.5})
    # each row a rotation of the edge floats, so every cell meets each one
    rows = [
        [_EDGE_FLOATS[(i + j) % len(_EDGE_FLOATS)] for j in range(sys.dim)]
        for i in range(len(_EDGE_FLOATS))
    ]
    traj = Trajectory(sys.chart_names, _EDGE_FLOATS, rows, "test")
    path = tmp_path / "edge.csv"
    write_trajectory_csv(sys, traj, path)
    text = path.read_text()
    assert text == _reference_csv(sys, traj)
    assert "-0.0" in text and "5e-324" in text and "0.30000000000000004" in text


def test_a_row_where_h_is_undefined_raises_its_domain_error(tmp_path, sqrt_well):
    rows = [(1.0, 0.0, 0.0), (0.25, -1.0, 0.0), (-0.5, -1.0, 0.0), (-1.0, 0.0, 0.0)]
    traj = Trajectory(sqrt_well.chart_names, [0.0, 1.0, 2.0, 3.0], rows, "test")
    with pytest.raises(DomainError) as expected:
        sqrt_well.hamiltonian_value(rows[2])
    path = tmp_path / "undefined.csv"
    with pytest.raises(DomainError) as err:
        write_trajectory_csv(sqrt_well, traj, path)
    assert str(err.value) == str(expected.value) == "math domain error"
    assert not path.exists()


def test_two_thousand_coordinates_step_and_write(tmp_path):
    # the generated code checks 4001 stage values per stage: its sums
    # nest log2(4001) deep, so Python compiles them
    n = 2000
    sys = ContactSystem([f"q{i}" for i in range(n)], "s")  # dp = -p, ds = -s
    start = (0.0,) * n + (1.0,) * n + (2.0,)
    h = 0.1
    decay = 1.0 - h + h**2 / 2.0 - h**3 / 6.0 + h**4 / 24.0
    traj = integrate_fixed(sys, start, 0.0, h, h)
    assert traj.point(-1) == pytest.approx((0.0,) * n + (decay,) * n + (2 * decay,))
    out, err = rkf45_step(sys, start, h)
    assert out == pytest.approx(traj.point(-1), rel=1e-6)
    path = tmp_path / "wide.csv"
    write_trajectory_csv(sys, traj, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    assert lines[2] == ",".join(map(repr, (h, *traj.point(-1), traj.point(-1)[-1])))


# ---------------------------------------------------------------------------
# Float64 buffers and the CSV written in chunks
# ---------------------------------------------------------------------------

@functools.cache
def _oscillators(n: int) -> ContactSystem:
    coordinates = [f"q{i}" for i in range(1, n + 1)]
    hamiltonian = " + ".join(f"p_{q}^2/2" for q in coordinates) + " + gamma*s"
    return ContactSystem(coordinates, hamiltonian, {"gamma": 0.5})


def _chunk_rows(sys) -> int:
    """The rows of one CSV write: its cells over t, the chart and H."""
    return _CHUNK_CELLS // (sys.dim + 2)


@pytest.mark.parametrize("n", [1, 1000])
@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_csv_bytes_do_not_depend_on_the_chunks(tmp_path, n, extra):
    # a chunk of 819 rows at dim 3 and of 2 rows at dim 2001
    sys = _oscillators(n)
    rows = _chunk_rows(sys) + extra
    assert n == 1 or _chunk_rows(sys) <= 10
    rng = random.Random(n * 10 + extra)
    cells = [rng.choice(_EDGE_FLOATS) * rng.random() for _ in range(rows * sys.dim)]
    states = np.array(cells).reshape(rows, sys.dim)
    traj = Trajectory(sys.chart_names, np.arange(rows) * 0.1, states, "test")
    path = tmp_path / "chunks.csv"
    write_trajectory_csv(sys, traj, path)
    assert path.read_text() == _reference_csv(sys, traj)


def test_h_undefined_in_the_last_chunk_leaves_the_file_alone(tmp_path, sqrt_well):
    rows = 2 * _chunk_rows(sqrt_well) + 1
    states = np.tile([1.0, 0.5, 0.0], (rows, 1))
    states[-1, 0] = -0.5
    traj = Trajectory(sqrt_well.chart_names, np.arange(rows) * 0.1, states, "test")
    with pytest.raises(DomainError) as expected:
        sqrt_well.hamiltonian_value(states[-1])
    path = tmp_path / "kept.csv"
    path.write_bytes(b"t,q,p_q,s,H\n0.0,1.0,0.5,0.0,1.125\n")
    with pytest.raises(DomainError) as err:
        write_trajectory_csv(sqrt_well, traj, path)
    assert str(err.value) == str(expected.value) == "math domain error"
    assert path.read_bytes() == b"t,q,p_q,s,H\n0.0,1.0,0.5,0.0,1.125\n"


_MODEL_STARTS = {
    "gravity_friction": (0.0, 0.0, 1.0, 1.0, 0.0),
    "damped_free_particle": (0.5, -1.0, 0.25),
    "damped_oscillator": (1.0, 0.0, 0.0),
}


@pytest.mark.parametrize("name", list(_MODEL_STARTS))
def test_buffers_hold_the_rows_of_a_list_of_tuples(tmp_path, name):
    sys = builtin(name)
    s0 = sys.point(_MODEL_STARTS[name])
    fixed = integrate_fixed(sys, s0, 0.0, 3.0, 1e-3)
    adaptive = integrate_adaptive(sys, s0, 0.0, 3.0, 1e-12)
    path = tmp_path / "model.csv"
    write_trajectory_csv(sys, fixed, path)
    lines = path.read_text().splitlines()[1:]
    cells = [tuple(map(float, line.split(","))) for line in lines]
    references = [
        (fixed, reference_fixed_samples(sys, s0, 0.0, 3.0, 1e-3)),
        (adaptive, reference_adaptive_samples(sys, s0, 0.0, 3.0, 1e-12)[:2]),
        (read_trajectory_csv(path), ([c[0] for c in cells], [c[1:-1] for c in cells])),
    ]
    assert len(fixed) > 2 * _CHUNK_CELLS // sys.dim  # the RK4 loop moved two blocks
    for traj, (times, rows) in references:
        assert traj.times.tobytes() == np.array(times).tobytes()
        assert traj.states.tobytes() == np.array(rows).tobytes()
        assert [traj.point(i) for i in (0, -1)] == [rows[0], rows[-1]]


def test_the_arrays_are_views_of_the_buffers(gravity, base_point):
    traj = integrate_fixed(gravity, base_point, 0.0, 1.0, 0.1)
    assert np.shares_memory(traj.times, np.frombuffer(traj._times))
    assert np.shares_memory(traj.states, np.frombuffer(traj._flat))
    assert traj.states.shape == (len(traj), 5)


def test_simulating_and_writing_ten_thousand_steps_stays_small(tmp_path, shipped):
    # rows kept as tuples of Python floats, or every CSV line made before
    # the first write, peak near 4 MiB here
    sys, s0 = shipped.system, shipped.initial_state
    path = tmp_path / "t.csv"
    write_trajectory_csv(sys, integrate_fixed(sys, s0, 0.0, 0.01, 1e-3), path)
    tracemalloc.start()
    try:
        traj = integrate_fixed(sys, s0, 0.0, 10.0, 1e-3)
        write_trajectory_csv(sys, traj, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(traj) == 10_001
    assert peak < 1.5 * 2**20


def test_reading_a_csv_of_a_few_mib_holds_little_more_than_its_buffers(tmp_path):
    # the whole text, its lines and a (lineno, line) pair per line held at
    # once, peak near 2.8 times the file size here
    dim, count = 21, 8000
    names = [f"q{i}" for i in range(10)] + [f"p_q{i}" for i in range(10)] + ["s"]
    rng = random.Random(5)
    rows = [[k * 1e-3] + [rng.uniform(-1.0, 1.0) for _ in range(dim + 1)] for k in range(count)]
    path = tmp_path / "wide.csv"
    with open(path, "w") as f:
        f.write(",".join(["t", *names, "H"]) + "\n")
        f.writelines(",".join(map(repr, row)) + "\n" for row in rows)
    size = path.stat().st_size
    buffers = 8 * count * (dim + 1)
    tracemalloc.start()
    try:
        traj = read_trajectory_csv(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert size > 3 * 2**20
    assert traj.times.tolist() == [row[0] for row in rows]
    assert traj.states.tolist() == [row[1:-1] for row in rows]
    assert peak < 1.25 * buffers + 2**16
