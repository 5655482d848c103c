"""Catalog models and their closed-form reference solutions."""

import math

import numpy as np
import pytest

from contactmech import ModelError, builtin, list_models
from contactmech.models import analytic_reference


def test_catalog_contents():
    infos = {info.name: info for info in list_models()}
    assert set(infos) == {
        "gravity_friction",
        "damped_free_particle",
        "damped_oscillator",
    }
    assert infos["gravity_friction"].coordinates == ("x", "y")
    assert all(info.description for info in infos.values())


def test_builtin_defaults(gravity, base_point):
    assert gravity.parameters == {"m": 1.0, "g": 9.8, "gamma": 0.5}
    assert gravity.hamiltonian_value(base_point) == 1.0


def test_builtin_overrides():
    sys = builtin("damped_oscillator", gamma=0.0, k=4.0)
    assert sys.parameters["gamma"] == 0.0
    assert sys.parameters["k"] == 4.0
    assert sys.parameters["m"] == 1.0


@pytest.mark.parametrize(
    "name, overrides",
    [
        ("no_such_model", {}),
        ("gravity_friction", {"tau": 1.0}),
        ("gravity_friction", {"gamma": float("nan")}),
    ],
)
def test_builtin_rejects_bad_input(name, overrides):
    with pytest.raises(ModelError):
        builtin(name, **overrides)


def test_reference_at_time_zero_is_the_initial_state(base_point):
    assert analytic_reference("gravity_friction", None, base_point, 0.0) == base_point


def test_gravity_reference_frozen_values(base_point):
    ref = analytic_reference("gravity_friction", None, base_point, 10.0)
    decay = math.exp(-5.0)
    assert ref.q[0] == pytest.approx(1.986524106001829, abs=1e-12)
    assert ref.p[0] == pytest.approx(decay, abs=1e-15)
    assert ref.p[1] == pytest.approx(20.6 * decay - 19.6, abs=1e-12)


def test_gravity_reference_without_friction(base_point):
    ref = analytic_reference("gravity_friction", {"gamma": 0.0}, base_point, 2.0)
    assert ref.q[0] == pytest.approx(2.0, abs=1e-12)
    assert ref.p[1] == pytest.approx(1.0 - 9.8 * 2.0, abs=1e-12)
    assert ref.q[1] == pytest.approx(2.0 - 9.8 * 2.0, abs=1e-12)


REFERENCE_SETUPS = [
    ("gravity_friction", None, (0.0, 0.0, 1.0, 1.0, 0.0)),
    ("gravity_friction", {"gamma": 0.0}, (0.0, 0.0, 1.0, 1.0, 0.0)),
    ("gravity_friction", {"m": 2.0, "g": 3.0}, (1.0, -1.0, 0.5, 2.0, 0.3)),
    ("damped_free_particle", None, (0.0, 1.0, 0.0)),
    ("damped_free_particle", {"gamma": 0.0, "m": 3.0}, (1.0, 2.0, 0.5)),
    ("damped_oscillator", None, (1.0, 0.0, 0.0)),
    ("damped_oscillator", {"gamma": 0.0}, (1.0, 0.5, 0.0)),
    ("damped_oscillator", {"gamma": 0.3, "m": 2.0, "k": 5.0}, (0.7, -1.0, 0.2)),
]


@pytest.mark.parametrize("name, params, s0", REFERENCE_SETUPS)
def test_reference_satisfies_the_evolution_equations(name, params, s0):
    # Central difference of the closed form must match the vector field.
    sys = builtin(name, **(params or {}))
    rng = np.random.default_rng(11)
    h = 1e-6
    for t in rng.uniform(0.1, 5.0, size=20):
        t = float(t)
        ahead = analytic_reference(name, params, s0, t + h)
        behind = analytic_reference(name, params, s0, t - h)
        rhs = sys.flow(analytic_reference(name, params, s0, t))
        for fd, exact in zip(
            ((a - b) / (2.0 * h) for a, b in zip(ahead, behind)), rhs
        ):
            assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))


@pytest.mark.parametrize("name, params, s0", REFERENCE_SETUPS)
def test_reference_obeys_the_decay_law(name, params, s0):
    sys = builtin(name, **(params or {}))
    gamma = sys.parameters["gamma"]
    h0 = sys.hamiltonian_value(s0)
    rng = np.random.default_rng(12)
    for t in rng.uniform(0.0, 5.0, size=20):
        t = float(t)
        ref = analytic_reference(name, params, s0, t)
        assert abs(sys.hamiltonian_value(ref) - h0 * math.exp(-gamma * t)) <= 1e-10


def test_undamped_oscillator_conserves_energy():
    s0 = (1.0, 0.5, 0.0)
    sys = builtin("damped_oscillator", gamma=0.0)
    h0 = sys.hamiltonian_value(s0)
    for t in (0.5, 1.7, 3.1, 12.9):
        ref = analytic_reference("damped_oscillator", {"gamma": 0.0}, s0, t)
        assert sys.hamiltonian_value(ref) == pytest.approx(h0, abs=1e-12)


def test_oscillator_reference_rejects_heavy_damping():
    s0 = (1.0, 0.0, 0.0)
    with pytest.raises(ModelError):
        analytic_reference("damped_oscillator", {"gamma": 2.0}, s0, 1.0)
    with pytest.raises(ModelError):
        analytic_reference("damped_oscillator", {"gamma": 3.0}, s0, 1.0)


@pytest.mark.parametrize(
    "name, params, message",
    [
        ("gravity_friction", {"gamma": -0.1}, "requires gamma >= 0"),
        ("damped_free_particle", {"gamma": -0.1}, "requires gamma >= 0"),
        ("damped_oscillator", {"m": 0.0}, "requires m > 0 and k > 0"),
        ("damped_oscillator", {"k": -1.0}, "requires m > 0 and k > 0"),
    ],
)
def test_closed_forms_reject_parameters_outside_their_branch(name, params, message):
    n = len(builtin(name).coordinates)
    s0 = (0.5,) * n + (1.0,) * n + (0.0,)
    with pytest.raises(ModelError, match=message):
        analytic_reference(name, params, s0, 1.0)


def test_reference_validates_its_inputs(base_point):
    with pytest.raises(ModelError):
        analytic_reference("no_such_model", None, base_point, 1.0)
    with pytest.raises(ModelError):
        analytic_reference("damped_free_particle", None, base_point, 1.0)
