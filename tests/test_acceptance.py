"""Acceptance gate: one test per release criterion.

Each test prints a single PASS/FAIL line through the record_criterion
fixture; the full list is echoed in the terminal summary.  Frozen
numbers come from the closed-form solutions of the built-in models.
"""

import json
import math
import time

import numpy as np
import pytest

import helpers
from helpers import chart_points, finite_difference
from contactmech import (
    ChartPoint,
    ScalarField,
    builtin,
    check_quantity,
    classify_symmetry,
    characterization_residual,
    hamilton_equation_residuals,
    integrate_fixed,
    noether_quantity,
    parse,
    reeb_lift,
    sample_states,
)
from contactmech.calculus import VectorField
from contactmech.cli import main
from contactmech.models import analytic_reference

SHIPPED_SPEC = "specs/gravity_friction.yaml"
MODELS = ("gravity_friction", "damped_free_particle", "damped_oscillator")


@pytest.fixture(scope="module")
def reference_run(gravity, base_point):
    """The benchmark trajectory: RK4, dt = 1e-3, T = 10, defaults."""
    start = time.perf_counter()
    traj = integrate_fixed(gravity, base_point, 0.0, 10.0, 1e-3)
    elapsed = time.perf_counter() - start
    return traj, elapsed


@pytest.fixture(scope="module")
def reference_h(gravity, reference_run):
    traj, _ = reference_run
    return np.array([gravity.hamiltonian_value(pt) for pt in traj.points()])


def test_criterion_01_hamilton_residuals(record_criterion):
    start = time.perf_counter()
    worst = 0.0
    for name in MODELS:
        sys = builtin(name)
        for point in chart_points(sys, sample_states(sys, count=100, seed=42)):
            r_eta, cov = hamilton_equation_residuals(sys, point)
            worst = max(worst, abs(r_eta), *map(abs, cov))
    elapsed = time.perf_counter() - start
    record_criterion(
        1,
        "evolution-equation residuals on 3 models x 100 states",
        worst <= 1e-12 and elapsed < 1.0,
        f"max residual {worst:.2e} (tol 1e-12), {elapsed:.2f}s (limit 1s)",
    )


def test_criterion_02_reference_trajectory(record_criterion, reference_run):
    traj, elapsed = reference_run
    final = traj.final_point
    x_err = abs(final.q[0] - 1.986524106)
    p_y_err = abs(final.p[1] - (20.6 * math.exp(-5.0) - 19.6))
    record_criterion(
        2,
        "benchmark final state at T=10 (rk4, dt=1e-3)",
        x_err <= 1e-8 and p_y_err <= 1e-7 and elapsed < 5.0,
        f"|dx|={x_err:.2e} (tol 1e-8), |dp_y|={p_y_err:.2e} (tol 1e-7), "
        f"{elapsed:.2f}s (limit 5s)",
    )


def test_criterion_03_energy_decay(record_criterion, gravity, reference_run,
                                   reference_h):
    traj, _ = reference_run
    h0 = reference_h[0]
    worst = float(np.max(np.abs(reference_h - h0 * np.exp(-0.5 * traj.times))))
    record_criterion(
        3,
        "H(t) follows H(0)exp(-gamma t)",
        worst <= 1e-6,
        f"max deviation {worst:.2e} (tol 1e-6)",
    )


def test_criterion_04_momentum_decay(record_criterion, reference_run):
    traj, _ = reference_run
    worst = float(
        np.max(np.abs(traj.column("p_x") - np.exp(-0.5 * traj.times)))
    )
    record_criterion(
        4,
        "p_x(t) follows exp(-gamma t)",
        worst <= 1e-7,
        f"max deviation {worst:.2e} (tol 1e-7)",
    )


def test_criterion_05_quotient_conservation(record_criterion, reference_run,
                                            reference_h):
    traj, _ = reference_run
    worst = float(np.max(np.abs(reference_h / traj.column("p_x") - 1.0)))
    record_criterion(
        5,
        "H/p_x stays at its initial value 1.0",
        worst <= 1e-8,
        f"max deviation {worst:.2e} (tol 1e-8)",
    )


def test_criterion_06_symmetry_pipeline(record_criterion, gravity,
                                        gravity_states, reference_run):
    traj, _ = reference_run
    field = VectorField.from_mapping(gravity, "d/dx", {"x": "1"})
    contact, dynamical = classify_symmetry(
        gravity, field, gravity_states, tol=1e-8
    )
    quantity = noether_quantity(gravity, field)
    report = check_quantity(gravity, quantity, traj, tol=1e-8)
    ok = (
        contact.passed
        and dynamical.passed
        and str(quantity.expression) == "p_x"
        and report.classification == "dissipated"
    )
    record_criterion(
        6,
        "x-translation classifies as contact symmetry, yields dissipated p_x",
        ok,
        f"contact {contact.max_residual:.2e}, bracket "
        f"{dynamical.max_residual:.2e} (tol 1e-8), quantity "
        f"'{quantity.expression}' -> {report.classification}",
    )


def test_criterion_07_bracket_characterization(record_criterion, gravity,
                                               gravity_points):
    momentum = ScalarField("p_x", parse("p_x", gravity.chart_names))
    position = ScalarField("x", parse("x", gravity.chart_names))
    good = max(
        abs(characterization_residual(gravity, reeb_lift(gravity, momentum), p))
        for p in gravity_points
    )
    bad = max(
        abs(characterization_residual(gravity, reeb_lift(gravity, position), p))
        for p in gravity_points
    )
    record_criterion(
        7,
        "eta([X, X_H]) separates dissipated from non-dissipated lifts",
        good <= 1e-10 and bad > 1e-1,
        f"lift of p_x: {good:.2e} (tol 1e-10); lift of x: {bad:.2e} (must "
        f"exceed 1e-1)",
    )


def test_criterion_08_conservative_limit(record_criterion):
    sys = builtin("damped_oscillator", gamma=0.0)
    s0 = ChartPoint((1.0,), (0.0,), 0.0)
    start = time.perf_counter()
    traj = integrate_fixed(sys, s0, 0.0, 100.0, 1e-3)
    h0 = sys.hamiltonian_value(s0)
    worst = max(abs(sys.hamiltonian_value(pt) - h0) for pt in traj.points())
    elapsed = time.perf_counter() - start
    record_criterion(
        8,
        "undamped oscillator conserves H over T=100",
        worst <= 1e-8,
        f"max drift {worst:.2e} (tol 1e-8), {elapsed:.2f}s",
    )


def test_criterion_09_derivative_engine(record_criterion):
    worst = 0.0
    for expr, bindings in helpers.derivative_cases(100, seed=14):
        for name in sorted(expr.names):
            exact = expr.differentiate(name, bindings)
            approx = finite_difference(expr, name, bindings)
            worst = max(
                worst, abs(exact - approx) / max(1.0, abs(approx))
            )
    record_criterion(
        9,
        "symbolic derivatives vs central differences on 100 expressions",
        worst <= 1e-6,
        f"max relative deviation {worst:.2e} (tol 1e-6)",
    )


def test_criterion_10_convergence_order(record_criterion, gravity, base_point):
    def position_error(dt):
        traj = integrate_fixed(gravity, base_point, 0.0, 10.0, dt)
        worst = 0.0
        for t, row in zip(traj.times, traj.states):
            ref = analytic_reference("gravity_friction", None, base_point, float(t))
            worst = max(worst, abs(row[0] - ref.q[0]), abs(row[1] - ref.q[1]))
        return worst

    coarse = position_error(0.05)
    fine = position_error(0.025)
    ratio = coarse / fine
    record_criterion(
        10,
        "halving dt divides the max position error by ~16",
        12.0 <= ratio <= 20.0,
        f"errors {coarse:.2e} -> {fine:.2e}, ratio {ratio:.2f} "
        f"(required within [12, 20])",
    )


def test_criterion_11_cli_golden_run(record_criterion, tmp_path):
    reports = []
    codes = []
    for i in (1, 2):
        path = tmp_path / f"report{i}.json"
        codes.append(main(["verify", SHIPPED_SPEC, "--report", str(path)]))
        reports.append(path.read_bytes())
    stable = reports[0] == reports[1]
    ok = codes == [0, 0] and stable
    summary = json.loads(reports[0])
    record_criterion(
        11,
        "verify on the shipped spec exits 0 with a byte-stable report",
        ok and summary["all_expectations_met"],
        f"exit codes {codes}, {len(summary['checks'])} checks, "
        f"byte-stable: {stable}",
    )
