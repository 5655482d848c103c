"""Shared fixtures and the acceptance-criteria terminal summary."""

from __future__ import annotations

import pytest

from helpers import chart_points
from contactmech import ChartPoint, builtin, sample_states

_ACCEPTANCE_LINES: list = []


@pytest.fixture(scope="session")
def gravity():
    """Planar particle under gravity with linear friction, catalog defaults."""
    return builtin("gravity_friction")


@pytest.fixture(scope="session")
def base_point():
    # Initial state used throughout: origin, unit momenta, zero action.
    return ChartPoint(q=(0.0, 0.0), p=(1.0, 1.0), s=0.0)


@pytest.fixture(scope="session")
def gravity_states(gravity):
    # read-only, as `traj.states` is: shared by every test in the session
    states = sample_states(gravity, count=100, seed=42)
    states.setflags(write=False)
    return states


@pytest.fixture(scope="session")
def gravity_points(gravity, gravity_states):
    return chart_points(gravity, gravity_states)


@pytest.fixture(scope="session")
def record_criterion():
    """Emit one PASS/FAIL line per acceptance criterion, then assert it."""

    def record(number: int, description: str, passed: bool, detail: str):
        status = "PASS" if passed else "FAIL"
        line = f"criterion {number:2d} [{status}] {description}: {detail}"
        _ACCEPTANCE_LINES.append(line)
        print(line)
        assert passed, line

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
