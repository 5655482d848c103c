"""Hand-written flows of the three built-in Hamiltonians: the cost floor.

Straight-line Python for the Darboux evolution equations
dq = dH/dp, dp = -(dH/dq + p dH/ds), ds = p dH/dp - H, with the
derivatives worked out by hand.  Timed beside `ContactSystem.flow` on the
same states, it bounds what compiling a system to straight-line code
(ROADMAP item 2) can reach on the machine the benchmark runs on.
"""

from __future__ import annotations

import random
import statistics
import time


def _gravity_friction(m, g, gamma):
    def flow(y):
        x, h, px, py, s = y
        dx = px / m
        dy = py / m
        energy = (px * px + py * py) / (2.0 * m) + m * g * h + gamma * s
        return (dx, dy, -px * gamma, -(m * g + py * gamma), px * dx + py * dy - energy)

    return flow


def _damped_free_particle(m, gamma):
    def flow(y):
        q, p, s = y
        dq = p / m
        return (dq, -p * gamma, p * dq - (p * p / (2.0 * m) + gamma * s))

    return flow


def _damped_oscillator(m, k, gamma):
    def flow(y):
        q, p, s = y
        dq = p / m
        energy = p * p / (2.0 * m) + k * q * q / 2.0 + gamma * s
        return (dq, -(k * q + p * gamma), p * dq - energy)

    return flow


FLOORS = {
    "gravity_friction": _gravity_friction,
    "damped_free_particle": _damped_free_particle,
    "damped_oscillator": _damped_oscillator,
}

STATES = 64
REPEATS = 5
FLOOR_CALLS = 20000  # per repeat; the floor is ~50x cheaper than flow
FLOW_CALLS = 2000


def _per_call_us(fn, states, calls: int) -> float:
    """Median over REPEATS of the mean cost of one call, in microseconds."""
    rounds = max(1, calls // len(states))
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(rounds):
            for y in states:
                fn(y)
        samples.append((time.perf_counter() - start) / (rounds * len(states)))
    return statistics.median(samples) * 1e6


def measure(systems, seed: int) -> tuple:
    """(floor_us, direct_us, worst mismatch) averaged over the built-in models.

    `systems` maps model name to its ContactSystem; must be called with
    tracing off.  The mismatch is the largest difference between the two
    flows relative to 1 + |component|.
    """
    rng = random.Random(seed)
    floor_us = []
    direct_us = []
    worst = 0.0
    for name, system in systems.items():
        hand = FLOORS[name](**system.parameters)
        states = [
            tuple(rng.uniform(-2.0, 2.0) for _ in range(system.dim))
            for _ in range(STATES)
        ]
        for y in states:
            for a, b in zip(hand(y), system.flow(y)):
                worst = max(worst, abs(a - b) / (1.0 + abs(b)))
        floor_us.append(_per_call_us(hand, states, FLOOR_CALLS))
        direct_us.append(_per_call_us(system.flow, states, FLOW_CALLS))
    return statistics.fmean(floor_us), statistics.fmean(direct_us), worst
