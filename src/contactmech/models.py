"""Built-in systems with closed-form reference solutions.

Each model is linear enough to integrate by hand, so trajectories and
decay laws can be checked against exact expressions rather than against
another numerical method.  The action variable is recovered from the
energy-decay identity H(t) = H(0) e^{-gamma t} (gamma > 0) or from the
explicit time integral of p q' - H (gamma = 0), never by quadrature.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from ._record import Record, _set
from .contact_core import ChartPoint, ContactSystem

__all__ = [
    "ModelError",
    "ModelInfo",
    "analytic_reference",
    "builtin",
    "list_models",
]


class ModelError(ValueError):
    """Unknown model, bad parameter, or no closed form for the branch."""


class ModelInfo(Record):
    """A catalogue entry: its Hamiltonian's source and default parameters."""

    __slots__ = _fields = (
        "name", "description", "coordinates", "hamiltonian", "defaults",
    )

    def __init__(
        self, name: str, description: str, coordinates: tuple, hamiltonian: str,
        defaults: dict,
    ):
        _set(self, "name", name)
        _set(self, "description", description)
        _set(self, "coordinates", coordinates)
        _set(self, "hamiltonian", hamiltonian)
        _set(self, "defaults", defaults)


_CATALOG = (
    ModelInfo(
        name="gravity_friction",
        description="planar projectile with linear drag on both momenta",
        coordinates=("x", "y"),
        hamiltonian="(p_x^2 + p_y^2)/(2*m) + m*g*y + gamma*s",
        defaults={"m": 1.0, "g": 9.8, "gamma": 0.5},
    ),
    ModelInfo(
        name="damped_free_particle",
        description="free particle on a line with linear drag",
        coordinates=("q",),
        hamiltonian="p_q^2/(2*m) + gamma*s",
        defaults={"m": 1.0, "gamma": 0.5},
    ),
    ModelInfo(
        name="damped_oscillator",
        description="harmonic oscillator with linear drag (underdamped)",
        coordinates=("q",),
        hamiltonian="p_q^2/(2*m) + k*q^2/2 + gamma*s",
        defaults={"m": 1.0, "k": 1.0, "gamma": 0.5},
    ),
)

_BY_NAME = {info.name: info for info in _CATALOG}


def list_models() -> tuple:
    return _CATALOG


def _info(name: str) -> ModelInfo:
    try:
        return _BY_NAME[name]
    except KeyError:
        known = ", ".join(sorted(_BY_NAME))
        raise ModelError(f"unknown model {name!r} (known: {known})") from None


def _merge_params(info: ModelInfo, overrides: Mapping[str, float]) -> dict:
    params = dict(info.defaults)
    for key, value in overrides.items():
        if key not in params:
            raise ModelError(
                f"model {info.name!r} has no parameter {key!r} "
                f"(takes {sorted(params)})"
            )
        value = float(value)
        if not math.isfinite(value):
            raise ModelError(f"parameter {key!r} must be finite, got {value!r}")
        params[key] = value
    return params


def builtin(name: str, **overrides) -> ContactSystem:
    """Instantiate a catalog model, overriding any subset of its defaults."""
    info = _info(name)
    params = _merge_params(info, overrides)
    return ContactSystem(info.coordinates, info.hamiltonian, params)


def analytic_reference(
    name: str,
    params: Mapping[str, float] | None,
    s0: Sequence[float],
    t: float,
) -> ChartPoint:
    """Exact solution state at time t for the initial state `s0`, any row
    of the model's chart.

    Exists for every catalog model except the critically damped and
    overdamped oscillator branches.  t = 0 returns the state of s0.
    """
    sys = builtin(name, **(params or {}))
    try:
        s0 = sys.point(s0)
    except ValueError as exc:
        raise ModelError(f"model {name!r}: {exc}") from None
    t = float(t)
    if t == 0.0:
        return s0
    if name == "gravity_friction":
        return _gravity_reference(sys, s0, t)
    if name == "damped_free_particle":
        return _free_particle_reference(sys, s0, t)
    return _oscillator_reference(sys, s0, t)


def _gravity_reference(sys: ContactSystem, s0: ChartPoint, t: float) -> ChartPoint:
    m, g, gamma = map(sys.parameters.get, ("m", "g", "gamma"))
    x0, y0 = s0.q
    px0, py0 = s0.p
    h0 = sys.hamiltonian_value(s0)
    if gamma > 0.0:
        decay = math.exp(-gamma * t)
        ramp = 1.0 - decay
        px = px0 * decay
        py = (py0 + m * g / gamma) * decay - m * g / gamma
        x = x0 + px0 / (m * gamma) * ramp
        y = y0 + (py0 / (m * gamma) + g / gamma**2) * ramp - (g / gamma) * t
        kinetic = (px**2 + py**2) / (2.0 * m)
        s = (h0 * decay - kinetic - m * g * y) / gamma
        return ChartPoint((x, y, px, py, s))
    if gamma == 0.0:
        px = px0
        py = py0 - m * g * t
        x = x0 + px0 * t / m
        y = y0 + py0 * t / m - 0.5 * g * t**2
        # s' = (p_x^2 + p_y^2)/m - H with H constant; integrate directly
        sq_integral = (
            px0**2 * t + py0**2 * t - py0 * m * g * t**2 + (m * g) ** 2 * t**3 / 3.0
        )
        s = s0.s + sq_integral / m - h0 * t
        return ChartPoint((x, y, px, py, s))
    raise ModelError("gravity_friction closed form requires gamma >= 0")


def _free_particle_reference(
    sys: ContactSystem, s0: ChartPoint, t: float
) -> ChartPoint:
    m, gamma = map(sys.parameters.get, ("m", "gamma"))
    (q0,) = s0.q
    (p0,) = s0.p
    h0 = sys.hamiltonian_value(s0)
    if gamma > 0.0:
        decay = math.exp(-gamma * t)
        p = p0 * decay
        q = q0 + p0 / (m * gamma) * (1.0 - decay)
        s = (h0 * decay - p**2 / (2.0 * m)) / gamma
        return ChartPoint((q, p, s))
    if gamma == 0.0:
        # s' = p^2/m - H = p0^2/(2m), constant
        return ChartPoint((q0 + p0 * t / m, p0, s0.s + p0**2 * t / (2.0 * m)))
    raise ModelError("damped_free_particle closed form requires gamma >= 0")


def _oscillator_reference(sys: ContactSystem, s0: ChartPoint, t: float) -> ChartPoint:
    m, k, gamma = map(sys.parameters.get, ("m", "k", "gamma"))
    if m <= 0.0 or k <= 0.0:
        raise ModelError("damped_oscillator closed form requires m > 0 and k > 0")
    (q0,) = s0.q
    (p0,) = s0.p
    omega0 = math.sqrt(k / m)
    h0 = sys.hamiltonian_value(s0)
    if gamma == 0.0:
        c = math.cos(omega0 * t)
        sn = math.sin(omega0 * t)
        a = q0
        b = p0 / (m * omega0)
        q = a * c + b * sn
        p = m * omega0 * (b * c - a * sn)
        # s' equals the Lagrangian; integral of p^2/(2m) - k q^2/2 in
        # closed form through the double-angle identities
        s = s0.s + (m * omega0 / 4.0) * (
            (b**2 - a**2) * math.sin(2.0 * omega0 * t)
            + 2.0 * a * b * (math.cos(2.0 * omega0 * t) - 1.0)
        )
        return ChartPoint((q, p, s))
    if 0.0 < gamma < 2.0 * omega0:
        omega_d = math.sqrt(omega0**2 - 0.25 * gamma**2)
        envelope = math.exp(-0.5 * gamma * t)
        amp_a = q0
        amp_b = (p0 / m + 0.5 * gamma * q0) / omega_d
        c = math.cos(omega_d * t)
        sn = math.sin(omega_d * t)
        q = envelope * (amp_a * c + amp_b * sn)
        qdot = envelope * (
            (amp_b * omega_d - 0.5 * gamma * amp_a) * c
            - (amp_a * omega_d + 0.5 * gamma * amp_b) * sn
        )
        p = m * qdot
        s = (h0 * math.exp(-gamma * t) - p**2 / (2.0 * m) - 0.5 * k * q**2) / gamma
        return ChartPoint((q, p, s))
    raise ModelError(
        "damped_oscillator closed form covers only the underdamped branch "
        f"(needs 0 <= gamma < 2*sqrt(k/m) = {2.0 * omega0!r})"
    )
