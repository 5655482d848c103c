"""System description documents: load, validate, and generate.

A document is one YAML mapping with these fields:

    n:            chart dimension (must equal len(coordinates))
    coordinates:  list of coordinate names; momenta are p_<name>, the
                  action variable is always `s`
    parameters:   optional {name: number}
    hamiltonian:  expression source text
    initial_state: optional {chart variable: number}, all 2n+1 entries
    symmetries:   optional list of {name, components: {direction: source},
                  expect: contact|dynamical|neither}
    quantities:   optional list of {name, expression, expect:
                  conserved|dissipated|neither}
    maps:         optional list of {name, components: {variable: source},
                  expect: contact|neither}; missing components are identity

Every candidate carries an expectation so a verification run can be
judged mechanically.  Validation errors name the offending field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import yaml

from .analysis import PointMap
from .calculus import ScalarField, VectorField
from .contact_core import ChartPoint, ContactSystem, _BadName
from .expr import ExpressionError, _coerce_component
from .models import ModelInfo, _info, _merge_params

__all__ = [
    "MapCandidate",
    "QuantityCandidate",
    "SpecDocument",
    "SpecError",
    "SymmetryCandidate",
    "document_for_model",
    "load_document",
    "parse_document",
    "write_document",
]

SYMMETRY_EXPECTATIONS = ("contact", "dynamical", "neither")
QUANTITY_EXPECTATIONS = ("conserved", "dissipated", "neither")
MAP_EXPECTATIONS = ("contact", "neither")


class SpecError(Exception):
    """A document failed to load or validate; message names the field."""


@dataclass(frozen=True)
class SymmetryCandidate:
    name: str
    field: VectorField
    expect: str


@dataclass(frozen=True)
class QuantityCandidate:
    name: str
    quantity: ScalarField
    expect: str


@dataclass(frozen=True)
class MapCandidate:
    name: str
    point_map: PointMap
    expect: str


@dataclass(frozen=True)
class SpecDocument:
    system: ContactSystem
    initial_state: ChartPoint | None
    symmetries: tuple
    quantities: tuple
    maps: tuple

    @property
    def candidate_count(self) -> int:
        return len(self.symmetries) + len(self.quantities) + len(self.maps)


def _require(data: dict, field: str):
    if field not in data:
        raise SpecError(f"missing required field {field!r}")
    return data[field]


def _as_name(value, where: str) -> str:
    if not isinstance(value, str) or not value.strip():
        raise SpecError(f"{where}: name must be a non-empty string")
    return value.strip()


def _as_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError(f"{where}: expected a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        raise SpecError(f"{where}: integer is outside the float range") from None
    if not math.isfinite(value):
        raise SpecError(f"{where}: value must be finite, got {value!r}")
    return value


def _as_source(value, where: str) -> str | float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return _as_number(value, where)
    if not isinstance(value, str) or not value.strip():
        raise SpecError(f"{where}: expected expression source text")
    return value


def _component_sources(entry: dict, where: str) -> dict:
    raw = entry.get("components", {})
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise SpecError(f"{where}: components must be a mapping")
    return {k: _as_source(v, f"{where}: components.{k}") for k, v in raw.items()}


def _candidates(data: dict, field: str, allowed, candidate, build) -> tuple:
    """Parse one candidate list into `candidate(name, payload, expect)`s.

    Each entry needs a name and an expectation from `allowed`; the
    payload is `build(name, entry, where)`, and a ValueError or
    ExpressionError it raises becomes a SpecError naming the entry.
    """
    raw = data.get(field, [])
    if raw is None:
        raw = []
    if not isinstance(raw, list) or not all(isinstance(e, dict) for e in raw):
        raise SpecError(f"{field}: must be a list of mappings")
    built = []
    for idx, entry in enumerate(raw):
        where = f"{field}[{idx}]"
        name = _as_name(entry.get("name"), where)
        where = f"{where} ({name})"
        expect = entry.get("expect")
        if expect not in allowed:
            raise SpecError(
                f"{where}: expect must be one of {', '.join(allowed)}; got {expect!r}"
            )
        try:
            payload = build(name, entry, where)
        except (ValueError, ExpressionError) as exc:
            raise SpecError(f"{where}: {exc}") from None
        built.append(candidate(name, payload, expect))
    names = [c.name for c in built]
    if len(set(names)) != len(names):
        raise SpecError(f"{field}: candidate names must be unique")
    return tuple(built)


def parse_document(data) -> SpecDocument:
    """Validate a loaded YAML mapping and build the document objects."""
    if not isinstance(data, dict):
        raise SpecError("document root must be a mapping")

    n = _require(data, "n")
    # an integer past the float range fails in _as_number, which does not echo it
    if isinstance(n, bool) or not isinstance(n, int) or _as_number(n, "n") < 1:
        raise SpecError(f"n: expected a positive integer, got {n!r}")
    coordinates = _require(data, "coordinates")
    if not isinstance(coordinates, list) or not all(
        isinstance(c, str) for c in coordinates
    ):
        raise SpecError("coordinates: must be a list of names")
    if len(coordinates) != n:
        raise SpecError(
            f"n: declared n={n} but coordinates lists {len(coordinates)} names"
        )

    raw_params = data.get("parameters", {}) or {}
    if not isinstance(raw_params, dict):
        raise SpecError("parameters: must be a mapping of name to number")
    parameters = {
        _as_name(k, "parameters"): _as_number(v, f"parameters.{k}")
        for k, v in raw_params.items()
    }

    hamiltonian = _require(data, "hamiltonian")
    if not isinstance(hamiltonian, str):
        raise SpecError("hamiltonian: must be expression source text")

    try:
        system = ContactSystem(coordinates, hamiltonian, parameters)
    except _BadName as exc:
        raise SpecError(f"{exc.field}: {exc}") from None
    except (ValueError, ExpressionError) as exc:
        raise SpecError(f"hamiltonian: {exc}") from None

    initial_state = None
    raw_state = data.get("initial_state")
    if raw_state is not None:
        if not isinstance(raw_state, dict):
            raise SpecError("initial_state: must be a mapping")
        missing = set(system.chart_names) - set(raw_state)
        if missing:
            raise SpecError(
                f"initial_state: missing entries for {sorted(missing)}"
            )
        extra = set(raw_state) - set(system.chart_names)
        if extra:
            raise SpecError(f"initial_state: unknown variables {sorted(extra)}")
        flat = [
            _as_number(raw_state[name], f"initial_state.{name}")
            for name in system.chart_names
        ]
        initial_state = ChartPoint.from_flat(flat)

    def field(name, entry, where):
        sources = _component_sources(entry, where)
        return VectorField.from_mapping(system, name, sources)

    def quantity(name, entry, where):
        source = _as_source(entry.get("expression"), f"{where}: expression")
        return ScalarField(
            name, _coerce_component(source, system._declared, f"quantity {name!r}")
        )

    def point_map(name, entry, where):
        sources = _component_sources(entry, where)
        return PointMap.from_mapping(system, name, sources)

    return SpecDocument(
        system=system,
        initial_state=initial_state,
        symmetries=_candidates(
            data, "symmetries", SYMMETRY_EXPECTATIONS, SymmetryCandidate, field
        ),
        quantities=_candidates(
            data, "quantities", QUANTITY_EXPECTATIONS, QuantityCandidate, quantity
        ),
        maps=_candidates(data, "maps", MAP_EXPECTATIONS, MapCandidate, point_map),
    )


def _parse_yaml(text: str):
    """The document in `text`, parsed by libyaml's `CSafeLoader` when
    PyYAML has it; a document it rejects, or any document without it, is
    parsed by the pure-Python `SafeLoader`, so errors keep its wording."""
    fast = getattr(yaml, "CSafeLoader", None)
    if fast is not None:
        try:
            return yaml.load(text, Loader=fast)
        except yaml.YAMLError:
            pass  # parsed again below, for the pure-Python loader's message
    return yaml.load(text, Loader=yaml.SafeLoader)


def load_document(path) -> SpecDocument:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise SpecError(f"{path}: {exc}") from None
    try:
        data = _parse_yaml(text)
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        line = f"line {mark.line + 1}: " if mark is not None else ""
        raise SpecError(f"{path}: {line}{exc.problem or exc}") from None
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: an int too long to read
        raise SpecError(f"{path}: {exc}") from None
    try:
        return parse_document(data)
    except SpecError as exc:
        raise SpecError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Built-in model documents
# ---------------------------------------------------------------------------
#
# Candidate sets record what is provable for each model, with the measured
# truth as the expectation.  Note the action-direction field d/ds: it
# preserves eta but not H (its H-rate is gamma), and its bracket with the
# evolution field has a ds-component of -gamma, so for gamma > 0 it is
# expected to classify as neither.

def _gravity_candidates(info: ModelInfo) -> dict:
    return {
        "initial_state": {"x": 0.0, "y": 0.0, "p_x": 1.0, "p_y": 1.0, "s": 0.0},
        "symmetries": [
            {
                "name": "x_translation",
                "components": {"x": "1"},
                "expect": "contact",
            },
            {
                "name": "s_translation",
                "components": {"s": "1"},
                "expect": "neither",
            },
        ],
        "quantities": [
            {"name": "momentum_x", "expression": "p_x", "expect": "dissipated"},
            {
                "name": "energy",
                "expression": info.hamiltonian,
                "expect": "dissipated",
            },
            {"name": "x_position", "expression": "x", "expect": "neither"},
        ],
        "maps": [
            {
                "name": "x_shift",
                "components": {"x": "x + 1"},
                "expect": "contact",
            },
        ],
    }


def _free_particle_candidates(info: ModelInfo) -> dict:
    return {
        "initial_state": {"q": 0.0, "p_q": 1.0, "s": 0.0},
        "symmetries": [
            {
                "name": "q_translation",
                "components": {"q": "1"},
                "expect": "contact",
            },
        ],
        "quantities": [
            {"name": "momentum", "expression": "p_q", "expect": "dissipated"},
            {
                "name": "energy",
                "expression": info.hamiltonian,
                "expect": "dissipated",
            },
        ],
        "maps": [
            {
                "name": "q_shift",
                "components": {"q": "q + 1"},
                "expect": "contact",
            },
        ],
    }


def _oscillator_candidates(info: ModelInfo) -> dict:
    return {
        "initial_state": {"q": 1.0, "p_q": 0.0, "s": 0.0},
        "symmetries": [
            {
                "name": "s_translation",
                "components": {"s": "1"},
                "expect": "neither",
            },
        ],
        "quantities": [
            {
                "name": "energy",
                "expression": info.hamiltonian,
                "expect": "dissipated",
            },
            {"name": "position", "expression": "q", "expect": "neither"},
        ],
        "maps": [
            {"name": "identity", "components": {}, "expect": "contact"},
        ],
    }


_MODEL_CANDIDATES = {
    "gravity_friction": _gravity_candidates,
    "damped_free_particle": _free_particle_candidates,
    "damped_oscillator": _oscillator_candidates,
}


def document_for_model(name: str, overrides=None) -> dict:
    """Plain-data document for a built-in model, ready to serialize."""
    info = _info(name)
    params = _merge_params(info, overrides or {})
    doc = {
        "n": len(info.coordinates),
        "coordinates": list(info.coordinates),
        "parameters": params,
        "hamiltonian": info.hamiltonian,
    }
    doc.update(_MODEL_CANDIDATES[name](info))
    return doc


def write_document(data: dict, path) -> None:
    Path(path).write_text(
        yaml.safe_dump(data, sort_keys=False, default_flow_style=False)
    )
