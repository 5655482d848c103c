"""The value records: reports, fields and maps, catalogue entries, spec
documents and their candidates.  Each is immutable, equal and hashed by
its fields within its own class, printed as `Name(field=value, ...)`,
and copied or pickled through its constructor, so interned expressions
stay shared."""

import copy
import pickle

import pytest

from contactmech import (
    CheckReport,
    PointMap,
    QuantityReport,
    ScalarField,
    SpecDocument,
    VectorField,
    list_models,
    parse,
)
from contactmech.expr import literal, variable
from contactmech.models import ModelInfo
from contactmech.specdoc import (
    MapCandidate,
    QuantityCandidate,
    SymmetryCandidate,
    parse_document,
)

DOCUMENT = {
    "n": 1,
    "coordinates": ["q"],
    "parameters": {"gamma": 0.5},
    "hamiltonian": "p_q^2/2 + gamma*s",
    "initial_state": {"q": 0.5, "p_q": 1, "s": 0},
    "symmetries": [{"name": "q_shift", "components": {"q": "1"}, "expect": "dynamical"}],
    "quantities": [{"name": "p_q", "expression": "p_q", "expect": "dissipated"}],
    "maps": [{"name": "flip", "components": {"p_q": "-p_q"}, "expect": "neither"}],
}


def _conserved():
    return CheckReport("p_q", "conserved", 100, 0.25, 0.125, 1e-08, "fail")


def _dissipated():
    return CheckReport(
        subject="p_q", kind="dissipated", samples=98, max_residual=1.5e-16,
        mean_residual=2.5e-17, tolerance=1e-08, verdict="pass", failed_samples=2,
    )


def _vector_field():
    return VectorField("shift", (literal(1.0), literal(0.0), literal(0.0)))


def _point_map():
    return PointMap("flip", [variable("q"), parse("-p_q", ("p_q",)), variable("s")])


#: a factory of equal records per type, and the repr each prints
RECORDS = {
    "CheckReport": (
        _conserved,
        "CheckReport(subject='p_q', kind='conserved', samples=100, "
        "max_residual=0.25, mean_residual=0.125, tolerance=1e-08, "
        "verdict='fail', failed_samples=0)",
    ),
    "CheckReport-failed": (
        _dissipated,
        "CheckReport(subject='p_q', kind='dissipated', samples=98, "
        "max_residual=1.5e-16, mean_residual=2.5e-17, tolerance=1e-08, "
        "verdict='pass', failed_samples=2)",
    ),
    "QuantityReport": (
        lambda: QuantityReport("p_q", "dissipated", _conserved(), _dissipated()),
        "QuantityReport(subject='p_q', classification='dissipated', "
        "conserved=CheckReport(subject='p_q', kind='conserved', samples=100, "
        "max_residual=0.25, mean_residual=0.125, tolerance=1e-08, "
        "verdict='fail', failed_samples=0), dissipated=CheckReport("
        "subject='p_q', kind='dissipated', samples=98, max_residual=1.5e-16, "
        "mean_residual=2.5e-17, tolerance=1e-08, verdict='pass', "
        "failed_samples=2))",
    ),
    "ScalarField": (
        lambda: ScalarField("f", parse("x + 1", ("x",))),
        "ScalarField(name='f', expression=Expression('x + 1.0'))",
    ),
    "VectorField": (
        _vector_field,
        "VectorField(name='shift', components=(Expression('1.0'), "
        "Expression('0.0'), Expression('0.0')))",
    ),
    "PointMap": (
        _point_map,
        "PointMap(name='flip', components=(Expression('q'), "
        "Expression('-p_q'), Expression('s')))",
    ),
    "ModelInfo": (
        lambda: list_models()[1],
        "ModelInfo(name='damped_free_particle', description='free particle "
        "on a line with linear drag', coordinates=('q',), "
        "hamiltonian='p_q^2/(2*m) + gamma*s', defaults={'m': 1.0, 'gamma': 0.5})",
    ),
    "SymmetryCandidate": (
        lambda: parse_document(DOCUMENT).symmetries[0],
        "SymmetryCandidate(name='q_shift', field=VectorField(name='q_shift', "
        "components=(Expression('1.0'), Expression('0.0'), Expression('0.0'))), "
        "expect='dynamical')",
    ),
    "QuantityCandidate": (
        lambda: parse_document(DOCUMENT).quantities[0],
        "QuantityCandidate(name='p_q', quantity=ScalarField(name='p_q', "
        "expression=Expression('p_q')), expect='dissipated')",
    ),
    "MapCandidate": (
        lambda: parse_document(DOCUMENT).maps[0],
        "MapCandidate(name='flip', point_map=PointMap(name='flip', "
        "components=(Expression('q'), Expression('-p_q'), Expression('s'))), "
        "expect='neither')",
    ),
}

DOCUMENT_REPR = (
    "SpecDocument(system=ContactSystem(coordinates=('q',), "
    "hamiltonian='p_q^2.0 / 2.0 + gamma * s', parameters={'gamma': 0.5}), "
    "initial_state=ChartPoint((0.5, 1.0, 0.0)), symmetries=("
    + RECORDS["SymmetryCandidate"][1] + ",), quantities=("
    + RECORDS["QuantityCandidate"][1] + ",), maps=("
    + RECORDS["MapCandidate"][1] + ",))"
)


def _expressions(value) -> list:
    """Every Expression held by `value`, a record or a tuple of them, in order."""
    if isinstance(value, tuple):
        return [e for item in value for e in _expressions(item)]
    fields = getattr(value, "_fields", None)
    if fields is None:
        return [value] if hasattr(value, "derivative") else []
    return _expressions(tuple(getattr(value, name) for name in fields))


@pytest.fixture(params=list(RECORDS))
def record_type(request):
    return RECORDS[request.param]


def test_the_repr_lists_every_field(record_type):
    make, text = record_type
    assert repr(make()) == text


def test_a_document_repr_lists_its_system_and_candidates():
    assert repr(parse_document(DOCUMENT)) == DOCUMENT_REPR


def test_equal_fields_make_equal_records(record_type):
    make, _ = record_type
    a, b = make(), make()
    assert a == b and not a != b
    assert a != a._values() and a != None  # noqa: E711
    if not isinstance(a, ModelInfo):
        assert hash(a) == hash(b) and len({a, b}) == 1


def test_records_differ_by_any_field():
    base = _dissipated()
    fields = base._values()
    for k, name in enumerate(base._fields):
        changed = list(fields)
        changed[k] = 7 if name in ("samples", "failed_samples") else "other"
        other = CheckReport(*changed)
        assert other != base and getattr(other, name) != getattr(base, name)
    a = QuantityReport("p_q", "dissipated", _conserved(), _dissipated())
    assert a != QuantityReport("p_q", "dissipated", _dissipated(), _conserved())


def test_records_of_different_classes_are_never_equal():
    field = _vector_field()
    assert field != PointMap(field.name, field.components)
    assert PointMap(field.name, field.components) != field
    pair = (field.name, field, "neither")
    assert SymmetryCandidate(*pair) != MapCandidate(*pair)
    assert SymmetryCandidate(*pair) == SymmetryCandidate(*pair)
    quantity = ScalarField("f", literal(1.0))
    assert QuantityCandidate("f", quantity, "neither") != SymmetryCandidate(
        "f", quantity, "neither"
    )


def test_keywords_bind_as_positions():
    assert _dissipated() == CheckReport(
        "p_q", "dissipated", 98, 1.5e-16, 2.5e-17, 1e-08, "pass", 2
    )
    field = _vector_field()
    assert VectorField(name="shift", components=field.components) == field
    info = list_models()[1]
    assert ModelInfo(**{name: getattr(info, name) for name in info._fields}) == info
    doc = parse_document(DOCUMENT)
    again = SpecDocument(
        system=doc.system, initial_state=doc.initial_state,
        symmetries=doc.symmetries, quantities=doc.quantities, maps=doc.maps,
    )
    assert again == doc and hash(again) == hash(doc)
    # the system is compared as an object: another load is another document
    assert parse_document(DOCUMENT) != doc
    with pytest.raises(TypeError):
        ScalarField("f")
    with pytest.raises(TypeError):
        CheckReport(*_dissipated()._values(), 0)


def test_fields_can_be_neither_assigned_nor_deleted(record_type):
    make, _ = record_type
    record = make()
    for name in (*record._fields, "n", "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert make() == record
    assert not hasattr(record, "__dict__")


def test_the_count_of_a_field_or_map_is_not_a_field():
    field, chain = _vector_field(), VectorField("chain", [literal(0.0)] * 5)
    assert (field.n, chain.n) == (1, 2)
    assert "n=" not in repr(chain)
    assert field._fields == ("name", "components")


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_a_cloned_record_is_equal_and_shares_its_nodes(record_type, clone):
    make, _ = record_type
    record = make()
    again = clone(record)
    assert type(again) is type(record) and again == record
    nodes = _expressions(record)
    assert all(a is b for a, b in zip(_expressions(again), nodes, strict=True))
    if isinstance(record, (VectorField, PointMap)):
        assert again.n == record.n


@pytest.mark.parametrize(
    "clone",
    [copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))],
    ids=["deepcopy", "pickle"],
)
def test_a_cloned_document_keeps_its_candidates_and_nodes(clone):
    doc = parse_document(DOCUMENT)
    again = clone(doc)
    assert type(again) is SpecDocument and repr(again) == repr(doc)
    assert again.system.hamiltonian is doc.system.hamiltonian
    assert again.initial_state == doc.initial_state
    assert (again.symmetries, again.quantities, again.maps) == (
        doc.symmetries, doc.quantities, doc.maps
    )


def test_a_catalogue_entry_is_not_hashable():
    info = list_models()[0]
    assert isinstance(info.defaults, dict)
    with pytest.raises(TypeError):
        hash(info)


@pytest.mark.parametrize("kind", [VectorField, PointMap])
def test_fields_and_maps_check_their_components(kind):
    with pytest.raises(ValueError):
        kind("bad", [literal(0.0)] * 4)
    with pytest.raises(ValueError):
        kind("bad", [])
    with pytest.raises(TypeError, match="components must be Expressions"):
        kind("bad", [literal(0.0), literal(0.0), 1.0])
    with pytest.raises(TypeError, match="components must be Expressions"):
        kind("bad", ["x", "p_x", "s"])
    made = kind("ok", iter([literal(0.0)] * 3))
    assert type(made.components) is tuple and made.n == 1
