"""Vector fields, Lie operations, and the symbolic evolution field."""

import numpy as np
import pytest

import helpers
from contactmech import (
    PointMap,
    ScalarField,
    VectorField,
    builtin,
    hamiltonian_field,
    lie_bracket,
    lie_derivative_contact_form,
    lie_derivative_scalar,
    parse,
    sample_states,
    vf_jacobian,
)
from contactmech import analysis, calculus
from contactmech import expr as ex
from contactmech.contact_core import _given
from contactmech.specdoc import parse_document


@pytest.fixture(scope="module")
def free_particle():
    return builtin("damped_free_particle")


@pytest.fixture()
def dx(gravity):
    return VectorField.from_mapping(gravity, "d/dx", {"x": "1"})


def test_from_mapping_fills_missing_slots(gravity, dx, base_point):
    assert len(dx.components) == 5
    assert gravity._at(base_point, _given, dx.components) == (1.0, 0.0, 0.0, 0.0, 0.0)


def test_from_mapping_rejects_unknown_directions(gravity):
    with pytest.raises(ValueError):
        VectorField.from_mapping(gravity, "bad", {"z": "1"})


def test_vector_field_validation():
    one = parse("1", ())
    for build in (
        lambda components: VectorField("bad", components),
        lambda components: PointMap("bad", components),
    ):
        for count in (0, 1, 2, 4):
            with pytest.raises(ValueError, match="2n\\+1"):
                build((one,) * count)
        with pytest.raises(TypeError):
            build((one, "1", one))
        assert build((one,) * 5).n == 2


def test_field_components_may_use_parameters(gravity, base_point):
    field = VectorField.from_mapping(gravity, "drag", {"p_y": "-gamma*p_y"})
    v = gravity._at(base_point, _given, field.components)
    assert v[2:4] == (0.0, -0.5)


def test_jacobian_of_constant_field_is_zero(gravity, dx, base_point):
    assert np.all(vf_jacobian(gravity, dx, base_point) == 0.0)


def test_jacobian_single_entry(gravity, base_point):
    field = VectorField.from_mapping(gravity, "scale_s", {"s": "gamma*s"})
    jac = vf_jacobian(gravity, field, base_point)
    expected = np.zeros((5, 5))
    expected[4, 4] = 0.5
    assert np.array_equal(jac, expected)


def test_jacobian_of_evolution_field(gravity, base_point):
    # dp_y/dt = -(m*g + gamma*p_y), so that row depends on p_y alone.
    jac = vf_jacobian(gravity, hamiltonian_field(gravity), base_point)
    assert np.array_equal(jac[3], np.array([0.0, 0.0, 0.0, -0.5, 0.0]))


def test_symbolic_field_matches_flow(gravity, gravity_points):
    x_h = hamiltonian_field(gravity)
    for point in gravity_points[:20]:
        v = gravity._at(point, _given, x_h.components)
        flow = gravity.flow(point)
        assert max(abs(a - b) for a, b in zip(v, flow)) <= 1e-12


def test_translation_commutes_with_evolution(gravity, dx, gravity_points):
    x_h = hamiltonian_field(gravity)
    for point in gravity_points:
        assert max(map(abs, lie_bracket(gravity, dx, x_h, point))) == 0.0


def test_bracket_of_field_with_itself_vanishes(gravity, gravity_points):
    x_h = hamiltonian_field(gravity)
    for point in gravity_points[:10]:
        assert max(map(abs, lie_bracket(gravity, x_h, x_h, point))) == 0.0


def test_coordinate_fields_commute(free_particle):
    dq = VectorField.from_mapping(free_particle, "d/dq", {"q": "1"})
    dp = VectorField.from_mapping(free_particle, "d/dp", {"p_q": "1"})
    point = (0.3, -1.2, 0.7)
    assert max(map(abs, lie_bracket(free_particle, dq, dp, point))) == 0.0


@pytest.fixture(scope="module")
def poly_fields(free_particle):
    a = VectorField.from_mapping(
        free_particle,
        "A",
        {"q": "q + 2*p_q", "p_q": "s - q^2", "s": "p_q*q"},
    )
    b = VectorField.from_mapping(
        free_particle,
        "B",
        {"q": "sin(q)", "p_q": "p_q^2", "s": "q + s"},
    )
    return a, b


def test_bracket_antisymmetry(free_particle, poly_fields):
    a, b = poly_fields
    for point in sample_states(free_particle, 20, 5).tolist():
        ab = lie_bracket(free_particle, a, b, point)
        ba = lie_bracket(free_particle, b, a, point)
        assert all(x == -y for x, y in zip(ab, ba))


def test_bracket_bilinearity(free_particle, poly_fields):
    from contactmech.expr import add, mul

    a, b = poly_fields
    combo = VectorField(
        "2A+3B",
        tuple(
            add(mul(2.0, ca), mul(3.0, cb))
            for ca, cb in zip(a.components, b.components)
        ),
    )
    x_h = hamiltonian_field(free_particle)
    for point in sample_states(free_particle, 20, 6).tolist():
        lhs = lie_bracket(free_particle, combo, x_h, point)
        ac = lie_bracket(free_particle, a, x_h, point)
        bc = lie_bracket(free_particle, b, x_h, point)
        diff = max(
            abs(l - (2.0 * u + 3.0 * v)) for l, u, v in zip(lhs, ac, bc)
        )
        assert diff <= 1e-12


def test_bracket_dimension_mismatch(gravity, free_particle, base_point):
    dq = VectorField.from_mapping(free_particle, "d/dq", {"q": "1"})
    x_h = hamiltonian_field(gravity)
    with pytest.raises(ValueError):
        lie_bracket(gravity, dq, x_h, base_point)


def test_scalar_rate_along_evolution(gravity, base_point):
    x_h = hamiltonian_field(gravity)
    ham = ScalarField("H", gravity.hamiltonian)
    momentum = ScalarField("p_x", parse("p_x", gravity.chart_names))
    const = ScalarField("c", parse("3.5", ()))
    assert lie_derivative_scalar(gravity, x_h, ham, base_point) == -0.5
    assert lie_derivative_scalar(gravity, x_h, momentum, base_point) == -0.5
    assert lie_derivative_scalar(gravity, x_h, const, base_point) == 0.0


def test_translation_does_not_change_the_hamiltonian(gravity, dx, gravity_points):
    ham = ScalarField("H", gravity.hamiltonian)
    for point in gravity_points:
        assert lie_derivative_scalar(gravity, dx, ham, point) == 0.0


def test_contact_form_derivative_for_symmetries(gravity, dx, base_point):
    assert max(map(abs, lie_derivative_contact_form(gravity, dx, base_point))) == 0.0
    reeb = VectorField.from_mapping(gravity, "R", {"s": "1"})
    assert max(map(abs, lie_derivative_contact_form(gravity, reeb, base_point))) == 0.0


def test_contact_form_derivative_of_dilation(free_particle):
    # Y = q d/dq drags eta by -p dq.
    field = VectorField.from_mapping(free_particle, "dilate", {"q": "q"})
    point = (1.0, 2.0, 0.0)
    cq, cp, cs = lie_derivative_contact_form(free_particle, field, point)
    assert cq == -2.0
    assert cp == 0.0
    assert cs == 0.0


def test_contact_symmetry_preserves_reeb(gravity, dx, gravity_points):
    reeb = VectorField.from_mapping(gravity, "R", {"s": "1"})
    for point in gravity_points:
        assert max(map(abs, lie_bracket(gravity, dx, reeb, point))) <= 1e-10


def test_scalar_field_value(gravity, base_point):
    kinetic = ScalarField(
        "T", parse("(p_x^2 + p_y^2)/(2*m)", ("p_x", "p_y", "m"))
    )
    assert kinetic.value(gravity, base_point) == 1.0


def test_a_skipped_chart_term_is_one_the_builders_fold_away():
    # the operator trees skip the term of each chart variable that the
    # differentiated tree does not hold: its derivative is the literal 0,
    # and these folds are why skipping it leaves every tree as it was
    rng = np.random.default_rng(2027)
    names = ("a", "b", "c", "d")

    def tree(depth):
        if rng.random() < 0.3:
            return ex.literal(rng.choice([0.0, -0.0, 1.0, -1.0, -2.5, 1e300]))
        return parse(helpers.edge_source(rng, names, depth), names)

    skipped = 0
    for _ in range(300):
        held = names[: rng.integers(1, len(names) + 1)]
        f = parse(helpers.edge_source(rng, held, 3), held)
        y = tree(2)
        # a chart sum starts at the literal 0, so no partial sum is the
        # literal -0.0, the one total that adding a 0 would change
        total = calculus._chart_sum(tree(2) for _ in range(rng.integers(4)))
        # nor is the term of a literal-0 weight or coefficient built
        zero = ex.literal(rng.choice([0.0, -0.0]))
        for var in names:
            assert ex.add(total, ex.mul(zero, f.derivative(var))) is total
            if f._vars & ex._VAR_BITS.get(var, 0):
                continue
            skipped += 1
            assert ex.add(total, ex.mul(y, f.derivative(var))) is total
    assert skipped > 300


def test_fitting_the_chain_candidates_decodes_no_names(monkeypatch):
    # `_check_bound` decodes the OR of its expressions' variable bits once:
    # a `names` read per component costs time that grows with the highest
    # bit, which a wide chart makes large
    doc = parse_document(helpers.chain_document(50))
    names = ex.Expression.names
    reads = []

    def counting(expression):
        reads.append(expression)
        return names.fget(expression)

    monkeypatch.setattr(ex.Expression, "names", property(counting))
    symmetries, quantities, maps, _ = analysis._run_checks(
        doc.system,
        sample_states(doc.system, count=5, seed=3),
        1e-8,
        fields=[entry.field for entry in doc.symmetries],
        quantities=[entry.quantity for entry in doc.quantities],
        maps=[entry.point_map for entry in doc.maps],
    )
    assert (len(symmetries), len(quantities), len(maps)) == (2, 3, 1)
    assert reads == []
