"""Vector fields, Lie operations, and the symbolic evolution field."""

import numpy as np
import pytest

from helpers import chart_points
from contactmech import (
    ChartPoint,
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
from contactmech.contact_core import _given


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


def test_vector_field_validation(gravity):
    one = parse("1", ())
    for build in (
        lambda components: VectorField("bad", components),
        lambda components: PointMap(
            "bad", gravity.chart_names[: len(components)], components
        ),
    ):
        for count in (0, 1, 2, 4):
            with pytest.raises(ValueError, match="2n\\+1"):
                build((one,) * count)
        with pytest.raises(TypeError):
            build((one, "1", one))
        assert build((one,) * 5).n == 2


@pytest.mark.parametrize(
    "names, count, message",
    [
        (4, 5, "4 chart variables but 5 components"),
        (5, 3, "5 chart variables but 3 components"),
        (4, 4, "a chart map needs 2n+1 entries, got 4"),
    ],
)
def test_point_map_matches_its_names_before_counting(
    gravity, names, count, message
):
    one = parse("1", ())
    with pytest.raises(ValueError) as err:
        PointMap("bad", gravity.chart_names[:names], (one,) * count)
    assert str(err.value) == message


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
        flow = gravity.flow(point.flat())
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
    point = ChartPoint((0.3,), (-1.2,), 0.7)
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
    for point in chart_points(free_particle, sample_states(free_particle, 20, 5)):
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
    for point in chart_points(free_particle, sample_states(free_particle, 20, 6)):
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
    point = ChartPoint((1.0,), (2.0,), 0.0)
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
