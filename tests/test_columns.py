"""Column kernels against the per-row check loop they replaced.

Every check runs one column kernel over all its states.  Its reports
must match, bit for bit, those of the per-row loop in helpers.py, which
calls the scalar kernel of the same trees once per state: the same
samples, failed samples, max and mean residual, including where rows
raise, give NaN or infinity, or hold signed zeros.
"""

import builtins
import math

import numpy as np
import pytest

from helpers import (
    edge_rows,
    edge_source,
    reference_classify,
    reference_map,
    reference_max_abs,
    reference_quantity,
    reference_sampled_reports,
    report_bits,
)
from contactmech import (
    ContactSystem,
    DomainError,
    PointMap,
    ScalarField,
    VectorField,
    builtin,
    check_contact_symmetry_map,
    check_quantity,
    classify_symmetry,
    parse,
)
from contactmech import expr as ex
from contactmech.analysis import _sampled_report
from contactmech.calculus import _dissipation_trees
from contactmech.expr import literal, variable
from contactmech.cli import main
from contactmech.integrate import Trajectory

TOL = 1e-8


def _line() -> ContactSystem:
    return ContactSystem(
        ("q",), "p_q^2/(2*m) + cos(q) + gamma*s", {"m": 1.5, "gamma": 0.5}
    )


@pytest.fixture(scope="module")
def line():
    return _line()


def _systems() -> tuple:
    return _line(), builtin("gravity_friction")


#: q runs over the edges of every guarded operation; p_q and s stay tame
_Q_EDGES = (1.5, 0.0, -0.0, -1.0, -2.0, 800.0, 1e200, math.inf, -math.inf, math.nan)


def _q_rows(values=_Q_EDGES) -> np.ndarray:
    return np.array([(q, 0.5, 0.25) for q in values])


def _assert_rows_match(sys, trees, rows) -> int:
    """The column kernel against the scalar kernel, row by row: the mask
    is set exactly where the scalar kernel raises, and the values are
    bit-identical elsewhere.  Returns the number of masked rows."""
    scalar = sys._compile_chart(trees)
    outputs, failed = sys._compile_chart(trees, columns=True)(*rows.T)
    assert failed.shape == (len(rows),) and failed.dtype == bool
    assert all(column.shape == (len(rows),) for column in outputs)
    for k, row in enumerate(rows.tolist()):
        try:
            expected = scalar(*row)
        except DomainError:
            assert failed[k], row
            continue
        assert not failed[k], row
        got = [float(column[k]) for column in outputs]
        assert [v.hex() for v in got] == [v.hex() for v in expected], row
    return int(failed.sum())


def _assert_report_matches(sys, trees, rows):
    """One report from the column kernel against the per-row loop."""
    (expected,) = reference_sampled_reports(
        "trees", ("kind",), reference_max_abs(sys, trees), rows.tolist(), TOL
    )
    outputs, failed = sys._compile_chart(trees, columns=True)(*rows.T)
    got = _sampled_report("trees", "kind", outputs, failed, TOL)
    assert report_bits(got) == report_bits(expected)
    return got


@pytest.mark.parametrize(
    "source",
    [
        "q/0",  # x/0 raises for finite, infinite, NaN and zero x
        "1/q",
        "sqrt(q)",
        "log(q)",  # log(0) and log(-0.0)
        "exp(q)",  # exp(800)
        "q^0.5",  # (-2)^0.5
        "q^p_q",  # a variable exponent, p_q = 0.5
        "q^-1",  # 0^-1
        "q^2",  # (1e200)^2
        "sin(q)",
        "cos(q)",
        # constant subtrees that fail are left in the code with float
        # arguments, and fail on every row
        "q + 1/0",
        "q*log(0)",
        "q + exp(800)",
        "q + 0^-1",
        "q + (-2)^0.5",
        "q + sqrt(-1)",
    ],
)
def test_each_guarded_operation_fails_the_rows_the_scalar_kernel_does(line, source):
    expression = parse(source, line.chart_names)
    rows = _q_rows()
    for trees in ((expression,), (variable("p_q"), expression)):
        assert _assert_rows_match(line, trees, rows) > 0
        report = _assert_report_matches(line, trees, rows)
        assert report.failed_samples > 0


def test_a_nan_after_the_first_output_fails_its_row(line):
    # q - q is NaN only where q is infinite; the first output is finite there
    trees = (variable("p_q"), parse("q - q", ("q",)))
    rows = _q_rows((1.5, math.inf, -math.inf, 2.0))
    assert _assert_rows_match(line, trees, rows) == 0
    report = _assert_report_matches(line, trees, rows)
    assert (report.samples, report.failed_samples) == (2, 2)


@pytest.mark.parametrize(
    "trees",
    [
        (literal(2.0), variable("q")),
        (literal(0.0),),
        (parse("exp(1)", ()), variable("s")),
    ],
    ids=["literal-first", "all-literal", "folded-call"],
)
def test_folded_outputs_are_broadcast_to_every_row(line, trees):
    rows = _q_rows((1.5, -0.0, math.nan))
    outputs, _ = line._compile_chart(trees, columns=True)(*rows.T)
    assert [column.shape for column in outputs] == [(3,)] * len(trees)
    _assert_rows_match(line, trees, rows)
    _assert_report_matches(line, trees, rows)


def test_signed_zero_inputs_keep_their_sign(line):
    rows = np.array([(-0.0, -0.0, -0.0), (0.0, -0.0, 0.0)])
    trees = tuple(map(variable, line.chart_names)) + (parse("-q", ("q",)),)
    outputs, failed = line._compile_chart(trees, columns=True)(*rows.T)
    assert not failed.any()
    assert [c.tolist()[0] for c in outputs] == [-0.0, -0.0, -0.0, 0.0]
    assert math.copysign(1.0, outputs[0][0]) == -1.0
    _assert_rows_match(line, trees, rows)
    _assert_report_matches(line, trees, rows)


def _trajectory(sys, rows) -> Trajectory:
    return Trajectory(sys.chart_names, np.arange(float(len(rows))), rows, "file")


def _assert_quantity_matches(sys, quantity, rows):
    got = check_quantity(sys, quantity, _trajectory(sys, rows), TOL)
    expected = reference_quantity(sys, quantity, rows.tolist(), TOL)
    assert (report_bits(got.conserved), report_bits(got.dissipated)) == tuple(
        map(report_bits, expected)
    )
    return got


def test_sign_is_zero_at_zero_and_at_nan(line):
    # d|q|/dq is sign(q); sign(NaN) = 0 makes the conserved rate 0 there,
    # while the dissipated one adds gamma*|NaN| and fails that row only
    quantity = ScalarField("|q|", parse("abs(q)", ("q",)))
    rows = _q_rows((0.0, -0.0, math.nan, 1.0, -1.0))
    (sign,) = line._compile_chart(
        (quantity.expression.derivative("q"),), columns=True
    )(*rows.T)[0]
    assert sign.tolist() == [0.0, 0.0, 0.0, 1.0, -1.0]
    assert math.copysign(1.0, sign[1]) == 1.0
    report = _assert_quantity_matches(line, quantity, rows)
    assert report.conserved.failed_samples == 0
    assert report.dissipated.failed_samples == 1


def test_sin_of_an_infinite_trajectory_cell_fails_the_row(line):
    # the rate of cos(q) is -sin(q) * p_q/m
    quantity = ScalarField("cos", parse("cos(q)", ("q",)))
    report = _assert_quantity_matches(line, quantity, _q_rows((1.0, math.inf, 2.0)))
    assert report.conserved.failed_samples == report.dissipated.failed_samples == 1


def test_one_row_trajectory(line):
    quantity = ScalarField("q", parse("q*p_q", ("q", "p_q")))
    report = _assert_quantity_matches(line, quantity, _q_rows((0.75,)))
    assert report.conserved.samples == report.dissipated.samples == 1


def _random_expressions(rng, sys, count: int, depth: int) -> tuple:
    return tuple(
        parse(edge_source(rng, sys.chart_names, depth), sys.chart_names)
        for _ in range(count)
    )


def test_random_quantities_match_the_row_loop():
    rng = np.random.default_rng(2024)
    systems = _systems()
    failing = 0
    for k in range(300):
        sys = systems[k % 2]
        (expression,) = _random_expressions(rng, sys, 1, 3)
        rows = edge_rows(rng, sys.dim, 12)
        report = _assert_quantity_matches(sys, ScalarField(f"F{k}", expression), rows)
        failing += report.conserved.failed_samples > 0
    # the edge values must reach the failure paths, not only the happy one
    assert failing >= 100


def test_random_fields_match_the_row_loop():
    rng = np.random.default_rng(2025)
    systems = _systems()
    failing = 0
    for k in range(300):
        sys = systems[k % 2]
        field = VectorField(f"Y{k}", _random_expressions(rng, sys, sys.dim, 2))
        rows = edge_rows(rng, sys.dim, 8)
        expected = reference_classify(sys, field, rows.tolist(), TOL)
        got = classify_symmetry(sys, field, rows, TOL)
        assert tuple(map(report_bits, got)) == tuple(map(report_bits, expected))
        failing += got[0].failed_samples > 0
    assert failing >= 100


def test_random_maps_match_the_row_loop():
    rng = np.random.default_rng(2026)
    systems = _systems()
    failing = 0
    for k in range(300):
        sys = systems[k % 2]
        point_map = PointMap(
            f"Phi{k}", sys.chart_names, _random_expressions(rng, sys, sys.dim, 2)
        )
        rows = edge_rows(rng, sys.dim, 8)
        got = check_contact_symmetry_map(sys, point_map, rows, TOL)
        expected = reference_map(sys, point_map, rows.tolist(), TOL)
        assert report_bits(got) == report_bits(expected)
        failing += got.failed_samples > 0
    assert failing >= 100


def test_random_check_trees_match_the_scalar_kernel_row_by_row():
    rng = np.random.default_rng(2027)
    systems = _systems()
    masked = 0
    for k in range(100):
        sys = systems[k % 2]
        (expression,) = _random_expressions(rng, sys, 1, 3)
        rows = edge_rows(rng, sys.dim, 12)
        masked += _assert_rows_match(sys, _dissipation_trees(sys, expression), rows)
    assert masked > 0


def test_column_kernels_compile_nothing(tmp_path, monkeypatch):
    compiled = []

    def counting(source, *args, **kwargs):
        compiled.append(source)
        return builtins.compile(source, *args, **kwargs)

    monkeypatch.setattr(ex, "compile", counting, raising=False)
    report = tmp_path / "report.json"
    assert main(["verify", "specs/gravity_friction.yaml", "--report", str(report)]) == 0
    # at most the scalar flow kernel (for the reference trajectory) and H;
    # every check ran a column kernel
    assert 1 <= len(compiled) <= 2
    assert all(src.startswith("def _fn(v0, v1, v2, v3, v4):") for src in compiled)
