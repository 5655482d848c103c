"""Column kernels against the per-row check loop they replaced.

Every check runs over all its states as one group of a column kernel,
alone or with the other checks of a `verify` stage.  Its reports must
match, bit for bit, those of the per-row loop in helpers.py, which
calls the scalar kernel of the same trees once per state: the same
samples, failed samples, max and mean residual, including where rows
raise, give NaN or infinity, or hold signed zeros.  A group of a kernel
of many groups gives what a kernel of that group alone gives.
"""

import builtins
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    chart_kernel,
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
    integrate_fixed,
    load_document,
    parse,
    sample_states,
)
from contactmech import expr as ex
from contactmech.analysis import _sampled_report
from contactmech.calculus import _dissipation_trees
from contactmech.expr import literal, variable
from contactmech.cli import main

TOL = 1e-8
DATA = Path(__file__).resolve().parent / "data"


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
    scalar = chart_kernel(sys, trees)
    [(outputs, failed)] = chart_kernel(sys, [trees])(*rows.T)
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
    [(outputs, failed)] = chart_kernel(sys, [trees])(*rows.T)
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
        "q^3",  # (1e200)^3: math.pow overflows
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


def test_an_overflowing_square_is_inf_on_an_unmasked_row(line):
    # a square is one multiply in both forms, so (1e200)^2 overflows to
    # inf as 1e200*1e200 does, on a row that stays unmasked
    square = parse("q^2", line.chart_names)
    assert square.evaluate({"q": 1e200}) == math.inf
    rows = _q_rows()
    assert _assert_rows_match(line, (square,), rows) == 0
    [((column,), failed)] = chart_kernel(line, [(square,)])(*rows.T)
    assert column[_Q_EDGES.index(1e200)] == math.inf
    assert not failed.any()


@pytest.mark.parametrize("exponent", [math.inf, -math.inf, math.nan])
def test_a_negative_base_with_a_non_finite_exponent_fails_in_every_form(
    line, exponent
):
    # a negative base takes an integer exponent only; math.pow would give
    # inf, 0.0 or NaN
    power = parse("q^p_q", line.chart_names)
    message = f"^negative base -1.5 with non-finite exponent {re.escape(repr(exponent))}$"
    with pytest.raises(DomainError, match=message):
        power.evaluate({"q": -1.5, "p_q": exponent})
    with pytest.raises(DomainError, match=message):
        chart_kernel(line, (power,))(-1.5, exponent, 0.0)
    rows = np.array([(q, exponent, 0.25) for q in (-1.5, 1.5, 0.5, -2.0)])
    assert _assert_rows_match(line, (power,), rows) == 2


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
    [(outputs, _)] = chart_kernel(line, [trees])(*rows.T)
    assert [column.shape for column in outputs] == [(3,)] * len(trees)
    _assert_rows_match(line, trees, rows)
    _assert_report_matches(line, trees, rows)


def test_signed_zero_inputs_keep_their_sign(line):
    rows = np.array([(-0.0, -0.0, -0.0), (0.0, -0.0, 0.0)])
    trees = tuple(map(variable, line.chart_names)) + (parse("-q", ("q",)),)
    [(outputs, failed)] = chart_kernel(line, [trees])(*rows.T)
    assert not failed.any()
    assert [c.tolist()[0] for c in outputs] == [-0.0, -0.0, -0.0, 0.0]
    assert math.copysign(1.0, outputs[0][0]) == -1.0
    _assert_rows_match(line, trees, rows)
    _assert_report_matches(line, trees, rows)


def _assert_quantity_matches(sys, quantity, rows):
    got = check_quantity(sys, quantity, rows, TOL)
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
    [((sign,), _)] = chart_kernel(
        line, [(quantity.expression.derivative("q"),)]
    )(*rows.T)
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
        point_map = PointMap(f"Phi{k}", _random_expressions(rng, sys, sys.dim, 2))
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


def test_a_column_kernel_drops_each_column_after_its_last_read():
    # every product and partial sum of a 1,000-term sum is read once, so
    # the kernel holds a few columns at a time, not one per step
    tree = parse(" + ".join(f"{k}*x" for k in range(1, 1001)), ("x",))
    kernel = ex._compile_kernel([(tree,)], ("x",), {})
    x = np.linspace(-1.0, 1.0, 10_000)
    tracemalloc.start()
    try:
        [((values,), mask)] = kernel(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * x.nbytes
    assert not mask.any()
    scalar = ex._compile_kernel(tree, ("x",), {})
    assert values.tolist() == list(map(scalar, x.tolist()))


def test_an_output_read_by_a_later_step_is_kept():
    x, y = ex.variable("x"), ex.variable("y")
    product = ex.mul(x, y)
    roots = (product, ex.add(product, x), ex.mul(ex.add(x, y), y))
    kernel = ex._compile_kernel([roots], ("x", "y"), {})
    scalar = ex._compile_kernel(roots, ("x", "y"), {})
    cols = np.array([1.5, -2.0, 0.25]), np.array([3.0, 0.5, -4.0])
    [(values, mask)] = kernel(*cols)
    assert not mask.any()
    rows = list(map(scalar, *(c.tolist() for c in cols)))
    assert [v.tolist() for v in values] == [list(col) for col in zip(*rows)]


# ---------------------------------------------------------------------------
# One kernel of many groups: each group as its own kernel would give it
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def systems():
    return _systems()


def _bits(column) -> list:
    return np.asarray(column, dtype=float).view(np.uint64).tolist()


@settings(max_examples=60, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 5))
def test_a_kernel_of_groups_gives_each_group_its_own_kernel(systems, seed, count):
    rng = np.random.default_rng(seed)
    sys = systems[seed % 2]
    groups = [
        _random_expressions(rng, sys, int(rng.integers(1, 4)), 3)
        for _ in range(count)
    ]
    # a later group that reads the first group's tree shares its steps
    shared = groups[0][0]
    (other,) = _random_expressions(rng, sys, 1, 2)
    groups.append((ex.div(other, shared), ex.call("sqrt", shared)))
    rows = edge_rows(rng, sys.dim, 16)
    fused = chart_kernel(sys, groups)(*rows.T)
    assert len(fused) == len(groups)
    for group, (values, mask) in zip(groups, fused):
        [(alone, alone_mask)] = chart_kernel(sys, [group])(*rows.T)
        assert mask.dtype == bool and mask.tolist() == alone_mask.tolist()
        assert list(map(_bits, values)) == list(map(_bits, alone))


def test_each_group_masks_only_the_rows_its_own_trees_fail(line):
    q, p = variable("q"), variable("p_q")
    groups = [
        (q,),  # no guarded operation
        (ex.call("sqrt", q),),  # q < 0
        (ex.call("log", p), q),  # p_q <= 0
        (ex.div(q, ex.sub(q, literal(1.5))),),  # q = 1.5
        (ex.div(p, literal(2.0)),),  # a nonzero constant divisor never fails
        (ex.add(ex.call("sqrt", q), ex.call("log", p)),),  # shares two steps
    ]
    rows = np.array(
        [(1.5, 1.0, 0.0), (-1.0, 1.0, 0.0), (1.0, -1.0, 0.0), (2.0, 0.0, 0.0)]
    )
    kernel = chart_kernel(line, groups)
    masks = [mask.tolist() for _, mask in kernel(*rows.T)]
    assert masks == [
        [False, False, False, False],
        [False, True, False, False],
        [False, False, True, True],
        [True, False, False, False],
        [False, False, False, False],
        [False, True, True, True],
    ]


def test_every_check_of_a_spec_fails_only_its_own_rows(tmp_path):
    # H = p_q^2/2 + sqrt(q) + gamma*s is undefined where q < 0, which
    # fails both reports of the symmetry; the map q -> q/p_q fails where
    # H of the image is, q/p_q < 0, too; log(p_q) fails along the
    # trajectory once p_q turns negative, and the energy nowhere.  The
    # report's bytes are those of one kernel per check.
    spec = DATA / "mask_groups.yaml"
    report = tmp_path / "report.json"
    assert main(["verify", str(spec), "--tf", "3", "--report", str(report)]) == 0
    assert report.read_bytes() == (DATA / "mask_groups.report.json").read_bytes()

    checks = {c["name"]: c for c in json.loads(report.read_text())["checks"]}
    failed = {
        "s_shift": checks["s_shift"]["contact"]["failed_samples"],
        "log_momentum": checks["log_momentum"]["report"]["conserved"]["failed_samples"],
        "energy": checks["energy"]["report"]["conserved"]["failed_samples"],
        "skew": checks["skew"]["report"]["failed_samples"],
    }
    assert failed == {"s_shift": 48, "log_momentum": 215, "energy": 0, "skew": 77}
    # ... and each equals the per-row loop over that check's trees alone
    doc = load_document(spec)
    sys = doc.system
    states = sample_states(sys, 100, 42).tolist()
    (field,) = [c.field for c in doc.symmetries]
    got = tuple(checks["s_shift"][k] for k in ("contact", "dynamical"))
    expected = reference_classify(sys, field, states, TOL)
    assert got == tuple(r.as_dict() for r in expected)
    (point_map,) = [c.point_map for c in doc.maps]
    expected = reference_map(sys, point_map, states, TOL).as_dict()
    assert checks["skew"]["report"] == expected
    rows = integrate_fixed(sys, doc.initial_state, 0.0, 3.0, 0.01).states.tolist()
    for cand in doc.quantities:
        expected = reference_quantity(sys, cand.quantity, rows, TOL)
        report = checks[cand.name]["report"]
        assert (report["conserved"], report["dissipated"]) == tuple(
            r.as_dict() for r in expected
        )


# ---------------------------------------------------------------------------
# The reduction to a report, against the per-row loop
# ---------------------------------------------------------------------------

#: residuals at every edge: NaN, infinities, subnormals, signed zeros, and
#: magnitudes whose sum depends on the order of the additions
_RESIDUALS = st.one_of(
    st.floats(),
    st.sampled_from(
        (0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.2250738585072014e-308,
         1e-8, -1e-8, 1e16, 1.0, 1e308)
    ),
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data())
@example(data=None)
def test_a_report_reduces_its_outputs_as_the_row_loop_does(data):
    if data is None:  # a sum that only adding left to right rounds so
        outputs, failed = [[1e16] + [1.0] * 39], [False] * 40
    else:
        rows = data.draw(st.integers(1, 40))
        width = data.draw(st.integers(1, 3))
        column = st.lists(_RESIDUALS, min_size=rows, max_size=rows)
        outputs = [data.draw(column) for _ in range(width)]
        some = st.lists(st.booleans(), min_size=rows, max_size=rows)
        failed = data.draw(some | st.just([True] * rows))

    def residual(k):
        if failed[k]:
            raise DomainError("masked")
        values = [abs(column[k]) for column in outputs]
        return (math.nan if math.isnan(sum(values)) else max(values),)

    (expected,) = reference_sampled_reports(
        "F", ("kind",), residual, list(range(len(failed))), TOL
    )
    got = _sampled_report(
        "F", "kind", tuple(map(np.array, outputs)), np.array(failed), TOL
    )
    assert report_bits(got) == report_bits(expected)
    assert type(got.samples) is int and type(got.failed_samples) is int
