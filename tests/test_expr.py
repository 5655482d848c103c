"""Parser, printer, evaluator, and symbolic differentiation."""

import ast
import copy
import gc
import json
import math
import pickle
import sys
import threading
import time
import weakref
from itertools import chain

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from helpers import finite_difference
from contactmech import (
    ContactSystem,
    DomainError,
    MissingBindingError,
    ParseError,
    ScalarField,
    UnknownNameError,
    VectorField,
    classify_symmetry,
    load_document,
    parse,
    sample_states,
)
from contactmech import analysis, integrate
from contactmech import expr as ex
from contactmech.cli import main
from contactmech.specdoc import parse_document, write_document
from contactmech.expr import (
    add,
    call,
    div,
    literal,
    mul,
    neg,
    power,
    sub,
    substitute,
    variable,
)

GRAVITY_NAMES = ("x", "y", "p_x", "p_y", "s", "m", "g", "gamma")
GRAVITY_H = "(p_x^2 + p_y^2)/(2*m) + m*g*y + gamma*s"
BASE = {
    "x": 0.0,
    "y": 0.0,
    "p_x": 1.0,
    "p_y": 1.0,
    "s": 0.0,
    "m": 1.0,
    "g": 9.8,
    "gamma": 0.5,
}


def test_evaluate_hamiltonian_at_base_state():
    expr = parse(GRAVITY_H, GRAVITY_NAMES)
    assert expr.evaluate(BASE) == 1.0


def test_names_are_collected_from_the_source():
    expr = parse(GRAVITY_H, GRAVITY_NAMES)
    assert expr.names == frozenset(GRAVITY_NAMES) - {"x"}


@pytest.mark.parametrize(
    "var, expected",
    [("s", 0.5), ("y", 9.8), ("p_x", 1.0), ("p_y", 1.0), ("x", 0.0)],
)
def test_differentiate_hamiltonian(var, expected):
    expr = parse(GRAVITY_H, GRAVITY_NAMES)
    assert expr.derivative(var).evaluate(BASE) == expected


def test_differentiate_product():
    expr = parse("q1*p_1", ("q1", "p_1"))
    assert expr.derivative("p_1").evaluate({"q1": 3.0, "p_1": 7.0}) == 3.0
    assert expr.derivative("q1").evaluate({"q1": 3.0, "p_1": 7.0}) == 7.0


@pytest.mark.parametrize(
    "source, expected",
    [
        ("2^3^2", 512.0),       # right-associative
        ("-2^2", -4.0),         # power binds tighter than unary minus
        ("(-2)^2", 4.0),
        ("2*3 + 4", 10.0),
        ("2 + 3*4", 14.0),
        ("6/3/2", 1.0),
        ("2^-1", 0.5),
        ("2 - -3", 5.0),
        ("-(2 + 3)", -5.0),
        ("1e-3 + 2.5E+2", 250.001),
        ("sqrt(4) + abs(-3)", 5.0),
    ],
)
def test_precedence_and_literals(source, expected):
    assert parse(source, ()).evaluate({}) == expected


def test_function_values():
    expr = parse("sin(x)^2 + cos(x)^2", ("x",))
    assert expr.evaluate({"x": 0.7}) == pytest.approx(1.0, abs=1e-15)
    assert parse("exp(log(5))", ()).evaluate({}) == pytest.approx(5.0, rel=1e-15)


def test_power_with_variable_exponent():
    expr = parse("2^x", ("x",))
    assert expr.evaluate({"x": 3.0}) == pytest.approx(8.0, rel=1e-14)
    assert expr.derivative("x").evaluate({"x": 3.0}) == pytest.approx(
        8.0 * math.log(2.0), rel=1e-12
    )


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse("q1 + * 2", ("q1",))
    assert err.value.position == 5
    assert err.value.source == "q1 + * 2"


def test_implicit_multiplication_is_rejected():
    with pytest.raises(ParseError) as err:
        parse("2x", ("x",))
    assert err.value.position == 1


@pytest.mark.parametrize("source", ["", "   ", "(p_x", "x +", "1.2.3", "1e+", "()"])
def test_malformed_sources(source):
    with pytest.raises(ParseError):
        parse(source, ("x", "p_x"))


@pytest.mark.parametrize(
    "source, message, position",
    [
        ("x $ 1", "unexpected character '$'", 2),
        ("1e400", "numeric literal '1e400' overflows", 0),
        ("(x", "expected ')', found 'end of input'", 2),
        ("sin(x", "expected ')', found 'end of input'", 5),
        ("sin(x y)", "expected ')', found 'y'", 6),
        # every nested operand passes through unary: parentheses, calls,
        # minus signs and exponents all count
        ("(" * 100 + "x" + ")" * 100, "expression nests too deeply", 100),
        ("sin(" * 100 + "x" + ")" * 100, "expression nests too deeply", 400),
        ("-" * 100 + "x", "expression nests too deeply", 100),
        ("x" + "^x" * 100, "expression nests too deeply", 200),
    ],
)
def test_parse_errors_name_their_position(source, message, position):
    with pytest.raises(ParseError) as err:
        parse(source, ("x", "y"))
    assert str(err.value) == f"{message} (position {position})"
    assert err.value.position == position


def test_nesting_up_to_the_bound_parses():
    depth = ex._MAX_PARSE_DEPTH - 1  # the whole expression is one level
    assert parse("(" * depth + "x" + ")" * depth, ("x",)) is variable("x")
    assert parse("-" * depth + "x", ("x",)).evaluate({"x": 2.0}) == -2.0


def test_unknown_name_error_carries_the_name():
    with pytest.raises(UnknownNameError) as err:
        parse("x + foo", ("x",))
    assert err.value.name == "foo"
    assert isinstance(err.value, ParseError)


def test_declared_names_may_not_shadow_functions():
    with pytest.raises(ValueError):
        parse("sin + 1", ("sin",))


def test_missing_binding():
    expr = parse("x + y", ("x", "y"))
    with pytest.raises(MissingBindingError) as err:
        expr.evaluate({"x": 1.0})
    assert err.value.name == "y"


def test_unbound_name_is_reported_before_evaluation():
    # log(-1) would raise first if evaluation started; of the unbound
    # z and y, the first in sorted order is reported
    expr = parse("log(x)*z*y", ("x", "y", "z"))
    with pytest.raises(MissingBindingError) as err:
        expr.evaluate({"x": -1.0})
    assert err.value.name == "y"


@pytest.mark.parametrize(
    "source, bindings",
    [
        ("log(x)", {"x": 0.0}),
        ("log(x)", {"x": -1.0}),
        ("sqrt(x)", {"x": -1.0}),
        ("1/x", {"x": 0.0}),
        ("x^0.5", {"x": -2.0}),
        ("exp(x)", {"x": 1000.0}),
    ],
)
def test_domain_errors(source, bindings):
    with pytest.raises(DomainError):
        parse(source, ("x",)).evaluate(bindings)


def test_abs_derivative_uses_the_sign():
    expr = parse("abs(x)", ("x",))
    assert expr.derivative("x").evaluate({"x": -3.0}) == -1.0
    assert expr.derivative("x").evaluate({"x": 3.0}) == 1.0
    assert expr.derivative("x").evaluate({"x": 0.0}) == 0.0


def test_derivative_with_respect_to_absent_variable_is_zero():
    expr = parse("a + 1", ("a", "b"))
    assert expr.derivative("b").evaluate({"a": 1.0, "b": 2.0}) == 0.0


def test_dual_derivatives_match_central_differences():
    for expr, bindings in helpers.derivative_cases(100, seed=2):
        for name in sorted(expr.names):
            exact = expr.derivative(name).evaluate(bindings)
            approx = finite_difference(expr, name, bindings)
            assert abs(exact - approx) <= 1e-6 * max(1.0, abs(approx)), (
                f"{expr} d/d{name} at {bindings}: symbolic={exact} fd={approx}"
            )


def test_second_derivative_through_nested_duals():
    # d/dx of d(x^3)/dx is 6x; the first derivative is an ordinary
    # expression, so differentiating it again is the same rewrite.
    cubed = parse("x^3", ("x",))
    first = cubed.derivative("x")
    assert first.evaluate({"x": 2.0}) == 12.0
    assert first.derivative("x").evaluate({"x": 2.0}) == 12.0
    assert first.derivative("x").evaluate({"x": 2.0}) == 12.0


def test_partial_node_prints_but_does_not_parse():
    # A derivative prints as ordinary source that parses back to the same
    # values; only the private sign (from abs) prints but does not parse.
    first = parse("x^2 + sin(x)", ("x",)).derivative("x")
    reparsed = parse(str(first), ("x",))
    for x in (-1.5, 0.3, 2.0):
        assert reparsed.evaluate({"x": x}) == first.evaluate({"x": x})
    text = str(parse("abs(x)", ("x",)).derivative("x"))
    assert text == "sign(x)"
    with pytest.raises(ParseError):
        parse(text, ("x",))


def test_derivative_is_cached_per_expression():
    expr = parse("x*y", ("x", "y"))
    assert expr.derivative("x") is expr.derivative("x")
    assert str(expr.derivative("x")) == "y"
    assert str(expr.derivative("z")) == "0.0"


def test_parameter_exponent_does_not_take_a_logarithm():
    # n does not depend on q, so d(q^n)/dq = n*q^(n-1) holds for q < 0.
    expr = parse("q^n", ("q", "n"))
    assert expr.derivative("q").evaluate({"q": -2.0, "n": 2.0}) == -4.0
    assert "log" not in str(expr.derivative("q"))
    assert "log" in str(expr.derivative("n"))


def test_derivatives_match_sympy():
    symbols = {name: sympy.Symbol(name) for name in helpers.NAMES}
    sympy_names = {**symbols, "abs": sympy.Abs}
    for expr, bindings in helpers.derivative_cases(100, seed=5):
        reference = sympy.sympify(
            str(expr).replace("^", "**"), locals=sympy_names
        )
        subs = {symbols[k]: v for k, v in bindings.items()}
        for name in sorted(expr.names):
            exact = expr.derivative(name).evaluate(bindings)
            expected = float(sympy.diff(reference, symbols[name]).evalf(subs=subs))
            assert abs(exact - expected) <= 1e-12 * max(1.0, abs(expected)), (
                f"{expr} d/d{name} at {bindings}: symbolic={exact} sympy={expected}"
            )


ROUND_TRIP_SOURCES = [
    "x - (y - z)",
    "x - y - z",
    "(x + y)*z",
    "x*(y + z)",
    "x/y/z",
    "x/(y/z)",
    "-x^2",
    "(-x)^2",
    "x^2^3",
    "sin(x)*cos(y) + exp(-z)",
    "1/(1 + x^2)",
    "abs(x - y)",
    "-(x + y)^2",
    "sqrt(x)*log(y + 3)",
    "x*y^2 - -z",
    "x - -2",
]


@pytest.mark.parametrize("source", ROUND_TRIP_SOURCES)
def test_print_parse_round_trip(source):
    names = ("x", "y", "z")
    first = parse(source, names)
    second = parse(str(first), names)
    rng = np.random.default_rng(7)
    for _ in range(20):
        bindings = {name: float(rng.uniform(0.5, 2.0)) for name in names}
        assert first.evaluate(bindings) == second.evaluate(bindings)
    assert str(second) == str(first)


def test_expression_equality_and_hash():
    a = parse("x + 1", ("x",))
    b = parse("x+1", ("x",))
    c = parse("1 + x", ("x",))
    assert a == b
    assert hash(a) == hash(b)
    assert a != c


def test_substitute_variables():
    expr = parse("x + 1", ("x",))
    out = substitute(expr, {"x": parse("y*y", ("y",))})
    assert out.evaluate({"y": 3.0}) == 10.0
    assert out.names == frozenset({"y"})


def test_substitute_through_a_negation():
    out = substitute(parse("-x", ("x",)), {"x": parse("y + 1", ("y",))})
    assert out is neg(parse("y + 1", ("y",)))
    assert out.evaluate({"y": 2.0}) == -3.0


def test_substitute_under_partial_is_rejected():
    # A derivative is an ordinary expression, so substitution into it works.
    inner = parse("x^2", ("x",)).derivative("x")
    out = substitute(inner, {"x": parse("y + 1", ("y",))})
    assert out.evaluate({"y": 2.0}) == 6.0
    assert out.names == frozenset({"y"})


def test_builder_folding():
    x = variable("x")
    assert str(add(x, literal(0.0))) == "x"
    assert str(mul(literal(1.0), x)) == "x"
    assert str(mul(literal(0.0), x)) == "0.0"
    assert str(neg(neg(x))) == "x"
    assert str(sub(x, literal(0.0))) == "x"
    assert str(add(literal(2.0), literal(3.0))) == "5.0"
    assert str(div(x, literal(1.0))) == "x"
    assert str(power(literal(2.0), literal(3.0))) == "8.0"


def test_call_builds_the_parsed_node():
    assert call("sin", variable("x")) is parse("sin(x)", ("x",))
    assert call("exp", 0).evaluate({}) == 1.0
    with pytest.raises(ValueError, match="unknown function 'erf'"):
        call("erf", variable("x"))


def test_builder_keeps_division_by_zero_in_the_tree():
    expr = div(literal(1.0), literal(0.0))
    with pytest.raises(DomainError):
        expr.evaluate({})


@pytest.mark.parametrize(
    "build, a, b, value",
    [
        (add, 1e308, 1e308, math.inf),
        (sub, -1e308, 1e308, -math.inf),
        (mul, 1e200, 1e200, math.inf),
        (div, 1e300, 1e-300, math.inf),
    ],
)
def test_builder_keeps_a_non_finite_constant_in_the_tree(build, a, b, value):
    # builders fold finite values only, as kernels do; the node overflows
    # again when it is evaluated
    tree = build(literal(a), literal(b))
    assert type(tree) is ex.Bin
    assert tree.evaluate({}) == value


def test_builder_keeps_an_overflowing_power_in_the_tree():
    tree = power(literal(10.0), literal(400.0))
    assert type(tree) is ex.Bin
    with pytest.raises(DomainError, match="^overflow: "):
        tree.evaluate({})


def test_literal_rejects_non_finite():
    with pytest.raises(ValueError):
        literal(float("inf"))
    with pytest.raises(ValueError):
        literal(float("nan"))


def test_builders_reject_a_non_finite_number():
    with pytest.raises(ValueError, match="finite"):
        add(variable("x"), float("inf"))
    with pytest.raises(ValueError, match="finite"):
        mul(float("nan"), variable("x"))


def test_finite_difference_reports_a_missing_binding():
    with pytest.raises(MissingBindingError) as err:
        finite_difference(parse("x^2", ("x",)), "x", {})
    assert err.value.name == "x"


def test_constant_power_fold_reports_domain_error():
    # a constant power that raises is left in the tree, as 1/0 is, so
    # evaluating it reports the domain error
    with pytest.raises(DomainError):
        power(literal(-2.0), literal(0.5)).evaluate({})


def test_finite_difference_default_step():
    expr = parse("x^2", ("x",))
    assert finite_difference(expr, "x", {"x": 3.0}) == pytest.approx(6.0, abs=1e-9)


finite_floats = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(x=finite_floats, y=finite_floats)
def test_dual_product_rule_is_exact(x, y):
    expr = parse("x*y + y^2", ("x", "y"))
    assert expr.derivative("y").evaluate({"x": x, "y": y}) == x + 2.0 * y


@settings(max_examples=50, derandomize=True, deadline=None)
@given(x=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
def test_dual_chain_rule_matches_closed_form(x):
    expr = parse("sin(x^2)", ("x",))
    assert expr.derivative("x").evaluate({"x": x}) == pytest.approx(
        2.0 * x * math.cos(x * x), rel=1e-12, abs=1e-12
    )


# ---------------------------------------------------------------------------
# Hash-consed nodes
# ---------------------------------------------------------------------------


def test_equal_sources_parse_to_one_root():
    names = ("x", "y", "k")
    first = parse("k*(x - y)^2/2 + sin(x)*exp(-y)", names)
    second = parse("k * (x-y)^2 / 2 + sin(x) * exp(-y)", names)
    assert first is second
    assert first.lhs.lhs.rhs.lhs is parse("x - y", names)


def test_signed_zero_literals_stay_apart():
    assert literal(-0.0) != literal(0.0)
    assert literal(-0.0) is not literal(0.0)
    assert literal(0.0) == literal(0.0)
    assert hash(literal(-0.0)) == hash(literal(-0.0))
    assert str(literal(-0.0)) == "-0.0"


class _SlowTable(dict):
    """An intern table that yields to other threads before each insert."""

    def __setitem__(self, key, ref):
        time.sleep(0.001)
        super().__setitem__(key, ref)


def test_threads_intern_equal_trees_to_one_node(monkeypatch):
    table = _SlowTable()
    table.update(ex._NODES)
    monkeypatch.setattr(ex, "_NODES", table)
    sources = [f"x^{k} + sin(y*{k}) - exp(x/{k + 1})" for k in range(8)]
    roots = [None] * 4
    start = threading.Barrier(len(roots))

    def parse_all(slot):
        start.wait(timeout=10)
        roots[slot] = [parse(src, ("x", "y")) for src in sources]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=parse_all, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for other in roots[1:]:
        assert all(a is b for a, b in zip(roots[0], other))


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda e: pickle.loads(pickle.dumps(e))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_a_copied_expression_is_the_same_node(clone):
    tree = parse("exp(x)*sin(y) + x^2/(1 - y)", ("x", "y"))
    assert clone(tree) is tree
    # filled caches are not part of the structure
    tree.derivative("x").derivative("y")
    tree.evaluate({"x": 0.5, "y": 0.25})
    assert clone(tree) is tree
    assert clone(tree.derivative("x")) is tree.derivative("x")
    assert clone(literal(-0.0)) is literal(-0.0)
    # a tree deeper than the recursion limit
    deep = parse(" + ".join(f"{k}*x" for k in range(2000)), ("x",))
    assert clone(deep) is deep


def test_documents_and_fields_with_expressions_copy():
    doc = load_document("specs/gravity_friction.yaml")
    assert copy.deepcopy(doc).system.hamiltonian is doc.system.hamiltonian
    field = ScalarField("f", parse("x + 1", ("x",)))
    clone = copy.deepcopy(field)
    assert clone == field and clone.expression is field.expression


def test_nodes_are_immutable():
    root = parse("x + 1", ("x",))
    with pytest.raises(AttributeError):
        root.op = "-"


def test_a_dropped_tree_leaves_the_intern_table():
    # exp and sin put the tree in its own derivatives, a reference cycle
    # through the memo that only the cyclic collector breaks
    tree = parse("exp(only_here*x) + sin(x)^3", ("only_here", "x"))
    tree.derivative("x").derivative("x")
    root = weakref.ref(tree)
    del tree
    gc.collect()
    assert root() is None
    gc.disable()  # no callback changes the table while it is read
    try:
        live = [ref() for ref in list(ex._NODES.values())]
    finally:
        gc.enable()
    assert not any(
        isinstance(node, ex.Var) and node.name == "only_here" for node in live
    )


def test_the_intern_table_holds_every_node_weakly():
    tree = parse("x*sin(y) - 3", ("x", "y"))
    gc.disable()
    try:
        table = dict(ex._NODES)
    finally:
        gc.enable()
    assert all(isinstance(ref, weakref.ref) for ref in table.values())
    assert all(ref.key is key for key, ref in table.items())
    assert tree in {ref() for ref in table.values()}


def test_a_node_keeps_only_its_derivatives_and_variable_bits():
    assert ex.Expression.__slots__ == ("_diffs", "_vars", "__weakref__")


class _SlowNames(list):
    """`expr._VAR_NAMES` that yields to other threads before each append."""

    def append(self, name):
        time.sleep(0.0001)
        super().append(name)


def test_threads_give_fresh_names_one_bit_each(monkeypatch):
    # more threads than cores make Vars of fresh names at once: a name
    # given its bit outside the lock would share it with another
    fresh = [[f"fresh_{k}_{j}_{time.monotonic_ns()}" for j in range(100)] for k in range(6)]
    names = ex._VAR_NAMES
    monkeypatch.setattr(ex, "_VAR_NAMES", _SlowNames(names))
    start = threading.Barrier(len(fresh))

    def make_all(batch):
        start.wait(timeout=10)
        for name in batch:
            variable(name)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=make_all, args=(batch,)) for batch in fresh]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
        names[len(names):] = ex._VAR_NAMES[len(names):]  # kept when restored
    assert len(ex._VAR_NAMES) == len(ex._VAR_BITS)
    for name in chain.from_iterable(fresh):
        assert ex._VAR_NAMES[ex._VAR_BITS[name].bit_length() - 1] == name
        assert variable(name).names == {name}


def _walked_names(tree) -> frozenset:
    """The names of the `Var` nodes a walk of ``tree`` meets."""
    seen = set()
    for node in ex._walk((tree,), seen):
        seen.add(node)
    return frozenset(node.name for node in seen if isinstance(node, ex.Var))


@settings(max_examples=50, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), depth=st.integers(0, 5))
def test_names_are_the_variables_a_walk_of_the_tree_meets(seed, depth):
    rng = np.random.default_rng(seed)
    names = ("x", "y", "c", f"fresh_{seed}_{depth}")
    trees = [parse(helpers.edge_source(rng, names, depth), names) for _ in range(3)]
    # a fresh name gets its bit in the thread that first makes its Var
    fresh = f"thread_{seed}_{depth}"
    source = f"({helpers.edge_source(rng, names, depth)}) * {fresh}"
    built = []
    worker = threading.Thread(target=lambda: built.append(parse(source, (*names, fresh))))
    worker.start()
    worker.join(timeout=10)
    trees += built
    trees += [tree.derivative(name) for tree in trees for name in names]
    trees.append(substitute(trees[0], {"x": trees[-1]}))
    assert len(built) == 1
    for tree in trees:
        assert tree.names == _walked_names(tree)


def test_no_node_outlives_a_chain_command(tmp_path):
    # the chain's trees are polynomial, so nothing holds a cycle and every
    # node a command made is freed when it returns, without the collector
    spec = tmp_path / "chain.yaml"
    write_document(helpers.chain_document(), spec)
    report = tmp_path / "report.json"
    gc.collect()
    before = len(ex._NODES)
    gc.disable()
    try:
        assert main(["verify", str(spec), "--tf", "1", "--report", str(report)]) == 0
        assert len(ex._NODES) == before
    finally:
        gc.enable()


def test_the_chain_energy_quantity_shares_the_derivatives_of_h():
    doc = parse_document(helpers.chain_document())
    h = doc.system.hamiltonian
    (energy,) = [c.quantity.expression for c in doc.quantities if c.name == "energy"]
    assert energy is h
    for var in doc.system.chart_names:
        assert energy.derivative(var) is h.derivative(var)
    assert energy.derivative("q2").derivative("q3") is h.derivative("q2").derivative("q3")


def test_verify_of_the_chain_applies_each_rule_once(tmp_path, monkeypatch):
    spec = tmp_path / "chain.yaml"
    write_document(helpers.chain_document(), spec)
    applied = []  # holds the nodes, so equal subtrees stay one node
    rule, diff = ex._diff_rule, ex._diff
    var = [None]  # the variable of the walk in progress

    def differentiating(node, name):
        var[0] = name
        return diff(node, name)

    def recording(node, *derivatives):
        applied.append((node, var[0]))
        return rule(node, *derivatives)

    monkeypatch.setattr(ex, "_diff", differentiating)
    monkeypatch.setattr(ex, "_diff_rule", recording)
    report = tmp_path / "report.json"
    assert main(["verify", str(spec), "--tf", "1", "--report", str(report)]) == 0
    # a subtree free of the variable is 0 without a rule, and every other
    # rule runs once per node and variable
    assert len(applied) > 100
    assert all(name in node.names for node, name in applied)
    assert len(set(applied)) == len(applied)


def test_the_chain_check_trees_differentiate_only_what_holds_the_variable(
    tmp_path, monkeypatch
):
    # a chart sum builds no term whose derivative is the literal 0, so
    # building every check tree of a verify takes O(dim) derivatives of
    # the chain, not one per term of every chart sum (46,617 at n = 50)
    n = 50
    spec = tmp_path / "chain.yaml"
    write_document(helpers.chain_document(n), spec)
    calls = [0]
    building = [False]
    diff, requested = ex._diff, analysis._requested

    def counting(root, var):
        calls[0] += building[0]
        return diff(root, var)

    def building_trees(sys, requests):
        building[0] = True
        try:
            return requested(sys, requests)
        finally:
            building[0] = False

    monkeypatch.setattr(ex, "_diff", counting)
    monkeypatch.setattr(analysis, "_requested", building_trees)
    report = tmp_path / "report.json"
    assert main(["verify", str(spec), "--tf", "1", "--report", str(report)]) == 0
    assert 0 < calls[0] <= 10 * (2 * n + 1)


def _count_calls(monkeypatch, helper: str) -> dict:
    """Calls of ``helper`` in the kernels compiled from now on, by form."""
    calls = {"scalar": 0, "column": 0}
    scalar, column = ex._OPS[helper]

    def counted_scalar(*args):
        calls["scalar"] += 1
        return scalar(*args)

    def counted_column(*args):
        calls["column"] += 1
        return column(*args)

    monkeypatch.setitem(ex._OPS, helper, (counted_scalar, counted_column))
    monkeypatch.setitem(ex._HELPERS, helper, counted_scalar)
    return calls


@pytest.mark.parametrize(
    "sources",
    [
        ("sin(x)*y", "sin(x) + 1"),
        ("sin(x)*sin(x)",),
        ("exp(sin(x)) + y*sin(x)", "sin(x)"),
    ],
)
def test_a_shared_subtree_runs_once_in_both_kernel_forms(monkeypatch, sources):
    calls = _count_calls(monkeypatch, "_sin")
    trees = tuple(parse(source, ("x", "y")) for source in sources)
    scalar = ex._compile_kernel(trees, ("x", "y"), {})
    column = ex._compile_kernel([trees], ("x", "y"), {})
    states = [(0.5, 2.0), (1.5, -1.0), (-3.0, 0.25)]
    expected = [scalar(*state) for state in states]
    assert calls == {"scalar": len(states), "column": 0}
    [(values, failed)] = column(*np.array(states).T)
    assert calls == {"scalar": len(states), "column": 1}
    assert not failed.any()
    assert [tuple(row) for row in np.array(values).T.tolist()] == expected


@pytest.mark.parametrize(
    "sources, code",
    [
        # used once: inlined, nothing bound
        (("sin(x)*y + x*y",), ([], ["_sin(v0) * v1 + v0 * v1"])),
        (
            ("sin(x)*y", "sin(x) + 1"),
            (["t0 = _sin(v0)"], ["t0 * v1", "t0 + 1.0"]),
        ),
        (("sin(x)", "sin(x)"), (["t0 = _sin(v0)"], ["t0", "t0"])),
        # bound where it first runs, before the later use inside sin
        (("exp(x)*sin(exp(x))",), (["t0 = _exp(v0)"], ["t0 * _sin(t0)"])),
        (
            ("sin(x*y)^2 + cos(x*y)",),
            # a square reads its base twice, so the base is bound
            (["t0 = v0 * v1", "t1 = _sin(t0)"], ["t1 * t1 + _cos(t0)"]),
        ),
        (
            ("exp(x)*exp(y) + exp(y)/exp(x)",),
            (["t0 = _exp(v0)", "t1 = _exp(v1)"], ["t0 * t1 + t1 / t0"]),
        ),
        # a folded subtree is a literal wherever it occurs
        (("x*2^3 + y*2^3",), ([], ["v0 * 8.0 + v1 * 8.0"])),
    ],
)
def test_the_scalar_source_binds_a_temporary_only_for_a_shared_subtree(sources, code):
    trees = [parse(source, ("x", "y")) for source in sources]
    emitter = ex._Emitter(("x", "y"), {})
    assert (emitter.lines, emitter.source(trees)) == code


def _deep_tree(rng, leaves: list, length: int):
    """A chain of ``length`` random operations, unfolded, on either side
    of the chain or around it, each with a leaf from ``leaves``."""
    tree = leaves[0]
    for k in range(length):
        leaf = leaves[k % len(leaves)]
        op = "+-*/^"[rng.integers(5)]
        pick = rng.integers(3)
        if pick == 0:
            tree = ex.Neg(tree)
        elif pick == 1:
            tree = ex.Bin(op, tree, leaf)
        else:
            tree = ex.Bin(op, leaf, tree)
    return tree


@settings(max_examples=100, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 3), depth=st.integers(1, 5))
def test_the_scalar_source_parses_as_if_every_operation_were_in_parentheses(
    seed, count, depth
):
    rng = np.random.default_rng(seed)
    names = ("x", "y", "c")
    trees = [parse(helpers.edge_source(rng, names, depth), names) for _ in range(count)]
    # a subtree read twice is bound; so is code nested past _MAX_NESTING
    trees.append(add(trees[0], mul(trees[-1], neg(trees[0]))))
    trees.append(_deep_tree(rng, trees, int(rng.integers(1, 3 * ex._MAX_NESTING))))
    constants = {"c": float(rng.choice([-2.5, -0.0, 0.5, 800.0]))}
    emitter = ex._Emitter(("x", "y"), constants)
    parts = emitter.source(trees)
    reference = helpers.parenthesized_source(ex._Emitter(("x", "y"), constants), trees)
    assert len(emitter.lines) == len(reference[0])
    for code, full in zip(emitter.lines + parts, reference[0] + reference[1]):
        assert ast.dump(ast.parse(code)) == ast.dump(ast.parse(full))
        assert len(code) <= len(full)


def _outcome(run) -> tuple:
    """``run()``'s value as its bits, or the kind of error it raised."""
    try:
        return "value", float.hex(run())
    except ZeroDivisionError:
        return "error", "division by zero"
    except OverflowError:
        return "error", "overflow"
    except (ArithmeticError, ValueError, DomainError) as exc:
        kinds = ("division by zero", "overflow")
        return "error", next((k for k in kinds if str(exc).startswith(k)), "other")


def _shared_subtree_trees(rng, count: int) -> list:
    """Seeded ``f(S) + g(S)``: one random subtree S read in two random
    contexts, each guarded by the edges of `helpers.edge_source`."""
    names = ("x", "y")
    trees = []
    while len(trees) < count:
        shared = parse(helpers.edge_source(rng, names, 3), names)
        contexts = []
        while len(contexts) < 2:
            context = parse(helpers.edge_source(rng, names + ("u",), 3), names + ("u",))
            if "u" in context.names:
                contexts.append(substitute(context, {"u": shared}))
        trees.append(add(*contexts))
    return trees


def test_a_shared_subtree_keeps_the_first_error_of_the_tree_walk():
    # the single-use 1/x runs before the shared sqrt(y), which would
    # raise a math domain error
    tree = parse("1/x + sqrt(y)*sqrt(y)", ("x", "y"))
    with pytest.raises(DomainError, match="^division by zero"):
        tree.evaluate({"x": 0.0, "y": -1.0})
    with pytest.raises(DomainError, match="^math domain error$"):
        tree.evaluate({"x": 1.0, "y": -1.0})
    rng = np.random.default_rng(2028)
    bound, failing = 0, 0
    for tree in _shared_subtree_trees(rng, 200):
        emitter = ex._Emitter(("x", "y"), {})
        emitter.source([tree])
        bound += bool(emitter.lines)
        kernel = ex._compile_kernel(tree, ("x", "y"), {})
        for x, y in helpers.edge_rows(rng, 2, 6).tolist():
            got = _outcome(lambda: kernel(x, y))
            assert got == _outcome(lambda: helpers.walk(tree, {"x": x, "y": y})), (
                f"{tree} at x={x!r}, y={y!r}"
            )
            failing += got[0] == "error"
    # the trees must bind statements and the rows reach the failure paths
    assert bound >= 100 and failing >= 300


def _result(run) -> tuple:
    """``run()``'s value as its bits, or the text of its DomainError."""
    try:
        return "value", float.hex(run())
    except DomainError as exc:
        return "error", str(exc)


def _interpreted_as_compiled(tree, names, rows) -> int:
    """Assert that `Expression._run` gives the bits or the DomainError
    text of the scalar kernel of ``tree`` over its sorted names at each
    row of ``names`` values; the number of rows that fail."""
    order = sorted(tree.names)
    kernel = ex._compile_kernel(tree, order, {})
    failed = 0
    for row in rows:
        env = dict(zip(names, row))
        got = _result(lambda: tree._run(env))
        assert got == _result(lambda: kernel(*[env[name] for name in order])), (
            f"{tree} at {env}"
        )
        failed += got[0] == "error"
    return failed


@settings(max_examples=200, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), depth=st.integers(0, 6))
def test_the_interpreter_gives_the_scalar_kernels_bits_and_errors(seed, depth):
    rng = np.random.default_rng(seed)
    names = ("x", "y", "z")
    tree = parse(helpers.edge_source(rng, names, depth), names)
    _interpreted_as_compiled(tree, names, helpers.edge_rows(rng, 3, 8).tolist())


def test_edge_trees_reach_the_interpreters_domain_errors():
    rng = np.random.default_rng(5)
    names = ("x", "y", "z")
    failed = sum(
        _interpreted_as_compiled(
            parse(helpers.edge_source(rng, names, 4), names),
            names,
            helpers.edge_rows(rng, 3, 4).tolist(),
        )
        for _ in range(300)
    )
    assert 200 <= failed <= 1000


@settings(max_examples=50, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), depth=st.integers(1, 5), data=st.data())
def test_the_interpreter_names_the_first_unbound_name_before_evaluating(
    seed, depth, data
):
    rng = np.random.default_rng(seed)
    names = ("a", "b", "c", "d")
    # log(0) and 1/0 would raise at once if evaluation started
    tree = add(parse(helpers.edge_source(rng, names, depth), names), parse("log(0) + 1/0", ()))
    bound = data.draw(st.sets(st.sampled_from(names)))
    unbound = sorted(tree.names - bound)
    env = {name: 1.0 for name in bound}
    if not unbound:
        with pytest.raises(DomainError):
            tree._run(env)
        return
    with pytest.raises(MissingBindingError) as err:
        tree._run(env)
    assert err.value.name == unbound[0]


def _no_compile(*args):
    raise AssertionError("compile() was called")


def test_evaluate_and_a_failing_final_check_compile_nothing(monkeypatch):
    system = ContactSystem(("q",), "p_q^2/2 + sqrt(q)*m + gamma*s", {"m": 2.0, "gamma": 0.5})
    row, last_good = (-1.0, 1.0, 0.0), (0.5, 1.0, 0.0)
    tree = parse("exp(x)*sin(y) + x^3/(1 - y)", ("x", "y"))
    monkeypatch.setattr(ex, "compile", _no_compile, raising=False)
    assert tree.evaluate({"x": 0.5, "y": 0.25}) == tree.evaluate({"x": 0.5, "y": 0.25})
    with pytest.raises(DomainError, match="^division by zero"):
        tree.evaluate({"x": 0.5, "y": 1.0})
    with pytest.raises(integrate.DivergenceError) as err:
        integrate._check_final(system, row, 2.0, last_good)
    monkeypatch.undo()
    with pytest.raises(DomainError) as kernel:
        system.hamiltonian_value(row)
    assert str(err.value).startswith(f"H undefined at the final state: {kernel.value} (")
    assert err.value.state == last_good
    assert system._kernels  # compiled only once the check was done


# ---------------------------------------------------------------------------
# Deep trees: every walk is iterative, and deep kernels bind statements
# ---------------------------------------------------------------------------


def _bits(value: float) -> str:
    return float.hex(value)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(op=st.sampled_from("+*"), count=st.integers(1, 2000), seed=st.integers(0, 2**32))
@example(op="+", count=2000, seed=0)
@example(op="*", count=2000, seed=0)
def test_long_sums_and_products_evaluate_like_a_loop(op, count, seed):
    rng = np.random.default_rng(seed)
    # products stay in range: 1.1^2000 and 0.9^2000 are finite and normal
    values = (rng.uniform(0.9, 1.1, count) if op == "*" else rng.uniform(-1e3, 1e3, count)).tolist()
    names = [f"x{k}" for k in range(count)]
    build = add if op == "+" else mul
    tree = variable(names[0])
    expected = values[0]
    for name, value in zip(names[1:], values[1:]):
        tree = build(tree, variable(name))
        expected = expected + value if op == "+" else expected * value
    scalar = ex._compile_kernel(tree, names, {})(*values)
    [((column,), failed)] = ex._compile_kernel([(tree,)], names, {})(
        *np.array([values]).T
    )
    assert not failed.any()
    assert _bits(scalar) == _bits(column[0]) == _bits(expected)
    assert _bits(tree.evaluate(dict(zip(names, values)))) == _bits(expected)


def test_a_5000_term_sum_prints_differentiates_and_substitutes():
    names = ["q"] + [f"c{k}" for k in range(5000)]
    source = " + ".join(f"c{k}*q^2" for k in range(5000))
    tree = parse(source, names)
    assert str(tree) == " + ".join(f"c{k} * q^2.0" for k in range(5000))
    assert parse(str(tree), names) is tree
    assert tree.names == frozenset(names)
    bindings = {name: 1.0 for name in names}
    assert tree.derivative("q").evaluate(bindings) == 10000.0
    assert tree.derivative("c4999").evaluate(bindings) == 1.0
    shifted = substitute(tree, {"q": parse("q + 1", names)})
    assert shifted.names == frozenset(names)
    assert shifted.evaluate({**bindings, "q": 0.0}) == 5000.0


def test_evaluate_on_a_600_term_sum():
    tree = parse(" + ".join(f"{k}*x" for k in range(600)), ("x",))
    assert tree.evaluate({"x": 2.0}) == 2.0 * sum(range(600))


def _deep_sum_source(count: int) -> str:
    return " + ".join(f"{k}*x" for k in range(1, count + 1))


def test_a_deep_scalar_kernel_binds_statements_before_the_return():
    # n terms nest n deep: (((1.0 * v0) + (2.0 * v0)) + ...)
    shallow = ex._Emitter(("x",), {})
    shallow.source([parse(_deep_sum_source(ex._MAX_NESTING), ("x",))])
    assert shallow.lines == []
    deep = ex._Emitter(("x",), {})
    (code,) = deep.source([parse(_deep_sum_source(3 * ex._MAX_NESTING + 1), ("x",))])
    assert [line.split(" = ")[0] for line in deep.lines] == ["t0", "t1", "t2"]
    assert code == "t2"


def test_a_deep_kernel_raises_the_first_error_of_the_tree():
    # 1/x fails first at x = 0, before log(x - 5) would
    tree = parse(f"1/x + {_deep_sum_source(300)} + log(x - 5)", ("x",))
    with pytest.raises(DomainError, match="^division by zero: float division by zero$"):
        tree.evaluate({"x": 0.0})
    with pytest.raises(DomainError, match="^math domain error$"):
        tree.evaluate({"x": 1.0})
    [(_, failed)] = ex._compile_kernel([(tree,)], ("x",), {})(np.array([0.0, 1.0, 6.0]))
    assert failed.tolist() == [True, True, False]


def test_statements_keep_the_order_of_the_outputs():
    # the first output binds sin(x), which the deep second one reads: its
    # statement must come before theirs
    names = ("x", "y")
    trees = (parse("sin(x)", names), parse(f"sin(x)*y + {_deep_sum_source(200)}", names))
    emitter = ex._Emitter(names, {})
    emitter.source(list(trees))
    assert emitter.lines
    kernel = ex._compile_kernel(trees, names, {})
    for x, y in ((0.5, 2.0), (-1.25, 3.0)):
        alone = tuple(tree.evaluate({"x": x, "y": y}) for tree in trees)
        assert kernel(x, y) == alone


@pytest.mark.parametrize("count", [196, 491, 600, 2000])
def test_a_hamiltonian_of_many_terms_runs(count):
    coefficients = {f"c{k}": 0.5 + k / count for k in range(count)}
    source = " + ".join(f"c{k}*q^2" for k in range(count)) + " + p_q^2/2 + s"
    sys = ContactSystem(("q",), source, coefficients)
    row = (0.5, 1.0, 0.25)
    expected = 0.0
    for c in coefficients.values():
        expected = expected + c * 0.25
    assert sys.hamiltonian_value(row) == expected + 0.5 + 0.25
    columns = ex._compile_kernel([sys._field], sys.chart_names, sys.parameters)
    [(values, failed)] = columns(*np.array([row]).T)
    assert not failed.any()
    assert sys.flow(row) == tuple(column[0] for column in values)
    states = sample_states(sys, 20, 1)
    for report in classify_symmetry(sys, VectorField.from_mapping(sys, "s", {"s": "1"}), states):
        assert (report.samples, report.failed_samples) == (20, 0)


def test_a_200_oscillator_chain_verifies(tmp_path):
    spec = tmp_path / "chain.yaml"
    write_document(helpers.chain_document(200), spec)
    report = tmp_path / "report.json"
    assert main(["verify", str(spec), "--tf", "1", "--report", str(report)]) == 0
    assert json.loads(report.read_text())["all_expectations_met"] is True
