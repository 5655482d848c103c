"""Scalar expressions over chart variables and parameters.

Grammar (infix, ``^`` binds tightest, then unary minus, then ``* /``,
then ``+ -``; ``+ - * /`` associate left, ``^`` associates right)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

Known functions: sin, cos, exp, log, sqrt, abs.  Implicit multiplication
is rejected ("2x" is a syntax error), and every identifier must resolve
to a declared name at parse time.

Derivatives are exact and symbolic: ``Expression.derivative`` rewrites
the tree into another expression, built once per variable and cached, so
differentiating a derivative again gives exact second derivatives without
finite differencing.  Expressions are immutable and evaluation is pure,
so concurrent use from any number of threads is safe.

Every compiled form is a kernel: one straight-line function of named
values as positional arguments, with constants folded in, from
``_compile_kernel``.  An expression compiles itself over its sorted
names for ``evaluate``; a contact system compiles its flow, H and the
operator trees of ``calculus`` over its chart, with its parameters
folded in.  Compilation is lazy and cached, a benign race.

A kernel compiled with ``columns`` runs the same operations on numpy
arrays, one row per state, and returns with its values a mask of the
rows where the scalar kernel would raise DomainError.  numpy's
arithmetic, ``abs`` and ``sqrt`` round exactly as Python's do, but its
``exp``, ``log`` and ``power`` differ from ``math`` in the last bit on
some inputs, so sin, cos, exp, log and both powers call the ``math``
functions element by element: every unmasked row is bit-identical to
the scalar kernel.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence, Union

import numpy as np

__all__ = [
    "Bindings",
    "DomainError",
    "Expression",
    "ExpressionError",
    "FUNCTIONS",
    "MissingBindingError",
    "ParseError",
    "UnknownNameError",
    "add",
    "call",
    "div",
    "finite_difference",
    "literal",
    "mul",
    "neg",
    "parse",
    "power",
    "sub",
    "substitute",
    "variable",
]

#: Names -> values; must bind every name an expression references.
Bindings = Mapping[str, float]

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "abs")


class ExpressionError(Exception):
    """Base class for expression engine errors."""


class ParseError(ExpressionError):
    """Malformed source text; ``position`` is a 0-based character offset."""

    def __init__(self, message: str, source: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.source = source
        self.position = position


class UnknownNameError(ParseError):
    """Identifier does not resolve to a declared name."""

    def __init__(self, name: str, source: str, position: int):
        ParseError.__init__(
            self, f"unknown identifier '{name}'", source, position
        )
        self.name = name


class MissingBindingError(ExpressionError):
    """Evaluation requested with an unbound name."""

    def __init__(self, name: str):
        super().__init__(f"no value bound for '{name}'")
        self.name = name


class DomainError(ExpressionError):
    """Arithmetic left the real domain (log of non-positive, division by
    zero, negative base with fractional power, overflow)."""


#: Arithmetic failures that evaluation reports as DomainError.
_ARITHMETIC_ERRORS = (ZeroDivisionError, OverflowError, ValueError)


def _domain_error(exc: Exception) -> DomainError:
    if isinstance(exc, ZeroDivisionError):
        return DomainError(f"division by zero: {exc}")
    if isinstance(exc, OverflowError):
        return DomainError(f"overflow: {exc}")
    return DomainError(str(exc))


def _pow(base, exponent):
    if base < 0.0 and not float(exponent).is_integer():
        raise DomainError(
            f"negative base {base!r} with fractional exponent {exponent!r}"
        )
    return math.pow(base, exponent)


def _sign(x):
    """Derivative of abs; sign(0) = 0."""
    return 1.0 if x > 0.0 else (-1.0 if x < 0.0 else 0.0)


_FUNC_IMPL = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "abs": abs,
    # private: produced by differentiating abs, never parsed
    "sign": _sign,
}


# ---------------------------------------------------------------------------
# Syntax tree
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Node"


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * / ^
    lhs: "Node"
    rhs: "Node"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Node"


Node = Union[Num, Var, Neg, Bin, Call]


# Printer precedence levels; a negative literal prints like a unary minus.
_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 10, 20, 30, 40, 50


def _node_prec(node: Node) -> int:
    if isinstance(node, Bin):
        if node.op in "+-":
            return _PREC_ADD
        if node.op in "*/":
            return _PREC_MUL
        return _PREC_POW
    if isinstance(node, Neg):
        return _PREC_NEG
    if isinstance(node, Num) and node.value < 0.0:
        return _PREC_NEG
    return _PREC_ATOM


def _to_source(node: Node) -> str:
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        inner = _to_source(node.arg)
        if _node_prec(node.arg) <= _PREC_MUL:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Call):
        return f"{node.fn}({_to_source(node.arg)})"
    prec = _node_prec(node)
    lhs = _to_source(node.lhs)
    rhs = _to_source(node.rhs)
    if node.op == "^":
        # right-associative: parenthesize any non-atomic left operand
        if _node_prec(node.lhs) <= _PREC_POW:
            lhs = f"({lhs})"
        if _node_prec(node.rhs) < _PREC_NEG:
            rhs = f"({rhs})"
        return f"{lhs}{node.op}{rhs}"
    if _node_prec(node.lhs) < prec:
        lhs = f"({lhs})"
    if _node_prec(node.rhs) <= prec:
        rhs = f"({rhs})"
    return f"{lhs} {node.op} {rhs}"


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------

_BINARY = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "^": _pow,
}

# Generated code sees only these names, the arguments ``v<k>`` and the
# temporaries ``t<k>``; chart and parameter names never become Python
# identifiers.
_HELPERS = {
    "_pw": _pow,
    "_mpow": math.pow,
    "_ARITHMETIC_ERRORS": _ARITHMETIC_ERRORS,
    "_domain_error": _domain_error,
    **{f"_{name}": impl for name, impl in _FUNC_IMPL.items()},
}

# A kernel raises DomainError itself, so callers see no raw arithmetic
# error; it is compiled once per expression or system, so the larger
# code costs little.
_KERNEL_SOURCE = """\
def _fn({args}):
    try:
        return {result}
    except _ARITHMETIC_ERRORS as _e:
        raise _domain_error(_e) from None
"""


# ---------------------------------------------------------------------------
# Column kernels
# ---------------------------------------------------------------------------
#
# The column form of each guarded helper takes the mask ``_m`` last and
# marks in it the rows where the scalar helper raises (see the module
# docstring for which of them run element by element).

#: What a guarded helper raises on a row the column kernel marks.
_ROW_ERRORS = (ArithmeticError, ValueError, DomainError)


def _rowwise(fn: Callable) -> Callable:
    """The column form of a scalar helper: ``fn`` on each row, with the
    rows where it raises marked and given NaN."""

    def column(*args):
        *args, mask = args
        rows = [np.broadcast_to(a, mask.shape).tolist() for a in args]
        try:
            return np.fromiter(map(fn, *rows), float, len(mask))
        except _ROW_ERRORS:
            pass  # some row raises; find which, one by one
        out = []
        for k, row in enumerate(zip(*rows)):
            try:
                out.append(fn(*row))
            except _ROW_ERRORS:
                mask[k] = True
                out.append(math.nan)
        return np.array(out)

    return column


def _column_div(a, b, mask):
    mask |= b == 0.0  # Python raises for every x/0.0, x = 0, inf or NaN too
    return np.true_divide(a, b)


def _column_sqrt(x, mask):
    mask |= x < 0.0
    return np.sqrt(x)


def _column(x, shape):
    """An output as a column: a tree without variables gives a scalar."""
    return x if getattr(x, "shape", None) == shape else np.full(shape, x)


_COLUMN_HELPERS = {
    "_pw": _rowwise(_pow),
    "_mpow": _rowwise(math.pow),
    "_div": _column_div,
    "_sqrt": _column_sqrt,
    "_abs": lambda x, mask: np.abs(x),
    # as _sign: sign(0) = sign(NaN) = 0.0
    "_sign": lambda x, mask: 1.0 * (x > 0.0) - 1.0 * (x < 0.0),
    **{f"_{name}": _rowwise(_FUNC_IMPL[name]) for name in ("sin", "cos", "exp", "log")},
    "_errstate": np.errstate,
    "_zeros": np.zeros,
    "_column": _column,
}

# Every output is broadcast to N rows, so a folded one is a column too;
# the rows that the mask fails may overflow or divide by zero, silently.
_COLUMN_SOURCE = """\
def _fn({args}):
    _m = _zeros(len(v0), bool)
    with _errstate(all="ignore"):
        return {result}, _m
"""


class _Emitter:
    """Python source for a batch of trees, computing each distinct subtree once.

    The first occurrence of a repeated subtree binds a temporary with
    ``:=`` and later occurrences read it, so the operations that remain
    run in the same depth-first, left-to-right order as evaluating each
    tree alone, and the first one to fail is the same.  A subtree whose
    leaves are all literals or ``constants`` is evaluated here by the same
    IEEE operations and emitted as its value, but only when that raises
    nothing and is finite; otherwise it stays in the code and fails at
    call time.  No other rewrite is made, so results are bit-identical.

    With ``columns`` the arguments are (N,) arrays and only the leaves of
    the guarded operations change: division, every function call and
    both powers go to the column helpers, which mark in ``_m`` the rows
    where the scalar code would raise.  ``+ - *`` and negation stay
    operators, exact on arrays as on floats.
    """

    def __init__(
        self,
        variables: Sequence[str],
        constants: Mapping[str, float],
        columns: bool = False,
    ):
        self.index = {name: k for k, name in enumerate(variables)}
        self.constants = constants
        self.columns = columns
        self.signatures: dict = {}  # structural signature -> key
        self.keys: dict = {}  # id(node) -> key; the roots keep nodes alive
        self.values: dict = {}  # key -> compile-time value, or None
        self.uses: dict = {}  # key -> occurrences left in the code
        self.temps: dict = {}  # key -> temporary bound at first occurrence

    def key(self, node: Node) -> int:
        key = self.keys.get(id(node))
        if key is not None:
            return key
        if isinstance(node, Num):
            sig = ("#", repr(node.value))  # repr keeps -0.0 apart from 0.0
        elif isinstance(node, Var):
            sig = ("$", node.name)
        elif isinstance(node, Neg):
            sig = ("neg", self.key(node.arg))
        elif isinstance(node, Bin):
            sig = (node.op, self.key(node.lhs), self.key(node.rhs))
        else:
            sig = ("call", node.fn, self.key(node.arg))
        key = self.signatures.setdefault(sig, len(self.signatures))
        self.keys[id(node)] = key
        return key

    def value(self, node: Node):
        """Value known at compile time, possibly infinite; None if unknown."""
        key = self.key(node)
        if key in self.values:
            return self.values[key]
        if isinstance(node, Num):
            out = node.value
        elif isinstance(node, Var):
            out = self.constants.get(node.name)
        else:
            args = [self.value(c) for c in _children(node)]
            out = None
            if all(a is not None for a in args):
                if isinstance(node, Neg):
                    impl = operator.neg
                elif isinstance(node, Bin):
                    impl = _BINARY[node.op]
                else:
                    impl = _FUNC_IMPL[node.fn]
                try:
                    out = impl(*args)
                except (ArithmeticError, ValueError, DomainError):
                    pass  # left in the code, so the call raises as before
        self.values[key] = out
        return out

    def folded(self, node: Node):
        value = self.value(node)
        return value if value is not None and math.isfinite(value) else None

    def source(self, roots) -> list:
        """One Python expression per root, to be evaluated in order."""
        for root in roots:
            self.count(root)
        return [self.emit(root) for root in roots]

    def count(self, node: Node) -> None:
        if isinstance(node, Var) or self.folded(node) is not None:
            return
        key = self.key(node)
        seen = self.uses.get(key, 0)
        self.uses[key] = seen + 1
        if not seen:
            for child in _children(node):
                self.count(child)

    def emit(self, node: Node) -> str:
        value = self.folded(node)
        if value is not None:
            return repr(value)
        if isinstance(node, Var):
            if node.name not in self.index:
                raise MissingBindingError(node.name)
            return f"v{self.index[node.name]}"
        key = self.key(node)
        temp = self.temps.get(key)
        if temp is not None:
            return temp
        mask = ", _m" if self.columns else ""
        if isinstance(node, Neg):
            src = f"(-{self.emit(node.arg)})"
        elif isinstance(node, Call):
            src = f"_{node.fn}({self.emit(node.arg)}{mask})"
        elif node.op == "^":
            # _pow with an integer exponent is math.pow, so call it directly
            exponent = self.folded(node.rhs)
            fn = "_mpow" if exponent is not None and exponent.is_integer() else "_pw"
            src = f"{fn}({self.emit(node.lhs)}, {self.emit(node.rhs)}{mask})"
        elif node.op == "/" and self.columns:
            src = f"_div({self.emit(node.lhs)}, {self.emit(node.rhs)}, _m)"
        else:
            src = f"({self.emit(node.lhs)} {node.op} {self.emit(node.rhs)})"
        if self.uses[key] > 1:
            temp = self.temps[key] = f"t{len(self.temps)}"
            return f"({temp} := {src})"
        return src


def _children(node: Node) -> tuple:
    if isinstance(node, Bin):
        return (node.lhs, node.rhs)
    if isinstance(node, (Neg, Call)):
        return (node.arg,)
    return ()


def _compile_kernel(
    result,
    variables: Sequence[str],
    constants: Mapping[str, float],
    columns: bool = False,
) -> Callable:
    """Compile into one function of ``variables`` as positional arguments.

    ``result`` is an expression, or a tuple of expressions evaluated
    together with shared subtrees computed once; the function returns a
    float or a tuple of the same length.  ``constants`` (finite values)
    are folded in at compile time, and the values and DomainError
    messages are those of evaluating each tree alone with the same names
    bound; a name bound by neither raises MissingBindingError here.

    With ``columns`` (and at least one variable) the function takes one
    (N,) array per variable and returns ``(values, mask)``: the values
    are (N,) arrays, bit-identical row by row to the scalar kernel's
    wherever the boolean ``mask`` is False, and ``mask`` is True on
    exactly the rows where the scalar kernel raises DomainError.
    """
    as_tuple = isinstance(result, tuple)
    roots = [e.root for e in result] if as_tuple else [result.root]
    parts = _Emitter(variables, constants, columns).source(roots)
    if columns:
        parts = [f"_column({part}, _m.shape)" for part in parts]
    src = _COLUMN_SOURCE if columns else _KERNEL_SOURCE
    env = dict(_COLUMN_HELPERS if columns else _HELPERS)
    exec(compile(src.format(
        args=", ".join(f"v{k}" for k in range(len(variables))),
        result=f"({', '.join(parts)},)" if as_tuple else parts[0],
    ), "<chart-expression>", "exec"), env)
    return env["_fn"]


class Expression:
    """Immutable scalar field on the chart, evaluable with exact derivatives."""

    __slots__ = ("root", "_names", "_fn", "_derivatives", "_hash")

    def __init__(self, root: Node):
        self.root = root
        self._names = None
        self._fn = None
        self._derivatives = None
        self._hash = None

    @property
    def names(self) -> frozenset:
        """Every variable name in the tree, collected on first read."""
        if self._names is None:  # benign race: the walk is deterministic
            names, stack = set(), [self.root]
            while stack:
                node = stack.pop()
                if isinstance(node, Var):
                    names.add(node.name)
                stack.extend(_children(node))
            self._names = frozenset(names)
        return self._names

    def _run(self, env: Mapping[str, float]):
        """Value from a kernel over the sorted names, all bound in ``env``;
        the first unbound one in that order is reported before evaluating."""
        if self._fn is None:  # benign race: compilation is deterministic
            order = tuple(sorted(self.names))
            self._fn = (order, _compile_kernel(self, order, {}))
        order, kernel = self._fn
        try:
            args = [env[name] for name in order]
        except KeyError as exc:
            raise MissingBindingError(exc.args[0]) from None
        return kernel(*args)

    def evaluate(self, bindings: Bindings) -> float:
        """Value at ``bindings``; every referenced name must be bound."""
        return self._run({k: float(v) for k, v in bindings.items()})

    def derivative(self, var: str) -> "Expression":
        """Exact first partial with respect to ``var``, as an expression."""
        # benign race: differentiation is deterministic and idempotent
        if self._derivatives is None:
            self._derivatives = {}
        out = self._derivatives.get(var)
        if out is None:
            out = _diff(self.root, var) if var in self.names else literal(0.0)
            self._derivatives[var] = out
        return out

    def differentiate(self, var: str, bindings: Bindings) -> float:
        """Exact first partial with respect to ``var`` at ``bindings``."""
        if var not in bindings:
            raise MissingBindingError(var)
        return self.derivative(var).evaluate(bindings)

    def __str__(self) -> str:
        return _to_source(self.root)

    def __repr__(self) -> str:
        return f"Expression({_to_source(self.root)!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Expression) and self.root == other.root

    def __hash__(self) -> int:
        # hashing the tree walks all of it, so keep the result
        if self._hash is None:
            self._hash = hash(self.root)
        return self._hash


def finite_difference(
    expr: Expression, var: str, bindings: Bindings, h: float | None = None
) -> float:
    """Central-difference estimate of a partial; cross-check oracle only."""
    x = float(bindings[var])
    if h is None:
        h = 1e-5 * max(1.0, abs(x))
    lo = dict(bindings)
    hi = dict(bindings)
    lo[var] = x - h
    hi[var] = x + h
    return (expr.evaluate(hi) - expr.evaluate(lo)) / (2.0 * h)


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Token:
    kind: str  # num | name | op | lparen | rparen | end
    text: str
    pos: int


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*/^":
            tokens.append(_Token("op", c, i))
            i += 1
        elif c == "(":
            tokens.append(_Token("lparen", c, i))
            i += 1
        elif c == ")":
            tokens.append(_Token("rparen", c, i))
            i += 1
        elif c.isdigit() or (c == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            while j < n and (source[j].isdigit() or source[j] == "."):
                j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            text = source[i:j]
            try:
                value = float(text)
            except ValueError:
                raise ParseError(f"bad numeric literal '{text}'", source, i)
            if not math.isfinite(value):
                raise ParseError(f"numeric literal '{text}' overflows", source, i)
            tokens.append(_Token("num", text, i))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(_Token("name", source[i:j], i))
            i = j
        else:
            raise ParseError(f"unexpected character {c!r}", source, i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, source: str, names: frozenset):
        self.source = source
        self.names = names
        self.tokens = _tokenize(source)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: _Token):
        raise ParseError(message, self.source, tok.pos)

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            self.fail(f"unexpected token {tok.text!r}", tok)
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = Bin(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = Bin(op, node, self.unary())
        return node

    def unary(self) -> Node:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Node:
        node = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            return Bin("^", node, self.unary())
        return node

    def atom(self) -> Node:
        tok = self.advance()
        if tok.kind == "num":
            return Num(float(tok.text))
        if tok.kind == "lparen":
            node = self.expr()
            closing = self.advance()
            if closing.kind != "rparen":
                self.fail(
                    f"expected ')', found {closing.text or 'end of input'!r}",
                    closing,
                )
            return node
        if tok.kind == "name":
            if self.peek().kind == "lparen":
                if tok.text not in FUNCTIONS:
                    self.fail(f"unknown function '{tok.text}'", tok)
                self.advance()
                arg = self.expr()
                closing = self.advance()
                if closing.kind != "rparen":
                    self.fail(
                        f"expected ')', found {closing.text or 'end of input'!r}",
                        closing,
                    )
                return Call(tok.text, arg)
            if tok.text not in self.names:
                raise UnknownNameError(tok.text, self.source, tok.pos)
            return Var(tok.text)
        self.fail(
            f"expected expression, found {tok.text or 'end of input'!r}", tok
        )


def parse(source: str, names: Iterable[str]) -> Expression:
    """Parse ``source`` against the declared ``names``.

    Raises ParseError (with position) on malformed input and
    UnknownNameError when an identifier is not declared.
    """
    if not source or not source.strip():
        raise ParseError("empty expression", source or "", 0)
    declared = frozenset(names)
    reserved = declared.intersection(FUNCTIONS)
    if reserved:
        raise ValueError(
            f"declared names shadow built-in functions: {sorted(reserved)}"
        )
    return Expression(_Parser(source, declared).parse())


def _coerce_component(source, declared: frozenset, label: str) -> Expression:
    """An Expression over the `declared` names from an Expression, a number
    or source text; `label` names the component when an Expression uses
    names outside them."""
    if isinstance(source, Expression):
        stray = source.names - declared
        if stray:
            raise ValueError(f"{label} references undeclared names: {sorted(stray)}")
        return source
    if isinstance(source, (int, float)):
        return literal(source)
    return parse(source, declared)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------
#
# Used when assembling derived fields (Noether quantities, Hamiltonian
# vector-field components, quotients, pullbacks).  They fold the obvious
# identities (x+0, 1*x, 0*x, --x, constant arithmetic) so assembled
# expressions stay readable; user-parsed trees are never rewritten.

def _as_node(e) -> Node:
    if isinstance(e, Expression):
        return e.root
    if isinstance(e, (int, float)):
        return Num(float(e))
    if isinstance(e, (Num, Var, Neg, Bin, Call)):
        return e
    raise TypeError(f"cannot use {type(e).__name__} as an expression")


def _is_const(node: Node, value: float | None = None) -> bool:
    if not isinstance(node, Num):
        return False
    return value is None or node.value == value


def literal(value: float) -> Expression:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"literal must be finite, got {value!r}")
    return Expression(Num(value))


def variable(name: str) -> Expression:
    return Expression(Var(name))


def neg(e) -> Expression:
    node = _as_node(e)
    if isinstance(node, Num):
        return Expression(Num(-node.value))
    if isinstance(node, Neg):
        return Expression(node.arg)
    return Expression(Neg(node))


def add(a, b) -> Expression:
    x, y = _as_node(a), _as_node(b)
    if isinstance(x, Num) and isinstance(y, Num):
        return literal(x.value + y.value)
    if _is_const(x, 0.0):
        return Expression(y)
    if _is_const(y, 0.0):
        return Expression(x)
    return Expression(Bin("+", x, y))


def sub(a, b) -> Expression:
    x, y = _as_node(a), _as_node(b)
    if isinstance(x, Num) and isinstance(y, Num):
        return literal(x.value - y.value)
    if _is_const(y, 0.0):
        return Expression(x)
    if _is_const(x, 0.0):
        return neg(y)
    return Expression(Bin("-", x, y))


def mul(a, b) -> Expression:
    x, y = _as_node(a), _as_node(b)
    if isinstance(x, Num) and isinstance(y, Num):
        return literal(x.value * y.value)
    if _is_const(x, 0.0) or _is_const(y, 0.0):
        return literal(0.0)
    if _is_const(x, 1.0):
        return Expression(y)
    if _is_const(y, 1.0):
        return Expression(x)
    return Expression(Bin("*", x, y))


def div(a, b) -> Expression:
    x, y = _as_node(a), _as_node(b)
    if _is_const(y, 1.0):
        return Expression(x)
    # x/0 is left in the tree so evaluation reports the domain error
    if isinstance(x, Num) and isinstance(y, Num) and y.value != 0.0:
        return literal(x.value / y.value)
    return Expression(Bin("/", x, y))


def power(a, b) -> Expression:
    x, y = _as_node(a), _as_node(b)
    if isinstance(x, Num) and isinstance(y, Num):
        return literal(_pow(x.value, y.value))
    if _is_const(y, 1.0):
        return Expression(x)
    return Expression(Bin("^", x, y))


def call(fn: str, e) -> Expression:
    if fn not in FUNCTIONS:
        raise ValueError(f"unknown function '{fn}'")
    return Expression(Call(fn, _as_node(e)))


def _diff(node: Node, var: str) -> Expression:
    """First partial of ``node`` with respect to ``var``, folded by the builders.

    A subtree free of ``var`` differentiates to the literal 0, and every
    rule below skips the terms that multiply such a zero, so no factor is
    evaluated that the derivative does not need.
    """
    if isinstance(node, Num):
        return literal(0.0)
    if isinstance(node, Var):
        return literal(1.0 if node.name == var else 0.0)
    if isinstance(node, (Neg, Call)):
        du = _diff(node.arg, var)
        if _is_const(du.root, 0.0):
            return du
        if isinstance(node, Neg):
            return neg(du)
        u = node.arg
        if node.fn == "sin":
            outer = call("cos", u)
        elif node.fn == "cos":
            outer = neg(call("sin", u))
        elif node.fn == "exp":
            outer = node
        elif node.fn == "log":
            return div(du, u)
        elif node.fn == "sqrt":
            return div(du, mul(2.0, node))
        elif node.fn == "abs":
            outer = Call("sign", u)
        else:  # sign: piecewise constant
            return literal(0.0)
        return mul(outer, du)
    u, v = node.lhs, node.rhs
    du, dv = _diff(u, var), _diff(v, var)
    u_free, v_free = _is_const(du.root, 0.0), _is_const(dv.root, 0.0)
    if u_free and v_free:
        return literal(0.0)
    if node.op == "+":
        return add(du, dv)
    if node.op == "-":
        return sub(du, dv)
    if node.op == "*":
        return add(mul(du, v), mul(u, dv))
    if node.op == "/":
        if v_free:
            return div(du, v)
        return div(sub(mul(du, v), mul(u, dv)), mul(v, v))
    # u^v: the log(u) term appears only when the exponent depends on var,
    # so a parameter exponent never needs u > 0
    if v_free:
        return mul(mul(v, power(u, sub(v, 1.0))), du)
    log_term = mul(mul(node, call("log", u)), dv)
    if u_free:
        return log_term
    return add(mul(mul(v, power(u, sub(v, 1.0))), du), log_term)


def substitute(e: Expression, replacements: Mapping[str, "Expression"]) -> Expression:
    """Replace variables by expressions (exact rebuild, no folding)."""
    repl = {name: _as_node(r) for name, r in replacements.items()}

    def walk(node: Node) -> Node:
        if isinstance(node, Var):
            return repl.get(node.name, node)
        if isinstance(node, Neg):
            return Neg(walk(node.arg))
        if isinstance(node, Bin):
            return Bin(node.op, walk(node.lhs), walk(node.rhs))
        if isinstance(node, Call):
            return Call(node.fn, walk(node.arg))
        return node

    return Expression(walk(e.root))
