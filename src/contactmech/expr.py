"""Scalar expressions over chart variables and parameters.

Grammar (infix, ``^`` binds tightest, then unary minus, then ``* /``,
then ``+ -``; ``+ - * /`` associate left, ``^`` associates right)::

    expr   = term (('+' | '-') term)*
    term   = unary (('*' | '/') unary)*
    unary  = '-' unary | power
    power  = atom ('^' unary)?
    atom   = NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

Known functions: sin, cos, exp, log, sqrt, abs.  Implicit multiplication
is rejected ("2x" is a syntax error), and every identifier must resolve
to a declared name at parse time.

An expression is its root node: ``Num``, ``Var``, ``Neg``, ``Bin`` and
``Call`` are the kinds of ``Expression``, and every node is an
expression in its own right.  Nodes are hash-consed: structurally equal
trees are one object, so equality and hashing are identity and take
O(1), and copying or unpickling a node returns the live node.  Each node
keeps its derivatives, derived once per variable and shared by every
tree that contains the node.  The intern table is a dict of weak
references, each deleted when its node dies, so nothing outlives the
trees that use it.  Expressions are immutable and evaluation is pure,
so concurrent use from any number of threads is safe.

Derivatives are exact and symbolic: ``Expression.derivative`` rewrites
the tree into another expression, so differentiating a derivative again
gives exact second derivatives without finite differencing.

`_walk` is the one traversal of trees: depth first and left to right
with an explicit stack, each distinct node once, after the nodes below
it.  Printing, pickling, differentiating, substituting, folding and
placing are rules on it, so a tree of any depth can be handled; only
the parser recurses, and it rejects nesting deeper than
`_MAX_PARSE_DEPTH` as a ParseError.

``_compile_kernel`` makes a kernel of a batch of trees from one list of
steps, in the form that the shape of the batch picks: an expression or
a tuple of them makes a scalar kernel, a list of groups, each a tuple
of trees, a column kernel.  Placing lists each distinct operation once,
in the order of evaluating each tree alone, with constants folded in,
and one table, ``_OPS``, gives each operation's scalar and column function.
A scalar kernel is one straight-line function of named values as
positional arguments, generated as Python source from the steps, with
only the parentheses that precedence needs, and compiled: a step read
once is inlined where it is read, and a shared step or one nesting
deeper than `_MAX_NESTING` operations binds the code not yet read to
statements before the ``return``.  A contact system compiles its
flow, H and the operator trees of ``calculus`` over its chart, with its
parameters folded in, for single states, lazily and cached (a benign
race).  ``evaluate`` folds instead, with every name bound as a constant,
which runs the kernel's scalar functions in the kernel's order.

A column kernel compiles nothing: it runs the same steps over numpy
arrays, one row per state, and returns with each group's values a mask
of the rows where the scalar kernel would raise DomainError.  A group
is one check's trees: each operation that can raise marks its own mask
column, and each group gets the OR of those its trees reach, so it
fails the rows that a kernel of its trees alone would.
numpy's arithmetic, ``abs`` and ``sqrt`` round exactly as Python's do,
but its ``exp``, ``log`` and ``power`` differ from ``math`` in the last
bit on some inputs.  Squares are one multiply, ``b * b`` in every form
(correctly rounded, as every IEEE product is), and sin, cos, exp, log
and the other powers call the ``math`` functions element by element:
every unmasked row is bit-identical to the scalar kernel.

Only the column kernels need numpy, and they import it when they run:
importing this module, parsing, differentiating and the scalar kernels
never load it.
"""

from __future__ import annotations

import math
import operator
import threading
import weakref
from _weakref import _remove_dead_weakref
from collections import Counter
from itertools import chain
from typing import Callable, Iterable, Mapping, Sequence

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
    """Arithmetic left the real domain: log of a non-positive number,
    division by zero, overflow of a call or of a power other than a
    square, or a negative base whose exponent is not an integer (a
    fraction, an infinity or NaN).  A square is a product, ``b * b``, so
    it overflows to inf as every product does, without raising."""


#: Arithmetic failures that evaluation reports as DomainError.
_ARITHMETIC_ERRORS = (ZeroDivisionError, OverflowError, ValueError)


def _domain_error(exc: Exception) -> DomainError:
    if isinstance(exc, ZeroDivisionError):
        return DomainError(f"division by zero: {exc}")
    if isinstance(exc, OverflowError):
        return DomainError(f"overflow: {exc}")
    return DomainError(str(exc))


def _pow(base, exponent):
    """``base ^ exponent``: a square is one correctly rounded multiply
    (Higham, *Accuracy and Stability of Numerical Algorithms*, §2.2),
    any other power is ``math.pow``, and a negative base takes an
    integer exponent only."""
    if exponent == 2.0:
        return base * base
    if base < 0.0 and not float(exponent).is_integer():
        kind = "fractional" if math.isfinite(exponent) else "non-finite"
        raise DomainError(
            f"negative base {base!r} with {kind} exponent {exponent!r}"
        )
    return math.pow(base, exponent)


def _sign(x):
    """Derivative of abs; sign(0) = 0."""
    return 1.0 if x > 0.0 else (-1.0 if x < 0.0 else 0.0)


# ---------------------------------------------------------------------------
# Syntax tree
# ---------------------------------------------------------------------------

# Nodes are hash-consed (Filliâtre & Conchon, "Type-safe modular
# hash-consing", 2006): making a node returns the live node of the same
# structure when there is one, so structurally equal subtrees are one
# object, compared and hashed by identity.  The table is a dict of weak
# references, so a tree dies with its last user: each reference carries
# its key, which its callback deletes as `WeakValueDictionary` does, by
# `_remove_dead_weakref`, unless the key holds a live node again.  Keys
# name children by `id`, which is unique while the parent holds them,
# so that no key holds a node: a derivative memo (see `_diff`) that
# leads back to its node is then a cycle the collector can free.
# Finding a node takes no lock; the lock makes adding one atomic across
# threads.  A node is immutable apart from its derivative memo.
#
# Each node also keeps ``_vars``, an int with the bit of every variable
# below it, the OR of its children's: `_VAR_BITS` gives each variable
# name its bit when a `Var` of it is first made, under the lock, and
# never takes it back, and `_VAR_NAMES` lists the names by bit, so
# `Expression.names` decodes ``_vars``.  An OR of ints costs one machine
# word per 64 names, so a long sum costs linear time, which a set of
# names per node would not; differentiating skips each subtree free of
# the variable without walking it.

_NODES: dict = {}  # structure key -> a `_Ref` to its node
_NODES_LOCK = threading.Lock()
_MISSING = type(None)  # what a missing key gives: called, like a dead `_Ref`, None
_VAR_BITS: dict = {}  # variable name -> its bit in ``_vars``
_VAR_NAMES: list = []  # bit k -> its variable name
_set = object.__setattr__


class Expression:
    """Immutable scalar field on the chart, evaluable with exact derivatives.

    An expression is the interned root node of its tree, one of the
    kinds ``Num``, ``Var``, ``Neg``, ``Bin`` and ``Call``; build one with
    `parse` or the builders, not by calling this class.  Equal trees are
    one node, so ``==`` is ``is``.
    """

    __slots__ = ("_diffs", "_vars", "__weakref__")
    _fields: tuple = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __deepcopy__(self, memo=None):
        return self

    __copy__ = __deepcopy__

    def __reduce__(self):
        index = {}  # node -> its place in the post-order program
        program = []  # (kind, own fields, children's places) per node
        for node in _walk((self,), index):
            index[node] = len(program)
            kids = _children(node)
            own = node._fields[:len(node._fields) - len(kids)]
            program.append((type(node), [getattr(node, f) for f in own],
                            [index[kid] for kid in kids]))
        return _rebuild, (program,)

    @property
    def names(self) -> frozenset:
        """Every variable name in the tree, decoded from ``_vars``."""
        return _names(self._vars)

    def _run(self, env: Mapping[str, float]):
        """Value by `_Emitter.fold` with ``env`` as the constants.  The first
        unbound name in sorted order is reported before evaluating, and the
        first operation that raises as the DomainError a kernel would raise."""
        unbound = self.names.difference(env)
        if unbound:
            raise MissingBindingError(min(unbound))
        emitter = _Emitter((), env)
        emitter.fold((self,))
        value = emitter.values[self]
        if value is None:
            raise emitter.error from None
        return value

    def evaluate(self, bindings: Bindings) -> float:
        """Value at ``bindings``; every referenced name must be bound.  It
        compiles nothing, so a first call is cheaper than a kernel and each
        later one dearer: per-state work runs a `ContactSystem`'s kernels."""
        return self._run({k: float(v) for k, v in bindings.items()})

    def derivative(self, var: str) -> "Expression":
        """Exact first partial with respect to ``var``, as an expression;
        equal trees share one, kept on their node (see `_diff`)."""
        return _diff(self, var)

    def __str__(self) -> str:
        return _to_source(self)

    def __repr__(self) -> str:
        return f"Expression({_to_source(self)!r})"


def _names(bits: int) -> frozenset:
    """The variable names whose bits are set in ``bits``: one decode, in
    time that grows with the highest bit, for any OR of nodes' ``_vars``."""
    digits = bin(bits)[:1:-1]  # bit k at index k
    return frozenset(name for name, bit in zip(_VAR_NAMES, digits) if bit == "1")


class _Ref(weakref.ref):
    """A weak reference to an interned node that carries its table key."""

    __slots__ = ("key",)


def _drop(ref: _Ref) -> None:
    _remove_dead_weakref(_NODES, ref.key)


def _interned(cls, key: tuple, values: tuple):
    node = _NODES.get(key, _MISSING)()
    if node is None:
        with _NODES_LOCK:
            node = _NODES.get(key, _MISSING)()
            if node is None:
                node = object.__new__(cls)
                for name, value in zip(cls._fields, values):
                    _set(node, name, value)
                _set(node, "_diffs", None)
                if cls is Var:
                    bits = _VAR_BITS.get(values[0])
                    if bits is None:
                        bits = _VAR_BITS[values[0]] = 1 << len(_VAR_NAMES)
                        _VAR_NAMES.append(values[0])
                else:
                    bits = 0
                    for child in _children(node):
                        bits |= child._vars
                _set(node, "_vars", bits)
                ref = _NODES[key] = _Ref(node, _drop)
                ref.key = key
    return node


class Num(Expression):
    __slots__ = _fields = ("value",)

    def __new__(cls, value: float):
        # the sign keeps -0.0 apart from 0.0, which compare equal
        return _interned(cls, (cls, value, math.copysign(1.0, value)), (value,))


class Var(Expression):
    __slots__ = _fields = ("name",)

    def __new__(cls, name: str):
        return _interned(cls, (cls, name), (name,))


class Neg(Expression):
    __slots__ = _fields = ("arg",)

    def __new__(cls, arg: Expression):
        return _interned(cls, (cls, id(arg)), (arg,))


class Bin(Expression):
    __slots__ = _fields = ("op", "lhs", "rhs")  # op: one of + - * / ^

    def __new__(cls, op: str, lhs: Expression, rhs: Expression):
        return _interned(cls, (cls, op, id(lhs), id(rhs)), (op, lhs, rhs))


class Call(Expression):
    __slots__ = _fields = ("fn", "arg")

    def __new__(cls, fn: str, arg: Expression):
        return _interned(cls, (cls, fn, id(arg)), (fn, arg))


def _rebuild(program: list) -> Expression:
    """The interned root of an `Expression.__reduce__` program."""
    nodes = []
    for cls, values, kids in program:
        nodes.append(cls(*values, *[nodes[k] for k in kids]))
    return nodes[-1]


def _children(node: Expression) -> tuple:
    # by exact kind: a failed isinstance costs more, and walks call this
    # for every node
    kind = type(node)
    if kind is Bin:
        return (node.lhs, node.rhs)
    if kind is Neg or kind is Call:
        return (node.arg,)
    return ()


def _operands(node: Expression, results) -> tuple:
    """The results of ``node``'s children, in order."""
    if type(node) is Bin:
        return results[node.lhs], results[node.rhs]
    return (results[node.arg],)


def _walk(roots: Iterable[Expression], done, below: Callable = _children):
    """Each node under ``roots`` that is not in ``done``: depth first and
    left to right, after the nodes below it.

    This is the one traversal of trees.  Every rule on them (printing,
    pickling, folding, placing, differentiating, substituting) is a loop
    ``for node in _walk(...)`` that keeps its result for each node in
    ``done`` before it asks for the next, so each node comes once, and
    reads the results of the nodes ``below`` it: its children, unless
    the rule stops there.  The stack is explicit, so no tree is too deep
    to walk.
    """
    for root in roots:
        if root in done:
            continue
        node, rest = root, iter(below(root))
        stack = []  # the frames above the current node
        while True:
            for child in rest:
                if child not in done:
                    grandchildren = below(child)
                    if grandchildren:
                        stack.append((node, rest))
                        node, rest = child, iter(grandchildren)
                        break
                    yield child
            else:
                yield node
                if not stack:
                    break
                node, rest = stack.pop()


# Precedence levels of the printer, where a negative literal prints like
# a unary minus, and of the scalar-kernel source: Python orders + -, * /,
# unary minus and atoms as the grammar does.
_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 10, 20, 30, 40, 50


def _to_source(root: Expression) -> str:
    """The text of ``root``, which parses back to the same tree.

    A text is dropped at its last read, so a deep tree needs memory for
    its own text, not for the sum of its subtrees' texts.
    """
    unread = {}  # each node once, in the order of the walk: its reads left
    for node in _walk((root,), unread):
        unread[node] = 0
        for child in _children(node):
            unread[child] += 1
    texts = {}  # node -> (its text, its precedence), until its last read

    def operand(child, limit):
        """``child``'s text, in parentheses if its precedence is below
        ``limit``."""
        text, prec = texts[child]
        unread[child] -= 1
        if not unread[child]:
            del texts[child]
        return f"({text})" if prec < limit else text

    for node in unread:
        kind = type(node)
        if kind is Num:
            prec = _PREC_NEG if node.value < 0.0 else _PREC_ATOM
            texts[node] = repr(node.value), prec
        elif kind is Var:
            texts[node] = node.name, _PREC_ATOM
        elif kind is Neg:
            texts[node] = "-" + operand(node.arg, _PREC_MUL + 1), _PREC_NEG
        elif kind is Call:
            texts[node] = f"{node.fn}({operand(node.arg, 0)})", _PREC_ATOM
        elif node.op == "^":
            # right-associative: parenthesize any non-atomic left operand
            lhs = operand(node.lhs, _PREC_POW + 1)
            texts[node] = f"{lhs}^{operand(node.rhs, _PREC_NEG)}", _PREC_POW
        else:
            prec = _PREC_ADD if node.op in "+-" else _PREC_MUL
            lhs = operand(node.lhs, prec)
            texts[node] = f"{lhs} {node.op} {operand(node.rhs, prec + 1)}", prec
    return texts[root][0]


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------
#
# The column form of each guarded operation takes the row mask last and
# marks in it the rows where the scalar form raises (see the module
# docstring for which of them run element by element).

#: What a guarded operation raises: a column kernel marks the row, and
#: folding leaves the operation in the code.
_ROW_ERRORS = (ArithmeticError, ValueError, DomainError)


def _rowwise(fn: Callable) -> Callable:
    """The column form of a scalar helper: ``fn`` on each row, with the
    rows where it raises marked and given NaN."""

    def column(*args):
        import numpy as np

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
    import numpy as np

    if mask is not None:  # None: the divisor is a nonzero constant
        mask |= b == 0.0  # Python raises for every x/0.0, x = 0, inf or NaN too
    return np.true_divide(a, b)


def _column_sqrt(x, mask):
    import numpy as np

    mask |= x < 0.0
    return np.sqrt(x)


def _column(x, shape):
    """An output as a column: a tree without variables gives a scalar."""
    import numpy as np

    return x if getattr(x, "shape", None) == shape else np.full(shape, x)


#: Each operation by its helper name (see `_Emitter.operation`): its
#: scalar function, which folding runs and a scalar kernel calls, and its
#: column function, which takes the step's mask column last (None for a
#: step that cannot raise, see `_column_kernel`).  A scalar kernel writes
#: ``neg`` and the operators inline.  A square is no entry of its own: it is ``*`` of its
#: base by itself, so ``_pw`` takes every other power.
_OPS = {
    "neg": (operator.neg, lambda x, mask: -x),
    "+": (operator.add, lambda a, b, mask: a + b),
    "-": (operator.sub, lambda a, b, mask: a - b),
    "*": (operator.mul, lambda a, b, mask: a * b),
    "/": (operator.truediv, _column_div),
    "_pw": (_pow, _rowwise(_pow)),
    "_sqrt": (math.sqrt, _column_sqrt),
    "_abs": (abs, lambda x, mask: abs(x)),  # np.absolute on an array
    # private: produced by differentiating abs, never parsed; its column
    # gives sign(0) = sign(NaN) = 0.0, as _sign does
    "_sign": (_sign, lambda x, mask: 1.0 * (x > 0.0) - 1.0 * (x < 0.0)),
    **{f"_{fn.__name__}": (fn, _rowwise(fn))
       for fn in (math.sin, math.cos, math.exp, math.log)},
}

#: The operations whose scalar function never raises on floats: a
#: column kernel gives their steps no mask.  Every other step is guarded,
#: but for a division by a nonzero constant (see `_column_kernel`).
_NEVER_RAISE = frozenset(("neg", "+", "-", "*", "_abs", "_sign"))

# Generated code sees only these names, the arguments ``v<k>`` and the
# temporaries ``t<k>``; chart and parameter names never become Python
# identifiers.
_HELPERS = {
    "_ARITHMETIC_ERRORS": _ARITHMETIC_ERRORS,
    "_domain_error": _domain_error,
    **{name: scalar for name, (scalar, _) in _OPS.items() if name[0] == "_"},
}

#: How deeply `_Emitter.source` nests the operations of one Python
#: expression before it binds the code written so far to statements.  It
#: bounds expression nesting, not parentheses, of which the code has at
#: most as many; CPython's parser stops at 200 nested parentheses.
_MAX_NESTING = 64

# A kernel raises DomainError itself, so callers see no raw arithmetic
# error; it is compiled once per expression or system, so the larger
# code costs little.
_KERNEL_SOURCE = """\
def _fn({args}):
    try:
{lines}        return {result}
    except _ARITHMETIC_ERRORS as _e:
        raise _domain_error(_e) from None
"""


class _Emitter:
    """A batch of trees as one list of steps, each distinct subtree once.

    `fold` evaluates a subtree whose leaves are all literals or
    ``constants`` by the scalar functions of `_OPS`, and its value is
    used in its place, but only when that raises nothing and is finite;
    otherwise it stays an operation and fails at call time.  A power
    whose exponent folds to 2 is the product of its base by itself, as
    `_pow` computes it; no other rewrite is made, so results are
    bit-identical.  Nodes are interned, so a repeated subtree is one
    node, and `place` gives it one slot.

    Folding and placing are rules on `_walk`.  Placing stops at folded
    subtrees and lists a step for each distinct operation, depth first
    and left to right, the order of evaluating each tree alone.  Both
    kernel forms are made from that list.  ``columns`` gives it to a
    column kernel, which runs each step once over (N,) arrays.
    ``source`` writes it as Python code in one pass over the steps, with
    one binding rule: when it writes a step that is read more than once,
    or whose code nests deeper than `_MAX_NESTING`, every step written
    and not yet read becomes a statement ``t<k> = ...`` before the
    ``return``, in the order written, and is read by its name.  Every
    other step is inlined where it is read.  Python evaluates inlined
    code left to right, so the operations run in the order of the steps
    and the first one to fail is the same.
    """

    def __init__(self, variables: Sequence[str], constants: Mapping[str, float]):
        self.index = {name: k for k, name in enumerate(variables)}
        self.constants = constants
        self.values: dict = {}  # node -> compile-time value, or None
        self.slots: dict = {}  # node -> its slot in a kernel
        self.cells: list = []  # its slots after the variables' columns
        self.steps: dict = {}  # its operations, see `columns`
        self.lines: list = []  # statements that `source` puts before the return
        self.error = None  # the DomainError of the first operation `fold` left

    def fold(self, roots) -> None:
        """Fill ``values`` with each node's value known at compile time,
        possibly infinite, or None if unknown, and ``error`` with what the
        first operation that raises would raise in a kernel."""
        values = self.values
        for node in _walk(roots, values):
            kind = type(node)
            if kind is Num:
                out = node.value
            elif kind is Var:
                out = self.constants.get(node.name)
            else:
                helper, operands = self.operation(node)
                args = [values[operand] for operand in operands]
                out = None
                if None not in args:
                    try:
                        out = _OPS[helper][0](*args)
                    except _ROW_ERRORS as exc:  # left in the code, to raise there
                        if self.error is None:
                            self.error = (exc if isinstance(exc, DomainError)
                                          else _domain_error(exc))
            values[node] = out

    def folded(self, node: Expression):
        value = self.values[node]
        return value if value is not None and math.isfinite(value) else None

    def unfolded(self, node: Expression) -> tuple:
        """What placing walks below ``node``: nothing under a folded value."""
        return () if self.folded(node) is not None else _children(node)

    def argument(self, node: Expression) -> int:
        """The position of a variable the kernel takes."""
        k = self.index.get(node.name)
        if k is None:
            raise MissingBindingError(node.name)
        return k

    def operation(self, node: Expression) -> tuple:
        """``(helper, operand nodes)`` of an operation node: ``neg``, an
        operator, ``_<fn>`` for a call, and for a power whose exponent
        folds to 2 ``*`` of the base by itself, as `_pow` computes it;
        any other power is ``_pw``."""
        kind = type(node)
        if kind is Neg:
            return "neg", (node.arg,)
        if kind is Call:
            return f"_{node.fn}", (node.arg,)
        if node.op != "^":
            return node.op, (node.lhs, node.rhs)
        exponent = self.folded(node.rhs)
        if exponent == 2.0:
            return "*", (node.lhs, node.lhs)
        return "_pw", (node.lhs, node.rhs)

    def columns(self, roots) -> tuple:
        """``(cells, steps, outputs)`` for `_column_kernel`.

        Slots 0..V-1 hold the V variable columns and the slots after
        them start as ``cells``: the folded values, and None where a
        step puts its result.  ``steps`` maps each of those slots to
        ``(helper, argument slots)``, in the order they run: each
        distinct operation once, depth first and left to right.
        ``outputs`` are the slots of the roots.
        """
        self.fold(roots)
        slots = self.slots
        for node in _walk(roots, slots, self.unfolded):
            slots[node] = self.place(node)
        return self.cells, self.steps, [slots[root] for root in roots]

    def place(self, node: Expression) -> int:
        """The slot of ``node``'s value, after the steps that compute it."""
        value = self.folded(node)
        if value is None and isinstance(node, Var):
            return self.argument(node)
        slot = len(self.index) + len(self.cells)
        self.cells.append(value)
        if value is None:
            helper, operands = self.operation(node)
            self.steps[slot] = helper, tuple(self.slots[k] for k in operands)
        return slot

    def source(self, roots) -> list:
        """One Python expression per root, to be evaluated in order after
        the statements that it puts in ``lines``, written from the steps
        of `columns` in one pass.

        An operand is in parentheses only where Python's precedence
        needs them: below its operator's, or equal to it on the right of
        a binary operator, which associates left.  So a negated sum or
        product keeps them, and the code parses to the tree that writing
        every operation in parentheses would give."""
        cells, steps, outputs = self.columns(roots)
        reads = Counter(chain(outputs, *(args for _, args in steps.values())))
        code = [f"v{k}" for k in range(len(self.index))]
        code += [None if v is None else repr(v) for v in cells]
        # nothing written binds tighter than a unary minus, so a name or a
        # literal, even a negative one, needs no parentheses
        prec = [_PREC_ATOM] * len(code)
        depth = [0] * len(code)  # expression nesting in code[k]
        unread = {}  # steps written and not yet read, in the order written

        def read(k, limit=0):
            """The code of slot ``k`` where it is read, in parentheses if
            its precedence is below ``limit``, and its depth."""
            text = code[k]
            if k in unread:  # read once: inlined here
                del unread[k]
                code[k] = None
            return (f"({text})" if prec[k] < limit else text), depth[k]

        for slot, (helper, args) in steps.items():
            if helper == "neg":
                p = _PREC_NEG
                arg, d = read(args[0], p)
                text, depths = "-" + arg, (d,)
            elif helper[0] == "_":
                p = _PREC_ATOM
                texts, depths = zip(*map(read, args))
                text = f"{helper}({', '.join(texts)})"
            else:
                p = _PREC_ADD if helper in "+-" else _PREC_MUL
                (lhs, d_lhs), (rhs, d_rhs) = read(args[0], p), read(args[1], p + 1)
                text, depths = f"{lhs} {helper} {rhs}", (d_lhs, d_rhs)
            code[slot], prec[slot], depth[slot] = text, p, 1 + max(depths)
            unread[slot] = None
            if reads[slot] > 1 or depth[slot] > _MAX_NESTING:
                for k in unread:
                    temp = f"t{len(self.lines)}"
                    self.lines.append(f"{temp} = {code[k]}")
                    code[k], prec[k], depth[k] = temp, _PREC_ATOM, 0
                unread.clear()
        return [read(k)[0] for k in outputs]


def _column_kernel(width: int, cells: list, steps: dict, groups: list) -> Callable:
    """Run the `_Emitter.columns` steps over ``width`` (N,) columns, each
    step once with its column function from `_OPS`, and return one
    ``(values, mask)`` for each group, a list of output slots.

    Each guarded step marks the rows where its scalar form raises in a
    mask column of its own: every step but those of `_NEVER_RAISE` and
    the divisions by a nonzero constant, which cannot raise.  A group's
    mask is the OR of the mask columns of the guarded steps its outputs
    read, directly or through other steps.  Those are the guarded steps
    of a kernel of the group's trees alone, so a group fails the rows
    that kernel would, whatever else the kernel computes.

    The steps run under ``np.errstate(all="ignore")``: the rows that
    the masks fail may overflow or divide by zero, silently.  A step's
    column is dropped after the last step that reads it, unless it is
    an output, so a kernel holds only the columns still to be read.
    Every output is broadcast to N rows, so a folded one is a column too.
    """
    guards = {}  # guarded step -> its row in the masks
    reads = {}  # step -> the bits of the guarded steps it reads, its own too
    last = {}  # slot -> the last step that reads it
    for slot, (helper, args) in steps.items():
        bits = 0
        for k in args:
            bits |= reads.get(k, 0)
            last[k] = slot
        divisor = args[-1] - width  # its cell, if it is no variable
        nonzero = divisor >= 0 and cells[divisor] not in (None, 0.0)
        if helper not in _NEVER_RAISE and not (helper == "/" and nonzero):
            bits |= 1 << len(guards)
            guards[slot] = len(guards)
        reads[slot] = bits
    kept = set(chain.from_iterable(groups))
    dead = {slot: [] for slot in steps}
    for k, slot in last.items():
        if k in steps and k not in kept:
            dead[slot].append(k)
    ops = [
        (slot, _OPS[helper][1], args, guards.get(slot), dead[slot])
        for slot, (helper, args) in steps.items()
    ]
    plan = []  # (outputs, the rows of its guarded steps) per group
    for outputs in groups:
        bits = 0
        for k in outputs:
            bits |= reads.get(k, 0)
        plan.append((outputs, [m for m in guards.values() if bits >> m & 1]))

    def kernel(*columns):
        import numpy as np

        if len(columns) != width:
            raise TypeError(f"kernel takes {width} columns, got {len(columns)}")
        shape = (len(columns[0]),)
        masks = np.zeros((len(guards), *shape), bool)
        regs = [*columns, *cells]
        with np.errstate(all="ignore"):
            for slot, op, args, guard, free in ops:
                mask = None if guard is None else masks[guard]
                regs[slot] = op(*[regs[k] for k in args], mask)
                for k in free:
                    regs[k] = None
        return [
            (tuple(_column(regs[k], shape) for k in outputs), masks[rows].any(0))
            for outputs, rows in plan
        ]

    return kernel


def _compile_kernel(
    result, variables: Sequence[str], constants: Mapping[str, float]
) -> Callable:
    """One function of ``variables`` as positional arguments, in the
    form that the shape of ``result`` picks.

    An expression or a tuple of them makes a scalar kernel: Python
    source, compiled, that runs once per state and returns a float or a
    tuple.  A list of groups, each a tuple of expressions, makes a
    column kernel (with at least one variable), which compiles nothing:
    it takes one (N,) array per variable, runs each step once over the
    arrays with the column functions of `_OPS`, and returns one
    ``(values, mask)`` per group, (N,) arrays bit-identical row by row
    to the scalar kernel's where the boolean ``mask`` is False; ``mask``
    is True on exactly the rows where a scalar kernel of that group
    alone raises DomainError (see `_column_kernel`).  Both run the steps
    of one `_Emitter` walk, each shared subtree once, with ``constants``
    (finite values) folded in; the values and DomainError messages are
    those of evaluating each tree alone with the same names bound, and a
    name bound by neither raises MissingBindingError here.
    """
    emitter = _Emitter(variables, constants)
    if isinstance(result, list):
        cells, steps, outputs = emitter.columns(list(chain.from_iterable(result)))
        slots = iter(outputs)
        groups = [[next(slots) for _ in group] for group in result]
        return _column_kernel(len(variables), cells, steps, groups)
    as_tuple = isinstance(result, tuple)
    parts = emitter.source(list(result) if as_tuple else [result])
    env = dict(_HELPERS)
    exec(compile(_KERNEL_SOURCE.format(
        args=", ".join(f"v{k}" for k in range(len(variables))),
        lines="".join(f"        {line}\n" for line in emitter.lines),
        result=f"({', '.join(parts)},)" if as_tuple else parts[0],
    ), "<chart-expression>", "exec"), env)
    return env["_fn"]


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

def _tokenize(source: str) -> list:
    """The tokens of `source`, each a (kind, text, pos) tuple; kind is
    num, name, op, lparen, rparen or end."""
    tokens = []
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*/^":
            tokens.append(("op", c, i))
            i += 1
        elif c == "(":
            tokens.append(("lparen", c, i))
            i += 1
        elif c == ")":
            tokens.append(("rparen", c, i))
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
            tokens.append(("num", text, i))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(("name", source[i:j], i))
            i = j
        else:
            raise ParseError(f"unexpected character {c!r}", source, i)
    tokens.append(("end", "", n))
    return tokens


#: How deeply the parser lets unary operands nest: every recursive path
#: of the grammar (a parenthesis, a call, a minus, an exponent) passes
#: through `_Parser.unary`, and deeper input is a ParseError, not a
#: RecursionError.
_MAX_PARSE_DEPTH = 100


class _Parser:
    def __init__(self, source: str, names: frozenset):
        self.source = source
        self.names = names
        self.tokens = _tokenize(source)
        self.pos = 0
        self.depth = 0  # unary operands open at the current token

    def peek(self) -> tuple:
        return self.tokens[self.pos]

    def advance(self) -> tuple:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: tuple):
        raise ParseError(message, self.source, tok[2])

    def parse(self) -> Expression:
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            self.fail(f"unexpected token {tok[1]!r}", tok)
        return node

    def expr(self) -> Expression:
        node = self.term()
        kind, op, _ = self.peek()
        while kind == "op" and op in "+-":
            self.advance()
            node = Bin(op, node, self.term())
            kind, op, _ = self.peek()
        return node

    def term(self) -> Expression:
        node = self.unary()
        kind, op, _ = self.peek()
        while kind == "op" and op in "*/":
            self.advance()
            node = Bin(op, node, self.unary())
            kind, op, _ = self.peek()
        return node

    def unary(self) -> Expression:
        tok = self.peek()
        self.depth += 1
        if self.depth > _MAX_PARSE_DEPTH:
            self.fail("expression nests too deeply", tok)
        if tok[0] == "op" and tok[1] == "-":
            self.advance()
            node = Neg(self.unary())
        else:
            node = self.power()
        self.depth -= 1
        return node

    def power(self) -> Expression:
        node = self.atom()
        kind, op, _ = self.peek()
        if kind == "op" and op == "^":
            self.advance()
            return Bin("^", node, self.unary())
        return node

    def group(self) -> Expression:
        """The expression after an opening '(', up to its closing ')'."""
        node = self.expr()
        closing = self.advance()
        if closing[0] != "rparen":
            found = closing[1] or "end of input"
            self.fail(f"expected ')', found {found!r}", closing)
        return node

    def atom(self) -> Expression:
        tok = self.advance()
        kind, text, pos = tok
        if kind == "num":
            return Num(float(text))
        if kind == "lparen":
            return self.group()
        if kind == "name":
            if self.peek()[0] == "lparen":
                if text not in FUNCTIONS:
                    self.fail(f"unknown function '{text}'", tok)
                self.advance()
                return Call(text, self.group())
            if text not in self.names:
                raise UnknownNameError(text, self.source, pos)
            return Var(text)
        self.fail(f"expected expression, found {text or 'end of input'!r}", tok)


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
    return _Parser(source, declared).parse()


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

def _as_node(e) -> Expression:
    """The one coercion: an expression as it is, a number as its literal."""
    if isinstance(e, Expression):
        return e
    if isinstance(e, (int, float)):
        return literal(e)
    raise TypeError(f"cannot use {type(e).__name__} as an expression")


def _fold(op: str, x: Expression, y: Expression) -> Expression | None:
    """The literal of the `_OPS` operation ``op`` on two literals, or None
    where `_Emitter.fold` keeps the node: its scalar function raises or
    gives a value that is not finite, which evaluating it then does."""
    if not (isinstance(x, Num) and isinstance(y, Num)):
        return None
    try:
        value = _OPS[op][0](x.value, y.value)
    except _ROW_ERRORS:
        return None
    return Num(value) if math.isfinite(value) else None


def _is_const(node: Expression, value: float) -> bool:
    return isinstance(node, Num) and node.value == value


def literal(value: float) -> Expression:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"literal must be finite, got {value!r}")
    return Num(value)


def variable(name: str) -> Expression:
    return Var(name)


def neg(e) -> Expression:
    x = _as_node(e)
    if isinstance(x, Num):
        return Num(-x.value)
    if isinstance(x, Neg):
        return x.arg
    return Neg(x)


def add(a, b) -> Expression:
    x, y = _as_node(a), _as_node(b)
    folded = _fold("+", x, y)
    if folded is not None:
        return folded
    if _is_const(x, 0.0):
        return y
    if _is_const(y, 0.0):
        return x
    return Bin("+", x, y)


def sub(a, b) -> Expression:
    x, y = _as_node(a), _as_node(b)
    folded = _fold("-", x, y)
    if folded is not None:
        return folded
    if _is_const(y, 0.0):
        return x
    if _is_const(x, 0.0):
        return neg(y)
    return Bin("-", x, y)


def mul(a, b) -> Expression:
    x, y = _as_node(a), _as_node(b)
    folded = _fold("*", x, y)
    if folded is not None:
        return folded
    if _is_const(x, 0.0) or _is_const(y, 0.0):
        return _ZERO
    if _is_const(x, 1.0):
        return y
    if _is_const(y, 1.0):
        return x
    return Bin("*", x, y)


def div(a, b) -> Expression:
    x, y = _as_node(a), _as_node(b)
    folded = _fold("/", x, y)  # x/0 stays, so evaluation reports it
    if folded is not None:
        return folded
    if _is_const(y, 1.0):
        return x
    return Bin("/", x, y)


def power(a, b) -> Expression:
    x, y = _as_node(a), _as_node(b)
    folded = _fold("_pw", x, y)
    if folded is not None:
        return folded
    if _is_const(y, 1.0):
        return x
    return Bin("^", x, y)


def call(fn: str, e) -> Expression:
    if fn not in FUNCTIONS:
        raise ValueError(f"unknown function '{fn}'")
    return Call(fn, _as_node(e))


_ZERO, _ONE, _TWO = Num(0.0), Num(1.0), Num(2.0)


def _diff(root: Expression, var: str) -> Expression:
    """First partial of ``root`` with respect to ``var``, folded as the
    builders fold.

    A subtree free of ``var`` (no bit of it in ``_vars``) differentiates
    to the literal 0 without being walked, which is what the rules would
    fold it to.  The rule of any other operation node runs once per live
    node and variable: its result is kept on the node, where later walks
    stop, and a structurally equal subtree anywhere, in this tree or
    another, is the same node.
    """
    bit = _VAR_BITS.get(var, 0)
    if not root._vars & bit:
        return _ZERO
    memo = root._diffs
    if memo is not None and var in memo:
        return memo[var]

    def below(node):
        if not node._vars & bit:
            return ()
        memo = node._diffs
        return () if memo is not None and var in memo else _children(node)

    done = {}  # node -> its derivative
    for node in _walk((root,), done, below):
        if not node._vars & bit:
            done[node] = _ZERO
        elif type(node) is Var:  # the one variable whose bit this is
            done[node] = _ONE
        else:
            memo = node._diffs
            if memo is None:  # benign race: the rule is deterministic
                memo = {}
                _set(node, "_diffs", memo)
            out = memo.get(var)
            if out is None:
                out = memo[var] = _diff_rule(node, *_operands(node, done))
            done[node] = out
    return done[root]


def _diff_rule(
    node: Expression, du: Expression, dv: Expression | None = None
) -> Expression:
    """The differentiation rule of ``node``'s kind, given the derivatives
    ``du`` and ``dv`` of its operands (``du`` alone for one operand).

    A subtree free of the variable differentiates to the literal 0, and
    every rule below skips the terms that multiply such a zero, so no
    factor is evaluated that the derivative does not need.
    """
    if isinstance(node, (Neg, Call)):
        if _is_const(du, 0.0):
            return du
        if isinstance(node, Neg):
            return neg(du)
        u = node.arg
        if node.fn == "sin":
            outer = Call("cos", u)
        elif node.fn == "cos":
            outer = neg(Call("sin", u))
        elif node.fn == "exp":
            outer = node
        elif node.fn == "log":
            return div(du, u)
        elif node.fn == "sqrt":
            return div(du, mul(_TWO, node))
        elif node.fn == "abs":
            outer = Call("sign", u)
        else:  # sign: piecewise constant
            return _ZERO
        return mul(outer, du)
    u, v = node.lhs, node.rhs
    u_free, v_free = _is_const(du, 0.0), _is_const(dv, 0.0)
    if u_free and v_free:
        return _ZERO
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
        return mul(mul(v, power(u, sub(v, _ONE))), du)
    log_term = mul(mul(node, Call("log", u)), dv)
    if u_free:
        return log_term
    return add(mul(mul(v, power(u, sub(v, _ONE))), du), log_term)


def substitute(e: Expression, replacements: Mapping[str, "Expression"]) -> Expression:
    """Replace variables by expressions (exact rebuild, no folding)."""
    repl = {name: _as_node(r) for name, r in replacements.items()}
    done = {}  # node -> its rebuilt node
    for node in _walk((e,), done):
        if isinstance(node, Var):
            done[node] = repl.get(node.name, node)
        elif isinstance(node, Neg):
            done[node] = Neg(done[node.arg])
        elif isinstance(node, Bin):
            done[node] = Bin(node.op, done[node.lhs], done[node.rhs])
        elif isinstance(node, Call):
            done[node] = Call(node.fn, done[node.arg])
        else:
            done[node] = node
    return done[e]
