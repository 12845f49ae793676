"""Expression trees for symbolic regression candidates.

An expression is an immutable tree over indexed constants (c1, c2, ...),
indexed input variables (x1, x2, ...), literal exponents and a small set of
unary/binary operators. Equality is structural, so trees can be used as
dictionary keys and compared directly.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterator, Union

import numpy as np

#: The operator table, the one definition of the operator vocabulary: each
#: binary operator and each function, with what evaluates it, in the order
#: prompts list them. The parser, OperatorSet and operator_note read it.
BINARY_OPERATORS: dict[str, Callable] = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
    "^": np.power,
}
FUNCTIONS: dict[str, Callable] = {
    "sqrt": np.sqrt, "log": np.log, "exp": np.exp,
    "square": lambda v: v * v, "cube": lambda v: v * v * v,
}
#: The functions plus "neg", the unary minus the parser reads from a leading "-".
UNARY_OPERATORS: dict[str, Callable] = {**FUNCTIONS, "neg": operator.neg}

UNARY_OPS = frozenset(UNARY_OPERATORS)
BINARY_OPS = frozenset(BINARY_OPERATORS)

#: Expressions with more fitted constants than this are rejected before fitting.
MAX_CONSTANTS = 10

#: Expressions with more nodes than this, as written, are rejected by the parser,
#: which keeps every recursive tree walk well inside the interpreter's stack.
MAX_NODES = 200


class ExpressionError(Exception):
    """Base class for expression-layer failures."""


class ExpressionSyntaxError(ExpressionError):
    """Input text is not a well-formed expression (unbalanced delimiters, unknown symbol)."""


class TooComplexError(ExpressionSyntaxError):
    """Input text has more than MAX_NODES nodes."""


class UnknownOperatorError(ExpressionError):
    """An operator or function outside the grammar was used."""


class ImplicitFormError(ExpressionError):
    """An equation whose dependent variable is missing or appears on both sides."""


class Dialect(Enum):
    """Input syntax accepted by :func:`srloop.parsing.parse`."""

    INFIX = "infix"
    LATEX = "latex"


@dataclass(frozen=True)
class Const:
    """Fitted constant, 1-indexed (c1, c2, ...)."""

    index: int


@dataclass(frozen=True)
class Var:
    """Input variable, 1-indexed against the bound dataset (x1, x2, ...)."""

    index: int


@dataclass(frozen=True)
class Lit:
    """Fixed numeric literal. Only produced for power exponents (x1**1.5),
    so fixed-exponent forms stay distinct from free-exponent ones."""

    value: float


@dataclass(frozen=True)
class Unary:
    op: str
    child: "Node"


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Node"
    right: "Node"


Node = Union[Const, Var, Lit, Unary, Binary]


@dataclass(frozen=True)
class Expression:
    """Immutable expression tree plus optional initial guesses for its constants.

    ``const_inits`` holds one initial value per constant index; it is filled by
    the parser when a constant was born from a literal the model emitted (e.g.
    the 2 in "2*x1"). It does not participate in equality or hashing: two
    expressions are equal iff their trees are.
    """

    root: Node
    const_inits: tuple[float, ...] = field(default=(), compare=False)

    @property
    def n_constants(self) -> int:
        return max((n.index for n in walk(self.root) if isinstance(n, Const)), default=0)

    @property
    def variables(self) -> frozenset[int]:
        return frozenset(n.index for n in walk(self.root) if isinstance(n, Var))

    def initial_guess(self) -> tuple[float, ...]:
        k = self.n_constants
        if len(self.const_inits) == k:
            return self.const_inits
        return (1.0,) * k

    def __str__(self) -> str:
        return render(self)


def walk(node: Node) -> Iterator[Node]:
    """Pre-order traversal (node, then children left to right)."""
    yield node
    if isinstance(node, Unary):
        yield from walk(node.child)
    elif isinstance(node, Binary):
        yield from walk(node.left)
        yield from walk(node.right)


def complexity(e: Expression) -> int:
    """Node count: every constant, variable, literal and operator counts 1."""
    return sum(1 for _ in walk(e.root))


# ---------------------------------------------------------------------------
# Rendering

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_PREC_NEG = 3
_PREC_ATOM = 5


def _prec(node: Node) -> int:
    if isinstance(node, Binary):
        return _PREC[node.op]
    if isinstance(node, Unary) and node.op == "neg":
        return _PREC_NEG
    return _PREC_ATOM


def _fmt_literal(v: float) -> str:
    if float(v).is_integer() and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


def render(e: Expression) -> str:
    """Serialize to infix text such that parse(render(e)) is structurally equal to e."""
    return _render(e.root)


def _render(n: Node) -> str:
    if isinstance(n, Const):
        return f"c{n.index}"
    if isinstance(n, Var):
        return f"x{n.index}"
    if isinstance(n, Lit):
        return _fmt_literal(n.value)
    if isinstance(n, Unary):
        inner = _render(n.child)
        if n.op == "neg":
            # unary minus binds tighter than +-*/ but looser than ** in the grammar
            if isinstance(n.child, Binary) and n.child.op != "^":
                inner = f"({inner})"
            return f"-{inner}"
        return f"{n.op}({inner})"
    left, right = _render(n.left), _render(n.right)
    if n.op == "^":
        if _prec(n.left) <= _PREC["^"]:
            left = f"({left})"
        # the grammar reads a signed power or an atom as the exponent; ** is right-associative
        if _prec(n.right) < _PREC_NEG:
            right = f"({right})"
        return f"{left}**{right}"
    if _prec(n.left) < _PREC[n.op]:
        left = f"({left})"
    if _prec(n.right) <= _PREC[n.op]:
        right = f"({right})"
    return f"{left}{n.op}{right}"


# ---------------------------------------------------------------------------
# Evaluation
#
# Each tree compiles once, with compile(), into one flat function with one
# statement per operator node. Its source holds only generated names and
# indices (p[0], X[:, 0], v1, t3); operator functions and literal values
# are bound through the namespace, so no model text reaches it.
#
# Operators run unguarded. inf and NaN stay non-finite through +, -, *,
# sqrt, log, square, cube, neg and the left operand of /, so a non-finite
# value can turn finite only at a *site*: the right operand of / (c/inf is
# 0), the argument of exp (exp(-inf) is 0) and an operand of ^ (inf**0,
# 1**inf and nan**0 are 1). A raw operand (a leaf, or a negated leaf) is no
# site of / or exp, ^ tests it for NaN only, and a ^ literal other than NaN
# is no site; nor is a raw variable whose column of X is known to hold no
# NaN. A site checks its operand once (np.add.reduce, or math.isfinite for
# a scalar). Only when that is non-finite does it run its row test
# (~isfinite, or isnan for a raw operand) and set those rows of the node's
# result to NaN; a reduce that overflows on finite rows marks none. So
# every value is non-finite exactly where a tree that marks each site's
# rows with np.where on every call has one, and bit-equal to it elsewhere:
# the MSE, and so every fit, is the same.
#
# The batched form, f(P, X) over S parameter rows P of shape (S, k), is the
# same function on arrays one dimension up: a constant is the column
# P[:, i:i+1], so a subtree without a variable is an (S, 1) column and one
# with a variable is (S, rows). A site's reduce spans every point, and its
# row test is elementwise, so it marks only the rows of the points where the
# operand is non-finite. Row s of the result is bit-equal to the single-point
# function at P[s] (NumPy's elementwise loops give the same bits on a
# broadcast operand).

_RUNTIME = {
    "asarray": np.asarray, "full": np.full, "where": np.where, "nan": np.nan,
    "isfinite": math.isfinite, "reduce": np.add.reduce, "isnan": np.isnan,
    "nonfinite": lambda v: ~np.isfinite(v),
}


def _raw_leaf(n: Node) -> Node | None:
    """The leaf of a raw operand (a leaf, or a negated leaf), else None."""
    while isinstance(n, Unary) and n.op == "neg":
        n = n.child
    return n if isinstance(n, (Const, Var, Lit)) else None


def _site_test(op: str, position: int, operand: Node,
               nan_columns: frozenset[int] | None) -> str | None:
    """The row test of ``operand`` at ``position`` of an ``op`` node, or None
    where it is no site."""
    leaf = _raw_leaf(operand)
    if op == "^":
        if isinstance(operand, Lit) and not math.isnan(operand.value):
            return None
        if isinstance(leaf, Var) and nan_columns is not None and leaf.index - 1 not in nan_columns:
            return None
        return "nonfinite" if leaf is None else "isnan"
    if (op == "exp" or op == "/" and position == 1) and leaf is None:
        return "nonfinite"
    return None


def _compile(root: Node, batched: bool, nan_columns: frozenset[int] | None) -> Callable:
    """The flat function of ``root``: ``f(p, X)``, or with ``batched``
    ``f(P, X)`` over the rows of ``P``. ``nan_columns`` holds the 0-based
    columns of every ``X`` the function will see that may hold NaN; None
    means any may."""
    ns = dict(_RUNTIME)
    body: list[str] = []
    leaves: dict[Node, str] = {}
    check = "reduce({}, None)" if batched else "reduce({})"

    def bind(value) -> str:
        name = f"b{len(ns)}"
        ns[name] = value
        return name

    def site(t: str, operand: str, is_array: bool, test: str) -> None:
        checked = check.format(operand) if is_array else operand
        body.append(f"if not isfinite({checked}):\n        {t} = where({test}({operand}), nan, {t})")

    def emit(n: Node) -> tuple[str, bool]:
        """Append the statements of ``n``; return the name of its value and
        whether that is an array: a subtree without a variable is a scalar,
        but in the batched form one with a constant is an (S, 1) column."""
        if isinstance(n, Lit):
            return bind(float(n.value)), False
        if isinstance(n, (Const, Var)):
            if n not in leaves:
                i = operator.index(n.index) - 1
                leaves[n] = f"v{len(leaves)}"
                read = (f"X[:, {i}]" if isinstance(n, Var)
                        else f"p[:, {i}:{i + 1}]" if batched else f"p[{i}]")
                body.append(f"{leaves[n]} = {read}")
            return leaves[n], batched or isinstance(n, Var)
        if isinstance(n, Unary) and n.op in UNARY_OPERATORS:
            fn, operands = UNARY_OPERATORS[n.op], [n.child]
        elif isinstance(n, Binary) and n.op in BINARY_OPERATORS:
            fn, operands = BINARY_OPERATORS[n.op], [n.left, n.right]
        elif isinstance(n, (Unary, Binary)):
            raise UnknownOperatorError(f"unknown operator {n.op!r}")
        else:
            raise TypeError(f"not a node: {n!r}")
        args = [emit(operand) for operand in operands]
        t = f"t{len(body)}"
        body.append(f"{t} = {bind(fn)}({', '.join(name for name, _ in args)})")
        for position, (operand, (name, is_array)) in enumerate(zip(operands, args)):
            test = _site_test(n.op, position, operand, nan_columns)
            if test is not None:
                site(t, name, is_array, test)
        return t, any(is_array for _, is_array in args)

    out, is_array = emit(root)
    shape = "(p.shape[0], X.shape[0])" if batched else "X.shape[0]"
    body.append(f"return {out}" if is_array else f"return full({shape}, float({out}))")
    source = "def evaluator(p, X):\n    p = asarray(p, dtype=float)\n    X = asarray(X, dtype=float)\n"
    exec(compile(source + "".join(f"    {line}\n" for line in body), "<srloop evaluator>", "exec"), ns)
    return ns["evaluator"]


def compile_evaluator(e: Expression, X: np.ndarray | None = None,
                      batched: bool = False) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Compile to ``f(params, X) -> y_hat`` over row-major inputs, or with
    ``batched`` to ``f(P, X)`` over S parameter rows ``P`` of shape (S, k),
    whose result is (S, rows) or broadcastable to it; row s is bit-equal to
    the single-point form at ``P[s]``. A constant ci reads ``params[i - 1]``.

    Undefined rows (division by zero, log of a non-positive value, sqrt of a
    negative value, overflow) come back non-finite (inf or NaN) instead of
    raising. Operators run unguarded. Only at a site, where a non-finite
    value could turn finite again (the right operand of ``/``, the argument
    of ``exp``, an operand of ``^``), is the operand checked, by one
    ``np.add.reduce`` (``math.isfinite`` for a scalar); only when that is
    non-finite is a row mask computed and those rows of the site's result
    set to NaN. Given ``X``, the function is for that input matrix alone:
    a raw variable operand of ``^`` is tested for NaN only if its column of
    ``X`` holds one.
    Call the returned function under ``np.errstate(all="ignore")``: it does
    not enter one itself, so that a fit can enter it once per local solve.
    """
    nan_columns = None if X is None else frozenset(
        np.flatnonzero(np.isnan(np.asarray(X, dtype=float)).any(axis=0)).tolist())
    return _compile(e.root, batched, nan_columns)


# ---------------------------------------------------------------------------
# Operator sets

@dataclass(frozen=True)
class OperatorSet:
    """The operators a search is allowed to use.

    A power node with a literal or constant exponent is treated as a
    restricted power and is always permitted; arbitrary (variable or compound)
    exponents additionally require '^' in the binary set.
    """

    binary: frozenset[str]
    unary: frozenset[str] = frozenset()
    name: str = "custom"

    def __post_init__(self):
        if not self.binary:
            raise ValueError("operator set needs at least one binary operator")
        bad = (set(self.binary) - BINARY_OPS) | (set(self.unary) - FUNCTIONS.keys())
        if bad:
            raise ValueError(f"unknown operators in set: {sorted(bad)}")

    @classmethod
    def easy(cls, extra: tuple[str, ...] | list[str] = ()) -> "OperatorSet":
        """Basic binary arithmetic (every binary operator but '^'), plus any
        per-dataset additions."""
        binary = (BINARY_OPS - {"^"}) | {o for o in extra if o in BINARY_OPS}
        return cls(frozenset(binary), frozenset(o for o in extra if o in UNARY_OPS), "easy")

    @classmethod
    def hard(cls, extra: tuple[str, ...] | list[str] = ()) -> "OperatorSet":
        """The easy set plus every function."""
        easy = cls.easy(extra)
        return cls(easy.binary, frozenset(FUNCTIONS) | easy.unary, "hard")

    def violations(self, e: Expression) -> list[str]:
        out = set()
        for n in walk(e.root):
            if isinstance(n, Unary):
                if n.op == "neg":
                    if "-" not in self.binary:
                        out.add("neg")
                elif n.op not in self.unary:
                    out.add(n.op)
            elif isinstance(n, Binary):
                if n.op == "^":
                    if "^" not in self.binary and not isinstance(n.right, (Lit, Const)):
                        out.add("^")
                elif n.op not in self.binary:
                    out.add(n.op)
        return sorted(out)


# ---------------------------------------------------------------------------
# Canonicalization
#
# A fixed, terminating rewrite system targeting constant-absorption
# equivalences: two expressions that become the same model once their free
# constants are fitted should reach the same canonical tree. It is not a
# computer algebra system; only the rules below are applied.

def _shape_key(n: Node):
    # total order on node shapes; constant indices are deliberately invisible
    if isinstance(n, Const):
        return (0,)
    if isinstance(n, Lit):
        return (1, n.value)
    if isinstance(n, Var):
        return (2, n.index)
    if isinstance(n, Unary):
        return (3, n.op, _shape_key(n.child))
    return (4, n.op, _shape_key(n.left), _shape_key(n.right))


def _const_counts(root: Node) -> dict[int, int]:
    counts: dict[int, int] = {}
    for n in walk(root):
        if isinstance(n, Const):
            counts[n.index] = counts.get(n.index, 0) + 1
    return counts


def _flatten(op: str, node: Node) -> list[Node]:
    if isinstance(node, Binary) and node.op == op:
        return _flatten(op, node.left) + _flatten(op, node.right)
    return [node]


def _rebuild(op: str, items: list[Node]) -> Node:
    node = items[0]
    for item in items[1:]:
        node = Binary(op, node, item)
    return node


def _sign_absorbable(n: Node, counts: dict[int, int]) -> bool:
    """True when negating n is the same as relabeling one unshared constant:
    a bare constant, or a product/quotient headed by exactly one."""
    if isinstance(n, Const):
        return counts.get(n.index, 1) == 1
    if isinstance(n, Binary) and n.op == "*":
        consts = [f for f in _flatten("*", n) if isinstance(f, Const)]
        return len(consts) == 1 and counts.get(consts[0].index, 1) == 1
    if isinstance(n, Binary) and n.op == "/":
        return _sign_absorbable(n.left, counts)
    return False


def _canon_pass(node: Node, counts: dict[int, int], fresh) -> Node:
    if isinstance(node, (Const, Var, Lit)):
        return node
    if isinstance(node, Unary):
        child = _canon_pass(node.child, counts, fresh)
        # -(c1) and -(c1*t) are just a relabeling of an unshared c1
        if node.op == "neg" and _sign_absorbable(child, counts):
            return child
        return Unary(node.op, child)

    left = _canon_pass(node.left, counts, fresh)
    right = _canon_pass(node.right, counts, fresh)
    op = node.op
    if op == "-" and _sign_absorbable(right, counts):
        op = "+"  # t - c  ->  t + c' ; t - c*u  ->  t + c'*u
    if op == "/" and isinstance(right, Const) and counts.get(right.index, 1) == 1:
        op = "*"  # t / c  ->  t * c'

    if op in ("+", "*"):
        terms = _flatten(op, left) + _flatten(op, right)
        consts = [t for t in terms if isinstance(t, Const)]
        rest = sorted((t for t in terms if not isinstance(t, Const)), key=_shape_key)
        cnode: Node | None
        if len(consts) >= 2:
            cnode = Const(next(fresh))  # c (+|*) c folds to a single fresh constant
        elif consts:
            cnode = consts[0]
        else:
            cnode = None
        if (
            op == "*"
            and cnode is not None
            and counts.get(cnode.index, 1) == 1
            and len(rest) == 1
            and isinstance(rest[0], Binary)
            and rest[0].op == "+"
        ):
            inner = _flatten("+", rest[0])
            inner_consts = [t for t in inner if isinstance(t, Const)]
            inner_rest = [t for t in inner if not isinstance(t, Const)]
            if (
                len(inner_consts) == 1
                and inner_rest
                and counts.get(inner_consts[0].index, 1) == 1
            ):
                # c1*(c2 + t)  ->  c3 + c4*t  (both constants must be unshared)
                scaled = Binary("*", Const(next(fresh)), _rebuild("+", inner_rest))
                return _rebuild("+", [Const(next(fresh)), scaled])
        items = ([cnode] if cnode is not None else []) + rest
        if len(items) == 1:
            return items[0]
        return _rebuild(op, items)

    return Binary(op, left, right)


def _reindex(node: Node) -> Node:
    mapping: dict[int, int] = {}

    def rec(n: Node) -> Node:
        if isinstance(n, Const):
            if n.index not in mapping:
                mapping[n.index] = len(mapping) + 1
            return Const(mapping[n.index])
        if isinstance(n, (Var, Lit)):
            return n
        if isinstance(n, Unary):
            return Unary(n.op, rec(n.child))
        return Binary(n.op, rec(n.left), rec(n.right))

    return rec(node)


def canonicalize(e: Expression) -> Expression:
    """Rewrite to the canonical representative of the expression's SR-equivalence class.

    Rules: subtraction/division by an unshared constant becomes addition/
    multiplication (likewise subtraction of a product headed by one), unary
    negation of an unshared constant or constant-headed product is absorbed,
    constant(+|*)constant folds, an unshared constant distributes over a sum
    containing an unshared constant, commutative arguments are sorted by a
    fixed shape order, and constants are re-indexed c1..cK. Idempotent.
    Raises RuntimeError if the rewrites reach no fixpoint within 64 passes.
    """
    cur = _reindex(e.root)
    max_index = max((n.index for n in walk(cur) if isinstance(n, Const)), default=0)
    for _ in range(64):
        fresh = itertools.count(max_index + 1)
        nxt = _reindex(_canon_pass(cur, _const_counts(cur), fresh))
        if nxt == cur:
            return Expression(cur)
        cur = nxt
    raise RuntimeError(f"canonicalize reached no fixpoint in 64 passes on {render(e)}")


def sr_equivalent(a: Expression, b: Expression) -> bool:
    """True iff a and b are the same model once their constants are fitted
    (structural equality of canonical forms, up to constant re-indexing)."""
    return canonicalize(a).root == canonicalize(b).root
