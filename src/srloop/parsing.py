"""Parse model-proposed equation strings into expression trees.

Two dialects are supported:

* ``Dialect.INFIX`` — plain text: ``c1*x1/(c2+x1)``, calls of the functions
  of the operator table (``expressions.FUNCTIONS``: ``sqrt``, ``log``, ...),
  ``**`` or ``^`` for powers, optional ``y = ...`` left-hand side.
* ``Dialect.LATEX`` — a normalizer for the LaTeX fragments chat models tend
  to produce, not a LaTeX engine: ``\\frac{..}{..}``, ``\\sqrt{..}``,
  ``\\cdot``/``\\times``, ``^{..}``, ``\\exp``/``\\log``/``\\ln``, subscripted
  symbols (``c_1``, ``x_{12}``), ``\\left``/``\\right``, ``$`` fences, and
  multiplication by juxtaposition (``c_1 x_1``). Anything else is a syntax
  error.

Literal numbers become fresh fitted constants whose initial guess is the
literal value, except in the exponent of a power, where a pure-numeric
exponent (``x1**1.5``, ``x1^(3/2)``) is kept as a fixed literal so that
fixed-exponent and free-exponent forms stay distinct.
"""

from __future__ import annotations

import math
import re

from .expressions import (
    BINARY_OPERATORS,
    Binary,
    Const,
    Dialect,
    Expression,
    ExpressionSyntaxError,
    FUNCTIONS,
    ImplicitFormError,
    Lit,
    MAX_NODES,
    Node,
    TooComplexError,
    Unary,
    UnknownOperatorError,
    Var,
)

_FUNC_ALIASES = {"ln": "log"}
_CONST_RE = re.compile(r"^c([1-9]\d*)$")

_TOKEN_RE = re.compile(
    r"""
    (?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
  | (?P<cmd>\\[A-Za-z]+)
  | (?P<op>\*\*|[\^+\-*/=(){},])
  | (?P<ws>\s+)
    """,
    re.VERBOSE,
)

# token kinds that can begin an atom (used for juxtaposition in LaTeX)
_ATOM_STARTS = {"num", "ident", "lparen", "lbrace", "frac", "sqrtcmd"}


def _normalize_latex(text: str) -> str:
    text = text.replace("$", " ")
    text = text.replace("\\left", " ").replace("\\right", " ")
    text = text.replace("\\cdot", " * ").replace("\\times", " * ")
    text = re.sub(r"_\{\s*(\d+)\s*\}", r"_\1", text)
    return text


def _tokenize(text: str, dialect: Dialect) -> list[tuple[str, object]]:
    if dialect is Dialect.LATEX:
        text = _normalize_latex(text)
    tokens: list[tuple[str, object]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExpressionSyntaxError(f"unexpected character {text[pos]!r} at position {pos}")
        pos = m.end()
        if m.lastgroup == "ws":
            continue
        value = m.group()
        if m.lastgroup == "num":
            if not math.isfinite(float(value)):
                raise ExpressionSyntaxError(f"numeric literal {value} is out of range")
            tokens.append(("num", float(value)))
        elif m.lastgroup == "ident":
            tokens.append(("ident", value.replace("_", "")))
        elif m.lastgroup == "cmd":
            name = value[1:]
            if name == "frac":
                tokens.append(("frac", name))
            elif name == "sqrt":
                tokens.append(("sqrtcmd", name))
            elif name in ("exp", "log", "ln"):
                tokens.append(("ident", _FUNC_ALIASES.get(name, name)))
            else:
                raise ExpressionSyntaxError(f"unsupported LaTeX command \\{name}")
        else:
            op = value
            kind = {
                "(": "lparen",
                ")": "rparen",
                "{": "lbrace",
                "}": "rbrace",
                "=": "equals",
                "**": "pow",
                "^": "pow",
            }.get(op, op)
            tokens.append((kind, op))
    if dialect is Dialect.INFIX:
        for kind, val in tokens:
            if kind in ("lbrace", "rbrace"):
                raise ExpressionSyntaxError(f"unexpected {val!r} in infix expression")
    return tokens


_MAX_NESTING = 100


class _Parser:
    def __init__(self, tokens, dialect: Dialect, var_map: dict[str, int]):
        self.tokens = tokens
        self.dialect = dialect
        self.var_map = var_map
        self.pos = 0
        self.depth = 0
        self.nodes = 0

    def _descend(self):
        # keeps adversarially nested input a parse failure, not a RecursionError
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise ExpressionSyntaxError("expression nested too deeply")

    def node(self, n: Node) -> Node:
        # counted as built, so an over-long chain stops before it exhausts the stack
        self.nodes += 1
        if self.nodes > MAX_NODES:
            raise TooComplexError(f"expression has more than {MAX_NODES} nodes")
        return n

    def peek(self) -> str | None:
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def take(self, kind: str) -> object:
        if self.peek() != kind:
            got = self.tokens[self.pos][1] if self.pos < len(self.tokens) else "end of input"
            raise ExpressionSyntaxError(f"expected {kind}, got {got!r}")
        value = self.tokens[self.pos][1]
        self.pos += 1
        return value

    def parse(self) -> Node:
        node = self.expr()
        if self.pos != len(self.tokens):
            raise ExpressionSyntaxError(f"trailing input at token {self.tokens[self.pos][1]!r}")
        return node

    def expr(self) -> Node:
        self._descend()
        node = self.term()
        while self.peek() in ("+", "-"):
            op = str(self.take(self.peek()))
            node = self.node(Binary(op, node, self.term()))
        self.depth -= 1
        return node

    def term(self) -> Node:
        node = self.unary()
        while True:
            kind = self.peek()
            if kind in ("*", "/"):
                op = str(self.take(kind))
                node = self.node(Binary(op, node, self.unary()))
            elif self.dialect is Dialect.LATEX and kind in _ATOM_STARTS:
                node = self.node(Binary("*", node, self.unary()))
            else:
                return node

    def unary(self) -> Node:
        sign = self.peek()
        if sign not in ("-", "+"):
            return self.power()
        self._descend()
        self.take(sign)
        node = self.unary()
        if sign == "-":
            node = self.node(Unary("neg", node))
        self.depth -= 1
        return node

    def power(self) -> Node:
        base = self.atom()
        if self.peek() != "pow":
            return base
        self.take("pow")
        exponent = self.exponent()
        if _is_pure_literal(exponent):  # a numeric exponent is folded into one fixed literal
            try:
                value = float(_eval_literal(exponent))
            except (ZeroDivisionError, OverflowError, ValueError, TypeError):
                value = math.nan
            if math.isfinite(value):
                exponent = Lit(value)
        return self.node(Binary("^", base, exponent))

    def exponent(self) -> Node:
        # right-associative; allows a sign and a further power: x**-c1, x**y**z
        if self.peek() == "-":
            self._descend()
            self.take("-")
            node = self.node(Unary("neg", self.exponent()))
            self.depth -= 1
            return node
        return self.power()

    def atom(self) -> Node:
        kind = self.peek()
        if kind == "num":
            return self.node(Lit(float(self.take("num"))))
        if kind in ("lparen", "lbrace"):
            return self.group()
        if kind == "frac":
            self.take("frac")
            self.take("lbrace")
            num = self.expr()
            self.take("rbrace")
            self.take("lbrace")
            den = self.expr()
            self.take("rbrace")
            return self.node(Binary("/", num, den))
        if kind == "sqrtcmd":
            self.take("sqrtcmd")
            return self.node(Unary("sqrt", self.group()))
        if kind == "ident":
            name = str(self.take("ident"))
            name = _FUNC_ALIASES.get(name, name)
            if self.peek() in ("lparen", "lbrace"):
                if name in FUNCTIONS:
                    return self.node(Unary(name, self.group()))
                raise UnknownOperatorError(f"unknown function {name!r}")
            if name in FUNCTIONS:
                raise ExpressionSyntaxError(f"function {name!r} needs a parenthesized argument")
            m = _CONST_RE.match(name)
            if m:
                return self.node(Const(int(m.group(1))))
            if name in self.var_map:
                return self.node(Var(self.var_map[name]))
            if name == "pi":
                return self.node(Lit(math.pi))
            if name == "e":
                return self.node(Lit(math.e))
            raise ExpressionSyntaxError(f"unknown symbol {name!r}")
        got = self.tokens[self.pos][1] if self.pos < len(self.tokens) else "end of input"
        raise ExpressionSyntaxError(f"unexpected {got!r}")

    def group(self) -> Node:
        if self.peek() == "lbrace":
            self.take("lbrace")
            node = self.expr()
            self.take("rbrace")
            return node
        self.take("lparen")
        node = self.expr()
        self.take("rparen")
        return node


def _split_equation(tokens, var_map) -> list:
    splits = [i for i, (kind, _) in enumerate(tokens) if kind == "equals"]
    if not splits:
        return tokens
    if len(splits) > 1:
        raise ImplicitFormError("multiple '=' signs")
    lhs, rhs = tokens[: splits[0]], tokens[splits[0] + 1 :]
    if not lhs or not rhs:
        raise ExpressionSyntaxError("empty side of '='")
    # accept "name = ..." or "name(args) = ..."; anything else is implicit
    if not (lhs[0][0] == "ident"):
        raise ImplicitFormError("left side of '=' is not a plain dependent variable")
    dep = str(lhs[0][1])
    ok_call = (
        len(lhs) >= 3
        and lhs[1][0] == "lparen"
        and lhs[-1][0] == "rparen"
        and all(k in ("ident", ",") for k, _ in lhs[2:-1])
    )
    if len(lhs) != 1 and not ok_call:
        raise ImplicitFormError("left side of '=' is not a plain dependent variable")
    if dep in var_map:
        raise ImplicitFormError(f"dependent side of '=' is the input variable {dep!r}")
    if any(kind == "ident" and value == dep for kind, value in rhs):
        raise ImplicitFormError(f"dependent variable {dep!r} appears on both sides of '='")
    return rhs


def _is_pure_literal(n: Node) -> bool:
    if isinstance(n, Lit):
        return True
    if isinstance(n, Unary) and n.op == "neg":
        return _is_pure_literal(n.child)
    if isinstance(n, Binary):
        return _is_pure_literal(n.left) and _is_pure_literal(n.right)
    return False


def _eval_literal(n: Node) -> float:
    if isinstance(n, Lit):
        return n.value
    if isinstance(n, Unary):
        return -_eval_literal(n.child)
    assert isinstance(n, Binary)
    a, b = _eval_literal(n.left), _eval_literal(n.right)
    # Python's **, not np.power: a power that fails or turns complex is not folded
    return a**b if n.op == "^" else BINARY_OPERATORS[n.op](a, b)


def _index_constants(root: Node) -> Expression:
    """Re-index constants left-to-right as c1..cK; remaining literals become
    fresh constants whose initial guess is the literal value."""
    remap: dict[int, int] = {}
    inits: list[float] = []

    def rec(n: Node, exponent: bool = False) -> Node:
        if isinstance(n, Lit):
            if exponent:
                return n
            inits.append(float(n.value))
            return Const(len(inits))
        if isinstance(n, Const):
            if n.index not in remap:
                remap[n.index] = len(inits) + 1
                inits.append(1.0)
            return Const(remap[n.index])
        if isinstance(n, Var):
            return n
        if isinstance(n, Unary):
            return Unary(n.op, rec(n.child))
        if n.op == "^":
            return Binary("^", rec(n.left), rec(n.right, exponent=isinstance(n.right, Lit)))
        return Binary(n.op, rec(n.left), rec(n.right))

    root = rec(root)
    return Expression(root, tuple(inits))


def parse(text: str, dialect: Dialect, variables) -> Expression:
    """Parse equation text into an :class:`Expression`.

    Args:
        text: the candidate equation, optionally in ``y = ...`` form.
        dialect: which surface syntax to accept.
        variables: input variable names, e.g. ``["x1", "x2"]``; position
            determines the variable index.

    Raises:
        ExpressionSyntaxError: malformed input or an unknown symbol.
        TooComplexError: more than ``MAX_NODES`` nodes as written (a subclass
            of ExpressionSyntaxError).
        UnknownOperatorError: a function outside the grammar.
        ImplicitFormError: an '=' form that cannot be read as ``y = f(inputs)``.
    """
    if not text or not text.strip():
        raise ExpressionSyntaxError("empty expression")
    if not variables:
        raise ValueError("variables must be non-empty")
    var_map = {name.replace("_", ""): i + 1 for i, name in enumerate(variables)}
    tokens = _tokenize(text, dialect)
    tokens = _split_equation(tokens, var_map)
    if not tokens:
        raise ExpressionSyntaxError("empty expression")
    return _index_constants(_Parser(tokens, dialect, var_map).parse())
