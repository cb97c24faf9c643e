"""Small arithmetic expression language for model fields.

Grammar (infix, standard precedence, parentheses):

    expr   := term  (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          right-associative
    atom   := NUMBER | 'theta' | 'p'k | FN '(' expr ')' | '(' expr ')'

with FN one of sqrt, exp, log and coordinates named p1..pM.  The
language is deliberately tiny: every supported model is algebraic in p
and sqrt(1+|p|^2), so there are no conditionals and no trig.

ASTs are immutable trees of dataclass nodes.  Smart constructors fold
constants and algebraic units so differentiation does not snowball.
Differentiation memoizes on node identity, which preserves sharing: the
derivative of exp(f) reuses the original exp(f) node.

Evaluation shares nodes by structure, not by identity: a `Tape`
hash-conses the nodes of a list of ASTs (a field jet, say) into one
straight-line program, so a subterm that appears in several entries, or
as equal copies, is computed once.  A tape runs vectorized over an
(n, M) array of points under one numpy error state and guards the real
domain: division by zero, log of a nonpositive value, and similar raise
ExprDomainError instead of propagating NaN.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import ExprDomainError, ExprSyntaxError, UnknownIdentifier

__all__ = [
    "ExprAST",
    "Const",
    "Coord",
    "Theta",
    "Neg",
    "BinOp",
    "Call",
    "parse_expr",
    "diff_expr",
    "evaluate",
    "Tape",
    "to_string",
    "uses_theta",
    "max_coord",
]

_FUNCTIONS = ("sqrt", "exp", "log")


@dataclass(frozen=True)
class ExprAST:
    """Base class for expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(ExprAST):
    value: float


@dataclass(frozen=True)
class Coord(ExprAST):
    """Coordinate p^index with 1-based index matching the name p{index}."""

    index: int


@dataclass(frozen=True)
class Theta(ExprAST):
    pass


@dataclass(frozen=True)
class Neg(ExprAST):
    arg: ExprAST


@dataclass(frozen=True)
class BinOp(ExprAST):
    op: str
    left: ExprAST
    right: ExprAST


@dataclass(frozen=True)
class Call(ExprAST):
    fn: str
    arg: ExprAST


_ZERO = Const(0.0)
_ONE = Const(1.0)
_THETA = Theta()


def _is_const(node, value=None):
    if not isinstance(node, Const):
        return False
    return value is None or node.value == value


def neg(a):
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def add(a, b):
    if isinstance(a, Const) and isinstance(b, Const):
        folded = _fold(lambda x, y: x + y, a.value, b.value)
        if folded is not None:
            return folded
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return BinOp("+", a, b)


def sub(a, b):
    if isinstance(a, Const) and isinstance(b, Const):
        folded = _fold(lambda x, y: x - y, a.value, b.value)
        if folded is not None:
            return folded
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return neg(b)
    return BinOp("-", a, b)


def mul(a, b):
    if isinstance(a, Const) and isinstance(b, Const):
        folded = _fold(lambda x, y: x * y, a.value, b.value)
        if folded is not None:
            return folded
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return _ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if _is_const(a, -1.0):
        return neg(b)
    if _is_const(b, -1.0):
        return neg(a)
    return BinOp("*", a, b)


def div(a, b):
    if isinstance(b, Const) and b.value != 0.0 and isinstance(a, Const):
        folded = _fold(lambda x, y: x / y, a.value, b.value)
        if folded is not None:
            return folded
    if _is_const(b, 1.0):
        return a
    if _is_const(a, 0.0) and not _is_const(b, 0.0):
        return _ZERO
    return BinOp("/", a, b)


def _fold(fn, *args):
    """Evaluate a folding candidate; None when it leaves finite reals."""
    try:
        out = fn(*args)
    except (OverflowError, ValueError, ZeroDivisionError):
        return None
    return Const(out) if math.isfinite(out) else None


def powx(a, b):
    if _is_const(b, 0.0):
        return _ONE
    if _is_const(b, 1.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        base, ex = a.value, b.value
        # Fold only inside the real domain; leave the rest to evaluation.
        if (base > 0.0) or (base == 0.0 and ex > 0.0) or (base < 0.0 and ex == int(ex)):
            folded = _fold(pow, base, ex)
            if folded is not None:
                return folded
    return BinOp("^", a, b)


def call(fn, a):
    if isinstance(a, Const):
        v = a.value
        folded = None
        if fn == "sqrt" and v >= 0.0:
            folded = _fold(math.sqrt, v)
        elif fn == "exp":
            folded = _fold(math.exp, v)
        elif fn == "log" and v > 0.0:
            folded = _fold(math.log, v)
        if folded is not None:
            return folded
    return Call(fn, a)


# ---------------------------------------------------------------------------
# Parsing


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<sym>[-+*/^()]))"
)

_COORD_RE = re.compile(r"p([1-9]\d*)\Z")

_ATOM_EXPECTED = ("number", "identifier", "'('", "'-'")


class _TokenStream:
    def __init__(self, src):
        self.src = src
        self.tokens = []
        pos = 0
        n = len(src)
        while pos < n:
            m = _TOKEN_RE.match(src, pos)
            if m is None:
                stripped = src[pos:].lstrip()
                if not stripped:
                    break
                bad_at = n - len(stripped)
                raise ExprSyntaxError(
                    f"unexpected character {stripped[0]!r}", bad_at, _ATOM_EXPECTED
                )
            kind = m.lastgroup
            text = m.group(kind)
            self.tokens.append((kind, text, m.start(kind)))
            pos = m.end()
        self.tokens.append(("end", "", n))
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_sym(self, sym):
        kind, text, pos = self.peek()
        if kind == "sym" and text == sym:
            return self.next()
        raise ExprSyntaxError(
            f"expected {sym!r}, found {text!r}" if kind != "end" else f"expected {sym!r}",
            pos,
            (f"'{sym}'",),
        )


def parse_expr(src, max_coord_index=None):
    """Parse an expression string into an AST.

    Parameters
    ----------
    src : str
        Source text in the grammar above.
    max_coord_index : int, optional
        If given, coordinates p{k} with k > max_coord_index raise
        UnknownIdentifier (used when the model dimension is known).

    Raises
    ------
    ExprSyntaxError
        Malformed input; carries the 0-based position and the set of
        token categories that would have been accepted there.
    UnknownIdentifier
        An identifier that is not theta, a coordinate, or a function.
    """
    ts = _TokenStream(src)

    def parse_sum():
        node = parse_term()
        while True:
            kind, text, _ = ts.peek()
            if kind == "sym" and text in "+-":
                ts.next()
                rhs = parse_term()
                node = add(node, rhs) if text == "+" else sub(node, rhs)
            else:
                return node

    def parse_term():
        node = parse_unary()
        while True:
            kind, text, _ = ts.peek()
            if kind == "sym" and text in "*/":
                ts.next()
                rhs = parse_unary()
                node = mul(node, rhs) if text == "*" else div(node, rhs)
            else:
                return node

    def parse_unary():
        kind, text, _ = ts.peek()
        if kind == "sym" and text == "-":
            ts.next()
            return neg(parse_unary())
        return parse_power()

    def parse_power():
        base = parse_atom()
        kind, text, _ = ts.peek()
        if kind == "sym" and text == "^":
            ts.next()
            return powx(base, parse_unary())
        return base

    def parse_atom():
        kind, text, pos = ts.next()
        if kind == "number":
            return Const(float(text))
        if kind == "ident":
            if text in _FUNCTIONS:
                ts.expect_sym("(")
                inner = parse_sum()
                ts.expect_sym(")")
                return call(text, inner)
            if text == "theta":
                return _THETA
            m = _COORD_RE.match(text)
            if m:
                index = int(m.group(1))
                if max_coord_index is not None and index > max_coord_index:
                    raise UnknownIdentifier(text, pos)
                return Coord(index)
            raise UnknownIdentifier(text, pos)
        if kind == "sym" and text == "(":
            inner = parse_sum()
            ts.expect_sym(")")
            return inner
        what = f"unexpected {text!r}" if kind != "end" else "unexpected end of input"
        raise ExprSyntaxError(what, pos, _ATOM_EXPECTED)

    try:
        node = parse_sum()
    finally:
        # break the parsers' references to each other, so nothing is
        # left for the cyclic collector, on success or on a syntax error
        del parse_sum, parse_term, parse_unary, parse_power, parse_atom
    kind, text, pos = ts.peek()
    if kind != "end":
        raise ExprSyntaxError(
            f"unexpected trailing {text!r}", pos, ("operator", "end of input")
        )
    return node


# ---------------------------------------------------------------------------
# Differentiation


def diff_expr(ast, k):
    """Return the AST of the partial derivative with respect to p{k}.

    k is the 1-based coordinate label, matching the variable name.
    theta differentiates to zero.  Node identity is memoized so shared
    subterms stay shared in the derivative, and the derivatives of exp
    and sqrt reuse the original node (a tape holding both f and df then
    computes the transcendental once).
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"coordinate label must be a positive integer, got {k!r}")
    memo = {}

    def d(node):
        key = id(node)
        out = memo.get(key)
        if out is not None:
            return out
        if isinstance(node, (Const, Theta)):
            out = _ZERO
        elif isinstance(node, Coord):
            out = _ONE if node.index == k else _ZERO
        elif isinstance(node, Neg):
            out = neg(d(node.arg))
        elif isinstance(node, BinOp):
            a, b = node.left, node.right
            da, db = d(a), d(b)
            if node.op == "+":
                out = add(da, db)
            elif node.op == "-":
                out = sub(da, db)
            elif node.op == "*":
                out = add(mul(da, b), mul(a, db))
            elif node.op == "/":
                out = div(sub(mul(da, b), mul(a, db)), mul(b, b))
            elif node.op == "^":
                if isinstance(b, Const):
                    out = mul(mul(b, powx(a, Const(b.value - 1.0))), da)
                elif _is_const(da, 0.0):
                    out = mul(node, mul(call("log", a), db))
                else:
                    out = mul(
                        node,
                        add(mul(db, call("log", a)), div(mul(b, da), a)),
                    )
            else:  # pragma: no cover - constructors only emit the five ops
                raise AssertionError(node.op)
        elif isinstance(node, Call):
            da = d(node.arg)
            if node.fn == "sqrt":
                out = div(da, mul(Const(2.0), node))
            elif node.fn == "exp":
                out = mul(node, da)
            else:  # log
                out = div(da, node.arg)
        else:  # pragma: no cover
            raise AssertionError(type(node))
        memo[key] = out
        return out

    try:
        return d(ast)
    finally:
        del d  # break the closure's self-reference so the memo frees now


# ---------------------------------------------------------------------------
# Evaluation


_LEAVES = ("const", "coord", "theta")
_UFUNCS = {
    "neg": np.negative, "+": np.add, "-": np.subtract, "*": np.multiply,
    "/": np.divide, "^": np.power, "sqrt": np.sqrt, "exp": np.exp, "log": np.log,
}
# Ops whose outputs must stay finite, and the name a domain error gives.
_CHECKED = {"/": "division", "^": "power", "sqrt": "sqrt", "exp": "exp", "log": "log"}


class Tape:
    """Straight-line program that evaluates a list of ASTs together.

    Nodes are hash-consed bottom-up: the key of a node is its op plus
    the slots of its children (a constant's key is its bit pattern), so
    a subterm shared by structure anywhere among the roots is computed
    once.  Leaves take the first slots; each op then fills the next
    slot, in DFS post-order over the roots in order.
    """

    def __init__(self, roots):
        keys, slot_of_key, slot_of_id = [], {}, {}

        def visit(node):
            slot = slot_of_id.get(id(node))
            if slot is not None:
                return slot
            if isinstance(node, Const):
                key = ("const", float(node.value).hex())
            elif isinstance(node, Coord):
                key = ("coord", node.index)
            elif isinstance(node, Theta):
                key = ("theta",)
            elif isinstance(node, Neg):
                key = ("neg", visit(node.arg))
            elif isinstance(node, BinOp):
                key = (node.op, visit(node.left), visit(node.right))
            else:  # Call
                key = (node.fn, visit(node.arg))
            slot = slot_of_key.get(key)
            if slot is None:
                slot = slot_of_key[key] = len(keys)
                keys.append(key)
            slot_of_id[id(node)] = slot
            return slot

        top = [visit(root) for root in roots]
        del visit  # break the closure's self-reference so the memos free now
        # Renumber: the leaves first, then the ops in post-order.
        order = sorted(range(len(keys)), key=lambda i: keys[i][0] not in _LEAVES)
        slot = {old: new for new, old in enumerate(order)}
        keys = [keys[i] for i in order]
        nleaves = sum(key[0] in _LEAVES for key in keys)
        leaves = list(enumerate(keys[:nleaves]))
        ops = [[slot[c] for c in key[1:]] for key in keys[nleaves:]]
        self.roots = [slot[i] for i in top]
        self._leaves = [
            np.full(1, float.fromhex(key[1])) if key[0] == "const" else None
            for _, key in leaves
        ]
        self._coords = [(s, key[1]) for s, key in leaves if key[0] == "coord"]
        self._theta = next((s for s, key in leaves if key[0] == "theta"), None)
        self._checked = [
            (s, _CHECKED[key[0]]) for s, key in enumerate(keys) if key[0] in _CHECKED
        ]
        # Roots and checked outputs live to the end, where the one
        # finiteness check reads them; every other slot is freed after
        # the op that reads it last.
        keep = set(self.roots) | {s for s, _ in self._checked}
        last = {s: pos for pos, args in enumerate(ops) for s in args}
        dead = [() for _ in ops]
        for s, pos in last.items():
            if s not in keep:
                dead[pos] += (s,)
        self.code = [
            (_UFUNCS[key[0]], args[0], args[1] if len(args) > 1 else None, dead[pos])
            for pos, (key, args) in enumerate(zip(keys[nleaves:], ops))
        ]

    def run(self, P, theta):
        """Values of the roots at the rows of P (n, M), as a (k, n) array."""
        n, m = P.shape
        vals = list(self._leaves)
        for s, index in self._coords:
            if index > m:
                raise UnknownIdentifier(f"p{index}")
            vals[s] = P[:, index - 1]
        if self._theta is not None:
            if theta is None:
                raise ExprDomainError("expression uses theta but no value was bound")
            vals[self._theta] = np.full(1, float(theta))
        with np.errstate(all="ignore"):
            for fn, a, b, dead in self.code:
                vals.append(fn(vals[a]) if b is None else fn(vals[a], vals[b]))
                for s in dead:
                    vals[s] = None
        if self._checked:
            parts = [vals[s] for s, _ in self._checked]
            if not np.isfinite(np.concatenate(parts)).all():
                for (_, what), part in zip(self._checked, parts):
                    if not np.isfinite(part).all():
                        raise ExprDomainError(
                            f"{what} left the real domain during evaluation"
                        )
        out = np.empty((len(self.roots), n))
        for row, s in enumerate(self.roots):
            out[row] = vals[s]
        return out


def evaluate(expr, points, theta=None):
    """Evaluate an AST or a Tape at one point (shape (M,)) or a batch (n, M).

    An AST gives a float for a single point and an (n,) array for a
    batch; a Tape gives one row per root, shape (k,) or (k, n).
    Out-of-domain operations raise ExprDomainError rather than
    returning NaN or infinity.
    """
    P = np.asarray(points, dtype=float)
    single = P.ndim == 1
    if single:
        P = P[None, :]
    if P.ndim != 2:
        raise ValueError(f"points must have shape (M,) or (n, M), got {P.shape}")
    tape = expr if isinstance(expr, Tape) else Tape([expr])
    out = tape.run(P, theta)
    if single:
        out = out[:, 0]
    if tape is expr:
        return out
    return float(out[0]) if single else out[0]


# ---------------------------------------------------------------------------
# Printing


def _precedence(node):
    if isinstance(node, BinOp):
        return {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}[node.op]
    if isinstance(node, Neg):
        return 15
    if isinstance(node, Const) and node.value < 0:
        return 15
    return 100


def _fmt_number(x):
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def to_string(ast):
    """Render an AST back to source text.

    parse_expr(to_string(parse_expr(s))) prints identically to
    to_string(parse_expr(s)): printing composed with parsing is a fixed
    point on strings.
    """

    def wrap(node, needs_parens):
        s = render(node)
        return f"({s})" if needs_parens else s

    def render(node):
        if isinstance(node, Const):
            return _fmt_number(node.value)
        if isinstance(node, Coord):
            return f"p{node.index}"
        if isinstance(node, Theta):
            return "theta"
        if isinstance(node, Call):
            return f"{node.fn}({render(node.arg)})"
        if isinstance(node, Neg):
            # Unary minus parses tighter than * and /, so -a*b would
            # reparse as (-a)*b.  Parenthesize everything below ^.
            return "-" + wrap(node.arg, _precedence(node.arg) <= 20)
        op, l, r = node.op, node.left, node.right
        pl, pr = _precedence(l), _precedence(r)
        if op in "+-":
            left = wrap(l, False)
            right = wrap(r, pr == 10)
        elif op in "*/":
            # A leading unary minus on the left would rebind: (-a)*b.
            left = wrap(l, pl < 20)
            right = wrap(r, isinstance(r, BinOp) and pr <= 20)
        else:  # '^' is right-associative and binds tighter than unary minus
            left = wrap(l, pl <= 30)
            right = wrap(r, isinstance(r, BinOp) and pr < 30)
        return f"{left}{op}{right}"

    try:
        return render(ast)
    finally:
        del wrap, render  # break their references to each other


# ---------------------------------------------------------------------------
# Introspection helpers


def uses_theta(ast):
    if isinstance(ast, Theta):
        return True
    if isinstance(ast, Neg):
        return uses_theta(ast.arg)
    if isinstance(ast, BinOp):
        return uses_theta(ast.left) or uses_theta(ast.right)
    if isinstance(ast, Call):
        return uses_theta(ast.arg)
    return False


def max_coord(ast):
    """Largest coordinate label appearing in the tree, 0 if none."""
    if isinstance(ast, Coord):
        return ast.index
    if isinstance(ast, Neg):
        return max_coord(ast.arg)
    if isinstance(ast, BinOp):
        return max(max_coord(ast.left), max_coord(ast.right))
    if isinstance(ast, Call):
        return max_coord(ast.arg)
    return 0
