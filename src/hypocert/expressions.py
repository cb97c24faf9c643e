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
constants and algebraic units so differentiation does not snowball; the
folding rules are written once (`_Algebra`) and serve both ASTs and the
DAG below.

Differentiation and evaluation share nodes by structure, not by
identity.  A private DAG (`_Dag`) hash-conses nodes into slots keyed on
(op, child slots), so a subterm that appears in several entries, or as
equal copies, is one slot.  The derivative rules run on slots, with one
memo keyed on (slot, coordinate) for the life of the DAG: a field that
differentiates its entries again and again (`fields._ExprJets`) builds
each derivative of each subterm once, and the derivative of exp(f)
reuses the slot of exp(f).  `diff_expr` is the round trip AST -> slots
-> derivative -> AST.

A `Tape` is the straight-line program of some slots of a DAG: exactly
the slots they reach, leaves first.  It runs vectorized over an (n, M)
array of points under one numpy error state and guards the real
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


_THETA = Theta()


def _fold(fn, *args):
    """Evaluate a folding candidate; None when it leaves finite reals."""
    try:
        out = fn(*args)
    except (OverflowError, ValueError, ZeroDivisionError):
        return None
    return out if math.isfinite(out) else None


class _Algebra:
    """The smart constructors' folding rules, written once for any nodes.

    They fold constants and algebraic units so differentiation does not
    snowball.  A subclass says how to read a node, `value` (a constant's
    value, else None) and `neg_arg` (the argument of a negation, else
    None), and how to make one, `const(value)` and `node(op, *args)`
    with op "neg", one of + - * / ^, or a function name.
    """

    def neg(self, a):
        va = self.value(a)
        if va is not None:
            return self.const(-va)
        inner = self.neg_arg(a)
        if inner is not None:
            return inner
        return self.node("neg", a)

    def add(self, a, b):
        va, vb = self.value(a), self.value(b)
        if va is not None and vb is not None:
            folded = _fold(lambda x, y: x + y, va, vb)
            if folded is not None:
                return self.const(folded)
        if va == 0.0:
            return b
        if vb == 0.0:
            return a
        return self.node("+", a, b)

    def sub(self, a, b):
        va, vb = self.value(a), self.value(b)
        if va is not None and vb is not None:
            folded = _fold(lambda x, y: x - y, va, vb)
            if folded is not None:
                return self.const(folded)
        if vb == 0.0:
            return a
        if va == 0.0:
            return self.neg(b)
        return self.node("-", a, b)

    def mul(self, a, b):
        va, vb = self.value(a), self.value(b)
        if va is not None and vb is not None:
            folded = _fold(lambda x, y: x * y, va, vb)
            if folded is not None:
                return self.const(folded)
        if va == 0.0 or vb == 0.0:
            return self.const(0.0)
        if va == 1.0:
            return b
        if vb == 1.0:
            return a
        if va == -1.0:
            return self.neg(b)
        if vb == -1.0:
            return self.neg(a)
        return self.node("*", a, b)

    def div(self, a, b):
        va, vb = self.value(a), self.value(b)
        if vb is not None and vb != 0.0 and va is not None:
            folded = _fold(lambda x, y: x / y, va, vb)
            if folded is not None:
                return self.const(folded)
        if vb == 1.0:
            return a
        if va == 0.0 and vb != 0.0:
            return self.const(0.0)
        return self.node("/", a, b)

    def powx(self, a, b):
        va, vb = self.value(a), self.value(b)
        if vb == 0.0:
            return self.const(1.0)
        if vb == 1.0:
            return a
        if va is not None and vb is not None:
            # Fold only inside the real domain; leave the rest to evaluation.
            if (va > 0.0) or (va == 0.0 and vb > 0.0) or (va < 0.0 and vb == int(vb)):
                folded = _fold(pow, va, vb)
                if folded is not None:
                    return self.const(folded)
        return self.node("^", a, b)

    def call(self, fn, a):
        va = self.value(a)
        if va is not None:
            folded = None
            if fn == "sqrt" and va >= 0.0:
                folded = _fold(math.sqrt, va)
            elif fn == "exp":
                folded = _fold(math.exp, va)
            elif fn == "log" and va > 0.0:
                folded = _fold(math.log, va)
            if folded is not None:
                return self.const(folded)
        return self.node(fn, a)


class _Trees(_Algebra):
    """The folding rules on AST nodes, behind the module's constructors."""

    def value(self, a):
        return a.value if isinstance(a, Const) else None

    def neg_arg(self, a):
        return a.arg if isinstance(a, Neg) else None

    def const(self, value):
        return Const(value)

    def node(self, op, a, b=None):
        if op == "neg":
            return Neg(a)
        return Call(op, a) if b is None else BinOp(op, a, b)


_TREES = _Trees()
neg, add, sub, mul = _TREES.neg, _TREES.add, _TREES.sub, _TREES.mul
div, powx, call = _TREES.div, _TREES.powx, _TREES.call


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


_LEAVES = ("const", "coord", "theta")


class _Dag(_Algebra):
    """A hash-consed expression DAG, differentiated on its slots.

    A slot is a distinct node, keyed on its op and the slots of its
    children: ("const", hex of the value), ("coord", index), ("theta",),
    ("neg", a), (op, a, b) for op in + - * / ^, or (fn, a).  Equal
    subterms therefore share one slot, wherever they come from.  The
    derivative of a slot along p{k} is built once per (slot, k) and
    reused by every later derivative that reaches it, and the
    derivatives of exp, sqrt and ^ reuse the slot they differentiate.
    """

    def __init__(self):
        self.keys = []
        self._leaf = []
        self._slot_of = {}
        self._values = {}
        self.value = self._values.get  # a constant slot's value, else None
        self._derivs = {}

    def neg_arg(self, a):
        key = self.keys[a]
        return key[1] if key[0] == "neg" else None

    def node(self, *key):
        slot = self._slot_of.get(key)
        if slot is None:
            slot = self._slot_of[key] = len(self.keys)
            self.keys.append(key)
            self._leaf.append(key[0] in _LEAVES)
        return slot

    def const(self, value):
        value = float(value)
        slot = self.node("const", value.hex())
        self._values[slot] = value
        return slot

    def intern(self, roots):
        """The slots of a list of ASTs, each taken as it is, unfolded."""
        # keyed on id() for the length of this call only: the roots keep
        # every node alive until it returns
        seen = {}
        return [self._intern(root, seen) for root in roots]

    def _intern(self, node, seen):
        slot = seen.get(id(node))
        if slot is None:
            if isinstance(node, Const):
                slot = self.const(node.value)
            elif isinstance(node, Coord):
                slot = self.node("coord", node.index)
            elif isinstance(node, Theta):
                slot = self.node("theta")
            elif isinstance(node, Neg):
                slot = self.node("neg", self._intern(node.arg, seen))
            elif isinstance(node, BinOp):
                slot = self.node(node.op, self._intern(node.left, seen),
                                 self._intern(node.right, seen))
            else:  # Call
                slot = self.node(node.fn, self._intern(node.arg, seen))
            seen[id(node)] = slot
        return slot

    def tree(self, slot):
        """The AST of a slot; a slot reached twice gives one shared node."""
        return self._tree(slot, {})

    def _tree(self, slot, built):
        node = built.get(slot)
        if node is None:
            key = self.keys[slot]
            op = key[0]
            if op == "const":
                node = Const(self._values[slot])
            elif op == "coord":
                node = Coord(key[1])
            elif op == "theta":
                node = _THETA
            elif len(key) == 2:
                node = _TREES.node(op, self._tree(key[1], built))
            else:
                node = _TREES.node(op, self._tree(key[1], built),
                                   self._tree(key[2], built))
            built[slot] = node
        return node

    def derivative(self, slot, k):
        """The slot of d/dp{k} of a slot; k is the 1-based coordinate label."""
        out = self._derivs.get((slot, k))
        if out is None:
            # the children first, so the recursion takes one frame a level
            d = []
            for kid in () if self._leaf[slot] else self.keys[slot][1:]:
                d.append(self.derivative(kid, k))
            out = self._derivs[slot, k] = self._rule(slot, k, *d)
        return out

    def _rule(self, slot, k, da=None, db=None):
        """The derivative rule of the slot's op, given its children's
        derivatives da (and db)."""
        key = self.keys[slot]
        op = key[0]
        if op in ("const", "theta"):
            return self.const(0.0)
        if op == "coord":
            return self.const(1.0 if key[1] == k else 0.0)
        a = key[1]
        if op == "neg":
            return self.neg(da)
        if op == "sqrt":
            return self.div(da, self.mul(self.const(2.0), slot))
        if op == "exp":
            return self.mul(slot, da)
        if op == "log":
            return self.div(da, a)
        b = key[2]
        if op == "+":
            return self.add(da, db)
        if op == "-":
            return self.sub(da, db)
        if op == "*":
            return self.add(self.mul(da, b), self.mul(a, db))
        if op == "/":
            return self.div(self.sub(self.mul(da, b), self.mul(a, db)),
                            self.mul(b, b))
        # op == "^"
        vb = self.value(b)
        if vb is not None:
            return self.mul(self.mul(b, self.powx(a, self.const(vb - 1.0))), da)
        if self.value(da) == 0.0:
            return self.mul(slot, self.mul(self.call("log", a), db))
        return self.mul(slot, self.add(self.mul(db, self.call("log", a)),
                                       self.div(self.mul(b, da), a)))

    def reach(self, roots):
        """The leaves and the ops the roots reach, each in DFS post-order."""
        keys, leaf, seen, leaves, ops = self.keys, self._leaf, set(), [], []
        for root in roots:
            if root in seen:
                continue
            seen.add(root)
            stack = [(root, iter(() if leaf[root] else keys[root][1:]))]
            while stack:
                slot, kids = stack[-1]
                for c in kids:
                    if c not in seen:
                        seen.add(c)
                        stack.append((c, iter(() if leaf[c] else keys[c][1:])))
                        break
                else:
                    stack.pop()
                    (leaves if leaf[slot] else ops).append(slot)
        return leaves, ops

    def tape(self, roots):
        """A Tape that evaluates the slots roots together."""
        tape = Tape.__new__(Tape)
        tape._load(self, roots)
        return tape


def diff_expr(ast, k):
    """Return the AST of the partial derivative with respect to p{k}.

    k is the 1-based coordinate label, matching the variable name.
    theta differentiates to zero.  The AST is differentiated on a
    hash-consed DAG, so shared and equal subterms stay shared in the
    derivative, and the derivatives of exp and sqrt reuse the original
    subterm (a tape holding both f and df then computes the
    transcendental once).
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"coordinate label must be a positive integer, got {k!r}")
    dag = _Dag()
    (slot,) = dag.intern([ast])
    return dag.tree(dag.derivative(slot, k))


# ---------------------------------------------------------------------------
# Evaluation


_UFUNCS = {
    "neg": np.negative, "+": np.add, "-": np.subtract, "*": np.multiply,
    "/": np.divide, "^": np.power, "sqrt": np.sqrt, "exp": np.exp, "log": np.log,
}
# Ops whose outputs must stay finite, and the name a domain error gives.
_CHECKED = {"/": "division", "^": "power", "sqrt": "sqrt", "exp": "exp", "log": "log"}


class Tape:
    """Straight-line program that evaluates a list of ASTs together.

    The roots are hash-consed into a DAG (`_Dag`), so a subterm shared
    by structure anywhere among them is computed once.  The program
    holds exactly the slots the roots reach: leaves take the first
    slots, then each op fills the next slot, in DFS post-order over the
    roots in order.
    """

    def __init__(self, roots):
        dag = _Dag()
        self._load(dag, dag.intern(roots))

    def _load(self, dag, roots):
        """Compile the program of the slots roots of dag."""
        leaves, ops = dag.reach(roots)
        # Renumber: the leaves first, then the ops in post-order.
        order = leaves + ops
        slot = {s: new for new, s in enumerate(order)}
        keys = [dag.keys[s] for s in order]
        nleaves = len(leaves)
        leaves = list(enumerate(keys[:nleaves]))
        ops = [[slot[c] for c in key[1:]] for key in keys[nleaves:]]
        self.roots = [slot[s] for s in roots]
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
