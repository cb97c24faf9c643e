"""Field handles over momentum space.

A field handle evaluates a scalar, vector, metric, or 2-tensor quantity
and its derivatives on a batch of points P with shape (n, M).  Two
families exist:

* expression-backed fields (scalar, metric, vector) differentiate
  symbolically (exact to round off).  Their jets come from one
  builder, `_ExprJets`, over a list of field handles: the expression
  handles that share the first one's theta go once into a hash-consed
  expression DAG that the builder keeps, and each derivative order is
  built lazily on it, one partial per nondecreasing axes tuple and
  value entry, from the partials of the order below; any other handle
  answers through its own methods.  A request lists (field, order)
  pairs and compiles into one `Tape` that evaluates all of its
  partials together.  Compiled programs live in one table per process,
  keyed on what the request's fields compute, not on the fields or the
  model, so a model rebuilt from the same expressions, at any theta,
  reuses them.  A model keeps one builder over its (g, v, E),
  which log u joins once `models.log_weight_field` makes it
  (`models.ModelSpec._jets`), so every jet of those fields is one
  request to it; any other field is read through a builder of its
  own, made on first use, and its methods are requests of one pair to
  that builder.  Every slot that is a permutation of
  a partial's axes, or the mirror of a metric entry, is filled from
  that one partial, so the returned arrays are symmetric exactly;
* `FDField` wraps a plain evaluation callable of any value shape and
  uses central differences with a per-point step
  h = h_scale * max(1, |p|).

The derivative scheme is a property of the field: a model whose
fields are `FDField`s is differenced, one with expression fields is
differentiated exactly.  `as_field` is the one rule that turns a field,
callable, or expression string into a handle.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from collections import OrderedDict

import numpy as np

from .errors import FDOrderError
# diff_expr is not called here; the name stays so that tools which wrap
# `fields.diff_expr` by name (the benchmark's tracer) still find it
from .expressions import _Dag, diff_expr, evaluate, parse_expr  # noqa: F401

__all__ = [
    "ExprScalarField",
    "ExprMetricField",
    "ExprVectorField",
    "FDField",
    "as_field",
    "DEFAULT_FD_SCALE",
]

DEFAULT_FD_SCALE = 1e-4


def _steps(P, h_scale):
    """Per-point FD step, relative to the point's Euclidean norm."""
    return h_scale * np.maximum(1.0, np.linalg.norm(P, axis=1))


def _shift(P, k, delta):
    Q = P.copy()
    Q[:, k] += delta
    return Q


def _per_point(x, like):
    """Reshape a per-point array (n,) to broadcast against like (n, ...)."""
    return x.reshape(x.shape + (1,) * (like.ndim - 1))


def _own_jets(field):
    """A field's own jet builder, made on first use; a model reads the
    jets of its builder's fields through that builder instead."""
    return _ExprJets([field], field.dim)


class FDField:
    """Field given only by an evaluation callable fn(P) -> (n, ...).

    Each derivative puts its axes right after the batch axis, whatever
    the value's trailing shape: grad[n, k, ...] = d_k f,
    hess[n, l, k, ...] = d_l d_k f and third[n, m, l, k, ...].  For a
    vector value, jacobian[n, k, i] = d_k Z^i is the same array as grad.
    """

    def __init__(self, fn, dim, h_scale=DEFAULT_FD_SCALE):
        self.fn = fn
        self.dim = dim
        self.h_scale = h_scale

    _jets = functools.cached_property(_own_jets)

    def value(self, P):
        return np.asarray(self.fn(P), dtype=float)

    def _central(self, f, P):
        """Central first difference of f(P) along every coordinate."""
        h = _steps(P, self.h_scale)
        parts = []
        for k in range(self.dim):
            diff = f(_shift(P, k, h)) - f(_shift(P, k, -h))
            parts.append(diff / _per_point(2.0 * h, diff))
        return np.stack(parts, axis=1)

    def grad(self, P):
        return self._central(self.value, P)

    jacobian = grad

    def hess(self, P):
        h = _steps(P, self.h_scale)
        f0 = self.value(P)
        out = np.empty((P.shape[0], self.dim, self.dim) + f0.shape[1:])
        hh = _per_point(h * h, f0)
        hh4 = _per_point(4.0 * h * h, f0)
        for i in range(self.dim):
            up, dn = _shift(P, i, h), _shift(P, i, -h)
            out[:, i, i] = (self.value(up) - 2.0 * f0 + self.value(dn)) / hh
            for j in range(i + 1, self.dim):
                out[:, i, j] = out[:, j, i] = (
                    self.value(_shift(up, j, h))
                    - self.value(_shift(up, j, -h))
                    - self.value(_shift(dn, j, h))
                    + self.value(_shift(dn, j, -h))
                ) / hh4
        return out

    def third(self, P):
        # Central difference of the Hessian; noisier than the lower
        # orders, and read only for a model given by FD fields.
        return self._central(self.hess, P)

    def derivative(self, P, axes):
        order = len(axes)
        if order > 3:
            raise FDOrderError(
                f"finite-difference stencils support derivative order <= 3, got {order}"
            )
        out = (self.value, self.grad, self.hess, self.third)[order](P)
        return out[(slice(None),) + tuple(axes)]


def as_field(field, dim, theta=None):
    """The field handle for a field, callable, or expression string.

    A string is parsed into an expression field, a bare callable
    becomes an FDField, and a handle is returned unchanged.
    """
    if isinstance(field, str):
        return ExprScalarField(parse_expr(field, max_coord_index=dim), dim, theta=theta)
    if not hasattr(field, "value"):
        return FDField(field, dim)
    return field


class _ExprJets:
    """The derivative jets of one or more field handles: one builder.

    The members are the expression handles among fields that share the
    first one's theta.  Their entries go once into one hash-consed DAG
    (`expressions._Dag`) that the builder keeps for its life, so they
    share the subterms they have in common.  A member's
    entries map a value index to an AST: () for a scalar, (i,) for a
    vector component, (i, j) with i <= j for a metric.  Its order-k
    partials are kept once per nondecreasing axes tuple, each taken in
    increasing axis order from an order-(k-1) partial, and the DAG
    builds each (slot, axis) derivative once.  Every other handle (an
    `FDField`, or a field bound to another theta) answers through its
    own value, grad, hess or third.  A field added later (`add`), such
    as a model's log u, takes the next index.

    A request is a tuple of (field, order) pairs, field an index into
    the fields.  Each request compiles at most once, into one program
    that holds exactly the slots its members' partials reach, so a
    partial or subterm that several of its jets read is computed once.
    The jet of (field, k) has shape (n,) + (dim,) * k + shape.  A
    partial fills every slot that permutes its axes, followed by its
    index or by its reversed index: the same slot for a scalar or
    vector, the mirrored entry for a metric.  The program's last root
    is 0, read by the slots of entries a field leaves out (a metric's
    zero off-diagonals).

    The builder keeps its programs by request (`_compiled`), and takes a
    request it has not met from the process's table (`_programs`)
    before it compiles one.  The table's key is dim and, per pair,
    None for a field that is not a member, else the order and the
    member's content: what its entries compute (`_Dag.content`, which
    tells constants by their bits), their indices and the value shape.
    theta is not in it, as a program reads theta at run time.  The key
    holds no field, model or `id()`, and the table keeps the
    `_PROGRAMS_MAX` most recently used programs, whose sources and
    column templates are read-only (see `Tape`).  Two threads that miss
    on one key together may each compile the program, and store equal
    ones.
    """

    def __init__(self, fields, dim):
        self.dim = dim
        expr = [f for f in fields if isinstance(f, _EXPR_FIELDS)]
        self.theta = expr[0].theta if expr else None
        self._fields, self._others, self._shapes, self._partials = [], {}, [], []
        self._dag = _Dag()
        self._compiled, self._contents = {}, {}
        for f in fields:
            self.add(f)

    def add(self, field):
        """Give a field handle the next index.  A member's entries go
        into the DAG at once, in one pass, and its content is taken then:
        what they compute (`_Dag.content`), their indices and its value
        shape."""
        k = len(self._fields)
        self._fields.append(field)
        if isinstance(field, _EXPR_FIELDS) and field.theta == self.theta:
            entries, shape = field._spec
            slots = self._dag.intern(list(entries.values()))
            self._partials.append([{((), idx): s for idx, s in zip(entries, slots)}])
            self._contents[k] = (self._dag.content(slots), tuple(entries), shape)
        else:
            self._others[k], shape = field, ()
            self._partials.append(None)
        self._shapes.append(shape)

    def index(self, field):
        """The index of a field handle in this builder, or None."""
        return next((k for k, f in enumerate(self._fields) if f is field), None)

    def members(self):
        """The indices of the members, in order."""
        return tuple(k for k in range(len(self._fields)) if k not in self._others)

    def _order(self, field, order):
        """{(axes, index): slot} of the order-k partials of a member."""
        dag, partials = self._dag, self._partials[field]
        while len(partials) <= order:
            partials.append({
                (axes + (k,), idx): dag.derivative(s, k + 1)
                for (axes, idx), s in partials[-1].items()
                for k in range(axes[-1] if axes else 0, self.dim)
            })
        return partials[order]

    def _key(self, request):
        """The request's key in the program table: dim, and per pair None
        for a field that is not a member, else the order and the
        member's content."""
        return (self.dim, *(None if f in self._others else (self._contents[f], order)
                            for f, order in request))

    def _compile(self, request):
        """(tape, blocks): one (source, shape) block per pair of the
        request, None for a field that is not a member."""
        roots, blocks = [], []
        for field, order in request:
            if field in self._others:
                blocks.append(None)
                continue
            partials = self._order(field, order)
            shape = (self.dim,) * order + self._shapes[field]
            flat = np.arange(math.prod(shape)).reshape(shape)
            # source[s] is the tape row that flat slot s reads, -1 the 0 row
            source = np.full(flat.size, -1)
            for row, (axes, idx) in enumerate(partials, start=len(roots)):
                for perm in itertools.permutations(axes):
                    source[flat[perm + idx]] = source[flat[perm + idx[::-1]]] = row
            roots += partials.values()
            blocks.append((source, shape))
        for source, _ in filter(None, blocks):
            source[source < 0] = len(roots)
            source.flags.writeable = False  # shared through the table
        roots.append(self._dag.const(0.0))
        return (self._dag.tape(roots) if len(roots) > 1 else None), blocks

    def __call__(self, request, P):
        """The jet of each (field, order) of the request, in order:
        [n, l, ..., k, *index] = d_l ... d_k of the entry at index.  The
        members' jets come from one run of the request's program."""
        compiled = self._compiled.get(request)
        if compiled is None:
            compiled = self._compiled[request] = _program(
                self._key(request), self._compile, request)
        tape, blocks = compiled
        if tape is not None:
            vals = evaluate(tape, P, self.theta)
        out = []
        for (field, order), block in zip(request, blocks):
            if block is None:
                out.append(getattr(self._others[field], _METHODS[order])(P))
            else:
                # the jet's rows gathered row-major, then transposed once
                source, shape = block
                out.append(np.ascontiguousarray(vals.take(source, axis=0).T)
                           .reshape((P.shape[0],) + shape))
        return out


# Compiled programs (tape, blocks), shared by every builder in the
# process and keyed on what they compute (see _ExprJets), the least
# recently used first.  One relativistic point-jet program holds about
# 130 KB.
_PROGRAMS_MAX = 32
_programs = OrderedDict()
_programs_lock = threading.Lock()


def _program(key, compile, request):
    """The program of key from the table, else compile(request), stored."""
    with _programs_lock:
        program = _programs.get(key)
        if program is not None:
            _programs.move_to_end(key)
            return program
    program = compile(request)
    with _programs_lock:
        _programs[key] = program
        if len(_programs) > _PROGRAMS_MAX:
            _programs.popitem(last=False)
    return program


def _jet(field, order, P):
    """One order of an expression field's jet: a request of one pair."""
    return field._jets(((0, order),), P)[0]


class ExprScalarField:
    """Scalar field defined by an expression AST."""

    def __init__(self, ast, dim, theta=None):
        self.ast = ast
        self.dim = dim
        self.theta = theta
        self._spec = ({(): ast}, ())

    _jets = functools.cached_property(_own_jets)

    def value(self, P):
        return _jet(self, 0, P)

    def grad(self, P):
        return _jet(self, 1, P)

    def hess(self, P):
        return _jet(self, 2, P)

    def third(self, P):
        return _jet(self, 3, P)

    def derivative(self, P, axes):
        """Evaluate an arbitrary mixed partial; axes are 0-based."""
        return _jet(self, len(axes), P)[(slice(None),) + tuple(axes)]


class ExprMetricField:
    """Symmetric metric field g_ij from expression ASTs.

    entries maps 0-based (i, j) to an AST; each entry is stored under
    i <= j and the lower triangle mirrors the same values.
    """

    def __init__(self, entries, dim, theta=None):
        self.dim = dim
        self.theta = theta
        self.entries = {tuple(sorted(ij)): ast for ij, ast in entries.items()}
        self._spec = (self.entries, (dim, dim))

    _jets = functools.cached_property(_own_jets)

    def value(self, P):
        return _jet(self, 0, P)

    def grad(self, P):
        """[n, k, i, j] = d_k g_ij."""
        return _jet(self, 1, P)

    def hess(self, P):
        """[n, l, k, i, j] = d_l d_k g_ij."""
        return _jet(self, 2, P)


class ExprVectorField:
    """Vector field Z^i from one AST per component."""

    def __init__(self, components, dim, theta=None):
        self.components = list(components)
        self.dim = dim
        self.theta = theta
        self._spec = ({(i,): ast for i, ast in enumerate(self.components)},
                      (len(self.components),))

    _jets = functools.cached_property(_own_jets)

    def value(self, P):
        return _jet(self, 0, P)

    def jacobian(self, P):
        """[n, k, i] = d_k Z^i."""
        return _jet(self, 1, P)


_EXPR_FIELDS = (ExprScalarField, ExprMetricField, ExprVectorField)
_METHODS = ("value", "grad", "hess", "third")
