"""Field handles over momentum space.

A field handle evaluates a scalar, vector, metric, or 2-tensor quantity
and its derivatives on a batch of points P with shape (n, M).  Two
families exist:

* expression-backed fields (scalar, metric, vector) differentiate
  symbolically (exact to round off).  All three share one jet builder:
  the field's entries go once into a hash-consed expression DAG that
  the field keeps, each derivative order is built lazily on it, one
  partial per nondecreasing axes tuple and value entry, from the
  partials of the order below, and compiled into one cached `Tape`
  that evaluates all of them together.  Every slot that is a
  permutation of a partial's axes, or the mirror of a metric entry, is
  filled from that one partial, so the returned arrays are symmetric
  exactly;
* `FDField` wraps a plain evaluation callable of any value shape and
  uses central differences with a per-point step
  h = h_scale * max(1, |p|).

The derivative scheme is a property of the field: a model whose
fields are `FDField`s is differenced, one with expression fields is
differentiated exactly.  `as_field` is the one rule that turns a field,
callable, or expression string into a handle.
"""

from __future__ import annotations

import itertools
import math

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
    """The derivative jets of one expression field, built lazily by order.

    entries maps a value index to its AST: () for a scalar, (i,) for a
    vector component, (i, j) with i <= j for a metric.  The entries go
    into one hash-consed DAG (`expressions._Dag`) that the field keeps
    for its life.  The order-k partials are kept once per nondecreasing
    axes tuple, each taken in increasing axis order from an order-(k-1)
    partial, and the DAG builds each (slot, axis) derivative once.  The
    program of order k holds exactly the slots its partials reach.  The
    order-k jet has shape (n,) + (dim,) * k + shape.  A partial fills
    every slot that permutes its axes, followed by its index or by its
    reversed index: the same slot for a scalar or vector, the mirrored
    entry for a metric.  The program's last root is 0, read by the
    slots of entries the field leaves out (a metric's zero
    off-diagonals).
    """

    def __init__(self, entries, shape, dim):
        self.shape = shape
        self.dim = dim
        self._dag = _Dag()
        slots = self._dag.intern(list(entries.values()))
        self._partials = [{((), idx): s for idx, s in zip(entries, slots)}]
        self._compiled = {}

    def _compile(self, order):
        dag = self._dag
        while len(self._partials) <= order:
            self._partials.append({
                (axes + (k,), idx): dag.derivative(s, k + 1)
                for (axes, idx), s in self._partials[-1].items()
                for k in range(axes[-1] if axes else 0, self.dim)
            })
        partials = self._partials[order]
        shape = (self.dim,) * order + self.shape
        flat = np.arange(math.prod(shape)).reshape(shape)
        # source[s] is the tape row that flat slot s reads
        source = np.full(flat.size, len(partials))
        for row, (axes, idx) in enumerate(partials):
            for perm in itertools.permutations(axes):
                source[flat[perm + idx]] = source[flat[perm + idx[::-1]]] = row
        tape = dag.tape(list(partials.values()) + [dag.const(0.0)])
        return tape, source, shape

    def __call__(self, order, P, theta):
        """[n, l, ..., k, *index] = d_l ... d_k of the entry at index."""
        if order not in self._compiled:
            self._compiled[order] = self._compile(order)
        tape, source, shape = self._compiled[order]
        vals = evaluate(tape, P, theta)
        return vals.T.take(source, axis=1).reshape((P.shape[0],) + shape)


class ExprScalarField:
    """Scalar field defined by an expression AST."""

    def __init__(self, ast, dim, theta=None):
        self.ast = ast
        self.dim = dim
        self.theta = theta
        self._jets = _ExprJets({(): ast}, (), dim)

    def value(self, P):
        return self._jets(0, P, self.theta)

    def grad(self, P):
        return self._jets(1, P, self.theta)

    def hess(self, P):
        return self._jets(2, P, self.theta)

    def third(self, P):
        return self._jets(3, P, self.theta)

    def derivative(self, P, axes):
        """Evaluate an arbitrary mixed partial; axes are 0-based."""
        return self._jets(len(axes), P, self.theta)[(slice(None),) + tuple(axes)]


class ExprMetricField:
    """Symmetric metric field g_ij from expression ASTs.

    entries maps 0-based (i, j) to an AST; each entry is stored under
    i <= j and the lower triangle mirrors the same values.
    """

    def __init__(self, entries, dim, theta=None):
        self.dim = dim
        self.theta = theta
        self.entries = {tuple(sorted(ij)): ast for ij, ast in entries.items()}
        self._jets = _ExprJets(self.entries, (dim, dim), dim)

    def value(self, P):
        return self._jets(0, P, self.theta)

    def grad(self, P):
        """[n, k, i, j] = d_k g_ij."""
        return self._jets(1, P, self.theta)

    def hess(self, P):
        """[n, l, k, i, j] = d_l d_k g_ij."""
        return self._jets(2, P, self.theta)


class ExprVectorField:
    """Vector field Z^i from one AST per component."""

    def __init__(self, components, dim, theta=None):
        self.components = list(components)
        self.dim = dim
        self.theta = theta
        self._jets = _ExprJets(
            {(i,): ast for i, ast in enumerate(self.components)},
            (len(self.components),), dim,
        )

    def value(self, P):
        return self._jets(0, P, self.theta)

    def jacobian(self, P):
        """[n, k, i] = d_k Z^i."""
        return self._jets(1, P, self.theta)
