"""Field handles over momentum space.

A field handle evaluates a scalar, vector, metric, or 2-tensor quantity
and its derivatives on a batch of points P with shape (n, M).  Two
families exist:

* expression-backed fields differentiate symbolically (exact to round
  off); each derivative order is built lazily and compiled into one
  cached `Tape` that evaluates all of its entries together, and
  symmetric derivative slots (Hessians, metric jets) are filled from a
  single representative AST so the returned arrays are symmetric
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

import numpy as np

from .errors import FDOrderError
from .expressions import Tape, diff_expr, evaluate, parse_expr

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


class _Jet:
    """One derivative order of an expression field: a tape over its
    distinct entries and the output slots each entry's value fills."""

    def __init__(self, shape, entries):
        """entries: (AST, set of index tuples into shape) in tape order."""
        self.shape = shape
        self.tape = Tape([ast for ast, _ in entries])
        targets = [
            (row, idx) for row, (_, idxs) in enumerate(entries) for idx in sorted(idxs)
        ]
        self.rows = np.array([row for row, _ in targets], dtype=int)
        self.index = (slice(None),) + tuple(
            np.array(axis, dtype=int) for axis in zip(*(idx for _, idx in targets))
        )

    def values(self, P, theta):
        vals = evaluate(self.tape, P, theta)
        out = np.zeros((P.shape[0],) + self.shape)
        out[self.index] = vals[self.rows].T
        return out


class ExprScalarField:
    """Scalar field defined by an expression AST."""

    def __init__(self, ast, dim, theta=None):
        self.ast = ast
        self.dim = dim
        self.theta = theta
        self._asts = [{(): ast}]
        self._jets = {}
        self._tapes = {}

    def _jet(self, order):
        """Order-`order` partials, one AST per nondecreasing axes tuple."""
        while len(self._asts) <= order:
            self._asts.append({
                axes + (k,): diff_expr(ast, k + 1)
                for axes, ast in self._asts[-1].items()
                for k in range(axes[-1] if axes else 0, self.dim)
            })
        if order not in self._jets:
            self._jets[order] = _Jet((self.dim,) * order, [
                (ast, set(itertools.permutations(axes)))
                for axes, ast in self._asts[order].items()
            ])
        return self._jets[order]

    def _tape(self, axes):
        """One-root tape of the partial along `axes`, taken in that order."""
        if axes not in self._tapes:
            ast = self.ast
            for ax in axes:
                ast = diff_expr(ast, ax + 1)
            self._tapes[axes] = Tape([ast])
        return self._tapes[axes]

    def value(self, P):
        return np.asarray(evaluate(self._tape(()), P, self.theta)[0])

    def grad(self, P):
        return self._jet(1).values(P, self.theta)

    def hess(self, P):
        return self._jet(2).values(P, self.theta)

    def third(self, P):
        return self._jet(3).values(P, self.theta)

    def derivative(self, P, axes):
        """Evaluate an arbitrary mixed partial; axes are 0-based."""
        return np.asarray(evaluate(self._tape(tuple(axes)), P, self.theta)[0])


class ExprMetricField:
    """Symmetric metric field g_ij from expression ASTs.

    entries maps 0-based (i, j) with i <= j to an AST; the lower
    triangle mirrors the same values.
    """

    def __init__(self, entries, dim, theta=None):
        self.dim = dim
        self.theta = theta
        self.entries = {}
        for (i, j), ast in entries.items():
            if i > j:
                i, j = j, i
            self.entries[(i, j)] = ast
        self._asts = [self.entries]
        self._jets = {}

    def _jet(self, order):
        """d_l ... d_k g_ij keyed (l, ..., k, i, j) with l >= ... >= k."""
        while len(self._asts) <= order:
            first = len(self._asts) == 1
            self._asts.append({
                (l,) + key: diff_expr(ast, l + 1)
                for key, ast in self._asts[-1].items()
                for l in range(0 if first else key[0], self.dim)
            })
        if order not in self._jets:
            self._jets[order] = _Jet((self.dim,) * (order + 2), [
                (ast, {axes + ij
                       for axes in itertools.permutations(key[:order])
                       for ij in (key[order:], key[order:][::-1])})
                for key, ast in self._asts[order].items()
            ])
        return self._jets[order]

    def value(self, P):
        return self._jet(0).values(P, self.theta)

    def grad(self, P):
        """[n, k, i, j] = d_k g_ij."""
        return self._jet(1).values(P, self.theta)

    def hess(self, P):
        """[n, l, k, i, j] = d_l d_k g_ij."""
        return self._jet(2).values(P, self.theta)


class ExprVectorField:
    """Vector field Z^i from one AST per component."""

    def __init__(self, components, dim, theta=None):
        self.components = list(components)
        self.dim = dim
        self.theta = theta
        self._jets = {}

    def _jet(self, order):
        if order not in self._jets:
            ncomp = len(self.components)
            if order == 0:
                jet = _Jet((ncomp,), [
                    (ast, {(i,)}) for i, ast in enumerate(self.components)
                ])
            else:
                jet = _Jet((self.dim, ncomp), [
                    (diff_expr(ast, k + 1), {(k, i)})
                    for k in range(self.dim)
                    for i, ast in enumerate(self.components)
                ])
            self._jets[order] = jet
        return self._jets[order]

    def value(self, P):
        return self._jet(0).values(P, self.theta)

    def jacobian(self, P):
        """[n, k, i] = d_k Z^i."""
        return self._jet(1).values(P, self.theta)
