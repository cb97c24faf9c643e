"""Field handles over momentum space.

A field handle evaluates a scalar, vector, metric, or 2-tensor quantity
and its derivatives on a batch of points P with shape (n, M).  Two
families exist:

* expression-backed fields differentiate symbolically (exact to round
  off); derivative ASTs are built lazily and cached, and symmetric
  derivative slots (Hessians, metric jets) are filled from a single
  representative AST so the returned arrays are symmetric exactly;
* `FDField` wraps a plain evaluation callable of any value shape and
  uses central differences with a per-point step
  h = h_scale * max(1, |p|).

All handles expose an `analytic` flag, and `resolve_field` is the one
rule that turns a field, callable, or expression string plus a
derivative scheme ("auto", "analytic", "fd") into the handle to use.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import FDOrderError
from .expressions import diff_expr, evaluate, parse_expr

__all__ = [
    "ExprScalarField",
    "ExprMetricField",
    "ExprVectorField",
    "FDField",
    "resolve_field",
    "DEFAULT_FD_SCALE",
]

DEFAULT_FD_SCALE = 1e-4
SCHEMES = ("auto", "analytic", "fd")


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

    analytic = False

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
        # orders but only exercised when no analytic path exists.
        return self._central(self.hess, P)

    def derivative(self, P, axes):
        order = len(axes)
        if order > 3:
            raise FDOrderError(
                f"finite-difference stencils support derivative order <= 3, got {order}"
            )
        out = (self.value, self.grad, self.hess, self.third)[order](P)
        return out[(slice(None),) + tuple(axes)]


def resolve_field(field, dim, scheme="auto", h_scale=None, theta=None):
    """The handle whose derivatives a computation under `scheme` uses.

    A string is parsed into an expression field and a bare callable
    becomes an FDField.  "analytic" requires exact derivatives; "fd"
    differences the values of an analytic field; under either FD route
    a non-analytic field keeps its own step unless h_scale is passed.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown derivative scheme {scheme!r}")
    if isinstance(field, str):
        field = ExprScalarField(
            parse_expr(field, max_coord_index=dim), dim, theta=theta
        )
    elif not hasattr(field, "value"):
        field = FDField(field, dim)
    exact = field.analytic
    if scheme == "analytic" and not exact:
        raise ValueError("field has no analytic derivatives")
    if (exact and scheme == "fd") or (not exact and h_scale is not None):
        field = FDField(field.value, dim, h_scale or DEFAULT_FD_SCALE)
    return field


class ExprScalarField:
    """Scalar field defined by an expression AST."""

    analytic = True

    def __init__(self, ast, dim, theta=None):
        self.ast = ast
        self.dim = dim
        self.theta = theta
        self._grad_asts = None
        self._hess_asts = None
        self._third_asts = None

    def _grads(self):
        if self._grad_asts is None:
            self._grad_asts = [diff_expr(self.ast, k + 1) for k in range(self.dim)]
        return self._grad_asts

    def _hessians(self):
        if self._hess_asts is None:
            grads = self._grads()
            self._hess_asts = {
                (i, j): diff_expr(grads[i], j + 1)
                for i in range(self.dim)
                for j in range(i, self.dim)
            }
        return self._hess_asts

    def _thirds(self):
        if self._third_asts is None:
            hess = self._hessians()
            self._third_asts = {
                (i, j, k): diff_expr(hess[(i, j)], k + 1)
                for i in range(self.dim)
                for j in range(i, self.dim)
                for k in range(j, self.dim)
            }
        return self._third_asts

    def value(self, P):
        return np.asarray(evaluate(self.ast, P, self.theta))

    def grad(self, P):
        n = P.shape[0]
        out = np.empty((n, self.dim))
        for k, ast in enumerate(self._grads()):
            out[:, k] = evaluate(ast, P, self.theta)
        return out

    def hess(self, P):
        n = P.shape[0]
        out = np.empty((n, self.dim, self.dim))
        for (i, j), ast in self._hessians().items():
            vals = evaluate(ast, P, self.theta)
            out[:, i, j] = vals
            out[:, j, i] = vals
        return out

    def third(self, P):
        n = P.shape[0]
        out = np.empty((n, self.dim, self.dim, self.dim))
        for (i, j, k), ast in self._thirds().items():
            vals = evaluate(ast, P, self.theta)
            for perm in set(itertools.permutations((i, j, k))):
                out[:, perm[0], perm[1], perm[2]] = vals
        return out

    def derivative(self, P, axes):
        """Evaluate an arbitrary mixed partial; axes are 0-based."""
        ast = self.ast
        for ax in axes:
            ast = diff_expr(ast, ax + 1)
        return np.asarray(evaluate(ast, P, self.theta))


class ExprMetricField:
    """Symmetric metric field g_ij from expression ASTs.

    entries maps 0-based (i, j) with i <= j to an AST; the lower
    triangle mirrors the same objects.
    """

    analytic = True

    def __init__(self, entries, dim, theta=None):
        self.dim = dim
        self.theta = theta
        self.entries = {}
        for (i, j), ast in entries.items():
            if i > j:
                i, j = j, i
            self.entries[(i, j)] = ast
        self._grad_asts = None
        self._hess_asts = None

    def _grads(self):
        if self._grad_asts is None:
            self._grad_asts = {
                (k, i, j): diff_expr(ast, k + 1)
                for (i, j), ast in self.entries.items()
                for k in range(self.dim)
            }
        return self._grad_asts

    def _hessians(self):
        if self._hess_asts is None:
            grads = self._grads()
            self._hess_asts = {
                (l, k, i, j): diff_expr(grads[(k, i, j)], l + 1)
                for (k, i, j) in grads
                for l in range(k, self.dim)
            }
        return self._hess_asts

    def value(self, P):
        n = P.shape[0]
        out = np.zeros((n, self.dim, self.dim))
        for (i, j), ast in self.entries.items():
            vals = evaluate(ast, P, self.theta)
            out[:, i, j] = vals
            if i != j:
                out[:, j, i] = vals
        return out

    def grad(self, P):
        """[n, k, i, j] = d_k g_ij."""
        n = P.shape[0]
        out = np.zeros((n, self.dim, self.dim, self.dim))
        for (k, i, j), ast in self._grads().items():
            vals = evaluate(ast, P, self.theta)
            out[:, k, i, j] = vals
            if i != j:
                out[:, k, j, i] = vals
        return out

    def hess(self, P):
        """[n, l, k, i, j] = d_l d_k g_ij."""
        n = P.shape[0]
        out = np.zeros((n, self.dim, self.dim, self.dim, self.dim))
        for (l, k, i, j), ast in self._hessians().items():
            vals = evaluate(ast, P, self.theta)
            for a, b in ((l, k), (k, l)):
                out[:, a, b, i, j] = vals
                if i != j:
                    out[:, a, b, j, i] = vals
        return out


class ExprVectorField:
    """Vector field Z^i from one AST per component."""

    analytic = True

    def __init__(self, components, dim, theta=None):
        self.components = list(components)
        self.dim = dim
        self.theta = theta
        self._jac_asts = None

    def value(self, P):
        n = P.shape[0]
        out = np.empty((n, len(self.components)))
        for i, ast in enumerate(self.components):
            out[:, i] = evaluate(ast, P, self.theta)
        return out

    def jacobian(self, P):
        """[n, k, i] = d_k Z^i."""
        if self._jac_asts is None:
            self._jac_asts = [
                [diff_expr(ast, k + 1) for ast in self.components]
                for k in range(self.dim)
            ]
        n = P.shape[0]
        out = np.empty((n, self.dim, len(self.components)))
        for k, row in enumerate(self._jac_asts):
            for i, ast in enumerate(row):
                out[:, k, i] = evaluate(ast, P, self.theta)
        return out
