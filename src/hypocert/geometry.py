"""Riemannian tensor calculus on the momentum manifold (R^M, g).

Everything reduces to the metric 2-jet: g, its inverse, sqrt(det g),
first derivatives d_k g_ij, Christoffel symbols, and (when second
derivatives are available) d_l Gamma^k_ij.  From the jet the module
assembles Ricci curvature, covariant Hessians, gradients, divergences,
the Laplace-Beltrami operator, and the Bakry-Emery-Ricci tensor
Ric - Hess_p(log u) for the equilibrium weight u = e^-E / sqrt(det g).

Internals are batched: arrays carry a leading axis over n points.
The kernels on jets (`*_from_jet`, `_inverse_derivs`) serve the public
operations, the assumption scans and the solver alike.  Traces and
two-operand sums are einsum calls; a chain of matrix products is one
matmul per point, as einsum runs a contraction of three or more
operands as one loop over every index.  The index axes a product runs
over (a derivative axis, a velocity component) fold into the rows of
its left factor, so X_k B for every k is one (rows x M) @ (M x M)
product (`_right`); B X_k runs as (X_k^T B^T)^T (`_left`), and a
product with both factors varying takes the right ones side by side
(`_cols`).  No product assumes that its inputs are symmetric, and
matmul gives a point the same bits alone as in any batch.

The public operations accept a single point (PointP or shape (M,))
and return single-point tensors, or a batch (n, M) and return batched
tensors.  Each takes its field through one rule (`_field_jets`), which
checks the field's rank.  They read the model's point jet (`_point`):
one request of every expression field of the model's jet builder (g,
v, E, and log u once `models.log_weight_field` has made it) at orders
0-2, and one metric jet, kept until an operation at other points, so
ricci, the covariant Hessian of log u and the Bakry-Emery tensor at one
point run one program.  Other fields, and the fields of a model whose
g is differenced, are read in requests of the orders they need.

Index conventions, fixed once:
    dg[n, k, i, j]            = d_k g_ij
    d2g[n, l, k, i, j]        = d_l d_k g_ij
    christoffel[n, k, i, j]   = Gamma^k_ij
                              = 1/2 g^kl (d_i g_jl + d_j g_il - d_l g_ij)
    dchristoffel[n, l, k, i, j] = d_l Gamma^k_ij
    Ric_ij = d_k Gamma^k_ij - d_i Gamma^k_kj
             + Gamma^k_kl Gamma^l_ij - Gamma^k_il Gamma^l_kj
The Ricci sign makes the round sphere positively curved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fields as _fields
from .errors import ExprDomainError, MetricError, NonpositiveWeight

__all__ = [
    "PointP",
    "MetricJet",
    "SymTensor2",
    "VecP",
    "ricci",
    "covariant_hessian",
    "gradient_p",
    "divergence_vec",
    "divergence_tensor2",
    "laplace_beltrami",
    "bakry_emery_ricci",
    "jet_from_arrays",
    "ricci_from_jet",
    "covariant_hessian_from_jet",
    "hessian_log_sqrt_from_jet",
    "bakry_emery_from_jet",
    "divergence_tensor2_from_jet",
    "log_weight_values",
    "drift_oneform_from_jet",
]


@dataclass(frozen=True)
class PointP:
    """A point in momentum space, coordinates p^1..p^M."""

    coords: tuple

    def __post_init__(self):
        coords = tuple(float(c) for c in self.coords)
        if not all(np.isfinite(coords)):
            raise ValueError("point coordinates must be finite")
        object.__setattr__(self, "coords", coords)

    @property
    def array(self):
        return np.asarray(self.coords, dtype=float)


@dataclass
class MetricJet:
    """Metric and its derivatives at one point or a batch of points.

    For a single point the arrays have the plain tensor shapes
    (M, M), (M, M, M), ...; for a batch they carry a leading axis n.
    d2g and dchristoffel are None when built without second derivatives.
    g_factor is the lower Cholesky factor of g, the one factorization of
    g that every pencil on base g shares.
    """

    g: np.ndarray
    g_inv: np.ndarray
    sqrt_det: np.ndarray
    dg: np.ndarray
    christoffel: np.ndarray
    dchristoffel: np.ndarray | None
    dg_inv: np.ndarray = None
    dlog_sqrt: np.ndarray = None
    d2g: np.ndarray | None = None
    g_factor: np.ndarray | None = None


@dataclass
class SymTensor2:
    """Symmetric 2-tensor with a variance tag."""

    entries: np.ndarray
    variance: str  # "covariant" (0,2) or "contravariant" (2,0)


@dataclass
class VecP:
    """Vector or one-form entries with a variance tag."""

    entries: np.ndarray
    variance: str  # "vector" or "one-form"


# ---------------------------------------------------------------------------
# Point coercion


def as_batch(p, dim=None):
    """Coerce PointP / (M,) / (n, M) to ((n, M) array, was_single)."""
    if isinstance(p, PointP):
        arr = p.array[None, :]
        single = True
    else:
        arr = np.asarray(p, dtype=float)
        if arr.ndim == 1:
            arr = arr[None, :]
            single = True
        elif arr.ndim == 2:
            single = False
        else:
            raise ValueError(f"expected point shape (M,) or (n, M), got {arr.shape}")
    if dim is not None and arr.shape[1] != dim:
        raise ValueError(f"point dimension {arr.shape[1]} != model dimension {dim}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("point coordinates must be finite")
    return arr, single


# ---------------------------------------------------------------------------
# Jet assembly


def _t(X):
    """Transpose the last two axes of a (batched) matrix."""
    return np.swapaxes(X, -1, -2)


def _symmetrize(F):
    return 0.5 * (F + _t(F))


def _rows(X):
    """The matrices on the trailing axes of X (n, ..., r, s) stacked as the
    rows of one (n, rows, s) matrix per point (a copy unless X is C-ordered)."""
    return X.reshape(X.shape[0], -1, X.shape[-1])


def _cols(X):
    """The matrices of X (n, ..., r, s) side by side: (n, r, columns)."""
    return np.moveaxis(X, -2, 1).reshape(X.shape[0], X.shape[-2], -1)


def _right(X, B):
    """X_k B for every matrix X_k of X (n, ..., r, s) and B (n, s, t): one
    matmul per point, with every X_k in its left factor's rows.  B is
    copied to C order first, as matmul takes a transposed B several
    times slower."""
    return (_rows(X) @ np.ascontiguousarray(B)).reshape(
        *X.shape[:-1], B.shape[-1])


def _left(B, X):
    """B X_k for every matrix X_k of X, as (X_k^T B^T)^T."""
    return _t(_right(_t(X), _t(B)))


def _tril_inverse(L):
    """W = L^-1 for a stack L (n, S, S) of lower-triangular matrices with
    a nonzero diagonal, by forward substitution: row i of L W = I gives
    W[i, :i] = -L[i, :i] W[:i, :i] / L[i, i].  One loop over the rows,
    each step vectorized over the stack, so a matrix gets the same bits
    alone as in any stack."""
    W = np.zeros_like(L)
    d = 1.0 / np.diagonal(L, axis1=1, axis2=2)
    for i in range(L.shape[1]):
        row = (L[:, i, None, :i] @ W[:, :i, :i])[:, 0]
        np.multiply(row, -d[:, i, None], out=W[:, i, :i])
        W[:, i, i] = d[:, i]
    return W


def jet_from_arrays(g, dg, d2g=None):
    """Build a batched MetricJet from raw derivative arrays.

    g: (n, M, M); dg[n, k, i, j] = d_k g_ij;
    d2g[n, l, k, i, j] = d_l d_k g_ij (optional).
    """
    g = np.asarray(g, dtype=float)
    n, m, _ = g.shape
    gt = np.swapaxes(g, 1, 2)
    # exact symmetry first; a NaN or an asymmetric entry fails it and
    # gets the tolerance test
    if not (np.array_equal(g, gt)
            or np.allclose(g, gt, rtol=1e-8, atol=1e-10)):
        raise MetricError("metric is not symmetric")
    gs = _symmetrize(g)
    try:
        chol = np.linalg.cholesky(gs)
    except np.linalg.LinAlgError as exc:
        raise MetricError(f"metric not positive definite: {exc}") from exc
    sqrt_det = np.prod(np.diagonal(chol, axis1=1, axis2=2), axis=1)
    g_inv = _symmetrize(np.linalg.inv(gs))

    # T[n, i, j, l] = d_i g_jl + d_j g_il - d_l g_ij, and Tt[n, l, ij]
    T = dg + dg.swapaxes(1, 2) - dg.transpose(0, 2, 3, 1)
    Tt = _t(T.reshape(n, m * m, m))
    christoffel = 0.5 * (g_inv @ Tt).reshape(n, m, m, m)
    dlog_sqrt = 0.5 * np.einsum("nij,nkij->nk", g_inv, dg)
    dg_inv = -(g_inv[:, None] @ dg @ g_inv[:, None])

    dchristoffel = None
    if d2g is not None:
        dT = d2g + d2g.swapaxes(2, 3) - d2g.transpose(0, 1, 3, 4, 2)
        dTt = _t(dT.reshape(n, m, m * m, m))
        dchristoffel = 0.5 * (
            dg_inv @ Tt[:, None] + g_inv[:, None] @ dTt
        ).reshape(n, m, m, m, m)
    return MetricJet(
        g=gs,
        g_inv=g_inv,
        sqrt_det=sqrt_det,
        dg=dg,
        christoffel=christoffel,
        dchristoffel=dchristoffel,
        dg_inv=dg_inv,
        dlog_sqrt=dlog_sqrt,
        d2g=d2g,
        g_factor=chol,
    )


def _metric_request(second):
    return ((0, 0), (0, 1), (0, 2)) if second else ((0, 0), (0, 1))


def batch_jet(model, P, second=True):
    """Metric jet on a batch of points P with shape (n, M): g at orders
    0-1, or 0-2, in one request to the model's jet builder."""
    return jet_from_arrays(*model._jets(_metric_request(second), P))


def _jet_with(model, P, second, field, orders):
    """batch_jet, and the jet of a field handle at each of orders, for
    what the model's point jet does not serve (see `_point`).  A
    field of the model's jet builder (g, v, E, or log u once made) is
    read in the same request as g; any other in one request to a
    builder of its own."""
    k = model._builder().index(field)
    if k is None:
        return batch_jet(model, P, second), field._jets(
            tuple((0, order) for order in orders), P)
    metric = _metric_request(second)
    out = model._jets(metric + tuple((k, order) for order in orders), P)
    return jet_from_arrays(*out[:len(metric)]), out[len(metric):]


# What a jet request raises at a point outside the model's domain
_JET_ERRORS = (MetricError, ExprDomainError, FloatingPointError,
               np.linalg.LinAlgError)


def _point(model, P, second, field, orders):
    """`_jet_with`'s metric jet and field jets, from the model's point jet
    when g and field are members of the model's jet builder.

    The point jet is one request of every member at orders 0-2, and the
    metric 2-jet of g's part, kept in the model's cache on the members
    and P's shape and bytes: an operation at the same points reads it,
    one at other points replaces it.  One that raises a jet error is not
    kept, and the operation makes `_jet_with`'s request, which raises
    what it raises.  A jet's bits do not depend on the other jets of its
    request (see `expressions.Tape`).
    """
    builder = model._builder()
    members, k = builder.members(), builder.index(field)
    if members[:1] != (0,) or k not in members:
        return _jet_with(model, P, second, field, orders)
    key = (members, P.shape, P.tobytes())
    kept = model._cache.get("point")
    if kept is None or kept[0] != key:
        model._cache.pop("point", None)
        try:
            out = model._jets(tuple((m, o) for m in members for o in (0, 1, 2)), P)
            kept = (key, jet_from_arrays(*out[:3]),
                    {m: out[3 * i:3 * i + 3] for i, m in enumerate(members)})
        except _JET_ERRORS:
            return _jet_with(model, P, second, field, orders)
        model._cache["point"] = kept
    return kept[1], [kept[2][k][order] for order in orders]


# ---------------------------------------------------------------------------
# Curvature and derivative operators on jets


def ricci_from_jet(jet):
    dG = jet.dchristoffel
    if dG is None:
        raise MetricError("Ricci needs a jet with second derivatives")
    G = jet.christoffel
    ric = (
        np.einsum("nkkij->nij", dG)
        - np.einsum("nikkj->nij", dG)
        + np.einsum("nkkl,nlij->nij", G, G)
        - np.einsum("nkil,nlkj->nij", G, G)
    )
    return _symmetrize(ric)


def covariant_hessian_from_jet(jet, grad_f, hess_f):
    """(Hess f)_ij = d_i d_j f - Gamma^k_ij d_k f, also for a family of
    functions: grad_f[n, ..., k] and hess_f[n, ..., i, j]."""
    return hess_f - np.einsum("nkij,n...k->n...ij", jet.christoffel, grad_f)


def _inverse_second(Xi, Y, d2X):
    """d_l d_k X^{-1} = (Y_l Y_k + Y_k Y_l) X^{-1} - X^{-1} d_l d_k X X^{-1},
    from X^{-1}, the products Y_k = X^{-1} d_k X in rows (k, i) and
    d2X[n, l, k] = d_l d_k X; the result has d2X's layout."""
    n, K, S = d2X.shape[:3]
    # (Y_l Y_k) Xi, from the products Y_l Y_k in rows (l, i), columns (k, j)
    d2Xi = _right((Y @ _cols(Y.reshape(n, K, S, S))).reshape(n, K, S, K, S)
                  .swapaxes(2, 3), Xi)
    d2Xi = d2Xi + d2Xi.swapaxes(1, 2)
    d2Xi -= _right(_left(Xi, d2X), Xi)
    return d2Xi


def _inverse_derivs(Xi, dX, d2X):
    """First and second derivatives of X^{-1}, from X^{-1}, dX[n, k] =
    d_k X and d2X[n, l, k] = d_l d_k X; the results share that layout."""
    Y = _rows(_left(Xi, dX))                        # Xi dX_k, rows (k, i)
    dXi = (Y @ Xi).reshape(dX.shape)
    return np.negative(dXi, out=dXi), _inverse_second(Xi, Y, d2X)


def gradient_from_jet(jet, grad_f):
    return np.einsum("nij,nj->ni", jet.g_inv, grad_f)


def laplace_from_jet(jet, grad_f, hess_f):
    """Divergence form: (1/sqrt g) d_i (sqrt g g^ij d_j f), expanded.

    A family of functions may carry extra axes after the derivative
    axes: grad_f[n, j, ...] and hess_f[n, i, j, ...].
    """
    return (
        np.einsum("nij,nij...->n...", jet.g_inv, hess_f)
        + np.einsum("niij,nj...->n...", jet.dg_inv, grad_f)
        + np.einsum("ni,nij,nj...->n...", jet.dlog_sqrt, jet.g_inv, grad_f)
    )


def divergence_vec_from_jet(jet, Z, dZ):
    """div Z = d_i Z^i + Z^i d_i log sqrt(det g); dZ[n,k,i] = d_k Z^i."""
    return np.einsum("nii->n", dZ) + np.einsum("ni,ni->n", Z, jet.dlog_sqrt)


def divergence_tensor2_from_jet(jet, A, dA):
    """Contraction of nabla A in the derivative and second slot.

    (div A)^i = d_k A^{ik} + Gamma^i_{ka} A^{ak} + Gamma^k_{ka} A^{ia},
    with dA[n, k, i, j] = d_k A^{ij}.  A family of tensors may carry
    extra axes after n: A[n, ..., i, j] and dA[n, ..., k, i, j].  Each
    sum over (k, a) is one matmul per point.
    """
    n, M = A.shape[0], A.shape[-1]
    G = jet.christoffel
    div = np.trace(dA, axis1=-3, axis2=-1)
    div += _right(_t(A).reshape(*A.shape[:-2], M * M), _t(G.reshape(n, M, M * M)))
    div += (_rows(A) @ np.trace(G, axis1=1, axis2=2)[:, :, None]).reshape(
        A.shape[:-1])
    return div


def hessian_log_sqrt_from_jet(jet):
    """Covariant Hessian of log sqrt(det g).

    Uses d_j log sqrt(det g) = Gamma^k_{kj}, so only second metric
    derivatives enter.
    """
    if jet.dchristoffel is None:
        raise MetricError("needs a jet with second derivatives")
    H = np.einsum("nikkj->nij", jet.dchristoffel)
    return covariant_hessian_from_jet(jet, jet.dlog_sqrt, _symmetrize(H))


def bakry_emery_from_jet(jet, grad_E, hess_E):
    """Ric - Hess(log u) with log u = -E - log sqrt(det g)."""
    ric = ricci_from_jet(jet)
    hess_log_u = -covariant_hessian_from_jet(jet, grad_E, hess_E)
    hess_log_u -= hessian_log_sqrt_from_jet(jet)
    return ric - hess_log_u


def drift_oneform_from_jet(jet, grad_E):
    """d(log u) = -(dE + d log sqrt(det g)); raise to get W."""
    return -(grad_E + jet.dlog_sqrt)


# ---------------------------------------------------------------------------
# Public operations (model, point)


def ricci(model, p):
    """Ricci curvature of the momentum metric at p."""
    P, single = as_batch(p, model.dim)
    jet, _ = _point(model, P, True, model.metric_field, ())
    out = ricci_from_jet(jet)
    return SymTensor2(out[0] if single else out, "covariant")


def _field_jets(op, model, p, f, rank, orders):
    """For the public operation op: (was p one point, the metric 1-jet,
    the jets of f at each of orders), f coerced by `fields.as_field` at
    the model's theta.  A ValueError names op unless f has the given rank."""
    P, single = as_batch(p, model.dim)
    field = _fields.as_field(f, model.dim, model.theta)
    jet, jets = _point(model, P, False, field, orders)
    shape, want = jets[0].shape[1 + orders[0]:], (model.dim,) * rank
    if shape != want:
        need = ("a scalar", "a vector", "a 2-tensor")[rank]
        raise ValueError(f"{op} needs {need} field, with values of "
                         f"shape {want}; got values of shape {shape}")
    return single, jet, jets


def covariant_hessian(model, f, p):
    """Covariant Hessian of the scalar field f at p."""
    single, jet, (grad_f, hess_f) = _field_jets(
        "covariant_hessian", model, p, f, 0, (1, 2))
    out = covariant_hessian_from_jet(jet, grad_f, hess_f)
    return SymTensor2(out[0] if single else out, "covariant")


def gradient_p(model, f, p):
    """Gradient vector (df)^i = g^ij d_j f at p."""
    single, jet, (grad_f,) = _field_jets("gradient_p", model, p, f, 0, (1,))
    out = gradient_from_jet(jet, grad_f)
    return VecP(out[0] if single else out, "vector")


def divergence_vec(model, Z, p):
    """Divergence of a vector field: (1/sqrt g) d_i(sqrt g Z^i)."""
    single, jet, (Z_val, dZ) = _field_jets(
        "divergence_vec", model, p, Z, 1, (0, 1))
    out = divergence_vec_from_jet(jet, Z_val, dZ)
    return float(out[0]) if single else out


def divergence_tensor2(model, A, p):
    """Divergence of a (2,0)-tensor field, contracted in the second slot."""
    single, jet, (A_val, dA) = _field_jets(
        "divergence_tensor2", model, p, A, 2, (0, 1))
    out = divergence_tensor2_from_jet(jet, A_val, dA)
    return VecP(out[0] if single else out, "vector")


def laplace_beltrami(model, f, p):
    """Laplace-Beltrami operator applied to f at p."""
    single, jet, (grad_f, hess_f) = _field_jets(
        "laplace_beltrami", model, p, f, 0, (1, 2))
    out = laplace_from_jet(jet, grad_f, hess_f)
    return float(out[0]) if single else out


def log_weight_values(model, P):
    """log u = -E - log sqrt(det g) on a batch, plus the jet used."""
    jet, (E,) = _jet_with(model, P, False, model.energy_field, (0,))
    return -E - np.log(jet.sqrt_det), jet


def bakry_emery_ricci(model, p):
    """Bakry-Emery-Ricci tensor Ric - Hess(log u) at p."""
    P, single = as_batch(p, model.dim)
    jet, (E, dE, d2E) = _point(model, P, True, model.energy_field, (0, 1, 2))
    with np.errstate(over="ignore"):
        u = np.exp(-E) / jet.sqrt_det
    if not np.all(np.isfinite(u)) or np.any(u <= 0.0):
        raise NonpositiveWeight(
            "equilibrium weight u = e^-E / sqrt(det g) is not positive"
        )
    out = bakry_emery_from_jet(jet, dE, d2E)
    return SymTensor2(out[0] if single else out, "covariant")
