"""Riemannian tensor calculus on the momentum manifold (R^M, g).

Everything reduces to the metric 2-jet: g, its inverse, sqrt(det g),
first derivatives d_k g_ij, Christoffel symbols, and (when second
derivatives are available) d_l Gamma^k_ij.  From the jet the module
assembles Ricci curvature, covariant Hessians, gradients, divergences,
the Laplace-Beltrami operator, and the Bakry-Emery-Ricci tensor
Ric - Hess_p(log u) for the equilibrium weight u = e^-E / sqrt(det g).

Internals are batched: arrays carry a leading axis over n points.
Chains of matrix products (the inverse-metric derivative, the
Christoffel symbols and their derivatives) are batched `@` calls,
because einsum runs a contraction of three or more operands as one
loop over every index; traces and two-operand sums are einsum calls.
The public operations accept a single point (PointP or shape (M,))
and return single-point tensors, or a batch (n, M) and return batched
tensors.  Each reads each field it needs in one request of all the
orders it needs: a field of the model's jet builder (g, v, E, and log u
once `models.log_weight_field` has made it) in the same request as g,
any other field in one request to a builder of its own.

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
from .errors import MetricError, NonpositiveWeight

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
    gs = 0.5 * (g + gt)
    try:
        chol = np.linalg.cholesky(gs)
    except np.linalg.LinAlgError as exc:
        raise MetricError(f"metric not positive definite: {exc}") from exc
    sqrt_det = np.prod(np.diagonal(chol, axis1=1, axis2=2), axis=1)
    g_inv = np.linalg.inv(gs)
    g_inv = 0.5 * (g_inv + np.swapaxes(g_inv, 1, 2))

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
    )


def _metric_request(second):
    return ((0, 0), (0, 1), (0, 2)) if second else ((0, 0), (0, 1))


def batch_jet(model, P, second=True):
    """Metric jet on a batch of points P with shape (n, M): g at orders
    0-1, or 0-2, in one request to the model's jet builder."""
    return jet_from_arrays(*model._jets(_metric_request(second), P))


def _jet_with(model, P, second, field, orders):
    """batch_jet, and the jet of a field handle at each of orders.  A
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
    return 0.5 * (ric + np.swapaxes(ric, 1, 2))


def covariant_hessian_from_jet(jet, grad_f, hess_f):
    """(Hess f)_ij = d_i d_j f - Gamma^k_ij d_k f."""
    return hess_f - np.einsum("nkij,nk->nij", jet.christoffel, grad_f)


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
    extra axes after n: A[n, ..., i, j] and dA[n, ..., k, i, j].
    """
    G = jet.christoffel
    return (
        np.einsum("n...kik->n...i", dA)
        + np.einsum("nika,n...ak->n...i", G, A)
        + np.einsum("nkka,n...ia->n...i", G, A)
    )


def hessian_log_sqrt_from_jet(jet):
    """Covariant Hessian of log sqrt(det g).

    Uses d_j log sqrt(det g) = Gamma^k_{kj}, so only second metric
    derivatives enter.
    """
    if jet.dchristoffel is None:
        raise MetricError("needs a jet with second derivatives")
    H = np.einsum("nikkj->nij", jet.dchristoffel)
    H = 0.5 * (H + np.swapaxes(H, 1, 2))
    return H - np.einsum("nkij,nk->nij", jet.christoffel, jet.dlog_sqrt)


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
    jet = batch_jet(model, P)
    out = ricci_from_jet(jet)
    return SymTensor2(out[0] if single else out, "covariant")


def covariant_hessian(model, f, p):
    """Covariant Hessian of the scalar field f at p."""
    P, single = as_batch(p, model.dim)
    field = _fields.as_field(f, model.dim, model.theta)
    jet, (grad_f, hess_f) = _jet_with(model, P, False, field, (1, 2))
    out = covariant_hessian_from_jet(jet, grad_f, hess_f)
    return SymTensor2(out[0] if single else out, "covariant")


def gradient_p(model, f, p):
    """Gradient vector (df)^i = g^ij d_j f at p."""
    P, single = as_batch(p, model.dim)
    field = _fields.as_field(f, model.dim, model.theta)
    jet, (grad_f,) = _jet_with(model, P, False, field, (1,))
    out = gradient_from_jet(jet, grad_f)
    return VecP(out[0] if single else out, "vector")


def divergence_vec(model, Z, p):
    """Divergence of a vector field: (1/sqrt g) d_i(sqrt g Z^i)."""
    P, single = as_batch(p, model.dim)
    Z = _fields.as_field(Z, model.dim)
    jet, (Z_val, dZ) = _jet_with(model, P, False, Z, (0, 1))
    out = divergence_vec_from_jet(jet, Z_val, dZ)
    return float(out[0]) if single else out


def divergence_tensor2(model, A, p):
    """Divergence of a (2,0)-tensor field, contracted in the second slot."""
    P, single = as_batch(p, model.dim)
    A = _fields.as_field(A, model.dim)
    jet, (A_val, dA) = _jet_with(model, P, False, A, (0, 1))
    out = divergence_tensor2_from_jet(jet, A_val, dA)
    return VecP(out[0] if single else out, "vector")


def laplace_beltrami(model, f, p):
    """Laplace-Beltrami operator applied to f at p."""
    P, single = as_batch(p, model.dim)
    field = _fields.as_field(f, model.dim, model.theta)
    jet, (grad_f, hess_f) = _jet_with(model, P, False, field, (1, 2))
    out = laplace_from_jet(jet, grad_f, hess_f)
    return float(out[0]) if single else out


def log_weight_values(model, P):
    """log u = -E - log sqrt(det g) on a batch, plus the jet used."""
    jet, (E,) = _jet_with(model, P, False, model.energy_field, (0,))
    return -E - np.log(jet.sqrt_det), jet


def bakry_emery_ricci(model, p):
    """Bakry-Emery-Ricci tensor Ric - Hess(log u) at p."""
    P, single = as_batch(p, model.dim)
    jet, (E, dE, d2E) = _jet_with(model, P, True, model.energy_field, (0, 1, 2))
    with np.errstate(over="ignore"):
        u = np.exp(-E) / jet.sqrt_det
    if not np.all(np.isfinite(u)) or np.any(u <= 0.0):
        raise NonpositiveWeight(
            "equilibrium weight u = e^-E / sqrt(det g) is not positive"
        )
    out = bakry_emery_from_jet(jet, dE, d2E)
    return SymTensor2(out[0] if single else out, "covariant")
