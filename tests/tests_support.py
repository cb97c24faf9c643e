"""Helpers shared across test modules."""

from dataclasses import replace

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded
from scipy.stats import qmc

from hypocert import assumptions as asm
from hypocert import geometry as geom
from hypocert import solver as sv
from hypocert.expressions import parse_expr
from hypocert.fields import (
    DEFAULT_FD_SCALE,
    ExprMetricField,
    ExprScalarField,
    FDField,
)
from hypocert.models import ModelSpec


def expr_model_1d(g11, E, v1="p1", theta=None):
    """One-dimensional expression model for targeted scenarios."""
    return ModelSpec(
        name="test1d",
        dim=1,
        metric_field=ExprMetricField({(0, 0): parse_expr(g11)}, 1, theta=theta),
        v_fields=(ExprScalarField(parse_expr(v1), 1, theta=theta),),
        energy_field=ExprScalarField(parse_expr(E), 1, theta=theta),
        theta=theta,
    )


def fd_model(model, h_scale=DEFAULT_FD_SCALE):
    """The same model differenced: each field's values in an FDField."""
    def fd(field):
        return FDField(field.value, model.dim, h_scale)

    return replace(
        model,
        metric_field=fd(model.metric_field),
        v_fields=tuple(map(fd, model.v_fields)),
        energy_field=fd(model.energy_field),
    )


def rel_points(n, radius=3.0, seed=5, dim=3):
    """Quasi-uniform random points in the ball of the given radius."""
    rng = np.random.default_rng(seed)
    P = rng.normal(size=(n, dim))
    P *= (radius * rng.random(n) ** (1.0 / dim) / np.linalg.norm(P, axis=1))[:, None]
    return P


def halton_ball_reference(dim, radius, count, seed):
    """Scan points in the ball drawn from scipy's scrambled Halton engine."""
    engine = qmc.Halton(d=dim, scramble=True, seed=seed)
    kept = []
    total = 0
    while total < count:
        raw = engine.random(max(4 * count, 256))
        pts = (2.0 * raw - 1.0) * radius
        pts = pts[np.sum(pts**2, axis=1) <= radius**2]
        kept.append(pts)
        total += pts.shape[0]
    return np.concatenate(kept, axis=0)[:count]


def log_det_derivs(Xi, dX, d2X):
    """d_k and d_l d_k of log det X, from X^-1, d_k X and d_l d_k X."""
    return np.einsum("nIJ,nkJI->nk", Xi, dX), (
        np.einsum("nIJ,nlkJI->nlk", Xi, d2X)
        - np.einsum("nIa,nlab,nbJ,nkJI->nlk", Xi, dX, Xi, dX)
    )


def conformal_logsob_reference(model, P):
    """kappa1's and kappa2's integrands for a conformal Gram form A = t I.

    The log-Sobolev integrands as they were computed before the scan ran
    on the minorant 1 / tr(A^-1): phi = log t with t = tr A / N, so dphi
    and d2phi come from the traces of dA and d2A.  On a conformal A both
    give the same phi up to the constant log N.
    """
    pj = asm._PointJet(model, np.asarray(P, dtype=float))
    jet, N = pj.jet, pj.A.shape[1]
    t = np.einsum("nII->n", pj.A) / N
    dA, d2A = asm._gram_derivs(pj)
    dphi = np.einsum("nkII->nk", dA) / N / t[:, None]
    d2phi = (np.einsum("nlkII->nlk", d2A) / N / t[:, None, None]
             - dphi[:, :, None] * dphi[:, None, :])
    ric = geom.bakry_emery_from_jet(jet, pj.grad_E, pj.hess_E)
    cond1 = ric - 0.25 * N * dphi[:, :, None] * dphi[:, None, :]
    eigs, _ = asm._gen_eigs(cond1, jet.g)
    dlogu = geom.drift_oneform_from_jet(jet, pj.grad_E)
    lap_phi = geom.laplace_from_jet(jet, dphi, d2phi)
    pair = np.einsum("nij,ni,nj->n", jet.g_inv, dlogu, dphi)
    return eigs[:, 0], -0.5 * (lap_phi + pair)


def product_blocks_reference(model, P):
    """The product criterion on the doubled metric, built generically.

    G = g_ab dp^a dp^b + h_IJ dx^I dx^J with h = A^-1 is assembled as
    an (M + N)-dimensional metric with its whole 2-jet, coordinates
    ordered (p, x), and the geometry engine's generic Ricci and
    covariant Hessian run on it.  Returns G, Ric_G, Hess_G psi for
    psi = log u + (1/2) log det A^{IJ}, and form = Ric_G - Hess_G psi.
    """
    pj = asm._PointJet(model, np.asarray(P, dtype=float))
    jet_g = pj.jet
    n, M = pj.P.shape
    N = pj.A.shape[1]
    dA, d2A = asm._gram_derivs(pj)
    h = asm._symmetrize(np.linalg.inv(pj.A))
    dh, d2h = asm._inverse_derivs(h, dA, d2A)

    p, x = slice(0, M), slice(M, M + N)
    D = M + N
    G = np.zeros((n, D, D))
    G[:, p, p] = jet_g.g
    G[:, x, x] = h
    dG = np.zeros((n, D, D, D))
    dG[:, p, p, p] = jet_g.dg
    dG[:, p, x, x] = dh
    d2G = np.zeros((n, D, D, D, D))
    d2G[:, p, p, p, p] = jet_g.d2g
    d2G[:, p, p, x, x] = d2h
    jet = geom.jet_from_arrays(G, dG, d2G)

    # log u = -E - (1/2) log det g
    dlogdet_A, d2logdet_A = log_det_derivs(h, dA, d2A)
    dpsi = geom.drift_oneform_from_jet(jet_g, pj.grad_E) + 0.5 * dlogdet_A
    d2psi = (-pj.hess_E - 0.5 * log_det_derivs(jet_g.g_inv, jet_g.dg, jet_g.d2g)[1]
             + 0.5 * d2logdet_A)
    grad_big = np.zeros((n, D))
    grad_big[:, p] = dpsi
    hess_big = np.zeros((n, D, D))
    hess_big[:, p, p] = d2psi
    ric_G = geom.ricci_from_jet(jet)
    hess_G = geom.covariant_hessian_from_jet(jet, grad_big, hess_big)
    return {"G": G, "ric_G": ric_G, "hess_G_psi": hess_G, "form": ric_G - hess_G}


def _minmod(a, b):
    return 0.5 * (np.sign(a) + np.sign(b)) * np.minimum(np.abs(a), np.abs(b))


def advect_reference(h, nu, order2):
    """One upwind substep of dh/dt + v dh/dx = 0; nu = v dt / dx per column."""
    up = np.roll(h, 1, axis=0)
    dn = np.roll(h, -1, axis=0)
    if not order2:
        nup = np.maximum(nu, 0.0)
        nudn = np.minimum(nu, 0.0)
        return h - nup * (h - up) - nudn * (dn - h)
    # MUSCL reconstruction with a minmod limiter; monotone for |nu| <= 1/2.
    mm = _minmod(h - up, dn - h)
    right = np.where(nu > 0.0, h + 0.5 * mm, dn - 0.5 * np.roll(mm, -1, axis=0))
    left = np.roll(right, 1, axis=0)
    return h - nu * (right - left)


def diffusion_solve_reference(op, h, dt):
    """(I - dt L)^-1 h through a banded Cholesky factorization."""
    ab = np.zeros((2, op.weight.size))
    ab[0, 1:] = -dt * op.off
    ab[1, :] = op.weight - dt * op.diag
    return cho_solve_banded((cholesky_banded(ab), False), (op.weight * h).T).T


def step_reference(h, dt, model, grid, order2=False):
    """One Strang step with roll-based transport and a banded solve."""
    nu = sv._node_geometry(model, grid).v * (0.5 * dt / grid.dx)
    h = advect_reference(h, nu, order2)
    h = diffusion_solve_reference(sv._op(model, grid), h, dt)
    return advect_reference(h, nu, order2)
