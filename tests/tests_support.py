"""Helpers shared across test modules."""

from dataclasses import replace

import numpy as np

from hypocert import assumptions as asm
from hypocert import geometry as geom
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


def log_det_derivs(Xi, dX, d2X):
    """d_k and d_l d_k of log det X, from X^-1, d_k X and d_l d_k X."""
    return np.einsum("nIJ,nkJI->nk", Xi, dX), (
        np.einsum("nIJ,nlkJI->nlk", Xi, d2X)
        - np.einsum("nIa,nlab,nbJ,nkJI->nlk", Xi, dX, Xi, dX)
    )


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
