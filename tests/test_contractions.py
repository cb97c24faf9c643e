"""Batched matrix-product contractions against their einsum references.

The scans evaluate their tensor contractions as chains of batched `@`
products.  Each reference below writes the same sums as einsum calls,
one per term, index for index as the formulas read.  On seeded random
inputs, with and without the symmetries the real inputs have, at 1,
133 and CHUNK points, the chains must match the references to a
relative 1e-12.  N = 2 velocity components against M = 3 coordinates
keeps the component and coordinate axes from being confused.
"""

from itertools import permutations
from types import SimpleNamespace

import numpy as np
import pytest

from hypocert import assumptions as asm
from hypocert import geometry as geom

M, N = 3, 2
SIZES = (1, 133, asm.CHUNK)
CASES = [(n, sym) for n in SIZES for sym in (True, False)]


def assert_same(got, want):
    """Equal to rtol 1e-12, entries near zero judged on the array's scale."""
    assert got.shape == want.shape
    scale = float(np.max(np.abs(want)))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)


def sym_last(X):
    return 0.5 * (X + np.swapaxes(X, -1, -2))


def sym_axes(X, a, b):
    return 0.5 * (X + np.swapaxes(X, a, b))


def sym_last3(X):
    lead = tuple(range(X.ndim - 3))
    perms = [lead + tuple(X.ndim - 3 + i for i in p) for p in permutations(range(3))]
    return sum(X.transpose(p) for p in perms) / 6.0


def random_inputs(n, sym, seed=0):
    """Matrices and derivative arrays with the real inputs' index layout.

    With sym, every array has the symmetries the scans feed in: metric
    slots symmetric, derivative axes commuting.  Without, even g_inv is
    a plain random matrix; only g stays positive definite, for
    jet_from_arrays.
    """
    rng = np.random.default_rng([seed, n, sym])
    r = SimpleNamespace()
    B = rng.normal(size=(n, M, M))
    r.g = B @ np.swapaxes(B, 1, 2) + M * np.eye(M)
    r.g_inv = np.linalg.inv(r.g)
    r.dg = rng.normal(size=(n, M, M, M))
    r.d2g = rng.normal(size=(n, M, M, M, M))
    r.gamma = rng.normal(size=(n, M, M, M))
    r.dgamma = rng.normal(size=(n, M, M, M, M))
    r.dv = rng.normal(size=(n, N, M))
    r.hv = rng.normal(size=(n, N, M, M))
    r.tv = rng.normal(size=(n, N, M, M, M))
    r.X = rng.normal(size=(n, M, M))
    r.grad_E = rng.normal(size=(n, M))
    r.dlog_sqrt = rng.normal(size=(n, M))
    if not sym:
        r.g_inv = rng.normal(size=(n, M, M))
    else:
        r.g_inv = sym_last(r.g_inv)
        r.dg = sym_last(r.dg)
        r.d2g = sym_axes(sym_last(r.d2g), 1, 2)
        r.gamma = sym_last(r.gamma)
        r.dgamma = sym_last(r.dgamma)
        r.hv = sym_last(r.hv)
        r.tv = sym_last3(r.tv)
        r.X = sym_last(r.X)
    return r


# ---------------------------------------------------------------------------
# References


def inverse_d1_reference(Xi, dX):
    return -np.einsum("nIa,nkab,nbJ->nkIJ", Xi, dX, Xi)


def inverse_derivs_reference(Xi, dX, d2X):
    dXi = inverse_d1_reference(Xi, dX)
    d2Xi = (
        np.einsum("nia,nlab,nbc,nkcd,ndj->nlkij", Xi, dX, Xi, dX, Xi)
        + np.einsum("nia,nkab,nbc,nlcd,ndj->nlkij", Xi, dX, Xi, dX, Xi)
        - np.einsum("nia,nlkab,nbj->nlkij", Xi, d2X, Xi)
    )
    return dXi, d2Xi


def gram_derivs_reference(gi, dg, d2g, dv, hv, tv):
    dgi, d2gi = inverse_derivs_reference(gi, dg, d2g)
    dA = (
        np.einsum("nkab,nIa,nJb->nkIJ", dgi, dv, dv)
        + np.einsum("nab,nIka,nJb->nkIJ", gi, hv, dv)
        + np.einsum("nab,nIa,nJkb->nkIJ", gi, dv, hv)
    )
    d2A = (
        np.einsum("nlkab,nIa,nJb->nlkIJ", d2gi, dv, dv)
        + np.einsum("nkab,nIla,nJb->nlkIJ", dgi, hv, dv)
        + np.einsum("nkab,nIa,nJlb->nlkIJ", dgi, dv, hv)
        + np.einsum("nlab,nIka,nJb->nlkIJ", dgi, hv, dv)
        + np.einsum("nab,nIlka,nJb->nlkIJ", gi, tv, dv)
        + np.einsum("nab,nIka,nJlb->nlkIJ", gi, hv, hv)
        + np.einsum("nlab,nIa,nJkb->nlkIJ", dgi, dv, hv)
        + np.einsum("nab,nIla,nJkb->nlkIJ", gi, hv, hv)
        + np.einsum("nab,nIa,nJlkb->nlkIJ", gi, dv, tv)
    )
    return dA, d2A


def div_hessians_reference(jet, dv, hv, tv):
    Hv = hv - np.einsum("ncab,nIc->nIab", jet.christoffel, dv)
    dHv = (
        tv
        - np.einsum("nkcab,nIc->nIkab", jet.dchristoffel, dv)
        - np.einsum("ncab,nIkc->nIkab", jet.christoffel, hv)
    )
    gi = jet.g_inv
    H_up = np.einsum("nia,njb,nIab->nIij", gi, gi, Hv)
    dH_up = (
        np.einsum("nkia,njb,nIab->nIkij", jet.dg_inv, gi, Hv)
        + np.einsum("nia,nkjb,nIab->nIkij", gi, jet.dg_inv, Hv)
        + np.einsum("nia,njb,nIkab->nIkij", gi, gi, dHv)
    )
    G = jet.christoffel
    return (
        np.einsum("nIkik->nIi", dH_up)
        + np.einsum("nika,nIak->nIi", G, H_up)
        + np.einsum("nkka,nIia->nIi", G, H_up)
    )


def forms_reference(pj):
    jet, dv, hv = pj.jet, pj.dv, pj.hv
    gi = jet.g_inv
    Hv = hv - np.einsum("ncab,nIc->nIab", jet.christoffel, dv)
    w_up = np.einsum("nij,nj->ni", gi, -(pj.grad_E + jet.dlog_sqrt))
    K = np.einsum("nIab,nb->nIa", Hv, w_up)
    divH = div_hessians_reference(jet, dv, hv, pj.tv)
    return {
        "A": sym_last(np.einsum("nab,nIa,nJb->nIJ", gi, dv, dv)),
        "C": sym_last(np.einsum("nac,nbd,nIab,nJcd->nIJ", gi, gi, Hv, Hv)),
        "R": sym_last(np.einsum("nab,nIa,nJb->nIJ", gi, K, K)),
        "B": sym_last(np.einsum("nij,nIi,nJj->nIJ", jet.g, divH, divH)),
    }


def jet_reference(g_inv, dg, d2g):
    T = dg + np.einsum("njil->nijl", dg) - np.einsum("nlij->nijl", dg)
    dT = d2g + np.einsum("nmjil->nmijl", d2g) - np.einsum("nmlij->nmijl", d2g)
    dg_inv = -np.einsum("nka,nmab,nbl->nmkl", g_inv, dg, g_inv)
    christoffel = 0.5 * np.einsum("nkl,nijl->nkij", g_inv, T)
    dchristoffel = 0.5 * (
        np.einsum("nmkl,nijl->nmkij", dg_inv, T)
        + np.einsum("nkl,nmijl->nmkij", g_inv, dT)
    )
    return dg_inv, christoffel, dchristoffel


def random_point_jet(r):
    """A real point jet over the random arrays, so that the fields it
    computes on first use (Hv, dlogu) come from its own properties."""
    jet = geom.MetricJet(
        g=r.g, g_inv=r.g_inv, sqrt_det=None, dg=r.dg, d2g=r.d2g,
        dg_inv=inverse_d1_reference(r.g_inv, r.dg),
        christoffel=r.gamma, dchristoffel=r.dgamma, dlog_sqrt=r.dlog_sqrt,
    )
    pj = object.__new__(asm._PointJet)
    vars(pj).update(jet=jet, dv=r.dv, hv=r.hv, tv=r.tv, grad_E=r.grad_E,
                    A=asm._gram(r.dv, r.g_inv))
    return pj


# ---------------------------------------------------------------------------
# Rewritten contractions against the references


@pytest.mark.parametrize("n,sym", CASES)
def test_inverse_derivs(n, sym):
    r = random_inputs(n, sym)
    got = asm._inverse_derivs(r.X, r.dg, r.d2g)
    for g, w in zip(got, inverse_derivs_reference(r.X, r.dg, r.d2g)):
        assert_same(g, w)


@pytest.mark.parametrize("n,sym", CASES)
def test_gram_derivs(n, sym):
    r = random_inputs(n, sym)
    got = asm._gram_derivs(random_point_jet(r))
    want = gram_derivs_reference(r.g_inv, r.dg, r.d2g, r.dv, r.hv, r.tv)
    for g, w in zip(got, want):
        assert_same(g, w)


@pytest.mark.parametrize("n,sym", CASES)
def test_div_hessians(n, sym):
    r = random_inputs(n, sym)
    pj = random_point_jet(r)
    got = asm._div_hessians(pj)
    assert_same(got, div_hessians_reference(pj.jet, r.dv, r.hv, r.tv))


@pytest.mark.parametrize("n,sym", CASES)
def test_forms(n, sym):
    r = random_inputs(n, sym)
    pj = random_point_jet(r)
    got = asm._forms(pj, ("A", "B", "C", "R"))
    for kind, want in forms_reference(pj).items():
        assert_same(got[kind], want)


@pytest.mark.parametrize("n,sym", CASES)
def test_jet_from_arrays(n, sym):
    r = random_inputs(n, sym)
    jet = geom.jet_from_arrays(r.g, r.dg, r.d2g)
    dg_inv, christoffel, dchristoffel = jet_reference(jet.g_inv, r.dg, r.d2g)
    assert_same(jet.dg_inv, dg_inv)
    assert_same(jet.christoffel, christoffel)
    assert_same(jet.dchristoffel, dchristoffel)
