"""Grid scans that certify the decay hypotheses for a concrete model.

The checks fall into three groups:

* curvature and dominance scans producing the constants
  (sigma1, sigma2, beta, gamma, omega) as extremal generalized
  eigenvalues over a momentum grid;
* the hypoellipticity gate det(g) * |det(dv)| > 0 and the far-field
  growth gate max_ij |g^{ij}| / |p|^2 -> 0;
* a sufficient criterion for the log-Sobolev constant alpha: the
  warped route run on the minorant t I <= A of the velocity Gram form,
  with t = 1 / tr(A^-1), so one formula serves every A (see
  logsob_warped).  The product-metric route on the doubled phase-space
  metric (see _product_blocks) is a standalone scan that
  check_model does not run.

All scans are pure reductions over grid points: evaluation order never
changes the result, and adding points can only widen [sigma1, sigma2]
and raise beta, gamma, omega.

The scans read the same pointwise data (metric 2-jet, velocity 3-jet,
energy 2-jet, Gram form A), built from the model's fields once per
CHUNK of points as a `_PointJet`; its jets are one request to the
model's jet builder, whose program is compiled once per model.  Each
scan keeps only per-point values, and `check_model` feeds every point
jet to all of them in one pass, so no point jet outlives its chunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import geometry as _geom
from .geometry import _t
from .errors import DegenerateA, MetricError
from .errors import ExprDomainError

__all__ = [
    "ScanGrid",
    "default_grid",
    "Witness",
    "CurvatureBounds",
    "DominanceConstants",
    "HormanderResult",
    "GrowthResult",
    "WarpedResult",
    "ProductResult",
    "AssumptionReport",
    "curvature_bounds",
    "dominance_constants",
    "hormander_check",
    "growth_check",
    "logsob_warped",
    "logsob_product",
    "check_model",
    "report_text",
    "report_kv",
]

DEFAULT_RADIUS = 10.0
DEFAULT_AXIS_POINTS = 41
DEFAULT_QUASI_POINTS = 2000
DEFAULT_SEED = 20240
# Points per batch in every scan; one point jet is built per chunk.
CHUNK = 1024
# Diagonal regularization applied only when a Cholesky factorization of
# the right-hand form fails; recorded in every result that used it.
EIG_SHIFT = 1e-12


# ---------------------------------------------------------------------------
# Scan grids


@dataclass(frozen=True)
class ScanGrid:
    """A finite set of momentum points with provenance metadata."""

    points: np.ndarray  # (n, M)
    radius: float
    seed: int | None = None
    description: str = ""

    @property
    def count(self):
        return self.points.shape[0]


def _lattice_ball(dim, radius, axis_points):
    axes = [np.linspace(-radius, radius, axis_points)] * dim
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    return pts[np.sum(pts**2, axis=1) <= radius**2]


def _halton_permutations(dim, seed):
    """Owen's digit permutations for a scrambled Halton sequence.

    One array per coordinate, whose base is the coordinate's prime: a
    row per digit that a double can resolve, each a permutation of
    range(base).  With _halton the draws are those of
    scipy.stats.qmc.Halton(dim, scramble=True, seed=seed), bit for bit.
    """
    rng = np.random.default_rng(seed)
    bases = []
    k = 2
    while len(bases) < dim:
        if all(k % b for b in bases):
            bases.append(k)
        k += 1
    perms = []
    for base in bases:
        count = math.ceil(54 / math.log2(base)) - 1
        digits = np.repeat(np.arange(base)[None], count, axis=0)
        for row in digits:
            rng.shuffle(row)
        perms.append(digits)
    return perms


def _halton(perms, start, n):
    """Points start .. start + n - 1 of the scrambled Halton sequence.

    The same digit loop as scipy's, so the rounding is the same.
    """
    out = np.empty((n, len(perms)))
    for k, digits in enumerate(perms):
        base = digits.shape[1]
        q = np.arange(start, start + n)
        col = np.zeros(n)
        b2r = 1.0 / base
        for row in digits:
            # q is nondecreasing; once its last entry is 0 every digit
            # left is 0 and each term is the same constant.
            if q[-1]:
                col += row[q % base] * b2r
                q //= base
            else:
                col += row[0] * b2r
            b2r /= base
        out[:, k] = col
    return out


def _halton_ball(dim, radius, count, seed):
    perms = _halton_permutations(dim, seed)
    kept = []
    total = drawn = 0
    while total < count:
        batch = max(4 * count, 256)
        raw = _halton(perms, drawn, batch)
        drawn += batch
        pts = (2.0 * raw - 1.0) * radius
        pts = pts[np.sum(pts**2, axis=1) <= radius**2]
        kept.append(pts)
        total += pts.shape[0]
    return np.concatenate(kept, axis=0)[:count]


def default_grid(
    dim,
    radius=DEFAULT_RADIUS,
    axis_points=DEFAULT_AXIS_POINTS,
    quasi_points=DEFAULT_QUASI_POINTS,
    seed=DEFAULT_SEED,
):
    """Lattice-in-ball plus seeded Halton points, |p| <= radius.

    The Halton stream is a prefix sequence: the same seed with a larger
    quasi_points yields a superset, which keeps refined scans monotone.
    """
    if not (np.isfinite(radius) and radius > 0.0):
        raise ValueError(f"scan radius must be finite and positive, got {radius}")
    if axis_points < 0 or quasi_points < 0:
        raise ValueError(
            f"scan point counts must be non-negative, got {axis_points} "
            f"per axis and {quasi_points} Halton"
        )
    lattice = _lattice_ball(dim, radius, axis_points)
    quasi = (
        _halton_ball(dim, radius, quasi_points, seed) if quasi_points else
        np.empty((0, dim))
    )
    pts = np.concatenate([lattice, quasi], axis=0)
    desc = (
        f"ball |p| <= {radius:g}, {axis_points} pts/axis lattice "
        f"({lattice.shape[0]} in ball) + {quasi_points} Halton (seed {seed})"
    )
    return ScanGrid(points=pts, radius=float(radius), seed=seed, description=desc)


def _grid_points(model, grid):
    if grid is None:
        grid = default_grid(model.dim)
    if isinstance(grid, ScanGrid):
        pts = grid.points
    else:
        pts, _ = _geom.as_batch(grid, model.dim)
        radius = float(np.max(np.linalg.norm(pts, axis=1), initial=0.0))
        grid = ScanGrid(points=pts, radius=radius)
    if pts.shape[1] != model.dim:
        raise ValueError(
            f"grid dimension {pts.shape[1]} != model dimension {model.dim}"
        )
    if pts.shape[0] == 0:
        raise ValueError("the scan grid has no points")
    return grid, pts


# ---------------------------------------------------------------------------
# Results


@dataclass(frozen=True)
class Witness:
    """Grid point realizing an extremal scan value."""

    point: np.ndarray
    value: float
    label: str = ""

    def __str__(self):
        coords = ",".join(f"{x:.6g}" for x in np.atleast_1d(self.point))
        return f"{self.label or 'witness'}@({coords})={self.value:.6g}"


@dataclass(frozen=True)
class CurvatureBounds:
    sigma1: float
    sigma2: float
    witnesses: dict
    # Always empty, as a failing point raises; perfbench/spans.py counts it.
    failures: tuple = ()
    shift: float = 0.0


@dataclass(frozen=True)
class DominanceConstants:
    beta: float
    gamma: float
    omega: float
    witnesses: dict
    shift: float = 0.0


@dataclass(frozen=True)
class HormanderResult:
    min_absdetF: float
    ok: bool
    witness: Witness


@dataclass(frozen=True)
class GrowthResult:
    ok: bool
    radii: tuple
    ratios: tuple


@dataclass(frozen=True)
class WarpedResult:
    kappa1: float
    kappa2: float
    alpha: float | None
    ok: bool
    witnesses: dict


@dataclass(frozen=True)
class ProductResult:
    alpha: float
    ok: bool
    witness: Witness
    shift: float = 0.0


# ---------------------------------------------------------------------------
# One pass over the chunks


class _PointJet:
    """The pointwise data of (g, v, E) that the scans read, on points P.

    jet is the metric 2-jet, d2g included; dv[n,I,a], hv[n,I,a,b] and
    tv[n,I,k,a,b] are the velocity derivatives; grad_E and hess_E the
    energy derivatives; A[n,I,J] = g^{ab} d_a v^I d_b v^J the Gram form.
    `bakry` and `degenerate` are computed on first use, once for every
    scan that reads them.
    """

    def __init__(self, model, P):
        # g at orders 0-2, each v^I at orders 1-3 and E at orders 1 and 2,
        # as one request to the model's jet builder
        n = len(model.v_fields)
        request = ((0, 0), (0, 1), (0, 2),
                   *((i, k) for k in (1, 2, 3) for i in range(1, n + 1)),
                   (n + 1, 1), (n + 1, 2))
        g, dg, d2g, *v, self.grad_E, self.hess_E = model._jets(request, P)
        self.P = P
        self.jet = _geom.jet_from_arrays(g, dg, d2g)
        self.dv, self.hv, self.tv = (
            np.stack(v[k:k + n], axis=1) for k in range(0, 3 * n, n)
        )
        self.A = _gram(self.dv, self.jet.g_inv)

    @cached_property
    def bakry(self):
        """The Bakry-Emery tensor Ric - Hess log u, (n, M, M)."""
        return _geom.bakry_emery_from_jet(self.jet, self.grad_E, self.hess_E)

    @cached_property
    def degenerate(self):
        """A DegenerateA unless every Gram form in the batch is definite."""
        amin = np.linalg.eigvalsh(self.A)[:, 0]
        k = int(np.argmin(amin))
        if amin[k] <= 0.0:
            return DegenerateA(
                "velocity Gram form is not positive definite: smallest "
                f"eigenvalue {amin[k]:.3e} at p = {self.P[k]}"
            )


_JET_ERRORS = (MetricError, ExprDomainError, FloatingPointError,
               np.linalg.LinAlgError)


def _point_jets(model, P):
    """Yield the point jet of each CHUNK of the points P, in order.

    The hypotheses must hold at every point, so a point whose point jet
    cannot be built ends the scan: a failing chunk is bisected down to
    its first failing point, whose error is raised with the point named.
    Point jets are built one at a time, as they are asked for.
    """
    for start in range(0, P.shape[0], CHUNK):
        chunk = P[start:start + CHUNK]
        try:
            pj = _PointJet(model, chunk)
        except _JET_ERRORS:
            lo, hi = 0, chunk.shape[0]
            while hi - lo > 1:
                mid = (lo + hi) // 2
                try:
                    _PointJet(model, chunk[lo:mid])
                    lo = mid
                except _JET_ERRORS:
                    hi = mid
            try:
                _PointJet(model, chunk[lo:hi])
            except _JET_ERRORS as exc:
                raise type(exc)(f"{exc} at p = {chunk[lo]}") from exc
            raise
        yield pj


def _scan(model, grid, *scans):
    """One pass that adds every point jet to each scan: (grid, P)."""
    grid, P = _grid_points(model, grid)
    for pj in _point_jets(model, P):
        for scan in scans:
            scan.add(pj)
    return grid, P


def _scan_alone(model, grid, scan):
    _, P = _scan(model, grid, scan)
    return scan.result(P)


def _extreme(P, chunks, label, largest=False):
    """Smallest (or largest) value over the per-chunk values of P's points.

    Returns (value, Witness at the grid point realizing it); a tie goes
    to the first point.
    """
    vals = np.concatenate(chunks)
    i = int(np.argmax(vals) if largest else np.argmin(vals))
    best = float(vals[i])
    return best, Witness(P[i].copy(), best, label)


def _gen_eigs(Mform, base):
    """Eigenvalues of the pencil (Mform, base), base symmetric positive.

    Returns (eigs (n, M), shift) where shift is the diagonal load that
    was needed to factor base (0.0 when none).
    """
    base = 0.5 * (base + np.swapaxes(base, 1, 2))
    shift = 0.0
    try:
        L = np.linalg.cholesky(base)
    except np.linalg.LinAlgError:
        shift = EIG_SHIFT
        eye = np.eye(base.shape[1])
        L = np.linalg.cholesky(base + shift * eye)
    X = np.linalg.solve(L, Mform)
    Z = np.swapaxes(np.linalg.solve(L, np.swapaxes(X, 1, 2)), 1, 2)
    Z = 0.5 * (Z + np.swapaxes(Z, 1, 2))
    return np.linalg.eigvalsh(Z), shift


# ---------------------------------------------------------------------------
# Velocity bilinear forms


def _covariant_hessians(jet, dv, hv):
    """Covariant Hessians of every velocity component: (n, N, M, M)."""
    return hv - np.einsum("ncab,nIc->nIab", jet.christoffel, dv)


def _div_hessians(jet, dv, hv, tv):
    """div of the raised Hessian of each velocity component: (n, N, M)."""
    n, N, M = dv.shape
    Hv = _covariant_hessians(jet, dv, hv)
    # d_k (Hess v)_ab = third - dGamma.dv - Gamma.hess, over flattened (a, b)
    dG_dv = dv[:, None] @ jet.dchristoffel.reshape(n, M, M, M * M)
    G_hv = hv.reshape(n, N * M, M) @ jet.christoffel.reshape(n, M, M * M)
    dHv = (tv - dG_dv.reshape(n, M, N, M, M).swapaxes(1, 2)
           - G_hv.reshape(tv.shape))
    # H^ij = g^ia Hv_ab g^jb, and its d_k by the product rule
    gi, dgi, Hk = jet.g_inv[:, None, None], jet.dg_inv[:, None], Hv[:, :, None]
    H_up = (gi @ Hk @ _t(gi))[:, :, 0]
    dH_up = dgi @ Hk @ _t(gi) + gi @ Hk @ _t(dgi) + gi @ dHv @ _t(gi)
    return _geom.divergence_tensor2_from_jet(jet, H_up, dH_up)


def _symmetrize(F):
    return 0.5 * (F + _t(F))


def _gram(F, X):
    """The Gram form F X F^T of the rows of F in X, symmetrized."""
    return _symmetrize(F @ X @ _t(F))


def _forms(pj, kinds):
    """The requested velocity forms from a point jet: kind -> (n, N, N)."""
    jet, dv, hv = pj.jet, pj.dv, pj.hv
    gi = jet.g_inv
    out = {}
    if "A" in kinds:
        out["A"] = pj.A
    if {"C", "R"} & set(kinds):
        Hv = _covariant_hessians(jet, dv, hv)
    if "C" in kinds:
        # Gram form of Hv^I flattened over (a, b), in g^ac g^bd
        n, N, M = dv.shape
        gg = gi[:, :, None, :, None] * gi[:, None, :, None, :]
        out["C"] = _gram(Hv.reshape(n, N, M * M), gg.reshape(n, M * M, M * M))
    if "R" in kinds:
        w_low = _geom.drift_oneform_from_jet(jet, pj.grad_E)
        w_up = np.einsum("nij,nj->ni", gi, w_low)
        K = np.einsum("nIab,nb->nIa", Hv, w_up)
        out["R"] = _gram(K, gi)
    if "B" in kinds:
        divH = _div_hessians(jet, dv, hv, pj.tv)
        out["B"] = _gram(divH, jet.g)
    return out


# ---------------------------------------------------------------------------
# Assumption scans


class _Curvature:
    """curvature_bounds, one chunk at a time."""

    def __init__(self):
        self.lows, self.highs, self.shift = [], [], 0.0

    def add(self, pj):
        eigs, sh = _gen_eigs(pj.bakry, pj.jet.g)
        self.shift = max(self.shift, sh)
        self.lows.append(eigs[:, 0])
        self.highs.append(eigs[:, -1])

    def result(self, P):
        sigma1, wmin = _extreme(P, self.lows, "sigma1")
        sigma2, wmax = _extreme(P, self.highs, "sigma2", largest=True)
        return CurvatureBounds(sigma1, sigma2, {"min": wmin, "max": wmax},
                               shift=self.shift)


def curvature_bounds(model, grid=None):
    """Extremal generalized eigenvalues of (Ric - Hess log u, g).

    Like every scan, raises at the first point where the metric or
    weight degenerates, naming the point.
    """
    return _scan_alone(model, grid, _Curvature())


class _Dominance:
    """dominance_constants, one chunk at a time, up to the first chunk
    where A is not positive definite."""

    KINDS = {"beta": "B", "gamma": "C", "omega": "R"}

    def __init__(self):
        self.tops = {name: [] for name in self.KINDS}
        self.shift, self.error = 0.0, None

    def add(self, pj):
        self.error = self.error or pj.degenerate
        if self.error is None:
            F = _forms(pj, tuple(self.KINDS.values()))
            for name, kind in self.KINDS.items():
                eigs, sh = _gen_eigs(F[kind], pj.A)
                self.shift = max(self.shift, sh)
                self.tops[name].append(eigs[:, -1])

    def result(self, P):
        if self.error is not None:
            raise self.error
        best = {name: _extreme(P, tops, name, largest=True)
                for name, tops in self.tops.items()}
        # The forms are Gram matrices, so the true constants are >= 0; tiny
        # negative scan values are rounding noise.
        return DominanceConstants(
            beta=max(best["beta"][0], 0.0),
            gamma=max(best["gamma"][0], 0.0),
            omega=max(best["omega"][0], 0.0),
            witnesses={name: wit for name, (_, wit) in best.items()},
            shift=self.shift,
        )


def dominance_constants(model, grid=None):
    """Smallest beta, gamma, omega with B <= beta A, C <= gamma A, R <= omega A.

    Each is the grid maximum of the largest generalized eigenvalue of
    the pencil (form, A).  A must be positive definite on the grid.
    """
    return _scan_alone(model, grid, _Dominance())


class _Hormander:
    """hormander_check, one chunk at a time."""

    def __init__(self):
        self.dets = []

    def add(self, pj):
        vals = np.linalg.det(pj.jet.g) * np.abs(np.linalg.det(pj.dv))
        self.dets.append(np.where(np.isfinite(vals), vals, 0.0))

    def result(self, P):
        best, wit = _extreme(P, self.dets, "detF")
        return HormanderResult(min_absdetF=best, ok=best > 0.0, witness=wit)


def hormander_check(model, grid=None):
    """min over the grid of det(g) * |det(d_a v^I)|; ok iff positive.

    A vanishing or non-finite value is the witness, with value 0.
    """
    return _scan_alone(model, grid, _Hormander())


def _sphere_directions(dim):
    dirs = list(np.eye(dim))
    for signs in np.ndindex(*(2,) * dim):
        v = np.array([1.0 if s == 0 else -1.0 for s in signs])
        dirs.append(v / math.sqrt(dim))
    # the distinct rows in lexicographic order, as np.unique(axis=0)
    # gives them, without the numpy.ma import that it costs
    return np.array(sorted(set(map(tuple, np.round(np.array(dirs), 12).tolist()))))


def growth_check(model, radii=None):
    """Check that max_ij |g^{ij}(p)| / |p|^2 decays along growing radii.

    Passes iff the ratio is non-increasing radius to radius and the last
    value is below a tenth of the first.  radii must be increasing and
    span at least one decade.
    """
    if radii is None:
        radii = np.geomspace(1.0, 100.0, 9)
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or radii.size < 2 or np.any(np.diff(radii) <= 0):
        raise ValueError("radii must be an increasing 1d sequence")
    if radii[-1] < 10.0 * radii[0]:
        raise ValueError("radii must span at least one decade")
    dirs = _sphere_directions(model.dim)
    ratios = []
    for r in radii:
        try:
            (g,) = model._jets(((0, 0),), dirs * r)
            gi = np.linalg.inv(g)
        except (ExprDomainError, FloatingPointError, np.linalg.LinAlgError):
            return GrowthResult(ok=False, radii=tuple(radii), ratios=tuple(ratios))
        val = float(np.max(np.abs(gi))) / r**2
        if not math.isfinite(val):
            return GrowthResult(ok=False, radii=tuple(radii), ratios=tuple(ratios))
        ratios.append(val)
    ratios = np.array(ratios)
    monotone = bool(np.all(np.diff(ratios) <= 1e-9 * ratios[:-1] + 1e-300))
    ok = monotone and ratios[-1] < ratios[0] / 10.0
    return GrowthResult(ok=bool(ok), radii=tuple(radii), ratios=tuple(ratios))


# ---------------------------------------------------------------------------
# Log-Sobolev criteria


def _inverse_derivs(Xi, dX, d2X):
    """First and second derivatives of X^{-1}, from X^{-1}, dX and d2X.

    dX[n, k] = d_k X and d2X[n, l, k] = d_l d_k X; the results share
    that layout.
    """
    Y = Xi[:, None] @ dX
    T = Y[:, :, None] @ Y[:, None] @ Xi[:, None, None]
    d2Xi = T + T.swapaxes(1, 2) - Xi[:, None, None] @ d2X @ Xi[:, None, None]
    return -(Y @ Xi[:, None]), d2Xi


def _gram_derivs(pj):
    """First and second p-derivatives of A^{IJ} = g^{ab} d_a v^I d_b v^J.

    A = H F^T with F = dv and H = F g^-1, so both follow from the
    product rule; axis 1 (and 2) of a derivative indexes the
    coordinate it is taken along, l (and k) in d2A[n, l, k].
    """
    gi = pj.jet.g_inv
    dgi, d2gi = _inverse_derivs(gi, pj.jet.dg, pj.jet.d2g)
    F, dF, d2F = pj.dv, pj.hv.swapaxes(1, 2), np.moveaxis(pj.tv, 1, 3)
    H = F @ gi
    dH = dF @ gi[:, None] + F[:, None] @ dgi
    dF_dG = dF[:, :, None] @ dgi[:, None]
    d2H = (d2F @ gi[:, None, None] + dF_dG + dF_dG.swapaxes(1, 2)
           + F[:, None, None] @ d2gi)
    dH_dF = dH[:, None] @ _t(dF)[:, :, None]
    dA = dH @ _t(F)[:, None] + H[:, None] @ _t(dF)
    d2A = (d2H @ _t(F)[:, None, None] + dH_dF + dH_dF.swapaxes(1, 2)
           + H[:, None, None] @ _t(d2F))
    return dA, d2A


def _logsob_values(pj):
    """Per point: kappa1's and kappa2's integrands, on the minorant t I of A.

    t = 1 / tr(A^-1) is at most the smallest eigenvalue of A, so
    phi = log t = -log tr h with h = A^-1, and its derivatives follow
    from those of h.
    """
    jet, N = pj.jet, pj.A.shape[1]
    h = _symmetrize(np.linalg.inv(pj.A))
    dh, d2h = _inverse_derivs(h, *_gram_derivs(pj))
    tr = np.einsum("nII->n", h)
    dphi = -np.einsum("nkII->nk", dh) / tr[:, None]
    d2phi = (-np.einsum("nlkII->nlk", d2h) / tr[:, None, None]
             + dphi[:, :, None] * dphi[:, None, :])
    cond1 = pj.bakry - 0.25 * N * dphi[:, :, None] * dphi[:, None, :]
    eigs, _ = _gen_eigs(cond1, jet.g)
    dlogu = _geom.drift_oneform_from_jet(jet, pj.grad_E)
    lap_phi = _geom.laplace_from_jet(jet, dphi, d2phi)
    pair = np.einsum("nij,ni,nj->n", jet.g_inv, dlogu, dphi)
    return eigs[:, 0], -0.5 * (lap_phi + pair)


def _product_blocks(pj):
    """Blocks of the product criterion's form at the points of a point jet.

    The doubled metric is G = g_ab dp^a dp^b + h_IJ dx^I dx^J with
    h = A^-1, and the form is Ric_G - Hess_G psi for the weight
    exponent psi = log u + (1/2) log det A^{IJ}.  G does not depend on
    x and its fibres are flat tori, so O'Neill's submersion formulas
    give the form in closed form, with L = log det h:

        Ric_ab = Ric^g_ab - 1/2 nabla_a d_b L - 1/4 tr(A d_a h A d_b h)
        Ric_IJ = -1/2 Lap_g h_IJ - 1/4 <dL, d h_IJ>_g
                 + 1/2 g^ab (d_a h A d_b h)_IJ
        (Hess_G psi)_ab = (Hess_g psi)_ab
        (Hess_G psi)_IJ = 1/2 <d psi, d h_IJ>_g

    and every mixed (p, x) entry is zero.  Since psi = log u - L/2, the
    L terms cancel in the difference, which leaves

        pp = Ric^g - Hess_g log u - 1/4 tr(A d_a h A d_b h)
        xx = -1/2 (Lap_g h + <d log u, dh>_g) + 1/2 g^ab d_a h A d_b h

    Returns a dict with g, h, and the (n, M, M) and (n, N, N) blocks
    pp and xx of the form.
    """
    jet = pj.jet
    n, M = pj.P.shape
    dA, d2A = _gram_derivs(pj)
    h = _symmetrize(np.linalg.inv(pj.A))
    dh, d2h = _inverse_derivs(h, dA, d2A)
    N = h.shape[1]
    # X[n, a] = d_a h A; A d_a h is its transpose, as both are symmetric
    X = dh @ pj.A[:, None]
    Xf, XTf = X.reshape(n, M, N * N), _t(X).reshape(n, M, N * N)
    # tr(A d_a h A d_b h) = sum over (I, J) of (X_a^T)_IJ (X_b)_IJ
    pp = pj.bakry - 0.25 * (XTf @ _t(Xf))

    grad_logu = _geom.gradient_from_jet(
        jet, _geom.drift_oneform_from_jet(jet, pj.grad_E))
    pair = np.einsum("na,naIJ->nIJ", grad_logu, dh)
    # g^ab d_a h A d_b h, summed over b and the inner index in one product
    Y = (jet.g_inv @ Xf).reshape(n, M, N, N)
    quad = Y.swapaxes(1, 2).reshape(n, N, M * N) @ dh.reshape(n, M * N, N)
    xx = -0.5 * (_geom.laplace_from_jet(jet, dh, d2h) + pair) + 0.5 * quad
    return {"g": jet.g, "h": h, "pp": pp, "xx": xx}


class _LogSob:
    """logsob_warped, one chunk at a time, up to the first chunk where A
    is not positive definite."""

    def __init__(self):
        self.k1, self.k2, self.error = [], [], None

    def add(self, pj):
        self.error = self.error or pj.degenerate
        if self.error is None:
            k1, k2 = _logsob_values(pj)
            self.k1.append(k1)
            self.k2.append(k2)

    def result(self, P):
        if self.error is not None:
            raise self.error
        kappa1, w1 = _extreme(P, self.k1, "kappa1")
        k2_raw, w2 = _extreme(P, self.k2, "kappa2", largest=True)
        kappa2 = max(0.0, k2_raw)
        ok = kappa1 > kappa2
        return WarpedResult(
            kappa1=kappa1,
            kappa2=kappa2,
            alpha=(kappa1 - kappa2) if ok else None,
            ok=bool(ok),
            witnesses={"kappa1": w1, "kappa2": w2},
        )


class _Product:
    """logsob_product, one chunk at a time."""

    def __init__(self):
        self.lows, self.shift, self.error = [], 0.0, None

    def add(self, pj):
        self.error = self.error or pj.degenerate
        if self.error is None:
            blocks = _product_blocks(pj)
            eig_p, sh_p = _gen_eigs(blocks["pp"], blocks["g"])
            eig_x, sh_x = _gen_eigs(blocks["xx"], blocks["h"])
            self.shift = max(self.shift, sh_p, sh_x)
            self.lows.append(np.minimum(eig_p[:, 0], eig_x[:, 0]))

    def result(self, P):
        if self.error is not None:
            raise self.error
        alpha, wit = _extreme(P, self.lows, "alpha")
        return ProductResult(alpha=alpha, ok=alpha > 0.0, witness=wit,
                             shift=self.shift)


def logsob_warped(model, grid=None):
    """Warped-route log-Sobolev criterion, for any positive Gram form A.

    The criterion Ipp + Ixx >= 2 alpha D weights the x-derivatives by
    A, so it still holds when A is lowered to t I with t <= A.  The scan
    takes t = 1 / tr(A^-1), which is at most the smallest eigenvalue of
    A, and is s / N where A = s I is conformal to the identity.  With
    phi = log t, the two scanned quantities are

        kappa1 = min gen-eig of (Ric - Hess log u - (N/4) dphi x dphi, g)
        kappa2 = max(0, max of -(Lap phi + <d log u, d phi>) / 2)

    and the criterion holds with alpha = kappa1 - kappa2 iff
    kappa1 > kappa2.  Both are grid samples on |p| <= grid radius.
    """
    return _scan_alone(model, grid, _LogSob())


def logsob_product(model, grid=None):
    """Product-route log-Sobolev criterion on the doubled metric.

    alpha is the grid minimum of the generalized eigenvalues of
    (Ric_G - Hess_G psi, G); the criterion holds iff alpha > 0.  The
    form and G are block diagonal in (p, x) (see _product_blocks),
    so the eigenvalues are those of the two pencils (pp, g) and (xx, h).
    A standalone scan: check_model uses logsob_warped's criterion only.
    """
    return _scan_alone(model, grid, _Product())


# ---------------------------------------------------------------------------
# Combined report


@dataclass
class AssumptionReport:
    """Outcome of every scan, plus the grid provenance.

    alpha is None when the log-Sobolev criterion (logsob_warped, on the
    minorant t I of A with t = 1 / tr(A^-1)) did not certify a constant;
    that is recorded as inconclusive, not as a failure, because the
    criterion is only a sufficient condition.
    """

    model_name: str
    theta: float | None
    sigma1: float
    sigma2: float
    beta: float
    gamma: float
    omega: float
    alpha: float | None
    alpha_note: str
    hormander_min: float
    grid_radius: float
    grid_points: int
    grid_seed: int | None
    grid_description: str
    passes: dict = field(default_factory=dict)
    witnesses: dict = field(default_factory=dict)
    shift: float = 0.0

    @property
    def sigma(self):
        return self.sigma2 - self.sigma1

    @property
    def required_ok(self):
        """Assumption gates that certificate generation depends on.

        The log-Sobolev entry is advisory: a missing alpha blocks the
        final rate but does not falsify the model assumptions.
        """
        keys = ("curvature", "positivity", "dominance", "hormander", "growth")
        return all(self.passes.get(k, False) for k in keys)


def check_model(model, grid=None):
    """Run every assumption scan on one model and collect the report.

    The scans share one pass over the grid.
    """
    scans = (_Curvature(), _Dominance(), _Hormander(), _LogSob())
    grid, P = _scan(model, grid, *scans)

    cb = scans[0].result(P)
    passes = {"curvature": cb.sigma1 >= 0.0}
    witnesses = {"sigma1": cb.witnesses["min"], "sigma2": cb.witnesses["max"]}
    shift = cb.shift

    try:
        dom = scans[1].result(P)
        beta, gamma, omega = dom.beta, dom.gamma, dom.omega
        passes["positivity"] = True
        passes["dominance"] = all(map(math.isfinite, (beta, gamma, omega)))
        witnesses.update(dom.witnesses)
        shift = max(shift, dom.shift)
    except DegenerateA as exc:
        beta = gamma = omega = math.nan
        passes["positivity"] = False
        passes["dominance"] = False
        witnesses["degenerate_A"] = Witness(np.array([]), math.nan, str(exc))

    hor = scans[2].result(P)
    passes["hormander"] = hor.ok
    witnesses["hormander"] = hor.witness

    passes["growth"] = growth_check(model).ok

    alpha = None
    if passes["positivity"]:
        lr = scans[3].result(P)
        if lr.ok:
            alpha = lr.alpha
            note = (f"warped criterion: kappa1 = {lr.kappa1:.6g}, "
                    f"kappa2 = {lr.kappa2:.6g}")
        else:
            note = (f"warped criterion inconclusive: kappa1 = "
                    f"{lr.kappa1:.6g} <= kappa2 = {lr.kappa2:.6g}")
        witnesses.update(lr.witnesses)
    else:
        note = "log-Sobolev criterion skipped: Gram form degenerate"
    passes["logsob"] = alpha is not None

    return AssumptionReport(
        model_name=model.name,
        theta=model.theta,
        sigma1=cb.sigma1,
        sigma2=cb.sigma2,
        beta=beta,
        gamma=gamma,
        omega=omega,
        alpha=alpha,
        alpha_note=note,
        hormander_min=hor.min_absdetF,
        grid_radius=grid.radius,
        grid_points=grid.count,
        grid_seed=grid.seed,
        grid_description=grid.description,
        passes=passes,
        witnesses=witnesses,
        shift=shift,
    )


def report_text(report):
    """Human-readable rendering of an assumption report."""
    lines = [
        f"model: {report.model_name}"
        + (f" (theta = {report.theta:g})" if report.theta is not None else ""),
        f"scan grid: {report.grid_description or report.grid_points}",
        "",
        f"curvature bounds   sigma1 = {report.sigma1:.8g}, "
        f"sigma2 = {report.sigma2:.8g}  "
        f"[{'pass' if report.passes.get('curvature') else 'FAIL'}]",
        f"dominance          beta = {report.beta:.8g}, "
        f"gamma = {report.gamma:.8g}, omega = {report.omega:.8g}  "
        f"[{'pass' if report.passes.get('dominance') else 'FAIL'}]",
        f"hypoellipticity    min det F = {report.hormander_min:.8g}  "
        f"[{'pass' if report.passes.get('hormander') else 'FAIL'}]",
        f"far-field growth   "
        f"[{'pass' if report.passes.get('growth') else 'FAIL'}]",
    ]
    if report.alpha is not None:
        lines.append(
            f"log-Sobolev        alpha = {report.alpha:.8g}; {report.alpha_note}"
        )
    else:
        lines.append(f"log-Sobolev        inconclusive; {report.alpha_note}")
    if report.shift:
        lines.append(f"note: eigenvalue shift {report.shift:g} applied")
    wit = "; ".join(str(w) for w in report.witnesses.values() if w is not None)
    if wit:
        lines.append(f"witnesses: {wit}")
    return "\n".join(lines) + "\n"


def report_kv(report):
    """Machine-readable key-value rendering (one `key = value` per line)."""
    wit = "; ".join(str(w) for w in report.witnesses.values() if w is not None)
    items = [
        ("model", report.model_name),
        ("theta", "" if report.theta is None else repr(float(report.theta))),
        ("sigma1", repr(report.sigma1)),
        ("sigma2", repr(report.sigma2)),
        ("sigma", repr(report.sigma)),
        ("beta", repr(report.beta)),
        ("gamma", repr(report.gamma)),
        ("omega", repr(report.omega)),
        ("alpha", "" if report.alpha is None else repr(report.alpha)),
        ("hormander_min", repr(report.hormander_min)),
        ("grid_radius", repr(report.grid_radius)),
        ("grid_points", str(report.grid_points)),
        ("grid_seed", "" if report.grid_seed is None else str(report.grid_seed)),
        ("shift", repr(report.shift)),
        ("required_ok", str(report.required_ok).lower()),
        ("witnesses", wit),
    ]
    for name, okflag in sorted(report.passes.items()):
        items.append((f"pass_{name}", str(bool(okflag)).lower()))
    return "\n".join(f"{k} = {v}" for k, v in items) + "\n"
