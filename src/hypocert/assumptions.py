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
chunk of points (see CHUNK) as a `_PointJet`; its jets are one
request to the model's jet builder, whose program is compiled once per
model.  A scan is a plain function of a point jet that returns its
per-point values by name.  `_EXTREMA` names each scanned constant once, with its scan
and whether it is the smallest or the largest sample, so a new
constant is one entry there and one more value from its scan.  One
`_ScanPass` runs any set of scans and `check_model` runs all of its
scans in one pass, so no point jet outlives its chunk.  Each field
derived from a point jet has one builder, and the point jet keeps
those that two readers take from it.  The tensor kernels are
`geometry`'s, one matmul per point, so a point's scan values are the
same bits in any chunk.  Each scanned constant is an extreme
eigenvalue of a symmetric-definite pencil (form, base), and each base
is reduced once per chunk to the inverse W = L^-1 of its Cholesky
factor L: g's factor, taken when its jet is assembled, for the
curvature and kappa1 pencils, and A's for the B, C and R pencils.  A
pencil's eigenvalues are then those of W F W^T, two matmuls per point,
and the forms on one base share one eigvalsh (`_pencil_eigs`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import geometry as _geom
from .geometry import _cols, _inverse_derivs, _inverse_second, _left, _right
from .geometry import _rows, _symmetrize, _t
from .errors import DegenerateA, ExprDomainError, MetricError

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
# Points per batch in every scan at M = 3, and CHUNK * 9 // M**2 at
# dimension M: 2,304 in 2D and 9,216 in 1D, so that the 2,021 points of
# the CLI's default 1D scan are one chunk.  One point jet is built per
# chunk.
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
    """The first count points of the scrambled Halton sequence, scaled
    to the cube [-radius, radius]^dim, that fall in the ball.  Each batch
    draws the points still missing over the share of the cube that the
    ball fills, so one batch mostly suffices; the points kept are a
    prefix of the sequence, whatever the batches."""
    perms = _halton_permutations(dim, seed)
    # the ball's share of the cube, V_dim / 2^dim, by V_d = 2 pi V_(d-2) / d
    share = 1.0 if dim % 2 else math.pi / 4
    for d in range(4 - dim % 2, dim + 1, 2):
        share *= math.pi / (2 * d)
    kept = []
    total = drawn = 0
    while total < count:
        batch = max(math.ceil((count - total) / share), 256)
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
    The fields that two or more readers take from one point jet, `bakry`,
    `Hv`, `dlogu` and `degenerate`, and the pencil bases reduced to
    inverse Cholesky factors, `g_inv_factor` and `A_inv_factor`, are
    computed on first use, once per point jet.
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
    def Hv(self):
        """Covariant Hessians of the velocity components, (n, N, M, M):
        read by the C and R forms, B's divergence and the solver."""
        return _geom.covariant_hessian_from_jet(self.jet, self.dv, self.hv)

    @cached_property
    def dlogu(self):
        """The drift one-form d log u, (n, M): read by the R form,
        kappa2, the product blocks and the solver."""
        return _geom.drift_oneform_from_jet(self.jet, self.grad_E)

    @cached_property
    def g_inv_factor(self):
        """L^-1 for the Cholesky factor L of g that jet_from_arrays took,
        (n, M, M): the base of every pencil on g, which so never needs
        EIG_SHIFT."""
        return _geom._tril_inverse(self.jet.g_factor)

    @cached_property
    def A_inv_factor(self):
        """(L^-1, shift) for the Cholesky factor L of A (see _factor):
        the base of the B, C and R pencils."""
        return _factor(self.A)

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
    """Yield the point jet of each chunk of the points P, in order.

    The hypotheses must hold at every point, so a point whose point jet
    cannot be built ends the scan: a failing chunk is bisected down to
    its first failing point, whose error is raised with the point named.
    Point jets are built as they are asked for and not kept once yielded.
    """
    def builds(points):
        try:
            _PointJet(model, points)
        except _JET_ERRORS:
            return False
        return True

    size = CHUNK * 9 // model.dim**2
    for start in range(0, P.shape[0], size):
        chunk = P[start:start + size]
        try:
            yield _PointJet(model, chunk)
        except _JET_ERRORS:
            k = _first_failing(chunk, builds)
            try:
                _PointJet(model, chunk[k:k + 1])
            except _JET_ERRORS as exc:
                raise type(exc)(f"{exc} at p = {chunk[k]}") from exc
            raise


def _first_failing(points, passes):
    """The index of the first of points where passes, a test of a run of
    them together, fails, given that it fails on all of them: a
    bisection, as each point passes or fails on its own."""
    lo, hi = 0, len(points)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if passes(points[lo:mid]) else (lo, mid)
    return lo


class _ScanPass:
    """One pass of the given scans over the point jets of a grid.

    A scan is a function of a point jet that returns (values by name,
    eigenvalue shift), each name one of its _EXTREMA entries.  One that
    inverts A first raises the chunk's DegenerateA: the pass latches the
    first such error, the scan skips every later chunk, and asking for
    an extremum that was not sampled on every chunk raises the error.
    """

    def __init__(self, model, grid, *scans):
        self.grid, self.P = _grid_points(model, grid)
        self.chunks = {name: [] for name, (scan, _) in _EXTREMA.items()
                       if scan in scans}
        self.shifts = dict.fromkeys(scans, 0.0)
        self.count, self.error, stopped = 0, None, set()
        for pj in _point_jets(model, self.P):
            self.count += 1
            for scan in scans:
                if scan in stopped:
                    continue
                try:
                    values, shift = scan(pj)
                except DegenerateA as exc:
                    # Kept without its traceback, which would hold this
                    # chunk's point jet alive until the pass ends.  Every
                    # scan of a chunk raises the chunk's one error, so
                    # each catch drops the traceback its raise set.
                    self.error = self.error or exc
                    exc.with_traceback(None)
                    stopped.add(scan)
                    continue
                self.shifts[scan] = max(self.shifts[scan], shift)
                for name, vals in values.items():
                    self.chunks[name].append(vals)
            del pj  # freed before the next point jet is built

    def extreme(self, name):
        """(value, Witness) of a scanned constant; a tie goes to the
        first point."""
        if len(self.chunks[name]) < self.count:
            raise self.error
        _, pick = _EXTREMA[name]
        vals = np.concatenate(self.chunks[name])
        i = int(pick(vals))
        best = float(vals[i])
        return best, Witness(self.P[i].copy(), best, name)


def _definite(pj):
    """Raise the chunk's DegenerateA unless every Gram form is definite."""
    if pj.degenerate is not None:
        raise pj.degenerate


def _factor(base):
    """L^-1 for the Cholesky factor L of a pencil base (n, S, S),
    symmetric positive, and the diagonal load that factoring it needed
    (0.0 when none)."""
    try:
        L, shift = np.linalg.cholesky(base), 0.0
    except np.linalg.LinAlgError:
        eye = np.eye(base.shape[1])
        L, shift = np.linalg.cholesky(base + EIG_SHIFT * eye), EIG_SHIFT
    return _geom._tril_inverse(L), shift


def _pencil_eigs(W, *forms):
    """The eigenvalues of each pencil (form, L L^T), an (n, S) array per
    form in the order given, from W = L^-1: those of W form W^T (Golub
    and Van Loan, Matrix Computations, 8.7).  Every form goes through
    the same two matmuls per point and one eigvalsh.
    """
    Z = _right(_left(W, np.stack(forms, axis=1)), _t(W))
    return tuple(np.moveaxis(np.linalg.eigvalsh(_symmetrize(Z)), 1, 0))


# ---------------------------------------------------------------------------
# Velocity bilinear forms


def _div_hessians(pj):
    """div of the raised Hessian of each velocity component: (n, N, M)."""
    jet, dv, hv, tv, Hv = pj.jet, pj.dv, pj.hv, pj.tv, pj.Hv
    n, N, M = dv.shape
    gi, dgi, G = jet.g_inv, jet.dg_inv, jet.christoffel
    giT = np.ascontiguousarray(_t(gi))
    # H^ij = g^ia Hv_ab g^jb, and its d_k by the product rule, [I, k, i, j]
    gHv = _rows(_left(gi, Hv))
    H_up = (gHv @ giT).reshape(Hv.shape)
    dH_up = (_right(dgi, _cols(Hv)).reshape(n, -1, M) @ giT).reshape(
        n, M, M, N, M).transpose(0, 3, 1, 2, 4)             # from [k, i, I, j]
    dH_up += (gHv @ _cols(_t(dgi))).reshape(n, N, M, M, M).swapaxes(2, 3)
    # d_k (Hess v^I)_ab = third - dGamma.dv - Gamma.hess, [I, k, a, b]
    dHv = tv - (dv @ _cols(jet.dchristoffel.reshape(n, M, M, M * M))
                ).reshape(tv.shape)
    dHv -= (_rows(hv) @ G.reshape(n, M, M * M)).reshape(tv.shape)
    dH_up += _right(_left(gi, dHv), giT)
    return _geom.divergence_tensor2_from_jet(jet, H_up, dH_up)


def _gram(F, X):
    """The Gram form F X F^T of the rows of F in X, symmetrized."""
    return _symmetrize(_right(F @ X, _t(F)))


def _forms(pj, kinds):
    """The requested velocity forms from a point jet: kind -> (n, N, N)."""
    jet = pj.jet
    gi = jet.g_inv
    out = {}
    if "A" in kinds:
        out["A"] = pj.A
    if "C" in kinds:
        # Gram form of Hv^I flattened over (a, b), in g^ac g^bd
        n, N, M = pj.dv.shape
        gg = gi[:, :, None, :, None] * gi[:, None, :, None, :]
        out["C"] = _gram(pj.Hv.reshape(n, N, M * M), gg.reshape(n, M * M, M * M))
    if "R" in kinds:
        w_up = _geom.gradient_from_jet(jet, pj.dlogu)
        K = np.einsum("nIab,nb->nIa", pj.Hv, w_up)
        out["R"] = _gram(K, gi)
    if "B" in kinds:
        out["B"] = _gram(_div_hessians(pj), jet.g)
    return out


# ---------------------------------------------------------------------------
# Assumption scans


def _curvature(pj):
    """Per point: the extremal generalized eigenvalues of (Ric - Hess log u,
    g), on the point jet's inverse factor of g."""
    (eigs,) = _pencil_eigs(pj.g_inv_factor, pj.bakry)
    return {"sigma1": eigs[:, 0], "sigma2": eigs[:, -1]}, 0.0


def _dominance(pj):
    """Per point: the largest generalized eigenvalue of (form, A) for each
    of the forms B, C and R, which give beta, gamma and omega."""
    _definite(pj)
    F = _forms(pj, ("B", "C", "R"))
    W, shift = pj.A_inv_factor
    pencils = _pencil_eigs(W, F["B"], F["C"], F["R"])
    tops = zip(("beta", "gamma", "omega"), pencils)
    return {name: eigs[:, -1] for name, eigs in tops}, shift


def _hormander(pj):
    """Per point: det(g) * |det(dv)|, with 0 where it is not finite; det g
    is the square of the product of its Cholesky factor's diagonal."""
    vals = pj.jet.sqrt_det**2 * np.abs(np.linalg.det(pj.dv))
    return {"detF": np.where(np.isfinite(vals), vals, 0.0)}, 0.0


def _sphere_directions(dim):
    dirs = list(np.eye(dim))
    for signs in np.ndindex(*(2,) * dim):
        v = np.array([1.0 if s == 0 else -1.0 for s in signs])
        dirs.append(v / math.sqrt(dim))
    # the distinct rows in lexicographic order, as np.unique(axis=0)
    # gives them, without the numpy.ma import that it costs
    return np.array(sorted(set(map(tuple, np.round(np.array(dirs), 12).tolist()))))


def _growth_ratios(model, dirs, radii):
    """max_ij |g^{ij}| / r^2 on the directions dirs scaled to each of the
    radii: one jet request and one inv.  Raises where g cannot be
    evaluated or inverted; a ratio that is not finite is returned."""
    P = (radii[:, None, None] * dirs).reshape(-1, dirs.shape[1])
    (g,) = model._jets(((0, 0),), P)
    gi = np.abs(np.linalg.inv(g)).reshape(radii.size, -1)
    return np.max(gi, axis=1) / radii**2


def growth_check(model, radii=None):
    """Check that max_ij |g^{ij}(p)| / |p|^2 decays along growing radii.

    Passes iff the ratio is non-increasing radius to radius and the last
    value is below a tenth of the first.  radii must be increasing and
    span at least one decade.  A radius where g cannot be evaluated or
    inverted, or where the ratio is not finite, fails the check; the
    result then holds the ratios of the radii below it.
    """
    if radii is None:
        radii = np.geomspace(1.0, 100.0, 9)
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or radii.size < 2 or np.any(np.diff(radii) <= 0):
        raise ValueError("radii must be an increasing 1d sequence")
    if radii[-1] < 10.0 * radii[0]:
        raise ValueError("radii must span at least one decade")
    dirs = _sphere_directions(model.dim)

    def ratios_or_none(radii):
        try:
            ratios = _growth_ratios(model, dirs, radii)
        except (ExprDomainError, FloatingPointError, np.linalg.LinAlgError):
            return None
        return ratios if np.all(np.isfinite(ratios)) else None

    ratios = ratios_or_none(radii)
    if ratios is None:
        # per radius, so the ratios below the first failure read the same
        k = _first_failing(radii, lambda r: ratios_or_none(r) is not None)
        return GrowthResult(ok=False, radii=tuple(radii),
                            ratios=tuple(ratios_or_none(radii[:k]) if k else ()))
    monotone = bool(np.all(np.diff(ratios) <= 1e-9 * ratios[:-1] + 1e-300))
    ok = monotone and ratios[-1] < ratios[0] / 10.0
    return GrowthResult(ok=bool(ok), radii=tuple(radii), ratios=tuple(ratios))


# ---------------------------------------------------------------------------
# Log-Sobolev criteria


def _gram_derivs(pj):
    """First and second p-derivatives of A^{IJ} = g^{ab} d_a v^I d_b v^J.

    A = H F^T with F = dv and H = F g^-1, so both follow from the
    product rule; axis 1 (and 2) of a derivative indexes the
    coordinate it is taken along, l (and k) in d2A[n, l, k].  d_k F is
    hv[:, :, k] and d_l d_k F is tv[:, :, l, k], so a product with
    them on the left takes hv's and tv's rows as they lie.
    """
    jet, F, hv, tv = pj.jet, pj.dv, pj.hv, pj.tv
    gi, dgi = jet.g_inv, jet.dg_inv
    d2gi = _inverse_second(gi, _rows(_left(gi, jet.dg)), jet.d2g)
    n, N, M = F.shape
    H = F @ gi
    dH = _right(hv.swapaxes(1, 2), gi)                      # [k, I, b]
    dH += _left(F, dgi)
    d2H = _right(np.moveaxis(tv, 1, 3), gi)                 # [l, k, I, b]
    # dF_l dg^-1_k, [I, l, k, b]
    dF_dG = (_rows(hv) @ _cols(dgi)).reshape(n, N, M, M, M)
    d2H += np.moveaxis(dF_dG, 1, 3)
    d2H += np.moveaxis(dF_dG, 1, 3).swapaxes(1, 2)
    d2H += _left(F, d2gi)
    # dH_k dF_l^T, [k, I, l, J]
    dH_dF = (_rows(dH) @ _cols(hv.transpose(0, 2, 3, 1))).reshape(n, M, N, M, N)
    dA = _right(dH, _t(F))
    dA += _right(hv, _t(H)).transpose(0, 2, 3, 1)
    d2A = _right(d2H, _t(F))
    d2A += dH_dF.transpose(0, 3, 1, 2, 4)
    d2A += dH_dF.transpose(0, 1, 3, 2, 4)
    d2A += _right(tv, _t(H)).transpose(0, 2, 3, 4, 1)
    return dA, d2A


def _inverse_gram(pj):
    """h = A^-1 and its first and second p-derivatives, from the Gram
    form's (see _gram_derivs)."""
    h = _symmetrize(np.linalg.inv(pj.A))
    return (h, *_inverse_derivs(h, *_gram_derivs(pj)))


def _logsob(pj):
    """Per point: kappa1's and kappa2's integrands, on the minorant t I of A.

    t = 1 / tr(A^-1) is at most the smallest eigenvalue of A, so
    phi = log t = -log tr h with h = A^-1, and its derivatives follow
    from those of h.
    """
    _definite(pj)
    jet, N = pj.jet, pj.A.shape[1]
    h, dh, d2h = _inverse_gram(pj)
    tr = np.einsum("nII->n", h)
    dphi = -np.einsum("nkII->nk", dh) / tr[:, None]
    d2phi = (-np.einsum("nlkII->nlk", d2h) / tr[:, None, None]
             + dphi[:, :, None] * dphi[:, None, :])
    cond1 = pj.bakry - 0.25 * N * dphi[:, :, None] * dphi[:, None, :]
    (eigs,) = _pencil_eigs(pj.g_inv_factor, cond1)
    lap_phi = _geom.laplace_from_jet(jet, dphi, d2phi)
    pair = np.einsum("nij,ni,nj->n", jet.g_inv, pj.dlogu, dphi)
    return {"kappa1": eigs[:, 0], "kappa2": -0.5 * (lap_phi + pair)}, 0.0


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
    h, dh, d2h = _inverse_gram(pj)
    N = h.shape[1]
    # X[n, a] = d_a h A; A d_a h is its transpose, as both are symmetric
    X = dh @ pj.A[:, None]
    Xf, XTf = X.reshape(n, M, N * N), _t(X).reshape(n, M, N * N)
    # tr(A d_a h A d_b h) = sum over (I, J) of (X_a^T)_IJ (X_b)_IJ
    pp = pj.bakry - 0.25 * (XTf @ _t(Xf))

    grad_logu = _geom.gradient_from_jet(jet, pj.dlogu)
    pair = np.einsum("na,naIJ->nIJ", grad_logu, dh)
    # g^ab d_a h A d_b h, summed over b and the inner index in one product
    Y = (jet.g_inv @ Xf).reshape(n, M, N, N)
    quad = Y.swapaxes(1, 2).reshape(n, N, M * N) @ dh.reshape(n, M * N, N)
    xx = -0.5 * (_geom.laplace_from_jet(jet, dh, d2h) + pair) + 0.5 * quad
    return {"g": jet.g, "h": h, "pp": pp, "xx": xx}


def _product(pj):
    """Per point: the smallest eigenvalue of the product criterion's form."""
    _definite(pj)
    blocks = _product_blocks(pj)
    (eig_p,) = _pencil_eigs(pj.g_inv_factor, blocks["pp"])
    W, shift = _factor(blocks["h"])
    (eig_x,) = _pencil_eigs(W, blocks["xx"])
    return {"alpha": np.minimum(eig_p[:, 0], eig_x[:, 0])}, shift


# ---------------------------------------------------------------------------
# Scanned extrema

# Every scanned constant: the scan whose per-point values sample it, and
# whether it is their smallest (argmin) or largest (argmax) sample.
_EXTREMA = {
    "sigma1": (_curvature, np.argmin),
    "sigma2": (_curvature, np.argmax),
    "beta": (_dominance, np.argmax),
    "gamma": (_dominance, np.argmax),
    "omega": (_dominance, np.argmax),
    "detF": (_hormander, np.argmin),
    "kappa1": (_logsob, np.argmin),
    "kappa2": (_logsob, np.argmax),
    "alpha": (_product, np.argmin),
}


def _curvature_result(sp):
    (sigma1, wmin), (sigma2, wmax) = map(sp.extreme, ("sigma1", "sigma2"))
    return CurvatureBounds(sigma1, sigma2, {"min": wmin, "max": wmax},
                           shift=sp.shifts[_curvature])


def _dominance_result(sp):
    best = {name: sp.extreme(name) for name in ("beta", "gamma", "omega")}
    # The forms are Gram matrices, so the true constants are >= 0; tiny
    # negative scan values are rounding noise.
    beta, gamma, omega = (max(value, 0.0) for value, _ in best.values())
    return DominanceConstants(
        beta, gamma, omega,
        witnesses={name: wit for name, (_, wit) in best.items()},
        shift=sp.shifts[_dominance],
    )


def _hormander_result(sp):
    best, wit = sp.extreme("detF")
    return HormanderResult(min_absdetF=best, ok=best > 0.0, witness=wit)


def _logsob_result(sp):
    (kappa1, w1), (k2_raw, w2) = map(sp.extreme, ("kappa1", "kappa2"))
    kappa2 = max(0.0, k2_raw)
    ok = kappa1 > kappa2
    return WarpedResult(kappa1, kappa2, (kappa1 - kappa2) if ok else None,
                        bool(ok), {"kappa1": w1, "kappa2": w2})


def _product_result(sp):
    alpha, wit = sp.extreme("alpha")
    return ProductResult(alpha=alpha, ok=alpha > 0.0, witness=wit,
                         shift=sp.shifts[_product])


def curvature_bounds(model, grid=None):
    """Extremal generalized eigenvalues of (Ric - Hess log u, g).

    Like every scan, raises at the first point where the metric or
    weight degenerates, naming the point.
    """
    return _curvature_result(_ScanPass(model, grid, _curvature))


def dominance_constants(model, grid=None):
    """Smallest beta, gamma, omega with B <= beta A, C <= gamma A, R <= omega A.

    Each is the grid maximum of the largest generalized eigenvalue of
    the pencil (form, A).  A must be positive definite on the grid.
    """
    return _dominance_result(_ScanPass(model, grid, _dominance))


def hormander_check(model, grid=None):
    """min over the grid of det(g) * |det(d_a v^I)|; ok iff positive.

    A vanishing or non-finite value is the witness, with value 0.
    """
    return _hormander_result(_ScanPass(model, grid, _hormander))


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
    return _logsob_result(_ScanPass(model, grid, _logsob))


def logsob_product(model, grid=None):
    """Product-route log-Sobolev criterion on the doubled metric.

    alpha is the grid minimum of the generalized eigenvalues of
    (Ric_G - Hess_G psi, G); the criterion holds iff alpha > 0.  The
    form and G are block diagonal in (p, x) (see _product_blocks),
    so the eigenvalues are those of the two pencils (pp, g) and (xx, h).
    A standalone scan: check_model uses logsob_warped's criterion only.
    """
    return _product_result(_ScanPass(model, grid, _product))


# ---------------------------------------------------------------------------
# Combined report

# The gates that certificate generation needs, in name order; see
# AssumptionReport.required_ok.
_REQUIRED_GATES = ("curvature", "dominance", "growth", "hormander", "positivity")


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
    def witness_summary(self):
        """Every witness, as one `; `-separated line."""
        return "; ".join(str(w) for w in self.witnesses.values())

    @property
    def required_ok(self):
        """Assumption gates that certificate generation depends on.

        The log-Sobolev entry is advisory: a missing alpha blocks the
        final rate but does not falsify the model assumptions.
        """
        return all(self.passes.get(k, False) for k in _REQUIRED_GATES)


def check_model(model, grid=None):
    """Run every assumption scan on one model and collect the report.

    The scans share one pass over the grid.
    """
    sp = _ScanPass(model, grid, _curvature, _dominance, _hormander, _logsob)
    cb = _curvature_result(sp)
    passes = {"curvature": cb.sigma1 >= 0.0}
    witnesses = {"sigma1": cb.witnesses["min"], "sigma2": cb.witnesses["max"]}
    shift = cb.shift

    try:
        dom = _dominance_result(sp)
        beta, gamma, omega = dom.beta, dom.gamma, dom.omega
        passes["positivity"] = True
        passes["dominance"] = all(map(math.isfinite, (beta, gamma, omega)))
        witnesses.update(dom.witnesses)
        shift = max(shift, dom.shift)
    except DegenerateA as exc:
        beta = gamma = omega = math.nan
        passes["positivity"] = passes["dominance"] = False
        witnesses["degenerate_A"] = Witness(np.array([]), math.nan, str(exc))

    hor = _hormander_result(sp)
    passes["hormander"] = hor.ok
    witnesses["hormander"] = hor.witness

    passes["growth"] = growth_check(model).ok

    alpha = None
    if passes["positivity"]:
        lr = _logsob_result(sp)
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
        grid_radius=sp.grid.radius,
        grid_points=sp.grid.count,
        grid_seed=sp.grid.seed,
        grid_description=sp.grid.description,
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
    if report.witness_summary:
        lines.append(f"witnesses: {report.witness_summary}")
    return "\n".join(lines) + "\n"


def report_kv(report):
    """Machine-readable key-value rendering (one `key = value` per line)."""
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
        ("witnesses", report.witness_summary),
    ]
    for name, okflag in sorted(report.passes.items()):
        items.append((f"pass_{name}", str(bool(okflag)).lower()))
    return "\n".join(f"{k} = {v}" for k, v in items) + "\n"
