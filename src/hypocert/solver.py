"""Conservative solver for the kinetic equation on the 1D torus x 1D momentum slab.

Discretizes dh/dt + v(p) dh/dx = Lh, where L is the weighted momentum
Laplacian Delta_p + g(d_p log u, d_p .), on [0,1) x [-P,P] with periodic
x and zero-flux momentum boundaries.  The momentum measure mu carries
the equilibrium weight u sqrt(det g), so constants are equilibria and L
is self-adjoint in the discrete mu inner product by construction.

Time stepping is Strang splitting: half-step upwind transport in x,
implicit diffusion in p, half-step transport.  Transport is in flux
form, h_i -= F_{i+1/2} - F_{i-1/2} with the face flux taken from the
upwind side (first order, or MUSCL with a minmod limiter), so it is
conservative to round-off.  Each half step moves by the Courant number
nu = v dt / (2 dx), and is positive and total-variation diminishing for
|nu| <= 1 (upwind) or |nu| <= 1/2 (MUSCL), so dt <= 2 dx / max|v| or
dt <= dx / max|v|.  The implicit solve is an M-matrix system, so
positivity survives any dt.  Its tridiagonal matrix is factored once
per dt as a block LU in numpy: the momentum nodes are cut into blocks
of at most _BLOCK_WIDTH, each block's Schur complement is inverted
once, and a solve is one matmul per block plus one matmul that couples
the blocks through their edge values.  A step works in arrays
allocated once per (model, grid, dt, order2) and reused: `run` advances
the density in place, and `step` allocates only the density it returns.

Every array pass of a step and of a sample writes to a work array whose
data starts on a 64-byte cache line (`_aligned`).  numpy aligns its
arrays only to 16 bytes, and its add, subtract and multiply ran 2-2.8x
slower when the output did not start on a line: 8.4 us against 17-23 us
for 32,768 doubles (numpy 2.4, AVX-512 Xeon vCPU).  With Np a multiple
of 8 each row view of such an array (the density inside the ghost rows,
the faces past the first) starts on a line too.

Arithmetic runs over whole contiguous arrays, and a subset of columns
is selected only by copying.  A ufunc on a strided block of columns
goes through numpy's buffered iterator: at 128 x 256, an add over 128
of the 256 columns took 24.8 us, an add over the whole grid 9.1 us, and
a copy of those 128 columns 5.3 us (same host).  So transport forms
every cell's face value over the full grid, with the upwind side folded
into a signed half slope, and copies each run of columns to its faces.

Alongside the dynamics the module tracks the entropy functionals
(D, Ipp, Ixp, Ixx, the modified entropy, mass, L1 distance), fits
empirical decay rates, and evaluates both sides of the entropy
production identities term by term for verification.
"""

from dataclasses import dataclass, field, fields
import math
import re

import numpy as np

from . import geometry
from .assumptions import _div_hessians, _PointJet
from .errors import (
    CFLViolation,
    InsufficientData,
    LinearSolveFailure,
    NonpositiveValues,
    NonpositiveWeight,
)
# Not called here; perfbench/spans.py wraps solver.log_weight_field by name.
from .models import log_weight_field  # noqa: F401

__all__ = [
    "CSV_HEADER",
    "DiffusionOperator",
    "FunctionalSeries",
    "PhaseGrid",
    "State",
    "build_grid",
    "diffusion_matrix",
    "entropy_production_diagnostics",
    "fit_rate",
    "functionals",
    "initial_state",
    "run",
    "sample_count",
    "series_from_csv",
    "series_to_csv",
    "step",
    "sub_steps",
]

# Floor for log h in functional evaluation only, as a fraction of the
# mean density; the dynamics never see it.
H_FLOOR_FRAC = 1e-14

# A run checks each sample against Emod(0) exp(-lambda t) with the
# exponent relaxed by this fraction.
DECAY_ALLOWANCE = 0.1


# ---------------------------------------------------------------------------
# Grid and state


@dataclass(frozen=True)
class PhaseGrid:
    """Tensor grid: Nx periodic cells in x, Np momentum nodes on [-P, P].

    mu_weights holds the discrete momentum measure per node (weight
    u sqrt(det g) times the trapezoid cell length, normalized to total
    one).  tail_mass estimates the equilibrium mass beyond |p| = P that
    the truncation discards.
    """

    Nx: int
    Np: int
    P: float
    dx: float
    dp: float
    mu_weights: np.ndarray
    x_nodes: np.ndarray
    p_nodes: np.ndarray
    tail_mass: float
    # not an init field, so dataclasses.replace starts a fresh cache
    _cache: dict = field(default_factory=dict, init=False, compare=False,
                         repr=False)


@dataclass
class State:
    """Density ratio h on the (Nx, Np) grid at time t."""

    h: np.ndarray
    t: float


@dataclass
class FunctionalSeries:
    """Aligned time series of the entropy functionals along one run."""

    times: np.ndarray
    D: np.ndarray
    Ipp: np.ndarray
    Ixp: np.ndarray
    Ixx: np.ndarray
    Emod: np.ndarray
    mass: np.ndarray
    l1_dist: np.ndarray
    decay_violations: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.times)

    def __getitem__(self, index):
        """The samples at index, a slice, as a series of their own."""
        return FunctionalSeries(
            **{name: getattr(self, name)[index] for _, name in _SAMPLED}
        )


# The sampled fields in order, each with its series.csv column and
# functionals() key: the field's name, but t for times.
_SAMPLED = tuple(
    ("t" if f.name == "times" else f.name, f.name)
    for f in fields(FunctionalSeries) if f.type is np.ndarray
)
CSV_HEADER = ",".join(column for column, _ in _SAMPLED)


def _aligned(shape):
    """An uninitialized float array of the given shape whose data starts
    on a 64-byte line."""
    n = math.prod(shape)
    buf = np.empty(n + 8)
    start = -buf.ctypes.data % 64 // 8
    return buf[start:start + n].reshape(shape)


def _weight_profile(model, p):
    """u * sqrt(det g) at the 1D momentum points p, shape (k,), and the
    first-order metric jet it was computed from."""
    pts = np.asarray(p, dtype=float)[:, None]
    logu, jet = geometry.log_weight_values(model, pts)
    with np.errstate(over="ignore", under="ignore"):
        w = np.exp(logu) * jet.sqrt_det
    return w, jet


def _require_1d(model):
    if model.dim != 1:
        raise ValueError(
            f"solver handles one momentum dimension, model has {model.dim}"
        )


def build_grid(model, Nx, Np, P):
    """Phase-space grid with the discrete equilibrium measure attached."""
    _require_1d(model)
    if Nx < 8 or Np < 8:
        raise ValueError("need at least 8 cells per direction")
    if not 0.0 < P < math.inf:
        raise ValueError(f"momentum truncation radius P must be positive and finite: {P}")
    Nx, Np = int(Nx), int(Np)
    dx = 1.0 / Nx
    x_nodes = dx * np.arange(Nx)
    p_nodes = np.linspace(-P, P, Np)
    dp = p_nodes[1] - p_nodes[0]

    w, _ = _weight_profile(model, p_nodes)
    if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
        raise NonpositiveWeight(
            "equilibrium weight u sqrt(det g) must be positive on the grid"
        )
    trap = np.full(Np, dp)
    trap[0] = trap[-1] = 0.5 * dp
    raw = w * trap
    mu = raw / raw.sum()
    mu /= mu.sum()

    # Tail estimate: same integrand and spacing on the doubled slab.
    p_ext = np.linspace(-2.0 * P, 2.0 * P, 2 * Np - 1)
    with np.errstate(over="ignore", under="ignore"):
        w_ext, _ = _weight_profile(model, p_ext)
    trap_ext = np.full(p_ext.size, dp)
    trap_ext[0] = trap_ext[-1] = 0.5 * dp
    ext = float(np.sum(np.where(np.isfinite(w_ext), w_ext, 0.0) * trap_ext))
    tail = max(0.0, (ext - raw.sum()) / ext) if ext > 0.0 else 0.0

    return PhaseGrid(
        Nx=Nx,
        Np=Np,
        P=float(P),
        dx=dx,
        dp=float(dp),
        mu_weights=mu,
        x_nodes=x_nodes,
        p_nodes=p_nodes,
        tail_mass=tail,
    )


# ---------------------------------------------------------------------------
# Node geometry (cached per model and grid)


@dataclass
class _NodeGeometry:
    """Per-momentum-node scalars of the 1D model used by the solver."""

    gpp: np.ndarray
    Gamma: np.ndarray
    w_cov: np.ndarray
    ric_t: np.ndarray
    v: np.ndarray
    dv: np.ndarray
    H_v: np.ndarray
    divH: np.ndarray
    vmax: float


def _node_geometry(model, grid):
    # Keyed on the model itself, which the cache then keeps alive: an
    # id() could be reused by a later model.
    key = ("geom", model)
    geo = grid._cache.get(key)
    if geo is not None:
        return geo
    # v itself joins the point jet's one request
    pj = _PointJet(model, grid.p_nodes[:, None], (1, 0))
    (v,) = pj.extra
    # The general M-dimensional fields at M = 1.  Ric vanishes on a
    # 1-manifold, so the Bakry-Emery tensor is just minus the covariant
    # Hessian of log u.
    geo = _NodeGeometry(
        gpp=pj.jet.g_inv[:, 0, 0], Gamma=pj.jet.christoffel[:, 0, 0, 0],
        w_cov=pj.dlogu[:, 0], ric_t=pj.bakry[:, 0, 0], v=v, dv=pj.dv[:, 0, 0],
        H_v=pj.Hv[:, 0, 0, 0], divH=_div_hessians(pj)[:, 0, 0],
        vmax=float(np.max(np.abs(v))))
    grid._cache[key] = geo
    return geo


# ---------------------------------------------------------------------------
# Diffusion operator


# Widest diagonal block of the diffusion solve's block LU.  A solve
# costs one (rows x b) by (b x b) matmul per block of b nodes plus one
# (rows x 2K) by (2K x Np) matmul over K blocks, so narrow blocks trade
# the first for the second.  32 was the fastest of the widths 16-128
# at both 64 x 128 and 128 x 256: 21 and 69 us a solve, against 24 and
# 83 us at 64 and about 50 and 170 us at 128 (one OpenBLAS 0.3.31
# thread, 2.1 GHz Xeon vCPU).
_BLOCK_WIDTH = 32


class _BlockLU:
    """(I - dt L)^-1 at one dt, as a block LU of the tridiagonal system.

    I - dt L is W^-1 A, where A = W - dt W L is symmetric tridiagonal
    and, for dt > 0, a strictly diagonally dominant M-matrix.  The nodes
    are cut into K blocks of at most _BLOCK_WIDTH (Golub and Van Loan,
    Matrix Computations, 4.5).  Block k's Schur complement S_k is block
    k of A with its first diagonal entry replaced by A's L D L^T pivot
    there, and is inverted once, here; as a diagonally dominant
    symmetric matrix it needs no row swaps, so its inverse G_k comes out
    entrywise nonnegative, as it is exactly.

    A solve takes z_k = G_k W_k h_k, one matmul per block.  The solution
    is x_k = z_k + alpha_k G_k e_first + beta_k G_k e_last, where alpha
    runs forward over the blocks from the last entry of each z_k and
    beta backward from the first: two recurrences of length K.  Both
    are linear in those 2K edge values, so they run here once on unit
    edge values, and a solve applies them together with every block's
    rank-2 correction as one matmul of its edge values.  With a single
    block the solve is z, the dense inverse applied to h.
    """

    def __init__(self, op, dt):
        self.dt = dt
        w = op.weight
        n = w.size
        a = w - dt * op.diag
        c = dt * op.off  # A[i, i + 1] = A[i + 1, i] = -c[i]
        # A's L D L^T pivots, as LAPACK's dpttrf takes them: all positive
        # exactly when A is positive definite.
        pivots = []
        for i, (ai, ci) in enumerate(zip(a.tolist(), [0.0, *c.tolist()])):
            p = ai - ci * ci / pivots[-1] if i else ai
            if not p > 0.0:
                raise LinearSolveFailure(
                    "implicit diffusion matrix W - dt W L is not positive "
                    f"definite at dt = {dt:.6g}: pivot {i + 1} of {n} is {p:.3g}"
                )
            pivots.append(p)

        K = -(-n // _BLOCK_WIDTH)
        cuts = [k * n // K for k in range(K + 1)]
        self.blocks = []
        # cols[k, s:e] is G_k e_first, cols[K + k, s:e] is G_k e_last
        cols = np.zeros((2 * K, n))
        g_first, g_corner = [], []
        for k, (s, e) in enumerate(zip(cuts, cuts[1:])):
            S = np.diag(a[s:e]) - np.diag(c[s:e - 1], 1) - np.diag(c[s:e - 1], -1)
            S[0, 0] = pivots[s]
            G = np.linalg.inv(S)
            # h @ (W_k G_k) = (G_k W_k h^T)^T, as G_k is symmetric
            self.blocks.append((slice(s, e), w[s:e, None] * G))
            cols[k, s:e] = G[:, 0]
            cols[K + k, s:e] = G[:, -1]
            g_first.append(G[0, 0])
            g_corner.append(G[0, -1])
        # edges[k] is the last node of block k, edges[K + k] the first,
        # and -link[k] is the entry of A that couples blocks k - 1 and k.
        self.edges = np.array([*(e - 1 for e in cuts[1:]), *cuts[:-1]])
        link = [0.0, *(c[s - 1] for s in cuts[1:-1])]

        # Row j of alpha and beta is their value for the unit edge value
        # j: alpha_k = link_k (S_{k-1}^-1 y_{k-1})_last, where y is the
        # right-hand side after the forward sweep, and
        # beta_k = link_{k+1} (x_{k+1})_first.
        edge = np.eye(2 * K)
        alpha, beta = np.zeros((2 * K, K)), np.zeros((2 * K, K))
        for k in range(1, K):
            alpha[:, k] = link[k] * (edge[:, k - 1] + g_corner[k - 1] * alpha[:, k - 1])
        for k in range(K - 2, -1, -1):
            beta[:, k] = link[k + 1] * (edge[:, K + k + 1]
                                        + g_first[k + 1] * alpha[:, k + 1]
                                        + g_corner[k + 1] * beta[:, k + 1])
        self.correction = np.hstack([alpha, beta]) @ cols
        self._z = self._edge = None

    def solve(self, h, out):
        """x for the rows of h, shape (rows, n), into out of that shape;
        out may be h."""
        z, e = self._z, self._edge
        if z is None or z.shape != h.shape:
            z = self._z = _aligned(h.shape)
            e = self._edge = _aligned((h.shape[0], self.edges.size))
        for cols, WG in self.blocks:
            np.matmul(h[:, cols], WG, out=z[:, cols])
        # The edges are in range, so "clip" clips nothing; the default
        # "raise" buffers out.
        np.take(z, self.edges, axis=1, out=e, mode="clip")
        np.matmul(e, self.correction, out=out)
        out += z
        return out


@dataclass
class DiffusionOperator:
    """Tridiagonal momentum diffusion in mu-symmetric divergence form.

    Row i of the generator is (flux_i - flux_{i-1}) / weight_i with
    flux_i = off_i (h_{i+1} - h_i) and zero flux past both end nodes,
    so constants are exact fixed points and the bilinear form
    <f, L h>_mu is symmetric to round-off.
    """

    off: np.ndarray
    diag: np.ndarray
    weight: np.ndarray
    _lu: _BlockLU = field(default=None, compare=False, repr=False)

    def apply(self, h):
        """L h for h with momentum on the last axis."""
        flux = self.off * (h[..., 1:] - h[..., :-1])
        out = np.zeros_like(h, dtype=float)
        out[..., :-1] += flux
        out[..., 1:] -= flux
        return out / self.weight

    def solve(self, h, dt, out=None):
        """One backward-Euler step (I - dt L)^-1 h, columns batched.

        The result goes to out, a C-contiguous float array of h's shape
        that may be h itself, or to a new array when out is None.  The
        operator keeps the block LU (`_BlockLU`) of its latest dt, and
        reuses it while dt stays the same; a new dt replaces it.  Raises
        LinearSolveFailure when W - dt W L is not positive definite.
        The solve keeps work arrays on the operator, so it is not
        reentrant.
        """
        dt = float(dt)
        lu = self._lu
        if lu is None or lu.dt != dt:
            lu = self._lu = _BlockLU(self, dt)
        if out is None:
            out = np.empty(np.shape(h))
        elif not out.flags.c_contiguous:
            raise ValueError("out must be C-contiguous")
        n = self.weight.size
        lu.solve(np.asarray(h, dtype=float).reshape(-1, n), out.reshape(-1, n))
        return out


def diffusion_matrix(model, grid):
    """Build the discrete momentum generator matched to grid.mu_weights."""
    _require_1d(model)
    p = grid.p_nodes
    half = 0.5 * (p[:-1] + p[1:])
    w_half, jet = _weight_profile(model, half)
    gpp_half = jet.g_inv[:, 0, 0]

    # Scale the half-node conductances by the same normalization that
    # produced mu_weights, so generator and measure agree exactly.
    trap = np.full(grid.Np, grid.dp)
    trap[0] = trap[-1] = 0.5 * grid.dp
    norm = 1.0 / float(np.sum(_weight_profile(model, p)[0] * trap))

    off = norm * w_half * gpp_half / grid.dp
    diag = np.zeros(grid.Np)
    diag[:-1] -= off
    diag[1:] -= off
    return DiffusionOperator(off=off, diag=diag, weight=grid.mu_weights.copy())


def _op(model, grid):
    key = ("diffusion", model)
    op = grid._cache.get(key)
    if op is None:
        op = diffusion_matrix(model, grid)
        grid._cache[key] = op
    return op


# ---------------------------------------------------------------------------
# Time stepping


class _Strang:
    """Work arrays and column data of one Strang step on one grid.

    Built for one (model, grid, dt, order2); every step with those
    reuses the arrays.  A step advances h, a view of them, in place, so
    `run` allocates nothing per step and `step` only the density it
    returns.  The work arrays make a step not reentrant on one grid.
    """

    def __init__(self, model, grid, dt, order2):
        nx, np_ = grid.Nx, grid.Np
        self.dt = dt
        self.order2 = order2
        # Courant number of a half step per column.  Columns with
        # nu < 0 take their face values from the cell on the right, the
        # others from the cell on the left; each side is kept as runs of
        # column slices (one run for a monotone v), copied into the
        # faces one run at a time.
        nu = _node_geometry(model, grid).v * (0.5 * dt / grid.dx)
        # step accepts dt a round-off past cfl_limit, which may carry
        # |nu| a few ulps past its bound; clip it back (a no-op below).
        nu_max = 0.5 if order2 else 1.0
        np.clip(nu, -nu_max, nu_max, out=nu)
        negative = nu < 0.0
        cuts = [0, *(np.flatnonzero(np.diff(negative)) + 1), np_]
        runs = [slice(a, b) for a, b in zip(cuts, cuts[1:])]
        self.from_left = [r for r in runs if not negative[r.start]]
        self.from_right = [r for r in runs if negative[r.start]]
        # The Courant numbers on the whole grid: the product of the
        # faces with a broadcast row took 4x as long (36.6 against
        # 8.9 us at 128 x 256), through numpy's buffered iterator.
        self.nu = _aligned((nx, np_))
        self.nu[...] = nu
        # Rows 1..Nx of ghost hold h, rows 0 and Nx + 1 its periodic
        # neighbours; h is a C-contiguous view of those rows.  flux[k]
        # is the flux through face k - 1/2.
        self.ghost = _aligned((nx + 2, np_))
        self.h = self.ghost[1:-1]
        self.flux = _aligned((nx + 1, np_))
        if order2:
            # jump[k] = h_k - h_{k-1}; slope[i] is the limited slope of
            # cell i, with slope[Nx] = slope[0], until hs scales it to
            # the half slope signed toward the face the cell feeds.
            self.jump = _aligned((nx + 1, np_))
            self.slope = _aligned((nx + 1, np_))
            self.hs = _aligned((nx + 1, np_))
            self.hs[...] = np.where(negative, -0.5, 0.5)

    def transport(self, out):
        """One half step of dh/dt + v dh/dx = 0 on self.h, into out.

        out may be self.h.  Upwind is a convex combination of h_k and its
        upwind neighbour for |nu| <= 1.  MUSCL reconstructs with a
        minmod limiter; in incremental form (nu > 0, mirrored for
        nu < 0) it is h_k' = h_k - C (h_k - h_{k-1}) with C in
        [nu/2, 3 nu/2], so it is positive and total-variation
        diminishing for |nu| <= 2/3, and cfl_limit allows |nu| <= 1/2.

        Every arithmetic pass runs over the whole grid.  src[i] is the
        value cell i gives the face it feeds: h_i for upwind, and
        h_i + slope_i / 2 (nu >= 0) or h_i - slope_i / 2 (nu < 0) for
        MUSCL.  Face i + 1/2 then copies src[i] in the columns with
        nu >= 0 and src[i + 1] in the others, one run of columns at a
        time.
        """
        g, h, flux = self.ghost, self.h, self.flux
        nx = h.shape[0]
        g[0] = g[nx]
        g[-1] = g[1]
        face = flux[1:]
        if self.order2:
            jump, slope = self.jump, self.slope
            np.subtract(g[1:], g[:-1], out=jump)
            a, b, mm = jump[:-1], jump[1:], slope[:-1]
            # minmod(a, b) = median(a, b, 0) = max(min(a, b), min(max(a, b), 0))
            np.minimum(a, b, out=mm)
            np.maximum(a, b, out=face)
            np.minimum(face, 0.0, out=face)
            np.maximum(mm, face, out=mm)
            slope[-1] = slope[0]
            # Exact: scaling by +-0.5 rounds nothing, and h + (-s) is
            # h - s in IEEE arithmetic, signed zeros included.
            slope *= self.hs
            src = np.add(g[1:], slope, out=jump)
        else:
            src = g[1:]
        for cols in self.from_left:
            face[:, cols] = src[:-1, cols]
        for cols in self.from_right:
            face[:, cols] = src[1:, cols]
        face *= self.nu
        flux[0] = flux[nx]
        np.subtract(h, face, out=out)
        out += flux[:-1]

    def advance(self, op, out):
        """One step of self.h by self.dt into out, which may be self.h:
        half transport, the implicit diffusion solve of op (None to skip
        it), half transport."""
        h = self.h
        self.transport(out=h)
        if op is not None:
            op.solve(h, self.dt, out=h)
        self.transport(out=out)


def _strang(model, grid, dt, order2):
    # One entry per model and order, rebuilt when dt changes, so a
    # sweep over dt does not pile up work arrays on the grid.
    key = ("strang", model, order2)
    st = grid._cache.get(key)
    if st is None or st.dt != dt:
        st = grid._cache[key] = _Strang(model, grid, dt, order2)
    return st


def cfl_limit(model, grid, order2=False):
    """Largest step dt whose transport half steps stay positive and TVD.

    Each half step moves by nu = v dt / (2 dx), so the limit is
    2 dx / max|v| for upwind (|nu| <= 1) and dx / max|v| for MUSCL
    (|nu| <= 1/2).
    """
    geo = _node_geometry(model, grid)
    limit = 2.0 * grid.dx / geo.vmax if geo.vmax > 0.0 else math.inf
    return 0.5 * limit if order2 else limit


def _check_cfl(dt, limit, where=""):
    if dt > limit * (1.0 + 1e-12):
        raise CFLViolation(
            f"dt = {dt:.3e} exceeds the transport limit {limit:.3e}{where}"
        )


def step(state, dt, model, grid, *, order2=False, with_diffusion=True):
    """One Strang-split step: half transport, implicit diffusion, half transport."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    _check_cfl(dt, cfl_limit(model, grid, order2))
    st = _strang(model, grid, dt, order2)
    np.copyto(st.h, state.h)
    out = np.empty_like(st.h)
    st.advance(_op(model, grid) if with_diffusion else None, out)
    return State(h=out, t=state.t + dt)


# ---------------------------------------------------------------------------
# Initial data


def _coerce_data_expr(src):
    """Map the x/p spelling of initial data onto the 2D field grammar."""
    out = re.sub(r"\bpi\b", repr(math.pi), src)
    out = re.sub(r"\bx\b", "p1", out)
    return re.sub(r"\bp\b", "p2", out)


def initial_state(model, grid, data):
    """Build the normalized (unit-mass) initial state from data.

    data may be an (Nx, Np) array, a callable f(x, p) acting on
    meshgrids, or an expression in x and p using the field grammar.
    """
    if isinstance(data, str):
        from .expressions import evaluate, parse_expr

        ast = parse_expr(_coerce_data_expr(data), max_coord_index=2)
        X, Pm = np.meshgrid(grid.x_nodes, grid.p_nodes, indexing="ij")
        pts = np.column_stack([X.ravel(), Pm.ravel()])
        h = np.asarray(
            evaluate(ast, pts, theta=model.theta), dtype=float
        ).reshape(grid.Nx, grid.Np)
    elif callable(data):
        X, Pm = np.meshgrid(grid.x_nodes, grid.p_nodes, indexing="ij")
        h = np.asarray(data(X, Pm), dtype=float)
    else:
        h = np.array(data, dtype=float)
    if h.shape != (grid.Nx, grid.Np):
        raise ValueError(f"initial data shape {h.shape} != {(grid.Nx, grid.Np)}")
    if not np.all(np.isfinite(h)) or np.any(h < 0.0):
        raise ValueError("initial data must be finite and nonnegative")
    m = _mass(h, grid)
    if m <= 0.0:
        raise ValueError("initial data must carry positive mass")
    return State(h=h / m, t=0.0)


# ---------------------------------------------------------------------------
# Functionals


def _mass(h, grid):
    return float(np.sum(h * grid.mu_weights) * grid.dx)


def _ddx(h, dx, out=None):
    """(h_{i+1} - h_{i-1}) / (2 dx), periodic in x, into out (a new array
    when None)."""
    if out is None:
        out = np.empty(np.shape(h))
    np.subtract(h[2:], h[:-2], out=out[1:-1])
    np.subtract(h[1], h[-1], out=out[0])
    np.subtract(h[0], h[-2], out=out[-1])
    out /= 2.0 * dx
    return out


def _ddp(h, dp, out=None):
    """np.gradient(h, dp, axis=1, edge_order=2) to the bit, into out (a
    new array when None): centred inside, one-sided of second order at
    both ends."""
    if out is None:
        out = np.empty(np.shape(h))
    # The centred difference as one pass over the raveled arrays: the
    # entries it gets wrong, where the stencil wraps from one row into
    # the next, are the end columns, which the one-sided formulas
    # overwrite.  out must be C-contiguous.
    hf, of = np.ravel(h), out.reshape(-1)
    inner = of[1:-1]
    np.subtract(hf[2:], hf[:-2], out=inner)
    inner /= 2.0 * dp
    out[:, 0] = -1.5 / dp * h[:, 0] + 2.0 / dp * h[:, 1] - 0.5 / dp * h[:, 2]
    out[:, -1] = 0.5 / dp * h[:, -3] - 2.0 / dp * h[:, -2] + 1.5 / dp * h[:, -1]
    return out


class _Sample:
    """Work arrays of `functionals` on one (model, grid): four (Nx, Np)
    arrays from _aligned, a mask, and the (Np,) coefficient vectors,
    each computed as the plain formula would."""

    def __init__(self, model, grid):
        geo = _node_geometry(model, grid)
        shape = (grid.Nx, grid.Np)
        self.w = grid.mu_weights * grid.dx
        self.gpp = geo.gpp
        self.c_xx = geo.gpp * geo.dv**2
        self.c_xp = geo.gpp * geo.dv
        self.work = [_aligned(shape) for _ in range(4)]
        self.mask = np.empty(shape, dtype=bool)


def _sample(model, grid):
    key = ("sample", model)
    s = grid._cache.get(key)
    if s is None:
        s = grid._cache[key] = _Sample(model, grid)
    return s


def functionals(state, model, grid, certificate=None):
    """One row of entropy functionals for the current state.

    The entropy is measured relative to the equilibrium of the same
    mass, so a constant state scores zero in every column.  With a
    certificate the modified entropy combines the columns with its
    weights; without one Emod reduces to D.  Each column runs the
    operations of its formula in order, written into C-ordered work
    arrays kept on the grid, so a call allocates no (Nx, Np) array and
    is not reentrant on one grid, and each sum runs in row order
    whatever the layout of state.h.  A state.h that is not C-contiguous
    is read through one C-ordered copy.
    """
    s = _sample(model, grid)
    h, w = np.ascontiguousarray(state.h), s.w
    a, b, c, d = s.work
    m = float(np.sum(np.multiply(h, w, out=a)))
    floor = H_FLOOR_FRAC * max(m, np.finfo(float).tiny)

    # Relative entropy through the pointwise-nonnegative integrand
    # m phi(e) with e = h/m - 1, phi(e) = (1+e) log1p(e) - e.  The
    # discarded linear part sums to zero by mass consistency, and in
    # this form every rounding error is multiplied by e, so D stays
    # accurate down to deviations near machine precision.  phi(-1) = 1
    # covers h = 0 exactly; this column needs no floor.
    e, phi = a, b
    np.divide(h, m, out=e)
    e -= 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log1p(e, out=c)
        np.add(1.0, e, out=phi)
        phi *= c
        phi -= e
    np.greater(h, 0.0, out=s.mask)
    np.logical_not(s.mask, out=s.mask)
    np.copyto(phi, 1.0, where=s.mask)
    D = max(m * float(np.sum(np.multiply(phi, w, out=phi))), 0.0)

    dhx, dhp, hf = _ddx(h, grid.dx, out=a), _ddp(h, grid.dp, out=c), b
    np.maximum(h, floor, out=hf)

    def quad(f):
        """sum(f / hf * w), formed in f."""
        f /= hf
        f *= w
        return float(np.sum(f))

    Ipp = quad(np.multiply(s.gpp, np.square(dhp, out=d), out=d))
    Ixx = quad(np.multiply(s.c_xx, np.square(dhx, out=d), out=d))
    Ixp = quad(np.multiply(np.multiply(s.c_xp, dhx, out=d), dhp, out=d))
    np.abs(np.subtract(h, m, out=d), out=d)
    l1 = float(np.sum(np.multiply(d, w, out=d)))
    if certificate is None:
        emod = D
    else:
        emod = (
            certificate.k * D
            + certificate.a * Ipp
            + 2.0 * certificate.b * Ixp
            + certificate.c * Ixx
        )
    return {
        "t": state.t,
        "D": D,
        "Ipp": Ipp,
        "Ixp": Ixp,
        "Ixx": Ixx,
        "Emod": emod,
        "mass": m,
        "l1_dist": l1,
    }


# ---------------------------------------------------------------------------
# Runs


def sample_count(tmax, sample_dt, dt=None):
    """Samples in a run to tmax; ValueError unless the times are valid.

    tmax and sample_dt must be finite and positive, tmax a whole number
    of sample_dt (to 1e-9 relative), and dt None or positive.
    """
    if not (0.0 < tmax < math.inf and 0.0 < sample_dt < math.inf):
        raise ValueError("tmax and sample_dt must be finite and positive")
    if not (dt is None or dt > 0.0):
        raise ValueError("dt must be positive")
    ratio = tmax / sample_dt
    n_samples = round(ratio)
    if n_samples < 1 or abs(ratio - n_samples) > 1e-9 * ratio:
        raise ValueError(
            f"tmax = {tmax:.12g} is not a whole number of "
            f"sample_dt = {sample_dt:.12g}"
        )
    return n_samples


def sub_steps(model, grid, sample_dt, dt=None, order2=False):
    """(n_sub, dt_eff): the steps a run takes per sample, and their length.

    Without dt the step is 0.9 times the transport limit, or sample_dt
    when that is smaller; a given dt bounds the step from above.
    round() may take the count down past that bound, so sub-steps are
    added until the step is within it.  Raises CFLViolation, stamped
    with the run's start time, when the step exceeds the transport
    limit.
    """
    limit = cfl_limit(model, grid, order2)
    if dt is None:
        bound = limit
        dt = min(sample_dt, 0.9 * limit)
    else:
        bound = dt
    n_sub = max(1, round(sample_dt / dt))
    while sample_dt / n_sub > bound * (1.0 + 1e-12):
        n_sub += 1
    dt_eff = sample_dt / n_sub
    _check_cfl(dt_eff, limit, " (at t = 0)")
    return n_sub, dt_eff


def run(
    model,
    grid,
    h_in,
    tmax,
    sample_dt,
    certificate=None,
    *,
    dt=None,
    order2=False,
):
    """Evolve h_in to tmax, sampling the functionals every sample_dt.

    The time settings must pass sample_count, and the step that
    sub_steps picks from them must be within the transport limit.

    When a certificate with a rate is supplied, each sample is checked
    against Emod(0) exp(-lambda t) with the exponent relaxed by
    DECAY_ALLOWANCE; offending samples land in decay_violations.
    """
    n_samples = sample_count(tmax, sample_dt, dt)
    n_sub, dt_eff = sub_steps(model, grid, sample_dt, dt, order2)

    state = initial_state(model, grid, h_in)
    rows = [functionals(state, model, grid, certificate)]
    # The steps of `step`, advancing its work array in place.
    st, op = _strang(model, grid, dt_eff, order2), _op(model, grid)
    h, t = st.h, state.t
    np.copyto(h, state.h)
    try:
        for _ in range(n_samples):
            for _ in range(n_sub):
                st.advance(op, h)
                t += dt_eff
            rows.append(functionals(State(h=h, t=t), model, grid, certificate))
    except LinearSolveFailure as exc:
        raise LinearSolveFailure(f"{exc} (at t = {t:.6g})") from exc

    series = FunctionalSeries(
        **{name: np.array([r[key] for r in rows]) for key, name in _SAMPLED},
        meta={"dt": dt_eff, "sample_dt": sample_dt, "order2": order2},
    )
    if certificate is not None and getattr(certificate, "lam", None):
        lam = certificate.lam
        series.meta["lambda"] = lam
        series.meta["decay_allowance"] = DECAY_ALLOWANCE
        e0 = series.Emod[0]
        slack = 1e-12 * max(abs(e0), 1.0)
        for t, e in zip(series.times, series.Emod):
            bound = e0 * math.exp(-(1.0 - DECAY_ALLOWANCE) * lam * t) + slack
            if e > bound:
                series.decay_violations.append((float(t), float(e / bound)))
    return series


def fit_rate(series, window=0.5, field="D"):
    """Exponential rate of a functional over the trailing window.

    Log-linear least squares on the last window fraction of samples;
    returns (lambda_emp, r2).  A constant positive series fits rate
    zero exactly.
    """
    if not 0.0 < window <= 1.0:
        raise ValueError("window must be a fraction in (0, 1]")
    t = np.asarray(series.times, dtype=float)
    y = np.asarray(getattr(series, field), dtype=float)
    k0 = int(math.ceil((1.0 - window) * len(t)))
    t, y = t[k0:], y[k0:]
    if len(t) < 10:
        raise InsufficientData(
            f"need at least 10 samples in the fit window, have {len(t)}"
        )
    if np.any(y <= 0.0):
        raise NonpositiveValues(
            "series has nonpositive values in the fit window"
        )
    logy = np.log(y)
    slope, intercept = np.polyfit(t, logy, 1)
    fitted = slope * t + intercept
    ss_res = float(np.sum((logy - fitted) ** 2))
    ss_tot = float(np.sum((logy - logy.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(-slope), float(r2)


# ---------------------------------------------------------------------------
# Entropy production diagnostics


def entropy_production_diagnostics(state, model, grid, dt=None, *, order2=True):
    """Both sides of the entropy production identities on one state.

    The four d/dt rows compare a centered time difference (two half
    steps around the midpoint state) against the term-by-term quadrature
    of the curvature, Hessian, and W contractions.  The two Q rows
    compare the second-derivative quadratures of log h against the
    product-rule route through derivatives of h itself.  Residuals are
    relative and expected to shrink at first order under simultaneous
    (dt, dx, dp) refinement.  Defaults to the limited second-order
    transport: the first-order upwind dissipation otherwise dominates
    the time side whenever the state has strong spatial gradients.
    """
    geo = _node_geometry(model, grid)
    if dt is None:
        dt = min(0.5 * cfl_limit(model, grid, order2=False), 1.0)
    mid = step(state, 0.5 * dt, model, grid, order2=order2)
    plus = step(mid, 0.5 * dt, model, grid, order2=order2)

    f0 = functionals(state, model, grid)
    f2 = functionals(plus, model, grid)
    fm = functionals(mid, model, grid)

    h = mid.h
    w = grid.mu_weights * grid.dx
    m = fm["mass"]
    floor = H_FLOOR_FRAC * max(m, np.finfo(float).tiny)
    hf = np.maximum(h, floor)
    hb = np.log(hf)

    dhx = _ddx(h, grid.dx)
    dhp = _ddp(h, grid.dp)
    dbx = _ddx(hb, grid.dx)
    dbp = _ddp(hb, grid.dp)
    dbpx = _ddp(dbx, grid.dp)
    d2bp = _ddp(dbp, grid.dp)
    d2hp = _ddp(dhp, grid.dp)
    dhpx = _ddp(dhx, grid.dp)

    gpp = geo.gpp
    Hbar = d2bp - geo.Gamma * dbp
    omega = dbpx * geo.dv + dbx * geo.H_v

    def quad(f):
        return float(np.sum(f * w))

    Qpp = quad(h * (gpp * Hbar) ** 2)
    Qxp = quad(h * (gpp * omega) ** 2)

    rows = {}

    def row(name, lhs, rhs):
        scale = max(abs(lhs), abs(rhs), 1e-12)
        rows[name] = {
            "lhs": lhs,
            "rhs": rhs,
            "residual": abs(lhs - rhs) / scale,
        }

    row("dD", (f2["D"] - f0["D"]) / dt, -fm["Ipp"])

    rhs_ipp = (
        -2.0 * fm["Ixp"]
        - 2.0 * quad(h * geo.ric_t * (gpp * dbp) ** 2)
        - 2.0 * Qpp
    )
    row("dIpp", (f2["Ipp"] - f0["Ipp"]) / dt, rhs_ipp)

    rhs_ixp = (
        -fm["Ixx"]
        - quad(h * geo.ric_t * (gpp * geo.dv * dbx) * (gpp * dbp))
        - 2.0 * quad(h * gpp**2 * Hbar * omega)
        + quad(dbp * dhx * geo.divH)
        + 2.0 * quad(h * gpp**2 * Hbar * dbx * geo.H_v)
        + quad(dhx * gpp**2 * geo.H_v * geo.w_cov * dbp)
    )
    row("dIxp", (f2["Ixp"] - f0["Ixp"]) / dt, rhs_ixp)

    rhs_ixx = (
        -2.0 * Qxp
        + 2.0 * quad(geo.dv * dbx * dhx * geo.divH)
        + 4.0 * quad(h * gpp**2 * omega * dbx * geo.H_v)
        + 2.0 * quad(dhx * gpp**2 * geo.H_v * geo.w_cov * geo.dv * dbx)
    )
    row("dIxx", (f2["Ixx"] - f0["Ixx"]) / dt, rhs_ixx)

    # Product-rule routes: Hess h = h Hess(log h) + (dh x dh)/h and its
    # mixed-derivative analogue, evaluated through derivatives of h.
    Hh = d2hp - geo.Gamma * dhp
    row("Qpp_product", Qpp, quad(gpp**2 * Hbar * (Hh - dhp**2 / hf)))
    chi = dhpx * geo.dv + dhx * geo.H_v
    row("Qxp_product", Qxp, quad(gpp**2 * omega * (chi - dbx * dhp * geo.dv)))

    return rows


# ---------------------------------------------------------------------------
# CSV round trip


def series_to_csv(series, path):
    """Write the series with full round-trip decimal precision."""
    lines = [CSV_HEADER]
    columns = [getattr(series, name) for _, name in _SAMPLED]
    for i in range(len(series)):
        lines.append(",".join(repr(float(col[i])) for col in columns))
    text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text


def series_from_csv(path):
    """Read a series written by series_to_csv.

    ValueError unless the file holds the header, then at least one row,
    and every row has as many numbers as the header has fields.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(n, ln.strip())
                 for n, ln in enumerate(fh, start=1) if ln.strip()]
    if not lines or lines[0][1] != CSV_HEADER:
        raise ValueError(f"expected header {CSV_HEADER!r}")
    if len(lines) == 1:
        raise ValueError(f"{path}: no rows after the header")
    rows = []
    for lineno, line in lines[1:]:
        tokens = line.split(",")
        if len(tokens) != len(_SAMPLED):
            raise ValueError(
                f"{path} line {lineno}: {len(tokens)} fields, "
                f"the header has {len(_SAMPLED)}"
            )
        try:
            rows.append([float(tok) for tok in tokens])
        except ValueError as exc:
            raise ValueError(f"{path} line {lineno}: {exc}") from exc
    data = np.array(rows)
    return FunctionalSeries(
        **{name: data[:, j] for j, (_, name) in enumerate(_SAMPLED)}
    )
