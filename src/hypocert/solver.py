"""Conservative solver for the kinetic equation on the 1D torus x 1D momentum slab.

Discretizes dh/dt + v(p) dh/dx = Lh, where L is the weighted momentum
Laplacian Delta_p + g(d_p log u, d_p .), on [0,1) x [-P,P] with periodic
x and zero-flux momentum boundaries.  The momentum measure mu carries
the Gibbs factor e^-E (= u sqrt(det g)), and the metric enters only
through the conductance e^-E g^pp at the half nodes, so constants are
equilibria and L is self-adjoint in the discrete mu inner product by
construction.

Time stepping is Strang splitting: a half step of transport in x, one
step of diffusion in p, and a second half step of transport.  The
coefficients do not depend on x, so each x-Fourier mode evolves on its
own (Dolbeault, Mouhot and Schmeiser, Trans. AMS 367, 2015).  The
default step (`_Spectral`) keeps the density as its rfft along x and
shifts mode k exactly, by the phase exp(-i pi k v dt) per half step
(Trefethen, Spectral Methods in MATLAB, ch. 3), so transport has no
step limit and adds no numerical diffusion.  Its diffusion step is the
propagator ((I - tau L)^-1)^(2^s) with tau = dt / 2^s, built once per
dt: every entry is nonnegative and it keeps the mass, so a run takes
one step per sample, and a given dt only bounds the step.  The shift
keeps h >= 0 only where the datum's trigonometric interpolant in x is
nonnegative, which `run` checks before it starts.

With `run(..., order2=True)`, MUSCL's one entry point, the step is
MUSCL instead (`_Strang`): transport in flux form,
h_i -= F_{i+1/2} - F_{i-1/2} with the face value reconstructed on the
upwind side under a minmod limiter, so it is conservative to round-off.
Each half step moves by the Courant number nu = v dt / (2 dx), and is
positive and total-variation diminishing for |nu| <= 1/2, so
dt <= dx / max|v| (`cfl_limit`, which `sub_steps` enforces).  Its
implicit solve is an M-matrix system, so positivity survives any dt.
Both paths solve the tridiagonal system through a block LU in numpy:
the momentum nodes are cut into blocks of at most _BLOCK_WIDTH, each
block's Schur complement is inverted once, and a solve is one batched
matmul over the blocks (two when they differ in width) plus one matmul
that couples the blocks through their edge values.  A step works in
arrays allocated once per (model, grid, dt, order2) and reused, and
`run` advances the density in them in place.

Every array pass of a MUSCL step and of a sample writes to a work array
whose data starts on a 64-byte cache line (`_aligned`).  numpy aligns
its arrays only to 16 bytes, and its add, subtract and multiply ran
2-2.8x slower when the output did not start on a line: 8.4 us against
17-23 us for 32,768 doubles (numpy 2.4, AVX-512 Xeon vCPU).  With Np a
multiple of 8 each row view of such an array (the density inside the
ghost rows, the faces past the first) starts on a line too.

Arithmetic runs over whole contiguous arrays, and a subset of columns
is selected only by copying.  A ufunc on a strided block of columns
goes through numpy's buffered iterator: at 128 x 256, an add over 128
of the 256 columns took 24.8 us, an add over the whole grid 9.1 us, and
a copy of those 128 columns 5.3 us (same host).  So MUSCL transport
forms every cell's face value over the full grid, with the upwind side
folded into a signed half slope, and copies each run of columns to its
faces.

Alongside the dynamics the module tracks the entropy functionals
(D, Ipp, Ixp, Ixx, the modified entropy, mass, L1 distance), fits
empirical decay rates, and evaluates both sides of the entropy
production identities term by term for verification.  A sample is the
pair (h, dh/dx) in the (Np, Nx) layout of the irfft, and every sample
lands in one buffer per grid (`_Sample.hh`).  dh/dx is always the exact
derivative of the trigonometric interpolant of h in x: the default step
makes both in one irfft of its modes z and 2 pi i k z, and a density
held in x-space, MUSCL's and that of a call from outside a run, is
loaded through its rfft (`_Sample.load`).  One core
(`_Sample.functionals`) turns every sample into its row, each column a
dot product with the weights over the grid.
"""

from dataclasses import dataclass, field, fields
from functools import cached_property
import math
import re

import numpy as np

from .assumptions import _div_hessians, _PointJet
from .errors import (
    CFLViolation,
    InsufficientData,
    LinearSolveFailure,
    MetricError,
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

# How far below zero the default step lets the trigonometric interpolant
# of the initial datum, and a sampled density, fall: FFT round-off, as a
# fraction of the datum's largest value.
NEGATIVE_TOL = 1e-12


# ---------------------------------------------------------------------------
# Grid and state


@dataclass(frozen=True)
class PhaseGrid:
    """Tensor grid: Nx periodic cells in x, Np momentum nodes on [-P, P].

    mu_weights holds the discrete momentum measure per node (the Gibbs
    factor e^-E = u sqrt(det g) times the trapezoid cell length,
    normalized to total one).  tail_mass estimates the equilibrium mass
    beyond |p| = P that the truncation discards.
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


def _gibbs(model, p, metric=True):
    """The Gibbs factor e^-E at the 1D momentum points p, and g_pp there
    when metric is set, from one request to the model's jet builder
    (field 0 is g, field 2 is E).  Raises MetricError naming the first
    point where g_pp is not positive."""
    request = ((2, 0), (0, 0)) if metric else ((2, 0),)
    E, *g = model._jets(request, np.asarray(p, dtype=float)[:, None])
    with np.errstate(over="ignore", under="ignore"):
        w = np.exp(-E)
    if not metric:
        return w
    g = g[0][:, 0, 0]
    k = int(np.argmin(g > 0.0))  # the first point that fails, else 0
    if not g[k] > 0.0:
        raise MetricError(f"metric g_pp = {g[k]:.6g} is not positive at p = {p[k]:.6g}")
    return w, g


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

    w, _ = _gibbs(model, p_nodes)
    if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
        raise NonpositiveWeight("Gibbs factor e^-E (= u sqrt(det g)) must be "
                                "finite and positive on the grid")
    trap = np.full(Np, dp)
    trap[0] = trap[-1] = 0.5 * dp
    raw = w * trap
    mu = raw / raw.sum()
    mu /= mu.sum()

    # Tail estimate: same integrand and spacing on the doubled slab,
    # which needs E alone.
    p_ext = np.linspace(-2.0 * P, 2.0 * P, 2 * Np - 1)
    w_ext = _gibbs(model, p_ext, metric=False)
    trap_ext = np.full(p_ext.size, dp)
    trap_ext[0] = trap_ext[-1] = 0.5 * dp
    ext = float(np.sum(np.where(np.isfinite(w_ext), w_ext, 0.0) * trap_ext))
    tail = max(0.0, float(ext - raw.sum()) / ext) if ext > 0.0 else 0.0

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


class _NodeGeometry:
    """Per-momentum-node scalars of the 1D model used by the solver.

    v, dv = v' and gpp = 1 / g_pp, which every run reads, come from one
    request to the model's jet builder.  Gamma, w_cov, ric_t, H_v and
    divH, which only entropy_production_diagnostics reads, come from a
    point jet of the nodes, built on the first read of one of them.
    """

    def __init__(self, model, grid):
        self._model, self._p = model, grid.p_nodes[:, None]
        g, self.v, dv = model._jets(((0, 0), (1, 0), (1, 1)), self._p)
        self.gpp = 1.0 / g[:, 0, 0]
        self.dv = dv[:, 0]
        self.vmax = float(np.max(np.abs(self.v)))

    # The general M-dimensional fields at M = 1.  Ric vanishes on a
    # 1-manifold, so the Bakry-Emery tensor is just minus the covariant
    # Hessian of log u.

    @cached_property
    def _pj(self):
        return _PointJet(self._model, self._p)

    @cached_property
    def Gamma(self):
        return self._pj.jet.christoffel[:, 0, 0, 0]

    @cached_property
    def w_cov(self):
        return self._pj.dlogu[:, 0]

    @cached_property
    def ric_t(self):
        return self._pj.bakry[:, 0, 0]

    @cached_property
    def H_v(self):
        return self._pj.Hv[:, 0, 0, 0]

    @cached_property
    def divH(self):
        return _div_hessians(self._pj)[:, 0, 0]


def _cached(grid, key, build, fresh=lambda value: True):
    """The entry of grid's cache under key, built by build() when it is
    missing or not fresh.  Keys hold the model itself, which the cache
    then keeps alive: an id() could be reused by a later model."""
    value = grid._cache.get(key)
    if value is None or not fresh(value):
        value = grid._cache[key] = build()
    return value


def _node_geometry(model, grid):
    return _cached(grid, ("geom", model), lambda: _NodeGeometry(model, grid))


# ---------------------------------------------------------------------------
# Diffusion operator


# Widest diagonal block of the diffusion solve's block LU.  A solve
# costs one (rows x b) by (b x b) product per block of b nodes plus one
# (rows x 2K) by (2K x Np) matmul over K blocks, so narrow blocks trade
# the first for the second.  With the blocks batched, widths 16 and 32
# are within the noise of each other (17-23 us a solve at 64 x 128,
# 58-76 us at 128 x 256; best of 3,000, one OpenBLAS 0.3.31 thread,
# Xeon vCPU) and 64 and 128 are slower (24-30 and 50-62 us at 64 x 128).
# 32 was the fastest with one matmul per block, and keeping it keeps a
# solve's bits.
_BLOCK_WIDTH = 32


class _BlockLU:
    """(I - dt L)^-1 at one dt, as a block LU of the tridiagonal system.

    I - dt L is W^-1 A, where A = W - dt W L is symmetric tridiagonal
    and, for dt > 0, a strictly diagonally dominant M-matrix.  The nodes
    are cut into K blocks of at most _BLOCK_WIDTH (Golub and Van Loan,
    Matrix Computations, 4.5), the wider ones first when K does not
    divide n, so that they form at most two groups of equal width.
    Block k's Schur complement S_k is block k of A with its first
    diagonal entry replaced by A's L D L^T pivot there, and is inverted
    once, here; as a diagonally dominant symmetric matrix it needs no
    row swaps, so its inverse G_k comes out entrywise nonnegative, as it
    is exactly.

    A solve takes z_k = G_k W_k h_k for every block of a group as one
    matmul: the group's products W_k G_k are stacked in a (k, b, b)
    array, and h and z are read as (k, rows, b) strided views, so each
    block runs the same product as it would alone.  The solution
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
        b, wide = divmod(n, K)
        cuts = [k * b + min(k, wide) for k in range(K + 1)]
        blocks = []  # W_k G_k
        # cols[k, s:e] is G_k e_first, cols[K + k, s:e] is G_k e_last
        cols = np.zeros((2 * K, n))
        g_first, g_corner = [], []
        for k, (s, e) in enumerate(zip(cuts, cuts[1:])):
            S = np.diag(a[s:e]) - np.diag(c[s:e - 1], 1) - np.diag(c[s:e - 1], -1)
            S[0, 0] = pivots[s]
            G = np.linalg.inv(S)
            # h @ (W_k G_k) = (G_k W_k h^T)^T, as G_k is symmetric
            blocks.append(w[s:e, None] * G)
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
        # (nodes, stacked W_k G_k) per group of blocks of one width
        self.groups = [
            (slice(cuts[lo], cuts[hi]), np.stack(blocks[lo:hi]))
            for lo, hi in ((0, wide), (wide, K)) if hi > lo
        ]
        self._z = self._edge = self._zv = self._hv = None

    def _stacks(self, a):
        """a (rows, n) as one (k, rows, b) view per group of blocks."""
        return [a[:, cols].reshape(len(a), *WG.shape[:2]).swapaxes(0, 1)
                for cols, WG in self.groups]

    def solve(self, h, out):
        """x for the rows of h, shape (rows, n), into out of that shape;
        out may be h.  The views of h are kept with h itself, which they
        are matched on, so a solve on the same array again builds none."""
        z, e = self._z, self._edge
        if z is None or z.shape != h.shape:
            z = self._z = _aligned(h.shape)
            e = self._edge = _aligned((h.shape[0], self.edges.size))
            self._zv = self._stacks(z)
        if self._hv is None or self._hv[0] is not h:
            self._hv = (h, self._stacks(h))
        for (_, WG), hv, zv in zip(self.groups, self._hv[1], self._zv):
            np.matmul(hv, WG, out=zv)
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
        that may be h itself, or to a new array when out is None.  Each
        call factors I - dt L for its own dt (`_BlockLU`) and keeps
        nothing, so the operator holds only its coefficients; a stepper
        that solves at one dt again and again builds its own block LU
        once.  Raises LinearSolveFailure when W - dt W L is not positive
        definite.
        """
        lu = _BlockLU(self, float(dt))
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
    p, n = grid.p_nodes, grid.Np
    w, g = _gibbs(model, np.concatenate([p, 0.5 * (p[:-1] + p[1:])]))

    # Scale the half-node conductances e^-E / g_pp by the same
    # normalization that produced mu_weights, so generator and measure
    # agree exactly.
    trap = np.full(n, grid.dp)
    trap[0] = trap[-1] = 0.5 * grid.dp
    norm = 1.0 / float(np.sum(w[:n] * trap))

    off = norm * w[n:] / g[n:] / grid.dp
    diag = np.zeros(n)
    diag[:-1] -= off
    diag[1:] -= off
    return DiffusionOperator(off=off, diag=diag, weight=grid.mu_weights.copy())


def _op(model, grid):
    return _cached(grid, ("diffusion", model), lambda: diffusion_matrix(model, grid))


# ---------------------------------------------------------------------------
# Time stepping


# Squarings s that build the default step's diffusion propagator
# ((I - tau L)^-1)^(2^s), tau = dt / 2^s.  Each one costs an Np x Np
# matmul and brings the propagator closer to exp(dt L).  At 64 x 128,
# one step of 0.05 per sample, datum 1 + 0.5 cos(2 pi x), D / D_exact
# at t = 0.8 and 1 reads 1.069 and 1.130 at s = 6, 1.058 and 1.107 at
# s = 8, 1.055 and 1.102 at s = 10 and 1.054 and 1.100 at s = 12, while
# the p grid alone leaves 1.022 at t = 1 on 256 nodes.  The squarings
# take 0.74, 0.99, 1.12 and 1.49 ms (best of 20, one OpenBLAS thread,
# Xeon vCPU), and 0.67, 2.39, 4.50 and 10.9 ms without _TINY.
_SQUARINGS = 8

# Entries of the propagator below sqrt(DBL_MIN) are set to zero before
# each squaring, so that no product of two entries is subnormal: the
# far corners of (I - tau L)^-1 reach 1e-244 at 64 x 128, and their
# subnormal products made the squarings 2.4x slower at s = 8.  What
# this drops moved no entry by more than 1e-157.
_TINY = math.sqrt(np.finfo(float).tiny)


class _Spectral:
    """Work arrays and propagators of the default step on one grid.

    Built for one (model, grid, dt); every step with those reuses them.
    The density is kept as its rfft along x, transposed: z[i, k] is
    mode k at momentum node i.  z's float view, (Np, 2 (Nx // 2 + 1)),
    holds the real and imaginary parts of the modes side by side, so
    the diffusion step is one real matmul, prop @ z; a complex z would
    convert prop to complex on every call.  A half step of transport
    multiplies mode k at node i by exp(-i pi k v_i dt), the exact shift
    by v_i dt / 2.  On an even Nx the Nyquist mode takes the real part
    of that phase: the shifted cosine's sine part is zero on the grid.

    z is slot 0 of a stack of two, and slot 1 takes 2 pi i k z at a
    sample, so that one irfft of the stack gives h and dh/dx at the
    nodes together, in the irfft's own (Np, Nx) layout, into the grid's
    sample buffer (`_Sample.hh`): the exact x derivative of the
    trigonometric interpolant that the shifts evolve (Trefethen,
    Spectral Methods in MATLAB, ch. 3).  The diffusion
    matmul writes into the other stack, and the two trade places.

    prop is ((I - tau L)^-1)^(2^_SQUARINGS) with tau = dt /
    2^_SQUARINGS: the block LU of tau solved on the identity, then
    squared.  I - tau L is an M-matrix, so its inverse, and every power
    of it, is entrywise nonnegative; it fixes constants and keeps the
    mu-mass.  The work arrays make a step not reentrant on one grid.
    """

    def __init__(self, model, grid, dt):
        nx, n = grid.Nx, grid.Np
        nk = nx // 2 + 1
        self.dt = dt
        # The solve returns one solution per row, so a is the transpose
        # of the inverse, and of each power of it.
        a, b = _aligned((n, n)), _aligned((n, n))
        _BlockLU(_op(model, grid), dt / 2**_SQUARINGS).solve(np.eye(n), a)
        for _ in range(_SQUARINGS):
            np.copyto(a, 0.0, where=a < _TINY)
            np.matmul(a, a, out=b)
            a, b = b, a
        np.copyto(b, a.T)
        # The exact propagator fixes constants.  Each squaring about
        # doubles the round-off in its row sums, to 5e-14 at s = 8, and
        # dividing each row by its sum takes them back to an ulp: at
        # 64 x 128 the mass error sum |mu prop - mu| fell from 9.1e-15
        # to 4.6e-15 too, as the rows and the mu-weighted columns carry
        # the same round-off.
        b /= b.sum(axis=1, keepdims=True)
        self.prop = b
        v = _node_geometry(model, grid).v
        self.phase = np.exp(-1j * np.pi * dt * np.outer(v, np.arange(nk)))
        if nx % 2 == 0:
            self.phase[:, -1] = self.phase[:, -1].real
        self.zs, self.ws = (_aligned((2, n, 2 * nk)).view(complex) for _ in range(2))
        self.sampler = _sample(model, grid)

    def load(self, h):
        """Take the density h, shape (Nx, Np), as the state to advance."""
        np.copyto(self.zs[0], np.fft.rfft(h, axis=0).T)

    def advance(self):
        """One step by self.dt: half shift, diffusion, half shift."""
        z = self.zs[0]
        z *= self.phase
        np.matmul(self.prop, z.view(float), out=self.ws[0].view(float))
        self.zs, self.ws = self.ws, self.zs
        z = self.zs[0]
        z *= self.phase

    def sample(self):
        """(h, dh/dx) at the nodes, each (Np, Nx), in the sample buffer
        hh of the grid's _Sample."""
        s = self.sampler
        np.multiply(self.zs[0], s.ik, out=self.zs[1])
        return np.fft.irfft(self.zs, n=s.hh.shape[2], axis=2, out=s.hh)


class _Strang:
    """Work arrays and column data of one MUSCL step on one grid.

    Built for one (model, grid, dt); every step with those reuses the
    arrays and the block LU of dt (`_BlockLU`), which it builds and
    owns, as _Spectral builds its own for tau.  A step advances h, a
    view of the arrays, in place, so `run` allocates nothing per step.
    The work arrays make a step not reentrant on one grid.
    """

    def __init__(self, model, grid, dt):
        nx, np_ = grid.Nx, grid.Np
        self.dt = dt
        self.lu = _BlockLU(_op(model, grid), float(dt))
        # Courant number of a half step per column.  Columns with
        # nu < 0 take their face values from the cell on the right, the
        # others from the cell on the left; each side is kept as runs of
        # column slices (one run for a monotone v), copied into the
        # faces one run at a time.
        nu = _node_geometry(model, grid).v * (0.5 * dt / grid.dx)
        # sub_steps accepts dt a round-off past cfl_limit, which may
        # carry |nu| a few ulps past 1/2; clip it back (a no-op below).
        np.clip(nu, -0.5, 0.5, out=nu)
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
        # jump[k] = h_k - h_{k-1}; slope[i] is the limited slope of cell
        # i, with slope[Nx] = slope[0], until hs scales it to the half
        # slope signed toward the face the cell feeds.
        self.jump = _aligned((nx + 1, np_))
        self.slope = _aligned((nx + 1, np_))
        self.hs = _aligned((nx + 1, np_))
        self.hs[...] = np.where(negative, -0.5, 0.5)
        self.sampler = _sample(model, grid)

    def transport(self, out):
        """One half step of dh/dt + v dh/dx = 0 on self.h, into out.

        out may be self.h.  MUSCL reconstructs with a minmod limiter; in
        incremental form (nu > 0, mirrored for nu < 0) it is
        h_k' = h_k - C (h_k - h_{k-1}) with C in [nu/2, 3 nu/2], so it
        is positive and total-variation diminishing for |nu| <= 2/3, and
        cfl_limit allows |nu| <= 1/2.

        Every arithmetic pass runs over the whole grid.  src[i] is the
        value cell i gives the face it feeds, h_i + slope_i / 2
        (nu >= 0) or h_i - slope_i / 2 (nu < 0).  Face i + 1/2 then
        copies src[i] in the columns with nu >= 0 and src[i + 1] in the
        others, one run of columns at a time.
        """
        g, h, flux = self.ghost, self.h, self.flux
        nx = h.shape[0]
        g[0] = g[nx]
        g[-1] = g[1]
        face = flux[1:]
        jump, slope = self.jump, self.slope
        np.subtract(g[1:], g[:-1], out=jump)
        a, b, mm = jump[:-1], jump[1:], slope[:-1]
        # minmod(a, b) = median(a, b, 0) = max(min(a, b), min(max(a, b), 0))
        np.minimum(a, b, out=mm)
        np.maximum(a, b, out=face)
        np.minimum(face, 0.0, out=face)
        np.maximum(mm, face, out=mm)
        slope[-1] = slope[0]
        # Exact: scaling by +-0.5 rounds nothing, and h + (-s) is h - s
        # in IEEE arithmetic, signed zeros included.
        slope *= self.hs
        src = np.add(g[1:], slope, out=jump)
        for cols in self.from_left:
            face[:, cols] = src[:-1, cols]
        for cols in self.from_right:
            face[:, cols] = src[1:, cols]
        face *= self.nu
        flux[0] = flux[nx]
        np.subtract(h, face, out=out)
        out += flux[:-1]

    def load(self, h):
        """Take the density h, shape (Nx, Np), as the state to advance."""
        np.copyto(self.h, h)

    def advance(self):
        """One step of self.h by self.dt, in place: half transport, the
        implicit diffusion solve, half transport."""
        h = self.h
        self.transport(out=h)
        self.lu.solve(h, h)
        self.transport(out=h)

    def sample(self):
        """(h, dh/dx) at the nodes, each (Np, Nx), in the sample buffer
        hh of the grid's _Sample (`_Sample.load`)."""
        return self.sampler.load(self.h)


def _stepper(model, grid, dt, order2):
    # One entry per model and path, rebuilt when dt changes, so a sweep
    # over dt does not pile up work arrays on the grid.
    return _cached(grid, ("step", model, order2),
                   lambda: (_Strang if order2 else _Spectral)(model, grid, dt),
                   lambda st: st.dt == dt)


def cfl_limit(model, grid):
    """Largest MUSCL step dt whose transport half steps stay positive
    and TVD: each moves by nu = v dt / (2 dx), and |nu| <= 1/2 gives
    dx / max|v|, or inf when v vanishes.  The default step shifts each
    x-Fourier mode exactly, at any dt, and has no limit.
    """
    vmax = _node_geometry(model, grid).vmax
    return grid.dx / vmax if vmax > 0.0 else math.inf


def _positive_interpolant(h):
    """The floor below zero that the default step's samples of a run
    from h may reach: FFT round-off.

    That step shifts the trigonometric interpolant in x of each column
    of h, shape (Nx, Np), so it keeps h >= 0 only where the interpolant
    is nonnegative.  It is evaluated on a grid 8 times finer in x, a
    zero-padded irfft that splits an even Nx's Nyquist mode between
    +-Nx/2, unless a bound on its Fourier coefficients shows it
    nonnegative everywhere.  Raises ValueError, naming the minimum as a
    multiple of the largest value of h, when it falls below
    -NEGATIVE_TOL times that value, the floor returned.
    """
    nx = h.shape[0]
    c = np.fft.rfft(h, axis=0, norm="forward")
    if nx % 2 == 0:
        c[-1] *= 0.5
    top = float(np.max(h))
    floor = -NEGATIVE_TOL * top
    # A column's interpolant is at least c_0 - 2 sum_k>0 |c_k| everywhere,
    # so data that meet that bound need no fine grid: at 64 x 128 the
    # check took 0.05 ms, and the fine grid alone 0.46 ms more.
    low = float(np.min(c[0].real - 2.0 * np.sum(np.abs(c[1:]), axis=0)))
    if low < floor:
        low = float(np.min(np.fft.irfft(c, n=8 * nx, axis=0, norm="forward")))
    if low < floor:
        raise ValueError(
            f"the trigonometric interpolant in x of the initial datum falls "
            f"to {low / top:.3g} times its largest value between the Nx = {nx} "
            f"cells, so its exact shift would make h negative; use a larger Nx"
        )
    return floor


def step(state, dt, model, grid):
    """One default step from state, a new State at t + dt: the half
    shifts of each x-Fourier mode around the diffusion propagator, at
    any dt > 0 (see _Spectral)."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    st = _stepper(model, grid, dt, False)
    st.load(state.h)
    st.advance()
    # sample()'s h, bit for bit, without its dh/dx
    h = np.fft.irfft(st.zs[0], n=grid.Nx, axis=1)
    return State(h=h.T.copy(), t=state.t + dt)


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


def _wavenumbers(nx):
    """2 pi i k for the rfft modes k of Nx nodes on [0, 1), zero at an
    even Nx's Nyquist mode, whose derivative vanishes at the nodes."""
    ik = 2j * np.pi * np.arange(nx // 2 + 1)
    if nx % 2 == 0:
        ik[-1] = 0.0
    return ik


def _ddx_spectral(h, ik, out=None, z=None):
    """The x derivative at the nodes of the trigonometric interpolant of
    h along its last axis, irfft(ik rfft(h)), with ik from _wavenumbers
    (or a replica of it down the rows); into out and through z, a work
    array for the modes, or new arrays when None."""
    z = np.fft.rfft(h, axis=-1, out=z)
    np.multiply(z, ik, out=z)
    return np.fft.irfft(z, n=h.shape[-1], axis=-1, out=out)


def _ddp(h, dp, out=None, row=None):
    """np.gradient(h, dp, axis=0, edge_order=2) to the bit, into out (a
    new array when None): centred inside, one-sided of second order at
    both ends, each end row formed in out and in the work row row (a new
    one when None) with no temporary."""
    if out is None:
        out = np.empty(np.shape(h))
    row = np.empty(np.shape(h)[1:]) if row is None else row
    inner = out[1:-1]
    np.subtract(h[2:], h[:-2], out=inner)
    inner /= 2.0 * dp
    # (c0 h_a + c1 h_b) + c2 h_c, as np.gradient orders it
    for end, (a, b, c), (c0, c1, c2) in ((0, (0, 1, 2), (-1.5, 2.0, -0.5)),
                                         (-1, (-3, -2, -1), (0.5, -2.0, 1.5))):
        o = out[end]
        np.add(np.multiply(c0 / dp, h[a], out=row),
               np.multiply(c1 / dp, h[b], out=o), out=o)
        o += np.multiply(c2 / dp, h[c], out=row)
    return out


class _Sample:
    """The functionals of samples on one (model, grid), and their work
    arrays.

    A sample is the pair (h, dh/dx) in the (Np, Nx) layout of the
    default step's irfft: momentum node i is row i.  The weights, the
    coefficients and the wavenumbers are computed per node and repeated
    along the rows of _aligned arrays of the sample's shape: a ufunc
    that broadcasts a row or a column over the grid goes through numpy's
    buffered iterator, whose buffers took 132 KB for the row of
    wavenumbers and 66 KB for a column of weights at 128 x 256.  Every
    sample lands in hh: the default step's irfft writes it there, and
    load takes any density held in x-space through the modes z.
    """

    def __init__(self, model, grid):
        geo = _node_geometry(model, grid)
        n, nx = grid.Np, grid.Nx
        nk = nx // 2 + 1

        def full(column):
            out = _aligned((n, nx))
            out[...] = column[:, None]
            return out

        w = grid.mu_weights * grid.dx
        self.w = full(w)
        self.wg = full(w * geo.gpp)
        self.dv = full(geo.dv)
        self.ik = _aligned((n, 2 * nk)).view(complex)
        self.ik[...] = _wavenumbers(nx)
        self.dp = grid.dp
        self.hh = _aligned((2, n, nx))
        self.z = _aligned((n, 2 * nk)).view(complex)
        self.work = [_aligned((n, nx)) for _ in range(3)]
        self.row = _aligned((nx,))  # _ddp's end rows
        self.mask = np.empty((n, nx), dtype=bool)

    def load(self, h):
        """The sample of the density h, shape (Nx, Np) in any memory
        layout, in hh: a transposed copy of h and the exact x derivative
        of its trigonometric interpolant, from its rfft in z."""
        np.copyto(self.hh[0], h.T)
        _ddx_spectral(self.hh[0], self.ik, out=self.hh[1], z=self.z)
        return self.hh

    def functionals(self, h, hx, low, t, certificate=None):
        """The row of functionals() at time t for the sample h, hx =
        dh/dx, with low = min h.  hx is overwritten.

        Each column is a dot product with the weights w = mu dx over the
        whole grid.  With r = w g^pp / max(h, floor) and y = v' dh/dx,
        Ipp = <r dh/dp, dh/dp>, Ixp = <r dh/dp, y> and Ixx = <r y, y>.
        """
        w, (a, b, c) = self.w, self.work
        m = float(np.vdot(h, w))
        floor = H_FLOOR_FRAC * max(m, np.finfo(float).tiny)

        # Relative entropy through the pointwise-nonnegative integrand
        # m phi(e) with e = h/m - 1, phi(e) = (1+e) log1p(e) - e.  The
        # discarded linear part sums to zero by mass consistency, and in
        # this form every rounding error is multiplied by e, so D stays
        # accurate down to deviations near machine precision.  1 + e is
        # taken as h/m, which it is to the bit for h/m in [1/2, 2].
        # phi(-1) = 1 covers h = 0 exactly; this column needs no floor.
        phi, e = a, b
        np.divide(h, m, out=phi)
        np.subtract(phi, 1.0, out=e)
        with np.errstate(divide="ignore", invalid="ignore"):
            phi *= np.log1p(e, out=c)
        phi -= e
        if low <= 0.0:
            np.greater(h, 0.0, out=self.mask)
            np.logical_not(self.mask, out=self.mask)
            np.copyto(phi, 1.0, where=self.mask)
        D = max(m * float(np.vdot(phi, w)), 0.0)
        l1 = float(np.vdot(np.abs(np.subtract(h, m, out=b), out=b), w))

        r = np.maximum(h, floor, out=a)
        np.divide(self.wg, r, out=r)
        dhp = _ddp(h, self.dp, out=b, row=self.row)
        y = np.multiply(hx, self.dv, out=hx)
        rp = np.multiply(r, dhp, out=c)
        Ipp = float(np.vdot(rp, dhp))
        Ixp = float(np.vdot(rp, y))
        Ixx = float(np.vdot(np.multiply(r, y, out=r), y))
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
            "t": t,
            "D": D,
            "Ipp": Ipp,
            "Ixp": Ixp,
            "Ixx": Ixx,
            "Emod": emod,
            "mass": m,
            "l1_dist": l1,
        }


def _sample(model, grid):
    return _cached(grid, ("sample", model), lambda: _Sample(model, grid))


def functionals(state, model, grid, certificate=None):
    """One row of entropy functionals for the current state.

    The entropy is measured relative to the equilibrium of the same
    mass, so a constant state scores zero in every column.  With a
    certificate the modified entropy combines the columns with its
    weights; without one Emod reduces to D.  dh/dx is the exact
    derivative of h's trigonometric interpolant in x, from its rfft, as
    in every sample of a run, and dh/dp the second-order difference of
    np.gradient.  The columns are formed in work arrays kept on the
    grid (see _Sample), so a call allocates no (Nx, Np) array and is not
    reentrant on one grid; state.h may have any memory layout.
    """
    s = _sample(model, grid)
    h, hx = s.load(state.h)
    return s.functionals(h, hx, float(np.min(h)), state.t, certificate)


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

    Without dt the default step is sample_dt, one step per sample, and
    the MUSCL step (order2) 0.9 times its transport limit (`cfl_limit`),
    or sample_dt when that is smaller; a given dt bounds the step from
    above.  round() may take the count down past that bound, so
    sub-steps are added until the step is within it.  Raises
    CFLViolation, stamped with the run's start time, when a MUSCL step
    exceeds the transport limit by more than round-off.
    """
    limit = cfl_limit(model, grid) if order2 else math.inf
    if dt is None:
        bound = limit
        dt = min(sample_dt, 0.9 * limit)
    else:
        bound = dt
    n_sub = max(1, round(sample_dt / dt))
    while sample_dt / n_sub > bound * (1.0 + 1e-12):
        n_sub += 1
    dt_eff = sample_dt / n_sub
    if dt_eff > limit * (1.0 + 1e-12):
        raise CFLViolation(f"dt = {dt_eff:.3e} exceeds the transport limit "
                           f"{limit:.3e} (at t = 0)")
    return n_sub, dt_eff


@dataclass
class _Start:
    """The checked start of a run: the normalized datum, the floor that
    its samples may reach, the sample count, and the steps per sample
    with their length."""

    state: State
    floor: float
    n_samples: int
    n_sub: int
    dt: float


def _start(model, grid, h_in, tmax, sample_dt, dt=None, order2=False):
    """The _Start of run(model, grid, h_in, tmax, sample_dt, dt=dt,
    order2=order2), with its checks and their errors."""
    n_samples = sample_count(tmax, sample_dt, dt)
    n_sub, dt_eff = sub_steps(model, grid, sample_dt, dt, order2)
    state = initial_state(model, grid, h_in)
    # MUSCL is positive, so its floor is zero itself.
    floor = 0.0 if order2 else _positive_interpolant(state.h)
    return _Start(state, floor, n_samples, n_sub, dt_eff)


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
    sub_steps picks from them must be within the transport limit.  The
    default step needs a datum whose trigonometric interpolant in x is
    nonnegative (ValueError otherwise, see _positive_interpolant), and
    a sampled density below zero raises NonpositiveValues naming t.
    h_in may also be the _start of the same arguments, which the run
    then takes as it is.

    Each sample, the initial datum's too, is the stepper's (h, dh/dx) in
    the one sample buffer, whose row goes through the one functionals
    core (_Sample); a MUSCL row is functionals() of its density to the
    bit.

    When a certificate with a rate is supplied, each sample is checked
    against Emod(0) exp(-lambda t) with the exponent relaxed by
    DECAY_ALLOWANCE; offending samples land in decay_violations.
    """
    start = h_in if isinstance(h_in, _Start) else _start(
        model, grid, h_in, tmax, sample_dt, dt, order2)
    dt_eff, sample = start.dt, _sample(model, grid)
    rows, t = [], start.state.t
    try:
        # The steps of `step`, advancing its work arrays in place.
        st = _stepper(model, grid, dt_eff, order2)
        st.load(start.state.h)
        for k in range(start.n_samples + 1):
            if k:
                for _ in range(start.n_sub):
                    st.advance()
                    t += dt_eff
            h, hx = st.sample()
            low = float(np.min(h))
            # the datum itself passed initial_state's check
            if k and low < start.floor:
                raise NonpositiveValues(f"density h = {low:.3g} < 0 at t = {t:.6g}")
            rows.append(sample.functionals(h, hx, low, t, certificate))
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


def entropy_production_diagnostics(state, model, grid, dt=None):
    """Both sides of the entropy production identities on one state.

    The four d/dt rows compare a centered time difference (two half
    steps around the midpoint state) against the term-by-term quadrature
    of the curvature, Hessian, and W contractions.  The two Q rows
    compare the second-derivative quadratures of log h against the
    product-rule route through derivatives of h itself.  Residuals are
    relative and expected to shrink at first order under simultaneous
    (dt, dx, dp) refinement.  The steps are the default step, exact in
    x, and the x derivatives are those of the trigonometric
    interpolant, as in functionals().  dt defaults to dx / max|v|, at
    most 1: a step that moves the fastest column by one cell.
    """
    geo = _node_geometry(model, grid)
    if dt is None:
        dt = min(cfl_limit(model, grid), 1.0)
    mid = step(state, 0.5 * dt, model, grid)
    plus = step(mid, 0.5 * dt, model, grid)

    f0 = functionals(state, model, grid)
    f2 = functionals(plus, model, grid)
    fm = functionals(mid, model, grid)

    # In the samples' (Np, Nx) layout, the node data as columns, and dh/dx
    # from the modes as in functionals().
    h = np.ascontiguousarray(mid.h.T)
    w = (grid.mu_weights * grid.dx)[:, None]
    m = fm["mass"]
    floor = H_FLOOR_FRAC * max(m, np.finfo(float).tiny)
    hf = np.maximum(h, floor)
    hb = np.log(hf)

    ik = _wavenumbers(grid.Nx)
    dhx = _ddx_spectral(h, ik)
    dhp = _ddp(h, grid.dp)
    dbx = _ddx_spectral(hb, ik)
    dbp = _ddp(hb, grid.dp)
    dbpx = _ddp(dbx, grid.dp)
    d2bp = _ddp(dbp, grid.dp)
    d2hp = _ddp(dhp, grid.dp)
    dhpx = _ddp(dhx, grid.dp)

    gpp, Gamma, w_cov, ric_t, dv, H_v, divH = (
        a[:, None] for a in (geo.gpp, geo.Gamma, geo.w_cov, geo.ric_t,
                             geo.dv, geo.H_v, geo.divH))
    Hbar = d2bp - Gamma * dbp
    omega = dbpx * dv + dbx * H_v

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
        - 2.0 * quad(h * ric_t * (gpp * dbp) ** 2)
        - 2.0 * Qpp
    )
    row("dIpp", (f2["Ipp"] - f0["Ipp"]) / dt, rhs_ipp)

    rhs_ixp = (
        -fm["Ixx"]
        - quad(h * ric_t * (gpp * dv * dbx) * (gpp * dbp))
        - 2.0 * quad(h * gpp**2 * Hbar * omega)
        + quad(dbp * dhx * divH)
        + 2.0 * quad(h * gpp**2 * Hbar * dbx * H_v)
        + quad(dhx * gpp**2 * H_v * w_cov * dbp)
    )
    row("dIxp", (f2["Ixp"] - f0["Ixp"]) / dt, rhs_ixp)

    rhs_ixx = (
        -2.0 * Qxp
        + 2.0 * quad(dv * dbx * dhx * divH)
        + 4.0 * quad(h * gpp**2 * omega * dbx * H_v)
        + 2.0 * quad(dhx * gpp**2 * H_v * w_cov * dv * dbx)
    )
    row("dIxx", (f2["Ixx"] - f0["Ixx"]) / dt, rhs_ixx)

    # Product-rule routes: Hess h = h Hess(log h) + (dh x dh)/h and its
    # mixed-derivative analogue, evaluated through derivatives of h.
    Hh = d2hp - Gamma * dhp
    row("Qpp_product", Qpp, quad(gpp**2 * Hbar * (Hh - dhp**2 / hf)))
    chi = dhpx * dv + dhx * H_v
    row("Qxp_product", Qxp, quad(gpp**2 * omega * (chi - dbx * dhp * dv)))

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
