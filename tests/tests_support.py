"""Helpers shared across test modules."""

import itertools
import math
from collections import OrderedDict
from dataclasses import replace

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded
from scipy.stats import qmc

from hypocert import assumptions as asm
from hypocert import fields
from hypocert import geometry as geom
from hypocert import solver as sv
from hypocert.certificate import EpsilonChoice
from hypocert.expressions import (
    BinOp,
    Call,
    Const,
    Coord,
    Neg,
    Tape,
    Theta,
    evaluate,
    parse_expr,
)
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


def count_builder_dags(monkeypatch):
    """The DAGs that field jet builders make from now on, in a list."""
    made = []

    class Counted(fields._Dag):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(fields, "_Dag", Counted)
    return made


def empty_program_table(monkeypatch):
    """Start from an empty table of compiled jet programs
    (`fields._programs`), so that the next request of each builder
    compiles as in a fresh process; the process's table is back after
    the test."""
    monkeypatch.setattr(fields, "_programs", OrderedDict())


def conformal_model_2d():
    """g = (1+|p|^2)^0.2 delta with v = p, so A = zeta^-2 delta."""
    zeta_expr = "exp(0.1*log(1 + p1^2 + p2^2))"
    gexpr = parse_expr(f"({zeta_expr})^2")
    fields = {(0, 0): gexpr, (1, 1): gexpr}
    return ModelSpec(
        name="conformal2d",
        dim=2,
        metric_field=ExprMetricField(fields, 2),
        v_fields=(
            ExprScalarField(parse_expr("p1"), 2),
            ExprScalarField(parse_expr("p2"), 2),
        ),
        energy_field=ExprScalarField(parse_expr("(p1^2 + p2^2)/2"), 2),
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
    (eigs,) = asm._pencil_eigs(asm._factor(jet.g)[0], cond1)
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


# ---------------------------------------------------------------------------
# Differentiation on ASTs: the reference for the derivative rules on the DAG


def _ref_fold(fn, *args):
    try:
        out = fn(*args)
    except (OverflowError, ValueError, ZeroDivisionError):
        return None
    return Const(out) if math.isfinite(out) else None


def _ref_is_const(node, value=None):
    if not isinstance(node, Const):
        return False
    return value is None or node.value == value


def _ref_neg(a):
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def _ref_add(a, b):
    if isinstance(a, Const) and isinstance(b, Const):
        folded = _ref_fold(lambda x, y: x + y, a.value, b.value)
        if folded is not None:
            return folded
    if _ref_is_const(a, 0.0):
        return b
    if _ref_is_const(b, 0.0):
        return a
    return BinOp("+", a, b)


def _ref_sub(a, b):
    if isinstance(a, Const) and isinstance(b, Const):
        folded = _ref_fold(lambda x, y: x - y, a.value, b.value)
        if folded is not None:
            return folded
    if _ref_is_const(b, 0.0):
        return a
    if _ref_is_const(a, 0.0):
        return _ref_neg(b)
    return BinOp("-", a, b)


def _ref_mul(a, b):
    if isinstance(a, Const) and isinstance(b, Const):
        folded = _ref_fold(lambda x, y: x * y, a.value, b.value)
        if folded is not None:
            return folded
    if _ref_is_const(a, 0.0) or _ref_is_const(b, 0.0):
        return Const(0.0)
    if _ref_is_const(a, 1.0):
        return b
    if _ref_is_const(b, 1.0):
        return a
    if _ref_is_const(a, -1.0):
        return _ref_neg(b)
    if _ref_is_const(b, -1.0):
        return _ref_neg(a)
    return BinOp("*", a, b)


def _ref_div(a, b):
    if isinstance(b, Const) and b.value != 0.0 and isinstance(a, Const):
        folded = _ref_fold(lambda x, y: x / y, a.value, b.value)
        if folded is not None:
            return folded
    if _ref_is_const(b, 1.0):
        return a
    if _ref_is_const(a, 0.0) and not _ref_is_const(b, 0.0):
        return Const(0.0)
    return BinOp("/", a, b)


def _ref_powx(a, b):
    if _ref_is_const(b, 0.0):
        return Const(1.0)
    if _ref_is_const(b, 1.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        base, ex = a.value, b.value
        if (base > 0.0) or (base == 0.0 and ex > 0.0) or (base < 0.0 and ex == int(ex)):
            folded = _ref_fold(pow, base, ex)
            if folded is not None:
                return folded
    return BinOp("^", a, b)


def _ref_call(fn, a):
    if isinstance(a, Const):
        v = a.value
        folded = None
        if fn == "sqrt" and v >= 0.0:
            folded = _ref_fold(math.sqrt, v)
        elif fn == "exp":
            folded = _ref_fold(math.exp, v)
        elif fn == "log" and v > 0.0:
            folded = _ref_fold(math.log, v)
        if folded is not None:
            return folded
    return Call(fn, a)


def diff_expr_reference(ast, k):
    """d/dp{k} of an AST by the derivative rules applied to AST nodes.

    Folding constructors of its own, one memo on node identity per call;
    `expressions.diff_expr` must give the same tree.
    """
    memo = {}

    def d(node):
        key = id(node)
        out = memo.get(key)
        if out is not None:
            return out
        if isinstance(node, (Const, Theta)):
            out = Const(0.0)
        elif isinstance(node, Coord):
            out = Const(1.0 if node.index == k else 0.0)
        elif isinstance(node, Neg):
            out = _ref_neg(d(node.arg))
        elif isinstance(node, BinOp):
            a, b = node.left, node.right
            da, db = d(a), d(b)
            if node.op == "+":
                out = _ref_add(da, db)
            elif node.op == "-":
                out = _ref_sub(da, db)
            elif node.op == "*":
                out = _ref_add(_ref_mul(da, b), _ref_mul(a, db))
            elif node.op == "/":
                out = _ref_div(_ref_sub(_ref_mul(da, b), _ref_mul(a, db)),
                               _ref_mul(b, b))
            elif isinstance(b, Const):
                out = _ref_mul(_ref_mul(b, _ref_powx(a, Const(b.value - 1.0))), da)
            elif _ref_is_const(da, 0.0):
                out = _ref_mul(node, _ref_mul(_ref_call("log", a), db))
            else:
                out = _ref_mul(node, _ref_add(_ref_mul(db, _ref_call("log", a)),
                                              _ref_div(_ref_mul(b, da), a)))
        else:  # Call
            da = d(node.arg)
            if node.fn == "sqrt":
                out = _ref_div(da, _ref_mul(Const(2.0), node))
            elif node.fn == "exp":
                out = _ref_mul(node, da)
            else:  # log
                out = _ref_div(da, node.arg)
        memo[key] = out
        return out

    try:
        return d(ast)
    finally:
        del d


def jet_reference(entries, shape, dim, order, P, theta):
    """An order-k field jet built partial by partial on ASTs.

    Each order-k partial is `diff_expr_reference` of an order-(k-1)
    partial, and all of them compile into one Tape of ASTs, laid out as
    `fields._ExprJets` lays out its jets.  Returns (jet, tape).
    """
    partials = [{((), idx): ast for idx, ast in entries.items()}]
    while len(partials) <= order:
        partials.append({
            (axes + (k,), idx): diff_expr_reference(ast, k + 1)
            for (axes, idx), ast in partials[-1].items()
            for k in range(axes[-1] if axes else 0, dim)
        })
    jet_shape = (dim,) * order + shape
    flat = np.arange(math.prod(jet_shape)).reshape(jet_shape)
    source = np.full(flat.size, len(partials[order]))
    for row, (axes, idx) in enumerate(partials[order]):
        for perm in itertools.permutations(axes):
            source[flat[perm + idx]] = source[flat[perm + idx[::-1]]] = row
    tape = Tape(list(partials[order].values()) + [Const(0.0)])
    vals = evaluate(tape, P, theta)
    return vals.T.take(source, axis=1).reshape((P.shape[0],) + jet_shape), tape


def _minmod(a, b):
    return 0.5 * (np.sign(a) + np.sign(b)) * np.minimum(np.abs(a), np.abs(b))


def advect_reference(h, nu):
    """One MUSCL substep of dh/dt + v dh/dx = 0, nu = v dt / dx per
    column: a minmod-limited reconstruction, monotone for |nu| <= 1/2."""
    up = np.roll(h, 1, axis=0)
    dn = np.roll(h, -1, axis=0)
    mm = _minmod(h - up, dn - h)
    right = np.where(nu > 0.0, h + 0.5 * mm, dn - 0.5 * np.roll(mm, -1, axis=0))
    left = np.roll(right, 1, axis=0)
    return h - nu * (right - left)


def transport_runs_reference(st, out):
    """solver._Strang.transport with the MUSCL face values summed over
    each run of columns on strided blocks, in st's own work arrays: the
    reference its full-width passes match bit for bit."""
    g, h, flux = st.ghost, st.h, st.flux
    nx = h.shape[0]
    g[0] = g[nx]
    g[-1] = g[1]
    right = g[2:]
    face = flux[1:]
    jump, slope = st.jump, st.slope
    np.subtract(g[1:], g[:-1], out=jump)
    a, b, mm = jump[:-1], jump[1:], slope[:-1]
    # minmod(a, b) = median(a, b, 0) = max(min(a, b), min(max(a, b), 0))
    np.minimum(a, b, out=mm)
    np.maximum(a, b, out=face)
    np.minimum(face, 0.0, out=face)
    np.maximum(mm, face, out=mm)
    mm *= 0.5
    slope[-1] = slope[0]
    for cols in st.from_left:
        np.add(h[:, cols], mm[:, cols], out=face[:, cols])
    for cols in st.from_right:
        np.subtract(right[:, cols], slope[1:, cols], out=face[:, cols])
    face *= st.nu
    flux[0] = flux[nx]
    np.subtract(h, face, out=out)
    out += flux[:-1]


def diffusion_solve_reference(op, h, dt):
    """(I - dt L)^-1 h through a banded Cholesky factorization."""
    ab = np.zeros((2, op.weight.size))
    ab[0, 1:] = -dt * op.off
    ab[1, :] = op.weight - dt * op.diag
    return cho_solve_banded((cholesky_banded(ab), False), (op.weight * h).T).T


def block_solve_reference(lu, h):
    """solver._BlockLU.solve with one matmul per block: block k of a
    group takes its own product W_k G_k from the group's stack."""
    z = np.empty_like(h)
    for cols, WG in lu.groups:
        b = WG.shape[1]
        for k, block in enumerate(WG):
            nodes = slice(cols.start + k * b, cols.start + (k + 1) * b)
            z[:, nodes] = h[:, nodes] @ block
    return z[:, lu.edges] @ lu.correction + z


def shift_reference(h, v, a):
    """h shifted by v a in x, column by column, through its full
    complex FFT: the real part of the shifted trigonometric
    interpolant's samples."""
    k = np.fft.fftfreq(h.shape[0], 1.0 / h.shape[0])
    return np.fft.ifft(np.fft.fft(h, axis=0)
                       * np.exp(-2j * np.pi * np.outer(k, v) * a), axis=0).real


def propagator_reference(op, dt, squarings):
    """((I - tau L)^-1)^(2^squarings), tau = dt / 2^squarings, from a
    dense generator, np.linalg.inv and np.linalg.matrix_power."""
    n = op.weight.size
    L = (np.diag(op.diag) + np.diag(op.off, 1) + np.diag(op.off, -1)) / op.weight[:, None]
    R = np.linalg.inv(np.eye(n) - dt / 2**squarings * L)
    return np.linalg.matrix_power(R, 2**squarings)


def muscl_step(state, dt, model, grid):
    """One MUSCL step from state, as a new State: the solver's MUSCL
    stepper for dt (which checks no transport limit) loaded with state.h
    and advanced once, and a copy of its density."""
    st = sv._stepper(model, grid, dt, True)
    st.load(state.h)
    st.advance()
    return sv.State(h=st.h.copy(), t=state.t + dt)


def step_reference(h, dt, model, grid, order2=False):
    """One Strang step: the default one through full complex FFTs and a
    dense propagator, or MUSCL with roll-based transport and a banded
    solve."""
    op, v = sv._op(model, grid), sv._node_geometry(model, grid).v
    if not order2:
        h = shift_reference(h, v, 0.5 * dt)
        h = h @ propagator_reference(op, dt, sv._SQUARINGS).T
        return shift_reference(h, v, 0.5 * dt)
    nu = v * (0.5 * dt / grid.dx)
    h = advect_reference(h, nu)
    h = diffusion_solve_reference(op, h, dt)
    return advect_reference(h, nu)


def functionals_reference(state, model, grid, certificate=None):
    """solver.functionals as the plain formula, each term a new array, in
    the samples' (Np, Nx) layout: the x derivative as irfft(2 pi i k
    rfft(h)), the p derivative by np.gradient, and each column a dot
    product with the weights w = mu dx, with r = w g^pp / max(h, floor)
    and y = v' dh/dx in Ipp = <r dh/dp, dh/dp>, Ixp = <r dh/dp, y> and
    Ixx = <r y, y>."""
    geo = sv._node_geometry(model, grid)
    h, nx = state.h.T, grid.Nx
    ik = 2j * np.pi * np.arange(nx // 2 + 1)
    if nx % 2 == 0:
        ik[-1] = 0.0
    dhx = np.fft.irfft(np.fft.rfft(h, axis=1) * ik, n=nx, axis=1)
    dhp = np.gradient(h, grid.dp, axis=0, edge_order=2)
    w = grid.mu_weights * grid.dx
    wf = np.broadcast_to(w[:, None], h.shape)
    m = float(np.vdot(h, wf))
    floor = sv.H_FLOOR_FRAC * max(m, np.finfo(float).tiny)
    q = h / m
    e = q - 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        phi = q * np.log1p(e) - e
    phi = np.where(h > 0.0, phi, 1.0)
    D = max(m * float(np.vdot(phi, wf)), 0.0)
    l1 = float(np.vdot(np.abs(h - m), wf))
    r = (w * geo.gpp)[:, None] / np.maximum(h, floor)
    y = dhx * geo.dv[:, None]
    Ipp = float(np.vdot(r * dhp, dhp))
    Ixp = float(np.vdot(r * dhp, y))
    Ixx = float(np.vdot(r * y, y))
    if certificate is None:
        emod = D
    else:
        emod = (
            certificate.k * D
            + certificate.a * Ipp
            + 2.0 * certificate.b * Ixp
            + certificate.c * Ixx
        )
    return {"t": state.t, "D": D, "Ipp": Ipp, "Ixp": Ixp, "Ixx": Ixx,
            "Emod": emod, "mass": m, "l1_dist": l1}


def _times(eps, coef):
    # eps*coef with the convention inf*0 = 0: an infinite epsilon only
    # appears next to a vanishing term.
    if coef == 0.0:
        return 0.0
    return eps * coef


def _inv(eps):
    return 0.0 if math.isinf(eps) else 1.0 / eps


def lemma_bounds_rhs(eps, sigma1, sigma2, beta, gamma, omega):
    """Production-bound coefficient table for arbitrary split constants.

    The reference that certificate.epsilon_defaults' choice is checked
    against.  Returns {row: 4-tuple} with rows dIpp, dIxp, dIxx and
    columns in the order (Ixx, Ipp, Qpp, Qxp): each row bounds the time
    derivative of one entropy functional from above.  All epsilons must
    be positive; inf marks a skipped split (see certificate.EpsilonChoice).
    """
    e = list(eps.eps) if isinstance(eps, EpsilonChoice) else list(eps)
    if len(e) != 10:
        raise ValueError("expected 10 epsilon values")
    if any(not x > 0.0 for x in e):
        raise ValueError("epsilons must be positive")
    e1, e2, e3, e4, e5, e6, e7, e8, e9, e10 = e
    sigma = sigma2 - sigma1
    row_pp = (
        2.0 * e1,
        0.5 / e1 - 2.0 * sigma1,
        -2.0,
        0.0,
    )
    row_xp = (
        _times(e2, sigma) + _times(e3, sigma1) + 2.0 * _times(e5, gamma)
        + _times(e7, omega) + _times(e6, beta) - 1.0,
        0.25 * (sigma * _inv(e2) + sigma1 * _inv(e3) + _inv(e6) + _inv(e7)),
        2.0 * e4 + 0.5 * _inv(e5),
        0.5 / e4,
    )
    row_xx = (
        4.0 * _times(e8, gamma) + 0.5 / e9 + 2.0 * e9 * beta
        + 2.0 * e10 * omega + 0.5 / e10,
        0.0,
        0.0,
        _inv(e8) - 2.0,
    )
    return {"dIpp": row_pp, "dIxp": row_xp, "dIxx": row_xx}
