"""Acceptance gates for the whole package, one test per criterion.

Run with -v to get one pass/fail line per gate.  Each test pins the
documented tolerance and, where the gate carries a runtime budget,
asserts it.
"""

import time

import numpy as np
import pytest

from hypocert import assumptions as asm
from hypocert import cli
from hypocert import solver as sv
from hypocert.certificate import build_certificate, validate_certificate
from hypocert.errors import (
    ExprDomainError,
    ExprSyntaxError,
    InfeasibleRegion,
    UnknownIdentifier,
)
from hypocert.expressions import diff_expr, evaluate, parse_expr, to_string
from hypocert.geometry import bakry_emery_ricci, covariant_hessian, ricci
from hypocert.models import (
    builtin_classical,
    builtin_relativistic,
    log_weight_field,
)
from test_expressions import fd_derivative, random_safe_ast
from tests_support import expr_model_1d, product_blocks_reference, rel_points


def close(got, want, rel=1e-5, abs_=1e-8):
    """Elementwise |got - want| <= abs_ + rel |want|."""
    got = np.asarray(got)
    want = np.asarray(want)
    return bool(np.all(np.abs(got - want) <= abs_ + rel * np.abs(want)))


def test_01_relativistic_closed_forms():
    """Geometry engine matches every relativistic closed form."""
    t0 = time.monotonic()
    for theta in (1.0, 4.0, 40.0):
        model = builtin_relativistic(theta)
        orc = model.oracle
        P = rel_points(100, radius=3.0, seed=int(theta))

        pj = asm._PointJet(model, P)
        F = asm._forms(pj, ("A", "B", "C", "R"))
        assert close(F["A"], orc.form_A(P))
        assert close(F["B"], orc.form_B(P))
        assert close(F["C"], orc.form_C(P))
        assert close(F["R"], orc.form_R(P))

        logu = log_weight_field(model)
        for i, p in enumerate(P):
            assert close(ricci(model, p).entries, orc.ricci(P[i:i + 1])[0])
            assert close(
                covariant_hessian(model, logu, p).entries,
                orc.hess_log_u(P[i:i + 1])[0],
            )
            assert close(
                bakry_emery_ricci(model, p).entries, orc.bakry(P[i:i + 1])[0]
            )

        blocks = asm._product_blocks(pj)
        assert close(blocks["pp"], orc.ricci_G_pp(P) - orc.hess_logU_pp(P))
        assert close(blocks["xx"], orc.ricci_G_xx(P) - orc.hess_logU_xx(P))
        ref = product_blocks_reference(model, P)
        assert close(ref["ric_G"][:, :3, :3], orc.ricci_G_pp(P))
        assert close(ref["ric_G"][:, 3:, 3:], orc.ricci_G_xx(P))
        assert close(ref["hess_G_psi"][:, :3, :3], orc.hess_logU_pp(P))
        assert close(ref["hess_G_psi"][:, 3:, 3:], orc.hess_logU_xx(P))
    assert time.monotonic() - t0 < 10.0


def test_02_classical_constants(tmp_path):
    """check on the classical model reports the exact constant tuple."""
    out = tmp_path / "out"
    assert cli.main(["check", "--model", "classical",
                     "--output-dir", str(out)]) == 0
    kv = {}
    for line in (out / "assumptions.kv").read_text().splitlines():
        key, sep, val = line.partition("=")
        if sep:
            kv[key.strip()] = val.strip()
    assert abs(float(kv["sigma1"]) - 1.0) < 1e-8
    assert abs(float(kv["sigma2"]) - 1.0) < 1e-8
    assert abs(float(kv["beta"])) < 1e-8
    assert abs(float(kv["gamma"])) < 1e-8
    assert abs(float(kv["omega"])) < 1e-8


def test_03_theta_threshold():
    """Curvature gate: passes at theta 4, fails at 0.1 with the p = 0 witness."""
    t0 = time.monotonic()
    grid = asm.default_grid(3, radius=10.0, axis_points=21, quasi_points=2000)
    ok = asm.curvature_bounds(builtin_relativistic(4.0), grid)
    assert ok.sigma1 > 0.0
    bad = asm.curvature_bounds(builtin_relativistic(0.1), grid)
    assert bad.sigma1 <= -3.0
    wit = bad.witnesses["min"]
    assert wit.value <= -3.0
    assert np.linalg.norm(wit.point) < 1e-9
    assert time.monotonic() - t0 < 30.0


def test_04_certificate_validity():
    """Classical certificate strict; 200 random tuples certify or refuse."""
    cert = build_certificate(1.0, 1.0, 0.0, 0.0, 0.0, alpha=1.0)
    assert cert.valid
    assert all(cert.conditions.values())
    assert cert.b <= np.sqrt(cert.a * cert.c)
    assert cert.d > 0.0
    assert cert.lam is not None and cert.lam > 0.0
    ok, conds = validate_certificate(cert)
    assert ok and all(conds.values())

    rng = np.random.default_rng(2024)
    n_valid = n_refused = 0
    for _ in range(200):
        sigma1 = rng.uniform(-0.5, 3.0)
        sigma2 = sigma1 + rng.uniform(0.0, 3.0) if sigma1 > 0 else abs(sigma1)
        beta, gamma, omega = rng.uniform(0.0, 3.0, 3) * (rng.random(3) > 0.2)
        alpha = rng.uniform(0.2, 2.0)
        try:
            c = build_certificate(sigma1, sigma2, beta, gamma, omega, alpha=alpha)
        except InfeasibleRegion:
            assert sigma1 <= 0.0
            n_refused += 1
            continue
        assert c.valid, (sigma1, sigma2, beta, gamma, omega)
        recheck, _ = validate_certificate(c)
        assert recheck
        assert c.lam > 0.0
        n_valid += 1
    assert n_valid >= 100 and n_refused >= 10


def test_05_homogeneous_decay_rate():
    """Uniform-in-x Gaussian-ratio datum decays at the spectral rate 2."""
    t0 = time.monotonic()
    model = builtin_classical(1)
    grid = sv.build_grid(model, 8, 256, 8.0)
    series = sv.run(
        model, grid,
        lambda X, P: np.exp(P - 0.5),
        tmax=2.0, sample_dt=0.05, dt=1e-4,
    )
    rate, r2 = sv.fit_rate(series)
    assert rate >= 1.9
    assert r2 > 0.99
    assert time.monotonic() - t0 < 60.0


def test_06_kinetic_decay_corroboration():
    """Full kinetic run: conservation, monotonicity, certified envelope."""
    t0 = time.monotonic()
    model = builtin_classical(1)
    cert = build_certificate(1.0, 1.0, 0.0, 0.0, 0.0, alpha=1.0)
    grid = sv.build_grid(model, 64, 128, 8.0)
    series = sv.run(
        model, grid,
        lambda X, P: 1.0 + 0.5 * np.cos(2.0 * np.pi * X),
        tmax=10.0, sample_dt=0.05, certificate=cert,
    )
    assert np.max(np.abs(series.mass - series.mass[0])) < 1e-10
    assert np.all(np.diff(series.D) <= 1e-12 * max(series.D[0], 1.0))
    envelope = series.Emod * np.exp(0.9 * cert.lam * series.times)
    assert np.all(np.diff(envelope) <= 1e-9 * envelope[0])
    assert series.decay_violations == []
    assert np.all(series.l1_dist <= np.sqrt(2.0 * series.D) + 1e-10)
    assert time.monotonic() - t0 < 120.0


def test_07_structural_identities():
    """Discrete duality exact; entropy-production residuals refine."""
    for model in (builtin_classical(1), builtin_relativistic(1.0, dim=1)):
        grid = sv.build_grid(model, 8, 96, 8.0)
        op = sv.diffusion_matrix(model, grid)
        rng = np.random.default_rng(3)
        for _ in range(100):
            f = rng.uniform(0.1, 2.0, (1, grid.Np))
            h = rng.uniform(0.1, 2.0, (1, grid.Np))
            lf = op.apply(f)
            lh = op.apply(h)
            sym = float(np.sum(f * lh * grid.mu_weights)
                        - np.sum(h * lf * grid.mu_weights))
            stokes = float(np.sum(lh * grid.mu_weights))
            assert abs(sym) < 1e-12
            assert abs(stokes) < 1e-12

        def residuals(nx, np_, dt, model=model):
            g = sv.build_grid(model, nx, np_, 8.0)
            X, P = np.meshgrid(g.x_nodes, g.p_nodes, indexing="ij")
            h = np.exp(0.4 * np.sin(2 * np.pi * X) * np.exp(-(P**2) / 4.0)
                       + 0.3 * np.exp(-((P - 1.0) ** 2) / 2.0))
            st = sv.initial_state(model, g, h)
            return sv.entropy_production_diagnostics(st, model, g, dt=dt)

        coarse = residuals(32, 64, 1.5e-3)
        fine = residuals(64, 128, 7.5e-4)
        for row in ("dD", "dIpp", "dIxp", "dIxx"):
            assert fine[row]["residual"] < coarse[row]["residual"], (
                model.name, row)


def test_08_l1_contraction():
    """Twenty random pairs of states: L1 distance never increases."""
    model = builtin_classical(1)
    grid = sv.build_grid(model, 24, 48, 6.0)
    w = grid.mu_weights * grid.dx
    rng = np.random.default_rng(41)
    for _ in range(20):
        s1 = sv.State(h=rng.uniform(0.1, 2.0, (grid.Nx, grid.Np)), t=0.0)
        s2 = sv.State(h=rng.uniform(0.1, 2.0, (grid.Nx, grid.Np)), t=0.0)
        dist = [float(np.sum(np.abs(s1.h - s2.h) * w))]
        for _ in range(15):
            s1 = sv.step(s1, 2e-3, model, grid)
            s2 = sv.step(s2, 2e-3, model, grid)
            dist.append(float(np.sum(np.abs(s1.h - s2.h) * w)))
        assert np.all(np.diff(dist) <= 1e-10)


def test_09_hormander_and_growth_gates():
    """Span and far-field gates pass where due, fail the quartic metric."""
    grid3 = asm.default_grid(3, radius=10.0, axis_points=11, quasi_points=500)
    classical = asm.hormander_check(builtin_classical(3), grid3)
    assert classical.ok
    assert classical.min_absdetF == 1.0
    relativistic = asm.hormander_check(builtin_relativistic(4.0), grid3)
    assert relativistic.ok
    assert relativistic.min_absdetF > 0.0

    assert asm.growth_check(builtin_classical(3)).ok
    assert asm.growth_check(builtin_relativistic(4.0)).ok
    assert not asm.growth_check(expr_model_1d("p1^-4", "p1^2/2")).ok


def test_10_parser_roundtrip_and_derivatives():
    """500 ASTs survive print/parse; symbolic derivative matches FD."""
    rng = np.random.default_rng(7)
    for _ in range(500):
        ast = random_safe_ast(rng, depth=int(rng.integers(1, 5)))
        pts = rng.uniform(-1.0, 1.0, (20, 3))
        theta = 1.3
        # print/parse is a fixed point and preserves values
        back = parse_expr(to_string(ast))
        printed = to_string(back)
        assert to_string(parse_expr(printed)) == printed
        np.testing.assert_allclose(
            evaluate(back, pts, theta=theta), evaluate(ast, pts, theta=theta),
            rtol=1e-15,
        )
        k = int(rng.integers(1, 4))
        sym = evaluate(diff_expr(ast, k), pts, theta=theta)
        fd = fd_derivative(ast, pts, k, theta=theta)
        assert np.all(np.abs(sym - fd) <= 1e-6 * (1.0 + np.abs(fd)))

    for bad in (")", "1 +", "p1 ^", "(p1", "1..2", "", "p1 @ 2", "exp()"):
        with pytest.raises(ExprSyntaxError) as info:
            parse_expr(bad)
        assert isinstance(info.value.position, int)
        assert info.value.position >= 0

    # arbitrary garbage may be rejected for syntax or unknown names,
    # but must never escape the package's error types
    chars = "p1x2 +-*/^()., thetaqz#"
    for _ in range(200):
        src = "".join(rng.choice(list(chars), size=rng.integers(1, 30)))
        try:
            parse_expr(src)
        except (ExprSyntaxError, UnknownIdentifier, ExprDomainError):
            pass


def test_11_relativistic_certified_rates(tmp_path):
    """Low-temperature relativistic models get a finite certified rate."""
    t0 = time.monotonic()
    out = tmp_path / "rel3d"
    assert cli.main(["certify", "--model", "relativistic", "--theta", "30",
                     "--scan-resolution", "5", "--scan-count", "100",
                     "--output-dir", str(out)]) == 0
    kv = {}
    for name in ("assumptions.kv", "certificate.kv"):
        for line in (out / name).read_text().splitlines():
            key, sep, val = line.partition("=")
            if sep:
                kv[key.strip()] = val.strip()
    assert 0.0 < float(kv["alpha"]) < np.inf
    assert 0.0 < float(kv["lambda"]) < np.inf

    out = tmp_path / "rel1d"
    assert cli.main(["simulate", "--model", "relativistic", "--dim", "1",
                     "--theta", "10", "--tmax", "2",
                     "--output-dir", str(out)]) == 0
    summary = {}
    for line in (out / "summary.txt").read_text().splitlines():
        key, sep, val = line.partition("=")
        if sep:
            summary[key.strip()] = val.strip()
    assert 0.0 < float(summary["lambda_cert"]) < np.inf
    assert summary["decay_bound"].startswith("pass")
    assert time.monotonic() - t0 < 30.0
