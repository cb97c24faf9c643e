"""Bilinear forms, assumption scans, and log-Sobolev criteria."""

import functools
import math
import weakref

import numpy as np
import pytest
import scipy.linalg
from scipy.stats import qmc

from hypocert import assumptions as asm
from hypocert import fields
from hypocert import geometry as geom
from hypocert.errors import DegenerateA, ExprDomainError, MetricError
from hypocert.expressions import parse_expr
from hypocert.fields import ExprMetricField, ExprScalarField
from hypocert.models import ModelSpec, builtin_classical, builtin_relativistic

from tests_support import (
    conformal_logsob_reference,
    conformal_model_2d,
    count_builder_dags,
    expr_model_1d,
    fd_model,
    halton_ball_reference,
    product_blocks_reference,
    rel_points,
)


def small_grid(dim=3, radius=3.0, axis_points=5, quasi_points=64, seed=asm.DEFAULT_SEED):
    return asm.default_grid(dim, radius=radius, axis_points=axis_points,
                            quasi_points=quasi_points, seed=seed)


FORMS = ("A", "B", "C", "R")


def rel_err(got, want):
    scale = max(np.max(np.abs(want)), 1e-300)
    return np.max(np.abs(got - want)) / scale


# ---------------------------------------------------------------------------
# Velocity bilinear forms


class TestFormsClassical:
    def test_identity_and_zero(self):
        for dim in (1, 2, 3):
            m = builtin_classical(dim)
            P = rel_points(40, dim=dim, seed=dim)
            F = asm._forms(asm._PointJet(m, P), FORMS)
            eye = np.broadcast_to(np.eye(dim), (40, dim, dim))
            assert np.array_equal(F["A"], eye)
            assert np.max(np.abs(F["B"])) == 0.0
            assert np.max(np.abs(F["C"])) == 0.0
            assert np.max(np.abs(F["R"])) == 0.0

    def test_requested_kinds_only(self):
        m = builtin_classical(2)
        F = asm._forms(asm._PointJet(m, rel_points(5, dim=2)), ("A",))
        assert set(F) == {"A"}


class TestFormsRelativistic:
    @pytest.mark.parametrize("theta", [1.0, 4.0, 40.0])
    def test_matches_closed_forms(self, theta):
        m = builtin_relativistic(theta)
        orc = m.oracle
        P = rel_points(100, radius=3.0, seed=int(theta))
        F = asm._forms(asm._PointJet(m, P), FORMS)
        assert rel_err(F["A"], orc.form_A(P)) < 1e-10
        assert rel_err(F["B"], orc.form_B(P)) < 1e-10
        assert rel_err(F["C"], orc.form_C(P)) < 1e-10
        assert rel_err(F["R"], orc.form_R(P)) < 1e-10

    def test_single_point_wrapper(self):
        m = builtin_relativistic(4.0)
        pj = asm._PointJet(m, np.array([[1.0, 0.0, 0.0]]))
        A = asm._forms(pj, ("A",))["A"][0]
        assert A.shape == (3, 3)
        r2 = 2.0 ** 1.5
        want = np.diag([1.0 / (2.0 * r2), 1.0 / r2, 1.0 / r2])
        np.testing.assert_allclose(A, want, atol=1e-14)

    def test_gram_forms_are_psd(self):
        m = builtin_relativistic(4.0)
        P = rel_points(60, radius=4.0, seed=2)
        F = asm._forms(asm._PointJet(m, P), FORMS)
        for kind in ("A", "B", "C", "R"):
            eigs = np.linalg.eigvalsh(F[kind])
            assert eigs.min() > -1e-12

    def test_fd_route_agrees(self):
        m = builtin_relativistic(4.0)
        P = rel_points(20, radius=2.5, seed=3)
        Fa = asm._forms(asm._PointJet(m, P), FORMS)
        Ff = asm._forms(asm._PointJet(fd_model(m), P), FORMS)
        assert rel_err(Ff["A"], Fa["A"]) < 1e-6
        assert rel_err(Ff["C"], Fa["C"]) < 1e-6
        assert rel_err(Ff["R"], Fa["R"]) < 1e-6
        # B carries third derivatives; the stencil noise floor is higher.
        assert rel_err(Ff["B"], Fa["B"]) < 2e-4


class TestDifferentialIdentities:
    """Coordinate-free identities the forms machinery relies on."""

    def setup_method(self):
        self.m = builtin_relativistic(4.0)
        self.P = rel_points(20, radius=2.0, seed=9)
        self.jet = geom.batch_jet(self.m, self.P)
        vfs = self.m.v_fields
        self.f1, self.f2 = vfs[0], vfs[1]
        rng = np.random.default_rng(31)
        self.Y = rng.normal(size=self.P.shape)

    def _grad_pair(self, f):
        d = f.grad(self.P)
        h = f.hess(self.P)
        up = np.einsum("nij,nj->ni", self.jet.g_inv, d)
        dup = (
            np.einsum("nkij,nj->nki", self.jet.dg_inv, d)
            + np.einsum("nij,nkj->nki", self.jet.g_inv, h)
        )
        return d, h, up, dup

    def test_weighted_product_rule(self):
        # div(f Z) = g(grad f, Z) + f div Z
        jet = self.jet
        d1, _, _, _ = self._grad_pair(self.f1)
        _, _, Z, dZ = self._grad_pair(self.f2)
        fvals = self.f1.value(self.P)
        fZ = fvals[:, None] * Z
        dfZ = d1[:, :, None] * Z[:, None, :] + fvals[:, None, None] * dZ
        lhs = geom.divergence_vec_from_jet(jet, fZ, dfZ)
        rhs = (
            np.einsum("ni,ni->n", d1, Z)
            + fvals * geom.divergence_vec_from_jet(jet, Z, dZ)
        )
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-11)

    def test_gradient_tensor_divergence(self):
        # g(div(grad f1 x grad f2), Y) =
        #   Hess f1(grad f2, Y) + (lap f2) g(grad f1, Y)
        jet = self.jet
        d1, h1, u1, du1 = self._grad_pair(self.f1)
        d2, h2, u2, du2 = self._grad_pair(self.f2)
        T = u1[:, :, None] * u2[:, None, :]
        dT = du1[:, :, :, None] * u2[:, None, None, :] + \
            u1[:, None, :, None] * du2[:, :, None, :]
        div = geom.divergence_tensor2_from_jet(jet, T, dT)
        lhs = np.einsum("nij,ni,nj->n", jet.g, div, self.Y)
        H1 = geom.covariant_hessian_from_jet(jet, d1, h1)
        lap2 = geom.laplace_from_jet(jet, d2, h2)
        rhs = (
            np.einsum("nab,na,nb->n", H1, u2, self.Y)
            + lap2 * np.einsum("na,na->n", d1, self.Y)
        )
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-11)

    def test_hessian_divergence_vs_laplacian_gradient(self):
        # div Hess f = grad(lap f) + Ric . grad f, with both slots raised.
        m = builtin_relativistic(4.0)
        P = rel_points(10, radius=2.0, seed=13)
        pj = asm._PointJet(m, P)
        jet = pj.jet
        f = m.v_fields[0]
        lhs = asm._div_hessians(pj)[:, 0, :]

        def lap_at(Q):
            j = geom.batch_jet(m, Q)
            return geom.laplace_from_jet(j, f.grad(Q), f.hess(Q))

        h = 1e-3
        dlap = np.zeros_like(P)
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            dlap[:, k] = (
                8 * (lap_at(P + e) - lap_at(P - e))
                - (lap_at(P + 2 * e) - lap_at(P - 2 * e))
            ) / (12 * h)
        ric = geom.ricci_from_jet(jet)
        rhs = np.einsum("nij,nj->ni", jet.g_inv, dlap) + np.einsum(
            "nij,njk,nk->ni", jet.g_inv, ric, np.einsum(
                "nij,nj->ni", jet.g_inv, f.grad(P))
        )
        np.testing.assert_allclose(lhs, rhs, rtol=1e-7, atol=1e-9)


# ---------------------------------------------------------------------------
# Scan grids


class TestScanGrids:
    def test_default_grid_metadata(self):
        grid = asm.default_grid(2, radius=2.0, axis_points=5, quasi_points=20)
        assert grid.radius == 2.0
        assert grid.count > 20
        assert np.all(np.sum(grid.points**2, axis=1) <= 4.0 + 1e-12)
        assert "Halton" in grid.description

    def test_lattice_nesting(self):
        coarse = asm._lattice_ball(2, 2.0, 5)
        fine = asm._lattice_ball(2, 2.0, 9)
        fine_set = {tuple(np.round(p, 12)) for p in fine}
        assert all(tuple(np.round(p, 12)) in fine_set for p in coarse)

    def test_halton_prefix_superset(self):
        a = asm._halton_ball(2, 2.0, 50, seed=11)
        b = asm._halton_ball(2, 2.0, 100, seed=11)
        np.testing.assert_array_equal(a, b[:50])

    def test_halton_batches_sized_to_the_ball(self, monkeypatch):
        # A batch draws the missing points over the ball's share of the
        # cube: all of it in 1D, pi / 6 in 3D, and at least 256.
        asked, halton = [], asm._halton
        monkeypatch.setattr(asm, "_halton", lambda perms, start, n: (
            asked.append(n), halton(perms, start, n))[1])
        for dim, count, want in ((1, 2000, [2000]), (1, 40, [256]),
                                 (3, 2000, [math.ceil(2000 * 6 / math.pi)])):
            asked.clear()
            asm._halton_ball(dim, 10.0, count, asm.DEFAULT_SEED)
            assert asked == want
        asked.clear()
        asm._halton_ball(2, 10.0, 2000, asm.DEFAULT_SEED)
        assert asked[0] == math.ceil(2000 * 4 / math.pi) and sum(asked) < 4000

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("seed", [asm.DEFAULT_SEED, 0, 11])
    def test_halton_matches_scipy_bit_for_bit(self, dim, seed):
        perms = asm._halton_permutations(dim, seed)
        for n in (1, 7, 400, 8000):
            engine = qmc.Halton(d=dim, scramble=True, seed=seed)
            np.testing.assert_array_equal(asm._halton(perms, 0, n),
                                          engine.random(n))
        # One stream drawn in two parts continues where the first stopped.
        engine = qmc.Halton(d=dim, scramble=True, seed=seed)
        first, second = engine.random(300), engine.random(500)
        np.testing.assert_array_equal(asm._halton(perms, 0, 300), first)
        np.testing.assert_array_equal(asm._halton(perms, 300, 500), second)

    @pytest.mark.parametrize("radius", [1.0, 10.0])
    def test_halton_ball_matches_scipy_engine(self, radius):
        for dim, count in ((1, 40), (3, 133), (3, 2000)):
            np.testing.assert_array_equal(
                asm._halton_ball(dim, radius, count, asm.DEFAULT_SEED),
                halton_ball_reference(dim, radius, count, asm.DEFAULT_SEED),
            )

    def test_dimension_mismatch_rejected(self):
        m = builtin_classical(3)
        with pytest.raises(ValueError, match="dimension"):
            asm.curvature_bounds(m, grid=small_grid(dim=2))

    def test_raw_point_array_accepted(self):
        m = builtin_classical(2)
        cb = asm.curvature_bounds(m, grid=rel_points(10, dim=2))
        assert cb.sigma1 == pytest.approx(1.0, abs=1e-12)

    def test_raw_point_array_radius_is_ball_radius(self):
        pts = np.array([[3.0, 4.0], [0.0, 0.0]])
        rep = asm.check_model(builtin_classical(2), pts)
        assert rep.grid_radius == 5.0

    @pytest.mark.parametrize("kwargs", [
        {"radius": 0.0}, {"radius": -1.0}, {"radius": math.inf},
        {"radius": math.nan}, {"axis_points": -1}, {"quasi_points": -5},
    ])
    def test_bad_grid_parameters_rejected(self, kwargs):
        # A NaN radius used to loop forever: every Halton point failed
        # the ball test.
        with pytest.raises(ValueError, match="scan"):
            asm.default_grid(2, **kwargs)

    def test_empty_grid_rejected(self):
        m = builtin_classical(2)
        for grid in (asm.default_grid(2, axis_points=0, quasi_points=0),
                     np.empty((0, 2))):
            with pytest.raises(ValueError, match="no points"):
                asm.check_model(m, grid)


# ---------------------------------------------------------------------------
# Curvature bounds


class TestCurvatureBounds:
    def test_classical_exact(self):
        m = builtin_classical(3)
        cb = asm.curvature_bounds(m, small_grid())
        assert abs(cb.sigma1 - 1.0) < 1e-12
        assert abs(cb.sigma2 - 1.0) < 1e-12
        assert cb.failures == ()
        assert cb.shift == 0.0

    def test_relativistic_theta4(self):
        m = builtin_relativistic(4.0)
        cb = asm.curvature_bounds(m, small_grid())
        assert cb.sigma1 == pytest.approx(0.5, abs=1e-9)
        assert np.linalg.norm(cb.witnesses["min"].point) < 1e-12
        assert cb.sigma2 > cb.sigma1

    def test_relativistic_theta01_fails_with_witness(self):
        m = builtin_relativistic(0.1)
        cb = asm.curvature_bounds(m, small_grid())
        assert cb.sigma1 <= -3.0
        w = cb.witnesses["min"]
        assert w.value == cb.sigma1
        assert "sigma1@" in str(w)

    def test_matches_oracle_pencil_on_grid(self):
        grid = small_grid()
        m = builtin_relativistic(4.0)
        cb = asm.curvature_bounds(m, grid)
        orc = m.oracle
        L, _ = asm._factor(orc.metric(grid.points))
        (eigs,) = asm._pencil_eigs(L, orc.bakry(grid.points))
        assert cb.sigma1 == pytest.approx(float(eigs[:, 0].min()), abs=1e-9)
        assert cb.sigma2 == pytest.approx(float(eigs[:, -1].max()), abs=1e-9)

    def test_refinement_monotone(self):
        m = builtin_relativistic(4.0)
        coarse = small_grid(axis_points=5, quasi_points=50, seed=11)
        fine = small_grid(axis_points=9, quasi_points=100, seed=11)
        a = asm.curvature_bounds(m, coarse)
        b = asm.curvature_bounds(m, fine)
        assert b.sigma1 <= a.sigma1 + 1e-12
        assert b.sigma2 >= a.sigma2 - 1e-12


# ---------------------------------------------------------------------------
# Dominance constants


class TestDominanceConstants:
    def test_classical_zero(self):
        m = builtin_classical(3)
        dom = asm.dominance_constants(m, small_grid())
        assert dom.beta == 0.0
        assert dom.gamma == 0.0
        assert dom.omega == 0.0

    def test_relativistic_finite_positive(self):
        m = builtin_relativistic(4.0)
        dom = asm.dominance_constants(m, small_grid())
        for val in (dom.beta, dom.gamma, dom.omega):
            assert math.isfinite(val) and val > 0.0
        assert set(dom.witnesses) == {"beta", "gamma", "omega"}

    def test_beta_at_origin_matches_closed_form(self):
        # B(0) = (11/2)^2 delta and A(0) = delta, so the origin
        # contributes exactly 30.25 to the beta scan.
        m = builtin_relativistic(4.0)
        dom = asm.dominance_constants(m, small_grid())
        assert dom.beta == pytest.approx(30.25, abs=1e-8)
        assert np.linalg.norm(dom.witnesses["beta"].point) < 1e-12

    def test_refinement_monotone(self):
        m = builtin_relativistic(4.0)
        coarse = small_grid(axis_points=5, quasi_points=50, seed=11)
        fine = small_grid(axis_points=9, quasi_points=100, seed=11)
        a = asm.dominance_constants(m, coarse)
        b = asm.dominance_constants(m, fine)
        assert b.beta >= a.beta - 1e-12
        assert b.gamma >= a.gamma - 1e-12
        assert b.omega >= a.omega - 1e-12

    def test_degenerate_gram_raises(self):
        m = expr_model_1d("1", "p1^2/2", v1="2")
        with pytest.raises(DegenerateA):
            asm.dominance_constants(m, np.linspace(-1, 1, 5)[:, None])


# ---------------------------------------------------------------------------
# Hypoellipticity and growth


class TestHormander:
    def test_classical_exactly_one(self):
        m = builtin_classical(3)
        res = asm.hormander_check(m, small_grid())
        assert res.ok
        assert res.min_absdetF == pytest.approx(1.0, abs=1e-12)

    def test_relativistic_positive(self):
        m = builtin_relativistic(4.0)
        res = asm.hormander_check(m, small_grid())
        assert res.ok
        assert 0.0 < res.min_absdetF < 1.0
        # det F = p0^-4 pointwise; the witness must satisfy it.
        p0sq = 1.0 + np.sum(res.witness.point ** 2)
        assert res.min_absdetF == pytest.approx(p0sq ** -2, rel=1e-10)

    def test_constant_velocity_fails(self):
        m = expr_model_1d("1", "p1^2/2", v1="2")
        res = asm.hormander_check(m, np.linspace(-1, 1, 5)[:, None])
        assert not res.ok
        assert res.min_absdetF == 0.0

    def test_failed_point_jet_raises(self):
        # det F = 1 everywhere, but the energy derivatives of sqrt(p1)
        # fail at p = -1, so that point's point jet does too.
        m = expr_model_1d("1", "sqrt(p1)")
        with pytest.raises(ExprDomainError, match=r"at p = \[-1\.\]"):
            asm.hormander_check(m, np.array([[0.5], [-1.0], [1.0]]))


class TestGrowth:
    def test_classical_ok(self):
        m = builtin_classical(3)
        res = asm.growth_check(m)
        assert res.ok
        np.testing.assert_allclose(
            res.ratios, [1.0 / r**2 for r in res.radii], rtol=1e-12
        )

    def test_relativistic_ok(self):
        res = asm.growth_check(builtin_relativistic(4.0))
        assert res.ok

    def test_quartic_inverse_metric_fails(self):
        # g^11 = p^4 grows faster than |p|^2: the ratio increases.
        m = expr_model_1d("p1^-4", "p1^2/2")
        res = asm.growth_check(m)
        assert not res.ok

    def test_failure_keeps_the_ratios_below_the_failing_radius(self):
        # g = 1 / sqrt(400 - p^2) leaves its domain past |p| = 20: the
        # probe fails at r = 31.6 and keeps the six ratios for r = 1 ... 17.8
        m = expr_model_1d("1/sqrt(400 - p1^2)", "p1^2/2")
        res = asm.growth_check(m)
        assert not res.ok
        assert res.radii[5] < 20.0 < res.radii[6]
        r = np.array(res.radii[:6])
        np.testing.assert_allclose(res.ratios, np.sqrt(400.0 - r**2) / r**2,
                                   rtol=1e-14)

    def test_radii_validation(self):
        m = builtin_classical(1)
        with pytest.raises(ValueError, match="increasing"):
            asm.growth_check(m, radii=[1.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="decade"):
            asm.growth_check(m, radii=[1.0, 2.0, 5.0])


# ---------------------------------------------------------------------------
# Log-Sobolev criteria


class TestWarpedRoute:
    def test_classical_unit_alpha(self):
        m = builtin_classical(3)
        wr = asm.logsob_warped(m, small_grid())
        assert wr.ok
        assert wr.kappa1 == pytest.approx(1.0, abs=1e-10)
        assert wr.kappa2 == 0.0
        assert wr.alpha == pytest.approx(1.0, abs=1e-10)

    def test_flat_1d_against_direct_formulas(self):
        # v' = 1 - 0.4 p e^{-p^2} stays positive, so A = (v')^2 defines
        # an isotropic conformal factor with explicit derivatives.
        m = expr_model_1d("1", "p1^2/2", v1="p1 + 0.2*exp(-p1^2)")
        pts = np.linspace(-3.0, 3.0, 41)[:, None]
        wr = asm.logsob_warped(m, pts)

        p = pts[:, 0]
        w = 1.0 - 0.4 * p * np.exp(-p * p)
        wp = -0.4 * np.exp(-p * p) * (1.0 - 2.0 * p * p)
        wpp = 0.4 * np.exp(-p * p) * (6.0 * p - 4.0 * p**3)
        phi_p = 2.0 * wp / w
        phi_pp = 2.0 * (wpp * w - wp * wp) / (w * w)
        cond1 = 1.0 - 0.25 * phi_p**2
        scalar = -0.5 * (phi_pp - p * phi_p)
        assert wr.kappa1 == pytest.approx(float(cond1.min()), abs=1e-9)
        assert wr.kappa2 == pytest.approx(max(0.0, float(scalar.max())), abs=1e-9)
        if wr.ok:
            assert wr.alpha == pytest.approx(wr.kappa1 - wr.kappa2, abs=1e-12)

    def test_conformal_2d_accepted(self):
        m = conformal_model_2d()
        wr = asm.logsob_warped(m, small_grid(dim=2, radius=2.0, quasi_points=32))
        assert math.isfinite(wr.kappa1)
        assert wr.kappa2 >= 0.0


CONFORMAL_MODELS = {
    "classical1": lambda: builtin_classical(1),
    "classical3": lambda: builtin_classical(3),
    "conformal2d": conformal_model_2d,
    "flat1d": lambda: expr_model_1d("1", "p1^2/2", v1="p1 + 0.2*exp(-p1^2)"),
    "rel10-1d": lambda: builtin_relativistic(10.0, dim=1),
}


class TestTraceMinorant:
    """The criterion on t I with t = 1 / tr(A^-1), for every Gram form."""

    @pytest.mark.parametrize("name", sorted(CONFORMAL_MODELS))
    def test_conformal_models_unchanged(self, name):
        # Where A is conformal, t is A / N and the integrands are those
        # of phi = log(tr A / N).
        m = CONFORMAL_MODELS[name]()
        P = rel_points(60, radius=2.5, seed=11, dim=m.dim)
        vals, _ = asm._logsob(asm._PointJet(m, P))
        k1, k2 = vals["kappa1"], vals["kappa2"]
        r1, r2 = conformal_logsob_reference(m, P)
        assert rel_err(k1, r1) < 1e-12
        assert rel_err(k2, r2) < 1e-12
        wr = asm.logsob_warped(m, P)
        assert wr.kappa1 == pytest.approx(float(r1.min()), rel=1e-12)
        assert wr.kappa2 == pytest.approx(max(0.0, float(r2.max())), rel=1e-12)

    @pytest.mark.parametrize("theta", [4.0, 30.0])
    def test_relativistic_against_independent_reference(self, theta):
        # tr A^-1 = tr G_xx = p0^3 (3 + |p|^2), so phi = -log of that;
        # its derivatives come from an expression field and the
        # geometry operations, the curvature from the oracle.
        m = builtin_relativistic(theta)
        orc = m.oracle
        P = rel_points(60, radius=3.0, seed=int(theta) + 3)
        p0, r2 = orc.p0(P), np.sum(P * P, axis=1)
        assert rel_err(np.einsum("nII->n", orc.G_xx(P)), p0**3 * (3.0 + r2)) < 1e-12
        phi = ExprScalarField(parse_expr(
            "-log(sqrt(1 + p1^2 + p2^2 + p3^2)^3 * (3 + p1^2 + p2^2 + p3^2))"), 3)
        dphi = phi.grad(P)
        cond1 = orc.bakry(P) - 0.75 * dphi[:, :, None] * dphi[:, None, :]
        want1 = np.array([scipy.linalg.eigh(F, G, eigvals_only=True)[0]
                          for F, G in zip(cond1, orc.metric(P))])
        # log u = -theta p0 - (1/2) log p0, since det g = p0
        dlogu = -(theta + 0.5 / p0)[:, None] * P / p0[:, None]
        grad_phi = geom.gradient_p(m, phi, P).entries
        want2 = -0.5 * (geom.laplace_beltrami(m, phi, P)
                        + np.sum(dlogu * grad_phi, axis=1))
        vals, _ = asm._logsob(asm._PointJet(m, P))
        k1, k2 = vals["kappa1"], vals["kappa2"]
        assert rel_err(k1, want1) < 1e-10
        assert rel_err(k2, want2) < 1e-10

    @pytest.mark.parametrize("theta", [4.0, 30.0, 400.0])
    def test_relativistic_kappa2_at_origin(self, theta):
        # dphi vanishes at p = 0 and -Lap phi / 2 is 11/2 for every theta.
        m = builtin_relativistic(theta)
        vals, _ = asm._logsob(asm._PointJet(m, np.zeros((1, 3))))
        assert vals["kappa2"][0] == pytest.approx(5.5, abs=1e-12)
        wr = asm.logsob_warped(m, small_grid())
        assert wr.kappa2 == pytest.approx(5.5, abs=1e-12)


def aniso_model_2d():
    """A 2D model with an off-diagonal metric and a non-isotropic Gram form."""
    metric = {(0, 0): "2 + p1^2", (0, 1): "0.3*p1*p2", (1, 1): "1 + p2^2 + 0.5*p1^2"}
    return ModelSpec(
        name="aniso2d",
        dim=2,
        metric_field=ExprMetricField(
            {ij: parse_expr(e) for ij, e in metric.items()}, 2),
        v_fields=(
            ExprScalarField(parse_expr("p1 + 0.1*p2"), 2),
            ExprScalarField(parse_expr("p2 + 0.05*p1^3"), 2),
        ),
        energy_field=ExprScalarField(parse_expr("(p1^2 + p2^2)/2 + 0.1*p1^4"), 2),
    )


PRODUCT_MODELS = {
    "rel1": lambda: builtin_relativistic(1.0),
    "rel4": lambda: builtin_relativistic(4.0),
    "rel40": lambda: builtin_relativistic(40.0),
    "rel4-1d": lambda: builtin_relativistic(4.0, dim=1),
    "classical": lambda: builtin_classical(3),
    "aniso2d": aniso_model_2d,
}


class TestProductRoute:
    @pytest.mark.parametrize("theta", [1.0, 4.0, 40.0])
    def test_blocks_match_closed_forms(self, theta):
        m = builtin_relativistic(theta)
        orc = m.oracle
        P = rel_points(60, radius=3.0, seed=int(theta) + 50)
        blocks = asm._product_blocks(asm._PointJet(m, P))
        assert rel_err(blocks["h"], orc.G_xx(P)) < 1e-10
        assert rel_err(blocks["g"], orc.metric(P)) < 1e-10
        assert rel_err(blocks["pp"], orc.ricci_G_pp(P) - orc.hess_logU_pp(P)) < 1e-10
        assert rel_err(blocks["xx"], orc.ricci_G_xx(P) - orc.hess_logU_xx(P)) < 1e-10
        ref = product_blocks_reference(m, P)
        assert rel_err(ref["ric_G"][:, :3, :3], orc.ricci_G_pp(P)) < 1e-10
        assert rel_err(ref["ric_G"][:, 3:, 3:], orc.ricci_G_xx(P)) < 1e-10
        assert rel_err(ref["hess_G_psi"][:, :3, :3], orc.hess_logU_pp(P)) < 1e-10
        assert rel_err(ref["hess_G_psi"][:, 3:, 3:], orc.hess_logU_xx(P)) < 1e-10
        assert np.max(np.abs(ref["ric_G"][:, :3, 3:])) < 1e-9
        assert np.max(np.abs(ref["hess_G_psi"][:, :3, 3:])) < 1e-9

    @pytest.mark.parametrize("name", sorted(PRODUCT_MODELS))
    def test_blocks_match_generic_reference(self, name):
        m = PRODUCT_MODELS[name]()
        P = rel_points(80, radius=3.0, seed=7, dim=m.dim)
        M = m.dim
        blocks = asm._product_blocks(asm._PointJet(m, P))
        ref = product_blocks_reference(m, P)
        form = ref["form"]
        assert rel_err(blocks["g"], ref["G"][:, :M, :M]) < 1e-12
        assert rel_err(blocks["h"], ref["G"][:, M:, M:]) < 1e-12
        assert rel_err(blocks["pp"], form[:, :M, :M]) < 1e-12
        assert rel_err(blocks["xx"], form[:, M:, M:]) < 1e-12
        assert np.max(np.abs(form[:, :M, M:])) <= 1e-12 * np.max(np.abs(form))

    @pytest.mark.parametrize("name", ["rel4", "aniso2d"])
    def test_alpha_is_min_eigenvalue_of_reference_pencil(self, name):
        m = PRODUCT_MODELS[name]()
        grid = small_grid(dim=m.dim)
        ref = product_blocks_reference(m, grid.points)
        lows = [scipy.linalg.eigh(F, G, eigvals_only=True)[0]
                for F, G in zip(ref["form"], ref["G"])]
        pr = asm.logsob_product(m, grid)
        assert pr.alpha == pytest.approx(min(lows), rel=1e-12, abs=1e-12)

    def test_classical_alpha_zero(self):
        m = builtin_classical(3)
        pr = asm.logsob_product(m, small_grid())
        assert not pr.ok
        assert pr.alpha == pytest.approx(0.0, abs=1e-10)

    def test_relativistic_obstructed_at_origin(self):
        # The x-block of Ric_G - Hess_G at p = 0 equals Ric_G alone and
        # its eigenvalue there is -11/2 whatever theta is, so the
        # criterion can never certify this model.
        for theta in (4.0, 400.0):
            m = builtin_relativistic(theta)
            pr = asm.logsob_product(m, small_grid())
            assert not pr.ok
            assert pr.alpha == pytest.approx(-5.5, abs=1e-9)
            assert np.linalg.norm(pr.witness.point) < 1e-12

    def test_pp_block_at_origin_matches_fiber_bound(self):
        # At p = 0 the momentum block of the criterion form reproduces
        # the fiber curvature bound theta - 3.5.
        theta = 7.0
        m = builtin_relativistic(theta)
        blocks = asm._product_blocks(asm._PointJet(m, np.zeros((1, 3))))
        np.testing.assert_allclose(
            np.diag(blocks["pp"][0]), (theta - 3.5) * np.ones(3), atol=1e-10
        )
        np.testing.assert_allclose(
            np.diag(blocks["xx"][0]), -5.5 * np.ones(3), atol=1e-10
        )


class TestGenEigHelpers:
    def test_no_shift_for_spd_base(self):
        rng = np.random.default_rng(0)
        Mf = rng.normal(size=(4, 3, 3))
        Mf = Mf + np.swapaxes(Mf, 1, 2)
        base = np.broadcast_to(np.eye(3), (4, 3, 3)).copy()
        L, shift = asm._factor(base)
        assert shift == 0.0
        (eigs,) = asm._pencil_eigs(L, Mf)
        np.testing.assert_allclose(
            eigs, np.linalg.eigvalsh(Mf), atol=1e-12
        )

    def test_shift_recorded_on_failure(self):
        Mf = np.eye(2)[None]
        base = np.diag([1.0, -1e-18])[None]
        L, shift = asm._factor(base)
        assert shift == asm.EIG_SHIFT
        assert np.all(np.isfinite(asm._pencil_eigs(L, Mf)))

    @pytest.mark.parametrize("S", [1, 3])
    def test_stacked_pencils_match_scipy(self, S):
        # forms on one factored base: each gets its own pencil's
        # eigenvalues, in the order given
        rng = np.random.default_rng(S)
        forms = [rng.normal(size=(5, S, S)) for _ in range(3)]
        forms = [F + np.swapaxes(F, 1, 2) for F in forms]
        B = rng.normal(size=(5, S, S))
        base = B @ np.swapaxes(B, 1, 2) + S * np.eye(S)
        L, _ = asm._factor(base)
        for F, eigs in zip(forms, asm._pencil_eigs(L, *forms)):
            want = [scipy.linalg.eigh(F[i], base[i], eigvals_only=True)
                    for i in range(5)]
            np.testing.assert_allclose(eigs, want, rtol=1e-12, atol=1e-12)

    def test_scan_eval_bisection(self, monkeypatch):
        # CHUNK 1 makes 1D chunks of 9 points: _point_jets yields the
        # chunk [-5, 3], then bisects the chunk [4, 12] down to its first
        # failing point and raises there.
        monkeypatch.setattr(asm, "CHUNK", 1)
        P = np.arange(-5.0, 13.0)[:, None]
        for g, first in (("(p1 - 4)^2", "4"), ("(p1 - 5)^2 * (p1 - 7)^2", "5")):
            jets = asm._point_jets(expr_model_1d(g, "p1^2/2"), P)
            assert np.array_equal(next(jets).P, P[:9])
            with pytest.raises(MetricError, match=rf"at p = \[{first}\.\]$"):
                next(jets)


# ---------------------------------------------------------------------------
# Point jets shared by the scans


class TestSharedPointJets:
    def test_check_model_builds_metric_hessian_once_per_chunk(self, monkeypatch):
        # d2g is one jet of the point-jet request to the model's jet
        # builder, whose program runs once per chunk; the metric field's
        # own hess is not called, and every program run is the builder's
        m = builtin_relativistic(4.0)
        grid = small_grid()
        assert grid.count <= asm.CHUNK
        hess = m.metric_field.hess
        calls, runs = [], []

        def counted(P):
            calls.append(P.shape[0])
            return hess(P)

        def counted_evaluate(tape, P, theta=None):
            runs.append((tape, P.shape[0]))
            return evaluate(tape, P, theta)

        evaluate = fields.evaluate
        m.metric_field.hess = counted
        monkeypatch.setattr(fields, "evaluate", counted_evaluate)
        asm.check_model(m, grid)
        jets = m._cache["jets"]
        (request,) = [r for r in jets._compiled if (0, 2) in r]
        tape, _ = jets._compiled[request]
        assert [rows for t, rows in runs if t is tape] == [grid.count]
        assert {t for t, _ in runs} <= {t for t, _ in jets._compiled.values()}
        assert calls == []

    def test_check_model_builds_one_dag(self, monkeypatch):
        # the point jets and the growth gate read the model's one builder
        dags = count_builder_dags(monkeypatch)
        asm.check_model(builtin_relativistic(4.0), small_grid())
        assert len(dags) == 1

    def test_check_model_bakry_and_gram_test_once_per_chunk(self, monkeypatch):
        # the curvature and log-Sobolev scans share one Bakry-Emery tensor,
        # the dominance and log-Sobolev scans one definiteness test of A
        calls = []
        bakry = geom.bakry_emery_from_jet
        gram_test = asm._PointJet.degenerate.func

        def counted_bakry(jet, grad_E, hess_E):
            calls.append("bakry")
            return bakry(jet, grad_E, hess_E)

        def counted_gram_test(pj):
            calls.append("A")
            return gram_test(pj)

        counted = functools.cached_property(counted_gram_test)
        counted.__set_name__(asm._PointJet, "degenerate")
        monkeypatch.setattr(asm._PointJet, "degenerate", counted)
        monkeypatch.setattr(geom, "bakry_emery_from_jet", counted_bakry)
        monkeypatch.setattr(asm, "CHUNK", 64)
        grid = small_grid()
        chunks = -(-grid.count // asm.CHUNK)
        assert chunks >= 2
        asm.check_model(builtin_relativistic(4.0), grid)
        assert calls == ["bakry", "A"] * chunks

    def test_default_1d_grid_is_one_chunk(self, monkeypatch):
        # CHUNK * 9 // M**2 points a chunk: the 2,041 points of the
        # default 1D grid, more than CHUNK, make one chunk, and a pass
        # over chunks of 144 points reports the same bits.
        m = builtin_relativistic(10.0, dim=1)
        grid = asm.default_grid(1)
        built = []

        class Counted(asm._PointJet):
            def __init__(self, model, P):
                built.append(P.shape[0])
                super().__init__(model, P)

        monkeypatch.setattr(asm, "_PointJet", Counted)
        one = asm.report_kv(asm.check_model(m, grid))
        assert built == [grid.count] == [2041]
        built.clear()
        monkeypatch.setattr(asm, "CHUNK", 16)
        many = asm.report_kv(asm.check_model(m, grid))
        assert built == [144] * 14 + [25]
        assert many == one

    def test_scan_values_do_not_depend_on_the_chunk(self):
        # A point's scan values are the same bits whether it is scanned
        # alone, in a 50-point chunk or in the whole 133-point chunk of
        # the check-rel3d grid.
        m = builtin_relativistic(4.0)
        P = asm.default_grid(3, axis_points=5, quasi_points=100).points
        scans = (asm._curvature, asm._dominance, asm._hormander, asm._logsob)

        def values(Q):
            pj = asm._PointJet(m, Q)
            return {name: [float(x).hex() for x in vals]
                    for scan in scans for name, vals in scan(pj)[0].items()}

        chunks = [(0, values(P)), (40, values(P[40:90]))]
        for i in (0, 7, 50, 132):
            alone = values(P[i:i + 1])
            for start, vals in chunks:
                if start <= i < start + len(vals["sigma1"]):
                    for name, want in vals.items():
                        assert alone[name] == [want[i - start]], (i, name)

    def test_check_model_factors_each_pencil_base_once(self, monkeypatch):
        # Per chunk: g is factored once, by jet_from_arrays, for every
        # pencil on base g, and A once for the three dominance pencils;
        # each factor is inverted once, and each scan that reduces
        # pencils makes one eigvalsh, and the Gram test one more.  No
        # scan solves a system: det g comes from g's factor, so the
        # Hormander scan takes one det, of dv.  The growth probe inverts
        # g once over all its radii.  The velocity Hessians are built
        # once per chunk, for the C and R forms and B's divergence.
        calls, built, hessians, inverted = [], [], [], []
        for name in ("cholesky", "solve", "eigvalsh", "inv", "det"):
            def counted(a, *args, _fn=getattr(np.linalg, name), _name=name):
                out = _fn(a, *args)
                calls.append((_name, a, out))
                return out
            monkeypatch.setattr(np.linalg, name, counted)
        hessian, tril_inverse = geom.covariant_hessian_from_jet, geom._tril_inverse

        def counted_hessian(jet, grad_f, hess_f):
            hessians.append(grad_f)
            return hessian(jet, grad_f, hess_f)

        def counted_inverse(L):
            inverted.append(L)
            return tril_inverse(L)

        monkeypatch.setattr(geom, "covariant_hessian_from_jet", counted_hessian)
        monkeypatch.setattr(geom, "_tril_inverse", counted_inverse)

        class Counted(asm._PointJet):
            def __init__(self, model, P):
                built.append(self)
                super().__init__(model, P)

        monkeypatch.setattr(asm, "_PointJet", Counted)
        monkeypatch.setattr(asm, "CHUNK", 80)
        asm.check_model(builtin_relativistic(4.0),
                        asm.default_grid(3, axis_points=5, quasi_points=100))
        assert len(built) == 2
        kinds = [kind for kind, _, _ in calls]
        per_chunk = {"cholesky": 2, "solve": 0, "eigvalsh": 4, "inv": 2, "det": 1}
        assert {k: kinds.count(k) for k in per_chunk} == {
            k: 2 * c + (k == "inv") for k, c in per_chunk.items()}
        assert len(inverted) == 2 * len(built)
        factored = [(a, L) for kind, a, L in calls if kind == "cholesky"]
        for pj in built:
            for base in (pj.A, pj.jet.g):
                (L,) = [L for a, L in factored if a is base]
                assert sum(W is L for W in inverted) == 1
            assert sum(a is pj.dv for a in hessians) == 1

    def test_check_model_holds_two_point_jets_at_most(self, monkeypatch):
        # Each scan keeps per-point values only, so a point jet is freed
        # before the next one is built: the pass holds one at a time.
        live, counts = weakref.WeakSet(), []

        class Counted(asm._PointJet):
            def __init__(self, model, P):
                live.add(self)
                counts.append(len(live))
                super().__init__(model, P)

        monkeypatch.setattr(asm, "_PointJet", Counted)
        monkeypatch.setattr(asm, "CHUNK", 32)
        grid = small_grid()
        chunks = -(-grid.count // asm.CHUNK)
        assert chunks >= 4
        asm.check_model(builtin_relativistic(4.0), grid)
        assert len(counts) == chunks
        assert max(counts) == 1

    def test_mixed_conformal_grid_one_pass(self, monkeypatch):
        # A = diag(1, (1 + 0.3 p2^2)^2) is conformal on p2 = 0 only, which
        # holds on the first chunk and on no later one.  Every chunk
        # takes the same criterion, so check_model builds one point jet
        # per chunk.
        built = []

        class Counted(asm._PointJet):
            def __init__(self, model, P):
                built.append(P.shape[0])
                super().__init__(model, P)

        monkeypatch.setattr(asm, "CHUNK", 4)  # 9 points a chunk in 2D
        one = parse_expr("1")
        m = ModelSpec(
            name="mixed2d",
            dim=2,
            metric_field=ExprMetricField({(0, 0): one, (1, 1): one}, 2),
            v_fields=(
                ExprScalarField(parse_expr("p1"), 2),
                ExprScalarField(parse_expr("p2 + 0.1*p2^3"), 2),
            ),
            energy_field=ExprScalarField(parse_expr("(p1^2 + p2^2)/2"), 2),
        )
        axis = np.stack([np.linspace(-2.0, 2.0, 9), np.zeros(9)], axis=1)
        P = np.concatenate([axis, rel_points(18, radius=2.0, seed=3, dim=2)])
        monkeypatch.setattr(asm, "_PointJet", Counted)
        rep = asm.check_model(m, P)
        assert built == [9, 9, 9]
        # every extremum and witness of the one pass is the one that its
        # scan finds on its own
        cb = asm.curvature_bounds(m, P)
        dom = asm.dominance_constants(m, P)
        hor = asm.hormander_check(m, P)
        wr = asm.logsob_warped(m, P)
        assert (rep.sigma1, rep.sigma2) == (cb.sigma1, cb.sigma2)
        assert (rep.beta, rep.gamma, rep.omega) == (dom.beta, dom.gamma, dom.omega)
        assert rep.hormander_min == hor.min_absdetF
        assert rep.alpha == wr.alpha
        assert rep.shift == max(cb.shift, dom.shift)
        wants = {"sigma1": cb.witnesses["min"], "sigma2": cb.witnesses["max"],
                 **dom.witnesses, "hormander": hor.witness, **wr.witnesses}
        assert list(rep.witnesses) == list(wants)
        for name, want in wants.items():
            got = rep.witnesses[name]
            assert (got.label, got.value) == (want.label, want.value)
            assert np.array_equal(got.point, want.point)
        assert f"kappa1 = {wr.kappa1:.6g}" in rep.alpha_note
        assert f"kappa2 = {wr.kappa2:.6g}" in rep.alpha_note

    @pytest.mark.parametrize("scan", [
        asm.check_model, asm.curvature_bounds, asm.dominance_constants,
        asm.hormander_check, asm.logsob_warped, asm.logsob_product,
    ])
    def test_failing_point_named(self, scan):
        # One rule for every scan: g = p1^2 is not positive definite at
        # p = 0, so no scan returns a result on this grid.
        m = expr_model_1d("p1^2", "p1^2/2")
        with pytest.raises(MetricError, match=r"at p = \[0\.\]$"):
            scan(m, np.linspace(-2.0, 2.0, 5)[:, None])

    @pytest.mark.parametrize("g, v, E, error, first", [
        # v fails at p = 5 and p = 7, in its value and its derivatives
        ("1", "1/((p1 - 5)*(p1 - 7))", "p1^2/2", ExprDomainError, "5"),
        # E fails in its derivatives only, at p = 6
        ("1", "p1", "p1^2/2 + sqrt((p1 - 6)^2)", ExprDomainError, "6"),
        # g fails after v: the first failing point is still named
        ("(p1 - 5)^2", "1/(p1 - 6)", "p1^2/2", MetricError, "5"),
        # at p = 4 g is degenerate and v undefined: the one program runs
        # before the metric is factored, so v's error is raised
        ("(p1 - 4)^2", "1/(p1 - 4)", "p1^2/2", ExprDomainError, "4"),
    ])
    def test_check_model_names_first_failing_point(self, monkeypatch, g, v, E,
                                                   error, first):
        # CHUNK 1, 9 points a chunk in 1D: the chunk [-5, 3] passes, then
        # the bisection runs the model's one program on sub-chunks of
        # [4, 12]
        monkeypatch.setattr(asm, "CHUNK", 1)
        m = expr_model_1d(g, E, v1=v)
        with pytest.raises(error, match=rf"at p = \[{first}\.\]$"):
            asm.check_model(m, np.arange(-5.0, 13.0)[:, None])

    def test_check_model_degenerate_metric_raises(self):
        # No scan skips p = 0, so check_model raises there before any
        # report is built, whichever point of the grid comes first.
        m = expr_model_1d("p1^2", "p1^2/2")
        for P in (np.linspace(-2.0, 2.0, 5), np.linspace(2.0, -2.0, 5)):
            with pytest.raises(MetricError, match=r"at p = \[0\.\]$"):
                asm.check_model(m, P[:, None])


# ---------------------------------------------------------------------------
# Combined report


class TestCheckModel:
    def test_classical_report(self):
        m = builtin_classical(3)
        rep = asm.check_model(m, small_grid())
        assert rep.required_ok
        assert rep.passes == {
            "curvature": True, "positivity": True, "dominance": True,
            "hormander": True, "growth": True, "logsob": True,
        }
        assert rep.alpha == pytest.approx(1.0, abs=1e-10)
        assert rep.sigma == pytest.approx(0.0, abs=1e-12)

    def test_relativistic_theta4_report(self):
        m = builtin_relativistic(4.0)
        rep = asm.check_model(m, small_grid())
        assert rep.required_ok
        assert rep.passes["curvature"]
        assert not rep.passes["logsob"]
        assert rep.alpha is None
        assert "inconclusive" in rep.alpha_note

    def test_relativistic_theta30_report(self):
        m = builtin_relativistic(30.0)
        rep = asm.check_model(m, small_grid())
        assert rep.required_ok
        assert rep.passes["logsob"]
        # kappa1 grows with theta while kappa2 stays 11/2
        assert rep.alpha > 5.0
        assert rep.alpha_note.startswith("warped criterion: kappa1 = ")

    def test_relativistic_theta01_report(self):
        m = builtin_relativistic(0.1)
        rep = asm.check_model(m, small_grid())
        assert not rep.required_ok
        assert not rep.passes["curvature"]
        assert rep.sigma1 <= -3.0

    def test_degenerate_gram_form(self, monkeypatch):
        # v = p^3 gives A = 9 p^4, which vanishes at p = 0 in the second
        # chunk: the scans that invert A stop there, and the curvature
        # and hypoellipticity scans still cover the whole grid.  CHUNK 1
        # makes 1D chunks of 9 points.
        monkeypatch.setattr(asm, "CHUNK", 1)
        m = expr_model_1d("1", "p1^2/2", v1="p1^3")
        P = np.concatenate([np.linspace(1.0, 2.0, 8),
                            np.linspace(-1.0, 1.0, 9)])[:, None]
        rep = asm.check_model(m, P)
        assert not rep.passes["positivity"]
        assert not rep.passes["dominance"]
        assert all(math.isnan(x) for x in (rep.beta, rep.gamma, rep.omega))
        assert rep.alpha is None
        assert rep.alpha_note == "log-Sobolev criterion skipped: Gram form degenerate"
        assert rep.witnesses["degenerate_A"].label.endswith("at p = [0.]")
        cb = asm.curvature_bounds(m, P)
        hor = asm.hormander_check(m, P)
        assert (rep.sigma1, rep.sigma2) == (cb.sigma1, cb.sigma2)
        assert rep.hormander_min == hor.min_absdetF
        for name, want in (("sigma1", cb.witnesses["min"]),
                           ("sigma2", cb.witnesses["max"]),
                           ("hormander", hor.witness)):
            got = rep.witnesses[name]
            assert (got.label, got.value) == (want.label, want.value)
            assert np.array_equal(got.point, want.point)

    def test_degenerate_gram_form_frees_each_point_jet(self, monkeypatch):
        # The pass keeps the first DegenerateA without the traceback that
        # would hold its chunk's point jet, so one point jet is alive at a
        # time: the one of the chunk being scanned.
        live, alive = [], []

        class Counted(asm._PointJet):
            def __init__(self, model, P):
                super().__init__(model, P)
                live.append(weakref.ref(self))
                alive.append(sum(ref() is not None for ref in live))

        monkeypatch.setattr(asm, "CHUNK", 1)  # 9 points a chunk in 1D
        monkeypatch.setattr(asm, "_PointJet", Counted)
        m = expr_model_1d("1", "p1^2/2", v1="p1^3")
        # A = 9 p^4 vanishes at p = 0, in the second of five chunks
        P = np.concatenate([np.linspace(1.0, 2.0, 8), np.linspace(-1.0, 1.0, 9),
                            np.linspace(2.0, 3.0, 23)])[:, None]
        rep = asm.check_model(m, P)
        assert not rep.passes["positivity"]
        assert alive == [1, 1, 1, 1, 1]

    def test_report_kv_keys_and_text(self):
        m = builtin_classical(3)
        rep = asm.check_model(m, small_grid())
        kv = asm.report_kv(rep)
        lines = dict(
            line.split(" = ", 1) for line in kv.strip().splitlines()
        )
        for key in ("sigma1", "sigma2", "sigma", "beta", "gamma", "omega",
                    "alpha", "hormander_min",
                    "grid_radius", "grid_points", "grid_seed", "required_ok",
                    "witnesses", "pass_curvature", "pass_logsob"):
            assert key in lines
        assert lines["required_ok"] == "true"
        assert float(lines["sigma1"]) == pytest.approx(1.0, abs=1e-12)
        # each fact once: pass_growth holds the growth gate, and the
        # warped criterion is the only route
        for key in ("alpha_source", "growth_ok", "partial"):
            assert key not in lines
        text = asm.report_text(rep)
        assert "pass" in text and "sigma1" in text
        assert "(warped)" not in text
