"""Tensor calculus: jets, curvature, Hessians, divergences.

Reference values come from closed forms of the built-in models and
from independent discretizations (flat-space identities, finite
differences, the positively curved sphere).
"""

import inspect
from dataclasses import replace

import numpy as np
import pytest

from hypocert.errors import FDOrderError, MetricError, NonpositiveWeight
from hypocert.expressions import parse_expr
from hypocert import geometry
from hypocert.fields import (
    ExprMetricField,
    ExprScalarField,
    ExprVectorField,
    FDField,
    as_field,
)
from hypocert.geometry import (
    PointP,
    SymTensor2,
    VecP,
    bakry_emery_ricci,
    batch_jet,
    covariant_hessian,
    divergence_tensor2,
    divergence_vec,
    gradient_p,
    as_batch,
    jet_from_arrays,
    laplace_beltrami,
    ricci,
)
from hypocert.models import (
    builtin_classical,
    builtin_relativistic,
    load_model_file,
    log_weight_field,
)

from tests_support import conformal_model_2d, expr_model_1d, fd_model, rel_points

REL = builtin_relativistic(4.0)
CLA3 = builtin_classical(3)


class TestMetricJet:
    def test_euclidean_trivial(self):
        jet = batch_jet(CLA3, PointP((0.3, -1.2, 2.0)).array[None])
        assert np.array_equal(jet.christoffel[0], np.zeros((3, 3, 3)))
        assert jet.sqrt_det[0] == pytest.approx(1.0)
        assert np.array_equal(jet.g[0], np.eye(3))

    @pytest.mark.parametrize("S", [1, 2, 3])
    def test_tril_inverse_matches_inv(self, S):
        # The inverse Cholesky factor that the pencil scans reduce with:
        # np.linalg.inv's to rounding, lower triangular, and the same
        # bits for a matrix alone as in the stack.
        X = np.random.default_rng(S).normal(size=(40, S, S))
        L = np.linalg.cholesky(X @ X.swapaxes(1, 2) + S * np.eye(S))
        W = geometry._tril_inverse(L)
        np.testing.assert_allclose(W, np.linalg.inv(L), rtol=1e-12, atol=1e-14)
        assert np.array_equal(W, np.tril(W))
        for k in (0, 17, 39):
            np.testing.assert_array_equal(geometry._tril_inverse(L[k:k + 1]),
                                          W[k:k + 1])

    def test_relativistic_origin(self):
        jet = batch_jet(REL, np.zeros(3)[None])
        assert np.allclose(jet.g[0], np.eye(3), atol=1e-14)
        assert np.allclose(jet.g_inv[0], np.eye(3), atol=1e-14)
        assert jet.sqrt_det[0] == pytest.approx(1.0)

    def test_relativistic_sqrt_det(self):
        jet = batch_jet(REL, np.array([1.0, 0.0, 0.0])[None])
        assert jet.sqrt_det[0] == pytest.approx(2.0 ** 0.25, rel=1e-12)

    def test_jet_invariants(self):
        P = rel_points(50)
        jet = batch_jet(REL, P)
        eye = np.broadcast_to(np.eye(3), (50, 3, 3))
        assert np.allclose(jet.g @ jet.g_inv, eye, atol=1e-10)
        assert np.array_equal(jet.christoffel, jet.christoffel.swapaxes(2, 3))
        det = np.linalg.det(jet.g)
        assert np.allclose(jet.sqrt_det**2, det, rtol=1e-10)
        # closed form: det g = p0
        p0 = np.sqrt(1.0 + np.sum(P * P, axis=1))
        assert np.allclose(det, p0, rtol=1e-10)

    def test_metric_compatibility(self):
        # covariant derivative of g vanishes identically
        P = rel_points(30)
        jet = batch_jet(REL, P)
        nabla_g = (
            jet.dg
            - np.einsum("nlki,nlj->nkij", jet.christoffel, jet.g)
            - np.einsum("nlkj,nil->nkij", jet.christoffel, jet.g)
        )
        assert np.max(np.abs(nabla_g)) < 1e-10

    def test_not_positive_definite(self):
        bad = load_negative_metric()
        with pytest.raises(MetricError):
            batch_jet(bad, np.array([0.5])[None])

    def test_degenerate_metric(self):
        model = expr_model_1d(g11="p1^2", E="p1^2/2")
        with pytest.raises(MetricError):
            batch_jet(model, np.array([0.0])[None])

    def test_point_dimension_mismatch(self):
        with pytest.raises(ValueError):
            as_batch(np.zeros(2), REL.dim)

    @pytest.mark.parametrize("g", [
        [[1.0, 0.5], [0.4, 1.0]],
        [[1.0, np.nan], [np.nan, 1.0]],
        [[np.nan, 0.0], [0.0, 1.0]],
    ], ids=["asymmetric", "nan-pair", "nan-diagonal"])
    def test_asymmetric_or_nan_metric_rejected(self, g):
        with pytest.raises(MetricError, match="metric is not symmetric"):
            jet_from_arrays(np.array([g]), np.zeros((1, 2, 2, 2)))

    def test_symmetric_inf_metric(self):
        # the exact symmetry test passes inf == inf, as the tolerance
        # test did; the Cholesky factor then decides
        dg = np.zeros((1, 2, 2, 2))
        with pytest.raises(MetricError, match="not positive definite"):
            jet_from_arrays(np.array([[[1.0, np.inf], [np.inf, 1.0]]]), dg)
        jet = jet_from_arrays(np.array([[[np.inf, 0.0], [0.0, 1.0]]]), dg)
        assert jet.sqrt_det[0] == np.inf
        assert np.array_equal(jet.g_inv[0], [[0.0, 0.0], [0.0, 1.0]])

    def test_nearly_symmetric_metric_symmetrized(self):
        g = np.array([[[2.0, 0.5], [0.5 + 1e-12, 1.0]]])
        jet = jet_from_arrays(g, np.zeros((1, 2, 2, 2)))
        assert np.array_equal(jet.g, jet.g.swapaxes(1, 2))
        assert jet.g[0, 0, 1] == 0.5 * (g[0, 0, 1] + g[0, 1, 0])


def load_negative_metric():
    return expr_model_1d(g11="0-1", E="p1^2/2")


class TestRicci:
    def test_flat(self):
        out = ricci(CLA3, np.array([0.7, 0.0, -2.0]))
        assert isinstance(out, SymTensor2)
        assert out.variance == "covariant"
        assert np.allclose(out.entries, 0.0, atol=1e-14)

    def test_relativistic_origin(self):
        out = ricci(REL, np.zeros(3))
        assert np.allclose(out.entries, -4.0 * np.eye(3), atol=1e-10)

    def test_relativistic_closed_form(self):
        P = rel_points(100)
        out = ricci(REL, P).entries
        ref = REL.oracle.ricci(P)
        assert np.allclose(out, ref, rtol=1e-6, atol=1e-9)

    def test_sphere_positive(self):
        # unit sphere in stereographic coordinates: Ric = (M-1) g
        m = 2
        conf = "4/(1+p1^2+p2^2)^2"
        entries = {(i, i): parse_expr(conf) for i in range(m)}
        from hypocert.models import ModelSpec

        sphere = ModelSpec(
            name="sphere",
            dim=m,
            metric_field=ExprMetricField(entries, m),
            v_fields=tuple(
                ExprScalarField(parse_expr(f"p{i+1}"), m) for i in range(m)
            ),
            energy_field=ExprScalarField(parse_expr("0"), m),
        )
        rng = np.random.default_rng(3)
        P = rng.normal(size=(40, m))
        jet = batch_jet(sphere, P)
        ric = ricci(sphere, P).entries
        assert np.allclose(ric, (m - 1) * jet.g, rtol=1e-9, atol=1e-11)


class TestHessianGradientLaplacian:
    def test_euclidean_hessian(self):
        out = covariant_hessian(CLA3, "(p1^2+p2^2+p3^2)/2", np.array([1.0, 2.0, 3.0]))
        assert np.allclose(out.entries, np.eye(3), atol=1e-12)

    def test_constant_field(self):
        out = covariant_hessian(REL, "3.5", rel_points(5))
        assert np.allclose(out.entries, 0.0, atol=1e-12)

    def test_relativistic_log_u_origin(self):
        theta = 4.0
        out = covariant_hessian(REL, log_weight_field(REL), np.zeros(3))
        expected = -(2.0 + 4.0 * theta) / 4.0 * np.eye(3)
        assert np.allclose(out.entries, expected, atol=1e-9)

    def test_euclidean_gradient(self):
        out = gradient_p(CLA3, "p1", np.array([0.1, 0.2, 0.3]))
        assert isinstance(out, VecP)
        assert out.variance == "vector"
        assert np.allclose(out.entries, [1.0, 0.0, 0.0], atol=1e-14)

    def test_relativistic_gradient_of_p0(self):
        # grad of p0 has components g^{ij} p_j / p0 = p^i
        P = rel_points(60)
        out = gradient_p(REL, "sqrt(1+p1^2+p2^2+p3^2)", P)
        assert np.allclose(out.entries, P, rtol=1e-10, atol=1e-12)

    def test_gradient_constant(self):
        out = gradient_p(REL, "2", rel_points(4))
        assert np.allclose(out.entries, 0.0)

    def test_euclidean_laplacian(self):
        val = laplace_beltrami(CLA3, "(p1^2+p2^2+p3^2)/2", np.array([1.0, -1.0, 0.5]))
        assert val == pytest.approx(3.0, abs=1e-10)

    def test_laplacian_constant(self):
        assert laplace_beltrami(REL, "1", np.array([1.0, 0.0, 0.0])) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_laplacian_two_routes(self):
        # divergence form vs trace of the covariant Hessian
        for model, f in (
            (REL, "sqrt(1+p1^2+p2^2+p3^2)"),
            (REL, "p1^2*p2 + exp(-(p1^2+p2^2+p3^2)/2)"),
            (CLA3, "p1*p2*p3"),
        ):
            P = rel_points(40, seed=11)
            route1 = laplace_beltrami(model, f, P)
            jet = batch_jet(model, P, second=False)
            field = ExprScalarField(parse_expr(f), 3, theta=model.theta)
            hess = covariant_hessian(model, field, P).entries
            route2 = np.einsum("nij,nij->n", jet.g_inv, hess)
            assert np.allclose(route1, route2, rtol=1e-8, atol=1e-8)


class TestDivergences:
    def test_euclidean_identity_field(self):
        Z = FDField(lambda P: P.copy(), 3)
        val = divergence_vec(CLA3, Z, np.array([0.2, 0.4, -0.6]))
        assert val == pytest.approx(3.0, abs=1e-6)

    def test_euclidean_constant_field(self):
        Z = FDField(lambda P: np.ones((P.shape[0], 3)), 3)
        val = divergence_vec(CLA3, Z, np.zeros(3))
        assert val == pytest.approx(0.0, abs=1e-8)

    def test_relativistic_two_discretizations(self):
        # analytic expression components vs FD wrapper of the same field
        from hypocert.fields import ExprVectorField
        from hypocert.expressions import diff_expr

        p0 = "sqrt(1+p1^2+p2^2+p3^2)"
        comps = [parse_expr(f"p{i+1}/({p0})") for i in range(3)]
        Z_expr = ExprVectorField(comps, 3)
        Z_fd = FDField(Z_expr.value, 3)
        P = rel_points(20, seed=23)
        a = divergence_vec(REL, Z_expr, P)
        b = divergence_vec(REL, Z_fd, P)
        assert np.allclose(a, b, rtol=1e-6, atol=1e-6)

    def test_tensor_divergence_constant_flat(self):
        A = FDField(
            lambda P: np.broadcast_to(np.diag([1.0, 2.0, 3.0]), (P.shape[0], 3, 3)), 3
        )
        out = divergence_tensor2(CLA3, A, np.array([0.1, 0.0, 0.0]))
        assert np.allclose(out.entries, 0.0, atol=1e-8)

    def test_tensor_divergence_flat_identity(self):
        # A = second derivative matrix of f = |p|^4; flat-space identity
        # gives (div A)^i = d_i (Laplacian f) = (8M+16) p_i
        def hess_f(P):
            norm2 = np.sum(P * P, axis=1)
            eye = np.broadcast_to(np.eye(3), (P.shape[0], 3, 3))
            outer = P[:, :, None] * P[:, None, :]
            return 8.0 * outer + 4.0 * norm2[:, None, None] * eye

        A = FDField(hess_f, 3)
        rng = np.random.default_rng(17)
        P = rng.normal(size=(25, 3))
        out = divergence_tensor2(CLA3, A, P)
        expected = (8 * 3 + 16) * P
        assert np.allclose(out.entries, expected, rtol=1e-6, atol=1e-6)

    def test_tensor_divergence_does_not_depend_on_the_batch(self):
        # each sum is one matmul per point, so a point gets the same bits
        # alone as inside a batch
        P = rel_points(133, seed=31)
        batch = divergence_tensor2(REL, REL.metric_field, P).entries
        for i, p in enumerate(P):
            alone = divergence_tensor2(REL, REL.metric_field, p).entries
            assert np.array_equal(alone, batch[i]), i


class TestFieldRank:
    """Each public operation names itself and the field rank it needs
    when it is given a field of another rank."""

    @pytest.mark.parametrize("op,field,need", [
        (covariant_hessian, REL.metric_field, "a scalar"),
        (gradient_p, ExprVectorField([parse_expr("p1")] * 3, 3), "a scalar"),
        (laplace_beltrami, FDField(lambda P: P.copy(), 3), "a scalar"),
        (divergence_vec, "p1 + p2", "a vector"),
        (divergence_vec, REL.metric_field, "a vector"),
        # a vector of another dimension than the model's
        (divergence_vec, ExprVectorField([parse_expr("p1")] * 2, 3), "a vector"),
        (divergence_tensor2, "p1 * p2", "a 2-tensor"),
        (divergence_tensor2, FDField(lambda P: P.copy(), 3), "a 2-tensor"),
    ])
    def test_wrong_rank_raises(self, op, field, need):
        with pytest.raises(ValueError, match=rf"^{op.__name__} needs {need} field"):
            op(REL, field, np.array([0.5, -0.25, 1.0]))


class TestBakryEmery:
    def test_classical_identity_everywhere(self):
        rng = np.random.default_rng(29)
        P = rng.normal(size=(1000, 3), scale=2.0)
        out = bakry_emery_ricci(CLA3, P)
        eye = np.broadcast_to(np.eye(3), (1000, 3, 3))
        assert np.array_equal(out.entries, eye)

    def test_relativistic_origin(self):
        out = bakry_emery_ricci(REL, np.zeros(3))
        assert np.allclose(out.entries, 0.5 * np.eye(3), atol=1e-9)

    def test_relativistic_closed_form(self):
        for theta in (0.1, 1.0, 4.0, 9.0):
            model = builtin_relativistic(theta)
            P = rel_points(100, seed=int(10 * theta) + 1)
            out = bakry_emery_ricci(model, P).entries
            ref = model.oracle.bakry(P)
            assert np.allclose(out, ref, rtol=1e-6, atol=1e-9)

    def test_nonpositive_weight(self):
        model = expr_model_1d(g11="1", E="1000*(1+p1^2)")
        with pytest.raises(NonpositiveWeight):
            bakry_emery_ricci(model, np.array([0.0]))


class TestFiniteDifferencePath:
    def test_richardson_order(self):
        p = np.array([0.3, -0.2, 0.5])
        exact = batch_jet(REL, p[None])
        errors_gamma = []
        errors_ricci = []
        for h in (1e-2, 5e-3, 2.5e-3):
            fd = fd_model(REL, h_scale=h)
            jet = batch_jet(fd, p[None])
            errors_gamma.append(np.max(np.abs(jet.christoffel[0] - exact.christoffel[0])))
            errors_ricci.append(
                np.max(
                    np.abs(
                        ricci(fd, p).entries
                        - ricci(REL, p).entries
                    )
                )
            )
        for errs in (errors_gamma, errors_ricci):
            order1 = np.log2(errs[0] / errs[1])
            order2 = np.log2(errs[1] / errs[2])
            assert order1 >= 1.9 and order2 >= 1.9, errs

    def test_fd_agrees_with_analytic_default_step(self):
        P = rel_points(20, seed=31)
        fd = batch_jet(fd_model(REL), P)
        an = batch_jet(REL, P)
        assert np.allclose(fd.christoffel, an.christoffel, rtol=1e-6, atol=1e-6)
        assert np.allclose(fd.dchristoffel, an.dchristoffel, rtol=1e-3, atol=1e-3)

    def test_fd_order_cap(self):
        f = FDField(lambda P: np.sum(P * P, axis=1), 3)
        with pytest.raises(FDOrderError):
            f.derivative(np.zeros((1, 3)), (0, 0, 0, 0))

    def test_analytic_scheme_requires_analytic_field(self):
        from hypocert.models import ModelSpec

        model = ModelSpec(
            name="fdmetric",
            dim=3,
            metric_field=FDField(REL.oracle.metric, 3),
            v_fields=REL.v_fields,
            energy_field=REL.energy_field,
            theta=4.0,
        )
        # the FD metric is differenced and still matches the oracle
        out = bakry_emery_ricci(model, rel_points(10, seed=37))
        ref = REL.oracle.bakry(rel_points(10, seed=37))
        assert np.allclose(out.entries, ref, rtol=1e-3, atol=1e-4)


def _with_fields(model, **fields):
    return replace(model, name="swapped", **fields)


class TestSchemeRule:
    """A field's class, fixed when the model is built, decides how its
    derivatives are taken; no operation takes a scheme of its own."""

    def test_no_public_function_takes_a_scheme(self):
        from hypocert import assumptions, fields, geometry

        for module in (geometry, assumptions, fields):
            for name in module.__all__:
                fn = getattr(module, name)
                if inspect.isfunction(fn):
                    params = inspect.signature(fn).parameters
                    assert not {"scheme", "h_scale"} & set(params), name
        check = inspect.signature(assumptions.check_model).parameters
        assert list(check) == ["model", "grid"]

    def test_fd_scheme_differences_an_expression_vector_field(self):
        from hypocert.fields import ExprVectorField

        p0 = "sqrt(1+p1^2+p2^2+p3^2)"
        Z = ExprVectorField([parse_expr(f"p{i+1}/({p0})") for i in range(3)], 3)
        P = rel_points(20, seed=41)
        # the flat metric's FD jet is exact, so any change comes from Z
        exact = divergence_vec(CLA3, Z, P)
        fd = divergence_vec(fd_model(CLA3), FDField(Z.value, 3), P)
        assert np.allclose(fd, exact, rtol=1e-6, atol=1e-6)
        assert not np.array_equal(fd, exact)

    def test_fd_metric_keeps_its_own_step(self):
        mf = FDField(REL.oracle.metric, 3, h_scale=1e-3)
        model = _with_fields(REL, metric_field=mf)
        P = rel_points(10, seed=43)
        assert np.array_equal(batch_jet(model, P).dg, mf.grad(P))


ONE_REQUEST_MODELS = {
    "relativistic3": lambda: builtin_relativistic(4.0),
    "relativistic1": lambda: builtin_relativistic(4.0, dim=1),
    "classical3": lambda: builtin_classical(3),
    "conformal2d": conformal_model_2d,
}


class TestOneRequestPerField:
    """Each public operation reads each field in one request of all the
    orders it needs, and gives bit for bit what the field's and the
    metric's per-order methods give."""

    @staticmethod
    def _fields(model):
        dim = model.dim
        src = " + ".join(f"p{i + 1}^2" for i in range(dim)) + " + exp(0.3*p1)"
        scalars = {
            "log u": log_weight_field(model),
            "expression": ExprScalarField(parse_expr(src), dim, theta=model.theta),
            "string": src,
            "fd": FDField(lambda P: np.sum(P * P, axis=1) + np.exp(0.3 * P[:, 0]),
                          dim),
        }
        comps = [parse_expr(f"p{(i + 1) % dim + 1}*exp(0.2*p{i + 1})")
                 for i in range(dim)]
        vectors = {
            "expression": ExprVectorField(comps, dim),
            "fd": FDField(lambda P: P[:, ::-1] * np.exp(0.2 * P), dim),
        }
        tensors = {
            "metric": model.metric_field,
            "expression": ExprMetricField(
                {(i, j): parse_expr(f"p{i + 1}*p{j + 1} + {i + 1}")
                 for i in range(dim) for j in range(i, dim)}, dim),
            "fd": FDField(lambda P: P[:, :, None] * P[:, None, :]
                          + np.eye(P.shape[1]), dim),
        }
        return scalars, vectors, tensors

    @pytest.mark.parametrize("n", [1, 7, 133])
    @pytest.mark.parametrize("name", sorted(ONE_REQUEST_MODELS))
    def test_every_operation_matches_the_per_order_methods(self, name, n):
        model = ONE_REQUEST_MODELS[name]()
        P = np.random.default_rng(n).uniform(-1.5, 1.5, size=(n, model.dim))
        mf, energy = model.metric_field, model.energy_field
        jet1 = jet_from_arrays(mf.value(P), mf.grad(P))
        jet2 = jet_from_arrays(mf.value(P), mf.grad(P), mf.hess(P))
        scalars, vectors, tensors = self._fields(model)
        cases = [
            ("ricci", lambda p: ricci(model, p).entries,
             geometry.ricci_from_jet(jet2)),
            ("bakry-emery", lambda p: bakry_emery_ricci(model, p).entries,
             geometry.bakry_emery_from_jet(jet2, energy.grad(P), energy.hess(P))),
        ]
        for label, f in scalars.items():
            h = as_field(f, model.dim, model.theta)
            grad, hess = h.grad(P), h.hess(P)
            cases += [
                ("hessian " + label,
                 lambda p, f=f: covariant_hessian(model, f, p).entries,
                 geometry.covariant_hessian_from_jet(jet1, grad, hess)),
                ("gradient " + label, lambda p, f=f: gradient_p(model, f, p).entries,
                 geometry.gradient_from_jet(jet1, grad)),
                ("laplacian " + label, lambda p, f=f: laplace_beltrami(model, f, p),
                 geometry.laplace_from_jet(jet1, grad, hess)),
            ]
        for label, Z in vectors.items():
            cases.append(("div vector " + label,
                          lambda p, Z=Z: divergence_vec(model, Z, p),
                          geometry.divergence_vec_from_jet(
                              jet1, Z.value(P), Z.jacobian(P))))
        for label, A in tensors.items():
            cases.append(("div tensor " + label,
                          lambda p, A=A: divergence_tensor2(model, A, p).entries,
                          geometry.divergence_tensor2_from_jet(
                              jet2, A.value(P), A.grad(P))))
        for label, op, want in cases:
            assert np.array_equal(op(P), want), label
            if n == 1:
                assert np.array_equal(op(P[0]), want[0]), label

    def test_log_u_of_a_differenced_model(self):
        # log u of a model with FD fields is an FDField; it still joins
        # the model's builder, and answers through its own methods
        model = fd_model(REL)
        logu = log_weight_field(model)
        assert model._builder().index(logu) == model.dim + 2
        P = rel_points(5, seed=47)
        mf = model.metric_field
        want = geometry.covariant_hessian_from_jet(
            jet_from_arrays(mf.value(P), mf.grad(P)), logu.grad(P), logu.hess(P))
        assert np.array_equal(covariant_hessian(model, logu, P).entries, want)
