"""Built-in models, derived weights and drifts, model files."""

import math
from dataclasses import replace

import numpy as np
import pytest

from hypocert.errors import ModelFileError
from hypocert.expressions import parse_expr
from hypocert.fields import ExprScalarField, FDField
from hypocert.geometry import (
    bakry_emery_ricci,
    batch_jet,
    gradient_p,
    log_weight_values,
)
from hypocert.models import (
    ModelSpec,
    builtin_classical,
    builtin_relativistic,
    load_model_file,
    log_weight_field,
)


class TestModelSpec:
    def test_fields_coerced_once(self):
        model = ModelSpec(
            name="coerced",
            dim=1,
            metric_field=builtin_classical(1).metric_field,
            v_fields=(lambda P: P[:, 0],),
            energy_field="p1^2/2",
        )
        assert isinstance(model.v_fields[0], FDField)
        assert isinstance(model.energy_field, ExprScalarField)
        out = gradient_p(model, log_weight_field(model), np.array([2.0]))
        assert out.entries == pytest.approx([-2.0], abs=1e-12)

    def test_replace_starts_a_fresh_cache(self):
        model = builtin_classical(1)
        gradient_p(model, log_weight_field(model), np.array([2.0]))
        quartic = replace(
            model, energy_field=ExprScalarField(parse_expr("p1^4/4"), 1)
        )
        out = gradient_p(quartic, log_weight_field(quartic), np.array([2.0]))
        assert out.entries == pytest.approx([-8.0], abs=1e-12)


class TestClassical:
    def test_drift_is_minus_p(self):
        model = builtin_classical(1)
        out = gradient_p(model, log_weight_field(model), np.array([2.0]))
        assert out.entries == pytest.approx([-2.0], abs=1e-12)

    def test_weight_at_origin(self):
        model = builtin_classical(2)
        logu, _ = log_weight_values(model, np.zeros((1, 2)))
        assert np.exp(logu[0]) == pytest.approx(1.0)

    def test_weight_value(self):
        model = builtin_classical(1)
        logu, _ = log_weight_values(model, np.array([[3.0]]))
        assert np.exp(logu[0]) == pytest.approx(math.exp(-4.5))

    def test_bakry_emery_identity(self):
        model = builtin_classical(1)
        out = bakry_emery_ricci(model, np.array([[1.7], [-0.4], [0.0]]))
        assert np.array_equal(out.entries, np.ones((3, 1, 1)))

    def test_oracle_forms(self):
        model = builtin_classical(3)
        P = np.random.default_rng(0).normal(size=(5, 3))
        assert np.array_equal(model.oracle.form_A(P)[0], np.eye(3))
        assert np.all(model.oracle.form_B(P) == 0.0)
        assert np.all(model.oracle.form_C(P) == 0.0)
        assert np.all(model.oracle.form_R(P) == 0.0)

    def test_langevin_solution_solves_the_equation(self):
        # dh/dt + p dh/dx = h_pp - p h_p, checked by central differences
        # at random (x, p, t); the datum holds at t = 0.
        orc = builtin_classical(1).oracle
        rng = np.random.default_rng(4)
        x, p = rng.uniform(0.0, 1.0, 50), rng.uniform(-3.0, 3.0, 50)
        t = rng.uniform(0.05, 1.0, 50)
        k = 1e-4

        def h(dx=0.0, dp=0.0, dt=0.0):
            return orc.langevin_h(x + dx, p + dp, t + dt, 0.5)

        h_t = (h(dt=k) - h(dt=-k)) / (2 * k)
        h_x = (h(dx=k) - h(dx=-k)) / (2 * k)
        h_p = (h(dp=k) - h(dp=-k)) / (2 * k)
        h_pp = (h(dp=k) - 2 * h() + h(dp=-k)) / k**2
        np.testing.assert_allclose(h_t + p * h_x, h_pp - p * h_p, atol=1e-5)
        np.testing.assert_allclose(
            orc.langevin_h(x, p, 0.0, 0.5), 1.0 + 0.5 * np.cos(orc.XI * x),
            rtol=1e-15,
        )
        # D(0) has no p dependence: the mean over x of phi(1 + eps cos).
        h0 = 1.0 + 0.5 * np.cos(orc.XI * np.arange(4096) / 4096)
        assert orc.langevin_D(0.0, 0.5) == pytest.approx(
            np.mean(h0 * np.log(h0) - h0 + 1.0), rel=1e-13)
        with pytest.raises(ValueError, match="one momentum dimension"):
            builtin_classical(2).oracle.langevin_D(0.0, 0.5)

    def test_langevin_entropy_in_the_tail(self):
        # h log h - h + 1 rounds to 0 once it is below the spacing of
        # floats at 1, from t = 1.6 at eps 0.5; D stays positive and
        # strictly decreasing to t = 3, and where nothing has cancelled
        # it is the quadrature of h log h - h + 1 (80 Gauss-Hermite
        # nodes in p, 256 trapezoid points in x).
        orc = builtin_classical(1).oracle
        tail = [orc.langevin_D(t, 0.5) for t in np.linspace(1.0, 3.0, 11)]
        assert all(d > 0.0 for d in tail)
        assert all(a > b for a, b in zip(tail, tail[1:]))
        p, w = np.polynomial.hermite_e.hermegauss(80)
        x = np.arange(256) / 256
        for t in (0.2, 0.4, 0.8):
            h = orc.langevin_h(x[:, None], p[None, :], t, 0.5)
            quad = np.sum((h * np.log(h) - h + 1.0).mean(axis=0) * w) / w.sum()
            assert orc.langevin_D(t, 0.5) == pytest.approx(quad, rel=1e-12)


class TestRelativistic:
    def test_weight_at_origin(self):
        model = builtin_relativistic(4.0)
        logu, _ = log_weight_values(model, np.zeros((1, 3)))
        assert np.exp(logu[0]) == pytest.approx(math.exp(-4.0))

    def test_det_g_is_p0(self):
        model = builtin_relativistic(4.0)
        jet = batch_jet(model, np.array([[0.0, 0.0, 2.0]]))
        assert jet.sqrt_det[0] ** 2 == pytest.approx(math.sqrt(5.0), rel=1e-12)

    def test_velocity_component(self):
        model = builtin_relativistic(4.0)
        P = np.array([[1.0, 0.0, 0.0]])
        assert model.v_fields[0].value(P)[0] == pytest.approx(1.0 / math.sqrt(2.0))
        assert model.v_fields[1].value(P)[0] == pytest.approx(0.0)

    def test_drift_vanishes_at_origin(self):
        model = builtin_relativistic(4.0)
        out = gradient_p(model, log_weight_field(model), np.zeros(3))
        assert np.allclose(out.entries, 0.0, atol=1e-12)

    def test_drift_closed_form(self):
        # log u = -theta p0 - (1/2) log p0, raised with g_inv = (I+pp)/p0
        theta = 4.0
        model = builtin_relativistic(theta)
        P = np.array([[1.0, 0.0, 0.0], [0.3, -0.7, 1.1]])
        p0 = np.sqrt(1.0 + np.sum(P * P, axis=1))
        dlogu = -(theta / p0 + 0.5 / p0**2)[:, None] * P
        ginv = (np.eye(3)[None] + P[:, :, None] * P[:, None, :]) / p0[:, None, None]
        expected = np.einsum("nij,nj->ni", ginv, dlogu)
        out = gradient_p(model, log_weight_field(model), P)
        assert np.allclose(out.entries, expected, rtol=1e-10, atol=1e-10)

    def test_log_weight_field_consistent(self):
        model = builtin_relativistic(2.5)
        P = np.random.default_rng(1).normal(size=(30, 3))
        field_vals = log_weight_field(model).value(P)
        direct, _ = log_weight_values(model, P)
        assert np.allclose(field_vals, direct, rtol=1e-12, atol=1e-12)

    def test_oracle_matches_engine(self):
        rng = np.random.default_rng(9)
        for theta in (0.5, 4.0):
            model = builtin_relativistic(theta)
            P = rng.normal(size=(200, 3))
            jet = batch_jet(model, P)
            assert np.allclose(jet.g, model.oracle.metric(P), rtol=1e-9, atol=1e-12)
            assert np.allclose(
                jet.g_inv, model.oracle.metric_inv(P), rtol=1e-9, atol=1e-12
            )
            assert np.allclose(
                jet.sqrt_det, model.oracle.sqrt_det(P), rtol=1e-10
            )
            bak = bakry_emery_ricci(model, P).entries
            assert np.allclose(bak, model.oracle.bakry(P), rtol=1e-6, atol=1e-9)

    def test_oracle_internal_identity(self):
        # Ric - Hess(log u) assembled from the two closed forms equals
        # the closed form for the Bakry-Emery tensor
        model = builtin_relativistic(1.5)
        P = np.random.default_rng(13).normal(size=(50, 3))
        combo = model.oracle.ricci(P) - model.oracle.hess_log_u(P)
        assert np.allclose(combo, model.oracle.bakry(P), rtol=1e-9, atol=1e-12)

    def test_dim_parameter(self):
        model = builtin_relativistic(4.0, dim=1)
        assert model.dim == 1 and model.oracle is None
        # 1D metric reduces to 1/p0
        P = np.array([[0.8]])
        g = model.metric_field.value(P)
        assert g[0, 0, 0] == pytest.approx(1.0 / math.sqrt(1.64), rel=1e-12)
        # weight u = e^{-theta p0} sqrt(p0)
        p0 = math.sqrt(1.64)
        assert np.exp(log_weight_values(model, P)[0][0]) == pytest.approx(
            math.exp(-4.0 * p0) * math.sqrt(p0), rel=1e-10
        )

    def test_invalid_theta(self):
        with pytest.raises(ValueError):
            builtin_relativistic(0.0)


class TestModelFiles:
    def write(self, tmp_path, text):
        f = tmp_path / "model.ini"
        f.write_text(text)
        return f

    CLASSICAL_1D = """
[metric]
g11 = 1

[velocity]
v1 = p1

[energy]
E = p1^2/2
"""

    def test_load_classical_equivalent(self, tmp_path):
        model = load_model_file(self.write(tmp_path, self.CLASSICAL_1D))
        assert model.dim == 1
        ref = builtin_classical(1)
        P = np.linspace(-2, 2, 9)[:, None]
        assert np.allclose(
            gradient_p(model, log_weight_field(model), P).entries,
            gradient_p(ref, log_weight_field(ref), P).entries,
            atol=1e-12,
        )
        assert np.allclose(
            bakry_emery_ricci(model, P).entries,
            bakry_emery_ricci(ref, P).entries,
            atol=1e-12,
        )

    RELATIVISTIC_1D = """
[model]
theta = 4.0

[metric]
g11 = sqrt(1+p1^2) - p1^2/sqrt(1+p1^2)

[velocity]
v1 = p1/sqrt(1+p1^2)

[energy]
E = theta*sqrt(1+p1^2)
"""

    def test_load_relativistic_equivalent(self, tmp_path):
        model = load_model_file(self.write(tmp_path, self.RELATIVISTIC_1D))
        ref = builtin_relativistic(4.0, dim=1)
        P = np.linspace(-2, 2, 9)[:, None]
        assert np.allclose(
            model.metric_field.value(P), ref.metric_field.value(P), rtol=1e-12
        )
        assert np.allclose(
            gradient_p(model, log_weight_field(model), P).entries,
            gradient_p(ref, log_weight_field(ref), P).entries,
            rtol=1e-9,
            atol=1e-11,
        )

    def test_missing_section(self, tmp_path):
        with pytest.raises(ModelFileError, match="velocity"):
            load_model_file(self.write(tmp_path, "[metric]\ng11 = 1\n"))

    def test_missing_diagonal(self, tmp_path):
        text = "[metric]\ng12 = 0\n[velocity]\nv1 = p1\nv2 = p2\n[energy]\nE = 0\n"
        with pytest.raises(ModelFileError, match="diagonal"):
            load_model_file(self.write(tmp_path, text))

    def test_bad_metric_key(self, tmp_path):
        text = "[metric]\nq11 = 1\n[velocity]\nv1 = p1\n[energy]\nE = 0\n"
        with pytest.raises(ModelFileError, match="metric key"):
            load_model_file(self.write(tmp_path, text))

    def test_metric_key_outside_dim(self, tmp_path):
        text = "[metric]\ng11 = 1\ng22 = 1\n[velocity]\nv1 = p1\n[energy]\nE = 0\n"
        with pytest.raises(ModelFileError, match="outside"):
            load_model_file(self.write(tmp_path, text))

    def test_unset_theta(self, tmp_path):
        text = "[metric]\ng11 = 1\n[velocity]\nv1 = p1\n[energy]\nE = theta*p1^2\n"
        with pytest.raises(ModelFileError, match="theta"):
            load_model_file(self.write(tmp_path, text))

    def test_syntax_error_reported_with_key(self, tmp_path):
        text = "[metric]\ng11 = 1\n[velocity]\nv1 = p1*\n[energy]\nE = 0\n"
        with pytest.raises(ModelFileError, match=r"\[velocity\] v1"):
            load_model_file(self.write(tmp_path, text))

    def test_coordinate_beyond_dim(self, tmp_path):
        text = "[metric]\ng11 = 1\n[velocity]\nv1 = p1\n[energy]\nE = p2^2\n"
        with pytest.raises(ModelFileError):
            load_model_file(self.write(tmp_path, text))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ModelFileError):
            load_model_file(tmp_path / "nope.ini")

    def test_velocity_gap(self, tmp_path):
        text = "[metric]\ng11 = 1\n[velocity]\nv1 = p1\nv3 = p1\n[energy]\nE = 0\n"
        with pytest.raises(ModelFileError, match="velocity"):
            load_model_file(self.write(tmp_path, text))
