"""Certificate arithmetic: split constants, region rule, validation, rate."""

import dataclasses
import math

import numpy as np
import pytest

from hypocert import certificate as cert_mod
from hypocert.certificate import (
    EpsilonChoice,
    assemble_lambda,
    build_certificate,
    certificate_kv,
    choose_abck,
    epsilon_defaults,
    proposition_coefficients,
    read_certificate_kv,
    validate_certificate,
)
from hypocert.errors import InfeasibleRegion, InvalidCertificate

from tests_support import lemma_bounds_rhs

CLASSICAL = dict(sigma1=1.0, sigma2=1.0, beta=0.0, gamma=0.0, omega=0.0)


def reduced_rows(sigma1, sigma2, beta, gamma, omega, a):
    """Independent statement of the reduced production bounds."""
    s = 2.0 + beta + 16.0 * gamma + omega
    s1 = sigma2 + beta + omega
    s2 = 2.0 + sigma2
    q = 16.0 * s / 7.0 + 4.0 * gamma
    return {
        "dIpp": (1.0 / a, a - 2.0 * sigma1, -2.0, 0.0),
        "dIxp": (-0.5, s1 * s2, q, 7.0 / (16.0 * s)),
        "dIxx": (s, 0.0, 0.0, -7.0 / 4.0),
    }


class TestEpsilonDefaults:
    def test_classical_values(self):
        eps = epsilon_defaults(**CLASSICAL, a=20.0)
        assert eps[1] == 1.0 / 40.0
        assert eps[2] == 0.25
        assert eps[3] == 0.25
        assert eps[4] == pytest.approx(16.0 / 7.0)
        assert eps[8] == 4.0
        assert eps[9] == 0.5 and eps[10] == 0.5
        assert eps.dropped == ("gamma",)
        assert math.isinf(eps[5])

    def test_s1_denominator(self):
        eps = epsilon_defaults(0.0, 2.0, 1.0, 0.5, 1.0, a=5.0)
        assert eps[2] == 1.0 / 16.0
        assert eps[5] == 0.125 / 0.5
        assert eps.dropped == ()

    def test_fully_degenerate(self):
        eps = epsilon_defaults(0.0, 0.0, 0.0, 0.0, 0.0, a=2.0)
        assert set(eps.dropped) == {"gamma", "s1"}
        assert math.isinf(eps[2]) and math.isinf(eps[6])

    def test_validation(self):
        with pytest.raises(ValueError, match="a must"):
            epsilon_defaults(**CLASSICAL, a=0.0)
        with pytest.raises(ValueError, match="beta"):
            epsilon_defaults(1.0, 1.0, -0.1, 0.0, 0.0, a=1.0)


class TestLemmaBounds:
    def test_all_zero_unit_eps(self):
        table = lemma_bounds_rhs((1.0,) * 10, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert table["dIpp"] == (2.0, 0.5, -2.0, 0.0)

    def test_eps1_controls_ixx_column(self):
        for e1 in (0.3, 1.7):
            eps = (e1,) + (1.0,) * 9
            table = lemma_bounds_rhs(eps, 0.2, 0.9, 0.1, 0.1, 0.1)
            assert table["dIpp"][0] == 2.0 * e1
            assert table["dIpp"][1] == 0.5 / e1 - 0.4

    def test_defaults_reduce_to_displayed_rows(self):
        params = (0.3, 1.2, 0.4, 0.2, 0.1)
        a = 25.0
        eps = epsilon_defaults(*params, a=a)
        table = lemma_bounds_rhs(eps, *params)
        want = reduced_rows(*params, a=a)
        for row in table:
            np.testing.assert_allclose(table[row], want[row], rtol=1e-13)

    def test_degenerate_defaults_are_at_least_as_sharp(self):
        for params in [(0.0, 1.0, 0.3, 0.0, 0.2), (0.0, 0.0, 0.0, 0.0, 0.0)]:
            a = 30.0
            eps = epsilon_defaults(*params, a=a)
            table = lemma_bounds_rhs(eps, *params)
            want = reduced_rows(*params, a=a)
            for row in table:
                got = np.array(table[row])
                assert np.all(got <= np.array(want[row]) + 1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="10"):
            lemma_bounds_rhs((1.0,) * 9, 0, 0, 0, 0, 0)
        with pytest.raises(ValueError, match="positive"):
            lemma_bounds_rhs((0.0,) + (1.0,) * 9, 0, 0, 0, 0, 0)


class TestChooseWeights:
    def test_classical_exact(self):
        a, b, c, k = choose_abck(**CLASSICAL)
        assert (a, b, c, k) == (20.0, 3.5, 1.0, 382.0)

    def test_negative_sigma1_rejected(self):
        with pytest.raises(InfeasibleRegion, match="sigma1"):
            choose_abck(-0.5, 1.0, 0.0, 0.0, 0.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="margin"):
            choose_abck(**CLASSICAL, margin=0.0)
        with pytest.raises(ValueError, match="sigma2"):
            choose_abck(1.0, 0.5, 0.0, 0.0, 0.0)

    def test_b_midpoint_of_window(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            s1v = rng.uniform(0.0, 3.0)
            s2v = s1v + rng.uniform(0.0, 4.0)
            beta, gamma, omega = rng.uniform(0.0, 5.0, size=3)
            a, b, c, k = choose_abck(s1v, s2v, beta, gamma, omega)
            s = 2.0 + beta + 16.0 * gamma + omega
            q = 16.0 * s / 7.0 + 4.0 * gamma
            lo = 1.0 + c * s
            hi = min(a / q, 2.0 * c * s)
            assert lo < b < hi
            assert b == pytest.approx(0.5 * (lo + hi))


class TestPropositionCoefficients:
    def test_classical_values(self):
        ci, cx, cqp, cqx, d = proposition_coefficients(
            20.0, 3.5, 1.0, 382.0, **CLASSICAL
        )
        assert ci == -1.0
        assert cx == -0.5
        assert cqp == pytest.approx(-8.0)
        assert cqx == pytest.approx(-0.21875)
        assert d == 0.5

    def test_boundary_ixx(self):
        # b exactly at the lower window edge zeroes the Ixx coefficient.
        with pytest.raises(InvalidCertificate, match="Ixx"):
            proposition_coefficients(20.0, 3.0, 1.0, 382.0, **CLASSICAL)

    def test_boundary_ipp(self):
        with pytest.raises(InvalidCertificate, match="Ipp"):
            proposition_coefficients(20.0, 3.5, 1.0, 381.0, **CLASSICAL)

    def test_qpp_sign(self):
        with pytest.raises(InvalidCertificate, match="Q2pp"):
            proposition_coefficients(
                10.0, 3.5, 1.0, 1000.0, 0.0, 0.0, 0.0, 0.0, 0.0
            )

    def test_qxp_sign(self):
        with pytest.raises(InvalidCertificate, match="Q2xp"):
            proposition_coefficients(
                20.0, 3.5, 0.25, 1000.0, 0.0, 0.0, 0.0, 0.0, 0.0
            )


class TestAssembleLambda:
    def test_classical_rate(self):
        cert = build_certificate(**CLASSICAL, alpha=1.0)
        assert cert.lam == pytest.approx(0.5 / 382.0)
        assert cert.M_bound == 23.5

    def test_k_never_helps(self):
        cert = build_certificate(**CLASSICAL, alpha=1.0)
        bigger_k = dataclasses.replace(cert, k=2.0 * cert.k)
        assert assemble_lambda(bigger_k, 1.0) <= assemble_lambda(cert, 1.0)

    def test_large_alpha_saturates(self):
        cert = build_certificate(**CLASSICAL, alpha=1.0)
        assert assemble_lambda(cert, 1e9) == cert.d / (2.0 * cert.M_bound)

    def test_alpha_validation(self):
        cert = build_certificate(**CLASSICAL, alpha=1.0)
        with pytest.raises(ValueError, match="alpha"):
            assemble_lambda(cert, 0.0)
        with pytest.raises(ValueError, match="alpha"):
            assemble_lambda(cert, None)


class TestBuildAndValidate:
    def test_classical_certificate(self):
        cert = build_certificate(**CLASSICAL, alpha=1.0)
        assert cert.valid
        assert all(cert.conditions.values())
        assert (cert.s, cert.s1, cert.s2) == (2.0, 1.0, 3.0)
        assert (cert.a, cert.b, cert.c, cert.k) == (20.0, 3.5, 1.0, 382.0)
        assert cert.d == 0.5
        assert cert.coef_Ipp == -1.0 and cert.coef_Ixx == -0.5
        assert cert.b**2 <= cert.a * cert.c

    def test_rateless_certificate(self):
        cert = build_certificate(**CLASSICAL, alpha=None)
        assert cert.lam is None
        assert cert.valid
        assert "rate_positive" not in cert.conditions

    def test_random_admissible_tuples(self):
        # Acceptance-level property: the chooser always lands in the
        # valid region and the independent validator agrees.
        rng = np.random.default_rng(42)
        for i in range(200):
            s1v = rng.uniform(0.0, 3.0)
            s2v = s1v + rng.uniform(0.0, 4.0)
            beta, gamma, omega = rng.uniform(0.0, 5.0, size=3)
            if i % 4 == 0:
                gamma = 0.0
            if i % 5 == 0:
                beta = omega = 0.0
            alpha = rng.uniform(0.05, 2.0)
            cert = build_certificate(s1v, s2v, beta, gamma, omega, alpha=alpha)
            assert cert.valid, cert.conditions
            assert cert.lam > 0.0
            assert cert.b**2 <= cert.a * cert.c
            ok, conds = validate_certificate(cert)
            assert ok, conds

    def test_validator_catches_tampering(self):
        cert = build_certificate(**CLASSICAL, alpha=1.0)
        bad_b = dataclasses.replace(cert, b=10.0)
        ok, conds = validate_certificate(bad_b)
        assert not ok
        assert not conds["b_below_window"]
        bad_lam = dataclasses.replace(cert, lam=cert.lam * 2.0)
        ok, conds = validate_certificate(bad_lam)
        assert not ok
        assert not conds["rate_formula"]

    def test_rate_monotonicity_lattice(self):
        sigma1 = 0.1
        alpha = 0.8
        betas = np.linspace(0.0, 2.0, 5)
        gammas = np.linspace(0.0, 1.0, 5)
        omegas = np.linspace(0.0, 2.0, 5)
        sigma2s = np.linspace(0.1, 3.0, 5)
        lam = np.empty((5, 5, 5, 5))
        for i, bv in enumerate(betas):
            for j, gv in enumerate(gammas):
                for kk, ov in enumerate(omegas):
                    for l, s2v in enumerate(sigma2s):
                        lam[i, j, kk, l] = build_certificate(
                            sigma1, s2v, bv, gv, ov, alpha=alpha
                        ).lam
        for axis in range(4):
            assert np.all(np.diff(lam, axis=axis) <= 1e-15)

    def test_rate_monotone_in_sigma1_and_alpha(self):
        lams = [
            build_certificate(s1v, 3.0, 0.5, 0.2, 0.3, alpha=0.8).lam
            for s1v in np.linspace(0.0, 3.0, 5)
        ]
        assert np.all(np.diff(lams) >= -1e-15)
        cert = build_certificate(0.5, 1.5, 0.2, 0.1, 0.3, alpha=0.2)
        lams = [assemble_lambda(cert, al) for al in np.linspace(0.2, 5.0, 8)]
        assert np.all(np.diff(lams) >= -1e-15)


class TestKeyValueRoundTrip:
    def test_round_trip(self):
        for model in ("", "relativistic(theta=10, dim=1)"):
            cert = dataclasses.replace(
                build_certificate(**CLASSICAL, alpha=1.0), model=model)
            text = certificate_kv(cert)
            assert f"\nmodel = {model}\n" in text
            # a certificate written without a model line names no model
            older = "".join(line for line in text.splitlines(True)
                            if not line.startswith("model ="))
            for back, name in ((read_certificate_kv(text), model),
                               (read_certificate_kv(older), "")):
                for fld in dataclasses.fields(cert):
                    got = getattr(back, fld.name)
                    want = name if fld.name == "model" else getattr(cert, fld.name)
                    assert got == want, fld.name

    def test_rateless_round_trip(self):
        cert = build_certificate(0.0, 1.0, 0.5, 0.0, 0.2, alpha=None)
        back = read_certificate_kv(certificate_kv(cert))
        assert back.lam is None and back.alpha is None
        assert back.eps.dropped == cert.eps.dropped

    def test_malformed_input(self):
        with pytest.raises(InvalidCertificate, match="line 1"):
            read_certificate_kv("not a pair\n")
        with pytest.raises(InvalidCertificate, match="missing field"):
            read_certificate_kv("a = 1.0\n")

    def test_comments_and_blank_lines_ignored(self):
        cert = build_certificate(**CLASSICAL, alpha=1.0)
        text = "# certificate\n\n" + certificate_kv(cert)
        back = read_certificate_kv(text)
        assert back.k == cert.k
