"""Exact reference values the benchmark checks program outputs against.

The classical model is the Langevin equation.  For the datum
h0 = 1 + eps cos(xi x) its density ratio with respect to the Gaussian
equilibrium is, for all t >= 0,

    h = 1 + eps exp(-xi^2 s2(t) / 2) cos(xi x - xi p (1 - e^-t)),
    s2(t) = 2 t - 3 + 4 e^-t - e^-2t

(Risken, The Fokker-Planck Equation, 1989, ch. 10).  The relative
entropy D(t) = int int (h log h - h + 1) gamma(p) dp dx then follows by
quadrature: probabilists' Gauss-Hermite nodes in p, uniform nodes in x
(the periodic trapezoid rule, exact to round-off for this smooth
integrand).
"""

import numpy as np

XI = 2.0 * np.pi

# assumptions.kv of `check --model relativistic --theta 4
# --scan-resolution 5 --scan-count 100` at the program's recorded scan
# seed 20240 (133 points).  The CLI default scan (6,169 points) gives
# the same values, up to the last digits, except gamma = 2.5980762113533196.
REL3D_KV = {
    "sigma1": 0.5,
    "sigma2": 5.681194270070629,
    "beta": 30.25,
    "gamma": 2.4298953955321556,
    "omega": 100.48334797819551,
    "hormander_min": 9.802960494068975e-05,
}
REL3D_EXACT = {"alpha": "", "required_ok": "true", "grid_points": "133"}
# Relative tolerance on the numeric fields: admits a reordered
# floating-point sum, not a different extremum.
REL3D_RTOL = 1e-8

# Exact constant tuple of the classical model, at acceptance gate
# test_02's absolute tolerance.
CLASSICAL_KV = {"sigma1": 1.0, "sigma2": 1.0, "beta": 0.0, "gamma": 0.0,
                "omega": 0.0}
CLASSICAL_ATOL = 1e-8


def langevin_h(x, p, t, eps):
    """Exact density ratio at time t for the datum 1 + eps cos(xi x)."""
    s2 = 2.0 * t - 3.0 + 4.0 * np.exp(-t) - np.exp(-2.0 * t)
    amp = eps * np.exp(-0.5 * XI**2 * s2)
    return 1.0 + amp * np.cos(XI * x - XI * p * (1.0 - np.exp(-t)))


def langevin_D(t, eps, nx=256, np_nodes=80):
    """Exact relative entropy D(t) of the Langevin solution."""
    p, w = np.polynomial.hermite_e.hermegauss(np_nodes)
    w = w / w.sum()
    x = np.arange(nx) / nx
    h = langevin_h(x[:, None], p[None, :], t, eps)
    phi = h * np.log(h) - h + 1.0
    return float(np.sum(phi.mean(axis=0) * w))
