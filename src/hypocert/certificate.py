"""Entropy-decay certificates: split constants, region choice, rate.

Builds the coefficient machinery for the modified entropy

    E[h] = k*D + a*Ipp + 2b*Ixp + c*Ixx

from scanned model constants (sigma1, sigma2, beta, gamma, omega) and a
log-Sobolev constant alpha.  The derived quantities

    s  = 2 + beta + 16*gamma + omega
    s1 = sigma2 + beta + omega
    s2 = 2 + sigma2
    q  = (16/7)*s + 4*gamma

recur throughout; q is the Q2pp weight in the reduced production bound.
Everything here is plain arithmetic on floats and is safe to call from
anywhere.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields

from .errors import InfeasibleRegion, InvalidCertificate

__all__ = [
    "Certificate",
    "EpsilonChoice",
    "assemble_lambda",
    "build_certificate",
    "certificate_kv",
    "choose_abck",
    "epsilon_defaults",
    "proposition_coefficients",
    "read_certificate_kv",
    "validate_certificate",
]

def _aux(sigma2, beta, gamma, omega):
    s = 2.0 + beta + 16.0 * gamma + omega
    s1 = sigma2 + beta + omega
    s2 = 2.0 + sigma2
    q = (16.0 / 7.0) * s + 4.0 * gamma
    return s, s1, s2, q


# ---------------------------------------------------------------------------
# Epsilon choices


@dataclass(frozen=True)
class EpsilonChoice:
    """Young-inequality split constants eps1..eps10.

    Entries may be math.inf: an infinite epsilon marks a split that was
    skipped because the term it would bound vanishes identically; the
    names of those splits are listed in dropped.
    """

    eps: tuple
    dropped: tuple = ()

    def __getitem__(self, i):
        return self.eps[i - 1]


def epsilon_defaults(sigma1, sigma2, beta, gamma, omega, a):
    """Default split constants for a given leading weight a.

    eps1 = 1/(2a); eps2 = eps3 = eps6 = eps7 = 1/(4(sigma2+beta+omega));
    eps4 = (8/7)s; eps5 = 1/(8 gamma); eps8 = 4; eps9 = eps10 = 1/2.
    Degenerate denominators (gamma = 0, or sigma2+beta+omega = 0) give
    inf sentinels: the corresponding bounded terms are identically zero,
    so no split is needed there.
    """
    if a <= 0.0:
        raise ValueError("a must be positive")
    for name, val in (("sigma2", sigma2), ("beta", beta),
                      ("gamma", gamma), ("omega", omega)):
        if val < 0.0:
            raise ValueError(f"{name} must be nonnegative")
    s, s1, _, _ = _aux(sigma2, beta, gamma, omega)
    dropped = []
    if s1 > 0.0:
        e2 = 0.25 / s1
    else:
        e2 = math.inf
        dropped.append("s1")
    if gamma > 0.0:
        e5 = 0.125 / gamma
    else:
        e5 = math.inf
        dropped.append("gamma")
    eps = (
        0.5 / a,          # eps1
        e2, e2,           # eps2, eps3
        (8.0 / 7.0) * s,  # eps4
        e5,               # eps5
        e2, e2,           # eps6, eps7
        4.0,              # eps8
        0.5, 0.5,         # eps9, eps10
    )
    return EpsilonChoice(eps=eps, dropped=tuple(dropped))


# ---------------------------------------------------------------------------
# Region choice


def choose_abck(sigma1, sigma2, beta, gamma, omega, margin=0.05):
    """Deterministic choice of the entropy weights (a, b, c, k).

    With c = 2/s the b-window (1+cs, min(a/q, 2cs)) becomes (3, 4) once
    a/q > 4; a = ceil((1+margin)*max(4q, 8s)) forces that together with
    a > 4 s^2 c, and b is the window midpoint 3.5.  k adds unit slack to
    the smallest value that makes the Ipp coefficient negative.
    """
    if not 0.0 < margin < 1.0:
        raise ValueError("margin must lie in (0, 1)")
    if sigma1 < 0.0:
        raise InfeasibleRegion(
            f"curvature lower bound sigma1 = {sigma1:g} is negative; "
            "no decay region exists"
        )
    if sigma2 < sigma1:
        raise ValueError("sigma2 must be >= sigma1")
    s, s1, s2, q = _aux(sigma2, beta, gamma, omega)
    c = 2.0 / s
    a = float(math.ceil((1.0 + margin) * max(4.0 * q, 8.0 * s)))
    b_lo = 1.0 + c * s
    b_hi = min(a / q, 2.0 * c * s)
    b = 0.5 * (b_lo + b_hi)
    k = a * (a - 2.0 * sigma1) + 2.0 * b * s1 * s2 + 1.0
    return a, b, c, k


def proposition_coefficients(a, b, c, k, sigma1, sigma2, beta, gamma, omega):
    """The four reduced production coefficients and the margin d.

    coef_Ipp and coef_Ixx must be strictly negative and the two Q2
    coefficients nonpositive; otherwise InvalidCertificate names the
    violated condition.  d = min(-coef_Ipp, -coef_Ixx).
    """
    s, s1, s2, q = _aux(sigma2, beta, gamma, omega)
    coef_ipp = -k + a * (a - 2.0 * sigma1) + 2.0 * b * s1 * s2
    coef_ixx = 1.0 + c * s - b
    coef_qpp = 2.0 * (b * q - a)
    coef_qxp = (7.0 / 4.0) * (b / (2.0 * s) - c)
    if not coef_ipp < 0.0:
        raise InvalidCertificate(
            f"Ipp coefficient {coef_ipp:g} is not negative (k too small)"
        )
    if not coef_ixx < 0.0:
        raise InvalidCertificate(
            f"Ixx coefficient {coef_ixx:g} is not negative (b <= 1 + c*s)"
        )
    if coef_qpp > 0.0:
        raise InvalidCertificate(
            f"Q2pp coefficient {coef_qpp:g} is positive (b > a/q)"
        )
    if coef_qxp > 0.0:
        raise InvalidCertificate(
            f"Q2xp coefficient {coef_qxp:g} is positive (b > 2*c*s)"
        )
    d = min(-coef_ipp, -coef_ixx)
    return coef_ipp, coef_ixx, coef_qpp, coef_qxp, d


def assemble_lambda(cert, alpha):
    """Certified exponential rate from a valid certificate and alpha.

    Split -d(Ipp+Ixx) <= -(d/2)(Ipp+Ixx) - d*alpha*D (log-Sobolev on
    one half), and bound E <= k*D + M_bound*(Ipp+Ixx) via Young on the
    cross term; the rate is the worse of the two quotients.
    """
    if alpha is None or alpha <= 0.0:
        raise ValueError("alpha must be positive")
    return min(cert.d * alpha / cert.k, cert.d / (2.0 * cert.M_bound))


# ---------------------------------------------------------------------------
# Certificate assembly


@dataclass(frozen=True)
class Certificate:
    """Complete decay certificate with diagnostics.

    conditions maps each region/sign condition to a bool; valid is their
    conjunction as established by the independent validator.  lam is
    None when no log-Sobolev constant was available (the entropy
    comparison still holds; only the final rate is missing).  model
    names the model the constants were scanned on ("" when unknown).
    """

    sigma1: float
    sigma2: float
    beta: float
    gamma: float
    omega: float
    alpha: float | None
    margin: float
    s: float
    s1: float
    s2: float
    a: float
    b: float
    c: float
    k: float
    d: float
    coef_Ipp: float
    coef_Ixx: float
    coef_Qpp: float
    coef_Qxp: float
    M_bound: float
    lam: float | None
    eps: EpsilonChoice
    valid: bool = False
    conditions: dict = field(default_factory=dict)
    model: str = ""


# certificate.kv's numeric lines, one per float field in dataclass order:
# (key, field, optional).  lam is written as lambda, and an optional
# field that is None as an empty value.
_KV_NUMBERS = tuple(
    ("lambda" if f.name == "lam" else f.name, f.name, f.type != "float")
    for f in fields(Certificate) if f.type.startswith("float")
)


def build_certificate(sigma1, sigma2, beta, gamma, omega,
                      alpha=None, margin=0.05):
    """Full pipeline: choose weights, check signs, assemble the rate.

    alpha may be None (no certified log-Sobolev constant); the
    certificate is then rate-less but still records the entropy-region
    data.  The returned certificate has been re-checked by
    validate_certificate.
    """
    a, b, c, k = choose_abck(sigma1, sigma2, beta, gamma, omega, margin)
    ci, cx, cqp, cqx, d = proposition_coefficients(
        a, b, c, k, sigma1, sigma2, beta, gamma, omega
    )
    s, s1, s2, _ = _aux(sigma2, beta, gamma, omega)
    m_bound = max(a + b, b + c)
    eps = epsilon_defaults(sigma1, sigma2, beta, gamma, omega, a)
    cert = Certificate(
        sigma1=sigma1, sigma2=sigma2, beta=beta, gamma=gamma, omega=omega,
        alpha=alpha, margin=margin,
        s=s, s1=s1, s2=s2, a=a, b=b, c=c, k=k, d=d,
        coef_Ipp=ci, coef_Ixx=cx, coef_Qpp=cqp, coef_Qxp=cqx,
        M_bound=m_bound, lam=None, eps=eps,
    )
    if alpha is not None:
        object.__setattr__(cert, "lam", assemble_lambda(cert, alpha))
    ok, conds = validate_certificate(cert)
    object.__setattr__(cert, "valid", ok)
    object.__setattr__(cert, "conditions", conds)
    return cert


# ---------------------------------------------------------------------------
# Independent validation

# Deliberately restated from scratch: every inequality is recomputed
# from the stored inputs without calling the chooser or the coefficient
# helper, so a bug there cannot hide here.


def validate_certificate(cert):
    """Re-derive every region and sign condition from the raw fields.

    Returns (ok, conditions) where conditions maps condition names to
    booleans.  ok requires every condition; rate conditions are skipped
    (not failed) when alpha or lam is absent.
    """
    t = cert
    s_chk = 2.0 + t.beta + 16.0 * t.gamma + t.omega
    s1_chk = t.sigma2 + t.beta + t.omega
    s2_chk = 2.0 + t.sigma2
    q_chk = 16.0 * s_chk / 7.0 + 4.0 * t.gamma
    conds = {
        "aux_consistent": (
            abs(t.s - s_chk) <= 1e-12 * max(1.0, s_chk)
            and abs(t.s1 - s1_chk) <= 1e-12 * max(1.0, s1_chk)
            and abs(t.s2 - s2_chk) <= 1e-12 * max(1.0, s2_chk)
        ),
        "positive_weights": t.a > 0.0 and t.b > 0.0 and t.c > 0.0 and t.k > 0.0,
        "b_above": t.b > 1.0 + t.c * s_chk,
        "b_below_window": t.b < 2.0 * t.c * s_chk,
        "b_below_slope": t.b < t.a / q_chk,
        "c_large": t.c > 1.0 / s_chk,
        "a_dominates_window": t.a > (1.0 + t.c * s_chk) * q_chk,
        "a_dominates_cross": t.a > 4.0 * s_chk * s_chk * t.c,
        "cross_term": t.b * t.b <= t.a * t.c,
        "ipp_negative": -t.k + t.a * (t.a - 2.0 * t.sigma1)
        + 2.0 * t.b * s1_chk * s2_chk < 0.0,
        "ixx_negative": 1.0 + t.c * s_chk - t.b < 0.0,
        "qpp_nonpositive": 2.0 * (t.b * q_chk - t.a) <= 0.0,
        "qxp_nonpositive": 7.0 * (t.b / (2.0 * s_chk) - t.c) / 4.0 <= 0.0,
        "d_positive": t.d > 0.0
        and abs(t.d - min(t.k - t.a * (t.a - 2.0 * t.sigma1)
                          - 2.0 * t.b * s1_chk * s2_chk,
                          t.b - 1.0 - t.c * s_chk)) <= 1e-9 * max(1.0, t.d),
        "m_bound": abs(t.M_bound - max(t.a + t.b, t.b + t.c)) <= 1e-12
        * max(1.0, t.M_bound),
    }
    if t.alpha is not None and t.lam is not None:
        lam_chk = min(t.d * t.alpha / t.k, t.d / (2.0 * t.M_bound))
        conds["rate_positive"] = t.lam > 0.0
        conds["rate_formula"] = abs(t.lam - lam_chk) <= 1e-12 * max(1.0, lam_chk)
    return all(conds.values()), conds


# ---------------------------------------------------------------------------
# Key-value emission


def certificate_kv(cert):
    """Serialize a certificate as `key = value` lines.

    Floats use repr for exact round-trip; inf epsilons print as inf.
    """
    items = [
        (key, "" if getattr(cert, name) is None else repr(getattr(cert, name)))
        for key, name, _ in _KV_NUMBERS
    ]
    items += [
        ("model", cert.model),
        ("valid", str(bool(cert.valid)).lower()),
        ("eps_dropped", ",".join(cert.eps.dropped)),
    ]
    for i in range(1, 11):
        items.append((f"eps{i}", repr(cert.eps[i])))
    for name, okflag in sorted(cert.conditions.items()):
        items.append((f"cond_{name}", str(bool(okflag)).lower()))
    return "\n".join(f"{key} = {val}" for key, val in items) + "\n"


def read_kv(text, error, where=""):
    """Split `key = value` lines into (line number, key, value) triples.

    Blank lines and # comments are skipped; any other line needs a key
    and an `=`, and no key may appear twice, else error(message) is
    raised with `where` prefixed.
    """
    out, seen = [], {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or not key:
            raise error(f"{where}line {lineno}: expected key = value")
        if key in seen:
            raise error(f"{where}line {lineno}: key {key!r} repeats line {seen[key]}")
        seen[key] = lineno
        out.append((lineno, key, value.strip()))
    return out


def kv_float(raw, key, error, where="", optional=False):
    """raw[key] as a float; absent or empty gives None when optional."""
    val = raw.get(key, "")
    if val == "":
        if optional:
            return None
        raise error(f"{where}missing field {key}")
    try:
        return float(val)
    except ValueError as exc:
        raise error(f"{where}field {key}: {exc}") from exc


def read_certificate_kv(text):
    """Parse certificate_kv output back into a Certificate."""
    raw = {key: val for _, key, val in read_kv(text, InvalidCertificate)}
    num = functools.partial(kv_float, raw, error=InvalidCertificate)
    eps = EpsilonChoice(
        eps=tuple(num(f"eps{i}") for i in range(1, 11)),
        dropped=tuple(x for x in raw.get("eps_dropped", "").split(",") if x),
    )
    conditions = {
        key[len("cond_"):]: val == "true"
        for key, val in raw.items()
        if key.startswith("cond_")
    }
    return Certificate(
        **{name: num(key, optional=opt) for key, name, opt in _KV_NUMBERS},
        eps=eps, valid=raw.get("valid") == "true", conditions=conditions,
        model=raw.get("model", ""),
    )
