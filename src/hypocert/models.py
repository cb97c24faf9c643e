"""Model registry: built-in and user-defined kinetic models.

A model is the data (g, v, E) on momentum space: a Riemannian metric
g_ij, velocity components v^(1)..v^(N) transporting in x, and an energy
E defining the equilibrium weight u = e^-E / sqrt(det g).  The space
and momentum dimensions coincide (M = N).

Built-ins:

* classical(M):  g = identity, v^(I) = p^I, E = |p|^2 / 2.  The drift
  is W^i = -p^i and the Bakry-Emery-Ricci tensor is the identity.
* relativistic(theta): M = N = 3, g_ij = p0 (delta_ij - p_i p_j / p0^2)
  with p0 = sqrt(1 + |p|^2), v = p / p0, E = theta p0.  Ships with a
  closed-form oracle bundle (curvatures, bilinear forms, product-metric
  blocks) used to cross-check the generic tensor machinery.

User models come from plain-text config files with [metric], [velocity]
and [energy] sections whose values are expression strings; see
load_model_file.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .errors import HypocertError, ModelFileError
from .expressions import (
    Const,
    Coord,
    ExprAST,
    Theta,
    add,
    call,
    diff_expr,
    div,
    mul,
    neg,
    parse_expr,
    powx,
    sub,
    uses_theta,
)
from .fields import ExprMetricField, ExprScalarField, FDField, _ExprJets, as_field

__all__ = [
    "ModelSpec",
    "builtin_classical",
    "builtin_relativistic",
    "log_weight_field",
    "load_model_file",
    "parse_expr",
    "diff_expr",
    "ExprAST",
    "RelativisticOracle",
    "ClassicalOracle",
]


@dataclass(frozen=True)
class ModelSpec:
    """Immutable bundle of the fields defining one kinetic model.

    dim is both the momentum and spatial dimension (M = N).  theta is
    the optional temperature-like parameter bound into expressions.
    oracle, when present, provides closed-form reference values.
    Each field is coerced once by `fields.as_field`, so its class fixes
    how its derivatives are taken: exactly for an expression field, by
    central differences for an `FDField`.
    """

    name: str
    dim: int
    metric_field: object
    v_fields: tuple
    energy_field: object
    theta: float | None = None
    oracle: object | None = None
    # not an init field, so dataclasses.replace starts a fresh cache
    _cache: dict = field(default_factory=dict, init=False, compare=False,
                         repr=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("model dimension must be >= 1")
        if len(self.v_fields) != self.dim:
            raise ValueError(
                f"need {self.dim} velocity components, got {len(self.v_fields)}"
            )

        def coerce(f):
            return as_field(f, self.dim, self.theta)

        object.__setattr__(self, "metric_field", coerce(self.metric_field))
        object.__setattr__(self, "v_fields", tuple(map(coerce, self.v_fields)))
        object.__setattr__(self, "energy_field", coerce(self.energy_field))

    def _builder(self):
        """The model's one jet builder (`fields._ExprJets`), made on first
        use: field 0 is g, field I is v^I, field dim + 1 is E, and field
        dim + 2 is log u once `log_weight_field` has made it."""
        jets = self._cache.get("jets")
        if jets is None:
            jets = self._cache["jets"] = _ExprJets(
                (self.metric_field, *self.v_fields, self.energy_field), self.dim)
        return jets

    def _jets(self, request, P):
        """The jets of a request of (field, order) pairs, in order, from
        the model's one jet builder."""
        return self._builder()(request, P)


# ---------------------------------------------------------------------------
# Derived fields


def _det_ast(rows):
    """Determinant of a square matrix of ASTs by Laplace expansion."""
    m = len(rows)
    if m == 1:
        return rows[0][0]
    total = Const(0.0)
    for j in range(m):
        minor = [
            [rows[r][c] for c in range(m) if c != j] for r in range(1, m)
        ]
        term = mul(rows[0][j], _det_ast(minor))
        total = add(total, term) if j % 2 == 0 else sub(total, term)
    return total


def _metric_rows(metric_field):
    m = metric_field.dim
    zero = Const(0.0)
    return [
        [metric_field.entries.get((min(i, j), max(i, j)), zero) for j in range(m)]
        for i in range(m)
    ]


def log_weight_field(model):
    """Scalar field for log u = -E - (1/2) log det g.

    Uses an exact expression when both g and E are expression-backed;
    falls back to a finite-difference field otherwise.  The result is
    cached on the model and joins the model's jet builder as field
    dim + 2, its entry interned as it joins, so a request can read it
    together with g, v and E.
    """
    cached = model._cache.get("log_weight")
    if cached is not None:
        return cached
    mf, ef = model.metric_field, model.energy_field
    if isinstance(mf, ExprMetricField) and isinstance(ef, ExprScalarField):
        det = _det_ast(_metric_rows(mf))
        ast = sub(neg(ef.ast), mul(Const(0.5), call("log", det)))
        out = ExprScalarField(ast, model.dim, theta=model.theta)
    else:
        def value(P):
            logu, _ = geometry.log_weight_values(model, P)
            return logu

        out = FDField(value, model.dim)
    model._builder().add(out)
    model._cache["log_weight"] = out
    return out


# ---------------------------------------------------------------------------
# Built-in models


def builtin_classical(M):
    """Classical kinetic model: g = identity, v^(I) = p^I, E = |p|^2/2."""
    if M < 1:
        raise ValueError("dimension must be >= 1")
    entries = {(i, i): Const(1.0) for i in range(M)}
    metric = ExprMetricField(entries, M)
    v_fields = tuple(ExprScalarField(Coord(i + 1), M) for i in range(M))
    sq = Const(0.0)
    for i in range(M):
        sq = add(sq, powx(Coord(i + 1), Const(2.0)))
    energy = ExprScalarField(div(sq, Const(2.0)), M)
    return ModelSpec(
        name="classical",
        dim=M,
        metric_field=metric,
        v_fields=v_fields,
        energy_field=energy,
        oracle=ClassicalOracle(M),
    )


def _p0_ast(dim):
    sq = Const(1.0)
    for i in range(dim):
        sq = add(sq, powx(Coord(i + 1), Const(2.0)))
    return call("sqrt", sq)


def builtin_relativistic(theta, dim=3):
    """Relativistic kinetic model at inverse temperature theta.

    g_ij = p0 delta_ij - p_i p_j / p0, v^(I) = p^I / p0, E = theta p0,
    with p0 = sqrt(1 + |p|^2).  The default dimension 3 carries the
    closed-form oracle bundle; other dimensions give the same family
    without closed-form references (dim = 1 feeds the 1D solver).
    """
    theta = float(theta)
    if not 0.0 < theta < math.inf:
        raise ValueError(f"theta must be positive and finite, got {theta}")
    p0 = _p0_ast(dim)
    entries = {}
    for i in range(dim):
        for j in range(i, dim):
            pij = mul(Coord(i + 1), Coord(j + 1))
            if i == j:
                entries[(i, j)] = sub(p0, div(pij, p0))
            else:
                entries[(i, j)] = neg(div(pij, p0))
    metric = ExprMetricField(entries, dim, theta=theta)
    v_fields = tuple(
        ExprScalarField(div(Coord(i + 1), p0), dim, theta=theta) for i in range(dim)
    )
    energy = ExprScalarField(mul(Theta(), p0), dim, theta=theta)
    oracle = RelativisticOracle(theta) if dim == 3 else None
    return ModelSpec(
        name=f"relativistic(theta={theta:g}" + ("" if dim == 3 else f", dim={dim}") + ")",
        dim=dim,
        metric_field=metric,
        v_fields=v_fields,
        energy_field=energy,
        theta=theta,
        oracle=oracle,
    )


class ClassicalOracle:
    """Constant closed forms for the classical model, and in one momentum
    dimension the exact solution of its kinetic equation.

    At M = 1 the model is the Langevin equation.  For the datum
    h0 = 1 + eps cos(XI x) on the unit torus its density ratio with
    respect to the Gaussian equilibrium is, for all t >= 0,

        h = 1 + eps exp(-XI^2 s2(t) / 2) cos(XI x - XI p (1 - e^-t)),
        s2(t) = 2 t - 3 + 4 e^-t - e^-2t

    (Risken, The Fokker-Planck Equation, 1989, ch. 10).
    """

    XI = 2.0 * np.pi

    def __init__(self, dim):
        self.dim = dim

    def _langevin_amplitude(self, t, eps):
        """a(t) = eps exp(-XI^2 s2(t) / 2), the amplitude of h - 1."""
        if self.dim != 1:
            raise ValueError("the Langevin solution needs one momentum "
                             f"dimension, not {self.dim}")
        s2 = 2.0 * t - 3.0 + 4.0 * np.exp(-t) - np.exp(-2.0 * t)
        return eps * np.exp(-0.5 * self.XI**2 * s2)

    def langevin_h(self, x, p, t, eps):
        """Exact density ratio at time t for the datum 1 + eps cos(XI x)."""
        xi = self.XI
        return 1.0 + self._langevin_amplitude(t, eps) * np.cos(
            xi * x - xi * p * (1.0 - np.exp(-t)))

    def langevin_D(self, t, eps):
        """Exact relative entropy D(t) = int int (h log h - h + 1) of
        langevin_h against the Gaussian.

        Over a period in x, h - 1 is a cos(theta) with theta uniform,
        whatever p is, so D is the mean over theta of (1 + e) log(1 + e)
        - e at e = a cos(theta): 1 - b + log((1 + b) / 2) with b =
        sqrt(1 - a^2).  In c = 1 - b = a^2 / (1 + b) that is c +
        log1p(-c / 2), which keeps its relative accuracy however small a
        gets, where h log h - h + 1 rounds to 0 once it is below the
        spacing of floats at 1."""
        a = self._langevin_amplitude(t, eps)
        c = a * a / (1.0 + np.sqrt(1.0 - a * a))
        return float(c + np.log1p(-0.5 * c))

    def _eye(self, P, scale=1.0):
        n = P.shape[0]
        return np.broadcast_to(scale * np.eye(self.dim), (n, self.dim, self.dim)).copy()

    def _zero(self, P):
        return np.zeros((P.shape[0], self.dim, self.dim))

    def metric(self, P):
        return self._eye(P)

    def ricci(self, P):
        return self._zero(P)

    def hess_log_u(self, P):
        return self._eye(P, -1.0)

    def bakry(self, P):
        return self._eye(P)

    def form_A(self, P):
        return self._eye(P)

    def form_B(self, P):
        return self._zero(P)

    def form_C(self, P):
        return self._zero(P)

    def form_R(self, P):
        return self._zero(P)


class RelativisticOracle:
    """Closed-form reference values for the 3D relativistic model.

    All methods take a batch P with shape (n, 3) and return batched
    tensors.  delta is the Euclidean identity, g the model metric, A
    the velocity-gradient form; x-block indices refer to the product
    metric G = A_IJ dx dx + g_ij dp dp used by the log-Sobolev
    criterion, with A_IJ the matrix inverse of A^IJ and
    U = u / sqrt(det A_IJ) = u / p0^(11/2).
    """

    def __init__(self, theta):
        self.theta = float(theta)
        self.dim = 3

    @staticmethod
    def p0(P):
        return np.sqrt(1.0 + np.sum(P * P, axis=1))

    def _parts(self, P):
        n = P.shape[0]
        p0 = self.p0(P)
        eye = np.broadcast_to(np.eye(3), (n, 3, 3))
        pp = P[:, :, None] * P[:, None, :]
        return p0, eye, pp

    def metric(self, P):
        p0, eye, pp = self._parts(P)
        return p0[:, None, None] * eye - pp / p0[:, None, None]

    def metric_inv(self, P):
        p0, eye, pp = self._parts(P)
        return (eye + pp) / p0[:, None, None]

    def sqrt_det(self, P):
        return np.sqrt(self.p0(P))

    def form_A(self, P):
        p0, eye, pp = self._parts(P)
        return (eye - pp / p0[:, None, None] ** 2) / p0[:, None, None] ** 3

    def form_B(self, P):
        # Gram matrix of div Hess v^I; equals (11/2)^2 delta at p = 0.
        p0, eye, _ = self._parts(P)
        A = self.form_A(P)
        c_delta = -21.0 * (9 * p0**2 + 35) / (16 * p0**9)
        c_A = (225 * p0**4 + 399 * p0**2 + 784) / (16 * p0**6)
        return c_delta[:, None, None] * eye + c_A[:, None, None] * A

    def form_C(self, P):
        p0, eye, _ = self._parts(P)
        A = self.form_A(P)
        c_delta = 9.0 / (4 * p0**6)
        c_A = 9.0 * (2 * p0**2 - 3) / (4 * p0**3)
        return c_delta[:, None, None] * eye + c_A[:, None, None] * A

    def form_R(self, P):
        p0, eye, _ = self._parts(P)
        A = self.form_A(P)
        pref = (1 + 2 * self.theta * p0) ** 2 / (16 * p0**9)
        inner = (
            16 * (p0**2 - 1)[:, None, None] * eye
            + (p0**3 * (9 * p0**4 - 34 * p0**2 + 25))[:, None, None] * A
        )
        return pref[:, None, None] * inner

    def ricci(self, P):
        p0, eye, _ = self._parts(P)
        g = self.metric(P)
        return (
            3.0 * eye - ((4 + 15 * p0**2) / p0)[:, None, None] * g
        ) / (4 * p0**2)[:, None, None]

    def hess_log_u(self, P):
        p0, eye, _ = self._parts(P)
        g = self.metric(P)
        th = self.theta
        c_g = (3 + 3 * p0**2 + 2 * th * p0 * (1 + 3 * p0**2)) / p0
        return (
            (4 + 4 * th * p0)[:, None, None] * eye - c_g[:, None, None] * g
        ) / (4 * p0**2)[:, None, None]

    def bakry(self, P):
        p0, eye, _ = self._parts(P)
        g = self.metric(P)
        th = self.theta
        c_g = (6 * th * p0**3 - 12 * p0**2 + 2 * th * p0 - 1) / p0
        return (
            -(1 + 4 * th * p0)[:, None, None] * eye + c_g[:, None, None] * g
        ) / (4 * p0**2)[:, None, None]

    # -- product-metric blocks (x-block uses G_IJ = inverse of form_A)

    def G_xx(self, P):
        p0, eye, pp = self._parts(P)
        return p0[:, None, None] ** 3 * (eye + pp)

    def ricci_G_xx(self, P):
        p0, eye, _ = self._parts(P)
        G = self.G_xx(P)
        return (6.5 * p0**2)[:, None, None] * eye - (
            (19 * p0**2 - 7) / p0**3
        )[:, None, None] * G

    def ricci_G_pp(self, P):
        p0, eye, _ = self._parts(P)
        g = self.metric(P)
        return (1.5 / p0**2)[:, None, None] * eye - (
            (25 * p0**2 - 3) / (2 * p0**3)
        )[:, None, None] * g

    def hess_logU_xx(self, P):
        # x-block of the G-covariant Hessian of log U.  log U depends on p
        # only, so this block is pure connection: -Gamma^k_IJ d_k log U.
        # Vanishes at p = 0 where all first derivatives of G vanish.
        p0, eye, _ = self._parts(P)
        G = self.G_xx(P)
        pref = self.theta * p0 + 6.0
        inner = p0[:, None, None] ** 2 * eye - (
            (5 * p0**2 - 3) / (2 * p0**3)
        )[:, None, None] * G
        return pref[:, None, None] * inner

    def hess_logU_pp(self, P):
        # p-block equals the fiber Hessian of log U = -theta p0 - 6 log p0;
        # at p = 0 it reduces to -(theta + 6) delta.
        p0, eye, _ = self._parts(P)
        g = self.metric(P)
        th = self.theta
        return ((th * p0 + 12) / p0**2)[:, None, None] * eye - (
            (3 * th * p0**3 + 18 * p0**2 + th * p0 + 18) / (2 * p0**3)
        )[:, None, None] * g


# ---------------------------------------------------------------------------
# Model files


def _require(config, section, path):
    if not config.has_section(section):
        raise ModelFileError(f"{path}: missing [{section}] section")
    return config[section]


def load_model_file(path):
    """Load a user model from a config file.

    Layout:

        [model]
        theta = 4.0            ; optional scalar, bound to 'theta'

        [metric]
        g11 = 1/p1^4           ; entries g{i}{j}, i <= j; missing
        g12 = 0                ; off-diagonal entries default to 0

        [velocity]
        v1 = p1                ; components v1..vN; N fixes the dimension

        [energy]
        E = p1^2/2

    All values are expression strings over p1..pM and theta.
    """
    config = configparser.ConfigParser(interpolation=None)
    config.optionxform = str
    read = config.read(path)
    if not read:
        raise ModelFileError(f"cannot read model file {path}")

    theta = None
    if config.has_section("model") and config.has_option("model", "theta"):
        try:
            theta = float(config.get("model", "theta"))
        except ValueError as exc:
            raise ModelFileError(f"{path}: theta is not a number") from exc
        if not math.isfinite(theta):
            raise ModelFileError(f"{path}: theta must be finite, got {theta}")

    velocity = _require(config, "velocity", path)
    dim = 0
    while config.has_option("velocity", f"v{dim + 1}"):
        dim += 1
    if dim == 0:
        raise ModelFileError(f"{path}: [velocity] must define v1 (then v2, ...)")
    extra = set(velocity) - {f"v{i + 1}" for i in range(dim)}
    if extra:
        raise ModelFileError(f"{path}: unexpected velocity keys {sorted(extra)}")

    def parse(section, key, src):
        try:
            return parse_expr(src, max_coord_index=dim)
        except HypocertError as exc:
            raise ModelFileError(f"{path}: [{section}] {key}: {exc}") from exc

    metric_sec = _require(config, "metric", path)
    entries = {}
    for key, src in metric_sec.items():
        if not (len(key) == 3 and key.startswith("g") and key[1:].isdigit()):
            raise ModelFileError(f"{path}: bad metric key {key!r} (want g{{i}}{{j}})")
        i, j = int(key[1]) - 1, int(key[2]) - 1
        if not (0 <= i < dim and 0 <= j < dim):
            raise ModelFileError(f"{path}: metric key {key!r} outside dimension {dim}")
        entries[(min(i, j), max(i, j))] = parse("metric", key, src)
    for i in range(dim):
        if (i, i) not in entries:
            raise ModelFileError(f"{path}: missing diagonal metric entry g{i+1}{i+1}")

    energy_sec = _require(config, "energy", path)
    if "E" not in energy_sec:
        raise ModelFileError(f"{path}: [energy] must define E")
    energy_ast = parse("energy", "E", energy_sec["E"])
    v_asts = [parse("velocity", f"v{i+1}", velocity[f"v{i+1}"]) for i in range(dim)]

    all_asts = [energy_ast] + v_asts + list(entries.values())
    if theta is None and any(uses_theta(a) for a in all_asts):
        raise ModelFileError(f"{path}: expressions use theta but [model] theta is unset")

    return ModelSpec(
        name=str(path),
        dim=dim,
        metric_field=ExprMetricField(entries, dim, theta=theta),
        v_fields=tuple(ExprScalarField(a, dim, theta=theta) for a in v_asts),
        energy_field=ExprScalarField(energy_ast, dim, theta=theta),
        theta=theta,
    )
