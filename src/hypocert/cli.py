"""Command-line pipeline: scan assumptions, build the decay certificate,
run the phase-space solver, and collate reports.

All four subcommands share one configuration surface: an optional
plain-text key file plus flag overrides, everything written beneath one
output directory.  Exit codes are a stable contract:

    0  success
    1  mathematical failure (assumption gate, certificate, decay bound)
    2  usage or configuration error

The scan seed is fixed and recorded in every report so that witnesses
are reproducible.
"""

import argparse
import dataclasses
import functools
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import solver
from .assumptions import (
    _REQUIRED_GATES,
    check_model,
    default_grid,
    report_kv,
    report_text,
)
from .certificate import (
    build_certificate,
    certificate_kv,
    kv_float,
    read_certificate_kv,
    read_kv,
    validate_certificate,
)
from .errors import (
    ExprDomainError,
    ExprSyntaxError,
    HypocertError,
    InsufficientData,
    InvalidCertificate,
    ModelFileError,
    NonpositiveValues,
    UnknownIdentifier,
)
from .models import builtin_classical, builtin_relativistic, load_model_file

ASSUMPTIONS_TXT = "assumptions.txt"
ASSUMPTIONS_KV = "assumptions.kv"
CERTIFICATE_KV = "certificate.kv"
SERIES_CSV = "series.csv"
SUMMARY_TXT = "summary.txt"
REPORT_TXT = "report.txt"

MIN_FIT_SAMPLES = 10


class ConfigError(Exception):
    """Bad configuration file, key, value, or flag combination."""


class PipelineFailure(Exception):
    """A mathematical gate failed; the message names the gate."""


# ---------------------------------------------------------------------------
# Configuration


@dataclass(frozen=True)
class RunConfig:
    """Resolved settings for one invocation.

    model is a builtin tag (classical | relativistic) or a path to a
    model definition file.  theta and dim apply to builtin tags only;
    file models carry their own.  dt = None lets the solver pick a
    CFL-safe step.
    """

    model: str = "classical"
    theta: float | None = None
    dim: int | None = None
    Nx: int = 64
    Np: int = 128
    P: float = 8.0
    scan_radius: float = 10.0
    scan_resolution: int = 21
    scan_count: int = 2000
    tmax: float = 10.0
    dt: float | None = None
    sample_dt: float = 0.05
    initial_data: str = "1 + x*(1-x)"
    margin: float = 0.05
    certificate_path: str | None = None
    output_dir: str = "out"


# One row per setting, in RunConfig's field order: (config-file key,
# flag, RunConfig field, type, metavar, help).  The flag's argparse dest
# is the field.
_SETTINGS = (
    ("model", "--model", "model", str, "TAG|FILE",
     "classical | relativistic | path to a model file"),
    ("theta", "--theta", "theta", float, None,
     "temperature parameter for the relativistic tag"),
    ("dim", "--dim", "dim", int, None, "dimension override for builtin tags"),
    ("grid.Nx", "--Nx", "Nx", int, None, "spatial cells"),
    ("grid.Np", "--Np", "Np", int, None, "momentum nodes"),
    ("grid.P", "--P", "P", float, None, "momentum slab half-width"),
    ("scan.radius", "--scan-radius", "scan_radius", float, None,
     "scan ball radius"),
    ("scan.resolution", "--scan-resolution", "scan_resolution", int, None,
     "lattice points per axis in the scan ball"),
    ("scan.quasi_random_count", "--scan-count", "scan_count", int, None,
     "quasi-random scan points (scan.quasi_random_count)"),
    ("time.tmax", "--tmax", "tmax", float, None, "simulation end time"),
    ("time.dt", "--dt", "dt", float, None,
     "largest time step (default: 0.9 of the transport limit, 2 dx / "
     "max|v|, or dx / max|v| with --order2)"),
    ("time.sample_dt", "--sample-dt", "sample_dt", float, None,
     "sampling interval for the CSV series"),
    ("initial_data", "--initial-data", "initial_data", str, "EXPR",
     "initial datum over x and p (sqrt/exp/log, pi)"),
    ("certificate.margin", "--margin", "margin", float, None,
     "certificate slack fraction in (0, 1)"),
    ("certificate.path", "--certificate", "certificate_path", str, "FILE",
     "use this certificate file instead of building one"),
    ("output_dir", "--output-dir", "output_dir", str, "DIR",
     "directory for all outputs (default: out)"),
)


def parse_config_text(text, source="<config>"):
    """Parse `key = value` lines into a field dict.

    Blank lines and # comments are ignored.  Unknown keys and
    uncoercible values are errors, not warnings: a typo must not
    silently fall back to a default.
    """
    settings = {key: (field, coerce) for key, _, field, coerce, _, _ in _SETTINGS}
    fields = {}
    for lineno, key, value in read_kv(text, ConfigError, f"{source} "):
        if key not in settings:
            raise ConfigError(f"{source} line {lineno}: unknown key {key!r}")
        field, coerce = settings[key]
        try:
            fields[field] = coerce(value)
        except ValueError as exc:
            raise ConfigError(
                f"{source} line {lineno}: bad value for {key}: {exc}"
            ) from exc
    return fields


def resolve_config(args):
    """Defaults, then the config file, then flag overrides."""
    cfg = RunConfig()
    path = getattr(args, "config", None)
    if path is not None:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        cfg = dataclasses.replace(cfg, **parse_config_text(text, source=path))
    # every flag shares its argparse dest with a RunConfig field
    overrides = {}
    for fld in dataclasses.fields(RunConfig):
        value = getattr(args, fld.name, None)
        if value is not None:
            overrides[fld.name] = value
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    return cfg


def load_model(cfg):
    """Builtin tag or model definition file."""
    if cfg.model == "classical":
        if cfg.theta is not None:
            raise ConfigError("the classical model has no theta parameter")
        return builtin_classical(cfg.dim if cfg.dim is not None else 1)
    if cfg.model == "relativistic":
        theta = 4.0 if cfg.theta is None else cfg.theta
        return builtin_relativistic(theta, dim=cfg.dim if cfg.dim is not None else 3)
    path = Path(cfg.model)
    if not path.exists():
        raise ConfigError(
            f"model {cfg.model!r} is neither a builtin tag "
            f"(classical | relativistic) nor an existing file"
        )
    if cfg.theta is not None or cfg.dim is not None:
        raise ConfigError("theta and dim come from the model file, not flags")
    return load_model_file(path)


def scan_grid_for(cfg, model):
    return default_grid(
        model.dim,
        radius=cfg.scan_radius,
        axis_points=cfg.scan_resolution,
        quasi_points=cfg.scan_count,
    )


def ensure_outdir(cfg):
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir


# ---------------------------------------------------------------------------
# Shared pipeline pieces


def _failed_gates(passes):
    return [name for name in _REQUIRED_GATES if not passes.get(name, False)]


def run_scan(cfg, model, outdir):
    """Scan the model's assumptions and write both report renderings."""
    report = check_model(model, scan_grid_for(cfg, model))
    (outdir / ASSUMPTIONS_TXT).write_text(report_text(report))
    (outdir / ASSUMPTIONS_KV).write_text(report_kv(report))
    return report


def certificate_from_report(report, margin):
    """Gate on the report, then build and re-validate the certificate."""
    failed = _failed_gates(report.passes)
    if failed:
        raise PipelineFailure(
            f"assumption gate failed: {', '.join(failed)}; "
            f"witnesses: {report.witness_summary}"
        )
    cert = build_certificate(
        report.sigma1, report.sigma2, report.beta, report.gamma, report.omega,
        alpha=report.alpha, margin=margin,
    )
    if not cert.valid:
        bad = [name for name, ok in sorted(cert.conditions.items()) if not ok]
        raise PipelineFailure(f"certificate conditions failed: {', '.join(bad)}")
    return dataclasses.replace(cert, model=report.model_name)


def load_certificate_file(path):
    """Read a certificate and re-validate it before trusting it."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"certificate file {path} does not exist")
    try:
        cert = read_certificate_kv(path.read_text())
    except InvalidCertificate as exc:
        raise ConfigError(f"certificate file {path}: {exc.condition}") from exc
    ok, conds = validate_certificate(cert)
    if not ok:
        bad = [name for name, flag in sorted(conds.items()) if not flag]
        raise PipelineFailure(
            f"certificate file {path} fails validation: {', '.join(bad)}"
        )
    return cert


def _kv_lines(mapping):
    return "".join(f"{key} = {val}\n" for key, val in mapping)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_check(cfg, args):
    """Assumption scan; exit 0 iff every required gate passes."""
    outdir = ensure_outdir(cfg)
    report = run_scan(cfg, load_model(cfg), outdir)
    sys.stdout.write(report_text(report))
    if report.required_ok:
        print("assumption check: pass")
        return 0
    print(f"assumption check: FAIL ({', '.join(_failed_gates(report.passes))})")
    return 1


def cmd_certify(cfg, args):
    """Build the decay certificate, from a fresh scan or a saved report."""
    outdir = ensure_outdir(cfg)
    if getattr(args, "report", None):
        report = _report_from_kv(Path(args.report))
        source = f"report file {args.report}"
    else:
        report = run_scan(cfg, load_model(cfg), outdir)
        source = f"fresh scan (seed {report.grid_seed})"
    cert = certificate_from_report(report, cfg.margin)
    (outdir / CERTIFICATE_KV).write_text(certificate_kv(cert))
    lam = "none (no log-Sobolev constant)" if cert.lam is None else repr(cert.lam)
    sys.stdout.write(_kv_lines([
        ("source", source),
        ("margin", repr(cert.margin)),
        ("a", repr(cert.a)),
        ("b", repr(cert.b)),
        ("c", repr(cert.c)),
        ("k", repr(cert.k)),
        ("d", repr(cert.d)),
        ("lambda", lam),
        ("certificate", str(outdir / CERTIFICATE_KV)),
    ]))
    return 0


def _report_from_kv(path):
    """Rebuild the fields certification needs from a saved report."""
    if not path.exists():
        raise ConfigError(f"report file {path} does not exist")
    raw = {key: val
           for _, key, val in read_kv(path.read_text(), ConfigError, f"{path} ")}
    num = functools.partial(kv_float, raw, error=ConfigError,
                            where=f"report file {path}: ")

    passes = {}
    for name in _REQUIRED_GATES:
        val = raw.get(f"pass_{name}")
        if val not in ("true", "false"):
            raise ConfigError(
                f"report file {path}: field pass_{name} is "
                + ("missing" if val is None else f"{val!r}, not true or false")
            )
        passes[name] = val == "true"
    return _ReportValues(
        model_name=raw.get("model", ""),
        sigma1=num("sigma1"), sigma2=num("sigma2"), beta=num("beta"),
        gamma=num("gamma"), omega=num("omega"), alpha=num("alpha", optional=True),
        passes=passes, witness_summary=raw.get("witnesses", ""),
    )


@dataclass(frozen=True)
class _ReportValues:
    """The slice of an assumption report that certification consumes."""

    model_name: str
    sigma1: float
    sigma2: float
    beta: float
    gamma: float
    omega: float
    alpha: float | None
    passes: dict
    witness_summary: str


def cmd_simulate(cfg, args):
    """Solve the kinetic equation and compare decay with the certificate."""
    model = load_model(cfg)
    if model.dim != 1:
        raise ConfigError(
            f"simulation requires a one-dimensional model, got dim = {model.dim}"
        )
    # before any scan, so a bad setting leaves no output behind
    solver.sample_count(cfg.tmax, cfg.sample_dt, cfg.dt)
    order2 = bool(getattr(args, "order2", False))
    grid = solver.build_grid(model, cfg.Nx, cfg.Np, cfg.P)
    solver.sub_steps(model, grid, cfg.sample_dt, cfg.dt, order2)
    state = solver.initial_state(model, grid, cfg.initial_data)
    outdir = ensure_outdir(cfg)

    if cfg.certificate_path is not None:
        cert = load_certificate_file(cfg.certificate_path)
        cert_source = f"file {cfg.certificate_path}"
    elif (outdir / CERTIFICATE_KV).exists():
        cert = load_certificate_file(outdir / CERTIFICATE_KV)
        cert_source = f"file {outdir / CERTIFICATE_KV}"
    else:
        report = run_scan(cfg, model, outdir)
        cert = certificate_from_report(report, cfg.margin)
        (outdir / CERTIFICATE_KV).write_text(certificate_kv(cert))
        cert_source = f"fresh scan (seed {report.grid_seed})"
    if cert.model and cert.model != model.name:
        raise ConfigError(f"certificate {cert_source} is for model "
                          f"{cert.model!r}, not {model.name!r}")

    series = solver.run(
        model, grid, state.h, cfg.tmax, cfg.sample_dt,
        certificate=cert, dt=cfg.dt, order2=order2,
    )
    solver.series_to_csv(series, outdir / SERIES_CSV)

    summary = _summarize(cfg, model, cert, cert_source, series, outdir)
    if getattr(args, "diagnostics", False):
        summary += _diagnostics_table(state, model, grid, cfg.tmax)
    (outdir / SUMMARY_TXT).write_text(summary)
    sys.stdout.write(summary)
    return 1 if series.decay_violations else 0


def _fit_positive_prefix(series):
    """Fit the decay rate on the part of the series still above noise.

    The entropy of a mixing run reaches the floating-point floor long
    before tmax; samples at the floor carry no rate information, so the
    fit sees only the positive prefix.  Returns (rate, r2, note).
    """
    D = series.D
    floor = 1e-12 * D[0]
    dead = np.nonzero(D <= floor)[0]
    cut = int(dead[0]) if dead.size else len(D)
    if cut < MIN_FIT_SAMPLES:
        return None, None, (
            f"InsufficientDecay: only {cut} samples above the noise floor"
        )
    try:
        rate, r2 = solver.fit_rate(series[:cut])
    except (InsufficientData, NonpositiveValues) as exc:
        return None, None, f"InsufficientDecay: {exc}"
    note = f"trailing half of {cut} samples"
    if cut < len(D):
        note += f" (floor reached at t = {series.times[cut]:.6g})"
    return rate, r2, note


def _summarize(cfg, model, cert, cert_source, series, outdir):
    meta = series.meta
    D = series.D
    mass_drift = float(np.max(np.abs(series.mass - series.mass[0])))
    monotone = bool(np.all(np.diff(D) <= 1e-12 * max(D[0], 1.0)))
    ck_slack = float(np.max(series.l1_dist - np.sqrt(2.0 * D)))
    rate, r2, fit_note = _fit_positive_prefix(series)

    lines = [
        ("model", model.name),
        ("grid", f"Nx = {cfg.Nx}, Np = {cfg.Np}, P = {cfg.P:g}"),
        ("time", f"tmax = {cfg.tmax:g}, dt = {meta['dt']:.6g}, "
                 f"sample_dt = {meta['sample_dt']:.6g}, "
                 f"order2 = {str(meta['order2']).lower()}"),
        ("initial_data", cfg.initial_data),
        ("certificate", cert_source),
        ("samples", str(len(series))),
        ("mass_drift", repr(mass_drift)),
        ("entropy_monotone", "yes" if monotone else "NO"),
        ("entropy_initial", repr(float(D[0]))),
        ("entropy_final", repr(float(D[-1]))),
        ("l1_vs_sqrt_entropy", f"max slack {ck_slack:.6g} (bound: l1 <= sqrt(2 D))"),
    ]
    if rate is None:
        lines.append(("lambda_emp", f"declined ({fit_note})"))
    else:
        lines.append(("lambda_emp", f"{rate!r} (r2 = {r2:.6g}, fit on {fit_note})"))
    if cert.lam is None:
        lines += [
            ("lambda_cert", "none (no log-Sobolev constant)"),
            ("decay_bound", "not checked (rate-less certificate)"),
        ]
    else:
        lines.append(("lambda_cert", repr(cert.lam)))
        if rate is not None:
            lines.append(
                ("lambda_emp >= lambda_cert", "yes" if rate >= cert.lam else "NO")
            )
        nviol = len(series.decay_violations)
        allowance = meta.get("decay_allowance", 0.0)
        bound = (f"Emod(t) <= Emod(0) exp(-{1.0 - allowance:g} lambda t)")
        if nviol == 0:
            lines.append(("decay_bound", f"pass ({bound})"))
        else:
            worst = max(ratio for _, ratio in series.decay_violations)
            lines.append(
                ("decay_bound",
                 f"FAIL ({bound}; {nviol} violations, worst ratio {worst:.6g})")
            )
    lines.append(("series", str(outdir / SERIES_CSV)))
    return _kv_lines(lines)


def _diagnostics_table(state, model, grid, tmax):
    # burn in briefly first: at t = 0 an x-only datum has no momentum
    # gradients yet, which leaves several identities trivially 0 = 0
    # and their relative residuals meaningless
    t_burn = min(0.25, tmax / 4.0)
    safe_dt = 0.9 * min(solver.cfl_limit(model, grid), t_burn)
    # Round the count up: rounding down could stretch a step past the
    # limit.
    n = math.ceil(t_burn / safe_dt)
    for _ in range(n):
        state = solver.step(state, t_burn / n, model, grid)
    rows = solver.entropy_production_diagnostics(state, model, grid)
    out = ["", f"entropy-production residuals (state at t = {state.t:.6g})",
           f"{'row':<14}{'lhs':>16}{'rhs':>16}{'residual':>12}"]
    for name, row in rows.items():
        out.append(
            f"{name:<14}{row['lhs']:>16.6e}{row['rhs']:>16.6e}"
            f"{row['residual']:>12.3e}"
        )
    return "\n".join(out) + "\n"


def cmd_report(cfg, args):
    """Collate prior artifacts into one deterministic text report."""
    outdir = Path(cfg.output_dir)
    needed = [ASSUMPTIONS_TXT, CERTIFICATE_KV, SERIES_CSV, SUMMARY_TXT]
    missing = [name for name in needed if not (outdir / name).exists()]
    if missing:
        print(
            f"error: missing inputs under {outdir}: {', '.join(missing)}",
            file=sys.stderr,
        )
        return 2
    series = solver.series_from_csv(outdir / SERIES_CSV)
    parts = ["kinetic decay report", "=" * 20]
    for title, name in [
        ("assumption scan", ASSUMPTIONS_TXT),
        ("decay certificate", CERTIFICATE_KV),
        ("simulation summary", SUMMARY_TXT),
    ]:
        parts += ["", f"-- {title} ({name}) --",
                  (outdir / name).read_text().rstrip("\n")]
    parts += [
        "",
        f"-- series digest ({SERIES_CSV}) --",
        f"samples = {len(series)}",
        f"t = [{series.times[0]:.6g}, {series.times[-1]:.6g}]",
        f"D = {float(series.D[0])!r} -> {float(series.D[-1])!r}",
        f"Emod = {float(series.Emod[0])!r} -> {float(series.Emod[-1])!r}",
    ]
    text = "\n".join(parts) + "\n"
    (outdir / REPORT_TXT).write_text(text)
    sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


def _shared_parser():
    """The options every subcommand takes: --config and one flag per
    setting, in one parent parser."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--config", metavar="FILE",
                   help="plain-text key = value configuration file")
    for _, flag, field, coerce, metavar, text in _SETTINGS:
        p.add_argument(flag, dest=field, type=coerce, metavar=metavar,
                       help=text)
    return p


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hypocert",
        description="verify kinetic model assumptions, certify exponential "
                    "entropy decay, and validate the rate numerically",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    shared = [_shared_parser()]

    p = sub.add_parser("check", help="scan the model assumptions",
                       parents=shared)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("certify", help="build and validate a decay certificate",
                       parents=shared)
    p.add_argument("--report", metavar="FILE",
                   help="reuse a saved assumptions.kv instead of rescanning")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("simulate", help="run the solver against the certificate",
                       parents=shared)
    p.add_argument("--diagnostics", action="store_true",
                   help="append the entropy-production residual table")
    p.add_argument("--order2", action="store_true",
                   help="second-order transport reconstruction")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("report", help="collate prior outputs into one report",
                       parents=shared)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        return args.func(cfg, args)
    except (ConfigError, ModelFileError, ExprSyntaxError, UnknownIdentifier,
            ExprDomainError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (PipelineFailure, HypocertError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
