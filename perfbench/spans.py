"""In-memory span tracing around the calls into each hypocert layer.

A span records (name, start, end, parent, op, size).  Wrappers are
installed at the module and class attributes through which the program
looks names up at call time, and are removed again by `Tracer.restore`,
so an untraced run executes the unmodified functions.  Self time is a
span's duration minus the time covered by its child spans; spans nest
on one thread, so children never overlap.
"""

import contextlib
import csv
import functools
import gzip
import time
from collections import defaultdict

import numpy as np

from hypocert import (
    assumptions,
    cli,
    expressions,
    fields,
    geometry,
    models,
    solver,
)

LAYERS = (
    "expressions", "fields", "geometry", "models",
    "assumptions", "certificate", "solver", "cli",
)

SCANS = (
    "curvature_bounds", "dominance_constants", "hormander_check",
    "growth_check", "logsob_warped", "logsob_product",
)

# Spans whose inclusive time counts as solver set-up: grid, datum,
# per-grid node geometry and the diffusion operator.
SOLVER_SETUP = (
    "solver.build_grid", "solver.initial_state", "solver.node_geometry",
    "solver.diffusion_matrix",
)


def _rows(points):
    return int(np.shape(points)[0]) if np.ndim(points) == 2 else 1


def _targets():
    """(owner, attribute, span name, counter) for every wrapper.

    The owner is the namespace the program resolves the name in at call
    time, so `from .expressions import evaluate` inside `fields` needs
    its own entry.  A counter is (name, fn) with fn(args, kwargs,
    result) giving the count that the span records under that name.
    """
    def rows(name, key):
        return name, lambda a, k, r: _rows(a[1] if len(a) > 1 else k[key])

    out = []
    for owner in (expressions, fields):
        out.append((owner, "evaluate", "expressions.evaluate",
                    rows("expressions.evaluate.points", "points")))
    for owner in (expressions, fields, models):
        out.append((owner, "diff_expr", "expressions.diff_expr", None))
    jet_methods = {
        fields.ExprScalarField: ("value", "grad", "hess", "third", "derivative"),
        fields.ExprMetricField: ("value", "grad", "hess"),
        fields.ExprVectorField: ("value", "jacobian"),
    }
    for cls, names in jet_methods.items():
        for name in names:
            counter = None
            if cls is fields.ExprMetricField and name == "value":
                # every metric jet, by any route, starts from g itself
                counter = rows("metric_jet_points", "P")
            out.append((cls, name, "fields.jet", counter))
    out.append((geometry, "batch_jet", "geometry.batch_jet",
                rows("geometry.batch_jet.points", "P")))
    for name in ("ricci", "covariant_hessian", "bakry_emery_ricci"):
        out.append((geometry, name, f"geometry.{name}", None))
    for name in ("builtin_classical", "builtin_relativistic", "load_model_file"):
        out.append((cli, name, "models.build", None))
    out.append((solver, "log_weight_field", "models.log_weight_field", None))
    out.append((cli, "check_model", "assumptions.check_model",
                ("assumptions.scan_points", lambda a, k, r: int(r.grid_points))))
    out.append((cli, "default_grid", "assumptions.default_grid", None))
    for name in ("report_kv", "report_text"):
        out.append((cli, name, "assumptions.report", None))
    for name in SCANS:
        counter = None
        if name == "curvature_bounds":
            counter = ("assumptions.failed_points", lambda a, k, r: len(r.failures))
        out.append((assumptions, name, f"assumptions.{name}", counter))
    for name in ("build_certificate", "certificate_kv", "read_certificate_kv",
                 "validate_certificate"):
        out.append((cli, name, "certificate.certificate", None))
    out.append((solver, "run", "solver.run", None))
    out.append((solver, "step", "solver.step",
                ("solver.dt", lambda a, k, r: a[1] if len(a) > 1 else k["dt"])))
    out.append((solver, "functionals", "solver.functionals", None))
    out.append((solver.DiffusionOperator, "solve", "solver.diffusion_solve", None))
    out.append((solver, "build_grid", "solver.build_grid", None))
    out.append((solver, "initial_state", "solver.initial_state", None))
    out.append((solver, "_node_geometry", "solver.node_geometry", None))
    out.append((solver, "diffusion_matrix", "solver.diffusion_matrix", None))
    for name in ("series_to_csv", "series_from_csv", "fit_rate"):
        out.append((solver, name, f"solver.{name}", None))
    out.append((cli, "main", "cli.main", None))
    return out


class Tracer:
    """Collects spans while installed; `restore` puts every original back."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, op, (counter, count)]
        self.op = None
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name, counter):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), None, stack[-1] if stack else None, self.op, None]
            spans.append(rec)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if counter is not None:
                rec[5] = (counter[0], counter[1](args, kwargs, result))
            return result

        traced.__perfbench_wrapper__ = True
        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, counter in _targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counter))

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    @contextlib.contextmanager
    def span(self, name, op):
        """A span opened by the benchmark itself; spans inside it get `op`."""
        self.op = op
        rec = [name, time.perf_counter(), None,
               self._stack[-1] if self._stack else None, op, None]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter()
            self.op = None

    def write_csv_gz(self, path):
        with gzip.open(path, "wt", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["name", "start", "end", "parent", "op", "counter", "count"])
            w.writerows(rec[:5] + list(rec[5] or ("", "")) for rec in self.spans)


def wrapped_attributes():
    """Names of the targets that currently hold a tracing wrapper."""
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in _targets()
        if getattr(owner.__dict__[attr], "__perfbench_wrapper__", False)
    ]


def per_op_totals(spans):
    """{op: {key: value}} of inclusive time, self time, calls and counters.

    A counter sums over the op's spans; `<counter>.last` keeps the
    latest value.
    """
    child = defaultdict(float)
    for name, t0, t1, parent, op, count in spans:
        if parent is not None:
            child[parent] += t1 - t0
    tot = defaultdict(lambda: defaultdict(float))
    for i, (name, t0, t1, parent, op, count) in enumerate(spans):
        d = tot[op]
        dur = t1 - t0
        self_s = dur - child[i]
        d[name + ".s"] += dur
        d[name + ".self_s"] += self_s
        d[name + ".calls"] += 1
        if count is not None:
            d[count[0]] += count[1]
            d[count[0] + ".last"] = count[1]
        layer = name.split(".", 1)[0]
        if layer in LAYERS:
            d[layer + ".self_s"] += self_s
    return tot


def layer_metrics(spans, traced_ops):
    """Per-layer metrics as the median over the traced ops of per-op values.

    `traced_ops` lists the op ids whose spans count.  Spans recorded
    under op id "setup" feed the set-up metrics of `diff_expr`.  The
    metric jet is counted where every route to it starts, at
    `ExprMetricField.value`, so `jet_points_per_scan_point` sees the
    scans that assemble the jet without `batch_jet`.
    """
    tot = per_op_totals(spans)

    def med(key):
        return float(np.median([tot[op].get(key, 0.0) for op in traced_ops]))

    def total(key):
        return sum(tot[op].get(key, 0.0) for op in traced_ops)

    ev_calls = total("expressions.evaluate.calls")
    scan_points = med("assumptions.scan_points")
    metric_points = med("metric_jet_points")
    out = {
        "expressions.evaluate.calls": med("expressions.evaluate.calls"),
        "expressions.evaluate.self_s": med("expressions.evaluate.self_s"),
        "expressions.evaluate.points_per_call":
            total("expressions.evaluate.points") / ev_calls if ev_calls else 0.0,
        "expressions.diff_expr.calls": med("expressions.diff_expr.calls"),
        "expressions.diff_expr.self_s": med("expressions.diff_expr.self_s"),
        "expressions.diff_expr.setup_calls":
            tot["setup"].get("expressions.diff_expr.calls", 0.0),
        "expressions.diff_expr.setup_self_s":
            tot["setup"].get("expressions.diff_expr.self_s", 0.0),
        "fields.jet.calls": med("fields.jet.calls"),
        "fields.jet.self_s": med("fields.jet.self_s"),
        "geometry.batch_jet.calls": med("geometry.batch_jet.calls"),
        "geometry.batch_jet.points": med("geometry.batch_jet.points"),
        "geometry.batch_jet.self_s": med("geometry.batch_jet.self_s"),
        "geometry.jet_points_per_scan_point":
            metric_points / scan_points if scan_points else 0.0,
        "assumptions.scan_points": scan_points,
        "assumptions.failed_points": med("assumptions.failed_points"),
        "solver.steps": med("solver.step.calls"),
        "solver.dt": med("solver.dt.last"),
        "solver.step.self_s": med("solver.step.self_s"),
        "solver.diffusion_solve.s": med("solver.diffusion_solve.s"),
        "solver.functionals.s": med("solver.functionals.s"),
        "solver.setup_s": float(np.median([
            sum(tot[op].get(name + ".s", 0.0) for name in SOLVER_SETUP)
            for op in traced_ops
        ])),
    }
    for scan in SCANS:
        out[f"assumptions.{scan}.s"] = med(f"assumptions.{scan}.s")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = med(f"{layer}.self_s")
    return out
