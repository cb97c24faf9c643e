"""The four benchmark workloads: inputs, one op each, and output checks.

Each workload has `setup()` (the program work a user pays once before
the first op; timed as set-up), `prepare()` (the benchmark's own
reference values; never timed), `reset()` (untimed clean-up before an
op), `op(i)` (the timed call) and `check(out)`, which returns None when
the op's output is correct and otherwise the reason it is not.
"""

import contextlib
import io
import shutil

import numpy as np

from hypocert import certificate, cli, geometry, models, solver

import oracle


def run_cli(argv):
    """In-process `hypocert.cli.main(argv)` with its console output dropped."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def read_kv(text):
    kv = {}
    for line in text.splitlines():
        key, sep, val = line.partition("=")
        if sep:
            kv[key.strip()] = val.strip()
    return kv


def check_rel3d_kv(rc, text):
    """Reason the relativistic check output is wrong, or None."""
    if rc != 0:
        return f"exit code {rc}"
    kv = read_kv(text)
    for key, want in oracle.REL3D_EXACT.items():
        if kv.get(key) != want:
            return f"{key} = {kv.get(key)!r}, expected {want!r}"
    for key, want in oracle.REL3D_KV.items():
        got = float(kv.get(key, "nan"))
        if not abs(got - want) <= oracle.REL3D_RTOL * abs(want):
            return f"{key} = {got!r}, expected {want!r}"
    return None


def check_classical_chain(rcs, kv_text, summary_text):
    """Reason the classical CLI chain output is wrong, or None."""
    if any(rc != 0 for rc in rcs):
        return f"exit codes {rcs}"
    kv = read_kv(kv_text)
    for key, want in oracle.CLASSICAL_KV.items():
        got = float(kv.get(key, "nan"))
        if not abs(got - want) <= oracle.CLASSICAL_ATOL:
            return f"{key} = {got!r}, expected {want!r}"
    if not read_kv(summary_text).get("decay_bound", "").startswith("pass "):
        return "decay_bound is not pass"
    return None


def close(got, want, rel=1e-5, abs_=1e-8):
    """Acceptance gate test_01's tolerance: |got - want| <= abs_ + rel |want|."""
    got, want = np.asarray(got), np.asarray(want)
    return bool(np.all(np.abs(got - want) <= abs_ + rel * np.abs(want)))


class Workload:
    """Defaults for the hooks a workload does not need."""
    def setup(self):
        pass

    def prepare(self):
        pass

    def reset(self):
        pass

    def notes(self):
        return {}


class CheckRel3d(Workload):
    name = "check-rel3d"
    # 5 lattice points per axis plus 100 Halton points (133 points), not
    # the CLI default 21 + 2,000 (6,169 points): on a host whose CPUs slow
    # down for seconds at a time, only ops well under a second leave a
    # run enough of them to find its fastest.
    SCAN = ["--scan-resolution", "5", "--scan-count", "100"]

    def __init__(self, seed, workdir):
        # The scan keeps the program's own recorded seed, as users run it.
        self.out = workdir / "check-rel3d"

    def reset(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def op(self, i):
        return run_cli(["check", "--model", "relativistic", "--theta", "4",
                        *self.SCAN, "--output-dir", str(self.out)])

    def check(self, rc):
        return check_rel3d_kv(rc, (self.out / cli.ASSUMPTIONS_KV).read_text())


class GeomPointwise(Workload):
    name = "geom-pointwise"
    POOL = 1024
    RADIUS = 3.0
    WARM_POINT = np.array([0.5, -0.25, 1.0])

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        P = rng.normal(size=(self.POOL, 3))
        r = self.RADIUS * rng.random(self.POOL) ** (1.0 / 3.0)
        self.points = P * (r / np.linalg.norm(P, axis=1))[:, None]

    def setup(self):
        self.model = models.builtin_relativistic(4.0)
        self.logu = models.log_weight_field(self.model)
        self._at(self.WARM_POINT)

    def prepare(self):
        self.orc = self.model.oracle

    def _at(self, p):
        return (
            p,
            geometry.ricci(self.model, p).entries,
            geometry.covariant_hessian(self.model, self.logu, p).entries,
            geometry.bakry_emery_ricci(self.model, p).entries,
        )

    def op(self, i):
        return self._at(self.points[i % self.POOL])

    def check(self, out):
        p, ric, hess, bakry = out
        P = p[None, :]
        for what, got, want in (("ricci", ric, self.orc.ricci(P)[0]),
                                ("hess_log_u", hess, self.orc.hess_log_u(P)[0]),
                                ("bakry", bakry, self.orc.bakry(P)[0])):
            if not close(got, want):
                return f"{what} differs from the closed form at p = {p.tolist()}"
        return None


class SolveFine(Workload):
    name = "solve-fine"
    TMAX = 0.8
    SAMPLE_DT = 0.05
    CHECK_TIMES = (0.2, 0.4, 0.8)
    # MUSCL reaches 6.8e-3 at seed; upwind on the same grid is 0.25 off.
    D_REL_ERR_MAX = 1e-2

    def __init__(self, seed, workdir):
        self.eps = 0.5 if seed is None else float(
            np.random.default_rng(seed).uniform(0.3, 0.7))
        self.d_rel_err = 0.0

    def setup(self):
        self.model = models.builtin_classical(1)
        self.grid = solver.build_grid(self.model, 128, 256, 8.0)
        self.cert = certificate.build_certificate(1.0, 1.0, 0.0, 0.0, 0.0, alpha=1.0)
        X = self.grid.x_nodes[:, None] * np.ones(self.grid.Np)
        self.h0 = 1.0 + self.eps * np.cos(oracle.XI * X)

    def prepare(self):
        self.d_exact = {t: oracle.langevin_D(t, self.eps) for t in self.CHECK_TIMES}

    def op(self, i):
        return solver.run(self.model, self.grid, self.h0, self.TMAX, self.SAMPLE_DT,
                          certificate=self.cert, order2=True)

    def check(self, series):
        if float(np.max(np.abs(series.mass - series.mass[0]))) >= 1e-10:
            return "mass drift >= 1e-10"
        if series.decay_violations:
            return f"{len(series.decay_violations)} decay violations"
        if np.any(series.l1_dist > np.sqrt(2.0 * series.D) + 1e-14):
            return "l1 distance exceeds sqrt(2 D)"
        err = 0.0
        for t, want in self.d_exact.items():
            k = int(np.argmin(np.abs(series.times - t)))
            if abs(series.times[k] - t) > 1e-9:
                return f"no sample at t = {t}"
            err = max(err, abs(series.D[k] / want - 1.0))
        self.d_rel_err = max(self.d_rel_err, float(err))
        if err > self.D_REL_ERR_MAX:
            return f"D_rel_err = {err:.3g} > {self.D_REL_ERR_MAX}"
        return None

    def notes(self):
        return {"eps": self.eps, "D_rel_err": self.d_rel_err}


class PipelineClassical(Workload):
    name = "pipeline-classical"
    # simulate to t = 1, not the default 10: the default makes an op a 2 s
    # solver run, too long to time steadily on a shared host, in which
    # check, certify and report would take 1% of the time.
    TMAX = "1"

    def __init__(self, seed, workdir):
        self.out = workdir / "pipeline-classical"
        self.report = None

    def reset(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def op(self, i):
        out = ["--output-dir", str(self.out)]
        model = ["--model", "classical"]
        return [
            run_cli(["check", *model, *out]),
            run_cli(["certify", *model, "--report",
                     str(self.out / cli.ASSUMPTIONS_KV), *out]),
            run_cli(["simulate", *model, "--tmax", self.TMAX, *out]),
            run_cli(["report", *out]),
        ]

    def check(self, rcs):
        def text(name):
            path = self.out / name
            return path.read_text() if path.exists() else ""

        reason = check_classical_chain(
            rcs, text(cli.ASSUMPTIONS_KV), text(cli.SUMMARY_TXT))
        if reason is not None:
            return reason
        report = (self.out / cli.REPORT_TXT).read_bytes()
        if self.report is None:
            self.report = report
        elif report != self.report:
            return "report.txt differs from the first op of this run"
        return None


WORKLOADS = {w.name: w for w in (CheckRel3d, GeomPointwise, SolveFine,
                                 PipelineClassical)}
