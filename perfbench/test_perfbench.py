"""Tests of the benchmark itself; each runs in a few seconds.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from hypocert import models, solver

import oracle
import run as bench
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent


def test_exact_D_matches_discrete_D0():
    model = models.builtin_classical(1)
    grid = solver.build_grid(model, 128, 256, 8.0)
    eps = 0.5
    h0 = 1.0 + eps * np.cos(oracle.XI * grid.x_nodes)[:, None] * np.ones(grid.Np)
    D0 = solver.functionals(solver.initial_state(model, grid, h0), model, grid)["D"]
    assert D0 == pytest.approx(oracle.langevin_D(0.0, eps), rel=1e-13)
    # the exact solution decays
    assert oracle.langevin_D(0.8, eps) < 1e-3 * D0


def _kv(values):
    return "".join(f"{k} = {v!r}\n" if isinstance(v, float) else f"{k} = {v}\n"
                   for k, v in values.items())


def test_perturbed_output_counts_as_failed(tmp_path):
    good = {**oracle.REL3D_KV, **oracle.REL3D_EXACT}
    assert workloads.check_rel3d_kv(0, _kv(good)) is None
    assert workloads.check_rel3d_kv(1, _kv(good)) is not None
    bad = dict(good, sigma2=good["sigma2"] * (1.0 + 1e-6))
    assert "sigma2" in workloads.check_rel3d_kv(0, _kv(bad))
    assert workloads.check_rel3d_kv(0, _kv(dict(good, alpha="-5.5"))) is not None

    summary = "decay_bound = pass (Emod(t) <= Emod(0) exp(-0.9 lambda t))\n"
    kv = _kv(oracle.CLASSICAL_KV)
    assert workloads.check_classical_chain([0, 0, 0, 0], kv, summary) is None
    assert workloads.check_classical_chain([0, 0, 1, 0], kv, summary) is not None
    assert workloads.check_classical_chain(
        [0] * 4, _kv(dict(oracle.CLASSICAL_KV, beta=1e-6)), summary) is not None
    assert workloads.check_classical_chain(
        [0] * 4, kv, "decay_bound = FAIL (x)\n") is not None

    w = workloads.GeomPointwise(7, tmp_path)
    w.setup()
    w.prepare()
    assert bench.run_ops(w, 0.0).failed == 0
    op = w.op

    def perturbed(i):
        p, ric, hess, bakry = op(i)
        return p, ric, hess * (1.0 + 1e-3), bakry

    w.op = perturbed
    cpus = os.sched_getaffinity(0)
    stats = bench.run_ops(w, 0.0, min_ops=2)
    assert len(stats.wall) == 2 and stats.failed == 2
    assert "hess_log_u" in stats.reasons[0]
    assert os.sched_getaffinity(0) == cpus


def test_traced_run_restores_every_wrapper(tmp_path):
    targets = spans._targets()
    before = [owner.__dict__[attr] for owner, attr, _, _ in targets]
    w = workloads.GeomPointwise(3, tmp_path)
    w.setup()
    w.prepare()

    tracer = spans.Tracer()
    tracer.install()
    try:
        assert len(spans.wrapped_attributes()) == len(targets)
        stats = bench.run_ops(w, 0.0, tracer=tracer)
    finally:
        tracer.restore()
    assert stats.failed == 0
    assert spans.wrapped_attributes() == []
    after = [owner.__dict__[attr] for owner, attr, _, _ in targets]
    assert all(a is b for a, b in zip(before, after))

    metrics = spans.layer_metrics(tracer.spans, [0])
    assert metrics["expressions.evaluate.calls"] > 0
    assert metrics["expressions.evaluate.points_per_call"] == 1.0
    assert 0.0 < metrics["expressions.evaluate.self_s"] <= stats.wall[0]

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    assert names == set(metrics) | {"trace.op_s_p50", "trace.overhead_s"}
    assert {m["name"] for m in spec["workloads"]} == set(workloads.WORKLOADS)
