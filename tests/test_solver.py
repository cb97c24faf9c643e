"""Phase-space solver: conservation, structure identities, decay tracking."""

import gc
import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from hypocert import cli, geometry, models
from hypocert import solver as sv
from hypocert.certificate import build_certificate
from hypocert.errors import (
    CFLViolation,
    InsufficientData,
    LinearSolveFailure,
    MetricError,
    NonpositiveValues,
    NonpositiveWeight,
)
from hypocert.models import builtin_classical, builtin_relativistic
from tests_support import (
    block_solve_reference,
    diffusion_solve_reference,
    expr_model_1d,
    functionals_reference,
    muscl_step,
    step_reference,
    transport_runs_reference,
)

CLASSICAL = builtin_classical(1)
RELATIVISTIC = builtin_relativistic(1.0, dim=1)
RELATIVISTIC_10 = builtin_relativistic(10.0, dim=1)
# v changes sign three times, so the columns that take face values
# from the right are not one contiguous block.
WIGGLE = expr_model_1d("1", "p1^2/2", v1="p1^3/4 - 2*p1")


def operator(model, Np):
    """The model's diffusion operator on Np momentum nodes over [-8, 8].
    Below the grid's minimum of 8 nodes it is the middle Np nodes of the
    8-node operator, with zero flux past both ends."""
    op = sv.diffusion_matrix(model, sv.build_grid(model, 8, max(Np, 8), 8.0))
    if Np >= 8:
        return op
    nodes = slice(4 - Np // 2, 4 - Np // 2 + Np)
    off = op.off[nodes][:-1].copy()
    diag = np.zeros(Np)
    diag[:-1] -= off
    diag[1:] -= off
    return sv.DiffusionOperator(off=off, diag=diag, weight=op.weight[nodes].copy())


def mu_inner(grid, f, h):
    return float(np.sum(f * h * grid.mu_weights))


def smooth_state(model, grid, amp_x=0.4, amp_p=0.3):
    X, P = np.meshgrid(grid.x_nodes, grid.p_nodes, indexing="ij")
    h = np.exp(
        amp_x * np.sin(2 * np.pi * X) * np.exp(-(P**2) / 4.0)
        + amp_p * np.exp(-((P - 1.0) ** 2) / 2.0)
    )
    return sv.initial_state(model, grid, h)


class TestBuildGrid:
    def test_classical_weights(self):
        grid = sv.build_grid(CLASSICAL, 16, 128, 8.0)
        assert abs(grid.mu_weights.sum() - 1.0) < 1e-12
        assert np.all(grid.mu_weights > 0.0)
        assert grid.tail_mass < 1e-10

    def test_weights_symmetric_for_even_model(self):
        grid = sv.build_grid(CLASSICAL, 8, 65, 6.0)
        np.testing.assert_allclose(
            grid.mu_weights, grid.mu_weights[::-1], rtol=1e-14
        )

    def test_relativistic_tail_is_reported(self, tmp_path):
        # simulate states the estimate in summary.txt: at theta 0.5 the
        # default 64 x 128 grid on P = 8 leaves 2.1e-2 of the
        # equilibrium mass outside the slab.
        grid = sv.build_grid(RELATIVISTIC, 8, 64, 8.0)
        assert 0.0 < grid.tail_mass < 1e-2
        out = tmp_path / "rel"
        assert cli.main(["simulate", "--model", "relativistic", "--dim", "1",
                         "--theta", "0.5", "--tmax", "0.1",
                         "--output-dir", str(out)]) == 0
        (line,) = [ln for ln in (out / "summary.txt").read_text().splitlines()
                   if ln.startswith("tail_mass = ")]
        reported = float(line.split()[2])
        grid = sv.build_grid(builtin_relativistic(0.5, dim=1), 64, 128, 8.0)
        assert reported == grid.tail_mass
        assert reported == pytest.approx(2.1e-2, rel=0.02)

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            sv.build_grid(CLASSICAL, 16, 64, 0.0)
        with pytest.raises(ValueError, match="at least 8"):
            sv.build_grid(CLASSICAL, 4, 64, 8.0)
        with pytest.raises(ValueError, match="one momentum dimension"):
            sv.build_grid(builtin_classical(2), 16, 64, 8.0)

    def test_vanishing_weight_rejected(self):
        # exp(p1^2) weight overflows to inf at |p| = 40.
        model = expr_model_1d("1", "p1^2 * -1", v1="p1")
        with pytest.raises(NonpositiveWeight):
            sv.build_grid(model, 8, 64, 40.0)


class TestGibbsFactor:
    """The grid and the operator read E, and g only where they need it,
    with no metric jet."""

    def test_classical_bit_for_bit_the_gaussian(self):
        # w = e^-p^2/2 at the nodes, the conductances at the half nodes
        # (g = 1), and the tail from the doubled slab.
        grid = sv.build_grid(CLASSICAL, 8, 128, 8.0)
        op = sv.diffusion_matrix(CLASSICAL, grid)
        p, dp = grid.p_nodes, grid.dp
        trap = np.full(p.size, dp)
        trap[0] = trap[-1] = 0.5 * dp
        raw = np.exp(-p**2 / 2) * trap
        mu = raw / raw.sum()
        mu /= mu.sum()
        np.testing.assert_array_equal(grid.mu_weights, mu)
        p_ext = np.linspace(-16.0, 16.0, 2 * p.size - 1)
        trap_ext = np.full(p_ext.size, dp)
        trap_ext[0] = trap_ext[-1] = 0.5 * dp
        ext = float(np.sum(np.exp(-p_ext**2 / 2) * trap_ext))
        assert grid.tail_mass == max(0.0, (ext - raw.sum()) / ext)
        half = 0.5 * (p[:-1] + p[1:])
        norm = 1.0 / float(np.sum(np.exp(-p**2 / 2) * trap))
        np.testing.assert_array_equal(op.off, norm * np.exp(-half**2 / 2) / dp)

    def test_metric_read_only_on_the_slab(self):
        # g = 1 - p^2/100 is positive on [-8, 8] but not on the doubled
        # slab that the tail estimate reads, which needs E alone.
        model = expr_model_1d("1 - p1^2/100", "p1^2/2")
        grid = sv.build_grid(model, 16, 64, 8.0)
        op = sv.diffusion_matrix(model, grid)
        assert np.all(op.off > 0.0)
        series = sv.run(model, grid, "1 + x*(1-x)", 0.5, 0.05)
        assert np.all(np.isfinite(series.D)) and series.D[-1] < series.D[0]

    def test_nonpositive_metric_names_the_node(self):
        # The nodes of [-8, 8] at Np = 17 are the integers, and g = p^2
        # vanishes at the middle one.
        model = expr_model_1d("p1^2", "p1^2/2")
        with pytest.raises(MetricError, match=r"g_pp = 0 is not positive at p = 0$"):
            sv.build_grid(model, 8, 17, 8.0)
        with pytest.raises(MetricError, match=r"at p = -8$"):
            sv.build_grid(expr_model_1d("1 - p1^2/16", "p1^2/2"), 8, 17, 8.0)

    def test_three_model_requests_and_no_metric_jet(self, monkeypatch):
        requests, jets = [], models.ModelSpec._jets
        monkeypatch.setattr(models.ModelSpec, "_jets", lambda m, r, P: [
            requests.append(r), jets(m, r, P)][1])
        assembled, from_arrays = [], geometry.jet_from_arrays
        monkeypatch.setattr(geometry, "jet_from_arrays", lambda *a: [
            assembled.append(a), from_arrays(*a)][1])
        model = builtin_classical(1)
        sv.diffusion_matrix(model, sv.build_grid(model, 64, 128, 8.0))
        # (E, g) at the nodes, E on the doubled slab, (E, g) at the
        # nodes and half nodes
        assert requests == [((2, 0), (0, 0)), ((2, 0),), ((2, 0), (0, 0))]
        assert assembled == []


class TestGridCache:
    def test_new_model_never_gets_stale_geometry(self):
        # A model collected after use frees its id() for the next one;
        # each must still get the geometry and operator of its own metric.
        grid = sv.build_grid(CLASSICAL, 8, 16, 4.0)
        off = sv._op(expr_model_1d("1", "p1^2/2"), grid).off
        for k in range(40):
            model = expr_model_1d(str(1 + k), "p1^2/2")
            gpp = sv._node_geometry(model, grid).gpp
            np.testing.assert_allclose(gpp, 1.0 / (1 + k), rtol=1e-15)
            np.testing.assert_allclose(
                sv._op(model, grid).off, off / (1 + k), rtol=1e-12
            )
            del model
            gc.collect()

    def test_replaced_grid_starts_empty(self):
        grid = sv.build_grid(CLASSICAL, 8, 16, 4.0)
        sv.cfl_limit(CLASSICAL, grid)
        assert grid._cache
        assert replace(grid)._cache == {}


class TestDiffusionOperator:
    def test_constant_in_kernel(self):
        grid = sv.build_grid(CLASSICAL, 8, 96, 8.0)
        op = sv.diffusion_matrix(CLASSICAL, grid)
        assert np.max(np.abs(op.apply(np.ones((1, grid.Np))))) == 0.0

    @pytest.mark.parametrize("model", [CLASSICAL, RELATIVISTIC])
    def test_self_adjoint_and_stokes(self, model):
        grid = sv.build_grid(model, 8, 96, 8.0)
        op = sv.diffusion_matrix(model, grid)
        rng = np.random.default_rng(11)
        worst_sym = worst_stokes = 0.0
        for _ in range(100):
            f = rng.uniform(0.1, 2.0, (1, grid.Np))
            h = rng.uniform(0.1, 2.0, (1, grid.Np))
            worst_sym = max(
                worst_sym,
                abs(mu_inner(grid, f, op.apply(h)) - mu_inner(grid, h, op.apply(f))),
            )
            worst_stokes = max(
                worst_stokes, abs(mu_inner(grid, np.ones_like(h), op.apply(h)))
            )
        assert worst_sym < 1e-12
        assert worst_stokes < 1e-13

    def test_ou_eigenfunction(self):
        # L p = -p for the unit Gaussian weight; second-order in dp.
        errs = []
        for Np in (129, 257):
            grid = sv.build_grid(CLASSICAL, 8, Np, 8.0)
            op = sv.diffusion_matrix(CLASSICAL, grid)
            Lp = op.apply(grid.p_nodes[None, :])[0]
            inner = np.abs(grid.p_nodes) <= 3.0
            errs.append(np.max(np.abs(Lp[inner] + grid.p_nodes[inner])))
        assert errs[1] < 4e-3
        assert errs[0] / errs[1] > 3.0

    def test_implicit_solve_positivity_and_mass(self):
        grid = sv.build_grid(CLASSICAL, 8, 96, 8.0)
        op = sv.diffusion_matrix(CLASSICAL, grid)
        rng = np.random.default_rng(5)
        h = rng.uniform(0.0, 1.0, (4, grid.Np))
        h[0, ::3] = 0.0
        out = op.solve(h, 0.5)
        assert np.min(out) >= 0.0
        before = h @ grid.mu_weights
        after = out @ grid.mu_weights
        np.testing.assert_allclose(after, before, rtol=1e-13)

    def test_indefinite_system_raises(self):
        grid = sv.build_grid(CLASSICAL, 8, 96, 8.0)
        op = sv.diffusion_matrix(CLASSICAL, grid)
        with pytest.raises(LinearSolveFailure, match="not positive definite"):
            op.solve(np.ones((1, grid.Np)), -5.0)

    @pytest.mark.parametrize("model", [CLASSICAL, RELATIVISTIC])
    def test_solve_matches_banded_cholesky(self, model):
        grid = sv.build_grid(model, 8, 96, 8.0)
        op = sv.diffusion_matrix(model, grid)
        h = np.random.default_rng(7).uniform(0.1, 2.0, (5, grid.Np))
        before = h.copy()
        want = diffusion_solve_reference(op, h, 0.3)
        out = op.solve(h, 0.3)
        assert not np.shares_memory(out, h)
        np.testing.assert_array_equal(h, before)
        np.testing.assert_allclose(out, want, rtol=1e-13, atol=0.0)
        # With out=h the same solve runs in place.
        assert op.solve(h, 0.3, out=h) is h
        np.testing.assert_array_equal(h, out)

    @pytest.mark.parametrize("Np", [2, 3, 97, 127, 128, 129, 256, 257])
    @pytest.mark.parametrize("model", [CLASSICAL, RELATIVISTIC],
                             ids=["classical", "relativistic"])
    def test_block_solve(self, model, Np):
        # One block up to the block width, several above it, and block
        # sizes that differ by one.
        op = operator(model, Np)
        rng = np.random.default_rng(Np)
        h = rng.uniform(0.0, 2.0, (6, Np))
        h[rng.random(h.shape) < 0.2] = 0.0
        h[0] = 0.0
        h[1] = 0.0
        h[1, Np // 2] = 1.0
        for dt in (1e-3, 0.3):
            want = diffusion_solve_reference(op, h, dt)
            out = op.solve(h, dt)
            np.testing.assert_allclose(out, want, rtol=1e-13, atol=0.0)
            assert np.min(out) >= 0.0
            np.testing.assert_array_equal(out[0], 0.0)
            np.testing.assert_allclose(out @ op.weight, h @ op.weight,
                                       rtol=1e-13, atol=0.0)
            inplace = h.copy()
            assert op.solve(inplace, dt, out=inplace) is inplace
            np.testing.assert_array_equal(inplace, out)

    @pytest.mark.parametrize("Np, groups", [
        (101, [(1, 26, 26), (3, 25, 25)]),
        (128, [(4, 32, 32)]),
        (256, [(8, 32, 32)]),
    ])
    def test_batched_blocks_are_the_per_block_solve(self, Np, groups):
        # The blocks run as one matmul per group of equal width, the
        # wider first, and give the bits of one matmul per block.
        op = operator(RELATIVISTIC, Np)
        h = np.random.default_rng(Np).uniform(0.0, 2.0, (64, Np))
        out = op.solve(h, 0.3)
        lu = sv._BlockLU(op, 0.3)
        assert [WG.shape for _, WG in lu.groups] == groups
        np.testing.assert_array_equal(out, block_solve_reference(lu, h))
        np.testing.assert_allclose(out, diffusion_solve_reference(op, h, 0.3),
                                   rtol=1e-13, atol=0.0)

    def test_holds_no_factorization(self):
        # A solve factors for its own dt and keeps nothing on the
        # operator, so a solve at another dt in between changes no bit.
        grid = sv.build_grid(CLASSICAL, 8, 96, 8.0)
        op = sv.diffusion_matrix(CLASSICAL, grid)
        h = np.random.default_rng(5).uniform(0.1, 2.0, (3, grid.Np))
        first = op.solve(h, 0.3)
        op.solve(h, 0.1)
        assert [f.name for f in fields(op)] == ["off", "diag", "weight"]
        assert vars(op).keys() == {"off", "diag", "weight"}
        assert op.solve(h, 0.3).tobytes() == first.tobytes()


class TestSolveViews:
    """The block LU keeps its strided views of the array it last solved,
    matched on that array itself."""

    def test_run_builds_the_density_views_once(self, monkeypatch):
        built, stacks = [], sv._BlockLU._stacks
        monkeypatch.setattr(sv._BlockLU, "_stacks",
                            lambda lu, a: [built.append(a), stacks(lu, a)][1])
        grid = sv.build_grid(CLASSICAL, 16, 64, 8.0)
        sv.run(CLASSICAL, grid, "1 + x*(1-x)", 0.5, 0.05, order2=True)
        st = grid._cache[("step", CLASSICAL, True)]
        # the work array z, then the stepper's density, both on the
        # block LU that the stepper owns
        assert len(built) == 2
        assert isinstance(st.lu, sv._BlockLU) and st.lu.dt == st.dt
        assert built[0] is st.lu._z
        assert built[1] is st.h

    def test_muscl_run_solves_on_the_held_lu(self, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("DiffusionOperator.solve called")

        monkeypatch.setattr(sv.DiffusionOperator, "solve", no_solve)
        grid = sv.build_grid(CLASSICAL, 16, 64, 8.0)
        sv.run(CLASSICAL, grid, "1 + x*(1-x)", 0.1, 0.05, order2=True)

    def test_another_array_gets_its_own_views(self):
        grid = sv.build_grid(RELATIVISTIC, 16, 64, 8.0)
        sv.run(RELATIVISTIC, grid, "1 + x*(1-x)", 0.5, 0.05, order2=True)
        st, op = grid._cache[("step", RELATIVISTIC, True)], sv._op(RELATIVISTIC, grid)
        rng = np.random.default_rng(3)
        for _ in range(2):
            h = rng.uniform(0.1, 2.0, st.h.shape)
            np.testing.assert_allclose(st.lu.solve(h, np.empty_like(h)),
                                       diffusion_solve_reference(op, h, st.dt),
                                       rtol=1e-13, atol=0.0)
            assert st.lu._hv[0] is h
        # and the density, solved in place again, takes the bits of a
        # solve on a fresh copy of it
        st.h[...] = rng.uniform(0.1, 2.0, st.h.shape)
        want = op.solve(st.h.copy(), st.dt)
        op.solve(st.h, st.dt, out=st.h)
        np.testing.assert_array_equal(st.h, want)


class TestStep:
    @pytest.mark.parametrize("model", [CLASSICAL, RELATIVISTIC])
    def test_equilibrium_fixed_point(self, model):
        grid = sv.build_grid(model, 16, 64, 6.0)
        st = sv.State(h=np.full((grid.Nx, grid.Np), 2.5), t=0.0)
        out = sv.step(st, 1e-3, model, grid)
        assert np.max(np.abs(out.h - 2.5)) < 1e-13
        assert out.t == 1e-3

    def test_cfl_enforced(self):
        # A MUSCL half step moves by nu = v dt / (2 dx) with
        # max|v| = P = 8, and MUSCL allows |nu| <= 1/2; sub_steps holds
        # a MUSCL run to it.  The default step has no limit.
        grid = sv.build_grid(CLASSICAL, 16, 64, 8.0)
        st = sv.State(h=np.ones((grid.Nx, grid.Np)), t=0.0)
        limit = grid.dx / 8.0
        assert sv.cfl_limit(CLASSICAL, grid) == limit
        with pytest.raises(CFLViolation, match=r"\(at t = 0\)"):
            sv.sub_steps(CLASSICAL, grid, 1.01 * limit, 1.01 * limit, order2=True)
        assert sv.sub_steps(CLASSICAL, grid, 0.99 * limit, 0.99 * limit,
                            order2=True) == (1, 0.99 * limit)
        assert sv.sub_steps(CLASSICAL, grid, 100.0 * limit, 100.0 * limit) == (
            1, 100.0 * limit)
        sv.step(st, 100.0 * limit, CLASSICAL, grid)
        # v = 0 sets no limit
        still = expr_model_1d("1", "p1^2/2", v1="0")
        assert sv.cfl_limit(still, sv.build_grid(still, 16, 64, 8.0)) == math.inf

    @pytest.mark.parametrize("with_diffusion", [False, True],
                             ids=["transport", "full"])
    # MUSCL alone: the default step is neither TVD nor positive on data
    # whose interpolant in x is not.
    @pytest.mark.parametrize("order2", [True])
    @pytest.mark.parametrize("model", [CLASSICAL, RELATIVISTIC_10],
                             ids=["classical", "relativistic10"])
    def test_positive_and_tvd_at_the_limit(self, model, order2,
                                           with_diffusion):
        grid = sv.build_grid(model, 24, 48, 6.0)
        rng = np.random.default_rng(5)
        limit = sv.cfl_limit(model, grid)
        # Six steps just inside the limit, then one at it and one at the
        # round-off past it that sub_steps still accepts.
        dts = [0.999 * limit] * 6 + [limit, limit * (1.0 + 1e-12)]
        h = rng.uniform(0.0, 2.0, (grid.Nx, grid.Np))
        h[rng.random(h.shape) < 0.2] = 0.0
        st = sv.State(h=h, t=0.0)
        m0 = sv._mass(h, grid)

        def tv(h):
            return np.sum(np.abs(np.roll(h, -1, axis=0) - h), axis=0)

        for dt in dts:
            tv0 = tv(st.h)
            if with_diffusion:
                st = muscl_step(st, dt, model, grid)
            else:
                # the two half steps of transport alone
                muscl = sv._Strang(model, grid, dt)
                muscl.load(st.h)
                muscl.transport(out=muscl.h)
                muscl.transport(out=muscl.h)
                st = sv.State(h=muscl.h.copy(), t=st.t + dt)
            assert np.min(st.h) >= 0.0
            tv1 = tv(st.h)
            if with_diffusion:
                # The p solve averages columns, so one column's variation
                # may grow; its mu-weighted sum may not.
                assert tv1 @ grid.mu_weights <= tv0 @ grid.mu_weights
            else:
                assert np.all(tv1 <= tv0 * (1.0 + 1e-13))
        assert abs(sv._mass(st.h, grid) - m0) <= 1e-13 * m0

    def test_pure_transport_conserves_l1(self):
        model = expr_model_1d("1", "(p1^2)/2", v1="2")
        grid = sv.build_grid(model, 32, 16, 4.0)
        h = np.zeros((grid.Nx, grid.Np))
        h[3:7, :] = 1.0
        l1_0 = np.sum(np.abs(h))
        peaks = [np.argmax(h.sum(axis=1))]
        # the default step's half shifts alone, one phase per half step
        st = sv._Spectral(model, grid, grid.dx / 2.0)
        st.load(h)
        z = st.zs[0]
        for _ in range(16):
            z *= st.phase
            z *= st.phase
            h = st.sample()[0].T
            assert abs(np.sum(np.abs(h)) - l1_0) < 1e-12
            peaks.append(np.argmax(h.sum(axis=1)))
        # velocity 2 for time 16 * dx/2 moves the bump 16 cells forward
        assert (peaks[-1] - peaks[0]) % grid.Nx == pytest.approx(16, abs=2)

    @pytest.mark.parametrize("order2", [False, True])
    @pytest.mark.parametrize("model", [CLASSICAL, RELATIVISTIC, WIGGLE],
                             ids=["classical", "relativistic", "wiggle"])
    def test_matches_reference_step(self, model, order2):
        # The default step's reference builds its propagator without
        # the row normalization, which moves it by about 5e-14.
        grid = sv.build_grid(model, 24, 40, 6.0)
        rng = np.random.default_rng(3)
        dt = 0.8 * sv.cfl_limit(model, grid) if order2 else 0.05
        h = rng.uniform(0.1, 2.0, (grid.Nx, grid.Np))
        st = sv.State(h=h, t=0.0)
        step = muscl_step if order2 else sv.step
        for _ in range(3):
            want = step_reference(st.h, dt, model, grid, order2)
            st = step(st, dt, model, grid)
            np.testing.assert_allclose(st.h, want, rtol=1e-13 if order2 else 1e-12,
                                       atol=0.0)

    # MUSCL alone: the default step has no column runs.
    @pytest.mark.parametrize("order2", [True])
    @pytest.mark.parametrize("model, Nx, Np", [
        (CLASSICAL, 128, 256), (WIGGLE, 24, 40), (WIGGLE, 24, 101),
        (RELATIVISTIC_10, 60, 101),
    ], ids=["classical", "wiggle40", "wiggle101", "relativistic10"])
    def test_transport_bit_for_bit_the_column_runs(self, model, Nx, Np, order2):
        # Zeros make the limiter's slopes and the faces signed zeros;
        # the int64 views tell -0.0 from 0.0.
        grid = sv.build_grid(model, Nx, Np, 6.0)
        dt = sv.cfl_limit(model, grid)
        st, ref = (sv._Strang(model, grid, dt) for _ in range(2))
        rng = np.random.default_rng(41)
        h = rng.uniform(0.0, 2.0, (Nx, Np))
        h[rng.random(h.shape) < 0.2] = 0.0
        st.h[...] = ref.h[...] = h
        for _ in range(3):
            st.transport(out=st.h)
            transport_runs_reference(ref, out=ref.h)
            np.testing.assert_array_equal(st.h.view(np.int64), ref.h.view(np.int64))

    @pytest.mark.parametrize("order2", [False, True])
    def test_input_state_neither_mutated_nor_aliased(self, order2):
        grid = sv.build_grid(CLASSICAL, 16, 32, 6.0)
        h = np.random.default_rng(9).uniform(0.1, 2.0, (grid.Nx, grid.Np))
        st = sv.State(h=h, t=0.0)
        step = muscl_step if order2 else sv.step
        mid = step(st, 1e-3, CLASSICAL, grid)
        mid_h = mid.h.copy()
        plus = step(mid, 1e-3, CLASSICAL, grid)
        np.testing.assert_array_equal(st.h, h)
        np.testing.assert_array_equal(mid.h, mid_h)
        for a, b in ((st.h, mid.h), (mid.h, plus.h), (st.h, plus.h)):
            assert not np.shares_memory(a, b)

    # MUSCL alone: the default step keeps h >= 0 only for data whose
    # interpolant in x is nonnegative, which random data's is not.
    @pytest.mark.parametrize("order2", [True])
    def test_positivity_and_mass_random_data(self, order2):
        grid = sv.build_grid(CLASSICAL, 24, 64, 6.0)
        rng = np.random.default_rng(17)
        dt = 0.4 * grid.dx / 6.0
        for _ in range(5):
            h = rng.uniform(0.0, 2.0, (grid.Nx, grid.Np))
            h[rng.random(h.shape) < 0.1] = 0.0
            st = sv.State(h=h, t=0.0)
            m0 = sv._mass(st.h, grid)
            for _ in range(4):
                st = muscl_step(st, dt, CLASSICAL, grid)
                assert np.min(st.h) >= 0.0
            assert abs(sv._mass(st.h, grid) - m0) <= 1e-13 * m0


class TestDefaultStep:
    """The default step: exact shifts of the x-Fourier modes around a
    nonnegative diffusion propagator, one step per sample."""

    @staticmethod
    def cosine(X, P):
        return 1.0 + 0.5 * np.cos(CLASSICAL.oracle.XI * X)

    @pytest.mark.parametrize("model", [CLASSICAL, RELATIVISTIC_10],
                             ids=["classical", "relativistic10"])
    def test_propagator_nonnegative_fixes_constants_keeps_mass(self, model):
        grid = sv.build_grid(model, 16, 128, 8.0)
        prop = sv._Spectral(model, grid, 0.05).prop
        mu = grid.mu_weights
        assert np.all(prop >= 0.0)
        np.testing.assert_allclose(prop.sum(axis=1), 1.0, rtol=0.0, atol=1e-15)
        assert np.sum(np.abs(mu @ prop - mu)) <= 1e-14

    def test_one_step_per_sample_keeps_the_mass(self):
        grid = sv.build_grid(CLASSICAL, 64, 128, 8.0)
        series = sv.run(CLASSICAL, grid, "1 + x*(1-x)", tmax=1.0, sample_dt=0.05)
        assert series.meta["dt"] == 0.05
        assert np.max(np.abs(series.mass - series.mass[0])) <= 1e-12

    def test_langevin_D_at_one_step_per_sample(self):
        # 1.058 at 64 x 128, where upwind read 1.56
        grid = sv.build_grid(CLASSICAL, 64, 128, 8.0)
        series = sv.run(CLASSICAL, grid, self.cosine, tmax=0.8, sample_dt=0.05)
        ratio = series.D[-1] / CLASSICAL.oracle.langevin_D(0.8, 0.5)
        assert 1.0 < ratio <= 1.06

    def test_D_converges_at_second_order_in_p(self):
        # At one step per sample the splitting error sets a floor of
        # 0.35% at t = 0.2, so the step is a quarter of a sample here.
        # The errors at Np = 64, 128, 256 are 6.8e-2, 1.7e-2, 4.8e-3 at
        # t = 0.6 and 0.43, 9.1e-2, 2.3e-2 at t = 1.
        orc, times = CLASSICAL.oracle, (0.6, 1.0)
        errs = []
        for Np in (64, 128, 256):
            grid = sv.build_grid(CLASSICAL, 64, Np, 8.0)
            series = sv.run(CLASSICAL, grid, self.cosine, tmax=1.0,
                            sample_dt=0.05, dt=0.0125)
            errs.append([abs(series.D[round(t / 0.05)] / orc.langevin_D(t, 0.5) - 1.0)
                         for t in times])
        errs = np.array(errs)
        assert np.all(np.log2(errs[:-1] / errs[1:]) >= 1.5)
        assert np.all(np.log2(errs[0] / errs[-1]) / 2.0 >= 1.8)

    @pytest.mark.parametrize("datum, low", [
        ("exp(-5000*(x-0.5)^2)", "-0.0342"), ("1/(1+exp(-200*(x-0.5)))", "-0.14"),
    ], ids=["narrow-bump", "step"])
    def test_negative_interpolant_rejected(self, datum, low):
        grid = sv.build_grid(CLASSICAL, 64, 32, 8.0)
        with pytest.raises(ValueError, match=f"falls to {low} times its largest value .* larger Nx"):
            sv.run(CLASSICAL, grid, datum, tmax=0.1, sample_dt=0.05)
        # MUSCL keeps any nonnegative datum nonnegative
        series = sv.run(CLASSICAL, grid, datum, tmax=0.1, sample_dt=0.05, order2=True)
        assert len(series) == 3

    @pytest.mark.parametrize("datum", ["1 + x*(1-x)", cosine],
                             ids=["quadratic", "cosine"])
    def test_nonnegative_interpolant_runs(self, datum):
        grid = sv.build_grid(CLASSICAL, 64, 32, 8.0)
        h = sv.initial_state(CLASSICAL, grid, datum).h
        assert -1e-12 * np.max(h) <= sv._positive_interpolant(h) < 0.0
        series = sv.run(CLASSICAL, grid, datum, tmax=0.1, sample_dt=0.05)
        assert len(series) == 3

    def test_negative_sample_names_t(self, monkeypatch):
        monkeypatch.setattr(sv, "_positive_interpolant", lambda h: 0.0)
        grid = sv.build_grid(CLASSICAL, 64, 32, 8.0)
        with pytest.raises(NonpositiveValues, match=r"< 0 at t = 0\.05$"):
            sv.run(CLASSICAL, grid, "exp(-5000*(x-0.5)^2)", tmax=0.1, sample_dt=0.05)


class TestFunctionals:
    def test_equilibrium_all_zero(self):
        grid = sv.build_grid(CLASSICAL, 16, 64, 6.0)
        st = sv.State(h=np.full((grid.Nx, grid.Np), 7.0), t=0.0)
        row = sv.functionals(st, CLASSICAL, grid)
        assert row["mass"] == pytest.approx(7.0, rel=1e-13)
        for key in ("D", "Ipp", "Ixp", "Ixx", "Emod", "l1_dist"):
            assert row[key] == 0.0

    def test_x_only_wave(self):
        grid = sv.build_grid(CLASSICAL, 32, 64, 6.0)
        h = 1.0 + 0.1 * np.cos(2 * np.pi * grid.x_nodes)[:, None] * np.ones(
            grid.Np
        )
        st = sv.State(h=h, t=0.0)
        row = sv.functionals(st, CLASSICAL, grid)
        # rows are p-constant; only edge-stencil rounding survives squaring
        assert row["Ipp"] < 1e-30
        assert row["Ixx"] > 0.0
        assert row["D"] > 0.0

    def test_cauchy_schwarz_between_forms(self):
        grid = sv.build_grid(CLASSICAL, 16, 48, 6.0)
        rng = np.random.default_rng(23)
        for _ in range(20):
            st = sv.State(
                h=rng.uniform(0.05, 3.0, (grid.Nx, grid.Np)), t=0.0
            )
            row = sv.functionals(st, CLASSICAL, grid)
            assert row["Ixp"] ** 2 <= row["Ipp"] * row["Ixx"] * (1 + 1e-12)

    def test_modified_entropy_dominates_entropy(self):
        # E >= k D whenever b <= sqrt(ac), on arbitrary states.
        cert = build_certificate(1.0, 1.0, 0.0, 0.0, 0.0, alpha=1.0)
        assert cert.b <= np.sqrt(cert.a * cert.c)
        grid = sv.build_grid(CLASSICAL, 16, 48, 6.0)
        rng = np.random.default_rng(29)
        for _ in range(20):
            st = sv.State(
                h=rng.uniform(0.05, 3.0, (grid.Nx, grid.Np)), t=0.0
            )
            row = sv.functionals(st, CLASSICAL, grid, certificate=cert)
            assert row["Emod"] >= cert.k * row["D"] - 1e-12

    def test_emod_defaults_to_entropy(self):
        grid = sv.build_grid(CLASSICAL, 16, 48, 6.0)
        st = smooth_state(CLASSICAL, grid)
        row = sv.functionals(st, CLASSICAL, grid)
        assert row["Emod"] == row["D"]

    @pytest.mark.parametrize("case", ["classical", "relativistic10", "zeros",
                                      "unaligned_view"])
    def test_bit_for_bit_the_plain_formula(self, case):
        # Each column runs its formula's operations in order, into work
        # arrays, and sums by the same dot products.  Np = 101 leaves the
        # rows of those arrays off the 64-byte lines, zero entries take
        # the phi = 1 branch, and a view of a wider array is neither
        # contiguous nor aligned.
        model, shape = CLASSICAL, (128, 256)
        if case == "relativistic10":
            model, shape = RELATIVISTIC_10, (60, 101)
        grid = sv.build_grid(model, *shape, 8.0)
        rng = np.random.default_rng(31)
        h = rng.uniform(0.05, 3.0, shape)
        if case == "zeros":
            h[rng.random(shape) < 0.2] = 0.0
        elif case == "unaligned_view":
            wide = np.zeros((shape[0], shape[1] + 3))
            wide[:, 1:-2] = h
            h = wide[:, 1:-2]
            assert not h.flags.c_contiguous and h.ctypes.data % 64 != 0
        st = sv.State(h=h, t=0.25)
        cert = build_certificate(1.0, 1.0, 0.0, 0.0, 0.0, alpha=1.0)
        for c in (None, cert):
            got = sv.functionals(st, model, grid, certificate=c)
            want = functionals_reference(st, model, grid, certificate=c)
            assert list(got) == list(want)
            for key, value in want.items():
                np.testing.assert_array_equal(got[key], value, err_msg=key)
        if case == "zeros":
            assert got["D"] > 0.0

    def test_difference_stencils_are_roll_and_gradient(self):
        # on the samples' (Np, Nx) layout: x along the rows, p down them;
        # the spectral derivative is exact on a trigonometric polynomial
        # whose highest mode is below Nyquist, at odd and even Nx
        for Nx in (31, 32):
            h = np.random.default_rng(37).uniform(0.1, 2.0, (21, Nx))
            np.testing.assert_array_equal(
                sv._ddp(h, 0.3), np.gradient(h, 0.3, axis=0, edge_order=2))
            x = np.arange(Nx) / Nx
            f = np.cos(2 * np.pi * x) + 0.5 * np.sin(2 * np.pi * 7 * x)
            df = (-2 * np.pi * np.sin(2 * np.pi * x)
                  + 7 * np.pi * np.cos(2 * np.pi * 7 * x))
            got = sv._ddx_spectral(np.stack([f, 2 * f]), sv._wavenumbers(Nx))
            np.testing.assert_allclose(got, np.stack([df, 2 * df]), rtol=0, atol=1e-12)

    def test_end_rows_in_a_work_row(self):
        h = np.random.default_rng(41).uniform(0.1, 2.0, (21, 12))
        out, row = np.empty_like(h), np.empty(12)
        assert sv._ddp(h, 0.3, out=out, row=row) is out
        np.testing.assert_array_equal(out, np.gradient(h, 0.3, axis=0, edge_order=2))

    def test_ixx_independent_of_nx_for_a_band_limited_datum(self):
        # The derivative is that of the trigonometric interpolant the
        # default step evolves, so a band-limited datum's Ixx does not
        # depend on Nx; the central difference was 1.28e-2, 3.2e-3 and
        # 8.0e-4 below at these Nx.  Two steps of 0.25, Np = 128.
        ixx = []
        for nx in (32, 64, 128):
            grid = sv.build_grid(CLASSICAL, nx, 128, 8.0)
            series = sv.run(CLASSICAL, grid, lambda X, P: 1.0 + 0.5 * np.cos(2 * np.pi * X),
                            tmax=0.5, sample_dt=0.25)
            ixx.append(series.Ixx[-1])
        assert ixx[0] == pytest.approx(0.6038494, abs=5e-8)
        np.testing.assert_allclose(ixx, ixx[0], rtol=1e-12, atol=0.0)


class TestWorkArrays:
    """The step and sample passes write to arrays on 64-byte lines."""

    def test_aligned_allocator(self):
        for shape in ((1,), (3, 5), (17, 101), (130, 256)):
            a = sv._aligned(shape)
            assert a.shape == shape and a.dtype == float
            assert a.flags.c_contiguous and a.flags.writeable
            assert a.ctypes.data % 64 == 0

    def test_fine_grid_arrays_start_on_a_line(self):
        # Np = 256 is a multiple of 8, so the row views start on a line
        # too: the density inside the ghost rows and the faces past the
        # first.
        grid = sv.build_grid(CLASSICAL, 128, 256, 8.0)
        h0 = smooth_state(CLASSICAL, grid).h
        sv.run(CLASSICAL, grid, h0, 0.01, 0.01, order2=True)
        st = grid._cache[("step", CLASSICAL, True)]
        arrays = {"ghost": st.ghost, "h": st.h, "flux": st.flux,
                  "face": st.flux[1:], "jump": st.jump, "slope": st.slope,
                  "hs": st.hs, "nu": st.nu, "_BlockLU._z": st.lu._z,
                  "_BlockLU._edge": st.lu._edge}
        s = sv._sample(CLASSICAL, grid)
        for name in ("w", "wg", "dv", "ik", "hh", "z", "row"):
            arrays[f"sample {name}"] = getattr(s, name)
        arrays["sample hx"] = s.hh[1]
        for k, a in enumerate(s.work):
            arrays[f"sample work {k}"] = a
        sv.run(CLASSICAL, grid, h0, 0.05, 0.05)
        spectral = grid._cache[("step", CLASSICAL, False)]
        for name in ("zs", "ws"):
            for k, a in enumerate(getattr(spectral, name)):
                arrays[f"_Spectral.{name}[{k}]"] = a
        assert {name: a.ctypes.data % 64 for name, a in arrays.items()} == (
            dict.fromkeys(arrays, 0))
        assert st.nu.shape == st.h.shape
        np.testing.assert_array_equal(st.nu, np.broadcast_to(st.nu[0], st.nu.shape))

    def test_step_allocates_no_iterator_buffers(self):
        # Every pass of a MUSCL step runs on whole arrays or copies
        # column runs, so none goes through numpy's buffered iterator,
        # whose buffers take 64 KB or more.
        grid = sv.build_grid(CLASSICAL, 128, 256, 8.0)
        st = sv._stepper(CLASSICAL, grid, sv.cfl_limit(CLASSICAL, grid), True)
        st.h[...] = smooth_state(CLASSICAL, grid).h
        st.advance()  # builds the block LU's work arrays
        tracemalloc.start()
        try:
            st.advance()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4096

    @pytest.mark.parametrize("order2", [False, True])
    def test_sample_allocates_less_than_one_grid_array(self, order2):
        # One sample of a run: the stepper's (h, dh/dx), its minimum and
        # its row of functionals, all in work arrays.
        grid = sv.build_grid(CLASSICAL, 128, 256, 8.0)
        dt = sv.cfl_limit(CLASSICAL, grid) if order2 else 0.05
        st = sv._stepper(CLASSICAL, grid, dt, order2)
        st.load(smooth_state(CLASSICAL, grid).h)
        s = sv._sample(CLASSICAL, grid)

        def sample():
            h, hx = st.sample()
            return s.functionals(h, hx, float(np.min(h)), 0.0)

        sample()  # warm-up
        tracemalloc.start()
        try:
            sample()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2048

    def test_functionals_allocates_less_than_one_grid_array(self):
        # The weights, coefficients and wavenumbers are full-grid arrays,
        # so no pass broadcasts a row through numpy's buffered iterator,
        # the rfft and irfft write into kept work arrays, and the end
        # rows of the p derivative are formed in a kept work row.
        grid = sv.build_grid(CLASSICAL, 128, 256, 8.0)
        st = smooth_state(CLASSICAL, grid)
        sv.functionals(st, CLASSICAL, grid)  # builds the work arrays
        tracemalloc.start()
        try:
            sv.functionals(st, CLASSICAL, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2048


class TestInitialState:
    def test_expression_in_x_and_p(self):
        grid = sv.build_grid(CLASSICAL, 16, 48, 6.0)
        st = sv.initial_state(CLASSICAL, grid, "1 + x*(1-x) + exp(-p^2)")
        assert st.h.shape == (grid.Nx, grid.Np)
        assert abs(sv._mass(st.h, grid) - 1.0) < 1e-12
        # x varies along axis 0, p along axis 1
        assert np.ptp(st.h[:, 0]) > 0.0
        assert np.ptp(st.h[0, :]) > 0.0

    def test_pi_token(self):
        grid = sv.build_grid(CLASSICAL, 16, 48, 6.0)
        st = sv.initial_state(CLASSICAL, grid, "2 + exp(-pi*p^2)")
        assert np.all(st.h > 0.0)

    def test_callable_and_array_agree(self):
        grid = sv.build_grid(CLASSICAL, 16, 48, 6.0)
        fn = lambda X, P: 1.0 + 0.3 * np.cos(2 * np.pi * X) * np.exp(-(P**2))
        X, P = np.meshgrid(grid.x_nodes, grid.p_nodes, indexing="ij")
        a = sv.initial_state(CLASSICAL, grid, fn)
        b = sv.initial_state(CLASSICAL, grid, fn(X, P))
        np.testing.assert_array_equal(a.h, b.h)

    def test_validation(self):
        grid = sv.build_grid(CLASSICAL, 16, 48, 6.0)
        with pytest.raises(ValueError, match="nonnegative"):
            sv.initial_state(CLASSICAL, grid, "x - 10")
        with pytest.raises(ValueError, match="shape"):
            sv.initial_state(CLASSICAL, grid, np.ones((3, 3)))
        with pytest.raises(ValueError, match="positive mass"):
            sv.initial_state(CLASSICAL, grid, np.zeros((grid.Nx, grid.Np)))


class TestRun:
    def test_homogeneous_ou_matches_exact_decay(self):
        # Gaussian-ratio datum: D(t) = (c^2/2) e^{-2t} exactly.
        grid = sv.build_grid(CLASSICAL, 8, 256, 8.0)
        c = 1.0
        series = sv.run(
            CLASSICAL,
            grid,
            lambda X, P: np.exp(c * P - c * c / 2.0),
            tmax=2.0,
            sample_dt=0.05,
            dt=2e-4,
        )
        exact = 0.5 * c * c * np.exp(-2.0 * series.times)
        assert np.max(np.abs(series.D / exact - 1.0)) < 0.05
        rate, r2 = sv.fit_rate(series, window=0.5)
        assert 1.9 <= rate <= 2.6
        assert r2 > 0.999

    def test_kinetic_run_invariants(self):
        cert = build_certificate(1.0, 1.0, 0.0, 0.0, 0.0, alpha=1.0)
        grid = sv.build_grid(CLASSICAL, 32, 64, 8.0)
        series = sv.run(
            CLASSICAL,
            grid,
            "1 + 0.5*x*(1-x)",
            tmax=2.0,
            sample_dt=0.05,
            certificate=cert,
        )
        assert np.max(np.abs(series.mass - series.mass[0])) < 1e-10
        assert np.all(np.diff(series.D) <= 1e-13)
        assert np.all(series.l1_dist <= np.sqrt(2.0 * series.D) + 1e-10)
        assert series.decay_violations == []
        assert series.meta["lambda"] == cert.lam

    def test_muscl_matches_langevin_solution(self):
        # At the default dt: 0.9 of the MUSCL limit dx / max|v| =
        # 1 / (128 * 8) rounds to 57 sub-steps per sample.
        grid = sv.build_grid(CLASSICAL, 128, 256, 8.0)
        orc = CLASSICAL.oracle
        series = sv.run(CLASSICAL, grid,
                        lambda X, P: 1.0 + 0.5 * np.cos(orc.XI * X),
                        tmax=0.8, sample_dt=0.05, order2=True)
        assert series.meta["dt"] == pytest.approx(0.05 / 57, rel=1e-12)
        for t in (0.2, 0.4, 0.8):
            k = int(np.argmin(np.abs(series.times - t)))
            assert series.times[k] == pytest.approx(t, rel=1e-12)
            err = series.D[k] / orc.langevin_D(t, 0.5) - 1.0
            assert abs(err) <= 1e-2, (t, err)
        assert np.max(np.abs(series.mass - series.mass[0])) < 1e-13

    @pytest.mark.parametrize("order2", [False, True])
    @pytest.mark.parametrize("model", [CLASSICAL, WIGGLE], ids=["classical", "wiggle"])
    def test_matches_a_loop_of_steps(self, model, order2):
        # MUSCL takes sub-steps by default; the default step takes one
        # step per sample, so it is given a dt that needs three.  A run
        # keeps that step's density in x-Fourier space between samples,
        # and a step goes to x and back, which moves the last bits.  A
        # MUSCL run keeps its density in x, and its samples take dh/dx
        # from the rfft of h as functionals() does, to the bit.
        grid = sv.build_grid(model, 16, 48, 6.0)
        datum = "1 + 0.5*x*(1-x) + exp(-p^2)"
        given = None if order2 else 0.02
        series = sv.run(model, grid, datum, tmax=0.2, sample_dt=0.05,
                        dt=given, order2=order2)
        n_sub, dt = sv.sub_steps(model, grid, 0.05, given, order2)
        assert n_sub > 1

        state = sv.initial_state(model, grid, datum)
        rows = [sv.functionals(state, model, grid)]
        step = muscl_step if order2 else sv.step
        for _ in range(4):
            for _ in range(n_sub):
                state = step(state, dt, model, grid)
            rows.append(sv.functionals(state, model, grid))
        for key, name in sv._SAMPLED:
            want = np.array([r[key] for r in rows])
            if order2:
                assert getattr(series, name).tobytes() == want.tobytes(), name
            else:
                np.testing.assert_allclose(getattr(series, name), want,
                                           rtol=1e-12, atol=1e-15, err_msg=name)

    def test_rows_are_the_functionals_of_the_samples(self, monkeypatch):
        # The run's rows come from the stepper's (h, dh/dx); functionals()
        # takes dh/dx from the rfft of h itself.
        grid = sv.build_grid(RELATIVISTIC_10, 32, 64, 6.0)
        samples, sample = [], sv._Spectral.sample

        def kept(st):
            hh = sample(st)
            samples.append(hh[0].T.copy())
            return hh

        monkeypatch.setattr(sv._Spectral, "sample", kept)
        def datum(X, P):
            return 1.0 + 0.5 * np.cos(2 * np.pi * X) * np.exp(-P**2) + 0.2 * np.sin(4 * np.pi * X)

        series = sv.run(RELATIVISTIC_10, grid, datum, tmax=0.3, sample_dt=0.05)
        assert len(samples) == len(series) == 7
        for k, h in enumerate(samples):
            row = sv.functionals(sv.State(h=h, t=series.times[k]), RELATIVISTIC_10, grid)
            for key, name in sv._SAMPLED:
                # a column that is zero up to round-off, to its scale
                scale = np.max(np.abs(getattr(series, name)))
                assert getattr(series, name)[k] == pytest.approx(
                    row[key], rel=1e-13, abs=1e-13 * scale), (k, key)

    def test_muscl_rows_pinned(self):
        # A MUSCL run's rows, to 1e-13 of each column's largest value:
        # D, Ipp, mass and l1_dist as the sums over the grid in row order
        # gave them before the functionals became dot products, and Ixp
        # and Ixx with dh/dx from the rfft of h.
        grid = sv.build_grid(RELATIVISTIC_10, 16, 48, 6.0)
        series = sv.run(RELATIVISTIC_10, grid, "1 + 0.5*x*(1-x) + exp(-p^2)",
                        tmax=0.2, sample_dt=0.05, order2=True)
        pinned = {
            "D": ["0x1.26f1c5b7ed125p-9", "0x1.8b463dc8f5b36p-11", "0x1.64662971b5047p-12",
                  "0x1.ce43f0fc013cep-13", "0x1.7e0ee7505b591p-13"],
            "Ipp": ["0x1.195fcb36e0382p-4", "0x1.376df6ee5630fp-6", "0x1.6217a320d1cb2p-8",
                    "0x1.a90120fc56235p-10", "0x1.2a32d401afb28p-11"],
            "Ixp": ["0x1.8000000000000p-63", "-0x1.6d9b57c8bbea3p-11", "-0x1.1d9528686e75ap-10",
                    "-0x1.53d087aad0538p-10", "-0x1.6bf0df85ebbf6p-10"],
            "Ixx": ["0x1.3011663331040p-6", "0x1.1e1dae7c7d918p-6", "0x1.0c472eecd7e37p-6",
                    "0x1.f3db97b829b24p-7", "0x1.d02d9a1852513p-7"],
            "mass": ["0x1.0000000000001p+0", "0x1.0000000000001p+0", "0x1.0000000000002p+0",
                     "0x1.0000000000001p+0", "0x1.0000000000001p+0"],
            "l1_dist": ["0x1.81bc9f86ecc53p-5", "0x1.d6fd00cb053b9p-6", "0x1.5900099bcc09fp-6",
                        "0x1.207ad1d36d026p-6", "0x1.0c1dec5b25c6dp-6"],
        }
        pinned["Emod"] = pinned["D"]
        for name, values in pinned.items():
            want = np.array([float.fromhex(v) for v in values])
            np.testing.assert_allclose(getattr(series, name), want, rtol=0.0,
                                       atol=1e-13 * np.max(np.abs(want)), err_msg=name)

    def test_equilibrium_datum_flat(self):
        grid = sv.build_grid(CLASSICAL, 16, 48, 6.0)
        series = sv.run(CLASSICAL, grid, "3", tmax=0.5, sample_dt=0.05)
        assert np.max(series.D) < 1e-14
        assert np.max(series.l1_dist) < 1e-12
        assert np.max(np.abs(series.mass - 1.0)) < 1e-12

    def test_l2_contraction_pairs(self):
        # The default step contracts the distance in L2(mu dx): a shift
        # keeps each mode's modulus, and the propagator is a power of
        # (I - tau L)^-1, a contraction in L2(mu).  It does not contract
        # in L1 on the grid, where a sub-cell shift of sampled data moves
        # the sum of |h| (and nor does MUSCL's limiter: both grew it by
        # 1.3e-6 on these pairs).
        grid = sv.build_grid(CLASSICAL, 24, 48, 6.0)
        rng = np.random.default_rng(31)
        w = grid.mu_weights * grid.dx
        for _ in range(3):
            a, b = rng.uniform(0.1, 0.5, 2)
            s1 = smooth_state(CLASSICAL, grid, amp_x=a)
            s2 = smooth_state(CLASSICAL, grid, amp_p=b)
            dist = [float(np.sum((s1.h - s2.h) ** 2 * w))]
            for _ in range(20):
                s1 = sv.step(s1, 1e-3, CLASSICAL, grid)
                s2 = sv.step(s2, 1e-3, CLASSICAL, grid)
                dist.append(float(np.sum((s1.h - s2.h) ** 2 * w)))
            assert np.all(np.diff(dist) <= 1e-13 * dist[0])

    def test_sampling_layout(self):
        grid = sv.build_grid(CLASSICAL, 16, 48, 6.0)
        series = sv.run(CLASSICAL, grid, "2", tmax=1.0, sample_dt=0.25)
        assert len(series) == 5
        np.testing.assert_allclose(np.diff(series.times), 0.25, rtol=1e-12)

    def test_chosen_dt_stays_inside_the_limit(self):
        # MUSCL: sample_dt / (0.9 limit) = 1.44 rounds to one sub-step,
        # which alone would step past the limit.
        grid = sv.build_grid(CLASSICAL, 16, 48, 6.0)
        limit = sv.cfl_limit(CLASSICAL, grid)
        series = sv.run(CLASSICAL, grid, "2", tmax=2.6 * limit,
                        sample_dt=1.3 * limit, order2=True)
        assert series.meta["dt"] == pytest.approx(0.65 * limit, rel=1e-12)
        assert len(series) == 3

    def test_given_dt_bounds_the_sub_step(self):
        # 0.05 / 0.0015 = 33.3 rounds down to 33 sub-steps of 1.515e-3,
        # longer than the step asked for; 34 sub-steps keep within it.
        grid = sv.build_grid(CLASSICAL, 16, 48, 6.0)
        series = sv.run(CLASSICAL, grid, "2", tmax=0.05, sample_dt=0.05,
                        dt=0.0015)
        assert series.meta["dt"] == pytest.approx(0.05 / 34, rel=1e-12)
        series = sv.run(CLASSICAL, grid, "2", tmax=0.05, sample_dt=0.05,
                        dt=0.01)
        assert series.meta["dt"] == pytest.approx(0.01, rel=1e-12)

    def test_step_errors_carry_time_stamp(self):
        grid = sv.build_grid(CLASSICAL, 16, 48, 6.0)
        with pytest.raises(CFLViolation, match="at t ="):
            sv.run(CLASSICAL, grid, "2", tmax=1.0, sample_dt=0.5, dt=0.5,
                   order2=True)

    def test_tmax_must_be_whole_number_of_samples(self):
        grid = sv.build_grid(CLASSICAL, 16, 48, 6.0)
        for sample_dt in (0.004, 0.0028):
            with pytest.raises(ValueError,
                               match=f"tmax = 0.01 .* sample_dt = {sample_dt}"):
                sv.run(CLASSICAL, grid, "2", tmax=0.01, sample_dt=sample_dt)
        with pytest.raises(ValueError, match="whole number"):
            sv.run(CLASSICAL, grid, "2", tmax=0.01, sample_dt=0.05)
        # The CLI defaults and the benchmark's run end exactly at tmax.
        for tmax, sample_dt in ((10.0, 0.05), (0.8, 0.05)):
            series = sv.run(CLASSICAL, grid, "2", tmax=tmax, sample_dt=sample_dt)
            assert len(series) == round(tmax / sample_dt) + 1
            assert series.times[-1] == pytest.approx(tmax, rel=1e-12)

    def test_parameter_validation(self):
        grid = sv.build_grid(CLASSICAL, 16, 48, 6.0)
        for tmax, sample_dt in ((0.0, 0.1), (math.inf, 0.1), (0.5, math.inf),
                                (0.5, math.nan)):
            with pytest.raises(ValueError, match="tmax"):
                sv.run(CLASSICAL, grid, "2", tmax=tmax, sample_dt=sample_dt)
        for dt in (0.0, -1e-3, math.nan):
            with pytest.raises(ValueError, match="dt must be positive"):
                sv.run(CLASSICAL, grid, "2", tmax=0.5, sample_dt=0.1, dt=dt)


class TestFitRate:
    def _series(self, y, t=None):
        t = np.linspace(0.0, 2.0, len(y)) if t is None else t
        z = np.zeros_like(t)
        return sv.FunctionalSeries(
            times=t, D=np.asarray(y), Ipp=z, Ixp=z, Ixx=z,
            Emod=np.asarray(y) * 2.0, mass=z + 1.0, l1_dist=z,
        )

    def test_exact_exponential(self):
        t = np.linspace(0.0, 2.0, 40)
        rate, r2 = sv.fit_rate(self._series(3.0 * np.exp(-2.0 * t), t))
        assert rate == pytest.approx(2.0, abs=1e-10)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_constant_series(self):
        rate, r2 = sv.fit_rate(self._series(np.full(30, 1.7)))
        assert abs(rate) < 1e-12
        assert r2 == 1.0

    def test_field_selection(self):
        t = np.linspace(0.0, 2.0, 40)
        rate, _ = sv.fit_rate(self._series(np.exp(-t), t), field="Emod")
        assert rate == pytest.approx(1.0, abs=1e-10)

    def test_errors(self):
        with pytest.raises(InsufficientData):
            sv.fit_rate(self._series(np.ones(8)))
        y = np.ones(30)
        y[-1] = 0.0
        with pytest.raises(NonpositiveValues):
            sv.fit_rate(self._series(y))
        with pytest.raises(ValueError, match="window"):
            sv.fit_rate(self._series(np.ones(30)), window=0.0)


class TestDiagnostics:
    def test_classical_identity_rows(self):
        grid = sv.build_grid(CLASSICAL, 128, 192, 8.0)
        st = smooth_state(CLASSICAL, grid, amp_x=0.25, amp_p=0.2)
        rows = sv.entropy_production_diagnostics(st, CLASSICAL, grid, dt=1e-4)
        assert set(rows) == {
            "dD", "dIpp", "dIxp", "dIxx", "Qpp_product", "Qxp_product"
        }
        assert rows["dIpp"]["residual"] < 1e-3

    def test_x_independent_state_degenerates(self):
        grid = sv.build_grid(CLASSICAL, 16, 96, 8.0)
        h = np.ones((grid.Nx, 1)) * np.exp(
            -0.3 * (grid.p_nodes - 1.0) ** 2
        )[None, :]
        st = sv.initial_state(CLASSICAL, grid, h)
        rows = sv.entropy_production_diagnostics(st, CLASSICAL, grid, dt=1e-3)
        for name in ("dIxp", "dIxx", "Qxp_product"):
            assert abs(rows[name]["lhs"]) < 1e-10
            assert abs(rows[name]["rhs"]) < 1e-10
            assert rows[name]["residual"] < 1e-6

    @pytest.mark.parametrize("model", [CLASSICAL, RELATIVISTIC])
    def test_refinement_order(self, model):
        def residuals(nx, np_, dt):
            grid = sv.build_grid(model, nx, np_, 8.0)
            st = smooth_state(model, grid)
            return sv.entropy_production_diagnostics(st, model, grid, dt=dt)

        r1 = residuals(32, 64, 1.5e-3)
        r2 = residuals(64, 128, 7.5e-4)
        for name in r1:
            a, b = r1[name]["residual"], r2[name]["residual"]
            assert b < a, name
            assert np.log2(a / max(b, 1e-16)) >= 1.0, name


class TestCSV:
    def test_round_trip_exact(self, tmp_path):
        grid = sv.build_grid(CLASSICAL, 16, 48, 6.0)
        series = sv.run(
            CLASSICAL, grid, "1 + 0.3*x*(1-x)", tmax=0.5, sample_dt=0.1
        )
        path = tmp_path / "series.csv"
        text = sv.series_to_csv(series, path)
        assert text.splitlines()[0] == sv.CSV_HEADER
        back = sv.series_from_csv(path)
        for col in ("times", "D", "Ipp", "Ixp", "Ixx", "Emod", "mass", "l1_dist"):
            np.testing.assert_array_equal(
                getattr(back, col), getattr(series, col), err_msg=col
            )

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        for text, match in [
            ("a,b\n1,2\n", "expected header"),
            # two 4-field rows, once read as one sample
            (sv.CSV_HEADER + "\n0,1,2,3\n4,5,6,7\n", "line 2: 4 fields"),
            (sv.CSV_HEADER + "\n", "no rows"),
            (sv.CSV_HEADER + "\n0,1,2,3,4,5,6,x\n", "line 2: could not convert"),
        ]:
            path.write_text(text)
            with pytest.raises(ValueError, match=match):
                sv.series_from_csv(path)
