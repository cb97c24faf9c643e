"""Phase-space solver: conservation, structure identities, decay tracking."""

import gc
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from hypocert import solver as sv
from hypocert.certificate import build_certificate
from hypocert.errors import (
    CFLViolation,
    InsufficientData,
    LinearSolveFailure,
    NonpositiveValues,
    NonpositiveWeight,
)
from hypocert.models import builtin_classical, builtin_relativistic
from tests_support import (
    diffusion_solve_reference,
    expr_model_1d,
    functionals_reference,
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

    def test_relativistic_tail_is_reported(self):
        grid = sv.build_grid(RELATIVISTIC, 8, 64, 8.0)
        assert 0.0 < grid.tail_mass < 1e-2

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

    def test_keeps_one_factorization(self):
        grid = sv.build_grid(CLASSICAL, 8, 96, 8.0)
        op = sv.diffusion_matrix(CLASSICAL, grid)
        h = np.ones((2, grid.Np))
        for dt in (0.1, 0.2, 0.3):
            op.solve(h, dt)
        (lu,) = [v for v in vars(op).values() if isinstance(v, sv._BlockLU)]
        assert lu.dt == 0.3
        op.solve(h, 0.3)
        assert op._lu is lu


class TestStep:
    @pytest.mark.parametrize("model", [CLASSICAL, RELATIVISTIC])
    def test_equilibrium_fixed_point(self, model):
        grid = sv.build_grid(model, 16, 64, 6.0)
        st = sv.State(h=np.full((grid.Nx, grid.Np), 2.5), t=0.0)
        out = sv.step(st, 1e-3, model, grid)
        assert np.max(np.abs(out.h - 2.5)) < 1e-13
        assert out.t == 1e-3

    def test_cfl_enforced(self):
        # A half step moves by nu = v dt / (2 dx) with max|v| = P = 8:
        # upwind allows |nu| <= 1, MUSCL |nu| <= 1/2.
        grid = sv.build_grid(CLASSICAL, 16, 64, 8.0)
        st = sv.State(h=np.ones((grid.Nx, grid.Np)), t=0.0)
        for order2, limit in ((False, 2.0 * grid.dx / 8.0),
                              (True, grid.dx / 8.0)):
            with pytest.raises(CFLViolation):
                sv.step(st, 1.01 * limit, CLASSICAL, grid, order2=order2)
            sv.step(st, 0.99 * limit, CLASSICAL, grid, order2=order2)

    @pytest.mark.parametrize("with_diffusion", [False, True],
                             ids=["transport", "full"])
    @pytest.mark.parametrize("order2", [False, True])
    @pytest.mark.parametrize("model", [CLASSICAL, RELATIVISTIC_10],
                             ids=["classical", "relativistic10"])
    def test_positive_and_tvd_at_the_limit(self, model, order2,
                                           with_diffusion):
        grid = sv.build_grid(model, 24, 48, 6.0)
        rng = np.random.default_rng(5)
        limit = sv.cfl_limit(model, grid, order2)
        # Six steps just inside the limit, then one at it and one at the
        # round-off past it that step still accepts.
        dts = [0.999 * limit] * 6 + [limit, limit * (1.0 + 1e-12)]
        h = rng.uniform(0.0, 2.0, (grid.Nx, grid.Np))
        h[rng.random(h.shape) < 0.2] = 0.0
        st = sv.State(h=h, t=0.0)
        m0 = sv._mass(h, grid)

        def tv(h):
            return np.sum(np.abs(np.roll(h, -1, axis=0) - h), axis=0)

        for dt in dts:
            tv0 = tv(st.h)
            st = sv.step(st, dt, model, grid, order2=order2,
                         with_diffusion=with_diffusion)
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
        st = sv.State(h=h, t=0.0)
        l1_0 = np.sum(np.abs(st.h))
        peaks = [np.argmax(st.h.sum(axis=1))]
        for _ in range(16):
            st = sv.step(st, grid.dx / 2.0, model, grid, with_diffusion=False)
            assert abs(np.sum(np.abs(st.h)) - l1_0) < 1e-12
            peaks.append(np.argmax(st.h.sum(axis=1)))
        # velocity 2 for time 16 * dx/2 moves the bump 16 cells forward
        assert (peaks[-1] - peaks[0]) % grid.Nx == pytest.approx(16, abs=2)

    @pytest.mark.parametrize("order2", [False, True])
    @pytest.mark.parametrize("model", [CLASSICAL, RELATIVISTIC, WIGGLE],
                             ids=["classical", "relativistic", "wiggle"])
    def test_matches_reference_step(self, model, order2):
        grid = sv.build_grid(model, 24, 40, 6.0)
        rng = np.random.default_rng(3)
        dt = 0.8 * sv.cfl_limit(model, grid, order2)
        h = rng.uniform(0.1, 2.0, (grid.Nx, grid.Np))
        st = sv.State(h=h, t=0.0)
        for _ in range(3):
            want = step_reference(st.h, dt, model, grid, order2)
            st = sv.step(st, dt, model, grid, order2=order2)
            np.testing.assert_allclose(st.h, want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("order2", [False, True])
    @pytest.mark.parametrize("model, Nx, Np", [
        (CLASSICAL, 128, 256), (WIGGLE, 24, 40), (WIGGLE, 24, 101),
        (RELATIVISTIC_10, 60, 101),
    ], ids=["classical", "wiggle40", "wiggle101", "relativistic10"])
    def test_transport_bit_for_bit_the_column_runs(self, model, Nx, Np, order2):
        # Zeros make the limiter's slopes and the faces signed zeros;
        # the int64 views tell -0.0 from 0.0.
        grid = sv.build_grid(model, Nx, Np, 6.0)
        dt = sv.cfl_limit(model, grid, order2)
        st, ref = (sv._Strang(model, grid, dt, order2) for _ in range(2))
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
        mid = sv.step(st, 1e-3, CLASSICAL, grid, order2=order2)
        mid_h = mid.h.copy()
        plus = sv.step(mid, 1e-3, CLASSICAL, grid, order2=order2)
        np.testing.assert_array_equal(st.h, h)
        np.testing.assert_array_equal(mid.h, mid_h)
        for a, b in ((st.h, mid.h), (mid.h, plus.h), (st.h, plus.h)):
            assert not np.shares_memory(a, b)

    @pytest.mark.parametrize("order2", [False, True])
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
                st = sv.step(st, dt, CLASSICAL, grid, order2=order2)
                assert np.min(st.h) >= 0.0
            assert abs(sv._mass(st.h, grid) - m0) <= 1e-13 * m0


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
        # arrays.  Np = 101 leaves the rows of those arrays off the
        # 64-byte lines, zero entries take the phi = 1 branch, and a
        # view of a wider array is neither contiguous nor aligned.
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
        # the slice forms that functionals and the diagnostics share
        h = np.random.default_rng(37).uniform(0.1, 2.0, (12, 21))
        np.testing.assert_array_equal(
            sv._ddx(h, 0.1), (np.roll(h, -1, axis=0) - np.roll(h, 1, axis=0)) / 0.2)
        np.testing.assert_array_equal(
            sv._ddp(h, 0.3), np.gradient(h, 0.3, axis=1, edge_order=2))


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
        st = grid._cache[("strang", CLASSICAL, True)]
        lu = sv._op(CLASSICAL, grid)._lu
        arrays = {"ghost": st.ghost, "h": st.h, "flux": st.flux,
                  "face": st.flux[1:], "jump": st.jump, "slope": st.slope,
                  "hs": st.hs, "nu": st.nu, "_BlockLU._z": lu._z,
                  "_BlockLU._edge": lu._edge}
        for k, a in enumerate(sv._sample(CLASSICAL, grid).work):
            arrays[f"sample work {k}"] = a
        assert {name: a.ctypes.data % 64 for name, a in arrays.items()} == (
            dict.fromkeys(arrays, 0))
        assert st.nu.shape == st.h.shape
        np.testing.assert_array_equal(st.nu, np.broadcast_to(st.nu[0], st.nu.shape))

    def test_step_allocates_no_iterator_buffers(self):
        # Every pass of a MUSCL step runs on whole arrays or copies
        # column runs, so none goes through numpy's buffered iterator,
        # whose buffers take 64 KB or more.
        grid = sv.build_grid(CLASSICAL, 128, 256, 8.0)
        st = sv._strang(CLASSICAL, grid, sv.cfl_limit(CLASSICAL, grid, True), True)
        op = sv._op(CLASSICAL, grid)
        st.h[...] = smooth_state(CLASSICAL, grid).h
        st.advance(op, st.h)  # factors the diffusion solve
        tracemalloc.start()
        try:
            st.advance(op, st.h)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4096

    def test_functionals_allocates_less_than_one_grid_array(self):
        grid = sv.build_grid(CLASSICAL, 128, 256, 8.0)
        st = smooth_state(CLASSICAL, grid)
        sv.functionals(st, CLASSICAL, grid)  # builds the work arrays
        tracemalloc.start()
        try:
            sv.functionals(st, CLASSICAL, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < grid.Nx * grid.Np * 8


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
        grid = sv.build_grid(model, 16, 48, 6.0)
        datum = "1 + 0.5*x*(1-x) + exp(-p^2)"
        series = sv.run(model, grid, datum, tmax=0.2, sample_dt=0.05,
                        order2=order2)
        n_sub, dt = sv.sub_steps(model, grid, 0.05, None, order2)
        assert n_sub > 1
        state = sv.initial_state(model, grid, datum)
        rows = [sv.functionals(state, model, grid)]
        for _ in range(4):
            for _ in range(n_sub):
                state = sv.step(state, dt, model, grid, order2=order2)
            rows.append(sv.functionals(state, model, grid))
        for key, name in sv._SAMPLED:
            want = np.array([row[key] for row in rows])
            assert getattr(series, name).tobytes() == want.tobytes(), name

    def test_equilibrium_datum_flat(self):
        grid = sv.build_grid(CLASSICAL, 16, 48, 6.0)
        series = sv.run(CLASSICAL, grid, "3", tmax=0.5, sample_dt=0.05)
        assert np.max(series.D) < 1e-14
        assert np.max(series.l1_dist) < 1e-12
        assert np.max(np.abs(series.mass - 1.0)) < 1e-12

    def test_l1_contraction_pairs(self):
        grid = sv.build_grid(CLASSICAL, 24, 48, 6.0)
        rng = np.random.default_rng(31)
        w = grid.mu_weights * grid.dx
        for _ in range(3):
            a, b = rng.uniform(0.1, 0.5, 2)
            s1 = smooth_state(CLASSICAL, grid, amp_x=a)
            s2 = smooth_state(CLASSICAL, grid, amp_p=b)
            dist = [float(np.sum(np.abs(s1.h - s2.h) * w))]
            for _ in range(20):
                s1 = sv.step(s1, 1e-3, CLASSICAL, grid)
                s2 = sv.step(s2, 1e-3, CLASSICAL, grid)
                dist.append(float(np.sum(np.abs(s1.h - s2.h) * w)))
            assert np.all(np.diff(dist) <= 1e-10)

    def test_sampling_layout(self):
        grid = sv.build_grid(CLASSICAL, 16, 48, 6.0)
        series = sv.run(CLASSICAL, grid, "2", tmax=1.0, sample_dt=0.25)
        assert len(series) == 5
        np.testing.assert_allclose(np.diff(series.times), 0.25, rtol=1e-12)

    def test_chosen_dt_stays_inside_the_limit(self):
        # sample_dt / (0.9 limit) = 1.44 rounds to one sub-step, which
        # alone would step past the limit.
        grid = sv.build_grid(CLASSICAL, 16, 48, 6.0)
        limit = sv.cfl_limit(CLASSICAL, grid)
        series = sv.run(CLASSICAL, grid, "2", tmax=2.6 * limit,
                        sample_dt=1.3 * limit)
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
            sv.run(CLASSICAL, grid, "2", tmax=1.0, sample_dt=0.5, dt=0.5)

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
