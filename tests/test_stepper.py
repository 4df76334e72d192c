"""Newton solver, single-step advance, and the two energies."""

import math

import numpy as np
import pytest

from acbdf2 import stepper
from acbdf2.experiments import MMS_EPS2, four_bubble_init, random_mesh
from acbdf2.kernels import apply_bdf2, step_kernels
from acbdf2.spatial import Grid2D, laplacian_apply, max_norm
from acbdf2.stepper import (
    NewtonConfig,
    NewtonDiverged,
    SolvabilityViolated,
    StepperState,
    _jacobi_pcg,
    _pcg,
    bdf2_step,
    energy,
    modified_energy,
    nonlinear_solve,
    spectral_pays,
    spectral_preconditioner,
)

from conftest import dense_laplacian, peak_fields


def residual_of(u, const, b0, grid, eps):
    """Plain-form residual; accuracy suffices for coarse grids."""
    return b0 * u + u**3 - u - eps * eps * laplacian_apply(u, grid.h) - const


class TestJacobian:
    """``_pcg`` inverts the derivative of the step residual.

    ``b = J v`` is built independently of the package's operator, and CG
    on the reaction coefficient ``b0 - 1 + 3 u^2`` the Newton sweep passes
    must give ``v`` back.
    """

    @staticmethod
    def invert(u, b, b0, grid, eps):
        react = b0 - 1.0 + 3.0 * u * u
        diag = react + 4.0 * eps * eps / (grid.h * grid.h)

        def jacobi(r, out):
            np.divide(r, diag, out=out)

        return _pcg(
            react, eps * eps, grid, b, jacobi, 1e-14, 500,
            out=np.empty_like(b), atol=0.0,
        )

    def test_matches_dense_matrix(self, rng):
        M, b0, eps = 8, 2.5, 0.3
        grid = Grid2D(M=M, L=1.0)
        u = rng.standard_normal((M, M))
        v = rng.standard_normal((M, M))
        J = np.diag((b0 - 1.0 + 3.0 * u.ravel() ** 2)) - eps * eps * dense_laplacian(
            M, grid.h
        )
        b = (J @ v.ravel()).reshape(M, M)
        np.testing.assert_allclose(
            self.invert(u, b, b0, grid, eps), v, rtol=0.0, atol=1e-12
        )

    def test_matches_finite_differences(self, rng):
        grid = Grid2D(M=16, L=1.0)
        u = 0.5 * rng.standard_normal((16, 16))
        v = rng.standard_normal((16, 16))
        const = np.zeros_like(u)
        b0, eps, delta = 3.0, 0.1, 1e-6
        fd = (
            residual_of(u + delta * v, const, b0, grid, eps)
            - residual_of(u - delta * v, const, b0, grid, eps)
        ) / (2.0 * delta)
        # rounding in the difference quotient (~3e-9) sets the bound
        np.testing.assert_allclose(
            self.invert(u, fd, b0, grid, eps), v, rtol=0.0, atol=1e-8
        )


class TestSpectralPreconditioner:
    @pytest.mark.parametrize("M", [16, 15])
    def test_inverts_the_stencil_operator(self, rng, M):
        # the FFT symbol must be the 5-point stencil's, odd M included
        grid = Grid2D(M=M, L=1.0)
        c, e2 = 3.5, 0.02
        v = rng.standard_normal((M, M))
        applied = c * v - e2 * laplacian_apply(v, grid.h)
        out = np.empty_like(v)
        precond = spectral_preconditioner(grid, c, e2)
        precond(applied, out)
        np.testing.assert_allclose(out, v, rtol=0.0, atol=1e-12)

    def test_pcg_matches_a_dense_solve(self, rng):
        # variable reaction coefficient, diffusion-dominated as in MMS runs
        M, e2 = 8, 0.05
        grid = Grid2D(M=M, L=1.0)
        u = rng.uniform(-1.0, 1.0, (M, M))
        react = 19.0 + 3.0 * u * u
        b = rng.standard_normal((M, M))
        A = np.diag(react.ravel()) - e2 * dense_laplacian(M, grid.h)
        expect = np.linalg.solve(A, b.ravel()).reshape(M, M)
        # c = b0 - 1, the low end of the reaction range, as in nonlinear_solve
        precond = spectral_preconditioner(grid, 19.0, e2)
        got = _pcg(
            react, e2, grid, b, precond, 1e-14, 100, out=np.empty_like(b), atol=0.0
        )
        np.testing.assert_allclose(got, expect, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("b0", [1.5 / 1e-3, 1.0 / 0.1, 1.5 / 0.1])
    def test_rule_keeps_jacobi_on_the_bubble_runs(self, b0):
        h = Grid2D(M=128, L=2.0).h
        for hi in (b0 - 1.0, b0 + 2.0):  # reaction range for |u| <= 1
            assert not spectral_pays(hi, 0.02**2, h)

    def test_rule_picks_spectral_on_the_mms_run(self):
        h, b0 = Grid2D(M=256, L=1.0).h, 1.0 / 0.05
        for hi in (b0 - 1.0, b0 + 2.0):
            assert spectral_pays(hi, MMS_EPS2, h)

    def test_a_solve_builds_its_symbol_once(self, monkeypatch, rng):
        # the symbol depends on b0 alone, so every sweep of a solve shares it
        builds = []
        build = stepper.spectral_preconditioner

        def counted(*args):
            builds.append(args)
            return build(*args)

        monkeypatch.setattr(stepper, "spectral_preconditioner", counted)
        grid, b0, eps = Grid2D(M=64, L=1.0), 20.0, math.sqrt(MMS_EPS2)
        anchor = rng.uniform(-1.0, 1.0, (64, 64))
        const = rng.uniform(-1.0, 1.0, (64, 64))
        _, sweeps = nonlinear_solve(
            anchor, const, b0, grid, eps, NewtonConfig(),
            anchor=anchor, anchor_lap=laplacian_apply(anchor, grid.h),
        )
        assert sweeps >= 3
        assert builds == [(grid, b0 - 1.0, eps * eps)]


class TestNonlinearSolve:
    CFG = NewtonConfig()

    def test_equilibrium_costs_one_sweep(self):
        grid = Grid2D(M=16, L=1.0)
        b0 = 2.0
        ones = np.ones((16, 16))
        zero = np.zeros_like(ones)
        u, sweeps = nonlinear_solve(
            ones, b0 * ones, b0, grid, 0.05, self.CFG, anchor=zero, anchor_lap=zero
        )
        np.testing.assert_array_equal(u, ones)
        assert sweeps == 1

    def test_constant_cubic_root(self):
        # b0 u + u^3 - u = 9/8 at b0 = 3 has the exact root 1/2
        grid = Grid2D(M=8, L=1.0)
        const = np.full((8, 8), 1.125)
        u0 = np.zeros((8, 8))
        zero = np.zeros_like(u0)
        u, _ = nonlinear_solve(
            u0, const, 3.0, grid, 0.05, self.CFG, anchor=zero, anchor_lap=zero
        )
        np.testing.assert_allclose(u, 0.5, rtol=0.0, atol=1e-12)

    def test_zero_is_the_only_root_without_forcing(self):
        grid = Grid2D(M=8, L=1.0)
        u0 = np.full((8, 8), 0.3)
        zero = np.zeros_like(u0)
        u, _ = nonlinear_solve(
            u0, zero, 4.0, grid, 0.05, self.CFG, anchor=zero, anchor_lap=zero
        )
        np.testing.assert_allclose(u, 0.0, rtol=0.0, atol=1e-12)

    def test_residual_below_tolerance_on_rough_data(self, rng):
        grid = Grid2D(M=32, L=1.0)
        const = rng.standard_normal((32, 32))
        u0 = rng.uniform(-1.0, 1.0, (32, 32))
        zero = np.zeros_like(u0)
        u, _ = nonlinear_solve(
            u0, const, 5.0, grid, 0.1, self.CFG, anchor=zero, anchor_lap=zero
        )
        assert max_norm(residual_of(u, const, 5.0, grid, 0.1)) <= 1e-11

    def test_anchor_shifts_the_constant(self, rng):
        # b0 (u - a) + f(u) - e2 Lap u = c  <=>  plain form with c + b0 a
        grid = Grid2D(M=16, L=1.0)
        anchor = 0.5 * np.cos(2.0 * math.pi * grid.meshgrid()[0])
        const = 0.3 * np.sin(2.0 * math.pi * grid.meshgrid()[1])
        b0, eps = 4.0, 0.1
        ua, _ = nonlinear_solve(
            anchor.copy(), const, b0, grid, eps, self.CFG,
            anchor=anchor, anchor_lap=laplacian_apply(anchor, grid.h),
        )
        zero = np.zeros_like(anchor)
        up, _ = nonlinear_solve(
            anchor.copy(), const + b0 * anchor, b0, grid, eps, self.CFG,
            anchor=zero, anchor_lap=zero,
        )
        np.testing.assert_allclose(ua, up, rtol=0.0, atol=1e-10)

    def test_anchored_solve_survives_huge_b0(self):
        # tau ~ 6e-5 means b0 ~ 1.6e4: one ulp of u moves b0 u by more than
        # the tolerance, so only the increment form can meet it
        grid = Grid2D(M=32, L=1.0)
        X, Y = grid.meshgrid()
        anchor = 0.7 * np.sin(2.0 * math.pi * X) * np.sin(2.0 * math.pi * Y)
        const = 0.4 * np.cos(2.0 * math.pi * Y)
        u, sweeps = nonlinear_solve(
            anchor.copy(), const, 1.6e4, grid, 0.05, self.CFG,
            anchor=anchor, anchor_lap=laplacian_apply(anchor, grid.h),
        )
        assert sweeps <= 6
        assert max_norm(u - anchor) < 1e-3  # short step, small move

    def test_config_rejects_a_zero_sweep_cap(self):
        with pytest.raises(ValueError, match="max_iter"):
            NewtonConfig(max_iter=0)

    @pytest.mark.parametrize("where", ["start", "constant"])
    def test_non_finite_residual_raises_before_any_linear_solve(self, monkeypatch, where):
        # CG cannot mend a NaN field: it would only run to its iteration cap
        def no_cg(*args, **kwargs):
            raise AssertionError("CG ran on a non-finite residual")

        monkeypatch.setattr(stepper, "_pcg", no_cg)
        grid = Grid2D(M=8, L=1.0)
        zero = np.zeros((8, 8))
        u0, const = np.full((8, 8), 0.3), np.full((8, 8), 1.125)
        (u0 if where == "start" else const)[2, 5] = np.nan
        with pytest.raises(NewtonDiverged, match="non-finite residual"):
            nonlinear_solve(
                u0, const, 3.0, grid, 0.05, self.CFG, anchor=zero, anchor_lap=zero
            )

    def test_raises_after_max_iter(self):
        grid = Grid2D(M=8, L=1.0)
        cfg = NewtonConfig(max_iter=1)
        zero = np.zeros((8, 8))
        with pytest.raises(NewtonDiverged, match="1 Newton sweeps"):
            nonlinear_solve(
                zero, np.full((8, 8), 1.125), 3.0, grid, 0.05, cfg,
                anchor=zero, anchor_lap=zero,
            )


class TestNewtonStops:
    """Each CG call stops at ``newton.tol / 2``, and the finishing rule
    (:func:`acbdf2.stepper.finishes`) ends the iteration one sweep later."""

    E2 = 0.01

    def system(self, rng):
        grid = Grid2D(M=16, L=1.0)
        u = rng.uniform(-1.0, 1.0, (16, 16))
        react = 2.0 + 3.0 * u * u
        diag = react + 4.0 * self.E2 / grid.h**2

        def jacobi(r, out):
            np.divide(r, diag, out=out)

        return grid, react, jacobi, rng.standard_normal((16, 16))

    @staticmethod
    def iterations(solve):
        """The fewest CG iterations with which ``solve(max_iter)`` returns."""
        for n in range(1, 200):
            try:
                return n, solve(n)
            except NewtonDiverged:
                pass
        raise AssertionError("CG did not converge")

    def test_pcg_returns_at_the_absolute_stop(self, rng):
        grid, react, jacobi, b = self.system(rng)
        e2, atol = self.E2, 1e-6
        n, x = self.iterations(
            lambda k: _pcg(
                react, e2, grid, b, jacobi, 1e-14, k, out=np.empty_like(b), atol=atol
            )
        )
        # the relative stop alone needs more iterations
        with pytest.raises(NewtonDiverged):
            _pcg(
                react, e2, grid, b, jacobi, 1e-14, n, out=np.empty_like(b), atol=0.0
            )
        true_res = b - (react * x - e2 * laplacian_apply(x, grid.h))
        assert max_norm(true_res) <= 1.001 * atol
        assert np.sqrt(np.sum(true_res**2)) <= 1.001 * atol

    def test_pcg_needs_no_iteration_below_the_absolute_stop(self, rng):
        grid, react, jacobi, b = self.system(rng)
        b *= 1e-9 / np.sqrt(np.sum(b * b))
        x = _pcg(
            react, self.E2, grid, b, jacobi, 1e-14, 1, out=np.empty_like(b), atol=1e-9
        )
        np.testing.assert_array_equal(x, 0.0)

    def test_every_cg_call_stops_at_half_the_tolerance(self, monkeypatch, rng):
        stops = []
        pcg = stepper._pcg

        def recorded(*args, **kwargs):
            stops.append(kwargs["atol"])
            return pcg(*args, **kwargs)

        monkeypatch.setattr(stepper, "_pcg", recorded)
        cfg = NewtonConfig(tol=1e-9)
        anchor = rng.uniform(-1.0, 1.0, (16, 16))
        grid = Grid2D(M=16, L=1.0)
        nonlinear_solve(
            anchor, np.ones_like(anchor), 3.0, grid, 0.05, cfg,
            anchor=anchor, anchor_lap=laplacian_apply(anchor, grid.h),
        )
        assert stops and set(stops) == {0.5 * cfg.tol}

    def test_uniform_march_takes_two_sweeps(self, monkeypatch):
        # four bubbles at tau = 1e-3: the finishing rule fires on the first
        # sweep of every two-step level, so the second sweep returns the
        # root without evaluating its residual
        laps = {"outside_cg": 0}
        in_cg = []
        lap, pcg = stepper.laplacian_apply, stepper._pcg

        def counted_lap(*args, **kwargs):
            if not in_cg:
                laps["outside_cg"] += 1
            return lap(*args, **kwargs)

        def marked_pcg(*args, **kwargs):
            in_cg.append(True)
            try:
                return pcg(*args, **kwargs)
            finally:
                in_cg.pop()

        monkeypatch.setattr(stepper, "laplacian_apply", counted_lap)
        monkeypatch.setattr(stepper, "_pcg", marked_pcg)
        grid, eps, tau = Grid2D(M=32, L=2.0, origin=-1.0), 0.02, 1e-3
        cfg, tight = NewtonConfig(), NewtonConfig(tol=1e-14)
        state = StepperState(u_prev=four_bubble_init(grid, eps), u_prev2=None, n=0, t=0.0)
        for _ in range(20):
            anchor_lap = laplacian_apply(state.u_prev, grid.h)
            laps["outside_cg"] = 0
            u, sweeps = bdf2_step(state, tau, grid, eps, None, cfg, anchor_lap=anchor_lap)
            if state.u_prev2 is not None:
                assert sweeps == 2
                # the first sweep's residual; the base reuses anchor_lap
                assert laps["outside_cg"] == 1
            ref, _ = bdf2_step(state, tau, grid, eps, None, tight, anchor_lap=anchor_lap)
            assert max_norm(u - ref) <= 10.0 * cfg.tol
            state = state.after(u, tau)

    @pytest.mark.parametrize(
        "cfg",
        [NewtonConfig(), NewtonConfig(tol=1e-10)],
        ids=["default", "loose"],
    )
    def test_rule_firing_means_the_next_sweep_converges(self, monkeypatch, cfg):
        verdicts = []
        rule = stepper.finishes

        def recorded(*args):
            verdicts.append(rule(*args))
            return verdicts[-1]

        monkeypatch.setattr(stepper, "finishes", recorded)
        fired = 0
        for seed in range(60):
            rng = np.random.default_rng(seed)
            M = int(rng.integers(8, 33))
            b0 = 1.0 + 10.0 ** rng.uniform(-1.0, 4.0)
            eps = rng.uniform(0.005, 0.1)
            grid = Grid2D(M=M, L=1.0)
            anchor = rng.uniform(-1.0, 1.0, (M, M))
            anchor_lap = laplacian_apply(anchor, grid.h)
            const = rng.uniform(-1.0, 1.0, (M, M))
            verdicts.clear()
            u, sweeps = nonlinear_solve(
                anchor, const, b0, grid, eps, cfg, anchor=anchor, anchor_lap=anchor_lap
            )
            # one verdict per sweep that missed the tolerance
            assert len(verdicts) == sweeps - 1
            if any(verdicts):
                fired += 1
                assert verdicts.index(True) == sweeps - 2
                # the solve returned on the bound without testing the
                # residual; the root it returned must pass that test
                verdicts.clear()
                _, again = nonlinear_solve(
                    u, const, b0, grid, eps, cfg, anchor=anchor, anchor_lap=anchor_lap
                )
                assert again == 1, (seed, b0)
        assert fired >= 40


class TestRedBlack:
    """On even grids the Jacobi solve runs CG on the red points only.

    ``_jacobi_pcg`` eliminates the black points, solves the reduced system
    through ``_pcg`` and back-substitutes; the result must solve the full
    system, which is assembled here independently of the package.
    """

    C = 1.0  # diffusion number e2 / h^2; the reaction term dominates

    def system(self, rng, M):
        grid = Grid2D(M=M, L=1.0)
        e2 = self.C * grid.h**2
        react = 1.0 + 3.0 * rng.uniform(-1.0, 1.0, (M, M)) ** 2
        A = np.diag(react.ravel()) - e2 * dense_laplacian(M, grid.h)
        return grid, e2, react, A, rng.standard_normal((M, M))

    @pytest.mark.parametrize("M", [2, 4, 6, 8])
    def test_matches_a_dense_solve(self, rng, M):
        grid, e2, react, A, b = self.system(rng, M)
        expect = np.linalg.solve(A, b.ravel()).reshape(M, M)
        got = _jacobi_pcg(
            react, e2, grid, b, 1e-14, 100, out=np.empty_like(b), atol=0.0
        )
        np.testing.assert_allclose(got, expect, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("M", [2, 4, 6, 8])
    def test_returns_at_the_absolute_stop(self, rng, M):
        grid, e2, react, A, b = self.system(rng, M)
        atol = 1e-6
        n, x = TestNewtonStops.iterations(
            lambda k: _jacobi_pcg(
                react, e2, grid, b, 1e-14, k, out=np.empty_like(b), atol=atol
            )
        )
        if n < M * M // 2:  # CG has not yet run out of red unknowns
            with pytest.raises(NewtonDiverged):
                _jacobi_pcg(
                    react, e2, grid, b, 1e-14, n, out=np.empty_like(b), atol=0.0
                )
        # the full system's residual, black rows included
        true_res = b.ravel() - A @ x.ravel()
        assert np.sqrt(np.sum(true_res**2)) <= 1.001 * atol

    @pytest.mark.parametrize("M", [16, 15])
    def test_only_odd_grids_run_cg_on_the_whole_field(self, monkeypatch, rng, M):
        shapes = []
        pcg = stepper._pcg

        def recorded(react, e2, grid, b, *args, **kwargs):
            shapes.append(b.shape)
            return pcg(react, e2, grid, b, *args, **kwargs)

        monkeypatch.setattr(stepper, "_pcg", recorded)
        grid = Grid2D(M=M, L=1.0)
        anchor = rng.uniform(-1.0, 1.0, (M, M))
        nonlinear_solve(
            anchor, np.ones_like(anchor), 3.0, grid, 0.05, NewtonConfig(),
            anchor=anchor, anchor_lap=laplacian_apply(anchor, grid.h),
        )
        reduced = (2, M // 2, M // 2) if M % 2 == 0 else (M, M)
        assert shapes and set(shapes) == {reduced}


class TestBdf2Step:
    GRID = Grid2D(M=16, L=1.0)
    EPS = 0.1
    CFG = NewtonConfig()

    def first_state(self, u0):
        return StepperState(u_prev=u0, u_prev2=None, n=0, t=0.0)

    def step(self, state, tau, source_at=None, cfg=CFG, **kwargs):
        return bdf2_step(
            state, tau, self.GRID, self.EPS, source_at, cfg,
            anchor_lap=laplacian_apply(state.u_prev, self.GRID.h), **kwargs,
        )

    def test_first_step_is_backward_euler(self, rng):
        u0 = 0.5 * rng.uniform(-1.0, 1.0, (16, 16))
        tau = 0.05
        u, _ = self.step(self.first_state(u0), tau)
        back_diff = (u - u0) / tau
        rhs = self.EPS**2 * laplacian_apply(u, self.GRID.h) - (u**3 - u)
        np.testing.assert_allclose(back_diff, rhs, rtol=0.0, atol=1e-10)

    def test_two_step_residual(self, rng):
        u_prev2 = 0.4 * rng.uniform(-1.0, 1.0, (16, 16))
        u_prev = 0.4 * rng.uniform(-1.0, 1.0, (16, 16))
        state = StepperState(u_prev=u_prev, u_prev2=u_prev2, n=2, t=0.2, tau_prev=0.1)
        tau = 0.12
        u, _ = self.step(state, tau)
        k = step_kernels(tau, tau / 0.1)
        lhs = apply_bdf2(u, u_prev, u_prev2, k)
        rhs = self.EPS**2 * laplacian_apply(u, self.GRID.h) - (u**3 - u)
        np.testing.assert_allclose(lhs, rhs, rtol=0.0, atol=1e-9)

    def test_source_term_enters_at_the_new_time(self, rng):
        u0 = np.zeros((16, 16))
        seen = []

        def source_at(t):
            seen.append(t)
            return np.full((16, 16), 0.01)

        self.step(self.first_state(u0), 0.25, source_at)
        assert seen == [0.25]

    def test_historyless_state_takes_the_one_step_weights(self, rng):
        # past the first level, no u_prev2: the backward-Euler solve that
        # the adaptive estimate stands in for
        u_prev = 0.3 * rng.uniform(-1.0, 1.0, (16, 16))
        state = StepperState(u_prev=u_prev, u_prev2=None, n=2, t=0.2, tau_prev=0.1)
        tau = 0.1
        u, _ = self.step(state, tau)
        back_diff = (u - u_prev) / tau  # one-step form despite tau_prev
        rhs = self.EPS**2 * laplacian_apply(u, self.GRID.h) - (u**3 - u)
        np.testing.assert_allclose(back_diff, rhs, rtol=0.0, atol=1e-10)

    def test_state_is_not_mutated(self, rng):
        u0 = 0.5 * rng.uniform(-1.0, 1.0, (16, 16))
        copy = u0.copy()
        state = self.first_state(u0)
        self.step(state, 0.05)
        np.testing.assert_array_equal(state.u_prev, copy)

    def test_history_is_not_mutated(self, rng):
        # the extrapolated start must be built in a fresh array
        u_prev2 = 0.5 * rng.uniform(-1.0, 1.0, (16, 16))
        u_prev = 0.5 * rng.uniform(-1.0, 1.0, (16, 16))
        copies = u_prev.copy(), u_prev2.copy()
        state = StepperState(u_prev=u_prev, u_prev2=u_prev2, n=2, t=0.1, tau_prev=0.05)
        self.step(state, 0.05)
        np.testing.assert_array_equal(state.u_prev, copies[0])
        np.testing.assert_array_equal(state.u_prev2, copies[1])

    def test_solvability_guard(self):
        u0 = np.zeros((16, 16))
        with pytest.raises(SolvabilityViolated):
            self.step(self.first_state(u0), 1.0)  # bound 1
        state = StepperState(u_prev=u0, u_prev2=u0, n=2, t=0.0, tau_prev=1.5)
        with pytest.raises(SolvabilityViolated):
            self.step(state, 1.5)  # ratio 1, bound 3/2

    def test_solver_failure_propagates(self):
        cfg = NewtonConfig(max_iter=1)
        u0 = np.full((16, 16), 0.9)
        with pytest.raises(NewtonDiverged):
            self.step(self.first_state(u0), 0.9, cfg=cfg)


class TestExtrapolatedStart:
    """Newton starts from the levels so far, extrapolated to the new time.

    With three levels the start is the quadratic through them, with two the
    line ``u^n + r (u^n - u^{n-1})``.  The reference march below is the
    start from the previous level, written out with :func:`nonlinear_solve`.  Both starts solve the same system to
    the same residual tolerance, so their roots may differ by about
    ``newton.tol`` per level; :data:`ROOT_BOUND` allows ten times that.
    """

    GRID = Grid2D(M=32, L=2.0, origin=-1.0)
    EPS = 0.02
    CFG = NewtonConfig()
    ROOT_BOUND = 10.0 * CFG.tol

    def reference_march(self, mesh, u0):
        u_prev, u_prev2, tau_prev = u0, None, 0.0
        levels = []
        for tau in mesh.steps:
            k = step_kernels(tau, 0.0 if u_prev2 is None else tau / tau_prev)
            const = np.zeros_like(u_prev)
            if u_prev2 is not None:
                const -= k.b1 * (u_prev - u_prev2)
            u, sweeps = nonlinear_solve(
                u_prev, const, k.b0, self.GRID, self.EPS, self.CFG,
                anchor=u_prev, anchor_lap=laplacian_apply(u_prev, self.GRID.h),
            )
            levels.append((u, sweeps))
            u_prev, u_prev2, tau_prev = u, u_prev, tau
        return levels

    def march(self, mesh, u0):
        state = StepperState(u_prev=u0, u_prev2=None, n=0, t=0.0)
        levels = []
        for tau in mesh.steps:
            u, sweeps = bdf2_step(
                state, tau, self.GRID, self.EPS, None, self.CFG,
                anchor_lap=laplacian_apply(state.u_prev, self.GRID.h),
            )
            levels.append((u, sweeps))
            state = state.after(u, tau)
        return levels

    def compare(self, mesh):
        u0 = four_bubble_init(self.GRID, self.EPS)
        ref = self.reference_march(mesh, u0)
        got = self.march(mesh, u0)
        for (u_ref, _), (u, _) in zip(ref, got):
            assert max_norm(u - u_ref) <= self.ROOT_BOUND
        return sum(s for _, s in ref), sum(s for _, s in got)

    def test_constant_history_starts_from_the_previous_level(self, rng):
        u = rng.uniform(-1.0, 1.0, (32, 32))
        state = StepperState(
            u_prev=u, u_prev2=u.copy(), n=3, t=0.3, tau_prev=0.1,
            u_prev3=u.copy(), tau_prev2=0.07,
        )
        tau = 0.05
        anchor_lap = laplacian_apply(u, self.GRID.h)
        got, got_sweeps = bdf2_step(
            state, tau, self.GRID, self.EPS, None, self.CFG, anchor_lap=anchor_lap
        )
        k = step_kernels(tau, tau / 0.1)
        want, want_sweeps = nonlinear_solve(
            u, np.zeros_like(u), k.b0, self.GRID, self.EPS, self.CFG,
            anchor=u, anchor_lap=anchor_lap,
        )
        np.testing.assert_array_equal(got, want)
        assert got_sweeps == want_sweeps

    @pytest.mark.parametrize("levels", [2, 3])
    def test_start_is_exact_on_data_polynomial_in_t(self, monkeypatch, rng, levels):
        # variable steps; three levels fit a quadratic in t, two a line
        a, b, c = (rng.uniform(-1.0, 1.0, (32, 32)) for _ in range(3))
        if levels == 2:
            c = np.zeros_like(c)

        def at(t):
            return a + b * t + c * t * t

        t, tau_n1, tau_n, tau = 1.0, 0.03, 0.05, 0.08
        state = StepperState(
            u_prev=at(t), u_prev2=at(t - tau_n), n=3, t=t, tau_prev=tau_n,
            u_prev3=at(t - tau_n - tau_n1) if levels == 3 else None, tau_prev2=tau_n1,
        )
        starts = []
        solve = stepper.nonlinear_solve

        def recorded(u0, *args, **kwargs):
            starts.append(u0.copy())
            return solve(u0, *args, **kwargs)

        monkeypatch.setattr(stepper, "nonlinear_solve", recorded)
        bdf2_step(
            state, tau, self.GRID, self.EPS, None, self.CFG,
            anchor_lap=laplacian_apply(state.u_prev, self.GRID.h),
        )
        np.testing.assert_allclose(starts[0], at(t + tau), rtol=0.0, atol=1e-13)

    def test_random_mesh_march_saves_sweeps(self):
        ref_sweeps, sweeps = self.compare(random_mesh(20, 1.0, 3))
        assert sweeps < ref_sweeps

    def test_converges_past_a_step_ratio_of_100(self):
        mesh = random_mesh(40, 1.0, 1002)
        assert mesh.ratios.max() > 100.0
        self.compare(mesh)


class TestWorkspace:
    """Calls on a grid reuse its work fields and never hand one out."""

    GRID = Grid2D(M=64, L=2.0, origin=-1.0)
    EPS = 0.02
    TAU = 1e-3
    CFG = NewtonConfig()

    def step(self, state, anchor_lap):
        return bdf2_step(
            state, self.TAU, self.GRID, self.EPS, None, self.CFG, anchor_lap=anchor_lap
        )

    def two_step_state(self):
        u0 = four_bubble_init(self.GRID, self.EPS)
        first = StepperState(u_prev=u0, u_prev2=None, n=0, t=0.0)
        u1, _ = self.step(first, laplacian_apply(u0, self.GRID.h))
        return first.after(u1, self.TAU)

    def test_warm_two_step_allocates_only_its_root(self):
        state = self.two_step_state()
        anchor_lap = laplacian_apply(state.u_prev, self.GRID.h)
        fields = peak_fields(self.GRID, lambda: self.step(state, anchor_lap))
        assert fields < 1.5

    def test_warm_quadratic_start_allocates_only_its_root(self):
        # the quadratic start is formed in the workspace too
        state = self.two_step_state()
        u2, _ = self.step(state, laplacian_apply(state.u_prev, self.GRID.h))
        state = state.after(u2, self.TAU)
        assert state.u_prev3 is not None
        anchor_lap = laplacian_apply(state.u_prev, self.GRID.h)
        fields = peak_fields(self.GRID, lambda: self.step(state, anchor_lap))
        assert fields < 1.5

    def test_energies_allocate_no_field(self):
        state = self.two_step_state()
        lap = np.empty_like(state.u_prev)

        def both():
            energy(state.u_prev, self.GRID, self.EPS, lap)
            modified_energy(state.u_prev, state.u_prev2, self.TAU, 1.0, self.GRID, self.EPS)

        assert peak_fields(self.GRID, both) < 0.5

    @pytest.mark.parametrize("M", [128, 256])
    def test_fields_start_on_a_cache_line(self, M):
        # numpy's vector loops run slower over fields off a cache line
        ws = stepper.workspace(Grid2D(M=M, L=1.0))
        for name, field in vars(ws).items():
            assert field.ctypes.data % stepper.ALIGN == 0, name
            assert field.flags.c_contiguous, name

    def test_consecutive_roots_are_distinct(self):
        state = self.two_step_state()
        u2, _ = self.step(state, laplacian_apply(state.u_prev, self.GRID.h))
        kept = u2.copy()
        state = state.after(u2, self.TAU)
        u3, _ = self.step(state, laplacian_apply(u2, self.GRID.h))
        assert not np.shares_memory(u2, u3)
        np.testing.assert_array_equal(u2, kept)

    @pytest.mark.parametrize("eps", [0.1, 0.5], ids=["jacobi", "spectral"])
    def test_root_does_not_depend_on_earlier_solves(self, eps):
        # a work field some call reads before rewriting it, such as a CG
        # guess left unzeroed, would carry the earlier solves into this one
        grids = {M: Grid2D(M=M, L=1.0) for M in (16, 15)}
        tau = 0.1

        def solve(M):
            grid = grids[M]
            X, Y = grid.meshgrid()
            u_prev2 = 0.5 * np.sin(2.0 * math.pi * X) * np.cos(2.0 * math.pi * Y)
            state = StepperState(
                u_prev=1.1 * u_prev2, u_prev2=u_prev2, n=1, t=tau, tau_prev=tau
            )
            return bdf2_step(
                state, tau, grid, eps, None, NewtonConfig(),
                anchor_lap=laplacian_apply(state.u_prev, grid.h),
            )

        b0 = step_kernels(tau, 1.0).b0
        spectral = eps == 0.5
        assert spectral_pays(b0 + 2.0, eps * eps, grids[16].h) == spectral
        first, first_sweeps = solve(16)
        solve(15)
        again, again_sweeps = solve(16)
        np.testing.assert_array_equal(again, first)
        assert again_sweeps == first_sweeps


class TestEnergies:
    def test_well_value_of_the_zero_field(self):
        # (1/4) L^2 on the unit square
        grid = Grid2D(M=32, L=1.0)
        u = np.zeros((32, 32))
        assert energy(u, grid, 0.05, np.empty_like(u)) == pytest.approx(
            0.25, rel=1e-14
        )

    def test_pure_phases_carry_no_energy(self):
        grid = Grid2D(M=16, L=2.0)
        lap = np.empty((16, 16))
        assert energy(np.ones((16, 16)), grid, 0.1, lap) == 0.0
        assert energy(-np.ones((16, 16)), grid, 0.1, lap) == 0.0

    def test_nonnegative_on_random_fields(self, rng):
        grid = Grid2D(M=24, L=1.0)
        for _ in range(20):
            u = rng.uniform(-1.5, 1.5, (24, 24))
            assert energy(u, grid, 0.08, np.empty_like(u)) >= 0.0

    def test_matches_dense_quadratic_form(self, rng):
        M, eps = 8, 0.2
        grid = Grid2D(M=M, L=1.0)
        u = rng.standard_normal((M, M))
        A = dense_laplacian(M, grid.h)
        expect = grid.h**2 * (
            -0.5 * eps * eps * float(u.ravel() @ A @ u.ravel())
            + 0.25 * float(((1.0 - u * u) ** 2).sum())
        )
        assert energy(u, grid, eps, np.empty_like(u)) == pytest.approx(expect, rel=1e-12)

    def test_leaves_the_laplacian_in_its_field(self, rng):
        # the march keeps this field as the next solve's anchor_lap
        grid = Grid2D(M=16, L=1.0)
        u = rng.uniform(-1.0, 1.0, (16, 16))
        lap = np.empty_like(u)
        energy(u, grid, 0.05, lap)
        np.testing.assert_array_equal(lap, laplacian_apply(u, grid.h))

    def test_modified_energy_reduces_to_plain(self, rng):
        grid = Grid2D(M=16, L=1.0)
        u = rng.uniform(-1.0, 1.0, (16, 16))
        v = rng.uniform(-1.0, 1.0, (16, 16))
        assert modified_energy(u, v, 0.1, 0.0, grid, 0.05) == energy(
            u, grid, 0.05, np.empty_like(u)
        )

    def test_modified_energy_frozen_value(self):
        # pure phases, jump 1/2 over tau = 0.1 at next ratio 1:
        # 0 + (0.1/4) h^2 sum 5^2 = 0.625 on the unit square
        grid = Grid2D(M=8, L=1.0)
        u = np.ones((8, 8))
        v = np.full((8, 8), 0.5)
        got = modified_energy(u, v, 0.1, 1.0, grid, 0.05)
        assert got == pytest.approx(0.625, rel=1e-13)

    def test_modified_energy_never_below_plain(self, rng):
        grid = Grid2D(M=16, L=1.0)
        u = rng.uniform(-1.0, 1.0, (16, 16))
        v = rng.uniform(-1.0, 1.0, (16, 16))
        for r_next in (0.5, 1.0, 3.0):
            assert modified_energy(u, v, 0.2, r_next, grid, 0.05) >= energy(
                u, grid, 0.05, np.empty_like(u)
            )

