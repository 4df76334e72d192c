"""Error estimator and the accept/shrink/grow controller."""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from acbdf2 import adaptive
from acbdf2.adaptive import (
    AdaptiveConfig,
    TooManyRejects,
    ZeroReference,
    advance,
    comparison_start,
    comparison_tol,
    error_estimate,
    solution_norm,
    tau_ada,
)
from acbdf2.config import parse_config
from acbdf2.runner import run_simulation
from acbdf2.spatial import Grid2D, laplacian_apply, max_norm
from acbdf2.stepper import NewtonConfig, StepperState, bdf2_step
from acbdf2.time_mesh import RATIO_CEILING, S0_LIMIT

from conftest import peak_fields

NEWTON = NewtonConfig()


class TestErrorEstimate:
    def test_l2_is_scale_free(self):
        u2 = np.full((4, 4), 2.0)
        u1 = np.ones((4, 4))
        for h in (0.1, 0.25):
            scratch = np.empty((4, 4))
            ref = solution_norm(u2, h, "l2", scratch)
            e = error_estimate(u1, u2, ref, h, "l2", scratch)
            assert e == pytest.approx(0.5, rel=1e-15)

    def test_max_norm_variant(self):
        u2 = np.array([[4.0, 0.0], [0.0, 0.0]])
        u1 = np.array([[4.0, 1.0], [0.0, 0.0]])
        e = error_estimate(u1, u2, 4.0, 0.5, "max", np.empty((2, 2)))
        assert e == pytest.approx(0.25, rel=1e-15)

    def test_zero_reference_raises(self):
        with pytest.raises(ZeroReference):
            error_estimate(
                np.ones((2, 2)), np.zeros((2, 2)), 0.0, 0.5, "l2", np.empty((2, 2))
            )

    def test_unknown_norm_raises(self):
        with pytest.raises(ValueError):
            error_estimate(
                np.ones((2, 2)), np.ones((2, 2)), 1.0, 0.5, "l1", np.empty((2, 2))
            )


class TestTauAda:
    CFG = AdaptiveConfig(rho=0.6, tol=1e-4, tau_max=0.1, tau_min=1e-3)

    def test_formula_in_the_open_window(self):
        # rho sqrt(tol/e) tau with e = tol/4 doubles then scales by rho
        got = tau_ada(self.CFG.tol / 4.0, 0.01, self.CFG)
        assert got == pytest.approx(0.6 * 2.0 * 0.01, rel=1e-14)

    def test_zero_estimate_asks_for_the_cap(self):
        assert tau_ada(0.0, 0.01, self.CFG) == self.CFG.tau_max

    def test_clamps_to_the_window(self):
        assert tau_ada(1e3, 0.01, self.CFG) == self.CFG.tau_min
        assert tau_ada(1e-12, 0.01, self.CFG) == self.CFG.tau_max

    def test_negative_estimate_raises(self):
        with pytest.raises(ValueError):
            tau_ada(-1.0, 0.01, self.CFG)


class TestAdaptiveConfig:
    def test_defaults_are_valid(self):
        cfg = AdaptiveConfig()
        assert cfg.ratio_cap == RATIO_CEILING
        assert 0.0 < RATIO_CEILING < S0_LIMIT

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rho": 0.0},
            {"rho": 1.5},
            {"tol": 0.0},
            {"tau_min": 0.0},
            {"tau_min": 0.2, "tau_max": 0.1},
            {"ratio_cap": -1.0},
            {"max_rejects": 0},
            {"norm": "l1"},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            AdaptiveConfig(**kwargs)

    def test_cap_may_be_disabled(self):
        assert AdaptiveConfig(ratio_cap=None).ratio_cap is None


class TestAdvance:
    GRID = Grid2D(M=8, L=1.0)
    EPS = 0.05

    def march(self, u0, cfg, n_levels):
        """Minimal accept-fold loop around :func:`advance`."""
        state = StepperState(u_prev=u0, u_prev2=None, n=0, t=0.0)
        tau = cfg.tau_min
        taus, rejects = [], 0
        for _ in range(n_levels):
            res = advance(
                state, tau, self.GRID, self.EPS, cfg, NEWTON,
                anchor_lap=laplacian_apply(state.u_prev, self.GRID.h),
            )
            rejects += len(res.rejected)
            taus.append(res.record.tau)
            state = state.after(res.u, res.record.tau)
            tau = res.tau_next
        return state, taus, rejects

    def test_first_level_has_identical_candidates(self):
        cfg = AdaptiveConfig()
        state = StepperState(
            u_prev=np.full((8, 8), 0.9), u_prev2=None, n=0, t=0.0
        )
        res = advance(
            state, 1e-3, self.GRID, self.EPS, cfg, NEWTON,
            anchor_lap=laplacian_apply(state.u_prev, self.GRID.h),
        )
        rec = res.record
        assert rec.e_est == 0.0
        assert rec.accepted
        assert rec.ratio == 0.0
        assert rec.n == 1
        assert rec.t == pytest.approx(1e-3, rel=1e-15)
        assert math.isnan(rec.energy) and math.isnan(rec.modified_energy)
        assert res.rejected == []

    def test_growth_is_ratio_capped(self):
        cfg = AdaptiveConfig(ratio_cap=2.0, tol=1e-2)
        state = StepperState(
            u_prev=np.full((8, 8), 0.9), u_prev2=None, n=0, t=0.0
        )
        res = advance(
            state, 1e-3, self.GRID, self.EPS, cfg, NEWTON,
            anchor_lap=laplacian_apply(state.u_prev, self.GRID.h),
        )
        # e = 0 asks for tau_max; the cap cuts that to 2 tau
        assert res.tau_next == pytest.approx(2e-3, rel=1e-14)

    def test_uncapped_growth_reaches_tau_max_immediately(self):
        cfg = AdaptiveConfig(ratio_cap=None, tol=1e-2)
        state = StepperState(
            u_prev=np.full((8, 8), 0.9), u_prev2=None, n=0, t=0.0
        )
        res = advance(
            state, 1e-3, self.GRID, self.EPS, cfg, NEWTON,
            anchor_lap=laplacian_apply(state.u_prev, self.GRID.h),
        )
        assert res.tau_next == cfg.tau_max

    def test_relaxation_run_grows_to_tau_max(self):
        # constant start at 0.9: smooth relaxation toward 1, so the accepted
        # steps climb until the window cap and stay there
        cfg = AdaptiveConfig(tol=1e-2)
        state, taus, rejects = self.march(np.full((8, 8), 0.9), cfg, 40)
        assert rejects == 0
        assert taus[-1] == cfg.tau_max
        assert taus == sorted(taus)
        # relaxation toward the pure phase decays like exp(-2t)
        assert abs(float(state.u_prev.max()) - 1.0) < 1e-3
        assert float(state.u_prev.min()) >= 0.9

    def test_state_is_not_mutated(self, rng):
        cfg = AdaptiveConfig()
        u0 = 0.5 * rng.uniform(-1.0, 1.0, (8, 8))
        copy = u0.copy()
        state = StepperState(u_prev=u0, u_prev2=None, n=0, t=0.0)
        advance(
            state, 1e-3, self.GRID, self.EPS, cfg, NEWTON,
            anchor_lap=laplacian_apply(state.u_prev, self.GRID.h),
        )
        np.testing.assert_array_equal(state.u_prev, copy)
        assert state.n == 0

    def two_level_state(self, rng):
        u0 = 0.2 * np.sin(
            2.0 * math.pi * self.GRID.meshgrid()[0]
        ) + 0.1 * rng.uniform(-1.0, 1.0, (8, 8))
        u1 = u0 + 1e-3 * rng.uniform(-1.0, 1.0, (8, 8))
        return StepperState(u_prev=u1, u_prev2=u0, n=2, t=0.02, tau_prev=0.01)

    def test_estimate_strictly_below_tolerance_accepts(self, rng):
        # acceptance is e < tol, so any e >= tol must reject
        state = self.two_level_state(rng)
        cfg = AdaptiveConfig(tol=1e-3)
        res = advance(
            state, 0.01, self.GRID, self.EPS, cfg, NEWTON,
            anchor_lap=laplacian_apply(state.u_prev, self.GRID.h),
        )
        assert res.record.accepted
        assert res.record.e_est < cfg.tol
        for rec in res.rejected:
            assert not rec.accepted
            assert rec.e_est >= cfg.tol

    def test_too_many_rejects(self, rng):
        # trials 0.01 and then the floor 1e-4; the floor would only repeat
        state = self.two_level_state(rng)
        cfg = AdaptiveConfig(tol=1e-15, max_rejects=2, tau_min=1e-4, tau_max=0.1)
        with pytest.raises(TooManyRejects, match="rejected 2 times"):
            advance(
                state, 0.01, self.GRID, self.EPS, cfg, NEWTON,
                anchor_lap=laplacian_apply(state.u_prev, self.GRID.h),
            )

    def count_steps(self, monkeypatch):
        calls = []
        step = adaptive.bdf2_step

        def counted(state, tau, *args, **kwargs):
            calls.append(tau)
            return step(state, tau, *args, **kwargs)

        monkeypatch.setattr(adaptive, "bdf2_step", counted)
        return calls

    def test_floor_rejection_is_not_repeated(self, rng, monkeypatch):
        # a rejected trial at tau_min comes back as tau_min: one trial (two
        # solves) and out, not max_rejects identical retries
        calls = self.count_steps(monkeypatch)
        state = self.two_level_state(rng)
        cfg = AdaptiveConfig(tol=1e-15, max_rejects=20, tau_min=1e-3)
        with pytest.raises(TooManyRejects, match="rejected 1 times"):
            advance(
                state, cfg.tau_min, self.GRID, self.EPS, cfg, NEWTON,
                anchor_lap=laplacian_apply(state.u_prev, self.GRID.h),
            )
        assert calls == [cfg.tau_min, cfg.tau_min]

    def test_reject_budget_still_applies_above_the_floor(self, rng, monkeypatch):
        # a fixed estimate of 1 shrinks each trial by rho sqrt(tol), far
        # above the floor, so the budget of max_rejects retries runs out
        calls = self.count_steps(monkeypatch)
        monkeypatch.setattr(adaptive, "error_estimate", lambda *args: 1.0)
        state = self.two_level_state(rng)
        cfg = AdaptiveConfig(tol=1e-2, max_rejects=2, tau_min=1e-12)
        with pytest.raises(TooManyRejects, match="rejected 3 times"):
            advance(
                state, 0.01, self.GRID, self.EPS, cfg, NEWTON,
                anchor_lap=laplacian_apply(state.u_prev, self.GRID.h),
            )
        assert len(calls) == 6
        assert calls[::2] == calls[1::2]
        assert calls[0] > calls[2] > calls[4] > cfg.tau_min

    def test_rejection_records_carry_the_trial_sizes(self, rng):
        state = self.two_level_state(rng)
        cfg = AdaptiveConfig(tol=5e-7, max_rejects=10, tau_min=1e-5)
        res = advance(
            state, 0.02, self.GRID, self.EPS, cfg, NEWTON,
            anchor_lap=laplacian_apply(state.u_prev, self.GRID.h),
        )
        assert len(res.rejected) >= 1
        sizes = [rec.tau for rec in res.rejected] + [res.record.tau]
        assert sizes == sorted(sizes, reverse=True)
        assert res.record.accepted


class _FirstEstimate(Exception):
    """Stops :func:`advance` once its first trial has an estimate."""


class TestComparisonSolve:
    """The backward-Euler comparison is solved only as well as ``e`` reads it."""

    def two_level_state(self, rng, grid, tau):
        x, y = grid.meshgrid()
        k = 2.0 * math.pi / grid.L
        u0 = rng.uniform(0.1, 0.9) * np.sin(k * x) * np.cos(k * y)
        u0 += 0.1 * rng.uniform(-1.0, 1.0, u0.shape)
        u1 = u0 + 0.5 * tau * (u0 - u0**3) + 1e-3 * rng.uniform(-1.0, 1.0, u0.shape)
        tau_prev = tau / rng.uniform(0.5, 2.0)
        return StepperState(u_prev=u1, u_prev2=u0, n=2, t=0.1, tau_prev=tau_prev)

    def test_accepted_level_is_the_plain_two_step_solve(self, rng):
        grid = Grid2D(M=16, L=1.0)
        state = self.two_level_state(rng, grid, 0.01)
        anchor_lap = laplacian_apply(state.u_prev, grid.h)
        res = advance(
            state, 0.01, grid, 0.05, AdaptiveConfig(tol=1e-2), NEWTON,
            anchor_lap=anchor_lap,
        )
        assert res.rejected == []
        u2, iters2 = bdf2_step(state, 0.01, grid, 0.05, None, NEWTON, anchor_lap=anchor_lap)
        np.testing.assert_array_equal(res.u, u2)
        assert res.record.newton_iters == iters2

    def test_loose_comparison_moves_the_estimate_by_at_most_1e_3_tol(
        self, rng, monkeypatch
    ):
        estimate = adaptive.error_estimate
        seen = []

        def first_estimate(*args):
            seen.append(estimate(*args))
            raise _FirstEstimate

        monkeypatch.setattr(adaptive, "error_estimate", first_estimate)
        for draw in range(40):
            seen.clear()
            M = int(rng.choice([8, 16, 32]))
            grid = Grid2D(M=M, L=float(rng.choice([1.0, 6.0])))
            norm = ("l2", "max")[draw % 2]
            # b0 - 1 = 1 / tau - 1 from about 1 to 1e3
            tau = 1.0 / (1.0 + 10.0 ** rng.uniform(0.0, 3.0))
            eps = 10.0 ** rng.uniform(-2.0, -0.5)
            cfg = AdaptiveConfig(tol=10.0 ** rng.uniform(-5.0, -2.0), norm=norm)
            state = self.two_level_state(rng, grid, tau)
            anchor_lap = laplacian_apply(state.u_prev, grid.h)
            with pytest.raises(_FirstEstimate):
                advance(state, tau, grid, eps, cfg, NEWTON, anchor_lap=anchor_lap)
            u2, _ = bdf2_step(state, tau, grid, eps, None, NEWTON, anchor_lap=anchor_lap)
            u1, _ = bdf2_step(
                replace(state, u_prev2=None), tau, grid, eps, None, NEWTON,
                anchor_lap=anchor_lap,
            )
            scratch = np.empty_like(u2)
            ref = solution_norm(u2, grid.h, norm, scratch)
            # the draw really loosens the comparison solve
            assert comparison_tol(ref, 1.0 / tau, grid, cfg, NEWTON.tol) > 1e3 * NEWTON.tol
            e_tight = estimate(u1, u2, ref, grid.h, norm, scratch)
            assert abs(seen[0] - e_tight) <= 1e-3 * cfg.tol, (draw, norm, tau)

    def test_level_allocates_only_its_two_candidates(self, rng):
        # the comparison start is formed in the solver workspace
        grid = Grid2D(M=32, L=1.0)
        state = self.two_level_state(rng, grid, 0.01)
        anchor_lap = laplacian_apply(state.u_prev, grid.h)

        def level():
            advance(
                state, 0.01, grid, 0.05, AdaptiveConfig(tol=1e-2), NEWTON,
                anchor_lap=anchor_lap,
            )

        assert peak_fields(grid, level) < 2.5

    def test_start_gap_to_the_comparison_is_third_order(self):
        # constant data: the equation is u' = u - u^3, and the history is
        # its exact solution from u(0) = 1/2 at a fixed step ratio
        grid, eps, ratio, t = Grid2D(M=8, L=1.0), 0.1, 1.5, 0.5
        tight = NewtonConfig(tol=1e-15)

        def exact(t):
            return np.full((8, 8), 1.0 / math.sqrt(1.0 + 3.0 * math.exp(-2.0 * t)))

        gaps_u2, gaps_start = [], []
        for tau in (0.04, 0.02, 0.01):
            tau_prev = tau / ratio
            state = StepperState(
                u_prev=exact(t), u_prev2=exact(t - tau_prev), n=2, t=t, tau_prev=tau_prev
            )
            anchor_lap = laplacian_apply(state.u_prev, grid.h)
            u2, _ = bdf2_step(state, tau, grid, eps, None, tight, anchor_lap=anchor_lap)
            u1, _ = bdf2_step(
                replace(state, u_prev2=None), tau, grid, eps, None, tight,
                anchor_lap=anchor_lap,
            )
            start = comparison_start(state, ratio, u2, np.empty_like(u2))
            gaps_u2.append(max_norm(u2 - u1))
            gaps_start.append(max_norm(start - u1))
        # halving tau cuts u2's gap about 4-fold and the start's about 8-fold
        for k in (0, 1):
            assert 3.0 < gaps_u2[k] / gaps_u2[k + 1] < 5.0
            assert gaps_start[k] / gaps_start[k + 1] > 6.5, gaps_start

    def test_march_spends_fewer_comparison_sweeps(self, monkeypatch):
        # every comparison solve of a short M = 64 four-bubble march, against
        # the same solve at newton.tol from the same state
        step = adaptive.bdf2_step
        loose, tight = [], []

        def counted(state, tau, *args, **kwargs):
            # the start lives in a work field the solve overwrites
            start = kwargs.get("start")
            kept = dict(kwargs, start=None if start is None else start.copy())
            u, iters = step(state, tau, *args, **kwargs)
            # the comparison: a history-less state with a given start
            if state.u_prev2 is None and start is not None:
                grid, eps, source_at, _ = args
                loose.append(iters)
                tight.append(
                    step(state, tau, grid, eps, source_at, NEWTON, **kept)[1]
                )
            return u, iters

        monkeypatch.setattr(adaptive, "bdf2_step", counted)
        conf = Path(__file__).resolve().parent.parent / "configs"
        text = (conf / "four_bubble_adaptive.conf").read_text()
        res = run_simulation(
            parse_config(
                text + "domain.M = 64\ntime.T = 0.5\noutput.dir =\noutput.snapshots =\n"
            )
        )
        assert res.summary["rejected_steps"] == 0
        assert len(loose) == res.summary["total_steps"] - 1
        assert sum(loose) < sum(tight)
