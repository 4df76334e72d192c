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


def still_state(u):
    """A two-level state at rest on ``u``: its linear extrapolation is ``u``."""
    return StepperState(u_prev=u, u_prev2=u.copy(), n=2, t=0.02, tau_prev=0.01)


class TestErrorEstimate:
    def test_l2_is_scale_free(self):
        # u_lin = 1 and r / (1 + r) = 1/2: the gap is 1/2 against ||u2|| = 2
        state = still_state(np.ones((4, 4)))
        u2 = np.full((4, 4), 2.0)
        for h in (0.1, 0.25):
            e = error_estimate(state, 1.0, u2, h, "l2", np.empty((4, 4)))
            assert e == pytest.approx(0.25, rel=1e-15)

    def test_max_norm_variant(self):
        # r / (1 + r) = 1/3 of a largest gap 1, against max |u2| = 4
        state = still_state(np.array([[4.0, 1.0], [0.0, 0.0]]))
        u2 = np.array([[4.0, 0.0], [0.0, 0.0]])
        e = error_estimate(state, 0.5, u2, 0.5, "max", np.empty((2, 2)))
        assert e == pytest.approx(1.0 / 12.0, rel=1e-15)

    def test_zero_reference_raises(self):
        with pytest.raises(ZeroReference):
            error_estimate(
                still_state(np.ones((2, 2))), 1.0, np.zeros((2, 2)), 0.5, "l2",
                np.empty((2, 2)),
            )

    def test_unknown_norm_raises(self):
        with pytest.raises(ValueError):
            error_estimate(
                still_state(np.ones((2, 2))), 1.0, np.ones((2, 2)), 0.5, "l1",
                np.empty((2, 2)),
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
            # below 1 every accepted step shrinks, past tau_min
            {"ratio_cap": 0.5},
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
        # a rejected trial at tau_min comes back as tau_min: one trial (one
        # solve) and out, not max_rejects identical retries
        calls = self.count_steps(monkeypatch)
        state = self.two_level_state(rng)
        cfg = AdaptiveConfig(tol=1e-15, max_rejects=20, tau_min=1e-3)
        with pytest.raises(TooManyRejects, match="rejected 1 times"):
            advance(
                state, cfg.tau_min, self.GRID, self.EPS, cfg, NEWTON,
                anchor_lap=laplacian_apply(state.u_prev, self.GRID.h),
            )
        assert calls == [cfg.tau_min]

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
        # one solve per trial
        assert len(calls) == 3
        assert calls[0] > calls[1] > calls[2] > cfg.tau_min

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


def comparison(state, tau, grid, eps, norm="l2", newton=NEWTON):
    """The paper's estimate ``||u2 - u1|| / ||u2||``, with both solves made here.

    ``u1`` is the backward-Euler solve from the same anchor, which the
    controller no longer makes; it is the oracle that Milne's estimate
    stands in for.  Returns ``u2`` and the estimate.
    """
    anchor_lap = laplacian_apply(state.u_prev, grid.h)
    u2, _ = bdf2_step(state, tau, grid, eps, None, newton, anchor_lap=anchor_lap)
    one_step = replace(state, u_prev2=None, u_prev3=None)
    u1, _ = bdf2_step(one_step, tau, grid, eps, None, newton, anchor_lap=anchor_lap)
    scratch = np.empty_like(u2)
    ref = solution_norm(u2, grid.h, norm, scratch)
    return u2, solution_norm(u2 - u1, grid.h, norm, scratch) / ref


class TestComparisonSolve:
    """Milne's estimate against the backward-Euler comparison solve it replaces."""

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

    def test_level_allocates_only_its_candidate(self, rng):
        # the estimate is formed in the solver workspace
        grid = Grid2D(M=32, L=1.0)
        state = self.two_level_state(rng, grid, 0.01)
        anchor_lap = laplacian_apply(state.u_prev, grid.h)

        def level():
            advance(
                state, 0.01, grid, 0.05, AdaptiveConfig(tol=1e-2), NEWTON,
                anchor_lap=anchor_lap,
            )

        assert peak_fields(grid, level) < 1.5

    @staticmethod
    def ode_state(u_start, t, tau, ratio):
        """Two levels of the exact solution of ``u' = u - u^3`` on constant data."""

        def exact(t):
            c = (1.0 / u_start**2 - 1.0) * math.exp(-2.0 * t)
            return np.full((8, 8), 1.0 / math.sqrt(1.0 + c))

        tau_prev = tau / ratio
        return StepperState(
            u_prev=exact(t), u_prev2=exact(t - tau_prev), n=2, t=t, tau_prev=tau_prev
        )

    def test_start_gap_to_the_comparison_is_third_order(self):
        # Milne's relation: u2 + r / (1 + r) (u2 - u_lin) lies within third
        # order of the backward-Euler root u1, where u2 lies within second
        grid, eps, ratio = Grid2D(M=8, L=1.0), 0.1, 1.5
        tight = NewtonConfig(tol=1e-15)
        gaps_u2, gaps_start = [], []
        for tau in (0.04, 0.02, 0.01):
            state = self.ode_state(0.5, 0.5, tau, ratio)
            anchor_lap = laplacian_apply(state.u_prev, grid.h)
            u2, _ = bdf2_step(state, tau, grid, eps, None, tight, anchor_lap=anchor_lap)
            u1, _ = bdf2_step(
                replace(state, u_prev2=None), tau, grid, eps, None, tight,
                anchor_lap=anchor_lap,
            )
            u_lin = state.u_prev + ratio * (state.u_prev - state.u_prev2)
            start = u2 + ratio / (1.0 + ratio) * (u2 - u_lin)
            gaps_u2.append(max_norm(u2 - u1))
            gaps_start.append(max_norm(start - u1))
        # halving tau cuts u2's gap about 4-fold and the start's about 8-fold
        for k in (0, 1):
            assert 3.0 < gaps_u2[k] / gaps_u2[k + 1] < 5.0
            assert gaps_start[k] / gaps_start[k + 1] > 6.5, gaps_start

    def test_estimate_converges_to_the_comparison(self, rng):
        # e_p / e - 1 is O(tau): a quarter of the step cuts it about 4-fold.
        # Without the factor r / (1 + r) the ratio would tend to (1 + r) / r
        grid, eps = Grid2D(M=8, L=1.0), 0.1
        tight = NewtonConfig(tol=1e-15)
        for _ in range(6):
            ratio = rng.uniform(0.5, RATIO_CEILING)
            u_start, t = rng.uniform(0.1, 0.9), rng.uniform(0.2, 1.0)
            misses = []
            for tau in (0.04, 0.01):
                state = self.ode_state(u_start, t, tau, ratio)
                u2, e = comparison(state, tau, grid, eps, newton=tight)
                e_p = error_estimate(state, ratio, u2, grid.h, "l2", np.empty_like(u2))
                misses.append(abs(e_p / e - 1.0))
            assert misses[0] > 3.0 * misses[1], (ratio, u_start, t, misses)

    def test_estimate_tracks_the_comparison_along_a_march(self, monkeypatch):
        # every two-step trial of an M = 64 four-bubble march, against the
        # backward-Euler solve from the same state
        estimate = adaptive.error_estimate
        conf = Path(__file__).resolve().parent.parent / "configs"
        cfg = parse_config(
            (conf / "four_bubble_adaptive.conf").read_text()
            + "domain.M = 64\ntime.T = 5\noutput.dir =\noutput.snapshots =\n"
        )
        # a grid of its own, so the oracle's solves leave the march's
        # workspace alone
        grid = Grid2D(M=64, L=cfg.domain.L, origin=cfg.domain.origin)
        quotients = []

        def checked(state, ratio, u2, h, norm, scratch):
            e_p = estimate(state, ratio, u2, h, norm, scratch)
            _, e = comparison(state, ratio * state.tau_prev, grid, cfg.domain.eps, norm)
            quotients.append(e_p / e)
            return e_p

        monkeypatch.setattr(adaptive, "error_estimate", checked)
        res = run_simulation(cfg)
        assert res.summary["rejected_steps"] == 0
        assert len(quotients) == res.summary["total_steps"] - 1
        # Milne's estimate stays at or above the paper's, to within 1e-3
        assert 1.0 - 1e-3 <= min(quotients) and max(quotients) <= 1.3, (
            min(quotients), max(quotients),
        )
