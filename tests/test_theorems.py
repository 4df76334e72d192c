"""Property: the paper's two theorems hold on random nonuniform meshes.

Each draw marches :func:`bdf2_step` for 12 steps on an ``M x M`` grid,
``M`` in {8, 16}, edge ``L`` in [1, 8] and ``eps`` in [0.05, 0.5], from
data in ``[-1, 1]``: uniform noise, or ``+-1`` plateaus with scattered
intermediate cells.  The step ratios are drawn inside the theorem's
window, and the first step is then scaled so every step meets the
theorem's step bound, the tightest one with equality.

* Energy law: ratios in ``[1e-3, S1_LIMIT)`` and steps within
  :func:`energy_law_bound`; the modified energy never rises.
* Maximum principle: ratios in ``[1e-3, S0_LIMIT)`` and steps within
  :func:`max_principle_bound` at the run's ``eta = run_eta(max r)``;
  ``max |u|`` stays at most 1.

Ratios near one keep every step near its bound, and ratios at the window
edge make the bound tight, so both are drawn on purpose.
"""

import numpy as np
import pytest

from acbdf2.kernels import run_eta
from acbdf2.spatial import Grid2D, laplacian_apply, max_norm
from acbdf2.stepper import NewtonConfig, StepperState, bdf2_step, energy, modified_energy
from acbdf2.time_mesh import (
    RATIO_CEILING,
    S0_LIMIT,
    S1_LIMIT,
    STAB_CONSTANT,
    energy_law_bound,
    max_principle_bound,
)

from paper_forms import modified_energy_value

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

CFG = NewtonConfig()
STEPS = 12

GRIDS = st.fixed_dictionaries({
    "M": st.sampled_from([8, 16]),
    "L": st.floats(1.0, 8.0),
    "eps": st.floats(0.05, 0.5),
    "seed": st.integers(0, 2**32 - 1),
    "plateaus": st.booleans(),
})


def ratio_lists(limit, edge):
    """``STEPS - 1`` ratios in ``[1e-3, limit)``.

    Either each ratio is anywhere in the window, near one or at ``edge``,
    or all of them are near one, so that every step sits near its bound.
    """
    def lists(ratio):
        return st.lists(ratio, min_size=STEPS - 1, max_size=STEPS - 1).map(np.array)

    near_one = st.floats(0.7, 1.0)
    mixed = st.one_of(st.floats(1e-3, limit, exclude_max=True), near_one, st.just(edge))
    return st.one_of(lists(mixed), lists(near_one))


def setup(case):
    grid = Grid2D(M=case["M"], L=case["L"])
    rng = np.random.default_rng(case["seed"])
    M = grid.M
    if not case["plateaus"]:
        return grid, rng.uniform(-1.0, 1.0, (M, M))
    blocks = np.where(rng.uniform(size=(M // 4, M // 4)) < 0.5, 1.0, -1.0)
    u0 = np.kron(blocks, np.ones((4, 4)))
    loose = rng.uniform(size=(M, M)) < 0.2
    u0[loose] = rng.uniform(-1.0, 1.0, int(loose.sum()))
    return grid, u0


def steps_within(ratios, bounds):
    """Steps with the given ratios, the largest that keeps each within its bound."""
    growth = np.concatenate(([1.0], np.cumprod(ratios)))
    return float(np.min(bounds / growth)) * growth


def march(u0, steps, grid, eps):
    """Every level of a march over ``steps``, ``u0`` first.

    The state moves on as the runner's does, so the solves start from the
    runner's predictors.
    """
    state = StepperState(u_prev=u0, u_prev2=None, n=0, t=0.0)
    levels = [u0]
    for tau in steps:
        anchor_lap = laplacian_apply(state.u_prev, grid.h)
        u, _ = bdf2_step(state, tau, grid, eps, None, CFG, anchor_lap=anchor_lap)
        levels.append(u)
        state = state.after(u, tau)
    return levels


SETTINGS = hypothesis.settings(
    max_examples=60, deadline=None, derandomize=True, database=None,
    suppress_health_check=[hypothesis.HealthCheck.filter_too_much],
)


@SETTINGS
@hypothesis.given(case=GRIDS, ratios=ratio_lists(S1_LIMIT, S1_LIMIT - 1e-6))
def test_modified_energy_never_rises(case, ratios):
    grid, u0 = setup(case)
    eps = case["eps"]
    r = np.concatenate(([0.0], ratios))
    r_next = np.concatenate((ratios, [0.0]))
    bounds = np.array([energy_law_bound(*pair) for pair in zip(r.tolist(), r_next.tolist())])
    hypothesis.assume(bounds.min() > 0.0)
    # the first branch of the bound is the solvability bound, which is strict
    steps = (1.0 - 1e-9) * steps_within(ratios, bounds)
    levels = march(u0, steps, grid, eps)
    lap = np.empty_like(u0)
    prev = energy(u0, grid, eps, lap)
    for k in range(1, STEPS + 1):
        e, history = modified_energy(levels[k], levels[k - 1], steps[k - 1], grid, eps, lap)
        cur = modified_energy_value(e, history, steps[k - 1], r_next[k - 1], grid.h)
        # rounding slack only: the sums carry about 1e-15 relative error
        assert cur <= prev + 1e-12 * max(1.0, abs(prev)), (k, prev, cur)
        prev = cur


@SETTINGS
@hypothesis.given(case=GRIDS, ratios=ratio_lists(S0_LIMIT, RATIO_CEILING))
def test_max_norm_stays_at_most_one(case, ratios):
    grid, u0 = setup(case)
    eps = case["eps"]
    eta = run_eta(float(ratios.max()))
    bounds = np.array([
        max_principle_bound(ratio, eta, STAB_CONSTANT, eps, grid.h)
        for ratio in [0.0] + ratios.tolist()
    ])
    hypothesis.assume(bounds.min() > 0.0)
    steps = steps_within(ratios, bounds)
    # within the bound b0 >= 2 (eta >= 1/2), so Varah's bound puts each root
    # within newton.tol / (b0 - 1) <= newton.tol of the exact one
    for k, u in enumerate(march(u0, steps, grid, eps)):
        assert max_norm(u) <= 1.0 + CFG.tol, k
