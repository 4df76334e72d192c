"""Benchmark problems: manufactured-solution accuracy, bubbles, coarsening.

The accuracy study marches a forced problem whose exact solution is known
on a random nonuniform mesh (:func:`acbdf2.runner.mms_sweep`); the worst
nodal error over the march against the largest step of the mesh, paired
across runs at N and 2N steps, gives the observed temporal order.  This
module holds the problem, the mesh draw and the order formula.  The two
phase-field initial states reproduce the classic qualitative benchmarks:
four tangent circular interfaces that merge and shrink, and a small random
perturbation that coarsens.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spatial import Grid2D
from .time_mesh import TimeMesh

#: diffusion coefficient of the forced accuracy problem, 1 / (8 pi^2)
MMS_EPS2 = 1.0 / (8.0 * math.pi * math.pi)


class MmsProblem:
    """Forced problem with exact solution ``sin(2 pi x) sin(2 pi y) sin t``.

    On the unit square with diffusion ``1/(8 pi^2)`` the Laplacian term
    reduces to ``-u``, so the source has the closed form
    ``g = s cos t + (s sin t)^3`` with ``s = sin(2 pi x) sin(2 pi y)``.

    Both fields take the spatial factor ``s = shape(X, Y)`` when the caller
    has it, so a march computes it once instead of on every step.  They are
    written into ``out`` when given, else into a new array; the source also
    needs one more field, ``scratch``, made here when not given.
    """

    eps = math.sqrt(MMS_EPS2)
    L = 1.0
    T = 1.0

    @staticmethod
    def shape(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        return np.sin(2.0 * math.pi * X) * np.sin(2.0 * math.pi * Y)

    @classmethod
    def exact(
        cls, X: np.ndarray, Y: np.ndarray, t: float, s=None, out=None
    ) -> np.ndarray:
        if s is None:
            s = cls.shape(X, Y)
        return np.multiply(s, math.sin(t), out=out)

    @classmethod
    def source(
        cls, X: np.ndarray, Y: np.ndarray, t: float, s=None, out=None, scratch=None
    ) -> np.ndarray:
        if s is None:
            s = cls.shape(X, Y)
        v = np.multiply(s, math.sin(t), out=scratch)
        g = np.multiply(v, v, out=out)
        g *= v
        # s cos t + v^3, with v's field reused for s cos t
        return np.add(g, np.multiply(s, math.cos(t), out=v), out=g)


def random_mesh(n_steps: int, total_time: float, seed: int) -> TimeMesh:
    """Random nonuniform mesh: ``tau_k = T eps_k / sum eps``, uniform draws.

    The last step absorbs the rounding error so the node times end exactly
    at ``total_time``.
    """
    if n_steps < 1:
        raise ValueError("need at least one step")
    rng = np.random.default_rng(seed)
    draws = rng.uniform(0.0, 1.0, n_steps)
    steps = total_time * draws / draws.sum()
    steps[-1] = total_time - steps[:-1].sum()
    return TimeMesh(steps)


@dataclass
class ConvergenceRow:
    """One line of the accuracy table."""

    N: int
    tau_max: float
    err_inf: float
    order: float
    num_ratio_violations: int
    newton_iters: list[int]  # Newton sweeps of each step


def convergence_order(err_coarse: float, err_fine: float,
                      tau_coarse: float, tau_fine: float) -> float:
    """``log(e_c / e_f) / log(tau_c / tau_f)``; NaN when undefined."""
    if err_coarse <= 0.0 or err_fine <= 0.0:
        return math.nan
    if tau_coarse <= 0.0 or tau_fine <= 0.0 or tau_coarse == tau_fine:
        return math.nan
    return math.log(err_coarse / err_fine) / math.log(tau_coarse / tau_fine)


def four_bubble_init(grid: Grid2D, eps: float) -> np.ndarray:
    """Four tangent circular interfaces of radius 0.2 around the origin.

    Product of four tanh profiles; the field sits near -1 outside the
    circles, near +1 inside, with interfaces of width ``eps``.
    """
    X, Y = grid.meshgrid()
    r2 = 0.2 * 0.2

    def bubble(cx: float, cy: float) -> np.ndarray:
        return np.tanh(((X - cx) ** 2 + (Y - cy) ** 2 - r2) / eps)

    return -(
        bubble(0.3, 0.0) * bubble(-0.3, 0.0) * bubble(0.0, 0.3) * bubble(0.0, -0.3)
    )


def coarsening_init(
    grid: Grid2D, seed: int, base: float = 0.0, amp: float = 0.05
) -> np.ndarray:
    """Uniform random perturbation ``base + amp * U(-1, 1)`` per node."""
    if amp < 0.0:
        raise ValueError("perturbation amplitude cannot be negative")
    rng = np.random.default_rng(seed)
    return base + amp * rng.uniform(-1.0, 1.0, (grid.M, grid.M))
