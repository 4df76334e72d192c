"""Nonuniform time meshes and step-ratio safeguards.

A mesh is the sequence of positive step sizes ``tau_1, ..., tau_N`` covering
``[0, T]``.  Step ratios ``r_k = tau_k / tau_{k-1}`` (with ``r_1 = 0`` by
convention) control both solvability and stability of the two-step scheme,
so this module also provides the per-step upper bounds behind the
constraint monitors, and :func:`constraint_flags` for the flags a step
settles on its own:

* zero-stability window ``0 < r_k < 1 + sqrt(2)``,
* energy-dissipation window ``0 < r_k < (3 + sqrt(17)) / 2``,
* unique-solvability bound ``tau_n < (1 + 2 r_n) / (1 + r_n)``,
* energy-law step bound (depends on the next ratio as well),
* maximum-principle step bound (depends on the recombination weight ``eta``
  and the spatial resolution).

All comparisons are exact floating-point comparisons; callers that want
slack must build it into the values they pass in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: zero-stability ratio limit, 1 + sqrt(2)
S0_LIMIT = 1.0 + math.sqrt(2.0)

#: energy-dissipation ratio limit, (3 + sqrt(17)) / 2
S1_LIMIT = (3.0 + math.sqrt(17.0)) / 2.0

#: largest ratio a run plans for, just inside the zero-stability window
RATIO_CEILING = S0_LIMIT - 1e-6

#: Lipschitz constant of the double-well derivative on [-1, 1]
STAB_CONSTANT = 2.0


@dataclass(frozen=True)
class TimeMesh:
    """Immutable sequence of step sizes ``tau_1..tau_N``.

    Ratios are recomputed from the stored steps on demand; the steps are
    the single source of truth.  Entry ``k - 1`` belongs to step ``k``.
    """

    steps: np.ndarray

    def __post_init__(self) -> None:
        steps = np.asarray(self.steps, dtype=float).copy()
        if steps.ndim != 1 or steps.size == 0:
            raise ValueError("mesh needs a 1-d, non-empty step array")
        if not np.all(np.isfinite(steps)) or np.any(steps <= 0.0):
            raise ValueError("all step sizes must be finite and positive")
        times = np.concatenate(([0.0], np.cumsum(steps)))
        if np.any(np.diff(times) <= 0.0):
            # a step smaller than the float spacing of t would stall the clock
            raise ValueError("steps too small to advance the node times")
        steps.flags.writeable = False
        object.__setattr__(self, "steps", steps)

    @property
    def ratios(self) -> np.ndarray:
        """Step ratios ``r_k``, with ``r_1 = 0`` by convention."""
        r = np.empty_like(self.steps)
        r[0] = 0.0
        r[1:] = self.steps[1:] / self.steps[:-1]
        return r

    @classmethod
    def uniform(cls, total_time: float, n_steps: int) -> "TimeMesh":
        if n_steps < 1:
            raise ValueError("need at least one step")
        return cls(np.full(n_steps, total_time / n_steps))


def solvability_bound(ratio: float) -> float:
    """Largest step size with a unique nonlinear solution: ``(1+2r)/(1+r)``.

    The step is admissible when ``tau_n`` is strictly below this value, which
    makes the implicit equation strictly convex.
    """
    return (1.0 + 2.0 * ratio) / (1.0 + ratio)


def largest_solvable_step(tau_prev: float) -> float:
    """The step ``tau`` at which ``tau / tau_prev`` meets :func:`solvability_bound`.

    1 at ratio 0, else the positive root of ``tau^2 + (tp - 2) tau = tp``.
    """
    tp = tau_prev
    return 1.0 if tp == 0.0 else (2.0 - tp + math.sqrt(tp * tp + 4.0)) / 2.0


def energy_law_bound(ratio: float, ratio_next: float) -> float:
    """Step bound under which the modified energy cannot increase.

    ``min{(1+2r)/(1+r), (2+4r-r^2)/(1+r) - r'/(1+r')}`` where ``r`` is the
    current ratio and ``r'`` the next one (0 after the final step).  The
    second branch can be non-positive for ratio pairs outside the
    energy-dissipation window; a non-positive value means no admissible step.
    """
    second = (2.0 + 4.0 * ratio - ratio * ratio) / (1.0 + ratio)
    return min(solvability_bound(ratio), second - ratio_next / (1.0 + ratio_next))


def max_principle_bound(
    ratio: float, eta: float, stab: float, eps: float, h: float
) -> float:
    """Step bound under which the solver provably stays in ``[-1, 1]``.

    ``((1+2r) eta - r^2) / (eta^2 (1+r)) * (1 - eta) / (stab + 4 eps^2 / h^2)``

    ``eta`` is the recombination weight, ``stab`` the Lipschitz constant of
    the reaction term on ``[-1, 1]`` (2 for the cubic double well), ``eps``
    the interface parameter and ``h`` the grid spacing.  The bound is zero
    at ``eta = r^2 / (1 + 2r)`` and the usable window is
    ``r^2/(1+2r) <= eta < 1``.
    """
    kappa = ((1.0 + 2.0 * ratio) * eta - ratio * ratio) / (eta * eta * (1.0 + ratio))
    return kappa * (1.0 - eta) / (stab + 4.0 * eps * eps / (h * h))


def constraint_flags(tau: float, ratio: float, *, eta: float, eps: float, h: float) -> dict:
    """Which safeguards a step of size ``tau`` at ratio ``ratio`` satisfies.

    Returns the ``"s0"``, ``"s1"`` and ``"max_principle"`` flags.  ``s0``
    and ``s1`` are the strict ratio windows; the first step has ratio 0 and
    passes both.  ``max_principle`` uses the recombination weight ``eta`` of
    the run.  A flag is false exactly when its inequality fails.  The energy
    law waits for the following ratio; the run checks it against
    :func:`energy_law_bound` once that ratio is known.
    """
    return {
        "s0": ratio < S0_LIMIT,
        "s1": ratio < S1_LIMIT,
        "max_principle": tau <= max_principle_bound(ratio, eta, STAB_CONSTANT, eps, h),
    }
