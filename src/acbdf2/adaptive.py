"""Step-size controller driven by Milne's estimate of the one-step gap.

The paper estimates a level's temporal error from a one-step / two-step
comparison: the level solved by the two-step scheme, ``u2``, and by the
one-step scheme from the same history, ``u1``, are ``e = || u2 - u1 || /
|| u2 ||`` apart.  Variable-step BDF codes get that distance without the
second solve, from Milne's relation between predictor and corrector
(Hairer, Norsett & Wanner, Solving ODEs I, III.7; Hindmarsh et al., ACM
TOMS 31, 2005).  With ``r`` the step ratio and ``u_lin = u^n + r (u^n -
u^{n-1})`` the linear extrapolation, the one-step error is ``-r / (1 +
r)`` times the extrapolation's to leading order, so

    u1 - u2 = r / (1 + r) (u2 - u_lin)

up to third order in the step, where ``u1 - u2`` itself is second order.
The controller therefore takes

    e = || r / (1 + r) (u2 - u_lin) || / || u2 ||

(:func:`error_estimate`), a few passes over the field instead of a solve;
``e`` and the paper's estimate agree to a relative ``O(tau)``.  On the
first level both schemes coincide and ``e = 0``.  A level is accepted when
``e < tol``; either way the next trial step is

    tau_ada = rho * sqrt(tol / e) * tau_current

clamped to ``[tau_min, tau_max]``, and on acceptance additionally capped so
the realized step ratio never exceeds ``ratio_cap`` (the cap keeps every
accepted ratio inside the zero-stability window; disable it to reproduce
uncapped behavior).  A cap below 1 would shrink every accepted step, past
``tau_min``, so validation rejects it.  A rejected level is recomputed with
the shrunken step; the shrink factor is at most ``rho < 1`` per rejection,
and a step that keeps failing after ``max_rejects`` tries raises
:class:`TooManyRejects`.  So does a rejection whose next trial would be
the same step, as at the floor ``tau_min``: the solve is deterministic
and would fail again.

The estimate uses the grid-weighted l2 norm by default; the max norm is
available behind the ``norm`` switch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spatial import Grid2D, l2_norm, max_norm
from .stepper import NewtonConfig, StepRecord, StepperState, bdf2_step, workspace
from .time_mesh import RATIO_CEILING


class TooManyRejects(RuntimeError):
    """A level kept failing the accuracy test after the allowed retries.

    Carries the records of the level's rejected trials, as
    :class:`AdvanceResult` does, so the run can log them before it fails.
    """

    def __init__(self, message: str, rejected: list[StepRecord]):
        super().__init__(message)
        self.rejected = rejected


class ZeroReference(RuntimeError):
    """Error estimate undefined because the reference solution is zero.

    A solver failure, not a configuration error: an adaptive march whose
    field is exactly zero, such as coarsening from zero data, hits it from an
    admissible config.
    """


@dataclass
class AdaptiveConfig:
    """Controller tuning; defaults follow the usual phase-field practice."""

    rho: float = 0.6
    tol: float = 1e-4
    tau_max: float = 0.1
    tau_min: float = 1e-3
    ratio_cap: float | None = RATIO_CEILING
    max_rejects: int = 20
    norm: str = "l2"

    def __post_init__(self) -> None:
        errs = self.problems()
        if errs:
            raise ValueError("; ".join(errs))

    def problems(self, name=str) -> list[str]:
        """Every out-of-range field, each called ``name(field)``."""
        errs = []
        if not 0.0 < self.rho <= 1.0:
            errs.append(f"{name('rho')} must lie in (0, 1]")
        if not self.tol > 0.0:
            errs.append(f"{name('tol')} must be positive")
        if not (self.tau_min > 0.0 and self.tau_max > 0.0):
            errs.append(f"{name('tau_min')} and {name('tau_max')} must be positive")
        elif self.tau_min > self.tau_max:
            errs.append(f"{name('tau_min')} exceeds {name('tau_max')}")
        if self.ratio_cap is not None and not self.ratio_cap >= 1.0:
            # a cap below 1 shrinks every accepted step, past tau_min
            errs.append(f"{name('ratio_cap')} must be at least 1 or off")
        if self.max_rejects < 1:
            errs.append(f"{name('max_rejects')} must be at least 1")
        if self.norm not in ("l2", "max"):
            errs.append(f"{name('norm')} must be 'l2' or 'max'")
        return errs


def solution_norm(u: np.ndarray, h: float, norm: str, scratch: np.ndarray) -> float:
    """``u`` in the estimate's norm; the l2 squares go into ``scratch``."""
    if norm == "l2":
        return l2_norm(u, h, scratch)
    if norm == "max":
        return max_norm(u)
    raise ValueError("error norm must be 'l2' or 'max'")


def error_estimate(
    state: StepperState, ratio: float, u2: np.ndarray, h: float, norm: str,
    scratch: np.ndarray,
) -> float:
    """Milne's estimate ``|| r / (1 + r) (u2 - u_lin) || / || u2 ||``.

    ``u2`` is the two-step candidate solved from ``state`` at the step
    ratio ``r = ratio``, and ``u_lin = u^n + r (u^n - u^{n-1})`` the linear
    extrapolation of the state's last two levels; see the module
    docstring.  The gap and its squares go into ``scratch``;
    :func:`advance` passes its grid workspace's.
    """
    ref = solution_norm(u2, h, norm, scratch)
    if ref == 0.0:
        raise ZeroReference("reference solution vanishes")
    gap = np.subtract(state.u_prev, state.u_prev2, out=scratch)
    gap *= ratio
    gap += state.u_prev
    np.subtract(u2, gap, out=gap)
    return ratio / (1.0 + ratio) * solution_norm(gap, h, norm, scratch) / ref


def tau_ada(e: float, tau_cur: float, cfg: AdaptiveConfig) -> float:
    """Next trial step, ``rho sqrt(tol/e) tau``, clamped to the step window.

    ``e = 0``, as on the first level, asks for the largest admissible step.
    """
    if e < 0.0:
        raise ValueError("error estimate cannot be negative")
    if e == 0.0:
        return cfg.tau_max
    trial = cfg.rho * math.sqrt(cfg.tol / e) * tau_cur
    return min(cfg.tau_max, max(cfg.tau_min, trial))


@dataclass
class AdvanceResult:
    """Outcome of one accepted level."""

    u: np.ndarray
    record: StepRecord
    tau_next: float
    rejected: list[StepRecord]


def advance(
    state: StepperState,
    tau: float,
    grid: Grid2D,
    eps: float,
    cfg: AdaptiveConfig,
    newton_cfg: NewtonConfig,
    source_at=None,
    *,
    anchor_lap: np.ndarray,
) -> AdvanceResult:
    """Compute the next accepted level starting from trial step ``tau``.

    Each trial is one two-step solve, whose candidate :func:`error_estimate`
    reads.  ``anchor_lap`` must hold ``laplacian_apply(state.u_prev)``;
    every trial's solve reads it, as all of them start from
    ``state.u_prev``.  Does not mutate ``state``; the caller folds the
    result in.  Records for rejected trials carry the candidate's
    diagnostics with ``accepted=False``; the run loop fills the energies
    and constraint flags of every record (the modified energy needs the
    following ratio, which is unknown until the next level is accepted).

    Raises :class:`TooManyRejects`, which carries the rejected records,
    after ``max_rejects`` rejections, or as soon as the next trial would
    repeat the rejected one: at the step floor ``tau_ada`` clamps back to
    ``tau_min``, and the identical solve would fail identically.
    """
    rejected: list[StepRecord] = []
    scratch = workspace(grid).scratch
    for _ in range(cfg.max_rejects + 1):
        u2, iters = bdf2_step(
            state, tau, grid, eps, source_at, newton_cfg, anchor_lap=anchor_lap
        )
        record = StepRecord.solved(state, tau, u2, iters)
        if state.u_prev2 is None:
            # both schemes coincide on the starting level
            e = 0.0
        else:
            e = error_estimate(state, record.ratio, u2, grid.h, cfg.norm, scratch)
        record.e_est = e
        record.accepted = e < cfg.tol
        if record.accepted:
            tau_next = tau_ada(e, tau, cfg)
            if cfg.ratio_cap is not None:
                tau_next = min(tau_next, cfg.ratio_cap * tau)
            return AdvanceResult(u=u2, record=record, tau_next=tau_next, rejected=rejected)
        rejected.append(record)
        tau_next = tau_ada(e, tau, cfg)
        if tau_next == tau:
            break
        tau = tau_next
    raise TooManyRejects(
        f"level {state.n + 1} rejected {len(rejected)} times "
        f"(last e = {e:g} at tau = {rejected[-1].tau:g})",
        rejected,
    )
