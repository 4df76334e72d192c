"""Step-size controller driven by a one-step / two-step comparison.

Each level is computed twice: once with the one-step scheme and once with
the two-step scheme, from the same history.  The one-step solve starts
from the state with its older levels dropped, which the stepper treats as
a first level.  Their relative distance

    e = || u2 - u1 || / || u2 ||

estimates the temporal error.  A level is accepted when ``e < tol``;
either way the next trial step is

    tau_ada = rho * sqrt(tol / e) * tau_current

clamped to ``[tau_min, tau_max]``, and on acceptance additionally capped so
the realized step ratio never exceeds ``ratio_cap`` (the cap keeps every
accepted ratio inside the zero-stability window; disable it to reproduce
uncapped behavior).  A rejected level is recomputed with the shrunken step;
the shrink factor is at most ``rho < 1`` per rejection, and a step that
keeps failing after ``max_rejects`` tries raises :class:`TooManyRejects`.
So does a rejection whose next trial would be the same step, as at the
floor ``tau_min``: the solve is deterministic and would fail again.

The estimate uses the grid-weighted l2 norm by default; the max norm is
available behind the ``norm`` switch.

The two-step candidate ``u2`` is the level that gets accepted, so it is
solved to ``newton.tol`` like every other level.  The one-step comparison
``u1`` is only read through ``e``, so it is solved no more accurately than
``e`` can resolve: to the residual tolerance

    tol1 = max(newton.tol, KAPPA * tol * (b0 - 1) * ||u2|| / s)

with ``b0 = 1 / tau`` its weight, ``||u2||`` the estimate's own
denominator and ``s = L`` for the l2 norm (the grid-weighted l2 norm is at
most ``L`` times the max norm), ``s = 1`` for the max norm.  Between the
loose root ``u'`` and the exact root ``u`` the secant Jacobian
``diag(b0 - 1 + u'^2 + u' u + u^2) - eps^2 Lap`` is strictly diagonally
dominant with margin ``b0 - 1``, so Varah's bound (Linear Algebra Appl.
11, 1975) gives ``||u' - u||_inf <= tol1 / (b0 - 1)``.  Where the second
term sets ``tol1``, ``e`` thus stays within ``KAPPA * tol`` of its
exact-solve value: 1e-7 at the default ``tol``.  Where ``newton.tol``
does, the comparison is solved as tightly as the accepted level.  On the
first level both schemes coincide and the single solve keeps
``newton.tol``.

The comparison's Newton starts from ``u2`` corrected by Milne's relation.
With ``u_lin = u^n + r (u^n - u^{n-1})`` the linear extrapolation, the
one-step error is ``r / (1 + r)`` times the extrapolation's and of the
opposite sign to leading order, so ``u1 - u2 = -r / (1 + r) (u_lin - u2)``
up to third order in the step.  :func:`comparison_start` forms ``u2 + r /
(1 + r) (u2 - u_lin)``, whose gap to ``u1`` is third order where ``u2``'s
is second; ``u1`` is still solved to ``tol1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .spatial import Grid2D, l2_norm, max_norm
from .stepper import NewtonConfig, StepRecord, StepperState, bdf2_step, workspace
from .time_mesh import RATIO_CEILING

#: the share of ``tol`` by which the loose comparison solve may move ``e``
KAPPA = 1e-3


class TooManyRejects(RuntimeError):
    """A level kept failing the accuracy test after the allowed retries.

    Carries the level's work as :class:`AdvanceResult` does: the records
    of its rejected trials and the sweeps of their comparison solves, so
    the run can log them before it fails.
    """

    def __init__(self, message: str, rejected: list[StepRecord], comparison_sweeps: int):
        super().__init__(message)
        self.rejected = rejected
        self.comparison_sweeps = comparison_sweeps


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
        if self.ratio_cap is not None and not self.ratio_cap > 0.0:
            errs.append(f"{name('ratio_cap')} must be positive or off")
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
    u1: np.ndarray, u2: np.ndarray, ref: float, h: float, norm: str, scratch: np.ndarray
) -> float:
    """Relative distance of the two candidate solutions.

    ``ref`` is ``solution_norm(u2)``, which :func:`advance` also reads for
    :func:`comparison_tol`.  The difference and its squares go into
    ``scratch``; :func:`advance` passes its grid workspace's.
    """
    if ref == 0.0:
        raise ZeroReference("reference solution vanishes")
    return solution_norm(np.subtract(u2, u1, out=scratch), h, norm, scratch) / ref


def comparison_tol(
    ref: float, b0: float, grid: Grid2D, cfg: AdaptiveConfig, newton_tol: float
) -> float:
    """Residual tolerance of the one-step comparison; see the module docstring.

    ``ref`` is ``||u2||`` in the estimate's norm, ``b0`` the comparison's
    weight ``1 / tau``; ``newton_tol`` stays the floor.
    """
    s = grid.L if cfg.norm == "l2" else 1.0
    return max(newton_tol, KAPPA * cfg.tol * (b0 - 1.0) * ref / s)


def comparison_start(
    state: StepperState, ratio: float, u2: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """``u2 + r / (1 + r) (u2 - u_lin)`` in ``out``; see the module docstring.

    ``u_lin = u^n + r (u^n - u^{n-1})`` is formed in ``out`` first, with
    ``r = ratio`` the step's ratio to ``state.tau_prev``.
    """
    lin = np.subtract(state.u_prev, state.u_prev2, out=out)
    lin *= ratio
    lin += state.u_prev
    gap = np.subtract(u2, lin, out=out)
    gap *= ratio / (1.0 + ratio)
    gap += u2
    return gap


def tau_ada(e: float, tau_cur: float, cfg: AdaptiveConfig) -> float:
    """Next trial step, ``rho sqrt(tol/e) tau``, clamped to the step window.

    ``e = 0`` (identical candidates) asks for the largest admissible step.
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
    #: Newton sweeps of every comparison solve of the level, rejected
    #: trials included; the records count the other solves
    comparison_sweeps: int


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

    ``anchor_lap`` must hold ``laplacian_apply(state.u_prev)``; every solve
    of every trial reads it, as all of them start from ``state.u_prev``.
    Does not mutate ``state``; the caller folds the result in.  Records for
    rejected trials carry the candidate's diagnostics with
    ``accepted=False``; the run loop fills the energies and constraint
    flags of every record (the modified energy needs the following ratio,
    which is unknown until the next level is accepted).

    Raises :class:`TooManyRejects`, which carries the rejected records and
    comparison sweeps, after ``max_rejects`` rejections, or as soon as the
    next trial would repeat the rejected one: at the step floor
    ``tau_ada`` clamps back to ``tau_min``, and the identical solve would
    fail identically.
    """
    rejected: list[StepRecord] = []
    ws = workspace(grid)
    scratch = ws.scratch
    # the state without its older levels: the one-step scheme
    one_step = replace(state, u_prev2=None, u_prev3=None)
    comparison_sweeps = 0
    for _ in range(cfg.max_rejects + 1):
        u2, iters2 = bdf2_step(
            state, tau, grid, eps, source_at, newton_cfg, anchor_lap=anchor_lap
        )
        record = StepRecord.solved(state, tau, u2, iters2)
        if state.u_prev2 is None:
            # both schemes coincide on the starting level
            e = 0.0
        else:
            ref = solution_norm(u2, grid.h, cfg.norm, scratch)
            # the one-step weight b0 is 1 / tau
            tol1 = comparison_tol(ref, 1.0 / tau, grid, cfg, newton_cfg.tol)
            start = comparison_start(state, record.ratio, u2, ws.compare_start)
            u1, iters1 = bdf2_step(
                one_step, tau, grid, eps, source_at, replace(newton_cfg, tol=tol1),
                anchor_lap=anchor_lap, start=start,
            )
            comparison_sweeps += iters1
            e = error_estimate(u1, u2, ref, grid.h, cfg.norm, scratch)
        record.e_est = e
        record.accepted = e < cfg.tol
        if record.accepted:
            tau_next = tau_ada(e, tau, cfg)
            if cfg.ratio_cap is not None:
                tau_next = min(tau_next, cfg.ratio_cap * tau)
            return AdvanceResult(
                u=u2,
                record=record,
                tau_next=tau_next,
                rejected=rejected,
                comparison_sweeps=comparison_sweeps,
            )
        rejected.append(record)
        tau_next = tau_ada(e, tau, cfg)
        if tau_next == tau:
            break
        tau = tau_next
    raise TooManyRejects(
        f"level {state.n + 1} rejected {len(rejected)} times "
        f"(last e = {e:g} at tau = {rejected[-1].tau:g})",
        rejected,
        comparison_sweeps,
    )
