"""Run orchestration: march a configured problem and write its artifacts.

One run produces, under the configured output directory:

* ``steps.csv``: one row per attempted level (rejected trials included),
  schema ``n,t,tau,ratio,e_est,accepted,newton_iters,max_norm,energy,
  modified_energy,s0_ok,maxp_bound_ok``, floats at 17 significant digits;
* binary field snapshots at the scheduled times (first accepted level at or
  past each scheduled time);
* ``summary.json``: run totals and constraint bookkeeping.

One loop marches every scheme.  Its step source is either a fixed mesh
(uniform or random), solved one level at a time, or the adaptive controller,
which also hands back its rejected trials.  For the manufactured solution
the loop also tracks ``err_inf``, the largest nodal error of any accepted
level; it is returned on :class:`RunResult` and kept out of the summary.

The modified energy of a level depends on the ratio of the following step,
so each record is finalized one acceptance later; the final level uses a
zero next ratio, collapsing its modified energy to the plain energy.  With
fixed seeds the march is sequential and deterministic, so repeated runs
produce byte-identical artifacts.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .adaptive import TooManyRejects, advance
from .config import (
    ConstraintPolicy,
    DomainConfig,
    InitConfig,
    OutputConfig,
    RunConfig,
    TimeConfig,
)
from .experiments import (
    ConvergenceRow,
    MmsProblem,
    coarsening_init,
    convergence_order,
    four_bubble_init,
    random_mesh,
)
from .kernels import run_eta
from .spatial import Grid2D, max_norm, read_snapshot, write_snapshot, write_text_field
from .stepper import (
    StepRecord,
    StepperState,
    bdf2_step,
    energy,
    modified_energy,
)
from .time_mesh import TimeMesh, constraint_flags

log = logging.getLogger(__name__)

CSV_FIELDS = tuple(f.name for f in dataclasses.fields(StepRecord))
CSV_HEADER = ",".join(CSV_FIELDS)


class ConstraintAbort(RuntimeError):
    """Raised internally when an enforced safeguard fails."""

    def __init__(self, name: str, step: int):
        self.name = name
        self.step = step
        super().__init__(f"constraint '{name}' violated at step {step}")


@dataclass
class RunResult:
    records: list[StepRecord]
    summary: dict
    u_final: np.ndarray
    grid: Grid2D
    #: manufactured-solution runs only: max over accepted levels of the
    #: nodal max-norm error against the exact solution; None otherwise
    err_inf: float | None = None


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def write_steps_csv(path: Path, records: list[StepRecord]) -> None:
    lines = [CSV_HEADER]
    for rec in records:
        lines.append(",".join(_fmt(getattr(rec, f)) for f in CSV_FIELDS))
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


class _Monitors:
    """Constraint policies, violation counts, one-shot warnings."""

    def __init__(self, policy_of: dict[str, str], eta: float, eps: float, h: float):
        self.policy_of = policy_of
        self.eta, self.eps, self.h = eta, eps, h
        self.counts = dict.fromkeys(policy_of, 0)
        self.first = dict.fromkeys(policy_of)

    def evaluate(self, rec: StepRecord, ratio_next: float | None = None) -> dict:
        """The record's safeguard flags; stores its CSV flags on the way."""
        flags = constraint_flags(
            rec.tau, rec.ratio, eta=self.eta, eps=self.eps, h=self.h,
            ratio_next=ratio_next,
        )
        rec.s0_ok = bool(flags["s0"])
        rec.maxp_bound_ok = bool(flags["max_principle"])
        return flags

    def check(self, flags: dict, names: tuple[str, ...], step: int) -> None:
        """Count, warn about or abort on each failed flag under ``names``."""
        for name in names:
            if self.policy_of[name] == "off" or flags[name]:
                continue
            self.counts[name] += 1
            if self.first[name] is None:
                self.first[name] = step
                if self.policy_of[name] == "warn":
                    log.warning("constraint '%s' first violated at step %d", name, step)
            if self.policy_of[name] == "enforce":
                raise ConstraintAbort(name, step)


class _Run:
    """Mutable march state shared by the three schemes."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.grid = Grid2D(M=cfg.domain.M, L=cfg.domain.L, origin=cfg.domain.origin)
        self.eps = cfg.domain.eps
        T = cfg.time.T
        self.mesh: TimeMesh | None = None  # adaptive: the controller picks steps
        if cfg.time.scheme == "uniform":
            self.mesh = TimeMesh.uniform(T, max(1, round(T / cfg.time.tau)))
        elif cfg.time.scheme == "random-mesh":
            self.mesh = random_mesh(cfg.time.n, T, cfg.time.seed)
        if self.mesh is not None:
            r_max = float(self.mesh.ratios.max())
        else:
            r_max = math.inf if cfg.adaptive.ratio_cap is None else cfg.adaptive.ratio_cap
        self.eta = run_eta(r_max)
        self.monitors = _Monitors(
            dataclasses.asdict(cfg.constraints),
            self.eta, self.eps, self.grid.h,
        )
        self.records: list[StepRecord] = []
        self.schedule = sorted(cfg.output.snapshots)
        self.sched_idx = 0
        self.snapshots_written: list[str] = []
        u0, self.source_at, self.error_at = self._initial_state()
        self.err_inf = None if self.error_at is None else 0.0
        self.state = StepperState(u_prev=u0, u_prev2=None, n=0, t=0.0)
        # record awaiting its modified-energy finalization
        self.pending: StepRecord | None = None
        # Laplacian of the current anchor state.u_prev: energy() leaves it
        # here at setup and at every acceptance, and every solve reads it
        self.anchor_lap = np.empty_like(u0)
        self.energy_initial = energy(u0, self.grid, self.eps, self.anchor_lap)
        self.max_norm_overall = max_norm(u0)
        self.min_norm_overall = self.max_norm_overall
        self.aborted: str | None = None
        self.solver_error: str | None = None

    # -- setup -----------------------------------------------------------

    def _initial_state(self):
        """Initial field, source term ``g(t)`` and error observer ``(u, t)``."""
        cfg, grid = self.cfg, self.grid
        kind = cfg.init.kind
        if kind == "four_bubble":
            return four_bubble_init(grid, self.eps), None, None
        if kind == "coarsening":
            u0 = coarsening_init(grid, cfg.init.seed, cfg.init.base, cfg.init.amp)
            return u0, None, None
        if kind == "mms":
            X, Y = grid.meshgrid()
            s = MmsProblem.shape(X, Y)
            # run-owned fields: the source's value and scratch; the error
            # observer reuses the scratch, which is dead between calls
            g, work = np.empty_like(s), np.empty_like(s)

            def source_at(t: float) -> np.ndarray:
                return MmsProblem.source(X, Y, t, s, out=g, scratch=work)

            def error_at(u: np.ndarray, t: float) -> float:
                err = MmsProblem.exact(X, Y, t, s, out=work)
                return max_norm(np.subtract(u, err, out=err))

            return MmsProblem.exact(X, Y, 0.0, s), source_at, error_at
        # "file", the last kind validation admits
        u, _ = read_snapshot(cfg.init.path)
        if u.shape != (grid.M, grid.M):
            raise ValueError(
                f"initial field is {u.shape[0]}x{u.shape[1]}, grid wants {grid.M}"
            )
        return u, None, None

    # -- step sources ----------------------------------------------------

    def _mesh_levels(self):
        """Levels of a fixed mesh: one solve each, always accepted."""
        for tau in self.mesh.steps.tolist():
            u, iters = bdf2_step(
                self.state, tau, self.grid, self.eps, self.source_at, self.cfg.newton,
                anchor_lap=self.anchor_lap,
            )
            yield u, StepRecord.solved(self.state, tau, u, iters), []

    def _controller_levels(self):
        """Levels the adaptive controller accepts, with its rejected trials."""
        cfg = self.cfg
        acfg = cfg.adaptive
        T = cfg.time.T
        if "time.tau" in cfg.explicit_keys:
            tau = min(max(cfg.time.tau, acfg.tau_min), acfg.tau_max)
        else:
            tau = acfg.tau_min
        end_slack = 1e-12 * max(1.0, T)
        while self.state.t < T - end_slack:
            tau = min(tau, T - self.state.t)  # clip the final step to land on T
            try:
                res = advance(
                    self.state, tau, self.grid, self.eps, acfg, cfg.newton, self.source_at,
                    anchor_lap=self.anchor_lap,
                )
            except TooManyRejects as exc:
                # the failed level's trials ran: log them before failing
                self._reject(exc.rejected)
                raise
            yield res.u, res.record, res.rejected
            tau = res.tau_next

    # -- bookkeeping -----------------------------------------------------

    def _finalize_pending(self, ratio_next: float) -> None:
        """Fill the waiting record's modified energy; run the lagged check."""
        rec = self.pending
        if rec is None:
            return
        rec.modified_energy = modified_energy(
            self.state.u_prev,
            self.state.u_prev2,
            self.state.tau_prev,
            ratio_next,
            self.grid,
            self.eps,
        )
        flags = self.monitors.evaluate(rec, ratio_next)
        self.monitors.check(flags, ("energy_law",), rec.n)
        self.pending = None

    def _reject(self, rejected: list[StepRecord]) -> None:
        """Log a level's rejected trials."""
        for rej in rejected:
            self.monitors.evaluate(rej)
            self.records.append(rej)

    def _accept(self, u: np.ndarray, rec: StepRecord) -> None:
        """Fold an accepted level into the march state."""
        # u becomes the anchor: its Laplacian replaces the old anchor's
        rec.energy = energy(u, self.grid, self.eps, self.anchor_lap)
        if self.error_at is not None:
            self.err_inf = max(self.err_inf, self.error_at(u, rec.t))
        flags = self.monitors.evaluate(rec)
        self._finalize_pending(rec.ratio)
        self.records.append(rec)
        self.pending = rec
        self.state = self.state.after(u, rec.tau)
        self.max_norm_overall = max(self.max_norm_overall, rec.max_norm)
        self.min_norm_overall = min(self.min_norm_overall, rec.max_norm)
        self.monitors.check(flags, ("s0", "s1", "max_principle"), rec.n)

    def _maybe_snapshot(self, out_dir: Path | None, t: float, u: np.ndarray) -> None:
        if out_dir is None:
            return
        slack = 1e-9 * max(1.0, self.cfg.time.T)
        while self.sched_idx < len(self.schedule) and t >= self.schedule[self.sched_idx] - slack:
            sched_t = self.schedule[self.sched_idx]
            name = f"snap_t{sched_t:g}.acf"
            write_snapshot(str(out_dir / name), u, t)
            if self.cfg.output.snapshot_text:
                write_text_field(str(out_dir / (name + ".txt")), u)
            self.snapshots_written.append(name)
            self.sched_idx += 1

    # -- the march -------------------------------------------------------

    def march(self, out_dir: Path | None) -> None:
        """Fold in every level the step source yields, then close the run."""
        self._maybe_snapshot(out_dir, 0.0, self.state.u_prev)
        levels = self._controller_levels() if self.mesh is None else self._mesh_levels()
        for u, rec, rejected in levels:
            self._reject(rejected)
            self._accept(u, rec)
            self._maybe_snapshot(out_dir, rec.t, u)
        self._finalize_pending(0.0)

    # -- outputs ---------------------------------------------------------

    def build_summary(self) -> dict:
        accepted = [r for r in self.records if r.accepted]
        iters = [r.newton_iters for r in accepted]
        final_rec = accepted[-1] if accepted else None
        return {
            "scheme": self.cfg.time.scheme,
            "eta": self.eta,
            "total_steps": len(accepted),
            "rejected_steps": len(self.records) - len(accepted),
            "final_time": final_rec.t if final_rec else 0.0,
            "energy_initial": self.energy_initial,
            "final_energy": final_rec.energy if final_rec else self.energy_initial,
            "final_modified_energy": (
                final_rec.modified_energy if final_rec else self.energy_initial
            ),
            "max_norm_overall": self.max_norm_overall,
            "min_norm_overall": self.min_norm_overall,
            "newton_iters_median": float(statistics.median(iters)) if iters else 0.0,
            "newton_iters_total": sum(r.newton_iters for r in self.records),
            "constraint_violations": dict(self.monitors.counts),
            "first_violations": dict(self.monitors.first),
            "snapshots": list(self.snapshots_written),
            "aborted": self.aborted,
            "solver_error": self.solver_error,
        }

    def write_outputs(self, out_dir: Path, summary: dict) -> None:
        if self.cfg.output.csv:
            write_steps_csv(out_dir / "steps.csv", self.records)
        (out_dir / "summary.json").write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="ascii"
        )


def run_simulation(cfg: RunConfig) -> RunResult:
    """March a configured run and write its artifacts.

    The artifacts go to the configured ``output.dir``; an empty string
    suppresses them entirely.  Partial artifacts are still written when
    the march stops early (solver failure or an enforced constraint), so
    failed runs leave evidence; the exception then propagates to the
    caller.
    """
    run = _Run(cfg)
    out_path: Path | None = None
    if cfg.output.dir:
        out_path = Path(cfg.output.dir)
        out_path.mkdir(parents=True, exist_ok=True)
    try:
        run.march(out_path)
    except ConstraintAbort as exc:
        run.aborted = exc.name
        raise
    except Exception as exc:
        run.solver_error = str(exc)
        raise
    finally:
        summary = run.build_summary()
        if out_path is not None:
            run.write_outputs(out_path, summary)
    return RunResult(
        records=run.records,
        summary=summary,
        u_final=run.state.u_prev,
        grid=run.grid,
        err_inf=run.err_inf,
    )


def mms_sweep(
    n_list: list[int],
    seed: int,
    M: int = 256,
) -> list[ConvergenceRow]:
    """Accuracy table over a list of step counts, one mesh per count.

    Each count is one in-memory ``random-mesh`` run of the manufactured
    solution with the monitors off; its row takes the run's ``err_inf``,
    largest step, Newton sweeps and count of steps outside the
    zero-stability window.  Every count draws its mesh from the same seed,
    so a finer mesh extends the coarser one's draw sequence; the largest
    steps then shrink in rough proportion to the count and the order column
    stays meaningful.  The order column compares each row with the previous
    one and is NaN on the first row.
    """
    rows: list[ConvergenceRow] = []
    for n_steps in n_list:
        cfg = RunConfig(
            domain=DomainConfig(L=MmsProblem.L, M=M, eps=MmsProblem.eps),
            time=TimeConfig(T=MmsProblem.T, scheme="random-mesh", n=n_steps, seed=seed),
            init=InitConfig(kind="mms"),
            constraints=ConstraintPolicy(s0="off", s1="off", energy_law="off", max_principle="off"),
            output=OutputConfig(dir=""),
        )
        res = run_simulation(cfg)
        tau_max = max(r.tau for r in res.records)
        order = math.nan
        if rows:
            prev = rows[-1]
            order = convergence_order(prev.err_inf, res.err_inf, prev.tau_max, tau_max)
        rows.append(
            ConvergenceRow(
                N=n_steps,
                tau_max=tau_max,
                err_inf=res.err_inf,
                order=order,
                num_ratio_violations=sum(not r.s0_ok for r in res.records),
                newton_iters=[r.newton_iters for r in res.records],
            )
        )
    return rows
