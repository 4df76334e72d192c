"""The benchmark's workloads: generated configs and the checks on each result.

Every workload is a config shipped in ``configs/`` with override lines
appended (later assignments win), so the solver only ever receives a config
document.  The workload seed reaches the solver through that document: the
k-th run of ``mms_m256`` draws its time mesh from seed ``1000 * seed + k``.
Cycling meshes within one benchmark run keeps its median from resting on a
single mesh, whose CG work alone varies by about 5% from seed to seed.  The
two bubble workloads have no random input, so their seed changes nothing.

Why these three workloads:

* ``bubbles_uniform``: ``four_bubble_uniform.conf`` cut to T = 0.2 (200
  steps at M = 128, tau = 1e-3).  Each step is cheap (3 Newton sweeps,
  about 3.5 CG iterations per linear solve), so fixed per-step costs
  dominate: about 13 Laplacian calls, two energy evaluations and buffer
  allocation per step.  Per-step cost cuts show here, and so does a
  costlier preconditioner, as a regression.
* ``bubbles_adaptive``: ``four_bubble_adaptive.conf`` as shipped, to T = 30
  (348 levels, 695 nonlinear solves).  The only workload that runs the
  adaptive controller: two solves per level, the error estimate and the
  accept/reject logic.  Newton needs about 4 sweeps per solve here, so a
  better Newton start shows here and not on ``bubbles_uniform``.
* ``mms_m256``: ``mms_single.conf`` on random time meshes drawn from the
  workload seed, at M = 256.  CG-bound (37 to 50 iterations per call, about
  85% of wall time) and the only workload with a source term (about 16%).
  A preconditioner or a source cache shows here and nowhere else.

Coarsening (``coarsening_uniform.conf``) is left out on purpose.  Its
diffusion number eps^2/h^2 = 1.64 and its large-step Newton/CG mix are those
of the coasting phase of ``bubbles_adaptive``, so it would add runs to every
check and cover no layer the three above do not.

Every workload also writes snapshots and ``steps.csv``, so output cost is
measured on each of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Final energies recorded at the seed commit with BLAS pinned to one thread.
BUBBLES_UNIFORM_ENERGY = 0.09693924026756642
BUBBLES_ADAPTIVE_ENERGY = 0.04786709520943304

# A converged Newton solve leaves a residual of at most newton.tol, which
# moves the field by at most about newton.tol * tau per step, so by
# newton.tol * T over the march.  The energy moves by at most that times the
# area L^2 times the chemical potential, which stays below 30 on these grids;
# the slack adds a factor of about 30 on top.
ENERGY_SLACK = 1e3

# Largest final-time max-norm error of mms_m256 over mesh seeds 0-59 at the
# seed commit (they range from 1.18e-4 to 1.72e-4), and the share by which a
# run may exceed it.  A lost order of accuracy moves the error by orders of
# magnitude, far beyond the share.
MMS_ERR_INF = 1.7205e-4
MMS_ERR_BOUND = 0.25

# Laplacian cost per call, computed from the array passes of the 5-point
# sum-of-differences kernel: 8 flops and 31 float64 passes per node.
LAP_FLOPS_PER_NODE = 8
LAP_BYTES_PER_NODE = 31 * 8


class CheckFailed(RuntimeError):
    """A run finished but its result is wrong."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def check_artifacts(out_dir: Path, result) -> None:
    """steps.csv holds one row per record and every listed snapshot exists."""
    rows = (out_dir / "steps.csv").read_text(encoding="ascii").count("\n") - 1
    _require(rows == len(result.records), f"steps.csv has {rows} rows, run made {len(result.records)}")
    _require((out_dir / "summary.json").is_file(), "summary.json missing")
    for name in result.summary["snapshots"]:
        _require((out_dir / name).is_file(), f"snapshot {name} missing")


def _check_energy(cfg, summary, reference: float) -> None:
    atol = ENERGY_SLACK * cfg.time.T * cfg.newton.tol * cfg.domain.L**2
    got = summary["final_energy"]
    _require(
        abs(got - reference) <= atol,
        f"final energy {got!r} differs from {reference!r} by more than {atol:g}",
    )


def _check_final_time(cfg, summary) -> None:
    T = cfg.time.T
    _require(
        abs(summary["final_time"] - T) <= 1e-9 * T,
        f"run stopped at t = {summary['final_time']!r}, not T = {T!r}",
    )


def check_bubbles_uniform(cfg, result) -> dict[str, float]:
    s = result.summary
    steps = round(cfg.time.T / cfg.time.tau)
    _require(s["total_steps"] == steps, f"{s['total_steps']} steps, expected {steps}")
    _require(s["max_norm_overall"] <= 1.0, f"max norm {s['max_norm_overall']!r} above 1")
    _check_final_time(cfg, s)
    _check_energy(cfg, s, BUBBLES_UNIFORM_ENERGY)
    return {}


def check_bubbles_adaptive(cfg, result) -> dict[str, float]:
    _check_final_time(cfg, result.summary)
    _check_energy(cfg, result.summary, BUBBLES_ADAPTIVE_ENERGY)
    return {}


def check_mms(cfg, result) -> dict[str, float]:
    from acbdf2.experiments import MmsProblem

    _check_final_time(cfg, result.summary)
    X, Y = result.grid.meshgrid()
    exact = MmsProblem.exact(X, Y, result.summary["final_time"])
    err = float(np.max(np.abs(result.u_final - exact)))
    limit = MMS_ERR_INF * (1.0 + MMS_ERR_BOUND)
    _require(math.isfinite(err) and err <= limit, f"err_inf {err:g} above {limit:g}")
    return {"err_inf": err}


@dataclass(frozen=True)
class Workload:
    name: str
    conf: str  # shipped config the workload starts from
    overrides: str  # appended lines; "{mesh_seed}" is the run's mesh seed
    warmup: str  # appended for one short untimed run first
    probes: tuple[str, ...]  # probe keys the traced run must see called
    check: Callable


_COMMON_PROBES = (
    "acbdf2.stepper.laplacian_apply",
    "acbdf2.stepper._pcg",
    "acbdf2.stepper.nonlinear_solve",
    "acbdf2.stepper.energy",
    "acbdf2.runner.energy",
    "acbdf2.runner.modified_energy",
    "acbdf2.runner.write_snapshot",
    "acbdf2.runner.write_steps_csv",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="bubbles_uniform",
            conf="four_bubble_uniform.conf",
            overrides="time.T = 0.2\noutput.snapshots = 0.1, 0.2\n",
            warmup="time.T = 0.01\noutput.snapshots =\n",
            probes=_COMMON_PROBES + (
                "acbdf2.runner.bdf2_step",
                "acbdf2.runner.four_bubble_init",
            ),
            check=check_bubbles_uniform,
        ),
        Workload(
            name="bubbles_adaptive",
            conf="four_bubble_adaptive.conf",
            overrides="",
            warmup="time.T = 0.05\noutput.snapshots =\n",
            probes=_COMMON_PROBES + (
                "acbdf2.adaptive.bdf2_step",
                "acbdf2.runner.advance",
                "acbdf2.adaptive.error_estimate",
                "acbdf2.runner.four_bubble_init",
            ),
            check=check_bubbles_adaptive,
        ),
        Workload(
            name="mms_m256",
            conf="mms_single.conf",
            overrides="time.seed = {mesh_seed}\noutput.snapshots = 0.5, 1\n",
            warmup="time.n = 2\noutput.snapshots =\n",
            probes=_COMMON_PROBES + (
                "acbdf2.runner.bdf2_step",
                "acbdf2.runner.MmsProblem.exact",
                "acbdf2.runner.MmsProblem.source",
            ),
            check=check_mms,
        ),
    )
}


def config_text(
    root: Path, workload: Workload, seed: int, run: int, out_dir: Path, warmup: bool = False
) -> str:
    """The config document the solver receives for run ``run`` of a seed."""
    base = (root / "configs" / workload.conf).read_text(encoding="utf-8")
    mesh_seed = 1000 * seed + run
    extra = workload.warmup if warmup else workload.overrides.format(mesh_seed=mesh_seed)
    return f"{base}\n# appended by the benchmark\n{extra}output.dir = {out_dir}\n"
