"""Command-line front end.

Subcommands:

* ``run CONFIG``: march one configured problem, write artifacts.
* ``mms``: accuracy sweep over a list of step counts and seeds.
* ``check-kernels``: dump kernel tables and inverse-identity residuals.

Each exit code has one exception base, and :func:`main` alone maps them:
0 success; 2 bad input (:class:`~acbdf2.config.ConfigError`) or output
that cannot be written (``OSError``); 3 solver failure
(:class:`~acbdf2.stepper.SolverFailure`); 4 enforced-constraint abort
(:class:`~acbdf2.runner.ConstraintAbort`).  Subcommands raise and never
print an error; any other exception is a bug and ends in its traceback.
Flags override config keys; ``--seed`` overrides the time-mesh seed and
the initial-state seed together.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
from pathlib import Path

from .config import ConfigError, parse_config
from .experiments import random_mesh
from .kernels import (
    complementary_row,
    identity_residual,
    recombined_kernels,
    run_eta,
    step_kernels,
)
from .runner import ConstraintAbort, mms_sweep, run_simulation
from .stepper import SolverFailure
from .time_mesh import TimeMesh

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_CONSTRAINT = 4


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    overrides = list(args.set or [])
    if args.seed is not None:
        overrides += [f"time.seed = {args.seed}", f"init.seed = {args.seed}"]
    if args.out is not None:
        overrides += [f"output.dir = {args.out}"]
    if overrides:
        text = text + "\n" + "\n".join(overrides) + "\n"
    s = run_simulation(parse_config(text)).summary
    print(
        f"completed {s['total_steps']} steps ({s['rejected_steps']} rejected) "
        f"to t = {s['final_time']:g}; final energy {s['final_energy']:.6g}, "
        f"max norm {s['max_norm_overall']:.6g}"
    )
    return EXIT_OK


def _cmd_mms(args: argparse.Namespace) -> int:
    try:
        n_list = [int(part) for part in args.n_list.split(",")]
        seeds = [int(part) for part in args.seeds.split(",")]
    except ValueError as exc:
        raise ConfigError("--n-list and --seeds must be comma-separated integers") from exc
    if not n_list or not seeds or min(n_list) < 1:
        raise ConfigError("need at least one positive step count and one seed")
    if min(seeds) < 0:
        raise ConfigError("--seeds cannot be negative")
    if args.m < 2:
        raise ConfigError("--m must be at least 2")
    out_dir = Path(args.out)
    header = "N,tau_max,err_inf,order,num_ratio_violations"
    for seed in seeds:
        rows = mms_sweep(n_list, seed, M=args.m)
        lines = [header]
        for row in rows:
            lines.append(
                f"{row.N},{_fmt(row.tau_max)},{_fmt(row.err_inf)},"
                f"{_fmt(row.order)},{row.num_ratio_violations}"
            )
        path = out_dir / f"convergence_seed{seed}.csv"
        # made only now, so a sweep that refuses its mesh leaves nothing
        out_dir.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n", encoding="ascii")
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_check_kernels(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise ConfigError("--n must be at least 1")
    if args.seed < 0:
        raise ConfigError("--seed cannot be negative")
    if args.uniform is not None:
        if not 0.0 < args.uniform < math.inf:
            raise ConfigError("--uniform step must be positive and finite")
        horizon = args.uniform * args.n
        if not horizon < math.inf:
            raise ConfigError("--uniform step times --n must be finite")
        mesh = TimeMesh.uniform(horizon, args.n)
    else:
        if not 0.0 < args.total_time < math.inf:
            raise ConfigError("--total-time must be positive and finite")
        mesh = random_mesh(args.n, args.total_time, args.seed)
    if args.eta is not None:
        eta = args.eta
        if not 0.0 < eta < 1.0:
            raise ConfigError("--eta must lie in (0, 1)")
    else:
        eta = run_eta(float(mesh.ratios.max()))
    d_rows = []
    lines = ["n,j,b0,b1,d_j,Q_j,identity_residual"]
    steps = zip(mesh.steps.tolist(), mesh.ratios.tolist())
    for n, (tau, ratio) in enumerate(steps, start=1):
        k = step_kernels(tau, ratio)
        d = recombined_kernels(k, eta, n)
        # row n of Q needs the recombined rows 1..n alone
        d_rows.append(d)
        q = complementary_row(d_rows, n)
        for j in range(0, n + 1):
            q_j = _fmt(q[j]) if j < n else "nan"
            res = (
                _fmt(identity_residual(d_rows, q, n, j)) if 1 <= j <= n else "nan"
            )
            lines.append(
                f"{n},{j},{_fmt(k.b0)},{_fmt(k.b1)},{_fmt(d[j])},{q_j},{res}"
            )
    text = "\n".join(lines) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="ascii")
        print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acbdf2",
        description="variable-step two-step solver for the periodic Allen-Cahn equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="march one configured problem")
    p_run.add_argument("config", help="path to a section.key = value config file")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override time-mesh and initial-state seeds together")
    p_run.add_argument("--out", default=None, help="override the output directory")
    p_run.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override any config key (repeatable)")
    p_run.set_defaults(func=_cmd_run)

    p_mms = sub.add_parser("mms", help="accuracy sweep on random meshes")
    p_mms.add_argument("--n-list", default="10,20,40,80",
                       help="comma-separated step counts")
    p_mms.add_argument("--seeds", default="0,1,2", help="comma-separated seeds")
    p_mms.add_argument("--m", type=int, default=256, help="grid nodes per direction")
    p_mms.add_argument("--out", default="out", help="output directory")
    p_mms.set_defaults(func=_cmd_mms)

    p_ck = sub.add_parser("check-kernels", help="dump kernel tables and residuals")
    p_ck.add_argument("--n", type=int, default=12, help="number of mesh steps")
    p_ck.add_argument("--seed", type=int, default=0, help="random-mesh seed")
    p_ck.add_argument("--total-time", type=float, default=1.0,
                      help="random-mesh horizon")
    p_ck.add_argument("--uniform", type=float, default=None,
                      help="use a uniform mesh with this step instead")
    p_ck.add_argument("--eta", type=float, default=None,
                      help="recombination weight (default: choose from the mesh)")
    p_ck.add_argument("--out", default="-", help="output CSV path, '-' for stdout")
    p_ck.set_defaults(func=_cmd_check_kernels)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        for msg in exc.errors:
            print(msg, file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ConstraintAbort as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return EXIT_CONSTRAINT


if __name__ == "__main__":
    sys.exit(main())
