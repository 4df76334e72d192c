"""Solver benchmark: time ``acbdf2.runner.run_simulation`` on fixed workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are ``bubbles_uniform``, ``bubbles_adaptive`` and ``mms_m256``;
``workloads.py`` says why each was chosen.  The solver is imported from
``src/`` next to this directory, with BLAS pinned to one thread.

With ``--trace 0`` the run repeats the workload for ``S`` seconds and
reports the end-to-end metrics: ``run_s`` (median wall time of one
``run_simulation`` call), ``setup_s`` (median time to import ``acbdf2`` and
parse the config, each in a fresh interpreter), ``peak_rss_mb``, and, in the
report only, ``err_inf`` (``mms_m256``) and ``failed_frac``.  With
``--trace 1`` half the time is spent untraced and half traced, and the run
reports the per-layer split of ``tracing.py``, including the tracing
overhead.  Every run's result is checked; a run that raises or fails a check
counts as failed.

Artifacts go to a temporary directory under ``.bench_out/`` that is removed
at the end; the result record (``BENCH_<workload>_trace<k>.json``) and, for a
traced run, its spans (``spans_<workload>.csv``) stay in ``.bench_out/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
# must be set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import machine  # noqa: E402
import tracing  # noqa: E402
from workloads import (  # noqa: E402
    LAP_BYTES_PER_NODE,
    LAP_FLOPS_PER_NODE,
    WORKLOADS,
    check_artifacts,
    config_text,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 7

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
REPORT_ONLY_UNITS = {"err_inf": "1", "failed_frac": "1"}
PER_LAYER_UNITS = {
    "spatial.lap_calls": "count",
    "spatial.lap_s": "s",
    "spatial.lap_us": "us",
    "stepper.solves": "count",
    "stepper.sweeps_per_solve": "sweeps/solve",
    "stepper.lap_per_solve": "calls/solve",
    "stepper.solve_self_s": "s",
    "stepper.cg_calls": "count",
    "stepper.cg_iters_per_call": "iters/call",
    "stepper.cg_self_s": "s",
    "stepper.cg_us_per_iter": "us",
    "stepper.step_self_s": "s",
    "stepper.energy_calls": "count",
    "stepper.energy_s": "s",
    "experiments.source_calls": "count",
    "experiments.source_s": "s",
    "experiments.init_s": "s",
    "adaptive.levels": "count",
    "adaptive.trials_per_level": "trials/level",
    "adaptive.accept_ratio": "1",
    "adaptive.solves_per_level": "solves/level",
    "adaptive.estimate_s": "s",
    "adaptive.self_s": "s",
    "runner.level_ms_p50": "ms",
    "runner.level_ms_p99": "ms",
    "runner.self_s": "s",
    "runner.snapshot_s": "s",
    "runner.snapshot_bytes": "bytes",
    "runner.csv_s": "s",
    "runner.csv_bytes": "bytes",
    "config.parse_s": "s",
    "trace_overhead_frac": "1",
}

# imports acbdf2 and parses the config read from stdin; prints the seconds
_SETUP_CHILD = """\
import sys, time
text = sys.stdin.read()
t0 = time.perf_counter()
import acbdf2
from acbdf2.config import parse_config
parse_config(text)
print(time.perf_counter() - t0)
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def import_solver():
    """Import acbdf2 from this checkout's src/, never from elsewhere."""
    if not (SRC / "acbdf2" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        raise SystemExit(f"benchmark: solver sources not found (need src/acbdf2 and configs/ in {ROOT})")
    sys.path.insert(0, str(SRC))
    import acbdf2

    if Path(acbdf2.__file__).resolve().parent != (SRC / "acbdf2").resolve():
        raise SystemExit(f"benchmark: imported acbdf2 from {acbdf2.__file__}, not from {SRC}")


def measure_setup(text: str) -> list[float]:
    """Import-and-parse time in fresh interpreters, one sample per child."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD],
            input=text, capture_output=True, text=True, env=env, cwd=ROOT,
            timeout=60, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


class Bench:
    """Runs one workload repeatedly and keeps what each run measured."""

    def __init__(self, workload, seed: int, work_dir: Path):
        from acbdf2.config import parse_config
        from acbdf2.runner import run_simulation

        self.parse_config = parse_config
        self.run_simulation = run_simulation
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.out_dir = work_dir / "run"
        self.attempted = 0
        self.failed = 0
        self.checked: dict[str, list[float]] = {}  # values the checks computed
        self.report: dict[str, float] = {}

    def text(self, run: int, warmup: bool = False) -> str:
        out_dir = self.work_dir / "warmup" if warmup else self.out_dir
        return config_text(ROOT, self.workload, self.seed, run, out_dir, warmup)

    def warm_up(self) -> None:
        """One short untimed run, so imports and lazy set-up are done."""
        self.run_simulation(self.parse_config(self.text(0, warmup=True)))

    def _one(self, run: int, tracer: tracing.Tracer | None) -> float:
        if tracer is None:
            cfg = self.parse_config(self.text(run))
            t0 = perf_counter()
            res = self.run_simulation(cfg)
            seconds = perf_counter() - t0
        else:
            with tracer.span("parse"):
                cfg = self.parse_config(self.text(run))
            with tracer.span("run") as rec:
                rec[tracing.EXTRA] = run
                res = self.run_simulation(cfg)
            seconds = rec[tracing.END] - rec[tracing.START]
        check_artifacts(self.out_dir, res)
        for name, value in self.workload.check(cfg, res).items():
            self.checked.setdefault(name, []).append(value)
        return seconds

    def measure(self, budget: float, tracer: tracing.Tracer | None = None) -> list[float | None]:
        """Run for ``budget`` seconds; return each run's wall time, None if it failed.

        A run starts only if the previous one's length still fits in the
        budget, so the phase ends close to it; at least one run is made.
        """
        times: list[float | None] = []
        t_end = perf_counter() + budget
        last = 0.0
        while not times or perf_counter() + last <= t_end:
            self.attempted += 1
            t0 = perf_counter()
            try:
                times.append(self._one(len(times), tracer))
            except tracing.TraceError:
                raise
            except Exception:  # a failed run is counted and reported, not fatal
                self.failed += 1
                times.append(None)
                traceback.print_exc(file=sys.stderr)
            last = perf_counter() - t0
        return times


def good(times: list[float | None]) -> list[float]:
    return [t for t in times if t is not None]


def traced_metrics(bench: Bench, budget: float, untraced: list[float | None]) -> dict[str, float]:
    """Trace ``budget`` seconds of runs and derive the per-layer metrics."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = bench.measure(budget, tracer)
    finally:
        tracer.uninstall()
    tracer.require_called(bench.workload.probes)
    tracer.write(OUT / f"spans_{bench.workload.name}.csv")

    spans = tracer.spans
    roots = [i for i, rec in enumerate(spans) if rec[tracing.NAME] == "run"]
    per_run: list[dict[str, float]] = []
    levels: list[float] = []
    for k, root in enumerate(roots):
        if traced[spans[root][tracing.EXTRA]] is None:
            continue  # a failed run's spans describe no complete march
        end = roots[k + 1] - 1 if k + 1 < len(roots) else len(spans)
        per_run.append(tracing.layer_metrics(spans, root, end))
        levels.extend(tracing.level_times_ms(spans, root, end))
    if not per_run or not levels:
        raise tracing.TraceError("traced phase recorded no complete run")
    parse_s = [rec[tracing.END] - rec[tracing.START] for rec in spans if rec[tracing.NAME] == "parse"]
    # run k of both phases used the same config, so their times pair up
    overhead = [t / u - 1.0 for t, u in zip(traced, untraced) if t is not None and u is not None]

    metrics = {name: tracing.median([m[name] for m in per_run]) for name in per_run[0]}
    metrics["runner.level_ms_p50"] = tracing.percentile(levels, 50)
    metrics["runner.level_ms_p99"] = tracing.percentile(levels, 99)
    metrics["config.parse_s"] = tracing.median(parse_s)
    metrics["trace_overhead_frac"] = tracing.median(overhead)
    bench.report["traced_runs"] = len(good(traced))
    bench.report["levels_sampled"] = len(levels)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    import_solver()
    env = machine.environment(np)
    if env["blas_threads"] not in (None, BLAS_THREADS):
        raise SystemExit(f"benchmark: BLAS runs {env['blas_threads']} threads, not {BLAS_THREADS}")

    OUT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    try:
        bench = Bench(workload, args.seed, work_dir)
        if not args.trace:
            setup = measure_setup(bench.text(0))
        bench.warm_up()
        untraced = bench.measure(args.seconds / 2 if args.trace else args.seconds)
        if not good(untraced):
            raise SystemExit("benchmark: every run failed")
        if args.trace:
            metrics = traced_metrics(bench, args.seconds / 2, untraced)
            units = PER_LAYER_UNITS
        else:
            metrics = {
                "run_s": tracing.median(good(untraced)),
                "setup_s": tracing.median(setup),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            }
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for name, values in bench.checked.items():
        bench.report[name] = tracing.median(values)
    bench.report["failed_frac"] = bench.failed / bench.attempted
    bench.report["untraced_runs"] = len(good(untraced))
    correct = bench.failed == 0
    result = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = dict(result, workload=workload.name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, report=bench.report, environment=env,
                  run_s_samples=untraced)
    (OUT / f"BENCH_{workload.name}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="ascii"
    )

    print_report(args, workload, env, metrics, units, bench, good(untraced))
    print(json.dumps(result))
    return 0 if correct else 1


def print_report(args, workload, env, metrics, units, bench, untraced) -> None:
    cache = " ".join(f"{k}={v}KiB" for k, v in env["cache_kib"].items())
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(
        f"env python {env['python']}, numpy {env['numpy']}, {env['blas']} with "
        f"{env['blas_threads']} thread(s), nproc {env['nproc']} "
        f"({env['cpus_usable']} usable), cpu {env['cpu']}, caches {cache}"
    )
    print("note " + machine.cache_note(env["cache_kib"]))
    print(
        f"note Laplacian per call, computed: {LAP_FLOPS_PER_NODE} flops and "
        f"{LAP_BYTES_PER_NODE} bytes per node (M=128: "
        f"{LAP_BYTES_PER_NODE * 128 * 128 / 1e6:.2f} MB, M=256: "
        f"{LAP_BYTES_PER_NODE * 256 * 256 / 1e6:.2f} MB)"
    )
    rows = dict(metrics)
    row_units = dict(units)
    for name in ("err_inf", "failed_frac"):
        if name in bench.report:
            rows[name] = bench.report[name]
            row_units[name] = REPORT_ONLY_UNITS[name]
    for name, value in rows.items():
        print(f"metric {name} {value:.6g} {row_units[name]}")
    # the highest percentile with at least ten runs beyond it
    tail = [q for q in (99, 95, 90, 75, 50) if len(untraced) * (100 - q) >= 1000]
    print(
        f"samples run_s {len(untraced)} untraced runs"
        + (f", p{tail[0]} {tracing.percentile(untraced, tail[0]):.6g} s" if tail else "")
        + f"; {bench.attempted} attempted, {bench.failed} failed"
    )


if __name__ == "__main__":
    sys.exit(main())
