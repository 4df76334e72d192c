"""Out-of-program tracing: spans around the calls into each solver layer.

The solver is not edited.  Instead, each probe rebinds a name that a
consumer module imported (``acbdf2.stepper.laplacian_apply``, not
``acbdf2.spatial.laplacian_apply``), so only the calls made through that
module are timed.  A span records its name, its parent span, start and end;
spans stay in memory until the benchmark writes them out at the end.

Probes fail loudly and by name: installing one whose target no longer
exists raises :class:`TraceError`, and so does a run in which a probe the
workload relies on was never called.  A later change that moves a call site
therefore breaks the traced run instead of reporting a layer that silently
reads zero.
"""

from __future__ import annotations

import importlib
import os
import statistics
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

# span slots: [name, parent index, start, end, extra]
NAME, PARENT, START, END, EXTRA = range(5)


class TraceError(RuntimeError):
    """A probe target is missing, was never called, or changed its shape."""


@dataclass(frozen=True)
class Probe:
    """One rebound name: ``module.attr`` or ``module.Class.method``."""

    module: str
    attr: str
    span: str
    # (args, result) -> number stored with the span, e.g. Newton sweeps
    extract: Callable | None = None

    @property
    def key(self) -> str:
        return f"{self.module}.{self.attr}"


def _sweeps(args, result):
    return result[1]


def _trials(args, result):
    return 1 + len(result.rejected)


def _file_bytes(args, result):
    return os.path.getsize(args[0])


PROBES = (
    Probe("acbdf2.stepper", "laplacian_apply", "lap"),
    Probe("acbdf2.stepper", "_pcg", "cg"),
    Probe("acbdf2.stepper", "nonlinear_solve", "solve", _sweeps),
    Probe("acbdf2.stepper", "energy", "energy"),
    Probe("acbdf2.runner", "bdf2_step", "step"),
    Probe("acbdf2.adaptive", "bdf2_step", "step"),
    Probe("acbdf2.runner", "energy", "energy"),
    Probe("acbdf2.runner", "modified_energy", "modified_energy"),
    Probe("acbdf2.runner", "four_bubble_init", "init"),
    Probe("acbdf2.runner", "MmsProblem.exact", "init"),
    Probe("acbdf2.runner", "MmsProblem.source", "source"),
    Probe("acbdf2.runner", "advance", "level", _trials),
    Probe("acbdf2.adaptive", "error_estimate", "estimate"),
    Probe("acbdf2.runner", "write_snapshot", "snapshot", _file_bytes),
    Probe("acbdf2.runner", "write_steps_csv", "csv", _file_bytes),
)


class Tracer:
    """Span recorder plus the probes that feed it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.calls: Counter[str] = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code."""
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def _open(self, name: str) -> list:
        stack = self._stack
        rec = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
        stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = perf_counter()
        self._stack.pop()

    def _wrap(self, probe: Probe, fn):
        calls = self.calls
        key = probe.key

        def traced(*args, **kwargs):
            rec = self._open(probe.span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            calls[key] += 1
            if probe.extract is not None:
                try:
                    rec[EXTRA] = probe.extract(args, result)
                except (AttributeError, IndexError, TypeError, OSError) as exc:
                    raise TraceError(
                        f"{key} no longer has the arguments or result the "
                        f"'{probe.span}' span reads: {exc}"
                    ) from exc
            return result

        return traced

    # -- probes --------------------------------------------------------------

    def install(self, probes=PROBES) -> None:
        """Rebind every probe target; raise TraceError naming a missing one."""
        classes: dict[tuple[str, str], list[Probe]] = {}
        for probe in probes:
            module = importlib.import_module(probe.module)
            owner, _, method = probe.attr.rpartition(".")
            target = getattr(module, owner or method, None)
            if not callable(target) or (owner and not callable(getattr(target, method, None))):
                self.uninstall()
                raise TraceError(f"probe target {probe.key} no longer exists")
            if owner:
                classes.setdefault((probe.module, owner), []).append(probe)
            else:
                self._rebind(module, probe.attr, self._wrap(probe, target))
        # a class the consumer calls methods on is rebound to a subclass
        # whose traced methods forward to the original class
        for (mod_name, owner), members in classes.items():
            module = importlib.import_module(mod_name)
            cls = getattr(module, owner)
            body = {
                p.attr.rpartition(".")[2]: staticmethod(
                    self._wrap(p, getattr(cls, p.attr.rpartition(".")[2]))
                )
                for p in members
            }
            self._rebind(module, owner, type(owner, (cls,), body))

    def _rebind(self, module, attr: str, value) -> None:
        self._restore.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            module, attr, value = self._restore.pop()
            setattr(module, attr, value)

    def require_called(self, keys) -> None:
        """Raise TraceError naming every expected probe that never fired."""
        missing = sorted(k for k in keys if self.calls[k] == 0)
        if missing:
            raise TraceError(
                "probe(s) never called, so their spans would read zero: "
                + ", ".join(missing)
            )

    def write(self, path) -> None:
        """Dump all spans as CSV; times are seconds from the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="ascii") as fh:
            fh.write("index,name,parent,start_s,end_s,extra\n")
            for i, (name, parent, start, end, extra) in enumerate(self.spans):
                fh.write(
                    f"{i},{name},{parent},{start - t0:.9f},{end - t0:.9f},"
                    f"{'' if extra is None else extra}\n"
                )


# -- per-layer metrics -----------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list], root: int, end: int) -> dict[str, float]:
    """Per-layer counts and times of the ``run`` span ``spans[root]``.

    ``spans[root:end]`` are that span and everything recorded inside it.  A
    layer's self time is its spans' duration minus what their direct
    children cover.
    """
    sub = spans[root:end]
    dur = [s[END] - s[START] for s in sub]
    parent = [s[PARENT] - root if s[PARENT] >= root else -1 for s in sub]
    names = [s[NAME] for s in sub]
    child_time = [0.0] * len(sub)
    for i, p in enumerate(parent):
        if p >= 0:
            child_time[p] += dur[i]
    # whether a span lies inside a solve, to count the Laplacians solves make
    in_solve = [False] * len(sub)
    for i, p in enumerate(parent):
        in_solve[i] = p >= 0 and (names[p] == "solve" or in_solve[p])

    total: Counter[str] = Counter()
    self_time: Counter[str] = Counter()
    count: Counter[str] = Counter()
    extra: Counter[str] = Counter()
    lap_in_cg = lap_in_solve = steps_in_level = 0
    energy_s = 0.0
    for i, name in enumerate(names):
        total[name] += dur[i]
        self_time[name] += dur[i] - child_time[i]
        count[name] += 1
        if sub[i][EXTRA] is not None:
            extra[name] += sub[i][EXTRA]
        pname = names[parent[i]] if parent[i] >= 0 else None
        if name == "lap":
            lap_in_cg += pname == "cg"
            lap_in_solve += in_solve[i]
        elif name == "step" and pname == "level":
            steps_in_level += 1
        if name in ("energy", "modified_energy") and pname not in ("energy", "modified_energy"):
            energy_s += dur[i]

    solves, cg_calls, levels = count["solve"], count["cg"], count["level"]
    return {
        "spatial.lap_calls": count["lap"],
        "spatial.lap_s": total["lap"],
        "spatial.lap_us": 1e6 * _ratio(total["lap"], count["lap"]),
        "stepper.solves": solves,
        "stepper.sweeps_per_solve": _ratio(extra["solve"], solves),
        "stepper.lap_per_solve": _ratio(lap_in_solve, solves),
        "stepper.solve_self_s": self_time["solve"],
        "stepper.cg_calls": cg_calls,
        "stepper.cg_iters_per_call": _ratio(lap_in_cg, cg_calls),
        "stepper.cg_self_s": self_time["cg"],
        "stepper.cg_us_per_iter": 1e6 * _ratio(total["cg"], lap_in_cg),
        "stepper.step_self_s": self_time["step"],
        "stepper.energy_calls": count["energy"],
        "stepper.energy_s": energy_s,
        "experiments.source_calls": count["source"],
        "experiments.source_s": total["source"],
        "experiments.init_s": total["init"],
        "adaptive.levels": levels,
        "adaptive.trials_per_level": _ratio(extra["level"], levels),
        "adaptive.accept_ratio": _ratio(levels, extra["level"]),
        "adaptive.solves_per_level": _ratio(steps_in_level, levels),
        "adaptive.estimate_s": total["estimate"],
        "adaptive.self_s": self_time["level"],
        "runner.self_s": self_time["run"],
        "runner.snapshot_s": total["snapshot"],
        "runner.snapshot_bytes": extra["snapshot"],
        "runner.csv_s": total["csv"],
        "runner.csv_bytes": extra["csv"],
    }


def level_times_ms(spans: list[list], root: int, end: int) -> list[float]:
    """Wall time of each level as the run loop sees it, in milliseconds.

    A level runs from the start of one top-level step (``step`` under a mesh
    march, ``level`` under the controller) to the start of the next, so it
    includes the runner's bookkeeping, energies and snapshot writes.
    """
    starts = [
        s[START]
        for s in spans[root + 1:end]
        if s[PARENT] == root and s[NAME] in ("step", "level")
    ]
    return [1e3 * (b - a) for a, b in zip(starts, starts[1:])]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in (0, 100] of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def median(values) -> float:
    return float(statistics.median(values))
