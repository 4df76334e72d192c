"""The benchmark's probe contract, checked against the solver as it stands.

``perfbench/tracing.py`` times each solver layer by rebinding names in the
``acbdf2`` modules (its ``PROBES``), and each workload of
``perfbench/workloads.py`` lists the probes its traced run must see called.
A change that renames a probed function, moves its call site or changes
the arguments or result a probe reads breaks the traced benchmark; these
tests catch it first.  Both files are loaded as they are, without writing
anything under ``perfbench/``.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from acbdf2.config import parse_config
from acbdf2.runner import run_simulation

ROOT = Path(__file__).resolve().parent.parent


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module here
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


tracing = _load("tracing")
workloads = _load("workloads")

# Appended to each workload's config: T or n cut to two levels (the
# adaptive one needs its second level for the error estimate) and one
# snapshot kept, at the end.
SHORT = {
    "bubbles_uniform": "time.T = 0.002\noutput.snapshots = 0.002\n",
    "bubbles_adaptive": "time.T = 0.003\noutput.snapshots = 0.003\n",
    "mms_m256": "time.n = 2\noutput.snapshots = 1\n",
}


def test_every_probe_target_resolves():
    tracer = tracing.Tracer()
    try:
        tracer.install()  # raises TraceError naming a missing target
    finally:
        tracer.uninstall()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_short_traced_run_calls_every_probe(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    text = workloads.config_text(ROOT, workload, 0, 0, tmp_path) + SHORT[name]
    cfg = parse_config(text)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # a probe that can no longer read its arguments or result raises
        result = run_simulation(cfg)
    finally:
        tracer.uninstall()
    tracer.require_called(workload.probes)
    assert len(result.summary["snapshots"]) == 1
    workloads.check_artifacts(tmp_path, result)


# mms_m256's meshes whose final error sits closest to the check's limit
# MMS_ERR_INF * (1 + MMS_ERR_BOUND): 99.25%, 92.5% and 90.9% of it. As
# (workload seed, run): the k-th run of seed s draws mesh 1000 s + k.
THIN_MMS_MESHES = [(2, 22), (9, 60), (6, 0)]


@pytest.mark.parametrize("seed, run", THIN_MMS_MESHES, ids=["2022", "9060", "6000"])
def test_mms_check_passes_where_its_margin_is_thinnest(seed, run, tmp_path):
    workload = workloads.WORKLOADS["mms_m256"]
    cfg = parse_config(workloads.config_text(ROOT, workload, seed, run, tmp_path))
    # raises the benchmark's own failure on an error above the limit
    workloads.check_mms(cfg, run_simulation(cfg))
