"""Property: every config the parser accepts runs to a classified exit code.

``acbdf2 run`` must end with 0 (ok), 3 (solver failure) or 4 (enforced
constraint) on any accepted config: never 2, which would mean the parser let
through a config the run then rejects, and never an unclassified exception.
Inputs stay small (M <= 12, T <= 0.05, at most 20 random-mesh steps) so a
draw runs in milliseconds; every scheme and every init kind but ``file`` is
drawn.
"""

import math
import tempfile
from pathlib import Path

import pytest

from acbdf2.cli import EXIT_CONSTRAINT, EXIT_OK, EXIT_SOLVER, main
from acbdf2.config import ConfigError, parse_config

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def floats(lo, hi, log=False):
    """Decimal strings in ``[lo, hi]``, log-uniform when ``log``."""
    if log:
        return st.floats(math.log10(lo), math.log10(hi)).map(lambda x: f"{10.0 ** x:.6g}")
    return st.floats(lo, hi).map(lambda x: f"{x:.6g}")


POLICY = st.sampled_from(["enforce", "warn", "off"])

# always drawn: their defaults (M = 128, T = 1) are not small
SIZE_KEYS = {
    "domain.M": st.integers(2, 12).map(str),
    "time.T": floats(1e-3, 0.05),
}

# drawn or left out: every other key but init.path (the file init is not
# drawn) and output.dir (set per draw); ranges reach past the valid ones
# so rejections stay in play
KEYS = {
    "domain.L": floats(0.5, 2.0),
    "domain.eps": floats(1e-3, 0.5, log=True),
    "domain.origin": st.sampled_from(["0", "-1", "0.5"]),
    "time.scheme": st.sampled_from(["uniform", "adaptive", "random-mesh"]),
    "time.tau": floats(1e-3, 0.05, log=True),
    "time.n": st.integers(1, 20).map(str),
    "time.seed": st.integers(-2, 5).map(str),
    "adaptive.rho": floats(0.1, 1.0),
    "adaptive.tol": floats(1e-8, 1e-1, log=True),
    "adaptive.tau_max": floats(1e-4, 0.1, log=True),
    "adaptive.tau_min": floats(1e-4, 0.1, log=True),
    # caps below 1 are rejected; caps far above any ratio never bind
    "adaptive.ratio_cap": st.one_of(floats(0.5, 4.0), floats(1e3, 1e12, log=True)),
    "adaptive.max_rejects": st.integers(1, 5).map(str),
    "init.kind": st.sampled_from(["four_bubble", "coarsening", "mms"]),
    "init.base": floats(-1.0, 1.0),
    "init.amp": floats(0.0, 1.0),
    "init.seed": st.integers(-2, 5).map(str),
    "newton.tol": floats(1e-18, 1e-6, log=True),
    "newton.max_iter": st.integers(1, 50).map(str),
    "constraints.s0": POLICY,
    "constraints.s1": POLICY,
    "constraints.energy_law": POLICY,
    "constraints.max_principle": POLICY,
    "output.snapshots": st.lists(floats(0.0, 0.05), max_size=3).map(", ".join),
}

DOCUMENTS = st.fixed_dictionaries(SIZE_KEYS, optional=KEYS).map(
    lambda d: "".join(f"{k} = {v}\n" for k, v in d.items())
)


@hypothesis.settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[hypothesis.HealthCheck.filter_too_much],
)
@hypothesis.given(doc=DOCUMENTS)
def test_accepted_configs_exit_0_3_or_4(doc):
    try:
        parse_config(doc)
    except ConfigError:
        hypothesis.reject()
    with tempfile.TemporaryDirectory() as out:
        path = Path(out) / "run.conf"
        path.write_text(doc + f"output.dir = {out}/artifacts\n")
        assert main(["run", str(path)]) in (EXIT_OK, EXIT_SOLVER, EXIT_CONSTRAINT)
