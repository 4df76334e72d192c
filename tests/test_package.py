"""The package root: a version number and nothing else."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_CHILD = """\
import json, sys
import acbdf2
print(json.dumps({
    "file": acbdf2.__file__,
    "loaded": sorted(m for m in sys.modules if m.startswith("acbdf2.")),
}))
"""


def test_importing_the_root_loads_no_submodule():
    # a fresh interpreter, so no earlier test has imported a submodule
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=60, check=True,
    )
    seen = json.loads(proc.stdout)
    assert Path(seen["file"]).resolve().parent == (SRC / "acbdf2").resolve()
    assert seen["loaded"] == []
