"""The package root: a version number and nothing else; and no dead code in src."""

import ast
import json
import os
import re
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


def _definitions(tree):
    """Top-level functions and classes of a module, and their non-dunder methods."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, kinds) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item.name


def _references(tree, with_strings=False):
    """Names a module uses: loads and attributes, imports, and optionally the
    dotted parts of its string constants (the benchmark's probe targets)."""
    seen = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            seen.add(node.id)
        elif isinstance(node, ast.Attribute):
            seen.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            seen.update(alias.name.rpartition(".")[2] for alias in node.names)
        elif with_strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            seen.update(re.findall(r"\w+", node.value))
    return seen


def test_every_src_function_has_a_non_test_caller():
    # src keeps no test-only forms: each function, class and method is used
    # by the package itself, by the benchmark, or is a console entry point
    root = SRC.parent
    pyproject = (root / "pyproject.toml").read_text(encoding="utf-8")
    used = set(re.findall(r'"acbdf2\.\w+:(\w+)"', pyproject))
    defined = {}
    for path in sorted((SRC / "acbdf2").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used |= _references(tree)
        for qualname, name in _definitions(tree):
            defined[f"{path.stem}.{qualname}"] = name
    for path in sorted((root / "perfbench").glob("*.py")):
        used |= _references(ast.parse(path.read_text(encoding="utf-8")), with_strings=True)
    unused = sorted(qualname for qualname, name in defined.items() if name not in used)
    assert unused == []
