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
    """Names a module uses, as ``(loaded, attributes)``.

    ``loaded`` holds the bare names it loads and the names it imports;
    ``attributes`` the attributes it reads and, optionally, the dotted parts
    of its string constants (the benchmark's probe targets).  A bare name
    that is only assigned, such as a local variable, is neither.
    """
    loaded, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            loaded.update(alias.name.rpartition(".")[2] for alias in node.names)
        elif with_strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            attributes.update(re.findall(r"\w+", node.value))
    return loaded, attributes


def test_every_src_function_has_a_non_test_caller():
    # src keeps no test-only forms: each function, class and method is used
    # by the package itself, by the benchmark, or is a console entry point.
    # A method is reached only as an attribute (or a probe string), so a
    # local variable of the same name does not count as its use
    root = SRC.parent
    pyproject = (root / "pyproject.toml").read_text(encoding="utf-8")
    loaded = set(re.findall(r'"acbdf2\.\w+:(\w+)"', pyproject))
    attributes = set()
    defined = {}
    for path in sorted((SRC / "acbdf2").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names, attrs = _references(tree)
        loaded |= names
        attributes |= attrs
        for qualname, name in _definitions(tree):
            defined[f"{path.stem}.{qualname}"] = (name, "." in qualname)
    for path in sorted((root / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names, attrs = _references(tree, with_strings=True)
        loaded |= names
        attributes |= attrs
    unused = sorted(
        key
        for key, (name, is_method) in defined.items()
        if name not in attributes and (is_method or name not in loaded)
    )
    assert unused == []
