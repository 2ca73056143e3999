"""Source hygiene: no module of the package imports a name it never uses
or a module outside the standard library, and the README names every check
suite.

No linter is part of the toolchain, so this parses each module with ``ast``
instead.  ``__init__.py`` is skipped: its imports are the package's exports.
An import line marked ``# noqa: F401`` is kept on purpose and is skipped too.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

from nijalg.suites import SUITES

SRC = Path(__file__).resolve().parent.parent / "src" / "nijalg"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
PACKAGE = sorted(SRC.glob("*.py"))


def unused_imports(source: str):
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(
        (line, name)
        for name, line in imported.items()
        if name not in used and "# noqa: F401" not in lines[line - 1]
    )


def test_modules_are_found():
    assert {"base.py", "products.py", "tensor.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_detected():
    source = (
        "import os\nimport a.b\nfrom x import y as z, w\nimport q  # noqa: F401\nprint(w, a)\n"
    )
    assert unused_imports(source) == [(1, "os"), (3, "z")]


def non_stdlib_imports(source: str):
    """(line, module) for every absolute import outside the standard library;
    relative imports are the package's own modules."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [
            (node.lineno, name)
            for name in names
            if name.split(".")[0] not in sys.stdlib_module_names
        ]
    return sorted(found)


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_src_imports_only_the_standard_library(path):
    assert non_stdlib_imports(path.read_text()) == []


def test_non_stdlib_import_is_detected():
    source = (
        "from __future__ import annotations\nimport os.path, numpy as np\n"
        "from .base import x\nfrom . import y\nfrom sympy.core import z\n"
        "def f():\n    import attr\n"
    )
    assert non_stdlib_imports(source) == [(2, "numpy"), (5, "sympy.core"), (7, "attr")]


def test_readme_lists_every_suite():
    readme = (SRC.parent.parent / "README.md").read_text()
    paragraph = readme.split("Check suites:", 1)[1].split("\n\n", 1)[0]
    assert tuple(re.findall(r"`([^`]+)`", paragraph)) == SUITES
