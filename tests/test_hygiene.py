"""Source hygiene: no module of the package imports a name it never uses,
and the README names every check suite.

No linter is part of the toolchain, so this parses each module with ``ast``
instead.  ``__init__.py`` is skipped: its imports are the package's exports.
An import line marked ``# noqa: F401`` is kept on purpose and is skipped too.
"""

import ast
import re
from pathlib import Path

import pytest

from nijalg.suites import SUITES

SRC = Path(__file__).resolve().parent.parent / "src" / "nijalg"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


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


def test_readme_lists_every_suite():
    readme = (SRC.parent.parent / "README.md").read_text()
    paragraph = readme.split("Check suites:", 1)[1].split("\n\n", 1)[0]
    assert tuple(re.findall(r"`([^`]+)`", paragraph)) == SUITES
