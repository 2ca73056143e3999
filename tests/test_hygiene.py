"""Source hygiene: no module of the package imports a name it never uses
or a module outside the standard library, every definition has a caller
outside the tests, and the README names every check suite.

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

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "nijalg"
BENCH = ROOT / "nijbench"
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


# the definitions only tests call, each kept for a reason
TEST_ONLY = {
    "grade_lengths": "the acceptance gate asserts the grading of every product with it",
    "DendriformContext.prec_head_form": "the reference that prec is tested against",
    "DendriformContext.succ_head_form": "the reference that succ is tested against",
    "DendriformContext.bullet_head_form": "the reference that bullet is tested against",
}


def definitions(tree):
    """(qualified name, node) of each top-level function and class and each
    non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item


def uncalled(sources, elsewhere: str = ""):
    """Qualified names of the definitions in ``sources`` (module name -> source)
    that no name or attribute outside their own definition reads, in any of
    the modules, and that the text ``elsewhere`` does not name either."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    readers = {}  # name -> (module, line) of every read
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                readers.setdefault(node.id, []).append((module, node.lineno))
            elif isinstance(node, ast.Attribute):
                readers.setdefault(node.attr, []).append((module, node.lineno))
    found = []
    for module, tree in trees.items():
        for qualname, node in definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            own = range(node.lineno, node.end_lineno + 1)
            if not any(
                where != module or line not in own for where, line in readers.get(name, ())
            ) and not re.search(rf"\b{re.escape(name)}\b", elsewhere):
                found.append(qualname)
    return sorted(found)


def test_every_src_definition_has_a_caller():
    sources = {path.name: path.read_text() for path in MODULES}
    bench = "\n".join(path.read_text() for path in sorted(BENCH.rglob("*.py")))
    assert uncalled(sources, bench) == sorted(TEST_ONLY)


def test_dead_definition_is_detected():
    sources = {
        "a.py": (
            "def used():\n    return 1\n\n"
            "def dead():\n    return dead()\n\n"
            "class Box:\n"
            "    def run(self):\n        return used()\n"
            "    def loop(self):\n        return self.loop()\n"
            "    def __len__(self):\n        return 0\n"
        ),
        "b.py": "from a import Box\n\ndef traced():\n    return Box\n",
    }
    assert uncalled(sources, 'SPANS = ("traced", "Box.run")') == ["Box.loop", "dead"]
    assert uncalled(sources) == ["Box.loop", "Box.run", "dead", "traced"]


def test_readme_lists_every_suite():
    readme = (ROOT / "README.md").read_text()
    paragraph = readme.split("Check suites:", 1)[1].split("\n\n", 1)[0]
    assert tuple(re.findall(r"`([^`]+)`", paragraph)) == SUITES
