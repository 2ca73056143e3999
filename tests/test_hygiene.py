"""Source hygiene: no module of the package imports a name it never uses
or a module outside the standard library, importing the package loads no
code-generation module, every definition has a caller outside the tests,
every attribute the package assigns is read outside the tests, and the
README names every check suite and infix product.

No linter is part of the toolchain, so this parses each module with ``ast``
instead.  ``__init__.py`` is skipped: its imports are the package's exports.
An import line marked ``# noqa: F401`` is kept on purpose and is skipped too.
"""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

from nijalg.expr import BINOPS
from nijalg.suites import _SUITES, SUITES

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


def test_import_loads_no_code_generation_modules():
    # every CLI run starts a fresh interpreter; dataclasses builds each class
    # by exec and loads the other four, which nijalg does not use.  -S leaves
    # out site, whose imports differ between hosts.
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import nijalg, nijalg.cli; "
        "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'} & set(sys.modules)))"
    )
    run = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert (run.returncode, run.stdout) == (0, "[]\n"), run.stderr


def split_scalars(source: str):
    """(line, attribute) of each ``numerator`` or ``denominator`` attribute
    that ``source`` reads."""
    return sorted(
        (node.lineno, node.attr)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in ("numerator", "denominator")
    )


@pytest.mark.parametrize("name", ["products.py", "oracle.py", "dendriform.py"])
def test_scalars_are_split_only_by_ratio(name):
    # these modules compute with λ's ints (p, q), which base.ratio gives
    assert split_scalars((SRC / name).read_text()) == []


def test_split_scalar_is_detected():
    source = (
        '"""the numerator of lam"""\nlam = 2\n'
        "p, q = (lam.numerator,\n        lam.denominator)\n"
        'numerator = getattr(lam, "numerator")\n'
    )
    assert split_scalars(source) == [(3, "numerator"), (4, "denominator")]


# the definitions only tests call, each kept for a reason
TEST_ONLY = {
    "grade_lengths": "the acceptance gate asserts the grading of every product with it",
    "TensorElement.zero": "the value that identity tests compare each defect with",
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


def reads(tree, classes):
    """(name, line, owner, bare) of each name and attribute that ``tree``
    reads.  A bare name's owner is the class whose body reads it directly,
    as ``__rmul__ = _scale`` does, and None anywhere else, a method's body
    included.  An attribute's owner is the class it is read through, as
    ``Class.name`` for a class in ``classes`` or as ``self.name`` /
    ``cls.name`` inside a class, and None otherwise."""
    found = []

    def visit(node, inside, body):
        if isinstance(node, ast.ClassDef):
            inside = body = node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            body = None
        if isinstance(node, ast.Name):
            found.append((node.id, node.lineno, body, True))
        elif isinstance(node, ast.Attribute):
            base = node.value.id if isinstance(node.value, ast.Name) else None
            owner = inside if base in ("self", "cls") else base if base in classes else None
            found.append((node.attr, node.lineno, owner, False))
        for child in ast.iter_child_nodes(node):
            visit(child, inside, body)

    visit(tree, None, None)
    return found


def bench_references(sources):
    """(qualified names, attribute names) that the benchmark's code reaches:
    each ``SPANS`` / ``COUNTED`` entry, and each attribute its modules read.
    Its docstrings and comments reach nothing."""
    qualnames, attributes = set(), set()
    for text in sources.values():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
                table = node.targets[0].id
                if table in ("SPANS", "COUNTED"):
                    for value in node.value.values:  # SPANS: names; COUNTED: (layer, name)
                        names = [item.value for item in value.elts]
                        qualnames.update(names if table == "SPANS" else names[1:])
    return qualnames, attributes


def uncalled(sources, bench=None):
    """Qualified names of the definitions in ``sources`` (module name -> source)
    that no name or attribute outside their own definition reads, in any of
    the modules, and that the benchmark's code (``bench``, module name ->
    source) does not reach either.  A bare name calls a method only in its
    own class's body, so a local variable of the same name calls nothing.  A
    method whose name another class's method shares is called only by a read
    through its own class, or by its qualified name in ``SPANS`` /
    ``COUNTED``."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    methods = {}  # method name -> the classes that define it
    for tree in trees.values():
        for qualname, _ in definitions(tree):
            if "." in qualname:
                owner, name = qualname.split(".")
                methods.setdefault(name, set()).add(owner)
    classes = {owner for owners in methods.values() for owner in owners}
    readers = {}  # name -> (module, line, owner, bare) of every read
    for module, tree in trees.items():
        for name, *read in reads(tree, classes):
            readers.setdefault(name, []).append((module, *read))
    bench_qualnames, bench_attributes = bench_references(bench or {})
    found = []
    for module, tree in trees.items():
        for qualname, node in definitions(tree):
            owner, _, name = qualname.rpartition(".")
            shared = len(methods.get(name, ())) > 1 and owner
            own = range(node.lineno, node.end_lineno + 1)
            called = any(
                (where != module or line not in own)
                and (via == owner if bare and owner else not shared or via == owner)
                for where, line, via, bare in readers.get(name, ())
            )
            reached = qualname in bench_qualnames or (not shared and name in bench_attributes)
            if not called and not reached:
                found.append(qualname)
    return sorted(found)


def test_every_src_definition_has_a_caller():
    sources = {path.name: path.read_text() for path in MODULES}
    bench = {path.name: path.read_text() for path in sorted(BENCH.rglob("*.py"))}
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
            "    def zero(self):\n        zero = 0\n        return zero\n"
            "    def _scale(self, c):\n        return c\n"
            "    __mul__ = __rmul__ = _scale\n"
        ),
        # a local variable named like a method calls nothing; the alias in
        # Box's body calls Box._scale
        "b.py": "from a import Box\n\ndef traced():\n    zero = Box\n    return zero\n",
    }
    bench = {"tracing.py": 'SPANS = {"a": ("traced", "Box.run")}\n'}
    assert uncalled(sources, bench) == ["Box.loop", "Box.zero", "dead"]
    assert uncalled(sources) == ["Box.loop", "Box.run", "Box.zero", "dead", "traced"]


def test_benchmark_text_calls_nothing():
    # a word in the benchmark's docstrings or comments is not a read; an
    # attribute it reads and a COUNTED entry are
    sources = {"a.py": "def zero():\n    pass\n\ndef read():\n    pass\n\ndef hot():\n    pass\n"}
    bench = {
        "workloads.py": '"""A result reads as zero."""\n# zero\nimport a\na.read()\n',
        "tracing.py": 'COUNTED = {"a.hot.calls": ("a", "hot")}\n',
    }
    assert uncalled(sources, bench) == ["zero"]


def test_shared_method_name_is_read_through_its_own_class():
    # Box.zero and Bag.zero share a name: Box's is read through its class,
    # Bag's only through an object of unknown class, which calls neither
    sources = {
        "a.py": (
            "class Box:\n"
            "    def zero(self):\n        return 0\n"
            "    def one(self):\n        return self.zero() + 1\n"
            "class Bag:\n"
            "    def zero(self):\n        return 0\n"
            "    def size(self):\n        return 0\n"
        ),
        "b.py": (
            "from a import Bag, Box\n\n"
            "def f(x):\n    return Box.one(x) + x.zero() + x.size()\n\n"
            "f(Bag())\n"
        ),
    }
    assert uncalled(sources) == ["Bag.zero"]
    # nor does the benchmark reading an attribute of that name; its
    # qualified name in SPANS does
    assert uncalled(sources, {"tracing.py": "import a\na.thing.zero\n"}) == ["Bag.zero"]
    assert uncalled(sources, {"tracing.py": 'SPANS = {"a": ("Bag.zero",)}\n'}) == []


# the attributes only tests read, each kept for a reason
TEST_ONLY_ATTRIBUTES = {
    "ExprSyntaxError.line": "the line of the error's position, which tests compare",
    "ExprSyntaxError.col": "the column of the error's position, which tests compare",
}


def attribute_writes(tree, module):
    """(qualified name, attribute) of each attribute ``tree`` assigns; the
    qualifier is the class whose body holds the assignment, or ``module``."""
    found = set()

    def visit(node, owner):
        if isinstance(node, ast.ClassDef):
            owner = node.name
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            found.add((f"{owner}.{node.attr}", node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, module)
    return found


def attribute_reads(tree):
    """The attribute names ``tree`` reads, an augmented assignment's target
    included.  A read through a name the module imports reads a module's or
    an imported object's attribute, not an object's state, and does not
    count."""
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute):
            found.add(node.target.attr)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if not (isinstance(node.value, ast.Name) and node.value.id in imported):
                found.add(node.attr)
    return found


def write_only(sources, bench=None):
    """Qualified names of the attributes that ``sources`` (module name ->
    source) assign and that no module of ``sources`` or ``bench`` reads."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = set()
    for text in (bench or {}).values():
        read |= attribute_reads(ast.parse(text))
    for tree in trees.values():
        read |= attribute_reads(tree)
    return sorted(
        {
            qualname
            for module, tree in trees.items()
            for qualname, attr in attribute_writes(tree, module.removesuffix(".py"))
            if attr not in read
        }
    )


def test_every_src_attribute_is_read():
    sources = {path.name: path.read_text() for path in PACKAGE}
    bench = {path.name: path.read_text() for path in sorted(BENCH.rglob("*.py"))}
    assert write_only(sources, bench) == sorted(TEST_ONLY_ATTRIBUTES)


def test_write_only_attribute_is_detected():
    sources = {
        "a.py": (
            "import b\n\n"
            "class Box:\n"
            "    def __init__(self):\n"
            "        self.size = self.kept = self.count = self.tag = self.lost = 0\n"
            "    def grow(self):\n        self.count += 1\n        return self.size\n\n"
            "def make():\n    box = Box()\n    box.extra = b.lost\n    return box\n"
        ),
        # the module b's attribute `lost` is not Box's
        "b.py": "lost = 0\n",
    }
    bench = {"workloads.py": "def read(box):\n    return box.tag\n"}
    assert write_only(sources, bench) == ["Box.kept", "Box.lost", "a.extra"]
    assert write_only(sources) == ["Box.kept", "Box.lost", "Box.tag", "a.extra"]


def test_readme_lists_every_suite():
    readme = (ROOT / "README.md").read_text()
    paragraph = readme.split("Check suites:", 1)[1].split("\n\n", 1)[0]
    assert tuple(re.findall(r"`([^`]+)`", paragraph)) == SUITES


def test_readme_lists_the_suites_that_check_every_lambda():
    readme = (ROOT / "README.md").read_text()
    sentence = readme.split(" check every `--lambda` given.", 1)[0].rsplit("\n\n", 1)[1]
    unfixed = tuple(name for name, (_, fixed) in _SUITES.items() if fixed is None)
    assert tuple(re.findall(r"`([^`]+)`", sentence)) == unfixed


def test_readme_lists_every_infix_product():
    readme = (ROOT / "README.md").read_text()
    bullet = readme.split("- Infix products", 1)[1].split("\n- ", 1)[0]
    # the symbols follow the colon; `+`/`-` before it name the sum's level
    assert tuple(re.findall(r"`([^`]+)`", bullet.split(":", 1)[1])) == BINOPS
