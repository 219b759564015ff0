"""Dead-code guard over the program source: every private name defined at
module level in ``src/qram_bounds`` is used somewhere in ``src/`` or
``scripts/``, every public one is exported by the package's ``__init__.py``
or used in ``src/`` or ``scripts/``, and every name that a module of ``src/``, ``scripts/`` or
``tests/`` imports is used in it. The package's ``__init__.py`` is exempt
from the last check, as its imports are the public names it exports.
"""
import ast
import functools
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "qram_bounds").glob("*.py"))
PACKAGE_INIT = ROOT / "src" / "qram_bounds" / "__init__.py"
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
SOURCES = sorted((ROOT / "src").rglob("*.py")) + SCRIPTS
IMPORTERS = ([p for p in PACKAGE if p.name != "__init__.py"] + SCRIPTS
             + sorted((ROOT / "tests").glob("*.py")))


def definitions(tree):
    """The names that the module body binds by def, class or assignment,
    except dunder names."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if not n.startswith("__")]


def private_definitions(tree):
    """The private names (one leading underscore) that the module body binds."""
    return [n for n in definitions(tree) if n.startswith("_")]


def public_definitions(tree):
    return [n for n in definitions(tree) if not n.startswith("_")]


def exports(tree):
    """The names that a package ``__init__`` binds by import."""
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def uses(tree):
    """How often each name is read, as a bare name or as an attribute."""
    return Counter([n.id for n in ast.walk(tree)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)]
                   + [n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)])


def unused_imports(tree):
    """The names that the module's imports bind and nothing in it reads."""
    bound = [alias.asname or alias.name.partition(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names]
    read = uses(tree)
    return [name for name in bound if not read[name]]


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


@functools.cache
def source_uses():
    return sum((uses(parse(source)) for source in SOURCES), Counter())


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: path.name)
def test_private_names_are_used(path):
    read = source_uses()
    assert [name for name in private_definitions(parse(path)) if not read[name]] == []


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: path.name)
def test_public_names_are_exported_or_used(path):
    read, exported = source_uses(), exports(parse(PACKAGE_INIT))
    assert [name for name in public_definitions(parse(path))
            if name not in exported and not read[name]] == []


@pytest.mark.parametrize("path", IMPORTERS, ids=lambda path: path.name)
def test_imports_are_used(path):
    assert unused_imports(parse(path)) == []


@pytest.mark.parametrize("source,private,public,unused", [
    ("import math, numpy as np\nfrom . import lattice\n_K = 1\n"
     "def _f(): return np.pi\nclass _C: pass\n_a, _b = 1, 2\nclass Row: pass\n",
     ["_f", "_C", "_K", "_a", "_b"], ["Row"], ["math", "lattice"]),
    ("from __future__ import annotations\nimport os.path\n__all__ = []\n"
     "def f(x: os.PathLike): return _g\n", [], ["f"], []),
])
def test_guard_finds_unused_names(source, private, public, unused):
    tree = ast.parse(source)
    read = uses(tree)
    assert sorted(private_definitions(tree)) == sorted(private)
    assert [name for name in private if read[name]] == []
    assert [name for name in public_definitions(tree) if not read[name]] == public
    assert unused_imports(tree) == unused


def test_guard_reads_the_package_exports():
    tree = ast.parse("from .qram import (QramError, verify_retrieval as check)\n"
                     "__version__ = '0'\n")
    assert exports(tree) == {"QramError", "check"}
