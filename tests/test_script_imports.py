"""Import guard over the data scripts, the two scripts that write
``results/``: each reaches the library only through ``cli.main``, so that a
committed result is always the output of its command and no script keeps a
second copy of a command's writer or verdict.
"""
import ast
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
DATA_SCRIPTS = ("capacity_sweeps.py", "lightcone_scan.py")


def library_imports(tree):
    """(module, name) of each name that the module imports from the
    ``qram_bounds`` package; a plain ``import`` gives (module, None)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names]
    return [(module, name) for module, name in found
            if (module or "").partition(".")[0] == "qram_bounds"]


@pytest.mark.parametrize("name", DATA_SCRIPTS)
def test_data_script_imports_only_cli_main(name):
    tree = ast.parse((SCRIPTS / name).read_text(), filename=name)
    assert library_imports(tree) == [("qram_bounds.cli", "main")]


@pytest.mark.parametrize("source,found", [
    ("import sys\nfrom pathlib import Path\nfrom qram_bounds.cli import main as run\n",
     [("qram_bounds.cli", "main")]),
    ("from qram_bounds.cli import main, _write_cone_csv\n",
     [("qram_bounds.cli", "main"), ("qram_bounds.cli", "_write_cone_csv")]),
    ("from qram_bounds import lattice\nimport qram_bounds.cli, numpy\n",
     [("qram_bounds", "lattice"), ("qram_bounds.cli", None)]),
    ("def f():\n    from qram_bounds.params import tau0\n", [("qram_bounds.params", "tau0")]),
])
def test_guard_finds_every_library_import(source, found):
    assert library_imports(ast.parse(source)) == found
