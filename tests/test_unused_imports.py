"""No module of the package imports a name it never uses.

A standard-library stand-in for a linter's F401 check: an imported name
counts as used when it appears as a name anywhere in the module (attribute
chains start with one) or in ``__all__``.  An import kept on purpose is
marked ``# noqa: F401`` on its own line.
"""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nlslab"
_NOQA = re.compile(r"#\s*noqa:[^#]*\bF401\b")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` and never used, unless marked."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(
        name
        for name, line in imported.items()
        if name not in used and not _NOQA.search(lines[line - 1])
    )


def test_scan_finds_unused_and_honours_the_marker():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from math import (\n"
        "    fsum,\n"
        "    pi,  # noqa: F401 - kept for a caller\n"
        "    tau,\n"
        ")\n"
        "__all__ = ['tau']\n"
        "x = np.zeros(3)\n"
    )
    assert unused_imports(source) == ["fsum", "os"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_has_no_unused_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []
