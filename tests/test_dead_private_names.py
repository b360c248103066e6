"""No module of the package defines a private name that nothing uses.

A private name has one leading underscore (dunders are not private).  One
bound at module level by an assignment, ``def`` or ``class`` counts as used
when any module of the package reads it as a name, names it as an attribute
(``relaxation._relax``) or imports it.  A constant or helper left behind
when its last reader is deleted fails here.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nlslab"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def defined_private_names(tree: ast.Module) -> set[str]:
    """Private names bound by the module's top-level statements."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return {name for name in names if _is_private(name)}


def referenced_names(tree: ast.Module) -> set[str]:
    """Names the module reads, names as an attribute, or imports."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """``module:name`` for each private top-level name no module uses."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    used = set().union(*(referenced_names(tree) for tree in trees.values()))
    return sorted(
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in defined_private_names(tree) - used
    )


def test_scan_finds_dead_names_across_modules():
    sources = {
        "a": (
            "_READ = 1\n"
            "_DEAD, _ALSO_DEAD = 2, 3\n"
            "_typed: int = 4\n"
            "__version__ = '1'\n"
            "def _imported(): return _READ\n"
            "def _unused(): pass\n"
            "class _ByAttribute: pass\n"
            "def public(): _local = 5\n"
        ),
        "b": "import a\nfrom a import _imported\nx = a._ByAttribute\n",
    }
    assert dead_private_names(sources) == ["a:_ALSO_DEAD", "a:_DEAD", "a:_typed", "a:_unused"]


def test_package_has_no_dead_private_name():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert dead_private_names(sources) == []
