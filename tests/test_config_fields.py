"""Every experiment config field decides something in a run.

A field counts as read when some module of the package loads an attribute
of that name outside ``config_echo``, which copies every field into the
outputs and so reads them all.  A field only the echo reads is a key that
changes the output bytes and nothing else.
"""

import ast
from dataclasses import fields
from pathlib import Path

from nlslab.harness import ExperimentConfig

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nlslab"


def attributes_read(source: str, skip: str = "config_echo") -> set[str]:
    """Attribute names loaded in ``source``, outside the function ``skip``."""
    read: set[str] = set()

    def visit(node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == skip:
            return
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return read


def test_scan_skips_the_echo_and_stores():
    source = (
        "def config_echo(cfg):\n"
        "    return cfg.only_echoed\n"
        "def run(cfg, out):\n"
        "    out.written = cfg.decides\n"
    )
    assert attributes_read(source) == {"decides"}


def test_every_config_field_is_read_outside_the_echo():
    read = set().union(*(attributes_read(p.read_text()) for p in PACKAGE.glob("*.py")))
    assert [f.name for f in fields(ExperimentConfig) if f.name not in read] == []
