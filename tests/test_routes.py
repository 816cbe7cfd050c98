"""The three routes stay independent: the closed forms (``cyclic``), the LP
oracle (``oracle``) and the projection (``fme``) import none of each other's
machinery, so that each one cross-checks the others."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "contextuality"


def _imported(module: str) -> set[str]:
    """Every dotted part of every name ``module``'s source imports."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    parts = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts.update((node.module or "").split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            parts.update(part for alias in node.names for part in alias.name.split("."))
    return parts


def test_relative_imports_are_seen():
    # "from . import cyclic" and "from .ratlp import ..." both count
    assert {"cyclic", "ratlp", "core"} <= _imported("oracle")


@pytest.mark.parametrize(
    "module, others",
    [
        ("cyclic", {"oracle", "fme", "ratlp"}),
        ("oracle", {"fme"}),
        ("fme", {"oracle"}),
        # the LP kernel serves the oracle and knows no route
        ("ratlp", {"cyclic", "oracle", "fme"}),
    ],
)
def test_routes_do_not_import_each_other(module, others):
    assert not _imported(module) & others
