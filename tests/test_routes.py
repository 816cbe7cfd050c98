"""The three routes stay independent: the closed forms (``cyclic``), the LP
oracle (``oracle``) and the projection (``fme``) import none of each other's
machinery, so that each one cross-checks the others. The closed forms and
the time-ordered reading have one home, ``cyclic``: ``bell`` and ``lg`` only
name its functions, and the oracle computes no signed-sum maximum."""

import ast
from pathlib import Path

import pytest

from contextuality import bell, cyclic

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


# The library's own modules, by the name a relative import gives them.
MODULES = {path.stem for path in SRC.glob("*.py")} - {"__init__"}


@pytest.mark.parametrize("module", ["bell", "lg"])
def test_kind_modules_are_names_over_cyclic(module):
    # bell and lg only name cyclic's closed forms for their kind
    assert _imported(module) & MODULES <= {"cyclic", "core"}


def test_oracle_keeps_no_closed_form():
    # the closed half of compatibility_verdicts is cyclic.connections_compatible
    tree = ast.parse((SRC / "oracle.py").read_text(encoding="utf-8"))
    used = {getattr(node, "id", None) or getattr(node, "attr", None) for node in ast.walk(tree)}
    maxima = {"max_signed_sum_odd", "max_signed_sum_even", "_max_signed_sum"}
    assert not (_imported("oracle") | used) & maxima


def test_bell_names_are_cyclic_functions():
    for name in ("analyze", "minimal_connections", "delta0", "degree", "delta_interval"):
        assert getattr(bell, name) is getattr(cyclic, name)


def _calls_check_causal(module: str) -> bool:
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    return any(
        isinstance(node, ast.Call)
        and "check_causal" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        for node in ast.walk(tree)
    )


def test_only_cyclic_checks_causality():
    # the time-ordered reading has one home: every other module passes causal on
    assert {module for module in MODULES if _calls_check_causal(module)} == {"cyclic"}
