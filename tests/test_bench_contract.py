"""The benchmark's tracer still finds every library name it wraps.

``bench/run.py`` refuses to run when a name the tracer lists is missing, so
a library change that deletes or renames one fails here first.
"""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_finds_every_target(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    tracer = importlib.import_module("tracer")
    tracer.assert_untraced()
    tracer.Tracer()
