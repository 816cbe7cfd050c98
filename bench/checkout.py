"""Locate the library source in the checkout that holds this benchmark."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_source() -> None:
    """Put the checkout's ``src`` first on the import path, or exit with code 2.

    The benchmark measures the library as it stands in this checkout, never
    an installed copy, so a checkout without ``src/contextuality`` is an error.
    """
    if not (SRC / "contextuality" / "__init__.py").is_file():
        print(f"benchmark: no library source at {SRC / 'contextuality'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def check_imported(module) -> None:
    """Exit with code 2 unless ``module`` was loaded from the checkout's ``src``."""
    origin = Path(module.__file__).resolve()
    if SRC not in origin.parents:
        print(f"benchmark: {module.__name__} was imported from {origin}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
