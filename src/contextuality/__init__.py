"""Exact decision and measurement of contextuality under arbitrary signaling.

Two system layouts are supported: Bell-type (two parties, two binary settings
each, four observed pair distributions) and temporal Leggett-Garg-type (three
time points, three observed pair distributions), the cyclic systems of rank 4
and 3, whose closed forms ``cyclic`` writes once and ``bell`` and ``lg`` only
name. Everything is computed in exact rational arithmetic; each closed-form
quantity has an independent LP oracle over the full joint-distribution polytope
and, for the mismatch interval, a third Fourier-Motzkin projection route.
"""

from . import bell, cyclic, fme, generators, lg, oracle, ratlp, verify
from .core import (
    BellSystem,
    CausalityViolationError,
    FrechetViolationError,
    InvalidArityError,
    LGSystem,
    PairDistribution,
    Violation,
    as_fraction,
    max_signed_sum_even,
    max_signed_sum_odd,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "BellSystem",
    "CausalityViolationError",
    "FrechetViolationError",
    "InvalidArityError",
    "LGSystem",
    "PairDistribution",
    "Violation",
    "as_fraction",
    "bell",
    "cyclic",
    "fme",
    "generators",
    "lg",
    "max_signed_sum_even",
    "max_signed_sum_odd",
    "oracle",
    "ratlp",
    "validate",
    "verify",
    "__version__",
]
