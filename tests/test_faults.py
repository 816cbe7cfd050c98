"""A table of faults in the routes themselves, and the checks that catch them.

``test_verify`` corrupts a route's answer; here each entry breaks one module
global that a route is built from, the way a wrong edit to the library
would, and records which ``verify.verify_kind`` checks fire on six seeded
systems. Caches built from the patched global are cleared before the fault
goes in and after it comes out, so no other test sees a faulty template.
"""

from dataclasses import dataclass, replace
from typing import Callable

import pytest

from contextuality import cyclic, fme, oracle, verify
from contextuality.core import max_signed_sum_even
from contextuality.generators import pr_signaling_family

SAMPLES, SEED = 6, 0


def _swap_bell_connections(cycles):
    # (A11, A12), (A21, A22) become (A11, A22), (A21, A12)
    variables, observed, connections = cycles["bell"]
    swapped = (("A11", "A22"), ("A21", "A12")) + connections[2:]
    return {**cycles, "bell": (variables, observed, swapped)}


def _merge_first_two_rows(plan):
    # the first row's bound becomes the least over both rows' candidates, as
    # if the two rows were parallel
    def wrong(*args, **kw):
        p = plan(*args, **kw)
        if len(p.terms) < 2:
            return p
        return replace(p, terms=(p.terms[0] + p.terms[1],) + p.terms[1:])

    return wrong


@dataclass(frozen=True)
class Fault:
    name: str
    module: object
    attr: str
    # the faulty value, from the original one
    broken: Callable
    caches: tuple
    kind: str
    fires: frozenset


FAULTS = [
    Fault(
        "cyclic_odd_parity",
        cyclic, "max_signed_sum_odd", lambda odd: max_signed_sum_even, (),
        "bell", frozenset({"degree", "interval", "criterion_vs_polytope"}),
    ),
    Fault(
        "oracle_swapped_connection",
        oracle, "_CYCLES", _swap_bell_connections,
        (oracle._fan, oracle._cell_names, oracle._template),
        "bell",
        frozenset(
            {"degree", "interval", "fme_interval", "criterion_vs_polytope", "connection_verdicts"}
        ),
    ),
    Fault(
        "fme_wrong_merge",
        fme, "_plan", _merge_first_two_rows, (fme._chain,),
        "bell", frozenset({"fme_interval"}),
    ),
]


def _clear(caches):
    for cache in caches:
        cache.cache_clear()


def _fired(kind) -> set[str]:
    summary = verify.verify_kind(kind, samples=SAMPLES, seed=SEED)
    return {check for check, count in summary.counts().items() if count}


@pytest.mark.parametrize("fault", FAULTS, ids=lambda f: f.name)
def test_fault_fires_its_checks(fault, monkeypatch):
    try:
        with monkeypatch.context() as patch:
            _clear(fault.caches)
            patch.setattr(fault.module, fault.attr, fault.broken(getattr(fault.module, fault.attr)))
            fired = _fired(fault.kind)
    finally:
        _clear(fault.caches)
    assert fired == fault.fires
    assert _fired(fault.kind) == set()  # the caches hold the library's own again


def test_bell_upper_bound_parity_shows_on_the_pr_box(monkeypatch):
    # The statistic-driven upper bound with the even parity at n = 4 lets the
    # PR box's mismatch reach 4, yet no coupling of it reaches past 3. No
    # system verify draws on seed 0 (100 of each kind) exposes this fault,
    # so a fixed system carries it.
    pr_box = pr_signaling_family(1, 0)
    assert cyclic.delta_interval(pr_box) == (1, 3)
    signed_sum = cyclic._max_signed_sum
    monkeypatch.setattr(
        cyclic, "_max_signed_sum",
        lambda values, parity: signed_sum(values, 1 - parity if len(values) == 4 else parity),
    )
    assert cyclic.delta_interval(pr_box) == (1, 4)
