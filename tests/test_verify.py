from dataclasses import replace

import pytest

from contextuality import cyclic, fme, oracle, verify

# Per check: the route to corrupt and how, so that only that check disagrees.
FAULTS = {
    "degree": (cyclic, "analyze", lambda r: replace(r, degree=r.degree + 1)),
    "interval": (cyclic, "analyze", lambda r: replace(r, delta_max=r.delta_max + 1)),
    "fme_interval": (fme, "derive_delta_bounds", lambda b: (b[0], b[1] + 1)),
    "criterion_vs_polytope": (
        oracle, "report", lambda r: replace(r, feasible_at_c0=not r.feasible_at_c0)
    ),
    "connection_verdicts": (oracle, "compatibility_verdicts", lambda v: (v[0], not v[1])),
    "classic_reduction": (
        cyclic, "analyze", lambda r: replace(r, classic_satisfied=not r.classic_satisfied)
    ),
}


@pytest.mark.parametrize("kind", ["bell", "lg"])
@pytest.mark.parametrize("check", verify.CHECKS)
def test_each_check_detects_a_disagreeing_route(check, kind, monkeypatch):
    module, name, corrupt = FAULTS[check]
    route = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kw: corrupt(route(*args, **kw)))
    # sample 0 is no-signaling, so every check runs on it
    summary = verify.verify_kind(kind, samples=1, seed=0)
    assert summary.checks_run == len(verify.CHECKS)
    assert summary.counts()[check] == 1
    assert summary.first_failure.check == check and summary.first_failure.sample_index == 0

