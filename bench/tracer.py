"""In-memory spans around the library's layer boundaries.

The tracer replaces public module attributes of ``contextuality`` with thin
wrappers that record one span per call: name, start, end, parent and the
system being processed, plus a few exact attributes (LP shape, LP outcome,
FME row counts). Wrappers are in place only between ``install`` and
``uninstall``; ``assert_untraced`` lets the timed run prove that none is.

Layers, as the span names give them:

- ``closed_form``: ``bell``/``lg`` ``analyze``, ``minimal_connections``,
  ``delta_interval`` and ``connection_marginal_pairs``.
- ``oracle``: ``delta_extrema``, ``compatible``, ``compatibility_verdicts``.
- ``ratlp.build``: ``LinearProgram`` as imported by ``oracle`` and ``fme``.
- ``ratlp.solve_feas`` / ``ratlp.solve_opt``: ``solve`` as imported by
  ``oracle`` and ``fme``, and ``ratlp.solve`` itself, which ``is_feasible``
  reaches; split by the program's sense.
- ``ratlp.recheck``: the witness and Farkas re-checks inside ``solve``.
- ``fme.derive``, ``fme.substitute``, ``fme.eliminate``, ``fme.prune``:
  ``derive_delta_bounds``, ``substitute_equality``, ``eliminate``,
  ``remove_redundant``.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

from contextuality import bell, fme, lg, oracle, ratlp

_MARK = "__bench_traced__"

# Span record fields.
NAME, PARENT, START, END, SYSTEM, ATTRS = range(6)

FME_STEPS = 4


def _lp_shape(args, kwargs, lp):
    return {"rows": len(lp.constraints), "cols": len(lp.variables)}


def _rows_in(args, kwargs, result):
    return {"rows_in": len(args[0].rows)}


def _rows_in_out(args, kwargs, result):
    return {"rows_in": len(args[0].rows), "rows_out": len(result.rows)}


def _solve_name(args, kwargs):
    return "ratlp.solve_feas" if args[0].sense == "feasibility" else "ratlp.solve_opt"


def _solve_status(args, kwargs, outcome):
    return {"status": outcome.status}


# (module, attribute, span name or function of the call, attribute recorder)
TARGETS = [
    *(
        (module, attr, "closed_form", None)
        for module in (bell, lg)
        for attr in (
            "analyze",
            "minimal_connections",
            "delta_interval",
            "connection_marginal_pairs",
        )
    ),
    (oracle, "delta_extrema", "oracle", None),
    (oracle, "compatible", "oracle", None),
    (oracle, "compatibility_verdicts", "oracle", None),
    (oracle, "LinearProgram", "ratlp.build", _lp_shape),
    (fme, "LinearProgram", "ratlp.build", _lp_shape),
    (oracle, "solve", _solve_name, _solve_status),
    (fme, "solve", _solve_name, _solve_status),
    (ratlp, "solve", _solve_name, _solve_status),
    (ratlp, "_check_witness", "ratlp.recheck", None),
    (ratlp, "_check_farkas", "ratlp.recheck", None),
    (fme, "derive_delta_bounds", "fme.derive", None),
    (fme, "substitute_equality", "fme.substitute", _rows_in),
    (fme, "eliminate", "fme.eliminate", _rows_in),
    (fme, "remove_redundant", "fme.prune", _rows_in_out),
]


# The re-checks are private to ratlp: a version without them is traced
# without the ratlp.recheck span rather than refused. Every other target must
# exist.
OPTIONAL = {(ratlp, "_check_witness"), (ratlp, "_check_farkas")}


def _present_targets():
    return [t for t in TARGETS if (t[0], t[1]) not in OPTIONAL or hasattr(t[0], t[1])]


def assert_untraced() -> None:
    """Raise if any traced attribute is a wrapper instead of the library's own."""
    for module, attr, _, _ in _present_targets():
        if getattr(getattr(module, attr), _MARK, False):
            raise RuntimeError(f"{module.__name__}.{attr} is wrapped in an untraced run")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.system = -1
        self._stack = [-1]
        self._patches = [
            (module, attr, getattr(module, attr), self._wrap(getattr(module, attr), name, record))
            for module, attr, name, record in _present_targets()
        ]

    def _wrap(self, fn, name, record):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(spans)
            label = name if isinstance(name, str) else name(args, kwargs)
            span = [label, stack[-1], 0, 0, self.system, None]
            spans.append(span)
            stack.append(idx)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if record is not None:
                span[ATTRS] = record(args, kwargs, result)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def route(self, system: int, fn, *args):
        """Run ``fn(*args)`` as the root span of one system, wrappers installed."""
        self.system = system
        idx = len(self.spans)
        span = ["route", -1, 0, 0, system, None]
        self.spans.append(span)
        self._stack.append(idx)
        self.install()
        span[START] = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            span[END] = time.perf_counter_ns()
            self.uninstall()
            self._stack.pop()

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines: name, parent, start_ns, end_ns, system, attrs."""
        with path.open("w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span, separators=(",", ":")) + "\n")

    def layer_metrics(self, n_systems: int) -> dict[str, Fraction]:
        """Per-layer figures over ``n_systems`` traced systems, as exact fractions.

        Times are self times (span duration minus its children's durations):
        ``*_ms`` per system, ``*_pct`` as a share of the traced route wall.
        Counts are per system, except ``ratlp.lp_*`` (mean per LP built) and
        ``fme.prune.removed_per_lp`` (rows removed per pruning LP).
        """
        spans = self.spans
        child_ns = [0] * len(spans)
        children = defaultdict(list)
        for idx, span in enumerate(spans):
            if span[PARENT] >= 0:
                child_ns[span[PARENT]] += span[END] - span[START]
                children[span[PARENT]].append(idx)
        self_ns: dict[str, int] = defaultdict(int)
        calls: dict[str, int] = defaultdict(int)
        route_ns = 0
        lp_rows = lp_cols = 0
        infeasible = unbounded = prune_lps = prune_removed = 0
        rows_in = [0] * (FME_STEPS + 1)
        rows_out = [0] * (FME_STEPS + 1)
        for idx, (name, parent, start, end, _, attrs) in enumerate(spans):
            self_ns[name] += end - start - child_ns[idx]
            calls[name] += 1
            if name == "route":
                route_ns += end - start
            elif name == "fme.derive":
                # Step K is the K-th substitution or elimination of one
                # projection, with the pruning that follows it.
                step = 0
                for child in children[idx]:
                    cname, _, _, _, _, cattrs = spans[child]
                    if cattrs is None:
                        continue
                    if cname in ("fme.substitute", "fme.eliminate"):
                        step += 1
                        if step <= FME_STEPS:
                            rows_in[step] += cattrs["rows_in"]
                    elif cname == "fme.prune" and 1 <= step <= FME_STEPS:
                        rows_out[step] += cattrs["rows_out"]
            elif attrs is None:
                continue  # the call raised; the run counts the failure
            elif name == "ratlp.build":
                lp_rows += attrs["rows"]
                lp_cols += attrs["cols"]
            elif name.startswith("ratlp.solve"):
                if name == "ratlp.solve_feas":
                    infeasible += attrs["status"] == "infeasible"
                else:
                    unbounded += attrs["status"] == "unbounded"
                if parent >= 0 and spans[parent][NAME] == "fme.prune":
                    prune_lps += 1
            elif name == "fme.prune":
                prune_removed += attrs["rows_in"] - attrs["rows_out"]

        def per_system(value) -> Fraction:
            return Fraction(value, n_systems)

        def ms(name: str) -> Fraction:
            return Fraction(self_ns[name], n_systems * 1_000_000)

        def pct(name: str) -> Fraction:
            return Fraction(100 * self_ns[name], route_ns)

        def ratio(num: int, den: int) -> Fraction:
            return Fraction(num, den) if den else Fraction(0)

        metrics = {
            "route.traced_ms": Fraction(route_ns, n_systems * 1_000_000),
            "closed_form.self_ms": ms("closed_form"),
            "ratlp.build.self_ms": ms("ratlp.build"),
            "ratlp.solve.self_ms": ms("ratlp.solve_feas") + ms("ratlp.solve_opt"),
            "ratlp.recheck.self_ms": ms("ratlp.recheck"),
            "oracle.self_pct": pct("oracle"),
            "ratlp.solve_feas.self_pct": pct("ratlp.solve_feas"),
            "ratlp.solve_opt.self_pct": pct("ratlp.solve_opt"),
            "fme.substitute.self_pct": pct("fme.substitute"),
            "fme.eliminate.self_pct": pct("fme.eliminate"),
            "fme.prune.self_pct": pct("fme.prune"),
            "oracle.calls": per_system(calls["oracle"]),
            "ratlp.build.calls": per_system(calls["ratlp.build"]),
            "ratlp.solve_feas.calls": per_system(calls["ratlp.solve_feas"]),
            "ratlp.solve_feas.infeasible": per_system(infeasible),
            "ratlp.solve_opt.calls": per_system(calls["ratlp.solve_opt"]),
            "ratlp.solve_opt.unbounded": per_system(unbounded),
            "ratlp.lp_rows": ratio(lp_rows, calls["ratlp.build"]),
            "ratlp.lp_cols": ratio(lp_cols, calls["ratlp.build"]),
            "fme.prune.lps": per_system(prune_lps),
            "fme.prune.removed_per_lp": ratio(prune_removed, prune_lps),
        }
        for step in range(1, FME_STEPS + 1):
            metrics[f"fme.rows_in.step{step}"] = per_system(rows_in[step])
            metrics[f"fme.rows_out.step{step}"] = per_system(rows_out[step])
        return metrics
