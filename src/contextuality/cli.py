"""Command-line front end.

Subcommands: ``analyze`` a single system document, ``sweep`` the correlated
family over a rational parameter grid, ``verify`` the closed forms against
the LP oracle on seeded random systems, and ``derive`` the mismatch bounds
of a concrete system by Fourier-Motzkin projection.

All numbers cross the I/O boundary as exact strings ("3/4" or "0.75");
``--decimals`` switches the display to rounded decimals without affecting
any computation.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import contextmanager
from fractions import Fraction
from typing import Optional

from . import cyclic, fme, oracle
from .core import (
    KINDS,
    CausalityViolationError,
    FrechetViolationError,
    PairDistribution,
    System,
    as_fraction,
    validate,
)
from .generators import pr_signaling_family
from .verify import run_verification

EXIT_NONCONTEXTUAL = 0
EXIT_CONTEXTUAL = 1
EXIT_INPUT_ERROR = 2

# Largest sweep grid, per range and in total: each point costs an exact
# analysis (and an LP with --oracle), so an unbounded grid runs unbounded.
MAX_GRID_POINTS = 10_000

# Largest --decimals: every printed value is below 100 in size, so it prints
# at most K + 2 digits, within CPython's default 4300-digit int-to-string limit.
MAX_DECIMALS = 4298

_PAIR_KEYS = {kind: tuple(f"{i}{j}" for i, j in cls.PAIRS) for kind, cls in KINDS.items()}
_CELL_FIELDS = ("pp", "pm", "mp", "mm")
_EXPECTATION_FIELDS = ("x", "y", "xy")


class DocumentError(ValueError):
    """A system document failed to parse; pinpoints pair and field."""

    def __init__(self, message: str, pair: Optional[str] = None, field: Optional[str] = None):
        super().__init__(message)
        self.pair = pair
        self.field = field


def parse_system_document(data: object) -> System:
    """Build a system from a parsed JSON document.

    Expected shape: {"kind": "bell"|"lg", "representation": "cells"|
    "expectations", "pairs": {<pair>: {<field>: number}}} with pairs
    "11","12","21","22" (bell) or "12","13","23" (lg); cell fields
    pp/pm/mp/mm, expectation fields x/y/xy. Numbers may be fraction strings,
    decimal strings, or JSON numbers; JSON booleans are rejected.
    """
    if not isinstance(data, dict):
        raise DocumentError("document must be a JSON object")
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in _PAIR_KEYS:
        raise DocumentError(f"kind must be 'bell' or 'lg', got {kind!r}")
    representation = data.get("representation", "cells")
    if representation not in ("cells", "expectations"):
        raise DocumentError(
            f"representation must be 'cells' or 'expectations', got {representation!r}"
        )
    pairs_doc = data.get("pairs")
    if not isinstance(pairs_doc, dict):
        raise DocumentError("missing 'pairs' object")
    fields = _CELL_FIELDS if representation == "cells" else _EXPECTATION_FIELDS
    built = {}
    for key in _PAIR_KEYS[kind]:
        if key not in pairs_doc:
            raise DocumentError(f"missing pair {key!r}", pair=key)
        entry = pairs_doc[key]
        if not isinstance(entry, dict):
            raise DocumentError(f"pair {key!r} must be an object", pair=key)
        values = []
        for field in fields:
            if field not in entry:
                raise DocumentError(
                    f"pair {key!r} is missing field {field!r}", pair=key, field=field
                )
            try:
                if isinstance(entry[field], bool):  # JSON true/false, not a number
                    raise TypeError("a boolean is not a number")
                values.append(as_fraction(entry[field]))
            except (ValueError, TypeError, ZeroDivisionError) as exc:
                raise DocumentError(
                    f"pair {key!r} field {field!r}: cannot read {entry[field]!r} "
                    f"as an exact rational",
                    pair=key,
                    field=field,
                ) from exc
        if representation == "cells":
            built[key] = PairDistribution(*values)
        else:
            try:
                built[key] = PairDistribution.from_expectations(*values)
            except FrechetViolationError as exc:
                raise DocumentError(f"pair {key!r}: {exc}", pair=key) from exc
    return KINDS[kind](*(built[key] for key in _PAIR_KEYS[kind]))


def load_system(path: str) -> System:
    """Read a system document; a JSON number keeps its decimal text, which
    ``as_fraction`` reads exactly (a float would round it first)."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle, parse_float=str)
        except ValueError as exc:  # bad JSON or UTF-8, or an over-long integer
            raise DocumentError(f"{path} is not valid JSON: {exc}") from exc
        except RecursionError as exc:
            raise DocumentError(f"{path} nests deeper than the JSON reader can follow") from exc
    return parse_system_document(data)


class UnprintableValueError(ValueError):
    """An exact result has a term too long for CPython to print."""


@contextmanager
def _printing_exact():
    """Report CPython's int-to-string digit limit as ``UnprintableValueError``."""
    try:
        yield
    except ValueError as exc:
        raise UnprintableValueError(
            "an exact result has a numerator or denominator over CPython's "
            f"{sys.get_int_max_str_digits()}-digit limit for printing integers"
        ) from exc


def _fmt(value: Fraction, decimals: Optional[int] = None) -> str:
    if decimals is None:
        with _printing_exact():
            return str(value)
    rounded = round(value, decimals)
    scaled = abs(rounded) * 10**decimals
    digits = str(int(scaled)).rjust(decimals + 1, "0")
    sign = "-" if rounded < 0 else ""
    if decimals == 0:
        return sign + digits
    return f"{sign}{digits[:-decimals]}.{digits[-decimals:]}"


def _analysis_payload(system, causal: bool, with_oracle: bool, decimals):
    report = cyclic.analyze(system, causal)
    fmt = lambda v: _fmt(v, decimals)
    payload = {
        "kind": system.KIND,
        "provenance": "closed-form",
        "values": {
            "delta0": fmt(report.delta0),
            "statistic": fmt(report.statistic),
            "delta_min": fmt(report.delta_min),
            "delta_max": fmt(report.delta_max),
            "degree": fmt(report.degree),
        },
        "verdicts": {
            "noncontextual": report.noncontextual,
            "signaling": report.signaling,
            "classic_inequality_satisfied": report.classic_satisfied,
        },
        "slacks": {name: fmt(v) for name, v in cyclic.slacks(system).items()},
    }
    if system.CAUSAL:
        payload["causal"] = causal
    if with_oracle:
        lo, hi = oracle.delta_extrema(system)
        odeg = max(Fraction(0), lo - report.delta0)
        payload["oracle"] = {
            "delta_min": fmt(lo),
            "delta_max": fmt(hi),
            "degree": fmt(odeg),
            "agrees": (lo, hi) == (report.delta_min, report.delta_max)
            and odeg == report.degree,
        }
    return payload, report


def _render_text(payload: dict) -> str:
    lines = [f"kind: {payload['kind']}"]
    if "causal" in payload:
        lines.append(f"causal: {str(payload['causal']).lower()}")
    for section in ("values", "verdicts", "slacks", "oracle"):
        if section not in payload:
            continue
        lines.append(f"{section}:")
        for name, value in payload[section].items():
            shown = str(value).lower() if isinstance(value, bool) else value
            lines.append(f"  {name}: {shown}")
    return "\n".join(lines)


def _input_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT_ERROR


def _load_valid(path: str) -> Optional[System]:
    """The system document at ``path``, or None once every reason it cannot
    be used has been reported."""
    try:
        system = load_system(path)
    except (DocumentError, OSError) as exc:
        _input_error(str(exc))
        return None
    violations = validate(system)
    for v in violations:
        print(f"error: pair {v.pair}: {v.description}", file=sys.stderr)
    return None if violations else system


def cmd_analyze(args) -> int:
    if args.decimals is not None and not 0 <= args.decimals <= MAX_DECIMALS:
        return _input_error(f"--decimals must be between 0 and {MAX_DECIMALS}")
    system = _load_valid(args.input)
    if system is None:
        return EXIT_INPUT_ERROR
    try:
        payload, report = _analysis_payload(
            system, args.causal, args.oracle, args.decimals
        )
    except CausalityViolationError as exc:
        return _input_error(f"{exc} (pass --no-causal for the generalized treatment)")
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(_render_text(payload))
    return EXIT_NONCONTEXTUAL if report.noncontextual else EXIT_CONTEXTUAL


def _parse_range(text: str) -> list[Fraction]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"range must be start:stop:step, got {text!r}")
    start, stop, step = (as_fraction(p) for p in parts)
    if start == stop:
        return [start]
    if step <= 0:
        raise ValueError(f"range step must be positive, got {step}")
    count = (stop - start) // step + 1 if stop >= start else 0
    if count > MAX_GRID_POINTS:
        raise ValueError(
            f"range {text!r} has {count} points; at most {MAX_GRID_POINTS} are allowed"
        )
    return [start + k * step for k in range(count)]


def cmd_sweep(args) -> int:
    try:
        deltas = _parse_range(args.delta)
        epsilons = _parse_range(args.epsilon)
    except (ValueError, ZeroDivisionError) as exc:
        return _input_error(str(exc))
    if len(deltas) * len(epsilons) > MAX_GRID_POINTS:
        return _input_error(
            f"grid has {len(deltas) * len(epsilons)} points; "
            f"at most {MAX_GRID_POINTS} are allowed"
        )
    header = ["delta", "epsilon", "delta0", "chsh_stat", "degree_closed"]
    if args.oracle:
        header.append("degree_oracle")
    header += ["classic_chsh", "no_signaling", "skipped"]
    try:
        out = open(args.out, "w", newline="", encoding="utf-8")
    except OSError as exc:
        return _input_error(str(exc))
    with out:
        writer = csv.writer(out)
        writer.writerow(header)
        for d in deltas:
            for e in epsilons:
                row = [_fmt(d), _fmt(e)]
                try:
                    system = pr_signaling_family(d, e)
                except FrechetViolationError:
                    writer.writerow(row + [""] * (len(header) - 3) + ["1"])
                    continue
                report = cyclic.analyze(system)
                row += [_fmt(report.delta0), _fmt(report.statistic), _fmt(report.degree)]
                if args.oracle:
                    row.append(_fmt(oracle.degree(system)))
                row += [
                    "1" if report.classic_satisfied else "0",
                    "1" if not report.signaling else "0",
                    "0",
                ]
                writer.writerow(row)
    return 0


def cmd_verify(args) -> int:
    if args.samples < 1:
        return _input_error("--samples must be at least 1")
    summaries = run_verification(kind=args.kind, samples=args.samples, seed=args.seed)
    total_failures = 0
    for summary in summaries:
        counts = summary.counts()
        shown = ", ".join(f"{name}={count}" for name, count in counts.items() if count)
        line = (
            f"kind={summary.kind} samples={summary.samples} "
            f"checks={summary.checks_run} mismatches={len(summary.failures)}"
        )
        if summary.failures:
            first = summary.first_failure
            line += (
                f" [{shown}] first_failure: sample {first.sample_index} "
                f"(seed {first.seed}) {first.check}: {first.detail}"
            )
        print(line)
        total_failures += len(summary.failures)
    print(f"total mismatches: {total_failures}")
    return 0 if total_failures == 0 else 1


def cmd_derive(args) -> int:
    system = _load_valid(args.input)
    if system is None:
        return EXIT_INPUT_ERROR
    projected = fme.project_to_delta(system)
    lo, hi = fme._interval(projected)
    with _printing_exact():
        text = projected.format()
        interval = f"interval: [{lo}, {hi}]"
    print(f"projected mismatch constraints ({system.KIND}):")
    print(text)
    print(interval)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contextuality",
        description="Exact (non)contextuality decisions and degrees for "
        "Bell-type and temporal systems with arbitrary signaling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="analyze one system document")
    p_analyze.add_argument("input", help="path to a JSON system document")
    p_analyze.add_argument("--oracle", action="store_true", help="append LP-oracle values")
    p_analyze.add_argument(
        "--causal",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="time-ordered treatment of temporal systems (default); the "
        "generalized one charges the first connection too",
    )
    p_analyze.add_argument("--format", choices=("json", "text"), default="text")
    p_analyze.add_argument("--decimals", type=int, default=None, metavar="K",
                           help="display numbers rounded to K decimals instead of exact fractions")
    p_analyze.set_defaults(func=cmd_analyze)

    p_sweep = sub.add_parser("sweep", help="sweep a parametric family to CSV")
    p_sweep.add_argument("--family", choices=("pr-signaling",), default="pr-signaling")
    for name in ("delta", "epsilon"):
        p_sweep.add_argument(f"--{name}", required=True, metavar="A:B:STEP",
                             help=f"a negative start needs the = form: --{name}=-1/2:1/2:1/8")
    p_sweep.add_argument("--oracle", action="store_true",
                         help="add the LP-oracle degree column")
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="cross-check closed forms against the LP oracle")
    p_verify.add_argument("--samples", type=int, default=100)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--kind", choices=(*KINDS, "both"), default="both")
    p_verify.set_defaults(func=cmd_verify)

    p_derive = sub.add_parser("derive", help="project the mismatch bounds of one system")
    p_derive.add_argument("input", help="path to a JSON system document")
    p_derive.set_defaults(func=cmd_derive)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on flag errors, matching the input-error code
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT_ERROR
    try:
        return args.func(args)
    except UnprintableValueError as exc:
        hint = "; pass --decimals K to print rounded values" if "decimals" in args else ""
        return _input_error(f"{exc}{hint}")


if __name__ == "__main__":
    sys.exit(main())
