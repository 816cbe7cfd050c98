import csv
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from contextuality import bell, cyclic, fme
from contextuality.cli import MAX_DECIMALS, main, load_system, parse_system_document, DocumentError
from contextuality.core import MAX_DECIMAL_EXPONENT, BellSystem, LGSystem
from contextuality.generators import pr_signaling_family

F = Fraction


def run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def bell_doc(xy, last_xy=None, representation="expectations"):
    last_xy = xy if last_xy is None else last_xy
    pairs = {k: {"x": "0", "y": "0", "xy": str(xy)} for k in ("11", "12", "21")}
    pairs["22"] = {"x": "0", "y": "0", "xy": str(last_xy)}
    return {"kind": "bell", "representation": representation, "pairs": pairs}


PR_DOC = bell_doc("1", "-1")
ZERO_DOC = bell_doc("0")
LG_ANTI_DOC = {
    "kind": "lg",
    "representation": "expectations",
    "pairs": {k: {"x": "0", "y": "0", "xy": "-1"} for k in ("12", "13", "23")},
}


class TestParseSystemDocument:
    def test_bell_cells(self):
        doc = {
            "kind": "bell",
            "representation": "cells",
            "pairs": {k: {"pp": "1/4", "pm": "0.25", "mp": "1/4", "mm": "1/4"} for k in ("11", "12", "21", "22")},
        }
        system = parse_system_document(doc)
        assert isinstance(system, BellSystem)
        assert system.p11.pp == F(1, 4)

    def test_lg_expectations(self):
        system = parse_system_document(LG_ANTI_DOC)
        assert isinstance(system, LGSystem)
        assert system.product_means() == (-1, -1, -1)

    def test_missing_pair_is_pinpointed(self):
        doc = {"kind": "bell", "representation": "cells", "pairs": {"11": {}}}
        with pytest.raises(DocumentError) as err:
            parse_system_document(doc)
        assert err.value.pair in ("11", "12")

    def test_missing_field_is_pinpointed(self):
        doc = {
            "kind": "lg",
            "representation": "cells",
            "pairs": {k: {"pp": "1", "pm": "0", "mp": "0"} for k in ("12", "13", "23")},
        }
        with pytest.raises(DocumentError) as err:
            parse_system_document(doc)
        assert err.value.pair == "12" and err.value.field == "mm"

    def test_unreadable_number(self):
        doc = {
            "kind": "lg",
            "representation": "cells",
            "pairs": {k: {"pp": "a/b", "pm": "0", "mp": "0", "mm": "1"} for k in ("12", "13", "23")},
        }
        with pytest.raises(DocumentError) as err:
            parse_system_document(doc)
        assert err.value.field == "pp"

    def test_boolean_values_rejected(self, tmp_path):
        # JSON true/false are not numbers, though Python counts True as 1
        cells = {"pp": True, "pm": False, "mp": False, "mm": False}
        doc = {"kind": "bell", "representation": "cells",
               "pairs": {k: dict(cells) for k in ("11", "12", "21", "22")}}
        with pytest.raises(DocumentError) as err:
            parse_system_document(doc)
        assert (err.value.pair, err.value.field) == ("11", "pp")
        for command in ("analyze", "derive"):
            code, _, err = run_cli([command, write_doc(tmp_path, "b.json", doc)])
            assert code == 2 and "pair '11' field 'pp'" in err

    @pytest.mark.parametrize(
        "change, message, pair",
        [
            (lambda doc: [doc], "document must be a JSON object", None),
            (lambda doc: dict(doc, representation="probabilities"), "representation must be", None),
            (lambda doc: {k: v for k, v in doc.items() if k != "pairs"}, "missing 'pairs' object", None),
            (lambda doc: dict(doc, pairs={k: v for k, v in doc["pairs"].items() if k != "22"}),
             "missing pair '22'", "22"),
            (lambda doc: dict(doc, pairs=dict(doc["pairs"], **{"12": ["0", "0", "1"]})),
             "pair '12' must be an object", "12"),
            (lambda doc: dict(doc, pairs=dict(doc["pairs"], **{"21": {"x": "1", "y": "1", "xy": "-1"}})),
             "pair '21': ", "21"),
        ],
    )
    def test_document_errors(self, change, message, pair, tmp_path):
        doc = change(PR_DOC)
        with pytest.raises(DocumentError, match=message) as err:
            parse_system_document(doc)
        assert err.value.pair == pair
        code, _, err_text = run_cli(["analyze", write_doc(tmp_path, "bad.json", doc)])
        assert code == 2 and message in err_text

    def test_bad_kind(self):
        with pytest.raises(DocumentError):
            parse_system_document({"kind": "ghz", "pairs": {}})

    @pytest.mark.parametrize("kind", [[], {}])
    def test_non_string_kind_exit_two(self, kind, tmp_path):
        doc = dict(PR_DOC, kind=kind)
        with pytest.raises(DocumentError):
            parse_system_document(doc)
        for command in ("analyze", "derive"):
            code, _, err = run_cli([command, write_doc(tmp_path, "k.json", doc)])
            assert code == 2 and "kind must be" in err


class TestAnalyze:
    def test_pr_box_contextual_exit(self, tmp_path):
        code, out, _ = run_cli(["analyze", write_doc(tmp_path, "pr.json", PR_DOC), "--format", "json"])
        assert code == 1
        payload = json.loads(out)
        assert payload["values"]["degree"] == "1"
        assert payload["verdicts"]["noncontextual"] is False

    def test_all_zero_noncontextual_exit(self, tmp_path):
        code, out, _ = run_cli(["analyze", write_doc(tmp_path, "z.json", ZERO_DOC)])
        assert code == 0
        assert "degree: 0" in out

    def test_invalid_cells_exit_two(self, tmp_path):
        doc = {
            "kind": "bell",
            "representation": "cells",
            "pairs": {k: {"pp": "0.2", "pm": "0.2", "mp": "0.2", "mm": "0.3"} for k in ("11", "12", "21", "22")},
        }
        code, _, err = run_cli(["analyze", write_doc(tmp_path, "bad.json", doc)])
        assert code == 2
        assert "sum to 9/10" in err

    def test_huge_exponent_exit_two_promptly(self, tmp_path):
        doc = bell_doc("0")
        doc["pairs"]["21"]["xy"] = "1e1000000000"
        start = time.perf_counter()
        code, _, err = run_cli(["analyze", write_doc(tmp_path, "big.json", doc)])
        assert code == 2 and "'21'" in err and "'xy'" in err
        assert time.perf_counter() - start < 5

    def test_overlong_json_integer_exit_two(self, tmp_path):
        path = tmp_path / "long.json"
        text = json.dumps(bell_doc("0")).replace('"xy": "0"', '"xy": 1' + "0" * 5000, 1)
        path.write_text(text, encoding="utf-8")
        code, _, err = run_cli(["analyze", str(path)])
        assert code == 2 and "not valid JSON" in err

    def test_json_numbers_read_exactly(self, tmp_path):
        # a JSON number is read from its decimal text, not rounded to a float
        path = tmp_path / "tiny.json"
        text = json.dumps(bell_doc("0")).replace('"xy": "0"', '"xy": 1e-400', 1)
        path.write_text(text, encoding="utf-8")
        assert load_system(str(path)).product_means()[0] == F(1, 10**400)
        doc = {
            "kind": "bell",
            "representation": "cells",
            "pairs": {k: {f: "1/4" for f in ("pp", "pm", "mp", "mm")} for k in ("11", "12", "21", "22")},
        }
        text = json.dumps(doc).replace('"pp": "1/4"', '"pp": 0.25000000000000000001', 1)
        path.write_text(text, encoding="utf-8")
        code, _, err = run_cli(["analyze", str(path)])
        assert code == 2 and "sum to 100000000000000000001/100000000000000000000" in err

    def test_json_number_exponent_past_limit_exit_two(self, tmp_path):
        path = tmp_path / "tiny.json"
        number = f"1e-{MAX_DECIMAL_EXPONENT + 1}"
        text = json.dumps(bell_doc("0")).replace('"xy": "0"', f'"xy": {number}', 1)
        path.write_text(text, encoding="utf-8")
        code, _, err = run_cli(["analyze", str(path)])
        assert code == 2 and f"'{number}'" in err

    def test_missing_file_exit_two(self):
        code, _, err = run_cli(["analyze", "/nonexistent/system.json"])
        assert code == 2 and err

    def test_json_round_trip_exact(self, tmp_path):
        path = write_doc(tmp_path, "pr.json", bell_doc("17/24", "-17/24"))
        code, out, _ = run_cli(["analyze", path, "--format", "json", "--oracle"])
        payload = json.loads(out)
        system = pr_signaling_family(F(17, 24), 0)
        report = bell.analyze(system)
        assert F(payload["values"]["delta0"]) == report.delta0
        assert F(payload["values"]["statistic"]) == report.statistic
        assert F(payload["values"]["degree"]) == report.degree
        assert F(payload["oracle"]["degree"]) == report.degree
        assert payload["oracle"]["agrees"] is True

    def test_decimals_rendering(self, tmp_path):
        path = write_doc(tmp_path, "pr.json", PR_DOC)
        code, out, _ = run_cli(["analyze", path, "--format", "json", "--decimals", "2"])
        payload = json.loads(out)
        assert payload["values"]["delta_min"] == "1.00"

    def test_zero_decimals_round_to_integers(self, tmp_path):
        doc = {
            "kind": "bell",
            "representation": "expectations",
            "pairs": {k: {"x": "1/3", "y": "0", "xy": "1/7"} for k in ("11", "12", "21", "22")},
        }
        path = write_doc(tmp_path, "third.json", doc)
        _, out, _ = run_cli(["analyze", path, "--format", "json"])
        exact = json.loads(out)
        code, out, _ = run_cli(["analyze", path, "--format", "json", "--decimals", "0"])
        rounded = json.loads(out)
        assert code == 0
        for section in ("values", "slacks"):
            assert rounded[section] == {k: str(round(F(v))) for k, v in exact[section].items()}
        assert rounded["values"]["delta_max"] == "3" and rounded["slacks"]["lower_from_statistic"] == "-1"

    def test_text_output_names_the_causal_treatment(self, tmp_path):
        path = write_doc(tmp_path, "lg.json", LG_ANTI_DOC)
        for flags, shown in (([], "true"), (["--no-causal"], "false")):
            _, out, _ = run_cli(["analyze", path, *flags])
            assert out.splitlines()[:2] == ["kind: lg", f"causal: {shown}"]
        _, out, _ = run_cli(["analyze", write_doc(tmp_path, "pr.json", PR_DOC)])
        assert "causal:" not in out

    def test_decimals_limit(self, tmp_path):
        path = write_doc(tmp_path, "pr.json", PR_DOC)
        code, _, err = run_cli(["analyze", path, "--decimals", "4300"])
        assert code == 2 and f"between 0 and {MAX_DECIMALS}" in err
        code, out, _ = run_cli(["analyze", path, "--format", "json", "--decimals", "3"])
        assert code == 1 and json.loads(out)["values"]["delta_max"] == "3.000"
        code, out, _ = run_cli(["analyze", path, "--decimals", str(MAX_DECIMALS)])
        assert code == 1 and f"delta_max: 3.{'0' * MAX_DECIMALS}" in out

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_unprintable_exact_value_exit_two(self, fmt, tmp_path):
        # 1e-4300 is a legal input whose exact results have denominators
        # over CPython's 4300-digit int-to-string limit
        doc = bell_doc("0")
        doc["pairs"]["11"]["xy"] = "1e-4300"
        path = write_doc(tmp_path, "tiny.json", doc)
        code, out, err = run_cli(["analyze", path, "--format", fmt])
        assert code == 2 and not out
        assert "4300-digit limit" in err and "--decimals" in err
        code, out, _ = run_cli(["analyze", path, "--format", fmt, "--decimals", "3"])
        assert code == 0 and "0.000" in out

    def test_lg_causal_violation_exit_two(self, tmp_path):
        doc = {
            "kind": "lg",
            "representation": "expectations",
            "pairs": {
                "12": {"x": "1/2", "y": "0", "xy": "0"},
                "13": {"x": "0", "y": "0", "xy": "0"},
                "23": {"x": "0", "y": "0", "xy": "0"},
            },
        }
        path = write_doc(tmp_path, "sig.json", doc)
        code, _, err = run_cli(["analyze", path])
        assert code == 2 and "--no-causal" in err
        code, out, _ = run_cli(["analyze", path, "--no-causal", "--format", "json"])
        assert code == 0
        assert json.loads(out)["values"]["delta0"] == "1/4"


class TestSweep:
    def test_degrees_across_grid(self, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run_cli([
            "sweep", "--family", "pr-signaling",
            "--delta", "0:1:1/2", "--epsilon", "0:0:1", "--out", str(out_path),
        ])
        assert code == 0
        rows = list(csv.DictReader(out_path.read_text().splitlines()))
        assert [r["degree_closed"] for r in rows] == ["0", "0", "1"]
        assert [r["classic_chsh"] for r in rows] == ["1", "1", "0"]
        assert all(r["no_signaling"] == "1" for r in rows)

    def test_header_order_with_oracle(self, tmp_path):
        out_path = tmp_path / "sweep.csv"
        run_cli([
            "sweep", "--delta", "1:1:1", "--epsilon", "0:1/10:1/10", "--oracle",
            "--out", str(out_path),
        ])
        header = out_path.read_text().splitlines()[0].split(",")
        assert header == [
            "delta", "epsilon", "delta0", "chsh_stat", "degree_closed",
            "degree_oracle", "classic_chsh", "no_signaling", "skipped",
        ]
        rows = list(csv.DictReader(out_path.read_text().splitlines()))
        # the oracle column is authoritative for the signaling family
        assert rows[0]["degree_oracle"] == "1"
        assert rows[1]["degree_oracle"] == "9/10"  # 2*1 - 1 - 1/10

    def test_negative_epsilon_range_in_equals_form(self, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _, err = run_cli([
            "sweep", "--delta", "0:1:1/2", "--epsilon=-1/2:1/2:1/4", "--out", str(out_path),
        ])
        assert code == 0, err
        rows = list(csv.DictReader(out_path.read_text().splitlines()))
        assert len(rows) == 15
        computed = [r for r in rows if r["skipped"] == "0"]
        assert any(F(r["epsilon"]) < 0 for r in computed)
        for r in computed:
            system = pr_signaling_family(F(r["delta"]), F(r["epsilon"]))
            assert F(r["degree_closed"]) == cyclic.degree(system), r

    def test_infeasible_points_marked_skipped(self, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run_cli([
            "sweep", "--delta", "0:0:1", "--epsilon", "3/4:3/4:1", "--out", str(out_path),
        ])
        assert code == 0
        rows = list(csv.DictReader(out_path.read_text().splitlines()))
        assert rows[0]["skipped"] == "1"
        assert rows[0]["degree_closed"] == ""

    def test_empty_range_header_only(self, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run_cli([
            "sweep", "--delta", "1:0:1/2", "--epsilon", "0:0:1", "--out", str(out_path),
        ])
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == 1

    def test_bad_range_exit_two(self, tmp_path):
        code, _, err = run_cli([
            "sweep", "--delta", "0:1:0", "--epsilon", "0:0:1",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2 and "step" in err

    @pytest.mark.parametrize("text", ["0:1", "0:1:1/2:1"])
    def test_range_not_start_stop_step_exit_two(self, text, tmp_path):
        code, _, err = run_cli([
            "sweep", "--delta", text, "--epsilon", "0:0:1", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2 and f"range must be start:stop:step, got {text!r}" in err

    def test_unwritable_out_exit_two(self, tmp_path):
        out_path = tmp_path / "missing" / "x.csv"
        code, _, err = run_cli([
            "sweep", "--delta", "0:0:1", "--epsilon", "0:0:1", "--out", str(out_path),
        ])
        assert code == 2 and err.startswith("error: ") and str(out_path) in err
        assert not out_path.parent.exists()

    def test_oversized_range_exit_two_promptly(self, tmp_path):
        out_path = tmp_path / "x.csv"
        start = time.perf_counter()
        code, _, err = run_cli([
            "sweep", "--delta", "0:1:1/1000000000", "--epsilon", "0:0:1",
            "--out", str(out_path),
        ])
        assert code == 2 and "1000000001 points" in err
        assert time.perf_counter() - start < 5
        assert not out_path.exists()

    def test_oversized_grid_exit_two(self, tmp_path):
        code, _, err = run_cli([
            "sweep", "--delta", "0:1:1/200", "--epsilon", "0:1:1/200",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2 and "40401 points" in err

    def test_huge_exponent_bound_exit_two_promptly(self, tmp_path):
        out_path = tmp_path / "x.csv"
        start = time.perf_counter()
        code, _, err = run_cli([
            "sweep", "--delta", "0:1e1000000000:1", "--epsilon", "0:0:1",
            "--out", str(out_path),
        ])
        assert code == 2 and "exponent" in err
        assert time.perf_counter() - start < 5
        assert not out_path.exists()

    def test_unprintable_exact_value_exit_two(self, tmp_path):
        code, _, err = run_cli([
            "sweep", "--delta", "1e-4300:1e-4300:1", "--epsilon", "0:0:1",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        assert "4300-digit limit" in err and "--decimals" not in err

    def test_unknown_family(self, tmp_path):
        code, _, err = run_cli([
            "sweep", "--family", "ghz", "--delta", "0:0:1", "--epsilon", "0:0:1",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2


class TestVerify:
    def test_small_run_clean(self):
        code, out, _ = run_cli(["verify", "--samples", "4", "--seed", "9", "--kind", "both"])
        assert code == 0
        assert "total mismatches: 0" in out

    def test_zero_samples_flag_error(self):
        code, _, err = run_cli(["verify", "--samples", "0"])
        assert code == 2 and "--samples" in err

    def test_fault_injection_detected(self, monkeypatch):
        # one extra unit of closed-form degree on the first sample only
        analyze, seen = cyclic.analyze, []

        def faulty(system):
            report = analyze(system)
            seen.append(system)
            return replace(report, degree=report.degree + 1) if len(seen) == 1 else report

        monkeypatch.setattr(cyclic, "analyze", faulty)
        code, out, _ = run_cli(["verify", "--samples", "2", "--kind", "bell"])
        assert code == 1
        assert "first_failure: sample 0" in out


class TestDerive:
    def test_pr_box_interval(self, tmp_path):
        code, out, _ = run_cli(["derive", write_doc(tmp_path, "pr.json", PR_DOC)])
        assert code == 0
        assert "interval: [1, 3]" in out

    def test_all_zero_interval(self, tmp_path):
        code, out, _ = run_cli(["derive", write_doc(tmp_path, "z.json", ZERO_DOC)])
        assert code == 0
        assert "interval: [0, 4]" in out

    def test_lg_anticorrelated_interval(self, tmp_path):
        code, out, _ = run_cli(["derive", write_doc(tmp_path, "anti.json", LG_ANTI_DOC)])
        assert code == 0
        assert "interval: [1, 3]" in out

    def test_projects_once(self, tmp_path, monkeypatch):
        calls = []
        project = fme.project_to_delta

        def counting(system):
            calls.append(system)
            return project(system)

        monkeypatch.setattr(fme, "project_to_delta", counting)
        code, out, _ = run_cli(["derive", write_doc(tmp_path, "pr.json", PR_DOC)])
        assert code == 0 and "interval: [1, 3]" in out
        assert len(calls) == 1

    def test_unprintable_exact_value_exit_two(self, tmp_path):
        doc = bell_doc("0")
        doc["pairs"]["11"]["x"] = "1e-4300"
        code, out, err = run_cli(["derive", write_doc(tmp_path, "tiny.json", doc)])
        assert code == 2 and not out
        assert "4300-digit limit" in err and "--decimals" not in err

    def test_parse_error_exit_two(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, err = run_cli(["derive", str(path)])
        assert code == 2 and "JSON" in err


@pytest.mark.parametrize("command", ["analyze", "derive"])
def test_deeply_nested_document_exit_two(tmp_path, command):
    # json.load gives up past about a thousand levels with RecursionError;
    # the console script must report it as an input error, not crash
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-m", "contextuality.cli", command, str(path)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2 and not done.stdout
    assert done.stderr.splitlines() == [f"error: {path} nests deeper than the JSON reader can follow"]


class TestArgparseBehavior:
    def test_missing_subcommand_exit_two(self):
        code, _, _ = run_cli([])
        assert code == 2

    def test_unknown_flag_exit_two(self):
        code, _, _ = run_cli(["analyze", "--frobnicate"])
        assert code == 2
