"""End-to-end tests for the command line front door."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from twistkit import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_nf_text(capsys):
    code, out, _ = run(capsys, "nf", "--n", "4", "(a b c)^4")
    assert code == 0
    assert out == "Δ^2\n"
    code, out, _ = run(capsys, "nf", "--strands", "4", "(c a b)^2")
    assert code == 0
    assert out == "Δ^1\n"


def test_nf_json_deterministic(capsys):
    code, first, _ = run(capsys, "nf", "--n", "4", "s1 s2 s1", "--format", "json")
    assert code == 0
    code, second, _ = run(capsys, "nf", "--n", "4", "s1 s2 s1", "--format", "json")
    assert first == second
    payload = json.loads(first)
    assert payload["schema_version"] == 1
    assert payload["power"] == 0
    assert payload["factors"] == [[3, 2, 1, 4]]
    assert payload["canonical"] == "Δ^0 · [3 2 1 4]"


def test_nf_usage_error(capsys):
    code, _, err = run(capsys, "nf", "--n", "4", "s9")
    assert code == 2
    assert "column 1" in err


def test_word_length_limit_is_a_usage_error(capsys):
    # 2 * 1000**3 letters: refused at the second caret, before expansion
    code, out, err = run(capsys, "nf", "--n", "3", "(((s1 S2)^1000)^1000)^1000")
    assert code == 2 and out == ""
    assert "column 16" in err and "1000000 letters" in err


def test_eq(capsys):
    code, out, _ = run(capsys, "eq", "--n", "4", "s1 s2 s1", "s2 s1 s2")
    assert code == 0 and out == "equal\n"
    code, out, _ = run(capsys, "eq", "--n", "4", "s1", "s2")
    assert code == 1 and out == "not equal\n"
    # full twist is central but nontrivial
    code, out, _ = run(capsys, "eq", "--n", "4", "(a b c)^4", "")
    assert code == 1
    code, out, _ = run(capsys, "eq", "--n", "4", "(a b c)^4", "", "--mod-center")
    assert code == 0 and out == "equal mod center\n"


def test_eq_json(capsys):
    code, out, _ = run(capsys, "eq", "--n", "3", "s1 s2", "s2 s1", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["equal"] is False
    assert payload["mod_center"] is False


def test_roots_census(capsys):
    code, out, _ = run(capsys, "roots", "--power", "2", "--bound", "3",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "roots"
    assert payload["residue"] == []
    assert payload["status"] == "pass"
    counts = {c["canonical"]: c["count"] for c in payload["classes"]}
    assert counts == {"[[0,1],[-1,0]]": 5, "[[0,-1],[1,0]]": 5}
    for cls in payload["classes"]:
        assert len(cls["members"]) == cls["count"]

    code, out, _ = run(capsys, "roots", "--power", "3", "--bound", "1")
    assert code == 0
    assert "5 matrices" in out


def test_roots_reduce_matrix(capsys):
    code, out, _ = run(capsys, "roots", "--matrix", "[[-1,2],[-1,1]]")
    assert code == 0
    assert "reduces to [[0,1],[-1,0]]" in out
    code, out, _ = run(capsys, "roots", "--matrix", "[[-1,2],[-1,1]]",
                       "--format", "json")
    payload = json.loads(out)
    assert payload["canonical"] == "[[0,1],[-1,0]]"
    assert payload["matrix"] == "[[-1,2],[-1,1]]"


def test_roots_reduce_failure_is_not_usage(capsys):
    # parabolic matrices have no reduction; domain failure exits 1
    code, _, err = run(capsys, "roots", "--matrix", "[[1,1],[0,1]]")
    assert code == 1
    assert err
    # malformed matrix text is a usage error
    code, _, err = run(capsys, "roots", "--matrix", "[[1,1],[0,1]")
    assert code == 2


def test_roots_usage(capsys):
    code, _, err = run(capsys, "roots")
    assert code == 2
    code, _, err = run(capsys, "roots", "--power", "2")
    assert code == 2


def test_theta_verify(capsys):
    code, out, _ = run(capsys, "theta-verify", "--n", "3", "--k", "1")
    assert code == 0
    assert "braid-1: pass" in out
    assert "status=pass" in out
    code, out, _ = run(capsys, "theta-verify", "--n", "3", "--k", "1",
                       "--engine", "braid", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["exit_status"] == 0
    assert doc["reports"][0]["engine"] == "braid"
    # braid engine rejects non-quotient lattice points
    code, _, err = run(capsys, "theta-verify", "--n", "2", "--k", "2",
                       "--engine", "braid")
    assert code == 2 and "braid engine" in err


def test_theta_roots(capsys):
    code, out, _ = run(capsys, "theta-roots", "--m-max", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    report = doc["reports"][0]
    assert report["experiment"] == "square-roots"
    assert len(report["checks"]) == 2 * 7 + 2


def test_hyperelliptic_and_separation(capsys):
    code, out, _ = run(capsys, "hyperelliptic", "--n", "4")
    assert code == 0
    assert "involution-image: pass" in out

    code, out, _ = run(capsys, "separation", "--k", "2", "--format", "json")
    assert code == 0  # inconclusive evidence does not fail the run
    doc = json.loads(out)
    statuses = [c["status"] for c in doc["reports"][0]["checks"]]
    assert statuses == ["pass", "pass", "inconclusive"]
    assert doc["exit_status"] == 0


def test_report_battery(capsys, tmp_path):
    code, first, _ = run(capsys, "report", "--bound", "6", "--m-max", "2",
                         "--format", "json")
    assert code == 0
    code, second, _ = run(capsys, "report", "--bound", "6", "--m-max", "2",
                          "--format", "json")
    assert first == second
    doc = json.loads(first)
    assert doc["schema_version"] == 1
    assert doc["exit_status"] == 0
    assert len(doc["reports"]) == 12 + 3 + 6 + 1 + 1 + 3
    experiments = {r["experiment"] for r in doc["reports"]}
    assert experiments == {
        "relations", "hyperelliptic", "square-roots", "sl2-roots", "separation",
    }

    out_file = tmp_path / "battery.json"
    code, _, _ = run(capsys, "report", "--bound", "6", "--m-max", "2",
                     "--format", "json", "--out", str(out_file))
    assert code == 0
    assert json.loads(out_file.read_text()) == doc


def test_unknown_verb_and_missing_args(capsys):
    assert cli.main(["frobnicate"]) == 2
    capsys.readouterr()
    assert cli.main(["nf", "s1 s2"]) == 2  # missing --n
    capsys.readouterr()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "twistkit", "nf", "--n", "4", "(c a b)^2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "Δ^1"


def test_cli_import_does_not_load_numpy():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, twistkit.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_report_json_matches_golden_bytes(capsys):
    golden = Path(__file__).parent / "golden" / "report-default.json"
    code, out, _ = run(capsys, "report", "--format", "json")
    assert code == 0
    assert out.encode("utf-8") == golden.read_bytes()
