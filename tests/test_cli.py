"""Tests for the command line interface."""

import csv
import io
import json
import os

import pytest

from parrywords import cli
from parrywords.cli import main

from limits import time_limit


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_words_table(capsys):
    code, out, _ = run(capsys, "words", "102", "--upto", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n\tlength\tword"
    assert lines[1] == "0\t1\t0"
    assert lines[-1] == "5\t15\t012000101012012"


def test_words_prefix(capsys):
    code, out, _ = run(capsys, "words", "12", "--prefix", "8")
    assert (code, out.strip()) == (0, "01000101")
    code, out, _ = run(capsys, "words", "102", "--prefix", "0")
    assert (code, out.strip()) == (0, "ε")


def test_rep_and_greedy(capsys):
    code, out, _ = run(capsys, "rep", "102", "14")
    assert (code, out.strip()) == (0, "10110")
    code, out, _ = run(capsys, "rep", "102", "14", "--greedy")
    assert (code, out.strip()) == (0, "11000")
    code, out, _ = run(capsys, "rep", "102", "0")
    assert (code, out.strip()) == (0, "ε")


def test_val(capsys):
    code, out, _ = run(capsys, "val", "102", "1011")
    assert (code, out.strip()) == (0, "8")
    code, out, _ = run(capsys, "val", "102", "ε")
    assert (code, out.strip()) == (0, "0")


def test_val_outside_language_is_domain_error(capsys):
    code, out, err = run(capsys, "val", "102", "11")
    assert code == 2
    assert "error:" in err
    code, out, _ = run(capsys, "val", "102", "11", "--unchecked")
    assert (code, out.strip()) == (0, "3")


def test_automaton_text_and_dot(capsys):
    code, out, _ = run(capsys, "automaton", "102")
    assert code == 0
    assert out.strip().splitlines() == [
        "0 -0-> 0", "0 -1-> 1", "1 -0-> 2", "2 -0-> 0", "2 -1-> 0",
    ]
    code, dot, _ = run(capsys, "automaton", "102", "--dot")
    assert code == 0
    assert dot.count("->") == 6  # five transitions plus the start arrow
    assert dot == run(capsys, "automaton", "102", "--dot")[1]


def test_attractor_default_and_minimal(capsys):
    code, out, _ = run(capsys, "attractor", "12", "8")
    assert (code, out.strip()) == (0, "2 4 8")
    code, out, _ = run(capsys, "attractor", "12", "8", "--minimal")
    assert (code, out.strip()) == (0, "3 6")
    code, out, _ = run(capsys, "attractor", "12", "8", "--minimal", "--zero-based")
    assert (code, out.strip()) == (0, "2 5")
    code, out, _ = run(capsys, "attractor", "23", "9")
    assert (code, out.strip()) == (0, "1 3 9")


def test_attractor_scope_error(capsys):
    code, _, err = run(capsys, "attractor", "102", "9")
    assert code == 2
    assert "error:" in err


def test_attractor_minimal_cap(capsys):
    code, _, err = run(capsys, "attractor", "12", "500", "--minimal")
    assert code == 2
    code, out, _ = run(capsys, "attractor", "12", "210", "--minimal", "--cap", "210")
    assert code == 0


def test_profile_table(capsys):
    code, out, _ = run(capsys, "profile", "12", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m\tsize\tpositions"
    assert lines[1] == "1\t1\t1"
    assert lines[8] == "8\t2\t3,6"


def test_profile_truncation_marker(capsys):
    code, out, _ = run(capsys, "profile", "12", "400", "--cap", "6")
    assert code == 0
    assert out.strip().splitlines()[-1].startswith("# truncated")


def test_check_text(capsys):
    code, out, _ = run(capsys, "check", "1011")
    assert code == 0
    assert "holds: true" in out
    assert "root: 10" in out
    assert "power: 2" in out
    assert "cprime: 11" in out
    code, out, _ = run(capsys, "check", "102")
    assert code == 0
    assert "holds: false" in out
    assert "root:" not in out


def test_check_large_leading_digit(capsys):
    with time_limit(1.0):
        code, out, _ = run(capsys, "check", "100000.1")
    assert code == 0
    assert abs(float(out.splitlines()[-1].split()[1]) - 100000.00001) < 1e-6
    code, out, err = run(capsys, "check", "9" * 400 + ".1")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1


def test_json_outputs_round_trip(capsys):
    for argv in (["words", "102", "--upto", "3", "--json"],
                 ["rep", "102", "14", "--json"],
                 ["val", "102", "1011", "--json"],
                 ["automaton", "102", "--json"],
                 ["attractor", "12", "8", "--json"],
                 ["profile", "12", "6", "--json"],
                 ["check", "1011", "--json"]):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert json.loads(json.dumps(payload)) == payload


def test_json_attractor_fields(capsys):
    _, out, _ = run(capsys, "attractor", "12", "8", "--json")
    payload = json.loads(out)
    assert payload["positions"] == [2, 4, 8]
    assert payload["size"] == 3
    assert payload["minimal"] is False


def test_sweep_csv(capsys):
    code, out, _ = run(capsys, "sweep", "--k", "2..3", "--digit-max", "2",
                       "--mmax", "20")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# schema: 1"
    rows = list(csv.DictReader(lines[1:]))
    assert len(rows) == 4 + 2 * 3 * 2
    for row in rows:
        assert {row["frac_power_ok"], row["ceiling_ok"],
                row["max_conjugate"], row["greedy"]} in ({"true"}, {"false"})
        if row["greedy"] == "true":
            assert row["conjecture"] == "agree"
            assert row["minimal_family"] in ("true", "false")
        else:
            assert row["conjecture"] == ""
            assert row["minimal_family"] == ""


def test_sweep_json_and_out_file(tmp_path, capsys):
    target = tmp_path / "rows.json"
    code, out, _ = run(capsys, "sweep", "--k", "2", "--digit-max", "1",
                       "--format", "json", "--out", str(target))
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["schema"] == 1
    assert [r["c"] for r in payload["rows"]] == ["11"]


def test_sweep_parallel_matches_serial(capsys):
    _, serial, _ = run(capsys, "sweep", "--k", "2", "--digit-max", "2",
                       "--mmax", "10")
    _, parallel, _ = run(capsys, "sweep", "--k", "2", "--digit-max", "2",
                         "--mmax", "10", "--jobs", "2")
    assert serial == parallel


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rep", "102"])  # missing n
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 1


def test_domain_errors_exit_2(capsys):
    code, _, err = run(capsys, "words", "021", "--upto", "2")
    assert code == 2
    assert "error:" in err
    code, _, err = run(capsys, "rep", "102", "--", "-5")
    assert code == 2


def _usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    err = capsys.readouterr().err
    return exc.value.code, err.splitlines()[-1]


def test_out_of_range_arguments_exit_1(capsys):
    code, line = _usage_error(capsys, "words", "12", "--upto", "-1")
    assert (code, line) == (1, "parrywords words: error: argument --upto: "
                               "must be >= 0, got -1")
    code, line = _usage_error(capsys, "sweep", "--k", "5..2", "--digit-max", "1")
    assert code == 1 and "empty alphabet-size range" in line
    code, line = _usage_error(capsys, "sweep", "--k", "2..x", "--digit-max", "1")
    assert code == 1 and "cannot parse alphabet-size range" in line
    code, line = _usage_error(capsys, "sweep", "--k", "2", "--digit-max", "-1")
    assert code == 1 and "argument --digit-max: must be >= 0" in line
    code, line = _usage_error(capsys, "words", "12", "--upto", "x")
    assert (code, line) == (1, "parrywords words: error: argument --upto: "
                               "invalid int value: 'x'")


def test_jobs_outside_cpu_count_exit_1(capsys, monkeypatch):
    class NoPool:
        def __init__(self, *args, **kwargs):
            pytest.fail("a worker pool was started")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", NoPool)
    for jobs in (0, -3, (os.cpu_count() or 1) + 1):
        code, line = _usage_error(capsys, "sweep", "--k", "2", "--digit-max",
                                  "1", "--jobs", str(jobs))
        assert code == 1 and "argument --jobs: must be between 1 and" in line


def test_oversized_words_exit_2(capsys):
    for argv in (["words", "12", "--prefix", "100000000000"],
                 ["words", "11", "--upto", "40"]):
        with time_limit(5):
            code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1
