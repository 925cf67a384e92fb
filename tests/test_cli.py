import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from fairmatch import cli, matching

from helpers import hub15_json


def run_cli(*argv):
    return cli.main(list(argv))


def run_cli_capture(capsys, *argv):
    status = cli.main(list(argv))
    out = capsys.readouterr().out
    return status, out


def test_ged_hub15_json(capsys, hub15_file):
    status, out = run_cli_capture(capsys, "ged", hub15_file)
    assert status == 0
    payload = json.loads(out)
    assert payload["over"] == ["s6", "s7"]
    assert payload["under"] == ["s1", "s2", "s3", "s4", "s5", "s8"]
    assert payload["perfect"] == sorted(f"s{i}" for i in range(9, 16))
    assert ["s1", "s2", "s3"] in payload["components"]


def test_solve_indivisible_hub15_has_seven_thirds(capsys, hub15_file):
    status, out = run_cli_capture(capsys, "solve", "--model", "indivisible", hub15_file)
    assert status == 0
    payload = json.loads(out)
    assert payload["profile"]["s2"] == "7/3"
    assert payload["profile"]["s4"] == "7/3"
    assert payload["profile"]["s5"] == "7/3"
    assert payload["marginals"]["s2"] == {"2": "2/3", "3": "1/3"}


def test_solve_divisible_triangle_all_ones(capsys, triangle_file):
    status, out = run_cli_capture(capsys, "solve", "--model", "divisible", triangle_file)
    assert status == 0
    payload = json.loads(out)
    assert payload["profile"] == {"a": "1/1", "b": "1/1", "c": "1/1"}
    assert {entry["amount"] for entry in payload["exchange"]} == {"1/2"}


def test_solve_dump_flow(capsys, triangle_file):
    status, out = run_cli_capture(
        capsys, "solve", "--model", "indivisible", "--dump-flow", triangle_file
    )
    assert status == 0
    payload = json.loads(out)
    assert any(arc["from"] == "@source" for arc in payload["flow"])


def test_solve_divisible_dump_flow_pins_both_margins(capsys, hub15_file):
    status, out = run_cli_capture(
        capsys, "solve", "--model", "divisible", "--dump-flow", hub15_file
    )
    assert status == 0
    payload = json.loads(out)
    flow = {(arc["from"], arc["to"]): Fraction(arc["amount"]) for arc in payload["flow"]}
    for node, value in payload["profile"].items():
        assert flow.get(("@source", "a/" + node), 0) == Fraction(value)
        assert flow.get(("b/" + node, "@sink"), 0) == Fraction(value)
    for entry in payload["exchange"]:
        u, v = entry["u"], entry["v"]
        cross = flow.get(("a/" + u, "b/" + v), 0) + flow.get(("a/" + v, "b/" + u), 0)
        assert Fraction(entry["amount"]) == cross / 2


def test_lottery_triangle_three_thirds(capsys, triangle_file):
    status, out = run_cli_capture(capsys, "lottery", triangle_file)
    assert status == 0
    payload = json.loads(out)
    assert [entry["prob"] for entry in payload["entries"]] == ["1/3", "1/3", "1/3"]
    supports = {
        tuple((m["u"], m["v"]) for m in entry["matching"]) for entry in payload["entries"]
    }
    assert supports == {(("a", "b"),), (("a", "c"),), (("b", "c"),)}


def test_emitted_rationals_are_lowest_terms(capsys, hub15_file):
    status, out = run_cli_capture(capsys, "solve", "--model", "indivisible", hub15_file)
    assert status == 0
    import math
    for text in json.loads(out)["profile"].values():
        p, q = (int(piece) for piece in text.split("/"))
        assert math.gcd(p, q) == 1 and q >= 1


def test_sample_requires_seed(triangle_file):
    assert run_cli("sample", "--samples", "3", triangle_file) == 1


def test_sample_deterministic_for_seed(capsys, triangle_file):
    status, first = run_cli_capture(capsys, "sample", "--samples", "4", "--seed", "9", triangle_file)
    assert status == 0
    status, second = run_cli_capture(capsys, "sample", "--samples", "4", "--seed", "9", triangle_file)
    assert status == 0
    assert first == second
    assert len(json.loads(first)["samples"]) == 4


def test_sample_rejects_negative_count(capsys, triangle_file):
    assert run_cli("sample", "--samples", "-3", "--seed", "1", triangle_file) == 1
    assert capsys.readouterr().out == ""
    status, out = run_cli_capture(capsys, "sample", "--samples", "0", "--seed", "1", triangle_file)
    assert status == 0
    assert json.loads(out)["samples"] == []


def test_verify_passes_on_triangle(capsys, triangle_file):
    status, out = run_cli_capture(capsys, "verify", "--oracle", triangle_file)
    assert status == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    names = {check["name"] for check in payload["checks"]}
    assert {"indivisible-efficiency", "method-agreement", "oracle-pareto-equivalence"} <= names
    assert all(check["status"] == "pass" for check in payload["checks"])


def test_verify_reports_failure_with_exit_2(capsys, triangle_file, monkeypatch):
    monkeypatch.setattr(
        cli,
        "_verify_checks",
        lambda inst, oracle: [{"name": "rigged", "status": "fail", "detail": ""}],
    )
    assert run_cli("verify", triangle_file) == 2


def test_matching_error_is_internal_inconsistency(capsys, hub15_file, monkeypatch):
    # a blossom that never augments leaves the greedy start, which is not maximum on hub15
    monkeypatch.setattr(
        matching, "maximum_matching_indices", lambda n, adj, mate=None: list(mate or [-1] * n)
    )
    assert run_cli("ged", hub15_file) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal inconsistency: matching passed to the decomposition is not maximum\n"


def test_verify_divisible_efficiency_reads_the_fill_flow(capsys, hub15_file, monkeypatch):
    # the check proves the profile's own flow, the one with both margins pinned,
    # maximum instead of solving the doubled network
    monkeypatch.setattr(cli, "max_flow", None)
    status, out = run_cli_capture(capsys, "verify", hub15_file)
    assert status == 0
    check = json.loads(out)["checks"][0]
    assert check == {
        "name": "divisible-efficiency",
        "status": "pass",
        "detail": "profile total 35 vs doubled max flow 35",
    }


def test_verify_lottery_expectation_recomputes_from_the_entries(capsys, hub15_file, monkeypatch):
    # a lottery that keeps the profile as its expectation but not the members that
    # realize it: its first member alone, at probability 1
    original = cli.indivisible_outcome

    def first_member_only(inst):
        outcome = original(inst)
        first = outcome.lottery.entries[0][0]
        lottery = dataclasses.replace(outcome.lottery, entries=((first, Fraction(1)),))
        return dataclasses.replace(outcome, lottery=lottery)

    monkeypatch.setattr(cli, "indivisible_outcome", first_member_only)
    status, out = run_cli_capture(capsys, "verify", hub15_file)
    assert status == 2
    checks = {check["name"]: check["status"] for check in json.loads(out)["checks"]}
    assert checks["lottery-expectation"] == "fail"


def test_verify_oracle_oversize_is_validation_error(capsys, hub15_file):
    assert run_cli("verify", "--oracle", hub15_file) == 1


def test_missing_file_is_validation_error(tmp_path):
    assert run_cli("ged", str(tmp_path / "nope.json")) == 1


def test_malformed_file_is_validation_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert run_cli("ged", str(bad)) == 1


def test_non_utf8_file_is_validation_error(tmp_path):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"name": "caf\xe9", "nodes": [], "edges": []}')
    assert run_cli("ged", str(bad)) == 1


def test_deeply_nested_file_is_validation_error(tmp_path):
    bad = tmp_path / "nested.json"
    bad.write_text("[" * 100000)
    assert run_cli("ged", str(bad)) == 1


def test_integer_over_the_digit_limit_is_validation_error(capsys, tmp_path):
    bad = tmp_path / "huge.json"
    digits = sys.get_int_max_str_digits() + 1
    bad.write_text('{"nodes": [{"id": "a", "peak": 1' + "0" * (digits - 1) + "}]}")
    assert run_cli("ged", str(bad)) == 1
    assert f"more than {digits - 1} digits" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [["ged"], ["solve", "--model", "indivisible"], ["lottery"], ["verify"]]
)
def test_triangle_with_peaks_of_ten_to_the_twelve(capsys, tmp_path, argv):
    # the b-matching core does not grow with the peaks
    peak = 10**12
    path = tmp_path / "big.json"
    path.write_text(
        json.dumps(
            {
                "name": "big",
                "nodes": [{"id": node, "peak": peak} for node in "abc"],
                "edges": [{"u": "a", "v": "b"}, {"u": "b", "v": "c"}, {"u": "a", "v": "c"}],
            }
        )
    )
    status, out = run_cli_capture(capsys, *argv, str(path))
    assert status == 0
    payload = json.loads(out)
    if argv[0] == "ged":
        assert payload["perfect"] == ["a", "b", "c"]
    elif argv[0] == "verify":
        assert payload["passed"] is True
        details = {check["name"]: check["detail"] for check in payload["checks"]}
        total = 3 * peak
        assert details["indivisible-efficiency"] == f"profile {total}, flow {total}, b-matching {total}"
    else:
        assert payload["profile"] == {node: f"{peak}/1" for node in "abc"}


def test_capacitated_indivisible_is_validation_error(tmp_path):
    capped = tmp_path / "capped.json"
    capped.write_text(
        json.dumps(
            {
                "name": "capped",
                "nodes": [{"id": "a", "peak": 1}, {"id": "b", "peak": 1}],
                "edges": [{"u": "a", "v": "b", "cap": 1}],
            }
        )
    )
    assert run_cli("solve", "--model", "indivisible", str(capped)) == 1
    assert run_cli("solve", "--model", "divisible", str(capped)) == 0


def test_output_flag_writes_file(tmp_path, triangle_file):
    target = tmp_path / "report.json"
    assert run_cli("ged", triangle_file, "--output", str(target)) == 0
    assert json.loads(target.read_text())["under"] == ["a", "b", "c"]


def test_pretty_table(capsys, triangle_file):
    status, out = run_cli_capture(capsys, "solve", "--model", "divisible", "--pretty", triangle_file)
    assert status == 0
    assert "egalitarian profile" in out
    assert "a" in out and "1/1" in out


def test_manipulate_cli(capsys, triangle_file):
    status, out = run_cli_capture(
        capsys, "manipulate", triangle_file, "--coalition", "a", "--report-peak", "a=2"
    )
    assert status == 0
    payload = json.loads(out)
    assert payload["manipulated"] == {"a": "2/1", "b": "1/1", "c": "1/1"}
    assert payload["gains_under_some_single_peaked"]["a"] is True
    assert payload["verdict"] == "unprofitable"


def test_manipulate_hide_edge_cli(capsys, tmp_path):
    from helpers import path_instance

    path = tmp_path / "path7.json"
    path.write_text(json.dumps(path_instance(7).to_json_dict()))
    status, out = run_cli_capture(
        capsys,
        "manipulate", str(path), "--coalition", "s4,s7", "--hide-edge", "s3:s4",
    )
    assert status == 0
    payload = json.loads(out)
    assert payload["deltas"] == {"s4": "0/1", "s7": "1/4"}


def test_manipulate_empty_coalition_is_validation_error(capsys, triangle_file):
    assert run_cli("manipulate", triangle_file, "--coalition", ",") == 1
    assert "coalition is empty" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["lottery"],
        ["solve", "--model", "indivisible"],
        ["solve", "--model", "divisible", "--dump-flow"],
        ["verify"],
    ],
)
def test_instance_without_nodes(capsys, tmp_path, argv):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"nodes": [], "edges": []}))
    status, out = run_cli_capture(capsys, *argv, str(path))
    assert status == 0
    payload = json.loads(out)
    if argv[0] == "verify":
        assert payload["passed"] is True
    else:
        assert payload["profile"] == {}


def _run_subprocess(args, hashseed):
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    return subprocess.run(
        [sys.executable, "-m", "fairmatch.cli", *args],
        capture_output=True,
        env=env,
        check=True,
    ).stdout


def test_byte_identical_output_across_hash_seeds(tmp_path):
    instance_path = tmp_path / "hub15.json"
    instance_path.write_text(json.dumps(hub15_json()))
    args = ["lottery", str(instance_path)]
    outputs = {_run_subprocess(args, seed) for seed in ("0", "1", "31337")}
    assert len(outputs) == 1
