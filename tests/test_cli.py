"""Command line behavior: payloads, rendering, exit codes, determinism."""

import dataclasses
import json
import subprocess
import sys

import pytest

from boolfun import InvariantError, ScanConfig, cli
from boolfun.cli import main
from boolfun.dyadic import ONE, DyadicRational
from boolfun.scan import ConjectureWitness, EquivalenceWitness, run_scan


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    assert err == ""
    return code, json.loads(out)


def assert_no_floats(node, path=""):
    if isinstance(node, float):
        raise AssertionError(f"float at {path}: {node}")
    if isinstance(node, dict):
        for k, v in node.items():
            assert_no_floats(v, f"{path}.{k}")
    elif isinstance(node, list):
        for j, v in enumerate(node):
            assert_no_floats(v, f"{path}[{j}]")


# ----------------------------------------------------------------- analyze

def test_analyze_majority_json(capsys):
    code, doc = run_json(capsys, "analyze", "--fn", "maj:3")
    assert code == 0
    assert doc["schema_version"] == "1" and doc["command"] == "analyze"
    p = doc["payload"]
    assert (p["n"], p["table_hex"], p["degree"]) == (3, "0xe8", 3)
    assert p["linear_sum"]["display"] == "3/2"
    assert p["conjecture"]["satisfied"] is True
    assert p["conjecture"]["bound"] == {"num": 3, "log2_den": 1, "display": "3/2"}
    assert_no_floats(doc)


def test_analyze_hex_equals_fn(capsys):
    _, via_fn = run_json(capsys, "analyze", "--fn", "maj:3", "--spectrum")
    _, via_hex = run_json(capsys, "analyze", "--hex", "0xe8", "--n", "3", "--spectrum")
    assert via_fn == via_hex
    spectrum = via_fn["payload"]["spectrum"]
    assert spectrum["1"]["display"] == "1/2" and spectrum["7"]["display"] == "-1/2"
    assert spectrum["0"]["display"] == "0"


def test_analyze_text_output(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--fn", "and:2")
    assert code == 0
    assert "linear sum: 1" in out and "conjecture: satisfied" in out


# --------------------------------------------------------------- maj/deriv

def test_maj_profile_json(capsys):
    code, doc = run_json(capsys, "maj", "--d", "5", "--table")
    assert code == 0
    p = doc["payload"]
    assert p["linear_coefficient"]["display"] == "3/8"
    assert p["bound_M"]["display"] == "15/8"
    assert p["expected_abs_sum"] == p["bound_M"]
    assert p["table_hex"] == "0xfee8e880"
    assert_no_floats(doc)


def test_maj_table_gate(capsys):
    code, out, err = run_cli(capsys, "maj", "--d", "17", "--table")
    assert code == 1 and "error:" in err and out == ""
    code, _, _ = run_cli(capsys, "maj", "--d", "17")
    assert code == 0


def test_derivative_json(capsys):
    code, doc = run_json(capsys, "derivative", "--fn", "maj:3", "--i", "2")
    assert code == 0
    p = doc["payload"]
    assert p["counts"] == {"zero": 2, "plus": 2, "minus": 0}
    assert p["p_plus"]["display"] == "1/2"
    assert p["expectation"]["display"] == "1/2"
    assert p["routes_agree"] is True
    assert_no_floats(doc)


# ------------------------------------------------------------------- equiv

def test_equiv_json(capsys):
    code, doc = run_json(capsys, "equiv", "--fn", "maj:3", "--d", "1")
    assert code == 0
    p = doc["payload"]
    assert p["agreement"] is True and p["original"] is False
    assert p["sides"]["ineq_c"]["lhs"]["display"] == "3"
    assert p["sides"]["ineq_c"]["rhs"]["display"] == "5/2"
    assert p["embedding_coordinates"] == 3
    assert_no_floats(doc)


def test_equiv_text_banner_absent_when_agreeing(capsys):
    code, out, _ = run_cli(capsys, "equiv", "--fn", "parity:2", "--d", "2")
    assert code == 0 and "agree" in out and "BROKEN" not in out


# -------------------------------------------------------------------- scan

def test_scan_json_payload(capsys):
    code, doc = run_json(capsys, "scan", "--n", "2")
    assert code == 0
    p = doc["payload"]
    assert p["functions_examined"] == 16
    assert p["violation_count"] == 0 and p["violations"] == []
    assert p["equivalence_failure_count"] == 0
    assert p["config"]["equivalence_d_range"] == [1, 2, 3]
    counts = {d: e["function_count"] for d, e in p["per_degree"].items()}
    assert counts == {"0": 2, "1": 4, "2": 10}
    assert isinstance(p["wall_time_seconds"], float)
    p.pop("wall_time_seconds")
    assert_no_floats(p)


def test_scan_payload_deterministic_across_execution_knobs(capsys):
    # an exhaustive scan runs in process whatever the knobs; a random one is
    # split into pool spans
    for argv in (("--n", "3"), ("--n", "5", "--mode", "random", "--samples", "300")):
        blobs = set()
        for extra in (("--jobs", "1", "--chunk-size", "16"),
                      ("--jobs", "2", "--chunk-size", "64"),
                      ("--jobs", "8", "--chunk-size", "16")):
            code, doc = run_json(capsys, "scan", *argv, *extra)
            assert code == 0
            doc["payload"].pop("wall_time_seconds")
            blobs.add(json.dumps(doc, sort_keys=True))
        assert len(blobs) == 1, argv


def test_scan_random_flags(capsys):
    code, doc = run_json(capsys, "scan", "--n", "6", "--mode", "random",
                         "--samples", "50", "--seed", "11")
    assert code == 0
    p = doc["payload"]
    assert p["functions_examined"] == 50
    assert p["config"]["seed"] == 11 and p["config"]["sample_count"] == 50
    assert p["config"]["equivalence_check"] is False


def test_scan_equiv_d_flag(capsys):
    code, doc = run_json(capsys, "scan", "--n", "4", "--equiv-d", "2,5")
    assert code == 0
    assert doc["payload"]["config"]["equivalence_check"] is True
    assert doc["payload"]["config"]["equivalence_d_range"] == [2, 5]
    code, doc = run_json(capsys, "scan", "--n", "2", "--equiv-d", "none")
    assert code == 0
    assert doc["payload"]["config"]["equivalence_check"] is False


def test_scan_text_mentions_no_violations(capsys):
    code, out, _ = run_cli(capsys, "scan", "--n", "2")
    assert code == 0
    assert "violations: none" in out and "equivalence: agreed" in out


def doctored(name, **changes):
    """A patch that makes boolfun.cli's name return its real result with the
    given fields replaced."""
    def patch(monkeypatch):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *args: dataclasses.replace(real(*args), **changes))
    return patch


@pytest.mark.parametrize("argv, patch, lines, code", [
    (["derivative", "--fn", "maj:3", "--i", "2"], None,
     ["counts over 4 restrictions: zero=2 plus=2 minus=0", "counted and spectral routes agree"], 0),
    (["analyze", "--fn", "maj:3", "--spectrum"], None, ["       1: 1/2", "     111: -1/2"], 0),
    (["maj", "--d", "3", "--table"], None, ["table: 0xe8"], 0),
    (["scan", "--n", "2", "--degree", "1"], None, ["degree filter: 1"], 0),
    # a violation is a reported result, and a disagreement an internal error
    (["analyze", "--fn", "maj:3"], doctored("check_conjecture", satisfied=False),
     ["!!! CONJECTURE VIOLATION: linear sum 3/2 exceeds M(3) = 3/2"], 0),
    (["scan", "--n", "2"],
     doctored("run_scan", violations=(ConjectureWitness("0x6", 2, 2, DyadicRational(3, 1), ONE),)),
     ["!!! CONJECTURE VIOLATION: 1 witness(es)", "  0x6 degree 2: linear sum 3/2 exceeds 1"], 0),
    (["equiv", "--fn", "maj:3", "--d", "1"], doctored("equivalence_predicates", ineq_a=True),
     ["!!! EQUIVALENCE BROKEN: the four inequalities disagree"], 2),
], ids=["derivative", "spectrum", "maj-table", "degree-filter", "analyze-violation",
        "scan-violation", "equiv-broken"])
def test_text_renderers(capsys, monkeypatch, argv, patch, lines, code):
    if patch:
        patch(monkeypatch)
    got, out, err = run_cli(capsys, *argv)
    assert (got, err) == (code, "")
    assert set(lines) <= set(out.splitlines()), out


# -------------------------------------------------------------- exit codes

def test_usage_errors_exit_1(capsys):
    cases = [
        [],
        ["analyze"],
        ["analyze", "--fn", "maj:3", "--hex", "0xe8", "--n", "3"],
        ["analyze", "--fn", "waffle:3"],
        ["analyze", "--fn", "maj:x"],
        ["analyze", "--fn", "maj:1:2"],
        ["analyze", "--fn", "maj:"],
        ["analyze", "--hex", "0xe8"],
        ["analyze", "--fn", "maj:3", "--n", "5"],
        ["analyze", "--hex", "0x+f", "--n", "3"],
        ["analyze", "--nope"],
        ["scan", "--n", "3", "--mode", "upside-down"],
        ["scan", "--n", "6"],
        ["scan", "--n", "5", "--allow-huge"],
        ["scan", "--n", "3", "--mode", "random"],
        ["scan", "--n", "3", "--equiv-d", "one,two"],
        ["scan", "--n", "3", "--equiv-d", ","],
        ["equiv", "--fn", "maj:3", "--d", "0"],
        ["derivative", "--fn", "maj:3", "--i", "9"],
    ]
    for argv in cases:
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1, argv
        assert captured.err.strip(), argv


def test_fn_range_errors_keep_specific_messages(capsys):
    # range failures must not be reported as parse failures
    cases = [
        (["analyze", "--fn", "maj:0"], "arity must be in 1..24"),
        (["analyze", "--fn", "dictator:5:3"], "out of range for arity 3"),
        (["analyze", "--fn", "const:x:2"], "sign must be"),
        (["analyze", "--fn", "maj:3.5"], "non-integer parameter"),
    ]
    for argv, fragment in cases:
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1, argv
        assert fragment in captured.err, (argv, captured.err)


def test_integer_arguments_are_strict(capsys):
    # int() would read a number from each of these
    cases = [
        ["analyze", "--fn", "maj:1_1"],
        ["scan", "--n", "1_2", "--mode", "random", "--samples", "1"],
        ["scan", "--n", "3", "--equiv-d", "1_0"],
        ["scan", "--n", "3", "--equiv-d", "1, 2"],
        ["scan", "--n", " 2"],
    ]
    for argv in cases:
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1, argv
        assert captured.err.strip() and captured.out == "", argv


def test_internal_failure_exits_2(capsys, monkeypatch):
    base = run_scan(ScanConfig(n=2, mode="exhaustive"))
    doctored = dataclasses.replace(
        base,
        equivalence_failures=(
            EquivalenceWitness("0x6", 2, 1, True, False, True, True),
        ),
    )
    monkeypatch.setattr("boolfun.cli.run_scan", lambda cfg: doctored)
    code, out, _ = run_cli(capsys, "scan", "--n", "2")
    assert code == 2
    assert "EQUIVALENCE BROKEN" in out and "0x6" in out


def test_invariant_error_exits_2(capsys, monkeypatch):
    def explode(cfg):
        raise InvariantError("spectrum norm check failed during scan")

    monkeypatch.setattr("boolfun.cli.run_scan", explode)
    code, out, err = run_cli(capsys, "scan", "--n", "2")
    assert code == 2 and "internal error" in err


def test_help_exits_zero():
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0


# -------------------------------------------------------------- subprocess

def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "boolfun", "analyze", "--fn", "maj:3"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "3/2" in proc.stdout


def test_module_entry_point_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "boolfun", "analyze", "--fn", "nonsense"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    assert "error" in proc.stderr
