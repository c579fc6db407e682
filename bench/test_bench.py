"""Tests for the benchmark itself: span arithmetic, tracing and the gates.

Run with: python3 -m pytest bench -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import run  # also puts src/ on sys.path
from gates import DirectAnalysis, bound_M, check_query, check_scan_payload, \
    check_scan_result, maj_p_plus
from tracing import Target, Tracer, self_times
from workloads import QueryMix

import boolfun

BENCH = Path(__file__).resolve().parent


def test_self_time_subtracts_nested_children():
    # root [0,10] > a [1,4], b [5,9] > c [6,7]
    starts = [0.0, 1.0, 5.0, 6.0]
    ends = [10.0, 4.0, 9.0, 7.0]
    parents = [-1, 0, 0, 2]
    assert self_times(starts, ends, parents) == pytest.approx([3.0, 3.0, 3.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    starts, ends, parents = [0.0, 1.0, 3.0], [10.0, 5.0, 7.0], [-1, 0, 0]
    assert self_times(starts, ends, parents)[0] == pytest.approx(4.0)


def test_throughput_uses_each_kinds_median_cost():
    phase = run.Phase()
    phase.kinds, phase.work, phase.latencies = ["a", "a", "a", "b"], [1, 1, 1, 2], [1.0, 2.0, 9.0, 4.0]
    # a costs 2 s per unit, b 2 s per unit: 5 units in 10 s
    assert phase.throughput() == pytest.approx(0.5)


@pytest.fixture
def fake_module():
    mod = types.ModuleType("boolfun._bench_fake")
    exec("def inner(x):\n    return x + 1\n\n"
         "def outer(x):\n    return inner(x) * 2\n", mod.__dict__)
    sys.modules[mod.__name__] = mod
    yield mod
    del sys.modules[mod.__name__]


def test_tracer_records_spans_and_restores(fake_module):
    original = fake_module.outer
    tracer = Tracer()
    tracer.install((Target(fake_module.__name__, "outer", "fake.outer"),
                    Target(fake_module.__name__, "inner", "fake.inner")))
    tracer.resume()
    assert fake_module.outer(1) == 4
    tracer.pause()
    fake_module.outer(1)  # paused: not recorded
    tracer.uninstall()
    summary = tracer.summary()
    assert summary["fake.outer"]["calls"] == 1
    assert summary["fake.inner"]["calls"] == 1
    total = summary["fake.outer"]["self_s"] + summary["fake.inner"]["self_s"]
    assert total == pytest.approx(tracer.ends[0] - tracer.starts[0])
    assert fake_module.outer is original


def test_missing_function_gives_absent_metric(fake_module):
    tracer = Tracer()
    tracer.install((Target(fake_module.__name__, "removed_by_refactor", "scan.unpack"),
                    Target("boolfun._no_such_module", "f", "scan.butterfly"),
                    Target(fake_module.__name__, "inner", "scan.accumulate")))
    tracer.uninstall()
    metrics = run.layer_metrics(tracer.summary(), work=1)
    assert "scan.unpack.calls" not in metrics
    assert "scan.butterfly.self_s" not in metrics
    assert metrics["scan.accumulate.self_s"] == 0


@pytest.fixture(scope="module")
def scan_n3():
    return boolfun.run_scan(boolfun.ScanConfig(n=3, mode="exhaustive"))


def test_gate_passes_a_true_result(scan_n3):
    assert check_scan_result(boolfun, scan_n3, 256) == []


def _swap_witnesses(result):
    per = dict(result.per_degree)
    a, b = sorted(per)[-2:]
    per[a], per[b] = (dataclasses.replace(per[a], witness=per[b].witness),
                      dataclasses.replace(per[b], witness=per[a].witness))
    return dataclasses.replace(result, per_degree=per)


def _bump_count(result):
    per = dict(result.per_degree)
    d = max(per)
    per[d] = dataclasses.replace(per[d], function_count=per[d].function_count + 1)
    return dataclasses.replace(result, per_degree=per)


def _add_equivalence_failure(result):
    failure = boolfun.EquivalenceWitness("0x00", 3, 1, True, True, False, True)
    return dataclasses.replace(result, equivalence_failures=(failure,))


@pytest.mark.parametrize("perturb", [
    _swap_witnesses,
    _bump_count,
    _add_equivalence_failure,
    lambda r: dataclasses.replace(r, functions_examined=r.functions_examined - 1),
])
def test_gate_fails_on_perturbed_result(scan_n3, perturb):
    assert check_scan_result(boolfun, perturb(scan_n3), 256)


def test_payload_gate_fails_on_off_by_one(scan_n3):
    from boolfun.cli import _scan_payload

    payload = _scan_payload(scan_n3)
    assert check_scan_payload(boolfun, payload, 256) == []
    assert check_scan_payload(boolfun, payload, 257)
    payload["per_degree"]["3"]["function_count"] -= 1
    assert check_scan_payload(boolfun, payload, 256)


def test_oracle_majority_formulas_match_the_package():
    for d in range(1, 13):
        profile = boolfun.majority_profile(d)
        assert bound_M(d) == profile.bound_M.as_fraction()
        assert maj_p_plus(d) == profile.p_plus_per_coordinate.as_fraction()
        assert d * maj_p_plus(d) == profile.total_influence.as_fraction()
    assert bound_M(0) == 0


def test_direct_analysis_of_majority_3():
    ref = DirectAnalysis(3, boolfun.majority(3).table)
    assert (ref.degree, ref.linear_sum) == (3, bound_M(3))


def test_query_oracle_catches_a_wrong_answer():
    wl = QueryMix()
    wl.setup()
    wl.start(5)
    for _ in range(20):
        q = wl.next_input()
        _, out = wl.execute(q)
        assert check_query(q.n, q.table, q.d, q.i, out) == []
    spectrum, report, profile, preds, counted, spectral = out
    off_by_one = dataclasses.replace(report, linear_sum=report.linear_sum + 1)
    assert check_query(q.n, q.table, q.d, q.i,
                       (spectrum, off_by_one, profile, preds, counted, spectral))
    flipped = dataclasses.replace(preds, original=not preds.original)
    assert check_query(q.n, q.table, q.d, q.i,
                       (spectrum, report, profile, flipped, counted, spectral))


def test_query_mix_traced_run_reports_every_layer():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "query-mix",
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"] for m in declared} == set(result["metrics"])
    for name, metric in result["metrics"].items():
        if name.startswith("scan."):
            assert metric["value"] == 0, name


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench")
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "query-mix",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
