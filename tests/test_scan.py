"""Scan engine: results, merging, determinism, and the random stream.

The cross-check oracle reruns a whole scan one function at a time through
the Fraction oracle in tests/oracles.py and aggregates with plain
dictionaries, so any batching or scaling mistake in the engine, or in the
integer formulas it shares with the single-function API, shows up as a
mismatch.
"""

import dataclasses

import pytest

from boolfun import (
    BooleanFunction,
    InputError,
    ScanConfig,
    merge_results,
    run_scan,
    scan_sample_range,
    scan_table_range,
    to_hex,
)
from boolfun.cli import _scan_payload
from boolfun.dyadic import DyadicRational, ZERO
from boolfun.scan import ConjectureWitness, EquivalenceWitness, ScanResult, _sample_table
from oracles import frac_bound, frac_side, oracle_predicates


def strip_time(result: ScanResult):
    """Comparable view of everything except wall_time."""
    return (
        result.config,
        result.functions_examined,
        result.violations,
        result.equivalence_failures,
        {d: dataclasses.astuple(e) for d, e in result.per_degree.items()},
    )


def oracle_scan(cfg: ScanConfig, tables):
    """Fraction oracle, one function at a time, aggregated by hand."""
    cfg = cfg.resolved()
    per_degree = {}
    violations = []
    equiv_failures = []
    for table in tables:
        f = BooleanFunction(cfg.n, table)
        side = frac_side(f)
        if cfg.degree_filter is not None and side.degree != cfg.degree_filter:
            continue
        ent = per_degree.setdefault(side.degree, {"count": 0, "best": None,
                                                  "witness": None, "hits": 0})
        ent["count"] += 1
        if ent["best"] is None or side.linear_sum > ent["best"]:
            ent.update(best=side.linear_sum, witness=table, hits=1)
        elif side.linear_sum == ent["best"]:
            ent["hits"] += 1
            ent["witness"] = min(ent["witness"], table)
        if side.linear_sum > frac_bound(side.degree):
            violations.append(table)
        if cfg.equivalence_check:
            for d in cfg.equivalence_d_range:
                if len(set(oracle_predicates(f, d, side).values())) > 1:
                    equiv_failures.append((table, d))
    return per_degree, violations, equiv_failures


def assert_matches_oracle(result: ScanResult, tables):
    per_degree, violations, equiv_failures = oracle_scan(result.config, tables)
    assert sorted(result.per_degree) == sorted(per_degree)
    for d, ext in result.per_degree.items():
        want = per_degree[d]
        assert ext.function_count == want["count"]
        assert ext.max_linear_sum.as_fraction() == want["best"]
        assert ext.witness == to_hex(BooleanFunction(result.config.n, want["witness"]))
        assert ext.witness_count == want["hits"]
        assert ext.bound.as_fraction() == frac_bound(d)
        assert ext.margin == ext.bound - ext.max_linear_sum
    assert [w.table_hex for w in result.violations] == \
        [to_hex(BooleanFunction(result.config.n, t)) for t in sorted(violations)]
    assert [(w.table_hex, w.d) for w in result.equivalence_failures] == \
        [(to_hex(BooleanFunction(result.config.n, t)), d)
         for t, d in sorted(equiv_failures)]


# ------------------------------------------------------------- small scans

def test_exhaustive_n1():
    res = run_scan(ScanConfig(n=1, mode="exhaustive"))
    assert res.functions_examined == 4
    assert not res.violations and not res.equivalence_failures
    assert sorted(res.per_degree) == [0, 1]
    deg0, deg1 = res.per_degree[0], res.per_degree[1]
    assert (deg0.function_count, deg0.max_linear_sum, deg0.witness,
            deg0.witness_count) == (2, ZERO, "0x0", 2)
    assert deg0.bound == ZERO and deg0.margin == ZERO
    assert (deg1.function_count, deg1.max_linear_sum, deg1.witness,
            deg1.witness_count) == (2, DyadicRational(1), "0x2", 1)


def test_exhaustive_n2_degree_histogram():
    res = run_scan(ScanConfig(n=2, mode="exhaustive"))
    assert res.functions_examined == 16
    counts = {d: e.function_count for d, e in res.per_degree.items()}
    assert counts == {0: 2, 1: 4, 2: 10}
    deg2 = res.per_degree[2]
    assert deg2.max_linear_sum == 1 and deg2.bound == 1 and deg2.margin == ZERO
    assert deg2.witness == "0x8" and deg2.witness_count == 2


def test_exhaustive_matches_oracle():
    for n in (1, 2, 3):
        cfg = ScanConfig(n=n, mode="exhaustive", chunk_size=50)
        res = run_scan(cfg)
        assert res.functions_examined == 1 << (1 << n)
        assert_matches_oracle(res, range(1 << (1 << n)))


def test_degree_filter():
    res = run_scan(ScanConfig(n=3, mode="exhaustive", degree_filter=3))
    assert res.functions_examined == 256
    assert list(res.per_degree) == [3]
    ext = res.per_degree[3]
    assert ext.function_count == 186
    assert ext.max_linear_sum == DyadicRational(3, 1)
    assert ext.witness == "0xe8" and ext.witness_count == 1
    assert_matches_oracle(res, range(256))


def test_random_scan_matches_oracle():
    cfg = ScanConfig(n=4, mode="random", sample_count=300, seed=9,
                     equivalence_check=True, equivalence_d_range=(1, 3, 5))
    res = run_scan(cfg)
    assert res.functions_examined == 300
    tables = [_sample_table(9, k, 16) for k in range(300)]
    assert_matches_oracle(res, tables)


def test_random_stream_is_partition_independent():
    cfg = ScanConfig(n=5, mode="random", sample_count=64, seed=1234)
    whole = scan_sample_range(cfg, 0, 64)
    acc = None
    for a, b in ((0, 7), (7, 8), (8, 40), (40, 64)):
        piece = scan_sample_range(cfg, a, b)
        acc = piece if acc is None else merge_results(acc, piece)
    assert strip_time(acc) == strip_time(whole)


def test_random_reproducible_and_seed_sensitive():
    cfg = lambda seed: ScanConfig(n=6, mode="random", sample_count=100, seed=seed)
    a = run_scan(cfg(7))
    b = run_scan(cfg(7))
    c = run_scan(cfg(8))
    assert strip_time(a) == strip_time(b)
    assert strip_time(a) != strip_time(c)


def test_sample_values_distinct_by_index():
    seen = {_sample_table(0, k, 1 << 10) for k in range(50)}
    assert len(seen) == 50


# ---------------------------------------------------------------- merging

def test_merge_reassembles_ragged_partition():
    cfg = ScanConfig(n=3, mode="exhaustive")
    whole = scan_table_range(cfg, 0, 256)
    acc = None
    for a, b in ((0, 1), (1, 100), (100, 107), (107, 256)):
        piece = scan_table_range(cfg, a, b)
        acc = piece if acc is None else merge_results(acc, piece)
    assert strip_time(acc) == strip_time(whole)


def test_merge_commutes():
    cfg = ScanConfig(n=3, mode="exhaustive")
    left = scan_table_range(cfg, 0, 80)
    right = scan_table_range(cfg, 80, 256)
    assert strip_time(merge_results(left, right)) == \
        strip_time(merge_results(right, left))


def test_merge_with_empty_range_is_identity():
    cfg = ScanConfig(n=2, mode="exhaustive")
    some = scan_table_range(cfg, 0, 16)
    empty = scan_table_range(cfg, 16, 16)
    assert empty.functions_examined == 0 and not empty.per_degree
    assert strip_time(merge_results(some, empty)) == strip_time(some)


def test_merge_rejects_different_configs():
    a = scan_table_range(ScanConfig(n=2, mode="exhaustive"), 0, 4)
    b = scan_table_range(ScanConfig(n=3, mode="exhaustive"), 0, 4)
    with pytest.raises(InputError):
        merge_results(a, b)


def test_merge_caps_witness_lists():
    base = run_scan(ScanConfig(n=2, mode="exhaustive"))

    def fake(tables):
        witnesses = tuple(
            ConjectureWitness(table_hex=f"0x{t:x}", n=2, degree=2,
                              linear_sum=DyadicRational(2), bound=DyadicRational(1))
            for t in tables
        )
        failures = tuple(EquivalenceWitness(f"0x{t:x}", 2, 1, True, False, True, True)
                         for t in tables)
        return dataclasses.replace(base, violations=witnesses,
                                   equivalence_failures=failures)

    merged = merge_results(fake(range(600)), fake(range(600, 1300)))
    assert len(merged.violations) == 1000
    assert merged.violations[0].table_hex == "0x0"
    assert merged.violation_count == merged.equivalence_failure_count == 1300
    merged = merge_results(merged, fake(range(1300, 1500)))
    assert len(merged.equivalence_failures) == 1000
    payload = _scan_payload(merged)
    assert payload["violation_count"] == payload["equivalence_failure_count"] == 1500


# ------------------------------------------------------------ determinism

def test_results_identical_across_workers_and_chunks():
    ref = None
    for workers in (1, 2, 8):
        for chunk in (16, 64):
            res = run_scan(ScanConfig(n=3, mode="exhaustive",
                                      worker_count=workers, chunk_size=chunk))
            key = strip_time(dataclasses.replace(res, config=None))
            if ref is None:
                ref = key
            assert key == ref, (workers, chunk)


def test_parallel_random_scan_matches_serial():
    serial = run_scan(ScanConfig(n=4, mode="random", sample_count=200, seed=3))
    parallel = run_scan(ScanConfig(n=4, mode="random", sample_count=200, seed=3,
                                   worker_count=3, chunk_size=17))
    assert strip_time(dataclasses.replace(serial, config=None)) == \
        strip_time(dataclasses.replace(parallel, config=None))


# ------------------------------------------------------------- validation

def test_config_defaults_resolution():
    cfg = ScanConfig(n=3, mode="exhaustive").resolved()
    assert cfg.equivalence_check is True
    assert cfg.equivalence_d_range == (1, 2, 3, 4)
    cfg = ScanConfig(n=4, mode="exhaustive").resolved()
    assert cfg.equivalence_check is False
    assert cfg.equivalence_d_range == ()
    cfg = ScanConfig(n=4, mode="random", sample_count=5).resolved()
    assert cfg.seed == 0
    assert cfg.resolved() == cfg


def test_equivalence_d_range_normalized():
    cfg = ScanConfig(n=2, mode="exhaustive", equivalence_check=True,
                     equivalence_d_range=(3, 1, 3))
    assert cfg.equivalence_d_range == (1, 3)


def test_config_validation_errors():
    with pytest.raises(InputError):
        ScanConfig(n=3, mode="sideways")
    with pytest.raises(InputError):
        ScanConfig(n=0, mode="exhaustive")
    with pytest.raises(InputError):
        ScanConfig(n=5, mode="exhaustive")  # needs allow_huge
    with pytest.raises(InputError):
        ScanConfig(n=6, mode="exhaustive", allow_huge=True)  # beyond any gate
    with pytest.raises(InputError):
        ScanConfig(n=17, mode="random", sample_count=1)
    with pytest.raises(InputError):
        ScanConfig(n=3, mode="random")  # sample_count missing
    with pytest.raises(InputError):
        ScanConfig(n=3, mode="random", sample_count=0)
    with pytest.raises(InputError):
        ScanConfig(n=3, mode="random", sample_count=10, seed=1 << 64)
    with pytest.raises(InputError):
        ScanConfig(n=3, mode="exhaustive", sample_count=10)
    with pytest.raises(InputError):
        ScanConfig(n=3, mode="exhaustive", degree_filter=4)
    with pytest.raises(InputError):
        ScanConfig(n=3, mode="exhaustive", equivalence_d_range=(0,))
    with pytest.raises(InputError):
        ScanConfig(n=3, mode="exhaustive", worker_count=0)
    with pytest.raises(InputError):
        ScanConfig(n=3, mode="exhaustive", chunk_size=0)


def test_allow_huge_gate_constructs_and_slices():
    cfg = ScanConfig(n=5, mode="exhaustive", allow_huge=True)
    res = scan_table_range(cfg, 0, 2048)
    assert res.functions_examined == 2048
    assert not res.violations


def test_range_primitive_validation():
    exh = ScanConfig(n=2, mode="exhaustive")
    rnd = ScanConfig(n=2, mode="random", sample_count=10)
    with pytest.raises(InputError):
        scan_table_range(exh, 0, 17)
    with pytest.raises(InputError):
        scan_table_range(exh, -1, 4)
    with pytest.raises(InputError):
        scan_table_range(exh, 5, 4)
    with pytest.raises(InputError):
        scan_sample_range(rnd, 0, 11)
    with pytest.raises(InputError):
        scan_table_range(rnd, 0, 4)
    with pytest.raises(InputError):
        scan_sample_range(exh, 0, 4)


def test_wall_time_positive():
    res = run_scan(ScanConfig(n=2, mode="exhaustive"))
    assert res.wall_time > 0
