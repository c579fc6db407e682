"""Scan engine: results, merging, determinism, and the random stream.

The cross-check oracle reruns a whole scan one function at a time through
the Fraction oracle in tests/oracles.py and aggregates with plain
dictionaries, so any batching or scaling mistake in the engine, or in the
integer formulas it shares with the single-function API, shows up as a
mismatch.
"""

import collections
import dataclasses
import functools
import json
import math
import random
from concurrent.futures import Future

import numpy as np
import pytest

from boolfun import (
    BooleanFunction,
    InputError,
    InvariantError,
    ScanConfig,
    check_conjecture,
    constant,
    dictator,
    fwht,
    join,
    majority,
    merge_results,
    parity,
    run_scan,
    scan,
    scan_sample_range,
    scan_table_range,
    to_hex,
    total_influence,
)
from boolfun.cli import _scan_payload, main
from boolfun.conjecture import _sides
from boolfun.core import _degrees, _linear_sums
from boolfun.derivatives import _identity_breaks, _total_influences, derivative_value_counts
from boolfun.dyadic import DyadicRational, ZERO
from boolfun.majority import maj_bound
from boolfun.scan import (
    _BLOCK_BYTES,
    _EXHAUSTIVE_MAX_N,
    ConjectureWitness,
    DegreeExtremal,
    EquivalenceWitness,
    ScanResult,
    _accumulate,
    _batch_butterfly,
    _bits_matrix,
    _build_consts,
    _derivative_counts,
    _extremal,
    _level,
    _pairs,
    _sample_table,
    _spectrum_blocks,
    _spectrum_dtype,
    _spectrum_reductions,
)
from oracles import frac_bound, frac_side, oracle_predicates


def oracle_scan(cfg: ScanConfig, tables):
    """Fraction oracle, one function at a time, aggregated by hand."""
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
    # n = 4 joins two chunks; n = 6 and 7 join 4 and 8 arity-4 chunks
    for n, count, d_range in ((4, 300, (1, 3, 5)), (6, 60, (1, 4, 7)), (7, 40, (1, 4, 8))):
        cfg = ScanConfig(n=n, mode="random", sample_count=count, seed=9,
                         equivalence_check=True, equivalence_d_range=d_range)
        res = run_scan(cfg)
        assert res.functions_examined == count
        tables = [_sample_table(9, k, 1 << n) for k in range(count)]
        assert_matches_oracle(res, tables)


def test_random_stream_is_partition_independent():
    cfg = ScanConfig(n=5, mode="random", sample_count=64, seed=1234)
    whole = scan_sample_range(cfg, 0, 64)
    acc = None
    for a, b in ((0, 7), (7, 8), (8, 40), (40, 64)):
        piece = scan_sample_range(cfg, a, b)
        acc = piece if acc is None else merge_results(acc, piece)
    assert acc == whole


def test_random_reproducible_and_seed_sensitive():
    cfg = lambda seed: ScanConfig(n=6, mode="random", sample_count=100, seed=seed)
    a = run_scan(cfg(7))
    b = run_scan(cfg(7))
    c = run_scan(cfg(8))
    assert a == b
    assert a != c


def test_sample_values_distinct_by_index():
    seen = {_sample_table(0, k, 1 << 10) for k in range(50)}
    assert len(seen) == 50


def test_samples_are_drawn_one_sub_batch_at_a_time(monkeypatch):
    # an n = 16 table is an 8 KiB int, so a span must not draw all of its
    # tables before the first sub-batch runs
    n, count = 16, 70
    step = max(1, scan._BATCH_CELLS >> n)
    drawn, handed = [], []
    sample, accumulate = scan._sample_table, scan._accumulate

    def counted_sample(*args):
        drawn.append(args[1])
        return sample(*args)

    def counted_accumulate(cfg, consts, tables):
        handed.append((len(tables), len(drawn)))
        return accumulate(cfg, consts, tables)

    monkeypatch.setattr(scan, "_sample_table", counted_sample)
    monkeypatch.setattr(scan, "_accumulate", counted_accumulate)
    cfg = ScanConfig(n=n, mode="random", sample_count=count, seed=3)
    res = scan_sample_range(cfg, 0, count)
    # no sub-batch exceeds the cap, and each one's tables are drawn only
    # once the earlier sub-batches are done
    assert len(handed) > 2
    assert handed == [(min(step, count - off), min(off + step, count))
                      for off in range(0, count, step)]
    assert drawn == list(range(count))
    monkeypatch.undo()
    assert res == scan_sample_range(cfg, 0, count)


# ---------------------------------------------------------------- merging

def test_merge_reassembles_ragged_partition():
    cfg = ScanConfig(n=3, mode="exhaustive")
    whole = scan_table_range(cfg, 0, 256)
    acc = None
    for a, b in ((0, 1), (1, 100), (100, 107), (107, 256)):
        piece = scan_table_range(cfg, a, b)
        acc = piece if acc is None else merge_results(acc, piece)
    assert acc == whole


def test_merge_commutes():
    cfg = ScanConfig(n=3, mode="exhaustive")
    left = scan_table_range(cfg, 0, 80)
    right = scan_table_range(cfg, 80, 256)
    assert merge_results(left, right) == merge_results(right, left)


def test_merge_with_empty_range_is_identity():
    cfg = ScanConfig(n=2, mode="exhaustive")
    some = scan_table_range(cfg, 0, 16)
    empty = scan_table_range(cfg, 16, 16)
    assert empty.functions_examined == 0 and not empty.per_degree
    assert merge_results(some, empty) == some


def test_merge_rejects_different_configs():
    a = scan_table_range(ScanConfig(n=2, mode="exhaustive"), 0, 4)
    b = scan_table_range(ScanConfig(n=3, mode="exhaustive"), 0, 4)
    with pytest.raises(InputError):
        merge_results(a, b)


def test_merge_folds_shared_degrees_and_passes_on_the_others():
    base = run_scan(ScanConfig(n=3, mode="exhaustive"))

    def record(d, count, best, witness, reach):
        best = DyadicRational(best, 3)
        return DegreeExtremal(d, count, best, witness, reach, maj_bound(d), maj_bound(d) - best)

    def merged(left, right):
        return merge_results(dataclasses.replace(base, per_degree=left),
                             dataclasses.replace(base, per_degree=right)).per_degree

    # equal bests: the counts and the reaches add, and the smaller witness wins
    left, right = record(2, 5, 8, "0x3c", 2), record(2, 3, 8, "0x0f", 1)
    for pair in ((left, right), (right, left)):
        assert merged({2: pair[0]}, {2: pair[1]}) == {2: record(2, 8, 8, "0x0f", 3)}
    # a larger best wins with its witness and reach, and the counts add
    low = record(2, 7, 4, "0x01", 6)
    for pair in ((left, low), (low, left)):
        assert merged({2: pair[0]}, {2: pair[1]}) == {2: record(2, 12, 8, "0x3c", 2)}
    # disjoint degrees: each record comes through as it is, in degree order
    one, three = record(1, 4, 8, "0x0f", 2), record(3, 6, 4, "0x17", 1)
    out = merged({3: three}, {1: one})
    assert list(out) == [1, 3] and out[1] is one and out[3] is three


def test_a_span_and_its_merge_build_only_the_records_they_report(monkeypatch):
    # a range read gives integers, and the records are built from them: no
    # BooleanFunction re-checks a table the scan made, and no margin is a
    # DyadicRational subtraction; a merge builds one record for a degree both
    # sides hold and passes on the record of a degree that one side holds
    cfg = ScanConfig(n=5, mode="exhaustive", equivalence_d_range=tuple(range(1, 7)))
    span = 1 << 14
    scan_table_range(cfg, 0, span)  # the level, its proof and its keys
    calls = collections.Counter()

    def counted(name, fn):
        return lambda *args, **kwargs: calls.update([name]) or fn(*args, **kwargs)

    monkeypatch.setattr(BooleanFunction, "__post_init__",
                        counted("function", BooleanFunction.__post_init__))
    monkeypatch.setattr(DyadicRational, "__sub__", counted("sub", DyadicRational.__sub__))
    low, high = scan_table_range(cfg, 0, span), scan_table_range(cfg, 5000 * span, 5001 * span)
    assert not low.violations and not high.violations and not calls
    shared = low.per_degree.keys() & high.per_degree.keys()
    assert shared and low.per_degree.keys() - shared
    monkeypatch.setattr(scan, "DegreeExtremal", counted("record", DegreeExtremal))
    for left, right in ((low, high), (high, low)):
        calls.clear()
        out = merge_results(left, right)
        assert calls == {"record": len(shared)}
        for d, ext in low.per_degree.items():
            assert (out.per_degree[d] is ext) == (d not in shared), d


def test_merged_partitions_give_one_calls_payload_bytes():
    # random cuts of the n = 4 range, merged pairwise in a random order, give
    # the payload of the range read whole
    for cfg in (ScanConfig(n=4, mode="exhaustive"),
                ScanConfig(n=4, mode="exhaustive", equivalence_d_range=(1, 2, 5)),
                ScanConfig(n=4, mode="exhaustive", degree_filter=3)):
        want = json.dumps(_scan_payload(scan_table_range(cfg, 0, cfg.total)))
        for seed in range(3):
            rng = random.Random(seed)
            cuts = sorted(rng.sample(range(1, cfg.total), rng.randrange(1, 12)))
            pieces = [scan_table_range(cfg, a, b)
                      for a, b in zip([0, *cuts], [*cuts, cfg.total])]
            while len(pieces) > 1:
                left = pieces.pop(rng.randrange(len(pieces)))
                right = pieces.pop(rng.randrange(len(pieces)))
                pieces.append(merge_results(left, right))
            assert json.dumps(_scan_payload(pieces[0])) == want, (cfg, seed)


def test_margins_are_taken_over_2_to_the_n_exactly():
    # M(d)'s denominator divides 2^n at every d <= n, so the margin is an
    # integer over 2^n; where it does not, the record is refused, not wrong
    rng = random.Random(30)
    for n in range(1, 17):
        for d in range(1, n + 1):
            assert maj_bound(d).log2_den <= n
            top = n << n
            for best in (-top, 0, top, *(rng.randint(-top, top) for _ in range(24))):
                ext = _extremal(n, d, 1, best, 1, 0)
                want = maj_bound(d) - DyadicRational(best, n)
                assert (ext.margin.num, ext.margin.log2_den) == (want.num, want.log2_den)
                assert ext.max_linear_sum == DyadicRational(best, n)
                assert ext.bound is maj_bound(d)
    refused = 0
    for n in range(1, 6):
        for d in range(n + 1, 2 * n + 4):
            if maj_bound(d).log2_den > n:
                refused += 1
                with pytest.raises(InvariantError):
                    _extremal(n, d, 1, 1, 1, 0)
            else:
                ext = _extremal(n, d, 1, 1, 1, 0)
                assert ext.margin == maj_bound(d) - DyadicRational(1, n)
    assert refused


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
    # an exhaustive scan runs in process; a random one merges pool spans
    for cfg in (ScanConfig(n=3, mode="exhaustive"),
                ScanConfig(n=5, mode="random", sample_count=300, seed=4, equivalence_check=True)):
        ref = None
        for workers in (1, 2, 8):
            for chunk in (16, 64):
                res = run_scan(dataclasses.replace(cfg, worker_count=workers, chunk_size=chunk))
                if ref is None:
                    ref = res
                assert res == ref, (cfg.mode, workers, chunk)


def test_results_are_values():
    # worker_count and chunk_size say how a scan is run, not what it scans
    pooled = ScanConfig(n=3, mode="exhaustive", worker_count=2, chunk_size=17)
    serial = ScanConfig(n=3, mode="exhaustive")
    assert pooled == serial and hash(pooled) == hash(serial)
    for run, other in ((pooled, serial), (serial, pooled)):
        pieces = [scan_table_range(run, a, b) for a, b in ((0, 100), (100, 101), (101, 256))]
        assert functools.reduce(merge_results, pieces) == run_scan(other)
    assert merge_results(scan_table_range(pooled, 0, 100),
                         scan_table_range(serial, 100, 256)) == run_scan(serial)


def test_one_worker_scans_without_spans(monkeypatch):
    # sub-batches bound a span's memory, so chunk_size only splits a pool's work
    spans = []
    analyze = scan._analyze_chunk

    def counted(cfg, start, stop):
        spans.append((start, stop))
        return analyze(cfg, start, stop)

    cfgs = (ScanConfig(n=3, mode="exhaustive", chunk_size=16),
            ScanConfig(n=5, mode="random", sample_count=300, chunk_size=7))
    pooled = [run_scan(dataclasses.replace(cfg, worker_count=2)) for cfg in cfgs]
    monkeypatch.setattr(scan, "_analyze_chunk", counted)
    for cfg, want in zip(cfgs, pooled):
        spans.clear()
        assert run_scan(cfg) == want
        assert spans == [(0, cfg.total)]


def test_exhaustive_range_is_one_range_read(monkeypatch):
    # on a proven level with no degree over the bound, a range of any length
    # is one _accumulate call and one _range_extremes call
    calls = []

    def counted(module, name):
        inner = getattr(module, name)
        return lambda *args: calls.append(name) or inner(*args)

    for module, name in ((scan, "_accumulate"), (join, "_range_extremes")):
        monkeypatch.setattr(module, name, counted(module, name))
    cases = [(ScanConfig(n=4, mode="exhaustive", equivalence_check=True), 7, 60000),
             (ScanConfig(n=5, mode="exhaustive",
                         equivalence_d_range=tuple(range(1, 7))), 0, 1 << 32)]
    for cfg, start, stop in cases:
        calls.clear()
        assert scan._analyze_chunk(cfg, start, stop).functions_examined == stop - start
        assert calls == ["_accumulate", "_range_extremes"], cfg


def test_pool_spans_in_flight_are_bounded_and_merged_in_order():
    class Pool:  # resolves each span at once to its start index
        submitted = 0

        def submit(self, fn, cfg, start, stop):
            self.submitted += 1
            future = Future()
            future.set_result(start)
            return future

    pool = Pool()
    spans = ((None, s, s + 1) for s in range(100))
    for done, start in enumerate(scan._bounded_map(pool, spans, 8)):
        assert start == done
        assert pool.submitted <= done + 1 + 8
    assert pool.submitted == 100


def test_a_failed_pool_span_cancels_the_spans_queued_behind_it():
    class Pool:  # spans below 3 resolve to their start, span 3 fails, the rest wait
        def __init__(self):
            self.futures = []

        def submit(self, fn, cfg, start, stop):
            future = Future()
            if start < 3:
                future.set_result(start)
            elif start == 3:
                future.set_exception(ValueError("span 3"))
            self.futures.append(future)
            return future

    pool = Pool()
    spans = iter([(None, s, s + 1) for s in range(100)])
    results = scan._bounded_map(pool, spans, 8)
    assert [next(results) for _ in range(3)] == [0, 1, 2]
    with pytest.raises(ValueError, match="span 3"):
        next(results)
    assert len(pool.futures) == 3 + 8 and next(spans)[1] == 3 + 8  # nothing later submitted
    assert [f.cancelled() for f in pool.futures] == [False] * 4 + [True] * 7
    # a caller that stops early drops the queued spans too
    pool = Pool()
    results = scan._bounded_map(pool, ((None, s, s + 1) for s in range(100)), 8)
    assert next(results) == 0
    results.close()
    assert [f.cancelled() for f in pool.futures] == [False] * 4 + [True] * 5


def test_pool_is_no_larger_than_its_span_count(monkeypatch):
    # a fork pool starts all max_workers processes at the first submit.  An
    # exhaustive scan is one range read, and a random scan of one span is
    # read in process, so neither starts a pool at all
    sizes = []

    class Pool:  # runs each span inline and records the pool size
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(scan, "ProcessPoolExecutor", Pool)
    cases = [(dict(n=3, mode="exhaustive", worker_count=8), None),
             (dict(n=3, mode="exhaustive", worker_count=8, chunk_size=100), None),
             (dict(n=4, mode="exhaustive", worker_count=2, chunk_size=1), None),
             (dict(n=3, mode="random", sample_count=256, worker_count=8), None),
             (dict(n=3, mode="random", sample_count=256, worker_count=8, chunk_size=100), 3),
             (dict(n=4, mode="random", sample_count=50, worker_count=2, chunk_size=10), 2)]
    for kwargs, workers in cases:
        cfg = ScanConfig(**kwargs)
        sizes.clear()
        assert run_scan(cfg) == scan._analyze_chunk(cfg, 0, cfg.total)
        assert sizes == ([] if workers is None else [workers]), kwargs


def test_parallel_random_scan_matches_serial():
    serial = run_scan(ScanConfig(n=4, mode="random", sample_count=200, seed=3))
    parallel = run_scan(ScanConfig(n=4, mode="random", sample_count=200, seed=3,
                                   worker_count=3, chunk_size=17))
    assert serial == parallel


# ------------------------------------------------------------- validation

def test_config_defaults_resolution():
    cfg = ScanConfig(n=3, mode="exhaustive")
    assert cfg.equivalence_check is True
    assert cfg.equivalence_d_range == (1, 2, 3, 4)
    cfg = ScanConfig(n=4, mode="exhaustive")
    assert cfg.equivalence_check is False
    assert cfg.equivalence_d_range == ()
    cfg = ScanConfig(n=4, mode="random", sample_count=5)
    assert cfg.seed == 0


def test_config_defaults_are_filled_on_construction():
    cfg = ScanConfig(n=3, mode="exhaustive")
    same = ScanConfig(n=3, mode="exhaustive", equivalence_check=True,
                      equivalence_d_range=(4, 3, 2, 1))
    assert cfg == same
    merged = merge_results(scan_table_range(cfg, 0, 100), scan_table_range(same, 100, 256))
    assert merged == scan_table_range(cfg, 0, 256)


def test_range_bounds_must_be_integers():
    exh = ScanConfig(n=3, mode="exhaustive")
    rnd = ScanConfig(n=3, mode="random", sample_count=4)
    for call in (lambda: scan_table_range(exh, True, 3),
                 lambda: scan_table_range(exh, 0.5, 3),
                 lambda: scan_sample_range(rnd, 0, 2.0)):
        with pytest.raises(InputError):
            call()


def test_equivalence_d_range_must_be_iterable():
    with pytest.raises(InputError, match="equivalence_d_range"):
        ScanConfig(n=2, mode="exhaustive", equivalence_d_range=3)
    # an iterator is read once, so its d values are checked and kept
    cfg = ScanConfig(n=2, mode="exhaustive", equivalence_check=True,
                     equivalence_d_range=iter((3, 1)))
    assert cfg.equivalence_d_range == (1, 3)
    with pytest.raises(InputError):
        ScanConfig(n=2, mode="exhaustive", equivalence_d_range=iter((0,)))


def test_given_d_values_turn_the_equivalence_check_on():
    cfg = ScanConfig(n=5, mode="random", sample_count=3, equivalence_d_range=(2, 1))
    assert (cfg.equivalence_check, cfg.equivalence_d_range) == (True, (1, 2))
    assert cfg == ScanConfig(n=5, mode="random", sample_count=3, equivalence_check=True,
                             equivalence_d_range=(1, 2))
    # an explicit False still wins over given d values
    off = ScanConfig(n=3, mode="exhaustive", equivalence_check=False, equivalence_d_range=(1,))
    assert (off.equivalence_check, off.equivalence_d_range) == (False, ())


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
        ScanConfig(n=6, mode="exhaustive")  # beyond the exhaustive range
    with pytest.raises(InputError):
        ScanConfig(n=17, mode="random", sample_count=1)
    with pytest.raises(InputError):
        ScanConfig(n=3, mode="random")  # sample_count missing
    with pytest.raises(InputError):
        ScanConfig(n=3, mode="random", sample_count=0)
    with pytest.raises(InputError):
        ScanConfig(n=3, mode="random", sample_count=10, seed=1 << 64)
    for seed in (1.5, "7", 7.0):
        with pytest.raises(InputError, match="seed"):
            ScanConfig(n=6, mode="random", sample_count=2, seed=seed)
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
    # a bool is an int to isinstance, and a float fails no range check
    for kwargs in (dict(n=True, mode="exhaustive"),
                   dict(n=3, mode="exhaustive", degree_filter=1.5),
                   dict(n=3, mode="exhaustive", degree_filter=True),
                   dict(n=3, mode="random", sample_count=True),
                   dict(n=3, mode="random", sample_count=2, seed=True),
                   dict(n=3, mode="exhaustive", worker_count=True),
                   dict(n=3, mode="exhaustive", chunk_size=True),
                   dict(n=3, mode="exhaustive", equivalence_d_range=(2, True)),
                   dict(n=3, mode="exhaustive", equivalence_check=1),
                   dict(n=5, mode="exhaustive", allow_huge=1)):
        with pytest.raises(InputError):
            ScanConfig(**kwargs)


def test_sample_count_is_capped_at_the_index_width():
    # _sample_table numbers the samples with 8-byte indices
    top = ScanConfig(n=3, mode="random", sample_count=1 << 64)
    assert scan_sample_range(top, (1 << 64) - 1, 1 << 64).functions_examined == 1
    with pytest.raises(InputError, match="sample_count"):
        scan_sample_range(ScanConfig(n=3, mode="random", sample_count=(1 << 64) + 5),
                          1 << 64, (1 << 64) + 1)


def test_exhaustive_n5_constructs_without_an_opt_in_and_slices():
    cfg = ScanConfig(n=5, mode="exhaustive")
    start = 3 << 30
    res = scan_table_range(cfg, start, start + 2048)
    assert res.functions_examined == 2048
    assert not res.violations
    reports = [check_conjecture(BooleanFunction(5, t)) for t in range(start, start + 2048)]
    assert sum(e.function_count for e in res.per_degree.values()) == 2048
    for d, ext in res.per_degree.items():
        sums = [r.linear_sum for r in reports if r.degree == d]
        assert ext.function_count == len(sums)
        assert ext.max_linear_sum == max(sums)
        assert ext.witness_count == sums.count(max(sums))
        witness = int(ext.witness, 16)
        assert reports[witness - start].linear_sum == ext.max_linear_sum


def test_allow_huge_is_derived_so_alike_scans_compare_equal_and_merge(capsys):
    # whatever a caller passes, allow_huge records whether the scan is the
    # exhaustive n = 5 one, so configs of one scan are equal and their pieces merge
    top = 3 << 30
    cases = [(dict(n=3, mode="exhaustive"), False, scan_table_range, (0, 100, 256)),
             (dict(n=5, mode="exhaustive"), True, scan_table_range, (top, top + 700, top + 2048)),
             (dict(n=6, mode="random", sample_count=40, seed=5), False, scan_sample_range,
              (0, 15, 40))]
    for kwargs, derived, read, (start, mid, stop) in cases:
        configs = [ScanConfig(**kwargs, allow_huge=flag) for flag in (True, False)]
        configs.append(ScanConfig(**kwargs))
        assert len(set(configs)) == 1, kwargs
        assert [cfg.allow_huge for cfg in configs] == [derived] * 3, kwargs
        whole = read(configs[2], start, stop)
        assert merge_results(read(configs[0], start, mid), read(configs[1], mid, stop)) == whole
    assert main(["scan", "--n", "5", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["functions_examined"] == 1 << 32
    assert payload["config"]["allow_huge"] is True


# ------------------------------------------------- restriction decomposition

def block_rows(n: int) -> int:
    """Rows of arity-n spectra in one _batch_butterfly block."""
    return max(1, _BLOCK_BYTES // (np.dtype(_spectrum_dtype(n)).itemsize << n))


def test_chunked_route_matches_transform_and_counted_derivatives():
    rng = random.Random(4096)
    # 40 tables at n <= 2, down to 2 at n >= 12
    cases = [(n, max(2, 40 >> (n // 3))) for n in range(1, 17)]
    # more rows than one butterfly block, the last block partial
    cases += [(n, block_rows(n) + 3) for n in (10, 14, 15, 16)]
    for n, count in cases:
        tables = [rng.getrandbits(1 << n) for _ in range(count)]
        chunks = _bits_matrix(tables, n)
        coeffs = _batch_butterfly(chunks, n)
        plus, minus = _derivative_counts(chunks, n)
        assert coeffs.shape == (len(tables), 1 << n)
        for row, t in enumerate(tables):
            f = BooleanFunction(n, t)
            assert coeffs[row].tolist() == fwht(f).coeffs.tolist(), (n, t)
            counts = [derivative_value_counts(f, i) for i in range(1, n + 1)]
            assert plus[row] == sum(c[1] for c in counts), (n, t)
            assert minus[row] == sum(c[2] for c in counts), (n, t)


def assert_level_row(level, k: int, t: int):
    """Row t of an arity-k level record against fwht and counted derivatives."""
    f = BooleanFunction(k, t)
    assert level.rows[t].tolist() == fwht(f).coeffs.tolist(), (k, t)
    counts = [derivative_value_counts(f, i) for i in range(1, k + 1)]
    want = [sum(c[1] for c in counts), sum(c[2] for c in counts)]
    assert level.counts[:, t].tolist() == want, (k, t)


def patch_level(monkeypatch, k: int, **arrays):
    """Make scan._level(k) return _level(k) with the given arrays replaced.
    Every level is built first, so none is built from the patched one."""
    _level(4)
    patched = dataclasses.replace(_level(k), **arrays)
    monkeypatch.setattr(scan, "_level", lambda j: patched if j == k else _level(j))


def test_level_matches_transform_and_counted_derivatives():
    rng = random.Random(2024)
    cases = [(k, t) for k in (1, 2, 3) for t in range(1 << (1 << k))]
    cases += [(4, rng.randrange(1 << 16)) for _ in range(2000)]
    for k, t in cases:
        assert_level_row(_level(k), k, t)
    level = _level(0)
    assert level.rows.tolist() == [[1], [-1]]
    assert level.counts.tolist() == [[0, 0], [0, 0]]


def test_levels_are_built_through_the_gather_route_without_unpacking(monkeypatch):
    def unpack_refused(tables, n):
        raise AssertionError("a level table was unpacked")

    _level.cache_clear()
    monkeypatch.setattr(scan, "_bits_matrix", unpack_refused)
    try:
        level = _level(4)
    finally:
        monkeypatch.undo()
        _level.cache_clear()
    rng = random.Random(4)
    for t in (0, (1 << 16) - 1, *(rng.randrange(1 << 16) for _ in range(500))):
        assert_level_row(level, 4, t)


def test_level_tables_are_read_only():
    # one record per arity serves the whole process
    level = _level(3)
    for values in (level.rows, level.counts, level.halves, level.degrees, level.keys,
                   *level.key_stats):
        with pytest.raises(ValueError):
            values[0] += 1
    assert_level_row(level, 3, 0)


def test_level_counts_are_one_array_gathered_once(monkeypatch):
    # a level holds its +1 and -1 counts as one read-only int8 array, row 0
    # and row 1 with a column per table, and _derivative_counts gathers both
    # rows with one np.take into one (2, tables) int64 array
    for k in range(5):
        counts = _level(k).counts
        assert (counts.flags.writeable, counts.dtype, counts.shape) \
            == (False, np.int8, (2, 1 << (1 << k))), k
    rng = random.Random(3232)
    cases = [(k, t) for k in (1, 2, 3) for t in range(1 << (1 << k))]
    cases += [(4, rng.randrange(1 << 16)) for _ in range(2000)]
    for k, t in cases:
        assert_level_row(_level(k), k, t)
    take, calls = np.take, []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("axis"))
        return take(*args, **kwargs)

    _level(4)
    monkeypatch.setattr(np, "take", counted)
    for chunks, n in ((_pairs(range(5000, 9000), 5), 5),
                      (_bits_matrix([rng.getrandbits(1 << 12) for _ in range(40)], 12), 12)):
        calls.clear()
        counts = _derivative_counts(chunks, n)
        assert (counts.dtype, counts.shape) == (np.int64, (2, len(chunks))), n
        assert calls == [1], n


def test_exhaustive_n5_slices_match_oracle():
    cfg = ScanConfig(n=5, mode="exhaustive", equivalence_d_range=(1, 2, 3, 4, 5, 6, 24))
    rng = random.Random(55)
    # across the boundary of the two 16-bit halves, the last tables, and seeded slices
    slices = [((1 << 16) - 100, (1 << 16) + 100), ((1 << 32) - 100, 1 << 32)]
    slices += [(s, s + 150) for s in (rng.randrange((1 << 32) - 150) for _ in range(3))]
    for start, stop in slices:
        res = scan_table_range(cfg, start, stop)
        assert res.functions_examined == stop - start
        assert_matches_oracle(res, range(start, stop))


def test_corrupted_level_row_fails_norm_check(monkeypatch):
    bad = _level(2).rows.copy()
    bad[5, 0] += 2
    patch_level(monkeypatch, 2, rows=bad)
    assert not scan._level(2).identities_hold
    cfg = ScanConfig(n=3, mode="exhaustive")
    # table = hi * 16 + lo; ranges are reduced from level statistics, so the
    # corrupt row must reach them as lo and as hi
    scan_table_range(cfg, 0, 5)  # neither half is table 5 yet
    with pytest.raises(InvariantError):
        scan_table_range(cfg, 0, 6)
    scan_table_range(cfg, 64, 69)  # hi 4
    with pytest.raises(InvariantError):
        scan_table_range(cfg, 80, 85)  # hi 5, lo 0..4
    monkeypatch.undo()
    scan_table_range(cfg, 0, 256)  # the clean level again
    # n = 5: table = hi * 2^16 + lo, with a corrupt arity-4 row
    cfg = ScanConfig(n=5, mode="exhaustive")
    target = 12345
    bad = _level(4).rows.copy()
    bad[target, 7] += 2
    patch_level(monkeypatch, 4, rows=bad)
    assert not scan._level(4).identities_hold
    below, at = (7 << 16) + target, target << 16
    scan_table_range(cfg, below - 3000, below)
    scan_table_range(cfg, at - 3000, at)  # the last tables under hi target - 1
    for start, stop in ((below - 3000, below + 1), (below, below + 1), (at, at + 3)):
        with pytest.raises(InvariantError):
            scan_table_range(cfg, start, stop)
    monkeypatch.undo()
    scan_table_range(cfg, below - 3000, below + 1)
    # a random n = 3 scan reads every sample whole, as a row of _level(3)
    cfg = ScanConfig(n=3, mode="random", sample_count=2, seed=3)
    first, target = (_sample_table(3, k, 8) for k in range(2))
    assert first != target
    bad = _level(3).rows.copy()
    bad[target, 6] -= 2
    patch_level(monkeypatch, 3, rows=bad)
    scan_sample_range(cfg, 0, 1)  # sample 0 is another table
    with pytest.raises(InvariantError):
        scan_sample_range(cfg, 0, 2)
    monkeypatch.undo()
    # a random n = 6 scan reads every sample as four arity-4 chunks
    cfg = ScanConfig(n=6, mode="random", sample_count=2, seed=5)
    chunks = _bits_matrix([_sample_table(5, k, 64) for k in range(2)], 6)
    target = int(chunks[1, 2])
    assert target not in chunks[0]
    bad = _level(4).rows.copy()
    bad[target, 3] -= 2
    patch_level(monkeypatch, 4, rows=bad)
    scan_sample_range(cfg, 0, 1)  # sample 0 has no chunk equal to target
    with pytest.raises(InvariantError):
        scan_sample_range(cfg, 0, 2)
    monkeypatch.undo()
    # a chunk found only in the last table, which sits in a partial last block
    n = 10
    rng = random.Random(10)
    chunks = _bits_matrix([rng.getrandbits(1 << n) for _ in range(block_rows(n) + 3)], n)
    target = next(int(c) for c in chunks[-1] if c not in chunks[:-1])
    bad = _level(4).rows.copy()
    bad[target, 0] += 2
    patch_level(monkeypatch, 4, rows=bad)
    _batch_butterfly(chunks[:-1], n)
    with pytest.raises(InvariantError):
        _batch_butterfly(chunks, n)


def test_a_range_holding_a_corrupt_half_fails_the_norm_check(monkeypatch):
    # every entry of a level row is even, so one raised by 2 changes its
    # table's N, by 4 (x + 1) for an entry x: the largest entry of an even
    # table, whose value at point 0 is +1, so that its entries sum to 2^k,
    # is positive, and its N grows.  Raised on a hi, on a lo, or on both
    # halves of one pair, the level is unproven, and a range holding such a
    # pair reads its rows, whose norm check fails and names the call, with the
    # equivalence check on and off.  A range holding none equals the list
    # route, which below n = 5 reads the clean _level(n)
    rng = random.Random(25)
    for n in range(2, 6):
        k, per_hi = n - 1, 1 << (1 << (n - 1))
        for kind in ("hi", "lo", "both"):
            hi, lo = (2 * rng.randrange(per_hi // 2) for _ in range(2))
            corrupt = {"hi": {hi}, "lo": {lo}, "both": {hi, lo}}[kind]
            bad = _level(k).rows.copy()
            for t in corrupt:
                bad[t, np.argmax(bad[t])] += 2
            patch_level(monkeypatch, k, rows=bad)
            assert not scan._level(k).identities_hold
            table = hi * per_hi + lo
            start = max(0, table - rng.randrange(2000))
            stop = min(per_hi * per_hi, table + 1 + rng.randrange(2000))
            # under an odd hi, the lo's above every corrupt one
            clean = rng.randrange(per_hi // 2) * 2 + 1
            clean = range(clean * per_hi + max(corrupt) + 1, (clean + 1) * per_hi)
            for check in (True, False):
                cfg = ScanConfig(n=n, mode="exhaustive", equivalence_check=check)
                call = f"scan_table_range({cfg!r}, {start}, {stop})"
                with pytest.raises(InvariantError, match="norm check") as info:
                    scan_table_range(cfg, start, stop)
                assert str(info.value).endswith("; reproduce with " + call), (n, kind)
                assert scan_table_range(cfg, clean.start, clean.stop) == \
                    _accumulate(cfg, _build_consts(cfg), list(clean)), (n, kind, check)
            monkeypatch.undo()


def test_a_sign_flip_keeps_every_norm_and_is_read_row_by_row(monkeypatch):
    # a negated entry keeps its table's N and W, so no norm check fails, and
    # the level is unproven: a range on it with the equivalence check off
    # reads its rows and equals the list route, which below n = 5 reads a
    # _level(n) built from the flipped level
    rng = random.Random(26)
    pairs = scan._pairs
    for n in range(2, 6):
        k, per_hi = n - 1, 1 << (1 << (n - 1))
        target = rng.randrange(per_hi)
        bad = _level(k).rows.copy()
        bad[target, rng.choice(np.flatnonzero(bad[target]).tolist())] *= -1
        patch_level(monkeypatch, k, rows=bad)
        levels = {k: scan._level(k)}
        if n < 5:
            levels[n] = _level.__wrapped__(n)
        monkeypatch.setattr(scan, "_level", lambda j: levels[j] if j in levels else _level(j))
        assert not levels[k].identities_hold
        assert (level_identity_sides(bad)[1] == level_identity_sides(_level(k).rows)[1]).all()
        cfg = ScanConfig(n=n, mode="exhaustive", equivalence_check=False)
        consts = _build_consts(cfg)
        # target as the hi, and as the lo under it
        tables = range(target * per_hi, (target + 1) * per_hi)
        want = _accumulate(cfg, consts, list(tables))
        lengths = []
        monkeypatch.setattr(scan, "_pairs", lambda part, n: lengths.append(len(part))
                            or pairs(part, n))
        assert _accumulate(cfg, consts, tables) == want, n
        assert sum(lengths) == len(tables), n
        monkeypatch.undo()


def test_whole_high_halves_are_read_a_key_block_at_a_time(monkeypatch):
    # the per-hi records of a rectangle grow with its high halves, so no
    # rectangle of the whole n = 5 table holds more than _KEY_BLOCK of them,
    # and together they cover every table once
    rectangles_of, rectangles = join._rectangles, []

    def spy(tables, per_hi):
        for his, los in rectangles_of(tables, per_hi):
            rectangles.append((his, los))
            yield his, los

    monkeypatch.setattr(join, "_rectangles", spy)
    cfg = ScanConfig(n=5, mode="exhaustive")
    scan_table_range(cfg, 0, 1 << 32)
    monkeypatch.undo()
    assert all(his.stop - his.start <= join._KEY_BLOCK for his, _ in rectangles)
    assert len(rectangles) == (1 << 16) // join._KEY_BLOCK
    assert sum((his.stop - his.start) * (los.stop - los.start)
               for his, los in rectangles) == 1 << 32


def test_invariant_errors_name_the_failing_sub_batch(monkeypatch, capsys):
    # an error names the range primitive call that fails again: a random
    # scan's failing sub-batch, or an exhaustive call's whole range, which is
    # read at once
    namespace = {"ScanConfig": ScanConfig, "scan_table_range": scan_table_range,
                 "scan_sample_range": scan_sample_range}

    def assert_named(run, call):
        with pytest.raises(InvariantError, match="norm check") as info:
            run()
        assert str(info.value).endswith("; reproduce with " + call), str(info.value)
        assert isinstance(info.value.__cause__, InvariantError)
        with pytest.raises(InvariantError, match="norm check"):
            eval(call, namespace)

    # n = 5: every 2^16 consecutive tables hold each arity-4 table as lo
    cfg = ScanConfig(n=5, mode="exhaustive")
    step, start = scan._BATCH_CELLS >> 5, (9 << 16) + 20000
    bad = _level(4).rows.copy()
    bad[12345, 7] += 2
    patch_level(monkeypatch, 4, rows=bad)
    assert_named(lambda: scan_table_range(cfg, start, start + 3 * step),
                 f"scan_table_range({cfg!r}, {start}, {start + 3 * step})")
    pooled = dataclasses.replace(cfg, worker_count=2)
    assert_named(lambda: run_scan(pooled), f"scan_table_range({pooled!r}, 0, {1 << 32})")
    monkeypatch.undo()
    # n = 6 samples: an arity-4 chunk found in the second sub-batch only
    step = scan._BATCH_CELLS >> 6
    cfg = ScanConfig(n=6, mode="random", sample_count=2 * step + 10, seed=5)
    chunks = _bits_matrix([_sample_table(5, k, 64) for k in range(2 * step)], 6)
    seen = set(chunks[:step].ravel().tolist())
    target = next(c for c in chunks[step:].ravel().tolist() if c not in seen)
    bad = _level(4).rows.copy()
    bad[target, 3] -= 2
    patch_level(monkeypatch, 4, rows=bad)
    call = f"scan_sample_range({cfg!r}, {step}, {2 * step})"
    assert_named(lambda: run_scan(cfg), call)
    scan_sample_range(cfg, 0, step)  # the first sub-batch is clean
    # the CLI still exits 2, and names the same call
    assert main(["scan", "--n", "6", "--mode", "random", "--seed", "5",
                 "--samples", str(cfg.sample_count)]) == 2
    assert capsys.readouterr().err.rstrip().endswith(call)


def test_block_reductions_match_single_function_api():
    rng = random.Random(77)
    # several blocks at n = 5, a partial last block at n = 10, 14 and 15, one
    # row a block at n = 16; parity has 4^n at |S| = n, and n * 4^n passes
    # int16 at n = 7 and int32 at n = 15, where 4^n does not
    for n, count in ((5, 2 * block_rows(5) + 5), (7, 3), (10, block_rows(10) + 3),
                     (14, block_rows(14) + 3), (15, 1), (15, block_rows(15) + 1), (16, 3)):
        fns = [parity(n), dictator(n, n), constant(n, -1)]
        fns += [BooleanFunction(n, rng.getrandbits(1 << n)) for _ in range(count)]
        deg, lin, inf = _spectrum_reductions(_bits_matrix([f.table for f in fns], n), n, True)
        for row, f in enumerate(fns):
            report = check_conjecture(f)
            assert deg[row] == report.degree, (n, row)
            assert DyadicRational(int(lin[row]), n) == report.linear_sum, (n, row)
            assert DyadicRational(int(inf[row]), 2 * n) == total_influence(fwht(f)), (n, row)
    assert _spectrum_reductions(_bits_matrix([0], 3), 3, False)[2] is None


def test_spectrum_blocks_are_rows_of_tables():
    # like every other spectrum matrix, a block holds one table a row, so the
    # reductions of one spectrum serve it row by row: 4,096 tables a block
    # at n = 5, two at n = 15, each with a partial last block
    rng = random.Random(31)
    for n, count in ((5, block_rows(5) + 7), (15, block_rows(15) + 1)):
        tables = [rng.getrandbits(1 << n) for _ in range(count)]
        done = 0
        for rows, block, squares in _spectrum_blocks(_bits_matrix(tables, n), n):
            assert rows.start == done, n
            done = rows.stop
            for values in (block, squares):
                assert values.shape == (len(tables[rows]), 1 << n), n
                assert values.flags.c_contiguous, n
            assert block.tolist() == [fwht(BooleanFunction(n, t)).coeffs.tolist()
                                      for t in tables[rows]], n
            assert squares.tolist() == (block.astype(np.int64) ** 2).tolist(), n
            for reduce, matrix in ((_degrees, block), (_linear_sums, block),
                                   (_total_influences, squares)):
                assert reduce(matrix, n).tolist() == [reduce(row, n) for row in matrix], n
        assert done == count, n


def rectangle_ranges(n: int) -> list[range]:
    """Ranges of arity-n tables, table = hi * 2^(2^(n-1)) + lo, that cut into
    every shape of _rectangles."""
    per_hi = 1 << (1 << (n - 1))
    total = per_hi * per_hi
    if n == 1:  # two high halves: every range
        return [range(a, b) for a in range(total) for b in range(a + 1, total + 1)]
    return [range(per_hi + 1, 2 * per_hi),  # a partial first high half
            range(per_hi, 3 * per_hi),  # whole high halves
            range(3 * per_hi, 3 * per_hi + 2),  # a partial last high half
            range(per_hi + 1, 3 * per_hi + 1),  # all three
            range(per_hi + 5, per_hi + 6),  # a single table
            range(total - per_hi - 1, total)]  # up to the last table


def assert_reductions_equal(got, want, case):
    for g, w in zip(got, want):
        assert (g is None and w is None) or g.tolist() == w.tolist(), case


def identity_route(source, n: int) -> list[list[int]]:
    """The rows that break an identity, and their 4^n inf, plus and minus,
    through the gather route; a range is read as its halves (_pairs)."""
    if isinstance(source, range):
        source = _pairs(source, n)
    deg, lin, inf = _spectrum_reductions(source, n, True)
    counts = _derivative_counts(source, n)
    rows = _identity_breaks(counts, n, lin, inf)
    return [rows.tolist(), inf[rows].tolist(), *counts[:, rows].tolist()]


def test_range_reductions_match_the_gather_route(monkeypatch):
    # a range read as its halves, two arity-(n - 1) chunks a table, and a list
    # of the same tables read as _bits_matrix chunks reduce alike, as do the
    # halves read pair by pair, and both find the same rows breaking an
    # identity (none, which the proof skips), with the same 4^n inf, plus and
    # minus there
    for n in range(1, 6):
        k = min(n, 4)  # a list reads 2^(n-k) arity-k chunks a table
        for tables in rectangle_ranges(n):
            chunks, halves = _bits_matrix(list(tables), n), _pairs(tables, n)
            assert halves.shape == (len(tables), 2)
            if n == 5:
                assert halves.tolist() == chunks.tolist()
            for influence in (True, False):
                want = _spectrum_reductions(chunks, n, influence)
                assert_reductions_equal(_spectrum_reductions(halves, n, influence), want,
                                        (n, tables, influence))
            assert identity_route(tables, n) == identity_route(chunks, n) == [[]] * 4
            # one -1 value turned +1 in every half's counts, or in every
            # chunk's, adds 2 to each table's plus and takes 2 from its minus:
            # plus + minus stays, so every row breaks the first identity only,
            # and both routes give every row's inf, plus and minus
            level, step = _level(n - 1), 1
            patch_level(monkeypatch, n - 1, counts=level.counts + [[step], [-step]])
            assert not scan._level(n - 1).identities_hold
            got = identity_route(tables, n)
            monkeypatch.undo()
            level, step = _level(k), 2 >> (n - k)
            patch_level(monkeypatch, k, counts=level.counts + [[step], [-step]])
            want = identity_route(chunks, n)
            monkeypatch.undo()
            assert got == want, (n, tables)
            assert got[0] == list(range(len(tables))), (n, tables)


def test_range_reductions_read_the_level_spectra(monkeypatch):
    # a sign flip keeps a level row's N, a, b and W, so no norm check fails,
    # and the flipped spectrum must reach both routes: in a range, through
    # <A_lo, A_hi> in the second identity too.  No row broke an identity
    # before the flip, so a row breaks one where its inf changed
    n, target = 5, 12345
    bad = _level(4).rows.copy()
    mask = next(s for s in range(16) if bin(s).count("1") >= 2 and bad[target, s])
    bad[target, mask] *= -1
    ranges = [range((7 << 16) + target - 2, (7 << 16) + target + 3),  # lo is target
              range(target << 16, (target << 16) + 300),  # hi is target
              range((target << 16) + target, (target << 16) + target + 1)]  # both
    assert all(identity_route(tables, n)[0] == [] for tables in ranges)
    patch_level(monkeypatch, 4, rows=bad)
    assert not scan._level(4).identities_hold
    cfg = ScanConfig(n=n, mode="exhaustive", equivalence_d_range=(1, 3, 5))
    consts = _build_consts(cfg)
    changed = 0
    for tables in ranges:
        chunks = _bits_matrix(list(tables), n)
        got = identity_route(tables, n)
        assert got == identity_route(chunks, n), tables
        assert _accumulate(cfg, consts, tables) == _accumulate(cfg, consts, list(tables)), tables
        changed += len(got[0])
    assert changed


def test_half_statistics_hold_their_worst_cases(monkeypatch):
    # on a proven level each half at n = 5 has N = 4^4, so |a|, |b| <= 5 * 2^4;
    # the type also holds any sum of five int8 entries, so a and b are exact
    # on any level
    level = _level(4)
    assert level.halves.dtype == np.int16
    assert np.iinfo(level.halves.dtype).max >= max(5 * 2**4, 5 * 2**7)
    rng = random.Random(16)
    for t in (0, (1 << 16) - 1, *(rng.randrange(1 << 16) for _ in range(200))):
        spectrum = fwht(BooleanFunction(4, t)).coeffs.tolist()
        lin, empty = sum(spectrum[1 << i] for i in range(4)), spectrum[0]
        assert level.halves[:, t].tolist() == [lin + empty, lin - empty], t
    # these entries at masks 3, 7 and 15 keep the row's a and b and add 2^16
    # to its W, which int16 would wrap to the clean W.  The proof takes W in
    # the type that holds it, so the table breaks the second identity, H is
    # unchanged, the recurrence of (a) rejects the level too, and the
    # table's norm check fails at the range primitive
    target = 4242
    bad = level.rows.copy()
    bad[target, [3, 7, 15]] = [36, 24, 124]
    lin, inf = level_identity_sides(bad)
    assert inf[target] == level_identity_sides(level.rows)[1][target] + (1 << 16)
    assert _identity_breaks(level.counts.astype(np.int64), 4, lin, inf).tolist() == [target]
    patch_level(monkeypatch, 4, rows=bad)
    assert (scan._level(4).halves == level.halves).all()
    assert not scan._level(4).identities_hold
    for check in (True, False):
        cfg = ScanConfig(n=5, mode="exhaustive", equivalence_check=check)
        with pytest.raises(InvariantError, match="norm check"):
            scan_table_range(cfg, target, target + 1)


def test_identity_proof_reads_counts_past_the_level_bounds(monkeypatch):
    # 2^11 more +1 and -1 values in one half's counts leave the first
    # identity whole and add 2^12 to the half's plus + minus, so 2^17 to the
    # left side of the second identity at arity 4, which int16 would wrap to
    # the same value: the proof fails, and both routes see the break
    n, target = 5, 4242
    bump = np.zeros(1 << 16, dtype=np.int64)
    bump[target] = 1 << 11
    patch_level(monkeypatch, 4, counts=_level(4).counts + bump)
    assert not scan._level(4).identities_hold
    cfg = ScanConfig(n=n, mode="exhaustive", equivalence_d_range=(1, 3, 5))
    tables = range((target << 16) + 100, (target << 16) + 400)
    got = _accumulate(cfg, _build_consts(cfg), tables)
    assert got == _accumulate(cfg, _build_consts(cfg), list(tables))
    assert got.equivalence_failures


def level_identity_sides(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """2^k lin and 4^k inf of each arity-k table from its spectrum row."""
    rows = rows.astype(np.int64)
    weights = np.bitwise_count(np.arange(rows.shape[1]))
    return rows[:, weights == 1].sum(axis=1), (rows**2 * weights).sum(axis=1)


def test_identity_proof_holds_on_every_clean_level():
    # each condition, checked here without the proof's recurrence: every row
    # is H v_t for the Hadamard matrix H, H^T H = 2^k I, every row's entry at
    # the empty set is its value sum, and every table's counts meet both
    # identities
    for k in range(5):
        level, points = _level(k), 1 << k
        assert level.identities_hold is True, k
        h = np.array([[(-1) ** bin(s & x).count("1") for x in range(points)]
                      for s in range(points)])
        values = 1 - 2 * ((np.arange(len(level.rows))[:, None] >> np.arange(points)) & 1)
        assert (level.rows == values @ h.T).all(), k
        assert (h.T @ h == points * np.eye(points, dtype=int)).all(), k
        assert (level.rows[:, 0] == values.sum(axis=1)).all(), k
        lin, inf = level_identity_sides(level.rows)
        plus, minus = level.counts.astype(np.int64)
        assert (2 * (plus - minus) == lin).all() and ((plus + minus) << (k + 1) == inf).all(), k


def proof_and_pair_route(monkeypatch, k: int, **arrays):
    """On _level(k) with the given arrays replaced: whether the proof holds,
    and whether the gather route finds no break over every (lo, hi) pair,
    read as halves (a failed norm check is a break)."""
    patch_level(monkeypatch, k, **arrays)
    patched = scan._level(k)
    try:
        clean = identity_route(range(1 << (2 << k)), k + 1)[0] == []
    except InvariantError:
        clean = False
    got = (patched.identities_hold, clean)
    monkeypatch.undo()
    return got


def test_identity_proof_is_sound(monkeypatch):
    # wherever the proof holds, the gather route finds no break.  Two mutants
    # keep it whole: masks permuted within their weight class, and points
    # permuted in every table with the counts moved alike keep H^T H = 2^k I,
    # H's row at the empty set and both identities in every table.  Masks
    # permuted across weights and negated rows keep H^T H but not that row.
    # Table t read as t ^ 2^x, with its counts, keeps the level linear, H^T H
    # and both identities in every table, but not E = the sum of v_t, which
    # only H's row at the empty set proves.  Each failing mutant breaks some
    # pair
    for k in (1, 2, 3):
        level, points = _level(k), 1 << k
        rng = random.Random(k)
        weights = np.bitwise_count(np.arange(points))
        within = np.arange(points)
        for weight in set(weights.tolist()):
            masks = np.flatnonzero(weights == weight)
            within[masks] = rng.sample(masks.tolist(), len(masks))
        # table t with its bits rotated by one point
        tables = np.arange(len(level.rows))
        rotated = ((tables << 1) | (tables >> (points - 1))) & (len(tables) - 1)
        across = np.arange(points)
        across[[0, -1]] = across[[-1, 0]]
        flipped = level.rows.copy()
        flipped[3, np.flatnonzero(flipped[3])[-1]] *= -1
        mutants = [({}, True), ({"rows": level.rows[:, within]}, True),
                   ({"rows": level.rows[rotated], "counts": level.counts[:, rotated]}, True),
                   ({"rows": level.rows[:, across]}, False), ({"rows": -level.rows}, False),
                   ({"rows": flipped}, False),
                   ({"counts": level.counts + [[1], [0]] * (tables == 3)}, False)]
        mutants += [({"rows": level.rows[tables ^ (1 << x)],
                      "counts": level.counts[:, tables ^ (1 << x)]}, False) for x in range(points)]
        for arrays, holds in mutants:
            got = proof_and_pair_route(monkeypatch, k, **arrays)
            assert got == (holds, holds), (k, list(arrays))
    # with counts that meet both identities in every table, and no N past
    # 2 * 4^k, so that the half statistics are exact, one condition is left
    # to fail: H^T H for rows = H v_t with H = [[1, 1], [-2, 0]], and H 1 = A_0
    # for the k = 2 rows plus 1 at the empty set, which keeps every
    # difference and both identities
    shifted = _level(2).rows.copy()
    shifted[:, 0] += 1
    for k, rows in ((1, np.array([[2, -2], [0, 2], [0, -2], [-2, 2]], dtype=np.int8)),
                    (2, shifted)):
        assert (rows.astype(np.int64)**2).sum(axis=1).max() <= 2 << 2 * k
        lin, inf = level_identity_sides(rows)
        diff, total = lin // 2, inf >> (k + 1)
        counts = np.array([total + diff, total - diff]) // 2
        assert _identity_breaks(counts, k, lin, inf).size == 0, k
        assert proof_and_pair_route(monkeypatch, k, rows=rows, counts=counts) == (False, False), k


def test_ranges_on_a_proven_level_sum_no_pairs(monkeypatch):
    def spy(tables, n):
        raise AssertionError("a range was read row by row")

    _level(4)  # every level is built through _pairs
    monkeypatch.setattr(scan, "_pairs", spy)
    cases = [(ScanConfig(n=n, mode="exhaustive", equivalence_check=True), range(1 << (1 << n)))
             for n in (1, 2, 3)]
    cases += [(ScanConfig(n=4, mode="exhaustive", equivalence_check=True), range(300, 40000))]
    cases += [(ScanConfig(n=5, mode="exhaustive",
                          equivalence_d_range=tuple(range(1, 7))), range(77 << 14, 78 << 14))]
    for cfg, tables in cases:
        consts = _build_consts(cfg)
        assert _accumulate(cfg, consts, tables) == _accumulate(cfg, consts, list(tables)), cfg
    # the spy is in the route: a level without the proof reads every row
    bump = np.zeros(16, dtype=np.int64)
    bump[8] = 1
    patch_level(monkeypatch, 2, counts=_level(2).counts + [[1], [0]] * bump)
    cfg = ScanConfig(n=3, mode="exhaustive")
    with pytest.raises(AssertionError, match="row by row"):
        _accumulate(cfg, _build_consts(cfg), range(256))


def every_row_failures(cfg: ScanConfig, tables, plus, minus):
    """The four inequalities of every row the degree filter keeps, at every d,
    from the given derivative counts; one record per disagreement."""
    consts = _build_consts(cfg)
    records = []
    for t, p, m in zip(tables, plus.tolist(), minus.tolist()):
        f = BooleanFunction(cfg.n, t)
        report = check_conjecture(f)
        if cfg.degree_filter not in (None, report.degree):
            continue
        lin = int(report.linear_sum.as_fraction() * f.points)
        inf = int(total_influence(fwht(f)).as_fraction() * f.points ** 2)
        for d in cfg.equivalence_d_range:
            sat = [lhs <= rhs for lhs, rhs in _sides(consts[d], lin, inf, p, m).values()]
            if len(set(sat)) > 1:
                records.append(EquivalenceWitness(to_hex(f), cfg.n, d, *sat))
    return sorted(records, key=lambda w: (w.table_hex, w.d))


def test_identity_route_reports_what_every_row_check_reports(monkeypatch):
    # Maj_3 meets M(3) and M(4) exactly, so one more +1 derivative value flips
    # ineq_b and ineq_c there; the constant has room to spare at every d.  A
    # list of n = 3 tables reads each table's counts whole from _level(3), so
    # one more +1 value there reaches that table alone
    tables = range(256)
    plus, minus = _derivative_counts(_bits_matrix(tables, 3), 3)
    for row, flips in ((majority(3).table, True), (0, False)):
        bump = np.zeros(256, dtype=np.int64)
        bump[row] = 1
        patch_level(monkeypatch, 3, counts=_level(3).counts + [[1], [0]] * bump)
        for degree_filter in (None, 3, 2):
            cfg = ScanConfig(n=3, mode="exhaustive", degree_filter=degree_filter)
            got = _accumulate(cfg, _build_consts(cfg), list(tables)).equivalence_failures
            want = every_row_failures(cfg, tables, plus + bump, minus)
            assert list(got) == want, (row, degree_filter)
            assert bool(want) == (flips and degree_filter != 2), (row, degree_filter)
            assert all(w.table_hex == to_hex(BooleanFunction(3, row)) for w in want)
        monkeypatch.undo()
    # a range reads them as two halves from _level(2), so one more +1 value
    # in a half's count reaches every table with that half: here Maj_3's low
    # half, or the constant's
    for half in (majority(3).table & 15, 0):
        bump = np.array([(t & 15 == half) + (t >> 4 == half) for t in tables])
        half_bump = np.zeros(16, dtype=np.int64)
        half_bump[half] = 1
        patch_level(monkeypatch, 2, counts=_level(2).counts + [[1], [0]] * half_bump)
        assert not scan._level(2).identities_hold
        for degree_filter in (None, 3, 2):
            cfg = ScanConfig(n=3, mode="exhaustive", degree_filter=degree_filter)
            got = _accumulate(cfg, _build_consts(cfg), tables).equivalence_failures
            want = every_row_failures(cfg, tables, plus + bump, minus)
            assert list(got) == want and want, (half, degree_filter)
            assert all(bump[int(w.table_hex, 16)] for w in want), (half, degree_filter)
        monkeypatch.undo()


def test_level_counts_reach_both_count_routes(monkeypatch):
    # a range of n = 3 tables reads its halves' counts from _level(2), and a
    # list reads each table whole from _level(3).  One more +1 value in the
    # level counts of arity-2 table 8, Maj_3's low half, adds one to the
    # counts of every n = 3 table per half equal to 8; the list route gets
    # that same bump per table in _level(3)
    tables = range(256)
    bump = np.array([(t & 15 == 8) + (t >> 4 == 8) for t in tables])
    counts = [[derivative_value_counts(BooleanFunction(3, t), i) for i in (1, 2, 3)]
              for t in tables]
    want_plus = np.array([sum(c[1] for c in row) for row in counts]) + bump
    want_minus = np.array([sum(c[2] for c in row) for row in counts])
    cfg = ScanConfig(n=3, mode="exhaustive")
    want = every_row_failures(cfg, tables, want_plus, want_minus)
    assert any(w.table_hex == to_hex(majority(3)) for w in want)
    half_bump = np.zeros(16, dtype=np.int64)
    half_bump[8] = 1
    for k, routed, extra in ((2, tables, half_bump), (3, list(tables), bump)):
        patch_level(monkeypatch, k, counts=_level(k).counts + [[1], [0]] * extra)
        assert not scan._level(k).identities_hold
        got = _accumulate(cfg, _build_consts(cfg), routed).equivalence_failures
        monkeypatch.undo()
        assert list(got) == want, type(routed)


def test_range_and_gather_fills_agree(monkeypatch):
    # a range of tables of arity n <= 5 is reduced from level statistics, with
    # no unpacking; a list of the same tables is unpacked and gathered
    def unpack_refused(tables, n):
        raise AssertionError("a range was unpacked")

    cases = [(ScanConfig(n=n, mode="exhaustive", equivalence_check=check, degree_filter=df),
              range(1 << (1 << n)))
             for n in range(1, 5) for check in (True, False) for df in (None, *range(n + 1))]
    # one high half spans 2^(2^(n-1)) tables: partial first, whole and partial last
    cases += [(ScanConfig(n=4, mode="exhaustive"), range(300, 40000)),
              (ScanConfig(n=3, mode="exhaustive"), range(5, 11))]
    a = random.Random(512).randrange((1 << 32) - 3000)
    for check, df in ((True, None), (False, 3)):
        cfg = ScanConfig(n=5, mode="exhaustive", equivalence_check=check,
                         equivalence_d_range=tuple(range(1, 7)), degree_filter=df)
        cases += [(cfg, tables) for tables in (
            range(77 << 14, 78 << 14), range(a, a + 3000),
            range((1 << 16) - 100, (1 << 16) + 100), range((1 << 32) - 700, 1 << 32),
            range(a, a + 1))]
    for cfg, tables in cases:
        consts = _build_consts(cfg)
        gathered = _accumulate(cfg, consts, list(tables))
        monkeypatch.setattr(scan, "_bits_matrix", unpack_refused)
        sliced = _accumulate(cfg, consts, tables)
        monkeypatch.undo()
        assert sliced == gathered, (cfg, tables)
        assert sliced.functions_examined == len(tables)


def test_whole_n5_spans_match_the_gather_route(monkeypatch):
    # 16,384-table spans, as exhaustive n = 5 scans run them.  Under a high
    # half whose top entry is 0 (12,870 of the 65,536) most tables have degree
    # below 5, so most tables are read at every mask; a span across two high
    # halves is two rectangles
    rng = random.Random(5)
    hi = int(rng.choice(np.flatnonzero(_level(4).rows[:, -1] == 0)))
    start = (hi << 16) + (rng.randrange(4) << 14)
    spans = [range(start, start + (1 << 14)), range(77 << 14, 78 << 14),
             range((hi << 16) - (1 << 13), (hi << 16) + (1 << 13))]
    for check in (True, False):
        for degree_filter in (None, 3, 4, 5):
            cfg = ScanConfig(n=5, mode="exhaustive", equivalence_check=check,
                             equivalence_d_range=tuple(range(1, 7)), degree_filter=degree_filter)
            consts = _build_consts(cfg)
            for tables in spans:
                sliced = _accumulate(cfg, consts, tables)
                assert sliced == _accumulate(cfg, consts, list(tables)), (cfg, tables)
    cfg = ScanConfig(n=5, mode="exhaustive", equivalence_d_range=tuple(range(1, 7)))
    consts = _build_consts(cfg)
    per_degree = _accumulate(cfg, consts, spans[0]).per_degree
    assert sum(e.function_count for d, e in per_degree.items() if d < 5) > 2000
    # a sign flip of one |S| >= 2 entry of that high half keeps its N, a, b
    # and W, so in a range only the cross term and the degree can change
    bad = _level(4).rows.copy()
    mask = next(s for s in range(15, 0, -1) if bin(s).count("1") >= 2 and bad[hi, s])
    bad[hi, mask] *= -1
    patch_level(monkeypatch, 4, rows=bad)
    assert not scan._level(4).identities_hold
    sliced = _accumulate(cfg, consts, spans[0])
    assert sliced == _accumulate(cfg, consts, list(spans[0]))
    assert sliced.equivalence_failures


@functools.cache
def python_level(k: int) -> tuple[list[int], list[list[int]], list[int]]:
    """_level(k) recounted one table at a time from its rows: each table's
    degree, the largest |S| with a nonzero entry; its key at each degree
    j = 0..k, the rank of its entries at the masks of weight j, packed one
    byte an entry into a little-endian integer, among those of the tables of
    degree <= j, or -1 where its degree is above j; and its value a, the sum
    of its entries at the empty and singleton masks."""
    rows = _level(k).rows.tolist()
    weights = [bin(s).count("1") for s in range(1 << k)]
    degrees = [max((w for w, x in zip(weights, row) if x), default=0) for row in rows]
    keys = []
    for j in range(k + 1):
        packed = [sum((x & 255) << 8 * i for i, x in enumerate(
                      x for w, x in zip(weights, row) if w == j)) if deg <= j else None
                  for row, deg in zip(rows, degrees)]
        rank = {p: r for r, p in enumerate(sorted({p for p in packed if p is not None}))}
        keys.append([rank.get(p, -1) for p in packed])
    values = [row[0] + sum(row[1 << i] for i in range(k)) for row in rows]
    return degrees, keys, values


def merged(left, right):
    """Two records [count, best, reach, first] as one; None is no rows."""
    if left is None or right is None:
        return left or right
    best = max(left[1], right[1])
    top = [r for r in (left, right) if r[1] == best]
    return [left[0] + right[0], best, sum(r[2] for r in top), min(r[3] for r in top)]


def python_key_records(k: int, j: int, start: int, stop: int) -> list:
    """_key_records of the arity-k tables start..stop - 1 at degree j,
    recounted one table at a time: per key K, the record [count, largest a,
    how many reach it, first table] of the tables whose key is another, then
    of those whose key is K; None where no table qualifies."""
    _, keys, values = python_level(k)
    own = [None] * (max(keys[j]) + 1)
    for t in range(start, stop):
        if keys[j][t] >= 0:
            own[keys[j][t]] = merged(own[keys[j][t]], [1, values[t], 1, t])
    # every key's others, as the keys before it merged with those after it
    before, after = [None], [None]
    for record in own[:-1]:
        before.append(merged(before[-1], record))
    for record in own[:0:-1]:
        after.append(merged(after[-1], record))
    return [[merged(b, a) for b, a in zip(before, after[::-1])], own]


def records_as_lists(records: np.ndarray) -> list:
    """A (4, 2, keys) array of _key_records as python_key_records lists it."""
    return [[None if count == 0 else [count, best, reach, first]
             for count, best, reach, first in side.T.tolist()]
            for side in records.transpose(1, 0, 2)]


def test_key_statistics_hold_every_blocks_records():
    # the degrees, the keys and the per-block tables of every level at every
    # degree against a table-at-a-time recount: four blocks at k = 4, one
    # block holding the whole level below
    for k in range(5):
        level = _level(k)
        size = 1 << (1 << k)
        blocks = range(0, size, join._KEY_BLOCK)
        degrees, keys, _ = python_level(k)
        assert level.degrees.tolist() == degrees, k
        assert level.keys.tolist() == keys, k
        assert len(level.key_stats) == k + 1, k
        for j, table in enumerate(level.key_stats):
            assert table.shape == (4, len(blocks), 2, max(keys[j]) + 1), (k, j)
            assert table.dtype == np.int64
            for b, start in enumerate(blocks):
                stop = min(start + join._KEY_BLOCK, size)
                assert records_as_lists(table[:, b]) == python_key_records(k, j, start, stop), \
                    (k, j, b)
            # every table of degree <= j has one of the keys
            assert table[0, :, 1].sum() == sum(d <= j for d in degrees), (k, j)
    # the key counts at arity 4, and the top key ranks the top coefficient's byte
    level = _level(4)
    assert [table.shape[3] for table in level.key_stats] == [2, 9, 129, 769, 17]
    top = level.rows[:, -1].view(np.uint8)
    assert (np.unique(top, return_inverse=True)[1] == level.keys[-1]).all()
    # the partial blocks at the ends of a range come from the same function
    rng = random.Random(19)
    for j, table in enumerate(level.key_stats):
        for start, stop in ((0, 1), (16383, 16385), (5, 1000), (65535, 65536),
                            *((s, s + rng.randrange(1, 3000)) for s in
                              (rng.randrange(60000) for _ in range(3)))):
            assert records_as_lists(join._key_records(level, j, start, stop, table.shape[3])) \
                == python_key_records(4, j, start, stop), (j, start, stop)


def test_degrees_of_a_corrupt_level_follow_its_rows():
    # the mutant with the masks empty set and top swapped (as in
    # test_identity_proof_is_sound) moves the degrees: the constants get
    # degree k.  A level's degrees come from the masks its keys are held at,
    # so they must still be each row's largest |S| with a nonzero entry
    for k in (1, 2, 3):
        across = np.arange(1 << k)
        across[[0, -1]] = across[[-1, 0]]
        level = dataclasses.replace(_level(k), rows=_level(k).rows[:, across])
        assert level.degrees.dtype == np.int8
        assert level.degrees.tolist() == _degrees(level.rows, k).tolist(), k
        assert level.degrees.tolist() == (level.keys < 0).sum(axis=0).tolist(), k
        assert level.degrees[0] == level.degrees[-1] == k != _level(k).degrees[0], k


def key_route_ranges() -> list[range]:
    """n = 5 ranges that cut the key statistics' blocks in every way: whole
    high halves under a hi with top coefficient 0 and under one without, one
    table, one inside a block, partial blocks at both ends of whole ones, and
    one across two high halves."""
    top = _level(4).rows[:, -1]
    rng = random.Random(20)
    zero = int(rng.choice(np.flatnonzero(top == 0)))
    other = int(rng.choice(np.flatnonzero(top != 0)))
    return [range(zero << 16, (zero + 1) << 16), range(other << 16, (other + 1) << 16),
            range((other << 16) + 4321, (other << 16) + 4322),
            range((zero << 16) + 20000, (zero << 16) + 30000),
            range((other << 16) + 1000, (other << 16) + 50000),
            range((zero << 16) - 3000, (zero << 16) + 20000)]


def test_key_statistics_route_matches_the_list_route():
    ranges = key_route_ranges()
    for check in (True, False):
        for degree_filter in (None, 3, 4, 5):
            cfg = ScanConfig(n=5, mode="exhaustive", equivalence_check=check,
                             equivalence_d_range=tuple(range(1, 7)), degree_filter=degree_filter)
            consts = _build_consts(cfg)
            for tables in ranges:
                got = _accumulate(cfg, consts, tables)
                assert got == _accumulate(cfg, consts, list(tables)), (cfg, tables)
    # degrees below 4 come only from the pairs whose halves both have top 0
    cfg = ScanConfig(n=5, mode="exhaustive", equivalence_check=False)
    consts = _build_consts(cfg)
    assert min(_accumulate(cfg, consts, ranges[0]).per_degree) < 4
    assert min(_accumulate(cfg, consts, ranges[1]).per_degree) == 4


def test_key_statistics_follow_a_flipped_top_entry(monkeypatch):
    # one hi's top entry negated keeps its N, a, b and W, so only its key
    # changes: as a hi it now pairs with other lo's, and as a lo it moves to
    # another key of its block's records
    level = _level(4)
    hi = next(t for t in range(7000, 1 << 16) if level.rows[t, -1] > 0)
    bad = level.rows.copy()
    bad[hi, -1] *= -1
    block = hi // join._KEY_BLOCK
    patch_level(monkeypatch, 4, rows=bad)
    mutant = scan._level(4)
    assert not mutant.identities_hold
    assert (mutant.key_stats[-1][:, block] != level.key_stats[-1][:, block]).any()
    assert (np.delete(mutant.key_stats[-1], block, axis=1)
            == np.delete(level.key_stats[-1], block, axis=1)).all()
    cfg = ScanConfig(n=5, mode="exhaustive", equivalence_d_range=tuple(range(1, 7)))
    consts = _build_consts(cfg)
    # under this hi the mutant's new key is the hi's, so as a lo it drops
    # from degree 5 to 4
    other = int(np.flatnonzero(level.rows[:, -1] == -level.rows[hi, -1])[5])
    ranges = (range(hi << 16, (hi << 16) + 40000),  # hi is the mutant
              range((other << 16) + hi - 3000, (other << 16) + hi + 3000),  # a lo is
              range((hi << 16) + hi, (hi << 16) + hi + 1))  # both are
    got = [_accumulate(cfg, consts, tables) for tables in ranges]
    assert got == [_accumulate(cfg, consts, list(tables)) for tables in ranges]
    monkeypatch.undo()
    assert all(g != _accumulate(cfg, consts, tables) for g, tables in zip(got[:2], ranges))


def test_key_statistics_widen_for_a_corrupt_top_entry(monkeypatch):
    # a top entry past 2^k gets a key of its own, so the records of the
    # other tables stay exact; the corrupt table fails the norm check with
    # every partner
    target = 4242
    bad = _level(4).rows.copy()
    bad[target, -1] = 40
    patch_level(monkeypatch, 4, rows=bad)
    assert scan._level(4).key_stats[-1].shape == (4, 4, 2, 18)
    cfg = ScanConfig(n=5, mode="exhaustive", equivalence_d_range=(1, 2, 3))
    consts = _build_consts(cfg)
    for tables in (range(77 << 16, (77 << 16) + 4000),
                   range((77 << 16) + 30000, (78 << 16) + 100)):
        assert _accumulate(cfg, consts, tables) == _accumulate(cfg, consts, list(tables))
    for tables in (range((77 << 16) + target, (77 << 16) + target + 1),
                   range(target << 16, (target << 16) + 10)):
        with pytest.raises(InvariantError, match="norm check"):
            _accumulate(cfg, consts, tables)


def test_ranges_under_a_high_half_of_every_degree_match_the_list_route():
    # under a hi of degree d, a range reads rows d..5 from the key records at
    # degrees d..4, and has no row below d: a whole high half, and a range
    # inside one block, at every degree filter, with the check and without
    degrees = _level(4).degrees
    rng = random.Random(21)
    for d in range(5):
        hi = int(rng.choice(np.flatnonzero(degrees == d)))
        ranges = (range(hi << 16, (hi + 1) << 16),
                  range((hi << 16) + 5000, (hi << 16) + 7000))
        for check in (True, False):
            for degree_filter in (None, *range(6)):
                cfg = ScanConfig(n=5, mode="exhaustive", equivalence_check=check,
                                 equivalence_d_range=tuple(range(1, 7)),
                                 degree_filter=degree_filter)
                consts = _build_consts(cfg)
                for tables in ranges:
                    got = _accumulate(cfg, consts, tables)
                    assert got == _accumulate(cfg, consts, list(tables)), (d, cfg, tables)
                    if degree_filter is None:
                        # a whole high half holds (hi, hi), of degree d
                        assert min(got.per_degree) >= d, (d, tables)
                        assert d in got.per_degree or len(tables) < 1 << 16, (d, tables)


def test_key_statistics_follow_a_negated_weight_3_entry(monkeypatch):
    # one weight-3 entry of a degree-3 table negated keeps its N, a, b and W
    # and its degree, so only its key at degree 3 changes: as a hi, and as a
    # lo under a hi that shared its old key, its pairs of degree 3 move
    level = _level(4)
    rng = random.Random(22)
    target = int(rng.choice(np.flatnonzero(level.degrees == 3)))
    mask = next(s for s in range(16) if bin(s).count("1") == 3 and level.rows[target, s])
    bad = level.rows.copy()
    bad[target, mask] *= -1
    shared = np.flatnonzero(level.keys[3] == level.keys[3, target])
    partner = int(shared[shared != target][0])
    patch_level(monkeypatch, 4, rows=bad)
    mutant = scan._level(4)
    assert not mutant.identities_hold
    assert (mutant.halves == level.halves).all() and (mutant.degrees == level.degrees).all()
    assert (np.delete(mutant.keys, 3, axis=0) == np.delete(level.keys, 3, axis=0)).all()
    assert target not in np.flatnonzero(mutant.keys[3] == mutant.keys[3, partner])
    cfg = ScanConfig(n=5, mode="exhaustive", equivalence_d_range=tuple(range(1, 7)))
    consts = _build_consts(cfg)
    start = (partner << 16) + max(0, target - 3000)
    ranges = (range(target << 16, (target + 1) << 16),  # hi is the mutant
              range(start, start + 6000),  # a lo is
              range((target << 16) + target, (target << 16) + target + 1))  # both are
    got = [_accumulate(cfg, consts, tables) for tables in ranges]
    assert got == [_accumulate(cfg, consts, list(tables)) for tables in ranges]
    monkeypatch.undo()
    assert all(g != _accumulate(cfg, consts, tables) for g, tables in zip(got[:2], ranges))


def test_top_rows_meet_their_closed_forms():
    # row n holds every table but the C(2^n, 2^(n-1)) at distance 2^(n-1)
    # from parity, whose top coefficient is 0.  lin = M(n) exactly where
    # f = sign(x_1 + ... + x_n) off the m = C(n, n/2) balanced points: Maj_n
    # alone at odd n, and at even n 2^m tables, the C(m, m/2) of them with
    # top coefficient 0 in row n - 1
    for n in range(1, 5):
        res = run_scan(ScanConfig(n=n, mode="exhaustive"))
        top = res.per_degree[n]
        assert top.function_count == (1 << (1 << n)) - math.comb(1 << n, 1 << (n - 1)), n
        assert top.max_linear_sum == maj_bound(n), n
        if n % 2:
            assert (top.witness_count, top.witness) == (1, to_hex(majority(n))), n
        else:
            m = math.comb(n, n // 2)
            below = res.per_degree[n - 1]
            assert below.max_linear_sum == maj_bound(n), n
            assert (below.witness_count, top.witness_count) == \
                (math.comb(m, m // 2), (1 << m) - math.comb(m, m // 2)), n


def test_violations_are_the_rows_over_the_bound():
    # no table breaks the bound at n <= 5, so a Maj_d side cut in half stands
    # in for a bound that some rows of a degree break and others meet; each
    # degree's best row is tested first
    cfg = ScanConfig(n=3, mode="exhaustive")
    consts = {d: s._replace(maj=s.maj // 2) for d, s in _build_consts(cfg).items()}
    want = []
    for t in range(256):
        report = check_conjecture(BooleanFunction(3, t))
        s = consts[report.degree]
        if int(report.linear_sum.as_fraction() * 8) * s.linear > s.maj:
            want.append((to_hex(BooleanFunction(3, t)), report.degree, report.linear_sum))
    # the constants have linear sum 0 <= M(0) / 2 = 0; some tables of each
    # higher degree break the cut bound (checked below: not all of them)
    assert {d for _, d, _ in want} == {1, 2, 3}
    for tables in (range(256), list(range(256))):
        got = _accumulate(cfg, consts, tables)
        assert [(w.table_hex, w.degree, w.linear_sum) for w in got.violations] == sorted(want)
    assert all(sum(w[1] == d for w in want) < got.per_degree[d].function_count for d in (1, 2, 3))


def test_repeated_tables_past_the_cap_are_cut_like_distinct_ones():
    # seeded n = 3 samples repeat tables, and under the Maj_d side cut in half
    # more than _WITNESS_CAP of them break the bound: the violations are the
    # first _WITNESS_CAP rows of a reference built one function at a time,
    # repeats included, and the rest are counted exactly
    cfg = ScanConfig(n=3, mode="random", sample_count=16000, seed=11)
    halved = {d: s._replace(maj=s.maj // 2) for d, s in _build_consts(cfg).items()}
    samples = [_sample_table(cfg.seed, i, cfg.points) for i in range(cfg.sample_count)]
    side = functools.cache(lambda t: frac_side(BooleanFunction(3, t)))
    want = []
    for t in samples:
        s = halved[side(t).degree]
        scaled = side(t).linear_sum * 8
        assert scaled.denominator == 1
        if int(scaled) * s.linear > s.maj:
            want.append((t, side(t).degree, side(t).linear_sum))
    want.sort()
    assert len(want) > scan._WITNESS_CAP and len(set(want)) < scan._WITNESS_CAP
    got = _accumulate(cfg, halved, samples)
    assert [(w.table_hex, w.n, w.degree, w.linear_sum.as_fraction(), w.bound.as_fraction())
            for w in got.violations] == \
        [(to_hex(BooleanFunction(3, t)), 3, d, lin, frac_bound(d))
         for t, d, lin in want[: scan._WITNESS_CAP]]
    assert got.violations_omitted == len(want) - scan._WITNESS_CAP


def test_n5_violations_are_the_rows_over_the_bound():
    # whole n = 5 high halves, one whose top coefficient is 0 and one whose is
    # not, under the Maj_d side cut in half: a range reads its degrees' best
    # rows from key statistics and goes row-wise only where one breaks the cut
    # bound, so it must report the rows a list reports
    cfg = ScanConfig(n=5, mode="exhaustive", equivalence_d_range=tuple(range(1, 7)))
    consts = {d: s._replace(maj=s.maj // 2) for d, s in _build_consts(cfg).items()}
    for tables in key_route_ranges()[:2]:
        got = _accumulate(cfg, consts, tables)
        assert got == _accumulate(cfg, consts, list(tables)), tables
        assert got.violation_count > 0
        broken = {w.degree for w in got.violations}
        assert all(got.per_degree[d].function_count > sum(w.degree == d for w in got.violations)
                   for d in broken), tables


def test_rows_of_a_long_range_are_read_one_sub_batch_at_a_time(monkeypatch):
    # 3 * 2^16 + 17 n = 5 tables across four high halves, Maj_5 among them,
    # read row by row on a level without the proof, and under the Maj_d side
    # cut in half, where most rows break the bound: _pairs never holds more
    # than one sub-batch, the key records are read once for the whole range,
    # witnesses are cut at the cap with exact counts, and no call, on the
    # range or on its tables as a list, builds more witnesses than it keeps
    step = scan._BATCH_CELLS >> 5
    start = majority(5).table - (1 << 16) - 1000
    tables = range(start, start + 3 * step + 17)
    cfg = ScanConfig(n=5, mode="exhaustive", equivalence_d_range=tuple(range(1, 7)))
    consts = _build_consts(cfg)
    halved = {d: s._replace(maj=s.maj // 2) for d, s in consts.items()}
    bump = np.zeros(1 << 16, dtype=np.int64)
    bump[majority(5).table & 0xFFFF] = 1
    pairs, extremes, lengths, reads = scan._pairs, join._range_extremes, [], []
    built = collections.Counter()

    def counted(part, n):
        lengths.append(len(part))
        return pairs(part, n)

    def read(level, part, degrees):
        reads.append(part)
        return extremes(level, part, degrees)

    def spied(kind):
        def build(*args):
            built[kind] += 1
            return kind(*args)
        return build

    def accumulate(bounds, tables):
        built.clear()
        result = _accumulate(cfg, bounds, tables)
        assert all(count <= scan._WITNESS_CAP for count in built.values()), (type(tables), built)
        return result

    for unproven, bounds in ((True, consts), (False, halved)):
        if unproven:
            patch_level(monkeypatch, 4, counts=_level(4).counts + [[1], [0]] * bump)
            assert not scan._level(4).identities_hold
        for kind in (ConjectureWitness, EquivalenceWitness):
            monkeypatch.setattr(scan, kind.__name__, spied(kind))
        want = accumulate(bounds, list(tables))
        monkeypatch.setattr(scan, "_pairs", counted)
        monkeypatch.setattr(join, "_range_extremes", read)
        lengths.clear()
        reads.clear()
        got = accumulate(bounds, tables)
        monkeypatch.undo()
        assert got == want, unproven
        assert lengths == [step, step, step, 17], unproven
        assert reads == [tables], unproven
        if unproven:
            assert got.equivalence_failures
        else:
            assert got.violations_omitted > 0 and len(got.violations) == scan._WITNESS_CAP


def test_int16_spectra_hold_every_exhaustive_arity():
    for n in range(1, _EXHAUSTIVE_MAX_N + 1):
        assert _spectrum_dtype(n) is np.int16
    # the narrowest integer type that holds 2^n
    assert [_spectrum_dtype(n) for n in range(1, 63)] == \
        [np.int16] * 14 + [np.int32] * 16 + [np.int64] * 32
    with pytest.raises(InvariantError):
        _spectrum_dtype(63)
    # squares are taken in the type that holds 4^n
    assert [_spectrum_dtype(2 * n) for n in range(1, 17)] == \
        [np.int16] * 7 + [np.int32] * 8 + [np.int64]


def test_largest_coefficients_square_without_overflow():
    # one coefficient of 2^n squares to 4^n, past the entry type from n = 8 on;
    # random tables never have coefficients that large.  Constant +1 has the
    # entry +2^15 at n = 15, one past int16, where constant -1's -2^15 fits,
    # and a wrapped -2^15 would still square to 4^15
    for n in (7, 8, 14, 15, 16):
        fns = [dictator(1, n), dictator(n, n), parity(n), constant(n, -1), constant(n, 1)]
        tables = [f.table for f in fns]
        cfg = ScanConfig(n=n, mode="random", sample_count=1, equivalence_check=True,
                         equivalence_d_range=(1, n, n + 1))
        res = _accumulate(cfg, _build_consts(cfg), tables)
        assert res.equivalence_failure_count == 0, n
        reports = [check_conjecture(f) for f in fns]
        assert {d: e.max_linear_sum for d, e in res.per_degree.items()} == \
            {r.degree: max(q.linear_sum for q in reports if q.degree == r.degree)
             for r in reports}, n
        coeffs = _batch_butterfly(_bits_matrix(tables, n), n)
        for row, f in zip(coeffs, fns):
            assert row.tolist() == fwht(f).coeffs.tolist(), n


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


def test_wall_time_positive(capsys):
    # the scan command times its run; a result is a value and carries no time
    assert main(["scan", "--n", "2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["payload"]["wall_time_seconds"] > 0
    assert not hasattr(run_scan(ScanConfig(n=2, mode="exhaustive")), "wall_time")
