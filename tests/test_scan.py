"""Scan engine: results, merging, determinism, and the random stream.

The cross-check oracle reruns a whole scan one function at a time through
the Fraction oracle in tests/oracles.py and aggregates with plain
dictionaries, so any batching or scaling mistake in the engine, or in the
integer formulas it shares with the single-function API, shows up as a
mismatch.
"""

import dataclasses
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
from boolfun.cli import _scan_payload
from boolfun.conjecture import _sides
from boolfun.derivatives import derivative_value_counts
from boolfun.dyadic import DyadicRational, ZERO
from boolfun.scan import (
    _BLOCK_BYTES,
    _EXHAUSTIVE_HUGE_MAX_N,
    ConjectureWitness,
    EquivalenceWitness,
    ScanResult,
    _accumulate,
    _batch_butterfly,
    _bits_matrix,
    _build_consts,
    _derivative_counts,
    _level,
    _sample_table,
    _spectrum_dtype,
    _spectrum_reductions,
)
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
    assert strip_time(res) == strip_time(scan_sample_range(cfg, 0, count))


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


def test_pool_spans_in_flight_are_bounded_and_merged_in_order():
    class Pool:  # resolves each span at once to its start index
        submitted = 0

        def submit(self, fn, span):
            self.submitted += 1
            future = Future()
            future.set_result(span[1])
            return future

    pool = Pool()
    spans = ((None, s, s + 1) for s in range(100))
    for done, start in enumerate(scan._bounded_map(pool, spans, 8)):
        assert start == done
        assert pool.submitted <= done + 1 + 8
    assert pool.submitted == 100


def test_parallel_random_scan_matches_serial():
    serial = run_scan(ScanConfig(n=4, mode="random", sample_count=200, seed=3))
    parallel = run_scan(ScanConfig(n=4, mode="random", sample_count=200, seed=3,
                                   worker_count=3, chunk_size=17))
    assert strip_time(dataclasses.replace(serial, config=None)) == \
        strip_time(dataclasses.replace(parallel, config=None))


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
    assert strip_time(merged) == strip_time(scan_table_range(cfg, 0, 256))


def test_range_bounds_must_be_integers():
    exh = ScanConfig(n=3, mode="exhaustive")
    rnd = ScanConfig(n=3, mode="random", sample_count=4)
    for call in (lambda: scan_table_range(exh, True, 3),
                 lambda: scan_table_range(exh, 0.5, 3),
                 lambda: scan_sample_range(rnd, 0, 2.0)):
        with pytest.raises(InputError):
            call()


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


def test_allow_huge_gate_constructs_and_slices():
    cfg = ScanConfig(n=5, mode="exhaustive", allow_huge=True)
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


# ------------------------------------------------- restriction decomposition

def block_rows(n: int) -> int:
    """Rows of arity-n spectra in one _batch_butterfly block."""
    return max(1, _BLOCK_BYTES // (np.dtype(_spectrum_dtype(n)).itemsize << n))


def test_chunked_route_matches_transform_and_counted_derivatives():
    rng = random.Random(4096)
    # 40 tables at n <= 2, down to 2 at n >= 12
    cases = [(n, max(2, 40 >> (n // 3))) for n in range(1, 17)]
    # more rows than one butterfly block, the last block partial
    cases += [(n, block_rows(n) + 3) for n in (10, 16)]
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


def test_level_matches_transform_and_counted_derivatives():
    rng = random.Random(2024)
    cases = [(k, t) for k in (1, 2, 3) for t in range(1 << (1 << k))]
    cases += [(4, rng.randrange(1 << 16)) for _ in range(2000)]
    for k, t in cases:
        coeffs, plus, minus = _level(k)
        f = BooleanFunction(k, t)
        assert coeffs[t].tolist() == fwht(f).coeffs.tolist(), (k, t)
        counts = [derivative_value_counts(f, i) for i in range(1, k + 1)]
        assert plus[t] == sum(c[1] for c in counts) and minus[t] == sum(c[2] for c in counts)
    coeffs, plus, minus = _level(0)
    assert coeffs.tolist() == [[1], [-1]] and plus.tolist() == minus.tolist() == [0, 0]


def test_exhaustive_n5_slices_match_oracle():
    cfg = ScanConfig(n=5, mode="exhaustive", allow_huge=True,
                     equivalence_d_range=(1, 2, 3, 4, 5, 6, 24))
    rng = random.Random(55)
    # across the boundary of the two 16-bit halves, the last tables, and seeded slices
    slices = [((1 << 16) - 100, (1 << 16) + 100), ((1 << 32) - 100, 1 << 32)]
    slices += [(s, s + 150) for s in (rng.randrange((1 << 32) - 150) for _ in range(3))]
    for start, stop in slices:
        res = scan_table_range(cfg, start, stop)
        assert res.functions_examined == stop - start
        assert_matches_oracle(res, range(start, stop))


def test_corrupted_level_row_fails_norm_check(monkeypatch):
    coeffs, plus, minus = _level(2)
    bad = coeffs.copy()
    bad[5, 0] += 2
    monkeypatch.setattr(scan, "_level", lambda k: (bad, plus, minus))
    cfg = ScanConfig(n=3, mode="exhaustive")
    scan_table_range(cfg, 0, 5)  # neither half is table 5 yet
    with pytest.raises(InvariantError):
        scan_table_range(cfg, 0, 6)
    monkeypatch.undo()
    # a random n = 6 scan reads every sample as four arity-4 chunks
    cfg = ScanConfig(n=6, mode="random", sample_count=2, seed=5)
    chunks = _bits_matrix([_sample_table(5, k, 64) for k in range(2)], 6)
    target = int(chunks[1, 2])
    assert target not in chunks[0]
    level = _level(4)
    bad = level[0].copy()
    bad[target, 3] -= 2
    monkeypatch.setattr(scan, "_level", lambda k: (bad, *level[1:]) if k == 4 else _level(k))
    scan_sample_range(cfg, 0, 1)  # sample 0 has no chunk equal to target
    with pytest.raises(InvariantError):
        scan_sample_range(cfg, 0, 2)
    monkeypatch.undo()
    # a chunk found only in the last table, which sits in a partial last block
    n = 10
    rng = random.Random(10)
    chunks = _bits_matrix([rng.getrandbits(1 << n) for _ in range(block_rows(n) + 3)], n)
    target = next(int(c) for c in chunks[-1] if c not in chunks[:-1])
    bad = level[0].copy()
    bad[target, 0] += 2
    monkeypatch.setattr(scan, "_level", lambda k: (bad, *level[1:]) if k == 4 else _level(k))
    _batch_butterfly(chunks[:-1], n)
    with pytest.raises(InvariantError):
        _batch_butterfly(chunks, n)


def test_block_reductions_match_single_function_api():
    rng = random.Random(77)
    # several blocks at n = 5, a partial last block at n = 10, one row a block at
    # n = 16; parity has 4^n at |S| = n, and n * 4^n passes int16 at n = 7 and
    # int32 at n = 15, where 4^n does not
    for n, count in ((5, 2 * block_rows(5) + 5), (7, 3), (10, block_rows(10) + 3),
                     (15, 1), (16, 3)):
        fns = [parity(n), dictator(n, n), constant(n, -1)]
        fns += [BooleanFunction(n, rng.getrandbits(1 << n)) for _ in range(count)]
        deg, lin, inf = _spectrum_reductions(_bits_matrix([f.table for f in fns], n), n, True)
        for row, f in enumerate(fns):
            report = check_conjecture(f)
            assert deg[row] == report.degree, (n, row)
            assert DyadicRational(int(lin[row]), n) == report.linear_sum, (n, row)
            assert DyadicRational(int(inf[row]), 2 * n) == total_influence(fwht(f)), (n, row)
    assert _spectrum_reductions(_bits_matrix([0], 3), 3, False)[2] is None


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
    tables = range(256)
    original = scan._derivative_counts
    # Maj_3 meets M(3) and M(4) exactly, so one more +1 derivative value flips
    # ineq_b and ineq_c there; the constant has room to spare at every d
    for row, flips in ((majority(3).table, True), (0, False)):
        def perturbed(chunks, n, row=row):
            plus, minus = original(chunks, n)
            plus[row] += 1
            return plus, minus

        monkeypatch.setattr(scan, "_derivative_counts", perturbed)
        plus, minus = perturbed(_bits_matrix(tables, 3), 3)
        for degree_filter in (None, 3, 2):
            cfg = ScanConfig(n=3, mode="exhaustive", degree_filter=degree_filter)
            got = _accumulate(cfg, _build_consts(cfg), tables).equivalence_failures
            want = every_row_failures(cfg, tables, plus, minus)
            assert list(got) == want, (row, degree_filter)
            assert bool(want) == (flips and degree_filter != 2), (row, degree_filter)
            assert all(w.table_hex == to_hex(BooleanFunction(3, row)) for w in want)


def test_int16_spectra_hold_every_exhaustive_arity():
    for n in range(1, _EXHAUSTIVE_HUGE_MAX_N + 1):
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


def test_wall_time_positive():
    res = run_scan(ScanConfig(n=2, mode="exhaustive"))
    assert res.wall_time > 0
