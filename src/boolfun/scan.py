"""Bulk verification over ranges of truth tables.

Exhaustive mode walks every table integer of a small arity; random mode
draws tables from a seeded stream.  Either way the work is expressed as
range primitives over a contiguous index interval, so a scan can be split
into chunks, run on several processes, and merged.  merge_results is
associative and commutative, and witness selection always prefers the
numerically smallest table, so the final report is byte-for-byte identical
(wall_time aside) no matter how the range was partitioned.

The per-batch analysis is integer-only, and both modes take one route.  Each
table is read as 2^(n-k) chunks of 2^k bits, k = min(n - 1, 4), low chunk
first (_bits_matrix); chunk c is f restricted to the points whose
coordinates k+1..n spell c.  The 2^k-scaled spectra of every arity-k table
are built once per process (_level), so a table's spectrum is its chunks'
level rows followed by the butterfly stages for coordinates k+1..n
(_batch_butterfly; O'Donnell, Analysis of Boolean Functions, 2014, 3.3).
The spectra are built and norm-checked one block of rows at a time, sized
so that a block stays in a core's L2 cache through every stage.  Entries
are stored in the narrowest type that holds 2^n, and their squares are
taken in the narrowest type that holds 4^n (_spectrum_dtype).
The level tables are built by this same route from arity k-1, starting at
the arity-0 spectra [1] and [-1].  The bound and the four equivalence
inequalities are the integer formulas of the conjecture module, applied
elementwise (see there for their int64 headroom).  Derivative value counts
for the equivalence check come from table bits, not from the spectrum: the
chunks' level counts plus, along each coordinate above k, popcount(hi & ~lo)
and popcount(lo & ~hi) over the chunk pairs (_derivative_counts).  Total
influence comes from the spectrum, so the check exercises two genuinely
different computation routes.

Witness lists are capped at _WITNESS_CAP entries, the smallest tables first;
the number cut off is carried along, so the reported totals stay exact.
"""

from __future__ import annotations

import collections
import functools
import hashlib
import itertools
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .conjecture import _bound_sides, _scale, _Scale, _sides
from .core import (
    MAX_ARITY,
    BooleanFunction,
    InputError,
    InvariantError,
    _butterfly,
    _degrees,
    _linear_sums,
    to_hex,
)
from .derivatives import _total_influences
from .dyadic import DyadicRational
from .majority import maj_bound

_EXHAUSTIVE_DEFAULT_MAX_N = 4
_EXHAUSTIVE_HUGE_MAX_N = 5
_RANDOM_MAX_N = 16
_WITNESS_CAP = 1000
# sub-batch rows are capped at 2^21 spectrum cells: 4 MB of int16 or 8 MB of
# int32 spectra, plus the squares the equivalence block takes
_BATCH_CELLS = 1 << 21
# one block of spectrum rows plus the butterfly's per-stage temporaries stay
# in a core's L2 cache
_BLOCK_BYTES = 1 << 18
# spans submitted to a process pool at once, per worker
_SPANS_IN_FLIGHT = 4


@dataclass(frozen=True)
class ScanConfig:
    """Immutable description of one scan; merging requires equal configs."""

    n: int
    mode: str
    degree_filter: int | None = None
    equivalence_check: bool | None = None
    equivalence_d_range: tuple[int, ...] | None = None
    sample_count: int | None = None
    seed: int | None = None
    worker_count: int = 1
    chunk_size: int = 1 << 14
    allow_huge: bool = False

    def __post_init__(self):
        if self.mode not in ("exhaustive", "random"):
            raise InputError(f"mode must be 'exhaustive' or 'random', got {self.mode!r}")
        if not isinstance(self.n, int) or self.n < 1:
            raise InputError(f"arity must be a positive integer, got {self.n!r}")
        if self.mode == "exhaustive":
            if self.n > _EXHAUSTIVE_HUGE_MAX_N:
                raise InputError(f"exhaustive scans support n <= {_EXHAUSTIVE_HUGE_MAX_N}")
            if self.n > _EXHAUSTIVE_DEFAULT_MAX_N and not self.allow_huge:
                raise InputError(
                    f"exhaustive n = {self.n} exceeds the default ceiling "
                    f"{_EXHAUSTIVE_DEFAULT_MAX_N}; set allow_huge to opt in"
                )
            if self.sample_count is not None or self.seed is not None:
                raise InputError("sample_count and seed only apply to random mode")
        else:
            if self.n > _RANDOM_MAX_N:
                raise InputError(f"random scans support n <= {_RANDOM_MAX_N}")
            if self.sample_count is None or not isinstance(self.sample_count, int):
                raise InputError("random mode requires an integer sample_count")
            if self.sample_count < 1:
                raise InputError("sample_count must be at least 1")
            if self.seed is not None and not (isinstance(self.seed, int)
                                              and 0 <= self.seed < 1 << 64):
                raise InputError("seed must be an integer that fits in 64 bits")
        if self.degree_filter is not None and not 0 <= self.degree_filter <= self.n:
            raise InputError(f"degree filter must be in 0..{self.n}")
        if self.equivalence_d_range is not None:
            ds = tuple(sorted(set(self.equivalence_d_range)))
            for d in ds:
                if not isinstance(d, int) or not 1 <= d <= MAX_ARITY:
                    raise InputError(f"equivalence d values must be in 1..{MAX_ARITY}")
            object.__setattr__(self, "equivalence_d_range", ds)
        if not isinstance(self.worker_count, int) or self.worker_count < 1:
            raise InputError("worker_count must be at least 1")
        if not isinstance(self.chunk_size, int) or self.chunk_size < 1:
            raise InputError("chunk_size must be at least 1")

    @property
    def points(self) -> int:
        return 1 << self.n

    def resolved(self) -> "ScanConfig":
        """Fill the defaults that depend on n; idempotent."""
        check = self.equivalence_check
        if check is None:
            check = self.n <= 3
        d_range = self.equivalence_d_range if check else ()
        if check and not d_range:
            d_range = tuple(range(1, self.n + 2))
        seed = self.seed
        if self.mode == "random" and seed is None:
            seed = 0
        return replace(
            self,
            equivalence_check=check,
            equivalence_d_range=d_range,
            seed=seed,
        )


@dataclass(frozen=True)
class DegreeExtremal:
    """Largest singleton-coefficient sum seen among functions of one degree."""

    degree: int
    function_count: int
    max_linear_sum: DyadicRational
    witness: str
    witness_count: int
    bound: DyadicRational
    margin: DyadicRational


@dataclass(frozen=True)
class ConjectureWitness:
    """A function whose singleton-coefficient sum exceeds M(deg)."""

    table_hex: str
    n: int
    degree: int
    linear_sum: DyadicRational
    bound: DyadicRational


@dataclass(frozen=True)
class EquivalenceWitness:
    """A function and d where the four inequalities fail to agree."""

    table_hex: str
    n: int
    d: int
    original: bool
    ineq_a: bool
    ineq_b: bool
    ineq_c: bool


@dataclass(frozen=True)
class ScanResult:
    config: ScanConfig
    functions_examined: int
    violations: tuple[ConjectureWitness, ...]
    equivalence_failures: tuple[EquivalenceWitness, ...]
    per_degree: dict[int, DegreeExtremal]
    wall_time: float
    # witnesses beyond the cap, counted but not listed
    violations_omitted: int = 0
    equivalence_failures_omitted: int = 0

    @property
    def violation_count(self) -> int:
        return len(self.violations) + self.violations_omitted

    @property
    def equivalence_failure_count(self) -> int:
        return len(self.equivalence_failures) + self.equivalence_failures_omitted


def _finalize(cfg: ScanConfig, examined: int, violations, failures, per_degree: dict,
              wall_time: float = 0.0, violations_omitted: int = 0,
              failures_omitted: int = 0) -> ScanResult:
    """A ScanResult with witnesses sorted by table and cut at _WITNESS_CAP."""
    violations = sorted(violations, key=lambda w: w.table_hex)
    failures = sorted(failures, key=lambda w: (w.table_hex, w.d))
    return ScanResult(
        config=cfg,
        functions_examined=examined,
        violations=tuple(violations[:_WITNESS_CAP]),
        equivalence_failures=tuple(failures[:_WITNESS_CAP]),
        per_degree=per_degree,
        wall_time=wall_time,
        violations_omitted=violations_omitted + max(0, len(violations) - _WITNESS_CAP),
        equivalence_failures_omitted=failures_omitted + max(0, len(failures) - _WITNESS_CAP),
    )


# The scan's stages are functions of their own, so that bench/tracing.py can
# time them apart from the single-function calls into the same core code.


def _build_consts(cfg: ScanConfig) -> dict[int, _Scale]:
    """The shared constants for every degree 0..n and every equivalence d."""
    return {d: _scale(cfg.n, d) for d in {*range(cfg.n + 1), *cfg.equivalence_d_range}}


def _chunk_arity(n: int) -> int:
    """Arity k of the chunks an arity-n table is read as; _level(k) is cached."""
    return min(n - 1, 4)


def _bits_matrix(tables: Sequence[int], n: int) -> np.ndarray:
    """The sub-batch's tables as rows of 2^(n-k) arity-k chunks, low chunk first."""
    k = _chunk_arity(n)
    if n > 5:  # 16-bit chunks, straight from the table bytes
        nbytes = 1 << (n - 3)
        buf = b"".join(t.to_bytes(nbytes, "little") for t in tables)
        return np.frombuffer(buf, dtype="<u2").reshape(len(tables), -1)
    if isinstance(tables, range):
        ints = np.arange(tables.start, tables.stop, dtype=np.int64)
    else:
        ints = np.array(tables, dtype=np.int64)
    shifts = np.arange(1 << (n - k)) << k
    return (ints[:, None] >> shifts) & ((1 << (1 << k)) - 1)


def _batch_butterfly(chunks: np.ndarray, n: int) -> np.ndarray:
    """2^n-scaled spectra of the sub-batch, one row per table, built and
    norm-checked a block of at most _BLOCK_BYTES at a time."""
    k = _chunk_arity(n)
    level = _level(k)[0]
    coeffs = np.empty((len(chunks), 1 << n), dtype=_spectrum_dtype(n))
    step = max(1, _BLOCK_BYTES // (coeffs.itemsize << n))
    for start in range(0, len(chunks), step):
        block = coeffs[start : start + step]
        # the int8 level rows widen to the spectrum type on assignment
        block.reshape(len(block), -1, 1 << k)[:] = level[chunks[start : start + step]]
        _butterfly(block, half=1 << k)
        norms = np.square(block, dtype=_spectrum_dtype(2 * n)).sum(axis=1, dtype=np.int64)
        if np.any(norms != 1 << (2 * n)):
            raise InvariantError("spectrum norm check failed during scan")
    return coeffs


def _derivative_counts(chunks: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Derivative values +1 and -1 per table, summed over coordinates, from bits."""
    k = _chunk_arity(n)
    _, level_plus, level_minus = _level(k)
    # chunk-major, so the counts below add whole contiguous rows of tables
    columns = np.ascontiguousarray(chunks.T)
    plus = level_plus[columns].sum(axis=0)
    minus = level_minus[columns].sum(axis=0)
    for i in range(k + 1, n + 1):
        # along x_i the derivative is +1 where only the high chunk has a set bit
        pairs = columns.reshape(-1, 2, 1 << (i - 1 - k), len(chunks))
        lo, hi = pairs[:, 0], pairs[:, 1]
        plus += np.bitwise_count(hi & ~lo).sum(axis=(0, 1), dtype=np.int64)
        minus += np.bitwise_count(lo & ~hi).sum(axis=(0, 1), dtype=np.int64)
    return plus, minus


@functools.cache
def _spectrum_dtype(n: int) -> type:
    """The narrowest of int16, int32 and int64 that holds 2^n, the bound on
    every entry and partial sum of an arity-n butterfly.  Squares of those
    entries are taken in _spectrum_dtype(2 * n), the type that holds 4^n."""
    for dtype in (np.int16, np.int32, np.int64):
        if 1 << n <= np.iinfo(dtype).max:
            return dtype
    raise InvariantError(f"int64 spectra overflow at n = {n}")


@functools.cache
def _level(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """2^k-scaled spectra (int8) and summed derivative +1 and -1 counts over
    coordinates 1..k of every arity-k table, indexed by table integer."""
    if k == 0:
        zero = np.zeros(2, dtype=np.int64)
        return np.array([[1], [-1]], dtype=np.int8), zero, zero
    chunks = _bits_matrix(range(1 << (1 << k)), k)
    return (_batch_butterfly(chunks, k).astype(np.int8), *_derivative_counts(chunks, k))


def _sample_table(seed: int, index: int, points: int) -> int:
    """Deterministic table for sample #index; independent of partitioning."""
    material = seed.to_bytes(8, "big") + index.to_bytes(8, "big")
    digest = hashlib.shake_256(material).digest((points + 7) // 8)
    return int.from_bytes(digest, "little") & ((1 << points) - 1)


def _accumulate(cfg: ScanConfig, consts: dict[int, _Scale],
                tables: Sequence[int]) -> ScanResult:
    """Every table of one sub-batch at once, as rows of a matrix."""
    n = cfg.n
    chunks = _bits_matrix(tables, n)
    coeffs = _batch_butterfly(chunks, n)
    deg = _degrees(coeffs, n)
    lin = _linear_sums(coeffs, n)
    if cfg.degree_filter is None:
        mask = np.ones(len(tables), dtype=bool)
    else:
        mask = deg == cfg.degree_filter

    def hex_of(j) -> str:
        return to_hex(BooleanFunction(n, tables[int(j)]))

    per_degree = {}
    violations = []
    for dval in np.unique(deg[mask]):
        d = int(dval)
        idx = np.nonzero(mask & (deg == dval))[0]
        sums = lin[idx]
        best = int(sums.max())
        attain = idx[sums == best]
        best_dy, bound = DyadicRational(best, n), maj_bound(d)
        witness = min(attain, key=lambda j: tables[int(j)])
        per_degree[d] = DegreeExtremal(d, len(idx), best_dy, hex_of(witness), len(attain),
                                       bound, bound - best_dy)
        lhs, rhs = _bound_sides(consts[d], sums)
        violations += [ConjectureWitness(hex_of(j), n, d, DyadicRational(int(lin[j]), n), bound)
                       for j in idx[lhs > rhs]]

    failures = []
    if cfg.equivalence_d_range:
        inf = _total_influences(coeffs.astype(_spectrum_dtype(2 * n), copy=False), n)
        plus, minus = _derivative_counts(chunks, n)
        for d in cfg.equivalence_d_range:
            sat = [lhs <= rhs for lhs, rhs in _sides(consts[d], lin, inf, plus, minus).values()]
            agree = (sat[0] == sat[1]) & (sat[0] == sat[2]) & (sat[0] == sat[3])
            failures += [EquivalenceWitness(hex_of(j), n, d, *(bool(x[j]) for x in sat))
                         for j in np.nonzero(mask & ~agree)[0]]
    return _finalize(cfg, len(tables), violations, failures, per_degree)


def _analyze_chunk(cfg: ScanConfig, consts: dict[int, _Scale], tables: Sequence[int],
                   begin: float) -> ScanResult:
    """Analyze tables in sub-batches; wall time counts from begin."""
    step = max(1, _BATCH_CELLS // cfg.points)
    pieces = (_accumulate(cfg, consts, tables[off : off + step])
              for off in range(0, len(tables), step))
    merged = functools.reduce(merge_results, pieces, _finalize(cfg, 0, (), (), {}))
    return replace(merged, wall_time=time.perf_counter() - begin)


def scan_table_range(config: ScanConfig, start: int, stop: int) -> ScanResult:
    """Analyze truth-table integers in [start, stop); exhaustive-mode primitive."""
    cfg = config.resolved()
    if cfg.mode != "exhaustive":
        raise InputError("scan_table_range requires an exhaustive-mode config")
    if not 0 <= start <= stop <= 1 << cfg.points:
        raise InputError(f"table range [{start}, {stop}) out of bounds for n = {cfg.n}")
    begin = time.perf_counter()
    return _analyze_chunk(cfg, _build_consts(cfg), range(start, stop), begin)


def scan_sample_range(config: ScanConfig, start: int, stop: int) -> ScanResult:
    """Analyze sample indices in [start, stop); random-mode primitive."""
    cfg = config.resolved()
    if cfg.mode != "random":
        raise InputError("scan_sample_range requires a random-mode config")
    if not 0 <= start <= stop <= cfg.sample_count:
        raise InputError(f"sample range [{start}, {stop}) out of bounds")
    begin = time.perf_counter()
    tables = [_sample_table(cfg.seed, k, cfg.points) for k in range(start, stop)]
    return _analyze_chunk(cfg, _build_consts(cfg), tables, begin)


def merge_results(left: ScanResult, right: ScanResult) -> ScanResult:
    """Combine two partial results; associative, commutative, config-checked."""
    if left.config != right.config:
        raise InputError("cannot merge results from different scan configs")
    per_degree = {}
    for d in sorted(left.per_degree.keys() | right.per_degree.keys()):
        exts = [r.per_degree[d] for r in (left, right) if d in r.per_degree]
        best = max(e.max_linear_sum for e in exts)
        top = [e for e in exts if e.max_linear_sum == best]
        per_degree[d] = DegreeExtremal(
            degree=d, function_count=sum(e.function_count for e in exts), max_linear_sum=best,
            witness=min(e.witness for e in top), witness_count=sum(e.witness_count for e in top),
            bound=top[0].bound, margin=top[0].margin)
    return _finalize(
        left.config,
        left.functions_examined + right.functions_examined,
        left.violations + right.violations,
        left.equivalence_failures + right.equivalence_failures,
        per_degree,
        left.wall_time + right.wall_time,
        left.violations_omitted + right.violations_omitted,
        left.equivalence_failures_omitted + right.equivalence_failures_omitted,
    )


def _range_worker(args: tuple[ScanConfig, int, int]) -> ScanResult:
    cfg, start, stop = args
    primitive = scan_table_range if cfg.mode == "exhaustive" else scan_sample_range
    return primitive(cfg, start, stop)


def run_scan(config: ScanConfig) -> ScanResult:
    """Full scan: chunk the index range, fan out if asked, merge, stamp time."""
    cfg = config.resolved()
    begin = time.perf_counter()
    total = (1 << cfg.points) if cfg.mode == "exhaustive" else cfg.sample_count
    spans = ((cfg, s, min(s + cfg.chunk_size, total))
             for s in range(0, total, cfg.chunk_size))
    if cfg.worker_count == 1:
        merged = functools.reduce(merge_results, map(_range_worker, spans))
    else:
        with ProcessPoolExecutor(max_workers=cfg.worker_count) as pool:
            depth = _SPANS_IN_FLIGHT * cfg.worker_count
            merged = functools.reduce(merge_results, _bounded_map(pool, spans, depth))
    return replace(merged, wall_time=time.perf_counter() - begin)


def _bounded_map(pool: ProcessPoolExecutor, spans, depth: int):
    """Results of _range_worker over spans, in span order, with at most depth
    spans submitted at a time (pool.map would submit every span up front)."""
    spans = iter(spans)
    pending = collections.deque(pool.submit(_range_worker, span)
                                for span in itertools.islice(spans, depth))
    while pending:
        result = pending.popleft().result()
        pending.extend(pool.submit(_range_worker, span) for span in itertools.islice(spans, 1))
        yield result
