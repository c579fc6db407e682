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
(O'Donnell, Analysis of Boolean Functions, 2014, 3.3).  The spectra exist
one block at a time (_spectrum_blocks).  A block is column-major, one row
per mask and one column per table, with as many columns as keep it in a
core's L2 cache; its chunks' level rows are gathered with np.take.  After
the stage for coordinate j every partial sum is at most 2^j, so the stages
through coordinate 14 run in int16 (_INT16_STAGES); above n = 14 the block
then widens once to the type that holds 2^n for the remaining stages.  The
entries are squared once, in the narrowest type that holds 4^n
(_spectrum_dtype).  While the block is in cache it is reduced along axis 0:
its squares give the norm check and, for the equivalence check, the total
influence, and its entries give the degree and the linear sum
(_spectrum_reductions, by the core and derivatives formulas).  Each
reduction adds or compares whole rows of the block.  The level tables are
built by this same route from arity k-1, starting at the arity-0 spectra
[1] and [-1].

The bound and the four equivalence inequalities are the integer formulas
of the conjecture module (see there for their int64 headroom).  Derivative
value counts for the equivalence check come from table bits, not from the
spectrum: the chunks' level counts plus, along each coordinate above k,
popcount(hi & ~lo) and popcount(lo & ~hi) over the chunk pairs
(_derivative_counts).  As E[D_i f] = fhat(i) and Pr[D_i f != 0] = Inf_i
(O'Donnell 2014, 2.2), the counts plus and minus of a table meet its
spectrum in two identities: 2 (plus - minus) is 2^n times the linear sum,
and 2^(n+1) (plus + minus) is 4^n times the total influence.  Where both
hold, each of the four inequalities becomes the original one, linear sum
<= M(d), so they agree at every d.  Only a row that breaks an identity goes
through the four inequalities at each d, so the witnesses are those that a
check of every row at every d reports: a break that flips no inequality is
not one of them.

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
from typing import Callable, Sequence

import numpy as np

from .conjecture import _bound_sides, _scale, _Scale, _sides
from .core import (
    BooleanFunction,
    InputError,
    InvariantError,
    _butterfly,
    _check_arity,
    _degrees,
    _int_type,
    _is_int,
    _linear_sums,
    _table_bytes,
    to_hex,
)
from .derivatives import _total_influences
from .dyadic import DyadicRational
from .majority import maj_bound

_EXHAUSTIVE_DEFAULT_MAX_N = 4
_EXHAUSTIVE_HUGE_MAX_N = 5
_RANDOM_MAX_N = 16
_WITNESS_CAP = 1000
# sub-batch rows are capped at 2^21 table bits, which keeps the chunk matrix
# and the derivative counts' temporaries to a few MB; spectra are held one
# block at a time whatever the sub-batch size
_BATCH_CELLS = 1 << 21
# one block of spectrum rows plus the butterfly's per-stage temporaries stay
# in a core's L2 cache
_BLOCK_BYTES = 1 << 18
# spans submitted to a process pool at once, per worker
_SPANS_IN_FLIGHT = 4
# after the butterfly stage for coordinate j every partial sum is at most
# 2^j, so the stages for coordinates up to this one (14) fit in int16 at any n;
# a wrapped entry of +-2^15 squares to 4^15, so no norm check would catch it
_INT16_STAGES = np.iinfo(np.int16).max.bit_length() - 1


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
        if not _is_int(self.n) or self.n < 1:
            raise InputError(f"arity must be a positive integer, got {self.n!r}")
        if not (self.equivalence_check is None or isinstance(self.equivalence_check, bool)):
            raise InputError(f"equivalence_check must be a bool, got {self.equivalence_check!r}")
        if not isinstance(self.allow_huge, bool):
            raise InputError(f"allow_huge must be a bool, got {self.allow_huge!r}")
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
            if not _is_int(self.sample_count):
                raise InputError("random mode requires an integer sample_count")
            if self.sample_count < 1:
                raise InputError("sample_count must be at least 1")
            if self.seed is not None and not (_is_int(self.seed) and 0 <= self.seed < 1 << 64):
                raise InputError("seed must be an integer that fits in 64 bits")
        if self.degree_filter is not None and not (_is_int(self.degree_filter)
                                                   and 0 <= self.degree_filter <= self.n):
            raise InputError(f"degree filter must be an integer in 0..{self.n}")
        if self.equivalence_d_range is not None:
            for d in self.equivalence_d_range:
                _check_arity(d, "equivalence d value")
            ds = tuple(sorted(set(self.equivalence_d_range)))
            object.__setattr__(self, "equivalence_d_range", ds)
        if not _is_int(self.worker_count) or self.worker_count < 1:
            raise InputError("worker_count must be an integer of at least 1")
        if not _is_int(self.chunk_size) or self.chunk_size < 1:
            raise InputError("chunk_size must be an integer of at least 1")

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
        return _table_bytes(tables, n, "<u2")
    dtype = "<u4" if n == 5 else np.int64
    if isinstance(tables, range):
        ints = np.arange(tables.start, tables.stop, dtype=dtype)
    else:
        ints = np.array(tables, dtype=dtype)
    if n == 5:  # the two 16-bit chunks, through a little-endian view
        return ints.view("<u2").reshape(-1, 2)
    shifts = np.arange(1 << (n - k)) << k
    return (ints[:, None] >> shifts) & ((1 << (1 << k)) - 1)


def _spectrum_blocks(chunks: np.ndarray, n: int):
    """The sub-batch's 2^n-scaled spectra, one L2-sized block at a time.

    Yields (rows, block, squares): block is 2^n x m and column-major, one
    column per table of chunks[rows] and one row per mask, and squares holds
    its entries squared.  Each block is norm-checked before it is yielded.
    The buffer behind block is reused, so a consumer is done with one block
    before it asks for the next."""
    k = _chunk_arity(n)
    level = _level(k)[0]
    dtype, square_type = _spectrum_dtype(n), _spectrum_dtype(2 * n)
    narrow = min(n, _INT16_STAGES)
    # holds the sum of any 2^n values of square_type (up to int64), so the
    # squares of a corrupt block do not wrap around to 4^n
    norm_type = _int_type(min(np.iinfo(square_type).max << n, np.iinfo(np.int64).max))
    step = max(1, _BLOCK_BYTES // (np.dtype(dtype).itemsize << n))
    staged_buf = np.empty(min(step, len(chunks)) << n, dtype=np.int16)
    buf = staged_buf if narrow == n else np.empty(len(staged_buf), dtype=dtype)
    for start in range(0, len(chunks), step):
        columns = chunks[start : start + step].T
        width = columns.shape[1]
        staged, flat = staged_buf[: width << n], buf[: width << n]
        # chunk c's level rows become rows c * 2^k .. (c + 1) * 2^k - 1; the
        # int8 entries widen to int16 on assignment
        staged.reshape(1 << (n - k), 1 << k, width)[:] = \
            np.take(level, columns, axis=0).transpose(0, 2, 1)
        # each run of 2^narrow masks is transformed through coordinate narrow
        # in int16, then the block widens once for the stages above it
        _butterfly(staged.reshape(-1, width << narrow), half=width << k)
        if narrow < n:
            flat[:] = staged
            _butterfly(flat, half=width << narrow)
        block = flat.reshape(1 << n, width)
        squares = np.square(block, dtype=square_type)
        if np.any(squares.sum(axis=0, dtype=norm_type) != 1 << (2 * n)):
            raise InvariantError("spectrum norm check failed during scan")
        yield slice(start, start + width), block, squares


def _batch_butterfly(chunks: np.ndarray, n: int) -> np.ndarray:
    """2^n-scaled spectra of the sub-batch as a matrix, one row per table."""
    coeffs = np.empty((len(chunks), 1 << n), dtype=_spectrum_dtype(n))
    for rows, block, _ in _spectrum_blocks(chunks, n):
        coeffs[rows] = block.T
    return coeffs


def _spectrum_reductions(chunks: np.ndarray, n: int, influence: bool):
    """Per table: degree, 2^n times the linear sum and, if influence is set,
    4^n times the total influence (else None), reduced from each block while
    it is in cache."""
    deg = np.empty(len(chunks), dtype=np.int8)
    lin = np.empty(len(chunks), dtype=np.int64)
    inf = np.empty(len(chunks), dtype=np.int64) if influence else None
    for rows, block, squares in _spectrum_blocks(chunks, n):
        deg[rows] = _degrees(block, n, axis=0)
        lin[rows] = _linear_sums(block, n, axis=0)
        if influence:
            inf[rows] = _total_influences(squares, n, axis=0)
    return deg, lin, inf


def _derivative_counts(chunks: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Derivative values +1 and -1 per table, summed over coordinates, from bits."""
    k = _chunk_arity(n)
    _, level_plus, level_minus = _level(k)
    # chunk-major, so the counts below add whole contiguous rows of tables
    columns = np.ascontiguousarray(chunks.T)
    plus = np.take(level_plus, columns).sum(axis=0)
    minus = np.take(level_minus, columns).sum(axis=0)
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
    return _int_type(1 << n)


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
    deg, lin, inf = _spectrum_reductions(chunks, n, bool(cfg.equivalence_d_range))
    if cfg.degree_filter is None:
        mask = np.ones(len(tables), dtype=bool)
    else:
        mask = deg == cfg.degree_filter

    def hex_of(j) -> str:
        return to_hex(BooleanFunction(n, tables[int(j)]))

    per_degree = {}
    violations = []
    # the degrees present, ascending
    for d in np.flatnonzero(np.bincount(deg[mask], minlength=n + 1)).tolist():
        idx = np.nonzero(mask & (deg == d))[0]
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
        plus, minus = _derivative_counts(chunks, n)
        # the identities of the module docstring; where both hold, each of the
        # four inequalities reads (plus - minus) * s.prob <= s.maj at every d
        broken = np.nonzero(mask & ((2 * (plus - minus) != lin)
                                    | ((plus + minus) << (n + 1) != inf)))[0]
        for d in cfg.equivalence_d_range:
            sides = _sides(consts[d], lin[broken], inf[broken], plus[broken], minus[broken])
            sat = [lhs <= rhs for lhs, rhs in sides.values()]
            agree = (sat[0] == sat[1]) & (sat[0] == sat[2]) & (sat[0] == sat[3])
            failures += [EquivalenceWitness(hex_of(broken[i]), n, d, *(bool(x[i]) for x in sat))
                         for i in np.nonzero(~agree)[0]]
    return _finalize(cfg, len(tables), violations, failures, per_degree)


def _analyze_chunk(cfg: ScanConfig, consts: dict[int, _Scale], keys: range,
                   tables_of: Callable[[range], Sequence[int]], begin: float) -> ScanResult:
    """Analyze the tables of keys in sub-batches; wall time counts from begin.

    tables_of maps a slice of keys to its tables, and runs only when the
    sub-batch is reached, so at most one sub-batch of tables exists at once.
    """
    step = max(1, _BATCH_CELLS // cfg.points)
    pieces = (_accumulate(cfg, consts, tables_of(keys[off : off + step]))
              for off in range(0, len(keys), step))
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
    return _analyze_chunk(cfg, _build_consts(cfg), range(start, stop), lambda ks: ks, begin)


def scan_sample_range(config: ScanConfig, start: int, stop: int) -> ScanResult:
    """Analyze sample indices in [start, stop); random-mode primitive."""
    cfg = config.resolved()
    if cfg.mode != "random":
        raise InputError("scan_sample_range requires a random-mode config")
    if not 0 <= start <= stop <= cfg.sample_count:
        raise InputError(f"sample range [{start}, {stop}) out of bounds")
    begin = time.perf_counter()

    def tables_of(ks: range) -> list[int]:
        return [_sample_table(cfg.seed, k, cfg.points) for k in ks]

    return _analyze_chunk(cfg, _build_consts(cfg), range(start, stop), tables_of, begin)


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
