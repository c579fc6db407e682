"""Bulk verification over ranges of truth tables.

Exhaustive mode walks every table integer of a small arity; random mode
draws tables from a seeded stream.  Either way the work is expressed as
range primitives over a contiguous index interval, so a scan can be split
into chunks, run on several processes, and merged.  merge_results is
associative and commutative, and witness selection always prefers the
numerically smallest table, so the final report is byte-for-byte identical
no matter how the range was partitioned.

The per-batch analysis is integer-only.  Each table is read as 2^(n-k)
chunks of 2^k bits, low chunk first; chunk c is f restricted to the points
whose coordinates k+1..n spell c.  The chunks are the table's 16-bit words,
or below n = 4 one byte holding the whole table, so k = min(n, 4), and they
are read through core's table codec (_bits_matrix).  The 2^k-scaled spectra
of every arity-k table are built once per process (_level), so a table's
spectrum is its chunks' level spectra followed by the butterfly stages for
coordinates k+1..n (O'Donnell, Analysis of Boolean Functions, 2014, 3.3).
Where spectra are built, they exist one block at a time
(_spectrum_blocks).  A block holds one table a row, as every spectrum
matrix does, with as many rows as keep it in a core's L2 cache.  Two
routes read the tables.

- Halves, for a range of consecutive tables of arity n <= 5 (an
  exhaustive scan, read whole): its per-degree rows come from per-key
  records of its halves, with no block filled.  The join module owns this
  route: it builds the halves' statistics, keys and records, proves their
  level once, and reads the range from them.
- Gather, for a sub-batch of other tables (random samples, a list of
  tables, a level build, or a range read row by row, _BATCH_CELLS table
  bits at a time).  The tables are unpacked into chunks (_bits_matrix); a
  range of arity-n tables is instead split into its halves, two
  arity-(n - 1) chunks a row, with no unpacking (_pairs).
  The chunks' level rows are gathered chunk-major with np.take, and the
  butterfly stages for the coordinates above the chunks' arity run there.
  After the stage for coordinate j every partial sum is at most 2^j, so
  the stages through coordinate 14 run in int16 (_INT16_STAGES).  One copy
  then makes the block's rows, widened to the type that holds 2^n, and
  above n = 14 the remaining stages run along each row.

A block's entries are squared once, in the narrowest type that holds 4^n
(_spectrum_dtype), and every block is norm-checked.  A gathered block is
reduced along each row while it is in cache: its squares give the total
influence for the equivalence check, and its entries give the degree and
the linear sum (_spectrum_reductions, by the core and derivatives
formulas).

The bound and the four equivalence inequalities are the integer formulas
of the conjecture module (see there for their int64 headroom).  Derivative
value counts for the equivalence check come from table bits, not from the
spectrum: the chunks' level counts plus, along each coordinate above the
chunks' arity, popcount(hi & ~lo) and popcount(lo & ~hi) over the chunk
pairs (_derivative_counts).  They meet the spectrum in the two identities
of the derivatives module, and where both hold, each of the four
inequalities becomes the original one, linear sum <= M(d), so they agree at
every d.  Only a row that breaks an identity goes through the four
inequalities at each d, so the witnesses are those that a check of every
row at every d reports: a break that flips no inequality is not one of
them.  A gathered sub-batch compares both sides of each identity per row
(derivatives._identity_breaks).  A range trusts one proof per level
instead (join._identities_hold), so a range on a proven level, which every
clean level is, reads no pair.  On an unproven level, or where a degree's
best row breaks the bound, the range's halves are re-read through the
gather route (_pairs), _BATCH_CELLS table bits at a time, by the row loop
that reads a sub-batch of other tables (_accumulate).

Witness lists are capped at _WITNESS_CAP entries, the smallest tables first;
the number cut off is carried along, so the reported totals stay exact.
While rows are read, each row over the bound or identity break is an
integer tuple, (table, d, ...), made one at a time and merged into the rows
kept so far, of which the _WITNESS_CAP smallest stay (heapq.nsmallest), so
no more than the cap are held and witness objects are built only for them.
Each degree's record is built once from its integers (_extremal), and a
merge builds one only for a degree that both sides hold; the records are
immutable, so a degree that one side holds keeps its record.
"""

from __future__ import annotations

import collections
import functools
import hashlib
import heapq
import itertools
import operator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import join
from .conjecture import _bound_sides, _scale, _Scale, _sides
from .core import (
    InputError,
    InvariantError,
    _butterfly,
    _check_arity,
    _check_int,
    _degrees,
    _int_type,
    _linear_sums,
    _table_bytes,
    _table_hex,
)
from .derivatives import _identity_breaks, _total_influences
from .dyadic import DyadicRational
from .majority import maj_bound

_MODES = ("exhaustive", "random")
_EXHAUSTIVE_MAX_N = 5
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
    """Immutable description of one scan; merging requires equal configs.

    Construction fills in the defaults that depend on n: unless
    equivalence_check is given, the equivalence check runs when
    equivalence_d_range names d values or n <= 3; it runs at those d values
    (sorted, without repeats), else at d = 1..n+1, and the range is () when
    the check is off.  A random scan's seed defaults to 0.  worker_count and
    chunk_size only split a random scan over a process pool, and take no
    part in equality, so two configs that scan alike compare equal.
    allow_huge is derived, whatever was passed: true for an exhaustive scan
    at n = 5, false otherwise.  It is kept because callers pass it and the
    JSON config record names it."""

    n: int
    mode: str
    degree_filter: int | None = None
    equivalence_check: bool | None = None
    equivalence_d_range: tuple[int, ...] | None = None
    sample_count: int | None = None
    seed: int | None = None
    worker_count: int = field(default=1, compare=False)
    chunk_size: int = field(default=1 << 14, compare=False)
    allow_huge: bool = False

    def __post_init__(self):
        if self.mode not in _MODES:
            raise InputError(f"mode must be {' or '.join(map(repr, _MODES))}, got {self.mode!r}")
        if not (self.equivalence_check is None or isinstance(self.equivalence_check, bool)):
            raise InputError(f"equivalence_check must be a bool, got {self.equivalence_check!r}")
        if not isinstance(self.allow_huge, bool):
            raise InputError(f"allow_huge must be a bool, got {self.allow_huge!r}")
        exhaustive = self.mode == "exhaustive"
        _check_int(self.n, 1, _EXHAUSTIVE_MAX_N if exhaustive else _RANDOM_MAX_N,
                   self.mode + " scans support n in {lo}..{hi}, got {value!r}")
        object.__setattr__(self, "allow_huge", exhaustive and self.n == _EXHAUSTIVE_MAX_N)
        if exhaustive:
            if self.sample_count is not None or self.seed is not None:
                raise InputError("sample_count and seed only apply to random mode")
        else:
            # _sample_table numbers the samples with 8-byte indices
            _check_int(self.sample_count, 1, 1 << 64,
                       "random mode requires a sample_count in {lo}..{hi}, got {value!r}")
            if self.seed is None:
                object.__setattr__(self, "seed", 0)
            _check_int(self.seed, 0, (1 << 64) - 1, "seed must be in {lo}..{hi}, got {value!r}")
        if self.degree_filter is not None:
            _check_int(self.degree_filter, 0, self.n,
                       "degree filter must be in {lo}..{hi}, got {value!r}")
        try:
            d_values = tuple(self.equivalence_d_range or ())
        except TypeError:
            raise InputError("equivalence_d_range must be an iterable of d values, "
                             f"got {self.equivalence_d_range!r}") from None
        for d in d_values:
            _check_arity(d, "equivalence d value")
        check = ((bool(d_values) or self.n <= 3) if self.equivalence_check is None
                 else self.equivalence_check)
        d_range = tuple(sorted(set(d_values))) or tuple(range(1, self.n + 2))
        object.__setattr__(self, "equivalence_check", check)
        object.__setattr__(self, "equivalence_d_range", d_range if check else ())
        _check_int(self.worker_count, 1, None, "worker_count must be at least {lo}, got {value!r}")
        _check_int(self.chunk_size, 1, None, "chunk_size must be at least {lo}, got {value!r}")

    @property
    def points(self) -> int:
        return 1 << self.n

    @property
    def total(self) -> int:
        """Size of the index space: every table, or every sample."""
        return 1 << self.points if self.mode == "exhaustive" else self.sample_count


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
              violations_omitted: int = 0, failures_omitted: int = 0) -> ScanResult:
    """A ScanResult with witnesses sorted by table and cut at _WITNESS_CAP."""
    violations = sorted(violations, key=lambda w: w.table_hex)
    failures = sorted(failures, key=lambda w: (w.table_hex, w.d))
    return ScanResult(
        config=cfg,
        functions_examined=examined,
        violations=tuple(violations[:_WITNESS_CAP]),
        equivalence_failures=tuple(failures[:_WITNESS_CAP]),
        per_degree=per_degree,
        violations_omitted=violations_omitted + max(0, len(violations) - _WITNESS_CAP),
        equivalence_failures_omitted=failures_omitted + max(0, len(failures) - _WITNESS_CAP),
    )


# The scan's stages are functions of their own, so that bench/tracing.py can
# time them apart from the single-function calls into the same core code.


def _build_consts(cfg: ScanConfig) -> dict[int, _Scale]:
    """The shared constants for every degree 0..n and every equivalence d."""
    return {d: _scale(cfg.n, d) for d in {*range(cfg.n + 1), *cfg.equivalence_d_range}}


def _bits_matrix(tables: Sequence[int], n: int) -> np.ndarray:
    """The sub-batch's tables as rows of 2^(n-k) arity-k chunks, low chunk
    first: 16-bit words (k = 4), or below n = 4 one byte holding the whole
    table (k = n).  Readers take k from a row's width, 2^(n-k)."""
    return _table_bytes(tables, n, "<u2" if n >= 4 else np.uint8)


def _spectrum_blocks(source, n: int):
    """The sub-batch's 2^n-scaled spectra, one L2-sized block at a time.

    source is a chunk matrix, from _bits_matrix or _pairs, whose chunks'
    level rows are gathered and then butterflied.  Yields (rows, block,
    squares): block is a C-contiguous m x 2^n matrix, one row per table of
    source[rows], and squares holds its entries squared.  Each block is
    norm-checked before it is yielded.  The buffers behind block are reused,
    so a consumer is done with one block before it asks for the next."""
    dtype, square_type = _spectrum_dtype(n), _spectrum_dtype(2 * n)
    narrow = min(n, _INT16_STAGES)
    # holds the sum of any 2^n values of square_type (up to int64), so the
    # squares of a corrupt block do not wrap around to 4^n
    norm_type = _int_type(min(np.iinfo(square_type).max << n, np.iinfo(np.int64).max))
    step = max(1, _BLOCK_BYTES // (np.dtype(dtype).itemsize << n))
    size = min(step, len(source)) << n
    staged_buf, buf = np.empty(size, dtype=np.int16), np.empty(size, dtype=dtype)
    k = n + 1 - source.shape[1].bit_length()  # 2^(n-k) chunks a row
    for start in range(0, len(source), step):
        width = min(step, len(source) - start)
        # chunk-major, staged[c, r] the level row of chunk c of table r, so the
        # stages for coordinates k+1..narrow pair runs of width * 2^k entries
        # in int16; the int8 entries widen on assignment
        staged = staged_buf[: width << n].reshape(1 << (n - k), width, 1 << k)
        staged[:] = np.take(_level(k).rows, source[start : start + width].T, axis=0)
        _butterfly(staged.reshape(-1, width << narrow), half=width << k)
        # one copy, widening to dtype, makes the rows; the stages above
        # coordinate narrow run along each row
        block = buf[: width << n].reshape(width, 1 << n)
        block.reshape(width, 1 << (n - k), 1 << k)[:] = staged.swapaxes(0, 1)
        _butterfly(block, half=1 << narrow)
        squares = np.square(block, dtype=square_type)
        if np.any(squares.sum(axis=-1, dtype=norm_type) != 1 << (2 * n)):
            raise InvariantError("spectrum norm check failed during scan")
        yield slice(start, start + width), block, squares


def _batch_butterfly(source: np.ndarray, n: int) -> np.ndarray:
    """2^n-scaled spectra of the chunk matrix's tables as a matrix, one row
    per table (_spectrum_blocks)."""
    coeffs = np.empty((len(source), 1 << n), dtype=_spectrum_dtype(n))
    for rows, block, _ in _spectrum_blocks(source, n):
        coeffs[rows] = block
    return coeffs


def _spectrum_reductions(source: np.ndarray, n: int, influence: bool):
    """Per table of the chunk matrix: degree, 2^n times the linear sum and,
    if influence is set, 4^n times the total influence (else None), each
    reduced from its spectrum block while it is in cache."""
    deg = np.empty(len(source), dtype=np.int8)
    lin = np.empty(len(source), dtype=np.int64)
    inf = np.empty(len(source), dtype=np.int64) if influence else None
    for rows, block, squares in _spectrum_blocks(source, n):
        deg[rows] = _degrees(block, n)
        lin[rows] = _linear_sums(block, n)
        if influence:
            inf[rows] = _total_influences(squares, n)
    return deg, lin, inf


def _pairs(tables: range, n: int) -> np.ndarray:
    """A range of arity-n tables (n <= 5) as a chunk matrix of two
    arity-(n - 1) chunks a row, the halves lo and hi of table =
    hi * 2^(2^(n-1)) + lo, in the narrowest type of uint16 and uint32 that
    holds every table integer."""
    half = 1 << (n - 1)
    keys = np.arange(tables.start, tables.stop, dtype=np.uint32 if n == 5 else np.uint16)
    return np.stack([keys & ((1 << half) - 1), keys >> half], axis=1)


def _derivative_counts(chunks: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Derivative values +1 and -1 per table, summed over coordinates, from
    the bits of a chunk matrix from _bits_matrix."""
    k = n + 1 - chunks.shape[1].bit_length()  # 2^(n-k) chunks a row
    level = _level(k)
    # chunk-major, so the counts below add whole contiguous rows of tables
    columns = np.ascontiguousarray(chunks.T)
    plus = np.take(level.plus, columns).sum(axis=0)
    minus = np.take(level.minus, columns).sum(axis=0)
    for i in range(k + 1, n + 1):
        # along x_i the derivative is +1 where only the high chunk has a set bit
        pairs = columns.reshape(1 << (n - i), 2, 1 << (i - 1 - k), len(chunks))
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


@dataclass(frozen=True, eq=False)
class _Level:
    """Every arity-k table, indexed by table integer: its 2^k-scaled spectrum
    (rows, int8, one row per table) and its derivative +1 and -1 counts summed
    over coordinates 1..k (int8, as each is at most k 2^(k-1) <= 32), so a
    gather of either is small.  The halves route's statistics (halves), the
    level's proof (identities_hold), degrees, keys and key_stats, which the
    join module builds, come from these on first use, and only a range of
    arity-(k + 1) tables reads them.  One record serves the whole process,
    so every array is read-only."""

    rows: np.ndarray
    plus: np.ndarray
    minus: np.ndarray

    def __post_init__(self):
        for values in (self.rows, self.plus, self.minus):
            values.setflags(write=False)

    halves = functools.cached_property(join._halves)
    identities_hold = functools.cached_property(join._identities_hold)
    degrees = functools.cached_property(join._degrees)
    keys = functools.cached_property(join._keys)
    key_stats = functools.cached_property(join._key_stats)


@functools.cache
def _level(k: int) -> _Level:
    """The level record of arity k: the spectra [1] and [-1] at k = 0, and
    above that every arity-k table read as its halves (_pairs), through the
    gather route from _level(k - 1): its spectra by _batch_butterfly, and
    its derivative counts by _derivative_counts."""
    if k == 0:
        zero = np.zeros(2, dtype=np.int8)
        return _Level(np.array([[1], [-1]], dtype=np.int8), zero, zero)
    halves = _pairs(range(1 << (1 << k)), k)
    return _Level(_batch_butterfly(halves, k).astype(np.int8),
                  *(counts.astype(np.int8) for counts in _derivative_counts(halves, k)))


def _sample_table(seed: int, index: int, points: int) -> int:
    """Deterministic table for sample #index; independent of partitioning."""
    material = seed.to_bytes(8, "big") + index.to_bytes(8, "big")
    digest = hashlib.shake_256(material).digest((points + 7) // 8)
    return int.from_bytes(digest, "little") & ((1 << points) - 1)


def _accumulate(cfg: ScanConfig, consts: dict[int, _Scale],
                tables: Sequence[int]) -> ScanResult:
    """Every table of a range, or of a sub-batch of other tables, at once.  A
    range is exhaustive, so n <= 5: its per-degree rows come from the key
    statistics of its halves, read from their level _level(n - 1) by
    join._range_extremes, and its rows are read only where a degree's best
    row breaks the bound or that level is unproven
    (join._identities_hold), and then as halves (_pairs), in parts of
    _BATCH_CELLS table bits.  Other tables are one part, unpacked
    (_bits_matrix), whose per-degree rows come from its reductions.  Each
    part is reduced from its spectrum blocks.  Its rows over the bound and
    its identity breaks, at each d, are made one at a time as (table, d, ...)
    integer tuples and merged into the rows kept, of which the _WITNESS_CAP
    smallest stay and the rest are counted.  Witnesses are built only for
    the rows kept."""
    n = cfg.n
    check = bool(cfg.equivalence_d_range)
    degrees = range(n + 1) if cfg.degree_filter is None else (cfg.degree_filter,)
    listed = not isinstance(tables, range)
    extremes, parts = {}, [tables]
    if not listed:
        level = _level(n - 1)
        extremes = join._range_extremes(level, tables, degrees)
        # the scale is positive, so no row breaks the bound unless the best
        # does; a range left unread is on a proven level, where every row
        # passes the norm check and breaks no identity
        over = any(operator.gt(*_bound_sides(consts[d], record[1]))
                   for d, record in extremes.items())
        step = _BATCH_CELLS >> n
        parts = ([tables[off : off + step] for off in range(0, len(tables), step)]
                 if over or not level.identities_hold else [])
    found, omitted = [[], []], [0, 0]

    def keep(kind: int, rows, count: int) -> None:
        if count:
            found[kind] = heapq.nsmallest(_WITNESS_CAP, itertools.chain(held := found[kind], rows))
            omitted[kind] += len(held) + count - len(found[kind])

    for part in parts:
        source = _bits_matrix(part, n) if listed else _pairs(part, n)
        deg, lin, inf = _spectrum_reductions(source, n, check)
        for d in degrees:
            idx = np.flatnonzero(deg == d)
            if not idx.size:
                continue
            sums = lin[idx]
            if listed:
                best = int(sums.max())
                attain = idx[sums == best].tolist()
                extremes[d] = (idx.size, best, len(attain), min(part[j] for j in attain))
            lhs, rhs = _bound_sides(consts[d], sums)
            hits = idx[lhs > rhs]
            keep(0, ((part[j], d, int(lin[j])) for j in hits), hits.size)
        if check:
            plus, minus = _derivative_counts(source, n)
            # where both identities hold, each of the four inequalities reads
            # (plus - minus) * s.prob <= s.maj at every d
            broken = _identity_breaks(plus, minus, n, lin, inf)
            if cfg.degree_filter is not None:
                broken = broken[deg[broken] == cfg.degree_filter]
            if broken.size:
                terms = (lin[broken], inf[broken], plus[broken], minus[broken])
                for d in cfg.equivalence_d_range:
                    sat = [lhs <= rhs for lhs, rhs in _sides(consts[d], *terms).values()]
                    agree = (sat[0] == sat[1]) & (sat[0] == sat[2]) & (sat[0] == sat[3])
                    hits = np.flatnonzero(~agree)
                    keep(1, ((part[broken[i]], d, *(bool(x[i]) for x in sat)) for i in hits),
                         hits.size)
    per_degree = {d: _extremal(n, d, *record) for d, record in extremes.items()}
    violations = [ConjectureWitness(_table_hex(n, table), n, d,
                                    DyadicRational(scaled, n), maj_bound(d))
                  for table, d, scaled in found[0]]
    failures = [EquivalenceWitness(_table_hex(n, table), n, *rest) for table, *rest in found[1]]
    return _finalize(cfg, len(tables), violations, failures, per_degree, *omitted)


@functools.cache
def _scaled_bound(n: int, d: int) -> tuple[DyadicRational, int]:
    """M(d) and 2^n M(d), an integer where d <= n: M(d)'s denominator is at
    most 2^(d-1) (majority_profile).  Raises InvariantError where it is not."""
    bound = maj_bound(d)
    if bound.log2_den > n:
        raise InvariantError(f"M({d}) = {bound} is not a multiple of 2^-{n}")
    return bound, bound.num << (n - bound.log2_den)


def _extremal(n: int, d: int, count: int, best: int, reach: int, first: int) -> DegreeExtremal:
    """The DegreeExtremal of a record of arity-n tables of degree d (count,
    2^n lin at best, reach and first, a table integer), with its margin
    M(d) - best / 2^n taken over 2^n, so no DyadicRational is subtracted."""
    bound, scaled = _scaled_bound(n, d)
    return DegreeExtremal(d, count, DyadicRational(best, n), _table_hex(n, first), reach,
                          bound, DyadicRational(scaled - best, n))


def _analyze_chunk(cfg: ScanConfig, start: int, stop: int) -> ScanResult:
    """Analyze indices [start, stop) of cfg's index space: an exhaustive
    range at once, and samples in sub-batches, each drawn only when it is
    reached, so at most one exists at once.  An InvariantError names the call
    that reproduces the range or the sub-batch."""
    _check_int(start, 0, cfg.total, "range start {value!r} out of bounds {lo}..{hi}")
    _check_int(stop, start, cfg.total, "range stop {value!r} out of bounds {lo}..{hi}")
    consts = _build_consts(cfg)
    exhaustive = cfg.mode == "exhaustive"
    step = max(1, stop - start if exhaustive else _BATCH_CELLS // cfg.points)
    merged = None
    for off in range(start, stop, step):
        keys = range(off, min(off + step, stop))
        tables = keys if exhaustive else [_sample_table(cfg.seed, k, cfg.points) for k in keys]
        try:
            piece = _accumulate(cfg, consts, tables)
        except InvariantError as exc:
            primitive = "scan_table_range" if exhaustive else "scan_sample_range"
            raise InvariantError(f"{exc}; reproduce with "
                                 f"{primitive}({cfg!r}, {keys.start}, {keys.stop})") from exc
        merged = piece if merged is None else merge_results(merged, piece)
    return _finalize(cfg, 0, (), (), {}) if merged is None else merged


def scan_table_range(config: ScanConfig, start: int, stop: int) -> ScanResult:
    """Analyze truth-table integers in [start, stop); exhaustive-mode primitive."""
    if config.mode != "exhaustive":
        raise InputError("scan_table_range requires an exhaustive-mode config")
    return _analyze_chunk(config, start, stop)


def scan_sample_range(config: ScanConfig, start: int, stop: int) -> ScanResult:
    """Analyze sample indices in [start, stop); random-mode primitive."""
    if config.mode != "random":
        raise InputError("scan_sample_range requires a random-mode config")
    return _analyze_chunk(config, start, stop)


def merge_results(left: ScanResult, right: ScanResult) -> ScanResult:
    """Combine two partial results; associative, commutative, config-checked."""
    if left.config != right.config:
        raise InputError("cannot merge results from different scan configs")
    per_degree = {}
    for d in sorted(left.per_degree.keys() | right.per_degree.keys()):
        one, other = left.per_degree.get(d), right.per_degree.get(d)
        if one is None or other is None:
            # records are immutable, so a degree that one side holds is its record
            per_degree[d] = other if one is None else one
            continue
        order = one.max_linear_sum._cmp(other.max_linear_sum)
        top = one if order > 0 else other
        # at equal bests the reaches add, and the smaller witness (of equal width) wins
        per_degree[d] = DegreeExtremal(
            d, one.function_count + other.function_count, top.max_linear_sum,
            min(one.witness, other.witness) if order == 0 else top.witness,
            one.witness_count + other.witness_count if order == 0 else top.witness_count,
            top.bound, top.margin)
    return _finalize(
        left.config,
        left.functions_examined + right.functions_examined,
        left.violations + right.violations,
        left.equivalence_failures + right.equivalence_failures,
        per_degree,
        left.violations_omitted + right.violations_omitted,
        left.equivalence_failures_omitted + right.equivalence_failures_omitted,
    )


def run_scan(config: ScanConfig) -> ScanResult:
    """Full scan: in process, or a random one in chunk_size spans on a pool."""
    # a fork pool starts every worker at the first submit, so it gets no more
    # workers than there are spans, and a scan that would get one reads in process
    workers = min(config.worker_count, -(-config.total // config.chunk_size))
    if workers == 1 or config.mode == "exhaustive":
        return _analyze_chunk(config, 0, config.total)
    spans = ((config, s, min(s + config.chunk_size, config.total))
             for s in range(0, config.total, config.chunk_size))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        depth = _SPANS_IN_FLIGHT * workers
        return functools.reduce(merge_results, _bounded_map(pool, spans, depth))


def _bounded_map(pool: ProcessPoolExecutor, spans, depth: int):
    """Results of _analyze_chunk over spans, in span order, with at most depth
    spans submitted at a time (pool.map would submit every span up front)."""
    spans = iter(spans)
    pending = collections.deque(pool.submit(_analyze_chunk, *span)
                                for span in itertools.islice(spans, depth))
    try:
        while pending:
            result = pending.popleft().result()
            pending.extend(pool.submit(_analyze_chunk, *s) for s in itertools.islice(spans, 1))
            yield result
    finally:  # a failed span drops the spans queued behind it
        for future in pending:
            future.cancel()
