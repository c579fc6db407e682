"""Bulk verification over ranges of truth tables.

Exhaustive mode walks every table integer of a small arity; random mode
draws tables from a seeded stream.  Either way the work is expressed as
range primitives over a contiguous index interval, so a scan can be split
into chunks, run on several processes, and merged.  merge_results is
associative and commutative, and witness selection always prefers the
numerically smallest table, so the final report is byte-for-byte identical
(wall_time aside) no matter how the range was partitioned.

The per-batch analysis is integer-only: spectra come from the row-wise
transform on an int64 matrix, and the bound and the four equivalence
inequalities are the integer formulas of the conjecture module, applied
elementwise (see there for their int64 headroom).  Derivative value counts
for the equivalence check come from table bits directly, not from the
spectrum, so the check exercises two genuinely different computation routes.

Witness lists are capped at _WITNESS_CAP entries, the smallest tables first;
the number cut off is carried along, so the reported totals stay exact.
"""

from __future__ import annotations

import functools
import hashlib
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
    _unpack_bits,
    to_hex,
)
from .derivatives import _derivatives, _total_influences
from .dyadic import DyadicRational
from .majority import maj_bound

_EXHAUSTIVE_DEFAULT_MAX_N = 4
_EXHAUSTIVE_HUGE_MAX_N = 5
_RANDOM_MAX_N = 16
_WITNESS_CAP = 1000
# sub-batch rows are capped so bits + spectrum matrices stay ~16 MB
_BATCH_CELLS = 1 << 21


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
            if self.seed is not None and not 0 <= self.seed < 1 << 64:
                raise InputError("seed must fit in 64 bits")
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


def _bits_matrix(tables: Sequence[int], points: int) -> np.ndarray:
    """The sub-batch's table bits, one row per table."""
    return _unpack_bits(tables, points)


def _batch_butterfly(bits: np.ndarray) -> np.ndarray:
    """2^n-scaled spectra of the sub-batch, one row per table, norm-checked."""
    coeffs = _butterfly(1 - 2 * bits.astype(np.int64))
    if np.any((coeffs * coeffs).sum(axis=1) != coeffs.shape[1] ** 2):
        raise InvariantError("spectrum norm check failed during scan")
    return coeffs


def _sample_table(seed: int, index: int, points: int) -> int:
    """Deterministic table for sample #index; independent of partitioning."""
    material = seed.to_bytes(8, "big") + index.to_bytes(8, "big")
    digest = hashlib.shake_256(material).digest((points + 7) // 8)
    return int.from_bytes(digest, "little") & ((1 << points) - 1)


def _accumulate(cfg: ScanConfig, consts: dict[int, _Scale],
                tables: Sequence[int]) -> ScanResult:
    """Every table of one sub-batch at once, as rows of a matrix."""
    n = cfg.n
    bits = _bits_matrix(tables, cfg.points)
    coeffs = _batch_butterfly(bits)
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
        inf = _total_influences(coeffs, n)
        plus = np.zeros(len(tables), dtype=np.int64)
        minus = np.zeros(len(tables), dtype=np.int64)
        # point-major, so the counts below add whole contiguous rows of tables
        columns = np.ascontiguousarray(bits.T, dtype=np.int8)
        for i in range(1, n + 1):
            diff = _derivatives(columns, i)
            plus += (diff == 1).sum(axis=(0, 1))
            minus += (diff == -1).sum(axis=(0, 1))
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
    for d in sorted(set(left.per_degree) | set(right.per_degree)):
        a, b = left.per_degree.get(d), right.per_degree.get(d)
        if a is None or b is None:
            per_degree[d] = a if b is None else b
            continue
        count = a.function_count + b.function_count
        if a.max_linear_sum != b.max_linear_sum:
            keep = a if a.max_linear_sum > b.max_linear_sum else b
            witness, hits = keep.witness, keep.witness_count
            best = keep.max_linear_sum
        else:
            best = a.max_linear_sum
            witness = min(a.witness, b.witness)
            hits = a.witness_count + b.witness_count
        per_degree[d] = DegreeExtremal(
            degree=d,
            function_count=count,
            max_linear_sum=best,
            witness=witness,
            witness_count=hits,
            bound=a.bound,
            margin=a.bound - best,
        )
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
    spans = [
        (cfg, s, min(s + cfg.chunk_size, total))
        for s in range(0, total, cfg.chunk_size)
    ]
    if cfg.worker_count == 1:
        merged = functools.reduce(merge_results, map(_range_worker, spans))
    else:
        with ProcessPoolExecutor(max_workers=cfg.worker_count) as pool:
            merged = functools.reduce(merge_results, pool.map(_range_worker, spans))
    return replace(merged, wall_time=time.perf_counter() - begin)
