"""Exhaustive ranges read from per-key records of their halves.

The halves route reads a range of consecutive tables of arity n <= 5 (an
exhaustive scan, read whole).  Such a table is two halves of arity n - 1,
f = (lo, hi), table = hi * 2^(2^(n-1)) + lo, and its spectrum is
[A_lo + A_hi, A_lo - A_hi].  Under one hi, lo runs over consecutive
integers, so a range is rectangles of (hi, lo) pairs: a partial first high
half, runs of at most _KEY_BLOCK whole high halves, and a partial last one
(_rectangles).  2^n times the linear sum is then a_lo + b_hi
(_halves), a per-half term for each side.  The coefficients at
S + {n} and S are A_lo(S) - A_hi(S) and A_lo(S) + A_hi(S), so with H_j a
half's entries at the masks of weight j, f has degree <= j exactly when both
halves do and H_j(lo) = H_j(hi) (O'Donnell, Analysis of Boolean Functions,
2014, 3.3).  Row j is then the pairs whose halves both have degree j and the
same H_j, and those whose halves both have degree <= j - 1 and different
H_(j-1).  Under one hi, the best row of each is b_hi plus the best a among
the lo's whose keys qualify, so a range's per-degree rows come from per-key
records of the lo's (_range_extremes), with no per-table work: no block is
filled.

This module owns the halves route: the halves' statistics, keys and
records, and the proof a range trusts, which the level record scan._Level
binds as its halves, identities_hold, degrees, keys and key_stats, built on
first use and read-only:
- halves (_halves): each half's a = L + E and b = L - E, with L the sum of
  its singleton entries and E its entry at the empty set, int16.
- keys (_keys): a half's key at degree j = 0..k is the rank of its H_j,
  packed one byte an entry into one integer, among the H_j of the level's
  halves of degree <= j, and -1 where its degree is above j.  So two halves
  share a key exactly when their entries are equal, corrupt ones too.
- degrees (_degrees): a half's degree is the number of degrees at which it
  has no key, int8.
- key_stats (_key_stats): for each degree j, the records of _key_records at
  j for each block of _KEY_BLOCK consecutive halves, an int64 table of
  shape (4, blocks, 2, keys at j): for each key, the record of the block's
  halves with any other key, then that of its halves with that key.

A range is reduced from its halves alone, in the same integers, and its
tables are neither norm-checked nor compared with their derivative counts
one by one.  One proof per level (_identities_hold) stands for both: on a
proven level every table has N = 4^(n-1), the sum of its squared entries,
so every pair's squares sum to 2 (N_lo + N_hi) = 4^n, and every pair meets
the two identities of the derivatives module.  A range on a level without
the proof is read through the gather route, whose blocks are norm-checked.

Each function here is given the level record of the halves and reads it;
none builds a level, so this module imports nothing from scan.
"""

import numpy as np

from .core import _int_type, popcounts, singleton_masks
from .derivatives import _identity_breaks

# consecutive halves per block of a level's key statistics (_key_stats)
_KEY_BLOCK = 1 << 14

# A record of some rows is their count, the best value among them, how many
# reach it and the first of those, a table integer.  The record of no rows
# has a best and a first that lose to any row's, and stay in int64 when a
# half's value or table is added to them.  Records are int64, so their
# counts stay below 2^63.
_EMPTY = np.array([0, -1 << 62, 0, 1 << 62], dtype=np.int64)


def _max_plus(records: np.ndarray, axis: int) -> np.ndarray:
    """The records along axis (at least 1), as the record of all their rows:
    the counts add, and the best, the rows that reach it and the first of
    them come from the records with the largest best."""
    if records.shape[axis] == 1:
        return records.take(0, axis=axis)
    count, best, reach, first = records
    axis -= 1  # of each row of records
    top = best.max(axis=axis, keepdims=True)
    at = best == top
    return np.array([count.sum(axis=axis), top.squeeze(axis=axis), (reach * at).sum(axis=axis),
                     np.where(at, first, _EMPTY[3]).min(axis=axis)])


def _halves(level) -> np.ndarray:
    """Each half's statistics from its spectrum row A: rows a = L + E and
    b = L - E, with L the sum of A's singleton entries and E = A(empty set);
    int16, which holds any sum of k + 1 int8 entries at k <= 4, so they are
    exact on every level, proven or not; read-only."""
    rows = level.rows
    lin = rows[:, singleton_masks(rows.shape[1].bit_length() - 1)].sum(axis=1, dtype=np.int16)
    halves = np.stack([lin + rows[:, 0], lin - rows[:, 0]])
    halves.setflags(write=False)
    return halves


def _identities_hold(level) -> bool:
    """Whether every table f = (lo, hi) of arity k + 1 with halves at this
    level passes the norm check and meets both identities of the derivatives
    module, proven once per level, on first use, without reading a pair.
    With H read off the level, H[:, x] = (A_0 - A_(2^x)) / 2 for each point
    x, it checks in integers that
    (a) the level is linear: each difference is even, H 1 = A_0, and
        A_(t + 2^x) = A_t - 2 H[:, x] for every x and t < 2^x, so
        A_t = H v_t, with v_t the table's +-1 values;
    (b) H^T H = 2^k I, so with (a) every table has
        N = v_t^T H^T H v_t = 2^k |v_t|^2 = 4^k, the sum of its squared
        entries, and every f, whose spectrum is [A_lo + A_hi,
        A_lo - A_hi], has squares summing to 2 (N_lo + N_hi) = 4^(k+1):
        the range route relies on this in place of a norm check;
    (c) H's row at the empty set is all ones, so E = A_t(empty set) is
        the sum of v_t, 2^k - 2 popcount(t), and every table meets both
        identities at arity k (_identity_breaks, with 2^k lin =
        (a + b) / 2 from _halves and 4^k inf = W = sum |S| A(S)^2).
    Then each identity of f is its halves' plus two pair terms, and the
    pair terms are equal.  f's counts add popcount(hi & ~lo) and
    popcount(lo & ~hi) to its halves', and its spectrum is [A_lo + A_hi,
    A_lo - A_hi].  So 2 (plus - minus) adds 2 popcount(hi) - 2 popcount(lo),
    and 2^(k+1) lin adds E_lo - E_hi, the same by (c).
    2^(k+2) (plus + minus) adds 2^(k+2) popcount(lo ^ hi), and 4^(k+1) inf
    adds |A_lo - A_hi|^2 = 2^k |v_lo - v_hi|^2, the same by (a) and (b)."""
    rows = level.rows
    points = rows.shape[1]
    k = points.bit_length() - 1
    twice = rows[0] - rows[1 << np.arange(points)].astype(np.int16)  # 2 H^T
    h = twice >> 1
    a, b = level.halves
    # rows are int8, so W is at most k 2^k 4^7 on any level, and exact here
    wide = _int_type(k << (k + 14))
    weighted = np.einsum("s,ts,ts->t", popcounts(k, wide), rows, rows, dtype=wide)
    # int8 counts would wrap when shifted; int16 holds 2^(k+1) times the
    # sum of any two int8 counts at k <= 4, and wider counts stay wide
    plus, minus = (counts.astype(np.promote_types(counts.dtype, np.int16))
                   for counts in (level.plus, level.minus))
    if (np.any(twice & 1) or np.any(h.sum(axis=0) != rows[0])
            or np.any(np.einsum("xs,ys->xy", h, h, dtype=np.int64)
                      != np.eye(points, dtype=np.int64) << k)
            or np.any(h[:, 0] != 1)
            or _identity_breaks(plus, minus, k, (a + b) >> 1, weighted).size):
        return False
    # a few thousand rows at a time, so the int16 temporaries stay small
    step = 1 << 12
    return not any(np.any(rows[(1 << x) + t : (1 << x) + min(t + step, 1 << x)]
                          != rows[t : min(t + step, 1 << x)] - twice[x])
                   for x in range(points) for t in range(0, 1 << x, step))


def _keys(level) -> np.ndarray:
    """Each half's key at each degree j = 0..k (module docstring), a row per
    degree, in the narrowest type that holds the count of keys at any j.  One
    pass over the weights, from the top down: the halves held at j are those
    with no entry above weight j, and each pass drops those with an entry at
    its weight."""
    rows = level.rows
    weights = popcounts(rows.shape[1].bit_length() - 1, np.int8)
    held, ranks = np.arange(len(rows)), []
    for j in reversed(range(len(weights).bit_length())):
        masks = np.flatnonzero(weights == j)
        # whole bytes of a power of two, so the packed entries view as one integer
        packed = np.zeros((len(held), 1 << (len(masks) - 1).bit_length()), dtype=np.uint8)
        packed[:, : len(masks)] = rows[np.ix_(held, masks)].view(np.uint8)
        # each packed H_j's rank among the distinct ones, by a stable sort (a
        # radix sort on the one-byte keys) and a search: at k = 4 the five
        # rankings take ~2.0 ms, against ~2.7 ms by np.unique's inverse
        flat = packed.view(f"<u{packed.shape[1]}").ravel()
        ordered = np.sort(flat, kind="stable")
        values = ordered[np.append(True, ordered[1:] != ordered[:-1])]
        ranks.append((held, len(values), np.searchsorted(values, flat)))
        held = held[flat == 0]
    # the ranks are kept until their type is known: a key table wide enough
    # for any rank, narrowed at the end, raised this build's peak at k = 4
    # from 2.25 to 3.5 MiB when np.unique gave the ranks
    keys = np.full((len(ranks), len(rows)), -1, dtype=_int_type(max(c for _, c, _ in ranks)))
    for key, (halves, _, rank) in zip(keys[::-1], ranks):
        key[halves] = rank
    keys.setflags(write=False)
    return keys


def _degrees(level) -> np.ndarray:
    """Each half's degree, the largest |S| with A(S) != 0: the number of
    degrees at which it has no key (_keys); int8, read-only."""
    degrees = (level.keys < 0).sum(axis=0, dtype=np.int8)
    degrees.setflags(write=False)
    return degrees


def _rectangles(tables: range, per_hi: int):
    """Consecutive tables as rectangles of (hi, lo) pairs, where table =
    hi * per_hi + lo, in order: a partial first high half, runs of at most
    _KEY_BLOCK whole high halves, so that the per-hi records of
    _range_extremes stay a few MB, and a partial last high half.  Yields
    (his, los), two slices: the rectangle's hi and lo values."""
    first = tables.start
    while first < tables.stop:
        hi, lo = divmod(first, per_hi)
        left = tables.stop - first
        if lo or left < per_hi:
            his, los = slice(hi, hi + 1), slice(lo, min(per_hi, lo + left))
        else:
            his, los = slice(hi, hi + min(left // per_hi, _KEY_BLOCK)), slice(0, per_hi)
        yield his, los
        first += (his.stop - his.start) * (los.stop - los.start)


def _lo_records(level, los: slice, j: int) -> np.ndarray:
    """The records of _key_records at degree j for the arity-k tables in
    los: whole blocks from level.key_stats[j] and the partial blocks at the
    ends by _key_records on their slices, combined by _max_plus."""
    table = level.key_stats[j]
    keys = table.shape[3]
    # the level's last block may be short, and is whole where los reaches the end
    last = table.shape[1] if los.stop == len(level.rows) else los.stop // _KEY_BLOCK
    whole = slice(-(-los.start // _KEY_BLOCK), last)
    if whole.start >= whole.stop:
        return _key_records(level, j, los.start, los.stop, keys)
    parts = [table[:, whole]]
    if los.start < whole.start * _KEY_BLOCK:
        parts.append(_key_records(level, j, los.start, whole.start * _KEY_BLOCK, keys)[:, None])
    if whole.stop * _KEY_BLOCK < los.stop:
        parts.append(_key_records(level, j, whole.stop * _KEY_BLOCK, los.stop, keys)[:, None])
    return _max_plus(np.concatenate(parts, axis=1) if len(parts) > 1 else parts[0], axis=1)


def _key_records(level, j: int, start: int, stop: int, keys: int) -> np.ndarray:
    """For each key K of 0..keys - 1 at degree j (level.keys), the records
    of the arity-k tables start..stop - 1 of level whose key is another, and
    of those whose key is K, with their values a (level.halves) as the
    rows' values: int64, shape (4, 2, keys), and _EMPTY where no table
    qualifies.  A table of degree above j has no key, and is in neither."""
    key = level.keys[j, start:stop]
    held = np.flatnonzero(key >= 0)
    # ufunc.at takes its fast path with intp indices and values of the
    # records' type: with the level's int16 ones a block took 2 ms, not 50 us
    key = key[held].astype(np.intp)
    values = level.halves[0, start:stop][held].astype(np.int64)
    own = np.repeat(_EMPTY[:, None], keys, axis=1)
    own[0] = np.bincount(key, minlength=keys)
    np.maximum.at(own[1], key, values)
    # the tables that reach their key's largest a, ascending
    hits = np.flatnonzero(values == own[1, key])
    own[2] = np.bincount(key[hits], minlength=keys)
    np.minimum.at(own[3], key[hits], held[hits] + start)
    # the others of K are every row less K's: where K's best is the best, its
    # reach and its first drop out, and where K alone holds the best, the
    # others are the records of every other key
    count, best, reach, first = own
    others = np.repeat(_max_plus(own, axis=1)[:, None], keys, axis=1)
    at = best == others[1]
    others[0] -= count
    others[2] -= reach * at
    firsts = np.where(at, first, _EMPTY[3])
    # the two smallest firsts at the best; no two keys share a first table
    low, second = np.partition(np.append(firsts, _EMPTY[3]), 1)[:2]
    others[3] = np.where(firsts == low, second, low)
    if np.count_nonzero(at) == 1:
        rest = np.where(at, _EMPTY[:, None], own)
        others[1:, at] = _max_plus(rest, axis=1)[1:, None]
    return np.stack([others, own], axis=1)


def _key_stats(level) -> tuple[np.ndarray, ...]:
    """The key statistics of the level's halves (module docstring): for each
    degree j, the records of _key_records at j for each block of _KEY_BLOCK
    consecutive halves, stacked on axis 1; read-only."""
    size, stats = len(level.rows), []
    for j, key in enumerate(level.keys):
        # a level with no table of degree <= j still gets one, empty key
        keys = max(int(key.max()), 0) + 1
        stats.append(np.stack([_key_records(level, j, start, min(start + _KEY_BLOCK, size), keys)
                               for start in range(0, size, _KEY_BLOCK)], axis=1))
        stats[-1].setflags(write=False)
    return tuple(stats)


def _range_extremes(level, tables: range, degrees) -> dict[int, tuple[int, int, int, int]]:
    """The record of each degree of degrees that some table of a range of
    arity-n tables (n <= 5) has: the number of tables, the largest 2^n lin,
    the number of tables that reach it and the first of them, read from the
    key statistics of the halves, the tables of level, of arity n - 1.

    f = (lo, hi) has degree j where both halves have degree j and the same
    key at j, or both have degree <= j - 1 and different keys at j - 1
    (level.keys).  Under one hi, 2^n lin = a_lo + b_hi, so row j is b_hi
    plus the record of the lo's with the keys it takes: at each j from hi's
    degree up, the record of hi's own key gives row j, and the record of the
    others gives row j + 1."""
    b, keys, deg, per_hi = level.halves[1], level.keys, level.degrees, len(level.rows)
    found = {}
    for his, los in _rectangles(tables, per_hi):
        hi_deg = deg[his]
        # keys has a row per degree 0..n - 1 of the halves
        for j in range(min(hi_deg.tolist()), len(keys)):
            if j not in degrees and j + 1 not in degrees:
                continue
            # under each hi, the records of the lo's that make degree j + 1
            # (others) and degree j (own); a hi of degree above j has key -1
            # and takes neither, and one below j takes no own
            records = _lo_records(level, los, j).take(keys[j, his], axis=2)
            records[:, 0, hi_deg > j] = _EMPTY[:, None]
            records[:, 1, hi_deg != j] = _EMPTY[:, None]
            # under hi, a row's best gains b_hi, and its table hi * 2^(2^(n-1))
            records[1] += b[his]
            records[3] += np.arange(his.start * per_hi, his.stop * per_hi, per_hi)
            for d, record in zip((j + 1, j), _max_plus(records, axis=2).T.tolist()):
                if d in degrees and record[0]:
                    found[d] = (record if d not in found
                                else _max_plus(np.stack([found[d], record], axis=1), axis=1))
    return {d: tuple(int(x) for x in found[d]) for d in degrees if d in found}
