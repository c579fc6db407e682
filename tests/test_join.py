"""The record rule of boolfun.join, against a plain-Python fold, and the
ranks of its keys, against np.unique.

A record of some rows is [count, best, reach, first]: how many rows, the
best value among them, how many reach it and the first of those.  The
records are int64, so their counts stay below 2^63; the n = 6 prefix
counts, up to 2^64, do not fit in them.
"""

import random

import numpy as np

from boolfun.core import _int_type, popcounts
from boolfun.join import _EMPTY, _keys, _max_plus
from boolfun.scan import _level


def folded(records: list[list[int]]) -> list[int]:
    """The record of all the rows of records: the counts add, the best is
    the largest best, the reach is the sum over the records at that best,
    and the first is the smallest first among them."""
    best = max(record[1] for record in records)
    top = [record for record in records if record[1] == best]
    return [sum(record[0] for record in records), best,
            sum(record[2] for record in top), min(record[3] for record in top)]


def random_record(rng: random.Random) -> list[int]:
    """A record whose best is one of three values, so that ties are common,
    or now and then the record of no rows."""
    if rng.random() < 0.1:
        return _EMPTY.tolist()
    count = rng.randrange(1, 1 << 40)
    return [count, (1 << 40) + rng.randrange(3), rng.randrange(1, count + 1),
            rng.randrange(1 << 62)]


def test_max_plus_folds_records_by_the_record_rule():
    rng = random.Random(26)
    for _ in range(200):
        m = rng.randrange(1, 9)
        records = [[random_record(rng) for _ in range(m)] for _ in range(3)]
        # along axis 1 of (4, m, 3) and axis 2 of (4, 3, m)
        stacked = np.array(records, dtype=np.int64).transpose(2, 1, 0)
        want = [folded(column) for column in records]
        for array, axis in ((stacked, 1), (stacked.transpose(0, 2, 1), 2)):
            assert _max_plus(array, axis).T.tolist() == want, (array, axis)
            # the record of no rows changes nothing, and neither does order
            empty = np.broadcast_to(_EMPTY.reshape(4, 1, 1), (4, 1, 3) if axis == 1 else (4, 3, 1))
            assert (_max_plus(np.concatenate([array, empty], axis=axis), axis)
                    == _max_plus(array, axis)).all()
            shuffled = np.take(array, rng.sample(range(m), m), axis=axis)
            assert (_max_plus(shuffled, axis) == _max_plus(array, axis)).all()
        # an axis of length 1 gives back its one record
        one = stacked[:, :1]
        assert _max_plus(one, 1).T.tolist() == [column[0] for column in records]


def test_keys_are_the_ranks_np_unique_gives():
    # a half of degree <= j has, as its key at j, the rank of its H_j (its
    # entries at the masks of weight j, one byte each, zero-padded to a whole
    # integer of 1, 2, 4 or 8 bytes, little-endian) among the level's halves
    # of degree <= j; the others have -1
    for k in range(1, 5):
        rows = _level(k).rows
        weights = popcounts(k, np.int8)
        keys = _keys(_level(k))
        counts = []
        for j in range(k + 1):
            held = np.flatnonzero(~rows[:, weights > j].any(axis=1))
            masks = np.flatnonzero(weights == j)
            packed = np.zeros((len(held), 1 << (len(masks) - 1).bit_length()), dtype=np.uint8)
            packed[:, : len(masks)] = rows[np.ix_(held, masks)].view(np.uint8)
            values, rank = np.unique(packed.view(f"<u{packed.shape[1]}").ravel(),
                                     return_inverse=True)
            want = np.full(len(rows), -1)
            want[held] = rank
            assert keys[j].tolist() == want.tolist(), (k, j)
            counts.append(len(values))
        assert keys.dtype == _int_type(max(counts)) and not keys.flags.writeable, k
