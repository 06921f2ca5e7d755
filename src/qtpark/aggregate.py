"""Exact count tables over the full set of preference functions.

The identity checks repeatedly need sums of t^area q^dinv (optionally
refined by the ides set) over structured families: all preference
functions with a fixed diagword and deviation, or all parking functions
with a fixed touch.  One kernel sweep of the n^n functions builds one such
table.  A table holds integers only, keys, values and counts, so it is
exact; its readers build whatever sums they need from those integers.

Every table comes from the same fold.  A view names some fields of the
kernel's records (``kernels.STAT``, as narrow as int8); each record of a
block becomes one int64 key, the mixed-radix number whose digits are those
fields in order, widened before the first digit.  Each radix is an
exclusive bound that follows from n:

    field      radix       why
    DWORD      n^n         base-n code of a permutation of 1..n
    DEV        n           deviation < n
    TOUCH      n + 1       1 <= touch <= n
    PARK       2           0 or 1
    AREA       n^2 + 1     area <= n^2
    DINV       n^2 + 1     dinv <= n^2
    IDES       2^(n-1)     a subset of 1..n-1 as a bit mask

Keys are counted per block with ``np.unique``, in the thread that
computed the block (``kernels.iter_stat_chunks`` with ``each``; a worker
thread when the sweep has several): only the block's distinct keys and
their counts reach the calling thread, which merges them.  The key space
is cut evenly into n ranges, at size * i // n for the product size of
the radices; for a diagword table the cuts fall between the first cars
of the diagword.  Each range has its own running totals and pending
runs, and the calling thread appends a copy of each block's slice of a
range to that range's runs: a view would keep the whole block alive
until its range is merged.  Once ``_MERGE_BATCH`` (key, count) entries
are pending over all ranges, each range is merged into its own totals in
numpy, one range at a time (``kernels.sum_by_key``): a stable sort of
the sorted runs, then ``np.add.reduceat`` over each run of equal keys,
in integers only.  So one merge holds about 1/n of the totals and of the
pending runs.  The merge owns the list of runs it is handed, the running
totals first: it empties the list once the runs are concatenated, so
they are freed before the sort, and drops each intermediate array as
soon as it has been used.  After the last block every range is merged
once more, and the ranges' totals are concatenated in order.  The keys
are then split back into columns with ``np.unravel_index`` over the same
radices.  The fold raises ``ValueError`` before any block is computed
when the product of the radices does not fit in an int64
(``qsym_by_diagword`` of every diagword for n >= 11), and while folding
when a block value falls outside its radix; a worker's error is raised
again in the calling thread.

The fold's sorted arrays are the table (``Table``): a key is the kernel's
own integers, (diagword code, deviation) or (touch, is parking), its rows
are one contiguous run, and a lookup is one binary search over the keys'
codes.  A diagword code alone selects all its deviations as one run.

A diagword table may be restricted to one diagword tau.  The kernel then
sweeps nothing: it builds tau's functions from their row orders, one
block per deviation (``kernels.diagword_blocks``, which refuses a row of
another diagword).  Those rows share tau's DWORD, so the fold keys on the
other columns and the table puts the constant DWORD column back.  The
table holds the rows of tau's key alone, the same rows and counts as the
full table's slice, and its keys stay far below 2^63 at every n the
kernel accepts.

Each call folds a new table: a caller that reads one many times builds it
once and passes it on.  Worker count never changes a table: chunks are
deterministic and integer counts commute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import kernels

# Exclusive upper bound of each kernel field, as a function of n.
_RADIX: Dict[str, Callable[[int], int]] = {
    kernels.DWORD: lambda n: n ** n,
    kernels.DEV: lambda n: n,
    kernels.TOUCH: lambda n: n + 1,
    kernels.PARK: lambda n: 2,
    kernels.AREA: lambda n: n * n + 1,
    kernels.DINV: lambda n: n * n + 1,
    kernels.IDES: lambda n: 2 ** (n - 1),
}
_KEY_LIMIT = 2 ** 63  # keys run from 0 to the radix product minus one
# Pending per-block (key, count) entries, over all key ranges, at which
# each range is merged into its running totals: about 8 MB of arrays.  A
# range's merge holds about four int64 arrays of its totals plus its share
# of the batch.  At n = 8 and 2 threads the closed-form, square-paths and
# withides checks peaked at 89-99, 62-65 and 170-186 MB with 2^19; 2^18
# took them to 92-102, 56-60 and 170-182 MB and each ran slower, 2^20 to
# 90-96, 77-78 and 173-182 MB.
_MERGE_BATCH = 1 << 19


# One key range's merge; a wrapper set on this module sees every call.
_merge = kernels.sum_by_key


def _fold(n: int, threads: int, columns: Tuple[str, ...],
          tau: Optional[Tuple[int, ...]] = None
          ) -> Tuple[List[np.ndarray], np.ndarray]:
    """Count the distinct rows of ``columns`` over all n^n functions, or
    over those whose diagword is ``tau``.

    Returns one array of values per column and the array of counts,
    aligned, in increasing key order: the rows sorted by the first column,
    then the second, and so on.
    """
    radices = [_RADIX[c](n) for c in columns]
    size = math.prod(radices)
    if size > _KEY_LIMIT:
        raise ValueError(f"n = {n}: keys over columns {columns} reach "
                         f"{size - 1} > 2^63 - 1")

    def count_keys(blk: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The distinct keys of one block and their counts."""
        # Not np.ravel_multi_index: it holds the GIL, and with it the n = 8
        # touch build at 2 threads was slower in 18 of 28 alternating runs.
        # The key is int64 from the start: built in an int8 field's own
        # type, key * r would wrap without an error.
        key = np.zeros(len(blk), dtype=np.int64)
        for c, r in zip(columns, radices):
            # A field of the 16-byte records is strided; min, max and the
            # add below run about twice as fast on a contiguous copy.
            col = np.ascontiguousarray(blk[c])
            lo, hi = int(col.min()), int(col.max())
            if lo < 0 or hi >= r:
                raise ValueError(f"n = {n}: column {c} holds {lo}..{hi}, "
                                 f"outside 0..{r - 1}")
            key *= r
            key += col
        return np.unique(key, return_counts=True)

    # n key ranges (see the module docstring), each a list of the range's
    # running totals, then its runs since the last merge.
    edges = [size * i // n for i in range(1, n)]
    empty = np.zeros(0, dtype=np.int64)
    ranges: List[List[Tuple[np.ndarray, np.ndarray]]] = [
        [(empty, empty)] for _ in range(n)]
    npending = 0
    for _, (keys, counts) in kernels.iter_stat_chunks(
            n, threads=threads, tau=tau, each=count_keys):
        bounds = [0, *keys.searchsorted(edges).tolist(), keys.size]
        for pending, lo, hi in zip(ranges, bounds, bounds[1:]):
            if lo < hi:  # copies: a view would keep the whole block alive
                pending.append((keys[lo:hi].copy(), counts[lo:hi].copy()))
        npending += keys.size
        del keys, counts
        if npending >= _MERGE_BATCH:
            ranges, npending = [[_merge(pending)] for pending in ranges], 0
    totals = [_merge(pending) for pending in ranges]
    keys = np.concatenate([k for k, _ in totals])
    counts = np.concatenate([c for _, c in totals])
    del totals
    return list(np.unravel_index(keys, radices)), counts


@dataclass(frozen=True, eq=False)
class Table:
    """One count table: the fold's rows, sorted, one run of rows per key.

    ``columns`` holds the key columns, then the value columns, one array
    each, aligned with ``counts``.  Key i is the rows
    ``starts[i]:starts[i + 1]``; its mixed-radix code ``codes[i]`` over the
    key ``radices`` increases with i.  The arrays are read-only: every
    reader of the table shares them.
    """

    columns: Tuple[np.ndarray, ...]
    counts: np.ndarray
    starts: np.ndarray  # one more entry than keys: the row count last
    codes: np.ndarray
    radices: Tuple[int, ...]

    def span(self, *key):
        """First and past-last row of the keys whose leading columns are
        ``key``, elementwise over arrays; equal when there is none."""
        # Not np.ravel_multi_index: a digit outside its radix finds no rows.
        code, ok = 0, True
        for digit, radix in zip(key, self.radices):
            code = code * radix + digit
            ok = ok & (0 <= digit) & (digit < radix)
        rest = math.prod(self.radices[len(key):])
        lo, hi = self.starts[self.codes.searchsorted([code * rest,
                                                      (code + 1) * rest])]
        return lo, lo + (hi - lo) * ok

    def rows(self, *key: int) -> slice:
        """The rows of the keys whose leading columns are ``key``."""
        lo, hi = self.span(*key)
        return slice(int(lo), int(hi))

    def counts_at(self, *key: int) -> Dict[Tuple[int, ...], int]:
        """{value columns: count} summed over ``rows(*key)``."""
        where = self.rows(*key)
        values = zip(*(col[where].tolist()
                       for col in self.columns[len(self.radices):]))
        out: Dict[Tuple[int, ...], int] = {}
        for value, c in zip(values, self.counts[where].tolist()):
            out[value] = out.get(value, 0) + c
        return out

    def values(self) -> List[np.ndarray]:
        """Each key's counts, in key order."""
        return np.split(self.counts, self.starts[1:-1])


def _table(n: int, threads: int, key_cols: Tuple[str, ...],
           value_cols: Tuple[str, ...],
           tau: Optional[Sequence[int]] = None) -> Table:
    """The table over ``key_cols + value_cols``, of the functions whose
    diagword is ``tau`` (None: all)."""
    if tau is None:
        cols, counts = _fold(n, threads, key_cols + value_cols)
    else:  # key_cols[0] is DWORD, the same in every row of tau
        tau = kernels.require_perm(tau, n)
        cols, counts = _fold(n, threads, key_cols[1:] + value_cols, tau)
        cols.insert(0, np.full(counts.size, kernels.encode_perm(tau, n),
                               dtype=np.int64))
    radices = tuple(_RADIX[c](n) for c in key_cols)
    codes = np.ravel_multi_index(cols[:len(radices)], radices)
    # Rows come sorted by key columns first, so each key is one run.
    starts = kernels.run_starts(codes)
    codes = codes[starts]
    table = Table(tuple(cols), counts, np.append(starts, counts.size),
                  codes, radices)
    for array in (*cols, counts, table.starts, codes):
        array.flags.writeable = False
    return table


def qt_by_diagword(n: int, threads: int = 1,
                   tau: Optional[Sequence[int]] = None) -> Table:
    """Keys (diagword code, deviation), values (area, dinv); with ``tau``,
    only tau's keys."""
    return _table(n, threads, (kernels.DWORD, kernels.DEV),
                  (kernels.AREA, kernels.DINV), tau)


def qsym_by_diagword(n: int, threads: int = 1,
                     tau: Optional[Sequence[int]] = None) -> Table:
    """Keys (diagword code, deviation), values (area, dinv, ides mask);
    with ``tau``, only tau's keys."""
    return _table(n, threads, (kernels.DWORD, kernels.DEV),
                  (kernels.AREA, kernels.DINV, kernels.IDES), tau)


def qsym_by_touch(n: int, threads: int = 1) -> Table:
    """Keys (touch, is parking), values (area, dinv, ides mask)."""
    return _table(n, threads, (kernels.TOUCH, kernels.PARK),
                  (kernels.AREA, kernels.DINV, kernels.IDES))

