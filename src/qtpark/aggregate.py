"""Exact count tables over the full set of preference functions.

The identity checks repeatedly need sums of t^area q^dinv (optionally
refined by the ides set) over structured families: all preference
functions with a fixed diagword and deviation, or all parking functions
with a fixed touch.  One kernel sweep of the n^n functions builds one such
table; the counts are integers, so the tables are exact and the generating
polynomials built from them are too.

Every table comes from the same fold.  A view names some kernel columns;
each row of a block becomes one int64 key, the mixed-radix number whose
digits are those columns in order.  Each radix is an exclusive bound that
follows from n:

    column     radix       why
    DWORD      n^n         base-n code of a permutation of 1..n
    DEV        n           deviation < n
    TOUCH      n + 1       1 <= touch <= n
    PARK       2           0 or 1
    AREA       n^2 + 1     area <= n^2
    DINV       n^2 + 1     dinv <= n^2
    IDES       2^(n-1)     a subset of 1..n-1 as a bit mask

Keys are counted per block with ``np.unique``.  Once ``_MERGE_BATCH``
such (key, count) entries are pending, they are merged into the running
totals in numpy: a stable sort of the sorted runs, then ``np.add.reduceat``
over each run of equal keys, in integers only.  The merge owns the list of
runs it is handed, the running totals first: it empties the list once the
runs are concatenated, so they are freed before the sort, and drops each
intermediate array as soon as it has been used.  The keys are then split
back into columns with the same radices.  The fold raises ``ValueError``
before any block is computed when the product of the radices does not fit
in an int64 (``qsym_by_diagword`` of every diagword for n >= 11), and
while folding when a block value falls outside its radix.

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
from .qt import QTPoly

# Exclusive upper bound of each kernel column, as a function of n.
_RADIX: Dict[int, Callable[[int], int]] = {
    kernels.DWORD: lambda n: n ** n,
    kernels.DEV: lambda n: n,
    kernels.TOUCH: lambda n: n + 1,
    kernels.PARK: lambda n: 2,
    kernels.AREA: lambda n: n * n + 1,
    kernels.DINV: lambda n: n * n + 1,
    kernels.IDES: lambda n: 2 ** (n - 1),
}
_KEY_LIMIT = 2 ** 63  # keys run from 0 to the radix product minus one
# Pending per-block (key, count) entries merged into the running totals at
# once: about 16 MB of arrays.
_MERGE_BATCH = 1 << 20


def _merge(parts: List[Tuple[np.ndarray, np.ndarray]]
           ) -> Tuple[np.ndarray, np.ndarray]:
    """Sum the counts of equal keys over (keys, counts) pairs.

    Each part holds distinct keys in increasing order, so the stable sort
    merges runs.  Returns the distinct keys in increasing order and their
    counts.  The merge owns ``parts``: it empties the list once the parts
    are concatenated, so their arrays are freed before the sort.
    """
    keys = np.concatenate([k for k, _ in parts])
    counts = np.concatenate([c for _, c in parts])
    parts.clear()
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    counts = counts[order]
    del order
    starts = _run_starts(keys)
    return keys[starts], np.add.reduceat(counts, starts)


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Indices where a run of equal keys begins."""
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return np.flatnonzero(first)


def _fold(n: int, threads: int, columns: Tuple[int, ...],
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
    empty = np.zeros(0, dtype=np.int64)
    # The running totals, then the blocks' counts since the last merge.
    pending: List[Tuple[np.ndarray, np.ndarray]] = [(empty, empty)]
    npending = 0
    for _, blk in kernels.iter_stat_chunks(n, threads=threads, tau=tau):
        key = 0
        for c, r in zip(columns, radices):
            col = blk[:, c]
            lo, hi = int(col.min()), int(col.max())
            if lo < 0 or hi >= r:
                raise ValueError(f"n = {n}: column {c} holds {lo}..{hi}, "
                                 f"outside 0..{r - 1}")
            key = key * r + col
        pending.append(np.unique(key, return_counts=True))
        npending += pending[-1][0].size
        if npending >= _MERGE_BATCH:
            pending, npending = [_merge(pending)], 0
    rest, counts = _merge(pending)
    digits = []
    for r in reversed(radices):
        rest, d = np.divmod(rest, r)
        digits.append(d)
    return digits[::-1], counts


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


def _table(n: int, threads: int, key_cols: Tuple[int, ...],
           value_cols: Tuple[int, ...],
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
    codes = 0
    for col, radix in zip(cols, radices):
        codes = codes * radix + col
    # Rows come sorted by key columns first, so each key is one run.
    starts = _run_starts(codes)
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


def qt_poly_from_counts(counts: Dict[Tuple[int, int], int]) -> QTPoly:
    """Sum of count * t^area q^dinv as an exact polynomial."""
    return QTPoly({(dinv, area): c for (area, dinv), c in counts.items()})
