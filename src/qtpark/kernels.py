"""The batch statistics kernel over blocks of preference functions.

The exhaustive checks sweep all n^n preference functions, which is the only
hot loop in the package.  The kernel is pure numpy, vectorized across the
rows of a block.

It works column-major, on (n, rows) int8 arrays, and needs no sort.  It
splits each function into a path part and a labeling part, as in
Loehr-Warrington, "Square q,t-lattice paths and nabla(p_n)" (Trans. AMS
2007): each car's grid row, and then its place in the diagword, is a count
of comparisons with the other cars.  One loop over the n(n-1)/2 pairs
a < b of cars finds the rows (``grid_block``); a second finds the
diagword places and the dinv pair terms (``stat_rows``).  ``grid_block``
refuses any n above ``MAX_N``, where those small integer types could wrap.

Each output row describes one preference function in seven int64 columns,
exactly the ones the count tables in ``aggregate`` fold:

    AREA, DINV   value columns of every table (the t and q exponents)
    IDES         value column of ``qsym_by_diagword`` and ``qsym_by_touch``,
                 the ides set as a bit mask (``decode_ides``)
    DWORD, DEV   key of ``qt_by_diagword`` and ``qsym_by_diagword``; the
                 diagword is a base-n code, big-endian, car labels minus one
                 as digits (``encode_perm``)
    TOUCH, PARK  key of ``qsym_by_touch``

``stat_rows`` is the one batch definition of these statistics: the
tables read ``stats_block``, and ``paths.stat_block`` (``qtpark
enumerate``) reads its columns and adds only what no table folds, the
reading word, the composition and the three dinv parts.

``stats_block`` and ``iter_stat_chunks`` (and ``paths.stat_block``, for
``qtpark enumerate --diagword``) take an optional diagword tau.  Every
function of the block still goes through ``grid_block``; then
``diagword_mask`` keeps the columns whose diagword is tau, and only those
reach ``stat_rows``.  The diagword orders the cars by (-diag, car), a
strict total order, so the mask is n - 1 comparisons, one per adjacent
pair of tau.  On average 1/n! of the rows survive it, so a one-diagword
sweep costs about the decode and pair loop of ``grid_block`` alone.  Per
n = 8 block of 2^17 rows on 2 vCPUs: ``grid_block`` about 3 ms, the mask
0.1 ms, and the work it skips for almost every row about 11 ms
(``stat_rows`` 9 ms, the fold's ``np.unique`` 2 ms), plus the merges.

Costs that showed in the n = 8 sweep (16.7M rows):

- ``grid_block`` decodes row indices in int32 while n^n <= 2^31 (n <= 9):
  numpy's int64 floor division does not vectorize, and in int64 the
  decode cost more than the whole pair loop that follows.
- The block is column-major (Fortran order), so every ``blk[:, c]`` the
  fold and ``paths.stat_block`` read is contiguous.  Its shape, length
  and values do not depend on the order.
- ``CHUNK`` is 2^17 rows.  Worker threads take the GIL on every numpy
  call, so smaller blocks spend more of the sweep in contention.  With 2
  threads on 2 vCPUs the n = 8 table built in about 2.3 s at 2^16 rows,
  2.1 s at 2^17 and 1.9 s at 2^18, peaking at 128, 149 and 190 MB: past
  2^17 each second saved costs about 200 MB.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Deque, Iterator, Optional, Sequence, Tuple

import numpy as np


# Column layout of a statistics block.
AREA, DINV, DEV, TOUCH, IDES, DWORD, PARK = range(7)
NCOL = 7

CHUNK = 1 << 17

# Largest n the kernel accepts.  Indices and diagword codes run below
# n^n <= 2^63, so they fit an int64 (indices are decoded in int32 while
# n^n <= 2^31, that is n <= 9).  The kernel keeps every per-car value and
# pair count in int8 (|diag| < n, rows and diagword places <= n,
# dinv <= n(n-1)/2 + n <= 127) and sum(f) <= n^2 and ides < 2^(n-1) in
# int16; all of this holds for n <= 15.
MAX_N = 15


def resolve_backend() -> str:
    """The kernel's name, which the benchmark harness records among its
    machine facts.  There is one kernel."""
    return "numpy"


def grid_block(n: int, start: int, stop: int) -> Tuple[np.ndarray, np.ndarray]:
    """Preferences and diagonals of the functions with indices [start, stop).

    The index is the rank of f in lexicographic order, i.e. the base-n
    number with digits f(1)-1, ..., f(n)-1.  Both arrays are (n, rows)
    int8, column-major: entry [c, r] is car c + 1 of the block's r-th
    function.  Every rank below is a count over the pairs a < b of cars,
    so the block needs no sort and no (rows, n, n) cube.
    """
    if not 1 <= n <= MAX_N:
        raise ValueError(f"n = {n} outside the kernel's range 1..{MAX_N}")
    total = n ** n
    if not 0 <= start <= stop <= total:
        raise ValueError(f"index range [{start}, {stop}) outside [0, {total}]")

    nrows = stop - start
    F = np.empty((n, nrows), dtype=np.int8)
    rest = np.arange(start, stop,
                     dtype=np.int32 if total <= 2 ** 31 else np.int64)
    for c in range(n - 1, -1, -1):
        quot = rest // n
        F[c] = rest - quot * n + 1
        rest = quot

    # row[c] = 1 + #{c' : f[c'] < f[c]} + #{c' < c : f[c'] = f[c]}
    row = np.repeat(np.arange(1, n + 1, dtype=np.int8)[:, None], nrows,
                    axis=1)
    for a in range(n):
        for b in range(a + 1, n):
            later_first = F[a] > F[b]
            row[a] += later_first
            row[b] -= later_first
    return F, row - F


def require_perm(tau: Sequence[int], n: int) -> Tuple[int, ...]:
    """tau as a tuple; ValueError unless it is a permutation of 1..n."""
    t = tuple(int(v) for v in tau)
    if sorted(t) != list(range(1, n + 1)):
        raise ValueError(f"{t} is not a permutation of 1..{n}")
    return t


def diagword_mask(diag: np.ndarray, tau: Sequence[int]) -> np.ndarray:
    """Which columns of ``diag`` (as ``grid_block`` returns it) have
    diagword tau: car a comes before car b when diag[a-1] > diag[b-1], or
    when they are equal and a < b."""
    keep = np.ones(diag.shape[1], dtype=bool)
    for a, b in zip(tau, tau[1:]):
        if a < b:
            keep &= diag[a - 1] >= diag[b - 1]
        else:
            keep &= diag[a - 1] > diag[b - 1]
    return keep


def stats_block(n: int, start: int, stop: int,
                tau: Optional[Sequence[int]] = None) -> np.ndarray:
    """Statistics rows for preference-function indices [start, stop),
    ranked as in ``grid_block``; with ``tau``, only the rows whose
    diagword is tau, in index order."""
    if tau is not None:
        tau = require_perm(tau, n)
    F, diag = grid_block(n, start, stop)
    if tau is not None:
        keep = diagword_mask(diag, tau)
        F, diag = F[:, keep], diag[:, keep]
    return stat_rows(F, diag)


def stat_rows(F: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """Statistics rows of the functions whose preferences and diagonals
    ``grid_block`` returned, one row per column of F."""
    n, nrows = F.shape
    cars = np.arange(n, dtype=np.int8)

    # pos[c] = #{c' : diag[c'] > diag[c]} + #{c' < c : diag[c'] = diag[c]}
    # is the place of car c + 1 in the diagword; dinv counts the primary
    # and secondary pairs here, the tertiary cars below.  A pair a < b is
    # primary when rise = 0 and f(a) < f(b), secondary when rise = 1 and
    # f(a) > f(b), so one comparison rise == (f(a) > f(b)) counts both once
    # rise = 0 with f(a) = f(b) is ruled out: two cars with equal
    # preference get rows in car order, so rise = row(b) - row(a) >= 1.
    pos = np.repeat(cars[:, None], nrows, axis=1)
    dinv = np.zeros(nrows, dtype=np.int8)
    for a in range(n):
        for b in range(a + 1, n):
            rise = diag[b] - diag[a]
            higher = rise > 0
            pos[a] += higher
            pos[b] -= higher
            dinv += rise == (F[a] > F[b])

    mind = diag.min(axis=0)
    powers = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
    fsum = np.zeros(nrows, dtype=np.int16)
    touch = np.zeros(nrows, dtype=np.int8)
    ides = np.zeros(nrows, dtype=np.int16)
    dword = np.zeros(nrows, dtype=np.int64)
    for c in range(n):
        fsum += F[c]
        touch += diag[c] == mind
        dinv += diag[c] < 0
        if c:  # digit c at place pos[c]; car 1's digit is 0
            dword += np.take(powers * c, pos[c])
            up = (diag[c] > diag[c - 1]) | ((diag[c] == diag[c - 1])
                                             & (F[c] > F[c - 1]))
            ides |= up.astype(np.int16) << (c - 1)

    out = np.empty((nrows, NCOL), dtype=np.int64, order="F")
    # The rows 1..n sum to n(n+1)/2, so sum(diag) = n(n+1)/2 - sum(f).
    out[:, AREA] = n * (n + 1) // 2 - fsum - n * mind.astype(np.int64)
    out[:, DINV] = dinv
    out[:, DEV] = -mind
    out[:, TOUCH] = touch
    out[:, IDES] = ides
    out[:, DWORD] = dword
    out[:, PARK] = mind == 0
    return out


def iter_stat_chunks(n: int, threads: int = 1, chunk: int = CHUNK,
                     tau: Optional[Sequence[int]] = None
                     ) -> Iterator[Tuple[int, np.ndarray]]:
    """Yield (start, block) pairs covering all n^n functions, in order;
    with ``tau``, each block holds only the rows whose diagword is tau, and
    may be empty.

    Chunk boundaries depend only on n and ``chunk``, never on ``threads``,
    so the stream of blocks (and anything folded over it in order) is
    identical for any worker count.  With several workers at most
    ``2 * threads`` blocks are submitted but not yet yielded (7.3 MB each
    at the default ``CHUNK``), which bounds memory whatever n is.
    """
    total = n ** n
    starts = range(0, total, chunk)
    if threads <= 1 or len(starts) <= 1:
        for s in starts:
            yield s, stats_block(n, s, min(s + chunk, total), tau)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending: Deque[Tuple[int, Future]] = deque()
        for s in starts:
            if len(pending) == 2 * threads:
                head, fut = pending.popleft()
                yield head, fut.result()
            pending.append((s, pool.submit(stats_block, n, s,
                                           min(s + chunk, total), tau)))
        while pending:
            head, fut = pending.popleft()
            yield head, fut.result()


def encode_perm(perm: Sequence[int], n: int) -> int:
    """The base-n code of a permutation of 1..n, as in the DWORD column."""
    code = 0
    for v in perm:
        code = code * n + v - 1
    return code


def decode_ides(mask: int, n: int) -> frozenset:
    return frozenset(i for i in range(1, n) if mask >> (i - 1) & 1)
