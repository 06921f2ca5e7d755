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
tables read ``stats_block`` or ``diagword_blocks``, and ``paths``
(``qtpark enumerate``) reads its columns and adds only what no table
folds, the reading word, the composition and the three dinv parts.

The functions of one diagword tau are built, not swept
(``diagword_blocks``, which ``iter_stat_chunks`` with a tau and
``paths.diagword_block`` read).  Tau and a deviation l fix every car's
diagonal (``diagonals``), and ``grid_block`` fills the rows in order of
(f, car), so each function is one order of the cars into rows that keeps
f = row - diag in 1..n and (f, car) increasing.  ``_row_orders`` grows
those orders one row at a time over a numpy frontier, and the finished F
and diag go to ``stat_rows`` like a swept block.  Only tau's functions
are touched, n^n / n! of them on average: at n = 8 one tau takes 5-10 ms,
where masking the 8^8 swept functions took about 0.4 s.

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


def stats_block(n: int, start: int, stop: int) -> np.ndarray:
    """Statistics rows for preference-function indices [start, stop),
    ranked as in ``grid_block``."""
    return stat_rows(*grid_block(n, start, stop))


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


# The most partial row orders ``_row_orders`` holds at once.  The frontier
# is largest just before a row's dead ends are dropped; over n = 12 taus
# with 0.5M-1M functions it reached 2.8M.
MAX_FRONTIER = 1 << 22


def diagonals(tau: Sequence[int], l: int) -> np.ndarray:
    """The diagonal of each car, entry c - 1 for car c, in every function
    with diagword tau and deviation l.

    The diagword lists the cars by decreasing diagonal, increasing within
    one, and the occupied diagonals are consecutive, from -l up.  So its
    maximal increasing runs are those diagonals, highest first: car c in
    run i, counting runs from the left and from 0, lies on diagonal
    (number of runs - 1 - i) - l.
    """
    run = np.cumsum([0] + [a > b for a, b in zip(tau, tau[1:])])
    diag = np.empty(len(tau), dtype=np.int8)
    diag[np.subtract(tau, 1)] = run[-1] - run - l
    return diag


def _row_orders(diag: np.ndarray) -> np.ndarray:
    """F of every function whose cars lie on the diagonals ``diag``, one
    column each, as ``grid_block`` returns F.

    ``grid_block`` fills the rows in increasing order of (f, car), so the
    car in row r has f = r - diag(car).  The row orders are built one row
    at a time over a frontier of partial orders, each held as its free
    cars and the (f, car) of its last car; car c extends one when its f
    lies in 1..n and (f, c) is larger.  After each row a partial order is
    dropped when its free cars cannot all get rows: for each diagonal k,
    those at or above k need rows from L + k on, L the last f (f never
    decreases), and for k < 0 those at or below k need rows up to n + k.
    Raises ValueError when the frontier would pass ``MAX_FRONTIER``.
    """
    n = len(diag)
    d = diag.astype(np.int32)
    bits = np.int32(1) << np.arange(n, dtype=np.int32)
    ones = np.zeros(1 << n, dtype=np.int8)  # set bits of each mask
    for b in range(n):
        ones[1 << b:2 << b] = ones[:1 << b] + 1
    levels = [(k, int(bits[d >= k].sum()), int(bits[d <= k].sum()))
              for k in np.unique(d).tolist()]
    F = np.zeros((n, 1), dtype=np.int8)
    free = np.full(1, (1 << n) - 1, dtype=np.int32)
    last = np.full(1, -1, dtype=np.int32)  # f * n + car of the last car
    none = np.zeros(0, dtype=np.int64)
    for r in range(1, n + 1):
        grow = [np.flatnonzero((free & bits[c] != 0)
                               & (last < (r - d[c]) * n + c))
                if 1 <= r - d[c] <= n else none for c in range(n)]
        size = sum(map(len, grow))
        if size > MAX_FRONTIER:
            raise ValueError(f"row {r} of the functions on diagonals "
                             f"{d.tolist()} has {size} partial orders, "
                             f"over {MAX_FRONTIER}")
        car = np.repeat(np.arange(n), list(map(len, grow)))
        pick = np.concatenate(grow)
        f = r - d[car]
        F = F[:, pick]
        F[car, np.arange(size)] = f
        free = free[pick] ^ bits[car]
        last = f * n + car
        fits = np.ones(size, dtype=bool)
        for k, at_or_above, at_or_below in levels:
            fits &= ones[free & at_or_above] <= np.maximum(
                0, n + 1 - np.maximum(r + 1, f + k))
            if k < 0:
                fits &= ones[free & at_or_below] <= max(0, n + k - r)
        keep = np.flatnonzero(fits)
        F, free, last = F[:, keep], free[keep], last[keep]
    return F


def diagword_blocks(n: int, tau: Sequence[int]
                    ) -> Iterator[Tuple[int, np.ndarray, np.ndarray,
                                        np.ndarray]]:
    """(l, F, diag, statistics rows) for each deviation l that some
    function of diagword tau has: those functions' F and diag as
    ``grid_block`` gives them, and their ``stat_rows``.

    Raises RuntimeError if a row's diagword is not tau.
    """
    if not 1 <= n <= MAX_N:
        raise ValueError(f"n = {n} outside the kernel's range 1..{MAX_N}")
    tau = require_perm(tau, n)
    code = encode_perm(tau, n)
    for l in range(1 + sum(a > b for a, b in zip(tau, tau[1:]))):
        diag = diagonals(tau, l)
        F = _row_orders(diag)
        if not F.shape[1]:
            continue
        diag = np.broadcast_to(diag[:, None], F.shape)
        rows = stat_rows(F, diag)
        if (rows[:, DWORD] != code).any():
            raise RuntimeError(f"n = {n}: a function built for diagword "
                               f"{tau} has another diagword")
        yield l, F, diag, rows


def iter_stat_chunks(n: int, threads: int = 1, chunk: int = CHUNK,
                     tau: Optional[Sequence[int]] = None
                     ) -> Iterator[Tuple[int, np.ndarray]]:
    """Yield (start, block) pairs covering all n^n functions, in order;
    with ``tau``, yield (l, block) for each deviation l that some
    function of diagword tau has, the block holding exactly those
    functions (``diagword_blocks``), and sweep nothing.

    Chunk boundaries depend only on n and ``chunk``, never on ``threads``,
    so the stream of blocks (and anything folded over it in order) is
    identical for any worker count.  With several workers at most
    ``2 * threads`` blocks are submitted but not yet yielded (7.3 MB each
    at the default ``CHUNK``), which bounds memory whatever n is.  The
    blocks of one tau are built in the calling thread.
    """
    if tau is not None:
        for l, _, _, rows in diagword_blocks(n, tau):
            yield l, rows
        return
    total = n ** n
    starts = range(0, total, chunk)
    if threads <= 1 or len(starts) <= 1:
        for s in starts:
            yield s, stats_block(n, s, min(s + chunk, total))
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending: Deque[Tuple[int, Future]] = deque()
        for s in starts:
            if len(pending) == 2 * threads:
                head, fut = pending.popleft()
                yield head, fut.result()
            pending.append((s, pool.submit(stats_block, n, s,
                                           min(s + chunk, total))))
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
