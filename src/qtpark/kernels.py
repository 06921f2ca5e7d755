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

A block of statistics is a numpy structured array with one 16-byte
record (``STAT``) per preference function.  Its fields are exactly the
ones the count tables in ``aggregate`` fold, each in the narrowest type
that holds it up to ``MAX_N``:

    AREA, DINV   value fields of every table (the t and q exponents);
                 int16 and int8
    IDES         value field of ``qsym_by_diagword`` and ``qsym_by_touch``,
                 the ides set as an int16 bit mask (``decode_ides``)
    DWORD, DEV   key of ``qt_by_diagword`` and ``qsym_by_diagword``; the
                 diagword is an int64 base-n code, big-endian, car labels
                 minus one as digits (``encode_perm``); DEV is int8
    TOUCH, PARK  key of ``qsym_by_touch``, int8 each

``stat_rows`` is the one batch definition of these statistics: the
tables read ``stats_block`` or ``diagword_blocks``, and ``paths``
(``qtpark enumerate``) adds only what no table folds: comp, tertiary
dinv, and the reading word and primary dinv, both read off the diagword.

The functions of one diagword tau are built, not swept
(``diagword_blocks``, which ``iter_stat_chunks`` with a tau and
``paths.diagword_block`` read).  Tau and a deviation l fix every car's
diagonal (``diagonals``), and ``grid_block`` fills the rows in order of
(f, car), so each function is one order of the cars into rows that keeps
f = row - diag in 1..n and (f, car) increasing.  Whether a car may
follow another does not depend on the row, so ``_row_orders`` first
counts each partial order's completions from its free cars and last car,
then grows the orders one row at a time over a numpy frontier that never
holds a dead end, and the finished F and diag go to ``stat_rows`` like a
swept block.  Only tau's functions are touched, n^n / n! of them on
average: at n = 8 one tau takes 5-10 ms, where masking the 8^8 swept
functions took about 0.4 s.  At n = 12, tau 8,2,4,6,7,9,11,12,5,10,3,1
(1,036,800 functions) builds in about 1.1 s at a 46 MB traced peak.

Costs that showed in the n = 8 sweep (16.7M rows):

- ``grid_block`` decodes row indices in int32 while n^n <= 2^31 (n <= 9):
  numpy's int64 floor division does not vectorize, and in int64 the
  decode cost more than the whole pair loop that follows.
- A block is 16 bytes a function, 2.1 MB at the default ``CHUNK``.
  ``iter_stat_chunks`` passes each swept block to ``each`` in the
  worker that computed it, so the up to ``2 * threads`` entries waiting
  to be yielded are ``each``'s results: for the count tables, a block's
  distinct keys and counts.  Handed to one consumer thread that keyed
  and sorted them, the blocks held the two n = 7 table builds of the
  benchmark's ``tables-n7`` at 58.1-58.3 MB; folded in the workers they
  peak at 52.3-53.4 MB.  As seven int64 columns (56 bytes a function)
  the full n = 8 table build at 2 threads peaked at 151-157 MB.
- Computing a block takes about three times the block: the traced peak
  of ``stats_block`` is 48 bytes a function at n = 7 and 51 at n = 8,
  6.7 MB at the default ``CHUNK``.  ``stat_rows`` builds the diagword
  first and frees the n int8 place counts before it allocates the
  records.  Allocated after a single loop that also built the diagword,
  the records sat beside the place counts, the int64 diagword and
  ``np.take``'s int64 temporaries: 61 and 64 bytes a function.
  Indexing ``(powers * c)[pos[c]]`` in place of ``np.take`` saves 3
  bytes more but is slower.
- ``CHUNK`` is 2^17 rows.  Worker threads take the GIL on every numpy
  call, so smaller blocks spend more of the sweep in contention.  With 2
  threads on 2 vCPUs ``check thm-schedule-closed-form --n 8`` took
  2.4-2.7 s at 2^16 rows, 2.2-2.7 s at 2^17 and 2.3-2.5 s at 2^18,
  peaking at 88-99, 90-95 and 94-98 MB; ``check main-square-paths --n
  8..8`` took 1.5-1.7, 1.2-1.3 and 1.3-1.4 s at 56-58, 63-64 and
  76-77 MB.  Smaller blocks are slower, larger ones peak higher.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from typing import (Callable, Deque, Iterator, List, Optional, Sequence,
                    Tuple, TypeVar)

import numpy as np


# The 16-byte record of one function (see the module docstring); the
# names below are its field names.
STAT = np.dtype([("dword", np.int64), ("area", np.int16), ("ides", np.int16),
                 ("dinv", np.int8), ("dev", np.int8), ("touch", np.int8),
                 ("park", np.int8)])
DWORD, AREA, IDES, DINV, DEV, TOUCH, PARK = STAT.names
T = TypeVar("T")

CHUNK = 1 << 17

# Largest n the kernel accepts.  Indices and diagword codes run below
# n^n <= 2^63, so they fit an int64 (indices are decoded in int32 while
# n^n <= 2^31, that is n <= 9).  The kernel keeps every per-car value and
# pair count in int8 (|diag| < n, rows and diagword places <= n,
# dinv <= n(n-1)/2 + n <= 127) and sum(f) <= n^2 and ides < 2^(n-1) in
# int16, the types of their ``STAT`` fields; all of this holds for n <= 15.
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
    # Not np.unravel_index (int64): 9.2 ms a block at n = 8, this loop 1.4 ms.
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
    row -= F
    return F, row


def require_perm(tau: Sequence[int], n: int) -> Tuple[int, ...]:
    """tau as a tuple; ValueError unless it is a permutation of 1..n >= 1."""
    t = tuple(int(v) for v in tau)
    if not t or sorted(t) != list(range(1, n + 1)):
        raise ValueError(f"{t} is not a permutation of 1..{n}")
    return t


def stats_block(n: int, start: int, stop: int) -> np.ndarray:
    """The ``STAT`` records of preference-function indices [start, stop),
    ranked as in ``grid_block``: one record per index, in order."""
    return stat_rows(*grid_block(n, start, stop))


def stat_rows(F: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """The ``STAT`` records of the functions whose preferences and
    diagonals ``grid_block`` returned, one per column of F.  Each field
    is computed in its own type and written into the records once, as
    soon as it is final.  The diagword comes first, so the place counts
    are freed before the records are allocated."""
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

    powers = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
    # Not np.ravel_multi_index: pos is indexed by car, not by place.
    dword = np.zeros(nrows, dtype=np.int64)
    for c in range(1, n):  # digit c at place pos[c]; car 1's digit is 0
        dword += np.take(powers * c, pos[c])
    del pos
    out = np.empty(nrows, dtype=STAT)
    out[DWORD] = dword
    del dword

    mind = diag.min(axis=0)
    out[DEV] = -mind
    out[PARK] = mind == 0
    fsum = np.zeros(nrows, dtype=np.int16)
    touch = np.zeros(nrows, dtype=np.int8)
    ides = np.zeros(nrows, dtype=np.int16)
    for c in range(n):
        fsum += F[c]
        touch += diag[c] == mind
        dinv += diag[c] < 0
        if c:
            up = (diag[c] > diag[c - 1]) | ((diag[c] == diag[c - 1])
                                             & (F[c] > F[c - 1]))
            ides |= up.astype(np.int16) << (c - 1)
    # The rows 1..n sum to n(n+1)/2, so sum(diag) = n(n+1)/2 - sum(f).
    out[AREA] = n * (n + 1) // 2 - fsum - n * mind.astype(np.int16)
    out[DINV] = dinv
    out[TOUCH] = touch
    out[IDES] = ides
    return out


# The most functions ``_row_orders`` builds for one deviation.  Its
# frontier never holds more partial orders than that; over n = 12 taus the
# budget-sized ones have 0.5M-1M functions.
MAX_FUNCTIONS = 1 << 22


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
    car in row r has f = r - diag(car), and car b may take the row after
    car a exactly when diag(b) <= diag(a), or diag(b) = diag(a) + 1 and
    b > a, whatever the row.  f never decreases, so it lies in 1..n when
    the first car's diagonal is at most 0 and the last car's at least 0:
    the first car follows a start car n on diagonal 0.  So
    ``ways[free, last]`` counts the completions of a partial order from
    its free cars and last car alone, filled by the number of free cars.
    The orders are then built one row at a time over a frontier that
    takes a car only where a completion follows, so it holds no dead end.
    Raises ValueError when there are more than ``MAX_FUNCTIONS``.
    """
    n = len(diag)
    cars = np.arange(n)
    bits = 1 << cars
    d = np.append(diag, 0)  # the start car n
    follows = (diag <= d[:, None]) | ((diag == d[:, None] + 1)
                                      & (cars > np.arange(n + 1)[:, None]))
    masks = np.arange(1 << n)
    free_cars = sum(masks >> c & 1 for c in range(n))
    ways = np.zeros((1 << n, n + 1), dtype=np.int64)  # <= n! < 2^63 at MAX_N
    ways[0] = d >= 0
    for k in range(1, n + 1):
        m = masks[free_cars == k]
        has = m[:, None] & bits != 0
        ways[m] = (has * ways[m[:, None] ^ bits, cars]) @ follows.T
    total = int(ways[-1, n])
    if total > MAX_FUNCTIONS:
        raise ValueError(f"the functions on diagonals {diag.tolist()} "
                         f"number {total}, over {MAX_FUNCTIONS}")
    F = np.zeros((n, 1), dtype=np.int8)
    free = np.full(1, (1 << n) - 1)
    last = np.full(1, n)
    for r in range(1, n + 1):
        grow = [np.flatnonzero((free & bits[c] != 0) & follows[last, c]
                               & (ways[free ^ bits[c], c] > 0))
                for c in range(n)]
        last = np.repeat(cars, list(map(len, grow)))
        pick = np.concatenate(grow)
        F = F[:, pick]
        F[last, np.arange(pick.size)] = r - diag[last]
        free = free[pick] ^ bits[last]
    return F


def diagword_blocks(n: int, tau: Sequence[int]
                    ) -> Iterator[Tuple[int, np.ndarray, np.ndarray,
                                        np.ndarray]]:
    """(l, F, diag, ``STAT`` records) for each deviation l that some
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
        if (rows[DWORD] != code).any():
            raise RuntimeError(f"n = {n}: a function built for diagword "
                               f"{tau} has another diagword")
        yield l, F, diag, rows


def iter_stat_chunks(n: int, threads: int = 1, chunk: int = CHUNK,
                     tau: Optional[Sequence[int]] = None,
                     each: Optional[Callable[[np.ndarray], T]] = None
                     ) -> Iterator[Tuple[int, T]]:
    """Yield (start, block) pairs covering all n^n functions, in order;
    with ``tau``, yield (l, block) for each deviation l that some
    function of diagword tau has, the block holding exactly those
    functions (``diagword_blocks``), and sweep nothing.

    With ``each``, yield ``each(block)`` in place of every block.  A
    swept block is passed to ``each`` in the worker thread that computed
    it, so only its result waits to be yielded; the blocks of one tau,
    in the calling thread.

    Chunk boundaries depend only on n and ``chunk``, never on ``threads``,
    so the stream (and anything folded over it in order) is identical for
    any worker count.  With several workers at most ``2 * threads``
    chunks are submitted but not yet yielded, which bounds memory
    whatever n is.
    """
    if tau is not None:
        for l, _, _, rows in diagword_blocks(n, tau):
            yield l, rows if each is None else each(rows)
        return
    total = n ** n

    def block(s: int):
        # stats_block is looked up at each call, so a wrapper set on the
        # module sees every block.
        rows = stats_block(n, s, min(s + chunk, total))
        return rows if each is None else each(rows)

    starts = range(0, total, chunk)
    if threads <= 1 or len(starts) <= 1:
        for s in starts:
            yield s, block(s)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending: Deque[Tuple[int, Future]] = deque()
        for s in starts:
            if len(pending) == 2 * threads:
                head, fut = pending.popleft()
                yield head, fut.result()
            pending.append((s, pool.submit(block, s)))
        while pending:
            head, fut = pending.popleft()
            yield head, fut.result()


def sum_by_key(parts: List[Tuple[np.ndarray, np.ndarray]]
               ) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct keys over (keys, counts) pairs, in increasing order,
    and the sum of each key's counts.  A stable sort merges sorted parts.
    ``parts`` is emptied before the sort, so no part is alive during it."""
    keys = np.concatenate([k for k, _ in parts])
    counts = np.concatenate([c for _, c in parts])
    parts.clear()
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    counts = counts[order]
    del order
    starts = run_starts(keys)
    return keys[starts], np.add.reduceat(counts, starts)


def run_starts(keys: np.ndarray) -> np.ndarray:
    """Indices where a run of equal keys begins."""
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return np.flatnonzero(first)


def encode_perm(perm: Sequence[int], n: int) -> int:
    """The base-n code of a permutation of 1..n, as in the DWORD column."""
    # Not np.ravel_multi_index: 6-13 us a scalar call at n = 8, this loop 0.9.
    code = 0
    for v in perm:
        code = code * n + v - 1
    return code


def decode_ides(mask: int, n: int) -> frozenset:
    return frozenset(i for i in range(1, n) if mask >> (i - 1) & 1)
