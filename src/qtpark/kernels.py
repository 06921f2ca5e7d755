"""The batch statistics kernel over blocks of preference functions.

The exhaustive checks sweep all n^n preference functions, which is the only
hot loop in the package.  The kernel is pure numpy, vectorized across the
rows of a block.

It works column-major, on (n, rows) int8 arrays, and needs no sort.  It
splits each function into a path part and a labeling part, as in
Loehr-Warrington, "Square q,t-lattice paths and nabla(p_n)" (Trans. AMS
2007): each car's grid row, and then its place in the diagword, is a count
of comparisons with the other cars.  One loop over the n(n-1)/2 pairs
a < b of cars finds the rows; a second finds the diagword places and the
dinv pair terms.  ``stats_block`` refuses any n above ``MAX_N``, where
those small integer types could wrap.

Each output row describes one preference function in seven int64 columns,
exactly the ones the count tables in ``aggregate`` fold:

    AREA, DINV   value columns of every table (the t and q exponents)
    IDES         value column of ``qsym_by_diagword`` and ``qsym_by_touch``,
                 the ides set as a bit mask (``decode_ides``)
    DWORD, DEV   key of ``qt_by_diagword`` and ``qsym_by_diagword``; the
                 diagword is a base-n code, big-endian, car labels minus one
                 as digits (``decode_perm``)
    TOUCH, PARK  key of ``qsym_by_touch``

The reading word, the composition and the three dinv parts are computed
per function by ``paths.stats`` alone.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Deque, Iterator, Tuple

import numpy as np


# Column layout of a statistics block.
AREA, DINV, DEV, TOUCH, IDES, DWORD, PARK = range(7)
NCOL = 7

CHUNK = 1 << 16

# Largest n the kernel accepts.  Indices and diagword codes run below
# n^n <= 2^63, so they fit an int64.  The kernel keeps every per-car
# value and pair count in int8 (|diag| < n, rows and diagword places <= n,
# dinv <= n(n-1)/2 + n <= 127) and sum(f) <= n^2 and ides < 2^(n-1) in
# int16; all of this holds for n <= 15.
MAX_N = 15


def resolve_backend() -> str:
    """The kernel's name, which the benchmark harness records among its
    machine facts.  There is one kernel."""
    return "numpy"


def stats_block(n: int, start: int, stop: int) -> np.ndarray:
    """Statistics rows for preference-function indices [start, stop).

    The index is the rank of f in lexicographic order, i.e. the base-n
    number with digits f(1)-1, ..., f(n)-1.
    """
    if not 1 <= n <= MAX_N:
        raise ValueError(f"n = {n} outside the kernel's range 1..{MAX_N}")
    total = n ** n
    if not 0 <= start <= stop <= total:
        raise ValueError(f"index range [{start}, {stop}) outside [0, {total}]")

    # Column-major: entry [c, r] is car c + 1 of the block's r-th function.
    # Every rank below is a count over the pairs a < b of cars, so the
    # block needs no sort and no (rows, n, n) cube.
    nrows = stop - start
    cars = np.arange(n, dtype=np.int8)
    F = np.empty((n, nrows), dtype=np.int8)
    rest = np.arange(start, stop, dtype=np.int64)
    for c in range(n - 1, -1, -1):
        quot = rest // n
        F[c] = rest - quot * n + 1
        rest = quot

    # row[c] = 1 + #{c' : f[c'] < f[c]} + #{c' < c : f[c'] = f[c]}
    row = np.repeat(cars[:, None] + 1, nrows, axis=1)
    for a in range(n):
        for b in range(a + 1, n):
            later_first = F[a] > F[b]
            row[a] += later_first
            row[b] -= later_first
    diag = row - F

    # pos[c] = #{c' : diag[c'] > diag[c]} + #{c' < c : diag[c'] = diag[c]}
    # is the place of car c + 1 in the diagword; dinv counts the primary
    # and secondary pairs here, the tertiary cars below.
    pos = np.repeat(cars[:, None], nrows, axis=1)
    dinv = np.zeros(nrows, dtype=np.int8)
    for a in range(n):
        for b in range(a + 1, n):
            rise = diag[b] - diag[a]
            higher = rise > 0
            pos[a] += higher
            pos[b] -= higher
            dinv += (((rise == 0) & (F[a] < F[b]))
                     | ((rise == 1) & (F[a] > F[b])))

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
        dword += np.take(powers, pos[c]) * c  # digit c at place pos[c]
        if c:
            up = (diag[c] > diag[c - 1]) | ((diag[c] == diag[c - 1])
                                             & (F[c] > F[c - 1]))
            ides |= up.astype(np.int16) << (c - 1)

    out = np.empty((nrows, NCOL), dtype=np.int64)
    # The rows 1..n sum to n(n+1)/2, so sum(diag) = n(n+1)/2 - sum(f).
    out[:, AREA] = n * (n + 1) // 2 - fsum - n * mind.astype(np.int64)
    out[:, DINV] = dinv
    out[:, DEV] = -mind
    out[:, TOUCH] = touch
    out[:, IDES] = ides
    out[:, DWORD] = dword
    out[:, PARK] = mind == 0
    return out


def iter_stat_chunks(n: int, threads: int = 1, chunk: int = CHUNK
                     ) -> Iterator[Tuple[int, np.ndarray]]:
    """Yield (start, block) pairs covering all n^n functions, in order.

    Chunk boundaries depend only on n and ``chunk``, never on ``threads``,
    so the stream of blocks (and anything folded over it in order) is
    identical for any worker count.  With several workers at most
    ``2 * threads`` blocks are submitted but not yet yielded, which bounds
    memory whatever n is.
    """
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


def decode_perm(code: int, n: int) -> Tuple[int, ...]:
    """Invert the base-n packing of a permutation of 1..n."""
    digits = []
    for _ in range(n):
        digits.append(code % n)
        code //= n
    return tuple(d + 1 for d in reversed(digits))


def decode_ides(mask: int, n: int) -> frozenset:
    return frozenset(i for i in range(1, n) if mask >> (i - 1) & 1)
