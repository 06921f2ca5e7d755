"""Preference functions, their placements, and the q,t statistics.

A preference function on n cars is any map f from cars 1..n to parking
spots 1..n; parking functions are the special case where every prefix
condition |{i : f(i) <= k}| >= k holds.  Each preference function is drawn
in an n x n grid as follows (``place``): process columns left to right,
writing the cars that prefer column c into column c, smallest on the
bottom, each car in the lowest still-empty row.  Rows are therefore filled
in order 1..n, and the cars of one column occupy consecutive rows with
labels increasing upward.

The diagonal of a car in column c and row r is r - c (``place``).
Parking functions are exactly the preference functions in which no car
falls below the main diagonal.  Statistics computed by ``stats``:

* deviation: how far below the main diagonal the drawing reaches,
  ``-min(diagonal)``.
* area: sum over cars of diagonal + deviation.
* dinv, split into three parts:
  primary, pairs of cars on a common diagonal with the smaller car further
  left; secondary, pairs of cars on adjacent diagonals where the smaller
  car is exactly one diagonal lower and strictly further right; tertiary,
  the number of cars strictly below the main diagonal.
* word: cars read along diagonals from the highest diagonal down, right to
  left within each diagonal.
* ides: the descent positions of the inverse of word, i.e. all i such that
  i + 1 is read before i.
* diagword: cars grouped by diagonal, highest diagonal first, increasing
  within each diagonal.  Its maximal increasing runs recover the diagonal
  layout: one run per occupied diagonal.
* touch: the number of cars on the lowest occupied diagonal.
* comp: for parking functions only, the composition of n recording the
  gaps between the points where the path returns to the main diagonal.

``stats`` returns the record of one function, the dict that
``json_line`` prints as one line of JSON.  ``qtpark enumerate`` instead
streams ``json_blocks``, one ``StatBlock`` at a time: ``BLOCK``
consecutive functions (``stat_block``), or the functions of one diagword,
built from their row orders (``kernels.diagword_blocks``) and sorted by
index, so the lines come in the order of the full enumeration
(``diagword_block``).  A block keeps the ``kernels.stat_rows`` records,
under the kernel's names, and numpy columns for f, word, the primary and
tertiary dinv parts and comp.  Word and primary are read off the kernel's
diagword: word sorts the places of each diagonal by decreasing column,
and primary counts the pairs that sort reverses.  ``json_block`` formats
the rows a mask selects with one % template, looking up the text of f,
word, diagword, ides and comp by integer code.  The first function of
every non-empty block is also run through ``json_line``, and any
difference raises RuntimeError.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import (Callable, Iterator, List, NamedTuple, Optional, Sequence,
                    Tuple)

import numpy as np

from . import kernels

DEFAULT_MAX_N = 8


@dataclass(frozen=True)
class PrefFunc:
    """A preference function, stored as the tuple (f(1), ..., f(n))."""

    f: Tuple[int, ...]

    def __post_init__(self):
        f = tuple(map(operator.index, self.f))
        object.__setattr__(self, "f", f)
        n = len(f)
        if n == 0:
            raise ValueError("preference function needs at least one car")
        for v in f:
            if not 1 <= v <= n:
                raise ValueError(f"preference {v} outside 1..{n}")

    @property
    def n(self) -> int:
        return len(self.f)


def place(p: PrefFunc) -> Tuple[int, ...]:
    """The diagonal row - column of each car (entry i is car i+1) when p
    is drawn in the grid, rows 1..n assigned in (column, label) order."""
    order = sorted(range(p.n), key=lambda c: (p.f[c], c))
    diag = [0] * p.n
    for r, c in enumerate(order, start=1):
        diag[c] = r - p.f[c]
    return tuple(diag)


def stats(p: PrefFunc) -> dict:
    """Every statistic of p, computed from its placement, as the record
    ``json_line`` prints (fixed key order)."""
    n = p.n
    col, diag = p.f, place(p)

    dev = -min(diag)
    area = sum(diag) + n * dev

    primary = secondary = 0
    for a in range(n):
        for b in range(a + 1, n):
            if diag[a] == diag[b] and col[a] < col[b]:
                primary += 1
            if diag[a] == diag[b] - 1 and col[a] > col[b]:
                secondary += 1
    tertiary = sum(1 for d in diag if d < 0)

    cars = list(range(1, n + 1))
    word = sorted(cars, key=lambda c: (-diag[c - 1], -col[c - 1]))
    pos = {c: i for i, c in enumerate(word)}
    ides = [i for i in range(1, n) if pos[i + 1] < pos[i]]
    diagword = sorted(cars, key=lambda c: (-diag[c - 1], c))

    touch = sum(1 for d in diag if d == -dev)

    comp: Optional[List[int]] = None
    if dev == 0:
        main_cols = sorted(col[c] for c in range(n) if diag[c] == 0)
        comp = [b - a for a, b in zip(main_cols, main_cols[1:])]
        comp.append(n + 1 - main_cols[-1])
        if sum(comp) != n or len(comp) != touch:
            raise RuntimeError(f"comp {comp} is not a composition of {n} "
                               f"into touch={touch} parts for f={p.f}")

    # The maximal increasing runs of diagword list the occupied diagonals
    # from the top one down; check that the grouping by diagonal agrees.
    run_lengths, diag_sizes = _runs_and_sizes(diagword, diag)
    if run_lengths != diag_sizes:
        raise _runs_error(p.f, run_lengths, diag_sizes)

    return {
        "n": n,
        "f": list(col),
        "area": area,
        "dinv": primary + secondary + tertiary,
        "dinv_parts": [primary, secondary, tertiary],
        "word": word,
        "ides": ides,
        "diagword": diagword,
        "deviation": dev,
        "touch": touch,
        "comp": comp,
        "parking": dev == 0,
    }


def _runs_and_sizes(diagword: Sequence[int], diag: Sequence[int]
                    ) -> Tuple[List[int], List[int]]:
    """The lengths of the maximal increasing runs of diagword, and the
    number of cars on each occupied diagonal from the top one down."""
    runs = [1]
    for a, b in zip(diagword, diagword[1:]):
        if b > a:
            runs[-1] += 1
        else:
            runs.append(1)
    sizes = [sum(1 for d in diag if d == dd)
             for dd in sorted(set(diag), reverse=True)]
    return runs, sizes


def _runs_error(f: Tuple[int, ...], run_lengths: List[int],
                diag_sizes: List[int]) -> RuntimeError:
    return RuntimeError(f"diagword runs {run_lengths} disagree with "
                        f"diagonal sizes {diag_sizes} for f={f}")


def enumerate_all(n: int) -> Iterator[PrefFunc]:
    """All n^n preference functions in lexicographic order of f.

    Refuses n > DEFAULT_MAX_N; n = 9 would create 387M objects.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if n > DEFAULT_MAX_N:
        raise ValueError(
            f"n={n} exceeds the enumeration bound {DEFAULT_MAX_N}")
    for f in product(range(1, n + 1), repeat=n):
        yield PrefFunc(f)


def json_line(p: PrefFunc) -> str:
    return json.dumps(stats(p), separators=(",", ":"))


# Rows per block of ``json_blocks``.  At n = 6 a block's columns and text
# raise peak RSS over import by about 2.4 MB at this size, 14 MB at 16,384
# rows, and 28 MB for all 46,656 rows in one block.
BLOCK = 2048


class StatBlock(NamedTuple):
    """The statistics of the functions with indices [start, stop), ranked
    as in ``kernels.grid_block``, or of those of one diagword: entry r of
    each column belongs to index index[r].  area, dinv, ides, diagword,
    deviation and touch are only in ``records``, under their ``kernels``
    names AREA, DINV, IDES, DWORD, DEV and TOUCH; secondary is DINV -
    primary - tertiary, and word and primary are read off DWORD."""

    f: np.ndarray          # (n, rows) int8; f[c] holds f(c + 1)
    index: np.ndarray
    records: np.ndarray    # the kernels.stat_rows records (kernels.STAT)
    primary: np.ndarray
    tertiary: np.ndarray
    word: np.ndarray       # base-n code of word, as kernels.DWORD codes
    main: np.ndarray       # bit c - 1 set for each main-diagonal column c
                           # of a parking function; 0 when deviation > 0


def stat_block(n: int, start: int, stop: int) -> StatBlock:
    """Every statistic of ``stats`` for indices [start, stop) at once."""
    F, diag = kernels.grid_block(n, start, stop)
    return _stat_block(F, diag, np.arange(start, stop, dtype=np.int64),
                       kernels.stat_rows(F, diag))


def diagword_block(n: int, tau: Sequence[int]) -> StatBlock:
    """Every statistic of ``stats`` for the functions of diagword tau, in
    index order, from ``kernels.diagword_blocks``."""
    _, F, diag, records = zip(*kernels.diagword_blocks(n, tau))
    F, diag, records = np.hstack(F), np.hstack(diag), np.concatenate(records)
    index = np.ravel_multi_index(F - 1, (n,) * n)
    order = np.argsort(index)
    return _stat_block(F[:, order], diag[:, order], index[order],
                       records[order])


def _stat_block(F: np.ndarray, diag: np.ndarray, index: np.ndarray,
                records: np.ndarray) -> StatBlock:
    """The ``StatBlock`` of the functions with preferences F, diagonals
    diag and ``kernels.stat_rows`` records, entry r at index index[r]."""
    n, nrows = F.shape

    # The maximal increasing runs of diagword must be its diagonals: a
    # descent exactly where the diagonal changes.  by_place[i] + 1 is the
    # car at place i, digit i of the kernel's diagword code, and np.take
    # at at_place reads a per-car (n, rows) array in diagword order.
    by_place = np.array(np.unravel_index(records[kernels.DWORD],
                                         (n,) * n))
    at_place = by_place * nrows + np.arange(nrows)
    diag_by_place = np.take(diag, at_place)
    bad = np.flatnonzero(((by_place[1:] < by_place[:-1])
                          != (diag_by_place[1:] != diag_by_place[:-1])
                          ).any(axis=0))
    if len(bad):
        r = bad[0]
        raise _runs_error(tuple(F[:, r].tolist()), *_runs_and_sizes(
            (by_place[:, r] + 1).tolist(), diag[:, r].tolist()))

    # word sorts the cars by decreasing (diagonal, column), a key no two
    # cars share; diagword lists each diagonal's cars increasing, so the
    # sort reverses exactly the places of the primary pairs.
    key = -(n + 1) * diag.astype(np.int16) - F
    word = np.ravel_multi_index(np.argsort(key, axis=0), (n,) * n)
    place_key = np.take(key, at_place)
    primary = ((place_key[:, None] > place_key)
               & np.triu(np.ones((n, n), dtype=bool), 1)[:, :, None]
               ).sum(axis=(0, 1), dtype=np.int8)
    tertiary = (diag < 0).sum(axis=0, dtype=np.int8)
    main = np.bitwise_or.reduce((diag == 0).astype(np.int32) << (F - 1),
                                axis=0)
    main[records[kernels.DEV] > 0] = 0

    return StatBlock(
        f=F,
        index=index,
        records=records,
        primary=primary,
        tertiary=tertiary,
        word=word,
        main=main,
    )


class _Text(NamedTuple):
    """Per-n lookup tables from codes to the JSON text of ``json_line``."""

    template: str
    low_size: int          # a base-n code is high * low_size + low
    f_high: np.ndarray     # "d1,...,dk" by high: the first n - n // 2 values
    f_low: np.ndarray      # ",d1,...,dj" by low: the last n // 2 values
    ides: np.ndarray       # by mask
    comp: np.ndarray       # by main-diagonal column mask; "null" at 0


def _digit_text(n: int, width: int) -> List[str]:
    """",d1,...,dw" for every width-digit base-n value, in order."""
    return ["".join("," + str(d) for d in digits)
            for digits in product(range(1, n + 1), repeat=width)]


def _comp_text(n: int, mask: int) -> str:
    if not mask:
        return "null"
    cols = [c for c in range(1, n + 1) if mask >> (c - 1) & 1]
    parts = [b - a for a, b in zip(cols, cols[1:])] + [n + 1 - cols[-1]]
    return "[" + ",".join(map(str, parts)) + "]"


@lru_cache(maxsize=None)  # n <= DEFAULT_MAX_N: 4,096 f_high entries at most
def _text(n: int) -> _Text:
    low = n // 2
    return _Text(
        template=('{"n":%d,"f":[%%s%%s],"area":%%d,"dinv":%%d,'
                  '"dinv_parts":[%%d,%%d,%%d],"word":[%%s%%s],"ides":[%%s],'
                  '"diagword":[%%s%%s],"deviation":%%d,"touch":%%d,'
                  '"comp":%%s,"parking":%%s}\n' % n),
        low_size=n ** low,
        f_high=np.array([t[1:] for t in _digit_text(n, n - low)],
                        dtype=object),
        f_low=np.array(_digit_text(n, low), dtype=object),
        ides=np.array([",".join(str(i) for i in range(1, n)
                                if mask >> (i - 1) & 1)
                       for mask in range(1 << (n - 1))], dtype=object),
        comp=np.array([_comp_text(n, mask) for mask in range(1 << n)],
                      dtype=object),
    )


def _lines(b: StatBlock, text: _Text, rows: np.ndarray) -> List[str]:
    """The ``json_line`` text of the given rows of b, one % per row."""
    def digits(codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        high, low = np.divmod(codes[rows], text.low_size)
        return text.f_high[high], text.f_low[low]

    rec = b.records[rows]
    primary, tertiary = b.primary[rows], b.tertiary[rows]
    dinv, deviation = rec[kernels.DINV], rec[kernels.DEV]
    columns = (
        *digits(b.index), rec[kernels.AREA], dinv,
        primary, dinv - primary - tertiary, tertiary, *digits(b.word),
        text.ides[rec[kernels.IDES]], *digits(b.records[kernels.DWORD]),
        deviation, rec[kernels.TOUCH], text.comp[b.main[rows]],
        np.where(deviation == 0, "true", "false"),
    )
    return list(map(text.template.__mod__,
                    zip(*(col.tolist() for col in columns))))


def json_block(n: int, b: StatBlock,
               keep: Optional[Callable[[StatBlock], np.ndarray]] = None
               ) -> str:
    """The ``json_line`` of every row of b that ``keep`` (a boolean mask
    over the block's rows) selects, one line each.

    The block's first function is also formatted by ``json_line`` itself,
    and any difference raises RuntimeError.
    """
    if not 1 <= n <= DEFAULT_MAX_N:
        raise ValueError(f"n={n} outside the enumeration bound "
                         f"1..{DEFAULT_MAX_N}")
    if not len(b.index):
        return ""
    text = _text(n)
    first = _lines(b, text, np.arange(1))[0]
    want = json_line(PrefFunc(b.f[:, 0].tolist())) + "\n"
    if first != want:
        raise RuntimeError(f"block line {first!r} differs from the scalar "
                           f"statistics {want!r}")
    rows = (np.arange(len(b.index)) if keep is None
            else np.flatnonzero(keep(b)))
    return "".join(_lines(b, text, rows))


def json_blocks(n: int,
                keep: Optional[Callable[[StatBlock], np.ndarray]] = None,
                tau: Optional[Sequence[int]] = None) -> Iterator[str]:
    """``json_block`` over all n^n functions in lexicographic order of f,
    BLOCK indices at a time; with ``tau``, the lines of its functions
    alone (at most 40,320 at n = 8), in the same order, as one block
    (``diagword_block``)."""
    if tau is not None:
        yield json_block(n, diagword_block(n, tau), keep)
        return
    total = n ** n
    for start in range(0, total, BLOCK):
        yield json_block(n, stat_block(n, start, min(start + BLOCK, total)),
                         keep)
