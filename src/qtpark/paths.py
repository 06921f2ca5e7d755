"""Preference functions, their placements, and the q,t statistics.

A preference function on n cars is any map f from cars 1..n to parking
spots 1..n; parking functions are the special case where every prefix
condition |{i : f(i) <= k}| >= k holds.  Each preference function is drawn
in an n x n grid as follows (``place``): process columns left to right,
writing the cars that prefer column c into column c, smallest on the
bottom, each car in the lowest still-empty row.  Rows are therefore filled
in order 1..n, and the cars of one column occupy consecutive rows with
labels increasing upward.

The diagonal of a car in column c and row r is r - c.  Parking functions
are exactly the preference functions in which no car falls below the main
diagonal.  Statistics computed by ``stats``:

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

``stats`` and ``json_line`` work on one function.  ``qtpark enumerate``
instead streams ``json_blocks``: ``stat_block`` gives the same
statistics for ``BLOCK`` consecutive functions at once as numpy columns,
reading all but word, comp and the dinv parts from ``kernels.stat_rows``,
and ``json_block`` formats the selected rows
with one % template, looking up the text of f, word, diagword, ides and
comp by integer code.  Given one diagword, ``diagword_block`` reads
only its functions, built from their row orders
(``kernels.diagword_blocks``) and sorted by index, so the lines come in
the order of the full enumeration.  The first function of every
non-empty block is also run through ``json_line``, and any difference
raises RuntimeError.
"""

from __future__ import annotations

import json
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
        f = tuple(int(v) for v in self.f)
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


@dataclass(frozen=True)
class Placement:
    """Columns, rows, and diagonals indexed by car (entry i is car i+1)."""

    col: Tuple[int, ...]
    row: Tuple[int, ...]
    diag: Tuple[int, ...]


@dataclass(frozen=True)
class StatRecord:
    """All statistics of one preference function."""

    area: int
    dinv: int
    primary: int
    secondary: int
    tertiary: int
    word: Tuple[int, ...]
    ides: frozenset
    diagword: Tuple[int, ...]
    deviation: int
    touch: int
    comp: Optional[Tuple[int, ...]]

    def __post_init__(self):
        if self.dinv != self.primary + self.secondary + self.tertiary:
            raise ValueError("dinv must equal primary + secondary + tertiary")
        if (self.comp is None) != (self.deviation > 0):
            raise ValueError("comp is defined exactly when deviation is 0")
        if self.comp is not None:
            if sum(self.comp) != len(self.word) or len(self.comp) != self.touch:
                raise ValueError("comp must be a composition of n with touch parts")

    @property
    def dinv_parts(self) -> Tuple[int, int, int]:
        return (self.primary, self.secondary, self.tertiary)


def place(p: PrefFunc) -> Placement:
    """Draw p in the grid: rows 1..n assigned in (column, label) order."""
    n = p.n
    order = sorted(range(n), key=lambda c: (p.f[c], c))
    row = [0] * n
    for r, c in enumerate(order, start=1):
        row[c] = r
    col = list(p.f)
    diag = [row[c] - col[c] for c in range(n)]
    return Placement(col=tuple(col), row=tuple(row), diag=tuple(diag))


def stats(p: PrefFunc) -> StatRecord:
    """Compute every statistic of p from its placement."""
    n = p.n
    pl = place(p)
    col, diag = pl.col, pl.diag

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
    word = tuple(sorted(cars, key=lambda c: (-diag[c - 1], -col[c - 1])))
    pos = {c: i for i, c in enumerate(word)}
    ides = frozenset(i for i in range(1, n) if pos[i + 1] < pos[i])
    diagword = tuple(sorted(cars, key=lambda c: (-diag[c - 1], c)))

    touch = sum(1 for d in diag if d == -dev)

    comp: Optional[Tuple[int, ...]] = None
    if dev == 0:
        main_cols = sorted(col[c] for c in range(n) if diag[c] == 0)
        parts = [b - a for a, b in zip(main_cols, main_cols[1:])]
        parts.append(n + 1 - main_cols[-1])
        comp = tuple(parts)

    # The maximal increasing runs of diagword list the occupied diagonals
    # from the top one down; check that the grouping by diagonal agrees.
    run_lengths, diag_sizes = _runs_and_sizes(diagword, diag)
    if run_lengths != diag_sizes:
        raise _runs_error(p.f, run_lengths, diag_sizes)

    return StatRecord(
        area=area,
        dinv=primary + secondary + tertiary,
        primary=primary,
        secondary=secondary,
        tertiary=tertiary,
        word=word,
        ides=ides,
        diagword=diagword,
        deviation=dev,
        touch=touch,
        comp=comp,
    )


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
    f = [1] * n
    while True:
        yield PrefFunc(tuple(f))
        i = n - 1
        while i >= 0 and f[i] == n:
            f[i] = 1
            i -= 1
        if i < 0:
            return
        f[i] += 1


def record_dict(p: PrefFunc) -> dict:
    """The JSON-ready record for one preference function (fixed key order)."""
    s = stats(p)
    return {
        "n": p.n,
        "f": list(p.f),
        "area": s.area,
        "dinv": s.dinv,
        "dinv_parts": list(s.dinv_parts),
        "word": list(s.word),
        "ides": sorted(s.ides),
        "diagword": list(s.diagword),
        "deviation": s.deviation,
        "touch": s.touch,
        "comp": list(s.comp) if s.comp is not None else None,
        "parking": s.deviation == 0,
    }


def json_line(p: PrefFunc) -> str:
    return json.dumps(record_dict(p), separators=(",", ":"))


# Rows per block of ``json_blocks``.  At n = 6 a block's columns and text
# raise peak RSS over import by about 2.4 MB at this size, 14 MB at 16,384
# rows, and 28 MB for all 46,656 rows in one block.
BLOCK = 2048


class StatBlock(NamedTuple):
    """The statistics of the functions with indices [start, stop), ranked
    as in ``kernels.grid_block``, or of those of one diagword, as numpy
    columns: entry r of each column belongs to index index[r].  area,
    ides, diagword, deviation and touch are fields of the
    ``kernels.stat_rows`` records."""

    f: np.ndarray          # (n, rows) int8; f[c] holds f(c + 1)
    index: np.ndarray
    area: np.ndarray
    primary: np.ndarray
    secondary: np.ndarray  # the kernel's dinv - primary - tertiary
    tertiary: np.ndarray
    word: np.ndarray       # base-n code of word, as kernels.DWORD codes
    ides: np.ndarray       # kernels.IDES: bit i - 1 set for each i in ides
    diagword: np.ndarray   # kernels.DWORD: base-n code of diagword
    deviation: np.ndarray
    touch: np.ndarray
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
    _, F, diag, cols = zip(*kernels.diagword_blocks(n, tau))
    F, diag, cols = np.hstack(F), np.hstack(diag), np.concatenate(cols)
    index = np.ravel_multi_index(F - 1, (n,) * n)
    order = np.argsort(index)
    return _stat_block(F[:, order], diag[:, order], index[order],
                       cols[order])


def _stat_block(F: np.ndarray, diag: np.ndarray, index: np.ndarray,
                cols: np.ndarray) -> StatBlock:
    """The ``StatBlock`` of the functions with preferences F, diagonals
    diag and ``kernels.stat_rows`` records cols, entry r at index
    index[r]."""
    n, nrows = F.shape

    # wpos[c] is the place of car c + 1 in word (ties by column, right to
    # left; the cars of one diagonal stand in distinct columns), counted
    # over the pairs a < b: a car gains a place for each car read before
    # it.  The same loop counts the primary dinv pairs.
    wpos = np.repeat(np.arange(n - 1, -1, -1, dtype=np.int8)[:, None], nrows,
                     axis=1)
    primary = np.zeros(nrows, dtype=np.int8)
    for a in range(n):
        for b in range(a + 1, n):
            rise = diag[b] - diag[a]
            level = rise == 0
            a_right = F[a] > F[b]
            a_first = (rise < 0) | (level & a_right)
            wpos[a] -= a_first
            wpos[b] += a_first
            primary += level & ~a_right
    tertiary = (diag < 0).sum(axis=0, dtype=np.int8)

    # Not np.ravel_multi_index: wpos is indexed by car, not by place.
    powers = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
    word = np.zeros(nrows, dtype=np.int64)
    main = np.zeros(nrows, dtype=np.int32)
    for c in range(n):
        word += np.take(powers, wpos[c]) * c
        main |= (diag[c] == 0).astype(np.int32) << (F[c] - 1)
    deviation = cols[kernels.DEV]
    main[deviation > 0] = 0

    # The maximal increasing runs of diagword must be its diagonals: a
    # descent exactly where the diagonal changes.  by_place[i] + 1 is the
    # car at place i, digit i of the kernel's diagword code.
    by_place = np.array(np.unravel_index(cols[kernels.DWORD], (n,) * n))
    diag_by_place = np.take_along_axis(diag, by_place, axis=0)
    bad = np.flatnonzero(((by_place[1:] < by_place[:-1])
                          != (diag_by_place[1:] != diag_by_place[:-1])
                          ).any(axis=0))
    if len(bad):
        r = bad[0]
        raise _runs_error(tuple(F[:, r].tolist()), *_runs_and_sizes(
            (by_place[:, r] + 1).tolist(), diag[:, r].tolist()))

    return StatBlock(
        f=F,
        index=index,
        area=cols[kernels.AREA],
        primary=primary,
        secondary=cols[kernels.DINV] - primary - tertiary,
        tertiary=tertiary,
        word=word,
        ides=cols[kernels.IDES],
        diagword=cols[kernels.DWORD],
        deviation=deviation,
        touch=cols[kernels.TOUCH],
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

    primary, secondary, tertiary = (b.primary[rows], b.secondary[rows],
                                    b.tertiary[rows])
    deviation = b.deviation[rows]
    columns = (
        *digits(b.index), b.area[rows],
        primary.astype(np.int64) + secondary + tertiary,
        primary, secondary, tertiary, *digits(b.word),
        text.ides[b.ides[rows]], *digits(b.diagword),
        deviation, b.touch[rows], text.comp[b.main[rows]],
        np.where(deviation == 0, "true", "false"),
    )
    return list(map(text.template.__mod__,
                    zip(*(col.tolist() for col in columns))))


def json_block(n: int, start: int, stop: int,
               keep: Optional[Callable[[StatBlock], np.ndarray]] = None
               ) -> str:
    """The ``json_line`` of every index in [start, stop) that ``keep`` (a
    boolean mask over the block's rows) selects, one line each."""
    return _json(n, stat_block(n, start, stop), keep)


def _json(n: int, b: StatBlock,
          keep: Optional[Callable[[StatBlock], np.ndarray]]) -> str:
    """The lines of the rows of b that ``keep`` selects.

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
        yield _json(n, diagword_block(n, tau), keep)
        return
    total = n ** n
    for start in range(0, total, BLOCK):
        yield json_block(n, start, min(start + BLOCK, total), keep)
