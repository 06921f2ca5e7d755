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
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Tuple

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

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self.f)) + ")"


@dataclass(frozen=True)
class Placement:
    """Columns, rows, and diagonals indexed by car (entry i is car i+1)."""

    col: Tuple[int, ...]
    row: Tuple[int, ...]
    diag: Tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.col)


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
    run_lengths = _run_lengths(diagword)
    diag_sizes = [sum(1 for d in diag if d == dd)
                  for dd in sorted(set(diag), reverse=True)]
    if run_lengths != diag_sizes:
        raise AssertionError(
            f"diagword runs {run_lengths} disagree with diagonal sizes "
            f"{diag_sizes} for f={p.f}")

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


def _run_lengths(perm: Tuple[int, ...]) -> list:
    out = []
    run = 1
    for a, b in zip(perm, perm[1:]):
        if b > a:
            run += 1
        else:
            out.append(run)
            run = 1
    out.append(run)
    return out


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


def record_dict(p: PrefFunc, s: Optional[StatRecord] = None) -> dict:
    """The JSON-ready record for one preference function (fixed key order)."""
    if s is None:
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


def json_line(p: PrefFunc, s: Optional[StatRecord] = None) -> str:
    return json.dumps(record_dict(p, s), separators=(",", ":"))
