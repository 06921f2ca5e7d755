"""Run structure of diagonal words, schedule numbers, and closed forms.

A permutation tau splits into maximal increasing runs; runs(tau) gives
them as a tuple of tuples, leftmost first.  Reading the run lengths from
the right gives rho_0 (last run), rho_1, and so on: rho_j is
len(runs(tau)[-1 - j]).  The number of runs bounds the admissible
deviations.

The 0-schedule lists a weight for each car in right-to-left insertion
order: w_i = i while i stays within the last run, and afterwards the
weight of car c = tau_{n+1-i} counts the elements of c's run larger
than c plus the elements of the next run to the right smaller than c.
The l-schedule assigns weights per car instead: cars in the last l runs
count smaller elements of their own run plus larger elements of the
previous run, cars in the (l+1)-st run from the end count 1 plus the
elements strictly to their right in that run, and all earlier cars keep
the 0-schedule rule.

These weights are choice counts for an insertion tree: building up a
labeled path car by car, car c can be placed in exactly w(c) spots, and
the spots raise the pair count dinv by 0, 1, ..., w(c)-1.  Summing
t^area q^dinv over the leaves therefore factors, giving

    t^maj(tau) q^(rho_0+...+rho_{l-1}) prod_c [w(c)]_q

over the preference functions with diagonal word tau and deviation l,
and summing over all deviations collapses to a single quotient
t^maj [n]_q / [k]_q times the 0-schedule product, k the last-run
length.  generate() materializes the tree and re-derives every leaf's
statistics as a self-check; the closed forms are t^maj q^shift times
qt.q_int_product of the sorted weights, which builds prod [w]_q once
per weight multiset.

The checks and the `table` commands need every weight of every
permutation of 1..n at once, so the module also works on batches:
permutation_rows/permutation_blocks build the permutations as int8 rows,
tau_blocks walks them (or one tau) a block at a time, schedule_counts
takes each car's pair counts one offset between positions at a time,
schedule_l_rows selects the weights from them (the 0-schedule at l = 0,
by position), and closed_form_rows writes every case's closed form as
integer terms, its one batch spelling.  The scalar functions stay the
reference.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from math import prod
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional
from typing import Sequence, Tuple

import numpy as np

from .kernels import require_perm
from .paths import PrefFunc, stats
from .qt import QTPoly, q_int_product, q_poly

def runs(tau: Sequence[int]) -> Tuple[Tuple[int, ...], ...]:
    """The maximal increasing runs of the permutation tau, leftmost run
    first; tau is their concatenation."""
    t = require_perm(tau, len(tau))
    blocks: List[List[int]] = [[t[0]]]
    for v in t[1:]:
        if v > blocks[-1][-1]:
            blocks[-1].append(v)
        else:
            blocks.append([v])
    return tuple(tuple(b) for b in blocks)


def maj(tau: Sequence[int]) -> int:
    """Sum of the descent positions of tau."""
    t = require_perm(tau, len(tau))
    return sum(i for i in range(1, len(t)) if t[i - 1] > t[i])


def require_deviation(rs: Tuple[Tuple[int, ...], ...], l: int) -> None:
    """Refuse a deviation l that the runs rs of a tau cannot carry."""
    if not 0 <= l < len(rs):
        raise ValueError(f"deviation {l} needs at least {l + 1} runs; "
                         f"{tuple(chain.from_iterable(rs))} has {len(rs)}")


def schedule0(tau: Sequence[int]) -> Tuple[int, ...]:
    """(w_1, ..., w_n) with w_i the weight of car tau_{n+1-i}."""
    rs = runs(tau)
    w = list(range(1, len(rs[-1]) + 1))
    # The runs right to left from the second last, each with the next.
    for own, nxt in zip(rs[-2::-1], rs[:0:-1]):
        for c in reversed(own):
            w.append(sum(1 for y in own if y > c)
                     + sum(1 for y in nxt if y < c))
    return tuple(w)


def schedule_l(tau: Sequence[int], l: int) -> Dict[int, int]:
    """Mapping car -> w^(l)(car); needs at least l+1 runs."""
    rs = runs(tau)
    require_deviation(rs, l)
    w: Dict[int, int] = {}
    for ri, run in enumerate(rs):
        from_last = len(rs) - 1 - ri
        for p, c in enumerate(run):
            if from_last < l:
                prev = rs[ri - 1]
                w[c] = (sum(1 for y in run if y < c)
                        + sum(1 for y in prev if y > c))
            elif from_last == l:
                w[c] = len(run) - p
            else:
                nxt = rs[ri + 1]
                w[c] = (sum(1 for y in run if y > c)
                        + sum(1 for y in nxt if y < c))
    return w


def pf_closed_form(tau: Sequence[int]) -> QTPoly:
    """t^maj(tau) prod [w_i]_q: the (area, dinv) sum over parking
    functions with diagonal word tau.  This is Haglund and Loehr's form of
    pref_closed_form(tau, 0), kept as a reference for it."""
    return q_poly(q_int_product(tuple(sorted(schedule0(tau)))), 0, maj(tau))


def pref_closed_form(tau: Sequence[int], l: int) -> QTPoly:
    """t^maj q^(rho_0+...+rho_{l-1}) prod_c [w^(l)(c)]_q: the sum over
    preference functions with diagonal word tau and deviation l."""
    w = schedule_l(tau, l)
    rs = runs(tau)
    return q_poly(q_int_product(tuple(sorted(w.values()))),
                  sum(map(len, rs[len(rs) - l:])), maj(tau))


def shift_multiset(tau: Sequence[int], l: int) -> bool:
    """Whether {w^(l)(c)} equals {w_i} with one rho_0 swapped for rho_l."""
    rs = runs(tau)
    r = len(rs) - 1
    if not 1 <= l <= r:
        raise ValueError(f"l must lie in 1..{r}, got {l}")
    predicted = Counter(schedule0(tau))
    predicted[len(rs[-1 - l])] += 1
    rho0 = len(rs[-1])
    if predicted[rho0] == 0:
        return False
    predicted[rho0] -= 1
    return +predicted == Counter(schedule_l(tau, l).values())


def permutation_blocks(n: int) -> Iterator[np.ndarray]:
    """The n! permutations of 1..n as int8 rows in itertools.permutations
    order, one (n-1)! x n block per first car."""
    rest = permutation_rows(n - 1)
    for first in range(1, n + 1):
        block = np.empty((len(rest), n), dtype=np.int8)
        block[:, 0] = first
        block[:, 1:] = rest + (rest >= first)
        yield block


def tau_blocks(n: int, tau: Optional[Sequence[int]]) -> Iterable[np.ndarray]:
    """The taus of size n as blocks of rows, in permutation order: all n!
    in int8 blocks of (n-1)! that share their first car, or the one tau
    given as a block of one row, in a type wide enough for its cars."""
    if tau is None:
        return permutation_blocks(n)
    return [np.array([tau], dtype=np.int64)]


def permutation_rows(n: int) -> np.ndarray:
    """All n! permutations of 1..n as one (n!, n) int8 array, in
    itertools.permutations order."""
    if n == 0:
        return np.zeros((1, 0), dtype=np.int8)
    return np.concatenate(list(permutation_blocks(n)))


class ScheduleCounts(NamedTuple):
    """Per-car counts of a batch of permutations; entry [r, p] is about
    the car at position p of row r.  A run increases, so the larger cars
    of a car's own run are the ones to its right."""

    from_last: np.ndarray     # index of the car's run, counted from the right
    own_larger: np.ndarray    # cars of its own run larger than it
    own_smaller: np.ndarray   # cars of its own run smaller than it
    next_smaller: np.ndarray  # cars of the next run smaller than it
    prev_larger: np.ndarray   # cars of the previous run larger than it


def schedule_counts(perms: np.ndarray) -> ScheduleCounts:
    """The ScheduleCounts of an (N, n) array of permutations, in its
    integer type."""
    # Column-major: T[p] holds position p of every row.  The pairs of
    # positions a < a + d are taken one offset d at a time, so each is a
    # few whole-array operations and nothing is sorted.
    T = np.ascontiguousarray(perms.T)
    n = len(T)
    run = np.zeros_like(T)  # run index from the left: descents before p
    for p in range(1, n):
        run[p] = run[p - 1] + (T[p - 1] > T[p])
    larger, smaller, nxt, prev = (np.zeros_like(T) for _ in range(4))
    for d in range(1, n):
        same = run[:-d] == run[d:]
        larger[:-d] += same
        smaller[d:] += same
        drop = (run[d:] == run[:-d] + 1) & (T[:-d] > T[d:])
        nxt[:-d] += drop
        prev[d:] += drop
    from_last = run[-1] - run
    return ScheduleCounts(*(np.ascontiguousarray(x.T) for x in
                            (from_last, larger, smaller, nxt, prev)))


def schedule_l_rows(sc: ScheduleCounts, l: int) -> np.ndarray:
    """w^(l) of every car, by position; meaningful in rows with more than
    l runs."""
    return np.where(sc.from_last < l, sc.own_smaller + sc.prev_larger,
                    sc.own_larger + np.where(sc.from_last == l, 1,
                                             sc.next_smaller))


def closed_form_rows(taus: np.ndarray, sc: ScheduleCounts,
                     ls: Sequence[int]) -> Tuple[np.ndarray, ...]:
    """pref_closed_form(tau, l) of each row tau of the (N, n) array
    ``taus``, whose ScheduleCounts are ``sc``, at each l of ``ls`` it has:
    its terms as flat (row, l, maj, shift + i, c_i) arrays, l by l.  A case
    with a weight below 1 has none: [0]_q = 0."""
    majs = (taus[:, :-1] > taus[:, 1:]) @ np.arange(1, taus.shape[1])
    parts = [(np.zeros(0, dtype=np.int64),) * 5]  # for an empty ls
    for l in ls:
        cases = np.flatnonzero(sc.from_last[:, 0] >= l)
        term, i, c = closed_form_terms(schedule_l_rows(sc, l)[cases])
        shift = (sc.from_last[cases] < l).sum(axis=1)
        row = cases[term]
        parts.append((row, np.full(len(row), l), majs[row],
                      shift[term] + i, c))
    return tuple(map(np.concatenate, zip(*parts)))


def closed_form_terms(w: np.ndarray
                      ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The coefficients c_i of prod_c [w(c)]_q for each row of the (R, n)
    weight array w, as flat (row, i, c_i) arrays in row order.  A row with
    a weight below 1 has none: [0]_q = 0.  q_int_product is looked up once
    per distinct sorted row."""
    # lexsort makes the rows of one multiset adjacent.  np.unique(axis=0)
    # sorts void rows: over the 57 calls of the n = 8 factor lemma (181,440
    # rows, 2 vCPUs) it took 0.65 s, lexsort 0.07 s.
    rows = np.sort(w, axis=1)
    order = np.lexsort(rows.T)
    rows = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    of = np.empty(len(rows), dtype=np.int64)
    of[order] = np.cumsum(new) - 1  # the multiset of each row of w
    coeffs = [q_int_product(ws) if ws[0] > 0 else ()
              for ws in map(tuple, rows[new].tolist())]
    size = np.fromiter(map(len, coeffs), np.int64, len(coeffs))
    flat = np.fromiter(chain.from_iterable(coeffs), np.int64, size.sum())
    first = (np.cumsum(size) - size)[of]
    size = size[of]
    row = np.repeat(np.arange(len(w)), size)
    i = np.arange(len(row)) - np.repeat(np.cumsum(size) - size, size)
    return row, i, flat[first[row] + i]


@dataclass(frozen=True)
class PartitionBox:
    """A partition with exactly b parts (zeros allowed), parts <= a."""

    lam: Tuple[int, ...]
    a: int
    b: int

    def __post_init__(self):
        lam = tuple(map(operator.index, self.lam))
        object.__setattr__(self, "lam", lam)
        if self.a < 1 or self.b < 1:
            raise ValueError("box dimensions must be positive")
        if len(lam) != self.b:
            raise ValueError(f"lambda must have exactly {self.b} parts")
        if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
            raise ValueError("parts must be weakly decreasing")
        if lam[-1] < 0 or lam[0] > self.a:
            raise ValueError(f"parts must lie in 0..{self.a}")

    @property
    def conjugate(self) -> Tuple[int, ...]:
        """Column lengths, padded with zeros to exactly a parts."""
        return tuple(sum(1 for v in self.lam if v >= j)
                     for j in range(1, self.a + 1))


def delta_merge(pb: PartitionBox) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Sorted entries of (lam + delta_b) ++ delta_a and of
    (lam' + delta_a) ++ delta_b; the i-th part of a sum is part_i + (i-1)."""
    left = [v + i for i, v in enumerate(pb.lam)] + list(range(pb.a))
    right = [v + i for i, v in enumerate(pb.conjugate)] + list(range(pb.b))
    return tuple(sorted(left)), tuple(sorted(right))


def insertion_order(tau: Sequence[int], l: int = 0) -> Tuple[int, ...]:
    """Car order used by generate: the first (run count - l) runs
    flattened and reversed, then the last l runs left to right.

    At l = 0 this is just tau read backwards.
    """
    rs = runs(tau)
    require_deviation(rs, l)
    head = [c for run in rs[:len(rs) - l] for c in run][::-1]
    tail = [c for run in rs[len(rs) - l:] for c in run]
    return tuple(head + tail)


def _require(ok: bool, *detail: object) -> None:
    """The guard of one tree invariant in generate; holds under python -O."""
    if not ok:
        raise RuntimeError(f"insertion tree invariant broken: {detail!r}")


def generate(tau: Sequence[int],
             l: int) -> List[Tuple[PrefFunc, Tuple[int, ...]]]:
    """All preference functions with diagonal word tau and deviation l,
    each paired with its per-insertion dinv increment trace.

    The tree inserts cars of the first (run count - l) runs right to
    left, then cars of the last l runs left to right.  A car's diagonal
    is fixed by its run; the mutable state is the column word (cars
    listed bottom row to top).  Insertion spots sit directly above an
    anchor car in the first phase and directly below one in the second:
    anchors are the smaller cars of the next run plus the already-placed
    cars of c's own run (first phase; cars of the run placed first may
    also start a new bottom row), or the larger cars of the previous run
    plus the placed cars of c's own run (second phase).  Each insertion
    is checked to offer exactly w^(l)(c) spots whose dinv increments,
    scanning spots by landing column (descending in the first phase,
    ascending in the second), are 0, 1, ..., w^(l)(c)-1.

    Every leaf is re-measured from scratch: its diagonal word, deviation,
    area (= maj tau) and dinv (= increments + cars below the main
    diagonal) must agree with the tree bookkeeping.
    """
    tau = require_perm(tau, len(tau))
    rs = runs(tau)
    nruns = len(rs)
    n = len(tau)
    weights = schedule_l(tau, l)
    maj_tau = maj(tau)
    baseline = sum(map(len, rs[nruns - l:]))  # the cars of the last l runs

    run_of: Dict[int, int] = {}
    diag_of: Dict[int, int] = {}
    for ri, run in enumerate(rs):
        for c in run:
            run_of[c] = ri
            diag_of[c] = (nruns - 1 - ri) - l

    order = insertion_order(tau, l)
    n_first = n - baseline

    def column(word: Sequence[int], p: int) -> int:
        return p + 1 - diag_of[word[p]]

    def require_valid(word: Sequence[int]) -> None:
        cols = [column(word, p) for p in range(len(word))]
        for p, col in enumerate(cols):
            _require(1 <= col <= n, word, cols)
            if p:
                _require(col > cols[p - 1] or (
                    col == cols[p - 1] and word[p] > word[p - 1]), word, cols)

    def pair_count(word: Sequence[int]) -> int:
        """Primary + secondary dinv pairs among the placed cars."""
        placed = [(c, diag_of[c], column(word, p))
                  for p, c in enumerate(word)]
        placed.sort()
        total = 0
        for i, (_, da, ca) in enumerate(placed):
            for _, db, cb in placed[i + 1:]:
                if da == db and ca < cb:
                    total += 1
                elif da == db - 1 and ca > cb:
                    total += 1
        return total

    out: List[Tuple[PrefFunc, Tuple[int, ...]]] = []

    def expand(i: int, word: List[int], trace: List[int], pairs: int) -> None:
        if i == n:
            f = [0] * n
            for p, c in enumerate(word):
                f[c - 1] = column(word, p)
            pf = PrefFunc(tuple(f))
            rec = stats(pf)
            _require(rec["diagword"] == list(tau) and rec["deviation"] == l,
                     pf)
            _require(rec["area"] == maj_tau, pf)
            _require(rec["dinv"] == baseline + sum(trace), pf, trace)
            out.append((pf, tuple(trace)))
            return
        c = order[i]
        in_second = i >= n_first
        ri = run_of[c]
        slots: List[int] = []
        if not in_second:
            if ri == nruns - l - 1:
                slots.append(0)
                for j, y in enumerate(word):
                    if run_of[y] == ri:
                        slots.append(j + 1)
            else:
                nxt = rs[ri + 1]
                for j, y in enumerate(word):
                    if run_of[y] == ri or (y in nxt and y < c):
                        slots.append(j + 1)
        else:
            prev = rs[ri - 1]
            for j, y in enumerate(word):
                if run_of[y] == ri or (y in prev and y > c):
                    slots.append(j)
        _require(len(slots) == weights[c], c, slots, weights[c])
        children = []
        for s in slots:
            child = word[:s] + [c] + word[s:]
            require_valid(child)
            gained = pair_count(child) - pairs
            children.append((column(child, s), gained, child))
        children.sort(key=lambda ch: -ch[0] if not in_second else ch[0])
        _require([g for _, g, _ in children] == list(range(len(children))),
                 c, children)
        for _, gained, child in children:
            trace.append(gained)
            expand(i + 1, child, trace, pairs + gained)
            trace.pop()

    expand(0, [], [], 0)
    _require(len(out) == prod(weights.values()), tau, l)
    _require(len({pf.f for pf, _ in out}) == len(out), tau, l)
    out.sort(key=lambda item: item[0].f)
    return out
