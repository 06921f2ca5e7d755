"""Fundamental quasisymmetric functions and path-family generating sums.

Degree-n quasisymmetric quantities live in coordinates indexed by
subsets S of {1, ..., n-1}: the fundamental basis element Q_S is the sum
of monomials x_{a_1} ... x_{a_n} over weakly increasing index words that
rise strictly at each position in S.

The generating sums attach the weight t^area q^dinv Q_ides to each
preference function.  Grouped by diagonal word these sums factor: the
ides sets occurring for a fixed diagonal word tau differ from ides(tau)
only inside the consecutive blocks of tau (maximal sets of consecutive
values i, i+1, ... appearing adjacently), and the discrepancies are
carried by a permutation from the Young subgroup preserving those
blocks.  factor_check verifies the resulting product identity with all
four factors computed by independent means; the Young subgroup's joint
(inv, ides) distribution is the product of S_m's over its blocks, and
depends only on tau's consecutive-block mask.

The table-backed sums read a count table that their caller built once
(``aggregate.qsym_by_diagword`` or ``qsym_by_touch``) and passes in; this
module builds no table.  Every sum is held in integer counts.  The
readers qsym_for_diagword, qsym_for_touch and qsym_total return one slice
of a table as count rows: one row per (ides mask, area) pair present, one
column per power of q.  shifted_sums multiplies count rows by polynomials
in q with shifted adds along that axis, and first_difference sums two
sides so and names the first Q_S at which they differ, for a
counterexample, or None when they are equal; square_paths_sides writes
the square-paths identity's two sides as such terms.  The batch
decisions take a whole block of diagonal words at once:
closed_form_misses and factor_check (the closed form and the
factorization at each deviation, against schedules.closed_form_rows) and
withides_failures (the withides scaling) read their rows through rows_of
and decide through _nonzero, by signed counts summed per key.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import kernels
from .qt import q_int_product, render, square_paths_multipliers
from .schedules import ScheduleCounts, closed_form_rows, permutation_rows

# The count rows of a sum Σ t^area q^dinv Q_ides: the increasing keys of the
# (ides mask, area) pairs present, over radices (2^(n-1), n^2 + 1), and one
# row of counts per key, one column per power of q.
CountRows = Tuple[np.ndarray, np.ndarray]


def _count_rows(table, n: int, where: slice) -> CountRows:
    """The count rows of the rows ``where`` of ``table``, whose last
    columns are area, dinv and ides mask.  A mask or area outside its radix
    raises ValueError."""
    area, dinv, mask = (col[where] for col in table.columns[-3:])
    keys, row = np.unique(np.ravel_multi_index(
        (mask, area), (1 << (n - 1), n * n + 1)), return_inverse=True)
    out = np.zeros((len(keys), int(dinv.max(initial=0)) + 1), dtype=np.int64)
    np.add.at(out, (row, dinv), table.counts[where])
    return keys, out


def qsym_for_diagword(table, tau: Sequence[int],
                      deviation: Optional[int] = None) -> CountRows:
    """Σ t^area q^dinv Q_ides over functions with diagonal word tau,
    optionally restricted to one deviation, read from ``table`` (a
    ``qsym_by_diagword`` table of size len(tau), of all taus or of tau)."""
    n = len(tau)
    code = kernels.encode_perm(tau, n)
    return _count_rows(table, n, table.rows(code) if deviation is None
                       else table.rows(code, deviation))


def rows_of(table, taus: np.ndarray) -> Tuple[np.ndarray, ...]:
    """The table rows of each row tau of the (N, n) array ``taus``, as
    flat arrays in tau order: which tau, each column after the diagword,
    and the counts.  Every tau is the diagword of some function, so a
    table without a row of tau (another tau's or of another size) raises
    ValueError rather than read as a pass."""
    n = taus.shape[1]
    lo, hi = table.span(np.ravel_multi_index((taus - 1).T, (n,) * n))
    empty = np.flatnonzero(hi == lo)
    if len(empty):
        raise ValueError(f"the table holds no function of diagword "
                         f"{tuple(taus[empty[0]].tolist())}")
    size = hi - lo
    tau_of = np.repeat(np.arange(len(taus)), size)
    row = np.repeat(lo - np.cumsum(size) + size, size) + np.arange(tau_of.size)
    return (tau_of, *(col[row] for col in table.columns[1:]),
            table.counts[row])


def _nonzero(parts: Iterable, radices: Tuple[int, ...],
             shape: Tuple[int, ...]) -> np.ndarray:
    """A bool array of ``shape``, True at the leading digits of each key
    whose signed counts sum to nonzero, over (digits, counts) ``parts``
    that broadcast; a digit outside its radix raises ValueError."""
    keys, sums = kernels.sum_by_key([
        (np.ravel_multi_index(digits, radices).ravel(), np.ravel(counts))
        for digits, counts in parts])
    out = np.zeros(shape, dtype=bool)
    out[np.unravel_index(keys[sums != 0], radices)[:len(shape)]] = True
    return out


def withides_failures(table, taus: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Whether A (1 - q^k) - B (1 - q^n) is nonzero, for each row tau of
    the (N, n) array ``taus`` and its k in ``ks``, where A =
    qsym_for_diagword(table, tau), B = its deviation-0 part.

    Nonzero exactly when A [k]_q != B [n]_q, since (1 - q) is no zero
    divisor.  The deviation-0 counts cancel at q^0 and leave
    q^n - q^k; the others give 1 - q^k.  So each row of tau adds its count
    at (tau, area, dinv + n [dev = 0], mask) and takes it away at (tau,
    area, dinv + k, mask), and tau fails when a sum is nonzero.  A table
    without a row of some tau raises ValueError (see rows_of).
    """
    nt, n = taus.shape
    tau_of, dev, area, dinv, mask, counts = rows_of(table, taus)
    # Keys over (tau, area <= n^2, shifted dinv <= n^2 + n, mask <
    # 2^(n-1)).  Each half is nearly sorted already, which the stable sort
    # exploits.
    return _nonzero((((tau_of, area, dinv + shift, mask), c)
                     for shift, c in ((n * (dev == 0), counts),
                                      (ks[tau_of].astype(np.int64), -counts))),
                    (nt, n * n + 1, n * n + n + 1, 1 << (n - 1)), (nt,))


def qsym_for_touch(table, n: int, touch: int) -> CountRows:
    """Sum over parking functions with the given touch in ``table``."""
    return _count_rows(table, n, table.rows(touch, 1))


def qsym_total(table, n: int) -> CountRows:
    """Sum over all n^n preference functions in ``table``."""
    return _count_rows(table, n, slice(None))


Sides = Sequence[Sequence[Tuple[CountRows, Sequence[int]]]]


def shifted_sums(sides: Sides) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Each side, a list of (count rows, coefficients c_i) terms, summed as
    Σ rows * Σ_i c_i q^i by shifted adds along the q axis: the union of
    the terms' keys, and each side's count rows over them."""
    terms = [term for side in sides for term in side]
    keys = np.sort(np.concatenate([k for (k, _), _ in terms]))
    keys = keys[kernels.run_starts(keys)]
    width = max(rows.shape[1] + len(c) - 1 for (_, rows), c in terms)
    out = [np.zeros((len(keys), width), dtype=np.int64) for _ in sides]
    for acc, side in zip(out, sides):
        for (k, rows), coeffs in side:
            at = keys.searchsorted(k)
            for i, c in enumerate(coeffs):
                if c:
                    acc[at, i:i + rows.shape[1]] += c * rows
    return keys, out


def first_difference(n: int, sides: Sides) -> Optional[Dict[str, object]]:
    """The first Q_S, in sorted-subset order, whose coefficients differ
    between the two sides of size n, each summed by shifted_sums, as its
    sorted subset and both coefficients written by qt.render; None when
    no coefficient differs."""
    keys, (lhs, rhs) = shifted_sums(sides)
    differ = (lhs != rhs).any(axis=1)
    if not differ.any():
        return None
    mask, area = np.unravel_index(keys, (1 << (n - 1), n * n + 1))
    subset, m = min((sorted(kernels.decode_ides(m, n)), m)
                    for m in set(mask[differ].tolist()))
    mine = np.flatnonzero(mask == m)

    def coefficient(side: np.ndarray) -> str:
        # The rows of one mask are in increasing area, so the nonzero
        # entries of the transpose come in (q exponent, t exponent) order.
        dinv, row = np.nonzero(side[mine].T)
        return render(zip(zip(dinv.tolist(), area[mine[row]].tolist()),
                          side[mine[row], dinv].tolist()))

    return {"subset": subset, "lhs": coefficient(lhs),
            "rhs": coefficient(rhs)}


def square_paths_sides(table, n: int) -> Sides:
    """The sides T [n]_q! and Σ_k P_k [n]_q [n]_q!/[k]_q of the
    square-paths identity as shifted_sums terms, read from ``table``, the
    ``qsym_by_touch`` table of size n.

    T is qsym_total and P_k qsym_for_touch(k).  Raises ValueError before
    the table is read when a shifted sum could leave int64.
    """
    lhs, rhs = square_paths_multipliers(n)
    # T and the P_k each hold at most n^n counts, so every partial sum is
    # at most n^n times the sum of all multiplier coefficients.
    bound = n ** n * (sum(lhs) + sum(map(sum, rhs)))
    if bound >= 2 ** 63:
        raise ValueError(f"n = {n}: square-path sums may reach {bound} "
                         f"> 2^63 - 1")
    return ([(qsym_total(table, n), lhs)],
            [(qsym_for_touch(table, n, touch), mult)
             for touch, mult in enumerate(rhs, start=1)])


@lru_cache(maxsize=None)
def inv_ides_counts(m: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """S_m's joint distribution of (inv, ides mask): the distinct pairs
    over the m! permutations of 1..m, in increasing (inv, mask) order, and
    how many permutations have each.  Bit i - 1 of a mask stands for i,
    as in the kernel's IDES column.  Cached per m, so read-only."""
    perms = permutation_rows(m)
    inv = sum((perms[:, [a]] > perms[:, a + 1:]).sum(axis=1, dtype=np.int64)
              for a in range(m))
    pos = np.argsort(perms, axis=1)  # pos[:, v - 1]: where v stands
    mask = (pos[:, 1:] < pos[:, :-1]) @ (1 << np.arange(m - 1))
    radices = (m * (m - 1) // 2 + 1, 1 << (m - 1))
    keys, counts = np.unique(np.ravel_multi_index((inv, mask), radices),
                             return_counts=True)
    out = (*np.unravel_index(keys, radices), counts)
    for array in out:
        array.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def young_counts(n: int, b: int) -> Tuple[np.ndarray, np.ndarray,
                                          np.ndarray, Tuple[int, ...]]:
    """The Young subgroup of the consecutive-block mask b of 1..n, where
    bit i - 1 puts i and i + 1 in one block: its Σ_π q^inv Q_ides(π) as
    (inv, ides mask, count) rows, and its Σ_π q^inv as the coefficients
    of prod over its blocks B of [|B|]_q!.  Raises RuntimeError when the
    rows' q-count differs from those.  Cached per (n, b), so read-only."""
    # A block of values s..s+m-1 maps to itself, so its ides bits are
    # S_m's shifted by s - 1, and its invs add.
    inv = np.zeros(1, dtype=np.int64)
    mask = np.zeros(1, dtype=np.int64)
    count = np.ones(1, dtype=np.int64)
    sizes: List[int] = []
    start = 1  # the smallest value of the block being read
    for v in range(1, n + 1):
        if v < n and b >> (v - 1) & 1:
            continue  # v + 1 is in v's block
        b_inv, b_mask, b_count = inv_ides_counts(v - start + 1)
        inv = (inv[:, None] + b_inv).ravel()
        mask = (mask[:, None] | b_mask << (start - 1)).ravel()
        count = (count[:, None] * b_count).ravel()
        sizes.extend(range(1, v - start + 2))
        start = v + 1
    scalar = q_int_product(tuple(sorted(sizes)))
    by_inv = np.zeros(int(inv.max()) + 1, dtype=np.int64)
    np.add.at(by_inv, inv, count)
    if tuple(by_inv.tolist()) != scalar:
        raise RuntimeError(f"Young subgroup of block mask {b} of 1..{n}: "
                           f"q-count {by_inv.tolist()} differs from block "
                           f"q-factorials {list(scalar)}")
    for array in (inv, mask, count):
        array.flags.writeable = False
    return inv, mask, count, scalar


def closed_form_misses(table, taus: np.ndarray, sc: ScheduleCounts,
                       ls: Sequence[int]) -> np.ndarray:
    """Where the closed form t^maj q^shift prod [w^(l)]_q misses the
    ``qt_by_diagword`` table, as factor_check's (N, len(ls)) array: each
    table row of (tau, l) adds its count at (tau, l, area, dinv), each
    closed_form_rows term takes its c_i away, and a case misses where a
    sum is nonzero.  A weight below 1 gives no terms ([0]_q = 0), so it
    misses against the case's table rows."""
    nt, n = taus.shape
    tau_of, *digits, counts = rows_of(table, taus)
    *terms, c = closed_form_rows(taus, sc, ls)
    # factor_check's radices without the mask: a weight planted too large
    # fails rather than raise.
    radices = (nt, n, n * n + 1, n * n + n * (n - 1) // 2 + 1)
    return _nonzero([((tau_of, *digits), counts), (terms, -c)], radices,
                    (nt, n))[:, list(ls)]


def factor_check(table, taus: np.ndarray, sc: ScheduleCounts,
                 ls: Sequence[int]) -> np.ndarray:
    """Where the cross-multiplied factorization of the diagword-tau,
    deviation-l sum fails, for each row tau of the (N, n) array ``taus``,
    whose ScheduleCounts are ``sc``, and each l of ``ls``: an (N, len(ls))
    bool array, False where tau has no deviation l.

    Checks  (Σ t^a q^d Q_ides) * (Σ_π q^inv)
          = (Σ t^a q^d) * (Σ_π q^inv Q_{ides(tau) ∪ ides(π)}),
    with the left quasisymmetric sum read from ``table`` (a
    ``qsym_by_diagword`` table), both Young-subgroup sums from
    young_counts, and the scalar t,q-sum from the schedule closed form
    t^maj q^shift prod [w^(l)]_q (closed_form_rows).  The taus of one
    consecutive-block mask share their Young subgroup and are decided
    together: both sides are integer counts keyed by (tau, l, area, dinv,
    mask), and a case holds when their difference is zero at every key.
    """
    nt, n = taus.shape
    pos = np.argsort(taus, axis=1)  # pos[:, v - 1]: where v stands
    bit = 1 << np.arange(n - 1)
    blocks = (pos[:, 1:] == pos[:, :-1] + 1) @ bit  # v + 1 right after v
    ides = (pos[:, 1:] < pos[:, :-1]) @ bit  # v + 1 anywhere before v
    # The closed-form terms (tau row, l, maj, shift + i, c_i) and the block
    # mask of each, in block-mask order.
    terms = closed_form_rows(taus, sc, ls)
    order = np.argsort(blocks[terms[0]], kind="stable")
    of, *terms = (x[order] for x in (blocks[terms[0]], *terms))
    # Keys over (tau, l < n, area <= n^2, dinv <= n^2 plus an inv, mask <
    # 2^(n-1)).
    radices = (nt, n, n * n + 1, n * n + n * (n - 1) // 2 + 1, 1 << (n - 1))
    bad = np.zeros((nt, n), dtype=bool)
    for b in np.unique(blocks).tolist():
        inv, y_mask, y_count, scalar = young_counts(n, b)
        mine = np.flatnonzero(blocks == b)
        # The table rows, times Σ_π q^inv; one at a deviation outside ls
        # lands in a column of bad that is not returned.
        tau_of, dev, area, dinv, mask, counts = (
            x[:, None] for x in rows_of(table, taus[mine]))
        # Each closed-form term times each Young row, subtracted; a Young
        # mask has only block bits, none in ides(tau), so | is a union.
        at = slice(*of.searchsorted([b, b + 1]).tolist())
        r, l, t, q, c = (x[at, None] for x in terms)
        bad |= _nonzero([
            ((mine[tau_of], dev, area, dinv + np.arange(len(scalar)), mask),
             counts * np.array(scalar)),
            ((r, l, t, q + inv, ides[r] | y_mask), -c * y_count)],
            radices, (nt, n))
    return bad[:, list(ls)]
