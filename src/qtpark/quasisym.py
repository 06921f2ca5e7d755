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
module builds no table.  The integer decisions read the table's columns
in numpy and build no QSymF: withides_failures decides the withides
scaling and factor_check the factorization at each deviation, both for a
whole block of diagonal words at once, and square_paths_residue the
square-paths identity for one n.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from . import kernels
from .qt import (QTPoly, Scalar, as_poly, q_int_product,
                 square_paths_multipliers)
from .schedules import (ScheduleCounts, closed_form_terms, permutation_rows,
                        schedule_l_rows)

Subset = FrozenSet[int]


def _sort_key(s: Subset) -> Tuple[int, ...]:
    return tuple(sorted(s))


class QSymF:
    """A quasisymmetric function of degree n in fundamental coordinates."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: Optional[Dict[Subset, QTPoly]] = None):
        self.n = n
        clean: Dict[Subset, QTPoly] = {}
        for s, c in (coeffs or {}).items():
            key = frozenset(s)
            if key and (min(key) < 1 or max(key) > n - 1):
                raise ValueError(f"subset {sorted(key)} not within 1..{n - 1}")
            if c:
                clean[key] = c
        self.coeffs = clean

    @classmethod
    def zero(cls, n: int) -> "QSymF":
        return cls(n)

    def coefficient(self, s: Subset) -> QTPoly:
        return self.coeffs.get(frozenset(s), QTPoly.zero())

    def __add__(self, other: "QSymF") -> "QSymF":
        if self.n != other.n:
            raise ValueError("degrees differ")
        merged = dict(self.coeffs)
        for s, c in other.coeffs.items():
            merged[s] = merged.get(s, QTPoly.zero()) + c
        return QSymF(self.n, merged)

    def __mul__(self, scalar: Scalar) -> "QSymF":
        """Scale every coefficient by a QTPoly or an int."""
        try:
            scalar = as_poly(scalar)
        except TypeError:
            return NotImplemented
        return QSymF(self.n, {s: c * scalar for s, c in self.coeffs.items()})

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QSymF):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        bits = []
        for s, c in sorted(self.coeffs.items(), key=lambda kv: _sort_key(kv[0])):
            label = "{" + ",".join(str(i) for i in sorted(s)) + "}"
            bits.append(f"({c})*Q{label}")
        return " + ".join(bits)

    def __repr__(self) -> str:
        return f"QSymF(n={self.n}, {self})"


def _qsym_from_counts(n: int, counts: Dict[Tuple[int, int, int], int]) -> QSymF:
    # Each (area, dinv, mask) key is distinct: one term per key, and one
    # QTPoly per ides mask built at once.
    by_mask: Dict[int, Dict[Tuple[int, int], int]] = {}
    for (area, dinv, mask), c in counts.items():
        by_mask.setdefault(mask, {})[dinv, area] = c
    return QSymF(n, {kernels.decode_ides(mask, n): QTPoly(terms)
                     for mask, terms in by_mask.items()})


def qsym_for_diagword(table, tau: Sequence[int],
                      deviation: Optional[int] = None) -> QSymF:
    """Σ t^area q^dinv Q_ides over functions with diagonal word tau,
    optionally restricted to one deviation, read from ``table`` (a
    ``qsym_by_diagword`` table of size len(tau), of all taus or of tau)."""
    n = len(tau)
    code = kernels.encode_perm(tau, n)
    return _qsym_from_counts(n, table.counts_at(code) if deviation is None
                             else table.counts_at(code, deviation))


def _rows_of(table, taus: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The table rows of each row tau of the (N, n) array ``taus``, as
    flat (which tau, table row) arrays in tau order.  Every tau is the
    diagword of some function, so a table without a row of tau (another
    tau's or of another size) raises ValueError rather than read as a
    pass."""
    n = taus.shape[1]
    lo, hi = table.span(np.ravel_multi_index((taus - 1).T, (n,) * n))
    empty = np.flatnonzero(hi == lo)
    if len(empty):
        raise ValueError(f"the table holds no function of diagword "
                         f"{tuple(taus[empty[0]].tolist())}")
    size = hi - lo
    tau_of = np.repeat(np.arange(len(taus)), size)
    return tau_of, np.arange(len(tau_of)) + np.repeat(
        lo - np.cumsum(size) + size, size)


def withides_failures(table, taus: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Whether A (1 - q^k) - B (1 - q^n) is nonzero, for each row tau of
    the (N, n) array ``taus`` and its k in ``ks``, where A =
    qsym_for_diagword(table, tau), B = its deviation-0 part.

    Nonzero exactly when A [k]_q != B [n]_q, since (1 - q) is no zero
    divisor.  The deviation-0 counts cancel at q^0 and leave
    q^n - q^k; the others give 1 - q^k.  So each row of tau adds its count
    at (tau, area, dinv + n [dev = 0], mask) and takes it away at (tau,
    area, dinv + k, mask), and tau fails when a sum is nonzero.  A table
    without a row of some tau raises ValueError (see _rows_of).
    """
    nt, n = taus.shape
    tau_of, row = _rows_of(table, taus)
    dev, area, dinv, mask = (col[row] for col in table.columns[1:])
    counts = table.counts[row]
    # Keys over (tau, area <= n^2, shifted dinv <= n^2 + n, mask <
    # 2^(n-1)); a value outside its radix raises ValueError.
    radices = (nt, n * n + 1, n * n + n + 1, 1 << (n - 1))
    # Each half is nearly sorted already, which the stable sort exploits.
    keys, sums = kernels.sum_by_key([
        (np.ravel_multi_index((tau_of, area, dinv + shift, mask), radices), c)
        for shift, c in ((n * (dev == 0), counts),
                         (ks[tau_of].astype(np.int64), -counts))])
    bad = np.zeros(nt, dtype=bool)
    bad[np.unravel_index(keys[sums != 0], radices)[0]] = True
    return bad


def qsym_for_touch(table, n: int, touch: int) -> QSymF:
    """Sum over parking functions with the given touch in ``table``."""
    return _qsym_from_counts(n, table.counts_at(touch, 1))


def qsym_total(table, n: int) -> QSymF:
    """Sum over all n^n preference functions in ``table``."""
    return _qsym_from_counts(n, table.counts_at())


def _add_times(out: np.ndarray, counts: np.ndarray,
               coeffs: Tuple[int, ...]) -> None:
    """out += counts times the polynomial coeffs, along the q axis."""
    width = counts.shape[1]
    for i, c in enumerate(coeffs):
        if c:
            out[:, i:i + width] += c * counts


def square_paths_residue(table, n: int) -> np.ndarray:
    """T [n]_q! - Σ_k P_k [n]_q [n]_q!/[k]_q in integer counts: one row
    per (area, ides mask) of ``table`` (the ``qsym_by_touch`` table of
    size n), one column per power of q.

    T counts all n^n functions and P_k the parking functions of touch k,
    by (area, dinv, ides mask).  All zero exactly when qsym_total [n]_q!
    equals Σ_k qsym_for_touch(k) [n]_q [n]_q!/[k]_q.  Raises ValueError
    before the table is read when an entry could leave int64.
    """
    lhs, rhs = square_paths_multipliers(n)
    # T and the P_k each hold at most n^n counts, so every partial sum is
    # at most n^n times the sum of all multiplier coefficients.
    bound = n ** n * (sum(lhs) + sum(map(sum, rhs)))
    if bound >= 2 ** 63:
        raise ValueError(f"n = {n}: square-path sums may reach {bound} "
                         f"> 2^63 - 1")
    _, _, area, dinv, mask = table.columns
    rows, row_of = np.unique(
        np.ravel_multi_index((area, mask), (n * n + 1, 1 << (n - 1))),
        return_inverse=True)
    width = int(dinv.max()) + 1
    total = np.zeros((len(rows), width), dtype=np.int64)
    np.add.at(total, (row_of, dinv), table.counts)
    out = np.zeros((len(rows), width + len(rhs[0]) - 1), dtype=np.int64)
    for touch, mult in enumerate(rhs, start=1):
        # The (area, dinv, mask) rows of one key are distinct.
        where = table.rows(touch, 1)
        part = np.zeros_like(total)
        part[row_of[where], dinv[where]] = table.counts[where]
        _add_times(out, -part, mult)
    _add_times(out, total, lhs)
    return out


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
    t^maj q^shift prod [w^(l)]_q.  The taus of one consecutive-block mask
    share their Young subgroup and are decided together: both sides are
    integer counts keyed by (tau, l, area, dinv, mask), and a case holds
    when their difference is zero at every key of it.
    """
    nt, n = taus.shape
    pos = np.argsort(taus, axis=1)  # pos[:, v - 1]: where v stands
    bit = 1 << np.arange(n - 1)
    blocks = (pos[:, 1:] == pos[:, :-1] + 1) @ bit  # v + 1 right after v
    ides = (pos[:, 1:] < pos[:, :-1]) @ bit  # v + 1 anywhere before v
    majs = (taus[:, :-1] > taus[:, 1:]) @ np.arange(1, n)
    nruns = sc.from_last[:, 0] + 1
    ws = [schedule_l_rows(sc, l) for l in ls]
    shifts = [(sc.from_last < l).sum(axis=1) for l in ls]
    # Keys over (tau, l < n, area <= n^2, dinv <= n^2 plus an inv, mask <
    # 2^(n-1)): a value outside its radix raises ValueError.
    radices = (nt, n, n * n + 1, n * n + n * (n - 1) // 2 + 1, 1 << (n - 1))
    bad = np.zeros((nt, n), dtype=bool)
    for b in np.unique(blocks).tolist():
        inv, y_mask, y_count, scalar = young_counts(n, b)
        mine = np.flatnonzero(blocks == b)
        # The table rows at the deviations of ls, times Σ_π q^inv.
        tau_of, row = _rows_of(table, taus[mine])
        keep = np.isin(table.columns[1][row], ls)
        r, row = mine[tau_of[keep]], row[keep]
        dev, area, dinv, mask = (col[row, None] for col in table.columns[1:])
        parts = [(np.ravel_multi_index(
            (r[:, None], dev, area, dinv + np.arange(len(scalar)), mask),
            radices).ravel(),
            (table.counts[row, None] * np.array(scalar)).ravel())]
        # Each closed-form term times each Young row, subtracted; a Young
        # mask has only block bits, none in ides(tau), so | is a union.
        for j, l in enumerate(ls):
            cases = mine[nruns[mine] > l]
            term, i, c = closed_form_terms(ws[j][cases])
            r = cases[term, None]
            parts.append((np.ravel_multi_index(
                (r, l, majs[r], shifts[j][r] + i[:, None] + inv,
                 ides[r] | y_mask), radices).ravel(),
                (-c[:, None] * y_count).ravel()))
        keys, sums = kernels.sum_by_key(parts)
        bad[np.unravel_index(keys[sums != 0], radices)[:2]] = True
    return bad[:, list(ls)]
