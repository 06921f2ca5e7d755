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
(inv, ides) distribution is the product of S_m's over its blocks.

The table-backed sums read a count table that their caller built once
(``aggregate.qsym_by_diagword`` or ``qsym_by_touch``) and passes in; this
module builds no table.  The integer decisions read the table's columns
in numpy and build no QSymF: withides_failures decides the withides
scaling for a whole block of diagonal words at once, factor_check the
factorization for one diagonal word at each of its deviations, and
square_paths_residue the square-paths identity for one n.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from . import kernels
from .qt import (QTPoly, Scalar, as_poly, q_int_product,
                 square_paths_multipliers)
from .schedules import ides as perm_ides
from .schedules import (Decomposable, _decomposed, maj, permutation_rows,
                        require_deviation, schedule_l)

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


def withides_failures(table, taus: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Whether A (1 - q^k) - B (1 - q^n) is nonzero, for each row tau of
    the (N, n) array ``taus`` and its k in ``ks``, where A =
    qsym_for_diagword(table, tau), B = its deviation-0 part.

    Nonzero exactly when A [k]_q != B [n]_q, since (1 - q) is no zero
    divisor.  The deviation-0 counts cancel at q^0 and leave
    q^n - q^k; the others give 1 - q^k.  So each row of tau adds its count
    at (tau, area, dinv + n [dev = 0], mask) and takes it away at (tau,
    area, dinv + k, mask), and tau fails when a sum is nonzero.  Every tau
    is the diagword of some function, so a table without a row of tau
    (another tau's or of another size) raises ValueError rather than read
    as a pass.
    """
    nt, n = taus.shape
    lo, hi = table.span(np.ravel_multi_index((taus - 1).T, (n,) * n))
    empty = np.flatnonzero(hi == lo)
    if len(empty):
        raise ValueError(f"the table holds no function of diagword "
                         f"{tuple(taus[empty[0]].tolist())}")
    size = hi - lo
    tau_of = np.repeat(np.arange(nt), size)
    row = np.arange(len(tau_of)) + np.repeat(lo - np.cumsum(size) + size,
                                             size)
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


def consecutive_blocks(tau: Decomposable) -> Tuple[Tuple[int, ...], ...]:
    """The partition of 1..n into maximal runs of values appearing
    adjacently: i and i+1 share a block exactly when i stands directly
    left of i+1 in tau.  Blocks ascend by smallest value.  tau may be
    given as its RunDecomposition."""
    t = _decomposed(tau).tau  # validates the permutation
    pos = {v: i for i, v in enumerate(t)}
    blocks: List[List[int]] = [[1]]
    for v in range(2, len(t) + 1):
        if pos[v] == pos[v - 1] + 1:
            blocks[-1].append(v)
        else:
            blocks.append([v])
    return tuple(tuple(b) for b in blocks)


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


def factor_check(table, tau: Decomposable, ls: Sequence[int]) -> List[bool]:
    """Whether the cross-multiplied factorization of the diagword-tau,
    deviation-l sum holds, for each l of ``ls``.

    Checks  (Σ t^a q^d Q_ides) * (Σ_π q^inv)
          = (Σ t^a q^d) * (Σ_π q^inv Q_{ides(tau) ∪ ides(π)}),
    with the left quasisymmetric sum read from ``table`` (a
    ``qsym_by_diagword`` table), the scalar Σ_π q^inv from the block
    q-factorial product, the right quasisymmetric sum from S_m's joint
    (inv, ides) counts per block, and the scalar t,q-sum from the
    schedule closed form.  Both sides are integer counts keyed by (l,
    area, dinv, mask), and an l holds when their difference is zero at
    every key.  The Young-subgroup counts do not depend on l and are
    combined once.  tau may be given as its RunDecomposition.
    """
    rd = _decomposed(tau)
    n = len(rd.tau)
    for l in ls:
        require_deviation(rd, l)  # before the table is read
    blocks = consecutive_blocks(rd)
    # Σ_π q^inv Q_{ides(tau) ∪ ides(π)} as (inv, mask, count) rows: a
    # block of values s..s+m-1 maps to itself, so its ides bits are S_m's
    # shifted by s - 1, none of them in ides(tau), and its invs add.
    inv = np.zeros(1, dtype=np.int64)
    mask = np.array([sum(1 << (i - 1) for i in perm_ides(rd.tau))])
    count = np.ones(1, dtype=np.int64)
    for block in blocks:
        if len(block) > 1:
            b_inv, b_mask, b_count = inv_ides_counts(len(block))
            inv = (inv[:, None] + b_inv).ravel()
            mask = (mask[:, None] | b_mask << (block[0] - 1)).ravel()
            count = (count[:, None] * b_count).ravel()
    scalar = q_int_product(tuple(sorted(
        i for b in blocks for i in range(1, len(b) + 1))))
    by_inv = np.zeros(int(inv.max()) + 1, dtype=np.int64)
    np.add.at(by_inv, inv, count)
    if tuple(by_inv.tolist()) != scalar:
        raise RuntimeError(f"Young subgroup of {rd.tau}: q-count "
                           f"{by_inv.tolist()} differs from block "
                           f"q-factorials {list(scalar)}")
    # Each side's rows times its scalar's coefficients along dinv, keyed
    # over (l < n, area <= n^2, dinv <= n^2 plus an inv, mask < 2^(n-1)):
    # a value outside its radix raises ValueError.
    radices = (n, n * n + 1, n * n + n * (n - 1) // 2 + 1, 1 << (n - 1))

    def part(l, area, dinv, mask, count, coeffs):
        j = np.arange(len(coeffs))
        return (np.ravel_multi_index((l, area, dinv + j, mask),
                                     radices).ravel(),
                (count * np.array(coeffs)).ravel())

    rows = table.rows(kernels.encode_perm(rd.tau, n))
    dev, area, dinv, t_mask = (col[rows, None] for col in table.columns[1:])
    keep = (dev == np.asarray(ls)).any(axis=1)
    parts = [part(dev[keep], area[keep], dinv[keep], t_mask[keep],
                  table.counts[rows, None][keep], scalar)]
    tau_maj = maj(rd.tau)
    for l in ls:
        shift = sum(rd.rho_from_last(j) for j in range(l))
        closed = q_int_product(tuple(sorted(schedule_l(rd, l).values())))
        parts.append(part(l, tau_maj, shift + inv[:, None], mask[:, None],
                          -count[:, None], closed))
    keys, sums = kernels.sum_by_key(parts)
    failed = set(np.unravel_index(keys[sums != 0], radices)[0].tolist())
    return [l not in failed for l in ls]
