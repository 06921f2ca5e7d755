"""Fundamental quasisymmetric functions and path-family generating sums.

Degree-n quasisymmetric quantities live in coordinates indexed by
subsets S of {1, ..., n-1}: the fundamental basis element Q_S is the sum
of monomials x_{a_1} ... x_{a_n} over weakly increasing index words that
rise strictly at each position in S.  Equivalently Q_S = sum of M_T over
supersets T of S, where M_T is the monomial quasisymmetric function of
the composition whose partial sums are T; inverting by inclusion
-exclusion turns monomial coordinates back into fundamental ones.

The generating sums attach the weight t^area q^dinv Q_ides to each
preference function.  Grouped by diagonal word these sums factor: the
ides sets occurring for a fixed diagonal word tau differ from ides(tau)
only inside the consecutive blocks of tau (maximal sets of consecutive
values i, i+1, ... appearing adjacently), and the discrepancies are
carried by a permutation from the Young subgroup preserving those
blocks.  factor_check verifies the resulting product identity with all
four factors computed by independent means.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain, permutations, product
from typing import Dict, FrozenSet, Iterator, List, Optional
from typing import Sequence, Tuple

import numpy as np

from . import aggregate, kernels
from .qt import ONE, QTPoly, q_factorial, q_int
from .schedules import ides as perm_ides
from .schedules import inv as perm_inv
from .schedules import pref_closed_form, runs

Subset = FrozenSet[int]
Composition = Tuple[int, ...]


def subsets_of_range(n: int) -> Iterator[Subset]:
    """All subsets of {1, ..., n-1}, smallest masks first."""
    for mask in range(1 << max(n - 1, 0)):
        yield frozenset(i + 1 for i in range(n - 1) if mask >> i & 1)


def subset_to_composition(s: Subset, n: int) -> Composition:
    """Composition of n whose partial sums are exactly s."""
    cuts = sorted(s)
    if cuts and (cuts[0] < 1 or cuts[-1] > n - 1):
        raise ValueError(f"subset {sorted(s)} not within 1..{n - 1}")
    bounds = [0] + cuts + [n]
    return tuple(bounds[i + 1] - bounds[i] for i in range(len(bounds) - 1))


def composition_to_subset(alpha: Sequence[int]) -> Subset:
    if any(part < 1 for part in alpha):
        raise ValueError(f"composition parts must be positive: {alpha}")
    total = 0
    out = []
    for part in alpha[:-1]:
        total += part
        out.append(total)
    return frozenset(out)


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
            if not c.is_zero():
                clean[key] = c
        self.coeffs = clean

    @classmethod
    def zero(cls, n: int) -> "QSymF":
        return cls(n)

    @classmethod
    def fundamental(cls, s: Subset, n: int,
                    coeff: QTPoly = ONE) -> "QSymF":
        return cls(n, {frozenset(s): coeff})

    def coefficient(self, s: Subset) -> QTPoly:
        return self.coeffs.get(frozenset(s), QTPoly.zero())

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "QSymF") -> "QSymF":
        if self.n != other.n:
            raise ValueError("degrees differ")
        merged = dict(self.coeffs)
        for s, c in other.coeffs.items():
            merged[s] = merged.get(s, QTPoly.zero()) + c
        return QSymF(self.n, merged)

    def __sub__(self, other: "QSymF") -> "QSymF":
        return self + other * -1

    def __mul__(self, scalar) -> "QSymF":
        """Scale every coefficient; scalar is a QTPoly or integer."""
        if isinstance(scalar, int):
            scalar = QTPoly.const(scalar)
        if not isinstance(scalar, QTPoly):
            return NotImplemented
        return QSymF(self.n, {s: c * scalar for s, c in self.coeffs.items()})

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QSymF):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self):
        raise TypeError("QSymF is not hashable")

    def total(self) -> QTPoly:
        """Sum of all coefficients: the image under Q_S -> 1."""
        out = QTPoly.zero()
        for c in self.coeffs.values():
            out = out + c
        return out

    def to_json_obj(self) -> Dict[str, str]:
        return {",".join(str(i) for i in sorted(s)): str(c)
                for s, c in sorted(self.coeffs.items(),
                                   key=lambda kv: _sort_key(kv[0]))}

    def json(self) -> str:
        return json.dumps(self.to_json_obj(), separators=(",", ":"))

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


@dataclass(frozen=True)
class MonomialForm:
    """Monomial-basis coordinates: composition of n -> coefficient."""

    n: int
    coeffs: Tuple[Tuple[Composition, QTPoly], ...]

    def __init__(self, n: int, coeffs):
        items = []
        seen = set()
        for alpha, c in (coeffs.items() if isinstance(coeffs, dict)
                         else coeffs):
            alpha = tuple(alpha)
            if sum(alpha) != n or any(p < 1 for p in alpha):
                raise ValueError(f"not a composition of {n}: {alpha}")
            if alpha in seen:
                raise ValueError(f"duplicate composition {alpha}")
            seen.add(alpha)
            if not c.is_zero():
                items.append((alpha, c))
        items.sort(key=lambda kv: kv[0])
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", tuple(items))

    def coefficient(self, alpha: Sequence[int]) -> QTPoly:
        alpha = tuple(alpha)
        for beta, c in self.coeffs:
            if beta == alpha:
                return c
        return QTPoly.zero()


def expand_in_fundamentals(m: MonomialForm) -> QSymF:
    """Unique c with m = sum c_S Q_S, by inclusion-exclusion over subsets."""
    n = m.n
    lookup = {composition_to_subset(alpha): c for alpha, c in m.coeffs}
    out: Dict[Subset, QTPoly] = {}
    for t in subsets_of_range(n):
        acc = QTPoly.zero()
        members = sorted(t)
        for mask in range(1 << len(members)):
            s = frozenset(members[i] for i in range(len(members))
                          if mask >> i & 1)
            c = lookup.get(s)
            if c is not None:
                sign = -1 if (len(t) - len(s)) % 2 else 1
                acc = acc + c * sign
        if not acc.is_zero():
            out[t] = acc
    return QSymF(n, out)


def _qsym_from_counts(n: int, counts: Dict[Tuple[int, int, int], int]) -> QSymF:
    # Each (area, dinv, mask) key is distinct: one term per key, and one
    # QTPoly per ides mask built at once.
    by_mask: Dict[int, Dict[Tuple[int, int], int]] = {}
    for (area, dinv, mask), c in counts.items():
        by_mask.setdefault(mask, {})[dinv, area] = c
    return QSymF(n, {kernels.decode_ides(mask, n): QTPoly(terms)
                     for mask, terms in by_mask.items()})


def qsym_for_diagword(n: int, tau: Sequence[int],
                      deviation: Optional[int] = None,
                      threads: int = 1) -> QSymF:
    """Table-backed Σ t^area q^dinv Q_ides over functions with diagonal
    word tau, optionally restricted to one deviation."""
    tau = tuple(tau)
    table = aggregate.qsym_by_diagword(n, threads=threads)
    out = QSymF.zero(n)
    for dev in range(n) if deviation is None else (deviation,):
        counts = table.get((tau, dev))
        if counts:
            out = out + _qsym_from_counts(n, counts)
    return out


def withides_residue(n: int, tau: Sequence[int], k: int, threads: int = 1
                     ) -> Dict[Tuple[int, int, int], int]:
    """The nonzero counts {(area, dinv, mask): c} of
    A (1 - q^k) - B (1 - q^n), where A = qsym_for_diagword(n, tau) and
    B = its deviation-0 part.

    Empty exactly when A [k]_q = B [n]_q, since (1 - q) is no zero
    divisor.  The deviation-0 counts cancel at q^0 and leave
    q^n - q^k; the others give 1 - q^k.
    """
    tau = tuple(tau)
    table = aggregate.qsym_by_diagword(n, threads=threads)
    out: Dict[Tuple[int, int, int], int] = {}
    for dev in range(n):
        shift = n if dev == 0 else 0
        for (area, dinv, mask), c in table.get((tau, dev), {}).items():
            up, down = (area, dinv + shift, mask), (area, dinv + k, mask)
            out[up] = out.get(up, 0) + c
            out[down] = out.get(down, 0) - c
    return {key: c for key, c in out.items() if c}


def qsym_for_touch(n: int, touch: int, threads: int = 1) -> QSymF:
    """Table-backed sum over parking functions with the given touch."""
    table = aggregate.qsym_by_touch(n, threads=threads)
    counts = table.get((touch, True))
    return _qsym_from_counts(n, counts) if counts else QSymF.zero(n)


def qsym_total(n: int, threads: int = 1) -> QSymF:
    """Sum over all n^n preference functions."""
    table = aggregate.qsym_by_touch(n, threads=threads)
    out = QSymF.zero(n)
    for counts in table.values():
        out = out + _qsym_from_counts(n, counts)
    return out


def square_paths_multipliers(n: int) -> Tuple[QTPoly, List[QTPoly]]:
    """[n]_q! and, for k = 1..n, [n]_q [n]_q!/[k]_q.

    Times these, qsym_total(n) = Σ_k [n]_q/[k]_q qsym_for_touch(n, k)
    has no [k]_q denominator left.
    """
    fact = q_factorial(n)
    return fact, [q_int(n) * fact.divexact(q_int(k)) for k in range(1, n + 1)]


def _q_coefficients(poly: QTPoly) -> np.ndarray:
    """The integer coefficients of a polynomial in q alone, q^0 first."""
    terms = list(poly.terms())
    out = np.zeros(terms[-1][0][0] + 1, dtype=np.int64)
    for (i, _), c in terms:
        out[i] = int(c)
    return out


def _add_times(out: np.ndarray, counts: np.ndarray, coeffs: np.ndarray
               ) -> None:
    """out += counts times the polynomial coeffs, along the q axis."""
    width = counts.shape[1]
    for i, c in enumerate(coeffs.tolist()):
        if c:
            out[:, i:i + width] += c * counts


def square_paths_residue(n: int, threads: int = 1) -> np.ndarray:
    """T [n]_q! - Σ_k P_k [n]_q [n]_q!/[k]_q in integer counts: one row
    per (area, ides mask) of the touch table, one column per power of q.

    T counts all n^n functions and P_k the parking functions of touch k,
    by (area, dinv, ides mask).  All zero exactly when qsym_total(n)
    [n]_q! equals Σ_k qsym_for_touch(n, k) [n]_q [n]_q!/[k]_q.  Raises
    ValueError before any table is built when an entry could leave int64.
    """
    lhs, rhs = square_paths_multipliers(n)
    lhs, rhs = _q_coefficients(lhs), [_q_coefficients(m) for m in rhs]
    # T and the P_k each hold at most n^n counts, so every partial sum is
    # at most n^n times the sum of all multiplier coefficients.
    bound = n ** n * (int(lhs.sum()) + sum(int(m.sum()) for m in rhs))
    if bound >= 2 ** 63:
        raise ValueError(f"n = {n}: square-path sums may reach {bound} "
                         f"> 2^63 - 1")
    table = aggregate.qsym_by_touch(n, threads=threads)
    cells = [np.fromiter(chain.from_iterable(counts), dtype=np.int64,
                         count=3 * len(counts)).reshape(-1, 3)
             for counts in table.values()]
    values = [np.fromiter(counts.values(), dtype=np.int64, count=len(counts))
              for counts in table.values()]
    keys = np.concatenate(cells)
    rows, row_of = np.unique(keys[:, 0] << (n - 1) | keys[:, 2],
                             return_inverse=True)
    width = int(keys[:, 1].max()) + 1
    total = np.zeros((len(rows), width), dtype=np.int64)
    out = np.zeros((len(rows), width + len(rhs[0]) - 1), dtype=np.int64)
    start = 0
    for (touch, park), cell, c in zip(table, cells, values):
        # The (area, dinv, mask) keys of one table entry are distinct.
        at = row_of[start:start + len(cell)], cell[:, 1]
        start += len(cell)
        total[at] += c
        if park:
            part = np.zeros_like(total)
            part[at] = c
            _add_times(out, part, -rhs[touch - 1])
    _add_times(out, total, lhs)
    return out


@dataclass(frozen=True)
class ConsecutiveBlocks:
    """Partition of [n] into maximal runs of values appearing adjacently.

    i and i+1 share a block exactly when i stands directly left of i+1
    in tau; blocks are stored ascending by smallest value.
    """

    tau: Tuple[int, ...]
    blocks: Tuple[Tuple[int, ...], ...]


def consecutive_blocks(tau: Sequence[int]) -> ConsecutiveBlocks:
    t = runs(tau).tau  # validates the permutation
    pos = {v: i for i, v in enumerate(t)}
    blocks: List[List[int]] = [[1]]
    for v in range(2, len(t) + 1):
        if pos[v] == pos[v - 1] + 1:
            blocks[-1].append(v)
        else:
            blocks.append([v])
    return ConsecutiveBlocks(t, tuple(tuple(b) for b in blocks))


def yconsec_elements(cb: ConsecutiveBlocks) -> Iterator[
        Tuple[Tuple[int, ...], int, Subset]]:
    """(one-line word, inv, ides) for each element of the Young subgroup.

    inv and ides are assembled blockwise; values in distinct blocks are
    never inverted and never form an ides pair, because each block is an
    interval mapped to itself.
    """
    n = len(cb.tau)
    per_block = [list(permutations(b)) for b in cb.blocks]
    for choice in product(*per_block):
        word = list(range(1, n + 1))
        total_inv = 0
        ided: List[int] = []
        for block, sigma in zip(cb.blocks, choice):
            for slot, v in zip(block, sigma):
                word[slot - 1] = v
            position = {v: i for i, v in enumerate(sigma)}
            total_inv += sum(1 for i in range(len(sigma))
                             for j in range(i + 1, len(sigma))
                             if sigma[i] > sigma[j])
            ided.extend(v for v in block[:-1]
                        if position[v + 1] < position[v])
        yield tuple(word), total_inv, frozenset(ided)


def yconsec_inv_sum(cb: ConsecutiveBlocks) -> QTPoly:
    """Σ q^inv over the Young subgroup: the product of [|b|]_q!."""
    out = ONE
    for b in cb.blocks:
        out = out * q_factorial(len(b))
    return out


def factor_check(tau: Sequence[int], l: int, threads: int = 1) -> bool:
    """Cross-multiplied factorization of the diagword-tau, deviation-l sum.

    Checks  (Σ t^a q^d Q_ides) * (Σ_π q^inv)
          = (Σ t^a q^d) * (Σ_π q^inv Q_{ides(tau) ∪ ides(π)}),
    with the left quasisymmetric sum taken from the enumeration tables,
    the scalar Σ_π q^inv from the block q-factorial product, the right
    quasisymmetric sum from explicit Young-subgroup enumeration, and the
    scalar t,q-sum from the schedule closed form.
    """
    rd = runs(tau)
    n = len(rd.tau)
    if not 0 <= l < len(rd.runs):
        raise ValueError(
            f"deviation {l} needs at least {l + 1} runs; "
            f"{rd.tau} has {len(rd.runs)}")
    lhs = qsym_for_diagword(n, rd.tau, deviation=l, threads=threads)
    cb = consecutive_blocks(rd.tau)
    scalar = yconsec_inv_sum(cb)
    base_ides = perm_ides(rd.tau)
    rhs = QSymF.zero(n)
    enumerated = QTPoly.zero()
    for word, invs, extra in yconsec_elements(cb):
        qpow = QTPoly.q(invs) if invs else ONE
        enumerated = enumerated + qpow
        rhs = rhs + QSymF.fundamental(base_ides | extra, n, qpow)
    if enumerated != scalar:
        raise RuntimeError(f"Young subgroup of {rd.tau}: q-count {enumerated} "
                           f"differs from block q-factorials {scalar}")
    return lhs * scalar == rhs * pref_closed_form(rd.tau, l)
