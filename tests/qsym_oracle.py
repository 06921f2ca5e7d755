"""QSymF, the tests' oracle for the integer count rows of qtpark.quasisym.

A QSymF holds a degree-n quasisymmetric function as a dict from subsets S
of 1..n-1 to the QTPoly coefficient of Q_S.  The readers here build one
from ``table_helpers.counts_at``, apart from quasisym's numpy path, and
the sides and report of cor-withides and main-square-paths are rebuilt
from them with QTPoly arithmetic.
"""

from itertools import permutations
from typing import Dict, FrozenSet, Optional, Sequence, Tuple

from table_helpers import counts_at

from qtpark import kernels
from qtpark.qt import QTPoly, Scalar, as_poly, q_int, q_poly
from qtpark.qt import square_paths_multipliers
from qtpark.schedules import runs

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


def qsym_from_counts(n: int, counts: Dict[Tuple[int, int, int], int]) -> QSymF:
    """The QSymF of {(area, dinv, mask): count}."""
    by_mask: Dict[int, Dict[Tuple[int, int], int]] = {}
    for (area, dinv, mask), c in counts.items():
        by_mask.setdefault(mask, {})[dinv, area] = c
    return QSymF(n, {kernels.decode_ides(mask, n): QTPoly(terms)
                     for mask, terms in by_mask.items()})


def qsym_of_rows(n: int, rows) -> QSymF:
    """The QSymF of quasisym count rows (keys, counts), each key mask *
    (n^2 + 1) + area."""
    keys, counts = rows
    return qsym_from_counts(n, {
        (area, dinv, mask): c
        for key, row in zip(keys.tolist(), counts.tolist())
        for mask, area in [divmod(key, n * n + 1)]
        for dinv, c in enumerate(row) if c})


def for_diagword(table, tau: Sequence[int],
                 deviation: Optional[int] = None) -> QSymF:
    """The sum over functions of diagword tau (and deviation)."""
    code = kernels.encode_perm(tau, len(tau))
    return qsym_from_counts(len(tau), counts_at(table, code)
                            if deviation is None
                            else counts_at(table, code, deviation))


def for_touch(table, n: int, touch: int) -> QSymF:
    """The sum over parking functions of the given touch."""
    return qsym_from_counts(n, counts_at(table, touch, 1))


def total(table, n: int) -> QSymF:
    """The sum over all n^n functions."""
    return qsym_from_counts(n, counts_at(table))


def withides_sides(table, tau: Sequence[int]) -> Tuple[QSymF, QSymF]:
    """A [k]_q and B [n]_q, where B is the deviation-0 part of A and k is
    tau's last run length."""
    return (for_diagword(table, tau) * q_int(len(runs(tau)[-1])),
            for_diagword(table, tau, deviation=0) * q_int(len(tau)))


def withides_sides_differ(table, n: int):
    """Per tau of size n, in permutation order, whether its withides sides
    differ."""
    return [lhs != rhs for lhs, rhs in (
        withides_sides(table, tau) for tau in permutations(range(1, n + 1)))]


def square_paths_sides(table, n: int) -> Tuple[QSymF, QSymF]:
    """qsym_total [n]_q! and Σ_k qsym_for_touch(k) [n]_q [n]_q!/[k]_q."""
    lhs, rhs = square_paths_multipliers(n)
    out = QSymF.zero(n)
    for k, mult in enumerate(rhs, start=1):
        out = out + for_touch(table, n, k) * q_poly(mult, 0, 0)
    return total(table, n) * q_poly(lhs, 0, 0), out


def first_difference(lhs: QSymF, rhs: QSymF):
    """The first Q_S, in sorted-subset order, whose coefficients differ,
    as a report; None when none does."""
    for s in sorted(lhs.coeffs.keys() | rhs.coeffs.keys(), key=sorted):
        if lhs.coefficient(s) != rhs.coefficient(s):
            return {"subset": sorted(s), "lhs": str(lhs.coefficient(s)),
                    "rhs": str(rhs.coefficient(s))}
    return None
