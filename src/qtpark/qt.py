"""Exact sparse arithmetic in the variables q and t.

One ring covers everything the rest of the package needs: ``QTPoly``,
Laurent polynomials in q and t with ``fractions.Fraction`` coefficients,
stored as a dict mapping ``(q_exponent, t_exponent)`` to a nonzero
coefficient.  Negative exponents are allowed.  The only division the
package needs is by a factor 1 - q^m, which ``QTPoly.over_one_minus_q``
performs; it raises when the quotient is not a polynomial.

Canonical string form (used by every serializer in the package): terms are
sorted lexicographically by (q exponent, t exponent), each term is rendered
as ``coefficient*q^a*t^b`` with unit parts omitted, and terms are joined by
`` + ``.  Examples: ``1 + q + q*t^2``, ``-q^-1 + 2/3*t``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm, prod
from typing import Dict, Iterator, List, Mapping, Sequence, Tuple, Union

Exponent = Tuple[int, int]


def _coerce(value: Union[int, Fraction]) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


class QTPoly:
    """Sparse Laurent polynomial in q and t over the rationals."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Exponent, Union[int, Fraction]] | None = None):
        data: Dict[Exponent, Fraction] = {}
        if terms:
            for (qe, te), c in terms.items():
                c = _coerce(c)
                if c:
                    key = (int(qe), int(te))
                    acc = data.get(key)
                    data[key] = acc + c if acc is not None else c
                    if not data[key]:
                        del data[key]
        self._terms = data

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "QTPoly":
        return cls()

    @classmethod
    def one(cls) -> "QTPoly":
        return cls({(0, 0): 1})

    @classmethod
    def const(cls, c: Union[int, Fraction]) -> "QTPoly":
        return cls({(0, 0): c})

    @classmethod
    def monomial(cls, qexp: int = 0, texp: int = 0,
                 coeff: Union[int, Fraction] = 1) -> "QTPoly":
        return cls({(qexp, texp): coeff})

    @classmethod
    def q(cls, exp: int = 1) -> "QTPoly":
        return cls({(exp, 0): 1})

    # -- inspection ---------------------------------------------------

    def terms(self) -> Iterator[Tuple[Exponent, Fraction]]:
        """Yield (exponent pair, coefficient) sorted by (q exp, t exp)."""
        return iter(sorted(self._terms.items()))

    def coefficient(self, qexp: int, texp: int) -> Fraction:
        return self._terms.get((qexp, texp), Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    # -- arithmetic ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QTPoly):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == QTPoly.const(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "QTPoly") -> "QTPoly":
        if isinstance(other, (int, Fraction)):
            other = QTPoly.const(other)
        if not isinstance(other, QTPoly):
            return NotImplemented
        out = dict(self._terms)
        for e, c in other._terms.items():
            acc = out.get(e)
            s = acc + c if acc is not None else c
            if s:
                out[e] = s
            elif acc is not None:
                del out[e]
        res = QTPoly.__new__(QTPoly)
        res._terms = out
        return res

    __radd__ = __add__

    def __neg__(self) -> "QTPoly":
        res = QTPoly.__new__(QTPoly)
        res._terms = {e: -c for e, c in self._terms.items()}
        return res

    def __sub__(self, other: "QTPoly") -> "QTPoly":
        return self + (-other if isinstance(other, QTPoly) else QTPoly.const(-other))

    def __rsub__(self, other) -> "QTPoly":
        return (-self) + other

    def __mul__(self, other) -> "QTPoly":
        if isinstance(other, (int, Fraction)):
            c = _coerce(other)
            if not c:
                return QTPoly.zero()
            res = QTPoly.__new__(QTPoly)
            res._terms = {e: cc * c for e, cc in self._terms.items()}
            return res
        if not isinstance(other, QTPoly):
            return NotImplemented
        # Scale both sides to integers, sum the products as ints and make
        # one Fraction per term, not one per product.
        da = lcm(*(c.denominator for c in self._terms.values()))
        db = lcm(*(c.denominator for c in other._terms.values()))
        right = [(qb, tb, cb.numerator * (db // cb.denominator))
                 for (qb, tb), cb in other._terms.items()]
        ints: Dict[Exponent, int] = {}
        for (qa, ta), ca in self._terms.items():
            na = ca.numerator * (da // ca.denominator)
            for qb, tb, nb in right:
                e = (qa + qb, ta + tb)
                ints[e] = ints.get(e, 0) + na * nb
        res = QTPoly.__new__(QTPoly)
        res._terms = {e: Fraction(v, da * db) for e, v in ints.items() if v}
        return res

    __rmul__ = __mul__

    # -- division by (1 - q^m) ----------------------------------------

    def over_one_minus_q(self, m: int) -> "QTPoly":
        """self/(1 - q^m) for m >= 1; raises ValueError unless exact.

        Per power of t the quotient r satisfies r_j = self_j + r_(j-m),
        run upward from the lowest power of q.  It is a polynomial only
        when the top m of those sums, r_j for j > (highest power) - m,
        are zero.
        """
        rows: Dict[int, Dict[int, Fraction]] = {}
        for (qe, te), c in self._terms.items():
            rows.setdefault(te, {})[qe] = c
        quot: Dict[Exponent, Fraction] = {}
        for te, row in rows.items():
            lo, hi = min(row), max(row)
            r: Dict[int, Fraction] = {}
            for j in range(lo, hi + 1):
                s = row.get(j, 0) + r.get(j - m, 0)
                if s:
                    r[j] = s
            if max(r) > hi - m:
                raise ValueError(f"not divisible by 1 - q^{m}")
            quot.update(((j, te), c) for j, c in r.items())
        res = QTPoly.__new__(QTPoly)
        res._terms = quot
        return res

    # -- rendering ----------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for (qe, te), c in sorted(self._terms.items()):
            factors = []
            if qe == 1:
                factors.append("q")
            elif qe:
                factors.append(f"q^{qe}")
            if te == 1:
                factors.append("t")
            elif te:
                factors.append(f"t^{te}")
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            elif c == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(str(c) + "*" + "*".join(factors))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"QTPoly({self})"


ONE = QTPoly.one()


def q_int(n: int) -> QTPoly:
    """The q-analogue [n]_q = 1 + q + ... + q^(n-1); requires n >= 1."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"q_int requires a positive integer, got {n!r}")
    return QTPoly({(i, 0): 1 for i in range(n)})


@lru_cache(maxsize=None)
def q_int_product(weights: Tuple[int, ...]) -> Tuple[int, ...]:
    """The integer coefficients of prod_w [w]_q, q^0 first, for a sorted
    tuple of positive weights: built once per multiset, with QTPoly
    products, and cached."""
    poly = prod(map(q_int, weights), start=ONE)
    return tuple(int(poly.coefficient(i, 0))
                 for i in range(sum(weights) - len(weights) + 1))


def square_paths_multipliers(n: int) -> Tuple[Tuple[int, ...],
                                               List[Tuple[int, ...]]]:
    """The integer q-coefficients of [n]_q! and, for k = 1..n, of
    [n]_q [n]_q!/[k]_q, the product over {1..n} with k swapped for n.

    Times these, qsym_total(n) = Σ_k [n]_q/[k]_q qsym_for_touch(n, k)
    has no [k]_q denominator left.
    """
    return q_int_product(tuple(range(1, n + 1))), [
        q_int_product((*range(1, k), *range(k + 1, n + 1), n))
        for k in range(1, n + 1)]


def q_poly(coeffs: Sequence[int], qexp: int, texp: int) -> QTPoly:
    """t^texp q^qexp (c_0 + c_1 q + c_2 q^2 + ...) for coeffs c_i."""
    return QTPoly({(qexp + i, texp): c for i, c in enumerate(coeffs)})


def qq_poch(k: int) -> QTPoly:
    """(q; q)_k = (1 - q)(1 - q^2)...(1 - q^k); requires k >= 0."""
    if not isinstance(k, int) or k < 0:
        raise ValueError(f"qq_poch requires a nonnegative integer, got {k!r}")
    out = QTPoly.one()
    for i in range(1, k + 1):
        out = out * (QTPoly.one() - QTPoly.q(i))
    return out

