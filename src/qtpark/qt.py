"""Exact sparse arithmetic in the variables q and t.

One ring covers everything the rest of the package needs: ``QTPoly``,
Laurent polynomials in q and t with ``fractions.Fraction`` coefficients,
stored as a dict mapping ``(q_exponent, t_exponent)`` to a nonzero
coefficient.  Negative exponents are allowed.  Every quotient the package
forms is a polynomial; ``QTPoly.divexact`` computes it and raises when the
division is not exact.

Canonical string form (used by every serializer in the package): terms are
sorted lexicographically by (q exponent, t exponent), each term is rendered
as ``coefficient*q^a*t^b`` with unit parts omitted, and terms are joined by
`` + ``.  Examples: ``1 + q + q*t^2``, ``-q^-1 + 2/3*t``.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Dict, Iterator, Mapping, Tuple, Union

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

    @classmethod
    def t(cls, exp: int = 1) -> "QTPoly":
        return cls({(0, exp): 1})

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

    def evaluate(self, qv: Union[int, Fraction], tv: Union[int, Fraction]) -> Fraction:
        """Evaluate at rational q=qv, t=tv (nonzero if negative exponents occur)."""
        qv, tv = Fraction(qv), Fraction(tv)
        total = Fraction(0)
        for (qe, te), c in self._terms.items():
            total += c * qv ** qe * tv ** te
        return total

    # -- exact division ----------------------------------------------

    def divexact(self, other: "QTPoly") -> "QTPoly":
        """Exact quotient self/other; raises ValueError when not divisible.

        Leading-term reduction under the (q, t) lexicographic order.  For
        Laurent polynomials with finite support, the extreme exponents of a
        product are the sums of the factors' extremes, which bounds every
        exponent a genuine quotient can use; stepping outside that box
        proves indivisibility and guarantees termination.
        """
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return QTPoly.zero()

        def extremes(p: "QTPoly"):
            qs = [e[0] for e in p._terms]
            ts = [e[1] for e in p._terms]
            return min(qs), max(qs), min(ts), max(ts)

        nql, nqh, ntl, nth = extremes(self)
        dql, dqh, dtl, dth = extremes(other)
        qlo, qhi = nql - dql, nqh - dqh
        tlo, thi = ntl - dtl, nth - dth

        lead_d = max(other._terms)  # (q, t) lex
        cd = other._terms[lead_d]
        rem = dict(self._terms)
        quot: Dict[Exponent, Fraction] = {}
        budget = (qhi - qlo + 1) * (thi - tlo + 1) + 1
        while rem:
            lead_r = max(rem)
            e = (lead_r[0] - lead_d[0], lead_r[1] - lead_d[1])
            if not (qlo <= e[0] <= qhi and tlo <= e[1] <= thi):
                raise ValueError("polynomials do not divide exactly")
            budget -= 1
            if budget < 0:
                raise ValueError("polynomials do not divide exactly")
            c = rem[lead_r] / cd
            quot[e] = c
            for (qb, tb), cb in other._terms.items():
                key = (e[0] + qb, e[1] + tb)
                acc = rem.get(key)
                s = (acc if acc is not None else Fraction(0)) - c * cb
                if s:
                    rem[key] = s
                elif acc is not None:
                    del rem[key]
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


def q_factorial(n: int) -> QTPoly:
    """[n]_q! = [1]_q [2]_q ... [n]_q; requires n >= 0."""
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"q_factorial requires a nonnegative integer, got {n!r}")
    out = QTPoly.one()
    for i in range(1, n + 1):
        out = out * q_int(i)
    return out


def qq_poch(k: int) -> QTPoly:
    """(q; q)_k = (1 - q)(1 - q^2)...(1 - q^k); requires k >= 0."""
    if not isinstance(k, int) or k < 0:
        raise ValueError(f"qq_poch requires a nonnegative integer, got {k!r}")
    out = QTPoly.one()
    for i in range(1, k + 1):
        out = out * (QTPoly.one() - QTPoly.q(i))
    return out

