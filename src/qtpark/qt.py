"""Exact sparse arithmetic in the variables q and t.

One ring covers everything the rest of the package needs: ``QTPoly``,
Laurent polynomials in q and t with integer coefficients, stored as a
dict mapping ``(q_exponent, t_exponent)`` to a nonzero ``int``.
Negative exponents are allowed.  ``as_poly`` is the one way a scalar
enters the ring.

Canonical string form (used by every serializer in the package): terms are
sorted lexicographically by (q exponent, t exponent), each term is rendered
as ``coefficient*q^a*t^b`` with unit parts omitted, and terms are joined by
`` + ``.  Examples: ``1 + q + q*t^2``, ``-q^-1 + 2*t``.  ``render``
writes that form for any coefficients with ``str``, so a rational
coefficient prints as ``2/3*t``.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod
from operator import index
from typing import (Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple,
                    Union)

Exponent = Tuple[int, int]
Coeff = int
Scalar = Union["QTPoly", int]


class QTPoly:
    """Sparse Laurent polynomial in q and t over the integers."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Exponent, Coeff] | None = None):
        data: Dict[Exponent, Coeff] = {}
        if terms:
            for (qe, te), c in terms.items():
                if type(c) is bool:  # stored as the int 1 or 0
                    c = int(c)
                elif not isinstance(c, int):
                    raise TypeError(f"expected int, got {type(c).__name__}")
                key = (index(qe), index(te))
                if c:
                    data[key] = c
        self._terms = data

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "QTPoly":
        return cls()

    @classmethod
    def one(cls) -> "QTPoly":
        return cls({(0, 0): 1})

    @classmethod
    def const(cls, c: Coeff) -> "QTPoly":
        return cls({(0, 0): c})

    @classmethod
    def monomial(cls, qexp: int = 0, texp: int = 0,
                 coeff: Coeff = 1) -> "QTPoly":
        return cls({(qexp, texp): coeff})

    @classmethod
    def q(cls, exp: int = 1) -> "QTPoly":
        return cls({(exp, 0): 1})

    # -- inspection ---------------------------------------------------

    def terms(self) -> Iterator[Tuple[Exponent, Coeff]]:
        """Yield (exponent pair, coefficient) sorted by (q exp, t exp)."""
        return iter(sorted(self._terms.items()))

    def coefficient(self, qexp: int, texp: int) -> Coeff:
        return self._terms.get((qexp, texp), 0)

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- arithmetic ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QTPoly):
            try:
                other = as_poly(other)
            except TypeError:
                return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: Scalar) -> "QTPoly":
        if not isinstance(other, QTPoly):
            other = as_poly(other)
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

    def __sub__(self, other: Scalar) -> "QTPoly":
        return self + -as_poly(other)

    def __rsub__(self, other) -> "QTPoly":
        return (-self) + other

    def __mul__(self, other: Scalar) -> "QTPoly":
        if not isinstance(other, QTPoly):
            try:
                other = as_poly(other)
            except TypeError:
                return NotImplemented
        out: Dict[Exponent, int] = {}
        for (qa, ta), ca in self._terms.items():
            for (qb, tb), cb in other._terms.items():
                e = (qa + qb, ta + tb)
                out[e] = out.get(e, 0) + ca * cb
        res = QTPoly.__new__(QTPoly)
        res._terms = {e: v for e, v in out.items() if v}
        return res

    __rmul__ = __mul__

    # -- rendering ----------------------------------------------------

    def __str__(self) -> str:
        return render(self.terms())

    def __repr__(self) -> str:
        return f"QTPoly({self})"


def as_poly(value: Scalar) -> QTPoly:
    """A QTPoly as it is, an int as a constant; anything else raises
    TypeError."""
    return value if isinstance(value, QTPoly) else QTPoly.const(value)


def render(terms: Iterable[Tuple[Exponent, object]]) -> str:
    """The canonical string of nonzero ((q exp, t exp), coefficient)
    terms, given sorted by exponent pair; "0" when there are none."""
    parts = []
    for (qe, te), c in terms:
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
    return " + ".join(parts) or "0"


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
    return tuple(poly.coefficient(i, 0)
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
