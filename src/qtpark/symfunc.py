"""Symmetric functions in the power-sum basis with q-Laurent coefficients.

Everything here is a finite linear combination of products of power
sums p_1, p_2, ..., with coefficients that are Laurent polynomials in q
(``QTPoly`` values with no t).  The power sums are algebraically
independent, so a combination is stored as a mapping from partitions to
coefficients and products merge partitions by concatenation.

Two alphabet substitutions drive the module, and both are applied in
closed form, so no coefficient ever leaves the polynomial ring.

The creation operator

    c_op(a, F) = (-1/q)^(a-1) [z^a] (F[X - (1-1/q)/z] * sum_m z^m h_m)

shifts every p_k by (q^-k - 1) z^-k.  Expanding the shifted p_lambda
binomially and reading off z^a gives

    C_a p_lambda = (-1/q)^(a-1) sum_S prod_p C(m_p, j_p) (q^-p - 1)^j_p
                   p_(lambda - S) h_(a + |S|)

over the sub-multisets S of lambda (j_p copies of the part p, out of the
m_p that lambda has), with h_m = sum_mu p_mu / z_mu.

The scale X -> X (1-z)/(1-q) defines the family E_{n,k} through

    e_n[X (1-z)/(1-q)] = sum_k ((z;q)_k / (q;q)_k) E_{n,k},

a system triangular in z.  ``e_nk`` clears the denominators of each
p_lambda row by lambda's own factors prod_i (1 - q^lambda_i), which
leaves rational constants.  The leading coefficient of (z;q)_k in z is
the unit monomial (-1)^k q^(k(k-1)/2), so back-substitution only divides
by monomials; multiplying by (q;q)_k and dividing by 1 - q^lambda_i once
per part recovers E_{n,k}.

The checks at the bottom verify that the E_{n,k} from that triangular
system agree with sums of composition-indexed operator products, and
that their [n]_q/[k]_q-weighted sum collapses to a single power sum.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Dict, Iterator, List, Mapping, Sequence, Tuple

from .qt import (QTPoly, Scalar, as_poly, q_poly, qq_poch,
                 square_paths_multipliers)

Partition = Tuple[int, ...]

DEGREE_BOUND = 12


def partitions(n: int, max_part: int | None = None) -> Iterator[Partition]:
    """Weakly decreasing positive tuples summing to n."""
    if n < 0:
        raise ValueError(f"cannot partition {n}")
    if n == 0:
        yield ()
        return
    cap = n if max_part is None else min(max_part, n)
    for first in range(cap, 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def compositions(n: int, length: int | None = None) -> Iterator[Partition]:
    """Positive tuples summing to n, largest first part first; optionally
    restricted to a fixed number of parts."""
    if n == 0:
        if length in (None, 0):
            yield ()
        return
    for first in range(n, 0, -1):
        for rest in compositions(n - first,
                                 None if length is None else length - 1):
            yield (first,) + rest


def _multiplicities(lam: Sequence[int]) -> Dict[int, int]:
    mult: Dict[int, int] = {}
    for part in lam:
        mult[part] = mult.get(part, 0) + 1
    return mult


def z_lambda(lam: Sequence[int]) -> int:
    """The centralizer size prod_i i^(m_i) m_i! for multiplicities m."""
    out = 1
    for part, m in _multiplicities(lam).items():
        out *= part ** m * factorial(m)
    return out


def _normalize_partition(lam: Sequence[int]) -> Partition:
    parts = tuple(sorted((int(v) for v in lam if v), reverse=True))
    if any(v < 0 for v in parts):
        raise ValueError(f"negative part in {tuple(lam)}")
    return parts


def _merge(a: Partition, b: Partition) -> Partition:
    return tuple(sorted(a + b, reverse=True))


def _accumulate(out: Dict[Partition, QTPoly], key: Partition,
                term: QTPoly) -> None:
    s = out[key] + term if key in out else term
    if not s:
        out.pop(key, None)
    else:
        out[key] = s


class PExpansion:
    """Linear combination of p_lambda with QTPoly coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[Sequence[int], Scalar] | None = None):
        data: Dict[Partition, QTPoly] = {}
        for lam, c in (coeffs or {}).items():
            _accumulate(data, _normalize_partition(lam), as_poly(c))
        self._coeffs = data

    @classmethod
    def _wrap(cls, data: Dict[Partition, QTPoly]) -> "PExpansion":
        """Adopt a dict of sorted partitions to nonzero coefficients."""
        res = cls.__new__(cls)
        res._coeffs = data
        return res

    @classmethod
    def zero(cls) -> "PExpansion":
        return cls()

    @classmethod
    def one(cls) -> "PExpansion":
        return cls({(): 1})

    @classmethod
    def p(cls, k: int) -> "PExpansion":
        if k < 1:
            raise ValueError(f"power sum index must be positive: {k}")
        return cls({(k,): 1})

    def items(self) -> Iterator[Tuple[Partition, QTPoly]]:
        return iter(sorted(self._coeffs.items(),
                           key=lambda kv: (sum(kv[0]), kv[0])))

    def degree(self) -> int:
        """Largest partition size present; 0 for the zero element."""
        return max((sum(lam) for lam in self._coeffs), default=0)

    def __add__(self, other: "PExpansion") -> "PExpansion":
        if not isinstance(other, PExpansion):
            return NotImplemented
        out = dict(self._coeffs)
        for lam, c in other._coeffs.items():
            _accumulate(out, lam, c)
        return PExpansion._wrap(out)

    def __mul__(self, other: Scalar) -> "PExpansion":
        """Scale every coefficient by a QTPoly, an int or a Fraction."""
        try:
            c = as_poly(other)
        except TypeError:
            return NotImplemented
        out = {}
        for lam, cl in self._coeffs.items():
            prod = cl * c
            if prod:
                out[lam] = prod
        return PExpansion._wrap(out)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PExpansion):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        raise TypeError("PExpansion is not hashable")

    def json(self) -> str:
        obj = {",".join(str(v) for v in lam): f"({c})"
               for lam, c in self.items()}
        return json.dumps(obj, separators=(",", ":"))

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        return " + ".join(f"({c})*p[{','.join(str(v) for v in lam)}]"
                          for lam, c in self.items())

    def __repr__(self) -> str:
        return f"PExpansion({self})"


def _require_degree(n: int) -> None:
    if not 1 <= n <= DEGREE_BOUND:
        raise ValueError(f"degree must lie in 1..{DEGREE_BOUND}, got {n}")


def _newton(n: int, signed: bool) -> PExpansion:
    _require_degree(n)
    return PExpansion._wrap({
        lam: QTPoly.const(Fraction(
            -1 if signed and (n - len(lam)) % 2 else 1, z_lambda(lam)))
        for lam in partitions(n)})


def e_in_p(n: int) -> PExpansion:
    """Elementary e_n = sum over partitions of (-1)^(n-len) p_lambda/z_lambda."""
    return _newton(n, signed=True)


def h_in_p(m: int) -> PExpansion:
    """Complete homogeneous h_m = sum of p_lambda/z_lambda."""
    return _newton(m, signed=False)


def p_pure(n: int) -> PExpansion:
    _require_degree(n)
    return PExpansion.p(n)


@lru_cache(maxsize=None)
def _h_terms(m: int) -> Tuple[Tuple[Partition, Fraction], ...]:
    """(mu, 1/z_mu) for every partition mu of m: the terms of h_m."""
    return tuple((mu, Fraction(1, z_lambda(mu))) for mu in partitions(m))


def shift_factor(k: int) -> QTPoly:
    """q^-k - 1: what subtracting (1 - 1/q)/z adds to p_k, per z^-k."""
    return QTPoly.q(-k) - 1


@lru_cache(maxsize=None)
def shift_terms(
        lam: Partition) -> Tuple[Tuple[Tuple[Partition, int], QTPoly], ...]:
    """p_lambda[X - (1 - 1/q)/z] as ((lambda - S, |S|), coefficient) pairs.

    Each p_p^m becomes sum_j C(m, j) shift_factor(p)^j z^(-p j) p_p^(m-j),
    so the term that removes the sub-multiset S carries z^-|S|.  Cached:
    at most one entry per partition of size below DEGREE_BOUND.
    """
    terms: Dict[Tuple[Partition, int], QTPoly] = {((), 0): QTPoly.one()}
    for part, m in _multiplicities(lam).items():
        a = shift_factor(part)
        powers = [QTPoly.one()]
        for _ in range(m):
            powers.append(powers[-1] * a)
        nxt: Dict[Tuple[Partition, int], QTPoly] = {}
        for (rest, size), c in terms.items():
            for j in range(m + 1):
                key = (rest + (part,) * (m - j), size + part * j)
                nxt[key] = c * (powers[j] * comb(m, j))
        terms = nxt
    return tuple(((_normalize_partition(rest), size), c)
                 for (rest, size), c in terms.items())


def c_op(a: int, F: PExpansion) -> PExpansion:
    """(-1/q)^(a-1) [z^a] (F[X - (1-1/q)/z] * sum_m z^m h_m[X]).

    A term of the shift that removed S from lambda carries z^-|S|, so it
    meets z^a in z^(a+|S|) h_(a+|S|).  Terms are grouped by what is left
    of lambda and by |S| before h is expanded.
    """
    if a < 1:
        raise ValueError(f"operator index must be positive: {a}")
    if F.degree() + a > DEGREE_BOUND:
        raise ValueError(
            f"result degree {F.degree() + a} exceeds bound {DEGREE_BOUND}")
    grouped: Dict[Tuple[Partition, int], QTPoly] = {}
    for lam, c in F._coeffs.items():
        for key, f in shift_terms(lam):
            _accumulate(grouped, key, c * f)
    sign = QTPoly.monomial(1 - a, 0, (-1) ** (a - 1))
    out: Dict[Partition, QTPoly] = {}
    for (rest, size), g in grouped.items():
        g = g * sign
        for mu, inv_z in _h_terms(a + size):
            _accumulate(out, _merge(rest, mu), g * inv_z)
    return PExpansion._wrap(out)


def c_composition(rho: Sequence[int]) -> PExpansion:
    """C_{rho_1} ... C_{rho_k} applied to 1, rightmost factor first."""
    parts = tuple(int(v) for v in rho)
    if not parts or any(v < 1 for v in parts):
        raise ValueError(f"need a composition with positive parts: {parts}")
    return _c_suffix(parts)


@lru_cache(maxsize=None)
def _c_suffix(parts: Partition) -> PExpansion:
    """C_alpha 1, built on the cached value of its suffix alpha[1:].

    At most one entry per composition of size DEGREE_BOUND or less.
    """
    inner = _c_suffix(parts[1:]) if len(parts) > 1 else PExpansion.one()
    return c_op(parts[0], inner)


def zq_poch_coefficients(k: int) -> List[QTPoly]:
    """[z^j] (z; q)_k for j = 0..k, where (z; q)_k = prod_(i<k) (1 - z q^i)."""
    out = [QTPoly.one()]
    for i in range(k):
        shifted = [QTPoly.zero()] + [c * QTPoly.q(i) for c in out]
        out = [c - s for c, s in zip(out + [QTPoly.zero()], shifted)]
    return out


def scaled_e_row(lam: Partition) -> List[Fraction]:
    """[z^j] of prod_i (1 - q^lambda_i) times the coefficient of p_lambda
    in e_n[X (1-z)/(1-q)], for j = 0..n and n = |lambda|.

    The scale multiplies each p_k by (1 - z^k)/(1 - q^k), so the row is
    eps_lambda/z_lambda [z^j] prod_i (1 - z^lambda_i), free of q.
    """
    n = sum(lam)
    out = [Fraction((-1) ** (n - len(lam)), z_lambda(lam))]
    out += [Fraction(0)] * n
    for part in lam:
        for j in range(n, part - 1, -1):
            out[j] -= out[j - part]
    return out


def _unit_inverse(c: QTPoly) -> QTPoly:
    if len(c) != 1:
        raise RuntimeError(f"leading z coefficient {c} is not a monomial")
    (qe, te), v = next(c.terms())
    return QTPoly.monomial(-qe, -te, Fraction(1, v))


def e_nk(n: int) -> List[PExpansion]:
    """(E_{n,1}, ..., E_{n,n}) solving the triangular z-expansion of the
    scaled elementary symmetric function.

    Times prod_i (1 - q^lambda_i) the coefficient of p_lambda in
    e_n[X (1-z)/(1-q)] is the polynomial in z whose coefficients
    ``scaled_e_row`` lists, and it equals sum_k (z;q)_k y_k with
    y_k = x_k prod_i (1 - q^lambda_i)/(q;q)_k, where x_k is the
    coefficient of p_lambda in E_{n,k}.  Back-substitution from z^n down
    to z^1 finds the y_k; z^0 is the one equation left over, and is
    checked.  Then x_k is y_k (q;q)_k divided by 1 - q^lambda_i once for
    each part.
    """
    _require_degree(n)
    basis = {k: zq_poch_coefficients(k) for k in range(1, n + 1)}
    lead_inv = {k: _unit_inverse(basis[k][k]) for k in basis}
    poch = {k: qq_poch(k) for k in basis}
    solved: List[Dict[Partition, QTPoly]] = [{} for _ in range(n)]
    for lam in partitions(n):
        lhs = scaled_e_row(lam)
        ys: Dict[int, QTPoly] = {}
        for j in range(n, 0, -1):
            residual = QTPoly.const(lhs[j])
            for k in range(j + 1, n + 1):
                residual = residual - basis[k][j] * ys[k]
            ys[j] = residual * lead_inv[j]
        for k, y in ys.items():
            x = y * poch[k]
            try:
                for part in lam:
                    x = x.over_one_minus_q(part)
            except ValueError:
                raise RuntimeError(
                    f"e_nk({n}): coefficient of {lam} in E_{n},{k} is not "
                    f"a polynomial") from None
            if x:
                solved[k - 1][lam] = x
        constant = QTPoly.zero()
        for k, y in ys.items():
            constant = constant + basis[k][0] * y
        if constant != lhs[0]:
            raise RuntimeError(f"e_nk({n}): constant term of {lam} unsolved")
    return [PExpansion._wrap(d) for d in solved]


def hmz_check(n: int) -> bool:
    """Does each E_{n,k} equal the sum of operator products over
    compositions of n with k parts?"""
    series = e_nk(n)
    for k in range(1, n + 1):
        total = PExpansion.zero()
        for rho in compositions(n, length=k):
            total = total + c_composition(rho)
        if total != series[k - 1]:
            return False
    return True


def pn_identity_check(n: int) -> bool:
    """Does sum_k [n]_q/[k]_q E_{n,k} equal the signed power sum
    (-1)^(n-1) p_n?  Both sides are taken times [n]_q!, which clears
    every [k]_q."""
    fact, multipliers = square_paths_multipliers(n)
    acc = PExpansion.zero()
    for piece, mult in zip(e_nk(n), multipliers):
        acc = acc + piece * q_poly(mult, 0, 0)
    return acc == p_pure(n) * (q_poly(fact, 0, 0) * (-1) ** (n - 1))

