"""Symmetric functions in the power-sum basis with q-Laurent coefficients.

Everything here is a finite linear combination F of products of power
sums p_1, p_2, ..., with coefficients that are Laurent polynomials in q
(``QTPoly`` values with no t).  The power sums are algebraically
independent, so F is stored as its Hall pairings f_lambda = <F, p_lambda>
= z_lambda [p_lambda] F, one per partition lambda.  <s_mu, p_lambda> is
a character value, so every F built here, having integer Schur
coefficients, has integer pairings; 1/z_lambda returns only in print.

Two alphabet substitutions drive the module, and both are applied in
closed form, so no pairing ever leaves the integer ring.

The creation operator

    c_op(a, F) = (-1/q)^(a-1) [z^a] (F[X - (1-1/q)/z] * sum_m z^m h_m)

shifts every p_k by phi_k z^-k, phi_k = q^-k - 1.  Expanding the shifted
p_lambda binomially and reading off z^a gives, with rho = lambda - S and
nu = rho + mu for the sub-multisets S of lambda and mu |- a + |S|,

    <C_a F, p_nu> = (-1/q)^(a-1) z_nu/(z_rho z_mu) sum_S f_(rho+S) phi^S/z_S,

since z_lambda = z_rho z_S prod_p C(m_p, j_p) cancels the binomials.

The scale X -> X (1-z)/(1-q) defines the family E_{n,k} through

    e_n[X (1-z)/(1-q)] = sum_k ((z;q)_k / (q;q)_k) E_{n,k},

a system triangular in z.  ``e_nk`` clears the denominators of each
p_lambda pairing by lambda's own factors prod_i (1 - q^lambda_i), which
leaves integer constants.  The leading coefficient of (z;q)_k in z is
the unit monomial (-1)^k q^(k(k-1)/2), so back-substitution only divides
by units; multiplying by (q;q)_k and dividing by 1 - q^lambda_i once
per part recovers E_{n,k}.

The checks at the bottom verify that the E_{n,k} from that triangular
system agree with sums of composition-indexed operator products, and
that their [n]_q/[k]_q-weighted sum collapses to a single power sum.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial, prod
from typing import Dict, Iterator, List, Mapping, Sequence, Tuple

from .qt import (QTPoly, Scalar, as_poly, q_poly, qq_poch, render,
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


def compositions(n: int) -> Iterator[Partition]:
    """Positive tuples summing to n, largest first part first."""
    if n == 0:
        yield ()
        return
    for first in range(n, 0, -1):
        for rest in compositions(n - first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def z_lambda(lam: Partition) -> int:
    """The centralizer size prod_i i^(m_i) m_i! for multiplicities m."""
    out = 1
    for part, m in Counter(lam).items():
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
    """Linear combination of p_lambda with QTPoly coefficients, stored as
    its pairings <F, p_lambda>."""

    __slots__ = ("_pairings",)

    def __init__(self, coeffs: Mapping[Sequence[int], Scalar] | None = None):
        """The sum of c p_lambda over the items {lambda: c}."""
        data: Dict[Partition, QTPoly] = {}
        for lam, c in (coeffs or {}).items():
            lam = _normalize_partition(lam)
            _accumulate(data, lam, as_poly(c) * z_lambda(lam))
        self._pairings = data

    @classmethod
    def _wrap(cls, data: Dict[Partition, QTPoly]) -> "PExpansion":
        """Adopt a dict of sorted partitions to nonzero pairings."""
        res = cls.__new__(cls)
        res._pairings = data
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
        """(lambda, <F, p_lambda>) for each nonzero pairing, by size."""
        return iter(sorted(self._pairings.items(),
                           key=lambda kv: (sum(kv[0]), kv[0])))

    def degree(self) -> int:
        """Largest partition size present; 0 for the zero element."""
        return max((sum(lam) for lam in self._pairings), default=0)

    def __add__(self, other: "PExpansion") -> "PExpansion":
        if not isinstance(other, PExpansion):
            return NotImplemented
        out = dict(self._pairings)
        for lam, c in other._pairings.items():
            _accumulate(out, lam, c)
        return PExpansion._wrap(out)

    def __mul__(self, other: Scalar) -> "PExpansion":
        """Scale every coefficient by a QTPoly or an int."""
        try:
            c = as_poly(other)
        except TypeError:
            return NotImplemented
        out = {}
        for lam, cl in self._pairings.items():
            scaled = cl * c
            if scaled:
                out[lam] = scaled
        return PExpansion._wrap(out)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PExpansion):
            return NotImplemented
        return self._pairings == other._pairings

    def _printed(self) -> Iterator[Tuple[str, str]]:
        """(lambda as "parts,joined", f_lambda/z_lambda printed), by size."""
        for lam, f in self.items():
            yield (",".join(str(v) for v in lam), render(
                (e, Fraction(c, z_lambda(lam))) for e, c in f.terms()))

    def json(self) -> str:
        obj = {lam: f"({c})" for lam, c in self._printed()}
        return json.dumps(obj, separators=(",", ":"))

    def __str__(self) -> str:
        return " + ".join(f"({c})*p[{lam}]"
                          for lam, c in self._printed()) or "0"

    def __repr__(self) -> str:
        return f"PExpansion({self})"


def _require_degree(n: int) -> None:
    if not 1 <= n <= DEGREE_BOUND:
        raise ValueError(f"degree must lie in 1..{DEGREE_BOUND}, got {n}")


def _newton(n: int, signed: bool) -> PExpansion:
    _require_degree(n)
    return PExpansion._wrap({
        lam: QTPoly.const(-1 if signed and (n - len(lam)) % 2 else 1)
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


def shift_factor(k: int) -> QTPoly:
    """q^-k - 1: what subtracting (1 - 1/q)/z adds to p_k, per z^-k."""
    return QTPoly.q(-k) - 1


@lru_cache(maxsize=None)
def shift_terms(
        lam: Partition) -> Tuple[Tuple[Tuple[Partition, int], QTPoly], ...]:
    """((lambda - S, s), phi^S s!/z_S) for each sub-multiset S of lambda,
    where s = |S| and phi^S is the product of shift_factor over S.

    s!/z_S counts the permutations of cycle type S, so each entry is an
    integer polynomial.  Cached: one entry per partition of size below
    DEGREE_BOUND at most.
    """
    mult = Counter(lam)
    out = []
    for js in product(*(range(m + 1) for m in mult.values())):
        removed = tuple(part for part, j in zip(mult, js) for _ in range(j))
        rest = [part for (part, m), j in zip(mult.items(), js)
                for _ in range(m - j)]
        size = sum(removed)
        phi = prod(map(shift_factor, removed), start=QTPoly.one())
        out.append(((_normalize_partition(rest), size),
                    phi * (factorial(size) // z_lambda(removed))))
    return tuple(out)


def c_op(a: int, F: PExpansion) -> PExpansion:
    """(-1/q)^(a-1) [z^a] (F[X - (1-1/q)/z] * sum_m z^m h_m[X]).

    A term of the shift that removed S from lambda carries z^-|S|, so it
    meets z^a in z^(a+|S|) h_(a+|S|).  Terms are grouped by rho, what is
    left of lambda, and by s = |S|.  A group sums to s! times the integer
    <F, p_rho h_s[X (1/q - 1)]>, and it reaches the pairing with
    p_(rho + mu), for each mu of size a + s, times z_(rho+mu)/(z_rho z_mu).
    """
    if a < 1:
        raise ValueError(f"operator index must be positive: {a}")
    if F.degree() + a > DEGREE_BOUND:
        raise ValueError(
            f"result degree {F.degree() + a} exceeds bound {DEGREE_BOUND}")
    grouped: Dict[Tuple[Partition, int], QTPoly] = {}
    for lam, f in F._pairings.items():
        for key, c in shift_terms(lam):
            _accumulate(grouped, key, f * c)
    sign = QTPoly.monomial(1 - a, 0, (-1) ** (a - 1))
    out: Dict[Partition, QTPoly] = {}
    for (rest, size), g in grouped.items():
        d = factorial(size)
        if any(c % d for _, c in g.terms()):
            raise RuntimeError(f"c_op({a}): the terms that leave p_{rest} "
                               f"do not divide by {size}!")
        g = QTPoly({e: c // d for e, c in g.terms()}) * sign
        z_rest = z_lambda(rest)
        for mu in partitions(a + size):
            nu = _merge(rest, mu)
            _accumulate(out, nu, g * (z_lambda(nu) // (z_rest * z_lambda(mu))))
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


def scaled_e_row(lam: Partition) -> List[int]:
    """[z^j] of prod_i (1 - q^lambda_i) times the pairing of
    e_n[X (1-z)/(1-q)] with p_lambda, for j = 0..n and n = |lambda|.

    The scale multiplies each p_k by (1 - z^k)/(1 - q^k), so the row is
    eps_lambda [z^j] prod_i (1 - z^lambda_i), free of q.
    """
    n = sum(lam)
    out = [(-1) ** (n - len(lam))] + [0] * n
    for part in lam:
        for j in range(n, part - 1, -1):
            out[j] -= out[j - part]
    return out


def _unit_inverse(c: QTPoly) -> QTPoly:
    if len(c) != 1:
        raise RuntimeError(f"leading z coefficient {c} is not a monomial")
    (qe, te), v = next(c.terms())
    if v not in (1, -1):
        raise RuntimeError(f"leading z coefficient {c} is not a unit")
    return QTPoly.monomial(-qe, -te, v)


def e_nk(n: int) -> List[PExpansion]:
    """(E_{n,1}, ..., E_{n,n}) solving the triangular z-expansion of the
    scaled elementary symmetric function.

    Times prod_i (1 - q^lambda_i) the pairing of e_n[X (1-z)/(1-q)]
    with p_lambda is the polynomial in z whose coefficients
    ``scaled_e_row`` lists, and it equals sum_k (z;q)_k y_k with
    y_k = x_k prod_i (1 - q^lambda_i)/(q;q)_k, where x_k is the
    pairing of E_{n,k} with p_lambda.  Back-substitution from z^n down
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


@lru_cache(maxsize=None)
def _c_sum(m: int, k: int) -> PExpansion:
    """The sum of C_alpha 1 over the compositions alpha of m with k parts.

    C_a is linear, so the alpha whose first part is a sum to C_a applied
    to the sum over their tails, which have k - 1 parts and size m - a.
    Cached: one entry per m <= DEGREE_BOUND and k <= m, so hmz_check(n)
    makes O(n^3) c_op calls in place of one per composition.
    """
    if k == 1:
        return c_op(m, PExpansion.one())
    total = PExpansion.zero()
    for a in range(1, m - k + 2):
        total = total + c_op(a, _c_sum(m - a, k - 1))
    return total


def hmz_check(n: int) -> bool:
    """Does each E_{n,k} equal the sum of operator products over
    compositions of n with k parts?"""
    return e_nk(n) == [_c_sum(n, k) for k in range(1, n + 1)]


def pn_identity_check(n: int) -> bool:
    """Does sum_k [n]_q/[k]_q E_{n,k} equal the signed power sum
    (-1)^(n-1) p_n?  Both sides are taken times [n]_q!, which clears
    every [k]_q."""
    fact, multipliers = square_paths_multipliers(n)
    acc = PExpansion.zero()
    for piece, mult in zip(e_nk(n), multipliers):
        acc = acc + piece * q_poly(mult, 0, 0)
    return acc == p_pure(n) * (q_poly(fact, 0, 0) * (-1) ** (n - 1))

