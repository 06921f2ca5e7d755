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

    e_n[X (1-z)/(1-q)] = sum_k ((z;q)_k / (q;q)_k) E_{n,k}.

Paired with p_lambda, the left side is eps_lambda = (-1)^(n - len(lambda))
times the product over the parts of (1 - z^lambda_i)/(1 - q^lambda_i).
At z = q^-j every (z;q)_k with k > j vanishes, and (1 - q^(-jm))/(1 - q^m)
is -q^(-jm) [j]_(q^m), so the identity turns triangular in j:

    A_j = sum_(k<=j) (-1)^(j+k) q^(C(k,2) - jk) [j choose k]_q x_k,
    A_j = (-1)^(n+j) q^(-jn) prod_i [j]_(q^lambda_i),

for x_k = <E_{n,k}, p_lambda>, since (q^-j;q)_k/(q;q)_k is
(-1)^k q^(C(k,2) - jk) [j choose k]_q.  Gaussian inversion solves it,

    x_k = q^k sum_(j=1..k) q^C(j,2) [k choose j]_q A_j,

and by the q-binomial theorem that sum is (prod_(i<k) (1 + q^i S) A)_0,
S the shift A_j -> A_(j+1).  ``e_nk`` reads every pairing from it with
integer products and sums: nothing is divided.

The checks at the bottom verify that the E_{n,k} from that closed form
agree with sums of composition-indexed operator products, and that their
[n]_q/[k]_q-weighted sum collapses to a single power sum.
"""

from __future__ import annotations

import json
import operator
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial, prod
from typing import Dict, Iterator, List, Mapping, Sequence, Tuple

from .qt import (QTPoly, Scalar, as_poly, q_poly, render,
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
    parts = tuple(sorted(filter(None, map(operator.index, lam)), reverse=True))
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


def e_in_p(n: int) -> PExpansion:
    """Elementary e_n = sum over partitions of (-1)^(n-len) p_lambda/z_lambda."""
    _require_degree(n)
    return PExpansion._wrap({lam: QTPoly.const((-1) ** (n - len(lam)))
                             for lam in partitions(n)})


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
    parts = tuple(map(operator.index, rho))
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


def e_nk(n: int) -> List[PExpansion]:
    """(E_{n,1}, ..., E_{n,n}), with <E_{n,k}, p_lambda> read as
    q^k (prod_(i<k) (1 + q^i S) A)_0, the closed form of the module
    docstring.

    Each k applies one more factor to b, the A_j shifted so far: one pass
    of shifted adds.  The powers [j]_(q^m)^c of lambda's parts m, each
    held c times, are built once per call.
    """
    _require_degree(n)
    powers: Dict[Tuple[int, int], List[QTPoly]] = {}

    def q_int_power(j: int, m: int, c: int) -> QTPoly:
        row = powers.setdefault((j, m), [QTPoly.one()])
        while len(row) <= c:
            row.append(row[-1] * QTPoly({(m * i, 0): 1 for i in range(j)}))
        return row[c]

    solved: List[Dict[Partition, QTPoly]] = [{} for _ in range(n)]
    for lam in partitions(n):
        mult = Counter(lam).items()
        b = [QTPoly.zero()] + [  # A_0 = 0: [0]_(q^m) is the empty sum
            prod((q_int_power(j, m, c) for m, c in mult),
                 start=QTPoly.monomial(-j * n, 0, (-1) ** (n + j)))
            for j in range(1, n + 1)]
        for k in range(1, n + 1):
            shift = QTPoly.q(k - 1)
            b = [lo + shift * hi for lo, hi in zip(b, b[1:])]
            x = b[0] * QTPoly.q(k)
            if x:
                solved[k - 1][lam] = x
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
    return acc == PExpansion.p(n) * (q_poly(fact, 0, 0) * (-1) ** (n - 1))

