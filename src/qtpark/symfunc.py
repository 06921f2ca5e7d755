"""Symmetric functions in the power-sum basis with a Laurent parameter.

Everything here is a finite linear combination of products of power
sums p_1, p_2, ..., with coefficients rational in q, t and Laurent in an
auxiliary variable z.  The power sums are algebraically independent, so
a combination is stored as a mapping from partitions to coefficients and
products merge partitions by concatenation.

Substituting a new alphabet is diagonal or additive on power sums,
which is why this basis is the working one: scaling the alphabet by a
symbol g sends p_k to g(k) p_k, while subtracting an alphabet A sends
p_k to p_k - p_k[A].  Two specific substitutions drive the module: the
shift by (1 - 1/q)/z used inside the creation operator

    c_op(a, F) = (-1/q)^(a-1) [z^a] (F[X - (1-1/q)/z] * sum_m z^m h_m)

and the scale X -> X (1-z)/(1-q) whose expansion

    e_n[X (1-z)/(1-q)] = sum_k ((z;q)_k / (q;q)_k) E_{n,k}

is triangular in z and defines the family E_{n,k} by back-substitution.
The checks at the bottom verify that the E_{n,k} from that triangular
system agree with sums of composition-indexed operator products, and
that their [n]_q/[k]_q-weighted sum collapses to a single power sum.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Callable, Dict, Iterator, List, Mapping, Sequence, Tuple
from typing import Union

from .qt import ONE, QTPoly, QTRatio, ZPoly, poch_zq, q_int, qq_poch
from .quasisym import MonomialForm, QSymF, expand_in_fundamentals

Partition = Tuple[int, ...]

DEGREE_BOUND = 12

Scalar = Union[ZPoly, QTRatio, QTPoly, int, Fraction]


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


def z_lambda(lam: Sequence[int]) -> int:
    """The centralizer size prod_i i^(m_i) m_i! for multiplicities m."""
    mult: Dict[int, int] = {}
    for part in lam:
        mult[part] = mult.get(part, 0) + 1
    out = 1
    for part, m in mult.items():
        out *= part ** m * factorial(m)
    return out


def _as_zpoly(value: Scalar) -> ZPoly:
    return value if isinstance(value, ZPoly) else ZPoly.scalar(value)


def _normalize_partition(lam: Sequence[int]) -> Partition:
    parts = tuple(sorted((int(v) for v in lam if v), reverse=True))
    if any(v < 0 for v in parts):
        raise ValueError(f"negative part in {tuple(lam)}")
    return parts


class PExpansion:
    """Linear combination of p_lambda with ZPoly coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[Sequence[int], Scalar] | None = None):
        data: Dict[Partition, ZPoly] = {}
        if coeffs:
            for lam, c in coeffs.items():
                key = _normalize_partition(lam)
                z = _as_zpoly(c)
                if key in data:
                    z = data[key] + z
                if z.is_zero():
                    data.pop(key, None)
                else:
                    data[key] = z
        self._coeffs = data

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

    def coefficient(self, lam: Sequence[int]) -> ZPoly:
        return self._coeffs.get(_normalize_partition(lam), ZPoly.zero())

    def items(self) -> Iterator[Tuple[Partition, ZPoly]]:
        return iter(sorted(self._coeffs.items(),
                           key=lambda kv: (sum(kv[0]), kv[0])))

    def is_zero(self) -> bool:
        return not self._coeffs

    def degree(self) -> int:
        """Largest partition size present; 0 for the zero element."""
        return max((sum(lam) for lam in self._coeffs), default=0)

    def is_homogeneous(self, d: int) -> bool:
        return all(sum(lam) == d for lam in self._coeffs)

    def is_z_free(self) -> bool:
        return all(c.is_z_free() for c in self._coeffs.values())

    def min_z_exp(self) -> int:
        return min((c.min_exp() for c in self._coeffs.values()), default=0)

    def z_coefficient(self, a: int) -> "PExpansion":
        """The (z-free) part multiplying z^a."""
        out: Dict[Partition, ZPoly] = {}
        for lam, c in self._coeffs.items():
            r = c.coefficient(a)
            if not r.is_zero():
                out[lam] = ZPoly.scalar(r)
        res = PExpansion.__new__(PExpansion)
        res._coeffs = out
        return res

    def __add__(self, other: "PExpansion") -> "PExpansion":
        if not isinstance(other, PExpansion):
            return NotImplemented
        out = dict(self._coeffs)
        for lam, c in other._coeffs.items():
            s = out[lam] + c if lam in out else c
            if s.is_zero():
                out.pop(lam, None)
            else:
                out[lam] = s
        res = PExpansion.__new__(PExpansion)
        res._coeffs = out
        return res

    def __neg__(self) -> "PExpansion":
        res = PExpansion.__new__(PExpansion)
        res._coeffs = {lam: -c for lam, c in self._coeffs.items()}
        return res

    def __sub__(self, other: "PExpansion") -> "PExpansion":
        return self + (-other)

    def __mul__(self, other) -> "PExpansion":
        if isinstance(other, PExpansion):
            out: Dict[Partition, ZPoly] = {}
            for la, ca in self._coeffs.items():
                for lb, cb in other._coeffs.items():
                    key = tuple(sorted(la + lb, reverse=True))
                    prod = ca * cb
                    s = out[key] + prod if key in out else prod
                    if s.is_zero():
                        out.pop(key, None)
                    else:
                        out[key] = s
            res = PExpansion.__new__(PExpansion)
            res._coeffs = out
            return res
        if isinstance(other, (ZPoly, QTRatio, QTPoly, int, Fraction)):
            z = _as_zpoly(other)
            out = {}
            for lam, c in self._coeffs.items():
                prod = c * z
                if not prod.is_zero():
                    out[lam] = prod
            res = PExpansion.__new__(PExpansion)
            res._coeffs = out
            return res
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PExpansion):
            return NotImplemented
        keys = set(self._coeffs) | set(other._coeffs)
        return all(self.coefficient(lam) == other.coefficient(lam)
                   for lam in keys)

    def __hash__(self):
        raise TypeError("PExpansion is not hashable")

    def json(self) -> str:
        obj = {",".join(str(v) for v in lam): str(c)
               for lam, c in self.items()}
        return json.dumps(obj, separators=(",", ":"))

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        bits = []
        for lam, c in self.items():
            label = "p[" + ",".join(str(v) for v in lam) + "]"
            bits.append(f"({c})*{label}")
        return " + ".join(bits)

    def __repr__(self) -> str:
        return f"PExpansion({self})"


@dataclass(frozen=True)
class AlphabetRule:
    """Per-index data for an alphabet substitution on power sums.

    kind "scale" sends p_k to term(k) * p_k; kind "shift" sends p_k to
    p_k + term(k).
    """

    kind: str
    term: Callable[[int], ZPoly]

    def __post_init__(self):
        if self.kind not in ("scale", "shift"):
            raise ValueError(f"unknown rule kind {self.kind!r}")


def scale_rule(term: Callable[[int], ZPoly]) -> AlphabetRule:
    return AlphabetRule("scale", term)


def shift_rule(term: Callable[[int], ZPoly]) -> AlphabetRule:
    return AlphabetRule("shift", term)


def cop_alphabet_shift() -> AlphabetRule:
    """Subtracting (1 - 1/q)/z: p_k gains -(1 - q^-k) z^-k."""
    def term(k: int) -> ZPoly:
        return ZPoly({-k: QTRatio(ONE - QTPoly.q(k), QTPoly.q(k))})
    return shift_rule(term)


def enk_alphabet_scale() -> AlphabetRule:
    """Scaling by (1-z)/(1-q): p_k is multiplied by (1-z^k)/(1-q^k)."""
    def term(k: int) -> ZPoly:
        inv = QTRatio(ONE, ONE - QTPoly.q(k))
        return (ZPoly.one() - ZPoly.z(k)) * inv
    return scale_rule(term)


def pleth_apply(F: PExpansion, rule: AlphabetRule) -> PExpansion:
    """Substitute the rule's alphabet change into every p_lambda."""
    if rule.kind == "scale":
        out: Dict[Partition, ZPoly] = {}
        for lam, c in F.items():
            for part in lam:
                c = c * rule.term(part)
            if not c.is_zero():
                out[lam] = out[lam] + c if lam in out else c
        return PExpansion(out)
    result = PExpansion.zero()
    for lam, c in F.items():
        mult: Dict[int, int] = {}
        for part in lam:
            mult[part] = mult.get(part, 0) + 1
        expanded = PExpansion.one()
        for part, m in mult.items():
            a = rule.term(part)
            binomial = PExpansion.zero()
            for j in range(m + 1):
                term = PExpansion({(part,) * j: comb(m, j)}) * (a ** (m - j))
                binomial = binomial + term
            expanded = expanded * binomial
        result = result + expanded * c
    return result


def _newton(n: int, signed: bool) -> PExpansion:
    if not 1 <= n <= DEGREE_BOUND:
        raise ValueError(f"degree must lie in 1..{DEGREE_BOUND}, got {n}")
    coeffs: Dict[Partition, Scalar] = {}
    for lam in partitions(n):
        sign = -1 if signed and (n - len(lam)) % 2 else 1
        coeffs[lam] = QTRatio(QTPoly.const(Fraction(sign, z_lambda(lam))))
    return PExpansion(coeffs)


def e_in_p(n: int) -> PExpansion:
    """Elementary e_n = sum over partitions of (-1)^(n-len) p_lambda/z_lambda."""
    return _newton(n, signed=True)


def h_in_p(m: int) -> PExpansion:
    """Complete homogeneous h_m = sum of p_lambda/z_lambda."""
    return _newton(m, signed=False)


def p_pure(n: int) -> PExpansion:
    if not 1 <= n <= DEGREE_BOUND:
        raise ValueError(f"degree must lie in 1..{DEGREE_BOUND}, got {n}")
    return PExpansion.p(n)


def c_op(a: int, F: PExpansion) -> PExpansion:
    """(-1/q)^(a-1) [z^a] (F[X - (1-1/q)/z] * sum_m z^m h_m[X]).

    The h-sum is truncated at a + d where -d is the lowest z exponent the
    shift introduced (d = 0 when none is negative): a term z^m h_m with
    m > a + d would need a z exponent below -d to reach z^a.
    """
    if a < 1:
        raise ValueError(f"operator index must be positive: {a}")
    if F.degree() + a > DEGREE_BOUND:
        raise ValueError(
            f"result degree {F.degree() + a} exceeds bound {DEGREE_BOUND}")
    shifted = pleth_apply(F, cop_alphabet_shift())
    depth = max(0, -shifted.min_z_exp())
    hsum = PExpansion.one()
    for m in range(1, a + depth + 1):
        hsum = hsum + h_in_p(m) * ZPoly.z(m)
    out = (shifted * hsum).z_coefficient(a)
    out = out * QTRatio(QTPoly.const((-1) ** (a - 1)), QTPoly.q(a - 1))
    if not out.is_z_free():
        raise AssertionError("operator output kept a z dependence")
    if not F.is_zero() and not out.is_homogeneous(F.degree() + a):
        raise AssertionError("operator output is not homogeneous")
    return out


def c_composition(rho: Sequence[int]) -> PExpansion:
    """C_{rho_1} ... C_{rho_k} applied to 1, rightmost factor first."""
    parts = tuple(int(v) for v in rho)
    if not parts or any(v < 1 for v in parts):
        raise ValueError(f"need a composition with positive parts: {parts}")
    out = PExpansion.one()
    for a in reversed(parts):
        out = c_op(a, out)
    return out


def e_nk(n: int) -> List[PExpansion]:
    """(E_{n,1}, ..., E_{n,n}) solving the triangular z-expansion of the
    scaled elementary symmetric function."""
    if not 1 <= n <= DEGREE_BOUND:
        raise ValueError(f"degree must lie in 1..{DEGREE_BOUND}, got {n}")
    lhs = pleth_apply(e_in_p(n), enk_alphabet_scale())
    basis = {k: poch_zq(k) * QTRatio(ONE, qq_poch(k))
             for k in range(1, n + 1)}
    solved: Dict[int, Dict[Partition, QTRatio]] = {
        k: {} for k in range(1, n + 1)}
    for lam in partitions(n):
        c = lhs.coefficient(lam)
        if c.min_exp() < 0 or c.max_exp() > n:
            raise RuntimeError(f"e_nk({n}): z-degrees of {lam} outside 0..{n}")
        xs: Dict[int, QTRatio] = {}
        for j in range(n, 0, -1):
            residual = c.coefficient(j)
            for k in range(j + 1, n + 1):
                residual = residual - basis[k].coefficient(j) * xs[k]
            xs[j] = residual / basis[j].coefficient(j)
        constant = QTRatio.zero()
        for k in range(1, n + 1):
            constant = constant + basis[k].coefficient(0) * xs[k]
        if constant != c.coefficient(0):
            raise RuntimeError(f"e_nk({n}): constant term of {lam} unsolved")
        for k, r in xs.items():
            if not r.is_zero():
                solved[k][lam] = r
    return [PExpansion({lam: ZPoly.scalar(r.reduced())
                        for lam, r in solved[k].items()})
            for k in range(1, n + 1)]


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
    (-1)^(n-1) p_n?"""
    series = e_nk(n)
    acc = PExpansion.zero()
    for k in range(1, n + 1):
        acc = acc + series[k - 1] * QTRatio(q_int(n), q_int(k))
    return acc == p_pure(n) * ((-1) ** (n - 1))


def _power_product_monomials(lam: Partition, n: int) -> Dict[Tuple[int, ...], int]:
    """Exponent vectors of prod_parts (x_1^part + ... + x_n^part)."""
    acc: Dict[Tuple[int, ...], int] = {(0,) * n: 1}
    for part in lam:
        nxt: Dict[Tuple[int, ...], int] = {}
        for expv, cnt in acc.items():
            for i in range(n):
                key = expv[:i] + (expv[i] + part,) + expv[i + 1:]
                nxt[key] = nxt.get(key, 0) + cnt
        acc = nxt
    return acc


def sym_to_qsym(F: PExpansion, n: int) -> QSymF:
    """Expand a homogeneous degree-n symmetric function in n variables
    and rewrite it in the fundamental quasisymmetric basis.

    Coefficients must clear to polynomials in q, t; a genuinely rational
    or inhomogeneous input is rejected.
    """
    if not F.is_z_free():
        raise ValueError("input depends on z")
    if not F.is_homogeneous(n) or (F.is_zero() and n < 1):
        raise ValueError(f"input is not homogeneous of degree {n}")
    mono: Dict[Tuple[int, ...], QTRatio] = {}
    for lam, c in F.items():
        r = c.coefficient(0)
        for expv, cnt in _power_product_monomials(lam, n).items():
            prev = mono.get(expv, QTRatio.zero())
            s = prev + r * cnt
            if s.is_zero():
                mono.pop(expv, None)
            else:
                mono[expv] = s
    packed: Dict[Tuple[int, ...], QTRatio] = {}
    for expv, r in mono.items():
        key = tuple(v for v in expv if v)
        lead = key + (0,) * (n - len(key))
        if mono.get(lead) != r:
            raise RuntimeError(f"monomial {expv} breaks quasisymmetry")
        packed[key] = mono[lead]
    coeffs = {alpha: r.to_poly() for alpha, r in packed.items()}
    return expand_in_fundamentals(MonomialForm(n, coeffs))
