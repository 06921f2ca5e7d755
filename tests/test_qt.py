"""Arithmetic in the q,t rings: axioms, exact division, q-analogs."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtpark.qt import ONE, QTPoly, q_factorial, q_int, qq_poch

coeffs = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 8))
exponents = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
polys = st.dictionaries(exponents, coeffs, max_size=5).map(QTPoly)
nonzero_polys = polys.filter(lambda p: not p.is_zero())
int_polys = st.dictionaries(exponents, st.integers(-40, 40),
                            max_size=6).map(QTPoly)


def qt(qe=0, te=0, c=1):
    return QTPoly.monomial(qe, te, c)


def test_construction_drops_zero_terms():
    p = QTPoly({(1, 0): Fraction(0), (0, 1): 2})
    assert p == qt(0, 1, 2)
    assert len(p) == 1


def test_zero_one_identities():
    assert QTPoly.zero().is_zero()
    assert (QTPoly.zero() + QTPoly.one()) == ONE


def test_str_canonical_form():
    p = qt(1, 2) + qt(-1, 0, -1) + QTPoly.const(Fraction(2, 3))
    assert str(p) == "-q^-1 + 2/3 + q*t^2"
    assert str(QTPoly.zero()) == "0"


@given(polys, polys, polys)
@settings(max_examples=60)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + QTPoly.zero() == a
    assert a * QTPoly.one() == a
    assert a - a == QTPoly.zero()


def schoolbook_product(a, b):
    out = {}
    for (qa, ta), ca in a.terms():
        for (qb, tb), cb in b.terms():
            e = (qa + qb, ta + tb)
            out[e] = out.get(e, 0) + ca * cb
    return QTPoly(out)


@given(int_polys | polys, int_polys | polys)
@settings(max_examples=100)
def test_product_matches_schoolbook(a, b):
    p = a * b
    assert p == schoolbook_product(a, b)
    assert all(type(c) is Fraction and c for _, c in p.terms())


def test_product_drops_cancelled_terms():
    p = (ONE - QTPoly.q()) * (ONE + QTPoly.q())
    assert p == ONE - QTPoly.q(2)
    assert len(p) == 2
    half = QTPoly.const(Fraction(1, 2))
    p = (half - QTPoly.q()) * (half + QTPoly.q())
    assert p == QTPoly.const(Fraction(1, 4)) - QTPoly.q(2)
    assert len(p) == 2


@given(polys, nonzero_polys)
@settings(max_examples=60)
def test_divexact_inverts_multiplication(a, b):
    assert (a * b).divexact(b) == a


def test_divexact_rejects_non_divisor():
    with pytest.raises(ValueError):
        (ONE + qt(1)).divexact(ONE + qt(0, 1))
    with pytest.raises(ZeroDivisionError):
        ONE.divexact(QTPoly.zero())


def test_q_analogs():
    assert q_int(1) == ONE
    assert q_int(4) == ONE + qt(1) + qt(2) + qt(3)
    assert q_factorial(3) == q_int(1) * q_int(2) * q_int(3)
    assert qq_poch(2) == (ONE - qt(1)) * (ONE - qt(2))
    assert q_int(6).divexact(q_int(3)) == ONE + qt(3)


def test_evaluate_counts():
    # every q-analog specializes to its counting value at q = 1
    for n in range(1, 6):
        assert q_int(n).evaluate(1, 1) == n
    assert q_factorial(4).evaluate(1, 1) == 24

