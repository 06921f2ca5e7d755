"""Arithmetic in the q,t rings: axioms, q-analogs."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtpark import checks, schedules
from qtpark.checks import CheckSpec
from qtpark.qt import ONE, QTPoly, q_int, q_int_product, render

coeffs = st.integers(-40, 40)
exponents = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
polys = st.dictionaries(exponents, coeffs, max_size=6).map(QTPoly)


def qt(qe=0, te=0, c=1):
    return QTPoly.monomial(qe, te, c)


def evaluate(p, qv, tv):
    """p at rational q = qv, t = tv (nonzero if negative exponents occur)."""
    qv, tv = Fraction(qv), Fraction(tv)
    return sum((c * qv ** qe * tv ** te for (qe, te), c in p.terms()),
               Fraction(0))


def test_construction_drops_zero_terms():
    p = QTPoly({(1, 0): 0, (0, 1): 2})
    assert p == qt(0, 1, 2)
    assert len(list(p.terms())) == 1


def test_zero_one_identities():
    assert not QTPoly.zero()
    assert (QTPoly.zero() + QTPoly.one()) == ONE


def test_str_canonical_form():
    p = qt(1, 2) + qt(-1, 0, -1) + QTPoly.const(2)
    assert str(p) == "-q^-1 + 2 + q*t^2"
    assert str(QTPoly.zero()) == "0"
    # the same form for rational coefficients, as expansions print them
    assert render([((-1, 0), Fraction(-1)), ((0, 0), Fraction(2, 3)),
                   ((1, 2), Fraction(1))]) == "-q^-1 + 2/3 + q*t^2"


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


@given(polys, polys)
@settings(max_examples=100)
def test_product_matches_schoolbook(a, b):
    p = a * b
    assert p == schoolbook_product(a, b)
    assert all(type(c) is int and c for _, c in p.terms())


@given(polys, polys)
@settings(max_examples=60)
def test_integer_polynomials_keep_int_coefficients(a, b):
    for p in (a + b, a - b, a * b, 3 * a):
        assert all(type(c) is int for _, c in p.terms())
    assert type(a.coefficient(7, 7)) is int


def test_coefficients_must_be_int():
    for bad in (Fraction(1, 2), Fraction(2), 0.5, 1.0, np.int64(2)):
        with pytest.raises(TypeError, match="expected int, got"):
            QTPoly({(0, 0): bad})
    assert str(QTPoly({(0, 0): True})) == "1"
    assert str(QTPoly({(1, 0): True, (0, 0): False})) == "q"


def test_exponents_must_be_integers():
    # a float exponent was once truncated: this read 3*q
    for bad in (1.5, 1.0):
        with pytest.raises(TypeError):
            QTPoly({(bad, 0): 1, (1, 0): 2})
        with pytest.raises(TypeError):
            QTPoly({(0, bad): 0})
    p = QTPoly({(np.int64(1), np.int8(-2)): 3})
    assert list(p.terms()) == [((1, -2), 3)]
    assert all(type(e) is int for e in next(p.terms())[0])


def test_product_drops_cancelled_terms():
    p = (ONE - QTPoly.q()) * (ONE + QTPoly.q())
    assert p == ONE - QTPoly.q(2)
    assert len(list(p.terms())) == 2
    two = QTPoly.const(2)
    p = (two - QTPoly.q()) * (two + QTPoly.q())
    assert p == QTPoly.const(4) - QTPoly.q(2)
    assert len(list(p.terms())) == 2


def test_q_analogs():
    assert q_int(1) == ONE
    assert q_int(4) == ONE + qt(1) + qt(2) + qt(3)


def test_q_int_product_matches_explicit_products(monkeypatch):
    """Every sorted weight multiset thm-schedule-closed-form meets at
    n <= 5 gives the coefficients of the explicit QTPoly product."""
    met = set()

    def recording(weights):
        met.add(weights)
        return q_int_product(weights)

    monkeypatch.setattr(schedules, "q_int_product", recording)
    assert checks.run_check(CheckSpec("thm-schedule-closed-form", 1, 5)).passed
    assert len(met) > 10
    for weights in met:
        explicit = ONE
        for w in weights:
            explicit = explicit * q_int(w)
        assert list(explicit.terms()) == [
            ((i, 0), c) for i, c in enumerate(q_int_product(weights))]


def test_q_int_product_rejects_weights_below_one():
    assert q_int_product(()) == (1,)
    for weights in [(0,), (0, 2), (-1, 3)]:
        with pytest.raises(ValueError, match="positive integer"):
            q_int_product(weights)


def test_evaluate_counts():
    # every q-analog specializes to its counting value at q = 1
    for n in range(1, 6):
        assert evaluate(q_int(n), 1, 1) == n
    assert evaluate(q_int(2) * q_int(3) * q_int(4), 1, 1) == 24

