"""Power-sum expansions, plethystic substitutions, creation operators."""

import csv
import json
from fractions import Fraction
from pathlib import Path

import pytest

from qtpark import symfunc
from qtpark.qt import ONE, QTPoly, q_int
from qtpark.symfunc import (PExpansion, c_composition, c_op, compositions,
                            e_in_p, e_nk, h_in_p, hmz_check, partitions,
                            pn_identity_check, p_pure, scaled_e_row,
                            shift_factor, shift_terms, z_lambda,
                            zq_poch_coefficients)

GOLDEN = Path(__file__).parent / "golden"


def qtr(num, den=1):
    """num/den as a QTPoly; divexact raises unless the quotient is one."""
    num, den = (x if isinstance(x, QTPoly) else QTPoly.const(x)
                for x in (num, den))
    return num.divexact(den)


def p_coefficients(expansion):
    """{partition: coefficient} of a PExpansion, largest part first."""
    return dict(expansion.items())


def test_partitions_counts():
    assert list(partitions(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1),
                                   (1, 1, 1, 1)]
    assert sum(1 for _ in partitions(8)) == 22
    assert list(partitions(3, max_part=2)) == [(2, 1), (1, 1, 1)]


def test_compositions_counts():
    assert sorted(compositions(3)) == [(1, 1, 1), (1, 2), (2, 1), (3,)]
    assert list(compositions(4, length=2)) == [(3, 1), (2, 2), (1, 3)]
    assert sum(1 for _ in compositions(5)) == 16


def test_z_lambda():
    assert z_lambda((3,)) == 3
    assert z_lambda((1, 1, 1)) == 6
    assert z_lambda((2, 2, 1)) == 8


def test_pexpansion_ring():
    p1 = PExpansion.p(1)
    p2 = PExpansion.p(2)
    assert (p1 + p2) + p2 * -1 == p1
    assert p1 * 0 == PExpansion.zero()
    assert PExpansion.one().degree() == 0
    assert p_coefficients(p1 * 3)[(1,)] == qtr(3)


def test_pexpansion_refuses_hash():
    with pytest.raises(TypeError):
        hash(PExpansion.p(1))


def test_newton_expansions():
    # e_2 = (p_1^2 - p_2)/2, e_3 = (p_1^3 - 3 p_1 p_2 + 2 p_3)/6
    e2 = e_in_p(2)
    assert p_coefficients(e2)[(1, 1)] == qtr(Fraction(1, 2))
    assert p_coefficients(e2)[(2,)] == qtr(Fraction(-1, 2))
    e3 = e_in_p(3)
    assert p_coefficients(e3)[(1, 1, 1)] == qtr(Fraction(1, 6))
    assert p_coefficients(e3)[(2, 1)] == qtr(Fraction(-1, 2))
    assert p_coefficients(e3)[(3,)] == qtr(Fraction(1, 3))
    # h_2 = (p_1^2 + p_2)/2
    h2 = h_in_p(2)
    assert p_coefficients(h2)[(2,)] == qtr(Fraction(1, 2))
    assert p_coefficients(h2)[(1, 1)] == qtr(Fraction(1, 2))


def test_e_h_duality():
    # omega swaps e and h: coefficients differ by the sign (-1)^(n-len)
    for n in range(1, 6):
        e = e_in_p(n)
        h = h_in_p(n)
        for lam in partitions(n):
            sign = (-1) ** (n - len(lam))
            assert p_coefficients(e)[lam] == p_coefficients(h)[lam] * sign


def test_scale_substitution():
    # p_k under X -> X (1 - z)/(1 - q) picks up (1 - z^k)/(1 - q^k): the
    # p_2 term -p_2/2 of e_2, times (q;q)_2, is -(1 - q)(1 - z^2)/2
    row = scaled_e_row((2,))
    half = Fraction(1, 2)
    assert row == [(ONE - QTPoly.q(1)) * -half, QTPoly.zero(),
                   (ONE - QTPoly.q(1)) * half]
    # every z-coefficient of (1 - z)^3 (q;q)_3/((1 - q)^3 3!)
    assert scaled_e_row((1, 1, 1)) == [
        (ONE + QTPoly.q(1)) * (ONE + QTPoly.q(1) + QTPoly.q(2)) *
        Fraction(v, 6) for v in (1, -3, 3, -1)]


def test_shift_substitution():
    # p_k under X -> X + a contributes binomially in the multiplicity:
    # (p_1 + a_1)^2 = p_11 + 2 a_1 p_1 + a_1^2, a_1 z^-1 the shift of p_1
    a1 = shift_factor(1)
    assert a1 == QTPoly.q(-1) - ONE
    assert dict(shift_terms((1, 1))) == {
        ((1, 1), 0): ONE, ((1,), 1): a1 * 2, ((), 2): a1 * a1}
    assert dict(shift_terms((2, 1))) == {
        ((2, 1), 0): ONE, ((1,), 2): shift_factor(2), ((2,), 1): a1,
        ((), 3): shift_factor(2) * a1}


def test_c_op_output_is_z_free_and_homogeneous():
    f = c_op(2, PExpansion.one())
    assert f.degree() == 2
    # no z survives: C_2 1 = -h_2/q, coefficients Laurent in q alone
    assert f == h_in_p(2) * QTPoly.monomial(-1, 0, -1)
    assert all(isinstance(c, QTPoly) and all(te == 0 for (_, te), _ in
                                              c.terms())
               for _, c in f.items())
    with pytest.raises(ValueError):
        c_op(0, PExpansion.one())


def test_c_composition_order_matters():
    # distinct compositions of 3 give distinct symmetric functions
    a = c_composition((2, 1))
    b = c_composition((1, 2))
    assert a != b


def test_enk_small_values():
    E2 = e_nk(2)
    p2 = PExpansion.p(2)
    p11 = PExpansion({(1, 1): 1})
    qq = QTPoly.q(1)
    assert E2[0] == (p2 + p11) * qtr(Fraction(-1, 2), qq)
    assert E2[1] == (p11 * qtr(ONE + qq, qq * 2) +
                     p2 * qtr(ONE - qq, qq * 2))
    E1 = e_nk(1)
    assert E1[0] == PExpansion.p(1)


def test_enk_coefficients_come_reduced():
    # reduced all the way: every coefficient is a polynomial
    for piece in e_nk(4):
        for _, c in piece.items():
            assert isinstance(c, QTPoly) and not c.is_zero()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enk_sum_is_elementary(n):
    total = PExpansion.zero()
    for piece in e_nk(n):
        total = total + piece
    assert total == e_in_p(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_hmz(n):
    assert hmz_check(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pn_identity(n):
    assert pn_identity_check(n)


def test_pn_identity_shape():
    # the n = 2 case written out: [2]_q E_{2,1} + E_{2,2} = -p_2
    E = e_nk(2)
    acc = E[0] * qtr(q_int(2), q_int(1)) + E[1] * qtr(q_int(2), q_int(2))
    assert acc == p_pure(2) * (-1)


def test_json_form():
    f = PExpansion({(3,): 2, (1, 2): 1})
    assert f.json() == '{"2,1":"(1)","3":"(2)"}'


def test_zq_poch_coefficients():
    # (z; q)_2 = 1 - (1 + q) z + q z^2
    assert zq_poch_coefficients(2) == [ONE, -(ONE + QTPoly.q(1)), QTPoly.q(1)]
    # the leading coefficient is the unit (-1)^k q^(k(k-1)/2)
    for k in range(1, 7):
        assert zq_poch_coefficients(k)[k] == QTPoly.monomial(
            k * (k - 1) // 2, 0, (-1) ** k)


def test_c_composition_golden():
    """C_rho 1 for every composition of m <= 4, as the z-substitution
    implementation printed them."""
    expected = json.loads((GOLDEN / "c_composition_4.json").read_text())
    assert len(expected) == 15
    for key, text in expected.items():
        rho = tuple(int(v) for v in key.split(","))
        assert c_composition(rho).json() == text


def test_enk_golden():
    rows = list(csv.reader((GOLDEN / "enk_5.csv").read_text().splitlines()))
    assert rows[0] == ["n", "k", "expansion"]
    assert [row[2] for row in rows[1:]] == [piece.json() for piece in e_nk(5)]


def test_c_composition_reuses_suffixes(monkeypatch):
    symfunc._c_suffix.cache_clear()
    calls = []
    real = symfunc.c_op

    def counting(a, F):
        calls.append(a)
        return real(a, F)

    monkeypatch.setattr(symfunc, "c_op", counting)
    try:
        assert all(hmz_check(n) for n in range(1, 7))
    finally:
        symfunc._c_suffix.cache_clear()
    # one call per composition of m <= 6
    assert len(calls) == sum(2 ** (m - 1) for m in range(1, 7)) == 63


def test_e_nk_refuses_a_wrong_pochhammer(monkeypatch):
    real = symfunc.zq_poch_coefficients

    def planted(k0, j, change):
        def coefficients(k):
            out = real(k)
            if k == k0:
                out[j] = change(out[j])
            return out
        return coefficients

    # y_1 of (3) stops being a multiple of (q;q)_3/(q;q)_1
    monkeypatch.setattr(symfunc, "zq_poch_coefficients",
                        planted(3, 1, lambda c: c + 1))
    with pytest.raises(RuntimeError, match="in E_3,1 is not a polynomial"):
        e_nk(3)
    # every quotient stays exact, but z^0 no longer balances
    monkeypatch.setattr(symfunc, "zq_poch_coefficients",
                        planted(2, 1, lambda c: -c))
    with pytest.raises(RuntimeError, match="constant term"):
        e_nk(3)

    monkeypatch.setattr(symfunc, "zq_poch_coefficients",
                        planted(2, 2, lambda c: c + 1))
    with pytest.raises(RuntimeError, match="not a monomial"):
        e_nk(2)
