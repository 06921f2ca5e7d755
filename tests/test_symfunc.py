"""Power-sum expansions, plethystic substitutions, creation operators."""

import csv
import hashlib
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


def p_coefficients(expansion):
    """{partition: pairing <F, p_lambda>} of a PExpansion F."""
    return dict(expansion.items())


def test_partitions_counts():
    assert list(partitions(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1),
                                   (1, 1, 1, 1)]
    assert sum(1 for _ in partitions(8)) == 22
    assert list(partitions(3, max_part=2)) == [(2, 1), (1, 1, 1)]


def test_compositions_counts():
    assert sorted(compositions(3)) == [(1, 1, 1), (1, 2), (2, 1), (3,)]
    assert [a for a in compositions(4) if len(a) == 2] == [(3, 1), (2, 2),
                                                           (1, 3)]
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
    assert p_coefficients(p1 * 3)[(1,)] == QTPoly.const(3)


def test_pexpansion_refuses_hash():
    with pytest.raises(TypeError):
        hash(PExpansion.p(1))


def test_newton_expansions():
    # e_2 = (p_1^2 - p_2)/2, e_3 = (p_1^3 - 3 p_1 p_2 + 2 p_3)/6: each
    # coefficient times z_lambda is the pairing, the sign of lambda
    e2 = e_in_p(2)
    assert p_coefficients(e2)[(1, 1)] == QTPoly.const(1)
    assert p_coefficients(e2)[(2,)] == QTPoly.const(-1)
    e3 = e_in_p(3)
    assert p_coefficients(e3)[(1, 1, 1)] == QTPoly.const(1)
    assert p_coefficients(e3)[(2, 1)] == QTPoly.const(-1)
    assert p_coefficients(e3)[(3,)] == QTPoly.const(1)
    # h_2 = (p_1^2 + p_2)/2
    h2 = h_in_p(2)
    assert p_coefficients(h2)[(2,)] == QTPoly.const(1)
    assert p_coefficients(h2)[(1, 1)] == QTPoly.const(1)


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
    # p_2 term -p_2/2 of e_2, times 1 - q^2 and z_(2) = 2, is -(1 - z^2)
    assert scaled_e_row((2,)) == [-1, 0, 1]
    # every z-coefficient of (1 - z)^3
    assert scaled_e_row((1, 1, 1)) == [1, -3, 3, -1]


def test_shift_substitution():
    # p_k under X -> X + a contributes binomially in the multiplicity:
    # (p_1 + a_1)^2 = p_11 + 2 a_1 p_1 + a_1^2, a_1 z^-1 the shift of p_1;
    # removing S weighs a term by |S|!/z_S, here 1, 1 and 2!/2 = 1
    a1 = shift_factor(1)
    assert a1 == QTPoly.q(-1) - ONE
    assert dict(shift_terms((1, 1))) == {
        ((1, 1), 0): ONE, ((1,), 1): a1, ((), 2): a1 * a1}
    # 3!/z_(2,1) = 3 permutations of cycle type (2, 1)
    assert dict(shift_terms((2, 1))) == {
        ((2, 1), 0): ONE, ((1,), 2): shift_factor(2), ((2,), 1): a1,
        ((), 3): shift_factor(2) * a1 * 3}


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
    # E_{2,1} = -(p_2 + p_11)/(2q), E_{2,2} = ((1 + q) p_11 + (1 - q) p_2)/(2q)
    assert E2[0] * 2 == (p2 + p11) * QTPoly.monomial(-1, 0, -1)
    assert E2[1] * 2 == (p11 * QTPoly({(-1, 0): 1, (0, 0): 1}) +
                         p2 * QTPoly({(-1, 0): 1, (0, 0): -1}))
    E1 = e_nk(1)
    assert E1[0] == PExpansion.p(1)


def test_enk_coefficients_come_reduced():
    # reduced all the way: every coefficient is a polynomial
    for piece in e_nk(4):
        for _, c in piece.items():
            assert isinstance(c, QTPoly) and c


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
    acc = E[0] * q_int(2) + E[1]
    assert acc == p_pure(2) * (-1)


def test_json_form():
    f = PExpansion({(3,): 2, (1, 2): 1})
    assert f.json() == '{"2,1":"(1)","3":"(2)"}'


def test_e_nk_refuses_a_non_unit_leading_coefficient(monkeypatch):
    # back-substitution inverts the leading z coefficient in integers
    real = symfunc.zq_poch_coefficients

    def doubled(k):
        out = real(k)
        out[k] = out[k] * 2
        return out

    monkeypatch.setattr(symfunc, "zq_poch_coefficients", doubled)
    with pytest.raises(RuntimeError, match="is not a unit"):
        e_nk(2)


def test_pexpansion_stores_pairings_and_prints_coefficients():
    # PExpansion({lambda: c}) is c p_lambda, stored as c z_lambda
    f = PExpansion({(2, 1): QTPoly.q(1), (1, 1): 3})
    assert p_coefficients(f) == {(1, 1): QTPoly.const(6),
                                 (2, 1): QTPoly.monomial(1, 0, 2)}
    assert str(f) == "(3)*p[1,1] + (q)*p[2,1]"
    assert str(e_in_p(2)) == "(1/2)*p[1,1] + (-1/2)*p[2]"
    assert h_in_p(3).json() == '{"1,1,1":"(1/6)","2,1":"(1/2)","3":"(1/3)"}'
    assert str(PExpansion.zero()) == "0"
    with pytest.raises(TypeError, match="expected int"):
        PExpansion({(2,): Fraction(1, 2)})


def test_c_composition_digest_to_n7():
    """C_alpha 1 for every composition alpha of n = 1..7, as the
    rational-coefficient implementation printed them (153,054 bytes)."""
    digest = hashlib.sha256()
    for n in range(1, 8):
        for alpha in compositions(n):
            digest.update((",".join(map(str, alpha)) + " " +
                           c_composition(alpha).json() + "\n").encode())
    assert digest.hexdigest() == (
        "1897bf32c40bc90c68b080901943a8ad28f35c09006a6fe4253f043959185cfc")


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


def count_c_op_calls(monkeypatch, cache, work):
    """work()'s result and the c_op calls it makes, with cache cleared
    before and after."""
    calls = []
    real = symfunc.c_op

    def counting(a, F):
        calls.append(a)
        return real(a, F)

    monkeypatch.setattr(symfunc, "c_op", counting)
    cache.cache_clear()
    try:
        result = work()
    finally:
        cache.cache_clear()
    return result, len(calls)


def test_c_composition_reuses_suffixes(monkeypatch):
    # one call per composition of m <= 6
    alphas = [alpha for m in range(1, 7) for alpha in compositions(m)]
    _, calls = count_c_op_calls(monkeypatch, symfunc._c_suffix,
                                lambda: list(map(c_composition, alphas)))
    assert calls == len(alphas) == 63


def test_hmz_sums_by_linearity(monkeypatch):
    # S(m, 1) = C_m 1, and S(m, k) for k > 1 applies one C_a for each of
    # its m - k + 1 first parts a: 41 calls, not 63.
    holds, calls = count_c_op_calls(monkeypatch, symfunc._c_sum, lambda: [
        hmz_check(n) for n in range(1, 7)])
    assert holds == [True] * 6
    assert calls == sum(1 + m * (m - 1) // 2 for m in range(1, 7)) == 41


def test_composition_sums_match_c_composition():
    """S(n, k) is the sum of C_alpha 1 over the alpha |= n with k parts."""
    for n in range(1, 8):
        for k in range(1, n + 1):
            total = PExpansion.zero()
            for alpha in compositions(n):
                if len(alpha) == k:
                    total = total + c_composition(alpha)
            assert symfunc._c_sum(n, k) == total


def test_e_nk_refuses_a_wrong_pochhammer(monkeypatch):
    real = symfunc.zq_poch_coefficients

    def planted(k0, j, change):
        def coefficients(k):
            out = real(k)
            if k == k0:
                out[j] = change(out[j])
            return out
        return coefficients

    # y_1 (q;q)_1 of (3) stops being a multiple of 1 - q^3
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
