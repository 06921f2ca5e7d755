"""Power-sum expansions, plethystic substitutions, creation operators."""

import csv
import hashlib
import inspect
import json
import re
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest

from qtpark import checks, cli, symfunc
from qtpark.qt import ONE, QTPoly, q_int
from qtpark.symfunc import (PExpansion, c_composition, c_op, compositions,
                            e_in_p, e_nk, hmz_check, partitions,
                            pn_identity_check, shift_factor, shift_terms,
                            z_lambda)

GOLDEN = Path(__file__).parent / "golden"


def p_coefficients(expansion):
    """{partition: pairing <F, p_lambda>} of a PExpansion F."""
    return dict(expansion.items())


def h_in_p(m):
    """Complete homogeneous h_m = sum of p_lambda/z_lambda: every pairing
    is 1."""
    return PExpansion._wrap({lam: QTPoly.one() for lam in partitions(m)})


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
    assert acc == PExpansion.p(2) * (-1)


def test_json_form():
    f = PExpansion({(3,): 2, (1, 2): 1})
    assert f.json() == '{"2,1":"(1)","3":"(2)"}'


def pochhammer(a, k):
    """(a; q)_k = prod_(i<k) (1 - a q^i)."""
    return prod((ONE - a * QTPoly.q(i) for i in range(k)), start=ONE)


@pytest.mark.parametrize("n", range(1, 8))
def test_e_nk_satisfies_its_defining_identity(n):
    """e_n[X (1-z)/(1-q)] = sum_k ((z;q)_k/(q;q)_k) E_{n,k}, paired with
    each p_lambda and cleared by (q;q)_n prod_i (1 - q^lambda_i), with z
    carried as t:

        sum_k (z;q)_k (q^(k+1);q)_(n-k) prod_i (1 - q^lambda_i) x_k
            = eps_lambda (q;q)_n prod_i (1 - z^lambda_i)

    for x_k = <E_{n,k}, p_lambda>."""
    z = QTPoly.monomial(0, 1)
    pairings = [dict(piece.items()) for piece in e_nk(n)]
    for lam in partitions(n):
        cleared = prod((ONE - QTPoly.q(part) for part in lam), start=ONE)
        lhs = QTPoly.zero()
        for k, x in enumerate(pairings, start=1):
            lhs = lhs + (pochhammer(z, k) * pochhammer(QTPoly.q(k + 1), n - k)
                         * cleared * x.get(lam, 0))
        rhs = prod((ONE - QTPoly.monomial(0, part) for part in lam),
                   start=pochhammer(QTPoly.q(1), n) * (-1) ** (n - len(lam)))
        assert lhs == rhs, lam


# sha256 of `table enk --n N` for N = 1..7, recorded while e_nk still
# back-substituted a triangular system in z.
TABLE_ENK_DIGESTS = {
    1: "61adf353e98183c51be7d27e24b40f227ccc8fc365be5c239ee628219fbab1c5",
    2: "156dcf7e8592ca9c71ec1c21321db1f123e6d16d7cb48107fb54c9ef070a029d",
    3: "fec0e998baa57541d442d6795049993d53df42200293b99312ab530ab8485ca6",
    4: "e8b3cb5955c05a3374658cc335e7b672956e74b3088986411bca9f2387247651",
    5: "b31aacf2aaf0cbb84d273f85be01d562329e2a484b56820e1d323d6ec90de185",
    6: "5f4f095a85e2bf9e137909cdefd35e122393dde3f921d88856438cc543fc1da7",
    7: "235f5651cae0ecfd9444a994359f9dd8e68ddea498c09af5385b638eeb10cd05",
}


@pytest.mark.parametrize("n", sorted(TABLE_ENK_DIGESTS))
def test_table_enk_keeps_its_bytes(capsys, n):
    assert cli.main(["table", "enk", "--n", str(n)]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == TABLE_ENK_DIGESTS[n]


# (text of e_nk, its planted replacement, the first n it breaks).
ENK_FAULTS = {
    "sign-of-A_2": ("(-1) ** (n + j)", "(-1) ** (n + j + (j == 2))", 2),
    "shift-q^k": ("shift = QTPoly.q(k - 1)", "shift = QTPoly.q(k)", 1),
    "final-q^(k-1)": ("b[0] * QTPoly.q(k)", "b[0] * QTPoly.q(k - 1)", 1),
    "[j]_(q^2)-short": ("for i in range(j)", "for i in range(j - (m == 2))",
                        2),
}


@pytest.mark.parametrize("check_id",
                         ["thm-hmz", "thm-enk-sum", "thm-pn-identity"])
@pytest.mark.parametrize("fault", sorted(ENK_FAULTS))
def test_planted_e_nk_fault_fails_each_check(capsys, monkeypatch, fault,
                                             check_id):
    """e_nk with one line of its closed form mistyped, compiled in
    symfunc's namespace, fails every check that reads E_{n,k} at its
    default scope, first at the smallest n the mistake reaches."""
    old, new, first = ENK_FAULTS[fault]
    source = inspect.getsource(symfunc.e_nk)
    assert source.count(old) == 1
    namespace = {}
    exec(source.replace(old, new), vars(symfunc), namespace)
    for module in (symfunc, checks):
        monkeypatch.setattr(module, "e_nk", namespace["e_nk"])
    assert cli.main(["check", check_id]) == 1
    assert json.loads(capsys.readouterr().out)["counterexample"]["n"] == first


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


def test_c_op_refuses_a_group_off_its_factorial(monkeypatch):
    """Each shift term that removes two or more boxes, bumped by 1, leaves
    the group of p_3 (rest (), size 3) at 3 (2 phi + 1): no multiple of
    3!."""
    real = symfunc.shift_terms
    monkeypatch.setattr(symfunc, "shift_terms", lambda lam: tuple(
        (key, c + 1 if key[1] >= 2 else c) for key, c in real(lam)))
    with pytest.raises(RuntimeError, match=re.escape(
            "c_op(1): the terms that leave p_() do not divide by 3!")):
        c_op(1, PExpansion.p(3))
