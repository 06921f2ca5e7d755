"""Fundamental-basis sums, Young-subgroup counts, factorizations."""

from collections import Counter
from itertools import permutations

import numpy as np
import pytest
from table_helpers import TableRead, UnreadableTable, with_entry

from qtpark.aggregate import qsym_by_diagword, qsym_by_touch
from qtpark.paths import enumerate_all, stats
from qtpark import kernels
from qtpark.qt import ONE, QTPoly, q_int
from qtpark.quasisym import (QSymF, consecutive_blocks, factor_check,
                             inv_ides_counts, qsym_for_diagword,
                             qsym_for_touch, qsym_total, withides_failures)
from qtpark.schedules import ides, runs


def weighted_sum(family, n):
    """Sum of t^area q^dinv Q_ides over the functions the predicate keeps,
    streamed from the full enumeration: the reference for the
    table-backed sums."""
    acc = {}
    for pf in enumerate_all(n):
        rec = stats(pf)
        if family(pf, rec):
            term = QTPoly.monomial(rec.dinv, rec.area, 1)
            acc[rec.ides] = acc.get(rec.ides, QTPoly.zero()) + term
    return QSymF(n, acc)


def test_qsym_basic_algebra():
    a = QSymF(3, {frozenset({1}): ONE})
    b = QSymF(3, {frozenset({2}): QTPoly.q(1)})
    s = a + b
    assert s.coefficient({1}) == ONE
    assert s.coefficient({2}) == QTPoly.q(1)
    assert s + b * -1 == a
    t = QTPoly.monomial(0, 1)
    assert (s * t).coefficient({1}) == t
    assert 2 * a == a + a
    assert QSymF.zero(3).coeffs == {}


def test_qsym_rejects_mixed_degree():
    a = QSymF(3, {frozenset(): ONE})
    b = QSymF(4, {frozenset(): ONE})
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        QSymF(3, {frozenset({3}): ONE})


def test_qsym_refuses_hash():
    with pytest.raises(TypeError):
        hash(QSymF(3, {frozenset({1}): ONE}))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_weighted_sum_matches_total(n):
    direct = weighted_sum(lambda p, s: True, n)
    assert direct == qsym_total(qsym_by_touch(n), n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_table_backed_diagword_sums(n):
    table = qsym_by_diagword(n)
    for tau in permutations(range(1, n + 1)):
        got = qsym_for_diagword(table, tau)
        want = weighted_sum(lambda p, s: s.diagword == tau, n)
        assert got == want, tau


def test_table_backed_touch_sums():
    n = 4
    table = qsym_by_touch(n)
    for k in range(1, n + 1):
        got = qsym_for_touch(table, n, k)
        want = weighted_sum(
            lambda p, s: s.deviation == 0 and s.touch == k, n)
        assert got == want, k


def test_total_specializes_to_count():
    for n in range(1, 5):
        # the coefficients of the total sum to its value at q = t = 1
        coeffs = qsym_total(qsym_by_touch(n), n).coeffs.values()
        assert sum(c for poly in coeffs for _, c in poly.terms()) == n ** n


def test_consecutive_blocks():
    assert consecutive_blocks((4, 5, 3, 1, 2)) == ((1, 2), (3,), (4, 5))
    assert consecutive_blocks((2, 3, 1, 4, 5)) == ((1,), (2, 3), (4, 5))
    assert consecutive_blocks((1, 2, 3)) == ((1, 2, 3),)
    # no two consecutive values are adjacent: the subgroup is trivial
    assert consecutive_blocks((3, 2, 1)) == ((1,), (2,), (3,))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_inv_ides_counts_match_itertools(m):
    """S_m's (inv, ides mask) counts, against a count over
    itertools.permutations with the scalar ides."""
    want = Counter()
    for pi in permutations(range(1, m + 1)):
        inv = sum(a > b for i, a in enumerate(pi) for b in pi[i + 1:])
        want[inv, sum(1 << (i - 1) for i in ides(pi))] += 1
    inv, mask, counts = inv_ides_counts(m)
    got = dict(zip(zip(inv.tolist(), mask.tolist()), counts.tolist()))
    assert got == want
    assert sorted(got) == list(got)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_factor_check_exhaustive(n):
    table = qsym_by_diagword(n)
    for tau in permutations(range(1, n + 1)):
        nruns = len(runs(tau).runs)
        assert factor_check(table, tau, range(nruns)) == [True] * nruns, tau


def test_factor_check_sample_n5():
    table = qsym_by_diagword(5)
    for tau in [(2, 3, 1, 4, 5), (4, 5, 3, 1, 2), (1, 2, 3, 4, 5)]:
        nruns = len(runs(tau).runs)
        assert factor_check(table, tau, range(nruns)) == [True] * nruns, tau


@pytest.mark.parametrize("column", [2, 3, 4])
def test_factor_check_fails_exactly_the_case_of_a_planted_row(column):
    """One row's area, dinv or ides mask moved by one fails the (tau, l)
    whose slice holds that row, and no other case."""
    n = 5
    table = qsym_by_diagword(n)
    for row in range(0, len(table.counts), 97):
        value = int(table.columns[column][row])
        faulty = with_entry(table, column, row, value + (1 if value == 0
                                                         else -1))
        hit = (int(table.columns[0][row]), int(table.columns[1][row]))
        for tau in permutations(range(1, n + 1)):
            nruns = len(runs(tau).runs)
            code = kernels.encode_perm(tau, n)
            assert factor_check(faulty, tau, range(nruns)) == [
                (code, l) != hit for l in range(nruns)], (row, tau)


def test_factor_check_refuses_a_deviation_before_any_table():
    """A deviation tau does not have is refused before the table is
    read, even after one it has; deviations it has read the table."""
    with pytest.raises(TableRead):
        factor_check(UnreadableTable(), (2, 1), [1])
    for ls in ([2], [0, 2]):
        with pytest.raises(ValueError, match=r"deviation 2 needs at least 3 "
                                             r"runs; \(2, 1\) has 2"):
            factor_check(UnreadableTable(), (2, 1), ls)


def test_withides_residue_refuses_a_table_without_tau():
    """A one-tau table read for another tau, or a table of another size,
    is refused rather than read as no failure, which would pass; so is a
    block with one such tau among taus the table holds."""
    other = qsym_by_diagword(4, tau=(2, 1, 4, 3))
    for table, taus in [(other, [(1, 2, 3, 4)]),
                        (other, [(2, 1, 4, 3), (1, 2, 3, 4)]),
                        (qsym_by_diagword(3), [(1, 2)])]:
        with pytest.raises(ValueError, match=r"no function of diagword "
                                             r"\(1, 2(, 3, 4)?\)"):
            withides_failures(table, np.array(taus), np.ones(len(taus), int))
    assert withides_failures(other, np.array([(2, 1, 4, 3)]),
                             np.array([1])).tolist() == [False]


def test_withides_refuses_a_shifted_dinv_outside_its_radix():
    """A deviation-0 row's dinv is shifted by n, and the key's dinv radix
    is n^2 + n + 1: a table built by hand whose shifted dinv reaches it is
    refused rather than read as a key of the next area."""
    n, tau = 4, (2, 1, 4, 3)
    table = qsym_by_diagword(n, tau=tau)
    taus, ks = np.array([tau]), np.array([1])
    assert withides_failures(table, taus, ks).tolist() == [False]
    row = int(np.flatnonzero(table.columns[1] == 0)[0])
    with pytest.raises(ValueError):
        withides_failures(with_entry(table, 3, row, n * n + 1), taus, ks)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_withides_scaling(n):
    table = qsym_by_diagword(n)
    for tau in permutations(range(1, n + 1)):
        k = runs(tau).last_run_length
        lhs = qsym_for_diagword(table, tau) * q_int(k)
        rhs = qsym_for_diagword(table, tau, deviation=0) * q_int(n)
        assert lhs == rhs, tau
