"""Fundamental-basis sums, Young-subgroup counts, factorizations."""

import dataclasses
import json
import re
import types
from collections import Counter
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest
import qsym_oracle
from qsym_oracle import QSymF, ides, qsym_of_rows
from table_helpers import with_entry

from qtpark.aggregate import qsym_by_diagword, qsym_by_touch, qt_by_diagword
from qtpark.cli import main
from qtpark.paths import enumerate_all, stats
from qtpark import checks, kernels, quasisym, schedules
from qtpark.qt import ONE, QTPoly
from qtpark.quasisym import (closed_form_misses, factor_check,
                             inv_ides_counts, qsym_for_diagword,
                             qsym_for_touch, qsym_total, withides_failures)
from qtpark.schedules import permutation_rows, runs, schedule_counts


def weighted_sum(family, n):
    """Sum of t^area q^dinv Q_ides over the functions the predicate keeps,
    streamed from the full enumeration: the reference for the
    table-backed sums."""
    acc = {}
    for pf in enumerate_all(n):
        rec = stats(pf)
        if family(pf, rec):
            term = QTPoly.monomial(rec["dinv"], rec["area"], 1)
            ides = tuple(rec["ides"])
            acc[ides] = acc.get(ides, QTPoly.zero()) + term
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
    assert direct == qsym_of_rows(n, qsym_total(qsym_by_touch(n), n))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_table_backed_diagword_sums(n):
    table = qsym_by_diagword(n)
    for tau in permutations(range(1, n + 1)):
        got = qsym_of_rows(n, qsym_for_diagword(table, tau))
        want = weighted_sum(lambda p, s: s["diagword"] == list(tau), n)
        assert got == want, tau


def test_table_backed_touch_sums():
    n = 4
    table = qsym_by_touch(n)
    for k in range(1, n + 1):
        got = qsym_of_rows(n, qsym_for_touch(table, n, k))
        want = weighted_sum(
            lambda p, s: s["deviation"] == 0 and s["touch"] == k, n)
        assert got == want, k


def test_total_specializes_to_count():
    for n in range(1, 5):
        # the coefficients of the total sum to its value at q = t = 1
        _, counts = qsym_total(qsym_by_touch(n), n)
        assert counts.sum() == n ** n


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


def decide(table, taus, ls=None, check=factor_check):
    """check (factor_check or closed_form_misses) over the rows of taus as
    one block, at ls (None: every deviation of the block), and which of
    those cases each tau has."""
    taus = np.array(taus, dtype=np.int8)
    sc = schedule_counts(taus)
    nruns = sc.from_last[:, 0] + 1
    ls = range(int(nruns.max())) if ls is None else ls
    return (check(table, taus, sc, ls),
            nruns[:, None] > np.array(ls, dtype=int))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_factor_check_exhaustive(n):
    bad, has = decide(qsym_by_diagword(n), permutation_rows(n))
    assert not bad.any()
    assert has.sum() == sum(len(runs(t))
                            for t in permutations(range(1, n + 1)))


def test_factor_check_sample_n5():
    """Three taus decided as one block, and each as a block of one."""
    table = qsym_by_diagword(5)
    taus = [(2, 3, 1, 4, 5), (4, 5, 3, 1, 2), (1, 2, 3, 4, 5)]
    bad, has = decide(table, taus)
    assert bad.shape == (3, 3) and not bad.any()
    assert has.sum(axis=1).tolist() == [len(runs(t)) for t in taus]
    for tau in taus:
        bad, has = decide(table, [tau])
        assert bad.shape == (1, len(runs(tau))) and not bad.any(), tau


def withides_block(table, taus):
    """withides_failures over the rows of taus as one block."""
    ks = (schedule_counts(taus).from_last == 0).sum(axis=1)
    return withides_failures(table, taus, ks)


# Each batch decision of a block of all taus of size n: its table, how it
# decides, and the radix of the dinv digit of its keys.
DECISIONS = {
    "factor": (qsym_by_diagword, lambda table, taus: decide(table, taus)[0],
               lambda n: n * n + n * (n - 1) // 2 + 1),
    "closed-form": (qt_by_diagword,
                    lambda table, taus: decide(
                        table, taus, check=closed_form_misses)[0],
                    lambda n: n * n + n * (n - 1) // 2 + 1),
    "withides": (qsym_by_diagword, withides_block, lambda n: n * n + n + 1),
}


@pytest.mark.parametrize("decision,column", [
    *(pytest.param("factor", c, id=str(c)) for c in (2, 3, 4)),
    *(pytest.param("closed-form", c, id=f"closed-form-{c}") for c in (2, 3)),
    *(pytest.param("withides", c, id=f"withides-{c}") for c in (2, 3, 4)),
])
def test_factor_check_fails_exactly_the_case_of_a_planted_row(decision,
                                                              column):
    """One row's area, dinv or ides mask moved by one fails the (tau, l)
    whose slice holds that row, and no other case of the block of all
    taus; withides_failures fails that tau, except the identity, whose k
    is n, so that A [n]_q = B [n]_q whatever its rows.  A dinv planted at
    the radix of its key digit is refused with ValueError."""
    n = 5
    build, check, dinv_radix = DECISIONS[decision]
    table = build(n)
    taus = permutation_rows(n)
    codes = [kernels.encode_perm(t, n) for t in taus.tolist()]
    for row in range(0, len(table.counts), 97):
        value = int(table.columns[column][row])
        faulty = with_entry(table, column, row, value + (1 if value == 0
                                                         else -1))
        hit = (int(table.columns[0][row]), int(table.columns[1][row]))
        want = [[(code, l) == hit for l in range(n)] for code in codes]
        if decision == "withides":
            identity = kernels.encode_perm(range(1, n + 1), n)
            want = [any(w) and code != identity
                    for w, code in zip(want, codes)]
        assert check(faulty, taus).tolist() == want, row
    if column == 3:
        with pytest.raises(ValueError):
            check(with_entry(table, 3, 0, dinv_radix(n)), taus)


def test_factor_check_reports_only_the_deviations_tau_has():
    """With every count doubled each case fails, and a tau with l or fewer
    runs is never reported at l, not even at an l no tau of the block has."""
    n = 4
    table = qsym_by_diagword(n)
    doubled = dataclasses.replace(table, counts=2 * table.counts)
    bad, has = decide(doubled, permutation_rows(n))
    assert bad.tolist() == has.tolist()
    bad, has = decide(doubled, [(1, 2, 3, 4), (2, 1, 3, 4)], ls=[0, 1, 2])
    assert bad.tolist() == has.tolist() == [[True, False, False],
                                            [True, True, False]]


def planted(module, old, new):
    """A copy of module whose source has the text old, once, replaced by
    new."""
    source = Path(module.__file__).read_text()
    assert source.count(old) == 1, old
    copy = types.ModuleType(module.__name__)
    copy.__package__ = module.__package__
    exec(compile(source.replace(old, new), module.__file__, "exec"),
         copy.__dict__)
    return copy


BLOCK_MASK = "blocks = (pos[:, 1:] == pos[:, :-1] + 1) @ bit"
IDES_MASK = "ides = (pos[:, 1:] < pos[:, :-1]) @ bit"
# The closed form's shift, which factor_check reads through closed_form_rows.
SHIFT = "shift = (sc.from_last[cases] < l).sum(axis=1)"


@pytest.mark.parametrize("module,old,new,code", [
    (quasisym, BLOCK_MASK, BLOCK_MASK, 0),  # the copy itself passes
    # v + 1 right before v read as v + 1 right after it
    (quasisym, BLOCK_MASK, BLOCK_MASK.replace("+ 1", "- 1"), 1),
    # bit 1 dropped where a tau has it
    (quasisym, IDES_MASK, IDES_MASK + " & ~1", 1),
    (schedules, SHIFT, SHIFT.replace("axis=1)", "axis=1) + 1"), 1),
], ids=["unplanted", "block-mask-adjacency", "ides-bit", "shift"])
def test_planted_fault_fails_the_factor_lemma(capsys, monkeypatch, module,
                                              old, new, code):
    copy = planted(module, old, new)
    if module is quasisym:
        monkeypatch.setattr(checks, "factor_check", copy.factor_check)
    else:
        monkeypatch.setattr(quasisym, "closed_form_rows",
                            copy.closed_form_rows)
    assert main(["check", "lemma-factorlemma", "--n", "1..4"]) == code
    assert capsys.readouterr().out.count('"passed":false') == code


# An n = 15 tau of 2,160 functions.  Its one block of three cars, 4,5,6,
# gives its Young subgroup (S_3) two ides masks at inv 1.
TAU15 = (9, 3, 14, 1, 11, 7, 15, 10, 4, 5, 6, 2, 13, 8, 12)
# The first weight of closed_form_terms' first row, plus one.
WEIGHTS = "rows = np.sort(w, axis=1)"
BUMPED = ("rows = np.sort(w + (np.arange(w.size) == 0).reshape(w.shape), "
          "axis=1)")
# young_counts' q-count guard, before which one count moves between two
# ides masks at the same inv, so the guard stays quiet.
GUARD = "    scalar = q_int_product(tuple(sorted(sizes)))"
MOVED = """    same = (inv[:, None] == inv) & (mask[:, None] != mask)
    i, j = np.argwhere(same)[0]
    count[i] -= 1
    count[j] += 1
""" + GUARD


@pytest.mark.parametrize("check_id,module,old,new,code", [
    ("lemma-factorlemma", quasisym, GUARD, GUARD, 0),  # the copy passes
    ("thm-schedule-closed-form", schedules, WEIGHTS, BUMPED, 1),
    ("lemma-factorlemma", schedules, WEIGHTS, BUMPED, 1),
    ("lemma-factorlemma", quasisym, GUARD, MOVED, 1),
], ids=["unplanted", "weight-closed-form", "weight-factorlemma",
        "young-factorlemma"])
def test_planted_fault_fails_an_n15_tau(capsys, monkeypatch, check_id,
                                        module, old, new, code):
    copy = planted(module, old, new)
    if module is quasisym:
        monkeypatch.setattr(checks, "factor_check", copy.factor_check)
    else:
        monkeypatch.setattr(quasisym, "closed_form_rows",
                            copy.closed_form_rows)
    assert main(["check", check_id, "--n", "15",
                 "--tau", ",".join(map(str, TAU15))]) == code
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is (code == 0)
    assert code == 0 or report["counterexample"]["tau"] == list(TAU15)


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
        lhs, rhs = qsym_oracle.withides_sides(table, tau)
        assert lhs == rhs, tau


def with_count(table, row, delta):
    counts = table.counts.copy()
    counts[row] += delta
    return dataclasses.replace(table, counts=counts)


def assert_report_is_the_oracles(n, sides, lhs, rhs):
    """first_difference of the count-row sides is the QSymF oracle's
    report of lhs and rhs, None where the oracle finds no difference."""
    assert (quasisym.first_difference(n, sides)
            == qsym_oracle.first_difference(lhs, rhs))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_first_difference_is_the_qsym_report(n):
    """With any one count raised by 1 or lowered by 2 (to 0 or below), the
    first_difference of the withides sides of that row's tau, and of the
    square-paths sides, is the report the QSymF oracle writes."""
    table = qsym_by_diagword(n)
    for row in range(len(table.counts)):
        code = int(table.columns[0][row])
        tau = next(t for t in permutations(range(1, n + 1))
                   if kernels.encode_perm(t, n) == code)
        k = len(runs(tau)[-1])
        for delta in (1, -2):
            faulty = with_count(table, row, delta)
            assert_report_is_the_oracles(n, (
                [(qsym_for_diagword(faulty, tau), (1,) * k)],
                [(qsym_for_diagword(faulty, tau, deviation=0), (1,) * n)]),
                *qsym_oracle.withides_sides(faulty, tau))
    table = qsym_by_touch(n)
    for row in range(len(table.counts)):
        for delta in (1, -2):
            faulty = with_count(table, row, delta)
            assert_report_is_the_oracles(
                n, quasisym.square_paths_sides(faulty, n),
                *qsym_oracle.square_paths_sides(faulty, n))


def test_young_counts_refuses_a_q_count_off_the_q_factorials(monkeypatch):
    """Without its identity row, S_3 (block mask 0b11 of 1..3) counts
    q^inv as [0, 2, 2, 1], not [3]_q! = [1, 2, 2, 1]."""
    real = inv_ides_counts
    monkeypatch.setattr(quasisym, "inv_ides_counts",
                        lambda m: tuple(a[1:] for a in real(m)))
    quasisym.young_counts.cache_clear()
    try:
        with pytest.raises(RuntimeError, match=re.escape(
                "Young subgroup of block mask 3 of 1..3: q-count "
                "[0, 2, 2, 1] differs from block q-factorials [1, 2, 2, 1]")):
            quasisym.young_counts(3, 0b11)
    finally:
        quasisym.young_counts.cache_clear()
