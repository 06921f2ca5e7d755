"""Schedules, closed forms, generation trees, partition-staircase merge."""

import random
import re
from collections import Counter
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from qsym_oracle import ides

from qtpark import schedules
from qtpark.paths import PrefFunc, enumerate_all, stats
from qtpark.qt import ONE, QTPoly, q_int
from qtpark.schedules import (PartitionBox, closed_form_rows,
                              closed_form_terms, delta_merge, generate,
                              insertion_order, maj, permutation_blocks,
                              permutation_rows, pf_closed_form,
                              pref_closed_form, runs, schedule0,
                              schedule_counts, schedule_l, schedule_l_rows,
                              shift_multiset)


def brute_poly(n, tau, l):
    out = QTPoly.zero()
    for p in enumerate_all(n):
        s = stats(p)
        if s["diagword"] == list(tau) and s["deviation"] == l:
            out = out + QTPoly.monomial(s["dinv"], s["area"], 1)
    return out


def test_run_decomposition():
    tau = (3, 7, 1, 5, 8, 2, 6, 4)
    rs = runs(tau)
    assert rs == ((3, 7), (1, 5, 8), (2, 6), (4,))
    assert sum(rs, ()) == tau
    assert runs([2, 1]) == ((2,), (1,))


def test_perm_validation():
    with pytest.raises(ValueError):
        runs((1, 1, 2))
    with pytest.raises(ValueError):
        runs((0, 1))
    with pytest.raises(ValueError):
        runs(())


def test_perm_statistics():
    assert maj((2, 3, 1, 4, 5)) == 2
    assert maj((3, 7, 1, 5, 8, 2, 6, 4)) == 14
    assert ides((2, 3, 1, 4, 5)) == frozenset({1})


def test_schedule_small_paper_vector():
    tau = (2, 3, 1, 4, 5)
    assert schedule0(tau) == (1, 2, 3, 1, 2)
    w1 = schedule_l(tau, 1)
    assert [w1[c] for c in range(1, 6)] == [2, 2, 1, 1, 2]


def test_schedule_long_paper_vector():
    tau = (3, 7, 1, 5, 8, 2, 6, 4)
    by_tau = {}
    for l in range(4):
        w = schedule_l(tau, l)
        by_tau[l] = [w[c] for c in tau]
    assert by_tau[0] == [2, 2, 2, 2, 2, 1, 1, 1]
    assert by_tau[1] == [2, 2, 2, 2, 2, 2, 1, 1]
    assert by_tau[2] == [2, 2, 3, 2, 1, 2, 2, 1]
    assert by_tau[3] == [2, 1, 2, 2, 2, 2, 2, 1]


def test_schedule_nine_car_vector():
    tau = (3, 4, 5, 8, 1, 2, 6, 7, 9)
    w0 = schedule_l(tau, 0)
    w1 = schedule_l(tau, 1)
    assert [w0[c] for c in tau] == [5, 4, 3, 4, 5, 4, 3, 2, 1]
    assert [w1[c] for c in tau] == [4, 3, 2, 1, 4, 5, 3, 4, 4]


def test_schedule_l_bounds():
    with pytest.raises(ValueError):
        schedule_l((2, 1, 3), 2)
    with pytest.raises(ValueError):
        schedule_l((1, 2, 3), -1)


def test_schedule0_matches_schedule_l_at_zero():
    for n in range(1, 7):
        for tau in permutations(range(1, n + 1)):
            w = schedule_l(tau, 0)
            assert schedule0(tau) == tuple(
                w[c] for c in insertion_order(tau, 0))
            assert pf_closed_form(tau) == pref_closed_form(tau, 0), tau


def test_insertion_order():
    assert insertion_order((2, 3, 1, 4, 5), 0) == (5, 4, 1, 3, 2)
    assert insertion_order((2, 3, 1, 4, 5), 1) == (3, 2, 1, 4, 5)
    with pytest.raises(ValueError):
        insertion_order((1, 2), 2)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_closed_forms_equal_brute_force(n):
    for tau in permutations(range(1, n + 1)):
        nruns = len(runs(tau))
        for l in range(nruns):
            assert pref_closed_form(tau, l) == brute_poly(n, tau, l), (tau, l)
        assert pf_closed_form(tau) == brute_poly(n, tau, 0), tau


def test_figure_leaf_counts_and_polynomials():
    tau = (2, 3, 1, 4, 5)
    leaves0 = generate(tau, 0)
    leaves1 = generate(tau, 1)
    assert len(leaves0) == 12
    assert len(leaves1) == 8
    poly0 = QTPoly.zero()
    for pf, _ in leaves0:
        s = stats(pf)
        poly0 = poly0 + QTPoly.monomial(s["dinv"], s["area"], 1)
    poly1 = QTPoly.zero()
    for pf, _ in leaves1:
        s = stats(pf)
        poly1 = poly1 + QTPoly.monomial(s["dinv"], s["area"], 1)
    t2 = QTPoly.monomial(0, 2, 1)
    onep_q = ONE + QTPoly.q(1)
    assert poly0 == t2 * onep_q * onep_q * q_int(3)
    assert poly1 == t2 * QTPoly.q(3) * onep_q * onep_q * onep_q


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_generate_equals_brute_filter(n):
    for tau in permutations(range(1, n + 1)):
        nruns = len(runs(tau))
        for l in range(nruns):
            got = sorted(pf.f for pf, _ in generate(tau, l))
            want = sorted(p.f for p in enumerate_all(n)
                          if stats(p)["diagword"] == list(tau)
                          and stats(p)["deviation"] == l)
            assert got == want, (tau, l)


def test_generate_trace_lengths():
    for pf, trace in generate((2, 3, 1, 4, 5), 1):
        assert len(trace) == 5
        assert all(v >= 0 for v in trace)


def test_generate_bounds():
    with pytest.raises(ValueError):
        generate((1, 2, 3), 3)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_shift_multiset_exhaustive(n):
    for tau in permutations(range(1, n + 1)):
        r = len(runs(tau)) - 1
        for l in range(1, r + 1):
            assert shift_multiset(tau, l), (tau, l)


def test_shift_multiset_counterexample_free_statement():
    # the multiset really changes: it is not just a reordering
    tau = (2, 3, 1, 4, 5)
    m0 = Counter(schedule0(tau))
    m1 = Counter(schedule_l(tau, 1).values())
    assert m0 != m1


def test_shift_multiset_bounds():
    with pytest.raises(ValueError):
        shift_multiset((2, 3, 1, 4, 5), 0)
    with pytest.raises(ValueError):
        shift_multiset((1, 2, 3), 1)


@pytest.mark.parametrize("n", range(1, 8))
def test_permutation_rows_in_itertools_order(n):
    rows = permutation_rows(n)
    assert rows.dtype == np.int8
    assert list(map(tuple, rows.tolist())) == list(
        permutations(range(1, n + 1)))
    blocks = list(permutation_blocks(n))
    assert [set(b[:, 0].tolist()) for b in blocks] == [
        {first} for first in range(1, n + 1)]
    assert np.array_equal(np.concatenate(blocks), rows)


@pytest.mark.parametrize("n", range(1, 6))
def test_schedule_counts_match_definitions(n):
    perms = permutation_rows(n)
    sc = schedule_counts(perms)
    for r, tau in enumerate(map(tuple, perms.tolist())):
        rs = runs(tau)
        for ri, own in enumerate(rs):
            nxt = rs[ri + 1] if ri + 1 < len(rs) else ()
            prev = rs[ri - 1] if ri else ()
            for c in own:
                p = tau.index(c)
                assert sc.from_last[r, p] == len(rs) - 1 - ri
                assert sc.own_larger[r, p] == sum(y > c for y in own)
                assert sc.own_smaller[r, p] == sum(y < c for y in own)
                assert sc.next_smaller[r, p] == sum(y < c for y in nxt)
                assert sc.prev_larger[r, p] == sum(y > c for y in prev)


def assert_batch_weights_match_scalar(perms, closed_forms=True):
    """Every car's w^(l), every l its tau has, as the scalar schedule_l
    gives it, and w^0 as Haglund and Loehr's schedule0 gives it; with
    closed_forms, each (tau, l) case's closed_form_rows terms as the
    scalar pref_closed_form gives them, and no terms at an l tau lacks."""
    sc = schedule_counts(perms)
    wl = [schedule_l_rows(sc, l) for l in range(perms.shape[1])]
    terms = {}
    if closed_forms:
        for r, l, t, q, c in zip(*(x.tolist() for x in closed_form_rows(
                perms, sc, range(perms.shape[1])))):
            terms.setdefault((r, l), {})[q, t] = c
    for r, tau in enumerate(map(tuple, perms.tolist())):
        nruns = len(runs(tau))
        assert sc.from_last[r, 0] + 1 == nruns
        # w_i is the weight of the i-th car from the right
        assert tuple(wl[0][r, ::-1].tolist()) == schedule0(tau)
        for l in range(nruns):
            w = schedule_l(tau, l)
            assert wl[l][r].tolist() == [w[c] for c in tau], (tau, l)
            if closed_forms:
                assert QTPoly(terms.pop((r, l))) == pref_closed_form(tau, l)
    assert terms == {}


@pytest.mark.parametrize("n", range(1, 7))
def test_batch_weights_match_scalar(n):
    assert_batch_weights_match_scalar(permutation_rows(n))


@pytest.mark.parametrize("n", [7, 8])
@pytest.mark.parametrize("where", ["start", "middle", "end"])
def test_batch_weights_match_scalar_window(n, where):
    perms = permutation_rows(n)
    start = {"start": 0, "middle": len(perms) // 2 - 150,
             "end": len(perms) - 300}[where]
    assert_batch_weights_match_scalar(perms[start:start + 300])


def test_batch_weights_of_one_long_tau():
    tau = (3, 1, 4, 11, 5, 9, 2, 6, 8, 7, 10)
    assert_batch_weights_match_scalar(np.array([tau]))
    # The coefficients of prod [w]_q of these taus leave int64, so only
    # their weights are compared.
    rng = random.Random(2000)
    for n in (200, 300, 400):
        assert_batch_weights_match_scalar(
            np.array([rng.sample(range(1, n + 1), n)]), closed_forms=False)


@pytest.mark.parametrize("shape", [(0, 3), (1, 1), (40, 1), (300, 5),
                                   (500, 8)])
def test_closed_form_terms_is_the_per_row_product(shape):
    """The flat (row, i, c_i) terms equal those of each row's explicit
    product of [w]_q in row order, with none for a row holding a weight
    below 1; rows repeat, and sort to one multiset in several orders."""
    w = np.random.default_rng(sum(shape)).integers(-1, 5, size=shape,
                                                   dtype=np.int8)
    want = []
    for r, ws in enumerate(w.tolist()):
        if min(ws) >= 1:
            poly = ONE
            for v in ws:
                poly = poly * q_int(v)
            want += [(r, qe, c) for (qe, _), c in poly.terms()]
    row, i, c = closed_form_terms(w)
    assert list(zip(row.tolist(), i.tolist(), c.tolist())) == want
    assert row.dtype == i.dtype == c.dtype == np.int64


def test_partition_box_validation():
    with pytest.raises(ValueError):
        PartitionBox((3, 1), 2, 3)
    with pytest.raises(ValueError):
        PartitionBox((1, 3, 0), 3, 3)
    with pytest.raises(ValueError):
        PartitionBox((4, 1, 0), 3, 3)


def test_conjugate():
    pb = PartitionBox((3, 3, 2, 1, 0), 4, 5)
    assert pb.conjugate == (4, 3, 2, 0)


def test_delta_merge_worked_example():
    pb = PartitionBox((3, 3, 2, 1, 0), 4, 5)
    lhs, rhs = delta_merge(pb)
    assert lhs == (0, 1, 2, 3, 3, 4, 4, 4, 4)
    assert lhs == rhs


@given(st.integers(1, 8), st.integers(1, 8), st.data())
@settings(max_examples=200)
def test_delta_merge_property(a, b, data):
    lam = tuple(sorted((data.draw(st.integers(0, a)) for _ in range(b)),
                       reverse=True))
    lhs, rhs = delta_merge(PartitionBox(lam, a, b))
    assert lhs == rhs


def test_generate_refuses_a_leaf_off_its_bookkeeping(monkeypatch):
    """A leaf whose area is re-measured one too high is named: (2, 1, 2),
    the first leaf of tau 312 at l = 0."""
    real = schedules.stats
    monkeypatch.setattr(schedules, "stats", lambda p: {
        **real(p), "area": real(p)["area"] + 1})
    with pytest.raises(RuntimeError, match=re.escape(
            "insertion tree invariant broken: (PrefFunc(f=(2, 1, 2)),)")):
        generate((3, 1, 2), 0)
    assert real(PrefFunc((2, 1, 2)))["diagword"] == [3, 1, 2]


def test_generate_refuses_a_car_with_other_spots_than_its_weight(
        monkeypatch):
    """Car 3 of tau 312 has w^(0)(3) = 2 spots; a weight of 3 names the car,
    its spots and the weight."""
    real = schedules.schedule_l

    def bumped(rd, l):
        weights = dict(real(rd, l))
        weights[3] += 1
        return weights

    monkeypatch.setattr(schedules, "schedule_l", bumped)
    with pytest.raises(RuntimeError, match=re.escape(
            "insertion tree invariant broken: (3, [1, 2], 3)")):
        generate((3, 1, 2), 0)
