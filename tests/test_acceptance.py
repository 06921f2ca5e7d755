"""End-to-end acceptance gate.

One test per shipped guarantee; each prints a single PASS/FAIL line so a
plain ``pytest -s tests/test_acceptance.py`` reads as a report card.
"""

import io
import time
from contextlib import redirect_stdout

import numpy as np
from table_helpers import as_dicts

from qtpark import aggregate, cli
from qtpark.checks import CheckSpec, run_check
from qtpark.kernels import iter_stat_chunks
from qtpark.paths import PrefFunc, enumerate_all, stats
from qtpark.qt import ONE, QTPoly, q_int
from qtpark.schedules import generate, schedule0, schedule_l


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"[{status}] {criterion}{tail}")
    assert ok, criterion


def run_registered(cid: str, **kwargs):
    start = time.perf_counter()
    rep = run_check(CheckSpec(id=cid, **kwargs))
    elapsed = time.perf_counter() - start
    return rep, elapsed


def test_criterion_1_worked_examples():
    s = stats(PrefFunc((1, 5, 1, 2, 1)))
    ok = (s.area, s.dinv, s.word, s.ides, s.comp, s.diagword) == (
        5, 2, (4, 5, 3, 2, 1), frozenset({1, 2, 3}), (4, 1), (4, 5, 3, 1, 2))
    t = stats(PrefFunc((3, 5, 3, 2, 3)))
    ok = ok and (t.deviation, t.area, t.dinv, t.dinv_parts, t.word,
                 t.ides) == (1, 4, 3, (0, 1, 2), (5, 2, 3, 1, 4),
                             frozenset({1, 4}))
    report("criterion 1: worked-example statistics", ok)


def test_criterion_2_schedule_tables():
    tau5 = (2, 3, 1, 4, 5)
    ok = schedule0(tau5) == (1, 2, 3, 1, 2)
    w1 = schedule_l(tau5, 1)
    ok = ok and [w1[c] for c in range(1, 6)] == [2, 2, 1, 1, 2]
    tau8 = (3, 7, 1, 5, 8, 2, 6, 4)
    expect = {
        0: [2, 2, 2, 2, 2, 1, 1, 1],
        1: [2, 2, 2, 2, 2, 2, 1, 1],
        2: [2, 2, 3, 2, 1, 2, 2, 1],
        3: [2, 1, 2, 2, 2, 2, 2, 1],
    }
    for l, want in expect.items():
        w = schedule_l(tau8, l)
        ok = ok and [w[c] for c in tau8] == want
    report("criterion 2: published schedule tables", ok)


def test_criterion_3_figure_counts():
    start = time.perf_counter()
    tau = (2, 3, 1, 4, 5)
    leaves0 = generate(tau, 0)
    leaves1 = generate(tau, 1)
    ok = len(leaves0) == 12 and len(leaves1) == 8

    def brute(l):
        keep = set()
        for pf in enumerate_all(5):
            s = stats(pf)
            if s.diagword == tau and s.deviation == l:
                keep.add(pf.f)
        return keep

    ok = ok and {pf.f for pf, _ in leaves0} == brute(0)
    ok = ok and {pf.f for pf, _ in leaves1} == brute(1)

    def poly(leaves):
        out = QTPoly.zero()
        for pf, _ in leaves:
            s = stats(pf)
            out = out + QTPoly.monomial(s.dinv, s.area, 1)
        return out

    t2 = QTPoly.monomial(0, 2, 1)
    onep = ONE + QTPoly.q(1)
    ok = ok and poly(leaves0) == t2 * onep * onep * q_int(3)
    ok = ok and poly(leaves1) == t2 * QTPoly.q(3) * onep * onep * onep
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    report("criterion 3: generation-tree leaves match brute force", ok,
           f"{elapsed:.2f}s")


def test_criterion_4_closed_forms():
    rep, elapsed = run_registered("thm-schedule-closed-form", n_lo=1, n_hi=6)
    report("criterion 4: schedule closed forms equal brute force, n <= 6",
           rep.passed, f"{rep.examined} pairs, {elapsed:.1f}s")


def test_criterion_5_multiset_and_staircase():
    rep1, t1 = run_registered("thm-shift-multiset", n_lo=1, n_hi=8)
    rep2, t2 = run_registered("lemma-parlem", n_lo=1, n_hi=6,
                              max_part=12, samples=1000)
    report("criterion 5: schedule multiset shift (n <= 8) and "
           "partition-staircase merge (6x6 full + 1000 random 12x12)",
           rep1.passed and rep2.passed,
           f"{rep1.examined}+{rep2.examined} cases, {t1 + t2:.1f}s")


def test_criterion_6_quasisym_factorizations():
    rep1, t1 = run_registered("lemma-factorlemma", n_lo=1, n_hi=6)
    rep2, t2 = run_registered("cor-withides", n_lo=1, n_hi=6)
    report("criterion 6: block factorization and deviation scaling, n <= 6",
           rep1.passed and rep2.passed,
           f"{rep1.examined}+{rep2.examined} words, {t1 + t2:.1f}s")


def test_criterion_7_algebraic_identities():
    rep1, t1 = run_registered("thm-hmz", n_lo=1, n_hi=6)
    rep2, t2 = run_registered("thm-pn-identity", n_lo=1, n_hi=6)
    rep3, t3 = run_registered("thm-enk-sum", n_lo=1, n_hi=6)
    total = t1 + t2 + t3
    ok = rep1.passed and rep2.passed and rep3.passed and total < 60
    report("criterion 7: operator, power-sum and telescoping identities, "
           "n = 1..6", ok, f"{total:.1f}s")


def test_criterion_8_main_identity():
    rep, elapsed = run_registered("main-square-paths", n_lo=1, n_hi=6)
    report("criterion 8: square-path sum equals touch-weighted parking sum, "
           "n = 1..6", rep.passed,
           f"{rep.examined} functions, {elapsed:.1f}s")


def test_criterion_9_determinism():
    n = 5
    arrays, tables, stdouts = [], [], []
    for threads in (1, 2, 8):
        blocks = [blk for _, blk in iter_stat_chunks(n, threads=threads,
                                                     chunk=700)]
        arrays.append(np.concatenate(blocks))
        tables.append([as_dicts(build(n, threads=threads))
                       for build in (aggregate.qt_by_diagword,
                                     aggregate.qsym_by_diagword,
                                     aggregate.qsym_by_touch)])
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(["enumerate", "--n", str(n)])
        stdouts.append((code, buf.getvalue()))
    ok = all(np.array_equal(arrays[0], a) for a in arrays[1:])
    ok = ok and tables[0] == tables[1] == tables[2]
    ok = ok and stdouts[0] == stdouts[1] == stdouts[2]
    ok = ok and stdouts[0][0] == 0
    report("criterion 9: byte-identical output across 1/2/8 threads", ok)
