"""Command-line behavior: golden output, exit codes, determinism."""

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import random
import re
import subprocess
import sys
from itertools import permutations, product
from math import comb, factorial, prod
from pathlib import Path

import numpy as np
import pytest
import qsym_oracle
from qsym_oracle import withides_sides_differ
from table_helpers import TableRead, UnreadableTable, counts_at
from table_helpers import with_entry

import qtpark
from qtpark import aggregate, checks, cli, kernels, quasisym, schedules
from qtpark import qt, symfunc
from qtpark.checks import SCOPES
from qtpark.cli import main
from qtpark.paths import enumerate_all, json_line, place, stats
from qtpark.qt import QTPoly
from qtpark.quasisym import withides_failures

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as e:  # argparse's usage errors, e.g. an unknown option
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def golden(name):
    return (GOLDEN / name).read_text()


@pytest.mark.parametrize("vector,name", [
    ("1,5,1,2,1", "stats_15121.jsonl"),
    ("3,5,3,2,3", "stats_35323.jsonl"),
])
def test_stats_golden(capsys, vector, name):
    code, out, _ = run(capsys, "stats", vector)
    assert code == 0
    assert out == golden(name)


def test_stats_accepts_compact_digits(capsys):
    code, out, _ = run(capsys, "stats", "15121")
    assert code == 0
    assert out == golden("stats_15121.jsonl")


def test_stats_rejects_bad_vector(capsys):
    code, _, err = run(capsys, "stats", "9,1")
    assert code == 2
    assert "error:" in err
    code, _, _ = run(capsys, "stats", "1,x")
    assert code == 2
    code, _, _ = run(capsys, "stats", "")
    assert code == 2


def test_enumerate_golden(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "3")
    assert code == 0
    assert out == golden("enumerate_3.jsonl")


def test_enumerate_filters(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "3", "--deviation", "0")
    assert code == 0
    assert len(out.splitlines()) == 16
    code, out, _ = run(capsys, "enumerate", "--n", "5", "--diagword", "23145")
    assert len(out.splitlines()) == 20
    code, out, _ = run(capsys, "enumerate", "--n", "5", "--diagword",
                       "23145", "--deviation", "1")
    assert len(out.splitlines()) == 8
    code, out, _ = run(capsys, "enumerate", "--n", "3", "--touch", "3")
    records = [json.loads(line) for line in out.splitlines()]
    assert all(r["touch"] == 3 for r in records)
    assert len(records) == sum(1 for p in enumerate_all(3)
                               if stats(p)["touch"] == 3)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_enumerate_filters_match_json_line(capsys, n):
    """Every filter alone, and every --touch with --deviation that some
    function has, keep exactly the json_line of the functions they select,
    in order."""
    lines = [(json_line(p) + "\n", stats(p)) for p in enumerate_all(n)]
    taus = list(permutations(range(1, n + 1)))
    cases = [((), lambda s: True)]
    cases += [(("--deviation", str(d)), lambda s, d=d: s["deviation"] == d)
              for d in range(n)]
    cases += [(("--touch", str(k)), lambda s, k=k: s["touch"] == k)
              for k in range(1, n + 1)]
    cases += [(("--diagword", "".join(map(str, tau))),
               lambda s, tau=tau: s["diagword"] == list(tau))
              for tau in taus[::max(1, len(taus) // 12)]]
    cases += [(("--touch", str(k), "--deviation", str(d)),
               lambda s, k=k, d=d: (s["touch"], s["deviation"]) == (k, d))
              for d in range(n) for k in range(1, n + 1 - d)]
    for argv, keep in cases:
        code, out, _ = run(capsys, "enumerate", "--n", str(n), *argv)
        assert code == 0
        assert out == "".join(line for line, s in lines if keep(s)), argv


def test_enumerate_guards(capsys):
    assert run(capsys, "enumerate", "--n", "8")[0] == 2
    assert run(capsys, "enumerate", "--n", "9", "--allow-large")[0] == 2
    assert run(capsys, "enumerate", "--n", "0")[0] == 2
    assert run(capsys, "enumerate", "--n", "3", "--diagword", "2314")[0] == 2


def test_table_schedules_golden(capsys):
    code, out, _ = run(capsys, "table", "schedules", "--tau", "23145")
    assert code == 0
    assert out == golden("schedules_23145.csv")
    code, out, _ = run(capsys, "table", "schedules", "--tau", "37158264")
    assert code == 0
    assert out == golden("schedules_37158264.csv")
    # Above 9 cars the tau field holds commas and is quoted.
    tau = "7,2,11,4,9,1,12,5,3,10,8,6"
    code, out, _ = run(capsys, "table", "schedules", "--tau", tau)
    assert code == 0
    assert out == golden(f"schedules_{tau.replace(',', '-')}.csv")


def long_taus():
    """Random taus of 200, 300 and 400 cars and the decreasing 300-car
    tau, by name."""
    rng = random.Random(2000)
    taus = {f"random-{n}": rng.sample(range(1, n + 1), n)
            for n in (200, 300, 400)}
    taus["decreasing-300"] = list(range(300, 0, -1))
    return taus


@pytest.mark.parametrize("case", ["n6", *long_taus()])
def test_table_schedules_matches_scalar_references(capsys, case):
    """Every row of table schedules (--n 6, or one long --tau) holds the
    columns the scalar functions give its (tau, l): maj, the run lengths
    left to right, and schedule_l read in insertion order, by car and
    along tau."""
    if case == "n6":
        argv = ["--n", "6"]
        taus = list(permutations(range(1, 7)))
    else:
        taus = [tuple(long_taus()[case])]
        argv = ["--tau", ",".join(map(str, taus[0]))]
    code, out, _ = run(capsys, "table", "schedules", *argv)
    assert code == 0
    header, *rows = csv.reader(out.splitlines())
    assert header == ["tau", "l", "maj", "rho", "w_insertion", "w_by_car",
                      "w_by_tau"]
    cases = [(t, l) for t in taus for l in range(len(schedules.runs(t)))]
    assert len(rows) == len(cases)
    for (t, l), row in zip(cases, rows):
        w = schedules.schedule_l(t, l)
        orders = (schedules.insertion_order(t, l), range(1, len(t) + 1), t)
        assert row == [
            cli._fmt_perm(t), str(l), str(schedules.maj(t)),
            " ".join(str(len(run)) for run in schedules.runs(t)),
            *(" ".join(str(w[c]) for c in order) for order in orders)]


def test_table_polynomials_golden(capsys):
    code, out, _ = run(capsys, "table", "polynomials", "--n", "3")
    assert code == 0
    assert out == golden("polynomials_3.csv")
    assert ",no" not in out


def test_table_enk_golden(capsys):
    code, out, _ = run(capsys, "table", "enk", "--n", "2")
    assert code == 0
    assert out == golden("enk_2.csv")


def test_table_enk_trivial(capsys):
    code, out, _ = run(capsys, "table", "enk", "--n", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,k,expansion"
    assert lines[1] == '1,1,"{""1"":""(1)""}"'
    assert len(lines) == 2


def test_table_guards(capsys):
    assert run(capsys, "table", "schedules")[0] == 2
    assert run(capsys, "table", "polynomials")[0] == 2
    assert run(capsys, "table", "enk", "--n", "99")[0] == 2
    assert run(capsys, "table", "polynomials", "--n", "9")[0] == 2


def test_check_pass_report(capsys):
    code, out, err = run(capsys, "check", "lemma-parlem", "--n", "1..3",
                         "--max", "6", "--samples", "25")
    assert code == 0
    assert out == golden("check_parlem_small.json")
    stderr = json.loads(err)
    assert list(stderr) == ["id", "wall_s", "threads", "peak_rss_mb"]
    assert (stderr["id"], stderr["threads"]) == ("lemma-parlem", 1)
    assert stderr["wall_s"] >= 0 and stderr["peak_rss_mb"] > 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["counterexample"] is None


def test_check_usage_errors(capsys):
    assert run(capsys, "check", "no-such-id")[0] == 2
    assert run(capsys, "check", "thm-hmz", "--n", "6..2")[0] == 2
    assert run(capsys, "check", "thm-hmz", "--n", "x")[0] == 2


def assert_refused_up_front(capsys, monkeypatch, *argv):
    """argv exits 2 with empty stdout, and no check runner, enumeration,
    table sweep or kernel block ever starts."""
    calls = []

    def record(*args, **kwargs):
        calls.append(args)

    for name in ("grid_block", "stats_block", "_row_orders"):
        monkeypatch.setattr(kernels, name, record)
    for check_id in checks.REGISTRY:
        monkeypatch.setitem(checks.REGISTRY, check_id, record)
    for name in ("json_blocks", "tau_blocks", "e_nk"):
        monkeypatch.setattr(cli, name, record)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "error:" in err
    assert calls == []


@pytest.mark.parametrize("command", sorted(SCOPES))
def test_check_refuses_oversized_sweep(capsys, monkeypatch, command):
    """Every row of the scope table refuses n = cap + 1."""
    n = str(SCOPES[command].cap + 1)
    if command in checks.REGISTRY:
        argv = ["check", command, "--n", n]
    else:
        argv = command.split() + ["--n", n]
    if command == "enumerate":
        argv.append("--allow-large")  # refused by the cap, not the gate
    assert_refused_up_front(capsys, monkeypatch, *argv)


@pytest.mark.parametrize("argv", [
    # a --tau or --l that no case in the n range can use, or an n range
    # with no deviation the check reads
    ("check", "thm-schedule-closed-form", "--tau", "3142", "--n", "5..6"),
    ("check", "cor-withides", "--tau", "1,2,3,4,5,6,7"),
    ("check", "thm-shift-multiset", "--n", "1"),
    ("check", "thm-shift-multiset", "--tau", "3142", "--n", "1..2"),
    ("check", "thm-schedule-closed-form", "--n", "4", "--l", "7"),
    ("check", "thm-schedule-closed-form", "--n", "4", "--l", "-1"),
    ("check", "thm-shift-multiset", "--tau", "3142", "--l", "0"),
    ("check", "thm-shift-multiset", "--tau", "1234"),
    ("check", "lemma-factorlemma", "--tau", "3142", "--l", "3"),
    ("table", "schedules", "--tau", "3142", "--n", "5"),
    # an option the id does not read
    ("check", "thm-hmz", "--n", "3", "--tau", "123", "--l", "2"),
    ("check", "cor-withides", "--n", "3", "--l", "1"),
    ("check", "main-square-paths", "--n", "3", "--samples", "5"),
    ("check", "lemma-parlem", "--n", "3", "--tau", "123"),
    ("table", "enk", "--n", "2", "--tau", "12"),
    # an n range that starts below 1
    ("check", "thm-hmz", "--n", "0"),
    ("check", "lemma-parlem", "--n", "0..3"),
    # --threads where nothing is swept, or fewer than one
    ("check", "thm-shift-multiset", "--threads", "2"),
    ("check", "thm-hmz", "--n", "2", "--threads", "8"),
    ("check", "thm-pn-identity", "--threads", "1"),
    ("check", "thm-enk-sum", "--n", "2", "--threads", "2"),
    ("check", "lemma-parlem", "--n", "2", "--threads", "2"),
    ("check", "cor-withides", "--n", "3", "--threads", "0"),
    # an option the command does not offer: table takes no --threads, and
    # enumerate --deviation 0 keeps the parking functions
    ("table", "schedules", "--n", "3", "--threads", "2"),
    ("table", "enk", "--n", "2", "--threads", "8"),
    ("table", "polynomials", "--n", "3", "--threads", "2"),
    ("enumerate", "--n", "3", "--parking-only"),
    ("enumerate", "--n", "6", "--parking-only", "--deviation", "0"),
    # lemma-parlem's sampling box and sample count above their caps
    ("check", "lemma-parlem", "--n", "2",
     "--max", str(SCOPES["lemma-parlem"].limits["max_part"][-1] + 1)),
    ("check", "lemma-parlem", "--n", "2",
     "--samples", str(SCOPES["lemma-parlem"].limits["samples"][-1] + 1)),
    # an empty sampling box
    ("check", "lemma-parlem", "--n", "1..8", "--max", "0"),
    ("check", "lemma-parlem", "--max", "0", "--samples", "0"),
    # a negative sample count
    ("check", "lemma-parlem", "--n", "2", "--samples", "-1"),
    # an enumerate filter no function of size n passes
    ("enumerate", "--n", "3", "--touch", "0"),
    ("enumerate", "--n", "3", "--touch", "4"),
    ("enumerate", "--n", "3", "--deviation", "-1"),
    ("enumerate", "--n", "3", "--deviation", "3"),
    ("enumerate", "--n", "3", "--touch", "3", "--deviation", "2"),
    ("enumerate", "--n", "3", "--diagword", "123", "--deviation", "1"),
])
def test_refuses_unusable_input(capsys, monkeypatch, argv):
    assert_refused_up_front(capsys, monkeypatch, *argv)


@pytest.mark.parametrize("argv,message", [
    ("enumerate --n 3 --deviation 5",
     "no case in n range 3..3 can use deviation l = 5"),
    ("check thm-schedule-closed-form --n 4 --l 7",
     "no case in n range 4..4 can use deviation l = 7"),
    ("check thm-shift-multiset --tau 1",
     "no case in n range 1..8 can use tau 1"),
    ("check thm-shift-multiset --n 1",
     "no case in n range 1..1 can use deviation l >= 1"),
    # a tau outside the n range; without --n, the message says that range
    # is the default and, below the cap, which --n takes the tau
    ("check cor-withides --tau 1,2,3,4,5,6,7",
     "tau has 7 cars, outside 1..6, the default n range; give --n 7"),
    ("check cor-withides --tau 13,12,11,10,9,8,7,6,5,4,3,2,1",
     "tau has 13 cars, outside 1..6, the default n range; give --n 13"),
    ("check cor-withides --tau 16,15,14,13,12,11,10,9,8,7,6,5,4,3,2,1",
     "tau has 16 cars, outside 1..6"),
    ("check thm-schedule-closed-form --tau 3142 --n 5..6",
     "tau has 4 cars, outside 5..6"),
])
def test_deviation_refusal_names_the_given_options(capsys, argv, message):
    code, out, err = run(capsys, *argv.split())
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("check_id,l,examined", [
    ("thm-schedule-closed-form", 2, 768),
    ("lemma-factorlemma", 1, 867),
    ("thm-shift-multiset", 3, 39895),
])
def test_one_deviation_checks_exactly_its_cases(capsys, check_id, l,
                                                examined):
    """--l checks the taus with more than l runs, at deviation l alone."""
    lo, hi = SCOPES[check_id].default
    assert examined == sum(len(schedules.runs(tau)) > l
                           for n in range(lo, hi + 1)
                           for tau in permutations(range(1, n + 1)))
    code, out, _ = run(capsys, "check", check_id, "--l", str(l))
    report = json.loads(out)
    assert code == 0 and report["passed"]
    assert report["parameters"]["l"] == l
    assert report["examined"] == examined


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumerate_accepts_exactly_the_filters_some_function_passes(n):
    """Every combination of enumerate filters that its scope accepts keeps
    at least one function, and every one it refuses keeps none."""
    have = {(tuple(s["diagword"]), s["deviation"], s["touch"])
            for s in map(stats, enumerate_all(n))}
    taus = [None, *permutations(range(1, n + 1))]
    for tau, l, touch in product(taus, [None, *range(-1, n + 1)],
                                 [None, *range(n + 2)]):
        passes = any((tau is None or tau == t)
                     and (l is None or l == d)
                     and (touch is None or touch == k)
                     for t, d, k in have)
        try:
            checks.scope("enumerate", (n, n), tau=tau, l=l, touch=touch)
        except ValueError:
            assert not passes, (tau, l, touch)
        else:
            assert passes, (tau, l, touch)


def test_threads_only_where_a_table_is_swept():
    """The four checks whose n^n sweep reaches n = 8 read --threads;
    table polynomials stops at n = 7 and builds its table with one
    worker."""
    swept = sorted(c for c, row in SCOPES.items() if row.sweeps)
    assert swept == ["cor-withides", "lemma-factorlemma", "main-square-paths",
                     "thm-schedule-closed-form"]
    assert all(SCOPES[c].cap == checks.SWEEP_CAP for c in swept)
    for command in SCOPES:
        if command in swept:
            assert checks.scope(command, (1, 2), threads=2) == (1, 2)
        else:
            with pytest.raises(ValueError, match="--threads"):
                checks.scope(command, (1, 2), threads=2)


# The Scope.reads key of each option whose name is not that key.
READS_KEY = {"diagword": "tau", "deviation": "l", "max": "max_part"}


def test_every_option_sets_one_scope_key():
    """Each option of a command besides --n and --threads sets its own
    Scope.reads key of the command's rows, so scope() validates it, and
    each key has its option; --threads is offered where a row sweeps."""
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    for command, parser in subparsers.choices.items():
        rows = ([SCOPES[c] for c in checks.REGISTRY] if command == "check"
                else [row for c, row in SCOPES.items()
                      if c.split()[0] == command])
        dests = [a.dest for a in parser._actions if a.option_strings]
        keys = [READS_KEY.get(d, d) for d in dests
                if d not in ("help", "n", "threads")]
        assert sorted(keys) == sorted(set().union(
            *(row.reads for row in rows))), command
        assert ("threads" in dests) == any(row.sweeps for row in rows), command


@pytest.mark.parametrize("outcome,code,examined", [
    (({"n": 1}, 1), 1, 1),
    ((None, 3), 0, 3),
])
def test_the_counterexample_is_the_verdict(capsys, monkeypatch, outcome,
                                           code, examined):
    """A runner returns only its counterexample and the cases it
    examined: a counterexample fails the report, None passes it."""
    monkeypatch.setitem(checks.REGISTRY, "thm-hmz", lambda spec: outcome)
    got, out, _ = run(capsys, "check", "thm-hmz", "--n", "1..2")
    report = json.loads(out)
    assert got == code
    assert report["passed"] is (outcome[0] is None)
    assert report["counterexample"] == outcome[0]
    assert report["examined"] == examined


def test_parlem_accepts_its_caps():
    """Both ends of each of lemma-parlem's option ranges are accepted."""
    limits = SCOPES["lemma-parlem"].limits
    for end in (0, -1):
        options = {opt: accepted[end] for opt, accepted in limits.items()}
        assert checks.scope("lemma-parlem", (1, 2), **options) == (1, 2)


def test_parlem_honours_the_low_end(capsys):
    code, out, _ = run(capsys, "check", "lemma-parlem", "--n", "2..3",
                       "--samples", "0")
    assert code == 0
    report = json.loads(out)
    assert report["parameters"]["n"] == "2..3"
    assert report["examined"] == sum(comb(a + b, b) for a in range(1, 4)
                                     for b in range(1, 4) if max(a, b) >= 2)


def count_calls(monkeypatch, modules, name):
    """Record the arguments of every call of ``name`` in ``modules``."""
    calls = []
    real = getattr(modules[0], name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    for module in modules:
        monkeypatch.setattr(module, name, counting)
    return calls


ELEVEN = "3,1,4,11,5,9,2,6,8,7,10"


def test_shift_multiset_decomposes_tau_once(capsys, monkeypatch):
    runs = count_calls(monkeypatch, (schedules, checks), "runs")
    batch = count_calls(monkeypatch, (checks,), "schedule_counts")
    code, out, _ = run(capsys, "check", "thm-shift-multiset", "--n", "1..6")
    assert code == 0
    assert json.loads(out)["examined"] == sum(
        factorial(n) * (n - 1) // 2 for n in range(1, 7))
    assert runs == []  # the walk needs no run decomposition
    # one block of (n-1)! rows per first car
    assert [len(args[0]) for args in batch] == [
        factorial(n - 1) for n in range(1, 7) for _ in range(n)]
    code, out, _ = run(capsys, "check", "thm-shift-multiset", "--n", "11",
                       "--tau", ELEVEN)
    assert code == 0
    assert len(runs) <= 1


def test_factorlemma_decomposes_each_case_once(capsys, monkeypatch):
    """One schedule_counts and one factor_check call per permutation
    block, for all its taus and deviations at once; the walk needs no run
    decomposition."""
    runs = count_calls(monkeypatch, (schedules, checks), "runs")
    batch = count_calls(monkeypatch, (checks,), "schedule_counts")
    decided = count_calls(monkeypatch, (checks,), "factor_check")
    code, out, _ = run(capsys, "check", "lemma-factorlemma", "--n", "1..5")
    assert code == 0
    assert json.loads(out)["examined"] == 436
    assert runs == []
    assert len(batch) == len(decided) == sum(range(1, 6))  # n blocks per n
    assert [args[1].shape for args in decided] == [
        (factorial(n - 1), n) for n in range(1, 6) for _ in range(n)]


def test_tables_count_schedules_once_per_block(capsys, monkeypatch):
    """Both tables read their schedule columns from one schedule_counts
    call per permutation block, and a --tau table from one call on its
    one row."""
    rows = sum(len(schedules.runs(t)) for t in permutations(range(1, 6)))
    batch = count_calls(monkeypatch, (cli,), "schedule_counts")
    for kind in ("schedules", "polynomials"):
        code, out, _ = run(capsys, "table", kind, "--n", "5")
        assert code == 0
        assert len(out.splitlines()) == 1 + rows
        assert [args[0].shape for args in batch] == [(24, 5)] * 5
        batch.clear()
    code, out, _ = run(capsys, "table", "schedules", "--tau", "3142")
    assert code == 0
    assert len(out.splitlines()) == 1 + len(schedules.runs((3, 1, 4, 2)))
    assert [args[0].shape for args in batch] == [(1, 4)]


def test_table_polynomials_builds_each_product_once(capsys, monkeypatch):
    """prod [w]_q is built once per sorted weight multiset, not once per
    (tau, l): one QTPoly product per weight of each multiset."""
    multisets = {tuple(sorted(schedules.schedule_l(t, l).values()))
                 for t in permutations(range(1, 6))
                 for l in range(len(schedules.runs(t)))}
    qt.q_int_product.cache_clear()
    products = count_calls(monkeypatch, (QTPoly,), "__mul__")
    code, _, _ = run(capsys, "table", "polynomials", "--n", "5")
    assert code == 0
    assert len(products) == sum(map(len, multisets))


def test_shift_multiset_refuses_unbounded_walk(capsys, monkeypatch):
    nruns = len(schedules.runs(cli._parse_vector(ELEVEN)))
    batch = count_calls(monkeypatch, (checks,), "schedule_counts")
    code, out, err = run(capsys, "check", "thm-shift-multiset", "--n", "11")
    assert code == 2
    assert out == ""
    assert "error:" in err
    assert batch == []
    # One named tau of that size is a single row, not a refusal.
    code, out, _ = run(capsys, "check", "thm-shift-multiset", "--n", "11",
                       "--tau", ELEVEN)
    assert code == 0
    assert [args[0].shape for args in batch] == [(1, 11)]
    assert json.loads(out)["examined"] == nruns - 1


def test_shift_multiset_walks_n9_in_blocks(capsys, monkeypatch):
    batch = count_calls(monkeypatch, (checks,), "schedule_counts")
    code, out, _ = run(capsys, "check", "thm-shift-multiset", "--n", "9")
    assert code == 0
    assert json.loads(out)["examined"] == factorial(9) * 8 // 2
    assert [args[0].shape for args in batch] == [(factorial(8), 9)] * 9


def scalar_report(check_id, n_hi, fault):
    """The report of a runner that walks one (tau, l) at a time, in
    (n, tau, l) order, and first fails at ``fault``; its counterexample
    comes from the scalar schedule functions (the factor lemma's names
    the case alone)."""
    first_l = SCOPES[check_id].first_l
    cases = [(tau, l) for n in range(1, n_hi + 1)
             for tau in permutations(range(1, n + 1))
             for l in range(first_l, len(schedules.runs(tau)))]
    tau, l = fault
    ce = {"n": len(tau), "tau": list(tau), "l": l}
    if check_id == "thm-shift-multiset":
        ce.update(schedule0=sorted(schedules.schedule0(tau)),
                  schedule_l=sorted(schedules.schedule_l(tau, l).values()))
    elif check_id == "thm-schedule-closed-form":
        counts = counts_at(aggregate.qt_by_diagword(len(tau)),
                           kernels.encode_perm(tau, len(tau)), l)
        ce.update(closed_form=str(schedules.pref_closed_form(tau, l)),
                  brute_force=str(QTPoly({(dinv, area): c for (area, dinv), c
                                          in counts.items()})))
    return {"id": check_id, "parameters": {"n": f"1..{n_hi}"},
            "passed": False, "counterexample": ce,
            "examined": cases.index(fault) + 1}


TAU5 = (3, 5, 1, 4, 2)  # runs 35 | 14 | 2


@pytest.mark.parametrize("check_id,target,field,position,fault,zero", [
    # own_smaller of the second run's first car feeds only w^(2)
    ("thm-shift-multiset", "schedule_counts", "own_smaller", 2, 2, False),
    # schedule_l_rows is planted at l = 0 alone: w^0 feeds every l
    ("thm-shift-multiset", "schedule_l_rows", None, 0, 1, False),
    # the closed form reads schedule_l_rows in schedules.closed_form_rows
    ("thm-schedule-closed-form", "schedule_counts", "own_smaller", 2, 2,
     False),
    # own_larger of the last car feeds only w^(0)
    ("thm-schedule-closed-form", "schedule_counts", "own_larger", 4, 0,
     False),
    ("thm-schedule-closed-form", "schedule_l_rows", None, 0, 0, False),
    # [0]_q = 0 matches no table key
    ("thm-schedule-closed-form", "schedule_l_rows", None, 2, 0, True),
    # factor_check reads w^(l) from the block's schedule_counts
    ("lemma-factorlemma", "schedule_counts", "own_smaller", 2, 2, False),
    ("lemma-factorlemma", "schedule_counts", "own_larger", 4, 0, False),
])
def test_planted_fault_gives_scalar_report(capsys, monkeypatch, check_id,
                                           target, field, position, fault,
                                           zero):
    """A batch function off by one (or zero) for one car of TAU5 fails the
    check at one (tau, l), with the report a one-at-a-time walk would
    print.  schedule_l_rows is off at l = 0 alone, where the check reads
    it."""
    block = {}
    real_counts = checks.schedule_counts

    def counts(perms):
        block["perms"] = perms
        return real_counts(perms)

    home = (schedules if (check_id, target) == ("thm-schedule-closed-form",
                                                "schedule_l_rows") else checks)
    real = counts if target == "schedule_counts" else getattr(home, target)

    def off_by_one(*args):
        out = real(*args)
        perms = block["perms"]
        if perms.shape[1] == len(TAU5) and args[1:] in [(), (0,)]:
            row = (perms == TAU5).all(axis=1)
            planted = getattr(out, field) if field else out
            if zero:
                planted[row, position] = 0
            else:
                planted[row, position] += 1
        return out

    monkeypatch.setattr(checks, "schedule_counts", counts)
    monkeypatch.setattr(home, target, off_by_one)
    code, out, _ = run(capsys, "check", check_id, "--n", "1..5")
    assert code == 1
    assert json.loads(out) == scalar_report(check_id, 5, (TAU5, fault))


def watch_blocks(monkeypatch):
    """A list that gets (n, records) for every block of kernel records a
    fold reads.  A swept block is appended in the worker thread that
    computed it, so the order of those entries is not fixed."""
    blocks = []
    real = kernels.iter_stat_chunks

    def watched(n, *args, each=None, **kwargs):
        def seen(blk):
            blocks.append((n, blk))
            return blk if each is None else each(blk)

        return real(n, *args, each=seen, **kwargs)

    monkeypatch.setattr(kernels, "iter_stat_chunks", watched)
    return blocks


def swept_sizes(capsys, monkeypatch, *argv):
    """argv's exit code and report, and the n of every kernel block it
    computes."""
    blocks = watch_blocks(monkeypatch)
    code, out, _ = run(capsys, *argv)
    return code, json.loads(out), [n for n, _ in blocks]


def test_schedule_closed_form_sweeps_only_the_tau_size(capsys, monkeypatch):
    code, report, sizes = swept_sizes(capsys, monkeypatch, "check",
                                      "thm-schedule-closed-form",
                                      "--tau", "3142")
    assert code == 0
    assert report["parameters"]["n"] == "1..6"
    assert report["examined"] == 3
    assert sizes == [4, 4, 4]  # one block per deviation of 3142


def test_check_wall_time_not_in_stdout(capsys):
    _, out, _ = run(capsys, "check", "thm-hmz", "--n", "1..2")
    assert "wall" not in out
    assert "time" not in out


@pytest.mark.parametrize("argv", [
    ("check", "thm-schedule-closed-form", "--n", "1..4"),
    ("check", "main-square-paths", "--n", "1..4"),
    ("check", "cor-withides", "--n", "1..4"),
    ("check", "lemma-factorlemma", "--n", "1..4"),
])
def test_output_bytes_thread_invariant(capsys, argv):
    runs = []
    for threads in ("1", "2", "8"):
        code, out, _ = run(capsys, *argv, "--threads", threads)
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1] == runs[2]


def bumped(table, row):
    """A copy of table with the count of one row raised by one."""
    counts = table.counts.copy()
    counts[row] += 1
    return dataclasses.replace(table, counts=counts)


def secondary_off_by_one_block(n):
    """The kernel rows of all n^n functions with the secondary dinv rule
    off by one: a pair one diagonal apart counts only when more than one
    column further right."""
    blk = kernels.stats_block(n, 0, n ** n)
    for i, p in enumerate(enumerate_all(n)):  # in the kernel's index order
        primary, _, tertiary = stats(p)["dinv_parts"]
        diag = place(p)
        sec = sum(
            1
            for a in range(n)
            for b in range(n)
            if diag[a] == diag[b] - 1 and p.f[a] > p.f[b] + 1)
        blk[kernels.DINV][i] = primary + sec + tertiary
    return blk


@pytest.fixture
def secondary_off_by_one(monkeypatch):
    """Every table is folded out of the blocks of secondary_off_by_one_block
    (the rows of diagword tau, when given)."""
    def stream(n, threads=1, tau=None, each=None, **kwargs):
        blk = secondary_off_by_one_block(n)
        if tau is not None:
            blk = blk[blk[kernels.DWORD] == kernels.encode_perm(tau, n)]
        yield 0, blk if each is None else each(blk)

    monkeypatch.setattr(kernels, "iter_stat_chunks", stream)


def test_mutation_breaks_withides(capsys, secondary_off_by_one):
    code, out, _ = run(capsys, "check", "cor-withides", "--n", "1..5")
    assert code == 1
    assert out == (
        '{"counterexample":{"k":1,"lhs":"t^2 + q*t^2 + q^3*t^2","n":3,'
        '"rhs":"t^2 + q*t^2 + q^2*t^2","subset":[2],"tau":[1,3,2]},'
        '"examined":5,"id":"cor-withides","parameters":{"n":"1..5"},'
        '"passed":false}\n')


def bumped_at_masks(table, rows, masks):
    """A copy of table with one count raised by one at each ides mask of
    masks, at its first row among ``rows``."""
    for m in masks:
        table = bumped(table, rows.start + int(
            np.flatnonzero(table.columns[4][rows] == m)[0]))
    return table


def test_withides_report_walks_masks_in_sorted_subset_order(capsys,
                                                            monkeypatch):
    """Faults at masks 2 ({2}) and 3 ({1,2}) of one tau are reported at
    [1,2], the first in sorted-subset order, not at the smaller mask."""
    n, tau = 4, (3, 1, 2, 4)
    table = aggregate.qsym_by_diagword(n)
    faulty = bumped_at_masks(
        table, table.rows(kernels.encode_perm(tau, n)), (2, 3))
    monkeypatch.setattr(aggregate, "qsym_by_diagword",
                        lambda m, threads=1, tau=None: faulty)
    code, out, _ = run(capsys, "check", "cor-withides", "--n", "4")
    assert code == 1
    assert out == (
        '{"counterexample":{"k":3,"lhs":"2*q*t + 4*q^2*t + 6*q^3*t + '
        '6*q^4*t + 5*q^5*t + 3*q^6*t + q^7*t","n":4,"rhs":"2*q*t + '
        '4*q^2*t + 6*q^3*t + 7*q^4*t + 5*q^5*t + 3*q^6*t + q^7*t",'
        '"subset":[1,2],"tau":[3,1,2,4]},"examined":13,"id":"cor-withides",'
        '"parameters":{"n":"4..4"},"passed":false}\n')


def test_square_paths_report_walks_masks_in_sorted_subset_order(
        capsys, monkeypatch):
    """Faults at masks 2 ({2}) and 3 ({1,2}) of the non-parking functions
    of touch 1 are reported at [1,2], not at the smaller mask."""
    n = 3
    table = aggregate.qsym_by_touch(n)
    faulty = bumped_at_masks(table, table.rows(1, 0), (2, 3))
    monkeypatch.setattr(aggregate, "qsym_by_touch",
                        lambda m, threads=1: faulty)
    code, out, _ = run(capsys, "check", "main-square-paths", "--n", "3")
    assert code == 1
    assert out == (
        '{"counterexample":{"lhs":"t^3 + q*t + q*t^2 + 3*q*t^3 + 3*q^2*t + '
        '4*q^2*t^2 + 5*q^2*t^3 + q^3 + 5*q^3*t + 7*q^3*t^2 + 5*q^3*t^3 + '
        '2*q^4 + 5*q^4*t + 7*q^4*t^2 + 3*q^4*t^3 + 2*q^5 + 3*q^5*t + '
        '4*q^5*t^2 + q^5*t^3 + q^6 + q^6*t + q^6*t^2","n":3,"rhs":"t^3 + '
        'q*t + q*t^2 + 3*q*t^3 + 3*q^2*t + 3*q^2*t^2 + 5*q^2*t^3 + q^3 + '
        '5*q^3*t + 5*q^3*t^2 + 5*q^3*t^3 + 2*q^4 + 5*q^4*t + 5*q^4*t^2 + '
        '3*q^4*t^3 + 2*q^5 + 3*q^5*t + 3*q^5*t^2 + q^5*t^3 + q^6 + q^6*t + '
        'q^6*t^2","subset":[1,2]},"examined":27,"id":"main-square-paths",'
        '"parameters":{"n":"3..3"},"passed":false}\n')


def test_withides_confirmation_refuses_sides_the_counts_pass(monkeypatch):
    """A fault in the last tau of n = 3, 3,2,1, that withides_failures is
    patched to pass is caught by the confirmation of that tau's sides."""
    real = aggregate.qsym_by_diagword
    monkeypatch.setattr(aggregate, "qsym_by_diagword",
                        lambda n, threads=1, tau=None: bumped(
                            real(n, threads=threads, tau=tau), -1))
    monkeypatch.setattr(checks, "withides_failures",
                        lambda table, taus, ks: np.zeros(len(taus), bool))
    with pytest.raises(RuntimeError, match=r"^n = 3, tau = \(3, 2, 1\): the "
                       "integer counts pass it, the summed sides do not$"):
        checks.run_check(checks.CheckSpec("cor-withides", 3, 3))


def test_withides_confirmation_refuses_a_tau_the_counts_fail(capsys,
                                                             monkeypatch):
    """A correct tau, 2,1,3, that withides_failures is patched to flag is
    caught by the confirmation of its sides, before any report."""
    monkeypatch.setattr(checks, "withides_failures",
                        lambda table, taus, ks: (taus == (2, 1, 3)).all(1))
    with pytest.raises(RuntimeError, match=r"^n = 3, tau = \(2, 1, 3\): the "
                       "integer counts fail it, the summed sides do not$"):
        cli.main(["check", "cor-withides", "--n", "3"])
    assert capsys.readouterr().out == ""


def test_withides_catches_a_fault_off_deviation_zero(capsys, monkeypatch):
    """One count bumped at a deviation >= 1, and nowhere else, fails the
    check at that tau."""
    real = aggregate.qsym_by_diagword
    n = 4
    table = real(n)
    row = int(np.flatnonzero(table.columns[1] >= 1)[0])
    taus = list(permutations(range(1, n + 1)))
    tau = next(t for t in taus
               if kernels.encode_perm(t, n) == table.columns[0][row])
    faulty = bumped(table, row)
    monkeypatch.setattr(aggregate, "qsym_by_diagword",
                        lambda m, threads=1, tau=None: (
                            faulty if m == n
                            else real(m, threads=threads, tau=tau)))
    code, out, _ = run(capsys, "check", "cor-withides", "--n", "4")
    assert code == 1
    report = json.loads(out)
    assert report["counterexample"]["tau"] == list(tau)
    assert report["examined"] == taus.index(tau) + 1


@pytest.mark.parametrize("l", [1, 2])
def test_factorlemma_catches_a_fault_at_a_later_deviation(capsys,
                                                         monkeypatch, l):
    """One count bumped at deviation l >= 1 of a tau fails the check at
    that (tau, l), after every case before it in (tau, l) order, although
    the Young-subgroup side is built once for all of tau's deviations."""
    real = aggregate.qsym_by_diagword
    n = 4
    table = real(n)
    row = int(np.flatnonzero(table.columns[1] == l)[0])
    taus = list(permutations(range(1, n + 1)))
    tau = next(t for t in taus
               if kernels.encode_perm(t, n) == table.columns[0][row])
    faulty = bumped(table, row)
    monkeypatch.setattr(aggregate, "qsym_by_diagword",
                        lambda m, threads=1, tau=None: (
                            faulty if m == n
                            else real(m, threads=threads, tau=tau)))
    code, out, _ = run(capsys, "check", "lemma-factorlemma", "--n", "4")
    assert code == 1
    report = json.loads(out)
    assert report["counterexample"] == {"n": n, "tau": list(tau), "l": l}
    assert report["examined"] == sum(
        len(schedules.runs(t)) for t in taus[:taus.index(tau)]) + l + 1


def withides_verdicts(table, n):
    """withides_failures over all taus of size n as one block, with the
    scalar k of each."""
    taus = np.array(list(permutations(range(1, n + 1))), dtype=np.int8)
    ks = np.array([len(schedules.runs(t)[-1]) for t in taus.tolist()])
    return withides_failures(table, taus, ks).tolist()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_withides_residue_agrees_with_qsym_sides(secondary_off_by_one, n):
    """Under the planted fault, each tau decided alone fails exactly when
    its cross-multiplied QSymF sides differ, and so does the block of all
    taus."""
    table = aggregate.qsym_by_diagword(n)
    differ = withides_sides_differ(table, n)
    alone = [bool(withides_failures(table, np.array([tau]), np.array(
        [len(schedules.runs(tau)[-1])]))[0])
        for tau in permutations(range(1, n + 1))]
    assert alone == differ
    assert withides_verdicts(table, n) == differ
    assert any(differ) == (n >= 3)


def shifted_dinv(table, row):
    """A copy of table with the dinv of one row raised by one."""
    dinv = table.columns[3].copy()
    dinv[row] += 1
    return dataclasses.replace(
        table, columns=table.columns[:3] + (dinv,) + table.columns[4:])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_withides_block_verdict_is_the_qsym_sides(n):
    """The block verdict equals the cross-multiplied QSymF sides for every
    tau, on the true table and under three planted faults: a count
    bumped at deviation 0, one bumped at a deviation >= 1, and a shifted
    dinv.  Each fault sits in the middle of its rows, so from n = 3 on the
    block holds passing taus on both sides of the one failing tau."""
    table = aggregate.qsym_by_diagword(n)
    assert withides_verdicts(table, n) == [False] * factorial(n)
    zero, above = (np.flatnonzero(table.columns[1] == 0),
                   np.flatnonzero(table.columns[1] >= 1))
    faults = [bumped(table, int(zero[len(zero) // 2])),
              shifted_dinv(table, len(table.counts) // 2)]
    if n >= 2:
        faults.append(bumped(table, int(above[len(above) // 2])))
    for faulty in faults:
        differ = withides_sides_differ(faulty, n)
        assert withides_verdicts(faulty, n) == differ
        assert sum(differ) == 1 or n <= 2  # n <= 2 may hide a fault


def test_withides_refuses_a_residue_the_sides_do_not_show(monkeypatch):
    monkeypatch.setattr(checks, "withides_failures",
                        lambda table, taus, ks: np.ones(len(taus), bool))
    with pytest.raises(RuntimeError, match=r"^n = 1, tau = \(1,\): the "
                       "integer counts fail it, the summed sides do not$"):
        checks.run_check(checks.CheckSpec("cor-withides", 1, 2))


def test_withides_confirms_the_last_tau_with_qsym_sides(
        monkeypatch, secondary_off_by_one):
    """A block decision that misses a fault is caught at each n's last
    tau."""
    monkeypatch.setattr(checks, "withides_failures",
                        lambda table, taus, ks: np.zeros(len(taus), bool))
    with pytest.raises(RuntimeError, match=r"n = 3, tau = \(1, 3, 2\)"):
        checks.run_check(checks.CheckSpec("cor-withides", 3, 3,
                                          tau=(1, 3, 2)))


@pytest.mark.parametrize("spec,tau", [
    (checks.CheckSpec("cor-withides", 3, 3), (3, 2, 1)),
    (checks.CheckSpec("cor-withides", 4, 4, tau=(2, 1, 4, 3)), (2, 1, 4, 3)),
])
def test_withides_refuses_a_batch_k_the_runs_do_not_give(monkeypatch, spec,
                                                         tau):
    """A batch k that disagrees with schedules.runs at an n's last tau is
    refused, even where the block decision it fed passed."""
    real = checks.schedule_counts

    def last_car_moved(block):
        sc = real(block)
        from_last = sc.from_last.copy()
        from_last[-1, -1] += 1  # the last car leaves the last run
        return sc._replace(from_last=from_last)

    monkeypatch.setattr(checks, "schedule_counts", last_car_moved)
    monkeypatch.setattr(checks, "withides_failures",
                        lambda table, taus, ks: np.zeros(len(taus), bool))
    k = len(schedules.runs(tau)[-1])
    with pytest.raises(RuntimeError, match=rf"tau = {re.escape(str(tau))}: "
                                           rf"the last run has length {k}, "
                                           rf"the batch gave {k - 1}"):
        checks.run_check(spec)


def test_withides_refuses_a_batch_k_at_the_failing_tau(monkeypatch):
    """The failing tau's batch k is held to schedules.runs too, before
    its report is written: here the last tau of n = 3's first block."""
    real = checks.schedule_counts

    def last_car_moved(block):
        sc = real(block)
        from_last = sc.from_last.copy()
        from_last[-1, -1] += 1
        return sc._replace(from_last=from_last)

    monkeypatch.setattr(checks, "schedule_counts", last_car_moved)
    monkeypatch.setattr(checks, "withides_failures",
                        lambda table, taus, ks: np.arange(len(taus))
                        == len(taus) - 1)
    tau = tuple(next(schedules.tau_blocks(3, None))[-1].tolist())
    k = len(schedules.runs(tau)[-1])
    with pytest.raises(RuntimeError, match=rf"tau = {re.escape(str(tau))}: "
                                           rf"the last run has length {k}, "
                                           rf"the batch gave {k - 1}"):
        checks.run_check(checks.CheckSpec("cor-withides", 3, 3))


def test_withides_sweeps_only_the_tau_size(capsys, monkeypatch):
    code, report, sizes = swept_sizes(capsys, monkeypatch, "check",
                                      "cor-withides", "--n", "1..7",
                                      "--tau", "2143")
    assert code == 0
    assert report["examined"] == 1
    assert sizes == [4, 4, 4]  # one block per deviation of 2143


def table_builds(capsys, monkeypatch, *argv):
    """The n of every count table argv builds, in call order."""
    sizes = []
    for name in ("qt_by_diagword", "qsym_by_diagword", "qsym_by_touch"):
        def build(n, *args, real=getattr(aggregate, name), **kwargs):
            sizes.append(n)
            return real(n, *args, **kwargs)

        monkeypatch.setattr(aggregate, name, build)
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)["passed"] is True
    return sizes


@pytest.mark.parametrize("check_id", ["thm-schedule-closed-form",
                                      "cor-withides", "lemma-factorlemma",
                                      "main-square-paths"])
def test_each_runner_builds_one_table_per_n(capsys, monkeypatch, check_id):
    """A runner hands each n's one table to every case of that n, and with
    --tau builds only the table of tau's size."""
    assert table_builds(capsys, monkeypatch, "check", check_id,
                        "--n", "1..5") == [1, 2, 3, 4, 5]
    if check_id != "main-square-paths":
        assert table_builds(capsys, monkeypatch, "check", check_id,
                            "--n", "1..7", "--tau", "2143") == [4]


def kernel_rows(capsys, monkeypatch, *argv):
    """argv's report and the rows the kernel hands the folds."""
    blocks = watch_blocks(monkeypatch)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    return json.loads(out), sum(len(blk) for _, blk in blocks)


@pytest.mark.parametrize("check_id", ["thm-schedule-closed-form",
                                      "cor-withides", "lemma-factorlemma"])
def test_one_tau_check_folds_only_its_diagword(capsys, monkeypatch,
                                               check_id):
    """With --tau the kernel hands on only tau's functions; without it,
    each n's one full table gets all n^n."""
    full = aggregate.qsym_by_diagword(5)
    mine = full.counts[full.rows(kernels.encode_perm((3, 5, 1, 4, 2), 5))]
    report, rows = kernel_rows(capsys, monkeypatch, "check", check_id,
                               "--n", "5", "--tau", "35142")
    assert report["passed"] is True
    assert rows == mine.sum() < 5 ** 5
    report, rows = kernel_rows(capsys, monkeypatch, "check", check_id,
                               "--n", "1..4")
    assert report["passed"] is True
    assert rows == sum(n ** n for n in range(1, 5))


def test_a_producer_that_drops_a_function_fails_the_check(capsys,
                                                          monkeypatch):
    """The closed-form check notices one function of its tau missing from
    the kernel's blocks."""
    real = kernels._row_orders
    dropped = []

    def lossy(diag):
        F = real(diag)
        if F.shape[1] and not dropped:
            dropped.append(F[:, 0].tolist())
            F = F[:, 1:]
        return F

    monkeypatch.setattr(kernels, "_row_orders", lossy)
    code, out, _ = run(capsys, "check", "thm-schedule-closed-form",
                       "--n", "5", "--tau", "35142")
    report = json.loads(out)
    assert dropped and code == 1
    assert report["passed"] is False
    assert report["counterexample"]["tau"] == [3, 5, 1, 4, 2]


@pytest.mark.parametrize("check_id", ["thm-schedule-closed-form",
                                      "cor-withides", "lemma-factorlemma"])
def test_one_tau_reaches_n15_and_no_further(capsys, monkeypatch, check_id):
    """The tau has 1,036,800 functions, just under kernels.MAX_FUNCTIONS."""
    tau = (14, 3, 10, 1, 8, 5, 15, 4, 11, 12, 2, 6, 7, 9, 13)
    assert checks.scope(check_id, (15, 15), tau=tau) == (15, 15)
    assert checks.scope(check_id, (1, 15), tau=tau) == (1, 15)
    with pytest.raises(ValueError, match="up to 8, got 9"):
        checks.scope(check_id, (9, 9))
    assert_refused_up_front(capsys, monkeypatch, "check", check_id,
                            "--n", "9")
    assert_refused_up_front(capsys, monkeypatch, "check", check_id,
                            "--n", "16",
                            "--tau", "3,1,4,10,5,9,2,6,8,7,13,11,12,16,14,15")


@pytest.mark.parametrize("tau,functions", [
    ((1, 7, 13, 4, 2, 10, 6, 9, 12, 11, 3, 5, 8), 1248),
    ((3, 13, 4, 11, 2, 12, 6, 7, 10, 14, 8, 1, 9, 5), 2016),
    ((8, 10, 7, 5, 12, 3, 13, 15, 9, 11, 1, 14, 2, 6, 4), 2880),
], ids=["n13", "n14", "n15"])
@pytest.mark.parametrize("check_id", ["thm-schedule-closed-form",
                                      "cor-withides", "lemma-factorlemma"])
def test_one_tau_checks_pass_up_to_n15(capsys, check_id, tau, functions):
    """A tau of median size at n = 13, 14 and 15 passes each check, which
    examines one case per deviation, or one per tau for withides."""
    assert checks.tau_functions(tau) == functions
    code, out, _ = run(capsys, "check", check_id, "--n", str(len(tau)),
                       "--tau", ",".join(map(str, tau)))
    report = json.loads(out)
    assert (code, report["passed"]) == (0, True)
    assert report["examined"] == (1 if check_id == "cor-withides"
                                  else len(schedules.runs(tau)))


@pytest.mark.parametrize("check_id", ["thm-schedule-closed-form",
                                      "cor-withides", "lemma-factorlemma"])
def test_one_tau_over_its_budgets_is_refused(capsys, monkeypatch, check_id):
    """The identity tau at n = 12 has 12! functions."""
    identity = ",".join(map(str, range(1, 13)))
    assert checks.tau_functions(tuple(range(1, 13))) == factorial(12)
    assert_refused_up_front(capsys, monkeypatch, "check", check_id,
                            "--n", "12", "--tau", identity)
    assert checks.scope(check_id, (9, 9), tau=tuple(range(1, 10)))


@pytest.mark.parametrize("command", sorted(c for c, row in SCOPES.items()
                                     if row.tau_cap))
def test_one_tau_over_its_cap_is_refused(capsys, monkeypatch, command):
    """Every row with a tau_cap refuses a tau of tau_cap + 1 cars.  A
    check's n range must hold the tau; table schedules reads its n off
    the tau."""
    cap = SCOPES[command].tau_cap
    argv = (["check", command, "--n", str(cap + 1)]
            if command in checks.REGISTRY else command.split())
    assert_refused_up_front(capsys, monkeypatch, *argv, "--tau",
                            ",".join(map(str, range(cap + 1, 0, -1))))
    if not SCOPES[command].sweeps:
        n = (cap, cap) if command in checks.REGISTRY else None
        tau = tuple(range(cap, 0, -1))
        assert checks.scope(command, n, tau=tau) == (cap, cap)


def test_factorlemma_takes_the_n9_identity_tau(capsys):
    """123456789 is one block: its Young subgroup is all of S_9, whose
    (inv, ides) counts the check multiplies without enumerating it."""
    code, out, _ = run(capsys, "check", "lemma-factorlemma", "--n", "9",
                       "--tau", "123456789")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True and report["examined"] == 1


@pytest.mark.parametrize("n", range(1, 8))
def test_row_budget_bounds_the_young_subgroup(n):
    """prod over tau's consecutive blocks B of |B|! never exceeds tau's
    function count, so kernels.MAX_FUNCTIONS, the budget of one tau's
    functions, bounds the Young subgroup too.  The blocks are read from
    tau's block mask, whose bit i - 1 is set when i + 1 stands right after
    i."""
    for tau in permutations(range(1, n + 1)):
        pos = {v: i for i, v in enumerate(tau)}
        mask = sum(1 << (i - 1) for i in range(1, n)
                   if pos[i + 1] == pos[i] + 1)
        # A block ends at each i whose bit i - 1 is clear, and at n.
        ends = [0, *(i for i in range(1, n) if not mask >> (i - 1) & 1), n]
        young = prod(factorial(b - a) for a, b in zip(ends, ends[1:]))
        assert young == quasisym.young_counts(n, mask)[2].sum(), tau
        assert young <= checks.tau_functions(tau), tau


_real_qsym_by_touch = aggregate.qsym_by_touch


def _buggy_qsym_by_touch(n, threads=1, park=True):
    """The real table with one count bumped at n = 4: the smallest
    (area, dinv, mask) cell of touch 2, among the parking functions
    (park) or among the others."""
    table = _real_qsym_by_touch(n, threads=threads)
    if n != 4:
        return table
    return bumped(table, table.rows(2, int(park)).start)


@pytest.mark.parametrize("park,name", [(True, "parking"),
                                       (False, "nonparking")])
def test_mutation_breaks_square_paths(capsys, monkeypatch, park, name):
    """The report is the one the QSymF-deciding runner printed for the
    same fault."""
    monkeypatch.setattr(aggregate, "qsym_by_touch",
                        lambda n, threads=1: _buggy_qsym_by_touch(n, threads,
                                                                  park))
    code, out, _ = run(capsys, "check", "main-square-paths", "--n", "1..5")
    assert code == 1
    assert out == golden(f"check_square_paths_fault_{name}.json")


def _faulty_delta_merge(pb):
    """The real sides, with the right one's largest entry raised by one
    for the partition 2,1 in a 2 x 2 box alone."""
    lhs, rhs = schedules.delta_merge(pb)
    if (pb.lam, pb.a, pb.b) == ((2, 1), 2, 2):
        rhs = rhs[:-1] + (rhs[-1] + 1,)
    return lhs, rhs


# (check id, name looked up by checks, fault, golden): each fault fails one
# case of the check's default scope.
ONE_CASE_FAULTS = [
    ("lemma-parlem", "delta_merge", _faulty_delta_merge,
     "check_parlem_fault.json"),
    ("thm-enk-sum", "e_in_p",
     lambda n: symfunc.e_in_p(n) * (2 if n == 3 else 1),
     "check_enk_sum_fault.json"),
    ("thm-pn-identity", "pn_identity_check",
     lambda n: n != 4 and symfunc.pn_identity_check(n),
     "check_pn_identity_fault.json"),
]


@pytest.mark.parametrize("check_id,name,fault,name_of_golden",
                         ONE_CASE_FAULTS,
                         ids=[c[0] for c in ONE_CASE_FAULTS])
def test_one_case_fault_gives_the_pinned_report(capsys, monkeypatch,
                                                check_id, name, fault,
                                                name_of_golden):
    """The whole failing report, examined included, as recorded before
    these checks shared one loop."""
    monkeypatch.setattr(checks, name, fault)
    code, out, _ = run(capsys, "check", check_id)
    assert code == 1
    assert out == golden(name_of_golden)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_square_paths_residue_agrees_with_qsym_sides(n):
    """With one count bumped at any key of the touch table, or none, the
    shifted sums of square_paths_sides differ exactly when the QSymF sides
    do.  A bump at a parking function of touch n changes both sides
    alike."""
    real = _real_qsym_by_touch(n)
    keys = list(zip(*(col.tolist() for col in real.columns[:2])))
    firsts = [row for row, key in enumerate(keys) if key not in keys[:row]]
    differ = []
    for row in [None, *firsts]:
        table = real if row is None else bumped(real, row)
        lhs, rhs = qsym_oracle.square_paths_sides(table, n)
        _, sums = quasisym.shifted_sums(quasisym.square_paths_sides(table, n))
        assert (not np.array_equal(*sums)) == (lhs != rhs)
        differ.append(lhs != rhs)
    assert differ == [False] + [keys[row] != (n, 1) for row in firsts]


@pytest.mark.parametrize("fault", [False, True], ids=["pass", "fault"])
def test_square_paths_sums_each_n_once(capsys, monkeypatch, fault):
    """main-square-paths decides each n and reports its failure from one
    shifted_sums call, on a passing run and on a planted fault at n = 4."""
    calls = []
    real = quasisym.shifted_sums

    def table(n, threads=1):
        calls.append(n)
        return (_buggy_qsym_by_touch(n, threads) if fault
                else _real_qsym_by_touch(n, threads=threads))

    def record(sides):
        calls.append("sum")
        return real(sides)

    monkeypatch.setattr(aggregate, "qsym_by_touch", table)
    monkeypatch.setattr(quasisym, "shifted_sums", record)
    code, _, _ = run(capsys, "check", "main-square-paths", "--n", "1..5")
    assert code == int(fault)
    last = 4 if fault else 5
    assert calls == [x for n in range(1, last + 1) for x in (n, "sum")]


def test_square_paths_residue_refuses_int64_overflow():
    """The bound on the integer sums is checked before the table is
    read: n = 10 fits in int64, n = 11 does not."""
    with pytest.raises(TableRead):
        quasisym.square_paths_sides(UnreadableTable(), 10)
    with pytest.raises(ValueError, match=r"n = 11: .* > 2\^63 - 1"):
        quasisym.square_paths_sides(UnreadableTable(), 11)


def test_square_paths_residue_refuses_a_mask_outside_its_radix():
    """An ides mask of 2^(n-1) names no subset of 1..n-1: a table built by
    hand that holds one is refused rather than read as another area."""
    n = 4
    table = with_entry(aggregate.qsym_by_touch(n), 4, 0, 1 << (n - 1))
    with pytest.raises(ValueError):
        quasisym.square_paths_sides(table, n)


EXPECTED = Path(__file__).parents[1] / "perfbench" / "expected.json"


@pytest.mark.parametrize("argv", [
    pytest.param(["check", "cor-withides", "--n", "7", "--threads", "2"],
                 id="cor-withides"),
    pytest.param(["check", "main-square-paths", "--n", "7", "--threads", "2"],
                 id="main-square-paths"),
    pytest.param(["enumerate", "--n", "6"], id="enumerate"),
    pytest.param(["table", "polynomials", "--n", "6"],
                 id="table-polynomials"),
    pytest.param(["check", "thm-pn-identity"], id="thm-pn-identity"),
])
def test_stretch_scope_bytes(capsys, argv):
    """The stdout matches the digest the benchmark records."""
    expected = json.loads(EXPECTED.read_text())["commands"][" ".join(argv)]
    code, out, _ = run(capsys, *argv)
    data = out.encode()
    assert (code, len(data), hashlib.sha256(data).hexdigest()) == (
        expected["exit"], expected["bytes"], expected["sha256"])


@pytest.mark.parametrize("check", ["cor-withides", "main-square-paths"])
@pytest.mark.parametrize("threads", ["1", "3"])
def test_n7_checks_keep_their_bytes_at_any_worker_count(capsys, check,
                                                        threads):
    """At n = 7 a sweep is seven kernels.CHUNK blocks, so --threads 3
    starts the worker pool and --threads 1 sweeps in the calling thread;
    both print the --threads 2 bytes the benchmark records."""
    expected = json.loads(EXPECTED.read_text())["commands"][
        f"check {check} --n 7 --threads 2"]
    code, out, _ = run(capsys, "check", check, "--n", "7",
                       "--threads", threads)
    data = out.encode()
    assert (code, len(data), hashlib.sha256(data).hexdigest()) == (
        expected["exit"], expected["bytes"], expected["sha256"])


# sha256 of stdout, recorded while enumerate's filter still read
# deviation and touch from columns of their own rather than from the
# kernel's records.
FILTERED_DIGESTS = {
    "enumerate --n 6 --deviation 2":
        "b7252caacfff2be81906e12b2ac67f2da925b1f51272486d5116afddb668aad5",
    "enumerate --n 6 --touch 3":
        "e57fe856e4c7ffe1ea8012213821425779133e8f288ad6d1a791322748488ae7",
    "enumerate --n 6 --deviation 0 --touch 2":
        "619f5abe531cf2823e50a10fe8de19ae206476acbd4d10796e75abc4a1b1f939",
    "enumerate --n 5 --diagword 54321 --deviation 0":
        "bc66118479673ab1ecc6f2a1c5d991022d8bfb41c5a8fce54618af6019acd906",
    "stats 1,5,1,2,1":
        "c952ed9503585f998d7de01c96db3ffba226ee954442742ff10f3d56c69861b3",
}


@pytest.mark.parametrize("argv", list(FILTERED_DIGESTS))
def test_filtered_enumerate_bytes(capsys, argv):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FILTERED_DIGESTS[argv]


def test_mutation_free_run_passes(capsys):
    code, out, _ = run(capsys, "check", "cor-withides", "--n", "1..5")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_planted_c_op_sign_fails_hmz(capsys, monkeypatch):
    """A wrong sign in the shift of the creation operator is caught."""
    caches = (symfunc.shift_terms, symfunc._c_sum)
    monkeypatch.setattr(symfunc, "shift_factor",
                        lambda k: 1 - symfunc.QTPoly.q(-k))
    for cache in caches:
        cache.cache_clear()
    try:
        code, out, _ = run(capsys, "check", "thm-hmz", "--n", "1..4")
    finally:
        for cache in caches:
            cache.cache_clear()
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False
    assert report["counterexample"] == {"n": 2}


def test_planted_c_op_sign_for_one_a_fails_hmz(capsys, monkeypatch):
    """C_2 with its sign flipped is caught at the first n that uses it."""
    real = symfunc.c_op
    monkeypatch.setattr(symfunc, "c_op",
                        lambda a, F: real(a, F) * (-1 if a == 2 else 1))
    symfunc._c_sum.cache_clear()
    try:
        code, out, _ = run(capsys, "check", "thm-hmz", "--n", "1..4")
    finally:
        symfunc._c_sum.cache_clear()
    assert code == 1
    assert json.loads(out)["counterexample"] == {"n": 2}


def test_planted_enk_swap_fails_hmz(capsys, monkeypatch):
    """E_{n,1} and E_{n,2} trading places is caught at n = 2."""
    real = symfunc.e_nk

    def swapped(n):
        out = real(n)
        if n > 1:
            out[0], out[1] = out[1], out[0]
        return out

    monkeypatch.setattr(symfunc, "e_nk", swapped)
    code, out, _ = run(capsys, "check", "thm-hmz", "--n", "1..4")
    assert code == 1
    assert json.loads(out)["counterexample"] == {"n": 2}


def run_python_m(argv, **environ):
    """`python -m qtpark argv` in a fresh process, with environ added."""
    src = os.path.dirname(os.path.dirname(qtpark.__file__))
    env = dict(os.environ, **environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "qtpark", *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def test_kernel_environment_variable_is_ignored(capsys):
    argv = ["check", "main-square-paths", "--n", "1..3"]
    code, out, _ = run(capsys, *argv)
    proc = run_python_m(argv, QTPARK_KERNEL="numba")
    assert (proc.returncode, proc.stdout) == (code, out) == (0, out)


def test_python_m_qtpark(capsys):
    argv = ["check", "thm-hmz", "--n", "1..2"]
    code, out, _ = run(capsys, *argv)
    proc = run_python_m(argv)
    assert (proc.returncode, proc.stdout) == (code, out) == (0, out)


def test_enumerate_stops_quietly_when_the_reader_leaves():
    """A reader that closes the pipe after one line ends the block writes
    with exit 0 and nothing on stderr."""
    src = os.path.dirname(os.path.dirname(qtpark.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen([sys.executable, "-m", "qtpark", "enumerate",
                             "--n", "7"], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert err == b""
    assert json.loads(first)["f"] == [1] * 7
