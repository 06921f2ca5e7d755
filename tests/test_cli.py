"""Command-line behavior: golden output, exit codes, determinism."""

import json
from math import comb, factorial
from pathlib import Path

import pytest

from qtpark import aggregate, checks, cli, kernels, schedules
from qtpark.checks import SCOPES
from qtpark.cli import main
from qtpark.paths import enumerate_all, place, stats

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
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
    code, out, _ = run(capsys, "enumerate", "--n", "3", "--parking-only")
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
                               if stats(p).touch == 3)


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
    assert "wall time:" in err
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

    monkeypatch.setattr(kernels, "stats_block", record)
    for check_id in checks.REGISTRY:
        monkeypatch.setitem(checks.REGISTRY, check_id, record)
    for name in ("enumerate_all", "_tau_l_sweep", "e_nk"):
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
    # a --tau or --l that no case in the n range can use
    ("check", "thm-schedule-closed-form", "--tau", "3142", "--n", "5..6"),
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
])
def test_refuses_unusable_input(capsys, monkeypatch, argv):
    assert_refused_up_front(capsys, monkeypatch, *argv)


def test_parlem_honours_the_low_end(capsys):
    code, out, _ = run(capsys, "check", "lemma-parlem", "--n", "2..3",
                       "--samples", "0")
    assert code == 0
    report = json.loads(out)
    assert report["parameters"]["n"] == "2..3"
    assert report["examined"] == sum(comb(a + b, b) for a in range(1, 4)
                                     for b in range(1, 4) if max(a, b) >= 2)


def test_shift_multiset_decomposes_tau_once(capsys, monkeypatch):
    counts = {"runs": 0, "shift_multiset": 0}

    def counting(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    runs = counting("runs", schedules.runs)
    monkeypatch.setattr(schedules, "runs", runs)
    monkeypatch.setattr(checks, "runs", runs)
    monkeypatch.setattr(checks, "shift_multiset",
                        counting("shift_multiset", schedules.shift_multiset))
    code, out, _ = run(capsys, "check", "thm-shift-multiset", "--n", "1..6")
    assert code == 0
    taus = sum(factorial(n) for n in range(1, 7))
    assert counts["shift_multiset"] == json.loads(out)["examined"]
    assert counts["runs"] <= counts["shift_multiset"] + taus


def test_shift_multiset_refuses_unbounded_walk(capsys, monkeypatch):
    calls = []
    real = checks.shift_multiset

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(checks, "shift_multiset", counting)
    code, out, err = run(capsys, "check", "thm-shift-multiset", "--n", "11")
    assert code == 2
    assert out == ""
    assert "error:" in err
    assert calls == []
    # One named tau of that size is a single walk step, not a refusal.
    code, out, _ = run(capsys, "check", "thm-shift-multiset", "--n", "11",
                       "--tau", "3,1,4,11,5,9,2,6,8,7,10")
    assert code == 0
    assert json.loads(out)["examined"] == len(calls) > 0


def test_schedule_closed_form_sweeps_only_the_tau_size(capsys, monkeypatch):
    sizes = []
    real = kernels.stats_block

    def counting(n, *args, **kwargs):
        sizes.append(n)
        return real(n, *args, **kwargs)

    monkeypatch.setattr(kernels, "stats_block", counting)
    aggregate.clear_cache()
    try:
        code, out, _ = run(capsys, "check", "thm-schedule-closed-form",
                           "--tau", "3142")
    finally:
        aggregate.clear_cache()
    assert code == 0
    report = json.loads(out)
    assert report["parameters"]["n"] == "1..6"
    assert report["examined"] == 3
    assert sizes == [4]


def test_check_wall_time_not_in_stdout(capsys):
    _, out, _ = run(capsys, "check", "thm-hmz", "--n", "1..2")
    assert "wall" not in out
    assert "time" not in out


@pytest.mark.parametrize("argv", [
    ("table", "polynomials", "--n", "4"),
    ("check", "main-square-paths", "--n", "1..4"),
    ("check", "cor-withides", "--n", "1..4"),
])
def test_output_bytes_thread_invariant(capsys, argv):
    runs = []
    for threads in ("1", "2", "8"):
        aggregate.clear_cache()
        code, out, _ = run(capsys, *argv, "--threads", threads)
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1] == runs[2]


def _buggy_qsym_by_diagword(n, threads=1, backend=None):
    """The real table with the secondary rule off by one: a pair one
    diagonal apart counts only when more than one column further right."""
    table = {}
    for p in enumerate_all(n):
        s = stats(p)
        pl = place(p)
        sec = sum(
            1
            for a in range(n)
            for b in range(n)
            if pl.diag[a] == pl.diag[b] - 1 and pl.col[a] > pl.col[b] + 1)
        mask = sum(1 << (i - 1) for i in s.ides)
        counts = table.setdefault((s.diagword, s.deviation), {})
        key = (s.area, s.primary + sec + s.tertiary, mask)
        counts[key] = counts.get(key, 0) + 1
    return table


def test_mutation_breaks_withides(capsys, monkeypatch):
    monkeypatch.setattr(aggregate, "qsym_by_diagword",
                        _buggy_qsym_by_diagword)
    code, out, _ = run(capsys, "check", "cor-withides", "--n", "1..5")
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False
    ce = report["counterexample"]
    assert ce is not None
    assert ce["n"] <= 5
    assert "tau" in ce and "lhs" in ce and "rhs" in ce


def test_mutation_free_run_passes(capsys):
    aggregate.clear_cache()
    code, out, _ = run(capsys, "check", "cor-withides", "--n", "1..5")
    assert code == 0
    assert json.loads(out)["passed"] is True
