"""Per-function statistics: worked values, invariants, serialization."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qtpark
from qtpark import kernels, paths, symfunc
from qtpark.paths import (BLOCK, PrefFunc, enumerate_all, json_line, place,
                          stats)
from qtpark.schedules import PartitionBox


def is_parking(p):
    """Prefix test: at least k cars prefer a spot <= k, for every k."""
    counts = [0] * (p.n + 1)
    for v in p.f:
        counts[v] += 1
    seen = 0
    for k in range(1, p.n + 1):
        seen += counts[k]
        if seen < k:
            return False
    return True


def vec(*f):
    return PrefFunc(tuple(f))


small_funcs = st.integers(1, 5).flatmap(
    lambda n: st.tuples(*([st.integers(1, n)] * n))).map(PrefFunc)


def test_parking_worked_example():
    s = stats(vec(1, 5, 1, 2, 1))
    assert s["area"] == 5
    assert s["dinv"] == 2
    assert s["dinv_parts"] == [1, 1, 0]
    assert s["word"] == [4, 5, 3, 2, 1]
    assert s["ides"] == [1, 2, 3]
    assert s["diagword"] == [4, 5, 3, 1, 2]
    assert s["deviation"] == 0
    assert s["touch"] == 2
    assert s["comp"] == [4, 1]


def test_nonparking_worked_example():
    s = stats(vec(3, 5, 3, 2, 3))
    assert s["deviation"] == 1
    assert s["area"] == 4
    assert s["dinv"] == 3
    assert s["dinv_parts"] == [0, 1, 2]
    assert s["word"] == [5, 2, 3, 1, 4]
    assert s["ides"] == [1, 4]
    assert s["comp"] is None


def test_trivial_function():
    s = stats(vec(1))
    assert (s["area"], s["dinv"], s["deviation"], s["touch"]) == (0, 0, 0, 1)
    assert s["comp"] == [1]


def test_pref_func_validation():
    with pytest.raises(ValueError):
        PrefFunc((0, 1))
    with pytest.raises(ValueError):
        PrefFunc((1, 3))
    with pytest.raises(ValueError):
        PrefFunc(())


# Every site that reads a sequence of integers from its caller, with a
# valid input for it.  Each takes numpy integers, and refuses a float or a
# string entry rather than truncating or parsing it.
INTEGER_SITES = {
    "PrefFunc": (PrefFunc, (2, 1)),
    "require_perm": (lambda t: kernels.require_perm(t, 2), (2, 1)),
    "PartitionBox": (lambda lam: PartitionBox(lam, 3, 2), (2, 1)),
    "normalize_partition": (symfunc._normalize_partition, (2, 1)),
    "c_composition": (symfunc.c_composition, (2, 1)),
}


@pytest.mark.parametrize("site", INTEGER_SITES)
def test_non_integer_inputs_are_refused(site):
    build, good = INTEGER_SITES[site]
    assert build(np.array(good, dtype=np.int8)) == build(good)
    for bad in ((2.9, 1), (2, 1.0), ("2", "1")):
        with pytest.raises(TypeError):
            build(bad)


def test_place_rows_partition_grid():
    p = vec(2, 1, 1, 4)
    # a car's row is its diagonal plus its column f
    row = [d + c for d, c in zip(place(p), p.f)]
    assert sorted(row) == [1, 2, 3, 4]
    assert place(p) == (1, 0, 1, 0)
    # ties in a column resolve by label, lower label lower row
    assert row[1] < row[2]


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_all(3)) == 27
    assert sum(1 for _ in enumerate_all(1)) == 1
    parking = [p for p in enumerate_all(3) if is_parking(p)]
    assert len(parking) == 16


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_parking_count_is_cayley(n):
    count = sum(1 for p in enumerate_all(n) if stats(p)["deviation"] == 0)
    assert count == (n + 1) ** (n - 1)


def test_enumerate_bound():
    with pytest.raises(ValueError):
        next(enumerate_all(9))


@given(small_funcs)
@settings(max_examples=150)
def test_statistic_invariants(p):
    s = stats(p)
    diag = place(p)
    n = p.n
    assert sorted(d + c for d, c in zip(diag, p.f)) == list(range(1, n + 1))
    assert s["deviation"] == -min(min(diag), 0)
    assert s["area"] == sum(d + s["deviation"] for d in diag)
    assert s["dinv"] == sum(s["dinv_parts"])
    assert s["dinv_parts"][2] == sum(1 for d in diag if d < 0)
    assert sorted(s["word"]) == list(range(1, n + 1))
    assert sorted(s["diagword"]) == list(range(1, n + 1))
    assert (s["deviation"] == 0) == is_parking(p)
    assert 1 <= s["touch"] <= n


@given(small_funcs)
@settings(max_examples=150)
def test_word_orders_by_diagonal(p):
    s = stats(p)
    diag = place(p)
    diag_of = {c + 1: diag[c] for c in range(p.n)}
    diags = [diag_of[c] for c in s["word"]]
    assert diags == sorted(diags, reverse=True)
    # diagword sorts each diagonal increasingly
    for a, b in zip(s["diagword"], s["diagword"][1:]):
        if diag_of[a] == diag_of[b]:
            assert a < b


@given(small_funcs)
@settings(max_examples=100)
def test_ides_definition(p):
    s = stats(p)
    pos = {c: i for i, c in enumerate(s["word"])}
    expected = [i for i in range(1, p.n) if pos[i + 1] < pos[i]]
    assert s["ides"] == expected


def test_area_oracle_small():
    # The path from the sorted f alone, not from place: its r-th north step
    # stands in column sorted(f)[r - 1], so row r lies on diagonal
    # r - sorted(f)[r - 1], and area counts the boxes between the path and
    # the diagonal shifted down by the deviation, row by row.
    for n in range(1, 6):
        for p in enumerate_all(n):
            diags = [r - c for r, c in enumerate(sorted(p.f), start=1)]
            s = stats(p)
            assert s["deviation"] == -min(diags)
            assert s["area"] == sum(diags) + n * s["deviation"]
            assert sorted(place(p)) == sorted(diags)


def test_record_dict_shape():
    d = stats(vec(1, 5, 1, 2, 1))
    assert list(d) == ["n", "f", "area", "dinv", "dinv_parts", "word",
                       "ides", "diagword", "deviation", "touch", "comp",
                       "parking"]
    assert d["parking"] is True
    assert d["comp"] == [4, 1]


def test_json_line_round_trip():
    line = json_line(vec(3, 5, 3, 2, 3))
    d = json.loads(line)
    assert d["f"] == [3, 5, 3, 2, 3]
    assert d["comp"] is None
    assert d["parking"] is False


def assert_same_lines(got, want):
    """got == want, asserted at the first line where they differ, so a
    failure prints that line's index and its two versions, not a diff of
    the whole texts."""
    got, want = got.splitlines(keepends=True), want.splitlines(keepends=True)
    i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
             min(len(got), len(want)))
    assert (i, got[i:i + 1]) == (i, want[i:i + 1])


# 300 functions from index 0 (parking functions, many cars on a
# diagonal), from n^n // 3, and up to the last one, (n, ..., n).
@pytest.mark.parametrize("n,start", [
    *(pytest.param(n, start, id=f"{n}-{start}")
      for n in (6, 7, 8) for start in (0, n ** n // 3)),
    *(pytest.param(n, n ** n - 300, id=str(n)) for n in (6, 7, 8)),
])
def test_json_block_window_matches_json_line(n, start):
    # the index is f read as base-n digits f(1) - 1, ..., f(n) - 1
    funcs = [PrefFunc(tuple(int(d) + 1 for d in np.base_repr(i, n).zfill(n)))
             for i in range(start, start + 300)]
    if start + 300 == n ** n:
        assert funcs[-1] == PrefFunc((n,) * n)
    b = paths.stat_block(n, start, start + 300)
    assert_same_lines(paths.json_block(n, b),
                      "".join(json_line(p) + "\n" for p in funcs))


def test_json_block_refuses_n_above_the_bound():
    with pytest.raises(ValueError, match="enumeration bound"):
        paths.json_block(9, paths.stat_block(9, 0, 1))


@pytest.mark.parametrize("tau", [(2, 3, 1, 4, 5), (5, 4, 3, 2, 1),
                                 (1, 2, 3, 4, 5)])
def test_json_blocks_of_one_diagword(monkeypatch, tau):
    """With a tau, only tau's functions reach kernels.stat_rows, and the
    lines are those of the full enumeration whose diagword is tau."""
    rows = []
    real = kernels.stat_rows

    def counting(F, diag):
        rows.append(F.shape[1])
        return real(F, diag)

    monkeypatch.setattr(kernels, "stat_rows", counting)
    want = [json_line(p) + "\n" for p in enumerate_all(5)
            if stats(p)["diagword"] == list(tau)]
    assert_same_lines("".join(paths.json_blocks(5, tau=tau)), "".join(want))
    assert sum(rows) == len(want)


def test_one_diagword_block_confirms_its_first_row(monkeypatch):
    """The scalar confirmation formats the first function of tau, and a
    selection of none of its functions formats nothing."""
    confirmed = []
    real = paths.json_line

    def recording(p):
        confirmed.append(list(p.f))
        return real(p)

    monkeypatch.setattr(paths, "json_line", recording)
    text = "".join(paths.json_blocks(5, tau=(2, 3, 1, 4, 5)))
    assert confirmed == [json.loads(text.splitlines()[0])["f"]]
    assert "".join(paths.json_blocks(
        5, lambda b: b.records[kernels.DEV] > 4, tau=(1, 2, 3, 4, 5))) == ""
    assert len(confirmed) == 2


# f = (1, 1, 1) drawn with its diagonals upside down: diagword 1,2,3 is one
# increasing run, but the diagonals 2, 1, 0 hold one car each.
RUNS_MESSAGE = ("diagword runs [3] disagree with diagonal sizes [1, 1, 1] "
                "for f=(1, 1, 1)")


def test_scalar_runs_guard_raises_runtime_error(monkeypatch):
    monkeypatch.setattr(paths, "place", lambda p: (2, 1, 0))
    with pytest.raises(RuntimeError) as caught:
        stats(vec(1, 1, 1))
    assert str(caught.value) == RUNS_MESSAGE


def test_block_runs_guard_raises_runtime_error(monkeypatch):
    real = kernels.grid_block

    def flipped(n, start, stop):
        F, diag = real(n, start, stop)
        diag[:, 0] = diag[::-1, 0]
        return F, diag

    monkeypatch.setattr(kernels, "grid_block", flipped)
    with pytest.raises(RuntimeError) as caught:
        paths.json_block(3, paths.stat_block(3, 0, 27))
    assert str(caught.value) == RUNS_MESSAGE


def test_block_line_guard_names_the_first_function(monkeypatch):
    """A block's first function, index 5 = (1, 2, 3) at n = 3, is also
    formatted by json_line; a fault on either side names it."""
    real = json_line
    monkeypatch.setattr(paths, "json_line", lambda p: real(p).replace(
        '"area":0', '"area":10'))
    with pytest.raises(RuntimeError, match=r'^block line .*"f":\[1,2,3\],'
                       r'"area":0,.* differs from the scalar statistics '
                       r'.*"f":\[1,2,3\],"area":10,'):
        paths.json_block(3, paths.stat_block(3, 5, 10))


# f = (2, 1) drawn with car 2 one diagonal up: each diagonal still holds
# one increasing run of diagword, but the only car on the main diagonal is
# car 1, in column 2, so comp reads [1].
PLACE_COMP_FAULT = """
from qtpark import paths
paths.place = lambda p: (0, 1)
try:
    paths.stats(paths.PrefFunc((2, 1)))
except RuntimeError as e:
    print(e)
"""


@pytest.mark.parametrize("flags", [pytest.param([], id="python"),
                                   pytest.param(["-O"], id="python-O")])
def test_comp_guard_catches_a_planted_place_fault(flags):
    src = os.path.dirname(os.path.dirname(qtpark.__file__))
    proc = subprocess.run([sys.executable, *flags, "-c", PLACE_COMP_FAULT],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("comp [1] is not a composition of 2 into touch=1 "
                           "parts for f=(2, 1)\n")


SWAP_SECOND_BLOCK = """
from qtpark import kernels, paths
real = paths.stat_block

def swapped(n, start, stop):
    # primary and secondary trade places in the second block only: with
    # dinv and tertiary kept, secondary becomes the old primary
    b = real(n, start, stop)
    if start == paths.BLOCK:
        b = b._replace(
            primary=b.records[kernels.DINV] - b.primary - b.tertiary)
    return b

paths.stat_block = swapped
"""

KERNEL_DINV_SECOND_BLOCK = """
from qtpark import kernels
real = kernels.stat_rows
calls = []

def off_by_one(F, diag):
    # the kernel's dinv of the second block's first row is one too high
    out = real(F, diag)
    calls.append(1)
    if len(calls) == 2:
        out[kernels.DINV][0] += 1
    return out

kernels.stat_rows = off_by_one
"""

COUNT_LINES = """
from qtpark import paths
lines = 0
try:
    for text in paths.json_blocks(5):
        lines += text.count("\\n")
except RuntimeError as e:
    print(lines, e)
"""


@pytest.mark.parametrize("flags, plant, dinv_parts", [
    pytest.param([], SWAP_SECOND_BLOCK, "[1,2,", id="python"),
    pytest.param(["-O"], SWAP_SECOND_BLOCK, "[1,2,", id="python-O"),
    pytest.param([], KERNEL_DINV_SECOND_BLOCK, "[2,2,",
                 id="kernel-dinv-python"),
    pytest.param(["-O"], KERNEL_DINV_SECOND_BLOCK, "[2,2,",
                 id="kernel-dinv-python-O"),
])
def test_planted_swap_fails_the_block_confirmation(flags, plant, dinv_parts):
    """Block 2 of n = 5 starts at f = (4,2,2,5,4), with primary 2 and
    secondary 1; the scalar line of that f catches a swap of the two in
    the block, and a kernel dinv one too high."""
    b = paths.stat_block(5, BLOCK, BLOCK + 1)
    secondary = b.records[kernels.DINV] - b.primary - b.tertiary
    assert (b.primary[0], secondary[0]) == (2, 1)
    src = os.path.dirname(os.path.dirname(qtpark.__file__))
    proc = subprocess.run([sys.executable, *flags, "-c", plant + COUNT_LINES],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines, message = proc.stdout.split(" ", 1)
    assert int(lines) == BLOCK
    assert message.startswith("block line ")
    assert '"dinv_parts":' + dinv_parts in message
    assert json_line(vec(4, 2, 2, 5, 4)) in message
