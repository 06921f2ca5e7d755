"""Per-function statistics: worked values, invariants, serialization."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtpark.paths import (PrefFunc, enumerate_all, json_line, place,
                          record_dict, stats)


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
    assert s.area == 5
    assert s.dinv == 2
    assert s.dinv_parts == (1, 1, 0)
    assert s.word == (4, 5, 3, 2, 1)
    assert s.ides == frozenset({1, 2, 3})
    assert s.diagword == (4, 5, 3, 1, 2)
    assert s.deviation == 0
    assert s.touch == 2
    assert s.comp == (4, 1)


def test_nonparking_worked_example():
    s = stats(vec(3, 5, 3, 2, 3))
    assert s.deviation == 1
    assert s.area == 4
    assert s.dinv == 3
    assert s.dinv_parts == (0, 1, 2)
    assert s.word == (5, 2, 3, 1, 4)
    assert s.ides == frozenset({1, 4})
    assert s.comp is None


def test_trivial_function():
    s = stats(vec(1))
    assert (s.area, s.dinv, s.deviation, s.touch) == (0, 0, 0, 1)
    assert s.comp == (1,)


def test_pref_func_validation():
    with pytest.raises(ValueError):
        PrefFunc((0, 1))
    with pytest.raises(ValueError):
        PrefFunc((1, 3))
    with pytest.raises(ValueError):
        PrefFunc(())


def test_place_rows_partition_grid():
    p = vec(2, 1, 1, 4)
    pl = place(p)
    assert sorted(pl.row) == [1, 2, 3, 4]
    assert pl.col == (2, 1, 1, 4)
    # ties in a column resolve by label, lower label lower row
    assert pl.row[1] < pl.row[2]


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_all(3)) == 27
    assert sum(1 for _ in enumerate_all(1)) == 1
    parking = [p for p in enumerate_all(3) if is_parking(p)]
    assert len(parking) == 16


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_parking_count_is_cayley(n):
    count = sum(1 for p in enumerate_all(n) if stats(p).deviation == 0)
    assert count == (n + 1) ** (n - 1)


def test_enumerate_bound():
    with pytest.raises(ValueError):
        next(enumerate_all(9))


@given(small_funcs)
@settings(max_examples=150)
def test_statistic_invariants(p):
    s = stats(p)
    pl = place(p)
    n = p.n
    assert s.deviation == -min(min(pl.diag), 0)
    assert s.area == sum(d + s.deviation for d in pl.diag)
    assert s.dinv == sum(s.dinv_parts)
    assert s.tertiary == sum(1 for d in pl.diag if d < 0)
    assert sorted(s.word) == list(range(1, n + 1))
    assert sorted(s.diagword) == list(range(1, n + 1))
    assert (s.deviation == 0) == is_parking(p)
    assert 1 <= s.touch <= n


@given(small_funcs)
@settings(max_examples=150)
def test_word_orders_by_diagonal(p):
    s = stats(p)
    pl = place(p)
    diag_of = {c + 1: pl.diag[c] for c in range(p.n)}
    diags = [diag_of[c] for c in s.word]
    assert diags == sorted(diags, reverse=True)
    # diagword sorts each diagonal increasingly
    for a, b in zip(s.diagword, s.diagword[1:]):
        if diag_of[a] == diag_of[b]:
            assert a < b


@given(small_funcs)
@settings(max_examples=100)
def test_ides_definition(p):
    s = stats(p)
    pos = {c: i for i, c in enumerate(s.word)}
    expected = frozenset(i for i in range(1, p.n) if pos[i + 1] < pos[i])
    assert s.ides == expected


def test_area_oracle_small():
    # area from the path picture: boxes between the path and the shifted
    # diagonal, counted column by column
    for p in enumerate_all(3):
        s = stats(p)
        pl = place(p)
        assert s.area == sum(r - c + s.deviation
                             for r, c in zip(pl.row, pl.col))


def test_record_dict_shape():
    d = record_dict(vec(1, 5, 1, 2, 1))
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
