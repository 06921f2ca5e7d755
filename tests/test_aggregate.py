"""Count tables against a pure-Python fold, key bounds and refused inputs."""

import math
import os
import random
import subprocess
import sys
import textwrap
import threading
from itertools import permutations

import numpy as np
import pytest
from table_helpers import as_dicts, counts_at

import qtpark
from qtpark import aggregate, kernels
from qtpark.paths import enumerate_all, stats


def reference_tables(n):
    """The three tables folded one function at a time from paths.stats,
    keyed by the kernel's integers."""
    qt, qsym, touch = {}, {}, {}
    for pf in enumerate_all(n):
        s = stats(pf)
        mask = sum(1 << (i - 1) for i in s.ides)
        code = kernels.encode_perm(s.diagword, n)
        for table, key, value in (
                (qt, (code, s.deviation), (s.area, s.dinv)),
                (qsym, (code, s.deviation), (s.area, s.dinv, mask)),
                (touch, (s.touch, int(s.deviation == 0)),
                 (s.area, s.dinv, mask))):
            counts = table.setdefault(key, {})
            counts[value] = counts.get(value, 0) + 1
    return qt, qsym, touch


def assert_tables_match_reference(n):
    qt, qsym, touch = reference_tables(n)
    assert as_dicts(aggregate.qt_by_diagword(n, threads=2)) == qt
    assert as_dicts(aggregate.qsym_by_diagword(n, threads=2)) == qsym
    assert as_dicts(aggregate.qsym_by_touch(n, threads=2)) == touch
    return qsym, touch


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_views_match_reference_fold(n):
    qsym, touch = assert_tables_match_reference(n)
    if n >= 2:  # the comparison covers the non-parking keys
        assert any(dev > 0 for _, dev in qsym)
        assert any(not park for _, park in touch)


def use_small_chunks(monkeypatch, rows):
    """Make the folds stream blocks of ``rows`` rows."""
    real_stream = kernels.iter_stat_chunks

    def stream(n, threads=1, **kwargs):
        return real_stream(n, threads=threads, **{**kwargs, "chunk": rows})

    monkeypatch.setattr(kernels, "iter_stat_chunks", stream)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_batched_merges_match_reference_fold(monkeypatch, n):
    real_merge = aggregate._merge
    merges = []

    def counting_merge(parts):
        merges.append(len(parts))
        return real_merge(parts)

    use_small_chunks(monkeypatch, 97)
    monkeypatch.setattr(aggregate, "_merge", counting_merge)
    monkeypatch.setattr(aggregate, "_MERGE_BATCH", 50)
    assert_tables_match_reference(n)
    if n == 5:  # 33 blocks of 97 rows: many merges, each of a few blocks
        assert len(merges) > 10
        assert max(merges) < 33


def test_merge_consumes_its_parts():
    """Overlapping sorted runs merge to the summed counts of each key, and
    the merge empties the list it was handed, so the fold holds no second
    reference to the parts while it sorts."""
    runs = [[1, 4, 9, 12], [0, 4, 5, 12, 30], [], [9], [2, 4, 30, 31]]
    parts = [(np.array(run, dtype=np.int64),
              np.arange(1, len(run) + 1, dtype=np.int64)) for run in runs]
    expect = {}
    for keys, counts in parts:
        for k, c in zip(keys.tolist(), counts.tolist()):
            expect[k] = expect.get(k, 0) + c
    keys, counts = aggregate._merge(parts)
    assert parts == []
    assert keys.tolist() == sorted(expect)
    assert counts.tolist() == [expect[k] for k in sorted(expect)]


def test_table_iterates_in_key_order(monkeypatch):
    use_small_chunks(monkeypatch, 7)  # key order is not block order
    table = aggregate.qt_by_diagword(4)
    rows = list(zip(*(col.tolist() for col in table.columns)))
    assert rows == sorted(set(rows))


@pytest.mark.parametrize("build", [aggregate.qt_by_diagword,
                                   aggregate.qsym_by_diagword,
                                   aggregate.qsym_by_touch])
@pytest.mark.parametrize("n", [1, 4])
def test_table_lookups(build, n):
    """Each key's counts, the rows of a missing key and of a diagword
    alone, and the figure behind the benchmark's table entry count."""
    table = build(n)
    nrows = len(table.counts)
    rows = np.arange(nrows)
    assert sum(len(v) for v in table.values()) == nrows
    for key, counts in as_dicts(table).items():
        assert counts_at(table, *key) == counts
    key_cols = ((kernels.TOUCH, kernels.PARK)
                if build is aggregate.qsym_by_touch
                else (kernels.DWORD, kernels.DEV))
    first, second = (aggregate._RADIX[c](n) for c in key_cols)
    missing = [(first, 0), (0, second), (-1, 0), (0, -1)]
    if n > 1:  # touch 0, or a diagword code whose digits are all 0
        missing.append((0, 0))
    for key in missing:
        assert len(rows[table.rows(*key)]) == 0
        assert counts_at(table, *key) == {}
    if build is aggregate.qsym_by_touch:
        return
    for tau in permutations(range(1, n + 1)):
        code = kernels.encode_perm(tau, n)
        alone = rows[table.rows(code)]
        assert len(alone)
        assert alone.tolist() == np.concatenate(
            [rows[table.rows(code, dev)] for dev in range(n)]).tolist()


@pytest.mark.parametrize("build,n,tau", [
    *((build, n, None) for build in (aggregate.qt_by_diagword,
                                     aggregate.qsym_by_diagword,
                                     aggregate.qsym_by_touch)
      for n in (1, 4)),
    (aggregate.qsym_by_diagword, 5, (3, 5, 1, 4, 2))])
def test_table_keeps_its_promises(build, n, tau):
    """No array of a table can be written, and ``values`` splits the
    counts into one piece per distinct key, in key order."""
    table = build(n) if tau is None else build(n, tau=tau)
    for array in (*table.columns, table.counts):
        with pytest.raises(ValueError):
            array[0] = array[0]
    pieces = table.values()
    assert np.concatenate(pieces).tolist() == table.counts.tolist()
    keys = sorted(set(zip(*(col.tolist()
                            for col in table.columns[:table.nkeys]))))
    assert len(pieces) == len(keys)
    for piece, key in zip(pieces, keys):
        assert piece.tolist() == table.counts[table.rows(*key)].tolist()


def assert_one_tau_table_is_the_slice(build, n, tau, full=None):
    """The table of tau's rows alone holds the full table's rows of tau's
    key (of ``full``, if given), column for column; returns how many
    functions it counts."""
    full = build(n) if full is None else full
    table = build(n, tau=tau)
    where = full.rows(kernels.encode_perm(tau, n))
    assert len(table.counts) == where.stop - where.start > 0
    for col, full_col in zip(table.columns, full.columns):
        assert col.tolist() == full_col[where].tolist()
    assert table.counts.tolist() == full.counts[where].tolist()
    return int(table.counts.sum())


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_one_tau_tables_partition_the_functions(n):
    """Over all taus the one-tau tables are the full table's slices, and
    their counts add up to the n^n functions."""
    full = aggregate.qsym_by_diagword(n)
    total = sum(assert_one_tau_table_is_the_slice(aggregate.qsym_by_diagword,
                                                  n, tau, full)
                for tau in permutations(range(1, n + 1)))
    assert total == n ** n
    full = aggregate.qt_by_diagword(n)
    for tau in list(permutations(range(1, n + 1)))[:24]:
        assert_one_tau_table_is_the_slice(aggregate.qt_by_diagword, n, tau,
                                          full)


def test_one_tau_tables_match_a_sample_at_n7():
    rng = random.Random(19)
    for _ in range(8):
        tau = tuple(rng.sample(range(1, 8), 7))
        for build in (aggregate.qt_by_diagword, aggregate.qsym_by_diagword):
            assert_one_tau_table_is_the_slice(build, 7, tau)


def test_one_tau_tables_match_a_sample_at_n8():
    full = aggregate.qsym_by_diagword(8, threads=2)
    rng = random.Random(8)
    for _ in range(6):
        tau = tuple(rng.sample(range(1, 9), 8))
        assert_one_tau_table_is_the_slice(aggregate.qsym_by_diagword, 8, tau,
                                          full)


def test_one_tau_table_sweeps_nothing(monkeypatch):
    """The one-tau table of 3142 is folded from the kernel's blocks of
    its functions, one per deviation, with no block of the n^n sweep, and
    is still the full table's slice."""
    blocks, starts = [], []
    real = kernels.iter_stat_chunks

    def recording(*args, each, **kwargs):
        def seen(blk):  # in the calling thread, in order, for one tau
            blocks.append(blk)
            return each(blk)

        for start, part in real(*args, each=seen, **kwargs):
            starts.append(start)
            yield start, part

    full = aggregate.qsym_by_diagword(4)
    monkeypatch.setattr(kernels, "iter_stat_chunks", recording)
    monkeypatch.setattr(kernels, "grid_block", None)
    table = aggregate.qsym_by_diagword(4, tau=(3, 1, 4, 2))
    code = kernels.encode_perm((3, 1, 4, 2), 4)
    where = full.rows(code)
    assert as_dicts(table) == {key: counts
                               for key, counts in as_dicts(full).items()
                               if key[0] == code}
    assert starts == [0, 1, 2] and len(blocks) == 3
    assert sum(len(blk) for blk in blocks) == full.counts[where].sum()


@pytest.mark.parametrize("tau", [(1, 2, 2, 4), (1, 2, 3), (0, 1, 2, 3),
                                 (1, 2, 3, 5)])
def test_non_permutation_tau_is_refused_before_any_block(monkeypatch, tau):
    calls = []

    def record(*args, **kwargs):
        calls.append(args)

    monkeypatch.setattr(kernels, "grid_block", record)
    monkeypatch.setattr(kernels, "_row_orders", record)
    for build in (aggregate.qt_by_diagword, aggregate.qsym_by_diagword):
        with pytest.raises(ValueError, match="not a permutation of 1..4"):
            build(4, tau=tau)
    with pytest.raises(ValueError, match="not a permutation of 1..4"):
        list(kernels.iter_stat_chunks(4, tau=tau))
    assert calls == []


def admit_another_diagword(monkeypatch):
    """Make the producer build the functions of deviation 0 on the
    diagonals of another diagword: the first and last car of tau trade
    diagonals."""
    real = kernels.diagonals

    def swapped(tau, l):
        diag = real(tau, l)
        if l == 0:
            a, b = tau[0] - 1, tau[-1] - 1
            diag[[a, b]] = diag[[b, a]]
        return diag

    monkeypatch.setattr(kernels, "diagonals", swapped)


@pytest.mark.parametrize("threads", [1, 2])
def test_a_producer_that_admits_another_diagword_is_refused(monkeypatch,
                                                            threads):
    admit_another_diagword(monkeypatch)
    with pytest.raises(RuntimeError, match="another diagword"):
        aggregate.qt_by_diagword(5, threads=threads, tau=(3, 5, 1, 4, 2))


def fake_stream(*blocks):
    """A stand-in for kernels.iter_stat_chunks yielding one block per list
    of rows, each passed through ``each`` as the real stream does."""
    def stream(n, threads=1, each=None, **kwargs):
        for start, rows in enumerate(blocks):
            blk = np.zeros(len(rows), dtype=kernels.STAT)
            for i, row in enumerate(rows):
                for col, value in row.items():
                    blk[col][i] = value
            yield start, blk if each is None else each(blk)
    return stream


def test_ides_mask_round_trips_at_n10(monkeypatch):
    n = 10
    tau = (3, 1, 4, 10, 5, 9, 2, 6, 8, 7)
    code = sum((v - 1) * n ** (n - 1 - i) for i, v in enumerate(tau))
    row = {kernels.DWORD: code, kernels.DEV: 2, kernels.AREA: 40,
           kernels.DINV: 18, kernels.IDES: 0b111111111}
    monkeypatch.setattr(kernels, "iter_stat_chunks", fake_stream([row] * 3))
    table = aggregate.qsym_by_diagword(n)
    assert as_dicts(table) == {(code, 2): {(40, 18, 0b111111111): 3}}
    assert counts_at(table, code) == {(40, 18, 0b111111111): 3}


def test_touch_key_round_trips_at_n10_with_largest_values(monkeypatch):
    """Every field at its largest legal value: a key built in the first
    field's int8 (touch) would wrap at the first radix product."""
    n = 10
    row = {kernels.TOUCH: n, kernels.PARK: 1, kernels.AREA: n * n,
           kernels.DINV: n * n, kernels.IDES: 2 ** (n - 1) - 1}
    other = {**row, kernels.TOUCH: 1, kernels.PARK: 0}
    monkeypatch.setattr(kernels, "iter_stat_chunks",
                        fake_stream([row, other, row]))
    table = aggregate.qsym_by_touch(n)
    assert as_dicts(table) == {(1, 0): {(100, 100, 511): 1},
                               (n, 1): {(100, 100, 511): 2}}
    assert counts_at(table, n, 1) == {(100, 100, 511): 2}


@pytest.mark.parametrize("n", [1, 2, 3, 8])
@pytest.mark.parametrize("build,columns", [
    (aggregate.qsym_by_diagword, (kernels.DWORD, kernels.DEV, kernels.AREA,
                                  kernels.DINV, kernels.IDES)),
    (aggregate.qsym_by_touch, (kernels.TOUCH, kernels.PARK, kernels.AREA,
                               kernels.DINV, kernels.IDES)),
], ids=["diagword", "touch"])
@pytest.mark.parametrize("spread", ["edges", "one-range"])
def test_range_merges_match_one_unique_fold(monkeypatch, n, build, columns,
                                            spread):
    """Keys on both sides of every cut between the fold's n key ranges, or
    all in the last range, streamed a few at a time and merged mid-stream:
    each merge sees one range, and the table is one np.unique fold of the
    same keys."""
    radices = [aggregate._RADIX[c](n) for c in columns]
    size = math.prod(radices)
    edges = [size * i // n for i in range(1, n)]
    if spread == "edges":
        keys = {0, 1, size - 2, size - 1}
        keys.update(e + d for e in edges for d in (-1, 0, 1))
    else:
        low = edges[-1] if edges else 0
        keys = {low, low + 1, (low + size) // 2, size - 1}
    keys = sorted(keys) * 3
    random.Random(n).shuffle(keys)

    def fields(key):
        row = {}
        for col, r in zip(columns[::-1], radices[::-1]):
            key, row[col] = divmod(key, r)
        return row

    blocks = [list(map(fields, keys[i:i + 3]))
              for i in range(0, len(keys), 3)]

    real_merge = aggregate._merge
    merged_ranges = []

    def recording_merge(parts):
        seen = np.concatenate([k for k, _ in parts])
        merged_ranges.append(set(np.searchsorted(edges, seen,
                                                 side="right").tolist()))
        return real_merge(parts)

    monkeypatch.setattr(aggregate, "_merge", recording_merge)
    monkeypatch.setattr(aggregate, "_MERGE_BATCH", 2)
    monkeypatch.setattr(kernels, "iter_stat_chunks", fake_stream(*blocks))
    table = build(n)
    got = np.zeros(table.counts.size, dtype=np.int64)
    for col, r in zip(table.columns, radices):
        got = got * r + col
    expect, counts = np.unique(keys, return_counts=True)
    assert got.tolist() == expect.tolist()
    assert table.counts.tolist() == counts.tolist()
    assert len(merged_ranges) > n  # the last n merges end the stream
    assert all(len(ranges) <= 1 for ranges in merged_ranges)


def test_key_too_wide_is_refused_before_any_block(monkeypatch):
    calls = []

    def stream(*args, **kwargs):
        calls.append(args)
        return iter(())

    monkeypatch.setattr(kernels, "iter_stat_chunks", stream)
    monkeypatch.setattr(kernels, "stats_block", stream)
    with pytest.raises(ValueError):
        aggregate.qsym_by_diagword(11)
    assert calls == []


@pytest.mark.parametrize("col,value", [
    (kernels.DEV, 4), (kernels.DEV, -1), (kernels.IDES, 8),
    (kernels.AREA, 17), (kernels.DWORD, 4 ** 4),
], ids=["dev-high", "dev-negative", "ides", "area", "diagword"])
def test_out_of_range_block_is_refused(monkeypatch, col, value):
    monkeypatch.setattr(kernels, "iter_stat_chunks", fake_stream([{col: value}]))
    with pytest.raises(ValueError, match=f"column {col} holds"):
        aggregate.qsym_by_diagword(4)


def test_out_of_range_block_is_refused_in_a_worker(monkeypatch):
    """A field out of range in one middle block, whose key a worker
    thread builds, raises the guard's ValueError in the caller."""
    use_small_chunks(monkeypatch, 97)
    real = kernels.stats_block
    planted_in = []

    def planted(n, start, stop):
        blk = real(n, start, stop)
        if start <= n ** n // 2 < stop:
            blk[kernels.DINV][0] = n * n + 1
            planted_in.append(threading.current_thread())
        return blk

    monkeypatch.setattr(kernels, "stats_block", planted)
    with pytest.raises(ValueError, match=f"column {kernels.DINV} holds "
                                         r"\d+\.\.26, outside 0\.\.25"):
        aggregate.qsym_by_touch(5, threads=2)
    assert len(planted_in) == 1
    assert planted_in[0] is not threading.main_thread()


GUARDS = textwrap.dedent("""
    import dataclasses

    import numpy as np
    from qtpark import aggregate, checks, kernels, quasisym, schedules, symfunc

    real_stream = kernels.iter_stat_chunks

    def bad_stream(n, threads=1, each=None, **kwargs):
        blk = np.zeros(1, dtype=kernels.STAT)
        blk[kernels.DEV] = n
        yield 0, blk if each is None else each(blk)

    kernels.iter_stat_chunks = bad_stream
    try:
        aggregate.qt_by_diagword(3)
    except ValueError as e:
        if "column dev" in str(e):
            print("fold guard fired")
    kernels.iter_stat_chunks = real_stream

    real_block = kernels.stats_block

    def bad_middle_block(n, start, stop):
        blk = real_block(n, start, stop)
        if start <= n ** n // 2 < stop:
            blk[kernels.DINV][0] = n * n + 1
        return blk

    def small_chunks(n, threads=1, **kwargs):
        return real_stream(n, threads=threads, **{**kwargs, "chunk": 97})

    kernels.stats_block = bad_middle_block
    kernels.iter_stat_chunks = small_chunks
    try:  # 33 blocks, keyed in the kernel's worker threads
        aggregate.qsym_by_touch(5, threads=2)
    except ValueError as e:
        if "column dinv" in str(e):
            print("worker fold guard fired")
    kernels.stats_block = real_block
    kernels.iter_stat_chunks = real_stream

    real_diagonals = kernels.diagonals

    def swapped(tau, l):  # the first and last car trade diagonals
        diag = real_diagonals(tau, l)
        diag[[tau[0] - 1, tau[-1] - 1]] = diag[[tau[-1] - 1, tau[0] - 1]]
        return diag

    kernels.diagonals = swapped
    try:
        aggregate.qt_by_diagword(3, tau=(2, 1, 3))
    except RuntimeError:
        print("diagword guard fired")
    kernels.diagonals = real_diagonals

    real_young = quasisym.inv_ides_counts

    def doubled(m):  # every permutation of each block counted twice
        inv, mask, counts = real_young(m)
        return inv, mask, 2 * counts

    quasisym.inv_ides_counts = doubled
    try:
        taus = np.array([(1, 2, 3)])
        quasisym.factor_check(aggregate.qsym_by_diagword(3), taus,
                              schedules.schedule_counts(taus), [0])
    except RuntimeError as e:
        if "differs from block q-factorials" in str(e):
            print("factor_check guard fired")
    quasisym.inv_ides_counts = real_young

    real_shift = symfunc.shift_terms

    def planted_shift(lam):  # +1 on p_11's z^-2 term: no longer 2! apart
        return tuple((key, c + 1 if lam == (1, 1) and key == ((), 2) else c)
                     for key, c in real_shift(lam))

    symfunc.shift_terms = planted_shift
    try:
        symfunc.c_op(1, symfunc.c_composition((2,)))
    except RuntimeError as e:
        if "do not divide by 2!" in str(e):
            print("c_op divisibility guard fired")
    symfunc.shift_terms = real_shift

    real_counts = checks.schedule_counts

    def moved(block):  # the last car of the last tau leaves its last run
        sc = real_counts(block)
        from_last = sc.from_last.copy()
        from_last[-1, -1] += 1
        return sc._replace(from_last=from_last)

    checks.schedule_counts = moved
    checks.withides_failures = lambda table, taus, ks: np.zeros(len(taus),
                                                                 bool)
    try:
        checks.run_check(checks.CheckSpec("cor-withides", 3, 3))
    except RuntimeError as e:
        if "the batch gave" in str(e):
            print("withides k guard fired")
    checks.schedule_counts = real_counts

    real_table = aggregate.qsym_by_diagword

    def planted_table(n, threads=1, tau=None):  # its last row: tau n..1
        table = real_table(n, threads=threads, tau=tau)
        counts = table.counts.copy()
        counts[-1] += 1
        return dataclasses.replace(table, counts=counts)

    aggregate.qsym_by_diagword = planted_table
    try:  # withides_failures still passes every tau
        checks.run_check(checks.CheckSpec("cor-withides", 3, 3))
    except RuntimeError as e:
        if "the integer counts pass it, the summed sides do not" in str(e):
            print("withides sides guard fired")
    aggregate.qsym_by_diagword = real_table

    checks.withides_failures = lambda table, taus, ks: np.ones(len(taus),
                                                                bool)
    try:  # every tau is correct
        checks.run_check(checks.CheckSpec("cor-withides", 3, 3))
    except RuntimeError as e:
        if "the integer counts fail it, the summed sides do not" in str(e):
            print("withides counts guard fired")
""")


def test_guards_fire_under_python_O():
    src = os.path.dirname(os.path.dirname(qtpark.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-O", "-c", GUARDS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["fold guard fired",
                                        "worker fold guard fired",
                                        "diagword guard fired",
                                        "factor_check guard fired",
                                        "c_op divisibility guard fired",
                                        "withides k guard fired",
                                        "withides sides guard fired",
                                        "withides counts guard fired"]
