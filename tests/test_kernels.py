"""The batch kernel against the per-function reference."""

import random
import threading
import time
import tracemalloc
from itertools import permutations

import numpy as np
import pytest

from qtpark import kernels
from qtpark.checks import tau_functions
from qtpark.kernels import (AREA, DEV, DINV, DWORD, IDES, PARK, STAT, TOUCH,
                            decode_ides, encode_perm, iter_stat_chunks,
                            stats_block)
from qtpark.paths import PrefFunc, stats

# Case ids name the kernel under test: test_block_matches_reference[5-numpy].
NUMPY_ID = "{}-numpy".format


def decode_f(index, n):
    """The preference vector at a lexicographic rank: the kernels' row
    index read as base-n digits f(1)-1, ..., f(n)-1."""
    digits = []
    for _ in range(n):
        digits.append(index % n + 1)
        index //= n
    return tuple(reversed(digits))


def assert_rows_match_reference(block, n, start):
    for offset, row in enumerate(block):
        s = stats(PrefFunc(decode_f(start + offset, n)))
        assert row[AREA] == s.area
        assert row[DINV] == s.dinv
        assert row[DEV] == s.deviation
        assert row[TOUCH] == s.touch
        assert decode_ides(int(row[IDES]), n) == s.ides
        assert row[DWORD] == encode_perm(s.diagword, n)
        assert bool(row[PARK]) == (s.deviation == 0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5], ids=NUMPY_ID)
def test_block_matches_reference(n):
    assert_rows_match_reference(stats_block(n, 0, n ** n), n, 0)


# Indices are decoded in int32 while n^n <= 2^31 (n <= 9; the n = 9 end
# window reaches index 9^9 - 1) and in int64 from n = 10 on.
@pytest.mark.parametrize("n", [6, 7, 8, 9, 10, 15], ids=NUMPY_ID)
@pytest.mark.parametrize("where", ["start", "middle", "end"])
def test_block_window_matches_reference(n, where):
    rows = 300
    start = {"start": 0, "middle": (n ** n - rows) // 2,
             "end": n ** n - rows}[where]
    block = stats_block(n, start, start + rows)
    assert block.shape == (rows,)
    assert_rows_match_reference(block, n, start)


@pytest.mark.parametrize("n", [1, 5, 10, 15])
def test_block_is_one_16_byte_record_per_function(n):
    rows = min(300, n ** n)
    block = stats_block(n, 0, rows)
    assert block.dtype == STAT
    assert block.dtype.itemsize == 16
    assert len(block) == rows


def test_block_working_set_is_at_most_56_bytes_a_row():
    """The traced peak of one full n = 8 block: its 16-byte records, F and
    the diagonals (8 bytes each), and what ``stat_rows`` holds beside
    them."""
    stats_block(8, 0, kernels.CHUNK)  # first-call allocations
    tracemalloc.start()
    try:
        stats_block(8, 0, kernels.CHUNK)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / kernels.CHUNK <= 56


@pytest.mark.parametrize("n", [0, 16, 20])
def test_kernel_refuses_n_outside_its_range(n):
    # 16^16 overflows the int64 indices and diagword codes.
    assert kernels.MAX_N == 15
    with pytest.raises(ValueError):
        stats_block(n, 0, 1)


@pytest.mark.parametrize("threads", [1, 2, 8])
def test_chunk_stream_thread_invariant(threads):
    n = 5
    blocks = [blk for _, blk in iter_stat_chunks(n, threads=threads,
                                                 chunk=500)]
    whole = np.concatenate(blocks)
    assert np.array_equal(whole, stats_block(n, 0, n ** n))


def sorted_rows(block):
    return np.sort(block)  # by the fields in order


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_diagword_filter_keeps_exactly_its_rows(n):
    """The blocks of one tau hold exactly the rows of the full sweep whose
    diagword is tau, for any thread count."""
    whole = stats_block(n, 0, n ** n)
    for tau in permutations(range(1, n + 1)):
        mine = whole[whole[DWORD] == encode_perm(tau, n)]
        for threads in (1, 2):
            blocks = [blk for _, blk in iter_stat_chunks(
                n, threads=threads, chunk=5, tau=tau)]
            assert np.array_equal(sorted_rows(np.concatenate(blocks)),
                                  sorted_rows(mine))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_diagword_and_deviation_fix_the_diagonals(n):
    """Every function's diagonals, as grid_block finds them, are the
    vector the producer derives from its diagword and deviation."""
    total = n ** n
    taus = list(permutations(range(1, n + 1)))
    codes = np.array([encode_perm(tau, n) for tau in taus])
    table = np.array([[kernels.diagonals(tau, l) for l in range(n)]
                      for tau in taus])
    for start in range(0, total, kernels.CHUNK):
        stop = min(start + kernels.CHUNK, total)
        F, diag = kernels.grid_block(n, start, stop)
        rows = kernels.stat_rows(F, diag)
        which = np.searchsorted(codes, rows[DWORD])
        assert np.array_equal(table[which, rows[DEV]].T, diag)


def test_producer_counts_are_the_schedule_products():
    """The functions of each tau number sum over l of prod_c w^(l)(c),
    the estimate a one-tau check is scoped by: every tau at n <= 5,
    seeded ones at n = 6..12."""
    rng = random.Random(21)
    taus = [tau for n in range(1, 6) for tau in permutations(range(1, n + 1))]
    taus += [tuple(rng.sample(range(1, n + 1), n))
             for n in range(6, 13) for _ in range(6)]
    for tau in taus:
        rows = sum(len(blk) for _, blk in iter_stat_chunks(len(tau), tau=tau))
        assert rows == tau_functions(tau), tau


def test_producer_refuses_more_functions_than_its_bound():
    """The identity tau at n = 15 has 15! functions, counted before any
    row is built."""
    with pytest.raises(ValueError, match="number 1307674368000, over"):
        list(kernels.diagword_blocks(15, range(1, 16)))


def test_producer_holds_no_dead_end_row_orders():
    """A tau of 15,552 functions whose rows a counting prune grew over
    187,140 partial orders, 12 MB traced."""
    tau = (4, 1, 9, 10, 11, 2, 8, 3, 5, 6, 12, 7)
    tracemalloc.start()
    try:
        list(kernels.diagword_blocks(12, tau))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def test_chunk_stream_bounds_outstanding_blocks(monkeypatch):
    lock = threading.Lock()
    started, yielded, peak = [0], [0], [0]
    real = kernels.stats_block

    def counting(*args, **kwargs):
        with lock:
            started[0] += 1
            peak[0] = max(peak[0], started[0] - yielded[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(kernels, "stats_block", counting)
    starts = []
    for s, _ in iter_stat_chunks(5, threads=2, chunk=100):
        time.sleep(0.005)  # a slow consumer lets eager workers run ahead
        starts.append(s)
        with lock:
            yielded[0] += 1
    assert starts == list(range(0, 5 ** 5, 100))
    assert peak[0] <= 4


def test_chunk_starts_cover_range():
    starts = [s for s, _ in iter_stat_chunks(4, chunk=100)]
    assert starts == list(range(0, 256, 100))


def test_block_bounds():
    with pytest.raises(ValueError):
        stats_block(3, 0, 28)
    with pytest.raises(ValueError):
        stats_block(3, -1, 5)


def test_encode_perm_matches_ravel_multi_index():
    """The scalar DWORD code of a permutation is numpy's C-order ravel of
    its values minus one over radix n: every permutation up to n = 6 and
    seeded ones up to MAX_N."""
    rng = random.Random(7)
    perms = [p for n in range(1, 7) for p in permutations(range(1, n + 1))]
    perms += [tuple(rng.sample(range(1, n + 1), n))
              for n in range(7, kernels.MAX_N + 1) for _ in range(50)]
    for perm in perms:
        n = len(perm)
        assert encode_perm(perm, n) == np.ravel_multi_index(
            np.subtract(perm, 1), (n,) * n), perm


def test_decode_round_trips():
    assert decode_f(0, 3) == (1, 1, 1)
    assert decode_f(26, 3) == (3, 3, 3)
    assert decode_ides(0b101, 4) == frozenset({1, 3})
    perm = (2, 4, 1, 3)
    code = 0
    for v in perm:
        code = code * 4 + (v - 1)
    assert encode_perm(perm, 4) == code
