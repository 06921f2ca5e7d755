"""The batch kernel against the per-function reference."""

import random
import threading
import time
from itertools import permutations

import numpy as np
import pytest

from qtpark import kernels
from qtpark.checks import tau_functions
from qtpark.kernels import (AREA, DEV, DINV, DWORD, IDES, NCOL, PARK, TOUCH,
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
    assert block.shape == (rows, NCOL)
    assert_rows_match_reference(block, n, start)


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
    return block[np.lexsort(block.T[::-1])]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_diagword_filter_keeps_exactly_its_rows(n):
    """The blocks of one tau hold exactly the rows of the full sweep whose
    diagword is tau, for any thread count."""
    whole = stats_block(n, 0, n ** n)
    for tau in permutations(range(1, n + 1)):
        mine = whole[whole[:, DWORD] == encode_perm(tau, n)]
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
        which = np.searchsorted(codes, rows[:, DWORD])
        assert np.array_equal(table[which, rows[:, DEV]].T, diag)


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


def test_producer_refuses_a_frontier_over_its_bound(monkeypatch):
    monkeypatch.setattr(kernels, "MAX_FRONTIER", 3)
    with pytest.raises(ValueError, match="partial orders, over 3"):
        list(iter_stat_chunks(4, tau=(3, 1, 4, 2)))


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


def test_decode_round_trips():
    assert decode_f(0, 3) == (1, 1, 1)
    assert decode_f(26, 3) == (3, 3, 3)
    assert decode_ides(0b101, 4) == frozenset({1, 3})
    perm = (2, 4, 1, 3)
    code = 0
    for v in perm:
        code = code * 4 + (v - 1)
    assert encode_perm(perm, 4) == code
