"""The batch kernel against the per-function reference."""

import threading
import time

import numpy as np
import pytest

from qtpark import kernels
from qtpark.kernels import (AREA, DEV, DINV, DWORD, IDES, NCOL, PARK, TOUCH,
                            decode_ides, decode_perm, iter_stat_chunks,
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
        assert decode_perm(int(row[DWORD]), n) == s.diagword
        assert bool(row[PARK]) == (s.deviation == 0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5], ids=NUMPY_ID)
def test_block_matches_reference(n):
    assert_rows_match_reference(stats_block(n, 0, n ** n), n, 0)


@pytest.mark.parametrize("n", [6, 7, 8, 15], ids=NUMPY_ID)
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
    assert decode_perm(code, 4) == perm
