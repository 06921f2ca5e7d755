"""Spans around qtpark's public functions, installed from outside the package.

The traced run of the benchmark imports qtpark, then replaces every binding of
the functions in ``TARGETS`` -- in the defining module and in every qtpark
module that imported the function by name -- with a wrapper that records one
span per call.  Nothing in ``src/`` knows about tracing.

A span is (name, start, end, parent, count) on one thread.  Spans stay in
per-thread buffers in memory and are written out once, by ``Tracer.dump``,
when the command ends.  Kernel blocks computed on worker threads have no
open span on their own thread; their parent is the span that was open on the
consumer thread when it started reading the block stream, so a table build
sees the blocks computed for it as its children.

Generator functions (the kernel block stream, the function enumeration) get
one span per ``next()``: the time the consumer waits for the next item.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import threading
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np


class _NewTableEntries:
    """Entry count of a table the first time it is returned, else 0.

    Tables are cached per process, so a build returns a new object and a
    cache hit returns one seen before.
    """

    def __init__(self):
        self._seen: Dict[int, object] = {}

    def __call__(self, table) -> int:
        if id(table) in self._seen:
            return 0
        self._seen[id(table)] = table
        return sum(len(v) for v in table.values())


# (layer, module, attribute path, count hook factory).  The count hook maps a
# call's result to the integer stored with its span.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable[[], Callable]]], ...] = (
    ("kernels", "qtpark.kernels", "stats_block", lambda: len),
    ("kernels", "qtpark.kernels", "iter_stat_chunks", None),
    ("aggregate", "qtpark.aggregate", "qt_by_diagword", _NewTableEntries),
    ("aggregate", "qtpark.aggregate", "qsym_by_diagword", _NewTableEntries),
    ("aggregate", "qtpark.aggregate", "qsym_by_touch", _NewTableEntries),
    ("quasisym", "qtpark.quasisym", "qsym_for_diagword", None),
    ("quasisym", "qtpark.quasisym", "qsym_for_touch", None),
    ("quasisym", "qtpark.quasisym", "qsym_total", None),
    ("quasisym", "qtpark.quasisym", "factor_check", None),
    ("qt", "qtpark.qt", "QTPoly.__mul__", None),
    ("qt", "qtpark.qt", "QTPoly.__add__", None),
    ("symfunc", "qtpark.symfunc", "e_nk", None),
    ("symfunc", "qtpark.symfunc", "c_op", None),
    ("symfunc", "qtpark.symfunc", "hmz_check", None),
    ("symfunc", "qtpark.symfunc", "pn_identity_check", None),
    ("schedules", "qtpark.schedules", "pref_closed_form", None),
    ("schedules", "qtpark.schedules", "pf_closed_form", None),
    ("schedules", "qtpark.schedules", "shift_multiset", None),
    ("schedules", "qtpark.schedules", "runs", None),
    ("paths", "qtpark.paths", "stats", None),
    ("paths", "qtpark.paths", "enumerate_all", None),
    ("paths", "qtpark.paths", "json_line", None),
    ("checks", "qtpark.checks", "run_check", None),
)

ROOT = "cli.main"
_END = object()


def span_name(layer: str, path: str) -> str:
    return f"{layer}.{path}"


class _Buffer:
    """Spans of one thread; span ids are ``base + index``."""

    __slots__ = ("base", "name", "parent", "start", "end", "count", "stack")

    def __init__(self, slot: int):
        self.base = slot << 40
        self.name = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.count = array("q")
        self.stack: List[int] = []


class Tracer:
    """Records spans around wrapped functions until ``uninstall``."""

    def __init__(self):
        self.names: List[str] = []
        self.absent: List[str] = []
        self.owner = -1  # span that opened the block stream being read
        self._local = threading.local()
        self._buffers: List[_Buffer] = []
        self._lock = threading.Lock()
        self._restore: List[Tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------

    def _buffer(self) -> _Buffer:
        b = getattr(self._local, "b", None)
        if b is None:
            with self._lock:
                b = _Buffer(len(self._buffers))
                self._buffers.append(b)
            self._local.b = b
        return b

    def name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def open(self, nid: int) -> Tuple[_Buffer, int]:
        b = self._buffer()
        st = b.stack
        sid = b.base + len(b.start)
        b.name.append(nid)
        b.parent.append(st[-1] if st else self.owner)
        b.count.append(0)
        b.end.append(0)
        st.append(sid)
        b.start.append(time.perf_counter_ns())
        return b, sid

    @staticmethod
    def close(b: _Buffer, sid: int, count: int = 0) -> None:
        b.end[sid - b.base] = time.perf_counter_ns()
        b.stack.pop()
        if count:
            b.count[sid - b.base] = count

    def wrap(self, fn: Callable, name: str,
             count: Optional[Callable] = None) -> Callable:
        nid = self.name_id(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                return tracer._traced_iter(fn(*args, **kwargs), nid)
            gen_wrapper.__wrapped__ = fn
            return gen_wrapper

        def wrapper(*args, **kwargs):
            b, sid = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(b, sid)
                raise
            tracer.close(b, sid, count(result) if count else 0)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _traced_iter(self, gen, nid: int):
        b = self._buffer()
        previous = self.owner
        self.owner = b.stack[-1] if b.stack else previous
        try:
            while True:
                b, sid = self.open(nid)
                try:
                    item = next(gen, _END)
                finally:
                    self.close(b, sid)
                if item is _END:
                    return
                yield item
        finally:
            self.owner = previous
            gen.close()

    # -- installing ---------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of every target that exists.

        A target a later version of qtpark no longer defines is listed in
        ``absent`` instead of failing the run.
        """
        found = []
        for layer, modname, path, hook in TARGETS:
            try:
                holder = importlib.import_module(modname)
                *outer, attr = path.split(".")
                for part in outer:
                    holder = getattr(holder, part)
                found.append((layer, path, hook, holder, bool(outer),
                              getattr(holder, attr)))
            except (ImportError, AttributeError):
                self.absent.append(span_name(layer, path))
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "qtpark" or name.startswith("qtpark.")]
        for layer, path, hook, holder, is_method, original in found:
            wrapper = self.wrap(original, span_name(layer, path),
                                hook() if hook else None)
            # A method is rebound on its class, aliases such as __radd__
            # included; a function in every module that imported it by name.
            for h in ([holder] if is_method else modules):
                for key, value in list(vars(h).items()):
                    if value is original:
                        self._restore.append((h, key, original))
                        setattr(h, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    # -- output -------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write every span as numpy arrays (ns timestamps)."""
        bufs = list(self._buffers)

        def cat(parts):
            return np.concatenate([np.zeros(0, np.int64)] + [
                np.asarray(p, dtype=np.int64) for p in parts])

        np.savez(path,
                 names=np.array(self.names, dtype=str),
                 absent=np.array(self.absent, dtype=str),
                 sid=cat(b.base + np.arange(len(b.start)) for b in bufs),
                 thread=cat(np.full(len(b.start), i)
                            for i, b in enumerate(bufs)),
                 **{field: cat(getattr(b, field) for b in bufs)
                    for field in ("name", "parent", "start", "end", "count")})


def union_length(intervals: List[Tuple[int, int]]) -> int:
    """Total length covered by possibly overlapping [start, end) intervals."""
    total = 0
    reach = None
    for s, e in sorted(intervals):
        if reach is None or s >= reach:
            total += e - s
            reach = e
        elif e > reach:
            total += e - reach
            reach = e
    return total


def self_times(start: np.ndarray, end: np.ndarray, parent_row: np.ndarray,
               thread: np.ndarray) -> np.ndarray:
    """Each span's duration minus the union of its children's intervals.

    Children on the parent's own thread nest and never overlap, so their
    lengths add.  Children on other threads (kernel blocks from a worker
    pool) overlap each other and the consumer's waits, so a parent that has
    any of them subtracts the exact union of all its children, each clipped
    to the parent's interval.
    """
    dur = end - start
    child = np.nonzero(parent_row >= 0)[0]
    p = parent_row[child]
    cs = np.maximum(start[child], start[p])
    ce = np.maximum(np.minimum(end[child], end[p]), cs)
    covered = np.bincount(p, weights=ce - cs,
                          minlength=len(dur)).astype(np.int64)
    cross = np.unique(p[thread[child] != thread[p]])
    if cross.size:
        in_cross = np.isin(p, cross)
        groups: Dict[int, List[Tuple[int, int]]] = {}
        for row, s, e in zip(p[in_cross].tolist(), cs[in_cross].tolist(),
                             ce[in_cross].tolist()):
            groups.setdefault(row, []).append((s, e))
        for row, ivs in groups.items():
            covered[row] = union_length(ivs)
    return dur - covered


def load_spans(path: str) -> Dict[str, np.ndarray]:
    """Read a dump and resolve each span's parent to a row index (-1: none)."""
    with np.load(path) as z:
        d = {k: z[k] for k in z.files}
    order = np.argsort(d["sid"])
    sorted_ids = d["sid"][order]
    pos = np.minimum(np.searchsorted(sorted_ids, d["parent"]),
                     max(len(sorted_ids) - 1, 0))
    d["parent_row"] = np.full(len(order), -1, dtype=np.int64)
    if len(order):
        found = sorted_ids[pos] == d["parent"]
        d["parent_row"][found] = order[pos[found]]
    d["self"] = self_times(d["start"], d["end"], d["parent_row"], d["thread"])
    return d
