"""Tests of the benchmark harness itself (not of qtpark).

    python3 -m pytest perfbench/tests -q
"""

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracer  # noqa: E402


def test_self_time_subtracts_union_of_overlapping_children():
    # row 0: a table build on thread 0, [0, 100)
    # row 1: the consumer waiting for a block, thread 0, [10, 20)
    # rows 2-3: kernel blocks on two worker threads, overlapping: [5, 50)
    #           and [30, 80); union with the wait is [5, 80) = 75
    # row 4: a parent with two sequential same-thread children
    # rows 5-6: its children, 2 + 2 long
    start = np.array([0, 10, 5, 30, 200, 201, 204])
    end = np.array([100, 20, 50, 80, 210, 203, 206])
    parent = np.array([-1, 0, 0, 0, -1, 4, 4])
    thread = np.array([0, 0, 1, 2, 0, 0, 0])
    own = tracer.self_times(start, end, parent, thread)
    assert own.tolist() == [25, 10, 45, 50, 6, 2, 2]


def test_self_time_clips_children_to_the_parent():
    start = np.array([0, 90])
    end = np.array([100, 130])
    own = tracer.self_times(start, end, np.array([-1, 0]), np.array([0, 1]))
    assert own.tolist() == [90, 40]


def test_union_length():
    assert tracer.union_length([]) == 0
    assert tracer.union_length([(0, 10), (5, 15), (20, 25), (21, 22)]) == 20


def _bindings():
    """Every (holder, key) bound to a target function, with its object."""
    import qtpark.cli  # noqa: F401  (loads every module a command uses)
    mods = [m for n, m in sys.modules.items()
            if n == "qtpark" or n.startswith("qtpark.")]
    from qtpark.qt import QTPoly
    out = {}
    for h in mods + [QTPoly]:
        for key, value in vars(h).items():
            if callable(value):
                out[(id(h), key)] = value
    return out


def test_install_wraps_every_binding_and_uninstall_restores(tmp_path):
    from qtpark import checks, cli, qt, quasisym
    before = _bindings()
    t = tracer.Tracer()
    t.install()
    try:
        assert t.absent == []
        # bindings imported by name in callers are wrapped too
        assert cli.run_check is not before[(id(cli), "run_check")]
        assert checks.qsym_for_diagword is quasisym.qsym_for_diagword
        assert checks.qsym_for_diagword.__wrapped__ is \
            before[(id(quasisym), "qsym_for_diagword")]
        assert qt.QTPoly.__radd__ is qt.QTPoly.__add__
        root = t.name_id(tracer.ROOT)
        b, sid = t.open(root)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            rc = cli.main(["check", "cor-withides", "--n", "3",
                           "--threads", "2"])
        t.close(b, sid)
    finally:
        t.uninstall()
    assert rc == 0 and '"passed":true' in out.getvalue()
    assert _bindings() == before
    t.dump(str(tmp_path / "spans.npz"))
    d = tracer.load_spans(str(tmp_path / "spans.npz"))
    names = d["names"][d["name"]].tolist()
    assert names.count(tracer.ROOT) == 1
    assert "quasisym.qsym_for_diagword" in names
    assert "checks.run_check" in names
    # every span but the root has a parent, and no self time is negative
    assert (d["parent_row"] >= 0).sum() == len(names) - 1
    assert (d["self"] >= 0).all()


def test_worker_blocks_hang_under_the_stream_owner(tmp_path):
    from qtpark import kernels
    t = tracer.Tracer()
    t.install()
    try:
        b, sid = t.open(t.name_id("owner"))
        blocks = list(kernels.iter_stat_chunks(4, threads=2, chunk=64))
        t.close(b, sid)
    finally:
        t.uninstall()
    assert len(blocks) == 4
    t.dump(str(tmp_path / "spans.npz"))
    d = tracer.load_spans(str(tmp_path / "spans.npz"))
    names = d["names"][d["name"]]
    owner = int(np.nonzero(names == "owner")[0][0])
    work = names == "kernels.stats_block"
    waits = names == "kernels.iter_stat_chunks"
    assert work.sum() == 4 and d["count"][work].sum() == 4 ** 4
    assert (d["thread"][work] != d["thread"][owner]).all()
    assert (d["parent_row"][work] == owner).all()
    assert waits.sum() == 5  # four blocks and the final StopIteration
    assert (d["parent_row"][waits] == owner).all()
    assert 0 <= d["self"][owner] <= d["end"][owner] - d["start"][owner]


def test_missing_target_is_absent_not_fatal(monkeypatch):
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (
        ("qt", "qtpark.qt", "QTPoly.no_such_method", None),
        ("paths", "qtpark.no_such_module", "stats", None),
    ))
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert t.absent == ["qt.QTPoly.no_such_method", "paths.stats"]


def test_digest_sink_matches_hashlib():
    rng = random.Random(7)
    data = bytes(rng.randrange(256) for _ in range(200_000))
    sink = run.DigestSink(keep=100)
    pos = 0
    while pos < len(data):
        step = rng.randrange(1, 5000)
        sink.write(data[pos:pos + step])
        pos += step
    assert sink.hexdigest() == hashlib.sha256(data).hexdigest()
    assert sink.nbytes == len(data)
    assert sink.tail == data[-100:]


def _run_benchmark(monkeypatch, tmp_path, commands, manifest, trace=False):
    path = tmp_path / "expected.json"
    path.write_text(json.dumps({"commands": manifest}))
    monkeypatch.setattr(run, "MANIFEST", str(path))
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "workload_commands", lambda name, seed: commands)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.benchmark("default-scope", 0, 0, trace)
    return rc, out.getvalue().splitlines()


def test_wrong_digest_counts_as_failure(monkeypatch, tmp_path):
    commands = [["stats", "15121"], ["check", "thm-enk-sum", "--n", "2"]]
    manifest = {"stats 15121": {"exit": 0, "sha256": "0" * 64}}
    rc, lines = _run_benchmark(monkeypatch, tmp_path, commands, manifest)
    assert rc == 0
    result = json.loads(lines[-1])
    assert result["attempted"] == 2 and result["failed"] == 1
    assert result["correct"] is False
    assert result["metrics"]["ok_frac"]["value"] == 0.5
    assert any("FAIL" in ln and "differs from the recorded digest" in ln
               for ln in lines)


def test_metric_names_match_benchmark_json(monkeypatch, tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    commands = [["check", "thm-enk-sum", "--n", "2"]]
    rc, lines = _run_benchmark(monkeypatch, tmp_path, commands, {})
    result = json.loads(lines[-1])
    assert rc == 0 and result["correct"] is True
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in spec["end_to_end"]}
    for m in spec["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0
    layer, _, _ = run.layer_metrics([], 1.0, 1.0)
    assert list(layer) == [m["name"] for m in spec["per_layer"]]
    for m in spec["per_layer"]:
        assert layer[m["name"]][1] == m["unit"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_refuses_a_tree_without_qtpark(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tables-n7",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
