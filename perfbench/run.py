"""End-to-end benchmark of the qtpark command line.

    python3 perfbench/run.py --workload sweep-n8 --seed 1 --seconds 10 \
        --trace 0

Runs a workload's fixed list of ``qtpark`` commands as a closed loop: one
client, one command at a time, each in a fresh interpreter that imports
``qtpark.cli`` and calls ``qtpark.cli.main(argv)`` (``perfbench/child.py``).
Tables are cached per process, so every command starts cold, as it does for
a user.  The list is repeated until ``--seconds`` have been measured; every
run makes at least one whole pass.  Each command's stdout is hashed as it
streams and checked against ``perfbench/expected.json``, recorded at the
commit that introduced the benchmark; a check command must also report
``"passed":true``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` adds one traced
pass, in which ``perfbench/tracer.py`` wraps qtpark's public functions from
outside, and prints the per-layer metrics.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.  Detail
(machine facts, every command, every span total) goes to
``.perfbench-out/``.  ``--record`` rewrites the expected-output manifest
from the current tree.  See ``perfbench/README.md`` for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
CHILD = os.path.join(HERE, "child.py")
MANIFEST = os.path.join(HERE, "expected.json")

THREADS = "2"
DEFAULT_SEED = 0      # the seed whose sweep-n8 output the manifest records
SETUP_PROBES = 3      # import-only processes per run, for a steady setup_s
RUN_LIMIT_S = 170.0   # a run, traced pass included, ends within this
TAIL_KEEP = 1 << 16   # stdout bytes kept to read a check's verdict


def sweep_tau(seed: int) -> str:
    return "".join(str(v) for v in random.Random(seed).sample(range(1, 9), 8))


def workload_commands(name: str, seed: int) -> List[List[str]]:
    """The command list of one workload; only sweep-n8 depends on the seed."""
    if name == "sweep-n8":
        return [["check", "thm-schedule-closed-form", "--n", "8",
                 "--tau", sweep_tau(seed), "--threads", THREADS]]
    if name == "tables-n7":
        return [["check", "cor-withides", "--n", "7", "--threads", THREADS],
                ["check", "main-square-paths", "--n", "7",
                 "--threads", THREADS]]
    if name == "default-scope":
        return [["check", "thm-hmz"],
                ["check", "thm-pn-identity"],
                ["check", "thm-enk-sum"],
                ["check", "thm-shift-multiset"],
                ["table", "enk", "--n", "6"],
                ["table", "polynomials", "--n", "6"],
                ["enumerate", "--n", "6"]]
    raise KeyError(name)


WORKLOADS = ("sweep-n8", "tables-n7", "default-scope")
CHECK_IDS = tuple(dict.fromkeys(
    argv[1] for w in WORKLOADS for argv in workload_commands(w, DEFAULT_SEED)
    if argv[0] == "check"))

# Layers that must record calls in the traced run of each workload.
EXPECTED_LAYERS = {
    "sweep-n8": ("kernels", "aggregate", "schedules", "qt", "checks"),
    "tables-n7": ("kernels", "aggregate", "quasisym", "qt", "schedules",
                  "checks"),
    "default-scope": ("kernels", "aggregate", "qt", "symfunc", "schedules",
                      "paths", "checks"),
}


# -- one command ------------------------------------------------------------

class DigestSink:
    """sha256 and length of a byte stream, keeping only its tail."""

    def __init__(self, keep: int = TAIL_KEEP):
        self._sha = hashlib.sha256()
        self._keep = keep
        self.nbytes = 0
        self.tail = b""

    def write(self, chunk: bytes) -> None:
        self._sha.update(chunk)
        self.nbytes += len(chunk)
        self.tail = (self.tail + chunk)[-self._keep:]

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


def command_key(argv: Sequence[str]) -> str:
    return " ".join(argv)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_command(argv: Sequence[str], tag: str, trace: bool,
                deadline: float) -> Dict[str, object]:
    """Run one command to completion; kill it at ``deadline`` (monotonic)."""
    report = os.path.join(OUT, tag + ".json")
    for stale in (report, report + ".npz"):
        if os.path.exists(stale):
            os.remove(stale)
    cmd = [sys.executable, CHILD, report, "1" if trace else "0", *argv]
    sink = DigestSink()
    with open(os.path.join(OUT, tag + ".stderr"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                env=child_env(), cwd=ROOT)
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0),
                                proc.kill)
        timer.start()
        try:
            fd = proc.stdout.fileno()
            while True:
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    break
                sink.write(chunk)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            proc.stdout.close()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - t0
    setup = None
    if os.path.exists(report):
        with open(report) as fh:
            setup = json.load(fh)["setup_s"]
    return {
        "argv": list(argv),
        "exit": proc.returncode,
        "wall_s": wall,
        "setup_s": setup,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "stdout_bytes": sink.nbytes,
        "sha256": sink.hexdigest(),
        "tail": sink.tail,
        "spans": report + ".npz" if trace else None,
    }


def verdict(tail: bytes) -> Optional[dict]:
    """The JSON report a check command printed last, if it parses."""
    lines = tail.rstrip(b"\n").rsplit(b"\n", 1)
    try:
        obj = json.loads(lines[-1])
    except ValueError:
        return None
    return obj if isinstance(obj, dict) else None


def judge(res: Dict[str, object], manifest: Dict[str, dict]) -> str:
    """'' when the command's output is correct, else the reason it is not."""
    argv = res["argv"]
    if res["exit"] < 0:
        return f"killed by signal {-res['exit']}"
    if res["exit"] != 0:
        return f"exit code {res['exit']}"
    if argv[0] == "check":
        report = verdict(res["tail"])
        if report is None or report.get("passed") is not True:
            return "check did not report passed:true"
        if report.get("id") != argv[1]:
            return f"report is for {report.get('id')!r}"
    expected = manifest.get(command_key(argv))
    if expected is not None:
        if expected["sha256"] != res["sha256"]:
            return "stdout differs from the recorded digest"
    elif argv[0] != "check":
        return "no recorded output to compare with"
    return ""


# -- measuring --------------------------------------------------------------

def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail_percentile(values: Sequence[float]) -> Optional[Tuple[int, float]]:
    """The highest of p99/p95/p90 with at least ten samples beyond it."""
    for p in (99, 95, 90):
        if len(values) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100)[p - 1]
    return None


def machine_facts(seed: int) -> Dict[str, object]:
    import numpy
    from qtpark import kernels
    try:
        backend = kernels.resolve_backend()
    except (RuntimeError, ValueError) as e:
        backend = f"error: {e}"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": bool(getattr(kernels, "HAS_NUMBA", False)),
        "backend": backend,
        "QTPARK_KERNEL": os.environ.get("QTPARK_KERNEL", "unset"),
        "seed": seed,
    }


def backend_parity(seed: int) -> str:
    """numba and numpy kernels agree bit for bit on one n = 8 block."""
    import numpy
    from qtpark import kernels
    if not getattr(kernels, "HAS_NUMBA", False):
        return "skipped: numba not importable"
    chunk = kernels.CHUNK
    start = random.Random(seed).randrange(8 ** 8 // chunk) * chunk
    a = kernels.stats_block(8, start, start + chunk, backend="numpy")
    b = kernels.stats_block(8, start, start + chunk, backend="numba")
    return "passed" if numpy.array_equal(a, b) else "FAILED"


def run_pass(commands, label: str, trace: bool, deadline: float):
    t0 = time.perf_counter()
    results = []
    for i, argv in enumerate(commands):
        results.append(run_command(argv, f"{label}-{i}", trace, deadline))
        if time.monotonic() >= deadline:
            break
    return time.perf_counter() - t0, results


# -- per-layer metrics from the traced pass --------------------------------

def _layer_calls(totals: Dict[str, Counter], layer: str) -> int:
    return sum(c for name, c in totals["calls"].items()
               if name.startswith(layer + "."))


def layer_metrics(traced: List[Dict[str, object]], wall_traced: float,
                  wall_untraced: float
                  ) -> Tuple[Dict[str, Tuple[float, str]], Dict[str, Counter],
                             List[str]]:
    """Per-layer metrics of the traced pass, span totals by name, and the
    wrapped functions this qtpark does not have."""
    import numpy as np
    import tracer
    totals = {k: Counter() for k in ("calls", "incl_s", "self_s", "count")}
    builds = 0
    assembly_s = 0.0
    root_self_s = 0.0
    check_s: Counter = Counter()
    examined: Counter = Counter()
    absent: set = set()
    for res in traced:
        argv = res["argv"]
        if argv[0] == "check":
            report = verdict(res["tail"]) or {}
            examined[argv[1]] += int(report.get("examined", 0))
        if not res["spans"] or not os.path.exists(res["spans"]):
            continue
        d = tracer.load_spans(res["spans"])
        os.remove(res["spans"])
        absent.update(d["absent"].tolist())
        names = d["names"]
        span_names = names[d["name"]]
        dur = (d["end"] - d["start"]) / 1e9
        own = d["self"] / 1e9
        for i, name in enumerate(names.tolist()):
            m = d["name"] == i
            if not m.any():
                continue
            totals["calls"][name] += int(m.sum())
            totals["incl_s"][name] += float(dur[m].sum())
            totals["self_s"][name] += float(own[m].sum())
            totals["count"][name] += int(d["count"][m].sum())
        is_agg = np.char.startswith(span_names, "aggregate.")
        builds += int((is_agg & (d["count"] > 0)).sum())
        parent_names = np.where(d["parent_row"] >= 0,
                                span_names[d["parent_row"]], "")
        from_quasisym = np.char.startswith(parent_names, "quasisym.")
        is_qt = np.char.startswith(span_names, "qt.")
        assembly_s += float(dur[is_qt & from_quasisym].sum())
        root_self_s += float(own[span_names == tracer.ROOT].sum())
        if argv[0] == "check":
            in_check = span_names == "checks.run_check"
            check_s[argv[1]] += float(dur[in_check].sum())

    calls, incl, own_s, count = (totals[k] for k in
                                 ("calls", "incl_s", "self_s", "count"))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    rows = count["kernels.stats_block"]
    busy = incl["kernels.stats_block"]
    agg = ("aggregate.qt_by_diagword", "aggregate.qsym_by_diagword",
           "aggregate.qsym_by_touch")
    agg_calls = sum(calls[n] for n in agg)
    lookups = ("quasisym.qsym_for_diagword", "quasisym.qsym_for_touch",
               "quasisym.qsym_total")
    m: Dict[str, Tuple[float, str]] = {
        "kernels.rows": (rows, "count"),
        "kernels.blocks": (calls["kernels.stats_block"], "count"),
        "kernels.busy_s": (busy, "s"),
        "kernels.rows_per_s": (ratio(rows, busy), "1/s"),
        "kernels.wait_s": (incl["kernels.iter_stat_chunks"], "s"),
        "kernels.bytes_out": (rows * 12 * 8, "B-computed"),
        "aggregate.calls": (agg_calls, "count"),
        "aggregate.builds": (builds, "count"),
        "aggregate.hit_ratio": (ratio(agg_calls - builds, agg_calls),
                                "ratio"),
        "aggregate.fold_s": (sum(own_s[n] for n in agg), "s"),
        "aggregate.table_entries": (sum(count[n] for n in agg), "count"),
        "quasisym.lookup_calls": (sum(calls[n] for n in lookups), "count"),
        "quasisym.lookup_s": (sum(own_s[n] for n in lookups), "s"),
        "quasisym.assembly_s": (assembly_s + own_s["quasisym.factor_check"],
                                "s"),
        "qt.mul_calls": (calls["qt.QTPoly.__mul__"], "count"),
        "qt.mul_s": (own_s["qt.QTPoly.__mul__"], "s"),
        "qt.add_calls": (calls["qt.QTPoly.__add__"], "count"),
        "qt.add_s": (own_s["qt.QTPoly.__add__"], "s"),
        "symfunc.e_nk_calls": (calls["symfunc.e_nk"], "count"),
        "symfunc.e_nk_s": (own_s["symfunc.e_nk"], "s"),
        "symfunc.c_op_calls": (calls["symfunc.c_op"], "count"),
        "symfunc.c_op_s": (own_s["symfunc.c_op"], "s"),
    }
    for fn in ("pref_closed_form", "pf_closed_form", "shift_multiset", "runs"):
        m[f"schedules.{fn}_calls"] = (calls[f"schedules.{fn}"], "count")
        m[f"schedules.{fn}_s"] = (own_s[f"schedules.{fn}"], "s")
    m["paths.stats_calls"] = (calls["paths.stats"], "count")
    m["paths.stats_s"] = (own_s["paths.stats"], "s")
    m["paths.functions_per_s"] = (ratio(calls["paths.stats"],
                                        own_s["paths.stats"]), "1/s")
    for cid in CHECK_IDS:
        m[f"checks.{cid}_s"] = (check_s[cid], "s")
        m[f"checks.{cid}_examined"] = (examined[cid], "count")
    m["cli.self_s"] = (root_self_s, "s")
    m["cli.stdout_bytes"] = (sum(r["stdout_bytes"] for r in traced), "B")
    m["process.cpu_s"] = (sum(r["cpu_s"] for r in traced), "s")
    m["trace.overhead_frac"] = (ratio(wall_traced, wall_untraced) - 1.0,
                                "ratio")
    return m, totals, sorted(absent)


# -- the run ------------------------------------------------------------------

def load_manifest() -> Dict[str, dict]:
    with open(MANIFEST) as fh:
        return json.load(fh)["commands"]


def benchmark(workload: str, seed: int, seconds: int, trace: bool) -> int:
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    manifest = load_manifest()
    facts = machine_facts(seed)
    parity = backend_parity(seed)
    commands = workload_commands(workload, seed)
    print("facts " + json.dumps(facts, sort_keys=True))
    print(f"backend parity: {parity}")

    setups = []
    for i in range(SETUP_PROBES):
        probe = run_command([], f"probe-{i}", False, deadline)
        if probe["exit"] != 0 or probe["setup_s"] is None:
            sys.stderr.write(f"error: importing qtpark.cli failed "
                             f"(exit {probe['exit']})\n")
            return 1
        setups.append(probe["setup_s"])

    measure_start = time.monotonic()
    passes: List[Tuple[float, list]] = []
    while True:
        passes.append(run_pass(commands, f"pass{len(passes)}", False,
                               deadline))
        elapsed = time.monotonic() - measure_start
        last = passes[-1][0]
        # Leave room for one more pass and, when tracing, for the traced
        # pass, which takes up to about twice as long.
        reserve = last * (3 if trace else 1)
        if (elapsed >= seconds or time.monotonic() + reserve > deadline
                or len(passes[-1][1]) < len(commands)):
            break

    traced: list = []
    wall_traced = 0.0
    if trace:
        wall_traced, traced = run_pass(commands, "traced", True, deadline)

    everything = [r for _, rs in passes for r in rs] + traced
    failed = 0
    for r in everything:
        r["problem"] = judge(r, manifest)
        failed += bool(r["problem"])
        print(f"  {'FAIL' if r['problem'] else 'ok  '} "
              f"{'traced ' if r['spans'] else ''}{command_key(r['argv'])}: "
              f"wall {r['wall_s']:.3f}s setup {r['setup_s'] or 0:.3f}s "
              f"rss {r['peak_rss_mb']:.0f}MB {r['problem']}")
    attempted = len(commands) * len(passes) + (len(commands) if trace else 0)
    failed += attempted - len(everything)  # commands cut off by the deadline

    walls = [w for w, _ in passes]
    q1, med, q3 = quartiles(walls)
    tail = tail_percentile(walls)
    setups += [r["setup_s"] for _, rs in passes for r in rs
               if r["setup_s"] is not None]
    rss = [max(r["peak_rss_mb"] for r in rs) for _, rs in passes]
    print(f"wall_s median {med:.3f} q1 {q1:.3f} q3 {q3:.3f} n {len(walls)}; "
          + (f"p{tail[0]} {tail[1]:.3f}" if tail else
             "no tail percentile (fewer than ten samples beyond p90)"))
    print(f"fail_frac {failed}/{attempted}")

    metrics: Dict[str, Tuple[float, str]]
    detail: Dict[str, object] = {}
    if trace:
        metrics, totals, absent = layer_metrics(traced, wall_traced, med)
        detail.update(span_totals=totals, absent=absent)
        print("aggregate.hit_ratio base: "
              f"{metrics['aggregate.calls'][0]} calls")
        print("absent wrapped functions: " + (", ".join(absent) or "none"))
        missing = [layer for layer in EXPECTED_LAYERS[workload]
                   if not _layer_calls(totals, layer)]
        if missing:
            sys.stderr.write("error: traced run recorded no calls in "
                             f"layer(s) {', '.join(missing)}\n")
            return 1
    else:
        metrics = {
            "wall_s": (med, "s"),
            "setup_s": (statistics.median(setups) * len(commands), "s"),
            "peak_rss_mb": (statistics.median(rss), "MB"),
            "ok_frac": ((attempted - failed) / attempted, "ratio"),
        }
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value} {unit}")

    correct = failed == 0 and parity != "FAILED"
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    detail.update(workload=workload, seed=seed, seconds=seconds, trace=trace,
                  facts=facts, parity=parity, setup_probes=setups,
                  pass_walls=walls, wall_traced=wall_traced, result=result,
                  commands=[{k: v for k, v in r.items() if k != "tail"}
                            for r in everything])
    with open(os.path.join(
            OUT, f"result-{workload}-seed{seed}-trace{int(trace)}.json"),
            "w") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True, default=str)
    print(json.dumps(result))
    return 0


def record() -> int:
    """Rewrite the manifest from one pass of every workload at DEFAULT_SEED."""
    out = {}
    deadline = time.monotonic() + 3600
    for name in WORKLOADS:
        for i, argv in enumerate(workload_commands(name, DEFAULT_SEED)):
            res = run_command(argv, f"record-{i}", False, deadline)
            if res["exit"] != 0:
                sys.stderr.write(f"error: {command_key(argv)} exited "
                                 f"{res['exit']}\n")
                return 1
            out[command_key(argv)] = {"exit": res["exit"],
                                      "sha256": res["sha256"],
                                      "bytes": res["stdout_bytes"]}
    with open(MANIFEST, "w") as fh:
        json.dump({"commands": out}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="rewrite perfbench/expected.json from this tree")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qtpark", "cli.py")):
        sys.stderr.write(f"error: no qtpark sources under {SRC}\n")
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    if args.record:
        return record()
    if args.workload is None:
        ap.error("--workload is required")
    return benchmark(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
