"""Command-line front end: stats, enumerate, check, table.

Output on stdout is byte-identical across runs and thread counts; the
run-dependent figures of a check (wall time, thread count, peak RSS) go to
stderr as one JSON line.  Exit codes: 0 success, 1 a check found a
counterexample, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import resource
import sys
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import aggregate, kernels
from .checks import REGISTRY, SCOPES, CheckSpec, closed_form_report
from .checks import run_check, scope
from .kernels import require_perm
from .paths import PrefFunc, StatBlock, json_blocks, json_line
from .schedules import ScheduleCounts, schedule_counts
from .schedules import schedule_l_rows, tau_blocks
from .symfunc import e_nk


def _parse_vector(text: str) -> Tuple[int, ...]:
    text = text.strip()
    if not text:
        raise ValueError("empty vector")
    parts = text.split(",") if "," in text else list(text)
    try:
        values = tuple(int(p) for p in parts)
    except ValueError:
        raise ValueError(f"not a vector of integers: {text!r}")
    return values


def _parse_tau(text: str) -> Tuple[int, ...]:
    tau = _parse_vector(text)
    return require_perm(tau, len(tau))


def _fmt_perm(tau: Sequence[int]) -> str:
    if len(tau) <= 9:
        return "".join(str(v) for v in tau)
    return ",".join(str(v) for v in tau)


def _parse_nrange(text: str) -> Tuple[int, int]:
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(text)
    except ValueError:
        raise ValueError(f"bad n range {text!r}; expected N or LO..HI")
    return lo, hi


def cmd_stats(args: argparse.Namespace) -> int:
    p = PrefFunc(_parse_vector(args.vector))
    sys.stdout.write(json_line(p) + "\n")
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    n = args.n
    tau = None if args.diagword is None else _parse_tau(args.diagword)
    scope("enumerate", (n, n), allow_large=args.allow_large, tau=tau,
          l=args.deviation, touch=args.touch)

    def keep(b: StatBlock) -> np.ndarray:
        mask = np.ones(len(b.index), dtype=bool)
        if args.deviation is not None:
            mask &= b.records[kernels.DEV] == args.deviation
        if args.touch is not None:
            mask &= b.records[kernels.TOUCH] == args.touch
        return mask

    out = sys.stdout
    for text in json_blocks(n, keep, tau):
        out.write(text)
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    lo, hi = (None, None) if args.n is None else _parse_nrange(args.n)
    tau = None if args.tau is None else _parse_vector(args.tau)
    spec = CheckSpec(args.id, lo, hi, tau, args.l, max_part=args.max,
                     samples=args.samples, threads=args.threads)
    report = run_check(spec)
    sys.stdout.write(report.json() + "\n")
    # ru_maxrss is in KiB on Linux and in bytes on macOS.
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_mb = rss / 2 ** (20 if sys.platform == "darwin" else 10)
    sys.stderr.write(json.dumps({
        "id": report.id, "wall_s": round(report.wall_time, 3),
        "threads": spec.threads, "peak_rss_mb": round(rss_mb, 1),
    }, separators=(",", ":")) + "\n")
    return 0 if report.passed else 1


def _schedule_rows(n: int, tau: Optional[Tuple[int, ...]]
                   ) -> Iterator[Tuple[Tuple[int, ...], int, List[str]]]:
    """(tau, l, its schedule columns) of every (tau, l) of size n, or of
    the one tau given, in (tau, l) order.  Each block of taus makes one
    schedule_counts call, and a row's weights are read one l at a time."""
    for taus in tau_blocks(n, tau):
        sc = schedule_counts(taus)
        for t, *counts in zip(taus, *sc):
            row = ScheduleCounts(*counts)
            perm = tuple(t.tolist())
            # A run starts at each descent; the first j runs end at ends[j].
            starts = (np.flatnonzero(t[:-1] > t[1:]) + 1).tolist()
            ends = [0, *starts, n]
            nruns = len(ends) - 1
            text, tau_maj = _fmt_perm(perm), str(sum(starts))
            rho = " ".join(str(b - a) for a, b in zip(ends, ends[1:]))
            by_car = np.argsort(t).tolist()
            for l in range(nruns):
                w = list(map(str, schedule_l_rows(row, l).tolist()))
                # Insertion order: the first nruns - l runs right to left,
                # then the last l runs left to right.
                cut = ends[nruns - l]
                yield perm, l, [text, str(l), tau_maj, rho,
                                " ".join(w[:cut][::-1] + w[cut:]),
                                " ".join([w[p] for p in by_car]),
                                " ".join(w)]


def cmd_table(args: argparse.Namespace) -> int:
    # Refused before the header goes out: the rows below are generators.
    tau = None if args.tau is None else _parse_tau(args.tau)
    n, _ = scope(f"table {args.kind}",
                 None if args.n is None else (args.n, args.n), tau=tau)
    columns = ["tau", "l", "maj", "rho", "w_insertion", "w_by_car",
               "w_by_tau"]
    if args.kind == "schedules":
        # The bytes of csv.writer, which quotes only a field with a comma:
        # a tau of more than 9 cars.  Every other field is digits and
        # spaces.
        sys.stdout.write(",".join(columns) + "\n")
        for _, _, (text, *rest) in _schedule_rows(n, tau):
            if "," in text:
                text = f'"{text}"'
            sys.stdout.write(",".join([text, *rest]) + "\n")
        return 0
    writer = csv.writer(sys.stdout, lineterminator="\n")
    if args.kind == "polynomials":
        writer.writerow(columns + ["closed_form", "brute_force", "match"])
        table = aggregate.qt_by_diagword(n)
        for perm, l, row in _schedule_rows(n, None):
            report = closed_form_report(table, perm, l)
            closed, brute = report["closed_form"], report["brute_force"]
            writer.writerow(row + [closed, brute,
                                   "yes" if closed == brute else "no"])
        return 0
    # enk; argparse admits no other kind
    writer.writerow(["n", "k", "expansion"])
    for k, piece in enumerate(e_nk(n), start=1):
        writer.writerow([str(n), str(k), piece.json()])
    return 0


def _scope_help() -> str:
    lines = ["default n range and largest n of each id "
             "(--threads only where marked):"]
    for cid in sorted(REGISTRY):
        row = SCOPES[cid]
        lo, hi = row.default
        lines.append(f"  {cid:26} {lo}..{hi}, up to {row.cap}"
                     + (f" ({row.tau_cap} with --tau)" if row.tau_cap
                        else "")
                     + "".join(f", {opt} up to {accepted[-1]}"
                               for opt, accepted in row.limits.items())
                     + (" [--threads]" if row.sweeps else ""))
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtpark",
        description="q,t-enumeration of preference and parking functions")
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser(
        "stats", help="statistics of one preference function")
    p_stats.add_argument("vector",
                         help="comma-separated values, e.g. 1,5,1,2,1")
    p_stats.set_defaults(func=cmd_stats)

    p_enum = sub.add_parser(
        "enumerate", help="stream every function of size n as JSON lines")
    p_enum.add_argument("--n", type=int, required=True)
    p_enum.add_argument("--diagword", help="keep one diagonal word")
    p_enum.add_argument("--deviation", type=int)
    p_enum.add_argument("--touch", type=int)
    p_enum.add_argument("--allow-large", action="store_true",
                        help="permit n above "
                        f"{SCOPES['enumerate'].default[1]}")
    p_enum.set_defaults(func=cmd_enumerate)

    p_check = sub.add_parser(
        "check", help="run one registered identity check",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=_scope_help())
    p_check.add_argument("id", help=", ".join(sorted(REGISTRY)))
    p_check.add_argument("--n", help="N or LO..HI")
    p_check.add_argument("--tau")
    p_check.add_argument("--l", type=int)
    p_check.add_argument("--max", type=int,
                         help="box side for randomized partitions "
                         "(max_part in the report)")
    p_check.add_argument("--samples", type=int,
                         help="randomized partition count")
    p_check.add_argument("--threads", type=int,
                         help="sweep workers (only the ids that sweep n^n)")
    p_check.set_defaults(func=cmd_check)

    p_table = sub.add_parser("table", help="emit a CSV table")
    p_table.add_argument("kind", choices=["schedules", "polynomials", "enk"])
    p_table.add_argument("--tau")
    p_table.add_argument("--n", type=int)
    p_table.set_defaults(func=cmd_table)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
