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
from itertools import permutations
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import aggregate
from .checks import REGISTRY, SCOPES, CheckSpec, run_check, scope
from .kernels import encode_perm
from .paths import PrefFunc, StatBlock, json_blocks, json_line
from .schedules import RunDecomposition, insertion_order, maj
from .schedules import runs, schedule_closed_form, schedule_l
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
    tau = (None if args.diagword is None
           else runs(_parse_vector(args.diagword)).tau)
    scope("enumerate", (n, n), allow_large=args.allow_large,
          parking_only=args.parking_only, tau=tau, l=args.deviation,
          touch=args.touch)
    deviation = 0 if args.parking_only else args.deviation

    def keep(b: StatBlock) -> np.ndarray:
        mask = np.ones(len(b.index), dtype=bool)
        if deviation is not None:
            mask &= b.deviation == deviation
        if args.touch is not None:
            mask &= b.touch == args.touch
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


def _schedule_row(rd: RunDecomposition, l: int, w: Dict[int, int],
                  tau_maj: int) -> List[str]:
    """The schedule columns of (tau, l), given w = schedule_l(rd, l) and
    tau_maj = maj(rd.tau)."""
    tau = rd.tau
    return [
        _fmt_perm(tau),
        str(l),
        str(tau_maj),
        " ".join(str(v) for v in rd.rho),
        " ".join(str(w[c]) for c in insertion_order(rd, l)),
        " ".join(str(w[c]) for c in range(1, len(tau) + 1)),
        " ".join(str(w[c]) for c in tau),
    ]


def cmd_table(args: argparse.Namespace) -> int:
    # Refused before the header goes out: the sweeps below are generators.
    one = None if args.tau is None else runs(_parse_vector(args.tau))
    scope(f"table {args.kind}", None if args.n is None else (args.n, args.n),
          threads=args.threads, tau=None if one is None else one.tau)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    if args.kind == "schedules":
        writer.writerow(["tau", "l", "maj", "rho",
                         "w_insertion", "w_by_car", "w_by_tau"])
        for rd, l in _tau_l_sweep(args.n, one):
            writer.writerow(_schedule_row(rd, l, schedule_l(rd, l),
                                          maj(rd.tau)))
        return 0
    if args.kind == "polynomials":
        writer.writerow(["tau", "l", "maj", "rho",
                         "w_insertion", "w_by_car", "w_by_tau",
                         "closed_form", "brute_force", "match"])
        table = aggregate.qt_by_diagword(args.n, threads=args.threads or 1)
        for rd, l in _tau_l_sweep(args.n):
            w, tau_maj = schedule_l(rd, l), maj(rd.tau)
            closed = schedule_closed_form(rd, l, w, tau_maj)
            brute = aggregate.qt_poly_from_counts(
                table.counts_at(encode_perm(rd.tau, args.n), l))
            writer.writerow(_schedule_row(rd, l, w, tau_maj) + [
                str(closed), str(brute),
                "yes" if closed == brute else "no",
            ])
        return 0
    # enk; argparse admits no other kind
    writer.writerow(["n", "k", "expansion"])
    for k, piece in enumerate(e_nk(args.n), start=1):
        writer.writerow([str(args.n), str(k), piece.json()])
    return 0


def _tau_l_sweep(n: Optional[int], one: Optional[RunDecomposition] = None):
    """(run decomposition of tau, l) for every (tau, l) of size n, or of
    the one tau given; each tau is decomposed once."""
    for rd in ((runs(t) for t in permutations(range(1, n + 1)))
               if one is None else [one]):
        for l in range(len(rd)):
            yield rd, l


def _scope_help() -> str:
    lines = ["default n range and largest n of each id "
             "(--threads only where marked):"]
    for cid in sorted(REGISTRY):
        row = SCOPES[cid]
        lo, hi = row.default
        lines.append(f"  {cid:26} {lo}..{hi}, up to {row.cap}"
                     + (f" ({row.tau_cap} with --tau)" if row.tau_cap
                        else "")
                     + "".join(f", {opt} up to {most}"
                               for opt, most in row.limits.items())
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
    p_enum.add_argument("--parking-only", action="store_true")
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
    p_table.add_argument("--threads", type=int,
                         help="sweep workers (polynomials only)")
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
