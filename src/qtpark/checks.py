"""Registry of machine checks, one identity per registered id.

Each check compares a closed form or algebraic identity against brute
force at desk scale and reports the first counterexample it finds.  The
serialized report never includes the wall time (that goes to stderr in
the CLI) so command output stays byte-identical across runs.  SCOPES
holds the size rule of every CLI command, checks and tables alike.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from . import aggregate, kernels
from .paths import DEFAULT_MAX_N
from .qt import render
from .quasisym import closed_form_misses, factor_check, first_difference
from .quasisym import qsym_for_diagword, square_paths_sides
from .quasisym import withides_failures
from .schedules import PartitionBox, ScheduleCounts
from .schedules import delta_merge, pref_closed_form, runs, schedule0
from .schedules import schedule_counts, schedule_l, schedule_l_rows
from .schedules import tau_blocks
from .symfunc import DEGREE_BOUND, e_in_p, e_nk, hmz_check
from .symfunc import pn_identity_check


@dataclass(frozen=True)
class Scope:
    """The size rule of one command; ``scope`` applies it."""

    # The n range run when --n is absent (None: the command needs --n).  A
    # command that reads allow_large accepts n above it only with that.
    default: Optional[Tuple[int, int]]
    cap: int  # the largest n accepted
    # The options besides --n that set what the command covers, with their
    # defaults (--threads sets no scope).
    reads: Dict[str, object] = field(default_factory=dict)
    # The largest n with one --tau, if larger; a tau of a command that
    # sweeps must also keep its functions within kernels.MAX_FUNCTIONS.
    tau_cap: Optional[int] = None
    first_l: int = 0  # the smallest deviation l checked
    sweeps: bool = False  # sweeps n^n up to n = 8, where --threads pays
    limits: Dict[str, range] = field(default_factory=dict)  # option -> range


_TAU_L: Dict[str, object] = {"tau": None, "l": None}

# Each cap keeps one run within about a minute on 2 vCPUs (lemma-parlem
# took 65 s at n = 11 and thm-shift-multiset about 9 s at n = 10; at
# symfunc.DEGREE_BOUND, n = 12, thm-enk-sum took 0.6-0.8 s, table enk
# 0.7-0.8 s, thm-pn-identity 1.3-1.5 s and thm-hmz 4.5-5.2 s).  A full
# n^n table takes 2-4 s at n = 8 (SWEEP_CAP), and lemma-factorlemma decides
# its taus a permutation block at a time in 1-2 s more.  One --tau sweeps
# nothing: the kernel builds its functions from their row orders, so its
# cost follows their number, sum over l of prod_c w^(l)(c), and not n^n.
# kernels.MAX_N bounds n there, and kernels.MAX_FUNCTIONS that number (the
# identity tau has n! functions).  It also bounds the Young subgroup of
# tau's block mask, whose (inv, ides) counts lemma-factorlemma multiplies,
# prod over tau's blocks B of |B|!: at l = 0 the i-th car of a block of m
# weighs at least m - i + 1 and every car at least 1.  At the budget, the
# taus 8,2,4,6,7,9,11,12,5,10,3,1 and 14,3,10,1,8,5,15,4,11,12,2,6,7,9,13
# (1,036,800 functions each) took 0.6-0.8 s at 79-80 MB and 0.9-1.1 s at
# 64-65 MB in each of the three checks.  thm-shift-multiset and table
# schedules read one tau's schedules alone, from one schedule_counts call;
# SCHEDULE_TAU_CAP bounds n there.  At 2,000 cars thm-shift-multiset took
# 0.05-0.09 s, and table schedules --tau 0.9-1.0 s for a random tau and
# 1.6-1.7 s for the decreasing one, all but 0.05 s of it writing its n^2
# weights as text (50 MB).  A larger cap needs its own measurement: one
# command-line argument is limited to 128 KiB, about 21,000 cars.
# enumerate keeps the enumeration bound of paths.  lemma-parlem's random
# samples cost about max^2 each, so --max and --samples are capped too.
# Guards that protect data stay with the data: kernels.MAX_N and
# kernels.MAX_FUNCTIONS, the radix check in aggregate._fold, the radix
# check np.ravel_multi_index makes in quasisym._nonzero on the keys of the
# three table-backed tau checks, the int64 bound of
# quasisym.square_paths_sides, symfunc.DEGREE_BOUND.
SWEEP_CAP = 8
SCHEDULE_TAU_CAP = 2000
SCOPES: Dict[str, Scope] = {
    "thm-schedule-closed-form": Scope((1, 6), SWEEP_CAP, _TAU_L,
                                      tau_cap=kernels.MAX_N, sweeps=True),
    "thm-shift-multiset": Scope((1, 8), 10, _TAU_L,
                                tau_cap=SCHEDULE_TAU_CAP, first_l=1),
    "lemma-parlem": Scope((1, 6), 11, {"max_part": 12, "samples": 1000},
                          limits={"max_part": range(1, 401),
                                  "samples": range(10001)}),
    "lemma-factorlemma": Scope((1, 6), SWEEP_CAP, _TAU_L,
                               tau_cap=kernels.MAX_N, sweeps=True),
    "cor-withides": Scope((1, 6), SWEEP_CAP, {"tau": None},
                          tau_cap=kernels.MAX_N, sweeps=True),
    "thm-hmz": Scope((1, 6), DEGREE_BOUND),
    "thm-pn-identity": Scope((1, 6), DEGREE_BOUND),
    "thm-enk-sum": Scope((1, 6), DEGREE_BOUND),
    "main-square-paths": Scope((1, 6), SWEEP_CAP, sweeps=True),
    "enumerate": Scope((1, 7), DEFAULT_MAX_N,
                       {"allow_large": False, "tau": None, "l": None,
                        "touch": None}),
    "table schedules": Scope(None, 7, {"tau": None},
                             tau_cap=SCHEDULE_TAU_CAP),
    "table polynomials": Scope(None, 7),
    "table enk": Scope(None, DEGREE_BOUND),
}


def scope(command: str, n: Optional[Tuple[int, int]] = None,
          threads: Optional[int] = None,
          **options: object) -> Tuple[int, int]:
    """The n range ``command`` runs, once ``n``, ``threads`` and
    ``options`` (None: not given) pass its row of SCOPES; tau's own size
    for one --tau without --n where the row has no default.

    Raises ValueError for every input the row refuses, so callers refuse
    it before any output or sweep.
    """
    row = SCOPES[command]
    if threads is not None and not row.sweeps:
        raise ValueError(f"{command} sweeps nothing, so --threads does "
                         f"nothing")
    if threads is not None and threads < 1:
        raise ValueError("threads must be positive")
    given = {k: v for k, v in options.items() if v is not None}
    unread = sorted(given.keys() - row.reads.keys())
    if unread:
        raise ValueError(f"{command} does not read {', '.join(unread)}")
    for opt, accepted in row.limits.items():
        if opt in given and given[opt] not in accepted:
            raise ValueError(f"{command} accepts {opt} from {accepted[0]} "
                             f"to {accepted[-1]}, got {given[opt]}")
    tau, l = given.get("tau"), given.get("l")
    if n is None and row.default is None and tau is None:
        raise ValueError(f"{command} needs --n")
    lo, hi = n or row.default or (len(tau), len(tau))
    if not 1 <= lo <= hi:
        raise ValueError(f"bad n range {lo}..{hi}")
    cap = row.tau_cap if tau is not None and row.tau_cap else row.cap
    if hi > cap:
        raise ValueError(f"{command} accepts n up to {cap}, got {hi}")
    if ("allow_large" in row.reads and hi > row.default[1]
            and not options.get("allow_large")):
        raise ValueError(f"n above {row.default[1]} needs --allow-large")
    if tau is not None and not lo <= len(tau) <= hi:
        fix = (f", the default n range; give --n {len(tau)}"
               if n is None and len(tau) <= cap else "")
        raise ValueError(f"tau has {len(tau)} cars, outside {lo}..{hi}{fix}")
    if tau is not None and row.sweeps:
        size = tau_functions(tau)
        if size > kernels.MAX_FUNCTIONS:
            raise ValueError(f"tau has {size} functions, over the budget "
                             f"of {kernels.MAX_FUNCTIONS}")
    if "l" in row.reads:
        nruns = hi if tau is None else len(runs(tau))
        usable = range(row.first_l, nruns)
        if not usable or (l is not None and l not in usable):
            named = [] if tau is None else [f"tau {','.join(map(str, tau))}"]
            if l is not None:
                named.append(f"deviation l = {l}")
            wanted = " and ".join(named) or f"deviation l >= {row.first_l}"
            raise ValueError(f"no case in n range {lo}..{hi} can use {wanted}")
    if "touch" in given:
        # A tau fixes the touch to its last run length, and deviation l
        # leaves at most n - l cars on the lowest diagonal.
        if given["touch"] not in (range(1, hi + 1 - (l or 0)) if tau is None
                                  else [len(runs(tau)[-1])]):
            raise ValueError(f"no case of size {hi} with these filters has "
                             f"touch {given['touch']}")
    return lo, hi


def tau_functions(tau: Tuple[int, ...]) -> int:
    """The number of functions of diagword tau, sum over l of
    prod_c w^(l)(c): the closed form at q = t = 1, read only to scope a
    run."""
    return sum(math.prod(schedule_l(tau, l).values())
               for l in range(len(runs(tau))))


@dataclass(frozen=True)
class CheckSpec:
    """Parameters of one check run; an option left None takes the
    default of the id's row of SCOPES."""

    id: str
    n_lo: Optional[int] = None
    n_hi: Optional[int] = None
    tau: Optional[Tuple[int, ...]] = None
    l: Optional[int] = None
    max_part: Optional[int] = None
    samples: Optional[int] = None
    threads: Optional[int] = None  # only for the ids that sweep; default 1

    def __post_init__(self):
        if self.id not in REGISTRY:
            raise ValueError(f"unknown check id {self.id!r}; "
                             f"known: {', '.join(sorted(REGISTRY))}")
        if self.tau is not None:
            object.__setattr__(self, "tau",
                               kernels.require_perm(self.tau, len(self.tau)))
        lo, hi = SCOPES[self.id].default
        n = None if self.n_lo is None and self.n_hi is None else (
            lo if self.n_lo is None else self.n_lo,
            hi if self.n_hi is None else self.n_hi)
        lo, hi = scope(self.id, n,
                       threads=self.threads, tau=self.tau, l=self.l,
                       max_part=self.max_part, samples=self.samples)
        object.__setattr__(self, "n_lo", lo)
        object.__setattr__(self, "n_hi", hi)
        for opt, default in SCOPES[self.id].reads.items():
            if getattr(self, opt) is None:
                object.__setattr__(self, opt, default)
        if self.threads is None:
            object.__setattr__(self, "threads", 1)

    @property
    def n_range(self) -> range:
        return range(self.n_lo, self.n_hi + 1)


@dataclass
class CheckReport:
    """Outcome of one check run: it fails exactly when it carries a
    counterexample."""

    id: str
    parameters: Dict[str, object]
    counterexample: Optional[Dict[str, object]]
    wall_time: float
    examined: int

    @property
    def passed(self) -> bool:
        return self.counterexample is None

    def json(self) -> str:
        return json.dumps({
            "id": self.id,
            "parameters": self.parameters,
            "passed": self.passed,
            "counterexample": self.counterexample,
            "examined": self.examined,
        }, separators=(",", ":"), sort_keys=True)


# The first counterexample (None: every case holds) and the number of
# cases examined.
Outcome = Tuple[Optional[Dict[str, object]], int]


def _sizes(spec: CheckSpec) -> List[int]:
    """The n of the range that have cases: all of them, or the size of
    the one --tau."""
    return [n for n in spec.n_range if spec.tau is None or len(spec.tau) == n]


def _each_block(spec: CheckSpec,
                table: Optional[Callable[..., aggregate.Table]],
                decide: Callable[..., np.ndarray],
                report: Callable[..., Dict[str, object]]) -> Outcome:
    """Walk the (tau, l) cases of spec a permutation block at a time, in
    (n, tau, l) order.  table builds each n's one table (None: the check
    reads none); decide(table, taus, sc, ls) gives the block's (N,
    len(ls)) bool array, True where a case fails; report(table, tau, l)
    adds to the counterexample of the first failing case."""
    examined = 0
    for n in _sizes(spec):
        read = table and table(n, threads=spec.threads, tau=spec.tau)
        for taus in tau_blocks(n, spec.tau):
            sc = schedule_counts(taus)
            nruns = sc.from_last[:, 0] + 1
            ls = [l for l in range(SCOPES[spec.id].first_l, int(nruns.max()))
                  if spec.l in (None, l)]
            has = nruns[:, None] > np.array(ls)
            bad = decide(read, taus, sc, ls)
            rows = np.flatnonzero(bad.any(axis=1))
            if len(rows):
                r = int(rows[0])
                j = int(np.argmax(bad[r]))
                tau, l = tuple(taus[r].tolist()), ls[j]
                ce = {"n": n, "tau": list(tau), "l": l}
                ce.update(report(read, tau, l))
                return ce, examined + int(has[:r].sum()
                                          + has[r, :j + 1].sum())
            examined += int(has.sum())
    return None, examined


def closed_form_report(table: aggregate.Table, tau: Tuple[int, ...],
                       l: int) -> Dict[str, object]:
    """pref_closed_form(tau, l) and the table's brute-force sum of (tau,
    l), each rendered by qt.render, which is canonical: the two strings are
    equal exactly when the polynomials are."""
    where = table.rows(kernels.encode_perm(tau, len(tau)), l)
    area, dinv = (col[where].tolist() for col in table.columns[2:])
    terms = zip(zip(dinv, area), table.counts[where].tolist())
    return {"closed_form": str(pref_closed_form(tau, l)),
            "brute_force": render(sorted(terms))}


def _shift_multiset_misses(table: None, taus: np.ndarray, sc: ScheduleCounts,
                           ls: List[int]) -> np.ndarray:
    w0 = schedule_l_rows(sc, 0)
    rho0 = (sc.from_last == 0).sum(axis=1, dtype=w0.dtype)
    bad = np.zeros((len(taus), len(ls)), dtype=bool)
    for j, l in enumerate(ls):
        # {w^(l)} = {w^0} - {rho_0} + {rho_l}, with rho_0 added to both
        # sides; like the scalar shift_multiset this fails when w^0 has no
        # rho_0 to give up (unless rho_l = rho_0).
        rho_l = (sc.from_last == l).sum(axis=1, dtype=w0.dtype)
        lhs = np.column_stack([schedule_l_rows(sc, l), rho0])
        rhs = np.column_stack([w0, rho_l])
        lhs.sort(axis=1)
        rhs.sort(axis=1)
        bad[:, j] = (sc.from_last[:, 0] >= l) & (lhs != rhs).any(axis=1)
    return bad


def _parlem_cases(spec: CheckSpec):
    """Every partition in an a x b box whose larger side lies in the n
    range, then spec.samples random ones in a max_part x max_part box;
    the seed is fixed so repeated runs examine the same partitions."""
    for a in range(1, spec.n_hi + 1):
        for b in range(1, spec.n_hi + 1):
            if max(a, b) >= spec.n_lo:
                for asc in combinations_with_replacement(range(a + 1), b):
                    yield tuple(reversed(asc)), a, b
    m = spec.max_part
    rng = random.Random(20200521)
    for _ in range(spec.samples):
        yield tuple(sorted((rng.randint(0, m) for _ in range(m)),
                           reverse=True)), m, m


def _parlem_failure(case: Tuple[Tuple[int, ...], int, int]
                    ) -> Optional[Dict[str, object]]:
    lam, a, b = case
    lhs, rhs = delta_merge(PartitionBox(lam, a, b))
    if lhs != rhs:
        return {"lam": list(lam), "a": a, "b": b,
                "left": list(lhs), "right": list(rhs)}
    return None


def _run_withides(spec: CheckSpec) -> Outcome:
    # Each block of taus is decided at once in integer counts.  The sides
    # A [k]_q and B [n]_q are summed once per n, for the failing tau, to
    # report it, or for the last tau (n..1 when all are walked); either
    # way they must confirm its integer verdict, and the last of its
    # scalar runs its k.
    examined = 0
    for n in _sizes(spec):
        table = aggregate.qsym_by_diagword(n, threads=spec.threads,
                                           tau=spec.tau)
        for block in tau_blocks(n, spec.tau):
            ks = (schedule_counts(block).from_last == 0).sum(axis=1)
            bad = np.flatnonzero(withides_failures(table, block, ks))
            if len(bad):
                break
            examined += len(block)
        r = int(bad[0]) if len(bad) else len(block) - 1
        tau, k = tuple(block[r].tolist()), int(ks[r])
        last = len(runs(tau)[-1])
        if last != k:
            raise RuntimeError(f"n = {n}, tau = {tau}: the last run has "
                               f"length {last}, the batch gave {k}")
        diff = first_difference(n, (
            [(qsym_for_diagword(table, tau), (1,) * k)],
            [(qsym_for_diagword(table, tau, deviation=0), (1,) * n)]))
        if (diff is None) == bool(len(bad)):
            raise RuntimeError(f"n = {n}, tau = {tau}: the integer counts "
                               f"{'fail' if len(bad) else 'pass'} it, the "
                               f"summed sides do not")
        if diff is not None:
            return {"n": n, "tau": list(tau), "k": k, **diff}, examined + r + 1
    return None, examined


def _first_failure(cases: Iterable,
                   failure: Callable[..., Optional[Dict[str, object]]],
                   weight: Callable[..., int] = lambda case: 1) -> Outcome:
    """The counterexample failure(case) returns for the first of ``cases``
    that has one (None: the case holds); each case counts weight(case)
    toward examined, before it is decided."""
    examined = 0
    for case in cases:
        examined += weight(case)
        ce = failure(case)
        if ce is not None:
            return ce, examined
    return None, examined


def _enk_sum_failure(n: int) -> Optional[Dict[str, object]]:
    total = None
    for piece in e_nk(n):
        total = piece if total is None else total + piece
    if total != e_in_p(n):
        return {"n": n, "sum": total.json(), "e_n": e_in_p(n).json()}
    return None


def _square_paths_failure(n: int, threads: int
                          ) -> Optional[Dict[str, object]]:
    diff = first_difference(n, square_paths_sides(
        aggregate.qsym_by_touch(n, threads=threads), n))
    return None if diff is None else {"n": n, **diff}


REGISTRY: Dict[str, Callable[[CheckSpec], Outcome]] = {
    # The tables and predicates are looked up when a check runs, so a
    # rebinding of their names takes effect.
    "thm-schedule-closed-form": lambda spec: _each_block(
        spec, aggregate.qt_by_diagword, closed_form_misses,
        closed_form_report),
    "thm-shift-multiset": lambda spec: _each_block(
        spec, None, _shift_multiset_misses,
        lambda table, tau, l: {
            "schedule0": sorted(schedule0(tau)),
            "schedule_l": sorted(schedule_l(tau, l).values())}),
    "lemma-parlem": lambda spec: _first_failure(_parlem_cases(spec),
                                                _parlem_failure),
    "lemma-factorlemma": lambda spec: _each_block(
        spec, aggregate.qsym_by_diagword, factor_check,
        lambda table, tau, l: {}),
    "cor-withides": _run_withides,
    "thm-hmz": lambda spec: _first_failure(
        spec.n_range, lambda n: None if hmz_check(n) else {"n": n}),
    "thm-pn-identity": lambda spec: _first_failure(
        spec.n_range, lambda n: None if pn_identity_check(n) else {"n": n}),
    "thm-enk-sum": lambda spec: _first_failure(spec.n_range, _enk_sum_failure),
    "main-square-paths": lambda spec: _first_failure(
        spec.n_range, lambda n: _square_paths_failure(n, spec.threads),
        weight=lambda n: n ** n),
}


def run_check(spec: CheckSpec) -> CheckReport:
    runner = REGISTRY[spec.id]
    # Parameters describe the mathematical scope only.  Execution knobs
    # (thread count, like wall time) stay out so the serialized report is
    # byte-identical however the work was scheduled.
    params: Dict[str, object] = {"n": f"{spec.n_lo}..{spec.n_hi}"}
    for opt in SCOPES[spec.id].reads:
        if getattr(spec, opt) is not None:
            params[opt] = getattr(spec, opt)
    start = time.perf_counter()
    counterexample, examined = runner(spec)
    elapsed = time.perf_counter() - start
    return CheckReport(id=spec.id, parameters=params,
                       counterexample=counterexample, wall_time=elapsed,
                       examined=examined)
