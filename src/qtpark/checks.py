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
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import aggregate, kernels
from .paths import DEFAULT_MAX_N
from .quasisym import factor_check, first_difference, qsym_for_diagword
from .quasisym import rows_of, shifted_sums, square_paths_sides
from .quasisym import withides_failures
from .schedules import PartitionBox, ScheduleCounts, closed_form_rows
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
    # sweeps must also keep its functions within TAU_ROW_BUDGET.
    tau_cap: Optional[int] = None
    first_l: int = 0  # the smallest deviation l checked
    sweeps: bool = False  # builds an n^n table, so --threads means something
    limits: Dict[str, int] = field(default_factory=dict)  # option -> largest


_TAU_L: Dict[str, object] = {"tau": None, "l": None}

# Each cap keeps one run within about a minute on 2 vCPUs (lemma-parlem
# took 65 s at n = 11 and thm-shift-multiset about 9 s at n = 10; at
# symfunc.DEGREE_BOUND, n = 12, thm-enk-sum took 3.4-4.0 s, table enk
# 4.5-4.8 s, thm-pn-identity 5.0-6.3 s and thm-hmz 6.2-6.3 s).  A full
# n^n table takes 2-4 s at n = 8 (SWEEP_CAP), and lemma-factorlemma decides
# its taus a permutation block at a time in 1-2 s more.  One --tau sweeps
# nothing: the kernel builds its functions from their row orders, so its
# cost follows their number, sum over l of prod_c w^(l)(c), and not n^n.
# TAU_CAP bounds n there, and TAU_ROW_BUDGET that number (the identity
# tau has n! functions).  It also bounds the Young subgroup of tau's block
# mask, whose (inv, ides) counts lemma-factorlemma multiplies, prod over
# tau's blocks B of |B|!: at l = 0 the i-th car of a block of m weighs at
# least m - i + 1 and every car at least 1.  At the budget, the n = 12 tau
# 8,2,4,6,7,9,11,12,5,10,3,1 (1,036,800 functions) took 1.4-1.8 s and
# 78-81 MB in each of the three checks.  thm-shift-multiset and table
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
# check np.ravel_multi_index makes on the keys of the three table-backed
# tau checks, the int64 bound of quasisym.square_paths_sides,
# symfunc.DEGREE_BOUND.
SWEEP_CAP = 8
TAU_CAP = 12
SCHEDULE_TAU_CAP = 2000
TAU_ROW_BUDGET = 1 << 20
SCOPES: Dict[str, Scope] = {
    "thm-schedule-closed-form": Scope((1, 6), SWEEP_CAP, _TAU_L,
                                      tau_cap=TAU_CAP, sweeps=True),
    "thm-shift-multiset": Scope((1, 8), 10, _TAU_L,
                                tau_cap=SCHEDULE_TAU_CAP, first_l=1),
    "lemma-parlem": Scope((1, 6), 11, {"max_part": 12, "samples": 1000},
                          limits={"max_part": 400, "samples": 10000}),
    "lemma-factorlemma": Scope((1, 6), SWEEP_CAP, _TAU_L,
                               tau_cap=TAU_CAP, sweeps=True),
    "cor-withides": Scope((1, 6), SWEEP_CAP, {"tau": None},
                          tau_cap=TAU_CAP, sweeps=True),
    "thm-hmz": Scope((1, 6), DEGREE_BOUND),
    "thm-pn-identity": Scope((1, 6), DEGREE_BOUND),
    "thm-enk-sum": Scope((1, 6), DEGREE_BOUND),
    "main-square-paths": Scope((1, 6), SWEEP_CAP, sweeps=True),
    "enumerate": Scope((1, 7), DEFAULT_MAX_N,
                       {"allow_large": False, "parking_only": False,
                        "tau": None, "l": None, "touch": None}),
    "table schedules": Scope(None, 7, {"tau": None},
                             tau_cap=SCHEDULE_TAU_CAP),
    "table polynomials": Scope(None, 7, sweeps=True),
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
    for opt, most in row.limits.items():
        if given.get(opt, 0) > most:
            raise ValueError(f"{command} accepts {opt} up to {most}, "
                             f"got {given[opt]}")
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
    if given.get("parking_only"):  # the parking functions: deviation 0
        if l not in (None, 0):
            raise ValueError(f"parking functions have deviation 0, not {l}")
        l = 0
    if tau is not None and not lo <= len(tau) <= hi:
        raise ValueError(f"tau has {len(tau)} cars, outside {lo}..{hi}")
    if tau is not None and row.sweeps:
        size = tau_functions(tau)
        if size > TAU_ROW_BUDGET:
            raise ValueError(f"tau has {size} functions, over the budget "
                             f"of {TAU_ROW_BUDGET}")
    if "l" in row.reads and (tau is not None or l is not None):
        # A tau has one run more than it has descents.
        nruns = hi if tau is None else 1 + sum(
            a > b for a, b in zip(tau, tau[1:]))
        usable = range(row.first_l, nruns)
        if not usable or (l is not None and l not in usable):
            raise ValueError(f"no case in n range {lo}..{hi} can use "
                             f"this tau and deviation l")
    if "touch" in given:
        # A tau fixes the touch to its last run length, and deviation l
        # leaves at most n - l cars on the lowest diagonal.
        if given["touch"] not in (range(1, hi + 1 - (l or 0)) if tau is None
                                  else [runs(tau).last_run_length]):
            raise ValueError(f"no case of size {hi} with these filters has "
                             f"touch {given['touch']}")
    return lo, hi


def tau_functions(tau: Tuple[int, ...]) -> int:
    """The number of functions of diagword tau, sum over l of
    prod_c w^(l)(c): the closed form at q = t = 1, read only to scope a
    run."""
    rd = runs(tau)
    return sum(math.prod(schedule_l(rd, l).values()) for l in range(len(rd)))


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
            object.__setattr__(self, "tau", runs(self.tau).tau)
        lo, hi = SCOPES[self.id].default
        lo, hi = scope(self.id, (lo if self.n_lo is None else self.n_lo,
                                 hi if self.n_hi is None else self.n_hi),
                       threads=self.threads, tau=self.tau, l=self.l,
                       max_part=self.max_part, samples=self.samples)
        object.__setattr__(self, "n_lo", lo)
        object.__setattr__(self, "n_hi", hi)
        for opt, default in SCOPES[self.id].reads.items():
            if getattr(self, opt) is None:
                object.__setattr__(self, opt, default)
        if self.threads is None:
            object.__setattr__(self, "threads", 1)
        if ((self.samples is not None and self.samples < 0)
                or (self.max_part is not None and self.max_part < 1)):
            raise ValueError("bad sampling parameters")

    @property
    def n_range(self) -> range:
        return range(self.n_lo, self.n_hi + 1)


@dataclass
class CheckReport:
    """Outcome of one check run; fail carries a counterexample."""

    id: str
    parameters: Dict[str, object]
    passed: bool
    counterexample: Optional[Dict[str, object]]
    wall_time: float
    examined: int

    def __post_init__(self):
        if not self.passed and self.counterexample is None:
            raise ValueError("a failing report must carry a counterexample")

    def json(self) -> str:
        return json.dumps({
            "id": self.id,
            "parameters": self.parameters,
            "passed": self.passed,
            "counterexample": self.counterexample,
            "examined": self.examined,
        }, separators=(",", ":"), sort_keys=True)


Outcome = Tuple[bool, Optional[Dict[str, object]], int]


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
                return False, ce, examined + int(has[:r].sum()
                                                 + has[r, :j + 1].sum())
            examined += int(has.sum())
    return True, None, examined


def _closed_form_misses(table: aggregate.Table, taus: np.ndarray,
                        sc: ScheduleCounts, ls: List[int]) -> np.ndarray:
    """Where pref_closed_form misses a case: each table row of tau adds
    its count at (tau, l, area, dinv), each closed-form term takes its c_i
    away, and a case misses where a sum is nonzero.  A weight below 1 gives
    no terms ([0]_q = 0), so it misses against the case's table rows."""
    nt, n = taus.shape
    tau_of, row = rows_of(table, taus)
    digits = (tau_of, *(col[row] for col in table.columns[1:]))
    *terms, c = closed_form_rows(taus, sc, ls)
    # Keys over (tau, l, area, dinv) with factor_check's dinv radix, wide
    # enough that a weight planted too large fails rather than raise.
    radices = (nt, n, n * n + 1, n * n + n * (n - 1) // 2 + 1)
    keys, sums = kernels.sum_by_key([
        (np.ravel_multi_index(digits, radices), table.counts[row]),
        (np.ravel_multi_index(terms, radices), -c)])
    bad = np.zeros((nt, n), dtype=bool)
    bad[np.unravel_index(keys[sums != 0], radices)[:2]] = True
    return bad[:, ls]


def closed_form_report(table: aggregate.Table, tau: Tuple[int, ...],
                       l: int) -> Dict[str, object]:
    """pref_closed_form(tau, l) and the table's brute-force sum of (tau,
    l), each rendered by qt.render, which is canonical: the two strings are
    equal exactly when the polynomials are."""
    return {"closed_form": str(pref_closed_form(tau, l)),
            "brute_force": str(aggregate.qt_poly_from_counts(table.counts_at(
                kernels.encode_perm(tau, len(tau)), l)))}


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


def _run_parlem(spec: CheckSpec) -> Outcome:
    examined = 0
    for lam, a, b in _parlem_cases(spec):
        examined += 1
        lhs, rhs = delta_merge(PartitionBox(lam, a, b))
        if lhs != rhs:
            return False, {
                "lam": list(lam), "a": a, "b": b,
                "left": list(lhs), "right": list(rhs),
            }, examined
    return True, None, examined


def _run_withides(spec: CheckSpec) -> Outcome:
    # Each block of taus is decided at once in integer counts.  The sides
    # A [k]_q and B [n]_q are summed once per n, for the failing tau, to
    # report it, or for the last tau (n..1 when all are walked), whose
    # integer verdict they must confirm, with its k checked against the
    # scalar run decomposition.
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
        if not len(bad) and runs(tau).last_run_length != k:
            raise RuntimeError(f"n = {n}, tau = {tau}: the last run has "
                               f"length {runs(tau).last_run_length}, the "
                               f"batch gave {k}")
        keys, (lhs, rhs) = shifted_sums((
            [(qsym_for_diagword(table, tau), (1,) * k)],
            [(qsym_for_diagword(table, tau, deviation=0), (1,) * n)]))
        if len(bad):
            ce = {"n": n, "tau": list(tau), "k": k}
            ce.update(first_difference(n, keys, lhs, rhs,
                                       f"n = {n}, tau = {tau}"))
            return False, ce, examined + r + 1
        if (lhs != rhs).any():
            raise RuntimeError(f"n = {n}, tau = {tau}: the sides differ "
                               f"where the integer counts agree")
    return True, None, examined


def _each_n(spec: CheckSpec,
            failure: Callable[[int], Optional[Dict[str, object]]],
            cases: Callable[[int], int] = lambda n: 1) -> Outcome:
    """The counterexample failure(n) returns for the first n of the range
    that has one (None: n holds); each n examines cases(n) cases."""
    examined = 0
    for n in spec.n_range:
        examined += cases(n)
        ce = failure(n)
        if ce is not None:
            return False, ce, examined
    return True, None, examined


def _enk_sum_failure(n: int) -> Optional[Dict[str, object]]:
    total = None
    for piece in e_nk(n):
        total = piece if total is None else total + piece
    if total != e_in_p(n):
        return {"n": n, "sum": total.json(), "e_n": e_in_p(n).json()}
    return None


def _square_paths_failure(n: int, threads: int
                          ) -> Optional[Dict[str, object]]:
    # One sum of both sides decides n and reports its failure.
    keys, (lhs, rhs) = shifted_sums(square_paths_sides(
        aggregate.qsym_by_touch(n, threads=threads), n))
    if np.array_equal(lhs, rhs):
        return None
    return {"n": n, **first_difference(n, keys, lhs, rhs, f"n = {n}")}


REGISTRY: Dict[str, Callable[[CheckSpec], Outcome]] = {
    # The tables and predicates are looked up when a check runs, so a
    # rebinding of their names takes effect.
    "thm-schedule-closed-form": lambda spec: _each_block(
        spec, aggregate.qt_by_diagword, _closed_form_misses,
        closed_form_report),
    "thm-shift-multiset": lambda spec: _each_block(
        spec, None, _shift_multiset_misses,
        lambda table, tau, l: {
            "schedule0": sorted(schedule0(tau)),
            "schedule_l": sorted(schedule_l(tau, l).values())}),
    "lemma-parlem": _run_parlem,
    "lemma-factorlemma": lambda spec: _each_block(
        spec, aggregate.qsym_by_diagword, factor_check,
        lambda table, tau, l: {}),
    "cor-withides": _run_withides,
    "thm-hmz": lambda spec: _each_n(
        spec, lambda n: None if hmz_check(n) else {"n": n}),
    "thm-pn-identity": lambda spec: _each_n(
        spec, lambda n: None if pn_identity_check(n) else {"n": n}),
    "thm-enk-sum": lambda spec: _each_n(spec, _enk_sum_failure),
    "main-square-paths": lambda spec: _each_n(
        spec, lambda n: _square_paths_failure(n, spec.threads),
        cases=lambda n: n ** n),
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
    passed, counterexample, examined = runner(spec)
    elapsed = time.perf_counter() - start
    return CheckReport(id=spec.id, parameters=params, passed=passed,
                       counterexample=counterexample, wall_time=elapsed,
                       examined=examined)
