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
from itertools import chain, combinations_with_replacement
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from . import aggregate
from .paths import DEFAULT_MAX_N
from .qt import q_int, q_int_product, q_poly, square_paths_multipliers
from .quasisym import QSymF, factor_check
from .quasisym import qsym_for_diagword, qsym_for_touch
from .quasisym import qsym_total, square_paths_residue, withides_failures
from .schedules import PartitionBox, ScheduleCounts, delta_merge
from .schedules import permutation_blocks, pf_closed_form, pref_closed_form
from .schedules import runs, schedule0, schedule0_rows, schedule_counts
from .schedules import schedule_l, schedule_l_rows
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
    per_tau: bool = False  # the cap bounds an n! walk that one tau replaces
    # The largest n with one --tau, if larger; such a tau must also keep
    # its functions within TAU_ROW_BUDGET.
    tau_cap: Optional[int] = None
    first_l: int = 0  # the smallest deviation l checked
    sweeps: bool = False  # builds an n^n table, so --threads means something
    limits: Dict[str, int] = field(default_factory=dict)  # option -> largest


_TAU_L: Dict[str, object] = {"tau": None, "l": None}

# Each cap keeps one run within about a minute on 2 vCPUs (lemma-parlem
# took 65 s at n = 11 and thm-shift-multiset about 9 s at n = 10; at
# symfunc.DEGREE_BOUND, n = 12, thm-enk-sum took 3.4-4.0 s, table enk
# 4.5-4.8 s, thm-pn-identity 5.0-6.3 s and thm-hmz 6.2-6.3 s).  A full
# n^n table takes 2-4 s at n = 8 (SWEEP_CAP).  One --tau sweeps nothing:
# the kernel builds its functions from their row orders, so its cost
# follows their number, sum over l of prod_c w^(l)(c), and not n^n.
# TAU_CAP bounds n there, and TAU_ROW_BUDGET that number (the identity
# tau has n! functions).  It also bounds the Young subgroup whose (inv,
# ides) counts lemma-factorlemma multiplies, prod over tau's blocks b of
# |b|!: at l = 0 the i-th car of a block of m weighs at least m - i + 1
# and every car at least 1.  At the budget, the n = 12 tau
# 8,2,4,6,7,9,11,12,5,10,3,1 (1,036,800 functions) took 1.4-1.8 s and
# 78-81 MB in each of the three checks.  enumerate keeps the
# enumeration bound of paths.  lemma-parlem's random samples cost about
# max^2 each, so --max and --samples are capped too.  Guards that protect
# data stay with the data: kernels.MAX_N and kernels.MAX_FUNCTIONS, the
# radix check in aggregate._fold, np.ravel_multi_index's radix check on
# the keys of quasisym.withides_failures, factor_check and
# square_paths_residue, symfunc.DEGREE_BOUND.
SWEEP_CAP = 8
TAU_CAP = 12
TAU_ROW_BUDGET = 1 << 20
SCOPES: Dict[str, Scope] = {
    "thm-schedule-closed-form": Scope((1, 6), SWEEP_CAP, _TAU_L,
                                      tau_cap=TAU_CAP, sweeps=True),
    "thm-shift-multiset": Scope((1, 8), 10, _TAU_L, per_tau=True, first_l=1),
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
    "table schedules": Scope(None, 7, {"tau": None}, per_tau=True),
    "table polynomials": Scope(None, 7, sweeps=True),
    "table enk": Scope(None, DEGREE_BOUND),
}


def scope(command: str, n: Optional[Tuple[int, int]] = None,
          threads: Optional[int] = None,
          **options: object) -> Optional[Tuple[int, int]]:
    """The n range ``command`` runs, once ``n``, ``threads`` and
    ``options`` (None: not given) pass its row of SCOPES; None for one
    --tau alone.

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
    uncapped = row.per_tau and tau is not None
    if n is None and row.default is None:
        if uncapped:
            return None
        raise ValueError(f"{command} needs --n")
    lo, hi = n or row.default
    if not 1 <= lo <= hi:
        raise ValueError(f"bad n range {lo}..{hi}")
    cap = row.tau_cap if tau is not None and row.tau_cap else row.cap
    if hi > cap and not uncapped:
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
    if tau is not None and row.tau_cap:
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


def _ls(spec: CheckSpec, nruns: int):
    ls = range(SCOPES[spec.id].first_l, nruns)
    return ls if spec.l is None else [l for l in ls if l == spec.l]


def _tau_blocks(spec: CheckSpec, n: int) -> Iterable[np.ndarray]:
    """The taus of size n as blocks of rows, in permutation order: the one
    --tau, or all n! in blocks of (n-1)! that share their first car."""
    if spec.tau is None:
        return permutation_blocks(n)
    return [np.array([spec.tau])]


def _cases(spec: CheckSpec, sc: ScheduleCounts) -> Tuple[List[int], np.ndarray]:
    """The deviations l checked in a block, and which rows have each."""
    nruns = sc.from_last[:, 0] + 1
    ls = list(_ls(spec, int(nruns.max())))
    return ls, nruns[:, None] > np.array(ls, dtype=int)


def _first_failure(bad: np.ndarray, has: np.ndarray
                   ) -> Optional[Tuple[int, int, int]]:
    """Row and column of a block's first failing case in (tau, l) order,
    and how many cases the block examines up to and including it."""
    rows = np.flatnonzero(bad.any(axis=1))
    if not len(rows):
        return None
    r = int(rows[0])
    j = int(np.argmax(bad[r]))
    return r, j, int(has[:r].sum() + has[r, :j + 1].sum())


def _run_schedule_closed_form(spec: CheckSpec) -> Outcome:
    # t^maj q^shift prod [w]_q has one power of t, so each case's table
    # rows are compared in integers with the coefficients of prod [w]_q,
    # which depend only on the sorted weights.
    examined = 0
    for n in _sizes(spec):
        table = aggregate.qt_by_diagword(n, threads=spec.threads,
                                         tau=spec.tau)
        _, _, area, dinv = table.columns
        for block in _tau_blocks(spec, n):
            sc = schedule_counts(block)
            ls, has = _cases(spec, sc)
            codes = np.ravel_multi_index((block - 1).T, (n,) * n)
            majs = (block[:, :-1] > block[:, 1:]) @ np.arange(1, n)

            def misses(l, rows, w, shifts):
                """Whether each row's table rows at l differ from
                t^maj q^(shift + i) c_i, for the coefficients c_i of
                prod [w]_q.  A weight below 1 misses: [0]_q = 0 matches
                no key."""
                weights = np.sort(w[rows], axis=1)
                coeffs = [q_int_product(ws) if ws[0] > 0 else ()
                          for ws in map(tuple, weights.tolist())]
                size = np.array(list(map(len, coeffs)))
                lo, hi = table.span(codes[rows], l)
                # One entry per power of q of each case; a case whose key
                # has another number of rows misses whatever they read.
                first = np.cumsum(size) - size
                case = np.repeat(np.arange(len(rows)), size)
                i = np.arange(len(case)) - first[case]
                at = np.minimum(lo[case] + i, len(table.counts) - 1)
                differ = ((area[at] != majs[rows][case])
                          | (dinv[at] != shifts[case] + i)
                          | (table.counts[at] != np.fromiter(
                              chain.from_iterable(coeffs), np.int64)))
                return ((weights[:, 0] < 1) | (hi - lo != size)
                        | (np.bincount(case[differ], minlength=len(rows)) > 0))

            # Cases pref_closed_form misses, and pf_closed_form (l = 0).
            bad, bad_pf = np.zeros_like(has), np.zeros_like(has)
            for j, l in enumerate(ls):
                rows = np.flatnonzero(has[:, j])
                shifts = (sc.from_last[rows] < l).sum(axis=1)
                bad[rows, j] = misses(l, rows, schedule_l_rows(sc, l), shifts)
                if l == 0:
                    bad_pf[rows, j] = misses(0, rows, schedule0_rows(sc),
                                             shifts)
            hit = _first_failure(bad | bad_pf, has)
            if hit is not None:
                r, j, before = hit
                tau, l = tuple(block[r].tolist()), ls[j]
                closed = (pref_closed_form(tau, l) if bad[r, j]
                          else pf_closed_form(tau))
                return False, {
                    "n": n, "tau": list(tau), "l": l,
                    "closed_form": str(closed),
                    "brute_force": str(aggregate.qt_poly_from_counts(
                        table.counts_at(int(codes[r]), l))),
                }, examined + before
            examined += int(has.sum())
    return True, None, examined


def _run_shift_multiset(spec: CheckSpec) -> Outcome:
    examined = 0
    for n in _sizes(spec):
        for block in _tau_blocks(spec, n):
            sc = schedule_counts(block)
            ls, has = _cases(spec, sc)
            w0 = schedule0_rows(sc)
            rho0 = (sc.from_last == 0).sum(axis=1, dtype=w0.dtype)
            bad = np.zeros_like(has)
            for j, l in enumerate(ls):
                # {w^(l)} = {w^0} - {rho_0} + {rho_l}, with rho_0 added to
                # both sides; like the scalar shift_multiset this fails
                # when w^0 has no rho_0 to give up (unless rho_l = rho_0).
                rho_l = (sc.from_last == l).sum(axis=1, dtype=w0.dtype)
                lhs = np.column_stack([schedule_l_rows(sc, l), rho0])
                rhs = np.column_stack([w0, rho_l])
                lhs.sort(axis=1)
                rhs.sort(axis=1)
                bad[:, j] = has[:, j] & (lhs != rhs).any(axis=1)
            hit = _first_failure(bad, has)
            if hit is not None:
                r, j, before = hit
                tau, l = tuple(block[r].tolist()), ls[j]
                return False, {
                    "n": n, "tau": list(tau), "l": l,
                    "schedule0": sorted(schedule0(tau)),
                    "schedule_l": sorted(schedule_l(tau, l).values()),
                }, examined + before
            examined += int(has.sum())
    return True, None, examined


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


def _run_factorlemma(spec: CheckSpec) -> Outcome:
    examined = 0
    for n in _sizes(spec):
        table = aggregate.qsym_by_diagword(n, threads=spec.threads,
                                           tau=spec.tau)
        for block in _tau_blocks(spec, n):
            for tau in map(tuple, block.tolist()):
                rd = runs(tau)
                ls = list(_ls(spec, len(rd)))
                holds = factor_check(table, rd, ls)
                if not all(holds):
                    j = holds.index(False)
                    return False, {"n": n, "tau": list(tau),
                                   "l": ls[j]}, examined + j + 1
                examined += len(ls)
    return True, None, examined


def _qsym_diff(lhs: QSymF, rhs: QSymF, where: str) -> Dict[str, object]:
    """The first Q_S whose coefficients differ; ``where`` names the case
    in the error raised when none does."""
    for s in sorted(lhs.coeffs.keys() | rhs.coeffs.keys(), key=sorted):
        if lhs.coefficient(s) != rhs.coefficient(s):
            return {
                "subset": sorted(s),
                "lhs": str(lhs.coefficient(s)),
                "rhs": str(rhs.coefficient(s)),
            }
    raise RuntimeError(f"{where}: no coefficient of the two sides differs")


def _withides_sides(table: aggregate.Table, tau: Tuple[int, ...],
                    k: int) -> Tuple[QSymF, QSymF]:
    return (qsym_for_diagword(table, tau) * q_int(k),
            qsym_for_diagword(table, tau, deviation=0) * q_int(len(tau)))


def _run_withides(spec: CheckSpec) -> Outcome:
    # Each block of taus is decided at once in integer counts.  The QSymF
    # sides are built for a failing tau, to report it, and for the last tau
    # of each n (n..1 when all are walked), whose integer verdict they must
    # confirm, with its k from the scalar run decomposition.
    examined = 0
    for n in _sizes(spec):
        table = aggregate.qsym_by_diagword(n, threads=spec.threads,
                                           tau=spec.tau)
        for block in _tau_blocks(spec, n):
            ks = (schedule_counts(block).from_last == 0).sum(axis=1)
            bad = np.flatnonzero(withides_failures(table, block, ks))
            if len(bad):
                r = int(bad[0])
                tau, k = tuple(block[r].tolist()), int(ks[r])
                ce = {"n": n, "tau": list(tau), "k": k}
                ce.update(_qsym_diff(*_withides_sides(table, tau, k),
                                     f"n = {n}, tau = {tau}"))
                return False, ce, examined + r + 1
            examined += len(block)
        tau = tuple(block[-1].tolist())
        k = runs(tau).last_run_length
        if k != ks[-1]:
            raise RuntimeError(f"n = {n}, tau = {tau}: the last run has "
                               f"length {k}, the batch gave {ks[-1]}")
        lhs, rhs = _withides_sides(table, tau, k)
        if lhs != rhs:
            raise RuntimeError(f"n = {n}, tau = {tau}: the QSymF sides "
                               f"differ where the integer counts agree")
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


def _square_paths_sides(table: aggregate.Table, n: int
                        ) -> Tuple[QSymF, QSymF]:
    # Both sides times [1]_q [2]_q ... [n]_q clears every [k]_q
    # denominator, leaving an identity between polynomial-coefficient
    # quasisymmetric sums.
    lhs, rhs = square_paths_multipliers(n)
    out = QSymF.zero(n)
    for k, mult in enumerate(rhs, start=1):
        out = out + qsym_for_touch(table, n, k) * q_poly(mult, 0, 0)
    return qsym_total(table, n) * q_poly(lhs, 0, 0), out


def _square_paths_failure(n: int, threads: int
                          ) -> Optional[Dict[str, object]]:
    # n is decided in integer counts; the QSymF sides are built only to
    # report a failure.
    table = aggregate.qsym_by_touch(n, threads=threads)
    if not square_paths_residue(table, n).any():
        return None
    ce: Dict[str, object] = {"n": n}
    ce.update(_qsym_diff(*_square_paths_sides(table, n), f"n = {n}"))
    return ce


REGISTRY: Dict[str, Callable[[CheckSpec], Outcome]] = {
    "thm-schedule-closed-form": _run_schedule_closed_form,
    "thm-shift-multiset": _run_shift_multiset,
    "lemma-parlem": _run_parlem,
    "lemma-factorlemma": _run_factorlemma,
    "cor-withides": _run_withides,
    # The predicates are looked up when a check runs, so a rebinding of
    # their names in this module takes effect.
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
