"""Registry of machine checks, one identity per registered id.

Each check compares a closed form or algebraic identity against brute
force at desk scale and reports the first counterexample it finds.  The
serialized report never includes the wall time (that goes to stderr in
the CLI) so command output stays byte-identical across runs.  SCOPES
holds the size rule of every CLI command, checks and tables alike.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from itertools import combinations_with_replacement, permutations
from math import prod
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from . import aggregate
from .paths import DEFAULT_MAX_N
from .qt import QTPoly, q_int
from .quasisym import QSymF, factor_check, qsym_for_diagword, qsym_for_touch
from .quasisym import qsym_total, square_paths_multipliers
from .quasisym import square_paths_residue, withides_residue
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
    first_l: int = 0  # the smallest deviation l checked
    sweeps: bool = False  # builds an n^n table, so --threads means something
    limits: Dict[str, int] = field(default_factory=dict)  # option -> largest
    # option -> the values some case of size n can have (a filter no case
    # passes is refused)
    usable: Dict[str, Callable[[int], range]] = field(default_factory=dict)


_TAU_L: Dict[str, object] = {"tau": None, "l": None}

# Each cap keeps one run within about a minute on 2 vCPUs (thm-hmz took
# 45 s at n = 10, lemma-parlem 65 s at n = 11 and thm-shift-multiset
# about 9 s at n = 10; thm-pn-identity, thm-enk-sum and table enk reach
# symfunc.DEGREE_BOUND in about 14 s); the n^n sweeps stop at the
# enumeration bound.
# lemma-parlem's random samples cost about max^2 each, so --max and
# --samples are capped too.  Guards that protect data stay with the data:
# kernels.MAX_N, the radix check in aggregate._fold, symfunc.DEGREE_BOUND.
SCOPES: Dict[str, Scope] = {
    "thm-schedule-closed-form": Scope((1, 6), DEFAULT_MAX_N, _TAU_L,
                                      sweeps=True),
    "thm-shift-multiset": Scope((1, 8), 10, _TAU_L, per_tau=True, first_l=1),
    "lemma-parlem": Scope((1, 6), 11, {"max_part": 12, "samples": 1000},
                          limits={"max_part": 400, "samples": 10000}),
    "lemma-factorlemma": Scope((1, 6), DEFAULT_MAX_N, _TAU_L, sweeps=True),
    "cor-withides": Scope((1, 6), DEFAULT_MAX_N, {"tau": None}, sweeps=True),
    "thm-hmz": Scope((1, 6), 10),
    "thm-pn-identity": Scope((1, 6), DEGREE_BOUND),
    "thm-enk-sum": Scope((1, 6), DEGREE_BOUND),
    "main-square-paths": Scope((1, 6), DEFAULT_MAX_N, sweeps=True),
    "enumerate": Scope((1, 7), DEFAULT_MAX_N,
                       {"allow_large": False, "touch": None, "deviation": None},
                       usable={"touch": lambda n: range(1, n + 1),
                               "deviation": range}),
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
    one_tau = row.per_tau and tau is not None
    if n is None and row.default is None:
        if one_tau:
            return None
        raise ValueError(f"{command} needs --n")
    lo, hi = n or row.default
    if not 1 <= lo <= hi:
        raise ValueError(f"bad n range {lo}..{hi}")
    if hi > row.cap and not one_tau:
        raise ValueError(f"{command} accepts n up to {row.cap}, got {hi}")
    if ("allow_large" in row.reads and hi > row.default[1]
            and not options.get("allow_large")):
        raise ValueError(f"n above {row.default[1]} needs --allow-large")
    for opt, values in row.usable.items():
        if opt in given and given[opt] not in values(hi):
            raise ValueError(f"{command} at n = {hi} has {opt} "
                             f"{values(hi).start}..{values(hi).stop - 1}, "
                             f"not {given[opt]}")
    if tau is not None and not lo <= len(tau) <= hi:
        raise ValueError(f"tau has {len(tau)} cars, outside {lo}..{hi}")
    if "l" in row.reads and (tau is not None or l is not None):
        # A tau has one run more than it has descents.
        nruns = hi if tau is None else 1 + sum(
            a > b for a, b in zip(tau, tau[1:]))
        usable = range(row.first_l, nruns)
        if not usable or (l is not None and l not in usable):
            raise ValueError(f"no case in n range {lo}..{hi} can use "
                             f"this tau and l")
    return lo, hi


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


def _taus(spec: CheckSpec, n: int):
    if spec.tau is None:
        return permutations(range(1, n + 1))
    return [spec.tau] if len(spec.tau) == n else []


def _ls(spec: CheckSpec, nruns: int):
    ls = range(SCOPES[spec.id].first_l, nruns)
    return ls if spec.l is None else [l for l in ls if l == spec.l]


def _tau_blocks(spec: CheckSpec, n: int) -> Iterable[np.ndarray]:
    """The taus of size n as blocks of rows, in permutation order: the one
    --tau, or all n! in blocks of (n-1)! that share their first car."""
    if spec.tau is None:
        return permutation_blocks(n)
    return [np.array([spec.tau])] if len(spec.tau) == n else []


def _cases(spec: CheckSpec, sc: ScheduleCounts) -> Tuple[List[int], np.ndarray]:
    """The deviations l checked in a block, and which rows have each."""
    nruns = sc.from_last[:, 0] + 1
    ls = list(_ls(spec, int(nruns.max())))
    return ls, nruns[:, None] > np.array(ls, dtype=int)


Terms = Tuple[Tuple[int, int], ...]


def _q_product(weights: Tuple[int, ...]) -> Terms:
    """The (i, c) with c q^i a term of prod [w]_q; every c is an integer."""
    poly = prod(map(q_int, weights), start=QTPoly.one())
    return tuple((i, int(c)) for (i, _), c in poly.terms())


def _counts(maj: int, shift: int, terms: Terms) -> Dict[Tuple[int, int], int]:
    """t^maj q^shift times the terms, as table counts {(area, dinv): c}."""
    return {(maj, shift + i): c for i, c in terms}


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
    # t^maj q^shift prod [w]_q has one power of t, so each table entry is
    # compared in integers with the coefficients of prod [w]_q, which
    # depend only on the sorted weights.
    products: Dict[Tuple[int, ...], Terms] = {}

    def product_rows(w: np.ndarray) -> List[Terms]:
        keys = list(map(tuple, np.sort(w, axis=1).tolist()))
        for key in set(keys) - products.keys():
            products[key] = _q_product(key)
        return [products[key] for key in keys]

    examined = 0
    for n in spec.n_range:
        blocks = list(_tau_blocks(spec, n))
        if not blocks:  # --tau names another n: no table to build
            continue
        table = aggregate.qt_by_diagword(n, threads=spec.threads)
        for block in blocks:
            sc = schedule_counts(block)
            ls, has = _cases(spec, sc)
            taus = list(map(tuple, block.tolist()))
            majs = ((block[:, :-1] > block[:, 1:]) @ np.arange(1, n)).tolist()

            def misses(l, rows, w, shifts):
                """Whether each row's table entry at l differs from
                t^maj q^shift prod [w]_q."""
                return [table.get((taus[r], l), {})
                        != _counts(majs[r], shift, terms)
                        for r, shift, terms in zip(rows.tolist(), shifts,
                                                   product_rows(w[rows]))]

            # Cases pref_closed_form misses, and pf_closed_form (l = 0).
            bad, bad_pf = np.zeros_like(has), np.zeros_like(has)
            for j, l in enumerate(ls):
                rows = np.flatnonzero(has[:, j])
                shifts = (sc.from_last[rows] < l).sum(axis=1).tolist()
                bad[rows, j] = misses(l, rows, schedule_l_rows(sc, l), shifts)
                if l == 0:
                    bad_pf[rows, j] = misses(0, rows, schedule0_rows(sc),
                                             shifts)
            hit = _first_failure(bad | bad_pf, has)
            if hit is not None:
                r, j, before = hit
                tau, l = taus[r], ls[j]
                closed = (pref_closed_form(tau, l) if bad[r, j]
                          else pf_closed_form(tau))
                return False, {
                    "n": n, "tau": list(tau), "l": l,
                    "closed_form": str(closed),
                    "brute_force": str(aggregate.qt_poly_from_counts(
                        table.get((tau, l), {}))),
                }, examined + before
            examined += int(has.sum())
    return True, None, examined


def _run_shift_multiset(spec: CheckSpec) -> Outcome:
    examined = 0
    for n in spec.n_range:
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
    for n in spec.n_range:
        for tau in _taus(spec, n):
            nruns = len(runs(tau).runs)
            for l in _ls(spec, nruns):
                examined += 1
                if not factor_check(tau, l, threads=spec.threads):
                    return False, {"n": n, "tau": list(tau), "l": l}, examined
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


def _withides_sides(n: int, tau: Tuple[int, ...], k: int,
                    threads: int) -> Tuple[QSymF, QSymF]:
    return (qsym_for_diagword(n, tau, threads=threads) * q_int(k),
            qsym_for_diagword(n, tau, deviation=0, threads=threads) * q_int(n))


def _run_withides(spec: CheckSpec) -> Outcome:
    # Each tau is decided in integer counts.  The QSymF sides are built for
    # a failing tau, to report it, and for the last tau of each n (n..1 when
    # all are walked), whose integer verdict they must confirm.
    examined = 0
    for n in spec.n_range:
        tau = None
        for tau in _taus(spec, n):
            examined += 1
            k = runs(tau).last_run_length
            if withides_residue(n, tau, k, threads=spec.threads):
                ce = {"n": n, "tau": list(tau), "k": k}
                ce.update(_qsym_diff(*_withides_sides(n, tau, k, spec.threads),
                                     f"n = {n}, tau = {tau}"))
                return False, ce, examined
        if tau is not None:
            lhs, rhs = _withides_sides(n, tau, k, spec.threads)
            if lhs != rhs:
                raise RuntimeError(f"n = {n}, tau = {tau}: the QSymF sides "
                                   f"differ where the integer counts agree")
    return True, None, examined


def _run_hmz(spec: CheckSpec) -> Outcome:
    examined = 0
    for n in spec.n_range:
        examined += 1
        if not hmz_check(n):
            return False, {"n": n}, examined
    return True, None, examined


def _run_pn_identity(spec: CheckSpec) -> Outcome:
    examined = 0
    for n in spec.n_range:
        examined += 1
        if not pn_identity_check(n):
            return False, {"n": n}, examined
    return True, None, examined


def _run_enk_sum(spec: CheckSpec) -> Outcome:
    examined = 0
    for n in spec.n_range:
        examined += 1
        total = None
        for piece in e_nk(n):
            total = piece if total is None else total + piece
        if total != e_in_p(n):
            return False, {
                "n": n, "sum": total.json(), "e_n": e_in_p(n).json(),
            }, examined
    return True, None, examined


def _square_paths_sides(n: int, threads: int) -> Tuple[QSymF, QSymF]:
    # Both sides times [1]_q [2]_q ... [n]_q clears every [k]_q
    # denominator, leaving an identity between polynomial-coefficient
    # quasisymmetric sums.
    lhs, rhs = square_paths_multipliers(n)
    out = QSymF.zero(n)
    for k, mult in enumerate(rhs, start=1):
        out = out + qsym_for_touch(n, k, threads=threads) * mult
    return qsym_total(n, threads=threads) * lhs, out


def _run_main_square_paths(spec: CheckSpec) -> Outcome:
    # Each n is decided in integer counts; the QSymF sides are built only
    # to report a failure.
    examined = 0
    for n in spec.n_range:
        examined += n ** n
        if square_paths_residue(n, threads=spec.threads).any():
            ce: Dict[str, object] = {"n": n}
            ce.update(_qsym_diff(*_square_paths_sides(n, spec.threads),
                                 f"n = {n}"))
            return False, ce, examined
    return True, None, examined


REGISTRY: Dict[str, Callable[[CheckSpec], Outcome]] = {
    "thm-schedule-closed-form": _run_schedule_closed_form,
    "thm-shift-multiset": _run_shift_multiset,
    "lemma-parlem": _run_parlem,
    "lemma-factorlemma": _run_factorlemma,
    "cor-withides": _run_withides,
    "thm-hmz": _run_hmz,
    "thm-pn-identity": _run_pn_identity,
    "thm-enk-sum": _run_enk_sum,
    "main-square-paths": _run_main_square_paths,
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
