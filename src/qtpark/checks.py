"""Registry of machine checks, one identity per registered id.

Each check compares a closed form or algebraic identity against brute
force at desk scale and reports the first counterexample it finds.  The
serialized report never includes the wall time (that goes to stderr in
the CLI) so command output stays byte-identical across runs.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from itertools import combinations_with_replacement, permutations
from typing import Callable, Dict, Optional, Tuple

from . import aggregate
from .paths import DEFAULT_MAX_N
from .qt import QTPoly, q_factorial, q_int
from .quasisym import QSymF, factor_check, qsym_for_diagword, qsym_for_touch
from .quasisym import qsym_total
from .schedules import PartitionBox, delta_merge, pf_closed_form
from .schedules import pref_closed_form, runs, schedule0, schedule_l
from .schedules import shift_multiset
from .symfunc import e_in_p, e_nk, hmz_check, pn_identity_check

DEFAULT_N: Dict[str, Tuple[int, int]] = {
    "thm-schedule-closed-form": (1, 6),
    "thm-shift-multiset": (1, 8),
    "lemma-parlem": (1, 6),
    "lemma-factorlemma": (1, 6),
    "cor-withides": (1, 6),
    "thm-hmz": (1, 6),
    "thm-pn-identity": (1, 6),
    "thm-enk-sum": (1, 6),
    "main-square-paths": (1, 6),
}

# Checks that sweep all n^n functions for every n in their range.
SWEPT = frozenset({"thm-schedule-closed-form", "lemma-factorlemma",
                   "cor-withides", "main-square-paths"})


@dataclass(frozen=True)
class CheckSpec:
    """Parameters of one check run."""

    id: str
    n_lo: int = 0
    n_hi: int = 0
    tau: Optional[Tuple[int, ...]] = None
    l: Optional[int] = None
    max_part: int = 12
    samples: int = 1000
    threads: int = 1

    def __post_init__(self):
        if self.id not in DEFAULT_N:
            raise ValueError(f"unknown check id {self.id!r}; "
                             f"known: {', '.join(sorted(DEFAULT_N))}")
        lo, hi = DEFAULT_N[self.id]
        if self.n_lo == 0:
            object.__setattr__(self, "n_lo", lo)
        if self.n_hi == 0:
            object.__setattr__(self, "n_hi", hi)
        if not 1 <= self.n_lo <= self.n_hi:
            raise ValueError(f"bad n range {self.n_lo}..{self.n_hi}")
        if self.id in SWEPT and self.n_hi > DEFAULT_MAX_N:
            raise ValueError(f"{self.id} sweeps n^n functions; n must lie "
                             f"in 1..{DEFAULT_MAX_N}")
        if (self.id == "thm-shift-multiset" and self.tau is None
                and self.n_hi > DEFAULT_MAX_N):
            raise ValueError(f"{self.id} without --tau walks all n! "
                             f"permutations; n must lie in 1..{DEFAULT_MAX_N}")
        if self.tau is not None:
            object.__setattr__(self, "tau", tuple(self.tau))
        if self.threads < 1:
            raise ValueError("threads must be positive")
        if self.samples < 0 or self.max_part < 1:
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
    if spec.tau is not None:
        if len(spec.tau) == n:
            yield runs(spec.tau).tau
        return
    for p in permutations(range(1, n + 1)):
        yield p


def _ls(spec: CheckSpec, nruns: int, lo: int = 0):
    if spec.l is not None:
        if lo <= spec.l < nruns:
            yield spec.l
        return
    yield from range(lo, nruns)


def _run_schedule_closed_form(spec: CheckSpec) -> Outcome:
    examined = 0
    for n in spec.n_range:
        taus = list(_taus(spec, n))
        if not taus:  # --tau names another n: no table to build
            continue
        table = aggregate.qt_by_diagword(n, threads=spec.threads)
        for tau in taus:
            nruns = len(runs(tau).runs)
            for l in _ls(spec, nruns):
                examined += 1
                closed = pref_closed_form(tau, l)
                counts = table.get((tau, l), {})
                brute = aggregate.qt_poly_from_counts(counts)
                if closed != brute:
                    return False, {
                        "n": n, "tau": list(tau), "l": l,
                        "closed_form": str(closed),
                        "brute_force": str(brute),
                    }, examined
                if l == 0 and pf_closed_form(tau) != brute:
                    return False, {
                        "n": n, "tau": list(tau), "l": 0,
                        "closed_form": str(pf_closed_form(tau)),
                        "brute_force": str(brute),
                    }, examined
    return True, None, examined


def _run_shift_multiset(spec: CheckSpec) -> Outcome:
    examined = 0
    for n in spec.n_range:
        for tau in _taus(spec, n):
            nruns = len(runs(tau).runs)
            for l in _ls(spec, nruns, lo=1):
                examined += 1
                if not shift_multiset(tau, l):
                    return False, {
                        "n": n, "tau": list(tau), "l": l,
                        "schedule0": sorted(schedule0(tau)),
                        "schedule_l": sorted(schedule_l(tau, l).values()),
                    }, examined
    return True, None, examined


def _box_partitions(a: int, b: int):
    for asc in combinations_with_replacement(range(a + 1), b):
        yield tuple(reversed(asc))


def _run_parlem(spec: CheckSpec) -> Outcome:
    examined = 0
    hi = spec.n_hi
    for a in range(1, hi + 1):
        for b in range(1, hi + 1):
            for lam in _box_partitions(a, b):
                examined += 1
                pb = PartitionBox(lam, a, b)
                lhs, rhs = delta_merge(pb)
                if lhs != rhs:
                    return False, {
                        "lam": list(lam), "a": a, "b": b,
                        "left": list(lhs), "right": list(rhs),
                    }, examined
    # Randomized parts in a max_part x max_part box; the seed is fixed
    # so repeated runs examine the same partitions.
    m = spec.max_part
    rng = random.Random(20200521)
    for _ in range(spec.samples):
        lam = tuple(sorted((rng.randint(0, m) for _ in range(m)),
                           reverse=True))
        examined += 1
        pb = PartitionBox(lam, m, m)
        lhs, rhs = delta_merge(pb)
        if lhs != rhs:
            return False, {
                "lam": list(lam), "a": m, "b": m,
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


def _qsym_diff(lhs: QSymF, rhs: QSymF) -> Dict[str, object]:
    for s in sorted(lhs.coeffs.keys() | rhs.coeffs.keys(), key=sorted):
        if lhs.coefficient(s) != rhs.coefficient(s):
            return {
                "subset": sorted(s),
                "lhs": str(lhs.coefficient(s)),
                "rhs": str(rhs.coefficient(s)),
            }
    raise AssertionError("no differing coefficient found")


def _run_withides(spec: CheckSpec) -> Outcome:
    examined = 0
    for n in spec.n_range:
        for tau in _taus(spec, n):
            examined += 1
            k = runs(tau).last_run_length
            lhs = qsym_for_diagword(n, tau, threads=spec.threads) * q_int(k)
            rhs = qsym_for_diagword(n, tau, deviation=0,
                                    threads=spec.threads) * q_int(n)
            if lhs != rhs:
                ce = {"n": n, "tau": list(tau), "k": k}
                ce.update(_qsym_diff(lhs, rhs))
                return False, ce, examined
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


def _run_main_square_paths(spec: CheckSpec) -> Outcome:
    examined = 0
    for n in spec.n_range:
        examined += n ** n
        # Both sides times [1]_q [2]_q ... [n]_q clears every [k]_q
        # denominator, leaving an identity between polynomial-coefficient
        # quasisymmetric sums.
        lhs = qsym_total(n, threads=spec.threads) * q_factorial(n)
        rhs = QSymF.zero(n)
        for k in range(1, n + 1):
            mult = q_int(n) * q_factorial(n).divexact(q_int(k))
            rhs = rhs + qsym_for_touch(n, k, threads=spec.threads) * mult
        if lhs != rhs:
            ce: Dict[str, object] = {"n": n}
            ce.update(_qsym_diff(lhs, rhs))
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
    if spec.tau is not None:
        params["tau"] = list(spec.tau)
    if spec.l is not None:
        params["l"] = spec.l
    if spec.id == "lemma-parlem":
        params["max_part"] = spec.max_part
        params["samples"] = spec.samples
    start = time.perf_counter()
    passed, counterexample, examined = runner(spec)
    elapsed = time.perf_counter() - start
    return CheckReport(id=spec.id, parameters=params, passed=passed,
                       counterexample=counterexample, wall_time=elapsed,
                       examined=examined)
