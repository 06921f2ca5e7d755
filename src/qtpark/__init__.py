"""Exact q,t-enumeration of labeled lattice paths and their symmetric
function identities."""

from .paths import PrefFunc, Placement, StatRecord, enumerate_all, place, stats
from .qt import QTPoly, q_factorial, q_int
from .schedules import (PartitionBox, RunDecomposition, delta_merge,
                        delta_merge_equal, generate, ides, inv, maj,
                        pf_closed_form, pref_all_l_closed_form,
                        pref_closed_form, runs, schedule0, schedule_l,
                        shift_multiset)

__version__ = "0.1.0"

__all__ = [
    "PrefFunc", "Placement", "StatRecord", "enumerate_all", "place", "stats",
    "QTPoly", "q_factorial", "q_int",
    "PartitionBox", "RunDecomposition", "delta_merge", "delta_merge_equal",
    "generate", "ides", "inv", "maj", "pf_closed_form",
    "pref_all_l_closed_form", "pref_closed_form", "runs", "schedule0",
    "schedule_l", "shift_multiset",
    "__version__",
]
