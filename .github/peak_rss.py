"""Fail when a qtpark run's peak RSS is over a bound.

Usage: python .github/peak_rss.py STDERR_FILE BOUND_MB

STDERR_FILE holds the JSON that a ``check`` run writes to stderr; its
``peak_rss_mb`` is compared with BOUND_MB, and the exit status is 1 when
it is larger.
"""

import json
import sys

path, bound = sys.argv[1], float(sys.argv[2])
rss = json.loads(open(path).read())["peak_rss_mb"]
print(f"peak_rss_mb {rss} (bound {sys.argv[2]})")
sys.exit(rss > bound)
