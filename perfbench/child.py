"""One benchmark command in a fresh interpreter.

    python3 perfbench/child.py REPORT TRACE [qtpark arguments...]

Imports ``qtpark.cli`` (timed: that is the command's set-up), then calls
``qtpark.cli.main`` with the arguments, exactly as the ``qtpark`` script
does, and exits with its return code.  With no arguments it only imports,
which the harness uses as a set-up probe.  REPORT receives the set-up time
as JSON; with TRACE=1 every span of the command is written next to it
(``REPORT.npz``).  Nothing is written to stdout but the command's own output.
"""

import json
import sys
import time


def main() -> int:
    report, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    t0 = time.perf_counter()
    import qtpark.cli
    from qtpark import kernels
    # With numba present the first kernel call compiles; that is set-up too.
    if getattr(kernels, "HAS_NUMBA", False) and \
            kernels.resolve_backend() == "numba":
        kernels.stats_block(2, 0, 4)
    setup_s = time.perf_counter() - t0

    rc = 0
    tracer = None
    if argv:
        if trace:
            import tracer as tracing
            tracer = tracing.Tracer()
            tracer.install()
            root = tracer.name_id(tracing.ROOT)
            b, sid = tracer.open(root)
            try:
                rc = qtpark.cli.main(argv)
            finally:
                tracer.close(b, sid)
                tracer.uninstall()
        else:
            rc = qtpark.cli.main(argv)
        sys.stdout.flush()
    if tracer is not None:
        tracer.dump(report + ".npz")
    with open(report, "w") as fh:
        json.dump({"setup_s": setup_s}, fh)
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
