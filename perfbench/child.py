"""One timed repetition: ``extrack.cli.main(argv)`` in this fresh process.

Usage: child.py RESULT.json [TRACE.json] -- <extrack arguments>

Writes {"rc", "run_s", "peak_rss_mib"} to RESULT.json. With TRACE.json the
program's public layer functions are wrapped first (see tracer.py) and the
spans are written there. Exits with the program's exit code.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main() -> int:
    sep = sys.argv.index("--")
    paths, argv = sys.argv[1:sep], sys.argv[sep + 1:]
    result_path = paths[0]
    trace_path = paths[1] if len(paths) > 1 else None

    import extrack.cli

    tracer = None
    if trace_path is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    t0 = time.perf_counter()
    rc = extrack.cli.main(argv)
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.dump(trace_path, t0, t1)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"rc": rc, "run_s": t1 - t0, "peak_rss_mib": rss_kib / 1024.0}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
