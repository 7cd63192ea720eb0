"""One benchmark unit in a fresh Python process.

Usage: python3 perfbench/worker.py SPEC.json RESULT.json

SPEC holds {"calls": [argv, ...], "trace": bool}.  The worker times
``import siegelscan.cli`` (setup), then runs each argv through
``siegelscan.cli.main`` with stdout captured, and writes RESULT with the
timings, rusage, every call's exit code and output, and, when traced, the
recorded spans.  It must run with the repository's ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)

    t0 = time.perf_counter()
    import siegelscan.cli

    setup_s = time.perf_counter() - t0

    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    calls = []
    cpu0, w0 = _cpu(), time.perf_counter()
    for argv in spec["calls"]:
        buf = io.StringIO()
        q0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = siegelscan.cli.main(argv)
        calls.append({"s": time.perf_counter() - q0, "code": code, "out": buf.getvalue()})
    wall_s = time.perf_counter() - w0
    cpu_s = _cpu() - cpu0

    import numpy
    import scipy

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calls": calls,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "trace": tracer.dump() if tracer else None,
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
