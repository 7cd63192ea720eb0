"""Record the reference scan CSVs that perfbench/run.py compares against.

Usage (from the repository root): python3 perfbench/record_refs.py

Each reference is the concatenated stdout of one unit's `scan` calls, taken
from the commit that defined the benchmark.  Re-recording is only right when
a change is meant to alter the scan output; the scan CSV is otherwise
required to stay byte-identical.
"""

from __future__ import annotations

import os
import shutil
import tempfile

from run import REF_DIR, ROOT, make_workload, run_unit


def main() -> None:
    os.makedirs(REF_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        for name in ("scan-small-q", "scan-large-q"):
            for quick in (False, True):
                wl = make_workload(name, 0, quick)
                unit = run_unit(wl.calls(), False, workdir)
                if any(c["code"] != 0 for c in unit["calls"]):
                    raise SystemExit(f"{wl.name}: a scan call failed; no reference written")
                with open(os.path.join(REF_DIR, f"{wl.name}.csv"), "w") as fh:
                    fh.write("".join(c["out"] for c in unit["calls"]))
                print(f"{wl.name}: {len(unit['calls'])} calls, {unit['wall_s']:.2f} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
