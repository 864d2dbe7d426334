#!/usr/bin/env python3
"""Record the golden outputs the benchmark checks against.

    python3 perfbench/record_golden.py

Writes ``perfbench/golden.json``: the stdout of each fixed ``compute``
item (the seeded sparse item is checked against the sparse paving fast
path instead) and a digest of every ``cd_hypersimplex(k, n)`` entry.
Rerun it only when a change to the program is meant to change these.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402


def main():
    from cdx.hypersimplex import cd_hypersimplex

    out_dir = HERE.parent / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=out_dir)
    try:
        cold = wl.ComputeCold(workdir, 0)
        cold.generate()
        cold.begin_pass()
        compute = {}
        fixed = {label for label, _args in wl.COMPUTE_FIXED}
        for label, call in cold.items():
            if label in fixed:
                rc, stdout = call()
                if rc != 0:
                    raise SystemExit("%s exited %d" % (label, rc))
                compute[label] = stdout
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wl.clear_memos()
    hyp = {"%d,%d" % (k, n): wl.digest(cd_hypersimplex(k, n).text())
           for k, n in wl.hypersimplex_entries()}
    with open(wl.GOLDEN_PATH, "w") as fh:
        json.dump({"compute": compute, "hypersimplex": hyp}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
