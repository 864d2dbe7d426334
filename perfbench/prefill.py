"""One set-up of a workload, in a fresh interpreter.

Measures the import time of ``cdx.cli`` and, with ``--prefill``, the
time to fill the workload's cache by running every item once.  The
import time is reported as measured: a fresh interpreter's import does
not follow the calibration kernel, and scaling it added noise.  The
prefill is a whole cold pass, so it is scaled to reference seconds
(see ``calibrate.py``) by samples taken between its items.  Prints one
JSON object ``{"import_s": ..., "prefill_s": ...}``.  ``run.py`` starts
this several times per run and reports the median set-up time.

    python3 perfbench/prefill.py --src SRC --workload NAME --workdir DIR --seed N [--prefill]
"""

import argparse
import json
import os
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--prefill", action="store_true",
                    help="fill the workload's cache by running its items once")
    args = ap.parse_args()

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import calibrate
    import workloads

    sys.path.insert(0, args.src)
    t0 = time.perf_counter()
    import cdx.cli  # noqa: F401
    import_s = time.perf_counter() - t0

    prefill_s = 0.0
    prefill_scale = 1.0
    wl = workloads.WORKLOADS[args.workload](args.workdir, args.seed)
    if args.prefill:
        if os.path.exists(wl.cache_path):
            os.remove(wl.cache_path)
        calibrate.sample()  # warm-up, not kept
        sampler = calibrate.Sampler()
        sampler.take()
        for label, call in wl.items():
            t0 = time.perf_counter()
            rc, _out = call()
            prefill_s += time.perf_counter() - t0
            if rc != 0:
                sys.stderr.write("prefill: %s exited %d\n" % (label, rc))
                return 1
            sampler.between()
        sampler.finish()
        prefill_scale = sampler.scale()
    print(json.dumps({"import_s": import_s, "prefill_s": prefill_s * prefill_scale}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
