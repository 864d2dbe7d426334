#!/usr/bin/env python3
"""Benchmark for cdx: closed-loop workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``.  One client runs the workload's items back to back
in this process (see ``workloads.py``), pass after pass, until
``--seconds`` have gone by.  Every output is checked.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; progress goes to standard
error.

Pass times are in reference seconds: measured seconds scaled by a
fixed calibration kernel timed between the items of the same pass (see
``calibrate.py``), so that the host's drifting speed cancels out.
``verify-n7`` runs on two threads, which the kernel does not stand
for, so its pass times are reported as measured, and so is the import
time in ``setup_s``.

With ``--trace 0`` the metrics are end-to-end:

- ``pass_s``: median over passes of the pass time, the sum of its
  items' times;
- ``slowest_item_s``: median over passes of the slowest item's time
  (for ``verify-n7`` the one ``cdx verify`` call);
- ``setup_s``: median of seven set-ups, each the import time of
  ``cdx.cli`` in a fresh interpreter plus input generation, plus (for
  ``compute-warm``) the time to fill the cache once;
- ``peak_rss_mb``: peak resident memory of this process.

With ``--trace 1`` an untimed warm-up pass runs first, then untraced
and traced passes alternate.  A traced pass wraps the functions in
``TRACED`` at every module binding, keeps spans in memory, and reports
per-layer calls, self time and counters as medians over traced passes.  The last traced pass's spans are written
to ``.perfbench_out/`` at the end.  ``trace.overhead_s`` is the
median traced pass minus the median untraced pass, and
``calibration.sample_s`` the median calibration sample as measured.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 150

sys.path.insert(0, str(HERE))
import calibrate  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

TRACED = [
    ("cdx.product", "cd_product"),
    ("cdx.cuspidal", "cd_cuspidal"),
    ("cdx.hypersimplex", "cd_hypersimplex"),
    ("cdx.engine", "cd_index"),
    ("cdx.engine", "cd_split_matroid"),
    ("cdx.engine", "w_term"),
    ("cdx.matroid", "is_connected_split"),
    ("cdx.matroid", "split_profile"),
    ("cdx.matroid", "Matroid.proper_cyclic_flats"),
    ("cdx.matroid", "Matroid.relax"),
    ("cdx.matroid", "Matroid.from_cyclic_flats"),
    ("cdx.matroid", "Matroid.from_bases"),
    ("cdx.ncpoly", "normalize_mixed"),
    ("cdx.ncpoly", "cd_to_flag_f"),
    ("cdx.ncpoly", "flag_to_cd"),
    ("cdx.ncpoly", "ab_to_cd"),
    ("cdx.oracle", "face_lattice"),
    ("cdx.oracle", "oracle_flag_f"),
    ("cdx.cli", "load_matroid_file"),
    ("cdx.cli", "CacheStore.load"),
    ("cdx.cli", "CacheStore.append_new"),
]
MEMO_CALLS = {"hypersimplex": "hypersimplex.cd_hypersimplex",
              "cuspidal": "cuspidal.cd_cuspidal",
              "w": "engine.w_term"}

END_TO_END_UNITS = {"pass_s": "s", "slowest_item_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


class Counters:
    """Exact counts taken at the traced boundaries during one pass."""

    def __init__(self):
        self.product_calls = 0
        self.pairs = set()
        self.point_factor_calls = 0
        self.flag_entries = 0
        self.faces = 0
        self.records_read = 0
        self.records_appended = 0
        self.installed = {kind: 0 for kind in MEMO_CALLS}
        self.lam = 0
        self.mu = 0

    def hooks(self):
        return {
            "product.cd_product": self._product,
            "oracle.face_lattice": self._face_lattice,
            "cli.CacheStore.load": self._load,
            "cli.CacheStore.append_new": self._append_new,
            "matroid.split_profile": self._split_profile,
        }

    def _product(self, args, kwargs):
        p, q = args
        self.product_calls += 1
        self.pairs.add(frozenset((p, q)))
        dp, dq = p.degree(), q.degree()
        if dp == 0 or dq == 0:
            self.point_factor_calls += 1
        self.flag_entries += 1 << (dp + dq)

    def _face_lattice(self, args, kwargs):
        def done(lattice):
            self.faces += lattice.face_count()
        return done

    def _load(self, args, kwargs):
        before = wl.memo_sizes()

        def done(records):
            self.records_read += len(records)
            after = wl.memo_sizes()
            for kind in self.installed:
                self.installed[kind] += after[kind] - before[kind]
        return done

    def _append_new(self, args, kwargs):
        def done(count):
            self.records_appended += count
        return done

    def _split_profile(self, args, kwargs):
        def done(prof):
            self.lam += sum(prof.lam.values())
            self.mu += sum(prof.mu.values())
        return done

    def metrics(self, calls):
        """Counter values by name; ``calls`` maps span names to call counts."""
        out = {
            "product.cd_product.distinct_pairs": len(self.pairs),
            "product.cd_product.distinct_per_call":
                len(self.pairs) / self.product_calls if self.product_calls else 0.0,
            "product.cd_product.point_factor_calls": self.point_factor_calls,
            "product.cd_product.flag_entries": self.flag_entries,
            "oracle.faces": self.faces,
            "cli.cache.records_read": self.records_read,
            "cli.cache.records_appended": self.records_appended,
            "engine.lambda": self.lam,
            "engine.mu": self.mu,
        }
        sizes = wl.memo_sizes()
        for kind, span in MEMO_CALLS.items():
            n_calls = calls.get(span, 0)
            grown = sizes[kind] - self.installed[kind]
            out["memo.%s.size" % kind] = sizes[kind]
            out["memo.%s.hit_ratio" % kind] = (n_calls - grown) / n_calls if n_calls else 0.0
        return out


COUNTER_UNITS = [
    ("product.cd_product.distinct_pairs", "count"),
    ("product.cd_product.distinct_per_call", "ratio"),
    ("product.cd_product.point_factor_calls", "count"),
    # the size of the flag vectors the kernel convolves: computed from the
    # factors' degrees, not counted inside the kernel
    ("product.cd_product.flag_entries", "entries.computed"),
    ("oracle.faces", "count"),
    ("cli.cache.records_read", "count"),
    ("cli.cache.records_appended", "count"),
    ("engine.lambda", "count"),
    ("engine.mu", "count"),
] + [(name, unit) for kind in MEMO_CALLS
     for name, unit in (("memo.%s.size" % kind, "count"),
                        ("memo.%s.hit_ratio" % kind, "ratio"))]
TRACE_UNITS = [("trace.untraced_pass_s", "s"), ("trace.traced_pass_s", "s"),
               ("trace.overhead_s", "s"), ("trace.overhead_share", "ratio"),
               ("calibration.sample_s", "s")]


def per_layer_names():
    """Every per-layer metric name with its unit, in report order."""
    names = []
    for module, qualname in TRACED:
        span = spans.Tracer.span_name(module, qualname)
        names += [(span + ".calls", "count"), (span + ".self_s", "s")]
    return names + COUNTER_UNITS + TRACE_UNITS


def log(msg):
    sys.stderr.write("perfbench: %s\n" % msg)


def setup_once(workload, prefill):
    """Generate inputs here, then import (and prefill) in a fresh interpreter.

    Returns (import plus generation seconds, as measured; prefill
    seconds, in reference seconds)."""
    t0 = time.perf_counter()
    workload.generate()
    gen_s = time.perf_counter() - t0
    cmd = [sys.executable, str(HERE / "prefill.py"), "--src", str(SRC),
           "--workload", workload.name, "--workdir", workload.workdir,
           "--seed", str(workload.seed)]
    if prefill:
        cmd.append("--prefill")
    proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("set-up child failed (%d): %s" % (proc.returncode, proc.stderr))
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    return gen_s + child["import_s"], child["prefill_s"]


def setup_seconds(workload):
    """Median of SETUP_REPEATS set-ups, plus one cache prefill if the
    workload reads one.  Filling the cache is a whole cold pass, so it
    runs once, in the last set-up, to leave the run's time for passes."""
    runs = [setup_once(workload, workload.prefill and i == SETUP_REPEATS - 1)
            for i in range(SETUP_REPEATS)]
    return statistics.median(base for base, _ in runs) + sum(p for _, p in runs)


def run_pass(workload, items):
    """One pass; returns (item seconds, per-item ok flags, calibration
    samples).  Samples are taken outside item times: before the first
    item, between items (see ``calibrate.Sampler``) and after the last."""
    workload.begin_pass()
    outputs, times = [], []
    clock = time.perf_counter
    sampler = calibrate.Sampler(clock)
    sampler.take()
    for label, call in items:
        t0 = clock()
        try:
            out = call()
        except Exception:  # a traceback is a failed item, not a failed benchmark
            log("item %s raised:\n%s" % (label, traceback.format_exc()))
            out = None
        times.append(clock() - t0)
        outputs.append(out)
        sampler.between()
    sampler.finish()
    ok = [out is not None and workload.check(label, out)
          for (label, _call), out in zip(items, outputs)]
    for (label, _call), good in zip(items, ok):
        if not good:
            log("item %s failed its output check" % label)
    return times, ok, sampler.samples


def pass_scale(workload, samples):
    """The factor from a pass's measured seconds to the seconds reported."""
    return calibrate.scale(samples) if workload.scaled else 1.0


def traced_pass(workload, items):
    counters = Counters()
    tracer = spans.Tracer("cdx", TRACED, counters.hooks())
    with tracer:
        for module, qualname in tracer.missing:
            log("cannot trace %s.%s: not found" % (module, qualname))
        times, ok, samples = run_pass(workload, items)
    scale = pass_scale(workload, samples)
    agg = spans.self_times(tracer.spans)
    calls = {name: c for name, (c, _s) in agg.items()}
    layer = {}
    for module, qualname in TRACED:
        name = spans.Tracer.span_name(module, qualname)
        c, s = agg.get(name, (0, 0.0))
        layer[name + ".calls"] = c
        layer[name + ".self_s"] = s * scale
    layer.update(counters.metrics(calls))
    return times, ok, samples, layer, tracer.spans


def write_spans(path, span_list):
    names = sorted({s[0] for s in span_list})
    index = {n: i for i, n in enumerate(names)}
    with open(path, "w") as fh:
        json.dump({"names": names,
                   "fields": ["name", "start_s", "end_s", "parent"],
                   "spans": [[index[n], a, b, p] for n, a, b, p in span_list]}, fh)


def measure(args, workload):
    setup_s = setup_seconds(workload)
    workload.prepare_checks()
    items = workload.items()
    passes, slowest, traced_passes, layers, samples = [], [], [], [], []
    attempted = failed = 0
    last_spans = None
    calibrate.sample()  # warm-up, not kept
    if args.trace:
        # a run's first pass is often slower than the rest, by up to half;
        # untimed, so it does not fall on the untraced side of the overhead
        _times, ok, _samples = run_pass(workload, items)
        attempted += len(ok)
        failed += ok.count(False)
    start = time.perf_counter()
    min_passes = 2 if args.trace else 1
    n = 0
    while n < min_passes or time.perf_counter() - start < args.seconds:
        traced = args.trace and n % 2 == 1
        if traced:
            times, ok, pass_samples, layer, last_spans = traced_pass(workload, items)
            layers.append(layer)
        else:
            times, ok, pass_samples = run_pass(workload, items)
        scale = pass_scale(workload, pass_samples)
        (traced_passes if traced else passes).append(sum(times) * scale)
        if not traced:
            slowest.append(max(times) * scale)
        samples += pass_samples
        attempted += len(ok)
        failed += ok.count(False)
        n += 1
        log("pass %d%s: %.3f s measured, %.3f s reported (scale %.3f)"
            % (n, " (traced)" if traced else "", sum(times), sum(times) * scale, scale))
    log("%d passes, %d items, failed_share %.4f"
        % (n, attempted, failed / attempted))

    med = statistics.median
    if args.trace:
        metrics = {}
        for name, unit in per_layer_names():
            if name.startswith(("trace.", "calibration.")):
                continue
            # the lower median keeps counts whole
            metrics[name] = {"value": statistics.median_low(layer[name] for layer in layers),
                             "unit": unit}
        untraced, traced = med(passes), med(traced_passes)
        metrics["trace.untraced_pass_s"] = {"value": untraced, "unit": "s"}
        metrics["trace.traced_pass_s"] = {"value": traced, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced - untraced, "unit": "s"}
        metrics["trace.overhead_share"] = {"value": (traced - untraced) / untraced,
                                           "unit": "ratio"}
        metrics["calibration.sample_s"] = {"value": med(samples), "unit": "s"}
        write_spans(OUT / ("trace-%s-seed%d.json" % (workload.name, workload.seed)),
                    last_spans)
    else:
        values = {
            "pass_s": med(passes),
            "slowest_item_s": med(slowest),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "cdx" / "__init__.py").is_file():
        log("no program source at %s" % (SRC / "cdx"))
        return 2
    sys.path.insert(0, str(SRC))
    import cdx

    if Path(cdx.__file__).resolve().parent != (SRC / "cdx").resolve():
        log("imported cdx from %s, not from this checkout" % cdx.__file__)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = OUT / ("work-%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    workdir.mkdir()
    try:
        workload = wl.WORKLOADS[args.workload](str(workdir), args.seed, trace=bool(args.trace))
        result = measure(args, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
