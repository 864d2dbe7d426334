"""The benchmark's workloads: their inputs, their passes and their checks.

Every workload is a closed loop with one client: items run one after
another in this process, each starting when the previous one returns.
A pass runs every item of the workload once, after the in-memory memo
tables are emptied, so each pass starts as cold as a fresh ``cdx``
process.  Each workload is chosen so that one layer does most of its
work:

- ``compute-cold``: ``cdx compute --f-vector`` on seven matroids with a
  fresh cache file per pass.  ``product.cd_product`` dominates, through
  the cuspidal recursion.
- ``compute-warm``: the same items on a cache filled during set-up.
  The product work drops out and ``matroid`` (the split test) dominates.
- ``verify-n7``: ``cdx verify --max-n 7``, dominated by the face-lattice
  oracle.
- ``hypersimplex-n20``: ``cd_hypersimplex(k, n)`` for 1 <= k < n <= 20,
  which runs only ``hypersimplex`` and ``ncpoly``.

This module imports only the standard library at load time; the
program is imported by the caller once ``src`` is on the path.
"""

import contextlib
import hashlib
import io
import json
import os
import random
from math import comb

SPARSE_N, SPARSE_K, SPARSE_LAMBDA = 12, 6, 3

COMPUTE_FIXED = [
    ("fano", ["--builtin", "fano"]),
    ("vamos", ["--builtin", "vamos"]),
    ("example-m1", ["--builtin", "example-m1"]),
    ("mk4", ["--builtin", "mk4"]),
    ("cuspidal-5-12-3-6", ["--builtin", "cuspidal", "--k", "5", "--n", "12",
                           "--r", "3", "--h", "6"]),
    ("square", ["--file", "square.json"]),
]
SPARSE_LABEL = "sparse-12-6"
PAPER_CHECKED = ("fano", "vamos", "example-m1")

# the README's square: two parallel classes of size two
SQUARE = {"n": 4, "rank": 2, "bases": [[1, 3], [1, 4], [2, 3], [2, 4]]}

VERIFY_MAX_N = 7
VERIFY_LAST_LINE = "verify: 107 checked, 0 failed (max n = 7)"
HYPERSIMPLEX_MAX_N = 20

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


def sparse_hyperplanes(seed):
    """Three circuit hyperplanes of a sparse paving (12, 6) matroid.

    Elements are 1-based.  The second hyperplane meets the first in
    exactly k - 2 = 4 elements, so every seed gives a modular pair
    (mu >= 1); the third meets each of the others in at most 4, which
    keeps the family sparse paving.
    """
    rng = random.Random(seed)
    ground = list(range(1, SPARSE_N + 1))
    first = rng.sample(ground, SPARSE_K)
    rest = [e for e in ground if e not in first]
    second = rng.sample(first, SPARSE_K - 2) + rng.sample(rest, 2)
    chs = [frozenset(first), frozenset(second)]
    while len(chs) < SPARSE_LAMBDA:
        cand = frozenset(rng.sample(ground, SPARSE_K))
        if all(len(cand & f) <= SPARSE_K - 2 for f in chs):
            chs.append(cand)
    return [sorted(f) for f in chs]


def cyclic_flats_file(chs):
    return {"n": SPARSE_N, "rank": SPARSE_K,
            "cyclic_flats": [{"set": list(f), "rank": SPARSE_K - 1} for f in chs]}


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def hypersimplex_entries():
    return [(k, n) for n in range(2, HYPERSIMPLEX_MAX_N + 1) for k in range(1, n)]


def load_golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def clear_memos():
    """Empty the program's memo tables through its public functions."""
    from cdx import cuspidal, engine, hypersimplex

    hypersimplex.memo_clear()
    cuspidal.memo_clear()
    engine.w_memo_clear()


def memo_sizes():
    from cdx import cuspidal, engine, hypersimplex

    return {"hypersimplex": len(hypersimplex.memo_snapshot()),
            "cuspidal": len(cuspidal.memo_snapshot()),
            "w": len(engine.w_memo_snapshot())}


def run_cli(argv):
    """``cdx.cli.main`` in-process; returns (exit code, stdout)."""
    from cdx import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


def compute_argv(item_args, cache_path):
    return ["compute", *item_args, "--f-vector", "--cache", cache_path]


class Workload:
    """One workload: inputs made from a seed, passes, and output checks.

    ``generate`` makes the inputs (timed as part of set-up);
    ``prepare_checks`` computes what the outputs must be (not timed);
    ``begin_pass`` does untimed per-pass housekeeping; ``items`` are
    ``(label, call)`` pairs whose calls return the raw output, and
    ``check`` judges one output.  ``scaled`` says whether the item
    times are scaled to reference seconds (see ``calibrate.py``).
    """

    name = None
    prefill = False
    scaled = True

    def __init__(self, workdir, seed, trace=False):
        self.workdir = workdir
        self.seed = seed
        self.trace = trace

    def generate(self):
        pass

    def prepare_checks(self):
        pass

    def begin_pass(self):
        clear_memos()

    def items(self):
        raise NotImplementedError

    def check(self, label, output):
        raise NotImplementedError


class ComputeWorkload(Workload):
    cache_name = None

    def generate(self):
        with open(os.path.join(self.workdir, "square.json"), "w") as fh:
            json.dump(SQUARE, fh)
        self.chs = sparse_hyperplanes(self.seed)
        with open(os.path.join(self.workdir, "sparse.json"), "w") as fh:
            json.dump(cyclic_flats_file(self.chs), fh)

    @property
    def cache_path(self):
        return os.path.join(self.workdir, self.cache_name)

    def item_args(self):
        """``(label, compute arguments)``; file paths are relative to workdir."""
        out = []
        for label, args in COMPUTE_FIXED + [(SPARSE_LABEL, ["--file", "sparse.json"])]:
            args = [os.path.join(self.workdir, a) if a.endswith(".json") else a
                    for a in args]
            out.append((label, args))
        return out

    def prepare_checks(self):
        from cdx import cli, engine, matroid
        from cdx.ncpoly import cd_to_flag_f

        golden = load_golden()["compute"]
        self.expected = {label: golden[label] for label, _ in COMPUTE_FIXED}
        self.paper = {label: cli.PAPER_VALUES[label] for label in PAPER_CHECKED}
        M = matroid.sparse_paving(SPARSE_N, SPARSE_K,
                                  [[e - 1 for e in f] for f in self.chs])
        p = engine.cd_sparse_paving(M)
        fv = cd_to_flag_f(p, p.degree()).f_vector()
        if fv[0] != comb(SPARSE_N, SPARSE_K) - SPARSE_LAMBDA:
            raise RuntimeError("sparse paving fast path gives f0 = %d" % fv[0])
        self.expected[SPARSE_LABEL] = "%s\nf-vector: %s\n" % (
            p.text(), " ".join(str(x) for x in fv))
        clear_memos()

    def items(self):
        cache = self.cache_path
        return [(label, lambda args=args: run_cli(compute_argv(args, cache)))
                for label, args in self.item_args()]

    def check(self, label, output):
        rc, stdout = output
        if rc != 0 or stdout != self.expected[label]:
            return False
        if label in self.paper and stdout.splitlines()[0] != self.paper[label]:
            return False
        return True


class ComputeCold(ComputeWorkload):
    name = "compute-cold"
    cache_name = "cold-cache.jsonl"

    def begin_pass(self):
        clear_memos()
        if os.path.exists(self.cache_path):
            os.remove(self.cache_path)


class ComputeWarm(ComputeWorkload):
    name = "compute-warm"
    cache_name = "warm-cache.jsonl"
    prefill = True


class VerifyN7(Workload):
    name = "verify-n7"
    # on two threads the work moves between vCPUs and does not follow the
    # one-thread calibration kernel, so its times are reported as measured
    scaled = False

    def items(self):
        # one thread when traced, so every span lands on the tracer's stack
        threads = "1" if self.trace else "2"
        argv = ["verify", "--max-n", str(VERIFY_MAX_N), "--threads", threads]
        return [("verify", lambda: run_cli(argv))]

    def check(self, label, output):
        rc, stdout = output
        lines = stdout.splitlines()
        return rc == 0 and bool(lines) and lines[-1] == VERIFY_LAST_LINE


class HypersimplexN20(Workload):
    name = "hypersimplex-n20"

    def prepare_checks(self):
        self.expected = load_golden()["hypersimplex"]

    def items(self):
        from cdx import hypersimplex

        # looked up at call time, so a tracer's wrapper is seen
        return [("%d,%d" % (k, n), lambda k=k, n=n: hypersimplex.cd_hypersimplex(k, n))
                for k, n in hypersimplex_entries()]

    def check(self, label, output):
        return digest(output.text()) == self.expected[label]


WORKLOADS = {w.name: w for w in (ComputeCold, ComputeWarm, VerifyN7, HypersimplexN20)}
