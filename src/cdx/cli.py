"""Command-line front end: compute cd-indices, verify against the oracle,
and keep a persistent result cache.

`verify` runs one PASS/FAIL loop over a list of named checks, each a
formula result and its reference: the corpus against the face-lattice
oracle, or with `--only paper-values` the cd-indices printed in the
paper.  Corpus names that give one labelled matroid share one oracle
run per call.  A selection with no check in it is invalid input.  Every
named corpus family but the hypersimplices is built by
`Matroid.from_cyclic_flats`.  `verify --cache FILE` instead recomputes
the records of that cache and runs no corpus.

`compute --cache FILE` reads every record of the cache back into the
memo tables and appends the entries it lacks.  Each record is checked
whole: one set of its letters, one of its word degrees and one of its
coefficient types, each against the set the rules allow.

Elements in files and printed diagnostics are 1-based; everything
internal is 0-based.
"""

import argparse
import fcntl
import json
import os
import sys
from itertools import accumulate, combinations, combinations_with_replacement, repeat
from math import comb

from . import cuspidal, engine, hypersimplex, matroid
from .errors import CacheVersionMismatch, CdxError, InvalidParams
from .matroid import Matroid
from .ncpoly import NcPoly, cd_f_vector, cd_to_flag_f, from_terms

EXIT_CODES = {
    "NOT_A_MATROID": 2,
    "PRESENTATION_MISMATCH": 2,
    "EMPTY_MATROID": 2,
    "INVALID_PARAMS": 2,
    "UNSUPPORTED_MATROID": 3,
    "SCALE_EXCEEDED": 4,
}


# -- matroid sources --------------------------------------------------


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _file_elements(path, what, elems, n):
    """A 1-based element list read from a file, checked, made 0-based."""
    if not isinstance(elems, list) or not all(_is_int(e) for e in elems):
        raise InvalidParams("%s: %s %r is not a list of integers" % (path, what, elems))
    if not all(1 <= e <= n for e in elems):
        raise InvalidParams("%s: %s %r out of range for n=%d (elements are 1-based)"
                            % (path, what, elems, n))
    return [e - 1 for e in elems]


def load_matroid_file(path):
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InvalidParams("cannot read %s: %s" % (path, exc))
    except (ValueError, RecursionError) as exc:  # JSON, UTF-8 and int-digit errors
        raise InvalidParams("%s is not valid JSON: %s" % (path, exc))
    if not isinstance(data, dict) or "n" not in data or "rank" not in data:
        raise InvalidParams("%s: expected an object with n, rank" % path)
    n, rank = data["n"], data["rank"]
    if not (_is_int(n) and _is_int(rank)):
        raise InvalidParams("%s: n and rank must be integers, got n=%r rank=%r"
                            % (path, n, rank))
    if "bases" in data and "cyclic_flats" in data:
        raise InvalidParams("%s: give either bases or cyclic_flats, not both" % path)
    if "bases" in data:
        if not isinstance(data["bases"], list):
            raise InvalidParams("%s: bases must be a list of element lists" % path)
        bases = [_file_elements(path, "basis", b, n) for b in data["bases"]]
        return Matroid.from_bases(n, rank, bases)
    if "cyclic_flats" in data:
        if not isinstance(data["cyclic_flats"], list):
            raise InvalidParams("%s: cyclic_flats must be a list of objects" % path)
        flats = []
        for f in data["cyclic_flats"]:
            if not isinstance(f, dict) or "set" not in f or not _is_int(f.get("rank")):
                raise InvalidParams("%s: cyclic flat %r needs a set and an integer rank"
                                    % (path, f))
            flats.append((_file_elements(path, "cyclic flat", f["set"], n), f["rank"]))
        return Matroid.from_cyclic_flats(n, rank, flats)
    raise InvalidParams("%s: needs either bases or cyclic_flats" % path)


_FIXED_BUILTINS = {
    "fano": matroid.fano,
    "vamos": matroid.vamos,
    "mk4": matroid.mk4,
    "example-m1": matroid.example_m1,
    "example-m2": matroid.example_m2,
    "example-m3": matroid.example_m3,
    "example-535": matroid.example_535,
}


def builtin_matroid(name, args):
    if name in _FIXED_BUILTINS:
        return _FIXED_BUILTINS[name]()
    if name in ("uniform", "hypersimplex"):
        if args.k is None or args.n is None:
            raise InvalidParams("builtin %s needs --k and --n" % name)
        return Matroid.uniform(args.k, args.n)
    if name == "cuspidal":
        if None in (args.k, args.n, args.r, args.h):
            raise InvalidParams("builtin cuspidal needs --k --n --r --h")
        return cuspidal.cuspidal_matroid(args.k, args.n, args.r, args.h)
    raise InvalidParams(
        "unknown builtin %r (have: uniform, hypersimplex, cuspidal, %s)"
        % (name, ", ".join(sorted(_FIXED_BUILTINS)))
    )


# -- persistent cache -------------------------------------------------

CACHE_VERSION = 1
# each persisted kind's table, and the check that refuses a key the table
# never stores and returns the degree of the cd-index stored there
_KINDS = {"hypersimplex": (hypersimplex.MEMO, hypersimplex._check_key),
          "cuspidal": (cuspidal.MEMO, cuspidal.check_key),
          "w": (engine.W_MEMO, engine.check_w_key)}
# the largest degree compute stores: a cd-index on at most _ENUM_CAP elements
VERIFY_MAX_DEGREE = matroid._ENUM_CAP - 1


def poly_to_json(p):
    t = p.terms()
    return dict(zip(t, map(str, t.values())))


def poly_from_json(obj, degree):
    """A record's cd-index: words over c, d of the given degree, each with an
    integer or integer-string coefficient; anything else raises ValueError."""
    words, coeffs = obj.keys(), obj.values()
    letters = set("".join(words))
    # a word's degree is its length once each d is written cc
    degrees = set(map(len, map(str.replace, words, repeat("d"), repeat("cc"))))
    types = set(map(type, coeffs))  # bool and float are not int
    if not (letters <= {"c", "d"} and degrees <= {degree} and types <= {int, str}):
        raise ValueError("not a cd-index of degree %d" % degree)
    return from_terms(dict(zip(words, map(int, coeffs))))  # every word checked above


class CacheStore:
    def __init__(self, path):
        self.path = path
        self.known = set()  # (kind, key-tuple) already present in the file
        self.corrupt = 0  # records the last load skipped as corrupt

    def load(self, install=True):
        """Read records; returns them as (kind, key, poly) triples.  A record
        that does not parse, or that its table would never store, is
        skipped with a warning; with install the rest go into the tables."""
        out = []
        self.corrupt = 0
        try:
            with open(self.path, "rb") as fh:
                lines = fh.read().splitlines()
        except FileNotFoundError:
            return out
        except OSError as exc:
            raise InvalidParams("cannot read cache %s: %s" % (self.path, exc))
        for idx, raw in enumerate(lines):
            try:
                line = raw.decode("utf-8").strip()  # UnicodeDecodeError is a ValueError
                if not line:
                    continue
                rec = json.loads(line)
                if rec["v"] != CACHE_VERSION:
                    raise CacheVersionMismatch(
                        "%s: record %d has version %r, this build reads version %d"
                        % (self.path, idx + 1, rec["v"], CACHE_VERSION)
                    )
                kind, key = rec["kind"], rec["key"]
                if kind not in _KINDS:
                    raise CacheVersionMismatch(
                        "%s: record %d has unknown kind %r" % (self.path, idx + 1, kind)
                    )
                if not isinstance(key, list) or not set(map(type, key)) <= {int}:
                    raise ValueError("key %r is not a list of integers" % (key,))
                key = tuple(key)
                table, check = _KINDS[kind]
                poly = poly_from_json(rec["cd"], check(*key))
                if install:
                    # a cuspidal record written under its dual's key by an
                    # older version goes where cd_cuspidal looks it up
                    table.put(min(key, cuspidal.dual_key(*key))
                              if kind == "cuspidal" else key, poly)
            except (RecursionError, AttributeError, KeyError, TypeError, ValueError,
                    InvalidParams):
                sys.stderr.write(
                    "warning: %s: record %d is corrupt, skipping it\n"
                    % (self.path, idx + 1)
                )
                self.corrupt += 1
                continue
            self.known.add((kind, key))
            out.append((kind, key, poly))
        return out

    def append_new(self):
        """Append records for memo entries not yet in the file."""
        recs = []
        for kind, (table, _) in _KINDS.items():
            for key, poly in sorted(table.snapshot().items()):
                kt = tuple(key)
                if (kind, kt) not in self.known:
                    recs.append(
                        {"v": CACHE_VERSION, "kind": kind, "key": list(kt),
                         "cd": poly_to_json(poly)}
                    )
                    self.known.add((kind, kt))
        if recs:
            text = "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in recs)
            with self.open_append() as fh:
                # held until close, so processes sharing the file append
                # whole batches, one after another
                fcntl.flock(fh, fcntl.LOCK_EX)
                if fh.seek(0, os.SEEK_END):
                    fh.seek(-1, os.SEEK_END)
                    if fh.read(1) != b"\n":
                        # end a truncated last record, so the first new one
                        # is not glued onto it
                        text = "\n" + text
                fh.write(text.encode())
        return len(recs)

    def open_append(self):
        """The cache file opened for appending, created empty if missing."""
        try:
            return open(self.path, "a+b")
        except OSError as exc:
            raise InvalidParams("cannot write cache %s: %s" % (self.path, exc))

    def verify(self):
        """Recompute each record from scratch and compare.  Returns the
        count of records recomputed, the (kind, key, stored, fresh)
        mismatches, the count skipped and the count corrupt: a record
        above VERIFY_MAX_DEGREE, which compute never stores and whose
        recomputation can outgrow any machine, is not recomputed, with a
        warning each."""
        checked, bad, skipped = 0, [], 0
        for kind, key, poly in self.load(install=False):
            table, check = _KINDS[kind]
            degree = check(*key)
            if degree > VERIFY_MAX_DEGREE:
                sys.stderr.write(
                    "warning: %s: %s record %r has degree %d, above the %d "
                    "that compute stores; not recomputing it\n"
                    % (self.path, kind, list(key), degree, VERIFY_MAX_DEGREE)
                )
                skipped += 1
                continue
            checked += 1
            fresh = table.compute(*key)
            if fresh != poly:
                bad.append((kind, key, poly, fresh))
        return checked, bad, skipped, self.corrupt


# -- compute ----------------------------------------------------------


def cmd_compute(args):
    if args.builtin:
        M = builtin_matroid(args.builtin, args)
    else:
        M = load_matroid_file(args.file)
    cache = None
    if args.cache:
        cache = CacheStore(args.cache)
        cache.load()
        cache.open_append().close()  # refuse an unwritable cache before computing
    p = engine.cd_index(M, oracle_fallback=args.oracle_fallback)
    if cache:
        cache.append_new()
    dim = p.degree()
    fvec = cd_f_vector(p, dim) if args.f_vector else None
    rows = []  # (label of S, f_S), S by size and then as a sorted list
    if args.flag_f:
        flag = cd_to_flag_f(p, dim)
        sets = sorted((len(S), sorted(S), v) for S, v in flag.entries().items())
        rows = [(",".join(str(d) for d in S), v) for _, S, v in sets]
    if args.format == "json":
        obj = {"cd": poly_to_json(p)}
        if args.f_vector:
            obj["f_vector"] = list(fvec)
        if args.flag_f:
            obj["flag_f"] = {label: str(v) for label, v in rows}
        print(json.dumps(obj, sort_keys=True))
    else:
        print(p.text())
        if args.f_vector:
            print("f-vector: %s" % " ".join(str(x) for x in fvec))
        for label, v in rows:
            print("flag[%s] = %d" % (label, v))
    return 0


# -- verification corpus ----------------------------------------------


def _sparse_paving_instances(n, k):
    """One connected sparse paving instance per reachable (lambda, mu)
    with at most three circuit hyperplanes."""
    if k < 2 or n - k < 2:
        return
    # k-sets in combinations order, which is the order their tuples sort in,
    # so a later index is a larger tuple; each is met through its bitmask
    subsets = list(combinations(range(n), k))
    masks = [sum(1 << e for e in c) for c in subsets]
    seen = {}

    def ok_pair(i, j):
        return (masks[i] & masks[j]).bit_count() <= k - 2

    def mu_of(chosen):
        return sum(1 for i, j in combinations(chosen, 2)
                   if (masks[i] & masks[j]).bit_count() == k - 2)

    def emit(chosen):
        sig = (len(chosen), mu_of(chosen))
        if sig in seen:
            return
        chs = [subsets[i] for i in chosen]
        try:
            M = matroid.sparse_paving(n, k, chs)
            matroid.split_profile(M)  # NotConnected or NotSplit otherwise
        except CdxError:
            return
        seen[sig] = (chs, M)

    # the ground set is symmetric, so the first hyperplane can be fixed
    emit([0])
    for g in range(1, len(subsets)):
        if ok_pair(0, g):
            emit([0, g])
    want3 = {(3, m) for m in range(4)}
    for g in range(1, len(subsets)):
        if not ok_pair(0, g):
            continue
        for h in range(g + 1, len(subsets)):
            if ok_pair(0, h) and ok_pair(g, h):
                emit([0, g, h])
        if want3 <= set(seen):
            break
    for sig in sorted(seen):
        chs, M = seen[sig]
        yield ("sparse-%d-%d-l%d-m%d" % (k, n, sig[0], sig[1]), M)


def _rank2_instances(n):
    """Rank-2 matroids with 3..5 parallel classes, one per size multiset,
    sizes in descending order; each class of two or more elements is a
    cyclic flat of rank 1."""
    for c in range(3, min(n, 5) + 1):
        for sizes in combinations_with_replacement(range(n, 0, -1), c):
            if sum(sizes) != n or sizes[0] == 1:
                continue  # all ones is the uniform matroid again
            ends = list(accumulate(sizes, initial=0))
            flats = [(range(a, b), 1) for a, b in zip(ends, ends[1:]) if b - a > 1]
            name = "rank2-%s" % "+".join(str(s) for s in sizes)
            yield (name, Matroid.from_cyclic_flats(n, 2, flats))


def corpus(max_n):
    """The named verification corpus of connected split matroids."""
    out = []
    for n in range(2, max_n + 1):
        for k in range(1, n):
            out.append(("hypersimplex-%d-%d" % (k, n), Matroid.uniform(k, n)))
    for n in range(3, max_n + 1):
        for k in range(1, n):
            for h in range(2, n):
                for r in range(1, min(k, h)):
                    try:
                        cuspidal.check_key(k, n, r, h)
                    except InvalidParams:
                        continue
                    out.append(
                        ("cuspidal-%d-%d-%d-%d" % (k, n, r, h),
                         cuspidal.cuspidal_matroid(k, n, r, h))
                    )
    for n in range(4, max_n + 1):
        for k in range(2, n - 1):
            out.extend(_sparse_paving_instances(n, k))
    for n in range(3, max_n + 1):
        out.extend(_rank2_instances(n))
    if max_n >= 5:
        out.append(("example-535", matroid.example_535()))
    return out


PAPER_VALUES = {
    "hypersimplex-2-5":
        "cccc + 8*ccd + 20*cdc + 8*dcc + 14*dd",
    "example-m1":
        "ccccccc + 16*cccccd + 110*ccccdc + 376*cccdcc + 456*cccdd"
        " + 633*ccdccc + 1550*ccdcd + 1834*ccddc + 460*cdcccc + 1768*cdccd"
        " + 3616*cdcdc + 2664*cddcc + 3664*cddd + 66*dccccc + 408*dcccd"
        " + 1300*dccdc + 1816*dcdcc + 2432*dcdd + 1034*ddccc + 2748*ddcd + 3428*dddc",
    "example-m2":
        "ccccccc + 16*cccccd + 110*ccccdc + 376*cccdcc + 456*cccdd"
        " + 634*ccdccc + 1552*ccdcd + 1836*ccddc + 460*cdcccc + 1768*cdccd"
        " + 3616*cdcdc + 2664*cddcc + 3664*cddd + 66*dccccc + 408*dcccd"
        " + 1300*dccdc + 1816*dcdcc + 2432*dcdd + 1036*ddccc + 2752*ddcd + 3432*dddc",
    "example-m3": None,  # filled below: equals example-m2
    "fano":
        "cccccc + 19*ccccd + 91*cccdc + 145*ccdcc + 221*ccdd + 98*cdccc"
        " + 364*cdcd + 490*cddc + 26*dcccc + 186*dccd + 462*dcdc + 298*ddcc + 482*ddd",
    "vamos":
        "ccccccc + 19*cccccd + 131*ccccdc + 415*cccdcc + 510*cccdd"
        " + 635*ccdccc + 1596*ccdcd + 1922*ccddc + 415*cdcccc + 1690*cdccd"
        " + 3580*cdcdc + 2670*cddcc + 3700*cddd + 63*dccccc + 432*dcccd"
        " + 1438*dccdc + 2020*dcdcc + 2720*dcdd + 1098*ddccc + 2984*ddcd + 3772*dddc",
}
PAPER_VALUES["example-m3"] = PAPER_VALUES["example-m2"]


def _paper_formula(name):
    if name == "hypersimplex-2-5":
        return hypersimplex.cd_hypersimplex(2, 5)
    return engine.cd_split_matroid(_FIXED_BUILTINS[name]())


def cmd_verify(args):
    if args.cache:  # the cache audit alone; --only and --max-n do not apply
        checked, bad, skipped, corrupt = CacheStore(args.cache).verify()
        tail = "".join(", %d %s" % (count, what) for count, what in
                       ((skipped, "skipped"), (corrupt, "corrupt")) if count)
        if not bad:
            print("cache verify: %d records OK%s" % (checked, tail))
            return 0
        for kind, key, stored, fresh in bad:
            print("FAIL cache %s %r" % (kind, list(key)))
            print("  stored:     %s" % stored.text())
            print("  recomputed: %s" % fresh.text())
        print("cache verify: %d bad of %d records%s" % (len(bad), checked, tail))
        return 1
    from . import oracle  # only here: it loads numpy, which no other path needs

    if args.max_n > oracle.DEFAULT_MAX_N:
        raise InvalidParams("verify is oracle-bound; --max-n must be <= %d"
                            % oracle.DEFAULT_MAX_N)
    # a check is a name and a thunk giving (formula, reference); a mode
    # gives the two labels of a FAIL report and the summary line
    if args.only == "paper-values":
        labels, summary = ("formula:  ", "reference:"), "paper-values: %d checked, %d failed"
        checks = [(name, lambda name=name, text=text: (_paper_formula(name),
                                                       NcPoly.from_text(text)))
                  for name, text in PAPER_VALUES.items()]
    else:
        labels = ("formula:", "oracle: ")
        summary = "verify: %%d checked, %%d failed (max n = %d)" % args.max_n
        refs = {}  # one oracle run per labelled matroid in this call

        def reference(M):
            key = (M.n, M.rank, M.family)
            if key not in refs:
                refs[key] = oracle.oracle_cd_index(M)
            return refs[key]

        checks = [(name, lambda M=M: (engine.cd_index(M), reference(M)))
                  for name, M in corpus(args.max_n) if name.startswith(args.only or "")]
        if not checks:
            raise InvalidParams("--max-n %d%s selects no corpus instance" % (
                args.max_n, " with --only %r" % args.only if args.only else ""))

    failures = 0
    for name, check in checks:
        got, want = check()
        if got == want:
            print("PASS %s" % name)
        else:
            failures += 1
            print("FAIL %s" % name)
            print("  %s %s" % (labels[0], got.text()))
            print("  %s %s" % (labels[1], want.text()))
    print(summary % (len(checks), failures))
    return 1 if failures else 0


# -- entry point ------------------------------------------------------


def build_parser():
    ap = argparse.ArgumentParser(
        prog="cdx",
        description="Exact cd-index of matroid base polytopes "
                    "(split matroids by closed formula, anything small by oracle).",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compute", help="compute the cd-index of one matroid")
    src = pc.add_mutually_exclusive_group(required=True)
    src.add_argument("--builtin", help="uniform | hypersimplex | cuspidal | fano | "
                                       "vamos | mk4 | example-m1 | example-m2 | "
                                       "example-m3 | example-535")
    src.add_argument("--file", help="matroid JSON file (1-based elements)")
    pc.add_argument("--k", type=int, help="rank for parametrized builtins")
    pc.add_argument("--n", type=int, help="ground size for parametrized builtins")
    pc.add_argument("--r", type=int, help="flat rank for the cuspidal builtin")
    pc.add_argument("--h", type=int, help="flat size for the cuspidal builtin")
    pc.add_argument("--format", choices=("text", "json"), default="text")
    pc.add_argument("--flag-f", action="store_true", help="also print the flag f-vector")
    pc.add_argument("--f-vector", action="store_true", help="also print the f-vector")
    pc.add_argument("--cache", help="JSONL result cache")
    pc.add_argument("--oracle-fallback", action="store_true",
                    help="allow brute force on small non-split components")
    pc.set_defaults(func=cmd_compute)

    pv = sub.add_parser("verify", help="check the formulas against the brute-force oracle")
    pv.add_argument("--max-n", type=int, default=6,
                    help="corpus ground-set bound, at most 9 (default 6)")
    pv.add_argument("--only", default=None,
                    help="name prefix filter, or the literal 'paper-values'")
    pv.add_argument("--threads", type=int, default=1,
                    help="accepted for compatibility; has no effect")
    pv.add_argument("--cache", help="recompute every record of this JSONL cache "
                                    "instead of checking the corpus")
    pv.set_defaults(func=cmd_verify)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        rc = args.func(args)
        sys.stdout.flush()
        return rc
    except CdxError as exc:
        sys.stderr.write("error[%s]: %s\n" % (exc.code, exc))
        return EXIT_CODES.get(exc.code, 1)
    except BrokenPipeError:
        # the reader closed stdout early (cdx ... | head): whatever is still
        # buffered goes to devnull, so the flush at exit raises no more
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
