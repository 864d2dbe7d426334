"""Known faults, each of which must fail its named tests.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

A mutant is one exact piece of text in one file under src/ and what it
is replaced with, plus the ids of the tests that must catch it.  The
runner first runs every named test on an unchanged copy of src/, tests/
and pyproject.toml, where all must pass.  Then, for each mutant, it
makes a fresh copy, replaces the text (which must occur exactly once),
runs only that mutant's tests there, and requires pytest to report a
failure (exit status 1).  pyproject.toml puts the copy's src/ first on
the path, so the tests import the mutated package.  The exit status is
0 when every mutant is caught.

Equivalent, so not listed: chain_sum's slot bound with ``3 * top`` in
place of ``2 * top``.  The chain_sum docstring shows that ``2 * top``
bounds every coefficient read back, so the larger bound changes no
result, only the slot width of a few inputs.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple


MUTANTS = [
    Mutant("warshall-step-fewer", "src/cdx/oracle.py",
           "for k in range(n):\n            R |=", "for k in range(n - 1):\n            R |=",
           ("tests/test_oracle.py::test_component_count_dimensions_match_affine_rank",
            "tests/test_oracle.py::test_octahedron_lattice")),
    Mutant("w-faces-include-the-cut-plane", "src/cdx/engine.py",
           "n1 + n2 < n:", "n1 + n2 <= n:",
           ("tests/test_engine.py::test_grouped_w_term_matches_the_per_piece_sum",
            "tests/test_engine.py::test_w_term_equals_its_dual_pairs_term")),
    Mutant("slot-bound-without-the-facet", "src/cdx/ncpoly.py",
           "top += _top(facet, dim - 1)", "top += 0",
           ("tests/test_ncpoly.py::test_chain_sum_facet_coefficients_set_the_slot_width",)),
    Mutant("slot-bound-not-doubled", "src/cdx/ncpoly.py",
           "top = 2 * top +", "top = top +",
           ("tests/test_hypersimplex.py::test_chain_sum_slot_bound_doubles_each_step",)),
    Mutant("max-read-guard-off-by-one", "src/cdx/ncpoly.py",
           "if best[0] < 1 << 63:", "if best[0] <= 1 << 63:",
           ("tests/test_ncpoly.py::test_the_maximum_read_from_the_words_agrees_with_unpack",)),
    Mutant("max-read-low-word-first", "src/cdx/ncpoly.py",
           "cols.reverse()", "pass",
           ("tests/test_ncpoly.py::test_the_maximum_read_from_the_words_agrees_with_unpack",)),
    Mutant("no-empty-face", "src/cdx/oracle.py",
           "    faces.add(0)\n    return faces", "    return faces",
           ("tests/test_oracle.py::test_point",)),
    Mutant("w-count-changed-above-11", "src/cdx/engine.py",
           "cd_hypersimplex_product(k1, n1, k2, n2), ct1 * ct2)",
           "cd_hypersimplex_product(k1, n1, k2, n2), ct1 * ct2 + (n1 + n2 > 11))",
           ("tests/test_engine.py::test_pinned_w_digests_above_the_reference_range",)),
    Mutant("w-point-factor-admitted", "src/cdx/engine.py",
           "0 < k2 < n2 and", "0 <= k2 < n2 and",
           ("tests/test_engine.py::test_w_term_minimal_overlap_closed_form",
            "tests/test_engine.py::test_w_term_degenerate_empty_sum")),
    Mutant("cuspidal-hi-below-r", "src/cdx/cuspidal.py",
           "if hi <= r:", "if hi < r:",
           ("tests/test_cuspidal.py::test_grouped_recursion_matches_the_per_face_type_sum",
            "tests/test_cuspidal.py::test_duality")),
    Mutant("negative-coefficient-check-dropped", "src/cdx/engine.py",
           "        if k < 0:\n            raise InternalError",
           "        if False:\n            raise InternalError",
           ("tests/test_engine.py::test_result_check_reads_the_vertex_count_off_the_index",)),
    Mutant("unstable-face-order", "src/cdx/oracle.py",
           'np.argsort(dims, kind="stable")', "np.argsort(dims)",
           ("tests/test_oracle.py::test_faces_are_sorted_and_packed_row_by_row",)),
    Mutant("widen-from-the-wrong-width", "src/cdx/ncpoly.py",
           "_repack(packs[old], _cd_count(deg), old, bits)",
           "_repack(packs[old], _cd_count(deg), bits, bits)",
           ("tests/test_ncpoly.py::test_a_chain_sum_result_is_repacked_from_its_own_packing",
            "tests/test_cuspidal.py::test_pinned_digests_past_the_64_bit_slots")),
    Mutant("rank-levels-skip-the-last-element", "src/cdx/matroid.py",
           "for e, w in enumerate(with_e):\n                    level |=",
           "for e, w in enumerate(with_e[:-1]):\n                    level |=",
           ("tests/test_rank_table.py::test_named_matroids_match_reference",)),
    Mutant("dual-digits-not-reversed", "src/cdx/matroid.py",
           "int(digits[::-1], 2)", "int(digits, 2)",
           ("tests/test_matroid.py::test_cyclic_flats_of_dual",)),
    Mutant("exchange-graph-skips-the-last-element", "src/cdx/matroid.py",
           "for x in _bits(((1 << self.n) - 1) ^ base):",
           "for x in _bits(((1 << self.n) - 1) ^ base)[:-1]:",
           ("tests/test_matroid.py::test_component_sets_match_the_all_bases_sweep",)),
    Mutant("doubled-chain-row", "src/cdx/oracle.py",
           "[np.ones((1, lo[d + 1] - lo[d]))]", "[2 * np.ones((1, lo[d + 1] - lo[d]))]",
           ("tests/test_oracle.py::test_octahedron_lattice",)),
    Mutant("float32-guard-removed", "src/cdx/oracle.py",
           "if A.shape[1] >= _EXACT32:", "if False:",
           ("tests/test_oracle.py::test_containment_refuses_inexact_float32_counts",)),
    Mutant("intersections-without-the-row-itself", "src/cdx/oracle.py",
           "faces |= {f & g for f in faces}", "faces |= {f & g for f in faces if f != full}",
           ("tests/test_oracle.py::test_octahedron_lattice",)),
    Mutant("rows-of-one-vertex-skipped", "src/cdx/oracle.py",
           "_close(sorted(rows, key=int.bit_count, reverse=True)",
           "_close(sorted([g for g in rows if g & (g - 1)], key=int.bit_count, reverse=True)",
           ("tests/test_oracle.py::test_facet_closure_matches_the_weight_vector_scan",)),
    Mutant("cuspidal-chain-sum-times-one", "src/cdx/cuspidal.py",
           "facet=cd_hypersimplex_product(r, h, k - r, n - h))",
           "facet=cd_hypersimplex_product(r, h, k - r, n - h)) * 1",
           ("tests/test_cuspidal.py::test_the_recursions_build_no_chain_weight",)),
    Mutant("cuspidal-memo-under-the-larger-key", "src/cdx/cuspidal.py",
           "MEMO.lookup(min(", "MEMO.lookup(max(",
           ("tests/test_cuspidal.py::test_memo_stores_one_entry_per_polytope",)),
    Mutant("cuspidal-dual-write-put-back", "src/cdx/cuspidal.py",
           "    return chain_sum(n - 1, vertex_count(k, n, r - 1, h), faces,\n"
           "                     facet=cd_hypersimplex_product(r, h, k - r, n - h))",
           "    return MEMO.put(dual_key(k, n, r, h), chain_sum(\n"
           "        n - 1, vertex_count(k, n, r - 1, h), faces,\n"
           "        facet=cd_hypersimplex_product(r, h, k - r, n - h)))",
           ("tests/test_cuspidal.py::test_memo_stores_one_entry_per_polytope",)),
    Mutant("cache-degree-one-too-many", "src/cdx/cli.py",
           "degrees <= {degree}", "degrees <= {degree, degree + 1}",
           ("tests/test_cli.py::test_cache_record_with_a_corrupt_cd_is_skipped[degree]",)),
    Mutant("cache-coefficient-type-unchecked", "src/cdx/cli.py",
           "types <= {int, str}", "True",
           ("tests/test_cli.py::test_cache_record_with_a_corrupt_cd_is_skipped[overflow]",)),
    Mutant("cache-letters-unchecked", "src/cdx/cli.py",
           'letters <= {"c", "d"}', "True",
           ("tests/test_cache_property.py::"
            "test_whole_record_checks_match_the_per_word_reference",)),
]


def _copy(dest):
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(dest, name), ignore=skip)
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), dest)


def _pytest(cwd, tests):
    """pytest's exit status and its last output line, run on the copy."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests],
        cwd=cwd, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else proc.stderr.strip()


def _apply(dest, mutant):
    path = os.path.join(dest, mutant.path)
    with open(path) as fh:
        text = fh.read()
    if text.count(mutant.old) != 1:
        raise SystemExit("mutant %s: its old text occurs %d times in %s"
                         % (mutant.name, text.count(mutant.old), mutant.path))
    with open(path, "w") as fh:
        fh.write(text.replace(mutant.old, mutant.new))


def main(names):
    known = {m.name: m for m in MUTANTS}
    unknown = [n for n in names if n not in known]
    if unknown:
        raise SystemExit("no mutant named %s" % ", ".join(unknown))
    chosen = [known[n] for n in names] if names else MUTANTS
    with tempfile.TemporaryDirectory() as tmp:
        _copy(tmp)
        tests = sorted({t for m in chosen for t in m.tests})
        status, last = _pytest(tmp, tests)
        if status != 0:
            print("unchanged copy: the named tests do not pass (%s)" % last)
            return 1
    survived = 0
    for m in chosen:
        with tempfile.TemporaryDirectory() as tmp:
            _copy(tmp)
            _apply(tmp, m)
            status, last = _pytest(tmp, m.tests)
        caught = status == 1
        survived += not caught
        print("%-8s %s: %s" % ("caught" if caught else "SURVIVED", m.name, last))
    print("%d of %d mutants caught" % (len(chosen) - survived, len(chosen)))
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
