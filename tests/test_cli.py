import fcntl
import hashlib
import json
import os
import subprocess
import sys

import pytest

from cdx import cli, cuspidal, engine, hypersimplex, ncpoly, oracle
from cdx.matroid import Matroid, fano
from cdx.ncpoly import C, NcPoly


def run(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_compute_builtin_hypersimplex(capsys):
    rc, out, _ = run(capsys, "compute", "--builtin", "hypersimplex", "--k", "2", "--n", "5")
    assert rc == 0
    assert out.strip() == "cccc + 8*ccd + 20*cdc + 8*dcc + 14*dd"


def test_compute_fano_f_vector(capsys):
    rc, out, _ = run(capsys, "compute", "--builtin", "fano", "--f-vector")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[1].startswith("f-vector: 28 ")


CUSPIDAL_5_12_3_6 = ["--builtin", "cuspidal", "--k", "5", "--n", "12", "--r", "3", "--h", "6"]
# sha256 of the stdout of compute CUSPIDAL_5_12_3_6 --f-vector; the text
# is the benchmark's recorded golden output for this matroid
CUSPIDAL_F_VECTOR_SHA256 = {
    "text": "da5d4b2cc43db439605482884e336b8e05db91aa7bdc724c07e7bdf72170923d",
    "json": "23c65f93ad3c7ca053b9294310e40825ee059e0d52539a6f33004a0acf73cc22",
}


class FlagVectorCalled(Exception):
    pass


def no_flag_vector(terms, dim):
    raise FlagVectorCalled


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_f_vector_alone_builds_no_flag_vector(capsys, monkeypatch, fmt):
    monkeypatch.setattr(ncpoly, "_flag_vector", no_flag_vector)
    rc, out, _ = run(capsys, "compute", *CUSPIDAL_5_12_3_6, "--f-vector", "--format", fmt)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CUSPIDAL_F_VECTOR_SHA256[fmt]
    with pytest.raises(FlagVectorCalled):
        cli.main(["compute", *CUSPIDAL_5_12_3_6, "--f-vector", "--flag-f", "--format", fmt])


# sha256 of the stdout of compute --f-vector --flag-f, as printed when
# the f-vector was read off the flag vector
F_VECTOR_FLAG_F_SHA256 = {
    ("fano", "text"): "0d773444f6b27ab08ace5adfecbefc448e31a0dec5a0f7451bee87e69857c632",
    ("fano", "json"): "40af072603ae0b551025ae5ecbfaf1edec659862b7c6bb7a0de0b63c8d1a2b1a",
    ("vamos", "text"): "bcfa0e1fa7bbdb744e39b74309e94fecc15b5b92a46695837b371f144ac6601f",
    ("vamos", "json"): "de5798b5999ee4873a0765b713f719d958beee3a443d77a16d622b0bd6186a5e",
    ("mk4", "text"): "c96ffd5bc298b588fe23d2909f1fa87ef4c82b91d5c20f3ef106886898391c80",
    ("mk4", "json"): "bc72b36b32c1a6ee94c209ea29f28a7cd3a09e68c655dd0187a7828f8ed19142",
    ("example-m1", "text"): "4259e893d212c4d89ad2c30e6aeeb8ef7c5f39970cfadae3e2078cff1ae004bc",
    ("example-m1", "json"): "dff1d069b22cda963e16fa71360863af87b6e6781fdab718b3e6f8ef20baf2fc",
    ("example-m2", "text"): "29e060819c4c61173a93e4453861255fe5e3c8762dc8f54f975f776cb877e457",
    ("example-m2", "json"): "447ce7165b870666284c93cb81230399683a87ebd790a2f702c7cdab6d4b8e25",
    ("example-m3", "text"): "29e060819c4c61173a93e4453861255fe5e3c8762dc8f54f975f776cb877e457",
    ("example-m3", "json"): "447ce7165b870666284c93cb81230399683a87ebd790a2f702c7cdab6d4b8e25",
    ("example-535", "text"): "8844614b7720b7df33a30f65119b2ad93f41b242eefe6817a8dab6a972b27ab9",
    ("example-535", "json"): "2d4b533024072e3d10a361a040f8dc9eac96c9ecafdf6d1bbc9fee8c7af40223",
    ("point", "text"): "64c14e553ba134af80fa111b60ab1587d2d7c3957774e8053d20ff90ccd746fc",
    ("point", "json"): "b2ad2ccdbe18b545b125f2286f3e75a08233de254412e18b2af84bfc2b728df6",
    ("U(1,2)", "text"): "2fdc516670a5c9bbf8492c962da8d299df831203596c30046579d6f60b685425",
    ("U(1,2)", "json"): "4aa6a41e1c2a609ada05137eb39d15552a434219e1a4740ac34698c66b6d8ed0",
}


def test_every_fixed_builtin_has_pinned_f_vector_and_flag_f_stdout():
    assert {name for name, _ in F_VECTOR_FLAG_F_SHA256} >= set(cli._FIXED_BUILTINS)


@pytest.mark.parametrize("name, fmt", sorted(F_VECTOR_FLAG_F_SHA256))
def test_f_vector_and_flag_f_stdout_is_pinned(capsys, tmp_path, name, fmt):
    if name == "point":
        source = ["--file", write_json(tmp_path, {"n": 1, "rank": 1, "bases": [[1]]})]
    elif name == "U(1,2)":
        source = ["--builtin", "uniform", "--k", "1", "--n", "2"]
    else:
        source = ["--builtin", name]
    rc, out, _ = run(capsys, "compute", *source, "--f-vector", "--flag-f", "--format", fmt)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == F_VECTOR_FLAG_F_SHA256[(name, fmt)]


def test_compute_json_format(capsys):
    rc, out, _ = run(capsys, "compute", "--builtin", "uniform", "--k", "2", "--n", "4",
                     "--format", "json", "--flag-f")
    assert rc == 0
    obj = json.loads(out)
    assert obj["cd"] == {"ccc": "1", "cd": "6", "dc": "4"}
    assert obj["flag_f"]["0,1"] == "24"


def test_compute_file_square(capsys, tmp_path):
    p = tmp_path / "square.json"
    p.write_text(json.dumps(
        {"n": 4, "rank": 2, "bases": [[1, 3], [1, 4], [2, 3], [2, 4]]}
    ))
    rc, out, _ = run(capsys, "compute", "--file", str(p))
    assert rc == 0
    assert out.strip() == "cc + 2*d"


def test_compute_file_cyclic_flats(capsys, tmp_path):
    p = tmp_path / "m535.json"
    p.write_text(json.dumps({
        "n": 5, "rank": 3,
        "cyclic_flats": [{"set": [1, 2, 3], "rank": 2}, {"set": [1, 4, 5], "rank": 2}],
    }))
    rc, out, _ = run(capsys, "compute", "--file", str(p))
    assert rc == 0
    assert out.strip() == "cccc + 5*ccd + 10*cdc + 6*dcc + 10*dd"


def test_exit_code_not_a_matroid(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"n": 4, "rank": 2, "bases": [[1, 2], [3, 4]]}))
    rc, _, err = run(capsys, "compute", "--file", str(p))
    assert rc == 2
    assert "NOT_A_MATROID" in err


def test_exit_code_presentation_mismatch(capsys, tmp_path):
    p = tmp_path / "mismatch.json"
    p.write_text(json.dumps({
        "n": 4, "rank": 2, "cyclic_flats": [{"set": [1, 2, 3], "rank": 2}],
    }))
    rc, _, err = run(capsys, "compute", "--file", str(p))
    assert rc == 2
    assert "PRESENTATION_MISMATCH" in err


def test_exit_code_unsupported_and_fallback(capsys, tmp_path):
    p = tmp_path / "nested.json"
    p.write_text(json.dumps({
        "n": 6, "rank": 3,
        "cyclic_flats": [{"set": [1, 2], "rank": 1},
                         {"set": [1, 2, 3, 4], "rank": 2}],
    }))
    rc, _, err = run(capsys, "compute", "--file", str(p))
    assert rc == 3
    assert "UNSUPPORTED_MATROID" in err
    rc, out, _ = run(capsys, "compute", "--file", str(p), "--oracle-fallback")
    assert rc == 0
    assert NcPoly.from_text(out.strip()).degree() == 5


def test_exit_code_scale_for_a_cyclic_flats_file_above_the_cap(capsys, tmp_path):
    p = tmp_path / "n13.json"
    p.write_text(json.dumps({
        "n": 13, "rank": 6, "cyclic_flats": [{"set": [1, 2, 3, 4, 5, 6], "rank": 5}],
    }))
    rc, out, err = run(capsys, "compute", "--file", str(p))
    assert rc == 4
    assert out == ""
    assert "SCALE_EXCEEDED" in err and "capped at n=12" in err


def test_uniform_above_the_cap_exits_4_even_as_a_point(capsys):
    for k in ("10", "0", "20"):
        rc, out, err = run(capsys, "compute", "--builtin", "uniform", "--k", k, "--n", "20")
        assert (rc, out) == (4, "")
        assert "SCALE_EXCEEDED" in err and "capped at n=12" in err
    for k in ("0", "12"):
        assert run(capsys, "compute", "--builtin", "uniform", "--k", k, "--n", "12") == (0, "1\n", "")


def test_builtins_with_a_huge_n_exit_4_before_listing_elements(capsys):
    """The cuspidal builtin lists its flat's h elements; at n = 10**12
    that list alone would not fit in memory."""
    n, h = 10 ** 12, 10 ** 12 - 10
    for extra in (["uniform", "--k", "5"], ["cuspidal", "--k", "5", "--r", "2", "--h", str(h)]):
        rc, out, err = run(capsys, "compute", "--builtin", *extra, "--n", str(n))
        assert (rc, out) == (4, ""), err
        assert "got n=%d" % n in err


def test_verify_small(capsys):
    rc, out, _ = run(capsys, "verify", "--max-n", "4")
    assert rc == 0
    assert "0 failed" in out
    assert "PASS hypersimplex-1-2" in out


def test_verify_only_filter(capsys):
    rc, out, _ = run(capsys, "verify", "--max-n", "5", "--only", "cuspidal")
    assert rc == 0
    lines = [l for l in out.splitlines() if l.startswith("PASS")]
    assert lines
    assert all("cuspidal-" in l for l in lines)


def test_verify_paper_values(capsys):
    rc, out, _ = run(capsys, "verify", "--only", "paper-values")
    assert rc == 0
    assert "PASS fano" in out
    assert "PASS example-m1" in out


def test_verify_rejects_big_max_n(capsys):
    rc, _, err = run(capsys, "verify", "--max-n", "10")
    assert rc == 2


def test_verify_gate_at_n8(capsys):
    rc, out, _ = run(capsys, "verify", "--max-n", "8")
    assert rc == 0
    assert out.splitlines()[-1] == "verify: 186 checked, 0 failed (max n = 8)"
    # the whole stdout: each instance's name, order and PASS line
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e6485c5f385e731c0d8e55a7af51f5d5148278d5cafbf5ceec7eadca90879833")


def test_verify_runs_the_oracle_once_per_distinct_matroid(capsys, monkeypatch):
    calls = []
    lattice = oracle.face_lattice
    monkeypatch.setattr(oracle, "face_lattice", lambda M: calls.append(M) or lattice(M))
    rc, out, _ = run(capsys, "verify", "--max-n", "7")
    assert rc == 0
    # 107 names, 25 of them a labelled matroid an earlier name already gave
    assert len(calls) == len(set(calls)) == 82
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "9b68e92f6c2f56f2164c3258436deed2f41253a7f31debdda93ccb70b0a6c2c4")


def test_verify_reports_a_formula_fault_under_every_name_of_one_matroid(capsys, monkeypatch):
    names = ["cuspidal-2-4-1-2", "sparse-2-4-l1-m0", "rank2-2+1+1"]
    corpus = dict(cli.corpus(4))
    shared = corpus[names[0]]
    assert all(corpus[name] == shared for name in names)
    truth = engine.cd_index
    monkeypatch.setattr(engine, "cd_index",
                        lambda M, **kw: truth(M, **kw) + C if M == shared else truth(M, **kw))
    rc, out, _ = run(capsys, "verify", "--max-n", "4")
    assert rc == 1
    assert [l[5:] for l in out.splitlines() if l.startswith("FAIL ")] == names
    assert out.splitlines()[-1] == "verify: %d checked, 3 failed (max n = 4)" % len(corpus)


def test_verify_threads_deterministic(capsys):
    rc1, out1, _ = run(capsys, "verify", "--max-n", "5")
    rc2, out2, _ = run(capsys, "verify", "--max-n", "5", "--threads", "4")
    assert (rc1, out1) == (rc2, out2)


def test_verify_reports_a_formula_that_disagrees_with_the_oracle(capsys, monkeypatch):
    wrong = Matroid.uniform(2, 4)
    truth = oracle.oracle_cd_index
    monkeypatch.setattr(oracle, "oracle_cd_index",
                        lambda M: truth(M) + C if M == wrong else truth(M))
    rc, out, _ = run(capsys, "verify", "--max-n", "4")
    assert rc == 1
    lines = out.splitlines()
    at = lines.index("FAIL hypersimplex-2-4")
    got = engine.cd_index(wrong)
    assert lines[at + 1:at + 3] == ["  formula: %s" % got.text(),
                                    "  oracle:  %s" % (got + C).text()]
    assert all(l.startswith("PASS ") for l in lines[:at] + lines[at + 3:-1])
    assert lines[-1] == "verify: %d checked, 1 failed (max n = 4)" % len(cli.corpus(4))


def test_verify_reports_a_paper_value_that_disagrees_with_the_formula(capsys, monkeypatch):
    text = cli.PAPER_VALUES["fano"].replace("19*ccccd", "18*ccccd")
    monkeypatch.setitem(cli.PAPER_VALUES, "fano", text)
    rc, out, _ = run(capsys, "verify", "--only", "paper-values")
    assert rc == 1
    lines = out.splitlines()
    at = lines.index("FAIL fano")
    assert lines[at + 1:at + 3] == [
        "  formula:   %s" % engine.cd_split_matroid(fano()).text(),
        "  reference: %s" % NcPoly.from_text(text).text()]
    assert all(l.startswith("PASS ") for l in lines[:at] + lines[at + 3:-1])
    assert lines[-1] == "paper-values: 6 checked, 1 failed"


@pytest.mark.parametrize("argv, names", [
    (("--only", "nosuch"), "--only"),
    (("--max-n", "1"), "--max-n"),
    (("--max-n", "-3"), "--max-n"),
    (("--max-n", "4", "--only", "example-535"), "--only"),
])
def test_verify_that_selects_no_check_is_invalid(capsys, argv, names):
    rc, out, err = run(capsys, "verify", *argv)
    assert (rc, out) == (2, "")
    assert "INVALID_PARAMS" in err and names in err


def test_cache_verify_alone_selects_no_corpus_check(capsys, tmp_path):
    cache = tmp_path / "cache.jsonl"
    cache.write_text("")
    rc, out, _ = run(capsys, "verify", "--cache", str(cache),
                     "--only", "nosuch")
    assert (rc, out) == (0, "cache verify: 0 records OK\n")


def reference_rank2_instances(n):
    """The rank-2 family as first built: size multisets from a partition
    recursion, and the bases listed as every pair of elements from two
    different parallel classes."""
    def parts(total, most, count):
        if count == 1:
            if total <= most:
                yield (total,)
            return
        for first in range(min(total - count + 1, most), 0, -1):
            for rest in parts(total - first, first, count - 1):
                yield (first,) + rest

    for c in range(3, min(n, 5) + 1):
        for sizes in parts(n, n, c):
            if all(s == 1 for s in sizes):
                continue
            classes, at = [], 0
            for s in sizes:
                classes.append(range(at, at + s))
                at += s
            bases = [(x, y) for i in range(c) for j in range(i + 1, c)
                     for x in classes[i] for y in classes[j]]
            yield ("rank2-%s" % "+".join(map(str, sizes)), Matroid.from_bases(n, 2, bases))


def test_rank2_family_equals_its_pairwise_reference():
    items = cli.corpus(9)
    want = [item for n in range(3, 10) for item in reference_rank2_instances(n)]
    assert len(want) == 50
    # the family sits just before example-535, the last instance
    first = len(items) - 1 - len(want)
    got = [(i, name, M.rank, M.basis_masks()) for i, (name, M) in enumerate(items)
           if name.startswith("rank2-")]
    assert got == [(first + i, name, 2, M.basis_masks()) for i, (name, M) in enumerate(want)]
    assert items[-1][0] == "example-535"


def test_cache_roundtrip_and_transparency(capsys, tmp_path):
    cache = tmp_path / "cache.jsonl"
    rc, cold, _ = run(capsys, "compute", "--builtin", "fano", "--cache", str(cache))
    assert rc == 0 and cache.exists()
    n_records = len(cache.read_text().splitlines())
    assert n_records > 0
    rc, warm, _ = run(capsys, "compute", "--builtin", "fano", "--cache", str(cache))
    assert rc == 0
    assert cold == warm
    # warm run added nothing
    assert len(cache.read_text().splitlines()) == n_records
    rc, out, _ = run(capsys, "verify", "--cache", str(cache))
    assert rc == 0
    assert "records OK" in out


def test_cache_tamper_detected(capsys, tmp_path):
    cache = tmp_path / "cache.jsonl"
    run(capsys, "compute", "--builtin", "example-535", "--cache", str(cache))
    lines = cache.read_text().splitlines()
    rec = json.loads(lines[0])
    word = next(iter(rec["cd"]))
    rec["cd"][word] = str(int(rec["cd"][word]) + 7)
    lines[0] = json.dumps(rec)
    cache.write_text("\n".join(lines) + "\n")
    rc, out, _ = run(capsys, "verify", "--cache", str(cache))
    assert rc == 1
    assert "FAIL cache" in out


def test_cache_version_mismatch(capsys, tmp_path):
    cache = tmp_path / "cache.jsonl"
    cache.write_text(json.dumps(
        {"v": 99, "kind": "hypersimplex", "key": [1, 3], "cd": {"cc": "1", "d": "1"}}
    ) + "\n")
    rc, _, err = run(capsys, "compute", "--builtin", "fano", "--cache", str(cache))
    assert rc == 1
    assert "CACHE_VERSION_MISMATCH" in err


def test_cache_corrupt_tail_tolerated(capsys, tmp_path):
    cache = tmp_path / "cache.jsonl"
    run(capsys, "compute", "--builtin", "example-535", "--cache", str(cache))
    with cache.open("a") as fh:
        fh.write("{this is not json\n")
    rc, out, err = run(capsys, "compute", "--builtin", "example-535", "--cache", str(cache))
    assert rc == 0
    assert "corrupt" in err


def test_unknown_builtin(capsys):
    rc, _, err = run(capsys, "compute", "--builtin", "petersen")
    assert rc == 2
    assert "unknown builtin" in err


def test_builtin_missing_params(capsys):
    rc, _, err = run(capsys, "compute", "--builtin", "cuspidal", "--k", "2", "--n", "5")
    assert rc == 2


def write_json(tmp_path, obj):
    p = tmp_path / "m.json"
    p.write_text(json.dumps(obj))
    return str(p)


def test_file_element_zero_is_invalid(capsys, tmp_path):
    path = write_json(tmp_path, {"n": 4, "rank": 2, "bases": [[0, 1], [1, 2]]})
    rc, _, err = run(capsys, "compute", "--file", path)
    assert rc == 2
    assert "INVALID_PARAMS" in err
    assert "basis [0, 1] out of range for n=4 (elements are 1-based)" in err


def test_file_string_n_is_invalid(capsys, tmp_path):
    path = write_json(tmp_path, {"n": "4", "rank": 2, "bases": [[1, 2]]})
    rc, _, err = run(capsys, "compute", "--file", path)
    assert rc == 2
    assert "n and rank must be integers, got n='4' rank=2" in err


def test_file_with_both_bases_and_cyclic_flats_is_invalid(capsys, tmp_path):
    # the bases give U(2, 2) plus two loops, the cyclic flats U(2, 4);
    # neither presentation is taken over the other
    path = write_json(tmp_path, {"n": 4, "rank": 2, "bases": [[1, 2]], "cyclic_flats": []})
    rc, out, err = run(capsys, "compute", "--file", path)
    assert (rc, out) == (2, "")
    assert "INVALID_PARAMS" in err and "either bases or cyclic_flats, not both" in err


def test_file_flat_without_rank_is_invalid(capsys, tmp_path):
    path = write_json(tmp_path, {"n": 5, "rank": 3, "cyclic_flats": [{"set": [1, 2, 3]}]})
    rc, _, err = run(capsys, "compute", "--file", path)
    assert rc == 2
    assert "cyclic flat {'set': [1, 2, 3]} needs a set and an integer rank" in err


def test_file_out_of_range_reports_one_based(capsys, tmp_path):
    path = write_json(tmp_path, {"n": 4, "rank": 2, "bases": [[1, 2], [1, 5]]})
    rc, _, err = run(capsys, "compute", "--file", path)
    assert rc == 2
    assert "basis [1, 5] out of range for n=4" in err


@pytest.mark.parametrize("data", [b"[" * 200000 + b"]" * 200000,  # nested too deep
                                  b'\xff{"n": 4, "rank": 2, "bases": [[1, 2]]}',
                                  b'{"n": ' + b"1" * 5000 + b', "rank": 2}'])  # int too long
def test_file_that_does_not_parse_is_invalid(capsys, tmp_path, data):
    p = tmp_path / "m.json"
    p.write_bytes(data)
    rc, _, err = run(capsys, "compute", "--file", str(p))
    assert rc == 2
    assert "INVALID_PARAMS" in err and "is not valid JSON" in err


def test_oracle_fallback_stays_within_the_oracle_cap(capsys, tmp_path):
    # a chain of two cyclic flats: connected and not split, so only the
    # oracle reaches it, and not above the oracle's own cap
    path = write_json(tmp_path, {
        "n": 10, "rank": 4,
        "cyclic_flats": [{"set": [1, 2, 3], "rank": 2},
                         {"set": [1, 2, 3, 4, 5, 6], "rank": 3}],
    })
    rc, _, err = run(capsys, "compute", "--file", path)
    assert rc == 3
    rc, out, err = run(capsys, "compute", "--file", path, "--oracle-fallback")
    assert (rc, out) == (4, "")
    assert "SCALE_EXCEEDED" in err


def clear_memos():
    for clear in (hypersimplex.memo_clear, cuspidal.memo_clear, engine.w_memo_clear):
        clear()


def compute_as_fresh_process(capsys, cache):
    clear_memos()
    return run(capsys, "compute", "--builtin", "vamos", "--cache", str(cache))


@pytest.mark.parametrize("damage", ["corrupt-middle", "bad-cd-middle", "truncated-last"])
def test_cache_stops_growing_after_damage(capsys, tmp_path, damage):
    cache = tmp_path / "cache.jsonl"
    _, cold, _ = compute_as_fresh_process(capsys, cache)
    lines = cache.read_text().splitlines()
    if damage == "truncated-last":
        damaged = lines[-1][:-10]
        cache.write_text("\n".join(lines[:-1] + [damaged]))
    else:
        damaged = "{this is not json" if damage == "corrupt-middle" else json.dumps(
            {"v": 1, "kind": "w", "key": [1], "cd": 5})
        lines[len(lines) // 2] = damaged
        cache.write_text("\n".join(lines) + "\n")
    counts = []
    for _ in range(3):
        rc, out, err = compute_as_fresh_process(capsys, cache)
        assert (rc, out) == (0, cold)
        assert "corrupt, skipping it" in err
        counts.append(len(cache.read_text().splitlines()))
    # at most the damaged record is written again, once; then nothing more
    assert counts[0] in (len(lines), len(lines) + 1)
    assert counts == [counts[0]] * 3
    assert cache.read_text().splitlines().count(damaged) == 1


# keys no table stores: not canonical, an invalid cuspidal shape, the
# wrong length, a canonical w shape with a zero rank, a k = 0 hypersimplex
@pytest.mark.parametrize("record", [
    {"v": 1, "kind": "hypersimplex", "key": [5, 8], "cd": {"cc": "1"}},
    {"v": 1, "kind": "cuspidal", "key": [1, 2, 3, 4], "cd": {"cc": "1"}},
    {"v": 1, "kind": "w", "key": [1], "cd": {"cc": "1"}},
    {"v": 1, "kind": "w", "key": [0, 1, 1, 1, 5], "cd": {"cccc": "1"}},
    {"v": 1, "kind": "hypersimplex", "key": [0, 5], "cd": {"cccc": "1"}},
], ids=["hypersimplex", "cuspidal", "w", "w-zero-rank", "hypersimplex-k0"])
def test_cache_record_with_a_key_unfit_for_its_kind_is_skipped(capsys, tmp_path, record):
    cache = tmp_path / "cache.jsonl"
    cache.write_text(json.dumps(record) + "\n")
    clear_memos()
    rc, out, err = run(capsys, "verify", "--cache", str(cache))
    assert (rc, out) == (0, "cache verify: 0 records OK, 1 corrupt\n")
    assert "record 1 is corrupt, skipping it" in err
    rc, out, err = run(capsys, "compute", "--builtin", "fano", "--cache", str(cache))
    assert rc == 0
    assert out.strip() == cli.PAPER_VALUES["fano"]
    assert "record 1 is corrupt, skipping it" in err
    assert tuple(record["key"]) not in cli._KINDS[record["kind"]][0].snapshot()


# a letter outside c, d; a coefficient that is no integer; a word of the
# wrong degree for its key (2 for the (1, 3) hypersimplex)
@pytest.mark.parametrize("cd", ['{"x": "1"}', '{"cc": 1e400}', '{"cc": "1.5"}',
                                '{"ccc": "1"}'],
                         ids=["letter", "overflow", "fraction", "degree"])
def test_cache_record_with_a_corrupt_cd_is_skipped(capsys, tmp_path, cd):
    cache = tmp_path / "cache.jsonl"
    cache.write_text('{"v": 1, "kind": "hypersimplex", "key": [1, 3], "cd": %s}\n' % cd)
    clear_memos()
    rc, out, err = run(capsys, "compute", "--builtin", "fano", "--cache", str(cache))
    assert rc == 0
    assert out.strip() == cli.PAPER_VALUES["fano"]
    assert "record 1 is corrupt, skipping it" in err


def test_a_cache_record_is_checked_without_listing_cd_words(tmp_path):
    # the (1, 40) hypersimplex has degree 39, with about 10^8 cd words; the
    # reader checks the record's own words and lists none of cd_order(39)
    poly = NcPoly({"c" * 39: 1, "d" * 19 + "c": 2})
    cache = tmp_path / "cache.jsonl"
    cache.write_text(json.dumps({"v": 1, "kind": "hypersimplex", "key": [1, 40],
                                 "cd": cli.poly_to_json(poly)}) + "\n")
    clear_memos()
    ncpoly.cd_order.cache_clear()
    try:
        assert cli.CacheStore(str(cache)).load() == [("hypersimplex", (1, 40), poly)]
        assert hypersimplex.memo_snapshot()[(1, 40)] == poly
        assert ncpoly.cd_order.cache_info().currsize == 0
    finally:
        clear_memos()


def test_cache_verify_counts_corrupt_records(capsys, tmp_path):
    cache = tmp_path / "cache.jsonl"
    run(capsys, "compute", "--builtin", "fano", "--cache", str(cache))
    good = len(cache.read_text().splitlines())
    with cache.open("a") as fh:
        fh.write("{this is not json\n")
    clear_memos()
    rc, out, err = run(capsys, "verify", "--cache", str(cache))
    assert (rc, out) == (0, "cache verify: %d records OK, 1 corrupt\n" % good)
    assert "record %d is corrupt, skipping it" % (good + 1) in err
    # a wrong record still fails, and the corrupt one is still counted
    rec = json.loads(cache.read_text().splitlines()[0])
    word = next(iter(rec["cd"]))
    rec["cd"][word] = str(int(rec["cd"][word]) + 1)
    with cache.open("a") as fh:
        fh.write(json.dumps(rec) + "\n")
    rc, out, _ = run(capsys, "verify", "--cache", str(cache))
    assert rc == 1
    assert out.endswith("cache verify: 1 bad of %d records, 1 corrupt\n" % (good + 1))


def test_cache_line_that_is_not_utf8_is_skipped(capsys, tmp_path):
    cache = tmp_path / "cache.jsonl"
    run(capsys, "compute", "--builtin", "fano", "--cache", str(cache))
    good = len(cache.read_text().splitlines())
    with cache.open("ab") as fh:
        fh.write(b'{"v": 1, "kind": "w\xff"}\n')
    clear_memos()
    rc, out, err = run(capsys, "compute", "--builtin", "fano", "--cache", str(cache))
    assert (rc, out.strip()) == (0, cli.PAPER_VALUES["fano"])
    assert "record %d is corrupt, skipping it" % (good + 1) in err
    rc, out, _ = run(capsys, "verify", "--cache", str(cache))
    assert (rc, out) == (0, "cache verify: %d records OK, 1 corrupt\n" % good)


@pytest.mark.parametrize("argv", [("compute", "--builtin", "fano"),
                                  ("verify",)])
def test_cache_that_is_a_directory_is_invalid(capsys, tmp_path, argv):
    rc, out, err = run(capsys, *argv, "--cache", str(tmp_path))
    assert (rc, out) == (2, "")
    assert "INVALID_PARAMS" in err and "cannot read cache" in err


def test_cache_that_cannot_be_written_is_invalid(capsys, monkeypatch, tmp_path):
    def no_compute(*args, **kwargs):
        raise AssertionError("computed before checking the cache")

    cache = tmp_path / "missing" / "cache.jsonl"
    with monkeypatch.context() as m:
        m.setattr(engine, "cd_index", no_compute)
        rc, out, err = run(capsys, "compute", "--builtin", "fano", "--cache", str(cache))
    assert (rc, out) == (2, "")
    assert "INVALID_PARAMS" in err and "cannot write cache" in err
    # checking a cache only reads it, so one that cannot be written still verifies
    good = tmp_path / "good.jsonl"
    assert run(capsys, "compute", "--builtin", "fano", "--cache", str(good))[0] == 0

    def unwritable(self):
        raise AssertionError("opened the cache for appending")

    monkeypatch.setattr(cli.CacheStore, "open_append", unwritable)
    rc, out, _ = run(capsys, "verify", "--cache", str(good))
    assert rc == 0 and "records OK" in out


def test_the_environment_changes_nothing(capsys, monkeypatch, tmp_path):
    plain = run(capsys, "compute", "--builtin", "fano")
    env_cache = tmp_path / "env.jsonl"
    monkeypatch.setenv("CDX_CACHE", str(env_cache))
    assert run(capsys, "compute", "--builtin", "fano") == plain
    assert not env_cache.exists()
    rc, out, _ = run(capsys, "verify", "--max-n", "3")
    assert rc == 0
    assert out.splitlines()[0] == "PASS hypersimplex-1-2"


def test_verify_cache_is_the_audit_alone(capsys, monkeypatch, tmp_path):
    def no_corpus(*args):
        raise AssertionError("verify --cache ran a corpus check")

    cache = tmp_path / "cache.jsonl"
    clear_memos()
    assert run(capsys, "compute", "--builtin", "fano", "--cache", str(cache))[0] == 0
    monkeypatch.setattr(cli, "corpus", no_corpus)
    monkeypatch.setattr(oracle, "oracle_cd_index", no_corpus)
    rc, out, _ = run(capsys, "verify", "--cache", str(cache))
    assert (rc, out) == (0, "cache verify: 14 records OK\n")


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def cdx_argv(*argv):
    return [sys.executable, "-m", "cdx.cli", *argv]


def cdx_env():
    return dict(os.environ, PYTHONPATH=SRC)


def test_cache_verify_skips_a_record_above_the_compute_bound(tmp_path):
    # the 39-simplex has Fibonacci-many cd words: recomputing it would not
    # finish, while compute never stores a degree above 11
    cache = tmp_path / "cache.jsonl"
    cache.write_text(
        '{"v": 1, "kind": "hypersimplex", "key": [1, 40], "cd": {}}\n'
        '{"v": 1, "kind": "hypersimplex", "key": [1, 3], "cd": {"cc": "1", "d": "1"}}\n'
    )
    done = subprocess.run(cdx_argv("verify", "--cache", str(cache)),
                          env=cdx_env(), capture_output=True, text=True, timeout=20)
    assert (done.returncode, done.stdout) == (0, "cache verify: 1 records OK, 1 skipped\n")
    assert "Traceback" not in done.stderr
    assert "hypersimplex record [1, 40] has degree 39, above the 11" in done.stderr


def test_stdout_closed_early_gives_no_traceback():
    proc = subprocess.Popen(cdx_argv("compute", "--builtin", "vamos"), env=cdx_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        # the reader goes away before cdx has imported, let alone printed
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert b"Traceback" not in err
    assert (proc.returncode, err) == (1, b"")


WARM_CACHE_RUNS = [
    ["--builtin", "fano"], ["--builtin", "vamos"], ["--builtin", "example-m1"],
    ["--builtin", "mk4"],
    ["--builtin", "cuspidal", "--k", "5", "--n", "12", "--r", "3", "--h", "6"],
]


def test_every_memo_key_passes_its_check(capsys, tmp_path):
    cache = tmp_path / "cache.jsonl"
    clear_memos()
    for argv in WARM_CACHE_RUNS:
        assert run(capsys, "compute", *argv, "--cache", str(cache))[0] == 0
    for kind, (table, check) in cli._KINDS.items():
        for key, poly in table.snapshot().items():
            assert check(*key) == poly.degree(), (kind, key)
    # one cuspidal entry per polytope, under the smaller of its keys
    assert all(key <= cuspidal.dual_key(*key) for key in cuspidal.memo_snapshot())
    clear_memos()
    # so a warm run reads every record back and skips none
    rc, _, err = run(capsys, "compute", "--builtin", "fano", "--cache", str(cache))
    assert (rc, err) == (0, "")


def test_file_basis_of_wrong_size_reports_one_based(capsys, tmp_path):
    path = write_json(tmp_path, {"n": 4, "rank": 2, "bases": [[1, 2, 3], [1, 4]]})
    rc, _, err = run(capsys, "compute", "--file", path)
    assert rc == 2
    assert "NOT_A_MATROID" in err
    assert "basis [1, 2, 3] does not have size 2" in err


def test_file_axiom_failure_reports_one_based(capsys, tmp_path):
    # connected, but {2, 4} and {3, 4} are missing
    path = write_json(tmp_path, {"n": 4, "rank": 2, "bases": [[1, 2], [1, 3], [2, 3], [1, 4]]})
    rc, out, err = run(capsys, "compute", "--file", path)
    assert (rc, out) == (2, "")
    assert "NOT_A_MATROID" in err
    assert "r(S+x) + r(S+y) < r(S+x+y) + r(S) at S=[4], x=2, y=3" in err


def test_file_cyclic_flats_that_cut_out_no_matroid(capsys, tmp_path):
    # the two flats meet in 3 > r(F) + r(G) - k = 2 elements
    path = write_json(tmp_path, {"n": 6, "rank": 4, "cyclic_flats": [
        {"set": [1, 2, 3, 6], "rank": 3}, {"set": [1, 2, 4, 6], "rank": 3}]})
    rc, out, err = run(capsys, "compute", "--file", path)
    assert (rc, out) == (2, "")
    assert "NOT_A_MATROID" in err and "at S=[1, 2, 6], x=3, y=4" in err


def test_file_presentation_mismatch_reports_one_based(capsys, tmp_path):
    path = write_json(tmp_path, {"n": 4, "rank": 2,
                                 "cyclic_flats": [{"set": [2, 3, 4], "rank": 2}]})
    rc, _, err = run(capsys, "compute", "--file", path)
    assert rc == 2
    assert "missing=[([2, 3, 4], 2)] extra=[]" in err


# the records a vamos run writes; the product memo adds no kind and no
# key, and each cuspidal polytope is written under the smaller of its key
# and its dual's
VAMOS_CACHE_KEYS = [
    ("cuspidal", [2, 4, 1, 2]), ("cuspidal", [2, 5, 1, 2]), ("cuspidal", [2, 6, 1, 2]),
    ("cuspidal", [3, 6, 2, 3]), ("cuspidal", [3, 7, 2, 3]), ("cuspidal", [4, 8, 3, 4]),
    ("hypersimplex", [1, 3]), ("hypersimplex", [1, 4]), ("hypersimplex", [1, 5]),
    ("hypersimplex", [2, 4]), ("hypersimplex", [2, 5]), ("hypersimplex", [2, 6]),
    ("hypersimplex", [3, 6]), ("hypersimplex", [3, 7]), ("hypersimplex", [4, 8]),
    ("w", [1, 1, 2, 2, 8]),
]


def test_vamos_cache_kinds_and_keys(capsys, tmp_path):
    cache = tmp_path / "cache.jsonl"
    rc, _, _ = compute_as_fresh_process(capsys, cache)
    assert rc == 0
    records = [json.loads(line) for line in cache.read_text().splitlines()]
    assert sorted((r["kind"], r["key"]) for r in records) == VAMOS_CACHE_KEYS


def test_a_cache_with_both_orientations_of_each_cuspidal_key_still_loads(capsys, tmp_path):
    # older versions also wrote each cuspidal record under its dual key
    cache = tmp_path / "cache.jsonl"
    _, cold, _ = compute_as_fresh_process(capsys, cache)
    records = [json.loads(line) for line in cache.read_text().splitlines()]
    records += [dict(r, key=list(cuspidal.dual_key(*r["key"]))) for r in records
                if r["kind"] == "cuspidal" and cuspidal.dual_key(*r["key"]) != tuple(r["key"])]
    assert len(records) == 19
    cache.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
    before = cache.read_bytes()
    rc, out, err = compute_as_fresh_process(capsys, cache)
    assert (rc, out, err) == (0, cold, "")
    assert cache.read_bytes() == before  # nothing appended
    # each record went in under the key cd_cuspidal looks up
    keys = cuspidal.memo_snapshot()
    assert keys and all(key == min(key, cuspidal.dual_key(*key)) for key in keys)
    rc, out, err = run(capsys, "verify", "--cache", str(cache))
    assert (rc, out, err) == (0, "cache verify: 19 records OK\n", "")



def wrong_vertex_count(right, prof):
    return hypersimplex.cd_hypersimplex(prof.k, prof.n)  # 35 vertices; fano has 28 bases


def negative_coefficient(right, prof):
    return right(prof) - 100 * NcPoly.word("ccccd")  # the vertex count stays right


@pytest.mark.parametrize("wrong", [wrong_vertex_count, negative_coefficient])
def test_a_result_that_breaks_an_invariant_is_an_internal_error(capsys, monkeypatch, wrong):
    right = engine._split_formula
    monkeypatch.setattr(engine, "_split_formula", lambda prof: wrong(right, prof))
    rc, out, err = run(capsys, "compute", "--builtin", "fano", "--f-vector")
    assert (rc, out) == (1, "")
    assert err.startswith("error[INTERNAL_ERROR]: cd-index has ")
    assert "Traceback" not in err


APPEND_SCRIPT = """
import sys
from cdx import cli, hypersimplex
for n in range(3, 13):
    for k in range(1, n // 2 + 1):
        hypersimplex.cd_hypersimplex(k, n)
print("ready", flush=True)
store = cli.CacheStore(sys.argv[1])
for _ in range(int(sys.argv[2])):
    store.known = set()  # append every record again
    store.append_new()
"""
# the hypersimplex records the script holds: keys (k, n), 1 <= k <= n/2
APPEND_BATCH = sum(n // 2 for n in range(3, 13))


def start_appender(cache, batches):
    return subprocess.Popen([sys.executable, "-c", APPEND_SCRIPT, str(cache), str(batches)],
                            env=cdx_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def test_concurrent_appends_keep_every_record_whole(tmp_path):
    # more appenders than the two cores a small machine has
    cache = tmp_path / "cache.jsonl"
    procs = [start_appender(cache, 20) for _ in range(3)]
    try:
        for proc in procs:
            _, err = proc.communicate(timeout=120)
            assert (proc.returncode, err) == (0, b"")
    finally:
        for proc in procs:
            proc.kill()
    lines = cache.read_text().splitlines()
    for line in lines:
        json.loads(line)
    store = cli.CacheStore(str(cache))
    assert len(store.load(install=False)) == len(lines) == 3 * 20 * APPEND_BATCH
    assert store.corrupt == 0


def test_append_waits_for_the_lock(tmp_path):
    cache = tmp_path / "cache.jsonl"
    cache.write_text("")
    with open(cache, "rb") as held:
        fcntl.flock(held, fcntl.LOCK_EX)
        proc = start_appender(cache, 1)
        try:
            assert proc.stdout.readline() == b"ready\n"
            with pytest.raises(subprocess.TimeoutExpired):
                proc.wait(timeout=1)
            assert cache.read_text() == ""
        finally:
            fcntl.flock(held, fcntl.LOCK_UN)
    try:
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert (proc.returncode, err) == (0, b"")
    assert len(cache.read_text().splitlines()) == APPEND_BATCH
