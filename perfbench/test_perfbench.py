"""Self-tests for the benchmark: tracer arithmetic and restoration,
calibration, seeded inputs, and agreement between BENCHMARK.json and
the runner.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402


def _fake_package(monkeypatch):
    """``fakepkg.mod`` with outer() -> inner(), plus a by-name import in
    ``fakepkg.user``, so a binding outside the defining module exists."""
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.mod")
    exec("def inner():\n    return 1\n\ndef outer():\n    return inner() + inner()\n",
         mod.__dict__)
    user = types.ModuleType("fakepkg.user")
    user.inner = mod.inner
    for m in (pkg, mod, user):
        monkeypatch.setitem(sys.modules, m.__name__, m)
    return mod, user


def test_self_time_of_nested_calls(monkeypatch):
    mod, _user = _fake_package(monkeypatch)
    # outer: 0..10; inner: 1..4 and 5..6 -> outer self 10 - 3 - 1 = 6
    ticks = iter([0.0, 1.0, 4.0, 5.0, 6.0, 10.0])
    tracer = spans.Tracer("fakepkg", [("fakepkg.mod", "outer"), ("fakepkg.mod", "inner")],
                          clock=lambda: next(ticks))
    with tracer:
        assert mod.outer() == 2
    assert tracer.spans == [("mod.outer", 0.0, 10.0, -1),
                            ("mod.inner", 1.0, 4.0, 0),
                            ("mod.inner", 5.0, 6.0, 0)]
    assert spans.self_times(tracer.spans) == {"mod.outer": (1, 6.0),
                                              "mod.inner": (2, 4.0)}


def test_hooks_see_arguments_and_results(monkeypatch):
    _mod, user = _fake_package(monkeypatch)
    seen = []

    def hook(args, kwargs):
        seen.append(("before", args))
        return lambda result: seen.append(("after", result))

    targets = [("fakepkg.mod", "inner"), ("fakepkg.mod", "gone")]
    with spans.Tracer("fakepkg", targets, {"mod.inner": hook}) as tracer:
        assert user.inner() == 1
    assert seen == [("before", ()), ("after", 1)]
    assert tracer.missing == [("fakepkg.mod", "gone")]


def _bindings():
    """Every binding of a traced target: (owner, attribute) -> object."""
    out = {}
    for module, qualname in run.TRACED:
        mod = sys.modules[module]
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(mod, cls_name)
            out[(cls, attr)] = cls.__dict__[attr]
            continue
        original = getattr(mod, qualname)
        for name, other in list(sys.modules.items()):
            if name == "cdx" or name.startswith("cdx."):
                for attr, value in vars(other).items():
                    if value is original:
                        out[(other, attr)] = value
    return out


def test_tracer_wraps_and_restores_every_binding():
    import cdx.cli  # noqa: F401  loads every traced module
    from cdx import cuspidal, engine, product

    before = _bindings()
    # engine and cuspidal import cd_product by name
    assert (engine, "cd_product") in before and (cuspidal, "cd_product") in before
    tracer = spans.Tracer("cdx", run.TRACED)
    with tracer:
        assert tracer.missing == []
        for (owner, attr), value in before.items():
            assert owner.__dict__[attr] is not value, (owner, attr)
        assert engine.cd_product is product.cd_product
    for (owner, attr), value in before.items():
        assert owner.__dict__[attr] is value, (owner, attr)
    assert _bindings() == before


def test_reference_seconds_scale():
    ref = calibrate.REFERENCE_S
    # a machine at half the reference speed: measured seconds halve
    assert calibrate.scale([2 * ref, 1.5 * ref, 2.5 * ref]) == pytest.approx(0.5)


def test_sampler_spacing(monkeypatch):
    monkeypatch.setattr(calibrate, "kernel", lambda: None)
    now = [0.0]
    sampler = calibrate.Sampler(clock=lambda: now[0])
    sampler.take()
    for t in (0.2, 0.4, 0.6, 0.9, 1.2):
        now[0] = t
        sampler.between()
    assert len(sampler.samples) == 3  # at 0.0, 0.6 and 1.2


def test_calibration_restores_the_collector():
    import gc

    assert gc.isenabled()
    assert calibrate.sample() > 0
    assert gc.isenabled()


def test_sparse_instance_changes_with_seed():
    seen = set()
    for seed in range(20):
        chs = wl.sparse_hyperplanes(seed)
        assert len(chs) == wl.SPARSE_LAMBDA
        assert all(len(f) == wl.SPARSE_K for f in chs)
        meets = [len(set(f) & set(g)) for i, f in enumerate(chs) for g in chs[i + 1:]]
        assert max(meets) <= wl.SPARSE_K - 2  # sparse paving
        assert meets.count(wl.SPARSE_K - 2) >= 1  # mu >= 1
        seen.add(tuple(map(tuple, chs)))
    assert len(seen) == 20
    assert wl.sparse_hyperplanes(7) == wl.sparse_hyperplanes(7)


def test_other_seed_passes_sparse_check(tmp_path):
    seed = 12345
    cold = wl.ComputeCold(str(tmp_path), seed)
    cold.generate()
    cold.prepare_checks()
    cold.begin_pass()
    (label, call), = [it for it in cold.items() if it[0] == wl.SPARSE_LABEL]
    out = call()
    assert cold.check(label, out)
    f0 = int(out[1].splitlines()[1].split()[1])
    assert f0 == 924 - wl.SPARSE_LAMBDA
    wl.clear_memos()


def test_benchmark_json_matches_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _u in run.per_layer_names()]
    assert [m["unit"] for m in spec["per_layer"]] == [u for _n, u in run.per_layer_names()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(wl.WORKLOADS)


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compute-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
