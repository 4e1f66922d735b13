"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import run  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracer import MODULES, PER_LAYER, Tracer, layer_metrics  # noqa: E402

SMALL_TOLS = {3: "1/1000", 6: "1/1000000"}


@pytest.fixture
def mods():
    return workloads.load_program(SRC)


@pytest.fixture
def probe():
    with SpeedProbe() as p:
        yield p


def digests(rows):
    return [r.digest for r in rows]


def test_wrong_case_floor_fails_the_operation(mods, probe):
    floors = dict(workloads.CASE_FLOORS, frame=10**9)
    ops = [op for op in workloads.laws_corpus(mods, 0, ROOT, floors) if op.name == "laws frame"]
    rows = run.run_pass(ops, probe)
    _, _, attempted, failed = run.end_to_end([rows], [0.1])
    assert (attempted, failed) == (1, 1)


def test_wrong_exact_value_raises_fail_ratio(mods, probe, monkeypatch):
    real = workloads.ladder_queries

    def tampered(rng):
        qs = real(rng)
        desc, part, exact = qs[1]
        assert (desc, part) == ("lebesgue", "irrationals")
        qs[1] = (desc, part, exact - Fraction(1, 2))
        return qs

    monkeypatch.setattr(workloads, "ladder_queries", tampered)
    rows = run.run_pass(workloads.measure_ladder(mods, 3, ROOT, {3: "1/1000"}), probe)
    metrics, _, attempted, failed = run.end_to_end([rows], [0.1])
    assert failed == 1
    assert metrics["pass_ratio"] == (attempted - 1) / attempted < 1


def snapshot(mods):
    """Identity of every module global, dict entry and traced class slot."""
    snap = {}
    for short in MODULES:
        mod = mods[short]
        for attr, obj in vars(mod).items():
            snap[(short, attr)] = id(obj)
            if isinstance(obj, dict):
                for key, val in obj.items():
                    snap[(short, attr, key)] = id(val)
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                for key, val in vars(obj).items():
                    snap[(short, attr, "class", key)] = id(val)
    return snap


def test_tracer_restores_every_binding(mods):
    before = snapshot(mods)
    original_union = mods["sublocales"].union
    tracer = Tracer(mods)
    with tracer:
        assert mods["morphisms"].union is not original_union
        assert mods["morphisms"].union is mods["sublocales"].union
        assert mods["laws"].SUITES["morphism"] is mods["laws"].run_morphism_suite
        during = snapshot(mods)
    assert during != before
    assert snapshot(mods) == before
    assert mods["morphisms"].union is original_union


def test_tracer_nests_imported_bindings(mods):
    tracer = Tracer(mods)
    with tracer:
        fr = mods["frames"].build_frame(mods["corpus"].chain_spec(3))
        f = mods["morphisms"].identity_morphism(fr)
        subs = mods["sublocales"].enumerate_sublocales(fr)
        mods["morphisms"].preimage(f, subs[0])
    calls, _ = tracer.edge("morphisms.preimage", "sublocales.union")
    assert calls == fr.n
    assert tracer.results["sublocales.parts_enumerated"] == 4
    values = layer_metrics(tracer, 1.0, 0)
    assert set(values) == {name for name, _, _ in PER_LAYER}
    assert values["morphisms.preimage_calls"] == 1
    assert values["sublocales.union_calls"] == fr.n


@pytest.mark.parametrize("name", ["laws-corpus", "measure-ladder", "parts-scale"])
def test_traced_pass_gives_identical_results(name, probe):
    def build(mods):
        if name == "laws-corpus":
            # the morphism suite alone takes ten seconds; the other three
            # reach every layer the traced comparison needs
            return [op for op in workloads.laws_corpus(mods, 0, ROOT) if op.name != "laws morphism"]
        if name == "measure-ladder":
            return workloads.measure_ladder(mods, 5, ROOT, SMALL_TOLS)
        return workloads.parts_scale(mods, 5, ROOT, chains=(5, 6), map_chain=6, samples=4, per_map=4)

    plain = run.run_pass(build(workloads.load_program(SRC)), probe)
    mods = workloads.load_program(SRC)
    with Tracer(mods) as tracer:
        traced = run.run_pass(build(mods), probe)
    assert all(r.ok for r in plain), digests(plain)
    assert digests(traced) == digests(plain)
    assert tracer.spans > 0


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER


def test_probe_nets_out_its_own_time(probe):
    start = probe.mark()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 0.35:
        pass
    raw, norm = probe.span(start, probe.mark())
    assert len(probe.samples) >= 3
    assert 0.3 < raw < 0.35 < raw + probe.handler_s
    assert norm > 0


def test_tail_keeps_ten_samples_beyond():
    assert run.tail(list(range(100))) == (89, 90.0, 100)
    assert run.tail([3, 1, 2]) == (3, 100.0, 3)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "parts-scale", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
