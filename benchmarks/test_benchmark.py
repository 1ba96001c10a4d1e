"""Smoke tests of the benchmark itself: its schema, its counts and its checks.

No test here gates on a timing.  The workload runs use the shortest
budget, which still runs one full pass (one traced pass with ``--trace 1``).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def result(workload: str, trace: int, seed: int = 7) -> dict:
    """Run one workload for the shortest budget; return its JSON result."""
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture
def fresh_package():
    """Let the harness import gracetree afresh, then restore the modules tests hold."""
    def ours():
        return [n for n in sys.modules if n == "gracetree" or n.startswith("gracetree.")]

    saved = {name: sys.modules[name] for name in ours()}
    yield
    for name in ours():
        del sys.modules[name]
    sys.modules.update(saved)


def test_spec_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == harness.LAYER_UNITS
    assert SPEC["paths"] == ["benchmarks"]


def check_schema(document: dict, units: dict[str, str]) -> dict[str, float]:
    assert set(document) == {"correct", "attempted", "failed", "metrics"}
    assert document["correct"] is True
    assert document["failed"] == 0 and document["attempted"] >= 1
    assert {name: m["unit"] for name, m in document["metrics"].items()} == units
    return {name: m["value"] for name, m in document["metrics"].items()}


@pytest.mark.parametrize("workload", list(harness.WORKLOADS))
def test_end_to_end_schema(workload):
    values = check_schema(result(workload, 0), harness.END_TO_END_UNITS)
    assert all(value > 0 for value in values.values())


def test_verify_layer_counts():
    values = check_schema(result("verify", 1), harness.LAYER_UNITS)
    assert values["labelling.label_all.records"] == 2_097_151
    assert values["shape.vertices"] == 2_097_151
    assert values["verification.bitmap_bytes"] > 0
    assert values["verification.counterexamples"] == 0
    assert values["inverse.invert_label.calls"] == 0
    assert values["cli.writer.csv.bytes"] == 0


def test_export_layer_counts():
    values = check_schema(result("export", 1), harness.LAYER_UNITS)
    for fmt, (size, _) in harness.EXPORT_OUTPUTS.items():
        assert values[f"cli.writer.{fmt}.bytes"] == size
        assert values[f"cli.writer.{fmt}.self_s"] > 0
    assert values["labelling.label_all.records"] == 4 * 46_233
    assert values["verification.scan.self_s"] == 0


def test_queries_layer_counts_repeat_for_a_seed():
    first = check_schema(result("queries", 1, seed=3), harness.LAYER_UNITS)
    again = check_schema(result("queries", 1, seed=3), harness.LAYER_UNITS)
    other = check_schema(result("queries", 1, seed=4), harness.LAYER_UNITS)
    block = harness.QUERY_BLOCK
    traced = block // harness.TRACE_EVERY
    assert first["labelling.label_vertex.calls"] == block
    assert first["inverse.trace_inversion.calls"] == traced
    assert first["inverse.invert_label.calls"] == block - traced
    assert first["inverse.decode_steps"] == again["inverse.decode_steps"]
    assert first["inverse.decode_steps"] != other["inverse.decode_steps"]
    assert first["labelling.label_all.records"] == 0


def test_fails_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "queries", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_percentiles_are_nearest_rank():
    assert harness.nearest_rank([5, 1, 3, 2, 4], 0.5) == 3
    assert harness.nearest_rank([5, 1, 3, 2, 4], 0.1) == 1
    assert harness.nearest_rank(list(range(1, 31)), 0.1) == 3
    assert harness.nearest_rank(list(range(1, 31)), 0.9) == 27


def test_tail_needs_ten_samples_above_it():
    assert harness.tail([7]) == 7
    assert harness.tail(list(range(1, 1000))) == 999
    assert harness.tail(list(range(1, 1001))) == 990


# The checks must be able to fail: each injected fault raises the failed
# ratio above zero, while the same pass without the fault stays clean.


def test_flipped_export_byte_fails(fresh_package, tmp_path):
    workload = harness.set_up("export", 1, str(tmp_path))[0]
    recorder = harness.Recorder()
    workload.run_pass(recorder, None)
    assert recorder.failed == 0

    main = workload.pkg.cli.main

    def corrupting_main(argv):
        code = main(argv)
        path = argv[argv.index("--out") + 1]
        with open(path, "r+b") as handle:
            handle.seek(100)
            byte = handle.read(1)
            handle.seek(100)
            handle.write(bytes([byte[0] ^ 1]))
        return code

    workload.pkg.cli.main = corrupting_main
    items, _ = workload.run_pass(recorder, None)
    assert items == 0
    assert recorder.failed == 1 and recorder.failed_ratio > 0
    assert "sha256" in recorder.problems[0]


def test_wrong_round_trip_label_fails(fresh_package, tmp_path):
    workload = harness.set_up("queries", 1, str(tmp_path))[0]
    recorder = harness.Recorder()
    workload.run_pass(recorder, None)
    assert recorder.failed == 0

    encode = workload.pkg.labelling.label_vertex
    calls = []

    def off_by_one(shape, vertex):
        calls.append(vertex)
        return encode(shape, vertex) + (len(calls) % 100 == 0)

    workload.pkg.labelling.label_vertex = off_by_one
    workload.run_pass(recorder, None)
    assert recorder.failed == harness.QUERY_BLOCK // 100
    assert recorder.failed_ratio > 0
    assert len(recorder.latencies) == recorder.attempted - recorder.failed


def test_duplicated_label_fails_verification(fresh_package, tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "VERIFY_DEGREES", (2, 2, 2))
    workload = harness.set_up("verify", 1, str(tmp_path))[0]
    recorder = harness.Recorder()
    workload.run_pass(recorder, harness.Tracer())
    assert recorder.failed == 0

    labelling = workload.pkg.labelling
    shape = workload.shape
    assignment = {rec.vertex: rec.label for rec in labelling.label_all(shape)}
    assignment[(1, 1, 1)] = assignment[(0, 0, 0)]
    workload.pkg.cli.label_all = (
        lambda shape: labelling.records_from_assignment(shape, assignment)
    )
    items, _ = workload.run_pass(recorder, None)
    assert items == 0
    assert recorder.failed == 1 and recorder.failed_ratio > 0
