"""Tests of the benchmark itself: output schema, metric names against
BENCHMARK.json, the layer-coverage check and the tracer's self time.

Run from the repository root with `python3 -m pytest perfbench -q`.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import report  # noqa: E402
import spans  # noqa: E402
from workloads import TINY, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_benchmark_json_declares_what_the_code_emits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert _declared("end_to_end") == dict(report.END_TO_END)
    assert _declared("per_layer") == dict(report.PER_LAYER)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for w in SPEC["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_schema(workload, trace, tmp_path):
    summary, result = report.run(workload, 0, 0.01, bool(trace), TINY,
                                 import_s=0.0, out_dir=tmp_path, ceilings={})
    json.dumps(summary)
    line = json.loads(json.dumps(result))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] == (2 if trace else 1)
    assert line["failed"] == 0 and line["correct"] is True
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
    for value in line["metrics"].values():
        assert set(value) == {"value", "unit"}
        assert isinstance(value["value"], float)
        if not trace:
            assert value["value"] > 0
    if trace:
        assert summary["coverage_failures"] == []
        assert summary["trace_overhead_ratio"] > 0


def test_coverage_flags_a_layer_that_contradicts_its_prediction():
    calls = {name: 1 for name in report.BUSY["vio"]}
    assert report.coverage("vio", calls) == []
    # a wrapper on the defining module, which cli never looks up
    del calls["frontend.process_frame"]
    assert report.coverage("vio", calls) == [
        "frontend.process_frame: 0 calls, predicted busy"]
    calls = {name: 1 for name in report.BUSY["map"]}
    calls["loopclosure.solve_pgba"] = 3
    assert report.coverage("map", calls) == [
        "loopclosure.solve_pgba: 3 calls, predicted idle"]


def test_self_time_excludes_child_spans():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(10000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    totals = tracer.layer_totals()
    assert totals["inner"]["calls"] == 3
    assert totals["outer"]["self_s"] == pytest.approx(
        totals["outer"]["busy_s"] - totals["inner"]["busy_s"], abs=1e-12)
    assert [s[3] for s in tracer.spans] == [-1, 0, 0, 0]


def test_tracer_restores_every_site():
    before = [owner.__dict__[attr] for owner, attr, _, _ in spans.SITES]
    with spans.Tracer().installed():
        pass
    assert [owner.__dict__[attr] for owner, attr, _, _ in spans.SITES] \
        == before


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "vio", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
