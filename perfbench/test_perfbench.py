"""Smoke tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import morita.census
import rep
import tracer
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_resource_limit_mid_enumeration_keeps_spans_balanced(tmp_path):
    original = morita.census.enumerate_multimorphisms
    # the 2-chain involutive space has more than one trimorphism, so a cap
    # of one raises ResourceLimit inside the traced generator
    wl = workloads.Census(0, str(tmp_path), tasks=[
        ("i<=2 capped", dict(max_x=2, involutive=True, tri_cap=1))])
    out = workloads.Outcome()
    with tracer.Tracer() as rec:
        rep.run_items(wl, out)
    assert rec.balanced()
    names = {rec.span_name(i) for i in range(len(rec))}
    assert {"census.multimorphisms", "census.surjective"} <= names
    assert (out.attempted, out.failed) == (2, 1)
    rows = tracer.census_stage_rows(rec, out.summaries)
    assert rows[0]["skipped"] == 1
    assert morita.census.enumerate_multimorphisms is original


def test_generator_span_closes_on_raise_and_on_abandon():
    def numbers():
        yield 1
        yield 2
        raise ValueError("boom")

    rec = tracer.Recorder()
    gen = tracer._wrap_gen(rec, "g", numbers)
    with pytest.raises(ValueError):
        list(gen())
    assert rec.balanced() and len(rec) == 3
    for _ in gen():
        break
    assert rec.balanced() and rec.counts["g.yields"] == 3


def test_self_times_add_up_to_root_durations():
    ticks = iter(range(100))
    rec = tracer.Recorder(clock=lambda: float(next(ticks)))
    outer = rec.open("outer")        # t=0
    inner = rec.open("inner")        # t=1
    rec.close(inner)                 # t=2
    rec.close(outer)                 # t=3
    dur, own = rec.self_times()
    assert dur == [3.0, 1.0] and own == [2.0, 1.0]
    metrics, self_s = tracer.layer_metrics(rec, wall_s=4.0)
    assert self_s == {"outer": 2.0, "inner": 1.0}
    assert metrics["trace.residual_s"] == 1.0


@pytest.mark.parametrize("workload", ["census", "verify", "tensor"])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_mode_prints_every_metric(workload, trace):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--tiny"])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    for m in wanted:
        assert any(line.startswith(f"{m['name']} = ")
                   and line.endswith(f" {m['unit']}") for line in lines)
    assert any(line.startswith("failed_frac = 0 ") for line in lines)
    if workload == "census" and trace:
        # the general-mode task reaches the pre-filter and the pair search
        for name in ("engine.distinct_slices.calls",
                     "engine.conditions_from_tables.calls",
                     "engine.involutive_conditions_from_tables.calls"):
            assert result["metrics"][name]["value"] > 0


def test_stage_counts_of_a_general_task_match_the_reference(tmp_path):
    label = "x<=2,y=4"
    wl = workloads.Census(0, str(tmp_path), tasks=[
        (label, workloads.CENSUS_TASKS[label])])
    out = workloads.Outcome()
    with tracer.Tracer() as rec:
        rep.run_items(wl, out)
    (row,) = tracer.census_stage_rows(rec, out.summaries)
    want = workloads.load_reference()["stages"][label]
    assert {k: row[k] for k in want} == want
    assert wl.check(out, workloads.load_reference()) == []


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "census", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_refuses_different_stamps(tmp_path):
    def record(kernels):
        return json.dumps({"workload": "census", "seed": 1, "trace": 0,
                           "tiny": False, "stamp": {"kernels": kernels},
                           "result": {"metrics": {}}})
    (tmp_path / "a.jsonl").write_text(record("numpy") + "\n")
    (tmp_path / "b.jsonl").write_text(record("numba") + "\n")
    proc = subprocess.run(
        [sys.executable, "perfbench/compare.py", str(tmp_path / "a.jsonl"),
         str(tmp_path / "b.jsonl")],
        cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "different environment stamps" in proc.stderr

