"""The benchmark recorder's command line and the trajectory files it writes.

``tools/bench_record.py`` and the ``BENCH_*.json`` files are run and
appended by hand; these checks run no benchmark, and no checkout but
throwaway directories and a throwaway git repository.
"""

import importlib.util
import json
import os
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _bench_record():
    spec = importlib.util.spec_from_file_location(
        "bench_record", ROOT / "tools" / "bench_record.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_workload_takes_several_names_or_repeats():
    parse = _bench_record().parse_args
    args = parse(["A", "B", "--workload", "census", "verify", "tensor"])
    assert args.checkouts == ["A", "B"]
    assert args.workload == ["census", "verify", "tensor"]
    args = parse(["--workload", "tensor", "--workload", "census",
                  "--seeds", "4", "5"])
    assert (args.checkouts, args.workload, args.seeds) == (
        ["."], ["tensor", "census"], [4, 5])
    assert parse([]).workload == ["census", "verify", "tensor"]
    assert parse(["--workload", "verify", "verify"]).workload == ["verify"]
    with pytest.raises(SystemExit) as exc:
        parse(["--workload", "census", "bogus"])
    assert exc.value.code == 2


def test_every_bench_file_is_a_list_of_recorder_entries():
    mod = _bench_record()
    result = {"metrics": {m: {"value": 1.0} for m in mod.METRICS}}
    keys = set(mod.entry("c", "census", [1], 25, [result]))
    assert keys == {"commit", "workload", "seeds", "seconds", *mod.METRICS,
                    "runs"}
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert [p.name for p in paths] == sorted(
        f"BENCH_{w}.json" for w in mod.WORKLOADS)
    for path in paths:
        entries = json.loads(path.read_text(encoding="utf-8"))
        assert isinstance(entries, list) and entries, path.name
        for e in entries:
            assert set(e) == keys, (path.name, e.get("commit"))
            assert e["workload"] == path.stem[len("BENCH_"):]
            assert set(e["runs"]) == set(mod.METRICS)
            assert all(len(v) == len(e["seeds"]) for v in e["runs"].values())


def test_comparison_counts_wins_and_gives_the_first_quartiles():
    mod = _bench_record()

    def result(setup, work, rss):
        return {"metrics": {"setup_s": {"value": setup},
                            "work_s": {"value": work},
                            "peak_rss_mb": {"value": rss}}}
    seeds = list(range(1, 11))
    first = mod.entry("a", "verify", seeds, 25, [
        result(0.3, 0.060 + 0.001 * k, 38.0) for k in range(10)])
    second = mod.entry("b", "verify", seeds, 25, [
        result(0.3, 0.052 + 0.001 * k, 38.0 - (k == 4)) for k in range(10)])
    second["runs"]["work_s"][0] = 0.070        # the first checkout wins seed 1
    c = mod.comparison(first, second)
    assert c["work_s"]["wins"] == 9 and c["work_s"]["pairs"] == 10
    q1, q2, q3 = c["work_s"]["quartiles"]
    assert (round(q1, 5), round(q2, 5), round(q3, 5)) == (
        0.06175, 0.0645, 0.06725)
    assert c["setup_s"]["wins"] == 0           # a tie is no win
    assert c["peak_rss_mb"]["wins"] == 1
    lines = mod.comparison_lines("verify", first, second)
    assert len(lines) == 3
    assert lines[1].startswith("verify work_s: second won 9 of 10 pairs; "
                               "median 0.0645 -> 0.0575 (gap +0.0070)")
    assert lines[1].endswith("first quartiles [0.0617, 0.0673] (IQR 0.0055)")
    one = mod.entry("c", "verify", [1], 25, [result(0.3, 0.06, 38.0)])
    assert mod.comparison(one, one)["work_s"]["quartiles"] == (0.06,) * 3


def test_noise_marks_a_spread_above_its_bound_unresolved():
    mod = _bench_record()

    def entry(name, setups, works):
        return mod.entry(name, "census", list(range(len(works))), 25, [
            {"metrics": {"setup_s": {"value": s}, "work_s": {"value": w},
                         "peak_rss_mb": {"value": 40.0}}}
            for s, w in zip(setups, works)])
    bounds = json.loads((ROOT / "BENCHMARK.json").read_text(
        encoding="utf-8"))["end_to_end"]
    bounds = {m["name"]: m["bound"] for m in bounds}
    assert set(bounds) >= set(mod.METRICS)
    # setup_s spreads 40 % of its median, work_s 2 %, peak_rss_mb not at all
    setups = [0.16, 0.18, 0.2, 0.22, 0.24, 0.26]
    works = [0.0495, 0.0498, 0.05, 0.0502, 0.0505, 0.05]
    first = entry("a", setups, works)
    c = mod.comparison(first, entry("b", [s * 0.9 for s in setups], works),
                       bounds)
    q1, q2, q3 = c["setup_s"]["quartiles"]
    assert c["setup_s"]["iqr_share"] == pytest.approx((q3 - q1) / q2)
    assert c["setup_s"]["iqr_share"] > bounds["setup_s"]
    # a 10 % gain the spread hides is unresolved; one every run shows is not
    assert c["setup_s"]["unresolved"]
    assert not c["work_s"]["unresolved"] and not c["peak_rss_mb"]["unresolved"]
    clear = mod.comparison(first, entry("c", [0.15] * 6, works), bounds)
    assert not clear["setup_s"]["unresolved"]
    tie = mod.comparison(first, entry("d", [0.15] * 5 + [0.16], works), bounds)
    assert tie["setup_s"]["unresolved"]       # a tie with the best is no win
    lines = mod.noise_lines("census", first, entry("b", setups, works), bounds)
    assert len(lines) == 3
    assert lines[0].startswith("census setup_s: first IQR ")
    assert lines[0].endswith("% of its median, bound 25%: unresolved")
    assert lines[1].endswith("% of its median, bound 25%")
    assert mod.comparison(first, first)["work_s"].keys() == {
        "wins", "pairs", "quartiles", "median"}


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_the_bench_files_alone_leave_a_checkout_clean(tmp_path):
    commit_of = _bench_record().commit_of

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                        *args], cwd=tmp_path, check=True, capture_output=True)
    git("init", "-q")
    (tmp_path / "BENCH_tensor.json").write_text("[]\n")
    (tmp_path / "run.py").write_text("pass\n")
    git("add", ".")
    git("commit", "-q", "-m", "first")
    clean = commit_of(str(tmp_path))
    assert len(clean) == 12 and not clean.endswith("-dirty")
    # the recorder's own output, a new BENCH file and an untracked file
    (tmp_path / "BENCH_tensor.json").write_text("[{}]\n")
    (tmp_path / "BENCH_census.json").write_text("[]\n")
    assert commit_of(str(tmp_path)) == clean
    (tmp_path / "run.py").write_text("pass  # edited\n")
    assert commit_of(str(tmp_path)) == clean + "-dirty"
    git("checkout", "--", "run.py")
    assert commit_of(str(tmp_path)) == clean
    (tmp_path / "BENCH_tensor.json.bak").write_text("[]\n")
    git("add", "BENCH_tensor.json.bak")
    assert commit_of(str(tmp_path)) == clean + "-dirty"


def test_a_checkout_with_compiled_bytecode_is_refused(tmp_path, monkeypatch):
    mod = _bench_record()
    clean, stale = tmp_path / "clean", tmp_path / "stale"
    for top in ("src/morita", "perfbench", "tests/__pycache__"):
        (clean / top).mkdir(parents=True)
        (stale / top).mkdir(parents=True, exist_ok=True)
    (stale / "src/morita/__pycache__").mkdir()
    (stale / "perfbench/__pycache__").mkdir()
    # bytecode under tests/ is not run by the benchmark
    assert mod.bytecode_dirs(str(clean)) == []
    assert mod.bytecode_dirs(str(stale)) == [
        str(stale / "perfbench/__pycache__"),
        str(stale / "src/morita/__pycache__")]
    monkeypatch.chdir(ROOT)                  # the recorder reads BENCHMARK.json
    monkeypatch.setattr(mod, "run_once", lambda *a: pytest.fail("ran"))
    with pytest.raises(SystemExit) as exc:
        mod.main([str(clean), str(stale), "--workload", "tensor"])
    message = str(exc.value.code)
    assert "remove" in message
    assert str(stale / "perfbench/__pycache__") in message
    assert str(stale / "src/morita/__pycache__") in message
    assert str(clean) + os.sep not in message
