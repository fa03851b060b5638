"""The benchmark recorder's command line and the trajectory files it writes.

``tools/bench_record.py`` and the ``BENCH_*.json`` files are run and
appended by hand; these checks run neither a benchmark nor a checkout.
"""

import importlib.util
import json
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
