"""Record benchmark medians per checkout in BENCH_<workload>.json.

    python3 tools/bench_record.py [CHECKOUT ...] [--workload W ...]
                                  [--seeds S ...]

For every workload and seed, runs ``perfbench/run.py --workload W --seed S
--seconds T --trace 0 --record FILE`` once in each checkout (default: the
current directory), where T is the benchmark's own run length,
``run_seconds`` in BENCHMARK.json of the current directory. From one seed
to the next it alternates which checkout goes first, so that the checkouts
are measured in one session on one machine. Then appends one entry per
checkout to BENCH_<workload>.json in the current directory, a JSON list:

    {"commit": ..., "workload": ..., "seeds": [...], "seconds": T,
     "setup_s": ..., "work_s": ..., "peak_rss_mb": ...,
     "runs": {"setup_s": [...], "work_s": [...], "peak_rss_mb": [...]}}

The three metrics are medians over the seeds, and ``runs`` holds the
per-seed values in seed order. ``commit`` is ``git describe --always
--dirty --abbrev=12`` in the checkout, so a working tree with uncommitted
changes reads ``<hash>-dirty``. A run whose outputs differ from
perfbench/reference.json stops the script with exit code 1 before
anything is written.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

METRICS = ("setup_s", "work_s", "peak_rss_mb")
WORKLOADS = ("census", "verify", "tensor")


def commit_of(checkout):
    return subprocess.run(
        ["git", "describe", "--always", "--dirty", "--abbrev=12"],
        cwd=checkout, capture_output=True, text=True, check=True).stdout.strip()


def run_once(checkout, workload, seed, seconds, record):
    'One perfbench run; returns its recorded result.'
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
         "--record", record], cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        sys.exit(f"bench_record: {workload} seed {seed} failed in {checkout}")
    with open(record, encoding="utf-8") as fh:
        return json.loads(fh.read().splitlines()[-1])["result"]


def entry(commit, workload, seeds, seconds, results):
    runs = {m: [r["metrics"][m]["value"] for r in results] for m in METRICS}
    out = {"commit": commit, "workload": workload, "seeds": seeds,
           "seconds": seconds}
    out.update({m: statistics.median(v) for m, v in runs.items()})
    out["runs"] = runs
    return out


def parse_args(argv=None):
    'The options; ``--workload`` takes several names, or repeats.'
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkouts", nargs="*", default=["."])
    ap.add_argument("--workload", action="extend", nargs="+",
                    choices=WORKLOADS)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = ap.parse_args(argv)
    args.workload = list(dict.fromkeys(args.workload or WORKLOADS))
    return args


def main(argv=None):
    args = parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    checkouts = [os.path.abspath(c) for c in args.checkouts]
    commits = [commit_of(c) for c in checkouts]

    entries = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload in args.workload:
            results = {c: [] for c in checkouts}
            for i, seed in enumerate(args.seeds):
                for c in (checkouts if i % 2 == 0 else checkouts[::-1]):
                    record = os.path.join(tmp, "record.jsonl")
                    result = run_once(c, workload, seed, seconds, record)
                    os.remove(record)
                    if not result["correct"]:
                        sys.exit(f"bench_record: {workload} seed {seed} "
                                 f"gave wrong outputs in {c}")
                    results[c].append(result)
                    print(f"{workload} seed {seed} {c}: work_s "
                          f"{result['metrics']['work_s']['value']:.4f}",
                          file=sys.stderr)
            entries[workload] = [
                entry(commit, workload, args.seeds, seconds, results[c])
                for c, commit in zip(checkouts, commits)]

    for workload, new in entries.items():
        path = f"BENCH_{workload}.json"
        old = []
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                old = json.load(fh)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("[\n" + ",\n".join(json.dumps(e) for e in old + new)
                     + "\n]\n")
        for e in new:
            print(f"{path}: {e['commit']} work_s {e['work_s']:.4f} "
                  f"setup_s {e['setup_s']:.4f} "
                  f"peak_rss_mb {e['peak_rss_mb']:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
