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
--abbrev=12`` in the checkout, followed by ``-dirty`` when a tracked file
other than the ``BENCH_*.json`` that this script appends to differs from
HEAD, so recording twice does not mark a clean checkout dirty. A run
whose outputs differ from perfbench/reference.json stops the script with
exit code 1 before anything is written. So does a ``__pycache__``
directory under ``src/`` or ``perfbench/`` of any checkout, before any
run: a leftover ``.pyc`` lets that checkout skip compiling, under
``PYTHONDONTWRITEBYTECODE=1`` on every run, and lowers its ``setup_s``
and ``peak_rss_mb``. The message names the directories to remove.

With two checkouts it also prints, per workload and metric, how many
seeds the second checkout won (a lower value) and the first checkout's
quartiles, so that a claimed gain can be read off the run: for example,
at least 9 wins of 10 and a gap between the medians larger than the
first checkout's interquartile range. A second line per metric gives that
range as a share of the first checkout's median and marks the metric
"unresolved" where the share exceeds the metric's bound in BENCHMARK.json,
unless every run of the second checkout beat every run of the first: there
the run cannot tell a change within the bound from noise.
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
    commit = subprocess.run(
        ["git", "describe", "--always", "--abbrev=12"],
        cwd=checkout, capture_output=True, text=True, check=True).stdout.strip()
    dirty = subprocess.run(
        ["git", "diff", "--quiet", "HEAD", "--", ".",
         ":(exclude)BENCH_*.json"], cwd=checkout).returncode
    return commit + "-dirty" * bool(dirty)


def bytecode_dirs(checkout):
    'The ``__pycache__`` directories under src/ and perfbench/, sorted.'
    found = []
    for top in ("src", "perfbench"):
        for root, dirs, _ in os.walk(os.path.join(checkout, top)):
            found += [os.path.join(root, d) for d in dirs
                      if d == "__pycache__"]
    return sorted(found)


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


def comparison(first, second, bounds=None):
    """Per metric, the seeds on which ``second`` beat ``first`` and the
    quartiles of ``first``, from two entries of one run. With ``bounds``
    (metric: allowed relative worsening) also ``iqr_share``, the first's
    interquartile range over its median, and ``unresolved``: that share
    exceeds the bound and some run of ``second`` is no better than some
    run of ``first``."""
    out = {}
    for m in METRICS:
        a, b = first["runs"][m], second["runs"][m]
        q1, q2, q3 = statistics.quantiles(a, n=4) if len(a) > 1 else a * 3
        out[m] = {"wins": sum(y < x for x, y in zip(a, b)), "pairs": len(a),
                  "quartiles": (q1, q2, q3), "median": statistics.median(b)}
        if bounds is not None:
            share = (q3 - q1) / q2
            out[m]["iqr_share"] = share
            out[m]["unresolved"] = share > bounds[m] and max(b) >= min(a)
    return out


def comparison_lines(workload, first, second):
    lines = []
    for m, c in comparison(first, second).items():
        q1, q2, q3 = c["quartiles"]
        lines.append(
            f"{workload} {m}: second won {c['wins']} of {c['pairs']} pairs; "
            f"median {q2:.4f} -> {c['median']:.4f} "
            f"(gap {q2 - c['median']:+.4f}), "
            f"first quartiles [{q1:.4f}, {q3:.4f}] (IQR {q3 - q1:.4f})")
    return lines


def noise_lines(workload, first, second, bounds):
    lines = []
    for m, c in comparison(first, second, bounds).items():
        lines.append(
            f"{workload} {m}: first IQR {100 * c['iqr_share']:.1f}% of its "
            f"median, bound {100 * bounds[m]:.0f}%"
            + (": unresolved" if c["unresolved"] else ""))
    return lines


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
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    checkouts = [os.path.abspath(c) for c in args.checkouts]
    stale = [d for c in checkouts for d in bytecode_dirs(c)]
    if stale:
        sys.exit("bench_record: compiled bytecode lets a checkout skip "
                 "compiling; remove " + " ".join(stale))
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
        if len(new) == 2:
            print("\n".join(comparison_lines(workload, *new)
                            + noise_lines(workload, *new, bounds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
