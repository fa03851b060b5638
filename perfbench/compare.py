"""Spread of one set of benchmark runs, or the change between two sets.

    python3 perfbench/compare.py runs.jsonl            # spread per metric
    python3 perfbench/compare.py base.jsonl new.jsonl  # new against base

Reads the JSON lines that ``run.py --record`` appends (untraced runs
only). For each workload and end-to-end metric it prints the median, the
quartiles and their distance as a share of the median (the spread); with
two files, also the change of the median in the direction that is worse,
against the metric's bound in BENCHMARK.json. Refuses, with exit code 2,
when the runs were recorded under different environment stamps, so that
numbers from machines with different closure backends, numpy or python
versions, core counts or MORITA_* settings are never compared.
"""

import json
import statistics
import sys


def load(path):
    with open(path, encoding="utf-8") as fh:
        runs = [json.loads(line) for line in fh if line.strip()]
    return [r for r in runs if not r["trace"] and not r["tiny"]]


def series(runs, workload, metric):
    return [r["result"]["metrics"][metric]["value"] for r in runs
            if r["workload"] == workload]


def spread(values):
    if len(values) < 2:
        return statistics.median(values), float("nan"), values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med, q1, q3


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(p) for p in argv]
    stamps = {json.dumps(r["stamp"], sort_keys=True) for s in sets for r in s}
    if len(stamps) > 1:
        print("refusing to compare runs with different environment stamps:",
              file=sys.stderr)
        for s in sorted(stamps):
            print("  " + s, file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    status = 0
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            per_set = [series(s, w["name"], m["name"]) for s in sets]
            if not all(per_set):
                continue
            stats = [spread(v) for v in per_set]
            line = (f"{w['name']:8} {m['name']:12} bound {m['bound']:.2f}  "
                    + "  ".join(f"n={len(v)} median {st[0]:.4f} {m['unit']} "
                                f"[{st[2]:.4f}, {st[3]:.4f}] spread {st[1]:.3f}"
                                for v, st in zip(per_set, stats)))
            if len(sets) == 2:
                sign = 1 if m["better"] == "lower" else -1
                worse = sign * (stats[1][0] - stats[0][0]) / stats[0][0]
                verdict = "WORSE" if worse > m["bound"] else "ok"
                status = status or int(verdict == "WORSE")
                line += f"  worse by {worse:+.3f} {verdict}"
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
