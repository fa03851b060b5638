"""Benchmark of the morita package: census, verify and tensor workloads.

    python3 perfbench/run.py --workload census --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout (the package is imported from
./src; nothing is installed or built). Every repetition starts a fresh
interpreter through rep.py, one at a time on one core, so no module-level
cache can carry over from one repetition to the next. Repetitions start
until ``--seconds`` have passed (at least one); set-up is also sampled by
set-up-only repetitions until there are five samples.

--trace 0 prints the end-to-end metrics of BENCHMARK.json:
  setup_s      interpreter start to inputs ready (import morita, load the
               witness file, write the factor .lat files); median over
               every process started
  work_s       the workload's work, untraced, at nominal machine speed;
               the sum over work items of each item's median
  peak_rss_mb  peak resident memory of a repetition; median
and, outside the final JSON, the raw wall_s of the work, the probe time and
failed_frac (failed over attempted operations). "At nominal speed" means
scaled by a probe loop timed alongside the work; see rep.py.
--trace 1 alternates untraced and traced repetitions and prints the
per-layer metrics of BENCHMARK.json from the traced ones (medians; layer
seconds are raw), trace.overhead_s = traced minus untraced work_s, the
self-time accounting, and for census a per-task stage table.

Every run checks the outputs against reference.json; the last line of
standard output is one JSON object with keys correct, attempted, failed and
metrics, and the exit code is 1 when an output differs. --record PATH
appends the whole result, with the environment stamp, to a JSON-lines file
that compare.py reads.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import rep

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 5
RUN_LIMIT_S = 150      # start no repetition that would end past this
REP_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def spawn(args, workdir, extra=()):
    'Run rep.py once; returns (report, rep seconds), set-up times in report.'
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, os.path.join(HERE, "rep.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--workdir", workdir, *extra]
    if args.tiny:
        cmd.append("--tiny")
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=REP_TIMEOUT_S)
    took = time.monotonic() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"repetition exited with code {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["ready"] - t0
    return report, took


def repetitions(args, workdir):
    'Untraced and (with --trace 1) traced work reports, set-up-only reports.'
    plain, traced, setups = [], [], []
    started = time.monotonic()
    longest = 0.0
    while True:
        kinds = ("0", "1") if args.trace else ("0",)
        for kind in kinds:
            report, took = spawn(args, workdir, ("--trace", kind))
            (traced if kind == "1" else plain).append(report)
            longest = max(longest, took)
        elapsed = time.monotonic() - started
        if (elapsed >= args.seconds
                or elapsed + longest * len(kinds) > RUN_LIMIT_S):
            break
    while len(plain) + len(traced) + len(setups) < SETUP_SAMPLES:
        setups.append(spawn(args, workdir, ("--setup-only",))[0])
    return plain, traced, setups


def median_of(reports, key):
    return statistics.median(r[key] for r in reports)


def item_medians(reports):
    """Sum over work items of each item's median time across repetitions.

    Every repetition runs the same items in the same order; a burst of
    host noise that slows one item in one repetition is dropped here, where
    the median of whole-repetition totals would keep part of it.
    """
    per_item = zip(*(r["item_work_s"] for r in reports))
    return sum(statistics.median(times) for times in per_item)


def print_stage_table(rows, reference):
    cols = ("enumerated", "surjective", "separated", "pairs_checked",
            "witnesses", "records", "skipped")
    print("census stages (counts; '!' marks a count that differs from "
          "reference.json):")
    print(f"  {'task':10}" + "".join(f"{c:>14}" for c in cols))
    for row in rows:
        ref = reference.get(row["task"], {})
        cells = []
        for c in cols:
            v = row[c]
            mark = "!" if c in ref and ref[c] != v else " "
            cells.append(f"{'-' if v is None else v:>13}{mark}")
        print(f"  {row['task']:10}" + "".join(cells))
    stages = list(rows[0]["seconds"]) if rows else []
    print("census stages (seconds):")
    print(f"  {'task':10}" + "".join(f"{s:>13}" for s in stages)
          + f"{'total':>10}")
    for row in rows:
        print(f"  {row['task']:10}"
              + "".join(f"{row['seconds'][s]:>13.4f}" for s in stages)
              + f"{row['wall_s']:>10.4f}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small inputs on the same code paths (smoke test)")
    ap.add_argument("--record", metavar="PATH",
                    help="append the full result to this JSON-lines file")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "morita", "__init__.py")):
        fail("run from the root of a morita checkout: src/morita is missing")
    try:
        with open("BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
    except OSError as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)

    workdir = os.path.abspath(os.path.join(".perfbench_work", str(os.getpid())))
    os.makedirs(workdir, exist_ok=True)
    try:
        plain, traced, setups = repetitions(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    everyone = plain + traced + setups
    stamp = everyone[0]["stamp"]
    print("env: " + json.dumps(stamp, sort_keys=True))

    mismatches = sorted({m for r in plain + traced for m in r["mismatches"]})
    for m in mismatches:
        print(f"MISMATCH {m}")
    attempted = sum(r["attempted"] for r in plain + traced)
    failed = sum(r["failed"] for r in plain + traced)

    raw = {"wall_s": median_of(plain, "wall_s"),
           "probe_ms": 1e3 * median_of(plain, "probe_s")}
    print(f"{len(plain)} untraced and {len(traced)} traced repetitions, "
          f"{len(everyone)} set-up samples")
    print(f"wall_s = {raw['wall_s']:.6g} s (raw; work_s is this at nominal "
          f"speed)")
    print(f"probe_ms = {raw['probe_ms']:.6g} ms (nominal "
          f"{1e3 * rep.NOMINAL_PROBE_S:g} ms)")
    if args.trace:
        values = traced_layers(plain, traced, reference)
        wanted = spec["per_layer"]
    else:
        values = {"setup_s": median_of(everyone, "setup_s"),
                  "work_s": item_medians(plain),
                  "peak_rss_mb": median_of(plain, "peak_rss_mb")}
        wanted = spec["end_to_end"]

    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            fail(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(f"failed_frac = {failed / attempted:.6g} ratio "
          f"({failed} failed of {attempted} attempted)")

    result = {"correct": not mismatches, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    if args.record:
        full = {"workload": args.workload, "seed": args.seed,
                "trace": args.trace, "tiny": args.tiny, "stamp": stamp,
                "repetitions": len(plain), "raw": raw, "result": result}
        if traced and "stages" in traced[0]:
            full["stages"] = traced[0]["stages"]
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(full, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def traced_layers(plain, traced, reference):
    'Per-layer metrics (medians over traced repetitions) and their accounting.'
    layers = {}
    for name in traced[0]["layers"]:
        vals = [r["layers"][name] for r in traced]
        # counts repeat exactly; keep them whole numbers
        layers[name] = (vals[0] if len(set(vals)) == 1
                        else statistics.median(vals))
    layers["trace.overhead_s"] = (median_of(traced, "work_s")
                                  - median_of(plain, "work_s"))
    first = traced[0]
    own = sum(first["self_s"].values())
    residual = first["layers"]["trace.residual_s"]
    print(f"accounting (first traced repetition): span self times "
          f"{own:.4f} s + residual {residual:.4f} s = {own + residual:.4f} s;"
          f" traced wall_s {first['wall_s']:.4f} s")
    for name, sec in sorted(first["self_s"].items(), key=lambda kv: -kv[1]):
        print(f"  self {name:45} {sec:10.4f} s")
    if "stages" in first:
        print_stage_table(first["stages"], reference.get("stages", {}))
    return layers


if __name__ == "__main__":
    sys.exit(main())
