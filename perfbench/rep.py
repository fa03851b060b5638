"""One repetition of a workload in a fresh interpreter; run.py starts it.

Sets up the workload's inputs, records the monotonic time at which they
are ready (the parent read the same clock just before starting this
process), runs the work item by item, untraced or traced, checks the
outputs and prints one JSON report as its last line of standard output.

    python3 perfbench/rep.py --workload census --seed 1 --trace 0 --workdir W

Machine speed. The hosts this runs on change speed by up to 2.2x for tens
of seconds at a time (other tenants; the per-run median probe ranged from
3.5 to 7.5 ms over 114 runs on a 2-vCPU VM), which moves every wall time
alike.
So a fixed probe loop that does not touch morita is timed before, between
and after the work items, and each item's time is also reported scaled to
the nominal speed at which the probe takes NOMINAL_PROBE_S:
``t * NOMINAL_PROBE_S / probe``. The raw wall times are reported as well.
Set-up is not scaled: a probe in a freshly started process is too noisy.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

NOMINAL_PROBE_S = 0.004


def environment_stamp():
    'What decides which numbers may be compared with which.'
    import numpy
    from morita import _kernels
    return {"kernels": _kernels.ACTIVE, "numpy": numpy.__version__,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "MORITA_PURE_NUMPY": os.environ.get("MORITA_PURE_NUMPY"),
            "MORITA_MAX_TENSOR": os.environ.get("MORITA_MAX_TENSOR")}


def probe_s():
    """Seconds for a fixed piece of interpreter and small-array work.

    Independent of morita, so it measures only how fast the machine runs
    right now. A round is a dict-and-integer loop plus boolean passes over a
    64x64 matrix, the two kinds of work the workloads mix; the median of
    five rounds of about 3.5 ms each is returned.
    """
    import numpy as np
    rng = np.random.default_rng(0)
    below = rng.random((64, 64)) < 0.3
    seed = rng.random(64) < 0.2
    table = np.arange(64, dtype=np.int64).reshape(8, 8)
    rounds = []
    for _ in range(5):
        t0 = time.perf_counter()
        seen = {}
        acc = 0
        for k in range(8000):
            acc += k & 7
            seen[k % 97] = acc
            if k % 20 == 0:
                acc += int(table[k % 8][table[k % 8] > 3].sum())
        mask = seed.copy()
        for k in range(300):
            new = (below & mask[None, :]).any(axis=1)
            mask = mask | (new & ~mask) if k % 7 else seed.copy()
            if mask[k % 64]:
                mask[(k * 5) % 64] = False
        rounds.append(time.perf_counter() - t0)
    return statistics.median(rounds)


def run_items(wl, out):
    """Run every item; returns the raw seconds of the work, each item's
    seconds at nominal speed, and the median probe.

    An item's nominal time uses the mean of the probes just before and
    just after it; probes are outside the timed intervals. The first probe
    only warms up.
    """
    wall = 0.0
    work = []
    probe_s()
    before = probe_s()
    probes = [before]
    for item in wl.items:
        t0 = time.perf_counter()
        wl.run_item(item, out)
        took = time.perf_counter() - t0
        after = probe_s()
        wall += took
        work.append(took * NOMINAL_PROBE_S / ((before + after) / 2))
        before = after
        probes.append(after)
    return wall, work, statistics.median(probes)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir,
                                            tiny=args.tiny)
    report = {"ready": time.monotonic(), "stamp": environment_stamp()}
    if not args.setup_only:
        out = workloads.Outcome()
        if args.trace:
            import tracer
            with tracer.Tracer() as rec:
                wall, work, probe = run_items(wl, out)
            if not rec.balanced():
                raise RuntimeError("span stack not balanced after the run")
            report["layers"], report["self_s"] = tracer.layer_metrics(rec, wall)
            if args.workload == "census":
                report["stages"] = tracer.census_stage_rows(rec, out.summaries)
        else:
            wall, work, probe = run_items(wl, out)
        report.update(
            wall_s=wall, work_s=sum(work), item_work_s=work, probe_s=probe,
            attempted=out.attempted,
            failed=out.failed,
            mismatches=wl.check(out, workloads.load_reference()),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0)
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
