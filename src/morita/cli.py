"""Command-line interface.

Exit codes: 0 all checks pass, 1 a check failed (report printed),
2 malformed input, a resource limit, no memory left, or an unwritable file.
"""

import argparse
import functools
import os
import sys

from . import io as mio
from .census import CensusTask, run_census
from .engine import (MoritaPairWitness, build_context_from_pair,
                     check_morita_context, conditions_from_tables,
                     extract_pair_from_context,
                     involutive_conditions_from_tables)
from .errors import (ConditionsFailed, ContextInvalid, FormatError,
                     MoritaError)
from .lattice import validate_lattice
from .quantale import endo_quantale
from .tensor import Multimorphism, tensor_product


def _report_exit(report, label):
    print(report.summary())
    good = sum(v.ok for v in report.checks.values())
    print(f"{label}: {good}/{len(report.checks)} laws hold")
    return 0 if report.ok else 1


def _load_pair_tables(args, need_q=True):
    x = mio.read_lattice(args.x)
    y = mio.read_lattice(args.y) if need_q else x
    p = mio.read_map(args.p)
    maps = [("p", p, (x, y, x), x)]
    if need_q:
        maps.append(("q", mio.read_map(args.q), (y, x, y), y))
    for name, f, factors, target in maps:
        if tuple(f.factors) != factors or f.target != target:
            raise FormatError(
                f"{name} must map "
                + "x".join(str(l.n) for l in factors)
                + f" into the {target.n}-element lattice; got "
                + "x".join(str(l.n) for l in f.factors)
                + f" -> {f.target.n}")
    return (x, y, p, maps[1][1]) if need_q else (x, p)


def cmd_validate(args):
    leq, names = mio.read_lattice_raw(args.file)
    try:
        lat = validate_lattice(leq, names)
    except MoritaError as e:
        print(f"FAIL {type(e).__name__}: {e}")
        return 1
    print(f"PASS {lat.n}-element sup-lattice, "
          f"bottom={lat.names[lat.bottom]}, top={lat.names[lat.top]}")
    return 0


def cmd_tensor(args):
    if not 2 <= len(args.factors) <= 3:
        raise FormatError("tensor takes two or three lattice files")
    read = {p: mio.read_lattice(p) for p in dict.fromkeys(args.factors)}
    factors = [read[p] for p in args.factors]
    t = tensor_product(*factors)
    mio.write_lattice(args.out, t.lattice)
    elem_path = os.path.splitext(args.out)[0] + ".elem"
    mio.write_elem(elem_path, t)
    shape = "x".join(str(f.n) for f in factors)
    print(f"tensor of {shape}: {t.lattice.n} elements -> "
          f"{args.out} (elementary tensors in {elem_path})")
    return 0


def cmd_endo(args):
    lat = mio.read_lattice(args.file)
    q = endo_quantale(lat)
    print(f"{q.n} sup-endomorphisms of the {lat.n}-element lattice; "
          f"unit={q.carrier.names[q.unit]}")
    for name in q.carrier.names:
        print(" ", name)
    if args.out:
        mio.write_quantale(args.out, q)
        print(f"quantale -> {args.out}")
    return 0


def cmd_check_pair(args):
    x, y, p, q = _load_pair_tables(args)
    report = conditions_from_tables(x, y, p.values, q.values)
    return _report_exit(report, "pair")


def cmd_build_context(args):
    x, y, p, q = _load_pair_tables(args)
    try:
        w = MoritaPairWitness.from_generators(x, y, p.values, q.values)
        ctx = build_context_from_pair(w)
    except ConditionsFailed as e:
        print(e.report.summary())
        print("pair: conditions failed, no context built")
        return 1
    mio.write_context(args.out, ctx)
    print(f"context -> {args.out}: |A|={ctx.a.n}, |B|={ctx.b.n}, "
          f"|X|={ctx.x.carrier.n}, |Y|={ctx.y.carrier.n}")
    return 0


def cmd_check_context(args):
    ctx = mio.read_context(args.dir)
    report = check_morita_context(ctx)
    return _report_exit(report, "context")


def cmd_extract(args):
    parts = args.out.split(",")
    if len(parts) != 2:
        raise FormatError("-o takes two paths: <p.map>,<q.map>")
    ctx = mio.read_context(args.dir)
    try:
        w = extract_pair_from_context(ctx)
    except (ContextInvalid, ConditionsFailed) as e:
        print(e.report.summary())
        print("context: extraction refused")
        return 1
    xy = (w.x, w.y)
    for path, table, (f1, f2) in ((parts[0], w.p_gen, xy),
                                  (parts[1], w.q_gen, xy[::-1])):
        f = Multimorphism((f1, f2, f1), f1, table)   # checked by the witness
        ref = lambda name: os.path.relpath(
            os.path.join(args.dir, name), os.path.dirname(path) or ".")
        names = ("X.lat", "Y.lat") if f1 is w.x else ("Y.lat", "X.lat")
        mio.write_map(path, f, (ref(names[0]), ref(names[1]), ref(names[0])),
                      ref(names[0]))
    print(f"pair -> {parts[0]}, {parts[1]}")
    return 0


def cmd_check_involutive(args):
    x, p = _load_pair_tables(args, need_q=False)
    report = involutive_conditions_from_tables(x, p.values)
    return _report_exit(report, "involutive")


def cmd_census(args):
    task = CensusTask(max_x=args.max_x, max_y=args.max_y,
                      min_x=args.min_x, min_y=args.min_y,
                      involutive=args.involutive, jobs=args.jobs,
                      out=args.out)
    records, summary = run_census(task)
    print(f"mode={summary['mode']} spaces={summary['spaces']} "
          f"candidates={summary['candidates']} "
          f"witnesses={summary['witnesses']} records={summary['records']}")
    for s in summary["skipped"]:
        print(f"skipped: {s}")
    if args.out:
        print(f"records -> {args.out}")
    else:
        for r in records:
            print(r.json_line())
    return 0


@functools.lru_cache(maxsize=None)
def _parser():
    top = argparse.ArgumentParser(
        prog="morita",
        description="Check and search Morita equivalence pairs between "
                    "operator quantales on finite sup-lattices.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a .lat file is a sup-lattice")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("tensor", help="tensor product of 2 or 3 lattices")
    p.add_argument("factors", nargs="+", metavar="lat")
    p.add_argument("-o", "--out", required=True, metavar="t.lat")
    p.set_defaults(func=cmd_tensor)

    p = sub.add_parser("endo", help="quantale of sup-endomorphisms")
    p.add_argument("file")
    p.add_argument("-o", "--out", metavar="q.qnt")
    p.set_defaults(func=cmd_endo)

    p = sub.add_parser("check-pair",
                       help="test conditions 1-6 on a candidate pair (p, q)")
    for flag in ("--x", "--y", "--p", "--q"):
        p.add_argument(flag, required=True)
    p.set_defaults(func=cmd_check_pair)

    p = sub.add_parser("build-context",
                       help="construct the Morita context of a passing pair")
    for flag in ("--x", "--y", "--p", "--q"):
        p.add_argument(flag, required=True)
    p.add_argument("-o", "--out", required=True, metavar="dir")
    p.set_defaults(func=cmd_build_context)

    p = sub.add_parser("check-context",
                       help="verify every law of a context bundle")
    p.add_argument("dir")
    p.set_defaults(func=cmd_check_context)

    p = sub.add_parser("extract",
                       help="recover the pair (p, q) from a context bundle")
    p.add_argument("dir")
    p.add_argument("-o", "--out", required=True, metavar="p.map,q.map")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("check-involutive",
                       help="test conditions a-c on a single-lattice p")
    p.add_argument("--x", required=True)
    p.add_argument("--p", required=True)
    p.set_defaults(func=cmd_check_involutive)

    p = sub.add_parser("census",
                       help="enumerate all witnesses over small lattices")
    p.add_argument("--max-x", type=int, required=True)
    p.add_argument("--max-y", type=int, default=None)
    p.add_argument("--min-x", type=int, default=1)
    p.add_argument("--min-y", type=int, default=1)
    p.add_argument("--involutive", action="store_true")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("-o", "--out", metavar="file")
    p.set_defaults(func=cmd_census)

    return top


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (MoritaError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:                # numpy names the failed allocation
        print(f"error: out of memory: {e}".rstrip(": "), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
