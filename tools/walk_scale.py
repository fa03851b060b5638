"""Time one multimorphism list in a fresh interpreter.

    python3 tools/walk_scale.py X,Y,Z T [--tables N]

X,Y,Z lists the factors, one or more, comma-separated, and T names the
target, as in ``tools/tensor_scale.py``: ``cK`` is the K-element chain,
``d`` the diamond, ``m3`` and ``n5`` the two 5-element lattices that are
not distributive. For example ``c4,c4,c4 c4`` is the list of the
multimorphisms of three 4-chains into the 4-chain (17.8 million tables).

A fresh interpreter imports morita from this checkout's ``src/``, builds
the lattices with the ``morita.lattice`` constructors and drains
``tensor._table_blocks`` of the factors into the target: the whole list,
or its first N tables with ``--tables N``. One line is printed: the
tables drained, the wall seconds (measured in the child around the walk,
plan compile and gathers included, so interpreter start and imports are
left out), the microseconds per table and the child's peak RSS in MB (its
whole life, imports included). Exits 1 if the child fails. Uses the
standard library and morita only.
"""

import argparse
import os
import re
import sys

from tensor_scale import LATTICE, MAKE, SRC, _child

CHILD = MAKE + """
import sys, time
from morita import tensor
limit, target, *factors = sys.argv[1:]
limit, target = int(limit), make(target)
factors = tuple(make(name) for name in factors)
tables = 0
start = time.perf_counter()
for block in tensor._table_blocks(factors, target):
    tables += len(block)
    if limit and tables >= limit:
        tables = limit
        break
print(tables, f"{time.perf_counter() - start:.6f}")
"""


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Time one multimorphism list in a fresh interpreter.")
    parser.add_argument("factors", help="factors, comma-separated")
    parser.add_argument("target")
    parser.add_argument("--tables", type=int, default=0,
                        help="stop after this many tables (default: all)")
    args = parser.parse_args(argv)
    names = args.factors.split(",")
    for name in (*names, args.target):
        if not re.fullmatch(LATTICE, name):
            sys.exit(f"walk_scale: bad lattice {name!r}")
    if args.tables < 0:
        sys.exit("walk_scale: --tables must not be negative")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    code, out, rss = _child(
        [CHILD, str(args.tables), args.target, *names], env)
    shape = f"{args.factors} -> {args.target}"
    if code != 0:
        print(f"{shape}: failed")
        return 1
    tables, seconds = out.split()
    tables, seconds = int(tables), float(seconds)   # each list has the zero map
    print(f"{shape}: {tables} tables, {seconds:.3f} s, "
          f"{1e6 * seconds / tables:.2f} µs per table, peak RSS {rss:.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
