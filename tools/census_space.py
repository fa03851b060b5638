"""Time one census work unit in a fresh interpreter.

    python3 tools/census_space.py X [Y]

X and Y name lattices as in ``tools/tensor_scale.py``: ``cK`` is the
K-element chain, ``d`` the diamond, ``m3`` and ``n5`` the two 5-element
lattices that are not distributive. For example ``c3 d`` is the general
space of the 3-chain and the diamond, and ``d`` alone the involutive space
of the diamond.

A fresh interpreter imports morita from this checkout's ``src/``, takes
the census's own lattice objects (the ones ``run_census`` gets from
``enumerate_lattices``, one per class) and runs one census work unit,
``census._space_worker`` at the default multimorphism cap. Given X and Y
it is the general unit of the pair {X, Y}: both orders (X, Y) and (Y, X)
from one search, or the one space when X and Y are the same lattice.
Given X alone it is the involutive unit of X. One line is printed: |P|
and |Q| (the candidate p tables of (X, Y) and of (Y, X); in involutive
mode the unit's candidates, every surjective table of X, and ``-``), the
unit's candidates, witnesses, records and skipped spaces, its wall
seconds (measured in the child around the unit, so interpreter start and
imports are left out) and the child's peak RSS in MB (its whole life,
imports included). Exits 1 if
the child fails. Uses the standard library and morita only.
"""

import os
import re
import sys

from tensor_scale import LATTICE, MAKE, SRC, _child

CHILD = MAKE + """
import sys, time
from morita import census
from morita.enumeration import canonical_key, enumerate_lattices

def census_lattice(lat):
    key = canonical_key(lat)
    return next(c for c in enumerate_lattices(lat.n)
                if canonical_key(c) == key)

x, *rest = (census_lattice(make(name)) for name in sys.argv[1:])
y = rest[0] if rest else None   # None: the involutive unit of X
sizes = []                  # |P|, then |Q| off the diagonal
search = census._separated_tables

def counted(*args):
    tables = search(*args)
    sizes.append(len(tables))
    return tables

census._separated_tables = counted
start = time.perf_counter()
records, candidates, witnesses, skips = census._space_worker(
    (x, y, y not in (None, x), census.CensusTask(1).tri_cap))
seconds = time.perf_counter() - start
if x == y:
    sizes *= 2              # the diagonal's one list is both
elif y is None:
    sizes = [candidates]    # every surjective table is a candidate
print(*(sizes + ["-", "-"])[:2], candidates, witnesses, len(records),
      len(skips), f"{seconds:.6f}")
"""


def main(argv=None):
    names = sys.argv[1:] if argv is None else argv
    if len(names) not in (1, 2):
        sys.exit(__doc__.split("\n\n")[1])
    for name in names:
        if not re.fullmatch(LATTICE, name):
            sys.exit(f"census_space: bad lattice {name!r}")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    code, out, rss = _child([CHILD, *names], env)
    if code != 0:
        print(f"{' '.join(names)}: failed")
        return 1
    p, q, candidates, witnesses, records, skips, seconds = out.split()
    print(f"{' '.join(names)}: |P| {p}, |Q| {q}, {candidates} candidates, "
          f"{witnesses} witnesses, {records} records, {skips} skipped, "
          f"{float(seconds):.3f} s, peak RSS {rss:.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
