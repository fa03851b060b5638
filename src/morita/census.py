"""Exhaustive search for Morita pair witnesses over small lattices.

Both modes run one pipeline per space. Candidates are the surjective
tables on X(x)Y(x)X from ``tensor.enumerate_multimorphisms``, which
assigns values on tuples of join-irreducibles, checks them against the
factors' minimal join covers as it goes and extends by joins, so every
table is a multimorphism and none is checked after. The search keeps the
witnesses, ``_orbit_reps`` one per orbit under pairs (a, b) of
automorphisms of X and Y, and ``_records`` builds and checks each once.
Records are written as the fields they set, sorted, whatever the number
of workers.

The modes differ in the search and the build. A general space (X, Y)
checks each pair of a p candidate on X(x)Y(x)X passing the slice
conditions 3 and 4 and a q candidate on Y(x)X(x)Y passing 5 and 6 with
one ``conditions_from_tables`` call, exact at once and read only for its
outcome, and builds with ``build_context_from_pair``. (X, Y, p, q) is a
witness exactly when (Y, X, q, p) is, so a space whose mirror is in the
task is searched with it: the q list of (X, Y) is the p list of (Y, X),
each unordered pair of a diagonal space's one list is checked once, and
records are still made per ordered space. An involutive space X is the
pair case on (X, X*) with q = p^T. X* has the order of X, so Y = X; every
surjective table is checked as it is yielded, by one
``involutive_conditions_from_tables`` call with no slice pre-filter,
automorphisms move as pairs (a, a), and the build is
``build_involutive_context``. The summary's ``candidates`` counts |P| x
|Q| per ordered space, or the tables of an involutive one; the
benchmark's ``pairs_checked`` counts the calls, about half of that on a
task holding both orders.
"""

import functools
import itertools
import json
from dataclasses import dataclass, field

import numpy as np

# check_imprimitivity, check_morita_context and check_pair_conditions are
# unused here but stay bound: the benchmark tracer (perfbench/tracer.py)
# rebinds them in morita.census. A record's context and imprimitivity
# digests are the reports its build kept in ``ctx.report`` and
# ``imp.report``; its conditions all pass, or the build would have raised
from .engine import (_INVOLUTIVE_LAWS, _PAIR_LAWS, InvolutiveWitness,
                     _distinct_slices, _proved_pair, build_context_from_pair,
                     build_involutive_context, check_imprimitivity,
                     check_morita_context, check_pair_conditions,
                     conditions_from_tables, extract_pair_from_context,
                     involutive_conditions_from_tables)
from .enumeration import automorphisms, enumerate_lattices
from .errors import DomainMismatch, MoritaError, ResourceLimit
from .io import leq_rows
from .lattice import (FiniteSupLattice, _assembled, _freeze, _generates,
                      conjugate_lattice, default_names, join_closure,
                      validate_lattice)
# is_multimorphism, join_closure, tensor_product and validate_lattice are
# unused here but stay bound: the benchmark tracer (perfbench/tracer.py)
# rebinds them in morita.census
from .tensor import enumerate_multimorphisms, is_multimorphism, tensor_product


# --- candidate enumeration ----------------------------------------------------------

def enumerate_trimorphisms(x1, x2, x3, z, *, cap=None):
    'Three-slot multimorphisms whose lifts are surjective.'
    for f in enumerate_multimorphisms((x1, x2, x3), z, cap=cap):
        if _generates(z, f.values):
            yield f


# --- tasks and records --------------------------------------------------------------

@dataclass(frozen=True)
class CensusTask:
    'Size bounds, mode, caps, worker count, and output path for one run.'

    max_x: int
    max_y: int = None
    min_x: int = 1
    min_y: int = 1
    involutive: bool = False
    jobs: int = 1
    tri_cap: int = 200_000
    out: str = None

    def __post_init__(self):
        if self.max_y is None:
            object.__setattr__(self, "max_y", self.max_x)
        for name in ("min_x", "max_x", "min_y", "max_y"):
            if getattr(self, name) < 1:
                raise DomainMismatch(f"{name} must be at least 1")
        if self.max_x < self.min_x or self.max_y < self.min_y:
            raise DomainMismatch("size bounds are empty")
        if self.jobs < 1 or self.tri_cap < 1:
            raise DomainMismatch("caps and worker count must be positive")


@dataclass(frozen=True)
class CensusRecord:
    """One isomorphism class of witnesses, with its verification digests.

    Lattices are identified by their canonical order matrices (rows of
    '0'/'1'); tables are nested lists over canonical element indices.
    """

    mode: str
    x_leq: tuple
    p: tuple
    l_size: int
    r_size: int
    digests: dict = field(compare=False)
    y_leq: tuple = None
    q: tuple = None
    star_a: tuple = None
    star_b: tuple = None

    def sort_key(self):
        return (len(self.x_leq), self.x_leq,
                len(self.y_leq) if self.y_leq else 0, self.y_leq or (),
                self.p, self.q or ())

    def json_line(self):
        'The fields that are set, as one line of key-sorted JSON.'
        return json.dumps({k: v for k, v in vars(self).items()
                           if v is not None}, sort_keys=True,
                          separators=(",", ":"))


def _tuplify(a):
    return tuple(_tuplify(v) for v in a) if isinstance(a, (list, np.ndarray)) \
        else int(a)


def _lat_from_rows(rows):
    'Rows that run_census wrote from validated lattices, built directly.'
    leq = np.array([[c == "1" for c in row] for row in rows], dtype=bool)
    return FiniteSupLattice(len(rows), default_names(len(rows)), leq, None,
                            None, int(leq.all(axis=1).argmax()),
                            int(leq.all(axis=0).argmax()))


# --- per-space search ---------------------------------------------------------------

def _surjective_tables(x, y, cap):
    'The tables of the surjective trimorphisms X(x)Y(x)X -> X.'
    return [f.values for f in enumerate_trimorphisms(x, y, x, x, cap=cap)]


def _separated_tables(x, y, tri_cap):
    'Surjective tables on X(x)Y(x)X -> X whose slot-2 and slot-0 slices separate.'
    return [t for t in _surjective_tables(x, y, tri_cap)
            if _distinct_slices(t, 2, x, "c3") and
            _distinct_slices(t, 0, x, "c4")]


def _search(x, y, tri_cap):
    """The candidate count and the witnesses of the space (X, Y), pairs
    (p, q), or of X in involutive mode (``y`` None), tuples (p,).

    On the diagonal (``y is x``) the p and q lists are one, so each pair
    i <= j is checked once and stands for both (p_i, p_j) and (p_j, p_i).
    """
    if y is None:
        # X* has the order of X; a slice pre-filter cost more than it saved.
        # Each table is checked as yielded and kept as a copy, pinning no block
        candidates, witnesses = 0, []
        for candidates, f in enumerate(
                enumerate_trimorphisms(x, x, x, x, cap=tri_cap), 1):
            if involutive_conditions_from_tables(x, f.values).ok:
                witnesses.append((f.values.copy(),))
        return candidates, witnesses
    p_cands = _separated_tables(x, y, tri_cap)
    q_cands = p_cands if y is x else _separated_tables(y, x, tri_cap)
    witnesses = []
    for i, pt in enumerate(p_cands):
        for qt in (q_cands[i:] if y is x else q_cands):
            if conditions_from_tables(x, y, pt, qt).ok:
                witnesses.append((pt, qt))
                if y is x and qt is not pt:
                    witnesses.append((qt, pt))
    return len(p_cands) * len(q_cands), witnesses


def _orbit_reps(witnesses, auts):
    """One representative per orbit of the witnesses under the pairs (a, b)
    of automorphisms of X and Y: the orbit's least moved tuple, compared as
    flat bytes, in the order of those bytes. A witness's first table is
    over X(x)Y(x)X -> X and moves by (a, b, a), any other is over
    Y(x)X(x)Y -> Y and moves by (b, a, b)."""
    moves = [(np.asarray(a), np.argsort(a), np.asarray(b), np.argsort(b))
             for a, b in auts]
    reps = {}
    for first, *rest in witnesses:
        best = None
        for ax, axi, ay, ayi in moves:
            moved = (ax[first[np.ix_(axi, ayi, axi)]],
                     *(ay[t[np.ix_(ayi, axi, ayi)]] for t in rest))
            key = b"".join(m.tobytes() for m in moved)
            if best is None or key < best[0]:
                best = (key, moved)
        reps.setdefault(*best)
    return [reps[key] for key in sorted(reps)]


def _records(x, y, witnesses):
    """One verified record per orbit of the witnesses of the space (X, Y),
    or of X in involutive mode (``y`` None), where automorphisms move X and
    X* together. The enumerator yields multimorphisms, and automorphisms
    keep them so."""
    if y is None:
        build = functools.partial(_involutive_record, x, conjugate_lattice(x))
        auts = [(a, a) for a in automorphisms(x)]
    else:
        build = functools.partial(_pair_record, x, y)
        auts = list(itertools.product(automorphisms(x), automorphisms(y)))
    return [build(*tables) for tables in _orbit_reps(witnesses, auts)]


def _pair_record(x, y, pt, qt):
    w = _proved_pair(x, y, _freeze(pt), _freeze(qt))
    ctx = build_context_from_pair(w)  # raises ConditionsFailed
    back = extract_pair_from_context(ctx)
    if not (np.array_equal(back.p_gen, w.p_gen)
            and np.array_equal(back.q_gen, w.q_gen)):
        raise MoritaError("census integrity: witness round-trip changed "
                          "the tables")
    return CensusRecord(
        mode="general", x_leq=leq_rows(x), y_leq=leq_rows(y),
        p=_tuplify(pt), q=_tuplify(qt), l_size=ctx.a.n, r_size=ctx.b.n,
        digests={"conditions": dict.fromkeys(_PAIR_LAWS, True),
                 "context": ctx.report.digest()})


def _involutive_record(x, xstar, pt):
    iw = _assembled(InvolutiveWitness, x=x, xstar=xstar, p_gen=_freeze(pt))
    ctx, (inv_a, inv_b), imp = build_involutive_context(iw)  # raises
    return CensusRecord(
        mode="involutive", x_leq=leq_rows(x), p=_tuplify(pt),
        l_size=ctx.a.n, r_size=ctx.b.n,
        star_a=tuple(int(s) for s in inv_a.star),
        star_b=tuple(int(s) for s in inv_b.star),
        digests={"conditions": dict.fromkeys(_INVOLUTIVE_LAWS, True),
                 "context": ctx.report.digest(),
                 "imprimitivity": imp.report.digest()})


def _space_worker(args):
    """One work unit: a lattice in involutive mode (``y_rows`` None), or a
    lattice pair searched for its own order and, when ``mirrored``, for the
    reverse order too. Returns records, candidates, witnesses and the
    skipped spaces."""
    x_rows, y_rows, mirrored, tri_cap = args
    x = _lat_from_rows(x_rows)
    # one object on the diagonal: _search tells it by identity, and so
    # does the pair-check memo, without comparing two lattices
    y = (None if y_rows is None else x if y_rows == x_rows
         else _lat_from_rows(y_rows))
    try:
        candidates, witnesses = _search(x, y, tri_cap)
        records = _records(x, y, witnesses)
        if mirrored:
            records += _records(y, x, [(q, p) for p, q in witnesses])
    except ResourceLimit as e:
        orders = [(x_rows, y_rows)] + [(y_rows, x_rows)] * mirrored
        return [], 0, 0, [{"x_leq": list(xr), "reason": str(e)}
                          | ({} if yr is None else {"y_leq": list(yr)})
                          for xr, yr in orders]
    orders = 1 + mirrored
    return records, orders * candidates, orders * len(witnesses), []


# --- the runner ---------------------------------------------------------------------

def run_census(task: CensusTask):
    """All witness isomorphism classes within the task bounds.

    Returns (records, summary). Output is independent of the worker count:
    spaces are searched in isolation and the record list is globally sorted
    before anything is written. When task.out is set the records are also
    written there, one JSON object per line.
    """
    xs = [lat for n in range(task.min_x, task.max_x + 1)
          for lat in enumerate_lattices(n)]
    if task.involutive:
        spaces = [(leq_rows(x), None) for x in xs]
    else:
        ys = [lat for n in range(task.min_y, task.max_y + 1)
              for lat in enumerate_lattices(n)]
        spaces = [(leq_rows(x), leq_rows(y)) for x in xs for y in ys]
    # a space whose mirror is also in the task is searched with it, once
    ordered = set(spaces)
    args = [(xr, yr, xr != yr and (yr, xr) in ordered, task.tri_cap)
            for xr, yr in spaces
            if (yr, xr) not in ordered or xr <= yr]

    if task.jobs <= 1 or len(args) <= 1:
        results = [_space_worker(a) for a in args]
    else:
        # imported here: it pulls in multiprocessing, about 20 ms
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=task.jobs) as pool:
            results = list(pool.map(_space_worker, args))

    records, skipped = [], []
    candidates = witnesses = 0
    for recs, cands, wits, skips in results:
        records.extend(recs)
        candidates += cands
        witnesses += wits
        skipped.extend(skips)
    records.sort(key=CensusRecord.sort_key)
    skipped.sort(key=lambda s: (s["x_leq"], s.get("y_leq", [])))

    summary = {"mode": "involutive" if task.involutive else "general",
               "spaces": len(spaces), "candidates": candidates,
               "witnesses": witnesses, "records": len(records),
               "skipped": skipped}
    if task.out:
        with open(task.out, "w", encoding="utf-8", newline="\n") as fh:
            for rec in records:
                fh.write(rec.json_line() + "\n")
    return records, summary
