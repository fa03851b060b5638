"""Finite complete lattices and join-preserving maps.

A finite lattice is stored as a boolean ``leq`` matrix (``leq[i, j]`` iff
``i <= j``) together with precomputed ``join``/``meet`` index tables. All
joins are finite, so "sup-preserving" reduces everywhere to: preserves the
empty join (bottom goes to bottom) and binary joins.
"""

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import (DomainMismatch, MissingJoin, MoritaError, NoBottom,
                     NotAPartialOrder, NoTop, NotSupMap, PASS, ResourceLimit,
                     failure)


def _freeze(arr):
    arr.flags.writeable = False
    return arr


class FiniteSupLattice:
    """A validated finite lattice. Build through :func:`validate_lattice`."""

    __slots__ = ("n", "names", "leq", "join", "meet", "bottom", "top",
                 "_key", "_irr", "_below_sets")

    def __init__(self, n, names, leq, join, meet, bottom, top):
        self.n = n
        self.names = tuple(names)
        self.leq = _freeze(leq)
        self.join = _freeze(join)
        self.meet = _freeze(meet)
        self.bottom = bottom
        self.top = top
        self._key = leq.tobytes()
        self._irr = None
        self._below_sets = None

    def __eq__(self, other):
        return (isinstance(other, FiniteSupLattice)
                and self.n == other.n and self._key == other._key)

    def __hash__(self):
        return hash((self.n, self._key))

    def __repr__(self):
        return f"FiniteSupLattice(n={self.n}, names={list(self.names)})"

    def le(self, i, j):
        return bool(self.leq[i, j])

    def join_of(self, elems):
        'Join of any finite iterable of elements; empty join is bottom.'
        out = self.bottom
        for e in elems:
            out = self.join[out, e]
        return int(out)

    def meet_of(self, elems):
        out = self.top
        for e in elems:
            out = self.meet[out, e]
        return int(out)

    def join_irreducibles(self):
        """Elements with exactly one lower cover, in topological order.

        Every element is the join of the irreducibles below it, so maps are
        determined by (and enumerable from) their values here.
        """
        if self._irr is None:
            strictly_below = self.leq.T & ~np.eye(self.n, dtype=bool)
            irr = []
            for j in range(self.n):
                below = np.flatnonzero(strictly_below[j])
                if j != self.bottom and self.join_of(below) != j:
                    irr.append(j)
            irr.sort(key=lambda j: int(self.leq[:, j].sum()))
            self._irr = tuple(irr)
        return self._irr

    def irreducibles_below(self):
        'For each element, the tuple of join-irreducibles below it.'
        if self._below_sets is None:
            irr = self.join_irreducibles()
            self._below_sets = tuple(
                tuple(j for j in irr if self.leq[j, x]) for x in range(self.n))
        return self._below_sets

    def relabel(self, names):
        if len(names) != self.n:
            raise DomainMismatch(f"expected {self.n} names, got {len(names)}")
        return FiniteSupLattice(self.n, tuple(names),
                                self.leq.copy(), self.join.copy(),
                                self.meet.copy(), self.bottom, self.top)


def _words(rows):
    'Boolean rows as little-endian 64-bit words: bit c of row i is rows[i, c].'
    n = rows.shape[1]
    packed = np.zeros((rows.shape[0], -(-n // 64) * 8), dtype=np.uint8)
    packed[:, :-(-n // 8)] = np.packbits(rows, axis=1, bitorder="little")
    return packed.view("<u8")


def _least_bounds(up):
    """Least common upper bounds for ``up[i]`` the up-set of element i.

    Entry (i, j) is the least element of up(i) & up(j), or -1 if there is
    none. Columns are visited in a linear extension, largest up-set first,
    so the first common upper bound is a minimal one; it is the least one
    exactly when its own up-set is the whole intersection. Rows are packed
    into 64-bit words and taken a block at a time.
    """
    n = up.shape[0]
    order = np.argsort(-up.sum(axis=1), kind="stable")
    words = _words(up[:, order])
    step = max(1, (1 << 15) // words.size)
    out = np.empty((n, n), dtype=np.int64)
    for a in range(0, n, step):     # rows a:a+step against columns a:
        common = words[a:a + step, None, :] & words[None, a:, :]
        first = (common != 0).argmax(axis=2)
        w = np.take_along_axis(common, first[..., None], axis=2)[..., 0]
        low = (w & (~w + np.uint64(1))).astype(np.float64)   # lowest set bit
        cand = order[first * 64 + np.frexp(low)[1] - 1]
        least = (words[cand] == common).all(axis=2) & (w != 0)
        block = np.where(least, cand, -1)
        out[a:a + step, a:] = block
        out[a:, a:a + step] = block.T
    return out


def validate_lattice(leq, names=None) -> FiniteSupLattice:
    """Check the lattice axioms on an order matrix and precompute tables.

    Raises NotAPartialOrder, NoBottom, MissingJoin or NoTop with a violating
    witness. Given a bottom and all binary joins, binary meets exist in any
    finite poset (meet = join of the common lower bounds); they are computed
    here and double-checked.
    """
    leq = np.array(leq, dtype=bool)
    if leq.ndim != 2 or leq.shape[0] != leq.shape[1]:
        raise NotAPartialOrder(f"order matrix must be square, got {leq.shape}")
    n = leq.shape[0]
    if n == 0:
        raise NoBottom("empty carrier has no bottom")
    if names is None:
        names = default_names(n)
    names = tuple(str(s) for s in names)
    if len(names) != n:
        raise DomainMismatch(f"{n} elements but {len(names)} names")

    if not leq.diagonal().all():
        i = int(np.flatnonzero(~leq.diagonal())[0])
        raise NotAPartialOrder(f"not reflexive at {names[i]}")
    both = leq & leq.T
    if (both != np.eye(n, dtype=bool)).any():
        i, j = map(int, np.argwhere(both & ~np.eye(n, dtype=bool))[0])
        raise NotAPartialOrder(
            f"not antisymmetric: {names[i]} <= {names[j]} <= {names[i]}")
    # row i reaches the union of the rows of its up-set; bitwise, so no
    # count can overflow, and a block of rows at a time
    words = _words(leq)
    step = max(1, (1 << 16) // words.size)
    for a in range(0, n, step):
        block = leq[a:a + step]
        counts = block.sum(axis=1)          # >= 1: the order is reflexive
        reach = np.bitwise_or.reduceat(words[np.nonzero(block)[1]],
                                       np.cumsum(counts) - counts)
        extra = reach & ~words[a:a + step]
        if extra.any():
            i = a + int(np.flatnonzero(extra.any(axis=1))[0])
            over = np.unpackbits(extra[i - a].view(np.uint8), bitorder="little")
            j = int(np.flatnonzero(over)[0])
            k = int(np.flatnonzero(leq[i] & leq[:, j])[0])
            raise NotAPartialOrder(
                f"not transitive: {names[i]} <= {names[k]} <= {names[j]} "
                f"but not {names[i]} <= {names[j]}")

    bottoms = np.flatnonzero(leq.all(axis=1))
    if len(bottoms) == 0:
        lo = np.flatnonzero(leq.sum(axis=0) == 1)
        pair = tuple(names[int(i)] for i in lo[:2]) if len(lo) >= 2 else ()
        raise NoBottom("no least element" +
                       (f"; minimal elements {pair[0]}, {pair[1]}" if pair else ""))
    bottom = int(bottoms[0])

    join = _least_bounds(leq)
    if (join < 0).any():
        i, j = map(int, np.argwhere(join < 0)[0])
        raise MissingJoin(f"{names[i]} and {names[j]} have no join")

    tops = np.flatnonzero(leq.all(axis=0))
    if len(tops) == 0:
        raise NoTop("no greatest element")
    top = int(tops[0])

    meet = _least_bounds(np.ascontiguousarray(leq.T))
    if (meet < 0).any():
        i, j = map(int, np.argwhere(meet < 0)[0])
        raise MoritaError(
            f"internal: {names[i]} and {names[j]} have no meet "
            "despite bottom and joins")

    return FiniteSupLattice(n, names, leq, join, meet, bottom, top)


def default_names(n):
    if n == 1:
        return ("0",)
    mids = [f"x{i}" for i in range(1, n - 1)]
    return tuple(["0"] + mids + ["1"])


def join_closure(lat, elems):
    'Smallest subset containing elems, the bottom, and all binary joins.'
    seen = {lat.bottom} | {int(e) for e in elems}
    frontier = list(seen)
    while frontier:
        nxt = []
        for a in frontier:
            for b in seen:
                j = int(lat.join[a, b])
                if j not in seen:
                    nxt.append(j)
        seen.update(nxt)
        frontier = nxt
    return tuple(sorted(seen))


# --- sup-preserving maps ------------------------------------------------------

@dataclass(frozen=True)
class SupMap:
    dom: FiniteSupLattice
    cod: FiniteSupLattice
    values: tuple

    def __call__(self, i):
        return self.values[i]

    def compose(self, other):
        'self after other.'
        if other.cod != self.dom:
            raise DomainMismatch("composition domains do not line up")
        return SupMap(other.dom, self.cod,
                      tuple(self.values[v] for v in other.values))

    def is_surjective(self):
        return len(set(self.values)) == self.cod.n


def identity_map(lat):
    return SupMap(lat, lat, tuple(range(lat.n)))


def is_sup_map(f: SupMap):
    'Verdict on empty-join and binary-join preservation.'
    dom, cod = f.dom, f.cod
    if len(f.values) != dom.n or not all(0 <= v < cod.n for v in f.values):
        raise DomainMismatch("value table does not match the carriers")
    vals = np.asarray(f.values, dtype=np.int64)
    if vals[dom.bottom] != cod.bottom:
        return failure("preserves-bottom", (dom.names[dom.bottom],),
                       f"maps bottom to {cod.names[vals[dom.bottom]]}")
    lhs = vals[dom.join]
    rhs = cod.join[vals[:, None], vals[None, :]]
    bad = np.argwhere(lhs != rhs)
    if len(bad):
        i, j = map(int, bad[0])
        return failure("preserves-joins", (dom.names[i], dom.names[j]),
                       f"f({dom.names[i]} v {dom.names[j]}) = "
                       f"{cod.names[lhs[i, j]]} but f(..) v f(..) = "
                       f"{cod.names[rhs[i, j]]}")
    return PASS


def as_sup_map(dom, cod, values) -> SupMap:
    'Construct and validate; raises NotSupMap with the verdict text.'
    f = SupMap(dom, cod, tuple(int(v) for v in values))
    v = is_sup_map(f)
    if not v:
        raise NotSupMap(str(v))
    return f


def enumerate_sup_maps(x, y, cap=None):
    """Yield every sup-preserving map x -> y, in a deterministic order.

    Backtracks over monotone assignments on the join-irreducibles of ``x``
    (in topological order), extends each by joins, and keeps the extensions
    that preserve binary joins. The join-preservation check is not redundant:
    on non-distributive lattices some monotone assignments extend to maps
    that fail it.
    """
    irr = x.join_irreducibles()
    below = x.irreducibles_below()
    pos = {j: k for k, j in enumerate(irr)}
    preds = [[pos[i] for i in below[j] if i != j] for j in irr]
    assign = [0] * len(irr)
    count = 0

    def extend():
        at = {j: assign[k] for k, j in enumerate(irr)}
        return tuple(y.join_of(at[j] for j in below[v]) for v in range(x.n))

    def rec(k):
        nonlocal count
        if k == len(irr):
            f = SupMap(x, y, extend())
            if is_sup_map(f):
                count += 1
                if cap is not None and count > cap:
                    raise ResourceLimit(f"more than {cap} sup-maps")
                yield f
            return
        lower = y.join_of(assign[p] for p in preds[k])
        for v in range(y.n):
            if y.leq[lower, v]:
                assign[k] = v
                yield from rec(k + 1)
        assign[k] = 0

    yield from rec(0)


def enumerate_sup_maps_bruteforce(x, y):
    'All |y|^|x| value tables filtered by is_sup_map. Oracle for small sizes.'
    out = []
    for values in product(range(y.n), repeat=x.n):
        f = SupMap(x, y, values)
        if is_sup_map(f):
            out.append(f)
    return out


# --- involutions ---------------------------------------------------------------

@dataclass(frozen=True)
class SupLatticeInvolution:
    lattice: FiniteSupLattice
    star: tuple

    def __call__(self, i):
        return self.star[i]


def check_lattice_involution(lat, star):
    'Verdict: period two and join-preserving (hence an order isomorphism).'
    star = tuple(int(s) for s in star)
    if len(star) != lat.n or not all(0 <= s < lat.n for s in star):
        raise DomainMismatch("involution table does not match the carrier")
    for i in range(lat.n):
        if star[star[i]] != i:
            return failure("period-two", (lat.names[i],),
                           f"{lat.names[i]}** = {lat.names[star[star[i]]]}")
    f = SupMap(lat, lat, star)
    v = is_sup_map(f)
    if not v:
        return v
    st = np.asarray(star)
    if (lat.leq[np.ix_(st, st)] != lat.leq).any():
        i, j = map(int, np.argwhere(lat.leq[np.ix_(st, st)] != lat.leq)[0])
        return failure("order-iso", (lat.names[i], lat.names[j]),
                       "star does not preserve and reflect the order")
    return PASS


def as_involution(lat, star) -> SupLatticeInvolution:
    v = check_lattice_involution(lat, star)
    if not v:
        raise NotSupMap(str(v))
    return SupLatticeInvolution(lat, tuple(int(s) for s in star))


def star_name(name):
    return name[:-1] if name.endswith("*") else name + "*"


def conjugate_lattice(lat):
    'Same carrier and order; every element renamed with a trailing star.'
    return lat.relabel(tuple(star_name(s) for s in lat.names))


# --- small stock lattices -------------------------------------------------------

def chain(n, names=None):
    leq = np.tri(n, dtype=bool).T
    return validate_lattice(leq, names)


def diamond():
    'The four-element Boolean lattice 2 x 2.'
    leq = np.eye(4, dtype=bool)
    leq[0, :] = True
    leq[:, 3] = True
    return validate_lattice(leq, ("0", "a", "b", "1"))


def m3():
    'Three incomparable atoms under a top; modular, not distributive.'
    leq = np.eye(5, dtype=bool)
    leq[0, :] = True
    leq[:, 4] = True
    return validate_lattice(leq, ("0", "a", "b", "c", "1"))


def n5():
    'The pentagon: 0 < a < b < 1 and 0 < c < 1. Not modular.'
    leq = np.eye(5, dtype=bool)
    leq[0, :] = True
    leq[:, 4] = True
    leq[1, 2] = True
    return validate_lattice(leq, ("0", "a", "b", "c", "1"))
