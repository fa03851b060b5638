"""Finite complete lattices.

A finite lattice is stored as a boolean ``leq`` matrix (``leq[i, j]`` iff
``i <= j``) together with ``join``/``meet`` index tables, each computed from
``leq`` on first use and kept; a tensor's ``leq`` is built from its
multi-ideals on first read. ``validate_lattice`` checks every axiom of an
order read from outside; a lattice by proof (a tensor, an endomorphism
quantale or a sup-map's image in one, an opposite) builds
``FiniteSupLattice`` directly. All joins are finite, so "sup-preserving"
reduces everywhere to: preserves the empty join (bottom goes to bottom)
and binary joins. Sup-maps are the one-slot multimorphisms of ``tensor``.
"""

import copy

import numpy as np

from .errors import (DomainMismatch, MissingJoin, MoritaError, NoBottom,
                     NotAPartialOrder, ShapeMismatch)


def _freeze(arr):
    arr.flags.writeable = False
    return arr


def _index_table(values, shape, n, what):
    """``values`` as a read-only int64 array of this shape with entries in
    0..n-1: the table of a map into an n-element carrier. Raises
    ShapeMismatch or DomainMismatch naming the ``what`` table."""
    arr = np.array(values, dtype=np.int64)
    if arr.shape != shape:
        raise ShapeMismatch(f"{what} table {arr.shape}, expected {shape}")
    if arr.size and (int(arr.min()) < 0 or int(arr.max()) >= n):
        raise DomainMismatch(f"{what} table has an entry outside 0..{n - 1}")
    return _freeze(arr)


class _SetOnce:
    'Slots set once: one that holds a value other than None is read-only.'

    __slots__ = ()

    def __setattr__(self, name, value):
        if getattr(self, name, None) is not None:
            raise AttributeError(f"{type(self).__name__}.{name} is set once")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__}.{name} is set once")


def _assembled(cls, **slots):
    """An instance of ``cls`` with these slots, its constructor's copies and
    checks skipped: for read-only int64 tables in range by construction."""
    obj = object.__new__(cls)
    for name, value in slots.items():
        object.__setattr__(obj, name, value)
    return obj


class FiniteSupLattice:
    """A finite lattice. Build through :func:`validate_lattice`, or directly
    from an order that is a lattice by construction.

    A lattice of sets may come as ``ideals``, boolean rows with row i the
    set of element i, in place of ``leq``: its order is inclusion, built
    by ``_subsets`` when ``leq`` is first read, and ``_order_blocks`` hands
    it out a block of rows at a time without building it. ``join`` and
    ``meet`` are computed from ``leq`` when first read, unless given; a
    pair without a bound then raises an internal MoritaError. Lattices
    compare and hash by ``_order_key``, the order's bytes, copied on first
    use: a tensor that is only written holds no n x n array at all.
    """

    __slots__ = ("n", "names", "_leq", "_ideals", "_join", "_meet", "bottom",
                 "top", "_key", "_hash", "_irr", "_canonical")

    def __init__(self, n, names, leq, join, meet, bottom, top, ideals=None):
        self.n = n
        self.names = tuple(names)
        self._leq = None if leq is None else _freeze(leq)
        self._ideals = None if ideals is None else _freeze(ideals)
        self._join = None if join is None else _freeze(join)
        self._meet = None if meet is None else _freeze(meet)
        self.bottom = bottom
        self.top = top
        self._key = self._hash = self._irr = self._canonical = None

    @property
    def leq(self):
        if self._leq is None:
            self._leq = _freeze(_subsets(self._ideals))
        return self._leq

    def _order_blocks(self, step):
        'The rows of ``leq``, ``step`` at a time, built only if it was.'
        if self._leq is not None:
            yield from (self._leq[a:a + step] for a in range(0, self.n, step))
            return
        words = _words(self._ideals)
        others = np.asfortranarray(~words)   # _disjoint reads it by columns
        for a in range(0, self.n, step):
            yield _disjoint(words[a:a + step], others)

    def _order_key(self):
        if self._key is None:
            self._key = self.leq.tobytes()
        return self._key

    def __eq__(self, other):        # hot: a made key is read without a call
        return self is other or (isinstance(other, FiniteSupLattice) and (
            (self._key or self._order_key())
            == (other._key or other._order_key())))

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self._order_key())
        return self._hash

    def __repr__(self):
        return f"FiniteSupLattice(n={self.n}, names={list(self.names)})"

    @property
    def join(self):
        if self._join is None:
            self._join = self._bounds(self.leq, "join")
        return self._join

    @property
    def meet(self):
        if self._meet is None:
            self._meet = self._bounds(np.ascontiguousarray(self.leq.T), "meet")
        return self._meet

    def _bounds(self, up, what):
        table = _least_bounds(up)
        if (table < 0).any():
            i, j = map(int, np.argwhere(table < 0)[0])
            raise MoritaError(f"internal: {self.names[i]} and {self.names[j]} "
                              f"have no {what}")
        return _freeze(table)

    def join_of(self, elems):
        'Join of any finite iterable of elements; empty join is bottom.'
        out = self.bottom
        for e in elems:
            out = self.join[out, e]
        return int(out)

    def join_irreducibles(self):
        """Elements with exactly one lower cover, in topological order.

        Every element is the join of the irreducibles below it, so maps are
        determined by (and enumerable from) their values here. An element
        is one exactly when the elements strictly below it form the
        down-set of one element; the bottom's, empty, never do.
        """
        if self._irr is None:
            down = np.ascontiguousarray(self.leq.T)      # down[j]: j's down-set
            principal = {row.tobytes() for row in down}
            strictly = down & ~np.eye(self.n, dtype=bool)
            sizes = down.sum(axis=1).tolist()
            irr = [j for j in range(self.n) if strictly[j].tobytes() in principal]
            self._irr = tuple(sorted(irr, key=sizes.__getitem__))
        return self._irr

    def relabel(self, names):
        'The same lattice under other names, sharing all computed of it.'
        if len(names) != self.n:
            raise DomainMismatch(f"expected {self.n} names, got {len(names)}")
        self._order_key()                  # made first, so copies share it
        lat = copy.copy(self)
        lat.names = tuple(names)
        return lat


def _reordered(lat, order, names):
    """``lat`` with its element order[k] renumbered k, under ``names``, and
    the map from old to new indices; its join table moves along."""
    new = np.empty(lat.n, dtype=np.int64)
    new[order] = np.arange(lat.n)
    return FiniteSupLattice(
        lat.n, names, lat.leq[order][:, order], new[lat.join[order][:, order]],
        None, int(new[lat.bottom]), int(new[lat.top])), new


def _words(rows):
    'Boolean rows as little-endian 64-bit words: bit c of row i is rows[i, c].'
    n = rows.shape[1]
    packed = np.zeros((rows.shape[0], -(-n // 64) * 8), dtype=np.uint8)
    packed[:, :-(-n // 8)] = np.packbits(rows, axis=1, bitorder="little")
    return packed.view("<u8")


def _disjoint(words, others):
    """out[i, j] iff the packed rows words[i] and others[j] share no bit; a
    block of rows at a time, word by word, into 2^15 words of reused buffers."""
    cols, ocols = np.ascontiguousarray(words.T), np.ascontiguousarray(others.T)
    n, m = len(words), len(others)
    step = min(n, max(1, (1 << 15) // (m * min(2, len(cols)))))
    bufs = np.empty((min(2, len(cols)), step, m), dtype=np.uint64)
    out = np.empty((n, m), dtype=bool)
    for a in range(0, n, step):
        b = min(step, n - a)
        acc, word = bufs[0, :b], bufs[-1, :b]
        np.bitwise_and(cols[0, a:a + b, None], ocols[0], out=acc)
        for w in range(1, len(cols)):
            np.bitwise_and(cols[w, a:a + b, None], ocols[w], out=word)
            acc |= word
        np.logical_not(acc, out=out[a:a + b])
    return out


def _subsets(rows):
    'leq[i, j] iff row i is contained in row j.'
    words = _words(rows)
    return _disjoint(words, ~words)


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

    Raises NotAPartialOrder, NoBottom or MissingJoin with a violating
    witness. Given a bottom and all binary joins, a finite poset has a top
    (the join of everything) and binary meets (the join of the common lower
    bounds), so neither is searched for here; meets are built on first read.
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

    return FiniteSupLattice(n, names, leq, join, None, bottom,
                            int(leq.all(axis=0).argmax()))


def default_names(n):
    if n == 1:
        return ("0",)
    mids = [f"x{i}" for i in range(1, n - 1)]
    return tuple(["0"] + mids + ["1"])


def _generates(lat, table):
    """Whether the values in ``table`` join-generate ``lat``: exactly when
    they hold every join-irreducible (each element is a join of those)."""
    return set(np.asarray(table).ravel().tolist()).issuperset(
        lat.join_irreducibles())


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


def star_name(name):
    return name[:-1] if name.endswith("*") else name + "*"


def conjugate_lattice(lat):
    'Same carrier and order; every element renamed with a trailing star.'
    return lat.relabel(tuple(star_name(s) for s in lat.names))


def opposite(lat):
    """The same carrier with the order reversed: joins and meets, bottom and
    top trade places. A lattice by duality, so not re-validated; the tables
    pass through as they are, computed or not."""
    return FiniteSupLattice(lat.n, lat.names, np.ascontiguousarray(lat.leq.T),
                            lat._meet, lat._join, lat.top, lat.bottom)


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
