"""Tensor products of finite sup-lattices.

The tensor of lattices X1, ..., Xk is realised concretely: its elements are
the multi-ideals of the coordinate grid X1 x ... x Xk, ordered by inclusion.
A multi-ideal is a set of tuples that is downward closed and closed in every
fiber under binary joins in the moving slot; the least one is the set of
tuples with a bottom coordinate. Elementary tensors are the closures of
single tuples, every multi-ideal is a join of elementary tensors, and maps
out of the tensor are exactly the liftings of multimorphisms.

The one backtracking enumerator, ``enumerate_multimorphisms``, lists the
multimorphisms for any number of factors, and walks only assignments that
extend to one: each factor's minimal join covers are compiled into
``_extension_plan``. With one factor it lists the sup-maps. It also lists the
tensor's elements: the multi-ideals correspond one to one with the
multimorphisms of all factors but the last into the opposite of the last
(Joyal and Tierney, An extension of the Galois theory of Grothendieck,
Mem. AMS 309, 1984), so ``tensor_product`` is one enumeration: it stacks
the int64 arrays of ``_table_blocks``, which extends ``BLOCK`` leaves of the
walk at a time to full tables by numpy gathers, and whose tables, in range
by construction, are yielded one by one without the constructor's checks.
"""

import functools
import itertools
import os
from collections import OrderedDict

import numpy as np

from .errors import (DomainMismatch, MoritaError, NotAMultimorphism,
                     PASS, ResourceLimit, failure)
# validate_lattice is unused here but stays bound: the benchmark tracer
# (perfbench/tracer.py) rebinds it in morita.tensor
from .lattice import (FiniteSupLattice, _disjoint, _freeze, _index_table,
                      _reordered, _words, opposite, validate_lattice)

# a tensor of n elements holds its multi-ideals, n x tuples bytes; its
# n x n order, n^2 bytes (25 MB here), is built only once compared, hashed
# or read, and its join and meet tables, built only when read, add 8 n^2
# bytes each
DEFAULT_TENSOR_CAP = 5_000

# leaves per block: the walk hands over a BLOCK x (cells + 1) int64 array,
# extended through at most three BLOCK x tuples int64 arrays, 8 BLOCK x
# tuples bytes each (64 KB for the 64 tuples of a three-fold 4-element
# grid), the last of which holds the block's tables
BLOCK = 128


def _tensor_cap():
    env = os.environ.get("MORITA_MAX_TENSOR", "")
    if not env:
        return DEFAULT_TENSOR_CAP
    try:
        cap = int(env)
    except ValueError:
        cap = 0
    if cap < 1:
        raise MoritaError(
            f"MORITA_MAX_TENSOR must be a positive integer, got {env!r}")
    return cap


def _too_large(cap):
    return ResourceLimit(f"tensor exceeds {cap} elements; raise MORITA_MAX_TENSOR")


class _Grid:
    """Coordinate grid: tuple order, bottom tuples, elementary tensors.

    ``coords[k][t]`` is slot k of the tuple of flat index t, in C order;
    ``bottom`` masks the tuples with a bottom coordinate, and
    ``strictly_above[t, u]`` holds iff tuple u is strictly above tuple t.
    """

    def __init__(self, factors):
        self.factors = tuple(factors)
        self.sizes = tuple(f.n for f in self.factors)
        self.tcount = int(np.prod(self.sizes))
        self.coords = np.unravel_index(np.arange(self.tcount), self.sizes)
        below = np.ones((self.tcount, self.tcount), dtype=bool)
        bottom = np.zeros(self.tcount, dtype=bool)
        for ci, f in zip(self.coords, self.factors):
            below &= f.leq[ci][:, ci]
            bottom |= ci == f.bottom
        self.bottom = bottom
        self.strictly_above = below & ~np.eye(self.tcount, dtype=bool)


class MultiTensorLattice:
    """A computed tensor product.

    ``lattice`` is the tensor as a plain lattice; ``bits[i]`` is the tuple
    mask of element i, over flat tuple indices in C order; ``elem_table``
    maps coordinate tuples to the index of their elementary tensor;
    ``maximal[i]`` lists the maximal generating tuples of element i, which
    name it (None on a tensor built by hand, which cannot be renumbered).
    """

    def __init__(self, factors, lattice, bits, elem_table, maximal=None):
        self.factors = tuple(factors)
        self.lattice = lattice
        self.bits = _freeze(bits)
        self.elem_table = _freeze(elem_table)
        self.maximal = maximal

    @property
    def n(self):
        return self.lattice.n

    def renumbered(self, factors, perms=None):
        """The tensor of ``factors``, whose orders are this one's factors'
        with element i of factor k renumbered ``perms[k][i]``. It equals a
        fresh build array for array and name for name: a build depends on
        the set of multi-ideals alone. Without ``perms`` only the names
        change, and every array and computed table is shared."""
        if perms is None:
            lattice = self.lattice.relabel(_tensor_names(factors, self.maximal))
            return MultiTensorLattice(factors, lattice, self.bits,
                                      self.elem_table, self.maximal)
        # cols[t]: the flat index of tuple t in the new numbering
        cols = np.ravel_multi_index(np.ix_(*perms),
                                    self.elem_table.shape).ravel()
        rows = np.empty_like(self.bits)
        rows[:, cols] = self.bits
        order = _element_order(rows)
        at = cols.tolist()
        maximal = tuple(tuple(sorted(at[t] for t in self.maximal[e]))
                        for e in order.tolist())
        lattice, new = _reordered(self.lattice, order,
                                  _tensor_names(factors, maximal))
        elem_table = np.empty_like(self.elem_table)
        elem_table.ravel()[cols] = new[self.elem_table.ravel()]
        return MultiTensorLattice(factors, lattice, rows[order], elem_table,
                                  maximal)

    def __repr__(self):
        shape = " x ".join(str(f.n) for f in self.factors)
        return f"MultiTensorLattice({shape} -> {self.n} elements)"


def _maximal_tuples(bits, grid):
    """Per element, the flat indices of its maximal generating tuples: the
    tuples of row i of ``bits`` without a bottom coordinate that no tuple of
    the row lies strictly above. They depend on the factors' orders alone."""
    maximal = bits & ~grid.bottom & _disjoint(_words(bits),
                                              _words(grid.strictly_above))
    tuples = (np.flatnonzero(maximal) % grid.tcount).tolist()   # row by row
    ends = np.cumsum(maximal.sum(axis=1)).tolist()
    return tuple(tuple(tuples[a:b]) for a, b in zip([0] + ends, ends))


def _element_order(rows):
    'Elements by size, then by their rows as 0/1 strings, a byte per sort key.'
    return np.lexsort((*np.packbits(rows, axis=1).T[::-1], rows.sum(axis=1)))


def _tensor_names(factors, maximal):
    'Readable names from the maximal generating tuples, index fallback beyond two.'
    labels = ["⊗".join(t)                 # by flat tuple index, in C order
              for t in itertools.product(*(f.names for f in factors))]
    return ["0" if not ts else f"t{i}" if len(ts) > 2 else
            "∨".join([labels[t] for t in ts]) for i, ts in enumerate(maximal)]


def tensor_product(*factors) -> MultiTensorLattice:
    """Build the tensor of two or more lattices.

    A multi-ideal meets every line along the last slot in a principal
    down-set; sending the other coordinates to the top of that down-set
    turns joins in each of their slots into meets, so it is a multimorphism
    g of the other factors into the opposite of the last factor, and the
    ideal is {t : t_last <= g(the others)}. Every such g gives a multi-
    ideal, so the elements are the tables of ``_table_blocks``, stacked.

    The multi-ideals are closed under intersection, so their inclusion
    order is a lattice by construction: the result is built on the ideals'
    rows directly, not through ``validate_lattice``, and its order, join
    and meet tables are computed only when first read. Elements go by
    size, so the first whose row holds a tuple is its elementary tensor,
    the least such.

    Raises ResourceLimit, counted block by block, when there are more than
    5000 elements, or more than MORITA_MAX_TENSOR when that is set.
    """
    if len(factors) < 2:
        raise DomainMismatch("a tensor product needs at least two factors")
    if not all(isinstance(f, FiniteSupLattice) for f in factors):
        raise DomainMismatch("tensor factors must be validated lattices")
    cap = _tensor_cap()
    g = _Grid(factors)

    # read first, the meet table is kept by the factor and lent to the
    # opposite as its joins, so X x X* builds one table
    last = factors[-1]
    last.meet
    blocks = []
    for block in _table_blocks(factors[:-1], opposite(last)):
        blocks.append(block)
        if sum(map(len, blocks)) > cap:
            raise _too_large(cap)
    # rows[e, t] iff the last coordinate of t is <= g_e(the others)
    rows = last.leq.T[np.concatenate(blocks)].reshape(-1, g.tcount)
    del blocks
    bits = rows[_element_order(rows)]
    del rows

    # the ideals hold the whole grid and meet by intersection (the maps'
    # pointwise meet), so sorted by size the least comes first, the grid last
    n = len(bits)
    maximal = _maximal_tuples(bits, g)
    lattice = FiniteSupLattice(n, _tensor_names(factors, maximal), None, None,
                               None, 0, n - 1, ideals=bits)

    elem_table = bits.argmax(axis=0).reshape(g.sizes)
    return MultiTensorLattice(factors, lattice, bits, elem_table, maximal)


# --- multimorphisms --------------------------------------------------------------

class Multimorphism:
    """A map of several lattice arguments, sup-preserving in each slot
    separately; with one slot, a sup-map."""

    __slots__ = ("factors", "target", "values")

    def __init__(self, factors, target, values):
        self.factors = tuple(factors)
        self.target = target
        self.values = _index_table(values, tuple(f.n for f in self.factors),
                                   target.n, "value")

    def __call__(self, *coords):
        return int(self.values[coords])

    def __eq__(self, other):
        return (isinstance(other, Multimorphism)
                and self.factors == other.factors and self.target == other.target
                and self.values.tobytes() == other.values.tobytes())

    def __hash__(self):
        return hash((self.factors, self.target, self.values.tobytes()))

    def __repr__(self):
        shape = " x ".join(str(f.n) for f in self.factors)
        return f"Multimorphism({shape} -> {self.target.n})"


def _trusted(factors, target, values):
    """A Multimorphism on a read-only int64 table already known to have this
    shape and entries in range; ``factors`` is a tuple. Slots are set
    directly, not through ``lattice._assembled``: the enumerator calls
    this once per table."""
    f = object.__new__(Multimorphism)
    f.factors, f.target, f.values = factors, target, values
    return f


def _call(f, i, args, r):
    """Names of a call of f: ``args`` in slot i, the other slots at flat
    index r of their grid."""
    rest = f.factors[:i] + f.factors[i + 1:]
    coords = np.unravel_index(r, tuple(fac.n for fac in rest))
    names = [fac.names[int(c)] for fac, c in zip(rest, coords)]
    return tuple(names[:i]) + tuple(args) + tuple(names[i:])


def _fibers(f, i):
    'The table of f, slot i first and the others in order; column r is a fiber.'
    axes = range(f.values.ndim)
    return f.values.transpose((i, *axes[:i], *axes[i + 1:])).reshape(
        f.factors[i].n, -1)


def _join_break(f: Multimorphism):
    """Where f first fails to preserve joins, as indices, or None.

    Slot by slot: (i, None, r) when slot i at its bottom misses the target's
    bottom on fiber r of ``_fibers(f, i)``, or (i, (x, y), r) when slot i at
    x v y differs there from the join of slot i at x and at y.
    """
    tgt = f.target
    for i, fac in enumerate(f.factors):
        flat = _fibers(f, i)
        bad = flat[fac.bottom] != tgt.bottom
        if bad.any():
            return i, None, int(bad.argmax())
        bad = flat[fac.join] != tgt.join[flat[:, None, :], flat[None, :, :]]
        k = int(bad.argmax())                  # the first True, if any
        if bad.flat[k]:
            x, y, r = map(int, np.unravel_index(k, bad.shape))
            return i, (x, y), r
    return None


# at most 1024 passes by the bytes of the orders and table, least recently
# used first; no entry holds a lattice, so none pins a join table
_sup_law_memo = OrderedDict()


def is_multimorphism(f: Multimorphism):
    """Verdict: each slot preserves the empty and binary joins.

    A failure names every coordinate: the witness is the call with slot i
    at its bottom, or at the two elements whose join breaks. A pass is kept
    by content, since one table recurs across distinct objects (a pairing
    and an inner product, a conjugate bimodule's action and Y's); a
    failure is computed and named afresh from the call's own lattices.
    """
    key = (*(fac._order_key() for fac in f.factors), f.target._order_key(),
           f.values.tobytes())
    if key in _sup_law_memo:
        _sup_law_memo.move_to_end(key)
        return PASS
    found = _join_break(f)
    if found is None:
        _sup_law_memo[key] = None
        if len(_sup_law_memo) > 1024:
            _sup_law_memo.popitem(last=False)
        return PASS
    i, pair, r = found
    fac, tgt = f.factors[i], f.target
    fiber = _fibers(f, i)[:, r]
    if pair is None:
        at = _call(f, i, (fac.names[fac.bottom],), r)
        return failure(f"slot-{i}-bottom", at,
                       f"f({', '.join(at)}) = "
                       f"{tgt.names[fiber[fac.bottom]]}, not bottom")
    x, y = pair
    nx, ny = fac.names[x], fac.names[y]
    args = [", ".join(_call(f, i, (a,), r))
            for a in (f"{nx} v {ny}", nx, ny)]
    return failure(
        f"slot-{i}-joins", _call(f, i, (nx, ny), r),
        f"f({args[0]}) = {tgt.names[fiber[fac.join[x, y]]]} but "
        f"f({args[1]}) v f({args[2]}) = "
        f"{tgt.names[tgt.join[fiber[x], fiber[y]]]}")


def as_multimorphism(factors, target, values) -> Multimorphism:
    f = Multimorphism(factors, target, values)
    v = is_multimorphism(f)
    if not v:
        raise NotAMultimorphism(str(v))
    return f


def _maximal(strictly, masks):
    'Per column of the masks, its positions with none of it strictly above.'
    keep = masks & (strictly.astype(np.int64) @ masks.astype(np.int64) == 0)
    return [[a for a, k in enumerate(col) if k] for col in keep.T.tolist()]


def _join_covers(f, ir):
    """Per join-irreducible ir[a], its minimal join covers, as positions in
    ``ir``: the least sets of join-irreducibles, none above ir[a], whose
    every upper bound is above ir[a]. They are antichains, grown in order."""
    ups = [int.from_bytes(row.tobytes(), "big")    # up-sets as bitsets
           for row in np.packbits(f.leq[list(ir)], axis=1)]
    le = f.leq[np.ix_(ir, ir)].tolist()

    def covers(a, cells):
        common = -1
        for s in cells:
            common &= ups[s]
        return not common & ~ups[a]

    def grow(a, cells, cand):
        for b, s in enumerate(cand):
            more = cells + (s,)
            rest = tuple(x for x in cand[b + 1:] if not le[s][x] | le[x][s])
            if covers(a, more):
                yield more
            elif covers(a, more + rest):
                yield from grow(a, more, rest)
    found = [list(grow(a, (), tuple(s for s, up in enumerate(row) if not up)))
             for a, row in enumerate(le)]
    return [[c for c in cs if not any(set(d) < set(c) for d in cs)]
            for cs in found]


@functools.lru_cache(maxsize=256)
def _extension_plan(factors):
    """Compile the backtracker's tables for these factors, once per tuple.

    Cells are the tuples of join-irreducibles, as tuples of positions in
    each factor's ``join_irreducibles()``, numbered in lex order: a linear
    extension of the product order, since ``join_irreducibles()`` is sorted
    by down-set size. Returns the cell count, the lower covers and the
    checks of each cell, and a (width, grid tuples) gather matrix whose
    column t lists the cells of the maximal join-irreducibles below the
    coordinates of tuple t, padded with the sentinel cell ``ncells``. For a
    monotone assignment, the join over these cells is the join over all
    cells below t. Relabelled factors share an entry: the plan reads only
    orders, which lattices compare by. Its tables are tuples and its matrix
    read-only.

    A check (c, cells) of cell t asks g(c) <= v g(cells), joined with g(t)
    unless t is c; it goes to the last of its cells in walk order. The
    checks are exact. Extend a monotone g on cells to F(x) = v {g(c) : c <=
    x}. With the slots but i at x', F(-, x') = v_r F_r over the cells r
    below x', where F_r(x) = v {g(j, r) : j <= x} = F(x, r) as g is
    monotone. Joins of sup-maps are sup-maps, so F is a multimorphism iff
    each F_r, which keeps the empty join, keeps x v y: iff g(j, r) <= v
    g(S, r) for each join-irreducible j <= x v y, with S the join-
    irreducibles below x or y. That holds by monotonicity if some s in S
    is above j, else by the check of a minimal join cover of j within S,
    which every sup-map passes. The join-irreducibles of a distributive
    lattice are join-prime (Birkhoff): no covers, no checks.
    """
    irrs = [f.join_irreducibles() for f in factors]
    counts = [len(ir) for ir in irrs]
    strides = [int(np.prod(counts[i + 1:])) for i in range(len(factors))]
    ncells = int(np.prod(counts))
    tops, lowers = [], []
    for f, ir in zip(factors, irrs):
        below = f.leq[list(ir)]                       # below[a, x]: ir[a] <= x
        strictly = below[:, list(ir)] & ~np.eye(len(ir), dtype=bool)
        tops.append(_maximal(strictly, below))
        lowers.append(_maximal(strictly, strictly))
    jcovers = [_join_covers(f, ir) for f, ir in zip(factors, irrs)]

    def cell(pos):
        return sum(a * st for a, st in zip(pos, strides))
    covers = tuple(tuple(cell(pos) + (a - c) * strides[i]
                         for i, c in enumerate(pos) for a in lowers[i][c])
                   for pos in itertools.product(*map(range, counts)))
    checks = [[] for _ in range(ncells)]
    for pos in itertools.product(*map(range, counts)):
        for i, c in enumerate(pos):
            for cover in jcovers[i][c]:
                cells = [cell(pos) + (s - c) * strides[i] for s in (c, *cover)]
                t = max(cells)
                checks[t].append((cells[0], tuple(x for x in cells[1:]
                                                  if x != t)))
    rows = [[cell(pos) for pos in itertools.product(
                *[tops[i][x] for i, x in enumerate(t)])]
            for t in itertools.product(*[range(f.n) for f in factors])]
    width = max(1, max(map(len, rows)))
    gather = np.array([r + [ncells] * (width - len(r)) for r in rows],
                      dtype=np.intp)
    return (ncells, covers, tuple(map(tuple, checks)),
            _freeze(np.ascontiguousarray(gather.T)))


def _monotone_blocks(ncells, covers, checks, target):
    """The monotone assignments of the cells into the target that pass the
    checks, in lex order with cell 0 outermost, as int64 arrays of
    ``BLOCK`` rows (the last may be shorter): an assignment, then the
    sentinel cell's bottom, per row."""
    joins = target.join.tolist()
    leqs, geqs = target.leq.tolist(), target.leq.T.tolist()
    ident = list(range(target.n))
    ups = [np.flatnonzero(row).tolist() for row in target.leq]
    bottom = target.bottom
    assign = [bottom] * (ncells + 1)   # the last entry is the sentinel
    if ncells == 0:
        yield np.array([assign], dtype=np.int64)
        return
    last, its = ncells - 1, [None] * ncells
    prefixes, counts, values = [], [], []
    t = 0                              # the first cell without a value
    while True:
        lb = bottom
        for s in covers[t]:
            lb = joins[lb][assign[s]]
        vs = ups[lb]
        for c, cells in checks[t]:
            b = bottom
            for s in cells:
                b = joins[b][assign[s]]
            # keep v with g(c) <= b v v, or v <= b when c is t itself
            up, jb = (geqs[b], ident) if c == t else (leqs[assign[c]], joins[b])
            vs = [v for v in vs if up[jb[v]]]
        if t < last:
            its[t] = iter(vs)
            t += 1
        elif vs:             # the last cell's values, one prefix copy
            prefixes.append(assign[:])
            counts.append(len(vs))
            values += vs
            while len(values) >= BLOCK:      # the last prefix may straddle
                extra = len(values) - BLOCK
                counts[-1] -= extra
                yield _spread(prefixes, counts, values[:BLOCK], last)
                prefixes, counts, values = prefixes[-1:], [extra], values[BLOCK:]
        # back to the deepest cell with a value left
        v = None
        while v is None and t:
            t -= 1
            v = next(its[t], None)
        if v is None:
            break
        assign[t] = v
        t += 1
    if values:
        yield _spread(prefixes, counts, values, last)


def _spread(prefixes, counts, values, last):
    'Rows: each prefix repeated its count of times, cell ``last`` set.'
    rows = np.repeat(np.array(prefixes, dtype=np.int64), counts, axis=0)
    rows[:, last] = values
    return rows


def _table_blocks(factors, target):
    """The multimorphisms as read-only (m, *shape) int64 arrays, a block
    of the walk each: a gather of its rows per row of the gather matrix,
    joined in the target."""
    *walk, gather = _extension_plan(factors)
    shape = (-1, *(f.n for f in factors))
    join = target.join
    for rows in _monotone_blocks(*walk, target):
        tables = rows[:, gather[0]]
        for col in gather[1:]:
            tables = join[tables, rows[:, col]]
        yield _freeze(tables.reshape(shape))


def enumerate_multimorphisms(factors, target, cap=None):
    """Yield every slotwise-join-preserving map factors -> target, once each.

    Walks monotone assignments on tuples of join-irreducibles in a linear
    extension of the product order and extends each to a full table by
    joins over the gather matrix of ``_extension_plan``. The plan's checks
    of the factors' minimal join covers keep the walk to the assignments
    whose extension preserves joins slotwise, so no table is checked after
    it is built; on distributive factors there are none to check.

    The tables come from ``_table_blocks`` a block at a time. Their entries
    are target elements by construction, so they are yielded as read-only
    views without the constructor's copy and range check; a table kept by
    the caller keeps its block's array alive. ResourceLimit is raised on
    the (cap + 1)-th table accepted, when the walk is at most one block
    ahead.
    """
    factors = tuple(factors)
    found = 0
    for block in _table_blocks(factors, target):
        for values in block:
            if cap is not None and found >= cap:
                raise ResourceLimit(
                    f"more than {cap} multimorphisms in one space")
            found += 1
            yield _trusted(factors, target, values)


def join_over_tuples(tensor: MultiTensorLattice, target, rows):
    """out[e, c] = the join in ``target`` of rows[t, c] over the tuples t of
    tensor element e; ``rows`` has one row per flat tuple of the grid.

    The upper bounds of a set are the elements above each of its members,
    and its join is the upper bound with the smallest down-set.
    """
    tcount, cols = rows.shape
    not_above = ~target.leq[rows].reshape(tcount, cols * target.n)
    bounds = ~(tensor.bits @ not_above).reshape(tensor.n, cols, target.n)
    downset = target.leq.sum(axis=0)
    return np.where(bounds, downset, target.n + 1).argmin(axis=2)


def lift_multimorphism(f: Multimorphism,
                       tensor: MultiTensorLattice) -> Multimorphism:
    """The unique sup-map on the tensor agreeing with f on elementary
    tensors, as a one-slot multimorphism.

    The lift sends a multi-ideal to the join of f over its tuples. Closure
    only adds tuples that are dominated or fiber joins, so the join over a
    closed union is the join of the joins: the lift is a sup-map, unchecked.
    """
    v = is_multimorphism(f)
    if not v:
        raise NotAMultimorphism(str(v))
    if tensor.factors != f.factors:
        raise DomainMismatch("tensor was built from different factors")
    values = join_over_tuples(tensor, f.target, f.values.reshape(-1, 1))
    return _trusted((tensor.lattice,), f.target, _freeze(values[:, 0]))
