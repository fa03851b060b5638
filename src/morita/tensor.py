"""Tensor products of finite sup-lattices.

The tensor of lattices X1, ..., Xk is realised concretely: its elements are
the multi-ideals of the coordinate grid X1 x ... x Xk, ordered by inclusion.
A multi-ideal is a set of tuples that is downward closed and closed in every
fiber under binary joins in the moving slot; the least one is the set of
tuples with a bottom coordinate. Elementary tensors are the closures of
single tuples, every multi-ideal is a join of elementary tensors, and maps
out of the tensor are exactly the liftings of multimorphisms.

The one backtracking enumerator, ``enumerate_multimorphisms``, lists the
multimorphisms for any number of factors; with one factor it lists the
sup-maps, which are one-slot ``Multimorphism``s. It also lists the
tensor's elements: the multi-ideals correspond one to one with the
multimorphisms of all factors but one into the opposite of the remaining
one (Joyal and Tierney, An extension of the Galois theory of Grothendieck,
Mem. AMS 309, 1984), so ``tensor_product`` is one enumeration. Its walk
hands over ``BLOCK`` leaves at a time, each block is extended to full
tables by a few numpy gathers, and the tables, in range by construction,
are yielded without the ``Multimorphism`` constructor's checks.
"""

import itertools
import os

import numpy as np

from .errors import (DomainMismatch, MoritaError, NotAMultimorphism,
                     PASS, ResourceLimit, failure)
# validate_lattice is unused here but stays bound: the benchmark tracer
# (perfbench/tracer.py) rebinds it in morita.tensor
from .lattice import (FiniteSupLattice, _freeze, _index_table, _words,
                      opposite, validate_lattice)

# a tensor of n elements holds its n x n order matrix, n^2 bytes (25 MB
# here); join and meet tables, built only when used, add 8 n^2 bytes each
DEFAULT_TENSOR_CAP = 5_000

# leaves the enumerator extends at once: a block holds BLOCK x (cells + 1)
# assignments and at most three BLOCK x tuples int64 arrays while it is
# extended, 8 BLOCK x tuples bytes each (64 KB for the 64 tuples of a
# three-fold 4-element grid)
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


def _to_ints(rows):
    'Bitsets of the rows of a boolean matrix: bit t is set iff row[t].'
    packed = np.packbits(rows, axis=-1, bitorder="little")
    return tuple(int.from_bytes(r.tobytes(), "little") for r in packed)


def _subsets(rows):
    'leq[i, j] iff row i is contained in row j; a block of rows at a time.'
    words = _words(rows)
    outside = ~words
    n = len(words)
    leq = np.empty((n, n), dtype=bool)
    step = max(1, (1 << 16) // words.size)
    for a in range(0, n, step):
        leq[a:a + step] = ~(words[a:a + step, None] & outside).any(axis=2)
    return leq


class _Grid:
    """Coordinate grid: tuple order, bottom tuples, elementary tensors.

    ``coords[k][t]`` is slot k of the tuple of flat index t, in C order;
    ``bottom`` masks the tuples with a bottom coordinate, and
    ``strictly_above[t, u]`` holds iff tuple u is strictly above tuple t.
    ``elems[t]`` is the elementary tensor of tuple t, its box and the
    bottom, as an int with bit u for tuple u.
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
        self.elems = _to_ints(below.T | bottom)


class MultiTensorLattice:
    """A computed tensor product.

    ``lattice`` is the tensor as a plain lattice; ``bits[i]`` is the tuple
    mask of element i, over flat tuple indices in C order; ``elem_table``
    maps coordinate tuples to the index of their elementary tensor.
    """

    def __init__(self, factors, lattice, bits, elem_table):
        self.factors = tuple(factors)
        self.lattice = lattice
        self.bits = _freeze(bits)
        self.elem_table = _freeze(elem_table)

    @property
    def n(self):
        return self.lattice.n

    def __repr__(self):
        shape = " x ".join(str(f.n) for f in self.factors)
        return f"MultiTensorLattice({shape} -> {self.n} elements)"


def _tensor_names(bits, grid):
    """Readable names from maximal generating tuples, index fallback beyond
    two: the maximal tuples of row i of ``bits`` are its tuples without a
    bottom coordinate that no tuple of the row lies strictly above."""
    words, above = _words(bits), _words(grid.strictly_above)
    covered = np.empty(bits.shape, dtype=bool)   # a row member above tuple t
    step = max(1, (1 << 16) // above.size)
    for a in range(0, len(words), step):
        covered[a:a + step] = (words[a:a + step, None] & above).any(axis=2)
    maximal = bits & ~grid.bottom & ~covered
    labels = ["⊗".join(f.names[c] for f, c in zip(grid.factors, t))
              for t in zip(*(ci.tolist() for ci in grid.coords))]
    tuples = (np.flatnonzero(maximal) % grid.tcount).tolist()   # row by row
    names, at = [], 0
    for i, count in enumerate(maximal.sum(axis=1).tolist()):
        if not count:
            names.append("0")
        elif count > 2:
            names.append(f"t{i}")
        else:
            names.append("∨".join(labels[t] for t in tuples[at:at + count]))
        at += count
    return names


def tensor_product(*factors) -> MultiTensorLattice:
    """Build the tensor of two or more lattices.

    A multi-ideal meets every line along slot k in a principal down-set;
    sending the other coordinates to the top of that down-set turns joins
    in each of their slots into meets, so it is a multimorphism g of the
    other factors into the opposite of factor k, and the ideal is
    {t : t_k <= g(t without slot k)}. Every such g gives a multi-ideal, so
    the elements are the tables ``enumerate_multimorphisms`` yields.

    Slot k is the last non-distributive factor, or the last slot when all
    are distributive: the enumerator checks every leaf once a factor of
    its domain is not distributive, and a non-distributive target keeps
    its join-irreducibles out of the cells those leaves range over
    (m3 x m3 x c3 visits 1728 leaves into M3, 19683 into the 3-chain).

    The multi-ideals are closed under intersection, so their inclusion
    order is a lattice by construction: the result is built from it
    directly, not through ``validate_lattice``, and its join and meet
    tables are computed only when first read.

    Raises ResourceLimit when there are more than 5000 elements, or more
    than MORITA_MAX_TENSOR when that is set.
    """
    if len(factors) < 2:
        raise DomainMismatch("a tensor product needs at least two factors")
    if not all(isinstance(f, FiniteSupLattice) for f in factors):
        raise DomainMismatch("tensor factors must be validated lattices")
    cap = _tensor_cap()
    g = _Grid(factors)

    k = max((i for i, f in enumerate(factors) if not f.is_distributive()),
            default=len(factors) - 1)
    tables = []
    for f in enumerate_multimorphisms(factors[:k] + factors[k + 1:],
                                      opposite(factors[k])):
        if len(tables) == cap:
            raise ResourceLimit(
                f"tensor exceeds {cap} elements; raise MORITA_MAX_TENSOR")
        tables.append(f.values)
    # rows[e, ..., t_k, ...] iff t_k <= g_e(the other coordinates)
    rows = np.moveaxis(factors[k].leq.T[np.array(tables)], -1, k + 1)
    rows = rows.reshape(len(tables), g.tcount)

    # order by size, then by the tuple rows read as 0/1 strings
    order = np.lexsort(np.vstack([rows.T[::-1], rows.sum(axis=1)]))
    bits = rows[order]

    # sorted by size, so the least ideal comes first and the whole grid last
    n = len(bits)
    leq = _subsets(bits)
    if not (leq[0].all() and leq[:, -1].all()):
        raise MoritaError("internal: tensor order has no bottom or top "
                          "at its ends")
    lattice = FiniteSupLattice(n, _tensor_names(bits, g), leq, None, None,
                               0, n - 1)

    index = {s: i for i, s in enumerate(_to_ints(bits))}
    elem_table = np.array([index[e] for e in g.elems],
                          dtype=np.int64).reshape(g.sizes)
    return MultiTensorLattice(factors, lattice, bits, elem_table)


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
    shape and entries in range; ``factors`` is a tuple."""
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


def is_multimorphism(f: Multimorphism):
    """Verdict: each slot preserves the empty and binary joins.

    A failure names every coordinate: the witness is the call with slot i
    at its bottom, or at the two elements whose join breaks.
    """
    found = _join_break(f)
    if found is None:
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


def _maximal(strictly, mask):
    'Positions in the mask with no position of the mask strictly above.'
    return [a for a in np.flatnonzero(mask).tolist()
            if not (strictly[a] & mask).any()]


def _extension_plan(factors):
    """Compile the backtracker's tables for these factors.

    Cells are the tuples of join-irreducibles, as tuples of positions in
    each factor's ``join_irreducibles()``, numbered in lex order: a linear
    extension of the product order, since ``join_irreducibles()`` is sorted
    by down-set size. Returns the cell count, the lower covers of each cell,
    and a (width, grid tuples) gather matrix whose column t lists the cells
    of the maximal join-irreducibles below the coordinates of tuple t,
    padded with the sentinel cell ``ncells``. For a monotone assignment,
    the join over these cells is the join over all cells below t.
    """
    irrs = [f.join_irreducibles() for f in factors]
    counts = [len(ir) for ir in irrs]
    strides = [int(np.prod(counts[i + 1:])) for i in range(len(factors))]
    ncells = int(np.prod(counts))
    tops, lowers = [], []
    for f, ir in zip(factors, irrs):
        below = f.leq[list(ir)]                       # below[a, x]: ir[a] <= x
        strictly = below[:, list(ir)] & ~np.eye(len(ir), dtype=bool)
        tops.append([_maximal(strictly, below[:, x]) for x in range(f.n)])
        lowers.append([_maximal(strictly, strictly[:, b])
                       for b in range(len(ir))])

    def cell(pos):
        return sum(a * st for a, st in zip(pos, strides))
    covers = [[cell(pos) + (a - c) * strides[i]
               for i, c in enumerate(pos) for a in lowers[i][c]]
              for pos in itertools.product(*map(range, counts))]
    rows = [[cell(pos) for pos in itertools.product(
                *[tops[i][x] for i, x in enumerate(t)])]
            for t in itertools.product(*[range(f.n) for f in factors])]
    width = max(1, max(map(len, rows)))
    gather = np.array([r + [ncells] * (width - len(r)) for r in rows],
                      dtype=np.intp)
    return ncells, covers, np.ascontiguousarray(gather.T)


def _monotone_blocks(ncells, covers, target):
    """The monotone assignments of the cells into the target, in lex order
    with cell 0 outermost, as lists of at most ``BLOCK`` rows; each row is
    a copy of the assignment followed by the sentinel cell's bottom."""
    joins = target.join.tolist()
    ups = [np.flatnonzero(row).tolist() for row in target.leq]
    bottom = target.bottom
    assign = [bottom] * (ncells + 1)   # the last entry is the sentinel
    if ncells == 0:
        yield [assign]
        return
    last, its, block = ncells - 1, [None] * ncells, []
    t = 0                              # the first cell without a value
    while True:
        lb = bottom
        for s in covers[t]:
            lb = joins[lb][assign[s]]
        if t < last:
            its[t] = it = iter(ups[lb])
            assign[t] = next(it)
            t += 1
            continue
        for v in ups[lb]:
            assign[t] = v
            block.append(assign[:])
            if len(block) == BLOCK:
                yield block
                block = []
        # back to the deepest cell with a value left
        v = None
        while v is None and t:
            t -= 1
            v = next(its[t], None)
        if v is None:
            break
        assign[t] = v
        t += 1
    if block:
        yield block


def enumerate_multimorphisms(factors, target, cap=None):
    """Yield every slotwise-join-preserving map factors -> target, once each.

    Walks monotone assignments on tuples of join-irreducibles in a linear
    extension of the product order and extends each to a full table by
    joins over the gather matrix of ``_extension_plan``. On distributive
    factors join-irreducibles are join-prime (Birkhoff), so every such
    extension preserves joins slotwise, into any target; the extensions are
    checked one by one only when some factor is not distributive.

    The walk hands over its assignments ``BLOCK`` at a time, and a block is
    extended at once: one gather of its rows per row of the gather matrix,
    joined column by column in the target's join table, into a fresh
    read-only (block, *shape) int64 array. Its entries are target elements
    by construction, so its tables are yielded as views without the
    constructor's copy and range check; a table kept by the caller keeps
    its block's array alive. ResourceLimit is raised on the (cap + 1)-th
    table accepted, when the walk is at most one block ahead.
    """
    factors = tuple(factors)
    ncells, covers, gather = _extension_plan(factors)
    verify = not all(f.is_distributive() for f in factors)
    shape = (-1, *(f.n for f in factors))
    join = target.join
    found = 0
    for block in _monotone_blocks(ncells, covers, target):
        rows = np.array(block, dtype=np.int64)
        tables = rows[:, gather[0]]
        for col in gather[1:]:
            tables = join[tables, rows[:, col]]
        for values in _freeze(tables).reshape(shape):
            f = _trusted(factors, target, values)
            if verify and _join_break(f) is not None:
                continue
            if cap is not None and found >= cap:
                raise ResourceLimit(
                    f"more than {cap} multimorphisms in one space")
            found += 1
            yield f


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
    only ever adds tuples that are dominated or fiber joins, so the join over
    a closed union equals the join of the joins: the lift is sup-preserving.
    """
    v = is_multimorphism(f)
    if not v:
        raise NotAMultimorphism(str(v))
    if tensor.factors != f.factors:
        raise DomainMismatch("tensor was built from different factors")
    values = join_over_tuples(tensor, f.target, f.values.reshape(-1, 1))
    lifted = Multimorphism((tensor.lattice,), f.target, values[:, 0])
    check = is_multimorphism(lifted)
    if not check:
        raise MoritaError(f"internal: lift failed to preserve joins: {check}")
    return lifted
