"""Tensor products of finite sup-lattices.

The tensor of lattices X1, ..., Xk is realised concretely: its elements are
the multi-ideals of the coordinate grid X1 x ... x Xk, ordered by inclusion.
A multi-ideal is a set of tuples that is downward closed and closed in every
fiber under binary joins in the moving slot; the least one is the set of
tuples with a bottom coordinate. Elementary tensors are the closures of
single tuples, every multi-ideal is a join of elementary tensors, and maps
out of the tensor are exactly the liftings of multimorphisms.
"""

import os

import numpy as np

from . import _kernels
from .errors import (DomainMismatch, MoritaError, NotAMultimorphism,
                     PASS, ResourceLimit, ShapeMismatch, failure)
from .lattice import (FiniteSupLattice, SupMap, _words, is_sup_map,
                      validate_lattice)

DEFAULT_TENSOR_CAP = 100_000


def _tensor_cap(cap):
    if cap is not None:
        return int(cap)
    env = os.environ.get("MORITA_MAX_TENSOR", "")
    return int(env) if env else DEFAULT_TENSOR_CAP


def _freeze(arr):
    arr.flags.writeable = False
    return arr


def _to_ints(rows):
    'Bitsets of the rows of a boolean matrix: bit t is set iff row[t].'
    packed = np.packbits(rows, axis=-1, bitorder="little")
    return tuple(int.from_bytes(r.tobytes(), "little") for r in packed)


def _to_int(row):
    return _to_ints(row[None])[0]


def _to_rows(sets, tcount):
    'Boolean rows, one per bitset, of length tcount.'
    nbytes = max(1, (tcount + 7) // 8)
    buf = b"".join(s.to_bytes(nbytes, "little") for s in sets)
    packed = np.frombuffer(buf, dtype=np.uint8).reshape(len(sets), nbytes)
    return np.unpackbits(packed, axis=1, count=tcount,
                         bitorder="little").astype(bool)


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


def _slot_plan(f, stride, comb):
    'One slot of the closure plan; see ``_kernels.close_ideal``.'
    strict = f.leq & ~np.eye(f.n, dtype=bool)
    s = strict.astype(np.int32)
    cover = strict & ((s @ s) == 0)            # cover[c, x]: c is covered by x
    rank = f.leq.sum(axis=0)                   # size of the down-set
    covers = tuple((int(x), int(c)) for x in np.argsort(-rank, kind="stable")
                   for c in np.flatnonzero(cover[:, x]))
    triples = sorted(((x, y, int(f.join[x, y])) for x in range(f.n)
                      for y in range(x + 1, f.n)
                      if not (f.leq[x, y] or f.leq[y, x])),
                     key=lambda t: rank[t[2]])
    return tuple(x * stride for x in range(f.n)), comb, covers, tuple(triples)


class _Grid:
    """Coordinate-grid scaffolding: tuple order, bottom tuples, closure plan.

    Sets of tuples are ints with bit t for the tuple of flat index t.
    """

    def __init__(self, factors):
        self.factors = tuple(factors)
        self.sizes = tuple(f.n for f in self.factors)
        self.tcount = int(np.prod(self.sizes))
        coords = np.unravel_index(np.arange(self.tcount), self.sizes)
        below = np.ones((self.tcount, self.tcount), dtype=bool)
        bottom = np.zeros(self.tcount, dtype=bool)
        for ci, f in zip(coords, self.factors):
            below &= f.leq[ci][:, ci]
            bottom |= ci == f.bottom
        self.bottom = _to_int(bottom)
        # elems[t]: the elementary tensor of tuple t, its box and the bottom;
        # above[t]: the tuples strictly above t
        self.elems = _to_ints(below.T | bottom)
        self.above = _to_ints(below & ~np.eye(self.tcount, dtype=bool))
        strides = np.cumprod((1,) + self.sizes[:0:-1])[::-1]
        self.plan = (self.bottom, tuple(
            _slot_plan(f, int(st), _to_int(ci == 0))
            for ci, f, st in zip(coords, self.factors, strides)))

    def ravel(self, coords):
        if len(coords) != len(self.sizes):
            raise DomainMismatch(
                f"expected {len(self.sizes)} coordinates, got {len(coords)}")
        for c, f in zip(coords, self.factors):
            if not 0 <= int(c) < f.n:
                raise DomainMismatch(f"coordinate {c} outside factor of size {f.n}")
        return int(np.ravel_multi_index(tuple(int(c) for c in coords), self.sizes))

    def close(self, bits):
        'Least multi-ideal containing the tuples of a bitset.'
        return _kernels.close_ideal(bits, self.plan)

    def _tuples(self, flat):
        per = np.unravel_index(np.asarray(flat, dtype=np.intp), self.sizes)
        return [tuple(int(a[k]) for a in per) for k in range(len(flat))]

    def tuples_of(self, mask):
        return self._tuples(np.flatnonzero(mask))

    def maximal(self, bits):
        'Flat indices of the maximal tuples of a set without bottom coordinates.'
        out = []
        rest = bits & ~self.bottom
        while rest:
            low = rest & -rest
            t = low.bit_length() - 1
            if not bits & self.above[t]:
                out.append(t)
            rest ^= low
        return out


def multi_ideal_closure(factors, tuples):
    'The least multi-ideal containing the given tuples, as a frozenset.'
    g = _Grid(factors)
    bits = 0
    for t in tuples:
        bits |= 1 << g.ravel(t)
    return frozenset(g.tuples_of(_to_rows([g.close(bits)], g.tcount)[0]))


class MultiTensorLattice:
    """A computed tensor product.

    ``lattice`` is the tensor as a plain lattice; ``bits[i]`` is the tuple
    mask of element i and ``sets[i]`` the same set as an int; ``elem_table``
    maps coordinate tuples to the index of their elementary tensor.
    """

    def __init__(self, factors, grid, lattice, sets, bits, elem_table):
        self.factors = tuple(factors)
        self.grid = grid
        self.lattice = lattice
        self.sets = tuple(sets)
        self.bits = _freeze(bits)
        self.elem_table = _freeze(elem_table)
        self._index = {s: i for i, s in enumerate(self.sets)}

    @property
    def n(self):
        return self.lattice.n

    def elem(self, coords):
        'Index of the elementary tensor of a coordinate tuple.'
        return int(self.elem_table[tuple(int(c) for c in coords)])

    def index_of(self, bits):
        'Index of the element whose tuple set is the bitset ``bits``.'
        i = self._index.get(bits)
        if i is None:
            raise MoritaError("internal: mask is not a multi-ideal of this tensor")
        return i

    def tuples_of(self, i):
        return self.grid.tuples_of(self.bits[i])

    def maximal_tuples(self, i):
        'Maximal tuples without bottom coordinates; they generate element i.'
        return self.grid._tuples(self.grid.maximal(self.sets[i]))

    def __repr__(self):
        shape = " x ".join(str(f.n) for f in self.factors)
        return f"MultiTensorLattice({shape} -> {self.n} elements)"


def _tensor_names(sets, grid, factors):
    'Readable names from maximal generating tuples, index fallback beyond two.'
    names = []
    for i, bits in enumerate(sets):
        keep = grid._tuples(grid.maximal(bits))
        if not keep:
            names.append("0")
        elif len(keep) > 2:
            names.append(f"t{i}")
        else:
            names.append("∨".join(
                "⊗".join(f.names[c] for f, c in zip(factors, t)) for t in keep))
    return names


def tensor_product(*factors, cap=None) -> MultiTensorLattice:
    """Build the tensor of two or more lattices.

    Enumerates multi-ideals breadth first from the bottom, joining on the
    elementary tensors of join-irreducible coordinates: those join-generate
    the tensor, since x1 (x) ... (x) xk distributes over joins in each slot.
    Raises ResourceLimit when there are more than ``cap`` elements; the
    default cap is 100000, overridable via MORITA_MAX_TENSOR.
    """
    if len(factors) == 1 and isinstance(factors[0], (list, tuple)):
        factors = tuple(factors[0])
    if len(factors) < 2:
        raise DomainMismatch("a tensor product needs at least two factors")
    if not all(isinstance(f, FiniteSupLattice) for f in factors):
        raise DomainMismatch("tensor factors must be validated lattices")
    cap = _tensor_cap(cap)
    g = _Grid(factors)

    irr = np.ix_(*(f.join_irreducibles() for f in factors))
    flat = np.arange(g.tcount).reshape(g.sizes)[irr].reshape(-1)
    gens = [g.elems[t] for t in flat]
    queue = [g.bottom] + gens
    seen = set(queue)
    qi = 0
    while qi < len(queue):
        if len(queue) > cap:
            raise ResourceLimit(
                f"tensor exceeds {cap} elements; raise MORITA_MAX_TENSOR")
        cur = queue[qi]
        qi += 1
        for gb in gens:
            if gb & ~cur:
                closed = _kernels.close_ideal(cur | gb, g.plan)
                if closed not in seen:
                    seen.add(closed)
                    queue.append(closed)

    # order by size, then by the tuple rows read as 0/1 strings
    rows = _to_rows(queue, g.tcount)
    order = np.lexsort(np.vstack([rows.T[::-1], rows.sum(axis=1)]))
    sets = [queue[k] for k in order]
    bits = rows[order]

    names = _tensor_names(sets, g, factors)
    lattice = validate_lattice(_subsets(bits), names)

    index = {s: i for i, s in enumerate(sets)}
    elem_table = np.array([index[e] for e in g.elems],
                          dtype=np.int64).reshape(g.sizes)
    return MultiTensorLattice(factors, g, lattice, sets, bits, elem_table)


def elem_tensor(tensor: MultiTensorLattice, coords):
    'The elementary tensor x1 (x) ... (x) xk as an element of the tensor.'
    return tensor.elem(coords)


# --- multimorphisms --------------------------------------------------------------

class Multimorphism:
    'A map of several lattice arguments, sup-preserving in each slot separately.'

    __slots__ = ("factors", "target", "values")

    def __init__(self, factors, target, values):
        self.factors = tuple(factors)
        self.target = target
        arr = np.array(values, dtype=np.int64)
        expect = tuple(f.n for f in self.factors)
        if arr.shape != expect:
            raise ShapeMismatch(f"value table {arr.shape} does not match {expect}")
        if arr.size and (int(arr.min()) < 0 or int(arr.max()) >= target.n):
            raise DomainMismatch("value outside the target carrier")
        self.values = _freeze(arr)

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


def is_multimorphism(f: Multimorphism):
    'Verdict: each slot preserves the empty and binary joins.'
    tgt = f.target
    for i, fac in enumerate(f.factors):
        flat = np.moveaxis(f.values, i, 0).reshape(fac.n, -1)
        bad = np.flatnonzero(flat[fac.bottom] != tgt.bottom)
        if len(bad):
            return failure(f"slot-{i}-bottom", (fac.names[fac.bottom],),
                           "bottom in this slot does not map to bottom")
        lhs = flat[fac.join]
        rhs = tgt.join[flat[:, None, :], flat[None, :, :]]
        mism = np.argwhere(lhs != rhs)
        if len(mism):
            x, y, r = map(int, mism[0])
            return failure(
                f"slot-{i}-joins", (fac.names[x], fac.names[y]),
                f"join in slot {i} at rest-index {r}: maps to "
                f"{tgt.names[lhs[x, y, r]]} but joins to {tgt.names[rhs[x, y, r]]}")
    return PASS


def as_multimorphism(factors, target, values) -> Multimorphism:
    f = Multimorphism(factors, target, values)
    v = is_multimorphism(f)
    if not v:
        raise NotAMultimorphism(str(v))
    return f


def lift_multimorphism(f: Multimorphism, tensor: MultiTensorLattice = None) -> SupMap:
    """The unique sup-map on the tensor agreeing with f on elementary tensors.

    The lift sends a multi-ideal to the join of f over its tuples. Closure
    only ever adds tuples that are dominated or fiber joins, so the join over
    a closed union equals the join of the joins: the lift is sup-preserving.
    """
    v = is_multimorphism(f)
    if not v:
        raise NotAMultimorphism(str(v))
    if tensor is None:
        tensor = tensor_product(*f.factors)
    elif tensor.factors != f.factors:
        raise DomainMismatch("tensor was built from different factors")
    flat_vals = f.values.reshape(-1)
    values = []
    for i in range(tensor.n):
        idxs = np.flatnonzero(tensor.bits[i])
        values.append(f.target.join_of(int(flat_vals[k]) for k in idxs))
    lifted = SupMap(tensor.lattice, f.target, tuple(values))
    check = is_sup_map(lifted)
    if not check:
        raise MoritaError(f"internal: lift failed to preserve joins: {check}")
    return lifted


def restrict_to_elementaries(g: SupMap, tensor: MultiTensorLattice) -> Multimorphism:
    'The multimorphism a sup-map on the tensor induces on elementary tensors.'
    if g.dom != tensor.lattice:
        raise DomainMismatch("map is not defined on this tensor")
    vals = np.asarray(g.values, dtype=np.int64)[tensor.elem_table]
    return Multimorphism(tensor.factors, g.cod, vals)


def splice(tensor: MultiTensorLattice, sub: MultiTensorLattice, sub_element,
           pos, fixed):
    """Embed a sub-tensor element with the remaining coordinates fixed.

    ``sub`` must match ``tensor.factors[pos:pos+k]``; ``fixed`` supplies the
    other coordinates in slot order. Returns the index in ``tensor`` of the
    closure of { prefix + t + suffix : t a tuple of the sub element }. This
    is sup-preserving in the element and in every fixed coordinate.
    """
    k = len(sub.factors)
    if tensor.factors[pos:pos + k] != sub.factors:
        raise DomainMismatch("sub-tensor factors do not sit at that position")
    fixed = tuple(int(c) for c in fixed)
    if len(fixed) != len(tensor.factors) - k:
        raise DomainMismatch(f"expected {len(tensor.factors) - k} fixed coordinates")
    bits = 0
    pre, post = fixed[:pos], fixed[pos:]
    for t in sub.tuples_of(sub_element):
        bits |= 1 << tensor.grid.ravel(pre + t + post)
    return tensor.index_of(tensor.grid.close(bits))
