"""Slow, independent oracles that the tests compare the package against.

* the full-domain condition checks, which quantify every condition over
  whole tensor elements instead of generator tuples, and build the
  three- and five-fold tensors to do so;
* ``splice``, ``multi_ideal_closure`` and ``restrict_to_elementaries``,
  which move between coordinate tuples and tensor elements;
* ``tensor_product_by_closure``, the breadth-first tensor build on the
  bit-packed closure kernel ``morita._kernels.close_ideal``, with its
  elements named by a loop over tuples and its order validated, which the
  enumerated build of ``tensor_product`` is compared against, and
  ``elem_table_by_bitsets``, the elementary tensors looked up by their
  Python-int bitsets, which its ``argmax`` element table is compared
  against;
* ``subsets_by_word_axis`` and ``maximal_tuples_by_word_axis``, the
  containment order of packed rows and the maximal generating tuples of a
  tensor's elements by a reduction over the trailing word axis, which the
  word-by-word kernels ``lattice._subsets`` and ``tensor._maximal_tuples``
  are compared against;
* ``slice_collision_by_slices``, the search for two equal slices of a
  table along one slot, one slice's bytes at a time, which the one-copy
  ``errors.slice_collision`` is compared against;
* ``canonical_orderings_by_search``, the canonical-form search run afresh
  on every call, which the per-order memo of
  ``enumeration._canonical_orderings`` is compared against;
* ``join_irreducibles_by_joins``, the join-irreducibles found by joining
  the elements strictly below each one, which the down-set lookup of
  ``FiniteSupLattice.join_irreducibles`` is compared against;
* ``is_distributive``, the distributive law checked a block of rows at a
  time, which picks the lattices whose join-irreducibles are join-prime,
  where the multimorphism walk has no join covers to check;
* ``join_covers_by_subsets``, the minimal join covers of each
  join-irreducible found among all subsets, which the antichain search of
  ``tensor._join_covers`` is compared against;
* brute-force enumerators of multimorphisms (sup-maps are the one-slot
  ones) and lattices, which filter every raw table or relation, the
  invariant classes of the canonical-form search read cell by cell, and the
  multimorphism backtracker with a Python join loop and a slotwise check
  per leaf, which ``enumerate_multimorphisms`` is compared against;
* loop-based checks of the quantale and module sup-laws, one element at a
  time, which ``check_quantale`` and ``check_module`` are compared against;
* ``general_space``, the census search of one ordered space (X, Y) that
  checks every p x q pair in that order, which the mirrored search of
  ``run_census`` (one search per unordered pair {X, Y}) is compared
  against;
* the context layer's loop builds, ``endo_quantale_by_loops`` and
  ``image_subquantale_by_loops``, which validate every carrier and fill
  the product tables one pair at a time, and ``essential_by_closure``, the
  join-closure definition of an essential action.
* the closed-form witnesses ``dual_witness`` on (X, Xᵒᵖ) for every X,
  ``frame_witness`` on (X, X) for a distributive X and
  ``involutive_witness`` on X(x)X*(x)X for an involutive anti-automorphism
  of X, built from a formula rather than found by a search, which the
  census outputs are checked to contain;
* the ``.lat`` codec a row at a time: ``write_lattice_by_rows`` and
  ``write_quantale_by_rows``, which build one string per order row and
  join them into lines, and ``parse_lat_by_rows``, which reads the order
  row by row, which the bytes writer and the one-buffer parser of
  ``morita.io`` are compared against;
* ``read_elem``, the reader of the ``.elem`` sidecar that ``morita tensor``
  writes, which the package writes but never reads.

None of them is used by the package itself; they are small-input only.
"""

from itertools import combinations, permutations, product

import numpy as np

from morita import _kernels
from morita import io as mio
from morita.census import (CensusRecord, _orbit_reps, _surjective_tables,
                           _tuplify)
from morita.engine import (_distinct_slices, _proved_pair,
                           build_context_from_pair, check_pair_conditions,
                           conditions_from_tables, extract_pair_from_context)
from morita.enumeration import (_class_orderings, _refine_classes,
                                automorphisms, find_isomorphism)
from morita.errors import (ConditionReport, DomainMismatch, FormatError,
                           MissingJoin, MoritaError, NoBottom, NotAPartialOrder,
                           NotCompositionClosed, PASS, ResourceLimit,
                           failure)
from morita.io import leq_rows
from morita.lattice import (_freeze, _words, join_closure, opposite,
                            validate_lattice)
from morita.quantale import InvolutiveQuantale, OperatorQuantale, Quantale
from morita.tensor import (Multimorphism, MultiTensorLattice, _Grid,
                           as_multimorphism, is_multimorphism,
                           lift_multimorphism, tensor_product)


# --- the word kernels, reduced over the trailing word axis ---------------------------

def subsets_by_word_axis(rows):
    'leq[i, j] iff row i is contained in row j; a block of rows at a time.'
    words = _words(rows)
    outside = ~words
    n = len(words)
    leq = np.empty((n, n), dtype=bool)
    step = max(1, (1 << 16) // words.size)
    for a in range(0, n, step):
        leq[a:a + step] = ~(words[a:a + step, None] & outside).any(axis=2)
    return leq


def maximal_tuples_by_word_axis(bits, grid):
    """Per element, the flat indices of its maximal generating tuples: the
    tuples of row i of ``bits`` without a bottom coordinate that no tuple of
    the row lies strictly above."""
    words, above = _words(bits), _words(grid.strictly_above)
    covered = np.empty(bits.shape, dtype=bool)   # a row member above tuple t
    step = max(1, (1 << 16) // above.size)
    for a in range(0, len(words), step):
        covered[a:a + step] = (words[a:a + step, None] & above).any(axis=2)
    maximal = bits & ~grid.bottom & ~covered
    tuples = (np.flatnonzero(maximal) % grid.tcount).tolist()   # row by row
    ends = np.cumsum(maximal.sum(axis=1)).tolist()
    return tuple(tuple(tuples[a:b]) for a, b in zip([0] + ends, ends))


# --- equal slices, one slice at a time -----------------------------------------------

def slice_collision_by_slices(table, axis):
    'The first (u, v), u < v, whose slices at this slot are equal, or None.'
    seen = {}
    for v, piece in enumerate(table.swapaxes(0, axis)):
        u = seen.setdefault(piece.tobytes(), v)
        if u != v:
            return u, v
    return None


# --- the canonical-form search, unmemoised -------------------------------------------

def canonical_orderings_by_search(leq):
    """The least order matrix over class-ordered relabellings, as bytes,
    and every ordering that reaches it, as lists, searched afresh."""
    best, reach = None, []
    for order in _class_orderings(_refine_classes(leq)):
        key = leq[order][:, order].tobytes()
        if best is None or key < best:
            best, reach = key, [order]
        elif key == best:
            reach.append(order)
    return best, reach


# --- the closure kernel and the tensor built on it ----------------------------------

def _to_ints(rows):
    'Bitsets of the rows of a boolean matrix: bit t is set iff row[t].'
    packed = np.packbits(rows, axis=-1, bitorder="little")
    return tuple(int.from_bytes(r.tobytes(), "little") for r in packed)


def grid_elems(g: _Grid):
    """The elementary tensor of each tuple of the grid, its box and the
    bottom, as an int with bit u for tuple u."""
    box = (g.strictly_above | np.eye(g.tcount, dtype=bool)).T
    return _to_ints(box | g.bottom)


def elem_table_by_bitsets(g: _Grid, bits):
    """The index of each tuple's elementary tensor among the rows of
    ``bits``, by a {bitset: index} lookup, shaped like the grid."""
    index = {s: i for i, s in enumerate(_to_ints(bits))}
    return np.array([index[e] for e in grid_elems(g)],
                    dtype=np.int64).reshape(g.sizes)


def _to_int(row):
    'Bitset of a boolean row: bit t is set iff row[t].'
    return _to_ints(row[None])[0]


def _to_rows(sets, tcount):
    'Boolean rows, one per bitset, of length tcount.'
    nbytes = max(1, (tcount + 7) // 8)
    buf = b"".join(s.to_bytes(nbytes, "little") for s in sets)
    packed = np.frombuffer(buf, dtype=np.uint8).reshape(len(sets), nbytes)
    return np.unpackbits(packed, axis=1, count=tcount,
                         bitorder="little").astype(bool)


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


def closure_plan(g: _Grid):
    'The ``plan`` argument of ``_kernels.close_ideal`` for the grid g.'
    strides = np.cumprod((1,) + g.sizes[:0:-1])[::-1]
    return _to_int(g.bottom), tuple(
        _slot_plan(f, int(st), _to_int(ci == 0))
        for ci, f, st in zip(g.coords, g.factors, strides))


def _names_by_loop(sets, factors):
    """Tensor element names from the maximal tuples of each set, one tuple
    at a time: the naming ``tensor_product`` vectorises."""
    tuples = list(product(*(range(f.n) for f in factors)))   # flat, C order
    above = [sum(1 << u for u, b in enumerate(tuples) if b != a and all(
                 f.leq[x, y] for f, x, y in zip(factors, a, b)))
             for a in tuples]
    bottom = sum(1 << t for t, a in enumerate(tuples)
                 if any(x == f.bottom for f, x in zip(factors, a)))
    names = []
    for i, bits in enumerate(sets):
        keep = [tuples[t] for t in range(len(tuples))
                if (bits & ~bottom) >> t & 1 and not bits & above[t]]
        if not keep:
            names.append("0")
        elif len(keep) > 2:
            names.append(f"t{i}")
        else:
            names.append("∨".join(
                "⊗".join(f.names[c] for f, c in zip(factors, t)) for t in keep))
    return names


def tensor_product_by_closure(*factors) -> MultiTensorLattice:
    """The tensor built breadth first from the bottom by the closure kernel.

    Joins on the elementary tensors of join-irreducible coordinates: those
    join-generate the tensor, since x1 (x) ... (x) xk distributes over joins
    in each slot. Elements are ordered, named and indexed as in
    ``tensor_product``.
    """
    g = _Grid(factors)
    plan = closure_plan(g)

    irr = np.ix_(*(f.join_irreducibles() for f in factors))
    flat = np.arange(g.tcount).reshape(g.sizes)[irr].reshape(-1)
    elems = grid_elems(g)
    gens = [elems[t] for t in flat]
    queue = [_to_int(g.bottom)] + gens
    seen = set(queue)
    qi = 0
    while qi < len(queue):
        cur = queue[qi]
        qi += 1
        for gb in gens:
            if gb & ~cur:
                closed = _kernels.close_ideal(cur | gb, plan)
                if closed not in seen:
                    seen.add(closed)
                    queue.append(closed)

    # order by size, then by the tuple rows read as 0/1 strings
    rows = _to_rows(queue, g.tcount)
    order = np.lexsort(np.vstack([rows.T[::-1], rows.sum(axis=1)]))
    sets = [queue[k] for k in order]
    bits = rows[order]

    lattice = validate_lattice(subsets_by_word_axis(bits),
                               _names_by_loop(sets, factors))
    return MultiTensorLattice(factors, lattice, bits,
                              elem_table_by_bitsets(g, bits))


# --- tuples and tensor elements ---------------------------------------------------

def multi_ideal_closure(factors, tuples):
    'The least multi-ideal containing the given tuples, by the closure kernel.'
    g = _Grid(factors)
    bits = 0
    for t in tuples:
        bits |= 1 << int(np.ravel_multi_index(t, g.sizes))
    closed = _to_rows([_kernels.close_ideal(bits, closure_plan(g))],
                      g.tcount)[0]
    return frozenset(map(tuple, np.argwhere(closed.reshape(g.sizes)).tolist()))


def restrict_to_elementaries(g: Multimorphism,
                             tensor: MultiTensorLattice) -> Multimorphism:
    'The multimorphism a sup-map on the tensor induces on elementary tensors.'
    if g.factors != (tensor.lattice,):
        raise DomainMismatch("map is not defined on this tensor")
    return Multimorphism(tensor.factors, g.target, g.values[tensor.elem_table])


def splice(tensor: MultiTensorLattice, sub: MultiTensorLattice, sub_element,
           pos, fixed):
    """Embed a sub-tensor element with the remaining coordinates fixed.

    ``sub`` must match ``tensor.factors[pos:pos+k]``; ``fixed`` supplies the
    other coordinates in slot order. Returns the index in ``tensor`` of the
    join of the elementary tensors prefix + t + suffix over the tuples t of
    the sub element; a join of tensor elements is the closure of their
    union, so this is the least multi-ideal holding those tuples.
    """
    k = len(sub.factors)
    if tensor.factors[pos:pos + k] != sub.factors:
        raise DomainMismatch("sub-tensor factors do not sit at that position")
    fixed = tuple(int(c) for c in fixed)
    if len(fixed) != len(tensor.factors) - k:
        raise DomainMismatch(f"expected {len(tensor.factors) - k} fixed coordinates")
    sizes = tuple(f.n for f in sub.factors)
    tuples = np.argwhere(sub.bits[sub_element].reshape(sizes)).tolist()
    pre, post = fixed[:pos], fixed[pos:]
    return tensor.lattice.join_of(tensor.elem_table[pre + tuple(t) + post]
                                  for t in tuples)


# --- full-domain condition checks ---------------------------------------------------

def _lift_on_tensor(factors, target, gen):
    'The tensor of the factors and the lift of the table gen onto it.'
    t = tensor_product(*factors)
    return t, lift_multimorphism(Multimorphism(factors, target, gen), t)


def _curried(big, part, pos, lat, values):
    """Table (e, v) -> values at ``part`` element e spliced into ``big`` at
    ``pos``, with v from ``lat`` in the remaining slot.

    The reference for ``engine._curried_from_generators``: it splices every
    element into the three-fold tensor instead of joining generators.
    """
    return np.array([[values[splice(big, part, e, pos, (v,))]
                      for v in range(lat.n)] for e in range(part.n)],
                    dtype=np.int64)


def _lifted_chain_side(t5, inner_gen, outer: Multimorphism):
    'Lift tuples -> elementary tensor of a nested value, then apply outer.'
    f = as_multimorphism(t5.factors, outer.factors[0], inner_gen)
    return tuple(outer.values[lift_multimorphism(f, t5).values].tolist())


def _full_surjective(values, lat, label):
    if set(map(int, values)) == set(range(lat.n)):
        return PASS
    return failure(label, (), "not onto over tensor elements")


def _chain_axes(x, y):
    'Index grids for the five slots (x1, y1, x2, y2, x3) of a chain.'
    nx, ny = x.n, y.n
    return (np.arange(nx).reshape(nx, 1, 1, 1, 1),
            np.arange(ny).reshape(1, ny, 1, 1, 1),
            np.arange(nx).reshape(1, 1, nx, 1, 1),
            np.arange(ny).reshape(1, 1, 1, ny, 1),
            np.arange(nx).reshape(1, 1, 1, 1, nx))


def _full_assoc(x, y, t3, p, p_gen, q_gen, label):
    """Compare the three nested composites of the chain on every element of
    X(x)Y(x)X(x)Y(x)X; ``t3`` is X(x)Y(x)X, the domain of ``p``."""
    t5 = tensor_product(x, y, x, y, x)
    x1, y1, x2, y2, x3 = _chain_axes(x, y)
    et = t3.elem_table
    b = np.broadcast_arrays
    left = et[tuple(b(p_gen[x1, y1, x2], y2, x3))]
    mid = et[tuple(b(x1, q_gen[y1, x2, y2], x3))]
    right = et[tuple(b(x1, y1, p_gen[x2, y2, x3]))]
    vals = [_lifted_chain_side(t5, g, p) for g in (left, mid, right)]
    if vals[0] == vals[1] == vals[2]:
        return PASS
    for u in range(t5.n):
        trio = {vals[0][u], vals[1][u], vals[2][u]}
        if len(trio) > 1:
            return failure(label, (t5.lattice.names[u],),
                           "nested composites disagree on a tensor element")
    return PASS


def check_pair_conditions_full(w) -> ConditionReport:
    """Conditions 1-6 quantified over whole tensor elements.

    Validates the generator reduction: same report keys as
    ``engine.check_pair_conditions``, but every quantifier ranges over
    multi-ideals (via five-fold tensors for the chains, partial-tensor
    embeddings for the separation conditions). It builds X(x)Y(x)X and
    Y(x)X(x)Y and lifts p and q onto them.
    """
    x, y = w.x, w.y
    t_xy, t_yx = tensor_product(x, y), tensor_product(y, x)
    txyx, p = _lift_on_tensor((x, y, x), x, w.p_gen)
    tyxy, q = _lift_on_tensor((y, x, y), y, w.q_gen)
    p_values = p.values
    q_values = q.values
    rep = ConditionReport()
    rep.add("p-surjective", _full_surjective(p_values, x, "p-surjective"))
    rep.add("q-surjective", _full_surjective(q_values, y, "q-surjective"))
    rep.add("condition-1", _full_assoc(x, y, txyx, p, w.p_gen, w.q_gen,
                                       "condition-1"))
    rep.add("condition-2", _full_assoc(y, x, tyxy, q, w.q_gen, w.p_gen,
                                       "condition-2"))
    for label, t3, part, pos, lat, values in (
            ("condition-3", txyx, t_xy, 0, x, p_values),
            ("condition-4", txyx, t_yx, 1, x, p_values),
            ("condition-5", tyxy, t_yx, 0, y, q_values),
            ("condition-6", tyxy, t_xy, 1, y, q_values)):
        rep.add(label, _distinct_slices(_curried(t3, part, pos, lat, values),
                                        1, lat, label))
    return rep


def check_involutive_conditions_full(w) -> ConditionReport:
    """Conditions a)-c) quantified over tensor elements; same keys as
    ``engine.check_involutive_conditions``.

    They are conditions 1, 3 and 4 of the pair (X, X*, p, p transposed).
    """
    x, xs = w.x, w.xstar
    t3, p = _lift_on_tensor((x, xs, x), x, w.p_gen)
    p_values = p.values
    rep = ConditionReport()
    rep.add("p-surjective", _full_surjective(p_values, x, "p-surjective"))
    rep.add("condition-a", _full_assoc(x, xs, t3, p, w.p_gen,
                                       w.p_gen.transpose(2, 1, 0),
                                       "condition-a"))
    rep.add("condition-b", _distinct_slices(
        _curried(t3, tensor_product(x, xs), 0, x, p_values), 1, x,
        "condition-b"))
    rep.add("condition-c", _distinct_slices(
        _curried(t3, tensor_product(xs, x), 1, x, p_values), 1, x,
        "condition-c"))
    return rep


# --- brute-force enumerators ----------------------------------------------------------

def join_irreducibles_by_joins(lat):
    """The elements other than the bottom that are not the join of the
    elements strictly below them, sorted by down-set size."""
    strictly_below = lat.leq.T & ~np.eye(lat.n, dtype=bool)
    irr = []
    for j in range(lat.n):
        below = np.flatnonzero(strictly_below[j])
        if j != lat.bottom and lat.join_of(below) != j:
            irr.append(j)
    irr.sort(key=lambda j: int(lat.leq[:, j].sum()))
    return tuple(irr)


def is_distributive(lat):
    """Whether x v (y ^ z) = (x v y) ^ (x v z) for all x, y, z; checked
    for a block of rows x at a time, so memory stays bounded."""
    m = lat.meet
    step = max(1, (1 << 16) // (lat.n * lat.n))
    for a in range(0, lat.n, step):
        jx = lat.join[a:a + step]             # rows x v -
        if not (jx[:, m] == m[jx[:, :, None], jx[:, None, :]]).all():
            return False
    return True


def join_covers_by_subsets(lat):
    """Per join-irreducible j, as positions in ``join_irreducibles()``, the
    inclusion-minimal sets of join-irreducibles, none above j, whose join
    is above j, by trying every subset, smallest first."""
    ir = lat.join_irreducibles()
    out = []
    for j in ir:
        cand = [a for a, s in enumerate(ir) if not lat.leq[j, s]]
        found = []
        for k in range(1, len(cand) + 1):
            found += [c for c in combinations(cand, k)
                      if lat.leq[j, lat.join_of(ir[a] for a in c)]
                      and not any(set(d) <= set(c) for d in found)]
        out.append(found)
    return out


def enumerate_multimorphisms_bruteforce(factors, target, limit=2_000_000):
    'Filter every raw function table; independent oracle for tiny shapes.'
    shape = tuple(int(f.n) for f in factors)
    cells = int(np.prod(shape))
    if target.n ** cells > limit:
        raise ResourceLimit(f"{target.n ** cells} function tables")
    out = []
    for vals in product(range(target.n), repeat=cells):
        f = Multimorphism(factors, target,
                          np.asarray(vals, dtype=np.int64).reshape(shape))
        if is_multimorphism(f):
            out.append(f)
    return out


def enumerate_multimorphisms_per_leaf(factors, target, cap=None):
    """The backtracker with a Python join loop per leaf and a slotwise check
    of every leaf; the reference for ``enumerate_multimorphisms``."""
    factors = tuple(factors)
    irrs = [f.join_irreducibles() for f in factors]
    cells = list(product(*[range(len(ir)) for ir in irrs]))
    cell_index = {c: i for i, c in enumerate(cells)}
    cell_below = []
    for t, c in enumerate(cells):
        cell_below.append([s for s in range(t) if all(
            factors[i].leq[irrs[i][cells[s][i]], irrs[i][c[i]]]
            for i in range(len(factors)))])

    below_pos = []
    for f, ir in zip(factors, irrs):
        below_pos.append([[i for i, j in enumerate(ir) if f.leq[j, x]]
                          for x in range(f.n)])

    shape = tuple(f.n for f in factors)
    join = target.join
    bottom = target.bottom
    assign = [bottom] * len(cells)
    found = 0

    def extend():
        table = np.empty(shape, dtype=np.int64)
        for t in product(*[range(s) for s in shape]):
            v = bottom
            for cell in product(*[below_pos[i][t[i]]
                                            for i in range(len(factors))]):
                v = join[v, assign[cell_index[cell]]]
            table[t] = v
        return table

    def rec(t):
        nonlocal found
        if t == len(cells):
            f = Multimorphism(factors, target, extend())
            if is_multimorphism(f):
                if cap is not None and found >= cap:
                    raise ResourceLimit(
                        f"more than {cap} multimorphisms in one space")
                found += 1
                yield f
            return
        lb = bottom
        for s in cell_below[t]:
            lb = join[lb, assign[s]]
        for v in range(target.n):
            if target.leq[lb, v]:
                assign[t] = v
                yield from rec(t + 1)

    yield from rec(0)


def _is_lattice_matrix(leq):
    try:
        validate_lattice(leq)
        return True
    except (NotAPartialOrder, NoBottom, MissingJoin):
        return False


def _isomorphic_brute(la, lb):
    n = la.shape[0]
    degs_a = sorted((int(la[i].sum()), int(la[:, i].sum())) for i in range(n))
    degs_b = sorted((int(lb[i].sum()), int(lb[:, i].sum())) for i in range(n))
    if degs_a != degs_b:
        return False
    for perm in permutations(range(n)):
        p = np.asarray(perm)
        if (la == lb[np.ix_(p, p)]).all():
            return True
    return False


def enumerate_lattices_bruteforce(n, max_n=6):
    """Filter all upper-triangular relations; dedupe by permutation search.

    Shares nothing with ``enumeration.enumerate_lattices`` beyond
    validate_lattice. Any topological labelling is upper-triangular, so
    nothing is missed.
    """
    if n > max_n:
        raise ResourceLimit(f"naive enumeration capped at n={max_n}")
    if n == 1:
        return [validate_lattice(np.eye(1, dtype=bool))]
    cells = list(combinations(range(n), 2))
    reps = []
    for bits in product((False, True), repeat=len(cells)):
        leq = np.eye(n, dtype=bool)
        for (i, j), b in zip(cells, bits):
            leq[i, j] = b
        sq = (leq.astype(np.uint8) @ leq.astype(np.uint8)) > 0
        if (sq & ~leq).any():
            continue
        if not _is_lattice_matrix(leq):
            continue
        if not any(_isomorphic_brute(leq, r) for r in reps):
            reps.append(leq)
    return [validate_lattice(r) for r in reps]


def refine_classes_by_cells(leq):
    """``enumeration._refine_classes`` reading the order one matrix cell at
    a time, as it did before it read precomputed up- and down-sets."""
    n = leq.shape[0]
    sig = [(int(leq[:, i].sum()), int(leq[i].sum())) for i in range(n)]
    for _ in range(3):
        ranked = {s: r for r, s in enumerate(sorted(set(sig)))}
        rank = [ranked[s] for s in sig]
        sig = [(rank[i],
                tuple(sorted(rank[j] for j in range(n) if j != i and leq[i, j])),
                tuple(sorted(rank[j] for j in range(n) if j != i and leq[j, i])))
               for i in range(n)]
    ranked = {s: r for r, s in enumerate(sorted(set(sig)))}
    classes = {}
    for i in range(n):
        classes.setdefault(ranked[sig[i]], []).append(i)
    return [classes[r] for r in sorted(classes)]


# --- loop-based quantale and module laws ------------------------------------------------

def quantale_laws_failing(q):
    """The names of the quantale laws the product table breaks, checked one
    element triple at a time, under the labels of ``check_quantale``."""
    m, j = q.mult.tolist(), q.carrier.join.tolist()
    bot = q.carrier.bottom
    failing = set()
    for a in range(q.n):
        if m[bot][a] != bot:
            failing.add("left-annihilation")
        if m[a][bot] != bot:
            failing.add("right-annihilation")
        for b in range(q.n):
            for c in range(q.n):
                if m[m[a][b]][c] != m[a][m[b][c]]:
                    failing.add("associative")
                if m[a][j[b][c]] != j[m[a][b]][m[a][c]]:
                    failing.add("left-distributive")
                if m[j[a][b]][c] != j[m[a][c]][m[b][c]]:
                    failing.add("right-distributive")
    return failing


def module_laws_failing(mod):
    """The names of the module laws M1-M3 the action table breaks, checked
    one element at a time, under the labels of ``check_module``. A left
    action's table holds a.m at [m, a]."""
    act, mult = mod.act.tolist(), mod.quantale.mult.tolist()
    jm, jq = mod.carrier.join.tolist(), mod.quantale.carrier.join.tolist()
    bm, ba = mod.carrier.bottom, mod.quantale.carrier.bottom
    nm, na = mod.carrier.n, mod.quantale.n
    failing = set()
    for m in range(nm):
        if act[m][ba] != bm:
            failing.add("M3: m.0 = 0")
        for a in range(na):
            for b in range(na):
                if mod.side == "right" and act[m][mult[a][b]] != act[act[m][a]][b]:
                    failing.add("M1: m.(ab) = (m.a).b")
                if mod.side == "left" and act[m][mult[a][b]] != act[act[m][b]][a]:
                    failing.add("M1: (ab).m = a.(b.m)")
                if act[m][jq[a][b]] != jm[act[m][a]][act[m][b]]:
                    failing.add("M3: m.(a v b) = m.a v m.b")
    for a in range(na):
        if act[bm][a] != bm:
            failing.add("M2: 0.a = 0")
        for m in range(nm):
            for n in range(nm):
                if act[jm[m][n]][a] != jm[act[m][a]][act[n][a]]:
                    failing.add("M2: (m v n).a = m.a v n.a")
    return failing


# --- the context layer, built by loops ---------------------------------------------

def endo_quantale_by_loops(x):
    'Q(x) with a validated carrier and its product filled one pair at a time.'
    ops = sorted(tuple(f.values.tolist())
                 for f in enumerate_multimorphisms_per_leaf((x,), x))
    n = len(ops)
    vals = np.array(ops, dtype=np.int64)
    leq = x.leq[vals[:, None, :], vals[None, :, :]].all(axis=2)
    names = ["[" + " ".join(x.names[v] for v in op) + "]" for op in ops]
    carrier = validate_lattice(leq, names)
    index = {v: i for i, v in enumerate(ops)}
    mult = np.empty((n, n), dtype=np.int64)
    for i, f in enumerate(ops):
        for k, g in enumerate(ops):
            mult[i, k] = index[tuple(f[v] for v in g)]
    return OperatorQuantale(x, carrier, mult, ops, index[tuple(range(x.n))])


def image_subquantale_by_loops(q, family):
    """The image of a sup-map into q with a validated carrier, composition
    closure tested one pair at a time in row-major order over the sorted
    image; the family's join laws are assumed."""
    img = np.array(sorted(set(family.values.tolist())))
    pos = {e: i for i, e in enumerate(img.tolist())}
    for a in pos:
        for b in pos:
            c = int(q.mult[a, b])
            if c not in pos:
                raise NotCompositionClosed(
                    f"product {q.names[a]} . {q.names[b]} = {q.names[c]} "
                    "escapes the image", witness=(q.names[a], q.names[b]))
    carrier = validate_lattice(q.carrier.leq[np.ix_(img, img)],
                               [q.names[e] for e in img])
    mult = np.searchsorted(img, q.mult[np.ix_(img, img)])
    unit = pos.get(q.unit) if q.unit is not None else None
    sub = Quantale(carrier, mult, unit)
    if isinstance(q, OperatorQuantale):
        sub = OperatorQuantale(q.base, carrier, mult,
                               [q.op_values[e] for e in img], unit)
    return sub, Multimorphism(family.factors, carrier,
                              np.searchsorted(img, family.values))


def essential_by_closure(mod):
    'The essential part of an action by its definition, and whether it is all.'
    part = join_closure(mod.carrier, set(mod.act.ravel().tolist()))
    return part, len(part) == mod.carrier.n


# --- the census search of one ordered space -----------------------------------------

def general_space(x, y, tri_cap):
    """(records, candidates, witnesses) of the general space (X, Y), with
    its own p and q lists and one check per p x q pair in this order."""
    p_cands = [t for t in _surjective_tables(x, y, tri_cap)
               if _distinct_slices(t, 2, x, "c3") and
               _distinct_slices(t, 0, x, "c4")]
    q_cands = [t for t in _surjective_tables(y, x, tri_cap)
               if _distinct_slices(t, 2, y, "c5") and
               _distinct_slices(t, 0, y, "c6")]

    candidates = 0
    witnesses = []
    for pt in p_cands:
        for qt in q_cands:
            candidates += 1
            if conditions_from_tables(x, y, pt, qt).ok:
                witnesses.append((pt, qt))

    auts = list(product(automorphisms(x), automorphisms(y)))
    records = []
    for pt, qt in _orbit_reps(witnesses, auts):
        w = _proved_pair(x, y, _freeze(pt), _freeze(qt))
        rep = check_pair_conditions(w)
        ctx = build_context_from_pair(w)
        back = extract_pair_from_context(ctx)
        if not (np.array_equal(back.p_gen, w.p_gen)
                and np.array_equal(back.q_gen, w.q_gen)):
            raise MoritaError("census integrity: witness round-trip changed "
                              "the tables")
        records.append(CensusRecord(
            mode="general", x_leq=leq_rows(x), y_leq=leq_rows(y),
            p=_tuplify(pt), q=_tuplify(qt),
            l_size=ctx.a.n, r_size=ctx.b.n,
            digests={"conditions": rep.digest(),
                     "context": ctx.report.digest()}))
    return records, candidates, len(witnesses)


# --- closed-form witnesses ----------------------------------------------------------

def dual_witness(x):
    """The tables (p, q) of a witness on (X, Xᵒᵖ), for every lattice X.

    Xᵒᵖ is ``lattice.opposite(x)``: the carrier of X with the order
    reversed, so its bottom is the top of X. Write a·[s] for a when s
    holds and for the bottom otherwise; every ≤ below is the order of X:

        p(x1, y, x2) = x1·[x2 ≰ y]      q(y1, x, y2) = y2·[x ≰ y1]

    Why it is a witness (a sketch). Both tables are multimorphisms: a join
    in a slot of y is a meet in X, and x2 ≰ y ∧ y' exactly when x2 ≰ y or
    x2 ≰ y'. Condition 1: all three composites equal
    x1·[x2 ≰ y1]·[x3 ≰ y2]; in the middle one, q(y1, x2, y2) is the top of
    X unless x2 ≰ y1, and no x3 lies outside the top. Condition 2 is the
    same computation in Y: all three composites equal
    y3·[x1 ≰ y1]·[x2 ≰ y2]. Separation: for x ≰ x', the curried maps of
    the last slot of p at x and x' differ at (⊤, x'), where they give ⊤
    and ⊥; those of the first slot at x ≠ x' differ wherever x2 ≰ y
    holds, at (y, x2) = (⊥, ⊤) say. Read in Y, q(y1, x, y2) is
    y2·[y1 ≰ x], the p of (Y, Yᵒᵖ) with its first and last slots swapped,
    so conditions 5 and 6 follow alike. Surjectivity: p(x, ⊥, ⊤) = x and
    q(⊥, ⊤, y) = y, with ⊥ and ⊤ those of X.
    """
    idx = np.arange(x.n)
    outside = ~x.leq.T                    # outside[y, a]: a is not below y
    p = np.where(outside[None], idx[:, None, None], x.bottom)
    q = np.where(outside[:, :, None], idx[None, None, :], x.top)
    return p, q


def frame_witness(x):
    """The tables (p, q) of a witness on (X, X) for a distributive X:
    p = q = x1 ∧ y ∧ x2, which preserves joins in each slot exactly because
    finite distributive lattices are frames."""
    m = x.meet
    t = m[m[:, :, None], np.arange(x.n)[None, None, :]]
    return t, t


def anti_automorphisms(x):
    """Every order-reversing bijection of X, as index tuples: one
    isomorphism onto Xᵒᵖ after each automorphism; none unless X is
    self-dual."""
    iso = find_isomorphism(x, opposite(x))
    if iso is None:
        return []
    return [tuple(iso[a] for a in aut) for aut in automorphisms(x)]


def involutive_witness(x, delta):
    """The table of p: X(x)X*(x)X -> X with p(x1, y, x2) = x1·[x2 ≰ δ(y)],
    for δ an anti-automorphism of X: the dual witness with Xᵒᵖ carried to
    X* through δ. It satisfies conditions a) to c) exactly when δ∘δ = id."""
    outside = ~x.leq.T[np.asarray(delta)]   # outside[y, a]: a ≰ δ(y)
    return np.where(outside[None], np.arange(x.n)[:, None, None], x.bottom)


# --- the .lat codec a row at a time -------------------------------------------------

def _lat_lines(lat):
    mio._check_names(lat.names)
    return [f"n={lat.n}",
            "names=" + ",".join(lat.names),
            "leq=" + ";".join(leq_rows(lat))]


def write_lattice_by_rows(path, lat):
    mio._write_lines(path, _lat_lines(lat))


def write_quantale_by_rows(path, q):
    star = None
    if isinstance(q, InvolutiveQuantale):
        star, q = q.star, q.quantale
    lines = _lat_lines(q.carrier)
    lines.append("mult=" + mio._rows(q.mult))
    if star is not None:
        lines.append("star=" + ",".join(str(int(s)) for s in star))
    mio._write_lines(path, lines)


def parse_lat_by_rows(fields, path):
    'The order and names of the fields of a .lat file, one row at a time.'
    ln, val = mio._field(fields, "n", path)
    n = mio._int(val, path, ln, "n")
    if n < 1:
        raise FormatError(f"{path}:{ln}: n must be at least 1")
    ln, val = mio._field(fields, "names", path)
    names = [s.strip() for s in val.split(",")]
    if len(names) != n:
        raise FormatError(f"{path}:{ln}: expected {n} names, got {len(names)}")
    for nm in names:
        if not nm or set(nm) & set(",;#=\n\r"):
            raise FormatError(f"{path}:{ln}: unserializable element name: "
                              f"'{nm}'")
    for k, nm in enumerate(names):
        if nm in names[:k]:
            raise FormatError(f"{path}:{ln}: duplicate element name '{nm}'")
    ln, val = mio._field(fields, "leq", path)
    rows = val.split(";")
    if len(rows) != n:
        raise FormatError(f"{path}:{ln}: leq needs {n} rows, got {len(rows)}")
    leq = np.zeros((n, n), dtype=bool)
    for i, row in enumerate(rows):
        row = row.strip()
        if len(row) != n or set(row) - {"0", "1"}:
            raise FormatError(f"{path}:{ln}: leq row {i} must be {n} "
                              "characters of 0/1")
        leq[i] = [c == "1" for c in row]
    return leq, names


def read_elem(path, arity):
    'The tuple -> element-index mapping of an .elem sidecar file.'
    _, arrows = mio._parse(path, mio._read_bytes(path))
    out = {}
    for ln, line in arrows:
        t, v = mio._parse_arrow(path, ln, line, arity)
        if t in out:
            raise FormatError(f"{path}:{ln}: duplicate entry for {t}")
        out[t] = v
    return out
