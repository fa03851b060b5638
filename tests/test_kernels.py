"""The bit-packed closure kernel, the enumerated tensor build and the
vectorised lattice check, each against the code it replaced (kept here or
in ``oracles`` as the reference) or an oracle."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import lattices_up_to, meet_tables
from morita import _kernels, cli, io, lattice
from morita.census import enumerate_multimorphisms
from morita.engine import MoritaPairWitness, build_context_from_pair
from morita.errors import MissingJoin, MoritaError, NoBottom, NotAPartialOrder
from morita.lattice import _subsets, chain, diamond, m3, n5, validate_lattice
from morita.tensor import _Grid, _maximal_tuples, tensor_product
from oracles import (_to_int, _to_rows, closure_plan, elem_table_by_bitsets,
                     is_distributive, maximal_tuples_by_word_axis,
                     subsets_by_word_axis, tensor_product_by_closure)


# --- reference: boolean down and fiber passes -------------------------------------

def _down_pass(dmask, below):
    'Add every tuple below a member. below[s,t] iff s <= t componentwise.'
    new = (below & dmask[None, :]).any(axis=1)
    changed = bool((new & ~dmask).any())
    dmask |= new
    return changed


def _fiber_pass(dmask, flat_idx, join):
    'Close every fiber of one slot under binary joins. flat_idx is (n, rest).'
    n = flat_idx.shape[0]
    view = dmask[flat_idx]
    changed = False
    stable = False
    while not stable:
        stable = True
        for x in range(n):
            if not view[x].any():
                continue
            for y in range(x + 1, n):
                j = join[x, y]
                if j == x or j == y:
                    continue
                add = view[x] & view[y] & ~view[j]
                if add.any():
                    view[j] |= add
                    stable = False
                    changed = True
    if changed:
        dmask[flat_idx] = view
    return changed


def reference_close(factors, mask):
    'Least multi-ideal containing a boolean tuple mask, by the boolean passes.'
    sizes = tuple(f.n for f in factors)
    tcount = int(np.prod(sizes))
    coords = np.unravel_index(np.arange(tcount), sizes)
    below = np.ones((tcount, tcount), dtype=bool)
    dmask = mask.copy()
    for i, f in enumerate(factors):
        below &= f.leq[coords[i]][:, coords[i]]
        dmask |= coords[i] == f.bottom
    grid = np.arange(tcount).reshape(sizes)
    flat_idxs = [np.moveaxis(grid, i, 0).reshape(s, -1)
                 for i, s in enumerate(sizes)]
    changed = True
    while changed:
        changed = _down_pass(dmask, below)
        for flat_idx, f in zip(flat_idxs, factors):
            if _fiber_pass(dmask, flat_idx, f.join):
                changed = True
    return dmask


GRIDS = {
    "m3 x c2": (m3(), chain(2)),
    "n5 x d": (n5(), diamond()),
    "d x c3": (diamond(), chain(3)),
    "c3 x n5 x c2": (chain(3), n5(), chain(2)),
    "d x c2 x m3 x c2": (diamond(), chain(2), m3(), chain(2)),
}


def _kernel_close(factors, mask):
    g = _Grid(factors)
    return _to_rows([_kernels.close_ideal(_to_int(mask), closure_plan(g))],
                    g.tcount)[0]


def test_close_ideal_agrees_on_every_single_seed():
    for factors in GRIDS.values():
        tcount = int(np.prod([f.n for f in factors]))
        for t in range(tcount):
            mask = np.zeros(tcount, dtype=bool)
            mask[t] = True
            assert np.array_equal(_kernel_close(factors, mask),
                                  reference_close(factors, mask))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_close_ideal_agrees_on_random_seed_sets(data):
    factors = GRIDS[data.draw(st.sampled_from(sorted(GRIDS)))]
    tcount = int(np.prod([f.n for f in factors]))
    seeds = data.draw(st.sets(st.integers(0, tcount - 1), max_size=8))
    mask = np.zeros(tcount, dtype=bool)
    mask[list(seeds)] = True
    assert np.array_equal(_kernel_close(factors, mask),
                          reference_close(factors, mask))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_close_ideal_is_the_join_of_elementary_tensors(data):
    # a join in the tensor lattice is the closure of the union, so closing a
    # set of tuples gives the join of their elementary tensors
    factors = GRIDS[data.draw(st.sampled_from(sorted(GRIDS)))]
    t = tensor_product(*factors)
    tcount = t.bits.shape[1]
    seeds = data.draw(st.sets(st.integers(0, tcount - 1), max_size=8))
    mask = np.zeros(tcount, dtype=bool)
    mask[list(seeds)] = True
    joined = t.lattice.join_of(t.elem_table.reshape(-1)[mask])
    assert np.array_equal(_kernel_close(factors, mask), t.bits[joined])


def test_closure_output_is_a_multi_ideal():
    factors = (diamond(), chain(3))
    mask = np.zeros(12, dtype=bool)
    mask[np.ravel_multi_index((1, 2), (4, 3))] = True
    grid = _kernel_close(factors, mask).reshape(4, 3)
    assert grid[0, :].all() and grid[:, 0].all()          # bottom tuples
    for a, b, c, d in itertools.product(range(4), range(3), range(4), range(3)):
        if grid[a, b] and factors[0].leq[c, a] and factors[1].leq[d, b]:
            assert grid[c, d]                             # downward closed
    for a, c, b in itertools.product(range(4), range(4), range(3)):
        if grid[a, b] and grid[c, b]:
            assert grid[factors[0].join[a, c], b]         # fiber joins


# --- whole tensors against the multimorphism oracle -------------------------------

STOCK = {"c1": chain(1), "c2": chain(2), "c3": chain(3), "c4": chain(4),
         "d": diamond(), "m3": m3(), "n5": n5()}


def oracle_ideals(x, y, z):
    """Multi-ideals of X (x) Y (x) Z, as boolean tuple masks.

    A multi-ideal's fiber over (x, y) is a principal down-set of Z, and the
    map (x, y) -> its top sends joins in each slot to meets: the ideals are
    {(x, y, z) : z <= f(x, y)} for the bimorphisms f : X x Y -> Z^op.
    """
    zop = validate_lattice(z.leq.T)
    return {z.leq.T[f.values].tobytes()
            for f in enumerate_multimorphisms((x, y), zop)}


def test_tensors_match_the_multimorphism_oracle():
    shapes = [s for s in itertools.product(STOCK, repeat=3)
              if sum(STOCK[k].n for k in s) <= 12]
    assert len(shapes) == 275
    for shape in shapes:
        factors = [STOCK[k] for k in shape]
        t = tensor_product(*factors)
        ours = [t.bits[i].tobytes() for i in range(t.n)]
        ideals = oracle_ideals(*factors)
        assert set(ours) == ideals and len(ours) == len(ideals), shape
        # an elementary tensor is the least ideal holding its tuple
        rows = t.bits.reshape(t.n, -1)
        for flat, e in enumerate(t.elem_table.reshape(-1)):
            holding = rows[rows[:, flat]]
            assert np.array_equal(rows[e], holding.all(axis=0)), shape


# --- the enumerated tensor build against the closure build -----------------------

def _same_blocks(lat, leq):
    for step in (1, 5, 64, lat.n + 1):
        assert np.array_equal(np.concatenate(list(lat._order_blocks(step))),
                              leq), step


def _same_tensor(shape):
    factors = [STOCK[k] for k in shape]
    new = tensor_product(*factors)
    old = tensor_product_by_closure(*factors)
    assert np.array_equal(new.bits, old.bits), shape
    # the order is built on first read; its row blocks stack to it, before
    # and after, and it is the rows' inclusion and the validated order
    assert new.lattice._leq is None, shape
    _same_blocks(new.lattice, old.lattice.leq)
    assert np.array_equal(new.lattice.leq, _subsets(new.bits)), shape
    assert np.array_equal(new.lattice.leq, old.lattice.leq), shape
    _same_blocks(new.lattice, old.lattice.leq)
    assert new.lattice.names == old.lattice.names, shape
    assert np.array_equal(new.elem_table, old.elem_table), shape
    # the first row by size holding a tuple is its elementary tensor
    assert new.elem_table.dtype == np.int64, shape
    by_bitsets = elem_table_by_bitsets(_Grid(factors), new.bits)
    assert np.array_equal(new.elem_table, by_bitsets), shape
    # the tables built on first read agree with the validated order's
    assert np.array_equal(new.lattice.join, old.lattice.join), shape
    assert np.array_equal(new.lattice.meet, old.lattice.meet), shape
    assert (new.lattice.bottom, new.lattice.top) == \
        (old.lattice.bottom, old.lattice.top), shape


def test_tensor_matches_the_closure_build_on_distributive_triples():
    for shape in itertools.product(("c1", "c2", "c3", "c4", "d"), repeat=3):
        _same_tensor(shape)


def test_tensor_matches_the_closure_build_up_to_48_tuples():
    shapes = [s for k in (2, 3) for s in itertools.product(STOCK, repeat=k)
              if np.prod([STOCK[f].n for f in s]) <= 48]
    assert len(shapes) == 280
    for shape in shapes:
        _same_tensor(shape)


@pytest.mark.parametrize("shape", [("c3", "m3", "n5"), ("m3", "m3", "c3"),
                                   ("d", "c2", "m3", "c2")])
def test_tensor_matches_the_closure_build_on_larger_shapes(shape):
    _same_tensor(shape)


@pytest.mark.parametrize("shape", [("c2", "c3"), ("d", "d"), ("m3", "c2"),
                                   ("n5", "c2"), ("m3", "n5"),
                                   ("c2", "d", "c2")])
def test_tensor_lattice_built_on_first_use_matches_validation(shape):
    t = tensor_product(*(STOCK[k] for k in shape)).lattice
    want = validate_lattice(t.leq)
    assert is_distributive(t) == is_distributive(want), shape
    assert t.join_irreducibles() == want.join_irreducibles(), shape


# --- the word kernels against the reduction over the word axis ---------------------

def _same_word_kernels(factors):
    'The tensor of ``factors`` through both kernels; its tuples and elements.'
    t = tensor_product(*factors)
    g = _Grid(factors)
    assert np.array_equal(_subsets(t.bits), subsets_by_word_axis(t.bits))
    assert (_maximal_tuples(t.bits, g)
            == maximal_tuples_by_word_axis(t.bits, g) == t.maximal)
    return g.tcount, t.n


def test_word_kernels_match_the_word_axis_on_the_tensor_workload():
    # the benchmark's X (x) Y (x) X shapes, one word per row
    for x, y in itertools.product(("c2", "c3", "c4", "d"), repeat=2):
        tcount, _ = _same_word_kernels((STOCK[x], STOCK[y], STOCK[x]))
        assert tcount <= 64


@pytest.mark.parametrize("shape, size", [
    (("c2", "c5", "c7"), (70, 210)), (("c3", "c3", "c8"), (72, 540)),
    (("m3", "n5", "c3"), (75, 316))])
def test_word_kernels_match_the_word_axis_past_one_word(shape, size):
    lats = dict(STOCK, c5=chain(5), c7=chain(7), c8=chain(8))
    assert _same_word_kernels([lats[k] for k in shape]) == size


@pytest.mark.parametrize("width", [63, 64, 65, 128, 129, 130])
def test_word_kernels_match_the_word_axis_on_random_rows(width):
    rng = np.random.default_rng(width)
    rows = rng.random((150, width)) < rng.random((150, 1))
    rows[:3] = False                        # empty rows
    rows[10:20] = rows[20:30]               # repeated rows
    assert np.array_equal(_subsets(rows), subsets_by_word_axis(rows))
    # the kernel reads the grid's relation and bottom mask as given
    grid = type("Grid", (), dict(tcount=width, bottom=rng.random(width) < 0.2,
                                 strictly_above=rng.random((width, width)) < 0.1))
    assert (_maximal_tuples(rows, grid)
            == maximal_tuples_by_word_axis(rows, grid))


def test_cli_tensor_builds_no_join_or_meet_table(monkeypatch, tmp_path):
    least_bounds = lattice._least_bounds

    def factors_only(up):
        # reading the 4-element factors validates them; the tensor is built
        # without a join or a meet table
        if len(up) > 4:
            raise AssertionError(f"bound table of {len(up)} elements built")
        return least_bounds(up)

    monkeypatch.setattr(lattice, "_least_bounds", factors_only)
    io.write_lattice(tmp_path / "c4.lat", chain(4))
    c4 = str(tmp_path / "c4.lat")
    assert cli.main(["tensor", c4, c4, c4, "-o", str(tmp_path / "t.lat")]) == 0
    assert io.read_lattice_raw(tmp_path / "t.lat")[0].shape == (980, 980)


@pytest.mark.parametrize("shape", [("c2", "c3"), ("c4", "c4", "c4"),
                                   ("c2", "c5", "c7"), ("m3", "n5", "c3")])
def test_writing_a_tensor_gives_the_same_bytes_before_its_order_is_read(
        shape, tmp_path):
    lats = dict(STOCK, c5=chain(5), c7=chain(7))
    t = tensor_product(*(lats[k] for k in shape)).lattice
    io.write_lattice(tmp_path / "lazy.lat", t)
    assert t._leq is None
    t.leq
    io.write_lattice(tmp_path / "built.lat", t)
    assert ((tmp_path / "lazy.lat").read_bytes()
            == (tmp_path / "built.lat").read_bytes()), shape


def test_the_package_never_calls_the_closure_kernel(monkeypatch, tmp_path):
    def refuse(bits, plan):
        raise AssertionError("the closure kernel was called")

    want = tensor_product_by_closure(m3(), chain(3), n5()).n
    monkeypatch.setattr(_kernels, "close_ideal", refuse)
    assert tensor_product(m3(), chain(3), n5()).n == want
    io.write_lattice(tmp_path / "d.lat", diamond())
    assert cli.main(["tensor", str(tmp_path / "d.lat"), str(tmp_path / "d.lat"),
                     "-o", str(tmp_path / "t.lat")]) == 0
    assert io.read_lattice(tmp_path / "t.lat").n == 16
    t = meet_tables(diamond())
    build_context_from_pair(
        MoritaPairWitness.from_generators(diamond(), diamond(), t, t))


# --- validate_lattice against the row-dictionary loop -----------------------------

def reference_validate(leq, names):
    """The lattice check as a loop over dictionaries of rows.

    Returns (bottom, top, join, meet) or raises like validate_lattice; the
    transitivity count is exact at any size.
    """
    n = leq.shape[0]
    if not leq.diagonal().all():
        i = int(np.flatnonzero(~leq.diagonal())[0])
        raise NotAPartialOrder(f"not reflexive at {names[i]}")
    both = leq & leq.T
    if (both != np.eye(n, dtype=bool)).any():
        i, j = map(int, np.argwhere(both & ~np.eye(n, dtype=bool))[0])
        raise NotAPartialOrder(
            f"not antisymmetric: {names[i]} <= {names[j]} <= {names[i]}")
    closure = (leq.astype(np.int64) @ leq.astype(np.int64)) > 0
    if (closure & ~leq).any():
        i, j = map(int, np.argwhere(closure & ~leq)[0])
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
    tables = []
    for rel, what in ((leq, "join"), (np.ascontiguousarray(leq.T), "meet")):
        of = {rel[i].tobytes(): i for i in range(n)}
        table = np.empty((n, n), dtype=np.int64)
        for i in range(n):
            common = rel[i] & rel
            for j in range(i, n):
                u = of.get(common[j].tobytes())
                if u is None:
                    if what == "join":
                        raise MissingJoin(f"{names[i]} and {names[j]} have no join")
                    raise MoritaError(
                        f"internal: {names[i]} and {names[j]} have no meet "
                        "despite bottom and joins")
                table[i, j] = table[j, i] = u
        tables.append(table)
        if what == "join":
            tops = np.flatnonzero(leq.all(axis=0))
            if len(tops) == 0:
                raise MoritaError("internal: no greatest element despite "
                                  "bottom and joins")
    return int(bottoms[0]), int(tops[0]), tables[0], tables[1]


def _same_verdict(leq):
    names = tuple(f"e{i}" for i in range(leq.shape[0]))
    try:
        want = reference_validate(leq, names)
    except MoritaError as e:
        with pytest.raises(type(e)) as got:
            validate_lattice(leq, names)
        assert type(got.value) is type(e) and str(got.value) == str(e)
        return type(e).__name__
    lat = validate_lattice(leq, names)
    assert (lat.bottom, lat.top) == want[:2]
    assert np.array_equal(lat.join, want[2])
    assert np.array_equal(lat.meet, want[3])
    return "lattice"


def test_validate_matches_reference_on_small_lattices():
    rng = np.random.default_rng(0)
    for lat in lattices_up_to(6):
        perm = rng.permutation(lat.n)
        moved = np.empty_like(lat.leq)
        moved[np.ix_(perm, perm)] = lat.leq
        assert _same_verdict(lat.leq) == "lattice"
        assert _same_verdict(moved) == "lattice"


def _random_relation(rng):
    'A random order on up to 9 points, often broken in one entry.'
    n = int(rng.integers(1, 10))
    leq = np.triu(rng.random((n, n)) < rng.uniform(0.1, 0.9)) | np.eye(n, dtype=bool)
    if rng.random() < 0.7:                      # transitive closure
        for k in range(n):
            leq |= leq[:, k:k + 1] & leq[k:k + 1, :]
    if rng.random() < 0.5:                      # a common top and/or bottom
        leq[0, :] = True
    if rng.random() < 0.5:
        leq[:, -1] = True
    if rng.random() < 0.3:                      # flip one entry
        i, j = rng.integers(0, n, 2)
        leq[i, j] = not leq[i, j]
    perm = rng.permutation(n)
    moved = np.empty_like(leq)
    moved[np.ix_(perm, perm)] = leq
    return moved


def test_validate_matches_reference_on_random_relations():
    rng = np.random.default_rng(20240601)
    verdicts = {_same_verdict(_random_relation(rng)) for _ in range(3000)}
    assert verdicts >= {"lattice", "NotAPartialOrder", "NoBottom", "MissingJoin"}


def test_validate_matches_reference_past_one_word():
    # more than 64 elements: every row spans several packed words
    rng = np.random.default_rng(5)
    verdicts = []
    for factors in ((diamond(), chain(3), diamond()), (diamond(),) * 3):
        leq = tensor_product(*factors).lattice.leq
        perm = rng.permutation(leq.shape[0])
        moved = np.empty_like(leq)
        moved[np.ix_(perm, perm)] = leq
        verdicts.append(_same_verdict(moved))
        for _ in range(3):
            broken = moved.copy()                       # flip one entry
            i, j = rng.integers(0, leq.shape[0], 2)
            broken[i, j] = i == j or not broken[i, j]
            verdicts.append(_same_verdict(broken))
            keep = np.delete(np.arange(leq.shape[0]),   # drop one element
                             rng.integers(0, leq.shape[0]))
            verdicts.append(_same_verdict(moved[np.ix_(keep, keep)]))
    assert {"lattice", "NotAPartialOrder", "MissingJoin"} <= set(verdicts)


@pytest.mark.parametrize("middles", [255, 256])
def test_transitivity_count_does_not_wrap(middles):
    # 0 below everything; x1 <= k <= top for every middle k, but not x1 <= top
    n = middles + 3
    leq = np.eye(n, dtype=bool)
    leq[0, :] = True
    leq[1, 2:n - 1] = True
    leq[2:, n - 1] = True
    leq[1, n - 1] = False
    with pytest.raises(NotAPartialOrder,
                       match=r"^not transitive: x1 <= x2 <= 1 but not x1 <= 1$"):
        validate_lattice(leq)
