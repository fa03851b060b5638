"""The bit-packed closure kernel and the vectorised lattice check, each
against the code it replaced (kept here as the reference) or an oracle."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import lattices_up_to
from morita import _kernels
from morita.census import enumerate_multimorphisms
from morita.errors import MissingJoin, MoritaError, NoBottom, NoTop, \
    NotAPartialOrder
from morita.lattice import chain, diamond, m3, n5, validate_lattice
from morita.tensor import _Grid, _to_int, _to_rows, tensor_product


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
    return _to_rows([_kernels.close_ideal(_to_int(mask), g.plan)], g.tcount)[0]


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


def test_closure_output_is_a_multi_ideal():
    factors = (diamond(), chain(3))
    g = _Grid(factors)
    closed = _to_rows([g.close(1 << g.ravel((1, 2)))], g.tcount)[0]
    grid = closed.reshape(g.sizes)
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
                raise NoTop("no greatest element")
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
