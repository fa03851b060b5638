"""Tensor products as multi-ideal lattices and the lifting correspondence."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import lattices_up_to
from morita import tensor
from morita.enumeration import find_isomorphism
from morita.errors import (DomainMismatch, NotAMultimorphism, ResourceLimit,
                           ShapeMismatch)
from morita.lattice import chain, diamond, m3, n5, opposite
from morita.tensor import (Multimorphism, _join_break, as_multimorphism,
                           enumerate_multimorphisms, is_multimorphism,
                           lift_multimorphism, tensor_product)
from oracles import (enumerate_multimorphisms_per_leaf, multi_ideal_closure,
                     restrict_to_elementaries, splice)


def brute_multi_ideals(factors):
    """All subsets of the coordinate grid that are multi-ideals, by exhaustion:
    contain every bottom-coordinate tuple, downward closed, and closed under
    joins in each slot with the rest fixed."""
    sizes = tuple(f.n for f in factors)
    grid = list(itertools.product(*(range(s) for s in sizes)))
    ideals = []
    for keep in itertools.product((False, True), repeat=len(grid)):
        s = {t for t, k in zip(grid, keep) if k}
        if any(any(c == f.bottom for c, f in zip(t, factors)) and t not in s
               for t in grid):
            continue
        ok = True
        for t in grid:
            if t in s:
                continue
            dominated = any(all(factors[i].leq[t[i], u[i]]
                                for i in range(len(t))) for u in s)
            if dominated:
                ok = False
                break
        if not ok:
            continue
        for t, u in itertools.product(s, repeat=2):
            diff = [i for i in range(len(t)) if t[i] != u[i]]
            if len(diff) == 1:
                i = diff[0]
                j = list(t)
                j[i] = factors[i].join[t[i], u[i]]
                if tuple(j) not in s:
                    ok = False
                    break
        if ok:
            ideals.append(frozenset(s))
    return ideals


def test_tensor_sizes_match_bruteforce():
    for factors, expect in (((chain(2), chain(2)), 2),
                            ((chain(3), chain(3)), 6),
                            ((chain(2), chain(3)), 3),
                            ((chain(2), diamond()), 4)):
        t = tensor_product(*factors)
        assert t.n == expect
        assert len(brute_multi_ideals(factors)) == expect
        # and they are the same ideals
        sizes = tuple(f.n for f in factors)
        ours = {frozenset(map(tuple, np.argwhere(t.bits[i].reshape(sizes)).tolist()))
                for i in range(t.n)}
        assert ours == set(brute_multi_ideals(factors))


def test_chain_tensor_sizes_follow_monotone_function_counts():
    assert tensor_product(chain(3), chain(3), chain(3)).n == 20
    assert tensor_product(*(chain(2),) * 5).n == 2


def test_two_chain_is_a_tensor_unit():
    for lat in lattices_up_to(5):
        t = tensor_product(chain(2), lat)
        assert find_isomorphism(t.lattice, lat) is not None
        t = tensor_product(lat, chain(2))
        assert find_isomorphism(t.lattice, lat) is not None


def test_tensor_is_symmetric_in_size():
    for x, y in ((chain(3), diamond()), (diamond(), m3())):
        assert tensor_product(x, y).n == tensor_product(y, x).n


def test_elementary_tensors_generate():
    t = tensor_product(chain(3), diamond())
    lat = t.lattice
    for i in range(t.n):
        parts = t.elem_table.reshape(-1)[t.bits[i]]
        assert lat.join_of(parts) == i


def test_elem_table_is_monotone():
    t = tensor_product(chain(3), chain(3))
    for a, b in itertools.product(np.ndindex(3, 3), repeat=2):
        if all(x <= y for x, y in zip(a, b)):
            assert t.lattice.leq[t.elem_table[a], t.elem_table[b]]


def test_lift_restrict_roundtrip_both_ways():
    x, y, z = chain(2), chain(3), diamond()
    t = tensor_product(x, y)
    # every bimorphism, by exhaustion over value tables
    bimorphisms = []
    for vals in itertools.product(range(z.n), repeat=x.n * y.n):
        f = Multimorphism((x, y), z, np.array(vals).reshape(x.n, y.n))
        if is_multimorphism(f):
            bimorphisms.append(f)
    sup_maps = list(enumerate_multimorphisms((t.lattice,), z))
    assert len(bimorphisms) == len(sup_maps)
    for f in bimorphisms:
        g = lift_multimorphism(f, t)
        back = restrict_to_elementaries(g, t)
        assert back == f
    for g in sup_maps:
        f = restrict_to_elementaries(g, t)
        assert is_multimorphism(f)
        assert lift_multimorphism(f, t) == g


def lift_by_join_of(f, tensor):
    """Values of the lift of f, one tensor element at a time: the join of f
    over the element's tuples. The reference for the vectorised lift."""
    flat_vals = f.values.reshape(-1)
    return tuple(f.target.join_of(int(flat_vals[k])
                                  for k in np.flatnonzero(tensor.bits[i]))
                 for i in range(tensor.n))


def test_lift_matches_the_per_element_join_on_all_small_trimorphisms():
    lats = lattices_up_to(3)
    checked = 0
    for factors in itertools.product(lats, repeat=3):
        t = tensor_product(*factors)
        for z in lats:
            for f in enumerate_multimorphisms(factors, z):
                assert (tuple(lift_multimorphism(f, t).values.tolist())
                        == lift_by_join_of(f, t))
                checked += 1
    assert checked == 363


def test_lift_agrees_on_elementaries():
    x = chain(3)
    f = as_multimorphism((x, x), x, x.meet)
    t = tensor_product(x, x)
    g = lift_multimorphism(f, t)
    for a, b in np.ndindex(3, 3):
        assert g(t.elem_table[a, b]) == f(a, b)


def test_meet_is_not_a_multimorphism_on_m3():
    lat = m3()
    with pytest.raises(NotAMultimorphism):
        as_multimorphism((lat, lat), lat, lat.meet)


def test_multimorphism_failure_names_every_coordinate():
    x = chain(2)
    t = np.zeros((2, 3, 2), dtype=np.int64)
    t[0, 1, 0] = 1
    v = is_multimorphism(Multimorphism((x, chain(3), x), x, t))
    assert v.law == "slot-0-bottom" and v.witness == ("0", "x1", "0")
    assert v.detail == "f(0, x1, 0) = 1, not bottom"
    lat = m3()
    v = is_multimorphism(Multimorphism((lat, lat), lat, lat.meet))
    assert v.law == "slot-0-joins" and v.witness == ("a", "b", "c")
    assert v.detail == "f(a v b, c) = c but f(a, c) v f(b, c) = 0"


def test_meet_is_a_multimorphism_on_distributive_lattices():
    for lat in (chain(4), diamond()):
        as_multimorphism((lat, lat), lat, lat.meet)


def test_multimorphism_table_validation():
    x = chain(2)
    with pytest.raises(ShapeMismatch):
        Multimorphism((x, x), x, np.zeros((2, 3), dtype=np.int64))
    with pytest.raises(DomainMismatch):
        Multimorphism((x, x), x, np.full((2, 2), 7))


def test_tensor_cap(monkeypatch):
    monkeypatch.setenv("MORITA_MAX_TENSOR", "5")
    with pytest.raises(ResourceLimit):
        tensor_product(chain(3), chain(3))
    monkeypatch.setenv("MORITA_MAX_TENSOR", "50")
    assert tensor_product(chain(3), chain(3)).n == 6


def test_tensor_cap_fires_just_past_the_size(monkeypatch):
    # the cap counts every element, the bottom too, so a cap equal to the
    # size passes
    for factors, n in (((chain(4),) * 3, 980), ((diamond(),) * 3, 256)):
        monkeypatch.setenv("MORITA_MAX_TENSOR", str(n))
        assert tensor_product(*factors).n == n
        monkeypatch.setenv("MORITA_MAX_TENSOR", str(n - 1))
        with pytest.raises(ResourceLimit, match=f"exceeds {n - 1} elements"):
            tensor_product(*factors)
    monkeypatch.setenv("MORITA_MAX_TENSOR", "1")
    with pytest.raises(ResourceLimit):
        tensor_product(chain(2), chain(2))


def test_splice_of_elementary_is_elementary():
    x, y = chain(2), chain(3)
    t3 = tensor_product(x, y, x)
    t2 = tensor_product(y, x)
    for a, b, c in np.ndindex(2, 3, 2):
        sub = t2.elem_table[b, c]
        assert splice(t3, t2, sub, 1, (a,)) == t3.elem_table[a, b, c]


def test_splice_is_linear_in_the_sub_slot():
    x, y = chain(2), chain(3)
    t3 = tensor_product(x, y, x)
    t2 = tensor_product(y, x)
    lat2, lat3 = t2.lattice, t3.lattice
    for i, j in itertools.product(range(t2.n), repeat=2):
        joined = splice(t3, t2, lat2.join[i, j], 1, (1,))
        parts = lat3.join[splice(t3, t2, i, 1, (1,)),
                          splice(t3, t2, j, 1, (1,))]
        assert joined == parts


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_closure_is_a_closure_operator(data):
    factors = (diamond(), chain(3))
    grid = list(itertools.product(range(4), range(3)))
    seeds = data.draw(st.sets(st.sampled_from(grid), max_size=5))
    closed = multi_ideal_closure(factors, seeds)
    assert seeds <= closed
    assert multi_ideal_closure(factors, closed) == closed
    more = data.draw(st.sets(st.sampled_from(grid), max_size=5))
    bigger = multi_ideal_closure(factors, seeds | more)
    assert closed <= bigger


# --- the enumerator against the per-leaf extension ----------------------------------

def _cells(factors):
    return int(np.prod([len(f.join_irreducibles()) for f in factors]))


def _same_yields(factors, target):
    fast = list(enumerate_multimorphisms(factors, target))
    slow = list(enumerate_multimorphisms_per_leaf(factors, target))
    assert fast == slow, (factors, target)
    shape = tuple(f.n for f in factors)
    for f in fast:
        # the enumerator's tables skip the constructor's checks
        v = f.values
        assert v.dtype == np.int64 and v.shape == shape
        assert not v.flags.writeable
        assert 0 <= v.min() <= v.max() < target.n
    return len(fast)


def test_enumerator_matches_the_per_leaf_reference_up_to_three_cells():
    # every factor tuple of one to three lattices of size <= 5 with at most
    # three join-irreducible tuples, into every target of size <= 5; a
    # factor of size one has no irreducibles, so its tuples have no cells
    lats = lattices_up_to(5)
    assert len(lats) == 10
    spaces = yields = 0
    for k in (1, 2, 3):
        for factors in itertools.product(lats, repeat=k):
            if _cells(factors) > 3:
                continue
            for z in lats:
                yields += _same_yields(factors, z)
                spaces += 1
    assert (spaces, yields) == (3360, 12819)


def test_enumerator_matches_the_per_leaf_reference_on_census_shapes():
    c2, c3, c4, d = chain(2), chain(3), chain(4), diamond()
    for x, y in ((c3, c3), (c3, c2), (c2, c4), (d, c2), (c2, d)):
        _same_yields((x, y, x), x)
    for factors, z in (((m3(), c2), c3), ((c2, n5()), d), ((n5(), c2), n5())):
        _same_yields(factors, z)


def _until_cap(enumerator, factors, target, cap):
    'The tables yielded before the enumerator raises ResourceLimit.'
    out = []
    with pytest.raises(ResourceLimit, match=f"more than {cap} "):
        for f in enumerator(factors, target, cap=cap):
            out.append(f)
    return out


def test_enumerator_matches_the_per_leaf_reference_across_blocks(monkeypatch):
    c2, c3, c4 = chain(2), chain(3), chain(4)
    big = ((c4, c4), opposite(c4))      # 980 leaves, all distributive
    nondist = ((n5(), c3), c4)          # 500 leaves, 237 of them yielded
    assert _same_yields(*big) == 980 > 2 * tensor.BLOCK
    assert _same_yields(*nondist) == 237
    assert monotone_assignments(*nondist) == 500 > 2 * tensor.BLOCK
    # a one-element factor has no cells: one leaf, the zero map
    assert _same_yields((chain(1), c3), c3) == 1
    for block in (1, 7, 979, 980, 981):
        monkeypatch.setattr(tensor, "BLOCK", block)
        assert _same_yields(*big) == 980
        assert _same_yields(*nondist) == 237
        assert _same_yields((c2, c2), c3) == 3


def test_the_cap_raises_at_the_same_yield_across_blocks(monkeypatch):
    c4 = chain(4)
    big = ((c4, c4), opposite(c4))
    blocks, walk = [], tensor._monotone_blocks

    def counting(*args):
        for b in walk(*args):
            blocks.append(len(b))
            yield b

    monkeypatch.setattr(tensor, "_monotone_blocks", counting)
    size = tensor.BLOCK
    # mid-block and at a block boundary; each leaf is accepted, so the
    # walk stops in the block of the (cap + 1)-th leaf
    for cap in (size // 2, size, size + 3, 2 * size - 1, 2 * size):
        blocks.clear()
        fast = _until_cap(enumerate_multimorphisms, *big, cap)
        assert fast == _until_cap(enumerate_multimorphisms_per_leaf, *big, cap)
        assert len(fast) == cap and len(blocks) == cap // size + 1
    # a non-distributive space whose cap falls after rejected leaves
    nondist = ((n5(), chain(3)), c4)
    monkeypatch.setattr(tensor, "BLOCK", 16)
    for cap in (5, 16, 100, 236):
        fast = _until_cap(enumerate_multimorphisms, *nondist, cap)
        assert fast == _until_cap(enumerate_multimorphisms_per_leaf,
                                  *nondist, cap)
    assert len(list(enumerate_multimorphisms(*nondist, cap=237))) == 237


def test_yielded_tables_are_frozen_and_not_reused():
    c4 = chain(4)
    seen = []
    for f in enumerate_multimorphisms((c4, c4), opposite(c4)):
        seen.append((f, f.values.tobytes()))
        with pytest.raises(ValueError, match="read-only"):
            f.values[(0,) * f.values.ndim] = 0
    # the tables of earlier blocks are unchanged once later ones are built
    assert len(seen) == 980 > tensor.BLOCK
    assert all(f.values.tobytes() == kept for f, kept in seen)
    assert len({kept for _, kept in seen}) == 980
    # the public constructor still checks its table
    x = chain(2)
    with pytest.raises(ShapeMismatch):
        Multimorphism((x, x), x, np.zeros(4, dtype=np.int64))
    with pytest.raises(DomainMismatch):
        Multimorphism((x, x), x, np.full((2, 2), -1))


def monotone_assignments(factors, target):
    'Monotone maps from the tuples of join-irreducibles into the target.'
    cells = list(itertools.product(*[f.join_irreducibles() for f in factors]))
    order = [(s, t) for s, t in itertools.permutations(range(len(cells)), 2)
             if all(f.leq[a, b] for f, a, b in zip(factors, cells[s], cells[t]))]
    return sum(all(target.leq[v[s], v[t]] for s, t in order)
               for v in itertools.product(range(target.n), repeat=len(cells)))


def test_leaves_are_checked_only_with_a_non_distributive_factor(monkeypatch):
    calls = []

    def counting(f):
        calls.append(f)
        return _join_break(f)

    def checked_and_found(factors, z):
        # the enumerator decides each leaf by the law computation alone
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr("morita.tensor._join_break", counting)
            found = len(list(enumerate_multimorphisms(factors, z)))
        assert found == _same_yields(factors, z)
        return len(calls), found

    c2, c3 = chain(2), chain(3)
    for factors, z in (((c3, c2, c3), c3), ((diamond(), c2), m3()),
                       ((c2,), n5())):
        checked, found = checked_and_found(factors, z)
        assert checked == 0 and found > 0
    for factors, z in (((m3(), c2), c2), ((c2, n5()), c3), ((m3(),), c3),
                       ((n5(), c2, c2), c2)):
        checked, found = checked_and_found(factors, z)
        assert checked == monotone_assignments(factors, z) > found
