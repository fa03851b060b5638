"""Tensor products as multi-ideal lattices and the lifting correspondence."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import lattices_up_to
from morita.enumeration import find_isomorphism
from morita.errors import (DomainMismatch, NotAMultimorphism, ResourceLimit,
                           ShapeMismatch)
from morita.lattice import chain, diamond, enumerate_sup_maps, m3
from morita.tensor import (Multimorphism, as_multimorphism, is_multimorphism,
                           lift_multimorphism, multi_ideal_closure,
                           restrict_to_elementaries, splice, tensor_product)


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
        ours = {frozenset(t.tuples_of(i)) for i in range(t.n)}
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
        parts = [t.elem(c) for c in t.maximal_tuples(i)]
        assert lat.join_of(parts) == i


def test_elem_table_is_monotone():
    t = tensor_product(chain(3), chain(3))
    for a, b in itertools.product(np.ndindex(3, 3), repeat=2):
        if all(x <= y for x, y in zip(a, b)):
            assert t.lattice.leq[t.elem(a), t.elem(b)]


def test_lift_restrict_roundtrip_both_ways():
    x, y, z = chain(2), chain(3), diamond()
    t = tensor_product(x, y)
    # every bimorphism, by exhaustion over value tables
    bimorphisms = []
    for vals in itertools.product(range(z.n), repeat=x.n * y.n):
        f = Multimorphism((x, y), z, np.array(vals).reshape(x.n, y.n))
        if is_multimorphism(f):
            bimorphisms.append(f)
    sup_maps = list(enumerate_sup_maps(t.lattice, z))
    assert len(bimorphisms) == len(sup_maps)
    for f in bimorphisms:
        g = lift_multimorphism(f, t)
        back = restrict_to_elementaries(g, t)
        assert back == f
    for g in sup_maps:
        f = restrict_to_elementaries(g, t)
        assert is_multimorphism(f)
        assert tuple(lift_multimorphism(f, t).values) == tuple(g.values)


def test_lift_agrees_on_elementaries():
    x = chain(3)
    f = as_multimorphism((x, x), x, x.meet)
    t = tensor_product(x, x)
    g = lift_multimorphism(f, t)
    for a, b in np.ndindex(3, 3):
        assert g(t.elem((a, b))) == f(a, b)


def test_meet_is_not_a_multimorphism_on_m3():
    lat = m3()
    with pytest.raises(NotAMultimorphism):
        as_multimorphism((lat, lat), lat, lat.meet)


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
    with pytest.raises(ResourceLimit):
        tensor_product(chain(3), chain(3), cap=5)
    monkeypatch.setenv("MORITA_MAX_TENSOR", "5")
    with pytest.raises(ResourceLimit):
        tensor_product(chain(3), chain(3))
    monkeypatch.setenv("MORITA_MAX_TENSOR", "50")
    assert tensor_product(chain(3), chain(3)).n == 6


def test_tensor_cap_fires_just_past_the_size():
    # the BFS is seeded with irreducible elementary tensors only; the cap
    # still counts every element, so a cap equal to the size passes
    for factors, n in (((chain(4),) * 3, 980), ((diamond(),) * 3, 256)):
        assert tensor_product(*factors, cap=n).n == n
        with pytest.raises(ResourceLimit, match=f"exceeds {n - 1} elements"):
            tensor_product(*factors, cap=n - 1)
    with pytest.raises(ResourceLimit):
        tensor_product(chain(2), chain(2), cap=1)


def test_splice_of_elementary_is_elementary():
    x, y = chain(2), chain(3)
    t3 = tensor_product(x, y, x)
    t2 = tensor_product(y, x)
    for a, b, c in np.ndindex(2, 3, 2):
        sub = t2.elem((b, c))
        assert splice(t3, t2, sub, 1, (a,)) == t3.elem((a, b, c))


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
