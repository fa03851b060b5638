"""Order axioms, join/meet tables, irreducibles, and sup-map enumeration."""

import itertools
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import lattices_up_to, shuffled
from morita.enumeration import find_isomorphism
from morita.errors import (DomainMismatch, MissingJoin, MoritaError,
                           NoBottom, NotAMultimorphism, NotAPartialOrder,
                           ShapeMismatch)
from morita.lattice import (FiniteSupLattice, chain, conjugate_lattice,
                            diamond, join_closure, m3, n5, opposite,
                            validate_lattice)
from morita.modules import ModuleAction
from morita.quantale import Quantale, endo_quantale
from morita.tensor import (Multimorphism, as_multimorphism,
                           enumerate_multimorphisms, is_multimorphism,
                           tensor_product)
from oracles import (enumerate_multimorphisms_bruteforce, is_distributive,
                     join_irreducibles_by_joins)


def test_chain_tables_are_min_max():
    lat = chain(4)
    for i, j in itertools.product(range(4), repeat=2):
        assert lat.join[i, j] == max(i, j)
        assert lat.meet[i, j] == min(i, j)
    assert lat.bottom == 0 and lat.top == 3


def test_constructor_shapes():
    assert chain(1).n == 1 and chain(1).bottom == chain(1).top
    assert diamond().n == 4 and m3().n == 5 and n5().n == 5
    # counts of join-irreducibles: chains have n-1, diamond and m3 their atoms
    assert len(chain(5).join_irreducibles()) == 4
    assert len(diamond().join_irreducibles()) == 2
    assert len(m3().join_irreducibles()) == 3
    assert len(n5().join_irreducibles()) == 3


def test_m3_is_not_distributive():
    lat = m3()
    a, b, c = lat.join_irreducibles()
    lhs = lat.meet[a, lat.join[b, c]]
    rhs = lat.join[lat.meet[a, b], lat.meet[a, c]]
    assert lhs != rhs


def distributive_by_loops(lat):
    'x v (y ^ z) = (x v y) ^ (x v z), one triple at a time.'
    j, m = lat.join, lat.meet
    return all(j[x, m[y, z]] == m[j[x, y], j[x, z]]
               for x, y, z in itertools.product(range(lat.n), repeat=3))


def test_only_m3_and_n5_are_non_distributive_up_to_size_five():
    for lat in lattices_up_to(6):
        assert is_distributive(lat) == distributive_by_loops(lat)
    bad = [lat for lat in lattices_up_to(5) if not is_distributive(lat)]
    assert len(bad) == 2
    for known in (m3(), n5()):
        assert any(find_isomorphism(lat, known) is not None for lat in bad)


def test_distributivity_is_checked_in_blocks_of_rows():
    # past 256 elements a block is one row; M3 on top of a chain fails only
    # in the rows of its atoms, the last blocks
    n = 260
    assert is_distributive(chain(n))
    leq = np.zeros((n, n), dtype=bool)
    leq[:n - 4, :n - 4] = np.tri(n - 4, dtype=bool).T
    leq[:n - 4, n - 4:] = True
    leq[np.arange(n - 4, n), np.arange(n - 4, n)] = True
    leq[n - 4:, n - 1] = True
    assert not is_distributive(validate_lattice(leq))


def test_every_element_is_join_of_irreducibles_below():
    for lat in lattices_up_to(5):
        irr = lat.join_irreducibles()
        for x in range(lat.n):
            assert lat.join_of(j for j in irr if lat.leq[j, x]) == x


def test_join_irreducibles_topologically_sorted():
    for lat in lattices_up_to(5):
        irr = lat.join_irreducibles()
        for i, j in itertools.combinations(range(len(irr)), 2):
            assert not lat.leq[irr[j], irr[i]] or irr[i] == irr[j]


def test_validate_rejects_non_reflexive():
    with pytest.raises(NotAPartialOrder):
        validate_lattice(np.zeros((2, 2), dtype=bool))


def test_validate_rejects_non_antisymmetric():
    leq = np.ones((2, 2), dtype=bool)
    with pytest.raises(NotAPartialOrder):
        validate_lattice(leq)


def test_validate_rejects_non_transitive():
    leq = np.eye(3, dtype=bool)
    leq[0, 1] = leq[1, 2] = True
    with pytest.raises(NotAPartialOrder):
        validate_lattice(leq)


def test_validate_rejects_two_minimal_elements():
    leq = np.eye(3, dtype=bool)
    leq[0, 2] = leq[1, 2] = True
    with pytest.raises(NoBottom):
        validate_lattice(leq)


def test_validate_rejects_missing_join():
    # bottom 0, atoms 1 and 2, two minimal upper bounds 3 and 4, top 5:
    # {1, 2} has upper bounds {3, 4, 5} with no least one
    leq = np.eye(6, dtype=bool)
    leq[0, :] = True
    leq[:, 5] = True
    for a, u in ((1, 3), (1, 4), (2, 3), (2, 4)):
        leq[a, u] = True
    with pytest.raises(MissingJoin):
        validate_lattice(leq)


def test_validate_name_count_mismatch():
    with pytest.raises(DomainMismatch):
        validate_lattice(np.eye(1, dtype=bool), names=["a", "b"])


def test_join_of_empty_is_bottom():
    lat = diamond()
    assert lat.join_of([]) == lat.bottom


def test_join_closure_diamond():
    lat = diamond()
    a, b = lat.join_irreducibles()
    closed = join_closure(lat, {a, b})
    assert set(closed) == {lat.bottom, a, b, lat.top}
    assert join_closure(lat, set()) == (lat.bottom,)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_lattice_equations_hold(data):
    lat = data.draw(st.sampled_from(lattices_up_to(5)))
    i, j, k = (data.draw(st.integers(0, lat.n - 1)) for _ in range(3))
    jn, mt = lat.join, lat.meet
    assert jn[i, j] == jn[j, i] and mt[i, j] == mt[j, i]
    assert jn[i, jn[j, k]] == jn[jn[i, j], k]
    assert mt[i, mt[j, k]] == mt[mt[i, j], k]
    assert jn[i, mt[i, j]] == i and mt[i, jn[i, j]] == i
    assert lat.leq[i, j] == (jn[i, j] == j)


def test_sup_map_rejects_join_breaker():
    # atoms map to 0 but their join maps to 1
    lat = diamond()
    values = [0] * 4
    values[lat.top] = 1
    v = is_multimorphism(Multimorphism((lat,), chain(2), values))
    assert not v.ok
    assert v.law == "slot-0-joins"
    with pytest.raises(NotAMultimorphism):
        as_multimorphism((lat,), chain(2), values)


def test_sup_map_rejects_bottom_breaker():
    with pytest.raises(NotAMultimorphism):
        as_multimorphism((chain(2),), chain(2), [1, 1])


def test_enumerate_sup_maps_matches_bruteforce():
    cases = [(chain(2), chain(3)), (chain(3), chain(3)),
             (diamond(), chain(2)), (m3(), diamond()), (m3(), m3()),
             (n5(), n5())]
    for x, y in cases:
        fast = {tuple(f.values.tolist())
                for f in enumerate_multimorphisms((x,), y)}
        brute = {tuple(f.values.tolist())
                 for f in enumerate_multimorphisms_bruteforce((x,), y)}
        assert fast == brute


def test_endomorphism_counts():
    expected = {2: 2, 3: 6}
    for n, count in expected.items():
        lat = chain(n)
        assert sum(1 for _ in enumerate_multimorphisms((lat,), lat)) == count
    d = diamond()
    assert sum(1 for _ in enumerate_multimorphisms((d,), d)) == 16


def test_conjugate_lattice_keeps_order_and_stars_names():
    for lat in (chain(3), diamond(), n5()):
        conj = conjugate_lattice(lat)
        assert np.array_equal(conj.leq, lat.leq)
        assert all(c != p for c, p in zip(conj.names, lat.names))
        assert all(c.endswith("*") or p.endswith("*")
                   for c, p in zip(conj.names, lat.names))


def test_opposite_matches_validating_the_transpose():
    lats = lattices_up_to(6)
    assert len(lats) == 25
    for lat in lats:
        op, want = opposite(lat), validate_lattice(lat.leq.T)
        assert np.array_equal(op.leq, want.leq)
        assert np.array_equal(op.join, want.join)
        assert np.array_equal(op.meet, want.meet)
        assert (op.bottom, op.top) == (want.bottom, want.top)
        assert op == want and hash(op) == hash(want)


def test_tables_are_built_on_first_read_and_shared():
    want = diamond()
    lat = FiniteSupLattice(4, want.names, want.leq.copy(), None, None, 0, 3)
    op, named = opposite(lat), lat.relabel(("o", "p", "q", "r"))
    starred = conjugate_lattice(named)
    assert lat._order.join is None and lat._order.meet is None
    assert np.array_equal(lat.join, want.join)
    assert np.array_equal(lat.meet, want.meet)
    assert not lat.join.flags.writeable and not lat.meet.flags.writeable
    # copies made before the first read get the very same tables, the
    # irreducibles and the key; the opposite, made before, has its own order
    for copy in (named, starred):
        assert copy.join is lat.join and copy.meet is lat.meet
        assert copy.join_irreducibles() is lat.join_irreducibles()
        assert copy._order_key() is lat._order_key()
    assert op._order.join is None and op._order.meet is None
    assert opposite(lat).join is lat.meet and opposite(lat).meet is lat.join
    assert named.relabel(lat.names).leq is lat.leq
    # a bottom or top not given is read off a given order, each on its own;
    # an order given as ideals is not built for it
    for known in lattices_up_to(5):
        n, names = known.n, known.names
        for bounds in ((None, None), (known.bottom, None), (None, known.top)):
            same = FiniteSupLattice(n, names, known.leq, None, None, *bounds)
            assert (same.bottom, same.top) == (known.bottom, known.top)
            with pytest.raises(MoritaError, match="no leq to read"):
                FiniteSupLattice(n, names, None, None, None, *bounds,
                                 ideals=np.eye(n, dtype=bool))


def test_a_renamed_lattice_keeps_what_was_computed(monkeypatch):
    # irreducibles pass on with the tables, so a renamed or conjugate copy
    # answers without building its meet table
    lats = lattices_up_to(5)
    for lat in lats:
        lat.join_irreducibles()
    def refuse(self, up, what):
        raise AssertionError(f"{what} table built again")
    monkeypatch.setattr(FiniteSupLattice, "_bounds", refuse)
    for lat in lats:
        fresh = (lat.relabel([f"u{i}" for i in range(lat.n)]),
                 conjugate_lattice(lat))
        for copy in fresh:
            assert copy == lat and copy._order is lat._order
            assert copy._order.irr is lat._order.irr
            assert copy.join_irreducibles() == lat.join_irreducibles()
    monkeypatch.undo()
    for lat in lats:
        want = validate_lattice(lat.leq, [f"u{i}" for i in range(lat.n)])
        assert lat.join_irreducibles() == want.join_irreducibles()


def test_a_pickled_lattice_is_read_only_and_hashes_in_its_interpreter():
    # census workers get their lattices pickled; a spawned worker salts
    # bytes hashes afresh, so a hash made before pickling must not travel
    lat = diamond()
    hash(lat), lat.join_irreducibles(), lat.meet
    blob = pickle.dumps(lat)
    back = pickle.loads(blob)
    assert back == lat and back.names == lat.names and back._order.hash is None
    assert back.join_irreducibles() == lat.join_irreducibles()
    for table in (back.leq, back.join, back.meet):
        assert not table.flags.writeable
    script = ("import pickle, sys\n"
              "from morita.lattice import diamond\n"
              "back = pickle.loads(sys.stdin.buffer.read())\n"
              "print(hash(back) == hash(diamond()), len({back, diamond()}))\n")
    env = dict(os.environ, PYTHONHASHSEED="1",
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", script], input=blob,
                         capture_output=True, env=env, check=True)
    assert out.stdout.split() == [b"True", b"1"]


def test_lattices_compare_and_hash_by_order_alone():
    # the key is made on first use, by a comparison or a hash
    t = tensor_product(chain(2), diamond()).lattice
    assert t._order.key is None
    named = validate_lattice(t.leq, [f"u{i}" for i in range(t.n)])
    assert t == named and hash(t) == hash(named) and t.names != named.names
    assert t._order.key == t.leq.tobytes()
    lats = lattices_up_to(5)
    for a, b in itertools.product(lats, repeat=2):
        assert (a == b) == (a is b) == (a.leq.tobytes() == b.leq.tobytes())
    for lat in lats:
        same = FiniteSupLattice(lat.n, lat.names, lat.leq.copy(), None, None,
                                lat.bottom, lat.top)
        assert same == lat and hash(same) == hash(lat)
        # an order is its own transpose only on one element
        assert (same == opposite(lat)) == (lat.n == 1)
    # a relabel builds nothing: the copy holds its source's order, and the
    # key that either makes later is the other's
    fresh = tensor_product(chain(2), chain(2)).lattice
    copy = fresh.relabel([f"e{i}" for i in range(fresh.n)])
    order = fresh._order
    assert copy._order is order
    assert all(v is None for v in (order.leq, order.join, order.meet,
                                   order.key, order.hash, order.irr,
                                   order.canonical))
    assert hash(copy) == hash(fresh) and copy == fresh
    assert copy._order_key() is fresh._order_key() is order.key


def test_join_irreducibles_agree_with_the_join_loop():
    # the same tuple in the same order: the down-set lookup against the
    # loop of joins over the elements strictly below
    rng = np.random.default_rng(20)
    stock = (chain(3), diamond(), m3(), n5())
    lats = lattices_up_to(6)
    lats += [shuffled(lat, rng) for lat in lats]
    lats += [tensor_product(a, b).lattice
             for a, b in itertools.product(stock, repeat=2)]
    lats += [endo_quantale(lat).carrier for lat in stock]
    for lat in lats:
        assert lat.join_irreducibles() == join_irreducibles_by_joins(lat)


def test_missing_bound_raises_on_first_read():
    # two maximal elements over a bottom: no join, and no top
    leq = np.array([[1, 1, 1], [0, 1, 0], [0, 0, 1]], dtype=bool)
    lat = FiniteSupLattice(3, ("0", "a", "b"), leq, None, None, 0, 2)
    with pytest.raises(MoritaError, match="internal: a and b have no join"):
        lat.join
    assert lat.meet[1, 2] == 0


def test_ideal_rows_must_come_in_size_order():
    # the upper-triangular write of a lattice of sets needs no row contained
    # in an earlier one, so rows whose sizes decrease are refused
    rows = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 1]], dtype=bool)
    names = ("0", "a", "b", "1")
    lat = FiniteSupLattice(4, names, None, None, None, 0, 3, ideals=rows)
    assert lat.leq[1:3, 1:3].tolist() == [[True, False], [False, True]]
    with pytest.raises(MoritaError, match="internal: ideal rows"):
        FiniteSupLattice(4, names, None, None, None, 0, 3,
                         ideals=rows[[0, 3, 1, 2]])


@pytest.mark.parametrize("make, attr", [
    (lambda lat, t: Multimorphism((lat, lat), lat, t), "values"),
    (lambda lat, t: Quantale(lat, t), "mult"),
    (lambda lat, t: ModuleAction("left", Quantale(lat, lat.meet), lat, t),
     "act")])
def test_table_constructors_check_shape_and_range(make, attr):
    lat = chain(3)
    table = getattr(make(lat, lat.meet), attr)
    assert np.array_equal(table, lat.meet) and not table.flags.writeable
    with pytest.raises(ShapeMismatch):
        make(lat, lat.meet[:2])
    for value in (-1, lat.n):
        bad = lat.meet.copy()
        bad[1, 2] = value
        with pytest.raises(DomainMismatch):
            make(lat, bad)
