"""Lattice enumeration up to isomorphism, canonical keys, automorphisms."""

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import lattices_up_to, renumbered
from morita.enumeration import (MAX_ENUM_N, _canonical_order, _refine_classes,
                                automorphisms, canonical_key,
                                enumerate_lattices, find_isomorphism)
from morita.errors import ResourceLimit
from morita.lattice import (chain, conjugate_lattice, diamond, m3, n5,
                            validate_lattice)
from oracles import enumerate_lattices_bruteforce, refine_classes_by_cells

# unlabeled lattice counts for n = 1..7 (OEIS A006966)
COUNTS = (1, 1, 1, 2, 5, 15, 53)

# sha256 of the concatenated order matrices that enumerate_lattices(n)
# returned for n = 1..7 when it was a bitmask backtracker
ORDER_SHA256 = (
    "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    "252c0b6b080fa045acfcd1437f693f3be2be2ac8223ea525d492fa19ab028942",
    "67bd219891fa4a5f395eec9ed593b4188188a4641f006c4560719d4847ce0ec7",
    "42fa49e6e94de9d532a4ae12254a9561631c786a6e3e6f5cfe478b51341e09fc",
    "c5d4648c453a0f9d1e3c3bb21f0c1e09a8450388aa9b30dfdb928f8bc4192279",
    "b9d0f5769b492c66a8eebdab51917152141a914ae03d144754efcdddff61378e",
    "699a95cb757cc19fccef1f882c9716d312a2ab85fc2148c3fbb7bbae7f1be943",
)


def test_lattice_counts_canonical_generator():
    for n, expect in enumerate(COUNTS, start=1):
        assert len(enumerate_lattices(n)) == expect


def test_enumerated_orders_are_pinned_byte_for_byte():
    for n, want in enumerate(ORDER_SHA256, start=1):
        got = b"".join(l.leq.tobytes() for l in enumerate_lattices(n))
        assert hashlib.sha256(got).hexdigest() == want, n


def test_deleting_an_atom_leaves_a_listed_lattice():
    # every lattice on n >= 3 elements is one on n - 1 elements plus an
    # atom, which is what the enumerator builds on
    for n in range(3, MAX_ENUM_N + 1):
        smaller = {canonical_key(l) for l in enumerate_lattices(n - 1)}
        for lat in enumerate_lattices(n):
            atoms = [a for a in range(lat.n) if lat.leq[:, a].sum() == 2]
            assert atoms and lat.top not in atoms
            for a in atoms:
                keep = [i for i in range(lat.n) if i != a]
                rest = validate_lattice(lat.leq[np.ix_(keep, keep)])
                assert canonical_key(rest) in smaller


def test_lattice_counts_bruteforce_generator_agrees():
    for n, expect in enumerate(COUNTS[:6], start=1):
        brute = enumerate_lattices_bruteforce(n)
        assert len(brute) == expect
        assert ({canonical_key(l) for l in brute}
                == {canonical_key(l) for l in enumerate_lattices(n)})


def test_enumerated_lattices_are_valid_and_distinct():
    for n in range(1, MAX_ENUM_N + 1):
        lats = enumerate_lattices(n)
        keys = {canonical_key(l) for l in lats}
        assert len(keys) == len(lats)
        for lat in lats:
            validate_lattice(lat.leq, lat.names)


def test_constructors_are_canonically_labelled():
    # canonical form orders elements bottom-up, matching the constructors
    for lat in (chain(2), chain(3), chain(4), diamond()):
        canon = next(l for l in enumerate_lattices(lat.n)
                     if canonical_key(l) == canonical_key(lat))
        assert np.array_equal(canon.leq, lat.leq)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_canonical_key_is_relabelling_invariant(data):
    lat = data.draw(st.sampled_from(lattices_up_to(5)))
    perm = data.draw(st.permutations(range(lat.n)))
    perm = np.array(perm)
    shuffled = lat.leq[np.ix_(perm, perm)]
    assert canonical_key(shuffled) == canonical_key(lat)


def test_automorphism_counts():
    assert len(automorphisms(chain(4))) == 1
    assert len(automorphisms(diamond())) == 2
    assert len(automorphisms(m3())) == 6
    assert len(automorphisms(n5())) == 1


def test_automorphisms_preserve_order():
    for lat in (diamond(), m3(), n5()):
        for g in automorphisms(lat):
            g = np.array(g)
            assert np.array_equal(lat.leq[np.ix_(g, g)], lat.leq)


def test_find_isomorphism_on_shuffled_copy():
    lat = n5()
    perm = np.array([3, 0, 4, 1, 2])
    shuffled = validate_lattice(lat.leq[np.ix_(perm, perm)])
    iso = find_isomorphism(lat, shuffled)
    assert iso is not None
    iso = np.array(iso)
    assert np.array_equal(lat.leq, shuffled.leq[np.ix_(iso, iso)])


def test_find_isomorphism_rejects_distinct_lattices():
    assert find_isomorphism(diamond(), chain(4)) is None
    assert find_isomorphism(m3(), n5()) is None


def test_enumerate_lattices_size_cap():
    with pytest.raises(ResourceLimit):
        enumerate_lattices(MAX_ENUM_N + 1)


def test_automorphisms_match_every_order_preserving_permutation():
    for lat in lattices_up_to(6):
        brute = {p for p in itertools.permutations(range(lat.n))
                 if np.array_equal(lat.leq[np.ix_(p, p)], lat.leq)}
        found = automorphisms(lat)
        assert len(found) == len(set(found)) == len(brute)
        assert set(found) == brute
        assert found[0] == tuple(range(lat.n))


def test_find_isomorphism_maps_relabelled_copies():
    rng = np.random.default_rng(4)
    lats = lattices_up_to(6)
    for lat in lats:
        for _ in range(5):
            perm = rng.permutation(lat.n)
            copy = validate_lattice(lat.leq[np.ix_(perm, perm)])
            iso = np.array(find_isomorphism(lat, copy))
            assert np.array_equal(lat.leq, copy.leq[np.ix_(iso, iso)])
    for a, b in itertools.combinations(lats, 2):
        assert find_isomorphism(a, b) is None


def test_invariant_classes_match_the_cell_by_cell_refinement():
    rng = np.random.default_rng(19)
    matrices = []
    for lat in lattices_up_to(6):
        for _ in range(5):
            perm = rng.permutation(lat.n)
            matrices.append(lat.leq[np.ix_(perm, perm)])
    # reflexive relations that are no orders: the refinement reads cells
    for _ in range(300):
        n = int(rng.integers(1, 8))
        density = rng.random()
        matrices.append((rng.random((n, n)) < density) | np.eye(n, dtype=bool))
    for leq in matrices:
        assert _refine_classes(leq) == refine_classes_by_cells(leq)


def test_the_canonical_order_is_kept_and_shared_by_relabelled_copies():
    rng = np.random.default_rng(20)
    for lat in lattices_up_to(5):
        copy = renumbered(lat, rng.permutation(lat.n))
        order = _canonical_order(copy)
        p = list(order)
        assert copy.leq[p][:, p].tobytes() == canonical_key(copy)
        assert _canonical_order(copy) is order
        assert _canonical_order(conjugate_lattice(copy)) is order
        # a canonical form is its own canonical order
        assert _canonical_order(lat) == tuple(range(lat.n))
