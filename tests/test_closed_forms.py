"""Closed-form witnesses: they pass the pair and involutive checks, and the
census finds each of their orbits."""

import numpy as np
import pytest

from conftest import lattices_up_to
from morita.census import CensusTask, run_census
from morita.engine import (InvolutiveWitness, MoritaPairWitness,
                           check_involutive_conditions, check_pair_conditions)
from morita.enumeration import (MAX_ENUM_N, automorphisms, canonical_key,
                                enumerate_lattices, find_isomorphism)
from morita.io import leq_rows
from morita.lattice import opposite
from oracles import (anti_automorphisms, dual_witness, frame_witness,
                     involutive_witness)


def _moved(table, slots, values):
    'The table with slot s renumbered by slots[s] and each value by values.'
    out = np.empty_like(table)
    out[np.ix_(*slots)] = np.asarray(values)[table]
    return out


def _pair_orbit(x, y, p, q):
    'The (p, q) tables that the automorphisms of X and Y move (p, q) to.'
    for ax in map(np.asarray, automorphisms(x)):
        for ay in map(np.asarray, automorphisms(y)):
            yield (_moved(p, (ax, ay, ax), ax).tobytes(),
                   _moved(q, (ay, ax, ay), ay).tobytes())


def _table(nested):
    return np.array(nested, dtype=np.int64).tobytes()


@pytest.fixture(scope="module")
def census_g3():
    records, _ = run_census(CensusTask(max_x=3))
    return {(r.x_leq, r.y_leq, _table(r.p), _table(r.q)) for r in records}


@pytest.fixture(scope="module")
def census_i3():
    records, _ = run_census(CensusTask(max_x=3, involutive=True))
    return {(r.x_leq, _table(r.p)) for r in records}


def test_the_dual_form_is_a_witness_on_every_lattice():
    lats = lattices_up_to(MAX_ENUM_N)
    assert len(lats) == 78
    for x in lats:
        w = MoritaPairWitness(x, opposite(x), *dual_witness(x))
        assert check_pair_conditions(w).ok, leq_rows(x)


def test_the_frame_form_is_a_witness_on_every_distributive_lattice():
    lats = [x for x in lattices_up_to(MAX_ENUM_N) if x.is_distributive()]
    assert len(lats) == 21
    for x in lats:
        assert check_pair_conditions(
            MoritaPairWitness(x, x, *frame_witness(x))).ok, leq_rows(x)


def test_the_involutive_form_passes_exactly_for_an_involution():
    self_dual = passing = deltas = 0
    for x in lattices_up_to(MAX_ENUM_N):
        found = anti_automorphisms(x)
        self_dual += bool(found)
        for delta in found:
            d = np.asarray(delta)
            assert sorted(delta) == list(range(x.n))
            assert np.array_equal(x.leq.T, x.leq[np.ix_(d, d)])
            w = InvolutiveWitness(x, involutive_witness(x, delta))
            involution = bool((d[d] == np.arange(x.n)).all())
            assert check_involutive_conditions(w).ok == involution
            deltas += 1
            passing += involution
    assert (self_dual, deltas, passing) == (28, 195, 79)


def test_the_general_census_contains_the_dual_and_frame_orbits(census_g3):
    for x in [lat for n in (1, 2, 3) for lat in enumerate_lattices(n)]:
        # the census's Y is the canonical form of the opposite of X
        y = next(l for l in enumerate_lattices(x.n)
                 if canonical_key(l) == canonical_key(opposite(x)))
        iso = np.asarray(find_isomorphism(opposite(x), y))
        ident = np.arange(x.n)
        p, q = dual_witness(x)
        forms = [(y, _moved(p, (ident, iso, ident), ident),
                  _moved(q, (iso, ident, iso), iso))]
        if x.is_distributive():
            forms.append((x, *frame_witness(x)))
        for y, p, q in forms:
            found = {(leq_rows(x), leq_rows(y), pb, qb)
                     for pb, qb in _pair_orbit(x, y, p, q)}
            assert found & census_g3, leq_rows(x)


def test_the_involutive_census_contains_each_involutive_orbit(census_i3):
    for x in [lat for n in (1, 2, 3) for lat in enumerate_lattices(n)]:
        for delta in anti_automorphisms(x):
            d = np.asarray(delta)
            if not (d[d] == np.arange(x.n)).all():
                continue
            p = involutive_witness(x, delta)
            found = {(leq_rows(x), _moved(p, (a, a, a), a).tobytes())
                     for a in map(np.asarray, automorphisms(x))}
            assert found & census_i3, leq_rows(x)
