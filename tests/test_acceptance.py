"""Acceptance gate: one check per shipped guarantee, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
pass; each criterion states its own tolerance (exact unless noted) and the
slow ones assert their runtime budget.
"""

import itertools
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import lattices_up_to, meet_quantale, meet_tables
from morita.census import CensusTask, run_census
from morita.engine import (InvolutiveWitness, MoritaContext,
                           MoritaPairWitness, build_context_from_pair,
                           build_involutive_context, check_morita_context,
                           check_pair_conditions, conditions_from_tables,
                           extract_pair_from_context,
                           involutive_conditions_from_tables)
from morita.enumeration import enumerate_lattices, find_isomorphism
from morita.errors import ContextInvalid, StarNotWellDefined
from morita.lattice import chain, diamond, validate_lattice
from morita.modules import Bimodule, ModuleAction
from morita.tensor import (Multimorphism, enumerate_multimorphisms,
                           is_multimorphism, lift_multimorphism,
                           tensor_product)
from oracles import (check_pair_conditions_full, enumerate_lattices_bruteforce,
                     enumerate_multimorphisms_bruteforce,
                     restrict_to_elementaries)
from test_tensor import brute_multi_ideals


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {desc}")
        raise
    print(f"ACCEPTANCE {num}: PASS - {desc}")


def rebuild_witness(rec):
    x = validate_lattice([[c == "1" for c in row] for row in rec.x_leq])
    y = validate_lattice([[c == "1" for c in row] for row in rec.y_leq])
    return MoritaPairWitness.from_generators(
        x, y, np.array(rec.p, dtype=np.int64), np.array(rec.q, dtype=np.int64))


def test_criterion_1_tensor_universal_property():
    with criterion(1, "universal property is a bijection for sizes <= 3"):
        start = time.perf_counter()
        lats = lattices_up_to(3)
        for x, y, z in itertools.product(lats, repeat=3):
            t = tensor_product(x, y)
            sup_maps = list(enumerate_multimorphisms((t.lattice,), z))
            bimorphisms = []
            for vals in itertools.product(range(z.n), repeat=x.n * y.n):
                f = Multimorphism((x, y), z,
                                  np.array(vals).reshape(x.n, y.n))
                if is_multimorphism(f):
                    bimorphisms.append(f)
            restricted = [restrict_to_elementaries(g, t) for g in sup_maps]
            # injective, surjective, and section of the lift
            assert len({f.values.tobytes() for f in restricted}) \
                == len(sup_maps)
            assert ({f.values.tobytes() for f in restricted}
                    == {f.values.tobytes() for f in bimorphisms})
            for g, f in zip(sup_maps, restricted):
                assert lift_multimorphism(f, t) == g
        assert time.perf_counter() - start < 60


def test_criterion_2_tensor_unit_and_sizes():
    with criterion(2, "2 (x) X ~ X for |X| <= 5; |2(x)2| = 2, |3(x)3| = 6"):
        for lat in lattices_up_to(5):
            t = tensor_product(chain(2), lat)
            assert find_isomorphism(t.lattice, lat) is not None
        for factors, expect in (((chain(2), chain(2)), 2),
                                ((chain(3), chain(3)), 6)):
            assert tensor_product(*factors).n == expect
            assert len(brute_multi_ideals(factors)) == expect


@pytest.fixture(scope="module")
def census_3():
    records, summary = run_census(CensusTask(max_x=3))
    return records, summary


def test_criterion_3_census_witnesses_build_valid_contexts(census_3):
    with criterion(3, "every census witness at sizes <= 3 builds a fully "
                      "checked context"):
        start = time.perf_counter()
        records, summary = census_3
        assert not summary["skipped"]
        assert records
        for rec in records:
            w = rebuild_witness(rec)
            assert check_pair_conditions(w).ok
            ctx = build_context_from_pair(w)
            rep = check_morita_context(ctx)
            assert rep.ok, rep.summary()
            for key in ("m-regular-A", "m-regular-B",
                        "m-regular-X", "m-regular-Y"):
                assert rep[key].ok
        assert time.perf_counter() - start < 600


def test_criterion_4_roundtrip_is_exact(census_3):
    with criterion(4, "extract(build(w)) returns w's tables exactly"):
        records, _ = census_3
        for rec in records:
            w = rebuild_witness(rec)
            back = extract_pair_from_context(build_context_from_pair(w))
            assert np.array_equal(back.p_gen, w.p_gen)
            assert np.array_equal(back.q_gen, w.q_gen)


def hand_built_contexts():
    """The trivial (2, meet) context plus perturbed copies, built directly
    from tables rather than through the pair pipeline."""
    lat = chain(2)
    q = meet_quantale(lat)
    act = ModuleAction("left", q, lat, lat.meet)
    ract = ModuleAction("right", q, lat, lat.meet)
    bim = Bimodule(act, ract)
    pairing = Multimorphism((lat, lat), lat, lat.meet)
    valid = MoritaContext(q, q, bim, bim, pairing, pairing)

    dead = Multimorphism((lat, lat), lat, np.zeros((2, 2), np.int64))
    no_surj = MoritaContext(q, q, bim, bim, dead, pairing)

    join_pair = Multimorphism((lat, lat), lat, lat.join)
    not_bimorph = MoritaContext(q, q, bim, bim, join_pair, pairing)

    top_act = ModuleAction("left", q, lat, np.ones((2, 2), np.int64))
    broken_module = MoritaContext(q, q, Bimodule(top_act, ract), bim,
                                  pairing, pairing)
    return valid, (no_surj, not_bimorph, broken_module)


def test_criterion_5_extraction_succeeds_exactly_on_valid_fixtures():
    with criterion(5, "hand-built fixtures: extraction succeeds exactly on "
                      "the valid contexts"):
        valid, invalid = hand_built_contexts()
        assert check_morita_context(valid).ok
        w = extract_pair_from_context(valid)
        assert check_pair_conditions(w).ok
        assert np.array_equal(w.p_gen, meet_tables(chain(2)))
        for ctx in invalid:
            assert not check_morita_context(ctx).ok
            with pytest.raises(ContextInvalid):
                extract_pair_from_context(ctx)


def test_criterion_6_involutive_equivalence():
    with criterion(6, "conditions a-c hold iff the derived pair passes 1-6; "
                      "stars always well-defined"):
        passing = 0
        for x in lattices_up_to(3):
            for p in enumerate_multimorphisms((x, x, x), x):
                one_sided = involutive_conditions_from_tables(x, p.values)
                q_t = np.ascontiguousarray(p.values.transpose(2, 1, 0))
                two_sided = conditions_from_tables(x, x, p.values, q_t)
                assert one_sided.ok == two_sided.ok
                if one_sided.ok:
                    w = InvolutiveWitness.from_generators(x, p.values)
                    try:
                        build_involutive_context(w)
                    except StarNotWellDefined as alarm:
                        raise AssertionError(
                            f"star collision on a passing p: {alarm}")
                    passing += 1
        assert passing >= 3  # at least the meet witness per size


def test_criterion_7_generator_checks_agree_with_full_domain():
    with criterion(7, "generator-level and full-domain checks agree whenever "
                      "tensors stay within 12 elements"):
        lats = lattices_up_to(3)
        checked = 0
        for x, y in itertools.product(lats, repeat=2):
            if (tensor_product(x, y, x).n > 12
                    or tensor_product(y, x, y).n > 12):
                continue
            ps = list(enumerate_multimorphisms((x, y, x), x))
            qs = list(enumerate_multimorphisms((y, x, y), y))
            for p, q in itertools.product(ps, qs):
                w = MoritaPairWitness.from_generators(
                    x, y, p.values, q.values)
                gen = check_pair_conditions(w)
                full = check_pair_conditions_full(w)
                assert gen.digest() == full.digest()
                checked += 1
        assert checked > 50


def test_criterion_8_enumeration_oracles():
    with criterion(8, "lattice counts 1,1,1,2,5,15 from two generators; "
                      "|Q(2)|=2, |Q(3)|=6, |Q(2x2)|=16 by brute force"):
        for n, expect in enumerate((1, 1, 1, 2, 5, 15), start=1):
            assert len(enumerate_lattices(n)) == expect
            assert len(enumerate_lattices_bruteforce(n)) == expect
        for lat, expect in ((chain(2), 2), (chain(3), 6), (diamond(), 16)):
            brute = enumerate_multimorphisms_bruteforce((lat,), lat)
            assert len(brute) == expect


def test_criterion_9_census_baseline(tmp_path):
    with criterion(9, "size-2 censuses find exactly the meet witness; "
                      "byte-identical across worker counts; < 5 s"):
        start = time.perf_counter()
        records, _ = run_census(CensusTask(max_x=2, min_x=2, min_y=2))
        assert len(records) == 1
        assert np.array_equal(np.array(records[0].p), meet_tables(chain(2)))
        assert np.array_equal(np.array(records[0].q), meet_tables(chain(2)))

        irecords, _ = run_census(CensusTask(max_x=2, min_x=2,
                                            involutive=True))
        assert len(irecords) == 1

        outs = []
        for jobs in (1, 3):
            path = tmp_path / f"c{jobs}.jsonl"
            run_census(CensusTask(max_x=2, jobs=jobs, out=str(path)))
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]
        assert time.perf_counter() - start < 5
