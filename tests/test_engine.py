"""Pair witnesses, contexts, the build/extract equivalence, involutive layer."""

import numpy as np
import pytest

from conftest import meet_tables
from morita.engine import (ImprimitivityBimodule, InvolutiveWitness,
                           MoritaContext, MoritaPairWitness, as_pair_witness,
                           build_context_from_pair, build_involutive_context,
                           check_imprimitivity, check_involutive_conditions,
                           check_involutive_conditions_full,
                           check_morita_context, check_pair_conditions,
                           check_pair_conditions_full, conditions_from_tables,
                           derive_q_from_p, extract_pair_from_context,
                           involutive_conditions_from_tables)
from morita.errors import (ConditionsFailed, ContextInvalid, DomainMismatch,
                           NotAMultimorphism)
from morita.lattice import chain, diamond, m3
from morita.quantale import OperatorQuantale
from morita.tensor import Multimorphism, as_multimorphism


def meet_witness(lat):
    t = meet_tables(lat)
    return MoritaPairWitness.from_generators(lat, lat, t, t)


def candidate_23():
    """A (2-chain, 3-chain) candidate that fails exactly condition 2."""
    x2, y3 = chain(2), chain(3)
    i = np.arange(2).reshape(2, 1, 1)
    j = np.arange(3).reshape(1, 3, 1)
    k = np.arange(2).reshape(1, 1, 2)
    p = (i & k) * (j > 0)
    j1 = np.arange(3).reshape(3, 1, 1)
    x = np.arange(2).reshape(1, 2, 1)
    j2 = np.arange(3).reshape(1, 1, 3)
    q = np.minimum(j1, j2) * (x > 0)
    return MoritaPairWitness.from_generators(x2, y3, p, q)


def test_meet_witness_passes_all_conditions():
    for lat in (chain(2), chain(3), diamond()):
        w = meet_witness(lat)
        rep = check_pair_conditions(w)
        assert rep.ok, rep.summary()
        assert set(rep.checks) == {
            "p-surjective", "q-surjective", "condition-1", "condition-2",
            "condition-3", "condition-4", "condition-5", "condition-6"}


def test_generator_check_equals_table_check():
    w = meet_witness(chain(3))
    direct = conditions_from_tables(w.x, w.y, w.p_gen, w.q_gen)
    assert direct.digest() == check_pair_conditions(w).digest()


def test_full_domain_agreement_on_small_witnesses():
    for w in (meet_witness(chain(2)), candidate_23()):
        gen = check_pair_conditions(w)
        full = check_pair_conditions_full(w)
        assert gen.digest() == full.digest()


def test_candidate_23_fails_exactly_condition_2():
    rep = check_pair_conditions(candidate_23())
    assert [v.law for v in rep.failures()] == ["condition-2"]


def test_zero_q_fails_surjectivity_and_build_refuses():
    x2 = chain(2)
    w = MoritaPairWitness.from_generators(
        x2, x2, meet_tables(x2), np.zeros((2, 2, 2), dtype=np.int64))
    rep = check_pair_conditions(w)
    assert not rep.ok and not rep["q-surjective"].ok
    assert rep.digest() == check_pair_conditions_full(w).digest()
    with pytest.raises(ConditionsFailed) as exc:
        build_context_from_pair(w)
    assert not exc.value.report.ok


def test_witness_rejects_non_multimorphism_tables():
    lat = m3()
    with pytest.raises(NotAMultimorphism):
        MoritaPairWitness.from_generators(lat, lat, meet_tables(lat),
                                          meet_tables(lat))


def test_build_context_and_laws():
    for lat in (chain(2), chain(3), diamond()):
        w = meet_witness(lat)
        ctx = build_context_from_pair(w)
        assert isinstance(ctx.a, OperatorQuantale)
        assert isinstance(ctx.b, OperatorQuantale)
        rep = check_morita_context(ctx)
        assert rep.ok, rep.summary()
        for key in ("m-regular-A", "m-regular-B", "m-regular-X",
                    "m-regular-Y", "linking-X", "linking-Y",
                    "balance-XY", "balance-YX"):
            assert rep[key].ok


def test_roundtrip_reproduces_tables_exactly():
    for lat in (chain(2), chain(3), diamond()):
        w = meet_witness(lat)
        ctx = build_context_from_pair(w)
        back = extract_pair_from_context(ctx)
        assert np.array_equal(back.p_gen, w.p_gen)
        assert np.array_equal(back.q_gen, w.q_gen)


def test_extraction_reuses_the_context_tensors():
    w = meet_witness(chain(3))
    ctx = build_context_from_pair(w)
    assert ctx.txyx is w.txyx and ctx.tyxy is w.tyxy
    back = extract_pair_from_context(ctx)
    assert back.txyx is w.txyx and back.tyxy is w.tyxy
    bare = MoritaContext(ctx.a, ctx.b, ctx.x, ctx.y, ctx.pair_xy, ctx.pair_yx)
    rebuilt = extract_pair_from_context(bare)
    assert rebuilt.txyx is not w.txyx and rebuilt == back


def test_witness_equality_and_hash():
    a, b = meet_witness(chain(3)), meet_witness(chain(3))
    assert a == b and hash(a) == hash(b)
    assert a != candidate_23()


def test_context_wiring_validated():
    ctx2 = build_context_from_pair(meet_witness(chain(2)))
    ctx3 = build_context_from_pair(meet_witness(chain(3)))
    with pytest.raises(DomainMismatch):
        MoritaContext(ctx2.a, ctx2.b, ctx2.x, ctx2.y,
                      ctx3.pair_xy, ctx2.pair_yx)
    with pytest.raises(DomainMismatch):
        MoritaContext(ctx3.a, ctx2.b, ctx2.x, ctx2.y,
                      ctx2.pair_xy, ctx2.pair_yx)


def test_extract_refuses_invalid_context():
    ctx = build_context_from_pair(meet_witness(chain(2)))
    dead = Multimorphism((ctx.x.carrier, ctx.y.carrier), ctx.a.carrier,
                         np.zeros((2, 2), dtype=np.int64))
    broken = MoritaContext(ctx.a, ctx.b, ctx.x, ctx.y, dead, ctx.pair_yx)
    rep = check_morita_context(broken)
    assert not rep.ok
    with pytest.raises(ContextInvalid):
        extract_pair_from_context(broken)
    # the intact context still extracts
    assert extract_pair_from_context(ctx)


def test_involutive_meet_witnesses():
    for lat in (chain(2), chain(3), diamond()):
        w = InvolutiveWitness.from_generators(lat, meet_tables(lat))
        rep = check_involutive_conditions(w)
        assert rep.ok, rep.summary()
        assert set(rep.checks) == {"p-surjective", "condition-a",
                                   "condition-b", "condition-c"}


def test_involutive_full_domain_agreement():
    w = InvolutiveWitness.from_generators(chain(2), meet_tables(chain(2)))
    assert (check_involutive_conditions(w).digest()
            == check_involutive_conditions_full(w).digest())


def test_involutive_conditions_from_tables_entry_point():
    lat = chain(3)
    rep = involutive_conditions_from_tables(lat, meet_tables(lat))
    assert rep.ok


def test_derived_q_is_the_argument_transpose():
    w = InvolutiveWitness.from_generators(chain(3), meet_tables(chain(3)))
    pair = as_pair_witness(w)
    assert np.array_equal(pair.p_gen, w.p_gen)
    assert np.array_equal(pair.q_gen, w.p_gen.transpose(2, 1, 0))
    assert check_pair_conditions(pair).ok
    # the standalone derivation lifts the same table
    q = derive_q_from_p(w)
    assert tuple(q.values) == tuple(pair.q.values)


def test_involutive_context_and_imprimitivity():
    for lat in (chain(2), chain(3), diamond()):
        w = InvolutiveWitness.from_generators(lat, meet_tables(lat))
        ctx, (ia, ib), imp = build_involutive_context(w)
        assert check_morita_context(ctx).ok
        assert isinstance(imp, ImprimitivityBimodule)
        rep = check_imprimitivity(imp)
        assert rep.ok, rep.summary()
        for key in ("involution-A", "involution-B", "compatibility",
                    "fullness-A", "fullness-B", "conjugate-compatibility"):
            assert rep[key].ok
        # stars are involutions of the built operator quantales
        assert sorted(ia.star) == list(range(ctx.a.n))
        assert sorted(ib.star) == list(range(ctx.b.n))


def test_star_profile_over_all_three_chain_witnesses():
    # every surjective trimorphism on the 3-chain satisfying a)-c) builds;
    # the operator quantale is either the 3-element meet image with the
    # identity star or all six endomorphisms with the swap star
    from morita.census import enumerate_trimorphisms
    x = chain(3)
    profiles = set()
    for p in enumerate_trimorphisms(x, x, x, x):
        if not involutive_conditions_from_tables(x, p.values).ok:
            continue
        w = InvolutiveWitness.from_generators(x, p.values)
        ctx, (ia, ib), imp = build_involutive_context(w)
        assert check_imprimitivity(imp).ok
        profiles.add((ctx.a.n, ia.star))
    assert (3, (0, 1, 2)) in profiles
    assert (6, (0, 1, 3, 2, 4, 5)) in profiles


def test_imprimitivity_shape_validation():
    w = InvolutiveWitness.from_generators(chain(2), meet_tables(chain(2)))
    _, (ia, ib), imp = build_involutive_context(w)
    three = chain(3)
    bad_inner = Multimorphism((three, three), three,
                              np.zeros((3, 3), dtype=np.int64))
    with pytest.raises(DomainMismatch):
        ImprimitivityBimodule(ia, ib, imp.bimodule, bad_inner, imp.inner_b)
