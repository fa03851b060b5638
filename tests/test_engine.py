"""Pair witnesses, contexts, the build/extract equivalence, involutive layer."""

from collections import Counter

import numpy as np
import pytest

from conftest import lattices_up_to, meet_tables
from morita import engine
from morita.census import (CensusTask, _lat_from_rows,
                           enumerate_trimorphisms, run_census)
from morita.engine import (ImprimitivityBimodule, InvolutiveWitness,
                           MoritaContext, MoritaPairWitness, as_pair_witness,
                           build_context_from_pair, build_involutive_context,
                           check_imprimitivity, check_involutive_conditions,
                           check_morita_context, check_pair_conditions,
                           conditions_from_tables, extract_pair_from_context,
                           involutive_conditions_from_tables,
                           _curried_from_generators, _distinct_slices,
                           _one_sided, _surjective_by_generators)
from morita.errors import (PASS, ConditionReport, ConditionsFailed,
                           ContextInvalid, DomainMismatch, MoritaError,
                           NotAMultimorphism, failure)
from morita.lattice import chain, conjugate_lattice, diamond, join_closure, m3
from morita.quantale import OperatorQuantale
from morita.tensor import Multimorphism, tensor_product
import oracles
from oracles import (_chain_axes, _curried, check_involutive_conditions_full,
                     check_pair_conditions_full)
from test_tensor import lift_by_join_of


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


@pytest.fixture
def built(monkeypatch):
    """The verdict builds of failing pair and involutive reports, in order,
    as "pair" or "involutive"."""
    calls = []
    for name, kind in (("_pair_verdicts", "pair"),
                       ("_involutive_verdicts", "involutive")):
        def counting(*args, _build=getattr(engine, name), _kind=kind):
            calls.append(_kind)
            return _build(*args)
        monkeypatch.setattr(engine, name, counting)
    return calls


def decided_then_named(rep, ref, built):
    """Reads the outcome of ``rep`` before any verdict, which builds no names,
    then its verdicts: they agree with that outcome and read as ``ref``."""
    before = len(built)
    ok = rep.ok
    assert len(built) == before
    assert rep.summary() == ref.summary()
    assert ok == all(v.ok for v in rep.checks.values()) == ref.ok
    assert len(built) == before + (not ok)


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
    with pytest.raises(NotAMultimorphism):
        InvolutiveWitness.from_generators(lat, meet_tables(lat))


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


def test_extraction_builds_no_tensor(monkeypatch):
    w = meet_witness(chain(3))
    ctx = build_context_from_pair(w)
    bare = MoritaContext(ctx.a, ctx.b, ctx.x, ctx.y, ctx.pair_xy, ctx.pair_yx)

    def refuse(*factors, **kwargs):
        raise AssertionError("extraction built a tensor")

    monkeypatch.setattr("morita.engine.tensor_product", refuse)
    assert extract_pair_from_context(ctx) == w
    assert extract_pair_from_context(bare) == w


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
    checked = 0
    for x in lattices_up_to(2):
        for f in enumerate_trimorphisms(x, x, x, x):
            w = InvolutiveWitness.from_generators(x, f.values)
            assert (check_involutive_conditions(w).digest()
                    == check_involutive_conditions_full(w).digest())
            checked += 1
    assert checked == 3


def five_axis_involutive_conditions(x, p_gen):
    """Conditions a)-c) written out directly on five axes x1..x5.

    Reference for the engine, which derives them from conditions 1, 3 and 4
    of the pair (X, X*, p, p^T)."""
    p = np.asarray(p_gen, dtype=np.int64)
    n = x.n
    rep = ConditionReport()
    rep.add("p-surjective", _surjective_by_generators(x, p, "p"))
    x1 = np.arange(n).reshape(n, 1, 1, 1, 1)
    x2 = np.arange(n).reshape(1, n, 1, 1, 1)
    x3 = np.arange(n).reshape(1, 1, n, 1, 1)
    x4 = np.arange(n).reshape(1, 1, 1, n, 1)
    x5 = np.arange(n).reshape(1, 1, 1, 1, n)
    left = p[p[x1, x2, x3], x4, x5]
    mid = p[x1, p[x4, x3, x2], x5]
    right = p[x1, x2, p[x3, x4, x5]]
    bad = np.argwhere((left != mid) | (left != right))
    if len(bad):
        idx = tuple(map(int, bad[0]))
        rep.add("condition-a", failure(
            "condition-a", tuple(x.names[i] for i in idx),
            f"nested values {x.names[left[idx]]} / {x.names[mid[idx]]} / "
            f"{x.names[right[idx]]}"))
    else:
        rep.add("condition-a", PASS)
    for label, axis in (("condition-b", 2), ("condition-c", 0)):
        seen, verdict = {}, PASS
        for v in range(n):
            key = np.take(p, v, axis=axis).tobytes()
            if key in seen:
                verdict = failure(label, (x.names[seen[key]], x.names[v]),
                                  "distinct elements induce identical "
                                  "curried maps")
                break
            seen[key] = v
        rep.add(label, verdict)
    return rep


def test_involutive_conditions_match_the_five_axis_reference(built):
    checked = failing = 0
    for x in lattices_up_to(3):
        for f in enumerate_trimorphisms(x, x, x, x):
            new = involutive_conditions_from_tables(x, f.values)
            old = five_axis_involutive_conditions(x, f.values)
            decided_then_named(new, old, built)
            assert new.digest() == old.digest()
            checked += 1
            failing += not old.ok
    assert (checked, failing) == (171, 164)
    assert built == ["involutive"] * 164


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


def test_as_pair_witness_builds_no_tensor(monkeypatch):
    w = InvolutiveWitness.from_generators(chain(3), meet_tables(chain(3)))

    def refuse(*factors, **kwargs):
        raise AssertionError("as_pair_witness built a tensor")

    monkeypatch.setattr("morita.engine.tensor_product", refuse)
    pair = as_pair_witness(w)
    assert (pair.x, pair.y) == (w.x, w.xstar)
    assert np.array_equal(pair.q_gen, w.p_gen.transpose(2, 1, 0))


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


def _curried_shapes(x, y, p_gen, q_gen):
    """The four (part, pos) shapes of the curried tables, each with its
    generator-lift table and its splice reference table; the reference
    lifts p and q onto the three-fold tensors by the per-element join
    loop."""
    t_xy, t_yx = tensor_product(x, y), tensor_product(y, x)
    txyx, tyxy = tensor_product(x, y, x), tensor_product(y, x, y)
    p = np.asarray(lift_by_join_of(Multimorphism((x, y, x), x, p_gen), txyx))
    q = np.asarray(lift_by_join_of(Multimorphism((y, x, y), y, q_gen), tyxy))
    for big, part, pos, gen, lat, values in (
            (txyx, t_xy, 0, p_gen, x, p), (txyx, t_yx, 1, p_gen, x, p),
            (tyxy, t_yx, 0, q_gen, y, q), (tyxy, t_xy, 1, q_gen, y, q)):
        yield (_curried_from_generators(part, pos, gen, lat),
               _curried(big, part, pos, lat, values))


def test_curried_tables_from_generators_match_splice_closure():
    pairs = []
    for lat in (chain(2), chain(3), diamond()):
        w = meet_witness(lat)
        pairs.append((w.x, w.y, w.p_gen, w.q_gen))
    general, _ = run_census(CensusTask(max_x=3))
    for rec in general:
        x, y = _lat_from_rows(rec.x_leq), _lat_from_rows(rec.y_leq)
        w = MoritaPairWitness.from_generators(x, y, rec.p, rec.q)
        pairs.append((w.x, w.y, w.p_gen, w.q_gen))
    involutive, _ = run_census(CensusTask(max_x=3, involutive=True))
    for rec in involutive:
        pw = as_pair_witness(InvolutiveWitness.from_generators(
            _lat_from_rows(rec.x_leq), rec.p))
        pairs.append((pw.x, pw.y, pw.p_gen, pw.q_gen))
    assert len(pairs) == 3 + 7 + 7
    for x, y, p_gen, q_gen in pairs:
        for fast, reference in _curried_shapes(x, y, p_gen, q_gen):
            assert np.array_equal(fast, reference)


# --- the pair check against the five-axis gathers -----------------------------------

def _surjective_by_set(lat, table, label):
    closed = join_closure(lat, {int(v) for v in np.asarray(table).reshape(-1)})
    if len(closed) == lat.n:
        return PASS
    missing = sorted(set(range(lat.n)) - set(closed))
    return failure(f"{label}-surjective", tuple(lat.names[m] for m in missing[:3]),
                   f"image join-closure has {len(closed)} of {lat.n} elements")


def _assoc_chain_on_axes(p_gen, q_gen, x, y, label):
    x1, y1, x2, y2, x3 = _chain_axes(x, y)
    left = p_gen[p_gen[x1, y1, x2], y2, x3]
    mid = p_gen[x1, q_gen[y1, x2, y2], x3]
    right = p_gen[x1, y1, p_gen[x2, y2, x3]]
    bad = np.argwhere((left != mid) | (left != right))
    if len(bad):
        i1, j1, i2, j2, i3 = map(int, bad[0])
        wit = (x.names[i1], y.names[j1], x.names[i2], y.names[j2], x.names[i3])
        return failure(label, wit,
                       f"nested values {x.names[left[i1, j1, i2, j2, i3]]} / "
                       f"{x.names[mid[i1, j1, i2, j2, i3]]} / "
                       f"{x.names[right[i1, j1, i2, j2, i3]]}")
    return PASS


def _distinct_slices_by_take(table, axis, lat, label):
    seen = {}
    for v in range(lat.n):
        key = np.take(table, v, axis=axis).tobytes()
        if key in seen:
            return failure(label, (lat.names[seen[key]], lat.names[v]),
                           "distinct elements induce identical curried maps")
        seen[key] = v
    return PASS


def conditions_on_axes(x, y, p_gen, q_gen):
    """The pair check with five-axis index grids and one slice taken at a
    time; the reference for ``conditions_from_tables``."""
    p_gen = np.asarray(p_gen, dtype=np.int64)
    q_gen = np.asarray(q_gen, dtype=np.int64)
    rep = ConditionReport()
    rep.add("p-surjective", _surjective_by_set(x, p_gen, "p"))
    rep.add("q-surjective", _surjective_by_set(y, q_gen, "q"))
    rep.add("condition-1", _assoc_chain_on_axes(p_gen, q_gen, x, y,
                                                "condition-1"))
    rep.add("condition-2", _assoc_chain_on_axes(q_gen, p_gen, y, x,
                                                "condition-2"))
    rep.add("condition-3", _distinct_slices_by_take(p_gen, 2, x, "condition-3"))
    rep.add("condition-4", _distinct_slices_by_take(p_gen, 0, x, "condition-4"))
    rep.add("condition-5", _distinct_slices_by_take(q_gen, 2, y, "condition-5"))
    rep.add("condition-6", _distinct_slices_by_take(q_gen, 0, y, "condition-6"))
    return rep


def test_pair_check_matches_the_reference_on_every_census_pair(monkeypatch,
                                                                built):
    checked = []

    def both(x, y, p_gen, q_gen):
        rep = conditions_from_tables(x, y, p_gen, q_gen)
        decided_then_named(rep, conditions_on_axes(x, y, p_gen, q_gen), built)
        checked.append(rep.ok)
        return rep

    monkeypatch.setattr("morita.census.conditions_from_tables", both)
    counts = []
    for task in (dict(max_x=3), dict(min_x=4, max_x=4, max_y=2),
                 dict(max_x=2, min_y=4, max_y=4)):
        records, summary = run_census(CensusTask(**task))
        counts.append((summary["candidates"], len(records)))
    assert counts == [(9431, 7), (927, 0), (927, 0)]
    assert (len(checked), sum(checked)) == (11285, 7)
    # names were built for the failing pairs only, each once
    assert built == ["pair"] * (11285 - 7)


def test_pair_check_matches_the_reference_on_random_tables(built):
    rng = np.random.default_rng(6)
    lats = lattices_up_to(4)
    failed = Counter()
    for _ in range(3000):
        x, y = (lats[i] for i in rng.integers(len(lats), size=2))
        # a random value range, so that slices collide and images fall short
        p = rng.integers(rng.integers(1, x.n + 1), size=(x.n, y.n, x.n))
        q = rng.integers(rng.integers(1, y.n + 1), size=(y.n, x.n, y.n))
        ref = conditions_on_axes(x, y, p, q)
        decided_then_named(conditions_from_tables(x, y, p, q), ref, built)
        for v in ref.failures():
            failed[v.law] += 1
    # every law fails often enough for its witness and detail to be compared
    assert len(failed) == 8 and min(failed.values()) >= 300, failed


def test_one_sided_memo_keeps_no_names_between_calls():
    # equal orders under three namings share memo entries; the names in each
    # report must be the call's own, whichever naming filled the entry
    rng = np.random.default_rng(8)
    x, y = diamond(), chain(3)
    namings = [(x, y), (conjugate_lattice(x), conjugate_lattice(y)),
               (x.relabel(("b", "l", "r", "t")), y.relabel(("a", "b", "c")))]
    pairs = [(rng.integers(rng.integers(1, 5), size=(4, 3, 4)),
              rng.integers(rng.integers(1, 4), size=(3, 4, 3)))
             for _ in range(40)]
    inv = [rng.integers(rng.integers(1, 5), size=(4, 4, 4)) for _ in range(10)]
    # one byte string under two shapes: (2, 4, 2) on c2 x d, (4, 1, 4) on d x c1
    raw = rng.integers(2, size=16)
    shapes = [(chain(2), x, raw.reshape(2, 4, 2),
               rng.integers(4, size=(4, 2, 4))),
              (x, chain(1), raw.reshape(4, 1, 4),
               np.zeros((1, 4, 1), dtype=int))]

    def agrees(lx, ly, p, q):
        rep = conditions_from_tables(lx, ly, p, q)
        assert rep.summary() == conditions_on_axes(lx, ly, p, q).summary()
        return rep

    failed = set()
    for order in (namings, namings[::-1]):
        _one_sided.cache_clear()
        for lx, ly in order:
            for p, q in pairs:
                failed.update(v.law for v in agrees(lx, ly, p, q).failures())
            for t in inv:
                # the pair check on (X, X*, t, t^T) shares t's entry
                agrees(lx, conjugate_lattice(lx), t, t.transpose(2, 1, 0))
                assert (involutive_conditions_from_tables(lx, t).summary()
                        == five_axis_involutive_conditions(lx, t).summary())
    for order in (shapes, shapes[::-1]):
        _one_sided.cache_clear()
        for case in order:
            agrees(*case)
    # every law failed, so every kind of witness name was compared
    assert len(failed) == 8, failed


def test_distinct_slices_matches_the_reference_on_full_domain_tables(
        monkeypatch):
    shapes = []

    def both(table, axis, lat, label):
        verdict = _distinct_slices(table, axis, lat, label)
        assert verdict == _distinct_slices_by_take(table, axis, lat, label)
        shapes.append((table.ndim, verdict.ok))
        return verdict

    monkeypatch.setattr(oracles, "_distinct_slices", both)
    x2 = chain(2)
    zero_q = MoritaPairWitness.from_generators(
        x2, x2, meet_tables(x2), np.zeros((2, 2, 2), dtype=np.int64))
    for w in (meet_witness(x2), candidate_23(), zero_q):
        check_pair_conditions_full(w)
    for x in lattices_up_to(2):
        for f in enumerate_trimorphisms(x, x, x, x):
            check_involutive_conditions_full(
                InvolutiveWitness.from_generators(x, f.values))
    assert {ndim for ndim, _ in shapes} == {2}
    assert {ok for _, ok in shapes} == {True, False}


def _census_candidates(x, y):
    'The surjective p tables on x(x)y(x)x that pass conditions 3 and 4.'
    return [f.values for f in enumerate_trimorphisms(x, y, x, x,
                                                     surjective=True)
            if _distinct_slices(f.values, 2, x, "c3")
            and _distinct_slices(f.values, 0, x, "c4")]


def test_deferred_reports_on_perturbed_census_candidates(built):
    # one entry of a census candidate changed: tables the census pre-filter
    # never lets through, failing surjectivity or a slice condition on one
    # side while the other side stays a candidate
    rng = np.random.default_rng(12)
    failed = Counter()
    for x, y in ((chain(3), chain(3)), (chain(3), chain(2)),
                 (diamond(), chain(2))):
        ps, qs = _census_candidates(x, y), _census_candidates(y, x)
        for _ in range(400):
            p = ps[rng.integers(len(ps))].copy()
            q = qs[rng.integers(len(qs))].copy()
            t, lat = (p, x) if rng.integers(2) else (q, y)
            t[tuple(rng.integers(t.shape))] = rng.integers(lat.n)
            ref = conditions_on_axes(x, y, p, q)
            decided_then_named(conditions_from_tables(x, y, p, q), ref, built)
            failed.update(v.law for v in ref.failures())
    assert {"p-surjective", "q-surjective", "condition-3", "condition-4",
            "condition-5", "condition-6"} <= set(failed), failed


def test_named_report_ignores_later_changes_to_the_input():
    w = candidate_23()
    x, y, p, q = w.x, w.y, w.p_gen.copy(), w.q_gen.copy()
    ref = conditions_on_axes(x, y, p, q)
    rep = conditions_from_tables(x, y, p, q)
    assert not rep.ok
    p[...] = 0
    q[...] = 0
    assert rep.summary() == ref.summary()
    t = np.array(meet_tables(chain(3)))
    t[0, 0, 0] = 2
    ref = five_axis_involutive_conditions(chain(3), t)
    rep = involutive_conditions_from_tables(chain(3), t)
    assert not rep.ok
    t[...] = 0
    assert rep.summary() == ref.summary()


def test_a_lying_clean_flag_raises_when_names_are_built(monkeypatch):
    # every verdict of a meet witness passes; a memo entry that calls its
    # table unclean makes a report decided as failing, and building its
    # names finds no failure
    truthful = engine._one_sided
    monkeypatch.setattr(engine, "_one_sided", lambda *key:
                        truthful(*key)._replace(clean=False))
    lat = chain(3)
    t = meet_tables(lat)
    for rep in (conditions_from_tables(lat, lat, t, t),
                involutive_conditions_from_tables(lat, t)):
        assert not rep.ok
        with pytest.raises(MoritaError, match="internal"):
            rep.summary()
