"""Pair witnesses, contexts, the build/extract equivalence, involutive layer."""

import inspect
import itertools
import json
import pickle
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import (fails_alike_warm_and_cold, lattices_up_to,
                      meet_quantale, meet_tables, one_cell_changes,
                      renumbered)
import morita
from morita import census, engine
from morita import io as mio
from morita import tensor as tensor_module
from morita.census import CensusTask, enumerate_trimorphisms, run_census
from morita.engine import (ImprimitivityBimodule, InvolutiveWitness,
                           MoritaContext, MoritaPairWitness, as_pair_witness,
                           build_context_from_pair, build_involutive_context,
                           check_imprimitivity, check_involutive_conditions,
                           check_morita_context, check_pair_conditions,
                           conditions_from_tables, extract_pair_from_context,
                           involutive_conditions_from_tables,
                           _curried_from_generators, _distinct_slices,
                           _one_sided, _surjective_by_generators)
from morita.enumeration import canonical_key
from morita.errors import (PASS, ConditionReport, ConditionsFailed,
                           ContextInvalid, DomainMismatch, MoritaError,
                           NotAMultimorphism, ResourceLimit,
                           StarNotWellDefined, failure, slice_collision)
from morita.io import leq_rows
from morita.lattice import (FiniteSupLattice, _index_table, chain,
                            conjugate_lattice, diamond, join_closure, m3,
                            opposite)
from morita.modules import (Bimodule, ModuleAction, conjugate_bimodule,
                            regular_bimodule)
from morita.quantale import (OperatorQuantale, endo_quantale,
                             image_subquantale)
from morita.tensor import (Multimorphism, MultiTensorLattice,
                           enumerate_multimorphisms, is_multimorphism,
                           tensor_product)
import oracles
from oracles import (_chain_axes, _curried, check_involutive_conditions_full,
                     check_pair_conditions_full, lat_from_rows)
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
    # the built context is proved by its build's report; the bare one is
    # checked in full
    checked = []

    def counting(c, _check=engine.check_morita_context):
        checked.append(c)
        return _check(c)
    monkeypatch.setattr(engine, "check_morita_context", counting)
    # the report also proves the recovered tables multimorphisms; the
    # witness constructor checks those of the bare one
    tables = []

    def wrapping(factors, target, values, _wrap=engine.as_multimorphism):
        tables.append(values)
        return _wrap(factors, target, values)
    monkeypatch.setattr(engine, "as_multimorphism", wrapping)
    assert extract_pair_from_context(ctx) == w
    assert checked == [] and tables == []
    assert extract_pair_from_context(bare) == w
    assert checked == [bare] and len(tables) == 2


def test_a_generator_entry_outside_the_lattice_is_a_domain_mismatch():
    c3 = chain(3)
    good = meet_tables(c3)
    for entry in (3, 7, -1):
        bad = np.array(good)
        bad[1, 2, 0] = entry
        for call in (lambda: conditions_from_tables(c3, c3, bad, good),
                     lambda: conditions_from_tables(c3, c3, good, bad),
                     lambda: involutive_conditions_from_tables(c3, bad)):
            with pytest.raises(DomainMismatch, match="outside 0..2"):
                call()
    assert conditions_from_tables(c3, c3, good, good).ok
    assert involutive_conditions_from_tables(c3, good).ok


def test_x_and_x_star_share_every_table_through_an_involutive_build():
    # X* is X renamed, so every table the build reads through either is
    # built once, on their one order; X read from rows, with no tables yet
    x = lat_from_rows(leq_rows(diamond()))
    w = InvolutiveWitness(x, meet_tables(diamond()))
    build_involutive_context(w)
    assert w.xstar.join is x.join and w.xstar.meet is x.meet
    assert w.xstar.join_irreducibles() is x.join_irreducibles()


def test_a_built_context_and_bimodule_are_read_only():
    ctx, _, imp = build_involutive_context(
        InvolutiveWitness.from_generators(chain(3), meet_tables(chain(3))))
    # and what their reports judged: the quantales, bimodules and actions
    parts = [ctx.a, ctx.b, ctx.x, ctx.y]      # imp.bimodule is ctx.x
    parts += [act for bim in (ctx.x, ctx.y) for act in (bim.left, bim.right)]
    for obj in (ctx, imp, *parts):
        proof = getattr(obj, "report", None)   # a context's or imp's
        assert proof is None or proof.ok
        slots = [s for cls in type(obj).__mro__
                 for s in getattr(cls, "__slots__", ())]
        assert slots and not hasattr(obj, "__dict__")
        for slot in slots:
            if getattr(obj, slot) is None:    # a unit the image lacks
                continue
            for value in (getattr(obj, slot), None):
                with pytest.raises(AttributeError, match="is set once"):
                    setattr(obj, slot, value)
            with pytest.raises(AttributeError, match="is set once"):
                delattr(obj, slot)
        assert getattr(obj, "report", None) is proof
    # a context built by hand has no report until one is set, once
    bare = MoritaContext(ctx.a, ctx.b, ctx.x, ctx.y, ctx.pair_xy, ctx.pair_yx)
    assert bare.report is None
    bare.report = check_morita_context(bare)
    with pytest.raises(AttributeError, match="is set once"):
        bare.report = None


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
        for f in enumerate_multimorphisms((x, x, x), x):
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
        for f in enumerate_multimorphisms((x, x, x), x):
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


def test_as_pair_witness_tables_are_multimorphisms(monkeypatch):
    # as_pair_witness checks neither table: the witness checked p, and p
    # with its slots reversed is a multimorphism on (X*, X, X*)
    witnesses = [InvolutiveWitness.from_generators(lat_from_rows(r.x_leq), r.p)
                 for r in run_census(CensusTask(max_x=3, involutive=True))[0]]
    for x in lattices_up_to(3):
        xstar = conjugate_lattice(x)
        witnesses += [InvolutiveWitness.from_generators(x, f.values) for f in
                      enumerate_multimorphisms((x, xstar, x), x)]
    d = diamond()
    keep = set(np.random.default_rng(17).choice(65536, 12, replace=False))
    tables = enumerate_multimorphisms((d, conjugate_lattice(d), d), d)
    witnesses += [InvolutiveWitness.from_generators(d, f.values)
                  for k, f in enumerate(tables) if k in keep]
    assert len(witnesses) == 7 + 171 + 12

    checked = []
    monkeypatch.setattr(engine, "as_multimorphism",
                        lambda *args: checked.append(args))
    pairs = [as_pair_witness(w) for w in witnesses]
    monkeypatch.undo()
    assert checked == []
    for w, pw in zip(witnesses, pairs):
        assert pw == MoritaPairWitness(w.x, w.xstar, w.p_gen,
                                       w.p_gen.transpose(2, 1, 0))
        assert is_multimorphism(Multimorphism((pw.x, pw.y, pw.x), pw.x,
                                              pw.p_gen))
        assert is_multimorphism(Multimorphism((pw.y, pw.x, pw.y), pw.y,
                                              pw.q_gen))
        assert not (pw.p_gen.flags.writeable or pw.q_gen.flags.writeable)


def test_the_involutive_gate_decides_the_pair_check_of_its_pair(monkeypatch):
    # build_involutive_context checks a)-c) alone, not 1-6 of (X, X*, p, p^T);
    # the diamond is the last space of the i<=4 census that finishes
    passing = []
    outcomes = []
    for x in lattices_up_to(3) + [diamond()]:
        xstar = conjugate_lattice(x)
        for f in enumerate_trimorphisms(x, xstar, x, x):
            ok = involutive_conditions_from_tables(x, f.values).ok
            assert ok == conditions_from_tables(
                x, xstar, f.values, f.values.transpose(2, 1, 0)).ok
            outcomes.append(ok)
            if ok:
                passing.append(InvolutiveWitness.from_generators(x, f.values))
    assert (len(outcomes), sum(outcomes)) == (131 + 52670, 7 + 24)

    calls = Counter()
    for name in ("check_pair_conditions", "check_involutive_conditions"):
        def counting(w, _check=getattr(engine, name), _name=name):
            calls[_name] += 1
            return _check(w)
        monkeypatch.setattr(engine, name, counting)
    for w in passing:
        build_involutive_context(w)
    assert calls == {"check_involutive_conditions": 31}


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
    for p in enumerate_multimorphisms((x, x, x), x):
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
        x, y = lat_from_rows(rec.x_leq), lat_from_rows(rec.y_leq)
        w = MoritaPairWitness.from_generators(x, y, rec.p, rec.q)
        pairs.append((w.x, w.y, w.p_gen, w.q_gen))
    involutive, _ = run_census(CensusTask(max_x=3, involutive=True))
    for rec in involutive:
        pw = as_pair_witness(InvolutiveWitness.from_generators(
            lat_from_rows(rec.x_leq), rec.p))
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
    # one census call decides (x, y, p, q), and also its mirror (y, x, q, p)
    # when the task holds the space (Y, X): both are compared, and a pair
    # that is its own mirror once
    calls, checked = [], []

    def both(x, y, p_gen, q_gen):
        rep = conditions_from_tables(x, y, p_gen, q_gen)
        calls.append(rep.ok)
        orders = [(x, y, p_gen, q_gen, rep)]
        if (task.min_x <= y.n <= task.max_x and task.min_y <= x.n <= task.max_y
                and not (y is x and p_gen is q_gen)):
            orders.append((y, x, q_gen, p_gen,
                           conditions_from_tables(y, x, q_gen, p_gen)))
        for a, b, pt, qt, r in orders:
            decided_then_named(r, conditions_on_axes(a, b, pt, qt), built)
            checked.append(r.ok)
        return rep

    monkeypatch.setattr("morita.census.conditions_from_tables", both)
    counts = []
    for bounds in (dict(max_x=3), dict(min_x=4, max_x=4, max_y=2),
                   dict(max_x=2, min_y=4, max_y=4)):
        task = CensusTask(**bounds)
        records, summary = run_census(task)
        counts.append((summary["candidates"], len(records)))
    assert counts == [(9431, 7), (927, 0), (927, 0)]
    assert len(calls) == 4765 + 927 + 927
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
        for f in enumerate_multimorphisms((x, x, x), x):
            check_involutive_conditions_full(
                InvolutiveWitness.from_generators(x, f.values))
    assert {ndim for ndim, _ in shapes} == {2}
    assert {ok for _, ok in shapes} == {True, False}


def test_slice_collision_matches_the_slice_by_slice_search():
    # every axis of every enumerated table of every space of size <= 3, then
    # random tables whose slices repeat, with empty slots and empty slices
    tables = [f.values for x in lattices_up_to(3) for y in lattices_up_to(3)
              for f in enumerate_multimorphisms((x, y, x), x)]
    assert len(tables) == 198
    rng = np.random.default_rng(14)
    for _ in range(400):
        shape = tuple(rng.integers(4, size=rng.integers(1, 4)))
        base = rng.integers(2, size=shape)
        axis = int(rng.integers(len(shape)))
        # repeat some slices along the axis
        picks = rng.integers(max(shape[axis], 1), size=shape[axis])
        tables.append(np.take(base, picks, axis=axis) if shape[axis]
                      else base)
    found = Counter()
    for t in tables:
        for axis in range(t.ndim):
            got = slice_collision(t, axis)
            assert got == oracles.slice_collision_by_slices(t, axis)
            found["none" if got is None else "pair"] += 1
            found["empty slot"] += t.shape[axis] == 0
            found["empty slices"] += t.shape[axis] > 1 and t.size == 0
    assert min(found.values()) >= 20, found


def _census_candidates(x, y):
    'The surjective p tables on x(x)y(x)x that pass conditions 3 and 4.'
    return [f.values for f in enumerate_trimorphisms(x, y, x, x)
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
    monkeypatch.setattr(engine, "_one_sided", lambda *key: None)
    lat = chain(3)
    t = meet_tables(lat)
    for rep in (conditions_from_tables(lat, lat, t, t),
                involutive_conditions_from_tables(lat, t)):
        assert not rep.ok
        with pytest.raises(MoritaError, match="internal"):
            rep.summary()


def test_clean_needs_the_p_only_composites_to_agree(monkeypatch):
    # 86 of the 97 census candidates on the 3-chain are surjective and pass
    # both slice conditions, yet their p-only composites differ somewhere:
    # only the left == right clause keeps them unclean
    x = chain(3)
    tables = _census_candidates(x, x)
    searched = []

    def counting(table, axis):
        searched.append(axis)
        return slice_collision(table, axis)
    monkeypatch.setattr(engine, "slice_collision", counting)
    _one_sided.cache_clear()
    lefts = [_one_sided(x, x, t.tobytes()) for t in tables]
    # the slices, which the census searched already, are searched again
    # only for the 11 candidates that pass the rest
    assert searched == [2, 0] * 11
    assert len(lefts) == 97
    assert all(_surjective_by_generators(x, t, "p")
               and slice_collision(t, 2) is None
               and slice_collision(t, 0) is None for t in tables)
    composites = [engine._p_only(t, 3, 3) for t in tables]
    unequal = [m for m, (left, right) in zip(lefts, composites)
               if (left != right).any()]
    assert len(unequal) == 86
    assert all(m is None for m in unequal)
    assert all(np.array_equal(m, left) and not m.flags.writeable
               for m, (left, right) in zip(lefts, composites)
               if not (left != right).any())


def test_a_cyclic_scan_computes_each_side_once():
    # the census scans every q once per p, so each side is computed once
    # only if the memo holds the whole q list of c3 x d, 2,286 tables
    c3, d = chain(3), diamond()
    ps = census._separated_tables(c3, d, CensusTask(1).tri_cap)[:3]
    qs = census._separated_tables(d, c3, CensusTask(1).tri_cap)
    assert len(qs) == 2286
    _one_sided.cache_clear()
    for p in ps:
        for q in qs:
            conditions_from_tables(c3, d, p, q)
    info = _one_sided.cache_info()
    assert info.misses == 3 + 2286
    assert info.hits == 2 * 3 * 2286 - info.misses


def test_report_errors_survive_pickling():
    # a census worker under --jobs sends its errors back pickled
    x2 = chain(2)
    zero_q = MoritaPairWitness.from_generators(
        x2, x2, meet_tables(x2), np.zeros((2, 2, 2), dtype=np.int64))
    with pytest.raises(ConditionsFailed) as failed:
        build_context_from_pair(zero_q)
    ctx = build_context_from_pair(meet_witness(x2))
    dead = Multimorphism((x2, x2), ctx.a.carrier,
                         np.zeros((2, 2), dtype=np.int64))
    with pytest.raises(ContextInvalid) as invalid:
        extract_pair_from_context(
            MoritaContext(ctx.a, ctx.b, ctx.x, ctx.y, dead, ctx.pair_yx))
    for err in (failed.value, invalid.value):
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is type(err)
        assert str(back) == str(err)
        assert back.report.summary() == err.report.summary()
        assert back.report == err.report


def test_context_report_names_each_failing_law():
    # captured before the table laws moved to errors.table_law
    lat = chain(3)
    ctx = build_context_from_pair(meet_witness(lat))
    dead = Multimorphism((lat, lat), ctx.a.carrier,
                         np.zeros((3, 3), dtype=np.int64))
    rep = check_morita_context(
        MoritaContext(ctx.a, ctx.b, ctx.x, ctx.y, dead, ctx.pair_yx))
    assert [str(v) for v in rep.failures()] == [
        "FAIL linking-X: (x1, y).x2 = x1.[y, x2] at (x1, x1, x1) - 0 vs x1",
        "FAIL linking-Y: [y1, x].y2 = y1.(x, y2) at (x1, x1, x1) - x1 vs 0",
        "FAIL pairing-XY-surjective at ([0 x1 x1], [0 x1 1]) - image "
        "join-closure has 1 of 3 elements"]
    assert len(rep.checks) == 20


def _with_corner(tensor, value):
    'The tensor with the elementary tensor of tuple (0, ..., 0) set to value.'
    table = np.array(tensor.elem_table)
    table[(0,) * table.ndim] = value
    return MultiTensorLattice(tensor.factors, tensor.lattice, tensor.bits,
                              table)


def test_a_family_that_breaks_joins_is_refused_by_image_subquantale(
        monkeypatch):
    # the operator family is checked once, by image_subquantale
    built = engine._operator_family

    def broken(part, gen, lat, endo):
        fam = built(part, gen, lat, endo)
        values = np.array(fam.values)
        values[part.lattice.bottom] = endo.carrier.top
        return Multimorphism(fam.factors, fam.target, values)

    monkeypatch.setattr(engine, "_operator_family", broken)
    with pytest.raises(NotAMultimorphism, match="FAIL slot-0-bottom"):
        build_context_from_pair(meet_witness(chain(3)))


def test_a_pairing_that_breaks_joins_fails_the_context_report(monkeypatch):
    # the pairings are checked once, as pairing-XY/YX-bimorphism
    calls = []

    def corner_at_top(x, y, _tensor=engine._tensor):
        t = _tensor(x, y)
        calls.append(t)
        return _with_corner(t, t.n - 1) if len(calls) == 1 else t

    # X(x)Y and Y(x)X of the 3-chain are one cached tensor, so the fault
    # goes into the first tensor the build asks for, not into the cache
    monkeypatch.setattr(engine, "_tensor", corner_at_top)
    with pytest.raises(ConditionsFailed) as exc:
        build_context_from_pair(meet_witness(chain(3)))
    rep = exc.value.report
    assert str(rep["pairing-XY-bimorphism"]) == (
        "FAIL slot-0-bottom at (0, 0) - f(0, 0) = [0 x1 1], not bottom")
    assert rep["pairing-YX-bimorphism"].ok


def test_a_star_that_is_no_involution_fails_the_imprimitivity_report(
        monkeypatch):
    # the star is checked once, as involution-A/B
    derived = engine._class_star

    def rotated(tensor, idx_map, label):
        star = derived(tensor, idx_map, label)
        return star[1:] + star[:1] if label == "star on A" else star

    monkeypatch.setattr(engine, "_class_star", rotated)
    lat = chain(3)
    with pytest.raises(ConditionsFailed) as exc:
        build_involutive_context(
            InvolutiveWitness.from_generators(lat, meet_tables(lat)))
    rep = exc.value.report
    assert [k for k, v in rep.checks.items() if not v.ok] == ["involution-A"]
    assert str(rep["involution-A"]).startswith("FAIL period-two at ")


def test_a_swap_that_breaks_joins_is_refused_by_the_lift():
    # the swap is checked once, by lift_multimorphism
    lat = chain(3)
    ctx, _, _ = build_involutive_context(
        InvolutiveWitness.from_generators(lat, meet_tables(lat)))
    t = ctx.t_xy
    with pytest.raises(NotAMultimorphism, match="FAIL slot-0-bottom"):
        engine._class_star(_with_corner(t, t.n - 1), ctx.idx_a, "star on A")


def test_a_star_collision_raises_star_not_well_defined():
    lat = chain(3)
    ctx, _, _ = build_involutive_context(
        InvolutiveWitness.from_generators(lat, meet_tables(lat)))
    t = ctx.t_xy
    swap = Multimorphism(t.factors, t.lattice, t.elem_table.T)
    swapped = engine.lift_multimorphism(swap, t).values
    # the bottom is its own swap; joining a moved element to its class
    # gives one class two different swaps
    moved = int(np.flatnonzero(swapped != np.arange(t.n))[0])
    merged = np.arange(t.n)
    merged[moved] = t.lattice.bottom
    merged = np.unique(merged, return_inverse=True)[1]   # classes 0..k-1
    names = t.lattice.names
    with pytest.raises(StarNotWellDefined) as exc:
        engine._class_star(t, Multimorphism((t.lattice,), t.lattice, merged),
                           "star on A")
    assert str(exc.value) == (
        f"star on A: tensor elements {names[t.lattice.bottom]} and "
        f"{names[moved]} induce the same operator but their swaps do not")


def _per_class_by_loop(idx, rows):
    """The class loop ``_per_class`` replaces: per class in the order of
    first appearance, its first element against each later one."""
    classes = {}
    for e, c in enumerate(idx.tolist()):
        classes.setdefault(c, []).append(e)
    for members in classes.values():
        for e in members:
            if not np.array_equal(rows[e], rows[members[0]]):
                return None, (members[0], e)
    return np.array([rows[classes[c][0]] for c in sorted(classes)]), None


def test_per_class_matches_the_class_loop():
    class Collision(Exception):
        pass

    def pair(e1, e2):
        return Collision(e1, e2)

    rng = np.random.default_rng(21)
    outcomes = Counter()
    target = chain(12)
    for _ in range(600):
        n, k = rng.integers(1, 13), rng.integers(1, 6)
        idx = np.concatenate([np.arange(min(k, n)),
                              rng.integers(min(k, n), size=n - min(k, n))])
        rng.shuffle(idx)
        cols = rng.integers(1, 4)
        rows = rng.integers(3, size=(min(k, n), cols))[idx]
        for _ in range(rng.integers(3)):      # a few entries changed
            rows[rng.integers(n), rng.integers(cols)] = rng.integers(3)
        if rng.integers(2):
            rows = rows[:, 0]
        idx_map = Multimorphism((chain(int(n)),), target, idx)
        table, collision = _per_class_by_loop(idx, rows)
        if collision is None:
            assert np.array_equal(engine._per_class(idx_map, rows, pair),
                                  table)
        else:
            with pytest.raises(Collision) as exc:
                engine._per_class(idx_map, rows, pair)
            assert exc.value.args == collision
        outcomes[collision is None] += 1
    assert min(outcomes.values()) > 100, outcomes


# --- the context parts cached by factor order ----------------------------------------

def _variants(lat):
    """lat renumbered by every permutation, names moving along; lat under
    every permutation of its names; and the conjugate of each."""
    out = []
    for perm in itertools.permutations(range(lat.n)):
        out += [renumbered(lat, perm),
                lat.relabel([lat.names[i] for i in perm])]
    return out + [conjugate_lattice(v) for v in out]


def _same_lattice(got, want):
    assert got == want and got.names == want.names
    assert (got.bottom, got.top) == (want.bottom, want.top)
    assert np.array_equal(got.join, want.join)


def _same_tensor(got, want):
    assert got.factors == want.factors
    assert [f.names for f in got.factors] == [f.names for f in want.factors]
    _same_lattice(got.lattice, want.lattice)
    assert np.array_equal(got.bits, want.bits)
    assert np.array_equal(got.elem_table, want.elem_table)


def _same_endo(got, want):
    _same_lattice(got.carrier, want.carrier)
    _same_lattice(got.base, want.base)
    assert np.array_equal(got.mult, want.mult)
    assert (got.op_values, got.unit, got.index) == (
        want.op_values, want.unit, want.index)


def test_cached_parts_equal_fresh_builds_on_every_small_lattice():
    variants = [_variants(lat) for lat in lattices_up_to(4)]
    for xs in variants:
        engine._order_part.cache_clear()
        for x in xs + xs[:1]:          # cold, then warm under other names
            _same_endo(engine._endo(x), endo_quantale(x))
        for ys in variants:
            for x, y in zip(xs + xs[:1], itertools.cycle(ys)):
                _same_tensor(engine._tensor(x, y), tensor_product(x, y))
    assert engine._order_part.cache_info().hits > 0


def test_each_isomorphism_class_is_built_once(monkeypatch):
    builds = Counter()

    def counted(kind, build):
        def counting(*factors):
            builds[(kind, *map(canonical_key, factors))] += 1
            return build(*factors)
        return counting
    monkeypatch.setattr(engine, "tensor_product",
                        counted("tensor", tensor_product))
    monkeypatch.setattr(engine, "endo_quantale",
                        counted("endo", endo_quantale))
    classes = lattices_up_to(4)
    variants = [_variants(lat) for lat in classes]
    # the first variant of a class is its canonical form; the copies
    # renumbered in reverse are not, bar the one-element lattice
    reversed_copies = [renumbered(lat, range(lat.n)[::-1]) for lat in classes]
    runs = []
    for fill in (None, reversed_copies):
        engine._order_part.cache_clear()
        builds.clear()
        parts = []
        for i, xs in enumerate(variants):
            if fill:
                engine._endo(fill[i])
            parts += [engine._endo(x) for x in xs]
        for i, xs in enumerate(variants):
            for j, ys in enumerate(variants):
                if fill:
                    engine._tensor(fill[i], fill[j])
                parts += [engine._tensor(x, y)
                          for x, y in zip(xs, itertools.cycle(ys))]
        assert len(builds) == len(classes) + len(classes) ** 2
        assert set(builds.values()) == {1}
        runs.append(parts)
    for got, want in zip(*runs):
        if isinstance(want, MultiTensorLattice):
            _same_tensor(got, want)
        else:
            _same_endo(got, want)


def _renamed(lat, tag):
    return lat.relabel([f"{tag}{i}" for i in reversed(range(lat.n))])


def _built(x, y, p, q):
    'The digests, names, stars and extracted tables of one build.'
    if y is None:
        ctx, stars, imp = build_involutive_context(
            InvolutiveWitness.from_generators(x, p))
        extra = (imp.report.digest(), [s.star for s in stars])
    else:
        ctx = build_context_from_pair(
            MoritaPairWitness.from_generators(x, y, p, q))
        extra = ()
    back = extract_pair_from_context(ctx)
    return (ctx.report.digest(), ctx.a.names, ctx.b.names,
            ctx.t_xy.lattice.names, ctx.t_yx.lattice.names, *extra,
            back.p_gen.tolist(), back.q_gen.tolist())


def test_a_context_built_warm_matches_one_built_cold():
    records = (run_census(CensusTask(max_x=3))[0]
               + run_census(CensusTask(max_x=3, involutive=True))[0])
    assert len(records) == 14
    for rec in records:
        x = lat_from_rows(rec.x_leq)
        y = None if rec.y_leq is None else lat_from_rows(rec.y_leq)
        p = np.array(rec.p)
        q = None if rec.q is None else np.array(rec.q)
        rx, ry = _renamed(x, "u"), y and _renamed(y, "v")
        engine._order_part.cache_clear()
        cold = _built(rx, ry, p, q)
        engine._order_part.cache_clear()
        _built(x, y, p, q)
        assert _built(rx, ry, p, q) == cold    # every part a renamed view
        assert _built(rx, ry, p, q) == cold    # every part as cached


def test_a_cached_tensor_honours_the_tensor_cap_in_force(monkeypatch):
    w = meet_witness(chain(3))                 # X(x)Y has 6 elements
    build_context_from_pair(w)
    monkeypatch.setenv("MORITA_MAX_TENSOR", "5")
    with pytest.raises(ResourceLimit) as fresh:
        tensor_product(w.x, w.y)
    hits = engine._order_part.cache_info().hits
    with pytest.raises(ResourceLimit) as cached:
        build_context_from_pair(w)
    assert engine._order_part.cache_info().hits == hits + 1
    assert str(cached.value) == str(fresh.value) == (
        "tensor exceeds 5 elements; raise MORITA_MAX_TENSOR")
    # a renumbered copy misses, then hits the tensor of its canonical form
    copy = meet_witness(renumbered(chain(3), [2, 0, 1]))
    hits = engine._order_part.cache_info().hits
    with pytest.raises(ResourceLimit) as renumbered_copy:
        build_context_from_pair(copy)
    assert engine._order_part.cache_info().hits == hits + 1
    assert str(renumbered_copy.value) == str(fresh.value)
    monkeypatch.setenv("MORITA_MAX_TENSOR", "0")
    with pytest.raises(MoritaError, match="must be a positive integer"):
        build_context_from_pair(w)
    monkeypatch.setenv("MORITA_MAX_TENSOR", "6")
    assert build_context_from_pair(w).report.ok


# --- passes kept by content ------------------------------------------------------

def _census_witnesses():
    'The g<=3 and i<=3 census records as (x, y, p, q); y and q None if involutive.'
    records = (run_census(CensusTask(max_x=3))[0]
               + run_census(CensusTask(max_x=3, involutive=True))[0])
    assert len(records) == 14
    return [(lat_from_rows(r.x_leq),
             None if r.y_leq is None else lat_from_rows(r.y_leq),
             np.array(r.p), None if r.q is None else np.array(r.q))
            for r in records]


def _renumbered_witness(x, y, p, q, rng):
    'The witness on renumbered copies of x and y, its tables moved along.'
    px = rng.permutation(x.n)
    py = px if y is None else rng.permutation(y.n)

    def moved(table, pa, pb):
        out = np.empty_like(table)
        out[np.ix_(pa, pb, pa)] = pa[table]
        return out
    return (renumbered(x, px), y and renumbered(y, py), moved(p, px, py),
            None if q is None else moved(q, py, px))


def _reports(x, y, p, q):
    """The digest and summary of each report of one build and of a re-check
    of what it built: the context's, and the imprimitivity bimodule's of an
    involutive build."""
    if y is None:
        ctx, _, imp = build_involutive_context(
            InvolutiveWitness.from_generators(x, p))
        reps = [ctx.report, imp.report, check_imprimitivity(imp)]
    else:
        ctx = build_context_from_pair(
            MoritaPairWitness.from_generators(x, y, p, q))
        reps = [ctx.report]
    reps.append(check_morita_context(ctx))
    return [(r.digest(), r.summary()) for r in reps]


def test_warm_reports_match_cold_ones_on_every_census_context(monkeypatch):
    rng = np.random.default_rng(18)
    sup_law_checks = []
    join_break = tensor_module._join_break

    def counting(f):
        sup_law_checks.append(f)
        return join_break(f)
    monkeypatch.setattr(tensor_module, "_join_break", counting)
    for x, y, p, q in _census_witnesses():
        copies = [(_renamed(x, "u"), y and _renamed(y, "v"), p, q),
                  _renumbered_witness(x, y, p, q, rng)]
        for copy in copies:
            tensor_module._sup_law_memo.clear()
            cold = _reports(*copy)
            assert all(digest == {k: True for k in digest}
                       for digest, _ in cold)
            tensor_module._sup_law_memo.clear()
            assert _reports(x, y, p, q) == _reports(x, y, p, q)
            del sup_law_checks[:]
            assert _reports(*copy) == cold
            if copy is copies[0]:
                # same tables under new names: every sup-law pass is kept
                assert sup_law_checks == []


def test_a_built_object_answers_its_recheck_with_its_own_report(
        monkeypatch):
    # the same parts assembled by hand have no report and are checked in
    # full, to the same digest and summary
    judged = []
    check = engine.check_bimodule
    monkeypatch.setattr(engine, "check_bimodule",
                        lambda bim: judged.append(bim) or check(bim))
    rng = np.random.default_rng(20)
    for w in _census_witnesses():
        for x, y, p, q in (w, _renumbered_witness(*w, rng)):
            if y is None:
                ctx, _, imp = build_involutive_context(
                    InvolutiveWitness.from_generators(x, p))
                bare_imp = ImprimitivityBimodule(
                    imp.a, imp.b, imp.bimodule, imp.inner_a, imp.inner_b)
                built = [(imp, bare_imp, check_imprimitivity)]
            else:
                ctx = build_context_from_pair(
                    MoritaPairWitness.from_generators(x, y, p, q))
                built = []
            bare = MoritaContext(ctx.a, ctx.b, ctx.x, ctx.y, ctx.pair_xy,
                                 ctx.pair_yx)
            built.append((ctx, bare, check_morita_context))
            for obj, by_hand, recheck in built:
                del judged[:]
                assert recheck(obj) is obj.report
                assert judged == []
                assert by_hand.report is None
                full = recheck(by_hand)
                assert judged                 # checked in full
                assert full is not obj.report
                assert full.digest() == obj.report.digest()
                assert full.summary() == obj.report.summary()


def _involutive_witnesses():
    """Every involutive witness of the i<=3 census and of the i<=4 census
    on the diamond, as read from perfbench/witnesses.jsonl."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "witnesses.jsonl"
    records = [r for r in map(json.loads, path.read_text().splitlines())
               if r["mode"] == "involutive"]
    assert len(records) == 26
    assert {tuple(r["x_leq"]) for r in records[7:]} == {leq_rows(diamond())}
    return [InvolutiveWitness.from_generators(
        lat_from_rows(tuple(r["x_leq"])), np.array(r["p"])) for r in records]


def test_the_conjugate_of_a_built_x_has_the_tables_of_its_y():
    # why the context report's module-Y verdict is the conjugate's
    # module-laws verdict of the imprimitivity report
    for w in _involutive_witnesses():
        ctx, (inv_a, inv_b), imp = build_involutive_context(w)
        conj = conjugate_bimodule(imp.bimodule, inv_a, inv_b)
        assert np.array_equal(conj.carrier.leq, ctx.y.carrier.leq)
        for side in ("left", "right"):
            mine, theirs = getattr(conj, side), getattr(ctx.y, side)
            assert np.array_equal(mine.act, theirs.act)
            assert np.array_equal(mine.quantale.mult, theirs.quantale.mult)


def test_a_built_imprimitivity_report_reads_its_module_laws_off_the_context(
        monkeypatch):
    # a build judges the module laws and m-regularity of X and Y once, for
    # the context report (X, Y; A, B, X, Y); the same bimodule assembled by
    # hand is checked in full, to the same digest and summary
    calls = Counter()
    for name in ("check_bimodule", "is_m_regular"):
        def counting(target, _name=name, _check=getattr(engine, name)):
            calls[_name] += 1
            return _check(target)
        monkeypatch.setattr(engine, name, counting)
    for w in _involutive_witnesses():
        calls.clear()
        _, _, imp = build_involutive_context(w)
        assert calls == {"check_bimodule": 2, "is_m_regular": 4}
        calls.clear()
        full = check_imprimitivity(ImprimitivityBimodule(
            imp.a, imp.b, imp.bimodule, imp.inner_a, imp.inner_b))
        assert calls == {"check_bimodule": 2, "is_m_regular": 1}
        assert full.digest() == imp.report.digest()
        assert full.summary() == imp.report.summary()


def test_a_conjugate_off_the_tables_of_y_is_checked_in_full(monkeypatch):
    # the module-Y verdict stands for the conjugate's module laws only when
    # the conjugate has Y's tables; with one action cell off, bottom.top =
    # top, they are checked and fail
    def off_by_a_cell(bim, star_a, star_b):
        conj = conjugate_bimodule(bim, star_a, star_b)
        act = np.array(conj.left.act)
        act[conj.carrier.top, conj.left.quantale.carrier.bottom] = \
            conj.carrier.top
        return Bimodule(ModuleAction("left", conj.left.quantale,
                                     conj.carrier, act), conj.right)

    checked = []
    monkeypatch.setattr(engine, "conjugate_bimodule", off_by_a_cell)
    monkeypatch.setattr(engine, "check_bimodule",
                        lambda bim, _check=engine.check_bimodule:
                        checked.append(bim) or _check(bim))
    for w in _involutive_witnesses():
        if w.x.n == 1:
            continue                      # no cell to set off
        checked.clear()
        with pytest.raises(ConditionsFailed) as failed:
            build_involutive_context(w)
        assert len(checked) == 3
        assert not failed.value.report["conjugate-module-laws"]


def test_a_context_one_cell_off_fails_alike_warm_and_cold():
    for x, y, p, q in _census_witnesses():
        if y is None:
            ctx = build_involutive_context(
                InvolutiveWitness.from_generators(x, p))[0]
        else:
            ctx = build_context_from_pair(
                MoritaPairWitness.from_generators(x, y, p, q))
        a, b, bx, by = ctx.a, ctx.b, ctx.x, ctx.y
        xy, yx = ctx.pair_xy, ctx.pair_yx
        mutants = [MoritaContext(a, b, bx, by, Multimorphism(
                       xy.factors, xy.target, t), yx)
                   for t in one_cell_changes(xy.values, a.n)]
        mutants += [MoritaContext(a, b, bx, by, xy, Multimorphism(
                        yx.factors, yx.target, t))
                    for t in one_cell_changes(yx.values, b.n)]
        mutants += [MoritaContext(a, b, Bimodule(
                        ModuleAction("left", a, bx.carrier, t), bx.right),
                        by, xy, yx)
                    for t in one_cell_changes(bx.left.act, x.n)]
        mutants += [MoritaContext(a, b, bx, Bimodule(
                        by.left, ModuleAction("right", a, by.carrier, t)),
                        xy, yx)
                    for t in one_cell_changes(by.right.act, by.carrier.n)]
        failed = fails_alike_warm_and_cold(check_morita_context, ctx,
                                           mutants)
        assert (failed > 0) == (len(mutants) > 0)


def test_a_map_into_another_target_fails_alike_warm_and_cold():
    # the same values into another order of the same size
    c4, d = chain(4), diamond()
    into_chain = Multimorphism((c4,), c4, range(4))
    into_diamond = Multimorphism((c4,), d, range(4))
    cold = is_multimorphism(into_diamond)
    assert str(cold) == "FAIL slot-0-joins at (x1, x2) - f(x1 v x2) = b " \
        "but f(x1) v f(x2) = 1"
    assert is_multimorphism(into_chain).ok
    assert is_multimorphism(into_diamond) == cold
    # a census pairing into the opposite of its quantale, where that is
    # another order
    flips = 0
    for x, y, p, q in _census_witnesses()[:7]:
        ctx = build_context_from_pair(
            MoritaPairWitness.from_generators(x, y, p, q))
        xy = ctx.pair_xy
        if xy.target.n == 1:
            continue
        flips += 1
        flipped = Multimorphism(xy.factors, opposite(xy.target), xy.values)
        tensor_module._sup_law_memo.clear()
        cold = is_multimorphism(flipped)
        assert not cold.ok
        assert is_multimorphism(xy).ok
        assert is_multimorphism(flipped) == cold
    assert flips > 0


def test_a_failure_names_the_elements_of_its_own_call():
    # the pass kept for the pairing under one naming names no failure under
    # another: each failure is named from its own call's lattices
    lat = chain(3)
    ctx = build_context_from_pair(meet_witness(lat))
    values = ctx.pair_xy.values
    witnesses = set()
    for tag in ("u", "v"):
        x = _renamed(lat, tag)
        a = _renamed(ctx.a.carrier, tag)
        assert is_multimorphism(Multimorphism((x, x), a, values)).ok
        v = is_multimorphism(Multimorphism((x, x), opposite(a), values))
        assert str(v) == (f"FAIL slot-0-bottom at ({tag}2, {tag}2) - "
                          f"f({tag}2, {tag}2) = {tag}2, not bottom")
        witnesses.add(v.witness)
    assert len(witnesses) == 2


# --- tables in range by construction ------------------------------------------------

def _in_range(table, shape, n):
    'The table is what the validating constructors would have made of it.'
    assert table.dtype == np.int64 and not table.flags.writeable
    assert np.array_equal(_index_table(table, shape, n, "checked"), table)


def _maps_in_range(maps):
    for f in maps:
        _in_range(f.values, tuple(g.n for g in f.factors), f.target.n)


def _actions_in_range(bimodules):
    for bim in bimodules:
        for mod in (bim.left, bim.right):
            _in_range(mod.act, (mod.carrier.n, mod.quantale.n),
                      mod.carrier.n)


def test_tables_built_in_range_pass_the_constructor_checks():
    # every table that the census, the context build, image_subquantale,
    # regular_bimodule, conjugate_bimodule and the swap lift wrap unchecked
    for x, y, p, q in _census_witnesses():
        # the census's orbit representatives (the records' tables)
        middle = conjugate_lattice(x) if y is None else y
        assert is_multimorphism(Multimorphism((x, middle, x), x, p)).ok
        if q is not None:
            assert is_multimorphism(Multimorphism((y, x, y), y, q)).ok
        if y is None:
            ctx, _, imp = build_involutive_context(
                InvolutiveWitness.from_generators(x, p))
            _maps_in_range([imp.inner_a, imp.inner_b])
            _actions_in_range([conjugate_bimodule(imp.bimodule, imp.a, imp.b)])
            for t in (ctx.t_xy, ctx.t_yx):
                swap = Multimorphism(t.factors, t.lattice, t.elem_table.T)
                _maps_in_range([tensor_module.lift_multimorphism(swap, t)])
        else:
            ctx = build_context_from_pair(
                MoritaPairWitness.from_generators(x, y, p, q))
        w = extract_pair_from_context(ctx)
        xl, yl = ctx.x.carrier, ctx.y.carrier
        endo_x, endo_y = engine._endo(xl), engine._endo(yl)
        _maps_in_range([
            ctx.pair_xy, ctx.pair_yx, ctx.idx_a, ctx.idx_b,
            engine._operator_family(ctx.t_xy, w.p_gen, xl, endo_x),
            engine._operator_family(ctx.t_yx, w.q_gen, yl, endo_y)])
        for quant in (ctx.a, ctx.b, endo_x, endo_y):
            _in_range(quant.mult, (quant.n, quant.n), quant.n)
        _actions_in_range([ctx.x, ctx.y, regular_bimodule(ctx.a),
                           regular_bimodule(ctx.b)])
    for lat in lattices_up_to(4):
        # the image of a quantale that is not one of operators
        family = Multimorphism((lat,), lat, range(lat.n))
        sub, corestriction = image_subquantale(meet_quantale(lat), family)
        _in_range(sub.mult, (sub.n, sub.n), sub.n)
        _maps_in_range([corestriction])
        # Q(X) renumbered from the entry of its canonical form
        endo = engine._endo(renumbered(lat, range(lat.n)[::-1]))
        _in_range(endo.mult, (endo.n, endo.n), endo.n)


# --- surjectivity failures named afresh ---------------------------------------------

def test_a_surjectivity_failure_is_named_afresh_from_its_own_call(
        monkeypatch):
    calls = []
    generates = engine._generates
    monkeypatch.setattr(engine, "_generates",
                        lambda lat, t: calls.append(lat) or generates(lat, t))
    lat = chain(3)
    table = np.zeros((3, 3), dtype=np.int64)
    table[2, 2] = 1
    seen = []
    for tag in ("u", "v", "u"):
        v = _surjective_by_generators(_renamed(lat, tag), table, f"{tag}-map")
        seen.append(str(v))
    assert seen[0] == seen[2] != seen[1]
    assert seen[1] == ("FAIL v-map-surjective at (v0) - image join-closure "
                       "has 2 of 3 elements")
    assert len(calls) == 3                     # no failure is kept
    # a table that passes on one order fails, named, on another
    table[:] = 1
    table[2, 2] = 2
    assert _surjective_by_generators(lat, table, "map") is PASS
    assert str(_surjective_by_generators(opposite(lat), table, "op")) == (
        "FAIL op-surjective at (0) - image join-closure has 2 of 3 elements")


# --- the exported checks validate their tables --------------------------------------

def test_every_exported_check_rejects_the_m3_meet_table():
    # x ∧ y ∧ z on M3 is not a multimorphism: M3 is not distributive, so
    # a ∧ (b ∨ c) = a but (a ∧ b) ∨ (a ∧ c) = 0. The raw-table checks pass
    # it, since they assume multimorphisms; the witness constructors,
    # through which every exported pair or involutive check is reached,
    # reject it
    x = m3()
    t = meet_tables(x)
    assert conditions_from_tables(x, x, t, t).ok
    assert involutive_conditions_from_tables(x, t).ok
    with pytest.raises(NotAMultimorphism, match="slot-0-joins"):
        MoritaPairWitness(x, x, t, t)
    with pytest.raises(NotAMultimorphism, match="slot-0-joins"):
        InvolutiveWitness(x, t)


def test_the_package_exports_no_raw_table_check_and_no_unused_name():
    removed = {"conditions_from_tables", "involutive_conditions_from_tables",
               "enumerate_trimorphisms", "as_quantale", "NoTop"}
    assert removed.isdisjoint(dir(morita))
    assert not hasattr(mio, "read_elem")
    assert not hasattr(FiniteSupLattice, "meet_of")
    assert list(inspect.signature(enumerate_trimorphisms).parameters) == [
        "x1", "x2", "x3", "z", "cap"]
    assert list(inspect.signature(mio.write_context).parameters) == [
        "dirpath", "ctx"]
