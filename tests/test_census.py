"""Candidate enumeration and the exhaustive witness census."""

import hashlib
import itertools
import json
import math
import pickle
from collections import Counter

import numpy as np
import pytest

import morita.census
import morita.engine
from conftest import lattices_up_to, meet_tables
from morita.census import (CensusRecord, CensusTask, _space_worker,
                           _surjective_tables, enumerate_multimorphisms,
                           enumerate_trimorphisms, run_census)
from morita.engine import conditions_from_tables
from morita.enumeration import enumerate_lattices
from morita.errors import DomainMismatch, ResourceLimit
from morita.io import leq_rows
from morita.lattice import (chain, conjugate_lattice, diamond, join_closure,
                            m3, n5)
from morita.tensor import Multimorphism, is_multimorphism
from oracles import (enumerate_multimorphisms_bruteforce, general_space,
                     lat_from_rows)


def test_a_lattice_read_back_from_its_rows_is_the_validated_one():
    # the tests build a record's lattices directly from the rows that
    # run_census wrote from validated ones
    for lat in lattices_up_to(5):
        got = lat_from_rows(leq_rows(lat))
        assert got == lat and got.names == lat.names
        assert (got.bottom, got.top) == (lat.bottom, lat.top)
        assert np.array_equal(got.join, lat.join)
        assert np.array_equal(got.meet, lat.meet)


def test_trimorphism_count_on_two_chains():
    x = chain(2)
    all_tri = list(enumerate_multimorphisms((x, x, x), x))
    assert len(all_tri) == 2
    onto = list(enumerate_trimorphisms(x, x, x, x))
    assert len(onto) == 1
    assert np.array_equal(onto[0].values, meet_tables(x))


def test_bimorphism_count_on_three_chains():
    x = chain(3)
    fast = {f.values.tobytes()
            for f in enumerate_multimorphisms((x, x), x)}
    brute = {f.values.tobytes()
             for f in enumerate_multimorphisms_bruteforce((x, x), x)}
    assert fast == brute
    assert len(fast) == 20


def test_middle_two_chain_slot_forces_a_slice():
    # a (3,2,3)->3 trimorphism is its top slice: the bottom slice is forced
    # to bottom, so the count equals the (3,3)->3 bimorphism count
    x, mid = chain(3), chain(2)
    tris = list(enumerate_multimorphisms((x, mid, x), x))
    assert len(tris) == 20
    tops = set()
    for f in tris:
        assert not f.values[:, 0, :].any()
        tops.add(f.values[:, 1, :].tobytes())
    assert len(tops) == 20


def test_single_factor_multimorphisms_are_sup_maps():
    for lat in (m3(), n5()):
        uni = {tuple(int(v) for v in f.values.reshape(-1))
               for f in enumerate_multimorphisms((lat,), lat)}
        sup = {tuple(f.values.tolist())
               for f in enumerate_multimorphisms_bruteforce((lat,), lat)}
        assert uni == sup


def test_enumeration_against_bruteforce_on_mixed_factors():
    # M3 and N5 are not distributive: there some monotone assignments on
    # join-irreducibles do not extend, and the enumerator must drop them
    cases = [((chain(2), chain(3)), chain(2)),
             ((diamond(), chain(2)), diamond()),
             ((chain(2), chain(2), chain(2)), chain(2)),
             ((m3(), chain(2)), chain(2)),
             ((chain(2), n5()), chain(2))]
    for factors, target in cases:
        fast = {f.values.tobytes()
                for f in enumerate_multimorphisms(factors, target)}
        brute = {f.values.tobytes()
                 for f in enumerate_multimorphisms_bruteforce(factors, target)}
        assert fast == brute


def test_surjective_filter_matches_the_join_closure_filter():
    # the irreducibles test against the join-closure filter it replaced, on
    # every space of the g<=3, i<=3 and x=4,y<=2 censuses
    small = lattices_up_to(3)
    sizes4 = [lat for lat in lattices_up_to(4) if lat.n == 4]
    pairs = ([(x, y) for x in small for y in small]
             + [(x, y) for x in sizes4 for y in lattices_up_to(2)])
    spaces = ([(x, y, x, x) for x, y in pairs]
              + [(y, x, y, y) for x, y in pairs]
              + [(x, conjugate_lattice(x), x, x) for x in small])
    kept = total = 0
    for space in spaces:
        z = space[3]
        fast = [f.values for f in enumerate_trimorphisms(*space)]
        every = [f.values for f in enumerate_multimorphisms(space[:3], z)]
        ref = [t for t in every
               if len(join_closure(z, set(t.ravel().tolist()))) == z.n]
        assert len(fast) == len(ref)
        assert all(np.array_equal(a, b) for a, b in zip(fast, ref))
        kept, total = kept + len(fast), total + len(every)
    assert 0 < kept < total


def test_enumeration_cap():
    # the cap fires on the first table past it, mid-enumeration, whether
    # or not the leaves are checked
    for factors, z in (((chain(3), chain(3)), chain(3)), ((m3(),), m3())):
        first = list(itertools.islice(enumerate_multimorphisms(factors, z), 4))
        capped = enumerate_multimorphisms(factors, z, cap=3)
        assert [next(capped) for _ in range(3)] == first[:3]
        with pytest.raises(ResourceLimit,
                           match="^more than 3 multimorphisms in one space$"):
            next(capped)


def test_census_task_validation():
    with pytest.raises(DomainMismatch):
        CensusTask(max_x=0)
    with pytest.raises(DomainMismatch):
        CensusTask(max_x=2, min_x=3)
    with pytest.raises(DomainMismatch):
        CensusTask(max_x=2, tri_cap=0)
    task = CensusTask(max_x=2)
    assert task.max_y == 2


def test_exact_size_two_census_is_the_meet_witness():
    records, summary = run_census(CensusTask(max_x=2, min_x=2, min_y=2))
    assert summary["records"] == 1 and len(records) == 1
    rec = records[0]
    assert rec.mode == "general"
    assert rec.x_leq == ("11", "01") and rec.y_leq == ("11", "01")
    meet = meet_tables(chain(2))
    assert np.array_equal(np.array(rec.p), meet)
    assert np.array_equal(np.array(rec.q), meet)
    assert rec.l_size == 2 and rec.r_size == 2
    assert all(rec.digests["conditions"].values())
    assert all(rec.digests["context"].values())


def test_size_one_census_is_vacuous():
    records, summary = run_census(CensusTask(max_x=1))
    assert len(records) == 1
    assert records[0].l_size == 1 and records[0].r_size == 1


def test_census_brute_force_agreement_at_size_two():
    """Independent brute force over every pair of value tables, not just
    trimorphism-pruned candidates: the decision procedure (both tables
    slotwise join-preserving, conditions 1-6 with surjectivity) finds the
    same single witness."""
    x = chain(2)
    passing = []
    for pv in itertools.product(range(2), repeat=8):
        p = np.array(pv, dtype=np.int64).reshape(2, 2, 2)
        p_ok = bool(is_multimorphism(Multimorphism((x, x, x), x, p)))
        for qv in itertools.product(range(2), repeat=8):
            q = np.array(qv, dtype=np.int64).reshape(2, 2, 2)
            if not (p_ok and is_multimorphism(Multimorphism((x, x, x), x, q))):
                continue
            if conditions_from_tables(x, x, p, q).ok:
                passing.append((p, q))
    assert len(passing) == 1
    meet = meet_tables(x)
    assert np.array_equal(passing[0][0], meet)
    assert np.array_equal(passing[0][1], meet)


# pinned after the first verified run; the census is its own oracle here
N3_GENERAL = 7
N3_INVOLUTIVE = 7
# sha256 of the g<=3 and i<=3 JSONL files, as perfbench/reference.json pins
SHA_G3 = "de72989cf3d96c305924821016ed56f423560b19d750958735a9984fd22fcefe"
SHA_I3 = "817e5bb8fa719bb99a22495fde58b577226378a2e89cd4a3065eb3b73b6e8f74"


def test_census_size_three_regression():
    records, summary = run_census(CensusTask(max_x=3))
    assert summary["records"] == N3_GENERAL
    assert not summary["skipped"]
    for rec in records:
        assert all(rec.digests["conditions"].values())
        assert all(rec.digests["context"].values())


def test_involutive_census_size_three_regression(tmp_path):
    path = tmp_path / "i3.jsonl"
    records, summary = run_census(CensusTask(max_x=3, involutive=True,
                                             out=str(path)))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SHA_I3
    assert summary["records"] == N3_INVOLUTIVE
    stars = {rec.star_a for rec in records}
    assert (0, 1, 3, 2, 4, 5) in stars
    for rec in records:
        assert rec.q is None and rec.y_leq is None
        assert all(rec.digests["imprimitivity"].values())


def test_involutive_census_size_three_counts(monkeypatch):
    # the i<=3 row of perfbench/reference.json, counted on the names that
    # the benchmark's tracer rebinds in morita.census
    counts = Counter()
    for name in ("enumerate_multimorphisms", "enumerate_trimorphisms"):
        def yielding(*args, _gen=getattr(morita.census, name), _name=name,
                     **kwargs):
            for item in _gen(*args, **kwargs):
                counts[_name] += 1
                yield item
        monkeypatch.setattr(morita.census, name, yielding)
    for name in ("conditions_from_tables", "involutive_conditions_from_tables"):
        def calling(*args, _check=getattr(morita.census, name), _name=name):
            counts[_name] += 1
            return _check(*args)
        monkeypatch.setattr(morita.census, name, calling)
    _, summary = run_census(CensusTask(max_x=3, involutive=True))
    assert counts == {"enumerate_multimorphisms": 171,
                      "enumerate_trimorphisms": 131,
                      "involutive_conditions_from_tables": 131}
    assert counts["conditions_from_tables"] == 0
    assert summary["witnesses"] == N3_INVOLUTIVE


def test_involutive_census_checks_each_imprimitivity_once(monkeypatch):
    # a record's imprimitivity digest is the report its build kept; the
    # build makes it with engine._imprimitivity_report, the body of
    # check_imprimitivity
    calls = []
    for module, name in ((morita.census, "check_imprimitivity"),
                         (morita.engine, "check_imprimitivity"),
                         (morita.engine, "_imprimitivity_report")):
        def counting(imp, *ctx, _check=getattr(module, name)):
            calls.append(imp)
            return _check(imp, *ctx)
        monkeypatch.setattr(module, name, counting)
    records, _ = run_census(CensusTask(max_x=3, involutive=True))
    assert len(records) == N3_INVOLUTIVE == len(calls)


def test_involutive_census_exact_size_two():
    records, _ = run_census(CensusTask(max_x=2, min_x=2, involutive=True))
    assert len(records) == 1
    assert np.array_equal(np.array(records[0].p), meet_tables(chain(2)))


def test_census_deterministic_across_workers(tmp_path):
    outs = []
    for jobs in (1, 2):
        path = tmp_path / f"census-{jobs}.jsonl"
        _, summary = run_census(CensusTask(max_x=3, jobs=jobs, out=str(path)))
        assert summary["spaces"] == 9
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]
    assert hashlib.sha256(outs[0]).hexdigest() == SHA_G3
    lines = outs[0].decode().splitlines()
    assert len(lines) == N3_GENERAL
    parsed = [json.loads(l) for l in lines]
    assert [json.dumps(p, sort_keys=True, separators=(",", ":"))
            for p in parsed] == lines


def test_a_pickled_diagonal_unit_keeps_its_one_lattice(monkeypatch):
    # a worker process gets its unit pickled: the diagonal must stay one
    # object there, or _search would check both orders of every pair
    x = enumerate_lattices(3)[0]
    unit = (x, x, False, CensusTask(1).tri_cap)
    back = pickle.loads(pickle.dumps(unit))
    assert back[0] is back[1] and back[0] is not x and back[0] == x
    calls = []
    check = morita.census.conditions_from_tables

    def counted(*args):
        calls.append(args[0] is args[1])
        return check(*args)

    monkeypatch.setattr(morita.census, "conditions_from_tables", counted)
    runs = []
    for args in (unit, back):
        del calls[:]
        records, candidates, witnesses, skips = _space_worker(args)
        runs.append(([r.json_line() for r in records], candidates, witnesses,
                     skips, len(calls)))
        assert all(calls)
    assert runs[0] == runs[1]
    lines, candidates, witnesses, skips, checked = runs[0]
    size = math.isqrt(candidates)     # |P| x |P| candidates, i <= j checked
    assert lines and witnesses and not skips
    assert size * size == candidates and checked == size * (size + 1) // 2


def test_census_records_sorted():
    records, _ = run_census(CensusTask(max_x=3))
    keys = [r.sort_key() for r in records]
    assert keys == sorted(keys)


def test_census_resource_cap_fails_soft():
    reason = "more than 1 multimorphisms in one space"
    two = ["11", "01"]
    records, summary = run_census(CensusTask(max_x=2, tri_cap=1))
    # only the 2-chain pair has more than one trimorphism per side
    assert summary["skipped"] == [{"x_leq": two, "y_leq": two,
                                   "reason": reason}]
    assert len(records) == 1  # the vacuous one-point space still completes
    assert records[0].x_leq == ("1",) and records[0].y_leq == ("1",)

    records, summary = run_census(CensusTask(max_x=2, tri_cap=1,
                                             involutive=True))
    assert summary["skipped"] == [{"x_leq": two, "reason": reason}]
    assert [(r.mode, r.x_leq) for r in records] == [("involutive", ("1",))]

    # c2 x c3 and c3 x c2 are one search: a cap that stops it skips both
    # orders, as it did when each order was searched alone
    reason, three = "more than 10 multimorphisms in one space", ["111", "011",
                                                                "001"]
    records, summary = run_census(CensusTask(max_x=3, tri_cap=10))
    assert summary["skipped"] == [
        {"x_leq": two, "y_leq": three, "reason": reason},
        {"x_leq": three, "y_leq": two, "reason": reason},
        {"x_leq": three, "y_leq": three, "reason": reason}]
    assert (summary["spaces"], summary["candidates"], summary["witnesses"],
            len(records)) == (9, 2, 2, 2)


def test_census_record_json_roundtrip():
    records, _ = run_census(CensusTask(max_x=2))
    for rec in records:
        data = json.loads(rec.json_line())
        assert data["mode"] == rec.mode
        assert tuple(data["x_leq"]) == rec.x_leq


# the laws of (X, Y, p, q) as the laws of (Y, X, q, p)
MIRRORED_LAW = {"p-surjective": "q-surjective", "q-surjective": "p-surjective",
                "condition-1": "condition-2", "condition-2": "condition-1",
                "condition-3": "condition-5", "condition-5": "condition-3",
                "condition-4": "condition-6", "condition-6": "condition-4"}


def test_a_pair_fails_the_mirrored_laws_of_its_mirror():
    # the census checks (X, Y, p, q) for (Y, X, q, p) too; here both are
    # checked on the surjective tables, before the slice filter, of every
    # space with |X|, |Y| <= 3 and of c1/c2 x c4/diamond in both orders
    small = lattices_up_to(3)
    edge = [lat for lat in lattices_up_to(4) if lat.n == 4]
    spaces = ([(x, y) for x in small for y in small]
              + [(x, y) for x in lattices_up_to(2) for y in edge]
              + [(y, x) for x in lattices_up_to(2) for y in edge])
    pairs = 0
    failed = set()
    for x, y in spaces:
        qs = _surjective_tables(y, x, None)
        for p in _surjective_tables(x, y, None):
            for q in qs:
                rep = conditions_from_tables(x, y, p, q)
                mirror = conditions_from_tables(y, x, q, p)
                assert rep.ok == mirror.ok
                if not rep.ok:
                    laws = {MIRRORED_LAW[k] for k, v in rep.checks.items()
                            if not v.ok}
                    assert laws == {k for k, v in mirror.checks.items()
                                    if not v.ok}
                    failed |= laws
                pairs += 1
    assert pairs == 20423
    assert failed == {f"condition-{i}" for i in range(1, 7)}


@pytest.mark.parametrize("bounds", [dict(max_x=3),
                                    dict(min_x=4, max_x=4, max_y=2),
                                    dict(max_x=2, min_y=4, max_y=4)])
def test_mirrored_census_matches_the_search_of_each_order(bounds):
    # one search per unordered pair {X, Y} gives, space by space, the bytes
    # and counts of searching every ordered space (X, Y) alone
    task = CensusTask(**bounds)
    records, summary = run_census(task)
    by_space = {}
    for rec in records:
        by_space.setdefault((rec.x_leq, rec.y_leq), []).append(rec.json_line())
    lats = {n: lattices_up_to(n) for n in (task.max_x, task.max_y)}
    candidates = witnesses = spaces = 0
    for x in lats[task.max_x]:
        for y in lats[task.max_y]:
            if x.n < task.min_x or y.n < task.min_y:
                continue
            recs, cands, wits = general_space(x, y, task.tri_cap)
            recs.sort(key=CensusRecord.sort_key)
            assert [r.json_line() for r in recs] == by_space.pop(
                (leq_rows(x), leq_rows(y)), [])
            candidates, witnesses = candidates + cands, witnesses + wits
            spaces += 1
    assert by_space == {}
    assert (spaces, candidates, witnesses) == (
        summary["spaces"], summary["candidates"], summary["witnesses"])
