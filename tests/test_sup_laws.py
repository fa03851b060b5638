"""The quantale and module sup-laws, decided by ``is_multimorphism`` on the
product and action tables, against loop-based oracles.

Every single-entry perturbation of the product tables and action tables of
the g<=3 census contexts, of Q(2) and Q(3), and of their regular bimodules
is checked: ``check_quantale`` and ``check_module`` must pass exactly when
no law fails element by element, and must report a law that does fail. The
quantales come with their opposites (the product read right to left).
"""

import numpy as np
import pytest

from morita.census import CensusTask, run_census
from morita.engine import MoritaPairWitness, build_context_from_pair
from morita.lattice import chain
from morita.modules import ModuleAction, check_module, regular_bimodule
from morita.quantale import Quantale, check_quantale, endo_quantale
from oracles import (lat_from_rows, module_laws_failing,
                     quantale_laws_failing)


@pytest.fixture(scope="module")
def samples():
    'Distinct quantales and module actions of the sample contexts.'
    quantales = [endo_quantale(chain(2)), endo_quantale(chain(3))]
    modules = []
    for q in quantales:
        bim = regular_bimodule(q)
        modules += [bim.left, bim.right]
    records, _ = run_census(CensusTask(max_x=3))
    assert records
    for rec in records:
        ctx = build_context_from_pair(MoritaPairWitness.from_generators(
            lat_from_rows(rec.x_leq), lat_from_rows(rec.y_leq),
            np.array(rec.p, dtype=np.int64), np.array(rec.q, dtype=np.int64)))
        quantales += [ctx.a, ctx.b]
        modules += [ctx.x.left, ctx.x.right, ctx.y.left, ctx.y.right]
    quantales += [Quantale(q.carrier, q.mult.T) for q in quantales]
    return list(dict.fromkeys(quantales)), list(dict.fromkeys(modules))


def _perturbations(table, values):
    'Every table that differs from this one in exactly one entry.'
    for idx in np.ndindex(table.shape):
        for v in range(values):
            if v != table[idx]:
                out = table.copy()
                out[idx] = v
                yield out


def _agrees(verdict, failing):
    assert bool(verdict) == (not failing), (str(verdict), failing)
    assert verdict or verdict.law in failing, (str(verdict), failing)
    if not verdict:
        # the witness names every argument of the broken call
        assert len(verdict.witness) in (2, 3) and verdict.detail
    return verdict.law


def test_check_quantale_agrees_with_the_loop_oracle(samples):
    quantales, _ = samples
    reported = []
    for q in quantales:
        assert check_quantale(q).ok and not quantale_laws_failing(q)
        for mult in _perturbations(q.mult, q.n):
            p = Quantale(q.carrier, mult)
            reported.append(_agrees(check_quantale(p), quantale_laws_failing(p)))
    assert len(reported) > 400
    assert {"associative", "right-distributive", "left-annihilation",
            "right-annihilation"} < set(reported)


def test_check_module_agrees_with_the_loop_oracle(samples):
    _, modules = samples
    reported = []
    for mod in modules:
        assert check_module(mod).ok and not module_laws_failing(mod)
        for act in _perturbations(mod.act, mod.carrier.n):
            p = ModuleAction(mod.side, mod.quantale, mod.carrier, act)
            reported.append(_agrees(check_module(p), module_laws_failing(p)))
    assert len(reported) > 400
    assert {"M1: (ab).m = a.(b.m)", "M1: m.(ab) = (m.a).b",
            "M2: (m v n).a = m.a v n.a", "M3: m.0 = 0",
            "M3: m.(a v b) = m.a v m.b"} < set(reported)


@pytest.mark.parametrize("law, table", [
    ("left-distributive", [[0, 0, 0], [0, 1, 0], [0, 2, 0]]),
    ("right-distributive", [[0, 0, 0], [0, 1, 2], [0, 0, 0]]),
    ("left-annihilation", [[0, 0, 2], [0, 0, 2], [0, 0, 2]]),
    ("right-annihilation", [[0, 0, 0], [0, 0, 0], [2, 2, 2]])])
def test_each_sup_law_is_reported_by_its_name(law, table):
    # associative products on the 3-chain that break exactly one sup-law
    q = Quantale(chain(3), table)
    assert quantale_laws_failing(q) == {law}
    v = check_quantale(q)
    assert v.law == law
    assert len(v.witness) == (3 if law.endswith("distributive") else 2)
