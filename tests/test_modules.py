"""Module actions, bimodule laws, m-regularity, conjugates."""

import numpy as np
import pytest

from conftest import (fails_alike_warm_and_cold, lattices_up_to,
                      meet_quantale, one_cell_changes, shuffled)
from morita.errors import DomainMismatch, MissingInvolution, ShapeMismatch
from morita.lattice import chain, diamond
from morita.modules import (Bimodule, ModuleAction, check_bimodule,
                            check_module, conjugate_bimodule, essential_part,
                            is_m_regular, is_separated, regular_bimodule)
from morita.quantale import (InvolutiveQuantale, Quantale,
                             as_involutive_quantale, check_quantale,
                             endo_quantale)
from oracles import essential_by_closure


def zero_quantale(lat):
    return Quantale(lat, np.zeros((lat.n, lat.n), dtype=np.int64))


def test_regular_bimodule_laws():
    for q in (meet_quantale(chain(3)), meet_quantale(diamond()),
              endo_quantale(chain(2)), endo_quantale(chain(3))):
        bim = regular_bimodule(q)
        rep = check_bimodule(bim)
        assert rep.ok, rep.summary()


def test_natural_action_of_endo_quantale():
    # Q(X) acts on X by application; this is a left module
    lat = chain(3)
    q = endo_quantale(lat)
    act = np.array(q.op_values).T
    mod = ModuleAction("left", q, lat, act)
    rep = check_module(mod)
    assert rep.ok, rep.summary()
    reg = is_m_regular(mod)
    assert reg.m_regular


def test_meet_quantales_are_m_regular():
    for lat in (chain(2), chain(3), chain(4), diamond()):
        rep = is_m_regular(meet_quantale(lat))
        assert rep.m_regular and rep.essential and rep.separated


def test_endo_quantales_are_m_regular():
    for lat in (chain(2), chain(3), diamond()):
        assert is_m_regular(endo_quantale(lat)).m_regular


def test_zero_quantale_is_not_separated():
    rep = is_m_regular(zero_quantale(chain(2)))
    assert not rep.m_regular
    assert not rep.separated
    assert not rep.essential
    assert rep.essential_part == (0,)


def test_essential_part_and_separation_of_zero_action():
    lat = chain(3)
    q = meet_quantale(chain(2))
    act = np.zeros((3, 2), dtype=np.int64)
    mod = ModuleAction("left", q, lat, act)
    assert essential_part(mod) == (0,)
    sep = is_separated(mod)
    assert not sep.ok and sep.witness


def test_module_action_validation():
    lat = chain(3)
    q = meet_quantale(chain(2))
    from morita.errors import MoritaError
    with pytest.raises(MoritaError):
        ModuleAction("left", q, lat, np.zeros((2, 2), dtype=np.int64))


def test_check_module_flags_broken_associativity():
    # acting by constant top keeps M1 but breaks bottom annihilation
    lat = chain(2)
    q = meet_quantale(lat)
    act = np.ones((2, 2), dtype=np.int64)
    rep = check_module(ModuleAction("left", q, lat, act))
    assert not rep.ok
    assert rep.law == "M2: 0.a = 0" and rep.witness == ("0", "0")


def test_conjugate_bimodule_roundtrip():
    q = meet_quantale(chain(3))
    iq = as_involutive_quantale(q, tuple(range(3)))
    bim = regular_bimodule(q)
    conj = conjugate_bimodule(bim, iq, iq)
    assert check_bimodule(conj).ok
    # sides swap carriers of action
    assert np.array_equal(conj.left.act, bim.right.act)
    assert np.array_equal(conj.right.act, bim.left.act)
    again = conjugate_bimodule(conj, iq, iq)
    assert np.array_equal(again.left.act, bim.left.act)
    assert np.array_equal(again.right.act, bim.right.act)


def test_conjugate_with_nontrivial_star():
    q = endo_quantale(chain(3))
    iq = as_involutive_quantale(q, (0, 1, 3, 2, 4, 5))
    conj = conjugate_bimodule(regular_bimodule(q), iq, iq)
    assert check_bimodule(conj).ok
    sa = np.array(iq.star)
    assert np.array_equal(conj.left.act, q.mult[:, sa])


def test_conjugate_rejects_foreign_star():
    q3 = meet_quantale(chain(3))
    q2 = meet_quantale(chain(2))
    iq2 = as_involutive_quantale(q2, (0, 1))
    with pytest.raises(DomainMismatch):
        conjugate_bimodule(regular_bimodule(q3), iq2, iq2)


def test_conjugate_rejects_a_star_table_out_of_range():
    # the conjugate's actions are gathers by the star, wrapped unchecked, so
    # a star built by hand is range-checked first
    q = meet_quantale(chain(3))
    for star, error in (((0, 1, 3), DomainMismatch),
                        ((0, 1, -1), DomainMismatch),
                        ((0, 1), ShapeMismatch)):
        with pytest.raises(error, match="star table"):
            conjugate_bimodule(regular_bimodule(q),
                               InvolutiveQuantale(q, star), (0, 1, 2))


def test_conjugate_accepts_raw_star_table():
    q = meet_quantale(chain(3))
    conj = conjugate_bimodule(regular_bimodule(q), (0, 1, 2), (0, 1, 2))
    assert check_bimodule(conj).ok
    with pytest.raises(MissingInvolution):
        conjugate_bimodule(regular_bimodule(q), (1, 0, 2), (0, 1, 2))


def test_bimodule_balance_checked():
    # left and right meet actions on the same chain commute
    lat = chain(3)
    q = meet_quantale(lat)
    bim = Bimodule(ModuleAction("left", q, lat, lat.meet),
                   ModuleAction("right", q, lat, lat.meet))
    assert check_bimodule(bim).ok


def test_failing_verdicts_name_the_first_counterexample():
    # captured before these laws moved to errors.table_law and
    # errors.slice_collision
    c2, c3 = chain(2), chain(3)
    q2 = meet_quantale(c2)
    assert str(check_module(ModuleAction("left", q2, c2, [[0, 1], [0, 1]]))) \
        == "FAIL M1: (ab).m = a.(b.m) at (0, 1, 0) - 0 vs 1"
    assert str(check_module(ModuleAction("right", q2, c2, [[0, 1], [0, 1]]))) \
        == "FAIL M1: m.(ab) = (m.a).b at (0, 0, 1) - 0 vs 1"
    endo = endo_quantale(c3)
    bim = Bimodule(ModuleAction("left", endo, c3, np.array(endo.op_values).T),
                   ModuleAction("right", meet_quantale(c3), c3, c3.meet))
    assert str(check_bimodule(bim)) == (
        "FAIL commute: (a.m).b = a.(m.b) at (x1, [0 1 1], x1) - x1 vs 1")
    zero = ModuleAction("left", q2, c3, np.zeros((3, 2), dtype=np.int64))
    assert str(is_separated(zero)) == (
        "FAIL separated at (0, x1) - both act identically on every quantale "
        "element")


def test_regularity_reports_match_the_join_closure_definition():
    # random action tables, essential or not, on lattices of size <= 5 and
    # shuffled copies; the report reads the table only, so no module law
    # needs to hold
    rng = np.random.default_rng(15)
    lats = lattices_up_to(5)
    lats += [shuffled(lat, rng) for lat in lats]
    essential, regular = [], []
    for _ in range(400):
        m, a = (lats[i] for i in rng.integers(len(lats), size=2))
        values = rng.choice(m.n, size=rng.integers(1, m.n + 1), replace=False)
        act = rng.choice(values, size=(m.n, a.n))
        mod = ModuleAction(("left", "right")[rng.integers(2)],
                           meet_quantale(a), m, act)
        rep = is_m_regular(mod)
        part, whole = essential_by_closure(mod)
        separated = len({row.tobytes() for row in mod.act}) == m.n
        assert (rep.essential, rep.essential_part) == (whole, part)
        assert rep.separated == separated
        assert rep.m_regular == (whole and separated)
        essential.append(whole)
        regular.append(rep.m_regular)
    assert 0 < sum(regular) < sum(essential) < len(essential)


# --- passes kept by content ------------------------------------------------------

def test_a_quantale_one_cell_off_fails_alike_warm_and_cold():
    for q in (endo_quantale(chain(3)), meet_quantale(diamond())):
        mutants = [Quantale(q.carrier, m)
                   for m in one_cell_changes(q.mult, q.n)]
        assert fails_alike_warm_and_cold(check_quantale, q, mutants) > 0


def test_a_bimodule_one_cell_off_fails_alike_warm_and_cold():
    # each table the check reads: both actions and both products
    bim = regular_bimodule(endo_quantale(chain(3)))
    left, right, c = bim.left, bim.right, bim.carrier
    a, b = left.quantale, right.quantale
    tables = {
        "left action": [Bimodule(ModuleAction("left", a, c, t), right)
                        for t in one_cell_changes(left.act, c.n)],
        "right action": [Bimodule(left, ModuleAction("right", b, c, t))
                         for t in one_cell_changes(right.act, c.n)],
        "left product": [Bimodule(ModuleAction(
            "left", Quantale(a.carrier, m), c, left.act), right)
            for m in one_cell_changes(a.mult, a.n)],
        "right product": [Bimodule(left, ModuleAction(
            "right", Quantale(b.carrier, m), c, right.act))
            for m in one_cell_changes(b.mult, b.n)]}
    for what, mutants in tables.items():
        assert fails_alike_warm_and_cold(check_bimodule, bim, mutants) \
            > 0, what


def test_regularity_one_cell_off_fails_alike_warm_and_cold():
    # a quantale is judged only when its laws hold, so only actions change
    bim = regular_bimodule(meet_quantale(chain(3)))
    left, right, c = bim.left, bim.right, bim.carrier
    mutants = [Bimodule(ModuleAction("left", left.quantale, c, t), right)
               for t in one_cell_changes(left.act, c.n)]
    mutants += [Bimodule(left, ModuleAction("right", right.quantale, c, t))
                for t in one_cell_changes(right.act, c.n)]
    failed = 0
    for mutant in mutants:
        cold = is_m_regular(mutant)
        if cold.m_regular:
            continue
        assert is_m_regular(bim).m_regular
        assert is_m_regular(left.quantale).m_regular
        assert is_m_regular(mutant) == cold
        failed += 1
    assert failed > 0


def test_failures_under_new_names_name_their_own_elements():
    # a pass kept for the same tables under other names serves no failure
    c3 = chain(3)
    endo = endo_quantale(c3)
    lefts = np.array(endo.op_values).T
    for names in (("0", "x1", "1"), ("p", "q", "r")):
        x = c3.relabel(names)
        meet = meet_quantale(x)
        assert check_bimodule(Bimodule(ModuleAction("left", meet, x, x.meet),
                                       ModuleAction("right", meet, x, x.meet)))
        bim = Bimodule(ModuleAction("left", endo, x, lefts),
                       ModuleAction("right", meet, x, x.meet))
        assert str(check_bimodule(bim)) == (
            f"FAIL commute: (a.m).b = a.(m.b) at ({names[1]}, "
            f"[0 1 1], {names[1]}) - {names[1]} vs {names[2]}")
        zero = zero_quantale(x)
        assert is_m_regular(meet).m_regular
        assert is_m_regular(zero).separation_witness == names[:2]
