"""Quantale laws, endomorphism quantales, subquantales, involutions."""

import itertools

import numpy as np
import pytest

from conftest import meet_quantale
from morita.errors import (DomainMismatch, MissingInvolution,
                           NotAMultimorphism, NotCompositionClosed)
from morita.lattice import chain, diamond, m3
from morita.quantale import (InvolutiveQuantale, OperatorQuantale, Quantale,
                             as_involutive_quantale, as_quantale,
                             check_quantale, endo_quantale, image_subquantale,
                             is_quantale_involution)
from morita.tensor import Multimorphism


def test_endo_quantale_sizes():
    for lat, expect in ((chain(2), 2), (chain(3), 6), (diamond(), 16)):
        q = endo_quantale(lat)
        assert q.n == expect
        assert check_quantale(q).ok


def test_endo_multiplication_is_composition():
    lat = chain(3)
    q = endo_quantale(lat)
    for i, f in enumerate(q.op_values):
        for k, g in enumerate(q.op_values):
            composed = tuple(f[v] for v in g)
            assert tuple(q.op_values[q.mult[i, k]]) == composed


def test_endo_unit_is_identity():
    q = endo_quantale(diamond())
    assert tuple(q.op_values[q.unit]) == tuple(range(4))
    idx = np.arange(q.n)
    assert np.array_equal(q.mult[q.unit, idx], idx)
    assert np.array_equal(q.mult[idx, q.unit], idx)


def test_meet_quantales_and_their_limits():
    for lat in (chain(3), diamond()):
        assert check_quantale(meet_quantale(lat)).ok
    # join fails a.0 = 0, meet on m3 fails distributivity over joins
    assert not check_quantale(Quantale(chain(3), chain(3).join)).ok
    assert not check_quantale(Quantale(m3(), m3().meet)).ok


def test_zero_quantale_is_a_quantale():
    lat = chain(2)
    assert check_quantale(Quantale(lat, np.zeros((2, 2), np.int64))).ok


def test_check_quantale_rejects_bottom_absorber_violation():
    # constant table: a * bottom must be bottom but is x1
    lat = chain(3)
    q = Quantale(lat, np.full((3, 3), 1, dtype=np.int64))
    rep = check_quantale(q)
    assert not rep.ok


def test_as_quantale_raises_with_report():
    lat = chain(3)
    from morita.errors import MoritaError
    with pytest.raises(MoritaError):
        as_quantale(lat, np.full((3, 3), 1, dtype=np.int64))


def test_image_subquantale_closed_family():
    q = endo_quantale(chain(3))
    # family generated by one idempotent operator together with bottom
    f = q.carrier.names.index("[0 0 1]")
    fam = Multimorphism((chain(2),), q.carrier, (q.carrier.bottom, f))
    sub, core = image_subquantale(q, fam)
    assert isinstance(sub, OperatorQuantale)
    assert sub.n == 2
    assert check_quantale(sub).ok
    # corestriction lands in the subquantale, onto, and agrees with inclusion
    assert core.factors == fam.factors and core.target == sub.carrier
    assert set(core.values.tolist()) == set(range(sub.n))
    assert [sub.names[c] for c in core.values] == [q.names[e]
                                                   for e in fam.values]


def test_image_subquantale_rejects_unclosed_family():
    q = endo_quantale(chain(3))
    names = q.carrier.names
    f = names.index("[0 0 1]")
    g = names.index("[0 x1 x1]")
    fg = q.carrier.join[f, g]
    fam = Multimorphism((diamond(),), q.carrier, (q.carrier.bottom, f, g, fg))
    with pytest.raises(NotCompositionClosed):
        image_subquantale(q, fam)


def test_image_subquantale_rejects_a_family_that_breaks_joins():
    q = endo_quantale(chain(3))
    f = q.carrier.names.index("[0 0 1]")
    with pytest.raises(NotAMultimorphism):
        image_subquantale(q, Multimorphism((chain(2),), q.carrier, (f, f)))
    with pytest.raises(DomainMismatch):
        image_subquantale(q, Multimorphism((chain(2),), chain(2), (0, 1)))


def test_quantale_involution_identity_on_commutative():
    q = meet_quantale(diamond())
    assert is_quantale_involution(q, tuple(range(4))).ok
    iq = as_involutive_quantale(q, tuple(range(4)))
    assert isinstance(iq, InvolutiveQuantale)
    assert iq.quantale == q


def test_quantale_involution_on_endo_quantale():
    q = endo_quantale(chain(3))
    # identity fails: composition is not commutative
    assert not is_quantale_involution(q, tuple(range(6))).ok
    # swapping the two one-sided step operators works
    star = (0, 1, 3, 2, 4, 5)
    assert is_quantale_involution(q, star).ok
    iq = as_involutive_quantale(q, star)
    # star is an antihomomorphism: (fg)* = g*f*
    for i, k in itertools.product(range(6), repeat=2):
        assert iq.star[q.mult[i, k]] == q.mult[iq.star[k], iq.star[i]]


def test_as_involutive_quantale_rejects_bad_star():
    q = endo_quantale(chain(3))
    with pytest.raises(MissingInvolution):
        as_involutive_quantale(q, tuple(range(6)))
    with pytest.raises(DomainMismatch):
        is_quantale_involution(q, (0, 1))


def test_quantale_equality_ignores_names():
    lat = chain(3)
    q1 = meet_quantale(lat)
    q2 = Quantale(lat.relabel(("a", "b", "c")), lat.meet)
    assert q1 == q2
    q3 = Quantale(lat, lat.join)
    assert q1 != q3


def test_failing_verdicts_name_the_first_counterexample():
    # captured before these laws moved to errors.table_law
    lat = chain(3)
    mult = np.array([[0, 0, 0], [0, 2, 1], [0, 1, 1]])
    assert str(check_quantale(Quantale(lat, mult))) == (
        "FAIL associative at (x1, x1, 1) - (ab)c = x1 but a(bc) = 1")
    q = endo_quantale(lat)
    assert str(is_quantale_involution(q, tuple(range(6)))) == (
        "FAIL antihomomorphism at ([0 0 x1], [0 0 1]) - "
        "(ab)* = [0 0 x1] but b*a* = [0 0 0]")
    assert str(is_quantale_involution(q, (1, 2, 0, 3, 4, 5))) == (
        "FAIL period-two at ([0 0 0]) - [0 0 0]** = [0 0 1]")
