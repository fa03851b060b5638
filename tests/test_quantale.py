"""Quantale laws, endomorphism quantales, subquantales, involutions."""

import itertools

import numpy as np
import pytest

from conftest import lattices_up_to, meet_quantale, shuffled
from morita.census import CensusTask
from morita.errors import (DomainMismatch, MissingInvolution,
                           NotAMultimorphism, NotCompositionClosed)
from morita.lattice import chain, diamond, m3, n5
from morita.quantale import (InvolutiveQuantale, OperatorQuantale, Quantale,
                             _row_keys, as_involutive_quantale,
                             check_quantale, endo_quantale, image_subquantale,
                             is_quantale_involution)
from morita.tensor import Multimorphism, is_multimorphism
from oracles import (census_tensor_builds, endo_quantale_by_loops,
                     image_subquantale_by_loops)


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
    with pytest.raises(NotCompositionClosed) as exc:
        image_subquantale(q, fam)
    # the first escape in row-major order over the sorted image
    assert str(exc.value) == ("product [0 x1 x1] . [0 0 1] = [0 0 x1] "
                              "escapes the image")
    assert exc.value.witness == ("[0 x1 x1]", "[0 0 1]")


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


# --- the built-by-construction quantales against the validated loop builds ---------

def _same_quantale(fast, ref):
    a, b = fast.carrier, ref.carrier
    assert a.names == b.names
    assert (a.n, a.bottom, a.top) == (b.n, b.bottom, b.top)
    for table in ("leq", "join", "meet"):
        assert np.array_equal(getattr(a, table), getattr(b, table)), table
    assert np.array_equal(fast.mult, ref.mult)
    assert fast.unit == ref.unit
    assert type(fast) is type(ref)
    if isinstance(ref, OperatorQuantale):
        assert fast.base == ref.base
        assert fast.op_values == ref.op_values and fast.index == ref.index


def test_endo_quantale_matches_the_validated_loop_build():
    # every lattice of size <= 6, M3 and N5 by name, and shuffled copies,
    # whose elements are not numbered in a linear extension
    rng = np.random.default_rng(15)
    lats = lattices_up_to(6) + [m3(), n5()]
    assert len(lats) == 27
    lats += [shuffled(lat, rng) for lat in lats if lat.n >= 3]
    for lat in lats:
        _same_quantale(endo_quantale(lat), endo_quantale_by_loops(lat))


def test_row_keys_sort_as_the_rows_do():
    # entries past 255 too, where little-endian bytes would put 256 below 1
    rows = np.array([[0, 256], [0, 1], [1, 0], [0, 255], [300, 2], [0, 2**40]])
    assert (np.argsort(_row_keys(rows), kind="stable").tolist()
            == np.lexsort(rows.T[::-1]).tolist() == [1, 3, 0, 5, 2, 4])


def _census_families():
    """Every (quantale, operator family) of the tensor builds of the g<=3
    and i<=3 census contexts."""
    builds = census_tensor_builds(CensusTask(max_x=3),
                                  CensusTask(max_x=3, involutive=True))
    return [family for ref in builds for family in ref.families]


def _same_image(q, family):
    'Both builds of the image agree, or both refuse it with the same error.'
    try:
        ref = image_subquantale_by_loops(q, family)
    except NotCompositionClosed as e:
        with pytest.raises(NotCompositionClosed) as exc:
            image_subquantale(q, family)
        assert (str(exc.value), exc.value.witness) == (str(e), e.witness)
        return False
    sub, core = image_subquantale(q, family)
    _same_quantale(sub, ref[0])
    assert core.factors == ref[1].factors and core.target == ref[1].target
    assert np.array_equal(core.values, ref[1].values)
    # image_subquantale does not check its corestriction
    assert is_multimorphism(core)
    return True


def test_image_subquantale_matches_the_validated_loop_build():
    # the census families, then random sub-families: the family composed
    # with a sup-map from the square 2 x 2, which sends its atoms to d and
    # e, so the image is that of d, e and d v e; some are not closed
    families = _census_families()
    assert len(families) == 28
    rng = np.random.default_rng(15)
    square = diamond()
    outcomes = []
    for q, family in families:
        assert _same_image(q, family)
        dom = family.factors[0]
        for d, e in rng.integers(dom.n, size=(6, 2)).tolist():
            at = family.values[[dom.bottom, d, e, dom.join[d, e]]]
            outcomes.append(_same_image(q, Multimorphism((square,), q.carrier,
                                                         at)))
    assert 0 < sum(outcomes) < len(outcomes)
