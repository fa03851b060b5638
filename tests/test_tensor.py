"""Tensor products as multi-ideal lattices and the lifting correspondence."""

import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import lattices_up_to, shuffled
from morita import tensor
from morita.census import CensusTask
from morita.enumeration import find_isomorphism
from morita.errors import (DomainMismatch, NotAMultimorphism, ResourceLimit,
                           ShapeMismatch)
from morita.lattice import (FiniteSupLattice, chain, conjugate_lattice,
                            diamond, m3, n5, opposite, validate_lattice)
from morita.tensor import (Multimorphism, _join_break, as_multimorphism,
                           enumerate_multimorphisms, is_multimorphism,
                           lift_multimorphism, tensor_product)
from oracles import (census_tensor_builds, enumerate_multimorphisms_per_leaf,
                     is_distributive,
                     join_covers_by_subsets, multi_ideal_closure,
                     restrict_to_elementaries, splice)


def brute_multi_ideals(factors):
    """All subsets of the coordinate grid that are multi-ideals, by exhaustion:
    contain every bottom-coordinate tuple, downward closed, and closed under
    joins in each slot with the rest fixed."""
    sizes = tuple(f.n for f in factors)
    grid = list(itertools.product(*(range(s) for s in sizes)))
    ideals = []
    for keep in itertools.product((False, True), repeat=len(grid)):
        s = {t for t, k in zip(grid, keep) if k}
        if any(any(c == f.bottom for c, f in zip(t, factors)) and t not in s
               for t in grid):
            continue
        ok = True
        for t in grid:
            if t in s:
                continue
            dominated = any(all(factors[i].leq[t[i], u[i]]
                                for i in range(len(t))) for u in s)
            if dominated:
                ok = False
                break
        if not ok:
            continue
        for t, u in itertools.product(s, repeat=2):
            diff = [i for i in range(len(t)) if t[i] != u[i]]
            if len(diff) == 1:
                i = diff[0]
                j = list(t)
                j[i] = factors[i].join[t[i], u[i]]
                if tuple(j) not in s:
                    ok = False
                    break
        if ok:
            ideals.append(frozenset(s))
    return ideals


def test_tensor_sizes_match_bruteforce():
    for factors, expect in (((chain(2), chain(2)), 2),
                            ((chain(3), chain(3)), 6),
                            ((chain(2), chain(3)), 3),
                            ((chain(2), diamond()), 4)):
        t = tensor_product(*factors)
        assert t.n == expect
        assert len(brute_multi_ideals(factors)) == expect
        # and they are the same ideals
        sizes = tuple(f.n for f in factors)
        ours = {frozenset(map(tuple, np.argwhere(t.bits[i].reshape(sizes)).tolist()))
                for i in range(t.n)}
        assert ours == set(brute_multi_ideals(factors))


def test_chain_tensor_sizes_follow_monotone_function_counts():
    assert tensor_product(chain(3), chain(3), chain(3)).n == 20
    assert tensor_product(*(chain(2),) * 5).n == 2


def test_two_chain_is_a_tensor_unit():
    for lat in lattices_up_to(5):
        t = tensor_product(chain(2), lat)
        assert find_isomorphism(t.lattice, lat) is not None
        t = tensor_product(lat, chain(2))
        assert find_isomorphism(t.lattice, lat) is not None


def test_tensor_is_symmetric_in_size():
    for x, y in ((chain(3), diamond()), (diamond(), m3())):
        assert tensor_product(x, y).n == tensor_product(y, x).n


def test_elementary_tensors_generate():
    t = tensor_product(chain(3), diamond())
    lat = t.lattice
    for i in range(t.n):
        parts = t.elem_table.reshape(-1)[t.bits[i]]
        assert lat.join_of(parts) == i


def test_elem_table_is_monotone():
    t = tensor_product(chain(3), chain(3))
    for a, b in itertools.product(np.ndindex(3, 3), repeat=2):
        if all(x <= y for x, y in zip(a, b)):
            assert t.lattice.leq[t.elem_table[a], t.elem_table[b]]


def test_lift_restrict_roundtrip_both_ways():
    x, y, z = chain(2), chain(3), diamond()
    t = tensor_product(x, y)
    # every bimorphism, by exhaustion over value tables
    bimorphisms = []
    for vals in itertools.product(range(z.n), repeat=x.n * y.n):
        f = Multimorphism((x, y), z, np.array(vals).reshape(x.n, y.n))
        if is_multimorphism(f):
            bimorphisms.append(f)
    sup_maps = list(enumerate_multimorphisms((t.lattice,), z))
    assert len(bimorphisms) == len(sup_maps)
    for f in bimorphisms:
        g = lift_multimorphism(f, t)
        back = restrict_to_elementaries(g, t)
        assert back == f
    for g in sup_maps:
        f = restrict_to_elementaries(g, t)
        assert is_multimorphism(f)
        assert lift_multimorphism(f, t) == g


def lift_by_join_of(f, tensor):
    """Values of the lift of f, one tensor element at a time: the join of f
    over the element's tuples. The reference for the vectorised lift."""
    flat_vals = f.values.reshape(-1)
    return tuple(f.target.join_of(int(flat_vals[k])
                                  for k in np.flatnonzero(tensor.bits[i]))
                 for i in range(tensor.n))


def _census_swaps():
    """Every (swap, tensor) whose lift the tensor builds of the i<=3 census
    contexts make for their stars."""
    builds = census_tensor_builds(CensusTask(max_x=3, involutive=True))
    return [swap for ref in builds for swap in ref.swaps]


def test_lift_matches_the_per_element_join_on_all_small_trimorphisms():
    # lift_multimorphism does not check its lift; the swaps are the lifts
    # of the tensor builds of the involutive census contexts
    lats = lattices_up_to(3)
    cases = [(f, t) for factors in itertools.product(lats, repeat=3)
             for t in [tensor_product(*factors)] for z in lats
             for f in enumerate_multimorphisms(factors, z)]
    assert len(cases) == 363
    swaps = _census_swaps()
    assert len(swaps) == 14
    for f, t in cases + swaps:
        lifted = lift_multimorphism(f, t)
        assert tuple(lifted.values.tolist()) == lift_by_join_of(f, t)
        assert is_multimorphism(lifted)


def test_lift_agrees_on_elementaries():
    x = chain(3)
    f = as_multimorphism((x, x), x, x.meet)
    t = tensor_product(x, x)
    g = lift_multimorphism(f, t)
    for a, b in np.ndindex(3, 3):
        assert g(t.elem_table[a, b]) == f(a, b)


def test_meet_is_not_a_multimorphism_on_m3():
    lat = m3()
    with pytest.raises(NotAMultimorphism):
        as_multimorphism((lat, lat), lat, lat.meet)


def test_multimorphism_failure_names_every_coordinate():
    x = chain(2)
    t = np.zeros((2, 3, 2), dtype=np.int64)
    t[0, 1, 0] = 1
    v = is_multimorphism(Multimorphism((x, chain(3), x), x, t))
    assert v.law == "slot-0-bottom" and v.witness == ("0", "x1", "0")
    assert v.detail == "f(0, x1, 0) = 1, not bottom"
    lat = m3()
    v = is_multimorphism(Multimorphism((lat, lat), lat, lat.meet))
    assert v.law == "slot-0-joins" and v.witness == ("a", "b", "c")
    assert v.detail == "f(a v b, c) = c but f(a, c) v f(b, c) = 0"


def test_meet_is_a_multimorphism_on_distributive_lattices():
    for lat in (chain(4), diamond()):
        as_multimorphism((lat, lat), lat, lat.meet)


def test_multimorphism_table_validation():
    x = chain(2)
    with pytest.raises(ShapeMismatch):
        Multimorphism((x, x), x, np.zeros((2, 3), dtype=np.int64))
    with pytest.raises(DomainMismatch):
        Multimorphism((x, x), x, np.full((2, 2), 7))


def test_tensor_cap(monkeypatch):
    monkeypatch.setenv("MORITA_MAX_TENSOR", "5")
    with pytest.raises(ResourceLimit):
        tensor_product(chain(3), chain(3))
    monkeypatch.setenv("MORITA_MAX_TENSOR", "50")
    assert tensor_product(chain(3), chain(3)).n == 6


def test_tensor_cap_fires_just_past_the_size(monkeypatch):
    # the cap counts every element, the bottom too, so a cap equal to the
    # size passes
    for factors, n in (((chain(4),) * 3, 980), ((diamond(),) * 3, 256)):
        monkeypatch.setenv("MORITA_MAX_TENSOR", str(n))
        assert tensor_product(*factors).n == n
        monkeypatch.setenv("MORITA_MAX_TENSOR", str(n - 1))
        with pytest.raises(ResourceLimit, match=f"exceeds {n - 1} elements"):
            tensor_product(*factors)
    monkeypatch.setenv("MORITA_MAX_TENSOR", "1")
    with pytest.raises(ResourceLimit):
        tensor_product(chain(2), chain(2))


def test_splice_of_elementary_is_elementary():
    x, y = chain(2), chain(3)
    t3 = tensor_product(x, y, x)
    t2 = tensor_product(y, x)
    for a, b, c in np.ndindex(2, 3, 2):
        sub = t2.elem_table[b, c]
        assert splice(t3, t2, sub, 1, (a,)) == t3.elem_table[a, b, c]


def test_splice_is_linear_in_the_sub_slot():
    x, y = chain(2), chain(3)
    t3 = tensor_product(x, y, x)
    t2 = tensor_product(y, x)
    lat2, lat3 = t2.lattice, t3.lattice
    for i, j in itertools.product(range(t2.n), repeat=2):
        joined = splice(t3, t2, lat2.join[i, j], 1, (1,))
        parts = lat3.join[splice(t3, t2, i, 1, (1,)),
                          splice(t3, t2, j, 1, (1,))]
        assert joined == parts


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_closure_is_a_closure_operator(data):
    factors = (diamond(), chain(3))
    grid = list(itertools.product(range(4), range(3)))
    seeds = data.draw(st.sets(st.sampled_from(grid), max_size=5))
    closed = multi_ideal_closure(factors, seeds)
    assert seeds <= closed
    assert multi_ideal_closure(factors, closed) == closed
    more = data.draw(st.sets(st.sampled_from(grid), max_size=5))
    bigger = multi_ideal_closure(factors, seeds | more)
    assert closed <= bigger


# --- the enumerator against the per-leaf extension ----------------------------------

def _cells(factors):
    return int(np.prod([len(f.join_irreducibles()) for f in factors]))


def _same_yields(factors, target):
    fast = list(enumerate_multimorphisms(factors, target))
    slow = list(enumerate_multimorphisms_per_leaf(factors, target))
    assert fast == slow, (factors, target)
    shape = tuple(f.n for f in factors)
    for f in fast:
        # the enumerator's tables skip the constructor's checks
        v = f.values
        assert v.dtype == np.int64 and v.shape == shape
        assert not v.flags.writeable
        assert 0 <= v.min() <= v.max() < target.n
    return len(fast)


def test_enumerator_matches_the_per_leaf_reference_up_to_three_cells():
    # every factor tuple of one to three lattices of size <= 5 with at most
    # three join-irreducible tuples, into every target of size <= 5; a
    # factor of size one has no irreducibles, so its tuples have no cells
    lats = lattices_up_to(5)
    assert len(lats) == 10
    spaces = yields = 0
    for k in (1, 2, 3):
        for factors in itertools.product(lats, repeat=k):
            if _cells(factors) > 3:
                continue
            for z in lats:
                yields += _same_yields(factors, z)
                spaces += 1
    assert (spaces, yields) == (3360, 12819)


def _same_plan(factors):
    'The memoised plan equals a fresh compile of the same factors.'
    ncells, covers, checks, gather = tensor._extension_plan(factors)
    ref = tensor._extension_plan.__wrapped__(factors)
    assert (ncells, covers, checks) == ref[:3], factors
    assert isinstance(checks, tuple) and len(checks) == ncells
    assert all(isinstance(at, tuple) for at in checks)
    assert gather.dtype == np.intp and not gather.flags.writeable
    assert np.array_equal(gather, ref[3]), factors


def test_memoised_extension_plan_matches_a_fresh_compile():
    # the factor tuples of the sweep above, each again relabelled (a cache
    # hit) and shuffled (a new entry), and census shapes with more cells
    rng = np.random.default_rng(15)
    lats = lattices_up_to(5)
    named = [lat.relabel([f"e{i}" for i in range(lat.n)]) for lat in lats]
    mixed = [shuffled(lat, rng) for lat in lats]
    tuples = 0
    for k in (1, 2, 3):
        for pick in itertools.product(range(len(lats)), repeat=k):
            factors = tuple(lats[i] for i in pick)
            if _cells(factors) <= 3:
                for copy in (lats, named, mixed):
                    _same_plan(tuple(copy[i] for i in pick))
                tuples += 1
    assert tuples == 3360 // len(lats)
    c2, c3, c4, d = chain(2), chain(3), chain(4), diamond()
    for factors in ((c3, c3, c3), (c2, c4, c2), (d, c2, d), (c4, c4, c4),
                    (m3(), c2), (c2, n5()), (m3(), m3(), c3)):
        _same_plan(factors)


def test_maximal_matches_the_column_loop():
    # the plan's maximal join-irreducibles below each element, and covered
    # by each, against a loop over the columns; a 1-chain has none
    def by_loop(strictly, mask):
        return [a for a in np.flatnonzero(mask).tolist()
                if not (strictly[a] & mask).any()]

    for lat in lattices_up_to(6) + [n5(), m3()]:
        ir = list(lat.join_irreducibles())
        below = lat.leq[ir]
        strictly = below[:, ir] & ~np.eye(len(ir), dtype=bool)
        for masks in (below, strictly):
            assert tensor._maximal(strictly, masks) == [
                by_loop(strictly, masks[:, c]) for c in range(masks.shape[1])]


def _three_atom_cover():
    """Atoms a, b, c and j, the joins of two of a, b, c, and a top: j lies
    below a v b v c but below no join of two of them."""
    names = ("0", "a", "b", "c", "j", "ab", "ac", "bc", "1")
    leq = np.eye(9, dtype=bool)
    leq[0], leq[:, 8] = True, True
    for x, ys in (("a", "ab ac"), ("b", "ab bc"), ("c", "ac bc")):
        for y in ys.split():
            leq[names.index(x), names.index(y)] = True
    return validate_lattice(leq, names)


def test_join_covers_are_the_minimal_covers_of_every_subset():
    # a lattice has covers exactly when it is not distributive
    odd = _three_atom_cover()
    for lat in lattices_up_to(6) + [odd]:
        got = tensor._join_covers(lat, lat.join_irreducibles())
        assert [sorted(c) for c in got] == join_covers_by_subsets(lat)
        assert (got == [[]] * len(got)) == is_distributive(lat)
    ir = [odd.names[j] for j in odd.join_irreducibles()]
    covers = tensor._join_covers(odd, odd.join_irreducibles())
    assert {ir[a]: [[ir[s] for s in c] for c in cs]
            for a, cs in enumerate(covers)} == {
        "a": [["b", "j"], ["c", "j"]], "b": [["a", "j"], ["c", "j"]],
        "c": [["a", "j"], ["b", "j"]], "j": [["a", "b", "c"]]}
    for factors, z in (((odd,), chain(3)), ((chain(2), odd), chain(2)),
                       ((odd,), odd)):
        assert _same_yields(factors, z) < monotone_assignments(factors, z)


def test_extension_plan_is_shared_by_relabelled_factors():
    c3, d = chain(3), diamond()
    plan = tensor._extension_plan((c3, d))
    assert tensor._extension_plan(
        (chain(3, names=("a", "b", "c")), d.relabel("pqrs"))) is plan
    assert tensor._extension_plan((d, c3)) is not plan


# The shapes of lattices of size <= 5 whose per-leaf oracle walks more than
# LEAF_BUDGET monotone assignments: at about 115 us a leaf, the 680 shapes
# kept take about 12 s on 2 vCPUs. A digit is an index into lattices_up_to(5):
# 0-2 the chains c1-c3, 3 the square 2x2, 4 c4, 5 M3, 6 N5, 7 the square
# under a new top, 8 the square over a new bottom, 9 c5. "xy" is the shape
# X (x) Y (x) X -> X, "xyz" the shape X (x) Y -> Z.
LEAF_BUDGET = 1000
SKIPPED_THREE = """
25 26 27 28 29 32 33 34 35 36 37 38 39 42 43 44 45 46 47 48 49 51 52
53 54 55 56 57 58 59 61 62 63 64 65 66 67 68 69 71 72 73 74 75 76 77
78 79 81 82 83 84 85 86 87 88 89 91 92 93 94 95 96 97 98 99""".split()
SKIPPED_TWO = """
255 256 257 258 259 267 268 269 279 289 297 298 299 349 353 354 355 356
357 358 359 363 364 365 366 367 368 369 375 376 377 378 379 385 386 387
388 389 394 395 396 397 398 399 439 446 447 448 449 453 454 455 456 457
458 459 463 464 465 466 467 468 469 474 475 476 477 478 479 484 485 486
487 488 489 493 494 495 496 497 498 499 525 526 527 528 529 533 534 535
536 537 538 539 543 544 545 546 547 548 549 552 553 554 555 556 557 558
559 562 563 564 565 566 567 568 569 572 573 574 575 576 577 578 579 582
583 584 585 586 587 588 589 592 593 594 595 596 597 598 599 627 628 629
633 634 635 636 637 638 639 643 644 645 646 647 648 649 652 653 654 655
656 657 658 659 662 663 664 665 666 667 668 669 672 673 674 675 676 677
678 679 682 683 684 685 686 687 688 689 692 693 694 695 696 697 698 699
729 735 736 737 738 739 744 745 746 747 748 749 752 753 754 755 756 757
758 759 762 763 764 765 766 767 768 769 773 774 775 776 777 778 779 783
784 785 786 787 788 789 792 793 794 795 796 797 798 799 829 835 836 837
838 839 844 845 846 847 848 849 852 853 854 855 856 857 858 859 862 863
864 865 866 867 868 869 873 874 875 876 877 878 879 883 884 885 886 887
888 889 892 893 894 895 896 897 898 899 927 928 929 934 935 936 937 938
939 943 944 945 946 947 948 949 952 953 954 955 956 957 958 959 962 963
964 965 966 967 968 969 972 973 974 975 976 977 978 979 982 983 984 985
986 987 988 989 992 993 994 995 996 997 998 999""".split()


def _leaves_over(factors, target, budget):
    'Whether there are more than ``budget`` monotone assignments, unchecked.'
    ncells, covers, _, _ = tensor._extension_plan(factors)
    seen = 0
    for rows in tensor._monotone_blocks(ncells, covers, ((),) * ncells,
                                        target):
        seen += len(rows)
        if seen > budget:
            return True
    return False


def test_the_walk_matches_the_per_leaf_oracle_up_to_size_five():
    lats = lattices_up_to(5)
    for i, known in ((3, diamond()), (4, chain(4)), (5, m3()), (6, n5()),
                     (9, chain(5))):
        assert find_isomorphism(lats[i], known) is not None
    shapes = {f"{x}{y}": ((x, y, x), x) for x in range(10) for y in range(10)}
    shapes.update({f"{x}{y}{z}": ((x, y), z) for x in range(10)
                   for y in range(10) for z in range(10)})
    skipped, tables = [], 0
    for code, (pick, z) in shapes.items():
        factors = tuple(lats[i] for i in pick)
        if _leaves_over(factors, lats[z], LEAF_BUDGET):
            skipped.append(code)
        else:
            tables += _same_yields(factors, lats[z])
    assert skipped == SKIPPED_THREE + SKIPPED_TWO
    assert (len(shapes) - len(skipped), tables) == (680, 65963)


# The M3 and N5 lists below whose walk ends well within a second, with
# their lengths: c3 (x) M3 (x) c3 -> c3, c3 (x) N5 (x) c3 -> c3, M3 (x) c2
# (x) M3 -> M3 and N5 (x) c2 (x) N5 -> N5. Every table is checked, so the
# checks on every cell of their plans are reached; of the others, the
# first FIRST_TABLES are. About 2.5 s in all on 2 vCPUs.
COMPLETE = {"25": 728, "26": 1251, "51": 21740, "61": 7033}
FIRST_TABLES = 1000


def _join_breaks(tables, factors, target):
    'Per table of an (m, *shape) stack, whether a slot misses a join.'
    m, bad = len(tables), np.zeros(len(tables), dtype=bool)
    for i, fac in enumerate(factors):
        flat = np.moveaxis(tables, i + 1, 1).reshape(m, fac.n, -1)
        bad |= (flat[:, fac.bottom] != target.bottom).any(axis=1)
        joined = target.join[flat[:, :, None, :], flat[:, None, :, :]]
        bad |= (flat[:, fac.join] != joined).reshape(m, -1).any(axis=1)
    return bad


def test_the_walk_yields_distinct_multimorphisms_on_m3_and_n5_shapes():
    # the shapes X (x) Y (x) X -> X with X or Y = M3 or N5 that the per-leaf
    # oracle above skips: the tables of each walk, all of them on the
    # COMPLETE lists and the first ones on the others, are distinct and
    # preserve joins slotwise, as the plan's cover checks stand for
    lats = lattices_up_to(5)
    codes = [c for c in SKIPPED_THREE if {"5", "6"} & set(c)]
    assert len(codes) == 30 and set(COMPLETE) < set(codes)
    for code in codes:
        x, y = (lats[int(d)] for d in code)
        walk = enumerate_multimorphisms((x, y, x), x)
        if code in COMPLETE:
            tables = np.array([f.values for f in walk])
            for a in range(0, len(tables), 1024):
                assert not _join_breaks(tables[a:a + 1024], (x, y, x),
                                        x).any(), code
        else:
            head = list(itertools.islice(walk, FIRST_TABLES))
            for f in head:
                assert _join_break(f) is None, (code, f.values)
            tables = np.array([f.values for f in head])
        rows = tables.reshape(len(tables), -1)
        assert len(np.unique(rows, axis=0)) == len(rows), code
        assert len(rows) == COMPLETE.get(code, FIRST_TABLES), code


def _checks_from_covers(factors):
    """The plan's checks per cell, rebuilt from ``join_covers_by_subsets``:
    for every cell (a tuple of join-irreducible positions), slot i and
    minimal cover S of the cell's join-irreducible in slot i, the check
    (cell, the cells with slot i moved into S) goes to the last of all
    these cells in lex order, which it leaves out. Each cell's checks are
    sorted, so the walk order of the plan does not matter."""
    covers = [join_covers_by_subsets(f) for f in factors]
    cells = list(itertools.product(*(range(len(cs)) for cs in covers)))
    index = {pos: k for k, pos in enumerate(cells)}
    checks = [[] for _ in cells]
    for pos in cells:
        for i, c in enumerate(pos):
            for cover in covers[i][c]:
                moved = [index[pos[:i] + (s,) + pos[i + 1:]] for s in cover]
                last = max(index[pos], *moved)
                checks[last].append((index[pos], tuple(sorted(
                    m for m in moved if m != last))))
    return [sorted(at) for at in checks]


def test_the_plan_compiles_every_cover_check_of_the_m3_and_n5_walks():
    # the 30 walks above are mostly seen only at their heads, where the
    # last cells vary; here every check the plan attaches to any cell is
    # compared with those derived from the minimal covers, so dropping or
    # moving one fails whatever the walk order
    lats = lattices_up_to(5)
    codes = [c for c in SKIPPED_THREE if {"5", "6"} & set(c)]
    assert len(codes) == 30
    total = 0
    for code in codes:
        x, y = (lats[int(d)] for d in code)
        _, _, checks, _ = tensor._extension_plan((x, y, x))
        got = [sorted((c, tuple(sorted(cells))) for c, cells in at)
               for at in checks]
        assert got == _checks_from_covers((x, y, x)), code
        total += sum(map(len, got))
    assert total == 852


def test_enumerator_matches_the_per_leaf_reference_on_census_shapes():
    c2, c3, c4, d = chain(2), chain(3), chain(4), diamond()
    for x, y in ((c3, c3), (c3, c2), (c2, c4), (d, c2), (c2, d)):
        _same_yields((x, y, x), x)
    for factors, z in (((m3(), c2), c3), ((c2, n5()), d), ((n5(), c2), n5())):
        _same_yields(factors, z)


def _until_cap(enumerator, factors, target, cap):
    'The tables yielded before the enumerator raises ResourceLimit.'
    out = []
    with pytest.raises(ResourceLimit, match=f"more than {cap} "):
        for f in enumerator(factors, target, cap=cap):
            out.append(f)
    return out


def test_enumerator_matches_the_per_leaf_reference_across_blocks(monkeypatch):
    c2, c3, c4 = chain(2), chain(3), chain(4)
    big = ((c4, c4), opposite(c4))      # 980 leaves, all distributive
    nondist = ((n5(), c3), c4)          # 500 leaves, 237 of them yielded
    assert _same_yields(*big) == 980 > 2 * tensor.BLOCK
    assert _same_yields(*nondist) == 237
    assert monotone_assignments(*nondist) == 500 > 2 * tensor.BLOCK
    # a one-element factor has no cells: one leaf, the zero map
    assert _same_yields((chain(1), c3), c3) == 1
    for block in (1, 7, 979, 980, 981):
        monkeypatch.setattr(tensor, "BLOCK", block)
        assert _same_yields(*big) == 980
        assert _same_yields(*nondist) == 237
        assert _same_yields((c2, c2), c3) == 3


def _lex_increasing(rows):
    'Whether each row of a 2-D array is lexicographically above the last.'
    steps = np.diff(rows.astype(np.int64), axis=0)
    first = steps[np.arange(len(steps)), (steps != 0).argmax(axis=1)]
    return bool((first > 0).all())


def test_the_walk_agrees_past_a_byte_per_target_element():
    # on more than 256 target elements the walk keeps two bytes a cell
    c2 = chain(2)
    assert _same_yields((c2, c2), chain(300)) == 300
    assert _same_yields((c2, c2, c2), opposite(chain(257))) == 257
    # past the oracle's reach, the two cells of c3 and the three of M3,
    # whose cells each carry a check: two-byte rows pass through the stack,
    # the cover joins and the check masks, and a row with more than BLOCK
    # children is cut between its children. A sup-map c3 -> C is a pair
    # v0 <= v1; one M3 -> C takes its largest atom value twice
    for factor, n, count in ((chain(3), 300, 300 * 301 // 2),
                             (m3(), 257, 257**3 - 3 * sum(
                                 k * k for k in range(257)))):
        target = chain(n)
        tables = np.concatenate(list(tensor._table_blocks((factor,), target)))
        assert len(tables) == count
        for a in range(0, count, 8192):
            assert not _join_breaks(tables[a:a + 8192], (factor,),
                                    target).any()
        # in the lex order of the assignments, so each table once
        assert _lex_increasing(tables[:, list(factor.join_irreducibles())])


def test_the_walk_holds_a_chunk_a_cell_into_a_large_target():
    # 81 cells into the 100-chain, where a row has up to 100 children: a
    # walk that pushed every child chunk held about 50 MB before its first
    # block; one chunk of rows and one mask a cell come to 1.9 MB
    factors, target = (chain(10), chain(10)), chain(100)
    ncells = tensor._extension_plan(factors)[0]
    target.join, target.leq
    tracemalloc.start()
    try:
        assert len(next(tensor._table_blocks(factors, target))) == tensor.BLOCK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stack = ncells * tensor.BLOCK * (ncells + 1 + target.n)
    assert peak < stack + 2**20, (peak, stack)


def test_the_cap_raises_at_the_same_yield_across_blocks(monkeypatch):
    c4 = chain(4)
    big = ((c4, c4), opposite(c4))
    blocks, walk = [], tensor._monotone_blocks

    def counting(*args):
        for b in walk(*args):
            blocks.append(len(b))
            yield b

    monkeypatch.setattr(tensor, "_monotone_blocks", counting)
    size = tensor.BLOCK
    # mid-block and at a block boundary; each leaf is accepted, so the
    # walk stops in the block of the (cap + 1)-th leaf
    for cap in (size // 2, size, size + 3, 2 * size - 1, 2 * size):
        blocks.clear()
        fast = _until_cap(enumerate_multimorphisms, *big, cap)
        assert fast == _until_cap(enumerate_multimorphisms_per_leaf, *big, cap)
        assert len(fast) == cap and len(blocks) == cap // size + 1
    # a non-distributive space whose cap falls after rejected leaves
    nondist = ((n5(), chain(3)), c4)
    monkeypatch.setattr(tensor, "BLOCK", 16)
    for cap in (5, 16, 100, 236):
        fast = _until_cap(enumerate_multimorphisms, *nondist, cap)
        assert fast == _until_cap(enumerate_multimorphisms_per_leaf,
                                  *nondist, cap)
    assert len(list(enumerate_multimorphisms(*nondist, cap=237))) == 237


def test_yielded_tables_are_frozen_and_not_reused():
    c4 = chain(4)
    seen = []
    for f in enumerate_multimorphisms((c4, c4), opposite(c4)):
        seen.append((f, f.values.tobytes()))
        with pytest.raises(ValueError, match="read-only"):
            f.values[(0,) * f.values.ndim] = 0
    # the tables of earlier blocks are unchanged once later ones are built
    assert len(seen) == 980 > tensor.BLOCK
    assert all(f.values.tobytes() == kept for f, kept in seen)
    assert len({kept for _, kept in seen}) == 980
    # the public constructor still checks its table
    x = chain(2)
    with pytest.raises(ShapeMismatch):
        Multimorphism((x, x), x, np.zeros(4, dtype=np.int64))
    with pytest.raises(DomainMismatch):
        Multimorphism((x, x), x, np.full((2, 2), -1))


def _stacked(tables, shape):
    return np.array([f.values for f in tables], dtype=np.int64).reshape(shape)


def test_table_blocks_stack_to_the_enumerated_tables(monkeypatch):
    # the array path against the per-table yields and the per-leaf
    # reference, in order: every pair of lattices of size <= 4 (the 1-chain
    # among them) into every target of size <= 4, and M3 or N5 in the
    # domain, where _join_break drops tables from a block
    lats = lattices_up_to(4)
    assert [lat.n for lat in lats] == [1, 2, 3, 4, 4]
    spaces = [(pair, z) for pair in itertools.product(lats, repeat=2)
              for z in lats]
    spaces += [((m3(), chain(2)), chain(3)), ((chain(2), n5()), diamond()),
               ((n5(), chain(3)), chain(4)), ((m3(),), n5())]
    for block in (tensor.BLOCK, 5):
        monkeypatch.setattr(tensor, "BLOCK", block)
        total = 0
        for factors, z in spaces:
            shape = (-1, *(f.n for f in factors))
            blocks = list(tensor._table_blocks(factors, z))
            assert all(b.dtype == np.int64 and not b.flags.writeable
                       and len(b) <= block for b in blocks)
            got = np.concatenate(blocks)
            assert np.array_equal(got, _stacked(
                enumerate_multimorphisms(factors, z), shape)), (factors, z)
            assert np.array_equal(got, _stacked(
                enumerate_multimorphisms_per_leaf(factors, z), shape))
            total += len(got)
        assert total == 5597


def _digest(factors, target, limit=None):
    """The table count and sha256 of the stacked int64 C-order output of
    ``_table_blocks``, in order, up to ``limit`` tables."""
    digest, count = hashlib.sha256(), 0
    for block in tensor._table_blocks(factors, target):
        if limit is not None:
            block = block[:limit - count]
        digest.update(block.astype(np.int64, copy=False).tobytes())
        count += len(block)
        if count == limit:
            break
    return count, digest.hexdigest()


# lists far past the per-leaf oracle's reach, with the count and sha256 of
# their tables as a walk that extended one leaf at a time gave them
LONG_LISTS = {
    "d d d -> d": (65536, "fce5536203536da0509fc58291e4943b"
                          "e618063af3b6edf2f14b90f61038c278"),
    "m3 c2 m3 -> m3": (21740, "372c64d3bacf9152fe2950ce866e1599"
                              "b0bbfd4c7f84a54f48099e55332b1814"),
    "n5 c2 n5 -> n5": (7033, "f972f24aa1c6c2ae51590a8f355c510b"
                             "6953cd3499c01b15a5bb321ca97959c8"),
    "c4 c4 c4 -> c4": (200000, "709b31c0a839ad3c45f48ce8ad199d48"
                               "76ab574fb6ee5784d236b17ad6972831"),
}


def _long_list(key):
    make = {"d": diamond, "m3": m3, "n5": n5, "c2": lambda: chain(2),
            "c4": lambda: chain(4)}
    *factors, _, target = key.split()
    return tuple(make[name]() for name in factors), make[target]()


def test_long_lists_keep_their_tables_and_order(monkeypatch):
    # the whole d, M3 and N5 lists and the head of the 17.8 million tables
    # of c4 (x) c4 (x) c4 -> c4, by count and digest; the M3 and N5 lists
    # again in blocks of 5, which also cut the walk's chunks small
    for key, want in LONG_LISTS.items():
        limit = want[0] if key.startswith("c4") else None
        assert _digest(*_long_list(key), limit) == want, key
    monkeypatch.setattr(tensor, "BLOCK", 5)
    for key in ("m3 c2 m3 -> m3", "n5 c2 n5 -> n5"):
        assert _digest(*_long_list(key)) == LONG_LISTS[key], key


def test_the_walk_drains_a_long_list_in_bounded_memory():
    factors, target = _long_list("c4 c4 c4 -> c4")
    tensor._extension_plan(factors)     # built and cached outside the trace
    target.join, target.leq
    tracemalloc.start()
    try:
        assert _digest(factors, target, 200_000)[0] == 200_000
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_element_order_matches_the_full_row_lexsort():
    # sort keys of eight columns a byte against one key per column, on
    # repeated rows too, where the order of ties must be kept
    rng = np.random.default_rng(25)
    for cols in (1, 7, 8, 9, 63, 64, 65):
        for density in (0.1, 0.5, 0.9):
            rows = rng.random((200, cols)) < density
            rows = rows[rng.integers(len(rows), size=300)]
            old = np.lexsort(np.vstack([rows.T[::-1], rows.sum(axis=1)]))
            assert np.array_equal(tensor._element_order(rows), old), cols


def test_the_tensor_cap_stops_the_walk_within_a_block(monkeypatch):
    blocks, walk = [], tensor._monotone_blocks

    def counting(*args):
        for b in walk(*args):
            blocks.append(len(b))
            yield b

    monkeypatch.setattr(tensor, "_monotone_blocks", counting)
    monkeypatch.setattr(tensor, "BLOCK", 16)
    monkeypatch.setenv("MORITA_MAX_TENSOR", "100")
    with pytest.raises(ResourceLimit, match="exceeds 100 elements"):
        tensor_product(*(chain(4),) * 3)
    assert blocks == [16] * 7            # 112 elements seen, 101 needed


def monotone_assignments(factors, target):
    'Monotone maps from the tuples of join-irreducibles into the target.'
    cells = list(itertools.product(*[f.join_irreducibles() for f in factors]))
    order = [(s, t) for s, t in itertools.permutations(range(len(cells)), 2)
             if all(f.leq[a, b] for f, a, b in zip(factors, cells[s], cells[t]))]
    return sum(all(target.leq[v[s], v[t]] for s, t in order)
               for v in itertools.product(range(target.n), repeat=len(cells)))


def test_the_walk_never_checks_a_leaf(monkeypatch):
    # the plan's join covers keep the walk to multimorphisms, so no table is
    # put to the law computation; with M3 or N5 in the domain the walk
    # yields fewer tables than there are monotone assignments
    calls = []

    def counting(f):
        calls.append(f)
        return _join_break(f)

    def found(factors, z):
        with monkeypatch.context() as m:
            m.setattr("morita.tensor._join_break", counting)
            yielded = len(list(enumerate_multimorphisms(factors, z)))
        assert calls == [] and yielded == _same_yields(factors, z) > 0
        return yielded

    c2, c3 = chain(2), chain(3)
    for factors, z in (((c3, c2, c3), c3), ((diamond(), c2), m3()),
                       ((c2,), n5())):
        found(factors, z)
    for factors, z in (((m3(), c2), c2), ((c2, n5()), c3), ((m3(),), c3),
                       ((n5(), c2, c2), c2)):
        assert monotone_assignments(factors, z) > found(factors, z)


def test_an_m3_space_has_its_full_count():
    # the count a walk checking every leaf with _join_break gave
    m = m3()
    found = enumerate_multimorphisms((m, chain(2), m), m)
    assert sum(1 for _ in found) == 21740


def test_factors_of_one_order_build_one_meet_table(monkeypatch):
    # X and its conjugate X* have one order, so one of them decides
    # distributivity and gives the opposite lattice's joins for both
    built = []
    bounds = FiniteSupLattice._bounds

    def counting(self, up, what):
        built.append(what)
        return bounds(self, up, what)
    monkeypatch.setattr(FiniteSupLattice, "_bounds", counting)
    for lat in (chain(3), diamond(), m3(), n5()):
        want = tensor_product(validate_lattice(lat.leq, lat.names),
                              validate_lattice(lat.leq, lat.names))
        x = validate_lattice(lat.leq, lat.names)
        del built[:]
        got = tensor_product(x, conjugate_lattice(x))
        assert built == ["meet"]
        assert np.array_equal(got.bits, want.bits)
        assert np.array_equal(got.elem_table, want.elem_table)
        assert got.lattice.names == tensor_product(
            *got.factors).lattice.names
