"""Enumeration of finite lattices up to isomorphism.

:func:`enumerate_lattices` grows lattices one atom at a time: deleting an
atom that is not the top leaves a lattice, because no two other elements
join to it, so every lattice on n >= 3 elements is a lattice on n - 1
elements plus one new atom. Isomorphs are rejected by canonical form. One
search over the relabellings that keep invariant classes in place,
``_canonical_orderings``, gives the canonical form and every ordering that
reaches it; automorphisms and isomorphisms are read off those orderings.
"""

import functools
from itertools import permutations, product

import numpy as np

from .errors import MoritaError, ResourceLimit
from .lattice import FiniteSupLattice, _least_bounds, validate_lattice

MAX_ENUM_N = 7


# --- canonical form -------------------------------------------------------------

def _refine_classes(leq):
    """Partition elements by iterated order-invariants.

    Returns a list of index lists; any isomorphism must respect the
    partition, which keeps the permutation search small.
    """
    n, rows = leq.shape[0], leq.tolist()
    ups = [[j for j in range(n) if j != i and rows[i][j]] for i in range(n)]
    downs = [[j for j in range(n) if j != i and rows[j][i]] for i in range(n)]
    # downset size first, so canonical labellings run bottom-up
    sig = [(len(downs[i]) + 1, len(ups[i]) + 1) for i in range(n)]
    for _ in range(3):
        ranked = {s: r for r, s in enumerate(sorted(set(sig)))}
        rank = [ranked[s] for s in sig]
        sig = [(rank[i], tuple(sorted([rank[j] for j in ups[i]])),
                tuple(sorted([rank[j] for j in downs[i]])))
               for i in range(n)]
    ranked = {s: r for r, s in enumerate(sorted(set(sig)))}
    classes = {}
    for i in range(n):
        classes.setdefault(ranked[sig[i]], []).append(i)
    return [classes[r] for r in sorted(classes)]


def _class_orderings(classes):
    'Element orderings listing the classes contiguously in rank order.'
    for parts in product(*(permutations(c) for c in classes)):
        yield [e for part in parts for e in part]


def _canonical_orderings(leq):
    """The least order matrix over class-ordered relabellings, as bytes,
    and every ordering that reaches it, in ``_class_orderings`` order, as
    tuples; kept per order in an LRU.

    Isomorphisms respect the invariant classes, and the class ranks are
    themselves invariant, so this minimum is the minimum over all
    relabellings. Two orderings reach it exactly when they differ by an
    automorphism.
    """
    return _orderings_of(leq.tobytes(), leq.shape[0])


@functools.lru_cache(maxsize=1024)
def _orderings_of(key, n):
    leq = np.frombuffer(key, dtype=bool).reshape(n, n)
    best, reach = None, []
    for order in _class_orderings(_refine_classes(leq)):
        form = leq[order][:, order].tobytes()
        if best is None or form < best:
            best, reach = form, [tuple(order)]
        elif form == best:
            reach.append(tuple(order))
    return best, tuple(reach)


def _canonical_order(lat):
    """The first ordering that reaches the canonical form of ``lat``: its
    element order[k] is element k there. Kept with the order's tables."""
    if lat._order.canonical is None:
        lat._order.canonical = _canonical_orderings(lat.leq)[1][0]
    return lat._order.canonical


def canonical_key(lat_or_leq) -> bytes:
    'Lexicographically minimal order matrix over isomorphisms, as bytes.'
    leq = lat_or_leq.leq if isinstance(lat_or_leq, FiniteSupLattice) \
        else np.asarray(lat_or_leq, dtype=bool)
    return _canonical_orderings(leq)[0]


def _mapping(src, dst):
    'The map sending src[k] to dst[k] for every k, as an index tuple.'
    perm = [0] * len(src)
    for a, b in zip(src, dst):
        perm[a] = b
    return tuple(perm)


def automorphisms(lat):
    'All order automorphisms, as index tuples perm with perm[i] the image of i.'
    _, reach = _canonical_orderings(lat.leq)
    return [_mapping(reach[0], order) for order in reach]


def find_isomorphism(a, b):
    'An order isomorphism a -> b as an index tuple, or None.'
    if a.n != b.n:
        return None
    ka, reach_a = _canonical_orderings(a.leq)
    kb, reach_b = _canonical_orderings(b.leq)
    if ka != kb:
        return None
    return _mapping(reach_a[0], reach_b[0])


# --- growth by atoms ------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _lattice_keys(n):
    """Canonical keys of the lattices on n elements, sorted, as a tuple.

    Up to three elements the only lattice is the chain. Each lattice on
    n >= 4 elements is one on n - 1 elements plus a new atom: above the
    bottom (element 0 of a canonical form) and below a nonempty up-set U
    that misses the bottom. Every such order has a bottom, so it is a
    lattice exactly when every binary join exists.
    """
    if n <= 3:
        return (np.tri(n, dtype=bool).T.tobytes(),)
    m = n - 1
    keys = set()
    for key in _lattice_keys(m):
        leq = np.zeros((n, n), dtype=bool)
        leq[:m, :m] = np.frombuffer(key, dtype=bool).reshape(m, m)
        leq[0, m] = leq[m, m] = True
        for bits in product((False, True), repeat=m - 1):
            up = np.array((False,) + bits)
            if up.any() and (leq[:m, :m][up].any(axis=0) == up).all():
                leq[m, :m] = up
                if (_least_bounds(leq) >= 0).all():
                    keys.add(canonical_key(leq))
    return tuple(sorted(keys))


def enumerate_lattices(n):
    """All lattices on n elements up to isomorphism, canonically ordered, in
    a new list; each is validated once per process, one object per class."""
    if n < 1:
        raise MoritaError("n must be at least 1")
    if n > MAX_ENUM_N:
        raise ResourceLimit(f"lattice enumeration capped at n={MAX_ENUM_N}")
    return list(_lattices(n))


@functools.lru_cache(maxsize=MAX_ENUM_N)
def _lattices(n):
    return tuple(validate_lattice(np.frombuffer(key, dtype=bool).reshape(n, n))
                 for key in _lattice_keys(n))
