"""Enumeration of finite lattices up to isomorphism.

:func:`enumerate_lattices` backtracks incrementally. Elements are added one
at a time in a topological order; each new element picks the downset it
sits above, with pruning rules that keep every completion a lattice.
Isomorphs are rejected by canonical form. One search over the relabellings
that keep invariant classes in place, ``_canonical_orderings``, gives the
canonical form and every ordering that reaches it; automorphisms and
isomorphisms are read off those orderings.
"""

from itertools import permutations, product

import numpy as np

from .errors import MoritaError, ResourceLimit
from .lattice import FiniteSupLattice, validate_lattice

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
    and every ordering that reaches it, in ``_class_orderings`` order.

    Isomorphisms respect the invariant classes, and the class ranks are
    themselves invariant, so this minimum is the minimum over all
    relabellings. Two orderings reach it exactly when they differ by an
    automorphism.
    """
    best, reach = None, []
    for order in _class_orderings(_refine_classes(leq)):
        key = leq[order][:, order].tobytes()
        if best is None or key < best:
            best, reach = key, [order]
        elif key == best:
            reach.append(order)
    return best, reach


def _canonical_order(lat):
    """The first ordering that reaches the canonical form of ``lat``: its
    element order[k] is element k there. Kept on the lattice, so copies
    that ``relabel`` makes later share it."""
    if lat._canonical is None:
        lat._canonical = tuple(_canonical_orderings(lat.leq)[1][0])
    return lat._canonical


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


# --- incremental backtracking ----------------------------------------------------

def _downsets(down, upto):
    'Downward-closed subsets of {0..upto-1} containing the bottom, as masks.'
    if upto == 0:
        return [0]
    out = []
    for mask in range(1, 1 << upto, 2):  # odd: bottom always in
        ok = True
        m = mask
        while m:
            j = (m & -m).bit_length() - 1
            if down[j] & ~mask & ((1 << upto) - 1):
                ok = False
                break
            m &= m - 1
        if ok:
            out.append(mask)
    return out


def _has_max(mask, down):
    'Does the nonempty element set have a greatest member?'
    m = mask
    while m:
        c = (m & -m).bit_length() - 1
        if mask & ~down[c] == 0:
            return True
        m &= m - 1
    return False


def enumerate_lattices(n):
    """All lattices on n elements up to isomorphism, canonically ordered.

    Elements are inserted bottom-up; index order is a linear extension, so a
    new element is never below an old one. Pruning invariants:

    * the strict downset of a new element is downward closed;
    * meets of existing pairs are already settled, so every pair below the
      new element must keep a greatest common lower bound;
    * once a pair has common upper bounds, their least member must already
      exist (later elements can never slip below the current ones).
    """
    if n < 1:
        raise MoritaError("n must be at least 1")
    if n > MAX_ENUM_N:
        raise ResourceLimit(f"lattice enumeration capped at n={MAX_ENUM_N}")
    if n == 1:
        return [validate_lattice(np.eye(1, dtype=bool))]

    seen = set()
    reps = []
    down = [0] * n   # down[i]: mask of j <= i, including i
    up = [0] * n

    def insert(i):
        if i == n:
            leq = np.zeros((n, n), dtype=bool)
            for j in range(n):
                m = down[j]
                while m:
                    k = (m & -m).bit_length() - 1
                    leq[k, j] = True
                    m &= m - 1
            key = canonical_key(leq)
            if key not in seen:
                seen.add(key)
                reps.append(np.frombuffer(key, dtype=bool).reshape(n, n).copy())
            return
        last = i == n - 1
        for dmask in _downsets(down, i):
            if last and dmask != (1 << i) - 1:
                continue
            ok = True
            for j in range(i):
                if not _has_max(dmask & down[j], down):
                    ok = False  # meet of i and j would be missing
                    break
            if ok and not last:
                # pairs under the new element gain it as an upper bound; a
                # least upper bound must survive (it can only be an element
                # that already exists and sits under the new one, or the new
                # element itself when the pair had no upper bound before)
                m = dmask
                pairs = []
                while m:
                    a = (m & -m).bit_length() - 1
                    mm = m & (m - 1)
                    while mm:
                        b = (mm & -mm).bit_length() - 1
                        pairs.append((a, b))
                        mm &= mm - 1
                    m &= m - 1
                for a, b in pairs:
                    ub_old = up[a] & up[b]
                    if not ub_old:
                        continue
                    found = False
                    mm = ub_old
                    while mm:
                        c = (mm & -mm).bit_length() - 1
                        if ub_old & ~up[c] == 0 and (dmask >> c) & 1:
                            found = True
                            break
                        mm &= mm - 1
                    if not found:
                        ok = False
                        break
            if not ok:
                continue
            down[i] = dmask | (1 << i)
            up[i] = 1 << i
            touched = []
            m = dmask
            while m:
                j = (m & -m).bit_length() - 1
                up[j] |= 1 << i
                touched.append(j)
                m &= m - 1
            insert(i + 1)
            for j in touched:
                up[j] &= ~(1 << i)
            down[i] = up[i] = 0

    # bottom is element 0, below everything by construction
    down[0] = 1
    up[0] = 1
    insert(1)
    lats = [validate_lattice(leq) for leq in reps]
    lats.sort(key=lambda l: l.leq.tobytes())
    return lats
