"""Quantales on finite sup-lattices.

A quantale here is a lattice with an associative multiplication that
distributes over joins in both arguments. Finiteness reduces the sup-side
laws to binary joins plus annihilation by bottom, which together say that
the product is a multimorphism C x C -> C. The motivating example is
the endomorphism quantale Q(X) of all sup-maps X -> X under composition.
It and its images under sup-maps are lattices by construction: their
carriers are built directly, and their products by one gather each.
"""

import numpy as np

from .errors import (DomainMismatch, MissingInvolution, NotAMultimorphism,
                     NotCompositionClosed, PASS, failure, table_law)
# validate_lattice is unused here but stays bound: the benchmark tracer
# (perfbench/tracer.py) rebinds it in morita.quantale
from .lattice import (FiniteSupLattice, _SetOnce, _assembled, _freeze,
                      _index_table, _reordered, validate_lattice)
from .tensor import (Multimorphism, _trusted, enumerate_multimorphisms,
                     is_multimorphism)


class Quantale(_SetOnce):
    __slots__ = ("carrier", "mult", "unit")

    def __init__(self, carrier: FiniteSupLattice, mult, unit=None):
        self.carrier = carrier
        self.mult = _index_table(mult, (carrier.n, carrier.n), carrier.n,
                                 "multiplication")
        self.unit = None if unit is None else int(unit)

    @property
    def n(self):
        return self.carrier.n

    @property
    def names(self):
        return self.carrier.names

    def __eq__(self, other):
        return (isinstance(other, Quantale) and self.carrier == other.carrier
                and self.mult.tobytes() == other.mult.tobytes())

    def __hash__(self):
        return hash((self.carrier, self.mult.tobytes()))

    def __repr__(self):
        return f"Quantale(n={self.n})"


# the sup-laws of the product ab, read as a bimorphism C x C -> C
_SUP_LAWS = {"slot-0-bottom": "left-annihilation",
             "slot-0-joins": "right-distributive",
             "slot-1-bottom": "right-annihilation",
             "slot-1-joins": "left-distributive"}


def check_quantale(q: Quantale):
    """Verdict on associativity, then on the sup-laws: distributivity over
    joins and annihilation by bottom, in both arguments."""
    m, names = q.mult, q.names
    v = table_law("associative", m[m, :], m[:, m], (names,) * 3, names,
                  "(ab)c = {} but a(bc) = {}")
    if not v:
        return v
    v = is_multimorphism(_trusted((q.carrier, q.carrier), q.carrier, m))
    if not v:
        return failure(_SUP_LAWS[v.law], v.witness, v.detail)
    return PASS


# --- endomorphism quantales --------------------------------------------------------

class OperatorQuantale(Quantale):
    """Q(X): all sup-maps X -> X, ordered pointwise, multiplied by composition.

    ``op_values[i]`` is the value table of operator i; ``index`` inverts it.
    The identity is recorded as the unit but nothing downstream relies on it.
    Built only by construction (``endo_quantale``, ``image_subquantale``,
    ``renumbered``), so ``mult`` is taken as it comes: a read-only int64
    table in range, not copied or checked again.
    """

    __slots__ = ("base", "op_values", "index")

    def __init__(self, base, carrier, mult, op_values, unit):
        self.carrier, self.mult, self.unit = carrier, mult, unit
        self.base = base
        self.op_values = tuple(op_values)
        self.index = {v: i for i, v in enumerate(self.op_values)}

    def renumbered(self, base, perm=None):
        """Q(base) for a lattice whose order is this one's base with element
        i renumbered ``perm[i]``: each operator f becomes perm f perm^-1, and
        the operators are sorted again, so the result equals a fresh build.
        Without ``perm`` only the names change and every table is shared."""
        old, ops = self.carrier, self.op_values
        if perm is None:
            return OperatorQuantale(base, old.relabel(_op_names(base, ops)),
                                    self.mult, ops, self.unit)
        perm = np.asarray(perm)
        vals = np.empty((self.n, base.n), dtype=np.int64)
        vals[:, perm] = perm[np.array(ops)]
        order = np.lexsort(vals.T[::-1])
        ops = [tuple(v) for v in vals[order].tolist()]
        carrier, new = _reordered(old, order, _op_names(base, ops))
        mult = _freeze(new[self.mult[order][:, order]])
        return OperatorQuantale(base, carrier, mult, ops, int(new[self.unit]))


def _op_names(x, ops):
    return ["[" + " ".join(x.names[v] for v in op) + "]" for op in ops]


def _row_keys(rows):
    'Rows of non-negative ints as big-endian bytes, which sort as the rows do.'
    rows = np.ascontiguousarray(rows, dtype=">i8")
    return rows.view(f"V{8 * rows.shape[-1]}")[..., 0]


def endo_quantale(x: FiniteSupLattice) -> OperatorQuantale:
    """Build Q(x) by enumerating every sup-map x -> x; a lattice under the
    pointwise order, so not validated. The composites f.g of the sorted
    operators are the rows f[g] of one gather, found by binary search."""
    vals = np.array([f.values for f in enumerate_multimorphisms((x,), x)])
    vals = vals[np.lexsort(vals.T[::-1])]
    leq = x.leq[vals[:, None, :], vals[None, :, :]].all(axis=2)
    ops = [tuple(v) for v in vals.tolist()]
    carrier = FiniteSupLattice(len(ops), _op_names(x, ops), leq, None, None,
                               None, None)
    mult = np.searchsorted(_row_keys(vals), _row_keys(vals[:, vals]))
    return OperatorQuantale(x, carrier, _freeze(mult), ops,
                            ops.index(tuple(range(x.n))))


def image_subquantale(q: Quantale, family: Multimorphism):
    """Restrict a quantale to the image of a sup-map into its carrier.

    The family is a one-slot multimorphism; one that breaks joins raises
    NotAMultimorphism. The image holds bottom and is join-closed, so it is
    a lattice with the quantale's joins, not validated; composition closure
    is a real condition, and NotCompositionClosed names the first product
    to escape, row-major over the sorted image. Returns the image quantale
    and the corestriction, a sup-map by construction, so not checked.
    """
    if len(family.factors) != 1 or family.target != q.carrier:
        raise DomainMismatch("family is not a sup-map into the quantale carrier")
    v = is_multimorphism(family)
    if not v:
        raise NotAMultimorphism(str(v))
    hits = np.bincount(family.values, minlength=q.n)
    img = np.flatnonzero(hits)
    prod = q.mult[np.ix_(img, img)]
    out = hits[prod] == 0
    if out.any():
        a, b = img[list(divmod(int(out.argmax()), len(img)))]
        c = int(q.mult[a, b])
        raise NotCompositionClosed(
            f"product {q.names[a]} . {q.names[b]} = {q.names[c]} "
            "escapes the image", witness=(q.names[a], q.names[b]))
    ids, leq = img.tolist(), q.carrier.leq[np.ix_(img, img)]
    join = np.searchsorted(img, q.carrier.join[np.ix_(img, img)])
    carrier = FiniteSupLattice(len(ids), [q.names[e] for e in ids], leq, join,
                               None, None, None)
    mult = _freeze(np.searchsorted(img, prod))
    unit = ids.index(q.unit) if q.unit in ids else None
    if isinstance(q, OperatorQuantale):
        sub = OperatorQuantale(q.base, carrier, mult,
                               [q.op_values[e] for e in ids], unit)
    else:
        sub = _assembled(Quantale, carrier=carrier, mult=mult, unit=unit)
    corestriction = _trusted(family.factors, carrier,
                             _freeze(np.searchsorted(img, family.values)))
    return sub, corestriction


# --- involutions ---------------------------------------------------------------------

class InvolutiveQuantale:
    __slots__ = ("quantale", "star")

    def __init__(self, quantale, star):
        self.quantale = quantale
        self.star = tuple(int(s) for s in star)

    @property
    def carrier(self):
        return self.quantale.carrier

    def __repr__(self):
        return f"InvolutiveQuantale(n={self.quantale.n})"


def is_quantale_involution(q: Quantale, star):
    'Verdict: period two, join-preserving, and an antihomomorphism.'
    star = tuple(int(s) for s in star)
    if len(star) != q.n or not all(0 <= s < q.n for s in star):
        raise DomainMismatch("star table does not match the carrier")
    names, st = q.names, _freeze(np.array(star, dtype=np.int64))
    # at the first a with a** != a, the detail reads "a** = <a**>"
    v = table_law("period-two", st[st], np.arange(q.n), (names,), names,
                  "{1}** = {0}")
    if not v:
        return v
    v = is_multimorphism(_trusted((q.carrier,), q.carrier, st))
    if not v:
        return v
    # (b*, a*) product at position (a, b)
    return table_law("antihomomorphism", st[q.mult],
                     q.mult[np.ix_(st, st)].T, (names, names), names,
                     "(ab)* = {} but b*a* = {}")


def as_involutive_quantale(q: Quantale, star) -> InvolutiveQuantale:
    if star is None:
        raise MissingInvolution("a star table is required")
    v = is_quantale_involution(q, star)
    if not v:
        raise MissingInvolution(f"not an involution: {v}")
    return InvolutiveQuantale(q, star)
