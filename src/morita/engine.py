"""Morita pair witnesses, Morita contexts, and the bridges between them.

A witness is a pair of surjective sup-maps p: X(x)Y(x)X -> X and
q: Y(x)X(x)Y -> Y subject to six conditions: two associativity chains tying
p and q together and four separation conditions saying the curried maps
p(-(x)x), p(x(x)-), q(-(x)y), q(y(x)-) are injective in their parameter.
From such a witness one builds quantales of operators L_a(x) = p(a(x)x) and
R_b(y) = q(b(x)y), bimodule actions, and pairings (x,y) = L_{x(x)y},
[y,x] = R_{y(x)x}; the result is a Morita context. Conversely a context
yields a witness through p~(x1,y,x2) = (x1,y).x2, and the two directions
are mutually inverse on the nose.

A witness is its generator tables, the values of p and q on elementary
tensors: a sup-map out of a tensor is exactly its multimorphism, so the
tables determine p and q. The conditions are checked on generators, which
is complete because everything in sight preserves joins and elementary
tensors join-generate; no check here builds a three-fold tensor. The
exported checks take witnesses, whose constructors validate the tables;
the raw-table checks assume multimorphisms and are not exported.

Most of the pair check reads one table alone: surjectivity, the two
separation conditions on that table's slots, and the two composites of
its associativity chain that do not involve the other map. The census
checks every p against every q, so ``_one_sided`` memoises this part per
table in an LRU cache keyed by the two lattices and the table's bytes.
A table is clean when it passes all of it, and its entry is then the
chain's left composite, else None. A pair passes exactly when both tables
are clean and each chain's mixed composite, the only part gathered per
pair, equals its left one; so the outcome is exact at once. A passing
report is built at once; a failing one names its law and counterexample
only when its verdicts are first read, computed afresh from the bytes of
the memo key, so a caller's later change to its arrays changes no name.
An entry holds indices, never element names: lattices compare equal by
their order alone, so a relabelled or conjugate lattice reaches the same
entry, and every name in a report comes from the call's own lattices.
The cache keeps at most 8192 entries, enough for both lists of the c3 x d
census space (2,547 tables), of about 8 nx^2 ny + 200 bytes each, plus
nx^3 ny^2 + 200 for a clean table, whose composite is kept in the
smallest dtype that holds it: at most 16 MB at nx = ny = 4. The census
scans the q list once per p, so on longer lists (c3 x c4 has 151,912
tables, d x d 38,748) each pair still computes a side.

A context is its six parts and its report, and it too is built from the
generator tables alone, with no X(x)Y or Y(x)X (see ``_context``). Of its
parts only Q(X), in which A lies, depends on the order alone, so
``_order_part`` builds it once per isomorphism class, in canonical form,
and renumbers it exactly to every other copy; an LRU of at most 32 entries
keyed by the order keeps both, and X* and relabelled lattices reach one
entry, under their own names. An entry of n elements holds about
17 n^2 + 300 n bytes once its join is read: at most 12 KB for n <= 4.

A built context or imprimitivity bimodule carries its build's passing
report, which ``check_morita_context`` or ``check_imprimitivity`` returns;
one assembled by hand or read from a file is checked in full. Of the laws
only the sup-laws keep their passes by content, in ``is_multimorphism``.
"""

import functools

import numpy as np

from .enumeration import _canonical_order
from .errors import (ConditionReport, ConditionsFailed, ContextInvalid,
                     DomainMismatch, PASS, ShapeMismatch, StarNotWellDefined,
                     failure, slice_collision, table_law)
from .lattice import (_SetOnce, _assembled, _freeze, _generates, _reordered,
                      conjugate_lattice, join_closure)
from .modules import (Bimodule, _action, check_bimodule, conjugate_bimodule,
                      is_m_regular)
# image_subquantale, lift_multimorphism and tensor_product are unused here
# but stay bound: the benchmark tracer (perfbench/tracer.py) rebinds them
from .quantale import (InvolutiveQuantale, _subquantale, check_quantale,
                       endo_quantale, image_subquantale,
                       is_quantale_involution)
from .tensor import (Multimorphism, _trusted, as_multimorphism,
                     is_multimorphism, join_over_tuples, lift_multimorphism,
                     tensor_product)


# --- witnesses --------------------------------------------------------------------

class MoritaPairWitness:
    """A candidate pair (X, Y, p, q), held as the generator tables
    p_gen[x1, y, x2] = p(x1(x)y(x)x2) and q_gen[y1, x, y2] = q(y1(x)x(x)y2).

    Raises NotAMultimorphism when a table is not slotwise join-preserving.
    """

    __slots__ = ("x", "y", "p_gen", "q_gen")

    def __init__(self, x, y, p_table, q_table):
        self.x, self.y = x, y
        self.p_gen = as_multimorphism((x, y, x), x, p_table).values
        self.q_gen = as_multimorphism((y, x, y), y, q_table).values

    @classmethod
    def from_generators(cls, x, y, p_table, q_table):
        'The witness with these generator tables; same as the constructor.'
        return cls(x, y, p_table, q_table)

    def __eq__(self, other):
        return (isinstance(other, MoritaPairWitness)
                and self.x == other.x and self.y == other.y
                and np.array_equal(self.p_gen, other.p_gen)
                and np.array_equal(self.q_gen, other.q_gen))

    def __hash__(self):
        return hash((self.x, self.y, self.p_gen.tobytes(),
                     self.q_gen.tobytes()))

    def __repr__(self):
        return f"MoritaPairWitness(|X|={self.x.n}, |Y|={self.y.n})"


def _proved_pair(x, y, p_gen, q_gen):
    """A witness on read-only int64 tables of the right shapes that are
    multimorphisms by construction, so not checked again."""
    return _assembled(MoritaPairWitness, x=x, y=y, p_gen=p_gen, q_gen=q_gen)


def _surjective_by_generators(lat, table, label):
    'Verdict that the values of the int64 ``table`` join-generate ``lat``.'
    if _generates(lat, table):
        return PASS
    closed = join_closure(lat, set(np.asarray(table).ravel().tolist()))
    missing = sorted(set(range(lat.n)) - set(closed))
    return failure(f"{label}-surjective", tuple(lat.names[m] for m in missing[:3]),
                   f"image join-closure has {len(closed)} of {lat.n} elements")


@functools.lru_cache(maxsize=None)
def _chain_offsets(nx, ny):
    """Offsets into a flat (nx, ny, nx) table for the chain's composites:
    of the last two slots by (y2, x3), of the first two as a column by
    (x1, y1), and of the first and last slots with shape (nx, 1, nx)."""
    x, y = np.arange(nx), np.arange(ny)
    tail = _freeze(np.arange(ny * nx))
    head = _freeze((x[:, None] * (ny * nx) + y * nx).reshape(-1, 1))
    ends = _freeze((x * (ny * nx)).reshape(nx, 1, 1) + x)
    return tail, head, ends


def _distinct_slices(table, axis, lat, label):
    'The curried maps obtained by fixing this slot must be pairwise distinct.'
    pair = slice_collision(table, axis)
    if pair is None:
        return PASS
    return failure(label, (lat.names[pair[0]], lat.names[pair[1]]),
                   "distinct elements induce identical curried maps")


def _p_only(table, nx, ny):
    """The chain's composites that read p alone, flat in C order:
    ``left`` p(p(x1, y1, x2), y2, x3) and ``right`` p(x1, y1, p(x2, y2, x3))."""
    tail, head, _ = _chain_offsets(nx, ny)
    flat = table.ravel()
    return (flat[(flat * (ny * nx))[:, None] + tail].ravel(),
            flat[head + flat].ravel())


@functools.lru_cache(maxsize=8192)
def _one_sided(lat, other, raw):
    """What the pair check needs of p: lat(x)other(x)lat -> lat alone, given
    as its C-order int64 bytes: the chain's ``left``, in the smallest dtype
    that holds lat's indices, when p is clean, else None. Clean is
    surjective, ``left == right`` throughout, then (as the census checked
    already) no equal slices in slot 2 or slot 0.

    No element names, so one entry serves every naming of the lattices;
    ``left`` is read-only because every caller shares it. Raises
    DomainMismatch for an entry outside lat.
    """
    nx, ny = lat.n, other.n
    table = np.frombuffer(raw, dtype=np.int64).reshape(nx, ny, nx)
    values = set(table.ravel().tolist())
    if min(values) < 0 or max(values) >= nx:
        raise DomainMismatch(f"generator table has an entry outside 0..{nx - 1}")
    if not values.issuperset(lat.join_irreducibles()):
        return None
    left, right = _p_only(table, nx, ny)
    if (np.array_equal(left, right) and slice_collision(table, 2) is None
            and slice_collision(table, 0) is None):
        return _freeze(left.astype(np.min_scalar_type(nx - 1)))
    return None


def _mid(p_gen, q_gen, nx, ny):
    'The chain\'s mixed composite p(x1, q(y1, x2, y2), x3), flat in C order.'
    return p_gen.ravel()[q_gen.reshape(-1, 1) * nx
                         + _chain_offsets(nx, ny)[2]].ravel()


def _assoc_chain(p_gen, q_gen, x, y, label):
    """p(p(x1,y1,x2),y2,x3) = p(x1,q(y1,x2,y2),x3) = p(x1,y1,p(x2,y2,x3)).

    Each composite is one gather from the flat table of p, laid out in the
    C order of the five slots (x1, y1, x2, y2, x3).
    """
    nx, ny = x.n, y.n
    left, right = _p_only(p_gen, nx, ny)
    mid = _mid(p_gen, q_gen, nx, ny)
    bad = left != mid
    bad |= left != right
    k = int(bad.argmax())                      # the first True, if any
    if bad[k]:
        i1, j1, i2, j2, i3 = map(int, np.unravel_index(
            k, (nx, ny, nx, ny, nx)))
        wit = (x.names[i1], y.names[j1], x.names[i2], y.names[j2], x.names[i3])
        return failure(label, wit,
                       f"nested values {x.names[left[k]]} / "
                       f"{x.names[mid[k]]} / {x.names[right[k]]}")
    return PASS


_PAIR_LAWS = ("p-surjective", "q-surjective", "condition-1", "condition-2",
              "condition-3", "condition-4", "condition-5", "condition-6")


def _pair_verdicts(x, y, p_raw, q_raw):
    """The named verdicts of the pair check, from the two tables' bytes;
    computed afresh, since only a failing report's first read needs them."""
    p_gen = np.frombuffer(p_raw, dtype=np.int64).reshape(x.n, y.n, x.n)
    q_gen = np.frombuffer(q_raw, dtype=np.int64).reshape(y.n, x.n, y.n)
    return [
        ("p-surjective", _surjective_by_generators(x, p_gen, "p")),
        ("q-surjective", _surjective_by_generators(y, q_gen, "q")),
        ("condition-1", _assoc_chain(p_gen, q_gen, x, y, "condition-1")),
        ("condition-2", _assoc_chain(q_gen, p_gen, y, x, "condition-2")),
        ("condition-3", _distinct_slices(p_gen, 2, x, "condition-3")),
        ("condition-4", _distinct_slices(p_gen, 0, x, "condition-4")),
        ("condition-5", _distinct_slices(q_gen, 2, y, "condition-5")),
        ("condition-6", _distinct_slices(q_gen, 0, y, "condition-6"))]


def conditions_from_tables(x, y, p_gen, q_gen) -> ConditionReport:
    """Generator-level surjectivity plus the six conditions, from raw tables.

    Both tables must be multimorphisms, as the census's and ``io.read_map``'s
    are: on others a pass means nothing (the meet table of M3 passes). Check
    untrusted tables with ``check_pair_conditions``. The outcome is exact at
    once; a failing report names its verdicts when they are first read.
    """
    p_gen = np.asarray(p_gen, dtype=np.int64)
    q_gen = np.asarray(q_gen, dtype=np.int64)
    if p_gen.shape != (x.n, y.n, x.n) or q_gen.shape != (y.n, x.n, y.n):
        raise ShapeMismatch("generator tables do not match the carriers")
    p_raw, q_raw = p_gen.tobytes(), q_gen.tobytes()
    p_left = _one_sided(x, y, p_raw)
    q_left = _one_sided(y, x, q_raw)
    # clean sides pass every law but the chains' left == mid
    ok = (p_left is not None and q_left is not None
          and np.array_equal(p_left, _mid(p_gen, q_gen, x.n, y.n))
          and np.array_equal(q_left, _mid(q_gen, p_gen, y.n, x.n)))
    if not ok:
        return ConditionReport.failing(_pair_verdicts, x, y, p_raw, q_raw)
    return ConditionReport.passing(_PAIR_LAWS)


def check_pair_conditions(w: MoritaPairWitness) -> ConditionReport:
    'Surjectivity and conditions 1-6, evaluated on elementary tensors.'
    return conditions_from_tables(w.x, w.y, w.p_gen, w.q_gen)


# --- contexts ---------------------------------------------------------------------

class MoritaContext(_SetOnce):
    """The 6-tuple (A, B, X, Y, (-,-), [-,-]) and its report.

    ``x`` is a bimodule over (A, B), ``y`` over (B, A); ``pair_xy`` lands in
    A and ``pair_yx`` in B. ``report`` is the passing
    ``check_morita_context`` report of a built context, which that check
    returns and extraction reads in place of a second check; it is None
    for contexts built by hand or read from files. A built context is
    read-only.
    """

    __slots__ = ("a", "b", "x", "y", "pair_xy", "pair_yx", "report")

    def __init__(self, a, b, x, y, pair_xy, pair_yx):
        if x.left.quantale != a or x.right.quantale != b:
            raise DomainMismatch("X must be an (A, B)-bimodule")
        if y.left.quantale != b or y.right.quantale != a:
            raise DomainMismatch("Y must be a (B, A)-bimodule")
        if pair_xy.factors != (x.carrier, y.carrier) or pair_xy.target != a.carrier:
            raise DomainMismatch("(-,-) must map X x Y into A")
        if pair_yx.factors != (y.carrier, x.carrier) or pair_yx.target != b.carrier:
            raise DomainMismatch("[-,-] must map Y x X into B")
        self.a, self.b, self.x, self.y = a, b, x, y
        self.pair_xy, self.pair_yx = pair_xy, pair_yx
        self.report = None

    def __repr__(self):
        return (f"MoritaContext(|A|={self.a.n}, |B|={self.b.n}, "
                f"|X|={self.x.carrier.n}, |Y|={self.y.carrier.n})")


def _regularity_verdict(report, label):
    if report.m_regular:
        return PASS
    if not report.separated:
        return failure(label, report.separation_witness or (),
                       "not separated")
    return failure(label, (), f"not essential: part has "
                   f"{len(report.essential_part)} elements")


def check_morita_context(ctx: MoritaContext) -> ConditionReport:
    """The full Morita-context definition, one verdict per law; a built
    context answers with its build's report."""
    if ctx.report is not None:
        return ctx.report
    rep = ConditionReport()
    rep.add("quantale-A", check_quantale(ctx.a))
    rep.add("quantale-B", check_quantale(ctx.b))
    rep.add("module-X", check_bimodule(ctx.x))
    rep.add("module-Y", check_bimodule(ctx.y))
    for side, q in (("A", ctx.a), ("B", ctx.b)):
        # is_m_regular asserts quantale consequences, so judge only quantales
        law = f"m-regular-{side}"
        rep.add(law, _regularity_verdict(is_m_regular(q), law)
                if rep[f"quantale-{side}"] else
                failure(law, (), f"not judged: quantale-{side} fails"))
    rep.add("m-regular-X", _regularity_verdict(is_m_regular(ctx.x), "m-regular-X"))
    rep.add("m-regular-Y", _regularity_verdict(is_m_regular(ctx.y), "m-regular-Y"))
    rep.add("pairing-XY-bimorphism", is_multimorphism(ctx.pair_xy))
    rep.add("pairing-YX-bimorphism", is_multimorphism(ctx.pair_yx))

    lx, rx = ctx.x.left.act, ctx.x.right.act
    ly, ry = ctx.y.left.act, ctx.y.right.act
    pxy, pyx = ctx.pair_xy.values, ctx.pair_yx.values
    ma, mb = ctx.a.mult, ctx.b.mult
    nx_names, ny_names = ctx.x.carrier.names, ctx.y.carrier.names
    a_names, b_names = ctx.a.names, ctx.b.names

    rep.add("pairing-XY-left-linear", table_law(
        "pairing-XY-left-linear: (a.x, y) = a.(x, y)",
        pxy[lx], np.transpose(ma[:, pxy], (1, 0, 2)),
        (nx_names, a_names, ny_names), a_names))
    rep.add("pairing-XY-right-linear", table_law(
        "pairing-XY-right-linear: (x, y.a) = (x, y).a",
        pxy[:, ry], ma[pxy],
        (nx_names, ny_names, a_names), a_names))
    rep.add("pairing-YX-left-linear", table_law(
        "pairing-YX-left-linear: [b.y, x] = b.[y, x]",
        pyx[ly], np.transpose(mb[:, pyx], (1, 0, 2)),
        (ny_names, b_names, nx_names), b_names))
    rep.add("pairing-YX-right-linear", table_law(
        "pairing-YX-right-linear: [y, x.b] = [y, x].b",
        pyx[:, rx], mb[pyx],
        (ny_names, nx_names, b_names), b_names))
    rep.add("balance-XY", table_law(
        "balance-XY: (x.b, y) = (x, b.y)",
        pxy[rx], np.transpose(pxy[:, ly], (0, 2, 1)),
        (nx_names, b_names, ny_names), a_names))
    rep.add("balance-YX", table_law(
        "balance-YX: [y.a, x] = [y, a.x]",
        pyx[ry], np.transpose(pyx[:, lx], (0, 2, 1)),
        (ny_names, a_names, nx_names), b_names))
    rep.add("linking-X", table_law(
        "linking-X: (x1, y).x2 = x1.[y, x2]",
        lx.T[pxy], rx[:, pyx],
        (nx_names, ny_names, nx_names), nx_names))
    rep.add("linking-Y", table_law(
        "linking-Y: [y1, x].y2 = y1.(x, y2)",
        ly.T[pyx], ry[:, pxy],
        (ny_names, nx_names, ny_names), ny_names))
    rep.add("pairing-XY-surjective",
            _surjective_by_generators(ctx.a.carrier, pxy, "pairing-XY"))
    rep.add("pairing-YX-surjective",
            _surjective_by_generators(ctx.b.carrier, pyx, "pairing-YX"))
    return rep


@functools.lru_cache(maxsize=32)
def _order_part(x):
    """Q(X) on a lattice of this order: built by the module-level
    ``endo_quantale``, which a tracer or test may rebind, in canonical form,
    and renumbered from that entry for any other form."""
    order = _canonical_order(x)
    if order != tuple(range(x.n)):
        canon = _reordered(x, list(order), [x.names[i] for i in order])[0]
        return _order_part(canon).renumbered(x, order)
    return endo_quantale(x)


def _endo(x):
    'Q(X) from ``_order_part`` under the names of x.'
    q = _order_part(x)
    return q if q.base.names == x.names else q.renumbered(x)


def _generated(endo, gen):
    """The subquantale of Q(X) generated by joins of the operators
    x2 -> gen[x1, y, x2]: the elements that are the join of the generators
    below them. Also the generators' positions in it, as an (x1, y) table."""
    n0, n1, n2 = gen.shape
    ops = np.array([endo.index[op] for op in
                    map(tuple, gen.reshape(n0 * n1, n2).tolist())])
    leq = endo.carrier.leq
    joined = join_over_tuples(leq[ops].T, endo.carrier, ops[:, None])
    img = np.flatnonzero(joined[:, 0] == np.arange(endo.n))
    return _subquantale(endo, img), np.searchsorted(img, ops).reshape(n0, n1)


def _right_action(gen, lat, quant, pairing):
    """The action table x -> x.c of the elements c of ``quant``: the join
    of gen[x, y, x2] over the generators [y, x2] = pairing[y, x2] below c."""
    n0, n1, n2 = gen.shape
    below = quant.carrier.leq[pairing.ravel()].T
    return join_over_tuples(below, lat, gen.transpose(1, 2, 0).reshape(
        n1 * n2, n0)).T


def build_context_from_pair(w: MoritaPairWitness) -> MoritaContext:
    """From a passing pair to the full context: operators, actions, pairings.

    A is the subquantale of Q(X) generated by joins of L_{x(x)y} = p(x, y, -),
    B that of Q(Y) generated by R_{y(x)x} = q(y, x, -); X carries
    L_a.x = a(x) and x.R_b = p(x(x)b), Y carries R_b.y = b(y) and
    y.L_a = q(y(x)a); pairings are (x,y) = L_{x(x)y} and [y,x] = R_{y(x)x}.
    Every table is read off the generator tables; see ``_context``.
    """
    rep = check_pair_conditions(w)
    if not rep.ok:
        raise ConditionsFailed(rep)
    return _context(w)


def _context(w):
    """Both builders after their gate: the context of a witness that passed,
    from its generator tables alone.

    Write (x, y) for the generator L_{x(x)y} and, for c in A, e_c for the
    tuples (x, y) with (x, y) <= c. Lemma: e_c is the largest element of
    X(x)Y in the operator class c. Proof: p preserves joins in each slot,
    so the generator map does, and is monotone: e_c is down-closed, closed
    under fibre joins and holds the tuples with a bottom coordinate, a
    multi-ideal. Its operator, the join of the generators in it, is c, as
    c in A is the join of the generators below it; and an element of
    class c holds only tuples whose generator is below c. Likewise in B.

    So a value on the elements of X(x)Y that depends only on their class
    is its value at e_c: y.L_c is the join of q(y, x, y2) over (x, y2) in
    e_c, and x.R_c alike. The report's linking and M3 laws fix x.R_c from
    the generators, so the actions need no check of their own.
    """
    x, y = w.x, w.y
    quant_a, pxy = _generated(_endo(x), w.p_gen)
    quant_b, pyx = _generated(_endo(y), w.q_gen)

    # every table below is in range by construction; the laws are
    # checked in ctx.report
    lx = _freeze(np.array(quant_a.op_values, dtype=np.int64).T)
    ly = _freeze(np.array(quant_b.op_values, dtype=np.int64).T)
    rx = _freeze(_right_action(w.p_gen, x, quant_b, pyx))
    ry = _freeze(_right_action(w.q_gen, y, quant_a, pxy))

    bim_x = Bimodule(_action("left", quant_a, x, lx),
                     _action("right", quant_b, x, rx))
    bim_y = Bimodule(_action("left", quant_b, y, ly),
                     _action("right", quant_a, y, ry))

    pair_xy = _trusted((x, y), quant_a.carrier, _freeze(pxy))
    pair_yx = _trusted((y, x), quant_b.carrier, _freeze(pyx))

    ctx = MoritaContext(quant_a, quant_b, bim_x, bim_y, pair_xy, pair_yx)
    ctx.report = check_morita_context(ctx)
    if not ctx.report.ok:
        raise ConditionsFailed(ctx.report)
    return ctx


def extract_pair_from_context(ctx: MoritaContext) -> MoritaPairWitness:
    """Recover the pair: p~(x1,y,x2) = (x1,y).x2 and q~(y1,x,y2) = [y1,x].y2,
    and check its conditions.

    A built context's report proves the pairings bimorphisms and the
    actions sup-maps in each slot, so the recovered tables, composites of
    those, are multimorphisms and not checked again. A context without that
    report is checked in full first, and its tables by the witness
    constructor.
    """
    proved = ctx.report is not None
    rep = ctx.report if proved else check_morita_context(ctx)
    if not rep.ok:
        raise ContextInvalid(rep)
    p_gen = _freeze(ctx.x.left.act.T[ctx.pair_xy.values])
    q_gen = _freeze(ctx.y.left.act.T[ctx.pair_yx.values])
    w = (_proved_pair if proved else MoritaPairWitness)(
        ctx.x.carrier, ctx.y.carrier, p_gen, q_gen)
    after = check_pair_conditions(w)
    if not after.ok:
        raise ContextInvalid(after)
    return w


# --- the involutive pipeline ---------------------------------------------------------

class InvolutiveWitness:
    """A single map p: X(x)X*(x)X -> X, held as its generator table; the
    conjugate lattice X* is X relabelled.

    Raises NotAMultimorphism when the table is not slotwise join-preserving.
    """

    __slots__ = ("x", "xstar", "p_gen")

    def __init__(self, x, p_table):
        self.x, self.xstar = x, conjugate_lattice(x)
        self.p_gen = as_multimorphism((x, self.xstar, x), x, p_table).values

    @classmethod
    def from_generators(cls, x, p_table):
        'The witness with this generator table; same as the constructor.'
        return cls(x, p_table)


_INVOLUTIVE_LAWS = ("p-surjective", "condition-a", "condition-b",
                    "condition-c")


def _involutive_verdicts(x, raw):
    'The named verdicts of the involutive check, from the table\'s bytes.'
    p = np.frombuffer(raw, dtype=np.int64).reshape((x.n,) * 3)
    return [("p-surjective", _surjective_by_generators(x, p, "p")),
            ("condition-a", _assoc_chain(p, p.transpose(2, 1, 0), x, x,
                                         "condition-a")),
            ("condition-b", _distinct_slices(p, 2, x, "condition-b")),
            ("condition-c", _distinct_slices(p, 0, x, "condition-c"))]


def involutive_conditions_from_tables(x, p_gen) -> ConditionReport:
    """Generator-level surjectivity and conditions a), b), c) from a raw table.

    They are conditions 1, 3 and 4 of the pair (X, X*, p, q) with
    q(x, y, z) = p(z, y, x), and X* has the order of X. As with
    ``conditions_from_tables``, the table must be a multimorphism (check an
    untrusted one with ``check_involutive_conditions``), and the outcome is
    exact at once.
    """
    p = np.asarray(p_gen, dtype=np.int64)
    if p.shape != (x.n,) * 3:
        raise ShapeMismatch("generator table does not match the carrier")
    raw = p.tobytes()
    left = _one_sided(x, x, raw)
    ok = left is not None and np.array_equal(
        left, _mid(p, p.transpose(2, 1, 0), x.n, x.n))
    if not ok:
        return ConditionReport.failing(_involutive_verdicts, x, raw)
    return ConditionReport.passing(_INVOLUTIVE_LAWS)


def check_involutive_conditions(w: InvolutiveWitness) -> ConditionReport:
    'Surjectivity and conditions a), b), c) on elementary tensors.'
    return involutive_conditions_from_tables(w.x, w.p_gen)


def as_pair_witness(w: InvolutiveWitness) -> MoritaPairWitness:
    """The (X, X*) witness with q(y1, x, y2) = p(y2, x, y1). The witness
    checked p, and reversing the slots of a multimorphism whose first and
    last factors share an order leaves one, so neither table is re-checked."""
    q_gen = _freeze(np.ascontiguousarray(w.p_gen.transpose(2, 1, 0)))
    return _proved_pair(w.x, w.xstar, w.p_gen, q_gen)


# --- imprimitivity ---------------------------------------------------------------------

class ImprimitivityBimodule(_SetOnce):
    """X with two inner products over involutive quantales A and B.

    ``report`` is the passing ``check_imprimitivity`` report of a bimodule
    built by ``build_involutive_context``, which that check returns; it is
    None for one built by hand. A built bimodule is read-only.
    """

    __slots__ = ("a", "b", "bimodule", "inner_a", "inner_b", "report")

    def __init__(self, a: InvolutiveQuantale, b: InvolutiveQuantale,
                 bimodule: Bimodule, inner_a: Multimorphism,
                 inner_b: Multimorphism):
        carrier = bimodule.carrier
        if inner_a.factors != (carrier, carrier) or inner_a.target != a.carrier:
            raise DomainMismatch("A-valued inner product has the wrong shape")
        if inner_b.factors != (carrier, carrier) or inner_b.target != b.carrier:
            raise DomainMismatch("B-valued inner product has the wrong shape")
        self.a, self.b = a, b
        self.bimodule = bimodule
        self.inner_a, self.inner_b = inner_a, inner_b
        self.report = None


def check_imprimitivity(imp: ImprimitivityBimodule) -> ConditionReport:
    """Imprimitivity laws: involutions, module laws, m-regularity, fullness,
    compatibility, and the conjugate structure; a built bimodule answers
    with its build's report."""
    if imp.report is not None:
        return imp.report
    return _imprimitivity_report(imp, None)


def _same_tables(bim, other):
    'Whether two bimodules share carrier order, action tables and products.'
    return np.array_equal(bim.carrier.leq, other.carrier.leq) and all(
        np.array_equal(mine.act, theirs.act)
        and np.array_equal(mine.quantale.mult, theirs.quantale.mult)
        for mine, theirs in ((bim.left, other.left), (bim.right, other.right)))


def _imprimitivity_report(imp, ctx):
    """The ``check_imprimitivity`` report of ``imp``; ``ctx`` is None, or
    the built context whose X is ``imp.bimodule``.

    The module laws and m-regularity of that bimodule are those of the
    context's X, so its report's module-X and m-regular-X verdicts decide
    them; its module-Y verdict decides the conjugate's module laws when the
    conjugate has the tables of Y, which is compared here.
    """
    ctx_rep = None if ctx is None else ctx.report

    def judged(ctx_law, verdict):
        return PASS if ctx_rep is not None and ctx_rep[ctx_law] else verdict()

    rep = ConditionReport()
    rep.add("involution-A",
            is_quantale_involution(imp.a.quantale, imp.a.star))
    rep.add("involution-B",
            is_quantale_involution(imp.b.quantale, imp.b.star))
    rep.add("module-laws",
            judged("module-X", lambda: check_bimodule(imp.bimodule)))
    rep.add("m-regular", judged("m-regular-X", lambda: _regularity_verdict(
        is_m_regular(imp.bimodule), "m-regular")))
    rep.add("inner-A-bimorphism", is_multimorphism(imp.inner_a))
    rep.add("inner-B-bimorphism", is_multimorphism(imp.inner_b))
    rep.add("fullness-A", _surjective_by_generators(
        imp.a.carrier, imp.inner_a.values, "fullness-A"))
    rep.add("fullness-B", _surjective_by_generators(
        imp.b.carrier, imp.inner_b.values, "fullness-B"))

    lx, rx = imp.bimodule.left.act, imp.bimodule.right.act
    ia, ib = imp.inner_a.values, imp.inner_b.values
    names = imp.bimodule.carrier.names
    rep.add("compatibility", table_law(
        "compatibility: <x,y>_A.z = x.<y,z>_B",
        lx.T[ia], rx[:, ib], (names, names, names), names))

    if rep.ok:
        conj = conjugate_bimodule(imp.bimodule, imp.a, imp.b)
        if ctx is not None and _same_tables(conj, ctx.y):
            verdict = judged("module-Y", lambda: check_bimodule(conj))
        else:
            verdict = check_bimodule(conj)
        rep.add("conjugate-module-laws", verdict)
        sa = np.asarray(imp.a.star)
        sb = np.asarray(imp.b.star)
        cia = sa[ia.T]   # <x*,y*>_A = <y,x>_A*
        cib = sb[ib.T]   # <x*,y*>_B = <y,x>_B*
        star_names = conj.carrier.names
        rep.add("conjugate-fullness-A", _surjective_by_generators(
            imp.a.carrier, cia, "conjugate-fullness-A"))
        rep.add("conjugate-fullness-B", _surjective_by_generators(
            imp.b.carrier, cib, "conjugate-fullness-B"))
        rep.add("conjugate-compatibility", table_law(
            "conjugate-compatibility: <x*,y*>_B.z* = x*.<y*,z*>_A",
            conj.left.act.T[cib], conj.right.act[:, cia],
            (star_names, star_names, star_names), star_names))
    return rep


def _class_star(pairing, label):
    """Star table on the target of ``pairing``, a pairing of X with X*: the
    swap u(x)v -> v(x)u is a sup-map, so star(c) is the join of pairing(y, x)
    over the (x, y) in e_c (see ``_context``). It must send each generator
    to its swap, as it does on inputs that passed conditions a)-c); else
    StarNotWellDefined. ``check_imprimitivity`` checks the involution."""
    quant, values = pairing.target, pairing.values
    star = join_over_tuples(quant.leq[values.ravel()].T, quant,
                            values.T.reshape(-1, 1))[:, 0]
    bad = star[values] != values.T
    if bad.any():
        u, v = map(int, np.unravel_index(int(bad.argmax()), bad.shape))
        x, a = pairing.factors[0].names, quant.names
        raise StarNotWellDefined(
            f"{label}: ({x[u]}, {x[v]})* = {a[star[values[u, v]]]} but "
            f"({x[v]}, {x[u]}) = {a[values[v, u]]}")
    return tuple(star.tolist())


def build_involutive_context(w: InvolutiveWitness):
    """From a passing one-sided p to context, stars, and imprimitivity data.

    Conditions a)-c) are the only gate: they decide conditions 1-6 of
    (X, X*, p, p^T), so the pair build's own gate is not run. Returns
    (MoritaContext, (InvolutiveQuantale A, InvolutiveQuantale B),
    ImprimitivityBimodule). Stars are built from the swapped generators
    (``_class_star``), which must map each generator to its swap; for
    inputs that passed conditions a)-c) they do, so StarNotWellDefined,
    raised otherwise, is an integrity alarm. A star that is not an
    involution fails involution-A or -B of the imprimitivity report, which
    raises ConditionsFailed.
    """
    rep = check_involutive_conditions(w)
    if not rep.ok:
        raise ConditionsFailed(rep)
    ctx = _context(as_pair_witness(w))

    inv_a = InvolutiveQuantale(ctx.a, _class_star(ctx.pair_xy, "star on A"))
    inv_b = InvolutiveQuantale(ctx.b, _class_star(ctx.pair_yx, "star on B"))

    inner_a = _trusted((w.x, w.x), ctx.a.carrier, ctx.pair_xy.values)
    inner_b = _trusted((w.x, w.x), ctx.b.carrier, ctx.pair_yx.values)
    imp = ImprimitivityBimodule(inv_a, inv_b, ctx.x, inner_a, inner_b)
    imp.report = _imprimitivity_report(imp, ctx)
    if not imp.report.ok:
        raise ConditionsFailed(imp.report)
    return ctx, (inv_a, inv_b), imp
