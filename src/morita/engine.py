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

Condition checks come in two flavours: generator-level (tables over lattice
elements; complete because everything in sight preserves joins and
elementary tensors join-generate) and full-domain (quantified over tensor
elements; used to validate the reduction at small sizes).
"""

from collections import defaultdict

import numpy as np

from .errors import (ConditionReport, ConditionsFailed, ContextInvalid,
                     DomainMismatch, MoritaError, NotSupMap, NotWellDefined,
                     PASS, ShapeMismatch, StarNotWellDefined, failure)
from .lattice import SupMap, conjugate_lattice, is_sup_map, join_closure
from .modules import (Bimodule, ModuleAction, check_bimodule,
                      conjugate_bimodule, is_m_regular)
from .quantale import (InvolutiveQuantale, check_quantale, endo_quantale,
                       image_subquantale, is_quantale_involution)
from .tensor import (Multimorphism, as_multimorphism, is_multimorphism,
                     lift_multimorphism, splice, tensor_product)


# --- witnesses --------------------------------------------------------------------

class MoritaPairWitness:
    'A candidate pair (X, Y, p, q) with its tensors and generator tables.'

    __slots__ = ("x", "y", "txyx", "tyxy", "p", "q", "p_gen", "q_gen")

    def __init__(self, x, y, txyx, tyxy, p: SupMap, q: SupMap):
        if txyx.factors != (x, y, x):
            raise ShapeMismatch("first tensor is not X(x)Y(x)X")
        if tyxy.factors != (y, x, y):
            raise ShapeMismatch("second tensor is not Y(x)X(x)Y")
        if p.dom != txyx.lattice or p.cod != x:
            raise ShapeMismatch("p must map X(x)Y(x)X to X")
        if q.dom != tyxy.lattice or q.cod != y:
            raise ShapeMismatch("q must map Y(x)X(x)Y to Y")
        for f in (p, q):
            v = is_sup_map(f)
            if not v:
                raise NotSupMap(str(v))
        self.x, self.y = x, y
        self.txyx, self.tyxy = txyx, tyxy
        self.p, self.q = p, q
        self.p_gen = np.asarray(p.values, dtype=np.int64)[txyx.elem_table]
        self.q_gen = np.asarray(q.values, dtype=np.int64)[tyxy.elem_table]
        self.p_gen.flags.writeable = False
        self.q_gen.flags.writeable = False

    @classmethod
    def from_generators(cls, x, y, p_table, q_table, txyx=None, tyxy=None):
        'Lift generator tables; raises NotAMultimorphism on slotwise failure.'
        # validate before building tensors: the lattices may be small while
        # their three-fold tensor is enormous
        pm = as_multimorphism((x, y, x), x, p_table)
        qm = as_multimorphism((y, x, y), y, q_table)
        if txyx is None:
            txyx = tensor_product(x, y, x)
        if tyxy is None:
            tyxy = tensor_product(y, x, y)
        p = lift_multimorphism(pm, txyx)
        q = lift_multimorphism(qm, tyxy)
        return cls(x, y, txyx, tyxy, p, q)

    def __eq__(self, other):
        return (isinstance(other, MoritaPairWitness)
                and self.x == other.x and self.y == other.y
                and self.p.values == other.p.values
                and self.q.values == other.q.values)

    def __hash__(self):
        return hash((self.x, self.y, self.p.values, self.q.values))

    def __repr__(self):
        return f"MoritaPairWitness(|X|={self.x.n}, |Y|={self.y.n})"


def _surjective_by_generators(lat, table, label):
    closed = join_closure(lat, {int(v) for v in np.asarray(table).reshape(-1)})
    if len(closed) == lat.n:
        return PASS
    missing = sorted(set(range(lat.n)) - set(closed))
    return failure(f"{label}-surjective", tuple(lat.names[m] for m in missing[:3]),
                   f"image join-closure has {len(closed)} of {lat.n} elements")


def _assoc_chain(p_gen, q_gen, x, y, label):
    'p(p(x1,y1,x2),y2,x3) = p(x1,q(y1,x2,y2),x3) = p(x1,y1,p(x2,y2,x3)).'
    nx, ny = x.n, y.n
    x1 = np.arange(nx).reshape(nx, 1, 1, 1, 1)
    y1 = np.arange(ny).reshape(1, ny, 1, 1, 1)
    x2 = np.arange(nx).reshape(1, 1, nx, 1, 1)
    y2 = np.arange(ny).reshape(1, 1, 1, ny, 1)
    x3 = np.arange(nx).reshape(1, 1, 1, 1, nx)
    left = p_gen[p_gen[x1, y1, x2], y2, x3]
    mid = p_gen[x1, q_gen[y1, x2, y2], x3]
    right = p_gen[x1, y1, p_gen[x2, y2, x3]]
    bad = np.argwhere((left != mid) | (left != right))
    if len(bad):
        i1, j1, i2, j2, i3 = map(int, bad[0])
        wit = (x.names[i1], y.names[j1], x.names[i2], y.names[j2], x.names[i3])
        return failure(label, wit,
                       f"nested values {x.names[left[i1, j1, i2, j2, i3]]} / "
                       f"{x.names[mid[i1, j1, i2, j2, i3]]} / "
                       f"{x.names[right[i1, j1, i2, j2, i3]]}")
    return PASS


def _distinct_slices(table, axis, lat, label):
    'The curried maps obtained by fixing this slot must be pairwise distinct.'
    seen = {}
    for v in range(lat.n):
        key = np.take(table, v, axis=axis).tobytes()
        if key in seen:
            return failure(label, (lat.names[seen[key]], lat.names[v]),
                           "distinct elements induce identical curried maps")
        seen[key] = v
    return PASS


def conditions_from_tables(x, y, p_gen, q_gen) -> ConditionReport:
    'Generator-level surjectivity plus the six conditions, from raw tables.'
    p_gen = np.asarray(p_gen, dtype=np.int64)
    q_gen = np.asarray(q_gen, dtype=np.int64)
    if p_gen.shape != (x.n, y.n, x.n) or q_gen.shape != (y.n, x.n, y.n):
        raise ShapeMismatch("generator tables do not match the carriers")
    rep = ConditionReport()
    rep.add("p-surjective", _surjective_by_generators(x, p_gen, "p"))
    rep.add("q-surjective", _surjective_by_generators(y, q_gen, "q"))
    rep.add("condition-1", _assoc_chain(p_gen, q_gen, x, y, "condition-1"))
    rep.add("condition-2", _assoc_chain(q_gen, p_gen, y, x, "condition-2"))
    rep.add("condition-3", _distinct_slices(p_gen, 2, x, "condition-3"))
    rep.add("condition-4", _distinct_slices(p_gen, 0, x, "condition-4"))
    rep.add("condition-5", _distinct_slices(q_gen, 2, y, "condition-5"))
    rep.add("condition-6", _distinct_slices(q_gen, 0, y, "condition-6"))
    return rep


def check_pair_conditions(w: MoritaPairWitness) -> ConditionReport:
    'Surjectivity and conditions 1-6, evaluated on elementary tensors.'
    return conditions_from_tables(w.x, w.y, w.p_gen, w.q_gen)


# --- contexts ---------------------------------------------------------------------

class MoritaContext:
    """The 6-tuple (A, B, X, Y, (-,-), [-,-]).

    ``x`` is a bimodule over (A, B), ``y`` over (B, A); ``pair_xy`` lands in
    A and ``pair_yx`` in B. Contexts built from witnesses also carry the
    two- and three-fold tensors and the operator-class index maps for reuse.
    """

    __slots__ = ("a", "b", "x", "y", "pair_xy", "pair_yx",
                 "t_xy", "t_yx", "txyx", "tyxy", "idx_a", "idx_b")

    def __init__(self, a, b, x, y, pair_xy, pair_yx, t_xy=None, t_yx=None,
                 txyx=None, tyxy=None, idx_a=None, idx_b=None):
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
        self.t_xy, self.t_yx = t_xy, t_yx
        self.txyx, self.tyxy = txyx, tyxy
        self.idx_a, self.idx_b = idx_a, idx_b

    def __repr__(self):
        return (f"MoritaContext(|A|={self.a.n}, |B|={self.b.n}, "
                f"|X|={self.x.carrier.n}, |Y|={self.y.carrier.n})")


def _table_law(label, lhs, rhs, axis_names, value_names):
    bad = np.argwhere(lhs != rhs)
    if len(bad):
        idx = tuple(map(int, bad[0]))
        wit = tuple(names[i] for names, i in zip(axis_names, idx))
        return failure(label, wit,
                       f"{value_names[lhs[idx]]} vs {value_names[rhs[idx]]}")
    return PASS


def _regularity_verdict(report, label):
    if report.m_regular:
        return PASS
    if not report.separated:
        return failure(label, report.separation_witness or (),
                       "not separated")
    return failure(label, (), f"not essential: part has "
                   f"{len(report.essential_part)} elements")


def check_morita_context(ctx: MoritaContext) -> ConditionReport:
    'The full Morita-context definition, one verdict per law.'
    rep = ConditionReport()
    rep.add("quantale-A", check_quantale(ctx.a))
    rep.add("quantale-B", check_quantale(ctx.b))
    rep.add("module-X", check_bimodule(ctx.x))
    rep.add("module-Y", check_bimodule(ctx.y))
    rep.add("m-regular-A", _regularity_verdict(is_m_regular(ctx.a), "m-regular-A"))
    rep.add("m-regular-B", _regularity_verdict(is_m_regular(ctx.b), "m-regular-B"))
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

    rep.add("pairing-XY-left-linear", _table_law(
        "pairing-XY-left-linear: (a.x, y) = a.(x, y)",
        pxy[lx], np.transpose(ma[:, pxy], (1, 0, 2)),
        (nx_names, a_names, ny_names), a_names))
    rep.add("pairing-XY-right-linear", _table_law(
        "pairing-XY-right-linear: (x, y.a) = (x, y).a",
        pxy[:, ry], ma[pxy],
        (nx_names, ny_names, a_names), a_names))
    rep.add("pairing-YX-left-linear", _table_law(
        "pairing-YX-left-linear: [b.y, x] = b.[y, x]",
        pyx[ly], np.transpose(mb[:, pyx], (1, 0, 2)),
        (ny_names, b_names, nx_names), b_names))
    rep.add("pairing-YX-right-linear", _table_law(
        "pairing-YX-right-linear: [y, x.b] = [y, x].b",
        pyx[:, rx], mb[pyx],
        (ny_names, nx_names, b_names), b_names))
    rep.add("balance-XY", _table_law(
        "balance-XY: (x.b, y) = (x, b.y)",
        pxy[rx], np.transpose(pxy[:, ly], (0, 2, 1)),
        (nx_names, b_names, ny_names), a_names))
    rep.add("balance-YX", _table_law(
        "balance-YX: [y.a, x] = [y, a.x]",
        pyx[ry], np.transpose(pyx[:, lx], (0, 2, 1)),
        (ny_names, a_names, nx_names), b_names))
    rep.add("linking-X", _table_law(
        "linking-X: (x1, y).x2 = x1.[y, x2]",
        lx.T[pxy], rx[:, pyx],
        (nx_names, ny_names, nx_names), nx_names))
    rep.add("linking-Y", _table_law(
        "linking-Y: [y1, x].y2 = y1.(x, y2)",
        ly.T[pyx], ry[:, pxy],
        (ny_names, nx_names, ny_names), ny_names))
    rep.add("pairing-XY-surjective",
            _surjective_by_generators(ctx.a.carrier, pxy, "pairing-XY"))
    rep.add("pairing-YX-surjective",
            _surjective_by_generators(ctx.b.carrier, pyx, "pairing-YX"))
    return rep


def _operator_family(witness_tensor, part_tensor, pos, fixed_lat, p_values, endo):
    'The family e -> (x -> p(e spliced at pos, x fixed)) as a SupMap into Q.'
    rows = []
    for e in range(part_tensor.n):
        rows.append(tuple(
            int(p_values[splice(witness_tensor, part_tensor, e, pos,
                                (fx,))])
            for fx in range(fixed_lat.n)))
    try:
        idx = tuple(endo.index[r] for r in rows)
    except KeyError:
        raise MoritaError("internal: a curried operator fails to preserve joins")
    fam = SupMap(part_tensor.lattice, endo.carrier, idx)
    v = is_sup_map(fam)
    if not v:
        raise MoritaError(f"internal: operator family broke joins: {v}")
    return fam


def _classwise_action(witness_tensor, part_tensor, pos, fixed_lat, p_values,
                      idx_map, quant, side_label):
    """Action table of operator classes via representatives, checked for
    well-definedness across each class."""
    classes = defaultdict(list)
    for e, c in enumerate(idx_map.values):
        classes[c].append(e)
    act = np.empty((fixed_lat.n, quant.n), dtype=np.int64)
    for c, members in classes.items():
        first = None
        for e in members:
            col = tuple(
                int(p_values[splice(witness_tensor, part_tensor, e, pos, (fx,))])
                for fx in range(fixed_lat.n))
            if first is None:
                first = col
                act[:, c] = col
            elif col != first:
                names = part_tensor.lattice.names
                raise NotWellDefined(
                    f"{side_label} differs across a class: tensor elements "
                    f"{names[members[0]]} and {names[e]} act equally on one "
                    "side but not the other")
    return act


def build_context_from_pair(w: MoritaPairWitness, *,
                            precheck=True) -> MoritaContext:
    """From a passing pair to the full context: operators, actions, pairings.

    A is the image of a -> L_a inside Q(X), B the image of b -> R_b inside
    Q(Y); X carries L_a.x = p(a(x)x) and x.R_b = p(x(x)b), Y carries
    R_b.y = q(b(x)y) and y.L_a = q(y(x)a); pairings are (x,y) = L_{x(x)y}
    and [y,x] = R_{y(x)x}. The right actions are defined through class
    representatives and checked for well-definedness.
    """
    if precheck:
        rep = check_pair_conditions(w)
        if not rep.ok:
            raise ConditionsFailed(rep)
    x, y = w.x, w.y
    t_xy = tensor_product(x, y)
    t_yx = tensor_product(y, x)
    p_values = np.asarray(w.p.values, dtype=np.int64)
    q_values = np.asarray(w.q.values, dtype=np.int64)

    endo_x = endo_quantale(x)
    endo_y = endo_quantale(y)
    fam_l = _operator_family(w.txyx, t_xy, 0, x, p_values, endo_x)
    quant_a, idx_a = image_subquantale(endo_x, fam_l)
    fam_r = _operator_family(w.tyxy, t_yx, 0, y, q_values, endo_y)
    quant_b, idx_b = image_subquantale(endo_y, fam_r)

    lx = np.asarray(quant_a.op_values, dtype=np.int64).T
    ly = np.asarray(quant_b.op_values, dtype=np.int64).T
    rx = _classwise_action(w.txyx, t_yx, 1, x, p_values, idx_b, quant_b,
                           "x.R_b")
    ry = _classwise_action(w.tyxy, t_xy, 1, y, q_values, idx_a, quant_a,
                           "y.L_a")

    bim_x = Bimodule(ModuleAction("left", quant_a, x, lx),
                     ModuleAction("right", quant_b, x, rx))
    bim_y = Bimodule(ModuleAction("left", quant_b, y, ly),
                     ModuleAction("right", quant_a, y, ry))

    idx_a_vals = np.asarray(idx_a.values, dtype=np.int64)
    idx_b_vals = np.asarray(idx_b.values, dtype=np.int64)
    pair_xy = as_multimorphism((x, y), quant_a.carrier,
                               idx_a_vals[t_xy.elem_table])
    pair_yx = as_multimorphism((y, x), quant_b.carrier,
                               idx_b_vals[t_yx.elem_table])

    ctx = MoritaContext(quant_a, quant_b, bim_x, bim_y, pair_xy, pair_yx,
                        t_xy=t_xy, t_yx=t_yx, txyx=w.txyx, tyxy=w.tyxy,
                        idx_a=idx_a, idx_b=idx_b)
    after = check_morita_context(ctx)
    if not after.ok:
        raise ConditionsFailed(after)
    return ctx


def extract_pair_from_context(ctx: MoritaContext, *,
                              precheck=True) -> MoritaPairWitness:
    'Recover the pair: p~(x1,y,x2) = (x1,y).x2 and q~(y1,x,y2) = [y1,x].y2.'
    if precheck:
        rep = check_morita_context(ctx)
        if not rep.ok:
            raise ContextInvalid(rep)
    p_gen = ctx.x.left.act.T[ctx.pair_xy.values]
    q_gen = ctx.y.left.act.T[ctx.pair_yx.values]
    w = MoritaPairWitness.from_generators(ctx.x.carrier, ctx.y.carrier,
                                          p_gen, q_gen, ctx.txyx, ctx.tyxy)
    after = check_pair_conditions(w)
    if not after.ok:
        raise ContextInvalid(after)
    return w


# --- full-domain condition checks ---------------------------------------------------

def _lifted_chain_side(t5, inner_gen, outer: SupMap):
    'Lift tuples -> elementary tensor of a nested value, then apply outer.'
    f = as_multimorphism(t5.factors, outer.dom, inner_gen)
    lifted = lift_multimorphism(f, t5)
    return outer.compose(lifted).values


def _full_assoc(w, p_gen, q_gen, first, label):
    'Compare the three nested composites on every element of a 5-fold tensor.'
    if first:
        x, y, t3, p = w.x, w.y, w.txyx, w.p
    else:
        x, y, t3, p = w.y, w.x, w.tyxy, w.q
    t5 = tensor_product(x, y, x, y, x)
    nx, ny = x.n, y.n
    x1 = np.arange(nx).reshape(nx, 1, 1, 1, 1)
    y1 = np.arange(ny).reshape(1, ny, 1, 1, 1)
    x2 = np.arange(nx).reshape(1, 1, nx, 1, 1)
    y2 = np.arange(ny).reshape(1, 1, 1, ny, 1)
    x3 = np.arange(nx).reshape(1, 1, 1, 1, nx)
    et = t3.elem_table
    b = np.broadcast_arrays
    left = et[tuple(b(p_gen[x1, y1, x2], y2, x3))]
    mid = et[tuple(b(x1, q_gen[y1, x2, y2], x3))]
    right = et[tuple(b(x1, y1, p_gen[x2, y2, x3]))]
    vals = [_lifted_chain_side(t5, g, p) for g in (left, mid, right)]
    if vals[0] == vals[1] == vals[2]:
        return PASS
    for u in range(t5.n):
        trio = {vals[0][u], vals[1][u], vals[2][u]}
        if len(trio) > 1:
            return failure(label, (t5.lattice.names[u],),
                           "nested composites disagree on a tensor element")
    return PASS


def _full_distinct(table, axis0, lat, label):
    'Distinctness of curried maps quantified over partial-tensor elements.'
    seen = {}
    arr = table if axis0 else table.T
    for v in range(lat.n):
        key = arr[v].tobytes()
        if key in seen:
            return failure(label, (lat.names[seen[key]], lat.names[v]),
                           "identical on every partial-tensor element")
        seen[key] = v
    return PASS


def check_pair_conditions_full(w: MoritaPairWitness) -> ConditionReport:
    """Conditions 1-6 quantified over whole tensor elements.

    Exists to validate the generator reduction: same report keys as
    check_pair_conditions, but every quantifier ranges over multi-ideals
    (via five-fold tensors for the chains, partial-tensor embeddings for
    the separation conditions). Exponentially heavier; small inputs only.
    """
    x, y = w.x, w.y
    p_values = np.asarray(w.p.values)
    q_values = np.asarray(w.q.values)
    rep = ConditionReport()

    rep.add("p-surjective", PASS if set(map(int, p_values)) == set(range(x.n))
            else failure("p-surjective", (), "not onto over tensor elements"))
    rep.add("q-surjective", PASS if set(map(int, q_values)) == set(range(y.n))
            else failure("q-surjective", (), "not onto over tensor elements"))

    rep.add("condition-1", _full_assoc(w, w.p_gen, w.q_gen, True, "condition-1"))
    rep.add("condition-2", _full_assoc(w, w.q_gen, w.p_gen, False, "condition-2"))

    t_xy = tensor_product(x, y)
    t_yx = tensor_product(y, x)
    f3 = np.empty((t_xy.n, x.n), dtype=np.int64)
    for u in range(t_xy.n):
        for xx in range(x.n):
            f3[u, xx] = p_values[splice(w.txyx, t_xy, u, 0, (xx,))]
    rep.add("condition-3", _full_distinct(f3, False, x, "condition-3"))
    f4 = np.empty((x.n, t_yx.n), dtype=np.int64)
    for xx in range(x.n):
        for v in range(t_yx.n):
            f4[xx, v] = p_values[splice(w.txyx, t_yx, v, 1, (xx,))]
    rep.add("condition-4", _full_distinct(f4, True, x, "condition-4"))
    f5 = np.empty((t_yx.n, y.n), dtype=np.int64)
    for v in range(t_yx.n):
        for yy in range(y.n):
            f5[v, yy] = q_values[splice(w.tyxy, t_yx, v, 0, (yy,))]
    rep.add("condition-5", _full_distinct(f5, False, y, "condition-5"))
    f6 = np.empty((y.n, t_xy.n), dtype=np.int64)
    for yy in range(y.n):
        for u in range(t_xy.n):
            f6[yy, u] = q_values[splice(w.tyxy, t_xy, u, 1, (yy,))]
    rep.add("condition-6", _full_distinct(f6, True, y, "condition-6"))
    return rep


# --- the involutive pipeline ---------------------------------------------------------

class InvolutiveWitness:
    'A single map p: X(x)X*(x)X -> X; the conjugate lattice is X relabelled.'

    __slots__ = ("x", "xstar", "txxx", "p", "p_gen")

    def __init__(self, x, xstar, txxx, p: SupMap):
        if xstar.leq.tobytes() != x.leq.tobytes():
            raise ShapeMismatch("the conjugate must share the order of X")
        if txxx.factors != (x, xstar, x):
            raise ShapeMismatch("tensor is not X(x)X*(x)X")
        if p.dom != txxx.lattice or p.cod != x:
            raise ShapeMismatch("p must map X(x)X*(x)X to X")
        v = is_sup_map(p)
        if not v:
            raise NotSupMap(str(v))
        self.x, self.xstar, self.txxx, self.p = x, xstar, txxx, p
        self.p_gen = np.asarray(p.values, dtype=np.int64)[txxx.elem_table]
        self.p_gen.flags.writeable = False

    @classmethod
    def from_generators(cls, x, p_table, txxx=None):
        xstar = conjugate_lattice(x)
        pm = as_multimorphism((x, xstar, x), x, p_table)
        if txxx is None:
            txxx = tensor_product(x, xstar, x)
        return cls(x, xstar, txxx, lift_multimorphism(pm, txxx))


def involutive_conditions_from_tables(x, p_gen) -> ConditionReport:
    'Generator-level surjectivity and conditions a), b), c) from a raw table.'
    p = np.asarray(p_gen, dtype=np.int64)
    n = x.n
    if p.shape != (n, n, n):
        raise ShapeMismatch("generator table does not match the carrier")
    rep = ConditionReport()
    rep.add("p-surjective", _surjective_by_generators(x, p, "p"))

    x1 = np.arange(n).reshape(n, 1, 1, 1, 1)
    x2 = np.arange(n).reshape(1, n, 1, 1, 1)
    x3 = np.arange(n).reshape(1, 1, n, 1, 1)
    x4 = np.arange(n).reshape(1, 1, 1, n, 1)
    x5 = np.arange(n).reshape(1, 1, 1, 1, n)
    left = p[p[x1, x2, x3], x4, x5]
    mid = p[x1, p[x4, x3, x2], x5]
    right = p[x1, x2, p[x3, x4, x5]]
    bad = np.argwhere((left != mid) | (left != right))
    if len(bad):
        idx = tuple(map(int, bad[0]))
        rep.add("condition-a", failure(
            "condition-a", tuple(x.names[i] for i in idx),
            f"nested values {x.names[left[idx]]} / {x.names[mid[idx]]} / "
            f"{x.names[right[idx]]}"))
    else:
        rep.add("condition-a", PASS)
    rep.add("condition-b", _distinct_slices(p, 2, x, "condition-b"))
    rep.add("condition-c", _distinct_slices(p, 0, x, "condition-c"))
    return rep


def check_involutive_conditions(w: InvolutiveWitness) -> ConditionReport:
    'Surjectivity and conditions a), b), c) on elementary tensors.'
    return involutive_conditions_from_tables(w.x, w.p_gen)


def derive_q_from_p(w: InvolutiveWitness, tyxy=None) -> SupMap:
    'q(x*(x)y(x)z*) = p(z(x)y*(x)x)*, lifted over X*(x)X(x)X*.'
    q_gen = w.p_gen.transpose(2, 1, 0)
    if tyxy is None:
        tyxy = tensor_product(w.xstar, w.x, w.xstar)
    qm = as_multimorphism((w.xstar, w.x, w.xstar), w.xstar, q_gen)
    return lift_multimorphism(qm, tyxy)


def as_pair_witness(w: InvolutiveWitness) -> MoritaPairWitness:
    'The (X, X*) witness with q derived from p.'
    tyxy = tensor_product(w.xstar, w.x, w.xstar)
    q = derive_q_from_p(w, tyxy)
    return MoritaPairWitness(w.x, w.xstar, w.txxx, tyxy, w.p, q)


def check_involutive_conditions_full(w: InvolutiveWitness) -> ConditionReport:
    'Conditions a)-c) quantified over tensor elements; same keys.'
    x = w.x
    p_values = np.asarray(w.p.values)
    rep = ConditionReport()
    rep.add("p-surjective",
            PASS if set(p_values) == set(range(x.n)) else
            failure("p-surjective", (), "image over all tensor elements"))

    t5 = tensor_product(x, w.xstar, x, w.xstar, x)
    n = x.n
    x1 = np.arange(n).reshape(n, 1, 1, 1, 1)
    x2 = np.arange(n).reshape(1, n, 1, 1, 1)
    x3 = np.arange(n).reshape(1, 1, n, 1, 1)
    x4 = np.arange(n).reshape(1, 1, 1, n, 1)
    x5 = np.arange(n).reshape(1, 1, 1, 1, n)
    et = w.txxx.elem_table
    p = w.p_gen
    b = np.broadcast_arrays
    left = et[tuple(b(p[x1, x2, x3], x4, x5))]
    mid = et[tuple(b(x1, p[x4, x3, x2], x5))]
    right = et[tuple(b(x1, x2, p[x3, x4, x5]))]
    vals = [_lifted_chain_side(t5, g, w.p) for g in (left, mid, right)]
    if vals[0] == vals[1] == vals[2]:
        rep.add("condition-a", PASS)
    else:
        u = next(u for u in range(t5.n)
                 if len({vals[0][u], vals[1][u], vals[2][u]}) > 1)
        rep.add("condition-a", failure("condition-a", (t5.lattice.names[u],),
                                       "nested composites disagree"))

    t_xy = tensor_product(x, w.xstar)
    t_yx = tensor_product(w.xstar, x)
    fb = np.empty((t_xy.n, n), dtype=np.int64)
    for u in range(t_xy.n):
        for xx in range(n):
            fb[u, xx] = p_values[splice(w.txxx, t_xy, u, 0, (xx,))]
    rep.add("condition-b", _full_distinct(fb, False, x, "condition-b"))
    fc = np.empty((n, t_yx.n), dtype=np.int64)
    for xx in range(n):
        for v in range(t_yx.n):
            fc[xx, v] = p_values[splice(w.txxx, t_yx, v, 1, (xx,))]
    rep.add("condition-c", _full_distinct(fc, True, x, "condition-c"))
    return rep


# --- imprimitivity ---------------------------------------------------------------------

class ImprimitivityBimodule:
    'X with two inner products over involutive quantales A and B.'

    __slots__ = ("a", "b", "bimodule", "inner_a", "inner_b")

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


def check_imprimitivity(imp: ImprimitivityBimodule) -> ConditionReport:
    """Imprimitivity laws: involutions, module laws, m-regularity, fullness,
    compatibility, and the conjugate structure."""
    rep = ConditionReport()
    rep.add("involution-A",
            is_quantale_involution(imp.a.quantale, imp.a.star))
    rep.add("involution-B",
            is_quantale_involution(imp.b.quantale, imp.b.star))
    rep.add("module-laws", check_bimodule(imp.bimodule))
    rep.add("m-regular", _regularity_verdict(is_m_regular(imp.bimodule),
                                             "m-regular"))
    rep.add("inner-A-bimorphism", is_multimorphism(imp.inner_a))
    rep.add("inner-B-bimorphism", is_multimorphism(imp.inner_b))
    rep.add("fullness-A", _surjective_by_generators(
        imp.a.carrier, imp.inner_a.values, "fullness-A"))
    rep.add("fullness-B", _surjective_by_generators(
        imp.b.carrier, imp.inner_b.values, "fullness-B"))

    lx, rx = imp.bimodule.left.act, imp.bimodule.right.act
    ia, ib = imp.inner_a.values, imp.inner_b.values
    names = imp.bimodule.carrier.names
    rep.add("compatibility", _table_law(
        "compatibility: <x,y>_A.z = x.<y,z>_B",
        lx.T[ia], rx[:, ib], (names, names, names), names))

    if rep.ok:
        conj = conjugate_bimodule(imp.bimodule, imp.a, imp.b)
        rep.add("conjugate-module-laws", check_bimodule(conj))
        sa = np.asarray(imp.a.star)
        sb = np.asarray(imp.b.star)
        cia = sa[ia.T]   # <x*,y*>_A = <y,x>_A*
        cib = sb[ib.T]   # <x*,y*>_B = <y,x>_B*
        star_names = conj.carrier.names
        rep.add("conjugate-fullness-A", _surjective_by_generators(
            imp.a.carrier, cia, "conjugate-fullness-A"))
        rep.add("conjugate-fullness-B", _surjective_by_generators(
            imp.b.carrier, cib, "conjugate-fullness-B"))
        rep.add("conjugate-compatibility", _table_law(
            "conjugate-compatibility: <x*,y*>_B.z* = x*.<y*,z*>_A",
            conj.left.act.T[cib], conj.right.act[:, cia],
            (star_names, star_names, star_names), star_names))
    return rep


def _class_star(tensor, idx_map, quant, label):
    """Involution on an operator quantale from the swap on its tensor.

    The swap sends an elementary tensor u(x)v to v(x)u; its lift permutes
    multi-ideals. The star of an operator class is the class of the swapped
    tensor element, provided that is independent of the representative.
    """
    swap = as_multimorphism(tensor.factors, tensor.lattice,
                            tensor.elem_table.T)
    sigma = lift_multimorphism(swap, tensor)
    classes = defaultdict(list)
    for e, c in enumerate(idx_map.values):
        classes[c].append(e)
    star = [None] * quant.n
    for c, members in classes.items():
        images = {idx_map.values[sigma.values[e]] for e in members}
        if len(images) > 1:
            by_image = defaultdict(list)
            for e in members:
                by_image[idx_map.values[sigma.values[e]]].append(e)
            (e1, *_), (e2, *_) = list(by_image.values())[:2]
            names = tensor.lattice.names
            raise StarNotWellDefined(
                f"{label}: tensor elements {names[e1]} and {names[e2]} induce "
                "the same operator but their swaps do not")
        star[c] = images.pop()
    v = is_quantale_involution(quant, star)
    if not v:
        raise StarNotWellDefined(f"{label}: swap classes fail to be an "
                                 f"involution: {v}")
    return tuple(star)


def build_involutive_context(w: InvolutiveWitness, *, precheck=True):
    """From a passing one-sided p to context, stars, and imprimitivity data.

    Returns (MoritaContext, (InvolutiveQuantale A, InvolutiveQuantale B),
    ImprimitivityBimodule). Stars are built from the tensor swap and checked
    for well-definedness; for inputs that passed conditions a)-c) a collision
    cannot happen, so StarNotWellDefined is an integrity alarm.
    """
    if precheck:
        rep = check_involutive_conditions(w)
        if not rep.ok:
            raise ConditionsFailed(rep)
    pw = as_pair_witness(w)
    ctx = build_context_from_pair(pw)

    star_a = _class_star(ctx.t_xy, ctx.idx_a, ctx.a, "star on A")
    star_b = _class_star(ctx.t_yx, ctx.idx_b, ctx.b, "star on B")
    inv_a = InvolutiveQuantale(ctx.a, star_a)
    inv_b = InvolutiveQuantale(ctx.b, star_b)

    inner_a = Multimorphism((w.x, w.x), ctx.a.carrier, ctx.pair_xy.values)
    inner_b = Multimorphism((w.x, w.x), ctx.b.carrier, ctx.pair_yx.values)
    imp = ImprimitivityBimodule(inv_a, inv_b, ctx.x, inner_a, inner_b)
    rep = check_imprimitivity(imp)
    if not rep.ok:
        raise ConditionsFailed(rep)
    return ctx, (inv_a, inv_b), imp
