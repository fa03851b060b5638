"""Module actions of quantales on sup-lattices.

Actions are stored as full tables ``act[m, a]``; for a left action the table
entry is the product a.m written with the module element first. The laws:

* M1  associativity with the quantale product (sided),
* M2  join preservation in the module slot, bottom included,
* M3  join preservation in the quantale slot, bottom included.

A module is essential when the products join-generate the carrier,
separated when distinct elements act distinctly, m-regular when both.
Essentiality is decided on the join-irreducibles (``lattice._generates``);
only an action that is not essential has its join-closure computed.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (DomainMismatch, MissingInvolution, MoritaError, PASS,
                     failure, slice_collision, table_law)
from .lattice import (FiniteSupLattice, _generates, _index_table,
                      conjugate_lattice, join_closure)
from .quantale import InvolutiveQuantale, Quantale, as_involutive_quantale
from .tensor import Multimorphism, is_multimorphism


class ModuleAction:
    __slots__ = ("side", "quantale", "carrier", "act")

    def __init__(self, side, quantale: Quantale, carrier: FiniteSupLattice, act):
        if side not in ("left", "right"):
            raise DomainMismatch(f"side must be left or right, not {side!r}")
        self.side = side
        self.quantale = quantale
        self.carrier = carrier
        self.act = _index_table(act, (carrier.n, quantale.n), carrier.n,
                                "action")

    def __call__(self, m, a):
        return int(self.act[m, a])

    def __eq__(self, other):
        return (isinstance(other, ModuleAction) and self.side == other.side
                and self.quantale == other.quantale
                and self.carrier == other.carrier
                and self.act.tobytes() == other.act.tobytes())

    def __hash__(self):
        return hash((self.side, self.act.tobytes()))

    def __repr__(self):
        return f"ModuleAction({self.side}, |M|={self.carrier.n}, |A|={self.quantale.n})"


# M2 and M3 are the sup-laws of the action table, read as a bimorphism
# M x A -> M: slot 0 is the module element, slot 1 the quantale element
_SUP_LAWS = {"slot-0-bottom": "M2: 0.a = 0",
             "slot-0-joins": "M2: (m v n).a = m.a v n.a",
             "slot-1-bottom": "M3: m.0 = 0",
             "slot-1-joins": "M3: m.(a v b) = m.a v m.b"}


def check_module(mod: ModuleAction):
    'Verdict on M1-M3 with a named counterexample.'
    act, mult = mod.act, mod.quantale.mult
    a_names, m_names = mod.quantale.names, mod.carrier.names
    if mod.side == "right":
        lhs, rhs = act[:, mult], act[act]          # m.(ab) vs (m.a).b
        law = "M1: m.(ab) = (m.a).b"
    else:
        lhs, rhs = act[:, mult], act[act].transpose(0, 2, 1)   # (ab).m vs a.(b.m)
        law = "M1: (ab).m = a.(b.m)"
    v = table_law(law, lhs, rhs, (m_names, a_names, a_names), m_names)
    if not v:
        return v
    v = is_multimorphism(Multimorphism(
        (mod.carrier, mod.quantale.carrier), mod.carrier, act))
    if not v:
        return failure(_SUP_LAWS[v.law], v.witness, v.detail)
    return PASS


class Bimodule:
    __slots__ = ("left", "right")

    def __init__(self, left: ModuleAction, right: ModuleAction):
        if left.side != "left" or right.side != "right":
            raise DomainMismatch("a bimodule needs one left and one right action")
        if left.carrier != right.carrier:
            raise DomainMismatch("bimodule actions live on different carriers")
        self.left = left
        self.right = right

    @property
    def carrier(self):
        return self.left.carrier

    def __eq__(self, other):
        return (isinstance(other, Bimodule) and self.left == other.left
                and self.right == other.right)

    def __hash__(self):
        return hash((self.left, self.right))

    def __repr__(self):
        return (f"Bimodule(|M|={self.carrier.n}, |A|={self.left.quantale.n}, "
                f"|B|={self.right.quantale.n})")


def check_bimodule(bim: Bimodule):
    'Verdict: both module laws plus commutation (a.m).b = a.(m.b).'
    v = check_module(bim.left)
    if not v:
        return v
    v = check_module(bim.right)
    if not v:
        return v
    la, ra = bim.left.act, bim.right.act
    names = bim.carrier.names
    return table_law("commute: (a.m).b = a.(m.b)",
                     ra[la],                        # (a.m).b at [m, a, b]
                     la[ra].transpose(0, 2, 1),     # a.(m.b)
                     (names, bim.left.quantale.names,
                      bim.right.quantale.names), names)


# --- regularity -------------------------------------------------------------------

def essential_part(mod: ModuleAction):
    """Join-closure of all products m.a, as a sorted element tuple.

    This is the submodule generated by the products: the product set is
    action-absorbing by M1 and joins of products stay reachable by M2/M3.
    It holds every product, so it is action-closed by construction.
    """
    return join_closure(mod.carrier, set(mod.act.ravel().tolist()))


def is_separated(mod: ModuleAction):
    'Verdict: distinct elements have distinct curried action maps.'
    pair = slice_collision(mod.act, 0)
    if pair is None:
        return PASS
    names = mod.carrier.names
    return failure("separated", (names[pair[0]], names[pair[1]]),
                   "both act identically on every quantale element")


@dataclass
class RegularityReport:
    essential: bool
    essential_part: tuple
    separated: bool
    separation_witness: Optional[tuple]
    m_regular: bool


def _action_report(mod):
    essential = _generates(mod.carrier, mod.act)
    ess = tuple(range(mod.carrier.n)) if essential else essential_part(mod)
    sep = is_separated(mod)
    return RegularityReport(
        essential=essential, essential_part=ess,
        separated=bool(sep), separation_witness=None if sep else sep.witness,
        m_regular=essential and bool(sep))


def _combined_report(left_rep, right_rep):
    essential = left_rep.essential and right_rep.essential
    separated = left_rep.separated and right_rep.separated
    part = left_rep.essential_part if not left_rep.essential else right_rep.essential_part
    witness = left_rep.separation_witness or right_rep.separation_witness
    return RegularityReport(
        essential=essential, essential_part=part,
        separated=separated, separation_witness=witness,
        m_regular=essential and separated)


def regular_bimodule(q: Quantale) -> Bimodule:
    'The quantale acting on itself on both sides by its multiplication.'
    left = ModuleAction("left", q, q.carrier, q.mult.T)
    right = ModuleAction("right", q, q.carrier, q.mult)
    return Bimodule(left, right)


def is_m_regular(target) -> RegularityReport:
    """Essential-and-separated report for an action, bimodule, or quantale.

    A quantale is judged as a bimodule over itself, whose separation is
    two-sided cancellation of the curried multiplication; when it comes out
    m-regular, the consequence top.top = top is asserted.
    """
    if isinstance(target, ModuleAction):
        return _action_report(target)
    if isinstance(target, Bimodule):
        return _combined_report(_action_report(target.left),
                                _action_report(target.right))
    if isinstance(target, Quantale):
        rep = is_m_regular(regular_bimodule(target))
        top = target.carrier.top
        if rep.m_regular and int(target.mult[top, top]) != top:
            raise MoritaError("internal: m-regular quantale with 1.1 != 1")
        return rep
    raise DomainMismatch(f"cannot judge regularity of {type(target).__name__}")


# --- conjugates -------------------------------------------------------------------

def _star_table(q: Quantale, star):
    if star is None:
        raise MissingInvolution("conjugation needs involutions on both quantales")
    if isinstance(star, InvolutiveQuantale):
        if star.quantale != q:
            raise DomainMismatch("involution belongs to a different quantale")
        return np.asarray(star.star)
    return np.asarray(as_involutive_quantale(q, star).star)


def conjugate_bimodule(bim: Bimodule, star_a, star_b) -> Bimodule:
    """The bimodule X* over (B, A): b.x* = (x.b*)* and x*.a = (a*.x)*.

    The carrier is the conjugate lattice (same order, starred names); the
    element-level star is the identity map. Module laws for the conjugate
    follow from the originals; ``check_bimodule`` verifies them.
    """
    a, b = bim.left.quantale, bim.right.quantale
    sa, sb = _star_table(a, star_a), _star_table(b, star_b)
    xstar = conjugate_lattice(bim.carrier)
    left = ModuleAction("left", b, xstar, bim.right.act[:, sb])
    right = ModuleAction("right", a, xstar, bim.left.act[:, sa])
    return Bimodule(left, right)
