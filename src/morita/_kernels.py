"""The multi-ideal closure kernel.

The closure is the innermost loop of tensor construction: every join in a
tensor lattice is one closure call. A set of coordinate tuples is a Python
int whose bit t is the tuple with flat index t, so unions, intersections
and equality tests are single big-int operations.

``ACTIVE`` names the kernel in the environment stamp of ``perfbench/rep.py``;
it keeps the value ``"numpy"`` so that stamps taken before and after the
bit-packed kernel replaced the boolean array passes still compare.
"""

ACTIVE = "numpy"


def close_ideal(bits, plan):
    """Least multi-ideal containing the tuples of ``bits``, as an int.

    ``plan`` is ``(bottom, slots)``: ``bottom`` has the bits of every tuple
    with a bottom coordinate, and each slot is ``(shifts, comb, covers,
    triples)``. Slab x of a slot, ``(bits >> shifts[x]) & comb``, is the set
    of tuples with x in that slot, moved to coordinate 0. ``covers`` lists
    the pairs (x, c), c a lower cover of x, top-down, so one sweep makes
    every slab contain the slabs above it; ``triples`` lists (x, y, x v y)
    for the incomparable pairs, whose fiber joins the slab of x v y must
    hold.

    One sweep per slot makes the set a down-set. Closing one slot under
    joins and sweeping it again keeps a down-set a down-set, so only the
    slots with triples are then closed in turn, until all are stable.
    """
    bottom, slots = plan
    bits |= bottom
    for shifts, comb, covers, _ in slots:
        slab = [(bits >> s) & comb for s in shifts]
        for x, c in covers:
            slab[c] |= slab[x]
        for s, v in zip(shifts, slab):
            bits |= v << s
    slots = [slot for slot in slots if slot[3]]
    k = len(slots)
    stable = i = 0
    while stable < k:
        shifts, comb, covers, triples = slots[i]
        slab = [(bits >> s) & comb for s in shifts]
        grew = False
        while True:
            added = False
            for x, y, j in triples:
                add = slab[x] & slab[y] & ~slab[j]
                if add:
                    slab[j] |= add
                    added = True
            if not added:
                break
            grew = True
            for x, c in covers:
                slab[c] |= slab[x]
        if grew:
            for s, v in zip(shifts, slab):
                bits |= v << s
            stable = 1
        else:
            stable += 1
        i = i + 1 if i + 1 < k else 0
    return bits
