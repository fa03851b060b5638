"""Shared helpers for the test suite."""

import numpy as np

from morita.enumeration import enumerate_lattices
from morita.lattice import validate_lattice
from morita.quantale import Quantale


def meet_tables(lat):
    'The ternary table (x, y, z) -> x ∧ y ∧ z on one lattice.'
    m2 = lat.meet
    return m2[m2[:, :, None], np.arange(lat.n)[None, None, :]]


def meet_quantale(lat):
    return Quantale(lat, lat.meet, unit=lat.top)


def lattices_up_to(max_n):
    out = []
    for n in range(1, max_n + 1):
        out.extend(enumerate_lattices(n))
    return out


def shuffled(lat, rng):
    'A copy of lat with element i renumbered perm[i], its name moving along.'
    perm = rng.permutation(lat.n)
    leq = np.empty_like(lat.leq)
    leq[np.ix_(perm, perm)] = lat.leq
    names = np.empty(lat.n, dtype=object)
    names[perm] = lat.names
    return validate_lattice(leq, names.tolist())
