"""Shared helpers for the test suite."""

import numpy as np
import pytest

from morita import engine, tensor
from morita.enumeration import enumerate_lattices
from morita.lattice import validate_lattice
from morita.quantale import Quantale


@pytest.fixture(autouse=True)
def _fresh_context_parts():
    """Each test starts and ends with no cached tensor or Q(X) and no kept
    sup-law pass: a test that swaps in a builder or a check sees it called
    on the first miss, and what a faulty one returns is not served to a
    later test."""
    engine._order_part.cache_clear()
    tensor._sup_law_memo.clear()
    yield
    engine._order_part.cache_clear()
    tensor._sup_law_memo.clear()


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


def renumbered(lat, perm):
    'A copy of lat with element i renumbered perm[i], its name moving along.'
    perm = np.asarray(perm)
    leq = np.empty_like(lat.leq)
    leq[np.ix_(perm, perm)] = lat.leq
    names = np.empty(lat.n, dtype=object)
    names[perm] = lat.names
    return validate_lattice(leq, names.tolist())


def shuffled(lat, rng):
    'lat renumbered by a random permutation.'
    return renumbered(lat, rng.permutation(lat.n))


def one_cell_changes(table, n):
    'Copies of an index table with one cell set to another value in 0..n-1.'
    for idx in np.ndindex(table.shape):
        for v in range(n):
            if v != table[idx]:
                out = np.array(table)
                out[idx] = v
                yield out


def fails_alike_warm_and_cold(check, passing, mutants):
    """How many mutants fail ``check``: each one fails alike with no sup-law
    pass kept and after ``passing`` has passed."""
    failed = 0
    for mutant in mutants:
        tensor._sup_law_memo.clear()
        cold = check(mutant)
        if cold.ok:
            continue
        assert check(passing).ok
        assert check(mutant) == cold
        failed += 1
    return failed
