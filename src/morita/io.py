"""Text formats for lattices, quantales, bimodules, generator maps, tensors.

All files are UTF-8 with '#' starting a comment. `key=value` lines carry
structured fields; `.map` and `.elem` files additionally hold table lines
of the shape `i,j,k -> m` over element indices. File references inside
`.act` and `.map` files are resolved relative to the referencing file.
An `.act` file holds a bimodule: carrier, two quantales, two actions.

Reading is structural: shapes, ranges, cross-references and the element
names the writer accepts are enforced here (FormatError), while order
axioms and algebraic laws are the business of validate_lattice and the
check_* functions downstream.
"""

import os
import re

import numpy as np

from .engine import MoritaContext
from .errors import FormatError, MissingInvolution
from .lattice import FiniteSupLattice, validate_lattice
from .modules import Bimodule, ModuleAction
from .quantale import InvolutiveQuantale, Quantale, as_involutive_quantale
from .tensor import Multimorphism, MultiTensorLattice, as_multimorphism

_FORBIDDEN_IN_NAMES = set(",;#=\n\r")


# --- low-level parsing ---------------------------------------------------------------

def _read_bytes(path):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as e:
        raise FormatError(f"{path}: {e}") from None


def _parse(path, data):
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1
        raise FormatError(f"{path}:{line}: not UTF-8 text") from None
    fields, arrows = {}, []
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        eq = line.find("=")
        arrow = line.find("->")
        if arrow != -1 and (eq == -1 or arrow < eq):
            arrows.append((ln, line))
        elif eq != -1:
            key = line[:eq].strip()
            if key in fields:
                raise FormatError(f"{path}:{ln}: duplicate field '{key}'")
            fields[key] = (ln, line[eq + 1:].strip())
        else:
            raise FormatError(f"{path}:{ln}: expected 'key=value' or "
                              "'indices -> index'")
    return fields, arrows


def _field(fields, key, path):
    if key not in fields:
        raise FormatError(f"{path}: missing field '{key}'")
    return fields[key]


def _int(val, path, ln, what):
    try:
        return int(val)
    except ValueError:
        raise FormatError(f"{path}:{ln}: {what} is not an integer: "
                          f"'{val}'") from None


def _index_rows(fields, key, path, rows, cols, limit):
    ln, val = _field(fields, key, path)
    parts = val.split(";")
    if len(parts) != rows:
        raise FormatError(f"{path}:{ln}: {key} needs {rows} rows, "
                          f"got {len(parts)}")
    table = np.empty((rows, cols), dtype=np.int64)
    for i, part in enumerate(parts):
        entries = part.split(",")
        if len(entries) != cols:
            raise FormatError(f"{path}:{ln}: {key} row {i} needs {cols} "
                              f"entries, got {len(entries)}")
        for j, e in enumerate(entries):
            v = _int(e.strip(), path, ln, f"{key}[{i},{j}]")
            if not 0 <= v < limit:
                raise FormatError(f"{path}:{ln}: {key}[{i},{j}] = {v} out of "
                                  f"range 0..{limit - 1}")
            table[i, j] = v
    return table


def _resolve(path, ref):
    return os.path.normpath(os.path.join(os.path.dirname(path), ref))


def _write_lines(path, lines):
    'The lines as a UTF-8 file, each ended by a newline.'
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        # appending "\n" to the joined text would copy it while the
        # caller's list is still alive
        fh.write("\n".join(lines))
        fh.write("\n")


def _arrow_lines(table):
    'One "i,j,k -> m" line per tuple of an index table, in C order.'
    return [",".join(str(c) for c in t) + f" -> {int(table[t])}"
            for t in np.ndindex(*table.shape)]


def _rows(table):
    'An index table as text: "," between entries, ";" between rows.'
    return ";".join(",".join(str(int(v)) for v in row) for row in table)


def _check_names(names, where=""):
    for nm in names:
        if not nm or _FORBIDDEN_IN_NAMES & set(nm):
            raise FormatError(f"{where}unserializable element name: '{nm}'")


# --- .lat ----------------------------------------------------------------------------

def _parse_lat(fields, path, order=None):
    'Order and names; ``order`` is the leq= value as bytes, if it was cut out.'
    ln, val = _field(fields, "n", path)
    n = _int(val, path, ln, "n")
    if n < 1:
        raise FormatError(f"{path}:{ln}: n must be at least 1")
    ln, val = _field(fields, "names", path)
    names = [s.strip() for s in val.split(",")]
    if len(names) != n:
        raise FormatError(f"{path}:{ln}: expected {n} names, got {len(names)}")
    _check_names(names, f"{path}:{ln}: ")
    if len(set(names)) < n:
        dup = next(nm for k, nm in enumerate(names) if nm in names[:k])
        raise FormatError(f"{path}:{ln}: duplicate element name '{dup}'")
    ln, val = _field(fields, "leq", path)
    if order is None:
        # "replace": a non-ASCII character is a wrong cell, not a wrong length
        val = ";".join(row.strip() for row in val.split(";"))
        order = np.frombuffer(val.encode("ascii", "replace"), dtype=np.uint8)
    if order.size == n * (n + 1) - 1:      # n rows of n cells, ";" between
        cells = np.ndarray((n, n), np.uint8, order, strides=(n + 1, 1))
        if ((order[n::n + 1] == ord(";")).all()
                and cells.min() >= ord("0") and cells.max() <= ord("1")):
            return cells == ord("1"), names
    rows = (val or order.tobytes().decode("ascii")).split(";")
    if len(rows) != n:
        raise FormatError(f"{path}:{ln}: leq needs {n} rows, got {len(rows)}")
    i = next(i for i, row in enumerate(rows)
             if len(row) != n or set(row) - {"0", "1"})
    raise FormatError(f"{path}:{ln}: leq row {i} must be {n} "
                      "characters of 0/1")


_WRITTEN_LEQ = re.compile(rb"^leq=([01;]*)$", re.MULTILINE)


def read_lattice_raw(path):
    """Parse only: the order matrix and names, with no axiom checks. A leq=
    line of 0, 1 and ; alone, as written, is read in place, not decoded."""
    data = _read_bytes(path)
    m = _WRITTEN_LEQ.search(data)
    if m is None:
        return _parse_lat(_parse(path, data)[0], path)
    a, b = m.span(1)
    return _parse_lat(_parse(path, data[:a] + data[b:])[0], path,
                      np.frombuffer(memoryview(data)[a:b], dtype=np.uint8))


def read_lattice(path) -> FiniteSupLattice:
    leq, names = read_lattice_raw(path)
    return validate_lattice(leq, names)


def leq_rows(lat):
    'The order matrix as one string of 0/1 characters per row: a census key.'
    return tuple((row.view(np.uint8) + 48).tobytes().decode("ascii")
                 for row in lat.leq)


def _write_lat(path, lat, tail=()):
    """The n=, names= and leq= lines of ``lat``, then the ``tail`` lines,
    as a UTF-8 file. The order goes out as bytes 64 rows at a time, from
    ``FiniteSupLattice._order_blocks``: a built order is sliced, and one
    not yet built (a tensor's) is computed a block at a time and never
    whole, so no n x n array is made."""
    _check_names(lat.names)
    with open(path, "wb") as fh:
        fh.write(f"n={lat.n}\nnames={','.join(lat.names)}\nleq=".encode())
        sep = b""
        for block in lat._order_blocks(64):
            fh.write(sep)
            rows = np.add(block.view(np.uint8), ord("0"),
                          order="C")      # each row a contiguous buffer
            fh.write(b";".join(rows))
            sep = b";"
        fh.write(b"\n")
        for line in tail:
            fh.write(f"{line}\n".encode())


def write_lattice(path, lat):
    _write_lat(path, lat)


# --- .qnt ----------------------------------------------------------------------------

def read_quantale(path):
    'A Quantale, or an InvolutiveQuantale when a star line is present.'
    fields, _ = _parse(path, _read_bytes(path))
    leq, names = _parse_lat(fields, path)
    carrier = validate_lattice(leq, names)
    mult = _index_rows(fields, "mult", path, carrier.n, carrier.n, carrier.n)
    q = Quantale(carrier, mult)
    if "star" in fields:
        ln, val = fields["star"]
        star = [_int(s.strip(), path, ln, "star entry")
                for s in val.split(",")]
        if len(star) != carrier.n or not all(0 <= s < carrier.n for s in star):
            raise FormatError(f"{path}:{ln}: star must list all "
                              f"{carrier.n} element indices")
        try:
            return as_involutive_quantale(q, star)
        except MissingInvolution as e:
            raise MissingInvolution(f"{path}:{ln}: {e}") from None
    return q


def write_quantale(path, q):
    'Accepts a Quantale or an InvolutiveQuantale (which adds a star line).'
    star = None
    if isinstance(q, InvolutiveQuantale):
        star, q = q.star, q.quantale
    tail = ["mult=" + _rows(q.mult)]
    if star is not None:
        tail.append("star=" + ",".join(str(int(s)) for s in star))
    _write_lat(path, q.carrier, tail)


def _plain_quantale(path):
    q = read_quantale(path)
    return q.quantale if isinstance(q, InvolutiveQuantale) else q


# --- .act ----------------------------------------------------------------------------

def read_action(path) -> Bimodule:
    'A Bimodule: its carrier, its two quantales and their action tables.'
    fields, _ = _parse(path, _read_bytes(path))
    _, ref = _field(fields, "carrier", path)
    carrier = read_lattice(_resolve(path, ref))
    _, lref = _field(fields, "left_quantale", path)
    _, rref = _field(fields, "right_quantale", path)
    left_q = _plain_quantale(_resolve(path, lref))
    right_q = _plain_quantale(_resolve(path, rref))
    left = _index_rows(fields, "left_act", path, carrier.n, left_q.n,
                       carrier.n)
    right = _index_rows(fields, "right_act", path, carrier.n, right_q.n,
                        carrier.n)
    return Bimodule(ModuleAction("left", left_q, carrier, left),
                    ModuleAction("right", right_q, carrier, right))


def write_action(path, bim: Bimodule, refs):
    """Write a Bimodule with refs {carrier, left_quantale, right_quantale}.
    Referenced files are the caller's responsibility."""
    _write_lines(path, [f"carrier={refs['carrier']}",
                        f"left_quantale={refs['left_quantale']}",
                        f"right_quantale={refs['right_quantale']}",
                        "left_act=" + _rows(bim.left.act),
                        "right_act=" + _rows(bim.right.act)])


# --- .map ----------------------------------------------------------------------------

def _parse_arrow(path, ln, line, arity):
    lhs, _, rhs = line.partition("->")
    coords = [s.strip() for s in lhs.split(",")]
    if len(coords) != arity:
        raise FormatError(f"{path}:{ln}: expected {arity} indices before ->")
    t = tuple(_int(c, path, ln, "index") for c in coords)
    return t, _int(rhs.strip(), path, ln, "value")


def read_map(path) -> Multimorphism:
    'A generator table over the referenced factors, validated slotwise.'
    fields, arrows = _parse(path, _read_bytes(path))
    _, val = _field(fields, "factors", path)
    factors = tuple(read_lattice(_resolve(path, ref.strip()))
                    for ref in val.split(","))
    _, cref = _field(fields, "codomain", path)
    codomain = read_lattice(_resolve(path, cref.strip()))
    shape = tuple(f.n for f in factors)
    table = np.full(shape, -1, dtype=np.int64)
    for ln, line in arrows:
        t, v = _parse_arrow(path, ln, line, len(factors))
        if not all(0 <= c < s for c, s in zip(t, shape)):
            raise FormatError(f"{path}:{ln}: tuple {t} out of range")
        if not 0 <= v < codomain.n:
            raise FormatError(f"{path}:{ln}: value {v} out of range")
        if table[t] != -1:
            raise FormatError(f"{path}:{ln}: duplicate entry for {t}")
        table[t] = v
    if (table == -1).any():
        missing = tuple(int(c) for c in np.argwhere(table == -1)[0])
        raise FormatError(f"{path}: no entry for tuple {missing}")
    return as_multimorphism(factors, codomain, table)


def write_map(path, f: Multimorphism, factor_refs, codomain_ref):
    _write_lines(path, ["factors=" + ",".join(factor_refs),
                        f"codomain={codomain_ref}"] + _arrow_lines(f.values))


# --- .elem sidecar -------------------------------------------------------------------

def write_elem(path, tensor: MultiTensorLattice):
    'Tuple -> element-index table accompanying a tensor written as .lat.'
    _write_lines(path, _arrow_lines(tensor.elem_table))


# --- context bundles -----------------------------------------------------------------

CONTEXT_FILES = ("A.qnt", "B.qnt", "X.lat", "Y.lat", "X.act", "Y.act",
                 "pairXY.map", "pairYX.map")


def write_context(dirpath, ctx: MoritaContext):
    """A directory bundle for one Morita context.

    Quantales are serialized as plain tables; operator provenance survives
    only in element names.
    """
    os.makedirs(dirpath, exist_ok=True)
    j = lambda name: os.path.join(dirpath, name)
    write_quantale(j("A.qnt"), ctx.a)
    write_quantale(j("B.qnt"), ctx.b)
    write_lattice(j("X.lat"), ctx.x.carrier)
    write_lattice(j("Y.lat"), ctx.y.carrier)
    write_action(j("X.act"), ctx.x, {"carrier": "X.lat",
                                     "left_quantale": "A.qnt",
                                     "right_quantale": "B.qnt"})
    write_action(j("Y.act"), ctx.y, {"carrier": "Y.lat",
                                     "left_quantale": "B.qnt",
                                     "right_quantale": "A.qnt"})
    write_map(j("pairXY.map"), ctx.pair_xy, ("X.lat", "Y.lat"), "A.qnt")
    write_map(j("pairYX.map"), ctx.pair_yx, ("Y.lat", "X.lat"), "B.qnt")


def read_context(dirpath) -> MoritaContext:
    """Load a bundle back into a MoritaContext.

    Wiring mismatches between the files surface as DomainMismatch from the
    context constructor; algebraic laws are left to check_morita_context.
    """
    j = lambda name: os.path.join(dirpath, name)
    for name in CONTEXT_FILES:
        if not os.path.exists(j(name)):
            raise FormatError(f"{dirpath}: bundle is missing {name}")
    a = _plain_quantale(j("A.qnt"))
    b = _plain_quantale(j("B.qnt"))
    x = read_action(j("X.act"))
    y = read_action(j("Y.act"))
    pair_xy = read_map(j("pairXY.map"))
    pair_yx = read_map(j("pairYX.map"))
    return MoritaContext(a, b, x, y, pair_xy, pair_yx)
