"""Text format round trips, format error classification, CLI exit codes."""

import ast
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest

import morita
from conftest import lattices_up_to, meet_quantale, meet_tables, shuffled
from morita import cli, lattice
from morita import io as mio
from morita.engine import (InvolutiveWitness, MoritaPairWitness,
                           build_context_from_pair, build_involutive_context,
                           check_morita_context)
from morita.errors import (FormatError, MissingInvolution, MoritaError,
                           NotAMultimorphism)
from morita.lattice import chain, diamond, m3, n5, validate_lattice
from morita.modules import Bimodule, ModuleAction
from morita.quantale import InvolutiveQuantale, Quantale, \
    as_involutive_quantale, endo_quantale
from morita.tensor import as_multimorphism, tensor_product
from oracles import (arrow_lines_by_ndindex, endo_quantale_by_loops,
                     parse_lat_by_rows, read_elem, write_lattice_by_rows,
                     write_quantale_by_rows)


# --- formats -------------------------------------------------------------------------

def test_lattice_roundtrip_bit_exact(tmp_path):
    for lat in (chain(1), chain(4), diamond(), m3(), n5()):
        path = tmp_path / "l.lat"
        mio.write_lattice(path, lat)
        back = mio.read_lattice(path)
        assert back == lat and back.names == lat.names
        first = path.read_bytes()
        mio.write_lattice(path, back)
        assert path.read_bytes() == first


# name: (text, message after "<path>")
LAT_PARSE_ERRORS = {
    "empty.lat": ("", ": missing field 'n'"),
    "short_names.lat": ("n=2\nnames=a\nleq=11;01\n",
                        ":2: expected 2 names, got 1"),
    "few_rows.lat": ("n=2\nnames=a,b\nleq=11\n",
                     ":3: leq needs 2 rows, got 1"),
    "bad_row.lat": ("n=2\nnames=a,b\nleq=11;0\n",
                    ":3: leq row 1 must be 2 characters of 0/1"),
    "bad_char.lat": ("n=2\nnames=a,b\nleq=11;0x\n",
                     ":3: leq row 1 must be 2 characters of 0/1"),
    "non_ascii.lat": ("n=2\nnames=a,b\nleq=11;0\u00b2\n",
                      ":3: leq row 1 must be 2 characters of 0/1"),
    "inner_space.lat": ("n=3\nnames=a,b,c\nleq=111;1 1;001\n",
                        ":3: leq row 1 must be 3 characters of 0/1"),
    "compensating.lat": ("n=2\nnames=a,b\nleq=111;0\n",
                         ":3: leq row 0 must be 2 characters of 0/1"),
    "two.lat": ("n=2\nnames=a,b\nleq=11;12\n",
                ":3: leq row 1 must be 2 characters of 0/1"),
    "slash.lat": ("n=2\nnames=a,b\nleq=1/;01\n",
                  ":3: leq row 0 must be 2 characters of 0/1"),
    "bad_n.lat": ("n=two\nnames=a,b\nleq=11;01\n",
                  ":1: n is not an integer: 'two'"),
    "dup_field.lat": ("n=1\nn=1\nnames=a\nleq=1\n",
                      ":2: duplicate field 'n'"),
    "dup_name.lat": ("n=2\nnames=0,0\nleq=11;01\n",
                     ":2: duplicate element name '0'"),
    "no_rows.lat": ("n=2\nnames=a,b\n", ": missing field 'leq'"),
    "stray.lat": ("n=1\nnames=a\nleq=1\nwhat is this\n",
                  ":4: expected 'key=value' or 'indices -> index'"),
    # names the writer rejects: a tensor of them could not be written
    "semicolon_name.lat": ("n=2\nnames=lo,h;i\nleq=11;01\n",
                           ":2: unserializable element name: 'h;i'"),
    "equals_name.lat": ("n=2\nnames=lo,h=i\nleq=11;01\n",
                        ":2: unserializable element name: 'h=i'"),
}


def test_lattice_parse_errors(tmp_path, capsys):
    for name, (text, tail) in LAT_PARSE_ERRORS.items():
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        with pytest.raises(FormatError) as exc:
            mio.read_lattice(path)
        assert str(exc.value) == f"{path}{tail}", name
        assert cli.main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}{tail}\n"


def _lat_fields(path):
    return mio._parse(path, mio._read_bytes(path))[0]


def test_leq_parser_matches_the_row_parser(tmp_path):
    # the same order and names, or the same message, as the row-at-a-time
    # parser: on every lattice of size <= 5, with spaces round the rows and
    # a trailing comment, and on every malformed file above
    path = tmp_path / "x.lat"
    for lat in lattices_up_to(5):
        rows = mio.leq_rows(lat)
        for leq in (";".join(rows), " ; ".join(f" {r}\t" for r in rows)
                    + "  # the order"):
            path.write_text(f"n={lat.n}\nnames={','.join(lat.names)}\n"
                            f"leq={leq}\n", encoding="utf-8")
            got = mio._parse_lat(_lat_fields(path), path)
            want = parse_lat_by_rows(_lat_fields(path), path)
            assert got[0].dtype == want[0].dtype == bool
            assert np.array_equal(got[0], want[0]) and got[1] == want[1]
            assert np.array_equal(got[0], lat.leq)
    for name, (text, _) in LAT_PARSE_ERRORS.items():
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        try:
            fields = _lat_fields(path)
        except FormatError:
            continue                  # a line error, before any field
        with pytest.raises(FormatError) as got:
            mio._parse_lat(fields, path)
        with pytest.raises(FormatError) as want:
            parse_lat_by_rows(fields, path)
        assert str(got.value) == str(want.value), name


def test_writer_matches_the_row_serializer(tmp_path):
    # byte-identical .lat and .qnt files: every lattice of size <= 6 under
    # its own names and under non-ASCII ones, Q(X) and the meet quantale
    # with a star line for |X| <= 4, chains of 64 and 65 elements (one
    # batch of 64 rows, and one over), and the 980-element c4 x c4 x c4
    a, b = tmp_path / "a", tmp_path / "b"

    def same(write, by_rows, obj):
        write(a, obj)
        by_rows(b, obj)
        assert a.read_bytes() == b.read_bytes(), obj

    lats = lattices_up_to(6)
    lats += [lat.relabel(tuple(f"\u00e9{i}*" for i in range(lat.n)))
             for lat in lats]
    for lat in lats + [chain(64), chain(65)]:
        same(mio.write_lattice, write_lattice_by_rows, lat)
    for lat in lattices_up_to(4):
        same(mio.write_quantale, write_quantale_by_rows, endo_quantale(lat))
        same(mio.write_quantale, write_quantale_by_rows,
             as_involutive_quantale(meet_quantale(lat), tuple(range(lat.n))))
    big = tensor_product(chain(4), chain(4), chain(4)).lattice
    assert big.n == 980
    same(mio.write_lattice, write_lattice_by_rows, big)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the peak resident memory from /proc")
def test_writing_a_big_tensor_keeps_the_peak_under_its_order(tmp_path):
    # the order of the 980-element tensor is n^2 bytes (0.92 MB); writing it
    # must raise the peak resident memory by less than that. The peak is
    # VmHWM, not ru_maxrss: a child keeps the ru_maxrss of the process that
    # started it (this one), which would hide the rise
    script = (
        "import gc, sys\n"
        "from morita import io\n"
        "from morita.lattice import chain\n"
        "from morita.tensor import tensor_product\n"
        "def peak():\n"
        "    with open('/proc/self/status') as fh:\n"
        "        return next(int(line.split()[1]) for line in fh\n"
        "                    if line.startswith('VmHWM:'))\n"
        "lat = tensor_product(chain(4), chain(4), chain(4)).lattice\n"
        "gc.collect()\n"
        "before = peak()\n"
        "io.write_lattice(sys.argv[1], lat)\n"
        "print(lat.n, (peak() - before) * 1024)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1]
                                          / "src"))
    out = subprocess.run([sys.executable, "-c", script, str(tmp_path / "t.lat")],
                         capture_output=True, text=True, env=env, check=True)
    n, grown = map(int, out.stdout.split())
    assert n == 980 and grown < n * n, grown


def test_reading_a_big_order_peaks_under_two_and_a_half_copies(tmp_path):
    # the written leq= line is read in place from the file's bytes: the
    # peak holds the bytes and the boolean matrix, each about n^2
    path = tmp_path / "t.lat"
    mio.write_lattice(path, tensor_product(chain(4), chain(4), chain(4))
                      .lattice)
    mio.read_lattice_raw(path)                  # imports and caches warm
    tracemalloc.start()
    try:
        leq, _ = mio.read_lattice_raw(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = leq.shape[0]
    assert n == 980 and peak <= 2.5 * n * n, peak / (n * n)


def _raw_or_message(read, path):
    try:
        return read(path)
    except FormatError as e:
        return str(e)


def test_the_in_place_order_matches_the_text_parser(tmp_path):
    # the bytes path of read_lattice_raw against _parse_lat on the decoded
    # fields: written files, and files whose leq= line is all 0, 1 and ;
    # but wrong, or whose other lines are wrong before or after it
    def by_text(path):
        return mio._parse_lat(_lat_fields(path), path)

    head = "n=2\nnames=a,b\n"
    cases = [head + "leq=11;01\n", head + "leq=11;01", "leq=1\nn=1\nnames=a\n",
             head + "leq=1101\n", head + "leq=11;;01\n", head + "leq=;\n",
             head + "leq=\n", head + "leq=11;01;\n", head + "leq=111;0\n",
             head + "leq=11;01\nleq=11;01\n", head + "leq=11;01\nx\n",
             "n=3\nnames=a,b\nleq=11;01\n", head + "leq=11;01 # c\n",
             head + "leq=11;01\r\n", head + " leq=11;01\n"]
    path = tmp_path / "x.lat"
    for text in cases:
        path.write_text(text, encoding="utf-8")
        got = _raw_or_message(mio.read_lattice_raw, path)
        want = _raw_or_message(by_text, path)
        if isinstance(want, str):
            assert got == want, text
        else:
            assert np.array_equal(got[0], want[0]) and got[1] == want[1]
    path.write_bytes(b"n=2\nnames=a,b\nleq=11;01\n# \xff\n")
    assert _raw_or_message(mio.read_lattice_raw, path) == \
        f"{path}:4: not UTF-8 text"
    for lat in lattices_up_to(5) + [chain(64), m3().relabel("\u00e9xyzw")]:
        mio.write_lattice(path, lat)
        leq, names = mio.read_lattice_raw(path)
        assert np.array_equal(leq, lat.leq) and tuple(names) == lat.names
        assert leq.dtype == bool and leq.flags.c_contiguous


def test_non_utf8_input_names_file_and_line(tmp_path, capsys):
    path = tmp_path / "latin1.lat"
    path.write_bytes(b"n=2\nnames=a,\xff\nleq=11;01\n")
    with pytest.raises(FormatError, match=r"latin1\.lat:2: not UTF-8 text"):
        mio.read_lattice(path)
    assert cli.main(["validate", str(path)]) == 2
    assert f"error: {path}:2: not UTF-8 text" in capsys.readouterr().err
    # the line is counted past a byte-order mark, too
    for mark in (b"", b"\xef\xbb\xbf"):
        path.write_bytes(mark + b"n=2\n\xff=a,b\nleq=11;01\n")
        with pytest.raises(FormatError, match=r"latin1\.lat:2: not UTF-8"):
            mio.read_lattice(path)


def test_a_byte_order_mark_is_read_as_no_mark(tmp_path, capsys):
    # some editors save UTF-8 with a leading byte-order mark, which must not
    # become part of the first key
    x = chain(3)
    mio.write_lattice(tmp_path / "x.lat", diamond())
    mio.write_quantale(tmp_path / "x.qnt", endo_quantale(x))
    mio.write_lattice(tmp_path / "c3.lat", x)
    mio.write_map(tmp_path / "x.map", as_multimorphism((x, x), x, x.meet),
                  ("c3.lat", "c3.lat"), "c3.lat")
    for ext, read, names in (
            (".lat", mio.read_lattice, lambda lat: lat.names),
            (".qnt", mio.read_quantale, lambda q: q.carrier.names),
            (".map", mio.read_map, lambda f: f.target.names)):
        plain, marked = tmp_path / f"x{ext}", tmp_path / f"bom{ext}"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        got, want = read(marked), read(plain)
        assert got == want and names(got) == names(want), ext
    assert cli.main(["validate", str(tmp_path / "bom.lat")]) == 0
    assert "error" not in capsys.readouterr().err


def test_lattice_comments_and_blank_lines(tmp_path):
    path = tmp_path / "c.lat"
    path.write_text("# a chain\n\nn=2  # two points\nnames=a,b\nleq=11;01\n")
    lat = mio.read_lattice(path)
    assert lat.n == 2 and lat.names == ("a", "b")


def test_invalid_order_is_not_a_format_error(tmp_path):
    path = tmp_path / "anti.lat"
    path.write_text("n=2\nnames=a,b\nleq=10;01\n")
    leq, names = mio.read_lattice_raw(path)
    assert leq.shape == (2, 2)
    with pytest.raises(MoritaError) as exc:
        mio.read_lattice(path)
    assert not isinstance(exc.value, FormatError)


def test_write_rejects_unserializable_names(tmp_path):
    path = tmp_path / "bad.lat"
    lat = chain(2).relabel(("a,b", "c"))
    with pytest.raises(FormatError):
        mio.write_lattice(path, lat)
    # a repeated name, which the reader refuses, is refused on writing too
    lat = validate_lattice(np.tri(3, dtype=bool).T, ["a", "a", "b"])
    with pytest.raises(FormatError, match="duplicate element name 'a'"):
        mio.write_lattice(path, lat)
    with pytest.raises(FormatError, match="duplicate element name 'a'"):
        mio.write_quantale(path, Quantale(lat, chain(3).meet))
    # blanks at an end, which the reader strips; every break that
    # str.splitlines knows; and a surrogate, which UTF-8 cannot encode
    bad = [("a", "", "b"), ("a", "b=c", "d"), ("a", "b\n", "c"),
           (" a", "b", "c"), ("a", "b ", "c"), ("a", " ", "c"),
           ("a", "b\t", "c"), ("a", "b", "\u3000c"), ("a", "b", "c\x1f")]
    bad += [("a", f"b{br}c", "d")
            for br in "\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"]
    bad += [("a\ud800", "b", "c"), ("a", "b", "\udfff")]
    for names in bad:
        with pytest.raises(FormatError, match="unserializable"):
            mio.write_lattice(path, lat.relabel(names))
        with pytest.raises(FormatError, match="unserializable"):
            mio.write_quantale(path, Quantale(lat.relabel(names),
                                              chain(3).meet))
    # each before the file is opened
    assert not path.exists()
    # blanks and breaks inside a name, and any other character, read back
    for names in (("a", "b c", "d"), ("a\tb", "\u00e9\u3000x", "\U0001f600")):
        mio.write_lattice(path, lat.relabel(names))
        assert mio.read_lattice(path).names == names


def test_quantale_roundtrip(tmp_path):
    path = tmp_path / "q.qnt"
    for q in (meet_quantale(diamond()), endo_quantale(chain(3))):
        mio.write_quantale(path, q)
        back = mio.read_quantale(path)
        assert back == q and back.carrier.names == q.carrier.names


def test_involutive_quantale_roundtrip(tmp_path):
    path = tmp_path / "iq.qnt"
    iq = as_involutive_quantale(endo_quantale(chain(3)), (0, 1, 3, 2, 4, 5))
    mio.write_quantale(path, iq)
    back = mio.read_quantale(path)
    assert isinstance(back, InvolutiveQuantale)
    assert back.star == iq.star and back.quantale == iq.quantale


def test_quantale_with_bad_star_rejected(tmp_path):
    path = tmp_path / "bad.qnt"
    q = endo_quantale(chain(3))
    mio.write_quantale(path, q)
    path.write_text(path.read_text() + "star=0,1,2,3,4,5\n")
    with pytest.raises(MissingInvolution):
        mio.read_quantale(path)
    path.write_text(path.read_text().replace("star=0,1,2,3,4,5", "star=0,1"))
    with pytest.raises(FormatError):
        mio.read_quantale(path)


def test_map_roundtrip_and_validation(tmp_path):
    x = chain(3)
    mio.write_lattice(tmp_path / "x.lat", x)
    f = as_multimorphism((x, x), x, x.meet)
    path = tmp_path / "f.map"
    mio.write_map(path, f, ("x.lat", "x.lat"), "x.lat")
    back = mio.read_map(path)
    assert back == f

    lines = path.read_text().splitlines()
    (tmp_path / "missing.map").write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(FormatError):
        mio.read_map(tmp_path / "missing.map")
    (tmp_path / "dup.map").write_text("\n".join(lines + [lines[-1]]) + "\n")
    with pytest.raises(FormatError):
        mio.read_map(tmp_path / "dup.map")
    (tmp_path / "range.map").write_text(
        "\n".join(lines).replace("2,2 -> 2", "2,2 -> 9") + "\n")
    with pytest.raises(FormatError):
        mio.read_map(tmp_path / "range.map")
    # a complete table that breaks join preservation is rejected on load
    broken = "\n".join(lines).replace("2,2 -> 2", "2,2 -> 0") + "\n"
    (tmp_path / "notmorph.map").write_text(broken)
    with pytest.raises(NotAMultimorphism):
        mio.read_map(tmp_path / "notmorph.map")


def test_elem_sidecar_roundtrip(tmp_path):
    path = tmp_path / "t.elem"
    for factors in ((chain(3), diamond()), (chain(11), chain(2), chain(2))):
        t = tensor_product(*factors)
        mio.write_elem(path, t)
        assert path.read_text().splitlines() == arrow_lines_by_ndindex(
            t.elem_table)
        table = read_elem(path, len(factors))
        assert len(table) == t.elem_table.size
        for coords in np.ndindex(t.elem_table.shape):
            assert table[coords] == t.elem_table[coords]
    # the second has two-digit coordinates and elements
    assert t.elem_table.max() >= 10


def test_arrow_lines_match_the_ndindex_formatter(tmp_path):
    rng = np.random.default_rng(31)
    for shape in [(1,), (12,), (11, 3), (2, 13, 1), (3, 11, 2, 2)]:
        table = rng.integers(0, 150, size=shape)
        assert mio._arrow_lines(table) == arrow_lines_by_ndindex(table), shape
        # a transposed view is read in the C order of its own shape
        assert mio._arrow_lines(table.T) == arrow_lines_by_ndindex(table.T)
    # a map on 12 elements: two-digit coordinates and values
    x = chain(12)
    mio.write_lattice(tmp_path / "x.lat", x)
    f = as_multimorphism((x, x), x, x.meet)
    path = tmp_path / "f.map"
    mio.write_map(path, f, ("x.lat", "x.lat"), "x.lat")
    assert path.read_text().splitlines()[2:] == arrow_lines_by_ndindex(
        f.values)
    assert mio.read_map(path) == f


def test_action_roundtrip_bimodule(tmp_path):
    lat = chain(3)
    q = meet_quantale(lat)
    mio.write_lattice(tmp_path / "x.lat", lat)
    mio.write_quantale(tmp_path / "a.qnt", q)
    bim = Bimodule(ModuleAction("left", q, lat, lat.meet),
                   ModuleAction("right", q, lat, lat.meet))
    path = tmp_path / "m.act"
    mio.write_action(path, bim, {"carrier": "x.lat",
                                 "left_quantale": "a.qnt",
                                 "right_quantale": "a.qnt"})
    back = mio.read_action(path)
    assert isinstance(back, Bimodule)
    assert np.array_equal(back.left.act, bim.left.act)
    assert np.array_equal(back.right.act, bim.right.act)
    # an .act file is a bimodule: the one-sided form is not read
    path.write_text("carrier=x.lat\nquantale=a.qnt\nside=left\n"
                    "act=0,0,0;0,1,1;0,1,2\n")
    with pytest.raises(FormatError) as exc:
        mio.read_action(path)
    assert str(exc.value) == f"{path}: missing field 'left_quantale'"


def build_meet_context(lat):
    t = meet_tables(lat)
    return build_context_from_pair(
        MoritaPairWitness.from_generators(lat, lat, t, t))


def test_context_bundle_roundtrip(tmp_path):
    ctx = build_meet_context(chain(3))
    mio.write_context(tmp_path / "bundle", ctx)
    for name in mio.CONTEXT_FILES:
        assert (tmp_path / "bundle" / name).exists()
    back = mio.read_context(tmp_path / "bundle")
    assert check_morita_context(back).ok
    assert back.a == ctx.a and back.b == ctx.b
    assert np.array_equal(back.pair_xy.values, ctx.pair_xy.values)


def write_starred_context(bundle, ctx, stars):
    'A bundle whose A.qnt and B.qnt carry the involutions ``stars``.'
    mio.write_context(bundle, ctx)
    for name, star in zip(("A.qnt", "B.qnt"), stars):
        mio.write_quantale(bundle / name, star)


def test_context_bundle_with_stars(tmp_path):
    w = InvolutiveWitness.from_generators(chain(3), meet_tables(chain(3)))
    ctx, (ia, ib), _ = build_involutive_context(w)
    write_starred_context(tmp_path / "bundle", ctx, (ia, ib))
    qa = mio.read_quantale(tmp_path / "bundle" / "A.qnt")
    assert isinstance(qa, InvolutiveQuantale) and qa.star == ia.star
    assert check_morita_context(mio.read_context(tmp_path / "bundle")).ok


def test_cli_check_context_names_the_line_of_a_bad_star(tmp_path, capsys):
    # a star= line that is a permutation but no involution: the error names
    # the file and the line, and keeps the failing law
    w = InvolutiveWitness.from_generators(chain(3), meet_tables(chain(3)))
    ctx, stars, _ = build_involutive_context(w)
    bundle = tmp_path / "bundle"
    write_starred_context(bundle, ctx, stars)
    qnt = bundle / "A.qnt"
    lines = qnt.read_text().splitlines()
    assert lines[4] == "star=0,1,2"
    lines[4] = "star=1,0,2"
    qnt.write_text("\n".join(lines) + "\n")
    assert cli.main(["check-context", str(bundle)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {qnt}:5: not an involution: FAIL slot-0-bottom ")


def test_context_bundle_missing_file(tmp_path):
    ctx = build_meet_context(chain(2))
    mio.write_context(tmp_path / "bundle", ctx)
    (tmp_path / "bundle" / "Y.act").unlink()
    with pytest.raises(FormatError):
        mio.read_context(tmp_path / "bundle")


# --- CLI -----------------------------------------------------------------------------

@pytest.fixture
def workdir(tmp_path):
    x2, x3 = chain(2), chain(3)
    mio.write_lattice(tmp_path / "c2.lat", x2)
    mio.write_lattice(tmp_path / "c3.lat", x3)
    p = as_multimorphism((x3, x3, x3), x3, meet_tables(x3))
    mio.write_map(tmp_path / "p33.map", p, ("c3.lat",) * 3, "c3.lat")
    z = as_multimorphism((x3, x3, x3), x3, np.zeros((3, 3, 3), np.int64))
    mio.write_map(tmp_path / "zero33.map", z, ("c3.lat",) * 3, "c3.lat")
    (tmp_path / "anti.lat").write_text("n=2\nnames=a,b\nleq=10;01\n")
    (tmp_path / "garbled.lat").write_text("n=2\nnames=a,b\nleq=1\n")
    return tmp_path


def test_cli_validate_exit_codes(workdir):
    assert cli.main(["validate", str(workdir / "c3.lat")]) == 0
    assert cli.main(["validate", str(workdir / "anti.lat")]) == 1
    assert cli.main(["validate", str(workdir / "garbled.lat")]) == 2
    assert cli.main(["validate", str(workdir / "absent.lat")]) == 2


def test_cli_tensor(workdir):
    out = workdir / "t.lat"
    code = cli.main(["tensor", str(workdir / "c3.lat"),
                     str(workdir / "c3.lat"), "-o", str(out)])
    assert code == 0
    assert mio.read_lattice(out).n == 6
    assert read_elem(workdir / "t.elem", 2)[(2, 2)] == 5
    assert cli.main(["tensor", str(workdir / "c3.lat"), "-o", str(out)]) == 2


# .lat and .elem sha256 of `morita tensor` on shapes with M3 or N5 factors,
# as built when the last non-distributive factor was the tensor's last slot
NON_DISTRIBUTIVE_TENSORS = {
    ("c3", "m3", "n5"): (
        "ce7610064b18459564c3fb38d5fd465884788b912c8d60139b7ee1baaf7bfdd5",
        "e7c0a84721810f5a0fe5e6764e5501755dbdad20fbe3065680d62dfae8fc2a65"),
    ("m3", "m3", "c3"): (
        "32235202679a879623161d88eb2c89d94a5666ea5604419a169106ea3abfdbd1",
        "ca808a396f4b42175cdc07b0b0e560d4eef617a0ccf6484e84e0d920fa83c80e"),
    ("n5", "c3", "m3"): (
        "8d7b82380fcb7898a911e68488837dd71616cd46f0ebe3df12017775a2b8a0a9",
        "fc78598c0aa5854640e1a45b8708775fd665e4824408c9ebe68c308065527f11"),
}


@pytest.mark.parametrize("shape", sorted(NON_DISTRIBUTIVE_TENSORS))
def test_cli_tensor_bytes_with_non_distributive_factors(workdir, shape):
    for name, lat in (("m3", m3()), ("n5", n5())):
        mio.write_lattice(workdir / f"{name}.lat", lat)
    out = workdir / "t.lat"
    args = [str(workdir / f"{name}.lat") for name in shape]
    assert cli.main(["tensor", *args, "-o", str(out)]) == 0
    got = tuple(hashlib.sha256(path.read_bytes()).hexdigest()
                for path in (out, workdir / "t.elem"))
    assert got == NON_DISTRIBUTIVE_TENSORS[shape]


def test_cli_tensor_leaves_the_tensor_without_key_bytes(workdir, monkeypatch):
    # the tensor is written, never compared or hashed: its order is held once
    built = []

    def keep(*factors):
        built.append(tensor_product(*factors))
        return built[-1]
    monkeypatch.setattr(cli, "tensor_product", keep)
    mio.write_lattice(workdir / "c4.lat", chain(4))
    c4 = str(workdir / "c4.lat")
    assert cli.main(["tensor", c4, c4, c4, "-o", str(workdir / "t.lat")]) == 0
    (t,) = built
    assert t.n == 980 and t.lattice._order.key is None


# the .lat and .elem sha256 of the 4,116-element c4 x c4 x c5
C4_C4_C5 = (
    "9d27c0b7fe92d6097b91fdfc6ae9832955e1f4b2cc38f59c34e649a4479997b7",
    "203721a2346ff4bd682c9dd842ef3d031f702e45474590b5355a7af54eb982f3")


def test_cli_tensor_bytes_past_one_word(workdir, capsys, monkeypatch):
    # 80 tuples, two words per row; the bytes of the build that reduced
    # over the word axis. The 4,116-element order is streamed to the file
    # a block at a time: only the factors, of 4 and 5 elements, may build
    # a whole order
    subsets = lattice._subsets

    def small_only(rows):
        if len(rows) > 64:
            raise AssertionError(f"order of {len(rows)} elements built")
        return subsets(rows)

    monkeypatch.setattr(lattice, "_subsets", small_only)
    mio.write_lattice(workdir / "c4.lat", chain(4))
    mio.write_lattice(workdir / "c5.lat", chain(5))
    out = workdir / "t.lat"
    args = [str(workdir / name) for name in ("c4.lat", "c4.lat", "c5.lat")]
    assert cli.main(["tensor", *args, "-o", str(out)]) == 0
    assert "4116 elements" in capsys.readouterr().out
    got = tuple(hashlib.sha256(path.read_bytes()).hexdigest()
                for path in (out, workdir / "t.elem"))
    assert got == C4_C4_C5


def test_tensor_scale_tool(tmp_path):
    tool = Path(__file__).resolve().parents[1] / "tools" / "tensor_scale.py"
    proc = subprocess.run([sys.executable, str(tool), "c2,c2,c2"],
                          capture_output=True, text=True, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    line = proc.stdout.strip()
    assert line.startswith("c2,c2,c2: 2 elements, ") and "peak RSS" in line
    assert ", read back " in line
    mio.write_lattice(tmp_path / "c2.lat", chain(2))
    c2 = str(tmp_path / "c2.lat")
    assert cli.main(["tensor", c2, c2, c2, "-o", str(tmp_path / "t.lat")]) == 0
    lat, elem = (hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in (tmp_path / "t.lat", tmp_path / "t.elem"))
    assert line.endswith(f"lat sha256 {lat}, elem sha256 {elem}")
    bad = subprocess.run([sys.executable, str(tool), "c2,x9"],
                         capture_output=True, text=True, cwd=tmp_path)
    assert bad.returncode != 0 and "bad shape 'c2,x9'" in bad.stderr


# a fresh interpreter that imports no numpy runs the tool's build step on
# the shapes after argv's tool path and directory, printing each result: a
# child started from this process would count the suite's pages in its peak
BUILD = """
import importlib.util, os, sys
spec = importlib.util.spec_from_file_location("tensor_scale", sys.argv[1])
tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tool)
env = dict(os.environ, PYTHONPATH=os.path.abspath(tool.SRC))
for shape in sys.argv[3:]:
    print(repr(tool.build(shape, sys.argv[2], env)))
assert "numpy" not in sys.modules
"""


def test_tensor_scale_peak_grows_under_half_the_order(tmp_path):
    # the command holds no n x n order: from the 2-element c2 x c2 x c2 to
    # the 4,116-element c4 x c4 x c5 its peak grows by less than n^2 / 2
    # bytes. Each peak is a fresh interpreter's, imports included; the
    # tool's build step alone runs, not its read back
    tool = Path(__file__).resolve().parents[1] / "tools" / "tensor_scale.py"
    proc = subprocess.run([sys.executable, "-c", BUILD, str(tool),
                           str(tmp_path), "c2,c2,c2", "c4,c4,c5"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    small, big = map(ast.literal_eval, proc.stdout.splitlines())
    assert small[0] == 2 and big[0] == 4116
    assert big[3:] == C4_C4_C5
    assert (big[2] - small[2]) * 2**20 < 4116 ** 2 / 2, (small, big)


def test_census_space_tool(tmp_path):
    tool = Path(__file__).resolve().parents[1] / "tools" / "census_space.py"
    proc = subprocess.run([sys.executable, str(tool), "c2", "c2"],
                          capture_output=True, text=True, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    line = proc.stdout.strip()
    # the one witness of the 2-chain's space is the meet witness
    assert line.startswith("c2 c2: |P| 1, |Q| 1, 1 candidates, 1 witnesses, "
                           "1 records, 0 skipped, "), line
    assert line.endswith(" MB") and "peak RSS" in line
    # one lattice is its involutive unit, which has no q list
    proc = subprocess.run([sys.executable, str(tool), "c2"],
                          capture_output=True, text=True, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("c2: |P| 1, |Q| -, 1 candidates, "
                                  "1 witnesses, 1 records, 0 skipped, ")
    bad = subprocess.run([sys.executable, str(tool), "c2", "x9"],
                         capture_output=True, text=True, cwd=tmp_path)
    assert bad.returncode != 0 and "bad lattice 'x9'" in bad.stderr


def test_walk_scale_tool(tmp_path):
    tool = Path(__file__).resolve().parents[1] / "tools" / "walk_scale.py"

    def run(*args):
        return subprocess.run([sys.executable, str(tool), *args],
                              capture_output=True, text=True, cwd=tmp_path)
    # c2 x c2 -> c3 has three multimorphisms
    for args, tables in ((("c2,c2", "c3"), 3),
                         (("c2,c2", "c3", "--tables", "2"), 2)):
        proc = run(*args)
        assert proc.returncode == 0, proc.stderr
        line = proc.stdout.strip()
        assert line.startswith(f"c2,c2 -> c3: {tables} tables, "), line
        assert " µs per table, peak RSS " in line and line.endswith(" MB")
    bad = run("c2,x9", "c3")
    assert bad.returncode != 0 and "bad lattice 'x9'" in bad.stderr


def test_cli_tensor_cap(workdir, monkeypatch):
    monkeypatch.setenv("MORITA_MAX_TENSOR", "4")
    code = cli.main(["tensor", str(workdir / "c3.lat"),
                     str(workdir / "c3.lat"), "-o", str(workdir / "t.lat")])
    assert code == 2


def test_cli_tensor_cap_message(workdir, monkeypatch, capsys):
    mio.write_lattice(workdir / "c4.lat", chain(4))
    args = ["tensor"] + [str(workdir / "c4.lat")] * 3 + ["-o", str(workdir / "t.lat")]
    monkeypatch.setenv("MORITA_MAX_TENSOR", "979")
    assert cli.main(args) == 2
    assert ("error: tensor exceeds 979 elements; raise MORITA_MAX_TENSOR"
            in capsys.readouterr().err)
    monkeypatch.setenv("MORITA_MAX_TENSOR", "980")
    assert cli.main(args) == 0
    assert mio.read_lattice(workdir / "t.lat").n == 980


# a bare interpreter runs `morita tensor` in a child under a 1 GiB
# address-space limit and prints the child's exit code and peak RSS in KB,
# read with wait4. A child of the test process would report that process's
# peak as its own: exec keeps the peak of the memory it replaces
CAPPED_TENSOR = """
import os, resource, subprocess, sys
def limit():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
proc = subprocess.Popen([sys.executable, "-m", "morita.cli", "tensor",
                         *sys.argv[1:]], preexec_fn=limit)
_, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)
print(proc.returncode, usage.ru_maxrss)
"""


def test_cli_default_tensor_cap(workdir, monkeypatch, capsys):
    # 4 x 5 x 5 chains have 24,696 tensor elements, about 10 GB of tables:
    # the default cap stops the build before any of them is allocated
    monkeypatch.delenv("MORITA_MAX_TENSOR", raising=False)
    mio.write_lattice(workdir / "c4.lat", chain(4))
    mio.write_lattice(workdir / "c5.lat", chain(5))
    args = ["tensor", str(workdir / "c4.lat"), str(workdir / "c5.lat"),
            str(workdir / "c5.lat"), "-o", str(workdir / "t.lat")]
    assert cli.main(args) == 2
    assert ("error: tensor exceeds 5000 elements; raise MORITA_MAX_TENSOR"
            in capsys.readouterr().err)
    # grids of 30,000 and 120,000 tuples: nothing sized tuples x tuples is
    # built, so the cap stops them in bounded memory. One BLAS thread, as
    # each thread reserves address space
    for k in (10, 20, 300):
        mio.write_lattice(workdir / f"c{k}.lat", chain(k))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    for k in (10, 20):
        c = str(workdir / f"c{k}.lat")
        proc = subprocess.run(
            [sys.executable, "-c", CAPPED_TENSOR, c, c,
             str(workdir / "c300.lat"), "-o", str(workdir / "t.lat")],
            capture_output=True, text=True, env=env, check=True)
        code, peak_kb = map(int, proc.stdout.split())
        assert code == 2, proc.stderr
        assert ("error: tensor exceeds 5000 elements; raise MORITA_MAX_TENSOR"
                in proc.stderr)
        assert peak_kb < 150 * 1024, (k, peak_kb)


@pytest.mark.parametrize("error, line", [
    (MemoryError("Unable to allocate 13.4 GiB"),
     "error: out of memory: Unable to allocate 13.4 GiB\n"),
    (MemoryError(), "error: out of memory\n")])
def test_cli_out_of_memory_is_not_a_failed_check(workdir, monkeypatch,
                                                 capsys, error, line):
    def exhausted(*factors):
        raise error

    monkeypatch.setattr(cli, "tensor_product", exhausted)
    c3 = str(workdir / "c3.lat")
    assert cli.main(["tensor", c3, c3, "-o", str(workdir / "t.lat")]) == 2
    assert capsys.readouterr().err == line


@pytest.mark.parametrize("value", ["abc", "0", "²"])
def test_cli_malformed_tensor_cap(workdir, monkeypatch, capsys, value):
    monkeypatch.setenv("MORITA_MAX_TENSOR", value)
    assert cli.main(["tensor", str(workdir / "c3.lat"),
                     str(workdir / "c3.lat"), "-o", str(workdir / "t.lat")]) == 2
    assert (f"error: MORITA_MAX_TENSOR must be a positive integer, "
            f"got '{value}'" in capsys.readouterr().err)


def test_cli_output_in_missing_directory(workdir, capsys):
    out = workdir / "nodir" / "t.lat"
    assert cli.main(["tensor", str(workdir / "c3.lat"),
                     str(workdir / "c3.lat"), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err


def test_cli_endo(workdir, capsys):
    assert cli.main(["endo", str(workdir / "c2.lat"),
                     "-o", str(workdir / "q.qnt")]) == 0
    out = capsys.readouterr().out
    assert "2 sup-endomorphisms" in out
    assert mio.read_quantale(workdir / "q.qnt").n == 2


def test_cli_check_pair(workdir, capsys):
    base = ["check-pair", "--x", str(workdir / "c3.lat"),
            "--y", str(workdir / "c3.lat"), "--p", str(workdir / "p33.map")]
    assert cli.main(base + ["--q", str(workdir / "p33.map")]) == 0
    assert "8/8 laws hold" in capsys.readouterr().out
    assert cli.main(base + ["--q", str(workdir / "zero33.map")]) == 1
    out = capsys.readouterr().out
    assert "\nFAIL q-surjective" in out       # a check-pair law names its check
    # wiring mismatch is an input error, not a failed check
    assert cli.main(["check-pair", "--x", str(workdir / "c2.lat"),
                     "--y", str(workdir / "c3.lat"),
                     "--p", str(workdir / "p33.map"),
                     "--q", str(workdir / "p33.map")]) == 2


def test_cli_context_workflow(workdir, capsys):
    ctx_dir = workdir / "ctx"
    base = ["--x", str(workdir / "c3.lat"), "--y", str(workdir / "c3.lat"),
            "--p", str(workdir / "p33.map"), "--q", str(workdir / "p33.map")]
    assert cli.main(["build-context"] + base + ["-o", str(ctx_dir)]) == 0
    assert cli.main(["check-context", str(ctx_dir)]) == 0
    assert "20/20 laws hold" in capsys.readouterr().out

    p_out = workdir / "out_p.map"
    q_out = workdir / "out_q.map"
    assert cli.main(["extract", str(ctx_dir),
                     "-o", f"{p_out},{q_out}"]) == 0
    assert mio.read_map(p_out) == mio.read_map(workdir / "p33.map")
    assert mio.read_map(q_out) == mio.read_map(workdir / "p33.map")

    # a failing pair refuses to build
    assert cli.main(["build-context", "--x", str(workdir / "c3.lat"),
                     "--y", str(workdir / "c3.lat"),
                     "--p", str(workdir / "p33.map"),
                     "--q", str(workdir / "zero33.map"),
                     "-o", str(workdir / "nope")]) == 1
    assert not (workdir / "nope").exists()


def test_cli_check_context_flags_tampering(workdir):
    ctx_dir = workdir / "ctx"
    base = ["--x", str(workdir / "c3.lat"), "--y", str(workdir / "c3.lat"),
            "--p", str(workdir / "p33.map"), "--q", str(workdir / "p33.map")]
    assert cli.main(["build-context"] + base + ["-o", str(ctx_dir)]) == 0
    pair = ctx_dir / "pairXY.map"
    pair.write_text(pair.read_text().replace("2,2 -> 2", "2,2 -> 1"))
    code = cli.main(["check-context", str(ctx_dir)])
    assert code in (1, 2)  # broken law or no longer a multimorphism


def test_cli_check_context_reports_a_non_associative_quantale(tmp_path,
                                                              capsys):
    # swapping mult[1, 2] and mult[2, 2] of the 3-chain's meet quantale
    # breaks associativity; regularity is then not judged on it
    bundle = tmp_path / "bundle"
    mio.write_context(bundle, build_meet_context(chain(3)))
    qnt = bundle / "A.qnt"
    assert "mult=0,0,0;0,1,1;0,1,2\n" in qnt.read_text()
    qnt.write_text(qnt.read_text().replace("mult=0,0,0;0,1,1;0,1,2",
                                           "mult=0,0,0;0,1,2;0,1,1"))
    assert cli.main(["check-context", str(bundle)]) == 1
    out = capsys.readouterr().out
    assert "FAIL m-regular-A - not judged: quantale-A fails" in out
    report = check_morita_context(mio.read_context(bundle))
    assert not report["quantale-A"] and not report["m-regular-A"]
    assert report["quantale-B"] and report["m-regular-B"]


def test_cli_check_context_names_the_failing_part(tmp_path, capsys):
    # the bundle above: a verdict whose law does not name its check is
    # prefixed with the check; every other line reads as before
    bundle = tmp_path / "bundle"
    mio.write_context(bundle, build_meet_context(chain(3)))
    qnt = bundle / "A.qnt"
    qnt.write_text(qnt.read_text().replace("mult=0,0,0;0,1,1;0,1,2",
                                           "mult=0,0,0;0,1,2;0,1,1"))
    assert cli.main(["check-context", str(bundle)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:5] == [
        "quantale-A: FAIL associative at ([0 x1 1], [0 x1 x1], [0 x1 1]) "
        "- (ab)c = [0 x1 1] but a(bc) = [0 x1 x1]",
        "PASS quantale-B",
        "module-X: FAIL M1: (ab).m = a.(b.m) at (1, [0 x1 x1], [0 x1 1]) "
        "- 1 vs x1",
        "module-Y: FAIL M1: m.(ab) = (m.a).b at (1, [0 x1 x1], [0 x1 1]) "
        "- 1 vs x1",
        "FAIL m-regular-A - not judged: quantale-A fails"]
    assert ("FAIL pairing-XY-left-linear: (a.x, y) = a.(x, y) at "
            "(1, [0 x1 x1], 1) - [0 x1 x1] vs [0 x1 1]") in lines
    assert lines[-1] == "context: 14/20 laws hold"
    report = check_morita_context(mio.read_context(bundle))
    assert list(report.digest()) == list(report.checks)
    assert [k for k, ok in report.digest().items() if not ok] == [
        "quantale-A", "module-X", "module-Y", "m-regular-A",
        "pairing-XY-left-linear", "pairing-XY-right-linear"]


def test_cli_extract_refuses_a_broken_bundle_with_its_report(tmp_path,
                                                             capsys):
    # the bundle above, read from files, is checked in full: extract prints
    # the lines of check-context, refuses, and writes no map
    bundle = tmp_path / "bundle"
    mio.write_context(bundle, build_meet_context(chain(3)))
    qnt = bundle / "A.qnt"
    qnt.write_text(qnt.read_text().replace("mult=0,0,0;0,1,1;0,1,2",
                                           "mult=0,0,0;0,1,2;0,1,1"))
    assert cli.main(["check-context", str(bundle)]) == 1
    checked = capsys.readouterr().out.splitlines()
    p_out, q_out = tmp_path / "p.map", tmp_path / "q.map"
    assert cli.main(["extract", str(bundle), "-o", f"{p_out},{q_out}"]) == 1
    refused = capsys.readouterr().out.splitlines()
    assert refused[:-1] == checked[:-1]
    assert refused[-1] == "context: extraction refused"
    assert not list(tmp_path.glob("*.map"))


def test_cli_endo_matches_the_loop_build(tmp_path, capsys, monkeypatch):
    # stdout and .qnt bytes of `morita endo` against the same command on
    # the validated loop build, on every lattice of size <= 6 and on
    # shuffled copies of those of size >= 3
    rng = np.random.default_rng(15)
    lats = lattices_up_to(6)
    lats += [shuffled(lat, rng) for lat in lats if lat.n >= 3]
    path = tmp_path / "x.lat"

    def endo(build):
        monkeypatch.setattr(cli, "endo_quantale", build)
        assert cli.main(["endo", str(path), "-o", str(tmp_path / "q.qnt")]) == 0
        return capsys.readouterr().out, (tmp_path / "q.qnt").read_bytes()
    for lat in lats:
        mio.write_lattice(path, lat)
        assert endo(endo_quantale) == endo(endo_quantale_by_loops), lat


def test_cli_check_involutive(workdir):
    assert cli.main(["check-involutive", "--x", str(workdir / "c3.lat"),
                     "--p", str(workdir / "p33.map")]) == 0
    assert cli.main(["check-involutive", "--x", str(workdir / "c3.lat"),
                     "--p", str(workdir / "zero33.map")]) == 1


def test_cli_census(workdir, capsys):
    out = workdir / "census.jsonl"
    assert cli.main(["census", "--max-x", "2", "--min-x", "2", "--min-y", "2",
                     "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["mode"] == "general"
    capsys.readouterr()
    assert cli.main(["census", "--max-x", "2", "--involutive"]) == 0
    printed = capsys.readouterr().out
    assert "mode=involutive" in printed
    assert cli.main(["census", "--max-x", "0"]) == 2


def test_cli_census_deterministic_across_jobs(workdir, capsys):
    outs = []
    for jobs in ("1", "3"):
        path = workdir / f"c{jobs}.jsonl"
        assert cli.main(["census", "--max-x", "3", "--jobs", jobs,
                         "-o", str(path)]) == 0
        assert ("mode=general spaces=9 candidates=9431 witnesses=7 records=7"
                in capsys.readouterr().out)
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_cli_rejects_unknown_command():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_console_script_entry_point(workdir, tmp_path, monkeypatch):
    """The `morita` command on PATH reaches `cli.main`, exits 0, prints PASS.

    The script is written from the `[project.scripts]` table of
    `pyproject.toml` through the entry-points specification's console-script
    template, so the test needs no install, and it runs the package the suite
    imports rather than whatever copy happens to be installed.
    """
    tomllib = pytest.importorskip("tomllib")
    src = Path(morita.__file__).resolve().parents[1]
    with open(src.parent / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    bindir = tmp_path / "bin"
    bindir.mkdir()
    for name, value in scripts.items():
        ep = EntryPoint(name, value, "console_scripts")
        script = bindir / name
        script.write_text(f"#!{sys.executable}\n"
                          f"import sys\n"
                          f"from {ep.module} import {ep.attr}\n"
                          f"sys.exit({ep.attr}())\n")
        script.chmod(0o755)
    for var, first in (("PATH", bindir), ("PYTHONPATH", src)):
        monkeypatch.setenv(var, os.pathsep.join(
            filter(None, [str(first), os.environ.get(var)])))
    r = subprocess.run(["morita", "validate", str(workdir / "c3.lat")],
                       capture_output=True, text=True)
    assert r.returncode == 0
    assert "PASS" in r.stdout
