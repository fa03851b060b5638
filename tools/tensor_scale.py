"""Time `morita tensor` on tensor shapes, each in a fresh interpreter.

    python3 tools/tensor_scale.py SHAPE ...

A SHAPE lists two or three factors, comma-separated: ``cK`` is the
K-element chain, ``d`` the diamond, ``m3`` and ``n5`` the two 5-element
lattices that are not distributive. For example ``c4,c4,c5`` is the
tensor of the 4-, 4- and 5-element chains (4,116 elements).

Per shape, the factors are written to ``.lat`` files in a temporary
directory, and a fresh interpreter imports morita from this checkout's
``src/`` and runs ``morita tensor`` on them through ``cli.main``. Another
fresh interpreter then reads the written ``.lat`` back through
``io.read_lattice``, which validates it. One line is printed per shape:
the element count, the command's wall seconds (measured in the child
around ``cli.main``, so interpreter start and imports are left out), the
child's peak RSS in MB (its whole life, imports included), the same two
figures for the read back, and the sha256 of the written ``.lat`` and
``.elem`` files. Exits 1 if a command fails. Uses the standard library and
morita only. ``build`` and ``read_back`` are the two steps of a shape, for
a caller that needs only the first.
"""

import hashlib
import os
import re
import subprocess
import sys
import tempfile

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

CHILD = """
import sys, time
from morita import cli
start = time.perf_counter()
code = cli.main(sys.argv[1:])
print(f"wall {time.perf_counter() - start:.6f}")
sys.exit(code)
"""

READ = """
import sys, time
from morita import io
start = time.perf_counter()
io.read_lattice(sys.argv[1])
print(f"wall {time.perf_counter() - start:.6f}")
"""

# a lattice name, and the child code that builds the lattice it names
LATTICE = r"c[1-9]\d*|d|m3|n5"
MAKE = """
from morita import lattice
def make(name):
    other = {"d": lattice.diamond, "m3": lattice.m3, "n5": lattice.n5}.get(name)
    return other() if other else lattice.chain(int(name[1:]))
"""

FACTORS = MAKE + """
import sys
from morita import io
for name, path in zip(sys.argv[1::2], sys.argv[2::2]):
    io.write_lattice(path, make(name))
"""


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _child(args, env):
    'Run a fresh interpreter; its exit code, stdout and peak RSS in MB.'
    proc = subprocess.Popen([sys.executable, "-c", *args], env=env,
                            stdout=subprocess.PIPE, text=True)
    with proc.stdout:
        out = proc.stdout.read()
    # wait4, not proc.wait: it reports this child's own peak; the parent
    # imports no numpy, whose pages a forked child would count as its own
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss / 1024   # KB on Linux


def _wall(out):
    return float(re.search(r"^wall (\S+)$", out, re.M).group(1))


def build(shape, workdir, env):
    """Build one shape into ``workdir``'s ``t.lat``; returns (elements,
    seconds, peak MB, lat sha256, elem sha256), or None if a command
    failed. ``env`` is the children's environment."""
    names = shape.split(",")
    if not (2 <= len(names) <= 3
            and all(re.fullmatch(LATTICE, s) for s in names)):
        sys.exit(f"tensor_scale: bad shape {shape!r}")
    paths = {s: os.path.join(workdir, s + ".lat") for s in names}
    code, _, _ = _child([FACTORS, *[x for kv in paths.items() for x in kv]], env)
    out_lat = os.path.join(workdir, "t.lat")
    if code == 0:
        code, out, rss = _child(
            [CHILD, "tensor", *[paths[s] for s in names], "-o", out_lat], env)
    if code != 0:
        return None
    elements = int(re.search(r"(\d+) elements", out).group(1))
    return (elements, _wall(out), rss, _sha256(out_lat),
            _sha256(os.path.splitext(out_lat)[0] + ".elem"))


def read_back(workdir, env):
    """Read ``workdir``'s built ``t.lat`` back; returns (seconds, peak MB),
    or None if the read failed."""
    code, out, rss = _child([READ, os.path.join(workdir, "t.lat")], env)
    return None if code else (_wall(out), rss)


def main(argv=None):
    shapes = sys.argv[1:] if argv is None else argv
    if not shapes:
        sys.exit(__doc__.split("\n\n")[1])
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    failed = False
    for shape in shapes:
        with tempfile.TemporaryDirectory() as workdir:
            got = build(shape, workdir, env)
            back = got and read_back(workdir, env)
        if not back:
            print(f"{shape}: failed")
            failed = True
            continue
        (n, seconds, rss, lat, elem), (back, back_rss) = got, back
        print(f"{shape}: {n} elements, {seconds:.3f} s, peak RSS {rss:.1f} MB, "
              f"read back {back:.3f} s, peak RSS {back_rss:.1f} MB, "
              f"lat sha256 {lat}, elem sha256 {elem}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
