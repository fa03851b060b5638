"""The three benchmark workloads: census, verify and tensor.

Set-up and work are timed apart: the constructor makes the inputs from the
seed (set-up) and lists the units of work in ``items``; ``run_item()``
does one of them through morita's public entry points and adds what it
attempted, failed and produced to an ``Outcome``; ``check()`` compares the
outputs against the stored references.

* census - ``run_census`` on four fixed tasks that all complete with no
  skipped space. The seed only permutes the task order; the JSONL bytes of
  every task are fixed.
* verify - the decision procedure a user with one candidate runs, on the
  g<=3 and i<=4 census witnesses: all 14 whose X has at most 3 elements and
  LARGE_RECORDS of the 19 on the diamond, chosen by the seed (each diamond
  record costs about 2.5 s, and all of them would keep a traced run from
  ending within three minutes on a slow host). The seed also shuffles the
  records and relabels each lattice by a random permutation, so the engine
  sees fresh index orders; round-trip tables, operator-quantale sizes and
  check digests must come out exactly.
* tensor - ``morita tensor X.lat Y.lat X.lat`` through ``cli.main`` for all
  16 X(x)Y(x)X over the 2-, 3-, 4-chain and the diamond. The seed permutes
  the build order; every output file is fixed.

``tiny=True`` keeps the same code paths on inputs that finish in about a
second; the smoke test uses it.
"""

import contextlib
import hashlib
import io as _io
import json
import os
import random

import numpy as np

from morita import cli, engine
from morita import census as mcensus
from morita import io as mio
from morita.errors import MoritaError
from morita.lattice import chain, diamond, validate_lattice

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
WITNESSES = os.path.join(HERE, "witnesses.jsonl")

# label -> CensusTask arguments. Spaces that cost 70-500+ s or end skipped
# (involutive 4-chain, 3-chain x 4-chain, diamond x 3-chain and its mirror,
# diamond x diamond) are left out until the census can finish them.
CENSUS_TASKS = {
    "g<=3": dict(max_x=3),
    "i<=3": dict(max_x=3, involutive=True),
    "x=4,y<=2": dict(min_x=4, max_x=4, max_y=2),
    "x<=2,y=4": dict(max_x=2, min_y=4, max_y=4),
}
TINY_CENSUS_TASKS = ("i<=3", "x<=2,y=4")

FACTORS = {"c2": lambda: chain(2), "c3": lambda: chain(3),
           "c4": lambda: chain(4), "d": diamond}
TINY_FACTORS = ("c2", "c3")
LARGE_RECORDS = 10


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def load_reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


class Outcome:
    'What one run of a workload attempted, how much failed, what it made.'

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.outputs = {}
        self.summaries = []   # census only: (label, mode, summary) per task


# --- census -----------------------------------------------------------------------

class Census:
    def __init__(self, seed, workdir, tiny=False, tasks=None):
        labels = list(TINY_CENSUS_TASKS if tiny else CENSUS_TASKS)
        random.Random(seed).shuffle(labels)
        self.items = tasks if tasks is not None else [
            (label, CENSUS_TASKS[label]) for label in labels]
        self.workdir = workdir

    def run_item(self, item, out):
        label, kwargs = item
        path = os.path.join(self.workdir, f"census{len(out.outputs)}.jsonl")
        task = mcensus.CensusTask(jobs=1, out=path, **kwargs)
        _, summary = mcensus.run_census(task)
        out.attempted += summary["spaces"]
        out.failed += len(summary["skipped"])
        out.outputs[label] = path
        out.summaries.append((label, summary["mode"], summary))

    def check(self, out, ref):
        bad = []
        for label, path in out.outputs.items():
            want = ref["census"][label]["sha256"]
            got = sha256_file(path)
            if got != want:
                bad.append(f"census {label}: sha256 {got[:12]} != {want[:12]}")
        return bad


# --- verify -----------------------------------------------------------------------

def _relabel_lattice(rows, perm):
    'The lattice of leq rows with element i renamed perm[i].'
    leq = np.array([[c == "1" for c in row] for row in rows], dtype=bool)
    moved = np.empty_like(leq)
    moved[np.ix_(perm, perm)] = leq
    return validate_lattice(moved)


def _relabel_table(table, px, py):
    'Table over (X, Y, X) -> X with X relabelled by px and Y by py.'
    t = np.asarray(table, dtype=np.int64)
    moved = np.empty_like(t)
    moved[np.ix_(px, py, px)] = px[t]
    return moved


class Verify:
    def __init__(self, seed, workdir, tiny=False):
        with open(WITNESSES, "rb") as fh:
            raw = fh.read()
        self.file_sha256 = hashlib.sha256(raw).hexdigest()
        records = [json.loads(line) for line in raw.decode().splitlines()]
        rng = np.random.default_rng(seed)
        large = [k for k, r in enumerate(records) if len(r["x_leq"]) > 3]
        keep = set() if tiny else set(
            rng.choice(large, LARGE_RECORDS, replace=False).tolist())
        order = [k for k in rng.permutation(len(records))
                 if len(records[k]["x_leq"]) <= 3 or k in keep]
        self.items = []
        for k in order:
            r = records[k]
            px = rng.permutation(len(r["x_leq"]))
            x = _relabel_lattice(r["x_leq"], px)
            if r["mode"] == "general":
                py = rng.permutation(len(r["y_leq"]))
                y = _relabel_lattice(r["y_leq"], py)
                q = _relabel_table(r["q"], py, px)
            else:
                py, y, q = px, None, None
            p = _relabel_table(r["p"], px, py)
            self.items.append((int(k), r, x, y, p, q))

    def _one(self, x, y, p, q):
        'Returns (digests, round trip exact, l_size, r_size) or None if a law fails.'
        if y is not None:
            w = engine.MoritaPairWitness.from_generators(x, y, p, q)
            rep = engine.check_pair_conditions(w)
            if not rep.ok:
                return None
            ctx = engine.build_context_from_pair(w)
            want_q = q
            digests = {"conditions": rep.digest()}
        else:
            iw = engine.InvolutiveWitness.from_generators(x, p)
            rep = engine.check_involutive_conditions(iw)
            if not rep.ok:
                return None
            ctx, _, imp = engine.build_involutive_context(iw)
            want_q = p.transpose(2, 1, 0)
            digests = {"conditions": rep.digest(),
                       "imprimitivity": engine.check_imprimitivity(imp).digest()}
        crep = engine.check_morita_context(ctx)
        if not crep.ok:
            return None
        digests["context"] = crep.digest()
        back = engine.extract_pair_from_context(ctx)
        exact = (np.array_equal(back.p_gen, p)
                 and np.array_equal(back.q_gen, want_q))
        return digests, exact, ctx.a.n, ctx.b.n

    def run_item(self, item, out):
        k, _, x, y, p, q = item
        out.attempted += 1
        try:
            res = self._one(x, y, p, q)
        except MoritaError:
            res = None
        if res is None:
            out.failed += 1
        else:
            out.outputs[k] = res

    def check(self, out, ref):
        bad = []
        if self.file_sha256 != ref["witnesses"]["sha256"]:
            bad.append("verify: witness file sha256 differs from the reference")
        for k, r, *_ in self.items:
            if k not in out.outputs:
                continue   # counted in failed
            digests, exact, l_size, r_size = out.outputs[k]
            if not exact:
                bad.append(f"verify record {k}: round trip changed the tables")
            if (l_size, r_size) != (r["l_size"], r["r_size"]):
                bad.append(f"verify record {k}: sizes {l_size},{r_size} != "
                           f"{r['l_size']},{r['r_size']}")
            if digests != r["digests"]:
                bad.append(f"verify record {k}: check digests differ")
        return bad


# --- tensor -----------------------------------------------------------------------

class Tensor:
    def __init__(self, seed, workdir, tiny=False):
        names = list(TINY_FACTORS if tiny else FACTORS)
        self.workdir = workdir
        for name in names:
            mio.write_lattice(os.path.join(workdir, f"{name}.lat"),
                              FACTORS[name]())
        self.items = [(x, y) for x in names for y in names]
        random.Random(seed).shuffle(self.items)

    def run_item(self, item, out):
        x, y = item
        lat = lambda name: os.path.join(self.workdir, f"{name}.lat")
        path = os.path.join(self.workdir, f"T_{x}_{y}.lat")
        out.attempted += 1
        with contextlib.redirect_stdout(_io.StringIO()), \
                contextlib.redirect_stderr(_io.StringIO()):
            rc = cli.main(["tensor", lat(x), lat(y), lat(x), "-o", path])
        if rc:
            out.failed += 1
        else:
            out.outputs[f"{x},{y}"] = path

    def check(self, out, ref):
        bad = []
        for shape, path in out.outputs.items():
            want = ref["tensor"][shape]
            with open(path, encoding="utf-8") as fh:
                elements = int(fh.readline().strip().split("=", 1)[1])
            got = {"elements": elements, "lat_sha256": sha256_file(path),
                   "elem_sha256": sha256_file(path[:-4] + ".elem")}
            for key, value in got.items():
                if value != want[key]:
                    bad.append(f"tensor {shape}: {key} {value} != {want[key]}")
        return bad


WORKLOADS = {"census": Census, "verify": Verify, "tensor": Tensor}
