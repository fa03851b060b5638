"""In-memory span recorder that traces morita from outside.

Spans are recorded by rebinding, for the duration of a ``Tracer`` block,
the module-level names through which morita's own modules (and the
benchmark) call into each layer: ``morita.census.conditions_from_tables``
is replaced by a wrapper that opens a span, calls the original and closes
the span. Nothing in the package is edited; leaving the block restores
every name.

A span has a name, a start, an end and the span that was open when it
began. Spans live in flat arrays until the workload ends; a layer's self
time is the sum of its spans' durations minus the parts covered by their
direct children.

Generators are traced per resumption: each ``next()`` is one span, closed
in a ``finally`` so that a generator that raises (``ResourceLimit`` in the
middle of an enumeration) still leaves the stack balanced.
"""

import functools
import importlib
import os
import time
from array import array

# (module, attribute, span name, kind). A function imported into several
# modules is rebound in each caller that the workloads reach; some bindings
# are left alone on purpose:
#   * engine's own conditions_from_tables / involutive_conditions_from_tables
#     (the re-checks inside check_pair_conditions and friends) stay inside
#     their caller's span, so the census-side calls count pairs checked;
#   * engine's own _distinct_slices likewise, so the filter counts only the
#     census pre-filter.
TARGETS = (
    ("morita.census", "run_census", "census.run_census", "fn"),
    ("morita.census", "enumerate_multimorphisms", "census.multimorphisms", "gen"),
    ("morita.census", "enumerate_trimorphisms", "census.surjective", "gen"),
    ("morita.census", "enumerate_lattices", "enumeration.enumerate_lattices", "fn"),
    ("morita.census", "automorphisms", "enumeration.automorphisms", "fn"),
    ("morita.census", "_distinct_slices", "engine.distinct_slices", "fn"),
    ("morita.census", "conditions_from_tables", "engine.conditions_from_tables", "fn"),
    ("morita.census", "involutive_conditions_from_tables",
     "engine.involutive_conditions_from_tables", "fn"),
    ("morita.census", "is_multimorphism", "tensor.is_multimorphism", "fn"),
    ("morita.census", "join_closure", "lattice.join_closure", "fn"),
    ("morita.census", "tensor_product", "tensor.tensor_product", "fn"),
    ("morita.census", "validate_lattice", "lattice.validate_lattice", "fn"),
    ("morita.census", "build_context_from_pair", "engine.build_context_from_pair", "fn"),
    ("morita.census", "extract_pair_from_context", "engine.extract_pair_from_context", "fn"),
    ("morita.census", "check_pair_conditions", "engine.check_pair_conditions", "fn"),
    ("morita.census", "check_morita_context", "engine.check_morita_context", "fn"),
    ("morita.census", "build_involutive_context", "engine.build_involutive_context", "fn"),
    ("morita.census", "check_imprimitivity", "engine.check_imprimitivity", "fn"),
    ("morita.enumeration", "validate_lattice", "lattice.validate_lattice", "fn"),
    ("morita.engine", "tensor_product", "tensor.tensor_product", "fn"),
    ("morita.engine", "lift_multimorphism", "engine.lift_multimorphism", "fn"),
    ("morita.engine", "is_multimorphism", "tensor.is_multimorphism", "fn"),
    ("morita.engine", "join_closure", "lattice.join_closure", "fn"),
    ("morita.engine", "as_pair_witness", "engine.as_pair_witness", "fn"),
    ("morita.engine", "build_context_from_pair", "engine.build_context_from_pair", "fn"),
    ("morita.engine", "extract_pair_from_context", "engine.extract_pair_from_context", "fn"),
    ("morita.engine", "check_pair_conditions", "engine.check_pair_conditions", "fn"),
    ("morita.engine", "check_involutive_conditions",
     "engine.check_involutive_conditions", "fn"),
    ("morita.engine", "check_morita_context", "engine.check_morita_context", "fn"),
    ("morita.engine", "build_involutive_context", "engine.build_involutive_context", "fn"),
    ("morita.engine", "check_imprimitivity", "engine.check_imprimitivity", "fn"),
    ("morita.engine", "endo_quantale", "quantale.endo_quantale", "fn"),
    ("morita.engine", "image_subquantale", "quantale.image_subquantale", "fn"),
    ("morita.engine", "check_bimodule", "modules.check_bimodule", "fn"),
    ("morita.engine", "is_m_regular", "modules.is_m_regular", "fn"),
    ("morita.tensor", "is_multimorphism", "tensor.is_multimorphism", "fn"),
    ("morita.tensor", "validate_lattice", "lattice.validate_lattice", "fn"),
    ("morita._kernels", "close_ideal", "kernels.close_ideal", "fn"),
    ("morita.quantale", "validate_lattice", "lattice.validate_lattice", "fn"),
    ("morita.modules", "join_closure", "lattice.join_closure", "fn"),
    ("morita.io", "read_lattice", "io.read_lattice", "fn"),
    ("morita.io", "write_lattice", "io.write_lattice", "fn"),
    ("morita.io", "write_elem", "io.write_elem", "fn"),
    ("morita.io", "validate_lattice", "lattice.validate_lattice", "fn"),
    ("morita.cli", "main", "cli.main", "fn"),
    ("morita.cli", "tensor_product", "tensor.tensor_product", "fn"),
)


def _written_bytes(args, kwargs):
    return os.path.getsize(args[0] if args else kwargs["path"])


# Counts taken from a call's arguments and result, by span name; each adds
# to the counter "<span>.<key>".
OBSERVERS = {
    # the census keeps a table once both slice filters pass; axis 0 is second
    "engine.distinct_slices": lambda a, k, r: {
        "passed": int(bool(r)), "separated": int(bool(r) and a[1] == 0)},
    "engine.conditions_from_tables":
        lambda a, k, r: {"checked": 1, "passed": int(r.ok)},
    "engine.involutive_conditions_from_tables":
        lambda a, k, r: {"passed": int(r.ok)},
    "tensor.tensor_product": lambda a, k, r: {"elements": r.n},
    "census.run_census": lambda a, k, r: {"records": len(r[0])},
    "io.write_lattice": lambda a, k, r: {"bytes": _written_bytes(a, k)},
    "io.write_elem": lambda a, k, r: {"bytes": _written_bytes(a, k)},
}


class Recorder:
    """Spans in flat arrays plus named counters.

    ``parent[i]`` is the index of the span open when span i began, or -1.
    ``root_counts[r]`` holds the counters added while root span r was open.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.counts = {}
        self.root_counts = {}

    def open(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(-1.0)
        self.stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx):
        t = self.clock()
        top = self.stack.pop()
        if top != idx:
            self.stack.append(top)
            raise RuntimeError(
                f"span stack out of order: closing {self.span_name(idx)} "
                f"while {self.span_name(top)} is open")
        self.end[idx] = t

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n
        per_root = self.root_counts.setdefault(
            self.stack[0] if self.stack else -1, {})
        per_root[key] = per_root.get(key, 0) + n

    def span_name(self, idx):
        return self.names[self.name_id[idx]]

    def __len__(self):
        return len(self.name_id)

    def balanced(self):
        'No span left open, and every recorded span has an end.'
        return not self.stack and all(e >= 0 for e in self.end)

    def self_times(self):
        'Per span: duration minus the durations of its direct children.'
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return dur, own


def _wrap_fn(rec, name, fn):
    observe = OBSERVERS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if observe is not None:
            for key, n in observe(args, kwargs, result).items():
                rec.count(f"{name}.{key}", n)
        return result
    return traced


def _wrap_gen(rec, name, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        gen = fn(*args, **kwargs)
        try:
            while True:
                idx = rec.open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    rec.close(idx)
                rec.count(f"{name}.yields")
                yield item
        finally:
            gen.close()
    return traced


class Tracer:
    """Context manager: rebind every target to a traced wrapper, then restore.

    ``with Tracer() as rec:`` yields the Recorder holding the spans. A
    target the package no longer has raises AttributeError, so a layer
    whose name moved fails the traced run instead of reading zero.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.recorder = Recorder()
        self._saved = []

    def __enter__(self):
        rec = self.recorder
        for modname, attr, name, kind in self.targets:
            mod = importlib.import_module(modname)
            original = getattr(mod, attr)
            wrap = _wrap_gen if kind == "gen" else _wrap_fn
            self._saved.append((mod, attr, original))
            setattr(mod, attr, wrap(rec, name, original))
        return rec

    def __exit__(self, *exc):
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)
        return False


# --- turning spans into per-layer metrics ----------------------------------------

def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(rec, wall_s):
    """Per-layer metrics of one traced workload run, as name -> value.

    ``wall_s`` is the traced wall time of the work; ``trace.residual_s`` is
    the part of it that no span covers, so the self times of every span
    name plus the residual add up to it.
    """
    dur, own = rec.self_times()
    self_s, calls = {}, {}
    leaves = 0
    root_total = 0.0
    multi_id = rec._name_ids.get("census.multimorphisms", -2)
    for i in range(len(rec)):
        name = rec.span_name(i)
        self_s[name] = self_s.get(name, 0.0) + own[i]
        calls[name] = calls.get(name, 0) + 1
        p = rec.parent[i]
        if p < 0:
            root_total += dur[i]
        elif (name == "tensor.is_multimorphism"
              and rec.name_id[p] == multi_id):
            leaves += 1
    c = rec.counts

    def s(name):
        return self_s.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    found = c.get("census.multimorphisms.yields", 0)
    kept = c.get("census.surjective.yields", 0)
    tp_inclusive = sum(d for i, d in enumerate(dur)
                       if rec.span_name(i) == "tensor.tensor_product")
    elements = c.get("tensor.tensor_product.elements", 0)
    out = {
        "census.multimorphisms.s": s("census.multimorphisms"),
        "census.multimorphisms.leaves": leaves,
        "census.multimorphisms.found": found,
        "census.multimorphisms.accept_ratio": _ratio(found, leaves),
        "tensor.is_multimorphism.s": s("tensor.is_multimorphism"),
        "census.surjective.kept": kept,
        "census.surjective.pass_ratio": _ratio(kept, found),
        "census.surjective.s": s("census.surjective"),
        "lattice.join_closure.s": s("lattice.join_closure"),
        "engine.distinct_slices.calls": n("engine.distinct_slices"),
        "engine.distinct_slices.pass_ratio": _ratio(
            c.get("engine.distinct_slices.passed", 0),
            n("engine.distinct_slices")),
        "engine.distinct_slices.s": s("engine.distinct_slices"),
        "engine.conditions_from_tables.calls":
            n("engine.conditions_from_tables"),
        "engine.conditions_from_tables.s": s("engine.conditions_from_tables"),
        "census.pairs.witness_ratio": _ratio(
            c.get("engine.conditions_from_tables.passed", 0),
            n("engine.conditions_from_tables")),
        "engine.involutive_conditions_from_tables.calls":
            n("engine.involutive_conditions_from_tables"),
        "engine.involutive_conditions_from_tables.pass_ratio": _ratio(
            c.get("engine.involutive_conditions_from_tables.passed", 0),
            n("engine.involutive_conditions_from_tables")),
        "engine.involutive_conditions_from_tables.s":
            s("engine.involutive_conditions_from_tables"),
        "enumeration.enumerate_lattices.s": s("enumeration.enumerate_lattices"),
        "enumeration.automorphisms.s": s("enumeration.automorphisms"),
        "census.records": c.get("census.run_census.records", 0),
        "census.self.s": s("census.run_census"),
        "tensor.tensor_product.calls": n("tensor.tensor_product"),
        "tensor.tensor_product.s": s("tensor.tensor_product"),
        "tensor.tensor_product.elements": elements,
        "tensor.tensor_product.elements_per_s": _ratio(elements, tp_inclusive),
        "kernels.close_ideal.calls": n("kernels.close_ideal"),
        "kernels.close_ideal.s": s("kernels.close_ideal"),
        "lattice.validate_lattice.calls": n("lattice.validate_lattice"),
        "lattice.validate_lattice.s": s("lattice.validate_lattice"),
    }
    for name in ("as_pair_witness", "lift_multimorphism",
                 "build_context_from_pair", "extract_pair_from_context",
                 "check_pair_conditions", "check_involutive_conditions",
                 "check_morita_context", "build_involutive_context",
                 "check_imprimitivity"):
        out[f"engine.{name}.s"] = s(f"engine.{name}")
    for name in ("quantale.endo_quantale", "quantale.image_subquantale",
                 "modules.check_bimodule", "modules.is_m_regular",
                 "io.read_lattice", "io.write_lattice", "io.write_elem",
                 "cli.main"):
        out[f"{name}.s"] = s(name)
    out["io.bytes_written"] = (c.get("io.write_lattice.bytes", 0)
                               + c.get("io.write_elem.bytes", 0))
    out["trace.residual_s"] = wall_s - root_total
    return out, self_s


# Stage of a span: that of its nearest ancestor-or-self named here.
STAGES = {
    "census.run_census": "census_self",
    "enumeration.enumerate_lattices": "lattices",
    "enumeration.automorphisms": "lattices",
    "census.surjective": "surjectivity",
    "census.multimorphisms": "enumeration",
    "engine.distinct_slices": "separation",
    "engine.conditions_from_tables": "pair_search",
    "engine.involutive_conditions_from_tables": "pair_search",
    "tensor.tensor_product": "tensors",
}
STAGE_ORDER = ("lattices", "enumeration", "surjectivity", "separation",
               "pair_search", "tensors", "contexts", "census_self")


def census_stage_rows(rec, tasks):
    """One row per census task: the counts and seconds of each stage.

    ``tasks`` lists (label, mode, summary) in the order run_census was
    called; each call is one root span ``census.run_census``. Candidate and
    pair counts come from the spans' counters, witnesses and records from
    the summary run_census returns. Spans under a stage's span belong to that
    stage; other spans directly under run_census (witness lifts, contexts,
    re-verification) form the ``contexts`` stage.
    """
    dur, own = rec.self_times()
    roots = [i for i in range(len(rec))
             if rec.parent[i] < 0 and rec.span_name(i) == "census.run_census"]
    if len(roots) != len(tasks):
        raise RuntimeError(f"{len(roots)} census spans for {len(tasks)} tasks")
    root_of = array("i", [-1]) * len(rec)
    stage = [None] * len(rec)
    for i in range(len(rec)):
        p = rec.parent[i]
        root_of[i] = i if p < 0 else root_of[p]
        named = STAGES.get(rec.span_name(i))
        if named is None and p >= 0:
            named = "contexts" if stage[p] == "census_self" else stage[p]
        stage[i] = named
    rows = []
    for (label, mode, summary), root in zip(tasks, roots):
        secs = dict.fromkeys(STAGE_ORDER, 0.0)
        for i in range(root, len(rec)):
            if root_of[i] == root:
                secs[stage[i]] += own[i]
        c = rec.root_counts.get(root, {})
        general = mode == "general"
        rows.append({
            "task": label,
            "enumerated": c.get("census.multimorphisms.yields", 0),
            "surjective": c.get("census.surjective.yields", 0),
            "separated": (c.get("engine.distinct_slices.separated", 0)
                          if general else None),
            "pairs_checked": c.get("engine.conditions_from_tables.checked", 0),
            "witnesses": summary["witnesses"],
            "records": summary["records"],
            "skipped": len(summary["skipped"]),
            "seconds": secs,
            "wall_s": dur[root],
        })
    return rows
