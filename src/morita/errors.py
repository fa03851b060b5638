"""Exception types and the Verdict/report vocabulary shared by all checkers.

Two checks recur across the package and are written once here:
``table_law``, that two index tables agree, and ``slice_collision``, the
search for two equal slices of a table along one slot.
"""

import functools
from dataclasses import dataclass

import numpy as np


class MoritaError(Exception):
    """Base class for every error raised by this package."""


class FormatError(MoritaError):
    """Malformed input file or raw description."""


class NotAPartialOrder(MoritaError):
    """Relation fails reflexivity, antisymmetry, or transitivity."""


class MissingJoin(MoritaError):
    """A pair of elements has no least upper bound."""


class NoBottom(MoritaError):
    pass


class DomainMismatch(MoritaError):
    """A map was applied to a lattice it was not defined on."""


class ShapeMismatch(MoritaError):
    """Tables or factor lists have inconsistent shapes."""


class ResourceLimit(MoritaError):
    """A configured enumeration or size cap was exceeded."""


class NotAMultimorphism(MoritaError):
    """A tuple-indexed map fails slotwise join preservation."""


class NotCompositionClosed(MoritaError):
    """An operator family's image is not closed under composition."""

    def __init__(self, msg, witness=None):
        super().__init__(msg)
        self.witness = witness


class MissingInvolution(MoritaError):
    """An involutive construction was asked of a quantale without a star."""


class _ReportError(MoritaError):
    'An error that carries a failing report; the message is its summary.'

    prefix = ""

    def __init__(self, report):
        super().__init__(self.prefix + report.summary())
        self.report = report

    def __reduce__(self):
        # args hold the message, but unpickling calls __init__ with a report
        return type(self), (self.report,)


class ConditionsFailed(_ReportError):
    """A witness failed its precondition report; carries the report."""

    prefix = "conditions failed:\n"


class ContextInvalid(_ReportError):
    """A Morita context failed validation; carries the report."""

    prefix = "context invalid:\n"


class NotWellDefined(MoritaError):
    """A quotient-level definition gave different values on one class.

    For inputs that passed the engine's condition checks this cannot happen;
    raising it signals a checker-integrity problem, not a user error.
    """


class StarNotWellDefined(NotWellDefined):
    """The derived involution collided on an operator class."""


@dataclass(frozen=True)
class Verdict:
    """Outcome of a single law check, with a named counterexample on failure."""

    ok: bool
    law: str = ""
    witness: tuple = ()
    detail: str = ""

    def __bool__(self):
        return self.ok

    def __str__(self):
        if self.ok:
            return f"PASS {self.law}" if self.law else "PASS"
        parts = [f"FAIL {self.law}" if self.law else "FAIL"]
        if self.witness:
            parts.append("at (" + ", ".join(str(w) for w in self.witness) + ")")
        if self.detail:
            parts.append("- " + self.detail)
        return " ".join(parts)


PASS = Verdict(True)


def failure(law, witness=(), detail=""):
    return Verdict(False, law=law, witness=tuple(witness), detail=detail)


def table_law(law, lhs, rhs, axis_names, value_names, detail="{} vs {}"):
    """Verdict that the index tables ``lhs`` and ``rhs`` agree everywhere.

    A failure is named at the first cell in C order where they differ: the
    witness takes axis k's name from ``axis_names[k]``, and ``detail`` is
    formatted with the names of the two values there.
    """
    bad = lhs != rhs
    if not bad.any():
        return PASS
    idx = tuple(map(int, np.argwhere(bad)[0]))
    return failure(law, tuple(names[i] for names, i in zip(axis_names, idx)),
                   detail.format(value_names[lhs[idx]], value_names[rhs[idx]]))


def slice_collision(table, axis):
    """The first (u, v), u < v, whose slices at this slot are equal, or None.

    One C-order copy with the slot first holds the slices as equal-length
    runs of its bytes."""
    n = table.shape[axis]
    raw = table.swapaxes(0, axis).tobytes()
    size = len(raw) // max(n, 1)
    seen = {}
    for v in range(n):
        u = seen.setdefault(raw[v * size:(v + 1) * size], v)
        if u != v:
            return u, v
    return None


@functools.lru_cache(maxsize=256)
def _passed(law):
    'One shared PASS verdict per law name; a Verdict is immutable.'
    return Verdict(True, law=law)


class ConditionReport:
    """Ordered collection of named verdicts; the unit of diagnostic output.

    A report made by ``failing`` knows at once that it fails and builds its
    verdicts on first read of any of them.
    """

    def __init__(self, checks=None):
        self._checks = {} if checks is None else checks
        self._build = None

    @classmethod
    def failing(cls, build, *args):
        """A failing report whose verdicts are the (name, verdict) pairs that
        ``build(*args)`` returns, made on first read. That read raises
        MoritaError if none of them fails: the outcome was decided wrongly."""
        rep = cls()
        rep._build = build, args
        return rep

    @classmethod
    def passing(cls, laws):
        'A report in which each of these laws passes.'
        return cls({law: _passed(law) for law in laws})

    @property
    def checks(self):
        if self._build is not None:
            build, args = self._build
            built = dict(build(*args))
            if all(v.ok for v in built.values()):
                raise MoritaError("internal: a report decided as failing "
                                  "built no failing verdict")
            self._build = None
            for name, verdict in built.items():
                self.add(name, verdict)
        return self._checks

    def __eq__(self, other):
        return (isinstance(other, ConditionReport)
                and self.checks == other.checks)

    __hash__ = None

    def __repr__(self):
        return f"ConditionReport(checks={self.checks!r})"

    def add(self, name, verdict):
        if verdict is PASS:
            verdict = _passed(name)
        elif not verdict.law:
            verdict = Verdict(verdict.ok, law=name, witness=verdict.witness,
                              detail=verdict.detail)
        self.checks[name] = verdict
        return verdict

    @property
    def ok(self):
        return self._build is None and all(v.ok for v in self._checks.values())

    def __bool__(self):
        return self.ok

    def failures(self):
        return [v for v in self.checks.values() if not v.ok]

    def __getitem__(self, name):
        return self.checks[name]

    def __contains__(self, name):
        return name in self.checks

    def summary(self):
        'One line per verdict; one whose law does not name its check is prefixed.'
        return "\n".join(str(v) if v.law.partition(":")[0] == name
                         else f"{name}: {v}" for name, v in self.checks.items())

    def digest(self):
        """Compact machine-readable form: check name -> bool."""
        return {name: v.ok for name, v in self.checks.items()}
