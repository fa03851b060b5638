"""Exception types and the Verdict/report vocabulary shared by all checkers."""

import functools
from dataclasses import dataclass, field


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


class NoTop(MoritaError):
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


class ConditionsFailed(MoritaError):
    """A witness failed its precondition report; carries the report."""

    def __init__(self, report):
        super().__init__("conditions failed:\n" + report.summary())
        self.report = report


class ContextInvalid(MoritaError):
    """A Morita context failed validation; carries the report."""

    def __init__(self, report):
        super().__init__("context invalid:\n" + report.summary())
        self.report = report


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


@functools.lru_cache(maxsize=256)
def _passed(law):
    'One shared PASS verdict per law name; a Verdict is immutable.'
    return Verdict(True, law=law)


@dataclass
class ConditionReport:
    """Ordered collection of named verdicts; the unit of diagnostic output."""

    checks: dict = field(default_factory=dict)

    def add(self, name, verdict):
        if isinstance(verdict, ConditionReport):
            # fold a sub-report into one verdict keyed by the outer name
            bad = verdict.failures()
            verdict = Verdict(not bad, law=name,
                              witness=tuple(v.law for v in bad[:3]),
                              detail=str(bad[0]) if bad else
                              f"all {len(verdict.checks)} laws hold")
        if verdict is PASS:
            verdict = _passed(name)
        elif not verdict.law:
            verdict = Verdict(verdict.ok, law=name, witness=verdict.witness,
                              detail=verdict.detail)
        self.checks[name] = verdict
        return verdict

    @property
    def ok(self):
        return all(v.ok for v in self.checks.values())

    def __bool__(self):
        return self.ok

    def failures(self):
        return [v for v in self.checks.values() if not v.ok]

    def __getitem__(self, name):
        return self.checks[name]

    def __contains__(self, name):
        return name in self.checks

    def summary(self):
        return "\n".join(str(v) for v in self.checks.values())

    def digest(self):
        """Compact machine-readable form: check name -> bool."""
        return {name: v.ok for name, v in self.checks.items()}
