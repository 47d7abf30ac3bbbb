"""Exception types shared across the package."""

from __future__ import annotations


class PreconditionError(ValueError):
    """An algorithm's documented input requirement was violated."""


class IterationBudgetError(PreconditionError):
    """Every budget's refusal: a search would pass its budget on a valid input too large to settle."""


class SgParseError(ValueError):
    """Malformed .sg input.

    Carries the 1-based line number of the offending line when known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class MalformedCertificateError(ValueError):
    """A serialized certificate failed structural validation."""


class InvariantError(RuntimeError):
    """A result failed its check or an invariant broke: a bug, never bad input."""


class MinusK5Detected(Exception):
    """The input contains a component switching-equivalent to all-negative K5.

    No acyclic negation set exists for such a component.  ``vertices`` holds the
    five host vertex ids of the offending component.
    """

    def __init__(self, vertices):
        self.vertices = frozenset(vertices)
        super().__init__(
            "component on vertices %s is switching-equivalent to all-negative K5; "
            "it has no acyclic negation set" % sorted(self.vertices)
        )
