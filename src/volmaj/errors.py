"""Exception hierarchy shared across the package.

Every error raised deliberately by this package derives from VolmajError so
callers can distinguish our diagnostics from genuine bugs.  The CLI maps the
leaf classes onto process exit codes.
"""

from __future__ import annotations


class VolmajError(Exception):
    """Base class for all errors raised by this package."""


class ExprError(VolmajError):
    """Base class for expression parsing and evaluation failures."""


class ExprSyntaxError(ExprError):
    """Malformed expression text.

    offset is the byte position of the first offending character.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"syntax error at byte {offset}: {message}")
        self.offset = offset


class UnknownVariableError(ExprError):
    """An identifier that is neither an allowed variable nor a function."""

    def __init__(self, name: str, offset: int):
        super().__init__(f"syntax error at byte {offset}: unknown variable {name!r}")
        self.name = name
        self.offset = offset


class DomainError(VolmajError):
    """Evaluation left the real domain (log of a nonpositive number, division
    by zero, a NaN produced mid-expression, ...).  Raised eagerly: no quiet
    NaN propagation."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte {offset})"
        super().__init__(message)
        self.offset = offset


class SpecValidationError(VolmajError):
    """A problem or majorant description violates a structural requirement
    (wrong shapes, a singular operator, base point not a root, ...)."""


class NumericError(VolmajError):
    """A numeric routine could not deliver its contract: stalled iteration,
    ambiguous root set, invalid pivot, and similar."""


class CostLimitError(NumericError):
    """A computation was abandoned because its projected cost exceeds the
    configured budget."""


# what evaluating a kernel, an outer map or a majorant function may raise
# when it leaves its domain
EVAL_ERRORS = (DomainError, OverflowError, ValueError, ZeroDivisionError)
