"""Exception hierarchy shared by the whole package.

Everything raised on purpose derives from ``StieltjesError`` so callers can
catch library failures without catching programming errors.  Validation
problems (bad arguments, inconsistent configuration) are ``ValueError``
subclasses as well; runtime numerical failures carry enough state to be
reported without re-running the computation.

``_require_count`` and ``_require_positive`` are the one check of a count and of a positive
parameter: both refuse a bool, as problem files do, and raise ``ConfigurationError``.
"""

import math
from numbers import Integral, Real


class StieltjesError(Exception):
    """Base class for all errors raised by this package."""


class WindowDomainError(StieltjesError, ValueError):
    """A query point or interval lies outside a derivator's working window."""


class ConfigurationError(StieltjesError, ValueError):
    """Inconsistent construction data (window mismatch, bad weights, ...)."""


class IntegrandError(StieltjesError):
    """The integrand produced a non-finite sample.

    ``point`` is the evaluation abscissa that failed.
    """

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class DerivativeUndefinedError(StieltjesError):
    """A Stieltjes derivative was requested where it does not make sense.

    Raised for points in the local-constancy set of the derivator and for
    points where the derivator is numerically flat on every tested scale.
    """


class NoDerivativeError(StieltjesError):
    """One-sided difference quotients disagree beyond the matching tolerance.

    Carries both one-sided estimates so callers can inspect the mismatch.
    """

    def __init__(self, message, left=None, right=None):
        super().__init__(message)
        self.left = left
        self.right = right


class RightLimitError(StieltjesError):
    """Right-limit extrapolation did not converge (the limit may not exist)."""


class BoundInapplicableError(StieltjesError):
    """The Bihari-type bound precondition failed.

    ``required`` holds the value that must stay below ``available`` (the
    estimated upper limit of the transform table).
    """

    def __init__(self, message, required=None, available=None):
        super().__init__(message)
        self.required = required
        self.available = available


class ModulusOverflowError(StieltjesError, OverflowError):
    """Iterated exponentials left double-precision range."""


class SolverError(StieltjesError):
    """Base class for failures inside the IVP solvers."""


class DomainExitError(SolverError):
    """An iterate left the problem's domain ball.

    ``time`` is the first grid time at which the exit was observed.
    """

    def __init__(self, message, time=None, state=None):
        super().__init__(message)
        self.time = time
        self.state = state


class NonConvergenceError(SolverError):
    """Picard iteration hit ``max_iter`` before meeting the tolerance."""

    def __init__(self, message, last_change=None, iterations=None):
        super().__init__(message)
        self.last_change = last_change
        self.iterations = iterations


class NoCertifiedHorizonError(SolverError):
    """No tested horizon satisfied the ball-invariance inequality."""


class ExprError(StieltjesError):
    """Base class for expression language failures."""


class ExprParseError(ExprError):
    """Syntax or validation failure while parsing an expression.

    ``offset`` is the byte offset of the offending token; ``expected``
    lists what would have been accepted there.
    """

    def __init__(self, message, offset, expected=()):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset
        self.expected = tuple(expected)


class ExprDomainError(ExprError):
    """Evaluation hit a domain violation (log of nonpositive, 0/0, ...)."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (subexpression at offset {offset})"
        super().__init__(message)
        self.offset = offset


class ProblemFileError(StieltjesError, ValueError):
    """A problem file failed schema validation; message names the field."""


def _require_count(name, value, least=1):
    """Raise ``ConfigurationError`` unless ``value`` is an integer >= ``least``, not a bool."""
    if isinstance(value, bool) or not (isinstance(value, Integral) and value >= least):
        raise ConfigurationError(f"{name} must be an integer >= {least}, got {value!r}")


def _require_positive(name, value):
    """Raise ``ConfigurationError`` unless ``value`` is a finite positive real, not a bool."""
    if isinstance(value, bool) or not (isinstance(value, Real) and math.isfinite(value) and value > 0):
        raise ConfigurationError(f"{name} must be positive and finite, got {value!r}")
