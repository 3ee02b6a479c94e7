"""Exception hierarchy shared by the whole package.

Everything raised on purpose derives from ``StieltjesError`` so callers can
catch library failures without catching programming errors.  Validation
problems (bad arguments, inconsistent configuration) are ``ValueError``
subclasses as well; runtime numerical failures carry enough state to be
reported without re-running the computation.

``_real`` and ``_reals`` are the one reader of real numbers, ``_require_count`` and
``_require_positive`` the one check of a count and of a positive number.  Each refuses a
bool and a string with ``ConfigurationError`` naming the parameter; the readers refuse a
complex, ``None``, NaN, an infinity and an integer beyond the float range as well.
``_points`` is the one reader of the points a query takes, ``_pairs`` of a list of pairs.
The two window checks are ``Derivator._require_inside`` for points and
``measure._check_interval`` for an interval; ``_within``, behind the first, also bounds the
points of an indefinite integral, a transform table and a Bihari bound.  A refusal shows
the refused value through ``_shown``, at most 60 characters.
"""

import math
from numbers import Integral, Real

import numpy as np


class StieltjesError(Exception):
    """Base class for all errors raised by this package."""


class WindowDomainError(StieltjesError, ValueError):
    """A query point or interval lies outside the domain an object is defined on."""


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


def _shown(value, width=60):
    """``repr(value)`` cut to ``width`` characters, so a refusal never prints a huge value whole."""
    try:
        text = repr(value)
    except ValueError:  # Python prints no integer of more than 4,300 digits
        return f"<{type(value).__name__} too large to print>"
    return text if len(text) <= width else text[:width - 3] + "..."


def _require_count(name, value, least=1):
    """Raise ``ConfigurationError`` unless ``value`` is an integer >= ``least``, not a bool."""
    if isinstance(value, bool) or not (isinstance(value, Integral) and value >= least):
        raise ConfigurationError(f"{name} must be an integer >= {least}, got {_shown(value)}")


def _real(name, value, positive=False):
    """``value`` as a float if it is a finite real number (and > 0 with ``positive``), not a
    bool; else ``ConfigurationError`` naming ``name``.  A float (numpy's float64 included)
    takes one type test."""
    if isinstance(value, float) or isinstance(value, Real) and not isinstance(value, bool):
        try:
            v = float(value)
        except OverflowError:  # an integer beyond the float range
            v = math.inf
        if math.isfinite(v) and (v > 0 or not positive):
            return v
    must = "positive and finite" if positive else "a finite real number"
    raise ConfigurationError(f"{name} must be {must}, got {_shown(value)}")


def _reals(name, values):
    """``values``, an iterable of finite real numbers but not a string, as a 1-d float array;
    entry i is read with ``_real`` as ``name[i]``, so a nested list is refused."""
    try:
        if not isinstance(values, (str, bytes)):
            return np.array([_real(f"{name}[{i}]", v) for i, v in enumerate(values)], dtype=float)
    except TypeError:  # values cannot be iterated
        pass
    raise ConfigurationError(f"{name} must be a sequence of finite real numbers, got {_shown(values)}")


def _points(name, t):
    """A point ``t`` as a float, or an array-like of points as a float array of its shape: a
    numpy array of a real dtype takes one finiteness test, any other array-like is read entry
    by entry with ``_real`` as ``name[i]`` (``name[i][j]`` in two dimensions)."""
    if isinstance(t, float) or not isinstance(t, (list, tuple, np.ndarray)):  # a float first: fast
        return _real(name, t)
    if isinstance(t, np.ndarray) and t.dtype.kind in "fiu" and np.isfinite(t).all():
        return t.astype(float, copy=False) if t.ndim else float(t)
    try:
        entries = np.asarray(t, dtype=object)
    except ValueError:  # sub-arrays of unequal shapes: refused whole
        return _real(name, t)
    points = np.empty(entries.shape)
    for index, v in np.ndenumerate(entries):
        points[index] = _real(name + "".join(f"[{i}]" for i in index), v)
    return points


def _within(name, t, lo, hi, domain, closed=True):
    """``t``, read by ``_points``, if every point lies in [lo, hi] (in [lo, hi) unless
    ``closed``); else ``WindowDomainError`` naming ``name`` and the ``domain``."""
    t = _points(name, t)
    inside = (t >= lo) & (t <= hi if closed else t < hi)  # a bool for a float t
    if not (inside if type(inside) is bool else inside.all()):
        offender = np.atleast_1d(t)[~np.atleast_1d(inside)][0]
        raise WindowDomainError(f"{name}={offender} outside {domain} [{lo}, {hi}{']' if closed else ')'}")
    return t


def _pairs(name, items):
    """``items``, an iterable of pairs of finite real numbers, as an (n, 2) float array; pair
    i is read with ``_reals`` as ``name[i]``."""
    try:
        pairs = [_reals(f"{name}[{i}]", pair) for i, pair in enumerate(items)]
    except TypeError:  # items cannot be iterated
        raise ConfigurationError(f"{name} must be an iterable of pairs, got {_shown(items)}") from None
    for i, pair in enumerate(pairs):
        if pair.size != 2:
            raise ConfigurationError(f"{name}[{i}] must be a pair, got {_shown(pair.tolist())}")
    return np.reshape(pairs, (-1, 2))


def _require_positive(name, value):
    """``value``, a finite real number > 0 and not a bool, as a float; else ``ConfigurationError``."""
    return _real(name, value, positive=True)
