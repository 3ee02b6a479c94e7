"""Nondecreasing left-continuous derivators on a finite working window.

A *derivator* is the time-like map ``g`` that drives every measure, integral
and derivative in this package.  We represent one finitely:

* a working window ``[L, R]``,
* a continuous part that is piecewise linear with nonnegative slopes over a
  strictly increasing breakpoint grid ``L = b_0 < ... < b_m = R``,
* finitely many jumps ``(d_j, delta_j)`` with ``L < d_j < R`` and
  ``delta_j > 0``.

Left-continuity is structural, never a tolerance: ``g(t)`` collects the jump
at ``d`` only when ``d < t`` strictly, and ``g.eval_right(t) - g.eval(t)``
equals the stored jump exactly at the jump abscissas and zero elsewhere.

``Derivator._pieces`` is the one cut of a derivator into slope pieces: the
cut points and the breakpoints between them, with the slope on each piece.

The classification of a derivator is the pair of its local-constancy set
(maximal open intervals where the slope vanishes and no jump sits) and its
discontinuity set.  A ``Classification`` keeps the sorted ends of its
intervals, and ``Classification._holding`` names the interval that holds
each of many points with two ``searchsorted`` calls: it is the one test of
"t lies in the constancy set" that ``from_classification``, ``classify``,
``stieltjes_derivative`` and ``check_ftc`` use.  ``from_classification``
inverts ``classify`` for maximal classifications, realising a prescribed
pair as a concrete derivator whose continuous part has unit slope off the
constancy set.
"""

import numpy as np

from .errors import ConfigurationError, _pairs, _real, _reals, _require_positive, _shown, _within

__all__ = [
    "Derivator",
    "Classification",
    "sum_derivators",
    "from_classification",
    "classify",
]


def _as_sorted_pairs(jumps):
    """Read a jump specification, an iterable of (point, size) pairs, into sorted point/size arrays."""
    pts, sizes = _pairs("jumps", jumps).T
    order = np.argsort(pts, kind="stable")
    return pts[order], sizes[order]


def _scalar_or_array(out):
    return float(out) if np.isscalar(out) or out.ndim == 0 else out


def _sorted_unique(a):
    """``np.unique`` of a finite 1-d array, by the same sort and neighbour test.

    ``np.unique`` itself imports ``numpy.ma`` (1.2 MB) on its first call under
    numpy >= 2; no solve path of the package loads it.
    """
    s = np.sort(a)
    keep = np.empty(s.shape, dtype=bool)
    keep[:1] = True
    keep[1:] = s[1:] != s[:-1]
    return s[keep]


class Derivator:
    """Finite, validated, immutable representation of a derivator.

    Parameters
    ----------
    window:
        Pair ``(L, R)`` with ``L < R``.
    breakpoints:
        Strictly increasing grid starting at ``L`` and ending at ``R``.
        Defaults to ``[L, R]`` (a single slope segment).
    slopes:
        One nonnegative slope per breakpoint gap.  Defaults to slope 1
        everywhere (the identity continuous part).
    jumps:
        Iterable of ``(point, size)`` pairs, points strictly inside the
        window, sizes positive.  Points must be distinct.
    anchor:
        The value ``g(L)``.

    Every number is read by ``errors._real``: a bool, a string, a nested list, NaN, an
    infinity or an integer beyond the float range raises ``ConfigurationError``.
    """

    __slots__ = (
        "window",
        "breakpoints",
        "slopes",
        "jump_points",
        "jump_sizes",
        "anchor",
        "_cont_at_bp",
        "_cum_jumps",
        "_classification",
    )

    def __init__(self, window, breakpoints=None, slopes=None, jumps=(), anchor=0.0):
        bounds = _reals("window", window)
        if not (bounds.size == 2 and bounds[0] < bounds[1]):
            raise ConfigurationError(f"window must be a finite pair (L, R) with L < R, got {_shown(window)}")
        left, right = self.window = tuple(bounds.tolist())

        bp = bounds if breakpoints is None else _reals("breakpoints", breakpoints)
        if bp.size < 2 or bp[0] != left or bp[-1] != right:
            raise ConfigurationError("breakpoints must start at L and end at R")
        if not np.all(np.diff(bp) > 0):
            raise ConfigurationError("breakpoints must be strictly increasing")

        sl = np.ones(bp.size - 1) if slopes is None else _reals("slopes", slopes)
        if sl.shape != (bp.size - 1,):
            raise ConfigurationError(f"expected {bp.size - 1} slopes, got shape {sl.shape}")
        if np.any(sl < 0):
            raise ConfigurationError("slopes must be nonnegative")

        pts, sizes = _as_sorted_pairs(jumps)
        if pts.size:
            if not np.all(np.diff(pts) > 0):
                raise ConfigurationError("jump points must be distinct")
            if pts[0] <= left or pts[-1] >= right:
                raise ConfigurationError("jump points must lie strictly inside the window")
            if not np.all(sizes > 0):
                raise ConfigurationError("jump sizes must be positive")

        self.breakpoints = bp
        self.slopes = sl
        self.jump_points = pts
        self.jump_sizes = sizes
        self.anchor = _real("anchor", anchor)
        self._classification = None  # filled by classify() on first use

        # Cumulative value of the continuous part at each breakpoint and the
        # prefix sums of the jumps; both make eval O(log m).
        cont = np.concatenate(([0.0], np.cumsum(sl * np.diff(bp)))) + self.anchor
        self._cont_at_bp = cont
        self._cum_jumps = np.concatenate(([0.0], np.cumsum(sizes)))

        for name in ("breakpoints", "slopes", "jump_points", "jump_sizes",
                     "_cont_at_bp", "_cum_jumps"):
            getattr(self, name).flags.writeable = False

    # -- construction helpers -------------------------------------------------

    @classmethod
    def identity(cls, window):
        """The derivator g(t) = t on the given window."""
        return cls(window, anchor=cls(window).window[0])

    @classmethod
    def constant(cls, window, value=0.0):
        """A derivator that is constant (all slopes zero, no jumps)."""
        return cls(window, slopes=(0.0,), anchor=value)

    def with_jumps(self, jumps):
        """Return a copy with additional jumps; sizes at shared points add up."""
        merged = dict(self.jumps)
        pts, sizes = _as_sorted_pairs(jumps)
        for d, v in zip(pts.tolist(), sizes.tolist()):
            merged[d] = merged.get(d, 0.0) + v
        return Derivator(
            self.window,
            breakpoints=self.breakpoints,
            slopes=self.slopes,
            jumps=sorted(merged.items()),
            anchor=self.anchor,
        )

    # -- basic queries ---------------------------------------------------------

    @property
    def jumps(self):
        """Sorted list of (point, size) pairs."""
        return list(zip(self.jump_points.tolist(), self.jump_sizes.tolist()))

    def _require_inside(self, name, t, include_right):
        """``t``, read by ``errors._within``, in the window [L, R] ([L, R) without ``include_right``)."""
        return _within(name, t, *self.window, "the working window", include_right)

    def _segment(self, t):
        """Index of the slope segment holding each t of an array in [L, R]; R belongs to the last one."""
        k = np.asarray(np.searchsorted(self.breakpoints, t, side="right"))  # 0-d for a scalar t
        k -= 1  # in place: one index array is built
        return np.minimum(k, self.slopes.size - 1, out=k)

    def _pieces(self, cuts):
        """The points of ``cuts``, ascending, not empty, repeats allowed, and the breakpoints
        strictly between the first and the last, sorted unique, with each piece's slope."""
        bp = self.breakpoints
        edges = _sorted_unique(np.concatenate((cuts, bp[(bp > cuts[0]) & (bp < cuts[-1])])))
        return edges, self.slopes[self._segment(edges[:-1])]

    def _continuous_at(self, t):
        k = self._segment(t)
        value = t - self.breakpoints[k]  # in place from here on: t may be a whole grid
        value *= self.slopes[k]
        value += self._cont_at_bp[k]
        return value

    def eval(self, t):
        """g(t) for t in [L, R]; scalars and arrays both work.

        Jumps located at d contribute only for t > d (left continuity).
        """
        t = self._require_inside("t", t, include_right=True)
        atoms = self._cum_jumps[np.searchsorted(self.jump_points, t, side="left")]
        return _scalar_or_array(self._continuous_at(t) + atoms)

    __call__ = eval

    def continuous(self, t):
        """The continuous part alone: anchor plus the slope integral."""
        return _scalar_or_array(self._continuous_at(self._require_inside("t", t, include_right=True)))

    def jump(self, t):
        """The jump size at t (exact match against stored points), else 0."""
        t = self._require_inside("t", t, include_right=False)
        idx = np.searchsorted(self.jump_points, t, side="left")
        hit = np.append(self.jump_points, np.inf)[idx] == t  # t is finite
        return _scalar_or_array(np.where(hit, np.append(self.jump_sizes, 0.0)[idx], 0.0))

    def eval_right(self, t):
        """The right limit g(t+), i.e. eval(t) plus the jump at t."""
        return self.eval(self._require_inside("t", t, include_right=False)) + self.jump(t)

    # -- algebra ---------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Derivator):
            return NotImplemented
        return sum_derivators([self, other])

    def __repr__(self):
        return (
            f"Derivator(window={self.window}, segments={self.slopes.size}, "
            f"jumps={self.jump_points.size}, anchor={self.anchor})"
        )

    # -- serialization (problem file format) ------------------------------------

    def to_dict(self):
        return {
            "window": list(self.window),
            "anchor": self.anchor,
            "breakpoints": self.breakpoints.tolist(),
            "slopes": self.slopes.tolist(),
            "jumps": [[d, v] for d, v in self.jumps],
        }

    @classmethod
    def from_dict(cls, data):
        return cls(
            data["window"],
            breakpoints=data.get("breakpoints"),
            slopes=data.get("slopes"),
            jumps=data.get("jumps", ()),
            anchor=data.get("anchor", 0.0),
        )


class Classification:
    """The pair (constancy intervals, discontinuity points) of a derivator.

    ``constancy`` holds disjoint nonempty open intervals; ``discontinuities``
    holds distinct points, none inside a constancy interval.  The point order
    is preserved because it fixes the default jump weights assigned by
    ``from_classification`` (the n-th enumerated point gets weight ``2**-n``).
    Equality is set-like: interval sets and point sets are compared, not
    enumeration orders.
    """

    __slots__ = ("constancy", "discontinuities", "_bounds")

    def __init__(self, constancy=(), discontinuities=()):
        ivals = [tuple(pair) for pair in _pairs("constancy", constancy).tolist()]
        for a, b in ivals:
            if not a < b:
                raise ConfigurationError(f"empty constancy interval ({a}, {b})")
        ivals_sorted = sorted(ivals)
        for (a1, b1), (a2, b2) in zip(ivals_sorted, ivals_sorted[1:]):
            if a2 < b1:
                raise ConfigurationError(f"constancy intervals ({a1}, {b1}) and ({a2}, {b2}) overlap")
        self.constancy = tuple(ivals)
        self._bounds = np.array(ivals_sorted, dtype=float).reshape(-1, 2).T
        pts = _reals("discontinuities", discontinuities).tolist()
        if len(set(pts)) != len(pts):
            raise ConfigurationError("discontinuity points must be distinct")
        for d, k in zip(pts, self._holding(pts).tolist()):
            if k >= 0:
                a, b = self._bounds[:, k].tolist()
                raise ConfigurationError(f"discontinuity {d} lies inside constancy interval ({a}, {b})")
        self.discontinuities = tuple(pts)

    def _holding(self, ts):
        """For each t, the index in ``sorted_constancy()`` of the interval that
        holds it, or -1: more intervals start below t than end at or below it."""
        lo, hi = self._bounds
        started = np.searchsorted(lo, ts, side="left")
        ended = np.searchsorted(hi, ts, side="right")
        return np.where(started > ended, ended, -1)

    def sorted_constancy(self):
        return tuple(sorted(self.constancy))

    def __eq__(self, other):
        if not isinstance(other, Classification):
            return NotImplemented
        return (
            self.sorted_constancy() == other.sorted_constancy()
            and frozenset(self.discontinuities) == frozenset(other.discontinuities)
        )

    def __hash__(self):
        return hash((self.sorted_constancy(), frozenset(self.discontinuities)))

    def __repr__(self):
        return f"Classification(constancy={list(self.constancy)}, discontinuities={list(self.discontinuities)})"


def _shared_window(gs):
    """``gs``, an iterable of derivators, as a nonempty list, and the window they all share;
    else ``ConfigurationError``."""
    try:
        gs = list(gs)
    except TypeError:  # gs cannot be iterated
        raise ConfigurationError(f"expected an iterable of derivators, got {_shown(gs)}") from None
    if not gs:
        raise ConfigurationError("need at least one derivator")
    for i, g in enumerate(gs):
        if not isinstance(g, Derivator):
            raise ConfigurationError(f"derivators[{i}] is not a Derivator, got {_shown(g)}")
        if g.window != gs[0].window:
            raise ConfigurationError(f"window mismatch: {gs[0].window} != {g.window}")
    return gs, gs[0].window


def sum_derivators(gs):
    """Sum a nonempty family of derivators sharing one window.

    The result evaluates to the exact sum of the summands at every point:
    breakpoints are merged with slopes added per segment, jumps at shared
    points (exact coordinate equality) are merged with sizes added, and the
    anchor is the sum of anchors.
    """
    gs, window = _shared_window(gs)

    bp = _sorted_unique(np.concatenate([g.breakpoints for g in gs]))
    slopes = np.zeros(bp.size - 1)
    for g in gs:
        slopes += g.slopes[g._segment(bp[:-1])]

    merged = {}
    for g in gs:
        for d, v in zip(g.jump_points, g.jump_sizes):
            merged[d] = merged.get(d, 0.0) + v

    return Derivator(
        window,
        breakpoints=bp,
        slopes=slopes,
        jumps=sorted(merged.items()),
        anchor=sum(g.anchor for g in gs),
    )


def from_classification(classification, window, weights=None):
    """Build the canonical derivator with a prescribed classification.

    The continuous part has slope 0 exactly on the constancy intervals and
    slope 1 elsewhere; the n-th enumerated discontinuity point carries jump
    ``weights[n]`` (default ``2**-(n+1)``).  When the window contains 0 the
    anchor is chosen so that the continuous part at t equals the signed
    Lebesgue measure of the part of [0, t] off the constancy set; otherwise
    g(L) = 0.  The derivator refuses a discontinuity that is not inside (L, R).
    """
    left, right = Derivator(window).window
    for a, b in classification.constancy:
        if a < left or b > right:
            raise ConfigurationError(f"constancy interval ({a}, {b}) not inside the window {(left, right)}")
    pts = classification.discontinuities
    if weights is None:
        weights = [2.0 ** -(n + 1) for n in range(len(pts))]
    weights = [_require_positive("jump weight", w) for w in weights]
    if len(weights) != len(pts):
        raise ConfigurationError(f"{len(pts)} discontinuities but {len(weights)} weights")

    bp = _sorted_unique(np.concatenate(([left, right], *classification._bounds)))
    mids = (bp[:-1] + bp[1:]) / 2.0
    slopes = np.where(classification._holding(mids) >= 0, 0.0, 1.0)

    if left <= 0.0 <= right:
        # anchor = -(Lebesgue measure of [L, 0] minus its constancy part)
        flat_below = sum(max(0.0, min(b, 0.0) - max(a, left))
                         for a, b in classification.sorted_constancy())
        anchor = -((0.0 - left) - flat_below)
    else:
        anchor = 0.0

    return Derivator(
        (left, right),
        breakpoints=bp,
        slopes=slopes,
        jumps=zip(pts, weights),
        anchor=anchor,
    )


def classify(g):
    """Extract the (constancy, discontinuity) classification of a derivator.

    Constancy intervals are the maximal open subintervals of (L, R) where the
    slope is identically zero, split at interior jump points; slope zero is
    an exact comparison, which the piecewise-linear representation makes
    meaningful.  Discontinuities are the stored jump points in ascending
    order.  The result is computed on the first call and kept on ``g``.
    """
    if g._classification is None:
        g._classification = _classify(g)
    return g._classification


def _classify(g):
    # the runs of zero slope, each split at the jumps strictly inside it
    flat = np.concatenate(([False], g.slopes == 0.0, [False]))
    ends = g.breakpoints[np.flatnonzero(flat[1:] != flat[:-1])]
    runs = Classification(zip(ends[0::2], ends[1::2]))
    cuts = g.jump_points[runs._holding(g.jump_points) >= 0]
    return Classification(
        constancy=zip(np.sort(np.concatenate((ends[0::2], cuts))).tolist(),
                      np.sort(np.concatenate((cuts, ends[1::2]))).tolist()),
        discontinuities=g.jump_points.tolist(),
    )
