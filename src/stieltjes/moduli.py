"""Osgood moduli, the iterated-logarithm family, and Bihari-type bounds.

A *modulus* is a nondecreasing continuous map ``omega`` on ``[0, inf)`` with
``omega(0) = 0`` and ``omega(s) > 0`` for ``s > 0``.  It satisfies the
Osgood condition when ``integral of 1/omega over (0, u0]`` diverges; under
that condition a modulus-of-continuity bound on the right-hand side forces
uniqueness of solutions.  The divergence of an improper integral is not
finitely decidable, so ``osgood_check`` classifies the trend of the partial
integrals over twelve decades and owns an INCONCLUSIVE verdict.

The family ``omega_k`` multiplies ``t`` by iterated logarithms of ``1/t``
and then plateaus; every member is non-Lipschitz at 0 (its derivative blows
up) but still Osgood, which is what makes it a useful stress test for
uniqueness machinery.  ``e_k`` denotes the k-fold iterated exponential of 1;
``e_4`` already overflows doubles, so k is effectively capped at 3.

Each ``OsgoodModulus`` keeps one table of the integrals of 1/omega over the
cells ``[10^(j/32), 10^((j+1)/32)]``, which ``osgood_check`` sums by decade
and ``OmegaTransform`` views: ``Omega(r) = integral from u0 to r of
1/omega``, the increasing transform behind the Bihari inequality: any
function that satisfies it is dominated by ``Omega^{-1}(Omega(kappa) + h(t) - h(a))``.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    BoundInapplicableError,
    ConfigurationError,
    IntegrandError,
    ModulusOverflowError,
    _points,
    _real,
    _require_count,
    _require_positive,
    _within,
)
from .measure import QuadratureConfig, _gl_sums, _sample_finite

__all__ = [
    "OsgoodModulus",
    "exp_iter",
    "log_iter",
    "omega_k",
    "omega_k_modulus",
    "osgood_check",
    "OsgoodReport",
    "OmegaTransform",
    "bihari_bound",
    "BihariBound",
]

# OmegaTransform.inverse stops a bisection when its bracket in log r is
# narrower than _BISECT_TOL * (1 + |log r|), or after _BISECT_STEPS halvings
_BISECT_TOL = 1e-15
_BISECT_STEPS = 100
_CELLS_PER_DECADE = 32  # at 24, omega_k(1)'s kink at 1/e leaves Omega 3.6e-6 off its closed form
_CELL_RULE = QuadratureConfig(order=16, panels=2)
_ROUNDING_ULPS = 8  # a sampled inequality fails beyond this many ulps of the values compared


def exp_iter(k, t):
    """The k-fold iterated exponential; exp_iter(0, t) = t."""
    _require_count("k", k, least=0)
    v = t = _real("t", t)
    for i in range(k):
        try:
            v = math.exp(v)
        except OverflowError:
            v = math.inf
        if v == math.inf:  # raised outside the handler, so that it carries no context
            raise ModulusOverflowError(f"exp_iter({k}, {t}) overflows double precision at stage {i + 1}")
    return v


def log_iter(k, t):
    """The k-fold iterated logarithm; requires t > exp_iter(k-1, 0)."""
    _require_count("k", k)
    t = _real("t", t)
    if not t > exp_iter(k - 1, 0.0):
        raise ConfigurationError(f"log_iter({k}, t) needs t > {exp_iter(k - 1, 0.0)}, got t={t}")
    v = t
    for _ in range(k):
        v = math.log(v)
    return v


@lru_cache(maxsize=None, typed=True)  # typed: True, which equals 1, is refused
def _omega_k_constants(k):
    """``(1/e_k, plateau)`` of ``omega_k``, computed once per k."""
    _require_count("k", k)
    ek = exp_iter(k, 1.0)  # raises ModulusOverflowError for k >= 4
    prod = 1.0
    for j in range(1, k + 1):
        prod *= exp_iter(j, 1.0)
    return 1.0 / ek, prod / (ek * ek)


def _omega_k_branch(k, t):
    """``t * prod_j log_iter(j, 1/t)`` for ``0 < t < 1/e_k``, a float or an array.

    A float goes through the same numpy ``log`` as an array, so both give the
    same bits."""
    inner = -np.log(t)  # log(1/t); 1/t itself overflows below about 5.6e-309
    acc = t * inner
    for _ in range(k - 1):
        inner = np.log(inner)
        acc *= inner
    return acc


def _omega_k_array(k, t):
    """``omega_k(k, t)`` on a float array, or ``None`` unless every t is finite and >= 0."""
    cut, plateau = _omega_k_constants(k)
    if not ((t >= 0.0) & (t < math.inf)).all():  # NaN fails both
        return None
    inside = (t > 0.0) & (t < cut)
    # the points outside take cut / 2, where every logarithm is finite and positive
    branch = _omega_k_branch(k, np.where(inside, t, 0.5 * cut))
    return np.where(inside, branch, np.where(t > 0.0, plateau, 0.0))


_OMEGA_K_DOMAIN = "omega_k is defined for finite t >= 0"


def omega_k(k, t):
    """The k-th iterated-logarithm modulus; accepts scalars and arrays.

    Piecewise: 0 at 0, ``t * prod_j log_iter(j, 1/t)`` for ``0 < t < 1/e_k``
    and the constant plateau value from ``t = 1/e_k`` on.  Continuous at the
    branch point by construction.  A point (``errors._points`` reads t) takes
    a scalar branch that gives the bits of the array path.
    """
    cut, plateau = _omega_k_constants(k)
    t = _points("t", t)
    if type(t) is float and t >= 0.0:  # a negative one takes the array path, which refuses it
        if 0.0 < t < cut:
            return float(_omega_k_branch(k, t))
        return plateau if t > 0.0 else 0.0
    out = _omega_k_array(k, np.asarray(t))
    if out is None:
        raise ConfigurationError(_OMEGA_K_DOMAIN)
    return out


@dataclass(frozen=True)
class OsgoodModulus:
    """A modulus with a name and an optional prior about its Osgood status.

    ``batch(ss)`` forwards to ``evaluator.batch`` and returns ``None`` when
    the evaluator has none, so that callers take the scalar path.  ``_cells``
    is its table of integrals of 1/omega, built on first use and kept.
    """

    evaluator: object
    name: str = "modulus"
    known_osgood: bool | None = None

    def __call__(self, s):
        return self.evaluator(s)

    def batch(self, ss):
        batch = getattr(self.evaluator, "batch", None)
        return None if batch is None else batch(ss)

    @cached_property
    def _cells(self):
        return _CellTable(self)


@dataclass(frozen=True)
class _OmegaK:
    """``s -> omega_k(k, s)``, batched over arrays of finite ``s >= 0``."""

    k: int

    def __call__(self, s):
        return omega_k(self.k, s)

    def batch(self, ss):
        # None for a sample omega_k refuses: the scalar path raises its ConfigurationError
        return _omega_k_array(self.k, np.asarray(ss, dtype=float))


def omega_k_modulus(k):
    """``omega_k(k, .)`` as a modulus known to be Osgood.  A k that is not an integer >= 1,
    a bool included, raises ``ConfigurationError``, and k >= 4 ``ModulusOverflowError``."""
    _require_count("k", k)  # before the cache of constants, which needs a hashable k
    _omega_k_constants(k)
    return OsgoodModulus(evaluator=_OmegaK(k), name=f"omega_k({k})", known_osgood=True)


def _as_modulus(omega):
    return omega if isinstance(omega, OsgoodModulus) else OsgoodModulus(evaluator=omega)


def _reciprocal_sample(omega, ss):
    """``s / omega(s)`` and ``omega(s)`` at every s; a modulus value <= 0 or not finite raises."""
    def refuse(v, q):
        return IntegrandError(f"modulus returned {v} at s={ss[q]}", point=ss[q])

    ws = _sample_finite(omega, ss, refuse)
    nonpositive = np.flatnonzero(ws <= 0.0)
    if nonpositive.size:
        raise refuse(ws[nonpositive[0]], nonpositive[0])
    with np.errstate(over="ignore"):  # a tiny omega overflows the quotient: raised below
        vals = ss / ws
    if not np.all(np.isfinite(vals)):
        raise IntegrandError("non-finite reciprocal-modulus sample")
    return vals, ws


def _reciprocal_integral(omega, lo, hi):
    """integral of 1/omega(s) ds over each [lo[i], hi[i]], by the cell rule in log s.

    With s = e^u the integrand becomes e^u / omega(e^u), which is smooth for
    every modulus that behaves like s times slowly varying factors.  All
    intervals go through one ``_gl_sums`` call; an empty one gives 0.0.
    """
    def logs(rs):  # math.log: numpy's log can differ from it in the last bit
        return np.fromiter(map(math.log, rs), float, rs.size)

    return _gl_sums(lambda u: _reciprocal_sample(omega, np.exp(u))[0], logs(lo), logs(hi),
                    np.ones(lo.size), _CELL_RULE)


def _edge(j):  # by Python's float power: numpy's can differ in the last bit
    return 10.0 ** (j / _CELLS_PER_DECADE)


def _cell_of(r):  # the cell j with 10^(j/32) <= r < 10^((j+1)/32), for a finite r > 0
    j = math.floor(_CELLS_PER_DECADE * math.log10(r))
    return j - (_edge(j) > r) + (_edge(j + 1) <= r)  # log10 may round across an edge


class _CellTable:
    """The integrals of 1/omega over a run of cells; ``cells(j0, j1)`` extends
    it over cells j0..j1-1 by the cells it lacks and returns their edges and integrals."""

    def __init__(self, modulus):
        self.modulus, self.first, self.integrals = modulus, None, np.empty(0)

    def cells(self, j0, j1):
        first = j0 if self.first is None else self.first
        end = first + self.integrals.size
        lo, hi = min(j0, first), max(j1, end)
        if (lo, hi) != (first, end):
            edges = np.array([_edge(j) for j in range(lo, hi + 1)])
            below = _reciprocal_integral(self.modulus, edges[:first - lo], edges[1:first - lo + 1])
            above = _reciprocal_integral(self.modulus, edges[end - lo:-1], edges[end - lo + 1:])
            self.first, self.edges = lo, edges
            self.integrals = np.concatenate((below, self.integrals, above))
        k = j0 - lo
        return self.edges[k:k + j1 - j0 + 1], self.integrals[k:k + j1 - j0]


@dataclass
class OsgoodReport:
    """Verdict plus the partial-integral trace it was read from."""

    verdict: str  # DIVERGENT | CONVERGENT | INCONCLUSIVE
    u0: float
    epsilons: list[float] = field(default_factory=list)
    partial_integrals: list[float] = field(default_factory=list)  # I(eps_m)
    increments: list[float] = field(default_factory=list)  # I(eps_{m+1}) - I(eps_m)

    def trace_rows(self):
        return list(zip(self.epsilons, self.partial_integrals))


# Decision constants: a divergent tail keeps contributing at least this much
# per decade over the inspection window, a convergent one shrinks by at
# least half per decade, sustained.
_DIV_FLOOR = 1e-3
_CONV_RATIO = 0.5
_N_DECADES = 12
_WINDOW = 6


def osgood_check(omega, u0):
    """Classify the divergence of the reciprocal integral near zero.

    Computes ``I(eps_m)`` for ``eps_m = 10^-m``, ``m = 1..12``, and reads the
    trend of the per-decade increments: DIVERGENT when the last six stay
    above an absolute floor, CONVERGENT when they shrink geometrically
    (sustained ratio below 0.5), INCONCLUSIVE otherwise.  A heuristic by
    necessity; the verdict is evidence, not proof.  ``u0`` must be in
    (0, 1e308], or ``ConfigurationError`` is raised.  ``u0`` shapes only
    the partial integrals, not the verdict: the increments are the integrals
    over the decades [10^-(m+1), 10^-m], m = 1..11, whatever ``u0`` is, each
    the ``math.fsum`` of its cells; I(eps_1) adds one piece, up to u0.
    """
    omega = _as_modulus(omega)
    u0 = _real("u0", u0)
    if not 0 < u0 <= 1e308:  # the cell edges end at 10^308.25
        raise ConfigurationError(f"u0 must be in (0, 1e308], got {u0}")

    eps = [10.0 ** -(m + 1) for m in range(_N_DECADES)]
    # cells bottom..top-1 tile [1e-12, 0.1]; u0 lies in cell ju
    bottom, top, ju = -_N_DECADES * _CELLS_PER_DECADE, -_CELLS_PER_DECADE, _cell_of(u0)
    lo = min(bottom, ju)
    edges, cells = omega._cells.cells(lo, max(top, ju))
    decades = cells[bottom - lo:top - lo].reshape(-1, _CELLS_PER_DECADE)[::-1]
    increments = [math.fsum(row) for row in decades.tolist()]
    whole = math.fsum(cells[min(top, ju) - lo:max(top, ju) - lo].tolist())
    piece = float(_reciprocal_integral(omega, edges[ju - lo:ju - lo + 1], np.array([u0]))[0])
    # I(eps_1) is the integral over [0.1, u0]
    partial = np.cumsum([(whole if ju >= top else -whole) + piece] + increments).tolist()

    window = increments[-_WINDOW:]
    ratios = [b / a if a > 0 else math.inf for a, b in zip(window, window[1:])]
    if all(r < _CONV_RATIO for r in ratios):
        verdict = "CONVERGENT"
    elif min(window) >= _DIV_FLOOR:
        verdict = "DIVERGENT"
    else:
        verdict = "INCONCLUSIVE"

    return OsgoodReport(verdict=verdict, u0=u0, epsilons=eps, partial_integrals=partial,
                        increments=increments)


class OmegaTransform:
    """``Omega(r) = integral from u0 to r of 1/omega(s) ds``, a view on the modulus's cells.

    Its nodes are the edges of the cells that cover [r_min, r_max] (default
    u0 * 1e-8 and u0 * 1e8; at most 1e308), its values the running sums of the cells
    shifted so that Omega(u0) = 0.  Between nodes it is the cubic Hermite in
    log r with the exact slopes r / omega(r), capped to keep each cell
    monotone (Fritsch & Carlson 1980), and it is inverted by bisection on it.
    A drop of omega at the nodes beyond 8 ulps raises ``ConfigurationError``.
    """

    def __init__(self, modulus, u0, r_min=None, r_max=None):
        self.modulus = _as_modulus(modulus)
        self.u0 = _real("u0", u0)
        r_min = _real("r_min", r_min) if r_min is not None else self.u0 * 1e-8
        r_max = _real("r_max", r_max) if r_max is not None else self.u0 * 1e8
        if not 0 < r_min < self.u0 < r_max <= 1e308:
            raise ConfigurationError("need 0 < r_min < u0 < r_max <= 1e308")

        first, top = _cell_of(r_min), _cell_of(r_max)
        top += _edge(top) < r_max
        grid, cells = self.modulus._cells.cells(first, top)
        d, ws = _reciprocal_sample(self.modulus, grid)  # d: the exact slopes r / omega(r)
        drops = np.flatnonzero(ws[1:] < ws[:-1] - _ROUNDING_ULPS * np.spacing(ws[:-1]))
        if drops.size:
            q = drops[0]
            raise ConfigurationError(f"{self.modulus.name} must be nondecreasing, but omega("
                                     f"{grid[q]}) = {ws[q]} > omega({grid[q + 1]}) = {ws[q + 1]}")
        anchor = _cell_of(self.u0) - first  # running sums away from the node at or below u0
        below, above = np.cumsum(cells[:anchor][::-1])[::-1], np.cumsum(cells[anchor:])
        values = np.concatenate((-below, [0.0], above))

        self.r_grid = grid
        self._x = np.log(grid)
        # a cell whose pair of slopes has hypot > 3 * secant scales it to that
        h = np.diff(self._x)
        m = np.diff(values) / h
        cap = np.minimum(1.0, 3.0 * m / np.hypot(d[:-1], d[1:]))
        d0, d1 = cap * d[:-1], cap * d[1:]
        self._coef = np.stack(((d0 + d1 - 2.0 * m) / h**2, (3.0 * m - 2.0 * d0 - d1) / h,
                               d0, values[:-1]))
        # Omega(u0) = 0; the Bihari bound, a difference of Omega values, does not see the shift
        shift = float(self._forward(math.log(self.u0)))
        self._coef[3] -= shift
        self.values = values - shift

    def _forward(self, u):
        """The cubic at u = log r (a float or an array) in the cell that holds it."""
        k = np.clip(np.searchsorted(self._x, u, side="right") - 1, 0, self._x.size - 2)
        c, s = self._coef[:, k], u - self._x[k]
        return ((c[0] * s + c[1]) * s + c[2]) * s + c[3]

    @property
    def lower(self):
        """Omega at the bottom of the table (an estimate of the alpha limit)."""
        return float(self.values[0])

    @property
    def upper(self):
        """Omega at the top of the table (the usable estimate of beta)."""
        return float(self.values[-1])

    def omega_of(self, r):
        r = _within("r", _real("r", r), self.r_grid[0], self.r_grid[-1], "the tabulated range")
        return float(self._forward(math.log(r)))

    __call__ = omega_of

    def inverse(self, y):
        """``Omega^{-1}(y)`` for a scalar (a float) or an array of targets.

        Bisection in log r on the monotone table, all targets at once: each
        starts from the grid cell that brackets it, and stops, like
        ``scipy.optimize.brentq`` with ``xtol = rtol = 1e-15``, once its
        bracket is narrower than ``1e-15 * (1 + |log r|)``.
        """
        y = np.asarray(_within("y", y, self.values[0], self.values[-1], "the tabulated range"))
        k = np.searchsorted(self.values, y)
        exact = self.values[k] == y  # y <= values[-1], so k is a valid index
        lo, hi = self._x[np.maximum(k - 1, 0)], self._x[k]
        for _ in range(_BISECT_STEPS):
            mid = 0.5 * (lo + hi)
            live = (hi - lo > _BISECT_TOL * (1.0 + np.abs(mid))) & ~exact
            if not live.any():
                break
            below = self._forward(mid) < y
            lo = np.where(live & below, mid, lo)
            hi = np.where(live & ~below, mid, hi)
        r = np.where(exact, self.r_grid[k], np.exp(0.5 * (lo + hi)))
        return float(r) if r.ndim == 0 else r


@dataclass
class BihariBound:
    """The nondecreasing bound ``t -> Omega^{-1}(Omega(kappa) + h(t) - h(a))``."""

    kappa: float
    h: object  # a nondecreasing map, called as h(t) on a float and on an array
    a: float
    b: float
    transform: OmegaTransform
    omega_kappa: float

    def __call__(self, t):
        """The bound at t, a float, or at every point of an array t."""
        t = _within("t", t, self.a, self.b, "the bound's interval")
        return self.transform.inverse(self.omega_kappa + self.h(t) - self.h(self.a))


def bihari_bound(kappa, h, a, b, transform):
    """Build the Bihari-type bound, checking the growth precondition.

    Requires ``Omega(kappa) + h(b) - h(a)`` to stay below the top of the
    transform table (the computable estimate of the upper limit of Omega);
    otherwise the bound is not applicable and an error carries both numbers.
    A kappa that is not finite and positive raises ``ConfigurationError``.
    """
    kappa = _require_positive("kappa", kappa)
    a, b = _real("a", a), _real("b", b)
    omega_kappa = transform.omega_of(kappa)
    required = omega_kappa + h(b) - h(a)
    if required >= transform.upper:
        raise BoundInapplicableError(
            f"Omega(kappa) + h(b) - h(a) = {required} reaches the estimated "
            f"upper limit {transform.upper} of the transform",
            required=required,
            available=transform.upper,
        )
    return BihariBound(kappa=kappa, h=h, a=a, b=b, transform=transform, omega_kappa=omega_kappa)
