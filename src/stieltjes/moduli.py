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

``OmegaTransform`` tabulates ``Omega(r) = integral from u0 to r of 1/omega``
(a cubic Hermite between nodes, with exact slopes capped to stay monotone),
the increasing transform behind the Bihari inequality: any function that
satisfies it is dominated by ``Omega^{-1}(Omega(kappa) + h(t) - h(a))``.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    BoundInapplicableError,
    ConfigurationError,
    IntegrandError,
    ModulusOverflowError,
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
_RECIPROCAL_ORDER = 16  # Gauss-Legendre nodes per panel of _reciprocal_integral


def exp_iter(k, t):
    """The k-fold iterated exponential; exp_iter(0, t) = t."""
    if k < 0:
        raise ConfigurationError("k must be >= 0")
    v = float(t)
    for i in range(k):
        try:
            v = math.exp(v)
        except OverflowError as exc:
            raise ModulusOverflowError(
                f"exp_iter({k}, {t}) overflows double precision at stage {i + 1}"
            ) from exc
        if not math.isfinite(v):
            raise ModulusOverflowError(
                f"exp_iter({k}, {t}) overflows double precision at stage {i + 1}"
            )
    return v


def log_iter(k, t):
    """The k-fold iterated logarithm; requires t > exp_iter(k-1, 0)."""
    if k < 1:
        raise ConfigurationError("k must be >= 1")
    t = float(t)
    if t <= exp_iter(k - 1, 0.0):
        raise ValueError(
            f"log_iter({k}, t) needs t > {exp_iter(k - 1, 0.0)}, got t={t}"
        )
    v = t
    for _ in range(k):
        v = math.log(v)
    return v


@lru_cache(maxsize=None)
def _omega_k_constants(k):
    """``(1/e_k, plateau)`` of ``omega_k``, computed once per k."""
    if k < 1:
        raise ConfigurationError("k must be >= 1")
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
    branch point by construction.  A Python float (or int) takes a scalar
    branch that gives the bits of the array path.
    """
    cut, plateau = _omega_k_constants(k)
    if isinstance(t, (float, int)):
        t = float(t)
        if not 0.0 <= t < math.inf:
            raise ValueError(_OMEGA_K_DOMAIN)
        if 0.0 < t < cut:
            return float(_omega_k_branch(k, t))
        return plateau if t > 0.0 else 0.0
    out = _omega_k_array(k, np.asarray(t, dtype=float))
    if out is None:
        raise ValueError(_OMEGA_K_DOMAIN)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class OsgoodModulus:
    """A modulus with a name and an optional prior about its Osgood status.

    ``batch(ss)`` forwards to ``evaluator.batch`` and returns ``None`` when
    the evaluator has none, so that callers take the scalar path.
    """

    evaluator: object
    name: str = "modulus"
    known_osgood: bool | None = None

    def __call__(self, s):
        return self.evaluator(s)

    def batch(self, ss):
        batch = getattr(self.evaluator, "batch", None)
        return None if batch is None else batch(ss)

    def validate(self, u0=1.0):
        """Sampled sanity check on 200 points of [1e-12, u0]: omega(0)=0, positive, nondecreasing."""
        if abs(float(self.evaluator(0.0))) > 1e-15:
            raise ConfigurationError(f"{self.name}: omega(0) must be 0")
        grid = np.geomspace(1e-12, max(u0, 1e-12), 200)
        vals = _sample_finite(self, grid, lambda v, q: ConfigurationError(
            f"{self.name}: omega returned {v} at s={grid[q]}"))
        if np.any(vals <= 0):
            raise ConfigurationError(f"{self.name}: omega must be positive for s > 0")
        if np.any(np.diff(vals) < -1e-12 * np.maximum(vals[:-1], 1.0)):
            raise ConfigurationError(f"{self.name}: omega must be nondecreasing")
        return self


@dataclass(frozen=True)
class _OmegaK:
    """``s -> omega_k(k, s)``, batched over arrays of finite ``s >= 0``."""

    k: int

    def __call__(self, s):
        return omega_k(self.k, s)

    def batch(self, ss):
        # None for a sample omega_k refuses: the scalar path raises its ValueError
        return _omega_k_array(self.k, np.asarray(ss, dtype=float))


def omega_k_modulus(k):
    return OsgoodModulus(evaluator=_OmegaK(k), name=f"omega_k({k})", known_osgood=True)


def _as_modulus(omega):
    return omega if isinstance(omega, OsgoodModulus) else OsgoodModulus(evaluator=omega)


def _reciprocal_sample(omega, us):
    """``e^u / omega(e^u)`` at every u; a modulus value <= 0 or not finite raises."""
    ss = np.exp(us)
    ws = _sample_finite(omega, ss, lambda v, q: IntegrandError(
        f"modulus returned {v} at s={ss[q]}", point=ss[q]))
    nonpositive = np.flatnonzero(ws <= 0.0)
    if nonpositive.size:
        q = nonpositive[0]
        raise IntegrandError(f"modulus returned {ws[q]} at s={ss[q]}", point=ss[q])
    with np.errstate(over="ignore"):  # a tiny omega overflows the quotient: raised below
        vals = ss / ws
    if not np.all(np.isfinite(vals)):
        raise IntegrandError("non-finite reciprocal-modulus sample")
    return vals


def _reciprocal_integral(omega, lo, hi, panels=16):
    """integral of 1/omega(s) ds over each [lo[i], hi[i]], via the log substitution.

    With s = e^u the integrand becomes e^u / omega(e^u), which is smooth for
    every modulus that behaves like s times slowly varying factors.  All
    intervals go through one ``_gl_sums`` call; an empty one gives 0.0.
    """
    def logs(rs):  # math.log: numpy's log can differ from it in the last bit
        return np.fromiter(map(math.log, rs), float, rs.size)

    quad = QuadratureConfig(order=_RECIPROCAL_ORDER, panels=panels)
    return _gl_sums(lambda u: _reciprocal_sample(omega, u), logs(lo), logs(hi), np.ones_like, quad)


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
    necessity; the verdict is evidence, not proof.  ``u0`` must be finite
    and positive, or ``ConfigurationError`` is raised.  ``u0`` shapes only
    the partial integrals, not the verdict: the increments are the integrals
    over the decades [10^-(m+1), 10^-m], m = 1..11, whatever ``u0`` is.
    """
    omega = _as_modulus(omega)
    if not (math.isfinite(u0) and u0 > 0):
        raise ConfigurationError(f"u0 must be positive and finite, got {u0}")

    eps = [10.0 ** -(m + 1) for m in range(_N_DECADES)]
    # the per-decade increments I(eps_{m+1}) - I(eps_m), then [eps_1, u0]
    parts = _reciprocal_integral(
        omega, np.array(eps[1:] + [min(eps[0], u0)]), np.array(eps[:-1] + [max(eps[0], u0)])
    ).tolist()
    increments = parts[:-1]
    first = -parts[-1] if eps[0] > u0 else parts[-1]
    partial = np.cumsum([first] + increments).tolist()

    window = increments[-_WINDOW:]
    ratios = [b / a if a > 0 else math.inf for a, b in zip(window, window[1:])]
    if all(r < _CONV_RATIO for r in ratios):
        verdict = "CONVERGENT"
    elif min(window) >= _DIV_FLOOR:
        verdict = "DIVERGENT"
    else:
        verdict = "INCONCLUSIVE"

    return OsgoodReport(
        verdict=verdict,
        u0=float(u0),
        epsilons=eps,
        partial_integrals=partial,
        increments=increments,
    )


class OmegaTransform:
    """Tabulated ``Omega(r) = integral from u0 to r of 1/omega(s) ds``.

    Built on a logarithmic grid (24 points per decade, 8 at least) with
    Gauss-Legendre in the log variable (one ``_reciprocal_integral`` call
    for all cells), interpolated by the cubic Hermite in log r with the
    exact slopes r / omega(r), capped to keep each cell monotone (Fritsch &
    Carlson 1980), and inverted by bisection on it, so ``Omega`` and
    ``Omega^{-1}`` are both monotone on the covered range.
    """

    def __init__(self, modulus, u0, r_min=None, r_max=None):
        self.modulus = _as_modulus(modulus)
        self.u0 = float(u0)
        if self.u0 <= 0:
            raise ConfigurationError("u0 must be positive")
        r_min = float(r_min) if r_min is not None else self.u0 * 1e-8
        r_max = float(r_max) if r_max is not None else self.u0 * 1e8
        if not 0 < r_min < self.u0 < r_max:
            raise ConfigurationError("need 0 < r_min < u0 < r_max")

        # decades as a difference of logs: r_max / r_min may overflow
        n = max(int(round(24 * (math.log10(r_max) - math.log10(r_min)))), 8)
        grid = np.geomspace(r_min, r_max, n)
        grid = np.unique(np.concatenate((grid, [self.u0])))
        cells = _reciprocal_integral(self.modulus, grid[:-1], grid[1:], panels=4)
        # running sums away from u0 in both directions, so Omega(u0) = 0
        anchor = int(np.searchsorted(grid, self.u0))
        values = np.concatenate((
            -np.cumsum(cells[:anchor][::-1])[::-1], [0.0], np.cumsum(cells[anchor:]),
        ))

        self.r_grid = grid
        self.values = values
        self._x = np.log(grid)
        # exact slopes r / omega(r); a cell whose pair has hypot > 3 * secant scales it to that
        d = _reciprocal_sample(self.modulus, self._x)
        h = np.diff(self._x)
        m = np.diff(values) / h
        cap = np.minimum(1.0, 3.0 * m / np.hypot(d[:-1], d[1:]))
        d0, d1 = cap * d[:-1], cap * d[1:]
        self._coef = np.stack(((d0 + d1 - 2.0 * m) / h**2, (3.0 * m - 2.0 * d0 - d1) / h,
                               d0, values[:-1]))

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
        r = float(r)
        if not self.r_grid[0] <= r <= self.r_grid[-1]:
            raise ValueError(
                f"r={r} outside the tabulated range [{self.r_grid[0]}, {self.r_grid[-1]}]"
            )
        return float(self._forward(math.log(r)))

    __call__ = omega_of

    def inverse(self, y):
        """``Omega^{-1}(y)`` for a scalar (a float) or an array of targets.

        Bisection in log r on the monotone table, all targets at once: each
        starts from the grid cell that brackets it, and stops, like
        ``scipy.optimize.brentq`` with ``xtol = rtol = 1e-15``, once its
        bracket is narrower than ``1e-15 * (1 + |log r|)``.
        """
        y = np.asarray(y, dtype=float)
        outside = ~((self.values[0] <= y) & (y <= self.values[-1]))
        if outside.any():
            raise ValueError(
                f"Omega^-1 target {y[outside][0]} outside the tabulated range "
                f"[{self.values[0]}, {self.values[-1]}]"
            )
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
        t = np.asarray(t, dtype=float)
        if not np.all((self.a <= t) & (t <= self.b)):
            raise ValueError(f"bound evaluated outside [{self.a}, {self.b}]")
        return self.transform.inverse(
            self.omega_kappa + self.h(t) - self.h(self.a)
        )


def bihari_bound(kappa, h, a, b, transform):
    """Build the Bihari-type bound, checking the growth precondition.

    Requires ``Omega(kappa) + h(b) - h(a)`` to stay below the top of the
    transform table (the computable estimate of the upper limit of Omega);
    otherwise the bound is not applicable and an error carries both numbers.
    """
    kappa = float(kappa)
    if kappa <= 0:
        raise ConfigurationError("kappa must be positive")
    omega_kappa = transform.omega_of(kappa)
    required = omega_kappa + h(b) - h(a)
    if required >= transform.upper:
        raise BoundInapplicableError(
            f"Omega(kappa) + h(b) - h(a) = {required} reaches the estimated "
            f"upper limit {transform.upper} of the transform",
            required=required,
            available=transform.upper,
        )
    return BihariBound(
        kappa=kappa, h=h, a=float(a), b=float(b),
        transform=transform, omega_kappa=omega_kappa,
    )
