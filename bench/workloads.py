"""The benchmark's workloads: seeded inputs, one repetition, and its checks.

Each workload writes a problem file generated from the seed, loads it through
``problem_io`` (``setup``), runs its pipeline once per ``rep`` through the
package's public API, and verifies every output of that repetition in
``check``.  Sizes and parameter ranges are fixed; the seed moves positions and
values only, so the work per repetition is nearly the same for every seed.

* ``euler-file``: the sequential path. Two components on different derivators,
  ``expr`` right-hand sides, Euler on ~10k steps, one residual, trace CSV.
* ``picard-cert``: the batched path. Picard on ~500 steps, then the ball
  horizon, the a-priori bound and the 10k-sample uniqueness certificate.
* ``ftc-segments``: ``measure`` and ``derivative`` on a derivator with hundreds
  of short slope segments: indefinite integral, ~1k evaluations of it, the
  FTC round trip and the sampled g-continuity check.
"""

import hashlib
import json
import math
import os
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from stieltjes.derivative import check_ftc, indefinite_integral, stieltjes_derivative
from stieltjes.derivator import classify
from stieltjes.errors import NoDerivativeError, StieltjesError
from stieltjes.problem_io import load_problem_file, trace_csv_text, write_trace_csv
from stieltjes.solver import (
    SolutionTrace,
    apriori_bound,
    build_grid,
    horizon_for_ball,
    residual,
    solve_euler,
    solve_picard,
    uniqueness_certificate,
)
from stieltjes.topology import check_g_continuity_sampled


@dataclass
class Outcome:
    """What the checks made of one repetition.

    ``failed`` counts operations that raised a library error or failed a
    check; ``wrong`` counts those among them whose output was a wrong value
    (a check failed), as opposed to an error the library raised.  ``known``
    counts operations that hit the known ``ftc-segments`` defect, exactly as
    it is documented; they are not in ``failed``.
    """

    ops: int
    failed: int = 0
    wrong: int = 0
    known: int = 0
    max_err: float = 0.0
    reason: str = ""


def _jittered(rng, n, lo=0.0, hi=1.0, jitter=0.35):
    """n - 1 strictly increasing interior cut points, one near each k/n."""
    k = np.arange(1, n)
    return lo + (hi - lo) * (k + rng.uniform(-jitter, jitter, n - 1)) / n


def _rescaled(slopes, cuts, total):
    """Slopes scaled so that the continuous part rises by ``total`` over [0, 1]."""
    return slopes * total / np.dot(slopes, np.diff([0.0, *cuts, 1.0]))


def _derivator_spec(breakpoints, slopes, jumps):
    return {
        "window": [0.0, 1.0],
        "anchor": 0.0,
        "breakpoints": [0.0, *map(float, breakpoints), 1.0],
        "slopes": [float(s) for s in slopes],
        "jumps": [[float(d), float(v)] for d, v in sorted(jumps)],
    }


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Workload:
    """Common driver code: problem file, golden CSV and the failure wrapper."""

    name = ""

    def __init__(self, seed, scale, out_dir):
        self.seed = seed
        self.scale = scale
        self.out_dir = out_dir
        self.problem_path = os.path.join(out_dir, "problem.json")
        self.csv_path = os.path.join(out_dir, "trace.csv")
        self.doc = self.make_doc(np.random.default_rng([seed, self.salt]))
        self._golden_csv = None

    def setup(self, tracer):
        """Write the problem file and load it (work that precedes every repetition)."""
        os.makedirs(self.out_dir, exist_ok=True)
        with open(self.problem_path, "w", encoding="utf-8") as fh:
            json.dump(self.doc, fh, indent=1)
        self.loaded = tracer.call("problem_io.load", load_problem_file, self.problem_path)
        self.problem = self.loaded.problem

    def check_csv(self, trace):
        """The trace CSV must match the trace and be byte-identical across repetitions."""
        digest = _digest(self.csv_path)
        if self._golden_csv is None:
            expected = trace_csv_text(trace, self.loaded.problem).encode("utf-8")
            if hashlib.sha256(expected).hexdigest() != digest:
                return "trace CSV differs from the trace it was written from"
            self._golden_csv = digest
        elif digest != self._golden_csv:
            return "trace CSV is not byte-identical to the first repetition's"
        return ""

    def failed_outcome(self, exc):
        ops = self.ops_per_rep()
        return Outcome(ops=ops, failed=ops, reason=f"{type(exc).__name__}: {exc}")

    def ops_per_rep(self):
        return 1

    def run_checked(self, tracer, corrupt=None):
        """One repetition and its checks: (pipeline seconds, Outcome, counts).

        Only the pipeline is timed.  ``corrupt`` (for the smoke tests) may
        alter the output before it is checked.
        """
        start = perf_counter()
        try:
            with tracer.instrumented(self):
                out = self.rep(tracer)
        except StieltjesError as exc:
            return perf_counter() - start, self.failed_outcome(exc), {}
        seconds = perf_counter() - start
        if corrupt is not None:
            corrupt(self, out)
        return seconds, self.check(out), self.counts(out)


class EulerFile(Workload):
    """x1' = x1 dg1 (the impulsive exponential) coupled to an expr rhs on g2."""

    name = "euler-file"
    salt = 1

    def make_doc(self, rng):
        self.n_steps = max(int(10_000 * self.scale), 50)
        cuts1 = _jittered(rng, 6)
        slopes1 = rng.uniform(0.5, 1.5, 6)
        slopes1[rng.integers(1, 6)] = 0.0  # the flat (constancy) segment
        jump_pts1 = _jittered(rng, 5, 0.05, 0.95)
        jumps1 = list(zip(jump_pts1, rng.uniform(0.05, 0.3, 4)))
        shared = jump_pts1[rng.integers(0, 4)]
        jumps2 = list(zip([shared, *_jittered(rng, 4, 0.1, 0.9)], rng.uniform(0.05, 0.3, 4)))
        return {
            "version": 1,
            "derivators": {
                "g1": _derivator_spec(cuts1, slopes1, jumps1),
                "g2": _derivator_spec(_jittered(rng, 4), rng.uniform(0.5, 2.0, 4), jumps2),
            },
            "problem": {
                "t0": 0.0,
                "T": 1.0,
                "x0": [float(rng.uniform(0.5, 1.5)), float(rng.uniform(-0.5, 0.5))],
                "components": [
                    {"derivator": "g1", "rhs": "x1"},
                    {"derivator": "g2", "rhs": "0.5*sin(3*t)*x2 - 0.25*x1 + exp(-t)"},
                ],
            },
            "solver": {"method": "euler", "n_steps": self.n_steps},
            "output": {"trace_csv": "trace.csv"},
        }

    def rep(self, tr):
        problem = self.problem
        grid = tr.call("solver.grid", build_grid, problem, n_steps=self.loaded.n_steps)
        trace = tr.call("solver.euler", solve_euler, problem, grid, compute_residual=False)
        res = tr.call("solver.residual", residual, problem, trace)
        tr.call("problem_io.csv", write_trace_csv, trace, problem, self.csv_path)
        return trace, res

    def counts(self, out):
        grid = out[0].grid
        jumps = np.zeros(grid.size, dtype=bool)
        for g in self.problem.derivators:
            jumps[:-1] |= g.jump(grid[:-1]) > 0.0
        return {"solver.cells": grid.size - 1, "solver.atom_steps": int(jumps.sum())}

    def check(self, out):
        trace, res = out
        g1 = self.loaded.derivators_by_name["g1"]
        x0 = self.problem.x0[0]
        grid = trace.grid
        delta = np.zeros(grid.size)
        delta[:-1] = g1.jump(grid[:-1])
        cont = g1.continuous(grid)
        left = x0 * np.exp(cont - cont[0]) * np.concatenate(([1.0], np.cumprod(1.0 + delta[:-1])))
        right = left * (1.0 + delta)
        err = float(max(
            np.max(np.abs(trace.values[:, 0] - left) / np.abs(left)),
            np.max(np.abs(trace.right_values[:, 0] - right) / np.abs(right)),
        ))
        # Forward Euler on x' = x dg is first order: the relative error is at
        # most about max slope * h * g1c(T) / 2 < 1.2 / n_steps here.  The
        # residual of an Euler trace is first order as well.
        tol = 10.0 / self.n_steps
        if not err <= tol:
            reason = f"x1 differs from the closed form by {err:.3g} (tolerance {tol:.3g})"
        elif not (np.all(np.isfinite(res)) and float(np.max(res)) <= tol):
            reason = f"Euler residual {res} exceeds {tol:.3g}"
        else:
            reason = self.check_csv(trace)
        bad = int(bool(reason))
        return Outcome(ops=1, failed=bad, wrong=bad, max_err=err, reason=reason)


class PicardCert(Workload):
    """Picard plus certificates on an omega_k(1)-continuous rhs inside a ball."""

    name = "picard-cert"
    salt = 2
    tol = 1e-10
    n_samples = 10_000
    # Ball radius 0.2: a state change of s (max norm) moves each rhs below by
    # at most 0.5 s + 0.3 omega_1(s), which is <= omega_1(s) for the gaps
    # s <= 0.4 the uniqueness certificate samples.
    radius = 0.2

    def make_doc(self, rng):
        self.n_steps = max(int(500 * self.scale), 20)
        self.samples = max(int(self.n_samples * self.scale), 100)
        a, b = rng.uniform(0.2, 0.4), rng.uniform(-0.4, -0.2)
        jump_pts = _jittered(rng, 4, 0.15, 0.95)
        # Each derivator rises by 0.55 + 0.2 over [0, 1] for every seed, so
        # Picard takes the same number of iterations (10) whatever the seed.
        sizes1, sizes2 = (0.2 * s / s.sum() for s in rng.uniform(0.05, 0.15, (2, 2)))
        jumps1 = [(jump_pts[0], sizes1[0]), (jump_pts[1], sizes1[1])]
        jumps2 = [(jump_pts[1], sizes2[0]), (jump_pts[2], sizes2[1])]
        cuts1, cuts2 = _jittered(rng, 3), _jittered(rng, 2)
        d1, d2 = f"(x1 - {a!r})", f"(x2 - {b!r})"
        return {
            "version": 1,
            "derivators": {
                "g1": _derivator_spec(cuts1, _rescaled(rng.uniform(0.3, 0.8, 3), cuts1, 0.55), jumps1),
                "g2": _derivator_spec(cuts2, _rescaled(rng.uniform(0.3, 0.8, 2), cuts2, 0.55), jumps2),
            },
            "problem": {
                "t0": 0.0,
                "T": 1.0,
                "x0": [float(a), float(b)],
                "components": [
                    {"derivator": "g1", "rhs":
                        f"0.05 + 0.3*{d2} - 0.2*{d1} + 0.1*sin(5*t)"},
                    {"derivator": "g2", "rhs":
                        f"-0.05*cos(2*t) + 0.2*{d1} - 0.1*{d2} + 0.3*omega_k(1, abs{d1})"},
                ],
                "ball_radius": self.radius,
                "modulus": {"builtin": "omega_k", "k": 1},
            },
            "solver": {"method": "picard", "n_steps": self.n_steps, "tol": self.tol,
                       "max_iter": 100},
            "output": {"trace_csv": "trace.csv"},
        }

    def rep(self, tr):
        problem, lp = self.problem, self.loaded
        grid = tr.call("solver.grid", build_grid, problem, n_steps=lp.n_steps)
        trace = tr.call("solver.picard", solve_picard, problem, grid, tol=lp.tol,
                        max_iter=lp.max_iter)
        sigma = tr.call("solver.horizon", horizon_for_ball, problem)
        bound = tr.call("solver.apriori", apriori_bound, problem)
        cert = tr.call("solver.uniqueness", uniqueness_certificate, problem,
                       n_samples=self.samples, seed=self.seed)
        tr.call("problem_io.csv", write_trace_csv, trace, problem, self.csv_path)
        return trace, sigma, bound, cert

    def counts(self, out):
        trace = out[0]
        return {"solver.cells": trace.grid.size - 1, "solver.picard_iters": trace.n_iterations}

    def check(self, out):
        trace, sigma, bound, cert = out
        err = float(np.max(residual(self.problem, trace)))
        bound_ok, worst = bound.check_trace(trace)
        max_iter = self.loaded.max_iter
        tol = 10 * self.tol
        if not err <= tol:
            reason = f"residual {err:.3g} of the accepted Picard trace exceeds {tol:.3g}"
        elif not (trace.n_iterations < max_iter and float(np.max(trace.residual)) <= self.tol):
            reason = f"Picard did not converge ({trace.n_iterations} iterations)"
        elif not 0.0 < sigma <= self.problem.horizon:
            reason = f"ball horizon {sigma} outside (0, T]"
        elif not bound_ok:
            reason = f"a-priori bound violated by the trace by {worst:.3g}"
        elif cert.verdict != "OSGOOD-UNIQUE" or cert.n_samples != self.samples:
            reason = f"uniqueness certificate says {cert.verdict} with {len(cert.violations)} violations"
        else:
            reason = self.check_csv(trace)
        bad = int(bool(reason))
        return Outcome(ops=1, failed=bad, wrong=bad, max_err=err, reason=reason)


def _f(t):
    return math.sin(3.0 * t) + t * t


def _f_array(t):
    return np.sin(3.0 * t) + t * t


def _antiderivative(t):
    return -np.cos(3.0 * t) / 3.0 + t ** 3 / 3.0


class FtcSegments(Workload):
    """The FTC round trip on a derivator with hundreds of short segments.

    An operation is one FTC sample.  ``stieltjes_derivative`` is known to
    raise ``NoDerivativeError`` at the ends of constancy intervals that are
    shorter than its coarse difference steps, although the derivative exists
    there.  Samples that show exactly this defect are counted as ``known``;
    any other error or wrong value counts as failed.
    """

    name = "ftc-segments"
    salt = 3
    eps = 1e-3  # continuity probes; |F(s) - F(t)| <= 2 |g(s) - g(t)| here
    tol_eval = 1e-9
    tol_continuous = 1e-5  # FtcReport.ok defaults
    tol_jump = 1e-12

    def make_doc(self, rng):
        m = max(int(200 * self.scale), 10)
        n_jumps = max(int(20 * self.scale), 2)
        self.sample_count = max(int(100 * self.scale), 5)
        slopes = rng.uniform(0.5, 2.0, m)
        slopes[rng.choice(m, size=round(0.3 * m), replace=False)] = 0.0
        jumps = list(zip(_jittered(rng, n_jumps + 1, 0.02, 0.98), rng.uniform(0.02, 0.2, n_jumps)))
        self.eval_ts = np.unique(rng.uniform(0.0, 1.0, max(int(1000 * self.scale), 20)))
        self.probes = [(float(t), self.eps) for t in rng.uniform(0.0, 1.0, 20)]
        return {
            "version": 1,
            "derivators": {"g": _derivator_spec(np.arange(1, m) / m, slopes, jumps)},
            "problem": {
                "t0": 0.0,
                "T": 1.0,
                "x0": [0.0],
                "components": [{"derivator": "g", "rhs": "sin(3*t) + t^2"}],
            },
            "output": {"trace_csv": "trace.csv"},
        }

    def setup(self, tracer):
        super().setup(tracer)
        self.g = self.loaded.derivators_by_name["g"]
        self.grid = np.union1d(self.eval_ts, self.g.jump_points)
        self.at_jump = self.g.jump(self.grid) > 0.0
        self.constancy_ends = {float(x) for interval in classify(self.g).constancy
                               for x in interval}
        self._defect_confirmed = False

    def ops_per_rep(self):
        return self.sample_count + self.g.jump_points.size

    def rep(self, tr):
        g = self.g
        F = tr.call("derivative.indefinite_build", indefinite_integral, _f, g, 0.0)

        def evaluate():
            values = np.array([F(t) for t in self.grid])
            rights = values.copy()
            for k in np.flatnonzero(self.at_jump):
                rights[k] = F.right_limit(self.grid[k])
            return values, rights

        values, rights = tr.call("derivative.eval", evaluate)
        report = tr.call("derivative.ftc", check_ftc, _f, g, 0.0, 1.0,
                         sample_count=self.sample_count)
        continuity = tr.call("topology.continuity", check_g_continuity_sampled, F, g,
                             self.probes)
        trace = SolutionTrace(grid=self.grid, values=values[:, None],
                              right_values=rights[:, None], method="indefinite-integral")
        tr.call("problem_io.csv", write_trace_csv, trace, self.problem, self.csv_path)
        return trace, report, continuity, F

    def counts(self, out):
        failed = [s for s in out[1].samples if s.status not in ("ok", "skipped-constancy")]
        return {"derivative.ftc_failed": len(failed)}

    def exact(self, ts):
        """F(t) in closed form: slope-weighted antiderivative plus the atoms before t."""
        g = self.g
        bp, slopes = g.breakpoints, g.slopes
        at_bp = np.concatenate(([0.0], np.cumsum(slopes * np.diff(_antiderivative(bp)))))
        k = np.clip(np.searchsorted(bp, ts, side="right") - 1, 0, slopes.size - 1)
        cont = at_bp[k] + slopes[k] * (_antiderivative(ts) - _antiderivative(bp[k]))
        atoms = np.concatenate(([0.0], np.cumsum(_f_array(g.jump_points) * g.jump_sizes)))
        return cont + atoms[np.searchsorted(g.jump_points, ts, side="left")]

    def check(self, out):
        trace, report, continuity, F = out
        exact = self.exact(self.grid)
        exact_right = exact + _f_array(self.grid) * self.g.jump(self.grid)
        eval_err = float(max(np.max(np.abs(trace.values[:, 0] - exact)),
                             np.max(np.abs(trace.right_values[:, 0] - exact_right))))
        ops = len(report.samples)
        if not eval_err <= self.tol_eval:
            reason = f"F differs from its closed form by {eval_err:.3g}"
        elif not continuity.consistent():
            reason = f"continuity refuted at t={continuity.refuted[0].t}"
        else:
            reason = self.check_csv(trace)
        if reason:
            return Outcome(ops=ops, failed=ops, wrong=ops, max_err=report.max_error_continuous,
                           reason=reason)

        jump_pts = set(self.g.jump_points.tolist())
        failed = wrong = known = 0
        for s in report.samples:
            if s.status == "skipped-constancy":
                continue
            if s.status == "no-derivative" and s.t in self.constancy_ends and self._is_defect(F, s.t):
                known += 1
                continue
            if s.status != "ok":
                failed += 1
                reason = reason or f"{s.status} at t={s.t}"
                continue
            tol = self.tol_jump if s.t in jump_pts else self.tol_continuous
            if not s.error <= tol:
                failed += 1
                wrong += 1
                reason = f"derivative of F at t={s.t} is off by {s.error:.3g}"
        self._defect_confirmed = self._defect_confirmed or known > 0
        return Outcome(ops=ops, failed=failed, wrong=wrong, known=known,
                       max_err=report.max_error_continuous, reason=reason)

    def _is_defect(self, F, t):
        """Whether the error at t is the known NoDerivativeError.

        ``check_ftc`` folds several errors into one status; the first
        repetition that meets the defect asks ``stieltjes_derivative`` again
        at each such sample to confirm the error type.  Later repetitions see
        the same inputs, and their samples must sit at the same kind of point.
        """
        if self._defect_confirmed:
            return True
        try:
            stieltjes_derivative(F, self.g, t)
        except NoDerivativeError:
            return True
        except StieltjesError:
            return False
        return False


WORKLOADS = {w.name: w for w in (EulerFile, PicardCert, FtcSegments)}
