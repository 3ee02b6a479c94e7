"""In-memory spans and counters recorded around calls into the package's layers.

A layer is one module of ``stieltjes``; a frame's name is ``<layer>.<what>``.
``Tracer.call`` runs one call as a span (kept in memory with its start, end,
parent and repetition number); ``Tracer.shim`` wraps a callable that the
package calls many times per repetition (right-hand sides, moduli,
``Derivator.eval``, ``integrate``) so that it is counted and timed without a
span per call.  Both kinds keep the frame stack, so a layer's self time is its
inclusive time minus the time of the instrumented calls nested inside it.

``instrumented`` installs the shims for one traced repetition and removes them
afterwards; untraced repetitions run the package unmodified, through
``NULL_TRACER``, whose ``call`` is a plain call.
"""

import dataclasses
import itertools
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter

from stieltjes import Derivator
from stieltjes import derivative, measure, solver
from stieltjes.moduli import OsgoodModulus

LAYERS = (
    "problem_io",
    "expr",
    "solver",
    "measure",
    "moduli",
    "derivative",
    "derivator",
    "topology",
)


class NullTracer:
    """Tracing off: calls go straight through to the package."""

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @staticmethod
    def instrumented(workload):
        return nullcontext()


NULL_TRACER = NullTracer()


class Tracer:
    """Spans, call counts, inclusive and self times for one benchmark run.

    ``take()`` returns the aggregates gathered since the previous ``take()``
    and starts new ones, so each repetition gets its own figures; spans stay
    in memory until the run writes them out.
    """

    def __init__(self):
        self.spans = []  # (id, parent id or None, repetition, name, start, end)
        self.rep = 0
        self._ids = itertools.count(1)
        self._stack = []  # open frames: [child seconds, span id]
        self._reset()

    def _reset(self):
        self.totals = defaultdict(float)  # frame name -> inclusive seconds
        self.calls = defaultdict(int)  # frame name -> number of calls
        self.self_s = defaultdict(float)  # layer -> self seconds
        self.counts = defaultdict(int)  # named counts

    def take(self):
        snap = {
            "totals": dict(self.totals),
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
        }
        self._reset()
        return snap

    def _run(self, name, record, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        frame = [0.0, next(self._ids) if record else None]
        self._stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            dur = end - start
            self.totals[name] += dur
            self.calls[name] += 1
            self.self_s[name.split(".", 1)[0]] += dur - frame[0]
            if parent is not None:
                parent[0] += dur
            if record:
                self.spans.append(
                    (frame[1], parent[1] if parent else None, self.rep, name, start, end)
                )

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` as a recorded span named ``name``."""
        return self._run(name, True, fn, args, kwargs)

    def shim(self, name, fn):
        """``fn`` wrapped so that each call is counted and timed, without a span."""

        def shimmed(*args, **kwargs):
            return self._run(name, False, fn, args, kwargs)

        return shimmed

    def instrumented(self, workload):
        return instrumented(self, workload)

    def spans_as_dicts(self):
        keys = ("id", "parent", "rep", "name", "start", "end")
        return [dict(zip(keys, span)) for span in self.spans]


def instrument_problem(tracer, problem):
    """The same problem with its rhs callables and modulus counted and timed."""
    modulus = problem.modulus
    if modulus is not None:
        modulus = OsgoodModulus(
            evaluator=tracer.shim("moduli.modulus", modulus.evaluator),
            name=modulus.name,
            known_osgood=modulus.known_osgood,
        )
    return dataclasses.replace(
        problem,
        rhs=tuple(tracer.shim("expr.eval", f) for f in problem.rhs),
        modulus=modulus,
    )


@contextmanager
def instrumented(tracer, workload):
    """Shims around the package's inner layer boundaries for one repetition.

    ``measure.integrate`` is wrapped where ``solver`` and ``derivative`` call
    it, and its integrand is counted; ``OmegaTransform`` and ``osgood_check``
    are wrapped where ``solver`` calls them; ``Derivator.eval`` is wrapped on
    the class.  Everything is restored on exit.
    """
    integrate_shim = tracer.shim("measure.integrate", measure.integrate)
    real_transform = solver.OmegaTransform
    real_osgood = solver.osgood_check

    def integrate(g, f, a, b, quad=None):
        def integrand(t):
            tracer.counts["measure.integrand_calls"] += 1
            return f(t)

        return integrate_shim(g, integrand, a, b, quad)

    def omega_transform(*args, **kwargs):
        return tracer.call("moduli.omega_transform", real_transform, *args, **kwargs)

    def osgood_check(*args, **kwargs):
        return tracer.call("moduli.osgood_check", real_osgood, *args, **kwargs)

    eval_shim = tracer.shim("derivator.eval", Derivator.eval)
    patches = [
        (solver, "integrate", integrate),
        (derivative, "integrate", integrate),
        (solver, "OmegaTransform", omega_transform),
        (solver, "osgood_check", osgood_check),
        (Derivator, "eval", eval_shim),
        (Derivator, "__call__", eval_shim),
    ]
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
    for obj, attr, new in patches:
        setattr(obj, attr, new)
    plain_problem = workload.problem
    workload.problem = instrument_problem(tracer, plain_problem)
    try:
        yield
    finally:
        workload.problem = plain_problem
        for obj, attr, old in saved:
            setattr(obj, attr, old)
