"""Per-layer tracing of volmaj from outside the package.

``Tracer`` keeps a stack of open spans.  Every span adds its duration to
its parent's child time, so a span's self time is its duration minus the
time its child spans cover.  Spans of the coarse layers (the names in
``KEEP``) are also kept as records (name, start, end, self, parent,
op) and written when the run ends; hot leaf calls such as kernel and
expression evaluations only feed the per-name totals, which keeps the
trace small.

``instrument`` swaps wrappers into the volmaj modules at the names the
callers look up (``from .x import y`` copies a reference, so every
module holding the function is patched) and into class attributes for
methods.  It edits nothing on disk and undoes every swap on exit.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import math
import sys
import time
from collections import Counter
from typing import Callable

KEEP = frozenset(
    {
        "cli.main",
        "picard.solve_main",
        "picard.residual_norms",
        "picard.verify_domination",
        "problem.picard_step",
        "quadrature.improper_integral",
        "integral_majorant.classify_blowup",
        "integral_majorant.solve_majorant",
        "integral_majorant.solve_cauchy",
        "integral_majorant.majorant_picard",
        "integral_majorant.check_upper_solution",
        "algebraic_majorant.solve_lyapunov",
        "algebraic_majorant.solve_tangency",
        "algebraic_majorant.majorant_branch",
        "algebraic_majorant.check_convexity",
        "conditions.run_suite",
        "conditions.check_A",
        "conditions.check_D_and_E",
        "conditions.check_B",
        "conditions.check_C",
    }
)


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter, keep=KEEP):
        self.clock = clock
        self.keep = keep
        self.op = 0
        self.spans: list[dict] = []
        self._stack: list[list] = []  # [name, start, child_s, record index]
        self._kept: list[int] = []  # stack of open kept-span indices
        self.totals: dict[str, list[float]] = {}  # name -> [calls, s, self_s]
        self.counts: Counter = Counter()

    def begin(self, name: str) -> None:
        index = None
        if name in self.keep:
            index = len(self.spans)
            parent = self._kept[-1] if self._kept else None
            self.spans.append({"name": name, "parent": parent, "op": self.op})
            self._kept.append(index)
        self._stack.append([name, self.clock(), 0.0, index])

    def end(self) -> float:
        name, start, child, index = self._stack.pop()
        stop = self.clock()
        duration = stop - start
        if self._stack:
            self._stack[-1][2] += duration
        total = self.totals.setdefault(name, [0, 0.0, 0.0])
        total[0] += 1
        total[1] += duration
        total[2] += duration - child
        if index is not None:
            self._kept.pop()
            self.spans[index].update(start=start, end=stop, self=duration - child)
        return duration

    def calls(self, name: str) -> int:
        total = self.totals.get(name)
        return int(total[0]) if total else 0

    def take(self) -> tuple[dict, Counter]:
        """Per-name totals and counters since the last take."""
        if self._stack:
            raise RuntimeError("take() with open spans")
        totals, counts = self.totals, Counter(self.counts)
        self.totals = {}
        self.counts.clear()  # wrappers hold this Counter
        return totals, counts


def timed(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end()

    return wrapper


def counted(tracer: Tracer, name: str, fn: Callable) -> Callable:
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


class OpRecord:
    """What the wrappers learn about one operation beyond the totals."""

    def __init__(self):
        self.sweeps: list[tuple[int, float, int]] = []  # (mesh n, s, kernel calls)
        self.classified: Counter = Counter()  # (cli call, spec id) -> classifications
        self.classified_names: Counter = Counter()
        self.cli_call = 0


@contextlib.contextmanager
def instrument(tracer: Tracer, record: OpRecord):
    """Wrap volmaj's public functions while the block runs."""
    from volmaj import (
        algebraic_majorant,
        conditions,
        expr,
        integral_majorant,
        picard,
        problem,
        quadrature,
    )

    modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "volmaj"]
    undo: list[tuple[object, str, object]] = []

    def swap(owner, attr: str, wrapper) -> None:
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def patch(original: Callable, wrapper: Callable) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    swap(mod, attr, wrapper)

    def patch_timed(module, attr: str, layer: str) -> None:
        patch(getattr(module, attr), timed(tracer, f"{layer}.{attr}", getattr(module, attr)))

    def add_after(module, attr: str, layer: str, after: Callable) -> None:
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(result, *args)
            return result

        patch(fn, timed(tracer, f"{layer}.{attr}", wrapper))

    counts = tracer.counts
    try:
        # expr: functions built by as_function, and every node visit
        as_function = expr.as_function

        @functools.wraps(as_function)
        def as_function_traced(*args, **kwargs):
            return timed(tracer, "expr.fn", as_function(*args, **kwargs))

        patch(as_function, as_function_traced)
        patch(expr.evaluate, counted(tracer, "expr.evaluate", expr.evaluate))

        # quadrature: kernel calls counted through a replaced stage
        nested = quadrature.nested_integral

        @functools.wraps(nested)
        def nested_traced(stage, *args, **kwargs):
            kernel = timed(tracer, "quadrature.kernel", stage.evaluate)
            stage = dataclasses.replace(stage, evaluate=kernel)
            return nested(stage, *args, **kwargs)

        patch(nested, timed(tracer, "quadrature.nested_integral", nested_traced))
        adaptive = quadrature.adaptive_quad

        @functools.wraps(adaptive)
        def adaptive_traced(g, *args, **kwargs):
            return adaptive(counted(tracer, "quadrature.integrand", g), *args, **kwargs)

        patch(adaptive, timed(tracer, "quadrature.adaptive_quad", adaptive_traced))
        patch_timed(quadrature, "improper_integral", "quadrature")

        # problem: sweeps by mesh size, residuals, linear solves
        step = problem.picard_step

        @functools.wraps(step)
        def step_traced(prob, trajectory, *args, **kwargs):
            before = tracer.calls("quadrature.kernel")
            tracer.begin("problem.picard_step")
            try:
                result = step(prob, trajectory, *args, **kwargs)
            finally:
                duration = tracer.end()
            kernels = tracer.calls("quadrature.kernel") - before
            record.sweeps.append((trajectory.mesh.n, duration, kernels))
            return result

        patch(step, step_traced)
        patch_timed(problem, "eval_residual", "problem")
        for cls in (problem.DenseOperator, problem.TridiagonalOperator):
            swap(cls, "solve_many", timed(tracer, "problem.operator_solve", cls.solve_many))

        # picard
        add_after(
            picard,
            "solve_main",
            "picard",
            lambda report, *a: counts.update({"picard.iterations": report.iterations}),
        )
        patch_timed(picard, "residual_norms", "picard")
        patch_timed(picard, "verify_domination", "picard")

        # integral_majorant
        def classified(report, spec, *a):
            record.classified[(record.cli_call, id(spec))] += 1
            record.classified_names[spec.name] += 1

        add_after(integral_majorant, "classify_blowup", "integral_majorant", classified)
        for attr in ("solve_majorant", "solve_cauchy", "check_upper_solution"):
            patch_timed(integral_majorant, attr, "integral_majorant")
        add_after(
            integral_majorant,
            "majorant_picard",
            "integral_majorant",
            lambda chain, *a: counts.update(
                {"integral_majorant.chain_iterations": chain.count - 1}
            ),
        )
        spec_cls = integral_majorant.MajorantSpec
        for attr in ("rate", "rate_at"):
            swap(spec_cls, attr, counted(tracer, "integral_majorant.rate", getattr(spec_cls, attr)))

        # algebraic_majorant
        add_after(
            algebraic_majorant,
            "solve_tangency",
            "algebraic_majorant",
            lambda tang, *a: counts.update(
                {"algebraic_majorant.newton_iterations": tang.newton_iterations}
            ),
        )
        add_after(
            algebraic_majorant,
            "majorant_branch",
            "algebraic_majorant",
            lambda branch, *a: counts.update(
                {"algebraic_majorant.branch_iterations": int(branch.iterations.sum())}
            ),
        )
        patch_timed(algebraic_majorant, "check_convexity", "algebraic_majorant")
        patch_timed(algebraic_majorant, "solve_lyapunov", "algebraic_majorant")

        # conditions
        for attr in ("run_suite", "check_A", "check_D_and_E", "check_B", "check_C"):
            patch_timed(conditions, attr, "conditions")
        sampler = conditions.TrajectorySampler
        swap(sampler, "draw", counted(tracer, "conditions.draws", sampler.draw))
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


# --- per-layer metrics -----------------------------------------------------

COUNT = "count"
SECONDS = "s"

# (metric, unit): where each value comes from is in layer_metrics
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("cli.self_s", SECONDS),
    ("expr.fn.calls", COUNT),
    ("expr.fn.s", SECONDS),
    ("expr.evaluate.calls", COUNT),
    ("quadrature.nested_integral.calls", COUNT),
    ("quadrature.nested_integral.self_s", SECONDS),
    ("quadrature.kernel.calls", COUNT),
    ("quadrature.kernel.s", SECONDS),
    ("quadrature.kernel.calls_per_sweep", COUNT),
    ("quadrature.adaptive_quad.calls", COUNT),
    ("quadrature.adaptive_quad.s", SECONDS),
    ("quadrature.integrand.calls", COUNT),
    ("quadrature.improper_integral.s", SECONDS),
    ("problem.picard_step.calls", COUNT),
    ("problem.picard_step.s", SECONDS),
    ("problem.eval_residual.calls", COUNT),
    ("problem.operator_solve.s", SECONDS),
    ("problem.picard_step.n80_s", SECONDS),
    ("problem.picard_step.n160_s", SECONDS),
    ("problem.picard_step.n320_s", SECONDS),
    ("problem.picard_step.growth", "log2"),
    ("picard.solve_main.s", SECONDS),
    ("picard.residual_norms.s", SECONDS),
    ("picard.verify_domination.s", SECONDS),
    ("picard.iterations", COUNT),
    ("integral_majorant.classify_blowup.calls", COUNT),
    ("integral_majorant.classify_blowup.s", SECONDS),
    ("integral_majorant.classify_per_spec", "ratio"),
    ("integral_majorant.solve_cauchy.s", SECONDS),
    ("integral_majorant.majorant_picard.s", SECONDS),
    ("integral_majorant.check_upper_solution.s", SECONDS),
    ("integral_majorant.rate.calls", COUNT),
    ("integral_majorant.chain_iterations", COUNT),
    ("algebraic_majorant.solve_tangency.s", SECONDS),
    ("algebraic_majorant.newton_iterations", COUNT),
    ("algebraic_majorant.majorant_branch.s", SECONDS),
    ("algebraic_majorant.branch_iterations", COUNT),
    ("algebraic_majorant.check_convexity.calls", COUNT),
    ("algebraic_majorant.check_convexity.s", SECONDS),
    ("conditions.run_suite.s", SECONDS),
    ("conditions.check_A.s", SECONDS),
    ("conditions.check_D_and_E.s", SECONDS),
    ("conditions.check_B.s", SECONDS),
    ("conditions.check_C.s", SECONDS),
    ("conditions.draws", COUNT),
    ("trace.overhead_s", SECONDS),
)


def layer_metrics(totals: dict, counts: Counter, record: OpRecord) -> dict[str, float]:
    """Per-layer values of one traced operation (trace.overhead_s is
    filled in by the caller, which also times untraced operations)."""

    def calls(name: str) -> int:
        return int(totals.get(name, (0, 0.0, 0.0))[0])

    def seconds(name: str) -> float:
        return float(totals.get(name, (0, 0.0, 0.0))[1])

    def self_seconds(name: str) -> float:
        return float(totals.get(name, (0, 0.0, 0.0))[2])

    per_n: dict[int, list[float]] = {}
    kernels_at: dict[int, int] = {}
    for n, duration, kernels in record.sweeps:
        per_n.setdefault(n, []).append(duration)
        kernels_at[n] = max(kernels, kernels_at.get(n, 0))
    sweep_s = {n: sum(d) / len(d) for n, d in per_n.items()}
    n80, n160, n320 = (sweep_s.get(n, 0.0) for n in (80, 160, 320))
    values = {
        "cli.self_s": self_seconds("cli.main"),
        "expr.fn.calls": calls("expr.fn"),
        "expr.fn.s": seconds("expr.fn"),
        "expr.evaluate.calls": counts["expr.evaluate"],
        "quadrature.nested_integral.calls": calls("quadrature.nested_integral"),
        "quadrature.nested_integral.self_s": self_seconds("quadrature.nested_integral"),
        "quadrature.kernel.calls": calls("quadrature.kernel"),
        "quadrature.kernel.s": seconds("quadrature.kernel"),
        # the costliest sweep at the largest mesh the operation sweeps
        "quadrature.kernel.calls_per_sweep": kernels_at[max(kernels_at)] if kernels_at else 0,
        "quadrature.adaptive_quad.calls": calls("quadrature.adaptive_quad"),
        "quadrature.adaptive_quad.s": seconds("quadrature.adaptive_quad"),
        "quadrature.integrand.calls": counts["quadrature.integrand"],
        "quadrature.improper_integral.s": seconds("quadrature.improper_integral"),
        "problem.picard_step.calls": calls("problem.picard_step"),
        "problem.picard_step.s": seconds("problem.picard_step"),
        "problem.eval_residual.calls": calls("problem.eval_residual"),
        "problem.operator_solve.s": seconds("problem.operator_solve"),
        "problem.picard_step.n80_s": n80,
        "problem.picard_step.n160_s": n160,
        "problem.picard_step.n320_s": n320,
        "problem.picard_step.growth": (
            math.log2(n320 / n160) if n160 > 0 and n320 > 0 else 0.0
        ),
        "picard.solve_main.s": seconds("picard.solve_main"),
        "picard.residual_norms.s": seconds("picard.residual_norms"),
        "picard.verify_domination.s": seconds("picard.verify_domination"),
        "picard.iterations": counts["picard.iterations"],
        "integral_majorant.classify_blowup.calls": calls(
            "integral_majorant.classify_blowup"
        ),
        "integral_majorant.classify_blowup.s": seconds("integral_majorant.classify_blowup"),
        # the most classifications any one spec received in one CLI call
        "integral_majorant.classify_per_spec": max(record.classified.values(), default=0),
        "integral_majorant.solve_cauchy.s": seconds("integral_majorant.solve_cauchy"),
        "integral_majorant.majorant_picard.s": seconds("integral_majorant.majorant_picard"),
        "integral_majorant.check_upper_solution.s": seconds(
            "integral_majorant.check_upper_solution"
        ),
        "integral_majorant.rate.calls": counts["integral_majorant.rate"],
        "integral_majorant.chain_iterations": counts["integral_majorant.chain_iterations"],
        "algebraic_majorant.solve_tangency.s": seconds("algebraic_majorant.solve_tangency"),
        "algebraic_majorant.newton_iterations": counts["algebraic_majorant.newton_iterations"],
        "algebraic_majorant.majorant_branch.s": seconds("algebraic_majorant.majorant_branch"),
        "algebraic_majorant.branch_iterations": counts["algebraic_majorant.branch_iterations"],
        "algebraic_majorant.check_convexity.calls": calls(
            "algebraic_majorant.check_convexity"
        ),
        "algebraic_majorant.check_convexity.s": seconds("algebraic_majorant.check_convexity"),
        "conditions.run_suite.s": seconds("conditions.run_suite"),
        "conditions.check_A.s": seconds("conditions.check_A"),
        "conditions.check_D_and_E.s": seconds("conditions.check_D_and_E"),
        "conditions.check_B.s": seconds("conditions.check_B"),
        "conditions.check_C.s": seconds("conditions.check_C"),
        "conditions.draws": counts["conditions.draws"],
    }
    return {k: float(v) for k, v in values.items()}


def count_metrics(values: dict[str, float]) -> dict[str, float]:
    """The metrics that must repeat exactly for the same inputs."""
    units = dict(PER_LAYER)
    return {k: v for k, v in values.items() if units.get(k) in (COUNT, "ratio")}
