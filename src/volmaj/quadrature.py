"""Quadrature: tensor-product nested integrals on a mesh's composite
trapezoid weights (meshes.WeightTable, re-exported here), adaptive
Simpson, and improper integrals over [0, inf).

The trapezoid rule is the workhorse because its weights are nonnegative
for any mesh, which the domination arguments for certified bounds rely
on.  Everything adaptive (Simpson, octave doubling) is used only for
scalar classification integrals, never for trajectory quadrature.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EVAL_ERRORS, CostLimitError, NumericError, SpecValidationError
from .meshes import Mesh, WeightTable

__all__ = [
    "graded_mesh",
    "WeightTable",
    "pointwise",
    "nested_integral",
    "ImproperResult",
    "improper_integral",
    "adaptive_quad",
]


def graded_mesh(t_end: float, n: int, ratio: float = 1.0) -> Mesh:
    """Mesh on [0, t_end] with n gaps in geometric progression.

    ratio is the factor between consecutive gaps; ratio < 1 concentrates
    nodes near t_end, which is where majorants steepen.
    """
    if not (t_end > 0):
        raise SpecValidationError(f"t_end must be positive, got {t_end!r}")
    if n < 1:
        raise SpecValidationError(f"need at least one gap, got n={n}")
    if not (ratio > 0) or not math.isfinite(ratio):
        raise SpecValidationError(f"gap ratio must be positive, got {ratio!r}")
    if ratio == 1.0:
        nodes = np.linspace(0.0, t_end, n + 1)
        return Mesh(nodes)
    k = np.arange(n + 1, dtype=float)
    try:
        with np.errstate(all="ignore"):
            nodes = t_end * (1.0 - ratio**k) / (1.0 - ratio**n)
    except OverflowError:  # ratio**n past the float range
        nodes = np.full(n + 1, np.inf)
    nodes[0] = 0.0
    nodes[-1] = t_end
    if not (np.all(np.isfinite(nodes)) and np.all(np.diff(nodes) > 0)):
        raise SpecValidationError(
            f"gap ratio {ratio!r} over n={n} gaps overflows or collapses"
            " the geometric mesh nodes"
        )
    return Mesh(nodes)


# The most point x dim elements one kernel call, or one block of audit
# samples, may hold: enough to amortise the per-call overhead over many
# rows, small enough that peak memory stays flat.
BLOCK_ELEMENTS = 2**13

# on fewer points a scalar form beats a compiled expression's array form
ARRAY_MIN_POINTS = 128


def pointwise(fn, *args, array=None) -> np.ndarray:
    """A scalar function over the broadcast of its arguments (arrays or
    scalars), with the broadcast shape.  fn runs on one point at a time
    in C order, so the first point that raises has the lowest flat
    index; the arguments stream through map from flat float buffers,
    which make one Python float at a time where lists of them would
    hold every point's floats at once.

    array, fn's array form if given, runs once on ARRAY_MIN_POINTS or
    more; its values stand if it raises nothing and all are finite."""
    args = [np.asarray(a, dtype=float) for a in args]
    shape = np.broadcast_shapes(*(a.shape for a in args))
    if array is not None and math.prod(shape) >= ARRAY_MIN_POINTS:
        out = np.empty(shape)
        with contextlib.suppress(*EVAL_ERRORS), np.errstate(all="ignore"):
            out[...] = array(*args)
            if np.isfinite(out).all():
                return out
    args = [a if a.shape == shape else np.broadcast_to(a, shape) for a in args]
    flat = (memoryview(a.ravel()) for a in args)
    return np.fromiter(map(fn, *flat), float, math.prod(shape)).reshape(shape)


# the most kernel points the direct route of nested_integral spends on
# one node
_MAX_EVALS = 2e7


def nested_integral(stage, mesh: Mesh, values: np.ndarray, rows=None) -> np.ndarray:
    """Tensor-product trapezoid values of one integral stage at every
    node, for a stack of S trajectories.

    values has shape (S, n+1, dim) and so does the result; with rows
    given (increasing), only those nodes are computed, shape
    (S, len(rows), dim).  A stage of fold d integrates its kernel over
    the d-fold box [0, t_j]^d with every tuple of mesh nodes up to j, in
    itertools.product order, which is (j+1)**d kernel points at node j.
    Consecutive nodes go to the kernel together, one call per block of
    rows; the kernel never sees a tuple past its row's end.  Node 0 is
    the empty integral.

    Without rows, a stage that declares separated terms is integrated
    by prefix sums instead, O(n) factor points per factor; where a
    factor raises or an integral is not finite, the direct route above
    runs as if the stage had no terms.
    """
    if stage.terms is not None and rows is None:
        out = _separated(stage, mesh, values)
        if out is not None:
            return out
    fold = stage.fold
    rows = np.arange(mesh.nodes.size) if rows is None else np.asarray(rows)
    for j in rows.tolist():
        if float(j + 1) ** fold > _MAX_EVALS:
            raise CostLimitError(
                f"nested integral needs {(j + 1) ** fold:.3g} kernel calls"
                f" at node {j}, above the budget {_MAX_EVALS:.3g}"
            )
    stack, _, dim = values.shape
    out = np.zeros((stack, rows.size, dim))
    todo = np.flatnonzero(rows > 0)
    sizes = ((rows[todo] + 1) ** fold).tolist()
    start = 0
    while start < todo.size:
        # grow the block while its zero-padded array fits the budget
        stop = start + 1
        while (
            stop < todo.size
            and stack * (stop + 1 - start) * sizes[stop] * dim <= BLOCK_ELEMENTS
        ):
            stop += 1
        block = todo[start:stop]
        out[:, block] = _row_block(stage, mesh, values, rows[block])
        start = stop
    return out


def _separated(stage, mesh: Mesh, values) -> np.ndarray | None:
    """Every node's integral of a stage from its separated terms, or
    None where a factor raises or an integral is not finite.

    A factor's integral up to t_j is the running sum of inner weight x
    sample over the nodes before j, plus the end weight x the sample at
    j: the direct route's row sum in the same order, so a one-term stage
    of fold 1 with a = None gives its result bit for bit.  Under the
    tensor rule a fold-d term integrates to the product of its d
    factors' integrals.  a is evaluated at nodes 1..n only, as the
    direct route never evaluates node 0.
    """
    stack, size, dim = values.shape
    nodes, table = mesh.nodes, mesh.weights
    integrals = {}
    total = np.zeros((stack, size - 1, dim))
    try:
        with np.errstate(all="ignore"):
            for a, factors in stage.terms:
                term = None
                for b in factors:
                    if b not in integrals:
                        samples = np.asarray(b(nodes, values), dtype=float)
                        if samples.shape != values.shape:
                            samples = np.broadcast_to(samples, values.shape)
                        running = np.cumsum(table._inner[:, None] * samples, axis=1)
                        integrals[b] = (
                            running[:, :-1] + table._end[1:, None] * samples[:, 1:]
                        )
                    term = integrals[b] if term is None else term * integrals[b]
                if a is not None:
                    at = np.asarray(a(nodes[1:]), dtype=float)
                    if at.shape != (size - 1, dim):
                        at = np.broadcast_to(at, (size - 1, dim))
                    term = at * term
                # from 0.0, as the direct route's sum starts, so an all
                # negative-zero integral reads +0.0 there too
                total = total + term
    except EVAL_ERRORS:
        return None
    if not np.isfinite(total).all():
        return None
    out = np.zeros(values.shape)
    out[:, 1:] = total
    return out


def _row_block(stage, mesh: Mesh, values, js) -> np.ndarray:
    """Integrals at the increasing nodes js > 0, in one kernel call."""
    stack, _, dim = values.shape
    w = mesh.weights.rows(js)
    sizes = (js + 1) ** stage.fold
    i = np.arange(sizes[-1])
    valid = i < sizes[:, None]
    # digit c of tuple index i in base j + 1 is the c-th node of the
    # tuple, the last running fastest; past a row's end they wrap
    base = (js + 1)[:, None]
    digits = [i // base ** (stage.fold - 1 - c) % base for c in range(stage.fold)]
    r = np.arange(js.size)[:, None]
    weight = w[r, digits[0]]
    for d in digits[1:]:
        weight = weight * w[r, d]
    weight = np.where(valid, weight, 0.0)
    tuples = np.stack([d[valid] for d in digits], 1)
    result = np.asarray(
        stage.evaluate(
            np.repeat(mesh.nodes[js], sizes),
            mesh.nodes[tuples],
            values[:, tuples],
        ),
        dtype=float,
    )
    if result.shape != (stack, tuples.shape[0], dim):
        raise SpecValidationError(
            f"kernel returned shape {result.shape}, expected"
            f" ({stack}, {tuples.shape[0]}, {dim})"
        )
    padded = np.zeros((stack,) + valid.shape + (dim,))
    padded[:, valid] = result
    # a running sum adds each row's terms in order, as a scalar loop
    # would, and the zeros past a row's end leave it unchanged; the
    # leading 0.0 turns an all negative-zero sum into +0.0 as that
    # loop did; an overflowing kernel can make the sum inf - inf, a nan
    # the callers test for themselves, so numpy warns of nothing
    with np.errstate(all="ignore"):
        return 0.0 + np.cumsum(weight[None, :, :, None] * padded, axis=2)[:, :, -1]


# adaptive_quad's recursion depth and integrand evaluations per call, and
# improper_integral's divergence cap and octave budget
_MAX_DEPTH = 48
_QUAD_EVALS = 100000
_IMPROPER_CAP = 1e8
_OCTAVES = 60


def _simpson_rec(g, a, b, fa, fm, fb, whole, tol, depth, spent):
    spent[0] += 2
    if spent[0] > _QUAD_EVALS:
        raise NumericError(
            f"adaptive quadrature on [{a!r}, {b!r}] spent its budget of"
            f" {_QUAD_EVALS} integrand evaluations"
        )
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = g(lm)
    frm = g(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if not math.isfinite(delta):
        raise NumericError(
            f"adaptive quadrature estimate on [{a!r}, {b!r}] is not finite"
        )
    if depth <= 0 or abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    return _simpson_rec(
        g, a, m, fa, flm, fm, left, tol / 2.0, depth - 1, spent
    ) + _simpson_rec(g, m, b, fm, frm, fb, right, tol / 2.0, depth - 1, spent)


def adaptive_quad(
    g: Callable[[float], float],
    a: float,
    b: float,
    tol: float,
) -> float:
    """Adaptive Simpson with Richardson correction.  A panel whose
    estimate is not finite raises NumericError: no tolerance can be met
    there, and the recursion would otherwise run to _MAX_DEPTH.  So
    does a call that would pass _QUAD_EVALS integrand evaluations, as
    one whose tolerance is never met would, towards 2^_MAX_DEPTH.
    """
    if b == a:
        return 0.0
    if b < a:
        raise SpecValidationError("integration bounds must satisfy a <= b")
    fa = g(a)
    fb = g(b)
    m = 0.5 * (a + b)
    fm = g(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson_rec(g, a, b, fa, fm, fb, whole, tol, _MAX_DEPTH, [3])


def _probe_rate(g: Callable[[float], float], w: float) -> float | None:
    """Sample a rate function, mapping failures to None and magnitude
    overflow to +inf."""
    try:
        v = g(w)
    except OverflowError:
        return math.inf
    except EVAL_ERRORS:
        return None
    return v if v > 0.0 else None  # nan is not > 0


@dataclass(frozen=True)
class ImproperResult:
    converged: bool
    value: float
    trace: tuple[tuple[float, float], ...]


_PROBE_POINTS = (0.0, 1e-6, 0.5, 1.0, 10.0, 1e3)


def _inverse_rate(g: Callable[[float], float]) -> Callable[[float], float]:
    def h(w: float) -> float:
        r = _probe_rate(g, w)
        if r is None:
            raise NumericError(
                f"rate is not positive at omega={w!r}; the integral of 1/rate"
                " needs a positive rate"
            )
        return 1.0 / r  # 0.0 at an overflowed rate

    return h


def improper_integral(g: Callable[[float], float], tol: float = 1e-6) -> ImproperResult:
    """Integral of 1/g over [0, inf) by octave doubling.

    Returns converged=True with the value (finite blow-up time) when the
    octave increments decay geometrically, or converged=False with value
    +inf when the running total passes _IMPROPER_CAP (1e8) or the
    _OCTAVES (60) octaves are exhausted, which signals divergence (global
    existence).  Small increments end the doubling only while they
    shrink: equal ones are a logarithmic divergence.
    """
    for w in _PROBE_POINTS:
        if _probe_rate(g, w) is None:
            raise NumericError(f"rate must be positive on [0, inf); failed at omega={w!r}")
    h = _inverse_rate(g)
    trace: list[tuple[float, float]] = []

    def panel_tol(total: float) -> float:
        return max(1e-15, 0.01 * tol * max(1.0, total))

    total = adaptive_quad(h, 0.0, 1.0, panel_tol(0.0))
    trace.append((1.0, total))
    incs: list[float] = []
    for k in range(1, _OCTAVES + 1):
        lo, hi = 2.0 ** (k - 1), 2.0**k
        if k == 1:
            inc = adaptive_quad(h, lo, hi, panel_tol(total))
        else:
            # map [lo, hi] to [1/hi, 1/lo] via omega = 1/v so the panel
            # stays O(1) wide however far out the tail goes
            def mapped(v: float) -> float:
                return h(1.0 / v) / (v * v)

            inc = adaptive_quad(mapped, 1.0 / hi, 1.0 / lo, panel_tol(total))
        total += inc
        trace.append((hi, total))
        if total > _IMPROPER_CAP:
            return ImproperResult(False, math.inf, tuple(trace))
        incs.append(inc)
        if len(incs) >= 2:
            scale = max(1.0, total)
            prev, last = incs[-2], incs[-1]
            if last < prev < tol * scale:
                if prev > 0.0 and 0.0 < last / prev < 0.9:
                    ratio = last / prev
                    tail = last * ratio / (1.0 - ratio)
                else:
                    tail = last
                if tail < tol * scale:
                    return ImproperResult(True, total + tail, tuple(trace))
    return ImproperResult(False, math.inf, tuple(trace))

