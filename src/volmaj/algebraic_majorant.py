"""Algebraic majorants: tangency radius, horizon, and branch.

Here the bound at time t is the smallest root r(t) of r = c * f(r, t)
with c a bound on the inverse of the linear part.  The root exists up
to the first time the line touches the graph tangentially:

    r = c * f(r, T),   1 = c * f_r(r, T).

f_r is always the exact derivative of f's expression tree
(expr.derivative), so the pair solved is f's own tangency.  A damped
Newton iteration on the 2x2 system places that pair.  The horizon
returned is the largest time just below Newton's at which its radius r
witnesses a root, c * f(r, t) - r <= 0 widened upward by a few ulps of
r: under the convexity screen that proves a branch root exists up to
it.  A Newton point that r witnesses no root near is rejected.

The branch r(t) below the horizon is the smallest root at each node.
The spec's own convexity screen, run once per spec, chooses the method.
If it fails, each node runs the monotone iteration r <- c * f(r, t)
from 0.  If it passes (f convex and nondecreasing in r and t on its
grid), g(r) = c * f(r, t) - r is convex with g >= 0 left of its
smallest root, so Newton's method from below converges to that root
monotonically and never overshoots (Kantorovich's majorant principle);
each node then starts from the previous node's root, since r(t) is
nondecreasing.

The screen itself evaluates f and f_r over its 128 x 128 grid by one
call each of their compiled array forms where those serve, and walks in
Python only the rows and columns that hold a violation.

The tangency scan and Newton runs work on Python floats, a residual
being a pair.  Only the 2x2 Newton system goes to np.linalg.solve: a
hand-written solve would not round as LAPACK's pivoted one does.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import expr
from .errors import EVAL_ERRORS, DomainError, NumericError, SpecValidationError
from .meshes import Mesh
from .quadrature import graded_mesh, pointwise

__all__ = [
    "LyapunovSpec",
    "TangencyResult",
    "BranchResult",
    "ConvexityReport",
    "LyapunovSolution",
    "solve_tangency",
    "majorant_branch",
    "check_convexity",
    "solve_lyapunov",
]


# the residual, relative to 1 + max(r, t), to which the tangency system
# is solved
_TANGENCY_FLOOR = 1e-13

# the iterations majorant_branch allows one node, and the step,
# relative to 1 + r, at which a node is done
_BRANCH_MAX_ITER = 50000
_BRANCH_TOL = 1e-12

# the points per axis of the convexity screen over [0, r_max] x [0, t_max]
_SCREEN_POINTS = 128

# the damped Newton steps one tangency seed is allowed
_NEWTON_MAX_ITER = 80

# the ulps of the radius by which a horizon witness widens c*f - r upward
_WITNESS_ULPS = 4

# the arguments of f and f_r, in order
_NAMES = ("r", "t")


@dataclass(frozen=True)
class LyapunovSpec:
    """Algebraic majorant data: the growth map f as expression text over
    (r, t).  Its slope f_r = df/dr is always the exact derivative of f's
    tree, never declared.

    f must vanish at the origin and c * f_r(0, 0), c being
    inv_norm_bound, lie in [0, 1), otherwise even the zero state is not
    dominated; both must be evaluable there.  r_max / t_max bound the
    search box.

    The text parses at construction, and the origin is checked by the
    tree walker; f_form and f_r_form compile on first use.  The
    convexity screen maps each form through its array form, which gives
    the scalar form's values bit for bit for + - * /, sin, cos, sqrt and
    abs and within numpy's last ulp for exp, log, tan and ^; the tangency
    solve and the branch call the scalar forms.  The screen's report,
    convexity, is computed on first use and kept: the spec is immutable,
    so it is screened once.
    """

    f: str
    inv_norm_bound: float = 1.0
    r_max: float = 100.0
    t_max: float = 100.0
    name: str = "lyapunov"

    f_form = functools.cached_property(lambda self: expr.Form(self.f, _NAMES, "f"))
    f_r_form = functools.cached_property(
        lambda self: expr.Form(expr.derivative(self.f_form.tree, "r"), _NAMES)
    )

    def __post_init__(self):
        if not (self.inv_norm_bound > 0) or not math.isfinite(self.inv_norm_bound):
            raise SpecValidationError(
                f"inverse-norm bound must be positive and finite,"
                f" got {self.inv_norm_bound!r}"
            )
        for label in ("r_max", "t_max"):
            v = getattr(self, label)
            if not 0 < v < math.inf:
                raise SpecValidationError(
                    f"{label} must be positive and finite, got {v!r}"
                )
        origin = []
        for label, form in (("f", self.f_form), ("f_r", self.f_r_form)):
            try:
                origin.append(expr.evaluate(form.tree, {"r": 0.0, "t": 0.0}))
            except DomainError as exc:
                raise SpecValidationError(f"{label}(0, 0) is not evaluable: {exc}") from exc
        f00, slope0 = origin[0], self.inv_norm_bound * origin[1]
        if not (abs(f00) <= 1e-12):
            raise SpecValidationError(
                f"f must vanish at the origin, got f(0, 0) = {f00!r}"
            )
        if not (0.0 <= slope0 < 1.0):
            raise SpecValidationError(
                f"contraction at the origin requires c * f_r(0, 0) in [0, 1),"
                f" got {slope0!r}"
            )

    @functools.cached_property
    def convexity(self) -> ConvexityReport:
        """check_convexity's report on this map, run once per spec."""
        return check_convexity(self)


@dataclass(frozen=True)
class TangencyResult:
    radius: float
    horizon: float
    fixed_residual: float
    slope_residual: float
    newton_iterations: int


@dataclass(frozen=True, eq=False)
class BranchResult:
    values: np.ndarray
    iterations: np.ndarray
    converged_mask: np.ndarray


@dataclass(frozen=True)
class ConvexityReport:
    passed: bool
    degenerate: bool
    violations: tuple[tuple[str, float, float, float], ...]
    samples: int


@dataclass(frozen=True, eq=False)
class LyapunovSolution:
    tangency: TangencyResult
    mesh: Mesh
    radii: np.ndarray
    converged_mask: np.ndarray
    iterations: np.ndarray


def _residual(spec: LyapunovSpec, r: float, t: float) -> tuple[float, float]:
    c = spec.inv_norm_bound
    return c * spec.f_form.scalar(r, t) - r, c * spec.f_r_form.scalar(r, t) - 1.0


def _try_residual(spec: LyapunovSpec, r: float, t: float) -> tuple[float, float] | None:
    if r < 0.0 or t < 0.0 or r > 10.0 * spec.r_max or t > 10.0 * spec.t_max:
        return None
    try:
        g, dg = _residual(spec, r, t)
    except EVAL_ERRORS:
        return None
    return (g, dg) if math.isfinite(g) and math.isfinite(dg) else None


def _newton_from(
    spec: LyapunovSpec, seed: tuple[float, float]
) -> tuple[float, float, int] | None:
    r, t = seed
    res = _try_residual(spec, r, t)
    if res is None:
        return None
    for it in range(_NEWTON_MAX_ITER):
        g, dg = res
        nr = max(abs(g), abs(dg))
        if nr <= _TANGENCY_FLOOR * (1.0 + max(abs(r), abs(t))):
            return r, t, it
        # forward differences, bumping r before t
        hr, ht = 1e-7 * max(1.0, abs(r)), 1e-7 * max(1.0, abs(t))
        res_r = _try_residual(spec, r + hr, t)
        res_t = None if res_r is None else _try_residual(spec, r, t + ht)
        if res_t is None:
            return None
        jac = [
            [(res_r[0] - g) / hr, (res_t[0] - g) / ht],
            [(res_r[1] - dg) / hr, (res_t[1] - dg) / ht],
        ]
        try:
            dr, dt = np.linalg.solve(jac, [-g, -dg]).tolist()
        except np.linalg.LinAlgError:
            return None
        lam = 1.0
        while lam >= 1e-6:
            cand = r + lam * dr, t + lam * dt
            res_c = _try_residual(spec, *cand)
            if res_c is not None:
                nc = max(abs(res_c[0]), abs(res_c[1]))
                if nc < (1.0 - 0.25 * lam) * nr or nc < 1e-14:
                    (r, t), res = cand, res_c
                    break
            lam *= 0.5
        else:
            return None  # no damped step lowers the residual
    return None


def _witnessed_horizon(spec: LyapunovSpec, r: float, t_newton: float) -> float:
    """The largest float in [t_newton * (1 - 1e-8), t_newton] that r > 0
    witnesses, by bisection down to adjacent floats.

    r witnesses t when g = c*f(r, t) - r, widened upward by _WITNESS_ULPS
    ulps of r, is <= 0.  Under the convexity screen g(0, t) >= 0 and g is
    nondecreasing in t, so a branch root exists at t and at every earlier
    time.  NumericError if the lower end has no witness: then Newton's
    point is no tangency."""
    c, f, slack = spec.inv_norm_bound, spec.f_form.scalar, _WITNESS_ULPS * math.ulp(r)

    def witnessed(t: float) -> bool:
        try:
            return c * f(r, t) - r <= -slack
        except EVAL_ERRORS:
            return False

    lo, hi = t_newton * (1.0 - 1e-8), math.nextafter(t_newton, math.inf)
    if not witnessed(lo):
        raise NumericError(
            f"Newton's point (r={r!r}, t={t_newton!r}) is no tangency:"
            f" r witnesses no branch root at t={lo!r}"
        )
    while math.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if witnessed(mid) else (lo, mid)
    return lo


def _near(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a))


def solve_tangency(spec: LyapunovSpec) -> TangencyResult:
    """Locate the tangency point (radius, horizon), the horizon witnessed.

    A 24x24 log-spaced scan seeds a damped Newton iteration on the 2x2
    tangency system; every converged root is kept and duplicates are
    merged.  More than one distinct root means the surface has several
    tangency basins and the result would be ambiguous, which raises
    NumericError, as does a Newton horizon T_N beyond t_max.  The horizon
    is the largest float in [T_N * (1 - 1e-8), T_N] that Newton's radius
    witnesses (_witnessed_horizon); the residuals are those at the
    returned pair, so fixed_residual <= 0 is the witness.
    """
    r_grid = (np.geomspace(1e-4, 1.0, 24) * spec.r_max).tolist()
    t_grid = (np.geomspace(1e-4, 1.0, 24) * spec.t_max).tolist()
    scored: list[tuple[float, float, float]] = []
    for r in r_grid:
        for t in t_grid:
            res = _try_residual(spec, r, t)
            if res is not None:
                scored.append((max(abs(res[0]), abs(res[1])), r, t))
    if not scored:
        raise NumericError("tangency scan found no evaluable point")
    scored.sort()
    roots: list[tuple[float, float, int]] = []
    for score, r, t in scored[:12]:
        hit = _newton_from(spec, (r, t))
        if hit is None:
            continue
        rr, tt, its = hit
        if rr <= 0.0 or tt <= 0.0:
            continue
        if not any(_near(er, rr, 1e-6) and _near(et, tt, 1e-6) for er, et, _ in roots):
            roots.append((rr, tt, its))
    if not roots:
        raise NumericError(
            f"Newton found no tangency from the best scan seeds (best scan"
            f" residual {scored[0][0]:.3e} at r={scored[0][1]:.3g},"
            f" t={scored[0][2]:.3g})"
        )
    if len(roots) > 1:
        listing = ", ".join(f"(r={r:.6g}, t={t:.6g})" for r, t, _ in roots)
        raise NumericError(f"multiple tangency candidates: {listing}")
    radius, t_newton, iterations = roots[0]
    if t_newton > spec.t_max:
        raise NumericError(
            f"no tangency below t_max={spec.t_max!r}: the smallest root"
            " persists on the whole window (consider raising t_max)"
        )
    horizon = _witnessed_horizon(spec, radius, t_newton)
    fixed_residual, slope_residual = _residual(spec, radius, horizon)
    return TangencyResult(
        radius=radius,
        horizon=horizon,
        fixed_residual=fixed_residual,
        slope_residual=slope_residual,
        newton_iterations=iterations,
    )


def _plain_node(spec: LyapunovSpec, t: float) -> tuple[float, int, bool]:
    c, f, r = spec.inv_norm_bound, spec.f_form.scalar, 0.0
    for k in range(1, _BRANCH_MAX_ITER + 1):
        try:
            r_new = c * f(r, t)
        except EVAL_ERRORS as exc:
            raise NumericError(f"branch iteration failed at t={t!r}: {exc}") from exc
        if not math.isfinite(r_new) or r_new > 10.0 * spec.r_max:
            raise NumericError(
                f"branch diverges at t={t!r}; the node lies beyond the horizon"
            )
        if abs(r_new - r) <= _BRANCH_TOL * (1.0 + abs(r_new)):
            return r_new, k, True
        r = r_new
    return r, _BRANCH_MAX_ITER, False


def _below_root(
    spec: LyapunovSpec, r: float, t: float
) -> tuple[float, float] | None:
    """(g, g') = (c*f(r, t) - r, c*f_r(r, t) - 1) if r is an admissible
    Newton iterate: evaluable inside the search box with g >= 0 and
    g' <= 0.  Under the convexity screen such a point lies at or below
    the smallest root.  None otherwise."""
    res = _try_residual(spec, r, t)
    return res if res is not None and res[0] >= 0.0 and res[1] <= 0.0 else None


def _newton_step(
    spec: LyapunovSpec, t: float, r: float, g: float, dg: float
) -> tuple[float, float, float, bool] | None:
    """The Newton step from r, halved until the new point is admissible:
    (point, g, g', whether the full step was taken).  None if there is no
    descent direction, the step vanishes or 64 halvings do not suffice."""
    if not dg < 0.0:
        return None
    step = g / -dg
    for halvings in range(64):
        cand = r + step
        if cand == r:
            return None
        nxt = _below_root(spec, cand, t)
        if nxt is not None:
            return cand, nxt[0], nxt[1], halvings == 0
        step *= 0.5
    return None


def _newton_node(
    spec: LyapunovSpec, t: float, r_prev: float
) -> tuple[float, int, bool]:
    r = r_prev
    start = _below_root(spec, r, t)
    if start is None:
        r = 0.0
        start = _below_root(spec, r, t)
        if start is None:
            # not even the origin is admissible; the plain iteration
            # reports what goes wrong there
            return _plain_node(spec, t)
    g, dg = start
    for k in range(1, _BRANCH_MAX_ITER + 1):
        nxt = _newton_step(spec, t, r, g, dg)
        if nxt is not None:
            r_new, g_new, dg, full = nxt
            if full and r_new - r <= _BRANCH_TOL * (1.0 + r_new):
                return r_new, k, True
            # g falls along admissible iterates until arithmetic noise
            # takes over; a step that does not lower it is a stall
            r, g, falls = r_new, g_new, g_new < g
            if falls:
                continue
        # stalled at the minimum of g: no admissible step lowers it
        if g <= _BRANCH_TOL * (1.0 + r):
            return r, k, True  # a root; at the horizon, the double one
        if g <= _TANGENCY_FLOOR * (1.0 + max(r, t)):
            # within the tangency residual floor but no root: the
            # node may lie past the true horizon by that much
            return r, k, False
        # beyond the horizon, or f's domain ends the branch: the plain
        # iteration names which
        return _plain_node(spec, t)
    return r, _BRANCH_MAX_ITER, False


def majorant_branch(spec: LyapunovSpec, mesh: Mesh) -> BranchResult:
    """Smallest-root branch r(t) at every mesh node.

    The spec's own convexity screen, spec.convexity, chooses the method.
    If it failed, each node iterates r <- c * f(r, t) from 0, which
    increases monotonically to the smallest root; convergence slows to
    O(1/k) exactly at the horizon.

    If it passed, each node runs a damped Newton iteration on
    g(r) = c * f(r, t) - r.  It starts from the previous node's root when
    g >= 0 and c * f_r <= 1 there, else from 0, and accepts a step only
    if the new point is evaluable with g >= 0 and c * f_r <= 1, halving
    it otherwise; under the screen every iterate stays at or below the
    smallest root.  A node is done when a full Newton step is within
    _BRANCH_TOL (relative to 1 + r).  When no halved step is accepted, or
    an accepted one no longer lowers g, the iteration has stalled at the
    minimum of g: if g is within _BRANCH_TOL there, the node sits on the
    double root at the horizon and counts as converged; if g is only
    within the tangency residual floor, the node may lie past the true
    horizon by that much (on a mesh that ends past the horizon
    solve_tangency witnesses), and it is kept unconverged.  A stall with
    g above the floor hands the node to the plain iteration, which names
    why there is no root: the node lies beyond the horizon, or f stops
    being evaluable below it.

    The mask records which nodes met _BRANCH_TOL within _BRANCH_MAX_ITER
    iterations.  A node beyond the horizon raises NumericError either
    way, as the plain iteration escapes the search box.
    """
    newton = spec.convexity.passed
    values = np.zeros(mesh.nodes.size)
    iterations = np.zeros(mesh.nodes.size, dtype=int)
    mask = np.zeros(mesh.nodes.size, dtype=bool)
    r = 0.0
    for j, t in enumerate(mesh.nodes):
        if newton:
            r, k, done = _newton_node(spec, float(t), r)
        else:
            r, k, done = _plain_node(spec, float(t))
        values[j], iterations[j], mask[j] = r, k, done
    return BranchResult(values, iterations, mask)


def _nan_on_error(form: expr.Form) -> Callable[[float, float], float]:
    """The scalar form with an evaluation that raises read as nan; it
    compiles on its first call."""

    def scalar(r: float, t: float) -> float:
        try:
            return form.scalar(r, t)
        except EVAL_ERRORS:
            return math.nan

    return scalar


def check_convexity(spec: LyapunovSpec) -> ConvexityReport:
    """Sample convexity and monotonicity of f over the uniform grid of
    _SCREEN_POINTS radii in [0, r_max] and as many times in [0, t_max].

    Checks, with small negative slack for roundoff: f nondecreasing in
    r and in t, f convex in r (second differences), and the slope f_r
    nondecreasing in r and in t.  A non-finite f is a violation of its
    own.  An identically zero f passes but is flagged degenerate.

    f and the slope are each mapped over the grid by
    quadrature.pointwise, through the spec's array form where it serves;
    a sample where either raises or gives nan is nan in both, so the
    report is the scalar forms' in every case.  The checks are array
    comparisons; only rows and columns that hold a violation are walked,
    so the violations come in the order of a point-by-point scan
    (not-finite values, then each t row, then each r column), capped at
    50.
    """
    r_grid = np.linspace(0.0, spec.r_max, _SCREEN_POINTS)
    t_grid = np.linspace(0.0, spec.t_max, _SCREEN_POINTS)
    r, t = r_grid[None, :], t_grid[:, None]
    fvals = pointwise(_nan_on_error(spec.f_form), r, t, array=spec.f_form.array)
    svals = pointwise(_nan_on_error(spec.f_r_form), r, t, array=spec.f_r_form.array)
    failed = np.isnan(fvals) | np.isnan(svals)
    fvals[failed] = svals[failed] = math.nan
    violations: list[tuple[str, float, float, float]] = []

    def note(kind: str, r: float, t: float, v: float) -> bool:
        """Record one violation; False once the cap is reached."""
        violations.append((kind, float(r), float(t), float(v)))
        return len(violations) < 50

    not_finite = ~np.isfinite(fvals)
    for i, j in zip(*np.nonzero(not_finite)):
        if not note("not-finite", r_grid[j], t_grid[i], fvals[i, j]):
            break
    fvals[not_finite] = math.nan
    # the largest |f| over the finite samples, without a grid-sized copy
    any_finite = not bool(not_finite.all())
    top = float(max(np.nanmax(fvals), -np.nanmin(fvals))) if any_finite else 0.0
    scale = max(1.0, top)
    degenerate = any_finite and top == 0.0
    if len(violations) < 50:
        _scan(fvals, svals, r_grid, t_grid, 1e-12 * scale, 1e-10 * scale, note)
    return ConvexityReport(
        passed=not violations,
        degenerate=degenerate,
        violations=tuple(violations),
        samples=int(fvals.size),
    )


def _scan(
    fvals: np.ndarray,
    svals: np.ndarray,
    r_grid: np.ndarray,
    t_grid: np.ndarray,
    slack1: float,
    slack2: float,
    note: Callable[[str, float, float, float], bool],
) -> None:
    """Note the monotonicity and convexity violations, every t row first,
    then every r column, until note reports the cap.  The comparisons run
    on the whole grid at once; comparisons with nan are false, so
    non-finite samples violate nothing here."""
    with np.errstate(all="ignore"):
        f_dec = np.diff(fvals, axis=1) < -slack1
        s_dec = np.diff(svals, axis=1) < -slack2
        slopes = np.diff(fvals, axis=1) / np.diff(r_grid)
        concave = slopes[:, 1:] - slopes[:, :-1] < -slack2
    hits = f_dec.any(axis=1) | s_dec.any(axis=1) | concave.any(axis=1)
    for i in np.flatnonzero(hits):
        row, srow, t = fvals[i], svals[i], t_grid[i]
        for j in np.flatnonzero(f_dec[i] | s_dec[i]) + 1:
            if f_dec[i, j - 1] and not note(
                "f-decreasing-in-r", r_grid[j], t, row[j] - row[j - 1]
            ):
                return
            if s_dec[i, j - 1] and not note(
                "slope-decreasing-in-r", r_grid[j], t, srow[j] - srow[j - 1]
            ):
                return
        for j in np.flatnonzero(concave[i]) + 1:
            h1 = r_grid[j] - r_grid[j - 1]
            h2 = r_grid[j + 1] - r_grid[j]
            second = (row[j + 1] - row[j]) / h2 - (row[j] - row[j - 1]) / h1
            if not note("f-not-convex-in-r", r_grid[j], t, second):
                return
    with np.errstate(all="ignore"):
        f_dec = np.diff(fvals, axis=0) < -slack1
        s_dec = np.diff(svals, axis=0) < -slack2
    for j in np.flatnonzero(f_dec.any(axis=0) | s_dec.any(axis=0)):
        col, scol, r = fvals[:, j], svals[:, j], r_grid[j]
        for i in np.flatnonzero(f_dec[:, j] | s_dec[:, j]) + 1:
            if f_dec[i - 1, j] and not note(
                "f-decreasing-in-t", r, t_grid[i], col[i] - col[i - 1]
            ):
                return
            if s_dec[i - 1, j] and not note(
                "slope-decreasing-in-t", r, t_grid[i], scol[i] - scol[i - 1]
            ):
                return


def solve_lyapunov(
    spec: LyapunovSpec, n: int = 200, t_end: float | None = None
) -> LyapunovSolution:
    """Tangency point plus the branch on a uniform mesh up to t_end
    (default: the witnessed horizon itself, just below the double root);
    a t_end past the witnessed horizon raises SpecValidationError.

    When the spec's screen, spec.convexity, passed, the branch runs the
    warm-started Newton iteration and the horizon node converges by the
    stall rule of majorant_branch.  Otherwise the plain iteration reaches
    the horizon node only like O(1/k), which the mask records."""
    tangency = solve_tangency(spec)
    if t_end is None:
        t_end = tangency.horizon
    elif t_end > tangency.horizon:
        raise SpecValidationError(
            f"end time {t_end!r} lies beyond the horizon {tangency.horizon!r}"
        )
    mesh = graded_mesh(t_end, n, 1.0)
    branch = majorant_branch(spec, mesh)
    return LyapunovSolution(
        tangency=tangency,
        mesh=mesh,
        radii=branch.values,
        converged_mask=branch.converged_mask,
        iterations=branch.iterations,
    )
