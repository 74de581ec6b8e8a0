"""Tangency system, radius branch, and convexity screening."""

import dataclasses
import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from volmaj import algebraic_majorant, cli, expr
from volmaj.algebraic_majorant import (
    ConvexityReport,
    LyapunovSpec,
    check_convexity,
    majorant_branch,
    solve_lyapunov,
    solve_tangency,
)
from volmaj.conditions import ConditionStatus, run_suite
from volmaj.corpus import corpus_build
from volmaj.errors import (
    EVAL_ERRORS,
    DomainError,
    ExprError,
    NumericError,
    SpecValidationError,
)
from volmaj.integral_majorant import MajorantSpec, solve_majorant
from volmaj.picard import solve_main
from volmaj.quadrature import graded_mesh, pointwise

QUAD = LyapunovSpec(
    f="t*r*r + t",
    inv_norm_bound=1.0,
    r_max=10.0,
    t_max=5.0,
    name="quadratic",
)


def inline(text, **box):
    """The spec the CLI builds from an inline [lyapunov] f."""
    values = {"f": text, "c": 1.0, "r_max": 10.0, "t_max": 5.0, **box}
    return dataclasses.replace(cli._inline_lyapunov(values), name=text)


CONCAVE = LyapunovSpec(
    f="t*(sqrt(r + 1) - 1)",
    r_max=1.0,
    t_max=1.0,
    name="concave",
)

EXP = LyapunovSpec(
    f="t*exp(r)",
    inv_norm_bound=1.0,
    r_max=10.0,
    t_max=5.0,
    name="exponential",
)

# f falls in t past t = 1, so the screen fails, yet the branch up to
# t = 0.45 is a smooth, nonzero smallest root
HUMP = LyapunovSpec(f="t*r*r + t*exp(-t)", r_max=10.0, t_max=5.0, name="hump")


def closed_branch(t):
    return 0.0 if t == 0.0 else (1.0 - math.sqrt(1.0 - 4.0 * t * t)) / (2.0 * t)


class TestTangency:
    def test_unit_inverse_bound(self):
        tng = solve_tangency(QUAD)
        assert tng.radius == pytest.approx(1.0, abs=1e-10)
        assert tng.horizon == pytest.approx(0.5, abs=1e-10)

    def test_doubled_inverse_bound(self):
        spec = dataclasses.replace(QUAD, inv_norm_bound=2.0, name="doubled")
        tng = solve_tangency(spec)
        # eliminating the slope equation by hand: r = 1/(4t) gives t = 1/4
        assert tng.radius == pytest.approx(1.0, abs=1e-9)
        assert tng.horizon == pytest.approx(0.25, abs=1e-9)

    def test_exponential_growth(self):
        tng = solve_tangency(EXP)
        assert tng.radius == pytest.approx(1.0, abs=1e-9)
        assert tng.horizon == pytest.approx(1.0 / math.e, abs=1e-9)

    def test_no_tangency_reported(self):
        spec = LyapunovSpec(
            f="t + 0.1*r",
            inv_norm_bound=1.0,
            r_max=50.0,
            t_max=100.0,
            name="subunit slope",
        )
        with pytest.raises(NumericError):
            solve_tangency(spec)


# The tangency system on numpy arrays, as solve_tangency ran it before its
# scan and Newton runs moved to Python floats: the reference route.


def _residual_np(spec, r, t):
    c = spec.inv_norm_bound
    f, f_r = spec.f_form.scalar, spec.f_r_form.scalar
    return np.array([c * f(r, t) - r, c * f_r(r, t) - 1.0])


def _try_residual_np(spec, r, t):
    if r < 0.0 or t < 0.0 or r > 10.0 * spec.r_max or t > 10.0 * spec.t_max:
        return None
    try:
        v = _residual_np(spec, r, t)
    except EVAL_ERRORS:
        return None
    return v if np.all(np.isfinite(v)) else None


def _newton_from_np(spec, seed, max_iter=80):
    x = np.array(seed, dtype=float)
    res = _try_residual_np(spec, x[0], x[1])
    if res is None:
        return None
    for it in range(max_iter):
        nr = float(np.max(np.abs(res)))
        if nr <= 1e-13 * (1.0 + float(np.max(np.abs(x)))):
            return float(x[0]), float(x[1]), it
        jac = np.empty((2, 2))
        for col in range(2):
            h = 1e-7 * max(1.0, abs(x[col]))
            bumped = x.copy()
            bumped[col] += h
            res_h = _try_residual_np(spec, bumped[0], bumped[1])
            if res_h is None:
                return None
            jac[:, col] = (res_h - res) / h
        try:
            step = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError:
            return None
        lam = 1.0
        while lam >= 1e-6:
            cand = x + lam * step
            res_c = _try_residual_np(spec, cand[0], cand[1])
            if res_c is not None:
                nc = float(np.max(np.abs(res_c)))
                if nc < (1.0 - 0.25 * lam) * nr or nc < 1e-14:
                    x, res = cand, res_c
                    break
            lam *= 0.5
        else:
            return None
    return None


def _numpy_route(monkeypatch):
    for name, fn in [
        ("_residual", _residual_np),
        ("_try_residual", _try_residual_np),
        ("_newton_from", _newton_from_np),
    ]:
        monkeypatch.setattr(algebraic_majorant, name, fn)


# f = t*(r^2 + k) has its tangency at t = 0.5/sqrt(k); sine_bvp's is k = 1
CLOSED_FORM_KS = (0.9, 0.951, 1.0208, 1.1, 1.0)
TANGENCY_SPECS = [
    *(inline(f"t*(r^2 + {k})") for k in CLOSED_FORM_KS[:4]),
    corpus_build("sine_bvp").lyapunov,
    inline("t*r^3 + t"),
    inline("t*(exp(r) - 1) + t"),
]


class TestTangencyOnFloats:
    @pytest.mark.parametrize("spec", TANGENCY_SPECS, ids=lambda s: s.name)
    def test_every_field_equals_the_numpy_route(self, spec, monkeypatch):
        got = solve_tangency(spec)
        _numpy_route(monkeypatch)
        want = solve_tangency(spec)
        for field in dataclasses.fields(want):
            assert getattr(got, field.name) == getattr(want, field.name), field.name

    def test_a_singular_tangency_is_witnessed_below_it(self, monkeypatch):
        # g(0, t) = 0 at every t and the tangency t = 1 sits at r = 0, where
        # the Jacobian is singular: Newton stops short of it, at a point its
        # radius witnesses, so the horizon is a lower bound on t = 1
        spec = inline("t*exp(r) - t")
        got = solve_tangency(spec)
        assert 0.0 < got.radius < 1e-6
        assert got.horizon == pytest.approx(0.999999532, rel=1e-9)
        assert got.horizon < 1.0
        assert got.fixed_residual <= 0.0
        _numpy_route(monkeypatch)
        assert solve_tangency(spec) == got

    def test_a_point_no_witness_supports_raises(self, monkeypatch):
        # Newton's point moved past the horizon 0.5: at r = 1, c*f - r is
        # 0.2 > 0 all over the bracket below t = 0.6
        monkeypatch.setattr(
            algebraic_majorant, "_newton_from", lambda spec, seed: (1.0, 0.6, 3)
        )
        with pytest.raises(NumericError) as got:
            solve_tangency(QUAD)
        assert str(got.value) == (
            "Newton's point (r=1.0, t=0.6) is no tangency: r witnesses no"
            " branch root at t=0.5999999939999999"
        )

    def test_newton_past_t_max_is_no_tangency_below_it(self):
        # the scan seeds lie below t_max = 0.4; Newton leaves it for t = 0.5
        spec = dataclasses.replace(QUAD, t_max=0.4)
        with pytest.raises(NumericError, match="no tangency below t_max=0.4"):
            solve_tangency(spec)


@pytest.mark.parametrize(
    "spec, k", zip(TANGENCY_SPECS, CLOSED_FORM_KS), ids=[s.name for s in TANGENCY_SPECS[:5]]
)
def test_the_horizon_is_witnessed_below_the_closed_form(spec, k):
    # the Newton horizon lay one ulp above 0.5/sqrt(k) for k = 1.0208 and 1.1
    exact = 0.5 / math.sqrt(k)
    tng = solve_tangency(spec)
    assert tng.horizon <= exact
    assert tng.fixed_residual <= 0.0
    assert (exact - tng.horizon) / exact <= 1e-9


@pytest.mark.parametrize(
    "spec", [*TANGENCY_SPECS, inline("t*exp(r) - t")], ids=lambda s: s.name
)
def test_the_branch_converges_up_to_the_witnessed_horizon(spec):
    # a root exists at every node up to the printed horizon, so Newton
    # from below meets the branch tolerance at the last node too
    assert spec.convexity.passed
    sol = solve_lyapunov(spec, n=50)
    assert sol.mesh.end == sol.tangency.horizon
    assert np.all(sol.converged_mask)
    assert sol.radii[-1] <= sol.tangency.radius


def _plain_branch(spec, mesh):
    """The plain iteration r <- c*f(r, t) from 0 at every node, whatever
    the screen says: (values, iterations)."""
    runs = [algebraic_majorant._plain_node(spec, float(t)) for t in mesh.nodes]
    values, iterations, _ = zip(*runs)
    return np.array(values), np.array(iterations)


class TestBranch:
    def test_closed_form_on_mesh(self):
        mesh = graded_mesh(0.45, 9, 1.0)
        branch = majorant_branch(QUAD, mesh)
        want = np.array([closed_branch(float(t)) for t in mesh.nodes])
        assert np.all(branch.converged_mask)
        assert np.max(np.abs(branch.values - want)) < 1e-9

    def test_value_at_three_tenths(self):
        mesh = graded_mesh(0.3, 3, 1.0)
        branch = majorant_branch(QUAD, mesh)
        assert branch.values[-1] == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_monotone_in_time(self):
        mesh = graded_mesh(0.49, 50, 1.0)
        branch = majorant_branch(QUAD, mesh)
        assert np.all(np.diff(branch.values) >= -1e-12)

    def test_divergence_past_horizon(self):
        mesh = graded_mesh(0.8, 4, 1.0)  # horizon is 0.5
        with pytest.raises(NumericError):
            majorant_branch(QUAD, mesh)


class TestNewtonBranch:
    """The warm-started Newton branch against the plain iteration."""

    @pytest.mark.parametrize(
        "spec",
        [QUAD, inline("t*(r^2 + 0.9)"), inline("t*(r^2 + 1.0208)"),
         inline("t*(r^2 + 1.1)"), EXP],
        ids=lambda spec: spec.name,
    )
    def test_matches_plain_iteration_up_to_the_horizon(self, spec):
        assert spec.convexity.passed
        mesh = graded_mesh(solve_tangency(spec).horizon, 400, 1.0)
        fast = majorant_branch(spec, mesh)
        plain_values, plain_iterations = _plain_branch(spec, mesh)
        inside = slice(0, -1)  # every node strictly inside the horizon
        assert np.max(np.abs(fast.values[inside] - plain_values[inside])) < 1e-10
        assert np.all(fast.converged_mask[inside])
        assert np.all(np.diff(fast.values) >= 0.0)
        assert fast.iterations[-1] < 100
        # warm starts keep it near four Newton steps a node (five to
        # seven from 0); the plain iteration spends 50000 on the horizon
        assert fast.iterations.sum() < 4 * mesh.n
        assert plain_iterations.sum() > 50000

    def test_horizon_node_converges_with_an_exact_slope(self):
        sol = solve_lyapunov(QUAD, n=16)
        assert np.all(sol.converged_mask)
        assert sol.radii[-1] == pytest.approx(1.0, abs=1e-7)
        assert sol.radii[-1] <= 1.0

    @pytest.mark.parametrize("k", [0.9, 1.0208, 1.1])
    def test_derived_slope_places_the_horizon_on_the_closed_form(self, k):
        # a finite-difference slope put the k = 1.0208 horizon 2.5e-10
        # past 0.5/sqrt(k), where the last branch node has no root
        spec = inline(f"t*(r^2 + {k!r})")
        sol = solve_lyapunov(spec, n=400)
        exact = 0.5 / math.sqrt(k)
        assert abs(sol.tangency.horizon - exact) <= 1e-15 * exact
        assert np.all(sol.converged_mask)

    def test_overshooting_horizon_node_stays_unconverged(self, monkeypatch):
        # the node lies 1e-14 past the horizon 0.5, inside the tangency
        # floor but beyond a tolerance of 1e-15: no root exists there
        monkeypatch.setattr(algebraic_majorant, "_BRANCH_TOL", 1e-15)
        mesh = graded_mesh(0.5 * (1.0 + 1e-14), 40, 1.0)
        branch = majorant_branch(QUAD, mesh)
        assert np.all(branch.converged_mask[:-1])
        assert not branch.converged_mask[-1]
        assert branch.values[-1] == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize(
        "spec, end",
        [
            (QUAD, 0.8),
            (QUAD, 0.5 * (1.0 + 1e-6)),
            (inline("t*(r^2 + 1)"), 0.5 * (1.0 + 1e-6)),
            (EXP, 0.5),
        ],
        ids=["quad far", "quad near", "inline near", "exp"],
    )
    def test_divergence_past_horizon_under_the_screen(self, spec, end):
        assert spec.convexity.passed
        mesh = graded_mesh(end, 4, 1.0)
        with pytest.raises(NumericError, match="beyond the horizon"):
            majorant_branch(spec, mesh)

    def test_root_outside_the_domain_of_f_is_not_claimed(self):
        # the screen passes on r <= 0.29, but past t = 0.3 the smallest
        # root exceeds 0.3, where f stops being evaluable; halved steps
        # creep up to 0.3 and must not count as convergence; the stall
        # names the domain, not the horizon, as the cause
        spec = inline("t*(r^2 + 1) + 0*sqrt(0.3 - r)", r_max=0.29, t_max=1.0)
        assert spec.convexity.passed
        with pytest.raises(NumericError, match="outside real domain"):
            majorant_branch(spec, graded_mesh(0.45, 9, 1.0))

    @pytest.mark.parametrize("spec", [HUMP, CONCAVE], ids=lambda spec: spec.name)
    def test_failed_screen_keeps_the_plain_iteration(self, spec, monkeypatch):
        assert not spec.convexity.passed

        def no_newton(*args):
            raise AssertionError("Newton ran on a map that fails the screen")

        monkeypatch.setattr(algebraic_majorant, "_newton_node", no_newton)
        mesh = graded_mesh(0.45, 8, 1.0)
        branch = majorant_branch(spec, mesh)
        values, iterations = _plain_branch(spec, mesh)
        assert np.array_equal(branch.values, values)
        assert np.array_equal(branch.iterations, iterations)


class TestOwnedScreen:
    """A spec runs its convexity screen once, and every caller reads it."""

    def test_the_screen_is_kept_and_equals_a_fresh_one(self):
        spec = dataclasses.replace(QUAD, name="kept")
        assert spec.convexity is spec.convexity
        assert spec.convexity == check_convexity(spec)
        assert CONCAVE.convexity == check_convexity(CONCAVE)

    def test_one_screen_serves_branch_solve_and_condition_g(self, monkeypatch):
        calls = []
        screen = algebraic_majorant.check_convexity

        def counted(spec, *grids):
            calls.append(spec.name)
            return screen(spec, *grids)

        # the spec looks the module function up when first used
        monkeypatch.setattr(algebraic_majorant, "check_convexity", counted)
        spec = dataclasses.replace(QUAD, name="once")
        majorant_branch(spec, graded_mesh(0.45, 9, 1.0))
        solve_lyapunov(spec, n=16)
        assert run_suite(lyapunov=spec).outcomes["G"].status is ConditionStatus.PASS
        assert calls == ["once"]

    def test_condition_g_reads_the_spec_s_own_screen(self):
        outcome = run_suite(lyapunov=CONCAVE).outcomes["G"]
        assert outcome.status is ConditionStatus.FAIL
        assert outcome.reason.startswith(CONCAVE.convexity.violations[0][0])


class TestConvexity:
    def test_quadratic_passes(self):
        report = check_convexity(QUAD)
        assert report.passed
        assert not report.degenerate
        assert report.violations == ()

    def test_concave_fails_with_location(self):
        report = check_convexity(CONCAVE)
        assert not report.passed
        kind, r, t, margin = report.violations[0]
        assert margin < 0
        assert 0.0 <= r <= 1.0 and 0.0 <= t <= 1.0

    def test_identically_zero_is_degenerate_pass(self):
        spec = LyapunovSpec(
            f="0",
            inv_norm_bound=1.0,
            r_max=1.0,
            t_max=1.0,
            name="flat",
        )
        report = check_convexity(spec)
        assert report.passed
        assert report.degenerate


def _loop_convexity(spec):
    """The screen as one point-by-point double loop: the reference for the
    order, values and cap of the violations."""
    points = algebraic_majorant._SCREEN_POINTS
    r_grid = np.linspace(0.0, spec.r_max, points)
    t_grid = np.linspace(0.0, spec.t_max, points)
    violations = []

    def note(kind, r, t, v):
        if len(violations) < 50:
            violations.append((kind, float(r), float(t), float(v)))

    fvals = np.empty((t_grid.size, r_grid.size))
    svals = np.empty_like(fvals)
    for i, t in enumerate(t_grid):
        for j, r in enumerate(r_grid):
            try:
                fv = spec.f_form.scalar(float(r), float(t))
                sv = spec.f_r_form.scalar(float(r), float(t))
            except (DomainError, OverflowError, ValueError, ZeroDivisionError):
                fv = sv = math.nan
            if math.isnan(fv) or math.isnan(sv):
                fv = sv = math.nan  # a failed sample fails in both
            if not math.isfinite(fv):
                note("not-finite", r, t, fv)
                fv = math.nan
            fvals[i, j], svals[i, j] = fv, sv
    finite = fvals[np.isfinite(fvals)]
    scale = max(1.0, float(np.max(np.abs(finite)))) if finite.size else 1.0
    slack1, slack2 = 1e-12 * scale, 1e-10 * scale
    for i, t in enumerate(t_grid):
        row, srow = fvals[i], svals[i]
        for j in range(1, r_grid.size):
            if row[j] - row[j - 1] < -slack1:
                note("f-decreasing-in-r", r_grid[j], t, row[j] - row[j - 1])
            if srow[j] - srow[j - 1] < -slack2:
                note("slope-decreasing-in-r", r_grid[j], t, srow[j] - srow[j - 1])
        for j in range(1, r_grid.size - 1):
            h1 = r_grid[j] - r_grid[j - 1]
            h2 = r_grid[j + 1] - r_grid[j]
            second = (row[j + 1] - row[j]) / h2 - (row[j] - row[j - 1]) / h1
            if second < -slack2:
                note("f-not-convex-in-r", r_grid[j], t, second)
    for j, r in enumerate(r_grid):
        col, scol = fvals[:, j], svals[:, j]
        for i in range(1, t_grid.size):
            if col[i] - col[i - 1] < -slack1:
                note("f-decreasing-in-t", r, t_grid[i], col[i] - col[i - 1])
            if scol[i] - scol[i - 1] < -slack2:
                note("slope-decreasing-in-t", r, t_grid[i], scol[i] - scol[i - 1])
    return ConvexityReport(
        passed=not violations,
        degenerate=finite.size > 0 and float(np.max(np.abs(finite))) == 0.0,
        violations=tuple(violations),
        samples=int(fvals.size),
    )


WIGGLE = LyapunovSpec(
    f="0.1*r*r + 0.05*r*(1 + sin(7*t)) + 0.01*t*sin(9*r)",
    r_max=2.0, t_max=1.5, name="wiggle",
)


# 0*sqrt(1.6 - r) leaves f = t*r^2 where r <= 1.6 and fails past it,
# where f's array form gives nan; its derivative folds to 0, so the slope
# stays evaluable there, and the abs term drops it from 2*t*r to
# 2*t*(r - 1) past r = 1.6, which a screen that kept it would report.
# Neither grid holds r = 1.6, where the slope of abs divides by zero.
CUT = LyapunovSpec(
    f="t*(r*r - (r - 1.6 + abs(r - 1.6))) + 0*sqrt(1.6 - r)",
    r_max=2.0, t_max=1.5, name="nan for a raise",
)


class TestConvexityRoutes:
    """The array screen and the point-by-point fill give equal reports."""

    @pytest.mark.parametrize(
        "spec",
        [
            QUAD,
            CONCAVE,
            LyapunovSpec(
                f="r*r/(1 + t)",
                r_max=2.0, t_max=1.5, name="decreasing in t",
            ),
            WIGGLE,
            CUT,
            inline("t*sqrt(3 - r)", r_max=4.0, t_max=1.0),
            inline("0.5*r + exp(100*t) - 1", r_max=1.0, t_max=10.0),
            inline("t*(r^2 + 1.0208)"),
        ],
        ids=lambda spec: spec.name,
    )
    @pytest.mark.parametrize("points", [128, 9], ids=["default grid", "small grid"])
    def test_array_and_pointwise_reports_are_equal(self, spec, points, monkeypatch):
        monkeypatch.setattr(algebraic_majorant, "_SCREEN_POINTS", points)
        report = check_convexity(spec)
        # repr, so that nan margins of not-finite samples compare equal
        assert repr(report) == repr(_loop_convexity(spec))

    def test_slope_samples_where_f_fails_are_dropped(self, monkeypatch):
        monkeypatch.setattr(algebraic_majorant, "_SCREEN_POINTS", 9)
        r_grid, t_grid = np.linspace(0.0, 2.0, 9), np.linspace(0.0, 1.5, 9)
        r, t = r_grid[None, :], t_grid[:, None]
        fvals = pointwise(algebraic_majorant._nan_on_error(CUT.f_form), r, t)
        svals = pointwise(algebraic_majorant._nan_on_error(CUT.f_r_form), r, t)
        assert np.isnan(fvals[:, r_grid > 1.6]).all() and np.isfinite(svals).all()
        # a screen that kept them would report the slope's drop past r = 1.6
        kept = []
        algebraic_majorant._scan(
            fvals, svals, r_grid, t_grid, 1e-12, 1e-10,
            lambda *violation: kept.append(violation) or True,
        )
        assert {(kind, r) for kind, r, _, _ in kept} == {
            ("slope-decreasing-in-r", 1.75)
        }
        report = check_convexity(CUT)
        assert {kind for kind, _, _, _ in report.violations} == {"not-finite"}

    def test_reports_list_violations_in_scan_order(self, monkeypatch):
        # 6 x 6 points show all four kinds of violation, below the cap
        monkeypatch.setattr(algebraic_majorant, "_SCREEN_POINTS", 6)
        report = check_convexity(WIGGLE)
        assert report.violations == _loop_convexity(WIGGLE).violations
        kinds = [v[0] for v in report.violations]
        assert len(kinds) < 50  # below the cap, so every violation is listed
        assert set(kinds) == {
            "slope-decreasing-in-r", "f-not-convex-in-r",
            "f-decreasing-in-t", "slope-decreasing-in-t",
        }
        # rows first, then columns
        first_column = min(i for i, k in enumerate(kinds) if k.endswith("-in-t"))
        assert all(k.endswith("-in-r") for k in kinds[:first_column])
        assert all(k.endswith("-in-t") for k in kinds[first_column:])

    def test_non_finite_samples_come_first_and_the_cap_holds(self):
        spec = inline("0.5*r + exp(100*t) - 1", r_max=1.0, t_max=10.0)
        report = check_convexity(spec)
        assert len(report.violations) == 50
        assert all(v[0] == "not-finite" and v[3] == math.inf for v in report.violations)
        t_first = report.violations[0][2]
        assert 100.0 * t_first > math.log(np.finfo(float).max)


class TestSolveLyapunov:
    def test_full_solution(self):
        sol = solve_lyapunov(QUAD, n=10, t_end=0.45)
        assert sol.tangency.radius == pytest.approx(1.0, abs=1e-10)
        assert np.all(sol.converged_mask)
        j = 6  # node t = 0.27
        want = closed_branch(float(sol.mesh.nodes[j]))
        assert sol.radii[j] == pytest.approx(want, abs=1e-9)

    def test_defaults_run_to_horizon(self):
        sol = solve_lyapunov(QUAD, n=16)
        assert sol.mesh.end == pytest.approx(0.5, abs=1e-9)
        # the endpoint sits at the tangency where convergence is O(1/k)
        assert bool(sol.converged_mask[-1]) in (True, False)

    def test_end_beyond_horizon_rejected(self):
        with pytest.raises(SpecValidationError):
            solve_lyapunov(QUAD, n=8, t_end=0.7)

    @pytest.mark.parametrize("spec", [QUAD, EXP, inline("t*(r^2 + 1.1)")],
                             ids=lambda s: s.name)
    def test_end_one_ulp_past_the_witnessed_horizon_rejected(self, spec):
        horizon = solve_tangency(spec).horizon
        assert solve_lyapunov(spec, n=8, t_end=horizon).mesh.end == horizon
        with pytest.raises(SpecValidationError, match="beyond the horizon"):
            solve_lyapunov(spec, n=8, t_end=math.nextafter(horizon, math.inf))


@pytest.mark.parametrize(
    "f, slope",
    [
        ("t*r*r + t", "2*t*r"),
        ("t*(sqrt(r + 1) - 1)", "0.5*t/sqrt(r + 1)"),
        ("t*exp(r)", "t*exp(r)"),
        ("r*r/(1 + t)", "2*r/(1 + t)"),
        (WIGGLE.f, "0.2*r + 0.05*(1 + sin(7*t)) + 0.09*t*cos(9*r)"),
    ],
    ids=["quad", "concave", "exp", "decreasing in t", "wiggle"],
)
def test_the_slope_is_the_exact_derivative_of_f(f, slope):
    spec = LyapunovSpec(f=f, r_max=2.0, t_max=1.5, name=f)
    r, t = np.meshgrid(np.linspace(0.0, 2.0, 9), np.linspace(0.0, 1.5, 7))
    by_hand = expr.Form(slope, ("r", "t")).map(r, t)
    np.testing.assert_allclose(spec.f_r_form.map(r, t), by_hand, rtol=1e-13, atol=1e-15)


def test_spec_validation():
    with pytest.raises(SpecValidationError, match="must vanish"):
        LyapunovSpec(f="1 + r", r_max=1.0, t_max=1.0, name="nonzero origin")
    with pytest.raises(SpecValidationError, match="contraction"):
        LyapunovSpec(f="2*r", r_max=1.0, t_max=1.0, name="slope above one")
    with pytest.raises(SpecValidationError, match="inverse-norm bound"):
        LyapunovSpec(f="t*r*r", inv_norm_bound=-2.0, name="negative c")
    # the derivative of sqrt(r) divides by sqrt(0)
    with pytest.raises(SpecValidationError, match=r"f_r\(0, 0\) is not evaluable"):
        LyapunovSpec(f="t*sqrt(r)")


@pytest.mark.parametrize(
    "field, text",
    [("f", {"f": "t*r@2"})],
)
def test_a_bad_text_names_its_field(field, text):
    with pytest.raises(ExprError, match=f"^{field}: syntax error at byte"):
        LyapunovSpec(**text)


@pytest.mark.parametrize(
    "build, field",
    [
        (LyapunovSpec, "r_max"),
        (LyapunovSpec, "t_max"),
        (MajorantSpec, "z_max"),
        (MajorantSpec, "omega_max"),
        (MajorantSpec, "pole"),
    ],
)
def test_a_box_value_that_is_not_finite_is_refused_by_name(build, field):
    texts = {"f": "t*r*r + t"} if build is LyapunovSpec else {"f": "w", "gamma": "z + 1"}
    with pytest.raises(SpecValidationError, match=f"^{field} must be positive and finite"):
        build(**texts, **{field: math.inf})


def _bits(x):
    return struct.pack("<d", float(x))


class TestSineBvpForms:
    """sine_bvp's growth map is the text t*r*r + t with the derived slope."""

    SPEC = corpus_build("sine_bvp").lyapunov

    @given(st.floats(0.0, 10.0), st.floats(0.0, 5.0))
    @settings(max_examples=300, deadline=None)
    def test_forms_equal_the_hand_written_pair(self, r, t):
        # doubling t*r before or after its rounding differs only where
        # t*r is subnormal
        assume(t * r >= sys.float_info.min or 0.0 in (r, t))
        f, f_r = self.SPEC.f_form, self.SPEC.f_r_form
        want_f, want_r = t * r * r + t, 2.0 * t * r
        assert _bits(f.scalar(r, t)) == _bits(want_f)
        assert _bits(f_r.scalar(r, t)) == _bits(want_r)
        r_arr, t_arr = np.array([r]), np.array([t])
        assert _bits(f.array(r_arr, t_arr)[0]) == _bits(want_f)
        assert _bits(f_r.array(r_arr, t_arr)[0]) == _bits(want_r)

    def test_the_entry_and_a_solve_compile_no_algebraic_form(self, monkeypatch):
        compiled = []
        compile_ = expr._Compiler.compile

        def counted(self, tree, *args):
            compiled.append(expr.variables(tree))
            return compile_(self, tree, *args)

        monkeypatch.setattr(expr._Compiler, "compile", counted)
        expr._compiled.cache_clear()  # no code compiled by an earlier test
        entry = corpus_build("sine_bvp")
        assert compiled == []  # construction compiles nothing
        mesh = graded_mesh(0.4, 40, 1.0)
        bound = solve_majorant(entry.majorant, mesh=mesh)
        solve_main(entry.problem, mesh, tol=1e-10, majorant=bound)
        assert compiled  # the majorant compiled its forms
        assert not any("r" in names for names in compiled)
