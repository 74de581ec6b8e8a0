"""Product trapezoid tables, nested kernels, and improper integrals."""

import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volmaj import quadrature
from volmaj.errors import CostLimitError, NumericError, SpecValidationError
from volmaj.meshes import Mesh, Trajectory
from volmaj.problem import KernelStage
from volmaj.quadrature import (
    ARRAY_MIN_POINTS,
    BLOCK_ELEMENTS,
    WeightTable,
    adaptive_quad,
    graded_mesh,
    improper_integral,
    nested_integral,
    pointwise,
)


def _traj(mesh, fn):
    return Trajectory(mesh, np.array([[fn(float(t))] for t in mesh.nodes]))


def _row(mesh, j):
    """Trapezoid weights of the integral from 0 to t_j."""
    return WeightTable(mesh).rows([j])[0]


def _integral_at(stage, trajectory, j):
    """One stage's integral at node j of one trajectory."""
    values = trajectory.values[None]
    return nested_integral(stage, trajectory.mesh, values, rows=[j])[0, 0]


class TestWeights:
    def test_uniform_three_node_row(self):
        w = _row(Mesh(np.array([0.0, 0.5, 1.0])), 2)
        assert np.allclose(w, [0.25, 0.5, 0.25], atol=0, rtol=0)

    def test_row_zero_is_empty_integral(self):
        w = _row(Mesh(np.array([0.0, 0.5, 1.0])), 0)
        assert w.shape == (1,)
        assert w[0] == 0.0

    def test_affine_exact(self):
        mesh = graded_mesh(1.0, 7, 0.8)
        samples = mesh.nodes.copy()  # integrand s
        for j in range(mesh.n + 1):
            got = float(_row(mesh, j) @ samples[: j + 1])
            want = 0.5 * float(mesh.nodes[j]) ** 2
            assert got == pytest.approx(want, rel=1e-13, abs=1e-15)

    def test_prefix_matches_rows(self):
        mesh = graded_mesh(2.0, 9, 1.0)
        w = WeightTable(mesh)
        samples = np.sin(mesh.nodes)
        prefix = w.prefix(samples)
        for j in range(mesh.n + 1):
            assert prefix[j] == pytest.approx(
                float(_row(mesh, j) @ samples[: j + 1]), rel=1e-14, abs=1e-15
            )

    def test_prefix_of_a_stack_is_each_row_bit_for_bit(self):
        mesh = graded_mesh(2.0, 17, 0.9)
        rng = np.random.default_rng(7)
        stack = rng.uniform(-1e3, 1e3, (5, mesh.nodes.size))
        stack[2] = -0.0  # signs of zero must match too
        table = WeightTable(mesh)
        got = table.prefix(stack)
        want = np.array([table.prefix(row) for row in stack])
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("shape", [(), (5,), (3, 5), (9, 3)])
    def test_prefix_needs_one_sample_per_node_on_the_last_axis(self, shape):
        mesh = graded_mesh(1.0, 8, 1.0)
        with pytest.raises(SpecValidationError, match="last axis"):
            WeightTable(mesh).prefix(np.zeros(shape))

    def test_a_mesh_owns_one_read_only_table(self):
        mesh = graded_mesh(2.0, 17, 0.9)
        assert mesh.weights is mesh.weights
        assert mesh.gaps is mesh.gaps
        table = mesh.weights
        for array in (table._inner, table._end, table.gaps, mesh.gaps):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    def test_the_mesh_table_is_a_fresh_table_bit_for_bit(self):
        mesh = graded_mesh(2.0, 17, 0.9)
        fresh, own = WeightTable(mesh), mesh.weights
        js = np.array([1, 4, 9, 17])
        assert np.array_equal(own.rows(js), fresh.rows(js))
        stack = np.random.default_rng(3).uniform(-1.0, 1.0, (4, mesh.nodes.size))
        assert np.array_equal(own.prefix(stack), fresh.prefix(stack))
        assert np.array_equal(own.gaps, np.diff(mesh.nodes))

    def test_sin_convergence_order(self):
        exact = 1.0 - math.cos(1.0)

        def err(n):
            mesh = graded_mesh(1.0, n, 1.0)
            return abs(float(_row(mesh, n) @ np.sin(mesh.nodes)) - exact)

        order = math.log2(err(64) / err(128))
        assert order >= 1.9


@given(
    gaps=st.lists(
        st.floats(min_value=1e-3, max_value=2.0), min_size=1, max_size=12
    ),
    a=st.floats(min_value=-5, max_value=5),
    b=st.floats(min_value=-5, max_value=5),
)
@settings(max_examples=200, deadline=None)
def test_affine_exact_on_random_meshes(gaps, a, b):
    nodes = np.concatenate([[0.0], np.cumsum(gaps)])
    mesh = Mesh(nodes)
    samples = a + b * nodes
    t = float(nodes[-1])
    got = float(_row(mesh, mesh.n) @ samples)
    want = a * t + 0.5 * b * t * t
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def _ones(t, s, u):
    return np.ones(u.shape[:2] + (1,))


class TestNested:
    def test_unit_square(self):
        mesh = graded_mesh(1.0, 40, 1.0)
        tr = _traj(mesh, lambda t: 0.0)
        stage = KernelStage(2, _ones)
        assert _integral_at(stage, tr, mesh.n) == pytest.approx(1.0, abs=1e-12)

    def test_separable_product(self):
        mesh = graded_mesh(1.0, 400, 1.0)
        tr = _traj(mesh, lambda t: 0.0)
        stage = KernelStage(2, lambda t, s, u: s[:, :1] * s[:, 1:] * _ones(t, s, u))
        got = _integral_at(stage, tr, mesh.n)
        assert got == pytest.approx(0.25, abs=1e-6)

    def test_single_fold_uses_trajectory(self):
        mesh = graded_mesh(2.0, 50, 1.0)
        tr = _traj(mesh, lambda t: 3.0)
        stage = KernelStage(1, lambda t, s, u: u[..., 0, :])
        assert _integral_at(stage, tr, mesh.n) == pytest.approx(6.0, abs=1e-12)

    def test_separable_equals_product_of_one_folds(self):
        mesh = graded_mesh(1.3, 160, 1.0)
        tr = _traj(mesh, lambda t: math.cos(t))
        two = KernelStage(
            2,
            lambda t, s, u: np.sin(s[:, :1])
            * u[..., 0, :]
            * np.sin(s[:, 1:])
            * u[..., 1, :],
        )
        one = KernelStage(1, lambda t, s, u: np.sin(s) * u[..., 0, :])
        j = mesh.n
        got = _integral_at(two, tr, j)
        single = _integral_at(one, tr, j)
        assert got == pytest.approx(single * single, rel=1e-10)

    def test_cost_cap(self, monkeypatch):
        mesh = graded_mesh(1.0, 100, 1.0)
        tr = _traj(mesh, lambda t: 0.0)
        stage = KernelStage(2, _ones)
        monkeypatch.setattr(quadrature, "_MAX_EVALS", 1000)
        with pytest.raises(CostLimitError):
            _integral_at(stage, tr, mesh.n)


def _per_tuple_reference(stage, trajectory, j):
    """The rule one kernel point at a time: each node tuple in
    itertools.product order, weight accumulated factor by factor, zero
    weights skipped, values summed into a running total."""
    t = trajectory.mesh.nodes[j : j + 1]
    w = _row(trajectory.mesh, j)
    nodes = trajectory.mesh.nodes
    total = np.zeros(trajectory.dim)
    for combo in itertools.product(range(j + 1), repeat=stage.fold):
        wk = 1.0
        for k in combo:
            wk *= w[k]
        if wk == 0.0:
            continue
        s = nodes[list(combo)][None, :]
        u = trajectory.values[list(combo)][None, None, :, :]
        total += wk * stage.evaluate(t, s, u)[0, 0]
    return total


def _rational_kernel(t, s, u):
    # elementwise arithmetic only, so a point's value does not depend on
    # the batch it arrives in
    out = u[..., 0, :] / (1.0 + (t[:, None] - s[:, :1]) ** 2)
    for c in range(1, s.shape[1]):
        out = out * (0.5 + s[:, c : c + 1] * u[..., c, :])
    return out


@pytest.mark.parametrize("fold", [1, 2, 3])
@pytest.mark.parametrize("ratio", [1.0, 0.8])
@pytest.mark.parametrize("dim", [1, 3])
def test_batched_rule_matches_per_tuple_loop_bitwise(fold, ratio, dim):
    # dim 1 too: a column sum there is pairwise, not a running sum
    mesh = graded_mesh(1.3, 6, ratio)
    rng = np.random.default_rng(fold)
    stage = KernelStage(fold, _rational_kernel)
    for stack in (1, 4):
        values = rng.uniform(-2.0, 2.0, (stack, mesh.nodes.size, dim))
        # all negative zeros: every term is -0.0 and the sum must be +0.0
        values[-1] = -0.0
        got = nested_integral(stage, mesh, values)
        assert got.shape == values.shape
        for k in range(stack):
            tr = Trajectory(mesh, values[k])
            one = nested_integral(stage, mesh, values[k : k + 1])[0]
            assert np.array_equal(got[k], one)
            assert np.array_equal(np.signbit(got[k]), np.signbit(one))
            for j in range(mesh.n + 1):
                want = _per_tuple_reference(stage, tr, j)
                assert np.array_equal(got[k, j], want), (stack, k, j)
                assert np.array_equal(np.signbit(got[k, j]), np.signbit(want))


@pytest.mark.parametrize("fold", [1, 2, 3])
def test_kernel_never_sees_a_tuple_past_its_row(fold):
    mesh = graded_mesh(1.0, 9, 0.9)

    def kernel(t, s, u):
        if np.any(s > t[:, None]):
            raise AssertionError("kernel evaluated past a row's end")
        return _rational_kernel(t, s, u)

    values = np.random.default_rng(5).uniform(-1.0, 1.0, (3, mesh.nodes.size, 2))
    got = nested_integral(KernelStage(fold, kernel), mesh, values)
    want = nested_integral(KernelStage(fold, _rational_kernel), mesh, values)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("fold, n, stack, dim", [(1, 300, 2, 3), (2, 40, 3, 1)])
def test_row_blocks_cover_every_row_once_within_budget(fold, n, stack, dim):
    mesh = graded_mesh(1.0, n, 1.0)
    calls = []

    def kernel(t, s, u):
        calls.append(t)
        return _ones(t, s, u) * np.ones(dim)

    nested_integral(KernelStage(fold, kernel), mesh, np.zeros((stack, n + 1, dim)))
    rows = []
    for t in calls:
        js = np.searchsorted(mesh.nodes, np.unique(t))
        rows += js.tolist()
        size = (js[-1] + 1) ** fold
        # the zero-padded block fits the budget unless it is one row
        assert len(js) == 1 or stack * len(js) * size * dim <= BLOCK_ELEMENTS
    assert rows == list(range(1, n + 1))
    assert sum(t.size for t in calls) == sum((j + 1) ** fold for j in rows)
    assert 1 < len(calls) < n


# factors of separated terms: a(t) gives (N, 1), b(s, u) gives (S, K, dim)
_A_FACTORS = (
    None,
    lambda t: np.cos(t)[:, None],
    lambda t: (t * t - 0.5)[:, None],
)
_B_FACTORS = (
    lambda s, u: u,
    lambda s, u: u * u,
    lambda s, u: np.sin(s)[:, None] * u,
    lambda s, u: np.cos(s)[:, None] + u,
    lambda s, u: 1.0 / (1.0 + s[:, None] + u * u),
)


def _summed_kernel(terms):
    """The kernel a stage's separated terms stand for, evaluated point by
    point; one term without a is its factor itself."""

    def evaluate(t, s, u):
        total = None
        for a, factors in terms:
            value = None if a is None else a(t)
            for c, b in enumerate(factors):
                f = b(s[:, c], u[..., c, :])
                value = f if value is None else value * f
            total = value if total is None else total + value
        return total

    return evaluate


def _direct(stage):
    return dataclasses.replace(stage, terms=None)


@given(
    n=st.integers(1, 12),
    ratio=st.floats(0.5, 2.0),
    fold=st.sampled_from([1, 2]),
    stack=st.sampled_from([1, 3]),
    dim=st.sampled_from([1, 3]),
    picks=st.lists(
        st.tuples(
            st.integers(0, len(_A_FACTORS) - 1),
            st.tuples(*[st.integers(0, len(_B_FACTORS) - 1)] * 2),
        ),
        min_size=1,
        max_size=3,
    ),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_separated_route_matches_direct_route(n, ratio, fold, stack, dim, picks, seed):
    mesh = graded_mesh(1.3, n, ratio)
    terms = tuple(
        (_A_FACTORS[i], tuple(_B_FACTORS[k] for k in ks[:fold])) for i, ks in picks
    )
    kernel = _summed_kernel(terms)
    stage = KernelStage(fold, kernel, terms)
    values = np.random.default_rng(seed).uniform(-2.0, 2.0, (stack, n + 1, dim))
    if stack > 1:
        values[-1] = -0.0  # an all negative-zero sample reads +0.0 either way
    got = nested_integral(stage, mesh, values)
    want = nested_integral(_direct(stage), mesh, values)
    if fold == 1 and len(terms) == 1 and terms[0][0] is None:
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
    else:
        # each term rounds relative to its own size, and terms may cancel
        # (cos t - cos t), so the scale is the integral of sum |term|
        def size_kernel(t, s, u):
            return sum(np.abs(_summed_kernel((term,))(t, s, u)) for term in terms)

        size = nested_integral(KernelStage(fold, size_kernel), mesh, values)
        assert np.all(np.abs(got - want) <= 1e-13 * size)


def test_separated_route_evaluates_each_factor_once_on_the_whole_stack():
    mesh = graded_mesh(1.0, 30, 0.9)
    calls = []

    def b(s, u):
        calls.append((s, u.shape))
        return u

    def kernel(t, s, u):
        raise AssertionError("the direct route ran")

    values = np.random.default_rng(2).uniform(-1.0, 1.0, (3, 31, 2))
    a_calls = []

    def a(t):
        a_calls.append(t)
        return t[:, None]

    # u1*u2 + t*u1: one factor callable in three places
    stage = KernelStage(2, kernel, ((None, (b, b)), (a, (b, lambda s, u: 1.0))))
    got = nested_integral(stage, mesh, values)
    assert len(calls) == 1
    assert np.array_equal(calls[0][0], mesh.nodes) and calls[0][1] == values.shape
    assert len(a_calls) == 1 and np.array_equal(a_calls[0], mesh.nodes[1:])
    prefix = np.zeros_like(values)
    for j in range(1, mesh.n + 1):
        prefix[:, j] = np.tensordot(_row(mesh, j), values[:, : j + 1], axes=(0, 1))
    # the integral of the constant factor 1 up to t is t
    want = prefix**2 + mesh.nodes[:, None] * prefix * mesh.nodes[:, None]
    assert np.allclose(got, want, rtol=1e-13, atol=1e-15)
    assert np.all(got[:, 0] == 0.0)


def _outside_domain(s, u):
    raise ValueError("factor outside its domain")


@pytest.mark.parametrize(
    "factor",
    [
        lambda s, u: u * np.inf,  # an integral that is not finite
        _outside_domain,
        lambda s, u: np.ones((2, 2)),  # a shape that does not broadcast
    ],
    ids=["non-finite", "raises", "bad-shape"],
)
def test_separated_route_falls_back_to_the_direct_route(factor):
    mesh = graded_mesh(1.0, 8, 1.0)
    values = np.random.default_rng(4).uniform(0.5, 1.0, (2, 9, 1))
    stage = KernelStage(1, _rational_kernel, ((None, (factor,)),))
    got = nested_integral(stage, mesh, values)
    assert np.array_equal(got, nested_integral(_direct(stage), mesh, values))


def test_rows_take_the_direct_route():
    mesh = graded_mesh(1.0, 6, 1.0)

    def factor(s, u):
        pytest.fail("the separated route ran for given rows")

    stage = KernelStage(1, _rational_kernel, ((None, (factor,)),))
    values = np.ones((1, 7, 1))
    got = nested_integral(stage, mesh, values, rows=[3, 6])
    assert np.array_equal(got, nested_integral(_direct(stage), mesh, values)[:, [3, 6]])


def test_separated_route_is_not_cost_limited(monkeypatch):
    # 2001**2 points exceed the budget of the direct route
    mesh = graded_mesh(1.0, 2000, 1.0)
    stage = KernelStage(2, _ones, ((None, (_B_FACTORS[0], _B_FACTORS[0])),))
    values = np.full((1, 2001, 1), 2.0)
    monkeypatch.setattr(quadrature, "_MAX_EVALS", 1e5)
    got = nested_integral(stage, mesh, values)
    assert got[0, -1, 0] == pytest.approx(4.0, rel=1e-13)
    with pytest.raises(CostLimitError):
        nested_integral(_direct(stage), mesh, values)


def test_malformed_terms_are_rejected():
    with pytest.raises(SpecValidationError, match="2 factors"):
        KernelStage(2, _ones, ((None, (_B_FACTORS[0],)),))


def test_kernel_shape_is_checked():
    mesh = graded_mesh(1.0, 4, 1.0)
    stage = KernelStage(1, lambda t, s, u: np.ones(len(s)))
    with pytest.raises(SpecValidationError):
        _integral_at(stage, _traj(mesh, math.exp), 2)


class TestImproper:
    def test_inverse_quadratic_converges_to_arctan_limit(self):
        r = improper_integral(lambda w: 1.0 + w * w)
        assert r.converged
        assert r.value == pytest.approx(math.pi / 2, abs=1e-6)

    def test_linear_rate_diverges(self):
        r = improper_integral(lambda w: w + 1.0)
        assert not r.converged
        assert r.value == math.inf

    def test_equal_small_increments_do_not_stop_the_doubling(self):
        # every octave adds about log(2) / 1e6, below tol, yet the total
        # grows without bound
        r = improper_integral(lambda w: 1e6 * (w + 1.0))
        assert not r.converged
        assert r.value == math.inf

    def test_exponential_rate(self):
        r = improper_integral(lambda w: math.exp(w))
        assert r.converged
        assert r.value == pytest.approx(1.0, abs=1e-8)

    def test_trace_monotone(self):
        r = improper_integral(lambda w: 1.0 + w * w)
        trace = np.asarray(r.trace)  # rows of (upper limit, running total)
        assert np.all(np.diff(trace[:, 1]) >= -1e-15)

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(NumericError):
            improper_integral(lambda w: w - 0.5)


class TestGradedMesh:
    def test_uniform(self):
        mesh = graded_mesh(1.0, 4, 1.0)
        assert np.allclose(mesh.nodes, [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-15)

    def test_geometric_two_gaps(self):
        mesh = graded_mesh(1.0, 2, 0.5)
        assert np.allclose(mesh.nodes, [0.0, 2.0 / 3.0, 1.0], atol=1e-15)

    def test_single_gap(self):
        mesh = graded_mesh(3.5, 1, 0.7)
        assert np.allclose(mesh.nodes, [0.0, 3.5], atol=0)

    def test_endpoint_pinned(self):
        mesh = graded_mesh(1.45, 2000, 0.998)
        assert mesh.nodes[-1] == 1.45

    def test_bad_ratio_rejected(self):
        with pytest.raises(SpecValidationError):
            graded_mesh(1.0, 4, 0.0)
        with pytest.raises(SpecValidationError):
            graded_mesh(1.0, 4, -0.5)

    @pytest.mark.parametrize("ratio, n", [(1e300, 400), (2.0, 1100), (1e-300, 4)])
    def test_overflowing_or_collapsing_nodes_name_ratio_and_n(self, ratio, n):
        # ratio**n overflows a float for the first two; for the last the
        # powers underflow to 0 and the end nodes coincide
        message = re.escape(f"{ratio!r} over n={n}")
        with pytest.raises(SpecValidationError, match=message):
            graded_mesh(1.0, n, ratio)

    @pytest.mark.parametrize("ratio, n", [(1e300, 1), (1e-300, 1), (1e10, 30)])
    def test_extreme_ratio_with_few_gaps_still_builds(self, ratio, n):
        mesh = graded_mesh(1.0, n, ratio)
        assert mesh.n == n and mesh.nodes[-1] == 1.0

    def test_ratio_above_one_grades_toward_zero(self):
        mesh = graded_mesh(1.0, 2, 2.0)
        assert np.allclose(mesh.nodes, [0.0, 1.0 / 3.0, 1.0], atol=1e-15)


def test_adaptive_quad_sin():
    got = adaptive_quad(math.sin, 0.0, math.pi, 1e-12)
    assert got == pytest.approx(2.0, abs=1e-10)


def test_adaptive_quad_square_root_edge():
    # the integrand's slope is infinite at b
    got = adaptive_quad(lambda x: math.sqrt(1.0 - x), 0.0, 1.0, 1e-12)
    assert got == pytest.approx(2.0 / 3.0, abs=1e-8)


def test_adaptive_quad_refuses_a_non_finite_estimate():
    # +inf past s = 0.5 once made every panel's delta NaN, so the
    # recursion ran to its full depth: about 2^48 integrand calls
    calls = [0]

    def g(s):
        calls[0] += 1
        assert calls[0] <= 100, "adaptive_quad passed 100 integrand calls"
        return math.inf if s > 0.5 else 1.0

    with pytest.raises(NumericError, match="not finite"):
        adaptive_quad(g, 0.0, 1.0, 1e-12)


def test_adaptive_quad_stops_at_its_evaluation_budget():
    # a tolerance never met, here by an integrand of period 3 calls,
    # once recursed towards 2^_MAX_DEPTH integrand calls
    class Overrun(Exception):
        pass

    calls = [0]

    def g(s):
        calls[0] += 1
        if calls[0] > 100000:
            raise Overrun(f"{calls[0]} integrand calls")
        return float(calls[0] % 3)

    with pytest.raises(NumericError, match="spent its budget of 100000 integrand"):
        adaptive_quad(g, 0.0, 1.0, 1e-12)
    assert calls[0] <= quadrature._QUAD_EVALS == 100000


class TestPointwise:
    def test_broadcast_shape_and_values(self):
        t = np.linspace(0.0, 1.0, 4)
        w = np.arange(6.0).reshape(2, 3, 1)
        got = pointwise(lambda a, b: a * b + 1.0, t, w)
        assert got.shape == (2, 3, 4)
        assert np.array_equal(got, t * w + 1.0)

    def test_calls_in_c_order(self):
        seen = []
        x = np.arange(6.0).reshape(2, 3)
        y = np.array([10.0, 20.0, 30.0])
        pointwise(lambda a, b: seen.append((a, b)) or 0.0, x, y)
        assert seen == list(zip(x.ravel().tolist(), y.tolist() * 2))

    def test_first_raising_point_has_the_lowest_flat_index(self):
        def fn(z):
            if z > 2.5:
                raise ValueError(f"at {z!r}")
            return z

        with pytest.raises(ValueError, match=r"^at 3\.0$"):
            pointwise(fn, np.array([[0.0, 1.0, 5.0], [3.0, 4.0, 2.0]]).T)

    def test_scalar_arguments(self):
        got = pointwise(lambda t, w: t + 2.0 * w, 1.5, np.array([1.0, 2.0]))
        assert np.array_equal(got, [3.5, 5.5])
        alone = pointwise(lambda t, w: t * w, 2.0, 3)
        assert alone.shape == () and float(alone) == 6.0

    def test_points_arrive_as_python_floats(self):
        kinds = set()
        pointwise(lambda a, b: kinds.update({type(a), type(b)}) or 0.0, 1, np.arange(3))
        assert kinds == {float}

    @pytest.mark.parametrize("points", [ARRAY_MIN_POINTS - 1, ARRAY_MIN_POINTS])
    def test_the_array_form_runs_on_enough_points_only(self, points):
        calls = []

        def array(t, w):
            calls.append(np.broadcast_shapes(t.shape, w.shape))
            return t + w

        w = np.arange(float(points))
        got = pointwise(lambda t, w: t + w, 0.5, w, array=array)
        assert np.array_equal(got, 0.5 + w)
        assert calls == ([] if points < ARRAY_MIN_POINTS else [(points,)])

    @pytest.mark.parametrize(
        "array",
        [
            lambda z: np.full(z.shape, np.inf),
            lambda z: np.sqrt(z - 100.0),  # nan below 100
            lambda z: np.zeros(3),  # does not broadcast
        ],
    )
    def test_an_array_form_that_fails_defers_to_the_scalar_form(self, array):
        z = np.linspace(0.0, 4.0, ARRAY_MIN_POINTS)
        got = pointwise(lambda z: z * z, z, array=array)
        assert np.array_equal(got, z * z)
        with pytest.raises(ValueError, match="math domain error"):
            pointwise(lambda z: math.sqrt(z - 1.0), z, array=array)
