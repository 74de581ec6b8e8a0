"""Product trapezoid tables, nested kernels, and improper integrals."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volmaj.errors import CostLimitError, NumericError, SpecValidationError
from volmaj.meshes import Mesh, Trajectory
from volmaj.problem import KernelStage
from volmaj.quadrature import (
    adaptive_quad,
    graded_mesh,
    improper_integral,
    integral_to_pole,
    nested_integral,
    trapezoid_weights,
)


def _traj(mesh, fn):
    return Trajectory(mesh, np.array([[fn(float(t))] for t in mesh.nodes]))


class TestWeights:
    def test_uniform_three_node_row(self):
        w = trapezoid_weights(Mesh(np.array([0.0, 0.5, 1.0])))
        assert np.allclose(w.row(2), [0.25, 0.5, 0.25], atol=0, rtol=0)

    def test_row_zero_is_empty_integral(self):
        w = trapezoid_weights(Mesh(np.array([0.0, 0.5, 1.0])))
        assert w.row(0).shape == (1,)
        assert w.row(0)[0] == 0.0

    def test_affine_exact(self):
        mesh = graded_mesh(1.0, 7, 0.8)
        w = trapezoid_weights(mesh)
        samples = mesh.nodes.copy()  # integrand s
        for j in range(mesh.n + 1):
            got = float(w.row(j) @ samples[: j + 1])
            want = 0.5 * float(mesh.nodes[j]) ** 2
            assert got == pytest.approx(want, rel=1e-13, abs=1e-15)

    def test_prefix_matches_rows(self):
        mesh = graded_mesh(2.0, 9, 1.0)
        w = trapezoid_weights(mesh)
        samples = np.sin(mesh.nodes)
        prefix = w.prefix(samples)
        for j in range(mesh.n + 1):
            assert prefix[j] == pytest.approx(
                float(w.row(j) @ samples[: j + 1]), rel=1e-14, abs=1e-15
            )

    def test_sin_convergence_order(self):
        exact = 1.0 - math.cos(1.0)

        def err(n):
            mesh = graded_mesh(1.0, n, 1.0)
            w = trapezoid_weights(mesh)
            return abs(float(w.row(n) @ np.sin(mesh.nodes)) - exact)

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
    w = trapezoid_weights(mesh)
    samples = a + b * nodes
    t = float(nodes[-1])
    got = float(w.row(mesh.n) @ samples)
    want = a * t + 0.5 * b * t * t
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestNested:
    def test_unit_square(self):
        mesh = graded_mesh(1.0, 40, 1.0)
        w = trapezoid_weights(mesh)
        tr = _traj(mesh, lambda t: 0.0)
        stage = KernelStage(2, lambda t, s, u: np.ones((len(s), 1)))
        assert nested_integral(stage, w, tr, mesh.n) == pytest.approx(1.0, abs=1e-12)

    def test_separable_product(self):
        mesh = graded_mesh(1.0, 400, 1.0)
        w = trapezoid_weights(mesh)
        tr = _traj(mesh, lambda t: 0.0)
        stage = KernelStage(2, lambda t, s, u: s[:, :1] * s[:, 1:])
        got = nested_integral(stage, w, tr, mesh.n)
        assert got == pytest.approx(0.25, abs=1e-6)

    def test_single_fold_uses_trajectory(self):
        mesh = graded_mesh(2.0, 50, 1.0)
        w = trapezoid_weights(mesh)
        tr = _traj(mesh, lambda t: 3.0)
        stage = KernelStage(1, lambda t, s, u: u[:, 0])
        assert nested_integral(stage, w, tr, mesh.n) == pytest.approx(6.0, abs=1e-12)

    def test_separable_equals_product_of_one_folds(self):
        mesh = graded_mesh(1.3, 160, 1.0)
        w = trapezoid_weights(mesh)
        tr = _traj(mesh, lambda t: math.cos(t))
        two = KernelStage(
            2,
            lambda t, s, u: np.sin(s[:, :1]) * u[:, 0] * np.sin(s[:, 1:]) * u[:, 1],
        )
        one = KernelStage(1, lambda t, s, u: np.sin(s) * u[:, 0])
        j = mesh.n
        got = nested_integral(two, w, tr, j)
        single = nested_integral(one, w, tr, j)
        assert got == pytest.approx(single * single, rel=1e-10)

    def test_cost_cap(self):
        mesh = graded_mesh(1.0, 100, 1.0)
        w = trapezoid_weights(mesh)
        tr = _traj(mesh, lambda t: 0.0)
        stage = KernelStage(2, lambda t, s, u: np.ones((len(s), 1)))
        with pytest.raises(CostLimitError):
            nested_integral(stage, w, tr, mesh.n, max_evals=1000)


def _per_tuple_reference(stage, weights, trajectory, j):
    """The rule one kernel point at a time: each node tuple in
    itertools.product order, weight accumulated factor by factor, zero
    weights skipped, values summed into a running total."""
    t = float(trajectory.mesh.nodes[j])
    w = weights.row(j)
    nodes = trajectory.mesh.nodes
    total = np.zeros(trajectory.dim)
    for combo in itertools.product(range(j + 1), repeat=stage.fold):
        wk = 1.0
        for k in combo:
            wk *= w[k]
        if wk == 0.0:
            continue
        s = nodes[list(combo)][None, :]
        u = trajectory.values[list(combo)][None, :, :]
        total += wk * stage.evaluate(t, s, u)[0]
    return total


def _rational_kernel(t, s, u):
    # elementwise arithmetic only, so a row's value does not depend on
    # the batch it arrives in
    out = u[:, 0] / (1.0 + (t - s[:, :1]) ** 2)
    for c in range(1, s.shape[1]):
        out = out * (0.5 + s[:, c : c + 1] * u[:, c])
    return out


@pytest.mark.parametrize("fold", [1, 2, 3])
@pytest.mark.parametrize("ratio", [1.0, 0.8])
@pytest.mark.parametrize("dim", [1, 3])
def test_batched_rule_matches_per_tuple_loop_bitwise(fold, ratio, dim):
    # dim 1 too: a column sum there is pairwise, not a running sum
    mesh = graded_mesh(1.3, 6, ratio)
    w = trapezoid_weights(mesh)
    rng = np.random.default_rng(fold)
    tr = Trajectory(mesh, rng.uniform(-2.0, 2.0, (mesh.nodes.size, dim)))
    stage = KernelStage(fold, _rational_kernel)
    for j in (0, 1, mesh.n):
        got = nested_integral(stage, w, tr, j)
        want = _per_tuple_reference(stage, w, tr, j)
        assert got.shape == (dim,)
        assert np.array_equal(got, want), (j, got, want)


def test_kernel_shape_is_checked():
    mesh = graded_mesh(1.0, 4, 1.0)
    stage = KernelStage(1, lambda t, s, u: np.ones(len(s)))
    with pytest.raises(SpecValidationError):
        nested_integral(stage, trapezoid_weights(mesh), _traj(mesh, math.exp), 2)


class TestImproper:
    def test_inverse_quadratic_converges_to_arctan_limit(self):
        r = improper_integral(lambda w: 1.0 + w * w)
        assert r.converged
        assert r.value == pytest.approx(math.pi / 2, abs=1e-6)

    def test_linear_rate_diverges(self):
        r = improper_integral(lambda w: w + 1.0)
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


class TestPoleIntegral:
    def test_sqrt_pole(self):
        got = integral_to_pole(lambda w: (1.0 - w) ** -0.5, 1.0)
        assert got == pytest.approx(2.0 / 3.0, abs=1e-6)

    def test_linear_pole(self):
        got = integral_to_pole(lambda w: 1.0 / (1.0 - w), 1.0)
        assert got == pytest.approx(0.5, abs=1e-6)

    def test_zero_pole_rejected(self):
        with pytest.raises(SpecValidationError):
            integral_to_pole(lambda w: 1.0, 0.0)


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


def test_adaptive_quad_endpoint_injection():
    # endpoint forced to zero lets integrable spikes at b pass through
    got = adaptive_quad(
        lambda x: math.sqrt(max(1.0 - x, 0.0)), 0.0, 1.0, 1e-12, fb=0.0
    )
    assert got == pytest.approx(2.0 / 3.0, abs=1e-8)
