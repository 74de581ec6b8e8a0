"""Residual assembly, operators, and single Picard steps."""

import math

import numpy as np
import pytest

from volmaj.corpus import corpus_build
from volmaj.errors import NumericError, SpecValidationError
from volmaj.meshes import Mesh, Trajectory, zero_trajectory
from volmaj.problem import (
    DenseOperator,
    KernelStage,
    TridiagonalOperator,
    VolterraProblem,
    eval_residual,
    picard_step,
)
from volmaj.quadrature import graded_mesh, trapezoid_weights


def linear_scalar_problem():
    """u(t) = integral of u + t, rewritten as F(u) = u - integral - t."""

    def kernel(t, s, u):
        return u[:, 0]

    def outer(t, integrals, u):
        return u - integrals[0] - t

    return VolterraProblem(
        dim=1,
        stages=(KernelStage(1, kernel),),
        outer=outer,
        operator=DenseOperator(np.array([[1.0]])),
        inv_norm_bound=1.0,
        name="linear scalar",
    )


class TestResidual:
    def test_hand_computed_values(self):
        problem = linear_scalar_problem()
        mesh = Mesh(np.array([0.0, 0.5, 1.0]))
        tr = Trajectory(mesh, mesh.nodes.copy())  # u(t) = t
        # F(u)(t) = t - t^2/2 - t, trapezoid exact on the affine integrand
        assert eval_residual(problem, tr, 0) == pytest.approx([0.0], abs=0)
        assert eval_residual(problem, tr, 1) == pytest.approx([-0.125], abs=1e-15)
        assert eval_residual(problem, tr, 2) == pytest.approx([-0.5], abs=1e-15)

    def test_deterministic_bitwise(self):
        entry = corpus_build("sine_bvp")
        mesh = graded_mesh(0.4, 30, 1.0)
        rng = np.random.default_rng(7)
        tr = Trajectory(mesh, rng.normal(size=(31, 21)))
        a = np.vstack([eval_residual(entry.problem, tr, j) for j in range(31)])
        b = np.vstack([eval_residual(entry.problem, tr, j) for j in range(31)])
        assert np.array_equal(a, b)

    def test_dimension_mismatch(self):
        problem = linear_scalar_problem()
        mesh = Mesh(np.array([0.0, 1.0]))
        tr = Trajectory(mesh, np.zeros((2, 3)))
        with pytest.raises(SpecValidationError):
            eval_residual(problem, tr, 0)

    def test_nan_is_reported(self):
        def outer(t, integrals, u):
            return np.array([math.nan]) if t > 0 else np.array([0.0])

        problem = VolterraProblem(
            dim=1,
            stages=(),
            outer=outer,
            operator=DenseOperator(np.array([[1.0]])),
            inv_norm_bound=1.0,
            name="nan producer",
        )
        mesh = Mesh(np.array([0.0, 1.0]))
        with pytest.raises(NumericError):
            eval_residual(problem, zero_trajectory(mesh, 1), 1)

    def test_frozen_direct_slot(self):
        problem = linear_scalar_problem()
        mesh = Mesh(np.array([0.0, 0.5, 1.0]))
        tr = Trajectory(mesh, mesh.nodes.copy())
        frozen = np.zeros((3, 1))
        # with u frozen at zero: F = 0 - t^2/2 - t
        got = eval_residual(problem, tr, 2, outer_values=frozen)
        assert got == pytest.approx([-1.5], abs=1e-15)


class TestBasePoint:
    def test_nonvanishing_rejected(self):
        def outer(t, integrals, u):
            return u + 1.0

        with pytest.raises(SpecValidationError):
            VolterraProblem(
                dim=1,
                stages=(),
                outer=outer,
                operator=DenseOperator(np.array([[1.0]])),
                inv_norm_bound=1.0,
                name="bad base",
            )


class TestOperators:
    def test_thomas_matches_dense(self):
        rng = np.random.default_rng(42)
        for m in (3, 7, 20):
            lower = rng.uniform(0.5, 1.5, m - 1)
            diag = rng.uniform(4.0, 6.0, m)
            upper = rng.uniform(0.5, 1.5, m - 1)
            tri = TridiagonalOperator(lower, diag, upper)
            dense = DenseOperator(tri.matrix())
            rhs = rng.normal(size=(5, m))
            assert np.allclose(
                tri.solve_many(rhs), dense.solve_many(rhs), rtol=1e-12, atol=1e-13
            )

    def test_inverse_norm_matches_numpy(self):
        rng = np.random.default_rng(3)
        lower = rng.uniform(0.5, 1.5, 6)
        diag = rng.uniform(4.0, 6.0, 7)
        upper = rng.uniform(0.5, 1.5, 6)
        tri = TridiagonalOperator(lower, diag, upper)
        inv = np.linalg.inv(tri.matrix())
        want = np.max(np.sum(np.abs(inv), axis=1))
        assert tri.inverse_inf_norm() == pytest.approx(want, rel=1e-12)

    def test_singular_tridiagonal(self):
        tri = TridiagonalOperator(
            np.array([0.0]), np.array([0.0, 1.0]), np.array([0.0])
        )
        with pytest.raises(NumericError):
            tri.solve_many(np.array([[1.0, 1.0]]))

    def test_singular_dense(self):
        op = DenseOperator(np.zeros((2, 2)))
        with pytest.raises(SpecValidationError):
            op.solve_many(np.ones((1, 2)))


class TestPicardStep:
    def test_first_bvp_iterate_is_parabola(self):
        # with u = 0 the memory integral drops out and the step solves
        # the discrete two-point problem with constant load, which the
        # second-difference operator inverts exactly on quadratics
        entry = corpus_build("sine_bvp")
        m = entry.params["m"]
        mesh = graded_mesh(0.4, 25, 1.0)
        first = picard_step(entry.problem, zero_trajectory(mesh, m))
        x = np.arange(1, m + 1) / (m + 1)
        want = mesh.nodes[:, None] * (x * (x - 1.0) / 2.0)[None, :]
        assert np.max(np.abs(first.values - want)) < 1e-12

    def test_midpoint_value(self):
        entry = corpus_build("sine_bvp")
        mesh = graded_mesh(0.4, 25, 1.0)
        first = picard_step(entry.problem, zero_trajectory(mesh, 21))
        # x = 0.5 is interior point 11 of 21; the parabola gives -t/8
        assert first.values[-1, 10] == pytest.approx(-0.4 / 8.0, abs=1e-14)

    def test_linear_scalar_steps_build_exponential(self):
        problem = linear_scalar_problem()
        mesh = graded_mesh(1.0, 200, 1.0)
        w = trapezoid_weights(mesh)
        tr = zero_trajectory(mesh, 1)
        for _ in range(22):
            tr = picard_step(problem, tr, w)
        want = np.exp(mesh.nodes) - 1.0
        assert np.max(np.abs(tr.values[:, 0] - want)) < 2e-5


@pytest.mark.parametrize("n", [3, 5, 10])
def test_fold_one_sweep_kernel_counts_are_exact(n):
    # one batched call per row j = 1..n covering its j + 1 points; row 0
    # is the empty integral and calls nothing
    calls, points = [], []

    def kernel(t, s, u):
        calls.append(t)
        points.append(len(s))
        return u[:, 0]

    problem = VolterraProblem(
        dim=1,
        stages=(KernelStage(1, kernel),),
        outer=lambda t, integrals, u: u - integrals[0] - t,
        operator=DenseOperator(np.array([[1.0]])),
        inv_norm_bound=1.0,
        name="counting",
    )
    picard_step(problem, zero_trajectory(graded_mesh(1.0, n, 1.0), 1))
    assert len(calls) == n
    assert points == list(range(2, n + 2))
    assert sum(points) == n * (n + 3) // 2
