"""Residual assembly, operators, and single Picard steps."""

import math
import re

import numpy as np
import pytest

from volmaj.corpus import corpus_build
from volmaj.errors import DomainError, NumericError, SpecValidationError
from volmaj.meshes import Mesh, Trajectory, zero_trajectory
from volmaj.problem import (
    DenseOperator,
    KernelStage,
    TridiagonalOperator,
    VolterraProblem,
    eval_residual,
    inverse_inf_norm,
    picard_step,
)
from volmaj.quadrature import graded_mesh


def residual_at(problem, trajectory, j, outer_values=None):
    """F(u) at node j of one trajectory, from the whole-mesh residual."""
    if outer_values is not None:
        outer_values = outer_values[None]
    values = trajectory.values[None]
    return eval_residual(problem, trajectory.mesh, values, outer_values)[0, j]


def linear_scalar_problem():
    """u(t) = integral of u + t, rewritten as F(u) = u - integral - t."""

    def kernel(t, s, u):
        return u[..., 0, :]

    def outer(t, integrals, u):
        return u - integrals[0] - t[:, None]

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
        assert residual_at(problem, tr, 0) == pytest.approx([0.0], abs=0)
        assert residual_at(problem, tr, 1) == pytest.approx([-0.125], abs=1e-15)
        assert residual_at(problem, tr, 2) == pytest.approx([-0.5], abs=1e-15)

    def test_deterministic_bitwise(self):
        entry = corpus_build("sine_bvp")
        mesh = graded_mesh(0.4, 30, 1.0)
        rng = np.random.default_rng(7)
        tr = Trajectory(mesh, rng.normal(size=(31, 21)))
        a = np.vstack([residual_at(entry.problem, tr, j) for j in range(31)])
        b = np.vstack([residual_at(entry.problem, tr, j) for j in range(31)])
        assert np.array_equal(a, b)

    def test_dimension_mismatch(self):
        problem = linear_scalar_problem()
        mesh = Mesh(np.array([0.0, 1.0]))
        tr = Trajectory(mesh, np.zeros((2, 3)))
        with pytest.raises(SpecValidationError):
            residual_at(problem, tr, 0)

    def test_nan_is_reported(self):
        def outer(t, integrals, u):
            return np.where(t > 0, math.nan, 0.0)[None, :, None]

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
            residual_at(problem, zero_trajectory(mesh, 1), 1)

    def test_frozen_direct_slot(self):
        problem = linear_scalar_problem()
        mesh = Mesh(np.array([0.0, 0.5, 1.0]))
        tr = Trajectory(mesh, mesh.nodes.copy())
        frozen = np.zeros((3, 1))
        # with u frozen at zero: F = 0 - t^2/2 - t
        got = residual_at(problem, tr, 2, outer_values=frozen)
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
        assert inverse_inf_norm(tri) == pytest.approx(want, rel=1e-12)
        assert inverse_inf_norm(DenseOperator(tri.matrix())) == pytest.approx(
            want, rel=1e-12
        )

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
        tr = zero_trajectory(mesh, 1)
        for _ in range(22):
            tr = picard_step(problem, tr)
        want = np.exp(mesh.nodes) - 1.0
        assert np.max(np.abs(tr.values[:, 0] - want)) < 2e-5


@pytest.mark.parametrize("n", [3, 5, 10])
def test_fold_one_sweep_kernel_counts_are_exact(n):
    # the whole sweep fits one row block: one kernel call covering rows
    # j = 1..n, each with its j + 1 points in order; row 0 is the empty
    # integral and calls nothing
    calls = []

    def kernel(t, s, u):
        calls.append((t.copy(), s[:, 0].copy()))
        return u[..., 0, :]

    problem = VolterraProblem(
        dim=1,
        stages=(KernelStage(1, kernel),),
        outer=lambda t, integrals, u: u - integrals[0] - t[:, None],
        operator=DenseOperator(np.array([[1.0]])),
        inv_norm_bound=1.0,
        name="counting",
    )
    mesh = graded_mesh(1.0, n, 1.0)
    picard_step(problem, zero_trajectory(mesh, 1))
    assert len(calls) == 1
    t, s = calls[0]
    assert t.size == n * (n + 3) // 2
    rows = range(1, n + 1)
    assert np.array_equal(t, np.concatenate([[mesh.nodes[j]] * (j + 1) for j in rows]))
    assert np.array_equal(s, np.concatenate([mesh.nodes[: j + 1] for j in rows]))


def _failing_problem(separated=False):
    """u(t) = integral of sqrt(u) + t, failing where a sample is negative;
    separated declares the kernel's one t-free factor as its terms."""

    def root(s, u):
        bad = u[u < 0.0]
        if bad.size:
            raise DomainError(f"sqrt({float(bad[0])!r}) outside real domain")
        return np.sqrt(u)

    def kernel(t, s, u):
        return root(s[:, 0], u[..., 0, :])

    terms = ((None, (root,)),) if separated else None
    return VolterraProblem(
        dim=1,
        stages=(KernelStage(1, kernel, terms),),
        outer=lambda t, integrals, u: u - integrals[0] - t[:, None],
        operator=DenseOperator(np.array([[1.0]])),
        inv_norm_bound=1.0,
        name="sqrt kernel",
    )


def test_stack_failure_names_the_lowest_sample_and_node():
    _assert_stack_failure_at_sample_3_node_7(_failing_problem())


def test_separated_stage_failure_names_the_direct_route_node():
    # the factor raises on the whole stack, so the direct route runs and
    # the failure is localised one node at a time, as without terms
    _assert_stack_failure_at_sample_3_node_7(_failing_problem(separated=True))


def _assert_stack_failure_at_sample_3_node_7(problem):
    mesh = graded_mesh(1.0, 12, 1.0)
    values = np.full((6, 13, 1), 0.25)
    values[3, 9] = -2.0
    values[3, 7] = -1.0
    values[5, 2] = -3.0  # a later sample failing at an earlier node
    message = "residual evaluation failed at node 7: sqrt(-1.0) outside real domain"
    with pytest.raises(NumericError, match=re.escape(message) + "$"):
        eval_residual(problem, mesh, values)
    with pytest.raises(NumericError, match=re.escape(message) + "$"):
        eval_residual(problem, mesh, values[3:4])
