"""Discrete Volterra-type problems.

A problem packages the pieces of the equation F(u) = 0 with

    F(u)(t) = outer(t, I_1(u)(t), ..., I_K(u)(t), u(t))

where each I_k is a (possibly multi-fold) integral of a kernel over
[0, t]^fold.  The linear part A enters through ``operator``; one sweep
of successive approximation maps a trajectory u to u - A^{-1} F(u),
evaluated nodewise on the mesh with product trapezoid quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    CostLimitError,
    DomainError,
    NumericError,
    SpecValidationError,
)
from .meshes import Trajectory
from .quadrature import WeightTable, nested_integral, trapezoid_weights

__all__ = [
    "KernelStage",
    "DenseOperator",
    "TridiagonalOperator",
    "VolterraProblem",
    "eval_residual",
    "residuals",
    "picard_step",
]

KernelFn = Callable[[float, np.ndarray, np.ndarray], np.ndarray]
OuterFn = Callable[[float, tuple, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class KernelStage:
    """One integral term: fold-dimensional integration of ``evaluate``.

    evaluate(t, s, u) takes a whole quadrature row at once: the outer
    time t as a float, the inner times s with shape (K, fold) and the
    matching states u with shape (K, fold, dim), one row per node tuple.
    It returns the K kernel values as an array of shape (K, dim).
    """

    fold: int
    evaluate: KernelFn

    def __post_init__(self):
        if self.fold < 1:
            raise SpecValidationError(f"stage fold must be >= 1, got {self.fold}")


class DenseOperator:
    """General invertible matrix acting as the linear part."""

    def __init__(self, matrix: np.ndarray):
        a = np.array(matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise SpecValidationError(f"operator matrix must be square, got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise SpecValidationError("operator matrix has non-finite entries")
        self._a = a
        self.dim = a.shape[0]

    def matrix(self) -> np.ndarray:
        return self._a.copy()

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self.solve_many(np.asarray(rhs, dtype=float)[None, :])[0]

    def solve_many(self, rhs: np.ndarray) -> np.ndarray:
        """Solve A x = r for each row r of rhs; rows come back as rows."""
        rhs = np.asarray(rhs, dtype=float)
        try:
            return np.linalg.solve(self._a, rhs.T).T
        except np.linalg.LinAlgError:
            raise SpecValidationError("linear part is singular") from None

    def inverse_inf_norm(self) -> float:
        try:
            inv = np.linalg.inv(self._a)
        except np.linalg.LinAlgError:
            raise SpecValidationError("linear part is singular") from None
        return float(np.max(np.sum(np.abs(inv), axis=1)))


class TridiagonalOperator:
    """Tridiagonal linear part solved by the Thomas recurrence.

    No pivoting: intended for diagonally dominant stencils such as
    divided second differences.  A vanishing pivot raises NumericError.
    """

    def __init__(self, lower: np.ndarray, diag: np.ndarray, upper: np.ndarray):
        lower = np.array(lower, dtype=float)
        diag = np.array(diag, dtype=float)
        upper = np.array(upper, dtype=float)
        m = diag.size
        if m < 1:
            raise SpecValidationError("diagonal must be nonempty")
        if lower.size != m - 1 or upper.size != m - 1:
            raise SpecValidationError(
                "off-diagonals must be one shorter than the diagonal"
            )
        if not all(np.all(np.isfinite(v)) for v in (lower, diag, upper)):
            raise SpecValidationError("operator bands have non-finite entries")
        self.lower = lower
        self.diag = diag
        self.upper = upper
        self.dim = m
        scales = [np.max(np.abs(diag)), 1.0]
        if m > 1:
            scales += [np.max(np.abs(lower)), np.max(np.abs(upper))]
        self._pivot_floor = 1e-14 * max(scales)

    def matrix(self) -> np.ndarray:
        m = np.diag(self.diag)
        if self.dim > 1:
            m += np.diag(self.lower, -1) + np.diag(self.upper, 1)
        return m

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self.solve_many(np.asarray(rhs, dtype=float)[None, :])[0]

    def solve_many(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        if rhs.ndim != 2 or rhs.shape[1] != self.dim:
            raise SpecValidationError(
                f"rhs shape {rhs.shape} does not match dimension {self.dim}"
            )
        m = self.dim
        x = rhs.T.copy()  # (m, k)
        cp = np.zeros(m)
        denom = self.diag[0]
        if abs(denom) < self._pivot_floor:
            raise NumericError("tridiagonal pivot vanished at row 0")
        if m > 1:
            cp[0] = self.upper[0] / denom
        x[0] /= denom
        for i in range(1, m):
            denom = self.diag[i] - self.lower[i - 1] * cp[i - 1]
            if abs(denom) < self._pivot_floor:
                raise NumericError(f"tridiagonal pivot vanished at row {i}")
            if i < m - 1:
                cp[i] = self.upper[i] / denom
            x[i] = (x[i] - self.lower[i - 1] * x[i - 1]) / denom
        for i in range(m - 2, -1, -1):
            x[i] -= cp[i] * x[i + 1]
        return x.T

    def inverse_inf_norm(self) -> float:
        cols = self.solve_many(np.eye(self.dim))
        # row i of the inverse is cols[:, i]
        return float(np.max(np.sum(np.abs(cols), axis=0)))


@dataclass(frozen=True)
class VolterraProblem:
    """F(u) = 0 with linear part A and nested Volterra integrals."""

    dim: int
    stages: tuple[KernelStage, ...]
    outer: OuterFn
    operator: DenseOperator | TridiagonalOperator
    inv_norm_bound: float
    t_max: float = float("inf")
    base_point: np.ndarray | None = None
    name: str = "problem"

    def __post_init__(self):
        if self.dim < 1:
            raise SpecValidationError(f"dimension must be >= 1, got {self.dim}")
        if self.operator.dim != self.dim:
            raise SpecValidationError(
                f"operator dimension {self.operator.dim} != problem"
                f" dimension {self.dim}"
            )
        if not (self.inv_norm_bound > 0) or not np.isfinite(self.inv_norm_bound):
            raise SpecValidationError(
                f"inverse-norm bound must be positive and finite,"
                f" got {self.inv_norm_bound!r}"
            )
        if not (self.t_max > 0):
            raise SpecValidationError(f"t_max must be positive, got {self.t_max!r}")
        # fails loudly now rather than at the first sweep
        self.operator.inverse_inf_norm()
        base = self.base_point
        base = np.zeros(self.dim) if base is None else np.asarray(base, dtype=float)
        if base.shape != (self.dim,):
            raise SpecValidationError(
                f"base point shape {base.shape} != ({self.dim},)"
            )
        object.__setattr__(self, "base_point", base)
        zeros = tuple(np.zeros(self.dim) for _ in self.stages)
        r = np.asarray(self.outer(0.0, zeros, base), dtype=float)
        if r.shape != (self.dim,):
            raise SpecValidationError(
                f"outer map returned shape {r.shape}, expected ({self.dim},)"
            )
        if np.max(np.abs(r)) > 1e-10:
            raise SpecValidationError(
                f"base point is not a root at t=0: |F| = {np.max(np.abs(r)):.3e}"
            )


def eval_residual(
    problem: VolterraProblem,
    trajectory: Trajectory,
    j: int,
    weights: WeightTable | None = None,
    outer_values: np.ndarray | None = None,
) -> np.ndarray:
    """Value of F(u) at node j of the trajectory's mesh.

    ``outer_values``, when given, replaces the direct (non-integral)
    argument of the outer map while the kernels still see the
    trajectory.  The direct slot is the linear part by contract, so
    freezing it isolates the integral route exactly; differences of
    two such calls carry no cancellation noise from the linear term.
    """
    if trajectory.dim != problem.dim:
        raise SpecValidationError(
            f"trajectory dimension {trajectory.dim} != problem dimension"
            f" {problem.dim}"
        )
    if weights is None:
        weights = trapezoid_weights(trajectory.mesh)
    t = float(trajectory.mesh.nodes[j])
    direct = trajectory.values if outer_values is None else outer_values
    try:
        integrals = tuple(
            nested_integral(stage, weights, trajectory, j)
            for stage in problem.stages
        )
        r = np.asarray(problem.outer(t, integrals, direct[j]), dtype=float)
    except CostLimitError:
        raise
    except (DomainError, OverflowError, ZeroDivisionError, ValueError) as exc:
        raise NumericError(f"residual evaluation failed at node {j}: {exc}") from exc
    if r.shape != (problem.dim,):
        raise SpecValidationError(
            f"outer map returned shape {r.shape}, expected ({problem.dim},)"
        )
    if np.any(np.isnan(r)):
        raise NumericError(f"residual is NaN at node {j}")
    return r


def residuals(
    problem: VolterraProblem,
    trajectory: Trajectory,
    weights: WeightTable | None = None,
    outer_values: np.ndarray | None = None,
) -> np.ndarray:
    """F(u) at every mesh node, one row per node: shape (n+1, dim)."""
    if weights is None:
        weights = trapezoid_weights(trajectory.mesh)
    return np.vstack(
        [
            eval_residual(problem, trajectory, j, weights, outer_values)
            for j in range(trajectory.mesh.nodes.size)
        ]
    )


def picard_step(
    problem: VolterraProblem,
    trajectory: Trajectory,
    weights: WeightTable | None = None,
) -> Trajectory:
    """One sweep of u -> u - A^{-1} F(u) over all mesh nodes."""
    corrections = problem.operator.solve_many(residuals(problem, trajectory, weights))
    return Trajectory(trajectory.mesh, trajectory.values - corrections)
