"""Discrete Volterra-type problems.

A problem packages the pieces of the equation F(u) = 0 with

    F(u)(t) = outer(t, I_1(u)(t), ..., I_K(u)(t), u(t))

where each I_k is a (possibly multi-fold) integral of a kernel over
[0, t]^fold.  The linear part A enters through ``operator``; one sweep
of successive approximation maps a trajectory u to u - A^{-1} F(u),
evaluated on the whole mesh at once with product trapezoid quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EVAL_ERRORS, NumericError, SpecValidationError
from .meshes import Mesh, Trajectory
from .quadrature import nested_integral

__all__ = [
    "KernelStage",
    "DenseOperator",
    "TridiagonalOperator",
    "VolterraProblem",
    "inverse_inf_norm",
    "eval_residual",
    "picard_step",
]

KernelFn = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
OuterFn = Callable[[np.ndarray, tuple, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class KernelStage:
    """One integral term: fold-dimensional integration of ``evaluate``.

    evaluate(t, s, u) takes K node tuples at once, from one or more
    quadrature rows, for a stack of S trajectories: the outer times t
    with shape (K,), the inner times s with shape (K, fold) and the
    matching states u with shape (S, K, fold, dim).  It returns the
    kernel values with shape (S, K, dim).  Work that does not depend on
    u is done once for all S trajectories.

    terms, when given, is the same kernel in separated form,
    K(t, s, u) = sum over r of a_r(t) * prod over c of b_{r,c}(s_c, u_c),
    as a tuple of (a, (b_1, ..., b_fold)) with a None for 1.  a(t) takes
    node times (N,) and returns values that broadcast to (N, dim);
    b(s, u) takes node times (K,) and states (S, K, dim) and returns
    values that broadcast to (S, K, dim).  A factor that is one callable
    object is evaluated once per integral wherever it appears.
    """

    fold: int
    evaluate: KernelFn
    terms: tuple | None = None

    def __post_init__(self):
        if self.fold < 1:
            raise SpecValidationError(f"stage fold must be >= 1, got {self.fold}")
        for term in self.terms or ():
            if len(term) != 2 or len(term[1]) != self.fold:
                raise SpecValidationError(
                    f"each term must be (a, {self.fold} factors), got {term!r}"
                )


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

    def solve_many(self, rhs: np.ndarray) -> np.ndarray:
        """Solve A x = r for each row r of rhs; rows come back as rows."""
        rhs = np.asarray(rhs, dtype=float)
        try:
            return np.linalg.solve(self._a, rhs.T).T
        except np.linalg.LinAlgError:
            raise SpecValidationError("linear part is singular") from None


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
        scale = max(np.max(np.abs(v), initial=1.0) for v in (lower, diag, upper))
        self._pivot_floor = 1e-14 * scale

    def matrix(self) -> np.ndarray:
        return np.diag(self.diag) + np.diag(self.lower, -1) + np.diag(self.upper, 1)

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


def inverse_inf_norm(operator: DenseOperator | TridiagonalOperator) -> float:
    """The max-norm of A^{-1}: its largest absolute row sum.  Row r of
    solve_many(I) is column r of A^{-1}, so that is a column sum."""
    columns = operator.solve_many(np.eye(operator.dim))
    return float(np.max(np.sum(np.abs(columns), axis=0)))


@dataclass(frozen=True)
class VolterraProblem:
    """F(u) = 0 with linear part A and nested Volterra integrals.

    inv_norm_bound is a bound c >= ||A^{-1}|| in the max norm (within
    rounding); the sampled conditions scale their left sides by it.

    outer(t, integrals, u) takes the node times t with shape (N,), one
    integral array per stage and the states u, both with shape
    (S, N, dim), and returns F at those nodes with shape (S, N, dim).
    """

    dim: int
    stages: tuple[KernelStage, ...]
    outer: OuterFn
    operator: DenseOperator | TridiagonalOperator
    inv_norm_bound: float
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
        # fails loudly now rather than at the first sweep; the audit
        # scales by inv_norm_bound, so it must bound the norm it stands for
        norm = inverse_inf_norm(self.operator)
        if self.inv_norm_bound < norm * (1.0 - 1e-12):
            raise SpecValidationError(
                f"inverse-norm bound {self.inv_norm_bound!r} is below the"
                f" max-norm of the inverse linear part, {norm!r}"
            )
        # the base point, the zero state where solve_main starts, must be
        # a root at t = 0
        zeros = np.zeros((1, 1, self.dim))
        try:
            r = np.asarray(
                self.outer(np.zeros(1), (zeros,) * len(self.stages), zeros), float
            )
        except EVAL_ERRORS as exc:
            raise SpecValidationError(
                f"outer map is not evaluable at t = 0: {exc}"
            ) from exc
        if r.shape != (1, 1, self.dim):
            raise SpecValidationError(
                f"outer map returned shape {r.shape}, expected (1, 1, {self.dim})"
            )
        if np.max(np.abs(r)) > 1e-10:
            raise SpecValidationError(
                f"base point is not a root at t=0: |F| = {np.max(np.abs(r)):.3e}"
            )


def _residual_at(problem, mesh, values, direct, rows=None) -> np.ndarray:
    """F at the given nodes (every node when rows is None)."""
    t = mesh.nodes if rows is None else mesh.nodes[rows]
    integrals = tuple(
        nested_integral(stage, mesh, values, rows=rows) for stage in problem.stages
    )
    u = direct if rows is None else direct[:, rows]
    r = np.asarray(problem.outer(t, integrals, u), dtype=float)
    if r.shape != u.shape:
        raise SpecValidationError(
            f"outer map returned shape {r.shape}, expected {u.shape}"
        )
    return r


def eval_residual(
    problem: VolterraProblem,
    mesh: Mesh,
    values: np.ndarray,
    outer_values: np.ndarray | None = None,
) -> np.ndarray:
    """F(u) at every mesh node for a stack of S trajectories.

    values has shape (S, n+1, dim) and so does the result.
    ``outer_values``, when given, replaces the direct (non-integral)
    argument of the outer map while the kernels still see ``values``.
    The direct slot is the linear part by contract, so freezing it
    isolates the integral route exactly; differences of two such calls
    carry no cancellation noise from the linear term.

    A failure is reported at the lowest (trajectory, node), with the
    message that node's own evaluation gives.
    """
    values = np.asarray(values, dtype=float)
    if values.shape[1:] != (mesh.nodes.size, problem.dim):
        raise SpecValidationError(
            f"values shape {values.shape} is not (S, {mesh.nodes.size}, {problem.dim})"
        )
    direct = values
    if outer_values is not None:
        direct = np.broadcast_to(outer_values, values.shape)
    try:
        r = _residual_at(problem, mesh, values, direct)
        if not np.isnan(r).any():
            return r
    except EVAL_ERRORS:
        pass
    # something failed: find where, one trajectory and one node at a time
    for k in range(values.shape[0]):
        for j in range(mesh.nodes.size):
            try:
                r = _residual_at(
                    problem, mesh, values[k : k + 1], direct[k : k + 1], [j]
                )
            except EVAL_ERRORS as exc:
                raise NumericError(
                    f"residual evaluation failed at node {j}: {exc}"
                ) from exc
            if np.isnan(r).any():
                raise NumericError(f"residual is NaN at node {j}")
    raise NumericError("residual evaluation failed on the whole mesh only")


def picard_step(problem: VolterraProblem, trajectory: Trajectory) -> Trajectory:
    """One sweep of u -> u - A^{-1} F(u) over all mesh nodes."""
    residual = eval_residual(problem, trajectory.mesh, trajectory.values[None])[0]
    corrections = problem.operator.solve_many(residual)
    return Trajectory(trajectory.mesh, trajectory.values - corrections)
