"""Successive approximation of the main solution with certified stops.

The main solution is the limit of u_0 = 0, u_{n+1} = u_n - A^{-1}F(u_n).
When a certified majorant on the same mesh is supplied and its chain
dominates an iterate's norms, the distance to the limit is bounded by
(certified bound - chain iterate), so iteration can stop as soon as that
tail drops below tolerance even if the step size alone would not justify
stopping; an undominated iterate earns no tail.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import SpecValidationError
from .integral_majorant import MajorantSolution, certified_tail
from .meshes import Mesh, Trajectory, zero_trajectory
from .problem import VolterraProblem, eval_residual, picard_step

__all__ = [
    "SolveStatus",
    "SolveReport",
    "DominationReport",
    "solve_main",
    "solve_from",
    "residual_norms",
    "verify_domination",
]

# the most iterates a report keeps: past it the stored ones are thinned
# to every other one, the last always kept
_CHAIN_CAP = 50

# the roundoff verify_domination forgives
_DOMINATION_SLACK = 1e-9


class SolveStatus(enum.Enum):
    CONVERGED = "converged"
    NOT_CONVERGED = "not-converged"


@dataclass(frozen=True, eq=False)
class SolveReport:
    trajectory: Trajectory
    iterations: int
    status: SolveStatus
    residuals: np.ndarray
    residual_bound: float
    certified_bounds: np.ndarray | None
    iterates: tuple[tuple[int, Trajectory], ...]
    stop_reason: str
    final_step: float
    final_tail: float | None
    main_solution: bool


@dataclass(frozen=True)
class DominationReport:
    holds: bool
    checked: int
    worst_margin: float
    violations: tuple[tuple[int, int, float, float], ...]


def _check_majorant_mesh(mesh: Mesh, majorant: MajorantSolution) -> None:
    if not np.array_equal(mesh.nodes, majorant.mesh.nodes):
        raise SpecValidationError(
            "majorant and solver must share one mesh; rebuild the majorant"
            " on the solver mesh"
        )


def _tail_row(
    majorant: MajorantSolution | None, tails: np.ndarray | None, u: Trajectory, n: int
) -> np.ndarray | None:
    """Row n of the certified tails when chain row n dominates iterate n's
    norms, the rule verify_domination applies; None otherwise."""
    if majorant is None:
        return None
    k = min(n, majorant.chain.count - 1)
    dominated = np.all(u.norms <= majorant.chain.iterates[k] + _DOMINATION_SLACK)
    return tails[k] if dominated else None


def _solve(
    problem: VolterraProblem,
    start: Trajectory,
    tol: float,
    n_max: int,
    majorant: MajorantSolution | None,
    main: bool,
) -> SolveReport:
    mesh = start.mesh
    tails = None
    if majorant is not None:
        _check_majorant_mesh(mesh, majorant)
        tails = certified_tail(majorant.chain, majorant.certificate_bound)
    if n_max < 1:
        raise SpecValidationError(f"n_max must be >= 1, got {n_max}")
    u = start
    stored: list[tuple[int, Trajectory]] = [(0, u)]
    status = SolveStatus.NOT_CONVERGED
    stop_reason = "max-iterations"
    final_step = np.inf
    iterations = 0
    for n in range(1, n_max + 1):
        u_new = picard_step(problem, u)
        final_step = float(np.max(np.abs(u_new.values - u.values)))
        u = u_new
        iterations = n
        stored.append((n, u))
        if len(stored) > _CHAIN_CAP:
            last = stored[-1]
            stored = stored[::2]
            if stored[-1][0] != last[0]:
                stored.append(last)
        if final_step <= tol * (1.0 + u.max_norm):
            status = SolveStatus.CONVERGED
            stop_reason = "step"
            break
        tail = _tail_row(majorant, tails, u, n)
        if tail is not None and float(np.max(tail)) <= tol:
            status = SolveStatus.CONVERGED
            stop_reason = "certified-tail"
            break
    certified = _tail_row(majorant, tails, u, iterations)
    norms = residual_norms(problem, u)
    return SolveReport(
        trajectory=u,
        iterations=iterations,
        status=status,
        residuals=norms,
        residual_bound=float(np.max(norms)),
        certified_bounds=certified,
        iterates=tuple(stored),
        stop_reason=stop_reason,
        final_step=final_step,
        final_tail=None if certified is None else float(np.max(certified)),
        main_solution=main,
    )


def solve_main(
    problem: VolterraProblem,
    mesh: Mesh,
    tol: float = 1e-10,
    n_max: int = 200,
    majorant: MajorantSolution | None = None,
) -> SolveReport:
    """Iterate from the zero trajectory until the step, or the certified
    tail of an iterate the majorant's chain dominates, drops below tol."""
    return _solve(
        problem, zero_trajectory(mesh, problem.dim), tol, n_max, majorant, main=True
    )


def solve_from(
    problem: VolterraProblem,
    start: Trajectory,
    tol: float = 1e-10,
    n_max: int = 200,
) -> SolveReport:
    """Iterate from an arbitrary start; no domination claims attach."""
    if start.dim != problem.dim:
        raise SpecValidationError(
            f"start dimension {start.dim} != problem dimension {problem.dim}"
        )
    return _solve(problem, start, tol, n_max, None, main=False)


def residual_norms(problem: VolterraProblem, trajectory: Trajectory) -> np.ndarray:
    """Nodewise max-abs of F(u): how far the trajectory is from solving
    the discretized equation (diagnostic, not a certified quantity)."""
    residual = eval_residual(problem, trajectory.mesh, trajectory.values[None])[0]
    return np.max(np.abs(residual), axis=1)


def verify_domination(
    report: SolveReport, majorant: MajorantSolution
) -> DominationReport:
    """Audit that every stored iterate sits under its chain iterate and
    the final iterate under the certificate bound.

    Applies to main solutions only: domination is inherited from the
    zero start, so an arbitrary start voids it.
    """
    if not report.main_solution:
        raise SpecValidationError(
            "domination auditing applies to main solutions (zero start) only"
        )
    _check_majorant_mesh(report.trajectory.mesh, majorant)
    worst = np.inf
    checked = 0
    violations: list[tuple[int, int, float, float]] = []
    top = majorant.chain.count - 1
    # (index, norms, bound): each stored iterate against its chain row,
    # then the final trajectory against the certificate bound
    audits = [
        (idx, traj.norms, majorant.chain.iterates[min(idx, top)])
        for idx, traj in report.iterates
    ]
    audits.append(
        (report.iterations, report.trajectory.norms, majorant.certificate_bound)
    )
    for idx, norms, bound in audits:
        margins = bound - norms
        checked += norms.size
        worst = min(worst, float(np.min(margins)))
        for j in np.nonzero(margins < -_DOMINATION_SLACK)[0][: 20 - len(violations)]:
            violations.append((idx, int(j), float(norms[j]), float(bound[j])))
    return DominationReport(
        holds=not violations,
        checked=checked,
        worst_margin=worst,
        violations=tuple(violations),
    )
