"""Successive approximation of the main solution with certified stops.

The main solution is the limit of u_0 = 0, u_{n+1} = u_n - A^{-1}F(u_n).
The solve keeps the per-node norms of every iterate.  When a certified
majorant on the same mesh is supplied and chain row n dominates iterate
n's norms, the distance to the limit is bounded by (certified bound -
chain row n), so iteration can stop as soon as that tail drops below
tolerance even if the step size alone would not justify stopping; an
undominated iterate earns no tail.  verify_domination applies the same
rule to every iterate, and to the final one against the certificate bound.
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
    "residual_norms",
    "verify_domination",
]

# the roundoff the domination rule forgives
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
    # (iterations + 1, nodes): row n holds iterate n's per-node norms
    norms: np.ndarray
    stop_reason: str
    final_step: float
    final_tail: float | None


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


def _dominated(norms: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """The domination rule, elementwise: norms at most bound plus
    _DOMINATION_SLACK.  The solve's tail test and verify_domination
    both apply it."""
    return norms <= bound + _DOMINATION_SLACK


def solve_main(
    problem: VolterraProblem,
    mesh: Mesh,
    tol: float = 1e-10,
    n_max: int = 200,
    majorant: MajorantSolution | None = None,
) -> SolveReport:
    """Iterate from the zero trajectory until the step, or the certified
    tail of an iterate the majorant's chain dominates, drops below tol.
    The report keeps every iterate's per-node norms."""
    if majorant is not None:
        _check_majorant_mesh(mesh, majorant)
        tails = certified_tail(majorant.chain, majorant.certificate_bound)
    if n_max < 1:
        raise SpecValidationError(f"n_max must be >= 1, got {n_max}")
    u = zero_trajectory(mesh, problem.dim)
    norms = [u.norms]
    status = SolveStatus.NOT_CONVERGED
    stop_reason = "max-iterations"
    for n in range(1, n_max + 1):
        u_new = picard_step(problem, u)
        final_step = float(np.max(np.abs(u_new.values - u.values)))
        u = u_new
        norms.append(u.norms)
        certified = None
        if majorant is not None:
            k = min(n, majorant.chain.count - 1)
            if np.all(_dominated(norms[-1], majorant.chain.iterates[k])):
                certified = tails[k]
        if final_step <= tol * (1.0 + u.max_norm):
            status = SolveStatus.CONVERGED
            stop_reason = "step"
            break
        if certified is not None and float(np.max(certified)) <= tol:
            status = SolveStatus.CONVERGED
            stop_reason = "certified-tail"
            break
    residuals = residual_norms(problem, u)
    return SolveReport(
        trajectory=u,
        iterations=len(norms) - 1,
        status=status,
        residuals=residuals,
        residual_bound=float(np.max(residuals)),
        certified_bounds=certified,
        norms=np.vstack(norms),
        stop_reason=stop_reason,
        final_step=final_step,
        final_tail=None if certified is None else float(np.max(certified)),
    )


def residual_norms(problem: VolterraProblem, trajectory: Trajectory) -> np.ndarray:
    """Nodewise max-abs of F(u): how far the trajectory is from solving
    the discretized equation (diagnostic, not a certified quantity)."""
    residual = eval_residual(problem, trajectory.mesh, trajectory.values[None])[0]
    return np.max(np.abs(residual), axis=1)


def verify_domination(
    report: SolveReport, majorant: MajorantSolution
) -> DominationReport:
    """Audit every iterate against its chain row (the chain's last row
    past its end), and the final iterate against the certificate bound."""
    _check_majorant_mesh(report.trajectory.mesh, majorant)
    chain = np.vstack(majorant.chain.iterates)
    rows = np.minimum(np.arange(report.iterations + 1), chain.shape[0] - 1)
    norms = np.vstack([report.norms, report.norms[-1]])
    bounds = np.vstack([chain[rows], majorant.certificate_bound])
    violations = tuple(
        (min(i, report.iterations), j, float(norms[i, j]), float(bounds[i, j]))
        for i, j in np.argwhere(~_dominated(norms, bounds))[:20].tolist()
    )
    return DominationReport(
        holds=not violations,
        checked=norms.size,
        worst_margin=float(np.min(bounds - norms)),
        violations=violations,
    )
