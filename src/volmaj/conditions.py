"""Sampled audits of the structural conditions behind the bounds.

Every certificate in this package leans on monotonicity and domination
properties of the supplied majorant data.  These cannot be proven from
black-box callables, but they can be stress-sampled with reproducible
random trajectories; a failed sample is a hard counterexample, recorded
as a witness that replays bit-for-bit from (seed, stream, index).

Conditions, by label as they appear in reports:

  A  nonlinearity domination: |F(u) - Au| <= f(t, int gamma(|u|))
  B  monotonicity of gamma and of f in both arguments
  C  a declared closed-form bound really is an upper solution
  D  increment domination for pairs (u, u + du)
  E  directional-derivative domination along sampled directions
  G  convexity/monotonicity of the algebraic majorant f(r, t)

All verdicts are "sampled, not proven".
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .algebraic_majorant import LyapunovSpec, check_convexity
from .errors import DomainError, NumericError, SpecValidationError
from .integral_majorant import (
    MajorantSpec,
    _apply_f,
    _apply_gamma,
    check_upper_solution,
)
from .meshes import Mesh, Trajectory
from .problem import VolterraProblem, residuals
from .quadrature import WeightTable, trapezoid_weights

__all__ = [
    "ConditionStatus",
    "Witness",
    "CheckOutcome",
    "ConditionReport",
    "TrajectorySampler",
    "DEFAULT_SEED",
    "sample_margins_A",
    "sample_margins_D",
    "sample_margins_E",
    "check_A",
    "check_B",
    "check_C",
    "check_D_and_E",
    "check_G",
    "run_suite",
]

DEFAULT_SEED = 0x5EED

# sampler stream ids, fixed so witnesses replay
STREAM_A = 1
STREAM_U = 2
STREAM_V = 3
STREAM_DELTA = 4

_SLACK = 1e-9


class ConditionStatus(enum.Enum):
    PASS = "pass"
    FAIL = "fail"
    SKIPPED = "skipped"


@dataclass(frozen=True)
class Witness:
    condition: str
    sample: int
    node: int
    t: float
    lhs: float
    rhs: float


@dataclass(frozen=True)
class CheckOutcome:
    condition: str
    status: ConditionStatus
    samples: int
    worst_margin: float
    witness: Witness | None
    reason: str = ""
    note: str = "sampled, not proven"


@dataclass(frozen=True)
class ConditionReport:
    outcomes: dict[str, CheckOutcome]
    seed: int

    @property
    def failed(self) -> tuple[str, ...]:
        return tuple(
            k
            for k, v in sorted(self.outcomes.items())
            if v.status is ConditionStatus.FAIL
        )


class TrajectorySampler:
    """Reproducible random trajectories in a max-norm ball.

    draw(stream, index) is a pure function of (seed, stream, index):
    uniform box noise smoothed once with the (1/4, 1/2, 1/4) kernel,
    endpoints blended (3/4, 1/4), so samples are mildly continuous but
    still adversarial.
    """

    def __init__(
        self, mesh: Mesh, dim: int, bound: float = 1.0, seed: int = DEFAULT_SEED
    ):
        if not (bound > 0):
            raise SpecValidationError(f"sample bound must be positive, got {bound!r}")
        self.mesh = mesh
        self.dim = dim
        self.bound = bound
        self.seed = seed

    def draw(self, stream: int, index: int) -> Trajectory:
        rng = np.random.default_rng([self.seed, stream, index])
        raw = rng.uniform(-self.bound, self.bound, (self.mesh.nodes.size, self.dim))
        out = np.empty_like(raw)
        out[1:-1] = 0.25 * raw[:-2] + 0.5 * raw[1:-1] + 0.25 * raw[2:]
        out[0] = 0.75 * raw[0] + 0.25 * raw[1]
        out[-1] = 0.75 * raw[-1] + 0.25 * raw[-2]
        return Trajectory(self.mesh, out)


def _nonlinear_part(
    problem: VolterraProblem, traj: Trajectory, weights: WeightTable
) -> np.ndarray:
    a = problem.operator.matrix()
    return residuals(problem, traj, weights) - traj.values @ a.T


def _slope(g, x: float) -> float:
    """Central difference of g at x >= 0, one-sided forward where the
    left sample would fall below zero."""
    h = 1e-6 * (1.0 + abs(x))
    if x - h < 0.0:
        return (float(g(x + h)) - float(g(max(x, 0.0)))) / h
    return (float(g(x + h)) - float(g(x - h))) / (2.0 * h)


def sample_margins_A(
    problem: VolterraProblem,
    spec: MajorantSpec,
    traj: Trajectory,
    weights: WeightTable | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-node (lhs, rhs) for condition A on one trajectory."""
    if weights is None:
        weights = trapezoid_weights(traj.mesh)
    nonlin = _nonlinear_part(problem, traj, weights)
    lhs = np.max(np.abs(nonlin), axis=1)
    integrals = weights.prefix(_apply_gamma(spec, traj.norms))
    return lhs, _apply_f(spec, traj.mesh.nodes, integrals)


def sample_margins_D(
    problem: VolterraProblem,
    spec: MajorantSpec,
    u: Trajectory,
    du: Trajectory,
    weights: WeightTable | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-node (lhs, rhs) for the increment condition D."""
    if weights is None:
        weights = trapezoid_weights(u.mesh)
    bumped = Trajectory(u.mesh, u.values + du.values)
    lhs = np.max(
        np.abs(
            _nonlinear_part(problem, bumped, weights)
            - _nonlinear_part(problem, u, weights)
        ),
        axis=1,
    )
    base = weights.prefix(_apply_gamma(spec, u.norms))
    widened = weights.prefix(_apply_gamma(spec, u.norms + du.norms))
    rhs = _apply_f(spec, u.mesh.nodes, widened) - _apply_f(spec, u.mesh.nodes, base)
    return lhs, rhs


def sample_margins_E(
    problem: VolterraProblem,
    spec: MajorantSpec,
    u: Trajectory,
    v: Trajectory,
    weights: WeightTable | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-node (lhs, rhs) for the derivative condition E.

    lhs is a central finite-difference directional derivative along v
    of the integral route through the outer map, taken with the direct
    slot frozen at u so the linear part drops out exactly; rhs is the
    chain-rule bound built from the slopes of f and gamma.
    """
    if weights is None:
        weights = trapezoid_weights(u.mesh)
    eps = 1e-6 * (1.0 + u.max_norm)
    plus = Trajectory(u.mesh, u.values + eps * v.values)
    minus = Trajectory(u.mesh, u.values - eps * v.values)
    diff = residuals(problem, plus, weights, u.values) - residuals(
        problem, minus, weights, u.values
    )
    lhs = np.max(np.abs(diff), axis=1) / (2.0 * eps)
    norms = u.norms
    integrals = weights.prefix(_apply_gamma(spec, norms))
    slope_samples = np.array(
        [_slope(spec.gamma, float(z)) * nv for z, nv in zip(norms, v.norms)]
    )
    weighted = weights.prefix(slope_samples)
    rhs = np.array(
        [
            _slope(lambda x: spec.f(t, x), float(w)) * float(s)
            for t, w, s in zip(u.mesh.nodes.tolist(), integrals, weighted)
        ]
    )
    return lhs, rhs


def _sampled_check(
    condition: str,
    n_samples: int,
    draw_pair,
    margins,
) -> CheckOutcome:
    worst = math.inf
    witness: Witness | None = None
    mesh_nodes = None
    for i in range(n_samples):
        args = draw_pair(i)
        try:
            lhs, rhs = margins(*args)
        except (NumericError, DomainError, OverflowError, ValueError) as exc:
            return CheckOutcome(
                condition,
                ConditionStatus.FAIL,
                i + 1,
                -math.inf,
                Witness(condition, i, -1, math.nan, math.nan, math.nan),
                reason=f"evaluation failed on sample {i}: {exc}",
            )
        mesh_nodes = args[0].mesh.nodes
        margin = rhs - lhs
        j = int(np.argmin(margin))
        if margin[j] < worst:
            worst = float(margin[j])
            witness = Witness(
                condition,
                i,
                j,
                float(mesh_nodes[j]),
                float(lhs[j]),
                float(rhs[j]),
            )
    status = ConditionStatus.PASS if worst >= -_SLACK else ConditionStatus.FAIL
    return CheckOutcome(condition, status, n_samples, worst, witness)


def check_A(
    problem: VolterraProblem,
    spec: MajorantSpec,
    mesh: Mesh,
    n_samples: int = 200,
    seed: int = DEFAULT_SEED,
    bound: float = 1.0,
) -> CheckOutcome:
    sampler = TrajectorySampler(mesh, problem.dim, bound, seed)
    weights = trapezoid_weights(mesh)
    return _sampled_check(
        "A",
        n_samples,
        lambda i: (sampler.draw(STREAM_A, i),),
        lambda traj: sample_margins_A(problem, spec, traj, weights),
    )


def check_D_and_E(
    problem: VolterraProblem,
    spec: MajorantSpec,
    mesh: Mesh,
    n_samples: int = 200,
    seed: int = DEFAULT_SEED,
    bound: float = 1.0,
) -> tuple[CheckOutcome, CheckOutcome]:
    """Returns (outcome for D, outcome for E) on shared samples."""
    sampler = TrajectorySampler(mesh, problem.dim, bound, seed)
    weights = trapezoid_weights(mesh)
    outcome_d = _sampled_check(
        "D",
        n_samples,
        lambda i: (
            sampler.draw(STREAM_U, i),
            Trajectory(mesh, 0.5 * sampler.draw(STREAM_DELTA, i).values),
        ),
        lambda u, du: sample_margins_D(problem, spec, u, du, weights),
    )
    outcome_e = _sampled_check(
        "E",
        n_samples,
        lambda i: (sampler.draw(STREAM_U, i), sampler.draw(STREAM_V, i)),
        lambda u, v: sample_margins_E(problem, spec, u, v, weights),
    )
    return outcome_d, outcome_e


def check_B(
    spec: MajorantSpec,
    t_hi: float = 2.0,
    points: int = 128,
) -> CheckOutcome:
    """Grid monotonicity of gamma on [0, z_max] and of f on
    [0, t_hi] x [0, omega_max]."""
    z_hi = spec.z_max if spec.z_max is not None else 4.0
    w_hi = spec.omega_max if spec.omega_max is not None else 4.0
    z_grid = np.linspace(0.0, z_hi, points)
    w_grid = np.linspace(0.0, w_hi, points)
    t_grid = np.linspace(0.0, t_hi, max(points // 4, 2))
    worst = math.inf
    witness: Witness | None = None
    count = 0

    def update(tag_index: int, coord: float, lo: float, hi: float) -> None:
        nonlocal worst, witness
        margin = hi - lo
        if margin < worst:
            worst = margin
            witness = Witness("B", tag_index, -1, coord, lo, hi)

    try:
        g = _apply_gamma(spec, z_grid)
        count += g.size
        if float(np.min(g)) < -_SLACK:
            j = int(np.argmin(g))
            return CheckOutcome(
                "B",
                ConditionStatus.FAIL,
                count,
                float(g[j]),
                Witness("B", 0, -1, float(z_grid[j]), float(g[j]), 0.0),
                reason="gamma takes negative values",
            )
        for j in range(1, g.size):
            update(0, float(z_grid[j]), float(g[j - 1]), float(g[j]))
        for t in t_grid:
            row = np.array([float(spec.f(float(t), float(w))) for w in w_grid])
            count += row.size
            for j in range(1, row.size):
                update(1, float(w_grid[j]), float(row[j - 1]), float(row[j]))
        for w in w_grid[:: max(points // 16, 1)]:
            col = np.array([float(spec.f(float(t), float(w))) for t in t_grid])
            count += col.size
            for j in range(1, col.size):
                update(2, float(t_grid[j]), float(col[j - 1]), float(col[j]))
    except (NumericError, DomainError, OverflowError, ValueError) as exc:
        return CheckOutcome(
            "B",
            ConditionStatus.FAIL,
            count,
            -math.inf,
            None,
            reason=f"evaluation failed inside the sampled box: {exc}",
        )
    status = ConditionStatus.PASS if worst >= -_SLACK else ConditionStatus.FAIL
    reason = "" if status is ConditionStatus.PASS else "monotonicity violated"
    return CheckOutcome("B", status, count, worst, witness, reason=reason)


def check_C(
    spec: MajorantSpec,
    mesh: Mesh,
    slack: float = 1e-10,
) -> CheckOutcome:
    if spec.upper_solution is None:
        return CheckOutcome(
            "C",
            ConditionStatus.SKIPPED,
            0,
            math.nan,
            None,
            reason="no explicit upper solution declared",
        )
    try:
        rep = check_upper_solution(spec, spec.upper_solution, mesh, slack)
    except (NumericError, DomainError, OverflowError, ValueError) as exc:
        return CheckOutcome(
            "C",
            ConditionStatus.FAIL,
            0,
            -math.inf,
            None,
            reason=f"candidate bound not evaluable on the mesh: {exc}",
        )
    witness = Witness(
        "C",
        0,
        rep.node,
        rep.t,
        -rep.worst_margin,
        0.0,
    )
    status = ConditionStatus.PASS if rep.holds else ConditionStatus.FAIL
    return CheckOutcome(
        "C",
        status,
        mesh.nodes.size,
        rep.worst_margin,
        witness,
        reason="" if rep.holds else "candidate dips under the majorant map",
    )


def check_G(spec: LyapunovSpec | None) -> CheckOutcome:
    if spec is None:
        return CheckOutcome(
            "G",
            ConditionStatus.SKIPPED,
            0,
            math.nan,
            None,
            reason="no algebraic majorant declared",
        )
    rep = check_convexity(spec)
    if rep.passed:
        reason = "degenerate: f vanishes on the whole grid" if rep.degenerate else ""
        return CheckOutcome(
            "G", ConditionStatus.PASS, rep.samples, 0.0, None, reason=reason
        )
    kind, r, t, v = rep.violations[0]
    return CheckOutcome(
        "G",
        ConditionStatus.FAIL,
        rep.samples,
        float(v),
        Witness("G", 0, -1, t, float(v), 0.0),
        reason=f"{kind} at r={r:.6g}, t={t:.6g}"
        + (f" and {len(rep.violations) - 1} more" if len(rep.violations) > 1 else ""),
    )


def run_suite(
    problem: VolterraProblem | None = None,
    majorant: MajorantSpec | None = None,
    lyapunov: LyapunovSpec | None = None,
    mesh: Mesh | None = None,
    n_samples: int = 200,
    seed: int = DEFAULT_SEED,
    bound: float = 1.0,
) -> ConditionReport:
    """Run every applicable condition check; inapplicable ones are
    reported as skipped with the missing ingredient named."""
    outcomes: dict[str, CheckOutcome] = {}

    def skipped(cond: str, reason: str) -> CheckOutcome:
        return CheckOutcome(
            cond, ConditionStatus.SKIPPED, 0, math.nan, None, reason=reason
        )

    if problem is not None and mesh is None:
        raise SpecValidationError(
            "sampling trajectory conditions requires a mesh"
        )
    if problem is None or majorant is None:
        why = "no problem supplied" if problem is None else "no majorant supplied"
        outcomes["A"] = skipped("A", why)
        outcomes["D"] = skipped("D", why)
        outcomes["E"] = skipped("E", why)
    else:
        outcomes["A"] = check_A(problem, majorant, mesh, n_samples, seed, bound)
        d, e = check_D_and_E(problem, majorant, mesh, n_samples, seed, bound)
        outcomes["D"] = d
        outcomes["E"] = e
    if majorant is None:
        outcomes["B"] = skipped("B", "no majorant supplied")
        outcomes["C"] = skipped("C", "no majorant supplied")
    else:
        outcomes["B"] = check_B(majorant)
        if mesh is None:
            outcomes["C"] = (
                skipped("C", "no mesh supplied")
                if majorant.upper_solution is not None
                else skipped("C", "no explicit upper solution declared")
            )
        else:
            outcomes["C"] = check_C(majorant, mesh)
    outcomes["G"] = check_G(lyapunov)
    return ConditionReport(outcomes=outcomes, seed=seed)
