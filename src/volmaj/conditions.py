"""Sampled audits of the structural conditions behind the bounds.

Every certificate in this package leans on monotonicity and domination
properties of the supplied majorant data.  These cannot be proven from
black-box callables, but they can be stress-sampled with reproducible
random trajectories; a failed sample is a hard counterexample, recorded
as a witness whose sample replays bit for bit from (seed, stream, index).

Conditions, by label as they appear in reports:

  A  nonlinearity domination: c |F(u) - Au| <= f(t, int gamma(|u|))
  B  monotonicity of gamma and of f in both arguments
  C  a declared closed-form bound really is an upper solution
  D  increment domination for pairs (u, u + du)
  E  directional-derivative domination along sampled directions
  G  convexity/monotonicity of the algebraic majorant f(r, t)

The left sides of A, D and E are scaled by c, the problem's bound on
the norm of A^{-1}, since each sweep applies A^{-1} to F.  A, D and E
share the samples u of one stream, audited in one pass: each block of
u is drawn once, and its nonlinear part, norms, low integrals and f at
those integrals are each evaluated once for the conditions that use them.

All verdicts are "sampled, not proven".
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebraic_majorant import LyapunovSpec
from .errors import EVAL_ERRORS, NumericError, SpecValidationError
from .integral_majorant import MajorantSpec, check_upper_solution
from .meshes import Mesh, Trajectory
from .problem import VolterraProblem, eval_residual
from .quadrature import BLOCK_ELEMENTS

__all__ = [
    "ConditionStatus",
    "Witness",
    "CheckOutcome",
    "ConditionReport",
    "TrajectorySampler",
    "DEFAULT_SEED",
    "check_A",
    "check_B",
    "check_C",
    "check_D_and_E",
    "check_G",
    "run_suite",
]

DEFAULT_SEED = 0x5EED

# sampler stream ids, fixed so witnesses replay
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


def _skipped(condition: str, reason: str) -> CheckOutcome:
    return CheckOutcome(condition, ConditionStatus.SKIPPED, 0, math.nan, None, reason)


def _failed(
    condition: str, samples: int, reason: str, witness: Witness | None = None
) -> CheckOutcome:
    """The outcome of an evaluation that raised: margin -inf."""
    return CheckOutcome(
        condition, ConditionStatus.FAIL, samples, -math.inf, witness, reason
    )


class TrajectorySampler:
    """Reproducible random trajectories in a max-norm ball.

    Sample i of (seed, stream) is the i-th run of (n+1)·dim uniform draws
    of the stream's one PCG64 generator.  blocks draws a stream's blocks
    of consecutive samples in turn from one generator, jumping only where
    a block does not start where the last one stopped; block(stream, r)
    is the one-block run and draw(stream, i) the one-sample block, so a
    witness replays in O(1).  The noise is smoothed by the (1/4, 1/2, 1/4)
    kernel, ends blended (3/4, 1/4).
    """

    def __init__(
        self, mesh: Mesh, dim: int, bound: float = 1.0, seed: int = DEFAULT_SEED
    ):
        if not (bound > 0 and math.isfinite(2.0 * bound)):  # the draw range
            raise SpecValidationError(
                f"sample bound must be > 0 with 2 * bound finite, got {bound!r}"
            )
        self.mesh = mesh
        self.dim = dim
        self.bound = bound
        self.seed = seed

    def blocks(self, stream: int, ranges: Iterable[range]) -> Iterator[np.ndarray]:
        """The stack of samples of each of the increasing ranges in turn,
        shape (S, n+1, dim)."""
        rng = np.random.default_rng([self.seed, stream])
        nodes, stop = self.mesh.nodes.size, 0
        for samples in ranges:
            if samples.start != stop:
                rng.bit_generator.advance((samples.start - stop) * nodes * self.dim)
            stop = samples.stop
            shape = (len(samples), nodes, self.dim)
            # no array stays referenced here while the caller holds a block
            yield _smoothed(rng.uniform(-self.bound, self.bound, shape))

    def block(self, stream: int, samples: range) -> np.ndarray:
        """The stack of samples, consecutive indices, shape (S, n+1, dim)."""
        return next(self.blocks(stream, (samples,)))

    def draw(self, stream: int, index: int) -> Trajectory:
        return Trajectory(self.mesh, self.block(stream, range(index, index + 1))[0])


def _smoothed(raw: np.ndarray) -> np.ndarray:
    """A stack (S, n+1, dim) of noise smoothed along the nodes."""
    out = np.empty_like(raw)
    out[:, 1:-1] = 0.25 * raw[:, :-2] + 0.5 * raw[:, 1:-1] + 0.25 * raw[:, 2:]
    out[:, 0] = 0.75 * raw[:, 0] + 0.25 * raw[:, 1]
    out[:, -1] = 0.75 * raw[:, -1] + 0.25 * raw[:, -2]
    return out


def _norms(values: np.ndarray) -> np.ndarray:
    """Per-node max-abs norms of a stack of trajectories: (S, n+1)."""
    return np.max(np.abs(values), axis=2)


# The sides below map f and gamma over the whole (S, n+1) stack, each
# statement in the order a one-sample call runs it, so the re-run of a
# failing block one sample at a time meets the same first failure; a
# majorant that overflows leaves a side that is not finite, which the
# check reports by name, with no numpy warning.


class _AtU:
    """The sides of conditions A, D and E at a stack u of trajectories on
    a mesh; linear is the transpose of the problem's operator matrix,
    built once per audit.

    What u alone decides is computed on first use and then shared by the
    conditions: the nonlinear part N(u) = F(u) - Au, the low integrals
    prefix(gamma(|u|)) and f(t, low).  Slicing slices the samples.
    """

    def __init__(self, problem, spec: MajorantSpec, mesh: Mesh, u, linear):
        self.problem, self.spec, self.mesh, self.u = problem, spec, mesh, u
        self.linear, self.weights, self.norms = linear, mesh.weights, _norms(u)

    def __getitem__(self, key) -> _AtU:
        return _AtU(self.problem, self.spec, self.mesh, self.u[key], self.linear)

    def _nonlinear(self, values: np.ndarray) -> np.ndarray:
        residual = eval_residual(self.problem, self.mesh, values)
        # an overflowing kernel makes this inf - inf; the check reports it
        with np.errstate(invalid="ignore", over="ignore"):
            return residual - values @ self.linear

    @cached_property
    def nonlinear(self) -> np.ndarray:
        return self._nonlinear(self.u)

    @cached_property
    def low(self) -> np.ndarray:
        with np.errstate(invalid="ignore", over="ignore"):
            return self.weights.prefix(self.spec.gamma_form.map(self.norms))

    @cached_property
    def f_low(self) -> np.ndarray:
        with np.errstate(invalid="ignore", over="ignore"):
            return self.spec.f_form.map(self.mesh.nodes, self.low)

    def sides_A(self) -> tuple[np.ndarray, np.ndarray]:
        nonlinear = self.nonlinear
        with np.errstate(invalid="ignore", over="ignore"):
            lhs = self.problem.inv_norm_bound * np.max(np.abs(nonlinear), axis=2)
        return lhs, self.f_low

    def sides_D(self, du: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        widened = self._nonlinear(self.u + du)
        base = self.nonlinear
        self.low  # gamma runs at u before u + du
        # infinite parts give nan differences here, which the check reports
        with np.errstate(invalid="ignore", over="ignore"):
            lhs = self.problem.inv_norm_bound * np.max(np.abs(widened - base), axis=2)
            rates = self.spec.gamma_form.map(self.norms + _norms(du))
            f_wide = self.spec.f_form.map(self.mesh.nodes, self.weights.prefix(rates))
            return lhs, f_wide - self.f_low

    def sides_E(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-node (lhs, rhs) for the derivative condition E along v.

        lhs is c times a central finite-difference directional derivative
        along v of the integral route through the outer map, taken with
        the direct slot frozen at u so the linear part drops out exactly;
        rhs is the chain-rule bound built from the exact slopes df/dw and
        gamma'.  Node 0's integral weights are 0, so its right side is 0
        whatever the slope of f there, which may be singular at w = 0.
        """
        problem, u = self.problem, self.u
        eps = 1e-6 * (1.0 + np.max(np.abs(u), axis=(1, 2)))
        step = eps[:, None, None] * v
        ahead = eval_residual(problem, self.mesh, u + step, u)
        behind = eval_residual(problem, self.mesh, u - step, u)
        integrals = self.low
        with np.errstate(invalid="ignore", over="ignore"):
            spread = np.max(np.abs(ahead - behind), axis=2)
            lhs = problem.inv_norm_bound * spread / (2.0 * eps[:, None])
            weighted = self.weights.prefix(
                self.spec.gamma_z_form.map(self.norms) * _norms(v)
            )
            f_w = self.spec.f_w_form.map(self.mesh.nodes[1:], integrals[:, 1:])
            return lhs, np.pad(f_w * weighted[:, 1:], ((0, 0), (1, 0)))


class _SampledCheck:
    """One sampled condition, fed block by block of samples.

    The worst margin and its witness are those a sample-by-sample audit
    finds; a block that raises is re-run one sample at a time, so the
    failure reported is the lowest failing sample's, with its message.
    A side or margin that is not finite fails the check at its lowest
    (sample, node), as an evaluation that raised does.
    """

    def __init__(self, condition: str, mesh: Mesh, margins):
        self.condition = condition
        self.nodes = mesh.nodes
        self.margins = margins
        self.worst = math.inf
        self.witness: Witness | None = None
        self.failure: CheckOutcome | None = None

    def feed(self, samples: range, *stacks: np.ndarray) -> None:
        errors = (NumericError, *EVAL_ERRORS)
        try:
            lhs, rhs = self.margins(*stacks)
        except errors:
            for k, i in enumerate(samples):
                try:
                    self.margins(*(a[k : k + 1] for a in stacks))
                except errors as exc:
                    nowhere = Witness(self.condition, i, -1, *[math.nan] * 3)
                    reason = f"evaluation failed on sample {i}: {exc}"
                    self.failure = _failed(self.condition, i + 1, reason, nowhere)
                    return
            raise
        with np.errstate(invalid="ignore"):
            margin = rhs - lhs
        # a nan margin compares false with everything, so it never
        # lowers the worst margin: fail it by name instead
        finite = np.isfinite(lhs) & np.isfinite(margin)
        rows_ok = finite.all(axis=1)
        good = len(samples) if rows_ok.all() else int(np.argmin(rows_ok))
        # the rows before the first bad one, as a sample-by-sample scan with
        # a strict < takes them: the first smallest row minimum wins
        cols = np.argmin(margin[:good], axis=1)
        lows = margin[np.arange(good), cols]
        if good and lows.min() < self.worst:
            k = int(np.argmin(lows))
            self.worst = float(lows[k])
            self.witness = self._witness(samples, k, int(cols[k]), lhs, rhs)
        if good < len(samples):
            w = self._witness(samples, good, int(np.argmin(finite[good])), lhs, rhs)
            side, cause = (
                ("right", "majorant") if math.isfinite(w.lhs) else ("left", "kernel")
            )
            reason = f"{side} side is not finite ({cause} overflow?)"
            self.failure = _failed(self.condition, w.sample + 1, reason, w)

    def _witness(self, samples: range, k: int, j: int, lhs, rhs) -> Witness:
        t, left = float(self.nodes[j]), float(lhs[k, j])
        return Witness(self.condition, samples[k], j, t, left, float(rhs[k, j]))

    def outcome(self, n_samples: int) -> CheckOutcome:
        if self.failure is not None:
            return self.failure
        status = ConditionStatus.PASS if self.worst >= -_SLACK else ConditionStatus.FAIL
        return CheckOutcome(self.condition, status, n_samples, self.worst, self.witness)


def _sample_blocks(sampler: TrajectorySampler, n_samples: int):
    """Consecutive sample indices, as many per block as the budget holds."""
    # no sample drawn would leave every sampled condition "pass"
    if not (isinstance(n_samples, (int, np.integer)) and n_samples >= 1):
        raise SpecValidationError(f"n_samples must be an integer >= 1: {n_samples!r}")
    size = max(1, BLOCK_ELEMENTS // (sampler.mesh.nodes.size * sampler.dim))
    for start in range(0, n_samples, size):
        yield range(start, min(start + size, n_samples))


def _audit(problem, spec, mesh, n_samples, seed, bound) -> dict[str, CheckOutcome]:
    """The outcomes of conditions A, D and E in one pass over the blocks
    of STREAM_U, each drawn once and shared through an _AtU.  Each
    outcome is its condition's alone on the same samples; a check that
    has failed takes no more blocks, and a stream no live check needs is
    drawn no further."""
    sampler = TrajectorySampler(mesh, problem.dim, bound, seed)
    ranges = list(_sample_blocks(sampler, n_samples))
    sides = {"A": _AtU.sides_A, "D": _AtU.sides_D, "E": _AtU.sides_E}
    checks = {c: _SampledCheck(c, mesh, side) for c, side in sides.items()}
    linear = problem.operator.matrix().T
    u_blocks, delta_blocks, v_blocks = (
        sampler.blocks(stream, ranges) for stream in (STREAM_U, STREAM_DELTA, STREAM_V)
    )
    for samples in ranges:
        live = {c: check for c, check in checks.items() if check.failure is None}
        if not live:
            break
        at = _AtU(problem, spec, mesh, next(u_blocks), linear)
        if "A" in live:
            live["A"].feed(samples, at)
        if "D" in live:
            live["D"].feed(samples, at, 0.5 * next(delta_blocks))
        if "E" in live:
            live["E"].feed(samples, at, next(v_blocks))
    return {c: check.outcome(n_samples) for c, check in checks.items()}


def check_A(
    problem: VolterraProblem,
    spec: MajorantSpec,
    mesh: Mesh,
    n_samples: int = 200,
    seed: int = DEFAULT_SEED,
    bound: float = 1.0,
) -> CheckOutcome:
    return _audit(problem, spec, mesh, n_samples, seed, bound)["A"]


def check_D_and_E(
    problem: VolterraProblem,
    spec: MajorantSpec,
    mesh: Mesh,
    n_samples: int = 200,
    seed: int = DEFAULT_SEED,
    bound: float = 1.0,
) -> tuple[CheckOutcome, CheckOutcome]:
    """(outcome for D, outcome for E) from the one audit of A, D and E."""
    outcomes = _audit(problem, spec, mesh, n_samples, seed, bound)
    return outcomes["D"], outcomes["E"]


# condition B's box: its least t range and the points per z or w grid
_B_T_HI = 2.0
_B_POINTS = 128


def check_B(spec: MajorantSpec, mesh: Mesh | None = None) -> CheckOutcome:
    """Grid monotonicity of gamma on [0, z_max] and of f on [0, t_hi]
    x [0, omega_max] from one call each, t_hi the larger of _B_T_HI and
    the mesh's end, f's columns of fixed w being the slice grid[:, ::8].T;
    the worst margin is the first smallest difference in the order gamma,
    rows of fixed t, columns of fixed w.  A grid that raises is re-run
    row by row to count samples."""
    # z_max and omega_max are positive when given
    z_grid = np.linspace(0.0, spec.z_max or 4.0, _B_POINTS)
    w_grid = np.linspace(0.0, spec.omega_max or 4.0, _B_POINTS)
    t_hi = _B_T_HI if mesh is None else max(_B_T_HI, mesh.end)
    t_grid = np.linspace(0.0, t_hi, _B_POINTS // 4)
    count, worst, witness = 0, math.inf, None
    try:
        g = spec.gamma_form.map(z_grid)
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
        try:
            grid = spec.f_form.map(t_grid[:, None], w_grid)
        except (NumericError, *EVAL_ERRORS):
            for t in t_grid:
                count += spec.f_form.map(t, w_grid).size
            raise
        columns = grid[:, :: _B_POINTS // 16].T
        count += grid.size + columns.size
        parts = [(0, z_grid, g[None, :]), (1, w_grid, grid), (2, t_grid, columns)]
    except (NumericError, *EVAL_ERRORS) as exc:
        return _failed("B", count, f"evaluation failed inside the sampled box: {exc}")
    for tag, coords, grid in parts:
        with np.errstate(invalid="ignore"):
            margins = np.diff(grid, axis=1)
        # a nan margin never lowers the worst one, as nan < worst is false
        margins[np.isnan(margins)] = math.inf
        r, j = np.unravel_index(np.argmin(margins), margins.shape)
        if margins[r, j] < worst:
            worst = float(margins[r, j])
            lo, hi = float(grid[r, j]), float(grid[r, j + 1])
            witness = Witness("B", tag, -1, float(coords[j + 1]), lo, hi)
    status = ConditionStatus.PASS if worst >= -_SLACK else ConditionStatus.FAIL
    reason = "" if status is ConditionStatus.PASS else "monotonicity violated"
    return CheckOutcome("B", status, count, worst, witness, reason=reason)


def check_C(spec: MajorantSpec, mesh: Mesh | None) -> CheckOutcome:
    if spec.upper_solution is None:
        return _skipped("C", "no explicit upper solution declared")
    if mesh is None:
        return _skipped("C", "no mesh supplied")
    try:
        rep = check_upper_solution(spec, mesh)
    except (NumericError, *EVAL_ERRORS) as exc:
        return _failed("C", 0, f"candidate bound not evaluable on the mesh: {exc}")
    witness = Witness("C", 0, rep.node, rep.t, -rep.worst_margin, 0.0)
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
    """Condition G from the spec's own convexity screen, spec.convexity."""
    if spec is None:
        return _skipped("G", "no algebraic majorant declared")
    rep = spec.convexity
    if rep.passed:
        reason = "degenerate: f vanishes on the whole grid" if rep.degenerate else ""
        return CheckOutcome(
            "G", ConditionStatus.PASS, rep.samples, 0.0, None, reason=reason
        )
    kind, r, t, v = rep.worst
    return CheckOutcome(
        "G",
        ConditionStatus.FAIL,
        rep.samples,
        v,
        Witness("G", 0, -1, t, v, 0.0),
        reason=f"{kind} at r={r:.6g}, t={t:.6g}"
        + (f" and {rep.count - 1} more" if rep.count > 1 else ""),
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
    if problem is not None and mesh is None:
        raise SpecValidationError(
            "sampling trajectory conditions requires a mesh"
        )
    if problem is None or majorant is None:
        why = "no problem supplied" if problem is None else "no majorant supplied"
        outcomes.update({c: _skipped(c, why) for c in "ADE"})
    else:
        outcomes.update(_audit(problem, majorant, mesh, n_samples, seed, bound))
    if majorant is None:
        outcomes.update({c: _skipped(c, "no majorant supplied") for c in "BC"})
    else:
        outcomes["B"] = check_B(majorant, mesh)
        outcomes["C"] = check_C(majorant, mesh)
    outcomes["G"] = check_G(lyapunov)
    return ConditionReport(outcomes=outcomes, seed=seed)
