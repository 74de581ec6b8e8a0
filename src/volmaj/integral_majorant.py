"""Integral majorants with blow-up classification and certified bounds.

A majorant couples an outer function f(t, w) with a rate gamma(z).  The
scalar bound z solves z(t) = f(t, integral of gamma(z) over [0, t]); the
substitution w(t) = integral of gamma(z(s)) ds turns that into the
initial value problem

    w' = gamma(f(t, w)),  w(0) = 0,

whose maximal existence time is the certified horizon.  Three outcomes
are distinguished: the bound itself escapes to infinity at a finite
time (value blow-up), the bound stays finite while its slope escapes at
a finite rate pole (derivative blow-up), or the bound exists globally.
The horizon comes from a forward march for every f, in t until w
reaches 1 and then in L = log(1 + w) with t as the unknown, which nears
a blow-up time T smoothly in L while w grows like 1/(T - t) in t, and
takes over where the march in t stalls.  A march in L that stalls where
the rate overflows, or stops with a spike, is the evidence of a value
or a derivative blow-up at the stall time.

Two independent routes compute the bound on a mesh: that march to the
last node in one call, adaptive Dormand-Prince 5(4) (J. Comput. Appl.
Math. 6, 1980) read at the inner nodes through its continuous extension
(solve_cauchy), and successive approximation from zero
(majorant_picard).  The chain from zero is nondecreasing and converges
to the minimal bound from below.  The certificate bound is the pointwise
maximum of the two routes: the larger of two approximations of the
minimal bound, not a proven upper solution.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from . import expr
from .errors import EVAL_ERRORS, DomainError, NumericError, SpecValidationError
from .meshes import Mesh
from .quadrature import _probe_rate, adaptive_quad, improper_integral

__all__ = [
    "Blowup",
    "MajorantSpec",
    "BlowupReport",
    "PicardChain",
    "CauchySolution",
    "MajorantSolution",
    "UpperSolutionReport",
    "majorant_picard",
    "classify_blowup",
    "solve_cauchy",
    "certified_tail",
    "check_upper_solution",
    "solve_majorant",
]


# classify_blowup's budgets: the forward march's time and bound caps
_T_CAP = 1e8
_OMEGA_CAP = 1e12

# the forward march of w' = gamma(f(t, w)): its steps per march, the
# steps per march it may reject because the rate raised, its first
# step, and its relative tolerances when it classifies and when it
# solves on a mesh, where the continuous extension at the inner nodes
# errs about 20 times more than the steps
_MARCH_BUDGET = 400000
_MARCH_EVAL_FAILURES = 1000
_FIRST_STEP = 1e-3
_CLASSIFY_RTOL = 3e-11
_CAUCHY_RTOL = 1e-13

# majorant_picard's relative stopping increment and its iteration budget
_CHAIN_TOL = 1e-12
_CHAIN_MAX_ITER = 500

# the roundoff check_upper_solution, certified_tail and solve_majorant forgive
_UPPER_SLACK = 1e-10
_TAIL_SLACK = 1e-12


class Blowup(enum.Enum):
    VALUE = "ValueBlowUp"
    DERIVATIVE = "DerivativeBlowUp"
    GLOBAL = "Global"


@dataclass(frozen=True)
class MajorantSpec:
    """Scalar majorant data as expression text: the outer function f over
    (t, w) and the rate gamma over z.

    pole, if given, is the w where the rate gamma(f(0, w)) stops being
    finite, which a derivative blow-up reports; f must not depend on t.
    z_max / omega_max are optional box hints for the monotonicity
    sampler.  upper_solution, text over t, is an optional closed-form
    candidate bound used by the dedicated audit.

    Every text parses at construction; the forms derived from the trees
    (f_form, gamma_form, upper_form, the exact slopes f_w_form = df/dw and
    gamma_z_form = gamma', and rate_at's gamma(f(t, w))) compile on first
    use.  A form's map runs its array form, the scalar form's values bit
    for bit for + - * /, sin, cos, sqrt and abs and within numpy's last
    ulp for exp, log, tan and ^, and the scalar form where that fails.
    The blow-up classification, blowup, is likewise computed on first use
    and kept: the spec is immutable, so it is judged once.
    """

    f: str
    gamma: str
    pole: float | None = None
    upper_solution: str | None = None
    z_max: float | None = None
    omega_max: float | None = None
    name: str = "majorant"

    f_form = functools.cached_property(lambda self: expr.Form(self.f, ("t", "w"), "f"))
    gamma_form = functools.cached_property(
        lambda self: expr.Form(self.gamma, ("z",), "gamma")
    )
    f_w_form = functools.cached_property(
        lambda self: expr.Form(expr.derivative(self.f_form.tree, "w"), ("t", "w"))
    )
    gamma_z_form = functools.cached_property(
        lambda self: expr.Form(expr.derivative(self.gamma_form.tree, "z"), ("z",))
    )

    @functools.cached_property
    def upper_form(self) -> expr.Form | None:
        text = self.upper_solution
        return None if text is None else expr.Form(text, ("t",), "upper_solution")

    def __post_init__(self):
        # every text parses here, so a bad one fails at once, by its field
        for form in ("f_form", "gamma_form", "upper_form"):
            getattr(self, form)
        # f(0, 0), then gamma there, by the tree walker: nothing compiles
        env = {"t": 0.0, "w": 0.0}
        origin = (("f(0, 0)", self.f_form), ("gamma(f(0, 0))", self.gamma_form))
        for label, form in origin:
            try:
                v = expr.evaluate(form.tree, env)
            except DomainError as exc:
                raise SpecValidationError(f"{label} is not evaluable: {exc}") from exc
            if not -1e-12 <= v < math.inf:
                raise SpecValidationError(
                    f"{label} must be finite and nonnegative, got {v!r}"
                )
            env = {"z": max(v, 0.0)}
        for label in ("pole", "z_max", "omega_max"):
            v = getattr(self, label)
            if v is not None and not 0 < v < math.inf:
                raise SpecValidationError(
                    f"{label} must be positive and finite, got {v!r}"
                )
        if self.pole is not None and self.depends_on_t:
            raise SpecValidationError(
                "pole is declared, but a rate pole combines only with"
                " time-independent f"
            )

    depends_on_t = property(lambda self: "t" in expr.variables(self.f_form.tree))

    @functools.cached_property
    def blowup(self) -> BlowupReport:
        """classify_blowup's report on this majorant, computed once per
        spec; a spec whose march fails raises on every use."""
        return classify_blowup(self)

    @functools.cached_property
    def _rate(self) -> Callable[[float, float], float]:
        # f computed first and once, its value gamma's z
        f = ("z", self.f_form.tree)
        return expr.as_function(self.gamma_form.tree, ("t", "w"), let=f)

    def rate(self, w: float) -> float:
        """Reduced rate at t = 0 (the autonomous rate)."""
        return self.rate_at(0.0, w)

    def rate_at(self, t: float, w: float) -> float:
        """gamma(f(t, w)), in one compiled call."""
        return self._rate(t, w)


@dataclass(frozen=True)
class BlowupReport:
    kind: Blowup
    horizon: float
    pole: float | None
    detail: str


@dataclass(frozen=True, eq=False)
class PicardChain:
    """Successive approximations z_0 = 0, z_{k+1} = f(t, int gamma(z_k))."""

    mesh: Mesh
    iterates: tuple[np.ndarray, ...]
    converged: bool
    final_delta: float

    @property
    def final(self) -> np.ndarray:
        return self.iterates[-1]

    @property
    def count(self) -> int:
        return len(self.iterates)


@dataclass(frozen=True, eq=False)
class CauchySolution:
    """Nodewise solution of w' = gamma(f(t, w)), w(0) = 0, and the
    bound z = f(t, w) it gives: omega at the last node is the march's
    own, at the inner nodes its continuous extension."""

    mesh: Mesh
    omega: np.ndarray
    bound: np.ndarray


@dataclass(frozen=True, eq=False)
class MajorantSolution:
    classification: BlowupReport
    mesh: Mesh
    omega: np.ndarray
    bound: np.ndarray
    chain: PicardChain
    certificate_bound: np.ndarray


@dataclass(frozen=True)
class UpperSolutionReport:
    holds: bool
    worst_margin: float
    node: int
    t: float


def majorant_picard(spec: MajorantSpec, mesh: Mesh) -> PicardChain:
    """Iterate the discrete majorant map from zero on a mesh, at most
    _CHAIN_MAX_ITER times, to _CHAIN_TOL.

    The chain is nondecreasing node by node; it converges whenever the
    mesh ends strictly inside the existence window.
    """
    z = np.zeros(mesh.nodes.size)
    iterates = [z]
    delta = math.inf
    converged = False
    for _ in range(_CHAIN_MAX_ITER):
        integrals = mesh.weights.prefix(spec.gamma_form.map(z))
        z_new = spec.f_form.map(mesh.nodes, integrals)
        if not np.all(np.isfinite(z_new)):
            raise NumericError(
                "majorant chain diverged on this mesh; its end time is at or"
                " beyond the blow-up horizon"
            )
        delta = float(np.max(np.abs(z_new - z)))
        iterates.append(z_new)
        z = z_new
        if delta <= _CHAIN_TOL * (1.0 + float(np.max(np.abs(z_new)))):
            converged = True
            break
    return PicardChain(mesh, tuple(iterates), converged, delta)


def _frozen_tail(spec: MajorantSpec, t: float, omega: float) -> float:
    # w = omega * u over rate(t, omega): an O(1) integral, to a relative tol
    r0 = spec.rate_at(t, omega)
    res = improper_integral(lambda u: spec.rate_at(t, omega + omega * u) / r0, tol=1e-3)
    return omega / r0 * res.value if res.converged else math.inf


class MarchStall(NumericError):
    """A forward march whose step fell below its floor at time t, with
    the bound's w there."""

    def __init__(self, t: float, w: float):
        super().__init__(
            f"forward integration stalled at t={t!r}: the bound escapes or"
            " the rate stops being evaluable ahead of it"
        )
        self.t, self.w = t, w


def _march(
    rate: Callable[[float, float], float],
    t: float,
    w: float,
    h: float,
    stops: list[float],
    rtol: float,
    w_cap: float = math.inf,
    state: Callable[[float, float], tuple[float, float]] | None = None,
) -> Iterator[tuple[float, float, float]]:
    """Integrate w' = rate(t, w) from (t, w) to the last of the
    increasing stops past t, until w reaches w_cap; yields (t, w, h) at
    each stop reached and at the cap, h the next step.

    Adaptive Dormand-Prince 5(4) carrying the 5th order w (Dormand &
    Prince, J. Comput. Appl. Math. 6, 1980): a step is accepted when the
    embedded pair agrees to rtol, relative to max(1, |w|).  Its last
    stage, the next step's first, makes it 6 rate calls, with
    _MARCH_BUDGET steps per march.  The steps are the controller's alone:
    the march lands on the last stop, and each earlier stop takes the
    4th order continuous extension of the accepted step that passes it
    (Hairer, Norsett & Wanner, Solving ODEs I, II.6: dopri5's contd5),
    which costs no rate call and errs about 20 times more than the step.
    A rejected step below 1e-14 max(1, t), or the _MARCH_EVAL_FAILURES-th
    step rejected because the rate raised, raises MarchStall at (t, w),
    or at state(t, w), the time and bound of a march in other variables.
    """
    isfinite = math.isfinite
    t_end, inner = stops[-1], iter(stops[:-1])
    stop = next(inner, math.inf)
    k1, failures = None, _MARCH_EVAL_FAILURES
    for _ in range(_MARCH_BUDGET):
        if t >= t_end or w >= w_cap:
            break
        if h < t_end - t:
            step, t_new = h, t + h
        else:
            step, t_new = t_end - t, t_end
        try:
            if k1 is None:
                k1 = rate(t, w)
            k2 = rate(t + 0.2 * step, w + step * 0.2 * k1)
            k3 = rate(t + 0.3 * step, w + step * (3 / 40 * k1 + 9 / 40 * k2))
            k4 = rate(t + 0.8 * step, w + step * (44 / 45 * k1 - 56 / 15 * k2
                                                  + 32 / 9 * k3))
            k5 = rate(t + 8 / 9 * step, w + step * (19372 / 6561 * k1 - 25360 / 2187 * k2
                                                    + 64448 / 6561 * k3 - 212 / 729 * k4))
            k6 = rate(t_new, w + step * (9017 / 3168 * k1 - 355 / 33 * k2
                                         + 46732 / 5247 * k3 + 49 / 176 * k4
                                         - 5103 / 18656 * k5))
            w_new = w + step * (35 / 384 * k1 + 500 / 1113 * k3 + 125 / 192 * k4
                                - 2187 / 6784 * k5 + 11 / 84 * k6)
            k7 = rate(t_new, w_new)
            err = abs(step * (71 / 57600 * k1 - 71 / 16695 * k3 + 71 / 1920 * k4
                              - 17253 / 339200 * k5 + 22 / 525 * k6 - k7 / 40))
        except EVAL_ERRORS:
            h, failures = step * 0.5, failures - 1
        else:
            if isfinite(err) and isfinite(w_new):
                scale = abs(w_new)
                scale = rtol * (scale if scale > 1.0 else 1.0)
            else:
                err, scale = math.inf, 0.0
            factor = 0.9 * (scale / (err if err > 1e-300 else 1e-300)) ** 0.2
            if err <= scale:
                h = step * (4.0 if factor > 4.0 else 0.5 if factor < 0.5 else factor)
                if stop <= t_new:
                    ydiff = w_new - w
                    bspl = step * k1 - ydiff
                    r4 = ydiff - step * k7 - bspl
                    r5 = step * (-12715105075 / 11282082432 * k1
                                 + 87487479700 / 32700410799 * k3
                                 - 10690763975 / 1880347072 * k4
                                 + 701980252875 / 199316789632 * k5
                                 - 1453857185 / 822651844 * k6
                                 + 69997945 / 29380423 * k7)
                    while stop <= t_new:
                        theta = (stop - t) / step
                        yield stop, w + theta * (ydiff + (1.0 - theta) * (
                            bspl + theta * (r4 + (1.0 - theta) * r5))), h
                        stop = next(inner, math.inf)
                t, w, k1 = t_new, w_new, k7
                continue
            # a non-finite trial has scale / err = 0: the step shrinks by 10
            h = step * (0.1 if factor < 0.1 else factor)
        if h < 1e-14 * (t if t > 1.0 else 1.0) or not failures:
            raise MarchStall(*((t, w) if state is None else state(t, w)))
    else:
        raise NumericError("forward integration exceeded its step budget")
    yield t, w, h


def _classify_stall(spec: MajorantSpec, stall: MarchStall) -> BlowupReport:
    """Read a march in L stalled at (t, w): a rate that overflows just
    past w is a value blow-up at t.  A rate positive at w and not
    evaluable 1e-9 max(1, w) past it is an edge, and a pole where
    1/rate(w) is at most 1e-3 (1 + 1/rate(w/2)): a derivative blow-up
    at t.  An edge without that spike, or a declared pole the rate does
    not rise towards, raises NumericError; else the stall is raised."""
    t, w = stall.t, stall.w
    rate = functools.partial(spec.rate_at, t)
    past, near, ref = (_probe_rate(rate, x)
                       for x in (w + 1e-9 * max(1.0, w), w, 0.5 * w))
    if past == math.inf:
        detail = f"rate overflows past w={w:.6g}, where the march stalled"
        return BlowupReport(Blowup.VALUE, t, None, detail)
    if not (near and past is None):
        raise stall
    if not (ref and 1.0 / near <= 1e-3 * (1.0 + 1.0 / ref)):
        raise NumericError(
            f"rate stops being evaluable near omega={w!r} without"
            " diverging there; cannot classify the blow-up kind"
        ) from stall
    found = "declared rate pole at" if spec.pole else "detected rate pole near"
    pole = spec.pole or w
    mid = _probe_rate(rate, 0.5 * (w + pole))
    if not (pole >= w and mid and mid >= near):
        raise NumericError(f"the rate spikes near omega={w!r}, not at"
                           f" the declared pole={pole!r}")
    return BlowupReport(Blowup.DERIVATIVE, t, pole, f"{found} w={pole!r}")


def classify_blowup(spec: MajorantSpec) -> BlowupReport:
    """Decide value blow-up / derivative blow-up / global existence and
    compute the horizon.

    One forward march (solve_cauchy's, at _CLASSIFY_RTOL) decides every
    spec: in t up to a bound of 1, then in L = log(1 + w) up to
    t = _T_CAP or L = log(1 + _OMEGA_CAP), the cap decided in L.  At
    the bound cap the frozen-rate tail gives the horizon of a value
    blow-up, or global existence where it diverges; at the time cap the
    bound exists globally.  A march in t that stalls hands over to L,
    which must then end within 1e-9 max(1, t) of the stall time, or the
    stall is raised.  A march in L that stalls is read by
    _classify_stall.  With f free of t and a rate of exactly 0 at w = 0,
    every stage of the march in t is 0, so w stays exactly 0 up to
    t = _T_CAP: the bound f(0) exists globally.
    """

    def rate(t: float, w: float) -> float:
        # a rate below -1e-12, the roundoff the origin allows, fails a step
        r = spec.rate_at(t, w)
        if not -1e-12 <= r < math.inf:
            raise DomainError(f"rate {r!r} at w={w!r} is negative or not finite")
        return r if r > 0.0 else 0.0

    def slope(L: float, t: float) -> float:
        # dt/dL, L = log(1 + w): a zero rate fails the step too
        w = math.expm1(L)
        return (1.0 + w) / rate(t, w)

    t_cap, first = _T_CAP, None
    try:
        t, w, h = next(_march(rate, 0.0, 0.0, _FIRST_STEP, [_T_CAP],
                              _CLASSIFY_RTOL, 1.0))
    except MarchStall as stall:
        # w too steep in t to step on, as below a pole: L marches on, but
        # only just past the stall time, or it might step across a spike
        # of the rate, such as a pole of even order, that it cannot see
        t, w, h, first = stall.t, stall.w, _FIRST_STEP, stall
        t_cap = t + 1e-9 * max(1.0, t)
    L, L_cap = math.log1p(w), math.log1p(_OMEGA_CAP)
    if t < t_cap:
        # t is marched in L, where it nears the horizon smoothly and
        # stalls only where the rate stops or overflows
        try:
            L, t, _ = next(_march(slope, L, t, h, [L_cap], _CLASSIFY_RTOL,
                                  t_cap, lambda L, t: (t, math.expm1(L))))
        except MarchStall as stall:
            return _classify_stall(spec, stall)
        w = math.expm1(L)
    if first and L < L_cap:
        raise first
    if L < L_cap:
        detail = f"bound still {w:.3e} at t={t:.3e}"
        return BlowupReport(Blowup.GLOBAL, math.inf, None, detail)
    tail = _frozen_tail(spec, t, w)
    if math.isfinite(tail):
        detail = (f"forward integration reached w={w:.3e} at t={t:.12g};"
                  f" frozen-rate tail {tail:.3e}")
        return BlowupReport(Blowup.VALUE, t + tail, None, detail)
    detail = (f"bound exceeded {_OMEGA_CAP:.1e} at t={t:.6g} but the"
              " frozen-rate tail diverges, so growth is subcritical")
    return BlowupReport(Blowup.GLOBAL, math.inf, None, detail)


def solve_cauchy(spec: MajorantSpec, mesh: Mesh) -> CauchySolution:
    """Solve the reduced initial value problem at every mesh node.

    One forward march (the classifier's, at _CAUCHY_RTOL) runs to the
    last node in one call, for any f.  It takes the steps its controller
    chooses, so the number of nodes does not change its rate calls; each
    inner node reads the continuous extension of the step that passes
    it.  A mesh that reaches the horizon stalls the march there and
    raises NumericError.
    """
    nodes = mesh.nodes[1:].tolist()
    march = _march(spec.rate_at, 0.0, 0.0, _FIRST_STEP, nodes, _CAUCHY_RTOL)
    omega = np.array([0.0] + [w for _, w, _ in march])
    return CauchySolution(mesh, omega, spec.f_form.map(mesh.nodes, omega))


def certified_tail(chain: PicardChain, z_plus: np.ndarray) -> np.ndarray:
    """Per-iterate certified error bounds: row n holds z_plus - z_n.

    Requires every iterate to sit below z_plus (within _TAIL_SLACK) and the
    rows to be nonincreasing in n, which is exactly the domination
    structure the chain guarantees; violations raise NumericError.
    """
    z_plus = np.asarray(z_plus, dtype=float)
    if z_plus.shape != (chain.mesh.nodes.size,):
        raise SpecValidationError("z_plus must hold one value per mesh node")
    rows = []
    for n, z in enumerate(chain.iterates):
        diff = z_plus - z
        low = float(np.min(diff))
        if low < -_TAIL_SLACK:
            raise NumericError(f"iterate {n} exceeds the certified bound by {-low:.3e}")
        rows.append(np.maximum(diff, 0.0))
    tails = np.vstack(rows)
    drops = np.diff(tails, axis=0)
    if drops.size and float(np.max(drops)) > _TAIL_SLACK:
        raise NumericError("certified tails are not nonincreasing along the chain")
    return tails


def check_upper_solution(spec: MajorantSpec, mesh: Mesh) -> UpperSolutionReport:
    """Audit the spec's closed-form upper solution (which it must give) on
    a mesh.

    The candidate passes when upper(t) >= f(t, integral of
    gamma(upper)) - _UPPER_SLACK at every node; the running integral is
    accumulated with per-gap adaptive quadrature on the continuous
    candidate, not on mesh samples, so equality cases survive the
    audit.  On failure the report points at the first violating node
    while the margin stays the worst one seen anywhere.
    """
    upper, gamma, f = spec.upper_form.scalar, spec.gamma_form.scalar, spec.f_form.scalar
    running = 0.0
    worst = math.inf
    first_bad = None
    for j, t in enumerate(mesh.nodes):
        if j > 0:
            a, b = float(mesh.nodes[j - 1]), float(t)
            tol = 1e-14 * max(1.0, running)
            running += adaptive_quad(lambda s: gamma(upper(s)), a, b, tol)
        margin = upper(float(t)) - f(float(t), running)
        worst = min(worst, margin)
        if margin < -_UPPER_SLACK and first_bad is None:
            first_bad = j
    node = 0 if first_bad is None else first_bad
    return UpperSolutionReport(first_bad is None, worst, node, float(mesh.nodes[node]))


def solve_majorant(spec: MajorantSpec, mesh: Mesh) -> MajorantSolution:
    """Classify a majorant and certify it on a mesh in one call.

    The classification is the spec's own, spec.blowup, computed once per
    spec.  The mesh must end inside the existence window; passing the
    solver's mesh lets a solver and its certificate share exact nodes.
    certificate_bound is the pointwise maximum of the two independent
    routes: the larger of two approximations of the minimal bound, not a
    proven upper solution.  A bound on a norm below -_TAIL_SLACK at any
    node raises NumericError.
    """
    report = spec.blowup
    t_end = mesh.end
    if t_end >= report.horizon:
        raise SpecValidationError(
            f"end time {t_end!r} is not inside the existence window"
            f" [0, {report.horizon!r})"
        )
    cauchy = solve_cauchy(spec, mesh)
    chain = majorant_picard(spec, mesh)
    certificate = np.maximum(cauchy.bound, chain.final)
    j = int(np.argmin(certificate))
    if certificate[j] < -_TAIL_SLACK:
        raise NumericError(f"the certificate bound is negative at node {j}:"
                           f" {float(certificate[j])!r}")
    return MajorantSolution(
        classification=report,
        mesh=mesh,
        omega=cauchy.omega,
        bound=cauchy.bound,
        chain=chain,
        certificate_bound=certificate,
    )
