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
last node in one call, adaptive DOP853 (Hairer, Norsett & Wanner,
Solving ODEs I, II.10) read at the inner nodes through its 7th order
continuous extension (solve_cauchy), and successive approximation from
zero (majorant_picard).  The chain from zero is nondecreasing and
converges to the minimal bound from below.  The certificate bound is the
pointwise maximum of the two routes: the larger of two approximations
of the minimal bound, not a proven upper solution.
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
from .quadrature import ARRAY_MIN_POINTS, _probe_rate, adaptive_quad, improper_integral

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
# solves on a mesh, where the inner nodes read its continuous extension
_MARCH_BUDGET = 400000
_MARCH_EVAL_FAILURES = 1000
_FIRST_STEP = 1e-3
_CLASSIFY_RTOL = 3e-11
_CAUCHY_RTOL = 1e-12

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
    mesh ends strictly inside the existence window.  Each iterate is
    f_form.map(nodes, mesh.weights.prefix(gamma_form.map(z))) bit for
    bit: gamma and f run through their array forms (_array_values), and
    through Form.map only where those do not serve.
    """
    gamma, f, nodes, gaps = spec.gamma_form, spec.f_form, mesh.nodes, mesh.gaps
    z = np.zeros(nodes.size)
    integrals = np.zeros(nodes.size)
    iterates = [z]
    delta = math.inf
    converged = False
    with np.errstate(all="ignore"):
        for _ in range(_CHAIN_MAX_ITER):
            rates = _array_values(gamma, z)
            if rates is None:
                rates = gamma.map(z)
            np.cumsum(gaps * (rates[:-1] + rates[1:]) / 2.0, out=integrals[1:])
            z_new = _array_values(f, nodes, integrals)
            if z_new is None:
                z_new = f.map(nodes, integrals)
                if not np.isfinite(z_new).all():
                    raise NumericError(
                        "majorant chain diverged on this mesh; its end time is"
                        " at or beyond the blow-up horizon"
                    )
            delta = float(np.abs(z_new - z).max())
            iterates.append(z_new)
            z = z_new
            if delta <= _CHAIN_TOL * (1.0 + float(np.abs(z_new).max())):
                converged = True
                break
    return PicardChain(mesh, tuple(iterates), converged, delta)


def _array_values(form: expr.Form, *args: np.ndarray) -> np.ndarray | None:
    """form.map(*args) where its array form serves: on ARRAY_MIN_POINTS
    or more points, raising nothing, every value finite; else None."""
    if form.array is None or args[0].size < ARRAY_MIN_POINTS:
        return None
    out = np.empty(args[0].shape)
    try:
        out[...] = form.array(*args)
    except EVAL_ERRORS:
        return None
    return out if np.isfinite(out).all() else None


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

    Adaptive DOP853 carrying the 8th order w (Hairer, Norsett & Wanner,
    Solving ODEs I, II.5 and II.10; Prince & Dormand, J. Comput. Appl.
    Math. 7, 1981), its coefficients those of scipy.integrate's
    dop853_coefficients.  A step is accepted when its 5th order error
    estimate, damped by the 3rd order one as dop853 does, is at most
    rtol relative to max(1, |w|), and the next step grows by at most 6.
    A step costs 11 rate calls and, once accepted, 1 more, the next
    step's first stage, with _MARCH_BUDGET steps per march.  The steps
    are the controller's alone: the march lands on the last stop, and
    each earlier stop takes the 7th order continuous extension of the
    accepted step that passes it (dop853's contd8).  Its 3 extra rate
    calls are spent on every accepted step of a march with earlier
    stops, so the number of stops does not change a march's cost.  A
    rejected step below 1e-14 max(1, t), or the _MARCH_EVAL_FAILURES-th
    step rejected because the rate raised, raises MarchStall at (t, w),
    or at state(t, w), the time and bound of a march in other variables.
    """
    isfinite = math.isfinite
    t_end, inner = stops[-1], iter(stops[:-1])
    stop, dense = next(inner, math.inf), len(stops) > 1
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
            k2 = rate(t + 0.05260015195876773 * step,
                      w + step * (0.05260015195876773 * k1))
            k3 = rate(t + 0.0789002279381516 * step,
                      w + step * (0.0197250569845379 * k1 + 0.0591751709536137 * k2))
            k4 = rate(t + 0.1183503419072274 * step,
                      w + step * (0.02958758547680685 * k1 + 0.08876275643042054 * k3))
            k5 = rate(t + 0.2816496580927726 * step,
                      w + step * (0.2413651341592667 * k1 - 0.8845494793282861 * k3
                                  + 0.924834003261792 * k4))
            k6 = rate(t + 0.3333333333333333 * step,
                      w + step * (0.037037037037037035 * k1 + 0.17082860872947386 * k4
                                  + 0.12546768756682242 * k5))
            k7 = rate(t + 0.25 * step,
                      w + step * (0.037109375 * k1 + 0.17025221101954405 * k4
                                  + 0.06021653898045596 * k5 - 0.017578125 * k6))
            k8 = rate(t + 0.3076923076923077 * step,
                      w + step * (0.03709200011850479 * k1 + 0.17038392571223998 * k4
                                  + 0.10726203044637328 * k5 - 0.015319437748624402 * k6
                                  + 0.008273789163814023 * k7))
            k9 = rate(t + 0.6512820512820513 * step,
                      w + step * (0.6241109587160757 * k1 - 3.3608926294469414 * k4
                                  - 0.868219346841726 * k5 + 27.59209969944671 * k6
                                  + 20.154067550477894 * k7 - 43.48988418106996 * k8))
            k10 = rate(t + 0.6 * step,
                       w + step * (0.47766253643826434 * k1 - 2.4881146199716677 * k4
                                   - 0.590290826836843 * k5 + 21.230051448181193 * k6
                                   + 15.279233632882423 * k7 - 33.28821096898486 * k8
                                   - 0.020331201708508627 * k9))
            k11 = rate(t + 0.8571428571428571 * step,
                       w + step * (-0.9371424300859873 * k1 + 5.186372428844064 * k4
                                   + 1.0914373489967295 * k5 - 8.149787010746927 * k6
                                   - 18.52006565999696 * k7 + 22.739487099350505 * k8
                                   + 2.4936055526796523 * k9
                                   - 3.0467644718982196 * k10))
            k12 = rate(t_new,
                       w + step * (2.273310147516538 * k1 - 10.53449546673725 * k4
                                   - 2.0008720582248625 * k5 - 17.9589318631188 * k6
                                   + 27.94888452941996 * k7 - 2.8589982771350235 * k8
                                   - 8.87285693353063 * k9 + 12.360567175794303 * k10
                                   + 0.6433927460157636 * k11))
            slope = (0.054293734116568765 * k1 + 4.450312892752409 * k6
                     + 1.8915178993145003 * k7 - 5.801203960010585 * k8
                     + 0.3111643669578199 * k9 - 0.1521609496625161 * k10
                     + 0.20136540080403034 * k11 + 0.04471061572777259 * k12)
            w_new = w + step * slope
            e5 = (0.01312004499419488 * k1 - 1.2251564463762044 * k6
                  - 0.4957589496572502 * k7 + 1.6643771824549864 * k8
                  - 0.35032884874997366 * k9 + 0.3341791187130175 * k10
                  + 0.08192320648511571 * k11 - 0.022355307863886294 * k12)
            e3 = slope - (0.2440944881889764 * k1 + 0.7338466882816118 * k9
                          + 0.022058823529411766 * k12)
            denom = math.hypot(e5, 0.1 * e3)
            err = step * abs(e5) * (abs(e5) / denom) if denom else 0.0
            if isfinite(err) and isfinite(w_new):
                scale = abs(w_new)
                scale = rtol * (scale if scale > 1.0 else 1.0)
            else:
                err, scale = math.inf, 0.0
            if err <= scale:
                k13 = rate(t_new, w_new)
                if dense:
                    k14 = rate(t + 0.1 * step,
                               w + step * (0.056167502283047954 * k1
                                           + 0.25350021021662483 * k7
                                           - 0.2462390374708025 * k8
                                           - 0.12419142326381637 * k9
                                           + 0.15329179827876568 * k10
                                           + 0.00820105229563469 * k11
                                           + 0.007567897660545699 * k12
                                           - 0.008298 * k13))
                    k15 = rate(t + 0.2 * step,
                               w + step * (0.03183464816350214 * k1
                                           + 0.028300909672366776 * k6
                                           + 0.053541988307438566 * k7
                                           - 0.05492374857139099 * k8
                                           - 0.00010834732869724932 * k11
                                           + 0.0003825710908356584 * k12
                                           - 0.00034046500868740456 * k13
                                           + 0.1413124436746325 * k14))
                    k16 = rate(t + 0.7777777777777778 * step,
                               w + step * (-0.42889630158379194 * k1
                                           - 4.697621415361164 * k6
                                           + 7.683421196062599 * k7
                                           + 4.06898981839711 * k8
                                           + 0.3567271874552811 * k9
                                           - 0.0013990241651590145 * k13
                                           + 2.9475147891527724 * k14
                                           - 9.15095847217987 * k15))
        except EVAL_ERRORS:
            h, failures = step * 0.5, failures - 1
        else:
            factor = 0.9 * (scale / (err if err > 1e-300 else 1e-300)) ** 0.125
            if err <= scale:
                h = step * (6.0 if factor > 6.0 else factor)
                if stop <= t_new:
                    f0 = w_new - w
                    f1 = step * k1 - f0
                    f2 = 2.0 * f0 - step * (k1 + k13)
                    f3 = step * (-8.428938276109013 * k1 + 0.5667149535193777 * k6
                                 - 3.0689499459498917 * k7 + 2.38466765651207 * k8
                                 + 2.117034582445028 * k9 - 0.871391583777973 * k10
                                 + 2.2404374302607883 * k11 + 0.6315787787694688 * k12
                                 - 0.08899033645133331 * k13 + 18.148505520854727 * k14
                                 - 9.194632392478356 * k15 - 4.436036387594894 * k16)
                    f4 = step * (10.427508642579134 * k1 + 242.28349177525817 * k6
                                 + 165.20045171727028 * k7 - 374.5467547226902 * k8
                                 - 22.113666853125306 * k9 + 7.733432668472264 * k10
                                 - 30.674084731089398 * k11 - 9.332130526430229 * k12
                                 + 15.697238121770845 * k13 - 31.139403219565178 * k14
                                 - 9.35292435884448 * k15 + 35.81684148639408 * k16)
                    f5 = step * (19.985053242002433 * k1 - 387.0373087493518 * k6
                                 - 189.17813819516758 * k7 + 527.8081592054236 * k8
                                 - 11.57390253995963 * k9 + 6.8812326946963 * k10
                                 - 1.0006050966910838 * k11 + 0.7777137798053443 * k12
                                 - 2.778205752353508 * k13 - 60.19669523126412 * k14
                                 + 84.32040550667716 * k15 + 11.99229113618279 * k16)
                    f6 = step * (-25.69393346270375 * k1 - 154.18974869023643 * k6
                                 - 231.5293791760455 * k7 + 357.6391179106141 * k8
                                 + 93.40532418362432 * k9 - 37.45832313645163 * k10
                                 + 104.0996495089623 * k11 + 29.8402934266605 * k12
                                 - 43.53345659001114 * k13 + 96.32455395918828 * k14
                                 - 39.17726167561544 * k15 - 149.72683625798564 * k16)
                    while stop <= t_new:
                        x = (stop - t) / step
                        y = 1.0 - x
                        yield stop, w + x * (f0 + y * (f1 + x * (f2 + y * (
                            f3 + x * (f4 + y * (f5 + x * f6)))))), h
                        stop = next(inner, math.inf)
                t, w, k1 = t_new, w_new, k13
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
