"""Scalar bound chains, blow-up classification, and the reduced initial
value problem."""

import dataclasses
import math
import re
import struct
import time

import numpy as np
import pytest

from volmaj import expr, integral_majorant
from volmaj.corpus import corpus_build
from volmaj.errors import DomainError, ExprError, NumericError, SpecValidationError
from volmaj.integral_majorant import (
    _CAUCHY_RTOL,
    _FIRST_STEP,
    Blowup,
    MajorantSpec,
    MarchStall,
    _frozen_tail,
    _march,
    certified_tail,
    check_upper_solution,
    classify_blowup,
    majorant_picard,
    solve_cauchy,
    solve_majorant,
)
from volmaj.quadrature import _inverse_rate, adaptive_quad, graded_mesh

TAN_SPEC = MajorantSpec(
    f="w + t", gamma="z*z", upper_solution="tan(t)", name="quadratic growth"
)

LINEAR_SPEC = MajorantSpec(f="w + 1", gamma="z", name="linear growth")


class TestPicardChain:
    def test_tan_limit(self):
        mesh = graded_mesh(1.0, 800, 1.0)
        chain = majorant_picard(TAN_SPEC, mesh)
        assert chain.converged
        assert chain.final[-1] == pytest.approx(math.tan(1.0), abs=1e-3)

    def test_exponential_limit(self):
        mesh = graded_mesh(1.0, 1200, 1.0)
        chain = majorant_picard(LINEAR_SPEC, mesh)
        assert chain.final[-1] == pytest.approx(math.e, abs=1e-4)

    def test_degenerate_rate_stops_after_one_iterate(self):
        spec = MajorantSpec(f="w", gamma="0", name="flat")
        chain = majorant_picard(spec, graded_mesh(1.0, 10, 1.0))
        assert chain.count <= 2
        assert np.all(chain.final == 0.0)

    def test_chain_monotone_in_iteration_and_time(self):
        mesh = graded_mesh(1.2, 300, 1.0)
        chain = majorant_picard(TAN_SPEC, mesh)
        stacked = np.vstack(chain.iterates)
        assert np.all(np.diff(stacked, axis=0) >= -1e-12)
        assert np.all(np.diff(stacked, axis=1) >= -1e-12)

    def test_blowing_up_mesh_reported(self):
        mesh = graded_mesh(2.0, 60, 1.0)  # horizon pi/2 < 2
        with pytest.raises(NumericError):
            majorant_picard(TAN_SPEC, mesh)


class TestClassification:
    def test_value_blowup(self):
        spec = MajorantSpec(f="w", gamma="1 + z*z", name="arctan map")
        rep = classify_blowup(spec)
        assert rep.kind is Blowup.VALUE
        assert abs(rep.horizon - math.pi / 2) <= 1e-10 * math.pi / 2

    def test_time_dependent_value_blowup(self):
        rep = classify_blowup(TAN_SPEC)
        assert rep.kind is Blowup.VALUE
        assert rep.horizon == pytest.approx(math.pi / 2, abs=1e-6)

    def test_global(self):
        rep = classify_blowup(LINEAR_SPEC)
        assert rep.kind is Blowup.GLOBAL
        assert rep.horizon == math.inf

    @pytest.mark.parametrize(
        "f, gamma",
        [
            ("w + 1", "1e6*z"),  # bound e^(1e6 t)
            ("w + t", "z"),  # bound e^t - 1
            # the bound passes 1e12 at t = 23.5, where the frozen-rate tail
            # diverges
            ("w + t", "1 + z^1.01"),
        ],
    )
    def test_logarithmic_tail_is_global(self, f, gamma):
        rep = classify_blowup(MajorantSpec(f=f, gamma=gamma))
        assert rep.kind is Blowup.GLOBAL
        assert rep.horizon == math.inf

    def test_derivative_blowup_declared_pole(self):
        spec = MajorantSpec(f="w", gamma="(1 - z)^-0.5", pole=1.0, name="rate pole")
        rep = classify_blowup(spec)
        assert rep.kind is Blowup.DERIVATIVE
        assert abs(rep.horizon - 2.0 / 3.0) <= 1e-10 * 2.0 / 3.0
        assert rep.pole == 1.0

    def test_derivative_blowup_detected_pole(self):
        # the rate raises at and past w = 1
        spec = MajorantSpec(f="w", gamma="(1 - z)^-0.5", name="undeclared rate pole")
        rep = classify_blowup(spec)
        assert rep.kind is Blowup.DERIVATIVE
        assert rep.pole == pytest.approx(1.0, abs=1e-9)
        assert abs(rep.horizon - 2.0 / 3.0) <= 1e-10 * 2.0 / 3.0

    @pytest.mark.parametrize("gamma, horizon", [("1/(1 - z)", 0.5), ("(1 - z)^-3", 0.25)])
    def test_pole_below_one_is_a_derivative_blowup(self, gamma, horizon):
        # the march in t stalls 1.9e-7 (6.3e-4) below the pole; the march
        # in L takes over there and stalls where the rate stops
        rep = classify_blowup(MajorantSpec(f="w", gamma=gamma))
        assert rep.kind is Blowup.DERIVATIVE
        assert abs(rep.horizon - horizon) <= 1e-9 * horizon
        assert rep.pole == pytest.approx(1.0, abs=1e-9)

    def test_even_order_pole_is_not_stepped_across(self):
        # (1 - z)^-2 is positive past its pole, so the march in L, taking
        # over where the march in t stalled, would step across it to Global
        spec = MajorantSpec(f="w", gamma="(1 - z)^-2")
        with pytest.raises(MarchStall) as info:
            classify_blowup(spec)
        assert abs(info.value.t - 1.0 / 3.0) <= 1e-9

    @pytest.mark.parametrize("f", ["w", "w + t"])
    @pytest.mark.parametrize("k", [100, 1000])
    def test_steep_exponential_is_a_value_blowup(self, f, k):
        # the rate stays finite to w = 709.78 / k; at k = 1000 the march
        # in t stalls at w = 0.023, where the rate is 1.3e10: a steep
        # bound, not a rate pole (k = 100 reaches w = 1 first)
        rep = classify_blowup(MajorantSpec(f=f, gamma=f"exp({k}*z)"))
        assert rep.kind is Blowup.VALUE
        if f == "w":
            assert abs(rep.horizon - 1.0 / k) <= 1e-10

    def test_rate_rounding_negative_at_the_origin_is_marched(self):
        # 0.3 - 0.1 - 0.2 is -2.8e-17, within the roundoff the origin allows
        rep = classify_blowup(MajorantSpec(f="w + t", gamma="z + 0.3 - 0.1 - 0.2"))
        assert rep.kind is Blowup.GLOBAL

    @pytest.mark.parametrize("pole", [0.5, 1.0001, 5.0])
    def test_declared_pole_away_from_the_spike_is_refused(self, pole):
        # the bound passes 0.5, and the rate is not evaluable past 1
        spec = MajorantSpec(f="w", gamma="(1 - z)^-0.5", pole=pole)
        with pytest.raises(NumericError, match="not at the declared pole"):
            classify_blowup(spec)

    def test_value_horizon_within_the_fixed_tolerance(self):
        # z^2 with f = w + 1 blows up in value at t = 1; a tolerance of
        # 1e-2 put the horizon past it, at 1.00006698
        rep = classify_blowup(MajorantSpec(f="w + 1", gamma="z*z", name="z^2"))
        assert rep.kind is Blowup.VALUE
        assert abs(rep.horizon - 1.0) <= 1e-10

    def test_overflowing_rate_is_a_value_blowup_at_the_stall(self):
        # exp(z) overflows once w passes about 709.78, where the march
        # stalls 1.8e-11 past the horizon 1 (octave quadrature of 1/rate
        # put it 1.18e-9 past)
        rep = classify_blowup(MajorantSpec(f="w", gamma="exp(z)"))
        assert rep.kind is Blowup.VALUE
        assert abs(rep.horizon - 1.0) <= 1e-10

    def test_edge_without_divergence_cannot_be_classified(self):
        # the rate is 1 at w = 1 and not evaluable past it: an edge, not
        # a pole
        spec = MajorantSpec(f="w", gamma="1 + sqrt(1 - z)")
        with pytest.raises(NumericError, match="without diverging there"):
            classify_blowup(spec)

    def test_subnormal_rate_is_global_within_a_rate_call_budget(self, monkeypatch):
        # 1/rate overflows to inf; octave quadrature of it never ended
        calls = _count_rate_calls(monkeypatch, budget=1000)
        rep = classify_blowup(MajorantSpec(f="w + 1", gamma="2.5e-320"))
        assert rep.kind is Blowup.GLOBAL
        assert 0 < calls[0] <= 1000

    def test_rate_turning_negative_stalls_and_is_no_blowup(self):
        # the rate 1 - t turns negative at t = 1: the march refuses it
        # there, and the stall is raised, not read as a blow-up kind
        spec = MajorantSpec(f="1 - t", gamma="z")
        with pytest.raises(MarchStall, match="stalled at t=") as info:
            classify_blowup(spec)
        assert abs(info.value.t - 1.0) <= 1e-6

    @pytest.mark.parametrize("f", ["w + (1 - t)^-0.5", "w + 1/(1 - t)"])
    def test_march_held_below_an_edge_stalls_within_a_rate_call_budget(
        self, monkeypatch, f
    ):
        # the bound is finite at t = 1 and not evaluable past it: the march
        # in L holds t at the last float below 1, where every step that
        # reaches 1 fails and every shorter one leaves t where it is.  Its
        # budget of such failures ends it there; only the step budget
        # would end it after 1.6 million rate calls
        calls = _count_rate_calls(monkeypatch, budget=20000)
        with pytest.raises(MarchStall, match="stalled at t=") as info:
            classify_blowup(MajorantSpec(f=f, gamma="z"))
        assert 1.0 - 1e-9 < info.value.t < 1.0
        assert 0 < calls[0] <= 20000

    @pytest.mark.parametrize(
        "f, gamma",
        [
            ("w", "0"),
            ("w", "z"),
            ("w*w", "z"),
            ("2.0*w", "z^0.5"),  # power_family
            ("w + 0.0", "1.0*z"),  # linear_majorant with b = 0
            ("w + 1", "(z - 1)^2"),
        ],
    )
    def test_rate_zero_at_origin_is_global_with_w_exactly_zero(
        self, monkeypatch, f, gamma
    ):
        # f free of t and gamma(f(0, 0)) = 0: every stage of the march is
        # exactly 0, so w stays 0.0 up to the time cap, in about 20 steps
        spec = MajorantSpec(f=f, gamma=gamma, name="zero rate at the origin")
        calls = _count_rate_calls(monkeypatch, budget=200)
        rep = classify_blowup(spec)
        assert rep.kind is Blowup.GLOBAL
        assert rep.horizon == math.inf and rep.pole is None
        assert rep.detail == "bound still 0.000e+00 at t=1.000e+08"
        assert 0 < calls[0] <= 200
        monkeypatch.undo()
        # the certificate is the exact bound f(t, 0) of the chain's limit
        mesh = graded_mesh(2.0, 40, 1.0)
        sol = solve_majorant(spec, mesh)
        exact = spec.f_form.map(mesh.nodes, np.zeros(mesh.nodes.size))
        assert np.all(sol.omega == 0.0)
        assert np.array_equal(sol.certificate_bound, exact)
        assert np.array_equal(sol.chain.final, exact)

    def test_rate_negative_at_origin_rejected_eagerly(self):
        with pytest.raises(SpecValidationError):
            MajorantSpec(f="w + 1", gamma="z - 10", name="bad rate")

    def test_rate_crossing_zero_rejected_during_classification(self):
        spec = MajorantSpec(f="w", gamma="1 - z", name="vanishing rate")
        with pytest.raises((NumericError, SpecValidationError)):
            classify_blowup(spec)


# the integral of 1/(1 + z + z^2), and of 1/(1 + z^3), over z > 0
_CUBIC_HORIZON = 2.0 * math.pi / (3.0 * math.sqrt(3.0))


def _forward_spec(gamma):
    return MajorantSpec(f="w + t", gamma=gamma)


def _count_rate_calls(monkeypatch, budget=math.inf):
    """A one-item list counting MajorantSpec.rate_at calls from now on;
    a call past the budget fails the test."""
    calls = [0]
    rate_at = MajorantSpec.rate_at

    def counted(self, t, w):
        calls[0] += 1
        assert calls[0] <= budget, f"more than {budget} rate calls"
        return rate_at(self, t, w)

    monkeypatch.setattr(MajorantSpec, "rate_at", counted)
    return calls


class TestForwardClassification:
    """The forward route for time-dependent f: a march in t up to w = 1,
    then in L = log(1 + w) with t as the unknown."""

    @pytest.mark.parametrize(
        "gamma, horizon",
        [
            # a z^2 has horizon pi / (2 sqrt(a))
            pytest.param("2*z*z", math.pi / math.sqrt(8.0), id="2z^2"),
            pytest.param("0.5*z*z", math.pi / math.sqrt(2.0), id="z^2/2"),
            pytest.param("z + z*z", _CUBIC_HORIZON, id="z+z^2"),
            pytest.param("z^3", _CUBIC_HORIZON, id="z^3"),
        ],
    )
    def test_horizon_matches_closed_form(self, gamma, horizon):
        # z = w + t solves z' = 1 + gamma(z), so the horizon is the
        # integral of 1/(1 + gamma(z)) over z > 0
        rep = classify_blowup(_forward_spec(gamma))
        assert rep.kind is Blowup.VALUE
        assert abs(rep.horizon - horizon) <= 1e-10 * horizon

    def test_sine_bvp_horizon_in_under_2000_rate_calls(self, monkeypatch):
        spec = corpus_build("sine_bvp").majorant
        calls = _count_rate_calls(monkeypatch)
        rep = classify_blowup(spec)
        assert rep.kind is Blowup.VALUE
        assert abs(rep.horizon - math.pi / 2) <= 1e-10 * math.pi / 2
        assert 0 < calls[0] <= 2000
        # the cap is decided in L = log(1 + w), which lands on it exactly
        assert rep.detail.startswith("forward integration reached w=1.000e+12 ")

    def test_sine_bvp_classifies_in_under_1000_rate_calls(self, monkeypatch):
        spec = corpus_build("sine_bvp").majorant
        calls = _count_rate_calls(monkeypatch)
        assert classify_blowup(spec).kind is Blowup.VALUE
        assert 0 < calls[0] <= 1000

    def test_frozen_tail_is_relative_to_its_size(self, monkeypatch):
        # rate (w + t)^2 leaves 1/(omega + t) past omega
        spec, t, omega = _forward_spec("z*z"), 1.5, 1e12
        calls = _count_rate_calls(monkeypatch)
        tail = _frozen_tail(spec, t, omega)
        assert tail == pytest.approx(1.0 / (omega + t), rel=1e-5)
        assert calls[0] <= 100

    def test_overflowing_rate_blows_up_at_the_time_of_escape(self):
        # exp(z) overflows to inf once the bound passes about 710: the march
        # in L must not read the overflow as a rate so fast the time
        # freezes, which would turn the escape into Global; it stalls
        # there, and the overflow past the stall is a value blow-up
        rep = classify_blowup(_forward_spec("exp(z) - 1 + z^1.5"))
        assert rep.kind is Blowup.VALUE
        assert abs(rep.horizon - 0.8202552) <= 1e-6


class TestCauchyRoute:
    def test_arctan_inversion(self):
        spec = MajorantSpec(f="w", gamma="1 + z*z", name="arctan map")
        mesh = graded_mesh(math.pi / 4, 64, 1.0)
        sol = solve_cauchy(spec, mesh)
        assert sol.omega[0] == 0.0
        assert sol.omega[-1] == pytest.approx(1.0, abs=1e-8)

    def test_log_inversion(self):
        mesh = graded_mesh(1.0, 64, 1.0)
        sol = solve_cauchy(LINEAR_SPEC, mesh)
        assert sol.omega[-1] == pytest.approx(math.e - 1.0, abs=1e-8)

    def test_time_map_round_trip(self):
        spec = MajorantSpec(f="w", gamma="1 + z*z", name="arctan map")
        mesh = graded_mesh(1.4, 120, 0.97)
        sol = solve_cauchy(spec, mesh)
        for t, w in zip(mesh.nodes, sol.omega):
            assert _time_map(spec, float(w)) == pytest.approx(float(t), abs=1e-8)

    def test_omega_nondecreasing(self):
        mesh = graded_mesh(1.0, 80, 1.0)
        sol = solve_cauchy(TAN_SPEC, mesh)
        assert np.all(np.diff(sol.omega) >= 0.0)


def _time_map(spec, w):
    """phi(w), the time the bound of an autonomous spec takes to reach
    w: the integral of 1/rate from 0 to w, independent of the march."""
    return adaptive_quad(_inverse_rate(spec.rate), 0.0, w, 1e-12)


# (gamma, declared pole, mesh end, closed-form omega): 1 + z^2 has
# horizon pi/2 and no pole, 1/sqrt(1 - z) has horizon 2/3 and a pole at 1
INVERSION_CASES = {
    "arctan": ("1 + z*z", None, 1.4, math.tan),
    "sqrt_pole": (
        "(1 - z)^-0.5",
        1.0,
        0.6,
        lambda t: 1.0 - (1.0 - 1.5 * t) ** (2.0 / 3.0),
    ),
}


@pytest.mark.parametrize("ratio", [1.0, 0.995, 1.005])
@pytest.mark.parametrize("case", sorted(INVERSION_CASES))
class TestForwardInversion:
    def _solve(self, case, ratio):
        gamma, pole, end, _ = INVERSION_CASES[case]
        spec = MajorantSpec(f="w", gamma=gamma, pole=pole, name=case)
        mesh = graded_mesh(end, 400, ratio)
        return spec, mesh, solve_cauchy(spec, mesh)

    def test_round_trip(self, case, ratio):
        spec, mesh, sol = self._solve(case, ratio)
        for t, w in zip(mesh.nodes.tolist(), sol.omega.tolist()):
            assert abs(_time_map(spec, w) - t) <= 2e-11 * max(1.0, t)

    def test_omega_nondecreasing(self, case, ratio):
        _, _, sol = self._solve(case, ratio)
        assert sol.omega[0] == 0.0
        assert np.all(np.diff(sol.omega) >= 0.0)

    def test_matches_closed_form(self, case, ratio):
        _, mesh, sol = self._solve(case, ratio)
        exact = INVERSION_CASES[case][3]
        for t, w in zip(mesh.nodes.tolist(), sol.omega.tolist()):
            want = exact(t)
            assert abs(w - want) <= 1e-11 * max(1.0, want)

    def test_rate_calls_linear_in_nodes(self, case, ratio, monkeypatch):
        # one step of 6 new rate calls covers most gaps of these meshes
        calls = _count_rate_calls(monkeypatch)
        _, mesh, _ = self._solve(case, ratio)
        assert calls[0] <= 20 * mesh.nodes.size

    def test_under_nine_rate_calls_per_node(self, case, ratio, monkeypatch):
        calls = _count_rate_calls(monkeypatch)
        _, mesh, _ = self._solve(case, ratio)
        assert calls[0] <= 9 * mesh.nodes.size


# bounds_scan's four majorants: (f, gamma, declared pole, end time, closed
# form of omega), each end 0.95 of the horizon or 1 for the global bound
BOUNDS_SCAN_CASES = {
    "value": ("w + 1", "z^2", None, 0.95, lambda t: t / (1.0 - t)),
    "time": ("w + t", "z^2", None, 0.95 * math.pi / 2, lambda t: math.tan(t) - t),
    "global": ("w + 1", "z", None, 1.0, math.expm1),
    "pole": (
        "w",
        "1/sqrt(1 - z)",
        1.0,
        0.95 * 2.0 / 3.0,
        lambda t: 1.0 - (1.0 - 1.5 * t) ** (2.0 / 3.0),
    ),
}


def _bounds_scan_spec(case):
    f, gamma, pole, end, _ = BOUNDS_SCAN_CASES[case]
    return MajorantSpec(f=f, gamma=gamma, pole=pole, name=case), end


@pytest.mark.parametrize("ratio", [1.0, 0.97])
@pytest.mark.parametrize("case", sorted(BOUNDS_SCAN_CASES))
def test_inner_stops_do_not_change_the_march(case, ratio):
    # the steps are the controller's: the mesh's nodes only read the
    # continuous extension, and the march ends where [t_end] alone ends it
    spec, end = _bounds_scan_spec(case)
    nodes = graded_mesh(end, 120, ratio).nodes[1:].tolist()
    *_, through = _march(spec.rate_at, 0.0, 0.0, _FIRST_STEP, nodes, _CAUCHY_RTOL)
    alone = next(_march(spec.rate_at, 0.0, 0.0, _FIRST_STEP, [end], _CAUCHY_RTOL))
    assert struct.pack("<3d", *through) == struct.pack("<3d", *alone)


@pytest.mark.parametrize("case", sorted(BOUNDS_SCAN_CASES))
def test_rate_calls_do_not_grow_with_the_mesh(case, monkeypatch):
    spec, end = _bounds_scan_spec(case)
    calls = _count_rate_calls(monkeypatch)
    counts = []
    for n in (40, 400):
        calls[0] = 0
        solve_cauchy(spec, graded_mesh(end, n, 1.0))
        counts.append(calls[0])
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize("n", [40, 400])
@pytest.mark.parametrize("case", sorted(BOUNDS_SCAN_CASES))
def test_omega_matches_the_bounds_scan_closed_forms(case, n):
    spec, end = _bounds_scan_spec(case)
    exact = BOUNDS_SCAN_CASES[case][4]
    mesh = graded_mesh(end, n, 1.0)
    sol = solve_cauchy(spec, mesh)
    for t, w in zip(mesh.nodes.tolist(), sol.omega.tolist()):
        assert abs(w - exact(t)) <= 1e-9 * max(1.0, w)


@pytest.mark.parametrize(
    "f, gamma, pole, end, horizon",
    [
        pytest.param("w + 1", "z*z", None, 1.2, 1.0, id="value_blowup"),
        pytest.param("w", "1/sqrt(1 - z)", 1.0, 0.7, 2.0 / 3.0, id="rate_pole"),
        pytest.param("w + t", "z*z", None, 1.6, math.pi / 2, id="time_dependent"),
    ],
)
def test_mesh_past_horizon_stalls_there(f, gamma, pole, end, horizon):
    spec = MajorantSpec(f=f, gamma=gamma, pole=pole)
    start = time.perf_counter()
    with pytest.raises(NumericError, match="stalled at t=") as info:
        solve_cauchy(spec, graded_mesh(end, 40, 1.0))
    assert time.perf_counter() - start < 1.0
    t = float(re.search(r"stalled at t=([^:]+):", str(info.value)).group(1))
    assert abs(t - horizon) <= 1e-6


@pytest.mark.parametrize(
    "gamma, f, pole, end, closed_form",
    [
        pytest.param(
            "1.1*z*z",
            "w + 0.9",
            None,
            0.95 / (1.1 * 0.9),
            lambda t: 0.9 / (1.0 - 1.1 * 0.9 * t),
            id="value_blowup",
        ),
        pytest.param(
            "1.1*z",
            "w + 0.9",
            None,
            1.0,
            lambda t: 0.9 * math.exp(1.1 * t),
            id="global",
        ),
        pytest.param(
            "1/sqrt(1.05 - z)",
            "w",
            1.05,
            0.95 * 1.05**1.5 / 1.5,
            lambda t: 1.05 - (1.05**1.5 - 1.5 * t) ** (2.0 / 3.0),
            id="declared_pole",
        ),
    ],
)
def test_cauchy_bound_matches_closed_form(gamma, f, pole, end, closed_form):
    spec = MajorantSpec(f=f, gamma=gamma, pole=pole, name="closed form")
    mesh = graded_mesh(end, 400, 1.0)
    sol = solve_cauchy(spec, mesh)
    assert sol.bound.size == 401
    for t, z in zip(mesh.nodes.tolist(), sol.bound.tolist()):
        assert z == pytest.approx(closed_form(t), rel=1e-9)

def _hand_chain(mesh, depth):
    """Independent trapezoid iteration for the quadratic-growth bound."""
    t = mesh.nodes
    gaps = np.diff(t)
    zs = [np.zeros_like(t)]
    for _ in range(depth):
        g = zs[-1] ** 2
        acc = np.zeros_like(t)
        for j in range(1, t.size):
            acc[j] = acc[j - 1] + 0.5 * gaps[j - 1] * (g[j - 1] + g[j])
        zs.append(acc + t)
    return zs


class TestCertifiedTail:
    def test_row_zero_is_full_bound(self):
        mesh = graded_mesh(1.0, 200, 1.0)
        sol = solve_majorant(TAN_SPEC, mesh=mesh)
        tails = certified_tail(sol.chain, sol.certificate_bound)
        assert np.array_equal(tails[0], sol.certificate_bound)

    def test_matches_hand_rolled_iterates(self):
        mesh = graded_mesh(1.0, 400, 1.0)
        sol = solve_majorant(TAN_SPEC, mesh=mesh)
        hand = _hand_chain(mesh, 3)
        tails = certified_tail(sol.chain, sol.certificate_bound)
        j = mesh.n // 2  # node at t = 0.5
        want = math.tan(0.5) - hand[3][j]
        assert tails[3][j] == pytest.approx(want, abs=5e-5)

    def test_violation_detected(self):
        mesh = graded_mesh(1.0, 60, 1.0)
        chain = majorant_picard(TAN_SPEC, mesh)
        too_low = chain.final * 0.5
        with pytest.raises(NumericError):
            certified_tail(chain, too_low)


class TestUpperSolution:
    def test_tan_is_an_upper_solution(self):
        mesh = graded_mesh(1.4, 150, 1.0)
        report = check_upper_solution(TAN_SPEC, mesh)
        assert report.holds
        assert report.worst_margin >= -1e-10

    def test_zero_fails_for_positive_forcing(self):
        mesh = graded_mesh(1.0, 20, 1.0)
        spec = dataclasses.replace(TAN_SPEC, upper_solution="0")
        report = check_upper_solution(spec, mesh)
        assert not report.holds
        assert report.node == 1  # first positive node

    def test_zero_holds_for_degenerate_map(self):
        spec = MajorantSpec(f="w", gamma="z", upper_solution="0", name="flat zero")
        mesh = graded_mesh(1.0, 20, 1.0)
        report = check_upper_solution(spec, mesh)
        assert report.holds


class TestSolveMajorant:
    def test_routes_agree_on_tan(self):
        mesh = graded_mesh(1.0, 500, 1.0)
        sol = solve_majorant(TAN_SPEC, mesh=mesh)
        gap = np.max(np.abs(sol.bound - sol.chain.final))
        assert gap < 5e-5  # h^2-scale quadrature error at n=500

    def test_certificate_dominates_both_routes(self):
        mesh = graded_mesh(1.2, 250, 1.0)
        sol = solve_majorant(TAN_SPEC, mesh=mesh)
        assert np.all(sol.certificate_bound >= sol.bound - 1e-15)
        assert np.all(sol.certificate_bound >= sol.chain.final - 1e-15)

    def test_mesh_beyond_horizon_rejected(self):
        with pytest.raises(SpecValidationError, match="existence window"):
            solve_majorant(TAN_SPEC, graded_mesh(1.6, 50))

    def test_halving_stability(self):
        a = solve_majorant(TAN_SPEC, graded_mesh(1.0, 250))
        b = solve_majorant(TAN_SPEC, graded_mesh(1.0, 500))
        assert a.classification.kind is b.classification.kind
        assert abs(a.bound[-1] - b.bound[-1]) < 1e-8  # ode route, not h^2

    def test_negative_certificate_is_refused(self):
        # a rate of -1e-12 at the origin is roundoff to the spec and 0 to
        # the classifier (Global), but the march of the rate itself drifts
        # to w = -1e-12 (e^t - 1), and the chain with it
        spec = MajorantSpec(f="w", gamma="z - 1e-12")
        with pytest.raises(NumericError, match="negative at node 40") as info:
            solve_majorant(spec, graded_mesh(40.0, 40))
        assert str(info.value).endswith(": -233756.04517000332")

    def test_roundoff_below_zero_is_still_a_certificate(self):
        # 0.3 - 0.1 - 0.2 is -2.8e-17, within the roundoff forgiven
        spec = MajorantSpec(f="w", gamma="z + 0.3 - 0.1 - 0.2")
        sol = solve_majorant(spec, graded_mesh(40.0, 40))
        assert -integral_majorant._TAIL_SLACK < sol.certificate_bound.min() < 0.0

    def test_the_window_is_the_spec_s_own(self):
        # z*z blows up at t = 1: the certificate says so, and a mesh past
        # that horizon is refused
        spec = MajorantSpec(f="w + 1", gamma="z*z", name="z^2")
        sol = solve_majorant(spec, graded_mesh(0.5, 40))
        assert sol.classification is spec.blowup
        assert sol.classification.kind is Blowup.VALUE
        with pytest.raises(SpecValidationError, match="existence window"):
            solve_majorant(spec, graded_mesh(1.5, 40))


class TestOwnedClassification:
    """A spec is classified once, and every caller reads that report."""

    def test_the_report_is_kept_and_equals_a_fresh_one(self):
        spec = dataclasses.replace(TAN_SPEC, name="kept")
        assert spec.blowup is spec.blowup
        assert spec.blowup == classify_blowup(spec)

    def test_one_classification_serves_every_solve(self, monkeypatch):
        calls = []
        classify = integral_majorant.classify_blowup

        def counted(spec):
            calls.append(spec.name)
            return classify(spec)

        # the spec looks the module function up when first used
        monkeypatch.setattr(integral_majorant, "classify_blowup", counted)
        spec = dataclasses.replace(TAN_SPEC, name="once")
        assert spec.blowup.kind is Blowup.VALUE
        solve_majorant(spec, graded_mesh(1.0, 40))
        solve_majorant(spec, graded_mesh(1.2, 40))
        assert calls == ["once"]

    def test_a_spec_whose_march_fails_raises_on_every_use(self):
        spec = MajorantSpec(f="1 - t", gamma="z", name="rate turning negative")
        for _ in range(2):
            with pytest.raises(MarchStall, match="stalled at t="):
                spec.blowup


def test_spec_validation():
    with pytest.raises(SpecValidationError):
        MajorantSpec(f="w - 1", gamma="z", name="f(0,0)<0")
    with pytest.raises(SpecValidationError):
        MajorantSpec(f="w", gamma="-1", name="negative rate")
    with pytest.raises(SpecValidationError):
        MajorantSpec(f="w", gamma="z", pole=-1.0, name="bad pole")


def test_declared_pole_with_time_dependent_f_fails_at_construction():
    with pytest.raises(SpecValidationError, match="pole"):
        MajorantSpec(f="w + t", gamma="z", pole=1.0)


class TestSpecFromText:
    def test_fields_are_the_texts_and_their_settings(self):
        names = [field.name for field in dataclasses.fields(MajorantSpec)]
        assert names == [
            "f", "gamma", "pole", "upper_solution", "z_max", "omega_max", "name"
        ]

    @pytest.mark.parametrize(
        "text, depends", [("w + t", True), ("2*w + 1", False), ("w*sin(t)", True)]
    )
    def test_time_dependence_is_read_from_f(self, text, depends):
        assert MajorantSpec(f=text, gamma="z").depends_on_t is depends

    @pytest.mark.parametrize(
        "field, text",
        [("f", "w +"), ("gamma", "z @ 2"), ("upper_solution", "tan(t"),
         ("f", "w + z"), ("upper_solution", "w")],
    )
    def test_bad_text_fails_at_construction(self, field, text):
        given = {"f": "w", "gamma": "z", field: text}
        with pytest.raises(ExprError, match=f"^{field}: syntax error at byte"):
            MajorantSpec(**given)

    @pytest.mark.parametrize(
        "f, gamma",
        [("w + t", "z*z"), ("sqrt(w + 1) - 1 + t", "log(1 + z) + z^2"),
         ("w", "1/sqrt(1 - z)"), ("2.5*w", "z^0.6")],
    )
    def test_rate_is_gamma_of_f_bit_for_bit(self, f, gamma):
        spec = MajorantSpec(f=f, gamma=gamma)
        for t, w in [(0.0, 0.0), (0.3, 0.25), (1.0, 0.5), (2.0, 0.999)]:
            try:
                want = spec.gamma_form.scalar(spec.f_form.scalar(t, w))
            except DomainError as exc:
                with pytest.raises(DomainError, match=re.escape(str(exc))):
                    spec.rate_at(t, w)
                continue
            assert struct.pack("<d", spec.rate_at(t, w)) == struct.pack("<d", want)

    def test_a_solve_compiles_no_upper_solution_and_no_slope(self, monkeypatch):
        compiled = []
        compile_ = expr._Compiler.compile

        def counted(self, tree, *args):
            compiled.append(expr.to_text(tree))
            return compile_(self, tree, *args)

        monkeypatch.setattr(expr._Compiler, "compile", counted)
        expr._compiled.cache_clear()  # no code compiled by an earlier test
        spec = corpus_build("sine_bvp").majorant
        assert compiled == []  # construction compiles nothing
        for n in (40, 160):
            solve_majorant(spec, graded_mesh(0.4, n))
        # the rate, then f and gamma on 41 nodes (scalar) and 161 (array)
        want = ["(z * z)", "(w + t)", "(z * z)", "(w + t)", "(z * z)"]
        assert sorted(compiled) == sorted(want)
        # the same texts built again reuse the code
        solve_majorant(corpus_build("sine_bvp").majorant, graded_mesh(0.4, 160))
        assert len(compiled) == len(want)
