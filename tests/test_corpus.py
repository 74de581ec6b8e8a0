"""Worked-example wiring checked against hand-derived oracles."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volmaj.conditions import ConditionStatus, check_A, check_B
from volmaj.corpus import (
    bvp_divided_differences,
    corpus_build,
    corpus_names,
    corpus_param_types,
    interior_points,
    second_difference_operator,
)
from volmaj.errors import SpecValidationError
from volmaj.problem import inverse_inf_norm
from volmaj.problem import KernelStage
from volmaj.quadrature import graded_mesh, nested_integral


def green_matrix(m: int) -> np.ndarray:
    """h-weighted kernel x(s-1) / s(x-1): the exact inverse of the
    divided second-difference operator, entry for entry."""
    x = interior_points(m)
    h = 1.0 / (m + 1)
    xi = x[:, None]
    sj = x[None, :]
    return h * np.where(xi <= sj, xi * (sj - 1.0), sj * (xi - 1.0))


def green_apply(m: int, values: np.ndarray) -> np.ndarray:
    return green_matrix(m) @ np.asarray(values, dtype=float)


class TestGreenKernel:
    def test_exact_inverse_entry_for_entry(self):
        for m in (3, 8, 21):
            a = second_difference_operator(m).matrix()
            g = green_matrix(m)
            assert np.allclose(g @ a, np.eye(m), atol=1e-11)
            assert np.allclose(a @ g, np.eye(m), atol=1e-11)

    def test_constant_load_gives_parabola(self):
        # divided second differences are exact on quadratics, so the
        # response to a unit load is x(x-1)/2 with extreme value -1/8
        m = 21
        x = interior_points(m)
        u = green_apply(m, np.ones(m))
        assert np.allclose(u, x * (x - 1.0) / 2.0, atol=1e-13)
        assert float(np.min(u)) == pytest.approx(-0.125, abs=1e-13)

    def test_apply_matches_tridiagonal_solve(self):
        rng = np.random.default_rng(42)
        for m in (4, 13):
            op = second_difference_operator(m)
            rhs = rng.standard_normal(m)
            np.testing.assert_allclose(
                green_apply(m, rhs),
                op.solve_many(rhs[None, :])[0],
                rtol=1e-10,
                atol=1e-12,
            )

    def test_inverse_norm_is_eighth_when_midpoint_on_grid(self):
        op = second_difference_operator(21)
        assert inverse_inf_norm(op) == pytest.approx(0.125, abs=1e-12)

    def test_inverse_norm_oracle_general(self):
        # all kernel entries are negative, so the worst row sum is the
        # parabola x(1-x)/2 maximised over the grid
        for m in (4, 10):
            x = interior_points(m)
            expected = float(np.max(x * (1.0 - x) / 2.0))
            op = second_difference_operator(m)
            assert inverse_inf_norm(op) == pytest.approx(expected, rel=1e-12)

    def test_too_few_points_rejected(self):
        with pytest.raises(SpecValidationError):
            interior_points(2)


class TestDividedDifferences:
    def test_hand_values(self):
        d0, d1, d2 = bvp_divided_differences(np.array([[1.0, 2.0, 1.0]]), 0.25)
        assert d0[0] == 2.0
        assert d1[0] == 4.0
        assert d2[0] == 32.0

    def test_exact_on_boundary_matching_quadratic(self):
        x = interior_points(9)
        u = (x * (1.0 - x))[None, :]
        d0, d1, d2 = bvp_divided_differences(u, 0.1)
        assert d0[0] == pytest.approx(0.25, abs=1e-14)
        assert d1[0] == pytest.approx(0.9, abs=1e-13)
        assert d2[0] == pytest.approx(2.0, abs=1e-11)

    def test_shape_policing(self):
        with pytest.raises(SpecValidationError):
            bvp_divided_differences(np.ones(5), 0.1)


class TestEntryClosedForms:
    def test_linear_bound_is_scaled_exponential(self):
        entry = corpus_build("linear_majorant", {"a": 2.0, "b": 3.0})
        bound = entry.closed_forms["bound"]
        for t in (0.0, 0.3, 1.0):
            assert bound(t) == pytest.approx(3.0 * math.exp(2.0 * t), rel=1e-15)
        assert entry.majorant.upper_form.scalar(0.7) == bound(0.7)

    def test_linear_degenerate_flagging(self):
        # with b = 0 the rate vanishes at the origin, and the notes say so
        entry = corpus_build("linear_majorant", {"b": 0})
        assert entry.majorant.rate(0.0) == 0.0
        assert entry.notes.startswith("degenerate")
        live = corpus_build("linear_majorant")
        assert live.majorant.rate(0.0) > 0.0
        assert not live.notes.startswith("degenerate")

    def test_sqrt_pole_horizon_and_bound(self):
        entry = corpus_build("sqrt_pole")
        assert entry.closed_forms["horizon"] == pytest.approx(2.0 / 3.0)
        bound = entry.closed_forms["bound"]
        assert bound(0.0) == 0.0
        # the declared bound solves w' = 1/sqrt(1 - w): both sides
        # collapse to (1 - 1.5 t)^(-1/3)
        for t in (0.1, 0.4, 0.6):
            lhs = (1.0 - 1.5 * t) ** (-1.0 / 3.0)
            rhs = 1.0 / math.sqrt(1.0 - bound(t))
            assert lhs == pytest.approx(rhs, rel=1e-13)
        assert entry.majorant.pole == 1.0

    def test_bvp_branch_values(self):
        entry = corpus_build("sine_bvp")
        branch = entry.closed_forms["branch"]
        assert branch(0.0) == 0.0
        assert branch(0.3) == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert entry.closed_forms["tangency"] == (1.0, 0.5)
        assert entry.closed_forms["bound"] is math.tan

    def test_power_family_shift_factory(self):
        entry = corpus_build("power_family", {"p": 3.0})
        shifted = entry.closed_forms["shifted"](0.25)
        assert shifted(0.2) == 0.0
        assert shifted(1.25) == pytest.approx(1.0, rel=1e-15)
        assert entry.closed_forms["monomial"](0.5) == pytest.approx(0.125)


class TestEntriesSatisfyConditions:
    def test_every_majorant_passes_monotonicity(self):
        for name in corpus_names():
            entry = corpus_build(name)
            outcome = check_B(entry.majorant)
            assert outcome.status is ConditionStatus.PASS, name

    def test_problem_entries_pass_residual_bound(self):
        cases = {
            "power_family": graded_mesh(1.0, 30, 1.0),
            "sine_bvp": graded_mesh(0.4, 30, 1.0),
        }
        for name, mesh in cases.items():
            entry = corpus_build(name)
            outcome = check_A(entry.problem, entry.majorant, mesh, n_samples=10)
            assert outcome.status is ConditionStatus.PASS, name


class TestDirectKernels:
    """The entries' kernel callables, which the separated terms stand in
    for on a whole-mesh integral: the direct route (rows given, as
    eval_residual's per-node localisation and the fallback take it)
    against the separated one on random stacks."""

    @pytest.mark.parametrize(
        "name, params, t_end, atol",
        [
            ("power_family", {}, 1.0, 0.0),
            ("power_family", {"p": 3.0}, 1.0, 0.0),
            ("sine_bvp", {}, 0.4, 1e-14),
            ("sine_bvp", {"m": 5}, 0.4, 1e-14),
        ],
    )
    def test_direct_route_matches_the_separated_one(self, name, params, t_end, atol):
        problem = corpus_build(name, params).problem
        (stage,) = problem.stages
        calls = []

        def counted(*args):
            calls.append(args)
            return stage.evaluate(*args)

        direct_stage = KernelStage(stage.fold, counted, stage.terms)
        mesh = graded_mesh(t_end, 16, 0.9)
        rng = np.random.default_rng(7)
        values = rng.uniform(-1.0, 1.0, (3, mesh.nodes.size, problem.dim))
        separated = nested_integral(stage, mesh, values)
        rows = np.arange(mesh.nodes.size)
        direct = nested_integral(direct_stage, mesh, values, rows=rows)
        assert calls
        if atol == 0.0:
            assert np.array_equal(direct, separated)
        else:
            assert np.max(np.abs(direct - separated)) <= atol


class TestBuilderValidation:
    def test_names_sorted_and_complete(self):
        assert corpus_names() == (
            "linear_majorant",
            "power_family",
            "sine_bvp",
            "sqrt_pole",
        )

    def test_unknown_entry(self):
        with pytest.raises(SpecValidationError, match="unknown"):
            corpus_build("nonesuch")
        with pytest.raises(SpecValidationError):
            corpus_param_types("nonesuch")

    def test_unknown_parameter(self):
        with pytest.raises(SpecValidationError, match="takes no parameter"):
            corpus_build("sqrt_pole", {"p": 2.0})

    def test_type_coercion_from_strings(self):
        entry = corpus_build("sine_bvp", {"m": "7"})
        assert entry.params["m"] == 7
        entry = corpus_build("power_family", {"p": "2.5"})
        assert entry.params["p"] == 2.5

    def test_bad_values_rejected(self):
        with pytest.raises(SpecValidationError, match="must be int"):
            corpus_build("sine_bvp", {"m": "many"})
        with pytest.raises(SpecValidationError):
            corpus_build("power_family", {"p": 1.0})
        with pytest.raises(SpecValidationError):
            corpus_build("sine_bvp", {"m": 2})
        with pytest.raises(SpecValidationError):
            corpus_build("linear_majorant", {"a": -1.0})

    def test_param_types_copy(self):
        types = corpus_param_types("sine_bvp")
        assert types == {"m": int}
        types["m"] = float
        assert corpus_param_types("sine_bvp") == {"m": int}


# The corpus majorants as plain Python lambdas: the oracle for the
# compiled text forms.  Each entry gives, for its parameters, (f, gamma,
# upper solution) and the domain of z (sqrt_pole's rate has its pole at 1)
# and t (sqrt_pole's bound ends at 2/3).


def _lambda_power_family(p):
    e = (p - 1.0) / p
    return (lambda t, w: p * w, lambda z: max(z, 0.0) ** e, lambda t: t**p)


def _lambda_sqrt_pole():
    return (
        lambda t, w: w,
        lambda z: 1.0 / math.sqrt(1.0 - z),
        lambda t: 1.0 - (1.0 - 1.5 * t) ** (2.0 / 3.0),
    )


def _lambda_linear_majorant(a, b):
    return (lambda t, w: w + b, lambda z: a * z, lambda t: b * math.exp(a * t))


def _lambda_sine_bvp():
    return (lambda t, w: w + t, lambda z: z * z, math.tan)


# entry -> (parameter strategies, lambdas, (z range, t range))
_LAMBDA_MAJORANTS = {
    "linear_majorant": (
        {"a": st.floats(1e-3, 10.0), "b": st.floats(0.0, 10.0)},
        _lambda_linear_majorant,
        (10.0, 10.0),
    ),
    "power_family": (
        {"p": st.floats(1.0, 10.0, exclude_min=True)},
        _lambda_power_family,
        (10.0, 10.0),
    ),
    "sine_bvp": ({}, _lambda_sine_bvp, (10.0, 1.5)),
    "sqrt_pole": ({}, _lambda_sqrt_pole, (0.999, 2.0 / 3.0)),
}


def _bits(x):
    return struct.pack("<d", x)


@pytest.mark.parametrize("name", sorted(_LAMBDA_MAJORANTS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_text_forms_are_the_lambdas(name, data):
    params, lambdas, (z_hi, t_hi) = _LAMBDA_MAJORANTS[name]
    drawn = {key: data.draw(strategy, label=key) for key, strategy in params.items()}
    spec = corpus_build(name, drawn).majorant
    f, gamma, upper = lambdas(*drawn.values())
    points = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12)
    t = np.array(data.draw(points, label="t")) * t_hi
    w = np.array(data.draw(points, label="w"))[: t.size] * 10.0
    t = t[: w.size]
    z = np.array(data.draw(points, label="z")) * z_hi
    want_f = [f(a, b) for a, b in zip(t.tolist(), w.tolist())]
    want_gamma = [gamma(x) for x in z.tolist()]
    # scalar forms: bit for bit
    got = [spec.f_form.scalar(a, b) for a, b in zip(t.tolist(), w.tolist())]
    assert list(map(_bits, got)) == list(map(_bits, want_f))
    got = [spec.gamma_form.scalar(x) for x in z.tolist()]
    assert list(map(_bits, got)) == list(map(_bits, want_gamma))
    got = [spec.upper_form.scalar(x) for x in t.tolist()]
    assert list(map(_bits, got)) == list(map(_bits, map(upper, t.tolist())))
    # array forms: bit for bit, but numpy's pow for power_family's z^e
    got = np.broadcast_to(spec.f_form.array(t, w), t.shape)
    assert list(map(_bits, got.tolist())) == list(map(_bits, want_f))
    got = np.broadcast_to(spec.gamma_form.array(z), z.shape)
    if name == "power_family":
        assert np.all(np.abs(got - want_gamma) <= np.spacing(np.array(want_gamma)))
    else:
        assert list(map(_bits, got.tolist())) == list(map(_bits, want_gamma))
