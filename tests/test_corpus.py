"""Worked-example wiring checked against hand-derived oracles."""

import math

import numpy as np
import pytest

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
from volmaj.quadrature import graded_mesh


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
        assert op.inverse_inf_norm() == pytest.approx(0.125, abs=1e-12)

    def test_inverse_norm_oracle_general(self):
        # all kernel entries are negative, so the worst row sum is the
        # parabola x(1-x)/2 maximised over the grid
        for m in (4, 10):
            x = interior_points(m)
            expected = float(np.max(x * (1.0 - x) / 2.0))
            op = second_difference_operator(m)
            assert op.inverse_inf_norm() == pytest.approx(expected, rel=1e-12)

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
        assert entry.majorant.upper_solution(0.7) == bound(0.7)

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
