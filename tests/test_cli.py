"""End-to-end command line checks on temporary configs and outputs."""

import collections
import configparser
import csv
import dataclasses
import io
import math
import pathlib
import textwrap
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from volmaj import algebraic_majorant, cli, integral_majorant, quadrature
from volmaj.cli import (
    _SCHEMA,
    _inline_problem,
    _load_config,
    _Setup,
    _write_table,
    format_number,
    main,
)
from volmaj.corpus import corpus_names, corpus_param_types
from volmaj.errors import ExprError, SpecValidationError
from volmaj.problem import KernelStage
from volmaj.quadrature import graded_mesh, nested_integral


# corpus run --no-timestamp outputs; a change that moves a printed digit
# updates these files in its own diff
GOLDEN_CORPUS = pathlib.Path(__file__).parent / "golden" / "corpus"
# lyapunov on f = t*(r^2 + 1.0208): its residuals depend on the last bits
# of the Newton radius and the witnessed horizon, and its branch is a
# 401-row table
GOLDEN_K1_0208 = pathlib.Path(__file__).parent / "golden" / "lyapunov_k1.0208"
# solve and verify on INLINE_DIRECT: both kernels mix t with s, so they do
# not separate and every integral takes the direct route
GOLDEN_INLINE_DIRECT = pathlib.Path(__file__).parent / "golden" / "inline_direct"
INLINE_DIRECT = """
[problem]
source = inline
kernel = sin(t - s)*u*u
kernel2 = sin(t - s1 - s2)*u1*u2
phi = u - 0.7*om1 - 0.3*om2 - t
[majorant]
source = inline
f = w + t
gamma = z + z^2
[mesh]
n = 20
t_end = 0.5
"""


def ini(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


def summary(out, fname):
    text = (out / fname).read_text()
    pairs = {}
    for line in text.splitlines():
        key, _, value = line.partition(" = ")
        pairs[key] = value
    return text, pairs


def csv_header(out, fname):
    return (out / fname).read_text().splitlines()[0]


# A = 0.5 and F(u) - Au = -om1 - t, which f = w + t bounds with equality:
# only c |F(u) - Au| with c = 1/|a| = 2 exceeds it
HALF_A = """
    [problem]
    source = inline
    a = 0.5
    kernel = u
    phi = 0.5*u - om1 - t

    [majorant]
    source = inline
    f = w + t
    gamma = z

    [mesh]
    t_end = 1
    n = 40
"""

BVP_SOLVE = """
    [problem]
    source = corpus
    entry = sine_bvp

    [mesh]
    n = 16

    [tolerances]
    tol = 1e-8
"""


class TestSolve:
    def test_corpus_bvp(self, tmp_path):
        cfg = ini(tmp_path, BVP_SOLVE)
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out),
                     "--no-timestamp"]) == 0
        text, pairs = summary(out, "solve_summary.txt")
        assert text.splitlines()[0] == "command = solve"
        assert pairs["status"] == "converged"
        assert pairs["domination"] == "holds"
        assert float(pairs["t_end"]) == pytest.approx(0.4)
        header = csv_header(out, "solve_table.csv")
        assert header == "t,norm,residual,certified_bound,d0,d1,d2"

    def test_explicit_theta_overrides_entry_default(self, tmp_path):
        cfg = ini(
            tmp_path,
            """
            [problem]
            source = corpus
            entry = sine_bvp

            [mesh]
            n = 16
            theta = 0.25
            """,
        )
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out),
                     "--no-timestamp"]) == 0
        _, pairs = summary(out, "solve_summary.txt")
        assert float(pairs["t_end"]) == pytest.approx(0.25 * math.pi / 2, abs=1e-6)

    def test_subcritical_majorant_needs_t_end(self, tmp_path, capsys):
        # the bound e^t - 1 exists globally: its frozen-rate tail diverges
        # like a logarithm, so no horizon can set the end time
        cfg = ini(
            tmp_path,
            """
            [problem]
            source = inline
            kernel = u
            phi = u - om1 - t

            [majorant]
            source = inline
            f = w + t
            gamma = z
            """,
        )
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out"),
                     "--no-timestamp"]) == 2
        assert "no end time" in capsys.readouterr().err

    def test_inline_problem_tracks_exponential(self, tmp_path):
        cfg = ini(
            tmp_path,
            """
            [problem]
            source = inline
            kernel = u
            phi = u - om1 - t

            [majorant]
            source = inline
            f = w + t
            gamma = 1.1 * z

            [mesh]
            t_end = 1.0
            n = 200

            [tolerances]
            tol = 1e-8
            """,
        )
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out),
                     "--no-timestamp"]) == 0
        _, pairs = summary(out, "solve_summary.txt")
        assert pairs["domination"] == "holds"
        assert float(pairs["max_norm"]) == pytest.approx(math.e - 1.0, abs=2e-4)

    def test_iteration_budget_exhaustion_exits_4(self, tmp_path):
        cfg = ini(
            tmp_path,
            BVP_SOLVE.replace("tol = 1e-8", "tol = 1e-14\n    n_max = 2"),
        )
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out),
                     "--no-timestamp"]) == 4
        _, pairs = summary(out, "solve_summary.txt")
        assert pairs["status"] == "not-converged"
        assert pairs["stop_reason"] == "max-iterations"


    def test_undominated_solve_claims_no_tail(self, tmp_path):
        # the a = 0.5 solution outgrows the chain of f = w + t, gamma = z,
        # whose tail shrinks below tol first; it must not end the solve
        cfg = ini(tmp_path, HALF_A)
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out),
                     "--no-timestamp"]) == 0
        _, pairs = summary(out, "solve_summary.txt")
        assert pairs["stop_reason"] == "step"
        assert pairs["final_tail"] == "none"
        assert pairs["domination"] == "violated"
        assert csv_header(out, "solve_table.csv") == "t,norm,residual"


class TestMajorant:
    def test_spent_chain_budget_is_reported_and_solve_still_runs(
        self, tmp_path, monkeypatch
    ):
        # sine_bvp's chain converges in 9 iterations; 3 leave it short
        monkeypatch.setattr(integral_majorant, "_CHAIN_MAX_ITER", 3)
        cfg = ini(tmp_path, BVP_SOLVE)
        out = tmp_path / "out"
        for command in ("majorant", "solve"):
            argv = [command, "--config", cfg, "--out", str(out), "--no-timestamp"]
            assert main(argv) == 0
        _, pairs = summary(out, "majorant_summary.txt")
        assert pairs["chain_converged"] == "no"
        assert pairs["chain_iterations"] == "3"
        _, pairs = summary(out, "solve_summary.txt")
        assert pairs["domination"] == "holds"

    def test_inline_linear_is_global(self, tmp_path):
        cfg = ini(
            tmp_path,
            """
            [majorant]
            source = inline
            f = w + 1
            gamma = z

            [mesh]
            t_end = 1.0
            n = 120
            """,
        )
        out = tmp_path / "out"
        assert main(["majorant", "--config", cfg, "--out", str(out),
                     "--no-timestamp"]) == 0
        _, pairs = summary(out, "majorant_summary.txt")
        assert pairs["classification"] == "Global"
        assert pairs["horizon"] == "inf"
        assert csv_header(out, "majorant_table.csv") == "t,omega_plus,z_plus,z_last"
        last = (out / "majorant_table.csv").read_text().splitlines()[-1]
        z_plus = float(last.split(",")[2])
        assert z_plus == pytest.approx(math.e, abs=5e-3)

    def test_inline_value_blowup(self, tmp_path):
        cfg = ini(
            tmp_path,
            """
            [majorant]
            source = inline
            f = w
            gamma = 1 + z^2

            [mesh]
            n = 80
            """,
        )
        out = tmp_path / "out"
        assert main(["majorant", "--config", cfg, "--out", str(out),
                     "--no-timestamp"]) == 0
        _, pairs = summary(out, "majorant_summary.txt")
        assert pairs["classification"] == "ValueBlowUp"
        assert float(pairs["horizon"]) == pytest.approx(math.pi / 2, abs=1e-4)
        # default end is the default fraction of the horizon
        assert float(pairs["t_end"]) == pytest.approx(0.95 * math.pi / 2, abs=1e-4)

    def test_corpus_slope_escape(self, tmp_path):
        cfg = ini(
            tmp_path,
            """
            [majorant]
            source = corpus
            entry = sqrt_pole
            """,
        )
        out = tmp_path / "out"
        assert main(["majorant", "--config", cfg, "--out", str(out),
                     "--no-timestamp"]) == 0
        _, pairs = summary(out, "majorant_summary.txt")
        assert pairs["classification"] == "DerivativeBlowUp"
        assert float(pairs["horizon"]) == pytest.approx(2.0 / 3.0, abs=1e-4)
        assert float(pairs["pole"]) == 1.0

    @pytest.mark.parametrize("command", ["majorant", "verify"])
    def test_inline_zero_rate_is_global(self, tmp_path, command):
        # gamma(f(0, 0)) = 0 with f free of t: the bound stays exactly 0
        text = "[majorant]\nsource = inline\nf = w\ngamma = z\n[mesh]\nt_end = 1\nn = 20\n"
        out = tmp_path / "out"
        assert main([command, "--config", ini(tmp_path, text), "--out", str(out),
                     "--no-timestamp"]) == 0
        if command == "majorant":
            _, pairs = summary(out, "majorant_summary.txt")
            assert pairs["classification"] == "Global"
            assert pairs["horizon"] == "inf"
            assert pairs["detail"] == "bound still 0.000e+00 at t=1.000e+08"
            assert pairs["routes_gap"] == "0"
            rows = (out / "majorant_table.csv").read_text().splitlines()
            assert rows[0] == "t,omega_plus,z_plus,z_last"
            assert len(rows) == 22
            assert all(row.split(",")[1:] == ["0", "0", "0"] for row in rows[1:])

    @pytest.mark.parametrize(
        "section, params, kind",
        [
            ("majorant", "entry = linear_majorant", "Global"),
            ("majorant", "entry = linear_majorant\nb = 0", "Global"),
            ("problem", "entry = power_family", "Global"),
            ("problem", "entry = power_family\np = 3", "Global"),
            ("problem", "entry = sine_bvp", "ValueBlowUp"),
            ("majorant", "entry = sqrt_pole", "DerivativeBlowUp"),
        ],
    )
    def test_every_corpus_majorant_is_classified(self, tmp_path, section, params, kind):
        cfg = ini(tmp_path, f"[{section}]\nsource = corpus\n{params}\n")
        assert _Setup(_load_config(cfg)).majorant.blowup.kind.value == kind

    def test_solve_on_power_family_certifies_the_zero_solution(self, tmp_path):
        cfg = ini(tmp_path, "[problem]\nsource = corpus\nentry = power_family\n")
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out),
                     "--no-timestamp"]) == 0
        _, pairs = summary(out, "solve_summary.txt")
        assert pairs["final_tail"] == "0"
        assert pairs["domination"] == "holds"
        assert pairs["domination_margin"] == "0"
        rows = list(csv.DictReader(io.StringIO((out / "solve_table.csv").read_text())))
        assert [row["certified_bound"] for row in rows] == ["0"] * 41

    def test_mesh_past_horizon_rejected(self, tmp_path, capsys):
        cfg = ini(
            tmp_path,
            """
            [majorant]
            source = inline
            f = w
            gamma = 1 + z^2

            [mesh]
            t_end = 1.6
            n = 40
            """,
        )
        code = main(["majorant", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--no-timestamp"])
        assert code == 2
        assert "existence window" in capsys.readouterr().err

    def test_escaping_bound_is_a_value_blowup_at_the_time_of_escape(self, tmp_path):
        # exp(z) overflows once w passes about 710, far below the bound
        # cap, so the forward march stalls where the bound escapes, and
        # the overflow past the stall makes it a value blow-up there
        cfg = ini(
            tmp_path,
            """
            [majorant]
            source = inline
            f = w + t
            gamma = exp(z) - 1 + z^1.5
            """,
        )
        out = tmp_path / "o"
        code = main(["majorant", "--config", cfg, "--out", str(out), "--no-timestamp"])
        assert code == 0
        summary = (out / "majorant_summary.txt").read_text()
        assert "classification = ValueBlowUp\n" in summary
        # the horizon is the time the bound escapes at, not log(1 + w)
        t = float(summary.split("horizon = ")[1].split("\n")[0])
        assert abs(t - 0.8202552) <= 1e-6

    def test_rate_turning_negative_exits_3_naming_the_time(self, tmp_path, capsys):
        # the rate 1 - t turns negative at t = 1; marching it drove w to
        # about -5e15 and log1p(w) raised ValueError, a traceback
        cfg = ini(
            tmp_path,
            """
            [majorant]
            source = inline
            f = 1 - t
            gamma = z

            [mesh]
            t_end = 0.5
            """,
        )
        code = main(["majorant", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--no-timestamp"])
        assert code == 3
        assert "stalled at t=1." in capsys.readouterr().err

    def test_declared_pole_with_time_dependent_f_exits_2(self, tmp_path, capsys):
        cfg = ini(
            tmp_path,
            """
            [majorant]
            source = inline
            f = w + t
            gamma = z
            pole = 1
            """,
        )
        code = main(["majorant", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--no-timestamp"])
        assert code == 2
        assert "pole" in capsys.readouterr().err


class TestLyapunov:
    def test_corpus_tangency(self, tmp_path):
        cfg = ini(
            tmp_path,
            """
            [lyapunov]
            source = corpus
            entry = sine_bvp
            """,
        )
        out = tmp_path / "out"
        assert main(["lyapunov", "--config", cfg, "--out", str(out),
                     "--no-timestamp"]) == 0
        _, pairs = summary(out, "lyapunov_summary.txt")
        assert pairs["convexity"] == "pass"
        assert float(pairs["radius"]) == pytest.approx(1.0, abs=1e-8)
        assert float(pairs["horizon"]) == pytest.approx(0.5, abs=1e-8)
        assert csv_header(out, "lyapunov_branch.csv") == "t,r"
        last = (out / "lyapunov_branch.csv").read_text().splitlines()[-1]
        assert float(last.split(",")[0]) == pytest.approx(0.5, abs=1e-9)

    def test_corpus_branch_converges_at_the_horizon(self, tmp_path):
        cfg = ini(tmp_path, "[lyapunov]\nsource = corpus\nentry = sine_bvp\n")
        out = tmp_path / "out"
        assert main(["lyapunov", "--config", cfg, "--out", str(out),
                     "--no-timestamp"]) == 0
        _, pairs = summary(out, "lyapunov_summary.txt")
        # Newton from below reaches the double root (closed form 1)
        assert pairs["branch_converged"] == "all"
        last = (out / "lyapunov_branch.csv").read_text().splitlines()[-1]
        assert float(last.split(",")[1]) == pytest.approx(1.0, abs=1e-7)

    def test_branch_runs_newton_after_the_screen(self, tmp_path, monkeypatch):
        totals = []
        branch = algebraic_majorant.majorant_branch

        def counted(*args, **kwargs):
            result = branch(*args, **kwargs)
            totals.append(int(result.iterations.sum()))
            return result

        monkeypatch.setattr(algebraic_majorant, "majorant_branch", counted)
        cfg = ini(
            tmp_path,
            """
            [lyapunov]
            source = inline
            f = t*(r^2 + 1.0208)
            c = 1
            r_max = 10
            t_max = 5

            [mesh]
            n = 400
            """,
        )
        out = tmp_path / "out"
        assert main(["lyapunov", "--config", cfg, "--out", str(out),
                     "--no-timestamp"]) == 0
        assert len(totals) == 1 and totals[0] < 3000  # 58932 by plain iteration

    def test_concave_growth_rejected(self, tmp_path, capsys):
        cfg = ini(
            tmp_path,
            """
            [lyapunov]
            source = inline
            f = t * (sqrt(r + 1) - 1)
            r_max = 4
            t_max = 2
            """,
        )
        code = main(["lyapunov", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--no-timestamp"])
        assert code == 2
        assert "convexity/monotonicity screen" in capsys.readouterr().err

    def test_inline_slope_is_f_s_own(self, tmp_path):
        cfg = ini(tmp_path, "[lyapunov]\nsource = inline\nf = t*r*r + t\n")
        out = tmp_path / "out"
        assert main(["lyapunov", "--config", cfg, "--out", str(out),
                     "--no-timestamp"]) == 0
        _, pairs = summary(out, "lyapunov_summary.txt")
        assert float(pairs["radius"]) == pytest.approx(1.0, abs=1e-8)
        assert float(pairs["horizon"]) == pytest.approx(0.5, abs=1e-8)

    @pytest.mark.parametrize(
        "keys, message",
        [
            # the derivative of sqrt(r) divides by sqrt(0), at the byte of sqrt
            ("f = t*sqrt(r)", "[lyapunov] f: f_r(0, 0) is not evaluable:"
             " division by zero (at byte 2)"),
        ],
        ids=["derived"],
    )
    def test_slope_not_evaluable_at_the_origin_exits_2(
        self, tmp_path, capsys, keys, message
    ):
        cfg = ini(tmp_path, f"[lyapunov]\nsource = inline\n{keys}\n")
        code = main(["lyapunov", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--no-timestamp"])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("k", ["0.9", "1.0208", "1.1"])
    def test_derived_slope_converges_the_whole_branch(self, tmp_path, k):
        cfg = ini(
            tmp_path,
            f"[lyapunov]\nsource = inline\nf = t*(r^2 + {k})\nr_max = 10\n"
            "t_max = 5\n[mesh]\nn = 400\n",
        )
        out = tmp_path / "out"
        assert main(["lyapunov", "--config", cfg, "--out", str(out),
                     "--no-timestamp"]) == 0
        _, pairs = summary(out, "lyapunov_summary.txt")
        assert pairs["branch_converged"] == "all"
        exact = 0.5 / math.sqrt(float(k))
        assert float(pairs["horizon"]) == pytest.approx(exact, rel=1e-9)
        if k == "1.0208":
            for fname in ("lyapunov_summary.txt", "lyapunov_branch.csv"):
                golden = (GOLDEN_K1_0208 / fname).read_bytes()
                assert (out / fname).read_bytes() == golden, fname

    def test_singular_tangency_prints_a_witnessed_horizon_below_it(self, tmp_path):
        # the tangency t = 1 sits at r = 0, where Newton's Jacobian is
        # singular; the horizon printed is the one its radius witnesses
        cfg = ini(
            tmp_path,
            "[lyapunov]\nsource = inline\nf = t*exp(r) - t\nr_max = 10\nt_max = 5\n",
        )
        out = tmp_path / "out"
        assert main(["lyapunov", "--config", cfg, "--out", str(out),
                     "--no-timestamp"]) == 0
        _, pairs = summary(out, "lyapunov_summary.txt")
        assert pairs["horizon"] == "0.999999532"
        assert float(pairs["fixed_residual"]) <= 0.0
        assert pairs["branch_converged"] == "all"
        assert "fallback_horizon" not in pairs

    def test_no_tangency_exits_3(self, tmp_path, capsys):
        cfg = ini(
            tmp_path,
            """
            [lyapunov]
            source = inline
            f = t + 0.1 * r
            r_max = 5
            t_max = 2
            """,
        )
        code = main(["lyapunov", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--no-timestamp"])
        assert code == 3
        assert "tangency" in capsys.readouterr().err


class TestVerify:
    def test_bvp_all_conditions_pass(self, tmp_path):
        cfg = ini(
            tmp_path,
            """
            [problem]
            source = corpus
            entry = sine_bvp

            [mesh]
            n = 20

            [run]
            samples = 15
            """,
        )
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out),
                     "--no-timestamp"]) == 0
        text, pairs = summary(out, "verify_summary.txt")
        assert pairs["failed"] == "none"
        assert pairs["condition_A"].startswith("pass")
        header = csv_header(out, "verify_witnesses.csv")
        assert header == (
            "condition,status,samples,worst_margin,sample,node,t,lhs,rhs,reason"
        )
        lines = (out / "verify_witnesses.csv").read_text().splitlines()
        assert len(lines) == 7

    def test_audit_scales_by_the_inverse_norm_bound(self, tmp_path):
        out = tmp_path / "out"
        assert main(["verify", "--config", ini(tmp_path, HALF_A), "--out",
                     str(out), "--no-timestamp"]) == 5
        _, pairs = summary(out, "verify_summary.txt")
        assert pairs["condition_A"].startswith("fail")
        assert "A" in pairs["failed"].split(",")

    def test_power_family_fails_exit_5(self, tmp_path):
        cfg = ini(
            tmp_path,
            """
            [problem]
            source = corpus
            entry = power_family

            [mesh]
            n = 30

            [run]
            samples = 60
            """,
        )
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out),
                     "--no-timestamp"]) == 5
        text, pairs = summary(out, "verify_summary.txt")
        assert pairs["condition_D"].startswith("fail")
        assert "D" in pairs["failed"]

    def test_global_majorant_without_t_end_exits_2(self, tmp_path, capsys):
        # a global bound has no horizon to take a fraction of, so verify
        # needs t_end as the other subcommands do
        cfg = ini(tmp_path, "[majorant]\nsource = inline\nf = w + 1\ngamma = z\n")
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out),
                     "--no-timestamp"]) == 2
        assert capsys.readouterr().err == (
            "volmaj: config error: no end time: set [mesh] t_end (required when"
            " the bound exists globally)\n"
        )
        assert not out.exists()


    def test_overflowing_kernel_fails_by_name_without_warnings(self, tmp_path):
        cfg = ini(
            tmp_path,
            """
            [problem]
            source = inline
            kernel = exp(300*u)
            phi = u - om1 - t

            [majorant]
            source = inline
            f = w + t
            gamma = z + z^2

            [mesh]
            n = 20

            [run]
            sample_bound = 3
            samples = 20
            """,
        )
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["verify", "--config", cfg, "--out", str(out),
                         "--no-timestamp"])
        assert code == 5
        text, pairs = summary(out, "verify_summary.txt")
        assert pairs["failed"] == "A,D,E"
        for label in "ADE":
            assert pairs[f"condition_{label}"].startswith(
                "fail (left side is not finite (kernel overflow?); worst margin -inf"
            )

    def test_overflowing_majorant_fails_by_name_without_warnings(self, tmp_path):
        cfg = ini(
            tmp_path,
            """
            [problem]
            source = inline
            kernel = u
            phi = u - om1 - t

            [majorant]
            source = inline
            f = w
            gamma = exp(50*z)

            [run]
            sample_bound = 30
            samples = 20
            """,
        )
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["verify", "--config", cfg, "--out", str(out),
                         "--no-timestamp"])
        assert code == 5
        text, pairs = summary(out, "verify_summary.txt")
        assert pairs["failed"] == "A,D,E"
        for label in "ADE":
            assert pairs[f"condition_{label}"].startswith(
                "fail (right side is not finite (majorant overflow?); worst margin -inf"
            )

    def test_overflowing_fold_2_integral_leaks_no_warning(self, tmp_path):
        # u1*u2 at |u| up to 1e100 overflows the direct route's running
        # sum to inf - inf, which numpy warned about; phi does not read
        # om2, so every condition stands on its own sides
        cfg = ini(
            tmp_path,
            """
            [problem]
            source = inline
            kernel = u
            kernel2 = u1*u2
            phi = u - om1 - t

            [majorant]
            source = inline
            f = w + 1
            gamma = z^2

            [run]
            samples = 1
            sample_bound = 1e100
            """,
        )
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["verify", "--config", cfg, "--out", str(out),
                         "--no-timestamp"])
        assert code == 0
        _, pairs = summary(out, "verify_summary.txt")
        assert pairs["failed"] == "none"

    def test_condition_B_samples_f_up_to_the_end_time(self, tmp_path):
        # t*exp(-t/3) falls after t = 3: a box that stopped at t = 2
        # never saw it
        cfg = ini(
            tmp_path,
            """
            [majorant]
            source = inline
            f = w + 1 + t*exp(-t/3)
            gamma = z

            [mesh]
            t_end = 5
            """,
        )
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out),
                     "--no-timestamp"]) == 5
        _, pairs = summary(out, "verify_summary.txt")
        assert pairs["failed"] == "B"
        rows = {row["condition"]: row for row in csv.DictReader(
            io.StringIO((out / "verify_witnesses.csv").read_text())
        )}
        assert rows["B"]["t"] == "5"
        assert float(rows["B"]["worst_margin"]) == pytest.approx(-0.020016196, abs=1e-9)


class TestPartSources:
    def test_a_problem_without_majorant_or_t_end_meshes_to_1(self, tmp_path):
        cfg = ini(
            tmp_path,
            "[problem]\nsource = inline\nkernel = u\nphi = u - om1 - t\n[mesh]\nn = 10\n",
        )
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out),
                     "--no-timestamp"]) == 0
        _, pairs = summary(out, "solve_summary.txt")
        assert (pairs["t_end"], pairs["nodes"]) == ("1", "10")
        assert "domination" not in pairs

    def test_a_corpus_entry_without_the_part_exits_2(self, tmp_path, capsys):
        cfg = ini(tmp_path, "[problem]\nsource = corpus\nentry = sqrt_pole\n")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out"),
                     "--no-timestamp"]) == 2
        assert capsys.readouterr().err == (
            "volmaj: config error: corpus entry 'sqrt_pole' has no problem part\n"
        )

    def test_corpus_majorant_uses_its_own_entry(self, tmp_path):
        # the problem's entry used to supply the majorant whatever
        # [majorant] named
        cfg = ini(
            tmp_path,
            """
            [problem]
            source = corpus
            entry = sine_bvp

            [majorant]
            source = corpus
            entry = sqrt_pole
            """,
        )
        out = tmp_path / "out"
        assert main(["majorant", "--config", cfg, "--out", str(out),
                     "--no-timestamp"]) == 0
        _, pairs = summary(out, "majorant_summary.txt")
        assert pairs["name"] == "sqrt_pole majorant"

    def test_corpus_majorant_uses_its_own_parameters(self, tmp_path):
        cfg = ini(
            tmp_path,
            """
            [problem]
            source = corpus
            entry = power_family

            [majorant]
            source = corpus
            entry = linear_majorant
            a = 2
            """,
        )
        out = tmp_path / "out"
        assert main(["majorant", "--config", cfg, "--out", str(out),
                     "--no-timestamp"]) == 0
        _, pairs = summary(out, "majorant_summary.txt")
        assert pairs["name"] == "linear_majorant(a=2, b=1)"
        assert pairs["classification"] == "Global"

    def test_corpus_lyapunov_uses_its_own_parameters(self, tmp_path):
        cfg = ini(
            tmp_path,
            """
            [problem]
            source = corpus
            entry = sine_bvp

            [lyapunov]
            source = corpus
            entry = sine_bvp
            m = 5
            """,
        )
        out = tmp_path / "out"
        assert main(["lyapunov", "--config", cfg, "--out", str(out),
                     "--no-timestamp"]) == 0
        _, pairs = summary(out, "lyapunov_summary.txt")
        assert pairs["name"] == "sine_bvp(m=5) algebraic majorant"


class TestDeterminism:
    def test_no_timestamp_reruns_are_byte_identical(self, tmp_path):
        cfg = ini(tmp_path, BVP_SOLVE)
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["solve", "--config", cfg, "--out", str(out),
                         "--no-timestamp"]) == 0
        for fname in ("solve_summary.txt", "solve_table.csv"):
            assert (a / fname).read_bytes() == (b / fname).read_bytes()

    def test_verify_reruns_are_byte_identical(self, tmp_path):
        cfg = ini(
            tmp_path,
            """
            [majorant]
            source = corpus
            entry = linear_majorant

            [run]
            samples = 10
            """,
        )
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["verify", "--config", cfg, "--out", str(out),
                         "--no-timestamp"]) == 0
        for fname in ("verify_summary.txt", "verify_witnesses.csv"):
            assert (a / fname).read_bytes() == (b / fname).read_bytes()

    def test_direct_route_writes_the_golden_bytes(self, tmp_path, monkeypatch):
        blocks = []
        row_block = quadrature._row_block

        def counted(stage, *args):
            blocks.append(stage.fold)
            return row_block(stage, *args)

        monkeypatch.setattr(quadrature, "_row_block", counted)
        cfg = ini(tmp_path, INLINE_DIRECT)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for command in ("solve", "verify"):
                assert main([command, "--config", cfg, "--out", str(out),
                             "--no-timestamp"]) == 0
        # both stages ran through the direct route's row blocks
        assert set(blocks) == {1, 2}
        assert sorted(p.name for p in out.iterdir()) == sorted(
            p.name for p in GOLDEN_INLINE_DIRECT.iterdir()
        )
        for path in GOLDEN_INLINE_DIRECT.iterdir():
            assert (out / path.name).read_bytes() == path.read_bytes(), path.name

    def test_calls_after_failures_in_one_process_write_the_golden_bytes(
        self, tmp_path, capsys
    ):
        # the parser, the parsed texts and the mesh weights outlive each
        # call; a failing call leaves nothing behind that a later one reads
        lyapunov = (
            "[lyapunov]\nsource = inline\nf = t*(r^2 + 1.0208)\nr_max = 10\n"
            "t_max = 5\n[mesh]\nn = 400\n"
        )
        bad = ini(tmp_path, lyapunov.replace("r^2", "r@2"), "bad.ini")
        assert main(["lyapunov", "--config", bad, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(
            "volmaj: config error: [lyapunov] f: syntax error at byte "
        )
        with pytest.raises(SystemExit) as exc:
            main(["lyapunov", "--out", str(tmp_path)])
        assert exc.value.code == 2
        out = tmp_path / "out"
        cfg = ini(tmp_path, lyapunov, "k.ini")
        assert main(["lyapunov", "--config", cfg, "--out", str(out / "k"),
                     "--no-timestamp"]) == 0
        direct = ini(tmp_path, INLINE_DIRECT, "direct.ini")
        assert main(["solve", "--config", direct, "--out", str(out / "direct"),
                     "--no-timestamp"]) == 0
        for golden, run in (
            (GOLDEN_K1_0208, out / "k"),
            (GOLDEN_INLINE_DIRECT, out / "direct"),
        ):
            for path in run.iterdir():
                assert path.read_bytes() == (golden / path.name).read_bytes(), path
        assert {p.name for p in (out / "direct").iterdir()} == {
            "solve_summary.txt",
            "solve_table.csv",
        }

    def test_one_parser_per_process(self):
        assert cli._build_parser() is cli._build_parser()

    def test_timestamp_written_by_default(self, tmp_path):
        cfg = ini(tmp_path, BVP_SOLVE)
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "solve_summary.txt").read_text().splitlines()
        assert lines[1].startswith("timestamp = 20")


class TestCorpusCommand:
    def test_list_shows_schemas(self, tmp_path, capsys):
        assert main(["corpus", "list"]) == 0
        text = capsys.readouterr().out
        assert "sine_bvp [m: int = 21]: problem, majorant, algebraic" in text
        assert "linear_majorant [a: float = 1.0, b: float = 1.0]: majorant" in text
        assert "power_family [p: float = 2.0]: problem, majorant" in text
        assert "sqrt_pole: majorant" in text

    def test_run_majorant_only_entry(self, tmp_path):
        out = tmp_path / "out"
        assert main(["corpus", "run", "linear_majorant", "--out", str(out),
                     "--no-timestamp"]) == 0
        sub = out / "linear_majorant"
        for fname in (
            "majorant_summary.txt",
            "majorant_table.csv",
            "verify_summary.txt",
            "verify_witnesses.csv",
        ):
            assert (sub / fname).exists(), fname

    def test_run_writes_the_golden_bytes(self, tmp_path):
        out = tmp_path / "out"
        # exit 5: the power_family audit fails D and E by design
        assert main(["corpus", "run", "--out", str(out), "--no-timestamp"]) == 5

        def files(root):
            return sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())

        assert files(out) == files(GOLDEN_CORPUS)
        for rel in files(out):
            assert (out / rel).read_bytes() == (GOLDEN_CORPUS / rel).read_bytes(), rel

    def test_run_builds_each_entry_once(self, tmp_path, monkeypatch):
        built = []
        build = cli.corpus_build

        def counted(name, params=None):
            built.append(name)
            return build(name, params)

        monkeypatch.setattr(cli, "corpus_build", counted)
        out = str(tmp_path / "out")
        assert main(["corpus", "run", "--out", out, "--no-timestamp"]) == 5
        assert built == sorted(corpus_names())

    def test_run_judges_each_spec_once(self, tmp_path, monkeypatch):
        # counted by spec name: a freed spec's id can be reused by the next
        judged = collections.Counter()

        def counting(module, attr):
            original = getattr(module, attr)

            def counted(spec):
                judged[attr, spec.name] += 1
                return original(spec)

            monkeypatch.setattr(module, attr, counted)

        counting(integral_majorant, "classify_blowup")
        counting(algebraic_majorant, "check_convexity")
        out = str(tmp_path / "out")
        assert main(["corpus", "run", "--out", out, "--no-timestamp"]) == 5
        assert judged == {
            ("classify_blowup", "linear_majorant(a=1, b=1)"): 1,
            ("classify_blowup", "power_family(p=2) majorant"): 1,
            ("classify_blowup", "sine_bvp(m=21) majorant"): 1,
            ("classify_blowup", "sqrt_pole majorant"): 1,
            ("check_convexity", "sine_bvp(m=21) algebraic majorant"): 1,
        }

    def test_unknown_entry_exits_2(self, tmp_path, capsys):
        assert main(["corpus", "run", "nonesuch", "--out", str(tmp_path)]) == 2
        assert "unknown corpus entry" in capsys.readouterr().err


# a valid inline config of each part, and per expression key a config
# whose text for that key does not parse
_PROBLEM = "[problem]\nsource = inline\nkernel = u\nphi = u - om1 - t\n"
_MAJORANT = "[majorant]\nsource = inline\nf = w + t\ngamma = z\n"
_LYAPUNOV = "[lyapunov]\nsource = inline\nf = t*(r^2 + 1)\n"
_BAD_KEYS = [
    ("solve", _PROBLEM.replace("kernel = u", "kernel = u**2"), "[problem] kernel"),
    ("solve", _PROBLEM + "kernel2 = u1*", "[problem] kernel2"),
    ("solve", _PROBLEM.replace("phi = u - om1 - t", "phi = u - om3"), "[problem] phi"),
    ("majorant", _MAJORANT.replace("f = w + t", "f = w + + "), "[majorant] f"),
    ("majorant", _MAJORANT.replace("gamma = z", "gamma = z)"), "[majorant] gamma"),
    ("majorant", _MAJORANT + "zprime = tan(", "[majorant] zprime"),
    ("lyapunov", _LYAPUNOV.replace("f = t*(r^2 + 1)", "f = t*r@2"), "[lyapunov] f"),
]


class TestConfigErrors:
    @pytest.mark.parametrize(
        "command, text, key", _BAD_KEYS, ids=[key for _, _, key in _BAD_KEYS]
    )
    def test_an_expression_error_names_its_key(
        self, tmp_path, capsys, command, text, key
    ):
        cfg = ini(tmp_path, text)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"volmaj: config error: {key}: syntax error at byte ")

    def test_om2_without_kernel2_names_phi(self, tmp_path, capsys):
        cfg = ini(tmp_path, _PROBLEM.replace("phi = u - om1 - t", "phi = u - om2"))
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "volmaj: config error: [problem] phi: om2 needs kernel2\n"
        )

    def test_missing_file(self, tmp_path, capsys):
        code = main(["solve", "--config", str(tmp_path / "nope.ini"),
                     "--out", str(tmp_path)])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_corpus_source_without_entry(self, tmp_path, capsys):
        cfg = ini(tmp_path, "[problem]\nsource = corpus\n")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "needs entry=" in capsys.readouterr().err

    def test_command_needs_its_section(self, tmp_path, capsys):
        cfg = ini(tmp_path, "[majorant]\nsource = corpus\nentry = sqrt_pole\n")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "[problem] section" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, needs",
        [
            ("solve", "a [problem] section"),
            ("majorant", "a [majorant] section"),
            ("lyapunov", "a [lyapunov] section"),
            ("verify", "at least one of [problem], [majorant], [lyapunov]"),
        ],
    )
    def test_each_command_names_the_part_it_lacks(
        self, tmp_path, capsys, command, needs
    ):
        cfg = ini(tmp_path, "[mesh]\nn = 10\n")
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            f"volmaj: config error: the {command} command needs {needs}\n"
        )

    def test_bad_source_value(self, tmp_path, capsys):
        cfg = ini(tmp_path, "[majorant]\nsource = nowhere\n")
        assert main(["majorant", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "source must be" in capsys.readouterr().err

    def test_bad_expression_reports_offset(self, tmp_path, capsys):
        cfg = ini(
            tmp_path,
            """
            [majorant]
            source = inline
            f = w +
            gamma = z
            """,
        )
        assert main(["majorant", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_number_in_mesh(self, tmp_path, capsys):
        cfg = ini(
            tmp_path,
            """
            [majorant]
            source = corpus
            entry = sqrt_pole

            [mesh]
            n = few
            """,
        )
        assert main(["majorant", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "must be an integer" in capsys.readouterr().err

    def test_misspelled_mesh_key_rejected(self, tmp_path, capsys):
        cfg = ini(
            tmp_path,
            """
            [majorant]
            source = corpus
            entry = sqrt_pole

            [mesh]
            nodes = 60
            """,
        )
        assert main(["majorant", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "unknown key 'nodes'" in err and "[mesh]" in err

    def test_unknown_section_rejected(self, tmp_path, capsys):
        cfg = ini(
            tmp_path,
            """
            [majorant]
            source = corpus
            entry = sqrt_pole

            [solver]
            tol = 1e-10
            """,
        )
        assert main(["majorant", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "unknown config section [solver]" in capsys.readouterr().err

    def test_stray_key_on_corpus_section_rejected(self, tmp_path, capsys):
        cfg = ini(
            tmp_path,
            """
            [problem]
            source = corpus
            entry = sine_bvp
            kernel = u
            """,
        )
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "unknown key 'kernel'" in err and "[problem]" in err

    def test_negative_seed_rejected(self, tmp_path, capsys):
        cfg = ini(
            tmp_path,
            """
            [problem]
            source = corpus
            entry = power_family

            [run]
            seed = -3
            """,
        )
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "[run] seed" in capsys.readouterr().err

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_no_samples_rejected(self, tmp_path, capsys, samples):
        # with no draw every sampled condition would read "pass"
        cfg = ini(
            tmp_path,
            f"""
            [problem]
            source = corpus
            entry = power_family

            [mesh]
            n = 30

            [run]
            samples = {samples}
            """,
        )
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "[run] samples" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
    def test_tol_must_be_finite_and_positive(self, tmp_path, capsys, tol):
        cfg = ini(
            tmp_path,
            f"""
            [problem]
            source = corpus
            entry = power_family

            [mesh]
            n = 30

            [tolerances]
            tol = {tol}
            """,
        )
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "[tolerances] tol" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "verify", "majorant"])
    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("mesh", "n", "0"),
            ("tolerances", "n_max", "0"),
            ("run", "sample_bound", "nan"),
            ("run", "sample_bound", "-1"),
            # twice this overflows the sampler's uniform range
            ("run", "sample_bound", "1e308"),
            ("mesh", "ratio", "0"),
            ("mesh", "ratio", "inf"),
        ],
    )
    def test_bad_setting_named_by_key_on_every_command(
        self, tmp_path, capsys, command, section, key, value
    ):
        # checked in one place before any numerics, so a subcommand that
        # does not use the key still refuses it
        cfg = ini(
            tmp_path,
            f"""
            [problem]
            source = corpus
            entry = power_family

            [{section}]
            {key} = {value}
            """,
        )
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert f"[{section}] {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("ratio, n", [("1e300", "400"), ("1e-300", "4")])
    def test_overflowing_mesh_ratio_exits_2(self, tmp_path, capsys, ratio, n):
        # 1e300**400 overflowed into a traceback; 1e-300 made the last
        # nodes coincide under a message naming neither setting
        cfg = ini(
            tmp_path,
            f"""
            [majorant]
            source = inline
            f = w + 1
            gamma = z^2

            [mesh]
            t_end = 0.5
            ratio = {ratio}
            n = {n}
            """,
        )
        assert main(["majorant", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"ratio {float(ratio)!r} over n={n}" in err

    @pytest.mark.parametrize("extra", ["", "[mesh]\n", "[majorant]\n"])
    def test_default_section_rejected(self, tmp_path, capsys, extra):
        # configparser copies [DEFAULT] keys into every section: n set the
        # node count only where a [mesh] section existed, and it turned an
        # empty [majorant] into an inline majorant
        cfg = ini(
            tmp_path,
            "[DEFAULT]\nn = 5\n\n[problem]\nsource = corpus\nentry = power_family\n"
            + extra,
        )
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "unknown config section [DEFAULT]" in capsys.readouterr().err

    def test_source_none_rejected(self, tmp_path, capsys):
        # "none" behaved like a missing section: the corpus majorant ran
        cfg = ini(
            tmp_path,
            """
            [problem]
            source = corpus
            entry = power_family

            [majorant]
            source = none
            """,
        )
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "[majorant] source must be corpus or inline" in capsys.readouterr().err

    # every part, so each command runs on it; t_end is explicit, so theta
    # is read but never used
    FULL = {
        "problem": {"source": "inline", "kernel": "u", "phi": "u - om1 - t"},
        "majorant": {"source": "inline", "f": "w + t", "gamma": "z"},
        "lyapunov": {
            "source": "inline", "f": "t * r^2 + t", "r_max": "10", "t_max": "5",
        },
        "mesh": {"n": "20", "t_end": "0.4"},
        "run": {"samples": "10"},
    }

    @pytest.mark.parametrize("command", ["solve", "majorant", "lyapunov", "verify"])
    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("mesh", "t_end", "inf"),
            ("mesh", "t_end", "0"),
            ("mesh", "theta", "2"),
            ("mesh", "theta", "1"),
            # 1 / |a| overflows, which would leave the inverse-norm bound infinite
            ("problem", "a", "1e-320"),
            ("majorant", "pole", "inf"),
            ("majorant", "z_max", "inf"),
            ("majorant", "omega_max", "-1"),
            ("lyapunov", "c", "inf"),
            ("lyapunov", "r_max", "inf"),
            ("lyapunov", "t_max", "nan"),
        ],
    )
    def test_declared_range_checked_before_numerics(
        self, tmp_path, capsys, command, section, key, value
    ):
        config = {name: dict(keys) for name, keys in self.FULL.items()}
        config[section][key] = value
        text = "".join(
            f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
            for name, keys in config.items()
        )
        out = tmp_path / "out"
        assert main([command, "--config", ini(tmp_path, text), "--out", str(out)]) == 2
        assert f"[{section}] {key} must be" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("command", ["solve", "verify", "majorant", "lyapunov"])
    @pytest.mark.parametrize(
        "text, section, key",
        [
            # twice f's slope once gave the false tangency (0.577, 0.433)
            (_LYAPUNOV.replace("f = t*(r^2 + 1)", "f = t*r*r + t\nfr = 4*t*r"),
             "lyapunov", "fr"),
            (HALF_A.replace("a = 0.5", "a = 0.5\n    c = 1"), "problem", "c"),
            (_MAJORANT.replace("f = w + t\ngamma = z", "f = w + 1\ngamma = z^2")
             + "[tolerances]\nblowup_tol = 1e-2\n", "tolerances", "blowup_tol"),
        ],
        ids=["fr", "c", "blowup_tol"],
    )
    def test_a_removed_key_is_unknown(
        self, tmp_path, capsys, command, text, section, key
    ):
        out = tmp_path / "out"
        assert main([command, "--config", ini(tmp_path, text), "--out", str(out)]) == 2
        assert f"[{section}] unknown key {key!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("a", [0.5, -2.0, 1e-3])
    def test_inline_inverse_norm_bound_is_one_over_abs_a(self, a):
        problem = cli._inline_problem(
            {"a": a, "kernel": "u", "kernel2": None, "phi": "u - om1 - t"}
        )
        assert problem.inv_norm_bound == 1.0 / abs(a)

    @pytest.mark.parametrize("command", ["solve", "verify"])
    @pytest.mark.parametrize(
        "phi, message",
        [
            ("u - log(u)", "log(0.0) outside real domain"),
            ("u - 1/t", "division by zero"),
        ],
    )
    def test_outer_map_failing_at_t0_names_phi(
        self, tmp_path, capsys, command, phi, message
    ):
        # the probe at t = 0 let the domain error escape: exit 3, no key
        cfg = ini(
            tmp_path,
            f"""
            [problem]
            source = inline
            kernel = u
            phi = {phi}
            """,
        )
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "[problem] phi" in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "majorant", "verify"])
    @pytest.mark.parametrize(
        "section, entry, key, value, accepted",
        [
            ("problem", "power_family", "p", "0.5", "finite and > 1"),
            ("problem", "power_family", "p", "1", "finite and > 1"),
            ("problem", "power_family", "p", "inf", "finite and > 1"),
            ("problem", "sine_bvp", "m", "2", "at least 3"),
            ("majorant", "linear_majorant", "a", "0", "finite and > 0"),
            ("majorant", "linear_majorant", "a", "nan", "finite and > 0"),
            ("majorant", "linear_majorant", "b", "-1", "finite and >= 0"),
        ],
    )
    def test_corpus_parameter_range_named_by_key(
        self, tmp_path, capsys, command, section, entry, key, value, accepted
    ):
        # the entry builders checked these with messages naming no key
        cfg = ini(
            tmp_path,
            f"[{section}]\nsource = corpus\nentry = {entry}\n{key} = {value}\n",
        )
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        got = int(value) if key == "m" else float(value)
        assert f"[{section}] {key} must be {accepted}, got {got!r}" in err
        assert not out.exists()


def test_readme_config_block_lists_exactly_the_schema_keys():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    after = readme.split("\n### Config format\n", 1)[1]
    block = after.split("\n```ini\n", 1)[1].split("\n```\n", 1)[0]
    cp = configparser.ConfigParser(inline_comment_prefixes=(";",))
    cp.read_string(block)
    documented = {section: set(cp[section]) for section in cp.sections()}
    assert documented == {section: set(keys) for section, keys in _SCHEMA.items()}


# values that sit on or past every declared range, and non-numbers
_FUZZ_VALUES = ["0", "-1", "0.5", "1", "3.5", "1e300", "1e999", "nan", "inf",
                "-inf", "x", ""]


def _mostly(draw, common, rare):
    """A common choice four times in five, else a rare one."""
    return draw(st.sampled_from(common if draw(st.integers(0, 4)) else rare))


@st.composite
def _config_texts(draw):
    sections = [name for name in _SCHEMA if draw(st.booleans())]
    if draw(st.integers(0, 7)) == 0:
        sections.append(draw(st.sampled_from(["solver", "DEFAULT"])))
    lines = []
    for section in sections:
        keys = {key: None for key in _SCHEMA.get(section, {"nodes": None})}
        if "source" in keys:
            source = _mostly(draw, ["corpus", "inline"], ["none", *_FUZZ_VALUES])
            if source == "corpus":
                entry = _mostly(draw, corpus_names(), _FUZZ_VALUES)
                params = corpus_param_types(entry) if entry in corpus_names() else {}
                keys = {"source": source, "entry": entry, **dict.fromkeys(params)}
            else:
                keys["source"] = source
        if draw(st.integers(0, 7)) == 0:
            keys[draw(st.sampled_from(["nodes", "kernel", "entry"]))] = None
        lines.append(f"[{section}]")
        for key, value in keys.items():
            if draw(st.booleans()):
                if value is None:
                    value = _mostly(draw, ["0.5", "1"], _FUZZ_VALUES)
                lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


@given(_config_texts())
@settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_any_config_builds_or_exits_2(tmp_path, text):
    # reading and building only: no classification, solve or sampling
    path = tmp_path / "fuzz.ini"
    path.write_text(text)
    try:
        _Setup(_load_config(str(path)))
    except (SpecValidationError, ExprError):
        pass


# factor texts over t, s1, u1, s2, u2 and the group each falls in: a for
# t and constants, 1 or 2 for one inner coordinate, None for a mix
_FOLD2_FACTORS = {
    "t": "a",
    "2.5": "a",
    "cos(t)": "a",
    "(t^2 - 1)": "a",
    "u1": 1,
    "s1": 1,
    "u1^2": 1,
    "exp(s1)": 1,
    "(s1 + u1)": 1,
    "u2": 2,
    "s2": 2,
    "sin(u2)": 2,
    "(1 - s2*u2)": 2,
    "(t + u1)^2": None,
    "sin(s1 - s2)": None,
    "exp(u1*u2)": None,
    "exp(t*s2)": None,
}


def _fold2_stage(kernel2):
    problem = _inline_problem(
        {"a": 1.0, "c": None, "kernel": "u", "kernel2": kernel2,
         "phi": "u - om1 - om2 - t"}
    )
    return problem.stages[1]


@given(
    terms=st.lists(
        st.lists(st.sampled_from(sorted(_FOLD2_FACTORS)), min_size=1, max_size=3),
        min_size=1,
        max_size=3,
    ),
    signs=st.lists(st.sampled_from(["", "-"]), min_size=3, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_inline_fold2_kernel_splits_into_prefix_sum_terms(terms, signs, seed):
    texts = [sign + "*".join(term) for sign, term in zip(signs, terms)]
    stage = _fold2_stage(" + ".join(texts))
    mixed = any(_FOLD2_FACTORS[f] is None for term in terms for f in term)
    assert (stage.terms is None) == mixed
    if mixed:
        return
    # a lone parenthesised sum is a top-level sum too
    assert len(stage.terms) >= len(terms)
    mesh = graded_mesh(0.8, 7, 0.9)
    values = np.random.default_rng(seed).uniform(-1.0, 1.0, (2, 8, 1))
    got = nested_integral(stage, mesh, values)
    want = nested_integral(dataclasses.replace(stage, terms=None), mesh, values)
    # the scale is the integral of the sum of |term| over the terms drawn
    size = 0.0
    for text in texts:
        kernel = _fold2_stage(text).evaluate
        stage_abs = KernelStage(2, lambda t, s, u: np.abs(kernel(t, s, u)))
        size = size + nested_integral(stage_abs, mesh, values)
    assert np.all(np.abs(got - want) <= 1e-13 * size)


def test_inline_product_kernel_is_the_square_of_one_prefix_sum():
    (a, (b1, b2)), = _fold2_stage("u1*u2").terms
    assert a is None and b1 is b2


@pytest.mark.parametrize(
    "kernel, terms",
    [("u + s*u^2", 1), ("exp(u) - sin(s)", 1), ("t*u - 2*s*u^2", 2),
     ("sin(t - s)*u", None)],
)
def test_inline_fold1_kernel_terms(kernel, terms):
    problem = _inline_problem(
        {"a": 1.0, "c": None, "kernel": kernel, "kernel2": None, "phi": "u - om1 - t"}
    )
    stage = problem.stages[0]
    assert (None if stage.terms is None else len(stage.terms)) == terms
    mesh = graded_mesh(1.0, 9, 1.1)
    values = np.random.default_rng(7).uniform(-1.0, 1.0, (3, 10, 1))
    got = nested_integral(stage, mesh, values)
    want = nested_integral(dataclasses.replace(stage, terms=None), mesh, values)
    if terms == 1:
        # free of t: one term, unsplit, bit for bit
        assert stage.terms[0][0] is None
        assert np.array_equal(got, want)
    else:
        assert np.allclose(got, want, rtol=1e-13, atol=1e-15)


def _reference_table(header, columns):
    """The table as csv.writer writes it with one format_number per cell."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in np.column_stack(columns).tolist():
        writer.writerow([format_number(c) for c in row])
    return buf.getvalue().encode()


_EDGE_FLOATS = [
    math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324, -5e-324,
    2.2250738585072014e-308, 1e-308, -1e-308, 1e308, -1e308, 1.7976931348623157e308,
]


@given(
    width=st.integers(1, 5),
    cells=st.lists(
        st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(width=64)), max_size=60
    ),
)
@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_table_writer_matches_the_csv_writer(tmp_path, width, cells):
    rows = len(cells) // width
    columns = [
        np.array(cells[j * rows : (j + 1) * rows], dtype=float) for j in range(width)
    ]
    header = [f"c{j}" for j in range(width)]
    path = tmp_path / "table.csv"
    _write_table(str(path), header, columns)
    assert path.read_bytes() == _reference_table(header, columns)


def test_table_writer_rejects_ragged_columns(tmp_path):
    path = tmp_path / "table.csv"
    with pytest.raises(ValueError):
        _write_table(str(path), ["t", "r"], [np.zeros(3), np.zeros(4)])
    assert not path.exists()
