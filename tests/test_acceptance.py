"""Shipping checks: each headline behavior at its stated tolerance.

One test per claim; every test ends with a single PASS line carrying
the measured figure (run pytest with -s to see them all).
"""

import math
import os
import random
import time

import numpy as np

import test_expr
from volmaj import (
    Blowup,
    LyapunovSpec,
    MajorantSpec,
    Mesh,
    SolveStatus,
    Trajectory,
    classify_blowup,
    corpus_build,
    graded_mesh,
    majorant_branch,
    majorant_picard,
    parse,
    residual_norms,
    solve_cauchy,
    solve_main,
    solve_majorant,
    solve_tangency,
    to_text,
    zero_trajectory,
)
from volmaj import integral_majorant
from volmaj.cli import main
from volmaj.corpus import bvp_divided_differences
from volmaj.expr import DomainError, evaluate
from volmaj.problem import picard_step
from volmaj.quadrature import _inverse_rate, adaptive_quad


def _pass(label: str, detail: str) -> None:
    print(f"PASS {label}: {detail}")


def test_01_value_blowup_horizon():
    start = time.perf_counter()
    spec = MajorantSpec(f="w", gamma="1 + z*z")
    report = classify_blowup(spec)
    elapsed = time.perf_counter() - start
    assert report.kind is Blowup.VALUE
    err = abs(report.horizon - math.pi / 2)
    assert err <= 1e-6
    assert elapsed < 1.0
    _pass("01 value blow-up horizon", f"pi/2 within {err:.3g} in {elapsed:.3f}s")


def test_02_tan_bound_by_both_routes():
    start = time.perf_counter()
    spec = MajorantSpec(f="w + t", gamma="z*z", upper_solution="tan(t)")
    tol = integral_majorant._CHAIN_TOL
    mesh = graded_mesh(1.45, 2000, 0.998)
    solution = solve_majorant(spec, mesh=mesh)
    elapsed = time.perf_counter() - start
    exact = np.tan(mesh.nodes)
    mask = exact > 1e-9
    chain_rel = float(
        np.max(np.abs(solution.chain.final[mask] - exact[mask]) / exact[mask])
    )
    cauchy_rel = float(
        np.max(np.abs(solution.bound[mask] - exact[mask]) / exact[mask])
    )
    assert chain_rel <= 1e-3
    assert cauchy_rel <= 1e-3
    gap = float(np.max(np.abs(solution.bound - solution.chain.final)))
    h = float(np.max(mesh.gaps))
    allowance = 5.0 * (tol + h * h * float(np.max(exact)))
    assert gap <= allowance
    assert elapsed < 10.0
    _pass(
        "02 tangent bound via iteration and time-map",
        f"rel errors {chain_rel:.3g} / {cauchy_rel:.3g}, route gap {gap:.3g}"
        f" <= {allowance:.3g}, {elapsed:.2f}s",
    )


def test_03_tangency_point_two_scalings():
    start = time.perf_counter()
    base = dict(
        f="t*r*r + t",
        r_max=10.0,
        t_max=5.0,
    )
    tang = solve_tangency(LyapunovSpec(inv_norm_bound=1.0, **base))
    assert abs(tang.radius - 1.0) <= 1e-10
    assert abs(tang.horizon - 0.5) <= 1e-10
    # doubling the inverse-norm constant halves the horizon: eliminating
    # the slope equation by hand gives r = 1, t = 1 / (2 c)
    tang2 = solve_tangency(LyapunovSpec(inv_norm_bound=2.0, **base))
    assert abs(tang2.radius - 1.0) <= 1e-9
    assert abs(tang2.horizon - 0.25) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _pass(
        "03 tangency point at two scalings",
        f"(1, 0.5) and (1, 0.25) hit within "
        f"{max(abs(tang.radius - 1), abs(tang.horizon - 0.5)):.3g} /"
        f" {max(abs(tang2.radius - 1), abs(tang2.horizon - 0.25)):.3g},"
        f" {elapsed:.2f}s",
    )


def test_04_branch_matches_closed_form():
    entry = corpus_build("sine_bvp")
    points = [0.1, 0.2, 0.3, 0.4, 0.45]
    mesh = Mesh(np.array([0.0] + points))
    branch = majorant_branch(entry.lyapunov, mesh)
    closed = entry.closed_forms["branch"]
    worst = max(
        abs(float(r) - closed(float(t)))
        for t, r in zip(mesh.nodes[1:], branch.values[1:])
    )
    assert worst <= 1e-8
    _pass("04 radius branch closed form", f"max error {worst:.3g} at 5 points")


def test_05_linear_bound_global_exponential():
    spec = MajorantSpec(f="w + 1", gamma="z", upper_solution="exp(t)")
    assert spec.blowup.kind is Blowup.GLOBAL
    mesh = graded_mesh(1.0, 2000, 1.0)
    solution = solve_majorant(spec, mesh=mesh)
    exact = np.exp(mesh.nodes)
    rel = float(np.max(np.abs(solution.certificate_bound - exact) / exact))
    assert rel <= 1e-4
    _pass(
        "05 linear bound grows like e^t and never blows up",
        f"classification Global, max relative error {rel:.3g}",
    )


def test_06_slope_escape_horizon():
    entry = corpus_build("sqrt_pole")
    report = classify_blowup(entry.majorant)
    assert report.kind is Blowup.DERIVATIVE
    err = abs(report.horizon - entry.closed_forms["horizon"])
    assert err <= 1e-6
    _pass("06 slope-escape horizon", f"2/3 within {err:.3g}")


def test_07_nonunique_family_zero_main_solution():
    entry = corpus_build("power_family")
    mesh = graded_mesh(1.0, 800, 1.0)
    result = solve_main(entry.problem, mesh, tol=1e-10)
    assert result.status is SolveStatus.CONVERGED
    assert result.iterations == 1
    assert result.trajectory.max_norm == 0.0
    t = mesh.nodes
    monomial = Trajectory(mesh, (t**2)[:, None])
    shifted = Trajectory(mesh, (np.maximum(t - 0.5, 0.0) ** 2)[:, None])
    r_mono = float(np.max(residual_norms(entry.problem, monomial)))
    r_shift = float(np.max(residual_norms(entry.problem, shifted)))
    assert r_mono <= 1e-4
    assert r_shift <= 1e-4
    _pass(
        "07 non-unique family: zero main solution plus residual witnesses",
        f"zero at iterate 1; candidate residuals {r_mono:.3g} / {r_shift:.3g}",
    )


def test_08_bvp_diagnostics_under_scalar_bounds():
    entry = corpus_build("sine_bvp")
    mesh = graded_mesh(0.4, 40, 1.0)
    majorant = solve_majorant(entry.majorant, mesh=mesh)
    result = solve_main(entry.problem, mesh, tol=1e-10, majorant=majorant)
    assert result.status is SolveStatus.CONVERGED
    m = entry.params["m"]
    d0, d1, d2 = bvp_divided_differences(result.trajectory.values, 1.0 / (m + 1))
    cap = np.tan(mesh.nodes) + 1e-9
    assert np.all(d0 <= cap)
    assert np.all(d1 <= cap)
    assert np.all(d2 <= cap)
    branch = majorant_branch(entry.lyapunov, mesh)
    assert np.all(result.trajectory.norms <= branch.values)
    slack = float(np.min(cap - np.maximum(np.maximum(d0, d1), d2)))
    _pass(
        "08 boundary-value solve under both scalar bounds",
        f"all size/slope/curvature diagnostics under tan t (min slack"
        f" {slack:.3g}) and norms under the radius branch",
    )


def test_09a_iterate_chains_monotone():
    ends = {
        "linear_majorant": 1.0,
        "power_family": 1.0,
        "sine_bvp": 0.4,
        "sqrt_pole": 0.6,
    }
    for name, t_end in ends.items():
        spec = corpus_build(name).majorant
        chain = majorant_picard(spec, graded_mesh(t_end, 60, 1.0))
        for prev, cur in zip(chain.iterates, chain.iterates[1:]):
            assert np.all(cur >= prev - 1e-12), name
        for z in chain.iterates:
            assert np.all(np.diff(z) >= -1e-12), name
    _pass(
        "09a chains monotone",
        f"nondecreasing in iteration and in time for {len(ends)} specs"
        " (slack 1e-12)",
    )


def test_09b_time_map_roundtrip():
    specs = {
        "tangent": MajorantSpec(f="w", gamma="1 + z*z"),
        "sqrt_pole": corpus_build("sqrt_pole").majorant,
    }
    worst = 0.0
    for name, spec in specs.items():
        horizon = classify_blowup(spec).horizon
        mesh = graded_mesh(0.9 * horizon, 400, 0.995)
        solution = solve_cauchy(spec, mesh)
        h = _inverse_rate(spec.rate)
        err = max(
            abs(adaptive_quad(h, 0.0, float(w), 1e-12) - float(t))
            for t, w in zip(mesh.nodes, solution.omega)
        )
        assert err <= 1e-8, name
        worst = max(worst, err)
    _pass("09b time-map round trip", f"max |phi(omega(t)) - t| = {worst:.3g}")


def test_09c_iterate_pair_domination():
    entry = corpus_build("sine_bvp")
    mesh = graded_mesh(0.4, 60, 1.0)
    majorant = solve_majorant(entry.majorant, mesh=mesh)
    chain = majorant.chain
    prev = zero_trajectory(mesh, entry.params["m"])
    pairs = 0
    for n in range(1, min(6, len(chain.iterates))):
        cur = picard_step(entry.problem, prev)
        step = np.max(np.abs(cur.values - prev.values), axis=1)
        dz = chain.iterates[n] - chain.iterates[n - 1]
        assert np.all(step <= dz + 1e-9)
        prev = cur
        pairs += 1
    assert pairs >= 3
    _pass(
        "09c iterate-pair domination",
        f"{pairs} consecutive step sizes under the chain deltas (+1e-9)",
    )


def test_09d_parser_round_trip():
    rng = random.Random(424242)
    names = ("t", "z", "w")
    env = {"t": 0.7, "z": 1.3, "w": 2.1}
    total = 1100
    agreements = 0
    for _ in range(total):
        dsl, py = test_expr._gen(rng, 4, names)
        tree = parse(dsl, names)
        assert parse(to_text(tree), names) == tree, dsl
        expected = test_expr._reference(py, env)
        try:
            got = evaluate(tree, env)
        except DomainError:
            got = None
        if expected is not None and math.isinf(expected):
            assert got is not None and math.isinf(got), dsl
        elif expected is None or got is None:
            assert expected == got, dsl
        else:
            assert got == expected, dsl
            agreements += 1
    assert total >= 1000
    _pass(
        "09d parser round trip",
        f"{total} random expressions re-parse identically, 0 failures"
        f" ({agreements} with exact reference agreement)",
    )


def test_10_cli_byte_determinism(tmp_path, capsys):
    configs = {
        "solve": "[problem]\nsource = corpus\nentry = sine_bvp\n\n"
        "[mesh]\nn = 16\n",
        "majorant": "[majorant]\nsource = corpus\nentry = sqrt_pole\n",
        "lyapunov": "[lyapunov]\nsource = corpus\nentry = sine_bvp\n",
        "verify": "[majorant]\nsource = corpus\nentry = linear_majorant\n\n"
        "[run]\nsamples = 10\n",
    }
    checked = 0
    for command, text in configs.items():
        cfg = tmp_path / f"{command}.ini"
        cfg.write_text(text)
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / command / tag
            code = main(
                [command, "--config", str(cfg), "--out", str(out),
                 "--no-timestamp"]
            )
            assert code == 0, command
            outs.append(out)
        names = sorted(os.listdir(outs[0]))
        assert names == sorted(os.listdir(outs[1]))
        for fname in names:
            assert (outs[0] / fname).read_bytes() == (
                outs[1] / fname
            ).read_bytes(), f"{command}/{fname}"
            checked += 1
    for tag in ("a", "b"):
        assert main(
            ["corpus", "run", "linear_majorant", "--out",
             str(tmp_path / "corpus" / tag), "--no-timestamp"]
        ) == 0
    sub = "linear_majorant"
    for fname in sorted(os.listdir(tmp_path / "corpus" / "a" / sub)):
        assert (tmp_path / "corpus" / "a" / sub / fname).read_bytes() == (
            tmp_path / "corpus" / "b" / sub / fname
        ).read_bytes()
        checked += 1
    assert main(["corpus", "list"]) == 0
    first = capsys.readouterr().out
    assert main(["corpus", "list"]) == 0
    second = capsys.readouterr().out
    assert first == second
    _pass(
        "10 command line determinism",
        f"{checked} output files byte-identical across reruns of every"
        " command with --no-timestamp",
    )


def test_11_sine_bvp_trapezoid_order():
    # halving h must quarter the end-node change: the product trapezoid
    # rule is O(h^2) on the smooth main solution of sine_bvp
    start = time.perf_counter()
    problem = corpus_build("sine_bvp").problem
    ends = []
    for n in (40, 80, 160, 320, 640):
        report = solve_main(problem, graded_mesh(0.4, n, 1.0), tol=1e-13)
        assert report.status is SolveStatus.CONVERGED
        ends.append(report.trajectory.values[-1])
    changes = [np.max(np.abs(b - a)) for a, b in zip(ends, ends[1:])]
    ratios = [a / b for a, b in zip(changes, changes[1:])]
    assert all(3.9 <= r <= 4.1 for r in ratios), ratios
    elapsed = time.perf_counter() - start
    _pass(
        "11 sine_bvp trapezoid order",
        "end-node change ratios " + ", ".join(f"{r:.4f}" for r in ratios)
        + f" for n = 40..640 in {elapsed:.2f}s",
    )
