"""Main-solution iteration with certified stopping and domination audits."""

import math

import numpy as np
import pytest

from volmaj.corpus import corpus_build, power_family
from volmaj.errors import SpecValidationError
from volmaj.integral_majorant import MajorantSpec, PicardChain, solve_majorant
from volmaj.meshes import Trajectory, zero_trajectory
from volmaj.picard import (
    SolveStatus,
    residual_norms,
    solve_main,
    verify_domination,
)
from volmaj.problem import DenseOperator, KernelStage, VolterraProblem
from volmaj.quadrature import graded_mesh


def linear_problem(rate=1.0):
    """u(t) = rate * integral of u + t."""

    def kernel(t, s, u):
        return rate * u[..., 0, :]

    def outer(t, integrals, u):
        return u - integrals[0] - t[:, None]

    return VolterraProblem(
        dim=1,
        stages=(KernelStage(1, kernel),),
        outer=outer,
        operator=DenseOperator(np.array([[1.0]])),
        inv_norm_bound=1.0,
        name=f"linear rate {rate:g}",
    )


def scalar_values(fn, mesh):
    return Trajectory(mesh, np.array([[fn(float(t))] for t in mesh.nodes]))


class TestSolveMain:
    def test_exponential_solution(self):
        mesh = graded_mesh(1.0, 300, 1.0)
        res = solve_main(linear_problem(), mesh, tol=1e-8, n_max=60)
        assert res.status is SolveStatus.CONVERGED
        assert res.trajectory.values[-1, 0] == pytest.approx(
            math.e - 1.0, abs=1e-4
        )

    def test_power_family_main_solution_is_zero(self):
        entry = corpus_build("power_family")
        mesh = graded_mesh(1.0, 100, 1.0)
        res = solve_main(entry.problem, mesh, tol=1e-12, n_max=10)
        assert res.status is SolveStatus.CONVERGED
        assert res.iterations == 1
        assert np.all(res.trajectory.values == 0.0)

    def test_deterministic(self):
        entry = corpus_build("sine_bvp")
        mesh = graded_mesh(0.4, 60, 1.0)
        a = solve_main(entry.problem, mesh, tol=1e-10, n_max=50)
        b = solve_main(entry.problem, mesh, tol=1e-10, n_max=50)
        assert np.array_equal(a.trajectory.values, b.trajectory.values)
        assert a.iterations == b.iterations

    def test_convergence_order_under_mesh_halving(self):
        def err(n):
            mesh = graded_mesh(1.0, n, 1.0)
            res = solve_main(linear_problem(), mesh, tol=1e-13, n_max=80)
            return abs(res.trajectory.values[-1, 0] - (math.e - 1.0))

        assert err(100) / err(200) > 3.5

    def test_max_iterations_reported(self):
        mesh = graded_mesh(1.0, 50, 1.0)
        res = solve_main(linear_problem(), mesh, tol=1e-13, n_max=2)
        assert res.status is SolveStatus.NOT_CONVERGED
        assert res.stop_reason == "max-iterations"

    def test_certified_tail_stop_precedes_step_stop(self):
        # nearly linear kernel: the chain certifies 1e-8 accuracy after
        # one iterate while the raw step delta is still order one
        problem = linear_problem(rate=1e-8)
        spec = MajorantSpec(f="w + 1", gamma="1e-8*z", name="tiny growth")
        mesh = graded_mesh(1.0, 120, 1.0)
        maj = solve_majorant(spec, mesh=mesh)
        res = solve_main(problem, mesh, tol=1e-6, n_max=50, majorant=maj)
        assert res.stop_reason == "certified-tail"
        assert res.iterations == 1
        assert res.final_tail is not None and res.final_tail <= 1e-6

    def test_undominated_iterate_earns_no_tail(self):
        # u = 2 int u + t outgrows e^t - 1, the bound of f = w + t and
        # gamma = z, whose chain tail drops below tol long before the step
        spec = MajorantSpec(f="w + t", gamma="z", name="too slow")
        mesh = graded_mesh(1.0, 40, 1.0)
        maj = solve_majorant(spec, mesh=mesh)
        res = solve_main(linear_problem(rate=2.0), mesh, tol=1e-10, n_max=60,
                         majorant=maj)
        assert res.stop_reason == "step"
        assert res.final_tail is None
        assert res.certified_bounds is None
        assert not verify_domination(res, maj).holds

    def test_certified_bounds_attached_and_nonnegative(self):
        entry = corpus_build("sine_bvp")
        mesh = graded_mesh(0.4, 80, 1.0)
        maj = solve_majorant(entry.majorant, mesh=mesh)
        res = solve_main(entry.problem, mesh, tol=1e-10, n_max=60, majorant=maj)
        assert res.certified_bounds is not None
        assert np.all(res.certified_bounds >= 0.0)

    def test_mesh_mismatch_rejected(self):
        entry = corpus_build("sine_bvp")
        maj = solve_majorant(entry.majorant, mesh=graded_mesh(0.4, 50, 1.0))
        other = graded_mesh(0.4, 60, 1.0)
        with pytest.raises(SpecValidationError):
            solve_main(entry.problem, other, majorant=maj)


class TestResiduals:
    def test_quadratic_monomial_is_exact(self):
        entry = corpus_build("power_family")
        mesh = graded_mesh(1.0, 800, 1.0)
        tr = scalar_values(lambda t: t * t, mesh)
        assert float(np.max(residual_norms(entry.problem, tr))) < 1e-16 * 800

    def test_shifted_copy_small_residual(self):
        entry = corpus_build("power_family")
        mesh = graded_mesh(1.0, 800, 1.0)
        fn = entry.closed_forms["shifted"](0.5)
        tr = scalar_values(fn, mesh)
        assert float(np.max(residual_norms(entry.problem, tr))) < 1e-4

    def test_cubic_family_small_residual(self):
        entry = power_family(p=3.0)
        mesh = graded_mesh(1.0, 800, 1.0)
        for fn in (lambda t: t**3, entry.closed_forms["shifted"](0.25)):
            tr = scalar_values(fn, mesh)
            assert float(np.max(residual_norms(entry.problem, tr))) < 1e-4


class TestDomination:
    def test_holds_on_bvp(self):
        entry = corpus_build("sine_bvp")
        mesh = graded_mesh(0.4, 80, 1.0)
        maj = solve_majorant(entry.majorant, mesh=mesh)
        res = solve_main(entry.problem, mesh, tol=1e-10, n_max=60, majorant=maj)
        report = verify_domination(res, maj)
        assert report.holds
        assert report.violations == ()

    def test_flat_bound_violated(self):
        entry = corpus_build("sine_bvp")
        mesh = graded_mesh(0.4, 40, 1.0)
        maj = solve_majorant(entry.majorant, mesh=mesh)
        res = solve_main(entry.problem, mesh, tol=1e-10, n_max=60, majorant=maj)
        zeros = np.zeros(mesh.nodes.size)
        flat = type(maj)(
            classification=maj.classification,
            mesh=mesh,
            omega=zeros,
            bound=zeros,
            chain=PicardChain(mesh, (zeros,), True, 0.0),
            certificate_bound=zeros,
        )
        report = verify_domination(res, flat)
        assert not report.holds
        assert report.worst_margin < 0
        assert len(report.violations) > 0

    def test_every_iterate_audited(self):
        # u = 2 int u + t against f = w + t, gamma = z: 61 iterations, and
        # the audit checks all 62 iterate rows plus the final iterate
        # against the certificate bound, 63 rows of 61 nodes
        spec = MajorantSpec(f="w + t", gamma="z", name="too slow")
        mesh = graded_mesh(8.0, 60, 1.0)
        maj = solve_majorant(spec, mesh=mesh)
        res = solve_main(linear_problem(rate=2.0), mesh, tol=1e-15, n_max=200,
                         majorant=maj)
        assert res.iterations == 61
        assert res.norms.shape == (62, 61)
        assert np.array_equal(res.norms[-1], res.trajectory.norms)
        assert verify_domination(res, maj).checked == 63 * 61


class TestIteratePairs:
    def test_step_deltas_under_chain_deltas(self):
        # domination of consecutive differences, the certified estimate
        entry = corpus_build("sine_bvp")
        mesh = graded_mesh(0.4, 60, 1.0)
        maj = solve_majorant(entry.majorant, mesh=mesh)
        prev = zero_trajectory(mesh, 21)
        chain = maj.chain
        from volmaj.problem import picard_step

        cur = prev
        for n in range(1, min(6, chain.count)):
            cur = picard_step(entry.problem, prev)
            step = np.max(np.abs(cur.values - prev.values), axis=1)
            dz = chain.iterates[n] - chain.iterates[n - 1]
            assert np.all(step <= dz + 1e-9)
            prev = cur
