"""Sampled audits of the domination conditions, with replayable witnesses."""

import contextlib
import math
import warnings
from functools import partial

import numpy as np
import pytest

from volmaj.conditions import (
    DEFAULT_SEED,
    STREAM_DELTA,
    STREAM_U,
    STREAM_V,
    CheckOutcome,
    ConditionStatus,
    TrajectorySampler,
    Witness,
    _AtU,
    _failed,
    _sample_blocks,
    _SampledCheck,
    check_A,
    check_B,
    check_C,
    check_D_and_E,
    run_suite,
)
from volmaj.cli import _inline_problem
from volmaj.corpus import corpus_build
from volmaj.errors import EVAL_ERRORS, DomainError, NumericError, SpecValidationError
from volmaj.integral_majorant import MajorantSpec, majorant_picard
from volmaj.problem import DenseOperator, KernelStage, VolterraProblem
from volmaj.quadrature import WeightTable, graded_mesh, pointwise


def _sqrt_problem():
    """u(t) = integral of sqrt(u) + t, failing where a sample is negative."""

    def kernel(t, s, u):
        bad = u[u < 0.0]
        if bad.size:
            raise DomainError(f"sqrt({float(bad[0])!r}) outside real domain")
        return np.sqrt(u[..., 0, :])

    return VolterraProblem(
        dim=1,
        stages=(KernelStage(1, kernel),),
        outer=lambda t, integrals, u: u - integrals[0] - t[:, None],
        operator=DenseOperator(np.array([[1.0]])),
        inv_norm_bound=1.0,
        name="sqrt kernel",
    )


def bvp_setup(t_end=0.4, nodes=60):
    entry = corpus_build("sine_bvp")
    return entry, graded_mesh(t_end, nodes, 1.0)


class TestSuiteOnCorpus:
    def test_bvp_all_pass(self):
        entry, mesh = bvp_setup()
        report = run_suite(
            problem=entry.problem,
            majorant=entry.majorant,
            lyapunov=entry.lyapunov,
            mesh=mesh,
            n_samples=40,
        )
        assert report.failed == ()
        for label in "ABCDEG":
            assert report.outcomes[label].status is ConditionStatus.PASS

    def test_power_family_increment_condition_fails_honestly(self):
        # the growth rate has unbounded slope at zero, so increments of
        # sign-flipping samples overshoot the bound; the suite reports
        # the failure instead of crashing
        entry = corpus_build("power_family")
        mesh = graded_mesh(1.0, 60, 1.0)
        report = run_suite(
            problem=entry.problem,
            majorant=entry.majorant,
            mesh=mesh,
            n_samples=40,
        )
        assert report.outcomes["D"].status is ConditionStatus.FAIL
        assert "D" in report.failed
        w = report.outcomes["D"].witness
        assert w is not None and w.lhs > w.rhs

    def test_majorant_only_skips_trajectory_conditions(self):
        entry = corpus_build("linear_majorant")
        report = run_suite(majorant=entry.majorant, mesh=graded_mesh(1.0, 20, 1.0))
        for label in "ADE":
            o = report.outcomes[label]
            assert o.status is ConditionStatus.SKIPPED
            assert "no problem" in o.reason
        assert report.outcomes["B"].status is ConditionStatus.PASS
        assert report.failed == ()

    def test_problem_without_mesh_rejected(self):
        entry, _ = bvp_setup()
        with pytest.raises(SpecValidationError):
            run_suite(problem=entry.problem, majorant=entry.majorant, mesh=None)

    def test_no_upper_solution_skips_candidate_audit(self):
        spec = MajorantSpec(f="w + 1", gamma="z", name="bare")
        report = run_suite(majorant=spec, mesh=graded_mesh(1.0, 10, 1.0))
        c = report.outcomes["C"]
        assert c.status is ConditionStatus.SKIPPED
        assert "upper solution" in c.reason


def _injected(bad):
    """A stand-in for TrajectorySampler.blocks on 13 nodes: every value
    0.25, but bad[(sample, node)] where given, whatever the stream."""

    def blocks(self, stream, ranges):
        for samples in ranges:
            values = np.full((len(samples), 13, 1), 0.25)
            for (i, j), v in bad.items():
                if i in samples:
                    values[i - samples.start, j] = v
            yield values

    return blocks


class TestConstructedFailures:
    def test_residual_bound_failure(self):
        # nonlinear part is 2t while the bound only allows t
        def outer(t, integrals, u):
            return u + 2.0 * t[:, None]

        problem = VolterraProblem(
            dim=1,
            stages=(),
            outer=outer,
            operator=DenseOperator(np.array([[1.0]])),
            inv_norm_bound=1.0,
            name="forcing too big",
        )
        spec = MajorantSpec(f="w + t", gamma="0", name="tight bound")
        mesh = graded_mesh(1.0, 10, 1.0)
        outcome = check_A(problem, spec, mesh, n_samples=5)
        assert outcome.status is ConditionStatus.FAIL
        w = outcome.witness
        assert w is not None
        assert w.lhs == pytest.approx(2.0 * w.t, rel=1e-12)
        assert w.rhs == pytest.approx(w.t, rel=1e-12)

    def test_failing_sample_is_reported_with_its_node(self, monkeypatch):
        # sample 3 first fails at node 7; sample 5 fails at an earlier node
        mesh = graded_mesh(1.0, 12, 1.0)
        bad = {(3, 7): -1.0, (3, 9): -2.0, (5, 2): -3.0}

        monkeypatch.setattr(TrajectorySampler, "blocks", _injected(bad))
        spec = MajorantSpec(f="w + t", gamma="z", name="linear")
        outcome = check_A(_sqrt_problem(), spec, mesh, n_samples=8)
        assert outcome.status is ConditionStatus.FAIL
        assert outcome.samples == 4
        assert outcome.witness.sample == 3
        assert outcome.reason == (
            "evaluation failed on sample 3: residual evaluation failed at node 7:"
            " sqrt(-1.0) outside real domain"
        )

    def test_zero_division_in_the_majorant_fails_its_sample_by_name(
        self, monkeypatch
    ):
        mesh = graded_mesh(1.0, 12, 1.0)

        monkeypatch.setattr(TrajectorySampler, "blocks", _injected({}))
        spec = MajorantSpec(f="w + t", gamma="1/(0.25 - z)")
        outcome = check_A(_sqrt_problem(), spec, mesh, n_samples=4)
        assert outcome.status is ConditionStatus.FAIL
        assert outcome.witness.sample == 0
        assert outcome.reason == (
            "evaluation failed on sample 0: division by zero (at byte 1)"
        )

    def test_zero_division_in_gamma_fails_B_by_name(self):
        spec = MajorantSpec(f="w", gamma="1/(4 - z)")
        outcome = check_B(spec)
        assert outcome.status is ConditionStatus.FAIL
        assert outcome.reason == (
            "evaluation failed inside the sampled box: division by zero (at byte 1)"
        )

    def test_zero_division_in_the_candidate_fails_C_by_name(self):
        spec = MajorantSpec(f="w", gamma="z", upper_solution="1/(t - 0.5)")
        outcome = check_C(spec, graded_mesh(1.0, 4))
        assert outcome.status is ConditionStatus.FAIL
        assert outcome.reason == (
            "candidate bound not evaluable on the mesh: division by zero (at byte 1)"
        )

    def test_non_finite_left_side_fails_at_its_sample_and_node(self):
        # an overflowing kernel: every integral is inf, so the increments
        # of D and the difference quotients of E are inf - inf = nan
        def kernel(t, s, u):
            return np.full(u.shape[:2] + (1,), np.inf)

        problem = VolterraProblem(
            dim=1,
            stages=(KernelStage(1, kernel),),
            outer=lambda t, integrals, u: u - integrals[0] - t[:, None],
            operator=DenseOperator(np.array([[1.0]])),
            inv_norm_bound=1.0,
            name="overflowing kernel",
        )
        spec = MajorantSpec(f="w + t", gamma="z", name="linear")
        mesh = graded_mesh(0.3, 20, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            outcomes = (check_A(problem, spec, mesh, n_samples=10),) + check_D_and_E(
                problem, spec, mesh, n_samples=10
            )
        for outcome, lhs in zip(outcomes, (math.inf, math.nan, math.nan)):
            assert outcome.status is ConditionStatus.FAIL
            assert outcome.worst_margin == -math.inf
            assert outcome.samples == 1
            assert outcome.reason == "left side is not finite (kernel overflow?)"
            w = outcome.witness
            # node 0 is the empty integral, so node 1 is the first overflow
            assert (w.sample, w.node, w.t) == (0, 1, float(mesh.nodes[1]))
            assert np.array_equal(w.lhs, lhs, equal_nan=True)
            assert math.isfinite(w.rhs)

    def test_monotonicity_failure_of_rate(self):
        spec = MajorantSpec(f="w", gamma="sin(z)", name="wavy rate")
        report = run_suite(majorant=spec)
        assert report.outcomes["B"].status is ConditionStatus.FAIL


def _sides(label, problem, spec, mesh, u, *more):
    """Condition label's per-node (lhs, rhs) on a stack u of trajectories,
    from an _AtU of its own."""
    at = _AtU(problem, spec, mesh, u, problem.operator.matrix().T)
    return getattr(at, f"sides_{label}")(*more)


def _audited_alone(problem, spec, mesh, n_samples, bound=1.0):
    """A, D and E each audited on its own, block by block, through its
    own _AtU sides on the blocks of its streams."""
    sampler = TrajectorySampler(mesh, problem.dim, bound)
    u = partial(sampler.block, STREAM_U)
    stacks = {
        "A": lambda r: (u(r),),
        "D": lambda r: (u(r), 0.5 * sampler.block(STREAM_DELTA, r)),
        "E": lambda r: (u(r), sampler.block(STREAM_V, r)),
    }
    outcomes = {}
    for label, draw in stacks.items():
        check = _SampledCheck(label, mesh, partial(_sides, label, problem, spec, mesh))
        for samples in _sample_blocks(sampler, n_samples):
            if check.failure is None:
                check.feed(samples, *draw(samples))
        outcomes[label] = check.outcome(n_samples)
    return outcomes


def _inline(kernel, f, gamma):
    problem = _inline_problem(
        {"a": 1.0, "c": None, "kernel": kernel, "kernel2": None, "phi": "u - om1 - t"}
    )
    return problem, MajorantSpec(f=f, gamma=gamma)


class TestOnePass:
    """run_suite audits A, D and E in one pass over shared samples, and
    reports for each what it reports alone."""

    @pytest.mark.parametrize(
        "name, t_end, n_samples",
        [("sine_bvp", 0.4, 40), ("sine_bvp", 0.4, 200), ("power_family", 1.0, 200)],
    )
    def test_corpus(self, name, t_end, n_samples):
        entry, mesh = corpus_build(name), graded_mesh(t_end, 60, 1.0)
        self._same(entry.problem, entry.majorant, mesh, n_samples)

    def test_injected_domain_error(self, monkeypatch):
        monkeypatch.setattr(TrajectorySampler, "blocks", _injected({(3, 7): -1.0}))
        spec = MajorantSpec(f="w + t", gamma="z", name="linear")
        got = self._same(_sqrt_problem(), spec, graded_mesh(1.0, 12, 1.0), 8)
        for label in "ADE":
            assert got[label].reason.startswith("evaluation failed on sample 3:")

    @pytest.mark.parametrize(
        "kernel, f, gamma, bound, side",
        [
            ("exp(300*u)", "w + t", "z + z^2", 3.0, "left"),
            ("u", "w", "exp(50*z)", 30.0, "right"),
        ],
    )
    def test_overflow(self, kernel, f, gamma, bound, side):
        problem, spec = _inline(kernel, f, gamma)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = self._same(problem, spec, graded_mesh(1.0, 20, 1.0), 20, bound)
        for label in "ADE":
            assert got[label].reason.startswith(f"{side} side is not finite")

    @staticmethod
    def _same(problem, spec, mesh, n_samples, bound=1.0):
        report = run_suite(problem, spec, mesh=mesh, n_samples=n_samples, bound=bound)
        alone = _audited_alone(problem, spec, mesh, n_samples, bound)
        for label in "ADE":
            # repr tells nan, -0.0 and every bit of a float apart
            assert repr(report.outcomes[label]) == repr(alone[label])
        return alone


class TestWitnessReplay:
    # power_family on the mesh of TestSuiteOnCorpus, where D and E fail.
    # A one-sample replay maps the majorant through its scalar forms (61
    # points, under ARRAY_MIN_POINTS), the audit's 40-sample block through
    # the array forms; power_family's agree on these witnesses, but can
    # differ in the last bit elsewhere (its E witness at 200 samples)
    def test_margins_reproduce_from_stream(self):
        for name, t_end in (("sine_bvp", 0.4), ("power_family", 1.0)):
            entry = corpus_build(name)
            self._replay(entry.problem, entry.majorant, graded_mesh(t_end, 60, 1.0))

    @staticmethod
    def _replay(problem, spec, mesh):
        """Each witness's sides recomputed from its sample's draws alone."""
        sampler = TrajectorySampler(mesh, problem.dim, seed=DEFAULT_SEED)

        def draw(stream, i):
            return sampler.draw(stream, i).values[None]

        a = check_A(problem, spec, mesh, n_samples=40)
        d, e = check_D_and_E(problem, spec, mesh, n_samples=40)
        replays = (
            (a, lambda i: _sides("A", problem, spec, mesh, draw(STREAM_U, i))),
            (
                d,
                lambda i: _sides(
                    "D", problem, spec, mesh,
                    draw(STREAM_U, i), 0.5 * draw(STREAM_DELTA, i),
                ),
            ),
            (
                e,
                lambda i: _sides(
                    "E", problem, spec, mesh, draw(STREAM_U, i), draw(STREAM_V, i)
                ),
            ),
        )
        for outcome, margins in replays:
            w = outcome.witness
            lhs, rhs = margins(w.sample)
            assert (lhs[0, w.node], rhs[0, w.node]) == (w.lhs, w.rhs)
            assert rhs[0, w.node] - lhs[0, w.node] == outcome.worst_margin

    def test_suite_deterministic(self):
        entry, mesh = bvp_setup(nodes=40)
        kw = dict(
            problem=entry.problem,
            majorant=entry.majorant,
            lyapunov=entry.lyapunov,
            mesh=mesh,
            n_samples=25,
        )
        a = run_suite(**kw)
        b = run_suite(**kw)
        for label in a.outcomes:
            x, y = a.outcomes[label], b.outcomes[label]
            assert x.status is y.status
            assert (
                x.worst_margin == y.worst_margin
                or (math.isnan(x.worst_margin) and math.isnan(y.worst_margin))
            )

    def test_seed_changes_samples(self):
        entry, mesh = bvp_setup(nodes=30)
        dim = entry.problem.dim
        one, two = (TrajectorySampler(mesh, dim, seed=seed) for seed in (1, 2))
        samples = range(10)
        assert not np.any(one.block(STREAM_U, samples) == two.block(STREAM_U, samples))
        a = check_A(entry.problem, entry.majorant, mesh, n_samples=10, seed=1)
        b = check_A(entry.problem, entry.majorant, mesh, n_samples=10, seed=2)
        wa = one.draw(STREAM_U, a.witness.sample).values
        wb = two.draw(STREAM_U, b.witness.sample).values
        assert not np.any(wa == wb)


class TestSampler:
    def test_continuity_smoothing_keeps_bound(self):
        mesh = graded_mesh(1.0, 50, 1.0)
        sampler = TrajectorySampler(mesh, 3, bound=0.7, seed=DEFAULT_SEED)
        tr = sampler.draw(STREAM_U, 0)
        assert tr.values.shape == (51, 3)
        assert float(np.max(np.abs(tr.values))) <= 0.7 + 1e-12

    def test_distinct_streams_distinct_draws(self):
        mesh = graded_mesh(1.0, 20, 1.0)
        sampler = TrajectorySampler(mesh, 2, seed=DEFAULT_SEED)
        a = sampler.draw(1, 0).values
        b = sampler.draw(2, 0).values
        assert not np.array_equal(a, b)

    # blocks that start mid-stream, as every block after an audit's first
    @pytest.mark.parametrize("dim", [1, 21])
    @pytest.mark.parametrize("start, stop", [(0, 1), (0, 9), (1, 2), (7, 19), (9, 10)])
    def test_a_block_is_its_stacked_draws(self, dim, start, stop):
        sampler = TrajectorySampler(graded_mesh(1.0, 12, 1.0), dim, 0.8, seed=3)
        got = sampler.block(STREAM_U, range(start, stop))
        draws = [sampler.draw(STREAM_U, i).values for i in range(start, stop)]
        _same_bits(got, np.stack(draws))
        _same_bits(got, _stream_samples(sampler, STREAM_U, stop)[start:])

    # the audit's blocks, ending short: 630 + 630 + 40 samples at dim 1,
    # 30 + 30 + 10 at dim 21; and ranges with gaps, jumped over
    @pytest.mark.parametrize("dim, n_samples", [(1, 1300), (21, 70)])
    def test_streamed_blocks_are_the_jumped_blocks(self, dim, n_samples):
        sampler = TrajectorySampler(graded_mesh(1.0, 12, 1.0), dim, 0.8, seed=3)
        audit = list(_sample_blocks(sampler, n_samples))
        assert len(audit) == 3 and len(audit[-1]) < len(audit[0])
        for ranges in (audit, [range(2, 5), range(5, 6), range(9, 12)]):
            got = list(sampler.blocks(STREAM_V, ranges))
            assert len(got) == len(ranges)
            for stack, samples in zip(got, ranges):
                _same_bits(stack, sampler.block(STREAM_V, samples))
            want = _stream_samples(sampler, STREAM_V, ranges[-1].stop)
            _same_bits(np.concatenate(got), want[[i for r in ranges for i in r]])


def _stream_samples(sampler, stream, stop):
    """Samples 0 to stop - 1 by definition: consecutive runs of (n+1)·dim
    uniform draws from the stream's one generator, each smoothed alone."""
    rng = np.random.default_rng([sampler.seed, stream])
    size = (sampler.mesh.nodes.size, sampler.dim)
    samples = []
    for _ in range(stop):
        raw = rng.uniform(-sampler.bound, sampler.bound, size)
        out = np.empty_like(raw)
        out[1:-1] = 0.25 * raw[:-2] + 0.5 * raw[1:-1] + 0.25 * raw[2:]
        out[0] = 0.75 * raw[0] + 0.25 * raw[1]
        out[-1] = 0.75 * raw[-1] + 0.25 * raw[-2]
        samples.append(out)
    return np.stack(samples)


# The per-sample right sides as the scalar code computed them, one
# sample and one point at a time: the oracle for the array forms.


def _scalar_gamma(spec, z):
    return np.array([spec.gamma_form.scalar(float(v)) for v in z])


def _scalar_f(spec, t_nodes, w):
    f = spec.f_form.scalar
    return np.array([f(float(t), float(v)) for t, v in zip(t_nodes, w)])


def _norms(values):
    return np.max(np.abs(values), axis=2)


def _scalar_rhs_A(spec, mesh, u):
    weights = WeightTable(mesh)
    return np.array(
        [
            _scalar_f(spec, mesh.nodes, weights.prefix(_scalar_gamma(spec, norms)))
            for norms in _norms(u)
        ]
    )


def _scalar_rhs_D(spec, mesh, u, du):
    weights = WeightTable(mesh)
    rhs = []
    for u_norms, du_norms in zip(_norms(u), _norms(du)):
        low = weights.prefix(_scalar_gamma(spec, u_norms))
        wide = weights.prefix(_scalar_gamma(spec, u_norms + du_norms))
        rhs.append(_scalar_f(spec, mesh.nodes, wide) - _scalar_f(spec, mesh.nodes, low))
    return np.array(rhs)


def _scalar_rhs_E(spec, mesh, u, v):
    weights = WeightTable(mesh)
    gamma_z, f_w = spec.gamma_z_form.scalar, spec.f_w_form.scalar
    rhs = []
    for norms, v_norms in zip(_norms(u), _norms(v)):
        integrals = weights.prefix(_scalar_gamma(spec, norms))
        slope_samples = [gamma_z(float(z)) * nv for z, nv in zip(norms, v_norms)]
        weighted = weights.prefix(np.array(slope_samples))
        # node 0's weights are 0, so its side is 0 without a slope of f
        nodes = zip(mesh.nodes.tolist(), integrals.tolist(), weighted.tolist())
        rhs.append([0.0] + [f_w(t, w) * g for t, w, g in list(nodes)[1:]])
    return np.array(rhs)


def _linear_problem(dim):
    return VolterraProblem(
        dim=dim,
        stages=(KernelStage(1, lambda t, s, u: u[..., 0, :]),),
        outer=lambda t, integrals, u: u - 0.5 * integrals[0] - t[:, None],
        operator=DenseOperator(np.eye(dim)),
        inv_norm_bound=1.0,
        name="linear",
    )


def _inline_majorant():
    return MajorantSpec(
        f="sqrt(w + 1) - 1 + t", gamma="log(1 + z) + z^2", name="inline log/sqrt"
    )


_MAJORANTS = {
    **{
        name: lambda name=name: corpus_build(name).majorant
        for name in ("linear_majorant", "power_family", "sine_bvp", "sqrt_pole")
    },
    "inline": _inline_majorant,
}

# the right sides that go through ^, exp, log or tan, where numpy may
# round the last bit unlike math: every side of inline and power_family,
# and sqrt_pole's E alone, through the ^2 that the quotient rule puts in
# gamma'; every other side agrees bit for bit
_ULP_SIDES = {"inline": "ADE", "power_family": "ADE", "sqrt_pole": "E"}

# those sides agree within this many ulps; on the cases below they differ
# by at most 4 in power_family's D, a difference of two f values, and 1 in
# sqrt_pole's E
_SIDE_ULPS = {"A": 1, "D": 4, "E": 2}


def _stacks(mesh, dim, size, bound, zero):
    """Stacks u, du and v of the given size; with zero, the sample at
    index size // 2 is all zero."""
    sampler = TrajectorySampler(mesh, dim, bound)

    def draw(stream):
        stack = sampler.block(stream, range(size))
        if zero:
            stack[size // 2] = 0.0
        return stack

    return draw(STREAM_U), 0.5 * draw(STREAM_DELTA), draw(STREAM_V)


def _same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _within_ulps(got, want, ulps):
    """got within ulps units in the last place of want, element by
    element."""
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= ulps * np.spacing(np.abs(want)))


class TestArrayRightSides:
    # 12 samples of 13 nodes reach quadrature.ARRAY_MIN_POINTS, so the
    # array forms run
    @pytest.mark.parametrize(
        "size, zero", [(1, False), (1, True), (5, True), (12, True)]
    )
    @pytest.mark.parametrize("name", sorted(_MAJORANTS))
    def test_right_sides_match_the_per_sample_scalar_code(self, name, size, zero):
        spec = _MAJORANTS[name]()
        mesh = graded_mesh(0.4, 12, 0.9)
        problem = _linear_problem(2)
        u, du, v = _stacks(mesh, 2, size, 0.5, zero)
        for side, oracle, stacks in (
            ("A", _scalar_rhs_A, (u,)),
            ("D", _scalar_rhs_D, (u, du)),
            ("E", _scalar_rhs_E, (u, v)),
        ):
            try:
                want = oracle(spec, mesh, *stacks)
            except DomainError as exc:
                # power_family's gamma' = e z^(e - 1) fails at a zero norm
                assert (name, zero, side) == ("power_family", True, "E")
                with pytest.raises(DomainError) as got:
                    _sides(side, problem, spec, mesh, *stacks)
                assert str(got.value) == str(exc)
                continue
            got = _sides(side, problem, spec, mesh, *stacks)[1]
            if side in _ULP_SIDES.get(name, ""):
                _within_ulps(got, want, _SIDE_ULPS[side])
            else:
                _same_bits(got, want)

    @pytest.mark.parametrize(
        "side, oracle, second",
        [
            ("A", _scalar_rhs_A, None),
            ("D", _scalar_rhs_D, 1),
            ("E", _scalar_rhs_E, 2),
        ],
    )
    def test_a_raising_sample_raises_the_scalar_message(self, side, oracle, second):
        # the message names the point, so equal messages mean the same
        # first failing point
        spec = MajorantSpec(f="w", gamma="1/sqrt(1 - z)", name="pole")
        mesh = graded_mesh(0.4, 12, 1.0)
        stacks = _stacks(mesh, 1, 1, 3.0, zero=False)
        args = (stacks[0],) if second is None else (stacks[0], stacks[second])
        with pytest.raises(DomainError) as want:
            oracle(spec, mesh, *args)
        with pytest.raises(DomainError) as got:
            _sides(side, _linear_problem(1), spec, mesh, *args)
        assert str(got.value) == str(want.value)

    def test_a_slope_singular_at_zero_is_not_taken_at_node_0(self):
        # f = sqrt(w) + t has df/dw = 0.5/sqrt(w), which divides by zero at
        # node 0's integral w = 0; node 0's side is 0 whatever the slope
        spec = MajorantSpec(f="sqrt(w) + t", gamma="z", name="sqrt outer")
        mesh = graded_mesh(0.4, 12, 1.0)
        problem = _linear_problem(1)
        u, _, v = _stacks(mesh, 1, 12, 0.5, zero=False)
        with pytest.raises(DomainError, match="division by zero"):
            spec.f_w_form.scalar(0.0, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rhs = _sides("E", problem, spec, mesh, u, v)[1]
            _, e = check_D_and_E(problem, spec, mesh, n_samples=12, bound=0.5)
        assert np.all(rhs[:, 0] == 0.0)
        assert np.all(np.isfinite(rhs)) and np.all(rhs[:, 1:] > 0.0)
        _same_bits(rhs, _scalar_rhs_E(spec, mesh, u, v))
        assert e.samples == 12
        assert not e.reason


class TestSamplingArguments:
    @pytest.mark.parametrize("bound", [1e308, math.inf, 0.0, math.nan])
    def test_a_bound_whose_draw_range_overflows_is_refused(self, bound):
        # rng.uniform(-bound, bound) needs 2 * bound finite
        with pytest.raises(SpecValidationError, match="sample bound"):
            TrajectorySampler(graded_mesh(1.0, 4), 1, bound)

    @pytest.mark.parametrize("n_samples", [0, -3])
    def test_no_sample_drawn_is_refused_not_passed(self, n_samples):
        entry, mesh = bvp_setup(nodes=10)
        args = (entry.problem, entry.majorant, mesh, n_samples)
        for run in (
            lambda: check_A(*args),
            lambda: check_D_and_E(*args),
            lambda: run_suite(*args[:2], mesh=mesh, n_samples=n_samples),
        ):
            with pytest.raises(SpecValidationError, match="n_samples"):
                run()


# check_B as the point-by-point scan it replaced: the oracle for the
# grid form, which must give the same CheckOutcome to the last bit.


def _scan_check_B(spec, t_hi=2.0):
    z_hi = spec.z_max if spec.z_max is not None else 4.0
    w_hi = spec.omega_max if spec.omega_max is not None else 4.0
    z_grid = np.linspace(0.0, z_hi, 128)
    w_grid = np.linspace(0.0, w_hi, 128)
    t_grid = np.linspace(0.0, t_hi, 32)
    worst = math.inf
    witness = None
    count = 0

    def update(tag_index, coord, lo, hi):
        nonlocal worst, witness
        margin = hi - lo
        if margin < worst:
            worst = margin
            witness = Witness("B", tag_index, -1, coord, lo, hi)

    try:
        g = pointwise(spec.gamma_form.scalar, z_grid)
        count += g.size
        if float(np.min(g)) < -1e-9:
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
            row = pointwise(spec.f_form.scalar, t, w_grid)
            count += row.size
            for j in range(1, row.size):
                update(1, float(w_grid[j]), float(row[j - 1]), float(row[j]))
        for w in w_grid[::8]:
            col = pointwise(spec.f_form.scalar, t_grid, w)
            count += col.size
            for j in range(1, col.size):
                update(2, float(t_grid[j]), float(col[j - 1]), float(col[j]))
    except (NumericError, *EVAL_ERRORS) as exc:
        return CheckOutcome(
            "B",
            ConditionStatus.FAIL,
            count,
            -math.inf,
            None,
            f"evaluation failed inside the sampled box: {exc}",
        )
    status = ConditionStatus.PASS if worst >= -1e-9 else ConditionStatus.FAIL
    reason = "" if status is ConditionStatus.PASS else "monotonicity violated"
    return CheckOutcome("B", status, count, worst, witness, reason=reason)


def _step(x, at):
    """Text for 1 where x < at and 0.5 past it, exactly: (x - at)/abs(x - at)
    is -1 or 1 off the grid point at, which no check_B grid holds."""
    return f"(0.75 - 0.25*(({x} - {at})/abs({x} - {at})))"


# check_B's t grid runs from row 4 at 0.258 to row 5 at 0.323, so
# sqrt(0.3 - t) fails from row 5 on
_T_ROW_5 = float(np.linspace(0.0, 2.0, 32)[5])

_B_SPECS = {
    **{
        name: lambda name=name: corpus_build(name).majorant
        for name in ("linear_majorant", "power_family", "sine_bvp", "sqrt_pole")
    },
    "row violation": lambda: MajorantSpec(f="sin(w) + t", gamma="z"),
    "column violation": lambda: MajorantSpec(f="w + cos(t)", gamma="z"),
    # equal worst margins: the first in the order gamma, rows, columns wins
    "tie of gamma and rows": lambda: MajorantSpec(f=_step("w", 2), gamma=_step("z", 2)),
    "tie of rows and columns": lambda: MajorantSpec(
        f=f"{_step('w', 2)} + {_step('t', 1)}", gamma="z"
    ),
    # f is flat in w: every row difference is 0
    "ties inside the rows": lambda: MajorantSpec(f="0*w + t", gamma="z"),
    # f overflows to inf past w = 0.71: inf - inf = nan margins, which
    # must not win the first smallest margin of a row or column
    "f overflows": lambda: MajorantSpec(f="exp(1000*w) + t", gamma="z"),
    "f raises in row 5": lambda: MajorantSpec(f="w + t + 0*sqrt(0.3 - t)", gamma="z"),
    # t*exp(-t/3) falls after t = 3: only a t range past 2 sees it
    "f falls past t = 3": lambda: MajorantSpec(f="w + 1 + t*exp(-t/3)", gamma="z"),
}


class TestGridCheckB:
    @pytest.mark.parametrize("name", sorted(_B_SPECS))
    def test_outcome_is_the_point_by_point_scan(self, name):
        spec = _B_SPECS[name]()
        # repr tells nan, -0.0 and every bit of a float apart
        assert repr(check_B(spec)) == repr(_scan_check_B(spec))

    @pytest.mark.parametrize("name", sorted(_B_SPECS))
    @pytest.mark.parametrize("t_end, t_hi", [(1.0, 2.0), (5.0, 5.0)])
    def test_the_t_range_reaches_the_mesh_end(self, name, t_end, t_hi):
        spec = _B_SPECS[name]()
        outcome = check_B(spec, graded_mesh(t_end, 10, 1.0))
        assert repr(outcome) == repr(_scan_check_B(spec, t_hi))

    def test_power_family_witness_is_the_first_of_tied_zero_margins(self):
        outcome = check_B(corpus_build("power_family").majorant)
        # f = p * w is constant in t, so every column difference is 0:
        # the first, in column 0 up to the second t node, is the witness
        t_second = float(np.linspace(0.0, 2.0, 32)[1])
        assert outcome.worst_margin == 0.0
        assert (outcome.witness.sample, outcome.witness.t) == (2, t_second)

    def test_f_is_mapped_once(self, monkeypatch):
        spec = corpus_build("sine_bvp").majorant
        calls = []
        mapped = spec.f_form.map

        def counted(*args):
            calls.append(args)
            return mapped(*args)

        monkeypatch.setattr(spec.f_form, "map", counted)
        outcome = check_B(spec)
        assert outcome.status is ConditionStatus.PASS
        # the columns of fixed w are a slice of the one 32 x 128 grid
        assert len(calls) == 1
        assert outcome.samples == 128 + 32 * 128 + 16 * 32 == 4736

    def test_a_raising_row_counts_the_rows_before_it(self):
        outcome = check_B(_B_SPECS["f raises in row 5"]())
        assert outcome.samples == 128 + 128 * 5
        assert outcome.reason == (
            f"evaluation failed inside the sampled box: sqrt({0.3 - _T_ROW_5!r})"
            " outside real domain (at byte 10)"
        )


def _forms_agree(form, *args, ulps=0):
    """form's array form against its scalar form at every point: equal
    bits, or within ulps; where the scalar form raises at some point, the
    array form raises.  Returns how many points raised."""
    args = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in args))
    want = np.full(args[0].shape, math.nan)
    for idx in np.ndindex(want.shape):
        with contextlib.suppress(*EVAL_ERRORS):
            want[idx] = form.scalar(*(float(a[idx]) for a in args))
    raised = int(np.isnan(want).sum())
    if raised:
        with pytest.raises(DomainError):
            form.array(*args)
        return raised
    got = np.broadcast_to(form.array(*args), want.shape)
    if ulps:
        _within_ulps(got, want, ulps)
    else:
        _same_bits(got, want)
    return 0


class TestCorpusArrayForms:
    @pytest.mark.parametrize(
        "name", ["linear_majorant", "power_family", "sine_bvp", "sqrt_pole"]
    )
    def test_array_forms_are_the_scalar_forms(self, name):
        entry = corpus_build(name)
        spec = entry.majorant
        # check_B's grids
        z_grid = np.linspace(0.0, spec.z_max or 4.0, 128)
        w_grid = np.linspace(0.0, spec.omega_max or 4.0, 128)
        t_grid = np.linspace(0.0, 2.0, 32)
        # the norms the audit samples at the default bound and the
        # integrals f is evaluated at
        mesh = graded_mesh(entry.default_t_end or 0.5, 40)
        u, du, _ = _stacks(mesh, 1, 8, 1.0, zero=False)
        norms = np.concatenate([_norms(u), _norms(u) + _norms(du)])
        z = np.concatenate([z_grid, norms.ravel()])
        w = WeightTable(mesh).prefix(np.minimum(norms, 0.9))
        # numpy's pow is not math.pow to the last ulp: power_family's z^0.5
        # and the slopes with ^ were at most 1 ulp apart, here and on 2e5
        # uniform points of [0, 1.5)
        ulps = 0 if name in ("linear_majorant", "sine_bvp") else 2
        _forms_agree(spec.gamma_form, z, ulps=ulps if name == "power_family" else 0)
        _forms_agree(spec.gamma_z_form, z[z > 0.0], ulps=ulps)
        for form in (spec.f_form, spec.f_w_form):
            _forms_agree(form, t_grid[:, None], w_grid)
            _forms_agree(form, mesh.nodes, w)

    def test_past_the_pole_the_array_form_raises(self):
        gamma = corpus_build("sqrt_pole").majorant.gamma_form
        assert _forms_agree(gamma, np.array([0.5, 1.0, 1.5])) == 2
        # map falls back on the scalar form, which names the first failing
        # point
        z = np.linspace(0.5, 1.5, 200)
        with pytest.raises(DomainError) as want:
            [gamma.scalar(x) for x in z.tolist()]
        with pytest.raises(DomainError) as got:
            gamma.map(z)
        assert str(got.value) == str(want.value)


def _raising(*args):
    raise DomainError("array form failed")


def _overflowing(*args):
    return np.full(np.broadcast(*args).shape, math.inf)


def _nan(*args):
    return np.full(np.broadcast(*args).shape, math.nan)


def _wrong_shape(*args):
    return np.zeros(3)


def _pole_majorant(**arrays):
    """A majorant whose array forms named in arrays (f, gamma) are
    replaced; None leaves that form without one."""
    spec = MajorantSpec(f="w + t", gamma="1/sqrt(1 - z) + z^2", name="pole")
    for name, array in arrays.items():
        getattr(spec, f"{name}_form").array = array
    return spec


class TestArrayFormFallback:
    @pytest.mark.parametrize("bad", [_raising, _overflowing, _nan, _wrong_shape])
    @pytest.mark.parametrize("bound", [0.3, 3.0])
    def test_a_failing_array_form_gives_the_scalar_outcome(self, bad, bound):
        # at bound 3 gamma's scalar form raises past z = 1, and that
        # error with its message is what the audit reports either way;
        # 6 samples of 41 nodes reach quadrature.ARRAY_MIN_POINTS
        mesh = graded_mesh(0.4, 40, 1.0)
        problem = _linear_problem(1)
        scalar = _pole_majorant(f=None, gamma=None)
        report = run_suite(problem, scalar, mesh=mesh, n_samples=6, bound=bound)
        for spec in (
            _pole_majorant(f=bad, gamma=bad),
            _pole_majorant(gamma=bad),
            _pole_majorant(f=bad),
        ):
            got = run_suite(problem, spec, mesh=mesh, n_samples=6, bound=bound)
            assert repr(got) == repr(report)

    @pytest.mark.parametrize("bad", [_raising, _overflowing, _nan, _wrong_shape])
    def test_the_majorant_chain_keeps_the_scalar_iterates(self, bad):
        mesh = graded_mesh(0.3, 200, 1.0)
        want = majorant_picard(_pole_majorant(f=None, gamma=None), mesh)
        got = majorant_picard(_pole_majorant(f=bad, gamma=bad), mesh)
        assert len(got.iterates) == len(want.iterates)
        for a, b in zip(got.iterates, want.iterates):
            _same_bits(a, b)


class _LoopCheck(_SampledCheck):
    """feed as the sample-by-sample loop it replaced: the reference."""

    def feed(self, samples, *stacks):
        lhs, rhs = self.margins(*stacks)
        with np.errstate(invalid="ignore"):
            margin = rhs - lhs
        finite = np.isfinite(lhs) & np.isfinite(margin)
        for k, i in enumerate(samples):
            bad = np.flatnonzero(~finite[k])
            j = int(bad[0]) if bad.size else int(np.argmin(margin[k]))
            t, left, right = self.nodes[j], lhs[k, j], rhs[k, j]
            witness = Witness(
                self.condition, i, j, float(t), float(left), float(right)
            )
            if bad.size:
                side, cause = (
                    ("right", "majorant") if np.isfinite(left) else ("left", "kernel")
                )
                reason = f"{side} side is not finite ({cause} overflow?)"
                self.failure = _failed(self.condition, i + 1, reason, witness)
                return
            if margin[k, j] < self.worst:
                self.worst = float(margin[k, j])
                self.witness = witness


def _random_block(rng, rows, nodes, spoil):
    """lhs and rhs on a coarse value grid, so minima tie within and across
    rows; with spoil, a few cells turn nan or infinite on either side."""
    lhs = rng.integers(-3, 4, (rows, nodes)) * 0.5
    rhs = rng.integers(-3, 4, (rows, nodes)) * 0.5
    if spoil:
        for _ in range(rng.integers(1, 4)):
            side = lhs if rng.random() < 0.5 else rhs
            side[rng.integers(rows), rng.integers(nodes)] = rng.choice(
                [math.nan, math.inf, -math.inf]
            )
    return lhs, rhs


@pytest.mark.parametrize("seed", range(40))
def test_feed_equals_the_sample_loop(seed):
    rng = np.random.default_rng(seed)
    mesh = graded_mesh(1.0, 6, 1.0)

    def sides(lhs, rhs):
        return lhs, rhs

    checks = [_SampledCheck("A", mesh, sides), _LoopCheck("A", mesh, sides)]
    start = 0
    for call in range(int(rng.integers(1, 6))):
        rows = int(rng.integers(1, 9))
        lhs, rhs = _random_block(rng, rows, mesh.nodes.size, rng.random() < 0.3)
        samples = range(start, start + rows)
        for check in checks:
            if check.failure is None:
                check.feed(samples, lhs, rhs)
        start += rows
    got, want = checks
    # repr, so nan fields of a failure witness compare equal
    assert repr(got.worst) == repr(want.worst)
    assert repr(got.witness) == repr(want.witness)
    assert repr(got.failure) == repr(want.failure)
