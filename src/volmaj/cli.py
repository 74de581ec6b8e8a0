"""Command line front end.

Subcommands: solve, majorant, lyapunov, verify (each driven by an INI
config) and corpus (list / run the built-in examples).  All numbers in
text and CSV outputs use %.9g; files are written atomically; with
--no-timestamp two runs of the same command produce byte-identical
outputs.

Float tables are written one "%.9g,...,%.9g" format per row: %.9g writes
only digits, a sign, ".", "e", "inf" or "nan", which never need csv
quoting.  verify_witnesses.csv, whose text cells can, keeps csv.writer.

Exit codes: 0 ok, 2 bad config or spec, 3 numeric failure,
4 not converged, 5 sampled condition failed.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import functools
import io
import math
import os
import sys
import tempfile
from datetime import datetime, timezone

import numpy as np

from . import expr
from .algebraic_majorant import LyapunovSpec, solve_lyapunov
from .conditions import DEFAULT_SEED, ConditionStatus, run_suite
from .corpus import (
    CorpusEntry,
    bvp_divided_differences,
    corpus_build,
    corpus_names,
    corpus_param_types,
    corpus_params,
)
from .errors import (
    ExprError,
    NumericError,
    SpecValidationError,
    VolmajError,
)
from .integral_majorant import (
    MajorantSolution,
    MajorantSpec,
    solve_majorant,
)
from .meshes import Mesh
from .picard import SolveStatus, solve_main, verify_domination
from .problem import DenseOperator, KernelStage, VolterraProblem
from .quadrature import graded_mesh, pointwise

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_NOT_CONVERGED = 4
EXIT_CONDITION = 5

_EPILOG = (
    "expression language: numbers, + - * / ^, parentheses, and"
    " sin cos tan exp log sqrt abs.  '^' is right-associative and binds"
    " tighter than unary minus, so -t^2 means -(t^2) and 2^-3 is legal."
)


def format_number(x: float) -> str:
    return f"{float(x):.9g}"


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _write_summary(
    path: str, command: str, pairs: list[tuple[str, str]], timestamp: bool
) -> None:
    lines = [f"command = {command}"]
    if timestamp:
        stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
        lines.append(f"timestamp = {stamp}")
    lines.extend(f"{k} = {v}" for k, v in pairs)
    _atomic_write(path, "\n".join(lines) + "\n")


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            [format_number(c) if isinstance(c, float) else c for c in row]
        )
    _atomic_write(path, buf.getvalue())


def _write_table(path: str, header: list[str], columns: list) -> None:
    """Float columns, one %.9g format per row; ragged columns raise."""
    table = np.column_stack(columns)
    line = ",".join(["%.9g"] * table.shape[1]) + "\n"
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(header)
    buf.writelines(line % tuple(row) for row in table.tolist())
    _atomic_write(path, buf.getvalue())


def _load_config(path: str) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        read = cp.read(path)
    except configparser.Error as exc:
        raise SpecValidationError(f"cannot parse config {path!r}: {exc}") from exc
    if not read:
        raise SpecValidationError(f"config file {path!r} not found or unreadable")
    return cp


# The config schema: section -> key -> (type, default, accepted range).
# A range is (description, predicate) and None accepts any value of the
# type; a _REQUIRED default marks an expression source = inline must give.
# An expression key's type is the tuple of variables it may use: its
# text must parse over them, and an error names the key.
# A [problem], [majorant] or [lyapunov] section lists its inline keys;
# with source = corpus it holds entry and the entry's parameters.
_REQUIRED = object()
_POSITIVE = ("finite and > 0", lambda v: math.isfinite(v) and v > 0)
# a nonzero a whose 1 / |a| overflows would leave the inverse-norm bound
# c = 1 / |a| infinite
_INVERTIBLE = (
    "finite and nonzero with 1/|a| finite",
    lambda v: math.isfinite(v) and v != 0 and math.isfinite(1.0 / abs(v)),
)
_FRACTION = ("in (0, 1)", lambda v: 0 < v < 1)
_DOUBLES_FINITE = ("> 0 with twice it finite", lambda v: v > 0 and math.isfinite(2 * v))
_SOURCE = (
    str.lower,
    "inline",
    ("corpus or inline", lambda v: v in ("corpus", "inline")),
)


def _at_least(minimum: int):
    return (f"at least {minimum}", lambda v: v >= minimum)


_SCHEMA = {
    "problem": {
        "source": _SOURCE,
        "a": (float, 1.0, _INVERTIBLE),
        "kernel": (("t", "s", "u"), _REQUIRED, None),
        "kernel2": (("t", "s1", "s2", "u1", "u2"), None, None),
        "phi": (("t", "om1", "om2", "u"), _REQUIRED, None),  # om2 with kernel2
    },
    "majorant": {
        "source": _SOURCE,
        "f": (("t", "w"), _REQUIRED, None),
        "gamma": (("z",), _REQUIRED, None),
        "pole": (float, None, _POSITIVE),
        "zprime": (("t",), None, None),
        "z_max": (float, None, _POSITIVE),
        "omega_max": (float, None, _POSITIVE),
    },
    "lyapunov": {
        "source": _SOURCE,
        "f": (("r", "t"), _REQUIRED, None),
        "c": (float, 1.0, _POSITIVE),
        "r_max": (float, 100.0, _POSITIVE),
        "t_max": (float, 100.0, _POSITIVE),
    },
    "mesh": {
        "n": (int, None, _at_least(1)),  # unset: 40 for a corpus entry, else 200
        "t_end": (float, None, _POSITIVE),
        "theta": (float, 0.95, _FRACTION),
        "ratio": (float, 1.0, _POSITIVE),
    },
    "tolerances": {
        "tol": (float, 1e-10, _POSITIVE),
        "n_max": (int, 200, _at_least(1)),
    },
    "run": {
        "seed": (int, DEFAULT_SEED, _at_least(0)),
        # no sample drawn would leave every sampled condition "pass"
        "samples": (int, 100, _at_least(1)),
        "sample_bound": (float, 1.0, _DOUBLES_FINITE),
    },
}
_TYPE_NAMES = {float: "a number", int: "an integer"}

# [mesh] n for a corpus entry, when the config leaves it unset
_CORPUS_NODES = 40


def _read_value(section: str, key: str, given: dict, schema: tuple):
    kind, default, accepted = schema
    if key not in given:
        if default is _REQUIRED:
            raise SpecValidationError(f"[{section}] source=inline needs {key}=<expr>")
        return default
    if isinstance(kind, tuple):
        try:
            expr.parse(given[key], kind)
        except ExprError as exc:
            raise SpecValidationError(f"[{section}] {key}: {exc}") from None
        return given[key]
    try:
        value = kind(given[key])
    except ValueError:
        raise SpecValidationError(
            f"[{section}] {key} must be {_TYPE_NAMES[kind]}, got {given[key]!r}"
        ) from None
    if accepted is not None and not accepted[1](value):
        raise SpecValidationError(
            f"[{section}] {key} must be {accepted[0]}, got {value!r}"
        )
    return value


def _part_keys(section: str, given: dict) -> dict:
    """The keys a part section may hold, chosen by its source."""
    keys = _SCHEMA[section]
    if _read_value(section, "source", given, keys["source"]) == "inline":
        return keys
    name = given.get("entry")
    if not name:
        raise SpecValidationError(f"[{section}] source=corpus needs entry=<name>")
    if name not in corpus_names():
        raise SpecValidationError(
            f"[{section}] entry must be one of {', '.join(corpus_names())},"
            f" got {name!r}"
        )
    params = corpus_params(name)
    return {
        "source": keys["source"],
        "entry": (str, None, None),
        **{key: (kind, None, accepted) for key, (kind, accepted) in params.items()},
    }


def _read_config(cp: configparser.ConfigParser) -> dict[str, dict | None]:
    """Every value of every section, checked against _SCHEMA before any
    part is built.  A part section that is absent or empty reads None."""
    stray = [cp.default_section] if cp.defaults() else []
    for section in stray + cp.sections():
        if section not in _SCHEMA:
            raise SpecValidationError(
                f"unknown config section [{section}]; known sections:"
                f" {', '.join(_SCHEMA)}"
            )
    config: dict[str, dict | None] = {}
    for section, keys in _SCHEMA.items():
        # raw: a '%' is never interpolation, so it reaches the checks below
        given = dict(cp.items(section, raw=True)) if cp.has_section(section) else {}
        if "source" in keys:
            if not given:
                config[section] = None
                continue
            keys = _part_keys(section, given)
        for key in sorted(given):
            if key not in keys:
                raise SpecValidationError(
                    f"[{section}] unknown key {key!r}; known keys:"
                    f" {', '.join(sorted(keys))}"
                )
        config[section] = {
            key: _read_value(section, key, given, schema)
            for key, schema in keys.items()
        }
    return config


def _stage_terms(tree: expr.Expr, coordinates: list[tuple[str, str]]):
    """The separated terms of a kernel tree as KernelStage terms, or None
    when it does not separate; equal factor trees share one callable."""
    terms = expr.separated_terms(tree, coordinates)
    if terms is None:
        return None

    @functools.cache
    def compiled(product: expr.Expr, names: tuple[str, ...]):
        fn = expr.as_function(product, names)
        if names == ("t",):
            return lambda t: pointwise(fn, t)[..., None]
        return lambda s, u: pointwise(fn, s, u[..., 0])[..., None]

    return tuple(
        (a and compiled(a, ("t",)), tuple(compiled(b, ("s", "u")) for b in bs))
        for a, bs in terms
    )


def _inline_problem(v: dict) -> VolterraProblem:
    a = v["a"]
    stages, phi_vars = [], ["t"]
    for key, coordinates in (
        ("kernel", [("s", "u")]),
        ("kernel2", [("s1", "u1"), ("s2", "u2")]),
    ):
        if v[key] is None:
            continue
        fold = len(coordinates)
        names = ("t", *(s for s, _ in coordinates), *(u for _, u in coordinates))
        tree = expr.parse(v[key], names)
        kernel = expr.as_function(tree, names)
        stages.append(
            KernelStage(
                fold,
                lambda t, s, u, k=kernel, d=range(fold): pointwise(
                    k, t, *(s[:, c] for c in d), *(u[..., c, 0] for c in d)
                )[..., None],
                _stage_terms(tree, coordinates),
            )
        )
        phi_vars.append(f"om{fold}")
    phi_vars.append("u")
    phi_tree = expr.parse(v["phi"], ("t", "om1", "om2", "u"))
    if v["kernel2"] is None and "om2" in expr.variables(phi_tree):
        raise SpecValidationError("[problem] phi: om2 needs kernel2")
    phi = expr.as_function(phi_tree, tuple(phi_vars))

    def outer(t, integrals, u):
        return pointwise(phi, t, *(i[..., 0] for i in integrals), u[..., 0])[..., None]

    try:
        return VolterraProblem(
            dim=1,
            stages=tuple(stages),
            outer=outer,
            operator=DenseOperator([[a]]),
            inv_norm_bound=1.0 / abs(a),
            name="inline",
        )
    except SpecValidationError as exc:
        # the schema keeps a and 1 / |a| finite, so what fails here is phi
        raise SpecValidationError(f"[problem] phi: {exc}") from None


def _inline_majorant(v: dict) -> MajorantSpec:
    given = {key: v[key] for key in ("f", "gamma", "pole", "z_max", "omega_max")}
    return MajorantSpec(**given, upper_solution=v["zprime"], name="inline majorant")


def _inline_lyapunov(v: dict) -> LyapunovSpec:
    try:
        return LyapunovSpec(
            f=v["f"],
            inv_norm_bound=v["c"],
            r_max=v["r_max"],
            t_max=v["t_max"],
            name="inline algebraic majorant",
        )
    except SpecValidationError as exc:
        # c, r_max and t_max are checked by the schema, so what fails here
        # is f or its slope at the origin
        raise SpecValidationError(f"[lyapunov] f: {exc}") from None


_INLINE_BUILDERS = {
    "problem": _inline_problem,
    "majorant": _inline_majorant,
    "lyapunov": _inline_lyapunov,
}


class _Setup:
    """Everything a subcommand can need, resolved from one config; entry,
    if given, is a corpus entry already built that supplies every part
    the config leaves out."""

    problem: VolterraProblem | None
    majorant: MajorantSpec | None
    lyapunov: LyapunovSpec | None

    def __init__(self, cp: configparser.ConfigParser, entry: CorpusEntry | None = None):
        config = _read_config(cp)
        self.entry = entry
        for part, build in _INLINE_BUILDERS.items():
            values = config[part]
            if values is None:
                # a part left out comes from the corpus entry named before it
                entry = self.entry
                spec = None if entry is None else getattr(entry, part)
            elif values["source"] == "inline":
                entry = None
                spec = build(values)
            else:
                params = {
                    k: v for k, v in values.items()
                    if k not in ("source", "entry") and v is not None
                }
                entry = corpus_build(values["entry"], params)
                spec = getattr(entry, part)
                if spec is None:
                    raise SpecValidationError(
                        f"corpus entry {entry.name!r} has no {part} part"
                    )
            setattr(self, part, spec)
            if part != "lyapunov":
                # the problem's entry, else the majorant's, sets mesh defaults
                self.entry = self.entry or entry
        # every [mesh], [tolerances] and [run] key: n, t_end, theta, ratio,
        # tol, n_max, seed, samples and sample_bound
        for section in ("mesh", "tolerances", "run"):
            vars(self).update(config[section])
        self.theta_explicit = cp.has_option("mesh", "theta")

    def nodes(self) -> int:
        if self.n is not None:
            return self.n
        return 200 if self.entry is None else _CORPUS_NODES

    def resolve_t_end(self, horizon: float | None) -> float:
        """Explicit t_end, else an explicit horizon fraction, else the
        entry default, else the default fraction, else t = 1 when there
        is no majorant."""
        if self.t_end is not None:
            return self.t_end
        usable = horizon is not None and math.isfinite(horizon)
        if usable and self.theta_explicit:
            return self.theta * horizon
        if self.entry is not None and self.entry.default_t_end is not None:
            return self.entry.default_t_end
        if usable:
            return self.theta * horizon
        if self.majorant is None:
            return 1.0
        raise SpecValidationError(
            "no end time: set [mesh] t_end (required when the bound exists"
            " globally)"
        )

    @functools.cached_property
    def mesh(self) -> Mesh:
        """The run mesh every pipeline shares; a majorant's horizon
        bounds its end."""
        horizon = None if self.majorant is None else self.majorant.blowup.horizon
        return graded_mesh(self.resolve_t_end(horizon), self.nodes(), self.ratio)

    @functools.cached_property
    def majorant_solution(self) -> MajorantSolution:
        """The certified majorant on the run mesh, solved on first use."""
        return solve_majorant(self.majorant, self.mesh)


def _majorant_pipeline(setup: _Setup, out: str, timestamp: bool) -> int:
    """Write majorant_summary.txt / majorant_table.csv."""
    solution, mesh = setup.majorant_solution, setup.mesh
    chain, report = solution.chain, solution.classification
    pairs = [
        ("name", setup.majorant.name),
        ("classification", report.kind.value),
        ("horizon", format_number(report.horizon)),
        ("pole", "none" if report.pole is None else format_number(report.pole)),
        ("detail", report.detail),
        ("t_end", format_number(mesh.end)),
        ("nodes", str(mesh.n)),
        ("ratio", format_number(setup.ratio)),
        ("chain_iterations", str(chain.count - 1)),
        ("chain_converged", "yes" if chain.converged else "no"),
        ("final_delta", format_number(chain.final_delta)),
        ("routes_gap", format_number(np.max(np.abs(solution.bound - chain.final)))),
    ]
    _write_summary(
        os.path.join(out, "majorant_summary.txt"), "majorant", pairs, timestamp
    )
    header = ["t", "omega_plus", "z_plus", "z_last"]
    table = [mesh.nodes, solution.omega, solution.certificate_bound, chain.final]
    _write_table(os.path.join(out, "majorant_table.csv"), header, table)
    return EXIT_OK


def _solve_pipeline(setup: _Setup, out: str, timestamp: bool) -> int:
    problem, mesh = setup.problem, setup.mesh
    majorant_solution = None if setup.majorant is None else setup.majorant_solution
    result = solve_main(
        problem,
        mesh,
        tol=setup.tol,
        n_max=setup.n_max,
        majorant=majorant_solution,
    )
    pairs = [
        ("name", problem.name),
        ("status", result.status.value),
        ("stop_reason", result.stop_reason),
        ("iterations", str(result.iterations)),
        ("final_step", format_number(result.final_step)),
        (
            "final_tail",
            "none" if result.final_tail is None else format_number(result.final_tail),
        ),
        ("residual_bound", format_number(result.residual_bound)),
        ("max_norm", format_number(result.trajectory.max_norm)),
        ("t_end", format_number(mesh.end)),
        ("nodes", str(mesh.n)),
    ]
    if majorant_solution is not None:
        domination = verify_domination(result, majorant_solution)
        pairs.append(
            ("domination", "holds" if domination.holds else "violated")
        )
        pairs.append(
            ("domination_margin", format_number(domination.worst_margin))
        )
    _write_summary(os.path.join(out, "solve_summary.txt"), "solve", pairs, timestamp)
    header = ["t", "norm", "residual"]
    columns = [mesh.nodes, result.trajectory.norms, result.residuals]
    if result.certified_bounds is not None:
        header.append("certified_bound")
        columns.append(result.certified_bounds)
    if setup.entry is not None and setup.entry.name == "sine_bvp":
        m = setup.entry.params["m"]
        header += ["d0", "d1", "d2"]
        columns += bvp_divided_differences(result.trajectory.values, 1.0 / (m + 1))
    _write_table(os.path.join(out, "solve_table.csv"), header, columns)
    return (
        EXIT_OK if result.status is SolveStatus.CONVERGED else EXIT_NOT_CONVERGED
    )


def _lyapunov_pipeline(setup: _Setup, out: str, timestamp: bool) -> int:
    convexity = setup.lyapunov.convexity
    if not convexity.passed:
        kind, r, t, margin = convexity.worst
        raise SpecValidationError(
            "growth map fails the convexity/monotonicity screen: "
            f"{convexity.count} violations over {convexity.samples}"
            f" samples; worst is {kind} at r={format_number(r)},"
            f" t={format_number(t)} (margin {format_number(margin)})"
        )
    solution = solve_lyapunov(setup.lyapunov, n=setup.nodes(), t_end=setup.t_end)
    tang = solution.tangency
    pairs = [
        ("name", setup.lyapunov.name),
        ("convexity", "degenerate" if convexity.degenerate else "pass"),
        ("radius", format_number(tang.radius)),
        ("horizon", format_number(tang.horizon)),
        ("fixed_residual", format_number(tang.fixed_residual)),
        ("slope_residual", format_number(tang.slope_residual)),
        ("newton_iterations", str(tang.newton_iterations)),
        ("branch_nodes", str(solution.mesh.n)),
        ("branch_converged", "all" if np.all(solution.converged_mask) else "partial"),
    ]
    _write_summary(
        os.path.join(out, "lyapunov_summary.txt"), "lyapunov", pairs, timestamp
    )
    branch = [solution.mesh.nodes, solution.radii]
    _write_table(os.path.join(out, "lyapunov_branch.csv"), ["t", "r"], branch)
    return EXIT_OK


def _verify_pipeline(setup: _Setup, out: str, timestamp: bool) -> int:
    # conditions A, D and E sample the problem, C the majorant, on the run mesh
    meshed = setup.problem is not None or setup.majorant is not None
    report = run_suite(
        problem=setup.problem,
        majorant=setup.majorant,
        lyapunov=setup.lyapunov,
        mesh=setup.mesh if meshed else None,
        n_samples=setup.samples,
        seed=setup.seed,
        bound=setup.sample_bound,
    )
    pairs: list[tuple[str, str]] = [("seed", str(report.seed))]
    for label in sorted(report.outcomes):
        o = report.outcomes[label]
        if o.status is ConditionStatus.SKIPPED:
            pairs.append((f"condition_{label}", f"skipped ({o.reason})"))
        else:
            margin = format_number(o.worst_margin)
            detail = f"worst margin {margin}; sampled, not proven"
            if o.reason:
                detail = f"{o.reason}; {detail}"
            pairs.append((f"condition_{label}", f"{o.status.value} ({detail})"))
    failed = report.failed
    pairs.append(("failed", ",".join(failed) if failed else "none"))
    _write_summary(
        os.path.join(out, "verify_summary.txt"), "verify", pairs, timestamp
    )
    rows = []
    for label, o in sorted(report.outcomes.items()):
        w = o.witness
        found = [""] * 5
        if w is not None:
            found = [str(w.sample), str(w.node), w.t, w.lhs, w.rhs]
        rows.append(
            [label, o.status.value, str(o.samples), o.worst_margin, *found, o.reason]
        )
    header = "condition status samples worst_margin sample node t lhs rhs reason"
    _write_csv(os.path.join(out, "verify_witnesses.csv"), header.split(), rows)
    return EXIT_CONDITION if failed else EXIT_OK


# subcommand -> (the parts it can run on, its pipeline, its help line);
# corpus run runs every subcommand whose part its entry has, in this order
_COMMANDS = {
    "solve": (("problem",), _solve_pipeline, "iterate the main solution on a mesh"),
    "majorant": (
        ("majorant",),
        _majorant_pipeline,
        "classify and certify a scalar bound",
    ),
    "lyapunov": (
        ("lyapunov",),
        _lyapunov_pipeline,
        "tangency radius/horizon and branch",
    ),
    "verify": (
        tuple(_INLINE_BUILDERS),
        _verify_pipeline,
        "sample the structural conditions",
    ),
}


def _runs_on(setup: _Setup, parts: tuple[str, ...]) -> bool:
    return any(getattr(setup, part) is not None for part in parts)


def cmd_config(args) -> int:
    """Run one subcommand's pipeline on the setup its config describes."""
    parts, pipeline, _ = _COMMANDS[args.command]
    setup = _Setup(_load_config(args.config))
    if not _runs_on(setup, parts):
        sections = ", ".join(f"[{part}]" for part in parts)
        needs = f"at least one of {sections}" if parts[1:] else f"a {sections} section"
        raise SpecValidationError(f"the {args.command} command needs {needs}")
    return pipeline(setup, args.out, not args.no_timestamp)


def _corpus_run_one(name: str, out_root: str, timestamp: bool) -> int:
    out = os.path.join(out_root, name)
    os.makedirs(out, exist_ok=True)
    setup = _Setup(configparser.ConfigParser(), corpus_build(name))
    return max(
        pipeline(setup, out, timestamp)
        for parts, pipeline, _ in _COMMANDS.values()
        if _runs_on(setup, parts)
    )


def cmd_corpus(args) -> int:
    if args.action == "list":
        for name in corpus_names():
            entry = corpus_build(name)
            types = corpus_param_types(name)
            params = ", ".join(
                f"{k}: {types[k].__name__} = {v}"
                for k, v in sorted(entry.params.items())
            )
            parts = []
            if entry.problem is not None:
                parts.append("problem")
            if entry.majorant is not None:
                parts.append("majorant")
            if entry.lyapunov is not None:
                parts.append("algebraic")
            suffix = f" [{params}]" if params else ""
            print(f"{name}{suffix}: {', '.join(parts)}; {entry.notes}")
        return EXIT_OK
    names = args.names or list(corpus_names())
    for name in names:
        if name not in corpus_names():
            raise SpecValidationError(
                f"unknown corpus entry {name!r}; available:"
                f" {', '.join(corpus_names())}"
            )
    timestamp = not args.no_timestamp
    worst = EXIT_OK
    for name in names:
        worst = max(worst, _corpus_run_one(name, args.out, timestamp))
    return worst


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: argparse keeps no state between
    parse_args calls, so main builds it on its first call only."""
    parser = argparse.ArgumentParser(
        prog="volmaj",
        description=(
            "certified successive approximation for nonlinear Volterra-type"
            " equations: scalar majorant bounds, blow-up horizons, and"
            " sampled condition audits"
        ),
        epilog=_EPILOG,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, _, help_text) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", required=True, help="INI config path")
        p.set_defaults(func=cmd_config)
    p = sub.add_parser("corpus", help="list or run the built-in examples")
    p.add_argument("action", choices=["list", "run"])
    p.add_argument("names", nargs="*", help="entries to run (default: all)")
    p.set_defaults(func=cmd_corpus)
    for p in sub.choices.values():
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument(
            "--no-timestamp",
            action="store_true",
            help="omit timestamps so reruns are byte-identical",
        )
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ExprError, SpecValidationError) as exc:
        print(f"volmaj: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"volmaj: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"volmaj: i/o error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except VolmajError as exc:
        print(f"volmaj: error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
