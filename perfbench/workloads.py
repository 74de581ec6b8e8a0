"""Workloads: configs drawn from a seed, the operations that run them,
and the output checks that decide whether an operation succeeded.

An operation is one or more ``volmaj.cli.main([...])`` calls whose
outputs land in a scratch directory under ``--no-timestamp``.  The seed
draws only the inline coefficients, inside ranges where the closed
forms used by the checks stay valid; corpus workloads ignore it.

Checks use tolerances, not byte digests, so an explained move of a
``%.9g`` digit does not fail an operation.  A certified bound that
falls below its closed form always fails.
"""

from __future__ import annotations

import csv
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable

# A certified value printed with %.9g may sit this far below the exact
# value through rounding alone.
PRINT_REL = 1e-8
HORIZON_REL = 1e-6
RESIDUAL_MAX = 1e-9
SINE_MESH_NODES = (80, 160, 320)
BOUNDS_NODES = 400
# the chain's trapezoid rule overshoots a convex bound by about 0.1%
BOUND_ABOVE_REL = 1e-2


class CheckFailed(Exception):
    """An operation's output disagrees with what the workload expects."""


@dataclass
class Call:
    """One ``volmaj.cli.main`` call and how to check what it wrote."""

    argv: list[str]
    out: str
    exit_code: int
    check: Callable[[str], None]


@dataclass
class Workload:
    name: str
    why: str
    coefficients: dict[str, float] = field(default_factory=dict)
    calls: list[Call] = field(default_factory=list)


def read_summary(path: str) -> dict[str, str]:
    pairs = {}
    with open(path) as fh:
        for line in fh:
            key, sep, value = line.rstrip("\n").partition(" = ")
            if sep:
                pairs[key] = value
    return pairs


def read_table(path: str) -> list[dict[str, float]]:
    with open(path, newline="") as fh:
        return [
            {k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)
        ]


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def expect_close(got: float, want: float, rel: float, what: str) -> None:
    expect(
        abs(got - want) <= rel * max(1.0, abs(want)),
        f"{what} = {got!r}, closed form {want!r} (rel tol {rel:g})",
    )


def _write(path: str, text: str) -> str:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _draw(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


# --- solve checks ----------------------------------------------------------


def _check_solve(out: str, nodes: int) -> None:
    s = read_summary(os.path.join(out, "solve_summary.txt"))
    expect(s.get("status") == "converged", f"status {s.get('status')!r}")
    expect(s.get("domination") == "holds", f"domination {s.get('domination')!r}")
    expect(int(s["nodes"]) == nodes, f"nodes {s['nodes']} != {nodes}")
    residual = float(s["residual_bound"])
    expect(residual <= RESIDUAL_MAX, f"residual_bound {residual!r}")


# --- scalar bound checks ---------------------------------------------------


def _check_majorant(
    out: str,
    kind: str,
    horizon: float,
    bound: Callable[[float], float],
) -> None:
    s = read_summary(os.path.join(out, "majorant_summary.txt"))
    expect(s.get("classification") == kind, f"classification {s.get('classification')!r}")
    got = float(s["horizon"])
    if math.isinf(horizon):
        expect(math.isinf(got), f"horizon {got!r}, expected inf")
    else:
        expect_close(got, horizon, HORIZON_REL, "horizon")
    rows = read_table(os.path.join(out, "majorant_table.csv"))
    expect(len(rows) == BOUNDS_NODES + 1, f"{len(rows)} table rows")
    for row in rows:
        exact = bound(row["t"])
        certified = row["z_plus"]
        expect(
            certified >= exact * (1.0 - PRINT_REL),
            f"certified bound {certified!r} below closed form {exact!r}"
            f" at t={row['t']!r}",
        )
        expect(
            certified <= exact * (1.0 + BOUND_ABOVE_REL) + 1e-12,
            f"certified bound {certified!r} far above closed form {exact!r}"
            f" at t={row['t']!r}",
        )


def _check_lyapunov(out: str, k: float) -> None:
    s = read_summary(os.path.join(out, "lyapunov_summary.txt"))
    radius, horizon = math.sqrt(k), 0.5 / math.sqrt(k)
    expect_close(float(s["radius"]), radius, HORIZON_REL, "radius")
    expect_close(float(s["horizon"]), horizon, HORIZON_REL, "tangency horizon")
    for row in read_table(os.path.join(out, "lyapunov_branch.csv")):
        t = row["t"]
        if 0.0 < t < 0.9 * horizon:
            exact = (1.0 - math.sqrt(1.0 - 4.0 * t * t * k)) / (2.0 * t)
            expect_close(row["r"], exact, 1e-8, f"branch r({t!r})")


# --- corpus checks ---------------------------------------------------------

CORPUS_FILES = {
    "linear_majorant": ("majorant", "verify"),
    "power_family": ("majorant", "solve", "verify"),
    "sine_bvp": ("majorant", "solve", "lyapunov", "verify"),
    "sqrt_pole": ("majorant", "verify"),
}
_TABLES = {
    "majorant": "majorant_table.csv",
    "solve": "solve_table.csv",
    "lyapunov": "lyapunov_branch.csv",
    "verify": "verify_witnesses.csv",
}


def _check_corpus(out: str) -> None:
    written = sorted(
        os.path.relpath(os.path.join(d, f), out)
        for d, _, files in os.walk(out)
        for f in files
    )
    wanted = sorted(
        os.path.join(entry, name)
        for entry, parts in CORPUS_FILES.items()
        for part in parts
        for name in (f"{part}_summary.txt", _TABLES[part])
    )
    expect(written == wanted, f"corpus files {written}")
    for entry in CORPUS_FILES:
        failed = read_summary(os.path.join(out, entry, "verify_summary.txt"))["failed"]
        want = "D,E" if entry == "power_family" else "none"
        expect(failed == want, f"{entry} failed conditions {failed!r}")
    bvp = os.path.join(out, "sine_bvp")
    s = read_summary(os.path.join(bvp, "solve_summary.txt"))
    expect(s.get("status") == "converged", f"sine_bvp status {s.get('status')!r}")
    expect(s.get("domination") == "holds", "sine_bvp domination")
    lyap = read_summary(os.path.join(bvp, "lyapunov_summary.txt"))
    expect_close(float(lyap["radius"]), 1.0, HORIZON_REL, "sine_bvp radius")
    expect_close(float(lyap["horizon"]), 0.5, HORIZON_REL, "sine_bvp horizon")
    pole = read_summary(os.path.join(out, "sqrt_pole", "majorant_summary.txt"))
    expect_close(float(pole["horizon"]), 2.0 / 3.0, HORIZON_REL, "sqrt_pole horizon")
    lin = read_summary(os.path.join(out, "linear_majorant", "majorant_summary.txt"))
    expect(lin.get("classification") == "Global", "linear_majorant classification")


# --- workload builders -----------------------------------------------------


def corpus_all(seed: int, work: str) -> Workload:
    out = os.path.join(work, "out")
    argv = ["corpus", "run", "--out", out, "--no-timestamp"]
    return Workload(
        "corpus_all",
        "the shipping command; the only workload where the condition audit"
        " does most of the work",
        calls=[Call(argv, out, 5, _check_corpus)],
    )


def sine_mesh(seed: int, work: str) -> Workload:
    calls = []
    for n in SINE_MESH_NODES:
        cfg = _write(
            os.path.join(work, "configs", f"sine_n{n}.ini"),
            f"[problem]\nsource = corpus\nentry = sine_bvp\n[mesh]\nn = {n}\n",
        )
        out = os.path.join(work, "out", f"n{n}")
        calls.append(
            Call(
                ["solve", "--config", cfg, "--out", out, "--no-timestamp"],
                out,
                0,
                lambda o, n=n: _check_solve(o, n),
            )
        )
    return Workload(
        "sine_mesh",
        "fold-1 quadrature and Picard sweeps on a numpy kernel at growing n;"
        " no expression evaluation",
        calls=calls,
    )


def inline_fold2(seed: int, work: str) -> Workload:
    rng = random.Random(seed)
    # a1 stays inside [0.6, 0.8], where the solve takes 10 iterations for
    # every a2 in [0.5, 1]; wider, the count and the cost follow the seed
    a1, a2 = _draw(rng, 0.6, 0.8), _draw(rng, 0.5, 1.0)
    cfg = _write(
        os.path.join(work, "configs", "fold2.ini"),
        "[problem]\nsource = inline\nkernel = u\nkernel2 = u1*u2\n"
        f"phi = u - {a1!r}*om1 - {a2!r}*om2 - t\n"
        "[majorant]\nsource = inline\nf = w + t\ngamma = z + z^2\n"
        "[mesh]\nn = 40\nt_end = 0.5\n",
    )
    out = os.path.join(work, "out")
    return Workload(
        "inline_fold2",
        "the O(n^3) fold-2 path with every kernel call through the"
        " tree-walking expression evaluator",
        {"a1": a1, "a2": a2},
        [
            Call(
                ["solve", "--config", cfg, "--out", out, "--no-timestamp"],
                out,
                0,
                lambda o: _check_solve(o, 40),
            )
        ],
    )


def bounds_scan(seed: int, work: str) -> Workload:
    rng = random.Random(seed)
    # narrow ranges keep the adaptive work, and so the cost, nearly
    # independent of the seed
    a, b, c, k = (_draw(rng, 0.9, 1.1) for _ in range(4))
    ra = math.sqrt(a)
    cases = {
        "value": (
            "majorant",
            f"[majorant]\nsource = inline\nf = w + {b!r}\ngamma = {a!r}*z^2\n"
            f"[mesh]\nn = {BOUNDS_NODES}\n",
            lambda o: _check_majorant(
                o, "ValueBlowUp", 1.0 / (a * b), lambda t: b / (1.0 - a * b * t)
            ),
        ),
        "time": (
            "majorant",
            f"[majorant]\nsource = inline\nf = w + t\ngamma = {a!r}*z^2\n"
            f"[mesh]\nn = {BOUNDS_NODES}\n",
            lambda o: _check_majorant(
                o, "ValueBlowUp", math.pi / (2.0 * ra), lambda t: math.tan(ra * t) / ra
            ),
        ),
        "global": (
            "majorant",
            f"[majorant]\nsource = inline\nf = w + {b!r}\ngamma = {a!r}*z\n"
            f"[mesh]\nn = {BOUNDS_NODES}\nt_end = 1.0\n",
            lambda o: _check_majorant(
                o, "Global", math.inf, lambda t: b * math.exp(a * t)
            ),
        ),
        "pole": (
            "majorant",
            f"[majorant]\nsource = inline\nf = w\ngamma = 1/sqrt({c!r} - z)\n"
            f"pole = {c!r}\n[mesh]\nn = {BOUNDS_NODES}\n",
            lambda o: _check_majorant(
                o,
                "DerivativeBlowUp",
                2.0 / 3.0 * c**1.5,
                lambda t: c - max(c**1.5 - 1.5 * t, 0.0) ** (2.0 / 3.0),
            ),
        ),
        "lyapunov": (
            "lyapunov",
            f"[lyapunov]\nsource = inline\nf = t*(r^2 + {k!r})\nc = 1\n"
            f"r_max = 10\nt_max = 5\n[mesh]\nn = {BOUNDS_NODES}\n",
            lambda o: _check_lyapunov(o, k),
        ),
    }
    calls = []
    for name, (command, text, check) in cases.items():
        cfg = _write(os.path.join(work, "configs", f"{name}.ini"), text)
        out = os.path.join(work, "out", name)
        calls.append(
            Call([command, "--config", cfg, "--out", out, "--no-timestamp"], out, 0, check)
        )
    return Workload(
        "bounds_scan",
        "scalar bounds with closed forms; majorant classification, time map"
        " and tangency do the work",
        {"a": a, "b": b, "c": c, "k": k},
        calls,
    )


BUILDERS: dict[str, Callable[[int, str], Workload]] = {
    "corpus_all": corpus_all,
    "sine_mesh": sine_mesh,
    "inline_fold2": inline_fold2,
    "bounds_scan": bounds_scan,
}
