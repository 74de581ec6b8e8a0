"""Self-test of the benchmark's own arithmetic and tracing.

    python3 perfbench/selftest.py [WORKLOAD ...]

Checks the median and fail-ratio helpers, the self times the tracer
computes on a hand-built span tree, that instrumenting leaves volmaj
exactly as it was, and that the traced counts of each named workload
(default: all) repeat exactly across two traced operations.  Exits 1 on
the first failure.
"""

from __future__ import annotations

import os
import shutil
import sys

import run
import tracing
import workloads


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def test_arithmetic() -> None:
    check(run.median([3.0, 1.0, 2.0]) == 2.0, "median of an odd count")
    check(run.median([4.0, 1.0, 3.0, 2.0]) == 2.5, "median of an even count")
    check(run.fail_ratio(1, 4) == 0.25, "fail_ratio 1 of 4")
    check(run.fail_ratio(0, 7) == 0.0, "fail_ratio 0 of 7")
    try:
        run.fail_ratio(0, 0)
    except ValueError:
        check(True, "fail_ratio refuses zero attempts")
    else:
        check(False, "fail_ratio refuses zero attempts")


def test_span_tree() -> None:
    """root [0, 10] > a [1, 4] > b [2, 3];  root > leaf [5, 9].

    Self times: root 10 - 3 - 4 = 3, a 3 - 1 = 2, b 1, leaf 4.  The
    leaf is not a kept name, so it shows only in the totals.
    """
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    tr = tracing.Tracer(clock=lambda: next(ticks), keep={"root", "a", "b"})
    tr.op = 7
    tr.begin("root")
    tr.begin("a")
    tr.begin("b")
    tr.end()
    tr.end()
    tr.begin("leaf")
    tr.end()
    tr.end()
    totals, _ = tr.take()
    selfs = {name: t[2] for name, t in totals.items()}
    check(selfs == {"root": 3.0, "a": 2.0, "b": 1.0, "leaf": 4.0}, f"self times {selfs}")
    spans = [(s["name"], s["parent"], s["start"], s["end"], s["self"], s["op"]) for s in tr.spans]
    check(
        spans
        == [
            ("root", None, 0.0, 10.0, 3.0, 7),
            ("a", 0, 1.0, 4.0, 2.0, 7),
            ("b", 1, 2.0, 3.0, 1.0, 7),
        ],
        "kept span records with parents and op id",
    )


def _public_state(mods) -> dict:
    return {
        (m.__name__, k): v
        for m in mods
        for k, v in list(vars(m).items())
        if callable(v) and not k.startswith("__")
    }


def test_traced_counts(names: list[str]) -> None:
    cli = run.import_cli()
    mods = [m for k, m in sys.modules.items() if k.split(".")[0] == "volmaj"]
    before = _public_state(mods)
    methods = {
        (cls, attr): cls.__dict__[attr]
        for cls, attr in (
            (cli.MajorantSpec, "rate"),
            (cli.MajorantSpec, "rate_at"),
            (cli.DenseOperator, "solve_many"),
        )
    }
    for name in names:
        work = os.path.join(run.WORK_ROOT, f"selftest-{name}-{os.getpid()}")
        shutil.rmtree(work, ignore_errors=True)
        try:
            wl = workloads.BUILDERS[name](1, work)
            runner = run.Runner(cli, wl, tracing.Tracer(), os.path.join(work, "out"))
            ops = [runner.run_op(traced=True) for _ in range(2)]
        finally:
            shutil.rmtree(work, ignore_errors=True)
        check(all(op["ok"] for op in ops), f"{name}: traced operations pass their checks")
        first, second = (tracing.count_metrics(v) for v in runner.layer_values)
        moved = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
        check(not moved, f"{name}: traced counts repeat exactly {moved or ''}")
    check(_public_state(mods) == before, "instrumenting restores every module name")
    check(
        all(cls.__dict__[attr] is fn for (cls, attr), fn in methods.items()),
        "instrumenting restores every method",
    )


def main(argv: list[str]) -> int:
    names = argv or list(workloads.BUILDERS)
    test_arithmetic()
    test_span_tree()
    test_traced_counts(names)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
