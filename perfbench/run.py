"""Benchmark of certified volmaj runs, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/selftest.py

Run from the root of a source checkout; the package is imported from
``src/``.  One client drives a closed loop: each operation is one or
more in-process ``volmaj.cli.main([...])`` calls, and the next starts
only after the previous one has finished and its outputs were checked.
The loop runs for at least ``--seconds``, finishing the operation under
way, and for at least three operations (or one untraced/traced pair).

``--trace 0`` reports the end-to-end metrics: seconds per operation,
set-up time (median of fresh interpreters importing ``volmaj.cli`` and
writing the configs) and peak resident memory.  The two times are wall
seconds rescaled to a fixed machine speed.  A reference loop that
shares no code with volmaj runs before every operation and set-up
probe, and ``speed = REF_NOMINAL_S / mean(reference seconds)``; op_s is
the mean operation time times speed, setup_s the median probe time
times speed.  On a shared 2-core host the speed of identical work flips
between states about 1.5x apart every few seconds and drifts by up to
2x within minutes.  Means over the run weigh those states by the time
spent in them for operations and reference alike, so their ratio
cancels the drift; a median of the short reference samples picks one
state instead.  In ten-seed trials there, the spread of op_s (quartile
distance over median) was 0.04-0.47 on raw wall medians and 0.04-0.26
with the ratio, typically about 0.2 against 0.1.  The raw wall times
and the reference samples are kept in the run record.

``--trace 1`` alternates untraced and traced operations and reports the
per-layer metrics of ``tracing.PER_LAYER``, medians over the traced
operations.  The last stdout line is one JSON object; a run record with
the machine, versions, per-operation exit codes and output digests is
written under ``.perfbench_work/records/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import tracing  # found beside this script, which is first on sys.path
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
SETUP_PROBES = 5
MIN_OPS = 3
REF_ITERS = 40_000
REF_NOMINAL_S = 0.2  # about what the reference loop takes on an idle core

END_TO_END = (("op_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def fail_ratio(failed: int, attempted: int) -> float:
    if attempted < 1:
        raise ValueError("no operation was attempted")
    return failed / attempted


def output_digest(directory: str) -> str:
    """sha256 over every file's relative path and bytes, in path order."""
    h = hashlib.sha256()
    paths = sorted(
        os.path.join(d, f) for d, _, files in os.walk(directory) for f in files
    )
    for path in paths:
        h.update(os.path.relpath(path, directory).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def import_cli():
    """Import volmaj.cli from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "volmaj", "cli.py")):
        raise SystemExit(f"perfbench: no volmaj sources under {SRC}")
    sys.path.insert(0, SRC)
    import volmaj.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(volmaj.cli.__file__))) != SRC:
        raise SystemExit(f"perfbench: imported volmaj from {volmaj.cli.__file__}")
    return volmaj.cli


def reference_loop() -> float:
    """Wall seconds of a fixed mix of interpreted arithmetic, dict
    stores and small numpy calls, the instruction mix of a solve."""
    import numpy as np

    start = time.perf_counter()
    x = np.linspace(0.0, 1.0, 21)
    acc = 0.0
    env = {}
    for i in range(REF_ITERS):
        acc += float(np.sin(x * (i * 1e-4)).sum())
        for j in range(8):
            env["u"] = acc * 1e-9 + j
            acc += math.sqrt(env["u"] + i) * 1e-12
    return time.perf_counter() - start


def setup_probe(name: str, seed: int, work: str) -> None:
    """Child-process body: a cold import plus building the configs."""
    start = time.perf_counter()
    import_cli()
    workloads.BUILDERS[name](seed, work)
    print(repr(time.perf_counter() - start))


def measure_setup(name: str, seed: int, work: str, refs: list[float]) -> list[float]:
    samples = []
    for i in range(SETUP_PROBES):
        refs.append(reference_loop())
        probe = subprocess.run(
            [
                sys.executable,
                os.path.abspath(__file__),
                "--setup-probe",
                "--workload",
                name,
                "--seed",
                str(seed),
                "--work",
                os.path.join(work, f"probe{i}"),
            ],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(probe.stdout.strip().splitlines()[-1]))
    return samples


class Runner:
    """Runs one workload's operations and keeps what they produced."""

    def __init__(self, cli, workload, tracer, out: str):
        self.cli = cli
        self.workload = workload
        self.out = out
        self.tracer = tracer
        self.ops: list[dict] = []
        self.layer_values: list[dict] = []
        self.refs: list[float] = []

    def run_op(self, traced: bool) -> dict:
        for call in self.workload.calls:
            shutil.rmtree(call.out, ignore_errors=True)
        op_id = len(self.ops)
        record = tracing.OpRecord()
        codes: list[int] = []
        duration = 0.0
        error = ""
        tracer = self.tracer
        if traced:
            tracer.op = op_id
            context = tracing.instrument(tracer, record)
        else:
            context = contextlib.nullcontext()
        with context:
            for call in self.workload.calls:
                record.cli_call += 1
                start = time.perf_counter()
                if traced:
                    tracer.begin("cli.main")
                try:
                    codes.append(self.cli.main(call.argv))
                except Exception as exc:  # a traceback is itself a failure
                    error = f"{call.argv[0]} raised {exc!r}"
                    break
                finally:
                    if traced:
                        tracer.end()
                    duration += time.perf_counter() - start
        if not error:
            error = self._check(codes)
        op = {
            "op": op_id,
            "traced": traced,
            "seconds": duration,
            "exit_codes": codes,
            "ok": not error,
            "error": error,
            "digest": output_digest(self.out),
        }
        if traced:
            totals, counts = tracer.take()
            values = tracing.layer_metrics(totals, counts, record)
            self.layer_values.append(values)
            op["classified"] = dict(record.classified_names)
        self.ops.append(op)
        return op

    def _check(self, codes: list[int]) -> str:
        for call, code in zip(self.workload.calls, codes):
            if code != call.exit_code:
                return f"{' '.join(call.argv[:2])}: exit {code}, expected {call.exit_code}"
            try:
                call.check(call.out)
            except (workloads.CheckFailed, OSError, KeyError, ValueError) as exc:
                return f"{' '.join(call.argv[:2])}: {exc}"
        return ""


def closed_loop(runner: Runner, seconds: float, traced: bool) -> None:
    """Operations back to back for at least ``seconds``.

    An untraced run times the reference loop before every operation and
    once at the end.  A traced run alternates an untraced and a traced
    operation so the tracing overhead is measured under the same
    conditions.
    """
    start = time.perf_counter()
    rounds = 0
    while rounds < (1 if traced else MIN_OPS) or time.perf_counter() - start < seconds:
        if not traced:
            runner.refs.append(reference_loop())
        runner.run_op(traced=False)
        if traced:
            runner.run_op(traced=True)
        rounds += 1
    if not traced:
        runner.refs.append(reference_loop())


def machine() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = os.path.join(WORK_ROOT, f"{name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        cli = import_cli()
        workload = workloads.BUILDERS[name](seed, work)
        runner = Runner(cli, workload, tracing.Tracer(), os.path.join(work, "out"))
        setup = [] if trace else measure_setup(name, seed, work, runner.refs)
        closed_loop(runner, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ops = runner.ops
    failed = sum(not op["ok"] for op in ops)
    plain = [op["seconds"] for op in ops if not op["traced"]]
    speed = REF_NOMINAL_S / statistics.fmean(runner.refs) if runner.refs else None
    if trace:
        metrics = {
            key: median(v[key] for v in runner.layer_values)
            for key, _ in tracing.PER_LAYER
            if key != "trace.overhead_s"
        }
        traced_s = [op["seconds"] for op in ops if op["traced"]]
        metrics["trace.overhead_s"] = median(traced_s) - median(plain)
        units = dict(tracing.PER_LAYER)
        counts = [tracing.count_metrics(v) for v in runner.layer_values]
        counts_repeat = all(c == counts[0] for c in counts)
    else:
        metrics = {
            "op_s": statistics.fmean(plain) * speed,
            "setup_s": median(setup) * speed,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
        counts_repeat = None
    record = {
        "workload": name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "coefficients": workload.coefficients,
        "machine": machine(),
        "samples": {
            "ops": len(ops),
            "untraced_ops": len(plain),
            "traced_ops": sum(op["traced"] for op in ops),
            "setup_probes": len(setup),
            "reference_loops": len(runner.refs),
        },
        "setup_wall_s_samples": setup,
        "op_wall_s_mean": statistics.fmean(plain),
        "op_wall_s_median": median(plain),
        "speed_factor": speed,
        "reference_s_samples": runner.refs,
        "fail_ratio": fail_ratio(failed, len(ops)),
        "traced_counts_repeat": counts_repeat,
        "output_digests": sorted({op["digest"] for op in ops}),
        "ops": ops,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return {"record": record, "spans": runner.tracer.spans, "failed": failed}


def write_record(result: dict) -> str:
    rec = result["record"]
    directory = os.path.join(WORK_ROOT, "records")
    os.makedirs(directory, exist_ok=True)
    stem = f"{rec['workload']}-seed{rec['seed']}-trace{int(rec['trace'])}"
    path = os.path.join(directory, stem + ".json")
    with open(path, "w") as fh:
        json.dump(rec, fh, indent=1)
    if rec["trace"]:
        with open(os.path.join(directory, stem + "-spans.json"), "w") as fh:
            json.dump(result["spans"], fh)
    return path


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--work", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.work)
        return 0
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    rec = result["record"]
    path = write_record(result)
    print(
        f"workload {rec['workload']} seed {rec['seed']}:"
        f" {rec['samples']['ops']} ops, fail_ratio {rec['fail_ratio']:.4g} (ratio),"
        f" record {os.path.relpath(path, ROOT)}"
    )
    for key, m in rec["metrics"].items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")
    for op in rec["ops"]:
        if not op["ok"]:
            print(f"  op {op['op']} failed: {op['error']}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": rec["samples"]["ops"],
                "failed": result["failed"],
                "metrics": rec["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
