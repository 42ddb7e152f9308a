"""Benchmark of the gicbounds command-line tool.

    python3 bench/run.py --workload region|sweep|verdicts --seed N \
        --seconds S --trace 0|1

Each operation is one in-process call to ``gicbounds.cli.main(argv)`` with
its output captured and checked after the timed call.  Load is a closed
loop: one process, one client, operations back to back.  The op list is
drawn from the seed and its length from --seconds alone, so every run of a
workload does a fixed amount of work (see workloads.py).

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 the operations run once untraced and once traced, and it carries
the per-layer metrics (tracing.py).  Lines before it give every metric by
name and unit.  The exit status is non-zero when any output check fails.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("region", "sweep", "verdicts")
# Fresh interpreters started per run to time set-up; the median is reported.
# They are spread evenly over the ops: set-up time drifts with the machine in
# phases of seconds, and samples taken back to back would share one phase.
SETUP_RUNS = 7
# Name, unit and direction of each workload's quality value.
QUALITY = {
    "region": ("outer_area_bits2", "bits2", "lower"),
    "sweep": ("sum_bound_bits", "bits", "lower"),
    "verdicts": ("certified_ratio", "ratio", "higher"),
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="sets the op count, from the per-op cost at the reference commit")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_program():
    """Import gicbounds.cli from this checkout's src/, and nowhere else."""
    if not (SRC / "gicbounds" / "cli.py").is_file():
        raise SystemExit(f"error: program source not found under {SRC}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    from gicbounds import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: gicbounds imported from {cli.__file__}, not {SRC}")


def _setup_probe(args) -> None:
    """Body of one set-up measurement, run in a fresh interpreter: import
    the CLI, generate the inputs, report both times on one line."""
    t0 = perf_counter()
    _import_program()
    t1 = perf_counter()
    from bench import workloads

    workdir = OUT / f"setup-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workloads.build_ops(args.workload, args.seed, args.seconds,
                            workloads.load_reference(), workdir)
        t2 = perf_counter()
        print(json.dumps({"import_s": t1 - t0, "inputs_s": t2 - t1}), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _setup_sample(args) -> dict:
    """Start one fresh interpreter that sets up the run; the sample is the
    wall time from process start until its inputs are ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        wall = perf_counter() - t0
        proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not line:
        raise SystemExit(f"error: set-up probe failed with status {proc.returncode}")
    return dict(json.loads(line), setup_s=wall)


class Pass:
    """Latencies, failures and quality totals of one pass over the ops."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.got = self.ref = 0.0
        self.values = 0

    def run(self, workload: str, op, tracer=None) -> None:
        """Execute one op, traced when a tracer is given, time it and then
        check its output."""
        from bench import workloads

        for path in op.files:
            path.unlink(missing_ok=True)
        if tracer is not None:
            tracer.install()
        try:
            rc, out, err, seconds = workloads.execute(op.argv)
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.latencies.append(seconds)
        try:
            outcome = workloads.check(workload, op, out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            outcome = workloads.Outcome(False, f"check raised {exc!r}")
        if rc != 0:
            outcome = dataclasses.replace(outcome, ok=False, why=f"exit status {rc}: {err.strip()}")
        if not outcome.ok:
            self.failures.append(f"{' '.join(op.argv)}: {outcome.why}")
        # Failed ops count too, so that lost quality moves quality_ratio.
        self.got += outcome.got
        self.ref += outcome.ref
        self.values += outcome.values


def _run_pass(workload: str, ops, before) -> Pass:
    """The ops in order, calling ``before(i)`` ahead of op i (untimed)."""
    result = Pass()
    for i, op in enumerate(ops):
        before(i)
        result.run(workload, op)
    return result


def _run_traced(workload: str, ops, tracer, before) -> tuple[Pass, Pass]:
    """Each op untraced, then at once traced, so that both calls of a pair
    meet the same machine state; the untraced pass prices the tracing."""
    plain, traced = Pass(), Pass()
    for i, op in enumerate(ops):
        before(i)
        plain.run(workload, op)
        tracer.op_id = i
        traced.run(workload, op, tracer)
    return plain, traced


def _emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def main(argv=None) -> int:
    args = _parse(argv)
    if args.setup_probe:
        _setup_probe(args)
        return 0
    _import_program()

    from bench import metrics, tracing, workloads

    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    setup = []
    try:
        ops = workloads.build_ops(args.workload, args.seed, args.seconds,
                                  workloads.load_reference(), workdir)
        probes_before = collections.Counter(i * len(ops) // SETUP_RUNS for i in range(SETUP_RUNS))

        def before(i):
            setup.extend(_setup_sample(args) for _ in range(probes_before[i]))

        # Untimed warm-up: the first call in a process pays one-off costs.
        workloads.execute(["classify", "--a", "0.04", "--b", "0.09", "--p1", "10", "--p2", "20"])
        if args.trace:
            tracer = tracing.Tracer()
            plain, traced = _run_traced(args.workload, ops, tracer, before)
            passes = [plain, traced]
        else:
            plain = _run_pass(args.workload, ops, before)
            passes = [plain]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [f for p in passes for f in p.failures]
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    attempted = len(ops) * len(passes)
    lat = plain.latencies
    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} ops per pass, "
          f"closed loop, 1 client")
    print(f"fail_ratio = {len(failures) / attempted!r} ratio ({len(failures)} of {attempted} ops)")

    if args.trace:
        op_time = sum(traced.latencies)
        values = tracing.per_layer_values(tracer, op_time, {
            "setup.import_s": metrics.median([s["import_s"] for s in setup]),
            "setup.inputs_s": metrics.median([s["inputs_s"] for s in setup]),
            "trace.overhead_s": op_time - sum(lat),
        })
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
        tracer.write(spans)
        print(f"{len(tracer.start)} spans written to {spans}")
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        result = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    else:
        p90 = metrics.p90_or_none(lat)
        print(f"latency_p90_s = {p90!r} s (n={len(lat)})" if p90 is not None
              else f"latency_p90_s omitted: {len(lat)} samples, fewer than {metrics.P90_MIN_SAMPLES}")
        name, unit, better = QUALITY[args.workload]
        print(f"{name} = {plain.got / plain.values if plain.values else 0.0!r} {unit}")
        if better == "lower":
            quality = metrics.ratio_to_reference(plain.got, plain.ref)
        else:
            quality = metrics.ratio_to_reference(plain.ref, plain.got)
        result = {
            "setup_s": {"value": metrics.median([s["setup_s"] for s in setup]), "unit": "s"},
            "throughput_ops_per_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
            "latency_p50_s": {"value": metrics.median(lat), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
            "quality_ratio": {"value": quality, "unit": "ratio"},
        }
    _emit(not failures, attempted, len(failures), result)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
