"""Measure the baseline record: several seeded untraced runs per workload,
one traced run per workload, and the machine they ran on.

    python3 bench/baseline.py [--out PATH]

It runs every workload of BENCHMARK.json with seeds 1 to 10.  For every
end-to-end metric it reports the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
inter-quartile distance as a share of the median.  Without --out the
record is printed and nothing is written.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = list(range(1, 11))


def _run(workload: str, seed: int, trace: int) -> dict:
    """The result line of one run, with every other ``name = value unit``
    line it printed (p90, fail_ratio, the workload's quality value) under
    "printed"."""
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stdout}{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["printed"] = {}
    for line in lines[:-1]:
        match = re.match(r"(\S+) = (\S+) ", line)
        if match and match[1] not in result["metrics"]:
            result["printed"][match[1]] = float(match[2])
    return result


def _machine() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "note": "shared 2-core box; other tenants' load is not controlled"}


def op_mix(workload: str) -> dict:
    """Op counts per command and per stratum of one run (any seed)."""
    import tempfile

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from bench import workloads

    (ROOT / ".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as tmp:
        ops = workloads.build_ops(workload, 0, SPEC["run_seconds"],
                                  workloads.load_reference(), Path(tmp))
    by_stratum = collections.Counter(op.entry["stratum"] for op in ops)
    by_command = collections.Counter(op.command for op in ops)
    return {"ops": len(ops), "by_command": dict(sorted(by_command.items())),
            "by_stratum": dict(sorted(by_stratum.items()))}


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    record = {"machine": _machine(), "run_seconds": SPEC["run_seconds"], "workloads": {}}
    for name in (w["name"] for w in SPEC["workloads"]):
        runs = [_run(name, seed, 0) for seed in SEEDS]
        metrics = {m: summarize([r["metrics"][m]["value"] for r in runs]) for m in bounds}
        printed = {m: summarize([r["printed"][m] for r in runs])
                   for m in runs[0]["printed"] if all(m in r["printed"] for r in runs)}
        for m, s in metrics.items():
            flag = "" if s["spread"] <= bounds[m] / 3 else "  ABOVE bound/3"
            print(f"{name:9s} {m:22s} median {s['median']:.6g} spread {s['spread']:.4f}"
                  f" (bound {bounds[m]}){flag}", flush=True)
        entry = {"seeds": SEEDS,
                 "op_mix": op_mix(name), "end_to_end": metrics, "printed_only": printed,
                 "attempted": [r["attempted"] for r in runs], "failed": [r["failed"] for r in runs]}
        traced = _run(name, 0, 1)
        entry["per_layer_seed0"] = {k: v["value"] for k, v in traced["metrics"].items()}
        record["workloads"][name] = entry
    text = json.dumps(record, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        print(text)


if __name__ == "__main__":
    main()
