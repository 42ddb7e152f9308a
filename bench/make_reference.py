"""Write reference.json: the benchmark's input pools and the reference
output of every pool entry.

Run once, from the repository root, at the commit whose outputs become the
reference:

    python3 bench/make_reference.py

Channels come from fixed generator seeds and are rounded to six significant
digits, so the stored inputs are short and exact.  Rewriting the file
changes what later runs are checked against.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from gicbounds import TwoUserChannel, noisy_condition, symmetric_threshold  # noqa: E402

from bench import tracing, workloads  # noqa: E402
from bench.metrics import polygon_area  # noqa: E402

ANCHORS = {
    "fig1": (0.04, 0.09, 10.0, 20.0),
    "moderate": (0.3, 0.2, 50.0, 20.0),
    "weak": (0.001, 0.001, 5000.0, 5000.0),
}
SWEEP_PARAMS = ("a", "b", "p1", "p2", "symmetric-a", "symmetric-p")
PER_STRATUM = {"sweep": 8, "classify2": 8, "threshold": 8, "lightsweep": 8, "muser": 6}


def _r(x: float) -> float:
    return float(f"{float(x):.6g}")


def regime_channel(rng) -> tuple[float, float, float, float]:
    """The criterion-8 sampler: gains in (0.02, 0.95), log-uniform powers."""
    a, b = rng.uniform(0.02, 0.95, 2)
    p1, p2 = np.exp(rng.uniform(math.log(0.5), math.log(200.0), 2))
    return _r(a), _r(b), _r(p1), _r(p2)


def noisy_channel(rng) -> tuple[float, float, float, float]:
    """Weak gains and moderate powers, rejected until the noisy-interference
    condition holds."""
    while True:
        a, b = np.exp(rng.uniform(math.log(1e-3), math.log(0.25), 2))
        p1, p2 = np.exp(rng.uniform(math.log(0.1), math.log(100.0), 2))
        ch = (_r(a), _r(b), _r(p1), _r(p2))
        if noisy_condition(TwoUserChannel(*ch))[0]:
            return ch


def _sweep_range(base, param: str) -> tuple[float, float]:
    a, b, p1, p2 = base
    centre = {"a": a, "b": b, "symmetric-a": a, "p1": p1, "p2": p2,
              "symmetric-p": math.sqrt(p1 * p2)}[param]
    if param in ("a", "b", "symmetric-a"):
        return _r(centre / 2), _r(min(2 * centre, 0.98))
    return _r(centre / 4), _r(centre * 4)


def _run(entry: dict, workdir: Path, command: str | None = None) -> str:
    op = workloads.make_op(entry, workdir, command)
    rc, out, err, _ = workloads.execute(op.argv)
    if rc != 0:
        raise SystemExit(f"reference run failed: {op.argv}: {err}")
    return out


def _rows(out: str) -> list[list[str]]:
    return [line.split(",") for line in out.splitlines()[1:]]


def region_pool(workdir: Path) -> list[dict]:
    entries = [{"id": name, "op": "region", "stratum": "anchor", "channel": list(ch)}
               for name, ch in ANCHORS.items()]
    tracer = tracing.Tracer()
    for e in entries:
        tracer.install()
        try:
            _run(e, workdir)
        finally:
            tracer.uninstall()
        csv = (workdir / "region.csv").read_text()
        outer = [(float(x), float(y)) for x, y, kind in _rows(csv) if kind == "outer"]
        e["outer_area"] = polygon_area(outer)
        idx = max(i for i in tracer.extra if tracer.names[tracer.name[i]] == "region.build_outer_region")
        (mu, mu_active), (eta, eta_active) = tracing.active_lines(tracer.extra[idx]).values()
        e.update(mu_lines=mu, mu_active=mu_active, eta_lines=eta, eta_active=eta_active)
        print(e["id"], e["channel"], f"{mu_active}/{mu} MU lines active", flush=True)
    return entries


def sweep_pool(workdir: Path) -> list[dict]:
    rng = np.random.default_rng(3)
    entries = [{"id": "criterion3", "op": "sweep", "stratum": "criterion3",
                "base": [0.1, 0.1, 5000.0, 5000.0], "param": "symmetric-a",
                "from": 0.001, "to": 1.0, "points": 8, "log": True, "metric": "sum-upper"}]
    for param in SWEEP_PARAMS:
        for kind, sampler in (("regime", regime_channel), ("noisy", noisy_channel)):
            for i in range(PER_STRATUM["sweep"]):
                base = sampler(rng)
                lo, hi = _sweep_range(base, param)
                entries.append({"id": f"{param}-{kind}-{i}", "op": "sweep",
                                "stratum": f"{param}/{kind}", "base": list(base),
                                "param": param, "from": lo, "to": hi, "points": 3,
                                "log": True, "metric": "sum-upper"})
    for e in entries:
        e["rows"] = _rows(_run(e, workdir))
    return entries


def _classify2_channel(rng, cls: str):
    if cls == "noisy":
        return noisy_channel(rng)
    if cls == "zic":
        a, b, p1, p2 = noisy_channel(rng)
        return (0.0, b, p1, p2) if rng.uniform() < 0.5 else (a, 0.0, p1, p2)
    if cls == "mixed":
        a, b = rng.uniform(1.5, 5.0), rng.uniform(0.05, 0.6)
        p1 = rng.uniform(0.1, 0.9) * (a - 1.0) / max(1.0 - a * b, 1e-3)
        ch = (_r(a), _r(b), _r(p1), _r(np.exp(rng.uniform(0.0, math.log(100.0)))))
        return (ch[1], ch[0], ch[3], ch[2]) if rng.uniform() < 0.5 else ch
    a, b = rng.uniform(0.3, 0.9, 2)
    p1, p2 = np.exp(rng.uniform(0.0, math.log(1000.0), 2))
    return _r(a), _r(b), _r(p1), _r(p2)


def _muser_config(rng, m: int, cls: str):
    if cls == "uniform_feasible":
        c = _r(rng.uniform(0.2, 0.8) / (4.0 * (m - 1)))
        p = _r(rng.uniform(0.2, 0.9) * symmetric_threshold(m, c))
        gains = np.full((m, m), c)
        powers = np.full(m, p)
    elif cls == "provable":
        c = _r(rng.uniform(1.1, 3.0) / (4.0 * (m - 1)))
        gains = np.full((m, m), c)
        powers = np.full(m, _r(np.exp(rng.uniform(math.log(0.5), math.log(20.0)))))
    else:  # random sparse gains, as in the oracle-equivalence criterion
        hi = 0.35 / math.sqrt(m - 1) if rng.uniform() < 0.5 else 0.1 / (m - 1)
        gains = np.round(rng.uniform(0.0, hi, (m, m)) * rng.integers(0, 2, (m, m)), 4)
        powers = np.array([_r(p) for p in np.exp(rng.uniform(math.log(0.1), math.log(30.0), m))])
    np.fill_diagonal(gains, 1.0)
    return gains.tolist(), powers.tolist()


def verdicts_pool(workdir: Path) -> list[dict]:
    rng = np.random.default_rng(5)
    n = PER_STRATUM
    entries = []
    for cls in ("noisy", "zic", "mixed", "unknown"):
        want = {"noisy": "NOISY_INTERFERENCE", "zic": "ZIC_NOISY",
                "mixed": "MIXED_CORNER", "unknown": "UNKNOWN"}[cls]
        while sum(e["stratum"] == f"classify2/{cls}" for e in entries) < n["classify2"]:
            e = {"id": f"c2-{cls}-{len(entries)}", "op": "classify2",
                 "stratum": f"classify2/{cls}", "channel": list(_classify2_channel(rng, cls))}
            e["verdict"] = json.loads(_run(e, workdir))["kind"]
            if e["verdict"] == want:
                entries.append(e)
    for i in range(n["threshold"]):
        p = _r(np.exp(rng.uniform(0.0, math.log(1e5))))
        m = int(rng.choice(workloads.M_VALUES))
        c = _r(rng.uniform(0.05, 1.5) / (4.0 * (m - 1)))
        for stratum, argv, key in (
            ("p", ["threshold", "--p", repr(p), "--json"], "a_star"),
            ("mc", ["threshold", "--m", str(m), "--c", repr(c), "--json"], "p_star"),
        ):
            e = {"id": f"th-{stratum}-{i}", "op": "threshold", "stratum": f"threshold/{stratum}",
                 "argv": argv, "key": key}
            e["value"] = json.loads(_run(e, workdir))[key]
            entries.append(e)
    for metric in ("verdict", "sum-tin", "tdm-best"):
        for i in range(n["lightsweep"]):
            base = (regime_channel if i % 2 else noisy_channel)(rng)
            param = SWEEP_PARAMS[int(rng.integers(len(SWEEP_PARAMS)))]
            lo, hi = _sweep_range(base, param)
            e = {"id": f"ls-{metric}-{i}", "op": "lightsweep", "stratum": f"lightsweep/{metric}",
                 "base": list(base), "param": param, "from": lo, "to": hi, "points": 5,
                 "log": bool(i % 3), "metric": metric}
            e["rows"] = _rows(_run(e, workdir))
            entries.append(e)
    serial = itertools.count()
    for m in workloads.M_VALUES:
        counts = dict.fromkeys(("feasible", "infeasible", "uniform_feasible", "provable"), 0)
        while min(counts.values()) < n["muser"]:
            cls = min(counts, key=counts.get)
            gains, powers = _muser_config(rng, m, cls)
            e = {"id": f"mu-m{m}-{next(serial)}", "op": "muser", "m": m,
                 "gains": gains, "powers": powers}
            out = json.loads(_run(e, workdir, "murate"))
            e.update(verdict=out["kind"], feasible=out["feasible"],
                     provably_infeasible=out["provably_infeasible"])
            if cls in ("feasible", "infeasible"):
                cls = "feasible" if e["feasible"] else "infeasible"
                if e["provably_infeasible"]:
                    continue
            elif e["feasible"] != (cls == "uniform_feasible") or (
                e["provably_infeasible"] != (cls == "provable")
            ):
                continue
            if counts[cls] >= n["muser"]:
                continue
            counts[cls] += 1
            e["stratum"] = f"m{m}/{cls}"
            entries.append(e)
        print(f"m={m}: {counts}", flush=True)
    return entries


def main() -> None:
    out = Path(__file__).with_name("reference.json")
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as tmp:
        workdir = Path(tmp)
        reference = {
            "verdicts": verdicts_pool(workdir),
            "sweep": sweep_pool(workdir),
            "region": region_pool(workdir),
        }
    out.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
