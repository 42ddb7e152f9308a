"""Workloads: seeded operation lists drawn from the reference pools, and the
output check for each kind of operation.

Every operation is one ``gicbounds.cli.main(argv)`` call.  The pools and the
reference outputs of every pool entry live in ``reference.json``, written
once by ``make_reference.py``; the seed only chooses entries and their
order.  Entries are drawn stratum by stratum in a fixed rotation, so every
run of a workload has the same op mix and the same share of heavy requests.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from gicbounds import MUserChannel, TwoUserChannel, VerdictKind, check_conditions, classify, cli

from .metrics import outside_distance, polygon_area

REFERENCE = Path(__file__).with_name("reference.json")

# Seconds per operation at the commit that wrote the references.  They turn
# --seconds into a fixed op count, which never depends on measured speed.
OP_COST_S = {"region": 8.25, "sweep": 0.3, "verdicts": 0.034}

# One verdicts block: 20 requests, 4 of them heavy (infeasible or provable
# m-user searches).  With a 20% heavy share, p50 falls inside the light
# requests and p90 near the middle of the heavy ones.
VERDICT_BLOCK = (
    ["classify2/noisy", "classify2/zic", "classify2/mixed", "classify2/unknown"]
    + ["threshold/p", "threshold/mc"]
    + ["lightsweep/verdict"] * 2 + ["lightsweep/sum-tin"] * 2 + ["lightsweep/tdm-best"] * 2
    + ["muser/feasible"] * 3 + ["muser/uniform_feasible"]
    + ["muser/infeasible"] * 3 + ["muser/provable"]
)
M_VALUES = (2, 3, 4, 8, 12)
REGION_GRID = ("--mu-grid", "65", "--eta-grid", "9")

TOL_CONTAIN = 1e-9
TOL_REFERENCE = 1e-9
TOL_NOISY = 1e-6


@dataclass
class Op:
    """One request: the argv passed to cli.main and the pool entry (with its
    reference outputs) it came from."""

    argv: list[str]
    entry: dict
    command: str
    files: tuple[Path, ...] = ()


@dataclass
class Outcome:
    """Result of one output check.  ``got``/``ref`` are the op's share of
    the workload's quality total and of its reference total."""

    ok: bool
    why: str = ""
    got: float = 0.0
    ref: float = 0.0
    values: int = 0  # how many quality values got/ref sum


def execute(argv: list[str]) -> tuple[int | None, str, str, float]:
    """Run one request through cli.main with stdout and stderr captured:
    (exit status, or None when it raised; stdout; stderr; seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            rc = cli.main(argv)
        except Exception as exc:  # a crash is a failed op, not a failed benchmark
            rc = None
            print(repr(exc), file=err)
        elapsed = perf_counter() - t0
    return rc, out.getvalue(), err.getvalue(), elapsed


def load_reference(path: Path = REFERENCE) -> dict:
    return json.loads(path.read_text())


def _flags(ch) -> list[str]:
    a, b, p1, p2 = ch
    return ["--a", repr(a), "--b", repr(b), "--p1", repr(p1), "--p2", repr(p2)]


def _sweep_argv(e: dict) -> list[str]:
    argv = ["sweep", *_flags(e["base"]), "--param", e["param"],
            "--from", repr(e["from"]), "--to", repr(e["to"]),
            "--points", str(e["points"]), "--metric", e["metric"]]
    return argv + (["--log"] if e["log"] else [])


def make_op(entry: dict, workdir: Path, command: str | None = None) -> Op:
    """The request for a pool entry.  m-user entries are written as JSON
    configs into ``workdir``; ``command`` picks murate or classify for them."""
    kind = entry["op"]
    if kind == "region":
        csv, svg = workdir / "region.csv", workdir / "region.svg"
        argv = ["region", *_flags(entry["channel"]), *REGION_GRID,
                "--out", str(csv), "--svg", str(svg)]
        return Op(argv, entry, "region", (csv, svg))
    if kind in ("sweep", "lightsweep"):
        return Op(_sweep_argv(entry), entry, "sweep")
    if kind == "classify2":
        return Op(["classify", *_flags(entry["channel"])], entry, "classify")
    if kind == "threshold":
        return Op(list(entry["argv"]), entry, "threshold")
    config = workdir / f"{entry['id']}.json"
    config.write_text(json.dumps({"gains": entry["gains"], "powers": entry["powers"]}))
    command = command or "murate"
    argv = [command, "--config", str(config)] + (["--json"] if command == "murate" else [])
    return Op(argv, entry, command)


class _Picker:
    """Draws pool entries stratum by stratum, each stratum a reshuffled
    cycle, so a run never repeats an entry before using its whole stratum."""

    def __init__(self, entries, rng: random.Random):
        self.rng = rng
        self.strata: dict[str, list[dict]] = {}
        for e in entries:
            self.strata.setdefault(e["stratum"], []).append(e)
        self.queues: dict[str, list[dict]] = {}

    def take(self, stratum: str) -> dict:
        queue = self.queues.get(stratum)
        if not queue:
            queue = list(self.strata[stratum])
            self.rng.shuffle(queue)
            self.queues[stratum] = queue
        return queue.pop()


def op_count(workload: str, seconds: float) -> int:
    if workload == "region":  # whole rounds over the three anchor channels
        return 3 * max(1, round(seconds / (3 * OP_COST_S["region"])))
    if workload == "verdicts":  # whole 5-block cycles, so the mix is exact
        cycle = 5 * len(VERDICT_BLOCK)
        return cycle * max(1, round(seconds / (cycle * OP_COST_S["verdicts"])))
    return max(1, round(seconds / OP_COST_S[workload]))


def build_ops(workload: str, seed: int, seconds: float, reference: dict, workdir: Path) -> list[Op]:
    """The seeded, fixed-size op list of one run, in execution order."""
    rng = random.Random(seed)
    n = op_count(workload, seconds)
    pool = reference[workload]
    picker = _Picker(pool, rng)
    if workload == "region":
        ops = [make_op(pool[i % len(pool)], workdir) for i in range(n)]
    elif workload == "sweep":
        # The criterion-3 sweep once, then the strata in rotation.
        strata = sorted(s for s in picker.strata if s != "criterion3")
        entries = [picker.take("criterion3")]
        entries += [picker.take(strata[i % len(strata)]) for i in range(n - 1)]
        ops = [make_op(e, workdir) for e in entries]
    else:
        ops = []
        muser_slot = 0
        first_muser = VERDICT_BLOCK.index("muser/feasible")
        for i in range(n):
            stratum = VERDICT_BLOCK[i % len(VERDICT_BLOCK)]
            if stratum.startswith("muser/"):
                cls = stratum.split("/")[1]
                j = i % len(VERDICT_BLOCK) - first_muser
                # 8 m-user slots per block against 5 values of m: every
                # (m, slot) pair recurs once in 5 blocks.
                m = M_VALUES[muser_slot % len(M_VALUES)]
                muser_slot += 1
                # One light and one heavy m-user request per block go through
                # classify; a 2x2 config would be classified as a 2-user
                # channel there, so m = 2 always uses murate.
                command = "classify" if m > 2 and j in (0, 4) else "murate"
                ops.append(make_op(picker.take(f"m{m}/{cls}"), workdir, command))
            else:
                ops.append(make_op(picker.take(stratum), workdir))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def tin_point(ch) -> tuple[float, float]:
    a, b, p1, p2 = ch
    return (
        0.5 * math.log2(1.0 + p1 / (1.0 + a * p2)),
        0.5 * math.log2(1.0 + p2 / (1.0 + b * p1)),
    )


def sweep_channel(base, param: str, v: float) -> tuple[float, float, float, float]:
    """The channel at one sweep grid value (gains in linear units)."""
    a, b, p1, p2 = base
    return {
        "a": (v, b, p1, p2),
        "b": (a, v, p1, p2),
        "p1": (a, b, v, p2),
        "p2": (a, b, p1, v),
        "symmetric-a": (v, v, p1, p2),
        "symmetric-p": (a, b, v, v),
    }[param]


def _parse_csv(text: str, header: str) -> list[list[str]] | None:
    lines = text.split("\n")
    if not lines or lines[0] != header or lines[-1] != "":
        return None
    return [line.split(",") for line in lines[1:-1]]


def check_region(op: Op, stdout: str) -> Outcome:
    csv_path, svg_path = op.files
    try:
        csv_text, svg_text = csv_path.read_text(), svg_path.read_text()
    except OSError as exc:
        return Outcome(False, f"missing output: {exc}")
    rows = _parse_csv(csv_text, "r1_bits,r2_bits,kind")
    if rows is None or any(len(r) != 3 or r[2] not in ("inner", "outer") for r in rows):
        return Outcome(False, "malformed CSV")
    curves = {"inner": [], "outer": []}
    for x, y, kind in rows:
        curves[kind].append((float(x), float(y)))
    inner, outer = curves["inner"], curves["outer"]
    if len(outer) < 2 or not inner:
        return Outcome(False, "empty boundary")
    # From here on the area is known; a failed op counts it, but never as
    # tighter than the reference.
    area, ref = polygon_area(outer), op.entry["outer_area"]

    def failed(why: str) -> Outcome:
        return Outcome(False, why, got=max(area, ref), ref=ref, values=1)

    expected = (
        f"wrote {csv_path} ({len(inner)} inner / {len(outer)} outer vertices)\n"
        f"wrote {svg_path}\n"
    )
    if stdout != expected:
        return failed(f"unexpected stdout {stdout!r}")
    if not (svg_text.startswith("<svg") and svg_text.endswith("</svg>\n")):
        return failed("malformed SVG")
    for pt in inner + [tin_point(op.entry["channel"])]:
        gap = outside_distance(outer, pt)
        if gap > TOL_CONTAIN:
            return failed(f"point {pt} outside the outer region by {gap:.3g}")
    if area > ref + TOL_REFERENCE:
        return failed(f"outer area {area!r} exceeds reference {ref!r}")
    return Outcome(True, got=area, ref=ref, values=1)


def _check_grid(op: Op, stdout: str):
    """Rows of a sweep's CSV, or an Outcome when they do not match the
    reference grid."""
    e = op.entry
    rows = _parse_csv(stdout, f"{e['param']},{e['metric']}")
    if rows is None or len(rows) != len(e["rows"]) or any(len(r) != 2 for r in rows):
        return Outcome(False, "malformed sweep CSV")
    if [r[0] for r in rows] != [r[0] for r in e["rows"]]:
        return Outcome(False, "sweep grid differs from the reference")
    return rows


def check_sweep(op: Op, stdout: str) -> Outcome:
    """Every row is checked and counted; a failed row counts its value, but
    never as tighter than the reference."""
    rows = _check_grid(op, stdout)
    if isinstance(rows, Outcome):
        return rows
    e = op.entry
    got = ref = 0.0
    values = 0
    why = ""
    for (value, metric), (_, ref_metric) in zip(rows, e["rows"]):
        if ref_metric == "n/a" or metric == "n/a":
            if metric != ref_metric:
                why = why or f"{metric} where the reference has {ref_metric}"
            continue
        x, r = float(metric), float(ref_metric)
        ch = sweep_channel(e["base"], e["param"], float(value))
        tin = sum(tin_point(ch))
        row_why = ""
        if x < tin - TOL_REFERENCE:
            row_why = f"sum bound {x!r} below the TIN sum {tin!r}"
        elif x > r + TOL_REFERENCE:
            row_why = f"sum bound {x!r} exceeds reference {r!r}"
        elif (
            classify(TwoUserChannel(*ch)).kind is VerdictKind.NOISY_INTERFERENCE
            and abs(x - tin) > TOL_NOISY
        ):
            row_why = f"sum bound {x!r} is not the noisy capacity {tin!r}"
        why = why or row_why
        got, ref, values = got + (max(x, r) if row_why else x), ref + r, values + 1
    return Outcome(not why, why, got=got, ref=ref, values=values)


def _json(stdout: str):
    try:
        return json.loads(stdout)
    except json.JSONDecodeError:
        return None


def check_verdict(op: Op, stdout: str) -> Outcome:
    e = op.entry
    kind = e["op"]
    if kind == "lightsweep":
        rows = _check_grid(op, stdout)
        if isinstance(rows, Outcome):
            return rows
        for (value, metric), (_, ref_metric) in zip(rows, e["rows"]):
            ch = sweep_channel(e["base"], e["param"], float(value))
            if e["metric"] == "verdict":
                ok = metric == ref_metric
            elif e["metric"] == "sum-tin":
                ok = abs(float(metric) - sum(tin_point(ch))) <= TOL_REFERENCE
            else:  # tdm-best: orthogonal sharing peaks at 0.5*log2(1 + p1 + p2)
                ok = abs(float(metric) - 0.5 * math.log2(1.0 + ch[2] + ch[3])) <= TOL_REFERENCE
            if not ok:
                return Outcome(False, f"{e['metric']} {metric} at {value}")
        return Outcome(True)
    payload = _json(stdout)
    if not isinstance(payload, dict):
        muser = kind == "muser"
        return Outcome(False, "output is not a JSON object",
                       ref=1.0 if muser and e["feasible"] else 0.0, values=int(muser))
    if kind == "classify2":
        if payload.get("kind") != e["verdict"]:
            return Outcome(False, f"kind {payload.get('kind')} != {e['verdict']}")
        return Outcome(True)
    if kind == "threshold":
        value, ref = payload.get(e["key"]), e["value"]
        if not isinstance(value, float) or abs(value - ref) > TOL_REFERENCE * max(1.0, abs(ref)):
            return Outcome(False, f"{e['key']} {value!r} != {ref!r}")
        return Outcome(True)
    # m-user verdict, from murate --json or classify --config.  A failed
    # request counts as not certified.
    ref = 1.0 if e["feasible"] else 0.0
    if payload.get("kind") != e["verdict"]:
        return Outcome(False, f"kind {payload.get('kind')} != {e['verdict']}", ref=ref, values=1)
    if payload.get("provably_infeasible") != e["provably_infeasible"]:
        return Outcome(False, "provably_infeasible differs from the reference", ref=ref, values=1)
    certified = 0.0
    rho = payload.get("rho")
    if rho is not None:
        ch = MUserChannel(gains=e["gains"], powers=e["powers"])
        if float(check_conditions(ch, rho).max()) > 0.0:
            return Outcome(False, "returned rho fails check_conditions", ref=ref, values=1)
        certified = 1.0
    return Outcome(True, got=certified, ref=ref, values=1)


def check(workload: str, op: Op, stdout: str) -> Outcome:
    if workload == "region":
        return check_region(op, stdout)
    if workload == "sweep":
        return check_sweep(op, stdout)
    return check_verdict(op, stdout)
