"""Pin the package's outputs: rewrite every generated file of ``tests/data``.

    python tests/pins.py

The script takes no options and puts its checkout's ``src`` and root on
``sys.path`` itself.  Each generated file has one generator in
``GENERATORS``, which takes the file, keeps the inputs it records and
returns it with today's outputs; the script writes each with ``dumps``:

- ``cli_records.json``: for every request, its argv (a shell command line),
  exit status, stdout, stderr and written files, texts as lists of lines
  and the temporary directory as ``{dir}``.  ``requests`` are every entry
  of the ``region``, ``sweep`` and ``verdicts`` pools of
  ``bench/reference.json`` (the pool's m-user verdicts are pinned here
  only), ``murate --oracle-resolution 16`` on the pool's m <= 4 feasible and
  provable channels, and the named ``cli`` argv that the file records (to
  pin one more, add its name and argv to that group and run the script).
- ``find_rho.json``: ``find_rho``'s verdicts on 100 seeded random channels.
- ``mu_lines.json``, ``mu_tail.json``: MU lines of default outer regions.
- ``mu_scalar.json``: its ``p1_star`` and ``p2_star`` columns; its
  ``eval_constraint1`` and ``user1`` values are kept, as the former scalar
  implementation gave them.

``HISTORICAL`` names the files that no generator writes.  One test compares
each pinned value with its generator and names every entry that moved:
``check`` a part of the records (``part`` names its test), ``check_file`` a
library file.  ``built`` runs the requests once per process and notes each
argparse call.  After a change, ``git diff tests/data`` lists every moved
value.  pytest does not collect this module.
"""

from __future__ import annotations

import functools
import json
import shlex
import sys
import tempfile
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from bench.workloads import execute, load_reference, make_op  # noqa: E402
from gicbounds import (  # noqa: E402
    GenieParams,
    MUserChannel,
    TwoUserChannel,
    WeightKind,
    effective_powers,
    find_rho,
)
from gicbounds import cli  # noqa: E402
from gicbounds.region import build_outer_region  # noqa: E402

DATA = ROOT / "tests" / "data"
# The four-coordinate search's MU lines and the bisection's thresholds.
HISTORICAL = ("mu_reference.json", "threshold_p.json")
POOLS = ("region", "sweep", "verdicts")
ORACLE = ["--oracle-resolution", "16"]
# sum-upper sweeps of the criterion-3 curve, a regime and a noisy channel,
# and one regime and one noisy sweep per --param choice.
SUM_UPPER = ("criterion3", "a-regime-0", "symmetric-p-noisy-0")
SUM_UPPER_STRATA = tuple(f"{param}-{kind}-1" for param in
                         ("a", "b", "p1", "p2", "symmetric-a", "symmetric-p")
                         for kind in ("regime", "noisy"))


def load(name: str) -> dict:
    return json.loads((DATA / name).read_text())


def dumps(data: dict) -> str:
    """The text of a generated file holding ``data``."""
    return json.dumps(data, indent=1) + "\n"


def muser_pool() -> list[dict]:
    """The m-user entries of the ``verdicts`` pool, in pool order."""
    return [e for e in load_reference()["verdicts"] if e["op"] == "muser"]


def cli_runs() -> dict[str, list[str]]:
    """The argv of each ``cli`` request, by name, as the file records it;
    {dir} stands for the request's directory."""
    recorded = load("cli_records.json")["records"]["cli"]
    return {name: shlex.split(record["argv"]) for name, record in recorded.items()}


def requests():
    """(group, name, argv in a given directory) of every request, in file order."""
    reference = load_reference()
    groups = {group: reference[group] for group in POOLS}
    groups["oracle"] = [e for e in muser_pool() if e["m"] <= 4
                        and e["stratum"].endswith(("/feasible", "/provable"))]
    for group, entries in groups.items():
        tail = ORACLE if group == "oracle" else []
        for entry in entries:
            yield group, entry["id"], lambda workdir, entry=entry, tail=tail: (
                make_op(entry, workdir).argv + tail
            )
    for name, argv in cli_runs().items():
        yield "cli", name, lambda workdir, argv=argv: [
            a.replace("{dir}", str(workdir)) for a in argv
        ]


def part(group: str, name: str) -> str:
    """The name of the one test that checks a request's record."""
    if group in ("cli", "verdicts", "oracle"):
        return "cli_bytes" if group == "cli" else "verdicts"
    if group == "sweep" and name in SUM_UPPER + SUM_UPPER_STRATA:
        return "sum_upper" if name in SUM_UPPER else "sum_upper_strata"
    return "records"


def record(argv_in) -> dict:
    """Run one request in a fresh directory and return its record."""
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        argv = argv_in(workdir)
        inputs = set(workdir.iterdir())
        code, out, err, _ = execute(argv)
        files = {p.name: p.read_text() for p in sorted(set(workdir.iterdir()) - inputs)}

        def lines(text: str) -> list[str]:
            return text.replace(tmp, "{dir}").splitlines(keepends=True)

        return {
            "argv": shlex.join(a.replace(tmp, "{dir}") for a in argv),
            "code": code,
            "stdout": lines(out),
            "stderr": lines(err),
            "files": {file: lines(text) for file, text in files.items()},
        }


@functools.cache
def built() -> tuple[dict[str, dict[str, dict]], tuple[str, ...]]:
    """Every request's record, by group and name, and the ``group/name`` of
    the request of each argparse call, from one run of them all; callers
    share the result and only read it."""
    recs: dict[str, dict[str, dict]] = {}
    argparsed = []
    parse = cli._Parser.parse_known_args
    calls = []

    def counted(self, *args, **kwargs):
        calls.append(self)
        return parse(self, *args, **kwargs)

    with mock.patch.object(cli._Parser, "parse_known_args", counted):
        for group, name, argv_in in requests():
            calls.clear()
            recs.setdefault(group, {})[name] = record(argv_in)
            argparsed += [f"{group}/{name}"] * len(calls)
    return recs, tuple(argparsed)


def records(pinned: dict) -> dict:
    """cli_records.json: the record of every request."""
    return {**pinned, "records": built()[0]}


def verdict(v) -> dict:
    """A ``find_rho`` verdict as find_rho.json records it."""
    return {
        "feasible": v.feasible,
        "rho": None if v.rho is None else list(v.rho),
        "best_probe": None if v.best_probe is None else list(v.best_probe),
        "slacks": v.slacks.tobytes().hex(),
        "max_slack": repr(v.max_slack),
        "note": v.note,
        "provably_infeasible": v.provably_infeasible,
    }


def find_rho_verdicts(pinned: dict) -> dict:
    """find_rho.json: each entry's verdict on its channel."""
    return {**pinned, "entries": [
        {**e, "verdict": verdict(find_rho(
            MUserChannel(gains=e["gains"], powers=e["powers"])))}
        for e in pinned["entries"]
    ]}


def mu_lines(pinned: dict) -> dict:
    """mu_lines.json: the MU lines of each channel's outer region."""
    def lines(channel):
        region = build_outer_region(TwoUserChannel(*channel), pinned["mu_grid"])
        return [[ln.weight, ln.value, ln.genie.rho1, ln.genie.rho2,
                 ln.genie.sigma1_sq, ln.genie.sigma2_sq]
                for ln in region.lines if ln.kind is WeightKind.MU]

    return {**pinned, "channels": {
        name: {**entry, "lines": lines(entry["channel"])}
        for name, entry in pinned["channels"].items()
    }}


def mu_tail(pinned: dict) -> dict:
    """mu_tail.json: the default outer region's line at the pinned weight."""
    region = build_outer_region(TwoUserChannel(*pinned["channel"]))
    (line,) = [ln for ln in region.lines if ln.weight == pinned["weight"]]
    g = line.genie
    return {**pinned, "value": line.value,
            "genie": [g.rho1, g.rho2, g.sigma1_sq, g.sigma2_sq],
            "effective": list(line.effective)}


def mu_scalar(pinned: dict) -> dict:
    """mu_scalar.json: p1_star and p2_star at each point; the rest as pinned."""
    return {**pinned, "mu": [
        [*row[:10], *effective_powers(TwoUserChannel(*row[:4]), row[4], GenieParams(*row[5:9]))]
        for row in pinned["mu"]
    ]}


GENERATORS = {
    "cli_records.json": records,
    "find_rho.json": find_rho_verdicts,
    "mu_lines.json": mu_lines,
    "mu_tail.json": mu_tail,
    "mu_scalar.json": mu_scalar,
}


def check(of_part: str) -> None:
    """Fail, naming each one, if a request of ``of_part`` moved: its rebuilt
    record differs from the file's."""
    pinned = load("cli_records.json")["records"]
    moved = [f"{group}/{name}" for group, recs in built()[0].items()
             for name, rec in recs.items()
             if part(group, name) == of_part and rec != pinned[group].get(name)]
    assert moved == [], (
        f"requests moved ({len(moved)}): {', '.join(moved)}; "
        "re-pin with python tests/pins.py and read git diff tests/data"
    )


def changed(old, new, path: str) -> list[str]:
    """The paths at which ``new`` differs from ``old``, down to each moved
    value; a list item with an "id" is named by it."""
    if isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        items = [(key, old[key], new[key]) for key in old]
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        items = [(o.get("id", i) if isinstance(o, dict) else i, o, n)
                 for i, (o, n) in enumerate(zip(old, new))]
    else:
        return [] if old == new else [path]
    return [p for key, o, n in items for p in changed(o, n, f"{path}/{key}")]


def check_file(name: str) -> None:
    """Fail, naming each one, if a value of the library file ``name`` moved:
    it differs from what the file's generator returns."""
    pinned = load(name)
    moved = changed(pinned, GENERATORS[name](pinned), name)
    assert moved == [], (
        f"values moved ({len(moved)}): {', '.join(moved)}; "
        "re-pin with python tests/pins.py and read git diff tests/data"
    )


if __name__ == "__main__":
    for name, generate in GENERATORS.items():
        (DATA / name).write_text(dumps(generate(load(name))))
