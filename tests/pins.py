"""Pin the CLI's output bytes: write ``tests/data/cli_records.json``.

    python tests/pins.py

The script takes no options and puts its checkout's ``src`` and root on
``sys.path`` itself.  It runs these requests in process, through
``bench.workloads.execute``, each in a fresh temporary directory:

- ``region``, ``sweep``, ``verdicts``: every entry of that pool of
  ``bench/reference.json``, as ``bench.workloads.make_op`` builds it;
- ``oracle``: ``murate --oracle-resolution 16`` on the ``verdicts`` pool's
  m <= 4 channels of its feasible and provable strata;
- ``cli``: the argv that the file records for each named request, such as
  classify on every verdict, the region CSV and SVG, a sweep per metric and
  both threshold forms (to pin one more, add its name and argv to the
  file's ``cli`` group and run the script).

For each request the file records its argv, as a shell command line, its
exit status, stdout, stderr and the files it wrote.  Texts are lists of
lines, each line with its end, and the temporary directory is written as
``{dir}``.
Each record is checked by exactly one test, the one that ``part`` names:
``check`` rebuilds that part's records and names every request whose record
differs from the file's, so a moved request fails one test and the failure
names it.  A change that moves output bytes runs this script, and
``git diff tests/data`` lists the moved lines.  pytest does not collect
this module.
"""

from __future__ import annotations

import json
import shlex
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from bench.workloads import execute, load_reference, make_op  # noqa: E402

PATH = ROOT / "tests" / "data" / "cli_records.json"
POOLS = ("region", "sweep", "verdicts")
ORACLE = ["--oracle-resolution", "16"]
# sum-upper sweeps of the criterion-3 curve, a regime and a noisy channel,
# and one regime and one noisy sweep per --param choice.
SUM_UPPER = ("criterion3", "a-regime-0", "symmetric-p-noisy-0")
SUM_UPPER_STRATA = tuple(f"{param}-{kind}-1" for param in
                         ("a", "b", "p1", "p2", "symmetric-a", "symmetric-p")
                         for kind in ("regime", "noisy"))


def cli_runs() -> dict[str, list[str]]:
    """The argv of each ``cli`` request, by name, as the file records it;
    {dir} stands for the request's directory."""
    recorded = json.loads(PATH.read_text())["records"]["cli"]
    return {name: shlex.split(record["argv"]) for name, record in recorded.items()}


def requests():
    """(group, name, argv in a given directory) of every request, in file order."""
    reference = load_reference()
    groups = {group: reference[group] for group in POOLS}
    groups["oracle"] = [e for e in reference["verdicts"] if e["op"] == "muser" and e["m"] <= 4
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


def run(groups=(*POOLS, "cli", "oracle"), of_part=None):
    """Run the requests of ``groups``, of part ``of_part`` if given, in file
    order, and yield each one's (group, name, record)."""
    for group, name, argv_in in requests():
        if group not in groups or of_part not in (None, part(group, name)):
            continue
        with tempfile.TemporaryDirectory() as tmp:
            workdir = Path(tmp)
            argv = argv_in(workdir)
            inputs = set(workdir.iterdir())
            code, out, err, _ = execute(argv)
            files = {p.name: p.read_text() for p in sorted(set(workdir.iterdir()) - inputs)}

            def lines(text: str) -> list[str]:
                return text.replace(tmp, "{dir}").splitlines(keepends=True)

            yield group, name, {
                "argv": shlex.join(a.replace(tmp, "{dir}") for a in argv),
                "code": code,
                "stdout": lines(out),
                "stderr": lines(err),
                "files": {file: lines(text) for file, text in files.items()},
            }


def check(of_part: str) -> None:
    """Fail, naming each one, if a request of ``of_part`` moved: its rebuilt
    record differs from the file's."""
    pinned = json.loads(PATH.read_text())["records"]
    moved = [f"{group}/{name}" for group, name, record in run(of_part=of_part)
             if record != pinned[group][name]]
    assert moved == [], (
        f"requests moved ({len(moved)}): {', '.join(moved)}; "
        "re-pin with python tests/pins.py and read git diff tests/data"
    )


def dumps(recs: dict) -> str:
    """The text of ``tests/data/cli_records.json`` holding ``recs``."""
    return json.dumps({"note": "python tests/pins.py", "records": recs}, indent=1) + "\n"


if __name__ == "__main__":
    recs: dict[str, dict[str, dict]] = {}
    for group, name, record in run():
        recs.setdefault(group, {})[name] = record
    PATH.write_text(dumps(recs))
