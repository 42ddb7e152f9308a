"""Hash the CLI's output over the benchmark pools and the pinned CLI requests.

    python tests/output_hash.py
    python tests/output_hash.py --records PATH

The script puts its checkout's ``src`` and root on ``sys.path`` itself.
It runs, in process, every entry of the ``region``, ``sweep`` and
``verdicts`` pools of ``bench/reference.json`` through
``bench.workloads.make_op`` and ``execute``, each in a fresh temporary
directory, and every request of ``tests/data/cli_bytes.json``.  For each of
the four sets it prints one sha256 over every request's exit status,
stdout, stderr and written files, with the temporary directory replaced by
``{dir}``.  Equal hashes on two checkouts mean byte-identical CLI output.
``tests/data/output_hashes.json`` pins the four, and
``tests/test_output_hash.py`` recomputes them in process with ``hashes``:
a change that moves output bytes re-pins that file and lists the moves.

With ``--records PATH`` the script also writes one JSON line per request to
PATH: its set, its index in the set, and the record text that the set's
hash takes.  ``diff`` of two checkouts' files lists exactly the requests
whose output moved.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from bench.workloads import execute, load_reference, make_op  # noqa: E402


def record(argv: list[str], workdir: Path) -> str:
    """One request's outcome as JSON text, ``workdir`` written as {dir}."""
    inputs = set(workdir.iterdir())
    code, out, err, _ = execute(argv)
    files = {p.name: p.read_text() for p in sorted(set(workdir.iterdir()) - inputs)}
    outcome = {"code": code, "stdout": out, "stderr": err, "files": files}
    return json.dumps(outcome, sort_keys=True).replace(str(workdir), "{dir}")


def pool_records(entries: list[dict]):
    for entry in entries:
        with tempfile.TemporaryDirectory() as tmp:
            op = make_op(entry, Path(tmp))
            yield record(op.argv, Path(tmp))


def cli_bytes_records():
    pinned = json.loads((ROOT / "tests" / "data" / "cli_bytes.json").read_text())
    for entry in pinned["runs"].values():
        with tempfile.TemporaryDirectory() as tmp:
            argv = [a.replace("{dir}", tmp) for a in entry["argv"]]
            yield record(argv, Path(tmp))


def hashes(log=None) -> dict[str, dict]:
    """Each set's request count and sha256, by set name, in print order;
    each request's (set, index, record) also written to ``log`` as a JSON
    line, if given."""
    reference = load_reference()
    sets = {name: pool_records(reference[name]) for name in ("region", "sweep", "verdicts")}
    sets["cli_bytes"] = cli_bytes_records()
    out = {}
    for name, records in sets.items():
        total, count = hashlib.sha256(), 0
        for text in records:
            total.update(text.encode() + b"\n")
            if log is not None:
                log.write(json.dumps({"set": name, "index": count, "record": text}) + "\n")
            count += 1
        out[name] = {"requests": count, "sha256": total.hexdigest()}
    return out


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description="Hash the CLI's output over the bench pools.")
    parser.add_argument("--records", type=Path, help="also write each request's record to this file")
    args = parser.parse_args(argv)
    with args.records.open("w") if args.records else contextlib.nullcontext() as log:
        got = hashes(log)
    for name, pin in got.items():
        print(f"{name} ({pin['requests']} requests): {pin['sha256']}")


if __name__ == "__main__":
    main()
