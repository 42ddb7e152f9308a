"""Hash the CLI's output over the benchmark pools and the pinned CLI requests.

    python tests/output_hash.py

The script puts its checkout's ``src`` and root on ``sys.path`` itself.
It runs, in process, every entry of the ``region``, ``sweep`` and
``verdicts`` pools of ``bench/reference.json`` through
``bench.workloads.make_op`` and ``execute``, each in a fresh temporary
directory, and every request of ``tests/data/cli_bytes.json``.  For each of
the four sets it prints one sha256 over every request's exit status,
stdout, stderr and written files, with the temporary directory replaced by
``{dir}``.  Equal hashes on two checkouts mean byte-identical CLI output.
"""

from __future__ import annotations

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


def main() -> None:
    reference = load_reference()
    sets = {name: pool_records(reference[name]) for name in ("region", "sweep", "verdicts")}
    sets["cli_bytes"] = cli_bytes_records()
    for name, records in sets.items():
        total, count = hashlib.sha256(), 0
        for text in records:
            total.update(text.encode() + b"\n")
            count += 1
        print(f"{name} ({count} requests): {total.hexdigest()}")


if __name__ == "__main__":
    main()
