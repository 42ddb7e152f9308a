"""The CLI's output bytes over the bench pools and ``cli_bytes.json``, as
the four hashes of ``tests/output_hash.py``, equal their pins in
``tests/data/output_hashes.json``; its ``--records`` file holds what they
hash."""

import hashlib
import json
from pathlib import Path

import output_hash

PINNED = json.loads((Path(__file__).parent / "data" / "output_hashes.json").read_text())


def test_output_hashes_equal_their_pins():
    got = output_hash.hashes()
    assert list(got) == list(PINNED["hashes"])
    moved = [name for name, pin in PINNED["hashes"].items() if got[name] != pin]
    assert moved == [], f"output bytes moved in: {', '.join(moved)}"


def test_records_file_hashes_to_the_set_hashes(tmp_path):
    # Each set's records, in file order, hash to that set's sha256, so a
    # diff of two checkouts' files lists every request that moves a hash.
    path = tmp_path / "records.jsonl"
    output_hash.main(["--records", str(path)])
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    hashed = {}
    for name in dict.fromkeys(row["set"] for row in rows):
        records = [row for row in rows if row["set"] == name]
        assert [row["index"] for row in records] == list(range(len(records)))
        total = hashlib.sha256(b"".join(row["record"].encode() + b"\n" for row in records))
        hashed[name] = {"requests": len(records), "sha256": total.hexdigest()}
    assert hashed == output_hash.hashes()
