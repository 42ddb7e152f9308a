"""The CLI's output bytes over the bench pools and ``cli_bytes.json``, as
the four hashes of ``tests/output_hash.py``, equal their pins in
``tests/data/output_hashes.json``."""

import json
from pathlib import Path

import output_hash

PINNED = json.loads((Path(__file__).parent / "data" / "output_hashes.json").read_text())


def test_output_hashes_equal_their_pins():
    got = output_hash.hashes()
    assert list(got) == list(PINNED["hashes"])
    moved = [name for name, pin in PINNED["hashes"].items() if got[name] != pin]
    assert moved == [], f"output bytes moved in: {', '.join(moved)}"
