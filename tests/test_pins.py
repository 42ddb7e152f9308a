"""The requests of ``tests/pins.py`` are those that
``tests/data/cli_records.json`` records, the file is as a re-pin writes it,
and every request that no other test checks (``pins.part``) exits, prints
and writes byte for byte what the file records for it."""

import json

import pins


def test_records_equal_their_pins():
    pinned = json.loads(pins.PATH.read_text())["records"]
    assert [(g, n) for g, recs in pinned.items() for n in recs] == [r[:2] for r in pins.requests()]
    assert pins.dumps(pinned) == pins.PATH.read_text()  # a re-pin leaves the file as it is
    pins.check("records")
