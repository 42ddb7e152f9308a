"""``tests/pins.py`` writes every file of ``tests/data`` but its historical
references, and a re-pin leaves each as it is: its values are checked
against their generators by the tests that read them, and its layout here.
The requests of ``tests/pins.py`` are those that
``tests/data/cli_records.json`` records, and every request that no other
test checks (``pins.part``) exits, prints and writes byte for byte what the
file records for it."""

import pins


def test_records_equal_their_pins():
    pinned = pins.load("cli_records.json")["records"]
    assert [(g, n) for g, recs in pinned.items() for n in recs] == [r[:2] for r in pins.requests()]
    pins.check("records")


def test_every_data_file_is_generated_or_historical():
    # A file that no generator writes and no test reads as a reference pins nothing.
    names = sorted(path.name for path in pins.DATA.iterdir())
    assert names == sorted([*pins.GENERATORS, *pins.HISTORICAL])
    relaid = [name for name in pins.GENERATORS
              if pins.dumps(pins.load(name)) != (pins.DATA / name).read_text()]
    assert relaid == []  # a re-pin would lay these out anew
