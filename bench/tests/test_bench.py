"""Tests of the benchmark's own metric, tracing and check code.  None of them
times anything or runs a region or sweep computation."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from gicbounds import RateRegion, genie, region  # noqa: E402

from bench import metrics, run, tracing, workloads  # noqa: E402


def _boundary(reg):
    return [(p.r1, p.r2) for p in reg.boundary]


def test_shoelace_area_of_known_regions():
    square = RateRegion((), ((1.0, 0.0, 1.0), (0.0, 1.0, 1.0)))
    assert metrics.polygon_area(_boundary(square)) == pytest.approx(1.0, abs=1e-15)
    # caps 2 and 1 cut by R1 + R2 <= 2: a unit square plus a half-unit triangle
    cut = RateRegion((), ((1.0, 0.0, 2.0), (0.0, 1.0, 1.0), (1.0, 1.0, 2.0)))
    assert metrics.polygon_area(_boundary(cut)) == pytest.approx(1.5, abs=1e-15)


def test_outside_distance():
    frontier = [(0.0, 1.0), (1.0, 1.0), (2.0, 0.0)]
    assert metrics.outside_distance(frontier, (0.5, 0.5)) < 0
    assert metrics.outside_distance(frontier, (1.5, 0.5)) == pytest.approx(0.0, abs=1e-15)
    assert metrics.outside_distance(frontier, (2.0, 1.0)) == pytest.approx(2 ** -0.5)
    assert metrics.outside_distance(frontier, (2.5, 0.0)) == pytest.approx(0.5)


def test_p90_omitted_below_100_samples():
    assert metrics.p90_or_none([0.1] * 99) is None
    values = [float(i) for i in range(100)]
    assert metrics.p90_or_none(values) == pytest.approx(89.1)
    assert metrics.percentile(values, 50.0) == metrics.median(values)


def test_self_time_on_synthetic_spans():
    # root [0, 10] with children [1, 3] and [2, 5] (overlapping) and [8, 12]
    # (clipped to the root); [2.5, 4] is a grandchild under [2, 5].
    start = [0.0, 1.0, 2.0, 2.5, 8.0]
    end = [10.0, 3.0, 5.0, 4.0, 12.0]
    parent = [-1, 0, 0, 2, 0]
    selfs = tracing.self_times(start, end, parent)
    assert selfs == pytest.approx([10.0 - 4.0 - 2.0, 2.0, 1.5, 1.5, 4.0])


def test_tracer_wraps_every_reference_and_restores_them():
    original = genie.optimize_constraint1
    argv = ["classify", "--a", "0.04", "--b", "0.09", "--p1", "10", "--p2", "20"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert region.optimize_constraint1 is genie.optimize_constraint1
        assert genie.optimize_constraint1 is not original
        workloads.execute(argv)
    finally:
        tracer.uninstall()
    assert genie.optimize_constraint1 is original
    assert region.optimize_constraint1 is original
    workloads.execute(argv)  # not recorded
    spans = tracer.spans()
    names = [s[0] for s in spans]
    assert names.count("cli.main") == 1
    classify = spans[names.index("capacity.classify")]
    assert spans[classify[3]][0] == "cli.main"
    values = tracing.per_layer_values(tracer, 1.0, {
        "setup.import_s": 0.0, "setup.inputs_s": 0.0, "trace.overhead_s": 0.0})
    assert values["capacity.classify.calls"] == 1
    assert values["genie.optimize_constraint1.calls"] == 0
    assert 0 < values["cli.main.self_s"] < spans[0][2] - spans[0][1]


def test_per_layer_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.PER_LAYER


def _sweep_entry():
    return next(e for e in workloads.load_reference()["sweep"]
                if e["stratum"] == "p1/noisy")


def _sweep_stdout(entry, rows):
    return "\n".join([f"{entry['param']},{entry['metric']}"] + [",".join(r) for r in rows]) + "\n"


def test_altered_sweep_csv_value_is_a_failure(monkeypatch, tmp_path):
    entry = _sweep_entry()
    op = workloads.make_op(entry, tmp_path)
    good = _sweep_stdout(entry, entry["rows"])
    assert workloads.check("sweep", op, good).ok
    rows = [list(r) for r in entry["rows"]]
    rows[1][1] = repr(float(rows[1][1]) + 1e-6)  # a looser bound than the reference
    bad = _sweep_stdout(entry, rows)
    assert not workloads.check("sweep", op, bad).ok

    outputs = iter([good, bad])
    monkeypatch.setattr(workloads, "execute", lambda argv: (0, next(outputs), "", 1e-3))
    result = run._run_pass("sweep", [op, op], lambda i: None)
    assert len(result.failures) == 1
    # the failed op's looser bound still reaches the quality totals
    assert result.got == pytest.approx(result.ref + 1e-6, abs=1e-12)


def test_altered_region_csv_value_is_a_failure(tmp_path):
    entry = {"op": "region", "channel": [0.04, 0.09, 10.0, 20.0], "outer_area": 7.5}
    op = workloads.make_op(entry, tmp_path)
    csv_path, svg_path = op.files
    stdout = f"wrote {csv_path} (2 inner / 3 outer vertices)\nwrote {svg_path}\n"
    svg_path.write_text("<svg>\n</svg>\n")
    rows = ["0,3,inner", "2,0,inner", "0,3,outer", "2,3,outer", "3,0,outer"]

    def check(rows):
        csv_path.write_text("\n".join(["r1_bits,r2_bits,kind"] + rows) + "\n")
        return workloads.check("region", op, stdout)

    assert check(rows).ok
    looser = check(rows[:3] + ["2.5,3,outer"] + rows[4:])  # area above reference
    assert not looser.ok and looser.got > looser.ref == 7.5
    assert not check(rows[:1] + ["3.5,0,inner"] + rows[2:]).ok  # inner vertex outside
