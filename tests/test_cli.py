import argparse
import contextlib
import dataclasses
import enum
import functools
import inspect
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

import gicbounds
from gicbounds import TwoUserChannel, cli, multiuser, tdm_fdm_sum_rate, tin_rates
from gicbounds.cli import main
from gicbounds.config import (
    ConfigError,
    SweepSpec,
    db_to_linear,
    linear_to_db,
    load_channel_config,
)
import pins
from verify import is_exact_witness

FIG1_ARGS = ["--a", "0.04", "--b", "0.09", "--p1", "10", "--p2", "20"]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


BAD_INPUT_ARGV = [
    ["classify", "--a", "0.1", "--b", "0.1", "--p1", "1"],  # missing p2
    ["classify", "--a", "-1", "--b", "0", "--p1", "1", "--p2", "1"],
    ["classify"],
    ["classify", "--a", "x", "--b", "0", "--p1", "1", "--p2", "1"],
    # 10^400 overflows a float
    ["classify", "--a", "4000", "--b", "0.1", "--p1", "1", "--p2", "1", "--db"],
    ["classify", "--a", "nan", "--b", "0.1", "--p1", "1", "--p2", "1"],
    ["murate", "--a", "0.1", "--b", "0.1", "--p1", "1", "--p2", "-1", "--json"],
    # A first-family LHS past the float range: an inf slack, which strict
    # JSON cannot carry, and no overflow warning.
    ["murate", "--a", "6.713018320516784e-49", "--b", "1.7976931348623157e+308",
     "--p1", "1.5672126804357664e-261", "--p2", "1.0000000000000002", "--json"],
    # A log grid up to the largest float, read in dB: one error line, no
    # warning from the grid's end point.
    ["sweep", *FIG1_ARGS, "--param", "b", "--from", "1e-43", "--to", "1.7976931348623157e+308",
     "--points", "3", "--metric", "verdict", "--log", "--db"],
]

# Near-miss noisy channels: the float slack is within 1e-12 of 0, but the
# exact condition fails, so no certificate is built.  On the first, u =
# a(1 + b*p1)^2 is 1 in floats, and the certificate's variances would round
# to 0; on the last, the certificate's exact-box loop would step 9 million
# floats.
NEAR_MISS = ["--a", "1", "--b", "4.574733312984874e-75", "--p1", "1.9990983308135738e-287",
             "--p2", "0.25"]
NEAR_MISS_SLOW = ["--a", "0.9999999999999999", "--b", "5.580321296213911e-26",
                  "--p1", "1.0000000000000002", "--p2", "2.6820785366838408e-164"]
NEAR_MISS_ARGV = [
    ["classify", *NEAR_MISS],
    ["sweep", *NEAR_MISS, "--param", "p2", "--from", "0.125", "--to", "0.25", "--points", "2",
     "--metric", "verdict"],
    ["classify", *NEAR_MISS_SLOW],
]

BAD_CONFIGS = [
    ({"a": None, "b": 0.1, "p1": 1, "p2": 1}, "a must be numeric"),
    ({"a": [1], "b": 0.1, "p1": 1, "p2": 1}, "a must be numeric"),
    ({"gains": [[1, 0.1], [0.1, 1]], "powers": {"x": 1}}, "powers must be numeric"),
    # 10^400 overflows a float
    (
        {"gains": [[0, 4000, 1], [1, 0, 1], [1, 1, 0]], "powers": [1, 1, 1],
         "units": "db"},
        "4000.0 dB is too large",
    ),
    # JSON booleans and strings are not numbers, in either form
    ({"a": True, "b": 0.1, "p1": 1, "p2": 1}, "a must be numeric"),
    ({"a": "0.1", "b": 0.1, "p1": 1, "p2": 1}, "a must be numeric"),
    ({"gains": [[1, True], [0.1, 1]], "powers": [1, 1]}, "gains must be numeric"),
    ({"gains": [[1, 0.1], [0.1, 1]], "powers": [1, "2"]}, "powers must be numeric"),
    # nor is null; any entry of any row, or a ragged matrix, is checked
    ({"gains": [[1, 0.1], [False, 1]], "powers": [1, 1]}, "gains must be numeric"),
    ({"gains": [[1, 0.1], [None, 1]], "powers": [1, 1]}, "gains must be numeric"),
    ({"gains": [[1, 0.1], ["0.1", 1]], "powers": [1, 1]}, "gains must be numeric"),
    ({"gains": [[1, 0.1], [[0.1], 1]], "powers": [1, 1]}, "gains must be numeric"),
    ({"gains": [[1, 0.1], [0.1]], "powers": [1, 1]}, "gains must be numeric"),
    # a JSON integer beyond the largest float, in either form
    ({"a": 10**400, "b": 0.1, "p1": 1, "p2": 1}, "a holds a number too large for a float"),
    (
        {"gains": [[1, 0.1], [0.1, 1]], "powers": [1, 10**400]},
        "powers holds a number too large for a float",
    ),
]


class TestClassifyCommand:
    def test_noisy_channel(self, capsys):
        code, out, _ = run(capsys, "classify", *FIG1_ARGS)
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "NOISY_INTERFERENCE"
        assert payload["sum_capacity_bits"] == pytest.approx(3.1198, abs=5e-5)
        assert payload["certificate"]["rho1"] > 0

    def test_trivial_channel(self, capsys):
        code, out, _ = run(capsys, "classify", "--a", "0", "--b", "0", "--p1", "1", "--p2", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "ZIC_NOISY"
        assert payload["sum_capacity_bits"] == pytest.approx(1.0, abs=1e-12)

    def test_unknown_exit_zero(self, capsys):
        code, out, _ = run(capsys, "classify", "--a", "0.5", "--b", "0.5", "--p1", "100", "--p2", "100")
        assert code == 0
        assert json.loads(out)["kind"] == "UNKNOWN"

    @pytest.mark.parametrize("argv", NEAR_MISS_ARGV)
    def test_near_miss_noisy_channel_is_unknown(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert "UNKNOWN" in out and "NOISY" not in out

    def test_near_miss_region_is_answered(self, capsys):
        code, out, err = run(capsys, "region", *NEAR_MISS_SLOW, "--mu-grid", "5", "--eta-grid", "3")
        assert (code, err) == (0, "")
        assert out.startswith("r1_bits,r2_bits,kind\n")

    def test_db_gains(self, capsys):
        a_db = 10 * math.log10(0.04)
        b_db = 10 * math.log10(0.09)
        code, out, _ = run(
            capsys, "classify", "--a", repr(a_db), "--b", repr(b_db),
            "--p1", "10", "--p2", "20", "--db",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["sum_capacity_bits"] == pytest.approx(
            tin_rates(TwoUserChannel(0.04, 0.09, 10, 20)).sum, rel=1e-9
        )

    def test_m_user_config(self, capsys, tmp_path):
        cfg = tmp_path / "ch3.json"
        cfg.write_text(json.dumps({
            "gains": [[1, 0.05, 0.05], [0.05, 1, 0.05], [0.05, 0.05, 1]],
            "powers": [5, 5, 5],
            "units": "linear",
        }))
        code, out, _ = run(capsys, "classify", "--config", str(cfg))
        assert code == 0
        payload = json.loads(out)
        assert payload["feasible"] is True
        assert payload["sum_capacity_bits"] == pytest.approx(3.173, abs=5e-4)

    def test_two_user_matrix_config(self, capsys, tmp_path):
        cfg = tmp_path / "ch2.json"
        cfg.write_text(json.dumps({
            "gains": [[1, 0.09], [0.04, 1]],
            "powers": [10, 20],
        }))
        code, out, _ = run(capsys, "classify", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["kind"] == "NOISY_INTERFERENCE"

    @pytest.mark.parametrize("command", [["classify"], ["region"], ["murate", "--json"]])
    def test_db_with_config_exit_one(self, capsys, tmp_path, command):
        # The config's "units" says how its gains read; --db would be
        # ignored, and the linear channel's verdict printed.
        cfg = tmp_path / "fig1.json"
        cfg.write_text(json.dumps({"a": 0.04, "b": 0.09, "p1": 10, "p2": 20}))
        code, out, err = run(capsys, *command, "--config", str(cfg), "--db")
        assert (code, out) == (1, "")
        assert err == 'error: --db does not apply to --config; set "units": "db" in the config\n'

    def test_non_finite_result_exit_one(self, capsys, tmp_path):
        # The condition slack of these huge gains is inf, which strict JSON
        # cannot carry: nothing goes to stdout and one error line to stderr.
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps({"gains": [[1, 1e300], [1e300, 1]], "powers": [1e10, 1e10]}))
        code, out, err = run(capsys, "classify", "--config", str(cfg))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "JSON" in err and err.count("\n") == 1

    @pytest.mark.parametrize("argv", BAD_INPUT_ARGV)
    def test_bad_input_exit_one(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err

    @pytest.mark.parametrize("payload, message", BAD_CONFIGS)
    @pytest.mark.filterwarnings("error")
    def test_bad_config_exit_one(self, capsys, tmp_path, payload, message):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(payload))
        code, out, err = run(capsys, "classify", "--config", str(cfg))
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1
        assert message in err


class TestRegionCommand:
    def test_csv_shape_and_determinism(self, capsys, tmp_path):
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        args = ["region", *FIG1_ARGS, "--mu-grid", "5", "--eta-grid", "3"]
        assert run(capsys, *args, "--out", str(out1))[0] == 0
        assert run(capsys, *args, "--out", str(out2))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert b"\r" not in out1.read_bytes()  # LF line endings only
        lines = out1.read_text().splitlines()
        assert lines[0] == "r1_bits,r2_bits,kind"
        kinds = {row.split(",")[2] for row in lines[1:]}
        assert kinds == {"inner", "outer"}

    def test_csv_roundtrip_and_tangency(self, capsys, tmp_path):
        out = tmp_path / "region.csv"
        code, _, _ = run(
            capsys, "region", *FIG1_ARGS,
            "--mu-grid", "9", "--eta-grid", "3", "--out", str(out),
        )
        assert code == 0
        rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
        outer = [(float(x), float(y)) for x, y, k in rows if k == "outer"]
        support = max(x + y for x, y in outer)
        assert support == pytest.approx(tin_rates(TwoUserChannel(0.04, 0.09, 10, 20)).sum, abs=1e-6)
        # re-parsing reproduces the in-memory vertices exactly
        from gicbounds import build_outer_region

        region = build_outer_region(TwoUserChannel(0.04, 0.09, 10, 20), 9, 3)
        assert outer == [(p.r1, p.r2) for p in region.boundary]

    def test_toy_region_csv(self):
        from gicbounds import RateRegion
        from gicbounds.cli import boundary_csv

        square = RateRegion((), ((1.0, 0.0, 1.0), (0.0, 1.0, 1.0)))
        text = boundary_csv({"outer": square.boundary})
        assert text.splitlines() == [
            "r1_bits,r2_bits,kind",
            "0,1,outer",
            "1,1,outer",
            "1,0,outer",
        ]

    def test_svg_output(self, capsys, tmp_path):
        svg = tmp_path / "region.svg"
        code, _, _ = run(
            capsys, "region", *FIG1_ARGS, "--mu-grid", "5", "--eta-grid", "2",
            "--out", str(tmp_path / "r.csv"), "--svg", str(svg),
        )
        assert code == 0
        text = svg.read_text()
        assert text.startswith("<svg") and text.count("<polyline") == 2

    def test_regime_violation_exit_one(self, capsys):
        code, _, err = run(
            capsys, "region", "--a", "1.5", "--b", "0.5", "--p1", "1", "--p2", "1"
        )
        assert code == 1 and err

    @pytest.mark.parametrize("b, p2, message", [
        # 1/b overflows, so the ETA1 weights would be nan
        ("2.468993153e-313", "2.957619649520275e-154", "the ETA1 weights, up to 1/b, overflow"),
        # 1/b is finite, but an ETA1 value overflows
        ("2.2250738585072014e-308", "1e3", "supporting line value must be finite"),
    ], ids=["weights", "value"])
    def test_tiny_crosstalk_is_one_error_line(self, capsys, b, p2, message):
        # No numpy warning either: the suite turns warnings into errors.
        code, out, err = run(
            capsys, "region", "--a", "6.209789582730149e-175", "--b", b, "--p1", "5e-324",
            "--p2", p2, "--mu-grid", "5", "--eta-grid", "3",
        )
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    def test_overflowing_grid_top_is_one_error_line(self, capsys):
        # 1/b overflows while the lower ETA1 weight does not: the region's
        # weight grid cannot reach its top, but a sum-upper sweep, which
        # reads only the lower weight, bounds the channel.
        args = ["--a", "0.1", "--b", "1e-310", "--p1", "1e10", "--p2", "1"]
        code, out, err = run(capsys, "region", *args, "--mu-grid", "5", "--eta-grid", "3")
        assert (code, out) == (1, "")
        assert err == "error: the ETA1 weight grid's top, 1/b, overflows a float at b=1e-310\n"
        code, out, err = run(capsys, "sweep", *args, "--param", "p2", "--from", "1", "--to", "2",
                             "--points", "2", "--metric", "sum-upper")
        assert (code, err) == (0, "") and "n/a" not in out

    def test_overflowing_powers_exit_one(self, capsys, tmp_path):
        # Past about 1e154 the MU bound overflows at every genie probe: bad
        # input, one error line, no numpy warning (which would raise here).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                capsys, "region", "--a", "0.01", "--b", "0.01", "--p1", "1e200",
                "--p2", "1e200", "--out", str(tmp_path / "r.csv"),
            )
        assert (code, out) == (1, "")
        assert err.startswith("error: the MU bound overflows") and err.count("\n") == 1
        assert not (tmp_path / "r.csv").exists()


BAD_GRIDS = [
    # grid -1, 0, 1: the first bad power is the one reported
    (["--param", "p1", "--from", "-1", "--to", "1", "--points", "3"],
     "error: sweep value -1.0 invalid"),
    # 10^400 overflows a float
    (["--param", "a", "--from", "3000", "--to", "4000", "--points", "2", "--db"],
     "error: 4000.0 dB is too large"),
]


class TestSweepCommand:
    def test_two_point_sweep(self, capsys):
        code, out, _ = run(
            capsys, "sweep", *FIG1_ARGS, "--param", "p1",
            "--from", "1", "--to", "2", "--points", "2", "--metric", "sum-tin",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "p1,sum-tin"
        assert len(lines) == 3

    def test_csv_values_reparse_exactly(self, capsys):
        code, out, _ = run(
            capsys, "sweep", *FIG1_ARGS, "--param", "p2",
            "--from", "0.5", "--to", "8", "--points", "5", "--metric", "sum-tin",
        )
        assert code == 0
        for row in out.strip().splitlines()[1:]:
            p2_txt, val_txt = row.split(",")
            ch = TwoUserChannel(0.04, 0.09, 10, float(p2_txt))
            assert float(val_txt) == tin_rates(ch).sum

    def test_verdict_sweep_threshold(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--a", "0.1", "--b", "0.1", "--p1", "5000", "--p2", "5000",
            "--param", "symmetric-a", "--from", "1e-3", "--to", "1.0",
            "--points", "13", "--log", "--metric", "verdict",
        )
        assert code == 0
        rows = [r.split(",") for r in out.strip().splitlines()[1:]]
        threshold = 0.002023  # symmetric gain threshold at power 5000
        for a_txt, verdict in rows:
            a = float(a_txt)
            if a < threshold * 0.999:
                assert verdict == "NOISY_INTERFERENCE", a
            elif a > threshold * 1.001:
                assert verdict == "UNKNOWN", a

    def test_sum_upper_sweep_non_monotone(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--a", "0.1", "--b", "0.1", "--p1", "5000", "--p2", "5000",
            "--param", "symmetric-a", "--from", "1e-3", "--to", "1.0",
            "--points", "12", "--log", "--metric", "sum-upper",
        )
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert rows[-1].split(",")[1] == "n/a"  # unit gain: no family applies
        vals = [float(r.split(",")[1]) for r in rows if r.split(",")[1] != "n/a"]
        assert any(  # decreases, dips, increases again: an interior local minimum
            vals[j - 1] > vals[j] < vals[j + 1] for j in range(1, len(vals) - 1)
        )

    def test_sum_upper_not_applicable_at_unit_gain(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--a", "0.5", "--b", "0.5", "--p1", "10", "--p2", "10",
            "--param", "symmetric-a", "--from", "0.5", "--to", "1.0",
            "--points", "2", "--metric", "sum-upper",
        )
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert rows[0].split(",")[1] != "n/a"
        assert rows[1].split(",")[1] == "n/a"

    def test_sum_upper_overflow(self, capsys):
        # At powers of 1e200 the weight-1 MU search overflows at every probe,
        # an error; at p1 = 1e300 some probes overflow, and no numpy warning
        # reaches stderr (it would raise here).
        channel = ["--a", "0.01", "--b", "0.01", "--p1", "1e200", "--p2", "1e200"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                capsys, "sweep", *channel, "--param", "p1", "--from", "1e200", "--to", "2e200",
                "--points", "2", "--metric", "sum-upper",
            )
            assert (code, out) == (1, "")
            assert err.startswith("error: the MU bound overflows") and err.count("\n") == 1
            code, out, err = run(
                capsys, "sweep", "--a", "0.5", "--b", "0.5", "--p1", "1e300", "--p2", "1",
                "--param", "p2", "--from", "1", "--to", "2", "--points", "3",
                "--metric", "sum-upper",
            )
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == "p2,sum-upper" and len(out.splitlines()) == 4

    def test_pinned_sum_upper_sweeps(self):
        # sum-upper rows of three benchmark sweeps (the criterion-3 curve, a
        # regime channel, noisy channels), pinned to the last digit.
        pins.check("sum_upper")

    def test_pinned_sum_upper_strata(self):
        # One regime and one noisy benchmark sweep per --param choice: each
        # regime row is a weight-1 MU search, pinned to the last digit.
        pins.check("sum_upper_strata")

    @pytest.mark.parametrize("grid, message", BAD_GRIDS)
    def test_bad_grid_value_exit_one(self, capsys, grid, message):
        code, out, err = run(capsys, "sweep", *FIG1_ARGS, *grid, "--metric", "sum-upper")
        assert code == 1 and not out
        assert err.startswith(message)

    def test_tdm_best_beats_fixed_splits(self, capsys):
        code, out, _ = run(
            capsys, "sweep", *FIG1_ARGS, "--param", "p1",
            "--from", "5", "--to", "10", "--points", "2", "--metric", "tdm-best",
        )
        assert code == 0
        for row, p1 in zip(out.strip().splitlines()[1:], (5.0, 10.0)):
            best = float(row.split(",")[1])
            ch = TwoUserChannel(0.04, 0.09, p1, 20)
            assert best >= max(tdm_fdm_sum_rate(ch, al) for al in (0.2, 0.5, 0.8)) - 1e-9

    def test_tdm_best_matches_numeric_maximum(self, capsys):
        code, out, _ = run(
            capsys, "sweep", *FIG1_ARGS, "--param", "p1", "--log",
            "--from", "0.5", "--to", "500", "--points", "4", "--metric", "tdm-best",
        )
        assert code == 0
        for row in out.strip().splitlines()[1:]:
            p1, best = map(float, row.split(","))
            ch = TwoUserChannel(0.04, 0.09, p1, 20)
            res = minimize_scalar(
                lambda alpha: -tdm_fdm_sum_rate(ch, alpha),
                bounds=(1e-9, 1.0 - 1e-9),
                method="bounded",
                options={"xatol": 1e-12},
            )
            assert best == pytest.approx(-res.fun, abs=1e-12)

    def test_db_with_config_reads_the_gain_grid(self, capsys, tmp_path):
        cfg = tmp_path / "fig1.json"
        cfg.write_text(json.dumps({"a": 0.04, "b": 0.09, "p1": 10, "p2": 20}))
        code, out, err = run(
            capsys, "sweep", "--config", str(cfg), "--db", "--param", "a",
            "--from", "-20", "--to", "-10", "--points", "2", "--metric", "sum-tin",
        )
        assert (code, err) == (0, "")
        for row, a in zip(out.splitlines()[1:], (0.01, 0.1)):
            assert float(row.split(",")[1]) == pytest.approx(
                tin_rates(TwoUserChannel(a, 0.09, 10, 20)).sum, rel=1e-12
            )

    def test_bad_spec_exit_one(self, capsys):
        code, _, err = run(
            capsys, "sweep", *FIG1_ARGS, "--param", "p1",
            "--from", "2", "--to", "1", "--points", "5", "--metric", "sum-tin",
        )
        assert code == 1 and err


# Each sweep parameter and the channel fields it sets.
SWEEP_SETS = {
    "a": ("a",),
    "b": ("b",),
    "p1": ("p1",),
    "p2": ("p2",),
    "symmetric-a": ("a", "b"),
    "symmetric-p": ("p1", "p2"),
}


class TestSweepParameters:
    @pytest.mark.parametrize("db", [False, True], ids=["linear", "db"])
    @pytest.mark.parametrize("param", list(SWEEP_SETS))
    def test_parameter_sets_its_fields(self, capsys, param, db):
        # --db reads the base gains and a gain parameter's grid in dB, and
        # leaves a power parameter's grid linear.
        fields = SWEEP_SETS[param]
        gain_grid_in_db = db and set(fields) <= {"a", "b"}
        if db:
            base_flags = ["--a", "-14", "--b", "-10.5", "--p1", "10", "--p2", "20", "--db"]
            base = TwoUserChannel(10.0 ** (-14.0 / 10.0), 10.0 ** (-10.5 / 10.0), 10.0, 20.0)
        else:
            base_flags = FIG1_ARGS
            base = TwoUserChannel(0.04, 0.09, 10.0, 20.0)
        start, stop = ("-20", "-10") if gain_grid_in_db else ("0.05", "2")
        code, out, err = run(
            capsys, "sweep", *base_flags, "--param", param,
            "--from", start, "--to", stop, "--points", "3", "--metric", "sum-tin",
        )
        assert (code, err) == (0, "")
        rows = out.splitlines()
        assert rows[0] == f"{param},sum-tin" and len(rows) == 4
        for row in rows[1:]:
            raw, metric = map(float, row.split(","))
            value = 10.0 ** (raw / 10.0) if gain_grid_in_db else raw
            ch = dataclasses.replace(base, **dict.fromkeys(fields, value))
            assert metric == tin_rates(ch).sum, row


class TestSweepChannels:
    @pytest.mark.parametrize("db", [False, True], ids=["linear", "db"])
    @pytest.mark.parametrize("param", list(SWEEP_SETS))
    def test_channels_match_replace(self, param, db):
        fields = SWEEP_SETS[param]
        in_db = db and set(fields) <= {"a", "b"}
        base = TwoUserChannel(0.04, 0.09, 10.0, 20.0)
        if in_db:
            spec = SweepSpec(param, -20.0, -10.0, 5, "sum-tin")
        else:
            spec = SweepSpec(param, 0.05, 2.0, 5, "sum-tin", log_spacing=True)
        expected = [
            dataclasses.replace(base, **dict.fromkeys(fields, db_to_linear(v) if in_db else v))
            for v in map(float, spec.grid())
        ]
        built = spec.channels(base, gains_in_db=db)
        assert [tuple(map(repr, dataclasses.astuple(ch))) for ch in built] == [
            tuple(map(repr, dataclasses.astuple(ch))) for ch in expected
        ]

    def test_bad_value_keeps_its_message(self):
        base = TwoUserChannel(0.04, 0.09, 10.0, 20.0)
        with pytest.raises(ValueError) as replaced:
            dataclasses.replace(base, p1=-1.0)
        with pytest.raises(ConfigError) as built:
            SweepSpec("p1", -1.0, 1.0, 3, "sum-tin").channels(base)
        assert str(built.value) == f"sweep value -1.0 invalid: {replaced.value}"

    def test_one_grid_per_request(self, capsys, monkeypatch):
        # The grid is built once, for the channels, and read again for the rows.
        calls = []
        build = SweepSpec._grid.func
        counted = functools.cached_property(lambda spec: calls.append(spec) or build(spec))
        counted.__set_name__(SweepSpec, "_grid")
        monkeypatch.setattr(SweepSpec, "_grid", counted)
        code, out, _ = run(
            capsys, "sweep", *FIG1_ARGS, "--param", "p1", "--log",
            "--from", "1", "--to", "100", "--points", "3", "--metric", "sum-tin",
        )
        assert (code, len(out.splitlines()), len(calls)) == (0, 4, 1)


class TestMurateCommand:
    def test_with_oracle(self, capsys, tmp_path):
        cfg = tmp_path / "ch3.json"
        cfg.write_text(json.dumps({
            "gains": [[1, 0.05, 0.05], [0.05, 1, 0.05], [0.05, 0.05, 1]],
            "powers": [5, 5, 5],
        }))
        code, out, _ = run(
            capsys, "murate", "--config", str(cfg), "--oracle-resolution", "16", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["feasible"] and payload["oracle"]["feasible"]

    def test_pinned_verdicts(self):
        # Every request of the benchmark's verdicts pool (murate --json of its
        # m-user channels among them), and murate --oracle-resolution 16 on
        # its m <= 4 feasible and provable channels, byte for byte.
        pins.check("verdicts")

    @pytest.mark.parametrize("command", [["murate", "--json"], ["classify"]])
    def test_single_user_config(self, capsys, tmp_path, command):
        # One user takes find_rho's path for every m; its heuristic probe is
        # the witness.
        cfg = tmp_path / "ch.json"
        cfg.write_text(json.dumps({"gains": [[1]], "powers": [3]}))
        code, out, err = run(capsys, *command, "--config", str(cfg))
        payload = json.loads(out)
        assert (code, err, payload["feasible"], payload["sum_capacity_bits"]) == (0, "", True, 1.0)
        assert is_exact_witness([[1]], [3], payload["rho"])

    def test_two_user_flags(self, capsys):
        code, out, _ = run(capsys, "murate", *FIG1_ARGS)
        assert code == 0
        assert "feasible" in out

    def test_two_by_two_config_is_read_once(self, capsys, tmp_path, monkeypatch):
        # The config's own MUserChannel is searched: no TwoUserChannel is
        # built from it, and no MUserChannel is built again.
        cfg = tmp_path / "ch2.json"
        cfg.write_text(json.dumps({"gains": [[1, 0.09], [0.04, 1]], "powers": [10, 20]}))
        code, out, _ = run(capsys, "murate", "--config", str(cfg), "--json")
        built = []

        def counted(init):
            def post_init(self):
                built.append(type(self))
                init(self)
            return post_init

        for cls in (TwoUserChannel, multiuser.MUserChannel):
            monkeypatch.setattr(cls, "__post_init__", counted(cls.__post_init__))
        assert run(capsys, "murate", "--config", str(cfg), "--json") == (code, out, "")
        assert (code, built) == (0, [multiuser.MUserChannel])
        assert run(capsys, "murate", *FIG1_ARGS, "--json") == (code, out, "")

    @pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_nan_probe_keeps_the_finite_best(self, capsys):
        # The closed-form point squares to u = 1 in floats, where every
        # slack is nan; the heuristic probe's finite slack is reported.
        code, out, err = run(
            capsys, "murate", "--a", "3.077872879546138e-97", "--b", "0.9999999999999999",
            "--p1", "2.0528044856879358e-14", "--p2", "2.715649073805022e-29", "--json",
        )
        payload = json.loads(out)
        assert (code, err, payload["kind"]) == (0, "", "UNKNOWN")
        assert 0.0 < payload["max_slack"] == max(map(max, payload["slacks"])) < 1e-5

    def test_zero_oracle_resolution_exit_one(self, capsys):
        code, out, err = run(capsys, "murate", *FIG1_ARGS, "--oracle-resolution", "0")
        assert code == 1 and not out
        assert err.startswith("error:") and "resolution" in err

    @pytest.mark.parametrize("m, resolution, message", [
        (5, "8", "oracle supports m <= 4, got m=5"),
        (2, "65", "resolution must be in [1, 64], got 65"),
    ])
    def test_oracle_request_refused_before_search(
        self, capsys, tmp_path, monkeypatch, m, resolution, message
    ):
        def search(ch, *args, **kwargs):
            raise AssertionError("find_rho ran for a refused oracle request")

        monkeypatch.setattr(multiuser, "find_rho", search)
        cfg = tmp_path / "ch.json"
        gains = [[1.0 if i == j else 0.01 for j in range(m)] for i in range(m)]
        cfg.write_text(json.dumps({"gains": gains, "powers": [1.0] * m}))
        code, out, err = run(
            capsys, "murate", "--config", str(cfg), "--oracle-resolution", resolution
        )
        assert (code, out, err) == (1, "", f"error: {message}\n")


class Level(enum.IntEnum):
    LOW = -3
    HIGH = 2**70


JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.floats().map(np.float64),
    st.text(), st.sampled_from(Level),
)
JSON_KEYS = st.one_of(st.text(), st.integers(), st.floats(), st.none(), st.booleans())
JSON_PAYLOADS = st.recursive(JSON_SCALARS | st.builds(object), lambda children: st.one_of(
    st.lists(children, max_size=4),
    st.lists(children, max_size=4).map(tuple),
    st.dictionaries(st.text(), children, max_size=4),
    st.dictionaries(JSON_KEYS, children, max_size=2),
), max_leaves=12)


def printed(write, payload):
    """What ``write(payload)`` prints, or the type and text of its error."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            write(payload)
    except (TypeError, ValueError) as exc:
        assert out.getvalue() == ""
        return type(exc), str(exc)
    return out.getvalue()


class TestJsonWriter:
    """``_print_json`` prints what ``json.dumps(x, indent=2, allow_nan=False)``
    gives, and raises its errors, on str, int, float and enum scalars, lists,
    tuples and dicts, with nan, infinities and unsupported objects among
    them."""

    @given(JSON_PAYLOADS)
    @example({"é": [(), {}, [1.5, np.float64(-0.0)], Level.HIGH, "\u2603\n"]})
    @example([{"ok": [1, True, None]}, [float("nan")]])
    @example({"x": np.float64("-inf")})
    @example({(1, 2): 0})
    @example([1, object()])
    def test_matches_json_dumps(self, payload):
        reference = printed(lambda x: print(json.dumps(x, indent=2, allow_nan=False)), payload)
        assert printed(cli._print_json, payload) == reference


class TestOverflowingChannel:
    """A channel whose (1 + Q)^2 overflows exits 1 with one error line."""

    MESSAGE = "error: condition weights overflow"

    def test_murate_flags(self, capsys):
        for extra in ([], ["--oracle-resolution", "4"]):
            code, out, err = run(
                capsys, "murate", "--a", "0.1", "--b", "0.1", "--p1", "1e200", "--p2", "1", *extra
            )
            assert (code, out) == (1, "")
            assert err.startswith(self.MESSAGE) and err.count("\n") == 1

    @pytest.mark.parametrize("command", [["murate", "--json"], ["classify"]])
    def test_m_user_config(self, capsys, tmp_path, command):
        cfg = tmp_path / "ch.json"
        cfg.write_text(json.dumps({
            "gains": [[1, 0.1, 0.1], [0.1, 1, 0.1], [0.1, 0.1, 1]],
            "powers": [1e200, 1, 1],
        }))
        code, out, err = run(capsys, command[0], "--config", str(cfg), *command[1:])
        assert (code, out) == (1, "")
        assert err.startswith(self.MESSAGE) and err.count("\n") == 1


BAD_THRESHOLD_ARGV = [
    ["--p", "nan"],
    ["--p", "inf"],
    ["--m", "3", "--c", "nan"],
    ["--m", "3", "--c", "inf"],
    ["--m", "3", "--c", "4000", "--db"],  # 10^400 overflows a float
    # P* overflows a float
    ["--m", "2", "--c", "5e-324"],
    ["--m", "12", "--c", "1e-210"],
    # m = 10^400 overflows a float
    ["--m", "1" + "0" * 400, "--c", "0.1"],
    ["--m", "1" + "0" * 400, "--c", "0.1", "--json"],
]


# Noisy (slack -0.036), but (1 + a*p2)^2 overflows a float.
CERT_OVERFLOW_ARGS = [
    "--a", "7.75909931528045e-124", "--b", "1.41228699461945e-309",
    "--p1", "1.5086127220011277e+77", "--p2", "3.3065774990856713e+277",
]
CERT_OVERFLOW_SWEEP = ["sweep", *CERT_OVERFLOW_ARGS, "--param", "p1",
                       "--from", "1e77", "--to", "1.5086127220011277e+77", "--points", "2"]
# s1 = (k1 + root)/(2b) overflows at this b, and so does the ETA1 weight
# range that a sum-upper sweep reads.
TINY_B_ARGS = ["--a", "0.1", "--b", "1e-320", "--p1", "1", "--p2", "1"]
TINY_B_SWEEP = ["sweep", *TINY_B_ARGS, "--param", "p1", "--from", "1", "--to", "2", "--points", "2"]


class TestCertificateOverflow:
    @pytest.mark.parametrize("argv", [
        ["region", *CERT_OVERFLOW_ARGS],
        ["region", *TINY_B_ARGS],
        [*TINY_B_SWEEP, "--metric", "sum-upper"],
    ])
    def test_exit_one(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        if "1e-320" in argv:  # both tiny-b requests stop at the ETA1 weights
            assert err == "error: the ETA1 weights, up to 1/b, overflow a float at b=1e-320\n"

    @pytest.mark.parametrize("args, sweep", [
        (CERT_OVERFLOW_ARGS, CERT_OVERFLOW_SWEEP),
        (TINY_B_ARGS, TINY_B_SWEEP),
    ], ids=["cert-overflow", "tiny-b"])
    def test_verdicts_need_no_certificate(self, capsys, args, sweep):
        # The exact condition alone decides the verdict; the certificate
        # is evidence, null where its closed form overflows.
        code, out, err = run(capsys, "classify", *args)
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert (payload["kind"], payload["certificate"]) == ("NOISY_INTERFERENCE", None)
        ch = TwoUserChannel(*map(float, args[1::2]))
        assert payload["sum_capacity_bits"] == tin_rates(ch).sum
        code, out, err = run(capsys, *sweep, "--metric", "verdict")
        assert (code, err) == (0, "")
        assert [row.split(",")[1] for row in out.splitlines()[1:]] == ["NOISY_INTERFERENCE"] * 2

    def test_probe_overflow_names_the_channel(self, capsys):
        # Powers past about 1e154 overflow the bound at every probe.  (The
        # tiny gain b = 1e-320 no longer does: the probes solve the free
        # variance rather than scale it by (1 - r_B^2)/b, which overflowed.)
        code, out, err = run(
            capsys, "sweep", "--a", "0.01", "--b", "0.01", "--p1", "1e200", "--p2", "1e200",
            "--param", "p1", "--from", "1e200", "--to", "2e200", "--points", "2",
            "--metric", "sum-upper",
        )
        assert (code, out) == (1, "")
        assert err == ("error: the MU bound overflows at every genie probe on the channel "
                       "a=0.01, b=0.01, p1=1e+200, p2=1e+200\n")

    def test_sum_upper_falls_back_to_the_search(self, capsys):
        # The genie search needs no certificate: it bounds the channel by
        # its TIN sum rate, which noisy interference makes the capacity.
        code, out, err = run(capsys, *CERT_OVERFLOW_SWEEP, "--metric", "sum-upper")
        assert (code, err) == (0, "")
        ch = TwoUserChannel(*map(float, CERT_OVERFLOW_ARGS[1::2]))
        assert float(out.splitlines()[-1].split(",")[1]) == pytest.approx(
            tin_rates(ch).sum, rel=1e-15
        )


class TestThresholdCommand:
    def test_gain_threshold(self, capsys):
        code, out, _ = run(capsys, "threshold", "--p", "5000", "--json")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["a_star_db"] - (-26.99)) <= 0.15

    def test_power_threshold(self, capsys):
        code, out, _ = run(capsys, "threshold", "--m", "3", "--c", "0.05", "--json")
        assert code == 0
        assert json.loads(out)["p_star"] == pytest.approx(5.811, abs=5e-4)

    def test_conflicting_flags(self, capsys):
        code, _, err = run(capsys, "threshold", "--p", "10", "--m", "3", "--c", "0.05")
        assert code == 1 and err

    @pytest.mark.parametrize("argv", BAD_THRESHOLD_ARGV)
    def test_non_finite_input_exit_one(self, capsys, argv):
        code, out, err = run(capsys, "threshold", *argv)
        assert code == 1 and not out
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_overflowing_threshold_is_one_error_line(self, capsys, json_flag):
        code, out, err = run(capsys, "threshold", "--m", "2", "--c", "5e-324", *json_flag)
        assert (code, out) == (1, "")
        assert err.startswith("error: the power threshold overflows") and err.count("\n") == 1


class TestPinnedBytes:
    def test_cli_bytes(self):
        # Exit code, stdout, stderr and written files of classify on every
        # verdict, region CSV and SVG, a sweep per metric and both threshold
        # forms, byte for byte.
        pins.check("cli_bytes")


# Grid sizes past any address space: numpy refuses them before allocating,
# even where the system overcommits memory.  The last count also exceeds the
# largest float, which numpy's log grid converts it to.
HUGE_GRID_ARGV = [
    ["sweep", *FIG1_ARGS, "--param", "p1", "--from", "1", "--to", "2",
     "--points", str(10**16), "--metric", "sum-tin"],
    ["region", *FIG1_ARGS, "--mu-grid", str(10**16)],
    ["region", *FIG1_ARGS, "--eta-grid", str(10**16)],
    ["sweep", *FIG1_ARGS, "--param", "p1", "--from", "1", "--to", "2",
     "--points", str(10**400), "--metric", "sum-tin", "--log"],
]


# numpy's refusal of each sweep point count, as it printed with np.linspace
# and np.geomspace building the grid.
TOO_LARGE = "error: Maximum allowed size exceeded\n"
HUGE_POINTS_ERRORS = {
    10**16: "error: Unable to allocate 71.1 PiB for an array with shape (10000000000000000,)"
            " and data type float64\n",
    10**19: TOO_LARGE,
    10**20: TOO_LARGE,
    10**400: TOO_LARGE,
}


class TestExitCodes:
    @pytest.mark.parametrize("argv", HUGE_GRID_ARGV)
    def test_huge_grid_is_one_error_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("log", [False, True])
    @pytest.mark.parametrize("points", HUGE_POINTS_ERRORS)
    def test_huge_point_count_keeps_its_error(self, capsys, points, log):
        code, out, err = run(capsys, "sweep", *FIG1_ARGS, "--param", "p1", "--from", "1",
                             "--to", "2", "--points", str(points), "--metric", "sum-tin",
                             *["--log"] * log)
        if log and points == 10**400:  # the log grid converts the count to a float first
            assert err == "error: the sweep's point count exceeds the largest float\n"
        else:
            assert err == HUGE_POINTS_ERRORS[points]
        assert (code, out) == (1, "")

    @pytest.mark.parametrize("argv", [["-h"], ["classify", "-h"], ["sweep", "--help"]])
    def test_help_returns_zero(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.startswith(" ".join(["usage: gicbounds", *argv[:-1]]) + " [-h]")

    def test_internal_error_exit_two(self, capsys, monkeypatch):
        import gicbounds.cli as cli_mod

        def boom(*args, **kwargs):
            raise RuntimeError("invariant violated")

        monkeypatch.setattr(cli_mod.region, "build_outer_region", boom)
        code, _, err = run(capsys, "region", *FIG1_ARGS)
        assert code == 2 and "internal" in err


class TestParserReuse:
    def test_failed_parse_leaves_later_calls_unchanged(self, capsys):
        import gicbounds.cli as cli_mod

        calls = (
            ["classify", *FIG1_ARGS],
            ["threshold", "--p", "5000"],
            ["sweep", *FIG1_ARGS, "--param", "p1", "--from", "1", "--to", "4",
             "--points", "3", "--metric", "sum-upper"],
        )
        fresh = []
        for argv in calls:
            cli_mod._build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        assert all(code == 0 for code, _, _ in fresh)
        code, out, err = run(capsys, "classify", "--a", "nope", *FIG1_ARGS[2:])
        assert code == 1 and not out and err.startswith("error:")
        assert [run(capsys, *argv) for argv in calls] == fresh


def outcome(capsys, out_dir, argv):
    """Exit code, stdout, stderr and written files of one request, its
    "{dir}" placeholders pointing at the fresh directory ``out_dir``."""
    out_dir.mkdir(parents=True)
    code, out, err = run(capsys, *(a.replace("{dir}", str(out_dir)) for a in argv))
    files = {p.name: p.read_text() for p in sorted(out_dir.iterdir())}
    return code, out.replace(str(out_dir), "{dir}"), err, files


class TestSingleParse:
    def requests(self, tmp_path):
        """Every pinned request and every bad-input case, by name."""
        requests = pins.cli_runs()
        requests.update((f"bad-input-{i}", argv) for i, argv in enumerate(BAD_INPUT_ARGV))
        for i, (payload, _) in enumerate(BAD_CONFIGS):
            cfg = tmp_path / f"bad-config-{i}.json"
            cfg.write_text(json.dumps(payload))
            requests[f"bad-config-{i}"] = ["classify", "--config", str(cfg)]
        for i, (grid, _) in enumerate(BAD_GRIDS):
            requests[f"bad-grid-{i}"] = ["sweep", *FIG1_ARGS, *grid, "--metric", "sum-upper"]
        for i, argv in enumerate(BAD_THRESHOLD_ARGV):
            requests[f"bad-threshold-{i}"] = ["threshold", *argv]
        return requests

    def test_top_level_path_gives_the_same_bytes(self, capsys, tmp_path, monkeypatch):
        # With the command map emptied every request goes through the
        # top-level parser, as all of them did before the direct path.
        import gicbounds.cli as cli_mod

        requests = self.requests(tmp_path)
        direct = {n: outcome(capsys, tmp_path / "direct" / n, a) for n, a in requests.items()}
        parser, _ = cli_mod._build_parser()
        monkeypatch.setattr(cli_mod, "_build_parser", lambda: (parser, {}))
        for name, argv in requests.items():
            assert outcome(capsys, tmp_path / "top" / name, argv) == direct[name], name

    def test_argparse_path_gives_the_same_bytes(self, capsys, tmp_path, monkeypatch):
        # With the plain parse declining every request, each one goes
        # through its command's argparse parser, as all of them did before.
        import gicbounds.cli as cli_mod

        requests = self.requests(tmp_path)
        plain = {n: outcome(capsys, tmp_path / "plain" / n, a) for n, a in requests.items()}
        monkeypatch.setattr(cli_mod, "_parse_plain", lambda command, tokens: None)
        for name, argv in requests.items():
            assert outcome(capsys, tmp_path / "argparse" / name, argv) == plain[name], name

    def test_known_command_skips_the_top_level_parser(self, capsys, monkeypatch):
        import gicbounds.cli as cli_mod

        parser, _ = cli_mod._build_parser()
        calls = []
        parse_known_args = cli_mod._Parser.parse_known_args

        def counted(self, *args, **kwargs):
            calls.append(self)
            return parse_known_args(self, *args, **kwargs)

        monkeypatch.setattr(cli_mod._Parser, "parse_known_args", counted)
        for argv in (
            ["classify", *FIG1_ARGS],
            ["threshold", "--p", "10"],
            ["murate", *FIG1_ARGS, "--json"],
            ["sweep", *FIG1_ARGS, "--param", "p1", "--from", "1", "--to", "4",
             "--points", "3", "--metric", "tdm-best"],
            *BAD_INPUT_ARGV,
        ):
            run(capsys, *argv)
        assert parser not in calls
        for argv, message in (
            ([], "error: the following arguments are required: command\n"),
            (["nope"], "error: argument command: invalid choice: 'nope' "),
            (["--x", "classify"], "error: unrecognized arguments: --x\n"),
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out, err.count("\n")) == (1, "", 1)
            assert err.startswith(message)
        assert calls.count(parser) == 3
        # The bench pools' requests all take the plain parse, and so do the
        # pinned runs but one, whose negative dB gain argparse reads; the
        # records' one run of them notes each argparse call.
        records, argparsed = pins.built()
        requests = sum(len(records[group]) for group in pins.POOLS)
        pooled = [r for r in argparsed if r.split("/")[0] in pins.POOLS]
        assert (requests, pooled) == (292, [])
        assert [r for r in argparsed if r.startswith("cli/")] == ["cli/threshold-mc-json"]

    # Declined: an abbreviation, "--x=v", a negative value, help, "--", a
    # trailing option, an unknown option, a missing required option, a
    # value its type refuses, a value after a flag, and a negative value in
    # exponent form, which argparse reads.
    @pytest.mark.parametrize("argv", [
        ["region", *FIG1_ARGS, "--mu", "5"],
        ["classify", "--a=0.1", *FIG1_ARGS[2:]],
        ["threshold", "--m", "4", "--c", "-16", "--db"],
        ["classify", "-h"],
        ["classify", "--", *FIG1_ARGS],
        ["classify", *FIG1_ARGS, "--p2"],
        ["classify", *FIG1_ARGS, "--nope", "1"],
        ["sweep", *FIG1_ARGS, "--param", "p1", "--from", "1", "--to", "4", "--points", "3"],
        ["threshold", "--p", "nope"],
        ["murate", *FIG1_ARGS, "--json", "x"],
        ["sweep", *FIG1_ARGS, "--param", "p1", "--from", "-1e-3", "--to", "4",
         "--points", "3", "--metric", "sum-tin"],
    ])
    def test_plain_parse_declines(self, argv):
        import gicbounds.cli as cli_mod

        _, commands = cli_mod._build_parser()
        assert cli_mod._parse_plain(commands[argv[0]], argv[1:]) is None

    def test_from_value_read_as_an_option(self, capsys):
        # argparse reads "-1e-3" as the value of --from, and the grid's first
        # value, a negative power, is refused.
        code, out, err = run(capsys, "sweep", *FIG1_ARGS, "--param", "p1", "--from", "-1e-3",
                             "--to", "4", "--points", "3", "--metric", "sum-tin")
        assert (code, out, err) == (
            1, "", "error: sweep value -0.001 invalid: p1 must be finite and > 0, got -0.001\n"
        )

    @pytest.mark.parametrize("argv", [
        ["classify", "--a", "-1e1", "--b", "-20", "--p1", "10", "--p2", "20", "--db"],
        ["threshold", "--m", "4", "--c", "-1.6E+1", "--db", "--json"],
        ["sweep", *FIG1_ARGS, "--param", "a", "--from", "-2e1", "--to", "-.5e1",
         "--points", "3", "--metric", "verdict", "--db"],
    ])
    def test_negative_value_in_any_float_form(self, capsys, argv):
        # A negative number reads the same as a token of its own as joined
        # to its option by "=", which argparse always read as a value.
        joined = list(argv)
        for i in reversed(range(1, len(argv))):
            if argv[i].startswith("-") and not argv[i].startswith("--"):
                joined[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
        assert len(joined) < len(argv)
        separate = run(capsys, *argv)
        assert separate[0] == 0 and separate == run(capsys, *joined)

    def test_argparse_reads_the_negative_number_pattern(self):
        # _Parser widens the pattern argparse checks a "-" token against; if
        # argparse no longer kept it there, the override would do nothing.
        import gicbounds.cli as cli_mod

        assert hasattr(argparse.ArgumentParser(), "_negative_number_matcher")
        assert "self._negative_number_matcher.match(" in inspect.getsource(
            argparse.ArgumentParser._parse_optional
        )
        matcher = cli_mod._Parser()._negative_number_matcher
        for token in ("-1", "-.5", "-1.", "-1e1", "-1.5e-3", "-.5E+10", "-0.0"):
            assert matcher.match(token), token
        for token in ("-", "-e1", "-1e", "-inf", "-nan", "--1", "-1e1.5", "-x", "-1,5"):
            assert not matcher.match(token), token

    def test_every_option_is_a_plain_kind(self):
        # The plain parse reads each option as a single-value store of a
        # float, int or string, or as a store_true flag, with no choices and
        # no string default to convert; an option of any other kind fails
        # here rather than parse differently from argparse.
        import gicbounds.cli as cli_mod

        _, commands = cli_mod._build_parser()
        for name, command in commands.items():
            actions = [a for a in command._actions if not isinstance(a, argparse._HelpAction)]
            for a in actions:
                assert type(a) in (argparse._StoreAction, argparse._StoreTrueAction), (name, a)
                assert a.nargs is None or type(a) is argparse._StoreTrueAction, (name, a)
                assert a.type in (float, int, None), (name, a)
                assert a.choices is None and not isinstance(a.default, str), (name, a)
            options, defaults, required = command.plain
            assert options == {s: a for a in actions for s in a.option_strings}, name
            assert defaults == {a.dest: a.default for a in actions} | {
                "func": command.get_default("func")
            }, name
            assert required == {a for a in actions if a.required}, name


class TestConfigHelpers:
    def test_db_round_trip_full_precision(self):
        for x in (0.04, 0.09, 1.0, 123.456):
            assert db_to_linear(linear_to_db(x)) == pytest.approx(x, rel=1e-12)
        assert db_to_linear(-13.9794) == pytest.approx(0.04, rel=1e-6)

    def test_db_matrix_config(self, tmp_path):
        cfg = tmp_path / "db.json"
        cfg.write_text(json.dumps({
            "gains": [[0, 10 * math.log10(0.09)], [10 * math.log10(0.04), -0.0]],
            "powers": [10, 20],
            "units": "db",
        }))
        ch = load_channel_config(cfg)
        assert isinstance(ch, TwoUserChannel)
        assert ch.a == pytest.approx(0.04, rel=1e-12)
        assert ch.b == pytest.approx(0.09, rel=1e-12)
        matrix = load_channel_config(cfg, two_user=False)
        assert matrix.gains.tolist() == [[1.0, ch.b], [ch.a, 1.0]]
        # 0 and -0.0 dB on the diagonal read as exactly 1.
        gains = [[0, -10, -20], [-10, -0.0, -10], [-20, -10, 0]]
        cfg.write_text(json.dumps({"gains": gains, "powers": [1, 2, 3], "units": "db"}))
        assert load_channel_config(cfg).gains.diagonal().tolist() == [1.0, 1.0, 1.0]

    @pytest.mark.parametrize(
        "payload",
        [
            {"a": 0.1, "b": 0.1, "p1": 1},  # missing key
            {"a": 0.1, "b": 0.1, "p1": 1, "p2": 1, "gains": [[1]]},  # mixed shapes
            {"gains": [[1, 0.1], [0.1, 1]]},  # no powers
            {"gains": [[1, 0.1]], "powers": [1, 1]},  # not square
            {"gains": [[1, 0.1], [0.1, 2]], "powers": [1, 1]},  # bad diagonal
            {"a": 0.1, "b": 0.1, "p1": 1, "p2": 1, "units": "furlongs"},
        ],
    )
    def test_malformed_configs(self, tmp_path, payload):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(payload))
        with pytest.raises(ConfigError):
            load_channel_config(cfg)

    def test_sweep_spec_validation(self):
        with pytest.raises(ConfigError):
            SweepSpec("a", 0.1, 0.2, 1, "sum-tin")
        with pytest.raises(ConfigError):
            SweepSpec("zz", 0.1, 0.2, 5, "sum-tin")
        with pytest.raises(ConfigError):
            SweepSpec("a", 0.1, 0.2, 5, "nope")
        with pytest.raises(ConfigError):
            SweepSpec("a", -0.1, 0.2, 5, "sum-tin", log_spacing=True)


def child_env():
    """Environment of a child interpreter that imports the package from the
    same directory as this test run."""
    src = str(Path(gicbounds.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))


class TestClosedStdout:
    def test_closed_pipe_exits_one_without_traceback(self):
        # The reader has closed the pipe before the first write, as when
        # `gicbounds ... | head` exits early.
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "gicbounds", "classify", *FIG1_ARGS],
                stdout=write, stderr=subprocess.PIPE, env=child_env(), timeout=60,
            )
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (1, b"")


class TestOverflowingGrid:
    # A fresh interpreter, since a warning once shown in this process is not
    # shown again.
    @pytest.mark.parametrize("start", [["--from=-1e308"], ["--from", "-1e308"]])
    def test_overflowing_step_is_one_error_line(self, start):
        # stop - start overflows, and the grid's first point is 0 * inf = nan.
        proc = subprocess.run(
            [sys.executable, "-m", "gicbounds", "sweep", *FIG1_ARGS, "--param", "p1", *start,
             "--to", "1e308", "--points", "3", "--metric", "sum-tin"],
            capture_output=True, text=True, env=child_env(), timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            1, "", "error: sweep value nan invalid: p1 must be finite and > 0, got nan\n"
        )


class TestRuntimeImports:
    def test_cli_imports_no_test_dependency(self):
        # scipy, hypothesis, mpmath and sympy serve the tests only; a fresh
        # interpreter that imports the CLI must not load any of them.
        code = (
            "import sys, gicbounds.cli; "
            "print(sorted({'scipy', 'hypothesis', 'mpmath', 'sympy'} & set(sys.modules)))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=child_env(), timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
