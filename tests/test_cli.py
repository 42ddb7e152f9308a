import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from scipy.optimize import minimize_scalar

import gicbounds
from gicbounds import TwoUserChannel, multiuser, tdm_fdm_sum_rate, tin_rates
from gicbounds.cli import main
from gicbounds.config import (
    ConfigError,
    SweepSpec,
    db_to_linear,
    linear_to_db,
    load_channel_config,
)

FIG1_ARGS = ["--a", "0.04", "--b", "0.09", "--p1", "10", "--p2", "20"]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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

    def test_non_finite_result_exit_one(self, capsys, tmp_path):
        # The condition slack of these huge gains is inf, which strict JSON
        # cannot carry: nothing goes to stdout and one error line to stderr.
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps({"gains": [[1, 1e300], [1e300, 1]], "powers": [1e10, 1e10]}))
        code, out, err = run(capsys, "classify", "--config", str(cfg))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "JSON" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--a", "0.1", "--b", "0.1", "--p1", "1"],  # missing p2
            ["classify", "--a", "-1", "--b", "0", "--p1", "1", "--p2", "1"],
            ["classify"],
            ["classify", "--a", "x", "--b", "0", "--p1", "1", "--p2", "1"],
            # 10^400 overflows a float
            ["classify", "--a", "4000", "--b", "0.1", "--p1", "1", "--p2", "1", "--db"],
        ],
    )
    def test_bad_input_exit_one(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err

    @pytest.mark.parametrize(
        "payload, message",
        [
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
        ],
    )
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

    def test_pinned_sum_upper_sweeps(self, capsys):
        # sum-upper rows of three benchmark sweeps (the criterion-3 curve, a
        # regime channel, noisy channels), pinned to the last digit.
        pinned = json.loads((Path(__file__).parent / "data" / "sum_upper.json").read_text())
        for name, entry in pinned["sweeps"].items():
            code, out, _ = run(capsys, *entry["argv"])
            assert code == 0, name
            assert [r.split(",") for r in out.splitlines()[1:]] == entry["rows"], name

    @pytest.mark.parametrize(
        "grid, message",
        [
            # grid -1, 0, 1: the first bad power is the one reported
            (["--param", "p1", "--from", "-1", "--to", "1", "--points", "3"],
             "error: sweep value -1.0 invalid"),
            # 10^400 overflows a float
            (["--param", "a", "--from", "3000", "--to", "4000", "--points", "2", "--db"],
             "error: 4000.0 dB is too large"),
        ],
    )
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

    def test_pinned_verdicts(self, capsys, tmp_path):
        # murate --json of the benchmark's m-user channels (every m <= 4
        # entry, one per m = 8 and m = 12 stratum), and with the resolution-16
        # oracle where pinned, byte for byte.
        pinned = json.loads((Path(__file__).parent / "data" / "murate.json").read_text())
        cfg = tmp_path / "ch.json"
        for entry in pinned["entries"]:
            cfg.write_text(json.dumps({"gains": entry["gains"], "powers": entry["powers"]}))
            runs = [([], entry["stdout"])]
            if "oracle16_stdout" in entry:
                runs.append((["--oracle-resolution", "16"], entry["oracle16_stdout"]))
            for extra, expected in runs:
                code, out, err = run(capsys, "murate", "--config", str(cfg), "--json", *extra)
                assert (code, out, err) == (0, expected, ""), (entry["id"], extra)

    def test_two_user_flags(self, capsys):
        code, out, _ = run(capsys, "murate", *FIG1_ARGS)
        assert code == 0
        assert "feasible" in out

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["--p", "nan"],
            ["--p", "inf"],
            ["--m", "3", "--c", "nan"],
            ["--m", "3", "--c", "inf"],
            ["--m", "3", "--c", "4000", "--db"],  # 10^400 overflows a float
        ],
    )
    def test_non_finite_input_exit_one(self, capsys, argv):
        code, out, err = run(capsys, "threshold", *argv)
        assert code == 1 and not out
        assert err.startswith("error:") and "Traceback" not in err


class TestExitCodes:
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


class TestConfigHelpers:
    def test_db_round_trip_full_precision(self):
        for x in (0.04, 0.09, 1.0, 123.456):
            assert db_to_linear(linear_to_db(x)) == pytest.approx(x, rel=1e-12)
        assert db_to_linear(-13.9794) == pytest.approx(0.04, rel=1e-6)

    def test_db_matrix_config(self, tmp_path):
        cfg = tmp_path / "db.json"
        cfg.write_text(json.dumps({
            "gains": [[0, 10 * math.log10(0.09)], [10 * math.log10(0.04), 0]],
            "powers": [10, 20],
            "units": "db",
        }))
        ch = load_channel_config(cfg)
        assert isinstance(ch, TwoUserChannel)
        assert ch.a == pytest.approx(0.04, rel=1e-12)
        assert ch.b == pytest.approx(0.09, rel=1e-12)

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


class TestClosedStdout:
    def test_closed_pipe_exits_one_without_traceback(self):
        # The reader has closed the pipe before the first write, as when
        # `gicbounds ... | head` exits early.  The child imports the package
        # from the same directory as this test run.
        src = str(Path(gicbounds.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        ))
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "gicbounds", "classify", *FIG1_ARGS],
                stdout=write, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (1, b"")
