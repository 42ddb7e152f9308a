"""Configuration ingestion for the command line: channel configs (scalar or
matrix form, linear or dB gains) and parameter-sweep specifications."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .channel import MUserChannel, TwoUserChannel

__all__ = [
    "ConfigError",
    "SweepSpec",
    "db_to_linear",
    "linear_to_db",
    "load_channel_config",
    "channel_from_flags",
]

SWEEP_FIELDS = {  # each sweep parameter and the channel fields it sets
    "a": ("a",), "b": ("b",), "p1": ("p1",), "p2": ("p2",),
    "symmetric-a": ("a", "b"), "symmetric-p": ("p1", "p2"),
}
SWEEP_PARAMS = tuple(SWEEP_FIELDS)
SWEEP_METRICS = ("sum-upper", "sum-tin", "tdm-best", "verdict")


class ConfigError(ValueError):
    """Malformed input configuration (maps to exit status 1)."""


def db_to_linear(x_db):
    """10^(x_db/10) of a number or an array; ConfigError, naming the largest
    value, where a result overflows."""
    try:
        with np.errstate(over="raise"):
            return 10.0 ** (x_db / 10.0)
    except (OverflowError, FloatingPointError):
        raise ConfigError(
            f"{float(np.max(x_db))} dB is too large for a linear value"
        ) from None


def linear_to_db(x: float) -> float:
    if x <= 0:
        raise ConfigError(f"cannot express nonpositive value {x} in dB")
    return 10.0 * math.log10(x)


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter sweep: which knob to move (a key of SWEEP_FIELDS), its
    grid, and the metric; ``channels`` builds the grid's channels."""

    parameter: str
    start: float
    stop: float
    points: int
    metric: str
    log_spacing: bool = False

    def __post_init__(self):
        if self.parameter not in SWEEP_PARAMS:
            raise ConfigError(
                f"unknown sweep parameter {self.parameter!r}; pick one of {SWEEP_PARAMS}"
            )
        if self.metric not in SWEEP_METRICS:
            raise ConfigError(
                f"unknown metric {self.metric!r}; pick one of {SWEEP_METRICS}"
            )
        if not self.start < self.stop:
            raise ConfigError(f"need start < stop, got [{self.start}, {self.stop}]")
        if self.points < 2:
            raise ConfigError(f"need at least 2 sweep points, got {self.points}")
        if self.log_spacing and self.start <= 0:
            raise ConfigError("log spacing needs a positive start value")

    def grid(self) -> np.ndarray:
        return self._grid.copy()

    @cached_property  # the fields are frozen, so the grid is built once
    def _grid(self) -> np.ndarray:
        if self.log_spacing:
            with np.errstate(over="ignore"):  # 10^log10(stop) may overflow; numpy resets the ends
                return np.geomspace(self.start, self.stop, self.points)
        return np.linspace(self.start, self.stop, self.points)

    def channels(
        self, base: TwoUserChannel, gains_in_db: bool = False
    ) -> list[TwoUserChannel]:
        """``base`` with the parameter's fields set to each grid value, the
        grid read in dB with gains_in_db if every such field is a gain;
        ConfigError at the first value that makes an invalid channel."""
        fields = SWEEP_FIELDS[self.parameter]
        in_db = gains_in_db and set(fields) <= {"a", "b"}
        point = {"a": base.a, "b": base.b, "p1": base.p1, "p2": base.p2}
        channels = []
        for raw in map(float, self._grid):
            value = db_to_linear(raw) if in_db else raw
            try:
                channels.append(TwoUserChannel(**(point | dict.fromkeys(fields, value))))
            except ValueError as exc:
                raise ConfigError(f"sweep value {value} invalid: {exc}") from exc
        return channels


def channel_from_flags(
    a: float, b: float, p1: float, p2: float, gains_in_db: bool = False
) -> TwoUserChannel:
    if gains_in_db:
        a, b = db_to_linear(a), db_to_linear(b)
    try:
        return TwoUserChannel(a=a, b=b, p1=p1, p2=p2)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _is_json_number(v) -> bool:
    """A JSON number, or a (nested) list of them; booleans and strings are
    not.  Exact types suffice: of the types json yields, only bool
    subclasses int or float."""
    pending = [v]
    while pending:
        x = pending.pop()
        if type(x) is list:
            pending.extend(x)
        elif type(x) is not float and type(x) is not int:
            return False
    return True


def _numeric(raw: dict, key: str, convert):
    try:
        if not _is_json_number(raw[key]):
            raise TypeError
        return convert(raw[key])
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be numeric, got {raw[key]!r}") from None
    except OverflowError:  # a JSON integer beyond the largest float
        raise ConfigError(f"{key} holds a number too large for a float") from None


def load_channel_config(path: str | Path) -> TwoUserChannel | MUserChannel:
    """Read a JSON channel config.

    Two shapes are accepted: scalar {"a", "b", "p1", "p2"} or matrix
    {"gains": [[...]], "powers": [...]}, both with an optional
    "units": "linear"|"db" applying to the gains (diagonal entries must be
    1 linear / 0 dB).  A 2x2 matrix yields a TwoUserChannel.
    """
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")

    units = raw.get("units", "linear")
    if units not in ("linear", "db"):
        raise ConfigError(f'units must be "linear" or "db", got {units!r}')
    in_db = units == "db"

    scalar_keys = {"a", "b", "p1", "p2"}
    matrix_keys = {"gains", "powers"}
    has_scalar = scalar_keys & raw.keys()
    has_matrix = matrix_keys & raw.keys()
    if has_scalar and has_matrix:
        raise ConfigError("config mixes scalar (a/b/p1/p2) and matrix (gains/powers) forms")

    if has_scalar:
        missing = scalar_keys - raw.keys()
        if missing:
            raise ConfigError(f"scalar config missing keys: {sorted(missing)}")
        return channel_from_flags(
            *(_numeric(raw, k, float) for k in ("a", "b", "p1", "p2")), in_db
        )

    if not matrix_keys <= raw.keys():
        raise ConfigError('config needs either {"a","b","p1","p2"} or {"gains","powers"}')
    gains = _numeric(raw, "gains", lambda v: np.array(v, dtype=float))
    powers = _numeric(raw, "powers", lambda v: np.array(v, dtype=float))
    if gains.ndim != 2 or gains.shape[0] != gains.shape[1]:
        raise ConfigError(f"gains must be a square matrix, got shape {gains.shape}")
    if in_db:
        diag = np.diag(gains)
        if np.any(diag != 0.0):
            raise ConfigError("dB gains must have 0 dB on the diagonal")
        gains = db_to_linear(gains)
        np.fill_diagonal(gains, 1.0)
    try:
        ch = MUserChannel(gains=gains, powers=powers)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if ch.m == 2:
        return TwoUserChannel(
            a=float(ch.gains[1, 0]),
            b=float(ch.gains[0, 1]),
            p1=float(ch.powers[0]),
            p2=float(ch.powers[1]),
        )
    return ch
