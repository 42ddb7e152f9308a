"""Command-line interface.

Subcommands: classify (capacity verdict as JSON), region (inner/outer
boundary CSV + optional SVG), sweep (one-parameter metric sweep CSV),
murate (m-user feasibility search), threshold (symmetric noisy-interference
thresholds).

Exit status: 0 for success (any verdict, UNKNOWN included), 1 for bad
input or a stdout closed early (``gicbounds ... | head``), 2 for an
internal invariant violation.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import capacity, genie, multiuser, region
from .channel import TwoUserChannel, _rate, tin_rates
from .config import (
    SWEEP_METRICS,
    SWEEP_PARAMS,
    ConfigError,
    SweepSpec,
    channel_from_flags,
    db_to_linear,
    linear_to_db,
    load_channel_config,
)
from .multiuser import MUserChannel
from .svg import region_svg

__all__ = ["main", "main_entry"]


def _fmt(x: float) -> str:
    """Full-precision repeatable number formatting (17 significant digits)."""
    return format(float(x), ".17g")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # read any negative decimal number as a value, "-1e-3" too, not only "-1" and "-.5"
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

    def error(self, message):  # do not sys.exit(2); bad input is status 1
        raise ConfigError(message)


def _add_channel_flags(p: argparse.ArgumentParser) -> list[argparse.Action]:
    return [
        p.add_argument("--a", type=float, help="crosstalk gain into receiver 1"),
        p.add_argument("--b", type=float, help="crosstalk gain into receiver 2"),
        p.add_argument("--p1", type=float, help="power of user 1 (linear)"),
        p.add_argument("--p2", type=float, help="power of user 2 (linear)"),
        p.add_argument("--config", metavar="PATH", help="JSON channel config"),
        p.add_argument("--db", action="store_true", help="interpret gains (a, b) in dB"),
    ]


def _channel_from_args(args, two_user: bool = True) -> TwoUserChannel | MUserChannel:
    if args.config is not None:
        if any(v is not None for v in (args.a, args.b, args.p1, args.p2)):
            raise ConfigError("give either --config or --a/--b/--p1/--p2, not both")
        if args.db and args.func is not _cmd_sweep:  # sweep's --db also reads its grid
            raise ConfigError('--db does not apply to --config; set "units": "db" in the config')
        return load_channel_config(args.config, two_user=two_user)
    missing = [f for f in ("a", "b", "p1", "p2") if getattr(args, f) is None]
    if missing:
        raise ConfigError(f"missing channel flags: {', '.join('--' + f for f in missing)}")
    return channel_from_flags(args.a, args.b, args.p1, args.p2, args.db)


def _muser_verdict_json(ch: MUserChannel, verdict: multiuser.MUserVerdict):
    return {
        "kind": "NOISY_INTERFERENCE" if verdict.feasible else "UNKNOWN",
        "m": ch.m,
        "feasible": verdict.feasible,
        "sum_capacity_bits": verdict.sum_capacity,
        "rho": list(verdict.rho) if verdict.rho else None,
        "best_probe": list(verdict.best_probe) if verdict.best_probe else None,
        "max_slack": verdict.max_slack,
        "slacks": verdict.slacks.tolist(),
        "provably_infeasible": verdict.provably_infeasible,
        "note": verdict.note,
    }


def _print_json(payload) -> None:
    """Print ``payload`` as strict JSON: a non-finite number in it is a
    ValueError, which ``main`` reports as bad input before anything prints."""
    print(_json_text(payload, "\n"))


def _json_text(x, newline: str) -> str:
    """The text and errors of ``json.dumps(x, indent=2, allow_nan=False)``
    for ``x`` at the depth where ``newline``, a line break and an indent,
    starts each line.  json encodes with ``indent`` in pure Python, one
    generator per container; this joins each container's text once.  As
    there, str, int and float subclasses print as those types and tuples
    as lists; no circular reference is checked."""
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if x is None or x is True or x is False:
        return "null" if x is None else "true" if x else "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        if math.isfinite(x):
            return float.__repr__(x)
        raise ValueError("Out of range float values are not JSON compliant: " + repr(x))
    inner = newline + "  "
    if isinstance(x, (list, tuple)):  # finite floats, most of a payload, inline
        items = [float.__repr__(v) if type(v) is float and math.isfinite(v)
                 else _json_text(v, inner) for v in x]
        return "[" + inner + ("," + inner).join(items) + newline + "]" if items else "[]"
    if isinstance(x, dict):
        items = [_json_key(k) + ": " + _json_text(v, inner) for k, v in x.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}" if items else "{}"
    raise TypeError(f"Object of type {x.__class__.__name__} is not JSON serializable")


def _json_key(key) -> str:
    """A dict key as ``json.dumps`` prints it: a scalar key as the string of
    its JSON text."""
    if not isinstance(key, str):
        if not (key is None or isinstance(key, (int, float))):
            raise TypeError(
                f"keys must be str, int, float, bool or None, not {key.__class__.__name__}"
            )
        key = _json_text(key, "")
    return encode_basestring_ascii(key)


def _cmd_classify(args) -> int:
    ch = _channel_from_args(args)
    if isinstance(ch, MUserChannel):
        payload = _muser_verdict_json(ch, multiuser.find_rho(ch))
    else:
        verdict = capacity.classify(ch)
        payload = {
            "kind": verdict.kind.value,
            "sum_capacity_bits": verdict.sum_capacity,
            "certificate": None if verdict.certificate is None else vars(verdict.certificate),
            "condition_slack": verdict.condition_slack,
            "slacks": {
                k: (None if math.isinf(v) else v) for k, v in verdict.slacks.items()
            },
        }
    _print_json(payload)
    return 0


def _write_text(path: str, text: str) -> None:
    Path(path).write_text(text, newline="\n")


def _emit(text: str, out: str | None, summary: str) -> None:
    """Write ``text`` to the file ``out`` and report it with ``summary``, or
    to stdout when ``out`` is None."""
    if out:
        _write_text(out, text)
        print(f"wrote {out} ({summary})")
    else:
        sys.stdout.write(text)


def boundary_csv(curves: dict[str, tuple]) -> str:
    """CSV of boundary vertices, one row per vertex, LF line endings."""
    rows = ["r1_bits,r2_bits,kind"]
    for kind, boundary in curves.items():
        rows.extend(f"{_fmt(p.r1)},{_fmt(p.r2)},{kind}" for p in boundary)
    return "\n".join(rows) + "\n"


def _cmd_region(args) -> int:
    ch = _channel_from_args(args)
    if isinstance(ch, MUserChannel):
        raise ConfigError("region requires a 2-user channel")
    outer = region.build_outer_region(ch, mu_grid=args.mu_grid, eta_grid=args.eta_grid)
    inner = region.build_inner_region(ch)
    csv_text = boundary_csv({"inner": inner.boundary, "outer": outer.boundary})
    _emit(csv_text, args.out, f"{len(inner.boundary)} inner / {len(outer.boundary)} outer vertices")
    if args.svg:
        _write_text(args.svg, region_svg({"inner": inner.boundary, "outer": outer.boundary}))
        print(f"wrote {args.svg}")
    return 0


def _point_metric(ch: TwoUserChannel, metric: str) -> str:
    if metric == "sum-tin":
        return _fmt(tin_rates(ch).sum)
    if metric == "tdm-best":
        # Orthogonal sharing peaks at alpha = p1/(p1 + p2).
        return _fmt(_rate(ch.p1 + ch.p2))
    return capacity._verdict_kind(ch)[0].value  # verdict


def sweep_rows(
    base: TwoUserChannel, spec: SweepSpec, gains_in_db: bool = False
) -> list[tuple[float, str]]:
    """Evaluate the sweep metric over the grid; (value, metric) rows.

    ``spec.channels`` builds every grid channel first, so the first bad
    value raises ConfigError before any metric is computed; with
    gains_in_db, gain-parameter grids are interpreted (and echoed) in dB.
    The sum-upper points are bounded together by one genie.sum_upper_bounds
    call, whose MU searches share one lockstep search; the other metrics
    are computed point by point.  Grid points where no bound family applies
    give "n/a".
    """
    channels = spec.channels(base, gains_in_db)
    if spec.metric == "sum-upper":
        metrics = [
            "n/a" if ub is None else _fmt(ub) for ub in genie.sum_upper_bounds(channels)
        ]
    else:
        metrics = [_point_metric(ch, spec.metric) for ch in channels]
    return list(zip(spec.grid(), metrics))


def _cmd_sweep(args) -> int:
    base = _channel_from_args(args)
    if isinstance(base, MUserChannel):
        raise ConfigError("sweep requires a 2-user base channel")
    spec = SweepSpec(
        parameter=args.param,
        start=args.start,
        stop=args.stop,
        points=args.points,
        metric=args.metric,
        log_spacing=args.log,
    )
    rows = [f"{spec.parameter},{spec.metric}"]
    for value, metric in sweep_rows(base, spec, gains_in_db=args.db):
        rows.append(f"{_fmt(value)},{metric}")
    _emit("\n".join(rows) + "\n", args.out, f"{spec.points} rows")
    return 0


def _cmd_murate(args) -> int:
    ch = _channel_from_args(args, two_user=False)  # a 2 x 2 matrix stays an MUserChannel
    if isinstance(ch, TwoUserChannel):
        ch = MUserChannel.from_two_user(ch)
    if args.oracle_resolution is not None:
        oracle = multiuser.oracle_grid_feasibility(ch, args.oracle_resolution)
    verdict = multiuser.find_rho(ch)
    payload = _muser_verdict_json(ch, verdict)
    if args.oracle_resolution is not None:
        payload["oracle"] = {
            "resolution": args.oracle_resolution,
            "feasible": oracle.feasible,
            "max_slack": oracle.max_slack,
        }
    if args.json:
        _print_json(payload)
    else:
        if verdict.feasible:
            print(f"feasible: sum capacity {verdict.sum_capacity:.6f} bits/use")
            print(f"rho = {[round(r, 6) for r in verdict.rho]}")
        else:
            print(f"no certificate found (best max slack {verdict.max_slack:.3g})")
            if verdict.note:
                print(verdict.note)
        if "oracle" in payload:
            o = payload["oracle"]
            print(f"oracle (resolution {o['resolution']}): feasible={o['feasible']}")
    return 0


def _cmd_threshold(args) -> int:
    if args.p is not None and (args.m is not None or args.c is not None):
        raise ConfigError("give either --p (2-user gain threshold) or --m/--c (power threshold)")
    if args.p is not None:
        a_star = capacity.symmetric_noisy_threshold(args.p)
        payload = {"p": args.p, "a_star": a_star, "a_star_db": linear_to_db(a_star)}
        if args.json:
            _print_json(payload)
        else:
            print(f"a* = {_fmt(a_star)} ({payload['a_star_db']:.4f} dB)")
        return 0
    if args.m is None or args.c is None:
        raise ConfigError("threshold needs --p, or both --m and --c")
    c = db_to_linear(args.c) if args.db else args.c
    p_star = multiuser.symmetric_threshold(args.m, c)
    if args.json:
        _print_json({"m": args.m, "c": c, "p_star": p_star})
    else:
        print(f"P* = {_fmt(p_star)}")
    return 0


def _add_command(p: _Parser, func, actions: list[argparse.Action]) -> None:
    """Set the handler of the subcommand parser ``p``, and the read-only
    table of its options that _parse_plain reads: each option string's
    Action, each dest's default, and the required actions."""
    p.set_defaults(func=func)
    p.plain = (
        {s: a for a in actions for s in a.option_strings},
        {a.dest: a.default for a in actions} | {"func": func},
        frozenset(a for a in actions if a.required),
    )


def _parse_plain(command: _Parser, tokens: list[str]) -> argparse.Namespace | None:
    """``command.parse_args(tokens)`` for a plain request, else None.  A plain
    request is a run of exact option strings, each a flag or followed by one
    value that does not start with "-" and that the option's type converts,
    with every required option present.  Help, abbreviations, "--x=v",
    negative values, "--" and every error are left to argparse."""
    options, defaults, required = command.plain
    values, seen, tokens = dict(defaults), set(), iter(tokens)
    try:
        for token in tokens:
            action = options[token]
            seen.add(action)
            if action.nargs == 0:  # a store_true flag
                values[action.dest] = action.const
            elif (value := next(tokens, "-")).startswith("-"):
                return None
            else:
                values[action.dest] = (action.type or str)(value)
    except (KeyError, ValueError):  # an unknown option, or a value its type refuses
        return None
    return argparse.Namespace(**values) if required <= seen else None


# Built on first use, so importing stays cheap, and shared by every ``main``
# call, which tries a command's plain table before its parser; both are only
# read, so calls in concurrent threads may share them.
@functools.cache
def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The top-level parser, and the subcommand parsers it hands off to by
    command name."""
    parser = _Parser(prog="gicbounds", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="sum-rate capacity verdict (JSON)")
    _add_command(p, _cmd_classify, _add_channel_flags(p))

    p = sub.add_parser("region", help="inner/outer boundary CSV (+ optional SVG)")
    _add_command(p, _cmd_region, _add_channel_flags(p) + [
        p.add_argument("--mu-grid", type=int, default=65, metavar="N"),
        p.add_argument("--eta-grid", type=int, default=9, metavar="N"),
        p.add_argument("--out", metavar="PATH", help="CSV output path (default stdout)"),
        p.add_argument("--svg", metavar="PATH", help="also write an SVG plot"),
    ])

    p = sub.add_parser("sweep", help="one-parameter metric sweep CSV")
    _add_command(p, _cmd_sweep, _add_channel_flags(p) + [
        p.add_argument("--param", required=True, metavar="NAME",
                       help=", ".join(SWEEP_PARAMS[:-1]) + " or " + SWEEP_PARAMS[-1]),
        p.add_argument("--from", dest="start", type=float, required=True),
        p.add_argument("--to", dest="stop", type=float, required=True),
        p.add_argument("--points", type=int, required=True),
        p.add_argument("--metric", required=True,
                       help=", ".join(SWEEP_METRICS[:-1]) + " or " + SWEEP_METRICS[-1]),
        p.add_argument("--log", action="store_true", help="log-spaced grid"),
        p.add_argument("--out", metavar="PATH", help="CSV output path (default stdout)"),
    ])

    p = sub.add_parser("murate", help="m-user noisy-interference search")
    _add_command(p, _cmd_murate, _add_channel_flags(p) + [
        p.add_argument("--oracle-resolution", type=int, metavar="N",
                       help="also run the brute-force grid oracle"),
        p.add_argument("--json", action="store_true"),
    ])

    p = sub.add_parser("threshold", help="symmetric noisy-interference thresholds")
    _add_command(p, _cmd_threshold, [
        p.add_argument("--p", type=float, help="power; prints the 2-user gain threshold"),
        p.add_argument("--m", type=int, help="user count; with --c prints the power threshold"),
        p.add_argument("--c", type=float, help="crosstalk gain for --m"),
        p.add_argument("--db", action="store_true", help="interpret --c in dB"),
        p.add_argument("--json", action="store_true"),
    ])

    return parser, dict(sub.choices)


def main(argv=None) -> int:
    """Run one request and return its exit status.

    A request whose first token names a command is parsed by
    ``_parse_plain`` when it is plain, else by that command's parser alone;
    everything else (no arguments, ``-h``, an unknown command, a flag before
    the command) goes through the top-level parser.  All paths print the
    same: the plain parse returns the command parser's namespace, the
    top-level parser hands a command's tokens to that parser, and every
    parser reports errors as ConfigError in argparse's words.  Help returns 0.
    """
    parser, commands = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        command = commands.get(argv[0]) if argv else None
        args = _parse_plain(command, argv[1:]) if command else None
        if args is None:
            args = command.parse_args(argv[1:]) if command else parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # help, printed by argparse
        return exc.code
    except RuntimeError as exc:  # region.RegionError among them
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, MemoryError) as exc:  # ConfigError, domain errors, grids past memory
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main_entry() -> None:
    """Console entry point: exit with the status of ``main``.  A reader that
    closes stdout early ends the run with status 1 and no traceback.  As in
    the Python docs' recipe (signal module, "Note on SIGPIPE"), stdout is
    then pointed at devnull, so the interpreter's last flush cannot fail
    again."""
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe fails here at the latest
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)
