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
import json
import math
import os
import sys
from pathlib import Path

from . import capacity, genie, multiuser, region
from .channel import MUserChannel, TwoUserChannel, tin_rates
from .config import (
    SWEEP_PARAMS,
    ConfigError,
    SweepSpec,
    channel_from_flags,
    db_to_linear,
    linear_to_db,
    load_channel_config,
)
from .svg import region_svg

__all__ = ["main", "main_entry"]


def _fmt(x: float) -> str:
    """Full-precision repeatable number formatting (17 significant digits)."""
    return format(float(x), ".17g")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # do not sys.exit(2); bad input is status 1
        raise ConfigError(message)


def _add_channel_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--a", type=float, help="crosstalk gain into receiver 1")
    p.add_argument("--b", type=float, help="crosstalk gain into receiver 2")
    p.add_argument("--p1", type=float, help="power of user 1 (linear)")
    p.add_argument("--p2", type=float, help="power of user 2 (linear)")
    p.add_argument("--config", metavar="PATH", help="JSON channel config")
    p.add_argument(
        "--db", action="store_true", help="interpret gains (a, b) in dB"
    )


def _channel_from_args(args) -> TwoUserChannel | MUserChannel:
    if args.config is not None:
        if any(v is not None for v in (args.a, args.b, args.p1, args.p2)):
            raise ConfigError("give either --config or --a/--b/--p1/--p2, not both")
        return load_channel_config(args.config)
    missing = [f for f in ("a", "b", "p1", "p2") if getattr(args, f) is None]
    if missing:
        raise ConfigError(f"missing channel flags: {', '.join('--' + f for f in missing)}")
    return channel_from_flags(args.a, args.b, args.p1, args.p2, args.db)


def _genie_json(gp: genie.GenieParams | None):
    if gp is None:
        return None
    return {
        "rho1": gp.rho1,
        "rho2": gp.rho2,
        "sigma1_sq": gp.sigma1_sq,
        "sigma2_sq": gp.sigma2_sq,
    }


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
    print(json.dumps(payload, indent=2, allow_nan=False))


def _cmd_classify(args) -> int:
    ch = _channel_from_args(args)
    if isinstance(ch, MUserChannel):
        payload = _muser_verdict_json(ch, multiuser.find_rho(ch))
    else:
        verdict = capacity.classify(ch)
        payload = {
            "kind": verdict.kind.value,
            "sum_capacity_bits": verdict.sum_capacity,
            "certificate": _genie_json(verdict.certificate),
            "condition_slack": verdict.condition_slack,
            "slacks": {
                k: (None if math.isinf(v) else v) for k, v in verdict.slacks.items()
            },
        }
    _print_json(payload)
    return 0


def _write_text(path: str, text: str) -> None:
    Path(path).write_text(text, newline="\n")


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
    if args.out:
        _write_text(args.out, csv_text)
        print(f"wrote {args.out} ({len(inner.boundary)} inner / {len(outer.boundary)} outer vertices)")
    else:
        sys.stdout.write(csv_text)
    if args.svg:
        _write_text(args.svg, region_svg({"inner": inner.boundary, "outer": outer.boundary}))
        print(f"wrote {args.svg}")
    return 0


def _point_metric(ch: TwoUserChannel, metric: str) -> str:
    if metric == "sum-tin":
        return _fmt(tin_rates(ch).sum)
    if metric == "tdm-best":
        # Orthogonal sharing peaks at alpha = p1/(p1 + p2).
        return _fmt(0.5 * math.log2(1.0 + ch.p1 + ch.p2))
    return capacity.classify(ch).kind.value  # verdict


def sweep_rows(
    base: TwoUserChannel, spec: SweepSpec, gains_in_db: bool = False
) -> list[tuple[float, str]]:
    """Evaluate the sweep metric over the grid; (value, metric) rows.

    ``spec.channels`` builds every grid channel first, so the first bad
    value raises ConfigError before any metric is computed; with
    gains_in_db, gain-parameter grids are interpreted (and echoed) in dB.
    The sum-upper points are bounded together by one genie.sum_upper_bounds
    call, whose MU searches share one lockstep descent; the other metrics
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
    text = "\n".join(rows) + "\n"
    if args.out:
        _write_text(args.out, text)
        print(f"wrote {args.out} ({spec.points} rows)")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_murate(args) -> int:
    ch = _channel_from_args(args)
    if isinstance(ch, TwoUserChannel):
        ch = MUserChannel.from_two_user(ch)
    if args.oracle_resolution is not None:
        multiuser.check_oracle_request(ch.m, args.oracle_resolution)
    verdict = multiuser.find_rho(ch)
    payload = _muser_verdict_json(ch, verdict)
    if args.oracle_resolution is not None:
        oracle = multiuser.oracle_grid_feasibility(ch, args.oracle_resolution)
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


# Built on first use, so importing the module stays cheap, and then shared
# by every call of ``main``: parse_args only reads the parser, so calls in
# concurrent threads may share it.
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="gicbounds", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="sum-rate capacity verdict (JSON)")
    _add_channel_flags(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("region", help="inner/outer boundary CSV (+ optional SVG)")
    _add_channel_flags(p)
    p.add_argument("--mu-grid", type=int, default=65, metavar="N")
    p.add_argument("--eta-grid", type=int, default=9, metavar="N")
    p.add_argument("--out", metavar="PATH", help="CSV output path (default stdout)")
    p.add_argument("--svg", metavar="PATH", help="also write an SVG plot")
    p.set_defaults(func=_cmd_region)

    p = sub.add_parser("sweep", help="one-parameter metric sweep CSV")
    _add_channel_flags(p)
    p.add_argument("--param", required=True, metavar="NAME",
                   help=", ".join(SWEEP_PARAMS[:-1]) + " or " + SWEEP_PARAMS[-1])
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", dest="stop", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--metric", required=True,
                   help="sum-upper, sum-tin, tdm-best or verdict")
    p.add_argument("--log", action="store_true", help="log-spaced grid")
    p.add_argument("--out", metavar="PATH", help="CSV output path (default stdout)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("murate", help="m-user noisy-interference search")
    _add_channel_flags(p)
    p.add_argument("--oracle-resolution", type=int, metavar="N",
                   help="also run the brute-force grid oracle")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_murate)

    p = sub.add_parser("threshold", help="symmetric noisy-interference thresholds")
    p.add_argument("--p", type=float, help="power; prints the 2-user gain threshold")
    p.add_argument("--m", type=int, help="user count; with --c prints the power threshold")
    p.add_argument("--c", type=float, help="crosstalk gain for --m")
    p.add_argument("--db", action="store_true", help="interpret --c in dB")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_threshold)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (region.RegionError, RuntimeError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # library-level domain errors are bad input
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
