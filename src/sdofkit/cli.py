"""Command-line front end.

Four subcommands::

    sdof region    --antennas NS1,NS2,ND1,ND2,NE [--format json|csv]
    sdof construct --antennas ... --target D1,D2 [--seed N] [--power-dbm X]
                   [--channels FILE] [--out FILE]
    sdof verify    --channels FILE --precoder FILE [--p-grid P1,P2,...]
    sdof simulate  --scenario FILE --out CSV

All results are printed to stdout as JSON (``region --format csv`` prints
CSV).  ``construct`` writes a bundle file ``{"channels": ..., "precoder":
..., ...}`` that ``verify`` accepts for either argument.  Matrices are
serialized as ``{"rows": R, "data": [column, ...]}`` with complex entries
as ``[re, im]`` pairs.  Input files must meet the schemas shipped under
``sdofkit/schemas``; the result schemas there document the output.

Exit codes: 0 success; 1 stdout closed before the output was written
(``sdof ... | head``), with nothing printed to stderr; 2 malformed
arguments, files, or dimension mismatches; 3 infeasible target; 4
construction or numerical failure on a degenerate draw.  A power setting
whose linear value is not a positive finite number, a ``--p-grid`` with
a non-finite value or two equal largest powers, and a setting whose arrays
cannot be allocated (a ``MemoryError``, as for an antenna count of 1e15)
are malformed input (exit 2).  No environment variable changes a rank
decision.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import chansim, precoder, region, serialize, verifier
from .errors import ConstructionDeficit, DegenerateDraw, SchemaViolation, TargetInfeasible
from .region import AntennaConfig, SdofPoint

_EXIT_CLOSED_STDOUT = 1
_EXIT_BAD_INPUT = 2
_EXIT_INFEASIBLE = 3
_EXIT_CONSTRUCTION = 4

_DEFAULT_P_GRID = (1e6, 1e8, 1e10, 1e12)


def _parse_ints(text: str, n: int, what: str) -> tuple[int, ...]:
    parts = text.split(",")
    if len(parts) != n:
        raise SchemaViolation(f"{what} needs {n} comma-separated integers, got {text!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise SchemaViolation(f"{what}: {exc}") from exc


def _antennas(text: str) -> AntennaConfig:
    return AntennaConfig(*_parse_ints(text, 5, "--antennas"))


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


def cmd_region(args) -> int:
    cfg = _antennas(args.antennas)
    reg = region.boundary(cfg)
    dims = region.subset_dims(cfg)
    if args.format == "csv":
        lines = ["d1,d2,kind"]
        lines.append(f"{reg.su1},0,su1")
        lines.append(f"0,{reg.su2},su2")
        lines.append(f"{reg.e1_point.d1},{reg.e1_point.d2},e1")
        lines.append(f"{reg.e2_point.d1},{reg.e2_point.d2},e2")
        lines.extend(f"{p.d1},{p.d2},strict" for p in reg.strict)
        sys.stdout.write("\n".join(lines) + "\n")
        return 0
    _emit({"status": "ok", "antennas": list(cfg.as_tuple()), "su1": reg.su1, "su2": reg.su2,
           "e1": list(reg.e1_point), "e2": list(reg.e2_point),
           "strict_boundary": [list(p) for p in reg.strict],
           "subset_dims": list(dims.as_tuple())})
    return 0


def cmd_construct(args) -> int:
    cfg = _antennas(args.antennas)
    d1, d2 = _parse_ints(args.target, 2, "--target")
    power = chansim._db_to_linear(args.power_dbm)

    seed = args.seed
    if seed is not None and seed < 0:
        raise SchemaViolation(f"--seed must be a non-negative integer, got {seed}")
    if args.channels is not None:
        ch = serialize.channels_from_json(_section(serialize.load_json(args.channels), "channels"))
        if ch.config != cfg:
            raise SchemaViolation(
                f"channel file antennas {ch.config.as_tuple()} do not match --antennas {cfg.as_tuple()}"
            )
    else:
        if seed is None:
            seed = int.from_bytes(os.urandom(4), "little")
        ch = chansim.gaussian_channels(cfg, np.random.default_rng(seed))

    pair = precoder.construct(ch, SdofPoint(d1, d2), power=power)
    # what the bundle records and the result reports
    record = {"antennas": list(cfg.as_tuple()), "target": [d1, d2],
              "sdof": list(verifier.sdof_of(ch, pair)), "seed": seed}

    if args.out is not None:
        with open(args.out, "w") as fh:
            json.dump({"channels": serialize.channels_to_json(ch),
                       "precoder": serialize.precoder_to_json(pair), **record}, fh)

    _emit({"status": "ok", **record, "power_dbm": args.power_dbm, "out_path": args.out})
    return 0


def _section(doc, key: str):
    """Accept either a bare document or a construct bundle; any other JSON
    value is returned as it is, for the schema check to reject."""
    if isinstance(doc, dict) and isinstance(doc.get(key), dict):
        return doc[key]
    return doc


def cmd_verify(args) -> int:
    ch = serialize.channels_from_json(_section(serialize.load_json(args.channels), "channels"))
    pair = serialize.precoder_from_json(_section(serialize.load_json(args.precoder), "precoder"))
    p_grid = _DEFAULT_P_GRID
    if args.p_grid is not None:
        p_grid = tuple(float(p) for p in args.p_grid.split(","))
    sdof, mem = verifier._verdict(ch, pair)
    slopes = verifier.slope_estimate(ch, pair, p_grid)
    _emit({"status": "ok", "sdof": list(sdof),
           "membership": {"in_i": mem.in_i, "in_ibar": mem.in_ibar, "in_ihat": mem.in_ihat},
           "slopes": [slopes[0], slopes[1]], "p_grid": list(p_grid)})
    return 0


def cmd_simulate(args) -> int:
    scenario, target = serialize.scenario_from_json(serialize.load_json(args.scenario))
    records = chansim.monte_carlo(scenario, target)
    chansim.write_curve_csv(args.out, records)
    _emit({"status": "ok", "target": list(target), "out_csv": args.out,
           "records": [{"variable": rec.variable, **chansim._curve_fields(rec)}
                       for rec in records]})
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdof",
        description="Secrecy-D.o.F. regions, precoders, verification, and simulation "
        "for the MIMO two-user wiretap interference channel.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("region", help="compute the achievable S.D.o.F. region")
    p.add_argument("--antennas", required=True, help="NS1,NS2,ND1,ND2,NE")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("construct", help="build a precoder pair for a target point")
    p.add_argument("--antennas", required=True, help="NS1,NS2,ND1,ND2,NE")
    p.add_argument("--target", required=True, help="D1,D2")
    p.add_argument("--seed", type=int, default=None,
                   help="channel draw seed (default: fresh entropy, echoed in output)")
    p.add_argument("--power-dbm", type=float, default=0.0)
    p.add_argument("--channels", default=None,
                   help="load channels from a JSON file instead of drawing")
    p.add_argument("--out", default=None, help="write channels+precoder bundle JSON here")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="verify a precoder against a channel set")
    p.add_argument("--channels", required=True)
    p.add_argument("--precoder", required=True)
    p.add_argument("--p-grid", default=None,
                   help="comma-separated powers for slope estimation (default 1e6..1e12)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="Monte-Carlo secrecy-rate curves")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = _dispatch(args)
        # flushed here so a closed pipe raises now, not at interpreter exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader went away (``sdof ... | head``): nothing more can be
        # reported.  As in Python's SIGPIPE recipe, point stdout at devnull
        # so the flush at exit writes nowhere instead of raising again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _EXIT_CLOSED_STDOUT


def _dispatch(args) -> int:
    """Run the subcommand; report a failure as a JSON error and exit code."""
    try:
        return args.func(args)
    except BrokenPipeError:  # an OSError, but stdout is gone, not the input
        raise
    # before ValueError: a LinAlgError is one, but a numerical failure
    except (np.linalg.LinAlgError, ConstructionDeficit, DegenerateDraw) as exc:
        _fail(str(exc), "construction_failed")
        return _EXIT_CONSTRUCTION
    # a MemoryError (NumPy's _ArrayMemoryError among them) is an antenna or
    # trial count whose arrays cannot be allocated
    except (SchemaViolation, ValueError, OSError, MemoryError) as exc:
        _fail(str(exc), "bad_input")
        return _EXIT_BAD_INPUT
    except TargetInfeasible as exc:
        _fail(str(exc), "target_infeasible")
        return _EXIT_INFEASIBLE


def _fail(message: str, code: str) -> None:
    json.dump({"status": "error", "error": code, "message": message}, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    sys.exit(main())
