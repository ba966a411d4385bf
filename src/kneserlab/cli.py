"""Single executable exposing the library as subcommands.

Reports go to stdout (JSON by default, CSV for sweep outputs), logs to
stderr.  JSON spells an infinite value "inf" or "-inf", since JSON has none.
Every payload carries schema_version, and randomized commands echo
their effective seed, so identical invocations produce byte-identical output.
Exit codes: 0 success, 1 domain error, 2 guard or budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from contextlib import nullcontext

from . import SCHEMA_VERSION
from .errors import DomainError, GuardError
from .families import GroundParams, build_family, family_stats
from .graphs import baranyai_partition, export_partition, extremal_subgraph, verify_ekr
from .removal import (DEFAULT_C_CONST, RemovalConfig, case_classify, case_table,
                      center_set_check, removal_bound_check)
from .spectral import decompose_affine, kneser_eigenvalue, residual_bound_check
from .threshold import (DEFAULT_EPSILON, analytic_bounds, estimate_probabilities,
                        find_threshold)

DEFAULT_SEED = 1961  # fixed documented default; never time-based


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="kneserlab",
        description="Intersecting-family removal diagnostics and sparse EKR "
                    "thresholds on random Kneser subgraphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, family=False, ell=False, c_const=False, seedy=False):
        p.add_argument("--n", type=int, required=True, help="ground-set size")
        p.add_argument("--k", type=int, required=True, help="uniformity")
        p.add_argument("--format", choices=("json", "csv"), default=None,
                       help="output format (default: json; simulate: csv)")
        p.add_argument("--out", default=None,
                       help="output path (default: stdout)")
        if family:
            p.add_argument("--family", required=True,
                           help="family spec: star:<i> | antistar:<i> | "
                                "union:<i,..> | complement-of:<spec> | "
                                "random:<m>:<seed> | file:<path>")
        if ell:
            p.add_argument("--l", type=int, default=1, dest="ell",
                           help="number of stars l (default 1)")
        if c_const:
            p.add_argument("--c-const", type=float, default=DEFAULT_C_CONST,
                           help=f"constant C > 1 (default {DEFAULT_C_CONST})")
        if seedy:
            p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                           help=f"master seed (default {DEFAULT_SEED})")
            p.add_argument("--workers", type=int, default=1,
                           help="worker processes; must not affect results")
        return p

    common(sub.add_parser("stats", help="family size/dp and (alpha,beta)"),
           family=True, ell=True, c_const=True)
    common(sub.add_parser("spectrum", help="eigenvalues and affine decomposition"),
           family=False, ell=True).add_argument(
        "--family", default=None, help="optional family spec to decompose")
    common(sub.add_parser("removal", help="nearest union of stars and bound"),
           family=True, ell=True, c_const=True)
    common(sub.add_parser("ekr", help="exact alpha; are the stars the only maxima"))
    common(sub.add_parser("baranyai", help="perfect-matching partition (k | n)")
           ).add_argument("--partition-only", action="store_true",
                          help="skip the extremal subgraph statistics")
    sim = common(sub.add_parser("simulate", help="Monte Carlo EKR probability"),
                 seedy=True)
    sim.add_argument("--p", required=True,
                     help="edge probability, or comma list for a sweep")
    sim.add_argument("--trials", type=int, default=100)
    thr = common(sub.add_parser("threshold", help="bisection for the 1/2-crossing"),
                 seedy=True)
    thr.add_argument("--trials", type=int, default=200,
                     help="trials per bisection point")
    bnd = common(sub.add_parser("bounds", help="analytic bound report"))
    bnd.add_argument("--zeta", type=float, default=1.0 + DEFAULT_EPSILON)
    bnd.add_argument("--i", type=int, default=1)
    bnd.add_argument("--j", type=int, default=1)
    bnd.add_argument("--c-const", type=float, default=DEFAULT_C_CONST)
    bnd.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    return parser


def _json_safe(value):
    """value with every infinite float, at any depth, as "inf" or "-inf"."""
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    return value


def _emit_json(payload: dict, stream) -> None:
    payload = _json_safe({"schema_version": SCHEMA_VERSION, **payload})
    json.dump(payload, stream, indent=2, sort_keys=True, allow_nan=False)
    stream.write("\n")


def _emit_csv(rows: list[dict], stream, *, seed: int | None = None) -> None:
    stream.write(f"# schema_version={SCHEMA_VERSION}\n")
    if seed is not None:
        stream.write(f"# seed={seed}\n")
    if not rows:
        return
    cols = list(dict.fromkeys(key for row in rows for key in row))  # first seen first
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(cols)
    for row in rows:  # a cell a row lacks stays empty
        writer.writerow(repr(row[c]) if isinstance(row.get(c), float)
                        else str(row.get(c, "")) for c in cols)


def _cmd_stats(args, params) -> dict:
    family = build_family(params, args.family)
    cfg = RemovalConfig(args.ell, args.c_const)
    stats = family_stats(family, cfg.ell)
    payload = stats.to_json_dict()
    payload["family"] = args.family
    payload["preconditions_met"] = stats.removal_precondition_met(cfg.c_const)
    payload["c_const"] = cfg.c_const
    return payload


def _cmd_spectrum(args, params) -> dict:
    payload: dict = {
        "n": args.n,
        "k": args.k,
        "eigenvalues": [
            {"index": i, "value": kneser_eigenvalue(params, i)}
            for i in range(args.k + 1)
        ],
    }
    if args.family:
        family = build_family(params, args.family)
        payload["family"] = args.family
        payload["decomposition"] = decompose_affine(family).to_json_dict()
        payload["residual_bound"] = residual_bound_check(family, args.ell).to_json_dict()
        payload["ell"] = args.ell
    return payload


def _cmd_removal(args, params) -> dict | list:
    family = build_family(params, args.family)
    cfg = RemovalConfig(args.ell, args.c_const)
    report = removal_bound_check(family, cfg)
    rows = case_table(family, cfg)
    if args.format == "csv":
        return rows
    payload = report.to_json_dict()
    payload["family"] = args.family
    payload["case_label"] = case_classify(family, cfg)
    payload["center_set"] = center_set_check(family, cfg).to_json_dict()
    payload["cases"] = rows
    return payload


def _cmd_ekr(args, params) -> dict:
    return verify_ekr(params)


def _cmd_baranyai(args, params) -> dict:
    partition = baranyai_partition(params)
    buf = io.StringIO()
    export_partition(partition, buf)
    payload: dict = {
        "n": args.n,
        "k": args.k,
        "num_classes": len(partition.classes),
        "class_size": args.n // args.k,
        "classes": buf.getvalue().splitlines(),
    }
    if not args.partition_only:
        payload["extremal"] = extremal_subgraph(params)
    return payload


def _cmd_simulate(args, params) -> list:
    try:
        ps = [float(tok) for tok in str(args.p).split(",") if tok]
    except ValueError:
        ps = []
    if not ps:  # unparsable, or no p at all
        raise DomainError(f"bad probability list {args.p!r}")
    ests = estimate_probabilities(params, ps, args.trials, args.seed,
                                  workers=args.workers)
    columns = ("trials", "successes", "fraction", "ci_lo", "ci_hi")
    return [{"p": p, **{c: est[c] for c in columns}, "mean_X": est["mean_x"]}
            for p, est in zip(ps, ests)]


def _cmd_threshold(args, params) -> dict:
    return find_threshold(params, args.trials, args.seed, workers=args.workers)


def _cmd_bounds(args, params) -> dict:
    report = analytic_bounds(params, args.zeta, args.i, args.j,
                             c_const=args.c_const, epsilon=args.epsilon)
    return report.to_json_dict()


_COMMANDS = {
    "stats": _cmd_stats,
    "spectrum": _cmd_spectrum,
    "removal": _cmd_removal,
    "ekr": _cmd_ekr,
    "baranyai": _cmd_baranyai,
    "simulate": _cmd_simulate,
    "threshold": _cmd_threshold,
    "bounds": _cmd_bounds,
}


def _open_out(path: str | None):
    """The --out file, opened before the command runs and emptied only once it
    has succeeded (so a failed command, or one reading that file, finds it
    intact), or stdout."""
    try:
        return open(path, "a") if path else nullcontext(sys.stdout)
    except OSError as exc:
        raise DomainError(f"cannot open --out {path}: {exc.strerror}") from None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    seed = getattr(args, "seed", None)
    fmt = args.format or ("csv" if args.command == "simulate" else "json")
    try:
        with _open_out(args.out) as stream:
            result = _COMMANDS[args.command](args, GroundParams(args.n, args.k))
            if args.out:
                stream.truncate(0)
            if seed is not None:
                print(f"seed={seed}", file=sys.stderr)
            if fmt == "csv":
                rows = result if isinstance(result, list) else [result]
                _emit_csv(rows, stream, seed=seed)
            else:
                payload = {"rows": result} if isinstance(result, list) else result
                _emit_json(payload if seed is None else {**payload, "seed": seed}, stream)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except GuardError as exc:
        print(f"guard: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
