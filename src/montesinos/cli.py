"""Command-line front end.

Subcommands:
  enumerate <tangles>      candidate-surface reports for one knot
  verify-family --from N [--to M]
                           check the M(-1/2, 2/5, 1/n) slope-pair family
  pair-gap <tangles>       minimal difference between distinct slopes
  seifert <tangles>        the slope-zero reference system

Knots are written as comma-separated fractions, e.g. "-1/2,2/5,1/11".
Output is byte-deterministic for a fixed invocation. Exit codes: 0 ok,
1 verification failure, 2 usage or parse error, 3 a size limit was hit
(the combination cap, or memory), 4 internal invariant failure (a report
identity broke, the Seifert reference is not one of the systems exactly
once, or a degenerate endpoint solve escaped its handler), 5 no Seifert
reference (every q_i odd and the p_i summing to an odd number), 141
stdout closed early (e.g. by ``| head``).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from itertools import groupby

from .bruteforce import cross_check
from .family import verify_family_row
from .rationals import decimal_str, parse_int
from .systems import (
    DEFAULT_COMBINATION_CAP,
    CapExceededError,
    DegenerateSystemError,
    MontesinosKnot,
    SeifertReferenceError,
    find_seifert_system,
    solve_endpoints,  # noqa: F401  perfbench's tracer test reads cli.solve_endpoints
    system_twist,
)
from .surfaces import CSV_COLUMNS, IntegrityError, analyze

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4
EXIT_NO_REFERENCE = 5
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a killed writer


def _knot_reports(spec: str, type_ii: bool, cap: int, dedupe: bool):
    knot = MontesinosKnot.parse(spec)
    reports, _, diagnostics = analyze(knot, type_ii, cap)
    if dedupe:
        # reports are sorted by slope: keep the first of each run
        reports = [next(run) for _, run in groupby(reports, key=lambda r: r.slope)]
    for note in diagnostics:
        print(f"note: {note}", file=sys.stderr)
    return knot, reports


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return ";".join(value)
    return "" if value is None else str(value)


def _print_csv(columns, rows):
    """One CSV line per row dict, the dicts the JSON output prints, cut to ``columns``."""
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_csv_cell(row[c]) for c in columns] for row in rows)


def _emit_reports(reports, fmt: str):
    if fmt == "json":
        print(json.dumps([r.to_dict() for r in reports], indent=2))
        return
    if fmt == "csv":
        _print_csv(CSV_COLUMNS, [r.to_dict() for r in reports])
        return
    header = f"{'slope':>12} {'type':<4} {'twist':>8} {'sheets':>6} {'euler':>5} {'bdry':>4} {'essential':<12} seifert"
    print(header)
    for r in reports:
        euler = "-" if r.euler is None else str(r.euler)
        seifert = "yes" if r.seifert_flag else ""
        print(
            f"{str(r.slope):>12} {r.system.system_type:<4} {str(r.twist):>8} "
            f"{r.sheets:>6} {euler:>5} {r.boundary_components:>4} {r.essential:<12} {seifert}"
        )
    for r in reports:
        for note in r.notes:
            print(f"note: slope {r.slope}: {note}")


def cmd_enumerate(args) -> int:
    knot, reports = _knot_reports(args.knot, args.all_types, args.cap, args.dedupe)
    if args.cross_check:
        checked, _, mismatched = cross_check(knot, m_max=64)
        print(f"cross-check: {checked} combinations, {len(mismatched)} mismatches", file=sys.stderr)
        if mismatched:
            return EXIT_VERIFY_FAILED
    _emit_reports(reports, args.format)
    return EXIT_OK


def cmd_verify_family(args) -> int:
    from_n, to_n = args.from_n, args.to_n if args.to_n is not None else args.from_n
    if from_n < 11 or to_n < from_n or from_n % 2 == 0 or to_n % 2 == 0:
        print("verify-family needs odd bounds with 11 <= from <= to", file=sys.stderr)
        return EXIT_USAGE
    rows = [verify_family_row(n, args.cap) for n in range(from_n, to_n + 1, 2)]
    if args.format == "json":
        print(json.dumps(rows, indent=2))
    elif args.format == "csv":
        _print_csv(
            ("n", "pass", "slope_small", "slope_big", "gap", "reference_twist", "failures"), rows
        )
    else:
        for row in rows:
            status = "PASS" if row["pass"] else "FAIL " + ",".join(row["failures"])
            print(
                f"n={row['n']} {status} slopes={row['slope_small']},{row['slope_big']} "
                f"gap={row['gap']} seifert_twist={row['reference_twist']}"
            )
    return EXIT_OK if all(row["pass"] for row in rows) else EXIT_VERIFY_FAILED


def cmd_pair_gap(args) -> int:
    # every type II twist is a type III twist (Hatcher-Oertel), so type II adds no slope
    knot, reports = _knot_reports(args.knot, False, args.cap, dedupe=False)
    slopes = sorted({r.slope for r in reports})
    if len(slopes) < 2:
        if args.format == "json":
            print(json.dumps({"knot": knot.spec_string, "pair": None}))
        else:
            print("no pair: fewer than two distinct slopes")
        return EXIT_OK
    # the first of the closest neighbours, as min keeps the first minimum
    low, high = min(zip(slopes, slopes[1:]), key=lambda pair: pair[1] - pair[0])
    gap = high - low
    if args.format == "json":
        print(
            json.dumps(
                {
                    "knot": knot.spec_string,
                    "min_gap": str(gap),
                    "min_gap_decimal": decimal_str(gap),
                    "pair": [str(low), str(high)],
                    "distinct_slopes": len(slopes),
                }
            )
        )
    else:
        print(
            f"minimal gap {gap} (~{decimal_str(gap)}) between slopes {low} and {high} "
            f"({len(slopes)} distinct slopes)"
        )
    return EXIT_OK


def cmd_seifert(args) -> int:
    knot = MontesinosKnot.parse(args.knot)
    reference = find_seifert_system(knot)
    twist = system_twist(reference)
    if args.format == "json":
        payload = reference.to_dict()
        payload["twist"] = str(twist)
        print(json.dumps(payload, indent=2))
    else:
        print(f"Seifert reference for {knot} (twist {twist}):")
        for path in reference.render_paths():
            print(f"  {path}")
    return EXIT_OK


def _integer(text: str) -> int:
    try:
        return parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text} is not an integer") from None


def _positive_int(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text} is not a positive integer")
    return value


def _add_common(parser, with_knot=True, with_cap=True, with_csv=True):
    if with_knot:
        parser.add_argument("knot", help="comma-separated tangle fractions, e.g. -1/2,2/5,1/11")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--json", dest="format", action="store_const", const="json")
    if with_csv:
        group.add_argument("--csv", dest="format", action="store_const", const="csv")
    if with_cap:
        parser.add_argument("--cap", type=_positive_int, default=DEFAULT_COMBINATION_CAP)
    parser.set_defaults(format="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="montesinos-slopes",
        description="Enumerate candidate essential surfaces and boundary slopes of Montesinos knots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="reports for every candidate system of a knot")
    _add_common(p)
    p.add_argument("--all-types", action="store_true", help="include type II systems")
    p.add_argument("--dedupe", action="store_true", help="one report per distinct slope")
    p.add_argument("--cross-check", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify-family", help="check the M(-1/2,2/5,1/n) slope-pair family")
    p.add_argument("--from", dest="from_n", type=_integer, required=True)
    p.add_argument("--to", dest="to_n", type=_integer, default=None)
    _add_common(p, with_knot=False)
    p.set_defaults(func=cmd_verify_family)

    p = sub.add_parser("pair-gap", help="minimal difference between distinct slopes")
    _add_common(p, with_csv=False)  # one result, printed as text or JSON
    p.set_defaults(func=cmd_pair_gap)

    p = sub.add_parser("seifert", help="show the slope-zero reference system")
    # the Seifert search enumerates no combinations; its one system prints
    # as text or JSON
    _add_common(p, with_cap=False, with_csv=False)
    p.set_defaults(func=cmd_seifert)

    return parser


def _shield_negative_knots(argv):
    # argparse reads "-1/2,2/5,1/11" as an option; a leading space makes it
    # positional again, and the fraction parser strips whitespace anyway.
    import re

    return [" " + a if re.match(r"^-\d+[/,]", a) else a for a in argv]


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(_shield_negative_knots(argv))
    if hasattr(args, "knot"):
        args.knot = args.knot.strip()
    try:
        return args.func(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except SeifertReferenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_REFERENCE
    except (IntegrityError, DegenerateSystemError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so the flush at
        # interpreter exit does not raise a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except MemoryError:
        pass  # reported below, once the traceback and the frames it holds are freed
    print("error: out of memory", file=sys.stderr)
    return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
