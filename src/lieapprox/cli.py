"""Command-line surface: table reproduction, verification sweeps, bound
queries for arbitrary types and nef divisors, and the approximation lab.

It reads arguments, selects types, serializes reports and checks goldens;
``tables`` builds the reports.  A command line is read one of two ways.  In
canonical form (a subcommand, then each option spelled in full and followed
by its value) it is read straight from the subcommand parser's own actions
and costs no argparse parse.  Any other command line is parsed by the
top-level parser, so argparse writes every help text and usage error.

Each format has one serializer: ``TABLE_FORMATS`` for a ``Table`` and
``VERIFY_FORMATS`` for verify rows, which share the CSV and JSON helpers.
A golden file is named ``{table}_{selector}_{format}.golden``, the
selector being ``all`` followed by the rank ceiling, ``exceptional``, or
the listed labels sorted and joined by ``-``.

Exit codes: 0 all verdicts pass, 1 at least one verdict failed or a golden
check mismatched, 2 usage or input errors.  Big integers are rendered as
decimal strings in JSON and CSV so no consumer can lose precision.

Classical ranks are capped at the command line, not in the library:
``verify``, ``tables`` and ``bound`` refuse a type above the ceiling
(``--rank-max``, else ``LIEAPPROX_MAX_RANK``, else 12) with exit 2.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from functools import lru_cache
from pathlib import Path

from . import tables
from .bounds import verify_nef
from .dioph import (
    MAX_COUNT,
    PRIME_BOUND,
    PlaceSpec,
    RationalProjectivePoint,
    alpha_estimate,
    best_sequence_on_line,
    boundedness_trend,
)
from .errors import BadArgs, EngineError, InvalidRank
from .rootsys import SimpleType, supported_types
from .tables import ReportRow, Table
from .wonderful import NefDivisor, SemisimpleType, dim_X

# ---------------------------------------------------------------------------
# type selection and the classical rank ceiling

#: Classical rank ceiling when neither ``--rank-max`` nor the environment
#: variable below sets one.  It exceeds every rank the reference tables
#: display and keeps ``--types all`` quick.
DEFAULT_MAX_RANK = 12
MAX_RANK_ENV = "LIEAPPROX_MAX_RANK"


def rank_ceiling(rank_max: int | None = None) -> int:
    """Rank ceiling for classical families: ``rank_max`` (``--rank-max``)
    if given, else the environment, else 12."""
    if rank_max is not None:
        return rank_max
    raw = os.environ.get(MAX_RANK_ENV)
    if raw is None:
        return DEFAULT_MAX_RANK
    try:
        value = int(raw)
    except ValueError:
        raise InvalidRank(f"{MAX_RANK_ENV} must be an integer, got {raw!r}") from None
    if value < 1:
        raise InvalidRank(f"{MAX_RANK_ENV} must be positive, got {value}")
    return value


def _check_ceiling(types, ceiling: int) -> None:
    """Refuse a classical type above the rank ceiling (exit 2)."""
    for st in types:
        if st.family in "ABCD" and st.rank > ceiling:
            raise InvalidRank(
                f"{st} exceeds the rank ceiling {ceiling}; raise it with --rank-max "
                f"(verify, tables) or {MAX_RANK_ENV}"
            )


def _selected_types(selector: str, ceiling: int) -> list[SimpleType]:
    """The distinct types a ``--types`` selector names: ``all``,
    ``exceptional`` or a comma list, each within the rank ceiling."""
    if selector == "all":
        return supported_types(ceiling)
    if selector == "exceptional":
        return [SimpleType.parse(s) for s in tables.EXCEPTIONAL_LABELS]
    types = sorted({SimpleType.parse(s) for s in selector.split(",") if s.strip()})
    if not types:
        raise BadArgs(f"--types {selector!r} selects no type")
    _check_ceiling(types, ceiling)
    return types


# ---------------------------------------------------------------------------
# serializers: one per format, shared by the tables and the verify rows

# E8 rows are printed across two lines; LaTeX splits them after this many values.
_LATEX_SPLIT = 4


#: One encoder for every JSON document.  The payloads are trees, freshly
#: built by ``to_dict`` and the commands from lists, dicts, strings and
#: numbers, so no payload can hold a cycle and the cycle check is skipped.
_ENCODER = json.JSONEncoder(indent=2, check_circular=False)


def _json(payload) -> str:
    return _ENCODER.encode(payload) + "\n"


def _csv(header, records) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(records)
    return buf.getvalue()


def table_text(table: Table) -> str:
    lines = [table.title, "", *table.closed_forms, ""]
    first, second = table.captions
    for label, cell, values in (row.cells for row in table.rows):
        lines.append(f"{label:<4} {first}{cell}")
        lines.append(f"{'':<4} {second}{', '.join(values)}")
    if table.appendix:
        lines += ["", "discrepancy appendix:", *(f"  - {note}" for note in table.appendix)]
    return "\n".join(lines) + "\n"


def table_csv(table: Table) -> str:
    """One record per position: a row's single values, the position, and the
    entry of each of its lists there; then one record per appendix note."""
    records = []
    for row in table.rows:
        single = [v for v in row.data.values() if not isinstance(v, list)]
        lists = [v for v in row.data.values() if isinstance(v, list)]
        records += [(*single, pos, *entries) for pos, entries in enumerate(zip(*lists), start=1)]
    padding = [""] * (len(table.fields) - 2)
    return _csv(table.fields, records + [("#", *padding, note) for note in table.appendix])


def table_json(table: Table) -> str:
    return _json({"table": table.name, "rows": [row.data for row in table.rows], "appendix": list(table.appendix)})


def table_latex(table: Table) -> str:
    def cell(text: str) -> str:
        return f"${text}$" if table.math else text

    lines = [r"\begin{tabular}{|c|c|c|}", r"\hline"]
    for label, first, values in (row.cells for row in table.rows):
        if label == "E8":
            wrapped = [", ".join(values[:_LATEX_SPLIT]) + ",", ", ".join(values[_LATEX_SPLIT:])]
        else:
            wrapped = [", ".join(values)]
        lines.append(f"${label}$ & {cell(first)} & {cell(wrapped[0])} \\\\")
        lines += [f" & & {cell(extra)} \\\\" for extra in wrapped[1:]]
        lines.append(r"\hline")
    lines.append(r"\end{tabular}")
    if table.appendix:
        lines += ["% discrepancies:", *(f"%   {note}" for note in table.appendix)]
    return "\n".join(lines) + "\n"


#: ``tables --format`` choices and their serializers.
TABLE_FORMATS = {"text": table_text, "csv": table_csv, "json": table_json, "latex": table_latex}


def verify_text(rows: list[ReportRow]) -> str:
    """The fixed-width verify layout, closed by the count of passing colours."""
    with_h0 = any(r.h0_dim is not None for r in rows)
    header = f"{'type':<6} {'i':>2} {'comark':>6} {'dense>=':>7} {'pass':<5} {'end dim':>24}"
    if with_h0:
        header += f" {'h0':>24}"
    header += "  notes"
    lines = [header, "-" * len(header)]
    for r in rows:
        line = (
            f"{r.type_label:<6} {r.weight_index:>2} {r.comark:>6} {r.dense_lower_bound:>7} "
            f"{'PASS' if r.passed else 'FAIL':<5} {r.end_dim:>24}"
        )
        if with_h0:
            line += f" {'-' if r.h0_dim is None else r.h0_dim:>24}"
        lines.append(line + "  " + "; ".join(r.notes))
    lines.append(f"{sum(r.passed for r in rows)}/{len(rows)} colours verified")
    return "\n".join(lines) + "\n"


def verify_csv(rows: list[ReportRow]) -> str:
    """The JSON rows as CSV: null is an empty cell, booleans and lists are JSON."""
    records = [r.to_dict() for r in rows]
    cells = [
        ["" if v is None else json.dumps(v) if isinstance(v, (bool, list)) else v for v in record.values()]
        for record in records
    ]
    return _csv(list(records[0]), cells)


def verify_json(rows: list[ReportRow]) -> str:
    return _json({"rows": [r.to_dict() for r in rows]})


#: ``verify --format`` choices and their serializers.
VERIFY_FORMATS = {"text": verify_text, "csv": verify_csv, "json": verify_json}


# ---------------------------------------------------------------------------
# tables subcommand


def cmd_tables(args) -> int:
    if args.write_golden and args.golden_dir is None:
        raise BadArgs("--write-golden needs --golden-dir")
    ceiling = rank_ceiling(args.rank_max)
    types = _selected_types(args.types, ceiling)
    build = tables.rootcurve_table if args.which == "rootcurves" else tables.dims_table
    document = TABLE_FORMATS[args.format](build(types))
    if args.golden_dir is None:
        print(document, end="")
        return 0
    # an ``all`` golden depends on the ceiling; a list is named by its labels
    name = {"all": f"all{ceiling}", "exceptional": "exceptional"}.get(args.types, "-".join(map(str, types)))
    path = Path(args.golden_dir) / f"{args.which}_{name}_{args.format}.golden"
    if args.write_golden:
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(document, encoding="utf-8")
        except OSError as exc:
            raise BadArgs(f"cannot write golden file {path}: {exc}") from None
        print(f"wrote {path}")
        return 0
    # bytes, so a golden that is not UTF-8 is a mismatch like any other
    try:
        golden = path.read_bytes()
    except FileNotFoundError:
        print(f"golden file {path} missing", file=sys.stderr)
        return 1
    except OSError as exc:
        raise BadArgs(f"cannot read golden file {path}: {exc}") from None
    if golden != document.encode("utf-8"):
        print(f"golden mismatch against {path}", file=sys.stderr)
        return 1
    print(f"golden match: {path}")
    return 0


# ---------------------------------------------------------------------------
# verify subcommand


def cmd_verify(args) -> int:
    rows = tables.verification_rows(_selected_types(args.types, rank_ceiling(args.rank_max)), args.mode)
    print(VERIFY_FORMATS[args.format](rows), end="")
    return 0 if all(r.passed for r in rows) else 1


# ---------------------------------------------------------------------------
# bound subcommand


def cmd_bound(args) -> int:
    t = SemisimpleType.parse(args.type)
    _check_ceiling(t.factors, rank_ceiling())
    try:
        flat = [int(c) for c in args.divisor.split(",")]
    except ValueError:
        raise BadArgs(f"divisor coordinates must be integers, got {args.divisor!r}") from None
    D = NefDivisor.from_flat(t, flat)
    report = verify_nef(t, D)
    if args.format == "json":
        print(_json(report.to_dict()), end="")
    else:
        print(f"type {report.type_label}, divisor ({D}), dim X = {dim_X(t)}")
        if report.trivial:
            print("zero divisor: trivial verdict, nothing to certify")
        else:
            word = "PASS" if report.structural_passed else "FAIL"
            print(f"structural verdict ({len(report.colour_verdicts)} colours): {word}")
            for f_idx, i, v in report.colour_verdicts:
                print(
                    f"  factor {f_idx + 1} omega_{i}: curve {v.curve_constant}, "
                    f"dense >= {v.dense_lower_bound}, End = {v.available_sections}, "
                    f"{'PASS' if v.passed else 'FAIL'}"
                )
            v = report.direct
            print(
                f"direct verdict (factor {report.selected_factor + 1}): curve "
                f"{v.curve_constant}, dense >= {v.dense_lower_bound}, "
                f"h0 = {v.available_sections}, {'PASS' if v.passed else 'FAIL'}"
            )
        for note in report.notes:
            print(f"note: {note}")
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# alpha subcommand


def cmd_alpha(args) -> int:
    target = RationalProjectivePoint.parse(args.point)
    try:
        place = PlaceSpec(None if args.place == "inf" else int(args.place))
    except ValueError:
        raise BadArgs(f"place must be inf or a prime, got {args.place!r}") from None
    samples = best_sequence_on_line(target, place, args.count, m=args.m, tail_fraction=args.tail)
    estimate = alpha_estimate(samples)
    payload = {
        "target": str(target),
        "place": str(place),
        "count": args.count,
        "m": args.m,
        "estimate": estimate.estimate,
        "tail_min": estimate.tail_min,
        "tail_max": estimate.tail_max,
        "tail_count": estimate.tail_count,
    }
    trends = [boundedness_trend(samples, gamma)._asdict() for gamma in args.gamma or []]
    if args.format == "json":
        payload["trends"] = trends
        print(_json(payload), end="")
    else:
        print(f"target {target} at place {place}, {args.count} points on a line, m = {args.m}")
        for s in samples[-3:]:
            print(f"  {s.point}  H = {s.height}  dist = {s.distance}  ratio = {s.ratio:.6f}")
        print(
            f"alpha estimate {estimate.estimate:.6f} "
            f"(tail of {estimate.tail_count}: min {estimate.tail_min:.6f}, max {estimate.tail_max:.6f})"
        )
        for t in trends:
            print(f"gamma = {t['gamma']}: slope {t['slope']:+.4f} -> {t['verdict']}")
    return 0


# ---------------------------------------------------------------------------


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


RANK_MAX_HELP = (
    f"classical rank ceiling (default: {MAX_RANK_ENV} or {DEFAULT_MAX_RANK}): "
    "--types all goes up to it, and a listed type above it exits 2"
)


@lru_cache(maxsize=None)
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each subcommand's parser by name, built on
    first use and shared by every later ``main`` call in the process."""
    parser = argparse.ArgumentParser(
        prog="lieapprox",
        description="Exact verification of root-curve approximation bounds "
        "on wonderful compactifications, plus a rational-point lab.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tables = sub.add_parser("tables", help="reproduce the reference tables")
    p_tables.add_argument(
        "which", choices=("rootcurves", "dims"),
        help="rootcurves: the comarks and the printed binomial column; dims: dim X and the End dimensions",
    )
    p_tables.add_argument("--format", choices=TABLE_FORMATS, default="text", help="output format")
    p_tables.add_argument("--types", default="all", help="all, exceptional, or a comma list like E8,G2")
    p_tables.add_argument("--rank-max", type=_positive_int, default=None, help=RANK_MAX_HELP)
    p_tables.add_argument("--golden-dir", default=None, help="check output against a fixture file")
    p_tables.add_argument("--write-golden", action="store_true", help="write the fixture instead of checking")
    p_tables.set_defaults(func=cmd_tables)

    p_verify = sub.add_parser("verify", help="run the colour verification sweep")
    p_verify.add_argument("--types", default="all", help="all, exceptional, or a comma list like E8,G2")
    p_verify.add_argument("--rank-max", type=_positive_int, default=None, help=RANK_MAX_HELP)
    p_verify.add_argument(
        "--mode", choices=("end", "h0"), default="end",
        help="sections each colour counts: end, dim End(V) (the certified route); h0, the full section space",
    )
    p_verify.add_argument("--format", choices=VERIFY_FORMATS, default="text", help="output format")
    p_verify.set_defaults(func=cmd_verify)

    p_bound = sub.add_parser("bound", help="verdicts for an arbitrary nef divisor")
    p_bound.add_argument("--type", required=True, help="simple or product type, e.g. E8 or A1xA1")
    p_bound.add_argument(
        "--divisor", required=True,
        help="comma-separated nef coordinates; a value that starts with - needs =, as in --divisor=-1,0",
    )
    p_bound.add_argument("--format", choices=("text", "json"), default="text", help="output format")
    p_bound.set_defaults(func=cmd_bound)

    p_alpha = sub.add_parser("alpha", help="estimate an approximation constant empirically")
    p_alpha.add_argument(
        "--point", "--P", dest="point", required=True,
        help="target, e.g. 1:0; a value that starts with - needs =, as in --P=-1:2",
    )
    p_alpha.add_argument(
        "--count", type=int, default=1000,
        help=f"number of points on the line, from 10 to {MAX_COUNT}; exits 2 if the last point's height^m or "
        "distance denominator, before its gcd is divided out, has more digits than str() prints "
        "(sys.get_int_max_str_digits(), 4300 by default): no integer of the line is larger",
    )
    p_alpha.add_argument("--m", type=int, default=1, help="height exponent, at least 1")
    p_alpha.add_argument(
        "--place", default="inf",
        help=f"inf or a prime below {PRIME_BOUND}; a larger place exits 2, since no exact primality "
        "test of this cost is known there",
    )
    p_alpha.add_argument(
        "--tail", type=_finite_float, default=0.5,
        help="fraction of the samples the estimators read, in (0, 1]; the tail must hold at least 2 samples",
    )
    p_alpha.add_argument("--gamma", type=_finite_float, action="append", help="also report the product trend at gamma")
    p_alpha.add_argument("--format", choices=("text", "json"), default="text", help="output format")
    p_alpha.set_defaults(func=cmd_alpha)

    return parser, sub.choices


def _canonical_read(command: argparse.ArgumentParser, tokens: list[str]) -> argparse.Namespace | None:
    """The namespace ``command.parse_known_args(tokens)`` returns, read from
    the command's own actions, or None if ``tokens`` is not canonical.

    Canonical means that each option token is one of the command's option
    strings in full and names a store or append action; that it is followed
    by its one value, which does not start with ``-``; that every other
    token fills the next positional; that each value passes its action's
    type and choices; and that every required argument is present.  The
    actions store the values themselves, so ``append`` accumulates and
    ``store`` keeps the last one, and the defaults are argparse's own,
    ``set_defaults`` included.

    The actions, defaults and value checks are argparse's private
    attributes; the tests compare this read with ``parse_known_args`` on
    every benchmark command line, so a change of them in argparse shows.
    """
    defaults = {}
    for action in command._actions:
        if action.default is not argparse.SUPPRESS:
            defaults.setdefault(action.dest, action.default)
    for dest, default in command._defaults.items():
        defaults.setdefault(dest, default)
    namespace = argparse.Namespace(**defaults)
    positionals = [action for action in command._actions if not action.option_strings]
    seen = set()
    tokens = iter(tokens)
    try:
        for token in tokens:
            action = command._option_string_actions.get(token)
            if action is None:
                if token.startswith("-") or not positionals:
                    return None
                action, flag, text = positionals.pop(0), None, token
            else:
                flag, text = token, next(tokens, "-")
            if (not isinstance(action, (argparse._StoreAction, argparse._AppendAction))
                    or action.nargs is not None or text.startswith("-")):
                return None
            value = command._get_value(action, text)
            command._check_value(action, value)
            action(command, namespace, value, flag)
            seen.add(action)
    except argparse.ArgumentError:
        return None
    if any(action.required and action not in seen for action in command._actions):
        return None
    return namespace


def main(argv=None) -> int:
    """Run one command line and return its exit code.

    A command line that starts with a subcommand and is canonical (see
    ``_canonical_read``) is read straight from that subcommand's actions,
    without an argparse parse.  Every other command line goes to the
    top-level parser's ``parse_args``, which prints the help or the usage
    error itself.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _parsers()
    args = _canonical_read(commands[argv[0]], argv[1:]) if argv and argv[0] in commands else None
    if args is None:
        args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
