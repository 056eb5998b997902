"""Command-line surface: table reproduction, verification sweeps, bound
queries for arbitrary types and nef divisors, and the approximation lab.

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
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from . import tables
from .bounds import table_binomial, verify_colour, verify_nef
from .dioph import (
    PlaceSpec,
    RationalProjectivePoint,
    alpha_estimate,
    best_sequence_on_line,
    boundedness_trend,
)
from .errors import BadArgs, EngineError, InvalidRank
from .rootsys import SimpleType, build_root_system, supported_types
from .wonderful import NefDivisor, SemisimpleType, dim_X

FORMATS = ("text", "csv", "json", "latex")

# E8 rows are printed across two lines; split value lists after this many.
_LATEX_SPLIT = 4


@dataclass(frozen=True)
class ReportRow:
    """One verification row: a colour of one simple type, with witnesses."""

    type_label: str
    weight_index: int
    comark: int
    table_binomial: int
    required_count: int
    end_dim: int
    h0_dim: int | None
    dense_lower_bound: int
    passed: bool
    notes: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "type": self.type_label,
            "weight_index": self.weight_index,
            "comark": self.comark,
            "table_binomial": str(self.table_binomial),
            "required_count": str(self.required_count),
            "end_dim": str(self.end_dim),
            "h0_dim": None if self.h0_dim is None else str(self.h0_dim),
            "dense_lower_bound": self.dense_lower_bound,
            "pass": self.passed,
            "notes": list(self.notes),
        }

    _CSV_FIELDS = (
        "type",
        "weight_index",
        "comark",
        "table_binomial",
        "required_count",
        "end_dim",
        "h0_dim",
        "dense_lower_bound",
        "pass",
        "notes",
    )

    def to_csv_record(self) -> dict:
        d = self.to_dict()
        d["h0_dim"] = "" if d["h0_dim"] is None else d["h0_dim"]
        d["pass"] = "true" if d["pass"] else "false"
        d["notes"] = json.dumps(d["notes"])
        return d


def rows_to_json(rows: list[ReportRow]) -> str:
    return json.dumps({"rows": [r.to_dict() for r in rows]}, indent=2) + "\n"


def rows_to_csv(rows: list[ReportRow]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=ReportRow._CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    for r in rows:
        writer.writerow(r.to_csv_record())
    return buf.getvalue()


def rows_to_text(rows: list[ReportRow]) -> str:
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
    return "\n".join(lines) + "\n"


def _join_values(values, split: int | None) -> list[str]:
    strs = [str(v) for v in values]
    if split is None or len(strs) <= split + 1:
        return [", ".join(strs)]
    return [", ".join(strs[:split]) + ",", ", ".join(strs[split:])]


# ---------------------------------------------------------------------------
# type selection and the classical rank ceiling

#: Classical rank ceiling when neither ``--rank-max`` nor the environment
#: variable below sets one.  It exceeds every rank the reference tables
#: display and keeps ``--types all`` quick.
DEFAULT_MAX_RANK = 12
MAX_RANK_ENV = "LIEAPPROX_MAX_RANK"


def default_max_rank() -> int:
    """Rank ceiling for classical families, from the environment or 12."""
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


def _selected_types(selector: str, rank_max: int | None) -> list[SimpleType]:
    """The distinct types a ``--types`` selector names: ``all``,
    ``exceptional`` or a comma list, each within the rank ceiling
    (``rank_max``, else the environment, else 12)."""
    ceiling = default_max_rank() if rank_max is None else rank_max
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
# tables subcommand


def render_rootcurves(types: list[SimpleType], fmt: str) -> str:
    """The root-curve table: comark row and binomial-threshold row per type,
    printed in the reference row order, with a discrepancy appendix."""
    rows = []
    appendix: list[str] = []
    for st in sorted(types):
        comark_row = tables.computed_comark_row(st)
        binom_row = tables.computed_curve_binomial_row(st)
        rows.append((str(st), comark_row, binom_row))
        appendix.extend(tables.audit_comarks(st).describe())
        appendix.extend(tables.audit_curve_binomials(st).describe())
        appendix.extend(tables.header_formula_flags(st))

    if fmt == "json":
        payload = {
            "table": "rootcurves",
            "rows": [
                {
                    "type": label,
                    "comarks": list(comarks),
                    "curve_binomials": [str(v) for v in binoms],
                }
                for label, comarks, binoms in rows
            ],
            "appendix": appendix,
        }
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["type", "position", "comark", "curve_binomial"])
        for label, comarks, binoms in rows:
            for pos, (c, b) in enumerate(zip(comarks, binoms), start=1):
                writer.writerow([label, pos, c, str(b)])
        for note in appendix:
            writer.writerow(["#", "", "", note])
        return buf.getvalue()
    if fmt == "latex":
        lines = [r"\begin{tabular}{|c|c|c|}", r"\hline"]
        for label, comarks, binoms in rows:
            split = _LATEX_SPLIT if label == "E8" else None
            c_lines = _join_values(comarks, None)
            b_lines = _join_values(binoms, split)
            lines.append(f"${label}$ & {c_lines[0]} & {b_lines[0]} \\\\")
            for extra in b_lines[1:]:
                lines.append(f" & & {extra} \\\\")
            lines.append(r"\hline")
        lines.append(r"\end{tabular}")
        if appendix:
            lines.append("% discrepancies:")
            lines.extend(f"%   {note}" for note in appendix)
        return "\n".join(lines) + "\n"
    # text
    lines = ["root curve degrees (comarks) and printed binomial column", ""]
    for family in "ABCD":
        if any(st.family == family for st in types):
            lines.append(
                f"{family}n closed form: comarks {tables.CLOSED_FORMS['comarks'][family]}; "
                f"binomials {tables.CLOSED_FORMS['curve_binomials'][family]}"
            )
    lines.append("")
    for label, comarks, binoms in rows:
        lines.append(f"{label:<4} comarks: {', '.join(map(str, comarks))}")
        lines.append(f"{'':<4} binoms:  {', '.join(map(str, binoms))}")
    if appendix:
        lines.append("")
        lines.append("discrepancy appendix:")
        lines.extend(f"  - {note}" for note in appendix)
    return "\n".join(lines) + "\n"


def render_dims(types: list[SimpleType], fmt: str) -> str:
    """The dimension table: dim X and squared fundamental dimensions, with a
    discrepancy appendix against the printed reference values."""
    rows = []
    appendix: list[str] = []
    for st in sorted(types):
        dim = tables.computed_dim_x(st)
        bases = tables.computed_end_base_row(st)
        rows.append((str(st), dim, bases))
        appendix.extend(tables.audit_dim_x(st).describe())
        appendix.extend(tables.audit_end_bases(st).describe())

    if fmt == "json":
        payload = {
            "table": "dims",
            "rows": [
                {
                    "type": label,
                    "dim_X": dim,
                    "end_dim_bases": [str(b) for b in bases],
                    "end_dims": [str(b * b) for b in bases],
                }
                for label, dim, bases in rows
            ],
            "appendix": appendix,
        }
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["type", "dim_X", "position", "base", "end_dim"])
        for label, dim, bases in rows:
            for pos, b in enumerate(bases, start=1):
                writer.writerow([label, dim, pos, str(b), str(b * b)])
        for note in appendix:
            writer.writerow(["#", "", "", "", note])
        return buf.getvalue()
    if fmt == "latex":
        lines = [r"\begin{tabular}{|c|c|c|}", r"\hline"]
        for label, dim, bases in rows:
            split = _LATEX_SPLIT if label == "E8" else None
            value_lines = _join_values([f"{b}^2" for b in bases], split)
            lines.append(f"${label}$ & ${dim}$ & ${value_lines[0]}$ \\\\")
            for extra in value_lines[1:]:
                lines.append(f" & & ${extra}$ \\\\")
            lines.append(r"\hline")
        lines.append(r"\end{tabular}")
        if appendix:
            lines.append("% discrepancies:")
            lines.extend(f"%   {note}" for note in appendix)
        return "\n".join(lines) + "\n"
    lines = ["dim X and End dimensions of the fundamental representations", ""]
    for family in "ABCD":
        if any(st.family == family for st in types):
            lines.append(
                f"{family}n closed form: dim {tables.CLOSED_FORMS['dim_x'][family]}; "
                f"dims {tables.CLOSED_FORMS['end_bases'][family]}"
            )
    lines.append("")
    for label, dim, bases in rows:
        lines.append(f"{label:<4} dim X = {dim}")
        lines.append(f"{'':<4} dims:  {', '.join(f'{b}^2' for b in bases)}")
    if appendix:
        lines.append("")
        lines.append("discrepancy appendix:")
        lines.extend(f"  - {note}" for note in appendix)
    return "\n".join(lines) + "\n"


def cmd_tables(args) -> int:
    types = _selected_types(args.types, args.rank_max)
    render = render_rootcurves if args.which == "rootcurves" else render_dims
    document = render(types, args.format)
    if args.golden_dir is not None:
        name = args.types if args.types in ("all", "exceptional") else "-".join(map(str, types))
        path = Path(args.golden_dir) / f"{args.which}_{name}_{args.format}.golden"
        if args.write_golden:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(document, encoding="utf-8")
            print(f"wrote {path}")
            return 0
        if not path.exists():
            print(f"golden file {path} missing", file=sys.stderr)
            return 1
        if path.read_text(encoding="utf-8") != document:
            print(f"golden mismatch against {path}", file=sys.stderr)
            return 1
        print(f"golden match: {path}")
        return 0
    print(document, end="")
    return 0


# ---------------------------------------------------------------------------
# verify subcommand


def verification_rows(types: list[SimpleType], mode: str) -> list[ReportRow]:
    rows = []
    for st in sorted(types):
        rs = build_root_system(st)
        dims_audit = tables.audit_end_bases(st)
        node_order = tables.dims_node_order(st)
        for i in range(1, rs.rank + 1):
            end_verdict = verify_colour(st, i, mode="end")
            verdict = verify_colour(st, i, mode="h0") if mode == "h0" else end_verdict
            notes = []
            position = node_order.index(i) + 1
            if position in dims_audit.mismatch_positions:
                if dims_audit.permuted_only:
                    notes.append(
                        f"reference dim table prints {dims_audit.printed[position - 1]} at "
                        f"this position (row is a permutation of the computed one)"
                    )
                else:
                    notes.append(
                        f"reference dim table prints {dims_audit.printed[position - 1]} here, "
                        f"computed {dims_audit.computed[position - 1]}"
                    )
            rows.append(
                ReportRow(
                    type_label=str(st),
                    weight_index=i,
                    comark=verdict.curve_constant,
                    table_binomial=table_binomial(st, i),
                    required_count=verdict.required_count,
                    end_dim=end_verdict.available_sections,
                    h0_dim=verdict.available_sections if mode == "h0" else None,
                    dense_lower_bound=verdict.dense_lower_bound,
                    passed=verdict.passed,
                    notes=tuple(notes),
                )
            )
    return rows


def cmd_verify(args) -> int:
    types = _selected_types(args.types, args.rank_max)
    rows = verification_rows(types, args.mode)
    if args.format == "json":
        print(rows_to_json(rows), end="")
    elif args.format == "csv":
        print(rows_to_csv(rows), end="")
    else:
        print(rows_to_text(rows), end="")
        total = len(rows)
        good = sum(r.passed for r in rows)
        print(f"{good}/{total} colours verified")
    return 0 if all(r.passed for r in rows) else 1


# ---------------------------------------------------------------------------
# bound subcommand


def cmd_bound(args) -> int:
    t = SemisimpleType.parse(args.type)
    _check_ceiling(t.factors, default_max_rank())
    try:
        flat = [int(c) for c in args.divisor.split(",") if c.strip() != ""]
    except ValueError:
        raise BadArgs(f"divisor coordinates must be integers, got {args.divisor!r}") from None
    D = NefDivisor.from_flat(t, flat)
    report = verify_nef(t, D)
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
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
    if args.place == "inf":
        place = PlaceSpec.archimedean()
    else:
        try:
            place = PlaceSpec.at(int(args.place))
        except ValueError:
            raise BadArgs(f"place must be inf or a prime, got {args.place!r}") from None
    if args.curve != "line":
        raise BadArgs(f"unsupported curve {args.curve!r}")
    samples = best_sequence_on_line(target, place, args.count, m=args.m)
    estimate = alpha_estimate(samples, tail_fraction=args.tail)
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
    trends = []
    for gamma in args.gamma or []:
        trend = boundedness_trend(samples, gamma, tail_fraction=args.tail)
        trends.append({"gamma": trend.gamma, "slope": trend.slope, "verdict": trend.verdict})
    if args.format == "json":
        payload["trends"] = trends
        print(json.dumps(payload, indent=2))
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
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later
    ``main`` call in the process."""
    parser = argparse.ArgumentParser(
        prog="lieapprox",
        description="Exact verification of root-curve approximation bounds "
        "on wonderful compactifications, plus a rational-point lab.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tables = sub.add_parser("tables", help="reproduce the reference tables")
    p_tables.add_argument("which", choices=("rootcurves", "dims"))
    p_tables.add_argument("--format", choices=FORMATS, default="text")
    p_tables.add_argument("--types", default="all", help="all, exceptional, or a comma list like E8,G2")
    p_tables.add_argument("--rank-max", type=_positive_int, default=None, help=RANK_MAX_HELP)
    p_tables.add_argument("--golden-dir", default=None, help="check output against a fixture file")
    p_tables.add_argument("--write-golden", action="store_true", help="write the fixture instead of checking")
    p_tables.set_defaults(func=cmd_tables)

    p_verify = sub.add_parser("verify", help="run the colour verification sweep")
    p_verify.add_argument("--types", default="all")
    p_verify.add_argument("--rank-max", type=_positive_int, default=None, help=RANK_MAX_HELP)
    p_verify.add_argument("--mode", choices=("end", "h0"), default="end")
    p_verify.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p_verify.set_defaults(func=cmd_verify)

    p_bound = sub.add_parser("bound", help="verdicts for an arbitrary nef divisor")
    p_bound.add_argument("--type", required=True, help="simple or product type, e.g. E8 or A1xA1")
    p_bound.add_argument("--divisor", required=True, help="comma-separated nef coordinates")
    p_bound.add_argument("--format", choices=("text", "json"), default="text")
    p_bound.set_defaults(func=cmd_bound)

    p_alpha = sub.add_parser("alpha", help="estimate an approximation constant empirically")
    p_alpha.add_argument("--point", "--P", dest="point", required=True, help="target, e.g. 1:0")
    p_alpha.add_argument("--curve", default="line")
    p_alpha.add_argument("--count", type=int, default=1000)
    p_alpha.add_argument("--m", type=int, default=1)
    p_alpha.add_argument("--place", default="inf", help="inf or a prime")
    p_alpha.add_argument("--tail", type=float, default=0.5)
    p_alpha.add_argument("--gamma", type=_finite_float, action="append", help="also report the product trend at gamma")
    p_alpha.add_argument("--format", choices=("text", "json"), default="text")
    p_alpha.set_defaults(func=cmd_alpha)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
