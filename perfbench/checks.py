"""Output checks for every op the benchmark runs.

An op counts as failed if its exit code is not 0 or its output disagrees
with an independent source: closed forms from the literature (Bourbaki
plates) for comarks, dim X, dual Coxeter numbers and fundamental
dimensions, an exact recount of the Liouville bound, an epsilon-basis Weyl
dimension for the small ``bound`` factors, and the repository's own
``tests/golden`` files, read at check time.  Nothing here imports
``lieapprox``, reads a note's wording or depends on an extra JSON key.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path

#: |estimate - m| <= LAB_TOLERANCE * m.  At the archimedean place the tail
#: ratio is about L / (L + log(|P| / |P x Q|)) with L = log|iP + Q|, which
#: for coordinates up to 3 and 20 points is at worst about 0.78; finite
#: places converge faster.
LAB_TOLERANCE = 0.3

_EXC_COMARKS = {
    "E6": (1, 2, 2, 3, 2, 1),
    "E7": (2, 2, 3, 4, 3, 2, 1),
    "E8": (2, 3, 4, 6, 5, 4, 3, 2),
    "F4": (2, 3, 2, 1),
    "G2": (1, 2),
}
_EXC_FUNDAMENTAL_DIMS = {
    "E6": (27, 78, 351, 2925, 351, 27),
    "E7": (133, 912, 8645, 365750, 27664, 1539, 56),
    "E8": (3875, 147250, 6696000, 6899079264, 146325270, 2450240, 30380, 248),
    "F4": (52, 1274, 273, 26),
    "G2": (7, 14),
}
_EXC_COXETER = {"E6": (12, 12), "E7": (18, 18), "E8": (30, 30), "F4": (12, 9), "G2": (6, 4)}


@dataclass(frozen=True)
class Outcome:
    """Verdict on one op, with the number of section counts it computed."""

    ok: bool
    why: str = ""
    h0_computed: int = 0


class Mismatch(Exception):
    pass


def _expect(cond: bool, why: str) -> None:
    if not cond:
        raise Mismatch(why)


# ---------------------------------------------------------------------------
# closed forms


def rank(t: str) -> int:
    return int(t[1:])


def coxeter(t: str) -> tuple[int, int]:
    """(Coxeter number, dual Coxeter number)."""
    f, n = t[0], rank(t)
    return {
        "A": (n + 1, n + 1),
        "B": (2 * n, 2 * n - 1),
        "C": (2 * n, n + 1),
        "D": (2 * n - 2, 2 * n - 2),
    }.get(f) or _EXC_COXETER[t]


def dim_x(t: str) -> int:
    """dim G = rank * (Coxeter number + 1)."""
    return rank(t) * (coxeter(t)[0] + 1)


def comarks(t: str) -> tuple[int, ...]:
    f, n = t[0], rank(t)
    if f in "AC":
        return (1,) * n
    if f == "B":
        return (1,) + (2,) * (n - 2) + (1,)
    if f == "D":
        return (1,) + (2,) * (n - 3) + (1, 1)
    return _EXC_COMARKS[t]


def fundamental_dims(t: str) -> tuple[int, ...]:
    """dim V(omega_k), k = 1..rank, in Bourbaki order."""
    f, n = t[0], rank(t)
    ks = range(1, n + 1)
    if f == "A":
        return tuple(comb(n + 1, k) for k in ks)
    if f == "B":
        return tuple(comb(2 * n + 1, k) if k < n else 2**n for k in ks)
    if f == "C":
        return tuple(comb(2 * n, k) - (comb(2 * n, k - 2) if k >= 2 else 0) for k in ks)
    if f == "D":
        return tuple(comb(2 * n, k) if k <= n - 2 else 2 ** (n - 1) for k in ks)
    return _EXC_FUNDAMENTAL_DIMS[t]


def weyl_dim(t: str, lam: list[int]) -> int:
    """dim V(lam) for A, B, C (epsilon basis) and G2 (closed form)."""
    f, n = t[0], rank(t)
    if t == "G2":
        a, b = lam
        return (a + 1) * (b + 1) * (a + b + 2) * (a + 2 * b + 3) * (a + 3 * b + 4) * (2 * a + 3 * b + 5) // 120

    def eps(weights):
        # omega_k = e_1 + ... + e_k, except the B spin weight (1/2)(e_1 + ... + e_n)
        v = [Fraction(0)] * (n + 1)
        for k, c in enumerate(weights, start=1):
            share = Fraction(c, 2) if f == "B" and k == n else Fraction(c)
            for i in range(k):
                v[i] += share
        return v

    if f == "A":
        roots = [(i, j, -1) for i in range(n + 1) for j in range(i + 1, n + 1)]
    elif f in "BC":
        roots = [(i, j, s) for i in range(n) for j in range(i + 1, n) for s in (-1, 1)]
        roots += [(i, None, 1 if f == "B" else 2) for i in range(n)]
    else:
        raise ValueError(f"no epsilon-basis formula for {t}")

    def pair(v, root):
        i, j, s = root
        return s * v[i] if j is None else v[i] + s * v[j]

    top, rho = eps([c + 1 for c in lam]), eps([1] * n)
    value = math.prod(Fraction(pair(top, r), pair(rho, r)) for r in roots)
    _expect(value.denominator == 1, f"non-integral Weyl dimension for {t} {lam}")
    return int(value)


def rootcurve_order(t: str) -> tuple[int, ...]:
    """Bourbaki index printed at each position of a root-curve row."""
    n = rank(t)
    return tuple(range(n, 2, -1)) + (1, 2) if t[0] == "E" else tuple(range(1, n + 1))


def dims_order(t: str) -> tuple[int, ...]:
    """Bourbaki index printed at each position of a dimension row."""
    n = rank(t)
    return (1,) + tuple(range(3, n + 1)) + (2,) if t[0] == "E" else tuple(range(1, n + 1))


def _dense_exact(n: int, sections: int, dense: int, where: str) -> None:
    """dense is the largest d with sections > C(n+d-1, n)."""
    _expect(
        comb(n + dense - 1, n) < sections <= comb(n + dense, n),
        f"{where}: dense bound {dense} is not the Liouville bound of {sections} in dim {n}",
    )


# ---------------------------------------------------------------------------
# argv helpers


def flag(argv: list[str], name: str, default: str) -> str:
    return argv[argv.index(name) + 1] if name in argv else default


# ---------------------------------------------------------------------------
# verify


def _verify_rows(fmt: str, out: str) -> list[dict]:
    """Rows as dicts with type, i, comark, dense, pass, end, h0 (None if not
    computed) and required (None if the format omits it)."""
    if fmt in ("json", "csv"):
        if fmt == "json":
            records = json.loads(out)["rows"]
        else:
            records = list(csv.DictReader(io.StringIO(out)))
            for r in records:
                r["h0_dim"] = r["h0_dim"] or None
                _expect(r["pass"] in ("true", "false"), "csv pass column")
                r["pass"] = r["pass"] == "true"
        return [
            {
                "type": r["type"],
                "i": int(r["weight_index"]),
                "comark": int(r["comark"]),
                "dense": int(r["dense_lower_bound"]),
                "pass": r["pass"] is True,
                "end": int(r["end_dim"]),
                "h0": None if r["h0_dim"] is None else int(r["h0_dim"]),
                "required": int(r["required_count"]),
            }
            for r in records
        ]
    lines = out.splitlines()
    _expect(len(lines) >= 3 and lines[0].startswith("type"), "text header")
    with_h0 = " h0 " in lines[0]
    m = re.fullmatch(r"(\d+)/(\d+) colours verified", lines[-1])
    _expect(m is not None and m.group(1) == m.group(2) == str(len(lines) - 3), "text summary line")
    rows = []
    for line in lines[2:-1]:
        tok = line.split()
        h0 = tok[6] if with_h0 else "-"
        rows.append({
            "type": tok[0],
            "i": int(tok[1]),
            "comark": int(tok[2]),
            "dense": int(tok[3]),
            "pass": tok[4] == "PASS",
            "end": int(tok[5]),
            "h0": None if h0 == "-" else int(h0),
            "required": None,
        })
    return rows


def check_verify(argv: list[str], out: str) -> Outcome:
    t = flag(argv, "--types", "all")
    rows = _verify_rows(flag(argv, "--format", "text"), out)
    _expect([(r["type"], r["i"]) for r in rows] == [(t, i) for i in range(1, rank(t) + 1)], "row set")
    n, marks, dims = dim_x(t), comarks(t), fundamental_dims(t)
    _expect(1 + sum(r["comark"] for r in rows) == coxeter(t)[1], "1 + sum of comarks != dual Coxeter")
    computed = 0
    for r in rows:
        where = f"{t} omega_{r['i']}"
        d = marks[r["i"] - 1]
        _expect(r["pass"], f"{where}: verdict is not pass")
        _expect(r["comark"] == d, f"{where}: comark {r['comark']} != {d}")
        _expect(r["end"] == dims[r["i"] - 1] ** 2, f"{where}: end_dim {r['end']}")
        _expect(r["required"] in (None, comb(n + d - 1, n)), f"{where}: required_count")
        _expect(r["dense"] >= d, f"{where}: dense bound below comark")
        if r["h0"] is not None:
            computed += 1
            _expect(r["h0"] >= r["end"], f"{where}: h0 below end_dim")
        _dense_exact(n, r["end"] if r["h0"] is None else r["h0"], r["dense"], where)
    return Outcome(True, h0_computed=computed)


# ---------------------------------------------------------------------------
# tables


def _split_values(text: str) -> list[str]:
    return [v.strip() for v in text.replace("$", "").split(",") if v.strip()]


def _table_rows(which: str, fmt: str, out: str) -> dict[str, tuple]:
    """type -> (comarks, binomials) for rootcurves, (dim X, bases) for dims."""
    rows: dict[str, tuple] = {}
    if fmt == "json":
        for r in json.loads(out)["rows"]:
            if which == "rootcurves":
                rows[r["type"]] = (list(r["comarks"]), [int(b) for b in r["curve_binomials"]])
            else:
                bases = [int(b) for b in r["end_dim_bases"]]
                _expect([int(e) for e in r["end_dims"]] == [b * b for b in bases], "end_dims")
                rows[r["type"]] = (r["dim_X"], bases)
        return rows
    if fmt == "csv":
        for rec in csv.reader(io.StringIO(out)):
            if rec[0] in ("type", "#"):
                continue
            if which == "rootcurves":
                entry = rows.setdefault(rec[0], ([], []))
                entry[0].append(int(rec[2]))
                entry[1].append(int(rec[3]))
            else:
                entry = rows.setdefault(rec[0], (int(rec[1]), []))
                entry[1].append(int(rec[3]))
                _expect(int(rec[4]) == int(rec[3]) ** 2, "end_dim column")
        return rows
    if fmt == "latex":
        cells: dict[str, list[str]] = {}
        label = None
        for line in out.splitlines():
            if not line.endswith("\\\\"):
                continue
            parts = [p.strip() for p in line[:-2].split("&")]
            if parts[0]:
                label = parts[0].strip("$")
                cells[label] = parts[1:]
            else:
                cells[label][-1] += ", " + parts[-1]
        for label, (first, second) in cells.items():
            if which == "rootcurves":
                rows[label] = ([int(v) for v in _split_values(first)], [int(v) for v in _split_values(second)])
            else:
                rows[label] = (int(first.strip("$")), [int(v.removesuffix("^2")) for v in _split_values(second)])
        return rows
    lines = out.splitlines()
    for line, nxt in zip(lines, lines[1:]):
        if which == "rootcurves":
            m, m2 = re.fullmatch(r"(\S+)\s+comarks: (.*)", line), re.fullmatch(r"\s+binoms:\s+(.*)", nxt)
            if m and m2:
                rows[m.group(1)] = ([int(v) for v in _split_values(m.group(2))], [int(v) for v in _split_values(m2.group(1))])
        else:
            m, m2 = re.fullmatch(r"(\S+)\s+dim X = (\d+)", line), re.fullmatch(r"\s+dims:\s+(.*)", nxt)
            if m and m2:
                rows[m.group(1)] = (int(m.group(2)), [int(v.removesuffix("^2")) for v in _split_values(m2.group(1))])
    return rows


def check_tables(argv: list[str], out: str, golden_dir: Path) -> Outcome:
    which, t, fmt = argv[1], flag(argv, "--types", "all"), flag(argv, "--format", "text")
    if t == "exceptional":
        golden = golden_dir / f"{which}_exceptional_{fmt}.golden"
        _expect(out == golden.read_text(encoding="utf-8"), f"differs from {golden.name}")
        return Outcome(True)
    rows = _table_rows(which, fmt, out)
    _expect(list(rows) == [t], f"table rows {list(rows)}")
    first, second = rows[t]
    n = dim_x(t)
    if which == "rootcurves":
        marks = [comarks(t)[i - 1] for i in rootcurve_order(t)]
        _expect(first == marks, f"{t} comark row {first}")
        _expect(second == [comb(n + d - 2, d - 1) for d in marks], f"{t} binomial row")
    else:
        _expect(first == n, f"{t} dim X {first}")
        _expect(second == [fundamental_dims(t)[i - 1] for i in dims_order(t)], f"{t} dimension row")
    return Outcome(True)


# ---------------------------------------------------------------------------
# bound


def _bound_report(fmt: str, out: str) -> dict:
    """colours: [(factor, index, curve, dense, sections, pass)], direct:
    (curve, dense, sections, pass) or None, plus pass and dim X if printed."""
    if fmt == "json":
        r = json.loads(out)
        d = r["direct"]
        return {
            "pass": r["pass"] is True,
            "dim_x": None,
            "colours": [
                (c["factor"], c["index"], c["curve_constant"], c["dense_lower_bound"],
                 int(c["available_sections"]), c["pass"] is True)
                for c in r["colour_verdicts"]
            ],
            "direct": None if d is None else (
                d["curve_constant"], d["dense_lower_bound"], int(d["available_sections"]), d["pass"] is True
            ),
        }
    report = {"pass": True, "dim_x": None, "colours": [], "direct": "missing"}
    for line in out.splitlines():
        if m := re.fullmatch(r"type \S+, divisor \(.*\), dim X = (\d+)", line):
            report["dim_x"] = int(m.group(1))
        elif m := re.fullmatch(r"structural verdict \(\d+ colours\): (PASS|FAIL)", line):
            report["pass"] &= m.group(1) == "PASS"
        elif m := re.fullmatch(
            r"  factor (\d+) omega_(\d+): curve (\d+), dense >= (\d+), End = (\d+), (PASS|FAIL)", line
        ):
            f, i, c, d, s = (int(g) for g in m.groups()[:5])
            report["colours"].append((f - 1, i, c, d, s, m.group(6) == "PASS"))
        elif m := re.fullmatch(
            r"direct verdict \(factor \d+\): curve (\d+), dense >= (\d+), h0 = (\d+), (PASS|FAIL)", line
        ):
            report["direct"] = (int(m.group(1)), int(m.group(2)), int(m.group(3)), m.group(4) == "PASS")
        elif line == "direct verdict: not computed":
            report["direct"] = None
    _expect(report["direct"] != "missing", "no direct verdict line")
    return report


def check_bound(argv: list[str], out: str) -> Outcome:
    factors = flag(argv, "--type", "").split("x")
    flat = [int(c) for c in flag(argv, "--divisor", "").split(",")]
    blocks, pos = [], 0
    for f in factors:
        blocks.append(flat[pos : pos + rank(f)])
        pos += rank(f)
    report = _bound_report(flag(argv, "--format", "text"), out)
    n = sum(dim_x(f) for f in factors)
    _expect(report["pass"], "report is not pass")
    _expect(report["dim_x"] in (None, n), f"dim X {report['dim_x']} != {n}")

    expected = [(k, i) for k, block in enumerate(blocks) for i, c in enumerate(block, start=1) if c > 0]
    _expect([c[:2] for c in report["colours"]] == expected, "colour verdict set")
    for k, i, curve, dense, sections, passed in report["colours"]:
        where = f"factor {k} omega_{i}"
        _expect(curve == comarks(factors[k])[i - 1], f"{where}: curve constant")
        _expect(sections == fundamental_dims(factors[k])[i - 1] ** 2, f"{where}: End dimension")
        _dense_exact(dim_x(factors[k]), sections, dense, where)
        _expect(passed and dense >= curve, f"{where}: not pass")

    if report["direct"] is None:
        return Outcome(True)
    curve, dense, h0, passed = report["direct"]
    degrees = [sum(c * m for c, m in zip(b, comarks(f))) for f, b in zip(factors, blocks) if any(b)]
    end = math.prod(weyl_dim(f, b) ** 2 for f, b in zip(factors, blocks))
    _expect(curve == min(degrees), f"direct curve constant {curve} != {min(degrees)}")
    _expect(h0 >= end, f"direct h0 {h0} below End dimension {end}")
    _dense_exact(n, h0, dense, "direct")
    _expect(passed and dense >= curve, "direct verdict is not pass")
    return Outcome(True, h0_computed=1)


# ---------------------------------------------------------------------------
# alpha


def check_alpha(argv: list[str], out: str) -> Outcome:
    m = int(flag(argv, "--m", "1"))
    if flag(argv, "--format", "text") == "json":
        estimate = float(json.loads(out)["estimate"])
    else:
        found = re.search(r"^alpha estimate (\S+) ", out, re.MULTILINE)
        _expect(found is not None, "no estimate line")
        estimate = float(found.group(1))
    _expect(abs(estimate - m) <= LAB_TOLERANCE * m, f"estimate {estimate} not within {LAB_TOLERANCE} * m of m = {m}")
    return Outcome(True)


# ---------------------------------------------------------------------------


def h0_requested(argv: list[str]) -> int:
    """Section counts an op asks for: one per colour of ``verify --mode h0``
    and one direct verdict per ``bound``."""
    if argv[0] == "verify" and flag(argv, "--mode", "end") == "h0":
        return rank(flag(argv, "--types", ""))
    return 1 if argv[0] == "bound" else 0


def check_op(argv: list[str], code: int | str, out: str, golden_dir: Path) -> Outcome:
    """Verdict on one op from its argv, exit code and captured stdout."""
    if code != 0:
        return Outcome(False, f"exit code {code}")
    try:
        if argv[0] == "verify":
            return check_verify(argv, out)
        if argv[0] == "tables":
            return check_tables(argv, out, golden_dir)
        if argv[0] == "bound":
            return check_bound(argv, out)
        if argv[0] == "alpha":
            return check_alpha(argv, out)
        return Outcome(False, f"unknown subcommand {argv[0]}")
    except Mismatch as exc:
        return Outcome(False, str(exc))
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return Outcome(False, f"unparseable output: {exc!r}")
