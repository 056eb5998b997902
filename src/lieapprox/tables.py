"""Bundled reference tables and the audit that compares them to recomputation.

Two published reference tables are reproduced: the root-curve table (comark
of every colour plus a binomial threshold column) and the dimension table
(dim X plus the End-dimension of every fundamental representation).  The
engine recomputes every cell and reports agreement cell by cell; where the
printed value differs from the exact recomputation the difference is
flagged, never silently corrected.

Row orderings: classical families, F4 and G2 are printed in Bourbaki index
order.  The E-series rows are printed along diagram traversals that differ
from Bourbaki numbering (and between the two tables): the root-curve table
walks the chain from the long arm (r, r-1, ..., 3, 1) with the branch node 2
last, the dimension table walks it from node 1 (1, 3, 4, ..., r) with the
branch node last.  Audits therefore compare rows under the documented
traversal and as multisets, flagging any row that needs a permutation.

The report model is format-free: ``rootcurve_table`` and ``dims_table``
build a ``Table`` (rows with their appendix of flags) and
``verification_rows`` the per-colour ``ReportRow``s of a verify sweep;
the command line serializes them.
"""

from __future__ import annotations

from collections import Counter
from math import comb
from typing import NamedTuple

from .bounds import table_binomial, vanishing_threshold, verify_colour
from .rootsys import SimpleType, build_root_system

EXCEPTIONAL_LABELS = ("E6", "E7", "E8", "F4", "G2")

# Printed root-curve table: comark row and binomial-column row per type.
_PRINTED_COMARKS = {
    "E6": (1, 2, 3, 2, 1, 2),
    "E7": (1, 2, 3, 4, 3, 2, 2),
    "E8": (2, 3, 4, 5, 6, 4, 2, 3),
    "F4": (2, 3, 2, 1),
    "G2": (1, 2),
}
_PRINTED_CURVE_BINOMIALS = {
    "E6": (1, 78, 3081, 78, 1, 78),
    "E7": (1, 133, 8911, 400995, 8911, 133, 133),
    "E8": (248, 30876, 2573000, 161455750, 8137369800, 2573000, 248, 30876),
    "F4": (52, 1378, 52, 1),
    "G2": (1, 14),
}

# Printed dimension table: dim X and the bases of the squared entries.
_PRINTED_END_BASES = {
    "E6": (27, 351, 2925, 352, 27, 78),
    "E7": (133, 8645, 365750, 27664, 1539, 56, 912),
    "E8": (3875, 6696000, 6899054264, 146325270, 2450240, 30380, 248, 147250),
    "F4": (26, 52, 273, 1274),
    "G2": (7, 14),
}

#: Closed form of each classical family's row, printed in each table's text
#: header when the family is shown.
CLOSED_FORMS = {
    "rootcurves": {
        "A": "comarks 1, ..., 1; binomials 1, ..., 1",
        "B": "comarks 1, 2, ..., 2, 1; binomials 1, n(2n+1), ..., n(2n+1), 1",
        "C": "comarks 1, ..., 1; binomials 1, ..., 1",
        "D": "comarks 1, 2, ..., 2, 1, 1; binomials 1, n(2n-1), ..., n(2n-1), 1, 1",
    },
    "dims": {
        "A": "dim n(n+2); dims (n+1)^2, ..., C(n+1,k)^2, ..., (n+1)^2",
        "B": "dim n(2n+1); dims (2n+1)^2, ..., C(2n+1,k)^2, ..., C(2n+1,n)^2",
        "C": "dim n(2n+1); dims (2n)^2, ..., (C(2n,k)-C(2n,k-2))^2, ...",
        "D": "dim n(2n-1); dims (2n)^2, ..., C(2n,k)^2, ..., C(2n,n-1)^2, (C(2n,n)/2)^2",
    },
}


def _c(n: int, k: int) -> int:
    return comb(n, k) if 0 <= k <= n else 0


def printed_comarks(st: SimpleType) -> tuple[int, ...]:
    f, n = st.family, st.rank
    if f in ("A", "C"):
        return (1,) * n
    if f == "B":
        return (1,) + (2,) * (n - 2) + (1,)
    if f == "D":
        return (1,) + (2,) * (n - 3) + (1, 1)
    return _PRINTED_COMARKS[str(st)]


def printed_curve_binomials(st: SimpleType) -> tuple[int, ...]:
    f, n = st.family, st.rank
    if f in ("A", "C"):
        return (1,) * n
    if f == "B":
        return (1,) + (n * (2 * n + 1),) * (n - 2) + (1,)
    if f == "D":
        return (1,) + (n * (2 * n - 1),) * (n - 3) + (1, 1)
    return _PRINTED_CURVE_BINOMIALS[str(st)]


def printed_dim_x(st: SimpleType) -> int:
    f, n = st.family, st.rank
    if f == "A":
        return n * (n + 2)
    if f in ("B", "C"):
        return n * (2 * n + 1)
    if f == "D":
        return n * (2 * n - 1)
    return {"E6": 78, "E7": 133, "E8": 248, "F4": 52, "G2": 14}[str(st)]


def printed_end_bases(st: SimpleType) -> tuple[int, ...]:
    f, n = st.family, st.rank
    if f == "A":
        return tuple(_c(n + 1, k) for k in range(1, n + 1))
    if f == "B":
        return tuple(_c(2 * n + 1, k) for k in range(1, n + 1))
    if f == "C":
        return tuple(_c(2 * n, k) - _c(2 * n, k - 2) for k in range(1, n + 1))
    if f == "D":
        return tuple(_c(2 * n, k) for k in range(1, n)) + (_c(2 * n, n) // 2,)
    return _PRINTED_END_BASES[str(st)]


def rootcurve_node_order(st: SimpleType) -> tuple[int, ...]:
    """Bourbaki index printed at each position of a root-curve table row."""
    if st.family == "E":
        return tuple(range(st.rank, 2, -1)) + (1, 2)
    return tuple(range(1, st.rank + 1))


def dims_node_order(st: SimpleType) -> tuple[int, ...]:
    """Bourbaki index printed at each position of a dimension table row."""
    if st.family == "E":
        return (1,) + tuple(range(3, st.rank + 1)) + (2,)
    return tuple(range(1, st.rank + 1))


def computed_comark_row(st: SimpleType) -> tuple[int, ...]:
    rs = build_root_system(st)
    return tuple(rs.comark_vector[i - 1] for i in rootcurve_node_order(st))


def computed_curve_binomial_row(st: SimpleType) -> tuple[int, ...]:
    return tuple(table_binomial(st, i) for i in rootcurve_node_order(st))


def computed_end_base_row(st: SimpleType) -> tuple[int, ...]:
    dims = build_root_system(st).fundamental_dims
    return tuple(dims[i - 1] for i in dims_node_order(st))


def computed_dim_x(st: SimpleType) -> int:
    return build_root_system(st).dim_X


class RowAudit(NamedTuple):
    """Cell-by-cell comparison of a printed row against exact recomputation."""

    label: str
    quantity: str
    printed: tuple[int, ...]
    computed: tuple[int, ...]
    mismatch_positions: tuple[int, ...]  # 1-based positions where cells differ
    only_printed: tuple[int, ...]  # multiset difference: printed minus computed
    only_computed: tuple[int, ...]
    uses_traversal: bool  # row order is a documented non-Bourbaki traversal

    @property
    def exact(self) -> bool:
        return not self.mismatch_positions

    @property
    def multiset_match(self) -> bool:
        return not self.only_printed and not self.only_computed

    @property
    def permuted_only(self) -> bool:
        return bool(self.mismatch_positions) and self.multiset_match

    def describe(self) -> list[str]:
        out = []
        if self.uses_traversal:
            out.append(f"{self.label} {self.quantity}: printed in diagram-traversal order, not Bourbaki order")
        for pos in self.mismatch_positions:
            out.append(
                f"{self.label} {self.quantity} entry {pos}: printed {self.printed[pos - 1]}, "
                f"computed {self.computed[pos - 1]}"
            )
        if self.permuted_only:
            out.append(f"{self.label} {self.quantity}: row matches only up to a permutation")
        return out


def _audit(label: str, quantity: str, printed: tuple[int, ...], computed: tuple[int, ...], uses_traversal: bool) -> RowAudit:
    """Compare the rows cell by cell and as multisets.

    Equal rows have no difference.  Otherwise a cell that matches adds the
    same value to both multisets and cancels, so the multiset differences
    are taken over the mismatched cells and the longer row's tail only.
    """
    if printed == computed:
        return RowAudit(label, quantity, printed, computed, (), (), (), uses_traversal)
    mism = tuple(i + 1 for i, (p, c) in enumerate(zip(printed, computed)) if p != c)
    shared = min(len(printed), len(computed))
    left = Counter(printed[shared:])
    right = Counter(computed[shared:])
    left.update(printed[i - 1] for i in mism)
    right.update(computed[i - 1] for i in mism)
    only_printed = tuple(sorted((left - right).elements()))
    only_computed = tuple(sorted((right - left).elements()))
    return RowAudit(label, quantity, printed, computed, mism, only_printed, only_computed, uses_traversal)


def audit_comarks(st: SimpleType) -> RowAudit:
    return _audit(
        str(st), "comarks", printed_comarks(st), computed_comark_row(st), st.family == "E"
    )


def audit_curve_binomials(st: SimpleType) -> RowAudit:
    return _audit(
        str(st),
        "curve-binomials",
        printed_curve_binomials(st),
        computed_curve_binomial_row(st),
        st.family == "E",
    )


def audit_end_bases(st: SimpleType) -> RowAudit:
    return _audit(
        str(st), "dims", printed_end_bases(st), computed_end_base_row(st), st.family == "E"
    )


def audit_dim_x(st: SimpleType) -> RowAudit:
    return _audit(str(st), "dimX", (printed_dim_x(st),), (computed_dim_x(st),), False)


def header_formula_flags(st: SimpleType, printed: tuple[int, ...]) -> list[str]:
    """Flags for every cell where the printed binomial column disagrees with
    the threshold formula binom(dim X + d - 1, dim X) its header announces.

    The printed values satisfy binom(dim X + d - 2, d - 1), ``table_binomial``;
    ``printed`` is that row in the table's node order, as
    ``computed_curve_binomial_row(st)`` gives it.
    """
    rs = build_root_system(st)
    n = rs.dim_X
    out = []
    for pos, (i, printed_form) in enumerate(zip(rootcurve_node_order(st), printed), start=1):
        d = rs.comark_vector[i - 1]
        header_form = vanishing_threshold(n, d)
        if printed_form != header_form:
            out.append(
                f"{st} entry {pos}: printed column satisfies C({n}+{d}-2,{d}-1)={printed_form}, "
                f"header formula gives C({n}+{d}-1,{n})={header_form}"
            )
    return out


# ---------------------------------------------------------------------------
# report model: the two tables and the verification rows


class TableRow(NamedTuple):
    """One type's row of a reference table, in two views.

    ``data`` is the row as a JSON object, big integers as decimal strings.
    ``cells`` is the printed row: the type label, the first cell and the
    values of the second cell, which a long row wraps."""

    data: dict
    cells: tuple[str, str, tuple[str, ...]]


class Table(NamedTuple):
    """A reference table with its discrepancy appendix, ready for any format.

    ``fields`` heads the CSV columns, ``captions`` open the two text lines of
    a row, and ``math`` sets the LaTeX cells in math mode."""

    name: str
    title: str
    closed_forms: tuple[str, ...]
    fields: tuple[str, ...]
    captions: tuple[str, str]
    math: bool
    rows: tuple[TableRow, ...]
    appendix: tuple[str, ...]


def _closed_forms(name: str, types) -> tuple[str, ...]:
    families = {st.family for st in types}
    return tuple(f"{f}n closed form: {CLOSED_FORMS[name][f]}" for f in "ABCD" if f in families)


def rootcurve_table(types) -> Table:
    """The root-curve table: comark row and binomial-threshold row per type,
    in the reference row order, with a discrepancy appendix."""
    rows, appendix = [], []
    for st in sorted(types):
        comark_audit, binomial_audit = audit_comarks(st), audit_curve_binomials(st)
        comarks = comark_audit.computed
        binoms = [str(b) for b in binomial_audit.computed]
        rows.append(TableRow(
            {"type": str(st), "comarks": list(comarks), "curve_binomials": binoms},
            (str(st), ", ".join(map(str, comarks)), tuple(binoms)),
        ))
        appendix += comark_audit.describe() + binomial_audit.describe()
        appendix += header_formula_flags(st, binomial_audit.computed)
    return Table(
        name="rootcurves",
        title="root curve degrees (comarks) and printed binomial column",
        closed_forms=_closed_forms("rootcurves", types),
        fields=("type", "position", "comark", "curve_binomial"),
        captions=("comarks: ", "binoms:  "),
        math=False,
        rows=tuple(rows),
        appendix=tuple(appendix),
    )


def dims_table(types) -> Table:
    """The dimension table: dim X and squared fundamental dimensions per
    type, with a discrepancy appendix against the printed values."""
    rows, appendix = [], []
    for st in sorted(types):
        dim_audit, bases_audit = audit_dim_x(st), audit_end_bases(st)
        (dim,) = dim_audit.computed
        bases = bases_audit.computed
        rows.append(TableRow(
            {
                "type": str(st),
                "dim_X": dim,
                "end_dim_bases": [str(b) for b in bases],
                "end_dims": [str(b * b) for b in bases],
            },
            (str(st), str(dim), tuple(f"{b}^2" for b in bases)),
        ))
        appendix += dim_audit.describe() + bases_audit.describe()
    return Table(
        name="dims",
        title="dim X and End dimensions of the fundamental representations",
        closed_forms=_closed_forms("dims", types),
        fields=("type", "dim_X", "position", "base", "end_dim"),
        captions=("dim X = ", "dims:  "),
        math=True,
        rows=tuple(rows),
        appendix=tuple(appendix),
    )


class ReportRow(NamedTuple):
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


def _dims_notes(audit: RowAudit, position: int) -> tuple[str, ...]:
    """The note on a colour whose cell of the printed dimension table
    (``position``, 1-based) differs from the computed one."""
    if position not in audit.mismatch_positions:
        return ()
    printed = audit.printed[position - 1]
    if audit.permuted_only:
        return (
            f"reference dim table prints {printed} at this position "
            "(row is a permutation of the computed one)",
        )
    return (f"reference dim table prints {printed} here, computed {audit.computed[position - 1]}",)


def verification_rows(types, mode: str) -> list[ReportRow]:
    """One row per colour of every type: the End verdict, or the full
    section count in ``h0`` mode, noted where the dimension table differs."""
    rows = []
    for st in sorted(types):
        audit = audit_end_bases(st)
        node_order = dims_node_order(st)
        for i in range(1, st.rank + 1):
            end_verdict = verify_colour(st, i, mode="end")
            verdict = verify_colour(st, i, mode="h0") if mode == "h0" else end_verdict
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
                    notes=_dims_notes(audit, node_order.index(i) + 1),
                )
            )
    return rows
