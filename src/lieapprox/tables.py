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
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import comb

from .bounds import table_binomial
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

#: Closed-form strings displayed next to instantiated classical rows.
CLOSED_FORMS = {
    "comarks": {
        "A": "1, ..., 1",
        "B": "1, 2, ..., 2, 1",
        "C": "1, ..., 1",
        "D": "1, 2, ..., 2, 1, 1",
    },
    "curve_binomials": {
        "A": "1, ..., 1",
        "B": "1, n(2n+1), ..., n(2n+1), 1",
        "C": "1, ..., 1",
        "D": "1, n(2n-1), ..., n(2n-1), 1, 1",
    },
    "dim_x": {
        "A": "n(n+2)",
        "B": "n(2n+1)",
        "C": "n(2n+1)",
        "D": "n(2n-1)",
    },
    "end_bases": {
        "A": "(n+1)^2, ..., C(n+1,k)^2, ..., (n+1)^2",
        "B": "(2n+1)^2, ..., C(2n+1,k)^2, ..., C(2n+1,n)^2",
        "C": "(2n)^2, ..., (C(2n,k)-C(2n,k-2))^2, ...",
        "D": "(2n)^2, ..., C(2n,k)^2, ..., C(2n,n-1)^2, (C(2n,n)/2)^2",
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


@dataclass(frozen=True)
class RowAudit:
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
    mism = tuple(i + 1 for i, (p, c) in enumerate(zip(printed, computed)) if p != c)
    diff = Counter(printed) - Counter(computed)
    only_printed = tuple(sorted(diff.elements()))
    diff = Counter(computed) - Counter(printed)
    only_computed = tuple(sorted(diff.elements()))
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


def header_formula_flags(st: SimpleType) -> list[str]:
    """Flags for every cell where the printed binomial column disagrees with
    the threshold formula binom(dim X + d - 1, dim X) its header announces.

    The printed values satisfy binom(dim X + d - 2, d - 1) instead.
    """
    rs = build_root_system(st)
    n = rs.dim_X
    out = []
    for pos, i in enumerate(rootcurve_node_order(st), start=1):
        d = rs.comark_vector[i - 1]
        printed_form = comb(n + d - 2, d - 1)
        header_form = comb(n + d - 1, n)
        if printed_form != header_form:
            out.append(
                f"{st} entry {pos}: printed column satisfies C({n}+{d}-2,{d}-1)={printed_form}, "
                f"header formula gives C({n}+{d}-1,{n})={header_form}"
            )
    return out
