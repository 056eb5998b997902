from math import comb
from pathlib import Path

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieapprox import tables
from lieapprox.cli import TABLE_FORMATS
from lieapprox.rootsys import SimpleType, supported_types

GOLDEN = Path(__file__).parent / "golden"
EXC = [SimpleType.parse(s) for s in tables.EXCEPTIONAL_LABELS]


def render_rootcurves(types, fmt):
    return TABLE_FORMATS[fmt](tables.rootcurve_table(types))


def render_dims(types, fmt):
    return TABLE_FORMATS[fmt](tables.dims_table(types))


# -- the root-curve table reproduces exactly -----------------------------------


def test_comark_rows_exact_for_all_types():
    for st in supported_types(12):
        audit = tables.audit_comarks(st)
        assert audit.exact, (st, audit.mismatch_positions)


def test_curve_binomial_rows_exact_for_all_types():
    for st in supported_types(12):
        audit = tables.audit_curve_binomials(st)
        assert audit.exact, (st, audit.mismatch_positions)


def test_e_series_rows_need_the_documented_traversal():
    # in plain Bourbaki order the printed E-rows do not match
    for label in ("E6", "E7", "E8"):
        st = SimpleType.parse(label)
        from lieapprox.rootsys import build_root_system

        bourbaki = build_root_system(st).comark_vector
        assert bourbaki != tables.printed_comarks(st)
        assert sorted(bourbaki) == sorted(tables.printed_comarks(st))
        assert tables.computed_comark_row(st) == tables.printed_comarks(st)


def test_printed_e8_binomial_row_values():
    assert tables.printed_curve_binomials(SimpleType.parse("E8")) == (
        248, 30876, 2573000, 161455750, 8137369800, 2573000, 248, 30876,
    )


def test_header_formula_flags_exactly_where_comark_exceeds_one():
    for st in supported_types(8):
        from lieapprox.rootsys import build_root_system

        rs = build_root_system(st)
        flags = tables.header_formula_flags(st, tables.computed_curve_binomial_row(st))
        expected = sum(1 for m in rs.comark_vector if m >= 2)
        assert len(flags) == expected, st


# -- the dimension table: matches except the documented cells -------------------


def test_dim_x_column_exact_for_all_types():
    for st in supported_types(12):
        assert tables.audit_dim_x(st).exact, st


@pytest.mark.parametrize("label", ["E7", "G2"])
def test_dims_rows_exact(label):
    audit = tables.audit_end_bases(SimpleType.parse(label))
    assert audit.exact


def test_dims_rows_a_and_c_families_exact():
    for st in supported_types(12):
        if st.family in ("A", "C"):
            assert tables.audit_end_bases(st).exact, st


def test_e6_row_has_single_discrepant_cell():
    audit = tables.audit_end_bases(SimpleType.parse("E6"))
    assert audit.mismatch_positions == (4,)
    assert audit.only_printed == (352,)
    assert audit.only_computed == (351,)


def test_e8_row_has_single_discrepant_cell():
    audit = tables.audit_end_bases(SimpleType.parse("E8"))
    assert audit.mismatch_positions == (3,)
    assert audit.only_printed == (6899054264,)
    assert audit.only_computed == (6899079264,)


def test_f4_row_is_a_pure_permutation():
    audit = tables.audit_end_bases(SimpleType.parse("F4"))
    assert audit.permuted_only
    assert audit.multiset_match


def test_b_family_spin_cells_flagged():
    for n in range(2, 13):
        st = SimpleType("B", n)
        audit = tables.audit_end_bases(st)
        assert audit.mismatch_positions == (n,)
        assert audit.only_printed == (comb(2 * n + 1, n),)
        assert audit.only_computed == (2**n,)


def test_d_family_spin_cells_flagged():
    for n in range(4, 13):
        st = SimpleType("D", n)
        audit = tables.audit_end_bases(st)
        assert audit.mismatch_positions == (n - 1, n)
        assert audit.only_printed == tuple(sorted((comb(2 * n, n - 1), comb(2 * n, n) // 2)))
        assert audit.only_computed == (2 ** (n - 1), 2 ** (n - 1))


_CELL = st.integers(1, 4) | st.integers(1, 10**12)


@st.composite
def _row_pair(draw):
    """A printed row and a computed one: equal, permuted, with some cells
    changed, or of unequal length; small cells force repeated values."""
    printed = draw(st.lists(_CELL, max_size=10))
    kind = draw(st.sampled_from(["equal", "permuted", "changed", "unequal"]))
    if kind == "equal":
        computed = list(printed)
    elif kind == "permuted":
        computed = draw(st.permutations(printed))
    elif kind == "changed":
        computed = [draw(_CELL) if draw(st.booleans()) else c for c in printed]
    else:
        computed = printed[: draw(st.integers(0, len(printed)))] + draw(st.lists(_CELL, max_size=3))
    if draw(st.booleans()):
        printed, computed = computed, printed
    return tuple(printed), tuple(computed)


@settings(max_examples=300)
@given(_row_pair(), st.booleans())
def test_audit_matches_the_counter_oracle(rows, uses_traversal):
    printed, computed = rows
    audit = tables._audit("X1", "dims", printed, computed, uses_traversal)
    mismatch_positions, only_printed, only_computed = oracles.row_audit(printed, computed)
    assert audit._asdict() == {
        "label": "X1",
        "quantity": "dims",
        "printed": printed,
        "computed": computed,
        "mismatch_positions": mismatch_positions,
        "only_printed": only_printed,
        "only_computed": only_computed,
        "uses_traversal": uses_traversal,
    }


def test_descriptions_name_every_mismatch():
    audit = tables.audit_end_bases(SimpleType.parse("E6"))
    text = "\n".join(audit.describe())
    assert "printed 352" in text and "computed 351" in text


# -- golden renderings ------------------------------------------------------------


def test_rootcurves_text_matches_golden():
    got = render_rootcurves(EXC, "text")
    assert got == (GOLDEN / "rootcurves_exceptional_text.golden").read_text()


def test_dims_text_matches_golden():
    got = render_dims(EXC, "text")
    assert got == (GOLDEN / "dims_exceptional_text.golden").read_text()


def test_json_renderings_match_golden():
    assert render_rootcurves(EXC, "json") == (
        GOLDEN / "rootcurves_exceptional_json.golden"
    ).read_text()
    assert render_dims(EXC, "json") == (GOLDEN / "dims_exceptional_json.golden").read_text()


@pytest.mark.parametrize("fmt", ["csv", "latex"])
def test_csv_and_latex_renderings_match_golden(fmt):
    assert render_rootcurves(EXC, fmt) == (GOLDEN / f"rootcurves_exceptional_{fmt}.golden").read_text()
    assert render_dims(EXC, fmt) == (GOLDEN / f"dims_exceptional_{fmt}.golden").read_text()


def test_renderings_deterministic_across_runs():
    for fmt in ("text", "csv", "json", "latex"):
        assert render_rootcurves(EXC, fmt) == render_rootcurves(EXC, fmt)
        assert render_dims(EXC, fmt) == render_dims(EXC, fmt)


def test_latex_mirrors_two_line_e8_row():
    doc = render_dims(EXC, "latex")
    lines = doc.splitlines()
    first = next(i for i, ln in enumerate(lines) if ln.startswith("$E8$"))
    assert lines[first].endswith(r"146325270^2,$ \\")
    assert lines[first + 1].lstrip().startswith("& &")
    doc2 = render_rootcurves(EXC, "latex")
    e8 = next(ln for ln in doc2.splitlines() if ln.startswith("$E8$"))
    assert "161455750," in e8
