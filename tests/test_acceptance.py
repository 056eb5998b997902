"""Acceptance suite: one test per criterion, one pass/fail line printed each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print.  Every comparison is exact integer arithmetic except the lab
estimates of criterion 9, whose tolerances are stated inline.
"""

import functools
from math import comb

from lieapprox.bounds import (
    full_conjecture_check,
    liouville_bound,
    table_binomial,
    verify_colour,
)
from lieapprox.cli import main
from lieapprox.dioph import (
    PlaceSpec,
    RationalProjectivePoint,
    alpha_estimate,
    best_sequence_on_line,
    boundedness_trend,
)
from lieapprox.repdim import dominant_weights_below, end_dim, h0_dim, weyl_dim
from lieapprox.rootsys import (
    COXETER_NUMBER,
    SimpleType,
    build_root_system,
    supported_types,
)
from oracles import DUAL_COXETER_NUMBER
from lieapprox import tables
from lieapprox.wonderful import SemisimpleType, dim_X

CLASSICAL = [
    SimpleType(f, n)
    for f in "ABCD"
    for n in range({"A": 2, "B": 2, "C": 2, "D": 4}[f], 13)
]
EXCEPTIONAL = [SimpleType.parse(s) for s in tables.EXCEPTIONAL_LABELS]


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {number:02d}: {description}")
                raise
            print(f"[PASS] criterion {number:02d}: {description}")

        return wrapper

    return decorate


@criterion(1, "comark rows reproduce the reference table exactly, ranks 2-12")
def test_criterion_01_comark_reproduction():
    for st in CLASSICAL + EXCEPTIONAL:
        audit = tables.audit_comarks(st)
        assert audit.exact and audit.multiset_match, st
    # symbolic shape of the classical rows
    for st in CLASSICAL:
        row = build_root_system(st).comark_vector
        if st.family in ("A", "C"):
            assert set(row) == {1}
        elif st.family == "B":
            assert row == (1,) + (2,) * (st.rank - 2) + (1,)
        else:
            assert row == (1,) + (2,) * (st.rank - 3) + (1, 1)


@criterion(2, "binomial column reproduced exactly and the header-formula gap flagged")
def test_criterion_02_table_binomial_column():
    for st in CLASSICAL + EXCEPTIONAL:
        assert tables.audit_curve_binomials(st).exact, st
    e8 = SimpleType.parse("E8")
    printed = tables.computed_curve_binomial_row(e8)
    assert printed == (248, 30876, 2573000, 161455750, 8137369800, 2573000, 248, 30876)
    # the printed values satisfy C(dimX+d-2, d-1); the header formula
    # C(dimX+d-1, dimX) differs whenever d >= 2, and the report says so
    flags = tables.header_formula_flags(e8, printed)
    assert len(flags) == 8  # every E8 comark is >= 2
    for st in CLASSICAL + EXCEPTIONAL:
        rs = build_root_system(st)
        assert len(tables.header_formula_flags(st, tables.computed_curve_binomial_row(st))) == sum(
            1 for m in rs.comark_vector if m >= 2
        )


@criterion(3, "dim X column matches for every supported type")
def test_criterion_03_dim_x_column():
    for st in CLASSICAL + EXCEPTIONAL:
        assert tables.audit_dim_x(st).exact, st
    assert dim_X(SemisimpleType.parse("E8")) == 248
    assert dim_X(SemisimpleType.parse("G2")) == 14
    for n in range(2, 13):
        assert dim_X(SemisimpleType.parse(f"A{n}")) == n * (n + 2)


@criterion(4, "fundamental dimensions match the reference table, diffs asserted exactly")
def test_criterion_04_weyl_dimensions():
    # clean multiset matches
    for st in CLASSICAL + EXCEPTIONAL:
        audit = tables.audit_end_bases(st)
        if st.family in ("A", "C") or str(st) in ("E7", "G2", "F4"):
            assert audit.multiset_match, st
        if str(st) in ("E7", "G2"):
            assert audit.exact
    # E6: one printed cell differs; assertions of difference, not tolerance
    a6 = tables.audit_end_bases(SimpleType.parse("E6"))
    assert a6.mismatch_positions == (4,)
    assert a6.only_printed == (352,) and a6.only_computed == (351,)
    # E8: seven of eight entries match; the printed 6899054264 is reported
    a8 = tables.audit_end_bases(SimpleType.parse("E8"))
    assert a8.mismatch_positions == (3,)
    assert a8.only_printed == (6899054264,) and a8.only_computed == (6899079264,)
    # B/D final weights: computed spin dimensions reported against printed forms
    for n in range(2, 13):
        ab = tables.audit_end_bases(SimpleType("B", n))
        assert ab.only_computed == (2**n,) and ab.only_printed == (comb(2 * n + 1, n),)
    for n in range(4, 13):
        ad = tables.audit_end_bases(SimpleType("D", n))
        assert ad.only_computed == (2 ** (n - 1),) * 2
        assert set(ad.only_printed) == {comb(2 * n, n - 1), comb(2 * n, n) // 2}


@criterion(5, "strict verification sweep passes for every colour, ranks <= 12, exit 0")
def test_criterion_05_main_sweep(capsys):
    for st in supported_types(12):
        rs = build_root_system(st)
        for i in range(1, rs.rank + 1):
            verdict = verify_colour(st, i, mode="end")
            assert verdict.passed, (st, i)
            assert verdict.available_sections > verdict.required_count
    assert main(["verify", "--types", "all", "--rank-max", "12"]) == 0
    capsys.readouterr()


@criterion(6, "E8 showcase: dense bound >= 11 against curve constant 4, witnesses compared")
def test_criterion_06_e8_showcase(capsys):
    e8 = SimpleType.parse("E8")
    rs = build_root_system(e8)
    # the published showcase row sits at position 3 of both reference tables
    assert tables.computed_comark_row(e8)[2] == 4
    showcase_node = tables.dims_node_order(e8)[2]  # Bourbaki omega_4
    available = end_dim(rs, rs.fundamental_weight(showcase_node))
    base = weyl_dim(rs, rs.fundamental_weight(showcase_node))
    assert available == base * base == 6899079264**2
    assert liouville_bound(248, available) >= 11
    assert liouville_bound(248, available) == 12
    # the printed 20-digit witness is the square of the printed (discrepant) base
    printed = 47596949737616581696
    assert printed == 6899054264**2
    assert available != printed
    assert tables.audit_end_bases(e8).mismatch_positions == (3,)
    # the honest per-weight verdict for that node also passes (curve constant 6)
    verdict = verify_colour(e8, showcase_node)
    assert verdict.curve_constant == 6 and verdict.passed
    # and the CLI surfaces the comparison note on the showcase row
    assert main(["verify", "--types", "E8"]) == 0
    out = capsys.readouterr().out
    assert "6899054264" in out and "6899079264" in out


@criterion(7, "section counts on the rank-one compactification equal C(m+3,3)")
def test_criterion_07_h0_oracle():
    rs = build_root_system(SimpleType("A", 1))
    for m in range(0, 21):
        assert h0_dim(rs, (m,)) == comb(m + 3, 3)


@criterion(8, "structural identities hold exactly across the supported range")
def test_criterion_08_structural_identities():
    phi_plus = {
        "A": lambda n: n * (n + 1) // 2,
        "B": lambda n: n * n,
        "C": lambda n: n * n,
        "D": lambda n: n * (n - 1),
        "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
        "F": lambda n: 24,
        "G": lambda n: 6,
    }
    for st in supported_types(12):
        rs = build_root_system(st)
        assert 1 + sum(rs.comark_vector) == DUAL_COXETER_NUMBER[st.family](st.rank)
        h = COXETER_NUMBER[st.family](st.rank)
        assert rs.num_positive_roots == phi_plus[st.family](st.rank)
        assert rs.rank + 2 * rs.num_positive_roots == st.rank * (h + 1)
    # downward closure of the dominance enumeration
    for label, lam in [("A2", (2, 1)), ("B2", (1, 2)), ("G2", (1, 1)), ("C3", (1, 0, 1))]:
        rs = build_root_system(SimpleType.parse(label))
        family = {w.coords for w in dominant_weights_below(rs, lam)}
        for eta in family:
            assert {w.coords for w in dominant_weights_below(rs, eta)} <= family
    # sections dominate the distinguished summand
    for label in ["A3", "B3", "C3", "D4", "F4", "G2", "E6"]:
        rs = build_root_system(SimpleType.parse(label))
        for i in range(1, rs.rank + 1):
            lam = rs.fundamental_weight(i)
            assert h0_dim(rs, lam) >= end_dim(rs, lam)


@criterion(9, "lab estimates hit 1 and 2 within 5 percent and the dichotomy holds")
def test_criterion_09_diophantine_lab():
    target = RationalProjectivePoint((1, 0))
    place = PlaceSpec(None)
    seq1 = best_sequence_on_line(target, place, 1000, m=1)
    est1 = alpha_estimate(seq1).estimate
    assert 0.95 <= est1 <= 1.05
    seq2 = best_sequence_on_line(target, place, 1000, m=2)
    est2 = alpha_estimate(seq2).estimate
    assert 1.9 <= est2 <= 2.1
    for seq, est in ((seq1, est1), (seq2, est2)):
        assert boundedness_trend(seq, est + 0.2).verdict == "bounded"
        assert boundedness_trend(seq, est - 0.2).verdict == "unbounded"


@criterion(10, "unit intersection with every colour exactly for families A and C")
def test_criterion_10_full_conjecture_families():
    for st in supported_types(12):
        expected = st.family in ("A", "C") or st == SimpleType("B", 2)
        assert full_conjecture_check(st) == expected, st
    # B2 is the rank-two coincidence B2 = C2: its printed row has no 2s
    assert tables.printed_comarks(SimpleType("B", 2)) == (1, 1)
