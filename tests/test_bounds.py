from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieapprox.bounds import (
    NefReport,
    Verdict,
    vanishing_threshold,
    full_conjecture_check,
    liouville_bound,
    table_binomial,
    verify_colour,
    verify_nef,
)
from lieapprox.errors import BadArgs, BadIndex, NotNef
from lieapprox.rootsys import SimpleType, build_root_system, supported_types
from lieapprox.wonderful import NefDivisor, SemisimpleType


def _st(label):
    return SimpleType.parse(label)


# -- counting -------------------------------------------------------------------


# The vanishing threshold binom(n+d-1, n) is the number of monomials of
# degree below d in n variables.


def test_monomial_count_small_cases():
    assert vanishing_threshold(3, 3) == 10  # 1 + 3 + 6
    assert vanishing_threshold(5, 1) == 1
    assert vanishing_threshold(1, 8) == 8
    assert vanishing_threshold(4, 0) == 0


def test_monomial_count_by_explicit_product():
    # independent route: falling-factorial product for degree at most e
    for n, e in [(248, 3), (133, 3), (10, 4)]:
        num = 1
        for j in range(1, e + 1):
            num *= n + j
        assert vanishing_threshold(n, e + 1) == num // factorial(e)
    assert vanishing_threshold(248, 4) == 2604125


def test_liouville_bound_examples():
    assert liouville_bound(5, 1) == 0
    assert liouville_bound(1, 3) == 2
    # thresholds C(d+2,3): 56 < 84 at d=6, then C(9,3) = 84 is not exceeded
    assert liouville_bound(3, comb(9, 3)) == 6
    assert liouville_bound(1, 10**6) == 10**6 - 1


@settings(max_examples=200)
@given(st.integers(1, 150), st.integers(1, 10**24))
def test_liouville_bound_defining_property(n, h0):
    d = liouville_bound(n, h0)
    assert h0 > (comb(n + d - 1, n) if d >= 1 else 0)
    assert h0 <= comb(n + d, n)


@settings(max_examples=200)
@given(st.integers(1, 150), st.integers(1, 10**24), st.integers(0, 10**20))
def test_liouville_bound_monotone_in_sections(n, h0, extra):
    assert liouville_bound(n, h0 + extra) >= liouville_bound(n, h0)


@settings(max_examples=100)
@given(st.integers(1, 120), st.integers(1, 10**18))
def test_liouville_bound_antitone_in_dimension(n, h0):
    assert liouville_bound(n + 1, h0) <= liouville_bound(n, h0)


def test_liouville_bound_bad_args():
    with pytest.raises(BadArgs):
        liouville_bound(0, 5)
    with pytest.raises(BadArgs):
        liouville_bound(3, 0)


# -- per-colour verdicts ----------------------------------------------------------


def test_verdict_passes_iff_the_dense_bound_reaches_the_curve():
    for curve in range(4):
        for dense in range(4):
            v = Verdict(curve, dense, 10, 100, full_conjecture=False)
            assert v.passed == (dense >= curve)
            assert v._replace(dense_lower_bound=curve).passed
            assert v.to_dict()["pass"] is v.passed


def test_a_family_colours_pass_with_unit_curve_constant():
    for n in [1, 2, 5, 9]:
        t = SimpleType("A", n)
        for i in range(1, n + 1):
            v = verify_colour(t, i)
            assert v.passed and v.curve_constant == 1 and v.required_count == 1
            assert v.full_conjecture


def test_e7_comark4_colour():
    v = verify_colour(_st("E7"), 4)
    assert v.curve_constant == 4
    assert v.required_count == comb(136, 3) == 410040
    assert v.available_sections == 365750**2
    assert v.passed


def test_e8_showcase_weights():
    # the comark-6 colour carries the huge End dimension
    v = verify_colour(_st("E8"), 4)
    assert v.curve_constant == 6
    assert v.available_sections == 6899079264**2
    assert v.dense_lower_bound == 12
    assert v.passed
    # both comark-4 colours pass as well
    for i in (3, 6):
        v = verify_colour(_st("E8"), i)
        assert v.curve_constant == 4 and v.passed


def test_every_supported_colour_passes_strict():
    for t in supported_types(12):
        rs = build_root_system(t)
        for i in range(1, rs.rank + 1):
            v = verify_colour(t, i)
            assert v.passed, (t, i)
            assert v.available_sections > v.required_count


def test_h0_mode_passes_a_fortiori():
    for label in ["A2", "B2", "C3", "D4", "G2", "F4"]:
        t = _st(label)
        rs = build_root_system(t)
        for i in range(1, rs.rank + 1):
            end_v = verify_colour(t, i, mode="end")
            h0_v = verify_colour(t, i, mode="h0")
            assert h0_v.available_sections >= end_v.available_sections
            assert h0_v.dense_lower_bound >= end_v.dense_lower_bound
            assert h0_v.passed


def test_verify_colour_bad_inputs():
    with pytest.raises(BadIndex):
        verify_colour(_st("A2"), 3)
    with pytest.raises(BadArgs):
        verify_colour(_st("A2"), 1, mode="exact")


# -- printed binomial column --------------------------------------------------------


def test_table_binomial_reproduces_printed_values():
    assert table_binomial(_st("E7"), 3) == 8911 == comb(134, 2)
    assert table_binomial(_st("E7"), 4) == 400995
    assert table_binomial(_st("E8"), 5) == 161455750  # comark 5 sits at Bourbaki node 5
    assert table_binomial(_st("E8"), 4) == 8137369800
    assert table_binomial(_st("F4"), 2) == 1378
    assert table_binomial(_st("G2"), 1) == 1
    for i in range(1, 6):
        assert table_binomial(SimpleType("A", 5), i) == 1


def test_table_binomial_differs_from_strict_threshold_when_comark_exceeds_one():
    for label, i in [("E8", 4), ("F4", 1), ("G2", 2), ("B3", 2)]:
        t = _st(label)
        v = verify_colour(t, i)
        assert table_binomial(t, i) < v.required_count


# -- nef divisors -----------------------------------------------------------------


def test_verify_nef_zero_divisor_flagged_trivial():
    t = SemisimpleType.parse("A2")
    report = verify_nef(t, NefDivisor.from_flat(t, [0, 0]))
    assert report.trivial
    assert report.passed
    assert report.direct.curve_constant == 0
    assert any("zero divisor" in n for n in report.notes)


def test_nef_report_reads_its_flags_from_its_fields():
    ok, bad = Verdict(1, 2, 3, 4, True), Verdict(2, 1, 3, 4, False)
    D = NefDivisor(((1,), (1,)))
    assert NefReport("A1xA1", D, ((0, 1, ok), (1, 1, ok)), ok, 0, ()).passed
    mixed = NefReport("A1xA1", D, ((0, 1, ok), (1, 1, bad)), ok, 0, ())
    assert not mixed.trivial and not mixed.structural_passed and not mixed.passed
    zero = NefReport("A1xA1", NefDivisor(((0,), (0,))), (), bad, None, ())
    assert zero.trivial and zero.structural_passed and zero.passed


def test_verify_nef_e6_all_ones_structural():
    t = SemisimpleType.parse("E6")
    D = NefDivisor.from_flat(t, [1] * 6)
    report = verify_nef(t, D)
    assert report.structural_passed
    assert len(report.colour_verdicts) == 6
    assert all(v.passed for _, _, v in report.colour_verdicts)


def test_verify_nef_product_direct_small_case():
    t = SemisimpleType.parse("A1xA1")
    report = verify_nef(t, NefDivisor.from_flat(t, [1, 1]))
    assert report.structural_passed
    direct = report.direct
    assert direct.curve_constant == 1
    assert direct.available_sections == 16
    assert direct.dense_lower_bound == 2
    assert direct.passed


def test_verify_nef_factor_supported_divisor_flagged():
    t = SemisimpleType.parse("A1xA1")
    report = verify_nef(t, NefDivisor.from_flat(t, [1, 0]))
    assert report.selected_factor == 0
    assert any("supported only on factor" in n for n in report.notes)
    assert report.direct.passed
    # the one-shot product bound is weaker than the per-factor certificate
    weak = verify_nef(t, NefDivisor.from_flat(t, [5, 0]))
    assert weak.structural_passed
    assert not weak.direct.passed
    assert not weak.passed


def test_verify_nef_computes_direct_verdict_at_e6_rho():
    t = SemisimpleType.parse("E6")
    D = NefDivisor.from_flat(t, [1] * 6)
    report = verify_nef(t, D)
    assert report.direct.passed
    assert not any("skipped" in n for n in report.notes)
    assert report.structural_passed and report.passed


def test_verify_nef_selects_cheapest_factor():
    t = SemisimpleType.parse("G2xA1")
    # G2 second colour has comark 2; the A1 colour costs 1
    D = NefDivisor.from_flat(t, [0, 1, 1])
    report = verify_nef(t, D)
    assert report.selected_factor == 1
    assert report.direct.curve_constant == 1


def test_verify_nef_rejects_negative():
    t = SemisimpleType.parse("A2")
    with pytest.raises(NotNef):
        verify_nef(t, NefDivisor(((1, -2),)))


# -- the degree-one criterion -------------------------------------------------------


def test_full_conjecture_families():
    # every comark is 1 exactly for A_n, C_n, and the coincidence B2 = C2
    for st_ in supported_types(12):
        expected = st_.family in ("A", "C") or st_ == SimpleType("B", 2)
        assert full_conjecture_check(st_) == expected, st_


def test_classical_end_verdicts_and_their_premises_up_to_rank_40():
    # The rank-uniform argument for A-D: every comark is 1 or 2; the comark-2
    # colours are B_r omega_k (2 <= k <= r-1) and D_r omega_k (2 <= k <= r-2),
    # and each has dim V(omega_k) >= dim V(omega_2) = dim X, so End >= (dim X)^2
    # exceeds C(dim X + 1, dim X) = dim X + 1.
    colours = 0
    for st_ in supported_types(40):
        if st_.family not in "ABCD":
            continue
        rs, r = build_root_system(st_), st_.rank
        assert set(rs.comark_vector) <= {1, 2}, st_
        comark2 = {k for k, d in enumerate(rs.comark_vector, start=1) if d == 2}
        assert comark2 == set(range(2, {"B": r, "D": r - 1}.get(st_.family, 2))), st_
        assert all(rs.fundamental_dims[k - 1] >= rs.dim_X for k in comark2), st_
        assert all(verify_colour(st_, k).passed for k in range(1, r + 1)), st_
        colours += r
    assert colours == 3272
