import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieapprox.errors import BadArgs, BadIndex, InvalidRank, NotNef
from lieapprox.rootsys import SimpleType, supported_types
from lieapprox.wonderful import (
    NefDivisor,
    SemisimpleType,
    dim_X,
    h0_product,
    root_curve_degree,
)


def _t(label):
    return SemisimpleType.parse(label)


def test_parse_products():
    t = _t("A1xA1")
    assert [str(f) for f in t.factors] == ["A1", "A1"]
    assert _t("B3xG2").total_rank == 5
    assert str(_t("e6")) == "E6"
    with pytest.raises(InvalidRank):
        _t("")
    with pytest.raises(InvalidRank):
        _t("A1xD3")


def test_dim_x_closed_forms_all_ranks():
    closed = {
        "A": lambda n: n * (n + 2),
        "B": lambda n: n * (2 * n + 1),
        "C": lambda n: n * (2 * n + 1),
        "D": lambda n: n * (2 * n - 1),
        "E": lambda n: {6: 78, 7: 133, 8: 248}[n],
        "F": lambda n: 52,
        "G": lambda n: 14,
    }
    for st in supported_types(12):
        assert dim_X(SemisimpleType.of(st)) == closed[st.family](st.rank), st


def test_dim_x_additive_over_factors():
    assert dim_X(_t("A1xA1")) == 6
    assert dim_X(_t("A2xG2xB2")) == 8 + 14 + 10
    for label in ["A3", "E6", "G2"]:
        single = dim_X(_t(label))
        assert dim_X(SemisimpleType(tuple([SimpleType.parse(label)] * 3))) == 3 * single


def test_root_curve_degree_is_comark_on_single_colour():
    t = _t("E8")
    for i, expected in enumerate((2, 3, 4, 6, 5, 4, 3, 2), start=1):
        D = NefDivisor.from_flat(t, [1 if j == i else 0 for j in range(1, 9)])
        assert root_curve_degree(t, D, 0) == expected


def test_root_curve_degree_additive_and_zero_only_on_zero():
    t = _t("E7")
    a = NefDivisor.from_flat(t, [1, 1, 0, 0, 0, 0, 0])
    assert root_curve_degree(t, a, 0) == 2 + 2
    zero = NefDivisor.from_flat(t, [0] * 7)
    assert root_curve_degree(t, zero, 0) == 0
    # all comarks positive, so any supported divisor has positive degree
    for i in range(7):
        D = NefDivisor.from_flat(t, [1 if j == i else 0 for j in range(7)])
        assert root_curve_degree(t, D, 0) > 0


def test_root_curve_degree_mixed_weights():
    # E7 Bourbaki comarks (2,2,3,4,3,2,1): omega_1 + omega_2 meets the curve in 4
    t = _t("E7")
    D = NefDivisor.from_flat(t, [1, 1, 0, 0, 0, 0, 0])
    assert root_curve_degree(t, D, 0) == 4


def test_bad_factor_index():
    t = _t("A1xA1")
    D = NefDivisor.from_flat(t, [1, 1])
    with pytest.raises(BadIndex):
        root_curve_degree(t, D, 2)


def test_nef_divisor_validation():
    t = _t("A2")
    with pytest.raises(NotNef):
        NefDivisor.from_flat(t, [1, -1])
    with pytest.raises(BadArgs):
        NefDivisor.from_flat(t, [1, 1, 1])


def test_h0_product_single_factor_matches_h0():
    from lieapprox.repdim import h0_dim
    from lieapprox.rootsys import build_root_system

    t = _t("G2")
    D = NefDivisor.from_flat(t, [1, 1])
    assert h0_product(t, D) == h0_dim(build_root_system(SimpleType.parse("G2")), (1, 1))


def test_h0_product_multiplies():
    t = _t("A1xA1")
    D = NefDivisor.from_flat(t, [1, 1])
    assert h0_product(t, D) == 16  # 4 x 4, sections of O(1) on each P^3
    assert h0_product(t, NefDivisor.from_flat(t, [0, 0])) == 1
    assert h0_product(t, NefDivisor.from_flat(t, [1, 0])) == 4


# -- products split into their factors ---------------------------------------------

_FACTORS = [SimpleType.parse(label) for label in ("A1", "A2", "A3", "B2", "B3", "C2", "C3", "G2")]


@st.composite
def _split_product(draw):
    """Two semisimple types and a nef divisor on each."""
    halves = []
    for _ in range(2):
        factors = draw(st.lists(st.sampled_from(_FACTORS), min_size=1, max_size=2))
        t = SemisimpleType(tuple(factors))
        flat = draw(st.lists(st.integers(0, 2), min_size=t.total_rank, max_size=t.total_rank))
        halves.append((t, NefDivisor.from_flat(t, flat)))
    return halves


@settings(max_examples=100, deadline=None)
@given(_split_product())
def test_h0_product_multiplicative_over_factors(halves):
    (t1, d1), (t2, d2) = halves
    t = SemisimpleType(t1.factors + t2.factors)
    D = NefDivisor.from_flat(t, d1.flat() + d2.flat())
    assert h0_product(t, D) == h0_product(t1, d1) * h0_product(t2, d2)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(supported_types(8)), min_size=1, max_size=3),
       st.lists(st.sampled_from(supported_types(8)), min_size=1, max_size=3))
def test_dim_x_additive_over_drawn_factors(left, right):
    t1, t2 = SemisimpleType(tuple(left)), SemisimpleType(tuple(right))
    assert dim_X(SemisimpleType(t1.factors + t2.factors)) == dim_X(t1) + dim_X(t2)
