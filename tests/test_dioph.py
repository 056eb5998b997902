import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lieapprox.dioph import (
    PRIME_BOUND,
    ApproxSample,
    PlaceSpec,
    RationalProjectivePoint as Point,
    _by_height_then_distance,
    _is_prime,
    alpha_estimate,
    best_sequence_on_line,
    boundedness_trend,
    distance,
    height,
    make_sample,
)
from lieapprox.errors import (
    BadArgs,
    DimensionMismatch,
    NotConverging,
    TooFewPoints,
)

INF = PlaceSpec.archimedean()
P10 = Point((1, 0))


# -- points and places ---------------------------------------------------------


def test_canonicalization():
    assert Point((2, 4)).coords == (1, 2)
    assert Point((-3, 6)).coords == (1, -2)
    assert Point((0, -5, 10)).coords == (0, 1, -2)
    assert Point((7, 5)).coords == (7, 5)


def test_point_rejects_degenerate_input():
    with pytest.raises(BadArgs):
        Point((0, 0))
    with pytest.raises(BadArgs):
        Point((3,))
    with pytest.raises(BadArgs):
        Point.parse("x:y")


@pytest.mark.parametrize("coords", [(1.5, 2), ("3", "6"), (2.0, 4), (Fraction(1, 2), 1), 7])
def test_point_rejects_coordinates_that_are_not_integers(coords):
    with pytest.raises(BadArgs, match="must be integers"):
        Point(coords)


@pytest.mark.parametrize("text", ["1::0", "1:0:", ":1:0", "1, ,0", ""])
def test_parse_rejects_empty_coordinates(text):
    with pytest.raises(BadArgs, match="empty coordinate"):
        Point.parse(text)


def test_parse_accepts_either_separator():
    assert Point.parse("2:-4, 6") == Point((1, -2, 3))


def test_place_validation():
    assert PlaceSpec.at(2).prime == 2
    assert PlaceSpec.archimedean().is_archimedean
    with pytest.raises(BadArgs):
        PlaceSpec.at(6)


def _trial_division_is_prime(n):
    return n >= 2 and all(n % f for f in range(2, int(n**0.5) + 1))


def test_is_prime_matches_trial_division_below_1e5():
    assert all(_is_prime(n) == _trial_division_is_prime(n) for n in range(10**5))


@pytest.mark.parametrize("n, prime", [
    (3_215_031_751, False),  # strong pseudoprime to the bases 2, 3, 5 and 7
    (3_825_123_056_546_413_051, False),  # strong pseudoprime to the bases 2 to 23
    (2**31 - 1, True),
    (2**61 - 1, True),
    ((2**31 - 1) ** 2, False),
    (3_317_044_064_679_887_385_961_813, True),  # the largest prime below the bound
])
def test_is_prime_on_large_numbers(n, prime):
    assert _is_prime(n) is prime


def test_places_at_or_above_the_prime_bound_are_refused():
    # the bound itself is the least strong pseudoprime to the first 13 prime bases
    for p in (PRIME_BOUND, 2**89 - 1):
        with pytest.raises(BadArgs, match="too large"):
            PlaceSpec.at(p)
    assert PlaceSpec.at(2**61 - 1).prime == 2**61 - 1


def test_padic_absolute_value():
    p3 = PlaceSpec.at(3)
    assert p3.abs(9) == Fraction(1, 9)
    assert p3.abs(10) == 1
    assert p3.abs(-27) == Fraction(1, 27)
    assert p3.abs(0) == 0


def _valuation_by_division(x, p):
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


@given(
    st.sampled_from([2, 3, 5, 7, 11]),
    st.integers(0, 3000),
    st.integers(-(10**30), 10**30).filter(bool),
)
def test_padic_absolute_value_matches_division_loop(p, exponent, unit):
    # unit may itself carry factors of p; the loop is the reference either way
    x = unit * p**exponent
    assert PlaceSpec.at(p).abs(x) == Fraction(1, p ** _valuation_by_division(x, p))


# -- heights and distances -------------------------------------------------------


def test_height_examples():
    assert height(P10) == 1
    assert height(Point((2, 4))) == 2  # normalization forces the primitive rep
    assert height(Point((7, 5)), m=2) == 49
    with pytest.raises(BadArgs):
        height(P10, m=0)


def test_distance_examples():
    assert distance(P10, P10, INF) == 0
    assert distance(P10, Point((0, 1)), INF) == 1
    for i in range(2, 30):
        assert distance(Point((i, 1)), P10, INF) == Fraction(1, i)


def test_distance_symmetric_and_bounded():
    pts = [P10, Point((0, 1)), Point((3, 2)), Point((-5, 8)), Point((1, 1)), Point((1, -1))]
    for place in (INF, PlaceSpec.at(2), PlaceSpec.at(5)):
        bound = 2 if place.is_archimedean else 1
        for a in pts:
            for b in pts:
                d = distance(a, b, place)
                assert d == distance(b, a, place)
                assert 0 <= d <= bound
                assert (d == 0) == (a == b)
    # the sup-norm cross term attains 2 at the archimedean place
    assert distance(Point((1, 1)), Point((1, -1)), INF) == 2


def test_distance_padic():
    # cross term 1, both points primitive, so the 2-adic distance is |8|_2 = 1/8
    assert distance(Point((1, 8)), Point((1, 0)), PlaceSpec.at(2)) == Fraction(1, 8)


def _distance_by_abs(x, y, place):
    """The distance as first written: a Fraction for every cross term and
    every coordinate through PlaceSpec.abs, compared and divided."""
    cross = Fraction(0)
    n = len(x.coords)
    for i in range(n):
        for j in range(i + 1, n):
            value = place.abs(x.coords[i] * y.coords[j] - x.coords[j] * y.coords[i])
            if value > cross:
                cross = value
    denom = max(place.abs(c) for c in x.coords) * max(place.abs(c) for c in y.coords)
    return cross / denom


# coordinates carrying powers of 2 up to 2^40 and of 3 up to 3^30, so cross
# terms have large and unequal valuations at 2 and 3
_coordinate = st.builds(
    lambda unit, a, b: unit * 2**a * 3**b,
    st.integers(-60, 60), st.integers(0, 40), st.integers(0, 30),
)


@st.composite
def _point_pair(draw):
    n = draw(st.integers(2, 4))
    coords = st.lists(_coordinate, min_size=n, max_size=n).filter(any)
    x = Point(tuple(draw(coords)))
    y = x if draw(st.integers(0, 4)) == 0 else Point(tuple(draw(coords)))
    return x, y


@settings(max_examples=400)
@given(_point_pair(), st.sampled_from([None, 2, 3, 5, 7, 11]))
def test_distance_matches_the_fraction_oracle(pair, prime):
    x, y = pair
    place = PlaceSpec(prime)
    d = distance(x, y, place)
    assert d == _distance_by_abs(x, y, place)
    assert (d == 0) == (x == y)


def test_distance_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        distance(P10, Point((1, 0, 0)), INF)


@settings(max_examples=150)
@given(
    st.lists(st.integers(-50, 50), min_size=2, max_size=4).filter(lambda v: any(v)),
    st.integers(-20, 20).filter(lambda s: s != 0),
    st.sampled_from([None, 2, 3, 5]),
)
def test_distance_invariant_under_scaling(coords, scale, prime):
    place = PlaceSpec(prime)
    x = Point(tuple(coords))
    scaled = Point(tuple(scale * c for c in coords))
    other = Point(tuple([1] + [0] * (len(coords) - 1)))
    assert x == scaled
    assert distance(x, other, place) == distance(scaled, other, place)


# -- samples and estimation --------------------------------------------------------


def test_make_sample_rejects_target_itself():
    with pytest.raises(BadArgs):
        make_sample(P10, P10, INF)


def test_best_sequence_on_line_refuses_a_nonpositive_exponent():
    for m in (0, -1):
        with pytest.raises(BadArgs, match="height exponent must be positive"):
            best_sequence_on_line(P10, INF, 20, m=m)
        with pytest.raises(BadArgs, match="height exponent must be positive"):
            best_sequence_on_line(Point((1, 2, 3)), PlaceSpec.at(3), 20, m=m)


def _line_representatives(target, place, count):
    """The representatives i*P + e_j (inf) or P + p^i e_j (prime p), not yet
    divided by their gcd, for the first e_j independent of P."""
    coords = target.coords
    n = len(coords)
    j = next(j for j in range(n) if any(c for k, c in enumerate(coords) if k != j))
    for i in range(1, count + 1):
        if place.is_archimedean:
            yield tuple(i * c + (k == j) for k, c in enumerate(coords))
        else:
            yield tuple(c + place.prime**i * (k == j) for k, c in enumerate(coords))


@st.composite
def _line_target(draw):
    """A target in P^1 to P^3, often with zero coordinates, and often with
    every coordinate but one sharing a factor, so that representatives on
    the line have a gcd above 1 (and at a prime the offset v_p is positive)."""
    n = draw(st.integers(2, 4))
    coords = draw(st.lists(st.sampled_from([0]) | st.integers(-30, 30), min_size=n, max_size=n))
    factor = draw(st.sampled_from([1, 2, 3, 6, 9]))
    kept = draw(st.integers(0, n - 1))
    coords = [c if k == kept else factor * c for k, c in enumerate(coords)]
    if not any(coords):
        coords[kept] = 1
    return Point(tuple(coords))


@settings(max_examples=300, deadline=None)
@given(
    _line_target(),
    st.sampled_from([None, 2, 3, 5, 7, 11]),
    st.integers(10, 40),
    st.integers(1, 3),
)
@example(Point((3, -2)), None, 60, 2)  # every odd i has gcd 2: (89 : -59) at i = 29
@example(Point((1, 2, 4)), 3, 20, 1)  # 1 + 3^i is even, so every representative has gcd 2
@example(Point((1, 9, 3)), 3, 20, 1)  # offset v_3(gcd(9, 3)) = 1
@example(Point((1, 0)), None, 10, 1)  # i = 1 gives H = 1 and dist = 1: the ratio is NaN
def test_line_samples_match_make_sample(target, prime, count, m):
    place = PlaceSpec(prime)
    samples = best_sequence_on_line(target, place, count, m)
    reps = list(_line_representatives(target, place, count))
    assert len(samples) == len(reps) == count
    for sample, rep in zip(samples, reps):
        expected = make_sample(Point(rep), target, place, m)
        assert sample.point == expected.point
        assert sample.height == expected.height
        assert sample.distance == expected.distance
        assert sample.ratio == expected.ratio or math.isnan(sample.ratio) and math.isnan(expected.ratio)


def test_alpha_estimate_closed_form_line():
    seq = best_sequence_on_line(P10, INF, 1000, m=1)
    est = alpha_estimate(seq)
    assert est.sample_count == 1000
    assert est.estimate == pytest.approx(1.0, abs=1e-9)
    est2 = alpha_estimate(best_sequence_on_line(P10, INF, 1000, m=2))
    assert est2.estimate == pytest.approx(2.0, abs=1e-9)
    est3 = alpha_estimate(best_sequence_on_line(P10, INF, 300, m=3))
    assert est3.estimate == pytest.approx(3.0, abs=1e-9)


def test_alpha_estimate_plane_and_offline_targets():
    est = alpha_estimate(best_sequence_on_line(Point((1, 0, 0)), INF, 200))
    assert 0.95 <= est.estimate <= 1.05
    est_75 = alpha_estimate(best_sequence_on_line(Point((7, 5)), INF, 500))
    assert 0.9 <= est_75.estimate <= 1.05


def test_alpha_estimate_padic():
    est = alpha_estimate(best_sequence_on_line(P10, PlaceSpec.at(2), 60))
    assert est.estimate == pytest.approx(1.0, abs=1e-9)
    est3 = alpha_estimate(best_sequence_on_line(P10, PlaceSpec.at(3), 40))
    assert est3.estimate == pytest.approx(1.0, abs=1e-9)


def test_sparser_sequence_does_not_raise_alpha():
    # heights i^2 with distances 1/i^2: the ratio is still 1
    seq = [make_sample(Point((i * i, 1)), P10, INF) for i in range(2, 200)]
    assert alpha_estimate(seq).estimate == pytest.approx(1.0, abs=1e-9)


def test_alpha_estimate_needs_enough_points():
    seq = best_sequence_on_line(P10, INF, 12)
    with pytest.raises(TooFewPoints):
        alpha_estimate(seq[:5])
    with pytest.raises(TooFewPoints):
        best_sequence_on_line(P10, INF, 9)


def test_alpha_estimate_rejects_non_converging():
    drifting = [make_sample(Point((2 + i, 1 + i)), P10, INF) for i in range(1, 40)]
    with pytest.raises(NotConverging):
        alpha_estimate(drifting)
    repeated = best_sequence_on_line(P10, INF, 20)
    with pytest.raises(NotConverging):
        alpha_estimate(list(repeated) + [repeated[-1]])


def test_alpha_estimate_tail_fraction_validation():
    seq = best_sequence_on_line(P10, INF, 20)
    with pytest.raises(BadArgs):
        alpha_estimate(seq, tail_fraction=0.0)
    with pytest.raises(BadArgs):
        alpha_estimate(seq, tail_fraction=0.05)  # a tail of one sample
    assert alpha_estimate(seq, tail_fraction=0.1).tail_count == 2


_ESTIMATORS = {
    "alpha_estimate": lambda seq, tail: alpha_estimate(seq, tail_fraction=tail),
    "boundedness_trend": lambda seq, tail: boundedness_trend(seq, 1.0, tail_fraction=tail),
}


@pytest.mark.parametrize("name", _ESTIMATORS)
@pytest.mark.parametrize("tail", [0.0, 1.5, math.nan, 0.05], ids=["0", "1.5", "nan", "one-sample"])
def test_tail_fraction_is_validated_by_both_estimators(name, tail):
    # 0 used to divide by zero in the trend, and 1.5 to fit the last half
    seq = best_sequence_on_line(Point((1, 2)), INF, 20)
    with pytest.raises(BadArgs):
        _ESTIMATORS[name](seq, tail)
    _ESTIMATORS[name](seq, 0.1)  # a tail of two samples is enough



@settings(max_examples=300)
@given(
    st.lists(
        st.tuples(
            st.integers(1, 4),
            st.fractions(min_value=0, max_value=1, max_denominator=3),
        ),
        max_size=30,
    )
)
def test_sample_order_matches_the_height_minus_distance_key(pairs):
    # Small heights and denominators force ties in both fields; the distinct
    # points tell tied samples apart, so the check covers their order too.
    samples = [
        ApproxSample(Point((1, k)), h, Fraction(d), 0.0) for k, (h, d) in enumerate(pairs)
    ]
    expected = sorted(samples, key=lambda s: (s.height, -s.distance))
    assert _by_height_then_distance(samples) == expected


# -- the boundedness dichotomy ------------------------------------------------------


def test_trend_dichotomy_around_the_estimate():
    # slope of log(dist^gamma H) against log H on this sequence is (m-gamma)/m
    for m in (1, 2):
        seq = best_sequence_on_line(P10, INF, 1000, m=m)
        alpha = alpha_estimate(seq).estimate
        above = boundedness_trend(seq, alpha + 0.2)
        below = boundedness_trend(seq, alpha - 0.2)
        assert above.verdict == "bounded"
        assert above.slope == pytest.approx(-0.2 / m, abs=1e-6)
        assert below.verdict == "unbounded"
        assert below.slope == pytest.approx(0.2 / m, abs=1e-6)


def test_trend_membership_monotone_in_gamma():
    seq = best_sequence_on_line(P10, INF, 400)
    gammas = [0.5, 0.8, 1.2, 1.5, 2.0]
    verdicts = [boundedness_trend(seq, g).verdict for g in gammas]
    # once bounded, stays bounded for larger gamma
    first_bounded = verdicts.index("bounded")
    assert all(v == "bounded" for v in verdicts[first_bounded:])
    assert all(v == "unbounded" for v in verdicts[:first_bounded])


def test_trend_flat_at_the_critical_exponent():
    seq = best_sequence_on_line(P10, INF, 500)
    assert boundedness_trend(seq, 1.0).verdict == "indeterminate"
