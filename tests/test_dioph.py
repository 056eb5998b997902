import io
import math
import re
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import partial

import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lieapprox.cli import main
from lieapprox.dioph import (
    MAX_COUNT,
    PRIME_BOUND,
    AlphaEstimate,
    ApproxLine,
    ApproxSample,
    PlaceSpec,
    RationalProjectivePoint as Point,
    _height_order,
    _is_prime,
    _ratio,
    _tail_start,
    _valuation,
    alpha_estimate,
    best_sequence_on_line,
    boundedness_trend,
    distance,
    make_sample,
)
from lieapprox.errors import (
    BadArgs,
    DimensionMismatch,
    NotConverging,
    TooFewPoints,
)

INF = PlaceSpec(None)
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
    assert PlaceSpec(2).prime == 2
    assert PlaceSpec(None).prime is None
    with pytest.raises(BadArgs):
        PlaceSpec(6)


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
            PlaceSpec(p)
    assert PlaceSpec(2**61 - 1).prime == 2**61 - 1


def test_padic_absolute_value():
    p3 = PlaceSpec(3)
    assert p3.abs(9) == Fraction(1, 9)
    assert p3.abs(10) == 1
    assert p3.abs(-27) == Fraction(1, 27)
    assert p3.abs(0) == 0


@given(
    st.sampled_from([2, 3, 5, 7, 11]),
    st.integers(0, 3000),
    st.integers(-(10**30), 10**30).filter(bool),
)
def test_padic_absolute_value_is_the_largest_dividing_power(p, exponent, unit):
    # unit may itself carry factors of p, so v may exceed the exponent
    x = unit * p**exponent
    v = _valuation(x, p)
    assert v >= exponent
    assert x % p**v == 0 and x % p ** (v + 1) != 0
    assert PlaceSpec(p).abs(x) == Fraction(1, p**v)


# -- heights and distances -------------------------------------------------------


def test_height_examples():
    assert make_sample(P10, Point((0, 1)), INF).height == 1
    assert make_sample(Point((2, 4)), P10, INF).height == 2  # normalization forces the primitive rep
    assert make_sample(Point((7, 5)), P10, INF, m=2).height == 49
    with pytest.raises(BadArgs):
        make_sample(Point((0, 1)), P10, INF, m=0)


def test_distance_examples():
    assert distance(P10, P10, INF) == 0
    assert distance(P10, Point((0, 1)), INF) == 1
    for i in range(2, 30):
        assert distance(Point((i, 1)), P10, INF) == Fraction(1, i)


def test_distance_symmetric_and_bounded():
    pts = [P10, Point((0, 1)), Point((3, 2)), Point((-5, 8)), Point((1, 1)), Point((1, -1))]
    for place in (INF, PlaceSpec(2), PlaceSpec(5)):
        bound = 2 if place.prime is None else 1
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
    assert distance(Point((1, 8)), Point((1, 0)), PlaceSpec(2)) == Fraction(1, 8)


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
            best_sequence_on_line(Point((1, 2, 3)), PlaceSpec(3), 20, m=m)


def _line_representatives(target, place, count, first=1):
    """The representatives i*P + e_j (inf) or P + p^i e_j (prime p) for i
    from ``first`` to ``count``, not yet divided by their gcd, for the first
    e_j independent of P."""
    coords = target.coords
    n = len(coords)
    j = next(j for j in range(n) if any(c for k, c in enumerate(coords) if k != j))
    for i in range(first, count + 1):
        if place.prime is None:
            yield tuple(i * c + (k == j) for k, c in enumerate(coords))
        else:
            yield tuple(c + place.prime**i * (k == j) for k, c in enumerate(coords))


def _hand_built(heights, nums, dens, m=1, tail_fraction=0.5):
    """A line built by hand from its height and distance columns, on the
    target (1 : 0) at inf, through the internal constructor, with the tail
    start of ``_tail_start``.  The columns keep a line's invariants,
    distances that fall along the line included, unless a test says
    otherwise.  The estimators read only the columns; indexing builds the
    points (i : 1) of the real line, whatever the columns hold."""
    count = len(heights)
    return ApproxLine(P10, INF, 1, m, _tail_start(count, tail_fraction), [1] * count, heights, nums, dens)


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
        # the views against the general forms, and the stored integers
        num, den = sample.dist_num, sample.dist_den
        assert sample.point == Point(sample.coords)
        assert sample.distance == distance(sample.point, target, place)
        assert den > 0 and math.gcd(num, den) == 1
        general = _ratio(sample.height, num, den)
        assert sample.ratio == general or math.isnan(sample.ratio) and math.isnan(general)


@settings(max_examples=200, deadline=None)
@given(
    _line_target(),
    st.sampled_from([None, 2, 3, 5, 7, 11]),
    st.integers(10, 60),
    st.integers(1, 3),
)
def test_line_points_are_distinct_and_distances_decrease(target, prime, count, m):
    # alpha_estimate checks neither repeated points nor decreasing distances
    # on a line; these facts make that exact
    line = best_sequence_on_line(target, PlaceSpec(prime), count, m)
    samples = list(line)
    assert len({s.coords for s in samples}) == count
    assert all(a.distance > b.distance for a, b in zip(samples, samples[1:]))
    assert tuple(alpha_estimate(line)) == oracles.alpha_estimate(samples)


#: Targets whose representatives' gcd at inf varies with i, so that a point
#: of small height can hold a small distance and sort into the head.  The
#: head-and-tail test refuses (3 : 4) at every count from 13 that is 5 mod 8,
#: and (8 : 7) at every count from 13 that is 6 mod 7.
_GCD_JUMPS = [Point((3, 4)), Point((8, 7))]


@settings(max_examples=200, deadline=None)
@given(
    _line_target() | st.sampled_from(_GCD_JUMPS),
    st.sampled_from([None, 2, 3, 5, 7, 11]),
    st.integers(10, 300),
    st.integers(1, 3),
)
@example(Point((3, 4)), None, 37, 1)  # the point at i = 37, (28 : 37), has gcd 4
@example(Point((8, 7)), None, 20, 1)
def test_no_line_raises_not_converging(target, prime, count, m):
    # a line's distances go to 0 by construction, so it is never refused:
    # its tail has finite ratios and heights that grow
    line = best_sequence_on_line(target, PlaceSpec(prime), count, m)
    assert len(line) == count
    alpha_estimate(line)
    boundedness_trend(line, 1.0)


def test_a_line_is_a_read_only_sequence_of_samples():
    line = best_sequence_on_line(Point((3, -2, 5)), PlaceSpec(3), 20, m=2)
    samples = list(line)
    assert isinstance(line, ApproxLine) and len(line) == 20
    assert [line[k] for k in range(-20, 20)] == samples + samples
    assert line[-3:] == samples[-3:] and line[::-1] == samples[::-1]
    assert all(type(s) is ApproxSample for s in line[:2])
    for index in (20, -21):
        with pytest.raises(IndexError):
            line[index]
    with pytest.raises(TypeError):
        line[1] = samples[0]


_ESTIMATORS = {
    "alpha_estimate": alpha_estimate,
    "boundedness_trend": lambda line: boundedness_trend(line, 1.0),
}


def test_alpha_estimate_closed_form_line():
    seq = best_sequence_on_line(P10, INF, 1000, m=1)
    est = alpha_estimate(seq)
    assert len(seq) == 1000
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
    est = alpha_estimate(best_sequence_on_line(P10, PlaceSpec(2), 60))
    assert est.estimate == pytest.approx(1.0, abs=1e-9)
    est3 = alpha_estimate(best_sequence_on_line(P10, PlaceSpec(3), 40))
    assert est3.estimate == pytest.approx(1.0, abs=1e-9)


def test_sparser_sequence_does_not_raise_alpha():
    # heights i^2 with distances 1/i^2: the ratio is still 1
    squares = [i * i for i in range(2, 200)]
    line = _hand_built(squares, [1] * len(squares), squares)
    assert alpha_estimate(line).estimate == pytest.approx(1.0, abs=1e-9)


def test_alpha_estimate_needs_enough_points():
    # a line of fewer than 10 samples has no tail for the estimators to read
    seq = best_sequence_on_line(P10, INF, 12)
    with pytest.raises(TooFewPoints, match="need at least 10 samples, got 5"):
        _hand_built(seq.heights[:5], seq.nums[:5], seq.dens[:5])
    with pytest.raises(TooFewPoints):
        best_sequence_on_line(P10, INF, 9)


def test_the_estimators_refuse_a_tail_they_cannot_read():
    # At 2 the line through (1 : 7^40) keeps the height 7^40 while 2^i is
    # smaller: the trend has nothing to fit, though the estimate is finite.
    flat = best_sequence_on_line(Point((1, 7**40)), PlaceSpec(2), 10)
    assert set(flat.heights) == {7**40}
    with pytest.raises(NotConverging, match="^heights do not grow along the tail$"):
        boundedness_trend(flat, 1.0)
    assert math.isfinite(alpha_estimate(flat).estimate)
    # columns that no line holds: every distance is 1
    far = _hand_built(list(range(2, 22)), [1] * 20, [1] * 20)
    with pytest.raises(NotConverging, match="^no finite ratios in the tail$"):
        alpha_estimate(far)


@pytest.mark.parametrize("name", _ESTIMATORS)
def test_the_estimators_take_only_a_line(name):
    line = best_sequence_on_line(Point((1, 2)), INF, 20)
    for samples, kind in ((list(line), "list"), (line[:], "list"), (tuple(line), "tuple")):
        with pytest.raises(BadArgs, match=f"^the estimators take an ApproxLine, got {kind}$"):
            _ESTIMATORS[name](samples)


def test_a_height_below_one_is_refused_where_the_sample_is_built():
    # A first sample of height 0 once reached the trend, whose log(0) raised
    # a bare ValueError ("math domain error").  Samples are built only from
    # a line or by make_sample, whose heights are at least 1, and the trend
    # reads the least of them: the first sample on (1 : 0) at inf is
    # (1 : 1), of height 1 and distance 1
    line = best_sequence_on_line(P10, INF, 20, tail_fraction=1.0)
    assert (line[0].height, line[0].distance) == (1, 1)
    assert boundedness_trend(line, 2.0).verdict == "bounded"


def test_alpha_estimate_tail_fraction_validation():
    with pytest.raises(BadArgs):
        best_sequence_on_line(P10, INF, 20, tail_fraction=0.0)
    with pytest.raises(BadArgs):
        best_sequence_on_line(P10, INF, 20, tail_fraction=0.05)  # a tail of one sample
    assert alpha_estimate(best_sequence_on_line(P10, INF, 20, tail_fraction=0.1)).tail_count == 2


@pytest.mark.parametrize("tail", [0.0, 1.5, math.nan, 0.05], ids=["0", "1.5", "nan", "one-sample"])
def test_tail_fraction_is_validated_by_the_line(tail):
    # 0 used to divide by zero in the trend, and 1.5 to fit the last half
    with pytest.raises(BadArgs):
        best_sequence_on_line(Point((1, 2)), INF, 20, tail_fraction=tail)
    line = best_sequence_on_line(Point((1, 2)), INF, 20, tail_fraction=0.1)
    for estimate in _ESTIMATORS.values():
        estimate(line)  # a tail of two samples is enough



#: The distances in (0, 2] with denominators up to 8, 44 of them.
_DISTANCES = sorted({Fraction(k, d) for d in range(1, 9) for k in range(1, 2 * d + 1)})


@st.composite
def _falling_columns(draw, min_size=0, max_size=30):
    """Heights 1..6 in any order, which force ties, and distinct distances
    that fall along the columns, as a line's do."""
    heights = draw(st.lists(st.integers(1, 6), min_size=min_size, max_size=max_size))
    size = len(heights)
    distances = draw(st.lists(st.sampled_from(_DISTANCES), min_size=size, max_size=size, unique=True))
    return heights, sorted(distances, reverse=True)


def _ordered(samples):
    """The samples in the index order of ``_height_order``."""
    return [samples[k] for k in _height_order([s.height for s in samples])]


@settings(max_examples=300)
@given(_falling_columns())
def test_sample_order_matches_the_height_minus_distance_key(columns):
    # Small heights force ties; the distances fall along the list, as on a
    # line, so the stable height order puts the larger distance first, and
    # the distinct points tell tied samples apart.
    samples = [
        ApproxSample((1, k), h, d.numerator, d.denominator, 0.0) for k, (h, d) in enumerate(zip(*columns))
    ]
    expected = sorted(samples, key=lambda s: (s.height, -s.distance))
    assert _ordered(samples) == expected


@st.composite
def _drawn_lines(draw):
    """Lines built by hand from drawn columns: heights that tie and fall,
    and distances that fall along the line from at most 2, whose ratios
    include 0, negative ones and one inf or NaN.  Each is the pair of its
    samples, read at tail start 0, and a function of the tail that builds
    it with that tail."""
    heights, distances = draw(_falling_columns(5, 40))
    nums, dens = [d.numerator for d in distances], [d.denominator for d in distances]
    m, count = draw(st.integers(1, 2)), len(heights)
    samples = list(ApproxLine(P10, INF, 1, m, 0, [1] * count, heights, nums, dens))
    return samples, partial(_hand_built, heights, nums, dens, m)


def _real(*args):
    """The samples of ``best_sequence_on_line(*args)`` and a function of
    the tail that builds that line with that tail."""
    build = partial(best_sequence_on_line, *args)
    return list(build()), build


@st.composite
def _real_lines(draw):
    """A line of ``best_sequence_on_line`` at inf, 2, 3, 5 or 7, on a drawn
    target or one whose gcd jumps, as ``_real`` gives it."""
    place = PlaceSpec(draw(st.sampled_from([None, 2, 3, 5, 7])))
    target = draw(_line_target() | st.sampled_from(_GCD_JUMPS))
    return _real(target, place, draw(st.integers(10, 60)), draw(st.integers(1, 2)))


@settings(max_examples=300, deadline=None)
@given(
    _drawn_lines() | _real_lines(),
    st.sampled_from([1.0, 0.5, 0.25, 0.1]) | st.floats(0, 1, exclude_min=True),
)
@example(_real(Point((0, 1, 4)), PlaceSpec(2), 40), 0.5)  # heights 4, 4, 8: a tie
@example(_real(Point((3, 4)), INF, 37), 0.5)  # (28 : 37) has gcd 4 and sorts into the head
@example(_real(P10, INF, 10), 1.0)  # the first ratio is NaN
def test_alpha_estimate_matches_the_fraction_oracle(line, tail):
    # the oracle reads the samples the line builds, and the line is built
    # with the tail; a line is not checked for convergence (see
    # test_no_line_raises_not_converging)
    samples, build = line
    try:
        expected = oracles.alpha_estimate(samples, tail)
    except oracles.EstimatorError as exc:
        with pytest.raises(Exception) as raised:
            alpha_estimate(build(tail_fraction=tail))
        assert (type(raised.value).__name__, str(raised.value)) == (exc.kind, str(exc))
        return
    got = alpha_estimate(build(tail_fraction=tail))
    assert isinstance(got, AlphaEstimate)
    assert tuple(got) == expected


#: Targets whose line of 300 points has distinct heights that sometimes
#: fall, at inf and at 2: the estimators sort them.
_FALLING = {None: Point((3, 4)), 2: Point((1, -6, -6))}


def _falling_line(prime):
    line = best_sequence_on_line(_FALLING[prime], PlaceSpec(prime), 300)
    assert len(set(line.heights)) == len(line) and not isinstance(line.order, range)
    return line


@pytest.mark.parametrize("prime", [None, 2])
def test_alpha_estimate_makes_no_fraction_comparison_on_a_tie_free_line(prime, monkeypatch):
    line = _falling_line(prime)
    calls = []
    for name in ("__lt__", "__le__", "__gt__", "__ge__"):
        compare = getattr(Fraction, name)
        monkeypatch.setattr(Fraction, name, lambda a, b, compare=compare: calls.append(a) or compare(a, b))
    assert Fraction(1, 3) < Fraction(1, 2) and calls  # the patch counts
    calls.clear()
    alpha_estimate(line)
    assert calls == []


#: A tie-free line of 2000 points at 2, whose last point holds 3 + 2^2000.
_ALPHA_2000 = ["alpha", "--P", "3:-2:5", "--count", "2000", "--place", "2"]


@pytest.mark.parametrize("prime", [None, 2])
def test_a_tie_free_line_builds_no_fraction(prime, monkeypatch):
    # Samples store their distance as two integers: building the line, the
    # estimate and the trend on distinct heights makes no Fraction at all.
    place = PlaceSpec(prime)
    calls = []
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", lambda cls, *args, **kw: calls.append(args) or new(cls, *args, **kw))
    assert Fraction(1, 3) == Fraction(2, 6) and calls  # the patch counts
    calls.clear()
    line = best_sequence_on_line(_FALLING[prime], place, 300)
    alpha_estimate(line)
    boundedness_trend(line, 1.0)
    with redirect_stdout(io.StringIO()):
        assert main(_ALPHA_2000 + ["--gamma", "1", "--format", "json"]) == 0
    assert calls == []
    _falling_line(prime)


def test_a_line_with_tied_heights_builds_no_fraction(monkeypatch):
    # the stable height order needs no distance to break a tie
    calls = []
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", lambda cls, *args, **kw: calls.append(args) or new(cls, *args, **kw))
    line = best_sequence_on_line(Point((0, 1, 4)), PlaceSpec(2), 40, tail_fraction=0.975)
    assert line.heights[:3] == [4, 4, 8]
    alpha_estimate(line)
    boundedness_trend(line, 1.0)
    assert calls == []


@pytest.mark.parametrize("fmt, built", [("json", 0), ("text", 3)])
def test_the_cli_builds_only_the_samples_it_prints(fmt, built, monkeypatch):
    # The estimate and the trends read the line's columns; text mode prints
    # the last three samples, and JSON mode none.
    calls = []
    take = ApproxLine._sample
    monkeypatch.setattr(ApproxLine, "_sample", lambda line, k: calls.append(k) or take(line, k))
    with redirect_stdout(io.StringIO()) as out:
        assert main(_ALPHA_2000 + ["--gamma", "1", "--gamma", "2", "--format", fmt]) == 0
    assert calls == [1997, 1998, 1999][:built]
    shown = out.getvalue().splitlines()
    if fmt == "json":
        assert len(shown) == 22 and '  "estimate": 1.0,' in shown
    else:
        assert len(shown) == 7 and shown[4] == "alpha estimate 1.000000 (tail of 1000: min 1.000000, max 1.000000)"


# -- refusing a line before any column is built -------------------------------------


class _Built(Exception):
    """A column builder ran where a test forbids it."""


def _forbid_columns(monkeypatch):
    def build(*args):
        raise _Built
    for name in ("_inf_columns", "_prime_columns"):
        monkeypatch.setattr(f"lieapprox.dioph.{name}", build)


@contextmanager
def _default_digit_limit():
    """Python's default limit, 4300, on the digits ``str`` prints."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _within_the_digit_limit(target, prime, count, m):
    """Whether the line's last representative, before its gcd is divided
    out, keeps its largest entry to the m-th power and its distance
    denominator (that entry times max |P| at inf, the general distance's
    denominator at p) within 4300 digits.  An integer of at least 2^15000
    is over (10^4300 < 2^14285), and is not computed."""
    if prime is not None and count * (prime.bit_length() - 1) >= 15_000:
        return False  # the denominator p^(count + v) is at least 2^15000
    place = PlaceSpec(prime)
    (last,) = _line_representatives(target, place, count, first=count)
    entry = max(map(abs, last))
    if m * (entry.bit_length() - 1) >= 15_000:
        return False
    if prime is None:
        den = entry * max(map(abs, target.coords))
    else:
        den = distance(Point(last), target, place).denominator
    return max(entry**m, den) < 10**4300


@settings(max_examples=200, deadline=None)
@given(
    _line_target(),
    st.sampled_from([None, 2, 7, 2**61 - 1]),
    st.integers(8, 60) | st.integers(4_000, 16_000) | st.integers(MAX_COUNT - 1, MAX_COUNT + 1)
    | st.integers(10**6, 10**25),
    st.integers(1, 3) | st.integers(-1, 3) | st.integers(1_000, 5_000) | st.integers(10**6, 10**30),
    st.sampled_from([0.5, 1.0, 0.1]) | st.floats(-0.5, 1.5, allow_nan=False),
    st.sampled_from(["text", "json"]),
)
def test_every_refusal_comes_before_a_column(target, prime, count, m, tail, fmt):
    # With the column builders raising, a refused line exits 2 with one
    # error line, and an accepted one reaches a builder.  The count, m and
    # the digit rule are decided before the tail.
    place = "inf" if prime is None else str(prime)
    argv = ["alpha", "--P", ":".join(map(str, target.coords)), "--place", place, "--count", str(count),
            f"--m={m}", f"--tail={tail}", "--format", fmt]
    line_refused = not (10 <= count <= MAX_COUNT and m >= 1 and _within_the_digit_limit(target, prime, count, m))
    tail_refused = not 0 < tail <= 1 or count - math.floor(count * (1 - tail)) < 2
    refused = line_refused or tail_refused
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch, _default_digit_limit(), redirect_stdout(out), redirect_stderr(err):
        _forbid_columns(patch)
        if refused:
            assert main(argv) == 2
        else:
            with pytest.raises(_Built):
                main(argv)
    if refused:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        assert err.getvalue().startswith("error: tail_fraction ") is not line_refused


#: Lines on both sides of the digit rule.  The larger of the last point's
#: height^m and distance denominator, before its gcd is divided out, is
#: 10^4299 at inf; 2^14284 (the height) at 2; 7^5088 (the denominator) on
#: (1 : 2) at 7, where the height 1 + 7^5088 has as many digits; and 7^5088
#: again (the denominator, v = 2) on (1 : 49).  One point or one power more
#: has 4 301 digits.
_DIGIT_EDGES = [
    (["--P", "1:0", "--count", "10", "--m"], 4299),
    (["--P", "1:0", "--place", "2", "--m", "2", "--count"], 7142),
    (["--P", "1:2", "--place", "7", "--count"], 5088),
    (["--P", "1:49", "--place", "7", "--count"], 5086),
]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv, edge", _DIGIT_EDGES, ids=["inf", "2", "7", "7-offset"])
def test_alpha_refuses_integers_past_the_digit_limit(argv, edge, fmt, capsys):
    with _default_digit_limit():
        assert main(["alpha", *argv, str(edge + 1), "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the integers of a line of ")
        assert captured.err.endswith(" may exceed 4300 digits, the most str() prints; lower the count or m\n")
        assert main(["alpha", *argv, str(edge), "--format", fmt]) == 0
        out = capsys.readouterr().out
    if fmt == "text":
        # the last sample holds an integer of exactly 4 300 digits
        assert max(map(len, re.findall(r"\d+", out))) == 4300


_DIGITS = "may exceed 4300 digits, the most str() prints; lower the count or m\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv, message", [
    (["--P", "1:2", "--count", "50", "--m", "3000000"],
     f"error: the integers of a line of 50 points at inf with m = 3000000 {_DIGITS}"),
    (["--P", "1:2", "--count", "100000000000000000000"],
     "error: a line holds at most 100000 points, got 100000000000000000000\n"),
    (["--P", "1:2", "--count", "100000", "--tail", "0.00001"],
     "error: tail_fraction 1e-05 leaves 1 of 100000 samples in the tail, need at least 2\n"),
    (["--P", "3:-2:5", "--place", "3", "--count", "1000", "--tail", "0.001"],
     "error: tail_fraction 0.001 leaves 1 of 1000 samples in the tail, need at least 2\n"),
    (["--P", "1:2", "--place", "7", "--count", "20", "--tail", "1.5"],
     "error: tail_fraction must be in (0, 1], got 1.5\n"),
    # the count, m and the digit rule come before the tail
    (["--P", "1:2", "--count", "100001", "--tail", "0.00001"],
     "error: a line holds at most 100000 points, got 100001\n"),
    (["--P", "1:2", "--place", "3", "--count", "20", "--m", "0", "--tail", "0"],
     "error: height exponent must be positive, got 0\n"),
    (["--P", "1:2", "--count", "50", "--m", "3000000", "--tail", "0.01"],
     f"error: the integers of a line of 50 points at inf with m = 3000000 {_DIGITS}"),
], ids=["digits", "count", "tail", "tail-3", "tail-range", "count-first", "m-first", "digits-first"])
def test_a_line_it_cannot_hold_or_read_is_refused_unbuilt(argv, message, fmt, monkeypatch, capsys):
    # The first two once ran until a timeout killed them: the exact m-th
    # powers of the tail, and a line of 10^20 points.  The third built the
    # whole line of 100 000 points before its error.
    _forbid_columns(monkeypatch)
    with _default_digit_limit():
        assert main(["alpha", *argv, "--format", fmt]) == 2
    assert capsys.readouterr() == ("", message)


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


def test_trend_reads_the_same_tail_as_the_estimate():
    # Heights 2..10 with 6 twice, and distances that fall along the line, as
    # on every line: the tail of half starts between the two height-6
    # samples, and the later one, at the smaller distance 1/40, is in it.
    # In the second line the heights fall and rise, so the order is sorted.
    dens = [4, 9, 16, 25, 36, 40, 49, 64, 81, 100]
    for heights in ([2, 3, 4, 5, 6, 6, 7, 8, 9, 10], [5, 3, 2, 4, 6, 6, 10, 7, 9, 8]):
        line = _hand_built(heights, [1] * 10, dens)
        tail = sorted(line, key=lambda s: (s.height, -s.distance))[5:]
        assert [(s.height, s.distance) for s in tail[:2]] == [(6, Fraction(1, 40)), (7, Fraction(1, dens[heights.index(7)]))]
        xs = [math.log(s.height) for s in tail]
        ys = [x - math.log(s.distance.denominator) for x, s in zip(xs, tail)]
        mean_x, mean_y = sum(xs) / len(xs), sum(ys) / len(ys)
        slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sum((x - mean_x) ** 2 for x in xs)
        assert boundedness_trend(line, 1.0).slope == pytest.approx(slope, abs=1e-12)
        assert alpha_estimate(line).tail_min == min(s.ratio for s in tail)
