import io
import math
from contextlib import redirect_stdout
from fractions import Fraction

import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lieapprox.cli import main
from lieapprox.dioph import (
    PRIME_BOUND,
    AlphaEstimate,
    ApproxLine,
    ApproxSample,
    PlaceSpec,
    RationalProjectivePoint as Point,
    _height_order,
    _is_prime,
    _ratio,
    _valuation,
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
    assert PlaceSpec.archimedean().prime is None
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
    assert PlaceSpec.at(p).abs(x) == Fraction(1, p**v)


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
        if place.prime is None:
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
        # the views against the general forms, and the stored integers
        num, den = sample.dist_num, sample.dist_den
        assert sample.point == Point(sample.coords)
        assert sample.distance == distance(sample.point, target, place)
        assert den > 0 and math.gcd(num, den) == 1
        # the line skips the checking constructor, which leaves its fields as they are
        assert ApproxSample._make(sample) == sample
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
    assert tuple(alpha_estimate(line)) == oracles.alpha_estimate(samples, check_convergence=False)


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
    # a line's distances go to 0 by construction, so it is never refused;
    # the same samples as a list still take the head-and-tail test
    line = best_sequence_on_line(target, PlaceSpec(prime), count, m)
    assert alpha_estimate(line).sample_count == count
    try:
        alpha_estimate(list(line))
    except NotConverging as exc:
        assert str(exc) == "distances do not decrease along the sequence"


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
    # the constructor normalises coordinates, so three times the last point is that point
    last = repeated[-1]
    scaled = ApproxSample(tuple(3 * c for c in last.coords), *last[1:])
    assert scaled == last
    with pytest.raises(NotConverging, match="repeated point"):
        alpha_estimate([*repeated, scaled])


def test_a_height_below_one_is_refused_where_the_sample_is_built():
    # A first sample of height 0 once reached the trend, whose log(0) raised
    # a bare ValueError ("math domain error").
    rows = [(h, 1, 2 ** (h + 1), h / (h + 1)) for h in range(20)]
    with pytest.raises(BadArgs, match="a sample height must be at least 1, got 0"):
        [ApproxSample((1, k), *row) for k, row in enumerate(rows)]
    samples = [ApproxSample((1, k), h + 1, *rest) for k, (h, *rest) in enumerate(rows)]
    assert boundedness_trend(samples, 1.0, tail_fraction=1.0).verdict == "bounded"


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



#: The distances in (0, 1] with denominators up to 3.
_THIRDS_AND_HALVES = sorted({Fraction(k, d) for d in range(1, 4) for k in range(1, d + 1)})


def _ordered(samples):
    """The samples in the index order of ``_height_order``."""
    columns = ([s.height for s in samples], [s.dist_num for s in samples], [s.dist_den for s in samples])
    return [samples[k] for k in _height_order(*columns)]


@settings(max_examples=300)
@given(st.lists(st.tuples(st.integers(1, 4), st.sampled_from(_THIRDS_AND_HALVES)), max_size=30))
def test_sample_order_matches_the_height_minus_distance_key(pairs):
    # Small heights and denominators force ties in both fields; the distinct
    # points tell tied samples apart, so the check covers their order too.
    samples = [
        ApproxSample((1, k), h, d.numerator, d.denominator, 0.0) for k, (h, d) in enumerate(pairs)
    ]
    expected = sorted(samples, key=lambda s: (s.height, -s.distance))
    assert _ordered(samples) == expected


#: The distances in (0, 1] with denominators up to 4.
_SMALL_FRACTIONS = sorted({Fraction(k, d) for d in range(1, 5) for k in range(1, d + 1)})


@st.composite
def _drawn_samples(draw):
    """Samples built directly.  Heights 1..6 and distances with denominators
    up to 4 force ties in both fields, few point labels force repeats, and
    the ratios include 0, inf and NaN, sometimes with no finite one."""
    size = draw(st.integers(5, 40))
    labels = draw(st.lists(st.integers(0, 2 * size), min_size=size, max_size=size, unique=draw(st.booleans())))
    ratio = draw(st.sampled_from([
        st.sampled_from([0.0, math.inf, math.nan]) | st.floats(0, 5),
        st.sampled_from([math.inf, math.nan]),
    ]))
    fields = st.tuples(st.integers(1, 6), st.sampled_from(_SMALL_FRACTIONS), ratio)
    rows = draw(st.lists(fields, min_size=size, max_size=size))
    # distances that shrink with the height make many lists converge
    shrink = draw(st.booleans())
    return [
        ApproxSample((1, label), h, *(d / h if shrink else d).as_integer_ratio(), r)
        for label, (h, d, r) in zip(labels, rows)
    ]


@st.composite
def _line_samples(draw):
    """A real line at inf, 2, 3, 5 or 7, in a drawn order, sometimes with one
    sample repeated."""
    place = PlaceSpec(draw(st.sampled_from([None, 2, 3, 5, 7])))
    samples = best_sequence_on_line(draw(_line_target()), place, draw(st.integers(10, 60)), draw(st.integers(1, 2)))
    samples = draw(st.permutations(samples))
    if draw(st.booleans()):
        samples.append(draw(st.sampled_from(samples)))
    return samples


@settings(max_examples=300, deadline=None)
@given(
    _drawn_samples() | _line_samples(),
    st.sampled_from([1.0, 0.5, 0.25, 0.1]) | st.floats(0, 1, exclude_min=True),
)
@example(best_sequence_on_line(Point((0, 1, 4)), PlaceSpec(2), 40), 0.5)  # heights 4, 4: a tie
@example(best_sequence_on_line(P10, INF, 10), 1.0)  # the first ratio is NaN
def test_alpha_estimate_matches_the_fraction_oracle(samples, tail):
    try:
        expected = oracles.alpha_estimate(samples, tail)
    except oracles.EstimatorError as exc:
        with pytest.raises(Exception) as raised:
            alpha_estimate(samples, tail)
        assert (type(raised.value).__name__, str(raised.value)) == (exc.kind, str(exc))
        return
    got = alpha_estimate(samples, tail)
    assert isinstance(got, AlphaEstimate)
    assert tuple(got) == expected


@pytest.mark.parametrize("prime", [None, 2])
def test_alpha_estimate_makes_no_fraction_comparison_on_a_tie_free_line(prime, monkeypatch):
    samples = best_sequence_on_line(Point((3, -2, 5)), PlaceSpec(prime), 300)[::-1]
    assert len({s.height for s in samples}) == len(samples)
    calls = []
    for name in ("__lt__", "__le__", "__gt__", "__ge__"):
        compare = getattr(Fraction, name)
        monkeypatch.setattr(Fraction, name, lambda a, b, compare=compare: calls.append(a) or compare(a, b))
    assert Fraction(1, 3) < Fraction(1, 2) and calls  # the patch counts
    calls.clear()
    alpha_estimate(samples)
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
    samples = best_sequence_on_line(Point((3, -2, 5)), place, 300)[::-1]
    alpha_estimate(samples)
    boundedness_trend(samples, 1.0)
    with redirect_stdout(io.StringIO()):
        assert main(_ALPHA_2000 + ["--gamma", "1", "--format", "json"]) == 0
    assert calls == []
    assert len({s.height for s in samples}) == len(samples)


@pytest.mark.parametrize("fmt, built", [("json", 0), ("text", 3)])
def test_the_cli_builds_only_the_samples_it_prints(fmt, built, monkeypatch):
    # The estimate and the trends read the line's columns; text mode prints
    # the last three samples, and JSON mode none.
    calls = []
    take, new = ApproxLine._sample, ApproxSample.__new__
    monkeypatch.setattr(ApproxLine, "_sample", lambda line, k: calls.append(k) or take(line, k))
    monkeypatch.setattr(ApproxSample, "__new__", lambda cls, *args: calls.append(args) or new(cls, *args))
    with redirect_stdout(io.StringIO()) as out:
        assert main(_ALPHA_2000 + ["--gamma", "1", "--gamma", "2", "--format", fmt]) == 0
    assert calls == [1997, 1998, 1999][:built]
    shown = out.getvalue().splitlines()
    if fmt == "json":
        assert len(shown) == 22 and '  "estimate": 1.0,' in shown
    else:
        assert len(shown) == 7 and shown[4] == "alpha estimate 1.000000 (tail of 1000: min 1.000000, max 1.000000)"


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
    # Heights 2..10 with 6 twice: the tail of half starts between the two
    # height-6 samples.  The larger distance sorts first at equal height, so
    # only the one at distance 1/64 is in the tail, whichever order the input
    # has; a sort by height alone keeps the input order, and takes the one at
    # 1/36 instead.
    rows = [(2, 4), (3, 9), (4, 16), (5, 25), (6, 64), (6, 36), (7, 49), (8, 64), (9, 81), (10, 100)]
    samples = [
        ApproxSample((1, k), h, 1, den, math.log(h) / math.log(den))
        for k, (h, den) in enumerate(rows)
    ]
    assert sorted(samples, key=lambda s: s.height)[5:] != _ordered(samples)[5:]
    tail = _ordered(samples)[5:]
    assert [(s.height, s.distance) for s in tail[:2]] == [(6, Fraction(1, 64)), (7, Fraction(1, 49))]
    xs = [math.log(s.height) for s in tail]
    ys = [x - math.log(s.distance.denominator) for x, s in zip(xs, tail)]
    mean_x, mean_y = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sum((x - mean_x) ** 2 for x in xs)
    for order in (samples, samples[::-1]):
        assert boundedness_trend(order, 1.0).slope == pytest.approx(slope, abs=1e-12)
        assert alpha_estimate(order).tail_min == min(s.ratio for s in tail)
