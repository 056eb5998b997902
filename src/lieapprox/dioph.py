"""Heights, v-adic distances, and approximation-constant estimation on
projective space over the rationals.

The approximation constant of a sequence is the critical exponent gamma at
which dist(P, x_i)^gamma * H(x_i) stays bounded.  This lab works with one
place at a time: heights and distances are exact (integers and Fractions;
p-adic absolute values are exact powers of p), and only the final
log-ratio estimator uses floating point, via logarithms of exact integers.

The distance is the cross-term projective formula
    max_{i<j} |x_i y_j - x_j y_i|_v / (max_i |x_i|_v * max_j |y_j|_v),
symmetric and zero exactly on equal points; with sup-norm denominators it
is bounded by 2 at the archimedean place (ultrametrically by 1 at finite
places).  Any bounded-factor change of distance leaves approximation
constants unchanged, so results do not depend on this normalization.
``distance`` evaluates it on integers for any two points: the cross terms
are computed once, and one Fraction is built from them.  At a finite place
p the denominator is 1, because points are kept primitive, so each has a
coordinate that p does not divide; the distance is then
p^-(min v_p of the nonzero cross terms).

The sequences of ``best_sequence_on_line`` lie on the line through the
target P (primitive, first nonzero entry positive) and a basis vector e_j,
where P_k != 0 for some k != j.  Their distances have closed forms:
- at the archimedean place the i-th point is i*P + e_j.  Its cross terms
  against P are +-P_k for k != j, and the gcd g_i of the representative
  cancels from numerator and denominator, so
      dist_i = max_{k!=j} |P_k| / (max |i*P + e_j| * max |P|);
- at a prime p the i-th point is P + p^i e_j, with cross terms p^i P_k for
  k != j.  p does not divide g_i: otherwise it divides P_k for every
  k != j and P_j = (P_j + p^i) - p^i, so all of P, which is primitive.  So
      dist_i = p^-(i + v),  v = v_p(gcd_{k!=j} P_k).
Each representative, divided once by its gcd (which is positive), is
primitive, and its first nonzero entry is already positive.  With f the
index of P's first nonzero entry P_f > 0, the representative vanishes
before min(j, f) and its entry there is i*P_f (+1 if j = f) at inf and
P_f (+p^i if j = f) at p when f <= j, or 1 or p^i when j < f.  At p only
the j-th coordinate moves, so g_i = gcd(gcd_{k!=j} P_k, P_j + p^i) and the
height is max(max_{k!=j} |P_k|, |P_j + p^i|) / g_i, with the parts over
k != j taken once per line.  ``distance`` and ``make_sample`` remain the
general forms and serve the tests as the oracle for these.

An ``ApproxSample`` stores the point's coordinates, its height, its
distance as a reduced pair of integers, and the ratio; its ``point`` and
``distance`` (a Fraction) are views built when read, so a line builds
neither per sample.  Every constructor here checks its input
(``RationalProjectivePoint`` normalises, ``PlaceSpec`` decides primality,
``ApproxSample`` normalises its point and reduces its distance), and so
does ``_replace``.  Only ``best_sequence_on_line`` skips a check: its
samples are primitive and reduced by the closed forms above, so it builds
them with ``tuple.__new__``.

The liminf defining the constant is not computable from finitely many
samples; the estimator reports the median of the ratio log H / (-log dist)
over a configurable tail, together with the tail extremes.  It orders the
samples by their integer heights and compares distances, as Fractions,
only between samples of equal height; it takes the least distance of each
half by comparing the integer cross products numerator * denominator, and
the trend reads log(dist) as log(numerator) - log(denominator).  So on a
line whose heights are all distinct, as they are for every target in P^1
or P^2 with coordinates of at most 3, neither builds a Fraction.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import groupby
from typing import NamedTuple, Sequence

from .errors import (
    BadArgs,
    DimensionMismatch,
    NotConverging,
    TooFewPoints,
)


#: The first 13 primes.  Miller-Rabin on these bases is exact below
#: PRIME_BOUND, the least strong pseudoprime to all of them (Sorenson and
#: Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 86,
#: 2017); above it no test of this cost is proven.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    """Exact primality of p < PRIME_BOUND by deterministic Miller-Rabin, in
    O(log p) multiplications per base; a larger p raises BadArgs."""
    if p >= PRIME_BOUND:
        raise BadArgs(f"{p} is too large: primes are decided exactly only below {PRIME_BOUND}")
    if p < 2:
        return False
    for b in _PRIME_BASES:
        if p % b == 0:
            return p == b
    # p - 1 = d * 2^s with d odd
    s = ((p - 1) & -(p - 1)).bit_length() - 1
    d = (p - 1) >> s
    for b in _PRIME_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _valuation(x: int, p: int) -> int:
    """Exponent of the prime p in the nonzero integer x, by repeated division;
    a prime line takes one, of the gcd of the target's other coordinates."""
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


class _PointFields(NamedTuple):
    coords: tuple[int, ...]


class RationalProjectivePoint(_PointFields):
    """Primitive integer coordinates, first nonzero entry positive."""

    __slots__ = ()

    def __new__(cls, coords: Sequence[int]) -> "RationalProjectivePoint":
        try:
            raw = tuple(map(operator.index, coords))
        except TypeError:
            raise BadArgs(f"projective coordinates must be integers, got {coords!r}") from None
        if len(raw) < 2:
            raise BadArgs("a projective point needs at least two coordinates")
        if not any(raw):
            raise BadArgs("the zero vector is not a projective point")
        g = math.gcd(*raw)
        first = next(c for c in raw if c)
        if first < 0:
            g = -g
        return super().__new__(cls, tuple(c // g for c in raw))

    @classmethod
    def _make(cls, fields) -> "RationalProjectivePoint":
        return cls(*fields)

    @classmethod
    def parse(cls, text: str) -> "RationalProjectivePoint":
        parts = text.replace(",", ":").split(":")
        if not all(p.strip() for p in parts):
            raise BadArgs(f"empty coordinate in projective point {text!r}")
        try:
            return cls(tuple(int(p) for p in parts))
        except ValueError:
            raise BadArgs(f"cannot parse projective point {text!r}") from None

    @property
    def dimension(self) -> int:
        return len(self.coords) - 1

    def __str__(self) -> str:
        return "(" + " : ".join(str(c) for c in self.coords) + ")"


class _PlaceSpecFields(NamedTuple):
    prime: int | None = None


class PlaceSpec(_PlaceSpecFields):
    """A place of the rationals: archimedean (prime None) or a prime p."""

    __slots__ = ()

    def __new__(cls, prime: int | None = None) -> "PlaceSpec":
        if prime is not None:
            try:
                prime = operator.index(prime)
            except TypeError:
                raise BadArgs(f"prime must be an integer, got {prime!r}") from None
            if not _is_prime(prime):
                raise BadArgs(f"{prime} is not prime")
        return super().__new__(cls, prime)

    @classmethod
    def _make(cls, fields) -> "PlaceSpec":
        return cls(*fields)

    @classmethod
    def archimedean(cls) -> "PlaceSpec":
        return cls(None)

    @classmethod
    def at(cls, p: int) -> "PlaceSpec":
        return cls(p)

    def abs(self, x: int) -> Fraction:
        """Exact absolute value |x|_v of an integer."""
        if x == 0:
            return Fraction(0)
        if self.prime is None:
            return Fraction(abs(x))
        return Fraction(1, self.prime ** _valuation(x, self.prime))

    def __str__(self) -> str:
        return "inf" if self.prime is None else str(self.prime)


def height(x: RationalProjectivePoint, m: int = 1) -> int:
    """Multiplicative height for the m-th multiple of the hyperplane class:
    (max |coordinate|)^m on the primitive representative."""
    if m < 1:
        raise BadArgs(f"height exponent must be positive, got {m}")
    return max(abs(c) for c in x.coords) ** m


def distance(
    x: RationalProjectivePoint, y: RationalProjectivePoint, place: PlaceSpec
) -> Fraction:
    """Projective distance at the place, an exact non-negative rational,
    zero iff x == y; at most 2 archimedean, at most 1 at a finite place.

    The nonzero cross terms x_i y_j - x_j y_i are computed once, as
    integers, and the result is the one Fraction built from them:
    max |cross| / (max_i |x_i| * max_j |y_j|) at the archimedean place, and
    p^-(min v_p(cross)) at a finite place p, where the denominator is 1
    because both points are primitive.
    """
    if x.dimension != y.dimension:
        raise DimensionMismatch(f"{x} and {y} live in different projective spaces")
    xs, ys = x.coords, y.coords
    n = len(xs)
    cross = [c for i in range(n) for j in range(i + 1, n) if (c := xs[i] * ys[j] - xs[j] * ys[i])]
    if not cross:
        return Fraction(0)
    p = place.prime
    if p is None:
        return Fraction(max(map(abs, cross)), max(map(abs, xs)) * max(map(abs, ys)))
    # Both points are primitive, so each has a coordinate that p does not
    # divide: max_i |x_i|_p = max_j |y_j|_p = 1, and the denominator is 1.
    # min v_p over the cross terms is v_p of their gcd.
    return Fraction(1, p ** _valuation(math.gcd(*cross), p))


class _ApproxSampleFields(NamedTuple):
    coords: tuple[int, ...]
    height: int
    dist_num: int
    dist_den: int
    ratio: float


class ApproxSample(_ApproxSampleFields):
    """One approximation to a target, stored as integers and one float: the
    point's coordinates (primitive, first nonzero entry positive), its
    height, its distance dist_num / dist_den in lowest terms with
    dist_den > 0, and the ratio log(height)/(-log(distance)).  ``point``
    and ``distance`` are views built when read.

    The constructor and ``_replace`` check the fields: the coordinates are
    normalised as by ``RationalProjectivePoint``, the distance is reduced,
    and a zero denominator or a negative distance raises BadArgs.  Only
    ``best_sequence_on_line``, whose fields hold this by construction,
    skips the check."""

    __slots__ = ()

    def __new__(cls, coords, height: int, dist_num: int, dist_den: int, ratio: float) -> "ApproxSample":
        coords = RationalProjectivePoint(coords).coords
        try:
            num, den = operator.index(dist_num), operator.index(dist_den)
        except TypeError:
            raise BadArgs(f"a sample distance must be a ratio of integers, got {dist_num!r}/{dist_den!r}") from None
        if den == 0:
            raise BadArgs(f"a sample distance needs a nonzero denominator, got {num}/{den}")
        g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
        num, den = num // g, den // g
        if num < 0:
            raise BadArgs(f"a sample distance cannot be negative, got {num}/{den}")
        return super().__new__(cls, coords, height, num, den, ratio)

    @classmethod
    def _make(cls, fields) -> "ApproxSample":
        return cls(*fields)

    @property
    def point(self) -> RationalProjectivePoint:
        return RationalProjectivePoint(self.coords)

    @property
    def distance(self) -> Fraction:
        return Fraction(self.dist_num, self.dist_den)


def _ratio(h: int, num: int, den: int) -> float:
    """log(h) / (-log(num/den)) for a reduced distance num/den: inf when the
    distance is 1 and h > 1, NaN when both are 1."""
    neg_log_dist = -(math.log(num) - math.log(den))
    if neg_log_dist == 0.0:
        return math.inf if h > 1 else math.nan
    return math.log(h) / neg_log_dist


def make_sample(
    point: RationalProjectivePoint,
    target: RationalProjectivePoint,
    place: PlaceSpec,
    m: int = 1,
) -> ApproxSample:
    dist = distance(point, target, place)
    if dist == 0:
        raise BadArgs("sample point coincides with the target")
    h = height(point, m)
    num, den = dist.as_integer_ratio()
    return ApproxSample(point.coords, h, num, den, _ratio(h, num, den))


def best_sequence_on_line(
    target: RationalProjectivePoint,
    place: PlaceSpec,
    count: int,
    m: int = 1,
) -> list[ApproxSample]:
    """Deterministic approximating sequence on a line through the target P.

    The direction is e_j for the first j with P_k != 0 for some k != j, so
    e_j is independent of P.  At the archimedean place the points are
    i*P + e_j, with height growing like i^m and distance like 1/i; at a
    finite place p they are P + p^i e_j, with p-adic distance about p^-i.
    Each sample equals make_sample of its point, computed in closed form
    (see the module docstring): at inf
        dist_i = max_{k!=j} |P_k| / (max |i*P + e_j| * max |P|),
    since the gcd g_i of the representative cancels; at p
        dist_i = p^-(i + v_p(gcd_{k!=j} P_k)),
    since p does not divide g_i, P being primitive.  The representative
    divided by g_i is primitive with its first nonzero entry positive, and
    the distance is reduced, so the sample is built without the checks of
    the ``ApproxSample`` constructor.
    """
    if count < 10:
        raise TooFewPoints(f"need at least 10 points, got {count}")
    if m < 1:
        raise BadArgs(f"height exponent must be positive, got {m}")
    coords = target.coords
    n = len(coords)
    # e_j is proportional to the target only when the target is supported on {j}.
    j = next(j for j in range(n) if any(coords[k] for k in range(n) if k != j))
    others = [c for k, c in enumerate(coords) if k != j]
    new = tuple.__new__
    samples = []
    p = place.prime
    if p is None:
        cross = max(map(abs, others))
        size = max(map(abs, coords))
        for i in range(1, count + 1):
            rep = [i * c for c in coords]
            rep[j] += 1
            g = math.gcd(*rep)
            h = top = max(map(abs, rep))
            if g != 1:
                rep = [c // g for c in rep]
                h //= g
            if m != 1:
                h **= m
            den = top * size
            d = math.gcd(cross, den)
            num, den = cross // d, den // d
            samples.append(new(ApproxSample, (tuple(rep), h, num, den, _ratio(h, num, den))))
    else:
        # only the j-th coordinate moves: the others' gcd and height are constant
        common = math.gcd(*others)
        top = max(map(abs, others))
        scale = p ** _valuation(common, p)
        rep = list(coords)
        step = 1
        for _ in range(count):
            step *= p
            x = rep[j] = coords[j] + step
            g = math.gcd(common, x)
            h = max(top, abs(x))
            if g == 1:
                point = tuple(rep)
            else:
                point = tuple(c // g for c in rep)
                h //= g
            if m != 1:
                h **= m
            den = step if scale == 1 else step * scale
            # _ratio(h, 1, den), whose -log(1/den) is exactly log(den) > 0
            samples.append(new(ApproxSample, (point, h, 1, den, math.log(h) / math.log(den))))
    return samples


class AlphaEstimate(NamedTuple):
    """Tail estimate of an approximation constant from finite data."""

    estimate: float
    tail_min: float
    tail_max: float
    sample_count: int
    tail_count: int


_HEIGHT = operator.attrgetter("height")
_DISTANCE = operator.attrgetter("distance")
_DISTANCE_PAIR = operator.attrgetter("dist_num", "dist_den")
_RATIO = operator.attrgetter("ratio")
_COORDS = operator.attrgetter("coords")


def _by_height_then_distance(samples: Sequence[ApproxSample]) -> list[ApproxSample]:
    """Samples by ascending height, and at equal height by descending distance.

    One stable sort on the integer height, then a stable sort by descending
    distance of each run of equal heights: the order of the key
    (height, -distance), ties included.  Distances are built as Fractions
    and compared only inside such runs, so a list whose heights are all
    distinct builds none.
    """
    ordered = sorted(samples, key=_HEIGHT)
    heights = list(map(_HEIGHT, ordered))
    if not any(map(operator.eq, heights, heights[1:])):
        return ordered
    return [s for _, run in groupby(ordered, _HEIGHT) for s in sorted(run, key=_DISTANCE, reverse=True)]


def _min_distance(samples: Sequence[ApproxSample]) -> tuple[int, int]:
    """The least distance of the samples as a (numerator, denominator) pair.

    Denominators are positive, so a/b < c/d exactly when a*d < c*b: the
    integers are compared, never the Fractions.
    """
    pairs = map(_DISTANCE_PAIR, samples)
    num, den = next(pairs)
    for n, d in pairs:
        if n * den < num * d:
            num, den = n, d
    return num, den


def _tail_start(count: int, tail_fraction: float) -> int:
    """Index of the first of ``count`` samples in the tail, which holds the
    last ``tail_fraction`` of them and must hold at least 2."""
    if not 0 < tail_fraction <= 1:
        raise BadArgs(f"tail_fraction must be in (0, 1], got {tail_fraction}")
    start = math.floor(count * (1 - tail_fraction))
    if count - start < 2:
        raise BadArgs(
            f"tail_fraction {tail_fraction} leaves {count - start} of "
            f"{count} samples in the tail, need at least 2"
        )
    return start


def alpha_estimate(
    samples: Sequence[ApproxSample], tail_fraction: float = 0.5
) -> AlphaEstimate:
    """Median of the height/distance log-ratio over the tail of the sequence.

    Samples are ordered by height.  Convergence check: the running minimum
    of the distances must keep improving (the tail's minimum distance is
    strictly below the head's), otherwise the sequence is rejected as not
    converging (a non-converging sequence has constant infinity).
    """
    if len(samples) < 10:
        raise TooFewPoints(f"need at least 10 samples, got {len(samples)}")
    start = _tail_start(len(samples), tail_fraction)
    ordered = _by_height_then_distance(samples)
    coords = list(map(_COORDS, ordered))
    if len(set(coords)) < len(coords):
        seen = set()
        for s in ordered:
            if s.coords in seen:
                raise NotConverging(f"repeated point {s.point}")
            seen.add(s.coords)
    half = len(ordered) // 2
    head_num, head_den = _min_distance(ordered[:half])
    tail_num, tail_den = _min_distance(ordered[half:])
    if tail_num * head_den >= head_num * tail_den:
        raise NotConverging("distances do not decrease along the sequence")
    tail = list(filter(math.isfinite, map(_RATIO, ordered[start:])))
    if not tail:
        raise NotConverging("no finite ratios in the tail")
    tail.sort()
    mid = len(tail) // 2
    median = tail[mid] if len(tail) % 2 else (tail[mid - 1] + tail[mid]) / 2
    return AlphaEstimate(
        estimate=median,
        tail_min=tail[0],
        tail_max=tail[-1],
        sample_count=len(ordered),
        tail_count=len(tail),
    )


#: A trend slope within this distance of 0 reads as indeterminate.
TREND_THRESHOLD = 0.05


class Trend(NamedTuple):
    """Log-log slope of dist^gamma * H along a sequence, with its reading."""

    gamma: float
    slope: float
    verdict: str  # "bounded", "unbounded", or "indeterminate"


def boundedness_trend(
    samples: Sequence[ApproxSample], gamma: float, tail_fraction: float = 0.5
) -> Trend:
    """Least-squares slope of log(dist^gamma * H) against log H over the tail.

    A slope below -TREND_THRESHOLD means the product tends to zero (gamma
    is in the bounded set); one above TREND_THRESHOLD means it is
    unbounded.  The interval structure of the bounded set makes this
    monotone in gamma.  The samples are ordered as in ``alpha_estimate``,
    so both read the same tail.
    """
    if len(samples) < 10:
        raise TooFewPoints(f"need at least 10 samples, got {len(samples)}")
    start = _tail_start(len(samples), tail_fraction)
    ordered = _by_height_then_distance(samples)
    xs, ys = [], []
    for s in ordered[start:]:
        x = math.log(s.height)
        ys.append(x + gamma * (math.log(s.dist_num) - math.log(s.dist_den)))
        xs.append(x)
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    var = sum((x - mean_x) ** 2 for x in xs)
    if var == 0:
        raise NotConverging("heights do not grow along the tail")
    slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / var
    if not math.isfinite(slope):
        raise BadArgs(f"the trend at gamma {gamma} has a non-finite slope ({slope})")
    if slope < -TREND_THRESHOLD:
        verdict = "bounded"
    elif slope > TREND_THRESHOLD:
        verdict = "unbounded"
    else:
        verdict = "indeterminate"
    return Trend(gamma=gamma, slope=slope, verdict=verdict)
