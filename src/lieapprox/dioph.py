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
P_f (+p^i if j = f) at p when f <= j, or 1 or p^i when j < f.  At inf
each |i*P_k + [k = j]| is an arithmetic progression in i, and from i = 2
on the largest |P_k| attains max |i*P + e_j|, so that too is one.  At p
only the j-th coordinate moves, so g_i = gcd(gcd_{k!=j} P_k, P_j + p^i)
and the height is max(max_{k!=j} |P_k|, |P_j + p^i|) / g_i, with the
parts over k != j taken once per line.  ``distance`` and ``make_sample``
remain the general forms: with ``PlaceSpec.abs`` they are the tests'
references and the benchmark tracer's targets, so only a change to the
benchmark (ROADMAP items 11 and 23) may retire them.

A line is an ``ApproxLine``, a read-only sequence that stores integer
columns in line order: the heights before their m-th power, the reduced
distances and the gcds of the representatives.  They are built by maps
over whole columns, with no tuple per sample.  The line also holds where
its tail starts, which ``best_sequence_on_line`` computes from the count
and the tail fraction, and refuses, before any column, when the tail
would hold fewer than 2 samples.  An ``ApproxSample`` (the point's
coordinates, its height, its distance as a reduced pair of integers, and
the ratio) is built only when the line is indexed or sliced; its
``point`` and ``distance`` (a Fraction) are views built when read.
``RationalProjectivePoint`` normalises and ``PlaceSpec`` decides
primality, in the constructor and in ``_replace``; ``ApproxSample`` is a
plain named tuple, since no function here takes a sample as input.

The liminf defining the constant is not computable from finitely many
samples; the estimator reports the median of the ratio log H / (-log dist)
over the line's tail, together with the tail extremes.  Both estimators
take a line, and only a line, and read its columns.  The line orders its
indices by a stable sort on the integer heights and keeps that order for
every later read; its distances strictly decrease along the line, so at
equal height the larger distance comes first.  The m-th powers, the
logarithms and the ratios are computed for the tail only, and the
estimate and every trend share the logarithms; log(dist) is
log(numerator) - log(denominator).  A line's points are distinct and
its distances go to 0, so the estimators check neither, and neither
builds a Fraction.
"""

from __future__ import annotations

import math
import operator
import sys
from bisect import bisect_left
from collections.abc import Sequence
from fractions import Fraction
from itertools import accumulate, islice, repeat
from typing import NamedTuple

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

    def abs(self, x: int) -> Fraction:
        """Exact absolute value |x|_v of an integer."""
        if x == 0:
            return Fraction(0)
        if self.prime is None:
            return Fraction(abs(x))
        return Fraction(1, self.prime ** _valuation(x, self.prime))

    def __str__(self) -> str:
        return "inf" if self.prime is None else str(self.prime)


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


class ApproxSample(NamedTuple):
    """One approximation to a target, stored as integers and one float: the
    point's coordinates (primitive, first nonzero entry positive), its
    height (at least 1), its distance dist_num / dist_den in lowest terms
    with both positive, and the ratio log(height)/(-log(distance)).
    ``point`` and ``distance`` are views built when read.  A plain named
    tuple: its builders, ``make_sample`` and ``ApproxLine``, pass it fields
    that hold all this already."""

    coords: tuple[int, ...]
    height: int
    dist_num: int
    dist_den: int
    ratio: float

    @property
    def point(self) -> RationalProjectivePoint:
        return RationalProjectivePoint(self.coords)

    @property
    def distance(self) -> Fraction:
        return Fraction(self.dist_num, self.dist_den)


def _log_ratio(log_h: float, log_dist: float) -> float:
    """log(h) / (-log(dist)) from the two logarithms: inf when the distance
    is 1 and h > 1, NaN when both are 1."""
    if log_dist == 0.0:
        return math.inf if log_h > 0 else math.nan
    return log_h / -log_dist


def _ratio(h: int, num: int, den: int) -> float:
    """log(h) / (-log(num/den)) for a height h >= 1 and a reduced distance
    num/den, with log(dist) taken as log(num) - log(den)."""
    return _log_ratio(math.log(h), math.log(num) - math.log(den))


def make_sample(
    point: RationalProjectivePoint,
    target: RationalProjectivePoint,
    place: PlaceSpec,
    m: int = 1,
) -> ApproxSample:
    """The sample of a point approximating the target at the place, with
    the height (max |coordinate|)^m of the m-th multiple of the hyperplane
    class on the primitive representative."""
    dist = distance(point, target, place)
    if dist == 0:
        raise BadArgs("sample point coincides with the target")
    if m < 1:
        raise BadArgs(f"height exponent must be positive, got {m}")
    h = max(map(abs, point.coords)) ** m
    num, den = dist.as_integer_ratio()
    return ApproxSample(point.coords, h, num, den, _ratio(h, num, den))


def _take(column: list, indices: Sequence[int]) -> list:
    """column[k] for each k in indices; a range of step 1 is a slice."""
    if isinstance(indices, range):
        return column[indices.start:indices.stop]
    return list(map(column.__getitem__, indices))


def _height_order(heights: list[int]) -> Sequence[int]:
    """The indices by ascending height, ties kept in index order: ``range(n)``
    when the heights never fall, else one stable sort of the indices."""
    if all(map(operator.le, heights, islice(heights, 1, None))):
        return range(len(heights))
    return sorted(range(len(heights)), key=heights.__getitem__)


class ApproxLine(Sequence):
    """The samples of ``best_sequence_on_line``, a read-only sequence stored
    as integer columns in line order: the k-th sample has base height
    heights[k] (before the m-th power), distance nums[k] / dens[k] and a
    representative of gcd gcds[k].

    ``line[k]`` and slices build ``ApproxSample``s when read, with the
    point from the target and the gcd, the height's m-th power and the
    ratio; a slice is a list.  The estimators read the columns from
    position ``tail_start`` of the order of ``_height_order`` on.  The
    logarithms of the heights and distances there are computed once, when
    first read, and the estimate and every trend share them.

    The constructor is internal and checks nothing: ``best_sequence_on_line``
    is the only builder, and its columns hold what the estimators rely on.
    The heights and distance terms are at least 1, and the distances
    strictly decrease along the line, so the stable height order puts the
    larger distance first at equal height.
    """

    __slots__ = ("target", "place", "m", "tail_start", "heights", "nums", "dens", "_j", "_gcds", "_order",
                 "_tail")

    def __init__(self, target: RationalProjectivePoint, place: PlaceSpec, j: int, m: int, tail_start: int,
                 gcds: list[int], heights: list[int], nums: list[int], dens: list[int]):
        self.target, self.place, self._j, self.m, self.tail_start = target, place, j, m, tail_start
        self._gcds, self.heights, self.nums, self.dens = gcds, heights, nums, dens
        self._order = self._tail = None

    def __len__(self) -> int:
        return len(self.heights)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(map(self._sample, range(len(self))[index]))
        return self._sample(range(len(self))[index])

    def _sample(self, k: int) -> ApproxSample:
        """Sample k, the representative at i = k + 1 divided by its gcd."""
        coords, j, p, g = self.target.coords, self._j, self.place.prime, self._gcds[k]
        if p is None:
            rep = [(k + 1) * c for c in coords]
            rep[j] += 1
        else:
            rep = list(coords)
            rep[j] += p ** (k + 1)
        if g != 1:
            rep = [c // g for c in rep]
        h = self.heights[k] ** self.m
        num, den = self.nums[k], self.dens[k]
        return ApproxSample(tuple(rep), h, num, den, _ratio(h, num, den))

    @property
    def order(self) -> Sequence[int]:
        if self._order is None:
            self._order = _height_order(self.heights)
        return self._order

    def tail_logs(self) -> tuple[list[float], list[float]]:
        """log(height) and log(dist) = log(num) - log(den) of the samples
        from position ``tail_start`` of the order on; the m-th powers are
        taken only here."""
        if self._tail is None:
            tail = self.order[self.tail_start:]
            heights = _take(self.heights, tail)
            if self.m != 1:
                heights = map(pow, heights, repeat(self.m))
            log_h = list(map(math.log, heights))
            nums, dens = map(math.log, _take(self.nums, tail)), map(math.log, _take(self.dens, tail))
            self._tail = (log_h, list(map(operator.sub, nums, dens)))
        return self._tail


#: The most points a line may have.  Its integers stay small at inf, but
#: not its columns: 100 000 points there take about 0.1 s and 36 MB.
MAX_COUNT = 100_000


def _digits_over(base: int, exponent: int = 1) -> bool:
    """Whether base ** exponent, for a base of at least 1, has more digits
    than ``str`` prints (``sys.get_int_max_str_digits()``, 0 for no limit).
    The power lies in [2 ** ((b - 1) * exponent), 2 ** (b * exponent)), b
    the base's bit length; only if 10 ** limit lies near it is it computed."""
    limit = sys.get_int_max_str_digits()
    if not limit:
        return False
    bits, b = limit * math.log2(10), base.bit_length()
    if b * exponent < bits - 1:
        return False
    if (b - 1) * exponent > bits + 1:
        return True
    return base**exponent >= 10**limit


def _tail_start(count: int, tail_fraction: float) -> int:
    """Position, in a line's order, of the first sample of its tail, which
    holds the last ``tail_fraction`` of the ``count`` samples and must hold
    at least 2.  Fewer than 10 samples raise TooFewPoints, and any other
    refusal BadArgs."""
    if count < 10:
        raise TooFewPoints(f"need at least 10 samples, got {count}")
    if not 0 < tail_fraction <= 1:
        raise BadArgs(f"tail_fraction must be in (0, 1], got {tail_fraction}")
    start = math.floor(count * (1 - tail_fraction))
    if count - start < 2:
        raise BadArgs(
            f"tail_fraction {tail_fraction} leaves {count - start} of "
            f"{count} samples in the tail, need at least 2"
        )
    return start


def best_sequence_on_line(
    target: RationalProjectivePoint,
    place: PlaceSpec,
    count: int,
    m: int = 1,
    tail_fraction: float = 0.5,
) -> ApproxLine:
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
    since p does not divide g_i, P being primitive.  The columns are built
    in line order by maps over whole columns, with no tuple per sample.

    The estimators read the last ``tail_fraction`` of the line (see
    ``_tail_start``).  Before any column, it refuses (BadArgs) a count
    above MAX_COUNT, a line whose integers may have more digits than
    ``str`` prints, and then a tail of fewer than 2 samples.  P_j >= 0, so
    no integer of the line exceeds the last representative's largest entry
    to the m-th power, or its distance denominator before the gcd cancels
    (that entry times max |P| at inf, p^(count + v) at p).

    The points are pairwise distinct, so the line needs no repeated-point
    check: P and e_j are independent, so a multiple of i*P + e_j equal to
    i'*P + e_j has e_j-coefficient 1 and i = i', and one of P + p^i e_j
    equal to P + p^i' e_j has P-coefficient 1 and p^i = p^i'.  The
    distances strictly decrease with i: at p the exponent i + v grows, and
    at inf max |i*P + e_j| grows, since each |i*P_k + [k = j]| with
    P_k != 0 grows by |P_k|; if the maximum is the 1 of a zero P_j, then
    every |i*P_k| with k != j is at most 1, so i = 1, and at i = 2 one of
    them is 2.
    """
    if count < 10:
        raise TooFewPoints(f"need at least 10 points, got {count}")
    if count > MAX_COUNT:
        raise BadArgs(f"a line holds at most {MAX_COUNT} points, got {count}")
    if m < 1:
        raise BadArgs(f"height exponent must be positive, got {m}")
    coords = target.coords
    n = len(coords)
    # e_j is proportional to the target only when the target is supported on {j}.
    j = next(j for j in range(n) if any(coords[k] for k in range(n) if k != j))
    others = [c for k, c in enumerate(coords) if k != j]
    p = place.prime
    if p is None:
        # |i*P_k + [k = j]| = a_k + (i - 1)*|P_k| with a_k = |P_k + [k = j]|,
        # since i*|P_k| >= 1 keeps the sign of P_k when P_k != 0.  a_k <=
        # |P_k| + 1, so from i = 2 on a coordinate of the largest |P_k|
        # attains max |i*P + e_j|: the one of them with the largest a_k
        firsts = [abs(c + (k == j)) for k, c in enumerate(coords)]
        size = max(map(abs, coords))
        lead = max(a for a, c in zip(firsts, coords) if abs(c) == size)
        last = lead + (count - 1) * size
        too_long = _digits_over(last, m) or _digits_over(last * size)
    else:
        # only the j-th coordinate moves: the others' gcd and height are constant
        common = math.gcd(*others)
        top = max(map(abs, others))
        v = _valuation(common, p)
        too_long = _digits_over(p, count + v) or _digits_over(max(top, abs(coords[j] + p**count)), m)
    if too_long:
        raise BadArgs(f"the integers of a line of {count} points at {place} with m = {m} may exceed "
                      f"{sys.get_int_max_str_digits()} digits, the most str() prints; lower the count or m")
    start = _tail_start(count, tail_fraction)
    columns = (_inf_columns(coords, count, firsts, size, lead, max(map(abs, others))) if p is None
               else _prime_columns(coords[j], p, count, common, top, v))
    return ApproxLine(target, place, j, m, start, *columns)


def _inf_columns(coords, count: int, firsts: list[int], size: int, lead: int, cross: int) -> tuple[list[int], ...]:
    """The gcd, height, distance numerator and denominator columns at inf;
    ``cross`` is max_{k!=j} |P_k|, and the rest is as named above."""
    columns = [range(a, a + count * abs(c), abs(c)) if c else [a] * count for a, c in zip(firsts, coords)]
    gcds = list(map(math.gcd, *columns))
    tops = [max(firsts), *range(lead + size, lead + count * size, size)]
    heights = list(map(operator.floordiv, tops, gcds))
    raw = list(map(operator.mul, tops, repeat(size)))
    cancel = list(map(math.gcd, raw, repeat(cross)))
    nums = list(map(operator.floordiv, repeat(cross), cancel))
    dens = list(map(operator.floordiv, raw, cancel))
    return gcds, heights, nums, dens


def _prime_columns(moving: int, p: int, count: int, common: int, top: int, v: int) -> tuple[list[int], ...]:
    """The gcd, height, distance numerator and denominator columns at p,
    from P_j (``moving``) and the other coordinates' gcd, top and v."""
    steps = list(accumulate(repeat(p, count), operator.mul))
    moved = list(map(operator.add, steps, repeat(moving)))
    tops = list(map(abs, moved))
    # |P_j + p^i| >= p^i - |P_j| >= top once p^i >= top + |P_j|
    below = bisect_left(steps, top + abs(moving))
    tops[:below] = map(max, repeat(top), tops[:below])
    if common == 1:
        gcds, heights = [1] * count, tops
    else:
        gcds = list(map(math.gcd, moved, repeat(common)))
        heights = list(map(operator.floordiv, tops, gcds))
    dens = steps if v == 0 else list(map(operator.mul, steps, repeat(p**v)))
    return gcds, heights, [1] * count, dens


class AlphaEstimate(NamedTuple):
    """Tail estimate of an approximation constant from finite data."""

    estimate: float
    tail_min: float
    tail_max: float
    tail_count: int


def _tail_logs(line: ApproxLine) -> tuple[list[float], list[float]]:
    """The line's ``tail_logs``; anything but an ``ApproxLine`` raises
    BadArgs."""
    if not isinstance(line, ApproxLine):
        raise BadArgs(f"the estimators take an ApproxLine, got {type(line).__name__}")
    return line.tail_logs()


def alpha_estimate(line: ApproxLine) -> AlphaEstimate:
    """Median of the height/distance log-ratio over the tail of a line, in
    the line's order: by height, and at equal height by descending distance.

    The line is not checked for convergence.  Its points are distinct (see
    ``best_sequence_on_line``), and its distances go to 0.  At a prime p
    the i-th distance is p^-(i + v) with v fixed.  At inf it is
    max_{k!=j} |P_k| / (max |i*P + e_j| * max |P|), a fixed numerator over
    max |i*P + e_j| >= i * max |P| - 1, which grows linearly in i.  A test
    of the tail's least distance against the head's would be no proof of
    that: the gcd g_i of the representative varies with i, so a point of
    small height can hold a small distance and sort into the head, as at
    i = 37 on (3 : 4), where g_i = 4.  Nor can the tail of a line from
    ``best_sequence_on_line`` lack a finite ratio: its distance is below 1
    from i = 2 on, so only its first sample's ratio can be infinite or
    NaN, and a tail holds at least 2 samples.  Columns that no line holds
    can lack one, and raise NotConverging.
    """
    tail = sorted(filter(math.isfinite, map(_log_ratio, *_tail_logs(line))))
    if not tail:
        raise NotConverging("no finite ratios in the tail")
    mid = len(tail) // 2
    median = tail[mid] if len(tail) % 2 else (tail[mid - 1] + tail[mid]) / 2
    return AlphaEstimate(estimate=median, tail_min=tail[0], tail_max=tail[-1], tail_count=len(tail))


#: A trend slope within this distance of 0 reads as indeterminate.
TREND_THRESHOLD = 0.05


class Trend(NamedTuple):
    """Log-log slope of dist^gamma * H along a sequence, with its reading."""

    gamma: float
    slope: float
    verdict: str  # "bounded", "unbounded", or "indeterminate"


def boundedness_trend(line: ApproxLine, gamma: float) -> Trend:
    """Least-squares slope of log(dist^gamma * H) against log H over the tail.

    A slope below -TREND_THRESHOLD means the product tends to zero (gamma
    is in the bounded set); one above TREND_THRESHOLD means it is
    unbounded.  The interval structure of the bounded set makes this
    monotone in gamma.  It reads the line in the order of ``alpha_estimate``,
    so both read the same tail and share its logarithms.
    """
    xs, log_dist = _tail_logs(line)
    ys = list(map(operator.add, xs, map(operator.mul, repeat(gamma), log_dist)))
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    dx = list(map(operator.sub, xs, repeat(mean_x)))
    var = sum(map(pow, dx, repeat(2)))
    if var == 0:
        raise NotConverging("heights do not grow along the tail")
    slope = sum(map(operator.mul, dx, map(operator.sub, ys, repeat(mean_y)))) / var
    if not math.isfinite(slope):
        raise BadArgs(f"the trend at gamma {gamma} has a non-finite slope ({slope})")
    if slope < -TREND_THRESHOLD:
        verdict = "bounded"
    elif slope > TREND_THRESHOLD:
        verdict = "unbounded"
    else:
        verdict = "indeterminate"
    return Trend(gamma=gamma, slope=slope, verdict=verdict)
