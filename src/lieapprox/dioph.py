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
P_f (+p^i if j = f) at p when f <= j, or 1 or p^i when j < f.  So the
points are built without re-validation.  ``distance`` and ``make_sample``
remain the general forms and serve the tests as the oracle for these.

The liminf defining the constant is not computable from finitely many
samples; the estimator reports the median of the ratio log H / (-log dist)
over a configurable tail, together with the tail extremes.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

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
    """Exponent of the prime p in the nonzero integer x.

    For p = 2 the lowest set bit gives it directly.  Otherwise divide by
    p, p^2, p^4, ... while they divide, then settle the remainder of the
    exponent bit by bit from the largest square down, so a valuation v
    costs O(log v) big divisions instead of v.
    """
    if p == 2:
        return (x & -x).bit_length() - 1
    powers = [p]
    v = 0
    while x % powers[-1] == 0:
        x //= powers[-1]
        v += 1 << (len(powers) - 1)
        powers.append(powers[-1] * powers[-1])
    for k in range(len(powers) - 2, -1, -1):
        if x % powers[k] == 0:
            x //= powers[k]
            v += 1 << k
    return v


@dataclass(frozen=True)
class RationalProjectivePoint:
    """Primitive integer coordinates, first nonzero entry positive."""

    coords: tuple[int, ...]

    def __post_init__(self):
        try:
            raw = tuple(map(operator.index, self.coords))
        except TypeError:
            raise BadArgs(f"projective coordinates must be integers, got {self.coords!r}") from None
        if len(raw) < 2:
            raise BadArgs("a projective point needs at least two coordinates")
        if not any(raw):
            raise BadArgs("the zero vector is not a projective point")
        g = math.gcd(*raw)
        first = next(c for c in raw if c)
        if first < 0:
            g = -g
        object.__setattr__(self, "coords", tuple(c // g for c in raw))

    @classmethod
    def _trusted(cls, coords: tuple[int, ...]) -> "RationalProjectivePoint":
        """A point from coordinates already primitive with first nonzero
        entry positive, skipping the validation of the constructor."""
        point = object.__new__(cls)
        object.__setattr__(point, "coords", coords)
        return point

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


@dataclass(frozen=True)
class PlaceSpec:
    """A place of the rationals: archimedean (prime None) or a prime p."""

    prime: int | None = None

    def __post_init__(self):
        if self.prime is not None and not _is_prime(self.prime):
            raise BadArgs(f"{self.prime} is not prime")

    @classmethod
    def archimedean(cls) -> "PlaceSpec":
        return cls(None)

    @classmethod
    def at(cls, p: int) -> "PlaceSpec":
        return cls(p)

    @property
    def is_archimedean(self) -> bool:
        return self.prime is None

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


@dataclass(frozen=True)
class ApproxSample:
    """One approximation to a target: the point, its height, its distance to
    the target, and the ratio log(height)/(-log(distance))."""

    point: RationalProjectivePoint
    height: int
    distance: Fraction
    ratio: float


def _flog(q: Fraction | int) -> float:
    if isinstance(q, int):
        return math.log(q)
    return math.log(q.numerator) - math.log(q.denominator)


def _sample(point: RationalProjectivePoint, h: int, dist: Fraction) -> ApproxSample:
    neg_log_dist = -_flog(dist)
    if neg_log_dist == 0.0:
        ratio = math.inf if h > 1 else math.nan
    else:
        ratio = _flog(h) / neg_log_dist
    return ApproxSample(point, h, dist, ratio)


def make_sample(
    point: RationalProjectivePoint,
    target: RationalProjectivePoint,
    place: PlaceSpec,
    m: int = 1,
) -> ApproxSample:
    dist = distance(point, target, place)
    if dist == 0:
        raise BadArgs("sample point coincides with the target")
    return _sample(point, height(point, m), dist)


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
    divided by g_i is primitive with its first nonzero entry positive, so
    the points skip re-validation.
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
    trusted = RationalProjectivePoint._trusted
    samples = []
    p = place.prime
    if p is None:
        cross = max(map(abs, others))
        size = max(map(abs, coords))
        for i in range(1, count + 1):
            rep = [i * c for c in coords]
            rep[j] += 1
            g = math.gcd(*rep)
            top = max(map(abs, rep))
            if g != 1:
                rep = [c // g for c in rep]
            point = trusted(tuple(rep))
            samples.append(_sample(point, (top // g) ** m, Fraction(cross, top * size)))
    else:
        rep = list(coords)
        step = 1
        scale = p ** _valuation(math.gcd(*others), p)
        for _ in range(count):
            step *= p
            rep[j] = coords[j] + step
            g = math.gcd(*rep)
            top = max(map(abs, rep))
            point = trusted(tuple(rep) if g == 1 else tuple(c // g for c in rep))
            samples.append(_sample(point, (top // g) ** m, Fraction(1, step * scale)))
    return samples


@dataclass(frozen=True)
class AlphaEstimate:
    """Tail estimate of an approximation constant from finite data."""

    estimate: float
    tail_min: float
    tail_max: float
    sample_count: int
    tail_count: int


def _by_height_then_distance(samples: Sequence[ApproxSample]) -> list[ApproxSample]:
    """Samples by ascending height, and at equal height by descending distance.

    Two stable sorts give the order of the key (height, -distance), ties
    included, without negating a Fraction per sample.
    """
    ordered = sorted(samples, key=lambda s: s.distance, reverse=True)
    ordered.sort(key=lambda s: s.height)
    return ordered


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
    seen = set()
    for s in ordered:
        if s.point.coords in seen:
            raise NotConverging(f"repeated point {s.point}")
        seen.add(s.point.coords)
    half = len(ordered) // 2
    head_min = min(s.distance for s in ordered[:half])
    tail_min = min(s.distance for s in ordered[half:])
    if tail_min >= head_min:
        raise NotConverging("distances do not decrease along the sequence")
    tail = [s.ratio for s in ordered[start:] if math.isfinite(s.ratio)]
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


@dataclass(frozen=True)
class Trend:
    """Log-log slope of dist^gamma * H along a sequence, with its reading."""

    gamma: float
    slope: float
    verdict: str  # "bounded", "unbounded", or "indeterminate"


def boundedness_trend(
    samples: Sequence[ApproxSample],
    gamma: float,
    tail_fraction: float = 0.5,
    threshold: float = 0.05,
) -> Trend:
    """Least-squares slope of log(dist^gamma * H) against log H over the tail.

    A clearly negative slope means the product tends to zero (gamma is in
    the bounded set); a clearly positive one means it is unbounded.  The
    interval structure of the bounded set makes this monotone in gamma.
    """
    if len(samples) < 10:
        raise TooFewPoints(f"need at least 10 samples, got {len(samples)}")
    start = _tail_start(len(samples), tail_fraction)
    ordered = sorted(samples, key=lambda s: s.height)
    xs, ys = [], []
    for s in ordered[start:]:
        x = _flog(s.height)
        ys.append(x + gamma * _flog(s.distance))
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
    if slope < -threshold:
        verdict = "bounded"
    elif slope > threshold:
        verdict = "unbounded"
    else:
        verdict = "indeterminate"
    return Trend(gamma=gamma, slope=slope, verdict=verdict)
