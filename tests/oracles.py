"""Independent oracles for the root-system and lab tests.

Nothing here imports ``lieapprox``.  Each root-system oracle is a closed
form in the rank, or a plain function of Cartan data and root
coefficients: the entries a[i][j] = <alpha_j, alpha_i^vee>, the
symmetrizer d with d[i] a[i][j] = d[j] a[j][i] and d = 1 on short roots,
and a root's coordinates c in the simple-root basis.  A test that compares
a cached field of a root system with one of these therefore does not
compare the engine with itself.

``alpha_estimate`` is the lab's tail estimator in its plain form: two
stable sorts, ``min`` over the Fraction distances and a seen-set loop.  It
reads the samples' ``point``, ``height``, ``distance`` and ``ratio`` only,
and raises ``EstimatorError`` carrying the name of the engine's exception
class, so a test can compare classes by name and messages as text.

``row_audit`` is the table audit in its plain form: the positions where two
rows differ, and the multiset differences of the whole rows.
"""

from __future__ import annotations

import math
from collections import Counter

#: Dual Coxeter number h^vee = 1 + the sum of the comarks.
DUAL_COXETER_NUMBER = {
    "A": lambda n: n + 1,
    "B": lambda n: 2 * n - 1,
    "C": lambda n: n + 1,
    "D": lambda n: 2 * n - 2,
    "E": lambda n: {6: 12, 7: 18, 8: 30}[n],
    "F": lambda n: 9,
    "G": lambda n: 4,
}

#: Order of the weight lattice modulo the root lattice (the center of the
#: simply connected form), which equals the determinant of the Cartan matrix.
CENTER_ORDER = {
    "A": lambda n: n + 1,
    "B": lambda n: 2,
    "C": lambda n: 2,
    "D": lambda n: 4,
    "E": lambda n: {6: 3, 7: 2, 8: 1}[n],
    "F": lambda n: 1,
    "G": lambda n: 1,
}


def leading_minors(entries) -> list[int]:
    """The leading principal minors of a square integer matrix, in order.

    Fraction-free Bareiss elimination without row swaps: the k-th pivot is
    the k-th leading principal minor, and every division is exact, so the
    arithmetic stays in integers.  Stops after the first zero minor, so a
    list shorter than the rank means a singular leading block.  When every
    minor is nonzero, the last one is the determinant.
    """
    m = [list(row) for row in entries]
    minors = []
    prev = 1
    for k, top in enumerate(m):
        pivot = top[k]
        minors.append(pivot)
        if pivot == 0:
            break
        for r in range(k + 1, len(m)):
            factor = m[r][k]
            m[r] = [(x * pivot - factor * y) // prev for x, y in zip(m[r], top)]
        prev = pivot
    return minors


def cartan_problems(entries, symmetrizer) -> list[str]:
    """Every way in which (entries, symmetrizer) fail to be the Cartan data
    of a finite root system; empty when they are.

    Checks the shape, a diagonal of 2, non-positive off-diagonal entries
    with a symmetric zero pattern, a symmetrizer in 1..3 that makes d a
    symmetric, and positive definiteness.  d a is symmetric with a positive
    diagonal factor, so it is positive definite iff every leading principal
    minor of a is positive (Sylvester's criterion).
    """
    n = len(entries)
    if len(symmetrizer) != n or any(len(row) != n for row in entries):
        return ["inconsistent dimensions"]
    problems = []
    for i in range(n):
        if entries[i][i] != 2:
            problems.append(f"diagonal entry a[{i}][{i}] = {entries[i][i]} != 2")
        if symmetrizer[i] not in (1, 2, 3):
            problems.append(f"symmetrizer entry d[{i}] = {symmetrizer[i]} not in 1..3")
        for j in range(n):
            if i != j and entries[i][j] > 0:
                problems.append(f"positive off-diagonal entry a[{i}][{j}]")
            if (entries[i][j] == 0) != (entries[j][i] == 0):
                problems.append(f"zero pattern not symmetric at ({i},{j})")
            if symmetrizer[i] * entries[i][j] != symmetrizer[j] * entries[j][i]:
                problems.append(f"symmetrizer fails at ({i},{j})")
    minors = leading_minors(entries)
    if len(minors) < n or min(minors) <= 0:
        problems.append(f"not positive definite: leading minors {minors}")
    return problems


def root_halfnorm(entries, symmetrizer, coeffs) -> int:
    """(alpha, alpha)/2 = sum_ij c_i c_j d_i a_ij / 2, which is 1 on short roots."""
    support = [i for i, c_i in enumerate(coeffs) if c_i]
    norm2 = sum(
        coeffs[i] * coeffs[j] * symmetrizer[i] * entries[i][j] for i in support for j in support
    )
    assert norm2 > 0 and norm2 % 2 == 0, coeffs
    return norm2 // 2


def weight_coords(entries, coeffs) -> tuple[int, ...]:
    """Fundamental-weight coordinates of a root: the product A c."""
    return tuple(sum(a_ji * c_i for a_ji, c_i in zip(row, coeffs)) for row in entries)


def coroot_row(entries, symmetrizer, coeffs) -> tuple[int, ...]:
    """(<omega_1, alpha^vee>, ..., <omega_r, alpha^vee>) = c_j d_j / hn(alpha).

    Raises ValueError when a quotient is not an integer, as it is for every
    root.
    """
    halfnorm = root_halfnorm(entries, symmetrizer, coeffs)
    nums = [c_j * d_j for c_j, d_j in zip(coeffs, symmetrizer)]
    if any(num % halfnorm for num in nums):
        raise ValueError(f"{tuple(coeffs)} has a non-integral coroot pairing")
    return tuple(num // halfnorm for num in nums)


class EstimatorError(Exception):
    """An input the estimator refuses; ``kind`` names the engine's class."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


def alpha_estimate(samples, tail_fraction: float = 0.5) -> tuple:
    """(estimate, tail_min, tail_max, sample_count, tail_count): the median
    of the finite ratios over the last ``tail_fraction`` of the samples
    ordered by height, then by descending distance."""
    if len(samples) < 10:
        raise EstimatorError("TooFewPoints", f"need at least 10 samples, got {len(samples)}")
    if not 0 < tail_fraction <= 1:
        raise EstimatorError("BadArgs", f"tail_fraction must be in (0, 1], got {tail_fraction}")
    count = len(samples)
    start = math.floor(count * (1 - tail_fraction))
    if count - start < 2:
        raise EstimatorError(
            "BadArgs",
            f"tail_fraction {tail_fraction} leaves {count - start} of {count} samples in the tail, need at least 2",
        )
    ordered = sorted(samples, key=lambda s: s.distance, reverse=True)
    ordered.sort(key=lambda s: s.height)
    tail = sorted(s.ratio for s in ordered[start:] if math.isfinite(s.ratio))
    if not tail:
        raise EstimatorError("NotConverging", "no finite ratios in the tail")
    mid = len(tail) // 2
    median = tail[mid] if len(tail) % 2 else (tail[mid - 1] + tail[mid]) / 2
    return (median, tail[0], tail[-1], len(ordered), len(tail))


def row_audit(printed, computed) -> tuple:
    """(mismatch_positions, only_printed, only_computed) of a printed table
    row against a computed one: the 1-based positions, among those both
    rows have, where the cells differ, and the sorted multiset differences
    printed minus computed and computed minus printed."""
    positions = tuple(
        pos for pos in range(1, min(len(printed), len(computed)) + 1) if printed[pos - 1] != computed[pos - 1]
    )
    left, right = Counter(printed), Counter(computed)
    return positions, tuple(sorted((left - right).elements())), tuple(sorted((right - left).elements()))
