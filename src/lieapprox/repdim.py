"""Exact representation-theoretic dimension counts.

The Weyl dimension formula is evaluated as two big-integer products and one
exact division.  Both read values cached on the root system: the numerator
factors <lam+rho, alpha^vee> are the pairings <rho, alpha^vee> plus lam_k
times column k of the coroot rows for each k in the support of lam, and the
denominator is the product of the <rho, alpha^vee>.  The dominant weights
below a weight are found by descent along positive roots: by Stembridge
("The partial order of dominant weights", Adv. Math. 136, 1998), every
dominant mu <= lam is reached from lam by subtracting one positive root at
a time while staying dominant, so the walk is complete and its cost grows
with the number of weights it returns.  The walk is pruned by support:
eta - beta can be dominant only when every coordinate where the weight of
beta is positive lies in the support of eta, so the roots are grouped once
per root system by the mask of those coordinates, and a group is tried
only when its mask lies inside the support.  No floating point anywhere.

``dominance_box`` bounds the simple-root coordinates of lam - eta (the
inverse Cartan matrix of a finite type has non-negative entries).  The
engine no longer scans it.  It stays, with ``dominance_box_size`` and
``_solve_cartan``, because they are the tests' independent oracle and the
benchmark's tracer (``perfbench/tracer.py``) times ``dominance_box_size``;
only a change to the benchmark (ROADMAP items 11 and 23) may retire them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress
from operator import add, sub
from typing import Sequence

from .errors import BadArgs
from .rootsys import DominantWeight, RootSystem


def _coords(rs: RootSystem, lam: DominantWeight | Sequence[int]) -> tuple[int, ...]:
    """The coordinates of lam, checked as a ``DominantWeight`` of rank rs.rank."""
    if not isinstance(lam, DominantWeight):
        lam = DominantWeight(lam)
    if len(lam.coords) != rs.rank:
        raise BadArgs(f"weight has {len(lam.coords)} coordinates, {rs.type} has rank {rs.rank}")
    return lam.coords


def weyl_dim(rs: RootSystem, lam: DominantWeight | Sequence[int]) -> int:
    """dim V_lam = prod <lam+rho, alpha^vee> / prod <rho, alpha^vee>, exact.

    The numerator factors are <rho, alpha^vee> plus lam_k times column k of
    the coroot rows, summed over the support of lam.
    """
    coords = _coords(rs, lam)
    factors = rs.rho_pairings
    for c, column in zip(coords, rs.coroot_columns):
        if c:
            factors = map(add, factors, column if c == 1 else map(c.__mul__, column))
    quotient, remainder = divmod(math.prod(factors), rs.weyl_denominator)
    if remainder:
        raise ArithmeticError(f"Weyl numerator not divisible for {rs.type}, lam={coords}")
    return quotient


def end_dim(rs: RootSystem, lam: DominantWeight | Sequence[int]) -> int:
    """dim End(V_lam) = (dim V_lam)^2."""
    d = weyl_dim(rs, lam)
    return d * d


def _solve_cartan(rs: RootSystem, rhs: Sequence[int]) -> list[Fraction]:
    """Exact solution x of (Cartan matrix) x = rhs."""
    n = rs.rank
    m = [[Fraction(v) for v in row] + [Fraction(rhs[i])] for i, row in enumerate(rs.cartan.entries)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return [m[i][n] for i in range(n)]


def dominance_box(rs: RootSystem, lam: DominantWeight | Sequence[int]) -> tuple[int, ...]:
    """Componentwise bound on the simple-root coordinates of lam - eta.

    If eta is dominant and lam - eta is a non-negative integer combination
    k of simple roots, then k <= (inverse Cartan) lam entrywise.
    """
    coords = _coords(rs, lam)
    solution = _solve_cartan(rs, coords)
    assert all(x >= 0 for x in solution)
    return tuple(math.floor(x) for x in solution)


def dominance_box_size(rs: RootSystem, lam: DominantWeight | Sequence[int]) -> int:
    """Number of lattice points in the dominance box of lam."""
    return math.prod(b + 1 for b in dominance_box(rs, lam))


def dominant_weights_below(rs: RootSystem, lam: DominantWeight | Sequence[int]) -> list[DominantWeight]:
    """All dominant eta with lam - eta a non-negative sum of simple roots.

    Includes eta = lam itself.  Depth-first descent: from each weight
    reached, subtract the positive roots and keep the results that stay
    dominant.  eta - w can be dominant only if every coordinate where the
    root weight w is positive lies in the support of eta, so a group of
    ``rs.root_weight_groups`` whose mask leaves that support is skipped
    whole.  Output is in ascending lexicographic order on
    fundamental-weight coordinates, so it is deterministic.
    """
    coords = _coords(rs, lam)
    groups = rs.root_weight_groups
    bits = [1 << k for k in range(rs.rank)]
    seen = {coords}
    stack = [coords]
    while stack:
        eta = stack.pop()
        outside = ~sum(compress(bits, eta))
        for mask, weights in groups:
            if mask & outside:
                continue
            for w in weights:
                mu = tuple(map(sub, eta, w))
                if min(mu) >= 0 and mu not in seen:
                    seen.add(mu)
                    stack.append(mu)
    return [DominantWeight(t) for t in sorted(seen)]


def h0_dim(rs: RootSystem, lam: DominantWeight | Sequence[int]) -> int:
    """Section count of the nef class lam: sum of End-dimensions over the
    dominant weights below lam (the distinguished summand included)."""
    return sum(end_dim(rs, eta) for eta in dominant_weights_below(rs, lam))
