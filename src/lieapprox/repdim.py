"""Exact representation-theoretic dimension counts.

The Weyl dimension formula is evaluated as two big-integer products and one
exact division.  The dominant weights below a weight are found by descent
along positive roots: by Stembridge ("The partial order of dominant
weights", Adv. Math. 136, 1998), every dominant mu <= lam is reached from
lam by subtracting one positive root at a time while staying dominant, so
the walk is complete and its cost grows with the number of weights it
returns.  No floating point anywhere.

``dominance_box`` bounds the simple-root coordinates of lam - eta (the
inverse Cartan matrix of a finite type has non-negative entries); the
engine no longer scans it, and it stays as public API and as the tests'
independent oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import sub
from typing import Sequence

from .errors import BadArgs, NonDominant
from .rootsys import DominantWeight, RootSystem


def _coords(rs: RootSystem, lam: DominantWeight | Sequence[int]) -> tuple[int, ...]:
    coords = tuple(lam.coords) if isinstance(lam, DominantWeight) else tuple(int(c) for c in lam)
    if len(coords) != rs.rank:
        raise BadArgs(f"weight has {len(coords)} coordinates, {rs.type} has rank {rs.rank}")
    if any(c < 0 for c in coords):
        raise NonDominant(f"negative coordinate in {coords}")
    return coords


def weyl_dim(rs: RootSystem, lam: DominantWeight | Sequence[int]) -> int:
    """dim V_lam = prod <lam+rho, alpha^vee> / prod <rho, alpha^vee>, exact."""
    coords = _coords(rs, lam)
    support = [(k, c) for k, c in enumerate(coords) if c]
    num = 1
    den = 1
    for row in rs.coroot_rows:
        rho_pairing = sum(row)
        num *= rho_pairing + sum(c * row[k] for k, c in support)
        den *= rho_pairing
    quotient, remainder = divmod(num, den)
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
    reached, subtract every positive root and keep the results that stay
    dominant.  Output is in ascending lexicographic order on
    fundamental-weight coordinates, so it is deterministic.
    """
    coords = _coords(rs, lam)
    roots = rs.root_weights
    seen = {coords}
    stack = [coords]
    while stack:
        eta = stack.pop()
        for w in roots:
            mu = tuple(map(sub, eta, w))
            if min(mu) >= 0 and mu not in seen:
                seen.add(mu)
                stack.append(mu)
    return [DominantWeight(t) for t in sorted(seen)]


def h0_dim(rs: RootSystem, lam: DominantWeight | Sequence[int]) -> int:
    """Section count of the nef class lam: sum of End-dimensions over the
    dominant weights below lam (the distinguished summand included)."""
    return sum(end_dim(rs, eta) for eta in dominant_weights_below(rs, lam))
