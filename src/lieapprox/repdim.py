"""Exact representation-theoretic dimension counts.

The Weyl dimension formula is evaluated as two big-integer products and one
exact division; dominance-order enumeration runs over a provably complete
box (the inverse Cartan matrix of a finite type has non-negative entries,
so the simple-root coordinates of lam - eta are bounded by those of lam).
No floating point anywhere; numpy is used only to vectorize the integer box
filter, with values far inside int64 range.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import BadArgs, NonDominant
from .rootsys import DominantWeight, RootSystem

_BOX_CHUNK = 1 << 15


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
    """Number of candidate lattice points the enumeration will scan."""
    return math.prod(b + 1 for b in dominance_box(rs, lam))


def dominant_weights_below(rs: RootSystem, lam: DominantWeight | Sequence[int]) -> list[DominantWeight]:
    """All dominant eta with lam - eta a non-negative sum of simple roots.

    Includes eta = lam itself.  Output is in ascending lexicographic order
    on fundamental-weight coordinates, so it is deterministic.
    """
    coords = _coords(rs, lam)
    bounds = dominance_box(rs, coords)
    dims = [b + 1 for b in bounds]
    total = math.prod(dims)
    cartan = np.array(rs.cartan.entries, dtype=np.int64)
    lam_vec = np.array(coords, dtype=np.int64)
    radix = np.array(dims, dtype=np.int64)
    rank = rs.rank

    found: list[tuple[int, ...]] = []
    for start in range(0, total, _BOX_CHUNK):
        idx = np.arange(start, min(start + _BOX_CHUNK, total), dtype=np.int64)
        ks = np.empty((idx.size, rank), dtype=np.int64)
        rem = idx
        for pos in range(rank - 1, -1, -1):
            ks[:, pos] = rem % radix[pos]
            rem = rem // radix[pos]
        etas = lam_vec[None, :] - ks @ cartan.T
        keep = (etas >= 0).all(axis=1)
        found.extend(tuple(int(x) for x in row) for row in etas[keep])
    found.sort()
    return [DominantWeight(t) for t in found]


def h0_dim(rs: RootSystem, lam: DominantWeight | Sequence[int]) -> int:
    """Section count of the nef class lam: sum of End-dimensions over the
    dominant weights below lam (the distinguished summand included)."""
    return sum(end_dim(rs, eta) for eta in dominant_weights_below(rs, lam))
