"""Geometry dictionary for wonderful compactifications of adjoint groups.

The compactification X of a semisimple adjoint group has Pic(X) isomorphic
to the weight lattice, nef cone spanned by the fundamental weights, and
dim X = dim G = rank + 2 * (number of positive roots).  For products the
compactification is the product of the factors' compactifications, so
dimensions add and section counts multiply.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from . import repdim
from .errors import BadArgs, BadIndex, InvalidRank, NotNef
from .rootsys import RootSystem, SimpleType, build_root_system


@dataclass(frozen=True, order=True)
class SemisimpleType:
    """A product of simple types, one per factor."""

    factors: tuple[SimpleType, ...]

    def __post_init__(self):
        if not self.factors:
            raise InvalidRank("a semisimple type needs at least one factor")

    @classmethod
    def of(cls, *factors: SimpleType) -> "SemisimpleType":
        return cls(tuple(factors))

    @classmethod
    def parse(cls, label: str) -> "SemisimpleType":
        """Parse labels like ``E8`` or ``A1xA1`` (separators: x, X, *)."""
        parts = [p for p in re.split(r"[xX*]", label.strip()) if p]
        if not parts:
            raise InvalidRank(f"cannot parse semisimple type {label!r}")
        return cls(tuple(SimpleType.parse(p) for p in parts))

    @property
    def total_rank(self) -> int:
        return sum(f.rank for f in self.factors)

    def __str__(self) -> str:
        return "x".join(str(f) for f in self.factors)


@dataclass(frozen=True)
class NefDivisor:
    """Per-factor non-negative integer coordinates in the fundamental-weight basis."""

    coeffs: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for block in self.coeffs:
            if any(c < 0 for c in block):
                raise NotNef(f"negative nef coordinate in {block}")

    @classmethod
    def from_flat(cls, t: SemisimpleType, flat: Sequence[int]) -> "NefDivisor":
        flat = [int(c) for c in flat]
        if len(flat) != t.total_rank:
            raise BadArgs(
                f"{t} needs {t.total_rank} divisor coefficients, got {len(flat)}"
            )
        blocks = []
        pos = 0
        for factor in t.factors:
            blocks.append(tuple(flat[pos : pos + factor.rank]))
            pos += factor.rank
        return cls(tuple(blocks))

    @property
    def is_zero(self) -> bool:
        return all(not any(block) for block in self.coeffs)

    def flat(self) -> tuple[int, ...]:
        return tuple(c for block in self.coeffs for c in block)

    def __str__(self) -> str:
        return ";".join(",".join(str(c) for c in block) for block in self.coeffs)


@lru_cache(maxsize=None)
def root_systems(t: SemisimpleType) -> tuple[RootSystem, ...]:
    """Root systems of the simple factors, in order."""
    return tuple(build_root_system(f) for f in t.factors)


def dim_X(t: SemisimpleType) -> int:
    """Dimension of the wonderful compactification: additive over factors,
    rank + 2|Phi+| = rank * (Coxeter number + 1) per factor."""
    return sum(rs.dim_X for rs in root_systems(t))


def _check_divisor(t: SemisimpleType, D: NefDivisor) -> None:
    if len(D.coeffs) != len(t.factors) or any(
        len(block) != f.rank for block, f in zip(D.coeffs, t.factors)
    ):
        raise BadArgs(f"divisor shape {D} does not match {t}")


def root_curve_degree(t: SemisimpleType, D: NefDivisor, factor: int) -> int:
    """Degree of D on the longest-root curve of the chosen factor (0-based).

    For a single fundamental weight this is its comark.
    """
    if not 0 <= factor < len(t.factors):
        raise BadIndex(f"factor {factor} out of range for {t}")
    _check_divisor(t, D)
    rs = root_systems(t)[factor]
    return sum(c * m for c, m in zip(D.coeffs[factor], rs.comark_vector))


def h0_product(t: SemisimpleType, D: NefDivisor) -> int:
    """Global sections of the nef class D: the product over factors."""
    _check_divisor(t, D)
    result = 1
    for rs, block in zip(root_systems(t), D.coeffs):
        result *= repdim.h0_dim(rs, block)
    return result
