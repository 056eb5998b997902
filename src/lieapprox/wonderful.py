"""Geometry dictionary for wonderful compactifications of adjoint groups.

The compactification X of a semisimple adjoint group has Pic(X) isomorphic
to the weight lattice, nef cone spanned by the fundamental weights, and
dim X = dim G = rank + 2 * (number of positive roots).  For products the
compactification is the product of the factors' compactifications, so
dimensions add and section counts multiply.
"""

from __future__ import annotations

import re
from operator import index
from typing import NamedTuple, Sequence

from . import repdim
from .errors import BadArgs, BadIndex, InvalidRank, NotNef
from .rootsys import RootSystem, SimpleType, build_root_system


class _SemisimpleTypeFields(NamedTuple):
    factors: tuple[SimpleType, ...]


class SemisimpleType(_SemisimpleTypeFields):
    """A product of simple types, one per factor."""

    __slots__ = ()

    def __new__(cls, factors: tuple[SimpleType, ...]) -> "SemisimpleType":
        if not factors:
            raise InvalidRank("a semisimple type needs at least one factor")
        return super().__new__(cls, factors)

    @classmethod
    def _make(cls, fields) -> "SemisimpleType":
        return cls(*fields)

    @classmethod
    def of(cls, *factors: SimpleType) -> "SemisimpleType":
        return cls(tuple(factors))

    @classmethod
    def parse(cls, label: str) -> "SemisimpleType":
        """Parse labels like ``E8`` or ``A1xA1`` (separators: x, X, *); a
        label with an empty factor, as in ``A1xxA2`` or ``xA1``, is refused."""
        parts = re.split(r"[xX*]", label)
        if not all(p.strip() for p in parts):
            raise InvalidRank(f"cannot parse semisimple type {label!r}")
        return cls(tuple(SimpleType.parse(p) for p in parts))

    @property
    def total_rank(self) -> int:
        return sum(f.rank for f in self.factors)

    def __str__(self) -> str:
        return "x".join(str(f) for f in self.factors)


class _NefDivisorFields(NamedTuple):
    coeffs: tuple[tuple[int, ...], ...]


class NefDivisor(_NefDivisorFields):
    """Per-factor non-negative integer coordinates in the fundamental-weight basis."""

    __slots__ = ()

    def __new__(cls, coeffs: Sequence[Sequence[int]]) -> "NefDivisor":
        try:
            checked = tuple(tuple(map(index, block)) for block in coeffs)
        except TypeError:
            raise BadArgs(f"nef coordinates must be integers, got {coeffs!r}") from None
        for block in checked:
            if block and min(block) < 0:
                raise NotNef(f"negative nef coordinate in {block}")
        return super().__new__(cls, checked)

    @classmethod
    def _make(cls, fields) -> "NefDivisor":
        return cls(*fields)

    @classmethod
    def from_flat(cls, t: SemisimpleType, flat: Sequence[int]) -> "NefDivisor":
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


def root_systems(t: SemisimpleType) -> tuple[RootSystem, ...]:
    """Root systems of the simple factors, in order."""
    return tuple(map(build_root_system, t.factors))


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
