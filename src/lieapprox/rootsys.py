"""Finite root systems: Cartan data, the closure of the positive roots, and
the invariants the engine reads, each cached on the root system.

Simple roots are numbered by the Bourbaki plates throughout: A-D chains run
left to right with the short root (B), long root (C) or fork (D) at the end;
F4 is 1-2=>3-4 with roots 1,2 long; G2 has the short root first; the E-series
branch node is number 2, attached to node 4 of the chain 1-3-4-5-...-r.

Everything here is exact integer arithmetic.  Roots are stored as coordinate
vectors in the simple-root basis, weights in the fundamental-weight basis.
The Cartan convention is a[i][j] = <alpha_j, alpha_i^vee>, so the weight
coordinates of a root with simple-root coordinates c are the matrix-vector
product A c.  The symmetrizer d satisfies d[i] a[i][j] = d[j] a[j][i] with
d = 1 on short roots, making (alpha_i, alpha_j) = d[i] a[i][j] and every
coroot pairing an integer.

Each type is built once (``build_root_system`` caches it), and every
invariant is computed once and cached on its ``RootSystem``.  The positive
roots (coefficient tuples), their weights and their half-norms come out of
one closure pass, which raises each root alpha by every simple reflection
s_i with <alpha, alpha_i^vee> < 0; every positive root is reached so from
the simple roots (Humphreys, Introduction to Lie Algebras and Representation
Theory, 10.2), and a reflection keeps the half-norm.  The coroot rows and
their columns, the pairings <rho, alpha^vee> and their product (the Weyl
denominator), the root weights grouped by positive support, the comarks,
the fundamental dimensions and dim X are cached properties derived from
the closure; the coroot rows and fundamental dimensions are computed
column by column, one column per simple root.

The Cartan data are hard-coded, so a build does not re-check them: the
tests check them for every type up to rank 40, and check the closure's
half-norms, weights and coroot rows against the quadratic form up to rank
24.  A build only asserts what is cheap to check on its own output: the
Coxeter count of positive roots and a unique highest root, placed last.

Every rank is built on request: a ceiling on the ranks a sweep covers is
the caller's policy (``supported_types`` takes it as an argument; the
command line checks its own).

All values are immutable after construction and safe to share across
concurrent workers.  The value types are named tuples: a type that
validates its fields subclasses a private field tuple and checks them in
``__new__``, and ``_replace`` builds through ``__new__``, so it validates
too.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import prod
from operator import add, floordiv, index, mod
from typing import NamedTuple, Sequence

from .errors import BadArgs, BadIndex, InvalidRank, NonDominant, NotARoot

FAMILIES = ("A", "B", "C", "D", "E", "F", "G")

_LOWEST_RANK = {"A": 1, "B": 2, "C": 2, "D": 4}
_EXCEPTIONAL_RANKS = {"E": (6, 7, 8), "F": (4,), "G": (2,)}

#: Coxeter number h, for the closed-form root count rank * h / 2.
COXETER_NUMBER = {
    "A": lambda n: n + 1,
    "B": lambda n: 2 * n,
    "C": lambda n: 2 * n,
    "D": lambda n: 2 * n - 2,
    "E": lambda n: {6: 12, 7: 18, 8: 30}[n],
    "F": lambda n: 12,
    "G": lambda n: 6,
}


class _SimpleTypeFields(NamedTuple):
    family: str
    rank: int


class SimpleType(_SimpleTypeFields):
    """A simple Lie type: family letter A-G plus rank."""

    __slots__ = ()

    def __new__(cls, family: str, rank: int) -> "SimpleType":
        try:
            rank = index(rank)
        except TypeError:
            raise InvalidRank(f"rank must be an integer, got {rank!r}") from None
        if family in _EXCEPTIONAL_RANKS:
            if rank not in _EXCEPTIONAL_RANKS[family]:
                raise InvalidRank(f"{family}{rank} is not a simple type")
        elif family in _LOWEST_RANK:
            if rank < _LOWEST_RANK[family]:
                raise InvalidRank(
                    f"{family}{rank} is not supported: {family} needs rank >= "
                    f"{_LOWEST_RANK[family]} (lower ranks repeat smaller types)"
                )
        else:
            raise InvalidRank(f"unknown family {family!r}")
        return super().__new__(cls, family, rank)

    @classmethod
    def _make(cls, fields) -> "SimpleType":
        return cls(*fields)

    @classmethod
    def parse(cls, label: str) -> "SimpleType":
        label = label.strip()
        # isdigit alone accepts digits such as "²" that int() refuses
        if len(label) < 2 or not (label[1:].isascii() and label[1:].isdigit()):
            raise InvalidRank(f"cannot parse simple type {label!r}")
        return cls(label[0].upper(), int(label[1:]))

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


class CartanMatrix(NamedTuple):
    """Integer Cartan matrix with its symmetrizer, a[i][j] = <alpha_j, alpha_i^vee>."""

    entries: tuple[tuple[int, ...], ...]
    symmetrizer: tuple[int, ...]


class _DominantWeightFields(NamedTuple):
    coords: tuple[int, ...]


class DominantWeight(_DominantWeightFields):
    """Non-negative integer coordinates in the fundamental-weight basis."""

    __slots__ = ()

    def __new__(cls, coords: Sequence[int]) -> "DominantWeight":
        try:
            checked = tuple(map(index, coords))
        except TypeError:
            raise BadArgs(f"weight coordinates must be integers, got {coords!r}") from None
        if checked and min(checked) < 0:
            raise NonDominant(f"negative coordinate in {checked}")
        return super().__new__(cls, checked)

    @classmethod
    def _make(cls, fields) -> "DominantWeight":
        return cls(*fields)

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.coords) + ")"


def _chain_cartan(rank: int) -> list[list[int]]:
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i in range(rank - 1):
        a[i][i + 1] = -1
        a[i + 1][i] = -1
    return a


def _cartan_data(st: SimpleType) -> tuple[list[list[int]], list[int]]:
    n, f = st.rank, st.family
    if f == "A":
        return _chain_cartan(n), [1] * n
    if f == "B":
        # alpha_n short
        a = _chain_cartan(n)
        a[n - 1][n - 2] = -2
        return a, [2] * (n - 1) + [1]
    if f == "C":
        # alpha_n long
        a = _chain_cartan(n)
        a[n - 2][n - 1] = -2
        return a, [1] * (n - 1) + [2]
    if f == "D":
        # chain on 1..n-1, node n forks off node n-2
        a = _chain_cartan(n)
        a[n - 2][n - 1] = a[n - 1][n - 2] = 0
        a[n - 3][n - 1] = a[n - 1][n - 3] = -1
        return a, [1] * n
    if f == "E":
        a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        chain = [0] + list(range(2, n))
        for u, v in zip(chain, chain[1:]):
            a[u][v] = a[v][u] = -1
        a[1][3] = a[3][1] = -1
        return a, [1] * n
    if f == "F":
        a = _chain_cartan(4)
        a[2][1] = -2
        return a, [2, 2, 1, 1]
    # G2
    a = [[2, -3], [-1, 2]]
    return a, [1, 3]


#: Radix of the integer keys that index the closure.  Root coefficients are
#: at most 6 (E8), and a reflection only raises a coefficient, so adding
#: -w * place[i] to a key never carries out of a digit.
_KEY_RADIX = 8


def _close_positive_roots(
    entries: tuple[tuple[int, ...], ...], symmetrizer: tuple[int, ...]
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """All positive roots by simple reflections, with their weights and half-norms.

    A positive root alpha with w_i = <alpha, alpha_i^vee> < 0 is not alpha_i,
    so s_i alpha = alpha - w_i alpha_i is again a positive root, of height
    height(alpha) - w_i.  Every positive root is reached this way: a
    non-simple positive root beta has some i with <beta, alpha_i^vee> > 0
    (Humphreys, Introduction to Lie Algebras and Representation Theory,
    10.2), and then s_i beta is a positive root of lower height from which
    s_i leads back up to beta.  New roots wait in a bucket for their height,
    and the buckets are processed in increasing height.

    Each root carries its weight vector A c, which s_i moves by -w_i times
    Cartan column i, and its half-norm, which s_i leaves unchanged because
    reflections are isometries.  Roots are indexed by a mixed-radix integer
    key whose most significant digit is c_1, so key order is lexicographic
    order on coefficients.

    Returns the coefficient tuples, simple roots first and then each height
    in ascending lexicographic order, and the matching weight vectors and
    half-norms.
    """
    rank = len(entries)
    place = [_KEY_RADIX ** (rank - 1 - i) for i in range(rank)]
    # nonzero entries (j, a[j][i]) of each Cartan column
    columns = [[(j, entries[j][i]) for j in range(rank) if entries[j][i]] for i in range(rank)]
    # key -> (coefficients, weight vector, half-norm)
    known: dict[int, tuple[list[int], list[int], int]] = {}
    for i in range(rank):
        coeffs = [0] * rank
        coeffs[i] = 1
        known[place[i]] = (coeffs, [row[i] for row in entries], symmetrizer[i])
    current = list(known)
    out = list(known.values())
    # height -> keys of the roots of that height found so far.  Every height
    # from 1 to the highest root's is taken (Humphreys 10.2, Corollary to
    # Lemma A), so the first empty bucket ends the closure.
    buckets: dict[int, list[int]] = {}
    height = 1
    while current:
        for key in current:
            coeffs, weight, halfnorm = known[key]
            for i, w in enumerate(weight):
                if w < 0:
                    up = key - w * place[i]
                    if up not in known:
                        up_coeffs = coeffs.copy()
                        up_coeffs[i] -= w
                        up_weight = weight.copy()
                        for j, a_ji in columns[i]:
                            up_weight[j] -= w * a_ji
                        known[up] = (up_coeffs, up_weight, halfnorm)
                        buckets.setdefault(height - w, []).append(up)
        height += 1
        current = sorted(buckets.pop(height, ()))
        out.extend(map(known.__getitem__, current))
    return (
        tuple(tuple(c) for c, _, _ in out),
        tuple(tuple(w) for _, w, _ in out),
        tuple(hn for _, _, hn in out),
    )


class _RootSystemFields(NamedTuple):
    type: SimpleType
    cartan: CartanMatrix
    #: Simple-root coordinates of every positive root: the simple roots
    #: first, then each height in ascending lexicographic order, so the
    #: highest root is the last.
    positive_roots: tuple[tuple[int, ...], ...]
    #: (alpha, alpha)/2 for every positive root, in positive_roots order.
    root_halfnorms: tuple[int, ...]
    #: Fundamental-weight coordinates (A c) of every positive root, in
    #: positive_roots order.
    root_weights: tuple[tuple[int, ...], ...]


class RootSystem(_RootSystemFields):
    """A finite root system with its Cartan data and cached invariants.

    Not slotted: each cached property keeps its value in the instance
    ``__dict__``, which does not take part in equality or hashing.  Cached
    properties write there directly, so refusing attribute assignment
    keeps a root system immutable without disabling its cache."""

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to {name!r}: a RootSystem is immutable")

    @property
    def rank(self) -> int:
        return self.type.rank

    @property
    def num_positive_roots(self) -> int:
        return len(self.positive_roots)

    @cached_property
    def dim_X(self) -> int:
        """dim G = rank + 2|Phi+|, the dimension of the wonderful compactification."""
        return self.rank + 2 * self.num_positive_roots

    @cached_property
    def coroot_rows(self) -> tuple[tuple[int, ...], ...]:
        """Coroot pairing rows for every positive root, in positive_roots order.

        Computed column by column: column j holds c_j d_j / hn(alpha) for every
        root.  In a simply-laced type d and every half-norm are 1, so the rows
        are the coefficient tuples themselves.
        """
        coeffs = self.positive_roots
        halfnorms = self.root_halfnorms
        if all(d_j == 1 for d_j in self.cartan.symmetrizer):
            return coeffs
        columns = []
        for d_j, column in zip(self.cartan.symmetrizer, zip(*coeffs)):
            nums = [c * d_j for c in column]
            if any(map(mod, nums, halfnorms)):
                bad = next(c for c, num, hn in zip(coeffs, nums, halfnorms) if num % hn)
                raise NotARoot(f"{bad} has a non-integral coroot pairing")
            columns.append(map(floordiv, nums, halfnorms))
        return tuple(zip(*columns))

    @cached_property
    def coroot_columns(self) -> tuple[tuple[int, ...], ...]:
        """Column k of coroot_rows: <omega_k, alpha^vee> for every positive root."""
        return tuple(zip(*self.coroot_rows))

    @cached_property
    def rho_pairings(self) -> tuple[int, ...]:
        """<rho, alpha^vee>, the sum of the coroot row, for every positive root."""
        return tuple(map(sum, self.coroot_rows))

    @cached_property
    def weyl_denominator(self) -> int:
        """prod <rho, alpha^vee> over the positive roots, the denominator of
        the Weyl dimension formula."""
        return prod(self.rho_pairings)

    @cached_property
    def root_weight_groups(self) -> tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]:
        """The root weights grouped by positive support, as (mask, weights)
        pairs in ascending mask order: bit k of mask is set iff coordinate k
        of each weight in the group is positive."""
        groups: dict[int, list[tuple[int, ...]]] = {}
        for w in self.root_weights:
            groups.setdefault(sum(1 << k for k, c in enumerate(w) if c > 0), []).append(w)
        return tuple((mask, tuple(ws)) for mask, ws in sorted(groups.items()))

    @cached_property
    def comark_vector(self) -> tuple[int, ...]:
        # The highest root is the last positive root (see build_root_system).
        return self.coroot_rows[-1]

    @cached_property
    def fundamental_dims(self) -> tuple[int, ...]:
        """(dim V(omega_1), ..., dim V(omega_r)) by the Weyl dimension formula.

        dim V(omega_k) is the product over positive roots of
        (h + <omega_k, alpha^vee>) / h, with h = <rho, alpha^vee>: one
        product per column of coroot_rows over weyl_denominator.
        """
        heights = self.rho_pairings
        dims = []
        # Zipped here, not read from coroot_columns: callers that never
        # evaluate a Weyl dimension (tables, verify in end mode) then hold
        # no second copy of the coroot pairings.
        for k, column in enumerate(zip(*self.coroot_rows), start=1):
            quotient, remainder = divmod(prod(map(add, heights, column)), self.weyl_denominator)
            if remainder:
                raise ArithmeticError(f"Weyl numerator not divisible for {self.type}, omega_{k}")
            dims.append(quotient)
        return tuple(dims)

    def fundamental_weight(self, index: int) -> DominantWeight:
        """omega_index for a 1-based Bourbaki index."""
        if not 1 <= index <= self.rank:
            raise BadIndex(f"weight index {index} out of range 1..{self.rank}")
        return DominantWeight(tuple(1 if j == index - 1 else 0 for j in range(self.rank)))


@lru_cache(maxsize=None)
def build_root_system(st: SimpleType) -> RootSystem:
    """The root system of a simple type of any rank (Bourbaki numbering).

    Built once per type and cached; checks the number of positive roots
    against the Coxeter closed form and that the highest root is unique and
    last.
    """
    entries, d = _cartan_data(st)
    cartan = CartanMatrix(tuple(tuple(row) for row in entries), tuple(d))
    roots, weights, halfnorms = _close_positive_roots(cartan.entries, cartan.symmetrizer)
    heights = list(map(sum, roots))
    top_height = max(heights)
    assert heights.count(top_height) == 1, f"{st}: highest root is not unique"
    assert heights[-1] == top_height, f"{st}: highest root is not the last root"
    expected = st.rank * COXETER_NUMBER[st.family](st.rank) // 2
    assert len(roots) == expected, f"{st}: found {len(roots)} positive roots, expected {expected}"
    return RootSystem(st, cartan, roots, halfnorms, weights)


def supported_types(max_rank: int) -> list[SimpleType]:
    """Every simple type with classical ranks up to ``max_rank``, sorted."""
    out = []
    for family, lowest in _LOWEST_RANK.items():
        out.extend(SimpleType(family, n) for n in range(lowest, max_rank + 1))
    for family, ranks in _EXCEPTIONAL_RANKS.items():
        out.extend(SimpleType(family, n) for n in ranks)
    return sorted(out)
