"""Finite root systems: Cartan data, positive roots, coroot pairings.

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
roots, their weights and their half-norms come out of one closure pass,
which raises each root alpha by every simple reflection s_i with
<alpha, alpha_i^vee> < 0; every positive root is reached so from the simple
roots (Humphreys, Introduction to Lie Algebras and Representation Theory,
10.2), and a reflection keeps the half-norm.  The coroot rows and their
columns, the pairings <rho, alpha^vee> and their product (the Weyl
denominator), the root weights grouped by positive support, the comarks,
the fundamental dimensions and dim X are cached properties derived from
the closure; the coroot rows and fundamental dimensions are computed
column by column, one column per simple root.
Every rank is built on request: a ceiling on the ranks a sweep covers is
the caller's policy (``supported_types`` takes it as an argument; the
command line checks its own).

All values are immutable after construction and safe to share across
concurrent workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import prod
from operator import add, floordiv, mod, mul

from .errors import BadIndex, InvalidRank, NonDominant, NotARoot

FAMILIES = ("A", "B", "C", "D", "E", "F", "G")

_LOWEST_RANK = {"A": 1, "B": 2, "C": 2, "D": 4}
_EXCEPTIONAL_RANKS = {"E": (6, 7, 8), "F": (4,), "G": (2,)}

# Closed forms used as independent cross-checks by callers and tests.
COXETER_NUMBER = {
    "A": lambda n: n + 1,
    "B": lambda n: 2 * n,
    "C": lambda n: 2 * n,
    "D": lambda n: 2 * n - 2,
    "E": lambda n: {6: 12, 7: 18, 8: 30}[n],
    "F": lambda n: 12,
    "G": lambda n: 6,
}
DUAL_COXETER_NUMBER = {
    "A": lambda n: n + 1,
    "B": lambda n: 2 * n - 1,
    "C": lambda n: n + 1,
    "D": lambda n: 2 * n - 2,
    "E": lambda n: {6: 12, 7: 18, 8: 30}[n],
    "F": lambda n: 9,
    "G": lambda n: 4,
}
#: Order of the weight lattice modulo the root lattice (= center of the
#: simply connected form), which also equals det(Cartan matrix).
CENTER_ORDER = {
    "A": lambda n: n + 1,
    "B": lambda n: 2,
    "C": lambda n: 2,
    "D": lambda n: 4,
    "E": lambda n: {6: 3, 7: 2, 8: 1}[n],
    "F": lambda n: 1,
    "G": lambda n: 1,
}


@dataclass(frozen=True, order=True)
class SimpleType:
    """A simple Lie type: family letter A-G plus rank."""

    family: str
    rank: int

    def __post_init__(self):
        family, rank = self.family, self.rank
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

    @classmethod
    def parse(cls, label: str) -> "SimpleType":
        label = label.strip()
        if len(label) < 2 or not label[1:].isdigit():
            raise InvalidRank(f"cannot parse simple type {label!r}")
        return cls(label[0].upper(), int(label[1:]))

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


@dataclass(frozen=True)
class CartanMatrix:
    """Integer Cartan matrix with its symmetrizer, a[i][j] = <alpha_j, alpha_i^vee>."""

    entries: tuple[tuple[int, ...], ...]
    symmetrizer: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.entries)

    def validate(self) -> None:
        a, d = self.entries, self.symmetrizer
        n = self.rank
        if len(d) != n or any(len(row) != n for row in a):
            raise InvalidRank("Cartan data with inconsistent dimensions")
        for i in range(n):
            if a[i][i] != 2:
                raise InvalidRank(f"diagonal entry a[{i}][{i}] = {a[i][i]} != 2")
            if d[i] not in (1, 2, 3):
                raise InvalidRank(f"symmetrizer entry d[{i}] = {d[i]} not in 1..3")
            for j in range(n):
                if i != j and a[i][j] > 0:
                    raise InvalidRank(f"positive off-diagonal entry a[{i}][{j}]")
                if (a[i][j] == 0) != (a[j][i] == 0):
                    raise InvalidRank(f"zero pattern not symmetric at ({i},{j})")
                if d[i] * a[i][j] != d[j] * a[j][i]:
                    raise InvalidRank(f"symmetrizer fails at ({i},{j})")
        if self.determinant() <= 0:
            raise InvalidRank("Cartan matrix is not positive definite")

    def determinant(self) -> int:
        """Exact determinant (equals the order of weight/root lattice quotient).

        Fraction-free Bareiss elimination: every division is exact, so the
        arithmetic stays in integers.
        """
        m = [list(row) for row in self.entries]
        n = self.rank
        sign, prev = 1, 1
        for col in range(n):
            pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
            if pivot is None:
                return 0
            if pivot != col:
                m[col], m[pivot] = m[pivot], m[col]
                sign = -sign
            top = m[col]
            for r in range(col + 1, n):
                row = m[r]
                factor = row[col]
                m[r] = [(x * top[col] - factor * y) // prev for x, y in zip(row, top)]
            prev = top[col]
        return sign * prev


@dataclass(frozen=True, order=True)
class Root:
    """A root as integer coordinates in the simple-root basis."""

    coeffs: tuple[int, ...]

    @property
    def height(self) -> int:
        return sum(self.coeffs)


@dataclass(frozen=True, order=True)
class DominantWeight:
    """Non-negative integer coordinates in the fundamental-weight basis."""

    coords: tuple[int, ...]

    def __post_init__(self):
        if any(c < 0 for c in self.coords):
            raise NonDominant(f"negative coordinate in {self.coords}")

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)

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
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]], list[int]]:
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
    return [tuple(c) for c, _, _ in out], [tuple(w) for _, w, _ in out], [hn for _, _, hn in out]


@dataclass(frozen=True)
class RootSystem:
    """A finite root system with its Cartan data and distinguished elements."""

    type: SimpleType
    cartan: CartanMatrix
    positive_roots: tuple[Root, ...]
    highest_root: Root
    rho: DominantWeight
    #: (alpha, alpha)/2 for every positive root, in positive_roots order.
    root_halfnorms: tuple[int, ...]
    #: Fundamental-weight coordinates (A c) of every positive root, in
    #: positive_roots order.
    root_weights: tuple[tuple[int, ...], ...]

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

    @property
    def coxeter_number(self) -> int:
        return 2 * self.num_positive_roots // self.rank

    @cached_property
    def _root_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(r.coeffs for r in self.positive_roots)

    def is_positive_root(self, alpha: Root) -> bool:
        return alpha.coeffs in self._root_set

    def root_halfnorm(self, alpha: Root) -> int:
        """(alpha, alpha)/2 in the short-root-is-1 normalization."""
        c = alpha.coeffs
        a, d = self.cartan.entries, self.cartan.symmetrizer
        support = [i for i, c_i in enumerate(c) if c_i]
        norm2 = sum(c[i] * c[j] * d[i] * a[i][j] for i in support for j in support)
        assert norm2 > 0 and norm2 % 2 == 0
        return norm2 // 2

    def coroot_row(self, alpha: Root) -> tuple[int, ...]:
        """The vector (<omega_1, alpha^vee>, ..., <omega_r, alpha^vee>).

        <omega_j, alpha^vee> = c_j d_j / hn(alpha), which must be integral.
        """
        d_alpha = self.root_halfnorm(alpha)
        nums = tuple(map(mul, alpha.coeffs, self.cartan.symmetrizer))
        if any(num % d_alpha for num in nums):
            raise NotARoot(f"{alpha.coeffs} has a non-integral coroot pairing")
        return tuple(num // d_alpha for num in nums)

    @cached_property
    def coroot_rows(self) -> tuple[tuple[int, ...], ...]:
        """Coroot pairing rows for every positive root, in positive_roots order.

        Computed column by column: column j holds c_j d_j / hn(alpha) for every
        root.  In a simply-laced type d and every half-norm are 1, so the rows
        are the coefficient tuples themselves.
        """
        coeffs = [alpha.coeffs for alpha in self.positive_roots]
        halfnorms = self.root_halfnorms
        if all(d_j == 1 for d_j in self.cartan.symmetrizer):
            return tuple(coeffs)
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

    def weight_coords(self, alpha: Root) -> tuple[int, ...]:
        """Fundamental-weight coordinates of a root (the product A c)."""
        a = self.cartan.entries
        c = alpha.coeffs
        return tuple(sum(a[j][i] * c[i] for i in range(self.rank)) for j in range(self.rank))

    @cached_property
    def highest_root_weight(self) -> DominantWeight:
        # The highest root is the last positive root (see build_root_system).
        return DominantWeight(self.root_weights[-1])

    def fundamental_weight(self, index: int) -> DominantWeight:
        """omega_index for a 1-based Bourbaki index."""
        if not 1 <= index <= self.rank:
            raise BadIndex(f"weight index {index} out of range 1..{self.rank}")
        return DominantWeight(tuple(1 if j == index - 1 else 0 for j in range(self.rank)))


@lru_cache(maxsize=None)
def build_root_system(st: SimpleType) -> RootSystem:
    """The root system of a simple type of any rank (Bourbaki numbering).

    Built once per type and cached; checks the Cartan data, the number of
    positive roots against the Coxeter closed form and that the highest
    root is unique and last.
    """
    entries, d = _cartan_data(st)
    cartan = CartanMatrix(tuple(tuple(row) for row in entries), tuple(d))
    cartan.validate()
    coeff_list, weights, halfnorms = _close_positive_roots(cartan.entries, cartan.symmetrizer)
    roots = tuple(map(Root, coeff_list))
    heights = list(map(sum, coeff_list))
    top_height = max(heights)
    assert heights.count(top_height) == 1, f"{st}: highest root is not unique"
    assert heights[-1] == top_height, f"{st}: highest root is not the last root"
    expected = st.rank * COXETER_NUMBER[st.family](st.rank) // 2
    assert len(roots) == expected, f"{st}: found {len(roots)} positive roots, expected {expected}"
    rho = DominantWeight((1,) * st.rank)
    rs = RootSystem(st, cartan, roots, roots[-1], rho, tuple(halfnorms), tuple(weights))
    assert all(x >= 0 for x in rs.highest_root_weight.coords)
    return rs


def coroot_pairing(rs: RootSystem, w: DominantWeight, alpha: Root) -> int:
    """Exact integer pairing <w, alpha^vee> for a positive root alpha."""
    if not rs.is_positive_root(alpha):
        raise NotARoot(f"{alpha.coeffs} is not a positive root of {rs.type}")
    row = rs.coroot_row(alpha)
    return sum(c * r for c, r in zip(w.coords, row))


def comarks(rs: RootSystem) -> tuple[int, ...]:
    """(<omega_1, theta^vee>, ..., <omega_r, theta^vee>) in Bourbaki order."""
    return rs.comark_vector


def supported_types(max_rank: int) -> list[SimpleType]:
    """Every simple type with classical ranks up to ``max_rank``, sorted."""
    out = []
    for family, lowest in _LOWEST_RANK.items():
        out.extend(SimpleType(family, n) for n in range(lowest, max_rank + 1))
    for family, ranks in _EXCEPTIONAL_RANKS.items():
        out.extend(SimpleType(family, n) for n in ranks)
    return sorted(out)
