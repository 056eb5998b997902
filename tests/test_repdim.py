from itertools import product
from math import comb
from operator import sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieapprox.errors import BadArgs, NonDominant
from lieapprox.repdim import (
    dominance_box,
    dominance_box_size,
    dominant_weights_below,
    end_dim,
    h0_dim,
    weyl_dim,
)
from lieapprox.rootsys import DominantWeight, SimpleType, build_root_system, supported_types


def _rs(label):
    return build_root_system(SimpleType.parse(label))


# -- Weyl dimension formula -----------------------------------------------------


def test_trivial_weight_has_dimension_one():
    for st in supported_types(6):
        rs = build_root_system(st)
        assert weyl_dim(rs, (0,) * rs.rank) == 1


@pytest.mark.parametrize("n", range(1, 9))
def test_a_family_fundamentals_are_binomials(n):
    rs = build_root_system(SimpleType("A", n))
    for k in range(1, n + 1):
        assert weyl_dim(rs, rs.fundamental_weight(k)) == comb(n + 1, k)


def test_known_exceptional_fundamental_dimensions():
    assert weyl_dim(_rs("E6"), (1, 0, 0, 0, 0, 0)) == 27
    assert [weyl_dim(_rs("G2"), w.coords) for w in
            (_rs("G2").fundamental_weight(1), _rs("G2").fundamental_weight(2))] == [7, 14]
    e7 = _rs("E7")
    dims = sorted(weyl_dim(e7, e7.fundamental_weight(i)) for i in range(1, 8))
    assert dims == [56, 133, 912, 1539, 8645, 27664, 365750]
    e8 = _rs("E8")
    assert weyl_dim(e8, e8.fundamental_weight(4)) == 6899079264


def test_adjoint_representation_matches_group_dimension():
    # the highest root, read as a dominant weight, generates the adjoint
    for st in supported_types(8):
        rs = build_root_system(st)
        assert weyl_dim(rs, DominantWeight(rs.root_weights[-1])) == rs.rank + 2 * rs.num_positive_roots


def test_weyl_dim_divisibility_never_fires_on_fundamental_sweep():
    for st in supported_types(12):
        rs = build_root_system(st)
        for i in range(1, rs.rank + 1):
            assert weyl_dim(rs, rs.fundamental_weight(i)) >= 1


def test_weyl_dim_strictly_monotone_under_adding_a_fundamental():
    for st in supported_types(6):
        rs = build_root_system(st)
        seeds = [(0,) * rs.rank, (1,) * rs.rank, tuple(2 if j == 0 else 0 for j in range(rs.rank))]
        for lam in seeds:
            base = weyl_dim(rs, lam)
            for i in range(rs.rank):
                bumped = tuple(c + (1 if j == i else 0) for j, c in enumerate(lam))
                assert weyl_dim(rs, bumped) > base


def test_weyl_dim_rejects_negative_coordinates():
    rs = _rs("A2")
    with pytest.raises(NonDominant):
        weyl_dim(rs, (-1, 0))
    with pytest.raises(BadArgs):
        weyl_dim(rs, (1, 2, 3))


@pytest.mark.parametrize("lam", [(1.5, 0), ("2", 0)])
def test_weyl_dim_rejects_non_integer_coordinates(lam):
    # int() would truncate 1.5 to 1 and parse "2"; each layer takes integers only
    with pytest.raises(BadArgs, match="weight coordinates must be integers"):
        weyl_dim(_rs("A2"), lam)


def test_end_dim_squares():
    g2 = _rs("G2")
    assert end_dim(g2, (1, 0)) == 49
    assert end_dim(g2, (0, 1)) == 196
    assert end_dim(g2, (0, 0)) == 1


# -- dominance-order enumeration --------------------------------------------------


def test_a1_weights_below_closed_form():
    rs = _rs("A1")
    for m in range(0, 15):
        got = [w.coords[0] for w in dominant_weights_below(rs, (m,))]
        assert got == sorted(range(m % 2, m + 1, 2))


def _a2_below_oracle(l1, l2):
    # eta = lam - k1 alpha_1 - k2 alpha_2 in weight coordinates; summing the
    # two coordinates shows k1 + k2 <= l1 + l2, so the double loop is complete.
    out = set()
    for k1 in range(l1 + l2 + 1):
        for k2 in range(l1 + l2 + 1):
            eta = (l1 - 2 * k1 + k2, l2 + k1 - 2 * k2)
            if eta[0] >= 0 and eta[1] >= 0:
                out.add(eta)
    return sorted(out)


@pytest.mark.parametrize("lam", [(0, 0), (1, 0), (1, 1), (2, 1), (3, 3), (4, 0), (2, 5)])
def test_a2_weights_below_match_bruteforce(lam):
    rs = _rs("A2")
    got = [w.coords for w in dominant_weights_below(rs, lam)]
    assert got == _a2_below_oracle(*lam)


def test_weights_below_includes_endpoint_and_is_sorted():
    for label, lam in [("B2", (1, 1)), ("G2", (1, 1)), ("C3", (1, 0, 1)), ("D4", (0, 1, 0, 0))]:
        rs = _rs(label)
        got = dominant_weights_below(rs, lam)
        coords = [w.coords for w in got]
        assert tuple(lam) in coords
        assert coords == sorted(coords)


def test_weights_below_downward_closed():
    for label, lam in [("A2", (2, 2)), ("B2", (2, 1)), ("G2", (1, 1)), ("A3", (1, 1, 1))]:
        rs = _rs(label)
        family = {w.coords for w in dominant_weights_below(rs, lam)}
        for eta in family:
            sub = {w.coords for w in dominant_weights_below(rs, eta)}
            assert sub <= family, (label, lam, eta)


# -- the dominance box as an independent oracle for the descent ---------------------


def _box_weights(rs, lam):
    """Dominant weights below lam by scanning every point lam - A k of the
    dominance box, 0 <= k <= dominance_box(rs, lam).

    A candidate is packed into one integer with a field of ``width`` bits
    per coordinate, biased by 2^(width-1).  The width exceeds every
    coordinate the box can reach, so fields never carry into each other,
    subtracting a simple root is one integer subtraction, and a candidate
    is dominant exactly when every field has its top bit set.
    """
    lam = tuple(lam)
    box = dominance_box(rs, lam)
    a = rs.cartan.entries
    reach = max(l + sum(abs(x) * b for x, b in zip(row, box)) for l, row in zip(lam, a))
    width = reach.bit_length() + 2
    bias = 1 << (width - 1)

    def pack(values):
        return sum(v << (width * j) for j, v in enumerate(values))

    top = pack([bias] * rs.rank)
    base = pack([l + bias for l in lam])
    # axis i: k_i alpha_i for k_i = 0..box[i], alpha_i packed from Cartan column i
    axes = [range(0, (b + 1) * step, step) for b, step in zip(box, map(pack, zip(*a)))]
    kept = [base - s for s in map(sum, product(*axes)) if (base - s) & top == top]
    mask = (1 << width) - 1
    return sorted(tuple(((u >> (width * j)) & mask) - bias for j in range(rs.rank)) for u in kept)


BOX_ORACLE_MAX_CANDIDATES = 200_000


def test_descent_matches_box_on_fundamental_weights():
    checked = 0
    for st in supported_types(8):
        rs = build_root_system(st)
        for i in range(1, rs.rank + 1):
            lam = rs.fundamental_weight(i)
            if dominance_box_size(rs, lam) > BOX_ORACLE_MAX_CANDIDATES:
                continue
            got = [w.coords for w in dominant_weights_below(rs, lam)]
            assert got == _box_weights(rs, lam.coords), (str(st), i)
            checked += 1
    assert checked >= 150


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "G2"])
def test_descent_matches_box_on_small_factor_weights(label):
    # every factor of rank <= 3 that ``bound`` accepts, coordinates 0..3
    rs = _rs(label)
    for lam in product(range(4), repeat=rs.rank):
        got = [w.coords for w in dominant_weights_below(rs, lam)]
        assert got == _box_weights(rs, lam), lam


def test_dominance_box_is_exact_inverse_cartan_image():
    rs = _rs("A2")
    assert dominance_box(rs, (1, 1)) == (1, 1)
    assert dominance_box(rs, (0, 0)) == (0, 0)
    assert dominance_box(rs, (3, 0)) == (2, 1)


# -- the unpruned descent and the row-by-row Weyl product as oracles ------------------


def _unpruned_weights_below(rs, lam):
    """The descent without support pruning: subtract every positive root
    from every weight reached."""
    lam = tuple(lam)
    seen = {lam}
    stack = [lam]
    while stack:
        eta = stack.pop()
        for w in rs.root_weights:
            mu = tuple(map(sub, eta, w))
            if min(mu) >= 0 and mu not in seen:
                seen.add(mu)
                stack.append(mu)
    return sorted(seen)


def _rowwise_weyl_dim(rs, lam):
    """Weyl's formula one coroot row at a time: prod <lam+rho, alpha^vee> /
    prod <rho, alpha^vee>, each pairing summed from the row."""
    num = den = 1
    for row in rs.coroot_rows:
        num *= sum(row) + sum(c * r for c, r in zip(lam, row))
        den *= sum(row)
    assert num % den == 0
    return num // den


def _check_against_oracles(rs, lam):
    got = [w.coords for w in dominant_weights_below(rs, lam)]
    assert got == _unpruned_weights_below(rs, lam), (str(rs.type), lam)
    for eta in got:
        assert weyl_dim(rs, eta) == _rowwise_weyl_dim(rs, eta), (str(rs.type), eta)


def test_walk_and_weyl_match_oracles_on_fundamental_weights():
    # rank 12 and the exceptional types E6-E8, F4 and G2
    for st_ in supported_types(12):
        rs = build_root_system(st_)
        for i in range(1, rs.rank + 1):
            _check_against_oracles(rs, rs.fundamental_weight(i).coords)


_SMALL_TYPES = [st_ for st_ in supported_types(4) if st_.rank <= 4]


def test_walk_and_weyl_match_oracles_at_rho():
    for st_ in _SMALL_TYPES:
        rs = build_root_system(st_)
        _check_against_oracles(rs, (1,) * rs.rank)


@st.composite
def _small_weight(draw):
    rs = build_root_system(draw(st.sampled_from(_SMALL_TYPES)))
    return rs, tuple(draw(st.lists(st.integers(0, 3), min_size=rs.rank, max_size=rs.rank)))


@settings(max_examples=150, deadline=None)
@given(_small_weight())
def test_walk_and_weyl_match_oracles_on_drawn_weights(case):
    _check_against_oracles(*case)


# -- diagram automorphisms ------------------------------------------------------------

# Each automorphism as a permutation of the Bourbaki indices: the A_n
# reversal, the D_n fork swap and the E6 flip (1 <-> 6, 3 <-> 5).
_AUTOMORPHISMS = (
    [(f"A{n}", tuple(reversed(range(n)))) for n in range(2, 9)]
    + [(f"D{n}", tuple(range(n - 2)) + (n - 1, n - 2)) for n in range(4, 9)]
    + [("E6", (5, 1, 4, 3, 2, 0))]
)


@st.composite
def _automorphism_case(draw):
    label, perm = draw(st.sampled_from(_AUTOMORPHISMS))
    lam = draw(st.lists(st.integers(0, 3), min_size=len(perm), max_size=len(perm)))
    return _rs(label), perm, tuple(lam)


@settings(max_examples=150, deadline=None)
@given(_automorphism_case())
def test_weyl_dim_invariant_under_diagram_automorphisms(case):
    rs, perm, lam = case
    assert weyl_dim(rs, tuple(lam[j] for j in perm)) == weyl_dim(rs, lam)


def test_automorphisms_preserve_the_cartan_matrix():
    for label, perm in _AUTOMORPHISMS:
        a = _rs(label).cartan.entries
        assert all(a[perm[i]][perm[j]] == a[i][j] for i in range(len(perm)) for j in range(len(perm)))


# -- section counts ---------------------------------------------------------------


def test_h0_p3_oracle():
    # the compactification for rank-one adjoint type is P^3, so sections of
    # the m-th power of the generator count monomials: C(m+3, 3)
    rs = _rs("A1")
    for m in range(0, 21):
        assert h0_dim(rs, (m,)) == comb(m + 3, 3)
        assert h0_dim(rs, (m,)) == sum((m - 2 * k + 1) ** 2 for k in range(m // 2 + 1))


def test_h0_first_fundamental_of_a_family_is_square():
    for n in range(1, 7):
        rs = build_root_system(SimpleType("A", n))
        omega1 = rs.fundamental_weight(1)
        assert dominant_weights_below(rs, omega1) == [omega1]
        assert h0_dim(rs, omega1) == (n + 1) ** 2


def test_h0_at_least_end_and_equality_iff_singleton():
    for label in ["A1", "A2", "A3", "A4", "B2", "B3", "C2", "C3", "D4", "F4", "G2", "E6", "E7", "E8"]:
        rs = _rs(label)
        for i in range(1, rs.rank + 1):
            lam = rs.fundamental_weight(i)
            h0 = h0_dim(rs, lam)
            end = end_dim(rs, lam)
            assert h0 >= end
            singleton = len(dominant_weights_below(rs, lam)) == 1
            assert (h0 == end) == singleton


def test_h0_zero_weight():
    for label in ["A2", "G2", "E6"]:
        rs = _rs(label)
        assert h0_dim(rs, (0,) * rs.rank) == 1
