from math import comb

import pytest

from lieapprox.errors import InvalidRank, NotARoot
from lieapprox.repdim import weyl_dim
from lieapprox.rootsys import (
    CENTER_ORDER,
    COXETER_NUMBER,
    DUAL_COXETER_NUMBER,
    DominantWeight,
    Root,
    SimpleType,
    build_root_system,
    comarks,
    coroot_pairing,
    supported_types,
)

SMALL = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "F4", "G2"]


def _rs(label):
    return build_root_system(SimpleType.parse(label))


# -- construction and counting ------------------------------------------------


def test_a1_explicit():
    rs = _rs("A1")
    assert rs.cartan.entries == ((2,),)
    assert [r.coeffs for r in rs.positive_roots] == [(1,)]
    assert rs.highest_root.coeffs == (1,)


def test_a2_explicit():
    rs = _rs("A2")
    assert {r.coeffs for r in rs.positive_roots} == {(1, 0), (0, 1), (1, 1)}
    assert rs.highest_root.coeffs == (1, 1)


@pytest.mark.parametrize("label,count", [("E6", 36), ("E7", 63), ("E8", 120), ("F4", 24), ("G2", 6)])
def test_exceptional_counts(label, count):
    assert _rs(label).num_positive_roots == count


def test_counts_match_coxeter_closed_forms():
    for st in supported_types(12):
        rs = build_root_system(st)
        h = COXETER_NUMBER[st.family](st.rank)
        assert rs.num_positive_roots == st.rank * h // 2
        assert rs.coxeter_number == h
        # 2|Phi+| + rank = rank (h + 1)
        assert 2 * rs.num_positive_roots + st.rank == st.rank * (h + 1)
        assert rs.dim_X == st.rank * (h + 1)


def test_cartan_determinants():
    for st in supported_types(12):
        rs = build_root_system(st)
        assert rs.cartan.determinant() == CENTER_ORDER[st.family](st.rank), st


def test_highest_root_is_dominant_and_unique_maximum():
    for st in supported_types(6):
        rs = build_root_system(st)
        assert all(c >= 0 for c in rs.highest_root_weight.coords)
        top = rs.highest_root.coeffs
        for alpha in rs.positive_roots:
            # theta - alpha is a non-negative vector: theta dominates every root
            assert all(t >= a for t, a in zip(top, alpha.coeffs)), (st, alpha)


# -- brute-force oracle: closure under all simple reflections -----------------


def _reflect(entries, c, i):
    pairing = sum(entries[i][j] * c[j] for j in range(len(c)))
    out = list(c)
    out[i] -= pairing
    return tuple(out)


def _reflection_closure(rs):
    entries = rs.cartan.entries
    rank = rs.rank
    frontier = {tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)}
    seen = set(frontier)
    while frontier:
        nxt = set()
        for c in frontier:
            for i in range(rank):
                image = _reflect(entries, c, i)
                if image not in seen:
                    seen.add(image)
                    nxt.add(image)
        frontier = nxt
    return seen


@pytest.mark.parametrize("label", SMALL)
def test_positive_roots_match_reflection_closure(label):
    rs = _rs(label)
    a_set = {r.coeffs for r in rs.positive_roots}
    expected = a_set | {tuple(-x for x in c) for c in a_set}
    assert _reflection_closure(rs) == expected


# -- pairings and comarks ------------------------------------------------------


@pytest.mark.parametrize("label", SMALL + ["E6", "E7", "E8"])
def test_fundamental_weight_coroot_duality(label):
    rs = _rs(label)
    simple_roots = [Root(tuple(1 if j == i else 0 for j in range(rs.rank))) for i in range(rs.rank)]
    for i in range(1, rs.rank + 1):
        omega = rs.fundamental_weight(i)
        for j, alpha in enumerate(simple_roots, start=1):
            assert coroot_pairing(rs, omega, alpha) == (1 if i == j else 0)


def test_comarks_sum_to_dual_coxeter_number():
    for st in supported_types(12):
        rs = build_root_system(st)
        assert 1 + sum(comarks(rs)) == DUAL_COXETER_NUMBER[st.family](st.rank), st


def test_rho_pairs_with_highest_coroot():
    # <rho, theta^vee> = dual Coxeter number - 1; 29 for E8
    for label, expected in [("E8", 29), ("F4", 8), ("G2", 3), ("A5", 5), ("B4", 6)]:
        rs = _rs(label)
        assert coroot_pairing(rs, rs.rho, rs.highest_root) == expected


def test_known_comark_vectors():
    assert comarks(_rs("A5")) == (1, 1, 1, 1, 1)
    assert comarks(_rs("F4")) == (2, 3, 2, 1)
    assert comarks(_rs("E8")) == (2, 3, 4, 6, 5, 4, 3, 2)
    assert comarks(_rs("B4")) == (1, 2, 2, 1)
    assert comarks(_rs("C4")) == (1, 1, 1, 1)
    assert comarks(_rs("D5")) == (1, 2, 2, 1, 1)
    assert comarks(_rs("G2")) == (1, 2)


def test_coroot_pairing_rejects_non_roots():
    rs = _rs("A2")
    with pytest.raises(NotARoot):
        coroot_pairing(rs, rs.rho, Root((2, 0)))
    with pytest.raises(NotARoot):
        coroot_pairing(rs, rs.rho, Root((-1, 0)))


# -- type validation -----------------------------------------------------------


@pytest.mark.parametrize("label", ["A0", "B1", "C1", "D3", "D2", "E5", "E9", "F5", "G3", "H2"])
def test_invalid_types_rejected(label):
    with pytest.raises(InvalidRank):
        SimpleType.parse(label)


def test_any_rank_is_built():
    rs = build_root_system(SimpleType("A", 40))
    assert rs.num_positive_roots == 40 * 41 // 2
    assert rs.comark_vector == (1,) * 40


def test_negative_weight_coordinates_rejected():
    from lieapprox.errors import NonDominant

    with pytest.raises(NonDominant):
        DominantWeight((1, -1))


# -- oracles for the cached fast paths, every type up to rank 24 ---------------

ORACLE_MAX_RANK = 24


def _oracle_systems():
    return [build_root_system(st) for st in supported_types(ORACLE_MAX_RANK)]


def test_roots_come_simple_first_then_by_height_and_lexicographically():
    for rs in _oracle_systems():
        coeffs = [r.coeffs for r in rs.positive_roots]
        simple = [tuple(1 if j == i else 0 for j in range(rs.rank)) for i in range(rs.rank)]
        assert coeffs[: rs.rank] == simple, rs.type
        rest = coeffs[rs.rank :]
        assert rest == sorted(rest, key=lambda c: (sum(c), c)), rs.type
        assert len(set(coeffs)) == len(coeffs), rs.type
        assert rs.highest_root == rs.positive_roots[-1]


def test_closure_halfnorms_match_quadratic_form():
    for rs in _oracle_systems():
        assert len(rs.root_halfnorms) == rs.num_positive_roots
        for alpha, hn in zip(rs.positive_roots, rs.root_halfnorms):
            assert hn == rs.root_halfnorm(alpha), (rs.type, alpha)


def test_closure_root_weights_match_cartan_product():
    for rs in _oracle_systems():
        assert rs.root_weights == tuple(map(rs.weight_coords, rs.positive_roots)), rs.type


def test_coroot_rows_match_pairing_formula():
    for rs in _oracle_systems():
        assert rs.coroot_rows == tuple(rs.coroot_row(alpha) for alpha in rs.positive_roots), rs.type
        assert rs.comark_vector == rs.coroot_row(rs.highest_root), rs.type


def test_fundamental_dims_match_weyl_dim():
    for rs in _oracle_systems():
        expected = tuple(weyl_dim(rs, rs.fundamental_weight(k)) for k in range(1, rs.rank + 1))
        assert rs.fundamental_dims == expected, rs.type


# -- oracle: closure by alpha_i-strings, against the reflection closure ---------

_ORACLE_KEY_RADIX = 8


def _root_string_closure(entries, symmetrizer):
    """All positive roots by root-string closure, with their weights and half-norms.

    alpha + alpha_i is a root iff the alpha_i-string depth below alpha exceeds
    <alpha, alpha_i^vee>; hn(alpha + alpha_i) = hn(alpha) + d_i (<alpha,
    alpha_i^vee> + 1).  The depth probes run on a radix-8 key whose most
    significant digit is c_1; a probe below zero borrows into a digit 7, which
    no root has.  Same output order as the library: simple roots, then each
    height in ascending lexicographic order.
    """
    rank = len(entries)
    place = [_ORACLE_KEY_RADIX ** (rank - 1 - i) for i in range(rank)]
    columns = [[(j, entries[j][i]) for j in range(rank) if entries[j][i]] for i in range(rank)]
    known = {}
    for i in range(rank):
        coeffs = [0] * rank
        coeffs[i] = 1
        known[place[i]] = (coeffs, [row[i] for row in entries], symmetrizer[i])
    current = list(known)
    out = list(known.values())
    while current:
        nxt = []
        for key in current:
            coeffs, weight, halfnorm = known[key]
            for i in range(rank):
                step = place[i]
                depth = 0
                probe = key - step
                while probe in known:
                    depth += 1
                    probe -= step
                if depth > weight[i]:
                    up = key + step
                    if up not in known:
                        up_coeffs = coeffs.copy()
                        up_coeffs[i] += 1
                        up_weight = weight.copy()
                        for j, a_ji in columns[i]:
                            up_weight[j] += a_ji
                        known[up] = (up_coeffs, up_weight, halfnorm + symmetrizer[i] * (weight[i] + 1))
                        nxt.append(up)
        nxt.sort()
        out.extend(known[key] for key in nxt)
        current = nxt
    return [tuple(c) for c, _, _ in out], [tuple(w) for _, w, _ in out], [hn for _, _, hn in out]


@pytest.mark.parametrize(
    "st",
    supported_types(ORACLE_MAX_RANK) + [SimpleType(family, 40) for family in "ABCD"],
    ids=str,
)
def test_reflection_closure_matches_root_string_closure(st):
    rs = build_root_system(st)
    coeffs, weights, halfnorms = _root_string_closure(rs.cartan.entries, rs.cartan.symmetrizer)
    assert [r.coeffs for r in rs.positive_roots] == coeffs
    assert list(rs.root_weights) == weights
    assert list(rs.root_halfnorms) == halfnorms


# -- sympy's Lie algebra tables ------------------------------------------------


# sympy's A1 cartan_matrix raises IndexError, and sympy refuses C_n for n < 3
# (C2 is B2 with its nodes swapped), so those two types are left out.
_SYMPY_TYPES = [st for st in supported_types(ORACLE_MAX_RANK) if str(st) not in ("A1", "C2")]


@pytest.mark.parametrize("st", _SYMPY_TYPES, ids=str)
def test_cartan_matrix_and_root_count_match_sympy(st):
    cartan_type = pytest.importorskip("sympy.liealgebras.cartan_type").CartanType
    ct = cartan_type(str(st))
    matrix = ct.cartan_matrix()
    rs = build_root_system(st)
    # sympy's entry (i, j) is <alpha_i, alpha_j^vee>, the transpose of ours
    assert rs.cartan.entries == tuple(
        tuple(int(matrix[j, i]) for j in range(st.rank)) for i in range(st.rank)
    )
    assert rs.num_positive_roots == len(ct.positive_roots())


# -- classical closed forms beyond the rank-24 oracles -------------------------


def _classical_fundamental_dims(family, n):
    if family == "A":
        return tuple(comb(n + 1, k) for k in range(1, n + 1))
    if family == "B":
        return tuple(comb(2 * n + 1, k) for k in range(1, n)) + (2**n,)
    if family == "C":
        return tuple(comb(2 * n, k) - (comb(2 * n, k - 2) if k >= 2 else 0) for k in range(1, n + 1))
    return tuple(comb(2 * n, k) for k in range(1, n - 1)) + (2 ** (n - 1),) * 2


def _classical_comarks(family, n):
    if family in "AC":
        return (1,) * n
    if family == "B":
        return (1,) + (2,) * (n - 2) + (1,)
    return (1,) + (2,) * (n - 3) + (1, 1)


@pytest.mark.parametrize("family", "ABCD")
def test_classical_closed_forms_at_ranks_25_to_40(family):
    for n in range(25, 41):
        rs = build_root_system(SimpleType(family, n))
        assert rs.fundamental_dims == _classical_fundamental_dims(family, n), rs.type
        assert rs.comark_vector == _classical_comarks(family, n), rs.type
