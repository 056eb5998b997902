from dataclasses import replace
from math import comb

import pytest

import oracles
from lieapprox.errors import InvalidRank, NotARoot
from lieapprox.repdim import weyl_dim
from lieapprox.rootsys import (
    COXETER_NUMBER,
    DominantWeight,
    SimpleType,
    build_root_system,
    supported_types,
)

SMALL = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "F4", "G2"]


def _rs(label):
    return build_root_system(SimpleType.parse(label))


# -- construction and counting ------------------------------------------------


def test_a1_explicit():
    rs = _rs("A1")
    assert rs.cartan.entries == ((2,),)
    assert rs.positive_roots == ((1,),)


def test_a2_explicit():
    rs = _rs("A2")
    assert set(rs.positive_roots) == {(1, 0), (0, 1), (1, 1)}
    assert rs.positive_roots[-1] == (1, 1)


@pytest.mark.parametrize("label,count", [("E6", 36), ("E7", 63), ("E8", 120), ("F4", 24), ("G2", 6)])
def test_exceptional_counts(label, count):
    assert _rs(label).num_positive_roots == count


def test_counts_match_coxeter_closed_forms():
    for st in supported_types(12):
        rs = build_root_system(st)
        h = COXETER_NUMBER[st.family](st.rank)
        assert rs.num_positive_roots == st.rank * h // 2
        # 2|Phi+| + rank = rank (h + 1)
        assert 2 * rs.num_positive_roots + st.rank == st.rank * (h + 1)
        assert rs.dim_X == st.rank * (h + 1)


# -- the hard-coded Cartan data, every type up to rank 40 ----------------------

CARTAN_MAX_RANK = 40


def test_cartan_data_is_of_finite_type():
    for st in supported_types(CARTAN_MAX_RANK):
        cartan = build_root_system(st).cartan
        assert oracles.cartan_problems(cartan.entries, cartan.symmetrizer) == [], st


def test_cartan_determinants():
    for st in supported_types(CARTAN_MAX_RANK):
        minors = oracles.leading_minors(build_root_system(st).cartan.entries)
        assert len(minors) == st.rank, st
        assert minors[-1] == oracles.CENTER_ORDER[st.family](st.rank), st


@pytest.mark.parametrize(
    "entries,symmetrizer,problem",
    [
        (((2, -1), (-1, 2)), (1,), "inconsistent dimensions"),
        (((2, -1), (-1, 3)), (1, 1), "diagonal entry a[1][1] = 3"),
        (((2, -1), (-1, 2)), (1, 4), "symmetrizer entry d[1] = 4"),
        (((2, 1), (1, 2)), (1, 1), "positive off-diagonal entry a[0][1]"),
        (((2, -1), (0, 2)), (1, 1), "zero pattern not symmetric at (0,1)"),
        (((2, -2), (-1, 2)), (1, 1), "symmetrizer fails at (0,1)"),
        (((2, -2), (-2, 2)), (1, 1), "not positive definite"),
        # the affine A2: leading minors 2, 3, 0
        (((2, -1, -1), (-1, 2, -1), (-1, -1, 2)), (1, 1, 1), "not positive definite"),
    ],
)
def test_cartan_checks_reject_bad_data(entries, symmetrizer, problem):
    assert any(p.startswith(problem) for p in oracles.cartan_problems(entries, symmetrizer))


def test_highest_root_is_dominant_and_unique_maximum():
    for st in supported_types(CARTAN_MAX_RANK):
        rs = build_root_system(st)
        assert all(c >= 0 for c in rs.highest_root_weight.coords)
        top = rs.positive_roots[-1]
        for alpha in rs.positive_roots:
            # theta - alpha is a non-negative vector: theta dominates every root
            assert all(t >= a for t, a in zip(top, alpha)), (st, alpha)


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
    a_set = set(rs.positive_roots)
    expected = a_set | {tuple(-x for x in c) for c in a_set}
    assert _reflection_closure(rs) == expected


# -- pairings and comarks ------------------------------------------------------


@pytest.mark.parametrize("label", SMALL + ["E6", "E7", "E8"])
def test_fundamental_weight_coroot_duality(label):
    # <omega_i, alpha_j^vee> = delta_ij: the simple roots come first, so the
    # first rank coroot rows are the identity
    rs = _rs(label)
    identity = tuple(tuple(1 if j == i else 0 for j in range(rs.rank)) for i in range(rs.rank))
    assert rs.coroot_rows[: rs.rank] == identity


def test_comarks_sum_to_dual_coxeter_number():
    for st in supported_types(12):
        rs = build_root_system(st)
        assert 1 + sum(rs.comark_vector) == oracles.DUAL_COXETER_NUMBER[st.family](st.rank), st


def test_rho_pairs_with_highest_coroot():
    # <rho, theta^vee> = dual Coxeter number - 1; 29 for E8
    for label, expected in [("E8", 29), ("F4", 8), ("G2", 3), ("A5", 5), ("B4", 6)]:
        assert _rs(label).rho_pairings[-1] == expected


def test_known_comark_vectors():
    assert _rs("A5").comark_vector == (1, 1, 1, 1, 1)
    assert _rs("F4").comark_vector == (2, 3, 2, 1)
    assert _rs("E8").comark_vector == (2, 3, 4, 6, 5, 4, 3, 2)
    assert _rs("B4").comark_vector == (1, 2, 2, 1)
    assert _rs("C4").comark_vector == (1, 1, 1, 1)
    assert _rs("D5").comark_vector == (1, 2, 2, 1, 1)
    assert _rs("G2").comark_vector == (1, 2)


def test_coroot_rows_reject_a_non_integral_pairing():
    # (2, 1) is not a root of B2: half-norm 5, and c_1 d_1 = 4 is not a multiple
    rs = _rs("B2")
    bogus = replace(
        rs,
        positive_roots=rs.positive_roots + ((2, 1),),
        root_halfnorms=rs.root_halfnorms + (5,),
        root_weights=rs.root_weights + ((3, -2),),
    )
    with pytest.raises(NotARoot, match=r"\(2, 1\)"):
        bogus.coroot_rows
    with pytest.raises(ValueError):
        oracles.coroot_row(rs.cartan.entries, rs.cartan.symmetrizer, (2, 1))


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
        coeffs = list(rs.positive_roots)
        simple = [tuple(1 if j == i else 0 for j in range(rs.rank)) for i in range(rs.rank)]
        assert coeffs[: rs.rank] == simple, rs.type
        rest = coeffs[rs.rank :]
        assert rest == sorted(rest, key=lambda c: (sum(c), c)), rs.type
        assert len(set(coeffs)) == len(coeffs), rs.type


def test_closure_halfnorms_match_quadratic_form():
    for rs in _oracle_systems():
        a, d = rs.cartan.entries, rs.cartan.symmetrizer
        assert len(rs.root_halfnorms) == rs.num_positive_roots
        for alpha, hn in zip(rs.positive_roots, rs.root_halfnorms):
            assert hn == oracles.root_halfnorm(a, d, alpha), (rs.type, alpha)


def test_closure_root_weights_match_cartan_product():
    for rs in _oracle_systems():
        a = rs.cartan.entries
        assert rs.root_weights == tuple(oracles.weight_coords(a, c) for c in rs.positive_roots), rs.type


def test_coroot_rows_match_pairing_formula():
    for rs in _oracle_systems():
        a, d = rs.cartan.entries, rs.cartan.symmetrizer
        assert rs.coroot_rows == tuple(oracles.coroot_row(a, d, c) for c in rs.positive_roots), rs.type
        assert rs.comark_vector == oracles.coroot_row(a, d, rs.positive_roots[-1]), rs.type


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
    assert list(rs.positive_roots) == coeffs
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
