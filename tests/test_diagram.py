"""Diagram parsing, classification tables, and the even/442 gates."""

import random

import pytest

from coxkit.diagram import (INF, classify, components, coxeter_matrix,
                            format_matrix, has_442_triangle,
                            has_affine_subdiagram_rank_ge3, is_crystallographic,
                            is_even, is_irreducible, is_right_angled,
                            is_spherical, jperp, parse_matrix, spherical_order,
                            spherical_type, affine_type, submatrix,
                            theorem12_applicable)

A3 = coxeter_matrix([[1, 3, 2], [3, 1, 3], [2, 3, 1]])
B3 = coxeter_matrix([[1, 3, 2], [3, 1, 4], [2, 4, 1]])
B2T = coxeter_matrix([[1, 4, 2], [4, 1, 4], [2, 4, 1]])
RA = coxeter_matrix([[1, 2, INF], [2, 1, INF], [INF, INF, 1]])


def mat(*rows):
    return coxeter_matrix([list(r) for r in rows])


def test_parse_roundtrip():
    text = "3\n1 4 2\n4 1 4\n2 4 1\n"
    M = parse_matrix(text)
    assert M.rows == B2T.rows
    assert parse_matrix(format_matrix(M)).rows == M.rows


def test_parse_inf_entries():
    M = parse_matrix("2\n1 inf\ninf 1")
    assert M.rows[0][1] == INF


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_matrix("")
    with pytest.raises(ValueError):
        parse_matrix("2\n1 3\n3")
    with pytest.raises(ValueError):
        parse_matrix("2\n1 3\n4 1")
    with pytest.raises(ValueError):
        parse_matrix("2\n2 3\n3 1")
    with pytest.raises(ValueError):
        parse_matrix("2\n1 1\n1 1")


def test_spherical_type_table():
    assert spherical_type(A3, range(3)) == "A3"
    assert spherical_type(B3, range(3)) == "B3"
    H3 = mat((1, 5, 2), (5, 1, 3), (2, 3, 1))
    assert spherical_type(H3, range(3)) == "H3"
    F4 = mat((1, 3, 2, 2), (3, 1, 4, 2), (2, 4, 1, 3), (2, 2, 3, 1))
    assert spherical_type(F4, range(4)) == "F4"
    D4 = mat((1, 3, 3, 3), (3, 1, 2, 2), (3, 2, 1, 2), (3, 2, 2, 1))
    assert spherical_type(D4, range(4)) == "D4"
    assert spherical_type(mat((1, 7), (7, 1)), range(2)) == "I2(7)"
    assert spherical_type(B2T, range(3)) is None


def test_affine_type_table():
    assert affine_type(mat((1, INF), (INF, 1)), range(2)) == "A~1"
    assert affine_type(mat((1, 3, 3), (3, 1, 3), (3, 3, 1)), range(3)) == "A~2"
    assert affine_type(B2T, range(3)) == "B~2"
    assert affine_type(mat((1, 6, 2), (6, 1, 3), (2, 3, 1)), range(3)) == "G~2"
    assert affine_type(A3, range(3)) is None


def test_spherical_orders():
    assert spherical_order(A3, frozenset(range(3))) == 24
    assert spherical_order(B3, frozenset(range(3))) == 48
    assert spherical_order(A3, frozenset([0, 2])) == 4
    assert spherical_order(B2T, frozenset(range(3))) is None
    F4 = mat((1, 3, 2, 2), (3, 1, 4, 2), (2, 4, 1, 3), (2, 2, 3, 1))
    assert spherical_order(F4, frozenset(range(4))) == 1152
    H3 = mat((1, 5, 2), (5, 1, 3), (2, 3, 1))
    assert spherical_order(H3, frozenset(range(3))) == 120


def test_components_and_irreducibility():
    M = mat((1, 4, 2, 2), (4, 1, 2, 2), (2, 2, 1, 6), (2, 2, 6, 1))
    assert components(M) == ((0, 1), (2, 3))
    assert not is_irreducible(M, range(4))
    assert is_irreducible(M, (0, 1))
    assert is_irreducible(RA, range(3))


def test_jperp():
    assert jperp(RA, frozenset([0])) == frozenset([1])
    assert jperp(A3, frozenset([0])) == frozenset([2])
    assert jperp(A3, frozenset([1])) == frozenset()


def test_flags():
    assert is_even(B2T) and not is_even(A3)
    assert is_even(RA) and is_right_angled(RA) and not is_right_angled(B2T)
    assert is_crystallographic(B2T) and is_crystallographic(A3)
    assert not is_crystallographic(mat((1, 5), (5, 1)))
    assert not is_crystallographic(mat((1, 8), (8, 1)))


def test_442_flag_and_gate():
    assert has_442_triangle(B2T)
    assert not has_442_triangle(RA)
    assert not theorem12_applicable(B2T)
    assert theorem12_applicable(RA)
    assert not theorem12_applicable(A3)
    even6 = mat((1, 6, 2), (6, 1, 2), (2, 2, 1))
    assert theorem12_applicable(even6)


def test_442_matches_triple_scan():
    """Seeded random matrices against a direct 3-subset scan."""
    rng = random.Random(7)
    choices = [2, 3, 4, 6, INF]
    for _ in range(60):
        n = rng.randint(3, 5)
        rows = [[1] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = rng.choice(choices)
        M = mat(*rows)
        hit = False
        for a in range(n):
            for b in range(a + 1, n):
                for c in range(b + 1, n):
                    labels = sorted([M.rows[a][b], M.rows[a][c], M.rows[b][c]])
                    if labels == [2, 4, 4]:
                        hit = True
        assert has_442_triangle(M) == hit


def test_affine_rank3_flag():
    assert has_affine_subdiagram_rank_ge3(B2T)
    assert not has_affine_subdiagram_rank_ge3(A3)
    four = mat((1, 3, 3, 2), (3, 1, 3, 2), (3, 3, 1, 2), (2, 2, 2, 1))
    assert has_affine_subdiagram_rank_ge3(four)


def test_classify_report():
    c = classify(B2T)
    assert c.components == ((0, 1, 2),)
    assert c.affine_types == ("B~2",)
    assert c.is_affine and not c.is_spherical
    assert c.is_even and c.is_crystallographic and c.has_442_triangle

    prod = mat((1, 6, 2), (6, 1, 2), (2, 2, 1))
    c2 = classify(prod)
    assert c2.components == ((0, 1), (2,))
    assert c2.spherical_types == ("G2", "A1")
    assert c2.is_spherical and not c2.is_affine


def test_submatrix():
    S = submatrix(B3, [0, 2])
    assert S.rows == ((1, 2), (2, 1))
    assert is_spherical(B3, frozenset([1, 2]))
    assert spherical_type(submatrix(B3, [1, 2]), range(2)) == "B2"


def test_submatrix_one_object_per_subset():
    """Sub-matrices are kept per parent, so their own caches outlive a call."""
    M = mat((1, 4, 2), (4, 1, 4), (2, 4, 1))
    assert submatrix(M, [2, 0]) is submatrix(M, (0, 2))
    assert submatrix(M, [2, 0]) is not submatrix(M, [0, 1])
    assert submatrix(M, {0, 2}).rows == ((1, 2), (2, 1))
