"""Word engine: reduction, canonicality, products, orbits, enumeration."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from coxkit.diagram import INF, CoxeterMatrix, coxeter_matrix
from coxkit.words import (BudgetExceeded, Conjugator, Element, IDENTITY,
                          Infinite, NotFoundWithin, ball, braid_class,
                          conjugacy_class, conjugate, conjugate_search,
                          element_order, enumerate_group, format_word,
                          generator, invert, length, multiply, parse_word,
                          reduce, reflections_of, support)
from coxkit.roots import cartan

import oracles

A3 = coxeter_matrix([[1, 3, 2], [3, 1, 3], [2, 3, 1]])
B2 = coxeter_matrix([[1, 4], [4, 1]])
B3 = coxeter_matrix([[1, 3, 2], [3, 1, 4], [2, 4, 1]])
DINF = coxeter_matrix([[1, INF], [INF, 1]])
G66 = coxeter_matrix([[1, 6, 2, 2], [6, 1, 2, 2], [2, 2, 1, 6], [2, 2, 6, 1]])
C2T = coxeter_matrix([[1, 4, 2], [4, 1, 4], [2, 4, 1]])
G2T = coxeter_matrix([[1, 6, 2], [6, 1, 3], [2, 3, 1]])
EV4 = coxeter_matrix([[1, 4, 4, 2], [4, 1, 4, 2], [4, 4, 1, 4], [2, 2, 4, 1]])
PENT = coxeter_matrix([[1, 2, INF, INF, 2], [2, 1, 2, INF, INF], [INF, 2, 1, 2, INF],
                       [INF, INF, 2, 1, 2], [2, INF, INF, 2, 1]])


def rand_word(rng, n, L):
    return tuple(rng.randrange(n) for _ in range(L))


def test_parse_and_format():
    assert parse_word("1 2 1", 3) == (0, 1, 0)
    assert parse_word("e", 2) == ()
    assert parse_word("", 2) == ()
    assert format_word(Element((0, 1))) == "1 2"
    assert format_word(()) == "e"
    with pytest.raises(ValueError):
        parse_word("0 1", 2)
    with pytest.raises(ValueError):
        parse_word("3", 2)


def test_element_basics():
    assert generator(1) == Element((1,))
    assert repr(Element((0, 1))) == "Element(1,2)"
    assert repr(IDENTITY) == "Element(e)"
    assert support(Element((0, 2, 0))) == frozenset([0, 2])
    assert length(A3, (0, 0)) == 0
    assert length(A3, (0, 1, 0, 1)) == 2


def test_reduce_simple_cancellation():
    assert reduce(A3, (0, 0)) == IDENTITY
    assert reduce(A3, (0, 1, 1, 0)) == IDENTITY
    assert reduce(B2, (0, 1, 0, 1, 0, 1, 0, 1)) == IDENTITY


def test_reduce_matches_plain_search_oracle():
    """Component-split reduction equals the naive global braid search."""
    rng = random.Random(11)
    for M in (A3, B2, B3, G66):
        for _ in range(120):
            w = rand_word(rng, M.n, rng.randint(0, 9))
            assert reduce(M, w).letters == oracles.oracle_reduce(M.rows, w)


def test_reduce_infinite_matrices():
    rng = random.Random(12)
    tri = coxeter_matrix([[1, 3, 3], [3, 1, 3], [3, 3, 1]])
    for M in (DINF, tri, C2T, G2T, EV4, PENT):
        for _ in range(80):
            w = rand_word(rng, M.n, rng.randint(0, 8))
            assert reduce(M, w).letters == oracles.oracle_reduce(M.rows, w)


@st.composite
def _matrix_and_word(draw):
    """A rank 2-5 matrix with entries in {2, 3, 4, 6, inf}, or half the
    time with m_12 in {5, 7}, and a word of at most 10 letters."""
    n = draw(st.integers(2, 5))
    rows = [[1] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = draw(st.sampled_from([2, 3, 4, 6, INF]))
    if draw(st.booleans()):
        rows[0][1] = rows[1][0] = draw(st.sampled_from([5, 7]))
    w = draw(st.lists(st.integers(0, n - 1), max_size=10))
    return CoxeterMatrix(tuple(map(tuple, rows))), tuple(w)


@settings(max_examples=300, deadline=None)
@given(_matrix_and_word())
def test_reduce_matches_oracle_on_random_matrices(case):
    """Both sides of the root-action / braid-search selection."""
    M, w = case
    assert reduce(M, w).letters == oracles.oracle_reduce(M.rows, w)


def test_reduce_is_canonical_in_class():
    rng = random.Random(13)
    for _ in range(40):
        w = reduce(B3, rand_word(rng, 3, rng.randint(1, 7)))
        cls = braid_class(B3, w)
        assert w.letters in cls
        assert w.letters == min(cls)


def test_reduce_length_equals_inversions_in_A3():
    """Type A word length is the inversion count of the permutation."""
    gens = oracles.symmetric_gens(3)
    rng = random.Random(14)
    for _ in range(150):
        w = rand_word(rng, 3, rng.randint(0, 10))
        p = oracles.eval_word(gens, w)
        assert length(A3, w) == oracles.inversions(p)


def test_component_split_merge():
    w = reduce(G66, (2, 0, 3, 1, 2, 0))
    assert w.letters == (0, 1, 0, 2, 3, 2)


def test_braid_class_counts():
    assert braid_class(B2, Element((0, 1, 0, 1))) == {(0, 1, 0, 1), (1, 0, 1, 0)}
    with pytest.raises(ValueError):
        braid_class(A3, (0, 0))


def test_multiply_invert_conjugate():
    rng = random.Random(15)
    for M in (A3, B3, DINF):
        for _ in range(60):
            g = reduce(M, rand_word(rng, M.n, rng.randint(0, 6)))
            h = reduce(M, rand_word(rng, M.n, rng.randint(0, 6)))
            assert multiply(M, g, invert(M, g)) == IDENTITY
            assert invert(M, invert(M, g)) == g
            assert multiply(M, multiply(M, g, h), invert(M, h)) == g
            x = reduce(M, rand_word(rng, M.n, rng.randint(0, 4)))
            lhs = conjugate(M, g, x)
            rhs = multiply(M, multiply(M, g, x), invert(M, g))
            assert lhs == rhs


def test_enumerate_group_orders():
    assert len(enumerate_group(A3)) == 24
    assert len(enumerate_group(B2)) == 8
    assert len(enumerate_group(B2, cap=8)) == 8
    assert enumerate_group(B2, cap=7) == Infinite(7)
    res = enumerate_group(DINF, cap=50)
    assert isinstance(res, Infinite)
    assert res.cap == 50


def test_ball_growth():
    sizes = [len(ball(DINF, r)) for r in range(4)]
    assert sizes == [1, 3, 5, 7]
    assert len(ball(B2, 10)) == 8


def test_reflections_of():
    """The longest element of A3 reads off all six reflections."""
    w0 = (0, 1, 0, 2, 1, 0)
    refl = reflections_of(A3, w0)
    assert len(set(refl)) == 6
    assert all(multiply(A3, t, t) == IDENTITY for t in refl)
    assert reflections_of(A3, (0,)) == [Element((0,))]


def test_conjugate_search_roundtrip():
    rng = random.Random(16)
    for _ in range(25):
        x = reduce(B3, rand_word(rng, 3, rng.randint(1, 4)))
        g = reduce(B3, rand_word(rng, 3, rng.randint(0, 4)))
        y = conjugate(B3, g, x)
        hit = conjugate_search(B3, x, y, radius=10)
        assert isinstance(hit, Conjugator)
        assert conjugate(B3, hit.g, x) == y
    s1, s3 = Element((0,)), Element((2,))
    assert conjugate_search(A3, s1, s3, radius=4) == Conjugator(Element((1, 0, 2, 1)))
    assert conjugate_search(A3, s1, s3, radius=3) == NotFoundWithin(3, closed=False,
                                                                    class_size=5)


def test_conjugate_search_closed_class():
    hit = conjugate_search(B2, Element((0,)), Element((1,)), radius=6)
    assert isinstance(hit, NotFoundWithin)
    assert hit.closed
    assert hit.class_size == 2


def test_conjugacy_class_sizes():
    cls = conjugacy_class(A3, Element((0,)), 100)
    assert cls is not None and len(cls) == 6
    assert all(conjugate(A3, g, Element((0,))) == z for z, g in cls.items())
    assert len(conjugacy_class(A3, Element((0,)), 6)) == 6
    assert conjugacy_class(A3, Element((0,)), 5) is None
    assert conjugacy_class(DINF, Element((0,)), 10) is None


def test_element_order():
    assert element_order(A3, IDENTITY) == 1
    assert element_order(A3, Element((0,))) == 2
    assert element_order(A3, Element((0, 1))) == 3
    assert element_order(A3, Element((0, 1, 2))) == 4
    assert element_order(B3, Element((0, 1, 2))) == 6
    assert element_order(DINF, Element((0, 1))) is None


def test_budget_exceeded():
    with pytest.raises(BudgetExceeded):
        reduce(G66, (0, 1) * 40, steps=5)


def test_braid_steps_charge_one_per_new_word():
    """One step per new word of the braid search, which still runs when some
    m_ij is 5: this word needs 5631."""
    rows = ((1, 5, 2), (5, 1, 4), (2, 4, 1))
    w = (2, 1, 0, 1, 2, 0, 1) * 5
    # direct CoxeterMatrix calls give fresh matrices with empty reduce caches
    assert len(reduce(CoxeterMatrix(rows), w, steps=5631)) == 35
    with pytest.raises(BudgetExceeded):
        reduce(CoxeterMatrix(rows), w, steps=5630)


def test_root_steps_charge_one_per_letter():
    """C~2 reduces by the root action, at one step per input letter."""
    rows = ((1, 4, 2), (4, 1, 4), (2, 4, 1))
    w = (2, 1, 0, 1, 2, 0, 1) * 5
    assert cartan(CoxeterMatrix(rows)) is not None
    assert cartan(CoxeterMatrix(((1, 5, 2), (5, 1, 4), (2, 4, 1)))) is None
    assert len(reduce(CoxeterMatrix(rows), w, steps=35)) == 31
    with pytest.raises(BudgetExceeded):
        reduce(CoxeterMatrix(rows), w, steps=34)
