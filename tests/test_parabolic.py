"""Parabolic subgroups: membership, closures, essentiality, intersections."""

import random
from itertools import combinations

import pytest

from coxkit.budgets import SearchBudget
from coxkit.diagram import INF, coxeter_matrix
from coxkit.finite import FiniteGroup
from coxkit.parabolic import (Parabolic, PcBounded, PcExact, conjugated,
                              is_essential, member, normalizer_centralizer,
                              parabolic_contains, parabolic_equal,
                              parabolic_intersection_finite, pc_coxeter_product,
                              pc_element, standard, standard_closure)
from coxkit.words import Element, IDENTITY, conjugate, invert, multiply, reduce

A3 = coxeter_matrix([[1, 3, 2], [3, 1, 3], [2, 3, 1]])
B3 = coxeter_matrix([[1, 3, 2], [3, 1, 4], [2, 4, 1]])
RA = coxeter_matrix([[1, 2, INF], [2, 1, INF], [INF, INF, 1]])
DINF = coxeter_matrix([[1, INF], [INF, 1]])


def rand_elt(rng, M, L):
    return reduce(M, tuple(rng.randrange(M.n) for _ in range(L)))


def parab_elements(M, G, P):
    """The subgroup g W_J g^-1 as a frozenset of indices."""
    g = G.index_of(P.g.letters)
    sub = G.subgroup([G.index_of((s,)) for s in P.J]) if P.J else {0}
    gi = G.inverse(g)
    return frozenset(G.mult(G.mult(g, x), gi) for x in sub)


def test_member_support():
    P = standard(frozenset([0, 1]))
    assert member(A3, P, Element((0, 1, 0)))
    assert not member(A3, P, Element((2,)))
    h = Element((2,))
    Q = conjugated(A3, h, P)
    assert member(A3, Q, conjugate(A3, h, Element((0, 1))))


def test_standard_closure():
    assert standard_closure(A3, Element((0, 2))).J == frozenset([0, 2])
    assert standard_closure(A3, IDENTITY).J == frozenset()


def test_contains_and_equal():
    P = standard(frozenset([0, 1]))
    Q = standard(frozenset([0]))
    assert parabolic_contains(A3, P, Q)
    assert not parabolic_contains(A3, Q, P)
    g = Element((1, 0))
    assert parabolic_equal(A3, conjugated(A3, g, P), conjugated(A3, g, P))
    s2conj = conjugated(A3, Element((1,)), standard(frozenset([0])))
    assert not parabolic_equal(A3, Q, s2conj)


def test_pc_coxeter_product():
    x, res = pc_coxeter_product(B3, (2, 0, 1))
    assert x == reduce(B3, (2, 0, 1))
    assert isinstance(res, PcExact)
    assert res.parabolic.J == frozenset([0, 1, 2])


def test_pc_element_finite_exact():
    res = pc_element(A3, Element((0, 2)))
    assert isinstance(res, PcExact)
    assert parabolic_equal(A3, res.parabolic, standard(frozenset([0, 2])))
    x = reduce(B3, (1, 0, 1, 2, 1))
    assert pc_element(B3, x, SearchBudget(enum_cap=47)) == \
        PcBounded(standard({0, 1, 2}), 0)
    assert pc_element(B3, x, SearchBudget(enum_cap=48)) == \
        PcExact(Parabolic(Element((1,)), frozenset({0, 1, 2})))


def test_pc_element_conjugated():
    g = Element((1,))
    x = conjugate(A3, g, Element((0, 2)))
    res = pc_element(A3, x)
    assert isinstance(res, PcExact)
    want = conjugated(A3, g, standard(frozenset([0, 2])))
    assert parabolic_equal(A3, res.parabolic, want)


def test_pc_element_infinite_cases():
    res = pc_element(RA, Element((0, 1)))
    assert isinstance(res, PcExact)
    assert parabolic_equal(RA, res.parabolic, standard(frozenset([0, 1])))

    res2 = pc_element(DINF, Element((0, 1)))
    assert isinstance(res2, PcExact)
    assert res2.parabolic.J == frozenset([0, 1])

    # the square of a Coxeter element of C~2, found by trying generator orders
    C2T = coxeter_matrix([[1, 4, 2], [4, 1, 4], [2, 4, 1]])
    assert pc_element(C2T, Element((0, 1, 2, 0, 1, 2))) == PcExact(standard({0, 1, 2}))


def test_pc_matches_brute_force_on_B3():
    """Exact closures agree with a scan over all parabolic subgroups."""
    G = FiniteGroup.from_matrix(B3)
    subsets = [frozenset(J) for k in range(4)
               for J in combinations(range(3), k)]
    parabolics = {}
    for J in subsets:
        for g in range(G.size):
            P = Parabolic(Element(G.word(g)), J)
            parabolics.setdefault(parab_elements(B3, G, P), (len(J), P))
    rng = random.Random(5)
    for _ in range(40):
        x = rand_elt(rng, B3, rng.randint(0, 6))
        xi = G.index_of(x.letters)
        best = min((elts for elts in parabolics if xi in elts), key=len)
        res = pc_element(B3, x)
        assert isinstance(res, PcExact)
        assert parab_elements(B3, G, res.parabolic) == best


def test_is_essential():
    verdict, _ = is_essential(A3, Element((0,)))
    assert verdict == "no"
    verdict2, res2 = is_essential(DINF, Element((0, 1)))
    assert verdict2 == "yes"
    assert isinstance(res2, PcExact)
    verdict3, _ = is_essential(B3, Element((0, 1, 2)))
    assert verdict3 == "yes"


def test_normalizer_centralizer():
    norm, cent = normalizer_centralizer(A3, frozenset([0]))
    assert sorted(len(w) for w in norm) == [0, 1, 1, 2]
    assert set(norm) == set(cent)
    with pytest.raises(ValueError):
        normalizer_centralizer(RA, frozenset([0]), SearchBudget(enum_cap=64))
    with pytest.raises(ValueError, match="group exceeds enumeration cap 47"):
        normalizer_centralizer(B3, [0], SearchBudget(enum_cap=47))
    norm, cent = normalizer_centralizer(B3, [0], SearchBudget(enum_cap=48))
    assert len(norm) == len(cent) == 8


def test_normalizer_of_pair():
    norm, cent = normalizer_centralizer(B3, frozenset([0, 1]))
    sub = FiniteGroup.from_matrix(B3)
    for w in norm:
        for s in (0, 1):
            img = conjugate(B3, w, Element((s,)))
            assert member(B3, standard(frozenset([0, 1])), img)
    assert IDENTITY in cent


def test_parabolic_intersection_finite():
    inter, P = parabolic_intersection_finite(
        B3, standard(frozenset([0, 1])), standard(frozenset([1, 2])))
    assert inter == frozenset([IDENTITY, Element((1,))])
    assert parabolic_equal(B3, P, standard(frozenset([1])))

    g = Element((2, 1))
    Q1 = conjugated(B3, g, standard(frozenset([0, 1])))
    inter2, P2 = parabolic_intersection_finite(B3, Q1, Q1)
    assert len(inter2) == 6


def test_parabhered_intersections_are_parabolic():
    """Intersections of random parabolics in B3 land on parabolics again."""
    G = FiniteGroup.from_matrix(B3)
    rng = random.Random(6)
    subsets = [frozenset([0]), frozenset([1]), frozenset([0, 1]),
               frozenset([1, 2]), frozenset([0, 2]), frozenset([0, 1, 2])]
    for _ in range(25):
        P = conjugated(B3, rand_elt(rng, B3, rng.randint(0, 5)),
                       standard(rng.choice(subsets)))
        Q = conjugated(B3, rand_elt(rng, B3, rng.randint(0, 5)),
                       standard(rng.choice(subsets)))
        inter, R = parabolic_intersection_finite(B3, P, Q)
        got = frozenset(G.index_of(x.letters) for x in inter)
        assert parab_elements(B3, G, R) == got
        assert parab_elements(B3, G, P) & parab_elements(B3, G, Q) == got
