"""Finite group models built from the coset table and from actions."""

import random

from coxkit.budgets import DEFAULT, SearchBudget
from coxkit.diagram import coxeter_matrix
from coxkit.finite import FiniteGroup, class_search, finite_model
from coxkit.words import Element, conjugate, reduce

import oracles

A3 = coxeter_matrix([[1, 3, 2], [3, 1, 3], [2, 3, 1]])
B3 = coxeter_matrix([[1, 3, 2], [3, 1, 4], [2, 4, 1]])
I27 = coxeter_matrix([[1, 7], [7, 1]])
B4 = coxeter_matrix([[1, 3, 2, 2], [3, 1, 3, 2], [2, 3, 1, 4], [2, 2, 4, 1]])
D4 = coxeter_matrix([[1, 3, 2, 2], [3, 1, 3, 3], [2, 3, 1, 2], [2, 3, 2, 1]])
H3 = coxeter_matrix([[1, 5, 2], [5, 1, 3], [2, 3, 1]])
C2T = coxeter_matrix([[1, 4, 2], [4, 1, 4], [2, 4, 1]])
F4 = coxeter_matrix([[1, 3, 2, 2], [3, 1, 4, 2], [2, 4, 1, 3], [2, 2, 3, 1]])


class PermAction:
    def __init__(self, gens):
        self.gens = gens

    def start(self):
        return tuple(range(len(self.gens[0])))

    def step(self, p, s):
        return oracles.compose(p, self.gens[s])


def test_from_matrix_orders():
    assert FiniteGroup.from_matrix(A3).size == 24
    assert FiniteGroup.from_matrix(B3).size == 48
    assert FiniteGroup.from_matrix(I27).size == 14
    assert FiniteGroup.from_matrix(I27, cap=5) is None
    assert FiniteGroup.from_matrix(I27, cap=14).size == 14
    assert FiniteGroup.from_matrix(I27, cap=13) is None
    assert finite_model(B3, 47) is None
    assert finite_model(B3, 48).size == 48
    assert finite_model(B3, 48) is finite_model(B3, 10 ** 5)
    assert FiniteGroup.from_matrix(C2T) is None


def test_from_matrix_agrees_with_action():
    """Coset-table enumeration and orbit enumeration list identical words."""
    for M, gens in ((A3, oracles.symmetric_gens(3)),
                    (B3, oracles.signed_gens(3)),
                    (I27, oracles.dihedral_gens(7)),
                    (B4, oracles.signed_gens(4)),
                    (D4, oracles.even_signed_gens(4)),
                    (H3, oracles.icosahedral_gens()),
                    (F4, oracles.f4_gens())):
        G1 = FiniteGroup.from_matrix(M)
        G2 = FiniteGroup.from_action(M.n, PermAction(gens))
        assert G1.size == G2.size
        assert G1.words == G2.words
        assert G1.right == G2.right


def test_mult_matches_permutations():
    gens = oracles.signed_gens(3)
    G = FiniteGroup.from_matrix(B3)
    rng = random.Random(3)
    for _ in range(200):
        i = rng.randrange(G.size)
        j = rng.randrange(G.size)
        k = G.mult(i, j)
        pi = oracles.eval_word(gens, G.word(i))
        pj = oracles.eval_word(gens, G.word(j))
        assert oracles.eval_word(gens, G.word(k)) == oracles.compose(pi, pj)


def test_inverse_and_conj():
    G = FiniteGroup.from_matrix(A3)
    rng = random.Random(4)
    for _ in range(100):
        g = rng.randrange(G.size)
        x = rng.randrange(G.size)
        assert G.mult(g, G.inverse(g)) == 0
        z = G.conj(g, x)
        assert G.mult(G.mult(g, x), G.inverse(g)) == z


def test_conjugacy_classes_match_oracle():
    for M, gens in ((A3, oracles.symmetric_gens(3)),
                    (B3, oracles.signed_gens(3))):
        G = FiniteGroup.from_matrix(M)
        elements = oracles.closure(gens)
        oracle = oracles.class_map(elements, gens)
        mine = {}
        for k, cls in enumerate(G.conjugacy_classes()):
            for i in cls:
                mine[i] = k
        assert len(set(mine.values())) == len(set(oracle.values()))
        for i in range(G.size):
            for j in range(G.size):
                pi = oracles.eval_word(gens, G.word(i))
                pj = oracles.eval_word(gens, G.word(j))
                same_mine = mine[i] == mine[j]
                same_oracle = oracle[pi] == oracle[pj]
                assert same_mine == same_oracle
                assert G.are_conjugate(i, j) == same_oracle


def test_words_are_canonical():
    """Stored words are reduced and ShortLex least."""
    G = FiniteGroup.from_matrix(B3)
    for i in range(G.size):
        w = G.word(i)
        assert reduce(B3, w).letters == w


def test_subgroup_closure():
    G = FiniteGroup.from_matrix(B3)
    sub = G.subgroup([G.index_of((0,)), G.index_of((1,))])
    assert len(sub) == 6
    assert len(G.subgroup([G.index_of((s,)) for s in range(3)])) == 48


def test_involutions_and_orders():
    G = FiniteGroup.from_matrix(A3)
    inv = G.involutions()
    assert all(G.mult(i, i) == 0 for i in inv)
    assert len(inv) == 9
    assert G.order_of(G.index_of((0, 1))) == 3
    assert G.order_of(G.index_of((0, 1, 2))) == 4


def test_reflections():
    G = FiniteGroup.from_matrix(A3)
    refl = G.reflections()
    assert len(refl) == 6


def test_class_search_model_and_word_routes_agree():
    """The model's class orbit and the word-engine orbit give the same
    first target, conjugator and class size."""
    G = finite_model(B3, DEFAULT.enum_cap)
    word_route = SearchBudget(enum_cap=1)
    targets = [reduce(B3, w) for w in ((2,), (1,), (1, 0, 2, 1), (2, 1), (0, 2))]
    for x in map(Element, ((0,), (2,), (0, 1), (1, 2), (0, 2))):
        cls = G.conjugacy_class(G.index_of(x.letters))
        first = next((t for t in targets if G.index_of(t.letters) in cls), None)
        status, hit, size = class_search(B3, x, targets, DEFAULT, 0, 0)
        assert status == "closed" and size == len(cls)
        assert (hit and hit[0]) == first
        if hit:
            assert conjugate(B3, hit[1], x) == first
        status2, hit2, size2 = class_search(B3, x, targets, word_route, None, 48)
        assert hit2 == hit
        assert status2 == "found" or size2 == size


def test_class_search_without_targets_never_finds():
    """An empty target list only reports how the class search ended."""
    for M, budget, radius, want in ((B3, DEFAULT, 2, "closed"),
                                    (B3, SearchBudget(enum_cap=1), None, "closed"),
                                    (C2T, DEFAULT, 2, "exhausted")):
        assert class_search(M, Element((0,)), [], budget, radius, 100)[:2] == (want, None)
