"""Finite group models built from the word engine and from actions."""

import random

from coxkit.diagram import coxeter_matrix
from coxkit.finite import FiniteGroup, finite_model
from coxkit.words import Element, reduce

import oracles

A3 = coxeter_matrix([[1, 3, 2], [3, 1, 3], [2, 3, 1]])
B3 = coxeter_matrix([[1, 3, 2], [3, 1, 4], [2, 4, 1]])
I27 = coxeter_matrix([[1, 7], [7, 1]])


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


def test_from_matrix_agrees_with_action():
    """Word-engine enumeration and orbit enumeration list identical words."""
    for M, gens in ((A3, oracles.symmetric_gens(3)),
                    (B3, oracles.signed_gens(3)),
                    (I27, oracles.dihedral_gens(7))):
        G1 = FiniteGroup.from_matrix(M)
        G2 = FiniteGroup.from_action(M.n, PermAction(gens))
        assert G1.size == G2.size
        assert G1.words == G2.words


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
