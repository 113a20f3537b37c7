"""Retractions of even groups and the conjugacy decision procedure."""

import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import coxkit

from coxkit.budgets import SearchBudget
from coxkit.diagram import INF, coxeter_matrix, submatrix
from coxkit.evenconj import (ClosedClassCertificate, ComponentCertificate,
                             Conjugate, CriterionCertificate, NotConjugate,
                             OrderCertificate, QuotientCertificate, Unknown,
                             decide_conjugacy, decide_conjugacy_even,
                             retr_criterion, retract,
                             retraction_valid, retractions_commute_check,
                             verify_decision)
from coxkit.words import Element, IDENTITY, conjugate, enumerate_group, reduce

from oracles import (closure, compose, dihedral_gens, eval_word,
                     perm_inverse, product_gens)

B2 = coxeter_matrix([[1, 4], [4, 1]])
I26 = coxeter_matrix([[1, 6], [6, 1]])
A3 = coxeter_matrix([[1, 3, 2], [3, 1, 3], [2, 3, 1]])
A4 = coxeter_matrix([[1, 3, 2, 2], [3, 1, 3, 2], [2, 3, 1, 3], [2, 2, 3, 1]])
B2A1 = coxeter_matrix([[1, 4, 2], [4, 1, 2], [2, 2, 1]])
B2T = coxeter_matrix([[1, 4, 2], [4, 1, 4], [2, 4, 1]])
RA = coxeter_matrix([[1, 2, INF], [2, 1, INF], [INF, INF, 1]])
SQ = coxeter_matrix([[1, INF, 2, INF], [INF, 1, INF, 2], [2, INF, 1, INF], [INF, 2, INF, 1]])


def rand_elt(rng, M, L):
    return reduce(M, tuple(rng.randrange(M.n) for _ in range(L)))


def test_retraction_valid():
    assert retraction_valid(B2T, frozenset([0, 1]))
    assert retraction_valid(RA, frozenset([2]))
    assert retraction_valid(B2A1, frozenset([0, 2]))
    assert not retraction_valid(A3, frozenset([0, 1]))
    assert not retraction_valid(A3, frozenset([0, 2]))
    assert retraction_valid(A3, frozenset())
    assert retraction_valid(A3, frozenset([0, 1, 2]))


def test_retract_pins():
    assert retract(B2T, frozenset([0, 1]), (0, 2, 1, 2)) == Element((0, 1))
    assert retract(B2T, frozenset([1]), (0, 1, 0, 1)) == IDENTITY
    assert retract(RA, frozenset([0, 2]), Element((0, 1, 2))) == Element((0, 2))
    with pytest.raises(ValueError):
        retract(A3, frozenset([0, 1]), (0, 1, 2))


def test_retractions_commute():
    subsets = [frozenset(c) for c in
               ([], [0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2])]
    for I in subsets:
        for J in subsets:
            assert retractions_commute_check(B2T, I, J)
            assert retractions_commute_check(RA, I, J)


def _perm_conj_oracle(pgens, sub):
    """Brute-force conjugacy inside the subgroup generated by sub."""
    elems = closure([pgens[i] for i in sorted(sub)]) if sub else None

    def decide(a, b):
        pa = eval_word(pgens, a.letters)
        pb = eval_word(pgens, b.letters)
        if elems is None:
            return pa == pb
        return any(compose(compose(h, pa), perm_inverse(h)) == pb
                   for h in elems)

    return decide


def test_retr_criterion_matches_brute_force():
    """All three-subset combinations on a 16-element even group."""
    pgens = product_gens(dihedral_gens(4), dihedral_gens(2)[:1])
    full = frozenset(range(3))
    ground = _perm_conj_oracle(pgens, full)
    subsets = [frozenset(c) for c in
               ([], [0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2])]
    rng = random.Random(31)
    for I in subsets:
        for J in subsets:
            oI = _perm_conj_oracle(pgens, I)
            oJ = _perm_conj_oracle(pgens, J)
            oIJ = _perm_conj_oracle(pgens, I & J)
            for _ in range(4):
                x = reduce(B2A1, tuple(rng.choice(sorted(I))
                                       for _ in range(rng.randint(0, 5)))) \
                    if I else IDENTITY
                y = reduce(B2A1, tuple(rng.choice(sorted(J))
                                       for _ in range(rng.randint(0, 5)))) \
                    if J else IDENTITY
                got = retr_criterion(B2A1, I, J, x, y, oI, oJ, oIJ)
                assert got == ground(x, y)


def test_retr_criterion_rejects_stray_support():
    oracle = lambda a, b: True
    with pytest.raises(ValueError):
        retr_criterion(B2A1, frozenset([0]), frozenset([1]),
                       Element((1,)), Element((1,)), oracle, oracle, oracle)


def test_decide_even_requires_even():
    with pytest.raises(ValueError):
        decide_conjugacy_even(A3, Element((0,)), Element((1,)))


def test_decide_conjugacy_dispatch():
    """Even matrices take the even procedure; others search, then separate."""
    x, y = Element((0,)), Element((1, 0, 1))
    assert decide_conjugacy(B2T, x, y) == decide_conjugacy_even(B2T, x, y)
    d = decide_conjugacy(A3, (0,), (2,))
    assert isinstance(d, Conjugate)
    assert conjugate(A3, d.g, Element((0,))) == Element((2,))
    d = decide_conjugacy(A3, (0,), (0, 1))
    assert d == NotConjugate(ClosedClassCertificate(6))
    assert verify_decision(A3, (0,), (0, 1), d)
    assert decide_conjugacy(A3, (0, 0, 1), (1,)) == Conjugate(IDENTITY)
    # a finite W within enum_cap is searched whole, whatever the radius
    d = decide_conjugacy(A4, (0,), (3,), SearchBudget(radius=1))
    assert d == Conjugate(Element((2, 1, 0, 3, 2, 1)))
    assert verify_decision(A4, (0,), (3,), d)


def test_decide_even_finite_exhaustive():
    """Agree with the permutation model on every pair, never Unknown."""
    cases = [(B2A1, product_gens(dihedral_gens(4), dihedral_gens(2)[:1])),
             (I26, dihedral_gens(6))]
    for M, pgens in cases:
        ground = _perm_conj_oracle(pgens, frozenset(range(M.n)))
        elems = enumerate_group(M, cap=100)
        for x in elems:
            for y in elems:
                d = decide_conjugacy_even(M, x, y)
                assert not isinstance(d, Unknown)
                assert isinstance(d, Conjugate) == ground(x, y)
                assert verify_decision(M, x, y, d)


def test_order_certificate():
    x = Element((0, 1))
    y = Element((0, 1, 0, 1, 0, 1))
    d = decide_conjugacy_even(I26, x, y)
    assert isinstance(d, NotConjugate)
    assert d.certificate == OrderCertificate(6, 2)
    assert verify_decision(I26, x, y, d)


def test_decide_even_infinite_pins():
    d = decide_conjugacy_even(B2T, Element((0,)), Element((2,)))
    assert isinstance(d, NotConjugate)
    assert isinstance(d.certificate, QuotientCertificate)
    assert verify_decision(B2T, Element((0,)), Element((2,)), d)

    d2 = decide_conjugacy_even(B2T, Element((0,)), Element((1, 0, 1)))
    assert d2 == Conjugate(Element((1,)))
    assert verify_decision(B2T, Element((0,)), Element((1, 0, 1)), d2)

    x3, y3 = Element((0, 1, 0, 1)), Element((1, 2, 1, 2))
    d3 = decide_conjugacy_even(B2T, x3, y3)
    assert isinstance(d3, NotConjugate)
    cert = d3.certificate
    assert isinstance(cert, CriterionCertificate)
    assert isinstance(cert.sub, OrderCertificate)
    assert verify_decision(B2T, x3, y3, d3)


def test_decide_even_on_random_conjugates():
    """Known-conjugate pairs must come back Conjugate with a verified g."""
    rng = random.Random(57)
    for M in (B2T, RA):
        for _ in range(15):
            x = rand_elt(rng, M, rng.randint(1, 4))
            g = rand_elt(rng, M, rng.randint(0, 3))
            y = conjugate(M, g, x)
            d = decide_conjugacy_even(M, x, y)
            assert isinstance(d, Conjugate)
            assert conjugate(M, d.g, x) == y
            assert verify_decision(M, x, y, d)


def test_verify_rejects_wrong_certificates():
    x, y = Element((0,)), Element((2,))
    good = decide_conjugacy_even(B2T, x, y)
    assert not verify_decision(B2T, x, y, Conjugate(Element((1,))))
    assert not verify_decision(B2T, x, y,
                               NotConjugate(OrderCertificate(2, 4)))
    assert verify_decision(B2T, x, y, good)
    assert verify_decision(B2T, x, y, Unknown("gave up"))
    # (0,) is not a component of B2 x A1, whose components are (0, 1) and (2,)
    bad = NotConjugate(ComponentCertificate((0,), OrderCertificate(2, 4)))
    assert not verify_decision(B2A1, Element((1,)), Element((0,)), bad)
    # a and b must move x into W_I and y into W_J: s1 does not commute with
    # s2, so s1 x s1 leaves W_{2,3,4}
    budget = SearchBudget(radius=4, class_cap=256)
    x, y = reduce(SQ, (1, 2, 3, 2, 3)), Element((1,))
    d = decide_conjugacy_even(SQ, x, y, budget)
    cert = d.certificate
    assert (cert.I, cert.J, cert.condition) == ({1, 2, 3}, {1}, 1)
    assert verify_decision(SQ, x, y, d, budget)
    moved = NotConjugate(replace(cert, a=Element((0,))))
    assert not verify_decision(SQ, x, y, moved, budget)
    # Condition 3 never fails first in a decision, since condition 1
    # implies it, so its check gets a certificate built by hand.  In RA,
    # with I = {1, 3} and J = {1, 2}, s1 and s2 retract onto W_{1} as s1
    # and 1, of orders 2 and 1; (1,) is a component of W_{1} but not of
    # W_I, and condition 2's pair has orders 2 and 2, so only condition 3
    # accepts this sub-certificate.
    x, y = Element((0,)), Element((1,))
    sub = ComponentCertificate((0,), OrderCertificate(2, 1))
    cert = CriterionCertificate(frozenset({0, 2}), frozenset({0, 1}), 3,
                                sub, IDENTITY, IDENTITY)
    assert verify_decision(RA, x, y, NotConjugate(cert))
    for wrong in (replace(cert, sub=ComponentCertificate((0,), OrderCertificate(1, 2))),
                  replace(cert, condition=1), replace(cert, condition=2),
                  replace(cert, condition=4)):
        assert not verify_decision(RA, x, y, NotConjugate(wrong))


def test_closed_class_certificate():
    d = decide_conjugacy_even(B2, Element((0,)), Element((1,)))
    assert isinstance(d, NotConjugate)
    assert isinstance(d.certificate,
                      (ClosedClassCertificate, QuotientCertificate))
    assert verify_decision(B2, Element((0,)), Element((1,)), d)


def test_unknown_reasons():
    """Both routes word their own Unknown once search and separation fail."""
    tight = SearchBudget(radius=1)
    x = Element((1,))
    y = conjugate(B2T, Element((0, 1, 0, 2)), x)
    assert decide_conjugacy_even(B2T, x, y, tight) == \
        Unknown("radius 1 and 10 quotients exhausted")
    A2T = coxeter_matrix([[1, 3, 3], [3, 1, 3], [3, 3, 1]])
    y = conjugate(A2T, Element((1, 2)), Element((0,)))
    assert decide_conjugacy(A2T, (0,), y, tight) == \
        Unknown("no conjugator within radius 1 and no separating quotient")


def test_criterion_with_trivial_parabolic():
    """The identity against an infinite-order element: W_I is trivial."""
    x, y = IDENTITY, Element((0, 2, 0, 2))
    for u, v in ((x, y), (y, x)):
        d = decide_conjugacy_even(RA, u, v)
        assert isinstance(d, NotConjugate)
        assert isinstance(d.certificate, CriterionCertificate)
        assert verify_decision(RA, u, v, d)


def test_component_caches_outlive_a_decision():
    """The recursion reuses the parent's component matrix and its reduce cache."""
    M = coxeter_matrix([[1, 4, 2, 2], [4, 1, 4, 2], [2, 4, 1, 2], [2, 2, 2, 1]])
    x, y = reduce(M, (0, 1, 3)), reduce(M, (1, 0, 3))
    assert isinstance(decide_conjugacy_even(M, x, y), Conjugate)
    assert submatrix(M, (0, 1, 2))._cache["reduce"]


def test_conjugator_checks_under_python_O():
    """The conjugator checks do not rely on assert, which python -O strips."""
    src = str(Path(coxkit.__file__).resolve().parent.parent)
    code = ("import coxkit.evenconj as e\n"
            "from coxkit.diagram import coxeter_matrix\n"
            "from coxkit.words import Element, IDENTITY\n"
            "e.class_search = lambda M, x, ts, *rest: ('closed', (ts[0], IDENTITY), 1)\n"
            "B2 = coxeter_matrix([[1, 4], [4, 1]])\n"
            "e.decide_conjugacy_even(B2, Element((0,)), Element((1, 0, 1)))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, env=dict(os.environ, PYTHONPATH=src),
                          timeout=120)
    assert proc.returncode != 0
    assert "AssertionError: conjugator fails g x g^-1 = y" in proc.stderr
