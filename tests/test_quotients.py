"""Coset enumeration and the finite-quotient separation machinery."""

import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import coxkit
from coxkit.budgets import SearchBudget
from coxkit.diagram import INF, coxeter_matrix
from coxkit.finite import finite_model
from coxkit.quotients import (CapExceeded, FiniteQuotientHom,
                              SeparationNotFound, SeparationWitness,
                              _BitImage, _broken_relator, abelianize_even,
                              composite_hom, perm_hom, retraction_hom,
                              separate, separation_plan, specialize,
                              todd_coxeter)
from coxkit.words import Element, conjugate, invert, multiply, reduce

B2 = coxeter_matrix([[1, 4], [4, 1]])
A3 = coxeter_matrix([[1, 3, 2], [3, 1, 3], [2, 3, 1]])
RA = coxeter_matrix([[1, 2, INF], [2, 1, INF], [INF, INF, 1]])
B2T = coxeter_matrix([[1, 4, 2], [4, 1, 4], [2, 4, 1]])
DINF = coxeter_matrix([[1, INF], [INF, 1]])
SQ = coxeter_matrix([[1, INF, 2, INF], [INF, 1, INF, 2],
                     [2, INF, 1, INF], [INF, 2, INF, 1]])
B2TA1 = coxeter_matrix([[1, 4, 2, 2], [4, 1, 4, 2], [2, 4, 1, 2], [2, 2, 2, 1]])
I4I6 = coxeter_matrix([[1, 4, 2, 2], [4, 1, 2, 2], [2, 2, 1, 6], [2, 2, 6, 1]])
B3 = coxeter_matrix([[1, 3, 2], [3, 1, 4], [2, 4, 1]])


def rand_elt(rng, M, L):
    return reduce(M, tuple(rng.randrange(M.n) for _ in range(L)))


def test_todd_coxeter_indices():
    assert todd_coxeter(B2, [(0,)]).size == 4
    assert todd_coxeter(B2, [(0,), (1,)]).size == 1
    assert todd_coxeter(A3, [(0,), (1,)]).size == 4
    assert todd_coxeter(A3, []).size == 24


def test_todd_coxeter_table_is_an_action():
    table = todd_coxeter(A3, [(0,), (1,)])
    for perm in table.perms:
        assert sorted(perm) == list(range(table.size))
        assert all(perm[perm[c]] == c for c in range(table.size))


def test_todd_coxeter_cap():
    res = todd_coxeter(DINF, [], coset_cap=30)
    assert isinstance(res, CapExceeded)
    assert res.cap == 30


def test_abelianize_even():
    hom = abelianize_even(B2)
    assert hom.image_of(Element((0, 1, 0))) == hom.image_of(Element((1,)))
    assert hom.image_of(Element((0, 1, 0, 1))) == hom.image.identity
    assert hom.separates(Element((0,)), Element((1,)))
    with pytest.raises(ValueError):
        abelianize_even(A3)


def test_specialize():
    I28 = coxeter_matrix([[1, 8], [8, 1]])
    hom = specialize(I28, B2)
    x = Element((0, 1, 0, 1))
    assert hom.image_of(multiply(I28, x, x)) == hom.image.identity
    with pytest.raises(ValueError):
        specialize(I28, A3)
    with pytest.raises(ValueError):
        specialize(I28, coxeter_matrix([[1, 3], [3, 1]]))


def test_retraction_hom():
    assert finite_model(RA, 10 ** 6) is None
    hom = retraction_hom(RA, frozenset([0, 1]))
    assert hom.image_of(Element((2,))) == hom.image.identity
    assert hom.image_of(Element((0, 2, 1))) == hom.image_of(Element((0, 1)))
    with pytest.raises(ValueError):
        retraction_hom(A3, frozenset([0, 1]))


def test_perm_hom():
    hom = perm_hom(A3, [(0,), (1,)], "cosets of W_{1,2}")
    assert hom is not None
    x = Element((0, 1, 2))
    k = hom.image_of(x)
    assert hom.image.mult(k, hom.image.inverse(k)) == hom.image.identity


def test_composite_hom():
    hom = composite_hom(B2T, frozenset([0, 1]), coxeter_matrix([[1, 4], [4, 1]]))
    assert hom.image_of(Element((2,))) == hom.image.identity
    assert hom.image.order == 8


def test_homs_verify_relators():
    """Every planned quotient satisfies all relators by construction."""
    for M in (B2, RA, B2T):
        for hom in separation_plan(M):
            for i in range(M.n):
                for j in range(M.n):
                    m = M.rows[i][j]
                    if m == INF:
                        continue
                    img = hom.image.identity
                    step = hom.image.mult(hom.gen_images[i], hom.gen_images[j])
                    for _ in range(int(m)):
                        img = hom.image.mult(img, step)
                    assert img == hom.image.identity


def test_plan_skips_only_cosets_that_cannot_close():
    """Every proper W_J the plan leaves out has infinite index: its enumeration
    runs past the plan's cap of 1024 cosets."""
    for M in (B2T, RA, SQ, B2TA1, I4I6, B3):
        labels = [h.label for h in separation_plan(M)]
        for r in range(1, M.n):
            for J in combinations(range(M.n), r):
                head = "cosets of W_{%s} " % ",".join(str(s + 1) for s in J)
                if not any(lab.startswith(head) for lab in labels):
                    table = todd_coxeter(M, [(s,) for s in J], 1024)
                    assert isinstance(table, CapExceeded), (M.rows, J)
    assert "cosets of W_{1,2,3} (index 2)" in [h.label for h in separation_plan(B2TA1)]
    assert sum(h.kind == "perm" for h in separation_plan(I4I6)) == 14


def test_broken_relator_reports_the_first_pair():
    assert _broken_relator(B2, [0b01, 0b10], lambda a, b: a ^ b, 0) is None
    bad = [0b01, 0b10, 0]
    three = coxeter_matrix([[1, 2, 3], [2, 1, 2], [3, 2, 1]])
    assert _broken_relator(three, bad, lambda a, b: a ^ b, 0) == (0, 2, 3)
    with pytest.raises(ValueError, match=r"relator \(1,3\)\^3 not killed by bad"):
        FiniteQuotientHom(three, "abelianization", "bad", bad, _BitImage(2))


def test_separate_witnesses():
    res = separate(RA, Element((0,)), Element((2,)))
    assert isinstance(res, SeparationWitness)
    res2 = separate(RA, Element((0, 1)), Element((2,)))
    assert isinstance(res2, SeparationWitness)


def test_separate_is_sound_on_conjugates():
    rng = random.Random(8)
    for M in (B2, RA):
        for _ in range(20):
            x = rand_elt(rng, M, rng.randint(1, 5))
            g = rand_elt(rng, M, rng.randint(0, 4))
            y = conjugate(M, g, x)
            res = separate(M, x, y)
            assert isinstance(res, SeparationNotFound)


def test_separate_transcript():
    transcript = []
    res = separate(B2, Element((0,)), Element((1, 0, 1)), transcript=transcript)
    assert isinstance(res, SeparationNotFound)
    assert res.tried == len(transcript)
    assert all(v in ("agree", "separates", "inconclusive")
               for _, v in transcript)


def test_separation_plan_cached_and_deterministic():
    plan1 = separation_plan(RA)
    plan2 = separation_plan(RA)
    assert plan1 is plan2
    labels = [h.label for h in plan1]
    assert labels[0] == "abelianization (Z/2)^3"
    assert len(labels) == len(set(labels))


def test_witness_images_recheck():
    res = separate(RA, Element((0,)), Element((2,)))
    hom = res.hom
    assert hom.image_of(Element((0,))) == res.x_img
    assert hom.image_of(Element((2,))) == res.y_img
    assert hom.image.are_conjugate(res.x_img, res.y_img) is False


def test_verify_table_checks_under_python_O():
    """_verify_table does not rely on assert, which python -O strips."""
    src = str(Path(coxkit.__file__).resolve().parent.parent)
    code = ("from coxkit.diagram import coxeter_matrix\n"
            "from coxkit.quotients import CosetTable, _verify_table\n"
            "A3 = coxeter_matrix([[1, 3, 2], [3, 1, 3], [2, 3, 1]])\n"
            "_verify_table(A3, CosetTable(2, ((1, 0), (0, 1), (0, 1))), [])\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, env=dict(os.environ, PYTHONPATH=src),
                          timeout=120)
    assert proc.returncode != 0
    assert "AssertionError: relator (1,2) fails at coset 0" in proc.stderr
