"""Automorphism specs, compatibility reports and the inner-by-graph test."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import coxkit

from coxkit.autcompat import (AutomorphismSpec, CompatNo, CompatReport,
                              CompatUnknown, CompatYes, GeneratingSetPair,
                              Inner, InnerByGraph, Invalid, NotInnerByGraph,
                              NotPointwiseSmall, Undecided, Verified,
                              apply_aut, apply_inv, compat_report,
                              cryst_shortcut, format_spec, identity_spec,
                              inner_by_graph, inner_spec, pair_from_spec,
                              parse_spec, smallwords_inner, standard_pair,
                              verify_automorphism)
from coxkit.budgets import SearchBudget
from coxkit.diagram import INF, coxeter_matrix
from coxkit.words import Element, IDENTITY, conjugate, enumerate_group, reduce

H3 = coxeter_matrix([[1, 5, 2], [5, 1, 3], [2, 3, 1]])
A4 = coxeter_matrix([[1, 3, 2, 2], [3, 1, 3, 2], [2, 3, 1, 3], [2, 2, 3, 1]])
I240 = coxeter_matrix([[1, 40], [40, 1]])

I24 = coxeter_matrix([[1, 4], [4, 1]])
I26 = coxeter_matrix([[1, 6], [6, 1]])
I28 = coxeter_matrix([[1, 8], [8, 1]])
A3 = coxeter_matrix([[1, 3, 2], [3, 1, 3], [2, 3, 1]])
A1A1 = coxeter_matrix([[1, 2], [2, 1]])
DINF = coxeter_matrix([[1, INF], [INF, 1]])
FREE3 = coxeter_matrix([[1, INF, INF], [INF, 1, INF], [INF, INF, 1]])

SWAP = AutomorphismSpec(images=((1,), (0,)), inverses=((1,), (0,)))
PARTIAL = AutomorphismSpec(images=((0,), (1,), (0, 2, 0)),
                           inverses=((0,), (1,), (0, 2, 0)))


def test_parse_format_roundtrip():
    text = format_spec(SWAP)
    assert text == "1 -> 2\n2 -> 1\n\n1 -> 2\n2 -> 1\n"
    assert parse_spec(text, 2) == SWAP
    tri = inner_spec(A3, Element((0, 1)))
    assert parse_spec(format_spec(tri), 3) == tri


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_spec("1 -> 2\n2 -> 1\n\n1 -> 2\n", 2)
    with pytest.raises(ValueError):
        parse_spec("1 -> 2\n1 -> 1\n\n1 -> 2\n2 -> 1\n", 2)
    with pytest.raises(ValueError):
        parse_spec("1 -> 3\n2 -> 1\n\n1 -> 2\n2 -> 1\n", 2)
    with pytest.raises(ValueError):
        parse_spec("1 : 2\n2 -> 1\n\n1 -> 2\n2 -> 1\n", 2)


def test_verify_automorphism():
    assert verify_automorphism(I24, SWAP) == Verified()
    assert verify_automorphism(A3, inner_spec(A3, Element((0, 1, 2)))) == Verified()
    assert verify_automorphism(FREE3, PARTIAL) == Verified()

    bad_invol = AutomorphismSpec(images=((0, 1), (1,)), inverses=((0, 1), (1,)))
    res = verify_automorphism(I26, bad_invol)
    assert isinstance(res, Invalid) and "relator" in res.reason

    squash = AutomorphismSpec(images=((0,), (0,)), inverses=((0,), (0,)))
    res2 = verify_automorphism(I24, squash)
    assert isinstance(res2, Invalid) and "differs" in res2.reason

    shear = AutomorphismSpec(images=((0,), (1, 0, 1)), inverses=((0,), (1, 0, 1)))
    assert isinstance(verify_automorphism(I26, shear), Invalid)


def test_identity_and_inner_spec():
    ident = identity_spec(3)
    assert ident.images == ((0,), (1,), (2,))
    assert verify_automorphism(A3, ident) == Verified()
    sp = inner_spec(A3, Element((0,)))
    for i in range(3):
        want = conjugate(A3, Element((0,)), Element((i,)))
        assert apply_aut(A3, sp, Element((i,))) == want


def test_apply_inverse_roundtrip():
    rng = random.Random(12)
    for M, spec in ((I24, SWAP), (FREE3, PARTIAL),
                    (A3, inner_spec(A3, Element((1, 0))))):
        for _ in range(25):
            w = reduce(M, tuple(rng.randrange(M.n) for _ in range(rng.randint(0, 6))))
            assert apply_inv(M, spec, apply_aut(M, spec, w)) == w


def test_pair_constructors():
    sp = standard_pair(I24, (Element((1,)), Element((0,))))
    assert sp.S1 == (Element((0,)), Element((1,)))
    assert sp.membership1(Element((0,)), [0])
    assert not sp.membership1(Element((0, 1)), [0])
    pp = pair_from_spec(I24, SWAP)
    assert pp.S2 == (Element((1,)), Element((0,)))
    assert pp.membership2(Element((1,)), [0])
    assert not pp.membership2(Element((1,)), [1])


def test_compat_report_input_errors():
    s, t = Element((0,)), Element((1,))
    with pytest.raises(ValueError):
        compat_report(I24, GeneratingSetPair(S1=(s, t), S2=(s, Element((0, 1)))))
    with pytest.raises(ValueError):
        compat_report(I24, GeneratingSetPair(S1=(s, t), S2=(s, Element((1, 0, 1)))))


def test_compat_report_pins():
    rep = compat_report(I24, pair_from_spec(I24, SWAP))
    assert isinstance(rep.reflection, CompatYes)
    assert isinstance(rep.angle, CompatYes)
    assert isinstance(rep.parabolic, CompatYes)

    rep2 = compat_report(FREE3, pair_from_spec(FREE3, PARTIAL))
    assert isinstance(rep2.reflection, CompatYes)
    assert isinstance(rep2.angle, CompatUnknown)
    assert isinstance(rep2.parabolic, CompatUnknown)

    # the exact finite sweep, above the order-64 groups it once stopped at
    rep3 = compat_report(H3, pair_from_spec(H3, inner_spec(H3, Element((0,)))))
    assert isinstance(rep3.parabolic, CompatYes) and len(rep3.parabolic.witnesses) == 14
    flip = AutomorphismSpec(images=((3,), (2,), (1,), (0,)),
                            inverses=((3,), (2,), (1,), (0,)))
    rep4 = compat_report(A4, pair_from_spec(A4, flip))
    assert isinstance(rep4.parabolic, CompatYes) and len(rep4.parabolic.witnesses) == 30

    # order 80 and no membership oracles: still exact through the model
    s, t = Element((0,)), Element((1,))
    pair5 = GeneratingSetPair(S1=(s, t), S2=(s, reduce(I240, (0, 1) * 3 + (0,))))
    rep5 = compat_report(I240, pair5)
    assert isinstance(rep5.parabolic, CompatYes) and len(rep5.parabolic.witnesses) == 6


def test_compat_report_generation_out_of_budget():
    """An unconfirmed generation search is Unknown; a certified proper subgroup raises."""
    C2 = coxeter_matrix([[1, 4, 2], [4, 1, 4], [2, 4, 1]])
    pair = pair_from_spec(C2, inner_spec(C2, Element((1, 0))))
    unknown = CompatUnknown(4)
    assert compat_report(C2, pair, SearchBudget(radius=4)) == \
        CompatReport(unknown, unknown, unknown)
    s = Element((0,))
    with pytest.raises(ValueError, match="proper subgroup of order 2"):
        compat_report(I24, GeneratingSetPair(S1=(s, Element((1,))), S2=(s, s)))


def test_conjugator_checks_under_python_O():
    """The conjugator checks do not rely on assert, which python -O strips."""
    src = str(Path(coxkit.__file__).resolve().parent.parent)
    code = ("import coxkit.autcompat as a\n"
            "from coxkit.diagram import coxeter_matrix\n"
            "from coxkit.words import Element, IDENTITY\n"
            "a._conjugator = lambda *args: IDENTITY\n"
            "C2 = coxeter_matrix([[1, 4, 2], [4, 1, 4], [2, 4, 1]])\n"
            "a.compat_report(C2, a.pair_from_spec(C2, a.inner_spec(C2, Element((1, 0)))))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, env=dict(os.environ, PYTHONPATH=src),
                          timeout=300)
    assert proc.returncode != 0
    assert "AssertionError: conjugation orbit conjugator" in proc.stderr


def test_rank_mismatch_not_reflection_compatible():
    """The order-12 dihedral group has generating sets of ranks 2 and 3."""
    s, t = Element((0,)), Element((1,))
    tst = Element((1, 0, 1))
    z = Element((0, 1, 0, 1, 0, 1))
    rep = compat_report(I26, GeneratingSetPair(S1=(s, t), S2=(s, tst, z)))
    assert rep.reflection == CompatNo((1, t))


def test_angle_compat_automatic_when_crystallographic():
    """Inner pairs in the crystallographic dihedral groups, exhaustively."""
    for m in (2, 3, 4, 6):
        M = coxeter_matrix([[1, m], [m, 1]])
        for g in enumerate_group(M, cap=50):
            spec = inner_spec(M, g)
            rep = compat_report(M, pair_from_spec(M, spec))
            assert isinstance(rep.reflection, CompatYes)
            assert isinstance(rep.angle, CompatYes)
            assert isinstance(cryst_shortcut(M, spec), InnerByGraph)


def test_cryst_shortcut():
    assert cryst_shortcut(I24, SWAP) == InnerByGraph(IDENTITY, (1, 0))
    with pytest.raises(ValueError):
        cryst_shortcut(I28, AutomorphismSpec(images=((1,), (0,)),
                                             inverses=((1,), (0,))))


def test_inner_by_graph_pins():
    assert inner_by_graph(I24, SWAP) == InnerByGraph(IDENTITY, (1, 0))

    v = inner_by_graph(A3, inner_spec(A3, Element((0,))))
    assert v == InnerByGraph(Element((0,)), (0, 1, 2))

    flip = AutomorphismSpec(images=((2,), (1,), (0,)),
                            inverses=((2,), (1,), (0,)))
    assert inner_by_graph(A3, flip) == InnerByGraph(IDENTITY, (2, 1, 0))

    d = inner_by_graph(DINF, inner_spec(DINF, Element((0,))))
    assert d == InnerByGraph(Element((0,)), (0, 1))

    klein = AutomorphismSpec(images=((0,), (0, 1)), inverses=((0,), (0, 1)))
    k = inner_by_graph(A1A1, klein)
    assert k == NotInnerByGraph(condition=2, detail=((0, 1), 2))

    assert isinstance(inner_by_graph(FREE3, PARTIAL), Undecided)


def test_inner_by_graph_witness_equation():
    """w must conjugate every image back to the permuted generator."""
    cases = [(I24, SWAP), (A3, inner_spec(A3, Element((0,)))),
             (A3, inner_spec(A3, Element((1, 2)))),
             (DINF, inner_spec(DINF, Element((0,))))]
    for M, spec in cases:
        v = inner_by_graph(M, spec)
        assert isinstance(v, InnerByGraph)
        for i in range(M.n):
            moved = conjugate(M, v.w, apply_aut(M, spec, Element((i,))))
            assert moved == Element((v.perm[i],))
        assert sorted(v.perm) == list(range(M.n))
        for i in range(M.n):
            for j in range(M.n):
                assert M.rows[i][j] == M.rows[v.perm[i]][v.perm[j]]


def test_smallwords_pins():
    res = smallwords_inner(I24, SWAP)
    assert res == NotPointwiseSmall(word=Element((0,)),
                                    detail="image not conjugate to the word")

    res2 = smallwords_inner(A3, inner_spec(A3, Element((0,))))
    assert res2 == Inner(Element((0,)))

    res3 = smallwords_inner(FREE3, PARTIAL)
    assert res3 == NotPointwiseSmall(word=Element((1, 2)),
                                     detail="image not conjugate to the word")


def test_smallwords_rank_cap():
    A17 = coxeter_matrix([[1 if i == j else 2 for j in range(7)]
                          for i in range(7)])
    with pytest.raises(ValueError):
        smallwords_inner(A17, identity_spec(7))


def test_smallwords_inner_witness_conjugates_all_images():
    rng = random.Random(44)
    for M in (A3, I26):
        for _ in range(6):
            g = reduce(M, tuple(rng.randrange(M.n) for _ in range(rng.randint(0, 4))))
            res = smallwords_inner(M, inner_spec(M, g))
            assert isinstance(res, Inner)
            for i in range(M.n):
                assert conjugate(M, res.g, Element((i,))) == \
                    conjugate(M, g, Element((i,)))
