"""Whole-package acceptance gates, one test per published criterion.

Each test states a property of the public interfaces and checks it
against an independent oracle: permutation models from the oracles
module, exhaustive enumeration, or brute-force scans at desk scale.
Wall-clock ceilings are asserted where a gate demands one.
"""

import random
import time
from itertools import combinations, permutations, product

import oracles
from coxkit.autcompat import (AutomorphismSpec, CompatYes, GeneratingSetPair,
                              Inner, NotPointwiseSmall, Verified,
                              compat_report, smallwords_inner,
                              verify_automorphism)
from coxkit.diagram import (INF, classify, coxeter_matrix, is_irreducible,
                            is_spherical, jperp, spherical_order)
from coxkit.evenconj import (Conjugate, Unknown, decide_conjugacy_even,
                             retr_criterion, verify_decision)
from coxkit.finite import FiniteGroup
from coxkit.parabolic import (Parabolic, PcExact, parabolic_intersection_finite,
                              pc_coxeter_product, pc_element)
from coxkit.quotients import SeparationNotFound, SeparationWitness, separate
from coxkit.words import (Element, ball, conjugate, enumerate_group, invert,
                          reduce, support)

A3 = coxeter_matrix([[1, 3, 2], [3, 1, 3], [2, 3, 1]])
B3 = coxeter_matrix([[1, 3, 2], [3, 1, 4], [2, 4, 1]])
RA = coxeter_matrix([[1, 2, INF], [2, 1, INF], [INF, INF, 1]])


def dihedral_matrix(m):
    return coxeter_matrix([[1, m], [m, 1]])


def block_rows(parts):
    """Block-diagonal rows for a list of factor row matrices."""
    n = sum(len(p) for p in parts)
    rows = [[2] * n for _ in range(n)]
    at = 0
    for p in parts:
        for i in range(len(p)):
            for j in range(len(p)):
                rows[at + i][at + j] = p[i][j]
        at += len(p)
    return rows


def product_family(ms):
    """Rows and permutation generators for a product of dihedral factors.

    A factor 1 stands for the two-element group on a single letter.
    """
    parts = []
    gens = None
    for m in ms:
        if m == 1:
            rows, g = [[1]], [(1, 0)]
        else:
            rows, g = [[1, m], [m, 1]], oracles.dihedral_gens(m)
        parts.append(rows)
        gens = g if gens is None else oracles.product_gens(gens, g)
    return block_rows(parts), gens


def action_model(M, gens):
    """Finite model from the permutation action, pinned to the closure."""
    G = FiniteGroup.from_action(M.n, oracles.PermAction(gens))
    assert G.size == len(oracles.closure(gens))
    return G


def left_mult(G, s, i):
    """Index of generator s times element i."""
    j = G.index_of((s,))
    for a in G.word(i):
        j = G.right[a][j]
    return j


def parabolic_sets(G, n):
    """Every parabolic subgroup as an index set, with rank and a witness.

    Maps each set P to (rank, g, K) meaning P = g W_K g^-1, keeping the
    smallest |K| among the ways the conjugation search reached P.
    """
    info = {}
    for r in range(n + 1):
        for K in combinations(range(n), r):
            base = frozenset(i for i in range(G.size)
                             if set(G.word(i)) <= set(K))
            seen = {base}
            queue = [(base, 0)]
            while queue:
                P, gi = queue.pop()
                old = info.get(P)
                if old is None or r < old[0]:
                    info[P] = (r, gi, K)
                for s in range(n):
                    Q = frozenset(G.conj_by_gen(s, x) for x in P)
                    if Q not in seen:
                        seen.add(Q)
                        queue.append((Q, left_mult(G, s, gi)))
    return info


def parabolic_set_of(G, P):
    """Index set of g W_J g^-1 in a finite model."""
    gi = G.index_of(P.g.letters)
    return frozenset(G.conj(gi, i) for i in range(G.size)
                     if set(G.word(i)) <= P.J)


def class_ids(G):
    """Conjugacy class labels by generator-conjugation orbits."""
    cls = [-1] * G.size
    k = 0
    for x in range(G.size):
        if cls[x] >= 0:
            continue
        cls[x] = k
        queue = [x]
        while queue:
            z = queue.pop()
            for s in range(G.n):
                z2 = G.conj_by_gen(s, z)
                if cls[z2] < 0:
                    cls[z2] = k
                    queue.append(z2)
        k += 1
    return cls


def canon_rows(rows):
    """Isomorphism-invariant normal form under letter permutations."""
    n = len(rows)
    return min(tuple(tuple(rows[p[i]][p[j]] for j in range(n))
                     for i in range(n))
               for p in permutations(range(n)))


EVEN_SMALL = [(1,), (1, 1), (4,), (6,), (1, 1, 1), (4, 1), (6, 1),
              (1, 1, 1, 1), (4, 1, 1), (6, 1, 1), (4, 4), (4, 6), (6, 6)]


def test_criterion_01_enumeration_orders():
    """enumerate_group agrees with independent permutation closures."""
    cases = [(dihedral_matrix(m), oracles.dihedral_gens(m), 2 * m)
             for m in range(2, 9)]
    cases.append((A3, oracles.symmetric_gens(3), 24))
    cases.append((B3, oracles.signed_gens(3), 48))
    rows, gens = product_family((1, 4))
    cases.append((coxeter_matrix(rows), gens, 16))
    for M, gens, want in cases:
        t0 = time.time()
        elems = enumerate_group(M)
        perms = {oracles.eval_word(gens, e.letters) for e in elems}
        assert len(elems) == want
        assert len(perms) == len(elems)
        assert perms == oracles.closure(gens)
        assert time.time() - t0 < 10.0


def test_criterion_02_retraction_criterion_equivalence():
    """retr_criterion matches brute conjugacy on every small even group.

    The family is every even spherical matrix of rank at most 4 over
    entries 2, 4, 6 up to isomorphism; completeness of the list is
    itself checked by enumerating all such matrices.
    """
    t_suite = time.time()
    found = set()
    for n in range(1, 5):
        idx = list(combinations(range(n), 2))
        for entries in product((2, 4, 6), repeat=len(idx)):
            rows = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
            for (i, j), m in zip(idx, entries):
                rows[i][j] = rows[j][i] = m
            if is_spherical(coxeter_matrix(rows), frozenset(range(n))):
                found.add(canon_rows(rows))
    built = [product_family(ms) for ms in EVEN_SMALL]
    assert found == {canon_rows(rows) for rows, _ in built}
    assert len(found) == 13

    for rows, pgens in built:
        M = coxeter_matrix(rows)
        G = FiniteGroup.from_matrix(M)
        perm = [oracles.eval_word(pgens, G.word(i)) for i in range(G.size)]
        windex = {G.word(i): i for i in range(G.size)}
        subsets = [frozenset(K) for r in range(M.n + 1)
                   for K in combinations(range(M.n), r)]
        pools = {}
        cid = {}
        for K in subsets:
            pool = [i for i in range(G.size) if set(G.word(i)) <= K]
            pools[K] = pool
            if K:
                cm = oracles.class_map({perm[i] for i in pool},
                                       [pgens[s] for s in sorted(K)])
            else:
                cm = {perm[0]: 0}
            cid[K] = {i: cm[perm[i]] for i in pool}

        def oracle(K):
            cm = cid[K]
            return lambda a, b: cm[windex[a.letters]] == cm[windex[b.letters]]

        full = frozenset(range(M.n))
        cfull = cid[full]
        elems = [Element(G.word(i)) for i in range(G.size)]
        for I in subsets:
            for J in subsets:
                oI, oJ, oIJ = oracle(I), oracle(J), oracle(I & J)
                for xi in pools[I]:
                    x = elems[xi]
                    for yi in pools[J]:
                        got = retr_criterion(M, I, J, x, elems[yi],
                                             oI, oJ, oIJ)
                        assert got == (cfull[xi] == cfull[yi])
    assert time.time() - t_suite < 60.0


def test_criterion_03_coxeter_product_minimal_parabolic():
    """Products of distinct generators close in exactly their W_J."""
    cases = [(A3, oracles.symmetric_gens(3)), (B3, oracles.signed_gens(3))]
    cases += [(dihedral_matrix(m), oracles.dihedral_gens(m))
              for m in range(2, 9)]
    for M, gens in cases:
        G = action_model(M, gens)
        info = parabolic_sets(G, M.n)
        sets = sorted(info, key=len)
        for r in range(M.n + 1):
            for J in combinations(range(M.n), r):
                base = frozenset(i for i in range(G.size)
                                 if set(G.word(i)) <= set(J))
                for order in permutations(J):
                    xi = 0
                    for s in order:
                        xi = G.right[s][xi]
                    pc = None
                    for P in sets:
                        if xi in P:
                            pc = P if pc is None else pc & P
                    assert pc == base
                    x, res = pc_coxeter_product(M, order)
                    assert isinstance(res, PcExact)
                    assert res.parabolic.g.letters == ()
                    assert res.parabolic.J == frozenset(J)
                    assert G.index_of(x.letters) == xi


def test_criterion_04_parabolic_rank_bound_and_intersections():
    """Closure rank is at most the reflection count; intersections close.

    The family runs up to the order-1152 group, whose reference model
    comes from the root permutation action.
    """
    rows4, gens4 = product_family((4, 1))
    family = [
        (A3, oracles.symmetric_gens(3)),
        (B3, oracles.signed_gens(3)),
        (coxeter_matrix(block_rows([[[1]], [[1]], [[1]]])),
         oracles.product_gens(oracles.product_gens([(1, 0)], [(1, 0)]),
                              [(1, 0)])),
        (coxeter_matrix(rows4), gens4),
        (coxeter_matrix([[1, 3, 2, 2], [3, 1, 3, 2],
                         [2, 3, 1, 3], [2, 2, 3, 1]]),
         oracles.symmetric_gens(4)),
        (coxeter_matrix([[1, 3, 2, 2], [3, 1, 3, 3],
                         [2, 3, 1, 2], [2, 3, 2, 1]]),
         oracles.even_signed_gens(4)),
        (coxeter_matrix([[1, 5, 2], [5, 1, 3], [2, 3, 1]]),
         oracles.icosahedral_gens()),
        (coxeter_matrix([[1, 3, 2, 2], [3, 1, 3, 2],
                         [2, 3, 1, 4], [2, 2, 4, 1]]),
         oracles.signed_gens(4)),
        (coxeter_matrix([[1, 3, 2, 2], [3, 1, 4, 2],
                         [2, 4, 1, 3], [2, 2, 3, 1]]),
         oracles.f4_gens()),
    ]
    sizes = []
    for M, gens in family:
        n = M.n
        G = action_model(M, gens)
        sizes.append(G.size)
        info = parabolic_sets(G, n)
        sets = sorted(info, key=len)
        for P, (rank, gi, K) in info.items():
            base = frozenset(i for i in range(G.size)
                             if set(G.word(i)) <= set(K))
            assert P == frozenset(G.conj(gi, x) for x in base)

        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                assert sets[i] & sets[j] in info

        refl = G.reflections()
        for k in (1, 2, 3):
            for combo in combinations(refl, k):
                H = frozenset(G.subgroup(list(combo)))
                pc = None
                for P in sets:
                    if len(P) >= len(H) and H <= P:
                        pc = P if pc is None else pc & P
                assert pc in info
                assert info[pc][0] <= k

        for r in refl:
            res = pc_element(M, Element(G.word(r)))
            assert isinstance(res, PcExact)
            got = parabolic_set_of(G, res.parabolic)
            want = None
            for P in sets:
                if r in P:
                    want = P if want is None else want & P
            assert got == want
            assert info[got][0] == len(res.parabolic.J)

        if G.size <= 200:
            rng = random.Random(19 + G.size)
            picks = rng.sample([(P, Q) for P in sets for Q in sets], 12)
            for P, Q in picks:
                rp, rq = info[P], info[Q]
                PP = Parabolic(Element(G.word(rp[1])), frozenset(rp[2]))
                QQ = Parabolic(Element(G.word(rq[1])), frozenset(rq[2]))
                elems, R = parabolic_intersection_finite(M, PP, QQ)
                got = frozenset(G.index_of(e.letters) for e in elems)
                assert got == P & Q
                assert parabolic_set_of(G, R) == P & Q
    assert sizes == [24, 48, 8, 16, 120, 192, 120, 384, 1152]


def test_criterion_05_triangle_flag():
    """classify spots 4-4-2 triangles exactly as a brute subset scan."""
    mats = []
    for n in range(1, 5):
        idx = list(combinations(range(n), 2))
        seen = set()
        for entries in product((2, INF), repeat=len(idx)):
            rows = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
            for (i, j), m in zip(idx, entries):
                rows[i][j] = rows[j][i] = m
            key = canon_rows(rows)
            if key not in seen:
                seen.add(key)
                mats.append(rows)
    assert len(mats) == 18
    mats.append([[1, 4, 2], [4, 1, 4], [2, 4, 1]])
    mats.append(block_rows([[[1, 4, 2], [4, 1, 4], [2, 4, 1]], [[1]]]))
    assert len(mats) == 20
    hits = 0
    for rows in mats:
        M = coxeter_matrix(rows)
        brute = any(sorted([M.entry(i, j), M.entry(i, k), M.entry(j, k)])
                    == [2, 4, 4]
                    for i, j, k in combinations(range(M.n), 3))
        assert classify(M).has_442_triangle == brute
        hits += brute
    assert hits == 2


def test_criterion_06_separation_witnesses_and_soundness():
    """Witnesses split the pinned pairs; conjugate pairs never split."""
    for x, y in ((Element((0,)), Element((2,))),
                 (Element((0, 1)), Element((2,)))):
        w = separate(RA, x, y)
        assert isinstance(w, SeparationWitness)
        assert w.hom.image_of(x) == w.x_img
        assert w.hom.image_of(y) == w.y_img
        assert w.x_img != w.y_img
    rng = random.Random(31)
    for _ in range(100):
        x = reduce(RA, Element(tuple(rng.randrange(3)
                                     for _ in range(rng.randint(1, 5)))))
        if not x.letters:
            x = Element((0,))
        g = Element(tuple(rng.randrange(3)
                          for _ in range(rng.randint(0, 4))))
        y = conjugate(RA, g, x)
        assert isinstance(separate(RA, x, y), SeparationNotFound)


def test_criterion_07_even_decision_completeness():
    """No Unknown over exhaustive pair sweeps of small even groups."""
    for ms in EVEN_SMALL + [(8,), (10,), (12,)]:
        rows, pgens = product_family(ms)
        M = coxeter_matrix(rows)
        G = FiniteGroup.from_matrix(M)
        assert G.size <= 144
        perm = [oracles.eval_word(pgens, G.word(i)) for i in range(G.size)]
        cm = oracles.class_map(set(perm), pgens)
        elems = [Element(G.word(i)) for i in range(G.size)]
        for i in range(G.size):
            for j in range(G.size):
                d = decide_conjugacy_even(M, elems[i], elems[j])
                assert not isinstance(d, Unknown)
                assert isinstance(d, Conjugate) == (cm[perm[i]] == cm[perm[j]])
                assert verify_decision(M, elems[i], elems[j], d)


def test_criterion_08_pointwise_inner_classification():
    """Brute automorphism sweeps agree with the small-words certificates."""
    cases = [(dihedral_matrix(4), 8), (dihedral_matrix(6), 12),
             (A3, 24), (B3, 48)]
    for M, aut_count in cases:
        n = M.n
        G = FiniteGroup.from_matrix(M)
        gens = [G.index_of((s,)) for s in range(n)]
        cls = class_ids(G)
        auts = []
        for images in product(G.involutions(), repeat=n):
            ok = all(G.order_of(G.mult(images[i], images[j]))
                     == M.entry(i, j)
                     for i in range(n) for j in range(i + 1, n))
            if not ok or len(G.subgroup(list(images))) != G.size:
                continue
            pi = [-1] * G.size
            pi[0] = 0
            queue = [0]
            while queue:
                x = queue.pop()
                for s in range(n):
                    y = G.right[s][x]
                    if pi[y] < 0:
                        pi[y] = G.mult(pi[x], images[s])
                        queue.append(y)
            assert len(set(pi)) == G.size
            auts.append((images, pi))
        assert len(auts) == aut_count

        for images, pi in auts:
            sigma = [-1] * G.size
            for x, y in enumerate(pi):
                sigma[y] = x
            spec = AutomorphismSpec(tuple(G.word(i) for i in images),
                                    tuple(G.word(sigma[g]) for g in gens))
            assert isinstance(verify_automorphism(M, spec), Verified)
            preserving = all(cls[pi[x]] == cls[x] for x in range(G.size))
            inner = any(all(pi[g] == G.conj(h, g) for g in gens)
                        for h in range(G.size))
            assert preserving == inner
            res = smallwords_inner(M, spec)
            assert isinstance(res, Inner) == preserving
            if isinstance(res, Inner):
                hi = G.index_of(res.g.letters)
                assert all(pi[g] == G.conj(hi, g) for g in gens)
            else:
                assert isinstance(res, NotPointwiseSmall)
                w = res.word.letters
                assert len(set(w)) == len(w)
                xi = G.index_of(w)
                assert cls[pi[xi]] != cls[xi]


def test_criterion_09_dihedral_generating_sets():
    """Cardinality and angle properties over every generating set found.

    The order-12 dihedral group has Coxeter generating sets of ranks 2
    and 3; the search rediscovers both kinds from scratch.
    """
    M = dihedral_matrix(6)
    G = FiniteGroup.from_matrix(M)
    cls = class_ids(G)
    invs = G.involutions()
    gensets = []
    for r in range(2, len(invs) + 1):
        for T in combinations(invs, r):
            rows = [[1 if i == j else G.order_of(G.mult(T[i], T[j]))
                     for j in range(r)] for i in range(r)]
            D = coxeter_matrix(rows)
            if spherical_order(D, frozenset(range(r))) != 12:
                continue
            if len(G.subgroup(list(T))) != 12:
                continue
            gensets.append(T)
    assert len(gensets) == 12
    assert {len(T) for T in gensets} == {2, 3}
    std = (G.index_of((0,)), G.index_of((1,)))
    assert any(set(T) == set(std) for T in gensets)

    def refl_compat(T1, T2):
        return (all(any(cls[x] == cls[t] for t in T1) for x in T2)
                and all(any(cls[x] == cls[t] for t in T2) for x in T1))

    def rot_hyp(T1, T2):
        for x, y in combinations(T2, 2):
            p = G.mult(x, y)
            if not any(cls[p] == cls[G.mult(a, b)]
                       or cls[p] == cls[G.inverse(G.mult(a, b))]
                       for a, b in combinations(T1, 2)):
                return False
        return True

    def angle_con(T1, T2):
        for x, y in combinations(T2, 2):
            if not any({G.conj(g, x), G.conj(g, y)} == {a, b}
                       for a, b in combinations(T1, 2)
                       for g in range(G.size)):
                return False
        return True

    mismatched = 0
    for T1 in gensets:
        for T2 in gensets:
            if refl_compat(T1, T2):
                assert len(T1) == len(T2)
            if len(T1) != len(T2):
                mismatched += 1
                assert not refl_compat(T1, T2)
            if rot_hyp(T1, T2):
                assert angle_con(T1, T2)
    assert mismatched > 0

    for T2 in gensets:
        pair = GeneratingSetPair(S1=(Element((0,)), Element((1,))),
                                 S2=tuple(Element(G.word(t)) for t in T2))
        rep = compat_report(M, pair)
        assert isinstance(rep.reflection, CompatYes) == refl_compat(std, T2)
        if isinstance(rep.reflection, CompatYes):
            assert isinstance(rep.angle, CompatYes) == angle_con(std, T2)


def test_criterion_10_normalizer_support():
    """Short normalizing words stay inside W_(J union Jperp)."""
    t_suite = time.time()
    mats = [
        [[1, INF], [INF, 1]],
        [[1, 3, 3], [3, 1, 3], [3, 3, 1]],
        [[1, 4, 2], [4, 1, 4], [2, 4, 1]],
        [[1, 6, 2], [6, 1, 3], [2, 3, 1]],
        [[1, 4, 4], [4, 1, 4], [4, 4, 1]],
        [[1, INF, 3], [INF, 1, 2], [3, 2, 1]],
        [[1, INF, INF], [INF, 1, INF], [INF, INF, 1]],
        [[1, 2, INF], [2, 1, INF], [INF, INF, 1]],
        [[1, 3, 2, 3], [3, 1, 3, 2], [2, 3, 1, 3], [3, 2, 3, 1]],
        [[1, INF, 2, 2], [INF, 1, INF, 2], [2, INF, 1, INF],
         [2, 2, INF, 1]],
    ]
    assert len(mats) == 10
    for rows in mats:
        M = coxeter_matrix(rows)
        n = M.n
        full = frozenset(range(n))
        assert is_irreducible(M, full)
        assert not is_spherical(M, full)
        js = [frozenset(J) for r in range(2, n + 1)
              for J in combinations(range(n), r)
              if is_irreducible(M, frozenset(J))
              and not is_spherical(M, frozenset(J))]
        assert js
        B = ball(M, 6)
        for J in js:
            allowed = J | jperp(M, J)
            for w in B:
                wi = invert(M, w)
                ok = True
                for j in J:
                    if not support(conjugate(M, w, Element((j,)))) <= J:
                        ok = False
                        break
                    if not support(conjugate(M, wi, Element((j,)))) <= J:
                        ok = False
                        break
                if ok:
                    assert support(w) <= allowed
    assert time.time() - t_suite < 120.0
