"""Automorphism auditing: compatibility relations and inner-by-graph tests.

An automorphism is given by generator images together with the images of
an inverse, since surjectivity cannot be confirmed by bounded search in an
infinite group.  Compatibility of two Coxeter generating sets is checked
symmetrically; the relations are equivalence relations, so a certified
failure in either direction is a certified No.  Finite groups are swept
exactly; infinite groups get bounded searches whose No answers only come
from closed conjugation orbits, quotient separation, or the fact that two
conjugate irreducible non-spherical standard parabolics must be equal.
"""

from dataclasses import dataclass
from itertools import combinations, permutations

from .budgets import DEFAULT
from .diagram import INF, is_crystallographic, is_irreducible, is_spherical
from .finite import finite_model
from .quotients import SeparationWitness, separate
from .words import (Element, IDENTITY, _conj_orbit, _conjugator, _generators,
                    _orbit, _path_moves, _right_orbit, conjugate, element_order,
                    invert, multiply, parse_word, format_word, reduce, support)


@dataclass(frozen=True)
class AutomorphismSpec:
    """Generator images of an automorphism and of its inverse."""

    images: tuple
    inverses: tuple


def parse_spec(text, n):
    """Read n lines 'i -> word', a blank line, then n inverse lines."""
    lines = [ln.strip() for ln in text.splitlines()]
    rows = [ln for ln in lines if ln]
    if len(rows) != 2 * n:
        raise ValueError("expected %d image lines, got %d" % (2 * n, len(rows)))

    def read(ln):
        if "->" not in ln:
            raise ValueError("missing '->' in %r" % ln)
        left, right = ln.split("->", 1)
        i = int(left.strip())
        if not 1 <= i <= n:
            raise ValueError("generator index %d out of range" % i)
        return i - 1, parse_word(right, n)

    images = [None] * n
    inverses = [None] * n
    for k, ln in enumerate(rows):
        i, w = read(ln)
        block = images if k < n else inverses
        if block[i] is not None:
            raise ValueError("duplicate line for generator %d" % (i + 1))
        block[i] = w
    return AutomorphismSpec(tuple(images), tuple(inverses))


def format_spec(spec):
    n = len(spec.images)
    out = ["%d -> %s" % (i + 1, format_word(spec.images[i])) for i in range(n)]
    out.append("")
    out += ["%d -> %s" % (i + 1, format_word(spec.inverses[i])) for i in range(n)]
    return "\n".join(out) + "\n"


@dataclass(frozen=True)
class Verified:
    pass


@dataclass(frozen=True)
class Invalid:
    reason: str


def _apply(M, table, w, steps):
    if isinstance(w, Element):
        w = w.letters
    out = []
    for a in w:
        out.extend(table[a])
    return reduce(M, tuple(out), steps)


def apply_aut(M, spec, w, steps=DEFAULT.steps):
    return _apply(M, spec.images, w, steps)


def apply_inv(M, spec, w, steps=DEFAULT.steps):
    return _apply(M, spec.inverses, w, steps)


def verify_automorphism(M, spec, steps=DEFAULT.steps):
    """Check relation preservation and the two-sided inverse exactly."""
    n = M.n
    if len(spec.images) != n or len(spec.inverses) != n:
        return Invalid("expected %d images and %d inverse images" % (n, n))
    imgs = [reduce(M, w, steps) for w in spec.images]
    for i in range(n):
        for j in range(i, n):
            m = M.rows[i][j]
            if m == INF:
                continue
            step = multiply(M, imgs[i], imgs[j], steps)
            acc = IDENTITY
            for _ in range(int(m)):
                acc = multiply(M, acc, step, steps)
            if acc != IDENTITY:
                return Invalid("relator (%d,%d)^%s not preserved" % (i + 1, j + 1, m))
    for i in range(n):
        if apply_aut(M, spec, spec.inverses[i], steps) != Element((i,)):
            return Invalid("alpha(alpha^-1(s%d)) differs from s%d" % (i + 1, i + 1))
        if apply_inv(M, spec, spec.images[i], steps) != Element((i,)):
            return Invalid("alpha^-1(alpha(s%d)) differs from s%d" % (i + 1, i + 1))
    return Verified()


def identity_spec(n):
    gens = tuple((i,) for i in range(n))
    return AutomorphismSpec(gens, gens)


def inner_spec(M, g, steps=DEFAULT.steps):
    """The spec of conjugation by g."""
    gi = invert(M, g, steps)
    images = tuple(conjugate(M, g, Element((i,)), steps).letters for i in range(M.n))
    inverses = tuple(conjugate(M, gi, Element((i,)), steps).letters for i in range(M.n))
    return AutomorphismSpec(images, inverses)


@dataclass(frozen=True)
class GeneratingSetPair:
    """Two Coxeter generating sets; S1 defaults to the standard one.

    membership1/membership2 are optional exact membership oracles: given
    an element and a set of positions into S1 or S2, decide membership in
    the subgroup those entries generate.  The standard set always has the
    support oracle; a pair built from an automorphism inherits one for
    the image side through the inverse.
    """

    S1: tuple
    S2: tuple
    membership1: object = None
    membership2: object = None


def _standard_membership(w, positions):
    return support(w) <= frozenset(positions)


def standard_pair(M, S2, membership2=None):
    S1 = tuple(Element((i,)) for i in range(M.n))
    return GeneratingSetPair(S1, S2, _standard_membership, membership2)


def pair_from_spec(M, spec, steps=DEFAULT.steps):
    S2 = tuple(reduce(M, w, steps) for w in spec.images)

    def member2(w, positions):
        return support(apply_inv(M, spec, w, steps)) <= frozenset(positions)

    return standard_pair(M, S2, member2)


@dataclass(frozen=True)
class CompatYes:
    witnesses: tuple


@dataclass(frozen=True)
class CompatNo:
    counterexample: object


@dataclass(frozen=True)
class CompatUnknown:
    radius: int


@dataclass(frozen=True)
class CompatReport:
    reflection: object
    angle: object
    parabolic: object


def _conj_to_any(M, x, targets, budget):
    """Try to conjugate x onto one of the targets.

    Returns (target, g) with g x g^-1 = target, False when certified
    impossible for them all, or None when undecided.
    """
    targets = [reduce(M, t, budget.steps) for t in targets]
    x = reduce(M, x, budget.steps)
    G = finite_model(M, budget.enum_cap)
    if G is not None:
        parent = G.class_orbit(G.index_of(x.letters))
        for t in targets:
            ti = G.index_of(t.letters)
            if ti in parent:
                g = reduce(M, tuple(_path_moves(parent, ti)), budget.steps)
                assert conjugate(M, g, x, budget.steps) == t
                return t, g
        return False
    status, parent = _conj_orbit(M, x, radius=budget.radius, cap=budget.class_cap,
                                 steps=budget.steps)
    for t in targets:
        if t in parent:
            g = _conjugator(M, parent, t, budget.steps)
            assert conjugate(M, g, x, budget.steps) == t
            return t, g
    if status == "closed":
        return False
    for t in targets:
        if not isinstance(separate(M, x, t, budget=budget), SeparationWitness):
            return None
    return False


def _reflection_compat(M, pair, budget):
    wits = []
    for side, (src, dst) in ((1, (pair.S1, pair.S2)), (2, (pair.S2, pair.S1))):
        for x in src:
            hit = _conj_to_any(M, x, dst, budget)
            if hit is None:
                return CompatUnknown(budget.radius)
            if hit is False:
                return CompatNo((side, x))
            v, g = hit
            wits.append((side, x, v, g))
    return CompatYes(tuple(wits))


def _pair_order(M, s, t, budget):
    """Order of st, reading the matrix when both are plain generators."""
    if len(s.letters) == 1 and len(t.letters) == 1:
        m = M.rows[s.letters[0]][t.letters[0]]
        return None if m == INF else int(m)
    o = element_order(M, multiply(M, s, t, budget.steps),
                      budget.order_cap, budget.steps)
    return o


def _pair_conj_search(M, s, t, dstset, budget):
    """Simultaneous conjugation of (s, t) into the destination set.

    Returns (w, 'found'), (None, 'closed') or (None, 'exhausted').
    """
    def step(pair, g):
        return (conjugate(M, g, pair[0], budget.steps),
                conjugate(M, g, pair[1], budget.steps))

    status, parent = _orbit((s, t), _generators(M), step,
                            budget.radius, budget.class_cap,
                            lambda pair: pair[0] in dstset and pair[1] in dstset)
    if status != "found":
        return None, status
    return _conjugator(M, parent, next(reversed(parent)), budget.steps), status


def _angle_compat(M, pair, budget):
    wits = []
    undecided = False
    for side, (src, dst) in ((1, (pair.S1, pair.S2)), (2, (pair.S2, pair.S1))):
        dstset = frozenset(reduce(M, v, budget.steps) for v in dst)
        for i in range(len(src)):
            for j in range(i + 1, len(src)):
                s, t = src[i], src[j]
                o = _pair_order(M, s, t, budget)
                if o is None:
                    if len(s.letters) > 1 or len(t.letters) > 1:
                        undecided = True
                    continue
                w, status = _pair_conj_search(M, s, t, dstset, budget)
                if status == "found":
                    u, v = conjugate(M, w, s, budget.steps), conjugate(M, w, t, budget.steps)
                    assert u in dstset and v in dstset
                    wits.append((side, (s, t), (u, v), w))
                elif status == "closed":
                    return CompatNo((side, (s, t)))
                else:
                    undecided = True
    if undecided:
        return CompatUnknown(budget.radius)
    return CompatYes(tuple(wits))


def _ball_capped(M, radius, cap, steps):
    """The first cap elements of the ball of that radius, in ShortLex order."""
    return list(_right_orbit(M, _generators(M), radius, cap - 1, steps)[1])


def _conjugator_domain(M, budget):
    """Candidate conjugators: the whole group when finite, else a ball.

    Returns (elements, exhaustive).
    """
    G = finite_model(M, budget.enum_cap)
    if G is not None:
        key = ("conj_domain", "full")
        if key not in M._cache:
            M._cache[key] = [Element(G.word(i)) for i in range(G.size)]
        return M._cache[key], True
    key = ("conj_domain", budget.radius, budget.enum_cap)
    if key not in M._cache:
        M._cache[key] = _ball_capped(M, budget.radius, budget.enum_cap,
                                     budget.steps)
    return M._cache[key], False


def _standardize(M, gens, budget):
    """Try to exhibit the subgroup as a conjugated standard parabolic.

    Looks for h with every h v h^-1 a plain generator; returns (h, L) or
    None.
    """
    for h in _ball_capped(M, min(budget.radius, 4), 512, budget.steps):
        L = set()
        ok = True
        for v in gens:
            u = conjugate(M, h, v, budget.steps)
            if len(u.letters) != 1:
                ok = False
                break
            L.add(u.letters[0])
        if ok and len(L) == len(gens):
            return h, frozenset(L)
    return None


def _subgroups_conjugate(M, src_gens, src_member, src_pos,
                         dst_gens, dst_member, dst_pos, budget):
    """Conjugacy of two finitely generated reflection subgroups.

    Returns (True, g), (False, reason) or None.  Witnesses are exact when
    both membership oracles exist; certified No needs both subgroups to be
    conjugated standard parabolics that are irreducible and non-spherical,
    where conjugate implies equal, or a rank-one quotient separation.
    """
    if len(src_gens) == 0:
        return (True, IDENTITY) if len(dst_gens) == 0 else (False, "rank zero")
    if len(src_gens) == 1 and len(dst_gens) == 1:
        hit = _conj_to_any(M, src_gens[0], [dst_gens[0]], budget)
        if hit is False:
            return False, "generators lie in different conjugacy classes"
        if hit is not None:
            return True, hit[1]
        return None
    std_src = _standardize(M, src_gens, budget)
    std_dst = _standardize(M, dst_gens, budget)
    if std_src is not None and std_dst is not None:
        h1, L1 = std_src
        h2, L2 = std_dst
        if L1 == L2:
            g = multiply(M, invert(M, h2, budget.steps), h1, budget.steps)
            return True, g
        if (is_irreducible(M, L1) and not is_spherical(M, L1)
                and is_irreducible(M, L2) and not is_spherical(M, L2)):
            return False, ("standard forms %s and %s differ"
                           % (sorted(a + 1 for a in L1), sorted(a + 1 for a in L2)))
    if src_member is not None and dst_member is not None:
        domain, exhaustive = _conjugator_domain(M, budget)
        for g in domain:
            gi = invert(M, g, budget.steps)
            if all(dst_member(conjugate(M, g, s, budget.steps), dst_pos)
                   for s in src_gens) and \
               all(src_member(conjugate(M, gi, v, budget.steps), src_pos)
                   for v in dst_gens):
                return True, g
        if exhaustive:
            return False, "no conjugator in the full group"
    return None


def _candidate_subsets(n, r):
    """All nonempty subsets of range(n), those of size r first.

    A conjugate parabolic need not have a generating set of the same
    cardinality, so every size is a candidate; likeliest first.
    """
    subs = [tuple(c) for k in range(1, n + 1) for c in combinations(range(n), k)]
    return sorted(subs, key=lambda c: (abs(len(c) - r), len(c), c))


def _parabolic_compat(M, pair, budget):
    n = M.n
    if n > 6:
        return CompatUnknown(budget.radius)
    G = finite_model(M, budget.enum_cap)
    if G is not None and G.size <= 64:
        return _parabolic_compat_finite(M, G, pair, budget)
    wits = []
    undecided = False
    sides = ((1, pair.S1, pair.membership1, pair.S2, pair.membership2),
             (2, pair.S2, pair.membership2, pair.S1, pair.membership1))
    for side, src, src_member, dst, dst_member in sides:
        subsets = [tuple(c) for r in range(1, len(src) + 1)
                   for c in combinations(range(len(src)), r)]
        for positions in subsets:
            src_pos = frozenset(positions)
            src_gens = [src[i] for i in positions]
            found = None
            all_no = True
            for cand in _candidate_subsets(len(dst), len(positions)):
                dst_pos = frozenset(cand)
                dst_gens = [dst[i] for i in cand]
                res = _subgroups_conjugate(M, src_gens, src_member, src_pos,
                                           dst_gens, dst_member, dst_pos, budget)
                if res is None:
                    all_no = False
                elif res[0] is True:
                    found = (side, positions, tuple(cand), res[1])
                    break

            if found is not None:
                wits.append(found)
            elif all_no:
                return CompatNo((side, positions))
            else:
                undecided = True
    if undecided:
        return CompatUnknown(budget.radius)
    return CompatYes(tuple(wits))


def _parabolic_compat_finite(M, G, pair, budget):
    """Exact subset sweep through the finite model."""
    def closure(gens):
        return G.subgroup([G.index_of(g.letters) for g in gens])

    def conj_set(g, A):
        return frozenset(G.conj(g, a) for a in A)

    wits = []
    for side, (src, dst) in ((1, (pair.S1, pair.S2)), (2, (pair.S2, pair.S1))):
        for positions in [tuple(c) for r in range(1, len(src) + 1)
                          for c in combinations(range(len(src)), r)]:
            A = closure([src[i] for i in positions])
            found = None
            for cand in _candidate_subsets(len(dst), len(positions)):
                B = closure([dst[i] for i in cand])
                if len(A) != len(B):
                    continue
                for g in range(G.size):
                    if conj_set(g, A) == B:
                        found = (side, positions, tuple(cand),
                                 Element(G.word(g)))
                        break
                if found:
                    break
            if found is None:
                return CompatNo((side, positions))
            wits.append(found)
    return CompatYes(tuple(wits))


def compat_report(M, pair, budget=DEFAULT, check_generation=True):
    """Reflection-, angle- and parabolic-compatibility of the two sets;
    all three Unknown when S2 is not seen to generate W within budget."""
    for name, S in (("S1", pair.S1), ("S2", pair.S2)):
        for x in S:
            x = reduce(M, x, budget.steps)
            if x == IDENTITY or multiply(M, x, x, budget.steps) != IDENTITY:
                raise ValueError("%s contains a non-involution %s"
                                 % (name, format_word(x)))
    if check_generation and not _check_generation(M, pair.S2, budget):
        unknown = CompatUnknown(budget.radius)
        return CompatReport(unknown, unknown, unknown)
    return CompatReport(reflection=_reflection_compat(M, pair, budget),
                        angle=_angle_compat(M, pair, budget),
                        parabolic=_parabolic_compat(M, pair, budget))


def _check_generation(M, S2, budget):
    """Whether S2 is seen to generate W within budget; a proper subgroup raises."""
    G = finite_model(M, budget.enum_cap)
    if G is not None:
        sub = G.subgroup([G.index_of(x.letters) for x in S2])
        if len(sub) != G.size:
            raise ValueError("S2 generates a proper subgroup of order %d" % len(sub))
        return True
    want = {Element((i,)) for i in range(M.n)}

    def all_seen(z):
        want.discard(z)
        return not want

    S2 = [reduce(M, x, budget.steps) for x in S2]
    status, _ = _right_orbit(M, S2, budget.radius, budget.enum_cap, budget.steps,
                             all_seen)
    return status == "found"


@dataclass(frozen=True)
class InnerByGraph:
    """w conjugates the image set back onto S; perm is the residue."""

    w: Element
    perm: tuple


@dataclass(frozen=True)
class NotInnerByGraph:
    condition: int
    detail: object


@dataclass(frozen=True)
class Inner:
    g: Element


@dataclass(frozen=True)
class NotPointwiseSmall:
    word: Element
    detail: object


@dataclass(frozen=True)
class Undecided:
    reason: str


def _require_verified(M, spec):
    v = verify_automorphism(M, spec)
    if isinstance(v, Invalid):
        raise ValueError("automorphism spec invalid: %s" % v.reason)


def _rotation_condition(M, spec, budget):
    """Condition (2): each finite-order st maps to a conjugate of some s't'."""
    n = M.n
    wits = []
    undecided = False
    for i in range(n):
        for j in range(i + 1, n):
            m = M.rows[i][j]
            if m == INF:
                continue
            z = apply_aut(M, spec, (i, j), budget.steps)
            targets = [reduce(M, (a, b), budget.steps)
                       for a in range(n) for b in range(n)
                       if a != b and M.rows[a][b] == m]
            hit = _conj_to_any(M, z, targets, budget)
            if hit is None:
                undecided = True
            elif hit is False:
                return CompatNo(((i, j), m))
            else:
                wits.append(((i, j), hit[0], hit[1]))
    if undecided:
        return CompatUnknown(budget.radius)
    return CompatYes(tuple(wits))


def _locate_set_conjugator(M, spec, budget):
    """Find w with w alpha(s_i) w^-1 in S for all i, plus the residue."""
    imgs = [apply_aut(M, spec, (i,), budget.steps) for i in range(M.n)]
    gens = frozenset(Element((i,)) for i in range(M.n))
    domain, _ = _conjugator_domain(M, budget)
    for w in domain:
        out = []
        ok = True
        for x in imgs:
            u = conjugate(M, w, x, budget.steps)
            if u not in gens:
                ok = False
                break
            out.append(u.letters[0])
        if ok and len(set(out)) == M.n:
            perm = tuple(out)
            for i in range(M.n):
                for j in range(M.n):
                    assert M.rows[perm[i]][perm[j]] == M.rows[i][j]
            return w, perm
    return None


def inner_by_graph(M, spec, budget=DEFAULT):
    """Decide whether the automorphism is inner-by-graph.

    Condition (1) is parabolic preservation, checked as parabolic
    compatibility of S with its image; condition (2) matches rotation
    classes.  When both hold, a conjugator carrying the image set back
    onto S is located and the residue factored as a diagram permutation.
    """
    _require_verified(M, spec)
    pair = pair_from_spec(M, spec)
    cond2 = _rotation_condition(M, spec, budget)
    if isinstance(cond2, CompatNo):
        return NotInnerByGraph(2, cond2.counterexample)
    cond1 = _parabolic_compat(M, pair, budget)
    if isinstance(cond1, CompatNo):
        return NotInnerByGraph(1, cond1.counterexample)
    if isinstance(cond1, CompatYes) and isinstance(cond2, CompatYes):
        hit = _locate_set_conjugator(M, spec, budget)
        if hit is not None:
            return InnerByGraph(hit[0], hit[1])
        return Undecided("conditions hold but no conjugator within budget")
    return Undecided("compatibility checks undecided")


def cryst_shortcut(M, spec, budget=DEFAULT):
    """Inner-by-graph from condition (1) alone, for crystallographic M."""
    if not is_crystallographic(M):
        raise ValueError("matrix is not crystallographic")
    _require_verified(M, spec)
    pair = pair_from_spec(M, spec)
    cond1 = _parabolic_compat(M, pair, budget)
    if isinstance(cond1, CompatNo):
        return NotInnerByGraph(1, cond1.counterexample)
    if isinstance(cond1, CompatYes):
        hit = _locate_set_conjugator(M, spec, budget)
        if hit is not None:
            return InnerByGraph(hit[0], hit[1])
        return Undecided("condition holds but no conjugator within budget")
    return Undecided("parabolic compatibility undecided")


def _distinct_products(M, budget):
    """All products of pairwise distinct generators, deduplicated."""
    out = []
    seen = set()
    for r in range(1, M.n + 1):
        for sub in combinations(range(M.n), r):
            for perm in permutations(sub):
                w = reduce(M, perm, budget.steps)
                if w not in seen:
                    seen.add(w)
                    out.append(w)
    return out


def smallwords_inner(M, spec, budget=DEFAULT):
    """The small-words pointwise test with the inner conclusion.

    If some product of pairwise distinct generators is certified not
    conjugate to its image, that word witnesses failure.  If every such
    product passes, the conclusion is an inner witness search.
    """
    if M.n > 6:
        raise ValueError("rank %d exceeds the small-words cap of 6" % M.n)
    _require_verified(M, spec)
    undecided = False
    for w in _distinct_products(M, budget):
        z = apply_aut(M, spec, w, budget.steps)
        if z == w:
            continue
        hit = _conj_to_any(M, w, [z], budget)
        if hit is False:
            return NotPointwiseSmall(w, "image not conjugate to the word")
        if hit is None:
            undecided = True
    if undecided:
        return Undecided("some small word undecided")
    target = [apply_aut(M, spec, (i,), budget.steps) for i in range(M.n)]
    domain, _ = _conjugator_domain(M, budget)
    for g in domain:
        if all(conjugate(M, g, Element((i,)), budget.steps) == target[i]
               for i in range(M.n)):
            return Inner(g)
    return Undecided("pointwise test passed but no inner witness within budget")
