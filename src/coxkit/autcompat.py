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
from .quotients import SeparationWitness, _broken_relator, separate
from .words import (Element, IDENTITY, _check, _conj_orbit, _conjugator,
                    _generators, _orbit, _path_moves, _right_orbit, conjugate,
                    element_order, invert, multiply, parse_word, format_word,
                    reduce, support)


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
    broken = _broken_relator(M, imgs, lambda a, b: multiply(M, a, b, steps), IDENTITY)
    if broken is not None:
        i, j, m = broken
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


def _sides(pair):
    """Both directions of the pair as (side, src, src_member, dst, dst_member)."""
    yield 1, pair.S1, pair.membership1, pair.S2, pair.membership2
    yield 2, pair.S2, pair.membership2, pair.S1, pair.membership1


def _tally(checks, radius):
    """Fold (key, outcome) checks into a verdict.

    An outcome is False when certified to fail, None when undecided, and
    otherwise a witness.  The first False is a No for its key; otherwise
    any None makes the verdict Unknown, and else it is Yes.
    """
    wits = []
    undecided = False
    for key, outcome in checks:
        if outcome is False:
            return CompatNo(key)
        if outcome is None:
            undecided = True
        else:
            wits.append(outcome)
    return CompatUnknown(radius) if undecided else CompatYes(tuple(wits))


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
                _check(conjugate(M, g, x, budget.steps) == t, "class orbit conjugator")
                return t, g
        return False
    status, parent = _conj_orbit(M, x, radius=budget.radius, cap=budget.class_cap,
                                 steps=budget.steps)
    for t in targets:
        if t in parent:
            g = _conjugator(M, parent, t, budget.steps)
            _check(conjugate(M, g, x, budget.steps) == t, "conjugation orbit conjugator")
            return t, g
    if status == "closed":
        return False
    for t in targets:
        if not isinstance(separate(M, x, t, budget=budget), SeparationWitness):
            return None
    return False


def _reflection_compat(M, pair, budget):
    for side, src, _, dst, _ in _sides(pair):
        for x in src:
            hit = _conj_to_any(M, x, dst, budget)
            yield (side, x), hit and (side, x) + hit


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

    Returns (w, 'found'), (None, 'closed') or (None, 'exhausted').  In a
    finite W(M) within enum_cap the orbit runs on model indices, unbounded.
    """
    G = finite_model(M, budget.enum_cap)
    if G is not None:
        dst = frozenset(G.index_of(v.letters) for v in dstset)
        status, parent = _orbit((G.index_of(s.letters), G.index_of(t.letters)),
                                range(M.n),
                                lambda p, a: (G.conj_by_gen(a, p[0]), G.conj_by_gen(a, p[1])),
                                stop=lambda p: p[0] in dst and p[1] in dst)
        if status != "found":
            return None, status
        moves = _path_moves(parent, next(reversed(parent)))
        return reduce(M, tuple(moves), budget.steps), status

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
    for side, src, _, dst, _ in _sides(pair):
        dstset = frozenset(reduce(M, v, budget.steps) for v in dst)
        for s, t in combinations(src, 2):
            key = (side, (s, t))
            if _pair_order(M, s, t, budget) is None:
                if len(s.letters) > 1 or len(t.letters) > 1:
                    yield key, None
                continue
            w, status = _pair_conj_search(M, s, t, dstset, budget)
            if status == "found":
                u, v = conjugate(M, w, s, budget.steps), conjugate(M, w, t, budget.steps)
                _check(u in dstset and v in dstset, "pair conjugator")
                yield key, (side, (s, t), (u, v), w)
            else:
                yield key, None if status == "exhausted" else False


def _ball_capped(M, radius, cap, steps):
    """The first cap elements of the ball of that radius, in ShortLex order."""
    return list(_right_orbit(M, _generators(M), radius, cap - 1, steps)[1])


def _conjugator_domain(M, budget):
    """Candidate conjugators: the whole group when finite, else a ball."""
    G = finite_model(M, budget.enum_cap)
    if G is not None:
        key = ("conj_domain", "full")
        if key not in M._cache:
            M._cache[key] = [Element(G.word(i)) for i in range(G.size)]
        return M._cache[key]
    key = ("conj_domain", budget.radius, budget.enum_cap)
    if key not in M._cache:
        M._cache[key] = _ball_capped(M, budget.radius, budget.enum_cap,
                                     budget.steps)
    return M._cache[key]


def _first_conjugator(M, budget, fit):
    """(g, fit(g)) for the first g in the conjugator domain with fit(g) true, or None."""
    for g in _conjugator_domain(M, budget):
        hit = fit(g)
        if hit:
            return g, hit
    return None


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
    """Conjugacy of two finitely generated reflection subgroups of an infinite W.

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
        def fit(g):
            gi = invert(M, g, budget.steps)
            return (all(dst_member(conjugate(M, g, s, budget.steps), dst_pos)
                        for s in src_gens)
                    and all(src_member(conjugate(M, gi, v, budget.steps), src_pos)
                            for v in dst_gens))

        hit = _first_conjugator(M, budget, fit)
        if hit is not None:
            return True, hit[0]
    return None


def _finite_subgroups_conjugate(G):
    """Exact subgroup conjugacy in the finite model G: (True, g) or (False, reason).

    g A g^-1 = B exactly when |A| = |B| and g moves every generator of A
    into B, so only the generators are conjugated.  Closures are kept per
    generating tuple for the life of the returned oracle.
    """
    closures = {}

    def closure(gens):
        seeds = tuple(G.index_of(g.letters) for g in gens)
        if seeds not in closures:
            closures[seeds] = G.subgroup(seeds)
        return seeds, closures[seeds]

    def oracle(src_gens, dst_gens):
        seeds, A = closure(src_gens)
        B = closure(dst_gens)[1]
        if len(A) == len(B):
            for g in range(G.size):
                if all(G.conj(g, a) in B for a in seeds):
                    return True, Element(G.word(g))
        return False, "no conjugator in the full group"

    return oracle


def _candidate_subsets(n, r):
    """All nonempty subsets of range(n), those of size r first.

    A conjugate parabolic need not have a generating set of the same
    cardinality, so every size is a candidate; likeliest first.
    """
    subs = [tuple(c) for k in range(1, n + 1) for c in combinations(range(n), k)]
    return sorted(subs, key=lambda c: (abs(len(c) - r), len(c), c))


def _parabolic_compat(M, pair, budget):
    """Each subset of either set spans a subgroup conjugate to one the other spans."""
    if M.n > 6:
        yield M.n, None  # too many subsets to sweep: one undecided check
        return
    G = finite_model(M, budget.enum_cap)
    in_model = _finite_subgroups_conjugate(G) if G is not None else None
    for side, src, src_member, dst, dst_member in _sides(pair):
        for positions in [c for r in range(1, len(src) + 1)
                          for c in combinations(range(len(src)), r)]:
            src_gens = [src[i] for i in positions]
            outcome = False
            for cand in _candidate_subsets(len(dst), len(positions)):
                dst_gens = [dst[i] for i in cand]
                if in_model is not None:
                    res = in_model(src_gens, dst_gens)
                else:
                    res = _subgroups_conjugate(M, src_gens, src_member,
                                               frozenset(positions), dst_gens,
                                               dst_member, frozenset(cand), budget)
                if res is None:
                    outcome = None
                elif res[0]:
                    outcome = (side, positions, cand, res[1])
                    break
            yield (side, positions), outcome


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
    return CompatReport(*(_tally(checks(M, pair, budget), budget.radius)
                          for checks in (_reflection_compat, _angle_compat,
                                         _parabolic_compat)))


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
    for i, j in combinations(range(n), 2):
        m = M.rows[i][j]
        if m == INF:
            continue
        z = apply_aut(M, spec, (i, j), budget.steps)
        targets = [reduce(M, (a, b), budget.steps)
                   for a in range(n) for b in range(n)
                   if a != b and M.rows[a][b] == m]
        hit = _conj_to_any(M, z, targets, budget)
        yield ((i, j), m), hit and ((i, j),) + hit


def _locate_set_conjugator(M, spec, budget):
    """Find w with w alpha(s_i) w^-1 in S for all i, plus the residue."""
    imgs = [apply_aut(M, spec, (i,), budget.steps) for i in range(M.n)]

    def perm(w):
        """Where w sends each image, if every one lands on a distinct generator."""
        out = []
        for x in imgs:
            u = conjugate(M, w, x, budget.steps)
            if len(u.letters) != 1:
                return None
            out.append(u.letters[0])
        return tuple(out) if len(set(out)) == M.n else None

    hit = _first_conjugator(M, budget, perm)
    if hit is not None:
        p = hit[1]
        _check(all(M.rows[p[i]][p[j]] == M.rows[i][j]
                   for i in range(M.n) for j in range(M.n)),
               "residue is a diagram automorphism")
    return hit


def _graph_verdict(M, spec, budget, cond2):
    """The inner-by-graph verdict from condition (2) and parabolic preservation."""
    if isinstance(cond2, CompatNo):
        return NotInnerByGraph(2, cond2.counterexample)
    cond1 = _tally(_parabolic_compat(M, pair_from_spec(M, spec), budget), budget.radius)
    if isinstance(cond1, CompatNo):
        return NotInnerByGraph(1, cond1.counterexample)
    if isinstance(cond1, CompatYes) and isinstance(cond2, CompatYes):
        hit = _locate_set_conjugator(M, spec, budget)
        if hit is not None:
            return InnerByGraph(*hit)
        return Undecided("conditions hold but no conjugator within budget")
    return Undecided("compatibility checks undecided")


def inner_by_graph(M, spec, budget=DEFAULT):
    """Decide whether the automorphism is inner-by-graph.

    Condition (1) is parabolic preservation, checked as parabolic
    compatibility of S with its image; condition (2) matches rotation
    classes.  When both hold, a conjugator carrying the image set back
    onto S is located and the residue factored as a diagram permutation.
    """
    _require_verified(M, spec)
    cond2 = _tally(_rotation_condition(M, spec, budget), budget.radius)
    return _graph_verdict(M, spec, budget, cond2)


def cryst_shortcut(M, spec, budget=DEFAULT):
    """Inner-by-graph from condition (1) alone, for crystallographic M."""
    if not is_crystallographic(M):
        raise ValueError("matrix is not crystallographic")
    _require_verified(M, spec)
    return _graph_verdict(M, spec, budget, CompatYes(()))


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

    def checks():
        for w in _distinct_products(M, budget):
            z = apply_aut(M, spec, w, budget.steps)
            if z != w:
                yield w, _conj_to_any(M, w, [z], budget)

    pointwise = _tally(checks(), budget.radius)
    if isinstance(pointwise, CompatNo):
        return NotPointwiseSmall(pointwise.counterexample,
                                 "image not conjugate to the word")
    if isinstance(pointwise, CompatUnknown):
        return Undecided("some small word undecided")
    target = [apply_aut(M, spec, (i,), budget.steps) for i in range(M.n)]
    hit = _first_conjugator(M, budget, lambda g: all(
        conjugate(M, g, Element((i,)), budget.steps) == target[i] for i in range(M.n)))
    if hit is not None:
        return Inner(hit[0])
    return Undecided("pointwise test passed but no inner witness within budget")
