"""Parabolic subgroups and parabolic closures.

A parabolic is a conjugate g W_J g^-1 of a standard parabolic.  Membership
and containment are exact: x lies in W_J iff its canonical word only uses
letters of J, and g W_J g^-1 contains h W_K h^-1 iff it contains the
conjugated generators of K.  The parabolic closure of an element is
computed exactly where a certificate is available (finite ambient group,
Coxeter products and their powers, support descent) and otherwise reported
as a bounding parabolic with the search radius that failed to shrink it.
"""

from dataclasses import dataclass, replace
from itertools import combinations, permutations

from .budgets import DEFAULT
from .diagram import components, embed_letters, is_spherical, spherical_order
from .finite import finite_model
from .words import (Element, IDENTITY, _check, _conjugator, _min_support,
                    _path_moves, _restrict, conjugate, invert, multiply, reduce,
                    support)


@dataclass(frozen=True)
class Parabolic:
    """The subgroup g W_J g^-1."""

    g: Element
    J: frozenset


def standard(J):
    return Parabolic(IDENTITY, frozenset(J))


def standard_closure(M, x):
    """Smallest standard parabolic containing x, which is W_supp(x)."""
    return standard(support(reduce(M, x)))


def member(M, P, x, steps=DEFAULT.steps):
    """Whether x lies in g W_J g^-1."""
    y = conjugate(M, invert(M, P.g, steps), reduce(M, x, steps), steps)
    return support(y) <= P.J


def conjugated(M, h, P, steps=DEFAULT.steps):
    """The parabolic h (g W_J g^-1) h^-1."""
    return Parabolic(multiply(M, h, P.g, steps), P.J)


def parabolic_contains(M, P, Q, steps=DEFAULT.steps):
    """Exact test for g W_J g^-1 containing h W_K h^-1.

    The small parabolic is generated by the conjugates of its standard
    generators, so containment reduces to rank(Q) membership tests.
    """
    return all(member(M, P, conjugate(M, Q.g, Element((k,)), steps), steps)
               for k in sorted(Q.J))


def parabolic_equal(M, P, Q, steps=DEFAULT.steps):
    return parabolic_contains(M, P, Q, steps) and parabolic_contains(M, Q, P, steps)


@dataclass(frozen=True)
class PcExact:
    """Certified parabolic closure."""

    parabolic: Parabolic


@dataclass(frozen=True)
class PcBounded:
    """Known container for the closure; minimality not certified.

    radius records how far conjugation search went without shrinking the
    support any further.
    """

    parabolic: Parabolic
    radius: int


@dataclass(frozen=True)
class PcUnknown:
    reason: str


def pc_coxeter_product(M, order):
    """Closure of a product of pairwise distinct generators.

    Such a product is a Coxeter element of the standard parabolic on its
    letters, and its closure is exactly that parabolic.
    """
    order = tuple(order)
    if len(set(order)) != len(order):
        raise ValueError("letters must be pairwise distinct")
    x = reduce(M, order)
    _check(len(x.letters) == len(order), "distinct generators spell a reduced word")
    return x, PcExact(standard(order))


def _map_pc(res, f):
    """res with f applied to its parabolic; a PcUnknown has none."""
    if isinstance(res, PcUnknown):
        return res
    return replace(res, parabolic=f(res.parabolic))


def _pc_sub(M, S, x, budget):
    """Closure of x's letters in S, found in W_S and relabelled into W."""
    sub, dx = _restrict(M, S, x)
    return _map_pc(pc_element(sub, dx, budget),
                   lambda P: Parabolic(Element(embed_letters(P.g.letters, S)),
                                       frozenset(embed_letters(P.J, S))))


def _coxeter_power(M, x, steps):
    """Whether x is a power of a Coxeter element of the full group."""
    n = M.n
    L = len(x.letters)
    if L == n and len(set(x.letters)) == n:
        return True
    if n > 7 or L % n != 0 or L < 2 * n:
        return False
    k = L // n
    for perm in permutations(range(n)):
        c = reduce(M, perm, steps)
        if len(c.letters) != n:
            continue
        acc = c
        for _ in range(k - 1):
            acc = multiply(M, acc, c, steps)
            if len(acc.letters) > L:
                break
        if acc == x:
            return True
    return False


def _subsets_by_order(M):
    """Every generator subset K of a finite group, smallest W_K first."""
    return sorted((frozenset(K) for r in range(M.n + 1)
                   for K in combinations(range(M.n), r)),
                  key=lambda K: (spherical_order(M, K), len(K), tuple(sorted(K))))


def _pc_finite(M, x, budget):
    """Exact closure inside a finite group, by sweeping subsets by order."""
    G = finite_model(M, budget.enum_cap)
    if G is None:
        return PcBounded(standard(range(M.n)), 0)
    parent = G.class_orbit(G.index_of(x.letters))
    for K in _subsets_by_order(M):
        for z in sorted(parent):
            if set(G.word(z)) <= K:
                g = G.inverse(G.index_of(_path_moves(parent, z)))
                return PcExact(Parabolic(reduce(M, G.word(g)), K))
    raise AssertionError("full subset always contains the class")


def pc_element(M, x, budget=DEFAULT):
    """Parabolic closure of x.

    Returns PcExact when a certificate pins the closure down: support
    descent into a smaller standard parabolic (parabolics of a parabolic
    are parabolics of the whole group), finite ambient brute force,
    componentwise product, or recognising a power of a Coxeter element of
    an irreducible infinite group, which is essential.  Otherwise returns
    the best bounding parabolic found.
    """
    x = reduce(M, x, budget.steps)
    if x == IDENTITY:
        return PcExact(standard(()))
    S = support(x)
    if len(S) < M.n:
        return _pc_sub(M, S, x, budget)
    comps = components(M)
    if len(comps) > 1:
        g = IDENTITY
        J = set()
        exact = True
        radius = 0
        for c in comps:
            res = _pc_sub(M, c, x, budget)
            if isinstance(res, PcUnknown):
                return res
            g = multiply(M, g, res.parabolic.g, budget.steps)
            J |= res.parabolic.J
            if isinstance(res, PcBounded):
                exact = False
                radius = max(radius, res.radius)
        P = Parabolic(g, frozenset(J))
        return PcExact(P) if exact else PcBounded(P, radius)
    if is_spherical(M, frozenset(range(M.n))):
        return _pc_finite(M, x, budget)
    if _coxeter_power(M, x, budget.steps):
        return PcExact(standard(range(M.n)))
    best, parent = _min_support(M, x, budget)
    if len(support(best)) < M.n:
        h = invert(M, _conjugator(M, parent, best, budget.steps), budget.steps)
        return _map_pc(pc_element(M, best, budget),
                       lambda P: conjugated(M, h, P, budget.steps))
    for z in sorted(parent, key=lambda z: (len(z.letters), z.letters)):
        if z != x and _coxeter_power(M, z, budget.steps):
            return PcExact(standard(range(M.n)))
    return PcBounded(standard(range(M.n)), budget.radius)


def is_essential(M, x, budget=DEFAULT):
    """Whether the closure of x is the whole group.

    Returns ('yes'|'no'|'unknown', pc result).  A proper bounding
    parabolic already certifies 'no'.
    """
    res = pc_element(M, x, budget)
    full = frozenset(range(M.n))
    if isinstance(res, PcExact):
        return ("yes" if res.parabolic.J == full else "no"), res
    if isinstance(res, PcBounded) and res.parabolic.J != full:
        return "no", res
    return "unknown", res


def normalizer_centralizer(M, J, budget=DEFAULT):
    """Normalizer and centralizer of a standard W_J in a finite group.

    Both are returned as sorted element lists.  Conjugation by g fixes
    W_J setwise iff it sends the generators of J into W_J.
    """
    G = finite_model(M, budget.enum_cap)
    if G is None:
        raise ValueError("group exceeds enumeration cap %d" % budget.enum_cap)
    J = sorted(J)
    gens = [G.index_of((s,)) for s in J]
    Jset = set(J)
    norm = []
    cent = []
    for g in range(G.size):
        images = [G.conj(g, w) for w in gens]
        if all(set(G.word(i)) <= Jset for i in images):
            norm.append(g)
        if images == gens:
            cent.append(g)
    elems = lambda idxs: [Element(G.word(i)) for i in idxs]
    return elems(norm), elems(cent)


def parabolic_intersection_finite(M, P, Q, budget=DEFAULT):
    """Intersection of two parabolics of a finite group.

    The intersection of parabolics is again a parabolic; we return its
    element set together with an identification g W_K g^-1.
    """
    G = finite_model(M, budget.enum_cap)
    if G is None:
        raise ValueError("group exceeds enumeration cap %d" % budget.enum_cap)

    def indices(R):
        gi = G.index_of(R.g.letters)
        inner = [i for i in range(G.size) if set(G.word(i)) <= R.J]
        return frozenset(G.conj(gi, i) for i in inner)

    inter = indices(P) & indices(Q)
    want = len(inter)
    probe = max(inter)
    for K in _subsets_by_order(M):
        if spherical_order(M, K) != want:
            continue
        WK = frozenset(i for i in range(G.size) if set(G.word(i)) <= K)
        for g in range(G.size):
            if G.conj(G.inverse(g), probe) not in WK:
                continue
            if frozenset(G.conj(g, i) for i in WK) == inter:
                elems = frozenset(Element(G.word(i)) for i in inter)
                return elems, Parabolic(reduce(M, G.word(g)), K)
    raise AssertionError("intersection of parabolics must be parabolic")
