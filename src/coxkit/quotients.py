"""Finite quotients and conjugacy separation witnesses.

A witness that x and y are not conjugate is a homomorphism onto a finite
group under which their images are not conjugate.  The quotient family
here is an engineering choice: the even abelianization, retractions onto
finite standard parabolics, entry-lowering specializations onto finite
Coxeter groups, permutation actions from coset enumeration, and
retraction-after-specialization composites.  Every hom verifies all its
relators at construction, and every witness is re-verified before it is
returned.
"""

from collections import deque
from dataclasses import dataclass
from itertools import combinations, islice, product

from .budgets import DEFAULT
from .diagram import (INF, components, coxeter_matrix, is_even, is_spherical,
                      retraction_valid, spherical_order, submatrix)
from .finite import finite_model
from .words import Element, _check, _orbit

SENTINEL = -1


@dataclass(frozen=True)
class CapExceeded:
    """Coset enumeration hit its cap before closing."""

    cap: int


@dataclass(frozen=True)
class CosetTable:
    """Complete table: perms[s][c] is the right action of generator s."""

    size: int
    perms: tuple


class _CapHit(Exception):
    pass


def _alt_word(s, t, m):
    return (s, t) * m


def todd_coxeter(M, subgroup_gens, coset_cap=DEFAULT.cosets):
    """Enumerate cosets of the subgroup generated by the given words.

    Returns a verified CosetTable, or CapExceeded when more than coset_cap
    cosets get defined.  Generators are involutions, so the table stores a
    single symmetric edge per generator.
    """
    n = M.n
    relators = [_alt_word(s, t, int(M.rows[s][t]))
                for s in range(n) for t in range(s + 1, n)
                if M.rows[s][t] != INF]
    subwords = [w.letters if isinstance(w, Element) else tuple(w)
                for w in subgroup_gens]
    for w in subwords:
        for a in w:
            if not 0 <= a < n:
                raise ValueError("subgroup generator letter %r out of range" % a)

    parent = [0]
    nbr = [[SENTINEL] * n]
    pending = deque()
    stats = [0]

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    def newc():
        if len(parent) >= coset_cap:
            raise _CapHit
        parent.append(len(parent))
        nbr.append([SENTINEL] * n)
        stats[0] += 1
        return len(parent) - 1

    def merge(a, b):
        a, b = find(a), find(b)
        if a == b:
            return
        if a > b:
            a, b = b, a
        parent[b] = a
        pending.append(b)
        stats[0] += 1

    def deduce(a, s, b):
        a, b = find(a), find(b)
        x = nbr[a][s]
        if x == SENTINEL:
            nbr[a][s] = b
            stats[0] += 1
        elif find(x) != b:
            merge(find(x), b)
        a, b = find(a), find(b)
        y = nbr[b][s]
        if y == SENTINEL:
            nbr[b][s] = a
            stats[0] += 1
        elif find(y) != a:
            merge(find(y), a)

    def process():
        while pending:
            dead = pending.popleft()
            live = find(dead)
            row = nbr[dead]
            for s in range(n):
                x = row[s]
                row[s] = SENTINEL
                if x != SENTINEL:
                    deduce(live, s, find(x))

    def trace_close(c, word):
        cur = find(c)
        for i, s in enumerate(word):
            cur = find(cur)
            nxt = nbr[cur][s]
            if nxt == SENTINEL:
                if i == len(word) - 1:
                    deduce(cur, s, find(c))
                    return
                nxt = newc()
                deduce(cur, s, nxt)
            cur = find(nxt)
        if cur != find(c):
            merge(cur, find(c))

    try:
        for w in subwords:
            if w:
                trace_close(0, w)
        process()
        while True:
            before = stats[0]
            for c in range(len(parent)):
                if find(c) != c:
                    continue
                for w in relators:
                    trace_close(c, w)
                    process()
                for s in range(n):
                    if nbr[find(c)][s] == SENTINEL:
                        deduce(find(c), s, newc())
                        process()
            if stats[0] == before:
                break
    except _CapHit:
        return CapExceeded(coset_cap)

    live = [c for c in range(len(parent)) if find(c) == c]
    renum = {c: i for i, c in enumerate(live)}
    perms = tuple(tuple(renum[find(nbr[c][s])] for c in live) for s in range(n))
    table = CosetTable(len(live), perms)
    _verify_table(M, table, subwords)
    return table


def _verify_table(M, table, subwords):
    """Trace every relator at every coset; any failure is a bug."""
    n = M.n
    perms = table.perms
    for s in range(n):
        for c in range(table.size):
            _check(perms[s][perms[s][c]] == c,
                   "generator %d is not an involution" % (s + 1))
    for s in range(n):
        for t in range(s + 1, n):
            m = M.rows[s][t]
            if m == INF:
                continue
            for c in range(table.size):
                cur = c
                for a in _alt_word(s, t, int(m)):
                    cur = perms[a][cur]
                _check(cur == c, "relator (%d,%d) fails at coset %d" % (s + 1, t + 1, c))
    for w in subwords:
        cur = 0
        for a in w:
            cur = perms[a][cur]
        _check(cur == 0, "subgroup generator %r moves the base coset" % (w,))


class _BitImage:
    """(Z/2)^k with xor multiplication."""

    def __init__(self, k):
        self.k = k
        self.order = 2 ** k
        self.identity = 0

    def mult(self, a, b):
        return a ^ b

    def inverse(self, a):
        return a

    def are_conjugate(self, a, b):
        return a == b

    def show(self, a):
        return "(" + ",".join(str((a >> i) & 1) for i in range(self.k)) + ")"


def _cycle_type(p):
    seen = [False] * len(p)
    out = []
    for i in range(len(p)):
        if seen[i]:
            continue
        k = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            k += 1
        out.append(k)
    return tuple(sorted(out))


class _PermImage:
    """Permutation image; conjugacy by cycle-type filter then orbit search.

    are_conjugate may return None when the conjugation orbit outgrows the
    cap; callers treat that as inconclusive.
    """

    def __init__(self, gens, class_cap=DEFAULT.class_cap):
        self.gens = [tuple(g) for g in gens]
        self.deg = len(self.gens[0]) if self.gens else 1
        self.identity = tuple(range(self.deg))
        self.class_cap = class_cap
        self.order = None

    def mult(self, a, b):
        return tuple(b[a[i]] for i in range(self.deg))

    def inverse(self, a):
        out = [0] * self.deg
        for i, j in enumerate(a):
            out[j] = i
        return tuple(out)

    def are_conjugate(self, a, b):
        if _cycle_type(a) != _cycle_type(b):
            return False
        moves = [(g, self.inverse(g)) for g in self.gens]
        status, _ = _orbit(a, lambda z: ((m, self.mult(self.mult(m[0], z), m[1]))
                                         for m in moves),
                           cap=self.class_cap, stop=lambda z: z == b)
        return {"found": True, "closed": False}.get(status)

    def show(self, a):
        cycles = []
        seen = [False] * self.deg
        for i in range(self.deg):
            if seen[i] or a[i] == i:
                seen[i] = True
                continue
            cyc = []
            j = i
            while not seen[j]:
                seen[j] = True
                cyc.append(j)
                j = a[j]
            cycles.append("(" + " ".join(str(k) for k in cyc) + ")")
        return "".join(cycles) if cycles else "()"


def _broken_relator(M, gens, mult, identity):
    """The first (s, t, m) with s <= t and (g_s g_t)^m != 1, or None.

    gens[s] is the image g_s of generator s.  Pairs s > t add nothing,
    since (g_s g_t)^m = 1 exactly when (g_t g_s)^m = 1; s = t checks
    that g_s is an involution or trivial.
    """
    for s in range(M.n):
        for t in range(s, M.n):
            m = M.rows[s][t]
            if m == INF:
                continue
            step = mult(gens[s], gens[t])
            acc = identity
            for _ in range(int(m)):
                acc = mult(acc, step)
            if acc != identity:
                return s, t, m
    return None


class FiniteQuotientHom:
    """A verified homomorphism onto a finite group.

    kind is one of 'abelianization', 'retraction', 'specialization',
    'perm', 'retraction.specialization'.  gen_images assigns an image
    element to every generator; image bundles multiplication and a
    conjugacy test.
    """

    def __init__(self, M, kind, label, gen_images, image):
        self.kind = kind
        self.label = label
        self.gen_images = list(gen_images)
        self.image = image
        self._verify_relators(M)

    def _verify_relators(self, M):
        broken = _broken_relator(M, self.gen_images, self.image.mult, self.image.identity)
        if broken is not None:
            s, t, m = broken
            raise ValueError("relator (%d,%d)^%d not killed by %s"
                             % (s + 1, t + 1, m, self.label))

    def image_of(self, w):
        if isinstance(w, Element):
            w = w.letters
        acc = self.image.identity
        for a in w:
            acc = self.image.mult(acc, self.gen_images[a])
        return acc

    def separates(self, x, y):
        """True only when the images are certified non-conjugate."""
        return self.image.are_conjugate(self.image_of(x), self.image_of(y)) is False


def abelianize_even(M):
    """The quotient onto (Z/2)^n, defined exactly when M is even."""
    if not is_even(M):
        raise ValueError("abelianization onto (Z/2)^n needs an even matrix")
    img = _BitImage(M.n)
    return FiniteQuotientHom(M, "abelianization", "abelianization (Z/2)^%d" % M.n,
                             [1 << i for i in range(M.n)], img)


_IMAGE_ORDER_MAX = 10 ** 5


def _braces(I):
    return "{" + ",".join(str(s + 1) for s in sorted(I)) + "}"


def _coxeter_hom(M, kind, label, I, T):
    """Send the generators in sorted(I) to those of the finite W(T), kill the rest."""
    G = finite_model(T, _IMAGE_ORDER_MAX)
    if G is None:
        raise ValueError("image order %d exceeds cap %d"
                         % (spherical_order(T, frozenset(range(T.n))), _IMAGE_ORDER_MAX))
    pos = {s: k for k, s in enumerate(sorted(I))}
    gen_images = [G.index_of((pos[s],)) if s in pos else 0 for s in range(M.n)]
    return FiniteQuotientHom(M, kind, label, gen_images, G)


def specialize(M, M2):
    """Quotient obtained by lowering entries within divisibility.

    M2 must have the same rank, spherical type, and each off-diagonal
    entry must divide the corresponding entry of M (anything finite is
    allowed where M has infinity).
    """
    if M2.n != M.n:
        raise ValueError("rank mismatch")
    for i in range(M.n):
        for j in range(i + 1, M.n):
            m, m2 = M.rows[i][j], M2.rows[i][j]
            if m2 == INF:
                raise ValueError("entry at (%d,%d) must be finite" % (i + 1, j + 1))
            if m != INF and m % m2 != 0:
                raise ValueError("entry %d at (%d,%d) does not divide %d"
                                 % (m2, i + 1, j + 1, m))
    order = spherical_order(M2, frozenset(range(M2.n)))
    if order is None:
        raise ValueError("specialization target is not spherical")
    entries = ",".join(str(M2.rows[i][j]) for i in range(M2.n)
                       for j in range(i + 1, M2.n))
    return _coxeter_hom(M, "specialization",
                        "specialization onto (%s) order %d" % (entries, order),
                        range(M.n), M2)


def retraction_hom(M, I):
    """Kill the generators outside I, landing in a finite W_I.

    Well defined when every entry crossing the boundary of I is even or
    infinite; the relator check enforces this.
    """
    I = sorted(set(I))
    sub = submatrix(M, I)
    if spherical_order(sub, frozenset(range(len(I)))) is None:
        raise ValueError("retraction target W_I is not finite")
    return _coxeter_hom(M, "retraction", "retraction onto I=%s" % _braces(I), I, sub)


_COSET_CAP = 1024


def perm_hom(M, subgroup_gens, label, coset_cap=_COSET_CAP,
             class_cap=DEFAULT.class_cap):
    """Permutation quotient from coset enumeration, or None past the cap."""
    table = todd_coxeter(M, subgroup_gens, coset_cap)
    if isinstance(table, CapExceeded):
        return None
    img = _PermImage(table.perms, class_cap)
    return FiniteQuotientHom(M, "perm",
                             "%s (index %d)" % (label, table.size),
                             list(img.gens), img)


def composite_hom(M, I, lowered):
    """Retraction onto I after lowering the entries inside I.

    lowered is the spherical matrix replacing submatrix(M, I); the
    composite sends s in I to its image there and kills the rest.
    """
    I = sorted(set(I))
    order = spherical_order(lowered, frozenset(range(len(I))))
    if order is None:
        raise ValueError("lowered target is not spherical")
    return _coxeter_hom(M, "retraction.specialization",
                        "lowered retraction onto I=%s order %d" % (_braces(I), order),
                        I, lowered)


def _divisors(m):
    return [d for d in range(2, m + 1) if m % d == 0]


_INF_CHOICES = (2, 3, 4, 5, 6)
_COMBO_SCAN = 20000


def _lowerings(M):
    """Candidate matrices obtained by lowering entries, lazily."""
    n = M.n
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    choices = [_INF_CHOICES if M.rows[i][j] == INF else _divisors(int(M.rows[i][j]))
               for i, j in pairs]
    for combo in islice(product(*choices), _COMBO_SCAN):
        rows = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
        for (i, j), m in zip(pairs, combo):
            rows[i][j] = rows[j][i] = m
        yield coxeter_matrix(rows)


def _smallest_lowerings(M, limit):
    """The limit lowerings of M with the smallest finite images, by (order, rows)."""
    full = frozenset(range(M.n))
    cands = []
    for low in _lowerings(M):
        order = spherical_order(low, full)
        if order is not None and order <= _IMAGE_ORDER_MAX:
            cands.append((order, low.rows, low))
    cands.sort(key=lambda t: (t[0], t[1]))
    return [low for _, _, low in cands[:limit]]


def _built(build, *args):
    """[build(*args)], or [] when the target turns out not to qualify."""
    try:
        return [build(*args)]
    except ValueError:
        return []


def _plan(M, budget):
    """The separation plan's homs, in the order separate tries them.

    Cosets are enumerated only for W_J containing every infinite component
    of W: any other W_J has infinite index, since a proper standard
    parabolic of an infinite irreducible Coxeter group does, so its
    enumeration could never close.
    """
    n = M.n
    if is_even(M):
        yield abelianize_even(M)
    proper = [frozenset(K) for r in range(1, n) for K in combinations(range(n), r)]
    proper.sort(key=lambda K: (-(spherical_order(M, K) or 0), tuple(sorted(K))))
    for I in proper:
        if is_spherical(M, I) and retraction_valid(M, I):
            yield from _built(retraction_hom, M, I)
    for M2 in _smallest_lowerings(M, 24):
        yield from _built(specialize, M, M2)
    infinite = set().union(*(C for C in components(M) if not is_spherical(M, C)))
    for r in range(n - 1, 0, -1):
        for J in combinations(range(n), r):
            if infinite <= set(J):
                hom = perm_hom(M, [Element((s,)) for s in J], "cosets of W_%s" % _braces(J),
                               min(budget.cosets, _COSET_CAP), budget.class_cap)
                if hom is not None:
                    yield hom
    lowered = (hom for r in range(2, n) for I in combinations(range(n), r)
               if retraction_valid(M, I) and not is_spherical(M, I)
               for low in _smallest_lowerings(submatrix(M, I), 4)
               for hom in _built(composite_hom, M, I, low))
    yield from islice(lowered, 16)


def separation_plan(M, budget=DEFAULT):
    """The hom family tried by separate, cheapest first, cached per matrix."""
    key = ("sep_plan", budget.cosets, budget.class_cap)
    if key not in M._cache:
        M._cache[key] = list(_plan(M, budget))
    return M._cache[key]


@dataclass(frozen=True)
class SeparationWitness:
    hom: FiniteQuotientHom
    x_img: object
    y_img: object


@dataclass(frozen=True)
class SeparationNotFound:
    tried: int


def separate(M, x, y, budget=DEFAULT, transcript=None):
    """First hom in the plan whose image certifies non-conjugacy.

    A sound NotFound is always possible; conjugate inputs can never
    produce a witness because homomorphisms preserve conjugacy.
    """
    plan = separation_plan(M, budget)
    for hom in plan:
        xi, yi = hom.image_of(x), hom.image_of(y)
        verdict = hom.image.are_conjugate(xi, yi)
        if transcript is not None:
            word = {True: "agree", False: "separates", None: "inconclusive"}[verdict]
            transcript.append((hom.label, word))
        if verdict is False:
            _check(hom.image_of(x) == xi and hom.image_of(y) == yi,
                   "witness images recompute under %s" % hom.label)
            _check(hom.image.are_conjugate(xi, yi) is False,
                   "witness images stay non-conjugate under %s" % hom.label)
            return SeparationWitness(hom, xi, yi)
    return SeparationNotFound(len(plan))
