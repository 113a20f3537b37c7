"""Dense index model for a finite Coxeter group.

Elements are integers 0..N-1 with 0 the identity.  The whole group is laid
out by a breadth-first sweep that tries generators in index order, so the
word attached to each element is its ShortLex canonical form.  The sweep
runs over the verified coset table of the trivial subgroup, or over any
faithful action.  All the group structure a caller needs (multiplication
against generators, inverses, conjugation, conjugacy classes) is
precomputed into flat lists.  finite_model keeps one such model per
matrix, and class_search answers every conjugacy question on it, falling
back to a bounded word-engine orbit when W is infinite or too large.
"""

from .diagram import spherical_order
from .words import (BudgetExceeded, Element, _check, _conj_orbit, _conjugator,
                    _orbit, _path_moves, format_word)


class FiniteGroup:
    identity = 0

    def __init__(self, n, right, words):
        self.n = n
        self.size = self.order = len(words)
        self.right = right
        self.words = words
        self._index = {w: i for i, w in enumerate(words)}
        self._inv = None
        self._conj = None

    @classmethod
    def from_matrix(cls, M, cap=10 ** 5):
        """Lay W(M) out over its coset table; None when W(M) is infinite or
        larger than cap, BudgetExceeded past 16 |W| cosets."""
        from .quotients import CapExceeded, todd_coxeter  # quotients imports finite
        order = spherical_order(M, frozenset(range(M.n)))
        if order is None or order > cap:
            return None
        table = todd_coxeter(M, (), 16 * order)
        if isinstance(table, CapExceeded):
            raise BudgetExceeded("coset enumeration of W exceeded %d cosets" % table.cap)
        _check(table.size == order, "coset table has |W| rows")
        return cls._build(M.n, 0, lambda c, s: table.perms[s][c], order)

    @classmethod
    def from_action(cls, n, act, cap=10 ** 6):
        """Build from a faithful right action.

        act(point, s) moves a point by generator s; the group is the orbit
        of the base point under composing generators, found breadth first
        in index order so words come out ShortLex.
        """
        return cls._build(n, act.start(), act.step, cap)

    @classmethod
    def _build(cls, n, base, step, cap):
        """Index the orbit of base; each word is the path that first reached it."""
        status, parent = _orbit(base, lambda p: ((s, step(p, s)) for s in range(n)),
                                cap=cap)
        if status != "closed":
            return None
        index = {p: i for i, p in enumerate(parent)}
        words = []
        for q, s in parent.values():
            words.append(() if q is None else words[index[q]] + (s,))
        right = [[index[step(p, s)] for p in parent] for s in range(n)]
        return cls(n, right, words)

    def index_of(self, word):
        """Index of the element spelled by a letter tuple, reducing as it goes."""
        i = 0
        for s in word:
            i = self.right[s][i]
        return i

    def word(self, i):
        return self.words[i]

    def show(self, i):
        return format_word(self.words[i])

    def mult(self, i, j):
        for s in self.words[j]:
            i = self.right[s][i]
        return i

    def inverse(self, i):
        if self._inv is None:
            inv = [0] * self.size
            for a in range(self.size):
                b = 0
                for s in reversed(self.words[a]):
                    b = self.right[s][b]
                inv[a] = b
            self._inv = inv
        return self._inv[i]

    def conj(self, g, x):
        """g x g^-1 by index."""
        return self.mult(self.mult(g, x), self.inverse(g))

    def conj_by_gen(self, s, x):
        if self._conj is None:
            self._conj = [None] * self.n
        if self._conj[s] is None:
            r = self.right[s]
            self._conj[s] = [r[self.index_of((s,) + self.words[z])]
                             for z in range(self.size)]
        return self._conj[s][x]

    def class_orbit(self, x):
        """Conjugacy class of x as an orbit parent map under conj_by_gen."""
        return _orbit(x, lambda z: ((s, self.conj_by_gen(s, z)) for s in range(self.n)))[1]

    def conjugacy_class(self, x):
        return frozenset(self.class_orbit(x))

    def conjugacy_classes(self):
        left = set(range(self.size))
        out = []
        while left:
            x = min(left)
            c = self.conjugacy_class(x)
            out.append(c)
            left -= c
        return out

    def are_conjugate(self, x, y):
        return y in self.conjugacy_class(x)

    def subgroup(self, seeds):
        """Closure of some element indices under multiplication."""
        seeds = sorted(set(seeds))
        _, parent = _orbit(0, lambda a: ((b, self.mult(a, b)) for b in seeds))
        return frozenset(parent)

    def order_of(self, x):
        k = 1
        a = x
        while a != 0:
            a = self.mult(a, x)
            k += 1
        return k

    def involutions(self):
        return [i for i in range(1, self.size) if self.mult(i, i) == 0]

    def reflections(self):
        """Conjugates of the generators."""
        out = set()
        for s in range(self.n):
            out |= self.conjugacy_class(self.right[s][0])
        return frozenset(out)


def finite_model(M, cap):
    """The FiniteGroup of W(M), or None when W(M) is infinite or larger than cap.

    The model is built at most once per matrix and kept in M._cache, so
    calls with different caps share it and it lives as long as M does.
    """
    order = spherical_order(M, frozenset(range(M.n)))
    if order is None or order > cap:
        return None
    if "finite_model" not in M._cache:
        M._cache["finite_model"] = FiniteGroup.from_matrix(M, cap=order)
    return M._cache["finite_model"]


def class_search(M, x, targets, budget, radius, cap):
    """(status, hit, size) for the reduced targets in the class of the reduced x.

    hit is (t, g) with g x g^-1 = t for the first target t that lies in the
    class, else None; size counts the class points reached.  A finite W(M)
    within budget.enum_cap is searched whole on its model ('closed');
    otherwise _conj_orbit searches within radius and cap.
    """
    G = finite_model(M, budget.enum_cap)
    if G is not None:
        parent = G.class_orbit(G.index_of(x.letters))
        for t in targets:
            ti = G.index_of(t.letters)
            if ti in parent:
                g = Element(G.word(G.index_of(_path_moves(parent, ti))))
                return "closed", (t, g), len(parent)
        return "closed", None, len(parent)
    status, parent = _conj_orbit(M, x, targets, radius, cap, budget.steps)
    for t in targets:
        if t in parent:
            return status, (t, _conjugator(M, parent, t, budget.steps)), len(parent)
    return status, None, len(parent)
