"""Dense index model for a finite Coxeter group.

Elements are integers 0..N-1 with 0 the identity.  The whole group is laid
out by a breadth-first sweep that tries generators in index order, so the
word attached to each element is its ShortLex canonical form.  All the
group structure a caller needs (multiplication against generators,
inverses, conjugation, conjugacy classes) is precomputed into flat lists.
"""

from .words import IDENTITY, _generators, _orbit, multiply


class FiniteGroup:
    def __init__(self, n, right, words):
        self.n = n
        self.size = len(words)
        self.right = right
        self.words = words
        self._index = {w: i for i, w in enumerate(words)}
        self._inv = None
        self._conj = None

    @classmethod
    def from_matrix(cls, M, cap=10 ** 5):
        """Build via the word engine; None if the group outgrows cap."""
        gens = _generators(M)
        return cls._build(M.n, IDENTITY, lambda e, s: multiply(M, e, gens[s]), cap)

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
        status, parent = _orbit(base, range(n), step, cap=cap)
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

    def conjugacy_class(self, x):
        _, parent = _orbit(x, range(self.n), lambda z, s: self.conj_by_gen(s, z))
        return frozenset(parent)

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
        _, parent = _orbit(0, sorted(set(seeds)), self.mult)
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
