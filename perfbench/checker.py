"""Independent answer checker for the benchmark.

Nothing here imports coxkit, so agreement with coxkit is evidence rather
than circularity.  Two exact models of a Coxeter group are used:

* Crystallographic matrices (entries 2, 3, 4, 6 or infinity) act on the
  root lattice through an integer generalized Cartan matrix whose Weyl
  group is W (Kac, Infinite-dimensional Lie algebras, Prop. 3.13).  The
  left descents of w are the s with w^-1(alpha_s) < 0, and peeling the
  smallest one repeatedly spells the ShortLex-least reduced word
  (Bjorner-Brenti, Combinatorics of Coxeter Groups, Ch. 4).
* Finite groups given by permutation generators (H3 through the
  icosahedral model of tests/oracles.py) are laid out breadth first with
  generators in index order, which attaches the ShortLex word to each
  element.

Words are tuples of 0-based letters, matrices are nested lists with
float("inf") for infinite entries.
"""

import importlib.util
import math
from pathlib import Path

INF = math.inf

# (a_ij, a_ji) for i < j, with a_ij * a_ji = 4 cos^2(pi / m) for each
# crystallographic entry m; any split of that product gives the same group.
_CARTAN = {2: (0, 0), 3: (-1, -1), 4: (-1, -2), 6: (-1, -3), INF: (-2, -2)}

ORACLES = Path(__file__).resolve().parent.parent / "tests" / "oracles.py"
H3_ROWS = ((1, 5, 2), (5, 1, 3), (2, 3, 1))


class CheckFailed(Exception):
    """An answer disagrees with the independent model."""


def load_oracles():
    """tests/oracles.py, loaded by path and only read."""
    spec = importlib.util.spec_from_file_location("perfbench_oracles", ORACLES)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def is_crystallographic(rows):
    n = len(rows)
    return all(rows[i][j] in _CARTAN for i in range(n) for j in range(n) if i != j)


class CartanModel:
    """W acting on the root lattice of an integer generalized Cartan matrix."""

    def __init__(self, rows):
        n = len(rows)
        A = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                lo, hi = _CARTAN[rows[i][j]]
                A[i][j], A[j][i] = lo, hi
        self.n = n
        self.A = A
        # the nonzero off-diagonal entries of each row
        self.links = [[(j, A[i][j]) for j in range(n) if j != i and A[i][j]]
                      for i in range(n)]

    def inverse_matrix(self, letters):
        """Matrix of w^-1 for w spelled by letters, columns = images of simple roots."""
        n, links = self.n, self.links
        V = [[int(i == j) for j in range(n)] for i in range(n)]
        for a in letters:
            # left multiply by s_a: only row a changes, to -row_a - sum a_aj row_j
            row = [-v for v in V[a]]
            for j, c in links[a]:
                Vj = V[j]
                for k in range(n):
                    row[k] -= c * Vj[k]
            V[a] = row
        return V

    def _peel(self, V):
        n, links = self.n, self.links
        out = []
        while True:
            for s in range(n):
                if any(row[s] < 0 for row in V):
                    break
            else:
                return tuple(out)
            out.append(s)
            # right multiply by s_s: column j gets -a_sj times column s added
            for row in V:
                v = row[s]
                if v:
                    row[s] = -v
                    for j, c in links[s]:
                        row[j] -= c * v

    def normal_form(self, letters):
        return self._peel(self.inverse_matrix(letters))

    def order(self, letters, cap):
        """Order of the element if at most cap, else None."""
        n = self.n
        ident = [[int(i == j) for j in range(n)] for i in range(n)]
        X = self.inverse_matrix(letters)
        P = X
        for k in range(1, cap + 1):
            if P == ident:
                return k
            P = [[sum(P[i][t] * X[t][j] for t in range(n)) for j in range(n)]
                 for i in range(n)]
        return None


class PermModel:
    """A finite group from permutation generators, with ShortLex words."""

    def __init__(self, gens):
        self.gens = gens
        self.n = len(gens)
        start = tuple(range(len(gens[0])))
        self.word = {start: ()}
        queue = [start]
        for p in queue:
            for s, g in enumerate(gens):
                q = tuple(g[i] for i in p)
                if q not in self.word:
                    self.word[q] = self.word[p] + (s,)
                    queue.append(q)
        self.identity = start

    def element(self, letters):
        p = self.identity
        for a in letters:
            g = self.gens[a]
            p = tuple(g[i] for i in p)
        return p

    def normal_form(self, letters):
        return self.word[self.element(letters)]

    def order(self, letters, cap):
        x = self.element(letters)
        p = x
        for k in range(1, cap + 1):
            if p == self.identity:
                return k
            p = tuple(x[i] for i in p)
        return None


def model_for(rows):
    """The independent model of W(rows), or None when neither applies."""
    rows = tuple(tuple(r) for r in rows)
    if is_crystallographic(rows):
        return CartanModel(rows)
    if rows == H3_ROWS:
        return PermModel(load_oracles().icosahedral_gens())
    return None


def inverse(w):
    return tuple(reversed(w))


class Checker:
    """Re-checks answers for one matrix against the independent model."""

    def __init__(self, rows):
        self.rows = rows
        self.model = model_for(rows)
        if self.model is None:
            raise ValueError("no independent model for %r" % (rows,))

    def nf(self, letters):
        return self.model.normal_form(tuple(letters))

    def same(self, u, v):
        return self.nf(tuple(u) + inverse(v)) == ()

    def expect_word(self, got, letters, what):
        want = self.nf(letters)
        if tuple(got) != want:
            raise CheckFailed("%s: got %s, ShortLex form is %s" % (what, got, want))

    def expect_conjugator(self, g, x, y, what):
        """g x g^-1 = y."""
        if not self.same(tuple(g) + tuple(x) + inverse(g), y):
            raise CheckFailed("%s: %s does not conjugate %s to %s" % (what, g, x, y))

    def expect_in_parabolic(self, g, J, x, what):
        """x lies in g W_J g^-1, that is g^-1 x g in W_J."""
        z = self.nf(inverse(g) + tuple(x) + tuple(g))
        if not set(z) <= set(J):
            raise CheckFailed("%s: %s not in %s W_%s" % (what, x, g, sorted(J)))

    def expect_order(self, letters, order, cap, what):
        got = self.model.order(tuple(letters), cap)
        if got != order:
            raise CheckFailed("%s: order of %s is %s, claimed %s"
                              % (what, letters, got, order))
