"""Canonical words from the integer root action of a crystallographic W.

When every m_ij lies in {2, 3, 4, 6, inf}, W(M) is the Weyl group of an
integer generalized Cartan matrix A with a_ij a_ji = 4 cos^2(pi/m_ij), and
inf taken to (-2, -2) (Kac, Infinite dimensional Lie algebras, Prop. 3.13).
s_t sends a root v to v - (sum_j a_tj v_j) alpha_t, and s is a left descent
of w exactly when w^-1(alpha_s) is a negative root (Bjorner-Brenti, Ch. 4;
Casselman, Computation in Coxeter groups I, 2002).
"""

from .diagram import INF

_PAIR = {3: (-1, -1), 4: (-1, -2), 6: (-1, -3), INF: (-2, -2)}


def cartan(M):
    """The nonzero off-diagonal entries (j, a_tj) of each row t of M's
    Cartan matrix, or None when some m_ij is 5 or >= 7; kept in M._cache."""
    if "cartan" not in M._cache:
        try:
            A = tuple(tuple((j, _PAIR[m][t > j]) for j, m in enumerate(row)
                            if j != t and m != 2) for t, row in enumerate(M.rows))
        except KeyError:
            A = None
        M._cache["cartan"] = A
    return M._cache["cartan"]


def shortlex(A, w):
    """The ShortLex-least reduced word of the element spelled by w."""
    n = len(A)
    cols = []  # cols[s] = w^-1(alpha_s), applying s_t for each letter t of w
    for s in range(n):
        v = [0] * n
        v[s] = 1
        for t in w:  # s_t(v) = v - (sum_j a_tj v_j) alpha_t
            x = -v[t]
            for j, a in A[t]:
                x -= a * v[j]
            v[t] = x
        cols.append(v)
    out = []
    while True:  # peel the least s with w^-1(alpha_s) < 0 (one-signed)
        s = next((s for s, v in enumerate(cols) if sum(v) < 0), None)
        if s is None:
            return tuple(out)
        out.append(s)
        v = cols[s]  # w <- s w: w^-1(alpha_j) -= a_sj w^-1(alpha_s)
        for j, a in A[s]:
            cols[j] = [x - a * y for x, y in zip(cols[j], v)]
        cols[s] = [-y for y in v]
