"""Coxeter matrices and diagram classification.

A Coxeter matrix is symmetric with 1 on the diagonal and entries in
{2, 3, ...} or infinity off it.  The diagram here is the graph on the
generator indices with an edge wherever m[i][j] != 2; components of that
graph are the irreducible factors.
"""

import math
from dataclasses import dataclass, field
from itertools import combinations

INF = math.inf


@dataclass(frozen=True)
class CoxeterMatrix:
    """Symmetric matrix of pairwise orders, INF for infinite order."""

    rows: tuple
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        rows = self.rows
        n = len(rows)
        if n == 0:
            raise ValueError("empty matrix")
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError("row %d has %d entries, expected %d" % (i + 1, len(row), n))
            if row[i] != 1:
                raise ValueError("diagonal entry at %d must be 1" % (i + 1))
            for j, m in enumerate(row):
                if i == j:
                    continue
                if m == INF:
                    continue
                if not isinstance(m, int) or m < 2:
                    raise ValueError("entry (%d,%d) must be an integer >= 2 or inf" % (i + 1, j + 1))
                if rows[j][i] != m:
                    raise ValueError("matrix is not symmetric at (%d,%d)" % (i + 1, j + 1))

    @property
    def n(self):
        return len(self.rows)

    def entry(self, i, j):
        return self.rows[i][j]

    def __hash__(self):
        return hash(self.rows)


def coxeter_matrix(entries):
    """Build a CoxeterMatrix from any nested sequence."""
    return CoxeterMatrix(tuple(tuple(row) for row in entries))


def parse_matrix(text):
    """Parse the rank-then-entries format; 'inf' marks infinite entries."""
    tokens = text.split()
    if not tokens:
        raise ValueError("empty matrix input")
    try:
        n = int(tokens[0])
    except ValueError:
        raise ValueError("first token must be the rank, got %r" % tokens[0])
    if n < 1:
        raise ValueError("rank must be positive")
    body = tokens[1:]
    if len(body) != n * n:
        raise ValueError("expected %d entries after the rank, got %d" % (n * n, len(body)))
    entries = []
    for tok in body:
        if tok == "inf":
            entries.append(INF)
        else:
            try:
                entries.append(int(tok))
            except ValueError:
                raise ValueError("bad matrix entry %r" % tok)
    rows = tuple(tuple(entries[i * n:(i + 1) * n]) for i in range(n))
    return CoxeterMatrix(rows)


def format_matrix(M):
    lines = [str(M.n)]
    for row in M.rows:
        lines.append(" ".join("inf" if m == INF else str(m) for m in row))
    return "\n".join(lines)


def submatrix(M, J):
    """Induced matrix on sorted(J), one object per subset, kept in M._cache.

    Keeping it lets the sub-matrix's own caches (reduce results, finite
    model, separation plans) outlive the call that asked for it.
    """
    key = ("submatrix", frozenset(J))
    if key not in M._cache:
        J = sorted(key[1])
        M._cache[key] = coxeter_matrix(tuple(tuple(M.rows[i][j] for j in J) for i in J))
    return M._cache[key]


def embed_letters(word, J):
    """Relabel a word in submatrix(M, J) coordinates back onto the generators J."""
    J = sorted(J)
    return tuple(J[a] for a in word)


def component_ids(M):
    """Component index per generator, in the m != 2 graph."""
    key = "component_ids"
    if key not in M._cache:
        ids = [0] * M.n
        for c, comp in enumerate(_sub_components(M, range(M.n))):
            for v in comp:
                ids[v] = c
        M._cache[key] = ids
    return M._cache[key]


def components(M):
    ids = component_ids(M)
    out = [[] for _ in range(max(ids) + 1)]
    for v, c in enumerate(ids):
        out[c].append(v)
    return tuple(tuple(comp) for comp in out)


def jperp(M, J):
    """Generators outside J commuting with all of J."""
    J = frozenset(J)
    return frozenset(s for s in range(M.n)
                     if s not in J and all(M.rows[s][j] == 2 for j in J))


def is_irreducible(M, J):
    """Whether J is connected in the m != 2 graph; empty and singletons count."""
    return len(_sub_components(M, J)) <= 1


def is_even(M):
    return all(M.rows[i][j] == INF or M.rows[i][j] % 2 == 0
               for i in range(M.n) for j in range(i + 1, M.n))


def retraction_valid(M, I):
    """rho_I is a homomorphism iff every crossing entry is even or infinite."""
    I = frozenset(I)
    return all(M.rows[s][t] == INF or M.rows[s][t] % 2 == 0
               for s in I for t in range(M.n) if t not in I)


def is_right_angled(M):
    return all(M.rows[i][j] in (2, INF)
               for i in range(M.n) for j in range(i + 1, M.n))


def is_crystallographic(M):
    return all(M.rows[i][j] in (2, 3, 4, 6, INF)
               for i in range(M.n) for j in range(i + 1, M.n))


def _edges(M, verts):
    return [(i, j, M.rows[i][j]) for i, j in combinations(sorted(verts), 2)
            if M.rows[i][j] != 2]


def _degrees(verts, edges):
    deg = {v: 0 for v in verts}
    for i, j, _ in edges:
        deg[i] += 1
        deg[j] += 1
    return deg


def _path_labels(verts, edges):
    """Edge labels read along a path, from its lex-least endpoint."""
    deg = _degrees(verts, edges)
    return _arm_seqs(verts, edges, min(v for v in verts if deg[v] == 1))[0]


def _arms(verts, edges, center):
    """Arm lengths (edge counts) hanging off a branch vertex of a tree."""
    return sorted(len(seq) for seq in _arm_seqs(verts, edges, center))


def spherical_type(M, verts):
    """Finite-type name of a connected subset, or None."""
    verts = sorted(verts)
    k = len(verts)
    if k == 1:
        return "A1"
    if k == 2:
        m = M.rows[verts[0]][verts[1]]
        if m == INF:
            return None
        return {3: "A2", 4: "B2", 6: "G2"}.get(m, "I2(%d)" % m)
    edges = _edges(M, verts)
    if len(edges) != k - 1:
        return None
    labels = [lab for _, _, lab in edges]
    if any(lab == INF or lab > 5 for lab in labels):
        return None
    deg = _degrees(verts, edges)
    if any(d > 3 for d in deg.values()):
        return None
    branches = [v for v in verts if deg[v] == 3]
    if len(branches) > 1:
        return None
    if not branches:
        seq = _path_labels(verts, edges)
        big = [lab for lab in seq if lab > 3]
        if not big:
            return "A%d" % k
        if len(big) > 1:
            return None
        lab = big[0]
        pos = seq.index(lab)
        at_end = pos in (0, len(seq) - 1)
        if lab == 4 and at_end:
            return "B%d" % k
        if lab == 4 and k == 4:
            return "F4"
        if lab == 5 and at_end and k == 3:
            return "H3"
        if lab == 5 and at_end and k == 4:
            return "H4"
        return None
    if any(lab != 3 for lab in labels):
        return None
    arms = _arms(verts, edges, branches[0])
    if arms[0] == 1 and arms[1] == 1:
        return "D%d" % k
    if arms == [1, 2, 2]:
        return "E6"
    if arms == [1, 2, 3]:
        return "E7"
    if arms == [1, 2, 4]:
        return "E8"
    return None


def affine_type(M, verts):
    """Affine-type name of a connected subset, or None."""
    verts = sorted(verts)
    k = len(verts)
    if k < 2:
        return None
    if k == 2:
        return "A~1" if M.rows[verts[0]][verts[1]] == INF else None
    edges = _edges(M, verts)
    labels = [lab for _, _, lab in edges]
    if any(lab == INF for lab in labels):
        return None
    deg = _degrees(verts, edges)
    if len(edges) == k:
        if all(lab == 3 for lab in labels) and all(d == 2 for d in deg.values()):
            return "A~%d" % (k - 1)
        return None
    if len(edges) != k - 1:
        return None
    if k == 5 and sorted(deg.values()) == [1, 1, 1, 1, 4] and all(lab == 3 for lab in labels):
        return "D~4"
    if any(d > 3 for d in deg.values()):
        return None
    branches = [v for v in verts if deg[v] == 3]
    if not branches:
        seq = _path_labels(verts, edges)
        if k == 3:
            if sorted(seq) == [4, 4]:
                return "B~2"
            if sorted(seq) == [3, 6]:
                return "G~2"
            return None
        if seq[0] == 4 and seq[-1] == 4 and all(lab == 3 for lab in seq[1:-1]):
            return "C~%d" % (k - 1)
        if k == 5 and seq in ([3, 3, 4, 3], [3, 4, 3, 3]):
            return "F~4"
        return None
    if len(branches) == 1:
        seqs = sorted(_arm_seqs(verts, edges, branches[0]), key=lambda s: (len(s), s))
        if all(lab == 3 for lab in labels):
            lens = sorted(len(s) for s in seqs)
            if lens == [2, 2, 2]:
                return "E~6"
            if lens == [1, 3, 3]:
                return "E~7"
            if lens == [1, 2, 5]:
                return "E~8"
            return None
        if labels.count(4) == 1 and all(lab in (3, 4) for lab in labels) and len(seqs) == 3:
            a0, a1, a2 = seqs
            if a0 == [3] and a1 == [3] and all(lab == 3 for lab in a2[:-1]) and a2[-1] == 4:
                return "B~%d" % (k - 1)
        return None
    if len(branches) == 2:
        if all(lab == 3 for lab in labels):
            b1, b2 = branches
            if _arms(verts, edges, b1)[:2] == [1, 1] and _arms(verts, edges, b2)[:2] == [1, 1]:
                return "D~%d" % (k - 1)
    return None


def _arm_seqs(verts, edges, center):
    """Label sequences read outward along each arm of a single branch vertex."""
    adj = {v: [] for v in verts}
    for i, j, lab in edges:
        adj[i].append((j, lab))
        adj[j].append((i, lab))
    seqs = []
    for first, lab0 in adj[center]:
        seq = [lab0]
        prev, cur = center, first
        while True:
            nxt = [(w, lab) for w, lab in adj[cur] if w != prev]
            if not nxt:
                break
            w, lab = nxt[0]
            seq.append(lab)
            prev, cur = cur, w
        seqs.append(seq)
    return seqs


_ORDERS = {"E6": 51840, "E7": 2903040, "E8": 696729600,
           "F4": 1152, "H3": 120, "H4": 14400}


def _type_order(name):
    if name in _ORDERS:
        return _ORDERS[name]
    if name.startswith("I2("):
        return 2 * int(name[3:-1])
    if name == "A2":
        return 6
    if name == "B2":
        return 8
    if name == "G2":
        return 12
    fam, k = name[0], int(name[1:])
    if fam == "A":
        return math.factorial(k + 1)
    if fam == "B":
        return (1 << k) * math.factorial(k)
    if fam == "D":
        return (1 << (k - 1)) * math.factorial(k)
    raise ValueError(name)


def _sub_components(M, J):
    J = sorted(J)
    seen = set()
    comps = []
    for start in J:
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in J:
                if w not in comp and M.rows[v][w] != 2:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        comps.append(tuple(sorted(comp)))
    return comps


def is_spherical(M, J):
    """Whether W_J is finite, by the type tables."""
    return all(spherical_type(M, comp) is not None for comp in _sub_components(M, J))


def spherical_order(M, J):
    """|W_J| when finite, else None."""
    order = 1
    for comp in _sub_components(M, J):
        name = spherical_type(M, comp)
        if name is None:
            return None
        order *= _type_order(name)
    return order


def has_442_triangle(M):
    """Any three generators with pairwise orders {4, 4, 2}."""
    for i, j, k in combinations(range(M.n), 3):
        if sorted((M.rows[i][j], M.rows[i][k], M.rows[j][k])) == [2, 4, 4]:
            return True
    return False


def has_affine_subdiagram_rank_ge3(M):
    """Whether some subset of >= 3 generators induces an irreducible affine diagram."""
    n = M.n
    for k in range(3, min(n, 9) + 1):
        for sub in combinations(range(n), k):
            if is_irreducible(M, sub) and affine_type(M, sub) is not None:
                return True
    return False


@dataclass(frozen=True)
class DiagramClassification:
    """Per-component types plus the global flags downstream decisions consume."""

    components: tuple
    spherical_types: tuple
    affine_types: tuple
    is_spherical: bool
    is_affine: bool
    is_even: bool
    is_right_angled: bool
    is_crystallographic: bool
    has_442_triangle: bool
    has_affine_subdiagram_rank_ge3: bool


def classify(M):
    comps = components(M)
    sph = tuple(spherical_type(M, c) for c in comps)
    aff = tuple(affine_type(M, c) for c in comps)
    return DiagramClassification(
        components=comps,
        spherical_types=sph,
        affine_types=aff,
        is_spherical=all(t is not None for t in sph),
        is_affine=all(s is not None or a is not None for s, a in zip(sph, aff))
        and any(a is not None for a in aff),
        is_even=is_even(M),
        is_right_angled=is_right_angled(M),
        is_crystallographic=is_crystallographic(M),
        has_442_triangle=has_442_triangle(M),
        has_affine_subdiagram_rank_ge3=has_affine_subdiagram_rank_ge3(M),
    )


def theorem12_applicable(M):
    """Even and free of (4,4,2) triangles."""
    return is_even(M) and not has_442_triangle(M)
