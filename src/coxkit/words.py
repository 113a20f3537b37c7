"""Exact word arithmetic in a Coxeter group.

The canonical form of an element is the ShortLex-least member of its braid
class, with generators ordered by index.  When every m_ij lies in
{2, 3, 4, 6, inf}, reduction reads it off the integer root action
(`roots`), at one budget step per letter.  Otherwise it searches braid
classes, since two reduced words spell the same element iff they are
connected by braid moves, at one step per new word.  Every search takes an
explicit step budget and raises rather than silently truncating.
"""

from dataclasses import dataclass
from functools import lru_cache, partial

from .budgets import DEFAULT
from .diagram import INF, component_ids, submatrix
from .roots import cartan, shortlex

DEFAULT_STEPS = DEFAULT.steps


class BudgetExceeded(RuntimeError):
    """A braid-class search ran past its step budget."""


@dataclass(frozen=True)
class Element:
    """Group element held as its canonical reduced word."""

    letters: tuple = ()

    def __len__(self):
        return len(self.letters)

    def __repr__(self):
        return "Element(%s)" % (",".join(str(a + 1) for a in self.letters) or "e")


IDENTITY = Element()


def generator(s):
    return Element((s,))


def support(w):
    """The set of letters appearing in a word or element."""
    if isinstance(w, Element):
        w = w.letters
    return frozenset(w)


def parse_word(text, n):
    """Read 1-based indices separated by whitespace; 'e' is the empty word."""
    text = text.strip()
    if text == "e" or text == "":
        return ()
    letters = []
    for tok in text.split():
        try:
            a = int(tok)
        except ValueError:
            raise ValueError("bad word letter %r" % tok)
        if not 1 <= a <= n:
            raise ValueError("letter %d out of range 1..%d" % (a, n))
        letters.append(a - 1)
    return tuple(letters)


def format_word(w):
    if isinstance(w, Element):
        w = w.letters
    return " ".join(str(a + 1) for a in w) if w else "e"


@lru_cache(maxsize=None)
def _alt(s, t, m):
    return tuple(s if i % 2 == 0 else t for i in range(m))


def _neighbors(rows, w):
    """(i, word) for each word one braid move at position i away."""
    out = []
    L = len(w)
    for i in range(L - 1):
        s, t = w[i], w[i + 1]
        if s == t:
            continue
        m = rows[s][t]
        if m == INF or m > L - i:
            continue
        if w[i:i + m] == _alt(s, t, m):
            out.append((i, w[:i] + _alt(t, s, m) + w[i + m:]))
    return out


def _scan_pair(w):
    for i in range(len(w) - 1):
        if w[i] == w[i + 1]:
            return i
    return None


def _braid_orbit(M, w, budget):
    """_orbit over the braid moves of w, charging one budget step per new
    word; 'found' at the first word with an adjacent repeated letter, else
    'closed' with w's braid class, in which case w is reduced."""

    def stop(v):
        if v is w:  # the start word is not new
            return False
        budget[0] -= 1
        if budget[0] < 0:
            raise BudgetExceeded("braid search exceeded %d steps" % budget[1])
        return _scan_pair(v) is not None

    return _orbit(w, partial(_neighbors, M.rows), stop=stop)


def _reduce_single(M, w, budget):
    while True:
        i = _scan_pair(w)
        if i is not None:
            w = w[:i] + w[i + 2:]
            continue
        if len(w) < 2:
            return w
        status, parent = _braid_orbit(M, w, budget)
        if status == "closed":
            return min(parent)
        w = next(reversed(parent))


def _merge(parts):
    """Smallest-head merge of canonical words over commuting supports."""
    parts = [list(p) for p in parts if p]
    out = []
    while parts:
        k = min(range(len(parts)), key=lambda i: parts[i][0])
        out.append(parts[k].pop(0))
        if not parts[k]:
            parts.pop(k)
    return tuple(out)


def _reduce_letters(M, w, budget):
    cache = M._cache.setdefault("reduce", {})
    hit = cache.get(w)
    if hit is not None:
        return hit
    A = cartan(M)
    if A is not None:
        budget[0] -= len(w)  # one step per letter
        if budget[0] < 0:
            raise BudgetExceeded("root action exceeded %d steps" % budget[1])
        res = shortlex(A, w)
    else:
        ids = component_ids(M)
        present = sorted({ids[a] for a in w})
        if len(present) > 1:
            parts = [_reduce_letters(M, tuple(a for a in w if ids[a] == c), budget)
                     for c in present]
            res = _merge(parts)
        else:
            res = _reduce_single(M, w, budget)
    cache[w] = res
    cache[res] = res
    return res


def _check(cond, what):
    """An internal consistency check that, unlike assert, also runs under python -O."""
    if not cond:
        raise AssertionError(what)


def _check_letters(M, w):
    for a in w:
        if not isinstance(a, int) or not 0 <= a < M.n:
            raise ValueError("letter %r out of range for rank %d" % (a, M.n))


def reduce(M, w, steps=DEFAULT_STEPS):
    """Canonical form of a word as an Element."""
    if isinstance(w, Element):
        w = w.letters
    w = tuple(w)
    _check_letters(M, w)
    budget = [steps, steps]
    return Element(_reduce_letters(M, w, budget))


def multiply(M, a, b, steps=DEFAULT_STEPS):
    budget = [steps, steps]
    return Element(_reduce_letters(M, a.letters + b.letters, budget))


def invert(M, a, steps=DEFAULT_STEPS):
    budget = [steps, steps]
    return Element(_reduce_letters(M, a.letters[::-1], budget))


def conjugate(M, g, x, steps=DEFAULT_STEPS):
    """g x g^-1."""
    budget = [steps, steps]
    w = g.letters + x.letters + g.letters[::-1]
    return Element(_reduce_letters(M, w, budget))


def _restrict(M, S, w):
    """submatrix(M, S) and w's letters in S, relabelled into its coordinates.

    Dropping the other letters is the retraction onto W_S, or for a
    component S the projection onto that factor.
    """
    pos = {s: k for k, s in enumerate(sorted(S))}
    return submatrix(M, S), Element(tuple(pos[a] for a in w.letters if a in pos))


def length(M, w, steps=DEFAULT_STEPS):
    return len(reduce(M, w, steps))


def braid_class(M, w, steps=DEFAULT_STEPS):
    """All reduced words of the element spelled by the reduced word w."""
    if isinstance(w, Element):
        w = w.letters
    w = tuple(w)
    _check_letters(M, w)
    budget = [steps, steps]
    if len(_reduce_letters(M, w, budget)) != len(w):
        raise ValueError("word is not reduced")
    return frozenset(_braid_orbit(M, w, budget)[1])


def reflections_of(M, w, steps=DEFAULT_STEPS):
    """The reflections s_1, s_1 s_2 s_1, ... read off a reduced word."""
    w = reduce(M, w, steps)
    out = []
    prefix = IDENTITY
    for s in w.letters:
        out.append(conjugate(M, prefix, Element((s,)), steps))
        prefix = multiply(M, prefix, Element((s,)), steps)
    return out


@dataclass(frozen=True)
class Infinite:
    """Marker: enumeration blew through its cap."""

    cap: int


def _orbit(start, neighbours, radius=None, cap=None, stop=None):
    """Breadth-first orbit of start.

    neighbours(p) lists (move, point) for the points one move away from p,
    in the order they are to be tried.  Returns (status, parent), where
    parent maps every point reached to (previous point, move) in discovery
    order, start to (None, None).  status is 'found' once stop holds for a
    point, which is then the last one in parent; 'exhausted' once more
    than cap points are known, or when points at distance radius remain;
    and 'closed' when the whole orbit is known.
    """
    parent = {start: (None, None)}
    if stop is not None and stop(start):
        return "found", parent
    level = [start]
    depth = 0
    while level:
        if radius is not None and depth >= radius:
            return "exhausted", parent
        depth += 1
        new = []
        for p in level:
            for m, q in neighbours(p):
                if q in parent:
                    continue
                parent[q] = (p, m)
                if stop is not None and stop(q):
                    return "found", parent
                if cap is not None and len(parent) > cap:
                    return "exhausted", parent
                new.append(q)
        level = new
    return "closed", parent


def _path_moves(parent, p):
    """The moves that lead from the start of an orbit to p, last move first."""
    out = []
    p, m = parent[p]
    while p is not None:
        out.append(m)
        p, m = parent[p]
    return out


def _right_orbit(M, gens, radius=None, cap=None, steps=DEFAULT_STEPS, stop=None):
    """Orbit of the identity under right multiplication by gens."""
    return _orbit(IDENTITY, lambda w: ((g, multiply(M, w, g, steps)) for g in gens),
                  radius, cap, stop)


def _generators(M):
    return [Element((s,)) for s in range(M.n)]


def enumerate_group(M, cap=10 ** 4, steps=DEFAULT_STEPS):
    """All elements by BFS on right multiplication, or Infinite(cap)."""
    status, parent = _right_orbit(M, _generators(M), cap=cap, steps=steps)
    return frozenset(parent) if status == "closed" else Infinite(cap)


def ball(M, radius, steps=DEFAULT_STEPS):
    """Elements of length <= radius, in ShortLex order."""
    _, parent = _right_orbit(M, _generators(M), radius, steps=steps)
    return sorted(parent, key=lambda e: (len(e.letters), e.letters))


@dataclass(frozen=True)
class Conjugator:
    """Witness g with g x g^-1 = y."""

    g: Element


@dataclass(frozen=True)
class NotFoundWithin:
    """No conjugator found; closed means the whole class was enumerated."""

    radius: int
    closed: bool = False
    class_size: int = 0


def _conj_orbit(M, x, targets=(), radius=None, cap=None, steps=DEFAULT_STEPS):
    """Orbit of x under conjugation by single generators.

    Returns _orbit's (status, parent), 'found' once every target has been
    reached; _conjugator reads off the conjugator of any point reached.
    """
    want, seen = frozenset(targets), set()

    def all_seen(z):
        if z in want:
            seen.add(z)
        return len(seen) == len(want)

    gens = _generators(M)
    return _orbit(x, lambda z: ((g, conjugate(M, g, z, steps)) for g in gens),
                  radius, cap, all_seen if want else None)


def _conjugator(M, parent, z, steps=DEFAULT_STEPS):
    """g with g x g^-1 = z, where x is the start of the conjugation orbit."""
    g = IDENTITY
    for s in reversed(_path_moves(parent, z)):
        g = multiply(M, s, g, steps)
    return g


def conjugate_search(M, x, y, radius=DEFAULT.radius, steps=DEFAULT_STEPS):
    """Look for g with g x g^-1 = y among conjugators of length <= radius."""
    x = reduce(M, x.letters if isinstance(x, Element) else x, steps)
    y = reduce(M, y.letters if isinstance(y, Element) else y, steps)
    status, parent = _conj_orbit(M, x, (y,), radius, steps=steps)
    if status == "found":
        g = _conjugator(M, parent, y, steps)
        _check(conjugate(M, g, x, steps) == y, "conjugation orbit conjugator")
        return Conjugator(g)
    return NotFoundWithin(radius, closed=(status == "closed"), class_size=len(parent))


def _min_support(M, x, budget):
    """The point of least support in x's conjugation orbit within the
    budget's radius and class_cap (then shortest, then lex-least), and the
    orbit's parent map."""
    _, parent = _conj_orbit(M, x, radius=budget.radius, cap=budget.class_cap,
                            steps=budget.steps)
    return min(parent, key=lambda z: (len(support(z)), len(z.letters), z.letters)), parent


def conjugacy_class(M, x, cap, steps=DEFAULT_STEPS):
    """Full conjugation orbit with conjugators, or None past the cap."""
    status, parent = _conj_orbit(M, x, cap=cap, steps=steps)
    if status != "closed":
        return None
    out = {}
    for z, (p, s) in parent.items():
        out[z] = IDENTITY if p is None else multiply(M, s, out[p], steps)
    return out


def element_order(M, x, cap=DEFAULT.order_cap, steps=DEFAULT_STEPS):
    """Order of x if found within cap powers, else None.

    Powers of an infinite-order element grow in length, so we also bail out
    once the reduced word for x^k gets much longer than x itself.
    """
    if x == IDENTITY:
        return 1
    maxlen = max(64, 16 * len(x.letters))
    acc = x
    k = 1
    while k <= cap:
        if acc == IDENTITY:
            return k
        if len(acc.letters) > maxlen:
            return None
        try:
            acc = multiply(M, acc, x, steps)
        except BudgetExceeded:
            return None
        k += 1
    return None
