"""The three benchmark workloads: seeded inputs, queries and answer checks.

Every workload is a closed loop with one client in one process: the next
query is issued only after the previous one returned and was checked.
Inputs come from the seed alone and are generated with the independent
models in checker.py, so set-up does not warm coxkit's own caches.

A query is a thunk that makes the library calls (or one cli.run
invocation) and a judge that runs outside the timed region.  The judge
returns True for a definite answer and False for an undecided one, and
raises CheckFailed for a wrong one.

Each workload's census is census_rounds whole rounds of its query shapes.
Every run completes it, and the counted metrics are taken over it.
"""

import random
from dataclasses import replace
from itertools import permutations
from pathlib import Path

import coxkit
from coxkit import cli
from checker import CheckFailed, Checker, inverse, is_crystallographic

I = float("inf")

# The budgets are fixed per workload and there is no wall-clock timeout, so
# which queries end undecided depends on the seed and the code, never on the
# machine.  session-conj cuts radius (8 -> 4), steps (10**6 -> 20000) and
# class_cap (2048 -> 256) on every matrix: with the full defaults the first
# 100 queries of seed 3 took 122 s instead of 3.5 s at the seed commit, with
# the same verdict on every query, since a few open pairs search until the
# larger limits run out.  It keeps the library's order_cap (128) on C~2,
# where the order probe is the cost to watch, and cuts it to 8 on the other
# matrices.  8 covers every finite order there except products of order 12
# in I2(4)xI2(6), which brute force decides.  Cap 128 on every matrix
# doubled the time of a query and left too few queries in a run for steady
# figures.
WORDS_STEPS = 4000
CONJ_BUDGET = coxkit.SearchBudget(radius=4, steps=20000, class_cap=256, order_cap=8)
CONJ_BUDGETS = {"C2t": replace(CONJ_BUDGET, order_cap=128)}


def right_angled_cycle(n):
    """Right-angled n-gon: neighbours on the cycle commute, the rest are free."""
    return [[1 if i == j else (2 if (i - j) % n in (1, n - 1) else I)
             for j in range(n)] for i in range(n)]


MATRICES = {
    "C2t": [[1, 4, 2], [4, 1, 4], [2, 4, 1]],
    "G2t": [[1, 6, 2], [6, 1, 3], [2, 3, 1]],
    "ev4": [[1, 4, 4, 2], [4, 1, 4, 2], [4, 4, 1, 4], [2, 2, 4, 1]],
    "pent": right_angled_cycle(5),
    "sq": [[1, I, 2, I], [I, 1, I, 2], [2, I, 1, I], [I, 2, I, 1]],
    "C2tA1": [[1, 4, 2, 2], [4, 1, 4, 2], [2, 4, 1, 2], [2, 2, 2, 1]],
    "I4I6": [[1, 4, 2, 2], [4, 1, 2, 2], [2, 2, 1, 6], [2, 2, 6, 1]],
    "ra": [[1, 2, I], [2, 1, I], [I, I, 1]],
    "I24": [[1, 4], [4, 1]],
    "B3": [[1, 3, 2], [3, 1, 4], [2, 4, 1]],
    "H3": [[1, 5, 2], [5, 1, 3], [2, 3, 1]],
    "A4": [[1, 3, 2, 2], [3, 1, 3, 2], [2, 3, 1, 3], [2, 2, 3, 1]],
    "D4": [[1, 3, 2, 2], [3, 1, 3, 3], [2, 3, 1, 2], [2, 3, 2, 1]],
    "B4": [[1, 3, 2, 2], [3, 1, 3, 2], [2, 3, 1, 4], [2, 2, 4, 1]],
}

# Known diagram types, from the classification of spherical and affine
# diagrams rather than from coxkit.
SPHERICAL = {"I24", "B3", "H3", "A4", "D4", "B4"}
AFFINE = {"C2t"}


def random_word(rng, n, lo, hi):
    return tuple(rng.randrange(n) for _ in range(rng.randint(lo, hi)))


def random_element(rng, chk, lo, hi):
    """A ShortLex word of length lo..hi, drawn by rejection from words
    without a letter repeated back to back."""
    n = len(chk.rows)
    while True:
        w = [rng.randrange(n)]
        for _ in range(rng.randint(lo, hi) - 1):
            w.append((w[-1] + rng.randrange(1, n)) % n)
        w = chk.nf(w)
        if lo <= len(w) <= hi:
            return w


def same_parity(rng, chk, x):
    """A random element with the abelianization image of x."""
    odd = [a for a in range(len(chk.rows)) if x.count(a) % 2]
    for _ in range(rng.randint(0, 2)):
        a = rng.randrange(len(chk.rows))
        odd += [a, a]
    rng.shuffle(odd)
    return chk.nf(odd)


def fmt(w):
    return " ".join(str(a + 1) for a in w) if w else "e"


def parse(text):
    return () if text == "e" else tuple(int(t) - 1 for t in text.split())


class Rounds:
    """Seeded rounds over a fixed set of query shapes.

    Each round visits every shape once in a fresh shuffled order, so the
    mix of shapes is the same for every seed and only the arguments vary.
    This keeps the heavy shapes' share of a run, and so the end-to-end
    figures, steady across seeds.
    """

    def __init__(self, rng, shapes):
        self.rng = rng
        self.shapes = list(shapes)
        self.todo = []

    def next(self):
        if not self.todo:
            self.todo = self.shapes[:]
            self.rng.shuffle(self.todo)
        return self.todo.pop()


class Query:
    __slots__ = ("kind", "desc", "run", "judge")

    def __init__(self, kind, desc, run, judge):
        self.kind = kind
        self.desc = desc
        self.run = run
        self.judge = judge


class SessionWords:
    """Word arithmetic on long-lived matrices over a pool of reduced operands."""

    names = ("C2t", "G2t", "ev4", "pent")
    pool_size = 512
    census_rounds = 250

    def __init__(self, seed, workdir):
        rng = random.Random("session-words/%d" % seed)
        self.rng = rng
        self.sessions = []
        for name in self.names:
            rows = MATRICES[name]
            chk = Checker(rows)
            pool = [random_element(rng, chk, 6, 12) for _ in range(self.pool_size)]
            self.sessions.append((name, coxkit.coxeter_matrix(rows), chk, pool))
        self.inputs = [(name, pool) for name, _, _, pool in self.sessions]
        self.rounds = Rounds(rng, [(k, op) for k in range(len(self.sessions))
                                   for op in ("multiply", "conjugate", "invert", "reduce")])
        self.census = self.census_rounds * len(self.rounds.shapes)
        self.used = set()
        self.operands = 0
        self.repeated = 0
        self.asked = set()
        self.queries = 0
        self.repeated_queries = 0

    def _pick(self, pool):
        k = self.rng.randrange(len(pool))
        self.operands += 1
        self.repeated += (id(pool), k) in self.used
        self.used.add((id(pool), k))
        return pool[k]

    def next_query(self):
        k, op = self.rounds.next()
        name, M, chk, pool = self.sessions[k]
        a = self._pick(pool)
        E = coxkit.Element
        if op == "invert":
            b = ()
            want = inverse(a)
            run = lambda: coxkit.invert(M, E(a), WORDS_STEPS)
        else:
            b = self._pick(pool)
            if op == "multiply":
                want = a + b
                run = lambda: coxkit.multiply(M, E(a), E(b), WORDS_STEPS)
            elif op == "conjugate":
                want = a + b + inverse(a)
                run = lambda: coxkit.conjugate(M, E(a), E(b), WORDS_STEPS)
            else:
                want = a + inverse(b)
                run = lambda: coxkit.reduce(M, want, WORDS_STEPS)

        def judge(res):
            chk.expect_word(res.letters, want, "%s %s" % (op, name))
            return True

        desc = (name, op, a, b)
        self.queries += 1
        self.repeated_queries += desc in self.asked
        self.asked.add(desc)
        return Query(op, desc, run, judge)

    @staticmethod
    def answer(res):
        return res.letters

    def report(self):
        return {"repeated_operand_share": self.repeated / max(1, self.operands),
                "repeated_query_share": self.repeated_queries / max(1, self.queries)}


class SessionConj:
    """Even-group conjugacy decisions plus certificate re-checks."""

    names = ("C2t", "sq", "ev4", "C2tA1", "I4I6")
    census_rounds = 3

    def __init__(self, seed, workdir):
        self.rng = random.Random("session-conj/%d" % seed)
        self.sessions = []
        for name in self.names:
            rows = MATRICES[name]
            self.sessions.append((name, coxkit.coxeter_matrix(rows), Checker(rows),
                                  CONJ_BUDGETS.get(name, CONJ_BUDGET)))
        self.inputs = list(self.names)
        self.rounds = Rounds(self.rng, [(k, known, length)
                                        for k in range(len(self.sessions))
                                        for known in (True, False)
                                        for length in range(2, 6)])
        self.census = self.census_rounds * len(self.rounds.shapes)

    def next_query(self):
        rng = self.rng
        k, known, length = self.rounds.next()
        name, M, chk, budget = self.sessions[k]
        x = random_element(rng, chk, length, length)
        if known:
            g = random_element(rng, chk, 1, 4)
            y = chk.nf(g + x + inverse(g))
        else:
            y = same_parity(rng, chk, x)
        E = coxkit.Element

        def run():
            d = coxkit.decide_conjugacy_even(M, E(x), E(y), budget)
            return d, coxkit.verify_decision(M, E(x), E(y), d, budget)

        def judge(res):
            d, verified = res
            if verified is not True:
                raise CheckFailed("verify_decision rejected %r on %s" % (d, name))
            if isinstance(d, coxkit.Conjugate):
                chk.expect_conjugator(d.g.letters, x, y, "conjugator on %s" % name)
                return True
            if isinstance(d, coxkit.NotConjugate):
                if known:
                    raise CheckFailed("%s: conjugate pair %s, %s reported not conjugate"
                                      % (name, x, y))
                cert = d.certificate
                if isinstance(cert, coxkit.OrderCertificate):
                    chk.expect_order(x, cert.order_x, budget.order_cap, name)
                    chk.expect_order(y, cert.order_y, budget.order_cap, name)
                return True
            return False

        return Query("conj-known" if known else "conj-open", (name, x, y), run, judge)

    @staticmethod
    def answer(res):
        d, _ = res
        if isinstance(d, coxkit.Conjugate):
            return ("conjugate", d.g.letters)
        if isinstance(d, coxkit.NotConjugate):
            return ("not-conjugate", type(d.certificate).__name__)
        return ("unknown", d.reason)

    def report(self):
        return {}


def diagram_automorphisms(rows):
    n = len(rows)
    return [p for p in permutations(range(n))
            if any(p[i] != i for i in range(n))
            and all(rows[p[i]][p[j]] == rows[i][j] for i in range(n) for j in range(n))]


def spec_text(images, inverses):
    n = len(images)
    lines = ["%d -> %s" % (i + 1, fmt(images[i])) for i in range(n)]
    lines.append("")
    lines += ["%d -> %s" % (i + 1, fmt(inverses[i])) for i in range(n)]
    return "\n".join(lines) + "\n"


def matrix_text(rows):
    body = [" ".join("inf" if m == I else str(m) for m in r) for r in rows]
    return "\n".join([str(len(rows))] + body) + "\n"


def retraction_sets(rows):
    """Proper nonempty I with every crossing entry even or infinite."""
    n = len(rows)
    out = []
    for mask in range(1, (1 << n) - 1):
        J = [s for s in range(n) if mask >> s & 1]
        if all(rows[s][t] == I or rows[s][t] % 2 == 0
               for s in J for t in range(n) if t not in J):
            out.append(J)
    return out


class CliCold:
    """In-process cli.run invocations of every subcommand on matrix files."""

    # Subcommand -> matrices it runs on.  The left-out pairs cost seconds to
    # minutes per invocation at the seed commit under the CLI's default
    # budget: pc, separate and undecided conj on B4 build its 384-element
    # model or separation plan (6-7 s), autcheck and smallwords on rank-4
    # infinite groups and B4 take 5-94 s, pc on ev4 and sq up to 4.7 s, and
    # conj on the infinite even groups 0.4-4 s with radius 8 (on ra it also
    # adds 6 MB to the peak RSS now and then).  A handful of such queries
    # would decide a whole run's figures; session-conj measures the even
    # decisions instead.  separate and smallwords on D4 (0.5 s each) are left
    # out so that the slowest shapes, autcheck on C~2, ra, H3 and A4
    # (0.3-0.6 s), stay well under a tenth of the mix: with them at a tenth,
    # the 90th percentile sat in the gap below them and jumped between runs.
    TARGETS = {
        "classify": ("C2t", "ra", "I24", "B3", "H3", "A4", "D4", "B4", "ev4", "sq"),
        "reduce": ("C2t", "ra", "I24", "B3", "H3", "A4", "D4", "B4", "ev4", "sq"),
        "conj": ("I24", "B3", "H3", "A4", "D4"),
        "pc": ("C2t", "ra", "I24", "B3", "H3", "A4", "D4"),
        "retract": ("C2t", "ra", "I24", "B3", "B4", "ev4", "sq"),
        "separate": ("C2t", "ra", "I24", "B3", "H3", "A4", "ev4", "sq"),
        "autcheck": ("C2t", "ra", "I24", "B3", "H3", "A4"),
        "smallwords": ("C2t", "ra", "I24", "B3", "H3", "A4"),
    }
    census_rounds = 2

    def __init__(self, seed, workdir):
        rng = random.Random("cli-cold/%d" % seed)
        self.rng = rng
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.files = {}
        self.inputs = []
        for name in sorted({m for ms in self.TARGETS.values() for m in ms}):
            rows = MATRICES[name]
            path = self.workdir / ("%s.mat" % name)
            path.write_text(matrix_text(rows))
            self.files[name] = (str(path), rows, Checker(rows), diagram_automorphisms(rows))
            self.inputs.append((name, matrix_text(rows)))
        self.rounds = Rounds(rng, [(sub, name) for sub in sorted(self.TARGETS)
                                   for name in self.TARGETS[sub]])
        self.census = self.census_rounds * len(self.rounds.shapes)

    def next_query(self):
        sub, name = self.rounds.next()
        path, rows, chk, flips = self.files[name]
        self.spec = None
        argv, judge = getattr(self, "_" + sub)(self.rng, name, path, rows, chk, flips)
        argv = [sub] + argv
        desc = tuple(a.replace(str(self.workdir), "") for a in argv) + (self.spec,)

        def run():
            return cli.run(argv)

        def checked(res):
            code, out = res
            if code == 1:
                raise CheckFailed("%s: exit 1 on valid input: %s" % (desc, out))
            judge(dict(out))
            return code == 0

        return Query(sub, desc, run, checked)

    def _spec(self, rng, rows, chk, flips):
        """A fresh spec file: a diagram flip or conjugation by a seeded g."""
        n = len(rows)
        if flips and rng.random() < 1 / 3:
            p = rng.choice(flips)
            inv = [p.index(i) for i in range(n)]
            kind, images, inverses = "flip", [(p[i],) for i in range(n)], [(inv[i],) for i in range(n)]
        else:
            g = random_element(rng, chk, 1, 3)
            images = [chk.nf(g + (i,) + inverse(g)) for i in range(n)]
            inverses = [chk.nf(inverse(g) + (i,) + g) for i in range(n)]
            kind = "inner"
        sp = self.workdir / "query.aut"
        self.spec = spec_text(images, inverses)
        sp.write_text(self.spec)
        return kind, str(sp), images

    @staticmethod
    def answer(res):
        code, out = res
        return (code, tuple(out))

    def report(self):
        return {}

    # One maker per subcommand: (extra argv, judge of the key-value report).

    @staticmethod
    def _verify(rng):
        """A quarter of the invocations ask the CLI to re-verify its answer."""
        return ["--verify"] if rng.random() < 0.25 else []

    def _classify(self, rng, name, path, rows, chk, flips):
        n = len(rows)
        def judge(kv):
            offdiag = [rows[i][j] for i in range(n) for j in range(n) if i != j]
            want = {
                "is_spherical": name in SPHERICAL,
                "is_affine": name in AFFINE,
                "is_even": all(m == I or m % 2 == 0 for m in offdiag),
                "is_right_angled": all(m in (2, I) for m in offdiag),
                "is_crystallographic": is_crystallographic(rows),
            }
            for key, val in want.items():
                if kv.get(key) != ("true" if val else "false"):
                    raise CheckFailed("classify %s: %s is %s" % (name, key, kv.get(key)))
        return [path], judge

    def _reduce(self, rng, name, path, rows, chk, flips):
        n = len(rows)
        w = random_word(rng, n, 2, 12)

        def judge(kv):
            chk.expect_word(parse(kv["reduced"]), w, "reduce %s" % name)
        return [path, fmt(w)] + self._verify(rng), judge

    def _conj(self, rng, name, path, rows, chk, flips):
        x = random_element(rng, chk, 1, 4)
        known = rng.random() < 0.5
        if known:
            g = random_element(rng, chk, 1, 3)
            y = chk.nf(g + x + inverse(g))
        else:
            y = random_element(rng, chk, 1, 4)

        def judge(kv):
            verdict = kv["verdict"]
            if verdict == "conjugate":
                chk.expect_conjugator(parse(kv["conjugator"]), x, y, "conj %s" % name)
            elif verdict == "not-conjugate" and known:
                raise CheckFailed("conj %s: conjugate pair %s, %s reported not conjugate"
                                  % (name, x, y))
        return [path, fmt(x), fmt(y)] + self._verify(rng), judge

    def _pc(self, rng, name, path, rows, chk, flips):
        x = random_element(rng, chk, 1, 6)

        def judge(kv):
            if kv["status"] in ("exact", "bounded"):
                g = parse(kv["parabolic_g"])
                J = [] if kv["parabolic_J"] == "-" else [int(t) - 1 for t in kv["parabolic_J"].split(",")]
                chk.expect_in_parabolic(g, J, x, "pc %s" % name)
        return [path, fmt(x)] + self._verify(rng), judge

    def _retract(self, rng, name, path, rows, chk, flips):
        n = len(rows)
        J = rng.choice(retraction_sets(rows))
        w = random_word(rng, n, 2, 10)

        def judge(kv):
            chk.expect_word(parse(kv["result"]), tuple(a for a in w if a in J),
                            "retract %s" % name)
        return [path, ",".join(str(s + 1) for s in J), fmt(w)] + self._verify(rng), judge

    def _separate(self, rng, name, path, rows, chk, flips):
        x = random_element(rng, chk, 1, 4)
        known = rng.random() < 0.5
        if known:
            g = random_element(rng, chk, 1, 3)
            y = chk.nf(g + x + inverse(g))
        else:
            y = random_element(rng, chk, 1, 4)
        plan = rng.random() < 0.25

        def judge(kv):
            if kv["verdict"] == "separated" and (known or x == y):
                raise CheckFailed("separate %s: conjugate pair %s, %s reported separated"
                                  % (name, x, y))
        return [path, fmt(x), fmt(y)] + (["--plan"] if plan else []) + self._verify(rng), judge

    def _autcheck(self, rng, name, path, rows, chk, flips):
        n = len(rows)
        kind, sp, images = self._spec(rng, rows, chk, flips)

        def judge(kv):
            if kv.get("verified") != "yes":
                raise CheckFailed("autcheck %s: valid spec rejected" % name)
            ibg = kv.get("inner_by_graph")
            if ibg == "no":
                raise CheckFailed("autcheck %s: %s automorphism is inner-by-graph" % (name, kind))
            if ibg == "yes":
                w = parse(kv["w"])
                perm = [int(t) - 1 for t in kv["perm"].split()]
                for i in range(n):
                    chk.expect_conjugator(w, images[i], (perm[i],), "autcheck %s" % name)
        return [path, sp] + self._verify(rng), judge

    def _smallwords(self, rng, name, path, rows, chk, flips):
        n = len(rows)
        kind, sp, images = self._spec(rng, rows, chk, flips)

        def judge(kv):
            if kv.get("verified") != "yes":
                raise CheckFailed("smallwords %s: valid spec rejected" % name)
            verdict = kv["verdict"]
            if verdict == "inner":
                g = parse(kv["g"])
                for i in range(n):
                    chk.expect_conjugator(g, (i,), images[i], "smallwords %s" % name)
            elif verdict == "not-pointwise-small":
                if kind == "inner":
                    raise CheckFailed("smallwords %s: inner automorphism not pointwise small"
                                      % name)
                w = parse(kv["witness"])
                chk.expect_word(parse(kv["image"]), sum((images[a] for a in w), ()),
                                "smallwords image %s" % name)
        return [path, sp] + self._verify(rng), judge


WORKLOADS = {
    "session-words": SessionWords,
    "session-conj": SessionConj,
    "cli-cold": CliCold,
}
