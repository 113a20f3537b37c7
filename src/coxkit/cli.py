"""The coxkit command line: batch jobs over matrix, word and spec files.

Reports are machine-readable key-value lines under a schema tag, budgets
are always echoed, and identical invocations produce identical bytes.
Exit status 0 means decided, 2 undecided or out of budget, 1 bad input,
3 a failed --verify re-check.
"""

import argparse
import sys

from . import autcompat
from .budgets import DEFAULT, SearchBudget
from .diagram import classify, parse_matrix, theorem12_applicable
from .evenconj import (ClosedClassCertificate, ComponentCertificate,
                       Conjugate, CriterionCertificate, NotConjugate,
                       OrderCertificate, QuotientCertificate,
                       decide_conjugacy, retract, retraction_valid,
                       verify_decision)
from .parabolic import PcBounded, PcExact, member, pc_element
from .quotients import SeparationWitness, separate, separation_plan
from .words import (BudgetExceeded, Element, IDENTITY, braid_class,
                    conjugate, format_word, parse_word, reduce)

SCHEMA = "coxkit/1"


class InputError(Exception):
    pass


class VerifyFailed(Exception):
    pass


def _read_file(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as e:
        raise InputError("cannot read %s: %s" % (path, e.strerror))


def _load_matrix(path):
    try:
        return parse_matrix(_read_file(path))
    except ValueError as e:
        raise InputError("%s: %s" % (path, e))


def _load_word(M, text, what):
    try:
        return parse_word(text, M.n)
    except ValueError as e:
        raise InputError("%s: %s" % (what, e))


def _load_indexset(M, text):
    text = text.strip()
    if text == "-":
        return frozenset()
    try:
        idx = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise InputError("index set %r: expected comma-separated integers" % text)
    for i in idx:
        if not 1 <= i <= M.n:
            raise InputError("index %d out of range 1..%d" % (i, M.n))
    return frozenset(i - 1 for i in idx)


def _fmt_indexset(J):
    return ",".join(str(i + 1) for i in sorted(J)) if J else "-"


def _fmt_bool(b):
    return "true" if b else "false"


def _cert_lines(cert, prefix=""):
    """Flatten a non-conjugacy certificate into report lines."""
    out = []
    if isinstance(cert, OrderCertificate):
        out.append((prefix + "certificate", "order-mismatch"))
        out.append((prefix + "order_x", str(cert.order_x or "inf")))
        out.append((prefix + "order_y", str(cert.order_y or "inf")))
    elif isinstance(cert, QuotientCertificate):
        w = cert.witness
        out.append((prefix + "certificate", "quotient"))
        out.append((prefix + "quotient", w.hom.label))
        out.append((prefix + "image_x", w.hom.image.show(w.x_img)))
        out.append((prefix + "image_y", w.hom.image.show(w.y_img)))
    elif isinstance(cert, ClosedClassCertificate):
        out.append((prefix + "certificate", "closed-class"))
        out.append((prefix + "class_size", str(cert.class_size)))
    elif isinstance(cert, ComponentCertificate):
        out.append((prefix + "certificate", "component"))
        out.append((prefix + "component", _fmt_indexset(cert.component)))
        out.extend(_cert_lines(cert.sub, prefix + "component_"))
    elif isinstance(cert, CriterionCertificate):
        out.append((prefix + "certificate", "retraction-criterion"))
        out.append((prefix + "I", _fmt_indexset(cert.I)))
        out.append((prefix + "J", _fmt_indexset(cert.J)))
        out.append((prefix + "condition", str(cert.condition)))
        out.append((prefix + "a", format_word(cert.a)))
        out.append((prefix + "b", format_word(cert.b)))
        out.extend(_cert_lines(cert.sub, prefix + "sub_"))
    else:
        out.append((prefix + "certificate", type(cert).__name__))
    return out


def _check(cond, what):
    """Fail a --verify re-check; unlike assert, this also runs under python -O."""
    if not cond:
        raise VerifyFailed(what)


def _cmd_classify(M, args, budget, out):
    c = classify(M)
    out.append(("components", " | ".join(
        " ".join(str(i + 1) for i in comp) for comp in c.components)))
    out.append(("spherical_types", " | ".join(t or "-" for t in c.spherical_types)))
    out.append(("affine_types", " | ".join(t or "-" for t in c.affine_types)))
    for key in ("is_spherical", "is_affine", "is_even", "is_right_angled",
                "is_crystallographic", "has_442_triangle",
                "has_affine_subdiagram_rank_ge3"):
        out.append((key, _fmt_bool(getattr(c, key))))
    out.append(("theorem12_applicable", _fmt_bool(theorem12_applicable(M))))
    return 0


def _cmd_reduce(M, args, budget, out):
    w = _load_word(M, args.word, "word")
    r = reduce(M, w, budget.steps)
    out.append(("input", format_word(w)))
    out.append(("reduced", format_word(r)))
    out.append(("length", str(len(r.letters))))
    if args.verify:
        _check(reduce(M, w + tuple(reversed(r.letters)), budget.steps) == IDENTITY,
               "word times inverse of its reduction")
        cls = braid_class(M, r, budget.steps)
        _check(r.letters == min(cls, key=lambda c: (len(c), c)),
               "ShortLex-least word of the braid class")
        out.append(("verify", "ok"))
    return 0


def _cmd_conj(M, args, budget, out):
    x = reduce(M, _load_word(M, args.word_x, "first word"), budget.steps)
    y = reduce(M, _load_word(M, args.word_y, "second word"), budget.steps)
    out.append(("x", format_word(x)))
    out.append(("y", format_word(y)))
    d = decide_conjugacy(M, x, y, budget)
    if isinstance(d, Conjugate):
        out.append(("verdict", "conjugate"))
        out.append(("conjugator", format_word(d.g)))
        code = 0
    elif isinstance(d, NotConjugate):
        out.append(("verdict", "not-conjugate"))
        out.extend(_cert_lines(d.certificate))
        code = 0
    else:
        out.append(("verdict", "unknown"))
        out.append(("reason", d.reason))
        code = 2
    if args.verify and code == 0:
        _check(verify_decision(M, x, y, d, budget), "conjugacy certificate")
        out.append(("verify", "ok"))
    return code


def _cmd_pc(M, args, budget, out):
    x = reduce(M, _load_word(M, args.word, "word"), budget.steps)
    out.append(("x", format_word(x)))
    res = pc_element(M, x, budget)
    if isinstance(res, PcExact):
        out.append(("status", "exact"))
        P = res.parabolic
        code = 0
    elif isinstance(res, PcBounded):
        out.append(("status", "bounded"))
        out.append(("within_radius", str(res.radius)))
        P = res.parabolic
        code = 2
    else:
        out.append(("status", "unknown"))
        out.append(("reason", res.reason))
        return 2
    out.append(("parabolic_g", format_word(P.g)))
    out.append(("parabolic_J", _fmt_indexset(P.J)))
    if args.verify:
        _check(member(M, P, x, budget.steps), "x lies in its closure")
        out.append(("verify", "ok"))
    return code


def _cmd_retract(M, args, budget, out):
    I = _load_indexset(M, args.indexset)
    w = _load_word(M, args.word, "word")
    if not retraction_valid(M, I):
        raise InputError("retraction onto %s is not a homomorphism here"
                         % _fmt_indexset(I))
    r = retract(M, I, w, budget.steps)
    out.append(("I", _fmt_indexset(I)))
    out.append(("input", format_word(w)))
    out.append(("result", format_word(r)))
    if args.verify:
        kept = tuple(a for a in reduce(M, w, budget.steps).letters if a in I)
        _check(reduce(M, kept, budget.steps) == r, "retraction of the reduced word")
        _check(all(a in I for a in r.letters), "result lies in W_I")
        out.append(("verify", "ok"))
    return 0


def _cmd_separate(M, args, budget, out):
    x = reduce(M, _load_word(M, args.word_x, "first word"), budget.steps)
    y = reduce(M, _load_word(M, args.word_y, "second word"), budget.steps)
    out.append(("x", format_word(x)))
    out.append(("y", format_word(y)))
    transcript = []
    res = separate(M, x, y, budget=budget, transcript=transcript)
    if isinstance(res, SeparationWitness):
        out.append(("verdict", "separated"))
        out.append(("quotient", res.hom.label))
        out.append(("image_x", res.hom.image.show(res.x_img)))
        out.append(("image_y", res.hom.image.show(res.y_img)))
        code = 0
    else:
        out.append(("verdict", "not-found"))
        out.append(("tried", str(res.tried)))
        code = 2
    for k, (label, verdict) in enumerate(transcript):
        out.append(("plan_%d" % (k + 1), "%s: %s" % (label, verdict)))
    if args.verify and code == 0:
        xi = res.hom.image_of(x)
        yi = res.hom.image_of(y)
        _check(res.hom.image.are_conjugate(xi, yi) is False,
               "images not conjugate in the quotient")
        out.append(("verify", "ok"))
    return code


def _load_spec(M, path):
    try:
        return autcompat.parse_spec(_read_file(path), M.n)
    except ValueError as e:
        raise InputError("%s: %s" % (path, e))


def _compat_lines(name, res, out):
    if isinstance(res, autcompat.CompatYes):
        out.append((name, "yes"))
        out.append((name + "_witnesses", str(len(res.witnesses))))
    elif isinstance(res, autcompat.CompatNo):
        out.append((name, "no"))
        out.append((name + "_counterexample", _show_counterexample(res.counterexample)))
    else:
        out.append((name, "unknown"))


def _show_counterexample(ce):
    side, obj = ce[0], ce[1]
    if isinstance(obj, Element):
        body = format_word(obj)
    elif isinstance(obj, tuple) and obj and isinstance(obj[0], Element):
        body = ", ".join(format_word(o) for o in obj)
    else:
        body = ",".join(str(i + 1) for i in obj)
    return "side %d: %s" % (side, body)


def _cmd_autcheck(M, args, budget, out):
    spec = _load_spec(M, args.spec)
    v = autcompat.verify_automorphism(M, spec, budget.steps)
    if isinstance(v, autcompat.Invalid):
        out.append(("verified", "no"))
        out.append(("reason", v.reason))
        return 1
    out.append(("verified", "yes"))
    pair = autcompat.pair_from_spec(M, spec)
    # The verified inverse images write each generator as a word in S2.
    rep = autcompat.compat_report(M, pair, budget, check_generation=False)
    _compat_lines("reflection", rep.reflection, out)
    _compat_lines("angle", rep.angle, out)
    _compat_lines("parabolic", rep.parabolic, out)
    res = autcompat.inner_by_graph(M, spec, budget)
    if isinstance(res, autcompat.InnerByGraph):
        out.append(("inner_by_graph", "yes"))
        out.append(("w", format_word(res.w)))
        out.append(("perm", " ".join(str(i + 1) for i in res.perm)))
        if args.verify:
            for i in range(M.n):
                img = autcompat.apply_aut(M, spec, (i,), budget.steps)
                _check(conjugate(M, res.w, img, budget.steps) == Element((res.perm[i],)),
                       "w conjugates the image of generator %d" % (i + 1))
            out.append(("verify", "ok"))
        return 0
    if isinstance(res, autcompat.NotInnerByGraph):
        out.append(("inner_by_graph", "no"))
        out.append(("failed_condition", str(res.condition)))
        return 0
    out.append(("inner_by_graph", "unknown"))
    out.append(("reason", res.reason))
    return 2


def _cmd_smallwords(M, args, budget, out):
    spec = _load_spec(M, args.spec)
    v = autcompat.verify_automorphism(M, spec, budget.steps)
    if isinstance(v, autcompat.Invalid):
        out.append(("verified", "no"))
        out.append(("reason", v.reason))
        return 1
    out.append(("verified", "yes"))
    try:
        res = autcompat.smallwords_inner(M, spec, budget)
    except ValueError as e:
        raise InputError(str(e))
    if isinstance(res, autcompat.Inner):
        out.append(("verdict", "inner"))
        out.append(("g", format_word(res.g)))
        if args.verify:
            for i in range(M.n):
                img = autcompat.apply_aut(M, spec, (i,), budget.steps)
                _check(conjugate(M, res.g, Element((i,)), budget.steps) == img,
                       "g conjugates generator %d onto its image" % (i + 1))
            out.append(("verify", "ok"))
        return 0
    if isinstance(res, autcompat.NotPointwiseSmall):
        out.append(("verdict", "not-pointwise-small"))
        out.append(("witness", format_word(res.word)))
        out.append(("image", format_word(autcompat.apply_aut(M, spec, res.word,
                                                             budget.steps))))
        return 0
    out.append(("verdict", "unknown"))
    out.append(("reason", res.reason))
    return 2


_HANDLERS = {
    "classify": _cmd_classify,
    "reduce": _cmd_reduce,
    "conj": _cmd_conj,
    "pc": _cmd_pc,
    "retract": _cmd_retract,
    "separate": _cmd_separate,
    "autcheck": _cmd_autcheck,
    "smallwords": _cmd_smallwords,
}


def _add_flags(p, top):
    """The shared flags; subparsers suppress defaults so either side wins."""
    d = (lambda v: v) if top else (lambda v: argparse.SUPPRESS)
    p.add_argument("--radius", type=int, default=d(DEFAULT.radius),
                   help="conjugation search radius (default %d)" % DEFAULT.radius)
    p.add_argument("--steps", type=int, default=d(DEFAULT.steps),
                   help="braid rewriting step cap (default %d)" % DEFAULT.steps)
    p.add_argument("--cosets", type=int, default=d(DEFAULT.cosets),
                   help="coset enumeration cap (default %d)" % DEFAULT.cosets)
    p.add_argument("--verify", action="store_true", default=d(False),
                   help="re-verify certificates with the word engine")
    p.add_argument("--plan", action="store_true", default=d(False),
                   help="list the separation plan for the matrix")


def _build_parser():
    p = argparse.ArgumentParser(prog="coxkit",
                                description="Coxeter group toolkit batch jobs.")
    _add_flags(p, top=True)
    sub = p.add_subparsers(dest="command", required=True)

    def cmd(name, *params):
        sp = sub.add_parser(name)
        _add_flags(sp, top=False)
        sp.add_argument("matrix")
        for q in params:
            sp.add_argument(q)
        return sp

    cmd("classify")
    cmd("reduce", "word")
    cmd("conj", "word_x", "word_y")
    cmd("pc", "word")
    cmd("retract", "indexset", "word")
    cmd("separate", "word_x", "word_y")
    cmd("autcheck", "spec")
    cmd("smallwords", "spec")
    return p


def run(argv):
    args = _build_parser().parse_args(argv)
    if args.radius < 1 or args.steps < 1 or args.cosets < 1:
        raise InputError("budgets must be positive")
    budget = SearchBudget(radius=args.radius, steps=args.steps,
                          cosets=args.cosets)
    out = [("schema", SCHEMA), ("command", args.command),
           ("radius", str(budget.radius)), ("steps", str(budget.steps)),
           ("cosets", str(budget.cosets))]
    M = _load_matrix(args.matrix)
    code = _HANDLERS[args.command](M, args, budget, out)
    if args.plan:
        for k, hom in enumerate(separation_plan(M, budget)):
            out.append(("available_quotient_%d" % (k + 1), hom.label))
    return code, out


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    try:
        code, out = run(argv)
    except InputError as e:
        print("schema: %s" % SCHEMA)
        print("error: %s" % e)
        return 1
    except BudgetExceeded as e:
        print("schema: %s" % SCHEMA)
        print("error: budget exceeded: %s" % e)
        return 2
    except VerifyFailed as e:
        print("schema: %s" % SCHEMA)
        print("error: verify failed: %s" % e)
        return 3
    for key, val in out:
        print("%s: %s" % (key, val))
    return code


if __name__ == "__main__":
    sys.exit(main())
