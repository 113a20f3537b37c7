"""Conjugacy decisions in even Coxeter groups.

Standard parabolics of an even group are retracts: killing the generators
outside I is a homomorphism because every crossing relator has even
exponent.  The three-condition retraction criterion turns conjugacy of
x in W_I and y in W_J into three strictly smaller conjugacy problems, and
the decision procedure below runs that recursion, with brute force at the
finite floor and quotient separation as the fallback.  Conjugate and
NotConjugate always carry verified certificates; only Unknown may be
inconclusive.
"""

from dataclasses import dataclass, replace

from .budgets import DEFAULT
from .diagram import (components, embed_letters, is_even, is_spherical,
                      retraction_valid, spherical_order)
from .finite import class_search
from .quotients import (SeparationNotFound, SeparationWitness, abelianize_even,
                        separate)
from .words import (Element, IDENTITY, _check, _conj_orbit, _conjugator,
                    _min_support, _restrict, conjugate, element_order, invert,
                    multiply, reduce, support)


def retract(M, I, w, steps=DEFAULT.steps):
    """Delete the letters outside I and reduce."""
    if not retraction_valid(M, I):
        raise ValueError("retraction onto %s is not well defined" % sorted(I))
    I = frozenset(I)
    if isinstance(w, Element):
        w = w.letters
    return reduce(M, tuple(a for a in w if a in I), steps)


def retractions_commute_check(M, I, J):
    """Check rho_I rho_J = rho_J rho_I = rho_(I cap J) on all generators."""
    I, J = frozenset(I), frozenset(J)
    for s in range(M.n):
        g = Element((s,))
        a = retract(M, I, retract(M, J, g))
        b = retract(M, J, retract(M, I, g))
        c = retract(M, I & J, g)
        if not (a == b == c):
            return False
    return True


def retr_criterion(M, I, J, x, y, oracleI, oracleJ, oracleIJ):
    """The three-condition conjugacy test for x in W_I, y in W_J.

    The oracles decide conjugacy inside W_I, W_J and W_(I cap J); they
    receive ambient elements.  The conjunction equals conjugacy of x and
    y in the whole group, provided both retractions are well defined.
    """
    I, J = frozenset(I), frozenset(J)
    x, y = reduce(M, x), reduce(M, y)
    if not support(x) <= I:
        raise ValueError("x lies outside W_I")
    if not support(y) <= J:
        raise ValueError("y lies outside W_J")
    if not oracleI(x, retract(M, I, y)):
        return False
    if not oracleJ(retract(M, J, x), y):
        return False
    return bool(oracleIJ(retract(M, I & J, x), retract(M, I & J, y)))


@dataclass(frozen=True)
class Conjugate:
    g: Element


@dataclass(frozen=True)
class NotConjugate:
    certificate: object


@dataclass(frozen=True)
class Unknown:
    reason: str


@dataclass(frozen=True)
class OrderCertificate:
    """x and y have different finite orders."""

    order_x: int
    order_y: int


@dataclass(frozen=True)
class QuotientCertificate:
    """A finite quotient separates the conjugacy classes."""

    witness: SeparationWitness


@dataclass(frozen=True)
class ClosedClassCertificate:
    """The full conjugacy class of x was enumerated and y is not in it."""

    class_size: int


@dataclass(frozen=True)
class ComponentCertificate:
    """A diagram component on which the parts are not conjugate."""

    component: tuple
    sub: object


@dataclass(frozen=True)
class CriterionCertificate:
    """A failed retraction-criterion condition after moving x into W_I
    and y into W_J by the recorded conjugators."""

    I: frozenset
    J: frozenset
    condition: int
    sub: object
    a: Element
    b: Element


def _probe_steps(budget):
    """Step allowance for order probing.

    The order comparison is only a shortcut certificate, and powers of an
    infinite-order element reduce exponentially slowly as they grow, so the
    probe gets a small slice of the budget and gives up early with None.
    """
    return max(1024, budget.steps // 64)


def _certified(M, g, x, y, budget):
    """Conjugate(g), once g x g^-1 = y has been re-checked."""
    _check(conjugate(M, g, x, budget.steps) == y, "conjugator fails g x g^-1 = y")
    return Conjugate(g)


def _decide_sub(M, S, x, y, budget):
    """Decide for the letters of x and y in S inside W_S; a conjugator
    comes back in W's labels."""
    sub, dx = _restrict(M, S, x)
    _, dy = _restrict(M, S, y)
    res = decide_conjugacy_even(sub, dx, dy, budget)
    if isinstance(res, Conjugate):
        return Conjugate(Element(embed_letters(res.g.letters, S)))
    return res


def _search_or_separate(M, x, y, budget, radius, cap):
    """Search x's conjugacy class for y, then try quotient separation.

    Returns Conjugate, NotConjugate (closed class or separating quotient),
    or separate's SeparationNotFound, for the caller to word as Unknown.
    """
    status, hit, size = class_search(M, x, [y], budget, radius, cap)
    if hit:
        return _certified(M, hit[1], x, y, budget)
    if status == "closed":
        return NotConjugate(ClosedClassCertificate(size))
    wit = separate(M, x, y, budget=budget)
    if isinstance(wit, SeparationWitness):
        return NotConjugate(QuotientCertificate(wit))
    return wit


def decide_conjugacy_even(M, x, y, budget=DEFAULT):
    """Decide whether x and y are conjugate.

    Mirrors the rank induction: split along diagram components, brute
    force the finite case, otherwise conjugate both elements into proper
    standard parabolics and apply the retraction criterion with recursive
    oracles.  Falls back to bounded class search plus quotient separation,
    and admits defeat with Unknown.
    """
    if not is_even(M):
        raise ValueError("decision procedure requires an even matrix")
    x = reduce(M, x, budget.steps)
    y = reduce(M, y, budget.steps)
    if x == y:
        return Conjugate(IDENTITY)
    ab = abelianize_even(M)
    xi, yi = ab.image_of(x), ab.image_of(y)
    if xi != yi:
        return NotConjugate(QuotientCertificate(SeparationWitness(ab, xi, yi)))
    ox = element_order(M, x, budget.order_cap, _probe_steps(budget))
    oy = element_order(M, y, budget.order_cap, _probe_steps(budget))
    if ox is not None and oy is not None and ox != oy:
        return NotConjugate(OrderCertificate(ox, oy))

    comps = components(M)
    if len(comps) > 1:
        g = IDENTITY
        unknown = None
        for c in comps:
            res = _decide_sub(M, c, x, y, budget)
            if isinstance(res, NotConjugate):
                return NotConjugate(ComponentCertificate(c, res.certificate))
            if isinstance(res, Unknown):
                unknown = res
                continue
            g = multiply(M, g, res.g, budget.steps)
        if unknown is not None:
            return unknown
        return _certified(M, g, x, y, budget)

    full = frozenset(range(M.n))
    radius, cap = budget.radius, budget.class_cap
    if is_spherical(M, full):
        # the whole class fits under the cap, so the search always ends
        radius, cap = None, max(spherical_order(M, full), cap)
    else:
        x2, px = _min_support(M, x, budget)
        y2, py = _min_support(M, y, budget)
        I, J = support(x2), support(y2)
        if len(I) < M.n and len(J) < M.n:
            a = _conjugator(M, px, x2, budget.steps)
            b = _conjugator(M, py, y2, budget.steps)
            res = _criterion_decide(M, I, J, x2, y2, budget)
            if isinstance(res, Conjugate):
                g = multiply(M, multiply(M, invert(M, b, budget.steps), res.g,
                                         budget.steps), a, budget.steps)
                return _certified(M, g, x, y, budget)
            if isinstance(res, NotConjugate):
                return NotConjugate(replace(res.certificate, a=a, b=b))

    res = _search_or_separate(M, x, y, budget, radius, cap)
    if isinstance(res, SeparationNotFound):
        return Unknown("radius %d and %d quotients exhausted"
                       % (budget.radius, res.tried))
    return res


def _conditions(M, I, J, x, y, steps):
    """The criterion's three sub-problems (S, u, v) for x in W_I and y in
    W_J: u and v conjugate in W_S, for S = I, J and I cap J."""
    IJ = I & J
    return ((I, x, retract(M, I, y, steps)),
            (J, y, retract(M, J, x, steps)),
            (IJ, retract(M, IJ, x, steps), retract(M, IJ, y, steps)))


def _criterion_decide(M, I, J, x, y, budget):
    """Run the three conditions with recursive decisions as oracles.

    Returns Conjugate(g') with g' x g'^-1 = y, NotConjugate carrying the
    failed condition index, or Unknown when some oracle is inconclusive.
    """
    ds = []
    for k, (S, u, v) in enumerate(_conditions(M, I, J, x, y, budget.steps), 1):
        # W_S is trivial when S is empty, and then u = v = 1
        d = _decide_sub(M, S, u, v, budget) if S else Conjugate(IDENTITY)
        if isinstance(d, NotConjugate):
            return NotConjugate(CriterionCertificate(I, J, k,
                                                     d.certificate, IDENTITY, IDENTITY))
        ds.append(d)
    if any(isinstance(d, Unknown) for d in ds):
        return Unknown("criterion oracle undecided")
    g1, g2, g3 = (d.g for d in ds)
    gp = multiply(M, multiply(M, invert(M, g2, budget.steps),
                              invert(M, g3, budget.steps), budget.steps),
                  g1, budget.steps)
    return _certified(M, gp, x, y, budget)


def decide_conjugacy(M, x, y, budget=DEFAULT):
    """Decide conjugacy in any Coxeter group: decide_conjugacy_even when M
    is even, else a search of the whole class when W is finite within
    enum_cap and an uncapped one within the radius otherwise, then
    quotient separation."""
    if is_even(M):
        return decide_conjugacy_even(M, x, y, budget)
    x = reduce(M, x, budget.steps)
    y = reduce(M, y, budget.steps)
    if x == y:
        return Conjugate(IDENTITY)
    res = _search_or_separate(M, x, y, budget, budget.radius, None)
    if isinstance(res, SeparationNotFound):
        return Unknown("no conjugator within radius %d and no separating quotient"
                       % budget.radius)
    return res


def verify_decision(M, x, y, decision, budget=DEFAULT):
    """Re-check a decision's certificate with the word engine.

    Conjugators are re-verified directly; order and quotient certificates
    are recomputed; closed-class certificates re-run the orbit search;
    criterion certificates re-run the failed condition's sub-decision.
    """
    x = reduce(M, x, budget.steps)
    y = reduce(M, y, budget.steps)
    if isinstance(decision, Conjugate):
        return conjugate(M, decision.g, x, budget.steps) == y
    if isinstance(decision, Unknown):
        return True
    cert = decision.certificate
    return _verify_cert(M, x, y, cert, budget)


def _verify_cert(M, x, y, cert, budget):
    if isinstance(cert, OrderCertificate):
        probe = _probe_steps(budget)
        return (element_order(M, x, budget.order_cap, probe) == cert.order_x
                and element_order(M, y, budget.order_cap, probe) == cert.order_y
                and cert.order_x != cert.order_y)
    if isinstance(cert, QuotientCertificate):
        hom = cert.witness.hom
        xi, yi = hom.image_of(x), hom.image_of(y)
        return (xi == cert.witness.x_img and yi == cert.witness.y_img
                and hom.image.are_conjugate(xi, yi) is False)
    if isinstance(cert, ClosedClassCertificate):
        status, parent = _conj_orbit(M, x, (y,),
                                     cap=max(cert.class_size, budget.class_cap),
                                     steps=budget.steps)
        return status == "closed" and len(parent) == cert.class_size
    if isinstance(cert, ComponentCertificate):
        if tuple(cert.component) not in components(M):
            return False
        return _verify_sub(M, cert.component, x, y, cert.sub, budget)
    if isinstance(cert, CriterionCertificate):
        x2 = conjugate(M, cert.a, x, budget.steps)
        y2 = conjugate(M, cert.b, y, budget.steps)
        if not (support(x2) <= cert.I and support(y2) <= cert.J
                and cert.condition in (1, 2, 3)):
            return False
        S, u, v = _conditions(M, cert.I, cert.J, x2, y2, budget.steps)[cert.condition - 1]
        return _verify_sub(M, S, u, v, cert.sub, budget)
    return False


def _verify_sub(M, S, x, y, cert, budget):
    """Re-check cert for the letters of x and y in S, inside W_S."""
    sub, dx = _restrict(M, S, x)
    _, dy = _restrict(M, S, y)
    return _verify_cert(sub, dx, dy, cert, budget)
