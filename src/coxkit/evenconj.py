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

from dataclasses import dataclass

from .budgets import DEFAULT
from .diagram import (component_ids, components, is_even, is_spherical,
                      restrict_letters, retraction_valid, spherical_order,
                      submatrix)
from .quotients import SeparationWitness, abelianize_even, separate
from .words import (Conjugator, Element, IDENTITY, _conj_orbit, _conjugator,
                    conjugate, conjugate_search, element_order, invert,
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


def _embed(word, S):
    back = sorted(S)
    return Element(tuple(back[a] for a in word.letters))


def _decide_sub(M, S, x, y, budget):
    """Recurse into the standard parabolic on S; elements come back embedded."""
    sub = submatrix(M, S)
    dx = Element(restrict_letters(x.letters, S))
    dy = Element(restrict_letters(y.letters, S))
    res = decide_conjugacy_even(sub, dx, dy, budget)
    if isinstance(res, Conjugate):
        return Conjugate(_embed(res.g, S))
    return res


def _min_support_conjugate(M, x, budget):
    """Search the conjugation orbit for an element of smaller support.

    Returns (x', a) with a x a^-1 = x'.
    """
    _, parent = _conj_orbit(M, x, radius=budget.radius, cap=budget.class_cap,
                            steps=budget.steps)
    best = min(parent, key=lambda z: (len(support(z)), len(z.letters), z.letters))
    return best, _conjugator(M, parent, best, budget.steps)


def _conjugate_fallback(M, x, y, budget):
    status, parent = _conj_orbit(M, x, target=y, radius=budget.radius,
                                 cap=budget.class_cap, steps=budget.steps)
    if status == "found":
        g = _conjugator(M, parent, y, budget.steps)
        assert conjugate(M, g, x, budget.steps) == y
        return Conjugate(g)
    if status == "closed":
        return NotConjugate(ClosedClassCertificate(len(parent)))
    wit = separate(M, x, y, budget=budget)
    if isinstance(wit, SeparationWitness):
        return NotConjugate(QuotientCertificate(wit))
    return Unknown("radius %d and %d quotients exhausted"
                   % (budget.radius, wit.tried))


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
        ids = component_ids(M)
        g = IDENTITY
        unknown = None
        for c in comps:
            cset = frozenset(c)
            px = Element(tuple(a for a in x.letters if ids[a] == ids[c[0]]))
            py = Element(tuple(a for a in y.letters if ids[a] == ids[c[0]]))
            res = _decide_sub(M, cset, px, py, budget)
            if isinstance(res, NotConjugate):
                return NotConjugate(ComponentCertificate(c, res.certificate))
            if isinstance(res, Unknown):
                unknown = res
                continue
            g = multiply(M, g, res.g, budget.steps)
        if unknown is not None:
            return unknown
        assert conjugate(M, g, x, budget.steps) == y
        return Conjugate(g)

    if is_spherical(M, frozenset(range(M.n))):
        order = spherical_order(M, frozenset(range(M.n)))
        status, parent = _conj_orbit(M, x, target=y,
                                     cap=max(order, budget.class_cap),
                                     steps=budget.steps)
        if status == "found":
            g = _conjugator(M, parent, y, budget.steps)
            assert conjugate(M, g, x, budget.steps) == y
            return Conjugate(g)
        assert status == "closed"
        return NotConjugate(ClosedClassCertificate(len(parent)))

    if M.n > 1:
        x2, a = _min_support_conjugate(M, x, budget)
        y2, b = _min_support_conjugate(M, y, budget)
        I, J = support(x2), support(y2)
        if len(I) < M.n and len(J) < M.n:
            res = _criterion_decide(M, I, J, x2, y2, budget)
            if isinstance(res, Conjugate):
                g = multiply(M, multiply(M, invert(M, b, budget.steps), res.g,
                                         budget.steps), a, budget.steps)
                assert conjugate(M, g, x, budget.steps) == y
                return Conjugate(g)
            if isinstance(res, NotConjugate):
                cert = res.certificate
                cert = CriterionCertificate(cert.I, cert.J, cert.condition,
                                            cert.sub, a, b)
                return NotConjugate(cert)

    return _conjugate_fallback(M, x, y, budget)


def _criterion_decide(M, I, J, x, y, budget):
    """Run the three conditions with recursive decisions as oracles.

    Returns Conjugate(g') with g' x g'^-1 = y, NotConjugate carrying the
    failed condition index, or Unknown when some oracle is inconclusive.
    """
    rIy = retract(M, I, y, budget.steps)
    rJx = retract(M, J, x, budget.steps)
    IJ = frozenset(I) & frozenset(J)
    rIJx = retract(M, IJ, x, budget.steps)
    rIJy = retract(M, IJ, y, budget.steps)

    d1 = _decide_sub(M, I, x, rIy, budget)
    if isinstance(d1, NotConjugate):
        return NotConjugate(CriterionCertificate(frozenset(I), frozenset(J), 1,
                                                 d1.certificate, IDENTITY, IDENTITY))
    d2 = _decide_sub(M, J, y, rJx, budget)
    if isinstance(d2, NotConjugate):
        return NotConjugate(CriterionCertificate(frozenset(I), frozenset(J), 2,
                                                 d2.certificate, IDENTITY, IDENTITY))
    d3 = _decide_sub(M, IJ, rIJx, rIJy, budget) if IJ else Conjugate(IDENTITY)
    if isinstance(d3, NotConjugate):
        return NotConjugate(CriterionCertificate(frozenset(I), frozenset(J), 3,
                                                 d3.certificate, IDENTITY, IDENTITY))
    if isinstance(d1, Unknown) or isinstance(d2, Unknown) or isinstance(d3, Unknown):
        return Unknown("criterion oracle undecided")
    g1, g2, g3 = d1.g, d2.g, d3.g
    gp = multiply(M, multiply(M, invert(M, g2, budget.steps),
                              invert(M, g3, budget.steps), budget.steps),
                  g1, budget.steps)
    assert conjugate(M, gp, x, budget.steps) == y
    return Conjugate(gp)


def decide_conjugacy(M, x, y, budget=DEFAULT):
    """Decide conjugacy in any Coxeter group: decide_conjugacy_even when M
    is even, else an uncapped conjugator search within the radius, then
    quotient separation."""
    if is_even(M):
        return decide_conjugacy_even(M, x, y, budget)
    x = reduce(M, x, budget.steps)
    y = reduce(M, y, budget.steps)
    if x == y:
        return Conjugate(IDENTITY)
    hit = conjugate_search(M, x, y, budget.radius, budget.steps)
    if isinstance(hit, Conjugator):
        return Conjugate(hit.g)
    if hit.closed:
        return NotConjugate(ClosedClassCertificate(hit.class_size))
    wit = separate(M, x, y, budget=budget)
    if isinstance(wit, SeparationWitness):
        return NotConjugate(QuotientCertificate(wit))
    return Unknown("no conjugator within radius %d and no separating quotient"
                   % budget.radius)


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
        status, parent = _conj_orbit(M, x, target=y,
                                     cap=max(cert.class_size, budget.class_cap),
                                     steps=budget.steps)
        return status == "closed" and len(parent) == cert.class_size
    if isinstance(cert, ComponentCertificate):
        cset = frozenset(cert.component)
        ids = component_ids(M)
        px = Element(tuple(a for a in x.letters if ids[a] in {ids[c] for c in cert.component}))
        py = Element(tuple(a for a in y.letters if ids[a] in {ids[c] for c in cert.component}))
        sub = submatrix(M, cset)
        return _verify_cert(sub, Element(restrict_letters(px.letters, cset)),
                            Element(restrict_letters(py.letters, cset)),
                            cert.sub, budget)
    if isinstance(cert, CriterionCertificate):
        x2 = conjugate(M, cert.a, x, budget.steps)
        y2 = conjugate(M, cert.b, y, budget.steps)
        if not (support(x2) <= cert.I and support(y2) <= cert.J):
            return False
        I, J = cert.I, cert.J
        if cert.condition == 1:
            S, u, v = I, x2, retract(M, I, y2, budget.steps)
        elif cert.condition == 2:
            S, u, v = J, y2, retract(M, J, x2, budget.steps)
        else:
            S = I & J
            u = retract(M, S, x2, budget.steps)
            v = retract(M, S, y2, budget.steps)
        sub = submatrix(M, S)
        return _verify_cert(sub, Element(restrict_letters(u.letters, S)),
                            Element(restrict_letters(v.letters, S)),
                            cert.sub, budget)
    return False
