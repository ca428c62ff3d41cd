"""Conjugacy class labels for GL_n(q) in Macdonald coordinates.

A class of GL_n(q) is labelled by a tuple of polynomials
(u_1, ..., u_m), each with constant term 1, where deg u_i = n_i and
sum(i * n_i) = n.  The label is tied to the class through
det(1 - t g) = prod u_i(t)^i, so the roots of the u_i are the inverses
of the eigenvalues of g.  The degree sequence (n_1, ..., n_m) is the
*type* of the class, a partition of n written in exponent form.

Reality criteria on labels read one twist c: the class is conjugate to
c^{-1} g^{-1} iff every u_i is a scalar multiple of t^d u_i(c/t)
(``is_twisted_real_label``).  The twist c = 1 reads reality, a
non-square c zeta-reality (note the inverse: u-space swaps zeta and its
inverse because u-roots are inverse eigenvalues).

Scaling g by a unit eta translates the label coefficientwise
(u_i(t) -> u_i(eta t)); orbits of that action are the classes of
PGL_n(q).  ``equivalence_classes`` builds these orbits inside a label
set; the counts never build one (they fold per-slot signatures), so it
serves as the reference the fold is checked against.
"""

import itertools
import math
from functools import lru_cache

from . import polys
from .errors import BudgetExceeded
from .fields import constrained_nonsquare, two_adic

DEFAULT_BUDGET = 10 ** 7  # labels a count or dump may enumerate


@lru_cache(maxsize=None)
def partitions_of(n):
    """Partitions of n as exponent tuples (n_1, ..., n_m), trailing entry > 0.

    The exponent tuple (n_1, n_2, ...) encodes 1^{n_1} 2^{n_2} ...;
    the entry n_i counts how many parts equal i.
    """
    if n < 0:
        raise ValueError("partitions need n >= 0, got %r" % (n,))

    def gen(remaining, max_part):
        if remaining == 0:
            yield ()
            return
        for part in range(min(remaining, max_part), 0, -1):
            for rest in gen(remaining - part, part):
                yield (part,) + rest

    out = set()
    for parts in gen(n, n):
        m = max(parts) if parts else 0
        nu = [0] * m
        for p in parts:
            nu[p - 1] += 1
        out.add(tuple(nu))
    return sorted(out)


def nu_parts(nu):
    """The parts view of an exponent tuple: i repeated n_i times, ascending."""
    return [i for i, ni in enumerate(nu, 1) for _ in range(ni)]


def h_nu(nu, q):
    """gcd of q-1 and the parts of nu: the GL->SL class splitting factor."""
    g = q - 1
    for i, ni in enumerate(nu, 1):
        if ni:
            g = math.gcd(g, i)
    return g


def exponent_two_adic(nu):
    """Two-adic part of gcd{n_i : n_i > 0}; 1 when some exponent is odd.

    This gcd runs over the exponents n_i, unlike h_nu which gcds the
    parts i against q-1.
    """
    g = 0
    for ni in nu:
        if ni:
            g = math.gcd(g, ni)
    if g == 0:
        raise ValueError("empty partition has no exponents")
    return two_adic(g)


def has_odd_part(nu):
    """Whether some odd i has n_i > 0."""
    return any(ni for i, ni in enumerate(nu, 1) if i % 2 == 1 and ni)


# ---------------------------------------------------------------------------
# labels

def make_label(field, polys_seq):
    """Validate and canonicalize a label: trim trailing degree-0 entries."""
    label = []
    for u in polys_seq:
        u = tuple(u)
        if not u or u[0] != 1 or u[-1] == 0:
            raise ValueError("label entries need constant term 1, got %r" % (u,))
        label.append(u)
    while label and label[-1] == polys.ONE:
        label.pop()
    return tuple(label)


def label_type(label):
    """The partition of n in exponent form: degrees of the u_i."""
    return tuple(polys.degree(u) for u in label)


def label_n(label):
    return sum(i * polys.degree(u) for i, u in enumerate(label, 1))


def label_det(field, label):
    """Determinant of any group element with this label: (-1)^n prod a_i^i."""
    n = label_n(label)
    acc = field.one
    for i, u in enumerate(label, 1):
        acc = field.mul(acc, field.pow(u[-1], i))
    if n % 2 == 1:
        acc = field.neg(acc)
    return acc


def is_twisted_real_label(field, label, c):
    """Whether every slot of the label is twisted-reciprocal for c."""
    return all(polys.is_twisted_reciprocal(field, u, c) for u in label)


def label_to_json(label):
    return {"nu": [len(u) - 1 for u in label], "polys": [list(u) for u in label]}


# ---------------------------------------------------------------------------
# enumeration

def const1_polys(field, d):
    """All degree-d polynomials with constant term 1 (leading term nonzero)."""
    if d == 0:
        yield polys.ONE
        return
    for mid in itertools.product(field.elements, repeat=d - 1):
        for lead in field.units:
            yield (1,) + mid + (lead,)


def twist_pool(field, d, c):
    """The degree-d slot polynomials twisted-reciprocal for c: T_d at
    c = 1, S_d(c) at a non-square c."""
    if c == field.one:
        return polys.enumerate_T(field, d)
    return polys.enumerate_S(field, d, c)


def _poly_pools(field, nu, twist):
    pools = []
    for ni in nu:
        if ni == 0:
            pools.append([polys.ONE])
        elif twist is None:
            pools.append(list(const1_polys(field, ni)))
        else:
            pools.append(twist_pool(field, ni, twist))
    return pools


def check_label_budget(q, n, twist, budget):
    """Raise BudgetExceeded if the labels enumerate_labels would yield for
    (q, n, twist) number more than the budget; counted, not generated."""
    total = 0
    for nu in partitions_of(n):
        prod = 1
        for ni in nu:
            if not ni:
                continue
            if twist is None:
                prod *= (q - 1) * q ** (ni - 1)
            else:
                prod *= polys.count_nqd(q, ni) * (
                    1 if twist == 1 else polys.sigma(ni))
        total += prod
    if total > budget:
        raise BudgetExceeded("%d labels exceed the budget of %d" % (total, budget))


def enumerate_labels(field, n, twist=None, budget=DEFAULT_BUDGET):
    """Yield all labels of weight n, or with a ``twist`` c only those whose
    slots are twisted-reciprocal for c: c = 1 the real labels, a
    non-square c the zeta-real ones.  Any other twist is a ValueError.

    Deterministic order: partitions in partitions_of order, then
    polynomials in sorted order within each slot.  Raises BudgetExceeded
    (before yielding anything) if the labels pass the budget.
    """
    if twist is not None:
        polys.check_twist(field, twist)
    check_label_budget(field.q, n, twist, budget)

    def gen():
        for nu in partitions_of(n):
            yield from itertools.product(*_poly_pools(field, nu, twist))

    return gen()


def equivalence_classes(field, labels):
    """Orbits of the eta-translation action restricted to the given label set.

    Returns a list of orbits, each a sorted tuple of labels; the first entry
    of each orbit (lexicographically least) is its canonical representative.
    Orbits are listed in order of their representatives.
    """
    pool = set(labels)
    mul = field.mul_list
    top = max((len(u) for lab in pool for u in lab), default=0)
    # u(eta t) multiplies the t^k coefficient of u by eta^k
    powers = [[field.pow(eta, k) for k in range(top)] for eta in field.units]
    seen = set()
    orbits = []
    for lab in sorted(pool):
        if lab in seen:
            continue
        orbit = set()
        for row in powers:
            moved = tuple([tuple([mul[a][e] for a, e in zip(u, row)])
                           for u in lab])
            if moved in pool:
                orbit.add(moved)
        orbits.append(tuple(sorted(orbit)))
        seen |= orbit
    return orbits


# ---------------------------------------------------------------------------
# reality criteria in the linear and projective special groups, slot by slot

def descent_corner(n, q):
    """Whether n = 2 mod 4 and q = 3 mod 4: the corner where a real class
    of a type with even parts only loses reality in SL_n(q) and PSL_n(q),
    and where strong reality in PSL_n(q) has its own criterion."""
    return n % 4 == 2 and q % 4 == 3


def real_on_descent(nu, n, q):
    """Whether the real det-1 classes of type nu stay real in SL_n(q), and
    the PGL-real classes of type nu meeting PSL_n(q) stay real there.

    Descent only bites in its corner (n = 2 mod 4, q = 3 mod 4): there a
    class stays real iff some odd i has n_i > 0.
    """
    return not descent_corner(n, q) or has_odd_part(nu)


def sl_real(label, n, q):
    """Whether a real det-1 label stays real after restriction to SL_n(q)
    (``real_on_descent`` of its type)."""
    return real_on_descent(label_type(label), n, q)


def sl_strong_by_roots(n, q):
    """Whether strong reality in SL_n(q) is decided by ``sl_strong_slot``
    rather than agreeing with reality: q odd and n = 2 mod 4."""
    return q % 2 == 1 and n % 4 == 2


@lru_cache(maxsize=polys.SLOT_CACHE)
def sl_strong_slot(field, u, c):
    """Whether u, in an odd position of a label, witnesses strong reality
    in SL_n(q) at q odd, n = 2 mod 4: u has 1 or -1 as a root, whatever
    the reading c."""
    return (polys.poly_eval(field, u, field.one) == 0
            or polys.poly_eval(field, u, field.minus_one) == 0)


def sl_strongly_real(field, label):
    """Whether a real-in-SL det-1 label is strongly real in SL_n(q).

    Strong reality agrees with reality unless ``sl_strong_by_roots``; then
    some slot u_i with i odd must witness the reading 1
    (``sl_strong_slot``): the fold's rule, C(L) meets the odd slots' good
    sets, for one label.
    """
    n = label_n(label)
    if not sl_strong_by_roots(n, field.q):
        return sl_real(label, n, field.q)
    return any(sl_strong_slot(field, u, field.one) for u in label[::2])


@lru_cache(maxsize=None)
def _factors_all_even_and_fixed_deg_div4(field, u, c):
    """Helper for the PSL criterion: every irreducible factor of u has even
    degree, and every factor fixed by the involution alpha -> c / alpha of
    its roots (c = 1 reads tilde, c = zeta reads breve) has degree
    divisible by 4.

    Decided from u's distinct-degree parts without splitting them: an
    irreducible p of even degree e is fixed iff c / alpha = alpha^(q^j)
    for a root alpha, and then j = e/2 (p divides t^(q^(e/2) + 1) - c) or
    j = 0 (alpha^2 = c, so e = 2 and p = t^2 - c, c a non-square).
    """
    minus_c = field.neg(c)
    for e, g in polys.distinct_degree(field, u):
        if e % 2 == 1:
            return False
        if e % 4 == 2:
            x = polys.poly_powmod(field, (0, 1), field.q ** (e // 2) + 1, g)
            fixed = polys.poly_gcd(field, g,
                                   polys.poly_add(field, x, (minus_c,)))
            if polys.degree(fixed) > 0:
                return False
            if e == 2 and not polys.poly_divmod(field, g, (minus_c, 0, 1))[1]:
                return False
    return True


def psl_strong_slot(field, u, c):
    """Whether an odd-position slot u, twisted-reciprocal for c, witnesses
    strong reality of the c-reading of its label in PSL_n(q): some
    irreducible factor of u has odd degree, or some factor fixed by
    alpha -> c / alpha has degree 2 mod 4.
    """
    # u is c-twisted, so alpha -> c / alpha permutes its roots with their
    # multiplicities and p -> p* its irreducible factors.  If u witnesses
    # nothing, the fixed factors have degree 0 mod 4, and each pair
    # p != p* has two equal even degrees and equal multiplicities: every
    # part of u, and so deg u, is 0 mod 4.  Any other degree witnesses.
    if polys.degree(u) % 4:
        return True
    return not _factors_all_even_and_fixed_deg_div4(field, u, c)


def psl_nonsquare(field, n):
    """The non-square zeta, zeta^(n/2) = -1, that ``realclasses enumerate``
    reads the PSL criterion with in the descent corner; None outside it."""
    if descent_corner(n, field.q):
        return constrained_nonsquare(field, n)
    return None


def psl_strongly_real(field, label, zeta):
    """Strong reality in PSL_n(q) for n = 2 mod 4, q = 3 mod 4, or None
    for a label that is neither real nor zeta-real.

    Both readings c in (1, zeta) the label has are tried and either
    suffices: the class is strongly real when some u_i with i odd
    witnesses one of them (``psl_strong_slot``).  A constant slot
    witnesses nothing, so a label without an odd part is not strongly
    real (nor real in PSL in this regime).
    """
    readings = [c for c in (field.one, zeta)
                if is_twisted_real_label(field, label, c)]
    if not readings:
        return None
    return any(psl_strong_slot(field, u, c)
               for c in readings for u in label[::2])
