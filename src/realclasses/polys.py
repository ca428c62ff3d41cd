"""Polynomials over a small finite field.

A polynomial is a tuple of field element indices, lowest degree first,
with no trailing zeros; () is the zero polynomial.  All operations take
the field as first argument.

The module knows about the polynomial families driving the counting work:
for a twist c, the degree-d polynomials f with constant term 1 and
t^d f(c/t) = s * f for a scalar s, whose roots are closed under
alpha -> c / alpha.  The twist c = 1 gives T_d, the self-reciprocal
polynomials; a non-square c gives S_d(c), empty for odd d.  Both are
built from one closed coefficient template (``_pool``) rather than by
filtering all polynomials, once per field, degree and twist: one numpy
block per square root s over the free coefficients, cached as a
read-only uint8 array whose rows are the polynomials in sorted order.
The counts read that array column by column; ``enumerate_T`` and
``enumerate_S`` hand it out as a sorted list of int tuples.

Factoring starts from the distinct-degree parts of a polynomial
(``distinct_degree``), found by gcds with t^(q^e) - t.
"""

import itertools
from collections import namedtuple
from functools import lru_cache

import numpy as np


def normalize(coeffs):
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def degree(f):
    return len(f) - 1


ONE = (1,)
# the slot predicates (twisted reciprocity here, the SL root witness in
# labels) are cached per (field, slot, twist): a label dump reads every
# flag of a label off the same slots, and neighbouring labels share slots.  Bounded, as a dump may hold millions of distinct slots:
# 256 entries keep 18,415 of the 18,543 reciprocity hits that 65,536 get
# on the five label_routes dumps, at about 1.3 MB less peak RSS than 4,096.
SLOT_CACHE = 1 << 8


def poly_eval(field, f, x):
    add, times_x = field.add_list, field.mul_list[x]
    acc = 0
    for c in reversed(f):
        acc = add[times_x[acc]][c]
    return acc


def poly_add(field, f, g):
    n = max(len(f), len(g))
    f = f + (0,) * (n - len(f))
    g = g + (0,) * (n - len(g))
    return normalize(field.add(a, b) for a, b in zip(f, g))


def poly_neg(field, f):
    return tuple(field.neg(c) for c in f)


def poly_scale(field, c, f):
    if c == 0:
        return ()
    return tuple(field.mul(c, a) for a in f)


def poly_mul(field, f, g):
    if not f or not g:
        return ()
    add, mul = field.add_list, field.mul_list
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            row = mul[a]
            for j, b in enumerate(g, i):
                out[j] = add[out[j]][row[b]]
    return normalize(out)


def poly_divmod(field, f, g):
    """Quotient and remainder of f by g, in one pass from the top of f down:
    subtracting c t^shift g clears the top coefficient exactly, so only the
    lower deg g coefficients are updated."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    add, mul, neg = field.add_list, field.mul_list, field.neg_list
    rem = list(f)
    dg = degree(g)
    low = g[:-1]
    inv_lead = field.inv(g[-1])
    quot = [0] * max(len(rem) - dg, 1)
    for shift in range(len(rem) - 1 - dg, -1, -1):
        top = rem[shift + dg]
        if top:
            c = mul[top][inv_lead]
            quot[shift] = c
            minus_c = mul[neg[c]]
            for i, b in enumerate(low, shift):
                rem[i] = add[rem[i]][minus_c[b]]
    return normalize(quot), normalize(rem[:dg])


def monicize(field, f):
    if not f:
        raise ValueError("cannot monicize the zero polynomial")
    return poly_scale(field, field.inv(f[-1]), f)


def is_nonsquare(field, c):
    """Whether c is a non-square unit of the field (so q is odd)."""
    return isinstance(c, int) and 0 < c < field.q and not field.is_square(c)


def check_twist(field, c):
    """Raise ValueError unless c twists the reality tests: c = 1 reads
    reality, a non-square unit c zeta-reality."""
    if c != field.one and not is_nonsquare(field, c):
        raise ValueError("the twist must be 1 or a non-square unit of %r, "
                         "got %r" % (field, c))


@lru_cache(maxsize=SLOT_CACHE)
def is_twisted_reciprocal(field, f, c):
    """Whether t^d f(c/t) = s f for a scalar s, f of constant term 1.

    Coefficientwise a_j c^j = s a_{d-j} with s = a_d c^d.  The test at
    j = 0 gives s^2 = c^d, under which the test at j implies the one at
    d - j, so only j <= d/2 are read.  For a non-square c and odd d no
    such s exists.
    """
    check_twist(field, c)
    if not f or f[0] != 1:
        raise ValueError("twisted reciprocity needs constant term 1")
    mul = field.mul_list
    d = degree(f)
    times_s = mul[mul[f[-1]][field.pow(c, d)]]
    c_j = 1
    for j in range(d // 2 + 1):
        if mul[f[j]][c_j] != times_s[f[d - j]]:
            return False
        c_j = mul[c_j][c]
    return True


def count_nqd(q, d):
    """|T_d| over F_q: self-reciprocal degree-d polynomials with f(0) = 1."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    if d == 0:
        return 1
    if d % 2 == 1:
        return 2 * q ** ((d - 1) // 2) if q % 2 else q ** ((d - 1) // 2)
    return (q + 1) * q ** (d // 2 - 1) if q % 2 else q ** (d // 2)


def sigma(d):
    """1 for even d, 0 for odd d: |S_d| = n_{q,d} * sigma(d)."""
    return 1 if d % 2 == 0 else 0


def enumerate_T(field, d):
    """All self-reciprocal degree-d polynomials with constant term 1, sorted."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    return list(map(tuple, _pool(field, d, field.one).tolist()))


def enumerate_S(field, d, zeta):
    """All zeta-self-reciprocal degree-d polynomials with constant term 1, sorted."""
    if not is_nonsquare(field, zeta):
        raise ValueError("zeta must be a non-square unit of %r, got %r"
                         % (field, zeta))
    if d < 0:
        raise ValueError("degree must be nonnegative")
    return list(map(tuple, _pool(field, d, zeta).tolist()))


@lru_cache(maxsize=None)
def _pool(field, d, c):
    """The degree-d f with f(0) = 1 and t^d f(c/t) = s f, as a read-only
    (N, d + 1) uint8 array of coefficient rows in sorted tuple order.

    Coefficientwise a_{d-j} = s a_j c^(j-d), and j = 0 forces s^2 = c^d:
    for each square root s, one block over all q^(d//2) choices of
    a_1, ..., a_{d//2} fills in the rest from the field's multiplication
    table, and at even d keeps the rows whose middle coefficient is its
    own image.  Distinct s give distinct leads, so no row repeats.
    """
    half = d // 2
    c_d = field.pow(c, d)
    free = np.indices((field.q,) * half, dtype=np.uint8).reshape(
        half, field.q ** half)
    blocks = [np.zeros((d + 1, 0), dtype=np.uint8)]
    for s in field.units:
        if field.mul(s, s) != c_d:
            continue
        a = np.zeros((d + 1, free.shape[1]), dtype=np.uint8)
        a[0] = 1
        a[1:half + 1] = free
        middle = a[half].copy()
        for k in range(d - half, d + 1):    # a_k = s c^(-k) a_(d-k)
            a[k] = field.mul_table[field.mul(s, field.pow(c, -k))][a[d - k]]
        if d % 2 == 0:
            a = a[:, a[half] == middle]
        blocks.append(a)
    rows = np.concatenate(blocks, axis=1)
    pool = np.ascontiguousarray(rows[:, np.lexsort(rows[::-1])].T)
    pool.flags.writeable = False
    return pool


# ---------------------------------------------------------------------------
# irreducibility and factorization

@lru_cache(maxsize=None)
def irreducibles(field, d):
    """All monic irreducible polynomials of degree d, sorted."""
    if d < 1:
        raise ValueError("degree must be at least 1")
    if d == 1:
        return [(c, 1) for c in field.elements]
    found = []
    lower = [irreducibles(field, e) for e in range(1, d // 2 + 1)]
    # product runs over the tails in sorted order
    for tail in itertools.product(field.elements, repeat=d):
        f = tail + (1,)
        if all(poly_divmod(field, f, g)[1] for gs in lower for g in gs):
            found.append(f)
    return found


def poly_gcd(field, f, g):
    """The monic greatest common divisor of f and g; () when both are 0."""
    while g:
        f, g = g, poly_divmod(field, f, g)[1]
    return monicize(field, f) if f else ()


def poly_powmod(field, f, e, m):
    """f^e mod m, by square and multiply."""
    acc = poly_divmod(field, ONE, m)[1]
    base = poly_divmod(field, f, m)[1]
    while e:
        if e & 1:
            acc = poly_divmod(field, poly_mul(field, acc, base), m)[1]
        e >>= 1
        if e:
            base = poly_divmod(field, poly_mul(field, base, base), m)[1]
    return acc


def distinct_degree(field, f):
    """Yield (e, g_e) for each e where f has an irreducible factor of
    degree e: g_e is the monic product of f's distinct such factors.

    Distinct-degree factorization (Cantor and Zassenhaus 1981): g_e is
    gcd(w, t^(q^e) - t) for the part w of f left after the factors of
    degree below e have been divided out, every power of them, so f need
    not be squarefree.  A w left with no factor of degree at most e but of
    degree below 2(e + 1) is a single irreducible.
    """
    w = monicize(field, f)
    x = (0, 1)
    h = x
    e = 0
    while degree(w) >= 2 * (e + 1):
        e += 1
        h = poly_powmod(field, h, field.q, w)
        g = poly_gcd(field, w, poly_add(field, h, poly_neg(field, x)))
        if degree(g) > 0:
            yield e, g
            common = g
            while degree(common) > 0:
                w = poly_divmod(field, w, common)[0]
                common = poly_gcd(field, w, common)
            h = poly_divmod(field, h, w)[1]
    if degree(w) > 0:
        yield degree(w), w


Factorization = namedtuple("Factorization", ["unit", "factors"])


def factorize(field, f):
    """f = unit * prod(p^e) with monic irreducible p, sorted by (degree, coeffs).

    The factors come from ``distinct_degree``; a g_e of degree above e is
    split by trial division with the monic irreducibles of degree e only.
    """
    if not f:
        raise ValueError("cannot factor the zero polynomial")
    work = monicize(field, f)
    factors = []
    for e, g in distinct_degree(field, work):
        parts = []
        if degree(g) > e:
            for p in irreducibles(field, e):
                quot, rem = poly_divmod(field, g, p)
                if not rem:
                    parts.append(p)
                    g = quot
                    if degree(g) == e:
                        break
        parts.append(g)
        for p in parts:
            mult = 0
            while True:
                quot, rem = poly_divmod(field, work, p)
                if rem:
                    break
                work, mult = quot, mult + 1
            factors.append((p, mult))
    factors.sort(key=lambda pe: (degree(pe[0]), pe[0]))
    return Factorization(f[-1], tuple(factors))


def poly_str(field, f):
    """Human-readable form, high degree first, coefficients as indices."""
    if not f:
        return "0"
    parts = []
    for k in range(degree(f), -1, -1):
        c = f[k]
        if c == 0:
            continue
        if k == 0:
            parts.append(str(c))
        else:
            tk = "t" if k == 1 else "t^%d" % k
            parts.append(tk if c == 1 else "%d%s" % (c, tk))
    return "+".join(parts) if parts else "0"
