"""Counting engine for real, strongly real, and zeta-real conjugacy classes.

Every (family, kind) cell is one entry of a registry, and ``count`` is the
one dispatcher over it.  Most cells can be computed by two independent
routes:

* ``formula`` -- closed-form case dispatch, partition by partition;
* ``enumeration`` -- the class labels counted type by type from the
  polynomial pools of their slots: each pool's signatures are counted
  per affine block, without building its rows, and a type's signatures
  fold into a histogram, each label weighted by the share of its
  scalar-translation orbit it stands for (1 outside the projective
  families).

``method="both"`` runs the two routes and insists on exact per-partition
agreement before reporting.  Fractional intermediate values (the paired
half-counts) must clear their denominators; a fractional class count is a
hard error, never a rounding.
"""

import math
import os
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

from . import labels, polys
from .errors import UsageError
from .fields import (MAX_Q, canonical_nonsquare, field_for_order,
                     prime_power, two_adic)
from .polys import count_nqd, is_nonsquare, sigma

FAMILIES = ("GL", "SL", "PGL", "PSL", "SLQ")
KINDS = ("real", "strongly_real", "zeta_real")
METHODS = ("formula", "enumeration", "both")
# the formula route walks all p(n) partitions of n: at q = 3 the real GL
# count takes 0.4 s and 40 MB at n = 40, 3 s and 99 MB at n = 50
MAX_N = 40
# the largest group the oracle builds unless a cap says otherwise
DEFAULT_CAP = 10 ** 6


# ---------------------------------------------------------------------------
# per-partition building blocks

def gl_nu(nu, q):
    """Number of real GL_n(q)-classes of type nu: prod of n_{q,n_i}."""
    prod = 1
    for ni in nu:
        if ni:
            prod *= count_nqd(q, ni)
    return prod


def zeta_gl_nu(nu, q):
    """Number of zeta-real GL_n(q)-classes of type nu (any non-square zeta)."""
    prod = 1
    for ni in nu:
        if ni:
            prod *= count_nqd(q, ni) * sigma(ni)
    return prod


def sl_nu(nu, q):
    """Real GL-classes of type nu lying in SL_n(q) (determinant one)."""
    if q % 2 == 0 or not labels.has_odd_part(nu):
        return gl_nu(nu, q)
    if any(i % 2 == 1 and ni % 2 == 1 for i, ni in enumerate(nu, 1)):
        full = gl_nu(nu, q)
        if full % 2:
            raise ArithmeticError("odd count cannot split by sign: %r" % (nu,))
        return full // 2
    total = f_nu(nu, q)
    for i, ni in enumerate(nu, 1):
        if not ni:
            continue
        if i % 2 == 1:
            total *= q ** (ni // 2 - 1)
        else:
            total *= count_nqd(q, ni)
    return total


def f_nu(nu, q):
    """((q+1)^r + (q-1)^r)/2 with r the number of odd parts present."""
    r = sum(1 for i, ni in enumerate(nu, 1) if i % 2 == 1 and ni > 0)
    return ((q + 1) ** r + (q - 1) ** r) // 2


def sigma_nu(nu, q):
    """Halving exponent for PGL: 1 exactly when q is odd and d = 1."""
    if q % 2 == 0:
        return 0
    return 1 if labels.exponent_two_adic(nu) == 1 else 0


def pgl_nu(nu, q):
    """Real PGL_n(q)-classes of type nu, as an exact Fraction."""
    return Fraction(gl_nu(nu, q), 2 ** sigma_nu(nu, q))


def psl_nu(nu, n, q):
    """PGL-real PGL-classes of type nu lying in PSL_n(q), as a Fraction.

    Case dispatch on the two-adic parts of n and q-1, on d (the two-adic
    part of the gcd of the exponents n_i), and on the presence of an odd
    part.  In the fully exceptional corner (n = 2 mod 4, q = 3 mod 4) the
    types without an odd part contribute nothing: their classes lose
    reality on descent.
    """
    if q % 2 == 0:
        return Fraction(sl_nu(nu, q))
    t2n, t2q = two_adic(n), two_adic(q - 1)
    d = labels.exponent_two_adic(nu)
    odd = labels.has_odd_part(nu)
    if t2n < t2q:
        return Fraction(gl_nu(nu, q), 2)
    if t2n > t2q:
        return Fraction(sl_nu(nu, q)) if d > 1 else Fraction(sl_nu(nu, q), 2)
    # equal two-adic parts: n = 0 mod 4, or the descent corner
    if not labels.real_on_descent(nu, n, q):
        return Fraction(0)
    return Fraction(gl_nu(nu, q) if d > 1 and odd else sl_nu(nu, q), 2)


def _sl_real_nu(nu, n, q):
    # a det-1 real GL-class that stays real in SL_n(q) splits into h_nu
    # SL-classes
    if not labels.real_on_descent(nu, n, q):
        return 0
    return labels.h_nu(nu, q) * sl_nu(nu, q)


# ---------------------------------------------------------------------------
# regimes

def sl_regime(n, q):
    if q % 2 == 0:
        return "q_even"
    if not labels.sl_strong_by_roots(n, q):
        return "n_not_2_mod_4"
    return "n2mod4_q3mod4" if labels.descent_corner(n, q) else "n2mod4_q1mod4"


def pgl_regime(n, q):
    return "q_even" if q % 2 == 0 else "q_odd"


def psl_regime(n, q):
    if q % 2 == 0:
        return "q_even"
    if labels.descent_corner(n, q):
        return "n2mod4_q3mod4"
    t2n, t2q = two_adic(n), two_adic(q - 1)
    if t2n < t2q:
        return "two_adic_lt"
    return "two_adic_gt" if t2n > t2q else "two_adic_eq_4div"


def slq_regime(n, q, y_order):
    if q % 2 == 0:
        return "q_even"
    if y_order % 2 == 1:
        return "y_odd"
    if two_adic(y_order) == two_adic(math.gcd(n, q - 1)):
        return "y_full_two_adic"
    return "y_partial_two_adic"


# ---------------------------------------------------------------------------
# reports

@dataclass
class CountReport:
    family: str
    n: int
    q: int
    kind: str
    total: int
    method: str
    regime: str
    per_nu: list
    y_order: int = None
    zeta: int = None

    def to_json(self):
        group = {"family": self.family, "n": self.n, "q": self.q}
        if self.y_order is not None:
            group["y"] = self.y_order
        out = {"group": group, "kind": self.kind, "total": self.total,
               "method": self.method,
               "per_nu": [{"nu": labels.nu_parts(nu), "count": c}
                          for nu, c in self.per_nu],
               "regime": self.regime}
        if self.zeta is not None:
            out["zeta"] = self.zeta
        return out


def _as_int(x, what):
    if isinstance(x, Fraction) and x.denominator != 1:
        raise ArithmeticError("fractional class count for %s: %s" % (what, x))
    return int(x)


# ---------------------------------------------------------------------------
# enumeration backends (label side): per-slot signatures folded by type
#
# A set of units is an int mask over their logarithms: bit j stands for
# g^j, g the field's generator.  The twist set C(u) of a slot polynomial
# u is every c for which u is twisted-reciprocal.  If u is c0-twisted it
# is c-twisted iff u(t c0 / c) = u(t), so C(u) = c0 Stab(u), where
# Stab(u) = mu_g, g = gcd(q - 1, {j >= 1 : u_j != 0}), fixes u under
# u(t) -> u(eta t).  A label L lies in the pool of the twists W when
# C(L), the intersection of its slots' sets, meets W.


@lru_cache(maxsize=None)
def _coset_mask(q, a, r):
    """The units whose logarithms are a mod r (r divides q - 1)."""
    return sum(1 << j for j in range(a % r, q - 1, r))


@lru_cache(maxsize=None)
def _pool_signatures(field, d, c0, witness=None):
    """Signatures of the degree-d polynomials twisted-real for c0, as
    ((C, lead, good), count) pairs.

    C is the twist set C(u) and lead is log lead(u).  good is the set of c
    in C(u) at which u, in an odd position, witnesses strong reality:
    ``witness(field, u, c)``, one of ``labels.sl_strong_slot`` and
    ``labels.psl_strong_slot``, or no c without a witness.

    The signatures are counted, not read row by row.  The pool is one
    affine block per square root s of c0^d: a_0 = 1, a_1 ... a_(d//2)
    free (at even d the middle one is 0 unless s = c0^(d/2)), and
    a_(d-j) = s c0^(j-d) a_j, so the lead is s c0^-d.  C(u) = c0 mu_g,
    g = gcd(q - 1, supp u), divides gcd(q - 1, d), and m divides g iff
    every free a_j with m not dividing j is 0: q^(free j with m | j)
    rows, from which inclusion-exclusion over the divisors m reads each g
    exactly.  The SL witness, u(1) = 0 or u(-1) = 0, reads no c, so good
    is C(u) or nothing; it adds at most two affine equations on the free
    a_j, counted by inclusion-exclusion.  The PSL witness holds at every
    c when 4 does not divide d (``labels.psl_strong_slot``), so good is
    C(u); at d = 0 mod 4 the pool is read (``_row_signatures``).
    """
    if witness is labels.psl_strong_slot and d % 4 == 0:
        return _row_signatures(field, d, c0, witness)
    q, mul, pow_ = field.q, field.mul, field.pow
    top = math.gcd(q - 1, d)
    divisors = [m for m in range(top, 0, -1) if top % m == 0]
    out = []
    for s in field.units:
        if mul(s, s) != pow_(c0, d):
            continue
        lead = mul(s, pow_(c0, -d))
        free = [j for j in range(1, d // 2 + 1)
                if 2 * j != d or s == pow_(c0, j)]
        # u(x) = 1 + lead x^d + sum of a_j (x^j + s c0^(j-d) x^(d-j)), the
        # middle j = d/2 once: u(x) = 0 is one equation (row, rhs) per root
        eqs = [([field.add(pow_(x, j), 0 if 2 * j == d else mul(
                    mul(s, pow_(c0, j - d)), pow_(x, d - j))) for j in free],
                field.neg(field.add(field.one, mul(lead, pow_(x, d)))))
               for x in {field.one, field.minus_one}]
        total, hits = {}, {}    # per divisor m: rows with m | g, witnessed
        for m in divisors:
            cols = [k for k, j in enumerate(free) if j % m == 0]
            total[m] = q ** len(cols)
            if witness is None:
                hits[m] = 0
            elif witness is labels.sl_strong_slot:
                sub = [([row[k] for k in cols], b) for row, b in eqs]
                # |A u B| = |A| + |B| - |A n B|
                hits[m] = sum(_solutions(field, [e], len(cols)) for e in sub)
                if len(sub) == 2:
                    hits[m] -= _solutions(field, sub, len(cols))
            else:   # the PSL witness at d not 0 mod 4: every c
                hits[m] = total[m]
            for k in divisors:
                if k > m and k % m == 0:    # now g = m exactly
                    total[m] -= total[k]
                    hits[m] -= hits[k]
        for m in reversed(divisors):
            C = _coset_mask(q, field.log[c0], (q - 1) // m)
            for good, cnt in ((C, hits[m]), (0, total[m] - hits[m])):
                if cnt:
                    out.append(((C, field.log[lead], good), cnt))
    return tuple(out)


def _rank(field, rows):
    """The rank of at most two vectors over the field, read directly."""
    rows = [row for row in rows if any(row)]
    if len(rows) < 2:
        return len(rows)
    u, v = rows
    p = next(i for i, x in enumerate(u) if x)
    k = field.mul(v[p], field.inv(u[p]))
    return 1 + any(field.mul(k, x) != y for x, y in zip(u, v))


def _solutions(field, eqs, size):
    """The points of F_q^size on at most two affine equations (row, rhs)."""
    r = _rank(field, [row for row, _ in eqs])
    if r != _rank(field, [row + [b] for row, b in eqs]):
        return 0
    return field.q ** (size - r)


def _row_signatures(field, d, c0, witness):
    """``_pool_signatures`` read polynomial by polynomial off the pool: g is
    the gcd of q - 1 and the support, lead the logarithm of the top
    coefficient, good read by at most two witness calls, and the
    signatures counted in a dict.  Translation by Stab(u) fixes u and
    moves c by Stab(u)^2, and the witness does not tell those c apart, so
    good is read on the cosets of Stab(u)^2 in C(u).
    """
    q = field.q
    log, exp = field.log, field.exp
    a = log[c0]

    def good(u, g_u):
        # the cosets of Stab(u)^2 in C(u): logarithms mod 2r at even g
        r = (q - 1) // g_u
        step = r * (2 - g_u % 2)
        return sum(_coset_mask(q, b, step) for b in range(a, a + step, r)
                   if witness(field, u, exp[b % (q - 1)]))

    out = {}
    for u in polys._pool(field, d, c0):
        g_u = math.gcd(q - 1, *(j for j, x in enumerate(u) if x))
        key = (_coset_mask(q, a, (q - 1) // g_u), log[u[d]], good(u, g_u))
        out[key] = out.get(key, 0) + 1
    return tuple(out.items())


def _type_histograms(field, n, twists, lead_mod, witness):
    """Yield (nu, histogram) for every type of weight n: the labels whose
    twist set meets ``twists``, counted by signature (C, lead, good).

    Slot i of a label contributes its polynomial's C, i lead mod
    ``lead_mod`` and, at odd i only, its good set for ``witness`` (see
    ``_pool_signatures``); even slots witness nothing.  A label's
    signature folds its slots': C intersects, leads add, and good is the
    union of the slots' good sets within C, so its determinant is
    (-1)^n g^lead and some reading of it is witnessed iff C & good.  With
    one twist both sets are read at that twist only: C is every unit and
    good is the twist or nothing.  The types come sorted, so each shares
    its longest prefix of slots with the one before it, and only the slots
    after that prefix are folded again; a yielded histogram may be folded
    on, so read it, do not change it.
    """
    q = field.q
    full = (1 << (q - 1)) - 1
    wanted = sum(1 << field.log[c] for c in twists)
    slots = {}

    def slot(d, i):
        if (d, i) not in slots:
            hist = {}
            earlier = 0
            for twist in twists:
                for (C, lead, good), cnt in _pool_signatures(
                        field, d, twist, witness):
                    if C & earlier:
                        continue    # read from an earlier twist's pool
                    if len(twists) == 1:
                        C, good = full, good & wanted
                    key = (C, i * lead % lead_mod, good if i % 2 else 0)
                    hist[key] = hist.get(key, 0) + cnt
                earlier |= 1 << field.log[twist]
            slots[d, i] = hist
        return slots[d, i]

    folds, prev = [{(full, 0, 0): 1}], ()   # folds[k]: first k slots
    for nu in labels.partitions_of(n):
        k = 0
        while k < min(len(nu), len(prev)) and nu[k] == prev[k]:
            k += 1
        del folds[k + 1:]
        for i, ni in enumerate(nu[k:], k + 1):
            hist = folds[-1]
            if ni:
                out, step = {}, slot(ni, i).items()
                for (c1, l1, g1), n1 in hist.items():
                    for (c2, l2, g2), n2 in step:
                        C = c1 & c2
                        if C & wanted:
                            key = (C, (l1 + l2) % lead_mod, (g1 | g2) & C)
                            out[key] = out.get(key, 0) + n1 * n2
                hist = out
            folds.append(hist)
        prev = nu
        yield nu, folds[-1]


def _tally(field, n, family, kind, twist, budget):
    """The label route of one (family, kind) cell: a map from type to count.

    A signature (C, lead, good) held by cnt labels counts cnt |C| / |E(C)|
    classes, E(C) = {eta : C meets eta^2 W}: translation u(t) -> u(eta t)
    takes C(L) to eta^-2 C(L), so the eta-orbit of L holds |E(L)| / |C(L)|
    labels of the pool of the twists W.  PGL and PSL read W = {1, zeta} at
    odd q, which every twist set meets up to a square, and weigh each
    distinct C of the cell once; the other families read W = {twist},
    where C is every unit and the weight is 1, so their counts are summed
    as ints.

    SL (and SL/Y off ``_SLQ_ENDPOINT``, read as SL real) and PSL keep the
    labels of determinant (-1)^n g^lead one (SL) or an n-th power (PSL)
    that, unless zeta-real, keep reality on descent, and weight each type
    by h_nu.  Where strong reality has no closed form, a label is strongly
    real when some reading of it is witnessed: C & good.  A zeta-real SL
    cell with zeta^n != 1 answers 0 before any budget is read; otherwise
    raises BudgetExceeded if the labels of any twist W pass the budget.
    """
    q = field.q
    if family == "SLQ":
        family, kind = "SL", "real"
    sl, psl = family == "SL", family == "PSL"
    twists = (twist,)
    if family in ("PGL", "PSL") and q % 2:
        twists = (field.one, canonical_nonsquare(field))
    if sl and field.pow(twist, n) != field.one:
        # g in SL_n(q) conjugate to zeta g^{-1} (twist zeta^{-1}) has
        # 1 = det(zeta g^{-1}) = zeta^n: the answer is 0, whatever the budget
        return {}
    for c in twists:
        labels.check_label_budget(q, n, c, budget)
    # looked up at call time, so wrappers on the labels module see each call
    witness = None
    if kind == "strongly_real" and sl and labels.sl_strong_by_roots(n, q):
        witness = labels.sl_strong_slot
    if kind == "strongly_real" and psl and labels.descent_corner(n, q):
        witness = labels.psl_strong_slot
    # det = (-1)^n g^(lead sum): one in SL, in PSL an n-th power (as -1
    # is at odd n)
    lead_mod = {"SL": q - 1, "PSL": math.gcd(n, q - 1)}.get(family, 1)
    target = (q - 1) // 2 if sl and n % 2 and q % 2 else 0
    wanted = [field.log[c] for c in twists]
    descent = (sl or psl) and kind != "zeta_real"

    @lru_cache(maxsize=None)
    def weight(C):
        # |C| / |E(C)|, |E(C)| the e with C meeting g^(2e) W
        return Fraction(C.bit_count(), sum(
            any(C >> (2 * e + w) % (q - 1) & 1 for w in wanted)
            for e in range(q - 1)))

    out = {}
    for nu, hist in _type_histograms(field, n, twists, lead_mod, witness):
        if descent and not labels.real_on_descent(nu, n, q):
            continue
        per_C = {}
        for (C, lead, good), cnt in hist.items():
            if lead == target and (witness is None or C & good):
                per_C[C] = per_C.get(C, 0) + cnt
        classes = sum(per_C.values()) if len(twists) == 1 else sum(
            cnt * weight(C) for C, cnt in per_C.items())
        classes = _as_int(classes, ("%s_%d(%d)" % (family, n, q), nu))
        out[nu] = classes * labels.h_nu(nu, q) if sl or psl else classes
    return out


# ---------------------------------------------------------------------------
# the (family, kind) registry

@dataclass(frozen=True)
class _Entry:
    """How one (family, kind) cell is counted.

    ``regime(n, q)`` names the case of the analysis that applies (SLQ:
    ``regime(n, q, y_order)``).  ``formula(nu, n, q)`` is the count of type
    nu, or None where the cell has no closed form; ``enum_only`` lists the
    regimes where it has none either.  The label route is ``_tally`` for
    every cell, which derives what it reads from (family, kind) alone.
    """
    regime: object
    formula: object
    enum_only: tuple = ()


def _psl_real_nu(nu, n, q):
    return labels.h_nu(nu, q) * psl_nu(nu, n, q)


# every real class of GL_n(q) and of PGL_n(q) is strongly real
_GL = _Entry(lambda n, q: "generic", lambda nu, n, q: gl_nu(nu, q))
_PGL = _Entry(pgl_regime, lambda nu, n, q: pgl_nu(nu, q))
# the intermediate quotients SL_n(q)/Y (the regimes not in _SLQ_ENDPOINT)
# count exactly the det-1 real labels, and each such class is strongly real
_SLQ = _Entry(slq_regime, lambda nu, n, q: labels.h_nu(nu, q) * sl_nu(nu, q))
_REGISTRY = {
    ("GL", "real"): _GL,
    ("GL", "strongly_real"): _GL,
    # g conjugate to zeta * g^{-1}: the same count for every non-square zeta
    ("GL", "zeta_real"): _Entry(lambda n, q: "generic",
                                lambda nu, n, q: zeta_gl_nu(nu, q)),
    ("SL", "real"): _Entry(sl_regime, _sl_real_nu),
    # strong reality is reality unless n = 2 mod 4 with q odd; there the
    # criterion (some odd-position u_i vanishing at 1 or -1) has no closed
    # form
    ("SL", "strongly_real"): _Entry(
        sl_regime, _sl_real_nu,
        enum_only=("n2mod4_q1mod4", "n2mod4_q3mod4")),
    # unlike GL the answer can depend on which non-square is used, and
    # there is no closed form: det-1 labels weighted by the h_nu splitting
    ("SL", "zeta_real"): _Entry(sl_regime, None),
    ("PGL", "real"): _PGL,
    ("PGL", "strongly_real"): _PGL,
    ("PSL", "real"): _Entry(psl_regime, _psl_real_nu),
    # strong reality is reality except at n = 2 mod 4, q = 3 mod 4
    ("PSL", "strongly_real"): _Entry(psl_regime, _psl_real_nu,
                                     enum_only=("n2mod4_q3mod4",)),
    ("SLQ", "real"): _SLQ,
    ("SLQ", "strongly_real"): _SLQ,
}

# regimes where SL_n(q)/Y counts as an endpoint: |Y| odd (or q even)
# changes nothing from SL, |Y| carrying the whole two-adic part of
# gcd(n, q-1) nothing from PSL
_SLQ_ENDPOINT = {"q_even": "SL", "y_odd": "SL", "y_full_two_adic": "PSL"}


def applicable_kinds(family, q):
    """The kinds counted for a family over F_q: zeta-real only for the
    matrix groups GL and SL, and only at odd q."""
    return tuple(k for k in KINDS if (family, k) in _REGISTRY
                 and (k != "zeta_real" or q % 2 == 1))


def check_kind(family, q, kind, zeta=None):
    """Raise UsageError unless ``kind`` is counted for ``family`` over F_q,
    and a ``zeta`` given is a non-square unit of F_q."""
    if kind not in KINDS:
        raise UsageError("unknown kind %r" % (kind,))
    if (family, kind) not in _REGISTRY:
        raise UsageError("zeta-real counts are for the matrix groups GL, SL")
    if kind not in applicable_kinds(family, q):
        raise UsageError("zeta-real classes need odd q")
    if zeta is not None and not is_nonsquare(field_for_order(q), zeta):
        raise UsageError("zeta must be a non-square unit of F_%d, got %r"
                         % (q, zeta))


def resolve_cap(cap=None, default=DEFAULT_CAP):
    """Explicit cap, else the REALCLASS_CAP environment override, else default.

    A negative or malformed cap is a usage error.
    """
    if cap is not None:
        if int(cap) < 0:
            raise UsageError("the cap must be nonnegative, got %r" % (cap,))
        return int(cap)
    env = os.environ.get("REALCLASS_CAP")
    try:
        value = int(env) if env else default
    except ValueError:
        value = None
    if value is None or value < 0:
        raise UsageError("REALCLASS_CAP must be a nonnegative integer, "
                         "got %r" % (env,))
    return value


def check_group(family, n, q, y_order=None):
    """Raise UsageError unless the arguments name one of the five groups
    of supported rank (n <= MAX_N) over a supported field (q <= MAX_Q),
    whichever route would count it."""
    if family not in FAMILIES:
        raise UsageError("unknown family %r" % (family,))
    if not isinstance(n, int) or n < 0:
        raise UsageError("n must be a nonnegative integer, got %r" % (n,))
    if n > MAX_N:
        raise UsageError("n = %d exceeds the supported bound %d" % (n, MAX_N))
    prime_power(q)
    if q > MAX_Q:
        raise UsageError("q = %d exceeds the supported bound %d" % (q, MAX_Q))
    if family == "SLQ":
        if y_order is None:
            raise UsageError("family SLQ needs the order of Y")
        # Y is central in SL_n(q), which for n = 0 is trivial
        full = math.gcd(n, q - 1) if n else 1
        if (not isinstance(y_order, int) or y_order < 1
                or full % y_order != 0):
            raise UsageError("|Y| = %r must be a positive integer dividing "
                             "gcd(n, q-1) = %d" % (y_order, full))


def count(family, n, q, kind, y_order=None, method="formula", zeta=None,
          budget=labels.DEFAULT_BUDGET):
    """The ``kind`` classes of family_n(q) (SLQ: of SL_n(q)/Y, |Y| = y_order).

    ``method`` picks the closed form ("formula"), the label route
    ("enumeration"), or both with per-partition agreement ("both").  Cells
    without a closed form are enumerated whatever the method, and their
    report says so.  ``zeta`` is the non-square of a zeta-real count,
    by default the least one.  Returns a CountReport.
    """
    check_group(family, n, q, y_order)
    check_kind(family, q, kind, zeta)
    if method not in METHODS:
        raise UsageError("unknown method %r" % (method,))
    return _count(family, n, q, kind, y_order, method, zeta, budget)


def _count(family, n, q, kind, y_order, method, zeta, budget):
    if n == 0 and family != "GL":
        # SL_0(q) = GL_0(q) is trivial, and so are its quotients; the SL
        # splitting factor h_nu would count the empty type q - 1 times; only
        # SLQ reports its |Y|
        rep = _count("GL", 0, q, kind, None, method, zeta, budget)
        return replace(rep, family=family, regime="trivial",
                       y_order=y_order if family == "SLQ" else None)
    entry = _REGISTRY[family, kind]
    if family != "SLQ":
        return _route(family, n, q, kind, entry, entry.regime(n, q), method,
                      zeta, budget)
    regime = entry.regime(n, q, y_order)
    if regime in _SLQ_ENDPOINT:
        rep = _count(_SLQ_ENDPOINT[regime], n, q, kind, None, method, zeta,
                     budget)
    else:
        rep = _route(family, n, q, kind, entry, regime, method, zeta, budget)
    return replace(rep, family="SLQ", regime=regime, y_order=y_order)


def _route(family, n, q, kind, entry, regime, method, zeta, budget):
    """Run the requested routes of one entry and merge them into a report."""
    formula = None if regime in entry.enum_only else entry.formula
    if formula is None:
        method = "enumeration"
    field, twist = None, 1
    if kind == "zeta_real":
        field = field_for_order(q)
        if zeta is None:
            zeta = canonical_nonsquare(field)
        # labels track inverse eigenvalues, so the label route tests
        # zeta-reality against the reciprocal twist zeta^{-1}
        twist = field.inv(zeta)
    else:
        zeta = None
    nus = labels.partitions_of(n)
    where = "%s_%d(%d) %s" % (family, n, q, kind)
    if method != "enumeration":
        formula_map = {nu: _as_int(formula(nu, n, q), (where, nu))
                       for nu in nus}
    if method != "formula":
        enum_map = _tally(field or field_for_order(q), n, family, kind,
                          twist, budget)
    if method == "both":
        for nu in nus:
            a, b = formula_map[nu], enum_map.get(nu, 0)
            if a != b:
                raise AssertionError(
                    "formula/enumeration disagree for %s at nu=%r: %d vs %d"
                    % (where, nu, a, b))
    chosen = enum_map if method == "enumeration" else formula_map
    per_nu = [(nu, chosen.get(nu, 0)) for nu in nus]
    for nu, c in per_nu:
        if c < 0:
            raise ArithmeticError("negative class count at %r" % (nu,))
    return CountReport(family, n, q, kind, sum(c for _, c in per_nu), method,
                       regime, per_nu, zeta=zeta)


# ---------------------------------------------------------------------------
# generating function

def genfun_real_gl(q, terms=8):
    """Coefficients of t^0..t^terms in prod_r (1+t^r)^(2,q-1) / (1-q t^{2r}).

    The n-th coefficient is the number of real classes in GL_n(q); exact
    integer arithmetic throughout.
    """
    prime_power(q)
    if not isinstance(terms, int) or terms < 0:
        raise UsageError("terms must be a nonnegative integer, got %r"
                         % (terms,))
    series = [1] + [0] * terms
    for r in range(1, terms + 1):
        # times (1 + t^r)^(2,q-1), each factor high index first
        for _ in range(math.gcd(2, q - 1)):
            for i in range(terms, r - 1, -1):
                series[i] += series[i - r]
        # over 1 - q t^{2r}, low index first
        for i in range(2 * r, terms + 1):
            series[i] += q * series[i - 2 * r]
    return series


# ---------------------------------------------------------------------------
# the small-rank reference table

_BAD_CELL_NOTE = ("stored reference polynomial disagrees with the case-by-case "
                  "count for q = 1 mod 4; the engine value follows the case "
                  "analysis, cross-validated by label-orbit enumeration")
_BAD_PGL6_NOTE = ("stored reference polynomial exceeds the per-type halving "
                  "rule by q; the engine value follows the halving rule, "
                  "cross-validated by label-orbit enumeration")
_BAD_SL6_STRONG_NOTE = ("stored reference polynomial disagrees with the "
                        "odd-block root criterion; the engine value follows "
                        "the criterion, cross-validated by label enumeration")


def _delta(q, k):
    return math.gcd(q - 1, k)


def _reference_rows(q):
    """(family, n, kind, reference value, optional note) for the stored table."""
    d3, d4, d5 = _delta(q, 3), _delta(q, 4), _delta(q, 5)
    F = Fraction
    rows = []
    if q % 2 == 0:
        gl = {2: q + 1, 3: q + 2, 4: q * q + 2 * q + 2, 5: q * q + 3 * q + 3,
              6: q ** 3 + 2 * q * q + 4 * q + 4}
        sl = {2: q + 1, 3: q + 1 + d3, 4: q * q + 2 * q + 2,
              5: q * q + 3 * q + 2 + d5,
              6: q ** 3 + 2 * q * q + (3 + d3) * q + 3 + d3}
        for n in range(2, 7):
            rows.append(("GL", n, "real", F(gl[n]), None))
            rows.append(("SL", n, "real", F(sl[n]), None))
        return rows
    # n = 2
    rows.append(("GL", 2, "real", F(q + 3), None))
    rows.append(("PGL", 2, "real", F(q + 2), None))
    rows.append(("SL", 2, "strongly_real", F(2), None))
    rows.append(("SL", 2, "real", F(q + 4) if q % 4 == 1 else F(q), None))
    rows.append(("PSL", 2, "real",
                 F(q + 5, 2) if q % 4 == 1 else F(q + 1, 2), None))
    # n = 3, 4, 5
    rows.append(("GL", 3, "real", F(2 * q + 6), None))
    rows.append(("SL", 3, "real", F(q + 2 + d3), None))
    rows.append(("PGL", 3, "real", F(q + 3), None))
    rows.append(("PSL", 3, "real", F(q + 2 + d3), None))
    rows.append(("GL", 4, "real", F(q * q + 4 * q + 9), None))
    rows.append(("SL", 4, "real", F(q * q + 4 * q + 4 + 2 * d4), None))
    rows.append(("PGL", 4, "real", F(q * q + 3 * q + 5), None))
    if q % 4 == 1:
        rows.append(("PSL", 4, "real",
                     F(q * q, 2) + F(5 * q, 2) + 3 + d4, _BAD_CELL_NOTE))
    else:
        rows.append(("PSL", 4, "real", F(q * q + 3 * q + 3 + d4), None))
    rows.append(("GL", 5, "real", F(2 * q * q + 8 * q + 14), None))
    rows.append(("SL", 5, "real", F(q * q + 4 * q + 6 + d5), None))
    rows.append(("PGL", 5, "real", F(q * q + 4 * q + 7), None))
    rows.append(("PSL", 5, "real", F(q * q + 4 * q + 6 + d5), None))
    # n = 6
    rows.append(("GL", 6, "real", F(q ** 3 + 4 * q * q + 13 * q + 22), None))
    rows.append(("PGL", 6, "real", F(q ** 3 + 3 * q * q + 9 * q + 12),
                 _BAD_PGL6_NOTE))
    rows.append(("SL", 6, "strongly_real",
                 F(4 * q * q + 8 * q + 12 + 2 * d3), _BAD_SL6_STRONG_NOTE))
    if q % 4 == 1:
        rows.append(("SL", 6, "real",
                     F(q ** 3 + 3 * q * q + (9 + d3) * q + 14 + 4 * d3), None))
        rows.append(("PSL", 6, "real",
                     F(q ** 3 + 2 * q * q + (7 + d3) * q + 7 + 2 * d3),
                     _BAD_CELL_NOTE))
        rows.append(("PSL", 6, "strongly_real",
                     F(q ** 3 + 2 * q * q + (7 + d3) * q + 7 + 2 * d3),
                     _BAD_CELL_NOTE))
    else:
        rows.append(("SL", 6, "real",
                     F(q ** 3 + 3 * q * q + (5 + d3) * q + 6), None))
        psl6 = (F(q ** 3, 2) + 2 * q * q + (3 + F(d3, 2)) * q
                + F(7, 2) + F(d3, 2))
        rows.append(("PSL", 6, "real", psl6, None))
        rows.append(("PSL", 6, "strongly_real",
                     psl6 - F(q * q - q, 2), None))
    return rows


def section13_table(q, budget=labels.DEFAULT_BUDGET):
    """Evaluate the stored small-rank reference polynomials and recompute
    every entry through the engine.

    Returns a list of row dicts with both columns and a match flag; rows
    whose stored polynomial is known to disagree with the case analysis
    carry an explanatory note.
    """
    out = []
    for family, n, kind, ref, note in _reference_rows(q):
        if ref.denominator != 1:
            raise ArithmeticError("reference value is fractional at "
                                  "%s_%d(%d)" % (family, n, q))
        ref = int(ref)
        engine = count(family, n, q, kind, budget=budget).total
        row = {"family": family, "n": n, "q": q, "kind": kind,
               "reference": ref, "engine": engine, "match": engine == ref}
        if note:
            row["note"] = note
        out.append(row)
    return out
