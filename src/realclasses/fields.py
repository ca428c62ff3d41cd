"""Arithmetic in small finite fields F_q with q = p^k <= 128.

Field elements are plain integers in [0, q): the base-p digits of the
integer are the coefficients (lowest degree first) of the residue
polynomial modulo a fixed monic irreducible.  This makes element order
canonical, which the rest of the package leans on (canonical non-squares,
deterministic label enumeration, reproducible CLI output).

The modulus is the lexicographically least monic irreducible of degree k
over F_p, comparing coefficient tuples lowest degree first: the first of
``polys.irreducibles`` over the prime field.  For example F_4 uses
t^2 + t + 1 and F_9 uses t^2 + 1; F_p itself uses t.

Every table comes from one array, the digit vectors of the q elements:
sums add them mod p, and multiplication by a = sum a_i t^i is the matrix
sum a_i C^i over F_p, with C the companion matrix of the modulus (the
matrix representation of F_p[t]/(m)).  A field holds the resulting
``uint8`` tables (``add_table``, ``mul_table``, ``neg_table``), which the
oracle's vectorised ``_Ops`` index in bulk.  Scalar operations, and the
kernels in ``polys``, read plain-list views of them (``add_list`` and so
on; a list index costs a fraction of a numpy scalar index), the
logarithms ``log`` and antilogarithms ``exp`` over ``generator``, the
least element of order q - 1, and the inverses ``inv_list`` read from
the logarithms.
"""

from functools import lru_cache

import numpy as np

from . import polys
from .errors import UsageError

MAX_Q = 128


def is_prime(m):
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


def two_adic(m):
    """Largest power of two dividing m (m >= 1)."""
    if not isinstance(m, int) or m < 1:
        raise ValueError("two_adic needs a positive integer, got %r" % (m,))
    return m & -m


# ---------------------------------------------------------------------------

class Field:
    """F_q, q = p^k, with table-backed arithmetic on integer indices."""

    def __init__(self, p, k=1):
        if not is_prime(p):
            raise UsageError("characteristic must be prime, got %r" % (p,))
        if not isinstance(k, int) or k < 1:
            raise UsageError("extension degree must be a positive integer")
        q = p ** k
        if q > MAX_Q:
            raise UsageError("q = %d exceeds the supported bound %d" % (q, MAX_Q))
        self.p = p
        self.k = k
        self.q = q
        self.modulus = (0, 1) if k == 1 else polys.irreducibles(
            make_field(p, 1), k)[0]

        # the base-p digit vectors of the elements, and the matrix of
        # multiplication by a = sum a_i t^i: sum a_i C^i, with C the
        # companion matrix of the modulus (C = [[0]] at k = 1)
        weights = p ** np.arange(k)
        digits = np.arange(q)[:, None] // weights % p
        companion = np.eye(k, k=-1, dtype=np.int64)
        companion[:, -1] = np.negative(self.modulus[:k]) % p
        powers = np.stack([np.linalg.matrix_power(companion, i) % p
                           for i in range(k)])
        times = np.tensordot(digits, powers, axes=1) % p
        sums = (digits[:, None] + digits) % p    # [a, b, i]: digit i of a + b
        products = times @ digits.T % p         # [a, i, b]: digit i of a * b
        self.add_table = (sums @ weights).astype(np.uint8)
        self.mul_table = (weights @ products).astype(np.uint8)
        self.neg_table = (-digits % p @ weights).astype(np.uint8)

        self.add_list = self.add_table.tolist()
        self.mul_list = self.mul_table.tolist()
        self.neg_list = self.neg_table.tolist()
        self.generator, self.exp, self.log = self._logarithms()
        # entry 0 is a placeholder: inv rejects 0
        self.inv_list = [0] + [self.exp[-self.log[a] % (q - 1)]
                               for a in range(1, q)]

        self.zero = 0
        self.one = 1
        self.minus_one = self.neg_list[1]
        self.squares = frozenset(self.mul_list[a][a] for a in range(q))

    def _logarithms(self):
        """The least generator g of F_q^*, the list exp[i] = g^i for
        0 <= i < q - 1, and the list log with log[g^i] = i (log[0] = None)."""
        q, mul = self.q, self.mul_list
        for g in self.units:
            exp = [1]
            while len(exp) < q - 1 and mul[exp[-1]][g] != 1:
                exp.append(mul[exp[-1]][g])
            if len(exp) == q - 1:
                log = [None] * q
                for i, x in enumerate(exp):
                    log[x] = i
                return g, exp, log
        raise AssertionError("unreachable: F_q^* is cyclic")

    # -- arithmetic --------------------------------------------------------
    def add(self, a, b):
        return self.add_list[a][b]

    def neg(self, a):
        return self.neg_list[a]

    def sub(self, a, b):
        return self.add_list[a][self.neg_list[b]]

    def mul(self, a, b):
        return self.mul_list[a][b]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in %r" % (self,))
        return self.inv_list[a]

    def pow(self, a, e):
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("inverse of zero in %r" % (self,))
            return 0 if e else 1
        return self.exp[self.log[a] * e % (self.q - 1)]

    # -- element sets ------------------------------------------------------
    @property
    def elements(self):
        return range(self.q)

    @property
    def units(self):
        return range(1, self.q)

    def is_square(self, x):
        return x in self.squares

    def __repr__(self):
        return "F_%d" % self.q


def make_field(p, k=1):
    """Construct (and cache) F_{p^k}; calls with equal p and k return the
    same object."""
    return _cached_field(p, k)


_cached_field = lru_cache(maxsize=None)(Field)


def prime_power(q):
    """Decompose q as (p, k) with p prime and q = p^k, or raise UsageError."""
    if not isinstance(q, int) or q < 2:
        raise UsageError("q must be an integer >= 2, got %r" % (q,))
    p = 2
    while p * p <= q:
        if q % p == 0:
            break
        p += 1
    else:
        return q, 1
    k = 0
    m = q
    while m % p == 0:
        m //= p
        k += 1
    if m != 1:
        raise UsageError("%d is not a prime power" % (q,))
    return p, k


def field_for_order(q):
    """The cached field with exactly q elements."""
    p, k = prime_power(q)
    return make_field(p, k)


def canonical_nonsquare(field):
    """Least non-square element; an error for q even (everything is a square)."""
    if field.q % 2 == 0:
        raise ValueError("every element of %r is a square" % (field,))
    for x in field.units:
        if not field.is_square(x):
            return x
    raise AssertionError("unreachable: odd field with no non-square")


def constrained_nonsquare(field, n):
    """Least non-square z with z^(n/2) = -1, for n even and q odd.

    Raises if no such z exists, which signals that the caller is outside
    the regime where the two-adic parts of n and q-1 agree.
    """
    if field.q % 2 == 0:
        raise ValueError("non-squares require odd q")
    if n % 2 != 0:
        raise ValueError("n must be even, got %r" % (n,))
    for x in field.units:
        if not field.is_square(x) and field.pow(x, n // 2) == field.minus_one:
            return x
    raise ValueError("no non-square z with z^%d = -1 in %r" % (n // 2, field))
