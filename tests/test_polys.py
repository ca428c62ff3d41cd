import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from realclasses import polys
from realclasses.fields import canonical_nonsquare, field_for_order
from realclasses.polys import (ONE, count_nqd, degree, enumerate_S,
                               enumerate_T, factorize, is_twisted_reciprocal,
                               irreducibles, monicize, normalize,
                               poly_add, poly_divmod, poly_eval, poly_mul,
                               poly_str, sigma)


# Reference maps and powers of polynomials, for the tests here and in
# test_labels, test_oracle and test_acceptance; the package itself does not
# use them.

def poly_pow(field, f, e):
    acc = ONE
    for _ in range(e):
        acc = poly_mul(field, acc, f)
    return acc


def tilde(field, f):
    """Monic polynomial whose roots are the inverses of the roots of f.

    Requires f monic with nonzero constant term.
    """
    if not f or f[-1] != 1:
        raise ValueError("tilde requires a monic polynomial, got %r" % (f,))
    if f[0] == 0:
        raise ValueError("tilde requires a nonzero constant term")
    return monicize(field, f[::-1])


def breve(field, f, zeta):
    """Monic polynomial whose roots are zeta/alpha for each root alpha of f.

    Requires f monic with nonzero constant term; it is the scalar-twisted
    companion of tilde and agrees with it when zeta = 1.
    """
    if not f or f[-1] != 1:
        raise ValueError("breve requires a monic polynomial, got %r" % (f,))
    if f[0] == 0:
        raise ValueError("breve requires a nonzero constant term")
    twisted = [field.mul(c, field.pow(zeta, i)) for i, c in enumerate(f)]
    return monicize(field, tuple(reversed(twisted)))


def eta_act(field, f, eta):
    """Reference f(t) -> f(eta t) through logarithms: the t^k coefficient
    is multiplied by eta^k."""
    if eta == 0:
        raise ValueError("eta must be a unit")
    log, exp, order = field.log, field.exp, field.q - 1
    step = log[eta]
    return tuple([exp[(log[c] + k * step) % order] if c else 0
                  for k, c in enumerate(f)])


def _rand_poly(rng, q, d):
    c = [rng.randrange(q) for _ in range(d)] + [rng.randrange(1, q)]
    return tuple(c)


def test_normalize_and_degree():
    assert normalize([1, 2, 0, 0]) == (1, 2)
    assert normalize([0, 0]) == ()
    assert degree((1, 0, 3)) == 2
    assert ONE == (1,)


def test_ring_identities():
    f5 = field_for_order(5)
    rng = random.Random(11)
    for _ in range(60):
        a = _rand_poly(rng, 5, rng.randrange(4))
        b = _rand_poly(rng, 5, rng.randrange(4))
        c = _rand_poly(rng, 5, rng.randrange(4))
        assert poly_mul(f5, a, b) == poly_mul(f5, b, a)
        lhs = poly_mul(f5, a, poly_add(f5, b, c))
        rhs = poly_add(f5, poly_mul(f5, a, b), poly_mul(f5, a, c))
        assert lhs == rhs
        quo, rem = poly_divmod(f5, poly_mul(f5, a, b), b)
        assert quo == a and rem == ()


def test_divmod_roundtrip():
    f4 = field_for_order(4)
    rng = random.Random(7)
    for _ in range(40):
        f = _rand_poly(rng, 4, rng.randrange(1, 6))
        g = _rand_poly(rng, 4, rng.randrange(1, 4))
        quo, rem = poly_divmod(f4, f, g)
        back = poly_add(f4, poly_mul(f4, quo, g), rem)
        assert back == normalize(f)
        assert rem == () or degree(rem) < degree(g)


@st.composite
def _divmod_cases(draw):
    """(q, f, g): f may carry trailing zeros, g has a nonzero top."""
    q = draw(st.sampled_from([2, 3, 4, 9, 16]))
    coeff = st.integers(0, q - 1)
    f = tuple(draw(st.lists(coeff, max_size=10)))
    g = tuple(draw(st.lists(coeff, max_size=5))) + (draw(st.integers(1, q - 1)),)
    return q, f, g


@settings(max_examples=400, deadline=None, database=None)
@given(_divmod_cases())
@example((3, (1, 2), (1, 1, 1)))           # deg f < deg g
@example((16, (5, 0, 7, 1), (9,)))         # constant g
@example((9, (), (4, 5, 1)))               # zero f
@example((4, (0, 0, 0), (1, 1)))           # zero f with trailing zeros
def test_divmod_roundtrip_by_definition(case):
    # f = g * quot + rem with deg rem < deg g, over F_2, F_3, F_4, F_9, F_16
    q, f, g = case
    field = field_for_order(q)
    quo, rem = poly_divmod(field, f, g)
    assert quo == normalize(quo) and rem == normalize(rem)
    assert poly_add(field, poly_mul(field, g, quo), rem) == normalize(f)
    assert degree(rem) < degree(g)
    if len(normalize(f)) <= degree(g):
        assert quo == () and rem == normalize(f)


def test_poly_eval_horner():
    f7 = field_for_order(7)
    f = (3, 0, 1)  # t^2 + 3
    assert poly_eval(f7, f, 0) == 3
    assert poly_eval(f7, f, 2) == 0  # 4 + 3 = 7
    assert poly_eval(f7, f, 5) == 0  # 25 + 3 = 28


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_tilde_involutive(q):
    field = field_for_order(q)
    for d in range(1, 4):
        for tail in itertools.product(field.elements, repeat=d):
            f = tail + (1,)
            if f[0] == 0:
                continue
            g = tilde(field, f)
            assert g[-1] == 1 and g[0] != 0
            assert tilde(field, g) == monicize(field, f)


@pytest.mark.parametrize("q", [3, 5, 9])
def test_breve_involutive(q):
    field = field_for_order(q)
    zeta = canonical_nonsquare(field)
    for d in range(1, 4):
        for tail in itertools.product(field.elements, repeat=d):
            f = tail + (1,)
            if f[0] == 0:
                continue
            g = breve(field, f, zeta)
            assert breve(field, g, zeta) == monicize(field, f)
    # breve with zeta = 1 degenerates to tilde
    assert breve(field, (2, 1, 1), 1) == tilde(field, (2, 1, 1))


def test_self_reciprocal_examples():
    f3 = field_for_order(3)
    assert is_twisted_reciprocal(f3, (1, 1, 1), 1)
    assert is_twisted_reciprocal(f3, (1, 2, 1), 1)
    assert is_twisted_reciprocal(f3, (1, 0, 2), 1)      # anti-palindromic
    assert not is_twisted_reciprocal(f3, (1, 1, 2), 1)
    # anti-palindromic polynomials vanish at both 1 and -1
    f = (1, 0, 2)
    assert poly_eval(f3, f, 1) == 0 and poly_eval(f3, f, f3.minus_one) == 0


def test_count_nqd_closed_form():
    # q odd: 2q^((d-1)/2) for odd d, q^(d/2) + q^(d/2-1) for even d;
    # q even: q^(d/2) or q^((d-1)/2)
    assert count_nqd(3, 1) == 2
    assert count_nqd(3, 2) == 4
    assert count_nqd(3, 3) == 6
    assert count_nqd(3, 4) == 12
    assert count_nqd(2, 1) == 1
    assert count_nqd(2, 2) == 2
    assert count_nqd(2, 3) == 2
    assert count_nqd(4, 4) == 16
    assert count_nqd(9, 6) == 810


def _const1(field, d):
    """Every degree-d polynomial with constant term 1, sorted."""
    return sorted((1,) + mid + (lead,)
                  for mid in itertools.product(field.elements, repeat=d - 1)
                  for lead in field.units)


def _degrees(q):
    return range(1, {3: 7, 16: 4}.get(q, 5))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
def test_enumerate_T_matches_count(q):
    # T_d is the brute-force filter by the tilde reference
    field = field_for_order(q)
    for d in _degrees(q):
        found = enumerate_T(field, d)
        assert len(found) == count_nqd(q, d)
        assert len(set(found)) == len(found)
        assert found == sorted(found)
        for f in found:
            assert f[0] == 1 and degree(f) == d
            assert is_twisted_reciprocal(field, f, 1)
        assert found == [
            f for f in _const1(field, d)
            if tilde(field, monicize(field, f)) == monicize(field, f)]


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_enumerate_S_matches_count(q):
    # S_d(zeta) for every non-square zeta, the canonical one and the
    # zeta^{-1} the counts read alike, is the filter by the breve reference
    field = field_for_order(q)
    for zeta in field.units:
        if field.is_square(zeta):
            continue
        for d in _degrees(q):
            found = enumerate_S(field, d, zeta)
            assert len(found) == count_nqd(q, d) * sigma(d)
            for f in found:
                assert is_twisted_reciprocal(field, f, zeta)
            assert found == [
                f for f in _const1(field, d)
                if breve(field, monicize(field, f), zeta) == monicize(field, f)]


def test_pool_array_is_read_only():
    # the cached pool is shared by every caller: a write must fail
    field = field_for_order(5)
    for c in (1, canonical_nonsquare(field)):
        pool = polys._pool(field, 4, c)
        assert pool.shape == (len(pool), 5)
        with pytest.raises(ValueError):
            pool[0, 0] = 2
        assert polys._pool(field, 4, c) is pool


def test_enumerate_S_requires_odd_q():
    with pytest.raises(ValueError):
        enumerate_S(field_for_order(4), 2, 1)


def test_sigma():
    for d in range(1, 9):
        assert sigma(d) == (1 if d % 2 == 0 else 0)


def test_eta_act():
    f5 = field_for_order(5)
    assert eta_act(f5, (1, 1, 1), 2) == (1, 2, 4)
    with pytest.raises(ValueError):
        eta_act(f5, (1, 1), 0)


def _mobius(m):
    out, left = 1, m
    p = 2
    while p * p <= left:
        if left % p == 0:
            left //= p
            if left % p == 0:
                return 0
            out = -out
        p += 1
    if left > 1:
        out = -out
    return out


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_irreducible_counts(q):
    field = field_for_order(q)
    for d in range(1, 5):
        divisors = [e for e in range(1, d + 1) if d % e == 0]
        want = sum(_mobius(e) * q ** (d // e) for e in divisors) // d
        if d == 1:
            want = q  # monic linear polynomials are all irreducible
        found = irreducibles(field, d)
        assert len(found) == want
        assert found == sorted(set(found))
        assert all(degree(f) == d and f[-1] == 1 for f in found)
        assert irreducibles(field, d) is found
    for _ in range(2):  # a rejected call is not cached: it raises again
        with pytest.raises(ValueError, match="degree must be at least 1"):
            irreducibles(field, 0)


def test_factorize_roundtrip():
    rng = random.Random(23)
    for q in (3, 4, 5):
        field = field_for_order(q)
        for _ in range(30):
            f = _rand_poly(rng, q, rng.randrange(1, 6))
            fact = factorize(field, f)
            rebuilt = (fact.unit,)
            for g, mult in fact.factors:
                assert g in irreducibles(field, degree(g))
                rebuilt = poly_mul(field, rebuilt, poly_pow(field, g, mult))
            assert rebuilt == normalize(f)


@st.composite
def _factorize_cases(draw):
    """(q, f): a unit times a product of random powers of random factors,
    so that repeated and equal-degree factors are common."""
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 9]))
    coeff = st.integers(0, q - 1)
    f = (draw(st.integers(1, q - 1)),)
    for _ in range(draw(st.integers(0, 4))):
        g = tuple(draw(st.lists(coeff, min_size=1, max_size=3))) + (1,)
        f = poly_mul(field_for_order(q), f,
                     poly_pow(field_for_order(q), g, draw(st.integers(1, 3))))
    return q, f


@settings(max_examples=300, deadline=None, database=None)
@given(_factorize_cases())
@example((3, (2,)))                        # a unit
@example((7, (4, 0, 1)))                   # t^2 - 3, 3 a non-square
@example((5, poly_pow(field_for_order(5), (1, 1), 5)))  # (t + 1)^5
def test_factorize_roundtrip_by_definition(case):
    # unit * prod p^m == f, each p a distinct monic irreducible, sorted
    q, f = case
    field = field_for_order(q)
    fact = factorize(field, f)
    rebuilt = (fact.unit,)
    for p, mult in fact.factors:
        assert mult >= 1 and p in irreducibles(field, degree(p))
        rebuilt = poly_mul(field, rebuilt, poly_pow(field, p, mult))
    assert rebuilt == f
    keys = [(degree(p), p) for p, _ in fact.factors]
    assert keys == sorted(set(keys))


def test_poly_str():
    f3 = field_for_order(3)
    assert poly_str(f3, (1, 0, 2)) == "2t^2+1"
    assert poly_str(f3, ()) == "0"
    assert poly_str(f3, (2,)) == "2"
