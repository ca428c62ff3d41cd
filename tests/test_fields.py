import pytest

from realclasses.fields import (MAX_Q, Field, canonical_nonsquare,
                                constrained_nonsquare, field_for_order,
                                is_prime, make_field, prime_power, two_adic)

SMALL_Q = [2, 3, 4, 5, 7, 8, 9, 11, 16, 25, 27]
ALL_Q = sorted(p ** k for p in range(2, MAX_Q + 1) if is_prime(p)
               for k in range(1, 8) if p ** k <= MAX_Q)


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
    for m in range(2, 25):
        assert is_prime(m) == (m in primes)
    assert not is_prime(1)


def test_prime_power_decomposition():
    assert prime_power(2) == (2, 1)
    assert prime_power(9) == (3, 2)
    assert prime_power(128) == (2, 7)
    assert prime_power(125) == (5, 3)
    for bad in (1, 6, 12, 100, 0, -4):
        with pytest.raises(ValueError):
            prime_power(bad)


def test_two_adic():
    assert two_adic(1) == 1
    assert two_adic(6) == 2
    assert two_adic(48) == 16
    assert two_adic(7) == 1


def test_field_size_bound():
    make_field(2, 7)  # q = 128 is allowed
    with pytest.raises(ValueError):
        make_field(2, 8)
    with pytest.raises(ValueError):
        Field(4)


@pytest.mark.parametrize("q", SMALL_Q)
def test_field_axioms(q):
    f = field_for_order(q)
    elts = list(f.elements)
    assert len(elts) == q
    for a in elts:
        assert f.add(a, f.zero) == a
        assert f.mul(a, f.one) == a
        assert f.add(a, f.neg(a)) == f.zero
        if a != f.zero:
            assert f.mul(a, f.inv(a)) == f.one
        # Frobenius fixed points: x^q = x
        assert f.pow(a, q) == a
    # distributivity on a full grid for tiny q, sampled otherwise
    grid = elts if q <= 9 else elts[::3]
    for a in grid:
        for b in grid:
            assert f.mul(a, b) == f.mul(b, a)
            assert f.add(a, b) == f.add(b, a)
            for c in grid[:5]:
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b),
                                                      f.mul(a, c))


def test_extension_field_moduli():
    # the canonical choices for the two extension fields used in the tables
    assert field_for_order(4).modulus == (1, 1, 1)      # t^2 + t + 1
    assert field_for_order(9).modulus == (1, 0, 1)      # t^2 + 1
    # every extension field up to MAX_Q, pinned from the exhaustive
    # lexicographic search the moduli were first found by
    pinned = {4: (1, 1, 1), 8: (1, 0, 1, 1), 9: (1, 0, 1),
              16: (1, 0, 0, 1, 1), 25: (1, 1, 1), 27: (1, 0, 2, 1),
              32: (1, 0, 0, 1, 0, 1), 49: (1, 0, 1),
              64: (1, 0, 0, 0, 0, 1, 1), 81: (1, 0, 1, 1, 1),
              121: (1, 0, 1), 125: (1, 0, 1, 1),
              128: (1, 0, 0, 0, 0, 0, 1, 1)}
    for q, modulus in pinned.items():
        assert field_for_order(q).modulus == modulus, q


def test_squares_and_canonical_nonsquares():
    for q, z in [(3, 2), (5, 2), (7, 3), (9, 4)]:
        f = field_for_order(q)
        assert not f.is_square(z)
        assert canonical_nonsquare(f) == z
        squares = {f.mul(a, a) for a in f.units}
        assert len(squares) == (q - 1) // 2
    # even q: everything is a square, so there is no nonsquare
    with pytest.raises(ValueError):
        canonical_nonsquare(field_for_order(4))


def test_constrained_nonsquare():
    # least nonsquare z with z^(n/2) = -1
    f3 = field_for_order(3)
    assert constrained_nonsquare(f3, 2) == 2          # 2 = -1 itself
    f7 = field_for_order(7)
    assert constrained_nonsquare(f7, 2) == 6          # -1 is a nonsquare
    z = constrained_nonsquare(f7, 6)
    assert not f7.is_square(z) and f7.pow(z, 3) == f7.minus_one
    # q = 1 mod 4 at n = 2: -1 is a square, so no nonsquare can hit it
    f5 = field_for_order(5)
    with pytest.raises(ValueError):
        constrained_nonsquare(f5, 2)


def test_field_cache():
    assert field_for_order(25) is field_for_order(25)
    assert field_for_order(MAX_Q).q == 128


@pytest.mark.parametrize("q", ALL_Q)
def test_list_views_match_tables(q):
    f = field_for_order(q)
    for view, table in ((f.add_list, f.add_table), (f.mul_list, f.mul_table),
                        (f.neg_list, f.neg_table)):
        assert view == table.tolist()
    assert all(f.mul_list[a][f.inv_list[a]] == 1 for a in f.units)
    assert sorted(f.exp) == list(f.units)
    assert all(f.log[f.exp[i]] == i for i in range(q - 1))
    assert f.exp[1 % (q - 1)] == f.generator


def _pow_reference(f, a, e):
    """Square-and-multiply on the numpy multiplication table; the inverse
    of a is found by searching its row of products, not from logarithms."""
    if e < 0:
        a, e = f.mul_list[a].index(1), -e
    acc, base = 1, a
    while e:
        if e & 1:
            acc = int(f.mul_table[acc, base])
        base = int(f.mul_table[base, base])
        e >>= 1
    return acc


@pytest.mark.parametrize("q", ALL_Q)
def test_pow_matches_square_and_multiply(q):
    f = field_for_order(q)
    for a in f.elements:
        for e in range(-q if a else 0, 2 * q):
            assert f.pow(a, e) == _pow_reference(f, a, e), (a, e)
    assert f.pow(0, 0) == 1
    with pytest.raises(ZeroDivisionError):
        f.pow(0, -1)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)
