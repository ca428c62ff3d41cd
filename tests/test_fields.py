import hashlib

import pytest

from realclasses import oracle
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
    assert make_field(3) is make_field(3, 1) is field_for_order(3)
    for _ in range(2):  # a rejected call is not cached: it raises again
        with pytest.raises(ValueError, match="exceeds the supported bound"):
            make_field(2, 8)
    assert field_for_order(MAX_Q).q == 128


@pytest.mark.parametrize("q", ALL_Q)
def test_list_views_match_tables(q):
    f = field_for_order(q)
    tables = oracle._tables(f)
    for view, table in ((f.add_list, tables.add), (f.mul_list, tables.mul),
                        (f.neg_list, tables.neg), (f.inv_list, tables.inv)):
        assert view == table.tolist()
    assert all(f.mul_list[a][f.inv_list[a]] == 1 for a in f.units)
    assert sorted(f.exp) == list(f.units)
    assert all(f.log[f.exp[i]] == i for i in range(q - 1))
    assert f.exp[1 % (q - 1)] == f.generator


def test_table_views_are_made_once_and_add_no_attribute():
    # the oracle's uint8 tables are cached beside a field, not on it: a
    # field built afresh keeps its attributes
    f = Field(5)
    names = list(vars(f))
    assert oracle._tables(f) is oracle._tables(f)
    assert list(vars(f)) == names


# sha256 of each field's modulus, add/mul/neg tables (dtype, shape and
# bytes), exp list and generator, recorded from the pairwise construction
# of the tables by schoolbook multiplication modulo the modulus.  The
# axioms above would also pass under a consistent relabelling of the
# elements; these pin the element encoding itself.
FIELD_DIGESTS = {
    2: "e79e61b3fb0595b36d313e0608322540f2c62df27b7b2098fa0ff9916ca51b21",
    3: "b9da2748715650dbbf8356b2ad437d40fa5c61e0957b2c521d75060b7d98ce62",
    4: "6357da7e6200eddc7a2a50cfbaccc0ec2e55d39273598efd52b27055b3bcff70",
    5: "e321e84451161feeef054ec676cae79e541ae1f36b5f94ddd1b9eb38c93e31a0",
    7: "caa8c737203555668caa01de19bb8296e711053e2954f7746ebece608782bbef",
    8: "21f55f57a6e1e860612f2b754d1d56d0730f945c8eeaab8e668ea087ada9bf9b",
    9: "cff18bc96b1d8e97ae9080c752da594f47c73987d9fb0a49854b63ab9c29451e",
    11: "affd18d54d1aac8ea676635316d14eed2a868bd06ab8f5c87859e30b459a7c5f",
    13: "a265426c5cb1cb23ff6845a447ea6ca2c9472b9e368f33a9bad41cb7fb99196d",
    16: "cbb03acadb981442207767a262a32a1dc0d90ab0b4caa4e8d722f9b213ddc4d2",
    17: "ac1ff960ad1e6b291b988a8bb9408ba023f33bcab8eabde6284c1643c4451597",
    19: "b98fed39d9d2024a23d6a78bdde441215042d7732c985401632d29c882bdb5f9",
    23: "efdb7a62851d698b0a6e7c34ee55c7ea5cbce1cf4dc7102c7a54656049a9cbf2",
    25: "66393eb79250111bdf3d1aa3190c4efaf28192c4ab5b812fd19e7aa9962412b1",
    27: "0312f8e266e260219c293053838f4dcfb6bc36e50f1b1eb677332b6b27a7815f",
    29: "c3823733b6e5cc53cc79e3b899f14ad25453a09e16f38e962e2715475d171ce7",
    31: "2bca8b629001ae18bccde7e2cdba7ebaf121bed5a55a56d54aa9e05a8f2647c4",
    32: "08ee29e0b18ec695baf5806f2fa8d4a0af568b3e4b0e957b1a774372237a9d94",
    37: "356f41373d7af83c233fd2571932365b97689c12d20a736d67d7f7e0783142fe",
    41: "2fbf737953fbe2b1a0a917368be2878267ff44f33981fdafd7cef7ae1ac938ef",
    43: "2d37a7e2206637f2ba0ea7bc5890a6d6787247188ac0c41bdfb92d0f59e469cd",
    47: "5441d198b8df99126745a0f9be0f740827a7f85e90ad4fa9571184f374e7e9ca",
    49: "dc4cab38affb232c9eb805d5c2929138a99e2a2c34b0493804ab5a429468dc67",
    53: "fc98af4000441bf5ca538a75bf2744aa13c301db0a8b329ddd697dbb5b380023",
    59: "dd8dac91e9ecd37b3a3065057801c9611d11e5c463d86befcc47ae4c4332c207",
    61: "0db2665f957f3ec608215dba068aa0e7bb63aa12b502ab035219ceaa0251d361",
    64: "45945251c3f64c8c9051b1addcdac03ec64051c76d422173a8cc3a1adde5d27e",
    67: "a85cf2f6d1cb29d16f9150042edaa54d44e291de1065603f5312d402a4d0b118",
    71: "61591c54098d81bd36bbbfa7f4b2d8e19aa4602b7c4ffd4dfc55200c8d93c4c9",
    73: "086a3cb219c2bc3862a517aeea01d9e9bf24659f2c0c6e584a613f7740bd59a6",
    79: "b516d3b7d293adb5500d9b0046b483437d0136c70b01efe7713a3a56b3fad28c",
    81: "9cfec75058826d20967eb22e4e61778d1b8aeee6f1eb9f504ca8b437722b88c8",
    83: "8b4193aac62aabf9485c7f9127d12230d541cf6af84dc3aee6b2d9d6668f9f6f",
    89: "4e953c937ae405a00d2a13bcec9071839fe59a0460126c2152b18eb9c636cfbd",
    97: "89b57020985199cdad27154aaf8f26a4f0a4de004a00f5a7354e5113ccbaf820",
    101: "84988a80c6fefa07380b5cb02d700cb5662a9c0179819e3d3d536b6f5375bb70",
    103: "22e6ad9292d669d37fff01cfd77e833334b6ab5c591d0008ea76c716a83e9b3b",
    107: "90affb62df1f26607ef32bb5428a59a520352cd963329c4eb9272a6e5dd765db",
    109: "3c4cc5ccd3b681be21c61feb08de934a1949313e4a5d8c6dcc5402d6a184ba53",
    113: "14d5c7ea25950e9a0fa53f78f6d1367ea501ae80f352e7c5514ea8d6a0276320",
    121: "a80abb7e38a4c9b79fa97c920d077e17900b961825eb65a30fc266f973bbf04c",
    125: "a6788fbf987ebe6c3940f3f2919070aa564742ce1786405fdf7893c9953ffc31",
    127: "916241fd52bcf5f31b758c4ff19b54b83b8681319fbb9e644d9d1660c4854e93",
    128: "5673c96f51c0128a6f84153d93510dc50fe1f97b72e14bed30b11b2c14a1a930",
}


def _field_digest(f):
    h = hashlib.sha256(repr(f.modulus).encode())
    tables = oracle._tables(f)
    for t in (tables.add, tables.mul, tables.neg):
        h.update(repr((t.dtype.str, t.shape)).encode())
        h.update(t.tobytes())
    h.update(repr((f.exp, f.generator)).encode())
    return h.hexdigest()


def test_field_digests():
    assert sorted(FIELD_DIGESTS) == ALL_Q
    for q in ALL_Q:
        assert _field_digest(field_for_order(q)) == FIELD_DIGESTS[q], q


def _pow_reference(f, a, e):
    """Square-and-multiply on the multiplication table; the inverse of a
    is found by searching its row of products, not from logarithms."""
    if e < 0:
        a, e = f.mul_list[a].index(1), -e
    mul = f.mul_list
    acc, base = 1, a
    while e:
        if e & 1:
            acc = mul[acc][base]
        base = mul[base][base]
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
