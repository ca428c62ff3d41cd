import itertools
import math

import pytest

from realclasses import counts, labels, polys
from realclasses.errors import BudgetExceeded
from realclasses.fields import (canonical_nonsquare, constrained_nonsquare,
                                field_for_order)
from realclasses.labels import (enumerate_labels, equivalence_classes,
                                exponent_two_adic, h_nu, has_odd_part,
                                is_twisted_real_label, label_det,
                                label_n, label_to_json, label_type,
                                make_label, partitions_of,
                                sl_real, sl_strongly_real)
from realclasses.polys import ONE
from test_polys import breve, eta_act, tilde


def test_partitions_of():
    # number of partitions of n = 0..6
    for n, want in enumerate([1, 1, 2, 3, 5, 7, 11]):
        parts = partitions_of(n)
        assert len(parts) == want
        for nu in parts:
            assert sum(i * ni for i, ni in enumerate(nu, 1)) == n
    assert partitions_of(0) == [()]
    # no rank cap: p(13) = 101, p(14) = 135
    assert len(partitions_of(13)) == 101 and len(partitions_of(14)) == 135


def test_make_label_validation():
    f3 = field_for_order(3)
    lab = make_label(f3, [(1, 2), ONE, (1, 1)])
    assert lab == ((1, 2), (1,), (1, 1))
    # trailing trivial slots are trimmed
    assert make_label(f3, [(1, 2), ONE]) == ((1, 2),)
    with pytest.raises(ValueError):
        make_label(f3, [(2, 1)])     # constant term must be 1
    with pytest.raises(ValueError):
        make_label(f3, [(1, 0)])     # leading coefficient must be nonzero


def test_label_type_and_size():
    f3 = field_for_order(3)
    lab = make_label(f3, [(1, 1, 2), ONE, (1, 2)])
    assert label_type(lab) == (2, 0, 1)
    assert label_n(lab) == 2 + 3 * 1


def test_label_det():
    f3 = field_for_order(3)
    # identity of GL_2: u_1 = (1 - t)^2 = 1 + t + t^2 over F_3
    assert label_det(f3, make_label(f3, [(1, 1, 1)])) == 1
    # -I: u_1 = (1 + t)^2
    assert label_det(f3, make_label(f3, [(1, 2, 1)])) == 1
    # single slot-2 block with u_2 = 1 + 2t (eigenvalue 1): det 1
    assert label_det(f3, make_label(f3, [ONE, (1, 2)])) == 1
    f5 = field_for_order(5)
    # u_1 = 1 + 2t has root -1/2 = 2, so the eigenvalue is 1/2 = 3 = det
    assert label_det(f5, make_label(f5, [(1, 2)])) == 3


@pytest.mark.parametrize("q,n", [(2, 3), (3, 3), (4, 2), (5, 2)])
def test_label_count(q, n):
    # one label per class of GL_n(q): (q-1) q^(n_i - 1) choices per slot
    want = 0
    for nu in partitions_of(n):
        prod = 1
        for ni in nu:
            if ni:
                prod *= (q - 1) * q ** (ni - 1)
        want += prod
    field = field_for_order(q)
    labs = list(enumerate_labels(field, n))
    assert len(labs) == want
    assert len(set(labs)) == len(labs)


def test_enumerate_labels_filters():
    f3 = field_for_order(3)
    real = list(enumerate_labels(f3, 2, twist=1))
    assert len(real) == 6
    assert all(is_twisted_real_label(f3, lab, 1) for lab in real)
    zeta = canonical_nonsquare(f3)
    zreal = list(enumerate_labels(f3, 2, twist=zeta))
    assert len(zreal) == 4
    assert all(is_twisted_real_label(f3, lab, zeta) for lab in zreal)
    for bad in (0, 3, "zeta_real"):
        with pytest.raises(ValueError):
            list(enumerate_labels(f3, 2, twist=bad))
    with pytest.raises(ValueError):
        list(enumerate_labels(field_for_order(5), 2, twist=4))  # a square


def _twist(field, filt):
    """The twist a filter name stands for."""
    if filt is None:
        return None
    return 1 if filt == "real" else canonical_nonsquare(field)


def test_enumerate_labels_budget():
    f5 = field_for_order(5)
    with pytest.raises(BudgetExceeded):
        enumerate_labels(f5, 4, budget=10)


def test_h_nu():
    assert h_nu((1, 1), 3) == 1        # parts {1, 1}
    assert h_nu((2,), 3) == 1          # nu = 1^2, parts are 1
    assert h_nu((0, 1), 3) == 2        # nu = 2^1, parts are 2
    assert h_nu((0, 0, 0, 0, 0, 1), 7) == 6   # gcd(6, 6)
    assert h_nu((0, 0, 0, 0, 0, 1), 5) == 2   # gcd(4, 6)
    assert h_nu((0, 1, 1), 7) == 1     # gcd(6, 2, 3) = 1


def test_exponent_two_adic_and_odd_part():
    assert exponent_two_adic((2, 1)) == 1      # gcd(2, 1) = 1
    assert exponent_two_adic((0, 3)) == 1      # gcd of multiplicities is 3
    assert exponent_two_adic((0, 2)) == 2      # multiplicity 2 of part 2
    assert has_odd_part((1, 1))
    assert not has_odd_part((0, 2))


def _check_orbits(field, pool, orbits):
    """The orbits partition the pool, each is the in-pool translates of its
    least member and of each other member, and they are listed by least
    member."""
    members = [lab for orbit in orbits for lab in orbit]
    assert len(members) == len(set(members)) and set(members) == pool
    for orbit in orbits:
        assert list(orbit) == sorted(orbit)
        for lab in orbit:
            assert {tuple(eta_act(field, u, eta) for u in lab)
                    for eta in field.units} & pool == set(orbit)
    reps = [orbit[0] for orbit in orbits]
    assert reps == sorted(reps)


@pytest.mark.parametrize("q", [3, 4, 5, 7, 9, 13])
def test_equivalence_classes_match_full_unit_scan(q):
    # the real and zeta-real labels of weight n <= 4, every type in one set
    # and (as the label-fold reference builds them) one type at a time
    field = field_for_order(q)
    filts = ("real", "zeta_real") if q % 2 else ("real",)
    wide = 0
    for n in range(5):
        by_type = {}
        for filt in filts:
            for lab in enumerate_labels(field, n, twist=_twist(field, filt)):
                by_type.setdefault(label_type(lab), set()).add(lab)
        every = set().union(*by_type.values())
        _check_orbits(field, every, equivalence_classes(field, every))
        for pool in by_type.values():
            orbits = equivalence_classes(field, pool)
            _check_orbits(field, pool, orbits)
            for orbit in orbits:
                signed = {tuple(eta_act(field, u, eta) for u in orbit[0])
                          for eta in (field.one, field.minus_one)}
                wide += not set(orbit) <= signed
    # at odd q > 3 some orbit is joined only by an eta other than +-1
    # (at q = 3 these are the only units)
    if q % 2 and q > 3:
        assert wide > 0


def test_orbit_joined_by_a_unit_other_than_minus_one():
    # over F_5, 1 + 2t^2 and 1 + 3t^2 are zeta-real for zeta = 2, and
    # t -> 2t carries the one to the other since 2 * 2^2 = 3; t -> -t
    # fixes both
    f5 = field_for_order(5)
    zeta = canonical_nonsquare(f5)
    a, b = make_label(f5, [(1, 0, 2)]), make_label(f5, [(1, 0, 3)])
    assert (is_twisted_real_label(f5, a, zeta)
            and is_twisted_real_label(f5, b, zeta))
    assert tuple(eta_act(f5, u, 2) for u in a) == b
    assert tuple(eta_act(f5, u, f5.minus_one) for u in a) == a
    orbits = equivalence_classes(
        f5, enumerate_labels(f5, 2, twist=zeta))
    assert (a, b) in orbits


def test_psl_nonsquare_names_the_corner():
    # the zeta^(n/2) = -1 non-square at n = 2 mod 4, q = 3 mod 4, and
    # nothing elsewhere
    for q, n in ((3, 2), (3, 6), (7, 6), (11, 10), (19, 6)):
        field = field_for_order(q)
        assert labels.psl_nonsquare(field, n) == constrained_nonsquare(
            field, n)
    for q, n in ((5, 6), (9, 6), (3, 4), (7, 3), (4, 6), (3, 0)):
        assert labels.psl_nonsquare(field_for_order(q), n) is None


def _twist_set(field, u):
    """Every unit c, square or not, with t^d u(c/t) = s u for a scalar s:
    coefficientwise u_(d-k) c^(d-k) = s u_k, s = u_d c^d."""
    d = polys.degree(u)
    return {c for c in field.units
            if all(field.mul(u[d - k], field.pow(c, d - k))
                   == field.mul(field.mul(u[d], field.pow(c, d)), u[k])
                   for k in range(d + 1))}


def _bad_set(field, u):
    """The c in the twist set of u at which the unchanged helper holds."""
    return {c for c in _twist_set(field, u)
            if labels._factors_all_even_and_fixed_deg_div4(field, u, c)}


@pytest.mark.parametrize("q,n", [(3, 6), (7, 6), (11, 6), (3, 10)],
                         ids=["3", "7", "11", "3-n10"])
def test_psl_strong_orbit_matches_full_scan(q, n):
    # the fold calls an eta-orbit strongly real in PSL iff its twist set
    # C(L) is not inside the bad sets of the odd slots; against a scan of
    # the full orbit of each PGL-real label for a member the per-label
    # criterion passes, with twist and bad sets found by trial
    field = field_for_order(q)
    zeta = labels.psl_nonsquare(field, n)
    everything = set(field.units)
    strong_seen = {False: 0, True: 0}
    pools = {}
    for c in (field.one, zeta):
        for lab in enumerate_labels(field, n, twist=c):
            nu = label_type(lab)
            if has_odd_part(nu):
                pools.setdefault(nu, set()).add(lab)
    for pool in pools.values():
        for orbit in equivalence_classes(field, pool):
            lab = orbit[0]
            full = {tuple(eta_act(field, u, eta) for u in lab)
                    for eta in field.units}
            scanned = any(labels.psl_strongly_real(field, m, zeta)
                          for m in full)
            twists = set.intersection(*(_twist_set(field, u) for u in lab))
            bad = everything.intersection(*(
                _bad_set(field, u) for i, u in enumerate(lab, 1)
                if i % 2 == 1 and polys.degree(u) > 0))
            assert scanned == (not twists <= bad), lab
            strong_seen[scanned] += 1
    assert strong_seen[False] and strong_seen[True]


def test_psl_strongly_real_reads_only_real_or_psi_real_labels():
    # at n = 6, q = 11 the PSL non-square psi = -1 = 10 is not the least
    # non-square 2; the criterion answers None exactly for the det-1 labels
    # that are neither real nor psi-real, and a bool for every real and
    # every psi-real label
    field = field_for_order(11)
    psi = labels.psl_nonsquare(field, 6)
    assert psi == 10 and canonical_nonsquare(field) == 2
    read = set()
    for c in (field.one, psi):
        for lab in enumerate_labels(field, 6, twist=c):
            assert isinstance(labels.psl_strongly_real(field, lab, psi), bool)
            read.add(lab)
    # every label of the types with at most 2000 labels, non-real ones too
    unread = 0
    for nu in partitions_of(6):
        if math.prod(10 * 11 ** (ni - 1) for ni in nu if ni) > 2000:
            continue
        for lab in itertools.product(*(labels.const1_polys(field, ni)
                                       for ni in nu)):
            if label_det(field, lab) != field.one:
                continue
            got = labels.psl_strongly_real(field, lab, psi)
            neither = not (is_twisted_real_label(field, lab, field.one)
                           or is_twisted_real_label(field, lab, psi))
            assert (got is None) == neither, lab
            assert neither == (lab not in read)
            unread += neither
    assert unread > 0


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 11])
def test_pool_signatures_match_trial(q):
    # each (C, lead, good) key of a pool, counted per affine block (read
    # row by row for the PSL witness at d = 0 mod 4), against every unit of
    # the twist set tried on every pool polynomial; the SL witness on T_d,
    # the PSL one on T_d and S_d, up to degree 10 at q <= 5 and 8 at q <= 9
    field = field_for_order(q)
    top = 10 if q <= 5 else 8 if q <= 9 else 5
    nonsquare = (canonical_nonsquare(field),) if q % 2 else ()

    def mask(units):
        return sum(1 << field.log[c] for c in units)

    for witness, twists in ((labels.sl_strong_slot, (field.one,)),
                            (labels.psl_strong_slot, (field.one, *nonsquare))):
        witnessed = set()
        for d in range(1, top + 1):
            pool = set()
            for c in twists:
                pool |= set(labels.twist_pool(field, d, c))
            want = {}
            for u in pool:
                C = _twist_set(field, u)
                key = (mask(C), field.log[u[-1]],
                       mask(c for c in C if witness(field, u, c)))
                want[key] = want.get(key, 0) + 1
            got = {}
            for c in twists:
                for key, cnt in counts._pool_signatures(field, d, c, witness):
                    if not key[0] & 1 or c == field.one:   # read once, from T_d
                        got[key] = got.get(key, 0) + cnt
            assert got == want
            witnessed |= {key[2] == key[0] for key in got}
        # each witness holds on all of some C(u) and not on all of another
        assert witnessed == {True, False}, witness


def test_equivalence_classes_orbit_sizes():
    for q in (3, 5):
        field = field_for_order(q)
        real = set(enumerate_labels(field, 2, twist=1))
        orbits = equivalence_classes(field, real)
        assert all(len(o) in (1, 2) for o in orbits)
        assert sum(len(o) for o in orbits) == len(real)
    field = field_for_order(4)
    real = set(enumerate_labels(field, 2, twist=1))
    orbits = equivalence_classes(field, real)
    assert all(len(o) == 1 for o in orbits)


def test_sl_reality_small_cases():
    f3 = field_for_order(3)
    # order-4 element of SL_2(3): real in SL but not strongly real
    lab = make_label(f3, [(1, 0, 1)])
    assert sl_real(lab, 2, 3)
    assert not sl_strongly_real(f3, lab)
    # +-identity are strongly real
    for u in [(1, 1, 1), (1, 2, 1)]:
        lab = make_label(f3, [u])
        assert sl_real(lab, 2, 3)
        assert sl_strongly_real(f3, lab)
    # Jordan blocks of size 2 (type with even parts only) lose reality
    for u2 in [(1, 1), (1, 2)]:
        lab = make_label(f3, [ONE, u2])
        assert not sl_real(lab, 2, 3)
    # but not at q = 1 mod 4
    lab5 = make_label(field_for_order(5), [ONE, (1, 4)])
    assert sl_real(lab5, 2, 5)


def test_label_json_roundtrip():
    f9 = field_for_order(9)
    lab = make_label(f9, [(1, 7, 1), ONE, (1, 3)])
    data = label_to_json(lab)
    assert data["nu"] == [2, 0, 1]
    assert data["polys"] == [[1, 7, 1], [1], [1, 3]]
    back = make_label(f9, data["polys"])
    assert back == lab and list(label_type(back)) == data["nu"]


# ---------------------------------------------------------------------------
# the PSL criterion against trial division

def _reference_factors(field, f):
    """Distinct monic irreducible factors of f by trial division with every
    monic irreducible up to half the degree of what is left."""
    work = polys.monicize(field, f)
    found = []
    e = 1
    while 2 * e <= polys.degree(work):
        for g in polys.irreducibles(field, e):
            quot, rem = polys.poly_divmod(field, work, g)
            while not rem:
                if g not in found:
                    found.append(g)
                work = quot
                quot, rem = polys.poly_divmod(field, work, g)
        e += 1
    if polys.degree(work) > 0:
        found.append(work)
    return found


@pytest.mark.parametrize("q", [3, 7, 11])
def test_psl_criterion_matches_trial_division(q):
    # every T_d and S_d polynomial, d <= 6, read by tilde (c = 1) and by
    # breve for the least non-square and the one with zeta^3 = -1 (n = 6)
    field = field_for_order(q)
    zetas = sorted({canonical_nonsquare(field),
                    constrained_nonsquare(field, 6)})
    readings = [(field.one, lambda p: p == tilde(field, p))]
    readings += [(z, lambda p, z=z: p == breve(field, p, z))
                 for z in zetas]
    root_of_zeta = 0
    for d in range(1, 7):
        pool = set(polys.enumerate_T(field, d))
        for z in zetas:
            pool |= set(polys.enumerate_S(field, d, z))
        for u in sorted(pool):
            factors = _reference_factors(field, u)
            for c, fixed in readings:
                want = all(polys.degree(p) % 2 == 0
                           and (polys.degree(p) % 4 == 0 or not fixed(p))
                           for p in factors)
                got = labels._factors_all_even_and_fixed_deg_div4(field, u, c)
                assert got == want, (u, c)
                if (field.neg(c), 0, 1) in factors and c != field.one:
                    root_of_zeta += 1
    # the breve-fixed factor t^2 - zeta, which no t^(q+1) - zeta test sees
    assert root_of_zeta > 0


@pytest.mark.parametrize("q,max_d", [(3, 8), (7, 8), (11, 6)])
def test_psl_reading_passes_at_degree_not_div4(q, max_d):
    # a c-twisted u whose fixed factors have degree 0 mod 4 and whose other
    # factors pair off at equal even degrees has degree 0 mod 4, so every
    # other degree passes: the unchanged helper is False there at every c
    # in the twist set, and psl_strong_slot need not call it
    field = field_for_order(q)
    read = 0
    for d in range(1, max_d + 1):
        if d % 4 == 0:
            continue
        pool = set(polys.enumerate_T(field, d))
        pool |= set(polys.enumerate_S(field, d, canonical_nonsquare(field)))
        for u in sorted(pool):
            for c in _twist_set(field, u):
                assert not labels._factors_all_even_and_fixed_deg_div4(
                    field, u, c), (u, c)
                read += 1
    assert read > 0
