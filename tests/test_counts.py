"""Counting engine against frozen anchors.

Every number here was cross-validated before freezing: the closed forms
against the label-enumeration route (method="both" asserts per-partition
agreement), and the desk-scale entries additionally against brute-force
matrix-group classification (see test_oracle / the acceptance suite).
"""

import math
from fractions import Fraction

import pytest

from realclasses import counts, labels, polys
from realclasses.counts import (applicable_kinds, count, genfun_real_gl,
                                gl_nu, pgl_nu, psl_nu, section13_table,
                                sigma_nu, sl_nu, sl_regime)
from realclasses.errors import BudgetExceeded, UsageError
from realclasses.fields import field_for_order

BOTH = dict(method="both")


# ---------------------------------------------------------------------------
# per-partition building blocks

def test_gl_nu_values():
    assert gl_nu((2,), 3) == 4          # type 1^2: n_{3,2}
    assert gl_nu((0, 1), 3) == 2        # type 2^1: n_{3,1}
    assert gl_nu((1, 1), 5) == 2 * 2    # one degree-1 factor per slot


def test_sl_nu_three_cases():
    # q even (or no odd slot): the full product, here n_{4,1} = 1
    assert sl_nu((0, 1), 4) == 1
    # an odd slot of odd degree present: half the product
    assert sl_nu((1, 1), 3) == 2        # (n_{3,1} * n_{3,1}) / 2
    assert sl_nu((3,), 3) == 3          # n_{3,3} / 2
    assert sl_nu((1,), 3) == 1
    # odd slots all of even degree: f_nu * q^(n_i/2 - 1) per odd slot
    assert sl_nu((2,), 3) == 3          # ((q+1) + (q-1))/2 * q^0
    # consistency: these assemble to the real count of SL_3(3)
    assert sl_nu((3,), 3) + sl_nu((1, 1), 3) + sl_nu((0, 0, 1), 3) == 6


def test_sigma_nu_two_adic_rule():
    # sigma = 1 iff q odd and the gcd of the multiplicities is odd
    assert sigma_nu((5,), 3) == 1       # gcd 5
    assert sigma_nu((0, 0, 2), 3) == 0  # type 3^2: multiplicity gcd 2
    assert sigma_nu((2,), 3) == 0       # gcd 2
    assert sigma_nu((2, 1), 3) == 1     # gcd(2, 1) = 1
    assert sigma_nu((5,), 4) == 0       # q even: never
    assert sigma_nu((0, 3), 3) == 1     # type 2^3: gcd of multiplicities 3


def test_psl_nu_is_fraction():
    assert isinstance(psl_nu((2,), 2, 3), Fraction)
    assert isinstance(pgl_nu((2,), 3), Fraction)


# ---------------------------------------------------------------------------
# GL

@pytest.mark.parametrize("n,q,want", [
    (2, 2, 3), (2, 3, 6), (2, 5, 8), (3, 4, 6), (6, 3, 124),
])
def test_real_gl_anchors(n, q, want):
    assert count("GL", n, q, "real", **BOTH).total == want
    assert count("GL", n, q, "strongly_real").total == want


@pytest.mark.parametrize("n,q,want", [
    (2, 3, 4), (2, 5, 6), (3, 3, 0), (4, 5, 36),
])
def test_zeta_real_gl_anchors(n, q, want):
    assert count("GL", n, q, "zeta_real", **BOTH).total == want


def test_zeta_real_gl_vanishes_in_odd_dimension():
    for q in (3, 5, 7, 9):
        for n in (1, 3, 5):
            assert count("GL", n, q, "zeta_real").total == 0


def test_zeta_real_gl_rejects_even_q():
    with pytest.raises(ValueError):
        count("GL", 2, 4, "zeta_real")


def test_zeta_real_gl_independent_of_zeta():
    for z in (3, 5, 6):
        field = counts.field_for_order(7)
        if field.is_square(z):
            continue
        assert count("GL", 2, 7, "zeta_real", method="enumeration",
                     zeta=z).total == 8


# ---------------------------------------------------------------------------
# SL

@pytest.mark.parametrize("n,q,want", [
    (2, 3, 3), (2, 5, 9), (2, 7, 7), (2, 9, 13), (3, 4, 8),
    (4, 3, 29), (6, 3, 78), (6, 5, 268), (6, 7, 552),
])
def test_real_sl_anchors(n, q, want):
    assert count("SL", n, q, "real", **BOTH).total == want


@pytest.mark.parametrize("n,q,want", [
    (2, 3, 2), (2, 5, 2), (2, 7, 2), (2, 9, 2),
    (4, 3, 29), (6, 3, 51), (6, 5, 97), (6, 7, 163),
])
def test_strongly_real_sl_anchors(n, q, want):
    assert count("SL", n, q, "strongly_real").total == want


def test_strongly_real_sl_engine_polynomial_n6():
    # 2q^2 + 7q + 10 + 2*gcd(q-1,3), the odd-block-root criterion summed
    # over types (independently derived; brute-force checked at n=2,4)
    import math
    for q in (3, 5, 7):
        want = 2 * q * q + 7 * q + 10 + 2 * math.gcd(q - 1, 3)
        assert count("SL", 6, q, "strongly_real").total == want


@pytest.mark.parametrize("n,q,zeta,want", [
    (2, 3, None, 1), (2, 7, 3, 0), (2, 7, 6, 1), (2, 9, None, 0),
    (4, 3, None, 17),
])
def test_zeta_real_sl_anchors(n, q, zeta, want):
    assert count("SL", n, q, "zeta_real", zeta=zeta).total == want


def test_sl_regimes():
    assert sl_regime(2, 4) == "q_even"
    assert sl_regime(4, 3) == "n_not_2_mod_4"
    assert sl_regime(2, 5) == "n2mod4_q1mod4"
    assert sl_regime(6, 3) == "n2mod4_q3mod4"


# ---------------------------------------------------------------------------
# PGL / PSL

@pytest.mark.parametrize("n,q,want", [
    (2, 3, 5), (2, 4, 5), (2, 5, 7), (2, 7, 9), (3, 3, 6),
    (4, 5, 45), (5, 3, 28), (6, 3, 90), (6, 5, 252), (6, 7, 558),
])
def test_real_pgl_anchors(n, q, want):
    assert count("PGL", n, q, "real", **BOTH).total == want
    assert count("PGL", n, q, "strongly_real").total == want


@pytest.mark.parametrize("n,q,want", [
    (2, 3, 2), (2, 5, 5), (2, 7, 4), (2, 9, 7), (2, 13, 9),
    (2, 4, 5), (3, 3, 6), (3, 4, 8), (3, 5, 8),
    (4, 3, 23), (4, 5, 31), (4, 7, 75), (4, 9, 71), (4, 13, 123),
    (5, 3, 28), (5, 5, 52),
    (6, 3, 46), (6, 5, 164), (6, 7, 306), (6, 9, 608), (6, 13, 1566),
])
def test_real_psl_anchors(n, q, want):
    assert count("PSL", n, q, "real", **BOTH).total == want


@pytest.mark.parametrize("n,q,want", [
    (6, 3, 43), (6, 7, 285), (4, 5, 31), (2, 5, 5), (2, 7, 4),
    # the stored section 13 polynomial for q = 3 mod 4, a route that shares
    # no code with the engine: psl6 - (q^2 - q)/2
    (6, 11, 895), (6, 19, 4071), (6, 23, 6973),
])
def test_strongly_real_psl_anchors(n, q, want):
    assert count("PSL", n, q, "strongly_real").total == want


# ---------------------------------------------------------------------------
# SL/Y

def test_real_slq_endpoints_and_middle():
    # |Y| = 1 is SL, |Y| = gcd(n, q-1) is PSL
    assert (count("SLQ", 2, 5, "real", y_order=1).total
            == count("SL", 2, 5, "real").total)
    assert (count("SLQ", 2, 5, "real", y_order=2).total
            == count("PSL", 2, 5, "real").total)
    # middle regime at n = 4, q = 5: strictly between SL and PSL behavior
    assert count("SLQ", 4, 5, "real", y_order=2, **BOTH).total == 57
    assert count("SLQ", 4, 5, "strongly_real", y_order=2).total == 57
    assert (count("SLQ", 4, 5, "real", y_order=4).total
            == count("PSL", 4, 5, "real").total)
    # the PSL endpoint in the corner n = 2 mod 4, q = 3 mod 4
    assert (count("SLQ", 6, 11, "strongly_real", y_order=2).total
            == count("PSL", 6, 11, "strongly_real").total)


def test_slq_y_validation():
    with pytest.raises(ValueError):
        count("SLQ", 4, 5, "real", y_order=3)
    with pytest.raises(ValueError):
        count("SLQ", 2, 5, "real", y_order=0)
    # SL_0(q) is trivial, so its only central subgroup is trivial
    with pytest.raises(ValueError):
        count("SLQ", 0, 5, "real", y_order=2)
    # |Y| is an order: 2.0 and "2" are usage errors, as a float n or q is
    for y in (2.0, "2"):
        for method in counts.METHODS:
            with pytest.raises(UsageError):
                count("SLQ", 4, 5, "real", y_order=y, method=method)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9])
def test_trivial_group_has_one_class(q):
    for family in counts.FAMILIES:
        for kind in applicable_kinds(family, q):
            for method in counts.METHODS:
                rep = count(family, 0, q, kind, method=method,
                            y_order=1 if family == "SLQ" else None)
                assert rep.total == 1, (family, kind, method)


@pytest.mark.parametrize("n", [0, 2])
def test_only_slq_reports_y(n):
    # a |Y| passed to another family is dropped from its report, at the
    # trivial n = 0 as at n = 2
    for family in ("GL", "SL", "PGL", "PSL"):
        rep = count(family, n, 5, "real", y_order=9)
        assert rep.y_order is None and "y" not in rep.to_json()["group"]
    assert count("SLQ", n, 5, "real", y_order=1).to_json()["group"]["y"] == 1


# ---------------------------------------------------------------------------
# the registry sweep

# (n, q): every n <= 8 at every prime power q <= 32, 162 cells
_SWEEP_QS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32)


@pytest.mark.parametrize("n,q", [(n, q) for n in range(9)
                                 for q in _SWEEP_QS])
def test_registry_sweep(n, q):
    # every (family, kind) of one group size, both routes: the routes agree
    # (method="both" raises otherwise), each total is a non-negative
    # integer, reality contains strong reality, and SL/Y sits between its
    # SL and PSL endpoints
    full = math.gcd(n, q - 1) if n else 1
    ys = [y for y in range(1, full + 1) if full % y == 0]
    totals = {}
    for family in counts.FAMILIES:
        for y in ys if family == "SLQ" else [None]:
            for kind in applicable_kinds(family, q):
                rep = count(family, n, q, kind, y, method="both")
                assert type(rep.total) is int and rep.total >= 0
                assert rep.total == sum(c for _, c in rep.per_nu)
                totals[family, y, kind] = rep.total
            assert (totals[family, y, "real"]
                    >= totals[family, y, "strongly_real"]), (family, y)
    for y in ys:
        for kind in ("real", "strongly_real"):
            ends = totals["SL", None, kind], totals["PSL", None, kind]
            assert min(ends) <= totals["SLQ", y, kind] <= max(ends), (y, kind)


# ---------------------------------------------------------------------------
# dispatcher, reports, validation

def test_public_api_has_one_count_entry_point():
    import realclasses
    assert sorted(realclasses.__all__) == sorted([
        "BudgetExceeded", "CountReport", "UsageError", "canonical_nonsquare",
        "constrained_nonsquare", "count", "enumerate_group", "genfun_real_gl",
        "make_field", "matrix_to_label", "section13_table", "verify_group",
        "__version__"])
    for name in realclasses.__all__:
        assert getattr(realclasses, name) is not None, name
    assert realclasses.count is count
    assert not hasattr(counts, "real_gl")


def test_count_dispatch():
    assert count("SL", 2, 7, "real").total == 7
    assert count("PGL", 5, 3, "real").total == 28
    assert count("SLQ", 4, 5, "strongly_real", y_order=2).total == 57
    with pytest.raises(ValueError):
        count("PSL", 2, 7, "zeta_real")
    with pytest.raises(ValueError):
        count("SLQ", 2, 7, "zeta_real", y_order=1)
    with pytest.raises(ValueError):
        count("SLQ", 2, 7, "real")      # missing y
    with pytest.raises(ValueError):
        count("SO", 2, 7, "real")
    with pytest.raises(ValueError):
        count("GL", 2, 7, "imaginary")


def test_q_validation():
    for bad_q in (6, 1, 12, 100):
        with pytest.raises(ValueError):
            count("GL", 2, bad_q, "real")
    with pytest.raises(ValueError):
        count("PSL", -1, 3, "real")


def test_report_json_shape():
    rep = count("SL", 2, 7, "real")
    data = rep.to_json()
    assert data["group"] == {"family": "SL", "n": 2, "q": 7}
    assert data["kind"] == "real"
    assert data["total"] == 7
    assert data["regime"] == "n2mod4_q3mod4"
    assert sum(item["count"] for item in data["per_nu"]) == 7
    data = count("SLQ", 4, 5, "real", y_order=2).to_json()
    assert data["group"]["y"] == 2
    data = count("GL", 2, 7, "zeta_real").to_json()
    assert data["zeta"] == 3


def test_both_routes_roundtrip():
    # method="both" raises unless the routes agree partition by partition
    for family, n, q, kind in [("GL", 2, 5, "real"), ("SL", 2, 5, "real"),
                               ("PGL", 3, 3, "real"), ("PSL", 4, 5, "real"),
                               ("GL", 2, 7, "zeta_real"),
                               ("GL", 8, 31, "real"), ("PGL", 8, 31, "real"),
                               ("SL", 10, 13, "real")]:
        both = count(family, n, q, kind, method="both")
        enum = count(family, n, q, kind, method="enumeration")
        assert both.method == "both"
        assert both.per_nu == enum.per_nu and both.total == enum.total


def test_enumeration_only_cells_say_so():
    # no closed form: every method enumerates, and the report says so
    for family, n, q, kind in [("SL", 6, 3, "strongly_real"),
                               ("SL", 2, 5, "strongly_real"),
                               ("PSL", 6, 7, "strongly_real"),
                               ("SL", 2, 7, "zeta_real")]:
        for method in ("formula", "enumeration", "both"):
            assert count(family, n, q, kind, method=method).method == (
                "enumeration")
    assert count("PSL", 6, 5, "strongly_real").method == "formula"
    assert count("SLQ", 6, 7, "strongly_real", y_order=2).method == (
        "enumeration")
    with pytest.raises(ValueError):
        count("GL", 2, 3, "real", method="enumerate")


def test_applicable_kinds():
    assert applicable_kinds("GL", 3) == ("real", "strongly_real",
                                         "zeta_real")
    assert applicable_kinds("SL", 4) == ("real", "strongly_real")
    for family in ("PGL", "PSL", "SLQ"):
        assert applicable_kinds(family, 5) == ("real", "strongly_real")


def test_slq_endpoints_do_not_reenter_count(monkeypatch):
    # SL_n(q)/Y reaches its SL and PSL endpoints without re-entering count
    calls = []
    original = counts.count

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(counts, "count", spy)
    for rep in (counts.count("SLQ", 4, 5, "real", y_order=4),
                counts.count("SLQ", 2, 5, "strongly_real", y_order=1),
                counts.count("SLQ", 4, 5, "real", y_order=2),
                counts.count("SL", 6, 3, "strongly_real")):
        assert rep.total > 0
    assert [c[0] for c in calls] == ["SLQ", "SLQ", "SLQ", "SL"]


def test_signature_cache_keeps_the_budget():
    # the per-slot signatures are cached across counts; the budget is
    # checked before any of them is read, cold or warm, PGL or PSL
    cache = counts._pool_signatures
    for family in ("PGL", "PSL"):
        cache.cache_clear()
        with pytest.raises(BudgetExceeded):        # cold
            count(family, 4, 5, "real", method="enumeration", budget=10)
        assert cache.cache_info().currsize == 0
    assert count("PGL", 4, 5, "real", method="enumeration").total == 45
    assert count("PSL", 4, 5, "real", method="enumeration").total > 0
    for family in ("PGL", "PSL"):
        with pytest.raises(BudgetExceeded):        # warm
            count(family, 4, 5, "real", method="enumeration", budget=10)


def _nonsquares(field):
    return [c for c in field.units if not field.is_square(c)]


def test_zeta_real_sl_is_empty_unless_zeta_n_is_one():
    # g in SL_n(q) conjugate to zeta g^{-1} forces zeta^n = 1: where it
    # fails the count answers 0 without building a pool, and no det-1
    # label is twisted-real for zeta^{-1}
    cells = 0
    for q in (3, 5, 7, 9, 11, 13):
        field = field_for_order(q)
        for n in range(1, 7):
            for zeta in _nonsquares(field):
                if field.pow(zeta, n) == field.one:
                    continue
                cells += 1
                assert not [lab for lab in labels.enumerate_labels(
                                field, n, twist=field.inv(zeta))
                            if labels.label_det(field, lab) == field.one]
                assert count("SL", n, q, "zeta_real", zeta=zeta).total == 0
    assert cells == 111
    assert count("SL", 8, 49, "zeta_real").total == 0


def test_counted_signatures_build_no_pool():
    # the SL witness is counted per affine block: SL_6(127) strongly real,
    # whose T_d pools hold up to 127^3 rows, reads no pool array
    before = polys._pool.cache_info().currsize
    assert count("SL", 6, 127, "strongly_real").total == 33163
    assert polys._pool.cache_info().currsize == before


def test_formula_route_has_no_rank_cap():
    coeffs = genfun_real_gl(3, 14)
    assert coeffs[13] == 9352
    for n in (13, 14):
        assert count("GL", n, 3, "real").total == coeffs[n]


# ---------------------------------------------------------------------------
# exceptional isomorphisms, against cycle types

def _cycle_types(m, top=None):
    """The partitions of m as tuples of parts, each at most ``top``."""
    top = m if top is None else top
    if m == 0:
        yield ()
    for k in range(min(m, top), 0, -1):
        for rest in _cycle_types(m - k, k):
            yield (k,) + rest


def _real_in_symmetric(m):
    # one class per cycle type, each real (and strongly real)
    return sum(1 for _ in _cycle_types(m))


def _real_in_alternating(m):
    real = 0
    for lam in _cycle_types(m):
        if sum(k - 1 for k in lam) % 2:
            continue    # an odd permutation
        if len(set(lam)) == len(lam) and all(k % 2 for k in lam):
            # the S_m class splits in two, both real iff sum (k - 1)/2 is
            # even, else inverse to each other
            real += 0 if sum((k - 1) // 2 for k in lam) % 2 else 2
        else:
            real += 1
    return real


@pytest.mark.parametrize("family,n,q,group,m,want", [
    ("PSL", 2, 4, "A", 5, 5), ("PSL", 2, 5, "A", 5, 5),
    ("PSL", 2, 9, "A", 6, 7), ("GL", 4, 2, "A", 8, 10),
    ("PSL", 2, 3, "A", 4, 2),
    ("PGL", 2, 5, "S", 5, 7), ("PGL", 2, 3, "S", 4, 5),
    ("GL", 2, 2, "S", 3, 3),
])
def test_exceptional_isomorphisms_to_permutation_groups(family, n, q, group,
                                                        m, want):
    by_cycles = (_real_in_symmetric if group == "S"
                 else _real_in_alternating)(m)
    assert by_cycles == want
    assert count(family, n, q, "real", **BOTH).total == want
    if group == "S":
        assert count(family, n, q, "strongly_real", **BOTH).total == want


def test_exceptional_isomorphisms_within_the_families():
    # PSL_2(7) = GL_3(2)
    assert count("PSL", 2, 7, "real", **BOTH).total == 4
    assert count("GL", 3, 2, "real", **BOTH).total == 4
    # SL_2(5) = 2.A_5: -1 is its only involution, so only the classes of
    # 1 and -1 are strongly real
    assert count("SL", 2, 5, "real", **BOTH).total == 9
    assert count("SL", 2, 5, "strongly_real", **BOTH).total == 2


# ---------------------------------------------------------------------------
# the stored reference table

def test_section13_q_even_all_match():
    for q in (2, 4):
        rows = section13_table(q)
        assert len(rows) == 10
        assert all(r["match"] for r in rows)
        assert all("note" not in r for r in rows)


def _mismatches(rows):
    return {(r["family"], r["n"], r["kind"]) for r in rows if not r["match"]}


def test_section13_q3mod4_mismatch_pattern():
    # two stored polynomials disagree with the case analysis everywhere odd
    for q in (3, 7, 11):
        rows = section13_table(q)
        assert len(rows) == 23
        assert _mismatches(rows) == {("PGL", 6, "real"),
                                     ("SL", 6, "strongly_real")}
        assert all(("note" in r) == (not r["match"]) for r in rows)


def test_section13_q1mod4_mismatch_pattern():
    # at q = 1 mod 4 three more stored rows disagree (the two-case cells)
    for q in (5, 9):
        rows = section13_table(q)
        assert len(rows) == 23
        assert _mismatches(rows) == {("PGL", 6, "real"),
                                     ("SL", 6, "strongly_real"),
                                     ("PSL", 4, "real"),
                                     ("PSL", 6, "real"),
                                     ("PSL", 6, "strongly_real")}


def test_section13_engine_values_at_disputed_cells():
    # the engine values at the cells whose stored polynomial is off,
    # frozen from brute-force-validated case analysis
    byq = {q: {(r["family"], r["n"], r["kind"]): (r["reference"], r["engine"])
               for r in section13_table(q)} for q in (3, 5, 7, 9)}
    assert byq[3][("PGL", 6, "real")] == (93, 90)
    assert byq[5][("PGL", 6, "real")] == (252 + 5, 252)
    assert byq[7][("PGL", 6, "real")] == (558 + 7, 558)
    assert byq[3][("SL", 6, "strongly_real")] == (74, 51)
    assert byq[5][("SL", 6, "strongly_real")] == (154, 97)
    assert byq[7][("SL", 6, "strongly_real")] == (270, 163)
    assert byq[5][("PSL", 4, "real")][1] == 31
    assert byq[9][("PSL", 4, "real")][1] == 71
    assert byq[5][("PSL", 6, "real")][1] == 164
    assert byq[9][("PSL", 6, "real")][1] == 608


# ---------------------------------------------------------------------------
# generating function

@pytest.mark.parametrize("q", [2, 3, 5])
def test_genfun_matches_direct_counts(q):
    coeffs = genfun_real_gl(q, terms=8)
    assert len(coeffs) == 9
    for n, c in enumerate(coeffs):
        assert c == count("GL", n, q, "real").total


def test_genfun_known_prefix():
    assert genfun_real_gl(3, terms=5) == [1, 2, 6, 12, 30, 56]
    assert genfun_real_gl(2, terms=4) == [1, 1, 3, 4, 10]
    assert genfun_real_gl(3, terms=0) == [1]
    with pytest.raises(ValueError):
        genfun_real_gl(3, terms=-1)
    for terms in (2.0, "3"):
        with pytest.raises(UsageError):
            genfun_real_gl(3, terms=terms)
    with pytest.raises(ValueError):
        genfun_real_gl(6, terms=3)
