"""The label route of counts.count against a materialised reference.

The reference makes every label (``labels.enumerate_labels``), builds the
eta-orbits of the projective families (``labels.equivalence_classes``)
and runs the per-label criteria on each, the way the label route counted
before it folded per-slot signatures.  Every (family, kind, |Y|) cell,
the enumeration-only ones included, must agree type by type.
"""

import math
from functools import lru_cache

import pytest

from realclasses import counts, labels
from realclasses.fields import canonical_nonsquare, field_for_order


def _tally(field, n, twist, in_sl=None):
    """Twisted-real labels by type; with ``in_sl(label)`` the det-1 ones
    passing it, each weighted by h_nu."""
    out = {}
    for lab in labels.enumerate_labels(field, n, twist=twist):
        nu = labels.label_type(lab)
        if in_sl is None:
            out[nu] = out.get(nu, 0) + 1
        elif labels.label_det(field, lab) == field.one and in_sl(lab):
            out[nu] = out.get(nu, 0) + labels.h_nu(nu, field.q)
    return out


@lru_cache(maxsize=None)
def _orbits(q, n):
    """(nu, eta-orbits of the real and zeta-real labels of type nu), zeta
    the one the PSL criterion reads where there is one."""
    field = field_for_order(q)
    twists = [field.one]
    if q % 2:
        twists.append(labels.psl_nonsquare(field, n)
                      or canonical_nonsquare(field))
    pools = {}
    for twist in twists:
        for lab in labels.enumerate_labels(field, n, twist=twist):
            pools.setdefault(labels.label_type(lab), set()).add(lab)
    return [(nu, labels.equivalence_classes(field, pool))
            for nu, pool in pools.items()]


def _psl(field, n, strong):
    q = field.q
    nth_powers = {field.pow(u, n) for u in field.units}
    zeta = labels.psl_nonsquare(field, n)
    out = {}
    for nu, orbits in _orbits(q, n):
        if zeta is not None and not labels.has_odd_part(nu):
            continue
        meets = sum(1 for orb in orbits
                    if labels.label_det(field, orb[0]) in nth_powers
                    and (not strong or zeta is None or any(
                        labels.psl_strongly_real(field, lab, zeta)
                        for lab in orb)))
        out[nu] = meets * labels.h_nu(nu, q)
    return out


def reference(family, n, q, kind, y_order=None):
    """The label-route count of one cell, type by type."""
    field = field_for_order(q)
    if n == 0 and family != "GL":
        family, y_order = "GL", None
    if family == "SLQ":
        regime = counts.slq_regime(n, q, y_order)
        family = counts._SLQ_ENDPOINT.get(regime)
        if family is None:
            return _tally(field, n, field.one,
                          lambda lab: labels.sl_real(lab, n, q))
    twist = field.one
    if kind == "zeta_real":
        twist = field.inv(canonical_nonsquare(field))
    if family == "GL":
        return _tally(field, n, twist)
    if family == "SL":
        if kind == "real":
            return _tally(field, n, twist,
                          lambda lab: labels.sl_real(lab, n, q))
        if kind == "strongly_real":
            return _tally(field, n, twist,
                          lambda lab: labels.sl_strongly_real(field, lab))
        return _tally(field, n, twist, lambda lab: True)
    if family == "PGL":
        return {nu: len(orbits) for nu, orbits in _orbits(q, n)}
    return _psl(field, n, kind == "strongly_real")


def _cells(n, q):
    for family in counts.FAMILIES:
        ys = [None]
        if family == "SLQ":
            full = math.gcd(n, q - 1) if n else 1
            ys = [y for y in range(1, full + 1) if full % y == 0]
        for kind in counts.applicable_kinds(family, q):
            for y in ys:
                yield family, kind, y


@pytest.mark.parametrize("q,max_n", [(2, 6), (3, 10), (4, 6), (5, 6),
                                     (7, 6), (8, 6), (9, 6), (11, 6),
                                     (13, 4), (16, 4)])
def test_label_route_matches_materialised_reference(q, max_n):
    for n in range(max_n + 1):
        for family, kind, y in _cells(n, q):
            rep = counts.count(family, n, q, kind, y_order=y,
                               method="enumeration")
            got = {nu: c for nu, c in rep.per_nu if c}
            want = {nu: c for nu, c in reference(family, n, q, kind,
                                                 y).items() if c}
            assert got == want, (family, n, q, kind, y)
