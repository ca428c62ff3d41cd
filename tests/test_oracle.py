import hashlib
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realclasses import cli, counts, labels, oracle, polys
from realclasses.errors import BudgetExceeded, UsageError
from realclasses.fields import (MAX_Q, canonical_nonsquare, field_for_order,
                                prime_power)
from realclasses.oracle import (enumerate_group, group_order, matrix_to_label,
                                verify_group)
from realclasses.polys import ONE
from test_polys import poly_pow, tilde


def test_group_order_formulas():
    assert group_order("GL", 2, 3) == 48
    assert group_order("SL", 2, 3) == 24
    assert group_order("PGL", 2, 5) == 120
    assert group_order("PSL", 2, 5) == 60
    assert group_order("PSL", 3, 4) == 20160
    assert group_order("SLQ", 4, 3, y_order=2) == 12130560 // 2


# ---------------------------------------------------------------------------
# a pure-Python matrix algebra on tuples of rows: the reference that the
# oracle's batched algebra on coded arrays is checked against

def identity_mat(field, n):
    return scalar_mat(field, field.one, n)


def scalar_mat(field, z, n):
    return tuple(tuple(z if i == j else field.zero for j in range(n))
                 for i in range(n))


def mat_mul(field, a, b):
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = field.zero
            for k in range(n):
                acc = field.add(acc, field.mul(a[i][k], b[k][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def mat_scale(field, z, a):
    return tuple(tuple(field.mul(z, x) for x in row) for row in a)


def _reference_rref(field, rows):
    """Gauss-Jordan elimination one matrix at a time, in Python."""
    rows = [list(r) for r in rows]
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = field.inv(rows[rank][col])
        rows[rank] = [field.mul(inv, x) for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                c = rows[r][col]
                rows[r] = [field.sub(x, field.mul(c, y))
                           for x, y in zip(rows[r], rows[rank])]
        pivots.append(col)
    return rows, pivots


def _rref_one(field, rows):
    """The batched elimination on a batch of one: the reduced rows and the
    pivot columns."""
    batch = np.array(rows, dtype=np.uint8).reshape(
        1, len(rows), len(rows[0]) if len(rows) else 0)
    reduced, pivots = oracle._rref(field, batch)
    return reduced[0].tolist(), np.flatnonzero(pivots[0]).tolist()


def mat_inv(field, a, rref=_reference_rref):
    n = len(a)
    rows, pivots = rref(field, [
        list(row) + [field.one if i == j else field.zero for j in range(n)]
        for i, row in enumerate(a)])
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(row[n:]) for row in rows)


def _leibniz_det(field, m):
    acc = field.zero
    for perm in itertools.permutations(range(len(m))):
        prod = field.one
        for i, j in enumerate(perm):
            prod = field.mul(prod, m[i][j])
        inversions = sum(perm[i] > perm[j] for i in range(len(perm))
                         for j in range(i + 1, len(perm)))
        acc = field.add(acc, field.neg(prod) if inversions % 2 else prod)
    return acc


def test_exact_matrix_algebra():
    f7 = field_for_order(7)
    rng = random.Random(3)
    for _ in range(20):
        m = tuple(tuple(rng.randrange(7) for _ in range(3)) for _ in range(3))
        if _leibniz_det(f7, m) == 0:
            assert len(_rref_one(f7, m)[1]) < 3
            continue
        assert len(_rref_one(f7, m)[1]) == 3
        inv = mat_inv(f7, m, _rref_one)
        assert mat_mul(f7, m, inv) == identity_mat(f7, 3)
    with pytest.raises(ValueError):
        mat_inv(f7, scalar_mat(f7, 0, 2), _rref_one)


@pytest.mark.parametrize("family,n,q,classes", [
    ("GL", 2, 3, 8), ("SL", 2, 3, 7), ("PGL", 2, 3, 5), ("PSL", 2, 3, 4),
    ("GL", 2, 4, 15), ("SL", 2, 5, 9), ("PSL", 2, 7, 6), ("GL", 3, 2, 6),
])
def test_class_counts(family, n, q, classes):
    gd = enumerate_group(family, n, q)
    assert gd.num_classes == classes
    assert sum(gd.class_sizes) == gd.order


def test_certification_is_builtin():
    # the constructor itself checks the class equation and, per class,
    # |class| * |centralizer| = |group|; a successful build is the test
    gd = enumerate_group("GL", 2, 5)
    assert gd.order == 480
    base = gd.base
    # spot-check one centralizer order by scanning commuting elements
    rep_arr = np.array(gd.rep_mat(3), dtype=np.uint8)
    mats = oracle._decode(base.codes, 2, 5)
    left = base.ops.matmul(rep_arr, mats)
    right = base.ops.matmul(mats, rep_arr)
    brute = int(np.count_nonzero(
        (left == right).reshape(len(mats), -1).all(axis=1)))
    cid, = base.classes_of(rep_arr[None])
    assert brute * int(base.class_sizes[cid]) == gd.order
    assert set(base.stats) == {"enumerate_s", "classify_s", "certify_s",
                               "conjugate_s", "hook_s", "number_s",
                               "hook_rounds", "top_blocks", "fiber_elements",
                               "certified_classes"}
    assert base.stats["top_blocks"] == 5 ** 2  # one per first row
    # gcd(2, 5 - 1) = 2, so GL_2(5) is not SL x Z: all 480 elements are
    # hooked and all 24 classes certified
    assert base.stats["fiber_elements"] == 480
    assert base.stats["certified_classes"] == 24 == base.num_classes
    # a matrix outside the group (determinant 0) has no class
    outside = np.array([scalar_mat(gd.field, 0, 2), rep_arr])
    assert base.classes_of(outside).tolist() == [-1, cid]


# ---------------------------------------------------------------------------
# exact determinants and enumeration by cofactors

@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_batched_det_matches_elimination(n, q):
    field = field_for_order(q)
    ops = oracle._Ops(field, n)
    rng = np.random.default_rng(n * 100 + q)
    mats = rng.integers(0, q, size=(200, n, n), dtype=np.uint8)
    # singular ones too: a repeated row, a zero column, and a row that is
    # another row plus a multiple of a third
    if n >= 2:
        mats[:20, 1] = mats[:20, 0]
        mats[20:40, :, n - 1] = 0
        tables = oracle._tables(field)
        mats[40:60, 0] = tables.add[mats[40:60, 1], tables.mul[
            mats[40:60, n - 1], rng.integers(1, q)]]
    got = ops.det(mats)
    want = [_leibniz_det(field, oracle._mat_to_tuple(m)) for m in mats]
    assert got.dtype == np.uint8
    assert got.tolist() == want
    if n >= 2:
        assert not got[:60].any()


def _element_codes(family, n, q, chunk=1 << 16):
    """The codes of GL_n(q) or SL_n(q), ascending: those of the q^(n^2)
    codes whose determinant is nonzero (GL) or 1 (SL), a chunk at a time."""
    ops = oracle._Ops(field_for_order(q), n)
    parts = []
    for start in range(0, q ** (n * n), chunk):
        codes = np.arange(start, min(start + chunk, q ** (n * n)),
                          dtype=np.int32)
        dets = ops.det(oracle._decode(codes, n, q))
        parts.append(codes[dets == 1 if family == "SL" else dets != 0])
    return np.concatenate(parts)


def _class_ids(base, codes, chunk=1 << 16):
    """The class id of each code, read through ``base.classes_of``."""
    return np.concatenate([
        base.classes_of(oracle._decode(codes[at:at + chunk], base.n, base.q))
        for at in range(0, len(codes), chunk)])


@pytest.mark.parametrize("family", ["GL", "SL"])
@pytest.mark.parametrize("n,q", [(0, 3), (1, 2), (1, 3), (1, 4), (1, 5),
                                 (1, 7), (1, 8), (1, 9), (2, 4), (2, 8),
                                 (2, 9), (3, 2), (3, 3)])
def test_enumeration_matches_determinant_filter(family, n, q):
    field = field_for_order(q)
    every = np.arange(q ** (n * n), dtype=np.int32)
    dets = [_leibniz_det(field, oracle._mat_to_tuple(m))
            for m in oracle._decode(every, n, q)]
    keep = [d == field.one if family == "SL" else d != field.zero
            for d in dets]
    base = oracle.BaseGroup(family, n, q)
    assert (_class_ids(base, every) >= 0).tolist() == keep
    if family == "GL" and q > 2 and math.gcd(n, q - 1) == 1:
        # GL = SL x Z enumerates nothing: its elements are SL's multiples
        assert base.stats["top_blocks"] == 0
        assert not hasattr(base, "codes")
        return
    assert base.codes.dtype == np.int32
    assert base.codes.tolist() == every[keep].tolist()
    assert base.stats["top_blocks"] == (q ** (n * (n - 1)) if n else 0)


# ---------------------------------------------------------------------------
# classification by conjugation permutations

def _random_mat(field, n, rng):
    return tuple(tuple(rng.randrange(field.q) for _ in range(n))
                 for _ in range(n))


def _random_invertible(field, n, rng):
    while True:
        m = _random_mat(field, n, rng)
        if _leibniz_det(field, m) != field.zero:
            return m


def _random_monomial(field, n, rng):
    perm = rng.sample(range(n), n)
    return tuple(tuple(rng.choice(field.units) if j == perm[i] else field.zero
                       for j in range(n)) for i in range(n))


@pytest.mark.parametrize("family,n,q", [
    (family, n, q) for family in ("GL", "SL") for n in (2, 3)
    for q in (2, 3, 4, 5, 8, 9)] + [
    (family, 4, q) for family in ("GL", "SL") for q in (2, 3)])
def test_sparse_conjugation_matches_mat_mul(family, n, q):
    # the two passes of _map_tables against the reference product: X ->
    # g X g^{-1} for every generator, as _conjugation_perms applies it,
    # and for a few random invertible and random monomial matrices; then
    # X -> a X b for pairs (a, b) that are not a conjugation, singular
    # ones among them
    field = field_for_order(q)
    ops = oracle._Ops(field, n)
    rng = random.Random(q * 10 + n)
    gens = [oracle._mat_to_tuple(g)
            for g in oracle._generator_mats(field, n, family)]
    gens += [_random_invertible(field, n, rng) for _ in range(2)]
    gens += [_random_monomial(field, n, rng) for _ in range(2)]
    pairs = [(g, mat_inv(field, g)) for g in gens]
    unit, mono, mat = _random_invertible, _random_monomial, _random_mat
    pairs += [(unit(field, n, rng), mono(field, n, rng)),
              (mono(field, n, rng), unit(field, n, rng)),
              (mat(field, n, rng), mat(field, n, rng)),
              (identity_mat(field, n), scalar_mat(field, field.zero, n))]
    xs = [_random_mat(field, n, rng) for _ in range(40)]
    codes = _codes(q, xs).astype(np.int32)
    rows = oracle._rows(codes, n, q)
    for a, b in pairs:
        passes = oracle._map_tables(ops, np.array(a, dtype=np.uint8),
                                    np.array(b, dtype=np.uint8))
        assert all(t.shape == (n, q ** n) and t.dtype == np.int32
                   for t in passes)
        got = oracle._map_image(passes, rows, n, q)
        want = _codes(q, [mat_mul(field, mat_mul(field, a, x), b)
                          for x in xs])
        assert got.tolist() == want.tolist()


@pytest.mark.parametrize("family,n,q", [
    (family, 2, q) for family in ("GL", "SL") for q in (2, 3, 4, 5, 8, 9)] + [
    (family, 3, q) for family in ("GL", "SL") for q in (2, 3)] + [
    ("SL", 3, 4), ("GL", 4, 2)])
def test_generators_generate_the_group(family, n, q):
    # the closure of the generators under right multiplication by them,
    # with the reference product; SL_3(4) needs the F_p-basis of F_4 in
    # I + a E_12, and GL_4(2) has no diagonal generator
    field = field_for_order(q)
    gens = [oracle._mat_to_tuple(g)
            for g in oracle._generator_mats(field, n, family)]
    seen = {identity_mat(field, n)}
    frontier = list(seen)
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = mat_mul(field, x, g)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    assert len(seen) == group_order(family, n, q)


@pytest.mark.parametrize("n,q", [
    (n, q) for n in (1, 2, 3, 4) for q in (2, 3, 4, 5, 7, 8, 9)
    if q ** (n * n) <= oracle._ADDRESS_LIMIT])
def test_spread_tables_scale_by_every_scalar(n, q):
    # the maps _scale builds for X -> lam X = (lam I) X I, on every matrix
    # space the oracle addresses (codes below 2^31): one first pass,
    # X -> X^T, for every lam, then one second pass per lam, from lam I,
    # which is its own transpose; _map_tables(ops, lam I, I) agrees
    field = field_for_order(q)
    ops = oracle._Ops(field, n)
    rng = random.Random(q * 10 + n)
    xs = [_random_mat(field, n, rng) for _ in range(40)]
    codes = _codes(q, xs).astype(np.int32)
    rows = oracle._rows(codes, n, q)
    ident = np.eye(n, dtype=np.uint8)
    transpose = oracle._transposing_tables(ops, ident)
    for lam in field.units:
        scalar = oracle._tables(field).mul[lam][ident]
        passes = transpose, oracle._transposing_tables(ops, scalar)
        mapped = oracle._map_tables(ops, scalar, ident)
        assert all(np.array_equal(a, b) for a, b in zip(passes, mapped))
        got = oracle._map_image(passes, rows, n, q)
        assert got.tolist() == \
            _codes(q, [mat_scale(field, lam, x) for x in xs]).tolist()


def _codes(q, mats):
    return oracle._encode(np.array(mats, dtype=np.uint8), q)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_inverse_matches_reference(n, q):
    # a batch of random invertible matrices, inverted in one elimination,
    # against the reference inverse of each one alone
    field = field_for_order(q)
    rng = random.Random(q * 10 + n)
    units = [_random_invertible(field, n, rng) for _ in range(6)]
    got = oracle._Ops(field, n).inverse(
        np.array(units, dtype=np.uint8).reshape(6, n, n))
    assert got.dtype == np.uint8
    assert _codes(q, got).tolist() == \
        _codes(q, [mat_inv(field, g) for g in units]).tolist()


@pytest.mark.parametrize("size", [1, 64, 1000, 64 * 40 + 17])
def test_rank_bitmap_matches_searchsorted(size, monkeypatch):
    # a small chunk, so that building the bitmap crosses chunk boundaries
    monkeypatch.setattr(oracle, "_CHUNK", 16)
    rng = np.random.default_rng(size)
    every = np.arange(size, dtype=np.int32)
    codes = every[rng.random(size) < 0.4]
    # the least and the largest code, and one run filling a whole word
    codes = np.union1d(codes, [0, size - 1]
                       + list(range(64, 128) if size > 128 else []))
    codes = codes.astype(np.int32)
    ranks = oracle._RankBitmap(codes, size)
    idx, member = ranks.lookup(every)
    assert member.tolist() == np.isin(every, codes).tolist()
    assert idx.tolist() == np.searchsorted(codes, every).tolist()
    assert ranks.index(codes, "member").tolist() == list(range(len(codes)))
    outside = every[~member]
    if len(outside):
        with pytest.raises(AssertionError, match="outsider left the group"):
            ranks.index(outside[:1], "outsider")


def _bfs_class_ids(field, family, n, mats):
    """Class ids by breadth-first closure under conjugation by every
    elementary transvection I + a E_ij (and, for GL, every diag(a, 1, ..))
    in pure Python, numbering classes by their least element index."""
    gens = []
    for i in range(n):
        for j in range(n):
            for a in field.units:
                if i != j or (family == "GL" and i == j == 0):
                    m = [list(row) for row in identity_mat(field, n)]
                    m[i][j] = a
                    gens.append(tuple(tuple(r) for r in m))
    pairs = [(g, mat_inv(field, g)) for g in gens]
    index = {m: i for i, m in enumerate(mats)}
    ids = [-1] * len(mats)
    classes = 0
    for start in range(len(mats)):
        if ids[start] != -1:
            continue
        ids[start] = classes
        frontier = [mats[start]]
        while frontier:
            nxt = []
            for x in frontier:
                for g, g_inv in pairs:
                    y = mat_mul(field, mat_mul(field, g, x), g_inv)
                    if ids[index[y]] == -1:
                        ids[index[y]] = classes
                        nxt.append(y)
            frontier = nxt
        classes += 1
    return ids


@pytest.mark.parametrize("family,n,q", [
    ("GL", 2, 4), ("SL", 2, 9), ("GL", 3, 2), ("SL", 3, 3),
    ("GL", 2, 5), ("GL", 2, 7), ("GL", 2, 8),
])
def test_class_ids_match_bfs_reference(family, n, q):
    base = oracle.BaseGroup(family, n, q)
    codes = _element_codes(family, n, q)
    mats = [oracle._mat_to_tuple(m) for m in oracle._decode(codes, n, q)]
    want = _bfs_class_ids(base.field, family, n, mats)
    assert _class_ids(base, codes).tolist() == want


# sha256 of the class ids of the elements in code order, as int32 bytes,
# and of each class's least element index as int64 bytes, recorded
# before the classifier moved to sparse conjugation and the rank bitmap;
# GL_2(5), GL_2(7), GL_3(3) and GL_3(5) recorded while every element was
# still hooked, before any classes were spread by scalars
_GOLDEN_NUMBERING = {
    ("GL", 2, 5): (
        "2d1fa819ca92baad8f22a6a7f390641072b88a232decaf7b9e08e43c7699dd2b",
        "341e118bd24a4685582cdb5710b6cde45e6c047b788f7fe3ea1a076d8a7d4a95"),
    ("GL", 2, 7): (
        "ded95c4cc569eee8c72413029f0903db571a4c6f9c354297985f8faf66495e35",
        "683a94173227ac116ac7ee86d7fb13287a0fbd54c1352c880e80b352b727374b"),
    ("GL", 3, 3): (
        "2d3ac5326d376eb88600bae7f6e3f1e8a3646a0beddeaafc29bc11e06ae83aef",
        "a9538bd4e5964cb703ab062d22ca2c7210faacfef0f18b965941eb8259edd76b"),
    ("GL", 3, 5): (
        "0dde653432db673fd3f5c1ff38d03ab8f46f8ccdc9e951bf08e5ee7108f70956",
        "4450ff13bc4ab42434a784ffb81b944f091abf9af915c9a1e7f1de17764c49cf"),
    ("GL", 3, 4): (
        "d3b6dbc6248cd9d9359bc42bf716aa57865d7164975084174e6feef75d0f5190",
        "1bcb22fbe83a8ab09c05302860093b692700260df472de3c303fa0e0bc6df254"),
    ("SL", 3, 5): (
        "26fdc933e1abf639eb084ed068dc007b10f16566412bd1dc7c4b8d62b11766f1",
        "d7ab59d2deb83d7d8778dbf555935894037939d799d70637fe95c31503cfa564"),
    ("GL", 4, 2): (
        "0157d7d704d02d68ca19a9ecb824d0af9012b5e9f20829a13cda4e3c5e2a665d",
        "05f3538074ea0198b787cfc3e8f28662b71e9bf52dc66591ee88417bba63fa87"),
    ("SL", 3, 4): (
        "192bf8814bd9367885c05485a42d7f546fb48fd2e5aad4b75d6556d673f367dc",
        "c61c837d9b8ac7d118263ae207c0f318a03080998158154b1bae8f4ec3048384"),
}


@pytest.mark.parametrize("family,n,q", sorted(_GOLDEN_NUMBERING))
def test_class_numbering_is_golden(family, n, q):
    # GL_3(5) has 1,488,000 elements, over the default cap
    base = enumerate_group(family, n, q,
                           cap=group_order(family, n, q)).base
    codes = _element_codes(family, n, q)
    ids = _class_ids(base, codes)
    assert ids.dtype == np.int32
    reps = np.searchsorted(codes, base.rep_codes)
    assert codes[reps].tolist() == base.rep_codes.tolist()
    got = (hashlib.sha256(ids.tobytes()).hexdigest(),
           hashlib.sha256(reps.astype(np.int64).tobytes()).hexdigest())
    assert got == _GOLDEN_NUMBERING[family, n, q]


def test_chunking_leaves_the_numbering_alone(monkeypatch):
    want = oracle.BaseGroup("GL", 3, 3)
    monkeypatch.setattr(oracle, "_CHUNK", 1000)
    # GL_3(3) takes its det-1 classes from SL_3(3): rebuild that too
    oracle._built.cache_clear()
    got = oracle.BaseGroup("GL", 3, 3)
    codes = _element_codes("GL", 3, 3)
    assert _class_ids(got, codes).tolist() == _class_ids(want, codes).tolist()
    assert got.rep_codes.tolist() == want.rep_codes.tolist()
    assert got.class_sizes.tolist() == want.class_sizes.tolist()


_FIELD_QS = (2, 3, 4, 5, 7, 8, 9)


@pytest.mark.parametrize("family,n,q", [
    (family, n, q) for family in ("GL", "SL") for n in range(5)
    for q in _FIELD_QS if group_order(family, n, q) <= 200_000])
def test_only_the_fiber_is_hooked(family, n, q):
    base = oracle.BaseGroup(family, n, q)
    hooked = base.stats["fiber_elements"]
    # only GL = SL x Z reads SL's classes; every other group is hooked whole
    if family == "GL" and q > 2 and math.gcd(n, q - 1) == 1:
        assert hooked == group_order("SL", n, q)
    else:
        assert hooked == base.order
    # the classes are still numbered by their least element
    codes = _element_codes(family, n, q)
    least = np.full(base.num_classes, base.order)
    np.minimum.at(least, _class_ids(base, codes), np.arange(base.order))
    assert codes[least].tolist() == base.rep_codes.tolist()
    assert least.tolist() == sorted(least.tolist())


@pytest.mark.parametrize("n,q", [(1, 3), (1, 4), (2, 4), (2, 8), (3, 3)])
def test_gl_fiber_classes_come_from_sl(n, q):
    # gcd(n, q - 1) = 1: GL = SL x Z, so the fiber det 1 is SL, hooked
    # nowhere, and GL numbers its classes as SL does
    assert math.gcd(n, q - 1) == 1
    gl, sl = oracle.BaseGroup("GL", n, q), oracle._built("SL", n, q)
    assert gl.stats["hook_rounds"] == 0 and gl.stats["hook_s"] == 0
    assert gl.stats["fiber_elements"] == sl.order
    # the GL class of each fiber element, renumbered by least element
    _, first, renumbered = np.unique(_class_ids(gl, sl.codes),
                                     return_index=True, return_inverse=True)
    assert (np.argsort(np.argsort(first))[renumbered]
            == sl.class_id).all()
    # each SL class is the whole of its GL class's det-1 part
    assert len(first) == sl.num_classes
    assert gl.stats["certified_classes"] == sl.num_classes
    assert gl.num_classes == sl.num_classes * (q - 1)


@pytest.mark.parametrize("n,q", [(2, 4), (2, 8), (3, 3), (3, 5)])
def test_gl_read_from_sl_keeps_no_per_element_array(n, q):
    # GL = SL x Z: every array the base group holds is indexed by class,
    # by scalar or by field element, none by GL element (at n = 1 the
    # q - 1 classes outnumber SL_1(q))
    assert q > 2 and math.gcd(n, q - 1) == 1
    base = oracle.BaseGroup("GL", n, q)
    arrays = [v for v in vars(base).values() if isinstance(v, np.ndarray)]
    assert arrays
    assert max(a.size for a in arrays) <= group_order("SL", n, q)


@pytest.mark.parametrize("q", [4, 5])
def test_certification_fails_on_a_moved_element(q):
    # GL_2(4) is read from SL_2(4) and certifies its classes C = 1 C, those
    # of determinant 1 (lam -> lam^2 is a bijection of F_4^*); GL_2(5) is
    # hooked whole and certifies every class.  Moving one element between
    # two certified non-scalar classes keeps the class equation
    base = oracle.BaseGroup("GL", 2, q)
    base._certify()
    certified = np.flatnonzero(base.ops.det(base.rep_mats) == 1) if q == 4 \
        else np.arange(base.num_classes)
    assert base.stats["certified_classes"] == len(certified)
    big = certified[base.class_sizes[certified] > 1]
    assert len(big) >= 2
    base.class_sizes[big[0]] += 1
    base.class_sizes[big[-1]] -= 1
    with pytest.raises(AssertionError, match="orbit-stabilizer fails"):
        base._certify()


@pytest.mark.parametrize("q", [4, 5])
def test_certification_fails_on_an_off_by_one_total(q):
    base = oracle.BaseGroup("GL", 2, q)
    base.class_sizes[-1] += 1
    with pytest.raises(AssertionError, match="class equation fails"):
        base._certify()


@pytest.mark.parametrize("q", [2, 3, 4, 7, 9])
def test_batched_rref_matches_one_at_a_time(q):
    # matrices of every rank in one batch, each reduced as if alone
    field = field_for_order(q)
    rng = np.random.default_rng(q)
    mats = rng.integers(0, q, size=(60, 5, 6), dtype=np.uint8)
    for i, m in enumerate(mats):
        m[: i % 6] = 0  # rank at most 5 - i % 6 (or 0)
    reduced, pivots = oracle._rref(field, mats)
    for m, got, mask in zip(mats, reduced, pivots):
        rows, cols = _reference_rref(field, m.tolist())
        assert got.tolist() == rows
        assert np.flatnonzero(mask).tolist() == cols


def test_class_ids_ordered_by_least_element():
    base = enumerate_group("GL", 3, 3).base
    codes = _element_codes("GL", 3, 3)
    least = np.full(base.num_classes, len(codes))
    np.minimum.at(least, _class_ids(base, codes), np.arange(len(codes)))
    assert codes[least].tolist() == base.rep_codes.tolist()
    assert least.tolist() == sorted(least.tolist())


def test_orbit_roots_against_python_union_find(monkeypatch):
    rng = np.random.default_rng(5)
    size = 3000
    cycle = np.roll(np.arange(size, dtype=np.int32), 1)
    shuffles = [rng.permutation(size).astype(np.int32) for _ in range(2)]
    # one long cycle is one orbit; random permutations leave several
    for perms in ([cycle], shuffles[:1], shuffles):
        parent = list(range(size))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x
        for perm in perms:
            for i, j in enumerate(perm.tolist()):
                a, b = find(i), find(j)
                parent[max(a, b)] = min(a, b)
        want = [find(i) for i in range(size)]
        # one chunk, then chunks small enough that hooking crosses them
        for chunk in (1 << 18, 256):
            monkeypatch.setattr(oracle, "_CHUNK", chunk)
            roots, _ = oracle._orbit_roots(perms, size)
            assert roots.tolist() == want


@pytest.mark.parametrize("family,n,q,y", [
    ("GL", 2, 2, None), ("GL", 2, 3, None), ("GL", 2, 4, None),
    ("GL", 2, 5, None), ("SL", 2, 3, None), ("SL", 2, 5, None),
    ("PGL", 2, 3, None), ("PGL", 2, 5, None),
    ("PSL", 2, 3, None), ("PSL", 2, 5, None), ("GL", 3, 2, None),
    ("SLQ", 2, 5, 1), ("SLQ", 2, 5, 2), ("SLQ", 3, 4, 3),
])
def test_oracle_agrees_with_engine(family, n, q, y):
    rep = verify_group(family, n, q, y_order=y)
    assert rep["match"], rep


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@pytest.mark.parametrize("family", ["GL", "SL", "PGL", "PSL"])
def test_oracle_in_dimension_one(family, q):
    rep = verify_group(family, 1, q)
    assert rep["match"], rep
    assert rep["classes"] == rep["order"] == group_order(family, 1, q)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@pytest.mark.parametrize("family", counts.FAMILIES)
def test_oracle_in_dimension_zero(family, q, capsys):
    # the trivial group of the empty matrix: one class, every kind counts 1
    y = 1 if family == "SLQ" else None
    rep = verify_group(family, 0, q, y_order=y)
    assert rep["match"], rep
    assert rep["order"] == rep["classes"] == 1
    assert [c["kind"] for c in rep["checks"]] == \
        list(counts.applicable_kinds(family, q))
    assert all(c["oracle"] == c["engine"] == 1 for c in rep["checks"])
    argv = ["verify", "--family", family, "--n", "0", "--q", str(q)]
    assert cli.main(argv + (["--y", "1"] if y else [])) == 0
    capsys.readouterr()


def _reference_strongly_real_ids(gd):
    """Pure-Python search: class c is strongly real when some h with
    h^2 in Y has h g h^{-1} in Y g^{-1} for its representative g."""
    field, n = gd.field, gd.n
    ys = [scalar_mat(field, z, n) for z in gd.y_codes]
    mats = [oracle._mat_to_tuple(m) for m in oracle._decode(
        _element_codes(gd.base.family, n, gd.q), n, gd.q)]
    pool = [h for h in mats if mat_mul(field, h, h) in ys]
    ids = []
    for cid in range(gd.num_classes):
        g = gd.rep_mat(cid)
        g_inv = mat_inv(field, g)
        targets = {mat_mul(field, y, g_inv) for y in ys}
        if any(mat_mul(field, mat_mul(field, h, g), mat_inv(field, h))
               in targets for h in pool):
            ids.append(cid)
    return ids


_SMALL_GROUPS = (
    [("GL", 2, q, None) for q in (2, 3, 4, 5)]
    + [(f, 2, q, None) for f in ("SL", "PSL")
       for q in (2, 3, 4, 5, 7, 8, 9, 11)]
    + [("PGL", 2, q, None) for q in (2, 3, 4, 5, 7)]
    + [("GL", 3, 2, None), ("SL", 3, 3, None), ("PSL", 3, 3, None),
       ("SLQ", 2, 5, 2)])


@pytest.mark.parametrize("family,n,q,y", _SMALL_GROUPS)
def test_strongly_real_matches_reference_search(family, n, q, y):
    gd = enumerate_group(family, n, q, y_order=y)
    assert gd.strongly_real_class_ids() == _reference_strongly_real_ids(gd)


def _reference_twisted_real_ids(gd, twists):
    """Pure-Python search, for each twist c: class cid is c-real when some
    h in the group has h g h^{-1} in {y c g^{-1} : y in Y} for its
    representative g.  c = 1 is reality, a non-square c zeta-reality."""
    field, n = gd.field, gd.n
    mats = [oracle._mat_to_tuple(m) for m in oracle._decode(
        _element_codes(gd.base.family, n, gd.q), n, gd.q)]
    pairs = [(h, mat_inv(field, h)) for h in mats]
    ids = {c: [] for c in twists}
    for cid in range(gd.num_classes):
        g = gd.rep_mat(cid)
        conjugates = {mat_mul(field, mat_mul(field, h, g), h_inv)
                      for h, h_inv in pairs}
        g_inv = mat_inv(field, g)
        for c in twists:
            if any(mat_scale(field, field.mul(y, c), g_inv) in conjugates
                   for y in gd.y_codes):
                ids[c].append(cid)
    return ids


@pytest.mark.parametrize("family,n,q,y", _SMALL_GROUPS)
def test_twisted_reality_matches_reference_search(family, n, q, y):
    gd = enumerate_group(family, n, q, y_order=y)
    field = gd.field
    # every non-square: zeta and zeta^{-1} are two twists from q = 5 on
    nonsquares = []
    if family in ("GL", "SL") and q % 2:
        squares = {field.mul(x, x) for x in field.units}
        nonsquares = [c for c in field.units if c not in squares]
    want = _reference_twisted_real_ids(gd, [field.one] + nonsquares)
    assert gd.real_class_ids() == want[field.one]
    for c in nonsquares:
        assert gd.zeta_real_class_ids(c) == want[c], c


def test_centralizer_combinations_stay_small():
    # a non-scalar n x n matrix has a commutant of dimension at most
    # (n - 1)^2 + 1; every addressable (n, q) keeps q^that small
    worst = {}
    n = 2
    while 2 ** (n * n) <= oracle._ADDRESS_LIMIT:
        for q in range(2, MAX_Q + 1):
            try:
                prime_power(q)
            except UsageError:
                continue
            if q ** (n * n) <= oracle._ADDRESS_LIMIT:
                worst[(n, q)] = q ** ((n - 1) ** 2 + 1)
        n += 1
    assert max(worst.values()) == worst[(5, 2)] == 2 ** 17
    assert worst[(4, 3)] == 3 ** 10
    for family, n, q in (("GL", 3, 2), ("GL", 2, 4), ("GL", 4, 2)):
        base = enumerate_group(family, n, q).base
        dims = base._commutants(base.rep_mats)
        assert sum(len(ids) for ids, _ in dims.values()) == base.num_classes
        for m in dims:
            if m < n * n:
                assert m <= (n - 1) ** 2 + 1


def test_zeta_real_conventions():
    # scaling by zeta must leave SL when zeta^n != 1, never crash
    gd = enumerate_group("SL", 2, 5)
    assert gd.zeta_real_class_ids() == []
    gd = enumerate_group("SL", 2, 3)
    assert len(gd.zeta_real_class_ids()) == 1
    # zeta-reality is a matrix-group notion only
    gd = enumerate_group("PSL", 2, 5)
    with pytest.raises(ValueError):
        gd.zeta_real_class_ids()
    gd = enumerate_group("GL", 2, 4)
    with pytest.raises(ValueError):
        gd.zeta_real_class_ids()


@pytest.mark.parametrize("zeta", [0, 1, 4, 7])
def test_zeta_must_be_a_nonsquare_unit(zeta):
    # over F_5 the non-squares are 2 and 3: 0 is no unit, 1 and 4 are
    # squares, 7 is no element
    for family in ("GL", "SL"):
        for method in counts.METHODS:
            with pytest.raises(UsageError):
                counts.count(family, 2, 5, "zeta_real", method=method,
                             zeta=zeta)
        with pytest.raises(UsageError):
            enumerate_group(family, 2, 5).zeta_real_class_ids(zeta)
        with pytest.raises(UsageError):
            oracle.verify_group(family, 2, 5, zeta=zeta)


def test_counts_summary():
    # the class count of every kind the family has, read off the oracle
    for (family, n, q), want in ((("GL", 2, 3), [6, 6, 4]),
                                 (("PGL", 2, 4), [5, 5])):
        gd = enumerate_group(family, n, q)
        assert [len(gd.class_ids(kind))
                for kind in counts.applicable_kinds(family, q)] == want


def test_class_ids_checks_the_kind():
    # an unknown kind is a usage error, not the real classes
    gd = enumerate_group("GL", 2, 3)
    for kind in ("bogus", "REAL", None):
        with pytest.raises(UsageError):
            gd.class_ids(kind)
    with pytest.raises(UsageError):
        enumerate_group("PSL", 2, 5).class_ids("zeta_real")


# ---------------------------------------------------------------------------
# matrices to labels

def test_label_bijection_gl():
    for q, n in [(3, 2), (4, 2), (2, 3)]:
        field = field_for_order(q)
        gd = enumerate_group("GL", n, q)
        labs = [matrix_to_label(field, gd.rep_mat(c))
                for c in range(gd.num_classes)]
        assert len(set(labs)) == gd.num_classes
        assert set(labs) == set(labels.enumerate_labels(field, n))


def test_sl_classes_split_by_h_nu():
    field = field_for_order(5)
    gd = enumerate_group("SL", 2, 5)
    per_label = {}
    for c in range(gd.num_classes):
        lab = matrix_to_label(field, gd.rep_mat(c))
        per_label.setdefault(lab, []).append(c)
    for lab, cids in per_label.items():
        assert len(cids) == labels.h_nu(labels.label_type(lab), 5)


def test_label_conjugation_invariance():
    f3 = field_for_order(3)
    gd = enumerate_group("GL", 2, 3)
    base = gd.base
    rng = random.Random(17)
    for _ in range(12):
        cid = rng.randrange(gd.num_classes)
        rep = gd.rep_mat(cid)
        h = oracle._mat_to_tuple(
            oracle._decode(base.codes[[rng.randrange(len(base.codes))]],
                           2, 3)[0])
        conj = mat_mul(f3, mat_mul(f3, h, rep), mat_inv(f3, h))
        assert matrix_to_label(f3, conj) == matrix_to_label(f3, rep)


def test_label_jordan_structure():
    f3 = field_for_order(3)
    # one size-3 and one size-1 Jordan block at eigenvalue 1
    j31 = ((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    assert matrix_to_label(f3, j31) == labels.make_label(
        f3, [(1, 2), ONE, (1, 2)])
    # a pair of companion blocks of t^2+1 chained into one size-2 block
    j2c = ((0, 2, 1, 0), (1, 0, 0, 1), (0, 0, 0, 2), (0, 0, 1, 0))
    assert matrix_to_label(f3, j2c) == labels.make_label(
        f3, [ONE, (1, 0, 1)])
    # label determinant equals the matrix determinant by construction
    lab = matrix_to_label(f3, j2c)
    assert labels.label_det(f3, lab) == _leibniz_det(f3, j2c) == 1


def test_matrix_to_label_rejects_singular():
    f3 = field_for_order(3)
    with pytest.raises(ValueError):
        matrix_to_label(f3, ((1, 0), (0, 0)))


def _companion(field, g):
    """C(g) of a monic g: ones below the diagonal, -g in the last column."""
    d = polys.degree(g)
    return tuple(tuple(field.neg(g[i]) if j == d - 1
                       else field.one if i == j + 1 else field.zero
                       for j in range(d)) for i in range(d))


def _block_sum(field, blocks):
    n = sum(len(b) for b in blocks)
    out = [[field.zero] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(b)] = row
        at += len(b)
    return tuple(map(tuple, out))


def _chain_to_matrix(field, label):
    """A matrix with the given label: each irreducible p of multiplicity m
    in u_i gives m blocks C((p*)^i), p* the monic reversal of p."""
    blocks = []
    for i, u in enumerate(label, 1):
        for p, m in polys.factorize(field, u).factors:
            star = tilde(field, p)
            blocks += [_companion(field, poly_pow(field, star, i))] * m
    return _block_sum(field, blocks)


@pytest.mark.parametrize("q,top", [(2, 6), (3, 6), (4, 4), (5, 4), (7, 3),
                                   (8, 3), (9, 3)])
def test_label_round_trip_through_companion_blocks(q, top):
    field = field_for_order(q)
    for n in range(top + 1):
        for lab in labels.enumerate_labels(field, n):
            assert matrix_to_label(field, _chain_to_matrix(field, lab)) == lab


@st.composite
def _chain_case(draw):
    """(field, A, h, r): A random invertible (r = 1) or a block sum with a
    block repeated r >= 2 times, and h a random invertible P L U."""
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9]))
    field = field_for_order(q)
    elt, unit = st.integers(0, q - 1), st.integers(1, q - 1)

    def square(k):
        return tuple(tuple(draw(elt) for _ in range(k)) for _ in range(k))

    def invertible(k):
        low = [[field.one if i == j else draw(elt) if i > j else field.zero
                for j in range(k)] for i in range(k)]
        up = [[draw(unit) if i == j else draw(elt) if i < j else field.zero
               for j in range(k)] for i in range(k)]
        perm = draw(st.permutations(range(k)))
        return mat_mul(field, [low[i] for i in perm], up)

    if draw(st.booleans()):
        n, r = draw(st.integers(1, 6)), 1
        a = invertible(n)
    else:
        n = draw(st.integers(2, 6))
        s = draw(st.integers(1, n // 2))
        r = draw(st.integers(2, n // s))
        a = _block_sum(field, [square(s)] * r + [square(n - r * s)])
    return field, a, invertible(n), r


@settings(max_examples=60, deadline=None, database=None)
@given(_chain_case())
def test_invariant_factors_properties(case):
    field, a, h, r = case
    n = len(a)
    chain = oracle.invariant_factors(field, a)
    assert len(chain) >= r
    assert all(polys.degree(f) > 0 and f[-1] == field.one for f in chain)
    for f, g in zip(chain, chain[1:]):
        assert polys.poly_divmod(field, g, f)[1] == ()
    # the product is det(tI - A): both monic of degree n, so they agree
    # once they agree at q >= n points
    chi = polys.ONE
    for f in chain:
        chi = polys.poly_mul(field, chi, f)
    assert polys.degree(chi) == n
    if field.q >= n:
        for c in range(field.q):
            c_minus_a = tuple(tuple(field.sub(c if i == j else field.zero, x)
                                    for j, x in enumerate(row))
                              for i, row in enumerate(a))
            assert (polys.poly_eval(field, chi, c)
                    == _leibniz_det(field, c_minus_a))
    conj = mat_mul(field, mat_mul(field, h, a), mat_inv(field, h))
    assert oracle.invariant_factors(field, conj) == chain


def test_invariant_factors_separate_classes():
    for n, q in ((3, 3), (2, 5)):
        field = field_for_order(q)
        gd = enumerate_group("GL", n, q)
        chains = {tuple(oracle.invariant_factors(field, gd.rep_mat(c)))
                  for c in range(gd.num_classes)}
        assert len(chains) == gd.num_classes


# ---------------------------------------------------------------------------
# caps and validation

def test_cap_and_env(monkeypatch):
    with pytest.raises(BudgetExceeded):
        enumerate_group("SL", 4, 5, cap=10 ** 6)
    monkeypatch.setenv("REALCLASS_CAP", "10")
    with pytest.raises(BudgetExceeded):
        enumerate_group("GL", 2, 3)
    for bad in ("abc", "-1"):
        monkeypatch.setenv("REALCLASS_CAP", bad)
        with pytest.raises(UsageError, match="REALCLASS_CAP"):
            enumerate_group("GL", 2, 3)
    monkeypatch.delenv("REALCLASS_CAP")
    with pytest.raises(UsageError, match="nonnegative"):
        enumerate_group("GL", 2, 3, cap=-1)
    assert enumerate_group("GL", 2, 3).order == 48
    # GL_2(3) is cached by now: the cap still holds on a cache hit
    with pytest.raises(BudgetExceeded):
        enumerate_group("GL", 2, 3, cap=47)


def test_slq_validation():
    with pytest.raises(ValueError):
        enumerate_group("SLQ", 2, 5, y_order=4)
    with pytest.raises(ValueError):
        enumerate_group("SLQ", 2, 5)
    with pytest.raises(ValueError):
        enumerate_group("XX", 2, 5)
    with pytest.raises(UsageError):
        oracle.verify_group("SLQ", 2, 5, y_order=2.0)
