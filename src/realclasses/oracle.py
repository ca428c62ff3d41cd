"""Brute-force oracle: enumerate a matrix group, classify its conjugacy
classes, and decide reality questions by direct search.

Everything here is independent of the counting formulas so the two sides
can be compared.  Groups are enumerated as coded matrices (base-q digit
strings, row-major) and kept as their sorted codes, found by expanding
the determinant along the last row (``BaseGroup._enumerate_codes``)
without a scan of all q^(n^2) matrices; every determinant is exact.

A rank bitmap over the q^(n^2) codes turns a code into its element index
and says whether it is in the group.  The classes are the orbits of a few
generators (``_generator_mats``) acting by conjugation, found by min-label
hooking with pointer jumping (Shiloach-Vishkin).  Every map applied to
element codes, conjugation X -> g X g^{-1} and the scalar multiples
X -> lam X alike, is X -> a X b = ((X b)^T a^T)^T, two passes of per-row
tables of q^n codes (``_map_tables``), with no decode of the entries.

Each group is classified one of two ways.  When gcd(n, q - 1) = 1 and
q > 2, GL = SL x Z: conjugation by GL on SL_n(q) is conjugation by SL
and commutes with X -> lam X, so the classes are the pairs (C, lam) of a
class C of the built SL group and a scalar, the class lam C of size |C|,
numbered by least code.  Such a GL keeps nothing per element: g lies in
lam C for lam = det(g)^n' (n n' = 1 mod q - 1) and C the SL class of
lam^-1 g.  Every other group (SL, GL_n(2), and GL with gcd(n, q - 1) > 1)
is hooked whole.  The classes are certified through the class equation
and, for each class C hooked or read from SL, the orbit-stabilizer
equation |C| * |centralizer| = |order|, the commutants of all those
representatives coming from one batched elimination.  For GL = SL x Z
the class equation holds by construction, as the sizes are SL's; the
reading is guarded by orbit-stabilizer with GL centralizers on the
classes C (it fails if SL classes were finer than GL classes), |GL| =
(q - 1) |SL| and lam -> lam^n being a bijection.

Quotients by a central subgroup Y reuse the base classification: the
classes of G/Y are the Y-orbits of classes of G, reality (twist c = 1)
and zeta-reality (a non-square twist c) ask whether the class of c g^{-1}
lands in the orbit of g, and strong reality whether the orbit
lies in P P for P = {h : h^2 in Y}, found from the class representatives.
Each question is asked of all representatives at once, as one batch of
coded matrices: ``_Ops`` is the one matrix algebra (products, inverses
as the right half of [g | I] reduced by ``_rref``, determinants).
"""

import functools
import itertools
import math
import os
import time

import numpy as np

from . import counts, labels, polys
from .errors import BudgetExceeded, UsageError
from .fields import canonical_nonsquare, field_for_order

DEFAULT_CAP = 10 ** 6
_ADDRESS_LIMIT = 3 * 10 ** 8  # below 2^31, so codes fit int32
_CHUNK = 1 << 15  # elements per batch; a batch's int32 rows stay in cache


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


def group_order(family, n, q, y_order=None):
    """Order of the requested group (not of the enumerated base group)."""
    if n == 0:
        return 1  # the trivial group of the empty matrix
    gl = 1
    for i in range(n):
        gl *= q ** n - q ** i
    if family == "GL":
        return gl
    if family == "PGL":
        return gl // (q - 1)
    sl = gl // (q - 1)
    if family == "SL":
        return sl
    if family == "PSL":
        return sl // math.gcd(n, q - 1)
    if family == "SLQ":
        return sl // y_order
    raise ValueError("unknown family %r" % (family,))


# ---------------------------------------------------------------------------
# Gauss-Jordan elimination (batched, for inverses and for the commutants)

def _rref(field, mats):
    """Gauss-Jordan elimination of a batch (b, r, c) of coded matrices: the
    reduced batch and a (b, c) mask of each matrix's pivot columns.  Row i
    of a reduced matrix of rank k has its leading 1 in its i-th pivot
    column for i < k, and its rows from k on are zero."""
    add, mul, neg = field.add_table, field.mul_table, field.neg_table
    inv = np.array(field.inv_list, dtype=np.uint8)
    m = np.array(mats, dtype=np.uint8)
    b, rows, cols = m.shape
    rank = np.zeros(b, dtype=np.intp)
    pivots = np.zeros((b, cols), dtype=bool)
    for col in range(cols):
        # the rows at or past the rank that can hold this column's pivot
        free = (m[:, :, col] != 0) & (np.arange(rows) >= rank[:, None])
        at = np.flatnonzero(free.any(axis=1))
        top, piv = rank[at], free[at].argmax(axis=1)
        lead = m[at, piv]
        lead = mul[inv[lead[:, col]][:, None], lead]
        m[at, piv] = m[at, top]
        # clear the column from every row, then put the pivot row on top
        m[at] = add[m[at], neg[mul[m[at, :, col][:, :, None],
                                   lead[:, None, :]]]]
        m[at, top] = lead
        pivots[at, col] = True
        rank[at] += 1
    return m, pivots


# ---------------------------------------------------------------------------
# products, inverses and determinants of batches of coded matrices

class _Ops:
    def __init__(self, field, n):
        self.field = field
        self.n = n
        self.q = field.q
        # products mod q are exact over a prime field and at n = 0 (empty)
        self.integer = field.k == 1 or n == 0
        # entries as the arithmetic below wants them: unreduced sums and
        # products need int32, table indices fit uint8
        self.dtype = np.int32 if self.integer else np.uint8

    def matmul(self, a, b):
        """Batched matrix product of coded matrices; broadcasts like @."""
        if self.integer:
            out = (a.astype(np.int32) @ b.astype(np.int32)) % self.q
            return out.astype(np.uint8)
        acc = None
        for k in range(self.n):
            lhs = a[..., :, k]
            rhs = b[..., k, :]
            term = self.field.mul_table[lhs[..., :, None], rhs[..., None, :]]
            acc = term if acc is None else self.field.add_table[acc, term]
        return acc

    def inverse(self, a):
        """The inverses of a batch (k, n, n) of invertible coded matrices:
        the right half of [a | I] reduced by ``_rref``."""
        eye = np.broadcast_to(np.eye(self.n, dtype=np.uint8), a.shape)
        reduced, pivots = _rref(self.field, np.concatenate([a, eye], axis=2))
        assert pivots[:, :self.n].all(), "a singular matrix has no inverse"
        return reduced[:, :, self.n:]

    def _neg(self, a):
        return -a if self.integer else self.field.neg_table[a]

    def dot(self, c, x):
        """sum_j c[j] * x[j] over the field; each c[j] and x[j] is an array
        (or a scalar) and they broadcast.  Each product joins one running
        sum as it is made: over a prime field the sum stays unreduced int32
        (below n * p^2) until one reduction mod p."""
        acc = None
        for cj, xj in zip(c, x):
            term = cj * xj if self.integer else self.field.mul_table[cj, xj]
            if acc is None:
                acc = term
            elif self.integer:
                acc += term
            else:
                acc = self.field.add_table[acc, term]
        return acc % self.q if self.integer else acc

    def _expansion(self, minors, r, cols):
        """The coefficients of row r in the minor of rows 0..r on the
        columns cols: (-1)^(r+k) times the minor of rows 0..r-1 on the
        columns without cols[k]."""
        coef = [minors[cols[:k] + cols[k + 1:]] for k in range(len(cols))]
        return [self._neg(m) if (r + k) % 2 else m for k, m in enumerate(coef)]

    def cofactors(self, top):
        """The cofactor vector c, shape (n, ...), of a batch (..., n - 1, n)
        of top blocks: the matrix of a block over a last row x has
        determinant c . x.

        The minors of the leading rows on every set of columns come row by
        row, each expanded along its last row; c is the expansion of the
        full n x n minor along row n - 1.
        """
        n = top.shape[-1]
        rows = top.astype(self.dtype)
        minors = {(): np.ones(rows.shape[:-2], dtype=rows.dtype)}
        for r in range(n - 1):
            minors = {cols: self.dot(self._expansion(minors, r, cols),
                                     [rows[..., r, j] for j in cols])
                      for cols in itertools.combinations(range(n), r + 1)}
        c = np.stack(self._expansion(minors, n - 1, tuple(range(n))))
        return c % self.q if self.integer else c

    def det(self, a):
        """Exact determinants of a batch (..., n, n), in uint8, expanded
        along the last row: cofactors of the top n - 1 rows . last row."""
        if self.n == 0:
            return np.ones(a.shape[:-2], dtype=np.uint8)
        last = np.moveaxis(a[..., -1, :], -1, 0)
        return self.dot(self.cofactors(a[..., :-1, :]), last).astype(
            np.uint8, copy=False)


def _entries(codes, cells, q, dtype=np.uint8):
    """The low ``cells`` base-q digits of codes below 2^31, least
    significant first, shape (cells, len(codes)): row j holds entry j
    (row-major) of every matrix."""
    out = np.empty((cells, len(codes)), dtype=dtype)
    c = np.array(codes, dtype=np.int32)
    for j in range(cells):
        quot = c // q
        np.subtract(c, quot * q, out=out[j], casting="unsafe")
        c = quot
    return out


def _decode(codes, n, q, rows=None):
    """Codes to matrices: digit j of a code (base q, least significant
    first) is entry j row-major.  ``rows`` < n decodes only the leading
    rows, from codes below q^(rows * n).  The result is a view of
    ``_entries``, so its cells are not contiguous."""
    rows = n if rows is None else rows
    return _entries(codes, rows * n, q).T.reshape(len(codes), rows, n)


def _encode(mats, q):
    flat = mats.reshape(mats.shape[0], -1).astype(np.int64)
    code = np.zeros(mats.shape[0], dtype=np.int64)
    for j in range(flat.shape[1] - 1, -1, -1):
        code = code * q + flat[:, j]
    return code


def _mat_to_tuple(mat):
    return tuple(tuple(int(x) for x in row) for row in mat)


# ---------------------------------------------------------------------------
# generators

def _generator_mats(field, n, base_family):
    """A small generating set of GL_n(q) or SL_n(q): transvections, an
    n-cycle and a diagonal matrix.

    The transvections I + a E_12, for a running over the F_p-basis 1, t,
    ..., t^(k-1) of F_q, give the root subgroup {I + x E_12}; with the
    I + a E_21 they generate SL_2(q).  For n >= 3 an n-cycle of
    determinant 1 moves E_12 onto E_23, ..., E_n1, and the commutators
    [I + a E_ij, I + b E_jk] = I + ab E_ik give every other root subgroup,
    so the root subgroups, which generate SL_n(q), need no I + a E_21.
    GL adds diag(theta, 1, ..., 1) for a primitive theta, whose powers
    conjugate I + E_12 to I + theta^i E_12 (and I + E_21 to
    I + theta^-i E_21), so there a = 1 alone serves.  Over F_2, where
    theta = 1 and GL is SL, and for SL_1(q) and GL_0(q), which are
    trivial, there is no such generator.  The generators come as one coded
    array (m, n, n).
    """
    gens = []
    # t^m has the code p^m: its base-p digits are one 1
    basis = [field.p ** m
             for m in range(1 if base_family == "GL" else field.k)]
    spots = [(0, 1), (1, 0)] if n == 2 else [(0, 1)] if n >= 3 else []
    for at in spots:
        for a in basis:
            gens.append(np.eye(n, dtype=np.uint8))
            gens[-1][at] = a
    if n >= 3:
        gens.append(np.eye(n, k=-1, dtype=np.uint8))
        signed = base_family == "SL" and n % 2 == 0
        gens[-1][0, n - 1] = field.minus_one if signed else field.one
    if base_family == "GL" and n >= 1 and field.q > 2:
        gens.append(np.eye(n, dtype=np.uint8))
        gens[-1][0, 0] = field.generator
    return np.array(gens, dtype=np.uint8).reshape(len(gens), n, n)


def _transposing_tables(ops, m):
    """Per-row tables of the map X -> (X m)^T on coded matrices: the code
    of the image is sum_s tables[s][v_s], v_s the value of row s of X (its
    n digits as one base-q^n digit of the code, ``_rows``).

    Row s of X m is v_s m, a function of row s alone, and it is column s
    of the image: entry j of v m sits at q^(n j + s).  So tables[s] is
    q^s times the code of the column v m, for each of the q^n rows v.
    """
    n, q = ops.n, ops.q
    vecs = _entries(np.arange(q ** n), n, q).T  # row v of X, as (q^n, n)
    column = ops.matmul(vecs, m).astype(np.int32) @ (
        q ** (n * np.arange(n, dtype=np.int32)))
    return column * (q ** np.arange(n, dtype=np.int32))[:, None]


def _map_tables(ops, a, b):
    """The two passes of per-row tables of X -> a X b on coded matrices:
    a X b = ((X b)^T a^T)^T, so the first pass maps X to (X b)^T and the
    second maps that to a X b (``_map_image``).  Each table holds n q^n
    entries, whatever a and b are."""
    return _transposing_tables(ops, b), _transposing_tables(ops, a.T)


def _rows(codes, n, q):
    """The row values of codes below q^(n^2), shape (n, len(codes)): row s
    holds row s of every matrix as one number below q^n, ready to index
    ``_transposing_tables``."""
    return _entries(codes, n, q ** n, np.intp)


def _table_image(tables, rows):
    """The codes of the images, by one pass of per-row ``tables``, of the
    matrices with these ``_rows``."""
    image = tables[0][rows[0]]
    for table, row in zip(tables[1:], rows[1:]):
        image += table[row]
    return image


def _map_image(passes, rows, n, q):
    """The codes of a X b for the matrices X with these ``_rows``, by the
    two ``passes`` of ``_map_tables(ops, a, b)``."""
    first, second = passes
    return _table_image(second, _rows(_table_image(first, rows), n, q))


# _BIT[b] = 2^b, the bit of code b (mod 64) in its word
_BIT = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))


class _RankBitmap:
    """Indices into an ascending array of distinct codes, by one bit per
    code of the address space [0, size): bit c % 64 of word c // 64 marks
    code c, and ``prefix`` counts the marked codes below each word.  A
    member's index is its word's prefix plus the marked bits below it in
    that word; the same word says whether a code is a member at all."""

    def __init__(self, codes, size):
        self.bits = np.zeros(-(-size // 64), dtype=np.uint64)
        for start in range(0, len(codes), _CHUNK):
            chunk = codes[start:start + _CHUNK]
            words = chunk >> 6
            # codes ascend, so each word's codes are one run; chunks, not
            # one flag per address, as at n = 2 there are ~q addresses
            # per element
            first = np.flatnonzero(np.diff(words, prepend=-1))
            self.bits[words[first]] |= np.bitwise_or.reduceat(
                _BIT[chunk & 63], first)
        counts = np.bitwise_count(self.bits)
        self.prefix = np.cumsum(counts, dtype=np.int32)
        self.prefix -= counts

    def lookup(self, codes):
        """The index of each code and whether it is a member; the index of
        a non-member is that of the next member."""
        at = codes >> 6
        words = self.bits[at]
        bit = _BIT[codes & 63]
        member = (words & bit) != 0
        bit -= np.uint64(1)  # the bits below
        words &= bit
        return self.prefix[at] + np.bitwise_count(words), member

    def index(self, codes, what):
        """The indices of codes that must be members; ``what`` names them
        in the assertion that they are."""
        idx, member = self.lookup(codes)
        assert member.all(), "%s left the group" % what
        return idx


def _orbit_roots(perms, size):
    """The least point of each point's orbit under the permutation arrays.

    Min-label hooking with pointer jumping (Shiloach-Vishkin 1982): every
    edge i -- perm[i] whose ends carry different labels hooks the larger
    label onto the smaller, then pointers jump to their roots.  A label is
    always a point of the same orbit, never above its own point, and only
    falls, so once every perm maps each point to one with the same label,
    the label is constant on each orbit and is its least point.  Returns
    the roots and ``hook_rounds``, the number of hooking rounds: the last
    is the first after whose pointer jumping that check holds.

    The edges are taken a chunk at a time, so past the labels the
    temporaries stay small; a chunk may read labels that earlier chunks
    lowered, which keeps every label a point of its orbit.
    """
    roots = np.arange(size, dtype=np.int32)
    chunks = [slice(start, start + _CHUNK) for start in range(0, size, _CHUNK)]
    rounds = 0
    while True:
        rounds += 1
        for perm in perms:
            for sl in chunks:
                here, low = roots[sl], roots[perm[sl]]
                high = np.maximum(here, low)
                np.minimum(here, low, out=low)
                hook = high != low
                if hook.any():
                    np.minimum.at(roots, high[hook], low[hook])
        jumped = True
        while jumped:
            jumped = False
            for sl in chunks:
                label = roots[sl]
                up = roots[label]
                if not np.array_equal(up, label):
                    jumped = True
                    label[...] = up
        if all(np.array_equal(roots[perm[sl]], roots[sl])
               for perm in perms for sl in chunks):
            return roots, rounds


# ---------------------------------------------------------------------------
# base group enumeration and classification

class BaseGroup:
    """A GL_n(q) or SL_n(q) with certified conjugacy data.  A group hooked
    whole keeps its element ``codes`` and their ``class_id``; a GL = SL x Z
    keeps only arrays per class and reads its elements off the built SL.
    Either maps the key j k + C of lam C (lam = theta^j, C a class of SL) to
    its class id by ``_class_of_key``; a hooked group is its own SL.

    ``stats`` holds the seconds spent enumerating (for GL read from SL,
    taking the built SL), classifying (``classify_s``: ``conjugate_s``, the
    bitmap and permutations, ``hook_s``, the orbit roots, ``number_s``, the
    class numbering) and certifying, ``hook_rounds`` (0 for GL read from
    SL), ``fiber_elements``, the elements hooked or read (|SL_n(q)| for GL
    read from SL, else the order), ``certified_classes``, the classes whose
    commutant was computed, and ``top_blocks``, the blocks expanded.
    """

    def __init__(self, family, n, q):
        if family not in ("GL", "SL"):
            raise ValueError("base groups are GL or SL, got %r" % (family,))
        self.family = family
        self.n = n
        self.q = q
        self.field = field_for_order(q)
        self.order = group_order(family, n, q)
        if q ** (n * n) > _ADDRESS_LIMIT:
            raise BudgetExceeded(
                "matrix space %d^%d is too large to address" % (q, n * n))
        self.ops = _Ops(self.field, n)
        self.stats = {}
        start = time.perf_counter()
        # GL = SL x Z when gcd(n, q - 1) = 1, so the GL-classes of its
        # det-1 elements are their SL-classes (GL_n(2) is SL_n(2) itself)
        if family == "GL" and q > 2 and math.gcd(n, q - 1) == 1:
            self._sl, classify = _built("SL", n, q), self._scale
            assert len(self._sl.codes) * (q - 1) == self.order
        else:
            self._sl, classify = None, self._classify
            self.codes = self._enumerate_codes()
            assert len(self.codes) == self.order, "enumerated %d elements, " \
                "expected %d" % (len(self.codes), self.order)
        self.stats["enumerate_s"] = time.perf_counter() - start
        start = time.perf_counter()
        classify()
        self.num_classes = len(self.rep_codes)
        self.stats["classify_s"] = time.perf_counter() - start
        start = time.perf_counter()
        # the class representatives as one coded array (k, n, n)
        self.rep_mats = np.ascontiguousarray(_decode(self.rep_codes, n, q))
        self._certify()
        self.stats["certify_s"] = time.perf_counter() - start

    # -- enumeration

    def _enumerate_codes(self):
        """The codes of the group's elements, ascending, as int32.

        A code is its top block (the first n - 1 rows, the low n(n - 1)
        digits) plus its last row x times q^(n(n - 1)).  A matrix's
        determinant is c . x for the cofactor vector c of its top block,
        so the cofactors are computed once per block, and for each last
        row in ascending order the blocks with c . x = 1 (SL) or != 0
        (GL) give the elements in ascending order.
        """
        q, n = self.q, self.n
        if n == 0:
            self.stats["top_blocks"] = 0
            return np.zeros(1, dtype=np.int32)  # the empty matrix
        span = q ** (n * (n - 1))
        tops = np.arange(span, dtype=np.int32)
        c = self.ops.cofactors(_decode(tops, n, q, rows=n - 1))
        self.stats["top_blocks"] = span
        want_one = self.family == "SL"
        chunks = []
        lasts = _decode(np.arange(q ** n), n, q, rows=1)[:, 0, :].tolist()
        for x, last in enumerate(lasts):
            dets = self.ops.dot(c, last)
            mask = dets == self.field.one if want_one else dets != self.field.zero
            chunks.append(tops[mask] + np.int32(x * span))
        return np.concatenate(chunks)

    # -- conjugacy

    def _conjugation_perms(self, gens):
        """For each matrix g of the group, the element indices permuted by
        conjugation with g."""
        n, q, ops, codes = self.n, self.q, self.ops, self.codes
        invs = ops.inverse(gens)
        maps = [_map_tables(ops, g, g_inv) for g, g_inv in zip(gens, invs)]
        perms = [np.empty(len(codes), dtype=np.int32) for _ in gens]
        for start in range(0, len(codes), _CHUNK):
            rows = _rows(codes[start:start + _CHUNK], n, q)
            for passes, perm in zip(maps, perms):
                perm[start:start + rows.shape[1]] = self._ranks.index(
                    _map_image(passes, rows, n, q), "conjugate")
        return perms

    def _classify(self):
        """Hook every element under conjugation by the generators; the
        classes are numbered by their least element, the representative."""
        start = time.perf_counter()
        self._ranks = _RankBitmap(self.codes, self.q ** (self.n * self.n))
        perms = self._conjugation_perms(
            _generator_mats(self.field, self.n, self.family))
        self.stats["conjugate_s"] = time.perf_counter() - start
        start = time.perf_counter()
        roots, self.stats["hook_rounds"] = _orbit_roots(perms, len(self.codes))
        self.stats["hook_s"] = time.perf_counter() - start
        del perms  # before the numbering arrays, to bound peak memory
        start = time.perf_counter()
        is_root = roots == np.arange(len(roots), dtype=np.int32)
        self.rep_codes = self.codes[is_root]
        number = np.cumsum(is_root, dtype=np.int32)
        number -= 1
        self.class_id = number[roots]
        del roots, is_root, number
        # the keys j k + C of GL = SL x Z, for a group that is its own SL
        self._class_of_key = np.arange(len(self.rep_codes))
        self.stats["fiber_elements"] = len(self.codes)
        # a chunk at a time, as bincount takes its input as int64
        self.class_sizes = sum(
            np.bincount(self.class_id[start:start + _CHUNK],
                        minlength=len(self.rep_codes))
            for start in range(0, len(self.codes), _CHUNK))
        self.stats["number_s"] = time.perf_counter() - start

    def _scale(self):
        """Number the classes lam C of GL = SL x Z (lam = theta^j, C one of
        the k classes of SL, key j k + C) by least code; the codes of every
        lam X come from the pass X -> X^T and one second pass per lam."""
        start = time.perf_counter()
        sl, n, q, field = self._sl, self.n, self.q, self.field
        k = sl.num_classes
        ident = np.eye(n, dtype=np.uint8)
        transpose = _transposing_tables(self.ops, ident)
        scale = [_transposing_tables(self.ops, field.mul_table[lam][ident])
                 for lam in field.exp]
        # least[j, C] is the least code of theta^j X over X in C
        least = np.full((q - 1, k), q ** (n * n), dtype=np.int32)
        for at in range(0, len(sl.codes), _CHUNK):
            rows = _rows(_table_image(
                transpose, _rows(sl.codes[at:at + _CHUNK], n, q)), n, q)
            cid = sl.class_id[at:at + _CHUNK]
            for lowest, second in zip(least, scale):
                np.minimum.at(lowest, cid, _table_image(second, rows))
        assert (least < q ** (n * n)).all(), "a class lam C has no element"
        keys = np.argsort(least, axis=None)
        self.rep_codes = least.ravel()[keys]
        self._class_of_key = np.argsort(keys)
        self.class_sizes = sl.class_sizes[keys % k]
        # det(lam X) = lam^n, and lam -> lam^n is a bijection of F_q^*: g
        # is in lam C for lam = theta^j, j = n' log det g (n n' = 1)
        assert len({field.pow(lam, n) for lam in field.units}) == q - 1
        self._root_log = log = np.array([0] + field.log[1:]) * pow(
            n, -1, q - 1) % (q - 1)
        self._root_inv = np.array(field.exp, dtype=np.uint8)[-log % (q - 1)]
        self.stats.update(conjugate_s=0.0, hook_rounds=0, hook_s=0.0,
                          top_blocks=0, fiber_elements=sl.order,
                          number_s=time.perf_counter() - start)

    # -- certification

    def _certify(self):
        """The class equation and, for every class C hooked or read from
        SL (the keys 0 .. k - 1, lam = 1), the orbit-stabilizer equation
        |C| |C_G(g)| = |G| with C_G(g) the units (GL) or determinant-1
        elements (SL) of the commutant of its representative g.  For GL
        read from SL a class lam C has the size and centralizer of C, and
        the sizes are copied from SL, so the class equation holds by
        construction; the reading is guarded by orbit-stabilizer on the
        classes C, with the |GL| = (q - 1) |SL| and bijection asserts."""
        assert int(self.class_sizes.sum()) == self.order, "class equation fails"
        sizes = self.class_sizes
        certified = np.sort(self._class_of_key[:(self._sl or self).num_classes])
        self.stats["certified_classes"] = len(certified)
        commutants = self._commutants(self.rep_mats[certified])
        for m, (ids, bases) in commutants.items():
            cids = certified[ids]
            if m == self.n * self.n:  # a scalar commutes with all
                assert (sizes[cids] == 1).all(), \
                    "scalar matrix in a class of size %d" % sizes[cids].max()
                continue
            cents = self._centralizer_orders(bases)
            bad = np.flatnonzero(sizes[cids] * cents != self.order)
            assert not len(bad), (
                "orbit-stabilizer fails for class %d: %d * %d != %d"
                % (cids[bad[0]], sizes[cids[bad[0]]], cents[bad[0]],
                   self.order))

    def _commutants(self, reps):
        """The commutant {X : A X = X A} of each matrix A of a coded batch
        (k, n, n), by dimension m: the positions in the batch whose
        commutant has dimension m, and a basis of each, (len, m, n^2) as
        coded row-major n^2-vectors, from one elimination of the batch."""
        field, n = self.field, self.n
        cells = n * n
        eye = np.eye(n, dtype=np.uint8)
        # (A X - X A)_ij = sum_k A_ik X_kj - sum_k X_ik A_kj: row (i, j) of
        # the system has A_ik at column (k, j) and -A_kj at column (i, k)
        left = field.mul_table[reps[:, :, None, :, None], eye[:, None, :]]
        right = field.mul_table[eye[:, None, :, None],
                                reps.transpose(0, 2, 1)[:, None, :, None, :]]
        system = field.add_table[left, field.neg_table[right]]
        reduced, pivots = _rref(field, system.reshape(len(reps), cells, cells))
        dims = cells - pivots.sum(axis=1)
        out = {}
        for m in np.unique(dims).tolist():
            ids = np.flatnonzero(dims == m)
            # free column k of a basis vector is 1, and pivot column i,
            # the pivot of reduced row i, is minus that row's entry at k
            free = np.nonzero(~pivots[ids])[1].reshape(len(ids), m)
            lead = np.nonzero(pivots[ids])[1].reshape(len(ids), cells - m)
            at = np.arange(len(ids))[:, None, None]
            basis = np.zeros((len(ids), m, cells), dtype=np.uint8)
            basis[at[:, 0], np.arange(m), free] = field.one
            basis[at, np.arange(m), lead[:, :, None]] = field.neg_table[
                np.take_along_axis(reduced[ids, :cells - m], free[:, None, :],
                                   axis=2)]
            out[m] = ids, basis
        return out

    def _centralizer_orders(self, bases):
        """The invertible (GL) or determinant-1 (SL) elements of the span of
        each basis of a coded batch (k, m, n^2), m < n^2, counted over the
        q^m combinations, at most _CHUNK matrices per determinant call."""
        field, n, q, ops = self.field, self.n, self.q, self.ops
        # a non-scalar rep's commutant has dimension m <= (n - 1)^2 + 1, so
        # under _ADDRESS_LIMIT the q^m combinations number at most 2^17,
        # at GL_5(2) (SL_4(3): 3^10)
        k, m, cells = bases.shape
        # coeffs[j] holds the j-th coefficient of every combination
        coeffs = np.indices((q,) * m, dtype=ops.dtype).reshape(m, 1, -1, 1)
        span = coeffs.shape[2]
        width, per = min(span, _CHUNK), max(1, _CHUNK // span)
        basis = bases.astype(ops.dtype).transpose(1, 0, 2)[:, :, None, :]
        found = np.zeros(k, dtype=np.int64)
        for start in range(0, k, per):
            for at in range(0, span, width):
                combos = ops.dot(coeffs[:, :, at:at + width],
                                 basis[:, start:start + per])
                dets = ops.det(combos.reshape(-1, n, n)).reshape(
                    combos.shape[:2])
                good = (dets == field.one if self.family == "SL"
                        else dets != field.zero)
                found[start:start + per] += np.count_nonzero(good, axis=1)
        return found

    # -- queries

    def classes_of(self, mats):
        """The class id of each matrix of a coded batch (m, n, n), or -1
        for a matrix outside the group."""
        out = np.full(len(mats), -1, dtype=np.int32)
        if self._sl is None:
            idx, member = self._ranks.lookup(_encode(mats, self.q))
            out[member] = self.class_id[idx[member]]
            return out
        dets = self.ops.det(mats)
        unit = dets != self.field.zero
        cls = self._sl.classes_of(self.field.mul_table[
            self._root_inv[dets[unit]][:, None, None], mats[unit]])
        assert (cls >= 0).all(), "lam^-1 g is not in SL"
        out[unit] = self._class_of_key[
            self._root_log[dets[unit]] * self._sl.num_classes + cls]
        return out

    def product_classes(self, y_codes):
        """Mask over class ids of P P, P = {h : h^2 in the central set Y}:
        the classes strongly real modulo Y (Wonenburger 1966; Gow 1981).
        If h g h^{-1} = y g^{-1} then g = h^{-1} (h g) with (h g)^2 =
        y h^2; conversely t (t s) t^{-1} = t^2 s^2 (t s)^{-1}.  P is a
        union of classes and conjugating (t, s) moves t onto its class
        representative, so the products t_j s, t_j a representative in
        P and s in P, meet every class of P P.  For GL = SL x Z, t = lam T
        and s = mu X give t s = lam mu T X, T X in SL (a hooked group is its
        own SL, with the one scalar 1)."""
        n, q = self.n, self.q
        ys = self.field.mul_table[np.asarray(y_codes)[:, None, None],
                                  np.eye(n, dtype=np.uint8)]
        squares = self.ops.matmul(self.rep_mats, self.rep_mats)
        sl = self._sl or self
        k = sl.num_classes
        # logs[C, j]: whether theta^j C lies in P
        logs = np.isin(_encode(squares, q), _encode(ys, q))[
            self._class_of_key].reshape(-1, k).T
        in_pool = logs.any(axis=1)
        pool = np.flatnonzero(in_pool[sl.class_id])
        # X counts only through its class's row of logs, one of few masks
        masks, mask_of = np.unique(logs, axis=0, return_inverse=True)
        hit = np.zeros_like(logs)
        for start in range(0, len(pool), _CHUNK):
            at = pool[start:start + _CHUNK]
            s = _decode(sl.codes[at], n, q)
            # each pair (mask of X, class of T X) is taken once
            x_mask = mask_of.ravel()[sl.class_id[at]] * k
            for c in np.flatnonzero(in_pool):
                seen = np.zeros(len(masks) * k, dtype=bool)
                cls = sl.classes_of(self.ops.matmul(sl.rep_mats[c], s))
                assert (cls >= 0).all(), "a product left the group"
                seen[x_mask + cls] = True
                pairs = np.flatnonzero(seen)
                for i in np.flatnonzero(logs[c]):
                    np.logical_or.at(hit, pairs % k,
                                     np.roll(masks[pairs // k], i, axis=1))
        return hit.T.ravel()[np.argsort(self._class_of_key)]


_built = functools.lru_cache(maxsize=None)(BaseGroup)


def _base_group(family, n, q, cap):
    """The cached base group, once its order is checked against the cap."""
    order = group_order(family, n, q)
    if order > cap:
        raise BudgetExceeded("group %s_%d(%d) has order %d, over the cap %d"
                             % (family, n, q, order, cap))
    return _built(family, n, q)


# ---------------------------------------------------------------------------
# groups as seen by callers (matrix groups and central quotients)

class GroupData:
    """Reality data for GL, SL, PGL, PSL, or SL/Y at one (n, q)."""

    def __init__(self, family, n, q, y_order=None, cap=None):
        counts.check_group(family, n, q, y_order)
        cap = resolve_cap(cap)
        self.family = family
        self.n = n
        self.q = q
        base_family = "GL" if family in ("GL", "PGL") else "SL"
        self.base = _base_group(base_family, n, q, cap)
        self.field = field = self.base.field
        # Y = {z : z^e = 1}; at n = 0 every scalar is the empty matrix
        e = {"PGL": q - 1, "PSL": n, "SLQ": y_order}.get(family, 1) if n else 1
        y = [z for z in field.units if field.pow(z, e) == field.one]
        assert family != "SLQ" or len(y) == y_order
        self.y_codes = sorted(y)
        self.y_order = len(self.y_codes)
        self.order = self.base.order // self.y_order
        self._build_orbits()

    def _build_orbits(self):
        """The Y-orbits of the base classes, numbered by least base class:
        ``orbits`` lists each orbit's base classes, ascending, and
        ``owner`` maps a base class to its orbit."""
        base = self.base
        # image[i, c] is the class of y_i g for the representative g of c
        image = np.stack([base.classes_of(self.field.mul_table[z][
            base.rep_mats]) for z in self.y_codes])
        assert image.min() >= 0, "a central scalar left the group"
        least, self.owner = np.unique(image.min(axis=0), return_inverse=True)
        assert (self.owner[image] == self.owner).all(), \
            "Y does not act on the classes"
        self.orbits = [tuple(sorted(set(image[:, root].tolist())))
                       for root in least.tolist()]
        sizes = []
        for orbit in self.orbits:
            tot = int(base.class_sizes[list(orbit)].sum())
            assert tot % self.y_order == 0
            sizes.append(tot // self.y_order)
        self.class_sizes = sizes
        self.num_classes = len(self.orbits)
        assert sum(sizes) == self.order, "quotient class equation fails"

    def rep_mat(self, cid):
        """The representative of class cid as a tuple of rows of ints."""
        return _mat_to_tuple(self.base.rep_mats[self.orbits[cid][0]])

    @functools.cached_property
    def _rep_inverses(self):
        """The inverses of the orbit representatives, read by every twist."""
        base = self.base
        return base.ops.inverse(base.rep_mats[[orbit[0]
                                               for orbit in self.orbits]])

    def twisted_real_mask(self, c):
        """Mask over class ids: whether the class of c g^{-1}, g the
        representative, lies in g's Y-orbit.  c = 1 asks reality, a
        non-square c zeta-reality."""
        base = self.base
        twisted = self.field.mul_table[c][self._rep_inverses]
        # c g^{-1} can fall outside SL (det c^n != 1); then g is not
        # zeta-real rather than an error
        cls = base.classes_of(twisted)
        return (cls >= 0) & (self.owner[cls] == np.arange(self.num_classes))

    def real_class_ids(self):
        return np.flatnonzero(self.twisted_real_mask(self.field.one)).tolist()

    def strongly_real_class_ids(self):
        # P P is Y-stable (y t is in P with t), so an orbit is in or out
        hit = self.base.product_classes(self.y_codes)
        ids = []
        for cid, orbit in enumerate(self.orbits):
            inside = hit[list(orbit)]
            assert inside.all() or not inside.any(), \
                "Y-orbit %d splits under strong reality" % cid
            if inside[0]:
                ids.append(cid)
        return ids

    def zeta_real_class_ids(self, zeta=None):
        counts.check_kind(self.family, self.q, "zeta_real", zeta)
        if zeta is None:
            zeta = canonical_nonsquare(self.field)
        return np.flatnonzero(self.twisted_real_mask(zeta)).tolist()

    def class_ids(self, kind, zeta=None):
        """Ids of the real, strongly real or zeta-real classes."""
        counts.check_kind(self.family, self.q, kind)
        if kind == "zeta_real":
            return self.zeta_real_class_ids(zeta)
        if kind == "strongly_real":
            return self.strongly_real_class_ids()
        return self.real_class_ids()


def enumerate_group(family, n, q, y_order=None, cap=None):
    return GroupData(family, n, q, y_order=y_order, cap=cap)


# ---------------------------------------------------------------------------
# matrices to labels

def invariant_factors(field, mat):
    """The monic invariant factors f_1 | f_2 | ... | f_r of degree > 0 of a
    square matrix: the diagonal of the Smith form of tI - mat over F_q[t].

    Each pivot is a nonzero entry of least degree; its column and row are
    cleared by division, and a remainder, or an entry the pivot does not
    divide (whose row is added to the pivot row), yields a pivot of lower
    degree.
    """
    n = len(mat)
    m = [[polys.normalize((field.neg(x), field.one) if i == j
                          else (field.neg(x),)) for j, x in enumerate(row)]
         for i, row in enumerate(mat)]
    out = []
    for k in range(n):
        while True:
            _, i, j = min((len(m[r][c]), r, c) for r in range(k, n)
                          for c in range(k, n) if m[r][c])
            m[k], m[i] = m[i], m[k]
            for row in m:
                row[k], row[j] = row[j], row[k]
            piv = m[k][k]
            for r in range(k + 1, n):
                quo, m[r][k] = polys.poly_divmod(field, m[r][k], piv)
                if quo:
                    minus = polys.poly_neg(field, quo)
                    m[r][k + 1:] = [polys.poly_add(
                        field, x, polys.poly_mul(field, minus, y))
                        for x, y in zip(m[r][k + 1:], m[k][k + 1:])]
            if any(m[r][k] for r in range(k + 1, n)):
                continue
            # column k is clear below the pivot, so clearing row k by
            # column operations changes no other row
            for c in range(k + 1, n):
                m[k][c] = polys.poly_divmod(field, m[k][c], piv)[1]
            if any(m[k][c] for c in range(k + 1, n)):
                continue
            bad = next((r for r in range(k + 1, n) for c in range(k + 1, n)
                        if polys.poly_divmod(field, m[r][c], piv)[1]), None)
            if bad is None:
                break
            m[k] = [polys.poly_add(field, x, y) for x, y in zip(m[k], m[bad])]
        if polys.degree(piv) > 0:
            out.append(polys.monicize(field, piv))
    return out


def matrix_to_label(field, mat):
    """The conjugacy-class label of an invertible matrix.

    Each elementary divisor p^e (p irreducible, read from the invariant
    factors) puts the reversed (constant-term-1) form of p into u_e, so the
    label's roots are the inverse eigenvalues and label_det agrees with the
    matrix determinant.
    """
    slots = {}
    for f in invariant_factors(field, mat):
        for p, e in polys.factorize(field, f).factors:
            if p[0] == field.zero:
                raise ValueError("matrix is singular")
            slots[e] = polys.poly_mul(field, slots.get(e, polys.ONE),
                                      tuple(reversed(p)))
    top = max(slots, default=0)
    label = labels.make_label(field, [slots.get(i, polys.ONE)
                                      for i in range(1, top + 1)])
    assert labels.label_n(label) == len(mat)
    assert labels.label_det(field, label) == _Ops(field, len(mat)).det(
        np.array(mat, dtype=np.uint8).reshape(len(mat), len(mat)))
    return label


# ---------------------------------------------------------------------------
# oracle vs engine

def verify_group(family, n, q, y_order=None, kinds=None, zeta=None, cap=None):
    """Count reality kinds two ways and report the comparison."""
    counts.check_group(family, n, q, y_order)
    if kinds is None:
        kinds = counts.applicable_kinds(family, q)
    for kind in kinds:
        counts.check_kind(family, q, kind, zeta)
    gd = enumerate_group(family, n, q, y_order=y_order, cap=cap)
    checks = []
    ok = True
    for kind in kinds:
        # both sides default zeta to the least non-square
        got = len(gd.class_ids(kind, zeta))
        engine = counts.count(family, n, q, kind, y_order=y_order,
                              zeta=zeta).total
        match = got == engine
        ok = ok and match
        checks.append({"kind": kind, "oracle": got, "engine": engine,
                       "match": match})
    group = {"family": family, "n": n, "q": q}
    if family == "SLQ":
        group["y"] = y_order
    return {"group": group, "order": gd.order, "classes": gd.num_classes,
            "checks": checks, "match": ok}
