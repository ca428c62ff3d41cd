"""
Counting through labels
=======================

Real classes of GL_n(q) are indexed by tuples of self-reciprocal
polynomials with constant term 1, one polynomial u_i per Jordan-block
size i, with sum of i * deg(u_i) equal to n.  Everything countable about
reality flows through these labels; this walk-through unpacks the count
for GL_4(3) one partition at a time.
"""

from realclasses import counts, labels
from realclasses.fields import field_for_order
from realclasses.polys import count_nqd, poly_str

q, n = 3, 4
field = field_for_order(q)

# Per-partition contributions: a label of type nu = (n_1, n_2, ...)
# chooses one self-reciprocal polynomial of degree n_i independently in
# each slot, so the partition contributes a product of the n_{q,d}.
print("real classes of GL_%d(%d), partition by partition" % (n, q))
total = 0
for nu in labels.partitions_of(n):
    c = counts.gl_nu(nu, q)
    pieces = " * ".join("n_{%d,%d}=%d" % (q, d, count_nqd(q, d))
                        for d in nu if d)
    print("  nu=%-12s -> %3d   (%s)" % (nu, c, pieces or "empty product"))
    total += c

report = counts.count("GL", n, q, "real")
print("total: %d (report says %d, regime %r)" % (total, report.total,
                                                 report.regime))
assert total == report.total

# The same labels can be listed explicitly.  Each line below is one real
# class: the slot polynomials u_1, u_2, ... and the determinant of any
# matrix in the class, read off the label alone.
print()
print("the %d labels, spelled out" % report.total)
for lab in labels.enumerate_labels(field, n, twist=1):
    shown = ", ".join(poly_str(field, u) for u in lab)
    det = labels.label_det(field, lab)
    print("  [%s]   det %d" % (shown, det))

# The generating function packages every n at once: its t^n coefficient
# is the count just assembled.
coeffs = counts.genfun_real_gl(q, terms=6)
print()
print("generating function coefficients t^0..t^6:", coeffs)
assert coeffs[n] == report.total
