"""
Formulas against brute force
============================

Nothing beats enumerating an actual group.  Here we build SL_2(5) as
120 honest matrices, split it into conjugacy classes, decide reality by
looking up the class of each inverse, decide strong reality by
multiplying the elements that square to 1 (a class is strongly real
exactly when it is a product of two of them), and compare with the
counting formulas.  Then ask the matrices directly which class carries
which label.
"""

from realclasses import counts, oracle
from realclasses.fields import field_for_order
from realclasses.polys import poly_str

family, n, q = "SL", 2, 5
field = field_for_order(q)

gd = oracle.enumerate_group(family, n, q)
print("%s_%d(%d): %d elements in %d conjugacy classes"
      % (family, n, q, gd.order, gd.num_classes))

# For every class: its size, its label (read from the invariant factors
# of tI - g for a representative g), and the brute-force reality
# verdicts.  The reality mask asks, for every representative g at once,
# whether the class of g^{-1} (a twist c = 1 of c g^{-1}) is g's own.
real = gd.twisted_real_mask(field.one)
strong = set(gd.strongly_real_class_ids())
print()
print("  size  real  strongly  label")
for cid in range(gd.num_classes):
    rep = gd.rep_mat(cid)
    lab = oracle.matrix_to_label(field, rep)
    shown = "; ".join(poly_str(field, u) for u in lab)
    print("  %4d  %4s  %8s  [%s]"
          % (gd.class_sizes[cid], "yes" if real[cid] else "no",
             "yes" if cid in strong else "no", shown))

# Tally and compare against the closed-form counts.
found_real = len(gd.real_class_ids())
found_strong = len(strong)
want_real = counts.count("SL", n, q, "real").total
want_strong = counts.count("SL", n, q, "strongly_real").total
print()
print("real: %d by brute force, %d by formula" % (found_real, want_real))
print("strongly real: %d by brute force, %d by formula"
      % (found_strong, want_strong))
assert (found_real, found_strong) == (want_real, want_strong)

# One call does all of the above for any group under the size cap,
# covering quotients too; here the projective group on top.
rep = oracle.verify_group("PSL", n, q)
print()
print("verify_group(PSL_%d(%d)):" % (n, q))
for check in rep["checks"]:
    print("  %-14s oracle %3d  engine %3d  %s"
          % (check["kind"], check["oracle"], check["engine"],
             "match" if check["match"] else "MISMATCH"))
assert rep["match"]
