"""
Real versus strongly real: a survey at n = 2
============================================

A class is real when every element is conjugate to its inverse, and
strongly real when the conjugating element can be chosen to be an
involution.  For the general and projective general linear groups the
two notions coincide; inside SL_2 over a field of odd order they split
apart, and passing to the central quotient PSL_2 heals the split.
"""

from realclasses import counts

# Over GL_2(q) and PGL_2(q) every real class is strongly real: the two
# columns below agree for every q we try.
print("family   q   real   strongly")
for q in (2, 3, 4, 5, 7, 9):
    r = counts.count("GL", 2, q, "real").total
    s = counts.count("GL", 2, q, "strongly_real").total
    print("GL_2   %3d  %5d  %9d" % (q, r, s))
for q in (3, 5, 7, 9):
    r = counts.count("PGL", 2, q, "real").total
    s = counts.count("PGL", 2, q, "strongly_real").total
    print("PGL_2  %3d  %5d  %9d" % (q, r, s))

# SL_2(q) with q odd is the classical counterexample: the only
# involutions available are the central +-I, so conjugation by them
# moves nothing and the strongly real classes are exactly {I} and {-I}.
# Against that stand q or q+4 real classes depending on q mod 4.
print()
print("SL_2(q), q odd: the gap opens")
for q in (3, 5, 7, 9):
    r = counts.count("SL", 2, q, "real").total
    s = counts.count("SL", 2, q, "strongly_real").total
    print("  q=%d: %d real, %d strongly real (gap %d)" % (q, r, s, r - s))

# For even q there is no center to hide behind and no gap either.
for q in (2, 4, 8):
    r = counts.count("SL", 2, q, "real").total
    s = counts.count("SL", 2, q, "strongly_real").total
    assert r == s
    print("  q=%d (even): %d real = %d strongly real" % (q, r, s))

# Quotienting SL_2(q) by its center glues inverse-related classes back
# together, and in PSL_2(q) reality and strong reality coincide again.
print()
print("PSL_2(q): the gap closes")
for q in (3, 5, 7, 9):
    r = counts.count("PSL", 2, q, "real").total
    s = counts.count("PSL", 2, q, "strongly_real").total
    assert r == s
    print("  q=%d: %d real = %d strongly real" % (q, r, s))
