"""Real, strongly real, and zeta-real conjugacy classes of the finite
linear groups GL_n(q), SL_n(q), PGL_n(q), PSL_n(q), and SL_n(q)/Y.

Closed-form counts live in :mod:`realclasses.counts`; the label calculus
(class invariants as sequences of constant-term-1 polynomials) in
:mod:`realclasses.labels`; brute-force matrix-group verification in
:mod:`realclasses.oracle`; the command line in :mod:`realclasses.cli`.
"""

from .counts import (
    CountReport,
    count,
    genfun_real_gl,
    section13_table,
)
from .errors import BudgetExceeded, UsageError
from .fields import canonical_nonsquare, constrained_nonsquare, make_field
from .oracle import enumerate_group, matrix_to_label, verify_group

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "CountReport",
    "UsageError",
    "canonical_nonsquare",
    "constrained_nonsquare",
    "count",
    "enumerate_group",
    "genfun_real_gl",
    "make_field",
    "matrix_to_label",
    "section13_table",
    "verify_group",
    "__version__",
]
