"""The benchmark's workloads: fixed operation lists and how to run them.

An operation is a dict with an ``id`` that is unique within its workload
and the arguments of one call into realclasses.  The set of operations of
a workload never depends on the seed; the seed only shuffles their order
(see ``phases``), so figures compare across seeds.

This module imports nothing from realclasses: ``run_op`` receives the
package's modules from the caller, which may have wrapped them for tracing.
"""

import hashlib
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout

# BENCHMARK.json gates oracle_verify and label_routes only.  formula_grid
# runs on request: on a shared 2-vCPU host the quartiles of its wall_s over
# ten 30-second runs lay 30-36% of the median apart, past the 25% bound,
# because the host's speed drifts over minutes.  Its layers, counts and
# fields, also run in label_routes.
WORKLOADS = ("oracle_verify", "label_routes", "formula_grid")

# The cli.DESK_MATRIX groups whose base group (GL for GL and PGL, SL for the
# rest) has order <= 10**6.  SLQ_4(3)/Y1 and /Y2, whose base SL_4(3) has
# 12,130,560 elements, are left out for run length.  The list is frozen
# here so that the workload stays the same if the desk matrix changes.
DESK_GROUPS = (
    ("GL", 2, 2, None), ("GL", 2, 3, None), ("GL", 2, 4, None),
    ("GL", 2, 5, None), ("GL", 2, 7, None),
    ("SL", 2, 3, None), ("SL", 2, 5, None), ("SL", 2, 7, None),
    ("SL", 2, 9, None),
    ("PGL", 2, 3, None), ("PGL", 2, 5, None), ("PGL", 2, 7, None),
    ("PSL", 2, 3, None), ("PSL", 2, 5, None), ("PSL", 2, 7, None),
    ("PSL", 2, 9, None),
    ("GL", 3, 2, None), ("GL", 3, 3, None),
    ("SL", 3, 3, None), ("PSL", 3, 3, None),
    ("GL", 4, 2, None),
    ("SL", 3, 4, None), ("PSL", 3, 4, None),
)
# Larger groups, 10**5 to 1.5 * 10**6 elements, where an oracle rebuild
# has to show.
LARGE_GROUPS = (
    ("GL", 3, 4, None), ("SL", 3, 5, None), ("PSL", 3, 5, None),
    ("GL", 3, 5, None), ("PGL", 3, 5, None),
)
# |GL_3(5)|, the largest base group above; the default cap is 10**6.
ORACLE_CAP = 1_488_000

LABEL_QS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17)
LABEL_LARGE_N_QS = (2, 3, 4, 5)
ENUMERATE_DUMPS = ((6, 7, "real"), (6, 7, "zeta_real"), (10, 3, "real"),
                   (6, 11, "real"), (6, 3, None))
FORMULA_MAX_N = 14
FORMULA_MAX_Q = 128
GENFUN_TERMS = 14


def prime_powers(limit):
    """Prime powers 2 <= q <= limit, ascending."""
    out = []
    for q in range(2, limit + 1):
        p = next(d for d in range(2, q + 1) if q % d == 0)
        m = q
        while m % p == 0:
            m //= p
        if m == 1:
            out.append(q)
    return out


def _two_adic(m):
    return m & -m


def has_formula(family, n, q, kind, y):
    """Whether counts.count has a closed-form route for this cell.

    The enumeration-only cells are zeta-real SL, strongly real SL at odd q
    with n = 2 (mod 4), and strongly real PSL at n = 2 (mod 4), q = 3
    (mod 4); SL_n(q)/Y inherits the SL or PSL answer where it reduces to it.
    """
    exceptional_sl = q % 2 == 1 and n % 4 == 2
    exceptional_psl = n % 4 == 2 and q % 4 == 3
    if kind == "zeta_real":
        return family == "GL"
    if kind == "real" or family in ("GL", "PGL"):
        return True
    if family == "SL":
        return not exceptional_sl
    if family == "PSL":
        return not exceptional_psl
    # SLQ, strongly real
    if q % 2 == 0 or y % 2 == 1:
        return not exceptional_sl
    if _two_adic(y) == _two_adic(math.gcd(n, q - 1)):
        return not exceptional_psl
    return True


def count_cells(n, q):
    """Every (family, kind, y) that counts.count accepts at this (n, q)."""
    cells = []
    for family in ("GL", "SL", "PGL", "PSL"):
        kinds = ["real", "strongly_real"]
        if family in ("GL", "SL") and q % 2 == 1:
            kinds.append("zeta_real")
        cells += [(family, kind, None) for kind in kinds]
    g = math.gcd(n, q - 1)
    for y in range(1, g + 1):
        if g % y == 0:
            cells += [("SLQ", kind, y) for kind in ("real", "strongly_real")]
    return cells


def group_name(family, n, q, y=None):
    name = "%s_%d(%d)" % (family, n, q)
    return name + "/Y%d" % y if y is not None else name


def _count_op(family, n, q, kind, y, method):
    return {"id": "count %s %s %s" % (group_name(family, n, q, y), kind,
                                      method),
            "op": "count", "family": family, "n": n, "q": q, "kind": kind,
            "y": y, "method": method}


def phases(workload):
    """The workload as a list of phases of operations, in run order.

    Operations that fill a module cache shared by others run in an earlier
    phase, so the cost of filling it lands on the same operation whatever
    the seed, and operation latencies compare across seeds as totals do.
    """
    if workload == "oracle_verify":
        # Each BaseGroup (GL, SL) is built inside its own verify_group call;
        # the quotients and the labelling reuse it.
        groups = DESK_GROUPS + LARGE_GROUPS
        base = [g for g in groups if g[0] in ("GL", "SL")]
        verify = [[{"id": "verify_group " + group_name(*g), "op": "verify",
                    "group": g} for g in part]
                  for part in (base, [g for g in groups if g not in base])]
        to_label = [{"id": "matrix_to_label " + group_name(*g),
                     "op": "matrix_to_label", "group": g} for g in base]
        return verify + [to_label]
    if workload == "label_routes":
        # Real PGL counts first: they fill the eta-orbit cache, keyed on
        # (q, n), that the PSL and SL/Y counts read.  The command-line
        # operations come after every count.
        grid = [(n, q) for n in range(1, 7) for q in LABEL_QS]
        grid += [(n, q) for n in range(7, 11) for q in LABEL_LARGE_N_QS]
        fill, rest = [], []
        for n, q in grid:
            for family, kind, y in count_cells(n, q):
                method = ("both" if has_formula(family, n, q, kind, y)
                          else "enumeration")
                op = _count_op(family, n, q, kind, y, method)
                if (family, kind) == ("PGL", "real"):
                    fill.append(op)
                else:
                    rest.append(op)
        commands = [["table13", "--q", str(q), "--format", "json"]
                    for q in LABEL_QS]
        for n, q, filt in ENUMERATE_DUMPS:
            argv = ["enumerate", "--n", str(n), "--q", str(q)]
            commands.append(argv + (["--filter", filt] if filt else [])
                            + ["--format", "json"])
        cli = [{"id": " ".join(argv[:-2]), "op": "cli", "argv": argv}
               for argv in commands]
        return [fill, rest, cli]
    if workload == "formula_grid":
        ops = []
        for q in prime_powers(FORMULA_MAX_Q):
            for n in range(1, FORMULA_MAX_N + 1):
                ops += [_count_op(family, n, q, kind, y, "formula")
                        for family, kind, y in count_cells(n, q)
                        if has_formula(family, n, q, kind, y)]
            ops.append({"id": "genfun_real_gl q=%d terms=%d"
                              % (q, GENFUN_TERMS),
                        "op": "genfun", "q": q})
        return [ops]
    raise ValueError("unknown workload %r" % (workload,))


def operations(workload, seed):
    """The workload's operations in run order: each phase shuffled by seed."""
    rng = random.Random("%s/%d" % (workload, seed))
    out = []
    for phase in phases(workload):
        phase = list(phase)
        rng.shuffle(phase)
        out += phase
    return out


# ---------------------------------------------------------------------------
# running one operation

class OpFailed(Exception):
    """A command-line operation ended with an exit code that means failure."""


def label_str(label):
    return ";".join(",".join(str(c) for c in u) for u in label)


def _cli(rc, argv, ok_codes):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = rc.cli.main(argv)
    if code not in ok_codes:
        raise OpFailed("exit %d: %s" % (code, err.getvalue().strip()))
    return code, out.getvalue()


def run_op(rc, op):
    """Run one operation; return its output in the form the golden file keeps.

    ``rc`` is a namespace holding the realclasses modules cli, counts and
    oracle.  Exceptions propagate: the caller counts them as failures.
    """
    kind = op["op"]
    if kind == "count":
        return rc.counts.count(op["family"], op["n"], op["q"], op["kind"],
                               y_order=op["y"], method=op["method"]).total
    if kind == "genfun":
        return rc.counts.genfun_real_gl(op["q"], GENFUN_TERMS)
    if kind == "cli" and op["argv"][0] == "table13":
        # exit 1 is the documented reference-table mismatch
        code, text = _cli(rc, op["argv"], (0, 1))
        rows = [[r["family"], r["n"], r["kind"], r["engine"], r["match"]]
                for r in json.loads(text)["rows"]]
        return {"exit": code, "rows": rows}
    if kind == "cli":
        code, text = _cli(rc, op["argv"], (0,))
        return {"exit": code, "lines": text.count("\n"),
                "sha256": hashlib.sha256(text.encode()).hexdigest()}
    family, n, q, y = op["group"]
    if kind == "verify":
        rep = rc.oracle.verify_group(family, n, q, y_order=y, cap=ORACLE_CAP)
        return {"order": rep["order"], "classes": rep["classes"],
                "checks": [[c["kind"], c["oracle"], c["engine"], c["match"]]
                           for c in rep["checks"]],
                "match": rep["match"]}
    if kind == "matrix_to_label":
        gd = rc.oracle.enumerate_group(family, n, q, y_order=y,
                                       cap=ORACLE_CAP)
        return sorted(label_str(rc.oracle.matrix_to_label(gd.field,
                                                          gd.rep_mat(c)))
                      for c in range(gd.num_classes))
    raise ValueError("unknown operation %r" % (kind,))
