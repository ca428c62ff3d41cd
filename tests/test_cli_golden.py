"""Golden command-line output: the sha256 of stdout and the exit code of
``count --format json`` for every accepted (family, kind, y) at n <= 6 over
a fixed set of q, of ``table13 --format json`` and ``genfun --format json``
at four q, of three ``enumerate --format json`` label dumps, which run
the per-label criteria (``psl_strongly_real`` through ``factorize`` and
``poly_divmod``), and of ``verify --format json`` on every desk group under
the default cap, the empty group GL_0(3), PGL_1(5) and one group over the
cap (PSL_3(7), exit 3), and of ``--format text`` and ``--format csv`` for
one command of each subcommand (``TEXT_CSV_ARGVS``).  ``genfun`` checks each coefficient against
``count``, so its digests pin that call from the command line; the
``verify`` digests pin the oracle's class and reality counts.

The digests in ``cli_golden.json`` were recorded from the engine before the
counting API was folded into one (family, kind) registry (the ``genfun``
ones before the named count wrappers were retired); the test holding
means that refactors of the engine leave the command line byte-identical.

To record the file afresh (only when an output change is intended):

    PYTHONPATH=src python tests/test_cli_golden.py --record
"""

import hashlib
import io
import json
import math
import os
import sys
from contextlib import redirect_stdout

from realclasses import cli, counts, oracle

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "cli_golden.json")
COUNT_QS = (2, 3, 4, 5, 7, 9)
TABLE_QS = (2, 3, 5, 9)
ENUMERATE_ARGS = (("6", "11", "real"), ("6", "7", "zeta_real"),
                  ("10", "3", "real"))


def _count_argvs():
    for n in range(1, 7):
        for q in COUNT_QS:
            cells = []
            for family in ("GL", "SL", "PGL", "PSL"):
                kinds = ["real", "strongly_real"]
                if family in ("GL", "SL") and q % 2 == 1:
                    kinds.append("zeta_real")
                cells += [(family, kind, None) for kind in kinds]
            g = math.gcd(n, q - 1)
            cells += [("SLQ", kind, y) for y in range(1, g + 1) if g % y == 0
                      for kind in ("real", "strongly_real")]
            for family, kind, y in cells:
                argv = ["count", "--family", family, "--n", str(n),
                        "--q", str(q), "--kind", kind]
                if y is not None:
                    argv += ["--y", str(y)]
                yield argv + ["--format", "json"]


# the enumerate dump lists real labels only, and table13 at q = 2 has no
# disputed-cell notes, so neither pins a value a known defect would change
TEXT_CSV_ARGVS = (
    ["count", "--family", "SLQ", "--n", "4", "--q", "5", "--y", "2",
     "--kind", "strongly_real"],
    ["verify", "--family", "PSL", "--n", "2", "--q", "7"],
    ["table13", "--q", "2"],
    ["genfun", "--q", "3"],
    ["enumerate", "--n", "3", "--q", "5", "--filter", "real"],
)
VERIFY_EXTRA = (("GL", 0, 3, None), ("PGL", 1, 5, None), ("PSL", 3, 7, None))


def _verify_argvs():
    desk = [group for group in cli.DESK_MATRIX
            if oracle.group_order(*group) <= counts.DEFAULT_CAP]
    for family, n, q, y in desk + list(VERIFY_EXTRA):
        argv = ["verify", "--family", family, "--n", str(n), "--q", str(q)]
        if y is not None:
            argv += ["--y", str(y)]
        yield argv + ["--format", "json"]


def argvs():
    yield from _count_argvs()
    for q in TABLE_QS:
        yield ["table13", "--q", str(q), "--format", "json"]
        yield ["genfun", "--q", str(q), "--format", "json"]
    for n, q, filt in ENUMERATE_ARGS:
        yield ["enumerate", "--n", n, "--q", q, "--filter", filt,
               "--format", "json"]
    yield from _verify_argvs()
    for argv in TEXT_CSV_ARGVS:
        for fmt in ("text", "csv"):
            yield argv + ["--format", fmt]


def run(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return [code, hashlib.sha256(out.getvalue().encode()).hexdigest()]


def test_cli_output_matches_golden_digests():
    with open(GOLDEN) as f:
        golden = json.load(f)
    got = {" ".join(argv): run(argv) for argv in argvs()}
    assert sorted(got) == sorted(golden)
    changed = [key for key in sorted(got) if got[key] != golden[key]]
    assert not changed, changed


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    digests = {" ".join(argv): run(argv) for argv in argvs()}
    lines = ["%s: %s" % (json.dumps(k), json.dumps(digests[k]))
             for k in sorted(digests)]
    with open(GOLDEN, "w") as f:
        f.write("{\n" + ",\n".join(lines) + "\n}\n")
    print("recorded %d outputs in %s" % (len(digests), GOLDEN))
