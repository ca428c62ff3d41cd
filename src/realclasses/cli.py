"""Command-line front end.

Subcommands: ``count`` (closed-form class counts), ``verify`` (oracle vs
formula), ``table13`` (the stored small-rank reference table against the
engine), ``genfun`` (generating-function coefficients for real classes of
GL_n), and ``enumerate`` (label dumps with reality flags).

Exit codes: 0 success / all match, 1 mismatch, 2 usage error, 3 budget or
cap exceeded, 4 internal error (a fault in the engine, reported with its
traceback).  Output is deterministic: identical flags give byte-identical
output.
"""

import argparse
import csv
import json
import math
import sys
import traceback

from . import counts, labels, oracle, polys
from .errors import BudgetExceeded, UsageError
from .fields import canonical_nonsquare, field_for_order

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

# the standard desk-scale verification matrix: every group small enough to
# enumerate and classify outright, covering all five families
DESK_MATRIX = (
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
    ("SLQ", 4, 3, 1), ("SLQ", 4, 3, 2),
)
_DESK_CAP = 12_130_560  # order of the largest desk group, SL_4(3)


def _emit(fmt, payload, rows, text_lines):
    out = sys.stdout
    if fmt == "json":
        json.dump(payload, out, sort_keys=True)
        out.write("\n")
    elif fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        for row in rows:
            writer.writerow(row)
    else:
        for line in text_lines:
            out.write(line + "\n")


def _group_str(family, n, q, y_order=None):
    s = "%s_%d(%d)" % (family, n, q)
    if family == "SLQ":
        s += "/Y%d" % y_order
    return s


def _budget(args):
    return labels.DEFAULT_BUDGET if args.cap is None else args.cap


# ---------------------------------------------------------------------------

def cmd_count(args):
    report = counts.count(args.family, args.n, args.q, args.kind,
                          y_order=args.y, budget=_budget(args))
    payload = report.to_json()
    yval = args.y if args.family == "SLQ" else ""
    rows = [("family", "n", "q", "y", "kind", "regime", "method", "total",
             "nu", "count")]
    for item in payload["per_nu"]:
        rows.append((args.family, args.n, args.q, yval, args.kind,
                     payload["regime"], payload["method"], payload["total"],
                     " ".join(str(p) for p in item["nu"]), item["count"]))
    text = ["%s %s classes: %d  [regime %s, method %s]"
            % (_group_str(args.family, args.n, args.q, args.y), args.kind,
               payload["total"], payload["regime"], payload["method"])]
    for item in payload["per_nu"]:
        if item["count"]:
            text.append("  nu=(%s): %d"
                        % (",".join(str(p) for p in item["nu"]),
                           item["count"]))
    _emit(args.format, payload, rows, text)
    return EXIT_OK


def cmd_verify(args):
    if args.all_desk:
        # the desk cap replaces only the default; --cap and REALCLASS_CAP hold
        cap = oracle.resolve_cap(args.cap, default=_DESK_CAP)
        runs = [oracle.verify_group(f, n, q, y_order=y, cap=cap)
                for f, n, q, y in DESK_MATRIX]
    else:
        runs = [oracle.verify_group(args.family, args.n, args.q,
                                    y_order=args.y,
                                    kinds=[args.kind] if args.kind else None,
                                    cap=args.cap)]
    ok = all(r["match"] for r in runs)
    payload = {"runs": runs, "match": ok}
    rows = [("family", "n", "q", "y", "order", "classes", "kind", "oracle",
             "engine", "match")]
    text = []
    for r in runs:
        g = r["group"]
        name = _group_str(g["family"], g["n"], g["q"], g.get("y"))
        text.append("%s: order %d, %d classes"
                    % (name, r["order"], r["classes"]))
        for c in r["checks"]:
            rows.append((g["family"], g["n"], g["q"], g.get("y", ""),
                         r["order"], r["classes"], c["kind"], c["oracle"],
                         c["engine"], c["match"]))
            text.append("  %-14s oracle=%d engine=%d %s"
                        % (c["kind"], c["oracle"], c["engine"],
                           "match" if c["match"] else "MISMATCH"))
    text.append("all match" if ok else "MISMATCH")
    _emit(args.format, payload, rows, text)
    return EXIT_OK if ok else EXIT_MISMATCH


def cmd_table13(args):
    table = counts.section13_table(args.q, budget=_budget(args))
    ok = all(row["match"] for row in table)
    payload = {"q": args.q, "rows": table, "match": ok}
    rows = [("family", "n", "q", "kind", "reference", "engine", "match",
             "note")]
    for row in table:
        rows.append((row["family"], row["n"], row["q"], row["kind"],
                     row["reference"], row["engine"], row["match"],
                     row.get("note", "")))
    deltas = ", ".join("delta_%d=%d" % (k, math.gcd(args.q - 1, k))
                       for k in (2, 3, 4, 6))
    text = ["reference table at q=%d  (%s)" % (args.q, deltas)]
    for row in table:
        line = ("%-4s n=%d %-14s reference=%-6d engine=%-6d %s"
                % (row["family"], row["n"], row["kind"], row["reference"],
                   row["engine"], "match" if row["match"] else "MISMATCH"))
        if "note" in row:
            line += "  [%s]" % row["note"]
        text.append(line)
    text.append("all match" if ok else "MISMATCH")
    _emit(args.format, payload, rows, text)
    return EXIT_OK if ok else EXIT_MISMATCH


def cmd_genfun(args):
    coeffs = counts.genfun_real_gl(args.q, terms=args.terms)
    checks = []
    ok = True
    for n, c in enumerate(coeffs):
        direct = counts.count("GL", n, args.q, "real").total
        match = c == direct
        ok = ok and match
        checks.append({"n": n, "coefficient": c, "real_gl": direct,
                       "match": match})
    payload = {"q": args.q, "terms": args.terms, "coefficients": coeffs,
               "checks": checks, "match": ok}
    rows = [("q", "n", "coefficient", "real_gl", "match")]
    for ch in checks:
        rows.append((args.q, ch["n"], ch["coefficient"], ch["real_gl"],
                     ch["match"]))
    text = ["real-class generating function at q=%d: %s"
            % (args.q, coeffs)]
    for ch in checks:
        text.append("  t^%d: %d vs real_gl %d %s"
                    % (ch["n"], ch["coefficient"], ch["real_gl"],
                       "match" if ch["match"] else "MISMATCH"))
    text.append("all match" if ok else "MISMATCH")
    _emit(args.format, payload, rows, text)
    return EXIT_OK if ok else EXIT_MISMATCH


def cmd_enumerate(args):
    field = field_for_order(args.q)
    zeta = canonical_nonsquare(field) if args.q % 2 else None
    twist = {None: None, "real": field.one, "zeta_real": zeta}[args.filter]
    labs = labels.enumerate_labels(field, args.n, twist=twist,
                                   budget=_budget(args))
    header = ("n", "q", "label", "nu", "det", "real", "zeta_real",
              "sl_real", "sl_strongly_real", "psl_strongly_real")
    rows = [header]
    text = []
    count = 0
    out = sys.stdout
    psl_zeta = labels.psl_nonsquare(field, args.n)
    for lab in labs:
        count += 1
        det = labels.label_det(field, lab)
        rec = {"n": args.n, "q": args.q,
               "label": labels.label_to_json(lab),
               "det": det,
               "real": labels.is_twisted_real_label(field, lab, field.one)}
        if zeta is not None:
            rec["zeta_real"] = labels.is_twisted_real_label(field, lab, zeta)
        if det == field.one:
            rec["sl_real"] = labels.sl_real(lab, args.n, args.q)
            rec["sl_strongly_real"] = labels.sl_strongly_real(field, lab)
            if psl_zeta is not None:
                strong = labels.psl_strongly_real(field, lab, psl_zeta)
                if strong is not None:
                    rec["psl_strongly_real"] = strong
        if args.format == "json":
            # dumps runs the C encoder; dump to a stream does not
            out.write(json.dumps(rec, sort_keys=True) + "\n")
            continue
        label_str = " | ".join(polys.poly_str(field, u) for u in lab)
        nu_str = " ".join(str(p) for p in rec["label"]["nu"])
        if args.format == "csv":
            rows.append((args.n, args.q, label_str, nu_str, det,
                         rec["real"], rec.get("zeta_real", ""),
                         rec.get("sl_real", ""),
                         rec.get("sl_strongly_real", ""),
                         rec.get("psl_strongly_real", "")))
        else:
            flags = ["det=%d" % det,
                     "real" if rec["real"] else "non-real"]
            if rec.get("zeta_real"):
                flags.append("zeta-real")
            if rec.get("sl_real"):
                flags.append("sl-real")
            if rec.get("sl_strongly_real"):
                flags.append("sl-strongly-real")
            if rec.get("psl_strongly_real"):
                flags.append("psl-strongly-real")
            text.append("[%s]  %s" % (label_str, ", ".join(flags)))
    if args.format == "csv":
        _emit("csv", None, rows, None)
    elif args.format == "text":
        text.append("total %d" % count)
        _emit("text", None, None, text)
    return EXIT_OK


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An unknown subcommand or flag is a usage error like any other: exit
    2 with an ``error:`` line, not argparse's exit with its usage text."""

    def error(self, message):
        raise UsageError(message)


def _build_parser():
    parser = _Parser(
        prog="realclasses",
        description="Real, strongly real, and zeta-real conjugacy classes "
                    "of the finite linear groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    declare = {
        "family": dict(choices=sorted(counts.FAMILIES)),
        "n": dict(type=int),
        "q": dict(type=int),
        "y": dict(type=int,
                  help="order of the central subgroup Y (family SLQ)"),
        "kind": dict(choices=sorted(counts.KINDS)),
        "cap": dict(type=int, help="group-size cap / label budget override"),
    }

    def subcommand(name, func, help, flags):
        """A subparser with the flags it reads, and --format."""
        p = sub.add_parser(name, help=help)
        for flag in flags:
            p.add_argument("--" + flag, **declare[flag])
        p.add_argument("--format", choices=("json", "csv", "text"),
                       default="text")
        p.set_defaults(func=func)
        return p

    group = ("family", "n", "q", "y", "kind", "cap")
    subcommand("count", cmd_count, "closed-form class counts",
               group).set_defaults(kind="real")

    p = subcommand("verify", cmd_verify, "brute-force oracle vs formulas",
                   group)
    p.add_argument("--all-desk", action="store_true",
                   help="run the full desk-scale verification matrix")

    subcommand("table13", cmd_table13, "small-rank reference table vs engine",
               ("q", "cap"))

    p = subcommand("genfun", cmd_genfun,
                   "generating function for real classes of GL_n", ("q",))
    p.add_argument("--terms", type=int, default=8,
                   help="highest power of t to expand (default 8, at most %d)"
                        % counts.MAX_N)

    p = subcommand("enumerate", cmd_enumerate, "dump labels with reality flags",
                   ("n", "q", "cap"))
    p.add_argument("--filter", choices=("real", "zeta_real"),
                   help="restrict to real / zeta-real labels; zeta_real "
                        "reads the label twist zeta, so on matrices "
                        "g ~ zeta^-1 g^-1, where count and verify read "
                        "g ~ zeta g^-1")
    return parser


def _validate(args):
    if args.command == "count" or (args.command == "verify"
                                   and not args.all_desk):
        for name in ("family", "n", "q"):
            if getattr(args, name) is None:
                raise UsageError("%s needs --family, --n, --q%s"
                                 % (args.command, " (or --all-desk)"
                                    if args.command == "verify" else ""))
        if args.family == "SLQ" and args.y is None:
            raise UsageError("--family SLQ needs --y")
    if args.command in ("table13", "genfun", "enumerate"):
        if args.q is None:
            raise UsageError("%s needs --q" % args.command)
    # genfun checks each term n by a full count, so its bound is that of n
    if args.command == "genfun" and args.terms > counts.MAX_N:
        raise UsageError("--terms %d exceeds the maximum of %d"
                         % (args.terms, counts.MAX_N))
    if args.command == "enumerate":
        if args.n is None:
            raise UsageError("enumerate needs --n")
        if args.filter == "zeta_real":
            counts.check_kind("GL", args.q, "zeta_real")
    if getattr(args, "n", None) is not None and args.n < 0:
        raise UsageError("--n must be nonnegative")
    # a malformed REALCLASS_CAP is a usage error on every subcommand, and a
    # negative --cap on each that declares it (a group-size cap or a budget)
    oracle.resolve_cap(getattr(args, "cap", None))


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        _validate(args)
        return args.func(args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceeded as exc:
        print("budget exceeded: %s" % exc, file=sys.stderr)
        return EXIT_BUDGET
    except Exception as exc:  # the boundary: report any engine fault
        traceback.print_exc()
        print("internal error: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
