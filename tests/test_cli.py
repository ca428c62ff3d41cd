import csv
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import realclasses
from realclasses import cli, counts, oracle
from realclasses.errors import UsageError
from realclasses.fields import prime_power


def _is_prime_power(q):
    try:
        prime_power(q)
    except UsageError:
        return False
    return True


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# count

def test_count_text(capsys):
    code, out, _ = run(["count", "--family", "SL", "--n", "2", "--q", "7",
                        "--kind", "real"], capsys)
    assert code == 0
    assert "SL_2(7) real classes: 7" in out
    assert "regime n2mod4_q3mod4" in out


def test_count_json(capsys):
    code, out, _ = run(["count", "--family", "PGL", "--n", "5", "--q", "3",
                        "--kind", "real", "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["total"] == 28
    assert data["group"] == {"family": "PGL", "n": 5, "q": 3}


@pytest.mark.parametrize("n", [0, 2])
def test_count_json_leaves_y_out_of_other_families(n, capsys):
    for family in ("GL", "SL", "PGL", "PSL"):
        code, out, _ = run(["count", "--family", family, "--n", str(n),
                            "--q", "5", "--y", "9", "--format", "json"],
                           capsys)
        assert code == 0
        assert json.loads(out)["group"] == {"family": family, "n": n, "q": 5}


def test_count_slq(capsys):
    code, out, _ = run(["count", "--family", "SLQ", "--n", "4", "--q", "5",
                        "--y", "2", "--kind", "strongly_real"], capsys)
    assert code == 0
    assert "57" in out


def test_count_default_kind_is_real(capsys):
    code, out, _ = run(["count", "--family", "GL", "--n", "2", "--q", "3"],
                       capsys)
    assert code == 0
    assert "real classes: 6" in out


# ---------------------------------------------------------------------------
# verify

def test_verify_single(capsys):
    code, out, _ = run(["verify", "--family", "PSL", "--n", "2", "--q", "7",
                        "--kind", "real"], capsys)
    assert code == 0
    assert "oracle=4 engine=4 match" in out


def test_verify_json_shape(capsys):
    code, out, _ = run(["verify", "--family", "GL", "--n", "3", "--q", "3",
                        "--kind", "real", "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["match"] is True
    assert data["runs"][0]["checks"][0]["engine"] == 12


def test_verify_dimension_one(capsys):
    code, out, _ = run(["verify", "--family", "GL", "--n", "1", "--q", "3"],
                       capsys)
    assert code == 0
    assert "GL_1(3): order 2, 2 classes" in out


# ---------------------------------------------------------------------------
# table13

def test_table13_even_q_matches(capsys):
    code, out, _ = run(["table13", "--q", "2"], capsys)
    assert code == 0
    assert "all match" in out


def test_table13_odd_q_flags_stored_rows(capsys):
    code, out, _ = run(["table13", "--q", "3", "--format", "json"], capsys)
    assert code == 1
    data = json.loads(out)
    bad = {(r["family"], r["n"], r["kind"])
           for r in data["rows"] if not r["match"]}
    assert bad == {("PGL", 6, "real"), ("SL", 6, "strongly_real")}
    for r in data["rows"]:
        assert ("note" in r) == (not r["match"])


def test_table13_text_has_deltas(capsys):
    code, out, _ = run(["table13", "--q", "5"], capsys)
    assert code == 1
    assert "delta_3=1" in out and "delta_4=4" in out


# ---------------------------------------------------------------------------
# genfun

def test_genfun(capsys):
    code, out, _ = run(["genfun", "--q", "3", "--terms", "6"], capsys)
    assert code == 0
    assert "[1, 2, 6, 12, 30, 56, 124]" in out
    assert "all match" in out


def test_genfun_zero_terms(capsys):
    code, out, _ = run(["genfun", "--q", "2", "--terms", "0",
                        "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["coefficients"] == [1]


def test_genfun_terms_above_the_maximum_is_a_usage_error(capsys):
    # rejected before any series or count is computed
    code, out, err = run(["genfun", "--q", "3", "--terms", "41"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "terms" in err


# ---------------------------------------------------------------------------
# enumerate

def test_enumerate_real_filter(capsys):
    code, out, _ = run(["enumerate", "--n", "2", "--q", "3",
                        "--filter", "real", "--format", "json"], capsys)
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert len(lines) == 6
    assert all(rec["real"] for rec in lines)


def test_enumerate_zeta_filter(capsys):
    code, out, _ = run(["enumerate", "--n", "2", "--q", "3",
                        "--filter", "zeta_real", "--format", "text"], capsys)
    assert code == 0
    assert out.strip().endswith("total 4")


def test_enumerate_det_one_labels_outside_the_psl_criterion(capsys):
    # n = 6, q = 3 is the PSL corner; labels neither real nor zeta-real
    # carry no psl_strongly_real flag, as det != 1 labels carry no SL flags
    code, out, _ = run(["enumerate", "--n", "6", "--q", "3",
                        "--format", "json"], capsys)
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    assert len(recs) == 720
    for rec in recs:
        assert ("psl_strongly_real" in rec) == (
            rec["det"] == 1 and (rec["real"] or rec["zeta_real"]))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 7: cmd_enumerate reads "
                   "labels.sl_real, which assumes a real label, on every "
                   "det-1 label; the fix re-records a perfbench golden")
def test_enumerate_flags_no_non_real_label_sl_real(capsys):
    code, out, _ = run(["enumerate", "--n", "3", "--q", "3",
                        "--format", "json"], capsys)
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    non_real = [rec for rec in recs if rec["det"] == 1 and not rec["real"]]
    assert len(non_real) == 6
    assert not any(rec["sl_real"] for rec in non_real)


def test_enumerate_trivial(capsys):
    code, out, _ = run(["enumerate", "--n", "1", "--q", "2",
                        "--format", "json"], capsys)
    assert code == 0
    assert len(out.splitlines()) == 1


# ---------------------------------------------------------------------------
# exit codes

def test_usage_errors(capsys):
    cases = [
        ["count", "--family", "PSL", "--n", "2", "--q", "7",
         "--kind", "zeta_real"],
        ["count", "--family", "SLQ", "--n", "4", "--q", "5",
         "--kind", "real"],                      # missing --y
        ["count", "--family", "GL", "--n", "2", "--q", "6",
         "--kind", "real"],                      # not a prime power
        ["count", "--family", "GL", "--n", "2"],  # missing --q
        ["count", "--family", "GL", "--n", "41", "--q", "3"],  # n > MAX_N
        ["verify", "--family", "GL", "--n", "41", "--q", "3"],
        ["verify", "--n", "2", "--q", "3"],       # missing --family
        ["verify", "--family", "SL", "--n", "2", "--q", "4",
         "--kind", "zeta_real"],                  # even q
        ["genfun", "--q", "12"],
        ["genfun", "--q", "3", "--terms", "-1"],
        ["table13", "--q", "6"],
        ["verify", "--family", "SLQ", "--n", "4", "--q", "5", "--y", "3"],
        ["enumerate", "--n", "2", "--q", "4", "--filter", "zeta_real"],
        ["enumerate", "--n", "1", "--q", "131"],  # past the field bound
        ["enumerate", "--q", "3"],                # missing --n
        ["enumerate", "--n", "41", "--q", "2"],   # n > MAX_N
    ]
    for argv in cases:
        code, _, err = run(argv, capsys)
        assert code == 2, argv
        assert err.startswith("error:")
    assert "enumerate needs --n" in run(["enumerate", "--q", "3"], capsys)[2]


_PRIME_POWERS = [q for q in range(2, 300) if _is_prime_power(q)]
_SMALL_QS = [q for q in _PRIME_POWERS if q <= 11]


def _count_argv(family, n, q, kind, y=None, cap=None):
    argv = ["count", "--family", family, "--n", str(n), "--q", str(q),
            "--kind", kind, "--format", "json"]
    if y is not None:
        argv += ["--y", str(y)]
    if cap is not None:
        argv += ["--cap", str(cap)]
    return argv


def _y_orders(family, n, q):
    """The orders of the central subgroups Y of SL_n(q); [None] off SLQ."""
    if family != "SLQ":
        return [None]
    g = math.gcd(n, q - 1) if n else 1
    return [d for d in range(1, g + 1) if g % d == 0]


@st.composite
def _valid_count(draw):
    family = draw(st.sampled_from(counts.FAMILIES))
    n, q = draw(st.integers(0, 4)), draw(st.sampled_from(_SMALL_QS))
    kind = draw(st.sampled_from(counts.applicable_kinds(family, q)))
    y = draw(st.sampled_from(_y_orders(family, n, q)))
    total = counts.count(family, n, q, kind, y_order=y).total
    return _count_argv(family, n, q, kind, y), 0, total


@st.composite
def _usage_error(draw):
    n, q = draw(st.integers(1, 6)), draw(st.sampled_from(_SMALL_QS))
    case = draw(st.sampled_from(["y", "zeta_family", "zeta_even", "q",
                                 "big_q", "n"]))
    family, kind, y = "GL", "real", None
    if case == "y":
        family = "SLQ"
        y = draw(st.integers(1, 12).filter(
            lambda y: math.gcd(n, q - 1) % y))
    elif case == "zeta_family":
        family, kind = draw(st.sampled_from(["PGL", "PSL", "SLQ"])), \
            "zeta_real"
        y = 1 if family == "SLQ" else None
    elif case == "zeta_even":
        family, kind = draw(st.sampled_from(["GL", "SL"])), "zeta_real"
        q = draw(st.sampled_from([q for q in _SMALL_QS if q % 2 == 0]))
    elif case == "q":
        q = draw(st.integers(0, 300).filter(
            lambda q: q not in _PRIME_POWERS))
    elif case == "big_q":
        q = draw(st.sampled_from([q for q in _PRIME_POWERS if q > 128]))
    else:
        n = draw(st.integers(-5, -1))
    return _count_argv(family, n, q, kind, y), 2, None


@st.composite
def _over_cap(draw):
    # cells counted only by enumerating labels, each with at least one;
    # a zeta-real SL cell needs zeta^n = 1, or it answers 0 at any budget
    odd = [q for q in _SMALL_QS if q % 2]
    cells = [("SL", 2, 3, "zeta_real"), ("SL", 4, 3, "zeta_real"),
             ("SL", 4, 5, "zeta_real")]
    cells += [("SL", 2, q, "strongly_real") for q in odd]
    cells += [("PSL", 2, q, "strongly_real") for q in odd if q % 4 == 3]
    return _count_argv(*draw(st.sampled_from(cells)), cap=0), 3, None


def _assert_exit(argv, want):
    """Run argv and check its exit code; a usage error (2) or a budget (3)
    prints nothing on stdout and says which on stderr.  Returns stdout."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    assert code == want, (argv, err.getvalue())
    if want in (2, 3):
        assert out.getvalue() == ""
        assert err.getvalue().startswith(
            "error:" if want == 2 else "budget exceeded:")
    return out.getvalue()


@settings(max_examples=60, deadline=None, database=None)
@given(st.one_of(_valid_count(), _usage_error(), _over_cap()))
def test_count_exit_code_contract(case):
    # exit 0 with the library's total, 2 for a usage error, 3 for a label
    # budget too small for an enumerated cell
    argv, want, total = case
    out = _assert_exit(argv, want)
    if want == 0:
        assert json.loads(out)["total"] == total


@pytest.mark.parametrize("cap", [None, 0])
def test_zeta_real_sl_zero_is_read_before_the_budget(cap):
    # zeta^12 != 1 at q = 127, so no class of SL_12(127) is zeta-real; its
    # 4.3 * 10^12 zeta-real labels pass the budget, but the zero comes first
    out = _assert_exit(_count_argv("SL", 12, 127, "zeta_real", cap=cap), 0)
    assert json.loads(out)["total"] == 0


_VERIFY_GROUPS = [(f, n, q, y) for f in counts.FAMILIES for n in (1, 2, 3)
                  for q in _SMALL_QS for y in _y_orders(f, n, q)
                  if 1 < oracle.group_order(f, n, q, y) <= 10 ** 4]
_DESK_QS = [q for q in _SMALL_QS if q <= 9]


def _argv(command, n, q, zeta=False):
    """A valid command line, or one asking for zeta-real classes."""
    if command == "verify":
        return ["verify", "--family", "GL", "--n", str(n), "--q", str(q)] + (
            ["--kind", "zeta_real"] if zeta else [])
    if command == "enumerate":
        return ["enumerate", "--n", str(n), "--q", str(q)] + (
            ["--filter", "zeta_real"] if zeta else [])
    return [command, "--q", str(q)]


# a flag each subcommand does not declare (test_unread_flags_are_usage_errors)
_UNDECLARED = {"verify": ["--terms", "3"], "table13": ["--n", "3"],
               "genfun": ["--family", "GL"], "enumerate": ["--kind", "real"]}


@st.composite
def _subcommand_usage_error(draw, command):
    cases = ["q", "big_q", "no_q", "undeclared"]
    if command in ("verify", "enumerate"):
        cases += ["n", "zeta_even"]
    case = draw(st.sampled_from(cases))
    n, q = draw(st.integers(1, 3)), draw(st.sampled_from(_DESK_QS))
    if case == "q":
        q = draw(st.integers(0, 300).filter(
            lambda q: q not in _PRIME_POWERS))
    elif case == "big_q":
        q = draw(st.sampled_from([q for q in _PRIME_POWERS if q > 128]))
    elif case == "n":
        n = draw(st.integers(-5, -1))
    elif case == "zeta_even":
        q = draw(st.sampled_from([q for q in _DESK_QS if q % 2 == 0]))
    argv = _argv(command, n, q, zeta=case == "zeta_even")
    if case == "no_q":
        i = argv.index("--q")
        argv = argv[:i] + argv[i + 2:]
    elif case == "undeclared":
        argv = argv + _UNDECLARED[command]
    return argv, 2


@st.composite
def _subcommand_answer(draw, command):
    """A command line in range, with the exit code it must give, 3 where
    the cap is set below the group or label count."""
    if command == "verify":
        family, n, q, y = draw(st.sampled_from(_VERIFY_GROUPS))
        argv = ["verify", "--family", family, "--n", str(n), "--q", str(q)]
        argv += [] if y is None else ["--y", str(y)]
        over = draw(st.booleans())
        return argv + (["--cap", "1"] if over else []), 3 if over else 0
    q = draw(st.sampled_from(_DESK_QS))
    if command == "table13":
        return ["table13", "--q", str(q)], 1 if q % 2 else 0
    if command == "genfun":
        terms = draw(st.integers(0, 4))
        return ["genfun", "--q", str(q), "--terms", str(terms)], 0
    # a cap of 0 is exceeded only by a nonempty dump, and the zeta-real
    # filter leaves none at odd n, so the cap goes on the unfiltered dump
    over = draw(st.booleans())
    argv = _argv("enumerate", draw(st.integers(0, 3)), q,
                 zeta=not over and q % 2 == 1 and draw(st.booleans()))
    return argv + (["--cap", "0"] if over else []), 3 if over else 0


@pytest.mark.parametrize("command", ["verify", "table13", "genfun",
                                     "enumerate"])
@settings(max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_subcommand_exit_code_contract(command, data):
    # verify matches on groups of order <= 10^4 and exceeds --cap 1;
    # table13 flags the disputed rows at odd q; a usage error exits 2
    argv, want = data.draw(st.one_of(_subcommand_answer(command),
                                     _subcommand_usage_error(command)))
    _assert_exit(argv + ["--format", "json"], want)


def test_budget_exit(capsys):
    code, _, err = run(["verify", "--family", "SL", "--n", "4", "--q", "5"],
                       capsys)
    assert code == 3
    assert "budget exceeded" in err
    code, _, err = run(["enumerate", "--n", "9", "--q", "9", "--cap", "10"],
                       capsys)
    assert code == 3


def test_internal_errors_exit_4(monkeypatch, capsys):
    from realclasses import counts

    def broken(*args, **kwargs):
        raise ValueError("label is neither real nor zeta-real")

    monkeypatch.setattr(counts, "section13_table", broken)
    code, out, err = run(["table13", "--q", "3"], capsys)
    assert code == 4 and out == ""
    assert "internal error: ValueError: label is neither real" in err
    assert "Traceback" in err

    def disagree(*args, **kwargs):
        raise AssertionError("formula/enumeration disagree")

    monkeypatch.setattr(counts, "count", disagree)
    code, _, err = run(["count", "--family", "GL", "--n", "2", "--q", "3"],
                       capsys)
    assert code == 4
    assert "internal error: AssertionError" in err


def test_env_cap(monkeypatch, capsys):
    monkeypatch.setenv("REALCLASS_CAP", "10")
    code, _, err = run(["verify", "--family", "GL", "--n", "2", "--q", "3"],
                       capsys)
    assert code == 3


def test_malformed_env_cap_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("REALCLASS_CAP", "abc")
    code, _, err = run(["verify", "--family", "SL", "--n", "2", "--q", "5"],
                       capsys)
    assert code == 2
    assert err.startswith("error:") and "REALCLASS_CAP" in err


_EVERY_SUBCOMMAND = (
    ["count", "--family", "GL", "--n", "2", "--q", "3"],
    ["verify", "--family", "GL", "--n", "2", "--q", "3"],
    ["verify", "--all-desk"],
    ["table13", "--q", "3"],
    ["genfun", "--q", "3"],
    ["enumerate", "--n", "2", "--q", "3"],
)


@pytest.mark.parametrize("argv", [a for a in _EVERY_SUBCOMMAND
                                  if a[0] != "genfun"], ids=" ".join)
def test_negative_cap_is_a_usage_error(argv, capsys):
    # genfun declares no --cap (test_unread_flags_are_usage_errors)
    code, out, err = run(argv + ["--cap", "-1"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "nonnegative" in err


@pytest.mark.parametrize("argv", _EVERY_SUBCOMMAND, ids=" ".join)
def test_negative_env_cap_is_a_usage_error(argv, monkeypatch, capsys):
    monkeypatch.setenv("REALCLASS_CAP", "-1")
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "REALCLASS_CAP" in err


def test_matrix_space_past_the_address_limit_is_a_budget(capsys):
    # SL_3(9) has 42,456,960 elements, under this cap, but its 9^9 codes
    # pass the oracle's address limit
    code, out, err = run(["verify", "--family", "SL", "--n", "3", "--q", "9",
                          "--cap", "100000000"], capsys)
    assert code == 3 and out == ""
    assert "too large to address" in err


def test_cap_zero_is_a_budget(capsys):
    code, out, err = run(["enumerate", "--n", "6", "--q", "3", "--cap", "0"],
                         capsys)
    assert code == 3 and out == ""
    assert "budget exceeded" in err


def test_all_desk_honours_cap(monkeypatch, capsys):
    # the desk cap replaces only the default: GL_2(7), the fifth desk
    # group, is the first over 1000
    for argv, env in ((["--cap", "1000"], None), ([], "1000")):
        if env:
            monkeypatch.setenv("REALCLASS_CAP", env)
        code, out, err = run(["verify", "--all-desk"] + argv, capsys)
        assert code == 3 and out == ""
        assert "group GL_2(7) has order 2016, over the cap 1000" in err


def test_unknown_subcommand_exits_2(capsys):
    code, out, err = run(["frobnicate"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "invalid choice" in err


@pytest.mark.parametrize("argv", [
    ["table13", "--q", "5", "--n", "3", "--family", "GL", "--y", "7"],
    ["table13", "--q", "5", "--kind", "real"],
    ["genfun", "--q", "3", "--n", "9", "--family", "PSL"],
    ["genfun", "--q", "3", "--y", "2"],
    ["genfun", "--q", "3", "--terms", "3", "--cap", "1"],
    ["enumerate", "--n", "2", "--q", "3", "--family", "GL"],
    ["enumerate", "--n", "2", "--q", "3", "--y", "2"],
], ids=" ".join)
def test_unread_flags_are_usage_errors(argv, capsys):
    # each subcommand declares only the flags it reads, so a flag it
    # would ignore is a usage error (exit 2), not a silent no-op
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "unrecognized arguments" in err


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage:")


# ---------------------------------------------------------------------------
# format equivalence and determinism

def _csv_dict(text):
    rows = list(csv.reader(io.StringIO(text)))
    head = rows[0]
    return [dict(zip(head, r)) for r in rows[1:]]


def test_table13_csv_json_equivalent(capsys):
    _, jtext, _ = run(["table13", "--q", "5", "--format", "json"], capsys)
    _, ctext, _ = run(["table13", "--q", "5", "--format", "csv"], capsys)
    jrows = json.loads(jtext)["rows"]
    crows = _csv_dict(ctext)
    assert len(jrows) == len(crows)
    for jr, cr in zip(jrows, crows):
        assert cr["family"] == jr["family"]
        assert int(cr["n"]) == jr["n"]
        assert int(cr["reference"]) == jr["reference"]
        assert int(cr["engine"]) == jr["engine"]
        assert cr["match"] == str(jr["match"])
        assert cr["note"] == jr.get("note", "")


def test_byte_determinism(capsys):
    outs = set()
    for _ in range(2):
        _, out, _ = run(["enumerate", "--n", "3", "--q", "5",
                         "--filter", "real", "--format", "json"], capsys)
        outs.add(out)
    assert len(outs) == 1


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "realclasses.cli", "count", "--family", "GL",
         "--n", "2", "--q", "3", "--kind", "real", "--format", "json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["total"] == 6


# ---------------------------------------------------------------------------
# numpy is imported only by the oracle

NUMPY_FREE_ARGVS = (
    "count --family GL --n 6 --q 7",
    "count --family SL --n 6 --q 127 --kind strongly_real",
    "count --family PGL --n 4 --q 9",
    "count --family PSL --n 6 --q 7 --kind strongly_real",
    "table13 --q 5",
    "genfun --q 3 --terms 6",
    "enumerate --n 2 --q 5 --filter real",
)


def _heavy_modules_after(argvs, then="pass"):
    """Which of numpy and realclasses.oracle a fresh interpreter has loaded
    after importing realclasses and its CLI, running cli.main on each argv
    (each must answer: exit 0, or 1 for table13's known mismatches), then
    the statement ``then``."""
    code = "\n".join((
        "import contextlib, io, json, sys",
        "import realclasses, realclasses.cli",
        "for argv in %r:" % (list(argvs),),
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        assert realclasses.cli.main(argv.split()) in (0, 1), argv",
        then,
        "print(json.dumps(sorted({'numpy', 'realclasses.oracle'}",
        "                        & set(sys.modules))))"))
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        realclasses.__file__)))
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_formula_and_counted_routes_import_no_numpy():
    assert _heavy_modules_after(NUMPY_FREE_ARGVS) == []


def test_numpy_loads_where_arrays_are_built():
    assert _heavy_modules_after([], "realclasses.verify_group") == [
        "numpy", "realclasses.oracle"]


def test_every_exported_name_resolves():
    for name in realclasses.__all__:
        getattr(realclasses, name)
    assert realclasses.verify_group is oracle.verify_group
    with pytest.raises(AttributeError):
        realclasses.no_such_name
