"""Self-test of the benchmark: operation lists, golden check, tracing.

    python3 -m pytest perfbench/tests
"""

import json
import os
import subprocess
import sys
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SIZES = {"oracle_verify": 45, "label_routes": 1022, "formula_grid": 7266}


def ids(workload, seed):
    return [op["id"] for op in workloads.operations(workload, seed)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_operation_list_is_deterministic(workload):
    assert workloads.operations(workload, 5) == workloads.operations(workload,
                                                                     5)
    assert len(ids(workload, 5)) == SIZES[workload]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seeds_permute_one_set_of_operations(workload):
    one, two = ids(workload, 1), ids(workload, 2)
    assert one != two
    assert sorted(one) == sorted(two)
    assert len(set(one)) == len(one)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_golden_file_covers_only_known_operations(workload):
    golden = run.load_golden(workload)
    assert set(golden) <= set(ids(workload, 0))


def test_oracle_base_groups_are_built_before_their_quotients():
    ops = workloads.operations("oracle_verify", 3)
    seen = set()
    for op in ops:
        family, n, q, _ = op["group"]
        base = ("GL" if family in ("GL", "PGL") else "SL", n, q)
        if op["op"] == "verify" and family in ("GL", "SL"):
            seen.add(base)
        assert base in seen, op["id"]


def _results(ops):
    from realclasses import cli, counts, oracle
    rc = types.SimpleNamespace(cli=cli, counts=counts, oracle=oracle)
    return [[op["id"], 0.0, json.loads(json.dumps(workloads.run_op(rc, op))),
             None] for op in ops]


def test_golden_check_rejects_an_altered_total():
    ops = [op for op in workloads.operations("formula_grid", 0)
           if op["op"] == "count" and op["n"] <= 4 and op["q"] <= 9]
    golden = run.load_golden("formula_grid")
    golden = {op["id"]: golden[op["id"]] for op in ops}
    results = _results(ops)
    assert run.check_pass(golden, results) == ({}, [], [])

    altered = dict(golden)
    victim = ops[7]["id"]
    altered[victim] += 1
    failures, mismatches, missing = run.check_pass(altered, results)
    assert mismatches == [victim] and list(failures) == [victim]

    failures, mismatches, missing = run.check_pass(golden, results[1:])
    assert missing == [ops[0]["id"]]


def test_golden_check_counts_failures_without_freezing_them():
    results = [["a", 0.0, 3, None], ["b", 0.0, None, "ValueError: x"],
               ["c", 0.0, 4, None]]
    failures, mismatches, missing = run.check_pass({"a": 3, "c": 4}, results)
    assert failures == {"b": "ValueError: x"}
    assert mismatches == [] and missing == []
    failures, mismatches, _ = run.check_pass({"a": 3, "b": 1, "c": 4},
                                             results)
    assert mismatches == ["b"]


def test_has_formula_matches_the_engine():
    from realclasses import counts
    for n in range(1, 7):
        for q in (2, 3, 4, 5, 7, 9, 11):
            for family, kind, y in workloads.count_cells(n, q):
                if family == "SL" and kind == "zeta_real":
                    continue  # takes no method: always enumerates
                try:
                    rep = counts.count(family, n, q, kind, y_order=y,
                                       method="formula")
                except ValueError as exc:
                    if "neither real nor zeta-real" in str(exc):
                        continue  # a known engine defect, not a routing one
                    raise
                expected = "formula" if workloads.has_formula(
                    family, n, q, kind, y) else "enumeration"
                assert rep.method == expected, (family, n, q, kind, y)


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    assert len(set(names)) == len(names) >= 2
    assert set(names) <= set(workloads.WORKLOADS)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in bench["per_layer"]] == (
        list(tracing.LAYER_METRICS) + [run.OVERHEAD])
    units = dict(run.END_TO_END, **tracing.LAYER_METRICS)
    units[run.OVERHEAD] = "s"
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert m["unit"] == units[m["name"]]


def test_traced_pass_reports_layers_and_nested_spans(tmp_path):
    spans_file = tmp_path / "spans.jsonl"
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "worker.py"),
         "--workload", "formula_grid", "--seed", "0",
         "--trace", str(spans_file)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=120)
    report = json.loads(out.stdout)
    layers = report["layers"]
    assert set(layers) == set(tracing.LAYER_METRICS)
    # one Field per odd q <= 128: only zeta_real_gl builds a field here
    odd = [q for q in workloads.prime_powers(128) if q % 2]
    assert layers["fields.Field.calls"] == len(odd)
    ok = sum(1 for r in report["results"] if r[3] is None)
    assert layers["counts.count.formula.calls"] == ok - len(odd) - 7
    assert layers["counts.count.raised.calls"] == len(report["results"]) - ok
    assert layers["oracle.BaseGroup.calls"] == 0

    spans = [json.loads(line) for line in spans_file.read_text().splitlines()]
    assert len(spans) == report["spans"]
    for name, start, end, parent in spans:
        assert start <= end
        if parent >= 0:
            _, p_start, p_end, _ = spans[parent]
            assert p_start <= start and end <= p_end
    self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert 0 < self_total <= report["wall_s"]
