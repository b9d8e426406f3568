"""Tests of the benchmark's own helpers, against hand-computed values.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests``.
"""
from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import run
import tracing
from qres import gbrt, registry
from qres.features import FeatureId
from qres.gbrt import MartModel, Tree

ROOT = os.path.dirname(run.HERE)


def hand_tree() -> Tree:
    """CIN1 (code 4) <= 10 ? 1.0 : (CIN2 (code 7) <= 2.5 ? 2.0 : 3.0)."""
    return Tree(
        child=np.array([2, 0, 2, 0, 0], dtype=np.uint8),
        feature=np.array([4, 0, 7, 0, 0], dtype=np.uint8),
        value=np.array([10.0, 1.0, 2.5, 2.0, 3.0], dtype=np.float32),
    )


@pytest.mark.parametrize(
    "x, leaf",
    [
        ({4: 10.0, 7: 0.0}, 1.0),  # a value equal to the threshold goes left
        ({4: 9.0, 7: 9.0}, 1.0),
        ({4: 11.0, 7: 2.5}, 2.0),
        ({4: 11.0, 7: 3.0}, 3.0),
    ],
)
def test_walk_tree_hand_computed(x, leaf):
    t = hand_tree()
    assert checks.walk_tree(t.child, t.feature, t.value, x) == leaf


def test_walk_ensemble_hand_computed():
    trees = [hand_tree(), hand_tree()]
    pred, magnitude = checks.walk_ensemble(5.0, 0.5, trees, {4: 11.0, 7: 3.0})
    assert pred == 5.0 + 0.5 * 3.0 + 0.5 * 3.0
    assert magnitude == 8.0
    pred, magnitude = checks.walk_ensemble(-2.0, 0.5, trees, {4: 0.0, 7: 0.0})
    assert (pred, magnitude) == (-1.0, 3.0)


def test_walk_ensemble_agrees_with_program_kernel():
    model = MartModel(
        init=5.0, trees=[hand_tree(), hand_tree()], learning_rate=0.5,
        schema=[FeatureId.CIN1, FeatureId.CIN2],
        feature_stats={FeatureId.CIN1: (0.0, 20.0), FeatureId.CIN2: (0.0, 5.0)},
    )
    for cin1, cin2 in [(10.0, 0.0), (11.0, 2.5), (11.0, 3.0), (-4.0, 100.0)]:
        x = np.zeros(gbrt.FEATURE_SPACE)
        x[4], x[7] = cin1, cin2
        pred, _ = checks.walk_ensemble(5.0, 0.5, model.trees, {4: cin1, 7: cin2})
        assert gbrt.predict_dense(model, x) == pred


@pytest.mark.parametrize(
    "kind, values, beta, expect",
    [
        ("Linear", [8.0], 1.0, 8.0),
        ("NLogN", [8.0], 1.0, 24.0),
        ("Power", [4.0], 1.5, 8.0),
        ("Log", [1.5], 1.0, 1.0),  # log2 clamps arguments below 2 to 1
        ("Log", [16.0], 1.0, 4.0),
        ("Product2", [3.0, 4.0], 1.0, 12.0),
        ("Sum2", [3.0, 4.0], 1.0, 7.0),
        ("FLogSecond", [3.0, 8.0], 1.0, 9.0),
    ],
)
def test_scaling_term_hand_computed(kind, values, beta, expect):
    feats = tuple(range(len(values)))
    term = SimpleNamespace(kind=SimpleNamespace(name=kind), features=feats, beta=beta)
    raw = dict(zip(feats, values))
    assert checks.scaling_term([term], raw) == expect
    assert checks.scaling_term([term, term], raw) == expect * expect


def test_scaling_term_covers_every_form():
    from qres.scaling import FormKind

    assert set(checks.BASES) == {k.name for k in FormKind}


def test_l1_err_hand_computed():
    # |2-1|/2 = 0.5 and |4-5|/4 = 0.25; a zero estimate is left out.
    assert checks.l1_err([(2.0, 1.0), (4.0, 5.0), (0.0, 3.0)]) == 0.375
    assert checks.l1_err([(3.0, 3.0)]) == 0.0
    with pytest.raises(checks.CheckError):
        checks.l1_err([(0.0, 1.0)])


def test_l1_err_matches_program_metric():
    from qres.evalkit import EvalPair
    from qres.evalkit import l1_err as program_l1

    pairs = [(2.0, 1.0), (4.0, 5.0), (7.5, 0.5), (1e6, 3e6)]
    assert checks.l1_err(pairs) == program_l1([EvalPair(e, t) for e, t in pairs])


def test_within_2x_share_hand_computed():
    # Ratios 2 (in), 1.25 (in), 2.5 (out) and a zero estimate (out).
    assert checks.within_2x_share([(2.0, 1.0), (4.0, 5.0), (1.0, 2.5), (0.0, 1.0)]) == 0.5


def doc(total=3.0, pipelines=(1.0, 2.0), operators=(0.5, 0.5, 2.0)):
    return {
        "query_id": "q",
        "total": total,
        "per_pipeline": list(pipelines),
        "per_operator": [{"op": "X", "estimate": v} for v in operators],
    }


def test_check_estimate_doc():
    checks.check_estimate_doc(doc())
    for bad in (
        doc(total=3.5),
        doc(operators=(0.5, 0.5, 2.5)),
        doc(total=-1.0, pipelines=(-1.0,), operators=(-1.0,)),
        doc(total=math.nan, pipelines=(math.nan,), operators=(math.nan,)),
        doc(total=math.inf, pipelines=(math.inf,), operators=(math.inf,)),
    ):
        with pytest.raises(checks.CheckError):
            checks.check_estimate_doc(bad)


def test_observed_totals(tmp_path):
    path = tmp_path / "c.jsonl"
    plan = {
        "query_id": "a",
        "root": {
            "observed": {"cpu_us": 1.5, "logical_io": 0.0},
            "children": [
                {"observed": {"cpu_us": 2.0, "logical_io": 3.0}, "children": []},
                {"observed": {"cpu_us": 0.25, "logical_io": 4.0}},
            ],
        },
    }
    path.write_text(json.dumps(plan) + "\n\n")
    assert checks.observed_totals(str(path), "cpu_us") == {"a": 3.75}
    assert checks.observed_totals(str(path), "logical_io") == {"a": 7.0}


def test_percentile_nearest_rank():
    values = [float(v) for v in range(100, 0, -1)]
    assert run.percentile(values, 50.0) == 50.0
    assert run.percentile(values, 99.0) == 99.0
    assert run.percentile([7.0], 99.0) == 7.0


def test_summarise_self_time():
    # A [0, 10] has children B [1, 4] and C [5, 6]; B has a child D [2, 3].
    spans = tracing.Spans()
    for name, parent, start, end in [(0, -1, 0.0, 10.0), (1, 0, 1.0, 4.0), (3, 1, 2.0, 3.0), (2, 0, 5.0, 6.0)]:
        spans.name.append(name)
        spans.parent.append(parent)
        spans.start.append(start)
        spans.end.append(end)
    stats = tracing.summarise(spans, 0, len(spans))
    a, b, c, d = (stats[tracing.NAMES[i]] for i in range(4))
    assert (a.calls, a.total_s, a.self_s) == (1, 10.0, 6.0)
    assert (b.total_s, b.self_s) == (3.0, 2.0)
    assert (c.self_s, d.self_s) == (1.0, 1.0)
    assert a.child_s == {tracing.NAMES[1]: 3.0, tracing.NAMES[2]: 1.0}


def test_tracer_patches_every_name_and_restores():
    from qres import cli, scaling

    original = scaling.select_form
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert registry.select_form is scaling.select_form is not original
        assert cli.train_registry is registry.train_registry
        registry.select_form(
            scaling.SINGLE_FEATURE_CANDIDATES, [FeatureId.CIN1],
            [([float(x)], 2.0 * x) for x in range(1, 20)],
        )
    finally:
        tracer.uninstall()
    assert registry.select_form is scaling.select_form is original
    assert [tracing.NAMES[n] for n in tracer.spans.name] == ["scaling.select_form"]


def benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_declared_names_match_benchmark_json():
    spec = benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_METRICS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_METRICS
    assert list(spec["command"]) == ["python3", "perfbench/run.py"]


def last_json_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    """One short run of the cheapest workload (two rounds, about 15 s)."""
    spec = benchmark_json()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = last_json_line(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == run.MIN_ROUNDS * run.EXPECTED_ENTRIES * (2 if trace else 1)
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
