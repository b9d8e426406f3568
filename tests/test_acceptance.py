"""Acceptance gate: one criterion per test, one printed pass/fail line each.

A1 extrapolation robustness      A2 in-distribution accuracy
A3 scaling-form identification   A4 combined-model exactness
A5 cardinality-bias compensation A6 encoding budget
A7 performance budgets           A8 metric oracle equivalence
A9 boosting sanity
"""
from __future__ import annotations

import math
import statistics
import time

import numpy as np
import pytest

from conftest import as_rows, build_combined, encoded_tree_size, split_by_scale
from qres import estimators, evalkit
from qres.evalkit import EvalPair, fit_opt_baseline, l1_err, ratio_buckets, ratio_err
from qres.features import FeatureId, FeatureVector, featurize_many
from qres.gbrt import TrainConfig, predict, train
from qres.plan import OperatorType
from qres.registry import (
    CombinedModel,
    ScaleTerm,
    deserialize,
    estimate_with_model,
    out_ratio,
    serialize,
    train_registry,
)
from qres.scaling import SINGLE_FEATURE_CANDIDATES, FormKind, select_form
from qres.synth import CorpusSpec, TableSpec, default_tables, generate_corpus

F = FeatureId

#: Templates whose resource curve is dominated by a scan or sort.
SORT_SCAN_TEMPLATES = frozenset({"scan", "filter_scan", "sort_scan", "sort_filter_scan"})


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'} - {detail}")


TABLES = [
    TableSpec("wide", 20_000, 100.0, 8),
    TableSpec("narrow", 5_000, 120.0, 6),
]


# ---------------------------------------------------------------------------
# A1 - extrapolation robustness: train small, test large


def test_a1_extrapolation_robustness():
    start = time.perf_counter()
    spec = CorpusSpec(
        templates={"scan": 1.0, "filter_scan": 1.0, "sort_scan": 2.0},
        tables=[TableSpec("wide", 20_000, 100.0, 8)],
        scales=[1, 2, 4, 6, 8, 10],
        query_count=600,
        rng_seed=2,
        noise_sigma=0.05,
        card_sigma=0.1,
    )
    corpus = generate_corpus(spec)
    train_set, test_set = split_by_scale(corpus, 4.0)
    assert train_set and test_set
    registry = train_registry(
        train_set, ["cpu_us", "logical_io"], TrainConfig(iterations=150, rng_seed=0)
    )

    # Plain tree ensembles flat-line beyond the training range and so
    # systematically under-predict large-scale sort/scan queries.
    mart = estimators.mart_estimator(registry, "cpu_us")
    big = [p for p in test_set if p.template in SORT_SCAN_TEMPLATES]
    under = 0
    for plan, est in zip(big, mart(featurize_many(big))):
        true = plan.observed_total("cpu_us")
        if est < true and ratio_err(EvalPair(est, true)) > 2.0:
            under += 1
    mart_frac = under / len(big)

    # The scaling-aware estimator must stay within 2x on >= 90% of test
    # queries for each resource.
    scaling_fracs = {}
    for resource in ("cpu_us", "logical_io"):
        est_fn = estimators.scaling_estimator(registry, resource)
        ok_count = 0
        for plan, est in zip(test_set, est_fn(featurize_many(test_set))):
            pair = EvalPair(est, plan.observed_total(resource))
            if pair.estimate > 0 and ratio_err(pair) <= 2.0:
                ok_count += 1
        scaling_fracs[resource] = ok_count / len(test_set)

    elapsed = time.perf_counter() - start
    ok = (
        mart_frac >= 0.50
        and all(frac >= 0.90 for frac in scaling_fracs.values())
        and elapsed <= 300.0
    )
    _report(
        "A1",
        ok,
        f"plain-tree under-prediction {mart_frac:.0%} of large sort/scan "
        f"(need >=50%); scaling within 2x: cpu {scaling_fracs['cpu_us']:.0%}, "
        f"io {scaling_fracs['logical_io']:.0%} (need >=90%); {elapsed:.1f}s "
        f"(budget 300s)",
    )
    assert mart_frac >= 0.50
    assert scaling_fracs["cpu_us"] >= 0.90
    assert scaling_fracs["logical_io"] >= 0.90
    assert elapsed <= 300.0


# ---------------------------------------------------------------------------
# A2 - in-distribution accuracy on a single-scale corpus


def test_a2_in_distribution_accuracy():
    spec = CorpusSpec(
        templates={
            "scan": 1.0, "filter_scan": 1.0, "sort_filter_scan": 2.0,
            "sort_scan": 1.0, "seek": 0.5, "hash_agg": 1.0,
            "hash_join": 1.0, "merge_join": 1.0, "nested_loop": 2.0,
        },
        tables=default_tables(),
        scales=[1.0],
        query_count=1500,
        rng_seed=77,
        noise_sigma=0.05,
        card_sigma=0.1,
    )
    corpus = generate_corpus(spec)
    n_train = int(0.8 * len(corpus))
    train_set, test_set = corpus[:n_train], corpus[n_train:]
    registry = train_registry(train_set, ["cpu_us"], TrainConfig(iterations=150, rng_seed=0))
    table = {
        "SCALING": estimators.scaling_estimator(registry, "cpu_us"),
        "LINEAR": estimators.train_linear_estimator(train_set, "cpu_us", seed=0),
        "OPT": estimators.train_opt_estimator(train_set, "cpu_us"),
    }
    reports = evalkit.compare(table, test_set, "cpu_us")
    s, lin, opt = reports["SCALING"], reports["LINEAR"], reports["OPT"]
    within_15 = s.frac_le_15
    ok = (
        s.l1_err <= 0.15
        and within_15 >= 0.90
        and s.l1_err <= lin.l1_err
        and s.l1_err <= opt.l1_err
    )
    _report(
        "A2",
        ok,
        f"scaling L1 {s.l1_err:.3f} (need <=0.15), within 1.5x {within_15:.0%} "
        f"(need >=90%), linear L1 {lin.l1_err:.3f}, optimizer L1 {opt.l1_err:.3f}",
    )
    assert s.l1_err <= 0.15
    assert within_15 >= 0.90
    assert s.l1_err <= lin.l1_err
    assert s.l1_err <= opt.l1_err


# ---------------------------------------------------------------------------
# A3 - form identification on noiseless curves


def test_a3_scaling_form_identification():
    hits = []
    xs = [64, 256, 1024, 4096, 16384, 65536]
    # Sort CPU curve: 2 n log2 n -> NLogN.
    form = select_form(
        SINGLE_FEATURE_CANDIDATES, (F.CIN1,),
        [([float(x)], 2.0 * x * math.log2(x)) for x in xs],
    )
    hits.append(("sort NLogN", form.kind is FormKind.NLogN))
    # Filter CPU curve: 0.5 n -> Linear.
    form = select_form(
        SINGLE_FEATURE_CANDIDATES, (F.CIN1,),
        [([float(x)], 0.5 * x) for x in xs],
    )
    hits.append(("filter Linear", form.kind is FormKind.Linear))
    # Nested-loop two-feature curve: 0.7 F1 log2(F2) -> FLogSecond.
    pairs = [(a, b) for a in (10, 40, 160, 640) for b in (256, 4096, 65536)]
    form = select_form(
        (FormKind.Product2, FormKind.Sum2, FormKind.FLogSecond),
        (F.CIN1, F.SSEKTABLE),
        [([float(a), float(b)], 0.7 * a * math.log2(b)) for a, b in pairs],
    )
    hits.append((
        "nested-loop FLogSecond",
        form.kind is FormKind.FLogSecond and form.features == (F.CIN1, F.SSEKTABLE),
    ))
    # Planted quadratic -> Power with beta = 2.
    form = select_form(
        SINGLE_FEATURE_CANDIDATES, (F.CIN1,),
        [([float(x)], 0.01 * x * x) for x in xs],
    )
    hits.append(("quadratic Power b=2", form.kind is FormKind.Power and form.beta == 2.0))
    ok = all(h for _, h in hits)
    _report("A3", ok, "; ".join(f"{name}:{'ok' if h else 'MISS'}" for name, h in hits)
            + " (need 4/4)")
    assert ok


# ---------------------------------------------------------------------------
# A4 - combined-model exactness on a homogeneous target


def test_a4_combined_model_exactness():
    alpha = 3.25
    rng = np.random.default_rng(0)

    def fv(cin: float) -> FeatureVector:
        cout = cin / 2
        return FeatureVector(
            op=OperatorType.Filter,
            values={
                F.COUT: cout, F.SOUTAVG: 100.0, F.SOUTTOT: cout * 100.0,
                F.CIN1: cin, F.SINAVG1: 100.0, F.SINTOT1: cin * 100.0,
                F.OUTPUTUSAGE: 0.0,
            },
        )

    cins = rng.uniform(10, 1000, 80)
    examples = [(fv(float(c)), alpha * float(c)) for c in cins]
    term = ScaleTerm(kind=FormKind.Linear, features=(F.CIN1,))
    model = build_combined(
        OperatorType.Filter, *as_rows(examples), [term], TrainConfig(iterations=100, rng_seed=0)
    )
    probe_cin = 100.0 * float(cins.max())
    got = estimate_with_model(model, fv(probe_cin))
    want = alpha * probe_cin
    rel = abs(got - want) / want
    ok = rel <= 0.01
    _report("A4", ok, f"estimate at 100x training max off by {rel:.2e} (need <=1%)")
    assert ok


# ---------------------------------------------------------------------------
# A5 - systematic cardinality bias compensation


def test_a5_bias_compensation():
    spec = CorpusSpec(
        templates={name: 1.0 for name in (
            "scan", "filter_scan", "sort_scan", "hash_agg", "hash_join",
        )},
        tables=TABLES,
        scales=[1.0, 2.0],
        query_count=200,
        rng_seed=55,
        noise_sigma=0.05,
        card_sigma=0.0,
        card_bias=2.0,
    )
    corpus = generate_corpus(spec)
    n_train = int(0.8 * len(corpus))
    train_set, test_set = corpus[:n_train], corpus[n_train:]
    cfg = TrainConfig(iterations=150, rng_seed=0)
    l1 = {}
    for source in ("true", "estimated"):
        registry = train_registry(train_set, ["cpu_us"], cfg, source=source)
        est_fn = estimators.scaling_estimator(registry, "cpu_us")
        pairs = [
            EvalPair(est, p.observed_total("cpu_us"))
            for p, est in zip(test_set, est_fn(featurize_many(test_set, source)))
        ]
        pairs = [p for p in pairs if p.estimate > 0]
        l1[source] = l1_err(pairs)
    ok = l1["estimated"] <= 1.5 * l1["true"]
    _report(
        "A5",
        ok,
        f"L1 with biased estimates {l1['estimated']:.3f} vs true-feature "
        f"{l1['true']:.3f} (need <=1.5x)",
    )
    assert ok


# ---------------------------------------------------------------------------
# A6 - encoding budget and bit-identical round trip


def test_a6_encoding_budget():
    rng = np.random.default_rng(0)

    def fv(a: float, b: float) -> FeatureVector:
        return FeatureVector(
            op=OperatorType.Filter,
            values={
                F.COUT: a / 2, F.SOUTAVG: b, F.SOUTTOT: a * b / 2,
                F.CIN1: a, F.SINAVG1: b, F.SINTOT1: a * b,
                F.OUTPUTUSAGE: 0.0,
            },
        )

    examples = [
        (fv(float(a), float(b)), float(3 * a + b + rng.normal(0, 5)))
        for a, b in zip(rng.uniform(1, 1000, 300), rng.uniform(10, 200, 300))
    ]
    model = train(examples, TrainConfig(iterations=1000, max_leaves=10, rng_seed=0))
    sizes = [encoded_tree_size(t) for t in model.trees]
    per_tree_ok = all(s <= 130 for s in sizes)
    payload = sum(sizes)
    payload_ok = payload <= 130_000

    from qres.registry import ModelRegistry, RegistryEntry

    registry = ModelRegistry()
    registry.entries[(OperatorType.Filter, "cpu_us")] = RegistryEntry(
        op=OperatorType.Filter, resource="cpu_us", models=[model]
    )
    blob = serialize(registry)
    identical = serialize(deserialize(blob)) == blob
    same_predictions = all(
        predict(model, ex[0])
        == predict(deserialize(blob).entries[(OperatorType.Filter, "cpu_us")].models[0], ex[0])
        for ex in examples[:20]
    )
    ok = per_tree_ok and payload_ok and identical and same_predictions
    _report(
        "A6",
        ok,
        f"max tree {max(sizes)}B (<=130), 1000-tree payload {payload}B "
        f"(<=130000), round trip {'bit-identical' if identical and same_predictions else 'MISMATCH'}",
    )
    assert per_tree_ok and payload_ok and identical and same_predictions


# ---------------------------------------------------------------------------
# A7 - performance budgets


def test_a7_performance_budgets():
    rng = np.random.default_rng(0)
    n = 5000

    def fv(row) -> FeatureVector:
        a, b, c, d = row
        return FeatureVector(
            op=OperatorType.Filter,
            values={
                F.COUT: a, F.SOUTAVG: b, F.SOUTTOT: a * b,
                F.CIN1: c, F.SINAVG1: d, F.SINTOT1: c * d,
                F.OUTPUTUSAGE: 0.0,
            },
        )

    X = rng.uniform(1, 1000, (n, 4))
    y = 2 * X[:, 0] + 0.5 * X[:, 2] * X[:, 3] / 100 + rng.normal(0, 10, n)
    examples = [(fv(X[i]), float(y[i])) for i in range(n)]

    # Warm-up: build the cached prediction layout outside the measured window.
    warm = train(examples[:50], TrainConfig(iterations=2, rng_seed=0))
    predict(warm, examples[0][0])

    t0 = time.perf_counter()
    model = train(examples, TrainConfig(iterations=1000, max_leaves=10, rng_seed=0))
    train_s = time.perf_counter() - t0

    probes = [examples[i][0] for i in range(0, 1000)]
    predict(model, probes[0])
    lat = []
    for probe in probes:
        t0 = time.perf_counter()
        predict(model, probe)
        lat.append(time.perf_counter() - t0)
    median_us = statistics.median(lat) * 1e6

    ok = train_s <= 60.0 and median_us <= 50.0
    _report(
        "A7",
        ok,
        f"training 5000x1000x10 in {train_s:.2f}s (<=60s); median prediction "
        f"{median_us:.1f}us (<=50us)",
    )
    assert train_s <= 60.0
    assert median_us <= 50.0


# ---------------------------------------------------------------------------
# A8 - metric oracle equivalence


def test_a8_metric_oracle_equivalence():
    rng = np.random.default_rng(123)
    ests = rng.uniform(0.1, 1000.0, 1000)
    trues = rng.uniform(0.1, 1000.0, 1000)
    pairs = [EvalPair(float(e), float(t)) for e, t in zip(ests, trues)]

    # Brute-force recomputation of both metrics.
    l1_ref = float(np.mean([abs(e - t) / e for e, t in zip(ests, trues)]))
    rs = [max(e / t, t / e) for e, t in zip(ests, trues)]
    buckets_ref = (
        sum(r < 1.5 for r in rs) / 1000,
        sum(1.5 <= r <= 2.0 for r in rs) / 1000,
        sum(r > 2.0 for r in rs) / 1000,
    )
    l1_ok = abs(l1_err(pairs) - l1_ref) <= 1e-9 * (1 + l1_ref)
    buckets_ok = all(
        abs(a - b) <= 1e-9 for a, b in zip(ratio_buckets(pairs), buckets_ref)
    )

    # out_ratio against the direct excursion formula.
    ratio_ok = True
    for _ in range(1000):
        lo = float(rng.uniform(-100, 100))
        hi = lo + float(rng.uniform(0.01, 100))
        v = float(rng.uniform(-300, 300))
        direct = max(lo - v, 0.0, v - hi) / (hi - lo)
        got = out_ratio(v, lo, hi)
        if abs(got - direct) > 1e-9 * (1 + abs(direct)):
            ratio_ok = False
            break

    # Optimizer-adjustment alpha against grid search with iterative refinement.
    xs = rng.uniform(1, 100, 200)
    ys = 5.0 * xs + rng.normal(0, 10, 200)
    alpha = fit_opt_baseline({OperatorType.Filter: list(zip(xs, ys))})[OperatorType.Filter]
    lo, hi = 0.0, 20.0
    for _ in range(60):  # bisection-style grid refinement to ~1e-16 width
        grid = np.linspace(lo, hi, 33)
        sses = [float(np.sum((ys - a * xs) ** 2)) for a in grid]
        i = int(np.argmin(sses))
        lo, hi = grid[max(0, i - 1)], grid[min(len(grid) - 1, i + 1)]
    alpha_ref = (lo + hi) / 2
    alpha_ok = abs(alpha - alpha_ref) <= 1e-9 * (1 + abs(alpha_ref))

    ok = l1_ok and buckets_ok and ratio_ok and alpha_ok
    _report(
        "A8",
        ok,
        f"L1 {'ok' if l1_ok else 'MISMATCH'}, buckets {'ok' if buckets_ok else 'MISMATCH'}, "
        f"out_ratio {'ok' if ratio_ok else 'MISMATCH'}, "
        f"alpha {'ok' if alpha_ok else 'MISMATCH'} (tol 1e-9)",
    )
    assert ok


# ---------------------------------------------------------------------------
# A9 - boosting sanity


def test_a9_gbrt_sanity():
    rng = np.random.default_rng(0)

    def fv(x: float) -> FeatureVector:
        return FeatureVector(op=OperatorType.Filter, values={F.CIN1: x})

    xs = rng.uniform(1, 100, 300)
    ys = 4.0 * xs + rng.normal(0, 3, 300)
    examples = [(fv(float(x)), float(y)) for x, y in zip(xs, ys)]
    model = train(
        examples, TrainConfig(iterations=200, subsample_fraction=1.0, rng_seed=0)
    )
    monotone = bool(np.all(np.diff(model.train_rmse) <= 1e-9))
    at_max = predict(model, fv(float(xs.max())))
    flat = all(
        predict(model, fv(v)) == at_max for v in (200.0, 1e4, 1e8)
    )
    ok = monotone and flat
    _report(
        "A9",
        ok,
        f"training RMSE non-increasing: {monotone}; flat extrapolation beyond "
        f"range: {flat}",
    )
    assert monotone and flat
