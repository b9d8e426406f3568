"""Error metrics, baselines, and comparison reports against brute-force oracles."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import as_rows
from qres.evalkit import (
    EvalError,
    EvalPair,
    fit_linear_baseline,
    fit_opt_baseline,
    l1_err,
    make_report,
    ratio_buckets,
    ratio_err,
    report_csv,
    report_json,
)
from qres.features import FeatureId, FeatureVector
from qres.gbrt import dense_vector
from qres.plan import OperatorType

F = FeatureId


def pairs_of(*vals):
    return [EvalPair(estimate=e, true_usage=t) for e, t in vals]


def test_l1_err_hand_computed():
    # [DERIVED] mean of |est - true| / est
    ps = pairs_of((10.0, 5.0), (4.0, 8.0))
    # |10-5|/10 = 0.5 ; |4-8|/4 = 1.0
    assert l1_err(ps) == pytest.approx(0.75)


def test_l1_err_normalizes_by_estimate_not_true():
    ps = pairs_of((2.0, 10.0))
    assert l1_err(ps) == pytest.approx(4.0)  # would be 0.8 if true were the denominator


def test_l1_err_zero_for_perfect():
    assert l1_err(pairs_of((3.0, 3.0), (7.0, 7.0))) == 0.0


def test_l1_err_empty_raises():
    with pytest.raises(EvalError):
        l1_err([])


def test_ratio_err_symmetric():
    assert ratio_err(EvalPair(10.0, 5.0)) == 2.0
    assert ratio_err(EvalPair(5.0, 10.0)) == 2.0
    assert ratio_err(EvalPair(7.0, 7.0)) == 1.0


@given(st.floats(0.01, 1e6), st.floats(0.01, 1e6))
def test_ratio_err_at_least_one(e, t):
    assert ratio_err(EvalPair(e, t)) >= 1.0


def test_ratio_buckets_boundaries():
    ps = pairs_of(
        (10.0, 10.0),   # r = 1.0       -> < 1.5
        (14.0, 10.0),   # r = 1.4       -> < 1.5
        (15.0, 10.0),   # r = 1.5       -> [1.5, 2]
        (20.0, 10.0),   # r = 2.0       -> [1.5, 2]
        (21.0, 10.0),   # r = 2.1       -> > 2
        (10.0, 30.0),   # r = 3.0       -> > 2
    )
    a, b, c = ratio_buckets(ps)
    assert (a, b, c) == pytest.approx((2 / 6, 2 / 6, 2 / 6))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.floats(0.01, 1e4), st.floats(0.01, 1e4)), min_size=1, max_size=50))
def test_ratio_buckets_sum_to_one(vals):
    a, b, c = ratio_buckets(pairs_of(*vals))
    assert a + b + c == pytest.approx(1.0)


def test_opt_baseline_closed_form_matches_grid():
    # [DERIVED] alpha = sum(x*y)/sum(x*x) beats a fine grid search
    rng = np.random.default_rng(0)
    xs = rng.uniform(1, 100, 50)
    ys = 7.0 * xs + rng.normal(0, 3, 50)
    alphas = fit_opt_baseline({OperatorType.Filter: list(zip(xs, ys))})
    alpha = alphas[OperatorType.Filter]
    want = float(np.dot(xs, ys) / np.dot(xs, xs))
    assert alpha == pytest.approx(want, rel=1e-12)
    sse = float(np.sum((ys - alpha * xs) ** 2))
    for a in np.linspace(alpha - 0.5, alpha + 0.5, 1001):
        assert sse <= float(np.sum((ys - a * xs) ** 2)) + 1e-9


def test_opt_baseline_rejects_degenerate():
    with pytest.raises(EvalError):
        fit_opt_baseline({OperatorType.Filter: []})
    with pytest.raises(EvalError):
        fit_opt_baseline({OperatorType.Filter: [(0.0, 1.0), (0.0, 2.0)]})


def _linear_examples(n=100, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        cin = float(rng.uniform(10, 1000))
        cout = cin * 0.5
        fv = FeatureVector(
            op=OperatorType.Filter,
            values={
                F.COUT: cout, F.SOUTAVG: 100.0, F.SOUTTOT: cout * 100.0,
                F.CIN1: cin, F.SINAVG1: 100.0, F.SINTOT1: cin * 100.0,
                F.OUTPUTUSAGE: 0.0,
            },
        )
        out.append((fv, 3.0 * cin + 50.0))
    return out


def _fit(examples, seed):
    return fit_linear_baseline(OperatorType.Filter, *as_rows(examples), seed=seed)


def _predict(model, fv) -> float:
    return float(model.predict_rows(dense_vector(fv, list(fv.values))[None, :])[0])


def test_linear_baseline_recovers_exact_relation():
    model = _fit(_linear_examples(), seed=0)
    fv, y = _linear_examples(n=1, seed=99)[0]
    assert _predict(model, fv) == pytest.approx(y, rel=1e-6)
    # Greedy selection should not need more than a couple of features for an
    # exact single-feature relation.
    assert 1 <= len(model.schema) <= 3


def test_linear_baseline_excludes_categorical():
    model = _fit(_linear_examples(), seed=0)
    assert F.OUTPUTUSAGE not in model.schema


def test_linear_baseline_intercept_only_on_constant_target():
    ex = [(fv, 42.0) for fv, _ in _linear_examples(n=30)]
    model = _fit(ex, seed=0)
    fv, _ = ex[0]
    assert _predict(model, fv) == pytest.approx(42.0, rel=1e-9)


def test_linear_baseline_deterministic():
    m1 = _fit(_linear_examples(), seed=7)
    m2 = _fit(_linear_examples(), seed=7)
    assert m1.schema == m2.schema
    assert np.array_equal(m1.coefficients, m2.coefficients)


def test_linear_baseline_needs_two_examples():
    with pytest.raises(EvalError):
        _fit(_linear_examples(n=1), seed=0)


def test_report_and_csv_shape():
    rep = make_report(pairs_of((10.0, 10.0), (30.0, 10.0)))
    assert rep.n == 2
    text = report_csv({"SCALING": rep})
    lines = text.strip().split("\n")
    assert lines[0] == "technique,L1,R<=1.5,R in [1.5:2],R>2"
    cells = lines[1].split(",")
    assert cells[0] == "SCALING"
    assert float(cells[1]) == pytest.approx(rep.l1_err)
    assert sum(float(c) for c in cells[2:]) == pytest.approx(1.0)


def test_report_json_fields():
    import json

    rep = make_report(pairs_of((10.0, 10.0)), excluded=2)
    doc = json.loads(report_json({"OPT": rep}))
    assert doc["OPT"]["n"] == 1
    assert doc["OPT"]["excluded"] == 2
    assert doc["OPT"]["l1_err"] == 0.0
