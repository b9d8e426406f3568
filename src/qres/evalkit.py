"""Error metrics, adjusted-optimizer and linear baselines, comparison reports."""
from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .features import FeatureBatch, FeatureId, applicable_features, featurize_many
from .plan import OperatorType, QueryPlan, ordered_sum

#: An estimator maps a featurized corpus to one total per plan, in plan order.
EstimatorFn = Callable[[FeatureBatch], Sequence[float]]


class EvalError(ValueError):
    """Raised for empty or degenerate metric input."""


@dataclass(frozen=True)
class EvalPair:
    estimate: float
    true_usage: float


@dataclass
class EvalReport:
    l1_err: float
    frac_le_15: float
    frac_mid: float
    frac_gt_2: float
    n: int
    excluded: int


def l1_err(pairs: Sequence[EvalPair]) -> float:
    """Mean relative error, normalized by the estimate."""
    if not pairs:
        raise EvalError("no pairs")
    return ordered_sum(abs(p.estimate - p.true_usage) / p.estimate for p in pairs) / len(pairs)


def ratio_err(pair: EvalPair) -> float:
    return max(pair.estimate / pair.true_usage, pair.true_usage / pair.estimate)


def ratio_buckets(pairs: Sequence[EvalPair]) -> tuple[float, float, float]:
    """Fractions of pairs with ratio error < 1.5, in [1.5, 2], and > 2."""
    if not pairs:
        raise EvalError("no pairs")
    a = b = c = 0
    for p in pairs:
        r = ratio_err(p)
        if r < 1.5:
            a += 1
        elif r <= 2.0:
            b += 1
        else:
            c += 1
    n = len(pairs)
    return (a / n, b / n, c / n)


def make_report(pairs: Sequence[EvalPair], excluded: int = 0) -> EvalReport:
    a, b, c = ratio_buckets(pairs)
    return EvalReport(
        l1_err=l1_err(pairs), frac_le_15=a, frac_mid=b, frac_gt_2=c,
        n=len(pairs), excluded=excluded,
    )


# ---------------------------------------------------------------------------
# Baselines


def fit_opt_baseline(
    samples_by_op: dict[OperatorType, Sequence[tuple[float, float]]]
) -> dict[OperatorType, float]:
    """Per-operator adjustment factors minimizing sum (alpha*x - y)^2.

    x is the optimizer cost estimate, y the observed usage.
    """
    out = {}
    for op, samples in samples_by_op.items():
        if not samples:
            raise EvalError(f"no samples for {op.name}")
        sxx = ordered_sum(x * x for x, _ in samples)
        if sxx == 0.0:
            raise EvalError(f"all-zero optimizer estimates for {op.name}")
        sxy = ordered_sum(x * y for x, y in samples)
        out[op] = sxy / sxx
    return out


@dataclass
class LinearOpModel:
    schema: list[FeatureId]       # selected features, by code
    coefficients: np.ndarray      # aligned with schema
    intercept: float

    def predict_rows(self, X: np.ndarray) -> np.ndarray:
        """The prediction for every code-indexed row of ``X``, its terms
        added in schema order."""
        acc = np.full(len(X), self.intercept)
        for f, c in zip(self.schema, self.coefficients):
            acc = acc + c * X[:, f]
        return acc


def _ols(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    design = np.hstack([X, np.ones((len(y), 1))])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    return coef


def fit_linear_baseline(
    op: OperatorType, X: np.ndarray, y: np.ndarray, seed: int = 0
) -> LinearOpModel:
    """OLS with intercept and greedy forward feature selection, on op's raw
    rows ``X`` (code-indexed) and targets ``y``.

    Selection minimizes SSE on a held-out fifth of the rows; a feature is
    added only on strict improvement, so exact duplicates of an already
    selected feature are never added (the lowest code wins ties). The final
    coefficients are refit on all rows.
    """
    if len(y) < 2:
        raise EvalError("need at least 2 examples")
    features = [f for f in applicable_features(op) if f is not FeatureId.OUTPUTUSAGE]
    Xall, yall = X[:, features], y
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(yall))
    n_val = max(1, len(yall) // 5)
    val_idx, fit_idx = order[:n_val], order[n_val:]
    if len(fit_idx) == 0:
        fit_idx = val_idx
    Xf, yf = Xall[fit_idx], yall[fit_idx]
    Xv, yv = Xall[val_idx], yall[val_idx]

    def val_sse(cols: list[int]) -> float:
        if cols:
            coef = _ols(Xf[:, cols], yf)
            pred = Xv[:, cols] @ coef[:-1] + coef[-1]
        else:
            pred = np.full(len(yv), yf.mean())
        resid = yv - pred
        return float(resid @ resid)

    selected: list[int] = []
    current = val_sse(selected)
    remaining = list(range(len(features)))
    while remaining:
        best_col, best_sse = None, current
        for col in remaining:
            sse = val_sse(selected + [col])
            if sse < best_sse - 1e-12 * (1.0 + best_sse):
                best_col, best_sse = col, sse
        if best_col is None:
            break
        selected.append(best_col)
        remaining.remove(best_col)
        current = best_sse

    if selected:
        coef = _ols(Xall[:, selected], yall)
        return LinearOpModel(
            schema=[features[c] for c in selected],
            coefficients=coef[:-1],
            intercept=float(coef[-1]),
        )
    return LinearOpModel(schema=[], coefficients=np.zeros(0), intercept=float(yall.mean()))


# ---------------------------------------------------------------------------
# Comparative evaluation


def compare(
    estimators: dict[str, EstimatorFn],
    corpus: Sequence[QueryPlan],
    resource: str,
    source: str = "true",
) -> dict[str, EvalReport]:
    """Query-granularity evaluation of each estimator against observed totals;
    the corpus is featurized once, with ``source`` cardinalities, for all."""
    batch = featurize_many(corpus, source)
    truths = [plan.observed_total(resource) for plan in corpus]
    reports = {}
    for name, estimator in estimators.items():
        pairs = []
        excluded = 0
        for true_usage, estimate in zip(truths, estimator(batch)):
            if estimate <= 0.0 or true_usage <= 0.0:
                excluded += 1
                continue
            pairs.append(EvalPair(estimate, true_usage))
        if not pairs:
            raise EvalError(f"estimator {name!r}: no evaluable pairs")
        reports[name] = make_report(pairs, excluded)
    return reports


def report_csv(reports: dict[str, EvalReport]) -> str:
    buf = io.StringIO()
    buf.write("technique,L1,R<=1.5,R in [1.5:2],R>2\n")
    for name, rep in reports.items():
        buf.write(
            f"{name},{rep.l1_err:.6f},{rep.frac_le_15:.6f},"
            f"{rep.frac_mid:.6f},{rep.frac_gt_2:.6f}\n"
        )
    return buf.getvalue()


def report_json(reports: dict[str, EvalReport]) -> str:
    doc = {
        name: {
            "l1_err": rep.l1_err,
            "ratio_le_1.5": rep.frac_le_15,
            "ratio_1.5_to_2": rep.frac_mid,
            "ratio_gt_2": rep.frac_gt_2,
            "n": rep.n,
            "excluded": rep.excluded,
        }
        for name, rep in reports.items()
    }
    return json.dumps(doc, indent=2, sort_keys=True)
