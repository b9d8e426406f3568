"""Fixed-form asymptotic scaling functions: evaluation, fitting, selection.

Each form is y = alpha * b(x) for a basis b with at most one shape parameter
(the Power exponent). alpha has the closed-form least-squares solution
sum(b*y) / sum(b*b); the Power exponent is chosen from a small grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Sequence

import numpy as np

from .features import FeatureId, lg


class ScalingError(ValueError):
    """Raised for degenerate observations or invalid form arguments."""


class FormKind(IntEnum):
    Linear = 1        # g(F) = a*F
    NLogN = 2         # g(F) = a*F*log2(F)
    Power = 3         # g(F) = a*F^b
    Log = 4           # g(F) = a*log2(F)
    Product2 = 5      # g(F1,F2) = a*F1*F2
    Sum2 = 6          # g(F1,F2) = a*(F1+F2)
    FLogSecond = 7    # g(F1,F2) = a*F1*log2(F2)


# Bound once for per-operator code: see plan.py's operator bindings.
Linear, NLogN, Power, Log, Product2, Sum2, FLogSecond = FormKind

POWER_EXPONENT_GRID = (0.5, 1.25, 1.5, 2.0, 3.0)

TWO_FEATURE_KINDS = frozenset({FormKind.Product2, FormKind.Sum2, FormKind.FLogSecond})

#: Number of fitted parameters, used as a tie-break in form selection.
N_PARAMS = {k: (2 if k is FormKind.Power else 1) for k in FormKind}

SINGLE_FEATURE_CANDIDATES = (FormKind.Linear, FormKind.NLogN, FormKind.Power, FormKind.Log)

TWO_FEATURE_CANDIDATES = (FormKind.Product2, FormKind.Sum2, FormKind.FLogSecond)


def basis(kind: FormKind, values: Sequence[float], beta: float = 1.0) -> float:
    """The form evaluated with alpha = 1; a result too large for a float
    raises :class:`ScalingError`."""
    try:
        value = _basis(kind, values, beta)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ScalingError(f"{kind.name} scale factor overflows on {list(values)}")
    return value


def _basis(kind: FormKind, values: Sequence[float], beta: float) -> float:
    if kind in TWO_FEATURE_KINDS:
        if len(values) != 2:
            raise ScalingError(f"{kind.name} takes two feature values")
        v1, v2 = float(values[0]), float(values[1])
        if v1 <= 0 or v2 <= 0:
            raise ScalingError("scaling features must be positive")
        if kind is Product2:
            return v1 * v2
        if kind is Sum2:
            return v1 + v2
        return v1 * lg(v2)
    if len(values) != 1:
        raise ScalingError(f"{kind.name} takes one feature value")
    v = float(values[0])
    if v <= 0:
        raise ScalingError("scaling features must be positive")
    if kind is Linear:
        return v
    if kind is NLogN:
        return v * lg(v)
    if kind is Power:
        return v**beta
    return lg(v)


@dataclass(frozen=True)
class ScalingForm:
    kind: FormKind
    alpha: float
    features: tuple[FeatureId, ...]
    beta: float = 1.0


def _fit_alpha(b: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """``(alpha, SSE)``; a sum that overflows a float raises :class:`ScalingError`."""
    with np.errstate(over="ignore", invalid="ignore"):
        denom = float(np.dot(b, b))
        if denom == 0.0:
            raise ScalingError("degenerate observations: all-zero basis")
        alpha = float(np.dot(b, y)) / denom
        resid = y - alpha * b
        sse = float(np.dot(resid, resid))
    if not (math.isfinite(denom) and math.isfinite(alpha) and math.isfinite(sse)):
        raise ScalingError("fit overflows: observations too large for a float")
    return alpha, sse


def fit_form(
    kind: FormKind,
    features: Sequence[FeatureId],
    observations: Sequence[tuple[Sequence[float], float]],
) -> tuple[ScalingForm, float]:
    """Least-squares fit of one candidate form; returns (form, residual SSE)."""
    if len(observations) < 2:
        raise ScalingError("need at least 2 observations")
    xs = [obs[0] for obs in observations]
    y = np.array([obs[1] for obs in observations], dtype=np.float64)
    if kind is FormKind.Power:
        # An exponent whose basis or fit overflows a float is skipped; the
        # fit fails only when every exponent does.
        best: tuple[float, float, float] | None = None  # (sse, beta, alpha)
        for beta in POWER_EXPONENT_GRID:
            try:
                b = np.array([basis(kind, x, beta) for x in xs])
                alpha, sse = _fit_alpha(b, y)
            except ScalingError as exc:
                failure = exc
                continue
            if best is None or sse < best[0] - 1e-12 * (1 + best[0]):
                best = (sse, beta, alpha)
        if best is None:
            raise failure
        sse, beta, alpha = best
        return ScalingForm(kind, alpha, tuple(features), beta), sse
    b = np.array([basis(kind, x) for x in xs])
    alpha, sse = _fit_alpha(b, y)
    return ScalingForm(kind, alpha, tuple(features)), sse


def fit_candidates(
    candidates: Sequence[FormKind],
    features: Sequence[FeatureId],
    observations: Sequence[tuple[Sequence[float], float]],
) -> list[tuple[ScalingForm, float]]:
    """Fit every candidate form; returns ``(form, residual SSE)`` in candidate
    order.

    FLogSecond is asymmetric, so with two features it is fitted in both
    feature orders, the given order first; observations are reordered to match.
    """
    features = tuple(features)
    fitted = []
    for kind in candidates:
        orders = [features]
        if kind is FormKind.FLogSecond and len(features) == 2:
            orders.append((features[1], features[0]))
        for order in orders:
            perm = [features.index(f) for f in order]
            obs = [([x[i] for i in perm], y) for x, y in observations]
            fitted.append(fit_form(kind, order, obs))
    return fitted


def select_form(
    candidates: Sequence[FormKind],
    features: Sequence[FeatureId],
    observations: Sequence[tuple[Sequence[float], float]],
) -> ScalingForm:
    """Fit every candidate and return the :func:`best_form` of the fits."""
    if len(candidates) < 2:
        raise ScalingError("need at least 2 candidate forms")
    return best_form(fit_candidates(candidates, features, observations))


def best_form(fitted: Sequence[tuple[ScalingForm, float]]) -> ScalingForm:
    """The form of :func:`fit_candidates`' list with the smallest residual SSE.

    Ties (within relative 1e-9) prefer fewer fitted parameters, then the lower
    form code, then the earlier fit.
    """
    best_sse = min(sse for _, sse in fitted)
    tol = 1e-9 * (1.0 + abs(best_sse))
    near = [
        (N_PARAMS[form.kind], int(form.kind), seq, form)
        for seq, (form, sse) in enumerate(fitted)
        if sse <= best_sse + tol
    ]
    return min(near)[3]
