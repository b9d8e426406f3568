"""Scaling-form evaluation, closed-form fitting, and model-form selection."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qres.features import FeatureId
from qres.scaling import (
    POWER_EXPONENT_GRID,
    SINGLE_FEATURE_CANDIDATES,
    FormKind,
    ScalingError,
    ScalingForm,
    basis,
    fit_form,
    select_form,
)

F = FeatureId
ONE = (F.CIN1,)
TWO = (F.CIN1, F.CIN2)


def obs1(xs, fn):
    return [([float(x)], float(fn(x))) for x in xs]


def obs2(pairs, fn):
    return [([float(a), float(b)], float(fn(a, b))) for a, b in pairs]


def test_basis_values():
    # [DERIVED] direct evaluation of each documented form with alpha = 1
    assert basis(FormKind.Linear, [8.0]) == 8.0
    assert basis(FormKind.NLogN, [8.0]) == 24.0
    assert basis(FormKind.Power, [4.0], beta=2.0) == 16.0
    assert basis(FormKind.Log, [1024.0]) == 10.0
    assert basis(FormKind.Product2, [3.0, 7.0]) == 21.0
    assert basis(FormKind.Sum2, [3.0, 7.0]) == 10.0
    assert basis(FormKind.FLogSecond, [3.0, 16.0]) == 12.0


def test_basis_log_clamp():
    # Arguments below 2 use lg(x) = 1, keeping bases positive.
    assert basis(FormKind.NLogN, [1.0]) == 1.0
    assert basis(FormKind.Log, [0.5]) == 1.0
    assert basis(FormKind.FLogSecond, [5.0, 1.5]) == 5.0


def test_basis_rejects_nonpositive_and_wrong_arity():
    with pytest.raises(ScalingError):
        basis(FormKind.Linear, [0.0])
    with pytest.raises(ScalingError):
        basis(FormKind.Product2, [1.0, -2.0])
    with pytest.raises(ScalingError):
        basis(FormKind.Linear, [1.0, 2.0])
    with pytest.raises(ScalingError):
        basis(FormKind.Sum2, [1.0])


def test_basis_overflow_is_scaling_error():
    # A float ** raises OverflowError and a float product returns inf; both
    # become ScalingError.
    with pytest.raises(ScalingError, match="overflows"):
        basis(FormKind.Power, [1e120], beta=3.0)
    with pytest.raises(ScalingError, match="overflows"):
        basis(FormKind.Product2, [1e200, 1e200])
    assert basis(FormKind.Power, [1e100], beta=3.0) == 1e100**3.0


def test_fit_alpha_closed_form_matches_grid_search():
    # [DERIVED] alpha = sum(b*y)/sum(b*b) must beat a fine brute-force grid.
    rng = np.random.default_rng(0)
    xs = rng.uniform(1, 100, 40)
    ys = 3.7 * xs + rng.normal(0, 5, 40)
    form, sse = fit_form(FormKind.Linear, ONE, obs1(xs, lambda x: 0) and
                         [([float(x)], float(y)) for x, y in zip(xs, ys)])
    b = xs
    for alpha in np.linspace(form.alpha - 1.0, form.alpha + 1.0, 2001):
        grid_sse = float(np.sum((ys - alpha * b) ** 2))
        assert sse <= grid_sse + 1e-9 * (1 + grid_sse)
    assert form.alpha == pytest.approx(float(np.dot(b, ys) / np.dot(b, b)))


def test_fit_exact_curves_recover_alpha():
    xs = [10, 50, 100, 500, 1000]
    cases = [
        (FormKind.Linear, lambda x: 4.0 * x, 4.0),
        (FormKind.NLogN, lambda x: 2.0 * x * math.log2(x), 2.0),
        (FormKind.Log, lambda x: 7.0 * math.log2(x), 7.0),
    ]
    for kind, fn, alpha in cases:
        form, sse = fit_form(kind, ONE, obs1(xs, fn))
        assert form.alpha == pytest.approx(alpha)
        assert sse == pytest.approx(0.0, abs=1e-15 * alpha**2 * max(xs) ** 2)


def test_power_grid_selects_planted_exponent():
    for beta in POWER_EXPONENT_GRID:
        form, _ = fit_form(
            FormKind.Power, ONE, obs1([2, 5, 9, 17, 33], lambda x, b=beta: 1.5 * x**b)
        )
        assert form.beta == beta
        assert form.alpha == pytest.approx(1.5)


def test_power_fit_skips_exponents_that_overflow():
    # (1e60) ** 3 squared leaves the float range, so beta = 3 is skipped and
    # the other exponents still fit.
    form, sse = fit_form(FormKind.Power, ONE, obs1([1e60, 2e60, 3e60], lambda x: 1e-120 * x**2))
    assert (form.beta, sse) == (2.0, pytest.approx(0.0, abs=1e-20))
    assert form.alpha == pytest.approx(1e-120)
    # When every exponent overflows, the fit fails.
    with pytest.raises(ScalingError, match="overflows"):
        fit_form(FormKind.Power, ONE, [([1e300], 1e200), ([2e300], 2e200)])


def test_fit_requires_two_observations():
    with pytest.raises(ScalingError, match="at least 2"):
        fit_form(FormKind.Linear, ONE, [([1.0], 1.0)])


def eval_form(form: ScalingForm, values) -> float:
    return form.alpha * basis(form.kind, values, form.beta)


def test_eval_form_roundtrip():
    form = ScalingForm(FormKind.NLogN, alpha=2.5, features=ONE)
    assert eval_form(form, [16.0]) == pytest.approx(2.5 * 16.0 * 4.0)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(min_value=1.0, max_value=1e6), min_size=2, max_size=20, unique=True),
    st.floats(min_value=0.01, max_value=100.0),
)
def test_fit_on_exact_linear_data_is_exact(xs, alpha):
    form, sse = fit_form(FormKind.Linear, ONE, obs1(xs, lambda x: alpha * x))
    assert form.alpha == pytest.approx(alpha, rel=1e-9)


# ---------------------------------------------------------------------------
# Selection


def test_select_prefers_true_generating_form():
    xs = [4, 16, 64, 256, 1024, 4096]
    picks = [
        (lambda x: 3.0 * x, FormKind.Linear),
        (lambda x: 0.5 * x * math.log2(x), FormKind.NLogN),
        (lambda x: 0.1 * x * x, FormKind.Power),
        (lambda x: 9.0 * math.log2(x), FormKind.Log),
    ]
    for fn, want in picks:
        form = select_form(SINGLE_FEATURE_CANDIDATES, ONE, obs1(xs, fn))
        assert form.kind is want, f"expected {want.name}, got {form.kind.name}"


def test_select_tie_prefers_fewer_params_then_lower_code():
    # Power with beta=1 duplicates Linear exactly; the tie must resolve to
    # Linear (1 parameter, lower code), deterministically.
    xs = [1, 2, 3, 4, 5]
    form = select_form(
        (FormKind.Power, FormKind.Linear), ONE, obs1(xs, lambda x: 2.0 * x)
    )
    assert form.kind is FormKind.Linear


def test_select_two_feature_forms():
    pairs = [(a, b) for a in (2, 8, 32) for b in (3, 9, 81)]
    cases = [
        (lambda a, b: 2.0 * a * b, FormKind.Product2),
        (lambda a, b: 5.0 * (a + b), FormKind.Sum2),
        (lambda a, b: 1.5 * a * math.log2(b), FormKind.FLogSecond),
    ]
    for fn, want in cases:
        form = select_form(
            (FormKind.Product2, FormKind.Sum2, FormKind.FLogSecond),
            TWO, obs2(pairs, fn),
        )
        assert form.kind is want


def test_select_flogsecond_both_orientations():
    # The asymmetric form must be tried in both feature orders; the generating
    # orientation (log on CIN1) wins.
    pairs = [(a, b) for a in (2, 8, 32, 128) for b in (3, 9, 81)]
    form = select_form(
        (FormKind.Product2, FormKind.Sum2, FormKind.FLogSecond),
        TWO, obs2(pairs, lambda a, b: 4.0 * b * math.log2(a)),
    )
    assert form.kind is FormKind.FLogSecond
    assert form.features == (F.CIN2, F.CIN1)


def test_select_requires_multiple_candidates():
    with pytest.raises(ScalingError):
        select_form((FormKind.Linear,), ONE, obs1([1, 2], lambda x: x))


def test_select_deterministic():
    rng = np.random.default_rng(4)
    xs = rng.uniform(2, 500, 30)
    ys = 2.0 * xs * np.log2(xs) + rng.normal(0, 10, 30)
    obs = [([float(x)], float(y)) for x, y in zip(xs, ys)]
    forms = {select_form(SINGLE_FEATURE_CANDIDATES, ONE, obs) for _ in range(5)}
    assert len(forms) == 1
