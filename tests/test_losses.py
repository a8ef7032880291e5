"""Unit tests for the per-example loss kernels and their analytic gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dghm.losses import (
    EPS,
    FocalParams,
    SceParams,
    ce_grad_logit,
    ce_loss,
    focal_grad_logit,
    focal_loss,
    gradient_norm,
    sce_grad_logit,
    sce_loss,
    sigmoid,
    smooth_l1_and_grad,
)

probs = st.floats(min_value=1e-9, max_value=1.0 - 1e-9)
labels = st.sampled_from([0.0, 1.0])


def smooth_l1(x):
    """Reference smooth-L1 loss: 0.5 x^2 for |x| < 1, |x| - 0.5 otherwise."""
    x = np.asarray(x, dtype=np.float64)
    ax = np.abs(x)
    return np.where(ax < 1.0, 0.5 * x * x, ax - 0.5)


def smooth_l1_grad(x):
    """Reference smooth-L1 derivative: x for |x| < 1, sign(x) otherwise."""
    return np.where(np.abs(x) < 1.0, x, np.sign(x))


def numeric_grad(fn, logit, h=1e-6):
    return (fn(logit + h) - fn(logit - h)) / (2.0 * h)


# ---------------------------------------------------------------------------
# sigmoid
# ---------------------------------------------------------------------------


def test_sigmoid_midpoint_and_symmetry():
    assert sigmoid(0.0) == 0.5
    x = np.linspace(-30, 30, 101)
    np.testing.assert_allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-12)


def test_sigmoid_is_clamped_away_from_0_and_1():
    assert sigmoid(-1e6) >= EPS
    assert sigmoid(1e6) <= 1.0 - EPS
    assert np.isfinite(ce_loss(sigmoid(-1e6), 1.0))


def two_exp_sigmoid(logit):
    """The clamped sigmoid as it was written with one exp per branch."""
    logit = np.asarray(logit, dtype=np.float64)
    neg = np.exp(np.minimum(logit, 0.0))
    pos = np.exp(-np.maximum(logit, 0.0))
    p = np.where(logit >= 0, 1.0 / (1.0 + pos), neg / (1.0 + neg))
    return np.minimum(np.maximum(p, EPS), 1.0 - EPS)


def test_sigmoid_equals_the_two_exp_form_bit_for_bit():
    tiny = np.finfo(np.float64).smallest_subnormal
    edges = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 709.0, -709.0, 745.0, -745.0,
                      tiny, -tiny, 1e3 * tiny, -1e3 * tiny, np.finfo(np.float64).tiny / 2])
    rng = np.random.default_rng(0)
    logits = np.concatenate([edges, rng.normal(scale=20.0, size=100_000)])
    with np.errstate(over="raise"):  # exp(-|x|) must never overflow
        got = sigmoid(logits)
    np.testing.assert_array_equal(got.view(np.uint64), two_exp_sigmoid(logits).view(np.uint64))
    assert np.isnan(got[4:6]).all()  # NaN in, NaN out, with its sign
    assert sigmoid(-0.0) == 0.5


def test_sigmoid_output_reaches_the_clamp_bounds():
    np.testing.assert_array_equal(sigmoid([-800.0, -40.0, 40.0, 800.0]),
                                  [EPS, EPS, 1.0 - EPS, 1.0 - EPS])


# ---------------------------------------------------------------------------
# cross entropy
# ---------------------------------------------------------------------------


def test_ce_known_values():
    assert ce_loss(0.5, 1.0) == pytest.approx(np.log(2.0))
    assert ce_loss(0.5, 0.0) == pytest.approx(np.log(2.0))
    assert ce_loss(1.0 - 1e-9, 1.0) == pytest.approx(1e-9, rel=1e-3)


@given(p=probs, p_star=labels)
def test_ce_nonnegative(p, p_star):
    assert ce_loss(p, p_star) >= 0.0


@given(logit=st.floats(min_value=-8, max_value=8), p_star=labels)
@settings(max_examples=200)
def test_ce_grad_matches_finite_difference(logit, p_star):
    an = ce_grad_logit(sigmoid(logit), p_star)
    fd = numeric_grad(lambda z: ce_loss(sigmoid(z), p_star), logit)
    assert an == pytest.approx(fd, abs=1e-6)


@given(logit=st.floats(min_value=-25, max_value=25), p_star=labels)
def test_gradient_norm_definition_and_range(logit, p_star):
    p = sigmoid(logit)
    g = gradient_norm(p, p_star)
    assert g == pytest.approx(abs(ce_grad_logit(p, p_star)))
    assert 0.0 <= g <= 1.0


# ---------------------------------------------------------------------------
# focal loss
# ---------------------------------------------------------------------------


def test_focal_reduces_to_half_ce():
    # gamma=0 removes modulation; alpha=0.5 halves both classes
    params = FocalParams(alpha=0.5, gamma=0.0)
    p = np.linspace(0.01, 0.99, 37)
    for p_star in (0.0, 1.0):
        np.testing.assert_allclose(focal_loss(p, np.full_like(p, p_star), params),
                                   0.5 * ce_loss(p, np.full_like(p, p_star)),
                                   rtol=1e-12)


def test_focal_downweights_easy_examples():
    params = FocalParams(alpha=0.25, gamma=2.0)
    easy, hard = 0.95, 0.3
    ratio_focal = focal_loss(easy, 1.0, params) / focal_loss(hard, 1.0, params)
    ratio_ce = ce_loss(easy, 1.0) / ce_loss(hard, 1.0)
    assert ratio_focal < ratio_ce


@given(p=probs, p_star=labels,
       alpha=st.floats(min_value=0.0, max_value=1.0),
       gamma=st.floats(min_value=0.0, max_value=5.0))
@settings(max_examples=200)
def test_focal_nonnegative(p, p_star, alpha, gamma):
    assert focal_loss(p, p_star, FocalParams(alpha=alpha, gamma=gamma)) >= 0.0


@given(logit=st.floats(min_value=-8, max_value=8), p_star=labels,
       gamma=st.sampled_from([0.5, 1.0, 2.0, 3.0]))
@settings(max_examples=200)
def test_focal_grad_matches_finite_difference(logit, p_star, gamma):
    params = FocalParams(alpha=0.25, gamma=gamma)
    an = focal_grad_logit(sigmoid(logit), p_star, params)
    fd = numeric_grad(lambda z: focal_loss(sigmoid(z), p_star, params), logit)
    assert an == pytest.approx(fd, abs=2e-6)


def test_focal_params_validation():
    with pytest.raises(ValueError):
        FocalParams(alpha=1.5)
    with pytest.raises(ValueError):
        FocalParams(gamma=-0.1)


# ---------------------------------------------------------------------------
# symmetric cross entropy
# ---------------------------------------------------------------------------


def test_sce_pinned_value():
    # p=0.5, p*=1, alpha=0.01, beta=1, clamp=-4:
    #   0.01 * ln 2 + 1.0 * (0.5 * 4) = 2.0069314718...
    params = SceParams(alpha_sce=0.01, beta_sce=1.0, log_zero_clamp=-4.0)
    assert sce_loss(0.5, 1.0, params) == pytest.approx(
        0.01 * np.log(2.0) + 2.0, abs=1e-12)
    assert sce_loss(0.5, 1.0, params) == pytest.approx(2.00693, abs=5e-6)


def test_sce_reduces_to_scaled_ce():
    params = SceParams(alpha_sce=0.37, beta_sce=0.0)
    p = np.linspace(0.01, 0.99, 29)
    for p_star in (0.0, 1.0):
        np.testing.assert_allclose(sce_loss(p, np.full_like(p, p_star), params),
                                   0.37 * ce_loss(p, np.full_like(p, p_star)),
                                   rtol=1e-12)


def test_sce_reverse_term_symmetry():
    # the RCE part is symmetric under (p, p*) -> (1-p, 1-p*)
    params = SceParams(alpha_sce=0.01, beta_sce=1.0)
    a = sce_loss(0.2, 1.0, params) - 0.01 * ce_loss(0.2, 1.0)
    b = sce_loss(0.8, 0.0, params) - 0.01 * ce_loss(0.8, 0.0)
    assert a == pytest.approx(b, abs=1e-12)


@given(logit=st.floats(min_value=-8, max_value=8), p_star=labels)
@settings(max_examples=200)
def test_sce_grad_matches_finite_difference(logit, p_star):
    params = SceParams()
    an = sce_grad_logit(sigmoid(logit), p_star, params)
    fd = numeric_grad(lambda z: sce_loss(sigmoid(z), p_star, params), logit)
    assert an == pytest.approx(fd, abs=1e-6)


def test_sce_params_validation():
    with pytest.raises(ValueError):
        SceParams(alpha_sce=0.0)
    with pytest.raises(ValueError):
        SceParams(log_zero_clamp=0.5)


# ---------------------------------------------------------------------------
# smooth L1
# ---------------------------------------------------------------------------


def test_smooth_l1_known_values():
    assert smooth_l1(0.0) == 0.0
    assert smooth_l1(0.5) == pytest.approx(0.125)
    assert smooth_l1(2.0) == pytest.approx(1.5)
    assert smooth_l1(-2.0) == pytest.approx(1.5)


def test_smooth_l1_continuous_at_kink():
    below = smooth_l1(1.0 - 1e-9)
    above = smooth_l1(1.0 + 1e-9)
    assert below == pytest.approx(above, abs=1e-8)
    assert smooth_l1(1.0) == pytest.approx(0.5)


@given(x=st.floats(min_value=-10, max_value=10))
@settings(max_examples=200)
def test_smooth_l1_grad_matches_finite_difference(x):
    if abs(abs(x) - 1.0) < 1e-4:  # exclude the kink
        x += 0.01
    fd = (smooth_l1(x + 1e-6) - smooth_l1(x - 1e-6)) / 2e-6
    assert smooth_l1_grad(x) == pytest.approx(fd, abs=1e-6)


@given(x=st.floats(min_value=-10, max_value=10))
def test_smooth_l1_even_and_nonnegative(x):
    assert smooth_l1(x) >= 0.0
    assert smooth_l1(x) == pytest.approx(smooth_l1(-x))


def test_smooth_l1_and_grad_equals_the_two_where_forms_bit_for_bit():
    rng = np.random.default_rng(1)
    x = np.concatenate([[0.0, -0.0, 1.0, -1.0, np.nextafter(1.0, 0.0), 1e-300],
                        rng.normal(scale=2.0, size=10_000)]).reshape(-1, 2)
    loss, grad = smooth_l1_and_grad(x)
    np.testing.assert_array_equal(loss, smooth_l1(x))
    np.testing.assert_array_equal(grad, smooth_l1_grad(x))
    assert loss.shape == grad.shape == x.shape
