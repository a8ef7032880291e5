"""Per-example classification/regression losses and their analytic gradients.

All classification losses operate on raw logits.  Probabilities are obtained
through a numerically clamped sigmoid so that logs never see 0 or 1.  Every
function is vectorized over numpy arrays and accepts scalars as well; gradients
are taken with respect to the logit (classification) or the raw offset
difference (regression).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Probabilities are clamped to [EPS, 1 - EPS] before any log.
EPS = 1e-12


def sigmoid(logit):
    """Clamped sigmoid: output lies in [EPS, 1 - EPS]."""
    logit = np.asarray(logit, dtype=np.float64)
    # p = exp(min(x, 0)) / (1 + exp(-|x|)): the numerator is 1 on the x >= 0
    # side and e = exp(x) on the other.  exp(-|x|) never overflows, and
    # min(x, -x) is -|x| that keeps a NaN's sign, as -abs would not
    e = np.exp(np.minimum(logit, -logit))
    p = np.exp(np.minimum(logit, 0.0)) / (e + 1.0)
    return np.minimum(np.maximum(p, EPS), 1.0 - EPS)  # np.clip, without its call overhead


@dataclass(frozen=True)
class FocalParams:
    """Weighting factor alpha (foreground weight) and focusing factor gamma."""

    alpha: float = 0.25
    gamma: float = 2.0

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.gamma < 0.0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")


@dataclass(frozen=True)
class SceParams:
    """Symmetric cross entropy weights plus the finite stand-in for log(0)."""

    alpha_sce: float = 0.01
    beta_sce: float = 1.0
    log_zero_clamp: float = -4.0

    def __post_init__(self):
        if self.alpha_sce <= 0.0 or self.beta_sce < 0.0:
            raise ValueError("alpha_sce must be > 0 and beta_sce >= 0")
        if not np.isfinite(self.log_zero_clamp) or self.log_zero_clamp >= 0.0:
            raise ValueError("log_zero_clamp must be finite and negative")


def ce_loss(p, p_star):
    """Binary cross entropy: -log p if p*=1 else -log(1-p)."""
    p = np.asarray(p, dtype=np.float64)
    p_star = np.asarray(p_star, dtype=np.float64)
    return -(p_star * np.log(p) + (1.0 - p_star) * np.log(1.0 - p))


def gradient_norm(p, p_star):
    """|p - p*|: the magnitude of d(CE)/d(logit), always in [0, 1]."""
    p = np.asarray(p, dtype=np.float64)
    p_star = np.asarray(p_star, dtype=np.float64)
    return np.abs(p - p_star)


def ce_grad_logit(p, p_star):
    """d(CE)/d(logit) = p - p*."""
    p = np.asarray(p, dtype=np.float64)
    p_star = np.asarray(p_star, dtype=np.float64)
    return p - p_star


def focal_loss(p, p_star, params: FocalParams = FocalParams()):
    """alpha_t * g^gamma * CE, with alpha_t = alpha for p*=1 and 1-alpha for p*=0.

    Nonnegative by construction (see the sign-convention note in the README).
    """
    p = np.asarray(p, dtype=np.float64)
    p_star = np.asarray(p_star, dtype=np.float64)
    alpha_t = np.where(p_star == 1.0, params.alpha, 1.0 - params.alpha)
    g = gradient_norm(p, p_star)
    return alpha_t * g**params.gamma * ce_loss(p, p_star)


def focal_grad_logit(p, p_star, params: FocalParams = FocalParams()):
    """Analytic d(focal)/d(logit).

    For p*=1 (g = 1-p):  dL/dp = alpha * (gamma * g^(gamma-1) * ln p - g^gamma / p)
    For p*=0 (g = p):    dL/dp = (1-alpha) * (-gamma * g^(gamma-1) * ln(1-p) + g^gamma / (1-p))
    then chain through dp/dlogit = p(1-p).
    """
    p = np.asarray(p, dtype=np.float64)
    p_star = np.asarray(p_star, dtype=np.float64)
    alpha_t = np.where(p_star == 1.0, params.alpha, 1.0 - params.alpha)
    g = gradient_norm(p, p_star)
    gamma = params.gamma
    # g^(gamma-1) diverges at g=0 for gamma<1; the product with g-order terms is 0 there.
    with np.errstate(divide="ignore", invalid="ignore"):
        g_pow_m1 = np.where(g > 0.0, g ** (gamma - 1.0), 0.0 if gamma != 1.0 else 1.0)
    log_correct = np.where(p_star == 1.0, np.log(p), np.log(1.0 - p))
    sign = np.where(p_star == 1.0, 1.0, -1.0)
    dL_dp = alpha_t * (sign * gamma * g_pow_m1 * log_correct - sign * g**gamma / np.where(p_star == 1.0, p, 1.0 - p))
    return dL_dp * p * (1.0 - p)


def sce_loss(p, p_star, params: SceParams = SceParams()):
    """Symmetric cross entropy: alpha_sce * CE(p, p*) + beta_sce * RCE(p, p*).

    RCE is the reversed cross entropy -[p log p* + (1-p) log(1-p*)] where
    log(0) is replaced by the finite clamp constant.
    """
    p = np.asarray(p, dtype=np.float64)
    p_star = np.asarray(p_star, dtype=np.float64)
    a = params.log_zero_clamp
    # p*=1: RCE = -(1-p) * a;  p*=0: RCE = -p * a
    rce = np.where(p_star == 1.0, -(1.0 - p) * a, -p * a)
    return params.alpha_sce * ce_loss(p, p_star) + params.beta_sce * rce


def sce_grad_logit(p, p_star, params: SceParams = SceParams()):
    """Analytic d(SCE)/d(logit)."""
    p = np.asarray(p, dtype=np.float64)
    p_star = np.asarray(p_star, dtype=np.float64)
    a = params.log_zero_clamp
    drce_dp = np.where(p_star == 1.0, a, -a)
    dce_dlogit = ce_grad_logit(p, p_star)
    return params.alpha_sce * dce_dlogit + params.beta_sce * drce_dp * p * (1.0 - p)


def smooth_l1_and_grad(x):
    """Smooth-L1 loss and its derivative, the quadratic zone found once: 0.5 x^2
    and x for |x| < 1, |x| - 0.5 and sign(x) otherwise (transition fixed at 1).
    """
    x = np.asarray(x, dtype=np.float64)
    ax = np.abs(x)
    clipped = np.minimum(ax, 1.0)  # |x| in the quadratic zone, else 1
    # (|x| - 0.5 c) c is 0.5 x^2 exactly where c = |x|, as halving is exact
    return (ax - 0.5 * clipped) * clipped, np.copysign(clipped, x)
