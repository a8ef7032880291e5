"""Gradient-density estimation over decoupled example partitions.

The harmonizer bins gradient norms g = |p - p*| into fixed unit regions over
[0, 1], estimates the gradient density GD(g) = count_in_bin / region_length
(the unit region around g clipped to [0, 1]), and turns it into per-example
weights

    beta_i = N' / GD(g_i)^{gamma_i}

where gamma_i switches to mu_n (noisy outliers, g >= lambda) or mu_c (clean
outliers) and is 1 otherwise.  Three modes are supported:

* GHM       -- one pooled histogram, gamma forced to 1 (classic GHM-C).
* DGHM      -- two histograms: noisy (negatives from abnormal scenes) vs clean.
* DGHM_STAR -- three histograms: abnormal-positive, abnormal-negative,
               normal-negative.

An example's partition is an integer code indexing MODE_PARTITIONS[mode], and
a mode's histograms are one (M, B) array of bin counts whose rows follow the
same order, so the three modes share one weighted-CE kernel with M = 1, 2 or 3.
One histogram path serves the training step, the trainer's per-epoch
counts, the whole-pool counts and the figure curves: flat_bins checks g and
gives each (code, bin) pair its index code * B + bin into the raveled counts,
bin_counts counts that index as (M, B) and gradient_density reads it back.
Weights are constants of the current batch: no gradient ever flows through
the histogram or beta.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property

import numpy as np

from .losses import (
    EPS,
    FocalParams,
    SceParams,
    focal_grad_logit,
    focal_loss,
    sce_grad_logit,
    sce_loss,
    sigmoid,
)


class Mode(str, Enum):
    GHM = "GHM"
    DGHM = "DGHM"
    DGHM_STAR = "DGHM_STAR"


class Partition(str, Enum):
    POOLED = "pooled"
    CLEAN = "clean"
    NOISY = "noisy"
    AP_POS = "ap_pos"
    AP_NEG = "ap_neg"
    NP_NEG = "np_neg"


#: Partitions a mode can produce, in canonical order: partition codes and
#: histogram rows index this tuple.
MODE_PARTITIONS = {
    Mode.GHM: (Partition.POOLED,),
    Mode.DGHM: (Partition.CLEAN, Partition.NOISY),
    Mode.DGHM_STAR: (Partition.AP_POS, Partition.AP_NEG, Partition.NP_NEG),
}

#: Per mode, a boolean mask over its partitions: the rows whose labels may be
#: wrong (negatives in abnormal scenes).
NOISY_ROWS = {mode: np.array([part in (Partition.NOISY, Partition.AP_NEG) for part in parts])
              for mode, parts in MODE_PARTITIONS.items()}


@dataclass(frozen=True)
class HarmonizerConfig:
    mode: Mode = Mode.DGHM
    bin_count: int = 10
    mu_n: float = 2.0
    mu_c: float = 0.5
    outlier_threshold: float = 0.9  # lambda
    n_convention: str = "total"  # "total" or "partition"
    momentum: float = 0.0  # EMA over bin counts across iterations; 0 disables

    def __post_init__(self):
        if self.bin_count < 1:
            raise ValueError("bin_count must be >= 1")
        if not 0.0 <= self.outlier_threshold <= 1.0:
            raise ValueError("outlier_threshold must be in [0, 1]")
        if not (self.mu_n > 0.0 and self.mu_c > 0.0):  # NaN fails it too
            raise ValueError("mu_n and mu_c must be > 0")
        if self.n_convention not in ("total", "partition"):
            raise ValueError("n_convention must be 'total' or 'partition'")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        object.__setattr__(self, "mode", Mode(self.mode))

    @cached_property
    def gamma_by_code(self) -> np.ndarray:
        """The exponent of an outlier (g >= lambda) by partition code: mu_n on
        noisy rows, mu_c on clean ones, and 1 in GHM mode."""
        if self.mode is Mode.GHM:
            return np.ones(1)
        return np.where(NOISY_ROWS[self.mode], self.mu_n, self.mu_c)


def bin_index(g, bin_count: int):
    """Bin of g under the half-open convention; g = 1 falls in the last bin."""
    g = np.asarray(g, dtype=np.float64)
    return np.minimum((g * bin_count).astype(np.int64), bin_count - 1)


def flat_bins(g, codes, bin_count: int):
    """Check and bin gradient norms: returns (g as float64, each g's bin, and
    each (code, bin) pair's index into the raveled (M, B) counts).

    Bins are half-open [k/B, (k+1)/B) except the last, which is closed at 1.
    """
    g = np.asarray(g, dtype=np.float64)
    codes = np.asarray(codes, dtype=np.int64)
    if g.shape != codes.shape:
        raise ValueError("g and codes must have equal length")
    # written so that a NaN, which compares false, fails it too
    if g.size and not (g.min() >= 0.0 and g.max() <= 1.0):
        raise ValueError("gradient norms must lie in [0, 1]")
    bins = bin_index(g, bin_count)
    return g, bins, codes * bin_count + bins


def bin_counts(flat, n_partitions: int, bin_count: int):
    """(M, B) integer bin counts of a flat_bins index: row m counts code m,
    and an empty partition gets a zero row."""
    counts = np.bincount(flat, minlength=n_partitions * bin_count)
    return counts.reshape(n_partitions, bin_count)


class EmaHistograms:
    """Cross-iteration exponential moving average of (M, B) bin counts.

    With momentum m, smoothed counts are m * previous + (1 - m) * current.
    The first batch and m = 0 pass the counts through.
    """

    def __init__(self, cfg: HarmonizerConfig):
        self.momentum = cfg.momentum
        self.counts = None  # the last smoothed counts

    def update(self, counts):
        if self.counts is not None and self.momentum != 0.0:
            counts = self.momentum * self.counts + (1.0 - self.momentum) * counts
        self.counts = counts
        return counts


def gradient_density(counts, g, flat):
    """GD(g) = count of g's bin / length of g's unit region clipped to [0, 1].

    counts is an (M, B) array and g, flat come from flat_bins at its width B.
    An empty bin counts as 1 so the density is always positive; that floor
    can only fire for curve sampling, never for a g that was itself binned.
    """
    half = 0.5 / counts.shape[-1]
    length = np.minimum(g + half, 1.0) - np.maximum(g - half, 0.0)
    return np.maximum(counts.ravel().take(flat), 1.0) / length


def partition_of(p_star, a, mode: Mode):
    """Partition code of each (given label, scene attribute) pair.

    Codes are int64 indices into MODE_PARTITIONS[mode]: GHM gives 0 (pooled);
    DGHM gives 0 (clean) or 1 (noisy: a negative in an abnormal scene); DGHM*
    gives 0 (abnormal positive), 1 (abnormal negative) or 2 (normal negative).
    """
    mode = Mode(mode)
    p_star = np.asarray(p_star).astype(np.int64)
    a = np.asarray(a).astype(np.int64)
    if mode is Mode.GHM:
        return np.zeros(p_star.shape, dtype=np.int64)
    abnormal_neg = (p_star == 0) & (a == 1)
    if mode is Mode.DGHM:
        return abnormal_neg.astype(np.int64)
    if np.any((p_star == 1) & (a == 0)):
        raise ValueError("a positive label in a normal scene is inconsistent")
    return np.where(p_star == 1, 0, np.where(abnormal_neg, 1, 2)).astype(np.int64)


@dataclass
class HarmonizedBatch:
    """Per-example outputs of the classification kernel plus the batch constants.

    g is set for every loss kind.  beta, and M for the normalizer, are set for
    harmonized kinds; codes, bins (each g's bin at the histograms' width),
    gamma_applied and histograms (the (M, B) counts beta was computed from)
    only when the weights were harmonized here rather than fixed by the
    caller.
    """

    g: np.ndarray
    N: int  # batch size
    M: int = 1  # number of gradient-norm distributions (1, 2 or 3 by mode)
    codes: np.ndarray | None = None
    bins: np.ndarray | None = None
    beta: np.ndarray | None = None
    gamma_applied: np.ndarray | None = None
    histograms: np.ndarray | None = None


def _weights(g, codes, gd, n_prime, cfg: HarmonizerConfig):
    """(beta, gamma): gamma = mu of the code where g >= lambda, else 1; beta = N' / GD^gamma."""
    gamma = np.where(g >= cfg.outlier_threshold, cfg.gamma_by_code.take(codes), 1.0)
    return n_prime / gd**gamma, gamma


def harmonize_weights(g, codes, cfg: HarmonizerConfig, ema=None) -> HarmonizedBatch:
    """Compute beta_i = N' / GD(g_i)^{gamma_i} for every example.

    N' is the total batch size under the "total" convention or the size of the
    example's partition in this batch under "partition".  GD is evaluated on
    the example's own row (the pooled row in GHM mode) of this batch's
    histograms; ema, an EmaHistograms, smooths them first.  In GHM mode the
    exponent is always 1.
    """
    codes = np.asarray(codes, dtype=np.int64)
    # g is checked and binned once: one flat (code, bin) index serves the
    # counts and the density alike
    g, bins, flat = flat_bins(g, codes, cfg.bin_count)
    m, n = len(MODE_PARTITIONS[cfg.mode]), g.size
    histograms = bin_counts(flat, m, cfg.bin_count).astype(np.float64)
    if ema is not None:
        histograms = ema.update(histograms)
    n_prime = n if cfg.n_convention == "total" else np.bincount(codes, minlength=m).take(codes)
    beta, gamma = _weights(g, codes, gradient_density(histograms, g, flat), n_prime, cfg)
    return HarmonizedBatch(g=g, N=n, M=m, codes=codes, bins=bins, beta=beta,
                           gamma_applied=gamma, histograms=histograms)


# ---------------------------------------------------------------------------
# Loss selection used by the trainer and the experiment runner.
# ---------------------------------------------------------------------------

#: Harmonized loss kinds and the mode each one forces.
HARMONIZED_MODES = {"ghm_c": Mode.GHM, "dghm_c": Mode.DGHM, "dghm_c_star": Mode.DGHM_STAR}


@dataclass(frozen=True)
class LossSpec:
    """Tagged configuration selecting the classification loss family."""

    kind: str = "ce"  # ce | focal | sce | ghm_c | dghm_c | dghm_c_star
    focal: FocalParams = field(default_factory=FocalParams)
    sce: SceParams = field(default_factory=SceParams)
    harmonizer: HarmonizerConfig = field(default_factory=HarmonizerConfig)

    KINDS = ("ce", "focal", "sce", "ghm_c", "dghm_c", "dghm_c_star")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}")
        # force the harmonizer mode to agree with the tag
        if self.is_harmonized:
            object.__setattr__(self, "harmonizer", replace(
                self.harmonizer, mode=HARMONIZED_MODES[self.kind]))

    @property
    def is_harmonized(self) -> bool:
        return self.kind in HARMONIZED_MODES


def classification_loss_and_grad(logits, p_star, codes, spec: LossSpec, ema=None,
                                 beta=None):
    """Batch classification loss, per-example d(loss)/d(logit) and batch record.

    Returns (loss, dlogit, HarmonizedBatch).  Un-harmonized kinds take the
    batch mean of their per-example loss.  Harmonized kinds (GHM, DGHM and
    DGHM* alike) take (1/(M*N)) sum beta_i * CE_i, with beta computed from the
    current logits and then frozen: the returned gradient treats it as
    constant.  GHM is the one-partition case, M = 1.

    p_star are 0/1 labels.  codes are the examples' partition codes under
    spec.harmonizer.mode (partition_of); only harmonized kinds read them.
    ema, an EmaHistograms carried across batches, smooths this batch's counts
    before the weights are computed.  A fixed beta skips harmonizing: the
    kernel only applies the given weights.
    """
    logits = np.asarray(logits, dtype=np.float64)
    n = logits.size
    if n == 0:
        raise ValueError("empty batch")
    p_star = np.asarray(p_star, dtype=np.float64)
    p = sigmoid(logits)
    residual = p - p_star  # d(CE)/d(logit)
    g = np.abs(residual)  # gradient_norm(p, p_star), from the one subtraction
    if spec.kind in ("focal", "sce"):
        if spec.kind == "focal":
            per = focal_loss(p, p_star, spec.focal)
            grad = focal_grad_logit(p, p_star, spec.focal)
        else:
            per, grad = sce_loss(p, p_star, spec.sce), sce_grad_logit(p, p_star, spec.sce)
        return float(np.mean(per)), grad / n, HarmonizedBatch(g=g, N=n)
    # CE_i = -log q_i, where q_i = |1 - p*_i - p_i| is p for a positive and
    # 1 - p for a negative, ce_loss's two terms; the sums negate at the end
    log_q = np.log(np.abs(1.0 - p_star - p))
    if not spec.is_harmonized:  # ce
        return -float(np.mean(log_q)), residual / n, HarmonizedBatch(g=g, N=n)
    cfg = spec.harmonizer
    if beta is None:
        batch = harmonize_weights(g, codes, cfg, ema=ema)
    else:
        batch = HarmonizedBatch(g=g, N=n, M=len(MODE_PARTITIONS[cfg.mode]),
                                beta=np.asarray(beta, dtype=np.float64))
    norm = batch.M * n
    loss = -float((batch.beta * log_q).sum() / norm)
    return loss, batch.beta * residual / norm, batch


# ---------------------------------------------------------------------------
# Reformulated-gradient curves and CSV exports (figure data).
# ---------------------------------------------------------------------------


def reformulated_gradient_curve(spec: LossSpec, histograms=None, partition: int = 0,
                                samples: int = 201):
    """Sampled (g, effective gradient contribution) curve over [0, 1].

    CE gives the identity curve; focal gives the analytic modulated gradient
    magnitude for a foreground example at p = 1 - g; harmonized losses emit
    beta(g) * g evaluated on row `partition` (a partition code) of the
    supplied (M, B) histograms.
    """
    g = np.linspace(0.0, 1.0, samples)
    if spec.kind == "ce":
        return g, g.copy()
    if spec.kind == "focal":
        alpha, gamma = spec.focal.alpha, spec.focal.gamma
        p = np.clip(1.0 - g, EPS, 1.0 - EPS)
        eff = alpha * (g ** (gamma + 1.0) - gamma * g**gamma * p * np.log(p))
        return g, eff
    if spec.kind == "sce":
        p = np.clip(1.0 - g, EPS, 1.0 - EPS)
        eff = np.abs(sce_grad_logit(p, np.ones_like(p), spec.sce))
        return g, eff
    # harmonized: weight(g) * g on a concrete histogram
    if histograms is None:
        raise ValueError("harmonized curves need a fitted histogram")
    cfg = spec.harmonizer
    counts = np.atleast_2d(histograms)
    g, _, flat = flat_bins(g, np.full(samples, partition), counts.shape[1])
    n_prime = counts.sum() if cfg.n_convention == "total" else counts[partition].sum()
    beta, _ = _weights(g, partition, gradient_density(counts, g, flat), n_prime, cfg)
    return g, beta * g


def export_histograms_csv(path, mode: Mode, histograms):
    """Write (mode, partition, bin_index, bin_low, bin_high, count) rows.

    histograms is the (M, B) counts array, rows following MODE_PARTITIONS[mode].
    """
    mode = Mode(mode)
    counts = np.asarray(histograms, dtype=np.float64)
    eps = 1.0 / counts.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mode", "partition", "bin_index", "bin_low", "bin_high", "count"])
        for part, row in zip(MODE_PARTITIONS[mode], counts):
            for k, count in enumerate(row):
                writer.writerow([mode.value, part.value, k,
                                 f"{k * eps:.10g}", f"{(k + 1) * eps:.10g}",
                                 f"{count:.10g}"])


def load_histograms_csv(path):
    """Inverse of export_histograms_csv; returns (mode, (M, B) counts array)."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ValueError(f"no histogram rows in {path}")
    mode = Mode(rows[0]["mode"])
    parts = MODE_PARTITIONS[mode]
    counts = np.zeros((len(parts), 1 + max(int(r["bin_index"]) for r in rows)))
    for row in rows:
        counts[parts.index(Partition(row["partition"])), int(row["bin_index"])] = \
            float(row["count"])
    return mode, counts


def export_curves_csv(path, curves):
    """Write (loss_name, g, effective_gradient) rows; curves is {name: (g, eff)}."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["loss_name", "g", "effective_gradient"])
        for name, (g, eff) in curves.items():
            for gi, ei in zip(g, eff):
                writer.writerow([name, f"{gi:.10g}", f"{ei:.10g}"])
