"""Tests for gradient-density estimation and harmonized weighting.

The load-bearing oracles:

* an O(N^2) shared-bin density summation, independent of the histogram code;
* hand-derived beta values for a fixed 4-example batch;
* the GHM reduction (pooled partition, unit exponents).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dghm.harmonizer import (
    MODE_PARTITIONS,
    EmaHistograms,
    HarmonizerConfig,
    LossSpec,
    Mode,
    Partition,
    bin_counts,
    bin_index,
    classification_loss_and_grad,
    export_histograms_csv,
    flat_bins,
    gradient_density,
    harmonize_weights,
    load_histograms_csv,
    partition_of,
    reformulated_gradient_curve,
)
from dghm.losses import FocalParams, ce_loss, gradient_norm, sigmoid


def pooled_counts(g, bin_count):
    """The single (B,) histogram row of g in one pooled partition."""
    _, _, flat = flat_bins(g, np.zeros(np.size(g), dtype=np.int64), bin_count)
    return bin_counts(flat, 1, bin_count)[0]


def pooled_density(row, g):
    """GD of each g read from one (B,) histogram row."""
    g, _, flat = flat_bins(np.atleast_1d(g), np.zeros(np.size(g), dtype=np.int64),
                           np.size(row))
    return gradient_density(np.atleast_2d(row), g, flat)


def histograms(g, codes, mode, bin_count=10):
    """The (M, B) float counts harmonize_weights computes for one batch."""
    cfg = HarmonizerConfig(mode=mode, bin_count=bin_count)
    return harmonize_weights(g, codes, cfg).histograms


def oracle_density(g_all, g_query, bin_count):
    """Direct O(N^2) density: count examples sharing the query's bin / length."""
    g_all = np.asarray(g_all, dtype=np.float64)
    out = np.empty(np.asarray(g_query).size)
    for i, gq in enumerate(np.atleast_1d(g_query)):
        same_bin = np.count_nonzero(bin_index(g_all, bin_count) == bin_index(gq, bin_count))
        half = 0.5 / bin_count
        length = min(gq + half, 1.0) - max(gq - half, 0.0)
        out[i] = max(same_bin, 1) / length
    return out


# ---------------------------------------------------------------------------
# binning / valid length
# ---------------------------------------------------------------------------


def test_bin_conventions():
    assert bin_index(0.0, 10) == 0
    assert bin_index(0.1, 10) == 1  # boundaries belong to the upper bin
    assert bin_index(1.0, 10) == 9  # last bin closed at 1
    assert bin_index(0.999999, 10) == 9


def test_valid_length_clipping():
    # one count per bin: GD = 1 / clipped region length
    ones = np.ones(10)
    assert 1.0 / pooled_density(ones, 0.5) == pytest.approx(0.1)
    assert 1.0 / pooled_density(ones, 0.0) == pytest.approx(0.05)
    assert 1.0 / pooled_density(ones, 1.0) == pytest.approx(0.05)


def test_histogram_from_values():
    h = pooled_counts([0.05, 0.05, 0.55, 0.95], 10)
    expected = np.zeros(10)
    expected[[0, 5, 9]] = [2, 1, 1]
    np.testing.assert_array_equal(h, expected)
    assert h.sum() == 4


def test_histogram_rejects_out_of_range():
    with pytest.raises(ValueError):
        pooled_counts([0.5, 1.2], 10)
    with pytest.raises(ValueError):
        pooled_counts([-0.1], 10)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        pooled_counts([0.5, np.nan], 10)


def test_flat_bins_rejects_unequal_lengths():
    with pytest.raises(ValueError, match="equal length"):
        flat_bins([0.1, 0.2], [0], 10)
    with pytest.raises(ValueError, match="equal length"):
        harmonize_weights([0.1, 0.2], [0], HarmonizerConfig())


def test_empty_histogram():
    h = pooled_counts([], 10)
    assert h.sum() == 0


# ---------------------------------------------------------------------------
# gradient density
# ---------------------------------------------------------------------------


def test_density_pinned_examples():
    h = pooled_counts([0.05, 0.05, 0.55, 0.95], 10)
    assert pooled_density(h, 0.05) == pytest.approx(20.0)   # 2 / 0.1
    assert pooled_density(h, 0.55) == pytest.approx(10.0)   # 1 / 0.1
    # boundary clipping: count 1 at g=0 gives 1 / 0.05 = 20
    h0 = pooled_counts([0.0], 10)
    assert pooled_density(h0, 0.0) == pytest.approx(20.0)


def test_density_empty_bin_floor():
    h = pooled_counts([0.05], 10)
    # querying an empty bin uses the count floor of 1
    assert pooled_density(h, 0.55) == pytest.approx(10.0)


def test_density_equals_oracle_100_random_batches():
    rng = np.random.default_rng(7)
    for _ in range(100):
        g = rng.uniform(0.0, 1.0, size=1000)
        h = pooled_counts(g, 10)
        fast = pooled_density(h, g)
        slow = oracle_density(g, g, 10)
        np.testing.assert_array_equal(fast, slow)  # bit-equal


@given(g=arrays(np.float64, st.integers(1, 200),
                elements=st.floats(min_value=0.0, max_value=1.0)),
       bins=st.sampled_from([1, 5, 10, 20]))
@settings(max_examples=60, deadline=None)
def test_density_matches_oracle_property(g, bins):
    h = pooled_counts(g, bins)
    np.testing.assert_array_equal(pooled_density(h, g), oracle_density(g, g, bins))


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------


def partition_name(p_star, a, mode):
    return MODE_PARTITIONS[mode][partition_of(p_star, a, mode)]


def test_partition_mapping_two_way():
    assert partition_name(1, 1, Mode.DGHM) is Partition.CLEAN
    assert partition_name(0, 1, Mode.DGHM) is Partition.NOISY
    assert partition_name(0, 0, Mode.DGHM) is Partition.CLEAN
    assert partition_name(1, 0, Mode.GHM) is Partition.POOLED


def test_partition_mapping_three_way():
    assert partition_name(1, 1, Mode.DGHM_STAR) is Partition.AP_POS
    assert partition_name(0, 1, Mode.DGHM_STAR) is Partition.AP_NEG
    assert partition_name(0, 0, Mode.DGHM_STAR) is Partition.NP_NEG
    with pytest.raises(ValueError):
        partition_of(1, 0, Mode.DGHM_STAR)


def test_partition_vectorized():
    codes = partition_of([1, 0, 0], [1, 1, 0], Mode.DGHM)
    assert codes.dtype == np.int64
    assert [MODE_PARTITIONS[Mode.DGHM][c] for c in codes] == [
        Partition.CLEAN, Partition.NOISY, Partition.CLEAN]


# ---------------------------------------------------------------------------
# harmonize_weights
# ---------------------------------------------------------------------------

PINNED_G = np.array([0.05, 0.05, 0.55, 0.95])
PINNED_PARTS = np.array([0, 0, 0, 1])  # clean, clean, clean, noisy


def test_pinned_beta_with_default_exponents():
    cfg = HarmonizerConfig(mode=Mode.DGHM, bin_count=10, mu_n=2.0, mu_c=0.5,
                           outlier_threshold=0.9, n_convention="total")
    batch = harmonize_weights(PINNED_G, PINNED_PARTS, cfg)
    # clean GDs: 20, 20, 10; noisy GD: 10 with exponent mu_n=2 -> 4/100
    np.testing.assert_allclose(batch.beta, [0.2, 0.2, 0.4, 0.04], atol=1e-12)
    np.testing.assert_allclose(batch.gamma_applied, [1.0, 1.0, 1.0, 2.0])
    assert batch.M == 2 and batch.N == 4


def test_pinned_beta_with_unit_exponents():
    cfg = HarmonizerConfig(mode=Mode.DGHM, bin_count=10, mu_n=1.0, mu_c=1.0)
    batch = harmonize_weights(PINNED_G, PINNED_PARTS, cfg)
    np.testing.assert_allclose(batch.beta, [0.2, 0.2, 0.4, 0.4], atol=1e-12)


def test_ghm_pools_and_forces_unit_exponent():
    cfg = HarmonizerConfig(mode=Mode.GHM, bin_count=10)
    batch = harmonize_weights(PINNED_G, np.zeros(4, dtype=np.int64), cfg)
    np.testing.assert_allclose(batch.beta, [0.2, 0.2, 0.4, 0.4], atol=1e-12)
    np.testing.assert_array_equal(batch.gamma_applied, np.ones(4))
    assert batch.M == 1


def test_dghm_reduces_to_ghm_with_pooled_partition():
    rng = np.random.default_rng(3)
    g = rng.uniform(0, 1, 256)
    # code 0 is the pooled partition in GHM mode and the clean one in DGHM
    codes = np.zeros(256, dtype=np.int64)
    ghm = harmonize_weights(g, codes, HarmonizerConfig(mode=Mode.GHM))
    # all-clean DGHM with unit exponents sees the identical (pooled) histogram
    dghm = harmonize_weights(g, codes, HarmonizerConfig(mode=Mode.DGHM, mu_n=1.0, mu_c=1.0))
    np.testing.assert_allclose(dghm.beta, ghm.beta, atol=1e-12)


def test_partition_n_convention():
    cfg = HarmonizerConfig(mode=Mode.DGHM, mu_n=1.0, mu_c=1.0,
                           n_convention="partition")
    batch = harmonize_weights(PINNED_G, PINNED_PARTS, cfg)
    # clean partition has 3 members, noisy 1
    np.testing.assert_allclose(batch.beta, [0.15, 0.15, 0.3, 0.1], atol=1e-12)


def test_partitioned_weights_equal_one_pooled_harmonizer_per_partition():
    # reference loop: each DGHM* partition on its own is a GHM batch, so
    # indexing the (M, B) rows by code must give the very same weights
    rng = np.random.default_rng(8)
    pooled = HarmonizerConfig(mode=Mode.GHM, n_convention="partition")
    cfg = HarmonizerConfig(mode=Mode.DGHM_STAR, mu_n=1.0, mu_c=1.0,
                           n_convention="partition")
    for _ in range(50):
        g = rng.uniform(0, 1, 200)
        codes = rng.integers(0, 3, 200)
        beta = harmonize_weights(g, codes, cfg).beta
        for m in range(3):
            sub = codes == m
            ref = harmonize_weights(g[sub], np.zeros(sub.sum(), dtype=np.int64), pooled)
            np.testing.assert_array_equal(beta[sub], ref.beta)


def test_outlier_modulation_zero_violations_1000_batches():
    rng = np.random.default_rng(11)
    cfg = HarmonizerConfig(mode=Mode.DGHM, mu_n=2.0, mu_c=0.5, outlier_threshold=0.9)
    base = HarmonizerConfig(mode=Mode.DGHM, mu_n=1.0, mu_c=1.0, outlier_threshold=0.9)
    violations = 0
    for _ in range(1000):
        n = int(rng.integers(4, 64))
        g = rng.uniform(0, 1, n)
        noisy = rng.uniform(size=n) < 0.3
        parts = noisy.astype(np.int64)
        beta = harmonize_weights(g, parts, cfg).beta
        beta1 = harmonize_weights(g, parts, base).beta
        out = g >= 0.9
        violations += np.count_nonzero(beta[out & noisy] > beta1[out & noisy] + 1e-15)
        violations += np.count_nonzero(beta[out & ~noisy] < beta1[out & ~noisy] - 1e-15)
    assert violations == 0


def test_beta_permutation_invariance():
    rng = np.random.default_rng(5)
    g = rng.uniform(0, 1, 100)
    parts = (rng.uniform(size=100) < 0.4).astype(np.int64)
    cfg = HarmonizerConfig(mode=Mode.DGHM)
    beta = harmonize_weights(g, parts, cfg).beta
    perm = rng.permutation(100)
    beta_perm = harmonize_weights(g[perm], parts[perm], cfg).beta
    np.testing.assert_array_equal(beta_perm, beta[perm])


def test_all_distinct_bins_uniform_beta():
    # one example per bin: every beta = N * eps in GHM mode
    g = np.arange(10) / 10.0 + 0.05
    batch = harmonize_weights(g, np.zeros(10, dtype=np.int64),
                              HarmonizerConfig(mode=Mode.GHM))
    np.testing.assert_allclose(batch.beta, 10 * 0.1, atol=1e-12)


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_beta_positive_property(data):
    n = data.draw(st.integers(1, 50))
    g = np.array(data.draw(st.lists(
        st.floats(min_value=0.0, max_value=1.0), min_size=n, max_size=n)))
    noisy = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    batch = harmonize_weights(g, np.array(noisy, dtype=np.int64),
                              HarmonizerConfig(mode=Mode.DGHM))
    assert np.all(batch.beta > 0.0)
    assert batch.N == n and batch.M == 2


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def logits_for(p):
    p = np.asarray(p, dtype=np.float64)
    return np.log(p / (1.0 - p))


def ghm_c_loss(logits, p_star):
    loss, _, batch = classification_loss_and_grad(
        logits, p_star, np.zeros(np.size(p_star)), LossSpec(kind="ghm_c"))
    return loss, batch.beta


def dghm_c_loss(logits, p_star, a, cfg):
    kind = "dghm_c_star" if cfg.mode is Mode.DGHM_STAR else "dghm_c"
    loss, _, batch = classification_loss_and_grad(
        logits, p_star, partition_of(p_star, a, cfg.mode),
        LossSpec(kind=kind, harmonizer=cfg))
    return loss, batch


def test_ghm_c_loss_pinned_batch():
    # probabilities chosen so g = |p - p*| matches the pinned batch
    p = np.array([0.95, 0.95, 0.45, 0.95])
    p_star = np.array([1.0, 1.0, 1.0, 0.0])
    loss, beta = ghm_c_loss(logits_for(p), p_star)
    np.testing.assert_allclose(beta, [0.2, 0.2, 0.4, 0.4], atol=1e-10)
    expected = np.sum(beta * ce_loss(p, p_star)) / 4.0
    assert loss == pytest.approx(expected, rel=1e-10)


def test_ghm_c_single_example():
    p = np.array([0.7])
    loss, beta = ghm_c_loss(logits_for(p), np.array([1.0]))
    # N=1: GD = 1/0.1 = 10, beta = 1/10
    assert beta[0] == pytest.approx(0.1, abs=1e-12)
    assert loss == pytest.approx(0.1 * ce_loss(0.7, 1.0), rel=1e-10)


def test_ghm_c_identical_examples():
    p = np.full(8, 0.3)
    loss, beta = ghm_c_loss(logits_for(p), np.ones(8))
    gd = 8 / 0.1
    np.testing.assert_allclose(beta, 8 / gd, atol=1e-12)
    assert loss == pytest.approx((8 / gd) * ce_loss(0.3, 1.0), rel=1e-10)


def test_ghm_c_empty_batch_rejected():
    with pytest.raises(ValueError):
        ghm_c_loss(np.array([]), np.array([]))


def test_dghm_c_loss_pinned_batch():
    p = np.array([0.95, 0.95, 0.45, 0.95])
    p_star = np.array([1.0, 1.0, 1.0, 0.0])
    a = np.array([1, 1, 1, 1])
    cfg = HarmonizerConfig(mode=Mode.DGHM)
    loss, batch = dghm_c_loss(logits_for(p), p_star, a, cfg)
    np.testing.assert_allclose(batch.beta, [0.2, 0.2, 0.4, 0.04], atol=1e-10)
    ce = ce_loss(p, p_star)
    expected = (0.2 * ce[0] + 0.2 * ce[1] + 0.4 * ce[2] + 0.04 * ce[3]) / 8.0
    assert loss == pytest.approx(expected, rel=1e-9)


def test_dghm_c_all_clean_reduces_to_half_ghm():
    rng = np.random.default_rng(9)
    logits = rng.normal(size=64)
    p_star = np.zeros(64)
    ghm_val, _ = ghm_c_loss(logits, p_star)
    cfg = HarmonizerConfig(mode=Mode.DGHM, mu_n=1.0, mu_c=1.0)
    dghm_val, batch = dghm_c_loss(logits, p_star, np.zeros(64), cfg)
    assert batch.M == 2
    assert dghm_val == pytest.approx(0.5 * ghm_val, rel=1e-12)


def test_dghm_star_three_partitions():
    p = np.array([0.95, 0.95, 0.45, 0.95])
    p_star = np.array([1.0, 1.0, 1.0, 0.0])
    a = np.array([1, 1, 1, 1])
    cfg = HarmonizerConfig(mode=Mode.DGHM_STAR)
    loss, batch = dghm_c_loss(logits_for(p), p_star, a, cfg)
    assert batch.M == 3
    assert MODE_PARTITIONS[Mode.DGHM_STAR] == (Partition.AP_POS, Partition.AP_NEG,
                                               Partition.NP_NEG)
    assert batch.histograms.shape == (3, 10)
    # AP_POS histogram holds the three positives, AP_NEG the noisy one
    np.testing.assert_array_equal(batch.histograms.sum(axis=1), [3, 1, 0])
    np.testing.assert_allclose(batch.beta, [0.2, 0.2, 0.4, 0.04], atol=1e-10)
    ce = ce_loss(p, p_star)
    expected = float(np.sum(batch.beta * ce)) / 12.0
    assert loss == pytest.approx(expected, rel=1e-9)


# ---------------------------------------------------------------------------
# config validation / LossSpec
# ---------------------------------------------------------------------------


def test_harmonizer_config_validation():
    with pytest.raises(ValueError):
        HarmonizerConfig(bin_count=0)
    with pytest.raises(ValueError):
        HarmonizerConfig(outlier_threshold=1.5)
    with pytest.raises(ValueError):
        HarmonizerConfig(mu_n=0.0)
    with pytest.raises(ValueError):
        HarmonizerConfig(mu_n=float("nan"))
    with pytest.raises(ValueError):
        HarmonizerConfig(n_convention="bogus")
    with pytest.raises(ValueError):
        HarmonizerConfig(momentum=1.0)


def test_loss_spec_forces_mode():
    spec = LossSpec(kind="ghm_c", harmonizer=HarmonizerConfig(mode=Mode.DGHM))
    assert spec.harmonizer.mode is Mode.GHM
    spec = LossSpec(kind="dghm_c", harmonizer=HarmonizerConfig(mode=Mode.GHM, momentum=0.7))
    assert spec.harmonizer == HarmonizerConfig(mode=Mode.DGHM, momentum=0.7)
    spec = LossSpec(kind="dghm_c_star")
    assert spec.harmonizer.mode is Mode.DGHM_STAR
    with pytest.raises(ValueError):
        LossSpec(kind="nonsense")


def test_ema_histograms():
    cfg = HarmonizerConfig(mode=Mode.DGHM, momentum=0.5)
    ema = EmaHistograms(cfg)
    h1 = np.full((2, 10), 4.0)
    h2 = np.zeros((2, 10))
    first = ema.update(h1)
    np.testing.assert_array_equal(first, np.full((2, 10), 4.0))
    second = ema.update(h2)
    np.testing.assert_array_equal(second, np.full((2, 10), 2.0))


def test_ema_disabled_passthrough():
    ema = EmaHistograms(HarmonizerConfig(momentum=0.0))
    ema.update(np.ones((2, 10)))
    h = np.arange(20.0).reshape(2, 10)
    assert ema.update(h) is h


def test_ghm_c_loss_uses_supplied_histograms():
    # weights from external (e.g. EMA-smoothed) histograms must reach the pooled loss too
    rng = np.random.default_rng(9)
    logits = rng.normal(size=64)
    p_star = (rng.random(64) < 0.3).astype(float)
    cfg = HarmonizerConfig(mode=Mode.GHM)
    spec = LossSpec(kind="ghm_c", harmonizer=cfg)
    base_loss, _ = ghm_c_loss(logits, p_star)
    skewed = np.full((1, 10), 7.0)
    g, _, flat = flat_bins(gradient_norm(sigmoid(logits), p_star),
                           np.zeros(64, dtype=np.int64), cfg.bin_count)
    gamma = np.where(g >= cfg.outlier_threshold, cfg.gamma_by_code[0], 1.0)
    beta = 64 / gradient_density(skewed, g, flat) ** gamma
    loss, _, _ = classification_loss_and_grad(logits, p_star, np.zeros(64), spec, beta=beta)
    assert loss != base_loss
    # with 7 counts per bin everywhere, GD = 7/length and beta = N * len / 7
    length = np.minimum(g + 0.05, 1.0) - np.maximum(g - 0.05, 0.0)
    expected = 64.0 * length / 7.0
    np.testing.assert_allclose(beta, expected, rtol=1e-12)


# ---------------------------------------------------------------------------
# curves and CSV round-trips
# ---------------------------------------------------------------------------


def test_ce_curve_is_identity():
    g, eff = reformulated_gradient_curve(LossSpec(kind="ce"))
    np.testing.assert_array_equal(g, eff)
    assert eff[100] == pytest.approx(0.5)  # the (0.5, 0.5) sample


def test_focal_curve_endpoints():
    spec = LossSpec(kind="focal", focal=FocalParams(alpha=1.0, gamma=2.0))
    g, eff = reformulated_gradient_curve(spec)
    assert eff[-1] > eff[0]  # g^gamma modulation grows toward g=1


def test_dghm_noisy_curve_discontinuous_at_lambda():
    hist = np.full((2, 10), 5.0)
    cfg = HarmonizerConfig(mode=Mode.DGHM, mu_n=2.0, outlier_threshold=0.9)
    spec = LossSpec(kind="dghm_c", harmonizer=cfg)
    g, eff = reformulated_gradient_curve(spec, histograms=hist,
                                         partition=1, samples=1001)  # noisy
    below = eff[g < 0.9][-1]
    at = eff[g >= 0.9][0]
    # the exponent jumps from 1 to mu_n=2 at lambda: weight divides by GD again
    assert at < below / 10.0


@pytest.mark.parametrize("kind", ["ghm_c", "dghm_c", "dghm_c_star"])
@pytest.mark.parametrize("n_convention", ["total", "partition"])
@pytest.mark.parametrize("bin_count", [1, 7, 10, 30])
def test_curve_equals_the_step_on_its_samples(kind, n_convention, bin_count):
    # a step over the curve's own samples, all in partition p, builds the
    # histograms the curve reads: its beta * g is the curve, to the bit
    cfg = HarmonizerConfig(bin_count=bin_count, n_convention=n_convention)
    spec = LossSpec(kind=kind, harmonizer=cfg)
    g = np.linspace(0.0, 1.0, 201)
    for p in range(len(MODE_PARTITIONS[spec.harmonizer.mode])):
        batch = harmonize_weights(g, np.full(g.size, p), spec.harmonizer)
        _, eff = reformulated_gradient_curve(spec, batch.histograms, p)
        np.testing.assert_array_equal(eff, batch.beta * g)


def test_histogram_csv_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    g = rng.uniform(0, 1, 300)
    parts = partition_of((rng.uniform(size=300) < 0.5).astype(int),
                         np.ones(300, dtype=int), Mode.DGHM)
    hists = histograms(g, parts, Mode.DGHM)
    path = tmp_path / "hist.csv"
    export_histograms_csv(path, Mode.DGHM, hists)
    mode, loaded = load_histograms_csv(path)
    assert mode is Mode.DGHM
    np.testing.assert_array_equal(loaded, hists)


def test_curve_reevaluates_from_stored_histogram(tmp_path):
    rng = np.random.default_rng(4)
    g = rng.uniform(0, 1, 500)
    parts = (rng.uniform(size=500) < 0.3).astype(np.int64)  # 1 is noisy
    cfg = HarmonizerConfig(mode=Mode.DGHM)
    hists = histograms(g, parts, Mode.DGHM)
    path = tmp_path / "hist.csv"
    export_histograms_csv(path, Mode.DGHM, hists)
    _, loaded = load_histograms_csv(path)
    spec = LossSpec(kind="dghm_c", harmonizer=cfg)
    g1, e1 = reformulated_gradient_curve(spec, histograms=hists, partition=1)
    g2, e2 = reformulated_gradient_curve(spec, histograms=loaded, partition=1)
    np.testing.assert_array_equal(e1, e2)
