"""Model and trainer tests: hand-derived backprop vs finite differences,
Adam single-step oracle, bit-reproducible training, checkpoint round-trips."""

import dataclasses
import json
import logging

import numpy as np
import pytest

from dghm import model as model_module
from dghm.harmonizer import (
    MODE_PARTITIONS,
    EmaHistograms,
    FocalParams,
    HarmonizedBatch,
    HarmonizerConfig,
    LossSpec,
    Mode,
    bin_counts,
    flat_bins,
    gradient_density,
    harmonize_weights,
    partition_of,
)
from dghm.losses import (
    SceParams,
    ce_grad_logit,
    ce_loss,
    focal_grad_logit,
    focal_loss,
    gradient_norm,
    sce_grad_logit,
    sce_loss,
    sigmoid,
)
from dghm.model import (
    AdamState,
    Batch,
    Predictor,
    StepBuffers,
    TrainConfig,
    TrainingDiverged,
    adam_step,
    backward,
    batch_loss_and_grads,
    finite_difference_check,
    forward,
    forward_pool,
    load_checkpoint,
    pool_gradient_histograms,
    save_checkpoint,
    save_training_log_csv,
    train,
)
from dghm.simdata import (
    CorruptionSpec,
    SceneSpec,
    build_pool,
    corrupt_annotations,
    generate_corpus,
    minibatch_quota,
    sample_minibatch,
)

ALL_SPECS = [
    LossSpec(kind="ce"),
    LossSpec(kind="focal", focal=FocalParams(alpha=0.25, gamma=2.0)),
    LossSpec(kind="sce", sce=SceParams()),
    LossSpec(kind="ghm_c"),
    LossSpec(kind="dghm_c"),
    LossSpec(kind="dghm_c_star"),
]


def random_batch(rng, n, dim, all_negative=False, mode=Mode.DGHM):
    a = (rng.uniform(size=n) < 0.7).astype(np.int64)
    p_star = np.where(a == 1, (rng.uniform(size=n) < 0.5).astype(np.int64), 0)
    if all_negative:
        p_star = np.zeros(n, dtype=np.int64)
    features = rng.normal(size=(n, dim))
    targets = rng.normal(size=(n, 4)) * 0.5
    # positives lead, as sample_minibatch orders a batch
    order = np.argsort(p_star == 0, kind="stable")
    p_star, a, features, targets = p_star[order], a[order], features[order], targets[order]
    return Batch(
        features=features,
        p_star=p_star.astype(np.float64),
        codes=partition_of(p_star, a, mode),
        targets=targets[:np.count_nonzero(p_star)],
    )


# ---------------------------------------------------------------------------
# forward / backward basics
# ---------------------------------------------------------------------------


def test_zero_output_layer_gives_half_probability():
    model = Predictor.create(6, hidden=(8,), seed=0)
    logits, offsets, _ = forward(model, np.random.default_rng(0).normal(size=(5, 6)))
    np.testing.assert_array_equal(logits, 0.0)
    np.testing.assert_array_equal(offsets, 0.0)


def test_forward_deterministic_and_batched():
    model = Predictor.create(4, hidden=(8, 8), seed=1)
    # nonzero output layer so the test is not vacuous
    model.weights[-1] += 0.3
    x = np.random.default_rng(2).normal(size=(6, 4))
    l1, o1, _ = forward(model, x)
    l2, o2, _ = forward(model, x)
    np.testing.assert_array_equal(l1, l2)
    for i in range(6):
        li, oi, _ = forward(model, x[i])
        assert li[0] == pytest.approx(l1[i], abs=1e-15)
        np.testing.assert_allclose(oi[0], o1[i], atol=1e-15)


def test_forward_dim_mismatch():
    model = Predictor.create(4)
    with pytest.raises(ValueError):
        forward(model, np.zeros((2, 5)))


@pytest.mark.parametrize("hidden", [(32,), (8, 8)])
def test_forward_pool_equals_one_forward_bit_for_bit(hidden):
    # FORWARD_ROWS + 1 splits in two near-equal blocks, never a 1-row tail,
    # whose (1, k) matmul takes another BLAS path with other bits
    rows = model_module.FORWARD_ROWS
    model = Predictor.create(16, hidden=hidden, seed=1)
    model.params[...] = np.random.default_rng(0).normal(0.0, 0.5, model.params.size)
    for n in (1, 2, rows, rows + 1, rows * 5 // 2):
        x = np.random.default_rng(n).normal(size=(n, 16))
        logits, offsets, _ = forward(model, x)
        pool_logits, pool_offsets = forward_pool(model, x)
        np.testing.assert_array_equal(pool_logits, logits)
        np.testing.assert_array_equal(pool_offsets, offsets)


def test_forward_pool_blocks_are_near_equal_and_never_one_row(monkeypatch):
    real_forward = model_module.forward
    model = Predictor.create(3, hidden=(4,), seed=0)
    for forward_rows in (3, 4, 7):
        monkeypatch.setattr(model_module, "FORWARD_ROWS", forward_rows)
        for n in range(1, 40):
            rows = []
            monkeypatch.setattr(model_module, "forward", lambda m, x, outs:
                                rows.append(len(x)) or real_forward(m, x, outs))
            forward_pool(model, np.zeros((n, 3)))
            assert sum(rows) == n and len(rows) == -(-n // forward_rows)
            assert max(rows) - min(rows) <= 1 and max(rows) <= forward_rows
            assert min(rows) >= 2 or n == 1


def test_forward_pool_holds_little_memory_beyond_its_output(traced_peak_kib):
    """Scoring a 16384-row pool holds its (n, 5) outputs (640 KiB) and one
    block's hidden layer (512 KiB): 1238 KiB, against 4802 KiB for one
    forward over every row."""
    model = Predictor.create(16, hidden=(32,), seed=0)
    x = np.random.default_rng(0).normal(size=(16384, 16))
    assert traced_peak_kib(forward_pool, model, x) < 1.5 * 1024


def test_zero_beta_zero_classification_gradient():
    rng = np.random.default_rng(3)
    model = Predictor.create(5, hidden=(6,), seed=3)
    batch = random_batch(rng, 12, 5, all_negative=True)
    logits, offsets, cache = forward(model, batch.features)
    grad = backward(model, cache, np.zeros_like(logits), np.zeros_like(offsets))
    assert grad.shape == model.params.shape
    np.testing.assert_array_equal(grad, 0.0)


def test_no_positives_zero_regression_gradient():
    rng = np.random.default_rng(4)
    model = Predictor.create(5, hidden=(6,), seed=4)
    model.weights[-1] += rng.normal(size=model.weights[-1].shape) * 0.1
    batch = random_batch(rng, 12, 5, all_negative=True)
    loss_with, grad, _ = batch_loss_and_grads(model, batch, LossSpec(kind="ce"),
                                              reg_weight=1.0)
    loss_without, grad0, _ = batch_loss_and_grads(model, batch, LossSpec(kind="ce"),
                                                  reg_weight=0.0)
    assert loss_with == pytest.approx(loss_without)
    np.testing.assert_allclose(grad, grad0, atol=1e-15)


# ---------------------------------------------------------------------------
# step buffers
# ---------------------------------------------------------------------------


def buffer_batches(rng, mode):
    """Batches of one size n = 24 as one StepBuffers serves them in turn: with
    positives, with a single one, with none; then one of 7 rows."""
    yield random_batch(rng, 24, 5, mode=mode)
    one = random_batch(rng, 24, 5, all_negative=True, mode=mode)
    one.p_star[0] = 1.0
    yield dataclasses.replace(one, targets=rng.normal(size=(1, 4)))
    yield random_batch(rng, 24, 5, all_negative=True, mode=mode)
    yield random_batch(rng, 7, 5, mode=mode)


def copied(record):
    """The record with a copy of each of its arrays."""
    return dataclasses.replace(record, **{
        f.name: getattr(record, f.name).copy() for f in dataclasses.fields(record)
        if isinstance(getattr(record, f.name), np.ndarray)})


def assert_same_record(a, b):
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            np.testing.assert_array_equal(x, y)
        else:
            assert x == y, f.name


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
@pytest.mark.parametrize("hidden", [(), (6,), (6, 4)], ids=len)
def test_buffered_step_equals_the_allocating_step_bit_for_bit(spec, hidden):
    rng = np.random.default_rng(21)
    model = Predictor.create(5, hidden=hidden, seed=21)
    model.params += rng.normal(scale=0.3, size=model.params.size)
    buffers, kept = {}, []
    for batch in buffer_batches(rng, spec.harmonizer.mode):
        n = len(batch.features)
        bufs = buffers.setdefault(n, StepBuffers.for_model(model, n))
        # forward alone
        got, want = forward(model, batch.features, bufs.layers), forward(model, batch.features)
        for x, y in zip(got[:2], want[:2]):
            np.testing.assert_array_equal(x, y)
        assert [a is b for a, b in zip(got[2][1:], bufs.layers)] == [True] * len(bufs.layers)
        for x, y in zip(got[2], want[2]):
            np.testing.assert_array_equal(x, y)
        # backward alone, offsets for the leading rows only and for all rows
        dlogit = rng.normal(size=n)
        for doffsets in (rng.normal(size=(3, 4)), rng.normal(size=(n, 4))):
            grad = backward(model, got[2], dlogit, doffsets, bufs)
            assert grad is bufs.grad.params
            full = np.zeros((n, 4))
            full[:len(doffsets)] = doffsets
            np.testing.assert_array_equal(grad, backward(model, want[2], dlogit, full))
        # the whole loss, its gradient and the kernel's record
        loss, grad, record = batch_loss_and_grads(model, batch, spec, 1.5, buffers=bufs)
        want_loss, want_grad, want_record = batch_loss_and_grads(model, batch, spec, 1.5)
        assert loss == want_loss
        np.testing.assert_array_equal(grad, want_grad)
        assert_same_record(record, want_record)
        kept.append((record, copied(record)))
    # no record shares memory with the buffers: later steps left each as it was
    for record, snapshot in kept:
        assert_same_record(record, snapshot)


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
def test_finite_difference_small_model(spec):
    rng = np.random.default_rng(10)
    model = Predictor.create(6, hidden=(8,), seed=10)
    for w in model.weights:
        w += rng.normal(size=w.shape) * 0.2
    batch = random_batch(rng, 24, 6, mode=spec.harmonizer.mode)
    err = finite_difference_check(model, batch, spec)
    assert err < 1e-6


def test_finite_difference_regression_head_only():
    rng = np.random.default_rng(11)
    model = Predictor.create(4, hidden=(6,), seed=11)
    for w in model.weights:
        w += rng.normal(size=w.shape) * 0.3
    batch = random_batch(rng, 16, 4)
    err = finite_difference_check(model, batch, LossSpec(kind="ce"), reg_weight=2.5)
    assert err < 1e-6


def test_finite_difference_subsamples_large_models():
    rng = np.random.default_rng(12)
    model = Predictor.create(40, hidden=(64,), seed=12)  # > 1000 parameters
    batch = random_batch(rng, 8, 40)
    err = finite_difference_check(model, batch, LossSpec(kind="ce"), max_params=50)
    assert err < 1e-6


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def reference_adam(params, m, v, grads, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The per-layer Adam loop over paired lists, in place on params."""
    for i, (p, g) in enumerate(zip(params, grads)):
        m[i] = beta1 * m[i] + (1.0 - beta1) * g
        v[i] = beta2 * v[i] + (1.0 - beta2) * g * g
        m_hat = m[i] / (1.0 - beta1**t)
        v_hat = v[i] / (1.0 - beta2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)


def flat(arrays):
    return np.concatenate([a.ravel() for a in arrays])


def test_adam_matches_per_layer_reference():
    model = Predictor.create(5, hidden=(7, 3), seed=4)
    model.weights[-1] += 0.1  # nonzero output layer
    params = [p.copy() for p in model.weights + model.biases]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    state = AdamState.for_model(model)
    rng = np.random.default_rng(8)
    for t in range(1, 21):
        grads = [rng.normal(size=p.shape) * 10.0 ** rng.integers(-4, 2) for p in params]
        reference_adam(params, m, v, grads, t, lr=0.01)
        adam_step(model, state, flat(grads), lr=0.01)
    assert state.step == 20
    np.testing.assert_array_equal(model.params, flat(params))
    np.testing.assert_array_equal(state.moments, [flat(m), flat(v)])


def test_params_layout_and_views():
    model = Predictor.create(5, hidden=(7, 3), seed=2)
    np.testing.assert_array_equal(model.params, flat(model.weights + model.biases))
    assert model.params.dtype == np.float64
    model.weights[1][2, 1] = 4.5
    assert model.params[5 * 7 + 2 * 3 + 1] == 4.5
    model.params[-1] = -2.0
    assert model.biases[-1][-1] == -2.0
    copy = model.copy()
    copy.params[:] = 0.0
    assert model.params[-1] == -2.0 and not np.any(copy.weights[0])


def test_adam_zero_gradient_fixed_point():
    model = Predictor.create(3, hidden=(4,), seed=0)
    before = model.params.copy()
    state = AdamState.for_model(model)
    adam_step(model, state, np.zeros_like(model.params), lr=0.1)
    np.testing.assert_array_equal(model.params, before)


def test_adam_single_step_closed_form():
    # from zero moments, one step moves each coordinate by
    #   lr * g / (|g| + eps * sqrt(1 - beta2))  ~= lr * sign(g)
    model = Predictor.create(2, hidden=(2,), seed=0)
    state = AdamState.for_model(model)
    g = 0.37
    before = model.params.copy()
    adam_step(model, state, np.full_like(model.params, g), lr=0.01)
    m_hat, v_hat = g, g * g  # bias correction cancels the (1 - beta) factors
    expected_delta = 0.01 * m_hat / (np.sqrt(v_hat) + model_module.ADAM_EPS)
    np.testing.assert_allclose(before - model.params, expected_delta, rtol=1e-12)
    assert state.step == 1


def test_adam_two_runs_identical():
    models = []
    for _ in range(2):
        model = Predictor.create(3, hidden=(4,), seed=7)
        state = AdamState.for_model(model)
        rng_run = np.random.default_rng(99)
        for _ in range(10):
            adam_step(model, state, rng_run.normal(size=model.params.shape), lr=0.01)
        models.append(model)
    np.testing.assert_array_equal(models[0].params, models[1].params)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

TINY_SPEC = SceneSpec(extent=(24.0, 24.0), objects_per_ap_scene=(1, 2),
                      object_size=(6.0, 8.0), anchor_stride=4.0,
                      anchor_sizes=(7.0,))


def tiny_pool(eta=0.0, seed=0):
    scenes = generate_corpus(TINY_SPEC, 6, 2, seed=seed)
    corrupted, _ = corrupt_annotations(scenes, CorruptionSpec(eta=eta, seed=seed))
    return build_pool(corrupted, TINY_SPEC, corpus_seed=seed)


def test_zero_epochs_returns_initialization():
    pool = tiny_pool()
    cfg = TrainConfig(epochs=0, steps_per_epoch=2, seed=3)
    model, log = train(pool, cfg)
    reference = Predictor.create(pool.features.shape[1], hidden=cfg.hidden, seed=3)
    for a, b in zip(model.weights + model.biases,
                    reference.weights + reference.biases):
        np.testing.assert_array_equal(a, b)
    assert log.mean_loss.shape == log.lr.shape == (0,)
    assert log.epoch_histograms.shape == (0, 2, model_module.EPOCH_BINS)


def test_training_bit_reproducible():
    pool = tiny_pool(eta=0.4)
    cfg = TrainConfig(epochs=2, steps_per_epoch=5, batch_size=16,
                      learning_rate=1e-3, seed=11)
    m1, log1 = train(pool, cfg)
    m2, log2 = train(pool, cfg)
    for a, b in zip(m1.weights + m1.biases, m2.weights + m2.biases):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(log1.mean_loss, log2.mean_loss)
    np.testing.assert_array_equal(log1.epoch_histograms, log2.epoch_histograms)


def decay_epochs_of(epochs):
    """The epochs at which the learning rate drops x0.1: at 60 % and at 80 %
    of the E epochs, the first no earlier than 1 and the second no earlier
    than 2, both no later than E; a shared epoch drops it once."""
    return {min(max(int(epochs * 0.6), 1), epochs), min(max(int(epochs * 0.8), 2), epochs)}


def test_training_learning_rate_schedule():
    pool = tiny_pool()
    # E -> the epochs in range(E) whose rate is x0.1 the epoch before's
    drops = {0: [], 1: [], 2: [1], 3: [1, 2], 5: [3, 4], 10: [6, 8], 40: [24, 32]}
    for epochs, epoch_drops in drops.items():
        assert sorted(e for e in decay_epochs_of(epochs) if e < epochs) == epoch_drops
        _, log = train(pool, TrainConfig(epochs=epochs, steps_per_epoch=1,
                                         learning_rate=1e-3, seed=0))
        lr, expected = 1e-3, []
        for epoch in range(epochs):
            if epoch in epoch_drops:
                lr *= 0.1
            expected.append(lr)
        assert log.lr.tolist() == expected


def test_training_all_loss_kinds_run():
    pool = tiny_pool(eta=0.5)
    for spec in ALL_SPECS:
        cfg = TrainConfig(loss_spec=spec, epochs=1, steps_per_epoch=3,
                          batch_size=16, learning_rate=1e-3, seed=1)
        model, log = train(pool, cfg)
        assert log.mean_loss.shape == (1,) and np.isfinite(log.mean_loss[0])


def test_training_with_momentum_histograms():
    pool = tiny_pool(eta=0.5)
    spec = LossSpec(kind="dghm_c", harmonizer=HarmonizerConfig(momentum=0.9))
    cfg = TrainConfig(loss_spec=spec, epochs=1, steps_per_epoch=4,
                      batch_size=16, learning_rate=1e-3, seed=1)
    model, log = train(pool, cfg)
    assert log.mean_loss.shape == (1,) and np.isfinite(log.mean_loss[0])


def test_epoch_histogram_counts_sum_to_examples_seen():
    pool = tiny_pool(eta=0.5)
    cfg = TrainConfig(epochs=1, steps_per_epoch=4, batch_size=16,
                      learning_rate=1e-3, seed=2)
    _, log = train(pool, cfg)
    assert log.epoch_histograms.shape == (1, 2, model_module.EPOCH_BINS)
    assert log.epoch_histograms.dtype == np.int64
    assert int(log.epoch_histograms[0].sum()) == 4 * 16


@pytest.mark.parametrize("kind", ["ce", "ghm_c", "dghm_c", "dghm_c_star"])
def test_divergence_detected(kind):
    # poisoned inputs stop training before the first step under every loss;
    # the harmonized ones would otherwise fail binning NaN gradient norms
    pool = tiny_pool()
    pool.features[:, 0] = np.nan
    cfg = TrainConfig(loss_spec=LossSpec(kind=kind), epochs=2, steps_per_epoch=10,
                      learning_rate=1e-3, seed=0)
    with pytest.raises(TrainingDiverged, match="^non-finite feature in pool row 0$"):
        train(pool, cfg)


def test_divergence_names_the_step_of_a_non_finite_gradient(monkeypatch):
    # a NaN in one gradient must stop training before Adam spreads it into
    # the parameters, and the error must name that step
    pool = tiny_pool(eta=0.5)
    cfg = TrainConfig(epochs=2, steps_per_epoch=3, batch_size=16,
                      learning_rate=1e-3, seed=0)
    real_backward = model_module.backward
    calls = []

    def poisoned_backward(model, *args):
        grad = real_backward(model, *args)
        calls.append(None)
        if len(calls) == 5:  # epoch 1, step 4: the first bias of the first layer
            grad[sum(w.size for w in model.weights)] = np.nan
        return grad

    monkeypatch.setattr(model_module, "backward", poisoned_backward)
    with pytest.raises(TrainingDiverged, match="gradient at epoch 1, step 4$"):
        train(pool, cfg)


def test_every_train_call_warns_of_a_short_pool(caplog):
    pool = tiny_pool()
    n_pos = int(np.count_nonzero(pool.p_star == 1))
    cfg = TrainConfig(epochs=1, steps_per_epoch=3, batch_size=4 * (n_pos + 1),
                      learning_rate=1e-3, seed=0)
    with caplog.at_level(logging.WARNING, logger="dghm.simdata"):
        train(pool, cfg)
        train(pool, cfg)
    warnings = [r.getMessage() for r in caplog.records]
    assert warnings == [f"only {n_pos} positives available for quota {n_pos + 1}; "
                        "using all"] * 2


@pytest.mark.parametrize("spec", [
    LossSpec(kind="ce"),
    LossSpec(kind="dghm_c", harmonizer=HarmonizerConfig(momentum=0.7)),
], ids=lambda s: s.kind)
def test_train_runs_one_forward_per_step(monkeypatch, spec):
    pool = tiny_pool(eta=0.5)
    cfg = TrainConfig(loss_spec=spec, epochs=2, steps_per_epoch=3, batch_size=16,
                      learning_rate=1e-3, seed=1)
    real_forward = model_module.forward
    calls = []

    def counted_forward(*args):
        calls.append(None)
        return real_forward(*args)

    monkeypatch.setattr(model_module, "forward", counted_forward)
    train(pool, cfg)
    # one per step, and none over the whole pool
    assert len(calls) == cfg.epochs * cfg.steps_per_epoch


def test_train_allocates_its_step_buffers_once(monkeypatch):
    pool = tiny_pool(eta=0.5)
    cfg = TrainConfig(loss_spec=LossSpec(kind="dghm_c"), epochs=2, steps_per_epoch=3,
                      batch_size=16, learning_rate=1e-3, seed=1)
    real_forward, real_backward = model_module.forward, model_module.backward
    real_for_model = StepBuffers.for_model
    caches, grads, made = [], [], []

    def counted_for_model(cls, *args):
        made.append(real_for_model(*args))
        return made[-1]

    def recorded_forward(*args):
        out = real_forward(*args)
        caches.append(out[2])
        return out

    def recorded_backward(*args):
        grads.append(real_backward(*args))
        return grads[-1]

    monkeypatch.setattr(model_module, "forward", recorded_forward)
    monkeypatch.setattr(model_module, "backward", recorded_backward)
    monkeypatch.setattr(StepBuffers, "for_model", classmethod(counted_for_model))
    train(pool, cfg)
    steps = cfg.epochs * cfg.steps_per_epoch
    assert len(made) == 1  # one StepBuffers per train() call
    assert len(caches) == len(grads) == steps
    assert grads[0] is made[0].grad.params
    assert all(a is b for a, b in zip(caches[0][1:], made[0].layers))
    # every step writes the same layer outputs and the same gradient
    for cache in caches[1:]:
        assert all(a is b for a, b in zip(cache[1:], caches[0][1:]))
    assert all(g is grads[0] for g in grads)


def reference_classification(logits, p_star, a, spec, ema):
    """The classification kernel as it was before it took partition codes:
    codes from the scene attributes, beta = N' / GD^gamma from its own EMA'd
    counts, never through harmonize_weights; every CE from the two-log
    ce_loss."""
    p_star = np.asarray(p_star, dtype=np.float64)
    p = sigmoid(logits)
    g = gradient_norm(p, p_star)
    n = logits.size
    if not spec.is_harmonized:
        per, grad = {
            "ce": lambda: (ce_loss(p, p_star), ce_grad_logit(p, p_star)),
            "focal": lambda: (focal_loss(p, p_star, spec.focal),
                              focal_grad_logit(p, p_star, spec.focal)),
            "sce": lambda: (sce_loss(p, p_star, spec.sce), sce_grad_logit(p, p_star, spec.sce)),
        }[spec.kind]()
        return float(np.mean(per)), grad / n, HarmonizedBatch(g=g, N=n)
    cfg = spec.harmonizer
    codes = partition_of(p_star, a, cfg.mode)
    _, _, flat = flat_bins(g, codes, cfg.bin_count)
    m = len(MODE_PARTITIONS[cfg.mode])
    counts = ema.update(bin_counts(flat, m, cfg.bin_count).astype(np.float64))
    gamma = np.where(g >= cfg.outlier_threshold, cfg.gamma_by_code[codes], 1.0)
    n_prime = n if cfg.n_convention == "total" else np.bincount(codes, minlength=m)[codes]
    beta = n_prime / gradient_density(counts, g, flat) ** gamma
    loss = float(np.sum(beta * ce_loss(p, p_star)) / (m * n))
    return loss, beta * ce_grad_logit(p, p_star) / (m * n), HarmonizedBatch(g=g, N=n, beta=beta)


def smooth_l1(x):
    """Reference smooth-L1 loss: 0.5 x^2 for |x| < 1, |x| - 0.5 otherwise."""
    ax = np.abs(x)
    return np.where(ax < 1.0, 0.5 * x * x, ax - 0.5)


def smooth_l1_grad(x):
    """Reference smooth-L1 derivative: x for |x| < 1, sign(x) otherwise."""
    return np.where(np.abs(x) < 1.0, x, np.sign(x))


def reference_train(pool, cfg):
    """train() as it was before the pool-invariant columns were hoisted: every
    step gathers the labels and scene attributes, re-derives both partition
    codes, the positive mask and the feature check from them, and Adam
    allocates new moments."""
    model = Predictor.create(pool.features.shape[1], hidden=cfg.hidden, seed=cfg.seed)
    m, v = [np.zeros_like(model.params)], [np.zeros_like(model.params)]
    rng = np.random.default_rng([cfg.seed, 0xD64])
    quota = minibatch_quota(pool, cfg.batch_size)
    lr, t = cfg.learning_rate, 0
    ema = EmaHistograms(cfg.loss_spec.harmonizer)
    losses, epoch_hists = [], []
    for epoch in range(cfg.epochs):
        if epoch in decay_epochs_of(cfg.epochs):
            lr *= 0.1
        step_losses, hist_acc = [], np.zeros((2, 10), dtype=np.int64)
        for _ in range(cfg.steps_per_epoch):
            idx = sample_minibatch(quota, rng)
            features, p_star, a = pool.features[idx], pool.p_star[idx], pool.a[idx]
            targets, is_positive = pool.targets[idx], pool.p_star[idx] == 1
            assert np.all(np.isfinite(features))
            logits, offsets, cache = forward(model, features)
            cls_loss, dlogit, harmonized = reference_classification(
                logits, p_star, a, cfg.loss_spec, ema)
            n_pos = int(np.count_nonzero(is_positive))
            doffsets = np.zeros_like(offsets)
            reg_loss = 0.0
            if n_pos:
                diff = offsets[is_positive] - targets[is_positive]
                reg_loss = float(np.sum(smooth_l1(diff)) / n_pos)
                doffsets[is_positive] = cfg.reg_weight * smooth_l1_grad(diff) / n_pos
            grad = backward(model, cache, dlogit, doffsets)
            _, _, flat = flat_bins(harmonized.g, partition_of(p_star, a, Mode.DGHM), 10)
            hist_acc += bin_counts(flat, 2, 10)
            t += 1
            reference_adam([model.params], m, v, [grad], t, lr)
            step_losses.append(cls_loss + cfg.reg_weight * reg_loss)
        losses.append(float(np.mean(step_losses)))
        epoch_hists.append(hist_acc)
    return model, losses, epoch_hists


def short_pool():
    """A pool whose positives cannot fill the quota, and its batch size."""
    pool = tiny_pool(eta=0.5)
    return pool, 4 * (int(np.count_nonzero(pool.p_star == 1)) + 1)


def negative_pool():
    """A pool with no positives: every annotation dropped."""
    return tiny_pool(eta=1.0), 16


HARMONIZER_CASES = [
    HarmonizerConfig(momentum=0.0, n_convention="total"),
    HarmonizerConfig(momentum=0.0, n_convention="partition"),
    HarmonizerConfig(momentum=0.7, n_convention="total"),
    HarmonizerConfig(momentum=0.7, n_convention="partition", outlier_threshold=0.3),
]


def spec_id(spec):
    return f"{spec.kind}-m{spec.harmonizer.momentum}-{spec.harmonizer.n_convention}"


def hoisted_case(spec, pool_kind, hidden=(32,), reg_weight=1.0):
    depth = "" if hidden == (32,) else f"-hidden{'x'.join(map(str, hidden)) or 'none'}"
    bins = "" if spec.harmonizer.bin_count == 10 else f"-bins{spec.harmonizer.bin_count}"
    reg = "" if reg_weight == 1.0 else f"-reg{reg_weight}"
    return pytest.param(spec, pool_kind, hidden, reg_weight,
                        id=f"{spec_id(spec)}-{pool_kind}{depth}{bins}{reg}")


HOISTED_CASES = [
    *[hoisted_case(dataclasses.replace(spec, harmonizer=h), "full")
      for spec in ALL_SPECS
      for h in (HARMONIZER_CASES if spec.is_harmonized else HARMONIZER_CASES[:1])],
    *[hoisted_case(spec, pool) for spec in [ALL_SPECS[0], *ALL_SPECS[3:]]
      for pool in ("short", "negative")],
    # the per-layer step buffers at depth 0 (no hidden layer) and depth 2
    *[hoisted_case(spec, pool, hidden) for hidden in ((), (8, 8))
      for spec in ALL_SPECS for pool in ("full", "short")],
    # harmonizer bins unlike the per-epoch ones, so the epoch counts re-bin
    *[hoisted_case(dataclasses.replace(spec, harmonizer=HarmonizerConfig(bin_count=7)), "full")
      for spec in ALL_SPECS[3:]],
    # a regression weight that scales the offset gradient written in place
    *[hoisted_case(spec, pool, reg_weight=1.5) for spec in (ALL_SPECS[0], ALL_SPECS[4])
      for pool in ("full", "short")],
]


@pytest.mark.parametrize("spec, pool_kind, hidden, reg_weight", HOISTED_CASES)
def test_train_matches_the_per_step_reference(spec, pool_kind, hidden, reg_weight):
    if pool_kind == "full":
        pool, batch_size = tiny_pool(eta=0.3), 16
    elif pool_kind == "short":
        pool, batch_size = short_pool()
    else:
        pool, batch_size = negative_pool()
        assert not np.any(pool.p_star)
    cfg = TrainConfig(loss_spec=spec, epochs=3, steps_per_epoch=4, batch_size=batch_size,
                      hidden=hidden, reg_weight=reg_weight, learning_rate=3e-3, seed=5)
    model, log = train(pool, cfg)
    ref_model, ref_losses, ref_hists = reference_train(pool, cfg)
    np.testing.assert_array_equal(model.params, ref_model.params)
    assert log.mean_loss.tolist() == ref_losses
    np.testing.assert_array_equal(log.epoch_histograms, ref_hists)
    for hists, ref in zip(pool_gradient_histograms(model, pool),
                          pool_gradient_histograms(ref_model, pool)):
        np.testing.assert_array_equal(hists, ref)


def sampled_steps(pool, cfg):
    """The row indices each step of train(pool, cfg) draws, in step order."""
    rng = np.random.default_rng([cfg.seed, 0xD64])
    quota = minibatch_quota(pool, cfg.batch_size)
    return [sample_minibatch(quota, rng) for _ in range(cfg.epochs * cfg.steps_per_epoch)]


def counted_adam(monkeypatch):
    real_adam = model_module.adam_step
    calls = []

    def counted(*args):
        calls.append(None)
        return real_adam(*args)

    monkeypatch.setattr(model_module, "adam_step", counted)
    return calls


NAN_CFG = TrainConfig(epochs=3, steps_per_epoch=3, batch_size=16, learning_rate=1e-3, seed=0)


def assert_raises_before_the_first_step(monkeypatch, rows, value):
    """Setting rows' feature 3 to value makes train() name the first row before any step."""
    pool = tiny_pool(eta=0.5)
    pool.features[rows, 3] = value
    calls = counted_adam(monkeypatch)
    with pytest.raises(TrainingDiverged, match=f"^non-finite feature in pool row {min(rows)}$"):
        train(pool, NAN_CFG)
    assert not calls


def test_nan_feature_first_sampled_late_names_its_step(monkeypatch):
    # the error names the row, and no step runs, not even those before the row is drawn
    steps = sampled_steps(tiny_pool(eta=0.5), NAN_CFG)
    step = NAN_CFG.steps_per_epoch + 1  # epoch 1's second step
    late = np.setdiff1d(steps[step], np.concatenate(steps[:step]))[0]  # first drawn there
    assert_raises_before_the_first_step(monkeypatch, [late], np.nan)


def test_nan_feature_in_a_row_never_sampled_leaves_the_steps_alone(monkeypatch):
    steps = sampled_steps(tiny_pool(eta=0.5), NAN_CFG)
    never = np.setdiff1d(np.arange(tiny_pool(eta=0.5).size), np.concatenate(steps))[0]
    assert_raises_before_the_first_step(monkeypatch, [never], np.nan)


def test_a_non_finite_feature_raises_before_the_first_step(monkeypatch):
    steps = sampled_steps(tiny_pool(eta=0.5), NAN_CFG)
    first = steps[0][0]  # a row the first step draws
    late = np.setdiff1d(steps[4], np.concatenate(steps[:4]))[0]
    never = np.setdiff1d(np.arange(tiny_pool(eta=0.5).size), np.concatenate(steps))[0]
    for rows, value in [([first], np.nan), ([late], np.inf), ([never], -np.inf),
                        ([late, never, first], np.nan)]:
        assert_raises_before_the_first_step(monkeypatch, rows, value)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
def test_partition_codes_are_computed_once_per_train_call(monkeypatch, spec):
    pool = tiny_pool(eta=0.5)
    real = model_module.partition_of
    calls = []

    def counted(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(model_module, "partition_of", counted)
    counts = []
    for steps in (1, 7):
        calls.clear()
        train(pool, TrainConfig(loss_spec=spec, epochs=2, steps_per_epoch=steps,
                                batch_size=16, learning_rate=1e-3, seed=1))
        counts.append(len(calls))
    # the loss mode's codes (GHM and DGHM* only) and the two-way codes
    assert counts == [2 if spec.harmonizer.mode is not Mode.DGHM else 1] * 2


def test_sanity_recall_on_separable_corpus():
    # noiseless, no hard anchors: CE should almost solve the task
    spec = dataclasses.replace(TINY_SPEC, noise_level=0.01, hard_fraction=0.0,
                               extent=(32.0, 32.0))
    scenes = generate_corpus(spec, 8, 2, seed=6)
    pool = build_pool(scenes, spec, corpus_seed=6)
    cfg = TrainConfig(epochs=8, steps_per_epoch=30, batch_size=32,
                      learning_rate=3e-3, seed=6)
    model, _ = train(pool, cfg)
    logits, _, _ = forward(model, pool.features)
    p = sigmoid(logits)
    # training-set separation: positives score above negatives
    assert p[pool.p_star == 1].min() > p[pool.p_star == 0].mean()
    assert (p[pool.p_star == 1] > 0.5).mean() >= 0.95


def test_pool_histograms_partition_counts():
    pool = tiny_pool(eta=0.5)
    model = Predictor.create(pool.features.shape[1], seed=0)
    two_way, three_way = pool_gradient_histograms(model, pool)
    assert two_way.shape == (2, 10) and three_way.shape == (3, 10)
    assert two_way.sum() == three_way.sum() == pool.size
    noisy = int(np.count_nonzero((pool.p_star == 0) & (pool.a == 1)))
    assert two_way[1].sum() == three_way[1].sum() == noisy  # abnormal-scene negatives
    assert three_way[0].sum() == np.count_nonzero(pool.p_star == 1)


@pytest.mark.parametrize("bin_count", [1, 7, 10, 30])
def test_pool_histograms_equal_the_step_histograms(bin_count):
    # the whole-pool counts and a step's counts bin the same g alike
    pool = tiny_pool(eta=0.5)
    model = Predictor.create(pool.features.shape[1], seed=0)
    logits, _, _ = forward(model, pool.features)
    g = gradient_norm(sigmoid(logits), pool.p_star)
    pooled = pool_gradient_histograms(model, pool, bin_count)
    for mode, hists in zip((Mode.DGHM, Mode.DGHM_STAR), pooled):
        cfg = HarmonizerConfig(mode=mode, bin_count=bin_count)
        step = harmonize_weights(g, partition_of(pool.p_star, pool.a, mode), cfg)
        assert hists.dtype == step.histograms.dtype == np.float64
        np.testing.assert_array_equal(hists, step.histograms)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=float("nan"))
    for field, bad in [("epochs", -1), ("steps_per_epoch", 0), ("steps_per_epoch", -1),
                       ("batch_size", 0), ("batch_size", -4), ("reg_weight", -1.0)]:
        with pytest.raises(ValueError, match=f"^{field} must be >= "):
            TrainConfig(**{field: bad})
    TrainConfig(epochs=0, steps_per_epoch=1, batch_size=1, reg_weight=0.0)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    model = Predictor.create(5, hidden=(7, 3), seed=9)
    for w in model.weights:
        w += np.random.default_rng(1).normal(size=w.shape)
    path = tmp_path / "model.npz"
    save_checkpoint(path, model)
    loaded = load_checkpoint(path)
    assert len(loaded.weights) == len(model.weights)
    for a, b in zip(loaded.weights + loaded.biases, model.weights + model.biases):
        np.testing.assert_array_equal(a, b)


def write_npz(path, weights, biases, manifest_layers):
    """A checkpoint as the parent layout wrote it: w{i}, b{i} and a manifest."""
    arrays = {}
    for i, (w, b) in enumerate(zip(weights, biases)):
        arrays[f"w{i}"], arrays[f"b{i}"] = w, b
    manifest = json.dumps({"layers": manifest_layers}).encode()
    np.savez(path, **arrays, manifest=np.frombuffer(manifest, dtype=np.uint8))


def test_checkpoint_hand_built_npz_loads(tmp_path):
    rng = np.random.default_rng(3)
    weights = [rng.normal(size=(5, 7)), rng.normal(size=(7, 3)), rng.normal(size=(3, 5))]
    biases = [rng.normal(size=7), rng.normal(size=3), rng.normal(size=5)]
    layers = [{"w": list(w.shape), "b": list(b.shape)} for w, b in zip(weights, biases)]
    write_npz(tmp_path / "model.npz", weights, biases, layers)
    loaded = load_checkpoint(tmp_path / "model.npz")
    assert loaded.dims == (5, 7, 3, 5)
    for a, b in zip(loaded.weights + loaded.biases, weights + biases):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(loaded.params, flat(weights + biases))


def test_checkpoint_rejects_shape_differing_from_manifest(tmp_path):
    weights = [np.zeros((5, 7)), np.zeros((7, 5))]
    biases = [np.zeros(7), np.zeros(5)]
    # same element count, other shape: a flat buffer would reshape it silently
    layers = [{"w": [7, 5], "b": [7]}, {"w": [7, 5], "b": [5]}]
    write_npz(tmp_path / "model.npz", weights, biases, layers)
    with pytest.raises(ValueError, match="manifest"):
        load_checkpoint(tmp_path / "model.npz")


def test_checkpoint_rejects_layers_that_do_not_chain(tmp_path):
    weights = [np.zeros((5, 7)), np.zeros((6, 5))]
    biases = [np.zeros(7), np.zeros(5)]
    layers = [{"w": list(w.shape), "b": list(b.shape)} for w, b in zip(weights, biases)]
    write_npz(tmp_path / "model.npz", weights, biases, layers)
    with pytest.raises(ValueError, match="chain"):
        load_checkpoint(tmp_path / "model.npz")


def test_training_log_csv(tmp_path):
    pool = tiny_pool()
    cfg = TrainConfig(epochs=2, steps_per_epoch=2, learning_rate=1e-3, seed=0)
    _, log = train(pool, cfg)
    path = tmp_path / "log.csv"
    save_training_log_csv(path, log, histogram_ref="hist.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,mean_loss,lr,histogram_file"
    assert len(lines) == 3
    assert lines[1].endswith("hist.csv")
