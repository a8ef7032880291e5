"""Minimal two-headed predictor with hand-derived backpropagation.

The network is a small tanh MLP whose final dense layer emits five numbers per
anchor: one classification logit and four box offsets.  Gradients are computed
analytically (no autodiff) and verified against central finite differences.
Harmonizer weights are recomputed each iteration from the current gradient
norms and then frozen, so no derivative flows through them.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, replace
from itertools import accumulate

import numpy as np

from .harmonizer import (
    EmaHistograms,
    LossSpec,
    Mode,
    bin_counts,
    bin_index,
    classification_loss_and_grad,
    flat_bins,
    partition_of,
)
from .losses import gradient_norm, sigmoid, smooth_l1_and_grad
from .simdata import AnchorPool, minibatch_quota, sample_minibatch


class TrainingDiverged(RuntimeError):
    """Raised on a non-finite pool feature, or when the loss, a gradient or a
    parameter becomes non-finite."""


@dataclass
class Predictor:
    """Dense layers as (W, b) pairs; hidden activations are tanh.

    The last layer has 5 outputs: [logit, dx, dy, dw, dh].  params is one
    float64 vector, every weight matrix in C order and then every bias;
    weights and biases are views into it, so a write through either shows in
    params.
    """

    dims: tuple  # layer widths: feature dim, hidden widths, 5
    params: np.ndarray
    weights: list = field(init=False, repr=False)
    biases: list = field(init=False, repr=False)

    def __post_init__(self):
        shapes = list(zip(self.dims[:-1], self.dims[1:]))
        sizes = [m * n for m, n in shapes] + list(self.dims[1:])
        if self.params.shape != (sum(sizes),):
            raise ValueError(f"params shape {self.params.shape} != ({sum(sizes)},)")
        bounds = list(accumulate(sizes, initial=0))
        parts = [self.params[a:b] for a, b in zip(bounds, bounds[1:])]
        self.weights = [part.reshape(shape) for part, shape in zip(parts, shapes)]
        self.biases = parts[len(shapes):]

    @classmethod
    def from_layers(cls, weights, biases) -> "Predictor":
        """Copies the (W, b) layers into one params vector; they must chain."""
        dims = (weights[0].shape[0], *(w.shape[1] for w in weights))
        for i, (w, b) in enumerate(zip(weights, biases)):
            if w.shape != dims[i:i + 2] or b.shape != dims[i + 1:i + 2]:
                raise ValueError(f"layer {i} shapes {w.shape}, {b.shape} do not "
                                 f"chain from width {dims[i]}")
        params = np.concatenate([np.ravel(p) for p in [*weights, *biases]],
                                dtype=np.float64)
        return cls(dims=dims, params=params)

    @classmethod
    def create(cls, feature_dim: int, hidden: tuple = (32,), seed: int = 0) -> "Predictor":
        """Small uniform init for hidden layers, zeros for the output layer,
        so training starts at p = 0.5 with well-spread gradient norms."""
        rng = np.random.default_rng(seed)
        dims = [feature_dim, *hidden, 5]
        weights = [rng.uniform(-1.0 / np.sqrt(m), 1.0 / np.sqrt(m), size=(m, n))
                   for m, n in zip(dims[:-2], dims[1:-1])]
        weights.append(np.zeros((dims[-2], 5)))
        return cls.from_layers(weights, [np.zeros(n) for n in dims[1:]])

    def copy(self) -> "Predictor":
        return Predictor(dims=self.dims, params=self.params.copy())


@dataclass
class StepBuffers:
    """The arrays forward, backward and adam_step write in a training step,
    for batches of n rows.

    train() allocates one set per call and each step overwrites it.  Given
    none, forward and adam_step allocate what they write and backward a
    fresh set; the loss kernels always allocate their n-row results.
    """

    layers: list  # per dense layer, its (n, width) output
    delta: np.ndarray  # (n, 5) output-layer gradient: [dlogit, doffsets]
    hidden: list  # per hidden layer, its (n, width) backpropagated gradient
    slopes: list  # per hidden layer, (n, width) scratch for 1 - tanh^2
    grad: Predictor  # the flat gradient and its per-layer views
    adam: np.ndarray  # (2, P) scratch for adam_step

    @classmethod
    def for_model(cls, model: Predictor, n: int) -> "StepBuffers":
        widths = model.dims[1:]
        return cls(layers=[np.empty((n, w)) for w in widths],
                   delta=np.empty((n, widths[-1])),
                   hidden=[np.empty((n, w)) for w in widths[:-1]],
                   slopes=[np.empty((n, w)) for w in widths[:-1]],
                   grad=Predictor(dims=model.dims, params=np.empty_like(model.params)),
                   adam=np.empty((2, model.params.size)))


def forward(model: Predictor, features, outs=None):
    """Returns (logits (n,), offsets (n, 4), cache) for a batch of features.

    cache is [input, every layer's output].  outs, one (n, width) array per
    dense layer such as StepBuffers.layers, takes the outputs, overwritten;
    without it they are allocated.
    """
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if x.shape[1] != model.dims[0]:
        raise ValueError(f"feature dim {x.shape[1]} != model dim {model.dims[0]}")
    if outs is None:
        outs = [np.empty((len(x), w)) for w in model.dims[1:]]
    activations = [x]
    last = len(outs) - 1
    for i, (w, b, z) in enumerate(zip(model.weights, model.biases, outs)):
        np.matmul(activations[-1], w, out=z)
        z += b
        if i < last:
            np.tanh(z, out=z)
        activations.append(z)
    out = activations[-1]
    return out[:, 0], out[:, 1:5], activations


#: Most rows per forward of a whole-pool pass; bounds its layers' memory.
FORWARD_ROWS = 2048


def forward_pool(model: Predictor, features):
    """(logits (n,), offsets (n, 4)) of every feature row, by forwards of
    near-equal blocks of at most FORWARD_ROWS rows, which share one array per
    hidden layer and write their rows of one output.  No block has 1 row
    unless the pool does, so the bits equal one forward's: a (1, k) matmul
    operand takes another BLAS path."""
    n = len(features)
    blocks = max(-(-n // FORWARD_ROWS), 1)
    bounds = [n * i // blocks for i in range(blocks + 1)]
    out = np.empty((n, model.dims[-1]))
    hidden = [np.empty((-(-n // blocks), w)) for w in model.dims[1:-1]]
    for start, stop in zip(bounds, bounds[1:]):
        forward(model, features[start:stop],
                [h[:stop - start] for h in hidden] + [out[start:stop]])
    return out[:, 0], out[:, 1:5]


def backward(model: Predictor, activations, dlogit, doffsets,
             buffers: StepBuffers | None = None):
    """Backpropagate per-example output gradients into parameter gradients.

    dlogit is (n,) and doffsets (k, 4) for the k <= n leading rows, the rest
    having none; both already include loss normalizers.  They are copied into
    buffers.delta.  Returns one flat gradient laid out like model.params:
    buffers.grad.params when given, overwritten.
    """
    if buffers is None:
        buffers = StepBuffers.for_model(model, len(dlogit))
    delta, k = buffers.delta, len(doffsets)
    delta[:, 0] = dlogit
    delta[:k, 1:] = doffsets
    delta[k:, 1:] = 0.0
    grad = buffers.grad
    for i in range(len(model.weights) - 1, -1, -1):
        np.matmul(activations[i].T, delta, out=grad.weights[i])
        delta.sum(axis=0, out=grad.biases[i])
        if i > 0:
            # activations[i] is tanh(z_i) for hidden layers; slope = 1 - tanh^2
            back, slope = buffers.hidden[i - 1], buffers.slopes[i - 1]
            np.matmul(delta, model.weights[i].T, out=back)
            np.square(activations[i], out=slope)
            np.subtract(1.0, slope, out=slope)
            back *= slope
            delta = back
    return grad.params


@dataclass
class Batch:
    """Training mini-batch as flat arrays, its positives in the leading rows.

    The regression term covers the first len(targets) rows, as sample_minibatch
    puts every positive first.
    """

    features: np.ndarray  # (n, d)
    p_star: np.ndarray  # (n,) float64 given labels
    codes: np.ndarray  # (n,) partition codes under the loss spec's mode
    targets: np.ndarray  # (k, 4) regression targets of the k leading positives


def batch_loss_and_grads(model: Predictor, batch: Batch, spec: LossSpec,
                         reg_weight: float = 1.0, ema=None, beta=None,
                         buffers: StepBuffers | None = None):
    """Total loss of the selected spec plus analytic parameter gradients.

    Returns (loss, flat gradient, HarmonizedBatch): the last is the
    classification kernel's record of the batch (gradient norms for every
    kind; beta and the harmonizer counts for harmonized kinds).  ema and beta
    go to classification_loss_and_grad; buffers go to forward and backward,
    so the gradient returned is then buffers.grad.params.
    """
    logits, offsets, cache = forward(model, batch.features,
                                     None if buffers is None else buffers.layers)
    cls_loss, dlogit, harmonized = classification_loss_and_grad(
        logits, batch.p_star, batch.codes, spec, ema=ema, beta=beta)
    k = len(batch.targets)
    reg_loss, doffsets = 0.0, np.empty((0, 4))  # no positive, no offset gradient
    if k:
        per, doffsets = smooth_l1_and_grad(offsets[:k] - batch.targets)
        reg_loss = float(per.sum() / k)
        doffsets *= reg_weight
        doffsets /= k
    grad = backward(model, cache, dlogit, doffsets, buffers)
    return cls_loss + reg_weight * reg_loss, grad, harmonized


def finite_difference_check(model: Predictor, batch: Batch, spec: LossSpec,
                            reg_weight: float = 1.0, max_params: int = 1000,
                            seed: int = 0) -> float:
    """Max relative error between analytic and central-difference gradients,
    the differences taken at a parameter step of 1e-6.

    Harmonizer weights are computed once at the unperturbed point and frozen,
    matching the training contract.  Regression targets sitting within 1e-3 of
    the smooth-L1 kink are nudged away before checking.  Above max_params, a
    random subsample of coordinates is checked.
    """
    step = 1e-6
    batch = replace(batch, targets=batch.targets.copy())
    logits0, offsets0, _ = forward(model, batch.features)
    diff = offsets0[:len(batch.targets)] - batch.targets
    batch.targets[np.abs(np.abs(diff) - 1.0) < 1e-3] += 0.01

    beta = classification_loss_and_grad(logits0, batch.p_star, batch.codes, spec)[2].beta

    buffers = StepBuffers.for_model(model, len(batch.features))

    def loss_and_grads(params_model):
        return batch_loss_and_grads(params_model, batch, spec, reg_weight, beta=beta,
                                    buffers=buffers)

    analytic = loss_and_grads(model)[1].copy()  # every later call overwrites the buffers
    coords = range(model.params.size)
    if len(coords) > max_params:
        coords = np.random.default_rng(seed).choice(len(coords), size=max_params,
                                                    replace=False)

    work = model.copy()
    max_rel = 0.0
    for i in coords:
        orig = work.params[i]
        work.params[i] = orig + step
        up = loss_and_grads(work)[0]
        work.params[i] = orig - step
        down = loss_and_grads(work)[0]
        work.params[i] = orig
        fd = (up - down) / (2.0 * step)
        an = analytic[i]
        rel = abs(an - fd) / max(abs(an), abs(fd), 1e-2)
        max_rel = max(max_rel, rel)
    return max_rel


#: Adam's moment decays and the offset of its denominator
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
_ADAM_DECAYS = np.array([[ADAM_BETA1], [ADAM_BETA2]])  # (2, 1), for rows m and v
_ADAM_RATES = 1.0 - _ADAM_DECAYS


@dataclass
class AdamState:
    moments: np.ndarray  # (2, P): rows m and v, each laid out like model.params
    step: int = 0

    @classmethod
    def for_model(cls, model: Predictor) -> "AdamState":
        return cls(moments=np.zeros((2, model.params.size)))


def adam_step(model: Predictor, state: AdamState, grad, lr: float, scratch=None):
    """Standard Adam update of the flat gradient, in place on model.params and
    on the state's moments, both moments at once.  scratch, a (2, P) array,
    holds the temporaries; without it they are allocated."""
    state.step += 1
    t = state.step
    work = np.multiply(_ADAM_RATES, grad, out=scratch)  # (1 - beta) g, for m and v
    work[1] *= grad
    state.moments *= _ADAM_DECAYS
    state.moments += work
    # m_hat and v_hat
    np.divide(state.moments, [[1.0 - ADAM_BETA1**t], [1.0 - ADAM_BETA2**t]], out=work)
    step, denom = work
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    step *= lr
    step /= denom
    model.params -= step


def check_int(key: str, value, least: int):
    """Refuse, naming key, a bool, a non-integer or an integer below least."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{key} must be int, got {value!r}")
    if value < least:
        raise ValueError(f"{key} must be >= {least}, got {value}")


@dataclass(frozen=True)
class TrainConfig:
    # desk-scale training defaults; the paper-scale learning schedule shape
    # (x0.1 decay at 60%/80% of epochs) is preserved
    learning_rate: float = 3e-3
    epochs: int = 40
    batch_size: int = 256
    steps_per_epoch: int = 60
    hidden: tuple[int, ...] = (32,)
    reg_weight: float = 1.0

    def __post_init__(self):
        if not self.learning_rate > 0:  # NaN fails it too
            raise ValueError("learning rate must be positive")
        for name, least in (("epochs", 0), ("batch_size", 1), ("steps_per_epoch", 1)):
            check_int(name, getattr(self, name), least)
        if self.reg_weight < 0:
            raise ValueError(f"reg_weight must be >= 0, got {self.reg_weight}")
        for i, width in enumerate(self.hidden):
            check_int(f"hidden[{i}]", width, 1)


#: Bins of the per-epoch clean/noisy gradient-norm counts in TrainLog.
EPOCH_BINS = 10


@dataclass
class TrainLog:
    """What train() measured, one row per epoch."""

    mean_loss: np.ndarray  # (E,) mean loss of the epoch's steps
    lr: np.ndarray  # (E,) learning rate of the epoch
    epoch_histograms: np.ndarray  # (E, 2, EPOCH_BINS) int64 clean/noisy counts of its batches


def pool_gradient_histograms(model: Predictor, pool: AnchorPool, bin_count: int = 10):
    """Gradient-norm histograms of a model over the whole pool, from one
    forward_pool: the two-way (2, B) and the three-way (3, B) counts, the figure
    data cmd_train exports for the trained model."""
    logits, _ = forward_pool(model, pool.features)
    g = gradient_norm(sigmoid(logits), pool.p_star)
    hists = []
    for mode, n_partitions in ((Mode.DGHM, 2), (Mode.DGHM_STAR, 3)):
        _, _, flat = flat_bins(g, partition_of(pool.p_star, pool.a, mode), bin_count)
        hists.append(bin_counts(flat, n_partitions, bin_count).astype(np.float64))
    return tuple(hists)


def _check_finite(what: str, arr, epoch: int, step: int):
    if not np.isfinite(arr).all():
        raise TrainingDiverged(f"non-finite {what} at epoch {epoch}, step {step}")


def train(pool: AnchorPool, cfg: TrainConfig, spec: LossSpec, seed: int):
    """Seeded training loop: sample -> forward -> harmonize -> backward -> Adam.

    Trains cfg's settings on the loss spec, seed drawing the initial model
    and the batches; returns (trained model, TrainLog).  The learning rate
    drops x0.1 at 60 % and at 80 % of the epochs, once per distinct epoch.

    Raises TrainingDiverged before the first step when a pool row holds a
    non-finite feature, naming the first such row, so that neither a step
    nor a later forward over the pool meets it; and on a non-finite loss or
    gradient before the update and on a non-finite parameter after it,
    naming the epoch and the 0-based step.

    What depends only on the pool is computed once per call: the partition
    codes and the number k of leading positives in every batch, and so the
    batch labels.  So are the StepBuffers and the Batch, as every batch has
    the same size: a step gathers its rows into them.  Each epoch's
    clean/noisy counts take one bin_counts over the flat (partition, bin)
    index of every row it drew.
    """
    finite_rows = np.isfinite(pool.features).all(axis=1)
    if not finite_rows.all():
        raise TrainingDiverged(f"non-finite feature in pool row {np.argmin(finite_rows)}")
    model = Predictor.create(pool.features.shape[1], hidden=cfg.hidden, seed=seed)
    state = AdamState.for_model(model)
    rng = np.random.default_rng([seed, 0xD64])
    quota = minibatch_quota(pool, cfg.batch_size)
    pos_idx, _, n_pos, n_neg = quota
    k = pos_idx.size if n_pos is None else n_pos
    n = k + n_neg
    buffers = StepBuffers.for_model(model, n)
    # every batch draws k positives, then negatives: its labels never change
    batch = Batch(features=np.empty((n, pool.features.shape[1])),
                  p_star=(np.arange(n) < k).astype(np.float64), codes=None,
                  targets=np.empty((k, 4)))
    two_way = partition_of(pool.p_star, pool.a, Mode.DGHM)
    codes = two_way  # only harmonized kinds read the codes
    mode = spec.harmonizer.mode
    if spec.is_harmonized and mode is not Mode.DGHM:
        codes = partition_of(pool.p_star, pool.a, mode)
    # each pool row's offset into the flat (2, EPOCH_BINS) per-epoch counts;
    # whether the harmonizer's bins are the per-epoch ones; and per step of an
    # epoch, the flat index of each row it drew, one byte each
    epoch_offsets = (two_way * EPOCH_BINS).astype(np.int8)
    same_bins = spec.is_harmonized and spec.harmonizer.bin_count == EPOCH_BINS
    epoch_rows = np.empty((cfg.steps_per_epoch, n), dtype=np.int8)
    epochs = cfg.epochs
    decay_epochs = (min(max(int(epochs * 0.6), 1), epochs),
                    min(max(int(epochs * 0.8), 2), epochs))
    lr = cfg.learning_rate
    ema = EmaHistograms(spec.harmonizer)
    log = TrainLog(mean_loss=np.empty(cfg.epochs), lr=np.empty(cfg.epochs),
                   epoch_histograms=np.empty((cfg.epochs, 2, EPOCH_BINS), dtype=np.int64))
    for epoch in range(cfg.epochs):
        if epoch in decay_epochs:
            lr *= 0.1
        losses = []
        for row in epoch_rows:
            step = state.step
            idx = sample_minibatch(quota, rng)
            # idx lies in the pool, and "clip" lets take write out unbuffered
            pool.features.take(idx, axis=0, out=batch.features, mode="clip")
            batch.codes = codes.take(idx)  # fresh: the HarmonizedBatch keeps it
            pool.targets.take(idx[:k], axis=0, out=batch.targets, mode="clip")
            loss, grad, harmonized = batch_loss_and_grads(
                model, batch, spec, reg_weight=cfg.reg_weight, ema=ema, buffers=buffers)
            if not math.isfinite(loss):
                raise TrainingDiverged(
                    f"non-finite loss {loss!r} at epoch {epoch}, step {step}")
            _check_finite("gradient", grad, epoch, step)
            bins = harmonized.bins if same_bins else bin_index(harmonized.g, EPOCH_BINS)
            np.add(epoch_offsets.take(idx), bins, out=row)
            adam_step(model, state, grad, lr, buffers.adam)
            _check_finite("parameter", model.params, epoch, step)
            losses.append(loss)
        log.mean_loss[epoch] = np.mean(losses)
        log.lr[epoch] = lr
        log.epoch_histograms[epoch] = bin_counts(epoch_rows.ravel(), 2, EPOCH_BINS)
    return model, log


# ---------------------------------------------------------------------------
# Checkpoint and log serialization.
# ---------------------------------------------------------------------------


def save_checkpoint(path, model: Predictor):
    """npz of flat arrays plus an embedded JSON manifest of layer shapes."""
    arrays = {}
    manifest = {"layers": []}
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        arrays[f"w{i}"] = w
        arrays[f"b{i}"] = b
        manifest["layers"].append({"w": list(w.shape), "b": list(b.shape)})
    arrays["manifest"] = np.frombuffer(json.dumps(manifest).encode(), dtype=np.uint8)
    np.savez(path, **arrays)


def load_checkpoint(path) -> Predictor:
    """Raises ValueError when an array disagrees with its manifest shape or
    the layers do not chain."""
    with np.load(path) as data:
        layers = json.loads(bytes(data["manifest"]).decode())["layers"]
        weights = [data[f"w{i}"] for i in range(len(layers))]
        biases = [data[f"b{i}"] for i in range(len(layers))]
    for i, (layer, w, b) in enumerate(zip(layers, weights, biases)):
        if [list(w.shape), list(b.shape)] != [layer["w"], layer["b"]]:
            raise ValueError(f"layer {i} shapes {w.shape}, {b.shape} differ from "
                             f"manifest {layer['w']}, {layer['b']}")
    return Predictor.from_layers(weights, biases)


def save_training_log_csv(path, log: TrainLog, histogram_ref: str = ""):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "mean_loss", "lr", "histogram_file"])
        for epoch, (mean_loss, lr) in enumerate(zip(log.mean_loss, log.lr)):
            writer.writerow([epoch, f"{mean_loss:.10g}", f"{lr:.10g}", histogram_ref])
