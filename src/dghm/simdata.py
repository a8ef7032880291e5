"""Synthetic desk-scale detection benchmark with controllable partial annotation.

Scenes come in two classes: abnormal (AP, contains objects with partially
annotated boxes) and normal (NP, guaranteed empty).  Anchors on a regular grid
are labeled by IoU against the *annotated* boxes, while an ideal label against
all boxes is kept for diagnostics.  Dropping annotations at rate eta therefore
flips some positive anchors to (noisy) negatives, never the reverse.

Features are deliberately synthetic: a signal channel monotone in the anchor's
best IoU with any true box, attenuated for a controllable fraction of "hard"
anchors, plus independent noise channels.  Everything is deterministic given
the corpus seed.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import logging
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)

AP = "AP"
NP_CLASS = "NP"

IOU_POSITIVE = 0.5  # anchor is positive iff best IoU >= this
_IOU_PAIRS = 1 << 16  # anchor x box pairs labeled per IoU pass; bounds its memory
MAX_ANCHORS_PER_SCENE = 1 << 16  # a SceneSpec's grid bound: 256x the default grid


def iou(a, b) -> float:
    """Intersection over union of two (cx, cy, w, h) rows."""
    (acx, acy, aw, ah), (bcx, bcy, bw, bh) = a, b
    ix = min(acx + aw / 2, bcx + bw / 2) - max(acx - aw / 2, bcx - bw / 2)
    iy = min(acy + ah / 2, bcy + bh / 2) - max(acy - ah / 2, bcy - bh / 2)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    return inter / (aw * ah + bw * bh - inter)


def box_span(boxes, axis: int, rows=slice(None)):
    """Low and high edges of boxes[rows] on axis 0 (x) or 1 (y), as ``iou``
    computes them: centre -+ side / 2."""
    centre, half = boxes[:, axis][rows], boxes[:, axis + 2][rows] / 2
    return centre - half, centre + half


def iou_matrix(boxes_a, boxes_b, rows_a=(slice(None), None), rows_b=slice(None)):
    """IoU of (cx, cy, w, h) rows boxes_a[rows_a] against boxes_b[rows_b], which
    broadcast together: by default every pair of (n, 4) and (m, 4), (n, m).

    The one float expression behind NMS, matching and the pool's labels;
    ``iou`` computes it too.  Index arrays gather each column as it is read,
    so that a pass over row pairs holds few arrays of its size at a time.
    """
    def overlap(axis):
        lo, hi = zip(box_span(boxes_a, axis, rows_a), box_span(boxes_b, axis, rows_b))
        hi = np.minimum(*hi)
        hi -= np.maximum(*lo)
        return np.maximum(hi, 0.0, out=hi)

    inter = overlap(0)
    inter *= overlap(1)
    area_a = boxes_a[:, 2][rows_a] * boxes_a[:, 3][rows_a]
    return inter / (area_a + boxes_b[:, 2][rows_b] * boxes_b[:, 3][rows_b] - inter)


@dataclass(eq=False)  # array fields: == would compare them elementwise
class Scene:
    scene_id: int
    image_class: str  # AP or NP
    gt_boxes: np.ndarray  # (n, 4) rows of (cx, cy, w, h)
    annotated: np.ndarray  # boolean mask over gt_boxes

    def __post_init__(self):
        self.gt_boxes = np.asarray(self.gt_boxes, dtype=np.float64).reshape(-1, 4)
        self.annotated = np.asarray(self.annotated, dtype=bool)
        if self.image_class == NP_CLASS and len(self.gt_boxes):
            raise ValueError("NP scenes must have no ground-truth boxes")
        if len(self.annotated) != len(self.gt_boxes):
            raise ValueError("annotated mask length must match gt_boxes")
        if not np.all(self.gt_boxes[:, 2:] > 0):
            raise ValueError("box sides must be positive")

    @property
    def is_abnormal(self) -> bool:
        return self.image_class == AP


@dataclass(frozen=True)
class SceneSpec:
    """Geometry and feature parameters of the synthetic corpus."""

    extent: tuple[float, float] = (64.0, 64.0)
    objects_per_ap_scene: tuple[int, int] = (2, 6)  # inclusive range
    object_size: tuple[float, float] = (10.0, 14.0)
    anchor_stride: float = 4.0
    anchor_sizes: tuple[float, ...] = (12.0,)
    feature_dim: int = 16
    noise_level: float = 0.44
    hard_fraction: float = 0.5
    hard_attenuation: tuple[float, float] = (0.1, 0.4)  # hard-anchor signal multiplier range
    signal_gain: float = 1.31
    secondary_gain: float = 0.7  # secondary-channel strength relative to signal_gain
    signal_background: float = 0.0

    def __post_init__(self):
        for name in ("extent", "objects_per_ap_scene", "object_size", "hard_attenuation"):
            pair = getattr(self, name)
            if len(pair) != 2 or name != "extent" and pair[0] > pair[1]:
                raise ValueError(f"{name} must be a pair, a range's low end first, got {pair!r}")
        if self.objects_per_ap_scene[0] < 0:
            raise ValueError(f"objects_per_ap_scene must be >= 0, got {self.objects_per_ap_scene}")
        if self.object_size[0] <= 0:
            raise ValueError(f"object_size must be positive, got {self.object_size}")
        if self.noise_level < 0:
            raise ValueError(f"noise_level must be >= 0, got {self.noise_level}")
        if self.object_size[1] > min(self.extent):
            raise ValueError(f"object_size {self.object_size} exceeds the extent {self.extent}")
        if self.anchor_stride <= 0:
            raise ValueError("anchor_stride must be positive")
        if not self.anchor_sizes or not all(0 < size < np.inf for size in self.anchor_sizes):
            raise ValueError("anchor_sizes must be nonempty, positive and finite")
        if not 0.0 <= self.hard_fraction <= 1.0:
            raise ValueError("hard_fraction must be in [0, 1]")
        if self.feature_dim < 2:
            raise ValueError("feature_dim must be at least 2")
        nx, ny = _grid_shape(self)
        if nx * ny * len(self.anchor_sizes) > MAX_ANCHORS_PER_SCENE:
            raise ValueError(f"extent {self.extent}, anchor_stride {self.anchor_stride} and "
                             f"anchor_sizes {self.anchor_sizes} give a grid of more than "
                             f"{MAX_ANCHORS_PER_SCENE} anchors per scene")


@dataclass(frozen=True)
class CorruptionSpec:
    eta: float
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError("eta must be in [0, 1]")


def generate_scene(spec: SceneSpec, image_class: str, rng) -> Scene:
    """Sample one scene; deterministic given the rng state."""
    width, height = spec.extent
    boxes = []
    if image_class == AP:
        lo, hi = spec.objects_per_ap_scene
        n = int(rng.integers(lo, hi + 1))
        for _ in range(n):
            w = float(rng.uniform(*spec.object_size))
            h = float(rng.uniform(*spec.object_size))
            cx = float(rng.uniform(w / 2, width - w / 2))
            cy = float(rng.uniform(h / 2, height - h / 2))
            boxes.append((cx, cy, w, h))
    elif image_class != NP_CLASS:
        raise ValueError(f"unknown image class {image_class!r}")
    return Scene(scene_id=-1, image_class=image_class, gt_boxes=boxes,
                 annotated=np.ones(len(boxes), dtype=bool))


def generate_corpus(spec: SceneSpec, n_ap: int, n_np: int, seed: int):
    """AP scenes first, then NP scenes; per-scene rng streams from (seed, scene_id)."""
    scenes = []
    for sid in range(n_ap + n_np):
        rng = np.random.default_rng([seed, sid])
        cls = AP if sid < n_ap else NP_CLASS
        scene = generate_scene(spec, cls, rng)
        scene.scene_id = sid
        scenes.append(scene)
    return scenes


def corrupt_annotations(scenes, spec: CorruptionSpec):
    """Drop round(eta * total) annotations uniformly at random across scenes.

    The draw is over all ``total`` boxes, annotated or not, in scene then row
    order.  Returns (new scene list, k): each scene's annotated mask ANDed
    with its part of the flat keep-mask, and k the number of boxes drawn.
    Input scenes are not mutated.
    """
    counts = [len(s.gt_boxes) for s in scenes]
    k = int(round(spec.eta * sum(counts)))
    keep = np.ones(sum(counts), dtype=bool)
    if k:
        keep[np.random.default_rng(spec.seed).choice(len(keep), size=k, replace=False)] = False
    parts = np.split(keep, np.cumsum(counts[:-1], dtype=int))
    return [dataclasses.replace(s, annotated=s.annotated & part)
            for s, part in zip(scenes, parts)], k


def _grid_shape(spec: SceneSpec):
    """Columns and rows of spec's anchor grid, as floats, so a grid too big to build counts too."""
    return [max(np.ceil(side / spec.anchor_stride), 1.0) for side in spec.extent]


def build_anchor_grid(spec: SceneSpec) -> np.ndarray:
    """The one anchor grid of every scene of spec: square anchors covering the
    extent on a regular grid, one per size entry.

    Returns (n, 4) rows of (cx, cy, w, h), ordered by size, then row, then column.
    """
    stride = spec.anchor_stride
    nx, ny = (int(n) for n in _grid_shape(spec))
    size, cy, cx = np.meshgrid(spec.anchor_sizes, (np.arange(ny) + 0.5) * stride,
                               (np.arange(nx) + 0.5) * stride, indexing="ij")
    return np.stack([cx, cy, size, size], axis=-1).reshape(-1, 4)


# numpy's SeedSequence (pool of 4 uint32 words) and PCG64 seeding constants
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG64_MULT_INV = pow(_PCG64_MULT, -1, 1 << 128)

# the same arithmetic on uint64 columns; every constant is np.uint64, so that
# numpy 1.x value-based casting and NEP 50 promote alike
_U32 = np.uint64(_MASK32)
_MULT_HI = np.uint64(_PCG64_MULT >> 64)
_MULT_LO = np.uint64(_PCG64_MULT & 0xFFFFFFFFFFFFFFFF)
_MULT_LO_0, _MULT_LO_1 = np.uint64(_PCG64_MULT & _MASK32), np.uint64(_PCG64_MULT >> 32 & _MASK32)
_ZIGGURAT_ABS = np.uint64((1 << 52) - 1)
_CHUNK = 4096  # anchors drawn per array pass; bounds the temporaries' memory
_SPARE = 8  # raw outputs drawn past the d normals and 2 uniforms of a row off the fast path
_WEDGE_BAND = 2.0**-30  # wedge tests closer than this (relative) to the boundary are replayed


def _entropy_words(n: int) -> list:
    """A seed int as numpy's uint32 entropy words, least significant first."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _seed_states(entropy: list) -> np.ndarray:
    """SeedSequence(words).generate_state(4, np.uint64) for every row of entropy words.

    Each entry of entropy is one uint32 word: an int shared by every row or an
    (n,) column.  The mixing is numpy's fixed uint32 arithmetic, run on (n,)
    columns at once; uint32 arrays wrap mod 2**32 as the C code does.
    Returns (n, 4) uint64.
    """
    n = max(np.size(word) for word in entropy)
    entropy = [np.broadcast_to(np.asarray(word, dtype=np.uint32), n) for word in entropy]
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value *= np.uint32(hash_const)
        value ^= value >> np.uint32(16)
        return value

    def mix(x, y):
        result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        result ^= result >> np.uint32(16)
        return result

    zeros = np.zeros(n, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zeros) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = _INIT_B
    state = np.empty((n, 8), dtype=np.uint32)
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value *= np.uint32(hash_const)
        value ^= value >> np.uint32(16)
        state[:, i] = value
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


def _anchor_seeds(corpus_seed: int, scene_id: np.ndarray, anchor_index: np.ndarray):
    """generate_state(4, np.uint64) of SeedSequence([corpus_seed, scene_id, idx]) per row.

    A scene id of 2**32 or more is two entropy words, so rows are seeded in
    groups of equal scene-id width.
    """
    if scene_id.min() < 0:
        raise ValueError("expected non-negative integer")
    corpus_words = _entropy_words(corpus_seed)
    seeds = np.empty((scene_id.size, 4), dtype=np.uint64)
    wide = scene_id > _MASK32
    for rows, n_words in ((~wide, 1), (wide, 2)):
        if rows.any():
            sid = scene_id[rows]
            sid_words = [sid & _MASK32, sid >> 32] if n_words == 2 else [sid]
            seeds[rows] = _seed_states([*corpus_words, *sid_words, anchor_index[rows]])
    return seeds


def _pcg64_state(s_hi: int, s_lo: int, i_hi: int, i_lo: int) -> dict:
    """PCG64's ``.state`` after seeding from generate_state(4, np.uint64) words.

    As numpy's pcg64_set_seed: inc = initseq << 1 | 1, then two LCG steps
    around adding initstate, all mod 2**128.
    """
    inc = (((i_hi << 64) | i_lo) << 1 | 1) & _MASK128
    state = ((inc + ((s_hi << 64) | s_lo)) * _PCG64_MULT + inc) & _MASK128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


def _add128(a_hi, a_lo, b_hi, b_lo):
    """(a_hi, a_lo) + (b_hi, b_lo) mod 2**128 on uint64 words."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < b_lo), lo


def _mul128_pcg(hi, lo):
    """(hi, lo) * the PCG64 multiplier mod 2**128 on uint64 columns.

    The high word of lo * _MULT_LO is summed from 32-bit half products, each
    of which fits in 64 bits.
    """
    a0, a1 = lo & _U32, lo >> np.uint64(32)
    p00, p01, p10 = a0 * _MULT_LO_0, a0 * _MULT_LO_1, a1 * _MULT_LO_0
    mid = (p00 >> np.uint64(32)) + (p01 & _U32) + (p10 & _U32)
    carry = (a1 * _MULT_LO_1 + (p01 >> np.uint64(32)) + (p10 >> np.uint64(32))
             + (mid >> np.uint64(32)))
    return carry + hi * _MULT_LO + lo * _MULT_HI, lo * _MULT_LO


def _pcg64_start(seeds: np.ndarray) -> list:
    """Each row's seeded PCG64 LCG, as _pcg64_state: uint64 columns [hi, lo,
    inc_hi, inc_lo] of its state and increment, for _pcg64_outputs."""
    s_hi, s_lo, i_hi, i_lo = seeds.T
    one = np.uint64(1)
    inc_hi, inc_lo = i_hi << one | i_lo >> np.uint64(63), i_lo << one | one
    hi, lo = _mul128_pcg(*_add128(inc_hi, inc_lo, s_hi, s_lo))
    return [*_add128(hi, lo, inc_hi, inc_lo), inc_hi, inc_lo]


def _pcg64_outputs(state: list, k: int) -> np.ndarray:
    """The next k raw outputs (n, k) uint64 of each row's _pcg64_start state,
    which is advanced past them in place.

    PCG64 XSL-RR: each output steps the LCG and returns rotr64(hi ^ lo,
    hi >> 58) of the new state.
    """
    hi, lo, inc_hi, inc_lo = state
    out = np.empty((hi.size, k), dtype=np.uint64)
    for j in range(k):
        hi, lo = _add128(*_mul128_pcg(hi, lo), inc_hi, inc_lo)
        x, rot = hi ^ lo, hi >> np.uint64(58)
        # the left shift is taken mod 64, so that rot = 0 never shifts by 64
        out[:, j] = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
    state[:2] = hi, lo
    return out


def _state_before(r: int) -> dict:
    """A PCG64 ``.state`` whose next raw output is r (0 <= r < 2**64).

    Its next state is r itself: the high word 0 makes the output rotation 0.
    """
    return {"bit_generator": "PCG64",
            "state": {"state": (r - 1) * _PCG64_MULT_INV & _MASK128, "inc": 1},
            "has_uint32": 0, "uinteger": 0}


def _crafted_normal(rng, r: int):
    """rng.standard_normal() when r is the next raw output, and whether r was the only one used."""
    rng.bit_generator.state = _state_before(r)
    x = rng.standard_normal()
    return x, rng.bit_generator.state["state"]["state"] == r


@functools.cache
def _ziggurat_tables():
    """numpy's normal-ziggurat widths wi, verified lower bounds of its thresholds ki, and fi.

    numpy's standard_normal turns a raw output r into idx = r & 0xff, a sign
    bit 8 and rabs = (r >> 9) & (2**52 - 1), and returns x = +-rabs * wi[idx]
    at once when rabs < ki[idx].  wi and ki are read off numpy by crafted
    draws: rabs = 1 returns wi[idx]; a threshold candidate round(wi[idx - 1] /
    wi[idx] * 2**52) (wi[255] / wi[0] for the tail) is kept only when a draw at
    candidate - 1 used one output, and is 0 (never fast) otherwise.  Index 1
    is never fast.  fi is the density at each layer's edge, fi[0] = 1 and
    fi[i] = exp(-(wi[i] * 2**52)**2 / 2), which numpy's wedge test reads; it
    may differ from numpy's own table in the last bit.
    Returns (wi (256,) float64, bound (256,) uint64, fi (256,) float64).
    """
    rng = np.random.Generator(np.random.PCG64(0))
    draws = [_crafted_normal(rng, 1 << 9 | idx) for idx in range(256)]
    wi = np.array([x for x, _ in draws])
    bound = np.zeros(256, dtype=np.uint64)
    for idx, (_, fast) in enumerate(draws):
        candidate = min(round(float(wi[idx - 1] / wi[idx]) * 2**52), 1 << 52) if fast else 0
        if candidate > 0 and _crafted_normal(rng, (candidate - 1) << 9 | idx)[1]:
            bound[idx] = candidate
    fi = np.exp(-0.5 * (wi * 2.0**52) ** 2)
    fi[0] = 1.0
    for table in (wi, bound, fi):
        table.flags.writeable = False  # shared by every caller
    return wi, bound, fi


def _ziggurat_candidates(raw: np.ndarray):
    """Each raw output's ziggurat layer idx, candidate x = +-rabs * wi[idx], and
    whether numpy returns x at once (the fast path)."""
    wi, bound, _ = _ziggurat_tables()
    idx = (raw & np.uint64(0xFF)).view(np.int64)  # a view: astype copies slowly
    rabs = raw >> np.uint64(9)
    rabs &= _ZIGGURAT_ABS
    fast = rabs < bound[idx]
    x = wi[idx]
    x *= rabs
    np.bitwise_and(raw, np.uint64(1 << 8), out=rabs)  # rabs is read: it holds bit 8
    rabs <<= np.uint64(55)
    sign_bits = x.view(np.uint64)  # negated where bit 8 is set, by its sign bit
    sign_bits ^= rabs
    return idx, x, fast


def _uniforms(raw: np.ndarray) -> np.ndarray:
    """numpy's random() of each raw output: (r >> 11) * 2**-53."""
    return (raw >> np.uint64(11)) * 2.0**-53


def _cursor_pass(raw: np.ndarray, d: int):
    """numpy's standard_normal(d), then two random(), on rows of raw outputs.

    A cursor moves along each row as numpy's rule does: a fast draw takes one
    output; any other layer but the tail takes the next output as u and
    returns x when (fi[idx - 1] - fi[idx]) * u + fi[idx] < exp(-x**2 / 2),
    else draws again.  A row is left undecided at a tail draw (idx 0), at a
    wedge test within a relative _WEDGE_BAND of its boundary (where numpy's
    own fi or exp could tip it) and when its outputs run out.
    Returns (decided rows, their normals (m, d), their uniforms (m, 2)).
    """
    fi = _ziggurat_tables()[2]
    # every column but the last as a candidate, the column after it as its u
    idx, x, fast = _ziggurat_candidates(raw[:, :-1])
    u = _uniforms(raw)
    lhs = (fi[idx - 1] - fi[idx]) * u[:, 1:] + fi[idx]
    rhs = np.exp(-0.5 * x * x)
    undecided = ~fast & ((idx == 0) | (np.abs(lhs - rhs) <= _WEDGE_BAND * rhs))
    # the cursor is on column 0 and on each column after a candidate; it
    # steps over the u of a candidate that is not fast
    visited = np.empty_like(fast)
    visited[:, 0] = True
    for col in range(1, fast.shape[1]):
        visited[:, col] = fast[:, col - 1] | ~visited[:, col - 1]
    returned = visited & (fast | (lhs < rhs))
    count = np.cumsum(returned, axis=1)
    last = np.argmax(count >= d, axis=1)  # the column of the d-th normal
    cursor = last + np.where(fast[np.arange(len(raw)), last], 1, 2)
    stuck = visited & undecided
    first_stuck = np.where(stuck.any(axis=1), np.argmax(stuck, axis=1), raw.shape[1])
    rows = np.flatnonzero((count[:, -1] >= d) & (first_stuck > last)
                          & (cursor + 2 <= raw.shape[1]))
    normals = x[rows][(returned & (count <= d))[rows]].reshape(-1, d)
    uniforms = u[rows[:, None], cursor[rows, None] + np.arange(2)]
    return rows, normals, uniforms


def _draw_streams(seeds: np.ndarray, spec: SceneSpec):
    """Each row's standard normals (n, d) and two uniforms (n, 2) off its PCG64 stream.

    One array pass reads the normals off the ziggurat's fast path and the
    uniforms as (r >> 11) * 2**-53.  The rows any of whose d normals leaves
    the fast path go through _cursor_pass, which reads their wedge tests off
    _SPARE more outputs drawn for these rows only.  The few rows it leaves
    undecided (tail draws, mostly) are replayed with numpy's own generator;
    the second uniform is drawn there only when the first is below
    spec.hard_fraction, as for the stream it stands for.
    """
    d = spec.feature_dim
    state = _pcg64_start(seeds)
    raw = _pcg64_outputs(state, d + 2)
    normals, fast = _ziggurat_candidates(raw[:, :d])[1:]
    uniforms = _uniforms(raw[:, d:])
    slow = np.flatnonzero(~fast.all(axis=1))
    raw = raw[slow]  # only the slow rows' outputs are read again
    spare = _pcg64_outputs([col[slow] for col in state], _SPARE)
    rows, slow_normals, slow_uniforms = _cursor_pass(np.hstack([raw, spare]), d)
    normals[slow[rows]], uniforms[slow[rows]] = slow_normals, slow_uniforms
    replay = np.delete(slow, rows)
    rng = np.random.Generator(np.random.PCG64(0))
    bitgen = rng.bit_generator
    for row, words in zip(replay.tolist(), seeds[replay].tolist()):
        bitgen.state = _pcg64_state(*words)
        rng.standard_normal(out=normals[row])
        uniforms[row, 0] = u = rng.random()
        if u < spec.hard_fraction:
            uniforms[row, 1] = rng.random()
    return normals, uniforms


def _anchor_features(best_iou: np.ndarray, scene_id: np.ndarray, anchor_index: np.ndarray,
                     spec: SceneSpec, corpus_seed: int) -> np.ndarray:
    """Features of anchor rows: attenuated IoU signal on channels 0-1 plus noise.

    A fraction of anchors is "hard": their signal is multiplied by a factor
    drawn from spec.hard_attenuation, pushing positives toward the background
    distribution.  Each row draws from its own stream, the one
    ``np.random.default_rng([corpus_seed, scene_id, anchor_index])`` would
    give; the streams are drawn _CHUNK rows at a time by _draw_streams.
    """
    feats = np.empty((best_iou.size, spec.feature_dim))  # the normals, scaled in place
    u = np.empty((best_iou.size, 2))
    for start in range(0, best_iou.size, _CHUNK):
        rows = slice(start, start + _CHUNK)
        seeds = _anchor_seeds(corpus_seed, scene_id[rows], anchor_index[rows])
        feats[rows], u[rows] = _draw_streams(seeds, spec)
    lo, hi = spec.hard_attenuation
    attenuation = np.where(u[:, 0] < spec.hard_fraction, lo + (hi - lo) * u[:, 1], 1.0)
    feats *= spec.noise_level
    q = best_iou * attenuation
    feats[:, 0] += spec.signal_background + spec.signal_gain * q
    feats[:, 1] += (spec.secondary_gain * spec.signal_gain) * q
    return feats


def regression_target(anchors: np.ndarray, gts: np.ndarray) -> np.ndarray:
    """Per row pair: center offsets normalized by anchor size plus log size ratios."""
    return np.stack([
        (gts[:, 0] - anchors[:, 0]) / anchors[:, 2],
        (gts[:, 1] - anchors[:, 1]) / anchors[:, 3],
        np.log(gts[:, 2] / anchors[:, 2]),
        np.log(gts[:, 3] / anchors[:, 3]),
    ], axis=1)


@dataclass
class AnchorPool:
    """Labeled anchors as parallel columns, one row per anchor."""

    features: np.ndarray  # (n, d)
    p_star: np.ndarray  # (n,)
    a: np.ndarray  # (n,)
    ideal_p_star: np.ndarray  # (n,)
    scene_id: np.ndarray  # (n,)
    anchor_index: np.ndarray  # (n,)
    targets: np.ndarray  # (n, 4), zeros where absent
    boxes: np.ndarray  # (n, 4) as (cx, cy, w, h)

    @property
    def size(self) -> int:
        return self.p_star.size


def _segment_max(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """(n, k) maxima of values' (n, m) columns in k consecutive segments of counts columns.

    IoU is never negative, so a segment without columns gets 0.
    """
    out = np.zeros((len(values), len(counts)))
    filled = counts > 0
    if filled.any():  # reduceat reads an empty segment as its next column
        out[:, filled] = np.maximum.reduceat(values, (np.cumsum(counts) - counts)[filled], axis=1)
    return out


def _label_scenes(grid: np.ndarray, scenes) -> tuple:
    """Label every anchor of grid in each of scenes against one IoU matrix of
    the grid and the scenes' boxes side by side.

    Returns each (anchor, scene) pair's best IoU with any box and whether it
    is positive against the annotated ones, (n, k) each, and the positive
    pairs as (anchor, scene, regression target).  A positive's target box is
    the first annotated box of its scene at its best annotated IoU, as argmax
    over the scene alone picks it.
    """
    counts = np.array([len(s.gt_boxes) for s in scenes])
    ious = iou_matrix(grid, np.concatenate([s.gt_boxes for s in scenes]))
    best = _segment_max(ious, counts)
    kept_counts = np.array([np.count_nonzero(s.annotated) for s in scenes])
    kept = np.concatenate([s.gt_boxes[s.annotated] for s in scenes])
    kept_ious = ious[:, np.concatenate([s.annotated for s in scenes])]
    positive = _segment_max(kept_ious, kept_counts) >= IOU_POSITIVE
    anchor, scene = np.nonzero(positive)
    targets = np.zeros((anchor.size, 4))
    if anchor.size:  # without positives, kept may have no column to index
        # each positive's scene's columns, the last repeated to a common width:
        # argmax picks the first maximum, so repeats never win
        ends = np.cumsum(kept_counts)[scene, None]
        cols = np.minimum(ends - kept_counts[scene, None] + np.arange(kept_counts.max()), ends - 1)
        first = cols[np.arange(anchor.size), kept_ious[anchor[:, None], cols].argmax(axis=1)]
        targets = regression_target(grid[anchor], kept[first])
    return best, positive, anchor, scene, targets


def build_pool(scenes, spec: SceneSpec, corpus_seed: int) -> AnchorPool:
    """Every anchor of a non-empty scene list, the scenes' blocks in order.

    p_star is labeled against each scene's annotated boxes; ideal_p_star and
    the features against all of its boxes, so only p_star and the regression
    targets depend on the annotation mask.  Every scene has the spec's one
    anchor grid, and the scenes are labeled together by _label_scenes, in
    groups whose IoU matrix holds at most _IOU_PAIRS entries (or one scene's).
    """
    if not scenes:
        raise ValueError("build_pool needs a non-empty scene list")
    grid = build_anchor_grid(spec)
    n_scenes, size = len(scenes), len(grid)
    best_iou, p_star = np.empty((n_scenes, size)), np.empty((n_scenes, size), dtype=np.int64)
    targets = np.zeros((n_scenes, size, 4))
    # scenes per IoU pass, sized by the one with the most boxes; the + 1
    # also bounds the (anchors, scenes) maxima of scenes without boxes
    step = max(_IOU_PAIRS // (size * (1 + max(len(s.gt_boxes) for s in scenes))), 1)
    for start in range(0, n_scenes, step):
        group = slice(start, start + step)
        best, positive, anchor, scene, pos_targets = _label_scenes(grid, scenes[group])
        best_iou[group], p_star[group] = best.T, positive.T
        targets[start + scene, anchor] = pos_targets
    best_iou = best_iou.ravel()
    scene_id = np.repeat(np.array([s.scene_id for s in scenes], dtype=np.int64), size)
    anchor_index = np.tile(np.arange(size), n_scenes)
    features = _anchor_features(best_iou, scene_id, anchor_index, spec, corpus_seed)
    return AnchorPool(
        features=features, p_star=p_star.ravel(),
        a=np.repeat(np.array([int(s.is_abnormal) for s in scenes], dtype=np.int64), size),
        ideal_p_star=(best_iou >= IOU_POSITIVE).astype(np.int64), scene_id=scene_id,
        anchor_index=anchor_index, targets=targets.reshape(-1, 4),
        boxes=np.tile(grid, (n_scenes, 1)))


def minibatch_quota(pool: AnchorPool, batch_size: int):
    """(positive indices, negative indices, n_pos, n_neg) of a 1:3 batch.

    n_pos is None when the pool cannot fill the positive quota: every batch
    then takes all available positives (with three negatives each), and a
    warning is logged here, once per call.
    """
    pos_idx = np.flatnonzero(pool.p_star == 1)
    neg_idx = np.flatnonzero(pool.p_star == 0)
    n_pos = max(int(round(batch_size / 4)), 1)
    if pos_idx.size == 0:
        log.warning("minibatch has no positives: pool contains none")
        n_pos, n_neg = None, batch_size
    elif pos_idx.size < n_pos:
        log.warning("only %d positives available for quota %d; using all",
                    pos_idx.size, n_pos)
        n_pos, n_neg = None, 3 * pos_idx.size
    else:
        n_neg = batch_size - n_pos
    return pos_idx, neg_idx, n_pos, min(n_neg, neg_idx.size)


def sample_minibatch(quota, rng):
    """Indices of one batch drawn under a minibatch_quota."""
    pos_idx, neg_idx, n_pos, n_neg = quota
    if n_pos is not None:
        pos_idx = rng.choice(pos_idx, size=n_pos, replace=False)
    return np.concatenate([pos_idx, rng.choice(neg_idx, size=n_neg, replace=False)])


# ---------------------------------------------------------------------------
# Corpus serialization: line-delimited records plus a JSON manifest.
# ---------------------------------------------------------------------------


def save_corpus(path, scenes, spec: SceneSpec, seed: int, manifest_path=None):
    """Write scenes as line records; field order is fixed so files are diffable.

    Format:  scene <id> <class> <width> <height>
             box <cx> <cy> <w> <h> <annotated 0|1>
    where width and height repeat spec.extent.
    """
    width, height = spec.extent
    with open(path, "w") as fh:
        for s in scenes:
            fh.write(f"scene {s.scene_id} {s.image_class} {width!r} {height!r}\n")
            # Python floats: the repr of an np.float64 is np.float64(...) under numpy 2
            for (cx, cy, w, h), keep in zip(s.gt_boxes.tolist(), s.annotated.tolist()):
                fh.write(f"box {cx!r} {cy!r} {w!r} {h!r} {int(keep)}\n")
    if manifest_path is not None:
        manifest = {
            "seed": seed,
            "n_scenes": len(scenes),
            "n_ap": sum(1 for s in scenes if s.is_abnormal),
            "n_np": sum(1 for s in scenes if not s.is_abnormal),
            "spec": dataclasses.asdict(spec),
        }
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")


#: fields after the record name
_RECORD_FIELDS = {"scene": 4, "box": 5}


def load_corpus(path):
    """The scenes of a save_corpus file.

    A malformed record raises ValueError naming its line; a scene that Scene
    rejects (a box side <= 0, say) names the line of its scene record.  A
    scene record's width and height, which repeat spec.extent, are not kept.
    """
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split()
            if not parts:
                continue
            kind, fields = parts[0], parts[1:]
            try:
                if kind not in _RECORD_FIELDS:
                    raise ValueError(f"unknown record {kind!r}")
                if len(fields) != _RECORD_FIELDS[kind]:
                    raise ValueError(f"{kind} record needs {_RECORD_FIELDS[kind]} fields, "
                                     f"got {len(fields)}")
                if kind == "scene":
                    for value in fields[2:]:  # the width and height
                        float(value)
                    records.append(dict(line=lineno, scene_id=int(fields[0]),
                                        image_class=fields[1], gt_boxes=[], annotated=[]))
                elif not records:
                    raise ValueError("box record before any scene record")
                else:
                    records[-1]["gt_boxes"].append([float(v) for v in fields[:4]])
                    records[-1]["annotated"].append(bool(int(fields[4])))
            except ValueError as exc:
                raise ValueError(f"{path} line {lineno}: {exc}") from exc
    return [_finish_scene(path, rec) for rec in records]


def _finish_scene(path, rec) -> Scene:
    lineno = rec.pop("line")
    try:
        return Scene(**rec)
    except ValueError as exc:
        raise ValueError(f"{path} line {lineno}: {exc}") from exc
