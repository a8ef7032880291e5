"""Tests for the synthetic partially-annotated benchmark generator."""

import dataclasses
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dghm.simdata import (
    AP,
    IOU_POSITIVE,
    NP_CLASS,
    AnchorPool,
    CorruptionSpec,
    Scene,
    SceneSpec,
    build_anchor_grid,
    build_pool,
    corrupt_annotations,
    generate_corpus,
    generate_scene,
    iou,
    iou_matrix,
    load_corpus,
    regression_target,
    minibatch_quota,
    sample_minibatch,
    save_corpus,
)
from dghm import simdata
from dghm.experiments import config_from_dict, config_to_dict
from dghm.simdata import _entropy_words, _pcg64_state, _seed_states

SMALL_SPEC = SceneSpec(extent=(32.0, 32.0), objects_per_ap_scene=(2, 4))


# ---------------------------------------------------------------------------
# boxes and IoU
# ---------------------------------------------------------------------------


def test_comparing_scenes_does_not_raise():
    first = generate_corpus(SceneSpec(), 2, 0, 1)
    again = generate_corpus(SceneSpec(), 2, 0, 1)
    # equal ids and classes: a field-wise == would reach the box arrays and
    # raise on their elementwise truth value; scenes compare by identity
    assert [s.scene_id for s in first] == [s.scene_id for s in again]
    assert first[0] == first[0] and first[0] != again[0]
    assert first != again and first[1] not in again


@pytest.mark.parametrize("box", [(0, 0, -1, 1), (0, 0, 1, 0), (0, 0, 1, np.nan)])
def test_scene_rejects_non_positive_box_sides(box):
    with pytest.raises(ValueError, match="box sides must be positive"):
        Scene(0, AP, [box], [True])


def test_scene_coerces_gt_boxes_to_rows():
    scene = Scene(0, AP, [(1, 2, 3, 4)], [True])
    assert scene.gt_boxes.dtype == np.float64 and scene.gt_boxes.shape == (1, 4)
    assert Scene(1, NP_CLASS, [], []).gt_boxes.shape == (0, 4)


def test_iou_identity_disjoint_analytic():
    a = (1, 1, 2, 2)
    assert iou(a, a) == 1.0
    assert iou(a, (10, 10, 2, 2)) == 0.0
    # half-overlapping unit-offset squares: inter 2, union 6
    assert iou(a, (2, 1, 2, 2)) == pytest.approx(1.0 / 3.0)


def test_iou_matrix_agrees_with_scalar():
    rng = np.random.default_rng(0)
    boxes_a = [(rng.uniform(5, 25), rng.uniform(5, 25), rng.uniform(2, 8),
                rng.uniform(2, 8)) for _ in range(7)]
    boxes_b = [(rng.uniform(5, 25), rng.uniform(5, 25), rng.uniform(2, 8),
                rng.uniform(2, 8)) for _ in range(5)]
    # touching (shared edge, shared corner) and disjoint pairs
    boxes_a = np.array(boxes_a + [(10, 10, 4, 4), (40, 40, 2, 2)])
    boxes_b = np.array(boxes_b + [(14, 10, 4, 4), (14, 14, 4, 4), (50, 50, 3, 3)])
    m = iou_matrix(boxes_a, boxes_b)
    assert m.shape == (len(boxes_a), len(boxes_b))
    for i, a in enumerate(boxes_a):
        for j, b in enumerate(boxes_b):
            assert m[i, j] == iou(a, b)
    assert iou_matrix(np.empty((0, 4)), boxes_b).shape == (0, len(boxes_b))
    assert iou_matrix(boxes_a, np.empty((0, 4))).shape == (len(boxes_a), 0)


@given(cx=st.floats(1, 30), cy=st.floats(1, 30), w=st.floats(0.5, 10),
       h=st.floats(0.5, 10))
def test_iou_symmetric_and_bounded(cx, cy, w, h):
    a = (10, 10, 5, 5)
    b = (cx, cy, w, h)
    assert iou(a, b) == pytest.approx(iou(b, a))
    assert 0.0 <= iou(a, b) <= 1.0


# ---------------------------------------------------------------------------
# scenes
# ---------------------------------------------------------------------------


def test_np_scene_empty():
    scene = generate_scene(SMALL_SPEC, NP_CLASS, np.random.default_rng(0))
    assert scene.gt_boxes.shape == (0, 4)
    assert not scene.is_abnormal


def test_ap_scene_object_count_range():
    spec = dataclasses.replace(SMALL_SPEC, objects_per_ap_scene=(3, 3))
    scene = generate_scene(spec, AP, np.random.default_rng(0))
    assert len(scene.gt_boxes) == 3


def test_scene_determinism():
    a = generate_scene(SMALL_SPEC, AP, np.random.default_rng(123))
    b = generate_scene(SMALL_SPEC, AP, np.random.default_rng(123))
    np.testing.assert_array_equal(a.gt_boxes, b.gt_boxes, strict=True)


def test_boxes_inside_extent():
    for seed in range(10):
        scene = generate_scene(SMALL_SPEC, AP, np.random.default_rng(seed))
        for cx, cy, w, h in scene.gt_boxes:
            assert cx - w / 2 >= 0 and cy - h / 2 >= 0
            assert cx + w / 2 <= 32 and cy + h / 2 <= 32


def test_impossible_geometry_rejected():
    with pytest.raises(ValueError, match="object_size .* exceeds the extent"):
        dataclasses.replace(SMALL_SPEC, object_size=(40.0, 50.0))


def test_np_scene_with_boxes_rejected():
    with pytest.raises(ValueError):
        Scene(scene_id=0, image_class=NP_CLASS, gt_boxes=[(5, 5, 2, 2)],
              annotated=np.array([True]))


def test_corpus_layout_and_determinism():
    scenes = generate_corpus(SMALL_SPEC, 4, 3, seed=9)
    assert [s.image_class for s in scenes] == [AP] * 4 + [NP_CLASS] * 3
    assert [s.scene_id for s in scenes] == list(range(7))
    again = generate_corpus(SMALL_SPEC, 4, 3, seed=9)
    for s1, s2 in zip(scenes, again):
        np.testing.assert_array_equal(s1.gt_boxes, s2.gt_boxes, strict=True)


# ---------------------------------------------------------------------------
# corruption
# ---------------------------------------------------------------------------


def test_corruption_identity_at_zero():
    scenes = generate_corpus(SMALL_SPEC, 4, 2, seed=1)
    out, k = corrupt_annotations(scenes, CorruptionSpec(eta=0.0, seed=0))
    assert k == 0
    for s in out:
        assert s.annotated.all()


def test_corruption_full_at_one():
    scenes = generate_corpus(SMALL_SPEC, 4, 2, seed=1)
    out, k = corrupt_annotations(scenes, CorruptionSpec(eta=1.0, seed=0))
    total = sum(len(s.gt_boxes) for s in scenes)
    assert k == total
    for s in out:
        assert not s.annotated.any()


def test_corruption_exact_count_and_determinism():
    scenes = generate_corpus(SMALL_SPEC, 8, 2, seed=3)
    total = sum(len(s.gt_boxes) for s in scenes)
    out, k = corrupt_annotations(scenes, CorruptionSpec(eta=0.5, seed=7))
    assert k == round(0.5 * total)
    assert sum(int((~s.annotated).sum()) for s in out) == k
    out2, k2 = corrupt_annotations(scenes, CorruptionSpec(eta=0.5, seed=7))
    assert k2 == k
    for s1, s2 in zip(out, out2):
        np.testing.assert_array_equal(s1.annotated, s2.annotated, strict=True)


def corrupt_annotations_reference(scenes, spec: CorruptionSpec):
    """The slot-list corruption that the flat keep-mask replaced: the same
    draw, returned with the sorted list of (scene_id, row) slots it drew."""
    slots = [(s.scene_id, j) for s in scenes for j in range(len(s.gt_boxes))]
    k = int(round(spec.eta * len(slots)))
    rng = np.random.default_rng(spec.seed)
    removed_idx = rng.choice(len(slots), size=k, replace=False) if k else np.array([], dtype=int)
    removed = sorted(slots[i] for i in removed_idx)
    removed_set = set(removed)
    out = []
    for s in scenes:
        mask = s.annotated.copy()
        for j in range(len(s.gt_boxes)):
            if (s.scene_id, j) in removed_set:
                mask[j] = False
        out.append(dataclasses.replace(s, annotated=mask))
    return out, removed


def _reference_corpus(kind, tmp_path):
    scenes = generate_corpus(SMALL_SPEC, 6, 2, seed=5)
    if kind == "empty":
        return []
    if kind == "partial":
        # a saved corpus whose masks already hold False entries
        partial, _ = corrupt_annotations_reference(scenes, CorruptionSpec(eta=0.4, seed=99))
        save_corpus(tmp_path / "corpus.txt", partial, SMALL_SPEC, seed=5)
        scenes = load_corpus(tmp_path / "corpus.txt")
        assert not all(s.annotated.all() for s in scenes)
    return scenes


@pytest.mark.parametrize("kind", ["annotated", "partial", "empty"])
@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("eta", [0.0, 0.3, 0.5, 1.0])
def test_corruption_matches_slot_list_reference(kind, seed, eta, tmp_path):
    scenes = _reference_corpus(kind, tmp_path)
    out, k = corrupt_annotations(scenes, CorruptionSpec(eta=eta, seed=seed))
    ref, removed = corrupt_annotations_reference(scenes, CorruptionSpec(eta=eta, seed=seed))
    assert k == len(removed)
    assert len(out) == len(ref) == len(scenes)
    for s, r in zip(out, ref):
        assert s.scene_id == r.scene_id
        np.testing.assert_array_equal(s.annotated, r.annotated, strict=True)
    if kind == "partial":
        return
    # fully annotated input: the unannotated rows are the rows the slot list drew
    removed_rows = {}
    for sid, j in removed:
        removed_rows.setdefault(sid, []).append(j)
    for s in out:
        np.testing.assert_array_equal(s.gt_boxes[~s.annotated],
                                      s.gt_boxes[removed_rows.get(s.scene_id, [])],
                                      strict=True)


def test_corruption_does_not_mutate_input():
    scenes = generate_corpus(SMALL_SPEC, 4, 0, seed=3)
    corrupt_annotations(scenes, CorruptionSpec(eta=1.0, seed=0))
    for s in scenes:
        assert s.annotated.all()


def test_corruption_spec_validation():
    with pytest.raises(ValueError):
        CorruptionSpec(eta=1.5, seed=0)


# ---------------------------------------------------------------------------
# anchors and labels
# ---------------------------------------------------------------------------


def test_anchor_grid_arithmetic():
    spec = SceneSpec(extent=(10.0, 10.0), anchor_stride=5.0, anchor_sizes=(2.0,),
                     object_size=(2.0, 4.0))
    anchors = build_anchor_grid(spec)
    assert len(anchors) == 4
    assert set(map(tuple, anchors[:, :2].tolist())) == {(2.5, 2.5), (7.5, 2.5),
                                                        (2.5, 7.5), (7.5, 7.5)}


def test_anchor_grid_degenerate_stride():
    spec = SceneSpec(extent=(10.0, 10.0), anchor_stride=100.0, anchor_sizes=(2.0,),
                     object_size=(2.0, 4.0))
    assert len(build_anchor_grid(spec)) == 1


def test_anchor_grid_two_scales_doubles():
    spec = SceneSpec(extent=(10.0, 10.0), anchor_stride=5.0,
                     anchor_sizes=(2.0, 4.0), object_size=(2.0, 4.0))
    assert len(build_anchor_grid(spec)) == 8


def assert_label_invariants(pool: AnchorPool):
    assert np.all(pool.p_star <= pool.ideal_p_star)
    # mislabeled anchors are exactly the noisy-partition candidates
    mislabeled = pool.p_star != pool.ideal_p_star
    assert np.all(pool.p_star[mislabeled] == 0)
    assert np.all(pool.a[mislabeled] == 1)


def test_label_assignment_cases():
    spec = SceneSpec(extent=(32.0, 32.0), anchor_stride=4.0, anchor_sizes=(8.0,),
                     object_size=(6.0, 10.0))
    # one annotated box centered on an anchor site, one removed box elsewhere
    boxes = [(10.0, 10.0, 8.0, 8.0), (26.0, 26.0, 8.0, 8.0)]
    scene = Scene(0, AP, boxes, np.array([True, False]))
    pool = build_pool([scene], spec, corpus_seed=0)
    row = {(cx, cy): i for i, (cx, cy) in enumerate(pool.boxes[:, :2].tolist())}
    on_kept = row[(10.0, 10.0)]
    on_removed = row[(26.0, 26.0)]
    assert pool.p_star[on_kept] == 1 and pool.ideal_p_star[on_kept] == 1
    assert pool.p_star[on_removed] == 0 and pool.ideal_p_star[on_removed] == 1  # noisy
    assert np.all(pool.a == 1)
    assert pool.p_star[on_kept] == 1 and not pool.targets[on_removed].any()


def test_np_scene_labels_all_negative():
    spec = SceneSpec(extent=(16.0, 16.0), object_size=(4.0, 6.0))
    scene = Scene(5, NP_CLASS, [], np.zeros(0, dtype=bool))
    pool = build_pool([scene], spec, corpus_seed=0)
    assert np.all((pool.p_star == 0) & (pool.a == 0) & (pool.ideal_p_star == 0))


def test_pool_invariants_and_determinism():
    scenes = generate_corpus(SMALL_SPEC, 6, 4, seed=5)
    corrupted, _ = corrupt_annotations(scenes, CorruptionSpec(eta=0.6, seed=1))
    pool = build_pool(corrupted, SMALL_SPEC, corpus_seed=5)
    assert_label_invariants(pool)
    pool2 = build_pool(corrupted, SMALL_SPEC, corpus_seed=5)
    np.testing.assert_array_equal(pool.features, pool2.features)
    np.testing.assert_array_equal(pool.p_star, pool2.p_star)


def test_anchor_corruption_monotone_in_eta():
    scenes = generate_corpus(SMALL_SPEC, 10, 4, seed=11)
    mislabeled_counts = []
    for eta in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
        corrupted, _ = corrupt_annotations(scenes, CorruptionSpec(eta=eta, seed=2))
        pool = build_pool(corrupted, SMALL_SPEC, corpus_seed=11)
        assert_label_invariants(pool)
        mislabeled_counts.append(int(np.count_nonzero(pool.p_star != pool.ideal_p_star)))
    assert mislabeled_counts == sorted(mislabeled_counts)
    assert mislabeled_counts[0] == 0 and mislabeled_counts[-1] > 0


def test_regression_target_round_trip():
    anchors = np.array([[10.0, 10.0, 8.0, 8.0]])
    gts = np.array([[12.0, 9.0, 10.0, 6.0]])
    t = regression_target(anchors, gts)
    np.testing.assert_allclose(t, [[0.25, -0.125, np.log(1.25), np.log(0.75)]])


# ---------------------------------------------------------------------------
# features
# ---------------------------------------------------------------------------


def test_features_deterministic_per_anchor():
    scenes = generate_corpus(SMALL_SPEC, 2, 0, seed=8)
    p1 = build_pool(scenes, SMALL_SPEC, corpus_seed=8)
    p2 = build_pool(scenes, SMALL_SPEC, corpus_seed=8)
    np.testing.assert_array_equal(p1.features, p2.features)


def test_noiseless_background_anchor():
    spec = dataclasses.replace(SMALL_SPEC, noise_level=0.0, hard_fraction=0.0,
                               signal_background=0.25)
    scenes = generate_corpus(spec, 0, 1, seed=8)  # NP only: IoU 0 everywhere
    pool = build_pool(scenes, spec, corpus_seed=8)
    np.testing.assert_allclose(pool.features[:, 0], 0.25)
    np.testing.assert_allclose(pool.features[:, 2:], 0.0)


def reference_features(best_iou, spec, rng):
    """The scalar per-anchor feature draw that build_pool vectorizes."""
    noise = rng.standard_normal(spec.feature_dim) * spec.noise_level
    is_hard = rng.uniform() < spec.hard_fraction
    attenuation = float(rng.uniform(*spec.hard_attenuation)) if is_hard else 1.0
    feats = noise
    q = best_iou * attenuation
    feats[0] += spec.signal_background + spec.signal_gain * q
    feats[1] += spec.secondary_gain * spec.signal_gain * q
    return feats


def reference_pool_features(scenes, spec, corpus_seed):
    """Every anchor's features from its own default_rng([corpus_seed, scene_id, idx])."""
    expected = []
    for scene in scenes:
        for idx, row in enumerate(build_anchor_grid(spec)):
            best = max((iou(row, gt) for gt in scene.gt_boxes), default=0.0)
            rng = np.random.default_rng([corpus_seed, scene.scene_id, idx])
            expected.append(reference_features(best, spec, rng))
    return np.array(expected)


@pytest.mark.parametrize("hard_fraction", [0.0, 0.5, 1.0])
def test_pool_features_match_scalar_reference(hard_fraction):
    spec = dataclasses.replace(SMALL_SPEC, hard_fraction=hard_fraction)
    for corpus_seed in (0, 8, 2**32 + 5, 2**64 + 1):
        scenes = generate_corpus(spec, 2, 1, seed=corpus_seed)
        pool = build_pool(scenes, spec, corpus_seed)
        np.testing.assert_array_equal(pool.features,
                                      reference_pool_features(scenes, spec, corpus_seed))


@pytest.mark.parametrize("corpus_seed", [0, 2**64 + 1])
def test_pool_features_mixed_scene_id_widths(corpus_seed):
    """Scene ids of one and of two entropy words side by side in one build."""
    ids = [0, 5, 2**32 - 1, 2**32 + 3]
    scenes = [dataclasses.replace(scene, scene_id=sid) for scene, sid in
              zip(generate_corpus(SMALL_SPEC, 2, 2, seed=corpus_seed), ids)]
    pool = build_pool(scenes, SMALL_SPEC, corpus_seed)
    assert pool.scene_id.tolist() == [sid for sid in ids for _ in range(64)]
    np.testing.assert_array_equal(pool.features,
                                  reference_pool_features(scenes, SMALL_SPEC, corpus_seed))


def test_seed_states_match_default_rng():
    rs = np.random.default_rng(2024)
    corpus_seeds = [0, 1, 42, 2**32 - 1, 2**32 + 5, 2**64 + 1,
                    *rs.integers(0, 2**63, 4).tolist()]
    scene_ids = [0, 3, 2**32 - 1, 2**32 + 3, *rs.integers(0, 2**20, 2).tolist()]
    idx = np.array([0, 1, 255, 2**32 - 1, *rs.integers(0, 2**32, 8).tolist()])
    for corpus_seed in corpus_seeds:
        for scene_id in scene_ids:
            words = _seed_states([*_entropy_words(corpus_seed), *_entropy_words(scene_id), idx])
            for i, row in zip(idx.tolist(), words.tolist()):
                expected = np.random.default_rng([corpus_seed, scene_id, i]).bit_generator.state
                assert _pcg64_state(*row) == expected, (corpus_seed, scene_id, i)


def test_negative_corpus_seed_rejected_like_default_rng():
    scenes = generate_corpus(SMALL_SPEC, 1, 0, seed=0)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        np.random.default_rng([-1, 0, 0])
    with pytest.raises(ValueError, match="expected non-negative integer"):
        build_pool(scenes, SMALL_SPEC, corpus_seed=-1)


def test_negative_scene_id_rejected_like_default_rng():
    scene = dataclasses.replace(generate_corpus(SMALL_SPEC, 1, 0, seed=0)[0], scene_id=-1)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        np.random.default_rng([0, -1, 0])
    with pytest.raises(ValueError, match="expected non-negative integer"):
        build_pool([scene], SMALL_SPEC, corpus_seed=0)


def test_build_pool_rejects_empty_scene_list():
    with pytest.raises(ValueError, match="non-empty scene list"):
        build_pool([], SMALL_SPEC, corpus_seed=0)


def test_crafted_state_yields_raw_output():
    bitgen = np.random.PCG64(0)
    for r in (0, 1, 2**63, 2**64 - 1, 0x0123456789ABCDEF):
        bitgen.state = simdata._state_before(r)
        assert int(bitgen.random_raw()) == r


def test_pcg64_outputs_match_numpy_raw_stream():
    seeds = _seed_states([0, np.arange(5), 2**32 - 1])
    raw = simdata._pcg64_outputs(simdata._pcg64_start(seeds), 7)
    for row, words in zip(raw, seeds.tolist()):
        bitgen = np.random.PCG64(0)
        bitgen.state = _pcg64_state(*words)
        np.testing.assert_array_equal(row, bitgen.random_raw(7))


def test_ziggurat_bounds_take_the_fast_path():
    """A draw at bound - 1 uses one raw output and returns +-rabs * wi[idx]."""
    wi, bound, fi = simdata._ziggurat_tables()
    assert np.flatnonzero(bound == 0).tolist() == [1]  # index 1 is never fast
    assert fi[0] == 1.0 and np.all(np.diff(fi) < 0)  # layer edges move out from 0
    assert bound.max() <= 2**52
    rng = np.random.Generator(np.random.PCG64(0))
    for idx in np.flatnonzero(bound).tolist():
        rabs = int(bound[idx]) - 1
        for sign in (0, 1):
            x, one_output = simdata._crafted_normal(rng, (rabs << 1 | sign) << 8 | idx)
            assert one_output, idx
            assert x == (-1.0) ** sign * (rabs * wi[idx]), idx


def seeds_with_outputs(outputs):
    """generate_state words whose PCG64 stream starts with each entry of outputs.

    An entry is a first raw output r0, or a pair (r0, r1) of the first two,
    r1 up to its lowest bit (which random() does not read).  Each stream's
    states r0 and r1 have a zero high word, so they are output unrotated.
    """
    inv = pow(simdata._PCG64_MULT, -1, 2**128)
    rows = []
    for entry in outputs:
        r0, r1 = entry if isinstance(entry, tuple) else (entry, None)
        # inc must be odd: r1 - r0 * M is, once r1's lowest bit differs from r0's
        inc = 1 if r1 is None else (r1 ^ ((r1 ^ r0 ^ 1) & 1)) - r0 * simdata._PCG64_MULT
        inc %= 2**128
        state = (r0 - inc) * inv % 2**128  # steps to r0
        init = ((state - inc) * inv - inc) % 2**128  # seeded: (inc + init) * M + inc
        rows.append([init >> 64, init & (2**64 - 1), inc >> 65, inc >> 1 & (2**64 - 1)])
    return np.array(rows, dtype=np.uint64)


def counted_replays(monkeypatch):
    """The seed words of every row _draw_streams replays, as it replays them."""
    calls = []

    def counted(*words):
        calls.append(words)
        return _pcg64_state(*words)

    monkeypatch.setattr(simdata, "_pcg64_state", counted)
    return calls


def assert_streams_match_numpy(seeds, spec, normals, uniforms):
    for row, words in enumerate(seeds.tolist()):
        rng = np.random.Generator(np.random.PCG64(0))
        rng.bit_generator.state = _pcg64_state(*words)
        assert normals[row].tobytes() == rng.standard_normal(spec.feature_dim).tobytes(), row
        assert uniforms[row, 0] == rng.random(), row
        if uniforms[row, 0] < spec.hard_fraction:
            assert uniforms[row, 1] == rng.random(), row


@pytest.mark.parametrize("hard_fraction", [0.0, 0.5, 1.0])
def test_draw_streams_at_the_fast_path_boundary(hard_fraction, monkeypatch):
    """A first normal at rabs = bound - 1 is fast; at rabs = bound the wedge
    test decides it in the array pass, except in the tail (idx 0), which is
    replayed, as is every row that runs out of drawn outputs."""
    spec = dataclasses.replace(SMALL_SPEC, hard_fraction=hard_fraction)
    wi, bound, _ = simdata._ziggurat_tables()
    outputs = [(int(bound[idx]) + delta) << 9 | sign << 8 | idx
               for idx in (0, 2, 128, 255) for delta in (-1, 0) for sign in (0, 1)]
    outputs.append(1 << 9 | 1)  # index 1 is never fast
    mid = (int(bound[128]) + 2**52) // 2 << 9 | 128  # inside layer 128's wedge
    outputs.append((mid, 0))  # u = 0: the wedge test accepts
    outputs.append((mid, 2**64 - 1))  # u = 1 - 2**-53: it rejects, and numpy draws again
    seeds = seeds_with_outputs(outputs)
    first = simdata._pcg64_outputs(simdata._pcg64_start(seeds), 3)
    assert first[:, 0].tolist() == [entry if isinstance(entry, int) else entry[0]
                                    for entry in outputs]
    for row, reject in ((-2, False), (-1, True)):  # numpy's own path for the crafted u
        rng = np.random.Generator(np.random.PCG64(0))
        rng.bit_generator.state = _pcg64_state(*seeds[row].tolist())
        x = rng.standard_normal()
        assert (int(rng.bit_generator.random_raw()) != int(first[row, 2])) == reject
        assert reject or x == (mid >> 9) * wi[128]
    tail = [row for row, r in enumerate(first[:, 0].tolist())
            if r & 0xFF == 0 and r >> 9 >= int(bound[0])]
    head = simdata._pcg64_outputs(simdata._pcg64_start(seeds), spec.feature_dim)
    slow = [row for row, rs in enumerate(head.tolist())
            if any(r >> 9 & (2**52 - 1) >= int(bound[r & 0xFF]) for r in rs)]
    assert len(tail) == 2 and len(slow) >= 11
    for spare, replayed in ((simdata._SPARE, tail), (0, slow)):
        # with no spare outputs, every row with a draw off the fast path runs out
        monkeypatch.setattr(simdata, "_SPARE", spare)
        calls = counted_replays(monkeypatch)
        normals, uniforms = simdata._draw_streams(seeds, spec)
        assert calls == [tuple(seeds[row].tolist()) for row in replayed]
        assert_streams_match_numpy(seeds, spec, normals, uniforms)


def test_spare_outputs_are_drawn_for_slow_rows_only_and_leave_few_replays(monkeypatch):
    """At feature_dim 40, corpus seed 7, the _SPARE outputs drawn past d + 2 for
    the rows off the fast path leave 1.04 % of 16384 rows to numpy's replay
    (2.29 % with 4 spares)."""
    spec = SceneSpec(feature_dim=40, hard_fraction=0.5)
    draws, outputs = [], simdata._pcg64_outputs
    monkeypatch.setattr(simdata, "_pcg64_outputs",
                        lambda state, k: draws.append((state[0].size, k)) or outputs(state, k))
    calls = counted_replays(monkeypatch)
    rows = np.arange(16384)
    for start in range(0, rows.size, simdata._CHUNK):
        chunk = rows[start:start + simdata._CHUNK]
        simdata._draw_streams(simdata._anchor_seeds(7, chunk // 256, chunk % 256), spec)
    assert len(calls) < 0.015 * rows.size
    assert [k for _, k in draws] == [spec.feature_dim + 2, simdata._SPARE] * 4
    assert draws[0][0] == simdata._CHUNK and all(n < 0.5 * simdata._CHUNK for n, _ in draws[1::2])


@pytest.mark.parametrize("feature_dim", [2, 16, 40])
def test_draw_streams_match_default_rng(feature_dim):
    """50k anchor streams against np.random.default_rng([seed, scene, idx])."""
    spec = SceneSpec(feature_dim=feature_dim, hard_fraction=0.5)
    rows = np.arange(50_000)
    scene_id, anchor_index = rows // 256, rows % 256
    for start in range(0, rows.size, simdata._CHUNK):
        chunk = slice(start, start + simdata._CHUNK)
        seeds = simdata._anchor_seeds(7, scene_id[chunk], anchor_index[chunk])
        normals, uniforms = simdata._draw_streams(seeds, spec)
        for row, sid, idx in zip(range(len(seeds)), scene_id[chunk].tolist(),
                                 anchor_index[chunk].tolist()):
            rng = np.random.default_rng([7, sid, idx])
            assert normals[row].tobytes() == rng.standard_normal(feature_dim).tobytes()
            assert uniforms[row, 0] == rng.random()
            if uniforms[row, 0] < 0.5:
                assert uniforms[row, 1] == rng.random()


def test_draw_streams_hold_little_memory_per_chunk(traced_peak_kib):
    """One 4096-row chunk returns 576 KiB of normals and uniforms and holds
    2548 KiB at once, at most its raw outputs and four (rows, d) columns of
    the fast-path pass; 3517 KiB when every raw output and the layer indices
    outlived that pass and each of its steps took a fresh column."""
    rows = np.arange(simdata._CHUNK)
    seeds = simdata._anchor_seeds(42, rows // 64, rows % 64)
    simdata._draw_streams(seeds, SceneSpec())  # the ziggurat tables are built once
    assert traced_peak_kib(simdata._draw_streams, seeds, SceneSpec()) < 2.75 * 1024


def test_pool_features_equal_with_every_anchor_replayed(monkeypatch):
    spec = dataclasses.replace(SMALL_SPEC, hard_fraction=0.3)
    scenes = generate_corpus(spec, 3, 2, seed=4)
    fast = build_pool(scenes, spec, corpus_seed=4)
    wi, bound, fi = simdata._ziggurat_tables()
    # no draw is fast and every wedge test is too close to call
    monkeypatch.setattr(simdata, "_ziggurat_tables", lambda: (wi, np.zeros_like(bound), fi))
    monkeypatch.setattr(simdata, "_WEDGE_BAND", np.inf)
    calls = counted_replays(monkeypatch)
    replayed = build_pool(scenes, spec, corpus_seed=4)
    assert len(calls) == replayed.size
    for f in dataclasses.fields(AnchorPool):
        assert getattr(fast, f.name).tobytes() == getattr(replayed, f.name).tobytes(), f.name


def test_replayed_anchor_share_stays_low(monkeypatch):
    """Only tail draws and the rare row that runs out of drawn outputs are
    replayed: ~0.4 % of the default corpus's anchors."""
    spec = SceneSpec()
    scenes = generate_corpus(spec, 64, 64, seed=0)
    calls = counted_replays(monkeypatch)
    pool = build_pool(scenes, spec, corpus_seed=0)
    assert 0 < len(calls) < 0.02 * pool.size


PROPERTY_SCENES, _ = corrupt_annotations(generate_corpus(SMALL_SPEC, 4, 2, seed=21),
                                         CorruptionSpec(eta=0.5, seed=3))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from(range(len(PROPERTY_SCENES))), min_size=1,
                max_size=len(PROPERTY_SCENES), unique=True),
       st.sampled_from(range(len(PROPERTY_SCENES))))
def test_scene_block_independent_of_other_scenes(order, pick):
    """Each anchor's stream is keyed by (corpus seed, scene, index) alone."""
    scene = PROPERTY_SCENES[pick]
    if pick not in order:
        order = [*order, pick]
    pool = build_pool([PROPERTY_SCENES[i] for i in order], SMALL_SPEC, corpus_seed=21)
    alone = build_pool([scene], SMALL_SPEC, corpus_seed=21)
    rows = pool.scene_id == scene.scene_id
    for f in dataclasses.fields(AnchorPool):
        np.testing.assert_array_equal(getattr(pool, f.name)[rows], getattr(alone, f.name))


def reference_scene_columns(scene: Scene, spec: SceneSpec) -> dict:
    """One scene's AnchorPool columns but the features, labeled on its own with scalar IoU."""
    anchors = build_anchor_grid(spec)
    n = len(anchors)
    ious = np.array([[iou(row, gt) for gt in scene.gt_boxes] for row in anchors]).reshape(n, -1)
    kept, kept_ious = scene.gt_boxes[scene.annotated], ious[:, scene.annotated]
    best = np.array([max(row, default=0.0) for row in ious.tolist()])
    p_star = np.array([max(row, default=0.0) >= IOU_POSITIVE for row in kept_ious.tolist()])
    targets = np.zeros((n, 4))
    for i in np.flatnonzero(p_star).tolist():
        targets[i] = regression_target(anchors[i:i + 1], kept[[np.argmax(kept_ious[i])]])[0]
    return dict(p_star=p_star.astype(np.int64), a=np.full(n, int(scene.is_abnormal)),
                ideal_p_star=(best >= IOU_POSITIVE).astype(np.int64),
                scene_id=np.full(n, scene.scene_id), anchor_index=np.arange(n),
                targets=targets, boxes=anchors)


@pytest.mark.parametrize("iou_pairs", [None, 1, 1000], ids=["default", "one_scene", "few_scenes"])
def test_build_pool_matches_per_scene_reference(iou_pairs, monkeypatch):
    """AP and NP scenes, interleaved, with and without boxes, fully, partly
    and not at all annotated, labeled in IoU passes of any size."""
    if iou_pairs is not None:
        monkeypatch.setattr(simdata, "_IOU_PAIRS", iou_pairs)
    n_boxes = len(PROPERTY_SCENES[0].gt_boxes)
    dropped, full = (dataclasses.replace(PROPERTY_SCENES[0], scene_id=sid,
                                         annotated=np.full(n_boxes, keep))
                     for sid, keep in ((40, False), (41, True)))
    boxless = Scene(42, AP, [], np.zeros(0, dtype=bool))
    scenes = [*PROPERTY_SCENES[:3], dropped, PROPERTY_SCENES[4], boxless, PROPERTY_SCENES[3],
              full, PROPERTY_SCENES[5]]
    assert {s.annotated.mean() for s in scenes if len(s.gt_boxes)} > {0.0, 1.0}
    assert {len(s.gt_boxes) for s in scenes if s.is_abnormal} > {0}
    pool = build_pool(scenes, SMALL_SPEC, corpus_seed=21)
    blocks = [reference_scene_columns(scene, SMALL_SPEC) for scene in scenes]
    for name in blocks[0]:
        expected = np.concatenate([block[name] for block in blocks])
        assert getattr(pool, name).tobytes() == expected.tobytes(), name
    np.testing.assert_array_equal(pool.features,
                                  reference_pool_features(scenes, SMALL_SPEC, 21))


def linear_probe_accuracy(features, labels):
    """Best balanced accuracy of a least-squares linear readout."""
    X = np.concatenate([features, np.ones((features.shape[0], 1))], axis=1)
    y = 2.0 * labels - 1.0
    w, *_ = np.linalg.lstsq(X, y, rcond=None)
    scores = X @ w
    pos, neg = scores[labels == 1], scores[labels == 0]
    thr_grid = np.quantile(scores, np.linspace(0.01, 0.99, 99))
    best = 0.0
    for thr in thr_grid:
        acc = 0.5 * ((pos > thr).mean() + (neg <= thr).mean())
        best = max(best, acc)
    return best


def test_hard_fraction_reduces_linear_separability():
    # explicit low-noise / strong-signal regime so the easy case is cleanly
    # linearly separable regardless of the benchmark defaults
    base = dataclasses.replace(SMALL_SPEC, hard_fraction=0.0,
                               noise_level=0.25, signal_gain=2.0)
    hard = dataclasses.replace(base, hard_fraction=1.0,
                               hard_attenuation=(0.05, 0.2))
    accs = {}
    for name, spec in (("easy", base), ("hard", hard)):
        scenes = generate_corpus(spec, 24, 0, seed=13)
        pool = build_pool(scenes, spec, corpus_seed=13)
        accs[name] = linear_probe_accuracy(pool.features, pool.ideal_p_star)
    assert accs["easy"] > 0.9
    assert accs["hard"] < accs["easy"] - 0.1


# ---------------------------------------------------------------------------
# minibatch sampling
# ---------------------------------------------------------------------------


def make_toy_pool(n_pos, n_neg, dim=4):
    n = n_pos + n_neg
    return AnchorPool(
        features=np.zeros((n, dim)),
        p_star=np.array([1] * n_pos + [0] * n_neg),
        a=np.ones(n, dtype=np.int64),
        ideal_p_star=np.array([1] * n_pos + [0] * n_neg),
        scene_id=np.zeros(n, dtype=np.int64),
        anchor_index=np.arange(n),
        targets=np.zeros((n, 4)),
        boxes=np.zeros((n, 4)),
    )


def test_minibatch_1_to_3_ratio():
    pool = make_toy_pool(50, 150)
    idx = sample_minibatch(minibatch_quota(pool, 8), np.random.default_rng(0))
    labels = pool.p_star[idx]
    assert labels.sum() == 2 and len(idx) == 8  # 2 positives, 6 negatives


def test_minibatch_fallback_warns(caplog):
    pool = make_toy_pool(1, 100)
    with caplog.at_level(logging.WARNING, logger="dghm.simdata"):
        quota = minibatch_quota(pool, 16)
    idx = sample_minibatch(quota, np.random.default_rng(0))
    assert pool.p_star[idx].sum() == 1
    assert len(idx) == 4  # 1 positive + 3 negatives
    assert any("positives" in rec.message for rec in caplog.records)


def test_minibatch_no_positives(caplog):
    pool = make_toy_pool(0, 50)
    with caplog.at_level(logging.WARNING, logger="dghm.simdata"):
        quota = minibatch_quota(pool, 8)
    idx = sample_minibatch(quota, np.random.default_rng(0))
    assert len(idx) == 8
    assert pool.p_star[idx].sum() == 0
    assert caplog.records


def reference_sample_minibatch(pool, batch_size, rng):
    """The sampler as it was before its index sets moved out of the step loop."""
    pos_idx = np.flatnonzero(pool.p_star == 1)
    neg_idx = np.flatnonzero(pool.p_star == 0)
    n_pos = max(int(round(batch_size / 4)), 1) if pos_idx.size else 0
    if pos_idx.size == 0:
        chosen_pos = np.array([], dtype=np.int64)
        n_neg = batch_size
    elif pos_idx.size < n_pos:
        chosen_pos = pos_idx
        n_neg = 3 * pos_idx.size
    else:
        chosen_pos = rng.choice(pos_idx, size=n_pos, replace=False)
        n_neg = batch_size - n_pos
    n_neg = min(n_neg, neg_idx.size)
    chosen_neg = rng.choice(neg_idx, size=n_neg, replace=False)
    return np.concatenate([chosen_pos, chosen_neg])


@pytest.mark.parametrize("n_pos,n_neg,batch_size", [
    (50, 150, 16), (4, 150, 16), (3, 150, 16), (1, 100, 16), (0, 50, 8),
    (6, 5, 16), (2, 3, 8), (9, 40, 2),
])
def test_minibatch_matches_reference_stream(n_pos, n_neg, batch_size):
    # same indices and the same generator state after each of 30 steps
    pool = make_toy_pool(n_pos, n_neg)
    shuffled = np.random.default_rng(n_pos).permutation(pool.size)
    pool.p_star = pool.p_star[shuffled]
    quota = minibatch_quota(pool, batch_size)
    rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(30):
        idx = sample_minibatch(quota, rng)
        ref = reference_sample_minibatch(pool, batch_size, ref_rng)
        np.testing.assert_array_equal(idx, ref)
        assert idx.dtype == ref.dtype
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_minibatch_deterministic():
    pool = make_toy_pool(50, 150)
    quota = minibatch_quota(pool, 16)
    a = sample_minibatch(quota, np.random.default_rng(99))
    b = sample_minibatch(quota, np.random.default_rng(99))
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_corpus_round_trip(tmp_path):
    scenes = generate_corpus(SMALL_SPEC, 5, 3, seed=17)
    corrupted, _ = corrupt_annotations(scenes, CorruptionSpec(eta=0.4, seed=3))
    path = tmp_path / "corpus.txt"
    manifest = tmp_path / "manifest.json"
    save_corpus(path, corrupted, SMALL_SPEC, seed=17, manifest_path=manifest)
    records = [line.split() for line in path.read_text().splitlines() if line.startswith("scene")]
    assert [tuple(map(float, r[3:])) for r in records] == [SMALL_SPEC.extent] * len(corrupted)
    loaded = load_corpus(path)
    assert len(loaded) == len(corrupted)
    for a, b in zip(corrupted, loaded):
        assert a.scene_id == b.scene_id and a.image_class == b.image_class
        np.testing.assert_array_equal(a.annotated, b.annotated)
        np.testing.assert_array_equal(a.gt_boxes, b.gt_boxes, strict=True)
    assert manifest.exists()


@pytest.mark.parametrize("text, line", [
    ("box 10 10 4 4 1\n", 1),  # a box before any scene
    ("scene 0 AP 32.0 32.0\nbox 10 10 4 1\n", 2),  # too few fields
    ("scene 0 AP 32.0\n", 1),
    ("scene 0 AP 32.0 32.0\nbox 10 10 4 4 1 7\n", 2),  # too many fields
    ("scene 0 AP 32.0 32.0\nbox 10 10 four 4 1\n", 2),
    ("scene 0 AP 32.0 32.0\n\nshape 10 10 4 4 1\n", 3),
    # a non-positive side names the scene record
    ("scene 0 NP 32.0 32.0\nscene 1 AP 32.0 32.0\nbox 10 10 0 4 1\n", 2),
    ("scene 0 AP 32.0 32.0\nbox 10 10 4 -4 0\n", 1),
])
def test_load_corpus_rejects_malformed_records(tmp_path, text, line):
    path = tmp_path / "corpus.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=rf"line {line}: "):
        load_corpus(path)


def test_corpus_file_is_byte_stable(tmp_path):
    scenes = generate_corpus(SMALL_SPEC, 3, 1, seed=21)
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    save_corpus(p1, scenes, SMALL_SPEC, seed=21)
    save_corpus(p2, scenes, SMALL_SPEC, seed=21)
    assert p1.read_bytes() == p2.read_bytes()


def test_scene_spec_dict_round_trip():
    spec = SceneSpec(extent=(48.0, 48.0), noise_level=0.4)
    assert config_from_dict(SceneSpec, config_to_dict(spec)) == spec


def test_scene_spec_validation():
    with pytest.raises(ValueError):
        SceneSpec(objects_per_ap_scene=(5, 2))
    with pytest.raises(ValueError):
        SceneSpec(anchor_stride=0.0)
    with pytest.raises(ValueError):
        SceneSpec(hard_fraction=1.5)


@pytest.mark.parametrize("sizes", [(), (-12.0,), (0.0,), (12.0, float("inf")), (float("nan"),)],
                         ids=["empty", "negative", "zero", "infinite", "nan"])
def test_scene_spec_rejects_bad_anchor_sizes(sizes):
    with pytest.raises(ValueError, match="anchor_sizes"):
        SceneSpec(anchor_sizes=sizes)
