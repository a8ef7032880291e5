"""Metric-suite tests: formula exactness plus brute-force sweep oracles.

FROC and the operating point are read off one greedy sweep (``sweep_report``
of ``_sweep_curves``, the pipeline's path); the oracles here re-run full
greedy matching independently at every distinct score threshold and must
agree exactly.
"""

import dataclasses

import numpy as np
import pytest

from dghm.metrics import (
    EVAL_IOU,
    FROC_LEVELS,
    NMS_IOU,
    Detections,
    MatchReport,
    MetricsReport,
    _greedy_claims,
    _sweep_curves,
    aggregate_match,
    decode_and_suppress,
    decode_boxes,
    evaluate_detections,
    nfps_from_w,
    precision,
    read_report,
    recall,
    sweep_is_deep_enough,
    sweep_report,
    t_r_recall,
    write_report,
)
from dghm import metrics
from dghm.simdata import box_span, iou, iou_matrix


def det(*rows):
    """Detections from (scene, cx, cy, w, h, score) rows."""
    rows = np.array(rows, dtype=np.float64).reshape(-1, 6)
    return Detections(rows[:, 0].astype(np.int64), rows[:, 1:5], rows[:, 5])


def gt(*rows):
    """Ground-truth boxes as an (n, 4) array of (cx, cy, w, h) rows."""
    return np.array(rows, dtype=np.float64).reshape(-1, 4)


def swept(dets, gt_by_scene, np_scene_ids=()):
    """The pipeline's report of one detection set: ``sweep_report`` of its sweep."""
    curves = _sweep_curves(dets, gt_by_scene, np_scene_ids)
    return sweep_report(curves, sum(map(len, gt_by_scene.values())), len(set(np_scene_ids)))


def random_detection_sets(seed, n_sets):
    """Random scenes/gts/detections exercising ties, empty scenes, NP scenes."""
    rng = np.random.default_rng(seed)
    for _ in range(n_sets):
        n_scenes = int(rng.integers(2, 6))
        np_ids = list(range(n_scenes, n_scenes + int(rng.integers(1, 4))))
        gt_by_scene = {}
        rows = []
        for sid in range(n_scenes):
            gts = []
            for _ in range(int(rng.integers(0, 5))):
                gts.append((rng.uniform(5, 55), rng.uniform(5, 55),
                            rng.uniform(4, 10), rng.uniform(4, 10)))
            gt_by_scene[sid] = gt(*gts)
        for sid in list(range(n_scenes)) + np_ids:
            for _ in range(int(rng.integers(0, 8))):
                base = None
                if len(gt_by_scene.get(sid, ())) and rng.uniform() < 0.6:
                    base = gt_by_scene[sid][int(rng.integers(len(gt_by_scene[sid])))]
                if base is not None:
                    cx, cy, w, h = base
                    box = (cx + rng.normal(0, 2), cy + rng.normal(0, 2),
                           max(w + rng.normal(0, 1), 1.0), max(h + rng.normal(0, 1), 1.0))
                else:
                    box = (rng.uniform(5, 55), rng.uniform(5, 55),
                           rng.uniform(4, 10), rng.uniform(4, 10))
                # quantized scores so ties occur
                score = float(np.round(rng.uniform(), 2))
                rows.append((sid, *box, score))
        yield det(*rows), gt_by_scene, np_ids


# ---------------------------------------------------------------------------
# matching
# ---------------------------------------------------------------------------


def test_perfect_match():
    gts = gt((10, 10, 6, 6), (30, 30, 6, 6))
    dets = det((0, 10, 10, 6, 6, 0.9), (0, 30, 30, 6, 6, 0.8))
    rep = aggregate_match(dets, {0: gts})
    assert (rep.tp, rep.fp, rep.fn) == (2, 0, 0)


def test_no_detections():
    rep = aggregate_match(det(), {0: gt(*[(10, 10, 6, 6)] * 3)})
    assert (rep.tp, rep.fp, rep.fn) == (0, 0, 3)


def test_two_matched_one_stray():
    gts = gt((10, 10, 6, 6), (30, 30, 6, 6), (50, 50, 6, 6))
    dets = det((0, 10, 10, 6, 6, 0.9), (0, 30, 30, 6, 6, 0.8),
               (0, 5, 50, 3, 3, 0.7))
    rep = aggregate_match(dets, {0: gts})
    assert (rep.tp, rep.fp, rep.fn) == (2, 1, 1)


def test_matching_is_one_to_one():
    # two detections on one gt: only the higher-scored one claims it
    gts = gt((10, 10, 6, 6))
    dets = det((0, 10, 10, 6, 6, 0.9), (0, 10.5, 10, 6, 6, 0.8))
    rep = aggregate_match(dets, {0: gts})
    assert (rep.tp, rep.fp, rep.fn) == (1, 1, 0)


def test_matching_respects_iou_threshold():
    gts = gt((10, 10, 6, 6))
    dets = det((0, 20, 20, 6, 6, 0.9))  # zero overlap
    rep = aggregate_match(dets, {0: gts})
    assert (rep.tp, rep.fp, rep.fn) == (0, 1, 1)


def test_aggregate_match_counts_np_scene_fp():
    gt_by_scene = {0: gt((10, 10, 6, 6))}
    dets = det((0, 10, 10, 6, 6, 0.9), (5, 10, 10, 6, 6, 0.8))
    rep = aggregate_match(dets, gt_by_scene)
    assert (rep.tp, rep.fp, rep.fn) == (1, 1, 0)


# ---------------------------------------------------------------------------
# scalar metrics
# ---------------------------------------------------------------------------


def test_recall_precision_formulas():
    rep = MatchReport(tp=3, fp=2, fn=1)
    assert recall(rep) == (0.75, False)
    assert precision(rep) == 0.6


def test_recall_precision_zero_denominators_flagged():
    assert recall(MatchReport(tp=0, fp=5, fn=0)) == (0.0, True)
    assert precision(MatchReport(tp=0, fp=0, fn=5)) == 0.0  # no detections


def test_perfect_scores():
    rep = MatchReport(tp=4, fp=0, fn=0)
    assert recall(rep)[0] == 1.0
    assert precision(rep) == 1.0


def test_nfps_formula_and_clamp():
    assert nfps_from_w(0.0) == 100.0
    assert nfps_from_w(100.0) == 0.0
    assert nfps_from_w(150.0) == 0.0
    assert nfps_from_w(0.08) == pytest.approx(99.92)


def test_nfps_thresholding():
    # normal-scene detections at 0.9, 0.6 and 0.4 and a hit at 0.5: precision
    # 1/3 at 0.5 and 1/6 at 0.4, so the operating threshold is 0.5 and W
    # counts the two normal-scene detections at or above it
    gts = {0: gt((10, 10, 6, 6))}
    dets = det((7, 10, 10, 4, 4, 0.9), (8, 30, 30, 4, 4, 0.6), (0, 10, 10, 6, 6, 0.5),
               *[(7, 20 + 8 * i, 20, 4, 4, 0.4) for i in range(3)])
    report = swept(dets, gts, [7, 8])
    assert report.threshold == 0.5 and report.flags == []
    assert report.nfps == pytest.approx(100 - 1.0)
    # one more normal scene spreads the same detections thinner
    assert swept(dets, gts, [7, 8, 9]).nfps == pytest.approx(100 - 2 / 3)


# ---------------------------------------------------------------------------
# FROC
# ---------------------------------------------------------------------------


def brute_force_froc(dets, gt_by_scene, np_scene_ids, levels=FROC_LEVELS):
    """Re-run full matching at every distinct threshold; average best recalls."""
    total_gt = sum(len(v) for v in gt_by_scene.values())
    if not dets or total_gt == 0:
        return 0.0
    np_ids = set(np_scene_ids)
    in_np = np.isin(dets.scene_id, list(np_ids))
    thresholds = np.unique(dets.score)[::-1]
    recalls, ws = [], []
    for thr in thresholds:
        above = dets.score >= thr
        rep = aggregate_match(dets[above & ~in_np], gt_by_scene)
        recalls.append(rep.tp / total_gt)
        ws.append(np.count_nonzero(above & in_np) / len(np_ids))
    values = []
    for level in levels:
        feasible = [r for r, w in zip(recalls, ws) if w <= level]
        values.append(max(feasible) if feasible else 0.0)
    return float(np.mean(values))


def brute_force_operating_point(dets, gt_by_scene, min_precision=0.2):
    thresholds = np.unique(dets.score)[::-1]
    best_thr, best_prec = None, -1.0
    for thr in thresholds:
        rep = aggregate_match(dets[dets.score >= thr], gt_by_scene)
        prec = rep.tp / max(rep.tp + rep.fp, 1)
        if prec >= min_precision:
            best_thr = thr  # keep going: we want the lowest qualifying threshold
        if prec > best_prec:
            best_prec, best_fallback = prec, thr
    if best_thr is not None:
        return best_thr, False
    return best_fallback, True


def test_froc_simple_mean():
    # recalls 0.5..1.0 achieved exactly at W = 1, 2, 4, 8, 16, 32
    gts = {0: gt(*[(8 * i + 4, 8, 4, 4) for i in range(10)])}
    scores = [0.9, 0.8, 0.7, 0.6, 0.5, 0.4]
    hits = [5, 6, 7, 8, 9, 10]  # cumulative TP at each score step
    rows = []
    prev = 0
    for s, nhit in zip(scores, hits):
        for j in range(prev, nhit):
            rows.append((0, 8 * j + 4, 8, 4, 4, s))
        prev = nhit
    # NP detections so that W reaches each level exactly at the same scores
    cum = 0
    for s, target in zip(scores, FROC_LEVELS):
        for _ in range(target - cum):
            rows.append((99, 30, 30, 4, 4, s))
        cum = target
    dets = det(*rows)
    value = swept(dets, gts, [99]).froc
    assert value == pytest.approx(brute_force_froc(dets, gts, [99]))
    assert value == pytest.approx(np.mean([0.5, 0.6, 0.7, 0.8, 0.9, 1.0]))


def test_froc_zero_fp_detector():
    gts = {0: gt((10, 10, 6, 6))}
    dets = det((0, 10, 10, 6, 6, 0.9))
    assert swept(dets, gts, [5]).froc == 1.0


def test_froc_empty_detections():
    report = swept(det(), {0: gt((10, 10, 6, 6))}, [5])
    assert report.froc == 0.0 and report.flags == ["no_detections"]


def test_froc_range_property():
    for dets, gts, np_ids in random_detection_sets(21, 20):
        if not np_ids:
            continue
        v = swept(dets, gts, np_ids).froc
        assert 0.0 <= v <= 1.0


def test_froc_matches_brute_force_100_random_sets():
    for dets, gts, np_ids in random_detection_sets(42, 100):
        fast = swept(dets, gts, np_ids).froc
        slow = brute_force_froc(dets, gts, np_ids)
        assert fast == pytest.approx(slow, abs=1e-12), (fast, slow)


def test_operating_point_matches_brute_force_100_random_sets():
    checked = 0
    for dets, gts, np_ids in random_detection_sets(1234, 100):
        if not dets:
            continue
        report = swept(dets, gts)
        slow_thr, slow_flag = brute_force_operating_point(dets, gts)
        assert ("precision_floor_unreached" in report.flags) == slow_flag
        assert report.threshold == pytest.approx(slow_thr, abs=1e-12)
        checked += 1
    assert checked >= 90


def test_operating_point_perfect_detector():
    gts = {0: gt((10, 10, 6, 6))}
    dets = det((0, 10, 10, 6, 6, 0.05))
    report = swept(dets, gts)
    assert report.threshold == pytest.approx(0.05)
    assert "precision_floor_unreached" not in report.flags


def test_operating_point_all_fp_flagged():
    gts = {0: gt((10, 10, 6, 6))}
    dets = det(*[(0, 40, 40, 3, 3, s) for s in (0.9, 0.8)])
    assert "precision_floor_unreached" in swept(dets, gts).flags


def test_monotone_curves_property():
    for dets, gts, np_ids in random_detection_sets(77, 10):
        if not dets or not np_ids:
            continue
        thresholds = np.unique(dets.score)
        in_np = np.isin(dets.scene_id, np_ids)
        total_gt = sum(len(v) for v in gts.values())
        prev_rec, prev_w = 2.0, float("inf")
        for thr in thresholds:  # increasing thresholds
            above = dets.score >= thr
            rep = aggregate_match(dets[above & ~in_np], gts)
            rec = rep.tp / total_gt if total_gt else 0.0
            w = np.count_nonzero(above & in_np) / len(np_ids)
            assert rec <= prev_rec + 1e-12
            assert w <= prev_w
            prev_rec, prev_w = rec, w


# ---------------------------------------------------------------------------
# T-recall / R-recall
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("removed", [{}, {0: np.empty((0, 4))}])
def test_t_r_recall_empty_removed_flagged(removed):
    dets = det((0, 10, 10, 6, 6, 0.9))
    t, r, flagged = t_r_recall(dets, {0: gt((10, 10, 6, 6))}, removed, threshold=0.5)
    assert t == 1.0 and r is None and flagged


def test_t_r_recall_independent_pools():
    kept = {0: gt((10, 10, 6, 6))}
    removed = {0: gt((30, 30, 6, 6))}
    dets = det((0, 10, 10, 6, 6, 0.9), (0, 30, 30, 6, 6, 0.8))
    t, r, flagged = t_r_recall(dets, kept, removed, threshold=0.5)
    assert t == 1.0 and r == 1.0 and not flagged


def test_t_r_recall_annotated_only_detector():
    kept = {0: gt((10, 10, 6, 6))}
    removed = {0: gt((30, 30, 6, 6)), 1: gt((40, 40, 6, 6))}
    dets = det((0, 10, 10, 6, 6, 0.9))
    t, r, flagged = t_r_recall(dets, kept, removed, threshold=0.5)
    assert t == 1.0 and r == 0.0 and not flagged


def test_t_r_recall_ignores_detections_in_scenes_without_removed_gts():
    # scene 2 holds only kept gts and scene 3 none; their detections sit on a
    # removed gt's coordinates and outscore the true hit, yet claim nothing
    kept = {0: gt((10, 10, 6, 6)), 2: gt((50, 50, 6, 6))}
    removed = {0: gt((30, 30, 6, 6)), 1: gt((40, 40, 6, 6))}
    dets = det((2, 30, 30, 6, 6, 0.95), (3, 40, 40, 6, 6, 0.99),
               (2, 50, 50, 6, 6, 0.9), (0, 30, 30, 6, 6, 0.8))
    t, r, flagged = t_r_recall(dets, kept, removed, threshold=0.5)
    assert t == 0.5 and r == 0.5 and not flagged


def test_t_r_recall_equals_recall_over_the_removed_scenes_only():
    for dets, gt_by_scene, _ in random_detection_sets(seed=31, n_sets=100):
        removed = {sid: boxes for sid, boxes in gt_by_scene.items() if sid % 2}
        if not any(map(len, removed.values())):
            continue
        above = dets[dets.score >= 0.5]
        inside = above[np.isin(above.scene_id, list(removed))]
        _, r, _ = t_r_recall(dets, gt_by_scene, removed, threshold=0.5)
        assert r == recall(aggregate_match(inside, removed))[0]


def test_t_r_recall_threshold_applied():
    kept = {0: gt((10, 10, 6, 6))}
    dets = det((0, 10, 10, 6, 6, 0.3))
    t, _, _ = t_r_recall(dets, kept, {0: gt((30, 30, 6, 6))}, threshold=0.5)
    assert t == 0.0


# ---------------------------------------------------------------------------
# decoding and suppression
# ---------------------------------------------------------------------------


def test_decode_boxes_identity_and_offsets():
    anchors = np.array([[10.0, 10.0, 8.0, 8.0]])
    np.testing.assert_allclose(decode_boxes(anchors, np.zeros((1, 4))), anchors)
    out = decode_boxes(anchors, np.array([[0.5, -0.25, np.log(2.0), 0.0]]))
    np.testing.assert_allclose(out, [[14.0, 8.0, 16.0, 8.0]])


def test_decode_boxes_clips_log_scale():
    anchors = np.array([[10.0, 10.0, 8.0, 8.0]])
    out = decode_boxes(anchors, np.array([[0.0, 0.0, 100.0, -100.0]]))
    assert out[0, 2] == pytest.approx(8.0 * np.exp(4.0))
    assert out[0, 3] == pytest.approx(8.0 * np.exp(-4.0))


def test_suppress_empty():
    assert len(decode_and_suppress(np.zeros((0, 4)), np.zeros(0, dtype=int),
                                   np.zeros(0), np.zeros((0, 4)))) == 0


def test_suppress_duplicates():
    anchors = np.array([[10.0, 10.0, 8.0, 8.0], [10.0, 10.0, 8.0, 8.0]])
    dets = decode_and_suppress(anchors, np.array([0, 0]), np.array([0.8, 0.9]),
                               np.zeros((2, 4)))
    assert len(dets) == 1
    assert dets.score[0] == pytest.approx(0.9)


def test_suppress_keeps_disjoint_and_cross_scene():
    anchors = np.array([[10.0, 10.0, 8.0, 8.0], [40.0, 40.0, 8.0, 8.0],
                        [10.0, 10.0, 8.0, 8.0]])
    dets = decode_and_suppress(anchors, np.array([0, 0, 1]),
                               np.array([0.9, 0.8, 0.7]), np.zeros((3, 4)))
    assert len(dets) == 3  # disjoint within scene 0; scene 1 is independent


def nms_oracle(anchor_boxes, scene_ids, scores, offsets):
    """Greedy NMS as a keep-by-kept-list loop, one scalar ``iou`` per pair."""
    boxes = decode_boxes(anchor_boxes, offsets)
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], scene_ids[i], i))
    kept_by_scene = {}
    out = []
    for i in order:
        kept = kept_by_scene.setdefault(int(scene_ids[i]), [])
        if all(iou(boxes[i], boxes[k]) < NMS_IOU for k in kept):
            kept.append(i)
            out.append((int(scene_ids[i]), tuple(boxes[i].tolist()), float(scores[i])))
    return out


def test_suppress_matches_scalar_oracle():
    rng = np.random.default_rng(0)
    suppressed = 0
    for _ in range(40):
        n = int(rng.integers(1, 60))
        # integer boxes repeat and can overlap at IoU == NMS_IOU exactly
        anchors = np.column_stack([rng.integers(10, 15, (n, 2)),
                                   rng.integers(2, 5, (n, 2))]).astype(float)
        offsets = np.where(rng.uniform(size=(n, 1)) < 0.5, 0.0,
                           rng.normal(0.0, 0.2, (n, 4)))
        scene_ids = rng.integers(0, 4, n)
        scores = np.round(rng.uniform(size=n), 1)  # quantized: ties
        dets = decode_and_suppress(anchors, scene_ids, scores, offsets)
        expected = nms_oracle(anchors, scene_ids, scores, offsets)
        rows = zip(dets.scene_id, dets.boxes, dets.score)
        assert [(int(s), tuple(b.tolist()), float(p)) for s, b, p in rows] == expected
        suppressed += n - len(dets)
    assert suppressed > 0
    # 3x3 squares one apart overlap at IoU 0.5 exactly: the later one goes
    anchors = np.array([[10.0, 10.0, 3.0, 3.0], [11.0, 10.0, 3.0, 3.0]])
    assert iou(anchors[0], anchors[1]) == NMS_IOU
    assert len(decode_and_suppress(anchors, np.zeros(2, dtype=int), np.array([0.9, 0.8]),
                                   np.zeros((2, 4)))) == 1


def suppress_every_row_reference(anchor_boxes, scene_ids, scores, offsets):
    """decode_and_suppress with its greedy loop visiting every row still alive,
    whether or not it overlaps a later one."""
    scores = np.asarray(scores, dtype=np.float64)
    scene_ids = np.asarray(scene_ids)
    boxes = decode_boxes(anchor_boxes, offsets)
    order = np.lexsort((np.arange(scores.size), scene_ids, -scores))
    sorted_sids = scene_ids[order]
    keep = np.zeros(order.size, dtype=bool)
    for sid in np.unique(sorted_sids):
        ranks = np.flatnonzero(sorted_sids == sid)
        scene_boxes = boxes[order[ranks]]
        overlaps = iou_matrix(scene_boxes, scene_boxes) >= NMS_IOU
        alive = np.ones(ranks.size, dtype=bool)
        for r in range(ranks.size):
            if alive[r]:
                alive[r + 1:] &= ~overlaps[r, r + 1:]
        keep[ranks] = alive
    rows = order[keep]
    return metrics.Detections(scene_ids[rows], boxes[rows], scores[rows])


def one_row_scenes(seed):
    """Scenes of one row each, then two crowded scenes that share scores."""
    boxes, scene_ids, scores, offsets, _, _ = random_scored_anchors(seed)
    singles = np.arange(scene_ids.max() + 1, scene_ids.max() + 6)
    return (np.vstack([boxes, boxes[:5]]), np.concatenate([scene_ids, singles]),
            np.concatenate([scores, scores[:5]]), np.vstack([offsets, offsets[:5]]))


@pytest.mark.parametrize("case", ["ties", "one_row_scenes", "nan_score"])
def test_suppress_visiting_overlapping_rows_equals_the_every_row_loop(monkeypatch, case):
    # Detections refuses a NaN score, so both sides return their raw columns
    monkeypatch.setattr(metrics, "Detections", lambda *columns: columns)
    suppressed = 0
    for seed in range(12):
        if case == "one_row_scenes":
            args = one_row_scenes(seed)
        else:
            # quantised scores: large tie groups, broken by scene and index
            args = random_scored_anchors(seed, **FLOOR_CASES[sorted(FLOOR_CASES)[seed % 5]])[:4]
        if case == "nan_score":
            scores = args[2].copy()
            scores[np.random.default_rng(seed).integers(scores.size)] = np.nan
            args = (args[0], args[1], scores, args[3])
        got = decode_and_suppress(*args)
        want = suppress_every_row_reference(*args)
        for x, y in zip(got, want):
            np.testing.assert_array_equal(x, y)
            assert x.dtype == y.dtype
        suppressed += len(args[2]) - len(got[0])
    assert suppressed > 0


def greedy_oracle(dets, gt_by_scene, iou_thr):
    """The scalar matcher: one ``iou`` per (detection, unclaimed gt) pair."""
    boxes = dets.boxes
    order = sorted(range(len(dets)), key=lambda i: -dets.score[i])
    claimed = {sid: [False] * len(gts) for sid, gts in gt_by_scene.items()}
    is_tp = np.zeros(len(dets), dtype=bool)
    for rank, i in enumerate(order):
        sid = int(dets.scene_id[i])
        gts = gt_by_scene.get(sid, ())
        if not len(gts):
            continue
        taken = claimed[sid]
        best_j, best_iou = -1, iou_thr
        for j, gt in enumerate(gts):
            if taken[j]:
                continue
            v = iou(boxes[i], gt)
            if v >= best_iou and v > 0:
                if v > best_iou or best_j == -1:
                    best_j, best_iou = j, v
        if best_j >= 0:
            taken[best_j] = True
            is_tp[rank] = True
    return order, is_tp


def random_claim_inputs(rng):
    """Integer boxes on few rows, so IoU hits 0.3 exactly and ties between gts."""
    def box():
        w, h = (13, 1) if rng.uniform() < 0.6 else rng.integers(2, 9, 2)
        return int(rng.integers(0, 20)), int(rng.integers(0, 2)), int(w), int(h)

    n_scenes = int(rng.integers(1, 5))
    # the last scene has an empty gt list; scene n_scenes has no entry at all
    gt_by_scene = {sid: gt(*[box() for _ in range(int(rng.integers(1, 8)))])
                   for sid in range(n_scenes - 1)}
    gt_by_scene[n_scenes - 1] = gt()
    rows = [(int(rng.integers(0, n_scenes + 1)), *box(), np.round(rng.uniform(), 1))
            for _ in range(int(rng.integers(1, 60)))]
    return det(*rows), gt_by_scene


def test_greedy_claims_match_scalar_oracle():
    rng = np.random.default_rng(3)
    exact, tp = 0, 0
    for _ in range(60):
        dets, gt_by_scene = random_claim_inputs(rng)
        for thr in (EVAL_IOU, 0.0):
            order, is_tp = _greedy_claims(dets, gt_by_scene, thr)
            expected_order, expected_tp = greedy_oracle(dets, gt_by_scene, thr)
            assert order.tolist() == expected_order
            assert is_tp.tolist() == expected_tp.tolist()
            tp += int(is_tp.sum())
        all_gts = np.concatenate(list(gt_by_scene.values()))
        exact += int(np.sum(iou_matrix(dets.boxes, all_gts) == EVAL_IOU))
    assert exact > 0 and tp > 0
    # 13x1 boxes 7 apart overlap at IoU 0.3 exactly, and a detection halfway
    # between two such gts ties: it takes the first, leaving the second
    gts = gt((3, 0, 13, 1), (17, 0, 13, 1))
    assert iou(gts[0], (10, 0, 13, 1)) == iou(gts[1], (10, 0, 13, 1)) == EVAL_IOU
    dets = det((0, 10, 0, 13, 1, 0.9), (0, 17, 0, 13, 1, 0.8), (0, 3, 0, 13, 1, 0.7))
    for claims in (_greedy_claims, greedy_oracle):
        assert claims(dets, {0: gts}, EVAL_IOU)[1].tolist() == [True, True, False]


# ---------------------------------------------------------------------------
# the all-scene sweep and pair passes against the per-scene loops
# ---------------------------------------------------------------------------


def per_scene_suppress_reference(anchor_boxes, scene_ids, scores, offsets):
    """decode_and_suppress as a loop over scenes: one IoU matrix per scene, and
    a greedy loop over the rows that overlap a later one."""
    scores = np.asarray(scores, dtype=np.float64)
    scene_ids = np.asarray(scene_ids)
    boxes = decode_boxes(anchor_boxes, offsets)
    order = np.lexsort((np.arange(scores.size), scene_ids, -scores))
    sorted_sids = scene_ids[order]
    keep = np.zeros(order.size, dtype=bool)
    for sid in np.unique(sorted_sids):
        ranks = np.flatnonzero(sorted_sids == sid)
        scene_boxes = boxes[order[ranks]]
        later = np.triu(iou_matrix(scene_boxes, scene_boxes) >= NMS_IOU, 1)
        alive = np.ones(ranks.size, dtype=bool)
        for r in np.flatnonzero(later.any(axis=1)):
            if alive[r]:
                alive &= ~later[r]
        keep[ranks] = alive
    rows = order[keep]
    return metrics.Detections(scene_ids[rows], boxes[rows], scores[rows])


def per_scene_claims_reference(dets, gt_by_scene, iou_thr):
    """_greedy_claims as a loop over scenes: one IoU matrix per scene, -inf
    outside the threshold, and each claim closes its column."""
    order = np.argsort(-dets.score, kind="stable")
    ranked_scene_ids = dets.scene_id[order]
    is_tp = np.zeros(len(dets), dtype=bool)
    for sid, gts in gt_by_scene.items():
        ranks = np.flatnonzero(ranked_scene_ids == sid)
        ious = iou_matrix(dets.boxes[order[ranks]], gts)
        ious = np.where((ious >= iou_thr) & (ious > 0), ious, -np.inf)
        for r in np.flatnonzero(ious.max(axis=1, initial=-np.inf) > -np.inf):
            j = np.argmax(ious[r])
            if ious[r, j] > -np.inf:
                ious[:, j] = -np.inf
                is_tp[ranks[r]] = True
    return order, is_tp


SWEEP_CASES = ("grid", "near_touching", "one_row_scenes", "crowded", "nan_boxes",
               "nan_score", "empty", "wide_scene_ids")


def grid_boxes(rng, n):
    """(n, 4) boxes with integer centres and even sides: left edges are often
    equal, x-intervals often touch exactly and IoUs tie."""
    return np.column_stack([rng.integers(0, 16, n), rng.integers(0, 16, n),
                            2 * rng.integers(1, 4, (n, 2))]).astype(float)


def sweep_inputs(seed, case):
    """(anchor boxes, scene ids, scores, offsets, gt_by_scene) of one SWEEP_CASES case.

    Rows lie in scenes 0-4 and score in steps of 0.1, so scores tie.
    gt_by_scene holds gts for scenes 0-2 and 6 (which has no rows), an empty
    array for scene 3, and nothing for scene 4.
    """
    rng = np.random.default_rng(seed)
    n = {"empty": 0, "crowded": 70}.get(case, int(rng.integers(1, 120)))
    anchors = grid_boxes(rng, n)
    scene_ids = rng.integers(0, 5, n)
    scores = np.round(rng.uniform(size=n), 1)
    offsets = np.zeros((n, 4))  # decoded boxes stay on the grid
    gt_by_scene = {sid: grid_boxes(rng, int(rng.integers(1, 6))) for sid in (0, 1, 2, 6)}
    gt_by_scene[3] = gt()
    if case == "near_touching":
        # centres moved by +-2**-33 of a width: touching edges overlap or part
        # by a sliver, and equal left edges differ in their last bits
        offsets[:, 0] = rng.integers(-1, 2, n) * 2.0**-33
    elif case == "one_row_scenes":
        scene_ids[: n // 2] = 100 + np.arange(n // 2)
    elif case == "crowded":
        # one scene whose 2415 pairs all overlap in x: two passes at the default size
        scene_ids[:] = 0
        anchors[:, 2] = 40.0
    elif case == "nan_boxes":
        offsets[rng.uniform(size=n) < 0.2, int(rng.integers(4))] = np.nan
    elif case == "nan_score":
        scores[rng.integers(n)] = np.nan
    elif case == "wide_scene_ids":
        wide = np.array([2**32 - 1, 2**32, 2**32 + 1, 2**40, 2**62, 2**32 + 7, 9])
        scene_ids = wide[scene_ids]
        gt_by_scene = {int(wide[sid]): gts for sid, gts in gt_by_scene.items()}
        offsets[:, 0] = rng.integers(-1, 2, n) * 2.0**-33
    return anchors, scene_ids, scores, offsets, gt_by_scene


def assert_same_columns(got, want):
    for x, y in zip(got, want, strict=True):
        np.testing.assert_array_equal(x, y)
        assert x.dtype == y.dtype


@pytest.mark.parametrize("pass_size", [1, 3, metrics.PAIR_PASS])
@pytest.mark.parametrize("case", SWEEP_CASES)
def test_suppress_equals_the_per_scene_loop(monkeypatch, case, pass_size):
    seeds = range(20 if pass_size == metrics.PAIR_PASS else 5)  # small passes are slow
    monkeypatch.setattr(metrics, "PAIR_PASS", pass_size)
    # Detections refuses a NaN score, so both sides return their raw columns
    monkeypatch.setattr(metrics, "Detections", lambda *columns: columns)
    suppressed = 0
    for seed in seeds:
        args = sweep_inputs(seed, case)[:4]
        got = decode_and_suppress(*args)
        assert_same_columns(got, per_scene_suppress_reference(*args))
        suppressed += len(args[2]) - len(got[2])
    assert suppressed > 0 or case == "empty"


@pytest.mark.parametrize("pass_size", [1, 3, metrics.PAIR_PASS])
@pytest.mark.parametrize("case", [case for case in SWEEP_CASES if case != "nan_score"])
def test_greedy_claims_equal_the_per_scene_loop(monkeypatch, case, pass_size):
    seeds = range(20 if pass_size == metrics.PAIR_PASS else 5)  # small passes are slow
    monkeypatch.setattr(metrics, "PAIR_PASS", pass_size)
    tp = 0
    for seed in seeds:
        anchors, scene_ids, scores, offsets, gt_by_scene = sweep_inputs(seed, case)
        dets = Detections(scene_ids, decode_boxes(anchors, offsets), scores)
        for thr in (EVAL_IOU, NMS_IOU, 0.0):
            got = _greedy_claims(dets, gt_by_scene, thr)
            assert_same_columns(got, per_scene_claims_reference(dets, gt_by_scene, thr))
            tp += int(got[1].sum())
    assert tp > 0 or case == "empty"


def test_the_sweep_pairs_exactly_the_rows_that_overlap_in_x():
    """_sweep pairs two rows of a scene once when min(x1) - max(x0) > 0, and
    never otherwise: x-intervals that touch or part by a sliver are not
    paired, and slivers of overlap are."""
    touching = slivers = equal_left = 0
    for case in ("grid", "near_touching", "crowded", "nan_boxes", "wide_scene_ids"):
        for seed in range(10):
            anchors, scene_ids, _, offsets, _ = sweep_inputs(seed, case)
            x0, x1 = box_span(decode_boxes(anchors, offsets), 0)
            sweep, counts = metrics._sweep(x0, x1, scene_ids)
            got = sorted((min(a, b), max(a, b)) for p, count in enumerate(counts.tolist())
                         for a, b in zip([sweep[p]] * count, sweep[p + 1:p + 1 + count]))
            overlap = np.minimum(x1[:, None], x1) - np.maximum(x0[:, None], x0)
            later = np.triu(scene_ids[:, None] == scene_ids, 1)
            assert got == list(zip(*np.nonzero(later & (overlap > 0)))), (case, seed)
            touching += np.count_nonzero(later & (overlap == 0))
            slivers += np.count_nonzero(later & (np.abs(overlap) < 1e-6) & (overlap != 0))
            equal_left += np.count_nonzero(later & (x0[:, None] == x0))
    assert touching > 0 and slivers > 0 and equal_left > 0


def eval_heavy_shaped_fold(seed=0):
    """(anchor boxes, scene ids, scores, offsets, gt_by_scene) shaped like
    eval_heavy's test fold: 64 scenes of 78 rows, boxes 10-14 wide in a
    64-wide extent, and 5 gts in each of the 32 abnormal scenes."""
    rng = np.random.default_rng(seed)
    n = 64 * 78

    def boxes(k):
        return np.column_stack([rng.uniform(6, 58, (k, 2)), rng.uniform(10, 14, (k, 2))])

    gt_by_scene = {sid: boxes(5) for sid in range(32)}
    return (boxes(n), np.repeat(np.arange(64), 78), rng.uniform(size=n),
            rng.normal(0.0, 0.05, (n, 4)), gt_by_scene)


def test_nms_and_matching_hold_little_memory_at_a_time(traced_peak_kib):
    """Pair passes bound what NMS and matching hold at once: 652 and 208 KiB
    here, against 491 and 76 KiB for the per-scene loops, and 1395 and
    582 KiB when every pass held its gathered box columns side by side."""
    anchors, scene_ids, scores, offsets, gt_by_scene = eval_heavy_shaped_fold()
    dets = decode_and_suppress(anchors, scene_ids, scores, offsets)
    assert len(dets) > 3000
    assert traced_peak_kib(decode_and_suppress, anchors, scene_ids, scores, offsets) < 1024
    assert traced_peak_kib(_greedy_claims, dets, gt_by_scene, EVAL_IOU) < 256


def test_detection_score_validated():
    for score in (1.5, -0.1, np.nan):
        with pytest.raises(ValueError, match=r"score must be in \[0, 1\]"):
            det((0, 1, 1, 1, 1, 0.5), (0, 1, 1, 1, 1, score))
    assert len(det((0, 1, 1, 1, 1, 0.0), (0, 1, 1, 1, 1, 1.0))) == 2


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------
# test-fold evaluation down to a score floor
# ---------------------------------------------------------------------------


def full_pass_reference(anchor_boxes, scene_ids, scores, offsets, gt_by_scene, np_ids):
    """The test-fold evaluation as a full pass: every row through NMS, then
    greedy passes for the operating point, the matching at it and FROC, with
    their arithmetic written out on their own sweeps, and NFPs from its own
    count of normal-scene detections at or above the threshold."""
    keep = ~(scores < 0.0)
    dets = decode_and_suppress(anchor_boxes[keep], scene_ids[keep], scores[keep],
                               offsets[keep])
    if not dets:
        return MetricsReport(flags=["no_detections"])
    flags = []
    thresholds, tp, n_det, _ = _sweep_curves(dets, gt_by_scene)
    precisions = tp / n_det
    ok = np.flatnonzero(precisions >= 0.2)
    if ok.size:
        thr = float(thresholds[ok[-1]])
    else:
        thr = float(thresholds[int(np.argmax(precisions))])
        flags.append("precision_floor_unreached")
    rep = aggregate_match(dets[dets.score >= thr], gt_by_scene)
    rec, rec_flag = recall(rep)
    prec = precision(rep)
    if rec_flag:
        flags.append("recall_zero_denominator")
    if not np_ids:
        flags.append("no_normal_scenes")
        return MetricsReport(recall=rec, precision=prec, nfps=None, froc=None,
                             threshold=thr, flags=flags)
    total_gt = sum(len(v) for v in gt_by_scene.values())
    froc_value = 0.0
    if total_gt:
        _, tp, _, np_det = _sweep_curves(dets, gt_by_scene, set(np_ids))
        ok = np_det / len(set(np_ids)) <= np.asarray(FROC_LEVELS)[:, None]
        froc_value = float(np.mean(np.where(ok, tp / total_gt, 0.0).max(axis=1, initial=0.0)))
    w = np.count_nonzero(np.isin(dets.scene_id, np_ids) & (dets.score >= thr))
    return MetricsReport(recall=rec, precision=prec, nfps=nfps_from_w(w / len(set(np_ids))),
                         froc=froc_value, threshold=thr, flags=flags)


def random_scored_anchors(seed, n_np=None, n_gts=None, hit_rate=0.4,
                          hit_scores=(0.0, 1.0), np_scores=(0.0, 1.0)):
    """(anchor boxes, scene ids, scores, offsets, gt_by_scene, normal ids).

    1-4 abnormal scenes with ``n_gts`` gt each (1-4 when None) and ``n_np``
    normal scenes (1-3 when None), 20-160 anchors per scene.  A ``hit_rate``
    share of an abnormal scene's anchors sit on its gts and score in
    ``hit_scores``; normal-scene anchors score in ``np_scores``.  Scores are
    quantised to 0.01, so tie groups are large.
    """
    rng = np.random.default_rng(seed)
    n_ap = int(rng.integers(1, 5))
    n_np = int(rng.integers(1, 4)) if n_np is None else n_np
    gt_by_scene, parts = {}, []
    for sid in range(n_ap + n_np):
        n = int(rng.integers(20, 160))
        boxes = np.column_stack([rng.uniform(5, 95, (n, 2)), rng.uniform(4, 10, (n, 2))])
        if sid >= n_ap:
            score = rng.uniform(*np_scores, n)
        else:
            k = int(rng.integers(1, 5)) if n_gts is None else n_gts
            gt_by_scene[sid] = gts = np.column_stack(
                [rng.uniform(5, 95, (k, 2)), rng.uniform(4, 10, (k, 2))])
            score = rng.uniform(size=n)
            hits = np.flatnonzero((rng.uniform(size=n) < hit_rate) & (k > 0))
            if hits.size:
                boxes[hits] = gts[rng.integers(k, size=hits.size)] + rng.normal(
                    0, 1, (hits.size, 4))
                boxes[hits, 2:] = np.maximum(boxes[hits, 2:], 1.0)
                score[hits] = rng.uniform(*hit_scores, hits.size)
        parts.append((boxes, np.full(n, sid), np.round(score, 2)))
    boxes, scene_ids, scores = map(np.concatenate, zip(*parts))
    offsets = rng.normal(0.0, 0.05, boxes.shape)
    return boxes, scene_ids, scores, offsets, gt_by_scene, list(range(n_ap, n_ap + n_np))


#: random-set kind -> random_scored_anchors options
FLOOR_CASES = {
    "mixed": {},
    "no_normal_scenes": {"n_np": 0},
    "no_gt": {"n_gts": 0},
    # gt hits score low: precision stays under 0.2, and argmax picks the threshold
    "precision_floor_unreached": {"hit_rate": 0.05, "hit_scores": (0.0, 0.3)},
    # normal scenes hold the top scores, so no threshold meets the 1-FP level
    "froc_level_unreached": {"np_scores": (0.9, 1.0)},
}


def report_bits(report):
    """Every MetricsReport field, floats by repr: a type or a bit that differs shows."""
    return {f.name: repr(getattr(report, f.name)) for f in dataclasses.fields(report)}


@pytest.fixture
def nms_calls(monkeypatch):
    """The (scores, detections) of every decode_and_suppress call, in order."""
    calls = []

    def recorded(anchor_boxes, scene_ids, scores, offsets):
        calls.append((scores, decode_and_suppress(anchor_boxes, scene_ids, scores,
                                                  offsets)))
        return calls[-1][1]

    monkeypatch.setattr(metrics, "decode_and_suppress", recorded)
    return calls


@pytest.mark.parametrize("case", sorted(FLOOR_CASES))
def test_evaluate_detections_equals_full_pass(nms_calls, case):
    cut = tied_floor = flagged = level_unreached = 0
    for seed in range(40):
        inputs = random_scored_anchors(seed, **FLOOR_CASES[case])
        scores, gt_by_scene, np_ids = inputs[2], inputs[4], inputs[5]
        nms_calls.clear()
        report = evaluate_detections(*inputs)
        floor_calls = list(nms_calls)
        assert report_bits(report) == report_bits(full_pass_reference(*inputs)), seed
        full = nms_calls[-1][1]
        for kept, dets in floor_calls:
            # each pass suppresses the rows at or above a score floor, and
            # keeps the full pass's detections at or above it
            floor = kept.min()
            assert kept.size == np.count_nonzero(scores >= floor)
            assert np.array_equal(dets.score, full.score[full.score >= floor])
            tied_floor += kept.size < scores.size and np.sum(scores == floor) > 1
        cut += floor_calls[-1][0].size < scores.size
        flagged += "precision_floor_unreached" in report.flags
        if np_ids:
            np_det = _sweep_curves(full, gt_by_scene, np_ids)[3]
            level_unreached += np_det[0] / len(np_ids) > FROC_LEVELS[0]
    if case == "no_gt":
        assert cut == 0  # with no gt the stop rule never holds: full pass
    else:
        assert cut >= 5 and tied_floor >= 5, (cut, tied_floor)
    if case == "precision_floor_unreached":
        assert flagged >= 30
    if case == "froc_level_unreached":
        assert level_unreached >= 30


@pytest.mark.parametrize("case", sorted(FLOOR_CASES))
def test_evaluate_detections_stops_at_the_first_deep_enough_floor(nms_calls, case):
    for seed in range(40):
        inputs = random_scored_anchors(seed, **FLOOR_CASES[case])
        nms_calls.clear()
        evaluate_detections(*inputs)
        total_gt = sum(map(len, inputs[4].values()))
        deep = [sweep_is_deep_enough(_sweep_curves(dets, inputs[4], inputs[5]), total_gt,
                                     len(inputs[5])) for _, dets in nms_calls]
        assert not any(deep[:-1])
        assert deep[-1] or nms_calls[-1][0].size == inputs[2].size
        # each floor at least doubles the rows of the one before
        sizes = [kept.size for kept, _ in nms_calls]
        assert all(b >= 2 * a or b == inputs[2].size for a, b in zip(sizes, sizes[1:]))


def test_sweep_is_deep_enough_needs_both_bounds():
    # curves: (thresholds, tp, n_det, np_det); 2 gt and 2 normal scenes
    curves = (np.array([0.9, 0.5, 0.1]), np.array([1, 2, 2]), np.array([2, 9, 80]),
              np.array([0, 5, 70]))
    # group 1: 2/9 is above min(0.2, 0.5); group 2: 2/80 < 0.2 and 70/2 > 32
    assert sweep_is_deep_enough(curves, total_gt=2, n_np=2)
    assert not sweep_is_deep_enough(curves, total_gt=2, n_np=3)  # 70/3 <= 32
    assert sweep_is_deep_enough(curves, total_gt=2, n_np=0)
    assert not sweep_is_deep_enough(curves, total_gt=20, n_np=0)  # 20/80 >= 0.2
    no_gt = (curves[0], np.zeros(3, dtype=int), curves[2], curves[3])
    assert not sweep_is_deep_enough(no_gt, total_gt=0, n_np=0)  # no gt: never
    # below the precision floor the bound is the best precision so far
    low = (np.array([0.9, 0.1]), np.array([0, 1]), np.array([10, 40]), np.array([0, 0]))
    assert not sweep_is_deep_enough(low, total_gt=1, n_np=0)  # 1/40 == best
    low = (np.array([0.9, 0.1]), np.array([1, 1]), np.array([10, 40]), np.array([0, 0]))
    assert sweep_is_deep_enough(low, total_gt=1, n_np=0)  # 1/40 < 1/10


def test_evaluate_detections_rejects_a_nan_score():
    boxes, scene_ids, scores, offsets, gt_by_scene, np_ids = random_scored_anchors(0)
    # an isolated row that no other row can suppress
    boxes = np.vstack([boxes, [500.0, 500.0, 8.0, 8.0]])
    offsets = np.vstack([offsets, np.zeros(4)])
    scene_ids = np.append(scene_ids, np_ids[0])
    for nan_scores in (np.append(scores, np.nan),
                       np.append(np.where(scores > 0.5, 1.0, scores), np.nan)):
        for evaluate in (evaluate_detections, full_pass_reference):
            with pytest.raises(ValueError, match=r"score must be in \[0, 1\]"):
                evaluate(boxes, scene_ids, nan_scores, offsets, gt_by_scene, np_ids)


# ---------------------------------------------------------------------------


def test_report_round_trip(tmp_path):
    rep = MetricsReport(recall=0.8125, precision=0.4, nfps=99.92, froc=0.7321,
                        t_recall=0.9, r_recall=None, threshold=0.3125,
                        flags=["r_recall_undefined"])
    path = tmp_path / "report.txt"
    write_report(path, rep)
    loaded = read_report(path)
    assert loaded == rep
    text = path.read_text()
    assert "r_recall=undefined" in text
    assert text.splitlines()[0].startswith("recall=")
