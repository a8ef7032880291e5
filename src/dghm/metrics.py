"""Detection evaluation: instance recall, precision, NFPs, FROC, T/R-recall.

All matching is greedy in descending score order at a fixed IoU threshold
(0.3 for evaluation, following the benchmark convention).  NFPs penalizes the
average detection count W over normal scenes as max(100 - W, 0).  FROC
averages recall over a ladder of false-positives-per-normal-scene levels; by
default the ladder values are interpreted as FP-per-NP-scene counts (standard
FROC), with an optional literal reading where they are NFPs score levels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .simdata import Box, iou, iou_matrix

EVAL_IOU = 0.3
NMS_IOU = 0.5
FROC_LEVELS = (1, 2, 4, 8, 16, 32)


@dataclass(frozen=True)
class DetectionResult:
    scene_id: int
    box: Box
    score: float

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise ValueError("score must be in [0, 1]")


@dataclass
class MatchReport:
    tp: int
    fp: int
    fn: int


@dataclass
class MetricsReport:
    recall: float = 0.0
    precision: float = 0.0
    nfps: float = 0.0
    froc: float = 0.0
    t_recall: float | None = None
    r_recall: float | None = None
    threshold: float = 0.0
    flags: list = field(default_factory=list)


def decode_boxes(anchor_boxes, offsets, max_log_scale: float = 4.0):
    """Invert the regression parameterization; log-scales are clipped."""
    anchor_boxes = np.asarray(anchor_boxes, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.float64)
    cx = anchor_boxes[:, 0] + offsets[:, 0] * anchor_boxes[:, 2]
    cy = anchor_boxes[:, 1] + offsets[:, 1] * anchor_boxes[:, 3]
    s = np.clip(offsets[:, 2:4], -max_log_scale, max_log_scale)
    w = anchor_boxes[:, 2] * np.exp(s[:, 0])
    h = anchor_boxes[:, 3] * np.exp(s[:, 1])
    return np.stack([cx, cy, w, h], axis=1)


def decode_and_suppress(anchor_boxes, scene_ids, scores, offsets):
    """Greedily deduplicated detections per scene, by descending score.

    A detection is dropped when it overlaps an already-kept one of its scene at
    IoU >= NMS_IOU.  Ties break on (scene_id, original index), and detections
    are returned in that order, so the output is deterministic.
    """
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
    return [DetectionResult(scene_id=int(scene_ids[i]), box=Box(*boxes[i]),
                            score=float(scores[i])) for i in order[keep]]


def _greedy_claims(dets, gt_by_scene, iou_thr, scene_of=lambda det: det.scene_id):
    """Greedy one-to-one matching behind every match count and curve sweep.

    Detections are visited by descending score, ties in input order; each
    claims the unclaimed gt of its scene (``gt_by_scene[scene_of(det)]``) with
    the highest IoU >= iou_thr.  Returns (order, is_tp): the visiting order as
    indices into dets, and per rank whether that detection claimed a gt.
    """
    order = sorted(range(len(dets)), key=lambda i: -dets[i].score)
    claimed = {sid: [False] * len(gts) for sid, gts in gt_by_scene.items()}
    is_tp = np.zeros(len(dets), dtype=bool)
    for rank, i in enumerate(order):
        det = dets[i]
        sid = scene_of(det)
        gts = gt_by_scene.get(sid)
        if not gts:
            continue
        taken = claimed[sid]
        best_j, best_iou = -1, iou_thr
        for j, gt in enumerate(gts):
            if taken[j]:
                continue
            v = iou(det.box, gt)
            if v >= best_iou and v > 0:
                if v > best_iou or best_j == -1:
                    best_j, best_iou = j, v
        if best_j >= 0:
            taken[best_j] = True
            is_tp[rank] = True
    return order, is_tp


def _report(n_dets: int, n_gts: int, is_tp) -> MatchReport:
    tp = int(np.count_nonzero(is_tp))
    return MatchReport(tp=tp, fp=n_dets - tp, fn=n_gts - tp)


def match_detections(dets, gt_boxes, iou_thr: float = EVAL_IOU) -> MatchReport:
    """Greedy one-to-one matching of one scene's detections against its gts.

    Detections are processed by descending score; each claims the unmatched gt
    with the highest IoU >= iou_thr.
    """
    _, is_tp = _greedy_claims(dets, {0: gt_boxes}, iou_thr, scene_of=lambda det: 0)
    return _report(len(dets), len(gt_boxes), is_tp)


def aggregate_match(dets, gt_by_scene, iou_thr: float = EVAL_IOU) -> MatchReport:
    """Match per scene and sum counts; detections in scenes without gt are FP."""
    _, is_tp = _greedy_claims(dets, gt_by_scene, iou_thr)
    return _report(len(dets), sum(len(g) for g in gt_by_scene.values()), is_tp)


def recall(report: MatchReport):
    """TP / (TP + FN); 0 with a flag when there are no ground-truth instances."""
    if report.tp + report.fn == 0:
        return 0.0, True
    return report.tp / (report.tp + report.fn), False


def precision(report: MatchReport):
    """TP / (TP + FP); 0 with a flag when there are no detections."""
    if report.tp + report.fp == 0:
        return 0.0, True
    return report.tp / (report.tp + report.fp), False


def mean_np_detections(dets, np_scene_ids) -> float:
    """W: average number of detections per normal scene."""
    np_scene_ids = set(np_scene_ids)
    if not np_scene_ids:
        raise ValueError("at least one normal scene is required")
    n = sum(1 for d in dets if d.scene_id in np_scene_ids)
    return n / len(np_scene_ids)


def nfps_from_w(w: float) -> float:
    return max(100.0 - w, 0.0)


def nfps(dets, np_scene_ids, threshold: float) -> float:
    """NFPs score at the given operating threshold."""
    kept = [d for d in dets if d.score >= threshold]
    return nfps_from_w(mean_np_detections(kept, np_scene_ids))


def _sweep_curves(dets, gt_by_scene, np_scene_ids=()):
    """Per-threshold cumulative match statistics in one greedy pass.

    Greedy matching processes detections in descending score, so the decisions
    made for detections above any threshold are exactly the prefix of one full
    pass.  Returns (thresholds desc, tp, n_det, n_np_det) where entry k counts
    detections with score >= thresholds[k].
    """
    np_scene_ids = set(np_scene_ids)
    order, is_tp = _greedy_claims(dets, gt_by_scene, EVAL_IOU)
    in_np = np.array([dets[i].scene_id in np_scene_ids for i in order], dtype=bool)
    scores = np.array([dets[i].score for i in order])
    cum_tp = np.cumsum(is_tp)
    cum_np = np.cumsum(in_np)
    # last index of each unique score = counts for "score >= that threshold"
    last = np.flatnonzero(np.diff(scores, append=np.nan) != 0)
    return scores[last], cum_tp[last], last + 1, cum_np[last]


def froc(dets, gt_by_scene, np_scene_ids, levels=FROC_LEVELS) -> float:
    """Average recall over FP-per-normal-scene levels.

    For each level, the recall is the highest recall achievable at any score
    threshold whose mean normal-scene detection count W stays <= level.  If W
    never reaches the level even at the lowest threshold, the recall at the
    lowest threshold is used (it satisfies W <= level); if even the highest
    threshold exceeds the level, that level contributes 0.
    """
    np_scene_ids = set(np_scene_ids)
    if not np_scene_ids:
        raise ValueError("at least one normal scene is required")
    if not dets:
        return 0.0
    total_gt = sum(len(v) for v in gt_by_scene.values())
    if total_gt == 0:
        return 0.0
    _, tp, _, np_det = _sweep_curves(dets, gt_by_scene, np_scene_ids)
    recalls = tp / total_gt
    ws = np_det / len(np_scene_ids)
    values = []
    for level in levels:
        ok = ws <= level
        values.append(float(recalls[ok].max()) if np.any(ok) else 0.0)
    return float(np.mean(values))


def operating_point(dets, gt_by_scene, min_precision: float = 0.2):
    """Lowest score threshold whose precision is >= min_precision.

    Returns (threshold, flagged).  When no threshold reaches the floor, the
    threshold of maximum precision is returned and flagged.
    """
    if not dets:
        raise ValueError("no detections to choose an operating point from")
    thresholds, tp, n_det, _ = _sweep_curves(dets, gt_by_scene)
    precisions = tp / n_det
    ok = np.flatnonzero(precisions >= min_precision)
    if ok.size:
        # thresholds are descending; the last qualifying one is the lowest
        return float(thresholds[ok[-1]]), False
    best = int(np.argmax(precisions))
    return float(thresholds[best]), True


def t_r_recall(dets, kept_by_scene, removed_by_scene, threshold: float,
               iou_thr: float = EVAL_IOU):
    """Recall against kept and removed training annotations, independently.

    Two separate matching passes are run, one per annotation pool; a detection
    may therefore count toward both.  Returns (t_recall, r_recall, flagged)
    where r_recall is None (flagged) when the removed pool is empty.
    """
    above = [d for d in dets if d.score >= threshold]
    t_rep = aggregate_match(above, kept_by_scene, iou_thr)
    t_rec, _ = recall(t_rep)
    n_removed = sum(len(v) for v in removed_by_scene.values())
    if n_removed == 0:
        return t_rec, None, True
    r_rep = aggregate_match(
        [d for d in above if d.scene_id in removed_by_scene], removed_by_scene, iou_thr)
    r_rec, _ = recall(r_rep)
    return t_rec, r_rec, False


# ---------------------------------------------------------------------------
# Flat key/value report serialization.
# ---------------------------------------------------------------------------

REPORT_KEYS = ("recall", "precision", "nfps", "froc", "t_recall", "r_recall",
               "threshold", "flags")


def write_report(path, report: MetricsReport):
    with open(path, "w") as fh:
        for key in REPORT_KEYS:
            value = getattr(report, key)
            if key == "flags":
                fh.write(f"flags={','.join(value)}\n")
            elif value is None:
                fh.write(f"{key}=undefined\n")
            else:
                fh.write(f"{key}={value:.10g}\n")


def read_report(path) -> MetricsReport:
    values = {}
    with open(path) as fh:
        for line in fh:
            key, _, raw = line.strip().partition("=")
            if key == "flags":
                values[key] = [f for f in raw.split(",") if f]
            elif raw == "undefined":
                values[key] = None
            else:
                values[key] = float(raw)
    return MetricsReport(**values)
