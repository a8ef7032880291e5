"""Detection evaluation: instance recall, precision, NFPs, FROC, T/R-recall.

Detections are parallel arrays (``Detections``) from NMS to the reports.  All
matching is greedy in descending score order at a fixed IoU threshold (0.3 for
evaluation, following the benchmark convention).  NFPs penalizes the average
detection count W over normal scenes as max(100 - W, 0).  FROC averages recall
over a ladder of false-positives-per-normal-scene levels, read as FP counts
per NP scene (standard FROC).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .simdata import box_span, iou_matrix

EVAL_IOU = 0.3
NMS_IOU = 0.5
FROC_LEVELS = (1, 2, 4, 8, 16, 32)
MIN_PRECISION = 0.2  # precision floor of the operating threshold
MAX_LOG_SCALE = 4.0  # bound on a decoded box's log width and height scale
#: row pairs per IoU pass in NMS and matching: a float64 temporary of one is
#: 16 KiB, well under malloc's 128 KiB mmap threshold
PAIR_PASS = 2048


@dataclass(eq=False)
class Detections:
    """Parallel per-detection arrays: scene ids (n,), (cx, cy, w, h) boxes
    (n, 4) and scores (n,) in [0, 1].  ``dets[mask]`` selects rows."""
    scene_id: np.ndarray
    boxes: np.ndarray
    score: np.ndarray

    def __post_init__(self):
        self.scene_id = np.asarray(self.scene_id, dtype=np.int64)
        self.boxes = np.asarray(self.boxes, dtype=np.float64).reshape(-1, 4)
        self.score = np.asarray(self.score, dtype=np.float64)
        if not self.scene_id.shape == self.score.shape == (len(self.boxes),):
            raise ValueError("scene_id, boxes and score must have one row per detection")
        if not np.all((self.score >= 0.0) & (self.score <= 1.0)):
            raise ValueError("score must be in [0, 1]")

    def __len__(self) -> int:
        return self.score.size

    def __getitem__(self, rows) -> Detections:
        return Detections(self.scene_id[rows], self.boxes[rows], self.score[rows])


@dataclass
class MatchReport:
    tp: int
    fp: int
    fn: int


@dataclass
class MetricsReport:
    recall: float = 0.0
    precision: float = 0.0
    nfps: float | None = 0.0
    froc: float | None = 0.0
    t_recall: float | None = None
    r_recall: float | None = None
    threshold: float = 0.0
    flags: list = field(default_factory=list)


def decode_boxes(anchor_boxes, offsets):
    """Invert the regression parameterization; log-scales are clipped to
    +-MAX_LOG_SCALE."""
    anchor_boxes = np.asarray(anchor_boxes, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.float64)
    cx = anchor_boxes[:, 0] + offsets[:, 0] * anchor_boxes[:, 2]
    cy = anchor_boxes[:, 1] + offsets[:, 1] * anchor_boxes[:, 3]
    s = np.clip(offsets[:, 2:4], -MAX_LOG_SCALE, MAX_LOG_SCALE)
    w = anchor_boxes[:, 2] * np.exp(s[:, 0])
    h = anchor_boxes[:, 3] * np.exp(s[:, 1])
    return np.stack([cx, cy, w, h], axis=1)


def _pair_blocks(counts):
    """Blocks (rows, cols) of at most PAIR_PASS pairs over every row i and its
    offsets 0 .. counts[i] - 1: rows (b, 1) by descending count and cols (w,)
    a run of offsets, so that a pair (i, c) is one where c < counts[i]."""
    by_count = np.flatnonzero(counts)
    by_count = by_count[np.argsort(-counts[by_count])]
    start = 0
    while start < by_count.size:
        width = int(counts[by_count[start]])
        rows = by_count[start:start + max(PAIR_PASS // width, 1), None]
        for c0 in range(0, width, PAIR_PASS):
            yield rows, np.arange(c0, min(c0 + PAIR_PASS, width))
        start += rows.size


def _sweep(x0, x1, scene_ids):
    """(sweep, counts): rows by (scene, x0), and for each how many rows after it
    share its scene and have their x0 below its x1.  The keys are integers,
    exact for any floats: a dense scene rank, each x0's rank and, for each x1,
    the number of x0 below it, so that boxes which only touch are not paired."""
    n = x0.size
    start, end = keys = np.empty((2, n), dtype=np.int64)
    by = np.argsort(x0)
    start[by] = np.arange(n)
    sorted_x0 = x0[by]
    by = np.argsort(x1)
    end[by] = np.searchsorted(sorted_x0, x1[by])
    by = np.argsort(scene_ids)
    ids = scene_ids[by]
    keys[:, by] += np.cumsum(np.concatenate([[0], ids[1:] != ids[:-1]])) * n
    sweep = np.argsort(start)
    counts = np.searchsorted(start[sweep], end[sweep]) - np.arange(1, n + 1)
    return sweep, np.maximum(counts, 0, out=counts)


def decode_and_suppress(anchor_boxes, scene_ids, scores, offsets):
    """Greedily deduplicated detections per scene, by descending score.

    A detection is dropped when it overlaps an already-kept one of its scene at
    IoU >= NMS_IOU.  Ties break on (scene_id, original index), and detections
    are returned in that order, so the output is deterministic.

    All scenes are swept at once (``_sweep``): a row is paired only with the
    rows of its scene whose left edge lies in [its own, its right edge).  Any
    other pair has no x overlap, so IoU 0 (NaN for a NaN box): no suppression.
    """
    scores = np.asarray(scores, dtype=np.float64)
    scene_ids = np.asarray(scene_ids)
    boxes = decode_boxes(anchor_boxes, offsets)
    order = np.lexsort((np.arange(scores.size), scene_ids, -scores))
    n = order.size
    sweep, counts = _sweep(*box_span(boxes, 0), scene_ids)
    rank = np.argsort(order)[sweep]  # each sweep position's rank
    hits = [np.empty(0, dtype=np.int64)]
    for rows, cols in _pair_blocks(counts):
        later = np.minimum(rows + 1 + cols, n - 1)  # the partners' sweep positions
        ious = iou_matrix(boxes, boxes, sweep[rows], sweep[later])
        ri, ci = np.nonzero((cols < counts[rows]) & (ious >= NMS_IOU))
        a, b = rank[rows[ri, 0]], rank[later[ri, ci]]
        hits.append(np.minimum(a, b) * n + np.maximum(a, b))
    # the greedy pass over ranks: a row still alive kills its later hits
    alive = bytearray(b"\x01") * n
    for first, later in zip(*map(np.ndarray.tolist, np.divmod(np.sort(np.concatenate(hits)), n))):
        if alive[first]:
            alive[later] = 0
    rows = order[np.frombuffer(alive, dtype=bool)]
    return Detections(scene_ids[rows], boxes[rows], scores[rows])


def _greedy_claims(dets, gt_by_scene, iou_thr):
    """Greedy one-to-one matching behind every match count and curve sweep.

    gt_by_scene maps a scene id to its (n, 4) gt array.  Detections are
    visited by descending score, ties in input order; each claims the
    unclaimed gt of its scene with the highest IoU >= iou_thr (the first one
    on ties).  Returns (order, is_tp): the visiting order as indices
    into dets, and per rank whether that detection claimed a gt.

    Each detection is paired with its scene's rows of one gt table sorted by
    scene, and claims its first unclaimed hit in (-IoU, gt column) order.
    """
    order = np.argsort(-dets.score, kind="stable")
    scenes = sorted(gt_by_scene)
    gt_sid = np.repeat(np.array(scenes, dtype=np.int64), [len(gt_by_scene[s]) for s in scenes])
    gt_boxes = np.concatenate([np.empty((0, 4)), *(gt_by_scene[s] for s in scenes)])
    sid = dets.scene_id
    counts = (np.searchsorted(gt_sid, sid, side="right") - np.searchsorted(gt_sid, sid))[order]
    hits, winners = [], []
    for rows, cols in _pair_blocks(counts):
        g = np.searchsorted(gt_sid, sid[order[rows]]) + cols
        np.minimum(g, gt_sid.size - 1, out=g)
        ious = iou_matrix(dets.boxes, gt_boxes, order[rows], g)
        ri, ci = np.nonzero((cols < counts[rows]) & (ious >= iou_thr) & (ious > 0))
        hits.append((rows[ri, 0], ious[ri, ci], g[ri, ci]))
    if hits:
        rows, ious, gts = map(np.concatenate, zip(*hits))
        by_claim = np.lexsort((gts, -ious, rows))
        claimed, last = set(), -1
        for r, g in zip(rows[by_claim].tolist(), gts[by_claim].tolist()):
            if r != last and g not in claimed:
                claimed.add(g)
                winners.append(r)
                last = r
    is_tp = np.zeros(len(dets), dtype=bool)
    is_tp[winners] = True
    return order, is_tp


def aggregate_match(dets, gt_by_scene) -> MatchReport:
    """Match per scene at EVAL_IOU and sum counts; detections in scenes
    without gt are FP."""
    _, is_tp = _greedy_claims(dets, gt_by_scene, EVAL_IOU)
    tp = int(np.count_nonzero(is_tp))
    return MatchReport(tp=tp, fp=len(dets) - tp, fn=sum(map(len, gt_by_scene.values())) - tp)


def recall(report: MatchReport):
    """TP / (TP + FN); 0 with a flag when there are no ground-truth instances."""
    if report.tp + report.fn == 0:
        return 0.0, True
    return report.tp / (report.tp + report.fn), False


def precision(report: MatchReport) -> float:
    """TP / (TP + FP); 0 when there are no detections."""
    n_det = report.tp + report.fp
    return report.tp / n_det if n_det else 0.0


def nfps_from_w(w: float) -> float:
    """NFPs from W, the mean detection count per normal scene."""
    return max(100.0 - w, 0.0)


def _sweep_curves(dets, gt_by_scene, np_scene_ids=()):
    """Per-threshold cumulative match statistics in one greedy pass.

    Greedy matching processes detections in descending score, so the decisions
    made for detections above any threshold are exactly the prefix of one full
    pass.  Returns (thresholds desc, tp, n_det, n_np_det) where entry k counts
    detections with score >= thresholds[k].
    """
    order, is_tp = _greedy_claims(dets, gt_by_scene, EVAL_IOU)
    in_np = np.isin(dets.scene_id[order], list(np_scene_ids))
    scores = dets.score[order]
    cum_tp = np.cumsum(is_tp)
    cum_np = np.cumsum(in_np)
    # last index of each unique score = counts for "score >= that threshold"
    last = np.flatnonzero(np.diff(scores, append=np.nan) != 0)
    return scores[last], cum_tp[last], last + 1, cum_np[last]


def sweep_report(curves, total_gt: int, n_np: int) -> MetricsReport:
    """The test-fold metrics read off one greedy sweep (``_sweep_curves``).

    The operating threshold is the lowest whose precision is >= MIN_PRECISION;
    when none is, the (first) threshold of maximum precision, flagged.  Recall,
    precision and NFPs are read at that threshold's group.  FROC averages over
    FROC_LEVELS the best recall of any threshold whose mean normal-scene count
    W stays <= level; a level no threshold meets contributes 0.  With n_np = 0
    (no normal scenes) NFPs and FROC are None; T-/R-recall are left None.
    """
    thresholds, tp, n_det, np_det = curves
    if not thresholds.size:
        return MetricsReport(flags=["no_detections"])
    precisions = tp / n_det
    ok = np.flatnonzero(precisions >= MIN_PRECISION)
    # thresholds are descending; the last qualifying one is the lowest
    k = int(ok[-1]) if ok.size else int(np.argmax(precisions))
    flags = [] if ok.size else ["precision_floor_unreached"]
    rep = MatchReport(tp=int(tp[k]), fp=int(n_det[k] - tp[k]), fn=total_gt - int(tp[k]))
    rec, rec_flag = recall(rep)
    prec = precision(rep)
    if rec_flag:
        flags.append("recall_zero_denominator")
    nfps_value = froc_value = None
    if not n_np:
        flags.append("no_normal_scenes")
    else:
        nfps_value = nfps_from_w(np_det[k] / n_np)
        froc_value = 0.0
        if total_gt:
            # (level, threshold) feasibility
            feasible = np_det / n_np <= np.asarray(FROC_LEVELS)[:, None]
            froc_value = float(np.mean(
                np.where(feasible, tp / total_gt, 0.0).max(axis=1, initial=0.0)))
    return MetricsReport(recall=rec, precision=prec, nfps=nfps_value, froc=froc_value,
                         threshold=float(thresholds[k]), flags=flags)


def sweep_is_deep_enough(curves, total_gt: int, n_np: int) -> bool:
    """Whether no threshold below some group of the sweep can move ``sweep_report``.

    That holds at group k once total_gt / n_det[k] < min(MIN_PRECISION, best
    precision through k): every later precision is at most that bound, so it
    neither qualifies nor beats the first maximum.  With normal scenes FROC
    also needs np_det[k] / n_np > max(FROC_LEVELS), past which no threshold is
    feasible at any level.  With no gt it never holds.
    """
    _, tp, n_det, np_det = curves
    best = np.maximum.accumulate(tp / n_det)
    deep = total_gt / n_det < np.minimum(MIN_PRECISION, best)
    if n_np:
        deep &= np_det / n_np > max(FROC_LEVELS)
    return bool(deep.any())


def evaluate_detections(anchor_boxes, scene_ids, scores, offsets, gt_by_scene,
                        np_scene_ids) -> MetricsReport:
    """``sweep_report`` of scored anchors, suppressed only as deep as it reads.

    Greedy NMS and greedy matching are prefix-exact: a row's fate depends only
    on higher-ranked rows.  So suppressing only the rows scoring at or above a
    floor gives the full pass's sweep cut at that floor, and once the cut
    sweep is deep enough (``sweep_is_deep_enough``) the report equals the full
    pass's, field for field.  The first floor keeps twice a lower bound on the
    rows the stop rule needs; each further floor doubles the rows, up to the
    full pass.  Floors are score values, so tied rows stay together.  Any NaN
    score takes the full pass, where Detections rejects it as before.
    """
    scores = np.asarray(scores, dtype=np.float64)
    scene_ids = np.asarray(scene_ids)
    np_scene_ids = sorted(set(np_scene_ids))
    total_gt, n_np, n = sum(map(len, gt_by_scene.values())), len(np_scene_ids), scores.size
    order = np.argsort(-scores, kind="stable")
    rows = n
    if total_gt and not np.isnan(scores).any():
        # n_det > total_gt / MIN_PRECISION, and more normal-scene rows than FP levels allow
        need = int(total_gt / MIN_PRECISION)
        if n_np:
            cum_np = np.cumsum(np.isin(scene_ids, np_scene_ids)[order])
            need = max(need, int(np.searchsorted(cum_np, max(FROC_LEVELS) * n_np,
                                                 side="right")) + 1)
        rows = min(2 * need, n)
    while True:
        keep = scores >= scores[order[rows - 1]] if rows < n else np.ones(n, dtype=bool)
        rows = int(np.count_nonzero(keep))
        dets = decode_and_suppress(anchor_boxes[keep], scene_ids[keep], scores[keep],
                                   offsets[keep])
        curves = _sweep_curves(dets, gt_by_scene, np_scene_ids)
        if rows == n or sweep_is_deep_enough(curves, total_gt, n_np):
            return sweep_report(curves, total_gt, n_np)
        rows = min(2 * rows, n)


def t_r_recall(dets, kept_by_scene, removed_by_scene, threshold: float):
    """Recall against kept and removed training annotations, independently.

    Two separate matching passes are run, one per annotation pool; a detection
    may therefore count toward both.  Returns (t_recall, r_recall, flagged)
    where r_recall is None (flagged) when the removed pool is empty.
    """
    above = dets[dets.score >= threshold]
    t_rep = aggregate_match(above, kept_by_scene)
    t_rec, _ = recall(t_rep)
    if not any(map(len, removed_by_scene.values())):
        return t_rec, None, True
    # a detection pairs only with its own scene's gts, so one in a scene
    # without removed gts can add an FP but never a TP, and recall reads no FP
    r_rec, _ = recall(aggregate_match(above, removed_by_scene))
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
