"""Acceptance gate: one test per release criterion, each printing a single
pass/fail line.  Criteria 6 and 7 train the full benchmark grid and dominate
the runtime; everything else is exact-oracle or property checking.
"""

import time

import numpy as np
import pytest

from dghm.experiments import ExperimentConfig, Task, cmd_compare_losses, run_many, run_single
from dghm.harmonizer import (
    HarmonizerConfig,
    LossSpec,
    Mode,
    bin_counts,
    bin_index,
    flat_bins,
    gradient_density,
    harmonize_weights,
    partition_of,
    reformulated_gradient_curve,
)
from dghm.losses import (
    FocalParams,
    SceParams,
    ce_loss,
    focal_loss,
    sce_loss,
    sigmoid,
)
from dghm.metrics import (
    Detections,
    MatchReport,
    _sweep_curves,
    aggregate_match,
    nfps_from_w,
    precision,
    recall,
    sweep_report,
)
from dghm.model import Batch, Predictor, finite_difference_check, pool_gradient_histograms


def _verdict(num: int, desc: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. gradient correctness for every loss
# ---------------------------------------------------------------------------

ALL_SPECS = [
    LossSpec(kind="ce"),
    LossSpec(kind="focal"),
    LossSpec(kind="sce"),
    LossSpec(kind="ghm_c"),
    LossSpec(kind="dghm_c"),
    LossSpec(kind="dghm_c_star"),
]


def _random_batch(rng, n, dim, mode):
    p_star = (rng.random(n) < 0.35).astype(float)
    a = (rng.random(n) < 0.6).astype(int)
    a[p_star == 1] = 1  # annotated positives only occur in abnormal scenes
    features = rng.normal(size=(n, dim))
    targets = rng.normal(size=(n, 4))
    order = np.argsort(p_star == 0, kind="stable")  # positives lead, as in training
    return Batch(
        features=features[order],
        p_star=p_star[order],
        codes=partition_of(p_star[order], a[order], mode),
        targets=targets[order][:np.count_nonzero(p_star)],
    )


def test_criterion_1_gradient_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    n_models, n_batches = 20, 50
    for mi in range(n_models):
        dim = int(rng.integers(4, 8))
        model = Predictor.create(dim, hidden=(int(rng.integers(4, 9)),), seed=mi)
        # give the zero-initialised output layer nontrivial weights
        model.weights[-1] += rng.normal(scale=0.5, size=model.weights[-1].shape)
        model.biases[-1] += rng.normal(scale=0.2, size=model.biases[-1].shape)
        for bi in range(n_batches):
            spec = ALL_SPECS[(mi * n_batches + bi) % len(ALL_SPECS)]
            batch = _random_batch(rng, int(rng.integers(8, 17)), dim,
                                  spec.harmonizer.mode)
            err = finite_difference_check(model, batch, spec, max_params=60,
                                          seed=mi * 1000 + bi)
            worst = max(worst, err)
    elapsed = time.perf_counter() - start
    _verdict(1, "all losses pass finite-difference check < 1e-6 in < 60 s",
             worst < 1e-6 and elapsed < 60.0,
             f"max rel err {worst:.2e}, {elapsed:.1f}s, "
             f"{n_models} models x {n_batches} batches, smooth-L1 included")


# ---------------------------------------------------------------------------
# 2. gradient density bit-equal to the direct O(N^2) shared-bin summation
# ---------------------------------------------------------------------------

def test_criterion_2_gradient_density_oracle():
    rng = np.random.default_rng(22)
    cfg = HarmonizerConfig(mode=Mode.GHM)
    h = 0.5 / cfg.bin_count
    ok = True
    for _ in range(100):
        g = rng.random(1000)
        parts = np.zeros(1000, dtype=np.int64)  # one pooled partition
        g, _, flat = flat_bins(g, parts, cfg.bin_count)
        hist = bin_counts(flat, 1, cfg.bin_count)
        # direct summation: count of examples sharing each example's bin
        bins = np.array([bin_index(gi, cfg.bin_count) for gi in g])
        shared = (bins[:, None] == bins[None, :]).sum(axis=1).astype(float)
        # the unit region around each g, clipped to [0, 1]
        lengths = np.array([min(gi + h, 1.0) - max(gi - h, 0.0) for gi in g])
        oracle = np.maximum(shared, 1.0) / lengths
        fast = gradient_density(hist, g, flat)
        if not np.array_equal(oracle, fast):
            ok = False
            break
    _verdict(2, "GD bit-equal to O(N^2) oracle on 100 batches of N=1000", ok)


# ---------------------------------------------------------------------------
# 3. reductions
# ---------------------------------------------------------------------------

def test_criterion_3_reductions():
    rng = np.random.default_rng(33)
    max_a = max_b = max_c = 0.0
    for _ in range(50):
        n = 200
        logits = rng.normal(scale=3.0, size=n)
        p_star = (rng.random(n) < 0.4).astype(float)
        a = np.ones(n, dtype=int)
        p = sigmoid(logits)
        # (a) single-partition DGHM with unit exponents reproduces GHM-C
        # weights (all examples in one partition sees the pooled histogram)
        g = np.abs(p - p_star)
        pooled = np.zeros(n, dtype=np.int64)  # code 0: pooled under GHM
        one = np.zeros(n, dtype=np.int64)  # code 0: clean under DGHM
        w_ghm = harmonize_weights(g, pooled, HarmonizerConfig(mode=Mode.GHM)).beta
        w_dghm = harmonize_weights(
            g, one, HarmonizerConfig(mode=Mode.DGHM, mu_n=1.0, mu_c=1.0)).beta
        max_a = max(max_a, float(np.max(np.abs(w_ghm - w_dghm))))
        # (b) focal with gamma=0, alpha=0.5 equals 0.5 * CE
        fl = focal_loss(p, p_star, FocalParams(alpha=0.5, gamma=0.0))
        max_b = max(max_b, float(np.max(np.abs(fl - 0.5 * ce_loss(p, p_star)))))
        # (c) SCE with beta=0 equals alpha * CE
        params = SceParams(alpha_sce=0.7, beta_sce=0.0)
        sl = sce_loss(p, p_star, params)
        max_c = max(max_c, float(np.max(np.abs(sl - 0.7 * ce_loss(p, p_star)))))
    ok = max_a < 1e-12 and max_b < 1e-12 and max_c < 1e-12
    _verdict(3, "DGHM->GHM, focal->CE, SCE->CE reductions within 1e-12", ok,
             f"max deviations {max_a:.1e}/{max_b:.1e}/{max_c:.1e}")


# ---------------------------------------------------------------------------
# 4. outlier modulation property
# ---------------------------------------------------------------------------

def test_criterion_4_outlier_modulation():
    rng = np.random.default_rng(44)
    cfg = HarmonizerConfig(mode=Mode.DGHM)  # mu_n=2.0, mu_c=0.5, lambda=0.9
    unit = HarmonizerConfig(mode=Mode.DGHM, mu_n=1.0, mu_c=1.0)
    violations = 0
    for _ in range(1000):
        n = int(rng.integers(20, 200))
        g = rng.random(n)
        parts = (rng.random(n) < 0.5).astype(np.int64)  # 1 noisy, 0 clean
        beta = harmonize_weights(g, parts, cfg).beta
        beta1 = harmonize_weights(g, parts, unit).beta
        out = g >= cfg.outlier_threshold
        noisy = out & (parts == 1)
        clean = out & (parts == 0)
        violations += int(np.sum(beta[noisy] > beta1[noisy] + 0.0))
        violations += int(np.sum(beta[clean] < beta1[clean] - 0.0))
    _verdict(4, "outlier weights: noisy crushed / clean kept, 1000 batches",
             violations == 0, f"{violations} violations")


# ---------------------------------------------------------------------------
# 5. metric oracles
# ---------------------------------------------------------------------------

def _random_detection_sets(rng):
    """Detection sets with quantised scores so threshold ties occur."""
    n_scenes = int(rng.integers(4, 10))
    n_np = int(rng.integers(1, 4))
    gt_by_scene, rows = {}, []
    for sid in range(n_scenes):
        n_gt = 0 if sid < n_np else int(rng.integers(0, 5))
        gts = np.array([(rng.uniform(10, 50), rng.uniform(10, 50), 8.0, 8.0)
                        for _ in range(n_gt)]).reshape(-1, 4)
        gt_by_scene[sid] = gts
        for k in range(int(rng.integers(0, 7))):
            if n_gt and rng.random() < 0.6:
                cx, cy, w, h = gts[int(rng.integers(n_gt))]
                box = (cx + rng.normal(scale=1.5), cy + rng.normal(scale=1.5), w, h)
            else:
                box = (rng.uniform(0, 64), rng.uniform(0, 64), 8.0, 8.0)
            score = round(float(rng.random()), 1)
            rows.append((sid, *box, score))
    rows = np.array(rows, dtype=np.float64).reshape(-1, 6)
    dets = Detections(rows[:, 0].astype(np.int64), rows[:, 1:5], rows[:, 5])
    np_ids = set(range(n_np))
    return dets, gt_by_scene, np_ids


def _brute_froc(dets, gt_by_scene, np_ids, levels=(1, 2, 4, 8, 16, 32)):
    n_gt = sum(len(b) for b in gt_by_scene.values())
    if n_gt == 0 or not np_ids:
        return 0.0
    thresholds = np.unique(dets.score)[::-1]
    in_np = np.isin(dets.scene_id, list(np_ids))
    pts = []
    for t in thresholds:
        kept = dets.score >= t
        rep = aggregate_match(dets[kept], gt_by_scene)
        fp_np = np.count_nonzero(kept & in_np)
        pts.append((fp_np / len(np_ids), rep.tp / n_gt))
    sens = []
    for lv in levels:
        best = 0.0
        for fppi, s in pts:
            if fppi <= lv:
                best = max(best, s)
        sens.append(best)
    return float(np.mean(sens))


def _brute_operating_point(dets, gt_by_scene, min_precision=0.2):
    thresholds = np.unique(dets.score)[::-1]
    best = None
    for t in thresholds[::-1]:  # lowest qualifying threshold
        rep = aggregate_match(dets[dets.score >= t], gt_by_scene)
        denom = rep.tp + rep.fp
        if denom and rep.tp / denom >= min_precision:
            return t, False
    # fallback: argmax precision
    best_t, best_p = None, -1.0
    for t in thresholds:
        rep = aggregate_match(dets[dets.score >= t], gt_by_scene)
        denom = rep.tp + rep.fp
        p = rep.tp / denom if denom else 0.0
        if p > best_p:
            best_t, best_p = t, p
    return best_t, True


def _swept(dets, gt_by_scene, np_ids=()):
    """The pipeline's report of one detection set: ``sweep_report`` of its sweep."""
    n_gt = sum(len(b) for b in gt_by_scene.values())
    return sweep_report(_sweep_curves(dets, gt_by_scene, np_ids), n_gt, len(np_ids))


def test_criterion_5_metric_oracles():
    # exact formulas on hand-built reports
    rep = MatchReport(tp=6, fp=2, fn=4)
    exact = (recall(rep)[0] == 0.6 and precision(rep) == 0.75
             and nfps_from_w(0.0) == 100.0 and nfps_from_w(100.0) == 0.0
             and nfps_from_w(150.0) == 0.0)
    # sweep oracles on 100 random detection sets
    rng = np.random.default_rng(55)
    agree = True
    for _ in range(100):
        dets, gt, np_ids = _random_detection_sets(rng)
        if not dets:
            continue
        if abs(_swept(dets, gt, np_ids).froc - _brute_froc(dets, gt, np_ids)) > 1e-12:
            agree = False
            break
        report = _swept(dets, gt)
        bthr, bflag = _brute_operating_point(dets, gt)
        if report.threshold != bthr or ("precision_floor_unreached" in report.flags) != bflag:
            agree = False
            break
    _verdict(5, "metric formulas exact; FROC/operating point match "
                "exhaustive sweeps on 100 sets; NFPs clamp at W=0/100/150",
             exact and agree)


# ---------------------------------------------------------------------------
# 6 & 7. trend reproduction on the benchmark (shared training grid)
# ---------------------------------------------------------------------------

TREND_LOSSES = ("ce", "focal", "ghm_c", "dghm_c")


@pytest.fixture(scope="module")
def trend_runs():
    """Per-seed (FROC, R-recall) lists keyed by (loss, eta), and the elapsed time."""
    cfg = ExperimentConfig()
    start = time.perf_counter()
    tasks = [Task(cfg, loss, 0.7, 0, seed)
             for loss in TREND_LOSSES for seed in cfg.seeds]
    tasks += [Task(cfg, loss, 0.2, 0, seed)
              for loss in ("ce", "dghm_c") for seed in cfg.seeds]
    records = run_many(tasks, jobs=1)
    elapsed = time.perf_counter() - start
    per_seed = {}
    for r in records:
        per_seed.setdefault((r.task.loss, r.task.eta), []).append(
            (r.report.froc, r.report.r_recall))
    return per_seed, elapsed


def _mean(per_seed, loss, eta, column):
    return float(np.mean([v[column] for v in per_seed[loss, eta]]))


def _paired_se(per_seed, hi, lo, column):
    """Standard error of the mean eta=0.7 gap hi - lo: the SD of the per-seed
    gaps over sqrt(n).  A seed's runs share its corruption, so the gaps pair."""
    gaps = [a[column] - b[column]
            for a, b in zip(per_seed[hi, 0.7], per_seed[lo, 0.7], strict=True)]
    return float(np.std(gaps, ddof=1) / np.sqrt(len(gaps)))


def test_criterion_6_trend_reproduction(trend_runs):
    per_seed, elapsed = trend_runs
    froc_of = {loss: _mean(per_seed, loss, 0.7, 0) for loss in TREND_LOSSES}
    rrec_of = {loss: _mean(per_seed, loss, 0.7, 1) for loss in TREND_LOSSES}
    froc_std = {loss: float(np.std([v[0] for v in per_seed[loss, 0.7]]))
                for loss in TREND_LOSSES}
    ranked = ("dghm_c", "ghm_c", "ce", "focal")
    gaps = {f"{hi}-{lo}": (froc_of[hi] - froc_of[lo], _paired_se(per_seed, hi, lo, 0))
            for hi, lo in zip(ranked, ranked[1:])}
    order = all(gap > 0 for gap, _ in gaps.values())
    d_froc = froc_of["dghm_c"] - froc_of["ce"]
    d_rrec = rrec_of["dghm_c"] - rrec_of["ce"]
    ok = order and d_froc >= 0.10 and d_rrec >= 0.15 and elapsed < 900.0
    # margins: how far each value clears its gate; a thin one shows here
    _verdict(6, "eta=0.7 FROC order DGHM>GHM>CE>focal with gaps "
                ">=0.10 FROC / >=0.15 R-recall in < 15 min",
             ok,
             "froc " + " ".join(f"{l}={froc_of[l]:.3f}(sd {froc_std[l]:.3f})"
                                for l in TREND_LOSSES)
             + f"; dFROC={d_froc:+.3f}(se {_paired_se(per_seed, 'dghm_c', 'ce', 0):.3f})"
             + f" dRrec={d_rrec:+.3f}(se {_paired_se(per_seed, 'dghm_c', 'ce', 1):.3f})"
             + f" {elapsed:.0f}s"
             + f"; margins dFROC-0.10={d_froc - 0.10:+.3f}"
             + f" dRrec-0.15={d_rrec - 0.15:+.3f} "
             + " ".join(f"{k}={gap:+.3f}(se {se:.3f})" for k, (gap, se) in gaps.items())
             + f" 900s-elapsed={900.0 - elapsed:+.0f}s")


def test_criterion_7_noise_degradation(trend_runs):
    per_seed, _ = trend_runs
    drop_ce = _mean(per_seed, "ce", 0.2, 0) - _mean(per_seed, "ce", 0.7, 0)
    drop_dghm = _mean(per_seed, "dghm_c", 0.2, 0) - _mean(per_seed, "dghm_c", 0.7, 0)
    _verdict(7, "FROC drop 0.2->0.7 smaller for DGHM-C than CE",
             drop_dghm < drop_ce,
             f"drops dghm={drop_dghm:+.3f} ce={drop_ce:+.3f}"
             f"; margin {drop_ce - drop_dghm:+.3f}")


# ---------------------------------------------------------------------------
# 8. figure reproduction: histograms and reformulated-gradient curve
# ---------------------------------------------------------------------------

def test_criterion_8_figure_reproduction():
    cfg = ExperimentConfig()
    _, model, _, pool = run_single(cfg, "ce", 0.7, fold=0, seed=0,
                                   return_model=True)
    hists, _ = pool_gradient_histograms(model, pool)
    clean, noisy = hists  # rows follow MODE_PARTITIONS[Mode.DGHM]
    top_mass = noisy[-1] > 0
    shape_n = noisy / max(noisy.sum(), 1.0)
    shape_c = clean / max(clean.sum(), 1.0)
    shapes_differ = not np.allclose(shape_n, shape_c, atol=1e-3)
    # discontinuity of the noisy-branch reformulated gradient at g = lambda
    spec = LossSpec(kind="dghm_c")
    lam = spec.harmonizer.outlier_threshold
    g, eff = reformulated_gradient_curve(spec, histograms=hists,
                                         partition=1,  # noisy
                                         samples=2001)
    below = eff[np.searchsorted(g, lam) - 1]
    at = eff[np.searchsorted(g, lam)]
    jump = abs(at - below)
    typical = np.median(np.abs(np.diff(eff)) + 1e-30)
    discontinuous = jump > 50 * typical
    _verdict(8, "CE noisy top-bin mass nonzero, histogram shapes differ, "
                "DGHM noisy curve discontinuous at lambda",
             bool(top_mass and shapes_differ and discontinuous),
             f"top bin {int(noisy[-1])}, jump {jump:.3g} "
             f"vs step {typical:.3g}")


# ---------------------------------------------------------------------------
# 9. determinism: byte-identical comparison CSVs
# ---------------------------------------------------------------------------

def test_criterion_9_determinism(tmp_path):
    from dghm.simdata import SceneSpec
    from dghm.experiments import CorpusConfig
    spec = SceneSpec(extent=(24.0, 24.0), objects_per_ap_scene=(1, 2),
                     feature_dim=4)
    cfg = ExperimentConfig(
        corpus=CorpusConfig(scene_spec=spec, n_ap=8, n_np=8),
        losses=("ce", "dghm_c"), folds=2, seeds=(0, 1),
        epochs=2, steps_per_epoch=5, batch_size=16)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cmd_compare_losses(cfg, out_a)
    cmd_compare_losses(cfg, out_b)
    names = sorted(p.name for p in out_a.glob("*.csv"))
    same = bool(names) and all(
        (out_a / n).read_bytes() == (out_b / n).read_bytes() for n in names)
    _verdict(9, "repeated compare runs yield byte-identical CSVs", same,
             f"{len(names)} CSVs compared")
