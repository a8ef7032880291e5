"""Reproducible experiment runner over the synthetic benchmark.

Builds corpora, trains models under different classification losses, and
evaluates them with the detection metric suite.  Every run is identified by a
config hash and a seed; emitted CSVs are byte-reproducible and every summary
statistic is recomputable from the emitted per-run rows.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import hashlib
import json
import shutil
import typing
from dataclasses import dataclass, field

import numpy as np

from . import metrics as M
from .harmonizer import (
    HARMONIZED_MODES,
    HarmonizerConfig,
    LossSpec,
    Mode,
    export_curves_csv,
    export_histograms_csv,
    load_histograms_csv,
    reformulated_gradient_curve,
)
from .losses import sigmoid
from .model import (
    TrainConfig,
    forward_pool,
    pool_gradient_histograms,
    save_checkpoint,
    save_training_log_csv,
    train,
)
from .simdata import (
    _CHUNK,
    CorruptionSpec,
    SceneSpec,
    build_anchor_grid,
    build_pool,
    corrupt_annotations,
    generate_corpus,
    save_corpus,
)

DEFAULT_LOSSES = ("ce", "focal", "ghm_c", "sce", "dghm_c")


@dataclass(frozen=True)
class CorpusConfig:
    scene_spec: SceneSpec = field(default_factory=SceneSpec)
    n_ap: int = 64
    n_np: int = 64
    seed: int = 42

    def __post_init__(self):
        for name in ("n_ap", "n_np"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class ExperimentConfig:
    corpus: CorpusConfig = field(default_factory=CorpusConfig)
    losses: tuple[str, ...] = DEFAULT_LOSSES
    eta: float = 0.7
    eta_grid: tuple[float, ...] = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7)
    mu_grid: tuple[tuple[float, float], ...] = (
        (1.0, 1.0), (2.0, 1.0), (1.0, 0.5), (0.5, 2.0), (2.0, 0.5))
    lambda_grid: tuple[float, ...] = (0.7, 0.8, 0.9)
    harmonizer: HarmonizerConfig = field(
        default_factory=lambda: HarmonizerConfig(momentum=0.7))
    folds: int = 5
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    # desk-scale training defaults; the paper-scale learning schedule shape
    # (x0.1 decay at 60%/80% of epochs) is preserved
    learning_rate: float = 3e-3
    epochs: int = 40
    batch_size: int = 256
    steps_per_epoch: int = 60
    hidden: tuple[int, ...] = (32,)
    reg_weight: float = 1.0
    include_dghm_star: bool = False

    def __post_init__(self):
        """The checks every run of this config would make, made once, so that
        a config that builds is one that runs."""
        for eta in (self.eta, *self.eta_grid):
            CorruptionSpec(eta=eta, seed=0)
        _train_config(self, LossSpec(), seed=0)
        if not self.losses:
            raise ValueError("losses must be nonempty")
        for name in self.losses:
            loss_spec_for(name, self.harmonizer)
        _check_fold_count(self.folds, self.corpus.n_ap + self.corpus.n_np)
        if not self.seeds or len(set(self.seeds)) != len(self.seeds) or min(self.seeds) < 0:
            raise ValueError(f"seeds must be nonempty, distinct and non-negative, "
                             f"got {list(self.seeds)}")
        cells = _ablation_cells(self)
        # each grid entry is one summary row, keyed by its label: none may repeat
        for key, labels in zip(("losses", "eta_grid", "mu_grid", "lambda_grid"),
                               (self.losses, [f"{eta:g}" for eta in self.eta_grid],
                                *([label for label, _ in grid] for grid in cells))):
            if min(len(set(labels)), len(set(getattr(self, key)))) < len(labels):
                raise ValueError(f"{key} repeats an entry or its label: {list(labels)}")

    def config_hash(self) -> str:
        payload = json.dumps(config_to_dict(self), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass
class RunRecord:
    config_hash: str
    loss: str
    eta: float
    fold: int
    seed: int
    report: M.MetricsReport


_field_hints = functools.cache(typing.get_type_hints)  # once per config class


def config_to_dict(obj, hint=None):
    """A config dataclass as JSON-ready values: dicts, lists and scalars.

    An int in a ``float`` position is written as a float, as
    ``config_from_dict`` stores it, so a config hashes alike however its
    floats were written.
    """
    if dataclasses.is_dataclass(obj):
        hints = _field_hints(type(obj))
        return {f.name: config_to_dict(getattr(obj, f.name), hints[f.name])
                for f in dataclasses.fields(obj)}
    if isinstance(obj, (tuple, list)):
        elements = typing.get_args(hint)
        if elements[-1:] == (Ellipsis,):
            elements = elements[:1] * len(obj)
        return [config_to_dict(v, h) for v, h in zip(obj, elements, strict=True)]
    if isinstance(obj, Mode):
        return obj.value
    return float(obj) if hint is float and type(obj) is int else obj


def _from_json(hint, value, key: str):
    """``value`` as the field type ``hint`` says, or ValueError naming ``key``.

    Nested dicts become nested configs and lists become tuples, checked
    element by element; a ``float`` position stores an int as a float, so a
    config hashes alike however its floats were written, and refuses the
    NaN and Infinity that json reads.
    """
    if dataclasses.is_dataclass(hint):
        return config_from_dict(hint, value, f"{key}.")
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{key} must be a list, got {value!r}")
        elements = typing.get_args(hint)
        if elements[-1] is Ellipsis:
            elements = elements[:1] * len(value)
        elif len(value) != len(elements):
            raise ValueError(f"{key} must have {len(elements)} elements, got {value!r}")
        return tuple(_from_json(h, v, f"{key}[{i}]")
                     for i, (h, v) in enumerate(zip(elements, value)))
    allowed = (int, float) if hint is float else (hint,)
    if hint in (int, float, str, bool) and type(value) not in allowed:
        raise ValueError(f"{key} must be {hint.__name__}, got {value!r}")
    if hint is not float:
        return value
    try:
        value = float(value)
    except OverflowError:
        raise ValueError(f"{key} must be finite, got an int too large for a float") from None
    if not np.isfinite(value):
        raise ValueError(f"{key} must be finite, got {value!r}")
    return value


def config_from_dict(cls, d: dict, where: str = ""):
    """The ``cls`` config a ``config_to_dict`` dict describes; omitted keys
    take the defaults.

    Raises ValueError, naming the dotted key (``[i]`` for a tuple element), on
    an unknown key at any depth, a non-dict for a nested config, a non-list or
    a list of the wrong length for a tuple, a value that is not an int in an
    ``int`` position, not a str in a ``str`` one, not a bool in a ``bool``
    one, or neither an int nor a finite float in a ``float`` one (a bool is
    neither).
    """
    if not isinstance(d, dict):
        raise ValueError(f"{where.rstrip('.') or 'config'} must be a JSON object")
    hints = _field_hints(cls)
    unknown = set(d) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(where + k for k in unknown)}")
    return cls(**{name: _from_json(hints[name], value, where + name)
                  for name, value in d.items()})


def loss_spec_for(name: str, harmonizer: HarmonizerConfig) -> LossSpec:
    if name in HARMONIZED_MODES:
        return LossSpec(kind=name, harmonizer=harmonizer)
    return LossSpec(kind=name)


def _train_config(cfg: ExperimentConfig, spec: LossSpec, seed: int) -> TrainConfig:
    return TrainConfig(loss_spec=spec, learning_rate=cfg.learning_rate,
                       epochs=cfg.epochs, batch_size=cfg.batch_size,
                       steps_per_epoch=cfg.steps_per_epoch, hidden=cfg.hidden,
                       reg_weight=cfg.reg_weight, seed=seed)


# ---------------------------------------------------------------------------
# Folds.
# ---------------------------------------------------------------------------


def _check_fold_count(k: int, n_scenes: int):
    if k < 2 or k > n_scenes:
        raise ValueError(f"fold count {k} must be in [2, {n_scenes}]")


def kfold_split(scenes, k: int, seed: int):
    """Scene-level stratified folds: AP and NP scenes dealt round-robin.

    Returns a list of k sorted scene-id lists forming a disjoint cover.
    """
    _check_fold_count(k, len(scenes))
    rng = np.random.default_rng(seed)
    ap_ids = [s.scene_id for s in scenes if s.is_abnormal]
    np_ids = [s.scene_id for s in scenes if not s.is_abnormal]
    rng.shuffle(ap_ids)
    rng.shuffle(np_ids)
    folds = [[] for _ in range(k)]
    for i, sid in enumerate(ap_ids):
        folds[i % k].append(sid)
    for i, sid in enumerate(np_ids):
        folds[(k - 1 - i) % k].append(sid)
    return [sorted(f) for f in folds]


# ---------------------------------------------------------------------------
# Single run.
# ---------------------------------------------------------------------------


def _score_pool(model, pool):
    """The four columns evaluation reads of a pool, by one ``forward_pool``:
    (anchor boxes, scene ids, scores, offsets)."""
    logits, offsets = forward_pool(model, pool.features)
    return pool.boxes, pool.scene_id, sigmoid(logits), offsets


def predict_scenes(scored, min_score: float = 0.0):
    """Detections of scored rows (``_score_pool``) at score >= min_score:
    only those rows are decoded and suppressed.

    Equal to the detections of all rows filtered to score >= min_score, row
    for row: greedy NMS drops a row only for a higher-ranked row of its scene,
    which scores at least as high, and the subset keeps the tie order.  A NaN
    score is not below min_score, so it is kept and Detections rejects it.
    """
    keep = ~(scored[2] < min_score)
    return M.decode_and_suppress(*(column[keep] for column in scored))


def _scene_groups(scenes, spec: SceneSpec):
    """Consecutive groups of scenes holding at most _CHUNK anchors each, or
    one scene's.  A group of 1 anchor takes in its neighbours, unless the
    scenes hold 1 in all: ``forward_pool`` of 1 row takes another BLAS path."""
    size = len(build_anchor_grid(spec))
    per = max(_CHUNK // size, 1)
    groups = [scenes[i:i + per] for i in range(0, len(scenes), per)]
    if size * len(groups[-1]) == 1 and len(groups) > 1:
        groups[-2].extend(groups.pop())
    return groups


def _test_fold_report(model, test_scenes, spec: SceneSpec,
                      corpus_seed: int) -> M.MetricsReport:
    """The test-fold metrics (``metrics.evaluate_detections``) of the test
    scenes' scored rows.  Each of ``_scene_groups`` is built and scored in
    turn, and its pool freed before the next is built.  Exact: an anchor's
    row depends only on the corpus seed, its scene, its index and its scene's
    boxes, so each group's pool is its rows of one pool over every scene."""
    parts = [_score_pool(model, build_pool(group, spec, corpus_seed))
             for group in _scene_groups(test_scenes, spec)]
    scored = [np.concatenate(columns) for columns in zip(*parts)]
    del parts
    gt_by_scene = {s.scene_id: s.gt_boxes for s in test_scenes if s.is_abnormal}
    np_ids = [s.scene_id for s in test_scenes if not s.is_abnormal]
    return M.evaluate_detections(*scored, gt_by_scene, np_ids)


def evaluate_model(model, train_scored, train_scenes_corrupted, test_scenes,
                   spec: SceneSpec, corpus_seed: int) -> M.MetricsReport:
    """Full metric suite: test-fold detection metrics plus training T/R-recall.

    T-recall scores the annotated boxes of the abnormal training scenes and
    R-recall their unannotated ones, which are exactly the boxes corruption
    dropped, because ``run_single``'s scenes start fully annotated.

    The operating threshold is chosen on the test fold (precision >= 0.2) and
    reused for the training-scene recalls, predicted from train_scored, the
    scored rows (``_score_pool``) of the pool the model was trained on: its
    features and boxes do not depend on the annotations.  Each scene set is
    suppressed only as deep as its metrics read: the test fold down to where
    its sweep stops mattering, the training rows at scores >= threshold, the
    only detections T/R-recall counts.
    """
    report = _test_fold_report(model, test_scenes, spec, corpus_seed)
    if "no_detections" in report.flags:
        return report
    thr = report.threshold
    train_dets = predict_scenes(train_scored, min_score=thr)
    train_ap = [s for s in train_scenes_corrupted if s.is_abnormal]
    kept_by_scene = {s.scene_id: s.gt_boxes[s.annotated] for s in train_ap}
    removed_by_scene = {s.scene_id: s.gt_boxes[~s.annotated]
                        for s in train_ap if not s.annotated.all()}
    report.t_recall, report.r_recall, rr_flag = M.t_r_recall(
        train_dets, kept_by_scene, removed_by_scene, thr)
    if rr_flag:
        report.flags.append("r_recall_undefined")
    return report


def run_single(cfg: ExperimentConfig, loss_name: str, eta: float, fold: int,
               seed: int, harmonizer: HarmonizerConfig | None = None,
               return_model: bool = False):
    """One (loss, eta, fold, seed) training/evaluation cycle.

    The training pool is scored once right after training.  Unless it is
    returned, it is then dropped, so that the run holds at most one scene
    set's pool at a time.
    """
    scenes = generate_corpus(cfg.corpus.scene_spec, cfg.corpus.n_ap,
                             cfg.corpus.n_np, cfg.corpus.seed)
    folds = kfold_split(scenes, cfg.folds, cfg.corpus.seed)
    test_ids = set(folds[fold])
    train_scenes = [s for s in scenes if s.scene_id not in test_ids]
    test_scenes = [s for s in scenes if s.scene_id in test_ids]
    corrupted, _ = corrupt_annotations(train_scenes, CorruptionSpec(eta=eta, seed=seed))
    pool = build_pool(corrupted, cfg.corpus.scene_spec, cfg.corpus.seed)
    spec = loss_spec_for(loss_name, harmonizer or cfg.harmonizer)
    model, log = train(pool, _train_config(cfg, spec, seed))
    train_scored = _score_pool(model, pool)
    if not return_model:
        del pool
    report = evaluate_model(model, train_scored, corrupted, test_scenes,
                            cfg.corpus.scene_spec, cfg.corpus.seed)
    record = RunRecord(config_hash=cfg.config_hash(), loss=loss_name, eta=eta,
                       fold=fold, seed=seed, report=report)
    if return_model:
        return record, model, log, pool
    return record


def _run_single_star(args):
    return run_single(*args)


def run_many(tasks, jobs: int = 1):
    """Run (cfg, loss, eta, fold, seed, harmonizer) tuples, optionally parallel."""
    if jobs <= 1:
        return [run_single(*t) for t in tasks]
    # imported here: only this branch needs it, and a serial run skips its import
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_run_single_star, tasks))


# ---------------------------------------------------------------------------
# CSV emission.
# ---------------------------------------------------------------------------

RUN_COLUMNS = ["config_hash", "loss", "eta", "fold", "seed",
               "precision", "nfps", "recall", "froc", "t_recall", "r_recall",
               "threshold", "flags"]


def _fmt(value) -> str:
    if value is None:
        return "undefined"
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def write_run_rows(path, records):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RUN_COLUMNS)
        for rec in records:
            r = rec.report
            writer.writerow([rec.config_hash, rec.loss, _fmt(rec.eta), rec.fold,
                             rec.seed, _fmt(r.precision), _fmt(r.nfps), _fmt(r.recall),
                             _fmt(r.froc), _fmt(r.t_recall), _fmt(r.r_recall),
                             _fmt(r.threshold), ";".join(r.flags)])


def read_run_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def summarize(records, group_key):
    """Mean and std per group of the four headline metrics.

    Raises when records carry mixed config hashes: aggregation across different
    configs is an error.
    """
    hashes = {rec.config_hash for rec in records}
    if len(hashes) > 1:
        raise ValueError(f"refusing to aggregate mixed configs: {sorted(hashes)}")
    groups: dict = {}
    for rec in records:
        groups.setdefault(group_key(rec), []).append(rec)
    rows = []
    for key in sorted(groups, key=str):
        recs = groups[key]
        row = {"group": key, "n": len(recs)}
        for metric in ("precision", "nfps", "recall", "froc", "t_recall", "r_recall"):
            vals = [getattr(r.report, metric) for r in recs]
            vals = [v for v in vals if v is not None]
            if not vals:
                row[f"{metric}_mean"] = None
                row[f"{metric}_std"] = None
            else:
                row[f"{metric}_mean"] = float(np.mean(vals))
                row[f"{metric}_std"] = float(np.std(vals)) if len(vals) > 1 else None
        rows.append(row)
    return rows


def write_summary_rows(path, rows):
    metrics_cols = []
    for metric in ("precision", "nfps", "recall", "froc", "t_recall", "r_recall"):
        metrics_cols += [f"{metric}_mean", f"{metric}_std"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["group", "n"] + metrics_cols)
        for row in rows:
            writer.writerow([row["group"], row["n"]] +
                            [_fmt(row[c]) for c in metrics_cols])


# ---------------------------------------------------------------------------
# Command implementations (the CLI wraps these).
# ---------------------------------------------------------------------------


def cmd_gen(cfg: ExperimentConfig, out_dir, force: bool = False):
    """Serialize the corpus and its manifest; refuses to overwrite without force."""
    out_dir.mkdir(parents=True, exist_ok=True)
    corpus_path = out_dir / "corpus.txt"
    manifest_path = out_dir / "corpus_manifest.json"
    if corpus_path.exists() and not force:
        raise FileExistsError(f"{corpus_path} exists; pass force to overwrite")
    scenes = generate_corpus(cfg.corpus.scene_spec, cfg.corpus.n_ap,
                             cfg.corpus.n_np, cfg.corpus.seed)
    save_corpus(corpus_path, scenes, cfg.corpus.scene_spec, cfg.corpus.seed,
                manifest_path=manifest_path)
    return corpus_path


def cmd_train(cfg: ExperimentConfig, out_dir, loss_name: str | None = None,
              eta: float | None = None):
    """Train one model, at fold 0 and the first seed, and export checkpoint,
    log, and histogram CSVs; the histograms are of the trained model over its
    training pool, at the harmonizer's bin count."""
    out_dir.mkdir(parents=True, exist_ok=True)
    loss_name = loss_name or cfg.losses[0]
    eta = cfg.eta if eta is None else eta
    record, model, log, pool = run_single(cfg, loss_name, eta, fold=0, seed=cfg.seeds[0],
                                          return_model=True)
    save_checkpoint(out_dir / "checkpoint.npz", model)
    hist2_path = out_dir / "gradient_hist_two_way.csv"
    hist3_path = out_dir / "gradient_hist_three_way.csv"
    two_way, three_way = pool_gradient_histograms(model, pool, cfg.harmonizer.bin_count)
    export_histograms_csv(hist2_path, Mode.DGHM, two_way)
    export_histograms_csv(hist3_path, Mode.DGHM_STAR, three_way)
    save_training_log_csv(out_dir / "training_log.csv", log,
                          histogram_ref=hist2_path.name)
    M.write_report(out_dir / "report.txt", record.report)
    return record


def cmd_compare_losses(cfg: ExperimentConfig, out_dir, jobs: int = 1):
    """Per-(loss, fold, seed) metric rows plus mean/std summary per loss."""
    out_dir.mkdir(parents=True, exist_ok=True)
    losses = list(cfg.losses)
    if cfg.include_dghm_star and "dghm_c_star" not in losses:
        losses.append("dghm_c_star")
    tasks = [(cfg, loss, cfg.eta, fold, seed)
             for loss in losses
             for fold in range(cfg.folds)
             for seed in cfg.seeds]
    records = run_many(tasks, jobs=jobs)
    write_run_rows(out_dir / "compare_runs.csv", records)
    rows = summarize(records, lambda r: r.loss)
    write_summary_rows(out_dir / "compare_summary.csv", rows)
    return records, rows


def _ablation_cells(cfg: ExperimentConfig):
    """(label, harmonizer) cells of the mu grid and of the lambda grid.

    Each cell is the base harmonizer in DGHM mode with only the varied fields changed.
    """
    base = cfg.harmonizer
    mu_cells = [(f"mu_n={mu_n:g},mu_c={mu_c:g}",
                 dataclasses.replace(base, mode=Mode.DGHM, mu_n=mu_n, mu_c=mu_c))
                for mu_n, mu_c in cfg.mu_grid]
    lam_cells = [(f"lambda={lam:g}",
                  dataclasses.replace(base, mode=Mode.DGHM, outlier_threshold=lam))
                 for lam in cfg.lambda_grid]
    return mu_cells, lam_cells


def _ablation_grid(cfg: ExperimentConfig, out_dir, name: str, cells, jobs: int):
    """Run dghm_c for each (label, harmonizer) cell and seed; write the grid's CSVs.

    The summary has one row per cell, in grid order.
    """
    tasks = [(cfg, "dghm_c", cfg.eta, 0, seed, h) for _, h in cells for seed in cfg.seeds]
    records = run_many(tasks, jobs=jobs)
    write_run_rows(out_dir / f"ablate_{name}_runs.csv", records)
    n = len(cfg.seeds)
    rows = [row for i, (label, _) in enumerate(cells)
            for row in summarize(records[i * n:(i + 1) * n], lambda r, lab=label: lab)]
    write_summary_rows(out_dir / f"ablate_{name}_summary.csv", rows)
    return records


def cmd_ablate(cfg: ExperimentConfig, out_dir, jobs: int = 1):
    """Two grids: (mu_n, mu_c) at fixed lambda, and lambda at fixed (mu_n, mu_c)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    mu_cells, lam_cells = _ablation_cells(cfg)
    mu_records = _ablation_grid(cfg, out_dir, "mu", mu_cells, jobs)
    lam_records = _ablation_grid(cfg, out_dir, "lambda", lam_cells, jobs)
    return mu_records, lam_records


def cmd_sweep_eta(cfg: ExperimentConfig, out_dir, jobs: int = 1):
    """Controlled annotation-drop sweep: rows per (loss, eta), seeds averaged."""
    out_dir.mkdir(parents=True, exist_ok=True)
    tasks = [(cfg, loss, eta, 0, seed)
             for loss in cfg.losses
             for eta in cfg.eta_grid
             for seed in cfg.seeds]
    records = run_many(tasks, jobs=jobs)
    write_run_rows(out_dir / "sweep_eta_runs.csv", records)
    rows = summarize(records, lambda r: f"{r.loss}@eta={r.eta:g}")
    write_summary_rows(out_dir / "sweep_eta_summary.csv", rows)
    return records, rows


def cmd_export_figures(run_dir, out_dir, harmonizer: HarmonizerConfig | None = None):
    """Curve CSVs re-evaluated from a completed run's stored histograms."""
    hist2_path = run_dir / "gradient_hist_two_way.csv"
    if not hist2_path.exists():
        raise FileNotFoundError(f"missing training artifact {hist2_path}")
    out_dir.mkdir(parents=True, exist_ok=True)
    _, hists2 = load_histograms_csv(hist2_path)
    harmonizer = harmonizer or HarmonizerConfig()
    curves = {}
    curves["ce"] = reformulated_gradient_curve(LossSpec(kind="ce"))
    curves["focal"] = reformulated_gradient_curve(LossSpec(kind="focal"))
    curves["ghm_c"] = reformulated_gradient_curve(LossSpec(kind="ghm_c"),
                                                  histograms=hists2.sum(axis=0))
    # rows of a two-way histogram set: code 0 is clean, code 1 noisy
    dghm_spec = LossSpec(kind="dghm_c", harmonizer=harmonizer)
    curves["dghm_c_clean"] = reformulated_gradient_curve(
        dghm_spec, histograms=hists2, partition=0)
    curves["dghm_c_noisy"] = reformulated_gradient_curve(
        dghm_spec, histograms=hists2, partition=1)
    export_curves_csv(out_dir / "reformulated_gradient_curves.csv", curves)
    hist3_path = run_dir / "gradient_hist_three_way.csv"
    if hist3_path.exists():
        shutil.copy(hist3_path, out_dir / "gradient_hist_three_way.csv")
    shutil.copy(hist2_path, out_dir / "gradient_hist_two_way.csv")
    return out_dir / "reformulated_gradient_curves.csv"
