"""Golden digests: the byte-compared CSVs must not change across code versions.

Criterion 9 compares two runs of the same code; these SHA-256 digests were
recorded once and pin the comparison, training-export and figure CSVs of a
tiny config, so a refactor that moves a single float or row shows here.
"""

import dataclasses
import hashlib
import logging

import numpy as np
import pytest

from dghm import experiments, harmonizer
from dghm.experiments import (
    CorpusConfig,
    ExperimentConfig,
    cmd_ablate,
    cmd_compare_losses,
    cmd_export_figures,
    cmd_gen,
    cmd_sweep_eta,
    cmd_train,
    read_run_rows,
)
from dghm.harmonizer import NOISY_ROWS, HarmonizerConfig, Mode, harmonize_weights
from dghm.losses import sigmoid
from dghm.metrics import _sweep_curves, decode_and_suppress, sweep_is_deep_enough
from dghm.model import forward
from dghm.simdata import (
    CorruptionSpec,
    SceneSpec,
    build_pool,
    corrupt_annotations,
    generate_corpus,
    load_corpus,
    save_corpus,
)


def golden_config(**overrides):
    """The criterion-9 shape, with every harmonized loss in the grid."""
    spec = SceneSpec(extent=(24.0, 24.0), objects_per_ap_scene=(1, 2),
                     feature_dim=4)
    defaults = dict(
        corpus=CorpusConfig(scene_spec=spec, n_ap=8, n_np=8),
        losses=("ce", "ghm_c", "dghm_c", "dghm_c_star"), folds=2, seeds=(0, 1),
        epochs=2, steps_per_epoch=5, batch_size=16)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


COMPARE = {
    "compare_runs.csv":
        "a5813aefab4afda54d572dd29d41934036ebd3d1ada8da5a6fc3d50143a7ffc7",
    "compare_summary.csv":
        "fcb0345e8fdf7b0c822ddfcb212b143ba2f51660e4db129e7dd12309db955468",
}

#: both ablation grids (default mu_grid and lambda_grid) of the golden config
ABLATE = {
    "ablate_mu_runs.csv":
        "f4cf41215225cd3eb22d7c1550e42c6a1021879cb091e3902af008dd60dc7176",
    "ablate_mu_summary.csv":
        "7028410456180c8df3740fdf13a53a720439714cc5a26155e0d611f418b4d4f0",
    "ablate_lambda_runs.csv":
        "41fdd8aa93da2bdb2e078305fda2c38aab4c3acc16e734cbb627c501b24639f6",
    "ablate_lambda_summary.csv":
        "cac064e915356f35638c4a4e4cb743b7e0918cbf72a1d0fc3fb33db0c1294607",
}

#: the eta sweep of ce and dghm_c over eta 0.2 and 0.7 on the golden config
SWEEP_ETA = {
    "sweep_eta_runs.csv":
        "77f692df44b5ee2e66472fc23b7531647f060e875ae11971ec443e48f4c9a54c",
    "sweep_eta_summary.csv":
        "fd592b6d3288f9378f81afb65cb03ed4aa65a593abcac4e7f33a6a220ec9529a",
}

#: harmonizer settings a training case runs under
HARMONIZERS = {
    "default": HarmonizerConfig(momentum=0.7),
    "partition": HarmonizerConfig(momentum=0.7, n_convention="partition"),
    "no_momentum": HarmonizerConfig(),
}

#: "<loss>/<harmonizer>" -> digests of the cmd_train exports
TRAIN = {
    "ghm_c/default": {
        "gradient_hist_two_way.csv":
            "8a89b65eeeeb20ad80f5aed3eed497d18424a9a3a30ea2621f67b769fbbb374d",
        "gradient_hist_three_way.csv":
            "92f9a8e1b5521aec49b4a1a51d5f90d96f373c103dd8b87e409d355e9a6e3162",
        "training_log.csv":
            "774cccec433b2407295b7936b47a6c79caaae731abe1b5de30263dc2f8b8688b",
    },
    "dghm_c/default": {
        "gradient_hist_two_way.csv":
            "e78996bd3014cfbae52d8e97ccb39afa20d261f469e43a7aba2d3a1612b6ade4",
        "gradient_hist_three_way.csv":
            "b5e1973e6c0a72f5581a5b4b1393d44d6ec169ede8dfaa0471a1f73dca9a960a",
        "training_log.csv":
            "2dba3e4b6da728a7582d3270035afea9c6e0b866fe93f47452943f1101dee9ea",
    },
    "dghm_c/no_momentum": {
        "gradient_hist_two_way.csv":
            "a38d6a02f9a6a576213399c90e582f0e50b47dd03d23726be843043daef947c4",
        "gradient_hist_three_way.csv":
            "4c0b44152c85d4bad242d3053dab955fa8ece1b64b7b89970319f1b3f3621c8c",
        "training_log.csv":
            "8da96dfb0005c69db5d02a79634de76bc780eeff55d298c6158b37a0c940b239",
    },
    "dghm_c_star/default": {
        "gradient_hist_two_way.csv":
            "df2eee56518a8ef0f4c67a025eee1c0aef8c315a77d9122364713f91d9efd961",
        "gradient_hist_three_way.csv":
            "c038830035b499cdcb738b078902759780fb76624dbacedce5e92853864379f4",
        "training_log.csv":
            "80a392f2c1579d4db0a9b8ff3ef3cb57a52cdddb15951dbf3ad9cd76b58c67d5",
    },
    "dghm_c_star/partition": {
        "gradient_hist_two_way.csv":
            "346135bfb32870feb5b8ec2f47bcf36eb4741cd7679e72fd2e105bb19d4579e9",
        "gradient_hist_three_way.csv":
            "4259ef2b04f1bee2f9c8f6233846b744a9bed0b4c366295770f912e17c7f5630",
        "training_log.csv":
            "f8094666563147950b4942a91131f2b95ad7f638643d73da4bb843d0c143b061",
    },
}

#: every AnchorPool column (name, dtype, shape, bytes) of a small pool at eta > 0
POOL = "846e2270a1d581fba25e332495c9751ad2d25390958984c2a50d7f7b10591f5f"

#: cmd_train of dghm_c on corpus seed 1, whose fold-0 training pool fills the
#: positive quota at eta = 0.7, so every batch is a full 1:3 batch
FULL_BATCH = {
    "gradient_hist_two_way.csv":
        "0356993d6522adc9df3b004d98fe88d68ea1aacb3707a2b79ecfe04dc9d1c02e",
    "gradient_hist_three_way.csv":
        "452a5751f01eddc64ed40c5e62a1f3ede80e6d5ec83bd85445880a390f5298ac",
    "training_log.csv":
        "38a743226b7d2aa7f3893112f21ca26a60d95c7a7cdf58aac8ddf41ca33e3cac",
    "checkpoint.npz":
        "fd65f930cb9ded7cc69bb6d903887fdf823ce99e7151ac312e27af7710e51fc3",
}

CURVES = (
    "4358ed2f4c8e45040cc1b946d0e5c5fa264ff40374c06ac3bb0a67b544250bc5")

#: cmd_gen of the default config
CORPUS = {
    "corpus.txt":
        "d33506bc5039645d4979587b8e38a6f78cde62d5d03a97e64e4af119c64a0b31",
    "corpus_manifest.json":
        "d2d5be2d179362dd81fe42af1eec862835752c41589982cf4093943b1a3eafeb",
}


def test_compare_csvs_match_golden(tmp_path):
    cmd_compare_losses(golden_config(), tmp_path)
    assert {name: digest(tmp_path / name) for name in COMPARE} == COMPARE


def test_corpus_files_match_golden(tmp_path):
    cfg = ExperimentConfig()
    cmd_gen(cfg, tmp_path)
    assert {name: digest(tmp_path / name) for name in CORPUS} == CORPUS
    # a loaded corpus writes back the same bytes
    save_corpus(tmp_path / "again.txt", load_corpus(tmp_path / "corpus.txt"),
                cfg.corpus.scene_spec, cfg.corpus.seed)
    assert digest(tmp_path / "again.txt") == CORPUS["corpus.txt"]


def test_ablate_csvs_match_golden(tmp_path):
    cmd_ablate(golden_config(), tmp_path)
    assert {name: digest(tmp_path / name) for name in ABLATE} == ABLATE


def test_grids_in_two_processes_match_golden(tmp_path):
    # jobs=2 runs the tasks in a process pool; the rows keep task order
    cmd_compare_losses(golden_config(), tmp_path, jobs=2)
    cmd_ablate(golden_config(), tmp_path, jobs=2)
    expected = COMPARE | ABLATE
    assert {name: digest(tmp_path / name) for name in expected} == expected


def test_sweep_eta_csvs_match_golden(tmp_path):
    cmd_sweep_eta(golden_config(losses=("ce", "dghm_c"), eta_grid=(0.2, 0.7)), tmp_path)
    assert {name: digest(tmp_path / name) for name in SWEEP_ETA} == SWEEP_ETA


def test_ablation_cells_reach_the_harmonizer(tmp_path, monkeypatch):
    # The golden config never reaches g >= lambda, so its cells give equal rows.
    # Here lambda = 0.3 makes outliers in every cell's batches; corpus seed 1
    # fills the positive quota at eta = 0.7, so the sampler takes no fallback.
    base = HarmonizerConfig(momentum=0.7, outlier_threshold=0.3)
    cfg = golden_config(corpus=dataclasses.replace(golden_config().corpus, seed=1),
                        harmonizer=base, lambda_grid=(0.3, 0.9), seeds=(0,))
    batches = []

    def recorded(*args, **kwargs):
        batches.append(harmonize_weights(*args, **kwargs))
        return batches[-1]

    monkeypatch.setattr(harmonizer, "harmonize_weights", recorded)
    cmd_ablate(cfg, tmp_path)

    def gamma(batch, mu_n, mu_c, lam):
        noisy = NOISY_ROWS[Mode.DGHM][batch.codes]
        return np.where(batch.g >= lam, np.where(noisy, mu_n, mu_c), 1.0)

    # cells run in grid order, one training step per harmonize_weights call
    cells = [(mu_n, mu_c, base.outlier_threshold) for mu_n, mu_c in cfg.mu_grid]
    cells += [(base.mu_n, base.mu_c, lam) for lam in cfg.lambda_grid]
    steps = cfg.epochs * cfg.steps_per_epoch
    assert len(batches) == len(cells) * steps
    base_cell = (base.mu_n, base.mu_c, base.outlier_threshold)
    for i, cell in enumerate(cells):
        cell_batches = batches[i * steps:(i + 1) * steps]
        for batch in cell_batches:
            np.testing.assert_array_equal(batch.gamma_applied, gamma(batch, *cell))
        varies = any(not np.array_equal(gamma(b, *cell), gamma(b, *base_cell))
                     for b in cell_batches)
        assert varies == (cell != base_cell), cell
    for name, grid in (("mu", cfg.mu_grid), ("lambda", cfg.lambda_grid)):
        rows = read_run_rows(tmp_path / f"ablate_{name}_runs.csv")
        assert len({tuple(row.values()) for row in rows}) == len(grid)


@pytest.mark.parametrize("case", sorted(TRAIN))
def test_train_exports_match_golden(tmp_path, case):
    loss, harmonizer = case.split("/")
    cmd_train(golden_config(harmonizer=HARMONIZERS[harmonizer]), tmp_path,
              loss_name=loss)
    assert {name: digest(tmp_path / name) for name in TRAIN[case]} == TRAIN[case]


def checkpoint_digest(path) -> str:
    """SHA-256 over name, dtype, shape and bytes of each w{i}/b{i} array."""
    h = hashlib.sha256()
    with np.load(path) as data:
        n_layers = sum(name.startswith("w") for name in data.files)
        for name in (f"{kind}{i}" for i in range(n_layers) for kind in "wb"):
            arr = data[name]
            h.update(f"{name} {arr.dtype} {arr.shape}".encode())
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def test_full_batch_train_exports_match_golden(tmp_path, caplog):
    cfg = golden_config(corpus=dataclasses.replace(golden_config().corpus, seed=1),
                        harmonizer=HARMONIZERS["default"])
    with caplog.at_level(logging.WARNING, logger="dghm.simdata"):
        cmd_train(cfg, tmp_path, loss_name="dghm_c")
    assert not caplog.records  # no sampler fallback
    got = {name: digest(tmp_path / name) for name in FULL_BATCH if name.endswith(".csv")}
    got["checkpoint.npz"] = checkpoint_digest(tmp_path / "checkpoint.npz")
    assert got == FULL_BATCH


def test_figure_curves_match_golden(tmp_path):
    cmd_train(golden_config(), tmp_path / "run", loss_name="dghm_c")
    out = cmd_export_figures(tmp_path / "run", tmp_path / "figs")
    assert digest(out) == CURVES


def test_anchor_pool_matches_golden():
    spec = SceneSpec(extent=(24.0, 24.0), objects_per_ap_scene=(1, 3), feature_dim=4)
    scenes = generate_corpus(spec, 4, 2, seed=3)
    corrupted, k = corrupt_annotations(scenes, CorruptionSpec(eta=0.5, seed=1))
    pool = build_pool(corrupted, spec, corpus_seed=3)
    assert k  # some anchors must carry a noisy label
    h = hashlib.sha256()
    for f in dataclasses.fields(pool):
        col = getattr(pool, f.name)
        h.update(f"{f.name} {col.dtype} {col.shape}".encode())
        h.update(np.ascontiguousarray(col).tobytes())
    assert h.hexdigest() == POOL


def test_run_single_builds_one_pool_per_scene_set(monkeypatch):
    # the training scenes' pool serves both training and their T-/R-recall
    calls = []

    def counted_build_pool(*args, **kwargs):
        calls.append(None)
        return build_pool(*args, **kwargs)

    monkeypatch.setattr(experiments, "build_pool", counted_build_pool)
    experiments.run_single(golden_config(), "ce", 0.7, fold=0, seed=0)
    assert len(calls) == 2


@pytest.mark.parametrize("loss", golden_config().losses)
def test_training_pool_is_suppressed_only_at_the_threshold(monkeypatch, loss):
    # T/R-recall reads the training detections at score >= threshold only, so
    # only those rows reach NMS; the test fold's sweeps read down to where
    # its stop rule holds, so it is suppressed in score floors
    calls = []

    def counted(anchor_boxes, scene_ids, scores, offsets):
        calls.append((scores, decode_and_suppress(anchor_boxes, scene_ids, scores, offsets)))
        return calls[-1][1]

    monkeypatch.setattr(experiments.M, "decode_and_suppress", counted)
    cfg = golden_config()
    record, model, _, pool = experiments.run_single(cfg, loss, cfg.eta, fold=0, seed=0,
                                                    return_model=True)
    scenes = generate_corpus(cfg.corpus.scene_spec, cfg.corpus.n_ap, cfg.corpus.n_np,
                             cfg.corpus.seed)
    test_ids = experiments.kfold_split(scenes, cfg.folds, cfg.corpus.seed)[0]
    test_scenes = [s for s in scenes if s.scene_id in test_ids]
    test_pool = build_pool(test_scenes, cfg.corpus.scene_spec, cfg.corpus.seed)
    test_scores = sigmoid(forward(model, test_pool.features)[0])
    *test_calls, (train_call, _) = calls
    for kept, _ in test_calls:  # the test pool's rows at or above a score floor
        assert kept.size == np.count_nonzero(test_scores >= kept.min())
    gt_by_scene = {s.scene_id: s.gt_boxes for s in test_scenes if s.is_abnormal}
    np_ids = [s.scene_id for s in test_scenes if not s.is_abnormal]
    curves = _sweep_curves(test_calls[-1][1], gt_by_scene, np_ids)
    assert test_calls[-1][0].size == test_pool.size or sweep_is_deep_enough(
        curves, sum(map(len, gt_by_scene.values())), len(np_ids))
    scores = sigmoid(forward(model, pool.features)[0])
    above = int(np.count_nonzero(scores >= record.report.threshold))
    assert train_call.size == above
    assert 0 < above < pool.size
