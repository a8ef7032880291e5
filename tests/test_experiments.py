"""Experiment-runner tests: folds, config schema, determinism, CSV plumbing.

Grid commands are exercised on a deliberately tiny corpus/config so the whole
file stays fast; the full-scale trend checks live in the acceptance tests.
"""

import contextlib
import csv
import dataclasses
import json
import os
import subprocess
import sys
import textwrap
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dghm.experiments import (
    CorpusConfig,
    ExperimentConfig,
    RunRecord,
    Task,
    cmd_ablate,
    cmd_compare_losses,
    cmd_export_figures,
    cmd_gen,
    cmd_sweep_eta,
    cmd_train,
    config_from_dict,
    config_to_dict,
    kfold_split,
    predict_scenes,
    read_run_rows,
    run_single,
    summarize,
    write_run_rows,
)
from dghm import experiments, metrics
from dghm import model as model_module
from dghm.harmonizer import (
    HarmonizerConfig,
    LossSpec,
    load_histograms_csv,
    reformulated_gradient_curve,
)
from dghm.losses import sigmoid
from dghm.metrics import NMS_IOU, MetricsReport, decode_and_suppress
from dghm.model import Predictor, pool_gradient_histograms
from dghm.simdata import (
    AnchorPool,
    CorruptionSpec,
    SceneSpec,
    build_pool,
    corrupt_annotations,
    generate_corpus,
    iou_matrix,
)

TINY_SPEC = SceneSpec(extent=(24.0, 24.0), objects_per_ap_scene=(1, 2),
                      object_size=(6.0, 8.0), anchor_stride=4.0,
                      anchor_sizes=(7.0,), feature_dim=4)


def tiny_config(**overrides):
    defaults = dict(
        corpus=CorpusConfig(scene_spec=TINY_SPEC, n_ap=8, n_np=8, seed=5),
        losses=("ce", "dghm_c"),
        eta=0.5,
        eta_grid=(0.0, 0.5),
        mu_grid=((1.0, 1.0), (2.0, 0.5)),
        lambda_grid=(0.9,),
        folds=2,
        seeds=(0,),
        epochs=2,
        batch_size=16,
        steps_per_epoch=5,
        learning_rate=1e-3,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


# ---------------------------------------------------------------------------
# k-fold splitting
# ---------------------------------------------------------------------------


def test_kfold_stratified():
    scenes = generate_corpus(TINY_SPEC, 10, 10, seed=1)
    folds = kfold_split(scenes, 5, seed=1)
    ap_ids = {s.scene_id for s in scenes if s.is_abnormal}
    for fold in folds:
        assert sum(1 for sid in fold if sid in ap_ids) == 2
        assert sum(1 for sid in fold if sid not in ap_ids) == 2


def test_kfold_partition_property():
    scenes = generate_corpus(TINY_SPEC, 7, 9, seed=2)
    folds = kfold_split(scenes, 4, seed=3)
    flat = [sid for fold in folds for sid in fold]
    assert sorted(flat) == [s.scene_id for s in scenes]


def test_kfold_leave_one_out():
    scenes = generate_corpus(TINY_SPEC, 2, 2, seed=2)
    folds = kfold_split(scenes, 4, seed=0)
    assert all(len(f) == 1 for f in folds)


def test_kfold_validation():
    scenes = generate_corpus(TINY_SPEC, 2, 2, seed=2)
    with pytest.raises(ValueError):
        kfold_split(scenes, 1, seed=0)
    with pytest.raises(ValueError):
        kfold_split(scenes, 5, seed=0)


def test_kfold_deterministic():
    scenes = generate_corpus(TINY_SPEC, 8, 8, seed=4)
    assert kfold_split(scenes, 4, seed=7) == kfold_split(scenes, 4, seed=7)


# ---------------------------------------------------------------------------
# config round-trip / schema validation
# ---------------------------------------------------------------------------


class Py(dict):
    """``dataclasses.replace`` arguments: a case built in Python, not loaded from JSON."""


def load(d):
    """The config of a JSON dict by ``config_from_dict``, or of a Py case by
    ``dataclasses.replace`` of the defaults: either way it checks itself."""
    if isinstance(d, Py):
        return dataclasses.replace(ExperimentConfig(), **d)
    return config_from_dict(ExperimentConfig, d)


def test_config_dict_round_trip():
    cfg = tiny_config()
    d = config_to_dict(cfg)
    json.dumps(d)  # must be JSON-serializable
    assert config_from_dict(ExperimentConfig, d) == cfg


def test_config_hash_stable_and_sensitive():
    assert tiny_config().config_hash() == tiny_config().config_hash()
    assert tiny_config().config_hash() != tiny_config(eta=0.7).config_hash()


def test_validate_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        load({"bogus_knob": 1})


def test_validate_rejects_unknown_nested_keys():
    d = {"corpus": {"scene_spec": {"feature_dimm": 8}}}
    with pytest.raises(ValueError, match=r"unknown config keys: \['corpus\.scene_spec\.feature_dimm'\]"):
        load(d)
    with pytest.raises(ValueError, match="harmonizer.bin_cnt"):
        load({"harmonizer": {"bin_cnt": 10}})


@pytest.mark.parametrize("d, key", [
    ({"epochs": 2.5}, "epochs"),
    ({"batch_size": 16.5}, "batch_size"),
    ({"harmonizer": {"bin_count": 10.0}}, "harmonizer.bin_count"),
    ({"corpus": {"n_ap": 8.0}}, "corpus.n_ap"),
    ({"folds": True}, "folds"),
    ({"eta": True}, "eta"),
    ({"corpus": {"scene_spec": {"noise_level": "0.4"}}}, "corpus.scene_spec.noise_level"),
], ids=["epochs", "batch_size", "bin_count", "n_ap", "bool_int", "bool_float", "str_float"])
def test_validate_rejects_wrong_scalar_types(d, key):
    with pytest.raises(ValueError, match=f"^{key} must be "):
        load(d)


@pytest.mark.parametrize("d, message", [
    ({"corpus": 5}, "corpus must be a JSON object"),
    ({"losses": "ce"}, "losses must be a list"),
    ({"corpus": {"scene_spec": {"extent": 64.0}}}, "corpus.scene_spec.extent must be a list"),
])
def test_validate_rejects_wrong_containers(d, message):
    with pytest.raises(ValueError, match=message):
        load(d)


@pytest.mark.parametrize("d, message", [
    ({"hidden": [32.5]}, r"^hidden\[0\] must be int, got 32.5"),
    ({"corpus": {"scene_spec": {"objects_per_ap_scene": [2.5, 6]}}},
     r"^corpus\.scene_spec\.objects_per_ap_scene\[0\] must be int"),
    ({"losses": ["ce", 5]}, r"^losses\[1\] must be str"),
    ({"eta_grid": [0.2, True]}, r"^eta_grid\[1\] must be float"),
    ({"mu_grid": [[1.0, 1.0], [2.0]]}, r"^mu_grid\[1\] must have 2 elements"),
    ({"mu_grid": [[1.0, "2"]]}, r"^mu_grid\[0\]\[1\] must be float"),
    ({"corpus": {"scene_spec": {"extent": [64.0, 64.0, 1.0]}}},
     r"^corpus\.scene_spec\.extent must have 2 elements"),
], ids=["hidden", "object_count", "loss_name", "eta_grid_bool", "mu_pair_length",
        "mu_str", "extent_length"])
def test_validate_rejects_wrong_tuple_elements(d, message):
    with pytest.raises(ValueError, match=message):
        load(d)


def test_float_positions_store_ints_as_floats():
    as_ints = load({"eta": 1, "mu_grid": [[1, 2]], "eta_grid": [0, 1],
                    "corpus": {"scene_spec": {"extent": [64, 64]}}})
    as_floats = load({"eta": 1.0, "mu_grid": [[1.0, 2.0]], "eta_grid": [0.0, 1.0],
                      "corpus": {"scene_spec": {"extent": [64.0, 64.0]}}})
    assert as_ints.config_hash() == as_floats.config_hash()
    assert type(as_ints.eta) is float and type(as_ints.mu_grid[0][0]) is float
    assert as_ints.corpus.scene_spec.extent == (64.0, 64.0)
    assert type(as_ints.corpus.scene_spec.objects_per_ap_scene[0]) is int


def test_default_config_hash_survives_the_dict_round_trip():
    cfg = ExperimentConfig()
    assert cfg.config_hash() == "d383204e89746613"
    loaded = load(json.loads(json.dumps(config_to_dict(cfg))))
    assert loaded.config_hash() == cfg.config_hash()


def test_float_positions_hash_alike_however_the_config_was_built():
    assert ExperimentConfig(eta=1).config_hash() == "0ed531ca5b920e6c"
    assert ExperimentConfig(eta=1.0).config_hash() == "0ed531ca5b920e6c"
    as_ints = ExperimentConfig(
        mu_grid=((1, 1), (2, 1), (1, 0.5), (0.5, 2), (2, 0.5)),
        corpus=CorpusConfig(scene_spec=SceneSpec(extent=(64, 64), anchor_sizes=(12,))))
    assert config_to_dict(as_ints) == config_to_dict(ExperimentConfig())
    assert as_ints.config_hash() == ExperimentConfig().config_hash() == "d383204e89746613"
    # a variadic tuple is written whole, each element as its hint says
    sizes = config_to_dict(SceneSpec(anchor_sizes=(12, 7, 5.5)))["anchor_sizes"]
    assert sizes == [12.0, 7.0, 5.5] and all(type(size) is float for size in sizes)


def test_numpy_integers_hash_as_ints():
    # the checks accept numpy integers, so the hash must write them
    assert ExperimentConfig(epochs=np.int64(2)).config_hash() == \
        ExperimentConfig(epochs=2).config_hash()
    assert ExperimentConfig(eta=np.int64(1)).config_hash() == "0ed531ca5b920e6c"
    assert config_to_dict(ExperimentConfig(hidden=(np.int32(32),))) == \
        config_to_dict(ExperimentConfig())
    assert ExperimentConfig().config_hash() == "d383204e89746613"


def test_validate_rejects_duplicate_seeds():
    for d in ({"seeds": [1, 1]}, Py(seeds=(1, 1)), Py(seeds=())):
        with pytest.raises(ValueError, match="seeds"):
            load(d)


@pytest.mark.parametrize("d, key", [
    ({"losses": ["ce", "ce"]}, "losses"),
    ({"eta_grid": [0.5, 0.5]}, "eta_grid"),
    ({"eta_grid": [0.2, 0.2000001]}, "eta_grid"),
    ({"eta_grid": [0.0, -0.0]}, "eta_grid"),
    ({"mu_grid": [[1, 2], [1.0, 2.0]]}, "mu_grid"),
    ({"mu_grid": [[1, 2], [1.0000001, 2]]}, "mu_grid"),
    ({"lambda_grid": [0.8, 0.8]}, "lambda_grid"),
    ({"lambda_grid": [0.8, 0.8000001]}, "lambda_grid"),
    (Py(losses=("ce", "ce")), "losses"),
    (Py(mu_grid=((1, 2), (1.0, 2.0))), "mu_grid"),
    (Py(lambda_grid=(0.8, 0.8000001)), "lambda_grid"),
], ids=["losses", "eta_grid", "eta_labels", "eta_signed_zero", "mu_grid", "mu_labels",
        "lambda_grid", "lambda_labels", "python_losses", "python_mu_grid",
        "python_lambda_labels"])
def test_validate_rejects_grids_whose_summary_rows_would_merge(d, key):
    # a repeated entry runs twice, and two whose :g labels collide share a summary row
    with pytest.raises(ValueError, match=key):
        load(d)


def test_validate_rejects_empty_losses():
    for d in ({"losses": []}, Py(losses=())):
        with pytest.raises(ValueError, match="losses"):
            load(d)


def test_validate_accepts_defaults():
    cfg = load({})
    assert cfg == ExperimentConfig()
    # a nested object keeps its field's default, momentum 0.7, for the keys it leaves out
    assert load({"harmonizer": {"bin_count": 20}}) == dataclasses.replace(
        cfg, harmonizer=dataclasses.replace(cfg.harmonizer, bin_count=20))


@pytest.mark.parametrize("d, message", [
    ({"eta": 1.5}, "eta"),
    ({"eta_grid": [0.2, -0.1]}, "eta"),
    ({"folds": 1}, "fold count"),
    ({"folds": 500}, "fold count"),
    ({"learning_rate": -1}, "learning rate"),
    ({"lambda_grid": [1.5]}, "outlier_threshold"),
    ({"mu_grid": [[0, 1]]}, "mu_n and mu_c"),
    ({"corpus": {"seed": -1}}, "non-negative"),
    ({"seeds": [-1, 0]}, "non-negative"),
    ({"seeds": [1.5]}, "int"),
    ({"losses": ["ce", "bogus"]}, "unknown loss kind 'bogus'"),
    ({"epochs": -1}, "^epochs must be >= 0"),
    ({"steps_per_epoch": 0}, "^steps_per_epoch must be >= 1"),
    ({"steps_per_epoch": -1}, "^steps_per_epoch must be >= 1"),
    ({"batch_size": 0}, "^batch_size must be >= 1"),
    ({"batch_size": -4}, "^batch_size must be >= 1"),
    (Py(eta=2.0), "eta"),
    (Py(eta_grid=(0.2, -0.1)), "eta"),
    (Py(folds=1), "fold count"),
    (Py(learning_rate=0.0), "learning rate"),
    (Py(lambda_grid=(1.5,)), "outlier_threshold"),
    (Py(mu_grid=((0.0, 1.0),)), "mu_n and mu_c"),
    (Py(seeds=(-1,)), "non-negative"),
    (Py(losses=("bogus",)), "unknown loss kind 'bogus'"),
    (Py(epochs=-1), "^epochs must be >= 0"),
    (Py(batch_size=0), "^batch_size must be >= 1"),
    (Py(seeds=(1.5,)), r"^seeds\[0\] must be int, got 1.5"),
    (Py(epochs=2.5), "^epochs must be int, got 2.5"),
    (Py(batch_size=16.0), "^batch_size must be int, got 16.0"),
    (Py(hidden=(8.0,)), r"^hidden\[0\] must be int, got 8.0"),
    (Py(steps_per_epoch=True), "^steps_per_epoch must be int, got True"),
    (Py(mu_grid=((1.0,),)), "^mu_grid entries must be pairs"),
    (Py(seeds=("a", 1)), r"^seeds\[0\] must be int, got 'a'"),
    (Py(mu_grid=(1.0,)), "^mu_grid entries must be pairs"),
], ids=["eta", "eta_grid", "one_fold", "more_folds_than_scenes", "learning_rate",
        "lambda_grid", "mu_grid", "corpus_seed", "run_seed", "float_seed", "unknown_loss",
        "negative_epochs", "no_steps", "negative_steps", "empty_batch", "negative_batch",
        "python_eta", "python_eta_grid", "python_one_fold", "python_learning_rate",
        "python_lambda_grid", "python_mu_grid", "python_run_seed", "python_unknown_loss",
        "python_negative_epochs", "python_empty_batch", "python_float_seed",
        "python_float_epochs", "python_float_batch", "python_float_hidden_width",
        "python_bool_steps", "python_mu_entry_not_a_pair", "python_str_seed",
        "python_mu_entry_a_scalar"])
def test_validate_rejects_values_every_run_rejects(d, message):
    with pytest.raises(ValueError, match=message):
        load(d)


def test_validate_accepts_range_edges():
    n = ExperimentConfig().corpus.n_ap + ExperimentConfig().corpus.n_np
    load({"eta": 1.0, "eta_grid": [0.0, 1.0], "folds": n})
    load({"folds": 2})


def _pairs(elements, ordered=False):
    pairs = st.lists(elements, min_size=2, max_size=2)
    return pairs.map(sorted) if ordered else pairs


# Toy sizes: at most 4 + 4 scenes of at most 12 x 12 anchors per size, and 6
# steps.  Each field spans the values a run accepts, to their edges, and some
# reach a little past them.
_SCENE_SPECS = st.fixed_dictionaries({
    "extent": _pairs(st.floats(6.0, 24.0)),
    "objects_per_ap_scene": _pairs(st.integers(0, 3), ordered=True),
    "object_size": _pairs(st.floats(0.5, 8.0), ordered=True),
    "anchor_stride": st.floats(2.0, 8.0),
}, optional={
    "anchor_sizes": st.lists(st.floats(0.5, 12.0), min_size=1, max_size=2),
    "feature_dim": st.integers(2, 6),
    "noise_level": st.floats(-0.1, 1.0),
    "hard_fraction": st.floats(0.0, 1.0),
    "hard_attenuation": _pairs(st.floats(0.0, 1.0), ordered=True),
    "signal_gain": st.floats(-2.0, 2.0),
    "secondary_gain": st.floats(-2.0, 2.0),
    "signal_background": st.floats(-1.0, 1.0),
})
_HARMONIZERS = st.fixed_dictionaries({}, optional={
    "mode": st.sampled_from(["GHM", "DGHM", "DGHM_STAR"]),
    "bin_count": st.integers(0, 12),
    "mu_n": st.floats(0.0, 3.0),
    "mu_c": st.floats(0.0, 3.0),
    "outlier_threshold": st.floats(0.0, 1.0),
    "n_convention": st.sampled_from(["total", "partition"]),
    "momentum": st.floats(0.0, 1.0),
})
_CONFIG_DICTS = st.fixed_dictionaries({
    "corpus": st.fixed_dictionaries(
        {"scene_spec": _SCENE_SPECS, "n_ap": st.integers(0, 4), "n_np": st.integers(0, 4)},
        optional={"seed": st.integers(-1, 3)}),
    "losses": st.lists(st.sampled_from(LossSpec.KINDS), min_size=1, max_size=2),
    "folds": st.integers(2, 4),
    "seeds": st.lists(st.integers(0, 3), min_size=1, max_size=2),
    "epochs": st.integers(0, 2),
    "steps_per_epoch": st.integers(1, 3),
    "batch_size": st.integers(1, 16),
}, optional={
    "eta": st.floats(0.0, 1.0),
    "eta_grid": st.lists(st.floats(-0.1, 1.0), max_size=3),
    "mu_grid": st.lists(_pairs(st.floats(0.0, 3.0)), max_size=2),
    "lambda_grid": st.lists(st.floats(0.0, 1.1), max_size=2),
    "harmonizer": _HARMONIZERS,
    "learning_rate": st.floats(0.0, 1.0),
    "hidden": st.lists(st.integers(1, 8), max_size=2),
    "reg_weight": st.floats(-0.1, 2.0),
    "include_dghm_star": st.booleans(),
})


@settings(max_examples=100, deadline=None, derandomize=True)
@given(d=_CONFIG_DICTS)
def test_a_config_that_loads_runs_each_of_its_losses(d):
    try:
        cfg = config_from_dict(ExperimentConfig, d)
    except ValueError:
        return
    for loss in cfg.losses:
        with contextlib.suppress(model_module.TrainingDiverged):
            run_single(cfg, loss, cfg.eta, fold=0, seed=cfg.seeds[0])


# ---------------------------------------------------------------------------
# run records and CSV plumbing
# ---------------------------------------------------------------------------


def fake_record(loss, seed, froc, r_recall=0.5, config_hash="abc"):
    return RunRecord(Task(ExperimentConfig(), loss, 0.7, 0, seed), config_hash,
                     MetricsReport(recall=0.5, precision=0.4, nfps=99.0, froc=froc,
                                   t_recall=0.6, r_recall=r_recall, threshold=0.5))


def test_summary_mean_matches_recomputation():
    records = [fake_record("ce", s, froc=0.4 + 0.01 * s) for s in range(5)]
    rows = summarize({"ce": records})
    assert rows[0]["froc_mean"] == pytest.approx(np.mean([0.4 + 0.01 * s
                                                          for s in range(5)]))
    assert rows[0]["froc_std"] == pytest.approx(np.std([0.4 + 0.01 * s
                                                        for s in range(5)]))
    assert rows[0]["n"] == 5


def test_summary_single_run_has_no_std():
    rows = summarize({"ce": [fake_record("ce", 0, froc=0.4)]})
    assert rows[0]["froc_std"] is None


def test_summary_rejects_mixed_configs():
    records = [fake_record("ce", 0, 0.4, config_hash="a"),
               fake_record("ce", 1, 0.4, config_hash="b")]
    with pytest.raises(ValueError, match="mixed configs"):
        summarize({"ce": records})


def test_run_rows_round_trip(tmp_path):
    records = [fake_record("ce", 0, 0.4), fake_record("dghm_c", 1, 0.5,
                                                      r_recall=None)]
    path = tmp_path / "runs.csv"
    write_run_rows(path, records)
    rows = read_run_rows(path)
    assert rows[0]["loss"] == "ce"
    assert float(rows[0]["froc"]) == 0.4
    assert rows[1]["r_recall"] == "undefined"


# ---------------------------------------------------------------------------
# single runs and commands
# ---------------------------------------------------------------------------


def test_run_single_deterministic():
    cfg = tiny_config()
    a = run_single(cfg, "ce", 0.5, fold=0, seed=0)
    b = run_single(cfg, "ce", 0.5, fold=0, seed=0)
    assert a.report == b.report
    assert a.config_hash == b.config_hash


def forward_events_of_a_run(monkeypatch, forward_rows):
    """The pool builds and forwards of one run_single, in order, as ("build",
    pool size) and ("forward", rows) with FORWARD_ROWS at forward_rows, and
    the run's step count."""
    cfg = tiny_config()
    real_forward, real_build = model_module.forward, experiments.build_pool
    events = []

    def counted_forward(model, features, outs=None):
        events.append(("forward", len(features)))
        return real_forward(model, features, outs)

    def recorded_build(*args):
        pool = real_build(*args)
        events.append(("build", pool.size))
        return pool

    monkeypatch.setattr(model_module, "forward", counted_forward)
    monkeypatch.setattr(model_module, "FORWARD_ROWS", forward_rows)
    monkeypatch.setattr(experiments, "build_pool", recorded_build)
    record = run_single(cfg, "dghm_c", 0.5, fold=0, seed=0)
    assert "no_detections" not in record.report.flags
    return events, cfg.epochs * cfg.steps_per_epoch


def test_a_run_forwards_each_pool_once_after_training(monkeypatch):
    # the training pool's build, one forward per step, then the training
    # pool's forward (for predict_scenes) before the test fold's pool is
    # built and forwarded, each pool by forward_pool: here in one block each
    events, steps = forward_events_of_a_run(monkeypatch, model_module.FORWARD_ROWS)
    (first, train_size), *rest = events
    assert first == "build"
    assert all(kind == "forward" for kind, _ in rest[:steps])
    assert rest[steps:] == [("forward", train_size), ("build", 288), ("forward", 288)]
    assert train_size == 288


def test_a_run_forwards_each_pool_once_in_row_blocks(monkeypatch):
    # at 64 rows a block, each 288-row pool is forwarded in five blocks
    events, steps = forward_events_of_a_run(monkeypatch, 64)
    pool_sizes = [n for kind, n in events if kind == "build"]
    blocks = [n for kind, n in events[1 + steps:] if kind == "forward"]
    assert sum(blocks) == sum(pool_sizes) and pool_sizes == [288, 288]
    assert len(blocks) == 10 and max(blocks) <= 64
    # the training pool's five blocks come before the test pool's build
    assert [kind for kind, _ in events[1 + steps:]] == ["forward"] * 5 + ["build"] + ["forward"] * 5


@pytest.mark.parametrize("return_model", [False, True])
def test_a_run_holds_one_scene_sets_pool_at_a_time(monkeypatch, return_model):
    # the training pool is dead when the test fold's first build starts,
    # unless the run returns it
    real_build = experiments.build_pool
    refs, alive = [], []

    def recorded_build(*args):
        alive.append([ref() is not None for ref in refs])
        pool = real_build(*args)
        refs.append(weakref.ref(pool))
        return pool

    monkeypatch.setattr(experiments, "build_pool", recorded_build)
    result = run_single(tiny_config(), "ce", 0.5, fold=0, seed=0, return_model=return_model)
    assert alive == [[], [return_model]]
    if return_model:
        assert result[3] is refs[0]()


def test_a_returned_training_pool_equals_a_fresh_build():
    cfg = tiny_config()
    _, _, _, pool = run_single(cfg, "ce", cfg.eta, fold=0, seed=0, return_model=True)
    corrupted, _ = corrupt_annotations(fold_zero(cfg)[0], CorruptionSpec(eta=cfg.eta, seed=0))
    assert_pools_equal(pool, build_pool(corrupted, cfg.corpus.scene_spec, cfg.corpus.seed))


def assert_pools_equal(got, want):
    for f in dataclasses.fields(AnchorPool):
        have, expect = getattr(got, f.name), getattr(want, f.name)
        assert (have.dtype, have.shape) == (expect.dtype, expect.shape), f.name
        assert have.tobytes() == expect.tobytes(), f.name


#: the eval_heavy shape: the default corpus in 2 folds, 120 training steps
EVAL_HEAVY = ExperimentConfig(folds=2, epochs=2, steps_per_epoch=60)


def fold_zero(cfg):
    """(training scenes, test scenes) of cfg's corpus at fold 0."""
    scenes = generate_corpus(cfg.corpus.scene_spec, cfg.corpus.n_ap, cfg.corpus.n_np,
                             cfg.corpus.seed)
    test_ids = set(kfold_split(scenes, cfg.folds, cfg.corpus.seed)[0])
    return ([s for s in scenes if s.scene_id not in test_ids],
            [s for s in scenes if s.scene_id in test_ids])


def test_scene_groups_never_hold_one_anchor_unless_all_do(monkeypatch):
    # one anchor per scene: groups of at most 3 would leave the seventh
    # scene alone, so it joins the group before it
    spec = SceneSpec(extent=(4.0, 4.0), objects_per_ap_scene=(1, 1), object_size=(3.0, 3.0),
                     anchor_sizes=(4.0,), feature_dim=2)
    scenes = generate_corpus(spec, 4, 3, seed=0)
    monkeypatch.setattr(experiments, "_CHUNK", 3)
    groups = experiments._scene_groups(scenes, spec)
    assert [len(g) for g in groups] == [3, 4]
    assert [s for g in groups for s in g] == scenes
    assert [len(g) for g in experiments._scene_groups(scenes[:1], spec)] == [1]
    # a larger scene than _CHUNK anchors makes a group of its own
    monkeypatch.setattr(experiments, "_CHUNK", 100)
    big = dataclasses.replace(TINY_SPEC, anchor_stride=1.0)  # 576 anchors a scene
    tiny_scenes = generate_corpus(big, 2, 1, seed=0)
    assert [len(g) for g in experiments._scene_groups(tiny_scenes, big)] == [1, 1, 1]


def test_grouped_pools_equal_the_rows_of_one_build_on_the_eval_heavy_test_fold():
    cfg, (_, test_scenes) = EVAL_HEAVY, fold_zero(EVAL_HEAVY)
    spec, seed = cfg.corpus.scene_spec, cfg.corpus.seed
    # 64 test scenes of 256 anchors: four groups of 16, one stream pass each
    groups = experiments._scene_groups(test_scenes, spec)
    assert [len(g) for g in groups] == [16] * 4
    parts = [build_pool(g, spec, seed) for g in groups]
    assert_pools_equal(concatenated_pools(parts), build_pool(test_scenes, spec, seed))


def test_grouped_pools_equal_the_rows_of_one_build_with_scenes_without_boxes():
    cfg = tiny_config()
    spec, seed = cfg.corpus.scene_spec, cfg.corpus.seed
    scenes, _ = corrupt_annotations(generate_corpus(spec, 6, 5, seed=seed),
                                    CorruptionSpec(eta=0.7, seed=1))
    assert any(len(s.gt_boxes) == 0 for s in scenes)  # the normal scenes
    assert any(len(s.gt_boxes) and not s.annotated.any() for s in scenes)
    whole = build_pool(scenes, spec, seed)
    for cut in range(1, len(scenes)):  # every split into two groups
        parts = [build_pool(scenes[:cut], spec, seed), build_pool(scenes[cut:], spec, seed)]
        assert_pools_equal(concatenated_pools(parts), whole)
    singles = [build_pool([s], spec, seed) for s in scenes]
    assert_pools_equal(concatenated_pools(singles), whole)


def concatenated_pools(pools):
    return AnchorPool(**{f.name: np.concatenate([getattr(p, f.name) for p in pools])
                         for f in dataclasses.fields(AnchorPool)})


def test_the_test_fold_report_does_not_depend_on_its_groups(monkeypatch):
    cfg = tiny_config()
    _, model, _, _ = run_single(cfg, "ce", cfg.eta, fold=0, seed=0, return_model=True)
    args = (model, fold_zero(cfg)[1], cfg.corpus.scene_spec, cfg.corpus.seed)
    one_group = experiments._test_fold_report(*args)
    for chunk in (36, 100, 144):  # groups of 1, 2 and 4 of the 8 test scenes
        monkeypatch.setattr(experiments, "_CHUNK", chunk)
        assert experiments._test_fold_report(*args) == one_group


#: the test fold's phase at the eval_heavy shape held 4732 KiB at most, in
#: its last group's build_pool; one build of all 64 test scenes held 6708 KiB
TEST_FOLD_PEAK_KIB = 5.25 * 1024


def test_the_test_fold_holds_one_group_of_scenes_at_a_time(traced_peak_kib):
    cfg = EVAL_HEAVY
    _, model, _, _ = run_single(cfg, "ce", cfg.eta, fold=0, seed=0, return_model=True)
    peak = traced_peak_kib(experiments._test_fold_report, model, fold_zero(cfg)[1],
                           cfg.corpus.scene_spec, cfg.corpus.seed)
    assert peak < TEST_FOLD_PEAK_KIB


def test_fold_without_normal_scenes_has_undefined_nfps_and_froc(tmp_path):
    # n_np=1 in 2 folds: fold 0 holds no normal scene, fold 1 holds the one
    cfg = tiny_config(corpus=dataclasses.replace(tiny_config().corpus, n_np=1))
    no_np, with_np = (run_single(cfg, "ce", 0.5, fold=f, seed=0) for f in (0, 1))
    assert (no_np.report.nfps, no_np.report.froc) == (None, None)
    assert "no_normal_scenes" in no_np.report.flags
    assert with_np.report.froc is not None
    assert "no_normal_scenes" not in with_np.report.flags
    write_run_rows(tmp_path / "runs.csv", [no_np, with_np])
    row = read_run_rows(tmp_path / "runs.csv")[0]
    assert (row["nfps"], row["froc"]) == ("undefined", "undefined")
    summary = summarize({"ce": [no_np, with_np]})[0]
    assert (summary["nfps_mean"], summary["froc_mean"]) == (with_np.report.nfps,
                                                            with_np.report.froc)


def test_cmd_gen_and_force(tmp_path):
    cfg = tiny_config()
    path = cmd_gen(cfg, tmp_path / "corpus")
    assert path.exists()
    with pytest.raises(FileExistsError):
        cmd_gen(cfg, tmp_path / "corpus")
    cmd_gen(cfg, tmp_path / "corpus", force=True)
    manifest = json.loads((tmp_path / "corpus" / "corpus_manifest.json").read_text())
    assert manifest["seed"] == 5 and manifest["n_ap"] == 8


def test_cmd_gen_two_seeds_differ(tmp_path):
    cfg1 = tiny_config()
    cfg2 = tiny_config(corpus=CorpusConfig(scene_spec=TINY_SPEC, n_ap=8, n_np=8,
                                           seed=6))
    p1 = cmd_gen(cfg1, tmp_path / "a")
    p2 = cmd_gen(cfg2, tmp_path / "b")
    assert p1.read_bytes() != p2.read_bytes()
    m1 = json.loads((tmp_path / "a" / "corpus_manifest.json").read_text())
    m2 = json.loads((tmp_path / "b" / "corpus_manifest.json").read_text())
    assert m1["spec"] == m2["spec"] and m1["seed"] != m2["seed"]


def test_cmd_train_exports(tmp_path):
    cfg = tiny_config()
    record = cmd_train(cfg, tmp_path, loss_name="ce")
    assert (tmp_path / "checkpoint.npz").exists()
    assert (tmp_path / "gradient_hist_two_way.csv").exists()
    assert (tmp_path / "gradient_hist_three_way.csv").exists()
    assert (tmp_path / "training_log.csv").exists()
    assert (tmp_path / "report.txt").exists()
    assert record.task.loss == "ce"


def test_cmd_compare_and_summary_recompute(tmp_path):
    cfg = tiny_config()
    records, rows = cmd_compare_losses(cfg, tmp_path)
    assert len(records) == 2 * cfg.folds * len(cfg.seeds)
    raw = read_run_rows(tmp_path / "compare_runs.csv")
    for row in rows:
        loss = row["group"]
        vals = [float(r["froc"]) for r in raw if r["loss"] == loss]
        assert row["froc_mean"] == pytest.approx(np.mean(vals))


def test_cmd_compare_byte_identical_reruns(tmp_path):
    cfg = tiny_config()
    cmd_compare_losses(cfg, tmp_path / "r1")
    cmd_compare_losses(cfg, tmp_path / "r2")
    for name in ("compare_runs.csv", "compare_summary.csv"):
        assert (tmp_path / "r1" / name).read_bytes() == \
               (tmp_path / "r2" / name).read_bytes()


def test_cmd_ablate_tables(tmp_path):
    cfg = tiny_config(losses=("dghm_c",))
    mu_records, lam_records = cmd_ablate(cfg, tmp_path)
    assert len(mu_records) == len(cfg.mu_grid) * len(cfg.seeds)
    assert len(lam_records) == len(cfg.lambda_grid) * len(cfg.seeds)
    with open(tmp_path / "ablate_mu_summary.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["group"] for r in rows] == ["mu_n=1,mu_c=1", "mu_n=2,mu_c=0.5"]


def test_ablate_base_cell_reproduces_the_compare_row(tmp_path):
    # an ablation cell differs from the base harmonizer only in the swept
    # field, so the cell equal to the base (momentum included) is compare's row
    cfg = tiny_config(losses=("dghm_c",), mu_grid=((2.0, 0.5),),
                      harmonizer=HarmonizerConfig(momentum=0.7))
    cmd_ablate(cfg, tmp_path / "ablate")
    cmd_compare_losses(cfg, tmp_path / "compare")
    cell = (tmp_path / "ablate" / "ablate_mu_runs.csv").read_text().splitlines()
    compare = (tmp_path / "compare" / "compare_runs.csv").read_text().splitlines()
    fold0 = [line for line in compare[1:] if line.split(",")[3:5] == ["0", "0"]]
    assert len(cell) == 2 and len(fold0) == 1
    assert cell[1] == fold0[0]


def test_cmd_sweep_eta(tmp_path):
    cfg = tiny_config(losses=("ce",), eta_grid=(0.0, 0.5))
    records, rows = cmd_sweep_eta(cfg, tmp_path)
    assert len(records) == 2
    eta0 = [r for r in records if r.task.eta == 0.0]
    assert all("r_recall_undefined" in r.report.flags for r in eta0)
    groups = {row["group"] for row in rows}
    assert groups == {"ce@eta=0", "ce@eta=0.5"}


def test_cmd_export_figures(tmp_path):
    cfg = tiny_config()
    cmd_train(cfg, tmp_path / "run", loss_name="ce")
    out = cmd_export_figures(tmp_path / "run", tmp_path / "figs")
    assert out.exists()
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    names = {r["loss_name"] for r in rows}
    assert {"ce", "focal", "ghm_c", "dghm_c_clean", "dghm_c_noisy"} <= names
    ce_rows = [r for r in rows if r["loss_name"] == "ce"]
    assert all(float(r["g"]) == float(r["effective_gradient"]) for r in ce_rows)


def test_cmd_train_exports_histograms_at_the_harmonizer_bin_count(tmp_path):
    cfg = tiny_config(harmonizer=HarmonizerConfig(bin_count=20))
    cmd_train(cfg, tmp_path / "run", loss_name="dghm_c")
    _, model, _, pool = run_single(cfg, "dghm_c", cfg.eta, 0, cfg.seeds[0], return_model=True)
    hists = pool_gradient_histograms(model, pool, 20)
    for name, expected in zip(("two_way", "three_way"), hists):
        _, counts = load_histograms_csv(tmp_path / "run" / f"gradient_hist_{name}.csv")
        assert counts.shape == (len(expected), 20)
        np.testing.assert_array_equal(counts, expected)
    # export-figs draws the DGHM curves from the density the run trained with
    out = cmd_export_figures(tmp_path / "run", tmp_path / "figs", harmonizer=cfg.harmonizer)
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    spec = LossSpec(kind="dghm_c", harmonizer=cfg.harmonizer)
    for partition, name in enumerate(("dghm_c_clean", "dghm_c_noisy")):
        g, eff = reformulated_gradient_curve(spec, histograms=hists[0], partition=partition)
        assert [(r["g"], r["effective_gradient"]) for r in rows if r["loss_name"] == name] \
            == [(f"{a:.10g}", f"{b:.10g}") for a, b in zip(g, eff)]


def test_cmd_export_figures_missing_artifacts(tmp_path):
    with pytest.raises(FileNotFoundError):
        cmd_export_figures(tmp_path / "nope", tmp_path / "figs")


# ---------------------------------------------------------------------------
# predict_scenes at a score floor
# ---------------------------------------------------------------------------

#: the score levels of score_floor_case, as logits
LEVEL_LOGITS = np.log(np.arange(1, 10) / np.arange(9, 0, -1))
#: the model's score at each level
LEVEL_SCORES = sigmoid(LEVEL_LOGITS)


def score_floor_case(seed):
    """The scored rows (boxes, scene ids, scores, offsets) of a linear model
    over a pool, whose score is sigmoid(feature 0) and whose offsets are 0,
    so each detection keeps its anchor's integer box.

    Five scenes of 40 anchors on a coarse grid, so many boxes overlap; every
    fourth anchor and the next form a pair at IoU exactly NMS_IOU.  Logits
    take 9 levels (scores near 0.1, ..., 0.9), so scores tie; scene 4 only
    scores at the lowest two.
    """
    rng = np.random.default_rng(seed)
    scene_id = np.repeat(np.arange(5), 40)
    n = scene_id.size
    boxes = np.column_stack([rng.integers(0, 12, (n, 2)),
                             rng.integers(2, 7, (n, 2))]).astype(np.float64)
    # (cx, cy, 6, 4) and (cx + 2, cy, 6, 4) overlap in 16 of 32
    pairs = np.arange(0, n, 4)
    boxes[pairs, 2:] = boxes[pairs + 1, 2:] = (6.0, 4.0)
    boxes[pairs + 1, :2] = boxes[pairs, :2] + (2.0, 0.0)
    assert np.all(iou_matrix(boxes[pairs], boxes[pairs + 1]).diagonal() == NMS_IOU)
    levels = rng.integers(0, 9, n)
    levels[scene_id == 4] = rng.integers(0, 2, 40)
    features = rng.normal(size=(n, 3))
    features[:, 0] = LEVEL_LOGITS[levels]
    w = np.zeros((3, 5))
    w[0, 0] = 1.0
    model = Predictor.from_layers([w], [np.zeros(5)])
    pool = SimpleNamespace(features=features, boxes=boxes, scene_id=scene_id)
    return experiments._score_pool(model, pool)


SCORE_FLOORS = {
    "at_a_tied_score": LEVEL_SCORES[4],
    "just_above_a_tied_score": np.nextafter(LEVEL_SCORES[4], 1.0),
    "just_below_a_tied_score": np.nextafter(LEVEL_SCORES[4], 0.0),
    "above_all_of_scene_4": LEVEL_SCORES[2],
    "above_every_score": np.nextafter(LEVEL_SCORES[-1], 1.0),
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("floor", sorted(SCORE_FLOORS))
def test_predict_scenes_at_a_floor_equals_the_filtered_full_pass(seed, floor):
    scored = score_floor_case(seed)
    full = predict_scenes(scored)
    assert len(full) < scored[1].size  # NMS suppressed rows
    assert np.count_nonzero(full.score == LEVEL_SCORES[4]) > 1  # the floors' tie
    assert np.any(full.scene_id == 4)
    thr = SCORE_FLOORS[floor]
    expected = full[full.score >= thr]
    got = predict_scenes(scored, min_score=thr)
    for column in ("scene_id", "boxes", "score"):
        want, have = getattr(expected, column), getattr(got, column)
        assert (have.dtype, have.shape) == (want.dtype, want.shape)
        assert have.tobytes() == want.tobytes()
    if floor.startswith("above"):
        assert not np.any(got.scene_id == 4)
    assert len(got) == 0 if floor == "above_every_score" else 0 < len(got) < len(full)


def test_predict_scenes_rejects_a_nan_score_at_any_floor():
    scored = score_floor_case(0)
    scored[2][7] = np.nan
    for floor in (0.0, LEVEL_SCORES[4]):
        with pytest.raises(ValueError, match="score must be in"):
            predict_scenes(scored, min_score=floor)


def test_a_run_never_imports_numpy_ma():
    """np.unique imports numpy.ma, ~5 ms and ~1.3 MiB in every fresh process;
    nothing a run calls may, so a toy run in a fresh interpreter leaves it out."""
    code = textwrap.dedent("""
        import sys
        from dghm.experiments import CorpusConfig, ExperimentConfig, run_single
        from dghm.simdata import SceneSpec
        spec = SceneSpec(extent=(24.0, 24.0), objects_per_ap_scene=(1, 2),
                         object_size=(6.0, 8.0), anchor_sizes=(7.0,), feature_dim=4)
        cfg = ExperimentConfig(corpus=CorpusConfig(scene_spec=spec, n_ap=8, n_np=8, seed=5),
                               folds=2, epochs=2, batch_size=16, steps_per_epoch=5)
        for loss in ("ce", "dghm_c"):
            print(run_single(cfg, loss, 0.5, fold=0, seed=0).report.flags)
        print(sorted(name for name in sys.modules if name.split(".")[:2] == ["numpy", "ma"]))
    """)
    src = str(Path(experiments.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_test_fold_nms_stops_short_of_the_full_pool(monkeypatch):
    # at the default config in 2 folds the stop rule holds well above the
    # lowest score, so the test fold never pays for a full NMS pass
    rows = []

    def counted(anchor_boxes, scene_ids, scores, offsets):
        rows.append(np.size(scores))
        return decode_and_suppress(anchor_boxes, scene_ids, scores, offsets)

    monkeypatch.setattr(metrics, "decode_and_suppress", counted)
    cfg = ExperimentConfig(folds=2)
    run_single(cfg, "ce", cfg.eta, fold=0, seed=0)
    scenes = generate_corpus(cfg.corpus.scene_spec, cfg.corpus.n_ap, cfg.corpus.n_np,
                             cfg.corpus.seed)
    test_ids = set(kfold_split(scenes, cfg.folds, cfg.corpus.seed)[0])
    test_pool = build_pool([s for s in scenes if s.scene_id in test_ids],
                           cfg.corpus.scene_spec, cfg.corpus.seed)
    *test_fold, _ = rows  # the last call is the training pool's
    assert test_fold and max(test_fold) < test_pool.size
