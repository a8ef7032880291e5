"""End-to-end CLI tests: subcommands, config handling, exit codes."""

import json

import pytest

from dghm import experiments
from dghm.cli import EXIT_CONFIG, EXIT_DIVERGED, EXIT_OK, main

TINY_CONFIG = {
    "corpus": {
        "scene_spec": {
            "extent": [24.0, 24.0],
            "objects_per_ap_scene": [1, 2],
            "object_size": [6.0, 8.0],
            "anchor_stride": 4.0,
            "anchor_sizes": [7.0],
            "feature_dim": 4,
        },
        "n_ap": 6,
        "n_np": 6,
        "seed": 5,
    },
    "losses": ["ce"],
    "eta": 0.5,
    "folds": 2,
    "seeds": [0],
    "epochs": 1,
    "batch_size": 16,
    "steps_per_epoch": 3,
    "learning_rate": 1e-3,
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY_CONFIG))
    return path


def run(args):
    return main([str(a) for a in args])


def test_check_config_ok(config_path, capsys):
    assert run(["--config", config_path, "check-config"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "config ok" in out


def test_check_config_defaults_without_file(capsys):
    assert run(["check-config"]) == EXIT_OK


def test_check_config_accepts_no_hidden_layer(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"hidden": []}))
    assert run(["--config", path, "check-config"]) == EXIT_OK


def test_bad_config_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"not_a_key": 1}))
    assert run(["--config", path, "check-config"]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("config, key", [
    ({"corpus": {"scene_spec": {"feature_dimm": 8}}}, "corpus.scene_spec.feature_dimm"),
    ({"epochs": 2.5}, "epochs"),
    ({"hidden": [32.5]}, "hidden[0]"),
    ({"corpus": {"scene_spec": {"objects_per_ap_scene": [2.5, 6]}}},
     "corpus.scene_spec.objects_per_ap_scene[0]"),
    ({"include_dghm_star": "no"}, "include_dghm_star"),
    ({"include_dghm_star": 0}, "include_dghm_star"),
    ({"harmonizer": {"mu_n": float("nan")}}, "harmonizer.mu_n"),
    ({"harmonizer": {"mu_c": float("inf")}}, "harmonizer.mu_c"),
    ({"learning_rate": float("nan")}, "learning_rate"),
    ({"reg_weight": float("nan")}, "reg_weight"),
    ({"corpus": {"scene_spec": {"anchor_stride": float("nan")}}},
     "corpus.scene_spec.anchor_stride"),
    ({"lambda_grid": [-float("inf")]}, "lambda_grid[0]"),
    ({"reg_weight": 10**400}, "reg_weight"),
    ({"corpus": {"scene_spec": {"anchor_stride": 10**400}}},
     "corpus.scene_spec.anchor_stride"),
], ids=["nested_typo", "float_epochs", "float_hidden_width", "float_object_count",
        "str_bool", "int_bool", "nan_mu_n", "inf_mu_c", "nan_learning_rate",
        "nan_reg_weight", "nan_anchor_stride", "minus_inf_grid_element",
        "huge_int_reg_weight", "huge_int_anchor_stride"])
def test_check_config_rejects_schema_errors(tmp_path, capsys, config, key):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert run(["--config", path, "check-config"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and key in err


@pytest.mark.parametrize("config, argv", [
    ({"lambda_grid": [1.5]}, []),
    ({"mu_grid": [[0, 1]]}, []),
    ({"corpus": {"seed": -1}}, []),
    ({"seeds": [-1, 0]}, []),
    ({}, ["--seed", "-1"]),
    ({"corpus": {"scene_spec": {"anchor_sizes": []}}}, []),
    ({"corpus": {"scene_spec": {"anchor_sizes": [-12.0]}}}, []),
    ({"epochs": -1}, []),
    ({"steps_per_epoch": 0}, []),
    ({"steps_per_epoch": -1}, []),
    ({"batch_size": 0}, []),
    ({"batch_size": -4}, []),
], ids=["lambda_grid", "mu_grid", "corpus_seed", "run_seed", "seed_override",
        "no_anchor_sizes", "negative_anchor_size", "negative_epochs", "no_steps",
        "negative_steps", "empty_batch", "negative_batch"])
def test_check_config_rejects_what_every_run_rejects(tmp_path, capsys, config, argv):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert run(["--config", path, *argv, "check-config"]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("config, key", [
    ({"corpus": {"scene_spec": {"object_size": [10.0, 70.0]}}}, "object_size"),
    ({"hidden": [-3]}, "hidden"),
    ({"hidden": [0]}, "hidden"),
    ({"corpus": {"n_ap": -4, "n_np": 70}}, "n_ap"),
    ({"corpus": {"n_np": -1}}, "n_np"),
    ({"corpus": {"scene_spec": {"objects_per_ap_scene": [-2, 1]}}}, "objects_per_ap_scene"),
    ({"corpus": {"scene_spec": {"hard_attenuation": [0.9, 0.1]}}}, "hard_attenuation"),
    ({"corpus": {"scene_spec": {"noise_level": -1.0}}}, "noise_level"),
    ({"reg_weight": -1.0}, "reg_weight"),
    ({"corpus": {"scene_spec": {"anchor_stride": 0.001}}}, "anchor_stride"),
    ({"corpus": {"scene_spec": {"anchor_sizes": [12.0] * 257}}}, "anchor_sizes"),
], ids=["objects_exceed_extent", "negative_hidden_width", "zero_hidden_width",
        "negative_n_ap", "negative_n_np", "negative_object_count", "unordered_attenuation",
        "negative_noise_level", "negative_reg_weight", "huge_grid_stride",
        "huge_grid_sizes"])
def test_check_config_names_the_field_a_run_would_reject(tmp_path, capsys, config, key):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert run(["--config", path, "check-config"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and key in err


def test_malformed_json_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{")
    assert run(["--config", path, "check-config"]) == EXIT_CONFIG


def test_missing_config_file_exit_code(tmp_path):
    assert run(["--config", tmp_path / "nope.json", "check-config"]) == EXIT_CONFIG


def test_gen_refuses_overwrite(config_path, tmp_path, capsys):
    out = tmp_path / "corpus"
    assert run(["--config", config_path, "--out", out, "gen"]) == EXIT_OK
    assert run(["--config", config_path, "--out", out, "gen"]) == EXIT_CONFIG
    assert run(["--config", config_path, "--out", out, "--force", "gen"]) == EXIT_OK


def test_train_prints_undefined_froc_without_normal_scenes(tmp_path, capsys):
    # n_ap=8, n_np=1 in 2 folds: the trained fold 0 has no normal scene
    config = json.loads(json.dumps(TINY_CONFIG))
    config["corpus"].update(n_ap=8, n_np=1)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    run_dir = tmp_path / "run"
    assert run(["--config", path, "--out", run_dir, "train", "--loss", "ce"]) == EXIT_OK
    assert "nfps=undefined froc=undefined" in capsys.readouterr().out
    report = (run_dir / "report.txt").read_text()
    assert "froc=undefined" in report and "no_normal_scenes" in report


def test_train_exits_2_on_a_non_finite_feature(config_path, tmp_path, capsys, monkeypatch):
    real_build_pool = experiments.build_pool

    def poisoned(*args):
        pool = real_build_pool(*args)
        pool.features[5, 1] = float("nan")
        return pool

    monkeypatch.setattr(experiments, "build_pool", poisoned)
    assert run(["--config", config_path, "--out", tmp_path / "run", "train"]) == EXIT_DIVERGED
    assert "training diverged: non-finite feature in pool row 5\n" in capsys.readouterr().err


def test_train_and_export_figs(config_path, tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert run(["--config", config_path, "--out", run_dir, "train",
                "--loss", "ce"]) == EXIT_OK
    assert "froc=" in capsys.readouterr().out
    figs = tmp_path / "figs"
    assert run(["--config", config_path, "--out", figs, "export-figs",
                run_dir]) == EXIT_OK
    assert (figs / "reformulated_gradient_curves.csv").exists()


def test_export_figs_missing_run(config_path, tmp_path):
    assert run(["--config", config_path, "--out", tmp_path / "figs",
                "export-figs", tmp_path / "nope"]) == EXIT_CONFIG


def test_compare_prints_summary(config_path, tmp_path, capsys):
    assert run(["--config", config_path, "--out", tmp_path / "cmp",
                "compare"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "ce:" in out and "froc=" in out
    assert (tmp_path / "cmp" / "compare_runs.csv").exists()


def test_split_prints_folds(config_path, capsys):
    assert run(["--config", config_path, "split"]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2
    assert out[0].startswith("fold 0:")
    ids = sorted(int(x) for line in out for x in line.split(":")[1].split())
    assert ids == list(range(12))


def test_split_k_override(config_path, capsys):
    assert run(["--config", config_path, "split", "-k", "3"]) == EXIT_OK
    assert len(capsys.readouterr().out.splitlines()) == 3


@pytest.mark.parametrize("k", [0, 1])
def test_split_rejects_fewer_than_two_folds(config_path, capsys, k):
    assert run(["--config", config_path, "split", "-k", k]) == EXIT_CONFIG
    assert "fold count" in capsys.readouterr().err


def test_seed_override(config_path, tmp_path):
    assert run(["--config", config_path, "--seed", "9", "--out",
                tmp_path / "t", "train"]) == EXIT_OK
