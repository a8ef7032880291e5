"""Workload definitions: which configs and task lists each workload runs.

Each workload is a set of ``run_single`` tasks over one corpus.  The workload
seed only sets the run seed (annotation drop, init, batch sampling); the
corpus seed stays at the config default, so every run of a workload shares
its corpus.  Toy mode keeps a workload's losses and eta but shrinks the
corpus and schedule to the criterion-9 shape, so tests drive the same code
path in seconds.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from dghm.experiments import CorpusConfig, ExperimentConfig, kfold_split
from dghm.simdata import (
    CorruptionSpec,
    SceneSpec,
    build_pool,
    corrupt_annotations,
    generate_corpus,
)

FOLD = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    losses: tuple
    overrides: dict = field(default_factory=dict)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="trend_slice",
        why="default config, eta=0.7, fold 0, the four criterion-6 losses on "
            "one shared corpus: every layer in play (pool, train, NMS)",
        losses=("ce", "focal", "ghm_c", "dghm_c"),
    ),
    Workload(
        name="train_heavy",
        why="32-scene corpus at eta=0.2 with ghm_c/dghm_c/dghm_c_star and the "
            "full 2400-step schedule: train loop and harmonizer dominate",
        losses=("ghm_c", "dghm_c", "dghm_c_star"),
        overrides={"corpus": CorpusConfig(n_ap=16, n_np=16), "eta": 0.2},
    ),
    Workload(
        name="eval_heavy",
        why="default corpus split in 2 folds, so half its scenes are test scenes; "
            "ce only, 120 training steps: pool building and NMS/matching dominate, "
            "the harmonizer is idle",
        losses=("ce",),
        overrides={"folds": 2, "epochs": 2, "steps_per_epoch": 60},
    ),
)}

#: The criterion-9 shape of the acceptance tests, with 16 scenes per class
#: instead of 8 so that every workload's toy pool fills the positive quota.
TOY_OVERRIDES = {
    "corpus": CorpusConfig(
        scene_spec=SceneSpec(extent=(24.0, 24.0), objects_per_ap_scene=(1, 2),
                             feature_dim=4),
        n_ap=16, n_np=16),
    "folds": 2, "epochs": 2, "steps_per_epoch": 5, "batch_size": 16,
}


def experiment_config(workload: Workload, toy: bool = False) -> ExperimentConfig:
    cfg = dataclasses.replace(ExperimentConfig(), **workload.overrides)
    if toy:
        cfg = dataclasses.replace(cfg, **TOY_OVERRIDES)
    return cfg


def tasks(workload: Workload, run_seed: int, toy: bool = False):
    """The ``run_single`` argument tuples of one workload iteration."""
    cfg = experiment_config(workload, toy)
    return [(cfg, loss, cfg.eta, FOLD, run_seed) for loss in workload.losses]


class InvalidWorkload(ValueError):
    """The workload's training pool would put the sampler on its fallback."""


def check_positive_quota(workload: Workload, run_seed: int, toy: bool = False) -> int:
    """Refuse a seed whose training pool cannot fill the 1:3 positive quota.

    ``sample_minibatch`` asks for round(batch_size / 4) positives and silently
    shrinks the batch when the pool holds fewer; a timed workload must never
    take that path.  Builds the same training pool as ``run_single``.
    Returns the number of positives.
    """
    cfg = experiment_config(workload, toy)
    scenes = generate_corpus(cfg.corpus.scene_spec, cfg.corpus.n_ap,
                             cfg.corpus.n_np, cfg.corpus.seed)
    test_ids = set(kfold_split(scenes, cfg.folds, cfg.corpus.seed)[FOLD])
    train_scenes = [s for s in scenes if s.scene_id not in test_ids]
    corrupted, _ = corrupt_annotations(
        train_scenes, CorruptionSpec(eta=cfg.eta, seed=run_seed))
    pool = build_pool(corrupted, cfg.corpus.scene_spec, cfg.corpus.seed)
    positives = int((pool.p_star == 1).sum())
    quota = max(int(round(cfg.batch_size / 4)), 1)
    if positives < quota:
        raise InvalidWorkload(
            f"{workload.name} run seed {run_seed}: training pool holds "
            f"{positives} positives, below the batch quota of {quota}")
    return positives
