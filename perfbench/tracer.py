"""Wrapper-based span recorder and the per-layer metrics derived from it.

The traced run replaces public functions of the ``dghm`` modules with
wrappers that record one span per call: name, start, end, parent span and
run id, plus an optional work count (anchors, rows, detections).  Spans stay
in memory until the iteration ends.  Nothing under ``src/`` knows about the
tracer; a function a later version removes is skipped and its metrics read 0.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array

import numpy as np


def _first(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _pool_keys(args, kwargs, pool):
    # one key per (scene, anchor) pair; a scene has far fewer than 2**20 anchors
    return {"anchors": int(pool.size),
            "keys": pool.scene_id.astype(np.int64) * (1 << 20) + pool.anchor_index}


def _rows(args, kwargs, result):
    return {"rows": int(np.shape(args[1] if len(args) > 1 else kwargs["features"])[0])}


def _examples(args, kwargs, result):
    return {"examples": int(np.size(_first(args, kwargs, "logits")))}


def _nms(args, kwargs, result):
    scores = args[2] if len(args) > 2 else kwargs["scores"]
    return {"anchors_in": int(np.size(scores)), "dets_out": len(result)}


def _dets(args, kwargs, result):
    return {"dets": len(_first(args, kwargs, "dets"))}


#: module -> {attribute (``Class.method`` for methods): work counter or None}.
#: Only functions a per-layer metric reports are wrapped: an unreported
#: span would take its time out of its caller's self time.
TRACED = {
    "experiments": {"run_single": None, "predict_scenes": None},
    "simdata": {"generate_corpus": None, "corrupt_annotations": None,
                "build_pool": _pool_keys, "sample_minibatch": None},
    "model": {"train": None, "forward": _rows, "backward": None,
              "adam_step": None, "pool_gradient_histograms": None},
    "harmonizer": {"classification_loss_and_grad": _examples,
                   "harmonize_weights": None, "build_histograms": None,
                   "partition_of": None, "partition_mask": None,
                   "EmaHistograms.update": None},
    "losses": {"sigmoid": None, "gradient_norm": None, "ce_loss": None,
               "ce_grad_logit": None, "focal_loss": None,
               "focal_grad_logit": None, "sce_loss": None,
               "sce_grad_logit": None, "smooth_l1": None,
               "smooth_l1_grad": None},
    "metrics": {"decode_and_suppress": _nms, "operating_point": _dets,
                "aggregate_match": _dets, "match_detections": _dets,
                "nfps": _dets, "froc": _dets, "t_r_recall": _dets},
}

#: Matching, operating point, FROC, NFPs and T-/R-recall: timed inclusively.
MATCH_SPANS = frozenset(f"metrics.{name}" for name in TRACED["metrics"]
                        if name != "decode_and_suppress")

#: Per-layer metric name -> unit, in print order.
PER_LAYER = {
    "simdata.build_pool.s": "s",
    "simdata.build_pool.calls": "count",
    "simdata.build_pool.anchors": "count",
    "simdata.build_pool.useful_ratio": "ratio",
    "simdata.generate_corpus.s": "s",
    "simdata.corrupt_annotations.s": "s",
    "simdata.sample_minibatch.s": "s",
    "simdata.sample_minibatch.calls": "count",
    "model.train.s": "s",
    "model.train.self_s": "s",
    "model.train.steps": "count",
    "model.forward.s": "s",
    "model.forward.calls": "count",
    "model.forward.rows": "count",
    "model.forward.calls_per_step": "1/step",
    "model.backward.s": "s",
    "model.adam_step.s": "s",
    "model.pool_gradient_histograms.s": "s",
    "harmonizer.classification_loss_and_grad.s": "s",
    "harmonizer.classification_loss_and_grad.calls": "count",
    "harmonizer.us_per_example": "us",
    "harmonizer.build_histograms.s": "s",
    "harmonizer.harmonize_weights.s": "s",
    "harmonizer.partition_of.s": "s",
    "harmonizer.partition_mask.s": "s",
    "harmonizer.partition_mask.calls_per_step": "1/step",
    "harmonizer.EmaHistograms.update.s": "s",
    "losses.s": "s",
    "losses.calls": "count",
    "metrics.decode_and_suppress.s": "s",
    "metrics.decode_and_suppress.anchors_in": "count",
    "metrics.decode_and_suppress.dets_out": "count",
    "metrics.decode_and_suppress.us_per_anchor": "us",
    "metrics.match.s": "s",
    "metrics.match.dets": "count",
    "experiments.run_single.self_s": "s",
    "experiments.predict_scenes.calls": "count",
    "process.cpu_util": "ratio",
    "trace.overhead_s": "s",
}

#: Metrics that count work; two traced iterations of one input must agree.
COUNTS = tuple(name for name, unit in PER_LAYER.items()
               if unit in ("count", "1/step") or name.endswith("useful_ratio"))


class Tracer:
    """In-memory spans as columns; ``run_id`` tags spans with the current task.

    Columns of flat arrays keep the recorder from allocating a tracked object
    per call, which would make the garbage collector part of the overhead.
    """

    def __init__(self):
        self.name = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")  # index of the enclosing span, -1 at top level
        self.run = array("q")  # task index, -1 outside any task
        self.work = {}  # span index -> {count name: value}
        self.run_id = -1
        self._stack = []

    def wrap(self, name, fn, work=None):
        names, starts, ends = self.name, self.start, self.end
        parents, runs, works, stack = self.parent, self.run, self.work, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            runs.append(self.run_id)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if work is not None:
                works[i] = work(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Swap every TRACED function for its wrapper in all loaded dghm modules.

        Modules bind functions by ``from .x import f``, so each module's own
        reference is replaced, not only the defining one.
        """
        wrapped = {}
        for module_name, attrs in TRACED.items():
            module = sys.modules[f"dghm.{module_name}"]
            for attr, work in attrs.items():
                owner_name, _, method = attr.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                fn = vars(owner).get(method)
                if fn is None:
                    continue
                wrapper = self.wrap(f"{module_name}.{attr}", fn, work)
                if owner_name:
                    setattr(owner, method, wrapper)
                else:
                    wrapped[id(fn)] = (fn, wrapper)
        for name, module in list(sys.modules.items()):
            if name != "dghm" and not name.startswith("dghm."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def write(self, path):
        """Write the spans as gzipped columnar JSON."""
        work = {i: {k: v for k, v in w.items() if k != "keys"}
                for i, w in self.work.items()}
        cols = {"name": self.name, "start": self.start.tolist(),
                "end": self.end.tolist(), "parent": self.parent.tolist(),
                "run": self.run.tolist(), "work": work}
        with gzip.open(path, "wt") as fh:
            json.dump(cols, fh)


def self_times(start, end, parent):
    """Per-span self time: duration minus the time its child spans cover.

    Spans come from one thread, so a span's children run one after another
    inside it and their durations add up without overlap.
    """
    self_s = [e - s for s, e in zip(start, end)]
    for s, e, p in zip(start, end, parent):
        if p >= 0:
            self_s[p] -= e - s
    return self_s


def layer_metrics(t: Tracer):
    """Per-layer metrics of one traced iteration (all but the two process ones)."""
    self_s = self_times(t.start, t.end, t.parent)
    n = len(t.name)
    in_train = [False] * n  # inside train's step loop, not its final histograms
    in_match = [False] * n
    agg: dict = {}
    keys = []
    match_s = 0.0
    match_dets = 0
    train_calls: dict = {}
    for i, (name, start, end, parent) in enumerate(zip(t.name, t.start, t.end, t.parent)):
        work = t.work.get(i, {})
        if name == "model.train":
            in_train[i] = True
        elif name != "model.pool_gradient_histograms" and parent >= 0:
            in_train[i] = in_train[parent]
        if in_train[i]:
            train_calls[name] = train_calls.get(name, 0) + 1
        if name in MATCH_SPANS:
            if parent < 0 or not in_match[parent]:
                match_s += end - start
                match_dets += work["dets"]
            in_match[i] = True
        elif parent >= 0:
            in_match[i] = in_match[parent]
        a = agg.setdefault(name, {"calls": 0, "s": 0.0, "incl_s": 0.0})
        a["calls"] += 1
        a["s"] += self_s[i]
        a["incl_s"] += end - start
        for k, v in work.items():
            if k == "keys":
                keys.append(v)
            else:
                a[k] = a.get(k, 0) + v

    def get(name, field="s"):
        return agg.get(name, {}).get(field, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    steps = train_calls.get("model.adam_step", 0)
    anchors = get("simdata.build_pool", "anchors")
    distinct = np.unique(np.concatenate(keys)).size if keys else 0
    losses = [a for name, a in agg.items() if name.startswith("losses.")]
    return {
        "simdata.build_pool.s": get("simdata.build_pool"),
        "simdata.build_pool.calls": get("simdata.build_pool", "calls"),
        "simdata.build_pool.anchors": anchors,
        "simdata.build_pool.useful_ratio": ratio(distinct, anchors),
        "simdata.generate_corpus.s": get("simdata.generate_corpus"),
        "simdata.corrupt_annotations.s": get("simdata.corrupt_annotations"),
        "simdata.sample_minibatch.s": get("simdata.sample_minibatch"),
        "simdata.sample_minibatch.calls": get("simdata.sample_minibatch", "calls"),
        "model.train.s": get("model.train", "incl_s"),
        "model.train.self_s": get("model.train"),
        "model.train.steps": steps,
        "model.forward.s": get("model.forward"),
        "model.forward.calls": get("model.forward", "calls"),
        "model.forward.rows": get("model.forward", "rows"),
        "model.forward.calls_per_step": ratio(train_calls.get("model.forward", 0), steps),
        "model.backward.s": get("model.backward"),
        "model.adam_step.s": get("model.adam_step"),
        "model.pool_gradient_histograms.s": get("model.pool_gradient_histograms"),
        "harmonizer.classification_loss_and_grad.s":
            get("harmonizer.classification_loss_and_grad"),
        "harmonizer.classification_loss_and_grad.calls":
            get("harmonizer.classification_loss_and_grad", "calls"),
        "harmonizer.us_per_example": 1e6 * ratio(
            get("harmonizer.classification_loss_and_grad", "incl_s"),
            get("harmonizer.classification_loss_and_grad", "examples")),
        "harmonizer.build_histograms.s": get("harmonizer.build_histograms"),
        "harmonizer.harmonize_weights.s": get("harmonizer.harmonize_weights"),
        "harmonizer.partition_of.s": get("harmonizer.partition_of"),
        "harmonizer.partition_mask.s": get("harmonizer.partition_mask"),
        "harmonizer.partition_mask.calls_per_step":
            ratio(train_calls.get("harmonizer.partition_mask", 0), steps),
        "harmonizer.EmaHistograms.update.s": get("harmonizer.EmaHistograms.update"),
        "losses.s": sum(a["s"] for a in losses),
        "losses.calls": sum(a["calls"] for a in losses),
        "metrics.decode_and_suppress.s": get("metrics.decode_and_suppress"),
        "metrics.decode_and_suppress.anchors_in":
            get("metrics.decode_and_suppress", "anchors_in"),
        "metrics.decode_and_suppress.dets_out":
            get("metrics.decode_and_suppress", "dets_out"),
        "metrics.decode_and_suppress.us_per_anchor": 1e6 * ratio(
            get("metrics.decode_and_suppress"),
            get("metrics.decode_and_suppress", "anchors_in")),
        "metrics.match.s": match_s,
        "metrics.match.dets": match_dets,
        "experiments.run_single.self_s": get("experiments.run_single"),
        "experiments.predict_scenes.calls": get("experiments.predict_scenes", "calls"),
    }
