"""Per-layer metrics: which public functions are traced, what each counts,
and how one operation's spans become metric values.

A traced target is "module.function" or "module.Class.method" inside the
``cornerforge`` package. Each span name below gives the time metric
``<span>_s`` (time inside the outermost calls); counters add to the count
metrics listed in ``COUNTS``.
"""

from __future__ import annotations

from spans import Tracer


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _count(metric, fn):
    def counter(tr, args, kwargs, result):
        tr.add(metric, fn(args, kwargs, result))
    return counter


def _counts(*counters):
    def counter(tr, args, kwargs, result):
        for c in counters:
            c(tr, args, kwargs, result)
    return counter


def _nms_arrays(tr, args, kwargs, result):
    tr.add("runtime.nms_in", len(_arg(args, kwargs, 0, "xs")))
    tr.add("runtime.nms_kept", len(result[0]))


def _nms_list(tr, args, kwargs, result):
    tr.add("runtime.nms_in", len(_arg(args, kwargs, 0, "points")))
    tr.add("runtime.nms_kept", len(result))


def _pair(tr, args, kwargs, result):
    tr.add("repeatability.useful", result.n_useful)
    tr.add("repeatability.repeated", result.n_repeated)


def _evaluate(tr, args, kwargs, result):
    tr.add("annealing.evaluations", 1)
    tr.add("annealing.detections", sum(result[2]))
    tr.note("annealing.costs", result[0])


_keypoints = _count("detectors.keypoints", lambda a, k, r: len(r))

# (target, span name, counter or None)
TARGETS = [
    ("runtime.detect", "runtime.detect",
     _count("runtime.detect_hits", lambda a, k, r: len(r))),
    ("runtime.score_positions_bisect", "runtime.score",
     _count("runtime.scored_positions", lambda a, k, r: len(r))),
    ("runtime.suppress_scored_arrays", "runtime.nms", _nms_arrays),
    ("runtime.nonmax_suppress", "runtime.nms", _nms_list),
    ("runtime.top_n_by_score", "runtime.top_n",
     _count("runtime.top_n_calls", lambda a, k, r: 1)),
    ("segment.segment_score_field", "segment.score_field", None),
    ("segment.config_field", "segment.config_field", None),
    ("segment.label_all_configs", "segment.label_all_configs", None),
    ("annealing.apply_sixteenfold", "annealing.sixteenfold_field", None),
    ("annealing.sixteenfold_classify_positions", "annealing.sixteenfold_score",
     _count("annealing.sixteenfold_positions",
            lambda a, k, r: len(_arg(a, k, 2, "xs")))),
    ("annealing.CostEvaluator.__init__", "annealing.evaluator_init", None),
    ("annealing.CostEvaluator.detect_fields", "annealing.detect_fields", None),
    ("annealing.CostEvaluator.evaluate", "annealing.evaluate", _evaluate),
    ("annealing.mutate", "annealing.mutate", None),
    ("baselines.structure_tensor", "baselines.structure_tensor", None),
    ("baselines.detect_response", "baselines.detect_response", None),
    ("detectors.FastRefDetector.scored_keypoints", "detectors.scored_keypoints",
     _keypoints),
    ("detectors.TreeDetector.scored_keypoints", "detectors.scored_keypoints",
     _keypoints),
    ("detectors.SixteenFoldDetector.scored_keypoints",
     "detectors.scored_keypoints", _keypoints),
    ("detectors.HarrisDetector.scored_keypoints", "detectors.scored_keypoints",
     _keypoints),
    ("repeatability.match_within", "repeatability.match", _counts(
        _count("repeatability.match_queries",
               lambda a, k, r: len(_arg(a, k, 0, "queries"))),
        _count("repeatability.match_targets",
               lambda a, k, r: len(_arg(a, k, 1, "targets"))))),
    ("repeatability.pair_repeatability", "repeatability.pair", _pair),
    ("warp.project_points", "warp.project",
     _count("warp.projected_points", lambda a, k, r: len(r[1]))),
    ("learn.extract_training_data", "learn.extract", None),
    ("learn.augment_exhaustive", "learn.augment", None),
    ("learn.build_tree", "learn.build_tree", None),
    ("trees.deserialize_tree", "trees.deserialize", None),
    ("trees.CompiledTree.__init__", "trees.compile", None),
    ("trees.serialize_tree", "trees.serialize", None),
    ("image.load_image", "image.load", None),
]

# Time metrics: span totals, except evaluate's self time (its match counting).
TIMES = [f"{span}_s" for span in dict.fromkeys(s for _, s, _ in TARGETS)]
TIMES[TIMES.index("annealing.evaluate_s")] = "annealing.match_count_s"

COUNTS = [
    "runtime.detect_hits", "runtime.scored_positions", "runtime.nms_in",
    "runtime.nms_kept", "runtime.top_n_calls", "annealing.sixteenfold_positions",
    "annealing.evaluations", "annealing.accepted", "annealing.detections",
    "detectors.keypoints", "repeatability.match_queries",
    "repeatability.match_targets", "repeatability.useful",
    "repeatability.repeated", "warp.projected_points", "learn.tree_nodes",
    "learn.tree_depth",
]

DETECTOR_RATES = {"fast-ref": "detectors.fast_ref_mpix_s",
                  "fast-tree": "detectors.fast_tree_mpix_s",
                  "faster": "detectors.faster_mpix_s",
                  "harris": "detectors.harris_mpix_s"}

# name -> (unit, better)
METRICS = {name: ("s", "lower") for name in TIMES}
METRICS.update({name: ("count", "lower") for name in COUNTS})
for name in ("annealing.accepted", "repeatability.useful",
             "repeatability.repeated"):
    METRICS[name] = ("count", "higher")
METRICS["learn.tests_per_pixel"] = ("tests/pixel", "lower")
METRICS.update({name: ("MP/s", "higher") for name in DETECTOR_RATES.values()})
METRICS["trace.op_s"] = ("s", "lower")
METRICS["trace.spans"] = ("count", "lower")


def install(tracer: Tracer) -> None:
    for target, span, counter in TARGETS:
        tracer.install(target, span, counter)


def collect(tracer: Tracer) -> dict[str, float]:
    """Metric values for the spans and counts recorded since the last reset."""
    out = {f"{name}_s": v for name, v in tracer.totals().items()}
    out.pop("annealing.evaluate_s", None)
    own = tracer.self_times().get("annealing.evaluate")
    if own is not None:
        out["annealing.match_count_s"] = own
    out.update(tracer.counts)
    out["trace.spans"] = len(tracer.spans)
    return out
