"""Per-layer metrics from the spans of a traced run.

``COUNTERS`` says how the tracer counts work at a span boundary;
``layer_metrics`` turns the spans of one repetition (plus, where the
set-up built what the repetition uses, the set-up's spans) into the
per-layer metrics, and ``command_self_times`` splits each command's wall
time over the span names below it.
"""

import os
import statistics
from collections import defaultdict

from spans import COUNT, END, ID, NAME, START, self_times, subtree

COMMANDS = ("project", "fit", "score", "eval")


def _file_size(args, kwargs, index):
    path = args[index] if len(args) > index else kwargs["path"]
    return os.path.getsize(path)


COUNTERS = {
    "formats.read_feature_map": lambda a, k, r: _file_size(a, k, 0),
    "formats.write_feature_map": lambda a, k, r: _file_size(a, k, 1),
    "rangeview.parse_point_cloud": lambda a, k, r: len(r),
    # [samples, EM iterations]
    "gmm.em_fit": lambda a, k, r: [len(a[0]), int(r[1].log_likelihoods.size)],
    "ensemble.score_feature_map": lambda a, k, r: int(r.valid.sum()),
}

# (name, unit) of every per-layer metric, in report order
PER_LAYER = (
    [(f"cli.{c}_s", "s") for c in COMMANDS]
    + [
        ("cli.self_s", "s"),
        ("cli.score_parallel_eff", "ratio"),
        ("rangeview.parse_s", "s"),
        ("rangeview.project_s", "s"),
        ("rangeview.points", "count"),
        ("formats.read_s", "s"),
        ("formats.write_s", "s"),
        ("formats.bytes_read", "bytes"),
        ("formats.bytes_written", "bytes"),
        ("gmm.em_fit_s", "s"),
        ("gmm.em_iters", "count"),
        ("gmm.em_samples", "count"),
        ("gmm.component_log_densities_s", "s"),
        ("gmm.component_log_densities_calls", "count"),
        ("gmm.class_log_densities_s", "s"),
        ("nig.load_s", "s"),
        ("nig.build_bank_s", "s"),
        ("nig.sample_ensemble_s", "s"),
        ("ensemble.sample_log_densities_s", "s"),
        ("ensemble.sample_log_densities_calls", "count"),
        ("ensemble.logsumexp_s", "s"),
        ("ensemble.logsumexp_calls", "count"),
        ("ensemble.reduce_self_s", "s"),
        ("ensemble.scan_s_p50", "s"),
        ("ensemble.scan_s_max", "s"),
        ("ensemble.pixels_scored", "count"),
        ("ensemble.logdensity_gflop", "GFLOP"),
        ("ensemble.logdensity_gflops", "GFLOP/s"),
        ("metrics.threshold_s", "s"),
        ("metrics.ranking_s", "s"),
        ("metrics.miou_s", "s"),
        ("trace_overhead_frac", "ratio"),
    ]
)


def command_self_times(tree):
    """{command: {span name: self seconds}} for the command spans
    (``cli.<command>``) of one repetition, with the command's wall time
    under ``"wall"``."""
    out = {}
    for s in tree:
        if s[NAME] in {f"cli.{c}" for c in COMMANDS}:
            part = subtree(tree, s[ID])
            shares = self_times(part)
            by_name = defaultdict(float)
            for span in part:
                by_name[span[NAME]] += shares[span[ID]]
            out[s[NAME][4:]] = {"wall": s[END] - s[START], "self": dict(by_name)}
    return out


def layer_metrics(trees, jobs: int, work_per_pixel: int) -> dict:
    """Per-layer metrics over the given span trees (one repetition).

    ``work_per_pixel`` is (M + 1) * C * K * D, so the computed
    log-density operation count is pixels * work_per_pixel * 3.
    """
    busy = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(list)
    scan_s = []
    self_s = defaultdict(float)
    for tree in trees:
        for s in tree:
            busy[s[NAME]] += s[END] - s[START]
            calls[s[NAME]] += 1
            if s[COUNT]:
                counts[s[NAME]].append(s[COUNT])
            if s[NAME] == "ensemble.score_feature_map":
                scan_s.append(s[END] - s[START])
        for cmd in command_self_times(tree).values():
            for name, sec in cmd["self"].items():
                self_s[name] += sec

    m = {f"cli.{c}_s": busy[f"cli.{c}"] for c in COMMANDS}
    m["cli.self_s"] = sum(v for k, v in self_s.items() if k.startswith("cli."))
    score_s = busy["cli.score"]
    m["cli.score_parallel_eff"] = (
        busy["ensemble.score_feature_map"] / (jobs * score_s) if score_s else 0.0
    )
    m["rangeview.parse_s"] = busy["rangeview.parse_point_cloud"] + busy["rangeview.parse_labels"]
    m["rangeview.project_s"] = busy["rangeview.project_spherical"]
    m["rangeview.points"] = sum(counts["rangeview.parse_point_cloud"])
    m["formats.read_s"] = busy["formats.read_feature_map"]
    m["formats.write_s"] = busy["formats.write_feature_map"]
    m["formats.bytes_read"] = sum(counts["formats.read_feature_map"])
    m["formats.bytes_written"] = sum(counts["formats.write_feature_map"])
    m["gmm.em_fit_s"] = busy["gmm.em_fit"]
    m["gmm.em_iters"] = sum(c[1] for c in counts["gmm.em_fit"])
    m["gmm.em_samples"] = sum(c[0] for c in counts["gmm.em_fit"])
    m["gmm.component_log_densities_s"] = busy["gmm.component_log_densities"]
    m["gmm.component_log_densities_calls"] = calls["gmm.component_log_densities"]
    m["gmm.class_log_densities_s"] = busy["gmm.class_log_densities"]
    m["nig.load_s"] = busy["gmm.load_classifier"] + busy["nig.load_bank"]
    m["nig.build_bank_s"] = busy["nig.build_bank"]
    m["nig.sample_ensemble_s"] = busy["nig.sample_ensemble"]
    m["ensemble.sample_log_densities_s"] = busy["ensemble.sample_log_densities"]
    m["ensemble.sample_log_densities_calls"] = calls["ensemble.sample_log_densities"]
    m["ensemble.logsumexp_s"] = busy["ensemble.logsumexp"]
    m["ensemble.logsumexp_calls"] = calls["ensemble.logsumexp"]
    m["ensemble.reduce_self_s"] = self_s["ensemble.score_samples"]
    m["ensemble.scan_s_p50"] = statistics.median(scan_s) if scan_s else 0.0
    m["ensemble.scan_s_max"] = max(scan_s, default=0.0)
    pixels = sum(counts["ensemble.score_feature_map"])
    m["ensemble.pixels_scored"] = pixels
    gflop = pixels * work_per_pixel * 3 / 1e9
    m["ensemble.logdensity_gflop"] = gflop
    density_s = busy["ensemble.sample_log_densities"] + busy["gmm.class_log_densities"]
    m["ensemble.logdensity_gflops"] = gflop / density_s if density_s else 0.0
    m["metrics.threshold_s"] = busy["metrics.percentile_threshold"]
    m["metrics.ranking_s"] = sum(busy[f"metrics.{f}"] for f in ("auroc", "auprc", "fpr_at_tpr"))
    m["metrics.miou_s"] = busy["metrics.miou"]
    return m
