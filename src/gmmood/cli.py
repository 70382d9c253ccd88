"""Command-line pipeline: project, fit, score, eval, synth.

Runs are driven by an INI config file whose sections mirror RunConfig;
every key can be overridden by a command-line flag (flags win); both
are derived from the section dataclass fields by ``config_keys``.
Exit codes: 0 success, 1 partial per-file failures, 2 configuration or
precondition error.
"""

import argparse
import configparser
import dataclasses
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import ensemble as ens
from . import gmm, metrics, nig, rangeview
from . import synth as synthmod
from .errors import Error, ShapeError, UndefinedMetricError
from .formats import FeatureMap, read_feature_map, write_atomic, write_feature_map

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_CONFIG = 2

SCORE_CHANNELS = ens.UncertaintyMap.SCORE_CHANNELS
# eval report names; max_posterior is negated so that higher = more OOD
REPORT_CHANNELS = tuple(
    "neg_max_posterior" if ch == "max_posterior" else ch for ch in SCORE_CHANNELS
)


@dataclass(frozen=True)
class ClassMap:
    """Raw semantic id -> train id table, plus outlier and ignore ids."""

    train_ids: dict
    outlier_ids: frozenset
    ignore_ids: frozenset

    def __post_init__(self):
        overlap = (set(self.train_ids) & self.outlier_ids) | (
            set(self.train_ids) & self.ignore_ids
        )
        if overlap or (self.outlier_ids & self.ignore_ids):
            raise ValueError("a raw id may appear in only one of train/outlier/ignore")

    @property
    def num_train_classes(self) -> int:
        return max(self.train_ids.values()) + 1 if self.train_ids else 0

    def map_array(self, raw: np.ndarray):
        """Vectorized mapping: (train ids with -1 elsewhere, outlier, ignore).

        Raw ids absent from the table are treated as ignore.
        """
        raw = np.asarray(raw, dtype=np.int64)
        top = max(
            [0, *self.train_ids.keys(), *self.outlier_ids, *self.ignore_ids]
        )
        lut = np.full(top + 2, -1, dtype=np.int64)  # default: ignore
        outlier_lut = np.zeros(top + 2, dtype=bool)
        for rid in self.outlier_ids:
            outlier_lut[rid] = True
        for rid, tid in self.train_ids.items():
            lut[rid] = tid
        clipped = np.clip(raw, 0, top + 1)
        unknown = (raw < 0) | (raw > top)
        train = np.where(unknown, -1, lut[clipped])
        outlier = np.where(unknown, False, outlier_lut[clipped])
        ignore = (train < 0) & ~outlier
        return train, outlier, ignore


# Default table for SemanticKITTI-style raw labels: 19 train classes,
# raw 1 is the outlier class, raw 0/52/99 are ignored, moving classes
# fold into their static counterparts.
DEFAULT_CLASS_MAP = ClassMap(
    train_ids={
        10: 0, 11: 1, 15: 2, 18: 3, 20: 4, 30: 5, 31: 6, 32: 7,
        40: 8, 44: 9, 48: 10, 49: 11, 50: 12, 51: 13, 70: 14, 71: 15,
        72: 16, 80: 17, 81: 18,
        13: 4, 16: 4, 60: 8,
        252: 0, 253: 6, 254: 5, 255: 7, 256: 4, 257: 4, 258: 3, 259: 4,
    },
    outlier_ids=frozenset({1}),
    ignore_ids=frozenset({0, 52, 99}),
)


@dataclass
class PathsConfig:
    scan_dir: str | None = None
    label_dir: str | None = None
    feature_dir: str | None = None
    score_dir: str | None = None
    out_dir: str = "out"
    model_path: str | None = None
    bank_path: str | None = None


@dataclass
class ModelConfig:
    classes: int = 19
    components: int = 2
    feature_dim: int = 32


@dataclass
class EMConfig:
    max_iters: int = 100
    tol: float = 1e-5


@dataclass
class EnsembleConfig:
    n_samples: int = 20
    seed: int = 0


@dataclass
class ThresholdConfig:
    top_fraction: float = 0.05
    per_scan: bool = False

    def __post_init__(self):
        if not 0.0 < self.top_fraction < 1.0:
            raise ValueError(f"top_fraction must be in (0, 1), got {self.top_fraction}")


@dataclass
class RunConfig:
    paths: PathsConfig = field(default_factory=PathsConfig)
    projection: rangeview.ProjectionConfig = field(default_factory=rangeview.ProjectionConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    prior: nig.NIGParams = field(default_factory=lambda: nig.DEFAULT_PRIOR)
    em: EMConfig = field(default_factory=EMConfig)
    ensemble: EnsembleConfig = field(default_factory=EnsembleConfig)
    threshold: ThresholdConfig = field(default_factory=ThresholdConfig)
    class_map: ClassMap = DEFAULT_CLASS_MAP
    synth: synthmod.SynthConfig = field(default_factory=synthmod.SynthConfig)

    def model_path(self) -> Path:
        return Path(self.paths.model_path or Path(self.paths.out_dir) / "model.gmmc")

    def bank_path(self) -> Path:
        return Path(self.paths.bank_path or Path(self.paths.out_dir) / "bank.nigb")


def _parse_overlap_pairs(text: str) -> tuple:
    pairs = []
    for chunk in text.replace(" ", "").split(","):
        if chunk:
            a, _, b = chunk.partition("-")
            pairs.append((int(a), int(b)))
    return tuple(pairs)


def _parse_bool(text: str) -> bool:
    if text.lower() not in configparser.ConfigParser.BOOLEAN_STATES:
        raise ValueError(f"Not a boolean: {text}")
    return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]


# Every config key is a field of a RunConfig section.  Its INI key is the
# field name and its flag is the INI key behind the section's flag prefix;
# these tables hold the only exceptions.
_INI_KEYS = {("prior", f): f + "0" for f in ("mu", "kappa", "alpha", "beta")}
_FLAG_PREFIXES = {"em": "em_", "synth": "synth_"}
_FLAG_DESTS = {
    ("paths", "out_dir"): "out", ("threshold", "per_scan"): "per_scan_threshold",
    ("synth", "feature_dim"): "synth_dim", ("synth", "n_classes"): "synth_classes",
    ("synth", "samples_per_class"): "synth_samples",
    ("synth", "class_separation"): "synth_separation",
    ("synth", "within_class_std"): "synth_std",
}
# a key's parser follows the type of its default value; str otherwise
_PARSERS = {bool: _parse_bool, int: int, float: float, tuple: _parse_overlap_pairs}


def config_keys() -> list:
    """(section, field, INI key, flag dest, parser) for each field of each
    RunConfig section; [class_map] is a raw-id table with its own parser."""
    defaults = RunConfig()
    keys = []
    for sec in (f.name for f in dataclasses.fields(RunConfig) if f.name != "class_map"):
        section = getattr(defaults, sec)
        for f in dataclasses.fields(section):
            ini_key = _INI_KEYS.get((sec, f.name), f.name)
            dest = _FLAG_DESTS.get((sec, f.name), _FLAG_PREFIXES.get(sec, "") + ini_key)
            parse = _PARSERS.get(type(getattr(section, f.name)), str)
            keys.append((sec, f.name, ini_key, dest, parse))
    return keys


def _parse_class_map(items) -> ClassMap:
    train_ids, special = {}, {"outlier": set(), "ignore": set()}
    for key, value in items:
        value = value.strip().lower()
        if value in special:
            special[value].add(int(key))
        else:
            train_ids[int(key)] = int(value)
    return ClassMap(train_ids, frozenset(special["outlier"]), frozenset(special["ignore"]))


def _replace_sections(cfg: RunConfig, values: dict) -> None:
    """Apply {section: {field: value}}; each section re-runs its validation."""
    for sec, fields in values.items():
        setattr(cfg, sec, dataclasses.replace(getattr(cfg, sec), **fields))


def load_run_config(path=None, args=None) -> RunConfig:
    """Build a RunConfig from an INI file (all sections optional), then from
    the flags set in ``args`` (flags win)."""
    cfg = RunConfig()
    ini = configparser.ConfigParser()
    if path is not None and not ini.read(path):
        raise Error(f"cannot read config file {path}")
    known = {(sec, key): (name, parse) for sec, name, key, _, parse in config_keys()}
    values = {}
    for sec in ini.sections():
        if sec == "class_map":
            cfg.class_map = _parse_class_map(ini[sec].items())
            continue
        if sec not in {known_sec for known_sec, _ in known}:
            raise Error(f"{path}: unknown section [{sec}]")
        for ini_key, text in ini[sec].items():
            if (sec, ini_key) in known:
                name, parse = known[sec, ini_key]
                values.setdefault(sec, {})[name] = parse(text)
            elif ini_key not in ini.defaults():  # [DEFAULT] may hold interpolation-only keys
                raise Error(f"{path}: unknown key '{ini_key}' in [{sec}]")
    _replace_sections(cfg, values)
    if args is not None:
        values = {}
        for sec, name, _, dest, _ in config_keys():
            if getattr(args, dest, None) is not None:
                values.setdefault(sec, {})[name] = getattr(args, dest)
        if args.seed is not None:  # the run seed: dataset and pipeline alike
            values.setdefault("synth", {}).setdefault("seed", args.seed)
        _replace_sections(cfg, values)
    return cfg


def _write_json(path: Path, doc) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    write_atomic(path, (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode())


def _write_grid(out: Path, name: str, values, valid) -> str:
    """Write an (H, W) or (H, W, D) array as the FMAP file ``out / name``
    and return ``name``."""
    values = np.asarray(values, dtype=np.float32)
    fmap = FeatureMap(values, valid) if values.ndim == 3 else FeatureMap.from_grid(values, valid)
    write_feature_map(fmap, out / name)
    return name


def _write_report(out: Path, name: str, report: metrics.EvalReport) -> None:
    write_atomic(out / f"eval_{name}.json", report.to_json().encode())
    write_atomic(out / f"eval_{name}.csv", report.to_csv().encode())


def _read_labels(path: Path, shape, class_map: ClassMap) -> tuple:
    """(train ids, outlier, ignore) of the label grid at ``path``, whose
    H x W must be ``shape``; pixels the grid marks invalid are ignored."""
    lmap = read_feature_map(path)
    if lmap.values.shape[:2] != shape:
        raise ShapeError(f"{path.name}: label grid {lmap.values.shape[:2]} does not match {shape}")
    train, outlier, ignore = class_map.map_array(np.round(lmap.grid()).astype(np.int64))
    return train, outlier, ignore | ~lmap.valid


def _require_dir(path, what: str) -> Path:
    if path is None:
        raise Error(f"{what} is not configured")
    p = Path(path)
    if not p.is_dir():
        raise Error(f"{what} {p} does not exist")
    return p


def _each_file(paths, work, jobs: int = 1) -> list:
    """Run ``work(path)`` for every path on ``jobs`` threads.

    Returns, in path order, ``(path, result, None)``, or ``(path, None,
    message)`` for a file whose work raised a library, value or OS error;
    a bad file never stops the others.
    """

    def attempt(path):
        try:
            return path, work(path), None
        except (Error, ValueError, OSError) as exc:
            return path, None, str(exc)

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(attempt, paths))


# ---------------------------------------------------------------------------
# project


def cmd_project(cfg: RunConfig) -> int:
    scan_dir = _require_dir(cfg.paths.scan_dir, "scan_dir")
    label_dir = Path(cfg.paths.label_dir) if cfg.paths.label_dir else None
    out = Path(cfg.paths.out_dir)
    (out / "range").mkdir(parents=True, exist_ok=True)
    (out / "labels").mkdir(parents=True, exist_ok=True)
    outlier_id = min(cfg.class_map.outlier_ids) if cfg.class_map.outlier_ids else 1

    def project_one(scan_path: Path) -> dict:
        cloud = rangeview.parse_point_cloud(scan_path.read_bytes())
        label_path = label_dir / (scan_path.stem + ".label") if label_dir else None
        if label_path is None or not label_path.exists():
            image = rangeview.project_spherical(cloud, None, cfg.projection)
            grid = None
        else:
            labels = rangeview.parse_labels(label_path.read_bytes(), len(cloud), outlier_id)
            image, grid = rangeview.project_spherical(cloud, labels, cfg.projection)
        entry = {
            "scan": scan_path.name,
            "points": len(cloud),
            "dropped_points": image.dropped_points,
            "range_image": _write_grid(
                out, f"range/{scan_path.stem}.fmap", image.channels, image.valid
            ),
        }
        if grid is not None:
            entry["label_grid"] = _write_grid(
                out, f"labels/{scan_path.stem}.fmap", grid, image.valid
            )
        return entry

    done = _each_file(sorted(scan_dir.glob("*.bin")), project_one)
    entries = [entry or {"scan": path.name, "error": error} for path, entry, error in done]
    failed = sum(error is not None for _, _, error in done)
    _write_json(out / "project_manifest.json", {"files": entries, "failed": failed})
    return EXIT_PARTIAL if failed else EXIT_OK


# ---------------------------------------------------------------------------
# fit


def cmd_fit(cfg: RunConfig) -> int:
    feature_dir = _require_dir(cfg.paths.feature_dir, "feature_dir")
    label_dir = _require_dir(cfg.paths.label_dir, "label_dir")
    out = Path(cfg.paths.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    n_classes = cfg.model.classes
    pooled: list[list[np.ndarray]] = [[] for _ in range(n_classes)]
    feature_files = sorted(feature_dir.glob("*.fmap"))
    if not feature_files:
        raise Error(f"no feature files in {feature_dir}")
    for fpath in feature_files:
        fmap = read_feature_map(fpath)
        if fmap.dim != cfg.model.feature_dim:
            raise ShapeError(
                f"{fpath.name}: feature dimension {fmap.dim} != configured "
                f"{cfg.model.feature_dim}"
            )
        train, outlier, ignore = _read_labels(
            label_dir / fpath.name, fmap.valid.shape, cfg.class_map
        )
        usable = fmap.valid & ~outlier & ~ignore
        feats = fmap.values[usable].astype(np.float64)
        ids = train[usable]
        for c in range(n_classes):
            sel = ids == c
            if sel.any():
                pooled[c].append(feats[sel])

    # concatenated one class at a time, so only one pooled copy is alive
    per_class = (
        np.concatenate(parts) if parts else np.empty((0, cfg.model.feature_dim))
        for parts in pooled
    )
    model, stats = gmm.fit_classifier(
        per_class,
        cfg.model.components,
        max_iters=cfg.em.max_iters,
        tol=cfg.em.tol,
        seed=cfg.ensemble.seed,
    )
    report = {
        str(c): {
            "samples": sum(map(len, parts)),
            "em_iterations": int(st.log_likelihoods.size),
            "final_log_likelihood": float(st.log_likelihoods[-1]),
            "reseeds": int(st.reseeds),
        }
        for c, (parts, st) in enumerate(zip(pooled, stats))
    }
    bank = nig.build_bank(model, stats, cfg.prior)
    gmm.save_classifier(model, cfg.model_path())
    nig.save_bank(bank, cfg.bank_path())
    _write_json(out / "fit_report.json", {"classes": report})
    return EXIT_OK


# ---------------------------------------------------------------------------
# score


def cmd_score(cfg: RunConfig, jobs: int = 1) -> int:
    feature_dir = _require_dir(cfg.paths.feature_dir, "feature_dir")
    out = Path(cfg.paths.out_dir)
    for sub in ("scores", "predictions", "ood_masks"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    model = gmm.load_classifier(cfg.model_path())
    bank = nig.load_bank(cfg.bank_path())
    model_shape = model.means.shape
    if bank.mu.shape != model_shape:
        raise ShapeError(
            f"model (C, K, D) = {model_shape} does not match bank (C, K, D) = {bank.mu.shape}"
        )
    members = nig.sample_ensemble(bank, cfg.ensemble.n_samples, cfg.ensemble.seed)

    def score_one(path: Path):
        """Score one feature map and write its score grids and predictions
        at once; return only what its OOD mask needs, and the names."""
        umap = ens.score_feature_map(read_feature_map(path), model, members)
        valid, stem = umap.valid, path.stem
        written = {
            channel: _write_grid(
                out, f"scores/{stem}_{channel}.fmap",
                np.where(valid, getattr(umap, channel), 0.0), valid,
            )
            for channel in SCORE_CHANNELS
        }
        written["predictions"] = _write_grid(
            out, f"predictions/{stem}.fmap", np.where(valid, umap.predicted_class, -1), valid
        )
        return valid, umap.epistemic[valid], written

    done = _each_file(sorted(feature_dir.glob("*.fmap"), key=lambda p: p.stem), score_one, jobs)
    scored = [(path.stem, *result) for path, result, _ in done if result is not None]

    def threshold_of(values):
        if not values.size:
            return None
        return metrics.percentile_threshold(values, cfg.threshold.top_fraction)[0]

    if cfg.threshold.per_scan:
        thresholds = [threshold_of(values) for _, _, values, _ in scored]
    else:
        pooled = [values for _, _, values, _ in scored]
        thresholds = [threshold_of(np.concatenate(pooled or [np.empty(0)]))] * len(scored)

    manifest_files = []
    warnings = []
    for (stem, valid, values, written), threshold in zip(scored, thresholds):
        if not valid.any():
            warnings.append(f"{stem}: no valid pixels")
        mask = np.zeros_like(valid)
        if threshold is not None:
            mask[valid] = values > threshold
        written["ood_mask"] = _write_grid(out, f"ood_masks/{stem}.fmap", mask, valid)
        manifest_files.append(
            {
                "file": stem,
                "n_valid": int(valid.sum()),
                "flagged": int(mask.sum()),
                "threshold": threshold,
                "outputs": written,
            }
        )
    manifest_files += [
        {"file": p.stem, "error": error} for p, _, error in done if error is not None
    ]

    _write_json(
        out / "score_manifest.json",
        {
            "files": manifest_files,
            "warnings": warnings,
            "n_samples": cfg.ensemble.n_samples,
            "top_fraction": cfg.threshold.top_fraction,
            "per_scan": cfg.threshold.per_scan,
        },
    )
    return EXIT_PARTIAL if len(scored) < len(done) else EXIT_OK


# ---------------------------------------------------------------------------
# eval


def cmd_eval(cfg: RunConfig) -> int:
    score_dir = Path(cfg.paths.score_dir or cfg.paths.out_dir)
    label_dir = _require_dir(cfg.paths.label_dir, "label_dir")
    out = Path(cfg.paths.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    pred_dir = score_dir / "predictions"
    if not pred_dir.is_dir():
        raise Error(f"no predictions directory under {score_dir}")

    pred_files = sorted(pred_dir.glob("*.fmap"))
    if not pred_files:
        raise Error(f"no prediction grids in {pred_dir}")

    def eval_one(ppath: Path):
        """(OOD flags, {channel: float32 scores}, predicted ids, true ids)
        of one scan's ranked pixels; the ids cover its in-distribution ones."""
        stem = ppath.stem
        pred_map = read_feature_map(ppath)
        train, outlier, ignore = _read_labels(
            label_dir / f"{stem}.fmap", pred_map.valid.shape, cfg.class_map
        )
        ranked = pred_map.valid & ~ignore
        scores = {}
        for channel in SCORE_CHANNELS:
            grid = read_feature_map(score_dir / "scores" / f"{stem}_{channel}.fmap").grid()
            if grid.shape != ranked.shape:
                raise ShapeError(f"{stem}_{channel}.fmap: grid {grid.shape} != {ranked.shape}")
            scores[channel] = -grid[ranked] if channel == "max_posterior" else grid[ranked]
        id_pixels = ranked & ~outlier
        pred = np.round(pred_map.grid()).astype(np.int64)
        return outlier[ranked], scores, pred[id_pixels], train[id_pixels]

    done = _each_file(pred_files, eval_one)
    for path, _, error in done:
        if error is not None:
            print(f"error: {path.stem}: {error}", file=sys.stderr)
    results = [result for _, result, _ in done if result is not None]
    if not results:
        raise Error(f"no scan in {pred_dir} could be evaluated")
    ood_flags, channel_scores, pred_ids, true_ids = zip(*results)
    is_ood = np.concatenate(ood_flags)
    if not is_ood.any():
        raise UndefinedMetricError(
            "auroc, auprc, fpr95 undefined: ground truth contains no OOD pixels"
        )
    mean_iou, per_class = metrics.miou(
        np.concatenate(pred_ids), np.concatenate(true_ids), cfg.model.classes
    )

    for channel, report_name in zip(SCORE_CHANNELS, REPORT_CHANNELS):
        values = np.concatenate([scores[channel] for scores in channel_scores])
        report = metrics.EvalReport.of(metrics.ScoredPixels(values, is_ood), mean_iou, per_class)
        _write_report(out, report_name, report)
        print(
            f"{report_name}: auroc={report.auroc:.4f} auprc={report.auprc:.4f} "
            f"fpr95={report.fpr95:.4f} miou={report.miou:.4f}"
        )
    return EXIT_PARTIAL if len(results) < len(done) else EXIT_OK


# ---------------------------------------------------------------------------
# synth


def cmd_synth(cfg: RunConfig) -> int:
    out = Path(cfg.paths.out_dir)
    dataset_dir = out / "dataset"
    dataset_dir.mkdir(parents=True, exist_ok=True)

    ds = synthmod.generate(cfg.synth)
    for ci, feats in enumerate(ds.train_features):
        _write_grid(dataset_dir, f"train_class{ci}.fmap", feats[None], np.ones((1, len(feats)), bool))
    everywhere = np.ones((1, len(ds.eval_labels)), bool)
    _write_grid(dataset_dir, "eval_features.fmap", ds.eval_features[None], everywhere)
    _write_grid(dataset_dir, "eval_labels.fmap", ds.eval_labels[None], everywhere)
    _write_grid(dataset_dir, "eval_is_ood.fmap", ds.eval_is_ood[None], everywhere)
    _write_json(dataset_dir / "generating_params.json", ds.generating_params)

    result = synthmod.run_benchmark(
        ds,
        n_components=cfg.model.components,
        prior=cfg.prior,
        n_samples=cfg.ensemble.n_samples,
        seed=cfg.ensemble.seed,
        em_max_iters=cfg.em.max_iters,
        em_tol=cfg.em.tol,
    )
    _write_report(out, "epistemic", result.epistemic)
    _write_report(out, "predictive", result.predictive)
    summary = result.delta_summary()
    _write_json(out / "delta_summary.json", summary)
    print(
        f"epistemic auroc={result.epistemic.auroc:.4f} "
        f"predictive auroc={result.predictive.auroc:.4f} "
        f"delta={summary['auroc_delta']:+.4f} "
        f"accuracy={summary['point_accuracy']:.4f}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmmood",
        description="Range-view OOD detection with Bayesian GMM ensembles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("project", "project raw scans to range-view images and label grids"),
        ("fit", "fit per-class GMMs and the NIG posterior bank"),
        ("score", "score feature maps and emit OOD masks"),
        ("eval", "evaluate score maps against ground truth"),
        ("synth", "generate a synthetic dataset and run the benchmark"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", type=str, default=None)
        if name == "score":
            cmd.add_argument("--jobs", type=_positive_int, default=1)
        for _, _, _, dest, parse in config_keys():
            flag = "--" + dest.replace("_", "-")
            if parse is _parse_bool:
                cmd.add_argument(flag, action=argparse.BooleanOptionalAction, default=None)
            else:
                cmd.add_argument(flag, type=parse, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_run_config(args.config, args)
        if args.command == "project":
            return cmd_project(cfg)
        if args.command == "fit":
            return cmd_fit(cfg)
        if args.command == "score":
            return cmd_score(cfg, jobs=args.jobs)
        if args.command == "eval":
            return cmd_eval(cfg)
        if args.command == "synth":
            return cmd_synth(cfg)
        raise Error(f"unknown command {args.command}")
    except (Error, ValueError, configparser.Error, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
