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
from .formats import FeatureMap, read_feature_map, write_feature_map

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
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _require_dir(path, what: str) -> Path:
    if path is None:
        raise Error(f"{what} is not configured")
    p = Path(path)
    if not p.is_dir():
        raise Error(f"{what} {p} does not exist")
    return p


# ---------------------------------------------------------------------------
# project


def _project_one(scan_path: Path, label_path, cfg: RunConfig):
    cloud = rangeview.parse_point_cloud(scan_path.read_bytes())
    labels = None
    if label_path is not None:
        outlier_id = min(cfg.class_map.outlier_ids) if cfg.class_map.outlier_ids else 1
        labels = rangeview.parse_labels(label_path.read_bytes(), len(cloud), outlier_id)
    if labels is None:
        image = rangeview.project_spherical(cloud, None, cfg.projection)
        grid = None
    else:
        image, grid = rangeview.project_spherical(cloud, labels, cfg.projection)
    return cloud, image, grid


def cmd_project(cfg: RunConfig) -> int:
    scan_dir = _require_dir(cfg.paths.scan_dir, "scan_dir")
    label_dir = Path(cfg.paths.label_dir) if cfg.paths.label_dir else None
    out = Path(cfg.paths.out_dir)
    (out / "range").mkdir(parents=True, exist_ok=True)
    (out / "labels").mkdir(parents=True, exist_ok=True)

    scans = sorted(scan_dir.glob("*.bin"))
    entries = []
    failed = 0
    for scan_path in scans:
        label_path = None
        if label_dir is not None:
            candidate = label_dir / (scan_path.stem + ".label")
            label_path = candidate if candidate.exists() else None
        entry = {"scan": scan_path.name}
        try:
            cloud, image, grid = _project_one(scan_path, label_path, cfg)
            range_file = out / "range" / (scan_path.stem + ".fmap")
            write_feature_map(FeatureMap(image.channels, image.valid), range_file)
            entry.update(
                points=len(cloud),
                dropped_points=image.dropped_points,
                range_image=str(range_file.relative_to(out)),
            )
            if grid is not None:
                label_file = out / "labels" / (scan_path.stem + ".fmap")
                write_feature_map(
                    FeatureMap.from_grid(grid.astype(np.float32), image.valid), label_file
                )
                entry["label_grid"] = str(label_file.relative_to(out))
        except (Error, ValueError, OSError) as exc:
            entry["error"] = str(exc)
            failed += 1
        entries.append(entry)

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
        lpath = label_dir / fpath.name
        if not lpath.exists():
            raise Error(f"missing label grid for {fpath.name}")
        fmap = read_feature_map(fpath)
        lmap = read_feature_map(lpath)
        if fmap.dim != cfg.model.feature_dim:
            raise ShapeError(
                f"{fpath.name}: feature dimension {fmap.dim} != configured "
                f"{cfg.model.feature_dim}"
            )
        if lmap.values.shape[:2] != fmap.values.shape[:2]:
            raise ShapeError(f"{fpath.name}: label grid shape mismatch")
        raw = np.round(lmap.grid()).astype(np.int64)
        train, outlier, ignore = cfg.class_map.map_array(raw)
        usable = fmap.valid & lmap.valid & ~outlier & ~ignore & (train >= 0)
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


def _score_grid_files(umap: ens.UncertaintyMap, stem: str, out: Path) -> dict:
    written = {}
    for channel in SCORE_CHANNELS:
        values = getattr(umap, channel)
        grid = np.where(umap.valid, values, 0.0).astype(np.float32)
        path = out / "scores" / f"{stem}_{channel}.fmap"
        write_feature_map(FeatureMap.from_grid(grid, umap.valid), path)
        written[channel] = str(path.relative_to(out))
    pred_path = out / "predictions" / f"{stem}.fmap"
    pred = np.where(umap.valid, umap.predicted_class, -1).astype(np.float32)
    write_feature_map(FeatureMap.from_grid(pred, umap.valid), pred_path)
    written["predictions"] = str(pred_path.relative_to(out))
    return written


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

    files = sorted(feature_dir.glob("*.fmap"))

    def process(path: Path):
        """(stem, UncertaintyMap) or, for a bad file, (stem, error message)."""
        try:
            return path.stem, ens.score_feature_map(read_feature_map(path), model, members)
        except (Error, OSError) as exc:
            return path.stem, str(exc)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(process, files))
    else:
        outcomes = list(map(process, files))
    results = {stem: r for stem, r in outcomes if not isinstance(r, str)}
    errors = {stem: r for stem, r in outcomes if isinstance(r, str)}

    manifest_files = []
    warnings = []
    stems = sorted(results)
    scores = {stem: results[stem].epistemic[results[stem].valid] for stem in stems}

    def threshold_of(values):
        if not values.size:
            return None
        return metrics.percentile_threshold(values, cfg.threshold.top_fraction)[0]

    if cfg.threshold.per_scan:
        thresholds = {stem: threshold_of(values) for stem, values in scores.items()}
    else:
        pooled = np.concatenate(list(scores.values())) if scores else np.empty(0)
        thresholds = dict.fromkeys(stems, threshold_of(pooled))

    for stem in stems:
        umap = results[stem]
        written = _score_grid_files(umap, stem, out)
        threshold = thresholds.get(stem)
        if not umap.valid.any():
            warnings.append(f"{stem}: no valid pixels")
        if threshold is None:
            mask = np.zeros_like(umap.valid)
        else:
            mask = umap.valid & (umap.epistemic > threshold)
        mask_path = out / "ood_masks" / f"{stem}.fmap"
        write_feature_map(
            FeatureMap.from_grid(mask.astype(np.float32), umap.valid), mask_path
        )
        written["ood_mask"] = str(mask_path.relative_to(out))
        manifest_files.append(
            {
                "file": stem,
                "n_valid": int(umap.valid.sum()),
                "flagged": int(mask.sum()),
                "threshold": threshold,
                "outputs": written,
            }
        )
    for stem, message in sorted(errors.items()):
        manifest_files.append({"file": stem, "error": message})

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
    return EXIT_PARTIAL if errors else EXIT_OK


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

    channel_scores = {name: [] for name in SCORE_CHANNELS}
    ood_flags = []
    miou_pred = []
    miou_gt = []
    for ppath in pred_files:
        stem = ppath.stem
        gt_path = label_dir / f"{stem}.fmap"
        if not gt_path.exists():
            raise Error(f"missing ground-truth label grid for {stem}")
        pred_map = read_feature_map(ppath)
        gt_map = read_feature_map(gt_path)
        if gt_map.values.shape[:2] != pred_map.values.shape[:2]:
            raise ShapeError(f"{stem}: ground-truth shape mismatch")
        score_maps = {}
        for channel in SCORE_CHANNELS:
            spath = score_dir / "scores" / f"{stem}_{channel}.fmap"
            if not spath.exists():
                raise Error(f"missing score map {spath.name}")
            score_maps[channel] = read_feature_map(spath)

        valid = pred_map.valid & gt_map.valid
        raw = np.round(gt_map.grid()).astype(np.int64)
        train, outlier, ignore = cfg.class_map.map_array(raw)
        ranked = valid & ~ignore
        ood_flags.append(outlier[ranked])
        for channel in SCORE_CHANNELS:
            values = score_maps[channel].grid().astype(np.float64)[ranked]
            if channel == "max_posterior":
                values = -values
            channel_scores[channel].append(values)

        id_pixels = ranked & ~outlier
        miou_pred.append(np.round(pred_map.grid()).astype(np.int64)[id_pixels])
        miou_gt.append(train[id_pixels])

    is_ood = np.concatenate(ood_flags)
    if not is_ood.any():
        raise UndefinedMetricError(
            "auroc, auprc, fpr95 undefined: ground truth contains no OOD pixels"
        )
    mean_iou, per_class = metrics.miou(
        np.concatenate(miou_pred), np.concatenate(miou_gt), cfg.model.classes
    )

    for channel, report_name in zip(SCORE_CHANNELS, REPORT_CHANNELS):
        data = metrics.ScoredPixels(np.concatenate(channel_scores[channel]), is_ood)
        report = metrics.EvalReport(
            auroc=metrics.auroc(data),
            auprc=metrics.auprc(data),
            fpr95=metrics.fpr_at_tpr(data),
            miou=mean_iou,
            per_class_iou=per_class,
            n_id=data.n_id,
            n_ood=data.n_ood,
        )
        (out / f"eval_{report_name}.json").write_text(report.to_json())
        (out / f"eval_{report_name}.csv").write_text(report.to_csv())
        print(
            f"{report_name}: auroc={report.auroc:.4f} auprc={report.auprc:.4f} "
            f"fpr95={report.fpr95:.4f} miou={report.miou:.4f}"
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# synth


def cmd_synth(cfg: RunConfig) -> int:
    out = Path(cfg.paths.out_dir)
    dataset_dir = out / "dataset"
    dataset_dir.mkdir(parents=True, exist_ok=True)

    ds = synthmod.generate(cfg.synth)
    for ci, feats in enumerate(ds.train_features):
        fmap = FeatureMap(feats[None, :, :].astype(np.float32), np.ones((1, feats.shape[0]), bool))
        write_feature_map(fmap, dataset_dir / f"train_class{ci}.fmap")
    n_eval = ds.eval_features.shape[0]
    write_feature_map(
        FeatureMap(ds.eval_features[None].astype(np.float32), np.ones((1, n_eval), bool)),
        dataset_dir / "eval_features.fmap",
    )
    write_feature_map(
        FeatureMap.from_grid(ds.eval_labels[None].astype(np.float32), np.ones((1, n_eval), bool)),
        dataset_dir / "eval_labels.fmap",
    )
    write_feature_map(
        FeatureMap.from_grid(ds.eval_is_ood[None].astype(np.float32), np.ones((1, n_eval), bool)),
        dataset_dir / "eval_is_ood.fmap",
    )
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
    (out / "eval_epistemic.json").write_text(result.epistemic.to_json())
    (out / "eval_epistemic.csv").write_text(result.epistemic.to_csv())
    (out / "eval_predictive.json").write_text(result.predictive.to_json())
    (out / "eval_predictive.csv").write_text(result.predictive.to_csv())
    _write_json(out / "delta_summary.json", result.delta_summary())
    summary = result.delta_summary()
    print(
        f"epistemic auroc={result.epistemic.auroc:.4f} "
        f"predictive auroc={result.predictive.auroc:.4f} "
        f"delta={summary['auroc_delta']:+.4f} "
        f"accuracy={summary['point_accuracy']:.4f}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


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
        cmd.add_argument("--jobs", type=int, default=1)
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
