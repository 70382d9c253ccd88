"""Command-line pipeline: project, fit, score, eval, synth.

Runs are driven by an INI config file whose sections mirror RunConfig;
every key can be overridden by a command-line flag (flags win); both
are derived from the section dataclass fields into ``CONFIG_KEYS``.
Exit codes: 0 success, 1 partial per-file failures, 2 configuration or
precondition error.
"""

import argparse
import configparser
import dataclasses
import json
import math
import sys
from collections import namedtuple
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import ensemble as ens
from . import _blas, gmm, metrics, nig, rangeview
from . import synth as synthmod
from .errors import Error, LabelCountError, ShapeError
from .formats import (
    FeatureMap, _read_container, _shown, read_feature_map, write_atomic, write_feature_map,
)

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_CONFIG = 2
# what a run, or one file's work in it, reports as an ``error:`` line
_FAILURES = (Error, ValueError, OSError, MemoryError)

# eval report name and sign of each score channel: max_posterior is
# negated so that higher = more OOD
REPORT_CHANNELS = {
    ch: ("neg_" + ch, -1) if ch == "max_posterior" else (ch, 1) for ch in ens.SCORE_CHANNELS
}
# raw semantic ids are the low 16 bits of a label record (``rangeview``)
RAW_ID_MAX = 0xFFFF
# a label grid reads as one code per pixel: its train id (>= 0) or one of these
IGNORE = -1
OUTLIER = -2
# where ``score`` writes a scan's one-channel grids; ``eval`` reads the first two
SCORE_FILE = "scores/{stem}_{channel}.fmap"
_PREDICTION_FILE = "predictions/{stem}.fmap"
_MASK_FILE = "ood_masks/{stem}.fmap"


@dataclass(frozen=True)
class ClassMap:
    """Raw semantic id -> train id table, plus outlier and ignore ids."""

    train_ids: dict
    outlier_ids: frozenset
    ignore_ids: frozenset
    # code of each raw id in [0, RAW_ID_MAX] (its train id, OUTLIER, or
    # IGNORE, also when absent), then IGNORE for every id outside
    codes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ids = [*self.train_ids, *self.outlier_ids, *self.ignore_ids]
        for rid in sorted(set(ids)):
            if not 0 <= rid <= RAW_ID_MAX:
                raise ValueError(f"'{rid}' in [class_map]: raw id must be in [0, {RAW_ID_MAX}]")
        for rid, tid in sorted(self.train_ids.items()):
            if not 0 <= tid < 2**63:  # an int64 in the table
                bound = "at least 0" if tid < 0 else "below 2**63"
                raise ValueError(f"'{rid}' in [class_map]: train id must be {bound}, got {tid}")
        if len(ids) > len(set(ids)):
            raise ValueError("a raw id may appear in only one of train/outlier/ignore")
        codes = np.full(RAW_ID_MAX + 2, IGNORE, dtype=np.int64)
        codes[list(self.outlier_ids)] = OUTLIER
        codes[list(self.train_ids)] = list(self.train_ids.values())
        object.__setattr__(self, "codes", codes)

    def map_array(self, raw: np.ndarray) -> np.ndarray:
        """The int64 code of each raw id: its train id, OUTLIER or IGNORE.

        Raw ids absent from the table or outside [0, RAW_ID_MAX] are
        treated as ignore; float ids are cut to integers.
        """
        # clipped before the cast; -1 and RAW_ID_MAX + 1 read the last entry
        return self.codes[np.clip(np.asarray(raw), -1, RAW_ID_MAX + 1).astype(np.int64)]


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
        if not 0.0 < (value := self.top_fraction) < 1.0:
            raise ValueError(f"'top_fraction' in [threshold] must be in (0, 1), got {value}")


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


# a key's flag is ``--`` and its dest with ``-`` for ``_``
ConfigKey = namedtuple("ConfigKey", "section field ini_key dest parse")


def _config_keys() -> dict:
    defaults = RunConfig()
    keys = {}
    for sec in (f.name for f in dataclasses.fields(RunConfig) if f.name != "class_map"):
        section = getattr(defaults, sec)
        for f in dataclasses.fields(section):
            ini_key = _INI_KEYS.get((sec, f.name), f.name)
            dest = _FLAG_DESTS.get((sec, f.name), _FLAG_PREFIXES.get(sec, "") + ini_key)
            parse = _PARSERS.get(type(getattr(section, f.name)), str)
            keys[sec, ini_key] = ConfigKey(sec, f.name, ini_key, dest, parse)
    return keys


# (section, INI key) -> ConfigKey for each field of each RunConfig section;
# [class_map] is a raw-id table with its own parser
CONFIG_KEYS = _config_keys()
# (section, INI key) -> least value of each bounded key of cli's own sections
_LEAST = {("model", "classes"): 1, ("model", "components"): 1, ("model", "feature_dim"): 1,
          ("em", "max_iters"): 1, ("em", "tol"): 0, ("ensemble", "n_samples"): 1,
          ("ensemble", "seed"): 0}


def _parse_key(sec: str, key: str, parse, text: str):
    """``parse(text)``, whose ``ValueError`` names INI key ``key`` of [``sec``]."""
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"'{key}' in [{sec}]: {exc}") from exc


def _parse_class_map(items) -> ClassMap:
    train_ids, special, keys = {}, {"outlier": set(), "ignore": set()}, {}
    for key, value in items:
        value = value.strip().lower()
        raw = _parse_key("class_map", key, int, key)
        if (first := keys.setdefault(raw, key)) != key:
            raise ValueError(f"'{key}' in [class_map] is raw id {raw}, as '{first}' is")
        if value in special:
            special[value].add(raw)
        else:
            train_ids[raw] = _parse_key("class_map", key, int, value)
    return ClassMap(train_ids, frozenset(special["outlier"]), frozenset(special["ignore"]))


def _replace_sections(cfg: RunConfig, values: dict) -> None:
    """Apply {section: {ConfigKey: value}}; each section re-runs its validation, after
    an empty flag, a non-finite float or a value below ``_LEAST`` is refused by its INI key."""
    for sec, fields in values.items():
        for key, value in fields.items():
            if isinstance(value, list):  # ``--flag=--``: argparse drops the "--"
                raise ValueError(f"'{key.ini_key}' in [{sec}] has no value")
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"'{key.ini_key}' in [{sec}] must be finite, got {value}")
            if (low := _LEAST.get((sec, key.ini_key))) is not None and value < low:
                raise ValueError(f"'{key.ini_key}' in [{sec}] must be at least {low}, got {value}")
        fields = {key.field: value for key, value in fields.items()}
        setattr(cfg, sec, dataclasses.replace(getattr(cfg, sec), **fields))


def load_run_config(path=None, args=None) -> RunConfig:
    """Build a RunConfig from an INI file (all sections optional), parsed as
    read, and the flags set in ``args`` (flags win); then check once."""
    cfg = RunConfig()
    ini = configparser.ConfigParser()
    try:
        if path is not None and not ini.read(path, encoding="utf-8"):
            raise Error(f"cannot read config file {path}")
    except UnicodeDecodeError as exc:
        raise Error(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    values = {}
    for sec in ini.sections():
        # [class_map] reads the keys written in it only: every public view of
        # a section (items(), keys(), options()) merges in [DEFAULT]'s keys, so
        # the names come from configparser's own per-section dict; the values
        # still interpolate
        if sec == "class_map":
            cfg.class_map = _parse_class_map((key, ini[sec][key]) for key in ini._sections[sec])
            continue
        if sec not in {known for known, _ in CONFIG_KEYS}:
            raise Error(f"{path}: unknown section [{sec}]")
        for ini_key, text in ini[sec].items():
            if (key := CONFIG_KEYS.get((sec, ini_key))) is not None:
                values.setdefault(sec, {})[key] = _parse_key(sec, ini_key, key.parse, text)
            elif ini_key not in ini.defaults():  # [DEFAULT] may hold interpolation-only keys
                raise Error(f"{path}: unknown key '{ini_key}' in [{sec}]")
    if args is not None:
        for key in CONFIG_KEYS.values():
            if (value := getattr(args, key.dest)) is not None:
                values.setdefault(key.section, {})[key] = value
        if args.seed is not None and args.synth_seed is None:  # the run seed seeds the data too
            values.setdefault("synth", {})[CONFIG_KEYS["synth", "seed"]] = args.seed
    _replace_sections(cfg, values)
    return cfg


def _write_json(path: Path, doc) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    write_atomic(path, (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode())


def _write_grid(out: Path, name: str, values, valid) -> str:
    """Write an (H, W) or (H, W, D) array as the FMAP file ``out / name``
    and return ``name``."""
    write_feature_map(FeatureMap(np.atleast_3d(values), valid), out / name)
    return name


def _write_report(out: Path, name: str, report: metrics.EvalReport) -> None:
    write_atomic(out / f"eval_{name}.json", report.to_json().encode())
    write_atomic(out / f"eval_{name}.csv", report.to_csv().encode())


def _read_grid(path: Path, shape=None) -> tuple:
    """(H x W values, validity mask) of the one-channel FMAP file at
    ``path``, whose H x W must be ``shape`` when one is given."""
    fmap = read_feature_map(path)
    if fmap.dim != 1 or shape not in (None, fmap.valid.shape):
        want = (*shape, 1) if shape else "D = 1"
        raise ShapeError(f"{_shown(path)}: (H, W, D) = {fmap.values.shape}, expected {want}")
    return fmap.values[:, :, 0], fmap.valid


def _read_labels(path: Path, shape, cfg: RunConfig) -> np.ndarray:
    """The code grid (``ClassMap.map_array``) of the label grid at
    ``path``, whose H x W must be ``shape``; pixels the grid marks invalid
    are ignored and never read, and an id beyond the raw range is one
    absent from the table (ignored).  A train id not below ``classes``
    is refused wherever the grid holds it."""
    grid, valid = _read_grid(path, shape)
    code = np.full(shape, IGNORE, dtype=np.int64)
    code[valid] = cfg.class_map.map_array(np.round(grid[valid]))
    if (top := code.max(initial=IGNORE)) >= cfg.model.classes:
        raise Error(f"{_shown(path)}: train id {top} is not below classes = {cfg.model.classes}")
    return code


def _require_classes_in_map(cfg: RunConfig) -> None:
    """Refuse, before any scan is read, classes no label pixel can carry."""
    top = max(cfg.class_map.train_ids.values(), default=-1)
    if cfg.model.classes > top + 1:
        raise Error(f"'classes' in [model] must be at most {top + 1} (the class map's largest "
                    f"train id + 1), got {cfg.model.classes}")


def _read_features(path: Path, dim: int) -> FeatureMap:
    """The FMAP feature map at ``path``, whose D must be ``dim``."""
    fmap = read_feature_map(path)
    if fmap.dim != dim:
        raise ShapeError(f"{_shown(path)}: feature dimension {fmap.dim}, expected {dim}")
    return fmap


def _require_dir(path, what: str) -> Path:
    if path is None:
        raise Error(f"{what} is not configured")
    p = Path(path)
    if not p.is_dir():
        raise Error(f"{what} {p} does not exist")
    return p


def _each_file(paths, work, mapper=map) -> list:
    """Run ``work(path)`` for each path through ``mapper``: in turn on the
    calling thread by default, or on every core with
    ``_blas.map_on_cores``, as ``project`` and ``eval`` do, where the
    calling thread and one helper per other core each take the next file
    in turn; ``score`` keeps its scans in turn, since each spreads its
    blocks over every core itself (``ensemble``).

    Returns, in path order, ``(path, result, None)``, or ``(path, None,
    message)`` for a file whose work raised a library, value, OS or
    allocation error, and prints each message on stderr, in the same
    order; a bad file never stops the others.  A refused allocation names
    no file, so its message is prefixed with the file's ``<dir>/<name>``.
    """

    def attempt(path):
        try:
            return path, work(path), None
        except _FAILURES as exc:
            message = str(exc) or type(exc).__name__
            if isinstance(exc, MemoryError):
                message = f"{_shown(path)}: {message}"
            return path, None, message

    done = list(mapper(attempt, paths))
    for _, _, error in done:
        if error is not None:
            print(f"error: {error}", file=sys.stderr)
    return done


# ---------------------------------------------------------------------------
# project


def cmd_project(cfg: RunConfig) -> int:
    scan_dir = _require_dir(cfg.paths.scan_dir, "scan_dir")
    label_dir = _require_dir(cfg.paths.label_dir, "label_dir") if cfg.paths.label_dir else None
    out = Path(cfg.paths.out_dir)
    (out / "range").mkdir(parents=True, exist_ok=True)
    (out / "labels").mkdir(parents=True, exist_ok=True)

    def project_one(scan_path: Path) -> dict:
        # parsed, not projected, in the reader: the file's buffer is freed first
        cloud = _read_container(scan_path, rangeview.parse_point_cloud)
        if not len(cloud):
            raise Error(f"{_shown(scan_path)}: cannot project an empty point cloud")
        labels = None
        if label_dir and (label_path := label_dir / f"{scan_path.stem}.label").exists():
            try:
                labels = _read_container(label_path,
                                         lambda b: rangeview.parse_labels(b, len(cloud)))
            except LabelCountError as exc:  # the scan may be the file cut or grown
                raise LabelCountError(f"{exc} of {_shown(scan_path)}") from None
        image = rangeview.project_spherical(cloud, cfg.projection)
        name = f"{scan_path.stem}.fmap"
        entry = {
            "scan": scan_path.name,
            "points": len(cloud),
            "dropped_points": image.dropped_points,
            "range_image": _write_grid(out, f"range/{name}", image.channels, image.valid),
        }
        if labels is not None:
            grid = np.where(image.valid, labels[image.point_index], -1)
            entry["label_grid"] = _write_grid(out, f"labels/{name}", grid, image.valid)
        return entry

    done = _each_file(sorted(scan_dir.glob("*.bin")), project_one, _blas.map_on_cores)
    entries = [entry or {"scan": path.name, "error": error} for path, entry, error in done]
    failed = sum(error is not None for _, _, error in done)
    _write_json(out / "project_manifest.json", {"files": entries, "failed": failed})
    return EXIT_PARTIAL if failed else EXIT_OK


# ---------------------------------------------------------------------------
# fit


def cmd_fit(cfg: RunConfig) -> int:
    feature_dir = _require_dir(cfg.paths.feature_dir, "feature_dir")
    label_dir = _require_dir(cfg.paths.label_dir, "label_dir")
    _require_classes_in_map(cfg)
    n_classes = cfg.model.classes
    feature_files = sorted(feature_dir.glob("*.fmap"))
    if not feature_files:
        raise Error(f"no feature files in {feature_dir}")
    out = Path(cfg.paths.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def read_scan(fpath: Path) -> list:
        """The usable float32 rows of one training scan, grouped by train
        id with one stable sort: part c holds class c's rows in pixel
        order.  The ids are narrowed to the smallest type that holds
        ``classes``, so that at up to 16 bits numpy radix-sorts them."""
        fmap = _read_features(fpath, cfg.model.feature_dim)
        code = _read_labels(label_dir / fpath.name, fmap.valid.shape, cfg)
        pixels = np.flatnonzero(fmap.valid & (code >= 0))
        ids = code.ravel()[pixels].astype(np.min_scalar_type(n_classes))
        order = np.argsort(ids, kind="stable")
        rows = fmap.values.reshape(-1, fmap.dim)[pixels[order]]
        return np.split(rows, np.searchsorted(ids[order], np.arange(1, n_classes)))

    # each scan read, label-mapped and grouped on the pool; a class is its
    # parts in file order, so EM sees the rows a serial read would give,
    # kept in float32 as read: the thread that fits a class widens its
    # parts straight into the one float64 operand EM reads
    scans = _blas.map_on_cores(read_scan, feature_files)
    per_class = [[parts[c] for parts in scans] for c in range(n_classes)]
    model, stats = gmm.fit_classifier(
        per_class,
        cfg.model.components,
        max_iters=cfg.em.max_iters,
        tol=cfg.em.tol,
        seed=cfg.ensemble.seed,
    )
    report = {
        str(c): {
            "samples": sum(len(part) for part in parts),
            "em_iterations": int(st.log_likelihoods.size),
            "final_log_likelihood": float(st.log_likelihoods[-1]),
            "reseeds": int(st.reseeds),
        }
        for c, (parts, st) in enumerate(zip(per_class, stats))
    }
    bank = nig.build_bank(model, stats, cfg.prior)
    gmm.save_classifier(model, cfg.model_path())
    nig.save_bank(bank, cfg.bank_path())
    _write_json(out / "fit_report.json", {"classes": report})
    return EXIT_OK


# ---------------------------------------------------------------------------
# score


def cmd_score(cfg: RunConfig) -> int:
    feature_dir = _require_dir(cfg.paths.feature_dir, "feature_dir")
    out = Path(cfg.paths.out_dir)
    model = gmm.load_classifier(cfg.model_path())
    bank = nig.load_bank(cfg.bank_path())
    # build_bank copies the model's weights bit for bit; K = 1 weights are
    # all 1, so such a bank from another fit is not told apart here
    same_shape = bank.mu.shape == model.means.shape
    if not (same_shape and np.array_equal(bank.weights, model.weights)):
        why = "their mixture weights differ" if same_shape else (
            f"model (C, K, D) = {model.means.shape} but bank (C, K, D) = {bank.mu.shape}"
        )
        raise Error(f"bank {cfg.bank_path()} was not built from model {cfg.model_path()}: {why}")
    members = nig.sample_ensemble(bank, cfg.ensemble.n_samples, cfg.ensemble.seed)
    ens._stack(members, model)  # coefficients that overflow stop the run before its first scan
    for name in (SCORE_FILE, _PREDICTION_FILE, _MASK_FILE):
        (out / name).parent.mkdir(parents=True, exist_ok=True)

    def score_one(path: Path):
        """Score one feature map and write its score grids and predictions
        at once; return only what its OOD mask needs, and the names."""
        umap = ens.score_feature_map(_read_features(path, model.feature_dim), model, members)
        valid, stem = umap.valid, path.stem
        written = {
            channel: _write_grid(out, SCORE_FILE.format(stem=stem, channel=channel),
                                 np.where(valid, getattr(umap, channel), 0.0), valid)
            for channel in ens.SCORE_CHANNELS
        }
        written["predictions"] = _write_grid(
            out, _PREDICTION_FILE.format(stem=stem), umap.predicted_class, valid
        )
        return valid, umap.epistemic[valid], written

    done = _each_file(sorted(feature_dir.glob("*.fmap"), key=lambda p: p.stem), score_one)
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

    manifest_files, warnings = [], []
    for (stem, valid, values, written), threshold in zip(scored, thresholds):
        if not valid.any():
            warnings.append(f"{stem}: no valid pixels")
        mask = np.zeros_like(valid)
        if threshold is not None:
            mask[valid] = values > threshold
        written["ood_mask"] = _write_grid(out, _MASK_FILE.format(stem=stem), mask, valid)
        manifest_files.append({"file": stem, "n_valid": int(valid.sum()),
                               "flagged": int(mask.sum()), "threshold": threshold,
                               "outputs": written})
    manifest_files += [{"file": p.stem, "error": error} for p, _, error in done if error]
    _write_json(out / "score_manifest.json", {
        "files": manifest_files, "warnings": warnings, "n_samples": cfg.ensemble.n_samples,
        "top_fraction": cfg.threshold.top_fraction, "per_scan": cfg.threshold.per_scan,
    })
    return EXIT_PARTIAL if len(scored) < len(done) else EXIT_OK


# ---------------------------------------------------------------------------
# eval


def cmd_eval(cfg: RunConfig) -> int:
    score_dir = Path(cfg.paths.score_dir or cfg.paths.out_dir)
    label_dir = _require_dir(cfg.paths.label_dir, "label_dir")
    _require_classes_in_map(cfg)
    pred_dir = (score_dir / _PREDICTION_FILE).parent
    pred_files = sorted(score_dir.glob(_PREDICTION_FILE.format(stem="*")))
    if not pred_files:
        raise Error(f"no prediction grids in {pred_dir}")
    out = Path(cfg.paths.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def eval_one(ppath: Path):
        """(OOD flags, {channel: float32 scores}, predicted ids, true ids)
        of one scan's ranked pixels; the ids cover its in-distribution ones,
        and a predicted id must lie in [0, classes)."""
        stem = ppath.stem
        pred_grid, valid = _read_grid(ppath)
        code = _read_labels(label_dir / f"{stem}.fmap", valid.shape, cfg)
        ranked = valid & (code != IGNORE)
        scores = {}
        for channel, (_, sign) in REPORT_CHANNELS.items():
            spath = score_dir / SCORE_FILE.format(stem=stem, channel=channel)
            grid, svalid = _read_grid(spath, valid.shape)
            if (svalid != valid).any():
                raise Error(f"{_shown(spath)}: validity mask differs from {_shown(ppath)}'s")
            scores[channel] = sign * grid[ranked]
        id_pixels = valid & (code >= 0)
        pred = np.round(pred_grid[id_pixels])
        bad = pred[(pred < 0) | (pred >= cfg.model.classes)]
        if bad.size:
            raise Error(
                f"{_shown(ppath)}: predicted id {bad[0]:g} at an in-distribution pixel is "
                f"not in [0, classes = {cfg.model.classes})"
            )
        return code[ranked] == OUTLIER, scores, pred.astype(np.int64), code[id_pixels]

    done = _each_file(pred_files, eval_one, _blas.map_on_cores)
    results = [result for _, result, _ in done if result is not None]
    if not results:
        raise Error(f"no scan in {pred_dir} could be evaluated")
    ood_flags, channel_scores, pred_ids, true_ids = zip(*results)
    is_ood = np.concatenate(ood_flags)
    mean_iou, per_class = metrics.miou(
        np.concatenate(pred_ids), np.concatenate(true_ids), cfg.model.classes
    )

    for channel, (report_name, _) in REPORT_CHANNELS.items():
        values = np.concatenate([scores[channel] for scores in channel_scores])
        report = metrics.EvalReport.of(metrics.ScoredPixels(values, is_ood), mean_iou, per_class)
        _write_report(out, report_name, report)
        terms = [f"{name}={getattr(report, name):.4f}" for name in (*metrics.DETECTION, "miou")]
        print(f"{report_name}: " + " ".join(terms))
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


COMMANDS = {
    "project": (cmd_project, "project raw scans to range-view images and label grids"),
    "fit": (cmd_fit, "fit per-class GMMs and the NIG posterior bank"),
    "score": (cmd_score, "score feature maps and emit OOD masks"),
    "eval": (cmd_eval, "evaluate score maps against ground truth"),
    "synth": (cmd_synth, "generate a synthetic dataset and run the benchmark"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmmood",
        description="Range-view OOD detection with Bayesian GMM ensembles.",
        usage="%(prog)s {" + ",".join(COMMANDS) + "} [options]",
        formatter_class=argparse.RawTextHelpFormatter,
    )
    parser.add_argument(
        "command", choices=COMMANDS, metavar="command",
        help="\n".join(f"{name:8} {help_text}" for name, (_, help_text) in COMMANDS.items()),
    )
    parser.add_argument("--config", type=str, default=None)
    parser.add_argument("--jobs", type=_positive_int, default=None,
                        help="score only; has no effect: scans are scored one after another")
    for key in CONFIG_KEYS.values():
        kind = {"type": key.parse}
        if key.parse is _parse_bool:  # --flag / --no-flag
            kind = {"action": argparse.BooleanOptionalAction}
        parser.add_argument("--" + key.dest.replace("_", "-"), default=None, **kind)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.jobs is not None and args.command != "score":
        parser.error(f"--jobs applies to score only, not to {args.command}")
    try:
        cfg = load_run_config(args.config, args)
        return COMMANDS[args.command][0](cfg)
    except (*_FAILURES, configparser.Error) as exc:
        # a bare MemoryError() has no text; its type name still says what failed
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
