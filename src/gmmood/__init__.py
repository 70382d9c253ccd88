"""Pixel-wise OOD detection from epistemic uncertainty over Bayesian GMMs.

Range-view LiDAR scans (or externally produced feature maps) are scored
by an ensemble of Gaussian-mixture classifiers whose parameters are
drawn from Normal-Inverse-Gamma posteriors; the entropy of the ensemble
vote is the epistemic uncertainty used to flag out-of-distribution
pixels.
"""

from .ensemble import (
    UncertaintyMap,
    VoteRecord,
    decompose_uncertainty,
    score_feature_map,
    score_samples,
    vote,
    vote_entropy,
)
from .errors import (
    ConvergenceError,
    CorruptPointError,
    Error,
    FormatError,
    InsufficientDataError,
    InvalidStatisticsError,
    LabelCountError,
    MalformedScanError,
    ShapeError,
    UndefinedMetricError,
)
from .formats import FeatureMap, read_feature_map, write_feature_map
from .gmm import (
    GMMClassifier,
    SufficientStats,
    class_log_densities,
    class_posterior,
    em_fit,
    load_classifier,
    predict,
    save_classifier,
)
from .metrics import (
    EvalReport,
    ScoredPixels,
    auprc,
    auroc,
    fpr_at_tpr,
    miou,
    percentile_threshold,
)
from .nig import (
    DEFAULT_PRIOR,
    NIGParams,
    NIGPosteriorBank,
    build_bank,
    load_bank,
    posterior_predictive_logpdf,
    sample_ensemble,
    sample_parameters,
    save_bank,
    update_posterior,
)
from .rangeview import (
    PointCloud,
    ProjectionConfig,
    RangeImage,
    back_project,
    parse_labels,
    parse_point_cloud,
    project_spherical,
)
from .synth import BenchmarkResult, SynthConfig, SynthDataset, generate, run_benchmark

__version__ = "0.1.0"
