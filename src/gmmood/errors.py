"""Exception types shared across the package."""


class Error(Exception):
    """Base class for all library errors."""


class MalformedScanError(Error):
    """Scan payload length is not a whole number of point records."""


class CorruptPointError(Error):
    """A parsed point contains NaN or infinite coordinates."""


class LabelCountError(Error):
    """Label payload does not match the paired point count."""


class ShapeError(Error):
    """Array arguments disagree with the expected dimensions."""


class InsufficientDataError(Error):
    """Too few samples to fit the requested number of components."""


class ConvergenceError(Error):
    """EM data log-likelihood decreased across an ordinary iteration."""


class InvalidStatisticsError(Error):
    """Sufficient statistics violate their nonnegativity constraints."""


class UndefinedMetricError(Error):
    """A ranking metric was requested on single-class ground truth."""


class FormatError(Error):
    """A binary container fails magic/version/size validation."""
