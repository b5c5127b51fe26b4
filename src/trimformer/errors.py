"""Exception hierarchy shared across the toolkit.

Every user-facing failure raises one of these so the CLI can map errors to
structured output without string matching.
"""


class TrimformerError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(TrimformerError):
    """Invalid or inconsistent configuration values."""


class ShapeError(TrimformerError):
    """Tensor extents incompatible with the requested operation."""


class TapeError(TrimformerError):
    """Gradient tape misuse: backward without a tape, or a consumed tape."""


class DataError(TrimformerError):
    """Bad token ids, empty datasets, or insufficient data."""


class CheckpointError(TrimformerError):
    """Corrupt or incompatible checkpoint file.

    ``field`` names the header field that failed validation.
    """

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class PruneError(TrimformerError):
    """Invalid pruning request (target exceeds source, missing rankings...)."""


class SearchError(TrimformerError):
    """Invalid search-space or budget parameters."""


class DivergenceError(TrimformerError):
    """Training produced a non-finite loss or gradient.

    ``state_dump`` carries the last known training state for post-mortems.
    """

    def __init__(self, message, state_dump=None):
        super().__init__(message)
        self.state_dump = state_dump or {}
