"""Exception hierarchy shared across the package.

Every domain failure derives from TrackingError so callers (and the CLI
exit-code map) can distinguish expected data problems from genuine bugs.
"""


class TrackingError(Exception):
    """Base class for all domain errors raised by this package."""


class ConfigError(TrackingError, ValueError):
    """A configuration value violates one of its invariants.

    Also a ValueError: it is the wrong value for a parameter of the right type.
    """


class DimensionMismatchError(TrackingError):
    """An embedding's length disagrees with the established dimension."""


class ZeroNormError(TrackingError):
    """A vector with (near-)zero norm cannot be normalized."""


class EmptyHistoryError(TrackingError):
    """A track feature was requested from an empty observation history."""


class ZeroWeightError(TrackingError):
    """The score weights of a history sum to (near-)zero."""


class NonMonotonicFrameError(TrackingError):
    """Frames must be fed to the tracker in strictly increasing order."""


class MissingEmbeddingError(TrackingError):
    """A detection has no embedding attached where one is required."""

    def __init__(self, frame: int, index: int):
        self.frame = frame
        self.index = index
        super().__init__(f"no embedding for frame {frame}, detection index {index}")


class OrphanEmbeddingError(TrackingError):
    """An embedding's (frame, index) key names no detection."""

    def __init__(self, frame: int, index: int):
        self.frame = frame
        self.index = index
        super().__init__(
            f"embedding for frame {frame}, index {index} matches no detection"
        )


class ParseError(TrackingError):
    """A line of an input file is malformed. Carries the 1-based line number."""

    def __init__(self, line_no: int, reason: str):
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"line {line_no}: {reason}")


class DuplicateEntryError(TrackingError):
    """A ground-truth file repeats a (frame, identity) pair."""


class EmptyGtError(TrackingError):
    """Evaluation against an empty ground truth is undefined."""


class SeparationInfeasibleError(TrackingError):
    """Rejection sampling could not place identities far enough apart."""
