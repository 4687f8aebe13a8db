"""Exception types shared across the package."""


class KBCanonError(Exception):
    """Base class for all package errors."""


class ParseError(KBCanonError):
    """A record in an input file could not be parsed; ``line_no`` is None
    when the file as a whole is unreadable."""

    def __init__(self, path, line_no, message):
        self.path = str(path)
        self.line_no = line_no
        where = path if line_no is None else f"{path}:{line_no}"
        super().__init__(f"{where}: {message}")


class EmptyKBError(KBCanonError):
    """The input file produced no triples."""


class ConfigError(KBCanonError):
    """A configuration value is invalid or a required resource is missing."""


class InvariantViolation(KBCanonError):
    """An internal data-structure invariant does not hold."""


class ZeroVectorError(KBCanonError):
    """A phrase has a zero embedding, so cosine distance is undefined."""


class MetricsUndefinedError(KBCanonError):
    """A metric is undefined for the given inputs (e.g. empty clustering)."""


class TrainingDivergedError(KBCanonError):
    """The training loss became non-finite."""


class StageError(KBCanonError):
    """A pipeline stage failed; carries the stage name."""

    def __init__(self, stage, cause):
        self.stage = stage
        super().__init__(f"stage '{stage}' failed: {cause}")
