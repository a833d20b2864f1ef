"""Exception types raised on contract violations."""


class PrivGamesError(Exception):
    """Base class for every error raised by this package."""


class CsvParseError(PrivGamesError):
    """Malformed CSV input; the message names the offending line."""


class DomainError(PrivGamesError):
    """A value, record, or argument falls outside its declared domain."""


class SizeError(PrivGamesError):
    """A requested sample or split exceeds what the pool can provide."""


class PreconditionError(PrivGamesError):
    """Game inputs violate a structural precondition (membership, counts)."""


class FitError(PrivGamesError):
    """The generator cannot be fit on the given training data."""


class UnsupportedOperationError(PrivGamesError):
    """The operation is not defined for this generator kind."""


class TrainingError(PrivGamesError):
    """The meta-classifier received unusable training inputs."""


class ConfigError(PrivGamesError):
    """An experiment or game configuration is invalid; names the field."""


class UndefinedRateError(PrivGamesError):
    """Error rates were requested from a transcript missing a class."""


class UndefinedMissRateError(PrivGamesError):
    """Miss rate is undefined: no record exceeds the high-risk threshold."""


class JoinError(PrivGamesError):
    """Two result files do not cover the same record identifiers."""


def failure(exc):
    """A record's failure as a PrivGamesError (a MemoryError becomes one
    that says so), without the traceback or context whose frames would
    hold the failed record's arrays while the other records run."""
    if isinstance(exc, MemoryError):
        exc = PrivGamesError(f"out of memory: {exc}")
    exc.__traceback__ = exc.__context__ = exc.__cause__ = None
    return exc
