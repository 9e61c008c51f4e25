"""Exception types shared across the package."""


class FFAError(Exception):
    """Base class for all package errors."""

    category = "internal"


class ConfigError(FFAError):
    """Invalid or inconsistent experiment configuration."""

    category = "config"


class DataError(FFAError):
    """Dataset ingestion or sample-preparation failure."""

    category = "data"


class CheckpointError(FFAError):
    """Malformed, truncated or mismatched checkpoint file."""

    category = "checkpoint"


class DivergenceError(FFAError):
    """Training produced non-finite weights."""

    category = "diverged"


class SilentLayerError(FFAError):
    """Training left every latent of an epoch exactly zero."""

    category = "silent"


def require(rules: dict[str, bool]) -> None:
    """Raise one ConfigError naming every rule whose condition is false.

    Each condition states what must hold, so a NaN fails it.
    """
    problems = [message for message, holds in rules.items() if not holds]
    if problems:
        raise ConfigError("; ".join(problems))
