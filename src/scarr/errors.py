"""Exception types shared across the toolkit."""


class DataError(ValueError):
    """Raised when input files or in-memory datasets violate their schema."""


class ConfigError(ValueError):
    """Raised for invalid or unknown configuration keys/values; ``key`` names
    the offending configuration key, where one does."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key


class ConvergenceError(RuntimeError):
    """Raised when a numerical optimization fails to converge."""
