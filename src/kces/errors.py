"""Exception hierarchy and warning category shared across the package.

Three error families matter to callers: malformed input data, numerical
failure, and infeasible configuration.  The CLI maps them to exit codes
2, 3, and 4 respectively.  Library code raises only these three, apart
from the ``ChildProcessError`` of a scoring or sweep worker process
that dies (exit code 5); the message says what failed.
"""


class KcesError(Exception):
    """Base class for every error raised by this package."""


class InputError(KcesError):
    """Malformed, inconsistent, or out-of-range input data."""


class NumericError(KcesError):
    """Numerical failure: degeneracy, ill-conditioning, or divergence."""


class ConfigError(KcesError):
    """Infeasible or inconsistent configuration."""


class KcesWarning(UserWarning):
    """Category for all warnings emitted by this package."""
