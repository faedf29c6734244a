"""Exception hierarchy and warning category shared across the package.

Three error families matter to callers: malformed input data, numerical
failure, and infeasible configuration.  The CLI maps them to exit codes
2, 3, and 4 respectively; library code raises the specific subclasses.
"""


class KcesError(Exception):
    """Base class for every error raised by this package."""


class InputError(KcesError):
    """Malformed, inconsistent, or out-of-range input data."""


class NumericError(KcesError):
    """Numerical failure: degeneracy, ill-conditioning, or divergence."""


class ConfigError(KcesError):
    """Infeasible or inconsistent configuration."""


class GraphFormatError(InputError):
    """Unparseable graph, feature, or label file."""


class EdgeRangeError(InputError):
    """Edge endpoint outside 0..N-1."""


class SelfLoopError(InputError):
    """Explicit self-loop where none is allowed."""


class MissingEdgeError(InputError):
    """Operation referenced an edge the graph does not contain."""


class StalePlanError(InputError):
    """Prune plan references edges absent from the target graph, or was
    sized for another edge count."""


class DegenerateFeatureError(NumericError):
    """An aggregated feature row vanished (norm below 1e-10)."""


class DegenerateClusteringError(NumericError):
    """Clustering cannot produce the requested number of non-empty clusters."""


class IllConditionedError(NumericError):
    """Linear solve failed its backward-error check."""


class DivergenceError(NumericError):
    """Training loss became non-finite."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class EncodingError(ConfigError):
    """Label encoding incompatible with the given labels."""


class BoundedLabelError(ConfigError):
    """Scalar labels exceed the required [-1, 1] range."""


class InfeasibleKError(ConfigError):
    """Requested cluster count cannot be satisfied."""


class BudgetError(ConfigError):
    """Perturbation budget cannot be met by the available edge pools."""


class DegenerateSplitError(ConfigError):
    """A data split left some class without training nodes."""


class KcesWarning(UserWarning):
    """Category for all warnings emitted by this package."""
