"""Exception taxonomy shared across the package.  Each error carries its
message only, which names the value that failed and its threshold."""


class DdsimError(Exception):
    """Base class for all library-specific failures."""


class SingularTransform(DdsimError):
    """Transform matrix fails the conditioning threshold for inversion."""


class ClusterAmbiguity(DdsimError):
    """Eigenvalue clustering admits more than one plausible grouping."""


class IllConditionedJordan(DdsimError):
    """Jordan chain construction hit a conditioning threshold.

    Signals that the input sits numerically too close to a boundary
    between Jordan structures; retrying with a different clustering
    tolerance may resolve it.
    """


class NotAchievable(DdsimError):
    """Requested dominance target is ruled out by the classification."""


class PreconditionViolated(DdsimError):
    """Structural precondition fails; the message names the block or matrix."""


class NumericallySingular(DdsimError):
    """A linear solve failed the conditioning threshold."""


class SingularInput(DdsimError):
    """Input matrix has an eigenvalue too close to zero."""


class MatrixParseError(DdsimError):
    """Input file could not be parsed into a square real matrix."""
