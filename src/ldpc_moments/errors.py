"""Exception types raised across the package.

Every class carries a short machine-readable ``code`` so the CLI can report
failures uniformly and map them to exit statuses.
"""


class SolverError(Exception):
    """Base class for numerical failures (CLI exit status 3)."""

    code = "SOLVER_ERROR"


class NoBracketError(SolverError):
    """Expanding bracket search found no sign change."""

    code = "NO_BRACKET"


class NoConvergenceError(SolverError):
    """An overlap saddle solve (the damped Newton at one alpha from the
    omega^2 anchor, or a ray of the scan) found no root, or the scan cannot
    reach the lower end of its window: at odd r no weight-kind overlap lies
    below omega - (r-1)/(2r)."""

    code = "NO_CONVERGENCE"


class SingularMatrixError(SolverError):
    """Saddle curvature matrix is numerically singular."""

    code = "SINGULAR_B"


class VarianceDegenerateError(SolverError):
    """The Gaussian overlap summation breaks down (sigma_s^2 <= 0)."""

    code = "VARIANCE_DEGENERATE"


class NoRootError(SolverError):
    """Growth rate has no sign change on the search grid."""

    code = "NO_ROOT"


class DomainError(SolverError):
    """Input lies outside the mathematically valid domain of a formula."""

    code = "DOMAIN"


class ExponentMismatchError(SolverError):
    """Internal anchor identities of the overlap exponent failed."""

    code = "INTERNAL_EXPONENT_MISMATCH"


class NonpositiveGFError(ValueError):
    """Generating function evaluated to a nonpositive value."""

    code = "NONPOSITIVE_GF"


class UnsupportedPolyError(ValueError):
    """Polynomial does not meet the requirements of the coefficient formula."""

    code = "UNSUPPORTED_POLY"


class OffLatticeError(ValueError):
    """Requested index leaves the support lattice of the generating function."""

    code = "OFF_LATTICE"


class TooLargeError(ValueError):
    """Instance exceeds the exhaustive/exact regime."""

    code = "TOO_LARGE"


class DivisibilityError(ValueError):
    """Block length incompatible with the degree pair (r must divide n*l)."""

    code = "DIVISIBILITY"
