"""Exception types raised by the library.

Every error carries a message naming the offending quantity; numerical
thresholds that triggered the error are included where they exist.
"""


class SkewfibError(Exception):
    """Base class for all library errors."""


class InvalidInput(SkewfibError):
    """An argument violates a documented precondition."""


class RankDeficient(SkewfibError):
    """A frame expected to have independent columns is numerically singular."""


class ConvergenceFailure(SkewfibError):
    """An iterative eigenvalue computation did not converge."""


class SingularLastColumn(SkewfibError):
    """The last matrix of a bilinear map is singular, so the graph
    normalization dividing by it is unavailable."""


class NoConvergence(SkewfibError):
    """The fiber solver exhausted its iteration budget."""


class SingularSystem(SkewfibError):
    """The linear system tying a point to its fiber is singular,
    which signals a degenerate chart."""


class BlendFailure(SkewfibError):
    """Germ extension failed to produce a nondegenerate blend after
    the full halving schedule; `report` is the nondegeneracy report of
    the last blend tried."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class DimensionMismatch(SkewfibError):
    """Operation requires a specific relation between k and n."""


class EquatorPoint(SkewfibError):
    """Central projection is undefined on the equator."""


class RealEigenvalue(SkewfibError):
    """A matrix required to have no real eigenvalues has one."""
