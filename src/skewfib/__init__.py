"""Fibrations of R^n by pairwise skew affine k-planes.

Construct charts from nonsingular bilinear maps, verify skewness and
nondegeneracy, probe continuity at infinity, pass to great-sphere
fibrations by central projection, and test the induced contact
structures for line fibrations.

Ambient convention: R^n = R^k x R^q with the k fiber-parameter
coordinates first and the q chart-plane coordinates last.  On the sphere
side R^(n+1) appends the projective coordinate last.
"""

from .bilinear import BilinearMap, from_algebra, hurwitz_radon_family, verify_nonsingular
from .dims import admissible_skew, admissible_sphere, rho, skew_period, skew_table
from .errors import (
    BlendFailure,
    ConvergenceFailure,
    DimensionMismatch,
    EquatorPoint,
    InvalidInput,
    NoConvergence,
    RankDeficient,
    RealEigenvalue,
    SingularLastColumn,
    SingularSystem,
    SkewfibError,
)
from .grassmann import (
    AffinePlane,
    GreatSphere,
    OrientedPlane,
    embed_affine,
    intersection_dim,
    skew_pair,
)
from .contact import ContactReport, contact_check, contact_checks, contact_form, gluck_yang_matrix
from .fibration import (
    Chart,
    ConeProbe,
    builtin_chart,
    chart_from_dict,
    chart_to_dict,
    continuity_probe,
    extend_germ,
    fiber_plane,
    fiber_solve,
    from_bilinear,
    limiting_direction,
    sample_fibers,
    verify_nondegenerate,
    verify_skew,
)
from .numeric import SampleStream, Tolerance
from .report import VerificationReport
from .sphere import (
    PlaneInvariantReport,
    assemble_great_circles,
    central_project,
    completion_check,
    completion_report,
    equator_restriction,
    great_sphere_of,
    invariant_on_planes,
    inverse_project,
    sphere_fiber_direction,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
