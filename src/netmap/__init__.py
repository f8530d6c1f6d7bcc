"""Exact-arithmetic analysis of nearly Euclidean Thurston maps.

A NET map is presented by lattice data: a finite-index sublattice of
Z^2, four postcritical coset representatives, spin-mirror polylines and
a correspondence basis.  From that data the package computes pullback
degrees and component counts per slope, evaluates the induced slope
map by the spin-mirror zigzag, certifies absence of Thurston
obstructions via half-space covers of the boundary, emits functional
equations for the induced map on Teichmueller space, and decides
constancy of that map through nonseparating subsets of finite abelian
groups.
"""
from importlib import resources

from .errors import (
    BudgetExceededError,
    DegenerateIncidenceError,
    HypothesisFailedError,
    MirrorsNotStabilizedError,
    NetMapError,
    NonEssentialError,
    NonTransverseError,
    PresentationSyntaxError,
    ValidationError,
    ZeroVectorError,
    ZigzagError,
)
from .halfspace import (
    BoundarySet,
    CoverVerdict,
    HalfSpace,
    Kind,
    boundary_interval,
    cover_certificate,
    exclusion_halfspace,
    halfspace_from_data,
    modulus,
)
from .lattice import AbelianQuotient, Basis2, order_in_quotient, quotient_presentation
from .nonsep import (
    FinAbGroup,
    SymmetricFour,
    constant_teich_check,
    coset_numbers,
    cyclic_pairs,
    degree2_refutation,
    is_nonseparating,
    search_nonseparating,
    translate_by_involution,
    verify_nonexistence,
)
from .obstruction import (
    ObstructionReport,
    Status,
    certificate_for_slopes,
    certify_slopes,
    check_certificate,
    enumerate_slopes,
    find_fixed_slopes,
    obstruction_report,
)
from .presentation import (
    MirrorArc,
    NetMapPresentation,
    degree,
    is_euclidean,
    parse,
    preimage_coset_table,
    serialize,
)
from .pullback import PullbackSummary, analyze_slope, coset_number, multiplier
from .quadext import QuadExt
from .slope import INESSENTIAL, INFINITY, Slope
from .slopefn import (
    ZigzagTrace,
    find_segment,
    mirror_crossings,
    pullback_slope,
    pullback_slope_via_residues,
    slope_orbit,
    zigzag_trace,
)
from .symmetry import (
    FunctionalEquation,
    Mobius,
    ReflectionPair,
    aff_membership,
    consistency_suite,
    induced_map_domain,
    induced_map_range,
    reflection_equation,
    twist_equation,
    twist_matrix,
)

__version__ = "0.1.0"


def bundled_presentation(name: str = "main") -> NetMapPresentation:
    """Load one of the presentations shipped with the package.

    Available names: ``main`` (the degree-10 example), ``double`` (the
    degree-4 constant-Teichmueller example), ``euclidean`` (a degree-2
    Euclidean presentation carrying an obstruction).
    """
    text = resources.files("netmap.data").joinpath(f"{name}.net").read_text("utf-8")
    return parse(text)
