"""Exact degree sequences and dynamical degrees for rational self-maps
of projective space."""

from .cyclo import cos_min_poly
from .exactalg import (
    DomainMismatchError,
    MultiPoly,
    NotDivisibleError,
    PolynomialParseError,
    TermCapExceeded,
    format_poly,
    parse_poly,
    poly_divexact,
    poly_gcd,
)
from .fabc import (
    DegenerateParameterError,
    ExceptionalLocus,
    FabcParams,
    FamilyParams,
    IntersectionReport,
    LocusEntry,
    ModPResult,
    StabilityVerdict,
    build_map,
    classify,
    classify_mod_p,
    critical_locus,
    family_exceptional_locus,
    family_generic_stability,
    indeterminacy_points,
    mahler_height,
    unlikely_intersection_explorer,
    vn_sequence,
)
from .gfam import (
    GFamilyParams,
    HitsIndeterminacyAt,
    NegativeAnswerReport,
    NoHitWithin,
    build_g,
    exceptional_set,
    negative_answer_report,
    orbit_marked_point,
)
from .monomial import (
    MonomialMap,
    SingularMatrixError,
    char_poly,
    degree_D,
    full_report,
    homogenize,
    inverse_degree_bound_check,
    spectral_radius_enclosure,
    verify_norm_equivalence,
)
from .ratmap import (
    INDETERMINATE,
    DegreeSequence,
    ProjectiveMap,
    ProjectivePoint,
    degree_drop_index,
    degree_sequence,
    dyndeg_estimate,
)
from .suites import SuiteResult, available_suites, run_suite

__all__ = [
    # polynomial core
    "DomainMismatchError",
    "MultiPoly",
    "NotDivisibleError",
    "PolynomialParseError",
    "TermCapExceeded",
    "format_poly",
    "parse_poly",
    "poly_divexact",
    "poly_gcd",
    # cyclotomic helper
    "cos_min_poly",
    # projective maps and degree sequences
    "INDETERMINATE",
    "DegreeSequence",
    "ProjectiveMap",
    "ProjectivePoint",
    "degree_drop_index",
    "degree_sequence",
    "dyndeg_estimate",
    # the quadratic (a, b, c) family
    "DegenerateParameterError",
    "ExceptionalLocus",
    "FabcParams",
    "FamilyParams",
    "IntersectionReport",
    "LocusEntry",
    "ModPResult",
    "StabilityVerdict",
    "build_map",
    "classify",
    "classify_mod_p",
    "critical_locus",
    "family_exceptional_locus",
    "family_generic_stability",
    "indeterminacy_points",
    "mahler_height",
    "unlikely_intersection_explorer",
    "vn_sequence",
    # the marked-orbit family
    "GFamilyParams",
    "HitsIndeterminacyAt",
    "NegativeAnswerReport",
    "NoHitWithin",
    "build_g",
    "exceptional_set",
    "negative_answer_report",
    "orbit_marked_point",
    # monomial maps
    "MonomialMap",
    "SingularMatrixError",
    "char_poly",
    "degree_D",
    "full_report",
    "homogenize",
    "inverse_degree_bound_check",
    "spectral_radius_enclosure",
    "verify_norm_equivalence",
    # verification suites
    "SuiteResult",
    "available_suites",
    "run_suite",
]

__version__ = "0.7.0"
