"""Minimally intersecting filling pairs on closed surfaces.

Encodes oriented filling pairs of curves as permutations of 8g-4 symbols,
enumerates and classifies them up to relabelling, splices low-genus pairs
into higher-genus ones, validates general polygon gluing patterns, and
evaluates the hyperbolic quantities attached to the minimal
configurations.
"""

__version__ = "0.1.0"

from .enumeration import (
    BoundsReport,
    GuardExceeded,
    bounds_report,
    canonical_class_rep,
    class_representatives,
    count_classes,
    count_Lg,
    enumerate_filling,
    excluded_roots,
    lower_bound,
    root_count,
    square_roots,
    upper_bound,
)
from .filling import (
    FillingPermutation,
    GenusContext,
    SurfaceReport,
    canonical_perms,
    is_filling,
    reconstruct,
)
from .gluing import (
    GluingPattern,
    ValidationReport,
    euler_genus,
    from_filling,
    search_patterns,
    t1,
    validate,
)
from .hyperbolic import HyperbolicReport
from .hyperbolic import report as hyperbolic_report
from .perms import (
    ParseError,
    Permutation,
    PermutationError,
    format_perm,
    identity,
    parse,
)
from .zpiece import (
    LSequence,
    ZMatch,
    ZTemplate,
    build_from_sequence,
    derive_template,
    detect_zpieces,
    splice,
)

__all__ = [
    "BoundsReport",
    "FillingPermutation",
    "GenusContext",
    "GluingPattern",
    "GuardExceeded",
    "HyperbolicReport",
    "LSequence",
    "ParseError",
    "Permutation",
    "PermutationError",
    "SurfaceReport",
    "ValidationReport",
    "ZMatch",
    "ZTemplate",
    "__version__",
    "bounds_report",
    "build_from_sequence",
    "canonical_class_rep",
    "canonical_perms",
    "class_representatives",
    "count_Lg",
    "count_classes",
    "derive_template",
    "detect_zpieces",
    "enumerate_filling",
    "euler_genus",
    "excluded_roots",
    "format_perm",
    "from_filling",
    "hyperbolic_report",
    "identity",
    "is_filling",
    "lower_bound",
    "parse",
    "reconstruct",
    "root_count",
    "search_patterns",
    "splice",
    "square_roots",
    "t1",
    "upper_bound",
    "validate",
]
