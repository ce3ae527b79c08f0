"""Pre-orders over interpretation space and the assignment machinery.

Faithful assignments underlie KM revision; loyal assignments (the paper's
Section 3 device) underlie model-fitting and arbitration.  Both are keyed
by model sets so that syntax irrelevance holds by construction, and both
come with mechanical condition checkers used by the test suite and the E5
experiment.
"""

from repro.orders.cache import (
    DEFAULT_CACHE_SIZE,
    Assignment,
    AssignmentCache,
    CacheInfo,
)
from repro.orders.faithful import (
    FaithfulAssignment,
    FaithfulnessViolation,
    check_faithful,
    dalal_assignment,
)
from repro.orders.loyal import (
    LoyalAssignment,
    LoyaltyViolation,
    check_loyal,
    check_loyal_exhaustive,
    leximax_distance_assignment,
    max_distance_assignment,
    priority_distance_assignment,
    sum_distance_assignment,
)
from repro.orders.preorder import (
    LazyTotalPreorder,
    PartialPreorder,
    TotalPreorder,
    minimal_by_leq,
)
from repro.orders.spheres import SphereSystem
from repro.orders.symbolic import (
    SymbolicPreorder,
    max_distance_preorder,
    min_distance_preorder,
)

__all__ = [
    "TotalPreorder",
    "LazyTotalPreorder",
    "SymbolicPreorder",
    "min_distance_preorder",
    "max_distance_preorder",
    "Assignment",
    "AssignmentCache",
    "CacheInfo",
    "DEFAULT_CACHE_SIZE",
    "PartialPreorder",
    "minimal_by_leq",
    "SphereSystem",
    "FaithfulAssignment",
    "FaithfulnessViolation",
    "check_faithful",
    "dalal_assignment",
    "LoyalAssignment",
    "LoyaltyViolation",
    "check_loyal",
    "check_loyal_exhaustive",
    "max_distance_assignment",
    "sum_distance_assignment",
    "leximax_distance_assignment",
    "priority_distance_assignment",
]
