"""Factor languages, Rauzy graphs and exact graph cohomology of locally
random substitutions."""

from .cohomology import (
    CohomologyReport,
    DirectLimitReport,
    InducedMap,
    Stage,
    coboundary_matrix,
    direct_limit_report,
    h1_rank,
    induced_h1_map,
    pullback_matrices,
    quotient_h0,
    quotient_h1,
    stage_report,
    stage_tower,
    verify_commutation,
)
from .complexity import (
    ExtensionTable,
    SpecialsReport,
    branching_excess,
    complexity,
    extension_table,
    first_difference,
    specials_report,
)
from .errors import (
    ConfigurationError,
    DomainError,
    InvalidRuleError,
    InvalidWordError,
    InvariantViolationError,
    NonConvergenceError,
    RauzyLabError,
)
from .oracle import (
    IdentityCheck,
    fibonacci_number,
    generation_set,
    is_legal,
    legal_subwords,
    verify_fibonacci_identity,
)
from .rational import RationalMatrix
from .rauzy import (
    Edge,
    ProjectionMap,
    RauzyGraph,
    SimpleDigraph,
    build_rauzy,
    export_dot,
    projection,
    strongly_connected,
)
from .rules import (
    RandomSubstitution,
    all_inflations,
    fibonacci_rule,
    has_fibonacci_support,
    noble_means_rule,
    resolve_rule,
    rule_from_file,
    rule_from_json,
    sample_inflation,
)
from .words import WordSet, subwords

__version__ = "0.1.0"
