"""Factor languages, Rauzy graphs and exact graph cohomology of locally
random substitutions."""

from .cohomology import CohomologyReport, Stage, stage_report, stage_tower
from .complexity import (
    ExtensionTable,
    SpecialsReport,
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
    RauzyLabError,
)
from .oracle import (
    IdentityCheck,
    fibonacci_number,
    is_legal,
    legal_subwords,
    verify_fibonacci_identity,
)
from .rational import RationalMatrix
from .rauzy import Edge, RauzyGraph, build_rauzy, export_dot
from .rules import (
    RandomSubstitution,
    fibonacci_rule,
    has_fibonacci_support,
    noble_means_rule,
    resolve_rule,
    rule_from_file,
    rule_from_json,
    sample_inflation,
)
from .words import WordSet

__version__ = "0.1.0"
