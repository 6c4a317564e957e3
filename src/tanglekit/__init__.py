"""tanglekit: operator calculus for systems of disjoint planar curves.

Curve diagrams are words of caps and cups; states carry one region
label and one lattice-ordered-monoid value per interval, and read the
labels as the paper's Boolean region-connectivity matrix.
The package normalizes words to nesting forests, computes complete
prime-coded invariants, and cross-checks everything against an
independent geometric sweep.
"""

from .boolmat import BitMatrix
from .errors import InternalInvariantError, ParseError, ResourceLimitError
from .invariants import (
    InvariantReport,
    circle_count,
    equivalent,
    forest_value,
    nth_prime,
    word_value,
)
from .lomonoid import MonoidSpec, act, count_monoid, lattice_monoid, prime_monoid, scalar_act
from .rewriting import (
    Forest,
    encircle,
    factorize,
    from_forest,
    gap_potential,
    normalize,
    rewrite_potential,
    to_forest,
)
from .operators import (
    add_value,
    cap,
    cup,
    cup_value,
    encircle_state,
    eval_word,
    mirror,
    shift,
)
from .oracle import canonical, completeness_report, enumerate_forests, trace_diagram
from .states import TangleState, ends_connected, random_state, trivial, validate
from .words import (
    Generator, apply_relation, check_validity, decode, encode, format_sym, parse_word,
)

__version__ = "0.1.0"

__all__ = [
    "BitMatrix",
    "Forest",
    "Generator",
    "InternalInvariantError",
    "InvariantReport",
    "MonoidSpec",
    "ParseError",
    "ResourceLimitError",
    "TangleState",
    "act",
    "add_value",
    "apply_relation",
    "canonical",
    "cap",
    "check_validity",
    "circle_count",
    "completeness_report",
    "count_monoid",
    "cup",
    "cup_value",
    "decode",
    "encircle",
    "encircle_state",
    "encode",
    "ends_connected",
    "enumerate_forests",
    "equivalent",
    "eval_word",
    "factorize",
    "forest_value",
    "format_sym",
    "from_forest",
    "gap_potential",
    "lattice_monoid",
    "mirror",
    "normalize",
    "nth_prime",
    "parse_word",
    "prime_monoid",
    "random_state",
    "rewrite_potential",
    "scalar_act",
    "shift",
    "to_forest",
    "trace_diagram",
    "trivial",
    "validate",
    "word_value",
]
