"""tanglekit: operator calculus for systems of disjoint planar curves.

Curve diagrams are words of caps and cups; states carry one region
label and one lattice-ordered-monoid value per interval, and read the
labels as the paper's Boolean region-connectivity matrix.
The package normalizes words to nesting forests, computes complete
prime-coded invariants, and cross-checks everything against an
independent geometric sweep.

`__all__` holds what callers use: parsing and the codec, `normalize`,
`eval_word`, the invariants and `equivalent`, the sweep, the monoid
constructors and the state building blocks.  Helpers that only the
tests need (the paper's matrix formulas, the rule-by-rule rewrite
reference, encirclement) live with the tests.
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
from .lomonoid import MonoidSpec, count_monoid, lattice_monoid, prime_monoid
from .rewriting import Forest, canonical, normalize, to_forest
from .operators import add_value, cap, cup, eval_word, mirror, random_state
from .oracle import completeness_report, enumerate_forests, trace_diagram
from .states import TangleState, trivial, validate
from .words import Generator, check_validity, decode, encode, format_sym, parse_word

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
    "add_value",
    "canonical",
    "cap",
    "check_validity",
    "circle_count",
    "completeness_report",
    "count_monoid",
    "cup",
    "decode",
    "encode",
    "enumerate_forests",
    "equivalent",
    "eval_word",
    "forest_value",
    "format_sym",
    "lattice_monoid",
    "mirror",
    "normalize",
    "nth_prime",
    "parse_word",
    "prime_monoid",
    "random_state",
    "to_forest",
    "trace_diagram",
    "trivial",
    "validate",
    "word_value",
]
