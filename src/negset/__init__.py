"""negset: negation sets of signed graphs.

Balance and switching, minimality and minimum certificates, acyclic negation
sets for graphs of maximum degree four, and exact packing numbers for signed
graphs whose negative part is bipartite — plus a brute-force oracle for
cross-checking everything at small scale.
"""

from .balance import (
    BalanceResult,
    HararyBipartition,
    check_balance,
    is_antibalanced,
    is_balanced,
    is_negation_set,
    negation_set_from_switching,
    switching_equivalent,
    switching_for_negation_set,
)
from .errors import (
    InvariantError,
    IterationBudgetError,
    MalformedCertificateError,
    MinusK5Detected,
    PreconditionError,
    SgParseError,
)
from .graph import (
    NEG,
    POS,
    Edge,
    SignedGraph,
    edge_key,
)
from .minimality import (
    is_minimal,
    triangle_certificate_for_complete,
    unique_minimum_by_size,
    verify_disjoint_circle_certificate,
    verify_two_circle_certificate,
)
from .negation import (
    AcyclicResult,
    BipartiteNegation,
    TraceEntry,
    acyclic_negation,
    bipartite_negation_for_antibalanced_planar,
    disjoint_partner,
)
from .packing import (
    ClassGraph,
    NegativeComponentClasses,
    PackingResult,
    build_class_graph,
    class_distances,
    negative_component_classes,
    packing_number,
    thresholds,
)
from .sgio import dump, load, load_path, parse, serialize

__version__ = "0.1.0"

__all__ = [
    "AcyclicResult",
    "BalanceResult",
    "BipartiteNegation",
    "ClassGraph",
    "Edge",
    "HararyBipartition",
    "InvariantError",
    "IterationBudgetError",
    "MalformedCertificateError",
    "MinusK5Detected",
    "NEG",
    "NegativeComponentClasses",
    "POS",
    "PackingResult",
    "PreconditionError",
    "SgParseError",
    "SignedGraph",
    "TraceEntry",
    "acyclic_negation",
    "bipartite_negation_for_antibalanced_planar",
    "build_class_graph",
    "check_balance",
    "class_distances",
    "disjoint_partner",
    "dump",
    "edge_key",
    "is_antibalanced",
    "is_balanced",
    "is_minimal",
    "is_negation_set",
    "load",
    "load_path",
    "negation_set_from_switching",
    "negative_component_classes",
    "packing_number",
    "parse",
    "serialize",
    "switching_equivalent",
    "switching_for_negation_set",
    "thresholds",
    "triangle_certificate_for_complete",
    "unique_minimum_by_size",
    "verify_disjoint_circle_certificate",
    "verify_two_circle_certificate",
]
