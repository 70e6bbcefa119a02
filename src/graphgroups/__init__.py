"""Computational toolkit for graph monoids and graph groups.

Graphs with named vertices, words over them, projection-based monoid
equality and normal forms, geodesic group reduction, cyclic reduction and
pure factors, centralizer witnesses read off projections, commutation
graphs with bounded realizability search, and the concealment construction.
"""

from .commgraph import (
    ElementFamily,
    RealizationReport,
    canonical_elements,
    commutation_graph,
    phi_search,
)
from .conceal import (
    ConcealmentResult,
    EligibilityReport,
    TauInjectivityReport,
    build_concealment,
    eligible,
    monoid_phi_witness,
    verify_no_embedding,
    verify_tau_injective,
)
from .graphs import (
    Graph,
    ParseError,
    clique_number,
    co_components,
    complement,
    connected_product,
    find_embedding,
    format_graph,
    induced,
    parse_graph,
    resolve_name_collisions,
    standard_graph,
)
from .raag import (
    CentralizerOutcome,
    CentralizerWitness,
    CyclicDecomposition,
    GroupElement,
    PureFactorization,
    centralizer_witness,
    commutes_totally,
    cyclic_reduce,
    group_commute,
    group_equal,
    group_reduce,
    is_cyclically_reduced,
    multiply_factorize,
    pure_factors,
    support,
)
from .trace import (
    ProductEmbeddingTable,
    Word,
    embed_into_product,
    max_free_commutative_rank,
    primitive_root,
    project_rho,
    project_sigma,
    trace_commute,
    trace_equal,
    trace_normal_form,
)

__version__ = "0.1.0"

# The names imported above from the package's modules; the modules
# themselves have no __module__, so `import *` binds none of them.
__all__ = sorted(
    name
    for name, value in globals().items()
    if getattr(value, "__module__", "").startswith("graphgroups.")
)
