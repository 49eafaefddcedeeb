"""Poset ideal lattices, their two 0/1 polytopes, and the straightening-law
relation systems living on them, with an exhaustive uniqueness decision
procedure and corpus-level verification over all small posets."""

from aslattice._kernels import BACKEND
from aslattice.errors import (
    AslatticeError,
    AxiomViolation,
    BudgetExceeded,
    CapacityExceeded,
    CycleDetected,
    DimensionMismatch,
    DuplicateLabel,
    InvalidCertificate,
    MalformedPoset,
    MissingRelation,
    NonTermination,
    NotAntichain,
    PreconditionViolated,
    UnknownLabel,
)
from aslattice.genposets import (
    CanonicalPoset,
    CorpusReport,
    canonical_form,
    corpus_verify,
    generate_posets,
)
from aslattice.ideals import (
    IdealLattice,
    circ,
    down_closure,
    enumerate_ideals,
    ideal_from_antichain,
    is_antichain,
    is_ideal,
    max_elements,
    min_elements,
    star,
    up_closure,
)
from aslattice.polytopes import (
    chain_polytope_vertices,
    order_polytope_vertices,
    point_in_chain_polytope,
    point_in_order_polytope,
)
from aslattice.posets import (
    Poset,
    build_poset,
    connected_components,
    count_maximal_chains,
    dual,
    is_direct_sum_of_chains,
    maximal_chains,
    poset_from_json,
    poset_to_json,
)
from aslattice.straightening import (
    AxiomReport,
    PairMap,
    RealizationKind,
    check_condition_ii,
    realize,
    relations_equal,
    rewrite_to_standard,
    straightening_relations,
    verify_asl_axioms,
)
from aslattice.uniqueness import (
    MonomialRealization,
    UniquenessCertificate,
    UniquenessResult,
    certificate_from_json,
    certificate_size,
    certificate_to_json,
    check_unique,
    is_realizable,
    search_compatible_asls,
    uniqueness_certificate,
    validate_certificate,
)

__version__ = "0.1.0"
