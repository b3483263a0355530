"""Double-pushout rewriting on directed graphs with circles.

Rewriting is organized around boundary graphs: rules share an interface
of boundary edges, matches are boundary embeddings, and the pushout
complement of a match is parameterized by the solutions of the
re-pairing problem.  Rotation systems extend everything with surface
embeddings, face tracing and genus.
"""

from .graph import (
    EMPTY_GRAPH,
    Flag,
    Graph,
    GraphError,
    SRC,
    TGT,
    ValidationReport,
    connected_components,
    degree,
    flags_at,
    graph,
    is_connected,
    validate_graph,
)
from .morphism import (
    EMBEDDING,
    INVALID,
    MORPHISM,
    GraphMorphism,
    MorphismClass,
    classify,
    compose,
    flag_map,
    forget_to_b,
    identity,
    is_flag_bijective,
    is_flag_injective,
    is_flag_surjective,
    morphism,
)
from .boundary import (
    NEG,
    POS,
    BoundaryEmbedding,
    BoundaryError,
    BoundaryGraph,
    PairingGraph,
    PartitioningSpan,
    RewriteRule,
    arc_classes,
    blue_half,
    check_boundary_embedding,
    check_match,
    check_span,
    enumerate_re_pairings,
    pairing_graph,
    solve_re_pairing,
    validate_boundary_embedding,
    validate_boundary_graph,
    validate_rule,
    validate_span,
)
from .dpo import (
    ComplementResult,
    DpoError,
    PushoutResult,
    RewriteTrace,
    classify_re_pairings,
    iso_check,
    pushout,
    pushout_complement,
    rewrite,
)
from .rotation import (
    ComponentReport,
    RotationError,
    RotationSystem,
    SurfaceReport,
    check_rot_morphism,
    cyclic_equal,
    genus_report,
    rotation_system,
    trace_faces,
    validate_rotation,
)
from .matcher import (
    MatcherError,
    find_matches,
    nth_match,
)
from .lawcheck import (
    GenBudget,
    LAWS,
    LawReport,
    UnknownLaw,
    check_lemma,
    check_universal_property,
    enumerate_morphisms,
    run_all,
)

__version__ = "1.0.0"
