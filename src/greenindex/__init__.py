"""Green index computations for finite semigroups.

The package computes relative Green's relations of a subsemigroup T inside a
finite semigroup S, the transport tables connecting products to class
representatives, Schutzenberger groups of the complement classes, and the
constructions built on top of them: generator transfer in both directions, a
presentation for S from presentations of T and the groups, a word-equality
decision procedure, growth comparison, and transfer of automatic structures.
"""

from .core import (
    BlackBoxSemigroup,
    FiniteSemigroup,
    Generated,
    Homomorphism,
    SubSemigroup,
    closure,
    generated,
    is_cancellative,
    is_group,
    strong_semilattice,
    validate_table,
)
from .relgreen import (
    ConnectorTables,
    GreenData,
    connectors,
    eggbox_dot,
    rees_index,
    relative_green,
)
from .rewrite import (
    RewriteTrace,
    WordProblemContext,
    extended_generators,
    push_left,
    push_right,
    schreier_generators,
    word_equality_report,
)
from .schutz import (
    HClassFamily,
    SchutzGroup,
    check_L_R_transport,
    class_group,
    lambda_data,
    schutz_generators,
    schutz_group,
)
from .present import (
    Presentation,
    build_schutz_packs,
    enumerate_presentation,
    presentation_from_table,
    sub_table_presentation,
    synthesize_presentation,
    verify_presentation,
    word_problem_context,
)
from .automatic import (
    AutomaticStructure,
    Nfa,
    PaddedRelationNfa,
    convolve,
    deconvolve,
    structure_for_finite,
    transfer_details,
)
from .growth import domination_check, growth_function, out_ball

__version__ = "0.1.0"
