"""Finite workbench for Haar-system operator reduction and factorization.

The package realizes, at finite truncation, a chain of constructions on
the multi-copy Haar model: dyadic bookkeeping (`dyadic`), product grids
and exponents (`grids`), truncated bases, realizations and projections
(`haarsys`), operator matrices with certified inverses (`operators`),
named norm constants (`constants`), random sign-pattern moments and sign
search (`randsigns`), diagonal/scalar reduction certificates
(`reduction`), identity factorization witnesses (`factorize`), the
weighted two-norm sequence space and its block game (`weightedlp`),
artifact serialization (`serialize`) and the command-line runner (`cli`).
"""

from .constants import (
    burkholder_constant,
    complementation_constant,
    constants_report,
    diagonal_multiplier_bound,
    dichotomy_constant,
    large_diagonal_constant,
    subspace_growth_constant,
)
from .dyadic import (
    UNIT,
    DyadicInterval,
    OmegaIndex,
    compare_omega,
    intervals_at_level,
    intervals_up_to_level,
    parse_interval,
    parse_omega,
)
from .errors import ReductionError, ResourceLimitError
from .factorize import (
    FactorizationWitness,
    embedding_matrix,
    factor_large_diagonal,
    primary_dichotomy,
    projection_matrix,
)
from .grids import (
    Exponent,
    GridFunction,
    ProductGrid,
    conditional_expectation,
    lp_norm,
    pairing,
)
from .haarsys import (
    BasisRegistry,
    BlockAssignment,
    BlockFamily,
    burkholder_check,
    check_distributional_copy,
    project,
    realize,
)
from .operators import (
    DiagonalAverageWitness,
    DiagonalOperator,
    NeumannInverse,
    OperatorMatrix,
    diagonal_average,
    max_column_sum,
    neumann_invert,
)
from .randsigns import (
    MomentReport,
    RandomBlockSpec,
    SignSearchFailure,
    SignVector,
    condition_star,
    eval_W,
    eval_Y,
    eval_Z,
    exact_moments,
    monte_carlo_moments,
    sign_search,
)
from .reduction import (
    ReductionCertificate,
    compose_certificates,
    identity_certificate,
    interaction_matrix,
    reduce_to_diagonal,
    reduce_to_scalar_finite,
    reduce_to_scalar_stitched,
    verify_certificate,
)
from .serialize import SchemaError, document, dumps, load, loads, save, undocument
from .weightedlp import (
    Block,
    FixedScheduleAdversary,
    GameTranscript,
    GreedyMaxAdversary,
    RandomAdversary,
    WeightSequence,
    XpwVector,
    block_data,
    block_span_project,
    impartial_equivalence,
    play_game,
    star_property,
    xpw_norm,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # dyadic
    "DyadicInterval", "OmegaIndex", "UNIT", "compare_omega",
    "intervals_at_level", "intervals_up_to_level", "parse_interval",
    "parse_omega",
    # grids
    "Exponent", "GridFunction", "ProductGrid", "conditional_expectation",
    "lp_norm", "pairing",
    # haarsys
    "BasisRegistry", "BlockAssignment", "BlockFamily", "burkholder_check",
    "check_distributional_copy", "project", "realize",
    # operators
    "DiagonalAverageWitness", "DiagonalOperator", "NeumannInverse",
    "OperatorMatrix", "diagonal_average", "max_column_sum", "neumann_invert",
    # constants
    "burkholder_constant", "complementation_constant", "constants_report",
    "diagonal_multiplier_bound", "dichotomy_constant",
    "large_diagonal_constant", "subspace_growth_constant",
    # randsigns
    "MomentReport", "RandomBlockSpec", "SignSearchFailure", "SignVector",
    "condition_star", "eval_W", "eval_Y", "eval_Z", "exact_moments",
    "monte_carlo_moments", "sign_search",
    # reduction
    "ReductionCertificate", "compose_certificates", "identity_certificate",
    "interaction_matrix", "reduce_to_diagonal", "reduce_to_scalar_finite",
    "reduce_to_scalar_stitched", "verify_certificate",
    # factorize
    "FactorizationWitness", "embedding_matrix", "factor_large_diagonal",
    "primary_dichotomy", "projection_matrix",
    # weightedlp
    "Block", "FixedScheduleAdversary", "GameTranscript", "GreedyMaxAdversary",
    "RandomAdversary", "WeightSequence", "XpwVector", "block_data",
    "block_span_project", "impartial_equivalence", "play_game",
    "star_property", "xpw_norm",
    # serialize
    "SchemaError", "document", "dumps", "load", "loads", "save", "undocument",
    # errors
    "ReductionError", "ResourceLimitError",
]
