"""Index theory for chiral-symmetric quantum walks on finite-dimensional spaces.

Validates pairs of a unitary evolution and a grading involution, computes
the pair's index by independent routes (supercharge block, Witten index,
eigenvalue census, grading signature), verifies the spectral mapping
between the evolution and its discriminant numerically, and builds the
standard models: the search operator on qubits, edge-reversal walks on
finite graphs, split-step walks on cycles, and small toy pairs.
"""

from .chiral import ChiralPair, Reflection, index_alpha, make_factored_pair, make_pair
from .errors import (
    ChiralSymmetryViolated,
    ChiralWalkError,
    DimensionMismatch,
    GraphInvalid,
    InconsistencyDetected,
    NotInvolution,
    NotUnitary,
    OutOfRange,
    ParamInvariantViolated,
)
from .linalg import (
    DEFAULT_TOL,
    Subspace,
    Tolerance,
    kernel_basis,
    spans_match,
    subspace_intersection,
    unitarity_residual,
)
from .models import (
    Graph,
    SplitStepParams,
    grover_search,
    grover_walk,
    search_probability_table,
    split_step_cycle,
    toy_four_dim,
    toy_two_dim,
)
from .spectral import (
    CheckResult,
    CoisometryDecomposition,
    EigenspaceCensus,
    IndexReport,
    build_index_report,
    cluster_reals,
    cluster_unimodular,
    coisometry,
    verify_spectral_mapping,
)

__version__ = "0.1.0"
