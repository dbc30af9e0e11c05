"""tidlab: numeric and exact verification of contraction-diagram identities.

The package covers dense mixed tensors and contraction diagrams, the deformed
binary product on (1,1) tensors with its derived higher brackets, the ternary
bracket on the (1,2)+(2,1) pair space, and exact free-word expansions of
every identity over the cyclotomic field Q(w).
"""

from .cyclo import CycloScalar, WeightPoly, symmetric_ideal_membership
from .diagrams import (
    ContractionDiagram,
    EnumOptions,
    SlotRef,
    UNORDERED_CONNECTED,
    classify_by_output,
    convention_survey,
    count_primary_operations,
    enumerate_diagrams,
    linear_family,
)
from .graded import (
    CANONICAL_CONVENTION,
    ChainConvention,
    GradedPair,
    TernaryWeights,
    convention_search,
    cyclic_residual,
    graded_relative_residual,
    identity18_residual,
    random_graded_pair,
    three_commutator,
)
from .matrixops import (
    Phi2Params,
    closed_remainder,
    identity6_residual,
    jacobi_cyclic_residual,
    phi2,
    phi3,
    phi4,
    relative_residual,
)
from .tensors import (
    DenseTensor,
    TensorShape,
    apply_diagram,
    contract,
    grading,
    kronecker_delta,
    random_tensor,
    tensor_product,
)
from .words import (
    FormalSum,
    GradedWord,
    TraceWord,
    build_class_table,
    canonical_cubic_weights,
    closed_remainder_symbolic,
    constrained_params,
    cyclic_sum_symbolic,
    evaluate_trace_sum,
    expand_phi2_symbolic,
    expand_three_commutator_symbolic,
    generic_params,
    phi3_symbolic,
    phi4_symbolic,
    symbol_word,
    verify_identity6_symbolic,
    verify_identity18_symbolic,
    word_generators,
)

__version__ = "0.1.0"
