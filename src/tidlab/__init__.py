"""tidlab: numeric and exact verification of contraction-diagram identities.

The package covers dense mixed tensors and contraction diagrams, the deformed
binary product on (1,1) tensors with its derived higher brackets, the ternary
bracket on the (1,2)+(2,1) pair space, and exact free-word expansions of
every identity over the cyclotomic field Q(w).

Each public name is imported from its module on first use, so `import tidlab`
loads no module, and numpy is loaded only by the first numeric name.
"""

import importlib

# public name -> the module that defines it
_EXPORTS = {
    **dict.fromkeys(("CycloScalar", "WeightPoly", "symmetric_ideal_membership"), "cyclo"),
    **dict.fromkeys(("CANONICAL_CONVENTION", "ChainConvention", "Phi2Params"), "definitions"),
    **dict.fromkeys(
        (
            "ContractionDiagram", "EnumOptions", "SlotRef", "TensorShape", "UNORDERED_CONNECTED",
            "classify_by_output", "convention_survey", "count_primary_operations",
            "enumerate_diagrams", "linear_family",
        ),
        "diagrams",
    ),
    **dict.fromkeys(
        (
            "GradedPair", "TernaryWeights", "convention_search", "cyclic_residual",
            "graded_relative_residual", "identity18_residual", "random_graded_pair",
            "three_commutator",
        ),
        "graded",
    ),
    **dict.fromkeys(
        (
            "closed_remainder", "identity6_residual", "jacobi_cyclic_residual", "phi2", "phi3",
            "phi4", "relative_residual",
        ),
        "matrixops",
    ),
    **dict.fromkeys(
        (
            "DenseTensor", "apply_diagram", "contract", "grading", "kronecker_delta",
            "random_tensor", "tensor_product",
        ),
        "tensors",
    ),
    **dict.fromkeys(
        (
            "FormalSum", "GradedWord", "TraceWord", "build_class_table", "canonical_cubic_weights",
            "closed_remainder_symbolic", "constrained_params", "cyclic_sum_symbolic",
            "evaluate_trace_sum", "expand_phi2_symbolic", "expand_three_commutator_symbolic",
            "generic_params", "phi3_symbolic", "phi4_symbolic", "symbol_word",
            "verify_identity6_symbolic", "verify_identity18_symbolic", "word_generators",
        ),
        "words",
    ),
}

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
