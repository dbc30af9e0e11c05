"""The public surface is frozen: `tidlab`'s exported names and each module's `__all__`.

A refactor that drops, renames or moves a public name fails here, so a change
to the surface is always a deliberate edit of these lists.
"""

import importlib

import pytest

import tidlab

TIDLAB = {
    "CANONICAL_CONVENTION", "ChainConvention", "ContractionDiagram", "CycloScalar", "DenseTensor",
    "EnumOptions", "FormalSum", "GradedPair", "GradedWord", "Phi2Params", "SlotRef", "TensorShape",
    "TernaryWeights", "TraceWord", "UNORDERED_CONNECTED", "WeightPoly", "apply_diagram",
    "build_class_table", "canonical_cubic_weights", "classify_by_output", "closed_remainder",
    "closed_remainder_symbolic", "constrained_params", "contract", "convention_search",
    "convention_survey", "count_primary_operations", "cyclic_residual", "cyclic_sum_symbolic",
    "enumerate_diagrams", "evaluate_trace_sum", "expand_phi2_symbolic",
    "expand_three_commutator_symbolic", "generic_params", "graded_relative_residual", "grading",
    "identity18_residual", "identity6_residual", "jacobi_cyclic_residual", "kronecker_delta",
    "linear_family", "phi2", "phi3", "phi3_symbolic", "phi4", "phi4_symbolic", "random_graded_pair",
    "random_tensor", "relative_residual", "symbol_word", "symmetric_ideal_membership",
    "tensor_product", "three_commutator", "verify_identity18_symbolic", "verify_identity6_symbolic",
    "word_generators",
}

ALL = {
    "cyclo": {"CycloScalar", "WeightPoly", "VARS", "symmetric_ideal_membership"},
    "definitions": {
        "HIGH", "LOW", "JACOBI_TERMS", "CLOSED_REMAINDER_TERMS", "IDENTITY6_TERMS", "BRACKET_WORD_ORDER",
        "CYCLIC16_TERMS", "IDENTITY18_TERMS", "OMEGA", "PRODUCT_FAMILY", "ZERO_SUM_FAMILY",
        "CANONICAL_WEIGHT_POWERS", "PHI3_TERMS", "PHI4_TERMS", "family_member", "signed_sum", "alternating",
        "nested_sum", "termwise",
    },
    "diagrams": {
        "UPPER", "LOWER", "SlotRef", "ContractionDiagram", "EnumOptions", "UNORDERED_CONNECTED",
        "enumerate_diagrams", "classify_by_output", "count_primary_operations", "linear_family",
        "convention_survey",
    },
    "graded": {
        "GradedPair", "TernaryWeights", "ChainConvention", "CANONICAL_CONVENTION", "PARALLEL", "CROSSED",
        "three_commutator", "cyclic_residual", "identity18_residual", "random_graded_pair",
        "graded_relative_residual", "convention_search", "ConventionTrial",
    },
    "matrixops": {
        "Phi2Params", "phi2", "phi3", "phi4", "jacobi_cyclic_residual", "identity6_residual",
        "closed_remainder", "relative_residual", "worst_residual",
    },
    "tensors": {
        "TensorShape", "DenseTensor", "grading", "tensor_product", "contract", "apply_diagram",
        "random_tensor", "kronecker_delta",
    },
    "words": {
        "TraceWord", "GradedWord", "word_generators", "FormalSum", "symbol_word", "generic_params",
        "constrained_params", "expand_phi2_symbolic", "phi3_symbolic", "phi4_symbolic",
        "cyclic_sum_symbolic", "closed_remainder_symbolic", "verify_identity6_symbolic",
        "Identity6Report", "expand_three_commutator_symbolic", "expand_identity18_instances",
        "verify_identity18_symbolic", "Identity18Report", "WordInstance", "build_class_table",
        "evaluate_trace_sum", "canonical_cubic_weights", "IDENTITY6_TERMS", "IDENTITY18_TERMS",
        "BRACKET_WORD_ORDER", "WEIGHT_CLASS_POLYS", "HIGH", "LOW",
    },
}


def test_package_exports():
    assert set(tidlab.__all__) == TIDLAB
    assert TIDLAB <= set(dir(tidlab))
    for name in TIDLAB:
        # the package's name is the object every module exporting it has
        owners = [m for m in ALL if name in ALL[m]]
        assert owners, name
        for module in owners:
            assert getattr(tidlab, name) is getattr(importlib.import_module(f"tidlab.{module}"), name), name


def test_unknown_package_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        tidlab.no_such_name
    assert not hasattr(tidlab, "no_such_name")


@pytest.mark.parametrize("module", sorted(ALL))
def test_module_all(module):
    mod = importlib.import_module(f"tidlab.{module}")
    assert len(mod.__all__) == len(set(mod.__all__))
    assert set(mod.__all__) == ALL[module]
    for name in mod.__all__:
        assert hasattr(mod, name), name


def test_moved_names_are_the_same_objects():
    from tidlab import definitions, graded, words

    assert tidlab.word_generators is words.word_generators
    assert not hasattr(graded, "word_generators")
    for name in ("HIGH", "LOW", "IDENTITY6_TERMS", "IDENTITY18_TERMS", "BRACKET_WORD_ORDER"):
        assert getattr(words, name) is getattr(definitions, name)
