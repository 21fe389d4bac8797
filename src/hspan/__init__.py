"""Spans of Hadamard-product vector families.

The span of {(B_1 x_1) o ... o (B_k x_k) : x_j in C^n} equals the column
space of (B_1 B_1*) o ... o (B_k B_k*). This package computes that span,
cross-checks it against oracles that never form the Gram matrices, and
numerically certifies the identities the equality rests on.
"""

from .errors import (BudgetExceededError, DimensionError, InstanceFormatError,
                     NotHermitianError, NotPsdError)
from .subspace import (Subspace, ToleranceConfig, complement_projector,
                       range_basis, subspace_distance)
from .spans import (MatrixFamily, PsdFamily, basis_product_oracle,
                    gram_hadamard, hadamard_span, psd_hadamard_span, psd_sqrt,
                    random_sample_span, single_vector_sample_span)
from .verify import (VerificationReport, column_identity_residual,
                     family_scale, norm_trace_identity, orthogonality_check,
                     pairing_identity_residual, tensor_witness, verify_all)
from .instances import (SCHEMA_VERSION, generate_family, instance_dict,
                        load_instance, parse_instance, write_instance)

__version__ = "1.0.0"

__all__ = [
    "BudgetExceededError", "DimensionError", "InstanceFormatError",
    "NotHermitianError", "NotPsdError",
    "Subspace", "ToleranceConfig", "complement_projector", "range_basis",
    "subspace_distance",
    "MatrixFamily", "PsdFamily", "basis_product_oracle", "gram_hadamard",
    "hadamard_span", "psd_hadamard_span", "psd_sqrt", "random_sample_span",
    "single_vector_sample_span",
    "VerificationReport", "column_identity_residual", "family_scale",
    "norm_trace_identity", "orthogonality_check", "pairing_identity_residual",
    "tensor_witness", "verify_all",
    "SCHEMA_VERSION", "generate_family", "instance_dict", "load_instance",
    "parse_instance", "write_instance",
]
