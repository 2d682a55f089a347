"""Constant composition codes extracted from trace-defined linear codes over GF(p).

The package builds two families of constant composition codes as subcodes of
linear trace codes over odd-prime fields, verifies every closed-form claim
(weight distributions, composition vectors, minimum distances, Gauss-sum
identities, fiber counts) against independent exhaustive enumeration, and
classifies optimality against the LFVC size bound.
"""

from .ccc import (
    CccCode,
    CccParams,
    LfvcReport,
    PAIRWISE_ORACLE_CAP,
    extract_subcode_first,
    extract_subcode_second,
    lfvc_evaluate,
    pairwise_min_distance,
    predicted_ccc_first,
    predicted_ccc_second,
)
from .charsums import (
    EPS,
    count_trace_fiber,
    count_trace_square_fiber,
    gauss_sum_fp,
    gauss_sum_fq,
    quadratic_sum,
    quadratic_trace_sign,
)
from .codes import (
    DefiningSet,
    TraceCode,
    WeightDistribution,
    build_defining_set_D,
    build_defining_set_E,
    build_trace_code,
    minimum_distance,
    predicted_weight_distribution_lem41,
    predicted_weight_distribution_thm31,
    weight_distribution,
)
from .errors import (
    CompositionLengthMismatch,
    DegenerateSet,
    DivisionByZero,
    DuplicateWords,
    EvenCharacteristic,
    FieldMismatch,
    IdentityViolation,
    NotPrime,
    OddDegree,
    ParameterError,
    ReducibleModulus,
    TraceCCError,
    UnsupportedDegree,
    ZeroCode,
    ZeroLeadingCoefficient,
)
from .gfpm import Field, FieldElement, make_field, quadratic_character
from .sweep import SweepSpec, VerificationReport, fiber_check, gauss_check, run_sweep

__version__ = "0.1.0"
