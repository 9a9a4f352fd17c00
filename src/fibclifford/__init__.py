"""Exact arithmetic for Fibonacci quaternions in generalized quaternion
algebras H(beta1, beta2): growth discriminants in Q(sqrt 5), certified
invertibility thresholds, and the split/division classification of the
Clifford algebra built on the rank-2 space they span.

Every value is immutable and every operation is a pure function on exact
rationals; nothing in this package touches floating point.
"""

from .clifford import (
    ClassificationReport,
    CliffordClass,
    CliffordElement,
    DiagonalForm,
    blade_name,
    blade_product,
    classify,
    fibonacci_form,
    quaternion_isomorphism,
    rank2_class,
)
from .errors import (
    AlgebraError,
    BelowThresholdError,
    DegenerateAlgebraError,
    DegenerateFormError,
    IndeterminateError,
    LiteralTooLongError,
    MixedAlgebrasError,
    MixedFormsError,
    NotInvertibleError,
    ZeroScaleError,
)
from .exactnum import ALPHA, BETA, SQRT5, QSqrt5, Rat, format_rat, parse_rat
from .fib import HoradamParams, binet, fib, fib_pair, horadam, lucas
from .fibquat import (
    FibSpaceVector,
    GrowthProfile,
    ThresholdCertificate,
    bilinear_form,
    fibonacci_quaternion,
    gram_matrix,
    growth_discriminant,
    growth_profile,
    horadam_growth_discriminant,
    horadam_invertibility_threshold,
    horadam_norm_closed_form,
    horadam_quaternion,
    inner_product,
    invertibility_threshold,
    norm_closed_form,
    quadratic_form,
)
from .quat import (
    AlgebraParams,
    BasisMap,
    Quaternion,
    is_division_algebra,
    scale_isomorphism,
    zero_divisor_witness,
)

__version__ = "0.1.0"

__all__ = [
    "ALPHA",
    "BETA",
    "SQRT5",
    "AlgebraError",
    "AlgebraParams",
    "BasisMap",
    "BelowThresholdError",
    "ClassificationReport",
    "CliffordClass",
    "CliffordElement",
    "DegenerateAlgebraError",
    "DegenerateFormError",
    "DiagonalForm",
    "FibSpaceVector",
    "GrowthProfile",
    "HoradamParams",
    "IndeterminateError",
    "LiteralTooLongError",
    "MixedAlgebrasError",
    "MixedFormsError",
    "NotInvertibleError",
    "QSqrt5",
    "Quaternion",
    "Rat",
    "ThresholdCertificate",
    "ZeroScaleError",
    "bilinear_form",
    "binet",
    "blade_name",
    "blade_product",
    "classify",
    "fib",
    "fib_pair",
    "fibonacci_form",
    "fibonacci_quaternion",
    "format_rat",
    "gram_matrix",
    "growth_discriminant",
    "growth_profile",
    "horadam",
    "horadam_growth_discriminant",
    "horadam_invertibility_threshold",
    "horadam_norm_closed_form",
    "horadam_quaternion",
    "inner_product",
    "invertibility_threshold",
    "is_division_algebra",
    "lucas",
    "norm_closed_form",
    "parse_rat",
    "quadratic_form",
    "quaternion_isomorphism",
    "rank2_class",
    "scale_isomorphism",
    "zero_divisor_witness",
]
