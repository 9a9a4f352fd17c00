"""The package's public names: exactly the recorded set, each importable."""

from __future__ import annotations

import inspect

import fibclifford
from fibclifford import cli, clifford
from fibclifford.clifford import DiagonalForm
from fibclifford.exactnum import QSqrt5
from fibclifford.quat import BasisMap, Quaternion, zero_divisor_witness

PUBLIC_NAMES = [
    "ALPHA",
    "AlgebraError",
    "AlgebraParams",
    "BETA",
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
    "SQRT5",
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


def test_all_is_the_recorded_list():
    assert len(PUBLIC_NAMES) == 55
    assert sorted(fibclifford.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in fibclifford.__all__:
        assert getattr(fibclifford, name) is not None, name


def test_test_only_machinery_is_gone():
    assert not hasattr(fibclifford, "QuaternionModel")
    assert not hasattr(clifford, "QuaternionModel")
    assert not hasattr(BasisMap, "apply")
    assert not hasattr(BasisMap, "is_multiplicative")


def test_unused_inputs_are_gone():
    assert len(fibclifford.__all__) == 55
    assert not hasattr(QSqrt5, "from_json")
    assert not hasattr(Quaternion, "from_json")
    assert not hasattr(DiagonalForm, "__len__")
    assert list(inspect.signature(zero_divisor_witness).parameters) == ["params"]
    assert not hasattr(cli, "_term")
