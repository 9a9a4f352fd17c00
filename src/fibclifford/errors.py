"""Domain errors raised by the algebra layers.

Plain division by zero in scalar arithmetic raises the builtin
``ZeroDivisionError``; everything algebra-specific derives from
``AlgebraError`` so callers can catch the whole family at once.
"""

from __future__ import annotations


class AlgebraError(Exception):
    """Base class for algebraic domain errors."""


class DegenerateAlgebraError(AlgebraError, ValueError):
    """An algebra parameter beta1 or beta2 is zero.

    Also a ``ValueError``, so callers that treat it as an invalid argument
    still catch it.
    """


class MixedAlgebrasError(AlgebraError):
    """Quaternions from algebras with different parameters were combined."""


class MixedFormsError(AlgebraError):
    """Clifford elements over different quadratic forms were combined."""


class NotInvertibleError(AlgebraError):
    """Inverse requested for an element of zero norm (a zero divisor)."""


class ZeroScaleError(AlgebraError):
    """A scaling isomorphism was requested with a zero scale factor."""


class IndeterminateError(AlgebraError):
    """The growth discriminant vanishes, so no threshold or class is defined."""


class BelowThresholdError(AlgebraError):
    """An inner-product basepoint lies below the certified threshold."""


class DegenerateFormError(AlgebraError):
    """A quadratic form with a zero diagonal entry was rejected."""
