"""Exact closed forms for Cauchy and min matrices, with independent oracles.

The subpackages:

* :mod:`cauchykit.ring` -- exact scalars (rationals, prime fields).
* :mod:`cauchykit.matrix` -- the dense matrix container and its errors.
* :mod:`cauchykit.densela` -- generic brute-force linear algebra (the oracle).
* :mod:`cauchykit.cauchy` -- Cauchy matrices and their closed forms.
* :mod:`cauchykit.minmat` -- min matrices, the order-theoretic twin.
* :mod:`cauchykit.canary` -- float inversion as an ill-conditioning canary.
* :mod:`cauchykit.verify` / :mod:`cauchykit.cli` -- reports, JSON, CLI.

``import cauchykit`` loads ``ring``, ``matrix``, ``cauchy`` and ``minmat``:
the closed forms and their container, and no oracle code. The oracle layer,
``densela``, loads on the first oracle method called on a :class:`Matrix`,
or with ``verify`` and the CLI, which import it; ``canary`` loads on its
own import.
"""

from .ring import (
    CauchyKitError,
    ContextMismatchError,
    FpElement,
    NotInvertibleError,
    PrimeField,
    RationalRing,
    UnorderedRingError,
)
from .matrix import Matrix, ShapeError, SizeLimitError, WeightVectors
from .cauchy import CauchySpec, InvertibilityVerdict, NonInvertiblePairSumError
from .minmat import MinSpec, SortedMinSpec, UnsortedInputError

__all__ = [
    "CauchyKitError",
    "ContextMismatchError",
    "FpElement",
    "NotInvertibleError",
    "PrimeField",
    "RationalRing",
    "UnorderedRingError",
    "Matrix",
    "ShapeError",
    "SizeLimitError",
    "WeightVectors",
    "CauchySpec",
    "InvertibilityVerdict",
    "NonInvertiblePairSumError",
    "MinSpec",
    "SortedMinSpec",
    "UnsortedInputError",
]

__version__ = "0.1.0"
