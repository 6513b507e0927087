"""Exact closed forms for Cauchy and min matrices, with independent oracles.

The subpackages:

* :mod:`cauchykit.ring` -- exact scalars (rationals, prime fields).
* :mod:`cauchykit.matrix` -- the dense matrix container and its errors.
* :mod:`cauchykit.densela` -- generic brute-force linear algebra (the oracle).
* :mod:`cauchykit.cauchy` -- Cauchy matrices and their closed forms.
* :mod:`cauchykit.minmat` -- min matrices, the order-theoretic twin.
* :mod:`cauchykit.canary` -- float inversion as an ill-conditioning canary.
* :mod:`cauchykit.verify` / :mod:`cauchykit.cli` -- reports, JSON, CLI.

``import cauchykit`` loads ``ring``, ``matrix`` and ``cauchy``: the Cauchy
closed forms and their container, and no min-matrix or oracle code.
``minmat`` loads the first time one of its three exported names
(:class:`MinSpec`, :class:`SortedMinSpec`, :class:`UnsortedInputError`) is
read from the package, or with ``verify`` and the CLI, which import it. The
oracle layer, ``densela``, loads on the first oracle method called on a
:class:`Matrix`, or with ``verify`` and the CLI as well; ``canary`` loads on
its own import.
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


def __getattr__(name):
    """Load ``minmat`` on the first read of one of its exported names (PEP 562),
    and keep the name here so that later reads skip this hook."""
    if name not in ("MinSpec", "SortedMinSpec", "UnsortedInputError"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import minmat
    value = globals()[name] = getattr(minmat, name)
    return value


def __dir__():
    """The package's names, with every name of ``__all__`` before it is loaded."""
    return sorted({*globals(), *__all__})
