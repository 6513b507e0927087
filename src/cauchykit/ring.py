"""Exact scalar arithmetic over two ring contexts.

Rational scalars are stdlib :class:`fractions.Fraction` values: arbitrary
precision, always in lowest terms with a positive denominator, so equality
is plain structural equality. Prime-field scalars are :class:`FpElement`
residues modulo a fixed prime (default 101).

A ring context (:class:`RationalRing` or :class:`PrimeField`) bundles the
ring-specific operations the generic linear algebra needs: construction,
parsing, rendering, inversion, invertibility testing, and (rationals only)
comparison. Addition, subtraction, multiplication and negation go through
the ordinary Python operators on the scalars themselves.

Every inversion in F_p, whether by ``PrimeField.inv``, by ``/`` either way
round or by the batch :func:`_inv_rows_mod`, goes through one helper,
:func:`_inverse`, which raises :class:`NotInvertibleError` on zero. The
batch is one Montgomery sweep grouped by rows: it yields the reciprocals
and, at no extra cost, each row's product, which the Cauchy closed forms
keep as the row products of the pair sums. :func:`_inv_all_mod` is its
one-row case.

An :class:`FpElement` always holds a residue in [0, p); the class call
reduces its argument to one. Only three callers skip that call:
:func:`cauchykit.cauchy.build`, :func:`cauchykit.cauchy.inverse_closed`
and :meth:`PrimeField.inv_all` make their elements in one pass through
:func:`_wrap`, which reduces nothing, so each reduces its residues mod p
first. The oracle layer, :mod:`cauchykit.densela`, keeps the class call.

Scalars from different contexts never mix: arithmetic between a rational
and a prime-field residue, or between residues modulo different primes,
raises :class:`ContextMismatchError`. No floating point is used anywhere
in this module.

The package's record classes, the two ring contexts among them, are
written out on one private base, :class:`_Record`, which gives field-wise
``==`` and ``repr``, and its frozen subclass :class:`_Frozen`. No record is
a dataclass, so an import of the package runs no code generation. Both
kinds of spec check their two parameter vectors with :func:`_vectors`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat


class CauchyKitError(Exception):
    """Base class for every error this package raises on purpose."""


class ContextMismatchError(CauchyKitError):
    """Scalars from different ring contexts met in one operation."""


class UnorderedRingError(CauchyKitError):
    """An ordering was requested in a ring that has none."""


class NotInvertibleError(CauchyKitError):
    """Inversion of a non-invertible element was attempted.

    The offending value is kept on ``.value`` so callers can report it.
    """

    def __init__(self, value, message: str | None = None):
        super().__init__(message or f"not invertible: {value!r}")
        self.value = value


# Miller-Rabin on the primes up to 41 is exact below this bound, the least
# strong pseudoprime to all of them (Sorenson & Webster, Math. Comp. 86, 2017).
# The primes up to 37 alone pass 318665857834031151167461 = 399165290221 * 798330580441.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for 0 <= n < _MR_BOUND."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _inverse(v: int, p: int) -> int:
    """The inverse of the residue ``v`` (0 <= v < p) mod the prime ``p``."""
    if v == 0:
        raise NotInvertibleError(FpElement(0, p))
    return pow(v, -1, p)


def _inv_rows_mod(rows: list, p: int) -> tuple[list, list]:
    """The inverses mod the prime ``p`` of the integers in ``rows``, as
    residues in row-major order, and each row's product mod p, with one
    modular inversion (Montgomery's trick, Math. Comp. 48, 1987). Each row's
    prefix products end on that row's product, so the products cost nothing
    extra; the row products are inverted together, and each row is then
    swept back from its own. A multiple of p anywhere raises NotInvertibleError."""
    out, prods, tops, acc = [], [], [], 1
    for row in rows:
        tops.append(acc)  # the product of the earlier rows' products
        r = 1
        for v in row:
            out.append(r)  # the row's prefix product before v, replaced below
            r = r * v % p
        prods.append(r)
        acc = acc * r % p
    acc = _inverse(acc, p)  # 1/(P_0 ... P_j) at the top of each row below
    ks = reversed(range(len(out)))  # one index stream, shared by the rows
    for row, top, r in zip(reversed(rows), reversed(tops), reversed(prods)):
        inv = acc * top % p  # 1/P_j, then 1/(v_0 ... v_k) for each v_k in turn
        acc = acc * r % p
        for v, k in zip(reversed(row), ks):  # the row first: zip stops on it before taking a k
            out[k] = inv * out[k] % p
            inv = inv * v % p
    return out, prods


def _inv_all_mod(vs: list, p: int) -> list:
    """The inverses mod the prime ``p`` of the integers ``vs``, as residues:
    :func:`_inv_rows_mod` on one row."""
    return _inv_rows_mod([vs], p)[0]


def _wrap(residues: list, p: int) -> list:
    """An :class:`FpElement` for each residue, which must already lie in
    [0, p), with no class call per entry: the bulk path of the closed forms
    and of :meth:`PrimeField.inv_all`, in the idiom of ``Matrix._of``."""
    out = list(map(object.__new__, repeat(FpElement, len(residues))))
    for e, v in zip(out, residues):
        e.value = v
        e.p = p
    return out


def _binary(op):
    """An :class:`FpElement` operator that applies ``op(a, b, p)`` to the
    residue ``a`` of self and the residue ``b`` of the lifted operand. An
    operand that is not a scalar gives NotImplemented, so Python tries its
    reflected method."""

    def method(self, other):
        v = self._lift(other)
        if v is NotImplemented:
            return NotImplemented
        return FpElement(op(self.value, v, self.p), self.p)

    return method


class FpElement:
    """A residue modulo the prime ``p``. Immutable value object.

    ``value`` lies in [0, p): the constructor reduces it. :func:`_wrap` makes
    elements past the constructor for the F_p closed forms and
    :meth:`PrimeField.inv_all`, which keep that invariant themselves.

    Arithmetic with plain ``int`` lifts the integer into the field. A
    ``Fraction``, ``float`` or ``complex`` operand, or a residue modulo
    another prime, is a context mismatch (:class:`ContextMismatchError`);
    any other operand, such as a ``str``, ``None`` or a list, gets
    NotImplemented, and so ``TypeError`` unless it defines the reflected
    operator.
    """

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        self.value = value % p
        self.p = p

    def _lift(self, other):
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise ContextMismatchError(
                    f"mixed prime fields: p={self.p} and p={other.p}"
                )
            return other.value
        if isinstance(other, int):
            return other % self.p
        if isinstance(other, (Fraction, float, complex)):
            raise ContextMismatchError(
                f"cannot combine F_{self.p} element with {type(other).__name__}"
            )
        return NotImplemented

    __add__ = __radd__ = _binary(lambda a, b, p: a + b)
    __sub__ = _binary(lambda a, b, p: a - b)
    __rsub__ = _binary(lambda a, b, p: b - a)
    __mul__ = __rmul__ = _binary(lambda a, b, p: a * b)
    __truediv__ = _binary(lambda a, b, p: a * _inverse(b, p))
    __rtruediv__ = _binary(lambda a, b, p: b * _inverse(a, p))

    def __neg__(self):
        return FpElement(-self.value, self.p)

    def __pow__(self, exponent: int):
        if exponent < 0 and self.value == 0:
            raise NotInvertibleError(self)
        return FpElement(pow(self.value, exponent, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.p == other.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.p))

    def _no_order(self, other):
        raise UnorderedRingError(f"F_{self.p} has no ordering")

    __lt__ = __le__ = __gt__ = __ge__ = _no_order

    def __repr__(self):
        return f"FpElement({self.value}, p={self.p})"

    def __str__(self):
        return str(self.value)


class _Record:
    """A record whose fields are the names in ``__match_args__``, in order:
    ``==`` holds between two records of one class with equal fields, and
    ``repr`` shows the class and each field. A plain record is mutable and
    unhashable; each subclass writes its own ``__init__``."""

    __slots__ = ()
    __match_args__ = ()
    __hash__ = None

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"


def _lengths(xs, ys) -> None:
    """Check that two parameter vectors are nonempty and of one length. Specs
    check this before any scalar, so a mismatched spec is refused without
    coercing its entries."""
    if not xs:
        raise ValueError("need at least one parameter in each vector")
    if len(xs) != len(ys):
        raise ValueError(f"xs has {len(xs)} entries but ys has {len(ys)}")


def _vectors(xs, ys, coerce) -> tuple[tuple, tuple]:
    """The parameter vectors of a spec, each a tuple of ``coerce``d scalars,
    checked by :func:`_lengths` before the first is coerced."""
    xs, ys = tuple(xs), tuple(ys)
    _lengths(xs, ys)
    return tuple(map(coerce, xs)), tuple(map(coerce, ys))


class _Frozen(_Record):
    """A record that refuses assignment and deletion and hashes as its field
    tuple. Its fields are slots, which ``__init__`` fills with
    ``object.__setattr__``; copy and pickle rebuild it from the fields."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen record")

    def __hash__(self):
        return hash(self._fields())

    def __reduce__(self):
        return self.__class__, self._fields()


class _Context(_Frozen):
    """What both ring contexts define alike, in terms of their own ``coerce``."""

    __slots__ = ()

    @property
    def zero(self):
        return self.coerce(0)

    @property
    def one(self):
        return self.coerce(1)

    def render(self, a) -> str:
        return str(self.coerce(a))

    def is_invertible(self, a) -> bool:
        return self.coerce(a) != 0


class RationalRing(_Context):
    """The field of arbitrary-precision rationals."""

    __slots__ = ()
    kind = "rational"
    is_ordered = True

    def coerce(self, v) -> Fraction:
        """Turn ``v`` into a rational scalar of this context.

        Accepts Fraction, int, and the text format understood by
        :meth:`parse`. Floats are rejected: this ring is exact.
        """
        if isinstance(v, Fraction):
            return v
        if isinstance(v, int):
            return Fraction(v)
        if isinstance(v, str):
            return self.parse(v)
        if isinstance(v, FpElement):
            raise ContextMismatchError(
                f"prime-field residue (p={v.p}) used in a rational context"
            )
        raise TypeError(f"cannot use {type(v).__name__} as an exact rational")

    def parse(self, text: str) -> Fraction:
        return Fraction(text.strip())

    def inv(self, a) -> Fraction:
        a = self.coerce(a)
        if a == 0:
            raise NotInvertibleError(a)
        return 1 / a

    def inv_all(self, values) -> list:
        """One by one: a Fraction inverse is a swap, and batching would grow bignums."""
        return [self.inv(a) for a in values]

    def cmp(self, a, b) -> int:
        """Total order on the rationals: -1, 0, or +1."""
        a, b = self.coerce(a), self.coerce(b)
        return (a > b) - (a < b)


class PrimeField(_Context):
    """The prime field F_p. ``p`` must be an ``int`` and prime (checked at construction)."""

    __slots__ = __match_args__ = ("p",)
    kind = "prime_field"
    is_ordered = False

    def __init__(self, p: int = 101):
        if not (isinstance(p, int) and p < _MR_BOUND and _is_prime(p)):
            raise ValueError(f"prime field modulus must be a prime < {_MR_BOUND}, got {p!r}")
        object.__setattr__(self, "p", p)

    def coerce(self, v) -> FpElement:
        if isinstance(v, FpElement):
            if v.p != self.p:
                raise ContextMismatchError(
                    f"residue mod {v.p} used in F_{self.p} context"
                )
            return v
        if isinstance(v, int):
            return FpElement(v, self.p)
        if isinstance(v, str):
            return self.parse(v)
        if isinstance(v, Fraction):
            raise ContextMismatchError(
                f"rational scalar used in F_{self.p} context"
            )
        raise TypeError(f"cannot use {type(v).__name__} in F_{self.p}")

    def parse(self, text: str) -> FpElement:
        return FpElement(int(text.strip()), self.p)

    def inv(self, a) -> FpElement:
        return FpElement(_inverse(self.coerce(a).value, self.p), self.p)

    def inv_all(self, values) -> list:
        """The inverses of ``values`` with one modular inversion (see
        :func:`_inv_all_mod`). A zero anywhere raises NotInvertibleError, as inv does."""
        return _wrap(_inv_all_mod([self.coerce(a).value for a in values], self.p), self.p)

    def cmp(self, a, b) -> int:
        raise UnorderedRingError(f"F_{self.p} has no ordering")


RingContext = RationalRing | PrimeField
Scalar = Fraction | FpElement
