"""Exact arithmetic in a real quadratic field Q(sqrt(d)).

Every scalar that the rest of the package touches is a :class:`QuadNumber`:
a pair of rationals ``(a, b)`` representing ``a + b*sqrt(d)`` for a fixed
squarefree integer ``d >= 2``.  All operations are exact.  In particular:

* signs (and hence every comparison) are decided by rational case analysis
  — ``a + b*sqrt(d)`` with ``a`` and ``b`` of opposite sign reduces to
  comparing ``a**2`` against ``d*b**2``;
* ``floor`` is exact integer arithmetic: over a common denominator
  ``q > 0``, ``floor((n + r*sqrt(d))/q) = floor((n + floor(r*sqrt(d)))/q)``,
  and ``floor(r*sqrt(d))`` is ``isqrt(r**2*d)`` for ``r >= 0`` and
  ``-isqrt(r**2*d) - 1`` for ``r < 0`` (``r*sqrt(d)`` is never an integer
  then); ``ceil(x)`` is ``-floor(-x)``;
* square roots are found symbolically when they exist in the field
  (``sqrt(q)`` is either rational or a rational multiple of ``sqrt(d)``)
  and reported as absent otherwise.

The vector kernels every higher layer shares — ``dot``, ``bilinear`` and
the roots of a quadratic (``quadratic_roots``) — live here too, so each
is written once.  Most rows they meet are unit vectors or sparse (bound
rows, identity matrices, pairing tables of unrelated primes), so ``dot``
skips every product with an exact-zero factor and takes the other factor
of an exact one instead of multiplying.  Every zero part of an element is
one shared ``Fraction``, so a rational element keeps none of its own.

No floating point participates in any of these paths; ``float(x)`` exists
only as a convenience for display.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from math import isqrt
from typing import Optional, Sequence, Union

from .errors import (
    ComputationError,
    DiscriminantMismatchError,
    InputError,
    ParseError,
    RootOutsideFieldError,
)
from .frozen import Frozen

RationalLike = Union[int, Fraction]
ScalarLike = Union[int, Fraction, "QuadNumber"]

_SQUAREFREE_CACHE: set[int] = set()

# The zero part of every QuadNumber, so a rational element keeps no
# Fraction of its own for b.
_ZERO = Fraction(0)

# Squarefreeness is decided by trial division up to sqrt(d); this bound
# keeps that under half a million steps.
MAX_DISCRIMINANT = 10**12


def _require_squarefree(d: int) -> None:
    # the type first: 3.0 == 3 would otherwise pass as a cached 3
    if isinstance(d, int) and d in _SQUAREFREE_CACHE:
        return
    if not isinstance(d, int) or d < 2:
        raise ValueError(f"field discriminant must be an integer >= 2, got {d!r}")
    if d > MAX_DISCRIMINANT:
        raise ValueError(
            f"field discriminant must be at most {MAX_DISCRIMINANT}, got {d}"
        )
    if d % 4 == 0:
        raise ValueError(f"field discriminant must be squarefree, got {d}")
    p = 3
    while p * p <= d:
        if d % (p * p) == 0:
            raise ValueError(f"field discriminant must be squarefree, got {d}")
        p += 2
    _SQUAREFREE_CACHE.add(d)


class QuadNumber(Frozen):
    """The element ``a + b*sqrt(d)`` of Q(sqrt(d)), stored in lowest terms.

    The representation is canonical: two elements of the same field are
    equal iff their ``(a, b)`` pairs are equal.  Purely rational values
    (``b == 0``) compare equal, and hash identically, across fields and
    against plain ``int``/``Fraction``.
    """

    __slots__ = _fields = ("a", "b", "d")
    a: Fraction
    b: Fraction
    d: int

    def __init__(self, a: RationalLike, b: RationalLike, d: int) -> None:
        _require_squarefree(d)
        a = a if isinstance(a, Fraction) else Fraction(a)
        b = b if isinstance(b, Fraction) else Fraction(b)
        # tested after the conversion, so a malformed part still raises
        object.__setattr__(self, "a", a if a else _ZERO)
        object.__setattr__(self, "b", b if b else _ZERO)
        object.__setattr__(self, "d", d)

    # -- construction helpers ------------------------------------------

    @classmethod
    def rational(cls, value: RationalLike, d: int) -> "QuadNumber":
        return cls(Fraction(value), Fraction(0), d)

    @classmethod
    def in_field(cls, value: ScalarLike, d: int) -> "QuadNumber":
        """``value`` as an element of Q(sqrt(d)).

        Integers, Fractions and rational elements of any field are
        accepted; an irrational element of another field raises
        :class:`InputError`.
        """
        if isinstance(value, QuadNumber):
            if value.d == d:
                return value
            if value.b != 0:
                raise InputError(
                    f"scalar in Q(sqrt({value.d})) does not fit field Q(sqrt({d}))"
                )
            return cls(value.a, value.b, d)
        return cls.rational(value, d)

    @classmethod
    def zero(cls, d: int) -> "QuadNumber":
        return cls.rational(0, d)

    @classmethod
    def one(cls, d: int) -> "QuadNumber":
        return cls.rational(1, d)

    @classmethod
    def sqrt_d(cls, d: int) -> "QuadNumber":
        return cls(Fraction(0), Fraction(1), d)

    def _coerce(self, other: ScalarLike) -> Optional["QuadNumber"]:
        """Bring ``other`` into this element's field, or None if impossible."""
        if isinstance(other, QuadNumber):
            if other.d == self.d or other.b == 0:
                return QuadNumber(other.a, other.b, self.d) if other.d != self.d else other
            if self.b == 0:
                return other
            raise DiscriminantMismatchError(
                f"cannot mix sqrt({self.d}) with sqrt({other.d})"
            )
        if isinstance(other, (int, Fraction)):
            return QuadNumber(Fraction(other), Fraction(0), self.d)
        return None

    # -- field arithmetic ----------------------------------------------

    def __add__(self, other: ScalarLike) -> "QuadNumber":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.d != self.d:  # self was rational, o irrational in another field
            return QuadNumber(self.a + o.a, o.b, o.d)
        return QuadNumber(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __neg__(self) -> "QuadNumber":
        return QuadNumber(-self.a, -self.b, self.d)

    def __sub__(self, other: ScalarLike) -> "QuadNumber":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.__add__(-o)

    def __rsub__(self, other: ScalarLike) -> "QuadNumber":
        return (-self).__add__(other)

    def __mul__(self, other: ScalarLike) -> "QuadNumber":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.d != self.d:
            return o.__mul__(self)
        return QuadNumber(
            self.a * o.a + self.d * self.b * o.b,
            self.a * o.b + self.b * o.a,
            self.d,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadNumber":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(%d))" % self.d)
        return QuadNumber(self.a / n, -self.b / n, self.d)

    def __truediv__(self, other: ScalarLike) -> "QuadNumber":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.d != self.d:
            return QuadNumber(self.a, self.b, o.d).__truediv__(o)
        return self.__mul__(o.inverse())

    def __rtruediv__(self, other: ScalarLike) -> "QuadNumber":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __pow__(self, exponent: int) -> "QuadNumber":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = QuadNumber.one(self.d)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conjugate(self) -> "QuadNumber":
        return QuadNumber(self.a, -self.b, self.d)

    def norm(self) -> Fraction:
        """The field norm ``a**2 - d*b**2`` (a rational number)."""
        return self.a * self.a - self.d * self.b * self.b

    # -- exact sign, comparisons, integer parts ------------------------

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}, decided without approximation."""
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # Opposite signs: |a| vs |b|*sqrt(d), i.e. a**2 vs d*b**2, which
        # never tie because sqrt(d) is irrational.
        bigger_rational_part = a * a > self.d * b * b
        return 1 if (a > 0) == bigger_rational_part else -1

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def to_fraction(self) -> Fraction:
        if self.b != 0:
            raise ValueError(f"{self} is irrational")
        return self.a

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, QuadNumber):
            if self.b == 0 and other.b == 0:
                return self.a == other.a
            return self.d == other.d and self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self) -> int:
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def _cmp(self, other: ScalarLike) -> int:
        o = self._coerce(other)
        if o is None:
            raise TypeError(f"cannot compare QuadNumber with {type(other).__name__}")
        return (self - o).sign()

    def __lt__(self, other: ScalarLike) -> bool:
        return self._cmp(other) < 0

    def __le__(self, other: ScalarLike) -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other: ScalarLike) -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other: ScalarLike) -> bool:
        return self._cmp(other) >= 0

    def __abs__(self) -> "QuadNumber":
        return -self if self.sign() < 0 else self

    def __floor__(self) -> int:
        # self = (n + r*sqrt(d))/q with q > 0, and floor(r*sqrt(d)) is exact
        q = math.lcm(self.a.denominator, self.b.denominator)
        n = self.a.numerator * (q // self.a.denominator)
        r = self.b.numerator * (q // self.b.denominator)
        root = isqrt(r * r * self.d)
        return (n + (root if r >= 0 else -root - 1)) // q

    def __ceil__(self) -> int:
        return -math.floor(-self)

    def ceil(self) -> int:
        """Least integer ``k`` with ``k >= self`` (exact)."""
        return math.ceil(self)

    def floor(self) -> int:
        """Greatest integer ``k`` with ``k <= self`` (exact)."""
        return math.floor(self)

    # -- rendering ------------------------------------------------------

    def canonical_string(self) -> str:
        """Render as ``"p/q + r/s*sqrt(d)"``, omitting zero parts.

        Examples: ``"0"``, ``"33"``, ``"-5/3"``, ``"sqrt(3)"``,
        ``"2007/169 - 9/338*sqrt(3)"``.  ``parse_scalar`` inverts this.
        Raises :class:`ComputationError` when a numerator or denominator
        has more digits than Python converts to a string.
        """
        try:
            if self.b == 0:
                return str(self.a)
            mag = abs(self.b)
            term = f"sqrt({self.d})" if mag == 1 else f"{mag}*sqrt({self.d})"
            if self.a == 0:
                return term if self.b > 0 else "-" + term
            op = " + " if self.b > 0 else " - "
            return f"{self.a}{op}{term}"
        except ValueError:  # int -> str past Python's digit limit
            raise ComputationError(
                "result too large to print: an integer in it exceeds Python's "
                "digit limit for integer-to-string conversion"
            ) from None

    def __str__(self) -> str:
        return self.canonical_string()

    def __repr__(self) -> str:
        return f"QuadNumber({self.canonical_string()!r}, d={self.d})"

    def __float__(self) -> float:
        # Display convenience only; exact code paths never call this.
        return float(self.a) + float(self.b) * math.sqrt(self.d)


# ---------------------------------------------------------------------------
# vector kernels


def dot(u: Sequence[QuadNumber], v: Sequence[QuadNumber]) -> QuadNumber:
    """``sum u_i * v_i`` over two nonempty vectors of equal length.

    A product with an exact-zero factor is skipped and one with an
    exact-one factor is the other factor, so nothing is multiplied by 0
    or 1; with no nonzero product the sum is the zero of ``u[0]``'s field.
    """
    total = None
    for x, y in zip(u, v):
        if not (x and y):
            continue
        term = y if x == 1 else x if y == 1 else x * y
        total = term if total is None else total + term
    return QuadNumber.zero(u[0].d) if total is None else total


def bilinear(
    matrix: Sequence[Sequence[QuadNumber]],
    u: Sequence[QuadNumber],
    v: Sequence[QuadNumber],
) -> QuadNumber:
    """``u^T matrix v`` for a nonempty square matrix."""
    return dot(u, [dot(row, v) for row in matrix])


def quadratic_roots(
    alpha: QuadNumber, beta: QuadNumber, chi: QuadNumber
) -> Optional[list[QuadNumber]]:
    """Roots of ``alpha s^2 + beta s + chi = 0`` in the coefficients' field.

    Returns None when the equation holds for every ``s``, otherwise the
    (possibly empty) list of distinct roots.  Raises
    :class:`RootOutsideFieldError` when real roots exist but lie outside
    the field.
    """
    if alpha.sign() == 0:
        if beta.sign() == 0:
            return None if chi.sign() == 0 else []
        return [-chi / beta]
    disc = beta * beta - 4 * alpha * chi
    s = disc.sign()
    if s < 0:
        return []
    if s == 0:
        return [-beta / (2 * alpha)]
    root = field_sqrt(disc)
    if root is None:
        raise RootOutsideFieldError(
            f"root outside field: sqrt({disc.canonical_string()}) "
            f"is not in Q(sqrt({disc.d}))"
        )
    return [(-beta + root) / (2 * alpha), (-beta - root) / (2 * alpha)]


# ---------------------------------------------------------------------------
# parsing and JSON encoding


_RAT = r"[+-]?\d+(?:/\d+)?"
_RAT_UNSIGNED = r"\d+(?:/\d+)?"
_RE_RATIONAL = re.compile(rf"({_RAT})$")
_RE_ROOT_TERM = re.compile(rf"([+-]?)(?:({_RAT_UNSIGNED})\*)?sqrt\((\d+)\)$")
_RE_FULL = re.compile(
    rf"({_RAT})([+-])(?:({_RAT_UNSIGNED})\*)?sqrt\((\d+)\)$"
)


def _check_discriminant(found: Fraction, expected: int) -> None:
    if found != expected:
        raise ParseError(f"expected sqrt({expected}), found sqrt({found})")


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {text!r}") from None
    except ValueError:  # the patterns admit only digits, so: past Python's digit limit
        raise ParseError(
            f"{len(text)}-character number exceeds Python's integer digit limit"
        ) from None


def parse_scalar(text: str, d: int) -> QuadNumber:
    """Parse the canonical scalar form back into a :class:`QuadNumber`.

    Accepts ``"p/q"``, ``"[r/s*]sqrt(d)"`` with optional sign, and
    ``"p/q +- [r/s*]sqrt(d)"``; whitespace is ignored.
    """
    compact = text.strip().replace(" ", "")
    if not compact:
        raise ParseError("empty scalar")
    m = _RE_RATIONAL.match(compact)
    if m:
        return QuadNumber(_rational(m.group(1)), Fraction(0), d)
    m = _RE_ROOT_TERM.match(compact)
    if m:
        sign_str, coeff, found_d = m.groups()
        _check_discriminant(_rational(found_d), d)
        b = _rational(coeff) if coeff else Fraction(1)
        if sign_str == "-":
            b = -b
        return QuadNumber(Fraction(0), b, d)
    m = _RE_FULL.match(compact)
    if m:
        a_str, op, coeff, found_d = m.groups()
        _check_discriminant(_rational(found_d), d)
        b = _rational(coeff) if coeff else Fraction(1)
        if op == "-":
            b = -b
        return QuadNumber(_rational(a_str), b, d)
    raise ParseError(f"cannot parse scalar {text!r}")


def scalar_to_json(x: QuadNumber) -> Union[str, dict]:
    """JSON form: ``"p/q"`` when rational, else ``{"a": "p/q", "b": "r/s"}``."""
    if x.b == 0:
        return str(x.a)
    return {"a": str(x.a), "b": str(x.b)}


_JSON_FORMS = 'an integer, a "p/q" string, or {"a": ..., "b": ...} of those'


def _json_rational(part: object, doc: object) -> Fraction:
    """``part`` of the JSON scalar ``doc``: an int (not a bool) or ``"p/q"``."""
    if isinstance(part, int) and not isinstance(part, bool):
        return Fraction(part)
    m = _RE_RATIONAL.match(part.strip()) if isinstance(part, str) else None
    if m is None:
        raise ParseError(f"not a scalar: {doc!r}; expected {_JSON_FORMS}")
    return _rational(m.group(1))


def scalar_from_json(doc: object, d: int) -> QuadNumber:
    """Accept ``int``, ``"p/q"``, or ``{"a": ..., "b": ...}`` with parts of
    those two forms; a float or a decimal string is refused."""
    if isinstance(doc, dict):
        extra = set(doc) - {"a", "b"}
        if extra:
            raise ParseError(f"unknown scalar fields {sorted(extra)}")
        a, b = (_json_rational(doc.get(key, 0), doc) for key in "ab")
        return QuadNumber(a, b, d)
    return QuadNumber(_json_rational(doc, doc), Fraction(0), d)


# ---------------------------------------------------------------------------
# square roots


def rational_sqrt(q: RationalLike) -> Optional[Fraction]:
    """Exact square root of a rational, or None when it is not a square."""
    q = Fraction(q)
    if q < 0:
        return None
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def sqrt_in_field(q: RationalLike, d: int) -> Optional[QuadNumber]:
    """Nonnegative square root of the rational ``q`` inside Q(sqrt(d)).

    Exists iff ``q`` is a rational square or ``d`` times one; e.g.
    ``sqrt_in_field(12, 3) == 2*sqrt(3)`` while ``sqrt_in_field(2, 3)``
    is None.
    """
    _require_squarefree(d)
    q = Fraction(q)
    if q < 0:
        return None
    r = rational_sqrt(q)
    if r is not None:
        return QuadNumber(r, Fraction(0), d)
    r = rational_sqrt(q / d)
    if r is not None:
        return QuadNumber(Fraction(0), r, d)
    return None


def field_sqrt(x: QuadNumber) -> Optional[QuadNumber]:
    """Nonnegative square root of ``x`` within its own field, if any.

    For irrational ``x = a + b*sqrt(d)``, a root ``p + q*sqrt(d)`` forces
    ``p**2`` to be ``(a ± sqrt(norm(x)))/2``, so the norm must be a
    rational square; both branches are tried and verified by squaring.
    """
    if x.sign() < 0:
        return None
    if x.b == 0:
        return sqrt_in_field(x.a, x.d)
    s = rational_sqrt(x.norm())
    if s is None:
        return None
    for u in ((x.a + s) / 2, (x.a - s) / 2):
        p = rational_sqrt(u)
        if p is None or p == 0:
            continue
        candidate = QuadNumber(p, x.b / (2 * p), x.d)
        if candidate * candidate == x:
            return candidate if candidate.sign() >= 0 else -candidate
    return None
