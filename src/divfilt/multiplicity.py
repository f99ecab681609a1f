"""Multiplicities, mixed multiplicities, and piecewise limit formulas.

Everything here reduces to two ingredients supplied by the lower layers:
the minimal nef envelope of a divisor (``envelope.gamma``) and the
trilinear intersection form (``model.triple``).  Writing ``sigma(D)`` for
the divisor built from the envelope coordinates of ``D``:

* the normalized colength limit of the filtration of ``D`` is
  ``(sigma(D)^3) / 3!`` and its multiplicity is the same times ``3!``;
* the mixed multiplicity with exponents ``(d1, ..., dr)``, summing to 3,
  is the trilinear form evaluated on ``sigma(D_1), ..., sigma(D_r)`` with
  those multiplicities (two sign flips — negating the divisors and
  negating the product — cancel);
* along a two-divisor family ``n*D1 + j*D2`` the limit is a cubic in
  ``(n, j)`` on each cone of constant envelope behaviour, assembled here
  into a :class:`PiecewisePoly` whose coefficients may be irrational.

``product_limit`` and ``minkowski_check`` read one vector of four mixed
values ``e(i) = (P^i . Q^(3-i))`` of the two envelope divisors ``P, Q``
(``_mixed_values``, from the polar vectors ``(E_m . P . P)`` and ``(E_m .
Q . Q)`` of the model's polar table), computed once per pair and kept on
``D1``; each region's cubic in ``piecewise_limit`` reads the vector of
its line.
The Minkowski report's ``((P + Q)^3)`` is ``e(3) + 3 e(2) + 3 e(1) + e(0)``
by trilinearity and the symmetry that :meth:`ThreefoldModel.validate`
certifies.

The four Minkowski-style inequalities among these numbers are decided
exactly inside the field, the one with cube roots by the sign of
``(L - a - b)^3 - 27abL``; certified interval refinement names the
digits that separate its sides when they differ.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

# unused here, but bench/tracing.py wraps ``multiplicity.gamma`` too
from .envelope import GammaEnvelope, _sigma, _walk, gamma  # noqa: F401
from .errors import ComputationError, InputError
from .frozen import Frozen, _kept
from .intervals import cbrt_enclosure, quad_enclosure
from .model import ExcDivisor, ThreefoldModel
from .qfield import QuadNumber, ScalarLike, dot

MONOMIALS = ((3, 0), (2, 1), (1, 2), (0, 3))
MONOMIAL_NAMES = ("n^3", "n^2*j", "n*j^2", "j^3")


class CubicForm(Frozen):
    """A homogeneous cubic in (n, j): coefficients for n^3, n^2 j, n j^2, j^3."""

    __slots__ = _fields = ("coefficients",)
    coefficients: tuple[QuadNumber, QuadNumber, QuadNumber, QuadNumber]

    def __init__(
        self, coefficients: tuple[QuadNumber, QuadNumber, QuadNumber, QuadNumber]
    ) -> None:
        self._set_fields(coefficients)

    def coefficient(self, d1: int, d2: int) -> QuadNumber:
        if any(not isinstance(d, int) or isinstance(d, bool) for d in (d1, d2)):
            raise InputError("monomial degrees must be integers")
        try:
            return self.coefficients[MONOMIALS.index((d1, d2))]
        except ValueError:
            raise InputError(f"no monomial n^{d1} j^{d2} of degree 3") from None

    def value_at(self, n: ScalarLike, j: ScalarLike) -> QuadNumber:
        c30, c21, c12, c03 = self.coefficients
        return ((c30 * n + c21 * j) * n + c12 * j * j) * n + c03 * j * j * j

    def slope_value(self, r: ScalarLike) -> QuadNumber:
        """Value at (1, r); the cubic along the ray j = r*n is n^3 times this."""
        return self.value_at(1, r)

    def __sub__(self, other: "CubicForm") -> "CubicForm":
        return CubicForm(
            tuple(a - b for a, b in zip(self.coefficients, other.coefficients))
        )

    def scaled(self, factor: ScalarLike) -> "CubicForm":
        return CubicForm(tuple(c * factor for c in self.coefficients))

    def render(self) -> str:
        parts: list[tuple[bool, str]] = []
        for coeff, mono in zip(self.coefficients, MONOMIAL_NAMES):
            if coeff.sign() == 0:
                continue
            if coeff.is_rational:
                negative = coeff.sign() < 0
                magnitude = abs(coeff)
                body = mono if magnitude == 1 else f"{magnitude}*{mono}"
            else:
                negative = False
                body = f"({coeff.canonical_string()})*{mono}"
            parts.append((negative, body))
        if not parts:
            return "0"
        first_negative, first_body = parts[0]
        text = ("-" if first_negative else "") + first_body
        for negative, body in parts[1:]:
            text += (" - " if negative else " + ") + body
        return text

    def to_json_dict(self) -> dict:
        return {
            name: c.canonical_string()
            for name, c in zip(MONOMIAL_NAMES, self.coefficients)
        }

    def __str__(self) -> str:
        return self.render()


class PiecewiseRegion(NamedTuple):
    lower_slope: QuadNumber
    upper_slope: Optional[QuadNumber]  # None = unbounded
    poly: CubicForm

    def bounds_string(self) -> str:
        upper = (
            "inf" if self.upper_slope is None else self.upper_slope.canonical_string()
        )
        return f"[{self.lower_slope.canonical_string()}, {upper})"


class PiecewisePoly(Frozen):
    """A slope-piecewise homogeneous cubic on the effective quadrant.

    Region k applies when ``lower_slope <= j/n < upper_slope`` (the last
    region is unbounded and also covers ``n = 0``).  Adjacent regions
    agree on their shared boundary ray, so the closed/half-open reading
    of the bounds never changes a value.
    """

    __slots__ = _fields = ("regions",)
    regions: tuple[PiecewiseRegion, ...]

    def __init__(self, regions: tuple[PiecewiseRegion, ...]) -> None:
        if not regions:
            raise InputError("piecewise polynomial needs at least one region")
        if regions[0].lower_slope.sign() != 0:
            raise InputError("first region must start at slope 0")
        for left, right in zip(regions, regions[1:]):
            if left.upper_slope is None or left.upper_slope != right.lower_slope:
                raise InputError("region slopes must be contiguous")
        for region in regions:
            if (
                region.upper_slope is not None
                and (region.upper_slope - region.lower_slope).sign() <= 0
            ):
                raise InputError("region slopes must strictly increase")
        if regions[-1].upper_slope is not None:
            raise InputError("last region must be unbounded")
        self._set_fields(regions)

    def region_for(self, n: ScalarLike, j: ScalarLike) -> PiecewiseRegion:
        d = self.regions[0].lower_slope.d
        n, j = QuadNumber.in_field(n, d), QuadNumber.in_field(j, d)
        if n.sign() < 0 or j.sign() < 0 or (n.sign() == 0 and j.sign() == 0):
            raise InputError("evaluation point must be effective and nonzero")
        if n.sign() == 0:
            return self.regions[-1]
        slope = j / n
        for region in self.regions:
            if region.upper_slope is None or slope < region.upper_slope:
                return region
        return self.regions[-1]

    def value_at(self, n: ScalarLike, j: ScalarLike) -> QuadNumber:
        return self.region_for(n, j).poly.value_at(n, j)

    def scaled(self, factor: ScalarLike) -> "PiecewisePoly":
        return PiecewisePoly(
            tuple(
                PiecewiseRegion(r.lower_slope, r.upper_slope, r.poly.scaled(factor))
                for r in self.regions
            )
        )

    def boundary_slopes(self) -> list[QuadNumber]:
        return [r.lower_slope for r in self.regions[1:]]

    def lines(self) -> list[str]:
        return [
            f"region {k}: {region.bounds_string()} -> {region.poly.render()}"
            for k, region in enumerate(self.regions, start=1)
        ]

    def to_json_dict(self) -> dict:
        return {
            "regions": [
                {
                    "lower_slope": r.lower_slope.canonical_string(),
                    "upper_slope": None
                    if r.upper_slope is None
                    else r.upper_slope.canonical_string(),
                    "poly": r.poly.to_json_dict(),
                }
                for r in self.regions
            ]
        }


class MultReport(Frozen):
    """Normalized limit and multiplicity of one divisor's filtration."""

    __slots__ = _fields = ("limit", "multiplicity", "gamma_used")
    limit: QuadNumber
    multiplicity: QuadNumber
    gamma_used: GammaEnvelope

    def __init__(
        self, limit: QuadNumber, multiplicity: QuadNumber, gamma_used: GammaEnvelope
    ) -> None:
        if multiplicity != limit * 6:
            raise ComputationError("multiplicity must equal 3! times the limit")
        if multiplicity.sign() < 0:
            raise ComputationError(
                "negative multiplicity: model violates nonnegativity"
            )
        self._set_fields(limit, multiplicity, gamma_used)


def limit_single(model: ThreefoldModel, D: ExcDivisor) -> MultReport:
    """lim of colength(m*D-filtration)/m^3, via the envelope divisor.

    With sigma the envelope divisor, the limit is ``-((-sigma)^3)/3!``,
    i.e. ``(sigma^3)/6`` after the sign flips cancel.
    """
    env = _sigma(model, D)
    sigma = env.envelope_divisor
    multiplicity = model.triple(sigma, sigma, sigma)
    return MultReport(
        limit=multiplicity / 6, multiplicity=multiplicity, gamma_used=env
    )


def mixed(
    model: ThreefoldModel, factors: Sequence[tuple[ExcDivisor, int]]
) -> QuadNumber:
    """Mixed multiplicity with the given exponents (summing to 3).

    Symmetric in its factors; ``mixed([(D, 3)])`` equals the plain
    multiplicity of ``D``.
    """
    for _, exponent in factors:
        if not isinstance(exponent, int) or isinstance(exponent, bool) or exponent < 0:
            raise InputError("exponents must be nonnegative integers")
    if sum(exponent for _, exponent in factors) != model.dimension:
        raise InputError(f"exponents must sum to {model.dimension}")
    slots: list[ExcDivisor] = []
    for D, exponent in factors:
        if exponent:
            slots.extend([_sigma(model, D).envelope_divisor] * exponent)
    return model.triple(slots[0], slots[1], slots[2])


def _mixed_values(
    model: ThreefoldModel, P: ExcDivisor, Q: ExcDivisor
) -> tuple[QuadNumber, QuadNumber, QuadNumber, QuadNumber]:
    """``(e(0), e(1), e(2), e(3))`` with ``e(i) = (P^i . Q^(3-i))``.

    Two polar vectors (:meth:`ThreefoldModel.polar`) give all four:
    ``e(0), e(1)`` are ``Q, P`` dotted with ``polar(Q, Q)``, and ``e(2),
    e(3)`` are ``Q, P`` dotted with ``polar(P, P)``, which reads ``(P . P
    . Q)`` as ``(Q . P . P)`` by the symmetry that
    :meth:`ThreefoldModel.validate` certifies.
    """
    p, q = P.coeffs, Q.coeffs
    wp, wq = model.polar(P, P), model.polar(Q, Q)
    return dot(q, wq), dot(p, wq), dot(q, wp), dot(p, wp)


def _pair_values(
    model: ThreefoldModel, D1: ExcDivisor, D2: ExcDivisor
) -> tuple[QuadNumber, QuadNumber, QuadNumber, QuadNumber]:
    """:func:`_mixed_values` of ``(sigma(D1), sigma(D2))``, kept on ``D1``
    by ``D2``'s coefficients (:func:`frozen._kept`) once both divisors'
    models are checked."""
    model._check_own(D1, D2)

    def values() -> tuple[QuadNumber, QuadNumber, QuadNumber, QuadNumber]:
        sigma1, sigma2 = (_sigma(model, D).envelope_divisor for D in (D1, D2))
        return _mixed_values(model, sigma1, sigma2)

    return _kept(D1, "mixed_values", values, key=D2.coeffs)


def _cubic(e: Sequence[QuadNumber]) -> CubicForm:
    """Cubic of (n*P + j*Q)^3 / 6 from the mixed values ``e`` of ``(P, Q)``."""
    e0, e1, e2, e3 = e
    return CubicForm((e3 / 6, e2 / 2, e1 / 2, e0 / 6))


def piecewise_limit(
    model: ThreefoldModel, D1: ExcDivisor, D2: ExcDivisor
) -> PiecewisePoly:
    """The limit of ``n*D1 + j*D2`` filtrations as a piecewise cubic.

    Within each region of the walk behind :func:`envelope.regions` the
    envelope is an affine function ``P + r*Q`` of the slope; one
    :class:`PiecewiseRegion` per walk record carries its slopes and the
    cubic ``(n*P + j*Q)^3/6`` of its line.  The lines are the ones the
    walk certified, so beyond ``sigma(D1)`` no ``gamma`` call runs, and
    the last one's direction is kept as ``sigma(D2)``.
    """
    pieces = [
        PiecewiseRegion(region.lo, region.hi, _cubic(_mixed_values(model, *region.line)))
        for region in _walk(model, D1, D2)
    ]
    return PiecewisePoly(tuple(pieces))


def product_limit(
    model: ThreefoldModel, D1: ExcDivisor, D2: ExcDivisor
) -> CubicForm:
    """Limit of the product filtration of ``(n*D1, j*D2)`` as one cubic.

    The coefficient of ``n^d1 j^d2`` is the mixed multiplicity with those
    exponents divided by ``d1! d2!``; unlike :func:`piecewise_limit` this
    is a single polynomial valid on the whole quadrant.  It shares one
    vector of mixed values with :func:`minkowski_check`
    (:func:`_pair_values`).
    """
    return _cubic(_pair_values(model, D1, D2))


# ---------------------------------------------------------------------------
# Minkowski-style inequality checks


class InequalityCheck(NamedTuple):
    label: str
    holds: bool
    method: str
    lhs: str
    rhs: str

    def line(self) -> str:
        verdict = "holds" if self.holds else "FAILS"
        return f"inequality {self.label}: {self.lhs} <= {self.rhs} ... {verdict} [{self.method}]"

    def to_json_dict(self) -> dict:
        return self._asdict()


def _sides(
    e: Sequence[QuadNumber],
) -> list[tuple[str, QuadNumber, QuadNumber]]:
    """``(label, lhs, rhs)`` of inequalities 1-3, each ``lhs <= rhs``."""
    return [
        *((f"1(i={i})", e[i] ** 2, e[i + 1] * e[i - 1]) for i in (1, 2)),
        *((f"2(i={i})", e[i] * e[3 - i], e[3] * e[0]) for i in range(4)),
        *((f"3(i={i})", e[3 - i] ** 3, e[3] ** (3 - i) * e[0] ** i) for i in range(4)),
    ]


class MinkowskiReport(NamedTuple):
    """The four inequality families on ``e_values``: one verdict per check,
    and how inequality 4 was decided.  The sides are rendered on demand
    (:attr:`checks`)."""

    e_values: tuple[QuadNumber, QuadNumber, QuadNumber, QuadNumber]
    product_multiplicity: QuadNumber
    verdicts: tuple[bool, ...]
    cube_root_method: str

    @property
    def checks(self) -> tuple[InequalityCheck, ...]:
        e, L = self.e_values, self.product_multiplicity
        exact = [
            (label, "exact", lhs.canonical_string(), rhs.canonical_string())
            for label, lhs, rhs in _sides(e)
        ]
        fourth = (
            "4",
            self.cube_root_method,
            f"cbrt({L.canonical_string()})",
            f"cbrt({e[3].canonical_string()}) + cbrt({e[0].canonical_string()})",
        )
        return tuple(
            InequalityCheck(label, holds, method, lhs, rhs)
            for (label, method, lhs, rhs), holds in zip([*exact, fourth], self.verdicts)
        )

    @property
    def all_hold(self) -> bool:
        return all(self.verdicts)

    def lines(self) -> list[str]:
        out = [
            f"e({i}) = {self.e_values[i].canonical_string()}"
            for i in range(3, -1, -1)
        ]
        out.append(
            f"e(product) = {self.product_multiplicity.canonical_string()}"
        )
        out.extend(c.line() for c in self.checks)
        out.append("all inequalities hold" if self.all_hold else "SOME INEQUALITY FAILS")
        return out

    def to_json_dict(self) -> dict:
        return {
            "e": {
                str(i): self.e_values[i].canonical_string() for i in range(4)
            },
            "e_product": self.product_multiplicity.canonical_string(),
            "checks": [c.to_json_dict() for c in self.checks],
            "all_hold": self.all_hold,
        }


def _cube_root_sum_decision(
    L: QuadNumber, a: QuadNumber, b: QuadNumber
) -> tuple[bool, str]:
    """Decide cbrt(L) <= cbrt(a) + cbrt(b) for field elements of any sign.

    Let ``x, y, z`` be the real cube roots of ``a, b, L``, ``u = a + b -
    L`` and ``v = 3xyz``.  Then ``f(L) = (L - a - b)^3 - 27abL = -(u^3 +
    v^3) = -(u + v)(u^2 - uv + v^2)``, and ``u + v = (x + y - z) *
    ((x - y)^2 + (y + z)^2 + (z + x)^2) / 2``.  The second factors are
    sums of squares, zero only at ``u = v = 0`` and at ``x = y = -z``.  So
    ``f(L) <= 0`` holds exactly when ``z <= x + y``, except at ``x = y =
    -z``, where ``f(L) = 0`` while ``z <= x + y`` holds only for ``x >=
    0``: at ``a = b = -L < 0`` the inequality fails.  Interval
    refinement, when it separates the sides of positive ``L, a, b``,
    names the digits that it took.
    """
    excess = L - a - b
    f = excess**3 - 27 * a * b * L
    if min(L.sign(), a.sign(), b.sign(), excess.sign()) <= 0:
        corner = a == b == -L and a.sign() < 0
        return f.sign() <= 0 and not corner, "exact"
    if f.sign() == 0:
        return True, "exact-equality"
    for digits in (20, 40, 80, 128):
        def enclose_root(x: QuadNumber):
            lo, hi = quad_enclosure(x, digits)
            return cbrt_enclosure((max(Fraction(0), lo), hi), digits)

        L_lo, L_hi = enclose_root(L)
        a_lo, a_hi = enclose_root(a)
        b_lo, b_hi = enclose_root(b)
        if L_hi <= a_lo + b_lo:
            return True, f"interval({digits} digits)"
        if L_lo > a_hi + b_hi:
            return False, f"interval({digits} digits)"
    return f.sign() <= 0, "exact"


def minkowski_check(
    model: ThreefoldModel, D1: ExcDivisor, D2: ExcDivisor
) -> MinkowskiReport:
    """Check the four mixed-multiplicity inequalities for (D1, D2).

    Writing ``e(i)`` for the mixed multiplicity with ``i`` copies of D1
    and ``3 - i`` of D2, inequalities 1-3 are polynomial in the ``e(i)``
    and are decided by exact field comparisons; inequality 4 involves
    cube roots and is decided by the sign of one field element
    (:func:`_cube_root_sum_decision`), labelled with the interval
    precision that separates its sides when one does.
    """
    e = _pair_values(model, D1, D2)
    L = e[3] + 3 * e[2] + 3 * e[1] + e[0]
    holds, method = _cube_root_sum_decision(L, e[3], e[0])
    verdicts = [(lhs - rhs).sign() <= 0 for _, lhs, rhs in _sides(e)]
    return MinkowskiReport(
        e_values=e,
        product_multiplicity=L,
        verdicts=(*verdicts, holds),
        cube_root_method=method,
    )
