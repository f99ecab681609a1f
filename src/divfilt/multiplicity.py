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
(``_mixed_values``), as does each region's cubic in ``piecewise_limit``.
The Minkowski report's ``((P + Q)^3)`` is ``e(3) + 3 e(2) + 3 e(1) + e(0)``
by trilinearity and the symmetry that :meth:`ThreefoldModel.validate`
certifies.

The four Minkowski-style inequalities among these numbers are decided
exactly inside the field, the one with cube roots by the sign of
``(L - a - b)^3 - 27abL``; certified interval refinement names the
digits that separate its sides when they differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

# unused here, but bench/tracing.py wraps ``multiplicity.gamma`` too
from .envelope import GammaEnvelope, _sampled_regions, gamma  # noqa: F401
from .errors import ComputationError, InputError
from .intervals import cbrt_enclosure, quad_enclosure
from .model import ExcDivisor, ThreefoldModel
from .qfield import QuadNumber, ScalarLike

MONOMIALS = ((3, 0), (2, 1), (1, 2), (0, 3))
MONOMIAL_NAMES = ("n^3", "n^2*j", "n*j^2", "j^3")


@dataclass(frozen=True, slots=True)
class CubicForm:
    """A homogeneous cubic in (n, j): coefficients for n^3, n^2 j, n j^2, j^3."""

    coefficients: tuple[QuadNumber, QuadNumber, QuadNumber, QuadNumber]

    def coefficient(self, d1: int, d2: int) -> QuadNumber:
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

    def is_zero(self) -> bool:
        return all(c.sign() == 0 for c in self.coefficients)

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


@dataclass(frozen=True, slots=True)
class PiecewiseRegion:
    lower_slope: QuadNumber
    upper_slope: Optional[QuadNumber]  # None = unbounded
    poly: CubicForm

    def bounds_string(self) -> str:
        upper = (
            "inf" if self.upper_slope is None else self.upper_slope.canonical_string()
        )
        return f"[{self.lower_slope.canonical_string()}, {upper})"


@dataclass(frozen=True, slots=True)
class PiecewisePoly:
    """A slope-piecewise homogeneous cubic on the effective quadrant.

    Region k applies when ``lower_slope <= j/n < upper_slope`` (the last
    region is unbounded and also covers ``n = 0``).  Adjacent regions
    agree on their shared boundary ray, so the closed/half-open reading
    of the bounds never changes a value.
    """

    regions: tuple[PiecewiseRegion, ...]

    def __post_init__(self) -> None:
        if not self.regions:
            raise InputError("piecewise polynomial needs at least one region")
        if self.regions[0].lower_slope.sign() != 0:
            raise InputError("first region must start at slope 0")
        for left, right in zip(self.regions, self.regions[1:]):
            if left.upper_slope is None or left.upper_slope != right.lower_slope:
                raise InputError("region slopes must be contiguous")
        for region in self.regions:
            if (
                region.upper_slope is not None
                and (region.upper_slope - region.lower_slope).sign() <= 0
            ):
                raise InputError("region slopes must strictly increase")
        if self.regions[-1].upper_slope is not None:
            raise InputError("last region must be unbounded")

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


@dataclass(frozen=True, slots=True)
class MultReport:
    """Normalized limit and multiplicity of one divisor's filtration."""

    limit: QuadNumber
    multiplicity: QuadNumber
    gamma_used: GammaEnvelope

    def __post_init__(self) -> None:
        if self.multiplicity != self.limit * 6:
            raise ComputationError("multiplicity must equal 3! times the limit")
        if self.multiplicity.sign() < 0:
            raise ComputationError(
                "negative multiplicity: model violates nonnegativity"
            )


def _sigma(model: ThreefoldModel, D: ExcDivisor) -> tuple[GammaEnvelope, ExcDivisor]:
    """``D``'s envelope, computed once per divisor object (``D.envelope``)."""
    if D.model != model:
        raise InputError("divisor belongs to a different model")
    env = D.envelope
    return env, env.envelope_divisor


def limit_single(model: ThreefoldModel, D: ExcDivisor) -> MultReport:
    """lim of colength(m*D-filtration)/m^3, via the envelope divisor.

    With sigma the envelope divisor, the limit is ``-((-sigma)^3)/3!``,
    i.e. ``(sigma^3)/6`` after the sign flips cancel.
    """
    env, sigma = _sigma(model, D)
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
    slots: list[ExcDivisor] = []
    for D, exponent in factors:
        if not isinstance(exponent, int) or exponent < 0:
            raise InputError("exponents must be nonnegative integers")
        if exponent == 0:
            continue
        _, sigma = _sigma(model, D)
        slots.extend([sigma] * exponent)
    if len(slots) != model.dimension:
        raise InputError(f"exponents must sum to {model.dimension}")
    return model.triple(slots[0], slots[1], slots[2])


def _mixed_values(
    model: ThreefoldModel, P: ExcDivisor, Q: ExcDivisor
) -> tuple[QuadNumber, QuadNumber, QuadNumber, QuadNumber]:
    """``(e(0), e(1), e(2), e(3))`` with ``e(i) = (P^i . Q^(3-i))``."""
    return (
        model.triple(Q, Q, Q),
        model.triple(P, Q, Q),
        model.triple(P, P, Q),
        model.triple(P, P, P),
    )


def _region_form(
    model: ThreefoldModel, P: ExcDivisor, Q: ExcDivisor
) -> CubicForm:
    """Cubic of (n*P + j*Q)^3 / 6 expanded in the monomial basis."""
    e0, e1, e2, e3 = _mixed_values(model, P, Q)
    return CubicForm((e3 / 6, e2 / 2, e1 / 2, e0 / 6))


def piecewise_limit(
    model: ThreefoldModel, D1: ExcDivisor, D2: ExcDivisor
) -> PiecewisePoly:
    """The limit of ``n*D1 + j*D2`` filtrations as a piecewise cubic.

    Within each region delivered by :func:`envelope.regions` the envelope
    is an affine function ``P + r*Q`` of the slope; the region's cubic is
    ``(n*P + j*Q)^3/6``.  The lines are the ones ``regions`` found on its
    anchored walk over the sample slopes, each through the envelope at the
    region's lower slope and confirmed at its samples; a family without
    candidate slopes is one region, sampled at slope 1.  Beyond
    ``D1.envelope``, ``gamma`` runs only where that walk fails.
    """
    breakpoints, _, lines = _sampled_regions(model, D1, D2)
    zero = QuadNumber.zero(model.field_d)
    pieces = []
    for lo, hi, line in zip([zero] + breakpoints, breakpoints + [None], lines):
        if line is None:
            raise ComputationError(
                "envelope is not affine within a region; the model is outside "
                "this solver's supported family"
            )
        pieces.append(PiecewiseRegion(lo, hi, _region_form(model, *line)))
    return PiecewisePoly(tuple(pieces))


def product_limit(
    model: ThreefoldModel, D1: ExcDivisor, D2: ExcDivisor
) -> CubicForm:
    """Limit of the product filtration of ``(n*D1, j*D2)`` as one cubic.

    The coefficient of ``n^d1 j^d2`` is the mixed multiplicity with those
    exponents divided by ``d1! d2!``; unlike :func:`piecewise_limit` this
    is a single polynomial valid on the whole quadrant.
    """
    _, sigma1 = _sigma(model, D1)
    _, sigma2 = _sigma(model, D2)
    return _region_form(model, sigma1, sigma2)


# ---------------------------------------------------------------------------
# Minkowski-style inequality checks


@dataclass(frozen=True, slots=True)
class InequalityCheck:
    label: str
    holds: bool
    method: str
    lhs: str
    rhs: str

    def line(self) -> str:
        verdict = "holds" if self.holds else "FAILS"
        return f"inequality {self.label}: {self.lhs} <= {self.rhs} ... {verdict} [{self.method}]"

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "holds": self.holds,
            "method": self.method,
            "lhs": self.lhs,
            "rhs": self.rhs,
        }


@dataclass(frozen=True, slots=True)
class MinkowskiReport:
    e_values: tuple[QuadNumber, QuadNumber, QuadNumber, QuadNumber]
    product_multiplicity: QuadNumber
    checks: tuple[InequalityCheck, ...]

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.checks)

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
    """Decide cbrt(L) <= cbrt(a) + cbrt(b) for nonnegative field elements.

    It holds iff ``f(L) = (L - a - b)^3 - 27abL <= 0``: ``(cbrt(a) +
    cbrt(b))^3`` is the only root of ``f`` above ``a + b``, where ``f`` is
    convex, and ``f(a + b) <= 0``.  Interval refinement, when it
    separates the sides, names the digits that it took.
    """
    excess = L - a - b
    f = excess**3 - 27 * a * b * L
    if min(L.sign(), a.sign(), b.sign(), excess.sign()) <= 0:
        return f.sign() <= 0, "exact"
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
    _, sigma1 = _sigma(model, D1)
    _, sigma2 = _sigma(model, D2)
    e = _mixed_values(model, sigma1, sigma2)
    L = e[3] + 3 * e[2] + 3 * e[1] + e[0]

    checks: list[InequalityCheck] = []

    def exact(label: str, lhs: QuadNumber, rhs: QuadNumber) -> None:
        checks.append(
            InequalityCheck(
                label=label,
                holds=(lhs - rhs).sign() <= 0,
                method="exact",
                lhs=lhs.canonical_string(),
                rhs=rhs.canonical_string(),
            )
        )

    for i in (1, 2):
        exact(f"1(i={i})", e[i] ** 2, e[i + 1] * e[i - 1])
    for i in range(4):
        exact(f"2(i={i})", e[i] * e[3 - i], e[3] * e[0])
    for i in range(4):
        exact(f"3(i={i})", e[3 - i] ** 3, e[3] ** (3 - i) * e[0] ** i)
    holds, method = _cube_root_sum_decision(L, e[3], e[0])
    checks.append(
        InequalityCheck(
            label="4",
            holds=holds,
            method=method,
            lhs=f"cbrt({L.canonical_string()})",
            rhs=f"cbrt({e[3].canonical_string()}) + cbrt({e[0].canonical_string()})",
        )
    )
    return MinkowskiReport(
        e_values=e,
        product_multiplicity=L,
        checks=tuple(checks),
    )
