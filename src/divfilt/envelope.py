"""Minimal nef envelopes of effective exceptional divisors.

Given an effective divisor ``D = sum a_i E_i`` supported on the
exceptional primes, its *envelope* is the coordinatewise-smallest vector
``g >= a`` such that ``-sum g_i E_i`` is nef, i.e. its restriction to the
surface over every prime lies in that surface's nef cone.  The envelope
coordinates are what the multiplicity formulas consume: they are exact
elements of Q(sqrt(d)) and may well be irrational.

The computation is an exhaustive active-set enumeration.  The feasible
set is cut out by the bound constraints ``g_i - a_i >= 0`` together with
the nef constraints: each surface's own cone inequalities
(:meth:`SurfaceLattice.constraints`) pulled back to ``g`` along
``g -> -sum g_i r_E(E_i)``.  Every subset of constraints of size ``t``
(the number of primes) is solved as an equality system over the field;
the feasible solutions are collected, and the coordinatewise minimum
among them — whose existence is certified, not assumed — is the
envelope.  Equality systems stay tractable because after eliminating the
linear equations at most one quadratic survives in one free variable;
anything richer is refused loudly rather than solved approximately.

``regions`` analyses the one-parameter family ``D1 + r*D2`` and returns
the finitely many slopes ``r`` where the envelope's active constraint set
changes; these are the breakpoints of the piecewise multiplicity
formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterator, Optional, Sequence

from .errors import InputError, NoMinimalEnvelopeError, UnsupportedModelError
from .model import ExcDivisor, ThreefoldModel
from .qfield import QuadNumber, quadratic_roots
from .surfaces import Constraint, LinearConstraint, QuadraticConstraint

Point = tuple[QuadNumber, ...]


@dataclass(frozen=True)
class GammaEnvelope:
    """The envelope of one divisor: minimal coordinates and certificates.

    ``active`` lists the identifiers of all constraints that hold with
    equality at the optimum; ``region`` is a case label (for two-prime
    models, the classical three-case split: "1" when only the second
    coordinate was raised, "3" when only the first was, "2" when the
    input was already anti-nef).
    """

    input: ExcDivisor
    gamma: tuple[QuadNumber, ...]
    active: frozenset[str]
    region: str

    @property
    def model(self) -> ThreefoldModel:
        return self.input.model

    @property
    def envelope_divisor(self) -> ExcDivisor:
        return ExcDivisor(self.input.model, self.gamma)

    @property
    def raised_indices(self) -> tuple[int, ...]:
        return tuple(
            i
            for i, (g, a) in enumerate(zip(self.gamma, self.input.coeffs))
            if (g - a).sign() > 0
        )

    def gamma_string(self) -> str:
        return "(" + ", ".join(g.canonical_string() for g in self.gamma) + ")"

    def to_json_dict(self) -> dict:
        return {
            "input": [c.canonical_string() for c in self.input.coeffs],
            "gamma": [g.canonical_string() for g in self.gamma],
            "active": sorted(self.active),
            "region": self.region,
        }

    def __str__(self) -> str:
        return f"{self.gamma_string()}, region {self.region}"


# ---------------------------------------------------------------------------
# constraint assembly


def _nef_constraints(model: ThreefoldModel, pad: int = 0) -> list[Constraint]:
    """Nef conditions on ``g`` for ``-sum g_i E_i``, as constraints.

    Restricting ``-sum g_i E_i`` to the surface over ``E`` gives the point
    ``sum g_i (-r_E(E_i))``, so each nef constraint of that surface pulls
    back along the columns ``-r_E(E_i)``.  ``pad`` appends zero columns:
    extra variables that the nef conditions do not involve (used for the
    slope variable).
    """
    constraints: list[Constraint] = []
    for prime, surface, row in zip(model.primes, model.surfaces, model.restrictions):
        columns = [(-r).coords for r in row]
        columns += [(QuadNumber.zero(model.field_d),) * surface.rank] * pad
        constraints.extend(
            c.pullback(f"nef[{prime}]:{c.ident}", columns)
            for c in surface.constraints("nef")
        )
    return constraints


def _constraints(
    model: ThreefoldModel, D1: ExcDivisor, D2: Optional[ExcDivisor] = None
) -> list[Constraint]:
    """Bounds ``g_i >= coeff_i(D1 + r*D2)`` followed by the nef constraints.

    Without ``D2`` the variables are ``g``; with it the slope ``r`` is
    appended as one more variable.
    """
    d = model.field_d
    zero, one = QuadNumber.zero(d), QuadNumber.one(d)
    t = len(model.primes)
    bounds: list[Constraint] = []
    for i, prime in enumerate(model.primes):
        coeffs = [zero] * t
        coeffs[i] = one
        if D2 is not None:
            coeffs.append(-D2.coeffs[i])
        bounds.append(
            LinearConstraint(f"coeff[{prime}]", tuple(coeffs), -D1.coeffs[i])
        )
    return bounds + _nef_constraints(model, pad=0 if D2 is None else 1)


# ---------------------------------------------------------------------------
# exact equality-system solving


def _solve_linear_rows(
    rows: list[tuple[tuple[QuadNumber, ...], QuadNumber]], nvars: int, d: int
) -> Optional[tuple[list[QuadNumber], list[list[QuadNumber]]]]:
    """Gauss-Jordan over Q(sqrt(d)).

    ``rows`` are equations ``coeffs . v = rhs``.  Returns None when
    inconsistent, else a particular solution and a basis of the null
    space (empty basis = unique solution).
    """
    zero, one = QuadNumber.zero(d), QuadNumber.one(d)
    aug = [list(coeffs) + [rhs] for coeffs, rhs in rows]
    pivot_cols: list[int] = []
    row = 0
    for col in range(nvars):
        pivot = next(
            (r for r in range(row, len(aug)) if aug[r][col].sign() != 0), None
        )
        if pivot is None:
            continue
        aug[row], aug[pivot] = aug[pivot], aug[row]
        inv = aug[row][col].inverse()
        aug[row] = [x * inv for x in aug[row]]
        for r in range(len(aug)):
            if r != row and aug[r][col].sign() != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[row])]
        pivot_cols.append(col)
        row += 1
        if row == len(aug):
            break
    for r in range(row, len(aug)):
        if aug[r][nvars].sign() != 0:
            return None
    particular = [zero] * nvars
    for r, col in enumerate(pivot_cols):
        particular[col] = aug[r][nvars]
    null_basis = []
    for free_col in (c for c in range(nvars) if c not in pivot_cols):
        vec = [zero] * nvars
        vec[free_col] = one
        for r, col in enumerate(pivot_cols):
            vec[col] = -aug[r][free_col]
        null_basis.append(vec)
    return particular, null_basis


def _solve_equality_system(
    constraints: Sequence[Constraint], nvars: int, d: int
) -> list[Point]:
    """Isolated solutions of ``{constraint = 0 for each}`` over Q(sqrt(d)).

    Underdetermined systems contribute no candidates (their solution sets
    are positive-dimensional, so they cannot pin an optimum that another,
    fully determined subset would not also pin).
    """
    linears = [c for c in constraints if isinstance(c, LinearConstraint)]
    quads = [c for c in constraints if isinstance(c, QuadraticConstraint)]
    solved = _solve_linear_rows(
        [(c.coeffs, -c.const) for c in linears], nvars, d
    )
    if solved is None:
        return []
    particular, null_basis = solved
    if not quads:
        return [tuple(particular)] if not null_basis else []
    if not null_basis:
        point = tuple(particular)
        if all(q.value(point).sign() == 0 for q in quads):
            return [point]
        return []
    if len(null_basis) == 1:
        direction = null_basis[0]
        for chosen in quads:
            roots = quadratic_roots(*chosen.along(particular, direction))
            if roots is None:
                continue  # this quadratic vanishes on the whole line
            points = []
            for s in roots:
                candidate = tuple(
                    p + s * n for p, n in zip(particular, direction)
                )
                if all(q.value(candidate).sign() == 0 for q in quads):
                    points.append(candidate)
            return points
        return []  # every quadratic vanishes identically along the line
    if all(x.sign() == 0 for x in particular):
        # Fully homogeneous: solutions come in rays through the origin,
        # never isolated points, so nothing here can pin an optimum.
        return []
    raise UnsupportedModelError(
        "active subsystem requires simultaneous quadratics in two or more "
        "free variables; this solver handles at most one"
    )


def _active_set_points(
    constraints: Sequence[Constraint], nvars: int, d: int
) -> Iterator[Point]:
    """Isolated solutions of every ``nvars``-subset taken as equalities."""
    for subset in combinations(constraints, nvars):
        yield from _solve_equality_system(subset, nvars, d)


# ---------------------------------------------------------------------------
# public operations


def _require_effective(
    model: ThreefoldModel, D: ExcDivisor, *, nonzero: bool
) -> None:
    if D.model != model:
        raise InputError("divisor belongs to a different model")
    if not D.is_effective:
        raise InputError(f"divisor {D} must be effective")
    if nonzero and D.is_zero():
        raise InputError("divisor must be nonzero")


def is_antinef(model: ThreefoldModel, D: ExcDivisor) -> bool:
    """True iff ``-D`` restricts into the nef cone over every prime."""
    _require_effective(model, D, nonzero=False)
    return all(c.value(D.coeffs).sign() >= 0 for c in _nef_constraints(model))


def _coordwise_le(x: Point, y: Point) -> bool:
    return all((xi - yi).sign() <= 0 for xi, yi in zip(x, y))


EPSILON = Fraction(1, 1000)


def _region_label(model: ThreefoldModel, raised: tuple[int, ...]) -> str:
    if len(model.primes) == 2:
        if not raised:
            return "2"
        if raised == (0,):
            return "3"
        if raised == (1,):
            return "1"
    if not raised:
        return "none"
    return "raised(" + ",".join(model.primes[i] for i in raised) + ")"


def gamma(model: ThreefoldModel, D: ExcDivisor) -> GammaEnvelope:
    """Coordinatewise-minimal ``g >= coeffs(D)`` making ``-sum g_i E_i`` nef.

    Enumerates active sets exactly; the returned point is checked to be
    (a) feasible, (b) below every other feasible candidate, and (c) not
    improvable by lowering any single coordinate by 1/1000 — so a bogus
    "minimum" cannot escape silently.
    """
    _require_effective(model, D, nonzero=True)
    t = len(model.primes)
    constraints = _constraints(model, D)
    candidates = dict.fromkeys(_active_set_points(constraints, t, model.field_d))

    def feasible(point: Point) -> bool:
        return all(c.value(point).sign() >= 0 for c in constraints)

    admissible = [p for p in candidates if feasible(p)]
    if not admissible:
        raise NoMinimalEnvelopeError(
            "no minimal envelope: no feasible active-set point"
        )
    minimum = next(
        (p for p in admissible if all(_coordwise_le(p, q) for q in admissible)),
        None,
    )
    if minimum is None:
        raise NoMinimalEnvelopeError(
            "no minimal envelope: minimal feasible points are incomparable"
        )
    for i in range(t):
        perturbed = tuple(
            g - EPSILON if k == i else g for k, g in enumerate(minimum)
        )
        if feasible(perturbed):
            raise NoMinimalEnvelopeError(
                "no minimal envelope: candidate is not coordinatewise minimal "
                f"(coordinate {model.primes[i]} can decrease)"
            )

    active = frozenset(
        c.ident for c in constraints if c.value(minimum).sign() == 0
    )
    raised = tuple(
        i for i, (g, a) in enumerate(zip(minimum, D.coeffs)) if (g - a).sign() > 0
    )
    return GammaEnvelope(
        input=D,
        gamma=minimum,
        active=active,
        region=_region_label(model, raised),
    )


def regions(
    model: ThreefoldModel, D1: ExcDivisor, D2: ExcDivisor
) -> list[QuadNumber]:
    """Slopes ``0 < r_1 < ... < r_k`` where ``gamma(D1 + r*D2)`` changes.

    Candidate slopes come from solving every system of ``t + 1``
    constraints-as-equalities in the variables ``(g, r)``; a candidate is
    kept only if the envelope's active set genuinely differs between the
    two adjacent slope intervals.  Dependent directions yield no
    breakpoints (a single region).
    """
    for D in (D1, D2):
        _require_effective(model, D, nonzero=True)
    d = model.field_d
    nvars = len(model.primes) + 1
    candidates = {
        point[-1]
        for point in _active_set_points(_constraints(model, D1, D2), nvars, d)
        if point[-1].sign() > 0
    }
    if not candidates:
        return []

    zero, one = QuadNumber.zero(d), QuadNumber.one(d)
    slopes = sorted(candidates)
    samples = []
    previous = zero
    for r in slopes:
        samples.append((previous + r) / 2)
        previous = r
    samples.append(slopes[-1] + one)

    active_sets = [
        gamma(model, D1 + D2 * s).active for s in samples
    ]
    return [
        slopes[i]
        for i in range(len(slopes))
        if active_sets[i] != active_sets[i + 1]
    ]
