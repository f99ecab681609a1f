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
``g -> -sum g_i r_E(E_i)``.  Subsets of constraints of size ``t`` (the
number of primes) are solved as equality systems over the field, and
the coordinatewise minimum of the feasible solutions — whose
existence is certified, not assumed — is the envelope.  Equality systems
stay tractable because after eliminating the linear equations at most
one quadratic survives in one free variable; anything richer is refused
loudly rather than solved approximately.

What does not depend on the divisor is done once per model: the nef
constraints are pulled back on first use (:attr:`ThreefoldModel.nef_systems`).
They are homogeneous, so each call solves just the subsets holding a
bound row (nef rows alone isolate at most the origin, which breaks a
bound), and tests feasibility only for candidates not already at or
above a feasible one.

``regions`` analyses the one-parameter family ``D1 + r*D2`` and returns
the finitely many slopes ``r`` where the envelope's active constraint set
changes; these are the breakpoints of the piecewise multiplicity
formulas.  Within a region the envelope is affine in ``r``;
``multiplicity.piecewise_limit`` reads that line off the active
constraints of one envelope ``regions`` computed inside the region.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import ComputationError, InputError, NoMinimalEnvelopeError
from .model import ExcDivisor, ThreefoldModel
from .qfield import QuadNumber
from .surfaces import Constraint, LinearConstraint, Point, _solve_linear_rows


@dataclass(frozen=True, slots=True)
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
# bound constraints


def _bounds(
    model: ThreefoldModel, D1: ExcDivisor, D2: Optional[ExcDivisor] = None
) -> list[Constraint]:
    """The bounds ``g_i >= coeff_i(D1 + r*D2)``, one per prime.

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
    return bounds


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
    nef = model.nef_systems[0].constraints
    return all(c.value(D.coeffs).sign() >= 0 for c in nef)


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
    nef = model.nef_systems[0]
    bounds = _bounds(model, D)
    constraints = bounds + list(nef.constraints)

    def feasible(point: Point) -> bool:
        return all(c.value(point).sign() >= 0 for c in constraints)

    # The minimal elements of the feasible candidates seen so far.  A
    # candidate at or above one of them cannot be minimal, so its
    # feasibility is never tested; every feasible candidate stays above
    # some element, so a single survivor lies below all of them.
    minimal: list[Point] = []
    for point in dict.fromkeys(nef.vertices_with(bounds)):
        if any(_coordwise_le(m, point) for m in minimal) or not feasible(point):
            continue
        minimal = [m for m in minimal if not _coordwise_le(point, m)] + [point]
    if not minimal:
        raise NoMinimalEnvelopeError(
            "no minimal envelope: no feasible active-set point"
        )
    if len(minimal) > 1:
        raise NoMinimalEnvelopeError(
            "no minimal envelope: minimal feasible points are incomparable"
        )
    minimum = minimal[0]
    for i in range(len(minimum)):
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


def _sampled_regions(
    model: ThreefoldModel, D1: ExcDivisor, D2: ExcDivisor
) -> tuple[list[QuadNumber], list[tuple[QuadNumber, GammaEnvelope]]]:
    """:func:`regions`' slopes, and the envelopes it computed on the way.

    The second list pairs each sample slope with ``gamma(D1 + s*D2)``;
    every sample lies strictly between two consecutive candidate slopes
    (or above the last), so never on a returned slope.
    """
    for D in (D1, D2):
        _require_effective(model, D, nonzero=True)
    candidates = {
        point[-1]
        for point in model.nef_systems[1].vertices_with(_bounds(model, D1, D2))
        if point[-1].sign() > 0
    }
    if not candidates:
        return [], []

    slopes = sorted(candidates)
    lows = [QuadNumber.zero(model.field_d)] + slopes
    samples = [(lo + hi) / 2 for lo, hi in zip(lows, slopes)] + [slopes[-1] + 1]
    envelopes = [gamma(model, D1 + D2 * s) for s in samples]
    breakpoints = [
        slopes[i]
        for i in range(len(slopes))
        if envelopes[i].active != envelopes[i + 1].active
    ]
    return breakpoints, list(zip(samples, envelopes))


def regions(
    model: ThreefoldModel, D1: ExcDivisor, D2: ExcDivisor
) -> list[QuadNumber]:
    """Slopes ``0 < r_1 < ... < r_k`` where ``gamma(D1 + r*D2)`` changes.

    Candidate slopes come from the systems of ``t + 1`` constraints-as-
    equalities in ``(g, r)`` that hold two or more bound rows (with fewer,
    an isolated solution has ``g = 0`` and slope ``-a_i/b_i <= 0``); a
    candidate is kept only if the envelope's active set genuinely differs
    between the two adjacent slope intervals.  Dependent directions yield
    no breakpoints (a single region).
    """
    return _sampled_regions(model, D1, D2)[0]


def _envelope_line(
    model: ThreefoldModel,
    D1: ExcDivisor,
    D2: ExcDivisor,
    samples: Sequence[tuple[QuadNumber, GammaEnvelope]],
) -> tuple[ExcDivisor, ExcDivisor]:
    """``(P, Q)`` with ``gamma(D1 + r*D2) = P + r*Q`` on one region.

    At the first sample ``(s, g)`` the active constraints, taken in
    ``(g, r)``, must fix ``Q`` uniquely by their linearisation ``grad_g . Q
    = -grad_r``; then ``P = g - s*Q``.  The line is accepted only if every
    active constraint vanishes identically along it and every other
    sample lies on it.
    """
    (s, env), *rest = samples
    t, d = len(model.primes), model.field_d
    system = (*_bounds(model, D1, D2), *model.nef_systems[1].constraints)
    active = [c for c in system if c.ident in env.active]
    grads = [c.gradient((*env.gamma, s)) for c in active]
    solved = _solve_linear_rows([(grad[:t], -grad[t]) for grad in grads], t, d)
    if solved is not None and not solved[1]:
        v = tuple(solved[0])
        u = tuple(g - s * vi for g, vi in zip(env.gamma, v))
        line = ((*u, QuadNumber.zero(d)), (*v, QuadNumber.one(d)))
        if all(x.sign() == 0 for c in active for x in c.along(*line)) and all(
            tuple(ui + r * vi for ui, vi in zip(u, v)) == e.gamma for r, e in rest
        ):
            return ExcDivisor(model, u), ExcDivisor(model, v)
    raise ComputationError(
        "envelope is not affine within a region; the model is outside "
        "this solver's supported family"
    )
