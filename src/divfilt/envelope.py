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
the coordinatewise minimum of the feasible solutions is the envelope.
Equality systems stay tractable because after eliminating the linear
equations at most one quadratic survives in one free variable; anything
richer is refused loudly rather than solved approximately.

The minimum is certified, not assumed: for each coordinate ``i`` there
are multipliers ``lam >= 0`` on the active constraints with ``sum lam_c
grad c = e_i``.  Because each quadratic nef cone is half of a light cone
(its surface's gram matrix has signature ``(1, rho - 1)``, the Hodge
index theorem), these first-order conditions prove minimality exactly,
and the multipliers are kept on the result.

What does not depend on the divisor is done once per model: the nef
constraints are pulled back on first use (:attr:`ThreefoldModel.nef_systems`).
They are homogeneous, so each call solves just the subsets holding a
bound row (nef rows alone isolate at most the origin, which breaks a
bound), and tests feasibility only for candidates not already at or
above a feasible one.

``regions`` analyses the one-parameter family ``D1 + r*D2`` and returns
the finitely many slopes ``r`` where the envelope's active constraint set
changes; these are the breakpoints of the piecewise multiplicity
formulas.  Within a region the envelope is affine in ``r``: its line is
read off the active constraints of the region's first sample, and it
predicts the envelope at the next sample, which is accepted when it is
feasible and certified, so ``gamma`` runs about once per region.
``multiplicity.piecewise_limit`` builds each region's cubic from that
line.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence

from .errors import ComputationError, InputError, NoMinimalEnvelopeError
from .model import ExcDivisor, ThreefoldModel
from .qfield import QuadNumber
from .surfaces import (
    Constraint,
    LinearConstraint,
    Point,
    _inverse,
    _solve_linear_rows,
)


# the (ident, multiplier) pairs that certify one coordinate
Multipliers = tuple[tuple[str, QuadNumber], ...]


@dataclass(frozen=True, slots=True)
class GammaEnvelope:
    """The envelope of one divisor: minimal coordinates and certificates.

    ``active`` lists the identifiers of all constraints that hold with
    equality at the optimum; ``region`` is a case label (for two-prime
    models, the classical three-case split: "1" when only the second
    coordinate was raised, "3" when only the first was, "2" when the
    input was already anti-nef).  ``certificate`` holds, per coordinate
    ``i``, the active constraints and their multipliers ``lam > 0`` with
    ``sum lam_c grad c(gamma) = e_i``, which prove ``gamma_i`` minimal.
    """

    input: ExcDivisor
    gamma: tuple[QuadNumber, ...]
    active: frozenset[str]
    region: str
    certificate: tuple[Multipliers, ...]

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

    def certificate_json(self) -> dict:
        return {
            prime: {ident: lam.canonical_string() for ident, lam in multipliers}
            for prime, multipliers in zip(self.model.primes, self.certificate)
        }

    def certificate_lines(self) -> list[str]:
        """One ``certificate: e[prime] = lam*grad(ident) + ...`` line per prime."""
        lines = []
        for prime, multipliers in zip(self.model.primes, self.certificate):
            terms = []
            for ident, lam in multipliers:
                text = lam.canonical_string()
                lam_text = text if lam.is_rational else f"({text})"
                terms.append(f"{lam_text}*grad({ident})")
            lines.append(f"certificate: e[{prime}] = " + " + ".join(terms))
        return lines

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


def _certificate(
    active: Sequence[Constraint], point: Point
) -> list[Optional[Multipliers]]:
    """Per coordinate ``i``: multipliers ``lam >= 0`` on ``active`` with
    ``sum lam_c grad c(point) = e_i`` (the nonzero ones, by ident), or None.

    On ``t`` active constraints with independent gradients, row ``i`` of
    the inverse of their gradient matrix is the only candidate ``lam``;
    further subsets are tried only for coordinates whose row has a
    negative entry.
    """
    t, d = len(point), point[0].d
    grads = [c.gradient(point) for c in active]
    found: list[Optional[Multipliers]] = [None] * t
    for subset in combinations(range(len(active)), t):
        inverse = _inverse([grads[k] for k in subset], d)
        if inverse is None:
            continue
        for i, row in enumerate(inverse):
            if found[i] is not None:
                continue
            signs = [lam.sign() for lam in row]
            if min(signs) >= 0:
                found[i] = tuple(
                    (active[k].ident, lam)
                    for k, lam, sign in zip(subset, row, signs)
                    if sign > 0
                )
        if None not in found:
            break
    return found


def _certified(
    model: ThreefoldModel,
    D: ExcDivisor,
    constraints: Sequence[Constraint],
    point: Point,
) -> GammaEnvelope:
    """The envelope of ``D``, if ``point`` is feasible and certified minimal.

    ``constraints`` are ``D``'s bounds and then the model's nef constraints.

    The certificate is sufficient.  Each active constraint ``c`` satisfies
    ``grad c(point) . (g - point) >= 0`` at every feasible ``g``: for a
    linear row this is ``c(g) >= 0``; for a quadratic nef cone it is
    ``2 x*.x >= 0`` for ``x*, x`` in one half of the light cone, which
    holds because the gram matrix has signature ``(1, rho - 1)`` (the
    Hodge index theorem, which :class:`SurfaceLattice` checks).  So
    ``e_i = sum lam_c grad c(point)`` with ``lam >= 0`` gives ``g_i >=
    point_i`` (first-order conditions suffice on this convex set; Arrow
    and Enthoven 1961).  Raises :class:`NoMinimalEnvelopeError` naming a
    coordinate without a certificate.
    """
    signs = [c.value(point).sign() for c in constraints]
    if min(signs) < 0:
        raise NoMinimalEnvelopeError("no minimal envelope: candidate is infeasible")
    active = [c for c, sign in zip(constraints, signs) if sign == 0]
    certificate = _certificate(active, point)
    for prime, multipliers in zip(model.primes, certificate):
        if multipliers is None:
            raise NoMinimalEnvelopeError(
                f"no minimal envelope: no certificate that coordinate {prime} "
                "is minimal"
            )
    raised = tuple(
        i for i, (g, a) in enumerate(zip(point, D.coeffs)) if (g - a).sign() > 0
    )
    return GammaEnvelope(
        input=D,
        gamma=point,
        active=frozenset(c.ident for c in active),
        region=_region_label(model, raised),
        certificate=tuple(certificate),
    )


def gamma(model: ThreefoldModel, D: ExcDivisor) -> GammaEnvelope:
    """Coordinatewise-minimal ``g >= coeffs(D)`` making ``-sum g_i E_i`` nef.

    Enumerates active sets exactly; the returned point is (a) feasible,
    (b) below every other feasible candidate, and (c) certified minimal
    in every coordinate by multipliers on its active constraints
    (:func:`_certified`), so a bogus "minimum" cannot escape silently.
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
    return _certified(model, D, constraints, minimal[0])


Line = tuple[ExcDivisor, ExcDivisor]

_NOT_AFFINE = (
    "envelope is not affine within a region; the model is outside "
    "this solver's supported family"
)


def _sampled_regions(
    model: ThreefoldModel, D1: ExcDivisor, D2: ExcDivisor
) -> tuple[
    list[QuadNumber],
    list[tuple[QuadNumber, GammaEnvelope]],
    list[Optional[Line]],
]:
    """:func:`regions`' slopes, the envelopes on the way, and each region's line.

    The second list pairs each sample slope with ``gamma(D1 + s*D2)``;
    every sample lies strictly between two consecutive candidate slopes
    (or above the last), so never on a returned slope.  Samples whose
    envelopes share an active set form one region.  The third list holds
    each region's line ``(P, Q)``, read off its first sample by
    :func:`_region_line`, or None when that fails or a later sample of the
    region is off the line.  Each sample first tries the point its region's
    line predicts: if that point is feasible and certified it is the
    envelope, since the coordinatewise minimum is unique, and ``gamma``
    runs only otherwise — about once per region.
    """
    for D in (D1, D2):
        _require_effective(model, D, nonzero=True)
    candidates = {
        point[-1]
        for point in model.nef_systems[1].vertices_with(_bounds(model, D1, D2))
        if point[-1].sign() > 0
    }
    if not candidates:
        return [], [], []

    slopes = sorted(candidates)
    lows = [QuadNumber.zero(model.field_d)] + slopes
    samples = [(lo + hi) / 2 for lo, hi in zip(lows, slopes)] + [slopes[-1] + 1]
    nef = model.nef_systems[0].constraints
    envelopes: list[GammaEnvelope] = []
    lines: list[Optional[Line]] = []
    for s in samples:
        D = D1 + D2 * s
        env = None
        if lines and lines[-1] is not None:
            P, Q = lines[-1]
            constraints = [*_bounds(model, D), *nef]
            try:
                env = _certified(model, D, constraints, (P + Q * s).coeffs)
            except NoMinimalEnvelopeError:
                pass
        predicted = env is not None
        if not predicted:
            env = gamma(model, D)
        if not envelopes or env.active != envelopes[-1].active:
            lines.append(_region_line(model, D1, D2, s, env))
        elif not predicted:
            lines[-1] = None  # the envelope left its region's line
        envelopes.append(env)
    breakpoints = [
        slopes[i]
        for i in range(len(slopes))
        if envelopes[i].active != envelopes[i + 1].active
    ]
    return breakpoints, list(zip(samples, envelopes)), lines


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


def _region_line(
    model: ThreefoldModel,
    D1: ExcDivisor,
    D2: ExcDivisor,
    s: QuadNumber,
    env: GammaEnvelope,
) -> Optional[Line]:
    """``(P, Q)`` with ``P + r*Q`` the envelope's line through ``(s, env)``.

    The active constraints, taken in ``(g, r)``, must fix ``Q`` uniquely
    by their linearisation ``grad_g . Q = -grad_r``; then ``P = g - s*Q``,
    and every active constraint must vanish identically along the line.
    Returns None otherwise.
    """
    t, d = len(model.primes), model.field_d
    system = (*_bounds(model, D1, D2), *model.nef_systems[1].constraints)
    active = [c for c in system if c.ident in env.active]
    grads = [c.gradient((*env.gamma, s)) for c in active]
    solved = _solve_linear_rows([(grad[:t], -grad[t]) for grad in grads], t, d)
    if solved is None or solved[1]:
        return None
    v = tuple(solved[0])
    u = tuple(g - s * vi for g, vi in zip(env.gamma, v))
    line = ((*u, QuadNumber.zero(d)), (*v, QuadNumber.one(d)))
    if any(x.sign() != 0 for c in active for x in c.along(*line)):
        return None
    return ExcDivisor(model, u), ExcDivisor(model, v)


def _envelope_line(
    model: ThreefoldModel,
    D1: ExcDivisor,
    D2: ExcDivisor,
    samples: Sequence[tuple[QuadNumber, GammaEnvelope]],
) -> Line:
    """``(P, Q)`` with ``gamma(D1 + r*D2) = P + r*Q`` on one region.

    The line is read off the first sample by :func:`_region_line` and
    accepted only if every other sample lies on it.
    """
    (s, env), *rest = samples
    line = _region_line(model, D1, D2, s, env)
    if line is None or any((line[0] + line[1] * r).coeffs != e.gamma for r, e in rest):
        raise ComputationError(_NOT_AFFINE)
    return line
