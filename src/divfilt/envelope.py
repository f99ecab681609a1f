"""Minimal nef envelopes of effective exceptional divisors.

Given an effective divisor ``D = sum a_i E_i`` supported on the
exceptional primes, its *envelope* is the coordinatewise-smallest vector
``g >= a`` such that ``-sum g_i E_i`` is nef, i.e. its restriction to the
surface over every prime lies in that surface's nef cone.  The envelope
coordinates are what the multiplicity formulas consume: they are exact
elements of Q(sqrt(d)) and may well be irrational.

The computation enumerates active sets.  The feasible set is cut out by
the bound constraints ``g_i - a_i >= 0`` together with the nef
constraints: each surface's own cone inequalities
(:meth:`SurfaceLattice.constraints`) pulled back to ``g`` along
``g -> -sum g_i r_E(E_i)``.  Subsets of ``t`` constraints (``t`` primes)
are solved as equality systems over the field; a least feasible point is
the only one of least coordinate sum, and that point is the envelope.
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
bound), and tests feasibility only for candidates whose coordinate sum
is below that of every feasible one found so far.

``regions`` analyses the one-parameter family ``D1 + r*D2`` and returns
the slopes ``r`` where the envelope's active constraint set changes, the
breakpoints of the piecewise multiplicity formulas.  Within a region the
envelope is affine in ``r``.  The walk starts each region from a known
*anchor* (``sigma(D1)`` at ``r = 0``, then the previous region's line at
its end), follows the line its active constraints fix until another
constraint meets it, and certifies the line at one point inside, so it
calls ``gamma`` only for ``D1``.  ``multiplicity.piecewise_limit`` builds
each region's cubic from its line.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple, Optional, Sequence

from .errors import ComputationError, InputError, NoMinimalEnvelopeError
from .model import ExcDivisor, ThreefoldModel
from .qfield import QuadNumber, dot, quadratic_roots
from .surfaces import (
    Constraint,
    LinearConstraint,
    Point,
    Quadratic,
    QuadraticConstraint,
    _inverse,
    _solve_linear_rows,
)


# the (ident, multiplier) pairs that certify one coordinate
Multipliers = tuple[tuple[str, QuadNumber], ...]


class GammaEnvelope(NamedTuple):
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

    @property
    def region(self) -> str:
        return _region_label(self.model, self.raised_indices)

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
    return GammaEnvelope(
        input=D,
        gamma=point,
        active=frozenset(c.ident for c in active),
        certificate=tuple(certificate),
    )


def gamma(model: ThreefoldModel, D: ExcDivisor) -> GammaEnvelope:
    """Coordinatewise-minimal ``g >= coeffs(D)`` making ``-sum g_i E_i`` nef.

    Enumerates active sets exactly and keeps the first feasible point of
    least coordinate sum: a least element of the feasible set is the only
    feasible point with that sum.  The certificate (:func:`_certified`)
    then proves the pick minimal in every coordinate, so a feasible set
    without a least element is refused, naming a coordinate.
    """
    _require_effective(model, D, nonzero=True)
    nef = model.nef_systems[0]
    bounds = _bounds(model, D)
    constraints = bounds + list(nef.constraints)
    best: Optional[Point] = None
    for point in nef.vertices_with(bounds):
        total = sum(point[1:], point[0])
        if best is not None and (total - best_total).sign() >= 0:
            continue
        if all(c.value(point).sign() >= 0 for c in constraints):
            best, best_total = point, total
    if best is None:
        raise NoMinimalEnvelopeError(
            "no minimal envelope: no feasible active-set point"
        )
    return _certified(model, D, constraints, best)


Line = tuple[ExcDivisor, ExcDivisor]


def _line_through(
    model: ThreefoldModel, constraints: Sequence[Constraint], at: Point
) -> Optional[Line]:
    """``(P, Q)`` with ``P + r*Q`` the line through ``at = (g, r)`` that
    the linearisation of ``constraints`` (in ``(g, r)``) fixes.

    ``grad_g . Q = -grad_r`` at ``at`` must fix ``Q`` uniquely; then ``P =
    g - r*Q``.  Returns None otherwise.  Whether the constraints vanish
    all along the line is left to the caller.
    """
    t, d = len(model.primes), model.field_d
    *g, r = at
    grads = [c.gradient(at) for c in constraints]
    solved = _solve_linear_rows([(grad[:t], -grad[t]) for grad in grads], t, d)
    if solved is None or solved[1]:
        return None
    v = tuple(solved[0])
    u = tuple(gi - r * vi for gi, vi in zip(g, v))
    return ExcDivisor(model, u), ExcDivisor(model, v)


def _falls_past(along: Quadratic, lo: QuadNumber) -> bool:
    """Whether ``alpha r^2 + beta r + chi``, zero at ``lo``, is negative
    just above ``lo``: its derivative ``2 alpha lo + beta`` there is
    negative, or zero with ``alpha < 0``."""
    alpha, beta, _ = along
    slope = (2 * alpha * lo + beta).sign()
    return slope < 0 or (slope == 0 and alpha.sign() < 0)


def _gradient_keeps_direction(
    c: QuadraticConstraint, line: Line, lo: QuadNumber, hi: Optional[QuadNumber]
) -> bool:
    """Whether the gradient ``2M(u + r*v)`` of ``c`` along ``line = (u, v)``
    stays a positive multiple of one vector for ``r`` in ``[lo, hi]``
    (``[lo, inf)`` when ``hi`` is None): ``Mu`` and ``Mv`` are parallel,
    and the factor keeps its sign.  A gradient that is zero all along
    qualifies."""
    p = [dot(row, line[0].coeffs) for row in c.matrix]
    q = [dot(row, line[1].coeffs) for row in c.matrix]
    pairs = combinations(range(len(p)), 2)
    if any((p[i] * q[j] - p[j] * q[i]).sign() != 0 for i, j in pairs):
        return False
    # a coordinate where the common direction is nonzero carries the factor
    k = next((k for k in range(len(p)) if p[k] or q[k]), None)
    if k is None:
        return True
    start = (p[k] + q[k] * lo).sign()
    end = (q[k].sign() or p[k].sign()) if hi is None else (p[k] + q[k] * hi).sign()
    return start == end != 0


def _on_line(
    model: ThreefoldModel,
    D: ExcDivisor,
    constraints: Sequence[Constraint],
    line: Line,
    s: QuadNumber,
) -> Optional[GammaEnvelope]:
    """The point of ``line`` at slope ``s`` as ``D``'s envelope, if it is
    feasible and certified (the minimum is unique), else None."""
    try:
        return _certified(model, D, constraints, (line[0] + line[1] * s).coeffs)
    except NoMinimalEnvelopeError:
        return None


def _walk(
    model: ThreefoldModel, D1: ExcDivisor, D2: ExcDivisor
) -> tuple[list[QuadNumber], list[Line]]:
    """:func:`regions`' slopes and each region's line ``(P, Q)``.

    Each step starts at an *anchor* ``(g, lo)`` on the envelope:
    ``sigma(D1)`` (``D1.envelope``, filled here) at ``lo = 0``, then the
    previous step's line at its end.  Each ``t``-subset of the family's
    constraints active at the anchor, in ``combinations`` order, fixes a
    line through it (:func:`_line_through`).  The line is kept if the
    subset vanishes all along it and no constraint active at the anchor
    turns negative at once above ``lo`` (:func:`_falls_past`; its point
    in the step would be infeasible).  It ends at ``hi``, the least root
    above ``lo`` of a constraint that does not vanish all along it.  Each
    constraint's restriction to the line is computed once for these three
    uses.  The step's line is the first whose point at ``(lo + hi)/2``
    (at ``lo + 1`` if nothing ends it) is certified as the envelope
    there.  A step with the previous step's active set continues its
    region; otherwise ``lo`` is a breakpoint.

    No constraint changes sign strictly between ``lo`` and ``hi``, so one
    feasible point covers the step, and one certificate does when the
    gradients of the active constraints keep their directions along the
    line.  Linear rows have constant gradients; for an active quadratic
    this is checked (:func:`_gradient_keeps_direction`).  It holds for
    ``t = 2``: an affine line on which a binary quadratic form vanishes
    passes through the origin, so the form's gradient only rescales
    along it.  Raises :class:`ComputationError` naming the slope where no
    line certifies or where an active gradient turns.
    """
    for D in (D1, D2):
        _require_effective(model, D, nonzero=True)
    zero, one = QuadNumber.zero(model.field_d), QuadNumber.one(model.field_d)
    nef = model.nef_systems[0].constraints
    family = [*_bounds(model, D1, D2), *model.nef_systems[1]]
    lo, anchor = zero, (*D1.envelope.gamma, zero)
    starts: list[QuadNumber] = []
    lines: list[Line] = []
    active: Optional[frozenset[str]] = None
    while True:
        at_anchor = [k for k, c in enumerate(family) if c.value(anchor).sign() == 0]
        for subset in combinations(at_anchor, len(model.primes)):
            line = _line_through(model, [family[k] for k in subset], anchor)
            if line is None:
                continue
            base, direction = (*line[0].coeffs, zero), (*line[1].coeffs, one)
            along = [c.along(base, direction) for c in family]
            if any(x.sign() != 0 for k in subset for x in along[k]) or any(
                _falls_past(along[k], lo) for k in at_anchor
            ):
                continue
            ends = [
                root for q in along for root in quadratic_roots(*q) or () if root > lo
            ]
            hi = min(ends, default=None)
            s = lo + 1 if hi is None else (lo + hi) / 2
            D = D1 + D2 * s
            env = _on_line(model, D, [*_bounds(model, D), *nef], line, s)
            if env is not None:
                break
        else:
            raise ComputationError(
                f"no certified envelope line above slope {lo.canonical_string()}; "
                "the model is outside this solver's supported family"
            )
        for c in nef:
            if (
                c.ident in env.active
                and isinstance(c, QuadraticConstraint)
                and not _gradient_keeps_direction(c, line, lo, hi)
            ):
                raise ComputationError(
                    f"the gradient of {c.ident} turns along the envelope line above "
                    f"slope {lo.canonical_string()}; one certificate does not cover it"
                )
        if env.active != active:
            starts.append(lo)
            lines.append(line)
            active = env.active
        if hi is None:
            return starts[1:], lines
        lo, anchor = hi, (*(line[0] + line[1] * hi).coeffs, hi)


def regions(
    model: ThreefoldModel, D1: ExcDivisor, D2: ExcDivisor
) -> list[QuadNumber]:
    """Slopes ``0 < r_1 < ... < r_k`` where ``gamma(D1 + r*D2)`` changes.

    Within a region the envelope is affine in ``r``; the walk
    (:func:`_walk`) follows it region by region from ``sigma(D1)``, so its
    work is proportional to the number of regions and ``gamma`` runs only
    for ``D1.envelope``.  Dependent directions give a single region.
    """
    return _walk(model, D1, D2)[0]
