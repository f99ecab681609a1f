"""Minimal nef envelopes of effective exceptional divisors.

Given an effective divisor ``D = sum a_i E_i`` supported on the
exceptional primes, its *envelope* is the coordinatewise-smallest vector
``g >= a`` such that ``-sum g_i E_i`` is nef, i.e. its restriction to the
surface over every prime lies in that surface's nef cone.  The envelope
coordinates are what the multiplicity formulas consume: they are exact
elements of Q(sqrt(d)) and may well be irrational.

The feasible set is cut out by the bound constraints ``g_i - a_i >= 0``
together with the nef constraints: each surface's own cone inequalities
(:meth:`SurfaceLattice.constraints`) pulled back to ``g`` along ``g ->
-sum g_i r_E(E_i)``, once per model (:attr:`ThreefoldModel.nef_systems`).

Along a segment of divisors ``D1 + r*D2`` the envelope is piecewise
affine in ``r``, and one walk (:func:`_walk`) follows it: from a known
envelope, the constraints active there fix a line, the line ends where
another constraint meets it, and a certified point inside proves it the
envelope up to that end.  The walk hands out one :class:`Region` per
stretch of constant active set: its slopes, its line and the envelope
certified there.  ``gamma(D)`` walks from the anchor ``A = sum E_i``,
which is its own envelope when ``-A`` is nef, along ``A + r*(D - A)``
to ``r = 1`` and reads the last record's envelope; ``regions`` walks
``D1 + r*D2`` from ``sigma(D1)`` and returns the records' lower slopes
past the first, the breakpoints of the piecewise multiplicity formulas,
and ``multiplicity.piecewise_limit`` builds one cubic per record from
its line.  The last region's direction, certified, is kept as ``sigma(D2)``.

Every answer is certified, not assumed: for each coordinate ``i`` there
are multipliers ``lam >= 0`` on the active constraints with ``sum lam_c
grad c = e_i``.  Because each quadratic nef cone is half of a light cone
(its surface's gram matrix has signature ``(1, rho - 1)``, the Hodge
index theorem), these first-order conditions prove minimality exactly,
and the multipliers are kept on the result (:func:`_certified`, which
returns None for a point it cannot prove).  So a walk that strays can
fail (a :class:`ComputationError`) but cannot return a wrong envelope.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple, Optional, Sequence

from .errors import ComputationError, InputError, RootOutsideFieldError
from .frozen import _kept
from .model import ExcDivisor, ThreefoldModel
from .qfield import QuadNumber, dot, quadratic_roots
from .surfaces import (
    Constraint,
    LinearConstraint,
    Point,
    Quadratic,
    QuadraticConstraint,
    _falls_past,
    _inverse,
    _row_reduce,
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
        """The coordinates above the input's: since ``gamma >= input``,
        those whose bound ``coeff[prime]`` is not active."""
        return tuple(
            i
            for i, prime in enumerate(self.model.primes)
            if f"coeff[{prime}]" not in self.active
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


def _bound(model: ThreefoldModel, i: int, a: QuadNumber) -> LinearConstraint:
    """The bound ``g_i >= a``."""
    d = model.field_d
    zero, one = QuadNumber.zero(d), QuadNumber.one(d)
    unit = tuple(one if k == i else zero for k in range(len(model.primes)))
    return LinearConstraint(f"coeff[{model.primes[i]}]", unit, -a)


def _bounds(model: ThreefoldModel, D: ExcDivisor) -> list[Constraint]:
    """The bounds ``g_i >= coeff_i(D)``, one per prime."""
    return [_bound(model, i, a) for i, a in enumerate(D.coeffs)]


# ---------------------------------------------------------------------------
# public operations


def _require_effective(
    model: ThreefoldModel, D: ExcDivisor, *, nonzero: bool
) -> None:
    model._check_own(D)
    if not D.is_effective:
        raise InputError(f"divisor {D} must be effective")
    if nonzero and D.is_zero():
        raise InputError("divisor must be nonzero")


def is_antinef(model: ThreefoldModel, D: ExcDivisor) -> bool:
    """True iff ``-D`` restricts into the nef cone over every prime."""
    _require_effective(model, D, nonzero=False)
    return all(c.value(D.coeffs).sign() >= 0 for c in model.nef_systems)


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


def _linear_inverse(
    model: ThreefoldModel, rows: Sequence[LinearConstraint]
) -> Optional[list[list[QuadNumber]]]:
    """The inverse of the matrix whose rows are the coefficients of
    ``rows``, or None if it is singular.

    A linear row's gradient is constant, so the inverse depends on the
    model alone and is kept on it (:func:`frozen._kept`), keyed by the
    rows' idents in order.  Callers list the rows in the order of
    ``[*bounds, *model.nef_systems]``, so the table holds at most one
    entry per subset of the linear rows.
    """
    key, d = tuple(c.ident for c in rows), model.field_d
    return _kept(model, "linear_inverses", lambda: _inverse([c.coeffs for c in rows], d), key)


def _certificate(
    model: ThreefoldModel, active: Sequence[Constraint], point: Point
) -> list[Optional[Multipliers]]:
    """Per coordinate ``i``: multipliers ``lam >= 0`` on ``active`` with
    ``sum lam_c grad c(point) = e_i`` (the nonzero ones, by ident), or None.

    On ``t`` active constraints with independent gradients, row ``i`` of
    the inverse of their gradient matrix is the only candidate ``lam``;
    further subsets are tried only for coordinates whose row has a
    negative entry.  ``active`` is in the order of ``[*bounds,
    *model.nef_systems]``; the inverse of linear rows is the model's
    (:func:`_linear_inverse`), one with a quadratic row is computed here.
    """
    t, d = len(point), point[0].d
    grads = [c.gradient(point) for c in active]
    quadratic = [isinstance(c, QuadraticConstraint) for c in active]
    found: list[Optional[Multipliers]] = [None] * t
    for subset in combinations(range(len(active)), t):
        if any(quadratic[k] for k in subset):
            inverse = _inverse([grads[k] for k in subset], d)
        else:
            inverse = _linear_inverse(model, [active[k] for k in subset])
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
    model: ThreefoldModel, D: ExcDivisor, point: Point
) -> Optional[GammaEnvelope]:
    """``point`` as the envelope of ``D``, if it is feasible for ``D``'s
    bounds and the model's nef constraints and certified minimal in every
    coordinate (so the minimum is unique); else None.

    The certificate is sufficient.  Each active constraint ``c`` satisfies
    ``grad c(point) . (g - point) >= 0`` at every feasible ``g``: for a
    linear row this is ``c(g) >= 0``; for a quadratic nef cone it is
    ``2 x*.x >= 0`` for ``x*, x`` in one half of the light cone, which
    holds because the gram matrix has signature ``(1, rho - 1)`` (the
    Hodge index theorem, which :class:`SurfaceLattice` checks).  So
    ``e_i = sum lam_c grad c(point)`` with ``lam >= 0`` gives ``g_i >=
    point_i`` (first-order conditions suffice on this convex set; Arrow
    and Enthoven 1961).  Sufficiency rests on the model being validated:
    ``validate`` requires each surface's ample class ``a`` strictly inside
    its nef cone, so ``a^T G a > 0``, and the half light cone on ``a``'s
    side is convex only for such an ``a``.

    The bounds are read first, as ``(x - a).sign()``, and a point below
    one of them is refused before any nef row is evaluated; only the
    active bounds are built as constraints.
    """
    bound_signs = [(x - a).sign() for x, a in zip(point, D.coeffs)]
    if min(bound_signs) < 0:
        return None
    nef = model.nef_systems
    nef_signs = [c.value(point).sign() for c in nef]
    if min(nef_signs) < 0:
        return None
    # a coordinate at its bound is D's own coefficient, so results share it
    point = tuple(
        a if sign == 0 else x for x, a, sign in zip(point, D.coeffs, bound_signs)
    )
    bounds = [
        _bound(model, i, a)
        for i, (a, sign) in enumerate(zip(D.coeffs, bound_signs))
        if sign == 0
    ]
    active = bounds + [c for c, sign in zip(nef, nef_signs) if sign == 0]
    certificate = _certificate(model, active, point)
    if None in certificate:
        return None
    return GammaEnvelope(
        input=D,
        gamma=point,
        active=frozenset(c.ident for c in active),
        certificate=tuple(certificate),
    )


def gamma(model: ThreefoldModel, D: ExcDivisor) -> GammaEnvelope:
    """Coordinatewise-minimal ``g >= coeffs(D)`` making ``-sum g_i E_i`` nef.

    Walks the segment ``A + r*(D - A)`` from the anchor ``A = sum E_i``
    at ``r = 0`` to ``D`` at ``r = 1`` (:func:`_walk`), and returns the
    last region's envelope, the point at ``r = 1`` that :func:`_certified`
    proves minimal in every coordinate.  A model on which ``-A`` is not
    nef is refused.
    """
    _require_effective(model, D, nonzero=True)
    A = ExcDivisor(model, _anchor(model)[0])
    return _walk(model, A, D - A, target=D)[-1].envelope


def _anchor(model: ThreefoldModel) -> tuple[Point, frozenset[str]]:
    """``gamma``'s anchor ``A = sum E_i`` and the idents of the constraints
    active at it, from ``_certified(model, A, A)``, which certifies ``A``
    exactly when ``-A`` is nef (the ``t`` bound rows give the identity).

    Both depend on the model alone, so they are kept on it
    (:func:`frozen._kept`) as field elements and strings that point
    nowhere back at the model (None for the active set when ``-A`` is not
    nef).  Such a model is refused on every call, naming the first nef
    row negative at ``A``.
    """

    def record() -> tuple[Point, Optional[frozenset[str]]]:
        A = (QuadNumber.one(model.field_d),) * len(model.primes)
        env = _certified(model, ExcDivisor(model, A), A)
        return A, None if env is None else env.active

    A, active = _kept(model, "anchor", record)
    if active is None:
        failed = next(c for c in model.nef_systems if c.value(A).sign() < 0)
        raise ComputationError(
            "gamma walks from the anchor sum E_i, but -sum E_i is not nef on "
            f"this model: it fails {failed.ident}"
        )
    return A, active


def _sigma(
    model: ThreefoldModel, D: ExcDivisor, direction: Optional[Point] = None
) -> Optional[GammaEnvelope]:
    """``gamma`` of ``D``, once per divisor object (:func:`frozen._kept`).

    ``gamma`` is looked up on this module at each fill, so a replaced
    ``gamma`` is the one called.  It runs on an equal copy: the envelope's
    ``input`` does not point back at ``D``, so no reference cycle outlives
    the divisor's last reference.  With a ``direction`` (:func:`_walk`'s
    last line) the copy's envelope is that point if :func:`_certified`
    certifies it, and None, kept nowhere, if not.
    """
    model._check_own(D)

    def envelope() -> Optional[GammaEnvelope]:
        copy = ExcDivisor(model, D.coeffs)
        return gamma(model, copy) if direction is None else _certified(model, copy, direction)

    return _kept(D, "envelope", envelope)


Line = tuple[ExcDivisor, ExcDivisor]


class Region(NamedTuple):
    """One region of a walk along ``D1 + r*D2``: the slopes ``lo <= r <=
    hi`` (``hi`` None when the region is unbounded), the line ``(P, Q)``
    with ``sigma(D1 + r*D2) = P + r*Q`` on them, and ``envelope``, the
    one certified at the region's first sample."""

    lo: QuadNumber
    hi: Optional[QuadNumber]
    line: Line
    envelope: GammaEnvelope


def _line_through(
    model: ThreefoldModel,
    family: Sequence[Constraint],
    subset: Sequence[int],
    g: Point,
    lo: QuadNumber,
) -> Optional[Line]:
    """``(P, Q)`` with ``P + r*Q`` the line through ``g`` at ``r = lo``
    that the linearisations of the family constraints ``subset`` fix.

    ``family`` is ``[*_bounds(model, D2), *model.nef_systems]``.  Family
    constraint ``k < t`` stands for the bound ``g_k >= coeff_k(D1 +
    r*D2)``, which asks ``Q_k = coeff_k(D2)``: the bound of ``D2`` vanishes
    at ``Q``.  A nef constraint ``c`` asks ``grad c(g) . Q = 0``; a linear
    one is homogeneous, so it too vanishes at ``Q``.  These must fix ``Q``
    uniquely; then ``P = g - lo*Q`` (``g`` itself at ``lo = 0``).  The
    rows are taken in family order; linear rows give ``Q`` through the
    model's inverse (:func:`_linear_inverse`); with a quadratic row the
    ``t x (t+1)`` augmented matrix is row reduced in place and ``Q`` read
    off its last column.  Returns None when ``Q`` is not unique (fewer
    than ``t`` pivots).  The rows then vanish all along the line, or one
    of them falls at once above ``lo`` (:func:`_walk`).
    """
    t, d = len(model.primes), model.field_d
    rows = [family[k] for k in sorted(subset)]
    zero = QuadNumber.zero(d)
    rhs = [zero if isinstance(c, QuadraticConstraint) else -c.const for c in rows]
    if any(isinstance(c, QuadraticConstraint) for c in rows):
        aug = [[*c.gradient(g), b] for c, b in zip(rows, rhs)]
        if len(_row_reduce(aug, t)) < t:
            return None
        v = tuple(row[t] for row in aug)
    else:
        inverse = _linear_inverse(model, rows)
        if inverse is None:
            return None
        v = tuple(dot(row, rhs) for row in inverse)
    u = tuple(gi - lo * vi for gi, vi in zip(g, v)) if lo else g
    return ExcDivisor(model, u), ExcDivisor(model, v)


def _walk(
    model: ThreefoldModel,
    D1: ExcDivisor,
    D2: ExcDivisor,
    target: Optional[ExcDivisor] = None,
) -> list[Region]:
    """The regions of ``D1 + r*D2``, one :class:`Region` each, in order of
    slope; with ``target = D1 + D2``, the last record's envelope is
    ``target``'s.

    The family's constraints are the bounds ``g_k >= coeff_k(D1 + r*D2)``
    and the nef constraints, which read ``g`` alone.  Each step starts at
    an *anchor* ``(g, lo)`` on the envelope: at ``lo = 0``, ``sigma(D1)``
    (``_sigma(model, D1)``), or with a ``target``, ``gamma``'s anchor
    ``D1 = sum E_i`` (:func:`_anchor`); later, the previous step's line at
    its end.  The first anchor's active set is read off its certified
    envelope by ident, so nothing is evaluated there.  Each ``t``-subset
    of the constraints active at the anchor, in ``combinations`` order,
    fixes a line through it (:func:`_line_through`).  The line is kept
    unless a constraint active at the anchor turns negative at once above
    ``lo`` (:func:`_falls_past`; its point in the step would be
    infeasible).  With a ``target``, a kept line whose point at ``r = 1``
    is certified as ``target``'s envelope ends the walk with a last
    record ``Region(lo, 1, line, envelope)``.
    Otherwise the line ends at ``hi``, the least root above ``lo`` of a
    constraint that does not vanish all along it (with a ``target``,
    below 1).  The step's line is the first whose point at ``(lo + hi)/2``
    (at ``lo + 1`` if nothing ends it) is certified as the envelope
    there.  A step with the previous step's active set extends its
    region's record to ``hi``; otherwise it opens a record at ``lo``, a
    breakpoint.  The next anchor's active constraints are those with a
    root at ``hi``, then those that vanish all along the line.  A
    constraint's restriction to a line is computed once: for those
    active at the anchor before the line is kept, for the rest after.  A
    bound or linear row of the line's subset is not restricted: it is
    ``(0, 0, 0)`` by construction (below).

    No constraint changes sign strictly between ``lo`` and ``hi``, so one
    feasible point covers the step; the Hodge index theorem does the rest.
    A quadratic nef row reads ``c(g) = (Cg)^T G (Cg)``, with ``G`` its
    surface's gram matrix, of signature ``(1, rho - 1)``
    (:class:`SurfaceLattice` checks it), and the ample class ``a`` has
    ``a^T G a > 0`` (``validate`` requires it).  So the orthogonal
    complement of a nonzero isotropic vector is negative semidefinite with
    radical its span, a totally isotropic subspace has dimension at most
    1, and ``a^perp`` is negative definite.  Hence:

    - A kept line's subset vanishes all along it.  Bound and linear rows
      do by construction.  A quadratic row of the subset has ``Cg``
      isotropic (nonzero, or its gradient row is zero and there is no
      line) and ``(Cg)^T G (CQ) = 0``, so it reads ``alpha (r - lo)^2``
      with ``alpha = (CQ)^T G (CQ) <= 0`` along the line: zero, or falling
      at once, and then the line is skipped.
    - One certificate covers a step.  A quadratic row active at the
      sample has no root strictly between ``lo`` and ``hi``, so it
      vanishes all along the line, and ``C(P + rQ) = f(r) w`` with ``f``
      affine: its gradient is ``2 f(r) C^T G w``.  The ample-side row
      reads ``f(r) w^T G a >= 0`` there, with ``w^T G a != 0``, so ``f``
      keeps one sign on the open step or is 0 all along it.  The active
      set is the same at every interior point and each gradient a
      positive multiple of its value at the sample (linear rows' are
      constant), so the sample's multipliers, rescaled, certify it.

    The ``target``'s envelope is certified where it is returned, whatever
    path led there.

    Without a ``target``, the last region's line ``(P, Q)`` gives
    ``sigma(D1/r + D2) = P/r + Q`` for every large ``r``, so ``Q`` is
    ``sigma(D2)`` in the limit; the certificate, not the limit, proves it,
    and ``_sigma(model, D2, Q)`` keeps it unless ``D2``'s is kept already.

    On a model whose nef cones are all polyhedral (every nef row linear) a
    step finds no line only where some divisor on the walk's segment has
    no least anti-nef majorant.  Minimising ``sum g_i`` over ``g >=
    coeffs(D1 + r*D2)``, ``-sum g_i E_i`` nef, is a linear program whose
    right-hand side is affine in ``r``.  Suppose every divisor with ``r``
    in ``[lo, lo + eps)`` has a least majorant; it is then the program's
    unique optimum.  There are finitely many bases, so one basis is
    optimal on all of some ``[lo, lo + eps')``.  Its ``t`` rows are active
    at the anchor, and they fix the envelope's line there, which the walk
    tries.  On that line the constraints active strictly between ``lo``
    and ``hi`` are the same at every ``r``, and so are their gradients.
    The multipliers that prove minimality just above ``lo`` therefore
    prove it at the step's sample, and at ``r = 1`` when the step reaches
    it.  So when no line certifies, divisors just above ``lo`` with no
    least majorant exist, and the refusal says so.

    Raises :class:`ComputationError` where no line certifies, naming the
    slope, or with a ``target``, the ``target``.  A
    :class:`RootOutsideFieldError` from a constraint's roots along a line
    also names the constraint and the slope.
    """
    if target is None:
        start = _sigma(model, D1)
        _require_effective(model, D2, nonzero=True)
        g, active = start.gamma, start.active
    else:
        g, active = _anchor(model)
    t = len(model.primes)
    zero, one = QuadNumber.zero(model.field_d), QuadNumber.one(model.field_d)
    nef = model.nef_systems
    family = [*_bounds(model, D2), *nef]
    linear = [isinstance(c, LinearConstraint) for c in family]
    at_anchor = [k for k, c in enumerate(family) if c.ident in active]

    def along(k: int, line: Line) -> Quadratic:
        """Family constraint ``k`` at ``line`` as ``alpha r^2 + beta r + chi``."""
        u, v = line[0].coeffs, line[1].coeffs
        if k < t:
            return zero, v[k] - D2.coeffs[k], u[k] - D1.coeffs[k]
        return nef[k - t].along(u, v)

    lo = zero
    walk: list[Region] = []
    while True:
        for subset in combinations(at_anchor, t):
            line = _line_through(model, family, subset, g, lo)
            if line is None:
                continue
            on = {
                k: (zero, zero, zero) if linear[k] and k in subset else along(k, line)
                for k in at_anchor
            }
            if any(_falls_past(q, lo) for q in on.values()):
                continue
            if target is not None:
                env = _certified(model, target, (line[0] + line[1]).coeffs)
                if env is not None:
                    walk.append(Region(lo, one, line, env))
                    return walk
            roots = []
            for k, c in enumerate(family):
                q = on[k] if k in on else along(k, line)
                try:
                    roots.append(quadratic_roots(*q))
                except RootOutsideFieldError as exc:
                    raise RootOutsideFieldError(
                        f"{exc}, where {c.ident} meets the envelope line above "
                        f"slope {lo.canonical_string()}"
                    ) from None
            ends = [root for rs in roots for root in rs or () if root > lo]
            hi = min(ends, default=None)
            if target is not None and (hi is None or hi >= one):
                continue
            s = lo + 1 if hi is None else (lo + hi) / 2
            env = _certified(model, D1 + D2 * s, (line[0] + line[1] * s).coeffs)
            if env is not None:
                break
        else:
            if target is None:
                where = f"above slope {lo.canonical_string()}"
                there = "of the family just above that slope"
            else:
                where, there = f"from sum E_i to {target}", "on that segment"
            cause = (
                f"a divisor {there} has no least anti-nef majorant"
                if all(isinstance(c, LinearConstraint) for c in nef)
                else "the model is outside this solver's supported family"
            )
            raise ComputationError(f"no certified envelope line {where}; {cause}")
        if walk and env.active == walk[-1].envelope.active:
            walk[-1] = walk[-1]._replace(hi=hi)
        else:
            walk.append(Region(lo, hi, line, env))
        if hi is None:
            _sigma(model, D2, line[1].coeffs)
            return walk
        lo, g = hi, (line[0] + line[1] * hi).coeffs
        at_anchor = [k for k, rs in enumerate(roots) if rs is not None and hi in rs]
        at_anchor += [k for k, rs in enumerate(roots) if rs is None]


def regions(
    model: ThreefoldModel, D1: ExcDivisor, D2: ExcDivisor
) -> list[QuadNumber]:
    """Slopes ``0 < r_1 < ... < r_k`` where ``gamma(D1 + r*D2)`` changes.

    Within a region the envelope is affine in ``r``; the walk
    (:func:`_walk`) follows it region by region from ``sigma(D1)``, so its
    work is proportional to the number of regions and ``gamma`` runs only
    for ``_sigma(model, D1)``.  The slopes are the lower ends of the walk's
    records past the first.  Dependent directions give a single region.
    """
    return [region.lo for region in _walk(model, D1, D2)[1:]]
