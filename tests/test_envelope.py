"""Minimal nef envelopes: closed-form agreement, minimality, regions."""

import random
import re
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from test_model import basis_changed_document
from test_surfaces import reference_solve

import divfilt.envelope
from divfilt import cli
from divfilt.envelope import (
    _bounds,
    _certificate,
    _certified,
    _region_label,
    _sigma,
    _walk,
    gamma,
    is_antinef,
    regions,
)
from divfilt.errors import ComputationError, InputError, RootOutsideFieldError
from divfilt.model import builtin_document, builtin_model, load_model, model_from_dict
from divfilt.multiplicity import limit_single, piecewise_limit
from divfilt.qfield import QuadNumber, dot, quadratic_roots
from divfilt.surfaces import LinearConstraint, QuadraticConstraint


DATA = Path(__file__).resolve().parent / "data"
UNION_MODEL = DATA / "two_copy_union.json"
AMPLE_SELF_RESTRICTION = DATA / "ample_self_restriction.json"


@pytest.fixture(scope="module")
def model():
    return builtin_model()


@pytest.fixture(scope="module")
def union():
    """Two copies of the builtin model side by side: primes ``Sbar, F,
    Sbar', F'`` and zero restrictions between the copies."""
    return load_model(UNION_MODEL)


def q3(a, b=0):
    return QuadNumber(Fraction(a), Fraction(b), 3)


ROOT3 = q3(0, 1)
# gamma_Sbar = RAISE_FACTOR * j in the steep region; equals 3/(9 - sqrt(3))
RAISE_FACTOR = q3(Fraction(9, 26), Fraction(1, 26))
# slope above which the first coordinate must be raised
STEEP_SLOPE = q3(3) - ROOT3 / 3


def closed_form(n, j):
    """Independent closed-form envelope for integer points of the builtin model."""
    assert n >= 0 and j >= 0 and (n, j) != (0, 0)
    if j <= n:
        label = "2" if j == n else "1"
        return (q3(n), q3(n)), label
    if q3(j) < STEEP_SLOPE * n:
        return (q3(n), q3(j)), "2"
    return (RAISE_FACTOR * j, q3(j)), "3"


# -- agreement with the closed form on an integer grid -------------------------


def test_closed_form_agreement_on_grid(model):
    points = [
        (n, j) for n in range(11) for j in range(11) if (n, j) != (0, 0)
    ]
    assert len(points) >= 100
    for n, j in points:
        env = gamma(model, model.divisor([n, j]))
        expected_gamma, expected_region = closed_form(n, j)
        assert env.gamma == expected_gamma, (n, j)
        assert env.region == expected_region, (n, j)


def test_named_envelope_points(model):
    cases = {
        (2, 1): ("(2, 2), region 1"),
        (1, 1): ("(1, 1), region 2"),
        (2, 3): ("(2, 3), region 2"),
        (1, 3): ("(27/26 + 3/26*sqrt(3), 3), region 3"),
        (0, 1): ("(9/26 + 1/26*sqrt(3), 1), region 3"),
    }
    for (n, j), expected in cases.items():
        assert str(gamma(model, model.divisor([n, j]))) == expected


def test_irrational_input_coefficients(model):
    # homogeneity extends to irrational scale factors within the field
    lam = q3(1, 1)  # 1 + sqrt(3) > 0
    base = model.divisor([0, 1])
    scaled = gamma(model, base * lam)
    unscaled = gamma(model, base)
    assert scaled.gamma == tuple(g * lam for g in unscaled.gamma)


# -- is_antinef -----------------------------------------------------------------


def test_antinef_examples(model):
    assert is_antinef(model, model.divisor([1, 1]))
    assert not is_antinef(model, model.divisor([1, 0]))
    assert not is_antinef(model, model.divisor([0, 1]))


def test_antinef_region_two_strip(model):
    for n, j in ((1, 1), (2, 3), (3, 4), (5, 7), (2, 2)):
        assert is_antinef(model, model.divisor([n, j])) == (
            q3(n) <= q3(j) and q3(j) <= STEEP_SLOPE * n
        )


# -- structural properties --------------------------------------------------------


def test_homogeneity_random(model):
    rng = random.Random(20260814)
    for _ in range(20):
        n, j = rng.randint(0, 8), rng.randint(0, 8)
        if (n, j) == (0, 0):
            n = 1
        lam = Fraction(rng.randint(1, 40), rng.randint(1, 40))
        D = model.divisor([n, j])
        base = gamma(model, D)
        scaled = gamma(model, D * lam)
        assert scaled.gamma == tuple(g * lam for g in base.gamma)


def test_idempotence(model):
    for n, j in ((2, 1), (1, 1), (2, 3), (1, 3), (0, 1), (7, 2)):
        env = gamma(model, model.divisor([n, j]))
        again = gamma(model, model.divisor(env.gamma))
        assert again.gamma == env.gamma
        assert again.raised_indices == ()
        assert again.region == "2"


def test_soundness_envelope_is_antinef(model):
    for n, j in ((2, 1), (1, 1), (2, 3), (1, 3), (0, 1), (9, 2), (3, 11)):
        env = gamma(model, model.divisor([n, j]))
        assert is_antinef(model, env.envelope_divisor)
        assert all(
            (g - c).sign() >= 0 for g, c in zip(env.gamma, env.input.coeffs)
        )


def test_antinef_fixed_point(model):
    for n, j in ((1, 1), (2, 3), (3, 4)):
        D = model.divisor([n, j])
        assert is_antinef(model, D)
        env = gamma(model, D)
        assert env.gamma == D.coeffs
        assert env.raised_indices == ()


def test_minimality_against_integer_majorants(model):
    # any anti-nef integer point dominating D must dominate gamma(D)
    rng = random.Random(7)
    for _ in range(10):
        n, j = rng.randint(0, 4), rng.randint(0, 4)
        if (n, j) == (0, 0):
            j = 1
        env = gamma(model, model.divisor([n, j]))
        for a in range(n, n + 6):
            for b in range(j, j + 6):
                if is_antinef(model, model.divisor([a, b])):
                    assert (q3(a) - env.gamma[0]).sign() >= 0
                    assert (q3(b) - env.gamma[1]).sign() >= 0


# an independent check of minimality: lowering a raised coordinate by
# 1/1000 must leave the anti-nef divisors
EPSILON = Fraction(1, 1000)


def test_epsilon_certificate_for_raised_coordinates(model):
    for n, j in ((2, 1), (1, 3), (0, 1), (5, 0)):
        env = gamma(model, model.divisor([n, j]))
        for i in env.raised_indices:
            perturbed = list(env.gamma)
            perturbed[i] = perturbed[i] - EPSILON
            assert not is_antinef(model, model.divisor(perturbed)), (n, j, i)


def test_raised_coordinates_are_those_whose_bound_is_not_active():
    """``raised_indices``, read off the active set, are the coordinates
    where the envelope exceeds the input, on seeded divisors of the
    builtin, basis-changed and union models."""
    kinds = set()
    for m, D1, D2 in three_model_pairs(17, 10):
        for D in (D1, D2):
            env = gamma(m, D)
            above = tuple(i for i, (g, a) in enumerate(zip(env.gamma, D.coeffs)) if g > a)
            assert env.raised_indices == above, D
            kinds.add(len(above))
    assert kinds >= {0, 1}, kinds


def test_active_constraints_reported(model):
    env = gamma(model, model.divisor([1, 3]))
    assert env.active == frozenset({"coeff[F]", "nef[Sbar]:quad"})
    flat = gamma(model, model.divisor([1, 1]))
    assert "coeff[Sbar]" in flat.active and "coeff[F]" in flat.active


# -- nef constraints ------------------------------------------------------------


def test_nef_constraint_idents_pinned(model):
    assert [c.ident for c in model.nef_systems] == [
        "nef[Sbar]:quad",
        "nef[Sbar]:ample",
        "nef[F]:0",
        "nef[F]:1",
    ]


def test_nef_constraints_are_surface_constraints_on_restrictions(model):
    """Each nef constraint at ``g`` is its surface constraint at ``r_E(-D)``."""
    rng = random.Random(3)
    constraints = {c.ident: c for c in model.nef_systems}
    for _ in range(10):
        g = [
            q3(Fraction(rng.randint(0, 20), rng.randint(1, 5)), rng.randint(-2, 2))
            for _ in model.primes
        ]
        D = model.divisor(g)
        for prime in model.primes:
            restricted = model.restrict(-D, prime).coords
            for c in model.surface(prime).constraints("nef"):
                pulled = constraints[f"nef[{prime}]:{c.ident}"]
                assert pulled.value(g) == c.value(restricted)


# -- regions ------------------------------------------------------------------------


def test_regions_builtin_pair(model):
    S = model.prime_divisor("Sbar")
    F = model.prime_divisor("F")
    assert regions(model, S, F) == [q3(1), STEEP_SLOPE]


def test_regions_swapped(model):
    S = model.prime_divisor("Sbar")
    F = model.prime_divisor("F")
    assert regions(model, F, S) == [RAISE_FACTOR, q3(1)]


def test_regions_reciprocal_relation(model):
    S = model.prime_divisor("Sbar")
    F = model.prime_divisor("F")
    forward = regions(model, S, F)
    backward = regions(model, F, S)
    assert [s.inverse() for s in reversed(forward)] == backward


def test_regions_dependent_directions(model):
    D = model.divisor([1, 1])
    assert regions(model, D, D * 2) == []


def test_regions_slopes_are_exact_region_changes(model):
    S = model.prime_divisor("Sbar")
    F = model.prime_divisor("F")
    slopes = regions(model, S, F)
    # sample strictly inside each open interval and confirm the label changes
    labels = []
    for r in (Fraction(1, 2), Fraction(3, 2), Fraction(5, 1)):
        env = gamma(model, model.divisor([1, r]))
        labels.append(env.region)
    assert labels == ["1", "2", "3"]
    assert len(slopes) == len(set(labels)) - 1


# -- input validation -----------------------------------------------------------------


def test_gamma_rejects_bad_inputs(model):
    with pytest.raises(InputError):
        gamma(model, model.divisor([-1, 0]))
    with pytest.raises(InputError):
        gamma(model, model.zero_divisor())
    with pytest.raises(InputError):
        is_antinef(model, model.divisor([0, -2]))


# -- the walk against the plain algorithm ---------------------------------------


def _solve_equality_system(constraints, nvars, d):
    """Isolated solutions of ``{constraint = 0 for each}`` over Q(sqrt(d)).

    Underdetermined systems contribute no candidates (their solution sets
    are positive-dimensional, so they cannot pin an optimum that another,
    fully determined subset would not also pin).
    """
    linears = [c for c in constraints if isinstance(c, LinearConstraint)]
    quads = [c for c in constraints if isinstance(c, QuadraticConstraint)]
    solved = reference_solve([(c.coeffs, -c.const) for c in linears], nvars, d)
    if solved is None:
        return []
    particular, null_basis = solved
    if not quads:
        return [tuple(particular)] if not null_basis else []
    if not null_basis:
        point = tuple(particular)
        return [point] if all(q.value(point).sign() == 0 for q in quads) else []
    if len(null_basis) == 1:
        direction = null_basis[0]
        for chosen in quads:
            roots = quadratic_roots(*chosen.along(particular, direction))
            if roots is None:
                continue  # this quadratic vanishes on the whole line
            candidates = (
                tuple(p + s * n for p, n in zip(particular, direction)) for s in roots
            )
            return [
                point
                for point in candidates
                if all(q.value(point).sign() == 0 for q in quads)
            ]
        return []  # every quadratic vanishes identically along the line
    if all(x.sign() == 0 for x in particular):
        # fully homogeneous: solutions come in rays through the origin
        return []
    raise NotImplementedError("two or more free variables under a quadratic")


def blocks(model):
    """The primes in groups that no nonzero restriction joins, as lists of
    indices in order: ``E_k`` restricting to a nonzero class on ``E_i``
    puts ``i`` and ``k`` in one group."""
    t = len(model.primes)
    group = list(range(t))
    for i, row in enumerate(model.restrictions):
        for k, r in enumerate(row):
            if any(r.coords):
                old, new = group[k], group[i]
                group = [new if g == old else g for g in group]
    return [[i for i in range(t) if group[i] == g] for g in dict.fromkeys(group)]


def below(x, y):
    """Whether ``x <= y`` in every coordinate."""
    return all((a - b).sign() <= 0 for a, b in zip(x, y))


def reference_gamma(model, D):
    """The plain algorithm: fresh constraints, every subset of as many
    constraints as unknowns, every candidate tested for feasibility.  The
    primes of each of :func:`blocks` are solved apart, since no constraint
    couples two blocks.  Returns ``(gamma, active, region)``, or None when
    the feasible points of some block have no least one."""
    d = model.field_d
    zero, one = QuadNumber.zero(d), QuadNumber.one(d)
    minimum, active = [None] * len(model.primes), set()
    for block in blocks(model):
        bounds = [
            LinearConstraint(
                f"coeff[{model.primes[i]}]",
                tuple(one if k == i else zero for k in block),
                -D.coeffs[i],
            )
            for i in block
        ]
        nef = [
            c.pullback(
                f"nef[{model.primes[i]}]:{c.ident}",
                [(-model.restrictions[i][k]).coords for k in block],
            )
            for i in block
            for c in model.surfaces[i].constraints("nef")
        ]
        constraints = bounds + nef
        candidates = dict.fromkeys(
            point
            for subset in combinations(constraints, len(block))
            for point in _solve_equality_system(subset, len(block), d)
        )
        feasible = [
            p for p in candidates if all(c.value(p).sign() >= 0 for c in constraints)
        ]
        least = [p for p in feasible if all(below(p, q) for q in feasible)]
        if not least:
            return None
        (least,) = least
        for i, g in zip(block, least):
            minimum[i] = g
        active |= {c.ident for c in constraints if c.value(least).sign() == 0}
    raised = tuple(
        i for i, (g, a) in enumerate(zip(minimum, D.coeffs)) if (g - a).sign() > 0
    )
    return tuple(minimum), frozenset(active), _region_label(model, raised)


def seeded_coefficient(rng):
    """A nonnegative integer, rational or Q(sqrt(3)) coefficient."""
    kind = rng.choice(("int", "rational", "quad"))
    if kind == "int":
        return q3(rng.randint(0, 30))
    a = Fraction(rng.randint(0, 60), rng.randint(1, 9))
    if kind == "rational":
        return q3(a)
    while True:
        x = q3(a, Fraction(rng.randint(-20, 20), rng.randint(1, 9)))
        if x.sign() >= 0:
            return x


def test_gamma_matches_plain_algorithm(model):
    """The walk from ``sum E_i`` finds the envelope that every ``t``-subset
    solved as equalities finds, on the builtin model and on a copy with
    every surface basis changed."""
    changed = model_from_dict(basis_changed_document())
    rng = random.Random(11)
    for m in (model, changed):
        for _ in range(40):
            D = m.divisor([seeded_coefficient(rng) for _ in m.primes])
            if D.is_zero():
                continue
            env = gamma(m, D)
            assert (env.gamma, env.active, env.region) == reference_gamma(m, D), D


def test_warmed_and_fresh_models_agree():
    """A model whose caches are filled equals a fresh one and computes the same."""
    warmed, fresh = (model_from_dict(builtin_document()) for _ in range(2))
    S, F = warmed.prime_divisor("Sbar"), warmed.prime_divisor("F")
    regions(warmed, S, F)
    assert "nef_systems" in vars(warmed) and "nef_systems" not in vars(fresh)
    assert warmed == fresh and hash(warmed) == hash(fresh)
    for coeffs in ((2, 1), (1, 1), (2, 3), (1, 3), (0, 1), (q3(5, 1), 7)):
        a = gamma(warmed, warmed.divisor(coeffs))
        b = gamma(fresh, fresh.divisor(coeffs))
        assert (a.gamma, a.active, a.region) == (b.gamma, b.active, b.region)
        assert str(a) == str(b)
    fresh_F, fresh_S = fresh.prime_divisor("F"), fresh.prime_divisor("Sbar")
    assert regions(warmed, F, S) == regions(fresh, fresh_F, fresh_S)
    assert warmed == fresh and hash(warmed) == hash(fresh)


# -- the nef constraints on g ------------------------------------------------------


def seeded_pair(m, rng):
    """Two nonzero effective divisors; one pair in eight is proportional."""
    while True:
        D1, D2 = (m.divisor([seeded_coefficient(rng) for _ in m.primes]) for _ in "12")
        if rng.randrange(8) == 0:
            D2 = D1 * rng.randint(1, 5)
        if not D1.is_zero() and not D2.is_zero():
            return D1, D2


def test_nef_systems_are_homogeneous_without_slope_column(model):
    """One tuple of constraints on ``g`` alone: linear rows without a
    constant and ``t x t`` quadratic forms, no slope column."""
    for m in (model, model_from_dict(basis_changed_document())):
        t = len(m.primes)
        assert isinstance(m.nef_systems, tuple) and m.nef_systems
        for c in m.nef_systems:
            if isinstance(c, LinearConstraint):
                assert c.const == 0 and len(c.coeffs) == t
            else:
                assert len(c.matrix) == t and all(len(row) == t for row in c.matrix)


# -- the certificate of minimality ---------------------------------------------


def constraint_gradients(m, D, g):
    """Gradient at ``g`` of every constraint, by ident, from the surfaces.

    The restriction of ``-sum g_i E_i`` to the surface over ``P`` is ``x =
    sum g_i c_i`` with ``c_i = -r_P(E_i)``; a functional ``f`` has gradient
    ``(f(c_i))_i``, ``x.x`` has ``(2 x.c_i)_i`` and ``x.ample`` has
    ``(c_i.ample)_i``.
    """
    t = len(m.primes)
    grads = {
        f"coeff[{p}]": tuple(q3(int(k == i)) for k in range(t))
        for i, p in enumerate(m.primes)
    }
    for prime in m.primes:
        surface = m.surface(prime)
        columns = [-m.restriction(prime, of) for of in m.primes]
        x = columns[0] * g[0]
        for gi, c in zip(g[1:], columns[1:]):
            x = x + c * gi
        cone = surface.nef_cone
        if cone.kind == "quadratic":
            grads[f"nef[{prime}]:quad"] = tuple(2 * x.pair(c) for c in columns)
            ample = surface.ample_class
            grads[f"nef[{prime}]:ample"] = tuple(c.pair(ample) for c in columns)
        else:
            for k, f in enumerate(cone.functionals):
                grads[f"nef[{prime}]:{k}"] = tuple(
                    sum((fi * ci for fi, ci in zip(f, c.coords)), q3(0))
                    for c in columns
                )
    return grads


def assert_certificate_holds(m, env):
    """Each coordinate's multipliers are positive, on active constraints,
    and weight their gradients recomputed by :func:`constraint_gradients`
    to the unit vector of that coordinate."""
    D, t = env.input, len(m.primes)
    grads = constraint_gradients(m, D, env.gamma)
    assert len(env.certificate) == t
    for i, multipliers in enumerate(env.certificate):
        assert multipliers, (D, i)
        total = [q3(0)] * t
        for ident, lam in multipliers:
            assert ident in env.active and lam.sign() > 0, (D, ident)
            total = [s + lam * x for s, x in zip(total, grads[ident])]
        assert total == [q3(int(k == i)) for k in range(t)], D


def test_certificate_multipliers_recomputed():
    """``sum lam_c grad c(gamma) = e_i`` with ``lam > 0`` on active
    constraints, recomputed from the surfaces on seeded divisors of the
    builtin model and of a basis-changed copy, in regions 1, 2 and 3."""
    rng = random.Random(41)
    for m in (builtin_model(), model_from_dict(basis_changed_document())):
        labels = set()
        for _ in range(40):
            D = m.divisor([seeded_coefficient(rng) for _ in m.primes])
            if D.is_zero():
                continue
            env = gamma(m, D)
            labels.add(env.region)
            assert_certificate_holds(m, env)
        assert labels == {"1", "2", "3"}


def test_certificate_of_named_points(model):
    env = gamma(model, model.divisor([2, 1]))
    assert env.certificate == (
        (("coeff[Sbar]", q3(1)),),
        (("coeff[Sbar]", q3(1)), ("nef[F]:0", q3(1))),
    )
    env = gamma(model, model.divisor([0, 1]))
    assert env.certificate == (
        (("coeff[F]", RAISE_FACTOR), ("nef[Sbar]:quad", q3(0, Fraction(1, 108)))),
        (("coeff[F]", q3(1)),),
    )


def test_point_with_negative_multiplier_is_refused(model):
    """(2, 2) is feasible for D = (1, 2), but its first coordinate can drop
    to 1: on its active rows ``coeff[F]`` (0, 1) and ``nef[F]:0`` (-1, 1),
    ``e_Sbar = 1*(0, 1) - 1*(-1, 1)`` needs a negative multiplier."""
    D, point = model.divisor([1, 2]), (q3(2), q3(2))
    constraints = _bounds(model, D) + list(model.nef_systems)
    active = [c for c in constraints if c.value(point).sign() == 0]
    assert [c.ident for c in active] == ["coeff[F]", "nef[F]:0"]
    found = _certificate(model, active, point)
    assert found[0] is None and found[1] == (("coeff[F]", q3(1)),)
    assert _certified(model, D, point) is None
    assert gamma(model, D).gamma == (q3(1), q3(2))


def test_feasible_points_without_a_least_one_are_refused(model):
    """(1, 2) and (3/2, 3/2) are both feasible for D = (1, 1) and neither is
    below the other, so neither is certified: the first coordinate has no
    certificate, and ``_certified`` returns None."""
    D = model.divisor([1, 1])
    constraints = _bounds(model, D) + list(model.nef_systems)
    for point in ((q3(1), q3(2)), (q3(Fraction(3, 2)), q3(Fraction(3, 2)))):
        assert all(c.value(point).sign() >= 0 for c in constraints)
        active = [c for c in constraints if c.value(point).sign() == 0]
        assert _certificate(model, active, point)[0] is None
        assert _certified(model, D, point) is None


# -- the region walk against one envelope per sample ------------------------------


def with_slope_column(c):
    """The constraint ``c`` on ``g`` as one on ``(g, r)`` that ignores ``r``."""
    zero = q3(0)
    if isinstance(c, LinearConstraint):
        return c._replace(coeffs=(*c.coeffs, zero))
    padded = tuple((*row, zero) for row in c.matrix)
    return c._replace(matrix=(*padded, (zero,) * (len(c.matrix) + 1)))


def family_constraints(m, D1, D2):
    """The bounds and nef constraints of ``D1 + r*D2`` in ``(g, r)``."""
    t = len(m.primes)
    bounds = [
        LinearConstraint(
            f"coeff[{prime}]",
            (*(q3(int(k == i)) for k in range(t)), -D2.coeffs[i]),
            -D1.coeffs[i],
        )
        for i, prime in enumerate(m.primes)
    ]
    return bounds + [with_slope_column(c) for c in m.nef_systems]


def unpruned_vertices(rows, nvars, d):
    """The isolated solutions of every ``nvars``-subset of ``rows``."""
    for subset in combinations(rows, nvars):
        yield from _solve_equality_system(subset, nvars, d)


def sampled_regions_oracle(m, D1, D2):
    """The regions from ``gamma`` at sample slopes between every pair of
    candidate slopes, the positive slopes of the isolated solutions of all
    ``t + 1``-subsets of the family's constraints in ``(g, r)``; returns
    the breakpoints and the ``(sample, envelope)`` pairs."""
    family = family_constraints(m, D1, D2)
    candidates = {
        point[-1]
        for point in unpruned_vertices(family, len(m.primes) + 1, m.field_d)
        if point[-1].sign() > 0
    }
    slopes = sorted(candidates)
    lows = [q3(0)] + slopes
    samples = [(lo + hi) / 2 for lo, hi in zip(lows, slopes)] + [lows[-1] + 1]
    envelopes = [gamma(m, D1 + D2 * s) for s in samples]
    breakpoints = [
        slopes[i]
        for i in range(len(slopes))
        if envelopes[i].active != envelopes[i + 1].active
    ]
    return breakpoints, list(zip(samples, envelopes))


def test_walk_matches_one_envelope_per_sample():
    """The walk's records tile the slopes from 0, their lower slopes past
    the first are the oracle's breakpoints, and at every oracle sample its
    region's line gives ``gamma``'s envelope, with the active set of the
    record's envelope, which is ``gamma``'s at its own input; on seeded
    pairs of the builtin model and of a basis-changed copy."""
    rng = random.Random(43)
    for m in (builtin_model(), model_from_dict(basis_changed_document())):
        counts, kinds = set(), set()
        for _ in range(40):
            D1, D2 = seeded_pair(m, rng)
            walk = _walk(m, D1, D2)
            breakpoints = [region.lo for region in walk[1:]]
            expected, sampled = sampled_regions_oracle(m, D1, D2)
            assert breakpoints == expected, (D1, D2)
            assert walk[0].lo == 0
            assert [region.hi for region in walk] == breakpoints + [None]
            for region in walk:
                assert region.envelope == gamma(m, region.envelope.input), (D1, D2)
            for s, env in sampled:
                region = walk[sum(s > b for b in breakpoints)]
                P, Q = region.line
                assert (P + Q * s).coeffs == env.gamma, (D1, D2, s)
                assert region.envelope.active == env.active, (D1, D2, s)
            counts.add(len(walk))
            kinds.add(proportional(D1, D2))
        assert counts == {1, 2, 3} and kinds == {True, False}


def proportional(D1, D2):
    a, b = D1.coeffs, D2.coeffs
    return all(x * w == y * z for x, y in zip(a, b) for z, w in zip(a, b))


def counting_gamma(monkeypatch):
    """Replace ``envelope.gamma`` by a wrapper; returns the list of its inputs."""
    calls = []
    real = divfilt.envelope.gamma

    def counted(m, D):
        calls.append(D)
        return real(m, D)

    monkeypatch.setattr(divfilt.envelope, "gamma", counted)
    return calls


def test_walk_calls_gamma_only_for_the_first_anchor(monkeypatch):
    """Every region starts from an anchor, so the walk's only ``gamma`` call
    is ``_sigma`` of ``D1``, and none once that cache is filled, when it returns
    the same records, on seeded pairs of both models with 1, 2 and 3
    regions and proportional pairs."""
    rng = random.Random(5)
    calls = counting_gamma(monkeypatch)
    for m in (builtin_model(), model_from_dict(basis_changed_document())):
        counts, kinds = set(), set()
        for _ in range(30):
            D1, D2 = seeded_pair(m, rng)
            calls.clear()
            walk = _walk(m, D1, D2)
            assert calls == [D1] and "envelope" in vars(D1), (D1, D2)
            calls.clear()
            assert _walk(m, D1, D2) == walk
            assert calls == [], (D1, D2)
            counts.add(len(walk))
            kinds.add(proportional(D1, D2))
        assert counts == {1, 2, 3} and kinds == {True, False}


def three_model_pairs(seed, count):
    """``count`` fresh seeded pairs ``(m, D1, D2)`` on each of the builtin
    model, a basis-changed copy and the two-copy union, in that order."""
    rng = random.Random(seed)
    models = (builtin_model(), model_from_dict(basis_changed_document()), load_model(UNION_MODEL))
    return [(m, *seeded_pair(m, rng)) for m in models for _ in range(count)]


def test_walk_fills_sigma_of_D2_from_the_last_region():
    """The walk stores its last region's direction as ``D2``'s envelope, on an
    equal copy of ``D2``; it equals ``reference_gamma`` and a fresh
    ``gamma(D2)`` in ``gamma``, ``active`` and ``certificate``, on seeded
    pairs of three models with 1, 2 and 3 regions and proportional pairs."""
    seen = {}
    for m, D1, D2 in three_model_pairs(70, 12):
        walk = _walk(m, D1, D2)
        filled = vars(D2)["envelope"]
        assert walk[-1].hi is None
        assert filled.gamma == walk[-1].line[1].coeffs, (D1, D2)
        assert filled.input == D2 and filled.input is not D2
        assert filled == gamma(m, m.divisor(D2.coeffs)), (D1, D2)
        assert (filled.gamma, filled.active) == reference_gamma(m, D2)[:2], (D1, D2)
        seen.setdefault(id(m), set()).add((len(walk), proportional(D1, D2)))
    assert len(seen) == 3
    for kinds in seen.values():
        assert {1, 2, 3} <= {n for n, _ in kinds}
        assert {p for _, p in kinds} == {True, False}


def test_walk_extends_a_record_over_steps_with_one_active_set(monkeypatch):
    """A step that ends where the active set does not change extends its
    region's record.  With spurious roots at slopes 2 and 5, inside the
    second and third regions of ``(Sbar, F)``, reported for constraints
    that are positive and rising there, each of those regions takes two
    steps; the records keep their slopes, lines and active sets, and
    their envelopes are the ones at the first step's sample."""
    m = builtin_model()
    S, F = m.prime_divisor("Sbar"), m.prime_divisor("F")
    plain = _walk(m, S, F)
    cuts = (q3(2), q3(5))
    real = divfilt.envelope.quadratic_roots

    def with_cuts(alpha, beta, chi):
        roots = real(alpha, beta, chi)
        if roots is None:
            return None
        value = [alpha * s * s + beta * s + chi for s in cuts]
        slope = [alpha * s * 2 + beta for s in cuts]
        rising = [s for s, v, d in zip(cuts, value, slope) if v.sign() > 0 < d.sign()]
        return sorted(roots + rising)

    monkeypatch.setattr(divfilt.envelope, "quadratic_roots", with_cuts)
    split = _walk(m, m.prime_divisor("Sbar"), m.prime_divisor("F"))
    assert [(r.lo, r.hi, r.line, r.envelope.active) for r in split] == [
        (r.lo, r.hi, r.line, r.envelope.active) for r in plain
    ]
    assert [r.envelope.input for r in split] == [
        S + F * s for s in (q3(Fraction(1, 2)), q3(Fraction(3, 2)), q3(4) - ROOT3 / 6)
    ]


def test_walk_keeps_a_filled_envelope_of_D2(model):
    """An envelope of ``D2`` already in the cache is kept as it is."""
    D1, D2 = model.divisor([1, 2]), model.divisor([0, 1])
    env = _sigma(model, D2)
    _walk(model, D1, D2)
    assert vars(D2)["envelope"] is env


def test_walk_evaluates_no_constraint_at_a_filled_sigma_of_D1(monkeypatch):
    """With ``_sigma`` of ``D1`` and ``D2`` already filled, the walk reads
    its first anchor's active set off ``sigma(D1)``'s certified envelope and
    evaluates no constraint's ``value`` at ``sigma(D1)`` outside ``along``,
    on seeded pairs of three models whose first region's direction is
    nonzero (so no later sample of the walk lies at ``sigma(D1)``); the
    records are those of a walk from empty caches."""
    at_start = Counter()
    start = [()]
    for cls in (LinearConstraint, QuadraticConstraint):
        real = cls.value

        def counted(c, point, _real=real):
            if sys._getframe(1).f_code.co_name != "along":
                at_start[c.ident] += tuple(point) == start[0]
            return _real(c, point)

        monkeypatch.setattr(cls, "value", counted)
    walked = Counter()
    for m, D1, D2 in three_model_pairs(11, 12):
        start[0] = ()
        plain = _walk(m, m.divisor(D1.coeffs), m.divisor(D2.coeffs))
        if not any(plain[0].line[1].coeffs):
            continue
        _sigma(m, D2)
        start[0] = _sigma(m, D1).gamma
        at_start.clear()
        assert _walk(m, D1, D2) == plain, (D1, D2)
        assert sum(at_start.values()) == 0, (D1, D2, at_start)
        walked[id(m)] += 1
    assert len(walked) == 3 and min(walked.values()) >= 4, walked


def test_walk_restricts_no_linear_subset_row_to_its_line(monkeypatch):
    """A bound or linear nef row of a line's subset vanishes on that line by
    construction, so the walk calls its ``along`` for no such row; it does
    for the subset's quadratic rows and for every other row it restricts.
    The calls are caught by a profile hook on the walk's nested ``along``,
    and each line is matched to the subset that fixed it, on seeded family
    and ``gamma`` walks of the builtin, basis-changed and union models."""
    fixed = {}
    real = divfilt.envelope._line_through

    def recording(m, family, subset, g, lo):
        line = real(m, family, subset, g, lo)
        if line is not None:  # kept alive, so its id is not reused
            fixed[id(line)] = line, family, subset
        return line

    monkeypatch.setattr(divfilt.envelope, "_line_through", recording)
    along = next(c for c in _walk.__code__.co_consts if getattr(c, "co_name", "") == "along")
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is along:
            k = frame.f_locals["k"]
            _, family, subset = fixed[id(frame.f_locals["line"])]
            kind = "linear" if isinstance(family[k], LinearConstraint) else "quadratic"
            calls[kind, k in subset] += 1

    sys.setprofile(profile)
    try:
        for m, D1, D2 in three_model_pairs(13, 8):
            _walk(m, m.divisor(D1.coeffs), D2)
            gamma(m, m.divisor(D2.coeffs))
    finally:
        sys.setprofile(None)
    linear_in_subsets = sum(
        isinstance(family[k], LinearConstraint)
        for _, family, subset in fixed.values()
        for k in subset
    )
    assert calls["linear", True] == 0 and linear_in_subsets > 100, (calls, linear_in_subsets)
    others = calls["quadratic", True], calls["linear", False], calls["quadratic", False]
    assert min(others) > 0, calls


def test_certified_reads_no_nef_row_at_a_point_below_a_bound(monkeypatch):
    """``_certified`` reads the bounds first: a point below one of them is
    refused with no nef row evaluated, and a point at or above them all
    evaluates each nef row once, on the builtin and union models."""
    evaluated = []
    for cls in (LinearConstraint, QuadraticConstraint):

        def counted(c, point, _real=cls.value):
            evaluated.append(c.ident)
            return _real(c, point)

        monkeypatch.setattr(cls, "value", counted)
    for m in (builtin_model(), load_model(UNION_MODEL)):
        nef = [c.ident for c in m.nef_systems]
        D = m.divisor([2, 1] * (len(m.primes) // 2))
        sigma = _sigma(m, D).gamma
        for i in range(len(m.primes)):
            below = tuple(
                a - 1 if k == i else x + 5 for k, (x, a) in enumerate(zip(sigma, D.coeffs))
            )
            evaluated.clear()
            assert _certified(m, D, below) is None
            assert evaluated == [], (i, evaluated)
        evaluated.clear()
        assert _certified(m, D, sigma) == _sigma(m, D)
        assert evaluated == nef


def counting_field_operations(monkeypatch):
    """Count ``QuadNumber`` multiplications (``__mul__`` and its alias
    ``__rmul__``) and inverses from outside the class; returns the counter.
    A product of two field elements counts as ``field``, a scaling by an
    ``int`` or ``Fraction`` as ``scale``."""
    counts = Counter()
    real_mul, real_inverse = vars(QuadNumber)["__mul__"], vars(QuadNumber)["inverse"]

    def multiplied(self, other):
        counts["field" if isinstance(other, QuadNumber) else "scale"] += 1
        return real_mul(self, other)

    def inverted(self):
        counts["inverse"] += 1
        return real_inverse(self)

    for alias in ("__mul__", "__rmul__"):
        monkeypatch.setattr(QuadNumber, alias, multiplied)
    monkeypatch.setattr(QuadNumber, "inverse", inverted)
    return counts


@pytest.mark.parametrize(
    "function, divisors, multiplications, scalings, inverses",
    [
        (gamma, ([2, 1],), 30, 0, 0),
        (gamma, ([1, 3],), 100, 18, 8),
        (gamma, ([3, 7],), 31, 0, 0),
        (piecewise_limit, ([1, 0], [0, 1]), 113, 34, 14),
        (piecewise_limit, ([1, 2], [2, 7]), 197, 48, 13),
        (limit_single, ([1, 3],), 104, 31, 8),
    ],
    ids=[
        "gamma-divisors0",
        "gamma-divisors1",
        "gamma-divisors2",
        "piecewise_limit-divisors3",
        "piecewise_limit-divisors4",
        "limit_single-divisors5",
    ],
)
def test_field_operation_counts(
    monkeypatch, function, divisors, multiplications, scalings, inverses
):
    """The field operations of ``gamma``, ``piecewise_limit`` and
    ``limit_single`` on a fresh builtin model (its ``nef_systems`` built
    inside the count), pinned: products of two field elements, scalings by
    a rational, and inverses.
    ``dot``, and ``_row_reduce`` through ``times``, multiply by no exact 0
    or 1 (the identity half of ``_inverse`` included), and ``field_sqrt``
    does not square its root.  ``gamma``'s
    walk reads its target's point on a line ``(P, Q)`` as ``P + Q``, not
    ``P + Q*1``; a walk's first step, at slope 0, multiplies nothing by it;
    a line of linear rows is the model's inverse of those rows times the
    right-hand side, not an elimination; and a line's rows are eliminated
    in family order.  An int or Fraction divisor scales both parts, with
    no multiplication and no inverse.  A family walk reads its first
    anchor's active set off ``sigma(D1)``'s certified envelope, and checks
    neither that an active quadratic's gradient keeps its direction along
    a step nor that a line's subset vanishes all along it, which the Hodge
    index theorem guarantees.  ``limit_single`` adds ``gamma``'s work and
    one cube.  Each region's mixed values and the cube read the model's
    polar table, whose rational coefficients only scale.  A change that
    lowers a count re-pins it; the case ids leave the counts out, so a
    re-pin keeps each case's name."""
    m = model_from_dict(builtin_document())
    args = [m.divisor(coeffs) for coeffs in divisors]
    counts = counting_field_operations(monkeypatch)
    function(m, *args)
    assert (counts["field"], counts["scale"], counts["inverse"]) == (
        multiplications,
        scalings,
        inverses,
    )


def test_second_gamma_reuses_the_models_linear_inverses(monkeypatch):
    """Each model keeps the inverse of every set of linear rows it has
    met: on a fresh builtin model, ``gamma(2, 1)`` (active set
    ``coeff[Sbar]``, ``nef[F]:0``, all linear) runs ``_inverse``, and a
    second ``gamma`` on an equal divisor runs none and gives the same
    envelope.  The table holds only inverses of linear rows, keyed by
    idents in the order of ``[*bounds, *nef_systems]``, at most one per
    ``t``-subset of them, and another fresh model starts without one."""
    m = model_from_dict(builtin_document())
    calls = []
    real = divfilt.envelope._inverse

    def counted(matrix, d):
        calls.append(matrix)
        return real(matrix, d)

    monkeypatch.setattr(divfilt.envelope, "_inverse", counted)
    first = gamma(m, m.divisor([2, 1]))
    assert first.active == {"coeff[Sbar]", "nef[F]:0"} and calls
    calls.clear()
    assert gamma(m, m.divisor([2, 1])) == first
    assert calls == []
    t = len(m.primes)
    rows = [*_bounds(m, m.zero_divisor()), *m.nef_systems]
    linear = {c.ident: c for c in rows if isinstance(c, LinearConstraint)}
    order = [c.ident for c in rows]
    table = vars(m)["linear_inverses"]
    assert 0 < len(table) <= len(list(combinations(linear, t)))
    for key, inverse in table.items():
        assert list(key) == sorted(key, key=order.index) and len(key) == t
        matrix = [linear[ident].coeffs for ident in key]
        assert inverse == real(matrix, m.field_d)
        if inverse is not None:
            product = [[dot(row, col) for col in zip(*matrix)] for row in inverse]
            assert product == [[int(i == k) for k in range(t)] for i in range(t)]
    assert "linear_inverses" not in vars(model_from_dict(builtin_document()))


def test_walk_without_lines_is_refused(monkeypatch, capsys):
    """When ``_line_through`` finds no line, ``gamma`` raises
    ``ComputationError`` naming the divisor, ``regions`` and
    ``piecewise_limit`` from a known ``_sigma(m, D1)`` raise it naming slope
    0, and ``divfilt piecewise``, whose ``gamma`` for ``D1`` is refused
    first, exits 3 without a traceback."""
    rng = random.Random(47)
    pairs = []
    for m in (builtin_model(), model_from_dict(basis_changed_document())):
        for _ in range(5):
            D1, D2 = seeded_pair(m, rng)
            _sigma(m, D1)
            pairs.append((m, D1, D2))
    monkeypatch.setattr(divfilt.envelope, "_line_through", lambda *args: None)
    for m, D1, D2 in pairs:
        with pytest.raises(ComputationError, match=re.escape(f"from sum E_i to {D2};")):
            gamma(m, D2)
        for compute in (regions, piecewise_limit):
            with pytest.raises(ComputationError, match="above slope 0;"):
                compute(m, D1, D2)
    assert cli.main(["piecewise", "-D1", "1,0", "-D2", "0,1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "no certified envelope line from sum E_i to (1, 0);" in captured.err


# certifications of a step's line on test_walk_skips_lines_that_fall_at_once's
# pairs by a walk that certified every line it found; 23 of them were refused
UNSKIPPED_ON_LINE_CALLS = 97


def test_walk_skips_lines_that_fall_at_once(monkeypatch):
    """Lines on which a constraint active at the anchor turns negative at
    once are skipped before certification, so ``_certified`` runs less
    often, and the breakpoints still equal the oracle's, on seeded pairs of
    the builtin model and of a basis-changed copy.  ``_sigma`` fills the
    caches of ``D1`` and ``D2`` before counting, so the count is the region
    walk's step certifications alone."""
    rng = random.Random(11)
    cases = []
    for m in (builtin_model(), model_from_dict(basis_changed_document())):
        for _ in range(20):
            D1, D2 = seeded_pair(m, rng)
            _sigma(m, D1), _sigma(m, D2)
            cases.append((m, D1, D2, sampled_regions_oracle(m, D1, D2)[0]))
    results = []
    real = divfilt.envelope._certified

    def counted(*args):
        results.append(real(*args))
        return results[-1]

    monkeypatch.setattr(divfilt.envelope, "_certified", counted)
    for m, D1, D2, expected in cases:
        assert [region.lo for region in _walk(m, D1, D2)[1:]] == expected, (D1, D2)
    assert len(results) < UNSKIPPED_ON_LINE_CALLS
    assert None not in results


def positive_multiple(u, v):
    """Whether ``v`` is a positive multiple of ``u``, or both are zero."""
    if not any(u):
        return not any(v)
    pairs = combinations(range(len(u)), 2)
    parallel = all((u[i] * v[j] - u[j] * v[i]).sign() == 0 for i, j in pairs)
    return parallel and dot(u, v).sign() > 0


def family_and_gamma_walks(m, D1, D2):
    """The walk along ``D1 + r*D2`` and ``gamma``'s walks to ``D1`` and to
    ``D2`` without their last region, which is certified at ``r = 1``."""
    A = m.divisor([1] * len(m.primes))
    return [_walk(m, D1, D2)] + [_walk(m, A, D - A, target=D)[:-1] for D in (D1, D2)]


def test_active_quadratic_gradients_keep_their_direction_on_a_region():
    """On every region of family and ``gamma`` walks of seeded pairs on the
    builtin model, a basis-changed copy and the two-copy union, the
    gradient of each quadratic nef row active at the region's sample is,
    at interior points of the region's line, a positive multiple of its
    value at the sample, or zero at all of them.  So the sample's
    certificate, rescaled, covers the region (the Hodge index theorem;
    see ``_walk``)."""
    checked = Counter()
    for m, D1, D2 in three_model_pairs(23, 10):
        quadratic = [c for c in m.nef_systems if isinstance(c, QuadraticConstraint)]
        for walk in family_and_gamma_walks(m, D1, D2):
            for region in walk:
                P, Q = region.line
                width = 4 if region.hi is None else region.hi - region.lo
                interior = [region.lo + width * Fraction(j, 4) for j in (1, 2, 3)]
                for c in quadratic:
                    if c.ident not in region.envelope.active:
                        continue
                    at_sample = c.gradient(region.envelope.gamma)
                    for r in interior:
                        gradient = c.gradient((P + Q * r).coeffs)
                        assert positive_multiple(at_sample, gradient), (D1, D2, c.ident, r)
                    checked[id(m)] += any(at_sample)
    assert len(checked) == 3 and min(checked.values()) >= 3, checked


def test_each_line_the_walk_tries_keeps_its_subset_or_falls_at_once(monkeypatch):
    """On every line ``P + r*Q`` that the walks of seeded pairs on three
    models try, each row of the line's subset vanishes all along it, or
    reads ``alpha (r - lo)^2`` with ``alpha < 0`` and so falls at once
    above ``lo``: bound and linear rows by construction, a quadratic row
    because the orthogonal complement of an isotropic vector is negative
    semidefinite (the Hodge index theorem; see ``_walk``).  The walks are
    ``regions`` and ``gamma`` of ``D2``; those ``regions`` runs through
    ``gamma`` are recorded with their own ``D1`` and ``D2``."""
    tried, walking = [], []
    real_walk, real_line = divfilt.envelope._walk, divfilt.envelope._line_through

    def walk(model, D1, D2, target=None):
        walking.append((D1, D2))
        try:
            return real_walk(model, D1, D2, target)
        finally:
            walking.pop()

    def line_through(model, family, subset, g, lo):
        line = real_line(model, family, subset, g, lo)
        tried.append((model, *walking[-1], subset, lo, line))
        return line

    monkeypatch.setattr(divfilt.envelope, "_walk", walk)
    monkeypatch.setattr(divfilt.envelope, "_line_through", line_through)
    for m, D1, D2 in three_model_pairs(29, 10):
        regions(m, D1, D2)
        gamma(m, D2)
    quadratic_rows = 0
    for m, D1, D2, subset, lo, line in tried:
        if line is None:
            continue
        t = len(m.primes)
        P, Q = line[0].coeffs, line[1].coeffs
        for k in subset:
            if k < t:
                q = (q3(0), Q[k] - D2.coeffs[k], P[k] - D1.coeffs[k])
            else:
                q = m.nef_systems[k - t].along(P, Q)
                quadratic_rows += isinstance(m.nef_systems[k - t], QuadraticConstraint)
            alpha = q[0]
            vanishes = all(x.sign() == 0 for x in q)
            falls = alpha.sign() < 0 and q[1] == -2 * alpha * lo and q[2] == alpha * lo * lo
            assert vanishes or falls, (D1, D2, subset, lo, q)
    assert len(tried) >= 200 and quadratic_rows >= 40, (len(tried), quadratic_rows)


# -- orthogonality of the envelope ---------------------------------------------------


def test_envelope_is_orthogonal_to_its_raised_primes():
    """``(sigma^2 . E_i) = 0`` at every raised coordinate ``i`` of seeded
    envelopes on the builtin model, a basis-changed copy and the two-copy
    union: the local form of the orthogonality of Boucksom-Favre-Jonsson,
    which checks ``triple`` and the envelope against each other whatever
    path the walk took."""
    rng = random.Random(81)
    models = (builtin_model(), model_from_dict(basis_changed_document()), load_model(UNION_MODEL))
    for m in models:
        raised = 0
        for _ in range(30):
            D = m.divisor([seeded_coefficient(rng) for _ in m.primes])
            if D.is_zero():
                continue
            env = gamma(m, D)
            sigma = env.envelope_divisor
            for i in env.raised_indices:
                E = m.prime_divisor(m.primes[i])
                assert m.triple(sigma, sigma, E) == 0, (D, m.primes[i])
                raised += 1
        assert raised >= 10, m.primes


# -- models beyond the builtin one --------------------------------------------------


def primed(ident):
    """The ident of the second copy's constraint: ``coeff[F]`` -> ``coeff[F']``."""
    return re.sub(r"\[(\w+)\]", r"[\1']", ident)


@pytest.mark.parametrize("coeffs", [(2, 1, 2, 1), (2, 3, 1, 3), (1, 0, 0, 1), (1, 3, 2, 1)])
def test_union_envelope_is_the_two_envelopes_side_by_side(model, union, coeffs):
    """``gamma`` on the union is the two builtin envelopes side by side,
    with the same active constraints and certificates, the second copy's
    primed, and equals the plain algorithm on the union."""
    D = union.divisor(coeffs)
    env = gamma(union, D)
    first = gamma(model, model.divisor(coeffs[:2]))
    second = gamma(model, model.divisor(coeffs[2:]))
    assert env.gamma == first.gamma + second.gamma, coeffs
    assert env.active == first.active | {primed(c) for c in second.active}, coeffs
    renamed = tuple(
        tuple((primed(ident), lam) for ident, lam in multipliers)
        for multipliers in second.certificate
    )
    assert env.certificate == first.certificate + renamed, coeffs
    assert (env.gamma, env.active, env.region) == reference_gamma(union, D), coeffs


def test_union_envelopes_of_seeded_divisors(union):
    """``gamma`` on the union equals the plain algorithm run on the whole
    model, and its certificate holds, also where one copy's part is zero."""
    rng = random.Random(60)
    for _ in range(20):
        coeffs = [seeded_coefficient(rng) for _ in union.primes]
        if rng.random() < 0.25:
            k = rng.choice((0, 2))
            coeffs[k : k + 2] = [q3(0), q3(0)]
        D = union.divisor(coeffs)
        if D.is_zero():
            continue
        env = gamma(union, D)
        assert (env.gamma, env.active, env.region) == reference_gamma(union, D), coeffs
        assert_certificate_holds(union, env)


def test_union_regions_are_both_copies_breakpoints(model, union):
    """A family on the union changes its active set wherever either copy's
    family does."""
    rng = random.Random(61)
    for _ in range(4):
        (A1, A2), (B1, B2) = seeded_pair(model, rng), seeded_pair(model, rng)
        D1 = union.divisor(A1.coeffs + B1.coeffs)
        D2 = union.divisor(A2.coeffs + B2.coeffs)
        expected = sorted(set(regions(model, A1, A2)) | set(regions(model, B1, B2)))
        assert regions(union, D1, D2) == expected


def test_union_walk_lines_match_the_plain_algorithm(model, union):
    """The union's walk against the plain algorithm on the whole union,
    not only its halves: at each record's midpoint (``lo + 1`` for the
    last), the record's line ``P + r*Q`` is ``reference_gamma(D1 +
    r*D2)``, with the record's active set.  ``sampled_regions_oracle``
    cannot take the union, but a fixed divisor splits into blocks."""
    rng = random.Random(62)
    counts = set()
    for _ in range(6):
        (A1, A2), (B1, B2) = seeded_pair(model, rng), seeded_pair(model, rng)
        D1 = union.divisor(A1.coeffs + B1.coeffs)
        D2 = union.divisor(A2.coeffs + B2.coeffs)
        walk = _walk(union, D1, D2)
        for region in walk:
            s = region.lo + 1 if region.hi is None else (region.lo + region.hi) / 2
            P, Q = region.line
            expected = reference_gamma(union, D1 + D2 * s)
            assert expected is not None, (D1, D2, s)
            assert (P + Q * s).coeffs == expected[0], (D1, D2, s)
            assert region.envelope.active == expected[1], (D1, D2, s)
        counts.add(len(walk))
    assert counts == {1, 2, 3, 4}, counts


def test_model_where_sum_of_primes_is_not_antinef_is_refused():
    """One prime whose self-restriction is the ample class: the model
    loads, but ``-sum E_i`` is not nef, so ``gamma`` has no anchor; the
    model keeps its anchor record, and a second ``gamma`` is refused
    alike."""
    m = load_model(AMPLE_SELF_RESTRICTION)
    for _ in range(2):
        with pytest.raises(ComputationError, match=r"-sum E_i is not nef .* nef\[E\]:0"):
            gamma(m, m.divisor([1]))
    assert "anchor" in vars(m)


def test_second_gamma_evaluates_no_nef_row_at_the_anchor(monkeypatch):
    """On a fresh builtin model the first ``gamma`` evaluates every nef row
    at ``A = sum E_i`` once and keeps the anchor record in
    ``vars(model)``; a second ``gamma`` on another divisor, whose envelope
    is not ``A``, evaluates none there.  (A linear row's ``along`` reads
    its value at the line's base, which is ``A`` on a first step; those
    calls restrict the row to a line and are not counted.)  The record
    holds field elements and the idents of the constraints active at
    ``A``'s certified envelope only, so nothing in it points back at the
    model."""
    m = model_from_dict(builtin_document())
    A = (QuadNumber.one(m.field_d),) * len(m.primes)
    at_A = Counter()
    for cls in (LinearConstraint, QuadraticConstraint):
        real = cls.value

        def counted(c, point, _real=real):
            if sys._getframe(1).f_code.co_name != "along":
                at_A[c.ident] += tuple(point) == A
            return _real(c, point)

        monkeypatch.setattr(cls, "value", counted)
    assert gamma(m, m.divisor([1, 3])).gamma != A
    assert all(at_A[c.ident] == 1 for c in m.nef_systems)
    at_A.clear()
    assert gamma(m, m.divisor([2, 1])).gamma != A
    assert sum(at_A.values()) == 0
    point, active = vars(m)["anchor"]
    assert point == A and all(isinstance(x, QuadNumber) for x in point)
    assert active == _certified(m, m.divisor(A), A).active
    assert isinstance(active, frozenset) and all(isinstance(k, str) for k in active)


def test_root_outside_the_field_names_its_constraint_and_slope():
    """The builtin model's data over Q(sqrt(2)) loads, but its envelopes
    need sqrt(3): the walk's refusal keeps the ``root outside field:``
    prefix and names the constraint and the slope where the root lies."""
    doc = builtin_document()
    doc["field"]["d"] = 2
    m = model_from_dict(doc)
    with pytest.raises(RootOutsideFieldError) as refusal:
        gamma(m, m.divisor([1, 3]))
    assert str(refusal.value) == (
        "root outside field: sqrt(15552) is not in Q(sqrt(2)), where "
        "nef[Sbar]:quad meets the envelope line above slope 0"
    )
    with pytest.raises(RootOutsideFieldError) as refusal:
        regions(m, m.divisor([1, 0]), m.divisor([0, 1]))
    assert str(refusal.value) == (
        "root outside field: sqrt(3888) is not in Q(sqrt(2)), where "
        "nef[Sbar]:quad meets the envelope line above slope 1"
    )
