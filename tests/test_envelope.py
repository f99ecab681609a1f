"""Minimal nef envelopes: closed-form agreement, minimality, regions."""

import random
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from test_model import basis_changed_document

import divfilt.envelope
from divfilt import cli
from divfilt.envelope import (
    _bounds,
    _certificate,
    _certified,
    _gradient_keeps_direction,
    _region_label,
    _walk,
    gamma,
    is_antinef,
    regions,
)
from divfilt.errors import ComputationError, InputError, NoMinimalEnvelopeError
from divfilt.model import builtin_document, builtin_model, load_model, model_from_dict
from divfilt.multiplicity import piecewise_limit
from divfilt.qfield import QuadNumber, quadratic_roots
from divfilt.surfaces import LinearConstraint, QuadraticConstraint, _solve_linear_rows


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
    solved = _solve_linear_rows([(c.coeffs, -c.const) for c in linears], nvars, d)
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
    couples two blocks.  Returns ``(gamma, active, region)``."""
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
        (least,) = [p for p in feasible if all(below(p, q) for q in feasible)]
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
    found = _certificate(active, point)
    assert found[0] is None and found[1] == (("coeff[F]", q3(1)),)
    with pytest.raises(NoMinimalEnvelopeError, match="coordinate Sbar is minimal"):
        _certified(model, D, constraints, point)
    assert gamma(model, D).gamma == (q3(1), q3(2))


def test_feasible_points_without_a_least_one_are_refused(model):
    """(1, 2) and (3/2, 3/2) are both feasible for D = (1, 1) and neither is
    below the other, so neither is certified, and the error names the
    first coordinate without a certificate."""
    D = model.divisor([1, 1])
    constraints = _bounds(model, D) + list(model.nef_systems)
    for point in ((q3(1), q3(2)), (q3(Fraction(3, 2)), q3(Fraction(3, 2)))):
        assert all(c.value(point).sign() >= 0 for c in constraints)
        with pytest.raises(
            NoMinimalEnvelopeError, match="no certificate that coordinate Sbar is"
        ):
            _certified(model, D, constraints, point)


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
    """The walk's breakpoints are the oracle's, and at every oracle sample
    its region's line gives ``gamma``'s envelope, on seeded pairs of the
    builtin model and of a basis-changed copy."""
    rng = random.Random(43)
    for m in (builtin_model(), model_from_dict(basis_changed_document())):
        counts, kinds = set(), set()
        for _ in range(40):
            D1, D2 = seeded_pair(m, rng)
            breakpoints, lines = _walk(m, D1, D2)
            expected, sampled = sampled_regions_oracle(m, D1, D2)
            assert breakpoints == expected, (D1, D2)
            assert len(lines) == len(breakpoints) + 1
            for s, env in sampled:
                P, Q = lines[sum(s > b for b in breakpoints)]
                assert (P + Q * s).coeffs == env.gamma, (D1, D2, s)
            counts.add(len(breakpoints) + 1)
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
    is ``D1.envelope``, and none once that cache is filled, on seeded pairs
    of both models with 1, 2 and 3 regions and proportional pairs."""
    rng = random.Random(5)
    calls = counting_gamma(monkeypatch)
    for m in (builtin_model(), model_from_dict(basis_changed_document())):
        counts, kinds = set(), set()
        for _ in range(30):
            D1, D2 = seeded_pair(m, rng)
            calls.clear()
            breakpoints = _walk(m, D1, D2)[0]
            assert calls == [D1] and "envelope" in vars(D1), (D1, D2)
            calls.clear()
            assert _walk(m, D1, D2)[0] == breakpoints
            assert calls == [], (D1, D2)
            counts.add(len(breakpoints) + 1)
            kinds.add(proportional(D1, D2))
        assert counts == {1, 2, 3} and kinds == {True, False}


def three_model_pairs(seed, count):
    """``count`` fresh seeded pairs ``(m, D1, D2)`` on each of the builtin
    model, a basis-changed copy and the two-copy union, in that order."""
    rng = random.Random(seed)
    models = (builtin_model(), model_from_dict(basis_changed_document()), load_model(UNION_MODEL))
    return [(m, *seeded_pair(m, rng)) for m in models for _ in range(count)]


def test_walk_fills_sigma_of_D2_from_the_last_region():
    """The walk stores its last region's direction as ``D2.envelope``, on an
    equal copy of ``D2``; it equals ``reference_gamma`` and a fresh
    ``gamma(D2)`` in ``gamma``, ``active`` and ``certificate``, on seeded
    pairs of three models with 1, 2 and 3 regions and proportional pairs."""
    seen = {}
    for m, D1, D2 in three_model_pairs(70, 12):
        breakpoints, lines = _walk(m, D1, D2)
        filled = vars(D2)["envelope"]
        assert filled.gamma == lines[-1][1].coeffs, (D1, D2)
        assert filled.input == D2 and filled.input is not D2
        assert filled == gamma(m, m.divisor(D2.coeffs)), (D1, D2)
        assert (filled.gamma, filled.active) == reference_gamma(m, D2)[:2], (D1, D2)
        seen.setdefault(id(m), set()).add((len(breakpoints) + 1, proportional(D1, D2)))
    assert len(seen) == 3
    for kinds in seen.values():
        assert {1, 2, 3} <= {n for n, _ in kinds}
        assert {p for _, p in kinds} == {True, False}


def test_walk_keeps_a_filled_envelope_of_D2(model):
    """A ``D2.envelope`` already in the cache is kept as it is."""
    D1, D2 = model.divisor([1, 2]), model.divisor([0, 1])
    env = D2.envelope
    _walk(model, D1, D2)
    assert vars(D2)["envelope"] is env


def counting_field_operations(monkeypatch):
    """Count ``QuadNumber`` multiplications (``__mul__`` and its alias
    ``__rmul__``) and inverses from outside the class; returns the counter."""
    counts = Counter()
    for name, aliases in (("__mul__", ("__mul__", "__rmul__")), ("inverse", ("inverse",))):
        real = vars(QuadNumber)[name]

        def counted(*args, _name=name, _real=real):
            counts[_name] += 1
            return _real(*args)

        for alias in aliases:
            monkeypatch.setattr(QuadNumber, alias, counted)
    return counts


@pytest.mark.parametrize(
    "function, divisors, multiplications, inverses",
    [
        (gamma, ([2, 1],), 52, 0),
        (gamma, ([1, 3],), 140, 10),
        (gamma, ([3, 7],), 41, 0),
        (piecewise_limit, ([1, 0], [0, 1]), 204, 29),
        (piecewise_limit, ([1, 2], [2, 7]), 302, 23),
    ],
)
def test_field_operation_counts(monkeypatch, function, divisors, multiplications, inverses):
    """The field operations of ``gamma`` and ``piecewise_limit`` on a fresh
    builtin model (its ``nef_systems`` built inside the count), pinned.
    ``dot`` and ``_row_reduce`` multiply by no exact 0 or 1; without those
    skips the five rows took 152/6, 310/16, 127/4, 626/46 and 481/34
    multiplications/inverses.  A change that lowers a count re-pins it."""
    m = model_from_dict(builtin_document())
    args = [m.divisor(coeffs) for coeffs in divisors]
    counts = counting_field_operations(monkeypatch)
    function(m, *args)
    assert (counts["__mul__"], counts["inverse"]) == (multiplications, inverses)


def test_walk_without_lines_is_refused(monkeypatch, capsys):
    """When ``_line_through`` finds no line, ``gamma`` raises
    ``ComputationError`` naming the divisor, ``regions`` and
    ``piecewise_limit`` from a known ``D1.envelope`` raise it naming slope
    0, and ``divfilt piecewise``, whose ``gamma`` for ``D1`` is refused
    first, exits 3 without a traceback."""
    rng = random.Random(47)
    pairs = []
    for m in (builtin_model(), model_from_dict(basis_changed_document())):
        for _ in range(5):
            D1, D2 = seeded_pair(m, rng)
            D1.envelope
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


# ``_on_line`` calls on test_walk_skips_lines_that_fall_at_once's pairs by
# a walk that certified every line it found; 23 of them were refused
UNSKIPPED_ON_LINE_CALLS = 97


def test_walk_skips_lines_that_fall_at_once(monkeypatch):
    """Lines on which a constraint active at the anchor turns negative at
    once are skipped before certification, so ``_on_line`` runs less often,
    and the breakpoints still equal the oracle's, on seeded pairs of the
    builtin model and of a basis-changed copy.  ``D1.envelope`` is filled
    before counting, so the count is the region walk's alone."""
    rng = random.Random(11)
    cases = []
    for m in (builtin_model(), model_from_dict(basis_changed_document())):
        for _ in range(20):
            D1, D2 = seeded_pair(m, rng)
            D1.envelope
            cases.append((m, D1, D2, sampled_regions_oracle(m, D1, D2)[0]))
    results = []
    real = divfilt.envelope._on_line

    def counted(*args):
        results.append(real(*args))
        return results[-1]

    monkeypatch.setattr(divfilt.envelope, "_on_line", counted)
    for m, D1, D2, expected in cases:
        assert _walk(m, D1, D2)[0] == expected, (D1, D2)
    assert len(results) < UNSKIPPED_ON_LINE_CALLS
    assert None not in results


def test_gradient_keeps_direction(model):
    """``Mu`` and ``Mv`` must be parallel and ``M(u + r*v)`` keep its sign
    on ``[lo, hi]``, for ``M = diag(1, -1)``."""
    c = QuadraticConstraint("quad", ((q3(1), q3(0)), (q3(0), q3(-1))))

    def keeps(u, v, lo, hi):
        line = (model.divisor(u), model.divisor(v))
        return _gradient_keeps_direction(c, line, q3(lo), None if hi is None else q3(hi))

    assert keeps([1, 0], [-1, 0], 0, Fraction(1, 2))
    assert not keeps([1, 0], [-1, 0], 0, 2)  # the factor 1 - r turns at 1
    assert not keeps([1, 0], [-1, 0], 0, 1)  # and vanishes at 1
    assert not keeps([1, 0], [-1, 0], 0, None)
    assert keeps([2, 1], [4, 2], 0, None)
    assert not keeps([1, 0], [0, 1], 0, 1)  # not parallel
    assert keeps([0, 0], [0, 0], 0, None)  # a gradient that is zero all along


def test_walk_refuses_a_step_whose_active_gradient_turns(monkeypatch, capsys):
    """With ``_on_line`` patched to report ``nef[Sbar]:quad`` active, the
    step above slope 1 of ``(1,0) + r*(0,1)``, on which that quadratic's
    gradient turns, is refused: ``regions`` raises ``ComputationError`` and
    ``divfilt piecewise`` exits 3 without a traceback."""
    real = divfilt.envelope._on_line

    def claims_quad(*args):
        env = real(*args)
        return env and env._replace(active=env.active | {"nef[Sbar]:quad"})

    monkeypatch.setattr(divfilt.envelope, "_on_line", claims_quad)
    m = builtin_model()
    with pytest.raises(ComputationError, match=r"nef\[Sbar\]:quad turns .* above slope 1;"):
        regions(m, m.divisor([1, 0]), m.divisor([0, 1]))
    assert cli.main(["piecewise", "-D1", "1,0", "-D2", "0,1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("computation error: the gradient of nef[Sbar]:quad")


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


def test_model_where_sum_of_primes_is_not_antinef_is_refused():
    """One prime whose self-restriction is the ample class: the model
    loads, but ``-sum E_i`` is not nef, so ``gamma`` has no anchor."""
    m = load_model(AMPLE_SELF_RESTRICTION)
    with pytest.raises(ComputationError, match=r"-sum E_i is not nef .* nef\[E\]:0"):
        gamma(m, m.divisor([1]))
