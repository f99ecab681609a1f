"""Minimal nef envelopes: closed-form agreement, minimality, regions."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from test_model import basis_changed_document

import divfilt.envelope
from divfilt.envelope import (
    _bounds,
    _certificate,
    _certified,
    _region_line,
    _sampled_regions,
    _region_label,
    gamma,
    is_antinef,
    regions,
)
from divfilt.errors import InputError, NoMinimalEnvelopeError
from divfilt.model import builtin_document, builtin_model, model_from_dict
from divfilt.qfield import QuadNumber
from divfilt.surfaces import (
    ConstraintSystem,
    LinearConstraint,
    _solve_equality_system,
)


@pytest.fixture(scope="module")
def model():
    return builtin_model()


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
    assert [c.ident for c in model.nef_systems[0].constraints] == [
        "nef[Sbar]:quad",
        "nef[Sbar]:ample",
        "nef[F]:0",
        "nef[F]:1",
    ]


def test_nef_constraints_are_surface_constraints_on_restrictions(model):
    """Each nef constraint at ``g`` is its surface constraint at ``r_E(-D)``."""
    rng = random.Random(3)
    constraints = {c.ident: c for c in model.nef_systems[0].constraints}
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


# -- the cached enumeration against the plain algorithm -------------------------


def reference_gamma(model, D):
    """The plain algorithm: fresh constraints, every ``t``-subset, every
    candidate tested for feasibility.  Returns ``(gamma, active, region)``."""
    t, d = len(model.primes), model.field_d
    zero, one = QuadNumber.zero(d), QuadNumber.one(d)
    bounds = [
        LinearConstraint(
            f"coeff[{prime}]",
            tuple(one if k == i else zero for k in range(t)),
            -D.coeffs[i],
        )
        for i, prime in enumerate(model.primes)
    ]
    nef = [
        c.pullback(f"nef[{prime}]:{c.ident}", [(-r).coords for r in row])
        for prime, surface, row in zip(model.primes, model.surfaces, model.restrictions)
        for c in surface.constraints("nef")
    ]
    constraints = bounds + nef
    candidates = dict.fromkeys(
        point
        for subset in combinations(constraints, t)
        for point in _solve_equality_system(subset, t, d)
    )
    feasible = [
        p for p in candidates if all(c.value(p).sign() >= 0 for c in constraints)
    ]

    def le(x, y):
        return all((a - b).sign() <= 0 for a, b in zip(x, y))

    (minimum,) = [p for p in feasible if all(le(p, q) for q in feasible)]
    active = frozenset(c.ident for c in constraints if c.value(minimum).sign() == 0)
    raised = tuple(
        i for i, (g, a) in enumerate(zip(minimum, D.coeffs)) if (g - a).sign() > 0
    )
    return minimum, active, _region_label(model, raised)


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
    """Cached nef vertices and skipped dominated candidates change nothing,
    on the builtin model and on a copy with every surface basis changed."""
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


# -- the subsets vertices_with skips ------------------------------------------------


def seeded_pair(m, rng):
    """Two nonzero effective divisors; one pair in eight is proportional."""
    while True:
        D1, D2 = (m.divisor([seeded_coefficient(rng) for _ in m.primes]) for _ in "12")
        if rng.randrange(8) == 0:
            D2 = D1 * rng.randint(1, 5)
        if not D1.is_zero() and not D2.is_zero():
            return D1, D2


def unpruned_vertices(system, bounds):
    """``(bound rows held, isolated solutions)`` for every ``nvars``-subset."""
    for subset in combinations([*bounds, *system.constraints], system.nvars):
        held = sum(c.ident.startswith("coeff[") for c in subset)
        yield held, _solve_equality_system(subset, system.nvars, system.field_d)


def test_nef_systems_are_homogeneous_without_slope_column(model):
    """The pruning in ``ConstraintSystem.vertices_with`` rests on this."""
    for m in (model, model_from_dict(basis_changed_document())):
        t = len(m.primes)
        for pad, system in enumerate(m.nef_systems):
            assert (system.nvars, system.pad) == (t + pad, pad)
            for c in system.constraints:
                if isinstance(c, LinearConstraint):
                    assert c.const == 0 and len(c.coeffs) == t + pad
                    assert all(x == 0 for x in c.coeffs[t:])
                else:
                    assert len(c.matrix) == t + pad
                    assert all(x == 0 for row in c.matrix[t:] for x in row)
                    assert all(x == 0 for row in c.matrix for x in row[t:])


def test_pruned_enumeration_matches_full_enumeration(model):
    """Every skipped subset isolates only points with ``g = 0`` (slope
    ``<= 0`` in the family system), so ``regions`` samples between the
    same positive candidate slopes as the enumeration of every subset."""
    changed = model_from_dict(basis_changed_document())
    rng = random.Random(23)
    for m in (model, changed):
        t = len(m.primes)
        for _ in range(40):
            D1, D2 = seeded_pair(m, rng)
            systems = zip(m.nef_systems, (_bounds(m, D1), _bounds(m, D1, D2)))
            for system, bounds in systems:
                kept, dropped = [], []
                for held, points in unpruned_vertices(system, bounds):
                    (kept if held > system.pad else dropped).extend(points)
                assert list(system.vertices_with(bounds)) == kept
                for point in dropped:
                    assert all(x == 0 for x in point[:t]), (D1, D2, point)
                    assert all(x.sign() <= 0 for x in point[t:]), (D1, D2, point)
            # the last system is the family's, in the variables (g, r)
            every = kept + dropped
            slopes = sorted({p[-1] for p in every if p[-1].sign() > 0})
            breakpoints, sampled, _ = _sampled_regions(m, D1, D2)
            assert set(breakpoints) <= set(slopes)
            samples = [(lo + hi) / 2 for lo, hi in zip([q3(0)] + slopes, slopes)]
            samples += [slopes[-1] + 1] if slopes else [q3(1)]
            assert [s for s, _ in sampled] == samples


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
            grads = constraint_gradients(m, D, env.gamma)
            assert len(env.certificate) == len(m.primes)
            for i, multipliers in enumerate(env.certificate):
                assert multipliers, (D, i)
                total = [q3(0)] * len(m.primes)
                for ident, lam in multipliers:
                    assert ident in env.active and lam.sign() > 0, (D, ident)
                    total = [s + lam * x for s, x in zip(total, grads[ident])]
                assert total == [q3(int(k == i)) for k in range(len(m.primes))], D
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
    constraints = _bounds(model, D) + list(model.nef_systems[0].constraints)
    active = [c for c in constraints if c.value(point).sign() == 0]
    assert [c.ident for c in active] == ["coeff[F]", "nef[F]:0"]
    found = _certificate(active, point)
    assert found[0] is None and found[1] == (("coeff[F]", q3(1)),)
    with pytest.raises(NoMinimalEnvelopeError, match="coordinate Sbar is minimal"):
        _certified(model, D, constraints, point)
    assert gamma(model, D).gamma == (q3(1), q3(2))


def test_feasible_points_without_a_least_one_are_refused(model, monkeypatch):
    """(1, 2) and (3/2, 3/2) are both feasible for D = (1, 1) and neither is
    below the other; with only these two as vertices, the least-sum pick
    has no certificate, and the error names the coordinate."""
    points = [(q3(1), q3(2)), (q3(Fraction(3, 2)), q3(Fraction(3, 2)))]
    D = model.divisor([1, 1])
    constraints = _bounds(model, D) + list(model.nef_systems[0].constraints)
    assert all(c.value(p).sign() >= 0 for p in points for c in constraints)
    monkeypatch.setattr(ConstraintSystem, "vertices_with", lambda self, extra: points)
    with pytest.raises(
        NoMinimalEnvelopeError, match="no certificate that coordinate (Sbar|F) is"
    ):
        gamma(model, D)


def test_gamma_ignores_vertex_order_and_repeats(monkeypatch):
    """The vertices reversed and each listed twice give the same envelope,
    certificate included."""
    rng = random.Random(29)
    cases = []
    for m in (builtin_model(), model_from_dict(basis_changed_document())):
        for _ in range(15):
            D = m.divisor([seeded_coefficient(rng) for _ in m.primes])
            if not D.is_zero():
                cases.append((m, D, gamma(m, D)))
    real = ConstraintSystem.vertices_with

    def reversed_twice(self, extra):
        points = list(real(self, extra))[::-1]
        return [p for p in points for _ in range(2)]

    monkeypatch.setattr(ConstraintSystem, "vertices_with", reversed_twice)
    for m, D, expected in cases:
        assert gamma(m, D) == expected, D


# -- the region walk against one envelope per sample ------------------------------


def sampled_regions_oracle(m, D1, D2):
    """The walk without prediction: ``gamma`` at every sample slope."""
    candidates = {
        point[-1]
        for point in m.nef_systems[1].vertices_with(_bounds(m, D1, D2))
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
    """Predicted envelopes equal ``gamma``'s, and the breakpoints agree,
    on seeded pairs of the builtin model and of a basis-changed copy."""
    rng = random.Random(43)
    for m in (builtin_model(), model_from_dict(basis_changed_document())):
        counts = set()
        for _ in range(40):
            D1, D2 = seeded_pair(m, rng)
            breakpoints, sampled, lines = _sampled_regions(m, D1, D2)
            # GammaEnvelope equality covers gamma, active, region, certificate
            assert (breakpoints, sampled) == sampled_regions_oracle(m, D1, D2)
            assert len(lines) == len(breakpoints) + 1
            # each line is the one read off its region's first envelope
            family = [*_bounds(m, D1, D2), *m.nef_systems[1].constraints]
            firsts = [sampled[0]] + [
                (s, env)
                for (_, before), (s, env) in zip(sampled, sampled[1:])
                if env.active != before.active
            ]
            assert lines == [_region_line(m, family, s, env) for s, env in firsts]
            counts.add(len(breakpoints) + 1)
        assert counts == {1, 2, 3}


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
            breakpoints = _sampled_regions(m, D1, D2)[0]
            assert calls == [D1] and "envelope" in vars(D1), (D1, D2)
            calls.clear()
            assert _sampled_regions(m, D1, D2)[0] == breakpoints
            assert calls == [], (D1, D2)
            counts.add(len(breakpoints) + 1)
            kinds.add(proportional(D1, D2))
        assert counts == {1, 2, 3} and kinds == {True, False}


def test_walk_without_lines_falls_back_to_gamma(monkeypatch):
    """When ``_line_through`` finds no line, neither through an anchor nor
    off an envelope, every sample takes ``gamma``, and the walk is still the
    one-envelope-per-sample oracle."""
    monkeypatch.setattr(divfilt.envelope, "_line_through", lambda *args: None)
    calls = counting_gamma(monkeypatch)
    rng = random.Random(47)
    for m in (builtin_model(), model_from_dict(basis_changed_document())):
        for _ in range(10):
            D1, D2 = seeded_pair(m, rng)
            calls.clear()
            breakpoints, sampled, lines = _sampled_regions(m, D1, D2)
            assert len(calls) == 1 + len(sampled) and set(lines) == {None}
            # the oracle calls the real gamma, imported before the patch
            assert (breakpoints, sampled) == sampled_regions_oracle(m, D1, D2)
