"""Limits, mixed multiplicities, piecewise formulas, inequality checks."""

import dataclasses
import gc
import random
import weakref
from fractions import Fraction

import mpmath
import pytest
from test_envelope import counting_gamma, seeded_coefficient, seeded_pair
from test_model import basis_changed_document

import divfilt.envelope
import divfilt.multiplicity
from divfilt.envelope import _bounds, _region_line, _sampled_regions, gamma, regions
from divfilt.errors import ComputationError, InputError, NoMinimalEnvelopeError
from divfilt.intervals import cbrt_enclosure, quad_enclosure
from divfilt.model import builtin_model, model_from_dict
from divfilt.multiplicity import (
    CubicForm,
    MultReport,
    PiecewisePoly,
    PiecewiseRegion,
    _cube_root_sum_decision,
    limit_single,
    minkowski_check,
    mixed,
    piecewise_limit,
    product_limit,
)
from divfilt.qfield import QuadNumber


@pytest.fixture(scope="module")
def model():
    return builtin_model()


@pytest.fixture(scope="module")
def pw(model):
    S, F = model.prime_divisor("Sbar"), model.prime_divisor("F")
    return piecewise_limit(model, S, F)


def q3(a, b=0):
    return QuadNumber(Fraction(a), Fraction(b), 3)


ROOT3 = q3(0, 1)
STEEP_SLOPE = q3(3) - ROOT3 / 3


# -- single-divisor limits -------------------------------------------------------


def test_limit_of_second_prime(model):
    report = limit_single(model, model.prime_divisor("F"))
    assert report.limit == q3(Fraction(2007, 169), Fraction(-9, 338))
    assert report.multiplicity == q3(Fraction(12042, 169), Fraction(-27, 169))


def test_limit_of_first_prime(model):
    report = limit_single(model, model.prime_divisor("Sbar"))
    assert report.limit == 33
    assert report.multiplicity == 198
    assert report.gamma_used.gamma == (q3(1), q3(1))


def test_limit_of_sum(model):
    S, F = model.prime_divisor("Sbar"), model.prime_divisor("F")
    report = limit_single(model, S + F)
    assert report.limit == 33 and report.multiplicity == 198


def test_mult_report_enforces_scaling():
    with pytest.raises(ComputationError):
        MultReport(limit=q3(1), multiplicity=q3(7), gamma_used=None)


def test_mult_report_enforces_nonnegativity():
    with pytest.raises(ComputationError):
        MultReport(limit=q3(-1), multiplicity=q3(-6), gamma_used=None)


# -- mixed multiplicities -----------------------------------------------------------


def test_mixed_values(model):
    S, F = model.prime_divisor("Sbar"), model.prime_divisor("F")
    assert mixed(model, [(S, 3)]) == 198
    assert mixed(model, [(S, 2), (F, 1)]) == q3(
        Fraction(891, 13), Fraction(99, 13)
    )
    assert mixed(model, [(S, 1), (F, 2)]) == q3(
        Fraction(12042, 169), Fraction(-27, 169)
    )
    assert mixed(model, [(F, 3)]) == q3(Fraction(12042, 169), Fraction(-27, 169))


def test_mixed_is_symmetric_and_pads_zero_exponents(model):
    S, F = model.prime_divisor("Sbar"), model.prime_divisor("F")
    assert mixed(model, [(F, 1), (S, 2)]) == mixed(model, [(S, 2), (F, 1)])
    assert mixed(model, [(S, 3), (F, 0)]) == mixed(model, [(S, 3)])


def test_mixed_extreme_exponents_match_plain_multiplicity(model):
    S, F = model.prime_divisor("Sbar"), model.prime_divisor("F")
    assert mixed(model, [(S, 3)]) == limit_single(model, S).multiplicity
    assert mixed(model, [(F, 3)]) == limit_single(model, F).multiplicity


def test_mixed_rejects_bad_exponents(model):
    S, F = model.prime_divisor("Sbar"), model.prime_divisor("F")
    with pytest.raises(InputError):
        mixed(model, [(S, 2), (F, 2)])
    with pytest.raises(InputError):
        mixed(model, [(S, 1)])
    with pytest.raises(InputError):
        mixed(model, [(S, -1), (F, 4)])


# -- piecewise limit -------------------------------------------------------------------


def test_piecewise_region_structure(pw):
    assert len(pw.regions) == 3
    assert pw.boundary_slopes() == [q3(1), STEEP_SLOPE]
    assert pw.regions[0].lower_slope == 0
    assert pw.regions[-1].upper_slope is None


def test_piecewise_polynomials_render(pw):
    assert pw.regions[0].poly.render() == "33*n^3"
    assert (
        pw.regions[1].poly.render()
        == "78*n^3 - 81*n^2*j + 27*n*j^2 + 9*j^3"
    )
    assert pw.regions[2].poly.render() == "(2007/169 - 9/338*sqrt(3))*j^3"


def test_piecewise_lines(pw):
    assert pw.lines() == [
        "region 1: [0, 1) -> 33*n^3",
        "region 2: [1, 3 - 1/3*sqrt(3)) -> 78*n^3 - 81*n^2*j + 27*n*j^2 + 9*j^3",
        "region 3: [3 - 1/3*sqrt(3), inf) -> (2007/169 - 9/338*sqrt(3))*j^3",
    ]


def test_scaled_multiplicity_polynomials(pw):
    scaled = pw.scaled(6)
    assert scaled.regions[0].poly.render() == "198*n^3"
    assert (
        scaled.regions[1].poly.render()
        == "468*n^3 - 486*n^2*j + 162*n*j^2 + 54*j^3"
    )
    assert scaled.regions[2].poly.render() == "(12042/169 - 27/169*sqrt(3))*j^3"


def test_first_region_is_flat_in_second_coordinate(pw):
    # raising only the first divisor's multiple cannot see the second one here
    c30, c21, c12, c03 = pw.regions[0].poly.coefficients
    assert c21 == 0 and c12 == 0 and c03 == 0


def test_continuity_across_boundaries(pw):
    for left, right in zip(pw.regions, pw.regions[1:]):
        boundary = left.upper_slope
        difference = left.poly - right.poly
        # the difference vanishes identically along the boundary ray (1, boundary)
        assert difference.slope_value(boundary) == 0


def test_piecewise_agrees_with_limit_single(model, pw):
    S, F = model.prime_divisor("Sbar"), model.prime_divisor("F")
    for n in range(0, 6):
        for j in range(0, 6):
            if (n, j) == (0, 0):
                continue
            assert pw.value_at(n, j) == limit_single(model, S * n + F * j).limit


def test_piecewise_homogeneity(pw):
    for n, j in ((1, 0), (1, 1), (1, 2), (1, 4), (2, 7), (0, 3)):
        for lam in (2, 3, Fraction(7, 5)):
            assert pw.value_at(
                lam * n, lam * j
            ) == pw.value_at(n, j) * QuadNumber.rational(lam, 3) ** 3


def test_piecewise_monotone_on_grid(pw):
    for n in range(0, 6):
        for j in range(0, 6):
            if (n, j) == (0, 0):
                continue
            value = pw.value_at(n, j)
            assert value.sign() >= 0
            assert (pw.value_at(n + 1, j) - value).sign() >= 0
            assert (pw.value_at(n, j + 1) - value).sign() >= 0


def test_piecewise_edge_evaluation(pw):
    assert pw.value_at(0, 1) == q3(Fraction(2007, 169), Fraction(-9, 338))
    assert pw.value_at(1, 0) == 33
    with pytest.raises(InputError):
        pw.value_at(0, 0)
    with pytest.raises(InputError):
        pw.value_at(-1, 1)


def test_piecewise_region_validation():
    poly = CubicForm((q3(1), q3(0), q3(0), q3(0)))
    with pytest.raises(InputError):  # first region must start at 0
        PiecewisePoly((PiecewiseRegion(q3(1), None, poly),))
    with pytest.raises(InputError):  # gap between regions
        PiecewisePoly(
            (
                PiecewiseRegion(q3(0), q3(1), poly),
                PiecewiseRegion(q3(2), None, poly),
            )
        )
    with pytest.raises(InputError):  # last region must be unbounded
        PiecewisePoly((PiecewiseRegion(q3(0), q3(1), poly),))


# -- product filtration limit -----------------------------------------------------------


def test_product_limit_coefficients(model):
    S, F = model.prime_divisor("Sbar"), model.prime_divisor("F")
    form = product_limit(model, S, F)
    assert form.coefficients == (
        q3(33),
        q3(Fraction(891, 26), Fraction(99, 26)),
        q3(Fraction(6021, 169), Fraction(-27, 338)),
        q3(Fraction(2007, 169), Fraction(-9, 338)),
    )
    assert form.render() == (
        "33*n^3 + (891/26 + 99/26*sqrt(3))*n^2*j"
        " + (6021/169 - 27/338*sqrt(3))*n*j^2"
        " + (2007/169 - 9/338*sqrt(3))*j^3"
    )


def test_product_coefficients_are_scaled_mixed_values(model):
    S, F = model.prime_divisor("Sbar"), model.prime_divisor("F")
    form = product_limit(model, S, F)
    assert form.coefficient(3, 0) == mixed(model, [(S, 3)]) / 6
    assert form.coefficient(2, 1) == mixed(model, [(S, 2), (F, 1)]) / 2
    assert form.coefficient(1, 2) == mixed(model, [(S, 1), (F, 2)]) / 2
    assert form.coefficient(0, 3) == mixed(model, [(F, 3)]) / 6


def test_product_dominates_sum_filtration(model, pw):
    S, F = model.prime_divisor("Sbar"), model.prime_divisor("F")
    form = product_limit(model, S, F)
    for n in range(0, 6):
        for j in range(0, 6):
            if (n, j) == (0, 0):
                continue
            assert (form.value_at(n, j) - pw.value_at(n, j)).sign() >= 0


# -- cubic form rendering ------------------------------------------------------------------


def test_cubic_render_edge_cases():
    zero = CubicForm((q3(0), q3(0), q3(0), q3(0)))
    assert zero.render() == "0"
    unit = CubicForm((q3(1), q3(0), q3(0), q3(-1)))
    assert unit.render() == "n^3 - j^3"
    neg = CubicForm((q3(-2), q3(0), q3(1), q3(0)))
    assert neg.render() == "-2*n^3 + n*j^2"
    irr = CubicForm((q3(0), q3(0, -1), q3(0), q3(0)))
    assert irr.render() == "(-sqrt(3))*n^2*j"


def test_cubic_unknown_monomial_rejected():
    form = CubicForm((q3(1), q3(0), q3(0), q3(0)))
    with pytest.raises(InputError):
        form.coefficient(2, 0)


# -- Minkowski inequality suite ----------------------------------------------------------------


def test_minkowski_builtin_pair(model):
    S, F = model.prime_divisor("Sbar"), model.prime_divisor("F")
    report = minkowski_check(model, S, F)
    assert report.all_hold
    assert report.e_values == (
        q3(Fraction(12042, 169), Fraction(-27, 169)),
        q3(Fraction(12042, 169), Fraction(-27, 169)),
        q3(Fraction(891, 13), Fraction(99, 13)),
        q3(198),
    )
    assert report.product_multiplicity == q3(
        Fraction(116379, 169), Fraction(3753, 169)
    )
    methods = [c.method for c in report.checks]
    assert methods[:10] == ["exact"] * 10
    assert methods[10].startswith("interval")
    assert len(report.checks) == 11


def test_minkowski_equality_cases_decided_exactly(model):
    S = model.prime_divisor("Sbar")
    for other in (S, S * 2, S * Fraction(1, 3)):
        report = minkowski_check(model, S, other)
        assert report.all_hold
        assert report.checks[-1].method == "exact-equality"


@pytest.mark.parametrize(
    "c1, c2",
    [((1, 0), (0, 1)), ((1, 1), (0, 3)), ((1, 0), (2, 0)), ((2, 1), (4, 2))],
)
def test_minkowski_product_multiplicity_is_direct_triple(model, c1, c2):
    D1, D2 = model.divisor(c1), model.divisor(c2)
    report = minkowski_check(model, D1, D2)
    total = gamma(model, D1).envelope_divisor + gamma(model, D2).envelope_divisor
    assert report.product_multiplicity == model.triple(total, total, total)


def test_minkowski_degenerate_zero_side(model):
    # one factor with zero multiplicity cannot occur for effective nonzero
    # divisors here, but proportional tiny factors keep all methods exact
    S, F = model.prime_divisor("Sbar"), model.prime_divisor("F")
    report = minkowski_check(model, S + F, (S + F) * 5)
    assert report.all_hold


def test_minkowski_random_integer_pairs(model):
    rng = random.Random(20260814)
    for _ in range(20):
        c1 = [rng.randint(0, 6), rng.randint(0, 6)]
        c2 = [rng.randint(0, 6), rng.randint(0, 6)]
        if c1 == [0, 0]:
            c1[rng.randint(0, 1)] = 1
        if c2 == [0, 0]:
            c2[rng.randint(0, 1)] = 1
        report = minkowski_check(model, model.divisor(c1), model.divisor(c2))
        assert report.all_hold, (c1, c2)


def test_minkowski_cube_root_against_mpmath(model):
    # independent 50-digit floating check of the cube-root inequality
    S, F = model.prime_divisor("Sbar"), model.prime_divisor("F")
    report = minkowski_check(model, S, F)
    with mpmath.workdps(50):
        sqrt3 = mpmath.sqrt(3)

        def to_mpf(x):
            return (
                mpmath.mpf(x.a.numerator) / x.a.denominator
                + sqrt3 * x.b.numerator / x.b.denominator
            )

        lhs = mpmath.cbrt(to_mpf(report.product_multiplicity))
        rhs = mpmath.cbrt(to_mpf(report.e_values[3])) + mpmath.cbrt(
            to_mpf(report.e_values[0])
        )
        margin = rhs - lhs
        assert margin > mpmath.mpf("1e-40")
    assert report.checks[-1].holds


@pytest.mark.parametrize("L, holds", [(7, True), (9, False)])
def test_cube_root_decision_past_the_precision_cap(monkeypatch, L, holds):
    """cbrt(7) < 2 = cbrt(1) + cbrt(1) < cbrt(9): with enclosures that never
    separate the sides, the sign of (L - 2)^3 - 27L decides."""
    monkeypatch.setattr(
        divfilt.multiplicity,
        "cbrt_enclosure",
        lambda value, digits: (Fraction(0), Fraction(10**9)),
    )
    assert _cube_root_sum_decision(q3(L), q3(1), q3(1)) == (holds, "exact")


def interval_decision(L, a, b):
    """The cube-root verdict from plain comparisons and rational enclosures
    of the cube roots, with the labels ``_cube_root_sum_decision`` gives."""
    if L.sign() == 0:
        return True, "exact"
    if a.sign() == 0 or b.sign() == 0:
        return L <= a + b, "exact"
    if L <= a + b:
        return True, "exact"
    for digits in (20, 40, 80, 128):
        (L_lo, L_hi), (a_lo, a_hi), (b_lo, b_hi) = (
            cbrt_enclosure((max(Fraction(0), lo), hi), digits)
            for lo, hi in (quad_enclosure(x, digits) for x in (L, a, b))
        )
        if L_hi <= a_lo + b_lo:
            return True, f"interval({digits} digits)"
        if L_lo > a_hi + b_hi:
            return False, f"interval({digits} digits)"
    return True, "exact-equality"  # every test case this close is an equality


def seeded_triple(rng):
    """Nonnegative ``(L, a, b)`` in Q(sqrt(3)): unrelated, with a zero, with
    ``L <= a + b``, with equal sides, or with sides 10^-30 apart."""
    x, y, z = (seeded_coefficient(rng) for _ in range(3))
    kind = rng.choice(("plain", "zero", "below", "cube", "near"))
    if kind == "plain":
        return x, y, z
    if kind == "zero":
        triple = [x, y, z]
        triple[rng.randrange(3)] = q3(0)
        return tuple(triple)
    if kind == "below":
        return (y + z) * Fraction(rng.randint(0, 9), 9), y, z
    offset = q3(Fraction(rng.choice((-1, 1)), 10**30)) if kind == "near" else 0
    return (x + y) ** 3 + offset, x**3, y**3


def test_cube_root_decision_matches_interval_path():
    rng = random.Random(3)
    labels = set()
    for _ in range(300):
        L, a, b = seeded_triple(rng)
        if L.sign() < 0:
            continue
        decision = _cube_root_sum_decision(L, a, b)
        assert decision == interval_decision(L, a, b), (L, a, b)
        labels.add(decision[1].split("(")[0])
    assert labels == {"exact", "exact-equality", "interval"}


def test_minkowski_report_lines(model):
    S, F = model.prime_divisor("Sbar"), model.prime_divisor("F")
    report = minkowski_check(model, S, F)
    lines = report.lines()
    assert lines[0] == "e(3) = 198"
    assert lines[-1] == "all inequalities hold"
    assert any("inequality 4" in line for line in lines)


def test_minkowski_log_convexity_explicit(model):
    # spot-check inequality family 1 numerically from the e values
    S, F = model.prime_divisor("Sbar"), model.prime_divisor("F")
    report = minkowski_check(model, S, F)
    e = report.e_values
    for i in (1, 2):
        assert (e[i] ** 2 - e[i + 1] * e[i - 1]).sign() <= 0


def piecewise_without_reuse(model, D1, D2):
    """Three fresh envelopes per region of ``regions``, fitted and checked."""
    breakpoints = regions(model, D1, D2)
    pieces = []
    for lo, hi in zip([q3(0)] + breakpoints, breakpoints + [None]):
        if hi is None:
            s1, s2, s3 = lo + 1, lo + 2, lo + 3
        else:
            s1, s2, s3 = (lo + (hi - lo) * Fraction(k, 4) for k in (1, 2, 3))
        g1, g2, g3 = (gamma(model, D1 + D2 * s).gamma for s in (s1, s2, s3))
        v = [(b - a) / (s2 - s1) for a, b in zip(g1, g2)]
        u = [a - s1 * vi for a, vi in zip(g1, v)]
        assert tuple(ui + s3 * vi for ui, vi in zip(u, v)) == g3
        P, Q = model.divisor(u), model.divisor(v)
        e = [model.triple(*[P] * i, *[Q] * (3 - i)) for i in range(4)]
        cubic = CubicForm((e[3] / 6, e[2] / 2, e[1] / 2, e[0] / 6))
        pieces.append(PiecewiseRegion(lo, hi, cubic))
    return PiecewisePoly(tuple(pieces))


@pytest.mark.parametrize(
    "c1, c2, count",
    [
        ((1, 1), (2, 2), 1),
        ((1, 2), (3, 4), 1),
        ((1, 2), (0, 1), 2),
        ((2, 1), (1, 2), 2),
        ((1, 0), (0, 1), 3),
        ((3, 1), (1, 3), 3),
    ],
)
def test_piecewise_reuse_matches_fresh_envelopes(model, c1, c2, count):
    D1, D2 = model.divisor(c1), model.divisor(c2)
    pw = piecewise_limit(model, D1, D2)
    assert len(pw.regions) == count
    reference = piecewise_without_reuse(model, D1, D2)
    assert pw == reference
    assert pw.lines() == reference.lines()


def test_piecewise_matches_three_sample_fit_on_seeded_pairs(model):
    """One envelope per region gives the same cubics as three fresh ones,
    on the builtin model and on a copy with every surface basis changed."""
    changed = model_from_dict(basis_changed_document())
    rng = random.Random(29)
    counts = set()
    for m in (model, changed):
        for _ in range(40):
            D1, D2 = seeded_pair(m, rng)
            pw = piecewise_limit(m, D1, D2)
            reference = piecewise_without_reuse(m, D1, D2)
            assert pw == reference, (D1, D2)
            assert pw.lines() == reference.lines()
            counts.add(len(pw.regions))
    assert counts == {1, 2, 3}


@pytest.mark.parametrize("c1, c2", [((1, 2), (0, 1)), ((1, 0), (0, 1))])
def test_envelope_line_rejects_a_moved_sample(model, monkeypatch, c1, c2):
    """Moving one coordinate of the last region's first or last sample by
    1/1000 breaks the fit: no line is read off the moved first envelope,
    and a walk that meets the moved envelope refuses the region."""
    D1, D2 = model.divisor(c1), model.divisor(c2)
    breakpoints, sampled, lines = _sampled_regions(model, D1, D2)
    last = [(s, env) for s, env in sampled if s > breakpoints[-1]]
    assert len(last) >= 2
    family = [*_bounds(model, D1, D2), *model.nef_systems[1].constraints]
    assert _region_line(model, family, *last[0]) == lines[-1]
    real_certified, real_gamma = divfilt.envelope._certified, divfilt.envelope.gamma
    for position in (0, len(last) - 1):
        s, env = last[position]
        target = (D1 + D2 * s).coeffs
        for i in range(len(model.primes)):
            moved = list(env.gamma)
            moved[i] += Fraction(1, 1000)
            moved_env = dataclasses.replace(env, gamma=tuple(moved))
            if position == 0:
                assert _region_line(model, family, s, moved_env) is None

            def refused(m, D, constraints, point):
                if D.coeffs == target:
                    raise NoMinimalEnvelopeError("refused")
                return real_certified(m, D, constraints, point)

            def moved_gamma(m, D, moved_env=moved_env):
                return moved_env if D.coeffs == target else real_gamma(m, D)

            with monkeypatch.context() as patch:
                patch.setattr(divfilt.envelope, "_certified", refused)
                patch.setattr(divfilt.envelope, "gamma", moved_gamma)
                with pytest.raises(ComputationError, match="not affine"):
                    piecewise_limit(model, model.divisor(c1), model.divisor(c2))


@pytest.mark.parametrize(
    "c1, c2",
    [((1, 1), (2, 2)), ((1, 2), (3, 4)), ((1, 2), (0, 1)), ((1, 0), (0, 1))],
)
def test_piecewise_computes_envelopes_only_in_regions(model, monkeypatch, c1, c2):
    """``piecewise_limit`` calls ``gamma`` only for ``D1``'s envelope, the
    walk's first anchor; every region's envelopes are predicted from lines
    through anchors and certified, also for a family without candidate
    slopes."""
    D1, D2 = model.divisor(c1), model.divisor(c2)
    calls = counting_gamma(monkeypatch)
    piecewise_limit(model, D1, D2)
    assert calls == [D1]


def test_product_then_minkowski_compute_each_envelope_once(model, monkeypatch):
    calls = []
    real = divfilt.envelope.gamma

    def counted(m, D):
        calls.append(D)
        return real(m, D)

    monkeypatch.setattr(divfilt.envelope, "gamma", counted)
    D1, D2 = model.divisor([1, 0]), model.divisor([0, 1])
    form = product_limit(model, D1, D2)
    report = minkowski_check(model, D1, D2)
    assert calls == [D1, D2]
    # the same answers as divisors without a filled cache
    fresh1, fresh2 = model.divisor([1, 0]), model.divisor([0, 1])
    assert form == product_limit(model, fresh1, fresh2)
    assert report == minkowski_check(model, fresh1, fresh2)


def test_divisor_with_filled_envelope_equals_fresh_one(model):
    warmed, fresh = model.divisor([1, 3]), model.divisor([1, 3])
    env = limit_single(model, warmed).gamma_used
    assert vars(warmed)["envelope"] is env and "envelope" not in vars(fresh)
    assert warmed == fresh and hash(warmed) == hash(fresh)
    assert {warmed: 1}[fresh] == 1
    assert warmed.envelope == fresh.envelope == gamma(model, fresh)


def test_divisor_with_filled_envelope_is_freed_without_the_cycle_collector(model):
    D = model.divisor([1, 3])
    assert D.envelope.input == D
    ref = weakref.ref(D)
    gc.disable()
    try:
        del D
        assert ref() is None
    finally:
        gc.enable()


def test_envelope_of_divisor_from_other_model_is_refused(model):
    other = model_from_dict(basis_changed_document())
    D = other.divisor([1, 3])
    with pytest.raises(InputError, match="different model"):
        limit_single(model, D)
    assert D.envelope.model == other  # fills the cache
    with pytest.raises(InputError, match="different model"):
        limit_single(model, D)
