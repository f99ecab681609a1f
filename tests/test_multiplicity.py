"""Limits, mixed multiplicities, piecewise formulas, inequality checks."""

import copy
import gc
import hashlib
import pickle
import random
import re
import weakref
from collections import Counter
from fractions import Fraction
from itertools import permutations, product

import mpmath
import pytest
from test_envelope import (
    UNION_MODEL,
    counting_gamma,
    proportional,
    seeded_coefficient,
    seeded_pair,
    three_model_pairs,
)
from test_generated_models import DIVISORS as GENERATED_DIVISORS
from test_generated_models import MODELS as GENERATED_MODELS
from test_generated_models import PINNED as GENERATED_PINNED
from test_generated_models import polyhedral_document, seeded_divisors
from test_model import basis_changed_document

import divfilt.envelope
import divfilt.multiplicity
from divfilt import cli
from divfilt.envelope import _sigma, _walk, gamma, is_antinef, regions
from divfilt.errors import ComputationError, InputError
from divfilt.intervals import cbrt_enclosure, quad_enclosure
from divfilt.model import builtin_model, load_model, model_from_dict
from divfilt.multiplicity import (
    CubicForm,
    MultReport,
    PiecewisePoly,
    PiecewiseRegion,
    _cube_root_sum_decision,
    _mixed_values,
    limit_single,
    minkowski_check,
    mixed,
    piecewise_limit,
    product_limit,
)
from divfilt.qfield import QuadNumber, bilinear, dot


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


@pytest.mark.parametrize("coeffs", [(2, 1, 2, 1), (2, 3, 1, 3), (1, 0, 0, 1), (1, 3, 2, 1)])
def test_union_limit_is_the_sum_of_both_copies(model, coeffs):
    """On two copies side by side with no cross restrictions, the limit of
    ``(D, D')`` is the limit of ``D`` plus the limit of ``D'``."""
    union = load_model(UNION_MODEL)
    report = limit_single(union, union.divisor(coeffs))
    first = limit_single(model, model.divisor(coeffs[:2]))
    second = limit_single(model, model.divisor(coeffs[2:]))
    assert report.limit == first.limit + second.limit


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
    # a factor with exponent 0 computes no envelope: gamma refuses this one
    assert mixed(model, [(S, 3), (model.zero_divisor(), 0)]) == mixed(model, [(S, 3)])


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
    with pytest.raises(InputError, match="exponents must sum to 3"):
        mixed(model, [(S, 10**30)])
    # booleans are ``int`` subclasses but not exponents, as for the indices
    # of ``filt_examples``
    for factors in ([(S, True), (F, 2)], [(S, 2), (F, 1), (F, False)], [(S, 1.0), (F, 2)]):
        with pytest.raises(InputError, match="exponents must be nonnegative integers"):
            mixed(model, factors)


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


def test_piecewise_value_at_refuses_floats_and_bools(pw):
    """A float point is refused as input, where it once reached
    ``CubicForm.value_at`` and failed there with a ``TypeError``."""
    for n, j in ((1.5, Fraction(1, 4)), (1, 0.25), (True, 2)):
        with pytest.raises(InputError, match="int, Fraction or QuadNumber"):
            pw.value_at(n, j)


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


@pytest.mark.parametrize("d1, d2", [(True, 2), (1, True), (1.0, 2.0), (3, 0.0)])
def test_cubic_degrees_must_be_integers(d1, d2):
    """``MONOMIALS.index`` compares with ``==``, so ``True`` and ``1.0``
    would otherwise read the coefficient of ``n*j^2``."""
    form = CubicForm((q3(1), q3(2), q3(3), q3(4)))
    with pytest.raises(InputError, match="degrees must be integers"):
        form.coefficient(d1, d2)


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


def signed_element(rng):
    """A signed integer or Q(sqrt(3)) element, zero now and then."""
    if rng.random() < 0.5:
        return q3(rng.randint(-4, 4))
    a, b = (Fraction(rng.randint(-n, n), rng.randint(1, 5)) for n in (20, 9))
    return q3(a, b)


def test_cube_root_decision_on_signed_cubes():
    """With ``a = x^3``, ``b = y^3`` and ``L = z^3`` for signed ``x, y, z``
    (seeded integers and Q(sqrt(3)) elements, small integers with every
    tie), the verdict is ``z <= x + y``.  That includes the corner ``a =
    b = -L``, where ``f(L) = 0``: the inequality fails there when ``a <
    0``, as at ``(L, a, b) = (1, -1, -1)``, and holds otherwise."""
    rng = random.Random(11)
    cases = [tuple(q3(v) for v in c) for c in product(range(-3, 4), repeat=3)]
    cases += [tuple(signed_element(rng) for _ in "xyz") for _ in range(200)]
    cases += [(x, x, -x) for x in map(q3, (-2, Fraction(-1, 3), 1, 5))]
    for x, y, z in cases:
        holds, _ = _cube_root_sum_decision(z**3, x**3, y**3)
        assert holds == (z <= x + y), (x, y, z)
    assert _cube_root_sum_decision(q3(1), q3(-1), q3(-1)) == (False, "exact")
    assert _cube_root_sum_decision(q3(-1), q3(1), q3(1)) == (True, "exact")


def test_region_cubic_slope_is_half_sigma_squared_times_D2():
    """At an interior slope ``s`` of each region (``lo + 1`` for the last),
    the j-derivative of the region's cubic at ``(1, s)`` is ``(sigma(D1 +
    s*D2)^2 . D2) / 2``, read through the test-side contraction of ``D2``
    from a fresh ``gamma``: the local form of the derivative of volume
    (Boucksom-Favre-Jonsson, Theorem A), on seeded pairs of the builtin
    model, a basis-changed copy and the two-copy union.  It follows from
    orthogonality, which the generated polyhedral models need not have,
    so they are left out."""
    seen = 0
    for m, D1, D2 in three_model_pairs(91, 8):
        M = contraction(m, D2)
        for region in piecewise_limit(m, D1, D2).regions:
            lo, hi = region.lower_slope, region.upper_slope
            s = lo + 1 if hi is None else (lo + hi) / 2
            _, c21, c12, c03 = region.poly.coefficients
            sigma = gamma(m, D1 + D2 * s).envelope_divisor
            expected = bilinear(M, sigma.coeffs, sigma.coeffs) / 2
            assert c21 + 2 * c12 * s + 3 * c03 * s * s == expected, (D1, D2, s)
            seen += 1
    assert seen >= 40, seen


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


def j_derivatives(form, j):
    """The value and the first two ``j``-derivatives of a cubic form in
    ``(n, j)`` at ``(1, j)``."""
    a0, a1, a2, a3 = form.coefficients
    return (
        a0 + a1 * j + a2 * j * j + a3 * j * j * j,
        a1 + a2 * j * 2 + a3 * j * j * 3,
        a2 * 2 + a3 * j * 6,
    )


def second_derivative_jumps(m, D1, D2):
    """``(slope, jump)`` at every breakpoint of ``n*D1 + j*D2``, read off the
    walk's records: the limit's second ``j``-derivative at ``n = 1``, left
    minus right.  Asserts that ``piecewise_limit``'s regions are the
    records' and that the value and the first derivative glue there."""
    walk = _walk(m, D1, D2)
    pw = piecewise_limit(m, D1, D2)
    assert [(r.lower_slope, r.upper_slope) for r in pw.regions] == [
        (region.lo, region.hi) for region in walk
    ]
    jumps = []
    for left, right in zip(pw.regions, pw.regions[1:]):
        b = right.lower_slope
        below, above = j_derivatives(left.poly, b), j_derivatives(right.poly, b)
        assert below[:2] == above[:2], (D1, D2, b)
        jumps.append((b, below[2] - above[2]))
    return jumps


def test_piecewise_limit_is_c1_but_not_c2_at_every_breakpoint():
    """Across every breakpoint of seeded families on the builtin model, a
    basis-changed copy and the two-copy union, the limit's value and first
    derivative agree and its second derivative jumps: the local form of
    the differentiability of volume (Boucksom-Favre-Jonsson)."""
    seen = Counter()
    for m, D1, D2 in three_model_pairs(83, 15):
        for b, jump in second_derivative_jumps(m, D1, D2):
            assert jump != 0, (D1, D2, b)
            seen[len(m.primes)] += 1
    assert seen[2] >= 20 and seen[4] >= 20, seen


def test_piecewise_jumps_of_sbar_f(model):
    """For ``(Sbar, F)`` the second ``j``-derivative at ``n = 1`` drops by
    108 at ``r = 1`` and jumps by ``27/13 + 81/13*sqrt(3)`` (left minus
    right) at ``r = 3 - sqrt(3)/3``, where Sbar's light-cone constraint
    becomes tight."""
    S, F = model.prime_divisor("Sbar"), model.prime_divisor("F")
    assert second_derivative_jumps(model, S, F) == [
        (q3(1), q3(-108)),
        (q3(3) - ROOT3 / 3, q3(Fraction(27, 13), Fraction(81, 13))),
    ]


@pytest.mark.parametrize("c1, c2", [((1, 2), (0, 1)), ((1, 0), (0, 1))])
def test_envelope_line_rejects_a_moved_sample(model, monkeypatch, capsys, c1, c2):
    """The last region's line is certified at one sample, one slope above
    its start, where the record's envelope is ``gamma``'s.  With that
    sample refused, or with each coordinate of the line's point there
    moved by 1/1000, no line certifies the region, and ``regions``,
    ``piecewise_limit`` and ``divfilt piecewise`` refuse the family at the
    region's lower slope (exit 3, no traceback)."""
    D1, D2 = model.divisor(c1), model.divisor(c2)
    last = _walk(model, D1, D2)[-1]
    lo = last.lo
    s = lo + 1
    P, Q = last.line
    assert (P + Q * s).coeffs == gamma(model, D1 + D2 * s).gamma
    assert last.envelope == gamma(model, D1 + D2 * s)
    target = (D1 + D2 * s).coeffs
    message = f"no certified envelope line above slope {lo.canonical_string()};"
    pair = [",".join(map(str, c)) for c in (c1, c2)]
    real_certified = divfilt.envelope._certified
    for moved in (None, *range(len(model.primes))):

        def refused(m, D, point, moved=moved):
            if D.coeffs == target:
                if moved is None:
                    return None
                point = list(point)
                point[moved] += Fraction(1, 1000)
            return real_certified(m, D, tuple(point))

        with monkeypatch.context() as patch:
            patch.setattr(divfilt.envelope, "_certified", refused)
            for compute in (regions, piecewise_limit):
                with pytest.raises(ComputationError, match=re.escape(message)):
                    compute(model, model.divisor(c1), model.divisor(c2))
            assert cli.main(["piecewise", "-D1", pair[0], "-D2", pair[1]]) == 3
            captured = capsys.readouterr()
            assert captured.out == "" and "Traceback" not in captured.err
            assert message in captured.err


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


def canonical(pw, form, report):
    return "\n".join([*pw.lines(), form.render(), *report.lines()])


def family_sweep(m, D1, D2):
    """The canonical text of ``piecewise_limit``, ``product_limit`` and
    ``minkowski_check`` on ``(D1, D2)``, computed in that order."""
    pw = piecewise_limit(m, D1, D2)
    return canonical(pw, product_limit(m, D1, D2), minkowski_check(m, D1, D2))


def test_family_sweep_computes_each_envelope_once(monkeypatch):
    """On fresh divisors the three calls make one ``gamma`` call, for
    ``D1``: ``D2``'s envelope comes from the walk's last region.  The
    answers equal those of divisors whose envelopes ``gamma`` computed."""
    calls = counting_gamma(monkeypatch)
    for m, D1, D2 in three_model_pairs(70, 6):
        calls.clear()
        text = family_sweep(m, D1, D2)
        assert calls == [D1], (D1, D2)
        E1, E2 = m.divisor(D1.coeffs), m.divisor(D2.coeffs)
        _sigma(m, E1), _sigma(m, E2)
        assert family_sweep(m, E1, E2) == text, (D1, D2)


def test_refused_sigma_of_D2_leaves_the_cache_to_gamma(monkeypatch):
    """With ``_certified`` refusing ``D2`` during the walk, nothing is
    stored, ``product_limit`` computes ``D2``'s envelope with ``gamma``,
    and every answer is unchanged."""
    calls = counting_gamma(monkeypatch)
    real = divfilt.envelope._certified
    for m, D1, D2 in three_model_pairs(70, 6):
        expected = family_sweep(m, m.divisor(D1.coeffs), m.divisor(D2.coeffs))
        _sigma(m, D1)
        refused = []

        def refusing(mm, D, point, target=D2.coeffs):
            if D.coeffs == target:
                refused.append(point)
                return None
            return real(mm, D, point)

        with monkeypatch.context() as patch:
            patch.setattr(divfilt.envelope, "_certified", refusing)
            pw = piecewise_limit(m, D1, D2)
        assert len(refused) == 1 and "envelope" not in vars(D2), (D1, D2)
        calls.clear()
        form, report = product_limit(m, D1, D2), minkowski_check(m, D1, D2)
        assert calls == [D2], (D1, D2)
        assert canonical(pw, form, report) == expected, (D1, D2)


def test_filled_sigma_of_D2_is_freed_without_the_cycle_collector():
    pairs = three_model_pairs(70, 1)
    while pairs:
        m, D1, D2 = pairs.pop()
        piecewise_limit(m, D1, D2)
        assert vars(D2)["envelope"].input == D2
        ref = weakref.ref(D2)
        gc.disable()
        try:
            del D2
            assert ref() is None
        finally:
            gc.enable()


def expanded_triple(m, D1, D2, D3):
    """``(D1 . D2 . D3)`` summed over the pairing tables, with no call into
    ``triple`` or ``polar``."""
    return dot(D3.coeffs, [bilinear(T, D1.coeffs, D2.coeffs) for T in m.pairings])


def contraction(m, D):
    """The matrix ``M_D = sum_k coeff_k(D) * pairings[k]``, so that ``(D1 .
    D2 . D) = D1^T M_D D2``; built from the pairing tables alone.  Each
    ``pairings[k]`` is symmetric, so only the entries with ``j >= i`` are
    computed and mirrored."""
    t = len(m.primes)
    M = [[None] * t for _ in range(t)]
    for i in range(t):
        for j in range(i, t):
            M[i][j] = M[j][i] = dot(D.coeffs, [T[i][j] for T in m.pairings])
    return tuple(map(tuple, M))


def test_mixed_values_are_the_four_triples():
    """``_mixed_values`` (two polar vectors) equals the four products
    expanded over the pairing tables, and ``triple`` equals that
    expansion in every order of its arguments, with three distinct
    objects, with one repeated and with an equal copy in place of the
    repeated one, on seeded divisors of three models."""
    rng = random.Random(73)
    for m, P, Q in three_model_pairs(70, 12):
        slots = ((Q, Q, Q), (P, Q, Q), (P, P, Q), (P, P, P))
        assert _mixed_values(m, P, Q) == tuple(expanded_triple(m, *s) for s in slots), (P, Q)
        R = m.divisor([seeded_coefficient(rng) for _ in m.primes])
        for args in ((P, Q, R), (P, P, R), (R, Q, Q), (P, m.divisor(P.coeffs), R)):
            expected = expanded_triple(m, *args)
            assert {m.triple(*order) for order in permutations(args)} == {expected}


def geometric_and_generated_models(seed):
    """The builtin model, a basis-changed copy, the two-copy union and four
    seeded all-polyhedral models over 2, 3, 4 and 5 primes."""
    rng = random.Random(seed)
    return [
        builtin_model(),
        model_from_dict(basis_changed_document()),
        load_model(UNION_MODEL),
        *(model_from_dict(polyhedral_document(rng, t)) for t in (2, 3, 4, 5)),
    ]


def test_cube_from_the_models_polar_table_equals_the_expansion(monkeypatch):
    """``triple(D, D, D)`` on one object reads the model's polar table; it
    equals the expansion over the pairing tables and is a field element of
    the model's field, on the zero divisor, the primes, ``sum E_i`` (exact
    ones, whose products are rational coefficients alone) and seeded
    Q(sqrt(3)) divisors of seven models.  ``limit_single``, ``mixed([(D,
    3)])`` and ``mixed([(D, 2), (E, 1)])`` each take one polar vector of one
    object, and ``triple`` on three distinct equal copies takes one polar
    vector of two of them and gives the same value."""
    rng = random.Random(29)
    for m in geometric_and_generated_models(30):
        t = len(m.primes)
        divisors = [m.zero_divisor(), m.divisor([1] * t), *map(m.prime_divisor, m.primes)]
        divisors += [m.divisor([seeded_coefficient(rng) for _ in range(t)]) for _ in range(8)]
        for D in divisors:
            cube = m.triple(D, D, D)
            assert isinstance(cube, QuadNumber) and cube.d == m.field_d, D
            assert cube == expanded_triple(m, D, D, D), D
            w = m.polar(D, D)
            assert all(isinstance(x, QuadNumber) and x.d == m.field_d for x in w), D
            assert list(w) == [expanded_triple(m, m.prime_divisor(p), D, D) for p in m.primes]
        assert len(m.polar_table) == t
        assert all(len(row) == t * (t + 1) // 2 for row in m.polar_table)
        assert "polar_table" not in vars(model_from_dict(polyhedral_document(random.Random(0), 2)))
    m = builtin_model()
    S, F = m.prime_divisor("Sbar"), m.prime_divisor("F")
    sigma = _sigma(m, S).envelope_divisor
    sigma_F = _sigma(m, F).envelope_divisor
    polars = []
    real = type(m).polar
    monkeypatch.setattr(type(m), "polar", lambda *a: polars.append(a[1:]) or real(*a))
    assert mixed(m, [(S, 3)]) == limit_single(m, S).multiplicity == 198
    assert mixed(m, [(S, 2), (F, 1)]) == expanded_triple(m, sigma, sigma, sigma_F)
    assert len(polars) == 3 and all(X is Y for X, Y in polars)
    polars.clear()
    copies = [m.divisor(sigma.coeffs) for _ in range(3)]
    assert m.triple(*copies) == 198 and polars == [(copies[0], copies[1])]


def signed_divisor(m, rng):
    """A divisor whose seeded coefficients take either sign."""
    return m.divisor([seeded_coefficient(rng) * rng.choice((1, -1)) for _ in m.primes])


def test_polar_is_the_symmetric_bilinear_vector():
    """``polar(X, Y)`` is symmetric and linear in each argument, its entry
    at ``m`` is the expanded ``(E_m . X . Y)``, ``polar(X, X)`` (products of
    one divisor's coefficients) equals ``polar`` of ``X`` and an equal copy
    (the halved sums), and ``triple`` on ``P``, an equal copy of ``P`` and
    ``Q`` equals ``triple(P, P, Q)``, on seeded signed divisors of seven
    models."""
    rng = random.Random(47)
    for m in geometric_and_generated_models(48):
        units = [m.prime_divisor(p) for p in m.primes]
        for _ in range(6):
            X, Y, Z = (signed_divisor(m, rng) for _ in "XYZ")
            a, b = seeded_coefficient(rng), q3(rng.randint(-5, 5))
            w = m.polar(X, Y)
            assert w == m.polar(Y, X), (X, Y)
            assert list(w) == [expanded_triple(m, E, X, Y) for E in units], (X, Y)
            combined = m.polar(X * a + Z * b, Y)
            assert combined == tuple(
                u * a + v * b for u, v in zip(w, m.polar(Z, Y))
            ), (X, Y, Z)
            assert m.polar(X, X) == m.polar(X, m.divisor(X.coeffs)), X
            assert m.triple(X, m.divisor(X.coeffs), Y) == m.triple(X, X, Y), (X, Y)


def test_product_and_minkowski_read_one_vector_per_pair(monkeypatch):
    """``product_limit`` followed by ``minkowski_check`` on one pair builds
    one vector of mixed values, kept on ``D1`` outside ``==`` and ``hash``
    and keyed by ``D2``'s coefficients; a second ``D2`` builds a second
    vector.  An equal divisor of another model, or a ``D1`` of another
    model, is refused even when the cache holds an entry for those
    coefficients, and the cache outlives no divisor through a cycle."""
    built = []
    real = divfilt.multiplicity._mixed_values
    monkeypatch.setattr(
        divfilt.multiplicity, "_mixed_values", lambda *a: built.append(a) or real(*a)
    )
    m = builtin_model()
    D1, D2 = m.divisor([1, 2]), m.divisor([2, 7])
    fresh = D1 * 1
    form, report = product_limit(m, D1, D2), minkowski_check(m, D1, D2)
    assert len(built) == 1
    assert vars(D1)["mixed_values"] == {D2.coeffs: report.e_values}
    assert D1 == fresh and hash(D1) == hash(fresh)
    assert form == product_limit(m, fresh, D2) and len(built) == 2
    minkowski_check(m, D1, m.divisor([1, 1]))
    assert len(built) == 3 and len(vars(D1)["mixed_values"]) == 2
    other = model_from_dict(basis_changed_document())
    for args in ((D1, other.divisor([2, 7])), (other.divisor([1, 2]), D2)):
        for function in (product_limit, minkowski_check):
            with pytest.raises(InputError, match="different model"):
                function(m, *args)
    assert len(built) == 3
    ref = weakref.ref(D1)
    gc.disable()
    try:
        del D1
        assert ref() is None
    finally:
        gc.enable()


def test_minkowski_equality_means_proportional_envelopes():
    """``minkowski_check`` reads ``exact-equality`` exactly when sigma(D1)
    and sigma(D2) are proportional: the divisorial Minkowski equality
    (Cutkosky, "The Minkowski equality of filtrations").  The cube roots
    are of ``e(D) = sigma(D)^3``, so the equality is read only where both
    multiplicities are positive.  That is every pair on the three
    geometric models (seeded pairs, one in eight with proportional
    inputs).  On the twelve generated models of the pinned seeds of
    ``test_gamma_on_generated_models``, which are not geometric, a pair
    with a multiplicity at most 0 reads ``exact`` whether or not its
    envelopes are proportional, and is counted apart; so are divisors
    that ``gamma`` refuses.  Each first divisor is also paired with a
    multiple of itself."""
    rng = random.Random(41)
    geometric = [(m, seeded_pair(m, rng)) for m, _, _ in three_model_pairs(40, 12)]
    generated = []
    for t, seed in sorted(GENERATED_PINNED):
        seeds = random.Random(seed)
        for _ in range(GENERATED_MODELS):
            m = model_from_dict(polyhedral_document(seeds, t))
            divisors = seeded_divisors(m, seeds, GENERATED_DIVISORS)
            generated += [(m, pair) for pair in zip(divisors[::2], divisors[1::2])]
    seen = Counter()
    for kind, cases in (("geometric", geometric), ("generated", generated)):
        for m, (D1, D2) in cases:
            for pair in ((D1, D2), (D1, D1 * rng.randint(2, 4))):
                try:
                    sigmas = [_sigma(m, D).envelope_divisor for D in pair]
                except ComputationError:
                    seen[kind, "refused"] += 1
                    continue
                report = minkowski_check(m, *pair)
                equality = report.cube_root_method == "exact-equality"
                if min(report.e_values[3].sign(), report.e_values[0].sign()) <= 0:
                    assert kind == "generated" and not equality, pair
                    seen[kind, "not positive"] += 1
                    continue
                assert equality == proportional(*sigmas), (m.primes, pair)
                seen[kind, equality] += 1
    assert seen == PROPORTIONALITY_COUNTS, seen
    m = builtin_model()
    report = minkowski_check(m, m.divisor([2, 1]), m.divisor([1, 1]))
    assert report.cube_root_method == "exact-equality"


# the cases of test_minkowski_equality_means_proportional_envelopes, by
# kind of model and by outcome (True: exact-equality, False: another label)
PROPORTIONALITY_COUNTS = {
    ("geometric", True): 49,
    ("geometric", False): 23,
    ("generated", True): 43,
    ("generated", False): 22,
    ("generated", "not positive"): 36,
    ("generated", "refused"): 19,
}


# SHA-256 of the product_limit coefficients and minkowski_check e-values on
# three_model_pairs(70, 12), pinned when each value was a sum of per-prime
# triple expansions
PRODUCT_AND_E_DIGEST = "255fc1554972300ef4aa7605ba9ea59babfb61ab2fe844d8b2d9e48593d1817e"


def test_product_and_e_values_keep_their_strings():
    lines = []
    for m, D1, D2 in three_model_pairs(70, 12):
        form, report = product_limit(m, D1, D2), minkowski_check(m, D1, D2)
        lines += [*form.to_json_dict().values(), *(e.canonical_string() for e in report.e_values)]
    assert len(lines) == 288
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == PRODUCT_AND_E_DIGEST


def test_divisor_with_filled_envelope_equals_fresh_one(model):
    warmed, fresh = model.divisor([1, 3]), model.divisor([1, 3])
    env = limit_single(model, warmed).gamma_used
    assert vars(warmed)["envelope"] is env and "envelope" not in vars(fresh)
    assert warmed == fresh and hash(warmed) == hash(fresh)
    assert {warmed: 1}[fresh] == 1
    assert _sigma(model, warmed) == _sigma(model, fresh) == gamma(model, fresh)


def test_divisor_with_filled_envelope_is_freed_without_the_cycle_collector(model):
    D = model.divisor([1, 3])
    assert _sigma(model, D).input == D
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
    with pytest.raises(InputError, match="different model"):
        _sigma(model, D)
    assert _sigma(other, D).model == other  # fills the cache
    with pytest.raises(InputError, match="different model"):
        limit_single(model, D)


# Each entry point called with a divisor ``D`` of another model and a
# divisor ``E`` of the model itself.  In a pair ``E`` comes first, so its
# own caches are read before ``D`` would be, except in ``minkowski_check``,
# where ``D`` is the one that would keep the pair's values.
FOREIGN_ENTRY_POINTS = {
    "add": lambda m, D, E: E + D,
    "restrict": lambda m, D, E: m.restrict(D, m.primes[0]),
    "polar": lambda m, D, E: m.polar(E, D),
    "triple": lambda m, D, E: m.triple(E, E, D),
    "gamma": lambda m, D, E: gamma(m, D),
    "is_antinef": lambda m, D, E: is_antinef(m, D),
    "regions": lambda m, D, E: regions(m, E, D),
    "limit_single": lambda m, D, E: limit_single(m, D),
    "mixed": lambda m, D, E: mixed(m, [(E, 1), (D, 2)]),
    "piecewise_limit": lambda m, D, E: piecewise_limit(m, E, D),
    "product_limit": lambda m, D, E: product_limit(m, E, D),
    "minkowski_check": lambda m, D, E: minkowski_check(m, D, E),
}


@pytest.mark.parametrize("entry", sorted(FOREIGN_ENTRY_POINTS))
@pytest.mark.parametrize("foreign", ["basis-changed", "union"])
def test_every_entry_point_refuses_a_divisor_of_another_model(entry, foreign):
    """A divisor of the basis-changed or the union model is refused by
    every entry point on the builtin model, and nothing is kept on it.
    For the basis-changed model the entry point first runs on a builtin
    divisor with the same coefficients, so ``E``'s caches hold an entry
    for them; it is refused all the same."""
    call = FOREIGN_ENTRY_POINTS[entry]
    m = builtin_model()
    E = m.divisor([1, 2])
    if foreign == "union":
        D = load_model(UNION_MODEL).divisor([2, 7, 1, 1])
    else:
        D = model_from_dict(basis_changed_document()).divisor([2, 7])
        call(m, m.divisor(D.coeffs), E)
    assert D.model != m
    with pytest.raises(InputError, match="different model"):
        call(m, D, E)
    assert set(vars(D)) == {"model", "coeffs"}


def test_kept_slots_stay_outside_value_semantics():
    """After ``piecewise_limit``, ``product_limit`` and ``minkowski_check``
    on seeded pairs of the builtin and union models, ``D1`` keeps only its
    envelope and its pairs' mixed values, ``D2`` only its envelope, and the
    model only its five per-model values.  Copies and pickles of a divisor
    and of a model with full caches compare equal and carry none of them."""
    rng = random.Random(27)
    kept = {"polar_table", "nef_systems", "validation", "linear_inverses", "anchor"}
    for m in (builtin_model(), load_model(UNION_MODEL)):
        for _ in range(4):
            D1, D2 = seeded_pair(m, rng)
            family_sweep(m, D1, D2)
            assert set(vars(D1)) == {"model", "coeffs", "envelope", "mixed_values"}
            assert set(vars(D2)) == {"model", "coeffs", "envelope"}
            assert set(vars(m)) - {*m._fields, "pairings"} <= kept
            for D in (D1, D2):
                for twin in (copy.deepcopy(D), pickle.loads(pickle.dumps(D))):
                    assert twin == D and hash(twin) == hash(D)
                    assert set(vars(twin)) == {"model", "coeffs"}
        m.validation
        assert set(vars(m)) == {*m._fields, "pairings", *kept}
        for twin in (copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
            assert twin == m and hash(twin) == hash(m)
            assert set(vars(twin)) == {*m._fields, "pairings"}


def test_a_refused_fill_keeps_nothing_and_chains_no_exception(model):
    """An envelope whose computation raises leaves the divisor's slot empty,
    and the error carries no exception from the lookup of that slot."""
    D = model.zero_divisor()
    for _ in range(2):
        with pytest.raises(InputError, match="nonzero") as info:
            limit_single(model, D)
        assert info.value.__context__ is None and "envelope" not in vars(D)
