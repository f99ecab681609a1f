"""Exact quadratic-field arithmetic: frozen values and algebraic laws."""

import copy
import math
import operator
import pickle
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import divfilt.qfield
from divfilt import (
    DiscriminantMismatchError,
    InputError,
    ParseError,
    QuadNumber,
    RootOutsideFieldError,
    field_sqrt,
    parse_scalar,
    rational_sqrt,
    scalar_from_json,
    scalar_to_json,
    sqrt_in_field,
)
from divfilt.qfield import bilinear, dot, quadratic_roots, times


def q3(a, b=0):
    return QuadNumber(Fraction(a), Fraction(b), 3)


rationals = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 24))
quads = st.builds(q3, rationals, rationals)
nonzero_quads = quads.filter(bool)


# --- frozen examples -------------------------------------------------------


def test_product_of_reciprocal_threshold_slopes_is_one():
    x = q3(Fraction(9, 26), Fraction(1, 26))
    y = q3(3, Fraction(-1, 3))
    assert x * y == 1


def test_ceil_of_ten_root_two():
    x = QuadNumber(Fraction(0), Fraction(10), 2)
    assert math.ceil(x) == 15


def test_ceil_of_root_two():
    assert math.ceil(QuadNumber(Fraction(0), Fraction(1), 2)) == 2


def test_sqrt_in_field_examples():
    root = sqrt_in_field(12, 3)
    assert root == q3(0, 2)
    assert root * root == 12
    assert sqrt_in_field(2, 3) is None
    assert sqrt_in_field(Fraction(9, 4), 3) == Fraction(3, 2)
    assert sqrt_in_field(0, 3) == 0


def test_canonical_string_examples():
    assert q3(Fraction(2007, 169), Fraction(-9, 338)).canonical_string() == (
        "2007/169 - 9/338*sqrt(3)"
    )
    assert q3(Fraction(9, 26), Fraction(1, 26)).canonical_string() == (
        "9/26 + 1/26*sqrt(3)"
    )
    assert q3(0).canonical_string() == "0"
    assert q3(33).canonical_string() == "33"
    assert q3(0, 1).canonical_string() == "sqrt(3)"
    assert q3(0, -1).canonical_string() == "-sqrt(3)"
    assert q3(0, Fraction(1, 26)).canonical_string() == "1/26*sqrt(3)"
    assert q3(-2, -3).canonical_string() == "-2 - 3*sqrt(3)"


def test_parse_scalar_accepts_whitespace_variants():
    assert parse_scalar(" 2007/169  -  9/338 * sqrt(3) ".replace(" * ", "*"), 3) == q3(
        Fraction(2007, 169), Fraction(-9, 338)
    )
    assert parse_scalar("-5/3", 3) == q3(Fraction(-5, 3))
    assert parse_scalar("7", 2) == QuadNumber(Fraction(7), Fraction(0), 2)
    assert parse_scalar("-sqrt(3)", 3) == q3(0, -1)
    assert parse_scalar("1 + sqrt(3)", 3) == q3(1, 1)


def test_parse_scalar_rejects_garbage_and_wrong_root():
    with pytest.raises(ParseError):
        parse_scalar("", 3)
    with pytest.raises(ParseError):
        parse_scalar("1 + sqrt(two)", 3)
    with pytest.raises(ParseError):
        parse_scalar("sqrt(2)", 3)
    with pytest.raises(ParseError):
        parse_scalar("1 ++ sqrt(3)", 3)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("+5", q3(5)),
        ("+2*sqrt(3)", q3(0, 2)),
        ("1/2-1/2*sqrt(3)", q3(Fraction(1, 2), Fraction(-1, 2))),
        ("1sqrt(3)", "cannot parse scalar '1sqrt(3)'"),
        ("1+-sqrt(3)", "cannot parse scalar '1+-sqrt(3)'"),
        ("sqrt(3)+1", "cannot parse scalar 'sqrt(3)+1'"),
        ("1+", "cannot parse scalar '1+'"),
        ("2*", "cannot parse scalar '2*'"),
        ("1/0+sqrt(2)", "expected sqrt(3), found sqrt(2)"),
    ],
)
def test_parse_scalar_grammar_edges(text, expected):
    """A leading sign on a lone rational or root term is accepted, a root
    term after a rational needs exactly one sign, and the root's
    discriminant is checked before the rational part is read."""
    if isinstance(expected, str):
        with pytest.raises(ParseError, match=re.escape(expected)):
            parse_scalar(text, 3)
    else:
        assert exactly(parse_scalar(text, 3)) == exactly(expected)


@pytest.mark.parametrize("value", [0.5, 2.0, True, "1", None, 1j])
def test_rational_and_in_field_refuse_non_scalars(value):
    """Only ints, Fractions and QuadNumbers are scalars; the constructor
    keeps ``Fraction``'s own conversions (``QuadNumber("0", 0, 2)``)."""
    for make in (QuadNumber.rational, QuadNumber.in_field):
        with pytest.raises(InputError, match="int, Fraction or QuadNumber"):
            make(value, 3)
    assert QuadNumber.in_field(Fraction(1, 2), 3) == QuadNumber.rational(Fraction(1, 2), 3)
    assert QuadNumber.in_field(q3(0, 1), 3) == q3(0, 1)


def test_discriminant_must_be_squarefree():
    with pytest.raises(ValueError):
        QuadNumber(Fraction(1), Fraction(1), 4)
    with pytest.raises(ValueError):
        QuadNumber(Fraction(1), Fraction(1), 18)
    with pytest.raises(ValueError):
        QuadNumber(Fraction(1), Fraction(1), 1)


@pytest.mark.parametrize("cached", [False, True])
def test_float_discriminant_refused_in_both_cache_states(monkeypatch, cached):
    """3.0 == 3, so the type is checked before the cache of squarefree ints."""
    monkeypatch.setattr(divfilt.qfield, "_SQUAREFREE_CACHE", {3} if cached else set())
    for d in (3.0, Fraction(3)):
        with pytest.raises(ValueError, match="integer >= 2"):
            QuadNumber(1, 1, d)
    assert str(QuadNumber(1, 1, 3)) == "1 + sqrt(3)"
    assert divfilt.qfield._SQUAREFREE_CACHE == {3}


def test_mixing_distinct_irrationalities_raises():
    r2 = QuadNumber(Fraction(0), Fraction(1), 2)
    r3 = q3(0, 1)
    with pytest.raises(DiscriminantMismatchError):
        r2 + r3
    for mix in (lambda x, y: x - y, lambda x, y: x * y, lambda x, y: x / y):
        with pytest.raises(DiscriminantMismatchError):
            mix(r2, r3)
    # A rational tagged with another field mixes freely, on either side,
    # and the result lies in the irrational's field.
    five = QuadNumber(Fraction(5), Fraction(0), 2)
    assert exactly(five + r3) == exactly(q3(5, 1))
    assert exactly(five - r3) == exactly(q3(5, -1))
    assert exactly(five * r3) == exactly(q3(0, 5))
    assert exactly(five / r3) == exactly(q3(0, Fraction(5, 3)))
    assert exactly(five.__rtruediv__(r3)) == exactly(q3(0, Fraction(1, 5)))
    assert exactly(r3 - five) == exactly(q3(-5, 1))
    assert exactly(r3 / five) == exactly(q3(0, Fraction(1, 5)))


@pytest.mark.parametrize(
    "text", ["1/0", "2/0*sqrt(3)", "1/00 - sqrt(3)", "1+1/0*sqrt(3)"]
)
def test_parse_scalar_zero_denominator(text):
    with pytest.raises(ParseError, match="zero denominator"):
        parse_scalar(text, 3)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        q3(1, 1) / q3(0)


def test_rational_interop():
    assert q3(5) == 5
    assert hash(q3(5)) == hash(5)
    assert hash(q3(Fraction(5, 2))) == hash(Fraction(5, 2))
    assert q3(0, 1) > Fraction(3, 2)
    assert q3(0, 1) < 2
    assert 2 - q3(0, 1) == q3(2, -1)
    assert 3 / q3(0, 1) == q3(0, 1)
    assert q3(Fraction(1, 2)) + Fraction(1, 2) == 1


# --- algebraic laws --------------------------------------------------------


@given(quads, quads, quads)
def test_ring_laws(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x - x == q3(0)


@given(quads, nonzero_quads)
def test_division_inverts_multiplication(x, y):
    assert (x / y) * y == x
    assert y * y.inverse() == 1


@given(quads, quads)
def test_norm_is_multiplicative(x, y):
    assert (x * y).norm() == x.norm() * y.norm()
    assert x * x.conjugate() == QuadNumber(x.norm(), Fraction(0), 3)


@given(quads)
def test_sign_matches_comparisons(x):
    s = x.sign()
    assert s in (-1, 0, 1)
    assert (x > 0) == (s == 1)
    assert (x < 0) == (s == -1)
    assert (x == 0) == (s == 0)
    assert (-x).sign() == -s


@given(quads, quads)
def test_sign_of_product(x, y):
    assert (x * y).sign() == x.sign() * y.sign()


@given(quads, quads, quads)
def test_order_is_transitive(x, y, z):
    lo, mid, hi = sorted([x, y, z])
    assert lo <= mid <= hi
    assert lo <= hi


@given(quads)
def test_ceil_bracket(x):
    k = math.ceil(x)
    assert x <= k
    assert x > k - 1
    assert math.floor(x) == -math.ceil(-x)
    assert math.floor(x) <= x < math.floor(x) + 1


# ~60-digit numerators and denominators, far past float precision
big_rationals = st.builds(
    Fraction, st.integers(-(10**60), 10**60), st.integers(1, 10**60)
)


@given(
    a=big_rationals,
    b=big_rationals,
    b_sign=st.sampled_from([-1, 0, 1]),
    d=st.sampled_from([2, 3, 5, 999999999989]),
)
def test_floor_ceil_bracket_beyond_float_precision(a, b, b_sign, d):
    x = QuadNumber(a, b_sign * abs(b), d)
    k = math.floor(x)
    assert k <= x < k + 1
    assert math.ceil(x) == (k if x == k else k + 1)


def test_floor_ceil_of_pell_gaps():
    # p^2 - 2q^2 = 1, so p - q*sqrt(2) = 1/(p + q*sqrt(2)) is below 10**-60
    p, q = 3, 2
    while p < 10**60:
        p, q = 3 * p + 4 * q, 2 * p + 3 * q
    gap = QuadNumber(p, -q, 2)
    assert (math.floor(gap), math.ceil(gap)) == (0, 1)
    assert (math.floor(-gap), math.ceil(-gap)) == (-1, 0)
    assert (math.floor(gap + p), math.ceil(gap - p)) == (p, 1 - p)


@given(quads)
def test_canonical_string_round_trips(x):
    assert parse_scalar(x.canonical_string(), 3) == x


@given(quads)
def test_json_round_trips(x):
    assert scalar_from_json(scalar_to_json(x), 3) == x


@given(rationals)
def test_sqrt_in_field_finds_rational_squares(r):
    got = sqrt_in_field(r * r, 3)
    assert got is not None
    assert got == abs(r)


@given(rationals)
def test_sqrt_in_field_finds_root_d_multiples(r):
    got = sqrt_in_field(3 * r * r, 3)
    assert got is not None
    assert got * got == 3 * r * r


@given(quads)
def test_field_sqrt_inverts_squaring(x):
    root = field_sqrt(x * x)
    assert root is not None
    assert root == abs(x)


@given(st.one_of(quads, quads.map(lambda x: x * x)))
def test_field_sqrt_is_a_root_or_none(x):
    """On any element, square or not, ``field_sqrt`` returns None or a
    nonnegative root, which it does not square to check itself."""
    root = field_sqrt(x)
    assert root is None or (root >= 0 and root * root == x)


def test_field_sqrt_absent_cases():
    assert field_sqrt(q3(-1)) is None
    assert field_sqrt(q3(2)) is None          # sqrt(2) not in Q(sqrt(3))
    assert field_sqrt(q3(1, 1)) is None       # norm 1 - 3 < 0 is not a square


def test_quadratic_roots_cases():
    zero = q3(0)
    assert quadratic_roots(zero, zero, zero) is None  # holds for every s
    assert quadratic_roots(zero, zero, q3(1)) == []
    assert quadratic_roots(q3(1), zero, q3(1)) == []  # s^2 + 1: disc < 0
    assert quadratic_roots(q3(1), q3(-2), q3(1)) == [q3(1)]  # (s - 1)^2
    with pytest.raises(RootOutsideFieldError):
        quadratic_roots(q3(1), zero, q3(-2))  # s = ±sqrt(2), not in Q(sqrt(3))


@given(quads, st.integers(0, 6))
def test_integer_powers(x, n):
    expected = q3(1)
    for _ in range(n):
        expected = expected * x
    assert x**n == expected


@pytest.mark.parametrize("n", range(-3, 9))
def test_power_is_the_repeated_product_by_square_and_multiply(monkeypatch, n):
    """``x**n`` equals the ``|n|``-fold product of ``x`` (of its inverse for
    ``n < 0``); for ``n >= 1`` it squares once per bit after the leading one
    and multiplies once per further set bit, and no more."""
    x = q3(Fraction(2, 3), Fraction(-1, 5))
    base = x if n >= 0 else x.inverse()
    expected = q3(1)
    for _ in range(abs(n)):
        expected = expected * base
    calls = []
    real = QuadNumber.__mul__

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(QuadNumber, "__mul__", counted)
    monkeypatch.setattr(QuadNumber, "__rmul__", counted)
    assert x**n == expected
    if n >= 1:
        assert len(calls) == n.bit_length() - 1 + n.bit_count() - 1


def test_scalar_from_json_accepts_ints_and_rejects_junk():
    assert scalar_from_json(7, 3) == 7
    assert scalar_from_json("7/2", 3) == Fraction(7, 2)
    assert scalar_from_json({"a": "1/2", "b": "-3"}, 3) == q3(Fraction(1, 2), -3)
    assert scalar_from_json({"a": 1, "b": " -1/2 "}, 3) == q3(1, Fraction(-1, 2))
    assert scalar_from_json({"b": 2}, 3) == q3(0, 2)
    for junk in (0.5, "1.5", "1e3", "1_000", {"a": 0.1, "b": 1}, {"a": 1, "b": "2.0"}):
        with pytest.raises(ParseError, match='expected an integer, a "p/q" string'):
            scalar_from_json(junk, 3)
    with pytest.raises(ParseError):
        scalar_from_json(True, 3)
    with pytest.raises(ParseError):
        scalar_from_json({"a": "1", "c": "2"}, 3)
    with pytest.raises(ParseError):
        scalar_from_json("one", 3)
    with pytest.raises(ParseError):
        scalar_from_json([1, 2], 3)
    # keys of mixed types, as a Python caller may pass them
    with pytest.raises(ParseError, match=r"^unknown scalar fields \[2, 'z'\]$"):
        scalar_from_json({"a": 1, 2: 3, "z": 1}, 3)


def test_math_ceil_floor_protocols():
    x = q3(Fraction(7, 2), Fraction(-1, 5))  # 7/2 - sqrt(3)/5 = 3.15...
    assert math.ceil(x) == 4
    assert math.floor(x) == 3


def test_rational_sqrt():
    assert rational_sqrt(Fraction(54756, 28561)) == Fraction(234, 169)
    assert rational_sqrt(2) is None
    assert rational_sqrt(-4) is None


# --- the shared zero part ----------------------------------------------------


def test_zero_parts_share_one_fraction():
    zero = QuadNumber.rational(5, 3).b
    assert zero == 0 and QuadNumber.rational(7, 3).b is zero
    assert q3(0).a is zero and q3(0, 2).a is zero and (-q3(4)).b is zero
    assert (q3(1, 1) - q3(1, 1)).a is zero
    assert QuadNumber("0", Fraction(0, 5), 2).b is zero


@pytest.mark.parametrize("junk", ["", "nan", "inf", "1.5.2", float("nan"), float("inf")])
def test_malformed_parts_still_raise(junk):
    with pytest.raises(Exception) as fraction_error:
        Fraction(junk)
    for parts in ((junk, 0), (0, junk)):
        with pytest.raises(fraction_error.type) as error:
            QuadNumber(*parts, 3)
        assert str(error.value) == str(fraction_error.value)


@pytest.mark.parametrize(
    "x, text, same_hash",
    [
        (q3(0), "QuadNumber('0', d=3)", 0),
        (q3(Fraction(-5, 3)), "QuadNumber('-5/3', d=3)", Fraction(-5, 3)),
        (q3(2, Fraction(-9, 338)), "QuadNumber('2 - 9/338*sqrt(3)', d=3)", None),
        (q3(0, 1), "QuadNumber('sqrt(3)', d=3)", None),
    ],
)
def test_zero_rational_and_irrational_values_copy_and_compare(x, text, same_hash):
    assert repr(x) == text
    if same_hash is not None:
        assert x == same_hash and hash(x) == hash(same_hash)
    else:
        assert hash(x) == hash((x.a, x.b, 3))
    shared = QuadNumber.zero(3).a
    for copied in (copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert copied == x and hash(copied) == hash(x) and repr(copied) == text
        assert (copied.a, copied.b, copied.d) == (x.a, x.b, x.d)
        # copies rebuild through __init__, so their zero parts are shared too
        for part in (copied.a, copied.b):
            assert part is shared or part != 0


# --- the vector kernels against the unskipped loop ------------------------------


def reference_dot(u, v):
    """``dot`` before it skipped exact zeros and ones: every product."""
    terms = map(operator.mul, u, v)
    total = next(terms)
    for term in terms:
        total = total + term
    return total


def reference_bilinear(matrix, u, v):
    return reference_dot(u, [reference_dot(row, v) for row in matrix])


def exactly(x):
    """The stored parts of ``x``, field included."""
    return x.a, x.b, x.d


def unit_rich(rng, d):
    """An element of Q(sqrt(d)) that is 0 or +-1 about half the time."""
    kind = rng.randrange(6)
    if kind < 3:
        return QuadNumber((0, 1, -1)[kind], 0, d)
    a = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    b = Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if kind == 5 else 0
    return QuadNumber(a, b, d)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_dot_and_bilinear_match_the_unskipped_loop(d):
    """``dot``, ``bilinear`` and ``times`` equal the plain products; ``times``
    hands back one of its factors when either is an exact 0 or 1."""
    rng = random.Random(d)
    zero, one = QuadNumber.zero(d), QuadNumber.one(d)
    for _ in range(300):
        n = rng.randint(1, 5)
        u, v = ([unit_rich(rng, d) for _ in range(n)] for _ in range(2))
        k = rng.randrange(n)
        unit = [one if i == k else zero for i in range(n)]
        for x, y in ((u, v), (unit, v), (u, unit), ([zero] * n, v), (u, [-one] * n)):
            assert exactly(dot(x, y)) == exactly(reference_dot(x, y)), (x, y)
            for a, b in zip(x, y):
                product = times(a, b)
                assert product == a * b, (a, b)
                if a in (0, 1) or b in (0, 1):  # taken, not multiplied
                    assert product is a or product is b, (a, b)
        matrix = [[unit_rich(rng, d) for _ in range(n)] for _ in range(n)]
        identity = [[one if i == j else zero for j in range(n)] for i in range(n)]
        for m in (matrix, identity, [[zero] * n] * n):
            assert exactly(bilinear(m, u, v)) == exactly(reference_bilinear(m, u, v))


@pytest.mark.parametrize("d", [2, 3, 5])
def test_dot_without_a_nonzero_product_is_zero_of_the_field(d):
    zero, one, root = QuadNumber.zero(d), QuadNumber.one(d), QuadNumber.sqrt_d(d)
    for u, v in (([zero], [root]), ([zero, one, zero], [root, zero, one]), ([one], [zero])):
        result = dot(u, v)
        assert exactly(result) == (0, 0, d)
        assert exactly(result) == exactly(reference_dot(u, v))


@pytest.mark.parametrize("d", [2, 3, 5])
def test_scaling_by_a_rational_matches_the_coerced_path(d):
    """``x * s``, ``s * x`` and ``x / s`` for an int, bool or Fraction ``s``
    scale both parts directly; they equal, part for part, the product and
    quotient with ``s`` brought into the field first, and a zero ``s``
    raises the same ``ZeroDivisionError``."""
    rng = random.Random(d)
    scalars = [0, 1, -1, True, False, Fraction(0), Fraction(1), Fraction(-1)]
    scalars += [rng.randint(-50, 50) for _ in range(20)]
    scalars += [Fraction(rng.randint(-50, 50), rng.randint(1, 12)) for _ in range(20)]
    for _ in range(40):
        x = unit_rich(rng, d)
        for s in scalars:
            in_field = QuadNumber(Fraction(s), 0, d)
            results = [x * s, s * x]
            assert exactly(x * s) == exactly(s * x) == exactly(x * in_field), (x, s)
            if s:
                results.append(x / s)
                assert exactly(x / s) == exactly(x / in_field), (x, s)
            else:
                with pytest.raises(ZeroDivisionError) as direct:
                    x / s
                with pytest.raises(ZeroDivisionError) as coerced:
                    x / in_field
                assert str(direct.value) == str(coerced.value)
            assert all(type(y.a) is type(y.b) is Fraction for y in results)


def test_dot_takes_the_other_factor_of_a_one():
    x = q3(Fraction(9, 26), Fraction(1, 26))
    assert dot([q3(1)], [x]) is x and dot([x, q3(0)], [q3(1), x]) is x
