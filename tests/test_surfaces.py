"""Surface lattices: pairing, cone membership, boundary crossings."""

import random
import re
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_qfield import exactly, unit_rich

import divfilt.surfaces
from divfilt.errors import InputError, RootOutsideFieldError
from divfilt.model import builtin_model, load_model
from divfilt.qfield import QuadNumber, quadratic_roots
from divfilt.surfaces import (
    ConeSpec,
    SurfaceLattice,
    _inverse,
    _row_reduce,
    _signature,
)

UNION_MODEL = Path(__file__).resolve().parent / "data" / "two_copy_union.json"


@pytest.fixture(scope="module")
def abelian():
    return builtin_model().surface("Sbar")


@pytest.fixture(scope="module")
def ruled():
    return builtin_model().surface("F")


def q3(a, b=0):
    return QuadNumber(Fraction(a), Fraction(b), 3)


small = st.integers(min_value=-6, max_value=6)
coords3 = st.tuples(small, small, small)


def test_cls_refuses_floats_and_bools(abelian):
    for coords in ([0.5, 1, 0], [1, True, 0], [1, 0, "2"]):
        with pytest.raises(InputError, match="int, Fraction or QuadNumber"):
            abelian.cls(coords)
    assert abelian.cls([Fraction(1, 2), 1, q3(0, 1)]).coords[0] == q3(Fraction(1, 2))


# -- pairing ----------------------------------------------------------------


def test_basis_pairings(abelian):
    A, B, Delta = (abelian.basis_class(lbl) for lbl in ("A", "B", "Delta"))
    assert A.pair(B) == 1
    assert A.pair(Delta) == 1
    assert B.pair(Delta) == 1
    assert A.pair(A) == 0
    assert B.pair(B) == 0
    assert Delta.pair(Delta) == 0


def test_ample_self_intersection(abelian):
    ample = abelian.cls([1, 1, 1])
    assert ample.pair(ample) == 6


def test_ruled_gram(ruled):
    C0, f = ruled.basis_class("C0"), ruled.basis_class("f")
    assert C0.pair(C0) == -162
    assert C0.pair(f) == 1
    assert f.pair(f) == 0


def test_pair_with_zero_class(abelian):
    zero = abelian.cls([0, 0, 0])
    assert abelian.cls([1, 2, 3]).pair(zero) == 0


def test_pair_lattice_mismatch(abelian, ruled):
    with pytest.raises(InputError):
        abelian.cls([1, 0, 0]).pair(ruled.cls([1, 0]))


@given(x=coords3, y=coords3, z=coords3, lam=small)
def test_pair_symmetric_bilinear(abelian, x, y, z, lam):
    cx, cy, cz = abelian.cls(x), abelian.cls(y), abelian.cls(z)
    assert cx.pair(cy) == cy.pair(cx)
    assert (cx + cy).pair(cz) == cx.pair(cz) + cy.pair(cz)
    assert (cx * lam).pair(cy) == lam * cx.pair(cy)


# -- cone membership ---------------------------------------------------------


def test_effective_cone_threshold_points(abelian):
    base = abelian.cls([1, 2, 3])
    ray = abelian.cls([1, 1, 1])
    assert abelian.cone_contains("eff", base - ray)  # slope 1 < 2 - sqrt(3)/3
    assert not abelian.cone_contains("eff", base - ray * 2)


def test_ruled_nef_membership(ruled):
    assert ruled.cone_contains("nef", ruled.cls([1, 162]))
    assert not ruled.cone_contains("nef", ruled.cls([1, 161]))
    assert ruled.cone_contains("eff", ruled.cls([1, 0]))
    assert not ruled.cone_contains("nef", ruled.cls([1, 0]))


def test_ample_in_own_cones(abelian, ruled):
    for surface in (abelian, ruled):
        assert surface.cone_contains("nef", surface.ample_class)
        assert surface.cone_contains("eff", surface.ample_class)
        assert surface.ample_is_strictly_interior("nef")


def test_quadratic_cone_is_closed(abelian):
    # A itself has self-intersection 0: on the boundary, still a member.
    assert abelian.cone_contains("nef", abelian.cls([1, 0, 0]))


def test_polyhedral_cone_is_closed(ruled):
    # 162a = b exactly: on the boundary, still a member.
    assert ruled.cone_contains("nef", ruled.cls([2, 324]))


@given(x=coords3, y=coords3)
@settings(max_examples=60)
def test_abelian_nef_cone_self_dual(abelian, x, y):
    cx, cy = abelian.cls(x), abelian.cls(y)
    if abelian.cone_contains("nef", cx) and abelian.cone_contains("nef", cy):
        assert cx.pair(cy).sign() >= 0


# -- cones as constraints ----------------------------------------------------


def random_vector(rng, size):
    return [
        q3(Fraction(rng.randint(-9, 9), rng.randint(1, 4)), rng.randint(-3, 3))
        for _ in range(size)
    ]


def test_constraint_idents(abelian, ruled):
    for cone in ("nef", "eff"):
        assert [c.ident for c in abelian.constraints(cone)] == ["quad", "ample"]
        assert [c.ident for c in ruled.constraints(cone)] == ["0", "1"]
    with pytest.raises(InputError, match="unknown cone name"):
        ruled.constraints("ample")


@pytest.mark.parametrize("name", ["Sbar", "F"])
@pytest.mark.parametrize("cone", ["nef", "eff"])
def test_constraint_along_matches_value(name, cone):
    surface = builtin_model().surface(name)
    rng = random.Random(11)
    for c in surface.constraints(cone):
        for _ in range(3):
            base = random_vector(rng, surface.rank)
            direction = random_vector(rng, surface.rank)
            alpha, beta, chi = c.along(base, direction)
            for s in (q3(0), q3(1), q3(-2), q3(Fraction(1, 3), -1), q3(0, 5)):
                point = [b + s * v for b, v in zip(base, direction)]
                assert alpha * s * s + beta * s + chi == c.value(point)


@pytest.mark.parametrize("name", ["Sbar", "F"])
@pytest.mark.parametrize("cone", ["nef", "eff"])
def test_constraint_pullback_matches_value(name, cone):
    surface = builtin_model().surface(name)
    rng = random.Random(12)
    for c in surface.constraints(cone):
        for size in (1, 2, 3):
            columns = [random_vector(rng, surface.rank) for _ in range(size)]
            pulled = c.pullback("pulled", columns)
            assert pulled.ident == "pulled"
            for _ in range(3):
                v = random_vector(rng, size)
                point = [
                    sum((v[i] * columns[i][k] for i in range(size)), q3(0))
                    for k in range(surface.rank)
                ]
                assert pulled.value(v) == c.value(point)


# -- boundary crossings --------------------------------------------------------


def test_quadratic_boundary_slope(abelian):
    base = abelian.cls([1, 2, 3])
    direction = -abelian.cls([1, 1, 1])
    slopes = abelian.boundary_slopes("eff", base, direction)
    assert slopes == [q3(2, Fraction(-1, 3))]


def test_quadratic_boundary_exactness(abelian):
    base = abelian.cls([1, 2, 3])
    direction = -abelian.cls([1, 1, 1])
    (t,) = abelian.boundary_slopes("eff", base, direction)
    on_boundary = base + direction * t
    assert on_boundary.pair(on_boundary) == 0
    assert abelian.cone_contains("eff", on_boundary)


def test_polyhedral_boundary_slope(ruled):
    f = ruled.cls([0, 1])
    C0 = ruled.cls([1, 0])
    slopes = ruled.boundary_slopes("nef", f, C0)
    assert slopes == [q3(Fraction(1, 162))]
    crossing = f + C0 * slopes[0]
    # the active functional (b - 162a >= 0) vanishes exactly
    assert crossing.pair(ruled.cls([0, 1])).sign() > 0  # still a nonzero class
    assert ruled.cone_contains("nef", crossing)


def test_inward_direction_never_exits(abelian):
    base = abelian.cls([1, 1, 1])
    slopes = abelian.boundary_slopes("eff", base, abelian.cls([1, 1, 1]))
    assert slopes == []


def test_base_outside_cone_rejected(abelian):
    outside = abelian.cls([-1, 0, 1])
    assert not abelian.cone_contains("eff", outside)
    with pytest.raises(InputError):
        abelian.boundary_slopes("eff", outside, abelian.cls([1, 1, 1]))


def test_zero_direction_rejected(abelian):
    with pytest.raises(InputError):
        abelian.boundary_slopes(
            "eff", abelian.cls([1, 1, 1]), abelian.cls([0, 0, 0])
        )


def test_foreign_direction_rejected(abelian, ruled):
    """A direction from another lattice is refused, whether its rank differs
    or not (the union model's ``Sbar'`` has the same rank as ``Sbar``)."""
    union = load_model(UNION_MODEL)
    base = abelian.cls([1, 2, 3])
    for direction in (ruled.cls([-1, -1]), union.surface("Sbar'").cls([0, 1, -1])):
        with pytest.raises(InputError, match="class does not belong to this lattice"):
            abelian.boundary_slopes("eff", base, direction)


def test_root_outside_field_is_hard_error():
    # gram forcing discriminant 5, not a square times the field's 3
    lattice = SurfaceLattice(
        name="bad",
        basis=("u", "v"),
        gram=((Fraction(-5), Fraction(0)), (Fraction(0), Fraction(1))),
        ample_ref=(Fraction(0), Fraction(1)),
        nef_cone=ConeSpec("quadratic", ()),
        eff_cone=ConeSpec("quadratic", ()),
        field_d=3,
    )
    base = lattice.cls([0, 1])
    direction = lattice.cls([1, 0])
    with pytest.raises(RootOutsideFieldError):
        lattice.boundary_slopes("nef", base, direction)


@pytest.mark.parametrize(
    "base, direction, expected",
    [
        pytest.param([1, 0, 0], [0, 1, -1], [0], id="tangent-at-generator"),
        pytest.param([1, 0, 0], [1, 0, 0], [], id="along-generator"),
        # x.x = 4t + 2t^2 vanishes at t = 0 but rises: the ray enters
        pytest.param([1, 0, 0], [0, 1, 1], [], id="inward-from-generator"),
        pytest.param([1, 1, 1], [-1, -1, -1], [1], id="through-apex"),
    ],
)
def test_exit_rule_on_light_cone(abelian, base, direction, expected):
    base, direction = abelian.cls(base), abelian.cls(direction)
    assert abelian.boundary_slopes("eff", base, direction) == expected


def test_exit_through_apex_is_decided_by_ample_side(abelian):
    # x.x = 6(1 - t)^2 only touches zero at t = 1; the ample side falls
    base, direction = abelian.cls([1, 1, 1]), -abelian.cls([1, 1, 1])
    past = base + direction * Fraction(5, 4)
    assert past.pair(past).sign() > 0
    assert past.pair(abelian.ample_class).sign() < 0


def sampled_exit(lattice, cone, base, direction):
    """The exit found by sampling membership between consecutive roots of
    the defining forms on the ray (and one past the last root)."""
    roots = sorted(
        {
            t
            for c in lattice.constraints(cone)
            for t in quadratic_roots(*c.along(base.coords, direction.coords)) or ()
            if t.sign() >= 0
        }
    )
    for left, right in zip(roots, [*roots[1:], None]):
        sample = left + 1 if right is None else (left + right) / 2
        if not lattice.cone_contains(cone, base + direction * sample):
            return [left]
    return []


@given(x=coords3)
@settings(max_examples=40)
def test_boundary_points_are_members(abelian, x):
    base = abelian.cls([1, 1, 1])
    direction = abelian.cls(x)
    if direction.is_zero():
        return
    try:
        slopes = abelian.boundary_slopes("eff", base, direction)
    except RootOutsideFieldError:
        return  # crossing exists but is not representable in Q(sqrt(3))
    assert slopes == sampled_exit(abelian, "eff", base, direction)
    for t in slopes:
        assert t.sign() >= 0
        point = base + direction * t
        assert abelian.cone_contains("eff", point)
        self_int = point.pair(point)
        ample_side = point.pair(abelian.ample_class)
        assert self_int.sign() == 0 or ample_side.sign() == 0
        # the ray's members form an interval, so any step past t leaves
        just_past = base + direction * (t + Fraction(1, 10**9))
        assert not abelian.cone_contains("eff", just_past)


# -- construction validation --------------------------------------------------


def test_asymmetric_gram_rejected():
    with pytest.raises(InputError, match="gram not symmetric"):
        SurfaceLattice(
            name="bad",
            basis=("u", "v"),
            gram=((Fraction(0), Fraction(1)), (Fraction(2), Fraction(0))),
            ample_ref=(Fraction(1), Fraction(1)),
            nef_cone=ConeSpec("quadratic", ()),
            eff_cone=ConeSpec("quadratic", ()),
            field_d=3,
        )


def test_empty_basis_rejected():
    with pytest.raises(InputError, match="basis is empty"):
        SurfaceLattice(
            name="bad",
            basis=(),
            gram=(),
            ample_ref=(),
            nef_cone=ConeSpec("quadratic", ()),
            eff_cone=ConeSpec("quadratic", ()),
            field_d=3,
        )


def test_duplicate_basis_rejected():
    with pytest.raises(InputError):
        SurfaceLattice(
            name="bad",
            basis=("u", "u"),
            gram=((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))),
            ample_ref=(Fraction(1), Fraction(1)),
            nef_cone=ConeSpec("quadratic", ()),
            eff_cone=ConeSpec("quadratic", ()),
            field_d=3,
        )


@pytest.mark.parametrize(
    "gram, signature",
    [
        ([[1, 0], [0, 1]], (2, 0)),
        ([[-1, 0], [0, -1]], (0, 2)),
        ([[1, 0], [0, 0]], (1, 0)),
        ([[0, 0], [0, 0]], (0, 0)),
    ],
)
def test_quadratic_cone_needs_hyperbolic_gram(gram, signature):
    expected = f"signature (1, 1), got {signature}"
    with pytest.raises(InputError, match=re.escape(expected)):
        SurfaceLattice(
            name="bad",
            basis=("u", "v"),
            gram=gram,
            ample_ref=(1, 1),
            nef_cone=ConeSpec("quadratic", ()),
            eff_cone=ConeSpec("quadratic", ()),
            field_d=3,
        )


@pytest.mark.parametrize(
    "gram, signature",
    [
        ([[0, 1, 1], [1, 0, 1], [1, 1, 0]], (1, 2)),
        ([[0, 1], [1, 0]], (1, 1)),
        ([[2, 1], [1, 2]], (2, 0)),
        ([[0, 0, 1], [0, -1, 0], [1, 0, 0]], (1, 2)),
        ([[1, 2, 0], [2, 1, 0], [0, 0, 0]], (1, 1)),
    ],
)
def test_signature_by_congruence(gram, signature):
    matrix = [[QuadNumber.in_field(x, 3) for x in row] for row in gram]
    assert _signature(matrix) == signature


def test_builtin_and_changed_quadratic_surfaces_are_hyperbolic():
    from test_model import basis_changed_document

    from divfilt.model import model_from_dict

    for m in (builtin_model(), model_from_dict(basis_changed_document())):
        sbar = m.surface("Sbar")
        assert _signature(sbar.gram) == (1, 2)


# -- Gauss-Jordan against the unskipped loop ---------------------------------------


def reference_row_reduce(aug, ncols):
    """``_row_reduce`` before it skipped unit pivots and zero multiples."""
    pivot_cols: list[int] = []
    row = 0
    for col in range(ncols):
        pivot = next(
            (r for r in range(row, len(aug)) if aug[r][col].sign() != 0), None
        )
        if pivot is None:
            continue
        aug[row], aug[pivot] = aug[pivot], aug[row]
        inv = aug[row][col].inverse()
        aug[row] = [x * inv for x in aug[row]]
        for r in range(len(aug)):
            if r != row and aug[r][col].sign() != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[row])]
        pivot_cols.append(col)
        row += 1
        if row == len(aug):
            break
    return pivot_cols


def reference_solve(rows, nvars, d):
    """Solve the equations ``coeffs . v = rhs`` of ``rows`` over
    Q(sqrt(d)) with the reference loop.  Returns None when inconsistent,
    else a particular solution and a basis of the null space (empty basis
    = unique solution)."""
    zero, one = QuadNumber.zero(d), QuadNumber.one(d)
    aug = [[*coeffs, rhs] for coeffs, rhs in rows]
    pivot_cols = reference_row_reduce(aug, nvars)
    if any(row[nvars].sign() != 0 for row in aug[len(pivot_cols) :]):
        return None
    particular = [zero] * nvars
    for row, col in zip(aug, pivot_cols):
        particular[col] = row[nvars]
    null_basis = []
    for free_col in (c for c in range(nvars) if c not in pivot_cols):
        vec = [zero] * nvars
        vec[free_col] = one
        for row, col in zip(aug, pivot_cols):
            vec[col] = -row[free_col]
        null_basis.append(vec)
    return particular, null_basis


def exact_solution(result):
    """A nested result of ``reference_solve``, ``_row_reduce`` or
    ``_inverse``, each element as its stored parts, or None."""
    if result is None:
        return None
    if isinstance(result, QuadNumber):
        return exactly(result)
    return tuple(exact_solution(x) for x in result)


def assert_matches_reference(monkeypatch, rows, nvars, d):
    """``_row_reduce`` on the augmented matrix of ``rows`` gives the
    reference loop's pivots and reduced matrix, and ``_inverse`` of their
    coefficient matrix, when square, equals the reference loop's; returns
    the reference solution."""
    matrix = [coeffs for coeffs, _ in rows]
    square = len(matrix) == nvars
    aug = [[*coeffs, rhs] for coeffs, rhs in rows]
    expected = [row[:] for row in aug]
    assert _row_reduce(aug, nvars) == reference_row_reduce(expected, nvars), rows
    assert exact_solution(aug) == exact_solution(expected), rows
    inverse = _inverse(matrix, d) if square else None
    with monkeypatch.context() as patched:
        patched.setattr(divfilt.surfaces, "_row_reduce", reference_row_reduce)
        expected_inverse = _inverse(matrix, d) if square else None
    assert exact_solution(inverse) == exact_solution(expected_inverse), matrix
    return reference_solve(rows, nvars, d)


@pytest.mark.parametrize("d", [2, 3])
def test_row_reduce_matches_the_unskipped_loop(monkeypatch, d):
    """Seeded systems rich in exact 0 and +-1, with unit rows, zero
    columns, and singular and inconsistent copies, over two fields."""
    rng = random.Random(40 + d)
    zero, one = QuadNumber.zero(d), QuadNumber.one(d)
    kinds = {"unique": 0, "free": 0, "none": 0}
    for _ in range(150):
        nvars = rng.randint(1, 4)
        nrows = rng.choice((nvars, nvars, rng.randint(1, 5)))
        rows = []
        for _ in range(nrows):
            if rng.random() < 0.3:
                k = rng.randrange(nvars)
                coeffs = tuple(one if i == k else zero for i in range(nvars))
            else:
                coeffs = tuple(unit_rich(rng, d) for _ in range(nvars))
            rows.append((coeffs, unit_rich(rng, d)))
        if rng.random() < 0.3:
            col = rng.randrange(nvars)
            rows = [
                (tuple(zero if i == col else x for i, x in enumerate(c)), rhs)
                for c, rhs in rows
            ]
        solved = assert_matches_reference(monkeypatch, rows, nvars, d)
        kinds["none" if solved is None else "free" if solved[1] else "unique"] += 1
        # a multiple of a row changes nothing; moving its right side makes
        # the system inconsistent
        coeffs, rhs = rows[rng.randrange(nrows)]
        factor = unit_rich(rng, d) or -one
        scaled = tuple(factor * x for x in coeffs)
        dependent = rows + [(scaled, factor * rhs)]
        again = assert_matches_reference(monkeypatch, dependent, nvars, d)
        assert exact_solution(again) == exact_solution(solved)
        inconsistent = rows + [(scaled, factor * rhs + 1)]
        moved = assert_matches_reference(monkeypatch, inconsistent, nvars, d)
        assert moved is None or not any(coeffs)
    assert min(kinds.values()) >= 10, kinds


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_inverse_of_identity_and_singular_matrices(monkeypatch, n):
    zero, one = QuadNumber.zero(3), QuadNumber.one(3)
    identity = [[one if i == j else zero for j in range(n)] for i in range(n)]
    assert exact_solution(_inverse(identity, 3)) == exact_solution(identity)
    reversed_rows = identity[::-1]
    assert _inverse(reversed_rows, 3) == reversed_rows
    singular = [row[:] for row in identity]
    singular[-1] = [zero] * n
    assert _inverse(singular, 3) is None
    zero_rhs = [(tuple(row), zero) for row in identity]
    assert assert_matches_reference(monkeypatch, zero_rhs, n, 3) == ([zero] * n, [])


def test_union_block_diagonal_systems_match_the_unskipped_loop(monkeypatch):
    """The 4x4 systems of the two-copy union, in which no row couples the
    two copies: its pairings and contractions (block-diagonal), and every
    four of its unit bound rows and nef gradients at seeded points, as the
    certificates solve them."""
    # imported here: test_multiplicity imports this module through test_envelope
    from test_multiplicity import contraction

    union = load_model(UNION_MODEL)
    rng = random.Random(44)
    zero, one = QuadNumber.zero(3), QuadNumber.one(3)
    units = [tuple(one if i == k else zero for i in range(4)) for k in range(4)]
    matrices = list(union.pairings)
    for _ in range(4):
        D = union.divisor([rng.randint(0, 3) for _ in range(4)])
        matrices.append(contraction(union, D))
    for _ in range(4):
        point = [q3(rng.randint(1, 9), rng.randint(0, 2)) for _ in range(4)]
        grads = units + [c.gradient(point) for c in union.nef_systems]
        matrices.extend(list(subset) for subset in combinations(grads, 4))
    outcomes = set()
    for matrix in matrices:
        # no row couples the two copies
        assert not any(any(row[:2]) and any(row[2:]) for row in matrix), matrix
        rows = [(tuple(row), unit_rich(rng, 3)) for row in matrix]
        solved = assert_matches_reference(monkeypatch, rows, 4, 3)
        outcomes.add(solved is not None and not solved[1])
    assert outcomes == {True, False}
