"""Divisor-class lattices on surfaces.

A :class:`SurfaceLattice` is a free module over a named basis of curve
classes together with the symmetric intersection pairing (Gram matrix) and
two distinguished cones — nef and effective.  Cones come in two kinds:

* ``polyhedral``: cut out by finitely many linear functionals, membership
  meaning every functional is ``>= 0``;
* ``quadratic``: the component of ``{x : (x.x) >= 0}`` selected by pairing
  nonnegatively with a designated ample class (the standard picture on an
  abelian surface, where nef = effective = one half of the light cone).

:meth:`SurfaceLattice.constraints` is the one place that turns a cone into
inequalities: a list of :class:`LinearConstraint` and
:class:`QuadraticConstraint` objects.  Membership, strict interiority of
the ample class and the boundary crossings of a ray all evaluate that
list, and the envelope solver pulls the same constraints back to the
coefficients of exceptional divisors.

Constraints taken as equalities are solved by one exact Gauss-Jordan
elimination (``_row_reduce``, behind ``_solve_linear_rows`` and
``_inverse``).  Its rows are mostly unit vectors, so it scales no row by
a pivot that is exactly 1, scales no zero entry, and subtracts no
multiple of a row from an entry where that row is zero.

Both cones are CLOSED: boundary classes are members.  Downstream limit
formulas are continuous across the boundaries, which makes the closed
convention the consistent one, and it keeps membership decidable by exact
sign tests alone.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Sequence, Union

from .errors import InputError
from .frozen import Frozen
from .qfield import QuadNumber, ScalarLike, bilinear, dot, quadratic_roots

POLYHEDRAL = "polyhedral"
QUADRATIC = "quadratic"

Vector = Sequence[QuadNumber]
Quadratic = tuple[QuadNumber, QuadNumber, QuadNumber]


class LinearConstraint(NamedTuple):
    """The affine inequality ``coeffs . v + const >= 0``."""

    ident: str
    coeffs: tuple[QuadNumber, ...]
    const: QuadNumber

    def value(self, point: Vector) -> QuadNumber:
        return self.const + dot(self.coeffs, point)

    def gradient(self, point: Vector) -> tuple[QuadNumber, ...]:
        return self.coeffs

    def along(self, base: Vector, direction: Vector) -> Quadratic:
        """``value(base + s*direction)`` as ``alpha s^2 + beta s + chi``."""
        zero = QuadNumber.zero(self.const.d)
        return (zero, dot(self.coeffs, direction), self.value(base))

    def pullback(self, ident: str, columns: Sequence[Vector]) -> "LinearConstraint":
        """The constraint on ``v`` at the point ``sum v_i columns[i]``."""
        return LinearConstraint(
            ident, tuple(dot(self.coeffs, column) for column in columns), self.const
        )


class QuadraticConstraint(NamedTuple):
    """The homogeneous inequality ``v^T matrix v >= 0`` (matrix symmetric)."""

    ident: str
    matrix: tuple[tuple[QuadNumber, ...], ...]

    def value(self, point: Vector) -> QuadNumber:
        return bilinear(self.matrix, point, point)

    def gradient(self, point: Vector) -> tuple[QuadNumber, ...]:
        return tuple(2 * dot(row, point) for row in self.matrix)

    def along(self, base: Vector, direction: Vector) -> Quadratic:
        """``value(base + s*direction)`` as ``alpha s^2 + beta s + chi``."""
        return (
            bilinear(self.matrix, direction, direction),
            2 * bilinear(self.matrix, base, direction),
            bilinear(self.matrix, base, base),
        )

    def pullback(self, ident: str, columns: Sequence[Vector]) -> "QuadraticConstraint":
        """The constraint on ``v`` at the point ``sum v_i columns[i]``."""
        return QuadraticConstraint(
            ident,
            tuple(
                tuple(bilinear(self.matrix, ci, cj) for cj in columns)
                for ci in columns
            ),
        )


Constraint = Union[LinearConstraint, QuadraticConstraint]
Point = tuple[QuadNumber, ...]


def _falls_past(along: Quadratic, lo: QuadNumber) -> bool:
    """Whether ``alpha r^2 + beta r + chi``, zero at ``lo``, is negative
    just above ``lo``: its derivative ``2 alpha lo + beta`` there is
    negative, or zero with ``alpha < 0``."""
    alpha, beta, _ = along
    slope = (2 * alpha * lo + beta).sign()
    return slope < 0 or (slope == 0 and alpha.sign() < 0)


# ---------------------------------------------------------------------------
# constraints taken as equalities


def _row_reduce(aug: list[list[QuadNumber]], ncols: int) -> list[int]:
    """Gauss-Jordan over Q(sqrt(d)) on the first ``ncols`` columns of
    ``aug``, in place; returns the pivot columns, one per leading row."""
    pivot_cols: list[int] = []
    row = 0
    for col in range(ncols):
        pivot = next(
            (r for r in range(row, len(aug)) if aug[r][col].sign() != 0), None
        )
        if pivot is None:
            continue
        aug[row], aug[pivot] = aug[pivot], aug[row]
        if aug[row][col] != 1:
            inv = aug[row][col].inverse()
            aug[row] = [x * inv if x else x for x in aug[row]]
        for r in range(len(aug)):
            if r != row and aug[r][col].sign() != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y if y else x for x, y in zip(aug[r], aug[row])]
        pivot_cols.append(col)
        row += 1
        if row == len(aug):
            break
    return pivot_cols


def _solve_linear_rows(
    rows: list[tuple[tuple[QuadNumber, ...], QuadNumber]], nvars: int, d: int
) -> Optional[tuple[list[QuadNumber], list[list[QuadNumber]]]]:
    """Solve linear equations over Q(sqrt(d)).

    ``rows`` are equations ``coeffs . v = rhs``.  Returns None when
    inconsistent, else a particular solution and a basis of the null
    space (empty basis = unique solution).
    """
    zero, one = QuadNumber.zero(d), QuadNumber.one(d)
    aug = [list(coeffs) + [rhs] for coeffs, rhs in rows]
    pivot_cols = _row_reduce(aug, nvars)
    for r in range(len(pivot_cols), len(aug)):
        if aug[r][nvars].sign() != 0:
            return None
    particular = [zero] * nvars
    for r, col in enumerate(pivot_cols):
        particular[col] = aug[r][nvars]
    null_basis = []
    for free_col in (c for c in range(nvars) if c not in pivot_cols):
        vec = [zero] * nvars
        vec[free_col] = one
        for r, col in enumerate(pivot_cols):
            vec[col] = -aug[r][free_col]
        null_basis.append(vec)
    return particular, null_basis


def _inverse(
    matrix: Sequence[Sequence[QuadNumber]], d: int
) -> Optional[list[list[QuadNumber]]]:
    """The inverse of a square matrix over Q(sqrt(d)), or None if singular."""
    n = len(matrix)
    zero, one = QuadNumber.zero(d), QuadNumber.one(d)
    aug = [
        [*row, *(one if k == r else zero for k in range(n))]
        for r, row in enumerate(matrix)
    ]
    if len(_row_reduce(aug, n)) < n:
        return None
    return [row[n:] for row in aug]


def _signature(matrix: Sequence[Sequence[QuadNumber]]) -> tuple[int, int]:
    """``(positive, negative)`` inertia of a symmetric matrix, exactly.

    Diagonalises by congruence, which keeps the inertia (Sylvester's law):
    pivot on a nonzero diagonal entry, after making one from a nonzero
    off-diagonal ``a_ij`` (adding row and column ``j`` to row and column
    ``i`` puts ``2 a_ij`` on the diagonal) when every diagonal entry is 0.
    """
    a = [list(row) for row in matrix]
    positive = negative = 0
    while a:
        n = len(a)
        k = next((k for k in range(n) if a[k][k].sign() != 0), None)
        if k is None:
            pair = next(
                ((i, j) for i in range(n) for j in range(n) if a[i][j].sign() != 0),
                None,
            )
            if pair is None:
                break  # what is left is null
            k, j = pair
            a[k] = [x + y for x, y in zip(a[k], a[j])]
            for row in a:
                row[k] += row[j]
        pivot = a[k][k]
        positive += pivot.sign() > 0
        negative += pivot.sign() < 0
        a = [
            [a[r][c] - a[r][k] * a[k][c] / pivot for c in range(n) if c != k]
            for r in range(n)
            if r != k
        ]
    return positive, negative


class ConeSpec(Frozen):
    """A cone in a surface lattice, either polyhedral or quadratic.

    For the polyhedral kind, ``functionals`` holds the rows of the
    inequality system; the quadratic kind carries no data of its own and
    borrows the owning lattice's gram matrix and ample class.
    """

    __slots__ = _fields = ("kind", "functionals")
    kind: str
    functionals: tuple[tuple[QuadNumber, ...], ...]

    def __init__(
        self, kind: str, functionals: tuple[tuple[QuadNumber, ...], ...] = ()
    ) -> None:
        if kind not in (POLYHEDRAL, QUADRATIC):
            raise InputError(f"unknown cone kind {kind!r}")
        if kind == POLYHEDRAL and not functionals:
            raise InputError("polyhedral cone needs at least one functional")
        if kind == QUADRATIC and functionals:
            raise InputError("quadratic cone takes no functionals")
        self._set_fields(kind, functionals)


class SurfaceClass(Frozen):
    """A divisor class on a surface: coordinates over the lattice basis."""

    __slots__ = _fields = ("lattice", "coords")
    lattice: "SurfaceLattice"
    coords: tuple[QuadNumber, ...]

    def __init__(self, lattice: "SurfaceLattice", coords: tuple[QuadNumber, ...]) -> None:
        if len(coords) != len(lattice.basis):
            raise InputError(
                f"class on {lattice.name!r} needs "
                f"{len(lattice.basis)} coordinates, got {len(coords)}"
            )
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "coords", coords)

    def _check_same_lattice(self, other: "SurfaceClass") -> None:
        if self.lattice != other.lattice:
            raise InputError(
                f"lattice mismatch: {self.lattice.name!r} vs {other.lattice.name!r}"
            )

    def __add__(self, other: "SurfaceClass") -> "SurfaceClass":
        self._check_same_lattice(other)
        return SurfaceClass(
            self.lattice,
            tuple(x + y for x, y in zip(self.coords, other.coords)),
        )

    def __sub__(self, other: "SurfaceClass") -> "SurfaceClass":
        return self + (-other)

    def __neg__(self) -> "SurfaceClass":
        return SurfaceClass(self.lattice, tuple(-x for x in self.coords))

    def __mul__(self, scalar: ScalarLike) -> "SurfaceClass":
        return SurfaceClass(self.lattice, tuple(x * scalar for x in self.coords))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(x.sign() == 0 for x in self.coords)

    def pair(self, other: "SurfaceClass") -> QuadNumber:
        """Intersection number ``(self . other)`` under the gram matrix."""
        self._check_same_lattice(other)
        return bilinear(self.lattice.gram, self.coords, other.coords)

    def __str__(self) -> str:
        inner = ", ".join(x.canonical_string() for x in self.coords)
        return f"({inner})"


class SurfaceLattice(Frozen):
    """A surface's divisor-class lattice with pairing and cone data.

    ``gram`` and ``ample_ref`` may hold any mix of ints, Fractions and
    QuadNumbers; they are stored as elements of Q(sqrt(field_d)).
    """

    __slots__ = _fields = (
        "name", "basis", "gram", "ample_ref", "nef_cone", "eff_cone", "field_d"
    )
    name: str
    basis: tuple[str, ...]
    gram: tuple[tuple[QuadNumber, ...], ...]
    ample_ref: tuple[QuadNumber, ...]
    nef_cone: ConeSpec
    eff_cone: ConeSpec
    field_d: int

    def __init__(
        self,
        name: str,
        basis: tuple[str, ...],
        gram: Sequence[Sequence[ScalarLike]],
        ample_ref: Sequence[ScalarLike],
        nef_cone: ConeSpec,
        eff_cone: ConeSpec,
        field_d: int,
    ) -> None:
        self._set_fields(name, basis, gram, ample_ref, nef_cone, eff_cone, field_d)
        rank = len(self.basis)
        if rank == 0:
            raise InputError(f"surface {self.name!r}: basis is empty")
        if len(set(self.basis)) != rank:
            raise InputError(f"surface {self.name!r}: basis labels not unique")
        if len(self.gram) != rank or any(len(row) != rank for row in self.gram):
            raise InputError(f"surface {self.name!r}: gram shape != {rank}x{rank}")
        object.__setattr__(self, "gram", tuple(map(self._vector, self.gram)))
        object.__setattr__(self, "ample_ref", self._vector(self.ample_ref))
        for i in range(rank):
            for j in range(rank):
                if self.gram[i][j] != self.gram[j][i]:
                    raise InputError(f"surface {self.name!r}: gram not symmetric")
        if len(self.ample_ref) != rank:
            raise InputError(f"surface {self.name!r}: ample class has wrong length")
        for cone in (self.nef_cone, self.eff_cone):
            for functional in cone.functionals:
                if len(functional) != rank:
                    raise InputError(
                        f"surface {self.name!r}: functional length != rank"
                    )
        # Hodge index: a quadratic cone is convex only on a hyperbolic lattice
        if QUADRATIC in (self.nef_cone.kind, self.eff_cone.kind):
            signature = _signature(self.gram)
            if signature != (1, rank - 1):
                raise InputError(
                    f"surface {self.name!r}: a quadratic cone needs a gram matrix "
                    f"of signature (1, {rank - 1}), got {signature}"
                )

    @property
    def rank(self) -> int:
        return len(self.basis)

    def _vector(self, values: Iterable[ScalarLike]) -> tuple[QuadNumber, ...]:
        return tuple(QuadNumber.in_field(v, self.field_d) for v in values)

    def cls(self, coords: Iterable[ScalarLike]) -> SurfaceClass:
        """Build a class from any mix of ints / Fractions / QuadNumbers."""
        return SurfaceClass(self, self._vector(coords))

    def basis_class(self, label: str) -> SurfaceClass:
        if label not in self.basis:
            raise InputError(f"surface {self.name!r} has no basis label {label!r}")
        return self.cls([1 if lbl == label else 0 for lbl in self.basis])

    @property
    def ample_class(self) -> SurfaceClass:
        return SurfaceClass(self, tuple(self.ample_ref))

    # -- cones as constraints -------------------------------------------

    def constraints(self, name: str) -> list[Constraint]:
        """The inequalities on coordinates that cut out the cone ``name``.

        ``name`` is ``"nef"`` or ``"eff"``.  A polyhedral cone gives its
        functionals, identified ``"0"``, ``"1"``, ...; a quadratic cone
        gives ``x.x >= 0`` (``"quad"``) and then the ample side
        ``x.ample >= 0`` (``"ample"``).
        """
        try:
            cone = {"nef": self.nef_cone, "eff": self.eff_cone}[name]
        except KeyError:
            raise InputError(f"unknown cone name {name!r}") from None
        zero = QuadNumber.zero(self.field_d)
        if cone.kind == POLYHEDRAL:
            return [
                LinearConstraint(str(k), functional, zero)
                for k, functional in enumerate(cone.functionals)
            ]
        ample_side = tuple(dot(row, self.ample_ref) for row in self.gram)
        return [
            QuadraticConstraint("quad", self.gram),
            LinearConstraint("ample", ample_side, zero),
        ]

    def cone_contains(self, cone: str, x: SurfaceClass) -> bool:
        """Exact membership of ``x`` in the CLOSED cone."""
        if x.lattice != self:
            raise InputError("class does not belong to this lattice")
        return all(c.value(x.coords).sign() >= 0 for c in self.constraints(cone))

    def ample_is_strictly_interior(self, cone: str) -> bool:
        """Strict membership of the ample class (every defining form > 0)."""
        return all(
            c.value(self.ample_ref).sign() > 0 for c in self.constraints(cone)
        )

    # -- ray / boundary analysis -----------------------------------------

    def boundary_slopes(
        self, cone: str, base: SurfaceClass, direction: SurfaceClass
    ) -> list[QuadNumber]:
        """Parameters t >= 0 where ``base + t*direction`` leaves the cone.

        ``base`` must be a member.  The cone is convex, so the ray's
        members are ``0 <= t <= t*`` or every ``t >= 0``, and the result
        is ``[t*]`` or ``[]``.  At ``t*`` some defining form vanishes and
        is negative just past it (:func:`_falls_past`); below ``t*`` every
        form is nonnegative on the ray, so none does that there.  Hence
        ``t*`` is the least root ``t >= 0`` of a defining form that falls
        just past ``t``, found exactly.  Raises
        :class:`RootOutsideFieldError` when a form vanishes on the ray's
        line outside the field.
        """
        if direction.is_zero():
            raise InputError("direction must be nonzero")
        if not self.cone_contains(cone, base):
            raise InputError("base class is not in the cone")
        exits = []
        for c in self.constraints(cone):
            along = c.along(base.coords, direction.coords)
            exits += [
                t
                for t in quadratic_roots(*along) or ()
                if t.sign() >= 0 and _falls_past(along, t)
            ]
        return [min(exits)] if exits else []
