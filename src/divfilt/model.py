"""The threefold resolution model.

A :class:`ThreefoldModel` describes the exceptional locus of a resolution
of an isolated singularity of dimension 3: an ordered list of exceptional
prime divisors ``E_i``, one surface lattice per prime, and for every pair
``(E, E')`` the class of ``O(E')`` restricted to the surface sitting over
``E``.  The trilinear intersection form on exceptional divisors is never
entered by hand — it is *derived* from the restriction table,

    (D1 . D2 . D3)  =  sum over primes E of
                       coeff(D3, E) * ( restrict(D1, E) . restrict(D2, E) ),

through one table of restriction pairings computed when the model is
built, ``pairings[e][i][j] = r_e(E_i) . r_e(E_j)``.  The number
``(E_i . E_j . E_k)`` can be read from that table in three ways
(``pairings[i][j][k]``, ``pairings[j][i][k]``, ``pairings[k][i][j]``);
:meth:`ThreefoldModel.validate` checks that all three agree, which is
exactly the redundancy that catches transcription errors in the
restriction data.  Every value of the form is read in one place: the
per-model polar table holds the coefficients of ``(E_m . X . Y)`` in the
symmetric monomials of ``X``'s and ``Y``'s coefficients, and
``(X . Y . Z)`` is ``Z``'s coefficients dotted with that vector.

The built-in model (addressable as ``"paper"`` on the command line) has
two primes over Q(sqrt(3)): an abelian surface with basis ``A, B, Delta``
and a ruled surface with basis ``C0, f``.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import combinations_with_replacement
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

from .errors import InputError, ModelValidationError, ParseError
from .frozen import Frozen
from .qfield import (
    QuadNumber,
    ScalarLike,
    dot,
    scalar_from_json,
    scalar_to_json,
    times,
)
from .surfaces import (
    POLYHEDRAL,
    QUADRATIC,
    ConeSpec,
    Constraint,
    SurfaceClass,
    SurfaceLattice,
)

BUILTIN_MODEL_NAME = "paper"

DIMENSION = 3


class ExcDivisor(Frozen):
    """A divisor supported on the exceptional primes: D = sum g_i E_i.

    Its envelope and its pairs' mixed values are kept on it (``frozen._kept``).
    """

    _fields = ("model", "coeffs")
    model: "ThreefoldModel"
    coeffs: tuple[QuadNumber, ...]

    def __init__(self, model: "ThreefoldModel", coeffs: tuple[QuadNumber, ...]) -> None:
        if len(coeffs) != len(model.primes):
            raise InputError(
                f"divisor needs {len(model.primes)} coefficients, "
                f"got {len(coeffs)}"
            )
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def is_effective(self) -> bool:
        return all(c.sign() >= 0 for c in self.coeffs)

    def is_zero(self) -> bool:
        return all(c.sign() == 0 for c in self.coeffs)

    def __add__(self, other: "ExcDivisor") -> "ExcDivisor":
        self.model._check_own(other)
        return ExcDivisor(
            self.model, tuple(x + y for x, y in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "ExcDivisor") -> "ExcDivisor":
        return self + (-other)

    def __neg__(self) -> "ExcDivisor":
        return ExcDivisor(self.model, tuple(-x for x in self.coeffs))

    def __mul__(self, scalar: ScalarLike) -> "ExcDivisor":
        return ExcDivisor(self.model, tuple(x * scalar for x in self.coeffs))

    __rmul__ = __mul__

    def __str__(self) -> str:
        return "(" + ", ".join(c.canonical_string() for c in self.coeffs) + ")"


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str

    def line(self) -> str:
        status = "ok" if self.ok else "FAIL"
        return f"{status:4s} {self.name}: {self.detail}"


class ValidationReport(NamedTuple):
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> list[str]:
        return [f"{c.name}: {c.detail}" for c in self.checks if not c.ok]

    def to_json_dict(self) -> dict:
        return {"ok": self.ok, "checks": [c._asdict() for c in self.checks]}


class ThreefoldModel(Frozen):
    """Exceptional primes, their surfaces, and the restriction table.

    ``pairings``, the cached properties and the slots kept on it
    (``frozen._kept``) take no part in ``==``, ``hash`` or the repr.
    """

    _fields = ("field_d", "primes", "surfaces", "restrictions")
    field_d: int
    primes: tuple[str, ...]
    surfaces: tuple[SurfaceLattice, ...]
    # restrictions[i][j]: class of O(E_j) restricted to the surface over E_i
    restrictions: tuple[tuple[SurfaceClass, ...], ...]
    # pairings[e][i][j]: restrictions[e][i] . restrictions[e][j]
    pairings: tuple[tuple[tuple[QuadNumber, ...], ...], ...]

    def __init__(
        self,
        field_d: int,
        primes: tuple[str, ...],
        surfaces: tuple[SurfaceLattice, ...],
        restrictions: tuple[tuple[SurfaceClass, ...], ...],
    ) -> None:
        t = len(primes)
        if len(set(primes)) != t:
            raise InputError("prime names are not unique")
        if len(surfaces) != t or len(restrictions) != t:
            raise InputError("surfaces/restrictions do not match prime count")
        for prime, surface, row in zip(primes, surfaces, restrictions):
            if surface.field_d != field_d:
                raise InputError(f"surface {surface.name!r} uses a different field")
            if len(row) != t:
                raise InputError(f"restriction row for {prime!r} has wrong length")
            for cls in row:
                if cls.lattice != surface:
                    raise InputError(
                        f"restriction class for {prime!r} lies on the wrong surface"
                    )
        self._set_fields(field_d, primes, surfaces, restrictions)
        pairings = tuple(
            tuple(tuple(ri.pair(rj) for rj in row) for ri in row)
            for row in restrictions
        )
        object.__setattr__(self, "pairings", pairings)

    @property
    def dimension(self) -> int:
        return DIMENSION

    def index_of(self, prime: str) -> int:
        try:
            return self.primes.index(prime)
        except ValueError:
            raise InputError(f"unknown prime {prime!r}") from None

    def surface(self, prime: str) -> SurfaceLattice:
        return self.surfaces[self.index_of(prime)]

    def restriction(self, on_prime: str, of_prime: str) -> SurfaceClass:
        """The class of ``O(of_prime)`` restricted to ``surface(on_prime)``."""
        return self.restrictions[self.index_of(on_prime)][self.index_of(of_prime)]

    # -- divisors ---------------------------------------------------------

    def divisor(self, coeffs: Iterable[ScalarLike]) -> ExcDivisor:
        return ExcDivisor(
            self, tuple(QuadNumber.in_field(c, self.field_d) for c in coeffs)
        )

    def prime_divisor(self, prime: str) -> ExcDivisor:
        i = self.index_of(prime)
        return self.divisor([1 if k == i else 0 for k in range(len(self.primes))])

    def zero_divisor(self) -> ExcDivisor:
        return self.divisor([0] * len(self.primes))

    def _check_own(self, *divisors: ExcDivisor) -> None:
        """Refuse the first of ``divisors`` that belongs to another model."""
        for D in divisors:
            if D.model != self:
                raise InputError("divisor belongs to a different model")

    # -- restriction and the trilinear form --------------------------------

    def restrict(self, D: ExcDivisor, prime: str) -> SurfaceClass:
        """Class of ``O(D)`` on the surface over ``prime`` (linear in D)."""
        self._check_own(D)
        i = self.index_of(prime)
        surface = self.surfaces[i]
        acc = surface.cls([0] * surface.rank)
        for coeff, cls in zip(D.coeffs, self.restrictions[i]):
            acc = acc + cls * coeff
        return acc

    @cached_property
    def polar_table(self) -> tuple[tuple[ScalarLike, ...], ...]:
        """The coefficients of ``(E_m . D . D)`` in the monomials of ``D``'s
        coefficients ``g``, built on first use.

        ``polar_table[m]`` lists one coefficient per monomial ``g_j g_k``
        with ``j <= k``, in the order of ``combinations_with_replacement``:
        ``pairings[k][m][j]``, doubled when ``j < k``, since ``(E_m . E_j .
        E_k)`` and ``(E_m . E_k . E_j)`` agree by the symmetry that
        :meth:`validate` certifies.  A rational coefficient is kept as a
        ``Fraction``, so each product by it scales a field element's two
        parts directly.
        """
        t = len(self.primes)
        monomials = list(combinations_with_replacement(range(t), 2))
        rows = [[self.pairings[k][m][j] * (2 - (j == k)) for j, k in monomials] for m in range(t)]
        return tuple(tuple(v.a if v.is_rational else v for v in row) for row in rows)

    def polar(self, X: ExcDivisor, Y: ExcDivisor) -> tuple[QuadNumber, ...]:
        """The vector of ``(E_m . X . Y)`` over the primes ``m``.

        Read off :attr:`polar_table` from the ``t(t+1)/2`` symmetric
        monomials of the coefficients ``g`` of ``X`` and ``h`` of ``Y``:
        ``g_j h_j``, and ``(g_j h_k + g_k h_j)/2`` for ``j < k``, since the
        table doubles those entries.  When ``Y`` is ``X`` they are the
        products ``g_j g_k``.  Each product is taken as ``dot`` takes one:
        no multiplication by an exact 0 or 1.  The vector is symmetric in
        ``X`` and ``Y`` and linear in each.
        """
        self._check_own(X, Y)
        g, h = X.coeffs, Y.coeffs
        pairs = combinations_with_replacement(range(len(g)), 2)
        if Y is X:
            monomials = [times(g[j], g[k]) for j, k in pairs]
        else:
            monomials = [
                times(g[j], h[j]) if j == k else (times(g[j], h[k]) + times(g[k], h[j])) / 2
                for j, k in pairs
            ]
        # dot takes an exact one's partner whole, so a Fraction may come back
        return tuple(
            QuadNumber.in_field(dot(monomials, row), self.field_d)
            for row in self.polar_table
        )

    def triple(self, D1: ExcDivisor, D2: ExcDivisor, D3: ExcDivisor) -> QuadNumber:
        """Trilinear intersection number (D1 . D2 . D3).

        By trilinearity it is ``Z``'s coefficients dotted with
        ``polar(X, Y)``, for ``X, Y, Z`` the arguments in some order; a
        repeated object, if there is one (``D^3`` in a limit, ``(P . P .
        Q)`` in a mixed value), is taken as ``X`` and ``Y``, so its
        monomials are products of one divisor's coefficients.
        :meth:`validate` certifies that the order does not matter, so the
        result is symmetric in its arguments.
        """
        X, Y, Z = (D1, D3, D2) if D1 is D3 else (D2, D3, D1) if D2 is D3 else (D1, D2, D3)
        self._check_own(Z)
        return dot(Z.coeffs, self.polar(X, Y))

    # -- nef conditions on exceptional divisors ----------------------------

    @cached_property
    def nef_systems(self) -> tuple[Constraint, ...]:
        """Nef conditions on ``g`` for ``-sum g_i E_i``, built on first use.

        Restricting ``-sum g_i E_i`` to the surface over ``E`` gives the
        point ``sum g_i (-r_E(E_i))``, so each nef constraint of that
        surface pulls back along the columns ``-r_E(E_i)``.
        """
        rows = zip(self.primes, self.surfaces, self.restrictions)
        return tuple(
            c.pullback(f"nef[{prime}]:{c.ident}", [(-r).coords for r in row])
            for prime, surface, row in rows
            for c in surface.constraints("nef")
        )

    # -- validation ---------------------------------------------------------

    @cached_property
    def validation(self) -> ValidationReport:
        """The report of :meth:`validate`, computed once per model."""
        return self.validate()

    def validate(self) -> ValidationReport:
        """Cross-check the restriction data and surface cone declarations.

        For every degree-3 monomial in the primes, its three readings from
        the pairing table must agree exactly; each surface's ample class
        must sit strictly inside its nef cone and inside its effective cone.
        """
        checks: list[CheckResult] = []
        t = len(self.primes)

        for surface in self.surfaces:
            strict = surface.ample_is_strictly_interior("nef")
            checks.append(
                CheckResult(
                    f"surface[{surface.name}].ample_in_nef",
                    strict,
                    "ample class strictly inside nef cone"
                    if strict
                    else "ample class not strictly inside nef cone",
                )
            )
            in_eff = surface.cone_contains("eff", surface.ample_class)
            checks.append(
                CheckResult(
                    f"surface[{surface.name}].ample_in_eff",
                    in_eff,
                    "ample class inside effective cone"
                    if in_eff
                    else "ample class outside effective cone",
                )
            )

        T = self.pairings
        for i, j, k in combinations_with_replacement(range(t), 3):
            monomial = "·".join(self.primes[n] for n in (i, j, k))
            expansions = [
                (self.primes[i], T[i][j][k]),
                (self.primes[j], T[j][i][k]),
                (self.primes[k], T[k][i][j]),
            ]
            agree = len({v for _, v in expansions}) == 1
            if agree:
                detail = f"all expansions agree: {T[i][j][k].canonical_string()}"
            else:
                detail = "expansions disagree: " + ", ".join(
                    f"on {name} -> {v.canonical_string()}" for name, v in expansions
                )
            checks.append(CheckResult(f"triple[{monomial}]", agree, detail))
        return ValidationReport(tuple(checks))


# ---------------------------------------------------------------------------
# JSON document form


def _require_keys(doc: Mapping, required: set, optional: set, where: str) -> None:
    if not isinstance(doc, Mapping):
        raise ParseError(f"{where}: expected an object")
    missing = required - set(doc)
    if missing:
        raise ParseError(f"{where}: missing {sorted(missing, key=str)}")
    extra = set(doc) - required - optional
    if extra:
        raise ParseError(f"{where}: unknown fields {sorted(extra, key=str)}")


def _is_list(doc: object) -> bool:
    return isinstance(doc, Sequence) and not isinstance(doc, (str, bytes))


def _names(doc: object, where: str) -> tuple[str, ...]:
    if not _is_list(doc) or not doc or not all(isinstance(x, str) for x in doc):
        raise ParseError(f"{where}: expected a nonempty list of names")
    return tuple(doc)


def _scalar_vector(doc: object, d: int, where: str) -> tuple[QuadNumber, ...]:
    if not _is_list(doc):
        raise ParseError(f"{where}: expected a list of scalars")
    try:
        return tuple(scalar_from_json(x, d) for x in doc)
    except ParseError as exc:
        raise ParseError(f"{where}: {exc}") from None


def _cone_from_json(doc: object, d: int, where: str) -> ConeSpec:
    _require_keys(doc, {"type"}, {"inequalities"}, where)
    kind = doc["type"]
    if kind == QUADRATIC:
        if "inequalities" in doc:
            raise ParseError(f"{where}: quadratic cone takes no inequalities")
        return ConeSpec(QUADRATIC)
    if kind == POLYHEDRAL:
        rows = doc.get("inequalities")
        if not _is_list(rows) or not rows:
            raise ParseError(f"{where}: polyhedral cone needs inequalities")
        return ConeSpec(
            POLYHEDRAL,
            tuple(
                _scalar_vector(row, d, f"{where}.inequalities[{i}]")
                for i, row in enumerate(rows)
            ),
        )
    raise ParseError(f"{where}: unknown cone type {kind!r}")


def _cone_to_json(cone: ConeSpec) -> dict:
    if cone.kind == QUADRATIC:
        return {"type": QUADRATIC}
    return {
        "type": POLYHEDRAL,
        "inequalities": [
            [scalar_to_json(c) for c in row] for row in cone.functionals
        ],
    }


def model_from_dict(doc: Mapping) -> ThreefoldModel:
    """Build and validate a model from its JSON document form."""
    _require_keys(doc, {"field", "surfaces", "primes", "restrictions"}, set(), "model")
    _require_keys(doc["field"], {"d"}, set(), "model.field")
    d = doc["field"]["d"]
    if not isinstance(d, int) or isinstance(d, bool):
        raise ParseError("model.field.d: expected an integer")
    try:
        QuadNumber.zero(d)
    except ValueError as exc:
        raise ParseError(f"model.field.d: {exc}") from None

    primes = _names(doc["primes"], "model.primes")

    if not _is_list(doc["surfaces"]):
        raise ParseError("model.surfaces: expected a list")
    lattices: dict[str, SurfaceLattice] = {}
    for i, sdoc in enumerate(doc["surfaces"]):
        where = f"model.surfaces[{i}]"
        _require_keys(sdoc, {"name", "basis", "gram", "ample", "nef", "eff"}, set(), where)
        name = sdoc["name"]
        if not isinstance(name, str):
            raise ParseError(f"{where}.name: expected a string")
        basis = _names(sdoc["basis"], f"{where}.basis")
        gram_doc = sdoc["gram"]
        if not _is_list(gram_doc):
            raise ParseError(f"{where}.gram: expected a matrix")
        gram = tuple(
            _scalar_vector(row, d, f"{where}.gram[{k}]")
            for k, row in enumerate(gram_doc)
        )
        ample = _scalar_vector(sdoc["ample"], d, f"{where}.ample")
        nef = _cone_from_json(sdoc["nef"], d, f"{where}.nef")
        eff = _cone_from_json(sdoc["eff"], d, f"{where}.eff")
        try:
            lattice = SurfaceLattice(
                name=name,
                basis=basis,
                gram=gram,
                ample_ref=ample,
                nef_cone=nef,
                eff_cone=eff,
                field_d=d,
            )
        except InputError as exc:
            raise ParseError(f"{where}: {exc}") from None
        if name in lattices:
            raise ParseError(f"{where}: duplicate surface name {name!r}")
        lattices[name] = lattice

    missing_surfaces = [p for p in primes if p not in lattices]
    if missing_surfaces:
        raise ParseError(f"model.surfaces: no surface for primes {missing_surfaces}")
    unused = sorted(set(lattices) - set(primes))
    if unused:
        raise ParseError(f"model.surfaces: surfaces without primes {unused}")

    rdoc = doc["restrictions"]
    _require_keys(rdoc, set(primes), set(), "model.restrictions")
    rows = []
    for on_prime in primes:
        where = f"model.restrictions[{on_prime!r}]"
        row_doc = rdoc[on_prime]
        _require_keys(row_doc, set(primes), set(), where)
        surface = lattices[on_prime]
        row = []
        for of_prime in primes:
            at = f"{where}[{of_prime!r}]"
            coords = _scalar_vector(row_doc[of_prime], d, at)
            try:
                row.append(surface.cls(coords))
            except InputError as exc:
                raise ParseError(f"{at}: {exc}") from None
        rows.append(tuple(row))

    try:
        model = ThreefoldModel(
            field_d=d,
            primes=primes,
            surfaces=tuple(lattices[p] for p in primes),
            restrictions=tuple(rows),
        )
    except InputError as exc:
        raise ParseError(f"model: {exc}") from None

    if not model.validation.ok:
        raise ModelValidationError(model.validation.failures)
    return model


def model_to_dict(model: ThreefoldModel) -> dict:
    """Serialize a model to its JSON document form (inverse of from_dict)."""
    return {
        "field": {"d": model.field_d},
        "surfaces": [
            {
                "name": s.name,
                "basis": list(s.basis),
                "gram": [[scalar_to_json(x) for x in row] for row in s.gram],
                "ample": [scalar_to_json(x) for x in s.ample_ref],
                "nef": _cone_to_json(s.nef_cone),
                "eff": _cone_to_json(s.eff_cone),
            }
            for s in model.surfaces
        ],
        "primes": list(model.primes),
        "restrictions": {
            on_prime: {
                of_prime: [scalar_to_json(x) for x in cls.coords]
                for of_prime, cls in zip(model.primes, row)
            }
            for on_prime, row in zip(model.primes, model.restrictions)
        },
    }


def load_model(source: Union[str, Path, Mapping]) -> ThreefoldModel:
    """Load a model from a JSON file path (or an already-parsed document)."""
    if isinstance(source, Mapping):
        return model_from_dict(source)
    import json  # only to parse text: the builtin model needs no JSON

    path = Path(source)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read model file {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"model file {path} is not UTF-8: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"model file {path} is not valid JSON: {exc}") from None
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise ParseError(f"model file {path}: number too long to read: {exc}") from None
    except RecursionError:
        raise ParseError(f"model file {path} nests too deeply to read") from None
    return model_from_dict(doc)


# ---------------------------------------------------------------------------
# the built-in model


_BUILTIN_DOC: dict = {
    "field": {"d": 3},
    "surfaces": [
        {
            "name": "Sbar",
            "basis": ["A", "B", "Delta"],
            "gram": [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
            "ample": [1, 1, 1],
            "nef": {"type": "quadratic"},
            "eff": {"type": "quadratic"},
        },
        {
            "name": "F",
            "basis": ["C0", "f"],
            "gram": [[-162, 1], [1, 0]],
            "ample": [1, 163],
            "nef": {"type": "polyhedral", "inequalities": [[1, 0], [-162, 1]]},
            "eff": {"type": "polyhedral", "inequalities": [[1, 0], [0, 1]]},
        },
    ],
    "primes": ["Sbar", "F"],
    "restrictions": {
        "Sbar": {"Sbar": [-6, -9, -12], "F": [3, 3, 3]},
        "F": {"Sbar": [1, 0], "F": [-1, -108]},
    },
}


@lru_cache(maxsize=1)
def builtin_model() -> ThreefoldModel:
    """The built-in two-prime reference model over Q(sqrt(3)).

    One prime carries an abelian surface whose nef and effective cones
    coincide with (the ample half of) the light cone of the rank-3 Gram
    matrix; the other carries a ruled surface with polyhedral cones.
    """
    return model_from_dict(_BUILTIN_DOC)


def builtin_document() -> dict:
    """A fresh copy of the built-in model's JSON document."""
    import json

    return json.loads(json.dumps(_BUILTIN_DOC))
