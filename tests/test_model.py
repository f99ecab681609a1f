"""Threefold model: restriction table, trilinear form, JSON round-trip."""

import itertools
import json
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divfilt.errors import DivfiltError, InputError, ModelValidationError, ParseError
from divfilt.model import (
    builtin_document,
    builtin_model,
    load_model,
    model_from_dict,
    model_to_dict,
)
from divfilt.qfield import QuadNumber


@pytest.fixture(scope="module")
def model():
    return builtin_model()


def q3(a, b=0):
    return QuadNumber(Fraction(a), Fraction(b), 3)


small = st.integers(min_value=-5, max_value=5)
coeffs2 = st.tuples(small, small)


# -- frozen intersection table -------------------------------------------------


def test_intersection_table(model):
    S = model.prime_divisor("Sbar")
    F = model.prime_divisor("F")
    assert model.triple(S, S, S) == 468
    assert model.triple(S, S, F) == -162
    assert model.triple(S, F, F) == 54
    assert model.triple(F, F, F) == 54


def test_triple_of_sum(model):
    S = model.prime_divisor("Sbar")
    F = model.prime_divisor("F")
    D = S + F
    assert model.triple(D, D, D) == 198  # 468 - 3*162 + 3*54 + 54


def test_triple_with_zero(model):
    S = model.prime_divisor("Sbar")
    F = model.prime_divisor("F")
    assert model.triple(S, F, model.zero_divisor()) == 0


def test_triple_permutation_invariance(model):
    S = model.prime_divisor("Sbar")
    F = model.prime_divisor("F")
    D1, D2, D3 = S + F, S - F * 2, F * 3
    reference = model.triple(D1, D2, D3)
    for p in itertools.permutations((D1, D2, D3)):
        assert model.triple(*p) == reference


@given(x=coeffs2, y=coeffs2, z=coeffs2, lam=small)
@settings(max_examples=50)
def test_triple_is_trilinear(model, x, y, z, lam):
    dx, dy, dz = (model.divisor(c) for c in (x, y, z))
    assert model.triple(dx + dy, dz, dz) == model.triple(
        dx, dz, dz
    ) + model.triple(dy, dz, dz)
    assert model.triple(dx * lam, dy, dz) == lam * model.triple(dx, dy, dz)


# Unimodular U and its inverse per rank: the new basis is e'_k = sum_i U[k][i] e_i.
UNIMODULAR = {
    2: ([[2, 1], [1, 1]], [[1, -1], [-1, 2]]),
    3: ([[1, 1, 0], [0, 1, 1], [0, 0, 1]], [[1, -1, 1], [0, 1, -1], [0, 0, 1]]),
}


def basis_changed_document():
    """The builtin document with every surface lattice in a new basis.

    The gram matrix G becomes U G U^T, class coordinates c become U^-T c
    and cone functionals f become U f, so every pairing is unchanged.
    """
    doc = builtin_document()
    for surface in doc["surfaces"]:
        u, u_inv = UNIMODULAR[len(surface["basis"])]
        n = len(u)

        def coords(c):
            return [sum(u_inv[i][k] * c[i] for i in range(n)) for k in range(n)]

        g = surface["gram"]
        surface["gram"] = [
            [
                sum(u[k][i] * g[i][j] * u[l][j] for i in range(n) for j in range(n))
                for l in range(n)
            ]
            for k in range(n)
        ]
        surface["ample"] = coords(surface["ample"])
        for cone in (surface["nef"], surface["eff"]):
            if "inequalities" in cone:
                cone["inequalities"] = [
                    [sum(u[k][i] * f[i] for i in range(n)) for k in range(n)]
                    for f in cone["inequalities"]
                ]
        row = doc["restrictions"][surface["name"]]
        for of_prime in row:
            row[of_prime] = coords(row[of_prime])
    return doc


def test_contraction_matches_the_full_sum(model):
    """The test-side ``contraction`` mirrors its upper triangle; every entry
    equals the full sum ``sum_k coeff_k(D) * pairings[k][i][j]`` and
    ``triple(E_i, E_j, D)``, three distinct objects off the diagonal and a
    repeated prime on it, on the builtin model, a basis-changed copy, the
    two-copy union and seeded generated polyhedral models over two and
    three primes."""
    # imported here: test_generated_models and test_multiplicity import this
    # module through test_envelope
    from test_envelope import UNION_MODEL
    from test_generated_models import polyhedral_document
    from test_multiplicity import contraction

    rng = random.Random(7)
    models = [model, model_from_dict(basis_changed_document()), load_model(UNION_MODEL)]
    models += [model_from_dict(polyhedral_document(rng, t)) for t in (2, 2, 3, 3)]
    for m in models:
        t = len(m.primes)
        units = [m.prime_divisor(p) for p in m.primes]
        for _ in range(10):
            D = m.divisor(
                q3(Fraction(rng.randint(-9, 9), rng.randint(1, 4)), rng.randint(-2, 2))
                for _ in range(t)
            )
            full = tuple(
                tuple(
                    sum((c * T[i][j] for c, T in zip(D.coeffs, m.pairings)), q3(0))
                    for j in range(t)
                )
                for i in range(t)
            )
            assert contraction(m, D) == full, (m.primes, D)
            assert full == tuple(tuple(m.triple(Ei, Ej, D) for Ej in units) for Ei in units)


def test_triple_matches_restriction_pairings(model):
    """``triple`` against the definition through ``restrict`` and ``pair``."""
    changed = model_from_dict(basis_changed_document())
    assert changed.surface("Sbar").gram != model.surface("Sbar").gram
    rng = random.Random(4)
    for _ in range(15):
        coeffs = [
            [
                q3(Fraction(rng.randint(-9, 9), rng.randint(1, 4)), rng.randint(-2, 2))
                for _ in model.primes
            ]
            for _ in range(3)
        ]
        values = []
        for m in (model, changed):
            D1, D2, D3 = (m.divisor(c) for c in coeffs)
            reference = sum(
                (
                    weight * m.restrict(D1, prime).pair(m.restrict(D2, prime))
                    for weight, prime in zip(D3.coeffs, m.primes)
                ),
                q3(0),
            )
            assert m.triple(D1, D2, D3) == reference
            values.append(reference)
        assert values[0] == values[1]


# -- restrictions ---------------------------------------------------------------


def test_restriction_table(model):
    assert model.restriction("Sbar", "Sbar").coords == tuple(
        q3(c) for c in (-6, -9, -12)
    )
    assert model.restriction("Sbar", "F").coords == tuple(q3(3) for _ in range(3))
    assert model.restriction("F", "Sbar").coords == (q3(1), q3(0))
    assert model.restriction("F", "F").coords == (q3(-1), q3(-108))


def test_restrict_examples(model):
    S = model.prime_divisor("Sbar")
    F = model.prime_divisor("F")
    r = model.restrict(-(S + F), "Sbar")
    assert r.coords == (q3(3), q3(6), q3(9))
    # -(n*S + j*F) restricted to the ruled surface is (j-n)C0 + 108j f
    for n, j in ((1, 1), (2, 3), (0, 5), (7, 2)):
        r = model.restrict(-(S * n + F * j), "F")
        assert r.coords == (q3(j - n), q3(108 * j))
    zero = model.restrict(model.zero_divisor(), "F")
    assert zero.is_zero()


@given(x=coeffs2, y=coeffs2)
@settings(max_examples=40)
def test_restrict_is_linear(model, x, y):
    dx, dy = model.divisor(x), model.divisor(y)
    for prime in model.primes:
        lhs = model.restrict(dx + dy, prime)
        rhs = model.restrict(dx, prime) + model.restrict(dy, prime)
        assert lhs.coords == rhs.coords


def test_unknown_prime_rejected(model):
    with pytest.raises(InputError):
        model.restrict(model.prime_divisor("Sbar"), "nope")
    with pytest.raises(InputError):
        model.prime_divisor("nope")


# -- validation ------------------------------------------------------------------


def test_builtin_model_validates(model):
    report = model.validate()
    assert report.ok
    assert len(report.checks) == 8  # 2 surfaces x 2 cone checks + 4 monomials
    assert not report.failures


def test_cross_restriction_agreement(model):
    # the same monomial computed by expanding over either surface
    S = model.prime_divisor("Sbar")
    F = model.prime_divisor("F")
    on_Sbar = model.restrict(S, "Sbar").pair(model.restrict(S, "Sbar"))
    on_F = model.restrict(S, "F").pair(model.restrict(S, "F"))
    assert on_Sbar == 468 and on_F == -162  # S^2 paired over each surface
    # expanding S*S*F over F's coefficient vs over Sbar's:
    assert model.triple(S, S, F) == on_F * 1
    f_cubed_on_F = model.restrict(F, "F").pair(model.restrict(F, "F"))
    assert model.triple(F, F, F) == f_cubed_on_F == 54


def test_perturbed_restriction_rejected_named():
    doc = builtin_document()
    doc["restrictions"]["F"]["F"] = [-1, -107]
    with pytest.raises(ModelValidationError) as exc_info:
        model_from_dict(doc)
    message = str(exc_info.value)
    assert "triple[Sbar·F·F]" in message
    assert "expansions disagree" in message


def test_perturbed_cross_restriction_rejected_named():
    doc = builtin_document()
    doc["restrictions"]["F"]["Sbar"] = [2, 0]
    with pytest.raises(ModelValidationError) as exc_info:
        model_from_dict(doc)
    assert "triple[" in str(exc_info.value)


def test_gram_asymmetry_rejected():
    doc = builtin_document()
    doc["surfaces"][0]["gram"][0][1] = 2  # breaks symmetry with [1][0] = 1
    with pytest.raises(ParseError, match="gram not symmetric"):
        model_from_dict(doc)


# -- JSON round-trip ----------------------------------------------------------------


def test_round_trip_equality(model):
    doc = model_to_dict(model)
    again = model_from_dict(doc)
    assert again == model
    assert model_to_dict(again) == doc


def test_load_model_from_file(tmp_path, model):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_dict(model)))
    loaded = load_model(path)
    assert loaded == model


def test_load_model_missing_file(tmp_path):
    with pytest.raises(ParseError, match="cannot read"):
        load_model(tmp_path / "absent.json")


def test_load_model_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError, match="not valid JSON"):
        load_model(path)


def set_scalar(doc, value):
    doc["restrictions"]["F"]["F"][0] = value


def list_sbar_twice(doc):
    """A one-surface document whose prime list names ``Sbar`` twice."""
    doc["surfaces"].pop()
    doc["primes"] = ["Sbar", "Sbar"]
    doc["restrictions"] = {"Sbar": {"Sbar": doc["restrictions"]["Sbar"]["Sbar"]}}


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.pop("field"), "missing"),
        (lambda d: d.pop("restrictions"), "missing"),
        (lambda d: d["surfaces"][0].pop("gram"), "missing"),
        (lambda d: d["field"].update(d=12), "squarefree"),
        (lambda d: d["restrictions"]["F"].pop("Sbar"), "restriction"),
        (lambda d: d["surfaces"][1]["nef"].update(type="weird"), "cone"),
        (lambda d: d["surfaces"][0].update(name=["Sbar"]), "name: expected a string"),
        (lambda d: d["surfaces"][0].update(basis="ABC"), "basis: expected a nonempty"),
        (lambda d: d["surfaces"][1].update(basis=[]), "basis: expected a nonempty"),
        (lambda d: d.update(surfaces="xx"), "surfaces: expected a list"),
        (lambda d: d["field"].update(d=10**30 + 1), "field.d: .* at most"),
        # model scalars are ints or "p/q" strings, whole or as a/b parts
        (lambda d: set_scalar(d, "1e10000000"), "expected an integer"),
        (lambda d: set_scalar(d, "1.5"), "expected an integer"),
        (lambda d: set_scalar(d, 0.1), "expected an integer"),
        (lambda d: set_scalar(d, True), "expected an integer"),
        (lambda d: set_scalar(d, {"a": 0.5, "b": 1}), "expected an integer"),
        (lambda d: set_scalar(d, {"a": 0.1, "b": 1}), "expected an integer"),
        (lambda d: set_scalar(d, {"a": "1e10000000"}), "expected an integer"),
        # each message names its location once, at the start
        (
            lambda d: d["surfaces"][1]["nef"].update(inequalities=[1, 0]),
            r"^model\.surfaces\[1\]\.nef\.inequalities\[0\]: expected a list of scalars$",
        ),
        (lambda d: d["restrictions"].pop("F"), r"^model\.restrictions: missing \['F'\]$"),
        (
            lambda d: d["restrictions"].update(G={}),
            r"^model\.restrictions: unknown fields \['G'\]$",
        ),
        (
            lambda d: d["restrictions"].update(F=[[1, 0], [-1, -108]]),
            r"^model\.restrictions\['F'\]: expected an object$",
        ),
        (
            lambda d: d["restrictions"]["F"].pop("Sbar"),
            r"^model\.restrictions\['F'\]: missing \['Sbar'\]$",
        ),
        (
            lambda d: d["restrictions"]["F"].update(G=[0, 0]),
            r"^model\.restrictions\['F'\]: unknown fields \['G'\]$",
        ),
        (list_sbar_twice, r"^model: prime names are not unique$"),
        (
            # keys of mixed types, as a Python caller may pass them
            lambda d: d["restrictions"].update({"G": {}, 1: {}}),
            r"^model\.restrictions: unknown fields \[1, 'G'\]$",
        ),
        (
            # and in a scalar's parts
            lambda d: d["surfaces"][0]["gram"][0].__setitem__(0, {"a": 1, 2: 3, "z": 1}),
            r"^model\.surfaces\[0\]\.gram\[0\]: unknown scalar fields \[2, 'z'\]$",
        ),
    ],
)
def test_schema_violations(mutate, fragment):
    doc = builtin_document()
    mutate(doc)
    start = time.perf_counter()
    with pytest.raises(ParseError, match=fragment):
        model_from_dict(doc)
    assert time.perf_counter() - start < 1.0


_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(["Sbar", "F", "quadratic", "polyhedral", "1/2", "1/0", "sqrt(3)"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _paths(node, prefix=()):
    """The key path of every entry below ``node``."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_mutated_documents_raise_only_divfilt_errors(data):
    doc = builtin_document()
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        paths = list(_paths(doc))
        if not paths:
            break
        *head, key = data.draw(st.sampled_from(paths), label="path")
        parent = doc
        for step in head:
            parent = parent[step]
        if data.draw(st.booleans(), label="delete"):
            del parent[key]
        else:
            parent[key] = data.draw(_JSON_VALUES, label="value")
    start = time.perf_counter()
    try:
        model_from_dict(doc)
    except DivfiltError:
        pass
    assert time.perf_counter() - start < 1.0


# -- divisors ----------------------------------------------------------------------


def test_divisor_field_coercion(model):
    D = model.divisor([Fraction(1, 2), 3])
    assert D.coeffs == (q3(Fraction(1, 2)), q3(3))
    root3 = q3(0, 1)
    D2 = model.divisor([root3, 0])
    assert D2.coeffs[0] == root3


def test_divisor_foreign_field_rejected(model):
    root2 = QuadNumber(Fraction(0), Fraction(1), 2)
    with pytest.raises(InputError):
        model.divisor([root2, 0])


@pytest.mark.parametrize("value", [0.1, 1.0, True, False, "1", None])
def test_divisor_refuses_floats_and_bools(model, value):
    """A float is not the rational it is written as, and a bool is not a
    number here: ``divisor([0.1, 1])`` read 3602879701896397/2^55 and
    ``divisor([True, 2])`` read (1, 2) before they were refused."""
    with pytest.raises(InputError, match="int, Fraction or QuadNumber"):
        model.divisor([value, 1])


def test_divisor_arity_enforced(model):
    with pytest.raises(InputError):
        model.divisor([1, 2, 3])


def test_divisor_arithmetic_and_effectivity(model):
    S = model.prime_divisor("Sbar")
    F = model.prime_divisor("F")
    D = S * 2 + F * 3
    assert D.coeffs == (q3(2), q3(3))
    assert D.is_effective
    assert not (S - F).is_effective
    assert (D - D).is_zero()
    assert str(D) == "(2, 3)"
