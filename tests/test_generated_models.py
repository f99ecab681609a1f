"""Seeded all-polyhedral models: every answer is the oracle's, every
refusal is right.

Surface ``i`` of a generated model over ``t`` primes has the restrictions
``r_i(E_1), ..., r_i(E_t)`` as its basis, so every restriction is a unit
vector; its gram matrix is the slice ``T[i]`` of a seeded symmetric cubic
form ``T``, which makes every triple read the same from all three primes,
and its ample class is ``-(1, ..., 1)``, the restriction of ``-sum E_k``.
Its nef and effective cones are cut out by the same ``t`` seeded integer
functionals, each positive on the ample class.  Everything stays
rational, and the plain-algorithm oracle (``reference_gamma``) decides
both the envelope and whether one exists.
"""

import random
from fractions import Fraction

import pytest
from test_envelope import assert_certificate_holds, reference_gamma

from divfilt.envelope import gamma, regions
from divfilt.errors import ComputationError, DivfiltError
from divfilt.model import model_from_dict

# draws of a functional the generator may spend on one model
DRAW_BUDGET = 1000


def polyhedral_document(rng, t, budget=DRAW_BUDGET):
    """A model document over ``t`` primes as the module docstring describes.

    Functionals are drawn with entries in ``[-4, 4]`` and kept when
    positive on ``-(1, ..., 1)``; raises ``RuntimeError`` once ``budget``
    draws are spent without ``t*t`` kept.
    """
    primes = [f"E{i}" for i in range(t)]
    T = {}
    for i in range(t):
        for j in range(i, t):
            for k in range(j, t):
                T[i, j, k] = rng.randint(-3, 3)

    def triple(*ijk):
        return T[tuple(sorted(ijk))]

    draws = 0

    def functional():
        nonlocal draws
        while draws < budget:
            draws += 1
            f = [rng.randint(-4, 4) for _ in range(t)]
            if sum(f) < 0:
                return f
        raise RuntimeError(f"no positive functional within {budget} draws")

    surfaces = []
    for i, name in enumerate(primes):
        cone = {"type": "polyhedral", "inequalities": [functional() for _ in range(t)]}
        surfaces.append(
            {
                "name": name,
                "basis": [f"r{k}" for k in range(t)],
                "gram": [[triple(i, j, k) for k in range(t)] for j in range(t)],
                "ample": [-1] * t,
                "nef": cone,
                "eff": cone,
            }
        )
    restrictions = {
        p: {q: [int(k == j) for k in range(t)] for j, q in enumerate(primes)}
        for p in primes
    }
    return {
        "field": {"d": 3},
        "surfaces": surfaces,
        "primes": primes,
        "restrictions": restrictions,
    }


def seeded_divisors(m, rng, count):
    """``count`` nonzero effective divisors with rational coefficients."""
    divisors = []
    while len(divisors) < count:
        D = m.divisor([Fraction(rng.randint(0, 12), rng.randint(1, 3)) for _ in m.primes])
        if not D.is_zero():
            divisors.append(D)
    return divisors


def test_generator_fails_loudly_when_its_budget_runs_out():
    with pytest.raises(RuntimeError, match="within 0 draws"):
        polyhedral_document(random.Random(0), 2, budget=0)


MODELS, DIVISORS = 3, 10

# (t, seed) -> (answered, of them with a raised coordinate, refused) over
# the seed's MODELS models and DIVISORS divisors on each; t = 4 is left
# out, since its oracle takes seconds per divisor
PINNED = {
    (2, 0): (30, 7, 0),
    (2, 1): (30, 18, 0),
    (3, 1): (15, 8, 15),
    (3, 3): (29, 19, 1),
}


@pytest.mark.parametrize("t, seed", sorted(PINNED))
def test_gamma_on_generated_models(t, seed):
    """Every ``gamma`` answer equals ``reference_gamma`` in its point,
    active set and region, and passes :func:`assert_certificate_holds`;
    every refusal is a :class:`DivfiltError` for a divisor whose feasible
    set has no least point, and it names that cause; nothing else
    escapes."""
    rng = random.Random(seed)
    answered = raised = refused = 0
    for _ in range(MODELS):
        m = model_from_dict(polyhedral_document(rng, t))
        for D in seeded_divisors(m, rng, DIVISORS):
            try:
                env = gamma(m, D)
            except DivfiltError as exc:
                assert reference_gamma(m, D) is None, D
                assert str(exc) == (
                    f"no certified envelope line from sum E_i to {D}; "
                    "a divisor on that segment has no least anti-nef majorant"
                )
                refused += 1
                continue
            assert (env.gamma, env.active, env.region) == reference_gamma(m, D), D
            assert_certificate_holds(m, env)
            answered += 1
            raised += bool(env.raised_indices)
    assert (answered, raised, refused) == PINNED[t, seed]


def test_family_refusal_names_its_cause():
    """``regions`` refuses a family on a generated model where the walk
    finds no line above a slope, names the cause, and the oracle agrees:
    the family's divisor at the slope has a least anti-nef majorant, the
    one just above it has none."""
    m = model_from_dict(polyhedral_document(random.Random(1), 3))
    D1, D2 = m.divisor([0, 1, 1]), m.divisor([1, 0, 1])
    with pytest.raises(ComputationError) as refusal:
        regions(m, D1, D2)
    assert str(refusal.value) == (
        "no certified envelope line above slope 1/4; a divisor of the family "
        "just above that slope has no least anti-nef majorant"
    )
    assert reference_gamma(m, D1 + D2 * Fraction(1, 4)) is not None
    assert reference_gamma(m, D1 + D2 * Fraction(251, 1000)) is None
