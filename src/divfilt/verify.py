"""Golden regression suite for the builtin model.

Every numeric claim the builtin model is expected to reproduce is frozen
here as a (name, expected, computed) triple; :func:`run_golden_suite`
recomputes each one and reports a claim / expected / computed / status
table.  The command-line subcommand ``verify-paper`` is a thin wrapper
around this function and exits nonzero on any mismatch.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Callable, NamedTuple, Optional

from .envelope import gamma, is_antinef, regions
from .errors import InputError, ModelValidationError
from .filt_examples import (
    diagonal_norm_sequence,
    limit_probe,
    norm_length,
    sqrt2_length,
    sqrt2_sequence,
)
from .model import ThreefoldModel, builtin_document, builtin_model, model_from_dict
from .multiplicity import (
    PiecewisePoly,
    limit_single,
    minkowski_check,
    mixed,
    piecewise_limit,
    product_limit,
)
from .qfield import QuadNumber


class Claim(NamedTuple):
    name: str
    expected: str
    computed: str

    @property
    def ok(self) -> bool:
        return self.expected == self.computed

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "expected": self.expected,
            "computed": self.computed,
            "status": "PASS" if self.ok else "FAIL",
        }


class VerifyReport(NamedTuple):
    claims: tuple[Claim, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.ok for c in self.claims)

    @property
    def fail_count(self) -> int:
        return sum(1 for c in self.claims if not c.ok)

    def lines(self) -> list[str]:
        name_w = max(len("claim"), *(len(c.name) for c in self.claims))
        exp_w = max(len("expected"), *(len(c.expected) for c in self.claims))
        com_w = max(len("computed"), *(len(c.computed) for c in self.claims))
        header = (
            f"{'claim':<{name_w}} | {'expected':<{exp_w}} | "
            f"{'computed':<{com_w}} | status"
        )
        rule = "-" * len(header)
        rows = [header, rule]
        for c in self.claims:
            status = "PASS" if c.ok else "FAIL"
            rows.append(
                f"{c.name:<{name_w}} | {c.expected:<{exp_w}} | "
                f"{c.computed:<{com_w}} | {status}"
            )
        rows.append(rule)
        total = len(self.claims)
        if self.all_pass:
            rows.append(f"all {total} claims PASS")
        else:
            rows.append(f"{self.fail_count} of {total} claims FAIL")
        return rows

    def to_json_dict(self) -> dict:
        return {
            "claims": [c.to_json_dict() for c in self.claims],
            "all_pass": self.all_pass,
        }


def run_golden_suite(model: Optional[ThreefoldModel] = None) -> VerifyReport:
    """Recompute every frozen claim on the given model (default builtin)."""
    m = model if model is not None else builtin_model()
    claims: list[Claim] = []

    def claim(name: str, expected: str, compute: Callable[[], str]) -> None:
        try:
            computed = compute()
        except Exception as exc:  # a crash is itself a reportable mismatch
            computed = f"error: {type(exc).__name__}: {exc}"
        claims.append(Claim(name=name, expected=expected, computed=computed))

    try:
        S = m.prime_divisor("Sbar")
        F = m.prime_divisor("F")
    except InputError:
        # without the claimed primes nothing else can be recomputed;
        # report the single structural mismatch instead of crashing
        claims.append(
            Claim(
                name="model primes",
                expected="Sbar, F",
                computed=", ".join(m.primes),
            )
        )
        return VerifyReport(tuple(claims))

    # -- trilinear form on the prime basis ---------------------------------
    for name, slots, expected in (
        ("triple[Sbar^3]", (S, S, S), "468"),
        ("triple[Sbar^2*F]", (S, S, F), "-162"),
        ("triple[Sbar*F^2]", (S, F, F), "54"),
        ("triple[F^3]", (F, F, F), "54"),
    ):
        claim(
            name,
            expected,
            lambda slots=slots: m.triple(*slots).canonical_string(),
        )

    # -- minimal nef envelopes ----------------------------------------------
    for (n, j), expected in (
        ((2, 1), "(2, 2), region 1"),
        ((1, 1), "(1, 1), region 2"),
        ((2, 3), "(2, 3), region 2"),
        ((1, 3), "(27/26 + 3/26*sqrt(3), 3), region 3"),
        ((0, 1), "(9/26 + 1/26*sqrt(3), 1), region 3"),
    ):
        claim(
            f"gamma({n},{j})",
            expected,
            lambda n=n, j=j: str(gamma(m, m.divisor([n, j]))),
        )

    # -- orthogonality: sigma^2 . E_i = 0 at every raised prime E_i ---------
    for (n, j), expected in (
        ((2, 1), "sigma^2*F = 0"),
        ((1, 3), "sigma^2*Sbar = 0"),
        ((0, 1), "sigma^2*Sbar = 0"),
    ):
        claim(
            f"orthogonality({n},{j})",
            expected,
            lambda n=n, j=j: _orthogonality(m, m.divisor([n, j])),
        )

    claim(
        "antinef(2*Sbar+2*F)",
        "True",
        lambda: str(is_antinef(m, m.divisor([2, 2]))),
    )

    # -- region boundaries of the (Sbar, F) family --------------------------
    claim(
        "region_slopes(Sbar,F)",
        "1, 3 - 1/3*sqrt(3)",
        lambda: ", ".join(
            b.canonical_string() for b in regions(m, S, F)
        ),
    )

    # -- piecewise limit and its 3!-scaled multiplicity form ---------------
    pw = cache(lambda: piecewise_limit(m, S, F))
    for k, expected in (
        (0, "region 1: [0, 1) -> 33*n^3"),
        (1, "region 2: [1, 3 - 1/3*sqrt(3)) -> 78*n^3 - 81*n^2*j + 27*n*j^2 + 9*j^3"),
        (2, "region 3: [3 - 1/3*sqrt(3), inf) -> (2007/169 - 9/338*sqrt(3))*j^3"),
    ):
        claim(f"piecewise(Sbar,F)[{k + 1}]", expected, lambda k=k: pw().lines()[k])
    for k, expected in (
        (0, "198*n^3"),
        (1, "468*n^3 - 486*n^2*j + 162*n*j^2 + 54*j^3"),
        (2, "(12042/169 - 27/169*sqrt(3))*j^3"),
    ):
        claim(
            f"multiplicity_poly(Sbar,F)[{k + 1}]",
            expected,
            lambda k=k: pw().regions[k].poly.scaled(6).render(),
        )

    # -- C^1 gluing across each breakpoint, with the jump of f'' -------------
    for k, expected in (
        (0, "at 1: value 0, slope 0, jump -108"),
        (1, "at 3 - 1/3*sqrt(3): value 0, slope 0, jump 27/13 + 81/13*sqrt(3)"),
    ):
        claim(f"gluing(Sbar,F)[{k + 1}]", expected, lambda k=k: _gluing(pw(), k))

    # -- single-divisor limits ----------------------------------------------
    claim(
        "limit(F)",
        "2007/169 - 9/338*sqrt(3)",
        lambda: limit_single(m, F).limit.canonical_string(),
    )
    claim(
        "multiplicity(F)",
        "12042/169 - 27/169*sqrt(3)",
        lambda: limit_single(m, F).multiplicity.canonical_string(),
    )
    claim(
        "multiplicity(Sbar+F)",
        "198",
        lambda: limit_single(m, S + F).multiplicity.canonical_string(),
    )

    # -- product-filtration limit -------------------------------------------
    claim(
        "product_limit(Sbar,F)",
        "33*n^3 + (891/26 + 99/26*sqrt(3))*n^2*j"
        " + (6021/169 - 27/338*sqrt(3))*n*j^2"
        " + (2007/169 - 9/338*sqrt(3))*j^3",
        lambda: product_limit(m, S, F).render(),
    )

    # -- mixed multiplicities -----------------------------------------------
    for exps, expected in (
        ((3, 0), "198"),
        ((2, 1), "891/13 + 99/13*sqrt(3)"),
        ((1, 2), "12042/169 - 27/169*sqrt(3)"),
        ((0, 3), "12042/169 - 27/169*sqrt(3)"),
    ):
        d1, d2 = exps
        claim(
            f"mixed(Sbar^{d1},F^{d2})",
            expected,
            lambda d1=d1, d2=d2: mixed(
                m, [(S, d1), (F, d2)]
            ).canonical_string(),
        )

    # -- Minkowski-style inequalities ----------------------------------------
    claim(
        "minkowski(Sbar,F)",
        "all 10 exact + 1 interval hold",
        lambda: _minkowski_summary(m, S, F),
    )

    # -- cone geometry frozen values ----------------------------------------
    abelian = m.surface("Sbar")
    claim(
        "eff_boundary[A+2B+3Delta -> -(A+B+Delta)]",
        "2 - 1/3*sqrt(3)",
        lambda: ", ".join(
            t.canonical_string()
            for t in abelian.boundary_slopes(
                "eff",
                abelian.cls([1, 2, 3]),
                -abelian.cls([1, 1, 1]),
            )
        ),
    )
    ruled = m.surface("F")
    claim(
        "nef_membership[C0+162f, C0+161f]",
        "True, False",
        lambda: ", ".join(
            str(ruled.cone_contains("nef", ruled.cls([1, c])))
            for c in (162, 161)
        ),
    )

    # -- filtration length oracles ------------------------------------------
    claim("sqrt2_length(5)", "8", lambda: str(sqrt2_length(5)))
    claim(
        "norm_length[(3,4),(1,1),(2,2)]",
        "5, 2, 3",
        lambda: ", ".join(
            str(norm_length(a, b)) for a, b in ((3, 4), (1, 1), (2, 2))
        ),
    )
    claim(
        "norm_length non-homogeneity",
        "3 != 4",
        lambda: f"{norm_length(2, 2)} != {2 * norm_length(1, 1)}"
        if norm_length(2, 2) != 2 * norm_length(1, 1)
        else "homogeneous",
    )
    claim(
        "sqrt2 probe(1e5) within 1e-5",
        "True",
        lambda: str(_sqrt2_probe_within(Fraction(1, 10**5))),
    )
    claim(
        "diagonal norm probe(1e3) within 1e-3",
        "True",
        lambda: str(
            abs(
                limit_probe(diagonal_norm_sequence(), 1000).estimate
                - QuadNumber(Fraction(0), Fraction(1), 2)
            )
            <= Fraction(1, 1000)
        ),
    )

    # -- negative control: corrupted restriction table is rejected ----------
    claim(
        "reject perturbed restriction r_F(F)=(-1,-107)",
        "rejected: triple[Sbar·F·F]",
        _perturbed_model_rejection,
    )

    return VerifyReport(tuple(claims))


def _orthogonality(model: ThreefoldModel, D) -> str:
    """``sigma^2 . E_i`` at each prime ``E_i`` that ``D``'s envelope raises:
    zero is the local form of the orthogonality of the positive intersection
    product (Boucksom-Favre-Jonsson, J. Algebraic Geom. 18, 2009).  The
    values are the raised entries of one polar vector ``polar(sigma,
    sigma)``."""
    env = gamma(model, D)
    sigma = env.envelope_divisor
    w = model.polar(sigma, sigma)
    return ", ".join(
        f"sigma^2*{model.primes[i]} = {w[i].canonical_string()}"
        for i in env.raised_indices
    )


def _gluing(pw: PiecewisePoly, k: int) -> str:
    """Left minus right across breakpoint ``k`` of the limit along ``n*D1 +
    j*D2`` at ``n = 1``: its value, first and second ``j``-derivative.  The
    first two vanish, the differentiability of volume (Boucksom-Favre-Jonsson);
    the second does not."""
    r = pw.regions[k + 1].lower_slope
    diff = pw.regions[k].poly - pw.regions[k + 1].poly
    value = diff.slope_value(r)
    _, a1, a2, a3 = diff.coefficients
    slope = a1 + (a2 * 2 + a3 * r * 3) * r
    jump = a2 * 2 + a3 * r * 6
    return (
        f"at {r.canonical_string()}: value {value.canonical_string()}, "
        f"slope {slope.canonical_string()}, jump {jump.canonical_string()}"
    )


def _minkowski_summary(model: ThreefoldModel, D1, D2) -> str:
    """How many checks hold, by method, or the labels of those that fail.

    Every check but the last (the cube-root one) is decided exactly, so
    the counts come from the verdicts alone; the sides are rendered only
    to name failing checks.
    """
    report = minkowski_check(model, D1, D2)
    if not report.all_hold:
        failing = ", ".join(c.label for c in report.checks if not c.holds)
        return f"FAILS: {failing}"
    method = report.cube_root_method
    exact = len(report.verdicts) - 1 + method.startswith("exact")
    interval = int(method.startswith("interval"))
    return f"all {exact} exact + {interval} interval hold"


def _sqrt2_probe_within(tolerance: Fraction) -> bool:
    result = limit_probe(sqrt2_sequence(), tolerance.denominator)
    target = QuadNumber(Fraction(0), Fraction(1), 2)
    return abs(result.estimate - target) <= tolerance


def _perturbed_model_rejection() -> str:
    doc = builtin_document()
    doc["restrictions"]["F"]["F"] = [-1, -107]
    try:
        model_from_dict(doc)
    except ModelValidationError as exc:
        names = [text.split(":", 1)[0] for text in exc.failures]
        return "rejected: " + ", ".join(names)
    return "accepted"
