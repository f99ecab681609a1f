"""The three benchmark workloads: seeded inputs, requests and output checks.

Every workload is a closed loop with one client: the next request is sent
when the previous one has returned.  Inputs come only from the seed; the
library receives nothing but the generated divisors, pairs and command
lines.

* ``envelope-batch``: ``limit_single`` on a stream of distinct effective
  divisors of the builtin model, mixing integer, rational and Q(sqrt(3))
  coefficients over envelope regions 1, 2 and 3.  One ``gamma`` per
  request and no repeats, so envelope reuse has nothing to find and the
  interval code is never reached.
* ``family-sweep``: ``piecewise_limit``, ``product_limit`` and
  ``minkowski_check`` on one pair drawn from a seeded pool of 16 pairs
  whose families have 1, 2 or 3 regions.  Divisors recur within and across
  requests; proportional pairs take the exact-equality path of the
  cube-root decision, the others the interval path.
* ``cli-cold``: one fresh ``python -m divfilt.cli`` process per request,
  over seeded decks of all 11 subcommands, drawn anew for each pass, with
  half of each pass's model-dependent commands on model files whose
  surface lattices went through a seeded unimodular change of basis.  A
  malformed divisor must exit 2 without a traceback.

Requests are dealt from shuffled decks of fixed composition, so the share
of each kind of request is the same on every seed and the latency
percentiles do not jump between the bands of different request kinds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from pathlib import Path
from typing import Iterator, Optional

# Library entry points are looked up on their modules at call time, so
# that a traced run sees the calls the workloads make.
from divfilt import cli, multiplicity
from divfilt.model import builtin_document, builtin_model
from divfilt.qfield import QuadNumber, scalar_from_json, scalar_to_json

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

D = 3
ROOT3 = QuadNumber(Fraction(0), Fraction(1), D)
# Closed form of the builtin model's envelope of (n, j): the first
# coordinate is raised to RAISE * j once j >= STEEP * n (region 3).
STEEP = 3 - ROOT3 / 3
RAISE = QuadNumber(Fraction(9, 26), Fraction(1, 26), D)
# Sbar^3, Sbar^2.F, Sbar.F^2, F^3 on the builtin model.
TRIPLES = (468, -162, 54, 54)


def q(value) -> QuadNumber:
    return value if isinstance(value, QuadNumber) else QuadNumber.rational(value, D)


def dealer(rng: random.Random, deck: list) -> Iterator:
    """Deal the deck forever, reshuffling a copy before each pass."""
    while True:
        cards = list(deck)
        rng.shuffle(cards)
        yield from cards


# ---------------------------------------------------------------------------
# seeded scalars and divisors

KINDS = ("int", "rational", "quad")


def positive_scalar(rng: random.Random, kind: str) -> QuadNumber:
    if kind == "int":
        return q(rng.randint(1, 40))
    if kind == "rational":
        return q(Fraction(rng.randint(1, 80), rng.randint(2, 12)))
    while True:
        a = Fraction(rng.randint(1, 60), rng.randint(1, 9))
        b = Fraction(rng.choice((-1, 1)) * rng.randint(1, 20), rng.randint(1, 9))
        x = QuadNumber(a, b, D)
        if x.sign() > 0:
            return x


# Slope bands of j/n, kept clear of the thresholds 1 and 3 - sqrt(3)/3 at
# which the builtin model's envelope changes region.
BANDS = {1: (Fraction(0), Fraction(9, 10)), 2: (Fraction(11, 10), Fraction(23, 10)), 3: (Fraction(13, 5), Fraction(9))}


def slope_in_band(rng: random.Random, band: int, quad: bool) -> QuadNumber:
    lo, hi = BANDS[band]
    while True:
        if not quad:
            u = q(lo + (hi - lo) * Fraction(rng.randint(0, 96), 97))
        else:
            u = QuadNumber(
                Fraction(rng.randint(0, 90), 10), Fraction(rng.randint(-30, 30), 20), D
            )
        if (u - lo).sign() >= 0 and (u - hi).sign() < 0:
            return u


def divisor_in_band(
    rng: random.Random, band: int, kind: Optional[str] = None, quad_slope: Optional[bool] = None
) -> tuple[QuadNumber, QuadNumber]:
    """Coefficients (n, j) of an effective divisor whose slope j/n lies in ``band``.

    ``kind`` (of n) and ``quad_slope`` are drawn when not given.  The pool
    and deck workloads fix them per slot, so that every seed has the same
    mix of coefficient kinds and about the same cost.
    """
    if kind is None:
        if band == 3 and rng.random() < 0.15:
            return q(0), positive_scalar(rng, rng.choice(KINDS))
        kind = rng.choice(KINDS)
    if quad_slope is None:
        quad_slope = rng.random() < 0.5
    n = positive_scalar(rng, kind)
    return n, n * slope_in_band(rng, band, quad_slope)


def closed_form(n: QuadNumber, j: QuadNumber) -> tuple[tuple[QuadNumber, QuadNumber], str]:
    """The builtin model's envelope of n*Sbar + j*F and its region label."""
    if (j - n).sign() < 0:
        return (n, n), "1"
    if (j - n).sign() == 0:
        return (n, n), "2"
    if (j - STEEP * n).sign() < 0:
        return (n, j), "2"
    return (RAISE * j, j), "3"


def closed_limit(x: QuadNumber, y: QuadNumber) -> QuadNumber:
    """(x*Sbar + y*F)^3 / 3! from the builtin model's triple products."""
    s3, s2f, sf2, f3 = TRIPLES
    return (x * x * x * s3 + 3 * x * x * y * s2f + 3 * x * y * y * sf2 + y * y * y * f3) / 6


# ---------------------------------------------------------------------------
# envelope-batch


class EnvelopeBatch:
    name = "envelope-batch"
    setup_code = "import divfilt\ndivfilt.builtin_model()\nprint('ready', flush=True)\n"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.model = builtin_model()
        self._rng = random.Random(f"{self.name}:{seed}")
        self._bands = dealer(self._rng, [1, 2, 3])
        self._seen: set[tuple[QuadNumber, QuadNumber]] = set()

    def next_request(self) -> tuple[QuadNumber, QuadNumber]:
        band = next(self._bands)
        while True:
            point = divisor_in_band(self._rng, band)
            if point not in self._seen:
                self._seen.add(point)
                return point

    def run(self, request, tracer=None):
        report = multiplicity.limit_single(self.model, self.model.divisor(request))
        # keep only what the checks read, so memory does not grow with throughput
        return report.gamma_used.gamma, report.gamma_used.region, report.limit

    def check(self, request, outcome) -> Optional[str]:
        n, j = request
        gamma, region, limit = outcome
        (x, y), expected_region = closed_form(n, j)
        if gamma != (x, y) or region != expected_region:
            return f"gamma({n}, {j}) = {gamma}, region {region}; closed form ({x}, {y}), region {expected_region}"
        if limit != closed_limit(x, y):
            return f"limit({n}, {j}) = {limit}, closed form {closed_limit(x, y)}"
        return None

    def canonical(self, request, outcome) -> str:
        gamma, region, limit = outcome
        point = ", ".join(c.canonical_string() for c in request)
        envelope = ", ".join(g.canonical_string() for g in gamma)
        return f"({point}) -> {limit.canonical_string()}; ({envelope}), region {region}"


# ---------------------------------------------------------------------------
# family-sweep


@dataclass(frozen=True)
class Pair:
    first: tuple[QuadNumber, QuadNumber]
    second: tuple[QuadNumber, QuadNumber]
    regions: int  # number of regions the family must have


def pair_pool(rng: random.Random) -> list[Pair]:
    """16 pairs: six 1-region families (three proportional), six 2-region, four 3-region.

    Each slot fixes the slope bands and coefficient kinds; the seed draws
    the values.  With several pairs per region count, the percentiles sit
    among pairs of similar cost on every seed.
    """
    pool = []
    for band, kind, scale_kind in ((1, "int", "rational"), (2, "rational", "quad"), (3, "quad", "int")):
        first = divisor_in_band(rng, band, kind, kind != "int")
        lam = positive_scalar(rng, scale_kind)
        pool.append(Pair(first, (first[0] * lam, first[1] * lam), 1))
    # both in band 2 and not proportional: the envelopes stay independent
    for kinds in (("quad", "int"), ("int", "rational"), ("rational", "quad")):
        while True:
            first = divisor_in_band(rng, 2, kinds[0], False)
            second = divisor_in_band(rng, 2, kinds[1], True)
            if first[1] * second[0] != first[0] * second[1]:
                pool.append(Pair(first, second, 1))
                break
    for bands, regions, kinds in (
        ((1, 2), 2, ("rational", "int")),
        ((2, 1), 2, ("int", "quad")),
        ((2, 3), 2, ("quad", "rational")),
        ((3, 2), 2, ("int", "rational")),
        ((1, 2), 2, ("quad", "quad")),
        ((3, 2), 2, ("rational", "int")),
        ((1, 3), 3, ("int", "rational")),
        ((3, 1), 3, ("quad", "int")),
        ((1, 3), 3, ("rational", "quad")),
        ((3, 1), 3, ("int", "rational")),
    ):
        first = divisor_in_band(rng, bands[0], kinds[0], len(pool) % 2 == 0)
        second = divisor_in_band(rng, bands[1], kinds[1], len(pool) % 2 == 1)
        pool.append(Pair(first, second, regions))
    return pool


class FamilySweep:
    name = "family-sweep"
    setup_code = EnvelopeBatch.setup_code

    def __init__(self, seed: int, workdir: Path) -> None:
        self.model = builtin_model()
        rng = random.Random(f"{self.name}:{seed}")
        self.pool = pair_pool(rng)
        self._pairs = dealer(rng, self.pool)
        self._reference: dict[Pair, str] = {}

    def next_request(self) -> Pair:
        return next(self._pairs)

    def divisors(self, pair: Pair):
        return self.model.divisor(pair.first), self.model.divisor(pair.second)

    def run(self, pair: Pair, tracer=None):
        D1, D2 = self.divisors(pair)
        return (
            multiplicity.piecewise_limit(self.model, D1, D2),
            multiplicity.product_limit(self.model, D1, D2),
            multiplicity.minkowski_check(self.model, D1, D2),
        )

    def canonical(self, pair: Pair, outcome) -> str:
        pw, form, report = outcome
        return "\n".join([*pw.lines(), form.render(), *report.lines()])

    def check(self, pair: Pair, outcome) -> Optional[str]:
        text = self.canonical(pair, outcome)
        if pair in self._reference:
            if text != self._reference[pair]:
                return f"{pair}: output differs from the first request on the same pair"
            return None
        failure = self._check_once(pair, outcome)
        if failure is None:
            self._reference[pair] = text
        return failure

    def _check_once(self, pair: Pair, outcome) -> Optional[str]:
        m = self.model
        pw, form, report = outcome
        D1, D2 = self.divisors(pair)
        if len(pw.regions) != pair.regions:
            return f"{pair}: {len(pw.regions)} regions, expected {pair.regions}"
        # e[i]: the mixed multiplicity with i copies of D1 and 3 - i of D2
        e = [multiplicity.mixed(m, [(D1, i), (D2, 3 - i)]) for i in range(4)]
        for (d1, d2), coefficient in zip(multiplicity.MONOMIALS, form.coefficients):
            value = e[d1] / (factorial(d1) * factorial(d2))
            if coefficient != value:
                return f"{pair}: product coefficient n^{d1} j^{d2} = {coefficient}, mixed gives {value}"
        if not report.all_hold:
            return f"{pair}: Minkowski report fails: {report.lines()}"
        if list(report.e_values) != e:
            return f"{pair}: Minkowski e-values {report.e_values} differ from mixed {e}"
        for region in pw.regions:
            lo, hi = region.lower_slope, region.upper_slope
            r = lo + 1 if hi is None else (lo + hi) / 2
            expected = multiplicity.limit_single(m, D1 + D2 * r).limit
            if region.poly.value_at(1, r) != expected:
                return f"{pair}: region {region.bounds_string()} at slope {r} disagrees with limit_single"
        return None


# ---------------------------------------------------------------------------
# cli-cold


def random_unimodular(rng: random.Random, rank: int) -> tuple[list[list[int]], list[list[int]]]:
    """A random integer matrix of determinant +-1 and its inverse."""
    u = [[int(i == k) for k in range(rank)] for i in range(rank)]
    u_inv = [row[:] for row in u]
    for _ in range(3 * rank):
        i, j = rng.sample(range(rank), 2)
        c = rng.choice((-2, -1, 1, 2))
        # u <- E u and u_inv <- u_inv E^-1 for E = I + c e_i e_j^T
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
        for row in u_inv:
            row[j] -= c * row[i]
    identity = [[sum(u[a][k] * u_inv[k][b] for k in range(rank)) for b in range(rank)] for a in range(rank)]
    if identity != [[int(a == b) for b in range(rank)] for a in range(rank)]:
        raise RuntimeError("unimodular change of basis lost its inverse")
    return u, u_inv


def basis_changed_document(rng: random.Random) -> dict:
    """``builtin_document()`` with every surface lattice in a new, seeded basis.

    A new basis e'_k = sum_i U[k][i] e_i turns the gram matrix G into
    U G U^T, class coordinates c into U^-T c and cone functionals f into
    U f, so every pairing and every cone test is unchanged.
    """
    doc = builtin_document()
    d = doc["field"]["d"]

    def vector(values):
        return [scalar_from_json(x, d) for x in values]

    def out(values):
        return [scalar_to_json(x) for x in values]

    for surface in doc["surfaces"]:
        name, rank = surface["name"], len(surface["basis"])
        u, u_inv = random_unimodular(rng, rank)

        def coords(c):
            return out(sum((u_inv[i][k] * c[i] for i in range(rank)), q(0)) for k in range(rank))

        gram = [vector(row) for row in surface["gram"]]
        surface["gram"] = [
            out(
                sum((u[k][i] * gram[i][j] * u[l][j] for i in range(rank) for j in range(rank)), q(0))
                for l in range(rank)
            )
            for k in range(rank)
        ]
        surface["ample"] = coords(vector(surface["ample"]))
        for cone in (surface["nef"], surface["eff"]):
            if "inequalities" in cone:
                cone["inequalities"] = [
                    out(sum((u[k][i] * f[i] for i in range(rank)), q(0)) for k in range(rank))
                    for f in map(vector, cone["inequalities"])
                ]
        surface["basis"] = [f"{name}.e{k}" for k in range(rank)]
        row = doc["restrictions"][name]
        for of_prime in row:
            row[of_prime] = coords(vector(row[of_prime]))
    return doc


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONIOENCODING"] = "utf-8"
    return env


def divisor_text(point) -> str:
    return ",".join(c.canonical_string() for c in point)


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    model_free: bool = False  # runs on the builtin model only
    malformed: bool = False


VERIFY_PASS = re.compile(r"^all \d+ claims PASS$", re.MULTILINE)


class CliCold:
    name = "cli-cold"
    MODEL_FILES = 3

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = random.Random(f"{self.name}:{seed}")
        self.model_paths = []
        for k in range(self.MODEL_FILES):
            path = workdir / f"model-{k}.json"
            path.write_text(json.dumps(basis_changed_document(rng)))
            self.model_paths.append(str(path))
        self.setup_code = (
            "import divfilt\n"
            f"divfilt.load_model({self.model_paths[0]!r})\n"
            "print('ready', flush=True)\n"
        )
        self._rng = rng
        self._pass: list[Command] = []
        self._reference: dict[tuple[str, ...], tuple[int, str]] = {}
        self.env = child_env()

    @staticmethod
    def deck(rng: random.Random) -> list[Command]:
        """20 commands: 5 % verify-paper, 15 % piecewise, 5 % malformed, 75 % one quick computation.

        Each pass draws a new deck, so that over a run the percentiles
        average over many divisors and not over the 20 of one draw.
        """

        def div(band=None, kind=None, quad_slope=None):
            return divisor_text(divisor_in_band(rng, band or rng.choice((1, 2, 3)), kind, quad_slope))

        deck = [Command(("verify-paper",), model_free=True)]
        deck += [
            Command(("piecewise", "-D1", div(1, kind, False), "-D2", div(3, "int", True)))
            for kind in KINDS
        ]
        deck.append(Command(("limit", "-D", div() + "," + div()), malformed=True))
        deck += [Command(("gamma", "-D", div())) for _ in range(2)]
        deck += [Command(("limit", "-D", div())) for _ in range(2)]
        deck.append(Command(("antinef", "-D", div())))
        deck += [
            Command(("mixed", "-D1", div(), "-D2", div(), "--exponents", e)) for e in ("2,1", "1,2")
        ]
        deck += [Command(("intersect",)), Command(("intersect", "-D", div()))]
        deck += [Command(("product", "-D1", div(1), "-D2", div(3))) for _ in range(2)]
        deck += [Command(("minkowski", "-D1", div(2), "-D2", div(2))) for _ in range(2)]
        deck.append(Command(("examples", "--n-max", str(rng.randint(5, 30))), model_free=True))
        deck.append(Command(("validate-model",)))
        return deck

    def next_request(self) -> tuple[Command, str]:
        if not self._pass:
            self._pass = self._draw_pass()
        return self._pass.pop()

    def _draw_pass(self) -> list[tuple[Command, str]]:
        """A shuffled new deck; every other model-dependent command runs on a model file."""
        deck = self.deck(self._rng)
        self._rng.shuffle(deck)
        requests, on_file = [], False
        for command in deck:
            model = "paper"
            if not command.model_free:
                if on_file:
                    model = self._rng.choice(self.model_paths)
                on_file = not on_file
            requests.append((command, model))
        return requests

    def argv(self, request) -> list[str]:
        command, model = request
        return [*command.argv, "--model", model]

    def run(self, request, tracer=None):
        if tracer is None:
            head = [sys.executable, "-m", "divfilt.cli"]
        else:
            trace_path = tracer.child_trace_path()
            head = [sys.executable, str(BENCH / "child_trace.py"), str(trace_path)]
        proc = subprocess.run(
            head + self.argv(request), capture_output=True, env=self.env, timeout=150
        )
        if tracer is not None:
            tracer.absorb_file(trace_path)
        return proc.returncode, proc.stdout, proc.stderr

    def reference(self, command: Command) -> tuple[int, str]:
        """Exit code and stdout of the command on the builtin model, run in this process."""
        if command.argv not in self._reference:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main([*command.argv, "--model", "paper"])
            self._reference[command.argv] = (code, stdout.getvalue())
        return self._reference[command.argv]

    def check(self, request, outcome) -> Optional[str]:
        code, stdout, stderr = outcome
        command, model = request
        if b"Traceback" in stderr:
            return f"{self.argv(request)}: traceback on stderr"
        if command.malformed:
            if code != 2 or stdout or not stderr.startswith(b"parse error:"):
                return f"{self.argv(request)}: malformed divisor gave exit {code}, expected 2"
            return None
        ref_code, ref_stdout = self.reference(command)
        if code != 0 or ref_code != 0:
            return f"{self.argv(request)}: exit {code} (in-process {ref_code}), expected 0"
        if stdout != ref_stdout.encode("utf-8"):
            return f"{self.argv(request)}: stdout differs from the builtin model's"
        if command.argv[0] == "verify-paper" and not VERIFY_PASS.search(ref_stdout):
            return "verify-paper did not print 'all N claims PASS'"
        return None

    def canonical(self, request, outcome) -> str:
        code, stdout, stderr = outcome
        return f"{' '.join(request[0].argv)} -> {code}\n{stdout.decode('utf-8')}"


WORKLOADS = {cls.name: cls for cls in (EnvelopeBatch, FamilySweep, CliCold)}
