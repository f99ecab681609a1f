"""Fixed micro-timings of each layer, run untraced at the end of a traced run.

They are the timings ROADMAP item 1 lists: ``QuadNumber`` mul/add/sign,
``SurfaceClass.pair``, ``model.triple``, ``validate``, the import, ``gamma``
at the five golden points, ``regions``/``piecewise_limit``/
``product_limit``/``minkowski_check`` on (Sbar, F) and the golden suite.
Each is the median of a few repeats; the inputs never change, so these
numbers compare layers across commits independently of the workloads.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from fractions import Fraction
from typing import Callable

from divfilt.envelope import gamma, regions
from divfilt.model import builtin_document, builtin_model, model_from_dict
from divfilt.multiplicity import minkowski_check, piecewise_limit, product_limit
from divfilt.qfield import QuadNumber
from divfilt.verify import run_golden_suite

GOLDEN_POINTS = ((2, 1), (1, 1), (2, 3), (1, 3), (0, 1))


def median_seconds(fn: Callable[[], object], repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def per_op_ns(op: Callable[[], object], ops: int, repeats: int = 5) -> float:
    def batch():
        for _ in range(ops):
            op()

    return median_seconds(batch, repeats) / ops * 1e9


def ref_loop_ms() -> float:
    """A fixed pure-Python loop: records the host's speed next to each result."""

    def loop():
        total = 0
        for i in range(200_000):
            total += i * i % 7
        return total

    return median_seconds(loop, 5) * 1e3


def process_ms(argv: list[str], env: dict, repeats: int = 5) -> float:
    def run():
        subprocess.run(argv, env=env, check=True, capture_output=True, timeout=60)

    return median_seconds(run, repeats) * 1e3


def run_micro(env: dict) -> dict[str, float]:
    m = builtin_model()
    S, F = m.prime_divisor("Sbar"), m.prime_divisor("F")
    x = QuadNumber(Fraction(27, 26), Fraction(3, 26), 3)
    y = QuadNumber(Fraction(9, 26), Fraction(-1, 13), 3)
    z = x - y * 3  # opposite-sign parts: the slow path of sign()
    abelian = m.surface("Sbar")
    c1, c2 = abelian.cls([x, 2, y]), abelian.cls([1, x, 3])
    sigma = gamma(m, m.divisor([1, 3])).envelope_divisor

    interpreter = process_ms([sys.executable, "-c", "pass"], env)
    with_import = process_ms([sys.executable, "-c", "import divfilt"], env)
    return {
        "qfield.mul_ns": per_op_ns(lambda: x * y, 20_000),
        "qfield.add_ns": per_op_ns(lambda: x + y, 20_000),
        "qfield.sign_ns": per_op_ns(z.sign, 20_000),
        "surfaces.pair_us": per_op_ns(lambda: c1.pair(c2), 2_000) / 1e3,
        "model.triple_us": per_op_ns(lambda: m.triple(sigma, S, sigma), 500) / 1e3,
        "model.load_ms": median_seconds(lambda: model_from_dict(builtin_document()), 5) * 1e3,
        "model.validate_ms": median_seconds(m.validate, 5) * 1e3,
        "envelope.gamma_golden_ms": median_seconds(
            lambda: [gamma(m, m.divisor(p)) for p in GOLDEN_POINTS], 3
        ) * 1e3,
        "envelope.regions_ms": median_seconds(lambda: regions(m, S, F), 3) * 1e3,
        "multiplicity.piecewise_limit_ms": median_seconds(lambda: piecewise_limit(m, S, F), 3) * 1e3,
        "multiplicity.product_limit_ms": median_seconds(lambda: product_limit(m, S, F), 3) * 1e3,
        "multiplicity.minkowski_check_ms": median_seconds(lambda: minkowski_check(m, S, F), 3) * 1e3,
        "verify.golden_suite_ms": median_seconds(lambda: run_golden_suite(m), 3) * 1e3,
        "cli.interpreter_ms": interpreter,
        "cli.import_ms": with_import - interpreter,
    }
