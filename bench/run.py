"""Run one divfilt benchmark workload and print its metrics.

From the root of a checkout:

    python3 bench/run.py --workload envelope-batch --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seconds 30      # every workload, one table

The library is imported from the checkout's ``src/`` and nowhere else.
Each run measures one closed loop for ``--seconds`` seconds, then checks
every output outside the timed window.  The last line of stdout is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.  The lines before it give every metric with its
unit and sample count, the error rate, and the Python version, CPU count
and git commit.  Full results (and the spans of a traced run) are written
under ``bench/out/``.  The exit code is 0 only if every output checked out.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from hostspeed import BURST, HostClock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOAD_NAMES = ("envelope-batch", "family-sweep", "cli-cold")
DEFAULT_SEED = 0
# set-up is timed this many times before and again after the timed window
SETUP_REPEATS = 12
# Outputs of the first DIGEST_PREFIX requests of a run on the default seed,
# hashed on the seed commit of this benchmark.
DIGEST_PREFIX = 8
PINNED_DIGESTS = {
    "envelope-batch": "c39f6a423154ab80c29d0f413ccdbee6cde9d1ace31c388af82b1e6a2497e859",
    "family-sweep": "dc86b6ae7315e8639e2e0979a602df7caf6fa099476cb9911905a177a9a8032f",
    "cli-cold": "b0465e813eff75de063fc75acd1fa872a5609fbb21d1ee09c96c04ca30a1b069",
}

END_TO_END_UNITS = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_rps": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class GuardError(Exception):
    """The checkout's own divfilt sources cannot be used."""


def load_divfilt():
    """Import divfilt from this checkout's ``src/``, refusing any other copy."""
    package = SRC / "divfilt"
    if not (package / "__init__.py").is_file():
        raise GuardError(f"no divfilt sources at {package}")
    sys.path.insert(0, str(SRC))
    import divfilt

    found = Path(divfilt.__file__).resolve().parent
    if found != package.resolve():
        raise GuardError(f"divfilt was imported from {found}, not from {package}")
    return divfilt


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# statistics


def percentile(values: list[float], p: float) -> float:
    """The p-th percentile, interpolating linearly between order statistics."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    k = (len(xs) - 1) * p / 100
    lo = math.floor(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def samples_beyond(values: list[float], p: float) -> int:
    cut = percentile(values, p)
    return sum(1 for v in values if v > cut)


# ---------------------------------------------------------------------------
# measurement


@dataclass
class Loop:
    spans: list[tuple[float, float]]  # start and end of each request
    records: list[tuple[object, object, Optional[str]]]  # request, outcome, error
    elapsed: float
    clock: HostClock

    @property
    def latencies(self) -> list[float]:
        """Seconds per request, rescaled to the host's nominal speed."""
        return [self.clock.scaled(t0, t1) for t0, t1 in self.spans]

    @property
    def wall_latencies(self) -> list[float]:
        return [t1 - t0 for t0, t1 in self.spans]

    @property
    def throughput(self) -> float:
        """Completed requests per second of rescaled request time."""
        completed = sum(1 for _, _, error in self.records if error is None)
        return completed / sum(self.latencies)

    @property
    def wall_throughput(self) -> float:
        return sum(1 for _, _, error in self.records if error is None) / self.elapsed


def closed_loop(workload, seconds: float, tracer=None) -> Loop:
    """One client: send the next request when the last one returns, until time is up.

    Between requests the host's speed is calibrated (see ``hostspeed``).
    """
    spans, records = [], []
    clock = HostClock()
    clock.sample()
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        clock.calibrate()
        request = workload.next_request()
        if tracer is not None:
            tracer.request = len(records)
        t0 = time.perf_counter()
        try:
            outcome, error = workload.run(request, tracer), None
        except Exception as exc:  # a failed request is counted, not fatal
            outcome, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        spans.append((t0, t1))
        records.append((request, outcome, error))
        if t1 >= deadline:
            for _ in range(BURST):
                clock.sample()
            return Loop(spans, records, t1 - start, clock)


def measure_setup(code: str, env: dict, repeats: int) -> tuple[list[float], list[float]]:
    """Seconds from starting a fresh interpreter until it has a validated model.

    Returns the times rescaled to the host's nominal speed, and the wall times.
    """
    clock = HostClock()
    clock.sample()
    spans = []
    for _ in range(repeats):
        clock.calibrate()
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", code], stdout=subprocess.PIPE, env=env
        ) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up process failed (exit {proc.returncode})")
        spans.append((start, ready))
    for _ in range(BURST):
        clock.sample()
    return [clock.scaled(t0, t1) for t0, t1 in spans], [t1 - t0 for t0, t1 in spans]


def check_records(workload, records) -> list[str]:
    """One message per failed request: it raised or its output is wrong."""
    failures = []
    for request, outcome, error in records:
        if error is None:
            error = workload.check(request, outcome)
        if error is not None:
            failures.append(error)
    return failures


def output_digest(workload, records) -> Optional[str]:
    if len(records) < DIGEST_PREFIX:
        return None
    text = "\n".join(
        workload.canonical(request, outcome) for request, outcome, _ in records[:DIGEST_PREFIX]
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def peak_rss_mb(workload_name: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload_name == "cli-cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# the traced run


def per_request(count: float, requests: int) -> float:
    return count / requests if requests else 0.0


def layer_metrics(tracer, counts: Counter, events: list, requests: int) -> dict[str, float]:
    """Per-layer metrics of a traced run.

    Call counts and ratios cover the workload's traced requests.  Self
    times are per call into the function or layer, over every span of the
    traced run, which ends with one in-process ``verify-paper`` so that
    every layer is entered on every workload.
    """
    from tracing import layer_of, self_time_by

    by_name: dict[str, list[int]] = {}
    by_layer: dict[str, list[int]] = {}
    for spans in [tracer.spans, *tracer.child_spans]:
        for table, key in ((by_name, lambda n: n), (by_layer, layer_of)):
            for group, (own, entries) in self_time_by(spans, key).items():
                slot = table.setdefault(group, [0, 0])
                slot[0] += own
                slot[1] += entries

    def self_ms(table, group) -> float:
        own, entries = table.get(group, (0, 0))
        return own / entries / 1e6 if entries else 0.0

    def calls(*names) -> float:
        return per_request(sum(counts[n] for n in names), requests)

    gamma_inputs: dict[object, list[str]] = {}
    exact_verdicts = []
    for request, kind, value in events:
        if kind == "gamma_input":
            gamma_inputs.setdefault(request, []).append(value)
        elif kind == "cube_root_exact":
            exact_verdicts.append(value)
    gamma_calls = sum(len(keys) for keys in gamma_inputs.values())
    gamma_distinct = sum(len(set(keys)) for keys in gamma_inputs.values())

    return {
        "qfield.mul_calls": calls("qfield.QuadNumber.__mul__"),
        "qfield.add_calls": calls("qfield.QuadNumber.__add__"),
        "qfield.sign_calls": calls("qfield.QuadNumber.sign"),
        "qfield.inverse_calls": calls("qfield.QuadNumber.inverse"),
        "surfaces.pair_calls": calls("surfaces.SurfaceClass.pair"),
        "surfaces.pair_self_ms": self_ms(by_name, "surfaces.SurfaceClass.pair"),
        "surfaces.cone_contains_calls": calls("surfaces.SurfaceLattice.cone_contains"),
        "model.triple_calls": calls("model.ThreefoldModel.triple"),
        "model.triple_self_ms": self_ms(by_name, "model.ThreefoldModel.triple"),
        "envelope.gamma_calls": per_request(gamma_calls, requests),
        "envelope.gamma_distinct_ratio": gamma_distinct / gamma_calls if gamma_calls else 0.0,
        "envelope.gamma_self_ms": self_ms(by_name, "envelope.gamma"),
        "envelope.regions_self_ms": self_ms(by_name, "envelope.regions"),
        "multiplicity.limit_single_self_ms": self_ms(by_name, "multiplicity.limit_single"),
        "multiplicity.piecewise_limit_self_ms": self_ms(by_name, "multiplicity.piecewise_limit"),
        "multiplicity.product_limit_self_ms": self_ms(by_name, "multiplicity.product_limit"),
        "multiplicity.minkowski_check_self_ms": self_ms(by_name, "multiplicity.minkowski_check"),
        "multiplicity.cube_root_verdicts": per_request(len(exact_verdicts), requests),
        "multiplicity.exact_decision_ratio": (
            sum(exact_verdicts) / len(exact_verdicts) if exact_verdicts else 0.0
        ),
        "intervals.enclosure_calls": calls(
            "intervals.sqrt_enclosure", "intervals.quad_enclosure", "intervals.cbrt_enclosure"
        ),
        "intervals.self_ms": self_ms(by_layer, "intervals"),
        "filt_examples.length_calls": calls(
            "filt_examples.sqrt2_length",
            "filt_examples.norm_length",
            "filt_examples.LengthSequence.length",
        ),
        "filt_examples.self_ms": self_ms(by_layer, "filt_examples"),
        "cli.main_self_ms": self_ms(by_name, "cli.main"),
        "trace.requests": float(requests),
    }


def traced_run(workload, seconds: float, workdir: Path, env: dict, spans_path: Path):
    """Half the window untraced, half traced, then the probe and micro-timings."""
    import tracing
    from divfilt import cli
    from microbench import run_micro

    untraced = closed_loop(workload, seconds / 2)
    tracer = tracing.Tracer(workdir=workdir)
    tracer.install()
    try:
        traced = closed_loop(workload, seconds / 2, tracer)
        counts, events = Counter(tracer.counts), list(tracer.events)
        tracer.request = "probe"
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(["verify-paper"]) != 0:
                raise RuntimeError("verify-paper failed during the traced probe")
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer, counts, events, len(traced.records))
    metrics.update(run_micro(env))
    metrics["trace.overhead_ratio"] = traced.throughput / untraced.throughput
    tracer.dump(spans_path)
    return untraced, traced, metrics


# ---------------------------------------------------------------------------
# entry points


def run_one(args) -> int:
    try:
        divfilt_module = load_divfilt()
    except GuardError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    import workloads
    from microbench import ref_loop_ms

    env_record = environment()
    print(
        f"env python={env_record['python']} nproc={env_record['nproc']} "
        f"commit={env_record['commit']} divfilt={Path(divfilt_module.__file__).parent}"
    )
    print(f"run workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    OUT.mkdir(exist_ok=True)
    child_env = workloads.child_env()
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workdir = Path(tmp)
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        ref_ms = ref_loop_ms()
        if args.trace:
            first, last, metrics = traced_run(
                workload, args.seconds, workdir, child_env,
                OUT / f"spans-{args.workload}-seed{args.seed}.json",
            )
            metrics["host.ref_loop_ms"] = ref_ms
            loops = [first, last]
            units = {}
        else:
            setup, setup_wall = measure_setup(workload.setup_code, child_env, SETUP_REPEATS)
            first = closed_loop(workload, args.seconds)
            more, more_wall = measure_setup(workload.setup_code, child_env, SETUP_REPEATS)
            setup += more
            setup_wall += more_wall
            loops = [first]
            ms = [t * 1e3 for t in first.latencies]
            wall_ms = [t * 1e3 for t in first.wall_latencies]
            metrics = {
                "latency_p50_ms": percentile(ms, 50),
                "latency_p90_ms": percentile(ms, 90),
                "throughput_rps": first.throughput,
                "setup_s": statistics.median(setup),
                "peak_rss_mb": peak_rss_mb(args.workload),
            }
            units = END_TO_END_UNITS
            n = len(ms)
            notes = {
                "latency_p50_ms": f"n={n}; wall {percentile(wall_ms, 50):.4g}",
                "latency_p90_ms": (
                    f"n={n}, {samples_beyond(ms, 90)} beyond; wall {percentile(wall_ms, 90):.4g}"
                ),
                "throughput_rps": (
                    f"n={n} over {first.elapsed:.2f} s; wall {first.wall_throughput:.4g}"
                ),
                "setup_s": (
                    f"median of {len(setup)}, half before and half after the window; "
                    f"wall {statistics.median(setup_wall):.4g}"
                ),
                "peak_rss_mb": "self" if args.workload != "cli-cold" else "largest child",
            }
            slowdowns = first.clock.slowdowns()
        records = [r for loop in loops for r in loop.records]
        failures = check_records(workload, records)
        digest = output_digest(workload, records)

    attempted = len(records)
    pinned = PINNED_DIGESTS.get(args.workload) if args.seed == DEFAULT_SEED else None
    digest_ok = pinned is None or digest is None or digest == pinned
    correct = not failures and digest_ok

    if args.trace:
        for name, value in metrics.items():
            print(f"{args.workload} {name} {value:.6g}")
    else:
        for name, value in metrics.items():
            print(f"{args.workload} {name} {value:.6g} {units[name]} ({notes[name]})")
    print(
        f"{args.workload} error_rate {len(failures) / attempted:.6g} ratio "
        f"({len(failures)} of {attempted} failed)"
    )
    if not args.trace:
        print(f"{args.workload} host.ref_loop_ms {ref_ms:.6g} ms")
        quartiles = statistics.quantiles(slowdowns, n=4)
        print(
            f"{args.workload} host.slowdown quartiles "
            + " ".join(f"{x:.3g}" for x in quartiles)
            + f" over {len(slowdowns)} calibrations (times above are rescaled by it)"
        )
    if pinned is None or digest is None:
        status = "skipped"
    else:
        status = "ok" if digest_ok else "MISMATCH"
    print(f"{args.workload} digest {digest} pinned={status}")
    for message in failures[:5]:
        print(f"FAILED {message}", file=sys.stderr)

    result = {"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": {
        name: {"value": value, "unit": units.get(name, layer_unit(name))}
        for name, value in metrics.items()
    }}
    record = dict(result, env=env_record, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, digest=digest, failures=failures[:20])
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    print(json.dumps(result))
    return 0 if correct else 1


def layer_unit(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("_ns", "ns"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def run_all(args) -> int:
    """Every workload in its own process, so memory and set-up stay per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"bench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
