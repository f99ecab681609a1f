"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest bench -q
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.load_divfilt()

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from divfilt import envelope, multiplicity  # noqa: E402
from divfilt.model import builtin_document, builtin_model, model_from_dict  # noqa: E402


def first_requests(name, seed, tmp_path, count=12):
    workload = workloads.WORKLOADS[name](seed, tmp_path)
    requests = [workload.next_request() for _ in range(count)]
    if name == "cli-cold":
        models = [Path(p).read_text() for p in workload.model_paths]
        requests = [(command.argv, Path(model).name) for command, model in requests]
        return requests, models
    return requests


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_seed_determines_inputs(name, tmp_path):
    assert first_requests(name, 1, tmp_path) == first_requests(name, 1, tmp_path)
    assert first_requests(name, 1, tmp_path) != first_requests(name, 2, tmp_path)


def test_envelope_batch_inputs_are_distinct_and_cover_regions(tmp_path):
    workload = workloads.EnvelopeBatch(5, tmp_path)
    points = [workload.next_request() for _ in range(300)]
    assert len(set(points)) == len(points)
    assert {workloads.closed_form(n, j)[1] for n, j in points} == {"1", "2", "3"}
    coefficients = [c for point in points for c in point]
    assert any(c.b != 0 for c in coefficients)
    assert any(c.b == 0 and c.a.denominator != 1 for c in coefficients)
    assert any(c.b == 0 and c.a.denominator == 1 for c in coefficients)


def test_family_pool_region_counts_and_paths(tmp_path):
    workload = workloads.FamilySweep(3, tmp_path)
    assert sorted(p.regions for p in workload.pool) == [1] * 6 + [2] * 6 + [3] * 4
    for pair in workload.pool:
        outcome = workload.run(pair)
        assert workload.check(pair, outcome) is None
    methods = {workload.run(p)[2].checks[-1].method.split("(")[0] for p in workload.pool}
    assert {"exact-equality", "interval"} <= methods


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_basis_changed_documents_give_builtin_answers(seed):
    doc = workloads.basis_changed_document(random.Random(seed))
    assert doc["surfaces"] != builtin_document()["surfaces"]
    changed, reference = model_from_dict(doc), builtin_model()
    S, F = reference.prime_divisor("Sbar"), reference.prime_divisor("F")
    for coeffs in ([2, 1], [1, 1], [2, 3], [1, 3], [0, 1]):
        assert str(envelope.gamma(changed, changed.divisor(coeffs))) == str(
            envelope.gamma(reference, reference.divisor(coeffs))
        )
    S2, F2 = changed.prime_divisor("Sbar"), changed.prime_divisor("F")
    assert multiplicity.piecewise_limit(changed, S2, F2).lines() == (
        multiplicity.piecewise_limit(reference, S, F).lines()
    )
    assert [c.line() for c in changed.validate().checks] == [
        c.line() for c in reference.validate().checks
    ]


def test_random_unimodular_inverse():
    for seed in range(20):
        u, u_inv = workloads.random_unimodular(random.Random(seed), 3)
        product = [[sum(u[a][k] * u_inv[k][b] for k in range(3)) for b in range(3)] for a in range(3)]
        assert product == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_percentile_helpers():
    values = [float(v) for v in range(1, 11)]
    assert run.percentile(values, 50) == pytest.approx(5.5)
    assert run.percentile(values, 90) == pytest.approx(9.1)
    assert run.percentile(list(reversed(values)), 0) == 1.0
    assert run.percentile(values, 100) == 10.0
    assert run.samples_beyond(values, 90) == 1
    assert run.samples_beyond(list(range(200)), 90) == 20


def test_host_clock_rescales_by_nearby_calibrations():
    clock = hostspeed.HostClock()
    nominal = hostspeed.NOMINAL_S
    # a fast spell around t = 10 s and a spell at twice the cost around t = 20 s
    clock.times = [9.8, 9.9, 10.0, 10.1, 19.8, 19.9, 20.0, 20.1, 20.2]
    clock.costs = [nominal] * 4 + [2 * nominal] * 5
    assert clock.slowdown(10.0, 10.05) == pytest.approx(1.0)
    assert clock.slowdown(20.0, 20.3) == pytest.approx(2.0)
    assert clock.scaled(20.0, 20.3) == pytest.approx(0.15)
    # a span with no calibration in its window takes the nearest on either side
    assert clock.slowdown(10.55, 19.35) == pytest.approx(1.5)
    assert clock.slowdown(10.05, 10.06) == pytest.approx(1.0)


def test_self_times_of_hand_made_spans():
    spans = [
        ("a.f", 0, 100, -1, 0),  # children cover 10..50 and 60..70
        ("b.g", 10, 30, 0, 0),
        ("b.g", 20, 50, 0, 0),  # overlaps its sibling: counted once
        ("b.h", 25, 35, 2, 0),
        ("a.f", 60, 70, 0, 0),  # recursive call
        ("a.f", 200, 210, -1, 1),
    ]
    assert tracing.self_times(spans) == [50, 20, 20, 10, 10, 10]
    by_name = tracing.self_time_by(spans)
    assert by_name == {"a.f": [70, 2], "b.g": [40, 2], "b.h": [10, 1]}
    by_layer = tracing.self_time_by(spans, tracing.layer_of)
    assert by_layer == {"a": [70, 2], "b": [50, 2]}


def test_tracer_catches_calls_between_layers_and_uninstalls():
    original = envelope.gamma
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert multiplicity.gamma is envelope.gamma is not original
        tracer.request = 7
        m = builtin_model()
        multiplicity.limit_single(m, m.divisor([1, 3]))
    finally:
        tracer.uninstall()
    assert envelope.gamma is original and multiplicity.gamma is original
    names = [span[0] for span in tracer.spans]
    assert names[0] == "multiplicity.limit_single"
    gamma_span = names.index("envelope.gamma")
    assert tracer.spans[gamma_span][3] == 0 and tracer.spans[gamma_span][4] == 7
    assert tracer.counts["qfield.QuadNumber.__mul__"] > 0
    assert tracer.events == [(7, "gamma_input", "(1, 3)")]


def test_cli_check_rejects_wrong_output(tmp_path):
    workload = workloads.CliCold(0, tmp_path)
    deck = workload.deck(random.Random(0))
    gamma = next(c for c in deck if c.argv[0] == "gamma")
    code, stdout = workload.reference(gamma)
    assert code == 0
    assert workload.check((gamma, "paper"), (0, stdout.encode(), b"")) is None
    assert workload.check((gamma, "paper"), (0, b"gamma = (1, 1), region 2\n", b""))
    assert workload.check((gamma, "paper"), (3, stdout.encode(), b""))
    malformed = next(c for c in deck if c.malformed)
    assert workload.check((malformed, "paper"), (2, b"", b"parse error: bad")) is None
    assert workload.check((malformed, "paper"), (2, b"", b"Traceback (most recent call last)"))


def test_wrong_output_fails_the_run(monkeypatch, capsys):
    original = multiplicity.limit_single
    monkeypatch.setattr(multiplicity, "limit_single", lambda m, D: original(m, D * 2))
    code = run.main(["--workload", "envelope-batch", "--seed", "3", "--seconds", "0.3"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] == result["attempted"] > 0


def test_run_passes_and_prints_every_metric(capsys):
    code = run.main(["--workload", "envelope-batch", "--seed", "3", "--seconds", "0.3"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    benchmark = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in benchmark["end_to_end"]] == list(run.END_TO_END_UNITS)


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "envelope-batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no divfilt sources" in proc.stderr


def test_traced_run_reports_every_per_layer_metric(capsys):
    code = run.main(["--workload", "envelope-batch", "--seed", "4", "--seconds", "0.6", "--trace", "1"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 0 and result["correct"] is True
    benchmark = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["envelope.gamma_calls"] == 1
    assert metrics["envelope.gamma_distinct_ratio"] == 1
    assert metrics["intervals.enclosure_calls"] == 0
    assert metrics["intervals.self_ms"] > 0  # entered by the verify-paper probe
