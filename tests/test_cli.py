"""Command-line interface: output strings, JSON mirror, exit codes."""

import json
import subprocess
import sys
import time

import pytest

from divfilt import cli, verify
from divfilt.errors import ComputationError
from divfilt.model import builtin_document

# past Python's default limit of 4300 digits for int() of a string
BIG = "7" * 5000


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def bad_model_path(tmp_path):
    doc = builtin_document()
    doc["restrictions"]["F"]["F"] = [-1, -107]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def tiny_model_path(tmp_path):
    doc = {
        "field": {"d": 3},
        "surfaces": [
            {
                "name": "E",
                "basis": ["h"],
                "gram": [[1]],
                "ample": [1],
                "nef": {"type": "polyhedral", "inequalities": [[1]]},
                "eff": {"type": "polyhedral", "inequalities": [[1]]},
            }
        ],
        "primes": ["E"],
        "restrictions": {"E": {"E": [-1]}},
    }
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc))
    return str(path)


# -- pinned text outputs -----------------------------------------------------


def test_gamma_output_pinned(capsys):
    code, out, _ = run_cli(capsys, ["gamma", "--model", "paper", "-D", "0,1"])
    assert code == 0
    assert out == "gamma = (9/26 + 1/26*sqrt(3), 1), region 3\n"


def test_limit_output_pinned(capsys):
    code, out, _ = run_cli(capsys, ["limit", "--model", "paper", "-D", "1,1"])
    assert code == 0
    assert out == "limit = 33, e_R = 198\n"


def test_intersect_table(capsys):
    code, out, _ = run_cli(capsys, ["intersect"])
    assert code == 0
    assert out.splitlines() == [
        "Sbar^3 = 468",
        "Sbar^2*F = -162",
        "Sbar*F^2 = 54",
        "F^3 = 54",
    ]


def test_intersect_single_divisor(capsys):
    code, out, _ = run_cli(capsys, ["intersect", "-D", "1,1"])
    assert code == 0
    assert out == "triple = 198\n"


def test_intersect_mixed_exponents(capsys):
    code, out, _ = run_cli(
        capsys,
        ["intersect", "-D1", "1,0", "-D2", "0,1", "--exponents", "2,1"],
    )
    assert code == 0
    assert out == "triple = -162\n"


@pytest.mark.parametrize(
    "argv",
    [["intersect", "--exponents", "2,1"], ["intersect", "-D", "1,1", "--exponents", "2,1"]],
    ids=["table", "single-divisor"],
)
def test_intersect_refuses_exponents_without_two_divisors(capsys, argv):
    for output in ("text", "json"):
        code, out, err = run_cli(capsys, [*argv, "--output", output])
        assert (code, out) == (2, "")
        assert err == "parse error: --exponents goes with -D1 and -D2\n"


@pytest.mark.parametrize(
    "extra",
    [
        ["-D1", "1,0", "-D2", "0,1"],
        ["-D1", "1,0"],
        ["-D2", "0,1"],
        ["-D1", "1,0", "-D2", "0,1", "--exponents", "2,1"],
        ["-D2", "0,1", "--exponents", "2,1"],
    ],
    ids=["both", "D1", "D2", "both-exponents", "D2-exponents"],
)
def test_intersect_refuses_single_divisor_with_pair(capsys, extra):
    for output in ("text", "json"):
        code, out, err = run_cli(
            capsys, ["intersect", "-D", "1,1", *extra, "--output", output]
        )
        assert (code, out) == (2, "")
        assert err == "parse error: -D goes without -D1 and -D2\n"


def test_antinef_output(capsys):
    code, out, _ = run_cli(capsys, ["antinef", "-D", "1,1"])
    assert code == 0 and out == "antinef = True\n"
    code, out, _ = run_cli(capsys, ["antinef", "-D", "1,0"])
    assert code == 0 and out == "antinef = False\n"


def test_mixed_output(capsys):
    code, out, _ = run_cli(
        capsys, ["mixed", "-D1", "1,0", "-D2", "0,1", "--exponents", "2,1"]
    )
    assert code == 0
    assert out == "mixed = 891/13 + 99/13*sqrt(3)\n"


def test_piecewise_output(capsys):
    code, out, _ = run_cli(capsys, ["piecewise", "-D1", "1,0", "-D2", "0,1"])
    assert code == 0
    assert out.splitlines() == [
        "limit:",
        "region 1: [0, 1) -> 33*n^3",
        "region 2: [1, 3 - 1/3*sqrt(3)) -> 78*n^3 - 81*n^2*j + 27*n*j^2 + 9*j^3",
        "region 3: [3 - 1/3*sqrt(3), inf) -> (2007/169 - 9/338*sqrt(3))*j^3",
        "e_R (6x limit):",
        "region 1: [0, 1) -> 198*n^3",
        "region 2: [1, 3 - 1/3*sqrt(3)) -> 468*n^3 - 486*n^2*j + 162*n*j^2 + 54*j^3",
        "region 3: [3 - 1/3*sqrt(3), inf) -> (12042/169 - 27/169*sqrt(3))*j^3",
    ]


def test_product_output(capsys):
    code, out, _ = run_cli(capsys, ["product", "-D1", "1,0", "-D2", "0,1"])
    assert code == 0
    assert out == (
        "product_limit = 33*n^3 + (891/26 + 99/26*sqrt(3))*n^2*j"
        " + (6021/169 - 27/338*sqrt(3))*n*j^2"
        " + (2007/169 - 9/338*sqrt(3))*j^3\n"
    )


def test_minkowski_output(capsys):
    code, out, _ = run_cli(capsys, ["minkowski", "-D1", "1,0", "-D2", "0,1"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "e(3) = 198"
    assert lines[-1] == "all inequalities hold"
    assert sum(1 for ln in lines if ln.startswith("inequality")) == 11


def test_examples_csv(capsys):
    code, out, _ = run_cli(capsys, ["examples", "--n-max", "3"])
    assert code == 0
    assert out.splitlines() == [
        "sequence,n,length,estimate",
        "sqrt2,1,2,2",
        "sqrt2,2,3,3/2",
        "sqrt2,3,5,5/3",
        "diagonal_norm,1,2,2",
        "diagonal_norm,2,3,3/2",
        "diagonal_norm,3,5,5/3",
    ]


def test_verify_paper_passes(capsys):
    code, out, _ = run_cli(capsys, ["verify-paper"])
    assert code == 0
    assert out.splitlines()[-1] == "all 34 claims PASS"


def test_validate_model_builtin(capsys):
    code, out, _ = run_cli(capsys, ["validate-model"])
    assert code == 0
    assert out.splitlines()[-1] == "model valid (8 checks)"


# -- model files ----------------------------------------------------------------


def test_model_file_round_trip(capsys, tmp_path):
    from divfilt.model import builtin_model, model_to_dict

    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_dict(builtin_model())))
    code, out, _ = run_cli(capsys, ["gamma", "--model", str(path), "-D", "0,1"])
    assert code == 0
    assert out == "gamma = (9/26 + 1/26*sqrt(3), 1), region 3\n"


@pytest.mark.parametrize("output", ["text", "json"])
def test_validate_model_validates_once(capsys, tmp_path, monkeypatch, output):
    from divfilt.model import ThreefoldModel

    path = tmp_path / "model.json"
    path.write_text(json.dumps(builtin_document()))
    calls = []
    validate = ThreefoldModel.validate

    def counted(self):
        calls.append(self)
        return validate(self)

    monkeypatch.setattr(ThreefoldModel, "validate", counted)
    code, out, _ = run_cli(
        capsys, ["validate-model", "--model", str(path), "--output", output]
    )
    assert code == 0 and len(calls) == 1
    expected = run_cli(capsys, ["validate-model", "--output", output])[1]
    assert out == expected


def test_validate_model_rejects_bad_file(capsys, bad_model_path):
    code, out, _ = run_cli(capsys, ["validate-model", "--model", bad_model_path])
    assert code == 2
    assert "triple[Sbar·F·F]" in out
    assert out.splitlines()[-1] == "model INVALID"


def test_validate_model_json_on_failure(capsys, bad_model_path):
    code, out, _ = run_cli(capsys, ["validate-model", "--model", bad_model_path])
    failures = [ln[len("FAIL "):] for ln in out.splitlines() if ln.startswith("FAIL ")]
    assert code == 2 and failures
    code, out, _ = run_cli(
        capsys, ["validate-model", "--model", bad_model_path, "--output", "json"]
    )
    assert code == 2
    assert json.loads(out) == {"ok": False, "failures": failures}


def test_computation_on_bad_model_exits_2(capsys, bad_model_path):
    code, _, err = run_cli(capsys, ["gamma", "--model", bad_model_path, "-D", "1,1"])
    assert code == 2
    assert err.startswith("validation error:")


def test_verify_paper_on_foreign_model_exits_4(capsys, tiny_model_path):
    code, out, _ = run_cli(capsys, ["verify-paper", "--model", tiny_model_path])
    assert code == 4
    assert "FAIL" in out
    assert "model primes" in out


def test_verify_paper_on_mismatching_model_exits_4(capsys, tmp_path):
    # doubling every restriction class keeps the model self-consistent
    # (all expansions scale together) but changes every intersection number
    doc = builtin_document()
    for row in doc["restrictions"].values():
        for prime, coords in row.items():
            row[prime] = [2 * c for c in coords]
    path = tmp_path / "doubled.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, ["verify-paper", "--model", str(path)])
    assert code == 4
    lines = out.splitlines()
    (s3_row,) = [ln for ln in lines if ln.startswith("triple[Sbar^3]")]
    assert "1872" in s3_row and s3_row.rstrip().endswith("FAIL")


@pytest.mark.parametrize(
    "name, rows", [("piecewise_limit", 6), ("product_limit", 1)]
)
def test_verify_paper_reports_a_failing_limit_in_its_rows(
    capsys, monkeypatch, name, rows
):
    calls = []

    def explode(*args):
        calls.append(args)
        raise ComputationError("synthetic failure")

    monkeypatch.setattr(verify, name, explode)
    code, out, err = run_cli(capsys, ["verify-paper"])
    assert (code, err) == (4, "")
    failed = [line for line in out.splitlines() if line.endswith("| FAIL")]
    assert len(failed) == rows and len(calls) == 1
    assert all("| error: ComputationError: synthetic failure" in f for f in failed)
    assert out.splitlines()[-1] == f"{rows} of 34 claims FAIL"


# -- exit codes and error prefixes --------------------------------------------------


def test_parse_error_exit_2(capsys):
    code, _, err = run_cli(capsys, ["gamma", "-D", "zzz,1"])
    assert code == 2
    assert err.startswith("parse error:")


def test_wrong_arity_exit_2(capsys):
    code, _, err = run_cli(capsys, ["gamma", "-D", "1,2,3"])
    assert code == 2
    assert err.startswith("parse error:")


def test_invalid_input_exit_2(capsys):
    code, _, err = run_cli(capsys, ["gamma", "-D=-1,0"])
    assert code == 2
    assert err.startswith("invalid input:")


def test_bad_exponents_exit_2(capsys):
    code, _, err = run_cli(
        capsys, ["mixed", "-D1", "1,0", "-D2", "0,1", "--exponents", "1,1"]
    )
    assert code == 2
    assert err.startswith("invalid input:")


def test_missing_model_file_exit_2(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, ["gamma", "--model", str(tmp_path / "nope.json"), "-D", "1,1"]
    )
    assert code == 2
    assert err.startswith("parse error:")


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d["surfaces"][0].update(name=["Sbar"]),
        lambda d: d["surfaces"][0].update(basis="ABC"),
        lambda d: d["surfaces"][1].update(basis=[]),
        lambda d: d.update(surfaces="xx"),
        lambda d: d["field"].update(d=10**30 + 1),
    ],
    ids=["list-name", "string-basis", "empty-basis", "string-surfaces", "huge-d"],
)
def test_malformed_model_file_exit_2(capsys, tmp_path, mutate):
    doc = builtin_document()
    mutate(doc)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, ["gamma", "--model", str(path), "-D", "1,1"])
    assert code == 2
    assert err.startswith("parse error:")
    assert "Traceback" not in err


PARSE = (2, "parse error:")
# cubed, it has about 6,000 digits: past the limit for printing an int
HUGE_RESULT = (3, "computation error: result too large to print")


@pytest.mark.parametrize(
    "argv, expected",
    [
        pytest.param(["gamma", "-D", "1/0,1"], PARSE, id="1/0,1"),
        pytest.param(["gamma", "-D", "1,2/0*sqrt(3)"], PARSE, id="1,2/0*sqrt(3)"),
        pytest.param(["gamma", "-D", f"{BIG},1"], PARSE, id="long-integer"),
        pytest.param(["gamma", "-D", f"1/{BIG},1"], PARSE, id="long-denominator"),
        pytest.param(
            ["gamma", "-D", f"1,{BIG}*sqrt(3)"], PARSE, id="long-sqrt-coefficient"
        ),
        pytest.param(["gamma", "-D", f"1,sqrt({BIG})"], PARSE, id="long-radicand"),
        pytest.param(["limit", "-D", f"{'7' * 2000},1"], HUGE_RESULT, id="limit-huge-result"),
        pytest.param(
            ["intersect", "-D", f"{'7' * 2000},1"], HUGE_RESULT, id="intersect-huge-result"
        ),
    ],
)
def test_zero_denominator_exit_2(argv, expected):
    """Unreadable numbers exit 2; results too large to print exit 3."""
    result = subprocess.run(
        [sys.executable, "-m", "divfilt.cli", *argv],
        capture_output=True,
        text=True,
    )
    code, prefix = expected
    assert result.returncode == code
    assert result.stderr.startswith(prefix)
    assert "Traceback" not in result.stderr


def test_oversized_integer_in_model_file_exit_2(capsys, tmp_path):
    # json.dumps cannot write such a literal, so the file is edited as text
    text = json.dumps(builtin_document()).replace('"d": 3', f'"d": {BIG}', 1)
    path = tmp_path / "oversized.json"
    path.write_text(text)
    for argv in (["gamma", "-D", "1,1"], ["validate-model"]):
        code, out, err = run_cli(capsys, [*argv, "--model", str(path)])
        assert code == 2 and out == ""
        assert err.startswith("parse error:")


def test_examples_n_max_bounded(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, ["examples", "--n-max", "1000000000"])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("parse error: --n-max")
    assert run_cli(capsys, ["examples", "--n-max", str(cli.MAX_EXAMPLES_N + 1)])[0] == 2


def test_computation_error_exit_3(capsys, monkeypatch):
    def explode(model, D):
        raise ComputationError("synthetic failure")

    monkeypatch.setattr(cli, "gamma", explode)
    code, _, err = run_cli(capsys, ["gamma", "-D", "1,1"])
    assert code == 3
    assert err.startswith("computation error:")


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc_info:
        cli.main(["frobnicate"])
    assert exc_info.value.code == 2


# -- JSON mirror and determinism ------------------------------------------------------


def test_gamma_json_mirror(capsys):
    code, out, _ = run_cli(
        capsys, ["gamma", "-D", "0,1", "--output", "json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["gamma"] == ["9/26 + 1/26*sqrt(3)", "1"]
    assert doc["region"] == "3"


@pytest.mark.parametrize(
    "divisor, active",
    [
        ("2,1", ["coeff[Sbar]", "nef[F]:0"]),
        ("1,1", ["coeff[F]", "coeff[Sbar]", "nef[F]:0"]),
        ("2,3", ["coeff[F]", "coeff[Sbar]"]),
        ("1,3", ["coeff[F]", "nef[Sbar]:quad"]),
        ("0,1", ["coeff[F]", "nef[Sbar]:quad"]),
    ],
)
def test_gamma_json_active_pinned(capsys, divisor, active):
    code, out, _ = run_cli(capsys, ["gamma", "-D", divisor, "--output", "json"])
    assert code == 0
    assert json.loads(out)["active"] == active


# the parent's bytes: --explain is the only way to add to gamma's output
GAMMA_2_1_JSON = (
    '{\n  "input": [\n    "2",\n    "1"\n  ],\n  "gamma": [\n    "2",\n    "2"\n  ],'
    '\n  "active": [\n    "coeff[Sbar]",\n    "nef[F]:0"\n  ],\n  "region": "1"\n}\n'
)


def test_gamma_without_explain_unchanged(capsys):
    assert run_cli(capsys, ["gamma", "-D", "2,1", "--output", "json"]) == (
        0,
        GAMMA_2_1_JSON,
        "",
    )
    assert run_cli(capsys, ["gamma", "-D", "1/2+1/3*sqrt(3),1"]) == (
        0,
        "gamma = (1/2 + 1/3*sqrt(3), 1/2 + 1/3*sqrt(3)), region 1\n",
        "",
    )


def test_gamma_explain_prints_certificate(capsys):
    code, out, err = run_cli(capsys, ["gamma", "-D", "2,1", "--explain"])
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "gamma = (2, 2), region 1",
        "certificate: e[Sbar] = 1*grad(coeff[Sbar])",
        "certificate: e[F] = 1*grad(coeff[Sbar]) + 1*grad(nef[F]:0)",
    ]
    code, out, _ = run_cli(capsys, ["gamma", "-D", "0,1", "--explain"])
    assert out.splitlines()[1:] == [
        "certificate: e[Sbar] = (9/26 + 1/26*sqrt(3))*grad(coeff[F])"
        " + (1/108*sqrt(3))*grad(nef[Sbar]:quad)",
        "certificate: e[F] = 1*grad(coeff[F])",
    ]
    code, out, _ = run_cli(
        capsys, ["gamma", "-D", "2,1", "--explain", "--output", "json"]
    )
    doc = json.loads(out)
    assert doc.pop("certificate") == {
        "Sbar": {"coeff[Sbar]": "1"},
        "F": {"coeff[Sbar]": "1", "nef[F]:0": "1"},
    }
    assert doc == json.loads(GAMMA_2_1_JSON)


def test_quadratic_surface_off_signature_exit_2(tmp_path):
    """A quadratic cone on a gram matrix of signature (2, 1) is not convex;
    the model is refused at load."""
    doc = builtin_document()
    doc["surfaces"][0]["gram"] = [[1, 0, 0], [0, 1, 0], [0, 0, -1]]
    path = tmp_path / "signature.json"
    path.write_text(json.dumps(doc))
    for argv in (["gamma", "-D", "1,1"], ["validate-model"]):
        result = subprocess.run(
            [sys.executable, "-m", "divfilt.cli", *argv, "--model", str(path)],
            capture_output=True,
            text=True,
        )
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == (
            "parse error: model.surfaces[0]: surface 'Sbar': a quadratic cone "
            "needs a gram matrix of signature (1, 2), got (2, 1)\n"
        )


def test_limit_json_mirror(capsys):
    code, out, _ = run_cli(capsys, ["limit", "-D", "1,1", "--output", "json"])
    doc = json.loads(out)
    assert (code, doc["limit"], doc["e_R"]) == (0, "33", "198")


def test_piecewise_json_mirror(capsys):
    code, out, _ = run_cli(
        capsys, ["piecewise", "-D1", "1,0", "-D2", "0,1", "--output", "json"]
    )
    doc = json.loads(out)
    assert code == 0
    assert [r["poly"]["n^3"] for r in doc["limit"]["regions"]] == [
        "33",
        "78",
        "0",
    ]
    assert doc["e_R"]["regions"][2]["poly"]["j^3"] == "12042/169 - 27/169*sqrt(3)"


def test_minkowski_json_mirror(capsys):
    code, out, _ = run_cli(
        capsys, ["minkowski", "-D1", "1,0", "-D2", "0,1", "--output", "json"]
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["all_hold"] is True
    assert len(doc["checks"]) == 11
    assert doc["e"]["3"] == "198"


def test_examples_json_mirror(capsys):
    code, out, _ = run_cli(
        capsys, ["examples", "--n-max", "2", "--output", "json"]
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["rows"][0] == {
        "sequence": "sqrt2",
        "n": 1,
        "length": 2,
        "estimate": "2",
    }
    assert len(doc["rows"]) == 4


def test_verify_paper_json_mirror(capsys):
    code, out, _ = run_cli(capsys, ["verify-paper", "--output", "json"])
    doc = json.loads(out)
    assert code == 0
    assert doc["all_pass"] is True
    assert len(doc["claims"]) == 34


@pytest.mark.parametrize(
    "argv",
    [
        ["intersect"],
        ["intersect", "-D", "1,1"],
        ["intersect", "-D1", "1,0", "-D2", "0,1", "--exponents", "2,1"],
        ["gamma", "-D", "0,1"],
        ["antinef", "-D", "1,1"],
        ["limit", "-D", "1,1"],
        ["mixed", "-D1", "1,0", "-D2", "0,1", "--exponents", "2,1"],
        ["piecewise", "-D1", "1,0", "-D2", "0,1"],
        ["product", "-D1", "1,0", "-D2", "0,1"],
        ["minkowski", "-D1", "1,0", "-D2", "0,1"],
        ["examples", "--n-max", "3"],
        ["verify-paper"],
        ["validate-model"],
    ],
    ids=" ".join,
)
def test_every_subcommand_prints_one_json_document(capsys, argv):
    text_code, _, _ = run_cli(capsys, argv)
    code, out, err = run_cli(capsys, [*argv, "--output", "json"])
    assert code == text_code and err == ""
    json.loads(out)  # rejects anything but exactly one document


def test_repeated_requests_byte_identical(capsys):
    argv = ["piecewise", "-D1", "2,1", "-D2", "1,3"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second


def test_subprocess_byte_identical():
    argv = [
        sys.executable,
        "-m",
        "divfilt.cli",
        "minkowski",
        "-D1",
        "1,0",
        "-D2",
        "0,1",
        "--output",
        "json",
    ]
    first = subprocess.run(argv, capture_output=True, text=True)
    second = subprocess.run(argv, capture_output=True, text=True)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout  # nonempty
