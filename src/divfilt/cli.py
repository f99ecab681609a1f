"""Command-line interface.

Every subcommand is one row of :data:`_COMMANDS`: its name, its help
text, the divisor flags it reads, any further flags, and a function that
maps ``(model, args, divisors)`` to ``(text lines, JSON document, exit
code)``.  :func:`build_parser` builds each subparser from its row, adding
the common ``--model`` and ``--output`` flags, and :func:`_run` is the one
path that loads the model, parses the given divisor flags, calls the row's
function and prints the text lines or the JSON document.

Divisors are passed as comma-separated scalars in prime order, each in the
canonical form ``p/q``, ``r/s*sqrt(d)``, or ``p/q +/- r/s*sqrt(d)``.
Output is deterministic; ``--output json`` mirrors the text fields.
Exit codes: 0 success, 1 stdout closed early, 2 parse/validation error,
3 computation error, 4 verification mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence

from .envelope import gamma, is_antinef
from .errors import (
    ComputationError,
    DivfiltError,
    InputError,
    ModelValidationError,
    ParseError,
)
from .filt_examples import diagonal_norm_sequence, sqrt2_sequence
from .model import (
    BUILTIN_MODEL_NAME,
    ExcDivisor,
    ThreefoldModel,
    builtin_model,
    load_model,
)
from .multiplicity import (
    limit_single,
    minkowski_check,
    mixed,
    piecewise_limit,
    product_limit,
)
from .qfield import QuadNumber, parse_scalar
from .verify import run_golden_suite

TEXT, JSON = "text", "json"

# ``examples`` evaluates every index up to --n-max, in time and memory
# linear in it; larger requests are refused instead of left to run.
MAX_EXAMPLES_N = 10**5

_Outcome = tuple[list[str], dict, int]


def _load(name_or_path: str) -> ThreefoldModel:
    if name_or_path == BUILTIN_MODEL_NAME:
        return builtin_model()
    return load_model(name_or_path)


def _parse_divisor(model: ThreefoldModel, text: str, flag: str) -> ExcDivisor:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != len(model.primes):
        raise ParseError(
            f"{flag} needs {len(model.primes)} comma-separated coefficients "
            f"(one per prime), got {len(parts)}"
        )
    return model.divisor([parse_scalar(p, model.field_d) for p in parts])


def _parse_exponents(text: str) -> tuple[int, int]:
    parts = text.split(",")
    try:
        values = tuple(int(p.strip()) for p in parts)
    except ValueError:
        raise ParseError(f"--exponents must be integers, got {text!r}") from None
    if len(values) != 2 or any(v < 0 for v in values):
        raise ParseError("--exponents takes two nonnegative integers 'd1,d2'")
    return values  # type: ignore[return-value]


def _monomial_name(primes: Sequence[str], index_triple: tuple[int, int, int]) -> str:
    parts = []
    for idx in sorted(set(index_triple)):
        power = index_triple.count(idx)
        parts.append(primes[idx] if power == 1 else f"{primes[idx]}^{power}")
    return "*".join(parts)


def _named(name: str, value: QuadNumber) -> _Outcome:
    """One ``name = value`` line, mirrored as ``{name: value}``."""
    text = value.canonical_string()
    return [f"{name} = {text}"], {name: text}, 0


# ---------------------------------------------------------------------------
# subcommand computations: (model, args, divisors by flag) -> _Outcome


def _intersect(model: ThreefoldModel, args, D: dict) -> _Outcome:
    if "-D" in D and len(D) > 1:
        raise ParseError("-D goes without -D1 and -D2")
    if args.exponents is not None and (not D or "-D" in D):
        raise ParseError("--exponents goes with -D1 and -D2")
    if "-D" in D:
        return _named("triple", model.triple(D["-D"], D["-D"], D["-D"]))
    if D:
        if len(D) != 2:
            raise ParseError("intersect needs both -D1 and -D2 (or a single -D)")
        if args.exponents is None:
            raise ParseError("intersect with -D1/-D2 needs --exponents 'd1,d2'")
        d1, d2 = _parse_exponents(args.exponents)
        if d1 + d2 != model.dimension:
            raise ParseError(f"exponents must sum to {model.dimension}")
        slots = [D["-D1"]] * d1 + [D["-D2"]] * d2
        return _named("triple", model.triple(*slots))
    # no divisor flags: the full basis table
    t = len(model.primes)
    units = [model.prime_divisor(p) for p in model.primes]
    lines, table = [], {}
    for i in range(t):
        for j in range(i, t):
            for k in range(j, t):
                name = _monomial_name(model.primes, (i, j, k))
                value = model.triple(units[i], units[j], units[k]).canonical_string()
                lines.append(f"{name} = {value}")
                table[name] = value
    return lines, {"table": table}, 0


def _gamma(model: ThreefoldModel, args, D: dict) -> _Outcome:
    env = gamma(model, D["-D"])
    lines, doc = [f"gamma = {env}"], env.to_json_dict()
    if args.explain:
        lines += env.certificate_lines()
        doc["certificate"] = env.certificate_json()
    return lines, doc, 0


def _antinef(model: ThreefoldModel, args, D: dict) -> _Outcome:
    result = is_antinef(model, D["-D"])
    return [f"antinef = {result}"], {"antinef": result}, 0


def _limit(model: ThreefoldModel, args, D: dict) -> _Outcome:
    report = limit_single(model, D["-D"])
    limit, e_R = report.limit.canonical_string(), report.multiplicity.canonical_string()
    doc = {"limit": limit, "e_R": e_R, "gamma": report.gamma_used.to_json_dict()}
    return [f"limit = {limit}, e_R = {e_R}"], doc, 0


def _mixed(model: ThreefoldModel, args, D: dict) -> _Outcome:
    d1, d2 = _parse_exponents(args.exponents)
    return _named("mixed", mixed(model, [(D["-D1"], d1), (D["-D2"], d2)]))


def _piecewise(model: ThreefoldModel, args, D: dict) -> _Outcome:
    pw = piecewise_limit(model, D["-D1"], D["-D2"])
    scaled = pw.scaled(6)
    lines = ["limit:", *pw.lines(), "e_R (6x limit):", *scaled.lines()]
    return lines, {"limit": pw.to_json_dict(), "e_R": scaled.to_json_dict()}, 0


def _product(model: ThreefoldModel, args, D: dict) -> _Outcome:
    form = product_limit(model, D["-D1"], D["-D2"])
    doc = {"product_limit": form.render(), "coefficients": form.to_json_dict()}
    return [f"product_limit = {form.render()}"], doc, 0


def _minkowski(model: ThreefoldModel, args, D: dict) -> _Outcome:
    report = minkowski_check(model, D["-D1"], D["-D2"])
    return report.lines(), report.to_json_dict(), 0


def _examples(model: None, args, D: dict) -> _Outcome:
    if not 1 <= args.n_max <= MAX_EXAMPLES_N:
        raise ParseError(f"--n-max must be between 1 and {MAX_EXAMPLES_N}")
    lines, rows = ["sequence,n,length,estimate"], []
    sequences = (("sqrt2", sqrt2_sequence()), ("diagonal_norm", diagonal_norm_sequence()))
    for name, seq in sequences:
        for n in range(1, args.n_max + 1):
            value = seq.length(n)
            estimate = str(Fraction(value, n**seq.dimension))
            lines.append(f"{name},{n},{value},{estimate}")
            rows.append({"sequence": name, "n": n, "length": value, "estimate": estimate})
    return lines, {"rows": rows}, 0


def _verify_paper(model: ThreefoldModel, args, D: dict) -> _Outcome:
    report = run_golden_suite(model)
    return report.lines(), report.to_json_dict(), 0 if report.all_pass else 4


def _validate_model(model: None, args, D: dict) -> _Outcome:
    # loading is the validation: a model that fails it is reported, not raised
    try:
        model = _load(args.model)
    except ModelValidationError as exc:
        lines = [f"FAIL {failure}" for failure in exc.failures] + ["model INVALID"]
        return lines, {"ok": False, "failures": list(exc.failures)}, 2
    report = model.validation
    lines = [c.line() for c in report.checks]
    lines.append(f"model valid ({len(report.checks)} checks)")
    return lines, report.to_json_dict(), 0


# ---------------------------------------------------------------------------
# the subcommand table


# the positional and keyword arguments of one ``add_argument`` call
_Arg = tuple[tuple[str, ...], dict]


def _arg(*flags: str, **options) -> _Arg:
    return flags, options


class _Command(NamedTuple):
    name: str
    help: str
    compute: Callable[[Optional[ThreefoldModel], argparse.Namespace, dict], _Outcome]
    # divisor flags; each given one is parsed and passed under its flag
    divisors: tuple[_Arg, ...] = ()
    flags: tuple[_Arg, ...] = ()
    loads_model: bool = True


_ONE = (_arg("-D", dest="divisor", required=True, help="effective divisor"),)
_TWO = (
    _arg("-D1", dest="divisor1", required=True),
    _arg("-D2", dest="divisor2", required=True),
)

_COMMANDS = (
    _Command(
        "intersect",
        "triple intersection products",
        _intersect,
        (
            _arg("-D", dest="divisor", help="divisor for D^3 (-D=-1,0 for a leading '-')"),
            _arg("-D1", dest="divisor1", help="first divisor, with --exponents (-D1=-1,0)"),
            _arg("-D2", dest="divisor2", help="second divisor, with --exponents (-D2=-1,0)"),
        ),
        (_arg("--exponents", help="exponents 'd1,d2' for D1^d1 . D2^d2"),),
    ),
    _Command(
        "gamma",
        "minimal nef envelope of a divisor",
        _gamma,
        _ONE,
        (
            _arg(
                "--explain",
                action="store_true",
                help="also print the multipliers that certify each coordinate",
            ),
        ),
    ),
    _Command("antinef", "is the negated divisor nef?", _antinef, _ONE),
    _Command("limit", "normalized colength limit and multiplicity", _limit, _ONE),
    _Command(
        "mixed",
        "mixed multiplicity of two divisors",
        _mixed,
        _TWO,
        (_arg("--exponents", required=True, help="exponents 'd1,d2'"),),
    ),
    _Command("piecewise", "piecewise limit of n*D1 + j*D2", _piecewise, _TWO),
    _Command("product", "limit of the product filtration", _product, _TWO),
    _Command("minkowski", "mixed-multiplicity inequality checks", _minkowski, _TWO),
    _Command(
        "examples",
        "closed-form filtration length tables (CSV)",
        _examples,
        flags=(
            _arg(
                "--n-max",
                dest="n_max",
                type=int,
                default=10,
                help=f"last index (default 10, at most {MAX_EXAMPLES_N})",
            ),
        ),
        loads_model=False,
    ),
    _Command("verify-paper", "golden regression table", _verify_paper),
    _Command(
        "validate-model", "cross-check a model document", _validate_model, loads_model=False
    ),
)


def _run(command: _Command, args: argparse.Namespace) -> int:
    model = _load(args.model) if command.loads_model else None
    divisors = {}
    for (flag,), options in command.divisors:
        text = getattr(args, options["dest"])
        if text is not None:
            divisors[flag] = _parse_divisor(model, text, flag)
    lines, doc, code = command.compute(model, args, divisors)
    if args.output == JSON:
        print(json.dumps(doc, indent=2, ensure_ascii=False))
    else:
        for line in lines:
            print(line)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divfilt",
        description=(
            "Exact multiplicities and mixed multiplicities of divisorial "
            "filtrations on a resolution model"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in _COMMANDS:
        p = sub.add_parser(command.name, help=command.help)
        p.add_argument(
            "--model",
            default=BUILTIN_MODEL_NAME,
            help=f"'{BUILTIN_MODEL_NAME}' for the builtin model, or a JSON file path",
        )
        p.add_argument(
            "--output",
            choices=(TEXT, JSON),
            default=TEXT,
            help="output format (default: text)",
        )
        for flags, options in command.divisors + command.flags:
            p.add_argument(*flags, **options)
        p.set_defaults(handler=command)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _run(args.handler, args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: send the interpreter's last flush nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ModelValidationError as exc:
        print(f"validation error: {'; '.join(exc.failures)}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except ComputationError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 3
    except DivfiltError as exc:  # fallback for any library-defined failure
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
