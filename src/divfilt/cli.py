"""Command-line interface.

One subcommand per library computation:

========================  ====================================================
``intersect``             triple products (basis table, D^3, or raw mixed)
``gamma``                 minimal nef envelope of one divisor
``antinef``               test whether the negated divisor is nef
``limit``                 normalized colength limit and multiplicity
``mixed``                 mixed multiplicity for given exponents
``piecewise``             piecewise limit cubic of a two-divisor family
``product``               single-cubic limit of the product filtration
``minkowski``             the four mixed-multiplicity inequality families
``examples``              CSV of the closed-form filtration length oracles
``verify-paper``          golden regression table for the builtin model
``validate-model``        cross-check a model document's restriction data
========================  ====================================================

Divisors are passed as comma-separated scalars in prime order, each in the
canonical form ``p/q``, ``r/s*sqrt(d)``, or ``p/q +/- r/s*sqrt(d)``.
Output is deterministic; ``--output json`` mirrors the text fields.
Exit codes: 0 success, 2 parse/validation error, 3 computation error,
4 verification mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .envelope import gamma, is_antinef
from .errors import (
    ComputationError,
    DivfiltError,
    InputError,
    ModelValidationError,
    ParseError,
)
from .filt_examples import limit_probe, diagonal_norm_sequence, sqrt2_sequence
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
from .qfield import parse_scalar
from .verify import run_golden_suite

TEXT, JSON = "text", "json"

# ``examples`` evaluates every index up to --n-max, in time and memory
# linear in it; larger requests are refused instead of left to run.
MAX_EXAMPLES_N = 10**5


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


def _emit(args, text_lines: list[str], json_dict: dict) -> None:
    if args.output == JSON:
        print(json.dumps(json_dict, indent=2, ensure_ascii=False))
    else:
        for line in text_lines:
            print(line)


def _monomial_name(primes: Sequence[str], index_triple: tuple[int, int, int]) -> str:
    parts = []
    for idx in sorted(set(index_triple)):
        power = index_triple.count(idx)
        parts.append(primes[idx] if power == 1 else f"{primes[idx]}^{power}")
    return "*".join(parts)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_intersect(args) -> int:
    model = _load(args.model)
    if args.divisor is not None:
        D = _parse_divisor(model, args.divisor, "-D")
        value = model.triple(D, D, D)
        _emit(
            args,
            [f"triple = {value.canonical_string()}"],
            {"triple": value.canonical_string()},
        )
        return 0
    if args.divisor1 is not None or args.divisor2 is not None:
        if args.divisor1 is None or args.divisor2 is None:
            raise ParseError("intersect needs both -D1 and -D2 (or a single -D)")
        if args.exponents is None:
            raise ParseError("intersect with -D1/-D2 needs --exponents 'd1,d2'")
        d1, d2 = _parse_exponents(args.exponents)
        if d1 + d2 != model.dimension:
            raise ParseError(f"exponents must sum to {model.dimension}")
        D1 = _parse_divisor(model, args.divisor1, "-D1")
        D2 = _parse_divisor(model, args.divisor2, "-D2")
        slots = [D1] * d1 + [D2] * d2
        value = model.triple(slots[0], slots[1], slots[2])
        _emit(
            args,
            [f"triple = {value.canonical_string()}"],
            {"triple": value.canonical_string()},
        )
        return 0
    # no divisor flags: the full basis table
    t = len(model.primes)
    units = [model.prime_divisor(p) for p in model.primes]
    lines = []
    table = {}
    for i in range(t):
        for j in range(i, t):
            for k in range(j, t):
                name = _monomial_name(model.primes, (i, j, k))
                value = model.triple(units[i], units[j], units[k])
                lines.append(f"{name} = {value.canonical_string()}")
                table[name] = value.canonical_string()
    _emit(args, lines, {"table": table})
    return 0


def _cmd_gamma(args) -> int:
    model = _load(args.model)
    D = _parse_divisor(model, args.divisor, "-D")
    env = gamma(model, D)
    _emit(args, [f"gamma = {env}"], env.to_json_dict())
    return 0


def _cmd_antinef(args) -> int:
    model = _load(args.model)
    D = _parse_divisor(model, args.divisor, "-D")
    result = is_antinef(model, D)
    _emit(args, [f"antinef = {result}"], {"antinef": result})
    return 0


def _cmd_limit(args) -> int:
    model = _load(args.model)
    D = _parse_divisor(model, args.divisor, "-D")
    report = limit_single(model, D)
    _emit(
        args,
        [
            f"limit = {report.limit.canonical_string()}, "
            f"e_R = {report.multiplicity.canonical_string()}"
        ],
        {
            "limit": report.limit.canonical_string(),
            "e_R": report.multiplicity.canonical_string(),
            "gamma": report.gamma_used.to_json_dict(),
        },
    )
    return 0


def _cmd_mixed(args) -> int:
    model = _load(args.model)
    D1 = _parse_divisor(model, args.divisor1, "-D1")
    D2 = _parse_divisor(model, args.divisor2, "-D2")
    d1, d2 = _parse_exponents(args.exponents)
    value = mixed(model, [(D1, d1), (D2, d2)])
    _emit(
        args,
        [f"mixed = {value.canonical_string()}"],
        {"mixed": value.canonical_string()},
    )
    return 0


def _cmd_piecewise(args) -> int:
    model = _load(args.model)
    D1 = _parse_divisor(model, args.divisor1, "-D1")
    D2 = _parse_divisor(model, args.divisor2, "-D2")
    pw = piecewise_limit(model, D1, D2)
    scaled = pw.scaled(6)
    lines = ["limit:"]
    lines.extend(pw.lines())
    lines.append("e_R (6x limit):")
    lines.extend(scaled.lines())
    _emit(
        args,
        lines,
        {"limit": pw.to_json_dict(), "e_R": scaled.to_json_dict()},
    )
    return 0


def _cmd_product(args) -> int:
    model = _load(args.model)
    D1 = _parse_divisor(model, args.divisor1, "-D1")
    D2 = _parse_divisor(model, args.divisor2, "-D2")
    form = product_limit(model, D1, D2)
    _emit(
        args,
        [f"product_limit = {form.render()}"],
        {"product_limit": form.render(), "coefficients": form.to_json_dict()},
    )
    return 0


def _cmd_minkowski(args) -> int:
    model = _load(args.model)
    D1 = _parse_divisor(model, args.divisor1, "-D1")
    D2 = _parse_divisor(model, args.divisor2, "-D2")
    report = minkowski_check(model, D1, D2)
    _emit(args, report.lines(), report.to_json_dict())
    return 0


def _cmd_examples(args) -> int:
    n_max = args.n_max if args.n_max is not None else 10
    if not 1 <= n_max <= MAX_EXAMPLES_N:
        raise ParseError(f"--n-max must be between 1 and {MAX_EXAMPLES_N}")
    sequences = (
        ("sqrt2", sqrt2_sequence()),
        ("diagonal_norm", diagonal_norm_sequence()),
    )
    rows = []
    for name, seq in sequences:
        for n in range(1, n_max + 1):
            value = seq.length(n)
            estimate = Fraction(value, n**seq.dimension)
            rows.append((name, n, value, estimate))
    if args.output == JSON:
        print(
            json.dumps(
                {
                    "rows": [
                        {
                            "sequence": name,
                            "n": n,
                            "length": value,
                            "estimate": str(estimate),
                        }
                        for name, n, value, estimate in rows
                    ]
                },
                indent=2,
            )
        )
    else:
        print("sequence,n,length,estimate")
        for name, n, value, estimate in rows:
            print(f"{name},{n},{value},{estimate}")
    return 0


def _cmd_verify_paper(args) -> int:
    model = _load(args.model)
    report = run_golden_suite(model)
    _emit(args, report.lines(), report.to_json_dict())
    return 0 if report.all_pass else 4


def _cmd_validate_model(args) -> int:
    try:
        model = _load(args.model)
    except ModelValidationError as exc:
        for failure in exc.failures:
            print(f"FAIL {failure}")
        print("model INVALID")
        return 2
    report = model.validate()
    lines = [c.line() for c in report.checks]
    lines.append(
        f"model valid ({len(report.checks)} checks)"
        if report.ok
        else "model INVALID"
    )
    _emit(args, lines, report.to_json_dict())
    return 0 if report.ok else 2


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divfilt",
        description=(
            "Exact multiplicities and mixed multiplicities of divisorial "
            "filtrations on a resolution model"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
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

    p = sub.add_parser("intersect", help="triple intersection products")
    common(p)
    p.add_argument("-D", dest="divisor", help="divisor for D^3")
    p.add_argument("-D1", dest="divisor1", help="first divisor (with --exponents)")
    p.add_argument("-D2", dest="divisor2", help="second divisor (with --exponents)")
    p.add_argument("--exponents", help="exponents 'd1,d2' for D1^d1 . D2^d2")
    p.set_defaults(handler=_cmd_intersect)

    p = sub.add_parser("gamma", help="minimal nef envelope of a divisor")
    common(p)
    p.add_argument("-D", dest="divisor", required=True, help="effective divisor")
    p.set_defaults(handler=_cmd_gamma)

    p = sub.add_parser("antinef", help="is the negated divisor nef?")
    common(p)
    p.add_argument("-D", dest="divisor", required=True, help="effective divisor")
    p.set_defaults(handler=_cmd_antinef)

    p = sub.add_parser("limit", help="normalized colength limit and multiplicity")
    common(p)
    p.add_argument("-D", dest="divisor", required=True, help="effective divisor")
    p.set_defaults(handler=_cmd_limit)

    p = sub.add_parser("mixed", help="mixed multiplicity of two divisors")
    common(p)
    p.add_argument("-D1", dest="divisor1", required=True)
    p.add_argument("-D2", dest="divisor2", required=True)
    p.add_argument("--exponents", required=True, help="exponents 'd1,d2'")
    p.set_defaults(handler=_cmd_mixed)

    p = sub.add_parser("piecewise", help="piecewise limit of n*D1 + j*D2")
    common(p)
    p.add_argument("-D1", dest="divisor1", required=True)
    p.add_argument("-D2", dest="divisor2", required=True)
    p.set_defaults(handler=_cmd_piecewise)

    p = sub.add_parser("product", help="limit of the product filtration")
    common(p)
    p.add_argument("-D1", dest="divisor1", required=True)
    p.add_argument("-D2", dest="divisor2", required=True)
    p.set_defaults(handler=_cmd_product)

    p = sub.add_parser("minkowski", help="mixed-multiplicity inequality checks")
    common(p)
    p.add_argument("-D1", dest="divisor1", required=True)
    p.add_argument("-D2", dest="divisor2", required=True)
    p.set_defaults(handler=_cmd_minkowski)

    p = sub.add_parser("examples", help="closed-form filtration length tables (CSV)")
    common(p)
    p.add_argument(
        "--n-max",
        dest="n_max",
        type=int,
        help=f"last index (default 10, at most {MAX_EXAMPLES_N})",
    )
    p.set_defaults(handler=_cmd_examples)

    p = sub.add_parser("verify-paper", help="golden regression table")
    common(p)
    p.set_defaults(handler=_cmd_verify_paper)

    p = sub.add_parser("validate-model", help="cross-check a model document")
    common(p)
    p.set_defaults(handler=_cmd_validate_model)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
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
