"""The package's value classes: frozen, compared by value, with the
``Name(field=value, ...)`` repr, and declared without generated code."""

import copy
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import divfilt
from divfilt import cli
from divfilt.envelope import Region, _walk, gamma
from divfilt.filt_examples import (
    LengthSequence,
    ProbeResult,
    limit_probe,
    sqrt2_sequence,
)
from divfilt.frozen import Frozen
from divfilt.model import (
    CheckResult,
    ExcDivisor,
    ThreefoldModel,
    ValidationReport,
    builtin_document,
    model_from_dict,
)
from divfilt.multiplicity import (
    CubicForm,
    InequalityCheck,
    MinkowskiReport,
    MultReport,
    PiecewisePoly,
    PiecewiseRegion,
    limit_single,
    minkowski_check,
    piecewise_limit,
)
from divfilt.qfield import QuadNumber
from divfilt.surfaces import (
    ConeSpec,
    LinearConstraint,
    QuadraticConstraint,
    SurfaceClass,
    SurfaceLattice,
)
from divfilt.verify import Claim, VerifyReport

SRC = Path(__file__).resolve().parents[1] / "src"


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    """A fresh process imports ``divfilt.cli`` without ``dataclasses`` and
    the ``inspect`` module that it pulls in."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import divfilt.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    added = set(result.stdout.split())
    assert "divfilt.cli" in added
    assert not added & {"dataclasses", "inspect"}


def fresh_model():
    return model_from_dict(builtin_document())


def q3(a, b=0):
    return QuadNumber(Fraction(a), Fraction(b), 3)


def pair(m):
    return m.divisor([1, 0]), m.divisor([0, 1])


# (class, a factory called twice for two equal instances, repr fields)
CASES = [
    (QuadNumber, lambda: q3(1, 2), None),
    (
        ConeSpec,
        lambda: ConeSpec("polyhedral", ((q3(1), q3(0)),)),
        ("kind", "functionals"),
    ),
    (
        SurfaceClass,
        lambda: fresh_model().surfaces[0].cls([1, 2, 3]),
        ("lattice", "coords"),
    ),
    (
        SurfaceLattice,
        lambda: fresh_model().surfaces[1],
        ("name", "basis", "gram", "ample_ref", "nef_cone", "eff_cone", "field_d"),
    ),
    (
        LinearConstraint,
        lambda: LinearConstraint("x", (q3(1), q3(2)), q3(0)),
        ("ident", "coeffs", "const"),
    ),
    (
        QuadraticConstraint,
        lambda: QuadraticConstraint("quad", ((q3(1),),)),
        ("ident", "matrix"),
    ),
    (ExcDivisor, lambda: fresh_model().divisor([1, 2]), ("model", "coeffs")),
    (
        CheckResult,
        lambda: CheckResult("name", True, "detail"),
        ("name", "ok", "detail"),
    ),
    (ValidationReport, lambda: fresh_model().validate(), ("checks",)),
    (ThreefoldModel, fresh_model, ("field_d", "primes", "surfaces", "restrictions")),
    (
        divfilt.GammaEnvelope,
        lambda: gamma(fresh_model(), fresh_model().divisor([1, 3])),
        ("input", "gamma", "active", "certificate"),
    ),
    (
        Region,
        lambda: _walk(fresh_model(), *pair(fresh_model()))[0],
        ("lo", "hi", "line", "envelope"),
    ),
    (
        CubicForm,
        lambda: CubicForm((q3(1), q3(2), q3(0, 1), q3(4))),
        ("coefficients",),
    ),
    (
        PiecewiseRegion,
        lambda: PiecewiseRegion(q3(0), None, CubicForm((q3(1),) * 4)),
        ("lower_slope", "upper_slope", "poly"),
    ),
    (
        PiecewisePoly,
        lambda: piecewise_limit(fresh_model(), *pair(fresh_model())),
        ("regions",),
    ),
    (
        MultReport,
        lambda: limit_single(fresh_model(), fresh_model().divisor([2, 3])),
        ("limit", "multiplicity", "gamma_used"),
    ),
    (
        InequalityCheck,
        lambda: InequalityCheck("4", True, "exact", "1", "2"),
        ("label", "holds", "method", "lhs", "rhs"),
    ),
    (
        MinkowskiReport,
        lambda: minkowski_check(fresh_model(), *pair(fresh_model())),
        ("e_values", "product_multiplicity", "verdicts", "cube_root_method"),
    ),
    (LengthSequence, sqrt2_sequence, ("evaluator", "dimension", "defect")),
    (
        ProbeResult,
        lambda: limit_probe(sqrt2_sequence(), 7),
        ("n_max", "length", "estimate", "bound"),
    ),
    (Claim, lambda: Claim("name", "1", "1"), ("name", "expected", "computed")),
    (VerifyReport, lambda: VerifyReport((Claim("name", "1", "2"),)), ("claims",)),
    (
        cli._Command,
        lambda: cli._Command("name", "help", print),
        ("name", "help", "compute", "divisors", "flags", "loads_model"),
    ),
]


def test_cases_cover_every_value_class():
    """Every class of the package declared as ``Frozen`` or ``NamedTuple``."""
    declared = {
        value
        for name, module in sys.modules.items()
        if name.startswith("divfilt.")
        for value in vars(module).values()
        if isinstance(value, type)
        and value.__module__ == name
        and (issubclass(value, Frozen) or issubclass(value, tuple))
        and value is not Frozen
    }
    assert declared == {cls for cls, _, _ in CASES}


@pytest.mark.parametrize(
    "cls, make, fields", CASES, ids=[cls.__name__ for cls, _, _ in CASES]
)
def test_value_class_is_frozen_and_compared_by_value(cls, make, fields):
    a, b = make(), make()
    assert type(a) is cls and a is not b
    assert a == b and hash(a) == hash(b) and not a != b
    assert copy.deepcopy(a) == a
    first = fields[0] if fields else "a"
    with pytest.raises(AttributeError):
        setattr(a, first, getattr(b, first))
    with pytest.raises(AttributeError):
        delattr(a, first)
    if fields is None:
        assert repr(a) == "QuadNumber('1 + 2*sqrt(3)', d=3)"
    else:
        shown = ", ".join(f"{name}={getattr(a, name)!r}" for name in fields)
        assert repr(a) == f"{cls.__name__}({shown})"


def test_frozen_value_equals_itself_without_reading_its_fields(monkeypatch):
    """``x == x`` is True before any field is read; an equal copy still
    compares its fields, and ``!=`` follows ``==``."""
    reads = []
    real = ThreefoldModel._key
    monkeypatch.setattr(
        ThreefoldModel, "_key", staticmethod(lambda x: reads.append(x) or real(x))
    )
    m, copy_ = (model_from_dict(builtin_document()) for _ in range(2))
    assert m == m and not m != m and reads == []
    assert m == copy_ and not m != copy_ and len(reads) == 4
