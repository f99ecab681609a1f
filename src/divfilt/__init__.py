"""divfilt: exact multiplicities of divisorial filtrations on resolutions.

The package computes, in exact arithmetic over a real quadratic field
Q(sqrt(d)):

* minimal nef envelopes of effective exceptional divisors on a resolution
  model (:func:`gamma`), together with the slope regions where the
  envelope is affine (:func:`regions`);
* normalized colength limits, multiplicities, and mixed multiplicities of
  the associated divisorial filtrations (:mod:`divfilt.multiplicity`),
  including piecewise — possibly irrational — polynomial formulas;
* the four Minkowski-style inequality families between two filtrations,
  all decided exactly, the cube-root one by the sign of one field element
  (:func:`minkowski_check`);
* closed-form filtration length oracles with irrational or
  non-polynomial growth (:mod:`divfilt.filt_examples`).

The command line entry point is ``divfilt`` (see :mod:`divfilt.cli`).
"""

from .envelope import GammaEnvelope, gamma, is_antinef, regions
from .errors import (
    ComputationError,
    DiscriminantMismatchError,
    DivfiltError,
    InputError,
    ModelValidationError,
    ParseError,
    RootOutsideFieldError,
)
from .filt_examples import (
    LengthSequence,
    ProbeResult,
    diagonal_norm_sequence,
    limit_probe,
    norm_length,
    sqrt2_length,
    sqrt2_sequence,
)
from .model import (
    BUILTIN_MODEL_NAME,
    CheckResult,
    ExcDivisor,
    ThreefoldModel,
    ValidationReport,
    builtin_document,
    builtin_model,
    load_model,
    model_from_dict,
    model_to_dict,
)
from .multiplicity import (
    CubicForm,
    InequalityCheck,
    MinkowskiReport,
    MultReport,
    PiecewisePoly,
    PiecewiseRegion,
    limit_single,
    minkowski_check,
    mixed,
    piecewise_limit,
    product_limit,
)
from .qfield import (
    QuadNumber,
    field_sqrt,
    parse_scalar,
    rational_sqrt,
    scalar_from_json,
    scalar_to_json,
    sqrt_in_field,
)
from .surfaces import ConeSpec, SurfaceClass, SurfaceLattice
from .verify import Claim, VerifyReport, run_golden_suite

__all__ = [
    "BUILTIN_MODEL_NAME",
    "CheckResult",
    "Claim",
    "ComputationError",
    "ConeSpec",
    "CubicForm",
    "DiscriminantMismatchError",
    "DivfiltError",
    "ExcDivisor",
    "GammaEnvelope",
    "InequalityCheck",
    "InputError",
    "LengthSequence",
    "MinkowskiReport",
    "ModelValidationError",
    "MultReport",
    "ParseError",
    "PiecewisePoly",
    "PiecewiseRegion",
    "ProbeResult",
    "QuadNumber",
    "RootOutsideFieldError",
    "SurfaceClass",
    "SurfaceLattice",
    "ThreefoldModel",
    "ValidationReport",
    "VerifyReport",
    "builtin_document",
    "builtin_model",
    "diagonal_norm_sequence",
    "field_sqrt",
    "gamma",
    "is_antinef",
    "limit_probe",
    "limit_single",
    "load_model",
    "minkowski_check",
    "mixed",
    "model_from_dict",
    "model_to_dict",
    "norm_length",
    "parse_scalar",
    "piecewise_limit",
    "product_limit",
    "rational_sqrt",
    "regions",
    "run_golden_suite",
    "scalar_from_json",
    "scalar_to_json",
    "sqrt2_length",
    "sqrt2_sequence",
    "sqrt_in_field",
]
