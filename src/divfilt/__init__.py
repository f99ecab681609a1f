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

The public names are not imported here: each is read from its defining
module at every use, and that module is imported on first use (PEP 562).
So ``import divfilt`` loads no module of the package,
``divfilt.builtin_model()`` loads only the model and the layers under it,
and a replaced ``divfilt.envelope.gamma`` is what ``divfilt.gamma``
returns.  The layers themselves (``divfilt.envelope`` and so on, all but
:mod:`divfilt.cli`) are imported on first use the same way;
:mod:`divfilt.cli` imports every layer.
"""

import sys
from importlib import import_module

# the public names of each module, in order of layer
_EXPORTS = {
    "errors": (
        "ComputationError",
        "DiscriminantMismatchError",
        "DivfiltError",
        "InputError",
        "ModelValidationError",
        "ParseError",
        "RootOutsideFieldError",
    ),
    "qfield": (
        "QuadNumber",
        "field_sqrt",
        "parse_scalar",
        "rational_sqrt",
        "scalar_from_json",
        "scalar_to_json",
        "sqrt_in_field",
    ),
    "filt_examples": (
        "LengthSequence",
        "ProbeResult",
        "diagonal_norm_sequence",
        "limit_probe",
        "norm_length",
        "sqrt2_length",
        "sqrt2_sequence",
    ),
    "surfaces": ("ConeSpec", "SurfaceClass", "SurfaceLattice"),
    "model": (
        "BUILTIN_MODEL_NAME",
        "CheckResult",
        "ExcDivisor",
        "ThreefoldModel",
        "ValidationReport",
        "builtin_document",
        "builtin_model",
        "load_model",
        "model_from_dict",
        "model_to_dict",
    ),
    "envelope": ("GammaEnvelope", "gamma", "is_antinef", "regions"),
    "multiplicity": (
        "CubicForm",
        "InequalityCheck",
        "MinkowskiReport",
        "MultReport",
        "PiecewisePoly",
        "PiecewiseRegion",
        "limit_single",
        "minkowski_check",
        "mixed",
        "piecewise_limit",
        "product_limit",
    ),
    "verify": ("Claim", "VerifyReport", "run_golden_suite"),
}

# every layer but ``cli``, each an attribute of the package on first use
_LAYERS = frozenset({*_EXPORTS, "frozen", "intervals"})

# each public name's defining module, by its full name
_MODULE_OF = {
    name: f"{__name__}.{module}" for module, names in _EXPORTS.items() for name in names
}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """The public ``name`` from its defining module, or the layer ``name``,
    imported on first use."""
    if name in _LAYERS:
        return import_module(f".{name}", __name__)
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    # a loaded layer is read from ``sys.modules``: ``import_module`` costs
    # microseconds at every use of a name
    return getattr(sys.modules.get(module) or import_module(module), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_LAYERS})
