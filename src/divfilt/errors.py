"""Exception hierarchy shared by all divfilt modules.

Two broad families matter to callers (and to the command line tool's exit
codes): problems with *input* — unparseable scalars, malformed model
documents, inconsistent intersection data — and problems that arise during
a *computation* that was set up correctly but cannot be completed in exact
arithmetic (a quadratic with no root in the ground field, an envelope
system with no coordinatewise minimum).
"""

from __future__ import annotations


class DivfiltError(Exception):
    """Base class for every error raised by this package."""


class InputError(DivfiltError):
    """Invalid input: parse failures, schema violations, bad preconditions."""


class ParseError(InputError):
    """A scalar, divisor, or document could not be parsed."""


class ModelValidationError(InputError):
    """A threefold model's data is internally inconsistent.

    ``failures`` lists human-readable descriptions, one per failed check;
    the first failing triple-product monomial is always named.
    """

    def __init__(self, failures: list[str]):
        self.failures = list(failures)
        super().__init__("model validation failed: " + "; ".join(self.failures))


class ComputationError(DivfiltError):
    """A well-posed request that exact arithmetic could not complete."""


class DiscriminantMismatchError(ComputationError):
    """Arithmetic attempted between elements of different quadratic fields."""


class RootOutsideFieldError(ComputationError):
    """A required square root does not lie in the working quadratic field."""


class NoMinimalEnvelopeError(ComputationError):
    """The feasible set has no coordinatewise-minimal point."""


class UnsupportedModelError(ComputationError):
    """The model needs machinery beyond one quadratic per active subsystem."""
