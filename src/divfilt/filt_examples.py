"""Closed-form length oracles for instructive ideal filtrations.

Two families are provided: a one-variable filtration whose colengths are
``ceil(n*sqrt(2))`` (its normalized limit is the irrational ``sqrt(2)``),
and a two-index family with colengths ``ceil(sqrt(n1^2 + n2^2))`` (whose
growth is visibly not polynomial in the indices).  Both are length
oracles — closed forms for the colength — rather than ideal-membership
engines, which keeps every value here exactly checkable.

:func:`limit_probe` turns any :class:`LengthSequence` into a rational
estimate of its normalized limit with an a-priori error bound
``dimension * defect / n_max``, valid for staircase sequences whose
rounding defect is bounded by ``defect``.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, isqrt
from typing import Callable, NamedTuple

from .errors import InputError
from .frozen import Frozen
from .qfield import QuadNumber

__all__ = [
    "LengthSequence",
    "ProbeResult",
    "sqrt2_length",
    "norm_length",
    "limit_probe",
    "sqrt2_sequence",
    "diagonal_norm_sequence",
]


def _check_index(n: int, name: str = "n") -> int:
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise InputError(f"{name} must be a nonnegative integer")
    return n


def sqrt2_length(n: int) -> int:
    """ceil(n * sqrt(2)), computed exactly in Q(sqrt(2))."""
    _check_index(n)
    return ceil(QuadNumber(Fraction(0), Fraction(n), 2))


def norm_length(n1: int, n2: int) -> int:
    """ceil(sqrt(n1^2 + n2^2)) by integer square-root bracketing."""
    _check_index(n1, "n1")
    _check_index(n2, "n2")
    square = n1 * n1 + n2 * n2
    root = isqrt(square)
    return root if root * root == square else root + 1


class LengthSequence(Frozen):
    """Colengths of a filtration, given by a closed-form evaluator.

    ``evaluator(n)`` must be a nondecreasing nonnegative integer sequence
    with ``evaluator(0) == 0``; ``dimension`` is the exponent normalizing
    the limit ``evaluator(n) / n^dimension``; ``defect`` bounds the
    rounding error ``|evaluator(n) - n^dimension * limit| <= defect * n^(dimension-1)``
    claimed by the sequence's author (it is a declared contract, not an
    inferred quantity).
    """

    __slots__ = _fields = ("evaluator", "dimension", "defect")
    evaluator: Callable[[int], int]
    dimension: int
    defect: int

    def __init__(
        self, evaluator: Callable[[int], int], dimension: int, defect: int = 1
    ) -> None:
        if not isinstance(dimension, int) or dimension < 1:
            raise InputError("dimension must be a positive integer")
        if not isinstance(defect, int) or defect < 1:
            raise InputError("defect bound must be a positive integer")
        if evaluator(0) != 0:
            raise InputError("length sequence must start at 0")
        self._set_fields(evaluator, dimension, defect)

    def length(self, n: int) -> int:
        _check_index(n)
        value = self.evaluator(n)
        if not isinstance(value, int) or value < 0:
            raise InputError("evaluator must return nonnegative integers")
        return value


class ProbeResult(NamedTuple):
    """A finite-index estimate of a normalized colength limit."""

    n_max: int
    length: int
    estimate: Fraction
    bound: Fraction

    def to_json_dict(self) -> dict:
        return {
            "n_max": self.n_max,
            "length": self.length,
            "estimate": str(self.estimate),
            "bound": str(self.bound),
        }


def limit_probe(seq: LengthSequence, n_max: int) -> ProbeResult:
    """Estimate lim length(n)/n^dimension by its value at ``n_max``.

    The returned ``bound`` is ``dimension * defect / n_max``; for a
    sequence honouring its declared defect contract the true limit lies
    within ``bound`` of ``estimate``.
    """
    _check_index(n_max, "n_max")
    if n_max < 1:
        raise InputError("n_max must be at least 1")
    value = seq.length(n_max)
    return ProbeResult(
        n_max=n_max,
        length=value,
        estimate=Fraction(value, n_max**seq.dimension),
        bound=Fraction(seq.dimension * seq.defect, n_max),
    )


def sqrt2_sequence() -> LengthSequence:
    """The filtration with colengths ceil(n*sqrt(2)); its limit is sqrt(2)."""
    return LengthSequence(evaluator=sqrt2_length, dimension=1, defect=1)


def diagonal_norm_sequence() -> LengthSequence:
    """The two-index norm-length family restricted to the diagonal (n, n)."""
    return LengthSequence(
        evaluator=lambda n: norm_length(n, n), dimension=1, defect=1
    )
