"""Exception types shared across the package, and the argument checks.

Every bad argument, of a library constructor or function or of a config
field, raises :class:`ValidationError`: a ``ValueError`` whose message
names the argument first (``budget: must be an integer >= 1, got 1.5``).
The integer-count check and the finite-number checks below (of one
number, or of a number or a sequence of them) are the only ones in the
package; they run at construction or once per batch, never per point.
The other classes are conditions a caller can act on at run time.
"""

from __future__ import annotations

import math
import numbers


class DiracMeanError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(DiracMeanError, ValueError):
    """An argument or config field violates a precondition: ``field`` names
    it, ``message`` says what is wrong, and the text is ``field: message``."""

    def __init__(self, field: str, message: str):
        super().__init__(field, message)
        self.field = field
        self.message = message

    def __str__(self) -> str:
        return f"{self.field}: {self.message}"


def as_count(name: str, value, least: int | None = None) -> int:
    """``value`` as a plain int, unless it is not an integer (a numpy integer
    is, a bool is not) of at least ``least``."""
    if (not isinstance(value, numbers.Integral) or isinstance(value, bool)
            or (least is not None and value < least)):
        bound = "" if least is None else f" >= {least}"
        raise ValidationError(name, f"must be an integer{bound}, got {value!r}")
    return int(value)


def as_number(name: str, value, low: float | None = None, high: float = math.inf) -> float:
    """``value`` as a float, unless it is not a finite real number (a bool is
    not), or, where ``low`` is given, not strictly between ``low`` and ``high``."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        x = float(value) if real else math.nan
    except OverflowError:  # an int beyond the float range
        x = math.nan
    if not math.isfinite(x) or (low is not None and not low < x < high):
        bound = ("" if low is None else f" > {low:g}" if high == math.inf
                 else f" in ({low:g}, {high:g})")
        raise ValidationError(name, f"must be a finite number{bound}, got {value!r}")
    return x


def as_numbers(name: str, value, low: float | None = None) -> tuple[float, ...]:
    """``value``, a number or a sequence of numbers, as a nonempty tuple of
    floats, unless an entry is not a finite number (> ``low`` where given);
    widths are checked with ``low=0``."""
    entries = [value] if isinstance(value, (numbers.Number, str)) else value
    try:
        out = tuple(as_number(name, x, low) for x in entries)
    except (TypeError, ValidationError):
        out = ()
    if not out:
        bound = "" if low is None else f" > {low:g}"
        raise ValidationError(
            name, f"must be a finite number{bound} or a nonempty sequence of them, got {value!r}"
        )
    return out


class QuantileDomain(DiracMeanError):
    """A base coordinate hit 0 or 1 exactly, where the quantile transform
    is undefined."""


class CylinderViolation(DiracMeanError):
    """A declared finite-rank function was observed to depend on a
    coordinate beyond its rank."""


class NegativeDensity(DiracMeanError):
    """A density or regularizer returned a negative value at a sampled
    point."""


class WeightOverflow(DiracMeanError):
    """exp(-action) would overflow to infinity (action < -700)."""


class NonFiniteInput(DiracMeanError):
    """A weight or function value was NaN or infinite."""


class EmptyAccumulator(DiracMeanError):
    """estimate() was called before any accumulation."""


class NoConvergence(DiracMeanError):
    """Cell doubling hit the resolution cap before successive quadrature
    values agreed."""


class DegenerateOracle(DiracMeanError):
    """The oracle's normalizing integral is too close to zero relative to
    the integral of the absolute density."""


class CertificationError(DiracMeanError):
    """A source failed the equidistribution certificate required for this
    run."""


class ParseError(DiracMeanError):
    """The experiment description is not well-formed."""
