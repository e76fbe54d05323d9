"""Objective definitions for the three data-exchange cost variants.

P1 minimizes the induced verification workload (weighted by alpha1/alpha2),
P2 minimizes transmitted bytes, and P3 blends both with mixing weight omega.
All parameters are exact non-negative rationals so that optimality
comparisons downstream never suffer rounding.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ValidationError

P1 = "p1"
P2 = "p2"
P3 = "p3"

_VARIANTS = (P1, P2, P3)


# Largest number text: at most MAX_NUMBER_DIGITS digits and a decimal
# exponent of at most MAX_NUMBER_EXPONENT in magnitude. The bound holds for
# every JSON number token and number string of a graph or policy file, and
# for every text given to ``as_fraction``, such as a CLI number flag. An
# accepted value's exact decimal form then has at most 1000 digits on each
# side of the point, so printing it, or a sum of decimal values, stays far
# inside the interpreter's 4300-digit int-to-str limit, and no text makes
# ``Fraction`` build a huge power of ten.
MAX_NUMBER_DIGITS = 500
MAX_NUMBER_EXPONENT = 500

# Most digits in the numerator or the denominator of an objective
# parameter; ``graph.MAX_DENOMINATOR_DIGITS`` shows that every cost then
# prints inside the int-to-str limit.
MAX_PARAMETER_DIGITS = 100


def _shown(value, form=repr) -> str:
    """``form(value)`` for a refusal or warning: its first 20 characters,
    and "..." when more were cut. Never raises: a value with no such text,
    such as an int past the interpreter's int-to-str digit limit, is shown
    by its type, and an int also by its size."""
    try:
        text = form(value)
    except Exception:
        size = f" of {value.bit_length()} bits" if isinstance(value, int) else ""
        return f"<{type(value).__name__}{size}>"
    return text if len(text) <= 20 else f"{text[:20]}..."


def _shown_ids(values, form=str) -> str:
    """The first 8 of ``values``, such as sorted vertex ids, for a message:
    each as ``_shown`` gives it, and how many more there are."""
    shown = ", ".join(_shown(v, form) for v in values[:8])
    return shown + f", ... ({len(values) - 8} more)" if len(values) > 8 else shown


def check_number_text(text: str, error: type[Exception] = ValidationError) -> str:
    """``text`` if its digits and decimal exponent are within
    MAX_NUMBER_DIGITS and MAX_NUMBER_EXPONENT, else ``error``. Only the
    text is read, so nothing of the number's size is built."""
    mantissa, _, exponent = text.lower().partition("e")
    too_long = len(mantissa) > MAX_NUMBER_DIGITS and sum(c.isdigit() for c in mantissa) > MAX_NUMBER_DIGITS
    exponent = exponent.lstrip("+-").lstrip("0_")
    try:
        too_large = len(exponent) > 4 or int(exponent or 0) > MAX_NUMBER_EXPONENT
    except ValueError:  # not an exponent: int() reads every one that Fraction reads
        too_large = False
    if too_long or too_large:
        raise error(
            f"number {_shown(text, str)} exceeds {MAX_NUMBER_DIGITS} digits "
            f"or a decimal exponent of {MAX_NUMBER_EXPONENT}"
        )
    return text


def as_fraction(value) -> Fraction:
    """Convert ``value`` to an exact Fraction.

    Accepts integers and finite reals of any type registered with
    ``numbers`` (numpy scalars too; a real is read as its exact binary
    value), decimal strings ("1.5") and fraction strings ("3/7"). Booleans
    are refused, and so are strings beyond the bounds of
    ``check_number_text``.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        check_number_text(value)
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"cannot parse number {_shown(value, str)!r}") from exc
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        if isinstance(value, numbers.Integral):
            return Fraction(int(value))
        if not math.isfinite(value):
            raise ValidationError(f"non-finite value {_shown(value)}")
        return Fraction(*value.as_integer_ratio())
    raise ValidationError(f"cannot interpret {_shown(value)} as a number")


@dataclass(frozen=True)
class Objective:
    """Which cost is being minimized, plus its parameters.

    alpha1/alpha2 weight the two robots' induced workloads (used by p1 and
    p3); omega mixes the workload term into the communication term (p3).
    Each is non-negative with at most MAX_PARAMETER_DIGITS digits in its
    numerator and its denominator.
    """

    variant: str
    alpha1: Fraction = field(default=Fraction(1))
    alpha2: Fraction = field(default=Fraction(1))
    omega: Fraction = field(default=Fraction(0))

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValidationError(f"unknown objective variant {_shown(self.variant)}")
        for name in ("alpha1", "alpha2", "omega"):
            val = as_fraction(getattr(self, name))
            if val < 0:
                raise ValidationError(f"{name} must be non-negative, got {_shown(val, str)}")
            if max(val.numerator, val.denominator) >= 10**MAX_PARAMETER_DIGITS:
                raise ValidationError(
                    f"{name} must have at most {MAX_PARAMETER_DIGITS} digits in its numerator and denominator"
                )
            object.__setattr__(self, name, val)

    @classmethod
    def p1(cls, alpha1=1, alpha2=1) -> "Objective":
        return cls(P1, alpha1=alpha1, alpha2=alpha2)

    @classmethod
    def p2(cls) -> "Objective":
        return cls(P2)

    @classmethod
    def p3(cls, alpha1=1, alpha2=1, omega=1) -> "Objective":
        return cls(P3, alpha1=alpha1, alpha2=alpha2, omega=omega)
