"""Shared exception types and input rules.

ValidationError maps to CLI exit code 2, NumericalError to exit code 3.
Each rule that several modules apply is stated once here, with one message:
extremal lengths and L- budgets are finite and >= 0, lengths and constants
finite and positive, and the torus with a hole T^{alpha,sigma} has
alpha >= 1 and 0 < sigma < 1.
"""

import math


class ValidationError(ValueError):
    """Bad input or violated precondition."""


class NumericalError(RuntimeError):
    """A numeric routine failed to converge or resolve."""


def check_nonnegative(name: str, value: float) -> None:
    if not (math.isfinite(value) and value >= 0):
        raise ValidationError(f"{name} must be finite and >= 0")


def check_positive(**values) -> None:
    """Refuse missing, non-finite or non-positive values, named by keyword."""
    for name, v in values.items():
        if v is None or not (math.isfinite(v) and v > 0):
            raise ValidationError(f"{name} must be given, finite and positive")


def check_alpha(alpha: float) -> None:
    if not (math.isfinite(alpha) and alpha >= 1):
        raise ValidationError("alpha must be finite and >= 1")


def check_sigma(sigma: float) -> None:
    if not 0 < sigma < 1:
        raise ValidationError("sigma must lie in (0,1)")
