"""Log-space evaluation of the headline finiteness bounds.

Every bound here is astronomically large for realistic extremal lengths,
so values are carried as natural logarithms (LogNumber).  The calculators
cover: the count of irreducible holomorphic maps to the twice punctured
plane, the torus-bundle and (0,3)-bundle-with-section counts, the torus
with-hole family upper/lower counts, the planar slalom-domain counts, the
reducible-bundle count 2^{2g+m}, and the L- budgets used in the proofs.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .errors import ValidationError, check_alpha, check_nonnegative, check_positive, check_sigma

LN10 = math.log(10.0)
PI = math.pi


@dataclass(frozen=True, order=True)
class LogNumber:
    """A nonnegative real stored as its natural logarithm (-inf for zero)."""

    ln: float

    def __post_init__(self):
        # -inf is zero; NaN or +inf means the bound overflowed the float range
        if math.isnan(self.ln) or self.ln == float("inf"):
            raise ValidationError(f"bound overflows: ln = {self.ln}")

    @staticmethod
    def zero() -> "LogNumber":
        return LogNumber(float("-inf"))

    @staticmethod
    def from_value(x: float) -> "LogNumber":
        if x < 0:
            raise ValidationError("LogNumber holds nonnegative reals")
        return LogNumber(math.log(x)) if x > 0 else LogNumber.zero()

    def __mul__(self, other: "LogNumber") -> "LogNumber":
        return LogNumber(self.ln + other.ln)

    def __truediv__(self, other: "LogNumber") -> "LogNumber":
        if other.ln == float("-inf"):
            raise ZeroDivisionError("division by LogNumber zero")
        return LogNumber(self.ln - other.ln)

    def __add__(self, other: "LogNumber") -> "LogNumber":
        a, b = self.ln, other.ln
        if a == float("-inf"):
            return other
        if b == float("-inf"):
            return self
        hi, lo = (a, b) if a >= b else (b, a)
        return LogNumber(hi + math.log1p(math.exp(lo - hi)))

    def __pow__(self, k: float) -> "LogNumber":
        return LogNumber(self.ln * k)

    def to_float(self) -> float:
        return math.exp(self.ln)

    def decimal(self) -> str:
        """Scientific decimal rendering d.ddddddddddddE+exp.  One ulp of ln is
        a relative step of the value, so the mantissa keeps the decimals down
        to the place of ulp(ln), at most 12 (all 12 up to |ln| = 2^16)."""
        if self.ln == float("-inf"):
            return "0"
        ulp = math.ulp(self.ln)
        if ulp >= 1.0:  # |ln| >= 2^52: not even the leading digit is known
            raise ValidationError(f"bound too large to print as a decimal: ln = {self.ln}")
        digits = min(12, math.ceil(-math.log10(ulp)))
        e10 = math.floor(self.ln / LN10)
        mant = math.exp(self.ln - e10 * LN10)
        if round(mant, digits) >= 10.0:  # the floor/exp edge, or rounding up to 10
            mant /= 10.0
            e10 += 1
        return f"{mant:.{digits}f}E{e10:+d}"

    def to_json(self) -> dict:
        return {"ln": self.ln, "decimal": self.decimal()}

    @staticmethod
    def parse_decimal(text: str) -> "LogNumber":
        """The value of a decimal() literal: "0", or a positive d[.ddd]E[+-]exp."""
        if text == "0":
            return LogNumber.zero()
        m = re.fullmatch(r"(\d+(?:\.\d+)?)E([+-]\d+)", text)
        if not (m and float(m.group(1)) > 0):
            raise ValidationError(f"bad LogNumber literal {text!r}")
        return LogNumber(math.log(float(m.group(1))) + float(m.group(2)) * LN10)


@dataclass(frozen=True)
class SurfaceTopology:
    """Genus g surface with m+1 holes; the fundamental group has 2g+m generators."""

    g: int
    m: int

    def __post_init__(self):
        if self.g < 0 or self.m < 0:
            raise ValidationError("g and m must be nonnegative")
        # beyond 2^53 the rank is no exact float, and every bound's logarithm
        # is past 2^52, where not even its leading decimal digit is known
        if self.rank > 2 ** 53:
            raise ValidationError("2g+m must be at most 2^53")

    @property
    def rank(self) -> int:
        return 2 * self.g + self.m


def thm1_bound(t: SurfaceTopology, lambda4: float) -> LogNumber:
    """3 (3/2 e^{24 pi lambda4})^{2g+m}: irreducible holomorphic maps to
    the twice punctured plane, up to homotopy."""
    check_nonnegative("extremal length", lambda4)
    return LogNumber(math.log(3.0)
                     + t.rank * (math.log(1.5) + 24.0 * PI * lambda4))


def thm2_bound(t: SurfaceTopology, lambda8: float) -> LogNumber:
    """(2 * 3^6 * 5^6 e^{36 pi lambda8})^{2g+m}: irreducible holomorphic
    (1,1)-bundles up to isotopy."""
    check_nonnegative("extremal length", lambda8)
    return LogNumber(t.rank * (math.log(2.0) + 6.0 * math.log(15.0)
                               + 36.0 * PI * lambda8))


def thm3_bound(t: SurfaceTopology, lambda8: float) -> LogNumber:
    """(3^6 * 5^6 e^{36 pi lambda8})^{2g+m}: irreducible holomorphic
    (0,3)-bundles with a holomorphic section, up to isotopy."""
    check_nonnegative("extremal length", lambda8)
    return LogNumber(t.rank * (6.0 * math.log(15.0) + 36.0 * PI * lambda8))


class Theorem(NamedTuple):
    bound: Callable[[SurfaceTopology, float], LogNumber]
    flag: str     # the name of its extremal-length input
    formula: str


#: the headline bounds of Theorems 1-3
THEOREMS = {
    "thm1": Theorem(thm1_bound, "lambda4", "3*(3/2*e^{24 pi lambda4})^{2g+m}"),
    "thm2": Theorem(thm2_bound, "lambda8", "(2*3^6*5^6*e^{36 pi lambda8})^{2g+m}"),
    "thm3": Theorem(thm3_bound, "lambda8", "(3^6*5^6*e^{36 pi lambda8})^{2g+m}"),
}


def prop1a_upper(alpha: float, sigma: float) -> LogNumber:
    """7 e^{192 pi (2 alpha + 1)/sigma} for the torus-with-hole family."""
    check_alpha(alpha)
    check_sigma(sigma)
    return LogNumber(math.log(7.0) + 192.0 * PI * (2.0 * alpha + 1.0) / sigma)


def prop1a_lower(alpha: float, sigma: float, big_c: float, small_c: float) -> LogNumber:
    """c e^{C alpha / sigma}; the theory supplies no numeric values for
    the constants, so they must be given."""
    check_alpha(alpha)
    check_sigma(sigma)
    check_positive(C=big_c, c=small_c)
    return LogNumber(math.log(small_c) + big_c * alpha / sigma)


def prop1a_lower_from_construction(alpha: float, slalom_c: float,
                                   delta: float = 0.1) -> LogNumber:
    """The construction's count 2^{alpha/(10 C delta) - 1} of sign choices,
    with C the (non-constructive) slalom constant."""
    check_alpha(alpha)
    check_positive(slalom_c=slalom_c, delta=delta)
    return LogNumber((alpha / (10.0 * slalom_c * delta) - 1.0) * math.log(2.0))


def prop1b_bounds(sigma: float, c1: float, c2: float,
                  c1p: float, c2p: float) -> tuple[LogNumber, LogNumber]:
    """(C1 e^{C2/sigma}, C1' e^{C2'/sigma}) for the slalom neighbourhoods."""
    check_sigma(sigma)
    check_positive(C1=c1, C2=c2, C1p=c1p, C2p=c2p)
    return (LogNumber(math.log(c1) + c2 / sigma),
            LogNumber(math.log(c1p) + c2p / sigma))


def reducible11_bound(t: SurfaceTopology) -> LogNumber:
    """2^{2g+m}: reducible (1,1)-bundle classes modulo Dehn twists."""
    return LogNumber(t.rank * math.log(2.0))


def lemma3_product_budget(lam: float, factors: int) -> float:
    """L- budget for a monodromy written as a product of `factors` elements,
    each of L- at most 2 pi lambda."""
    check_nonnegative("extremal length", lam)
    if factors not in (2, 4, 6):
        raise ValidationError("factor count must be one of 2, 4, 6")
    return factors * 2.0 * PI * lam


def bound_json(value: LogNumber, formula: str, inputs: dict) -> dict:
    return {
        "bound": value.to_json(),
        "formula": formula,
        "inputs": inputs,
    }
