"""The shared input rules of fbt.errors, each through the modules that use it."""

import math
import re

import pytest

from fbt import bounds as Bd
from fbt import braid as B
from fbt import config3 as C
from fbt import conformal as Cf
from fbt import dbar as D
from fbt import words as W
from fbt.errors import ValidationError

_T = Bd.SurfaceTopology(0, 1)
_BAD_NONNEGATIVE = (math.nan, math.inf, -math.inf, -1.0)

_CASES = [
    # check_nonnegative: extremal lengths, L- budgets and the in-h tolerance
    *[(f, "extremal length must be finite and >= 0")
      for f in (lambda x: Bd.thm1_bound(_T, x), lambda x: Bd.thm2_bound(_T, x),
                lambda x: Bd.thm3_bound(_T, x), lambda x: Bd.lemma3_product_budget(x, 2))],
    (lambda x: B.lemma4_admissible(B.parse_braid("s1^3 s2^4"), x),
     "lambda must be finite and >= 0"),
    (lambda x: B.lemma3a_check(3, 4, x), "lambda must be finite and >= 0"),
    (W.enumerate_words, "enumeration budget must be finite and >= 0"),
    (W.count_words_by_patterns, "enumeration budget must be finite and >= 0"),
    (W.word_count_bound, "budget must be finite and >= 0"),
    (B.braid_count_bound, "budget must be finite and >= 0"),
    (lambda x: C.in_h(C.triple(-1, 0, 1), x), "tolerance must be finite and >= 0"),
    *[(lambda x, f=f: f(D.KernelParams(1.0), x), "radius must be finite and >= 0")
      for f in (D.wp_tail_bound, D.wp_nu_tail_bound)],
]


@pytest.mark.parametrize("fn,message", _CASES)
@pytest.mark.parametrize("bad", _BAD_NONNEGATIVE)
def test_check_nonnegative(fn, message, bad):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        fn(bad)


@pytest.mark.parametrize("call,message", [
    (lambda: Bd.prop1a_lower(1.0, 0.1, math.nan, 0.5), "C must be given, finite and positive"),
    (lambda: Bd.prop1a_lower(1.0, 0.1, 1.0, 0.0), "c must be given, finite and positive"),
    (lambda: Bd.prop1a_lower_from_construction(1.0, 1.0, -0.1),
     "delta must be given, finite and positive"),
    (lambda: Bd.prop1b_bounds(0.1, 1.0, 1.0, 1.0, math.inf),
     "C2p must be given, finite and positive"),
    (lambda: Cf.rectangle(1.0, math.nan), "b must be given, finite and positive"),
    (lambda: Cf.rectangle_grid(1.0, 1.0, 0.0), "h must be given, finite and positive"),
    (lambda: Cf.AnnulusSpec("round", (None, 2.0)), "r must be given, finite and positive"),
    *[(lambda f=f, d=d: f(d, 0.0), "delta must be given, finite and positive")
      for f in (D.chi, D.chi_prime) for d in (math.inf, 0.0, math.nan)],
])
def test_check_positive(call, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("alpha", [math.nan, math.inf, 0.999, -1.0])
@pytest.mark.parametrize("call", [
    lambda a: Cf.TorusWithHole(a, 0.1),
    lambda a: D.KernelParams(a),
    lambda a: Bd.prop1a_upper(a, 0.1),
    lambda a: Bd.prop1a_lower(a, 0.1, 1.0, 1.0),
    lambda a: Bd.prop1a_lower_from_construction(a, 1.0),
])
def test_check_alpha(call, alpha):
    with pytest.raises(ValidationError, match=r"^alpha must be finite and >= 1$"):
        call(alpha)


@pytest.mark.parametrize("sigma", [math.nan, math.inf, 0.0, 1.0, -0.5])
@pytest.mark.parametrize("call", [
    lambda s: Cf.TorusWithHole(1.0, s),
    lambda s: Bd.prop1a_upper(1.0, s),
    lambda s: Bd.prop1a_lower(1.0, s, 1.0, 1.0),
    lambda s: Bd.prop1b_bounds(s, 1.0, 1.0, 1.0, 1.0),
])
def test_check_sigma(call, sigma):
    with pytest.raises(ValidationError, match=r"^sigma must lie in \(0,1\)$"):
        call(sigma)
