import math
import random

import mpmath
import pytest

from fbt import bounds as Bd
from fbt.bounds import (
    LogNumber,
    SurfaceTopology,
    lemma3_product_budget,
    prop1a_lower,
    prop1a_lower_from_construction,
    prop1a_upper,
    prop1b_bounds,
    reducible11_bound,
    thm1_bound,
    thm2_bound,
    thm3_bound,
)
from fbt.errors import ValidationError
from fbt.words import word_count_bound

mpmath.mp.dps = 200


def mp_ln(x) -> float:
    return float(mpmath.log(x))


def test_lognumber_arithmetic_against_mpmath():
    rng = random.Random(77)
    for _ in range(1000):
        a = rng.uniform(1e-3, 1e3)
        b = rng.uniform(1e-3, 1e3)
        k = rng.uniform(-40.0, 40.0)
        la, lb = LogNumber.from_value(a), LogNumber.from_value(b)
        assert (la * lb).ln == pytest.approx(mp_ln(mpmath.mpf(a) * b), rel=1e-9, abs=1e-9)
        assert (la + lb).ln == pytest.approx(mp_ln(mpmath.mpf(a) + b), rel=1e-9, abs=1e-9)
        assert (la / lb).ln == pytest.approx(mp_ln(mpmath.mpf(a) / b), rel=1e-9, abs=1e-9)
        assert (la ** k).ln == pytest.approx(mp_ln(mpmath.mpf(a) ** k), rel=1e-9, abs=1e-9)


def test_lognumber_zero_and_compare():
    z = LogNumber.zero()
    one = LogNumber.from_value(1.0)
    assert (z + one).ln == one.ln
    assert (z * one).ln == float("-inf")
    assert z < one
    with pytest.raises(ZeroDivisionError):
        one / z


def test_lognumber_decimal_round_trip():
    rng = random.Random(3)
    for _ in range(500):
        ln = rng.uniform(-600, 690)  # |decimal exponent| < 300
        x = LogNumber(ln)
        back = LogNumber.parse_decimal(x.decimal())
        assert back.ln == pytest.approx(ln, abs=1e-12 * max(1.0, abs(ln)))
    assert LogNumber.zero().decimal() == "0"
    # from |ln| = 2^52 on, ulp(ln) >= 1 and the mantissa would be noise
    LogNumber(math.nextafter(2.0 ** 52, 0)).decimal()
    for ln in (2.0 ** 52, 1e16, -1e16, 7.5e307):
        with pytest.raises(ValidationError, match="too large to print"):
            LogNumber(ln).decimal()


def test_lognumber_decimal_keeps_supported_digits():
    # the mantissa keeps the decimals down to the place of ulp(ln), at most 12
    for ln, digits in ((36193.093279503475, 12), (2.0 ** 16 - 0.1, 12), (2.0 ** 16, 11),
                       (1e13, 3), (-1e13, 3), (7.539822368615519e14, 1),
                       (2.0 ** 52 - 1, 1)):
        text = LogNumber(ln).decimal()
        assert len(text.split("E")[0].split(".")[1]) == digits, (ln, text)
        back = LogNumber.parse_decimal(text).ln
        assert abs(back - ln) <= 10.0 ** -digits + 4 * math.ulp(ln), (ln, text)
    # rounding the mantissa up to 10 carries into the exponent
    assert LogNumber(math.log(9.99999999999999) + 10 * Bd.LN10).decimal() == "1.000000000000E+11"
    assert LogNumber.from_value(9.9999999999999e5).decimal() == "1.000000000000E+6"


@pytest.mark.parametrize("text", ["0", "3.5E+327450324922042", "2.000000000000E-7",
                                  "9.999999999999E+300"])
def test_lognumber_decimal_literal_round_trips(text):
    assert LogNumber.parse_decimal(text).decimal() == text


@pytest.mark.parametrize("text,message", [
    *[(t, "bad LogNumber literal") for t in
      ("1.2.3E+1", ".E+1", "0.0E+0", "0E+3", "1.E+1", "-1E+1", "1e+1", "",
       "1.0E+1\n")],
    # an exponent or a mantissa past the float range: ln = inf
    pytest.param("1E+" + "9" * 400, "bound overflows", id="huge-exponent"),
    pytest.param("9" * 400 + "E+1", "bound overflows", id="huge-mantissa"),
])
def test_lognumber_refuses_a_bad_literal(text, message):
    with pytest.raises(ValidationError, match=f"^{message}"):
        LogNumber.parse_decimal(text)


def test_lognumber_refuses_a_negative_value():
    with pytest.raises(ValidationError, match="^LogNumber holds nonnegative reals$"):
        LogNumber.from_value(-1)


def test_trivial_lambda_values_exact():
    assert thm1_bound(SurfaceTopology(0, 1), 0.0).to_float() == pytest.approx(4.5, rel=1e-12)
    assert thm1_bound(SurfaceTopology(1, 0), 0.0).to_float() == pytest.approx(6.75, rel=1e-12)
    assert thm3_bound(SurfaceTopology(0, 1), 0.0).to_float() == pytest.approx(15 ** 6, rel=1e-12)
    assert thm2_bound(SurfaceTopology(0, 1), 0.0).to_float() == pytest.approx(2 * 15 ** 6, rel=1e-12)
    assert reducible11_bound(SurfaceTopology(1, 0)).to_float() == pytest.approx(4.0, rel=1e-12)
    assert reducible11_bound(SurfaceTopology(2, 3)).to_float() == pytest.approx(2 ** 7, rel=1e-12)


def test_thm1_ln_value():
    t = SurfaceTopology(1, 0)
    val = thm1_bound(t, 1.0)
    expected = mp_ln(3) + 2 * (mp_ln(mpmath.mpf(3) / 2) + 24 * mpmath.pi)
    assert val.ln == pytest.approx(float(expected), rel=1e-12)


def test_thm2_thm3_ratio_and_agreement():
    rng = random.Random(9)
    for _ in range(300):
        t = SurfaceTopology(rng.randrange(4), rng.randrange(4))
        lam = rng.uniform(0, 3)
        r = thm2_bound(t, lam).ln - thm3_bound(t, lam).ln
        assert r == pytest.approx(t.rank * math.log(2), abs=1e-9)
        a = thm3_bound(t, lam).ln
        # the same bound written as (15 e^{6 pi lambda8})^{6(2g+m)}
        b = 6.0 * t.rank * (math.log(15.0) + 6.0 * math.pi * lam)
        assert b == pytest.approx(a, rel=1e-12, abs=1e-12)


def test_prop1a_upper_against_oracle():
    for alpha in (1.0, 2.0):
        for sigma in (0.1, 0.05):
            got = prop1a_upper(alpha, sigma).ln
            want = mp_ln(7) + 192 * mpmath.pi * (2 * mpmath.mpf(alpha) + 1) / mpmath.mpf(sigma)
            assert got == pytest.approx(float(want), rel=1e-9)
    assert prop1a_upper(1.0, 0.1).ln == pytest.approx(math.log(7) + 192 * math.pi * 30, rel=1e-12)


def test_prop1a_lower_matches_construction():
    # c = 1/2 and C = log2 * eps/(10 C_slalom) reshape the count 2^{alpha/(10 C delta) - 1}
    slalom_c = 2.3
    for alpha in (1.0, 3.0):
        for eps in (0.1, 0.02):
            delta = 0.1
            sigma = eps * delta
            lhs = prop1a_lower(alpha, sigma, math.log(2) * eps / (10 * slalom_c), 0.5)
            rhs = prop1a_lower_from_construction(alpha, slalom_c, delta)
            assert lhs.ln == pytest.approx(rhs.ln, rel=1e-12, abs=1e-12)


def test_prop1b():
    up, low = prop1b_bounds(0.1, 2.0, 3.0, 0.5, 1.0)
    assert up.ln == pytest.approx(math.log(2) + 30.0, rel=1e-12)
    assert low.ln == pytest.approx(math.log(0.5) + 10.0, rel=1e-12)


def test_monotonicity_sweeps():
    rng = random.Random(123)
    for _ in range(1000):
        g, m = rng.randrange(3), rng.randrange(3)
        t = SurfaceTopology(g, m)
        lam = rng.uniform(0, 2)
        dlam = rng.uniform(1e-6, 1.0)
        assert thm1_bound(t, lam + dlam).ln >= thm1_bound(t, lam).ln
        assert thm2_bound(t, lam + dlam).ln >= thm2_bound(t, lam).ln
        assert thm3_bound(t, lam + dlam).ln >= thm3_bound(t, lam).ln
        bigger = SurfaceTopology(g + 1, m)
        assert thm1_bound(bigger, lam).ln >= thm1_bound(t, lam).ln
        wider = SurfaceTopology(g, m + 1)
        assert thm1_bound(wider, lam).ln >= thm1_bound(t, lam).ln
        alpha = rng.uniform(1, 4)
        s1, s2 = sorted((rng.uniform(0.01, 0.9), rng.uniform(0.01, 0.9)))
        assert prop1a_upper(alpha, s1).ln >= prop1a_upper(alpha, s2).ln
        assert prop1a_upper(alpha + 0.5, s1).ln >= prop1a_upper(alpha, s1).ln


def test_sigma_to_zero_monotone():
    vals = [prop1a_upper(1.0, s).ln for s in (0.2, 0.1, 0.05, 0.01)]
    assert vals == sorted(vals)
    los = [prop1a_lower(1.0, s, 1.0, 1.0).ln for s in (0.2, 0.1, 0.05, 0.01)]
    assert los == sorted(los)


def test_composition_consistency_with_word_bound():
    rng = random.Random(5)
    for _ in range(200):
        t = SurfaceTopology(rng.randrange(3), rng.randrange(3))
        lam = rng.uniform(0, 0.05)
        y = 8 * math.pi * lam
        factor_ln = math.log(1.5) + 3 * y
        assert word_count_bound(y).ln <= factor_ln + 1e-12
        assert thm1_bound(t, lam).ln == pytest.approx(
            math.log(3) + t.rank * factor_ln, rel=1e-12, abs=1e-12)


def test_lemma3_product_budget():
    assert lemma3_product_budget(1.0, 4) == pytest.approx(8 * math.pi, rel=1e-15)
    assert lemma3_product_budget(0.5, 6) == pytest.approx(6 * math.pi, rel=1e-15)
    assert lemma3_product_budget(2.0, 2) == pytest.approx(8 * math.pi, rel=1e-15)
    with pytest.raises(ValidationError):
        lemma3_product_budget(1.0, 3)


def test_validation():
    with pytest.raises(ValidationError):
        SurfaceTopology(-1, 0)
    with pytest.raises(ValidationError):
        prop1a_upper(0.5, 0.1)
    with pytest.raises(ValidationError):
        prop1a_upper(1.0, 1.5)
    with pytest.raises(ValidationError):
        thm1_bound(SurfaceTopology(0, 1), -1.0)
    with pytest.raises(ValidationError):
        prop1a_lower(1.0, 0.1, -1.0, 0.5)


def test_bound_json():
    data = Bd.bound_json(LogNumber.from_value(4.5), "f", {"x": 1})
    assert data["bound"]["decimal"].startswith("4.5")
    assert data["formula"] == "f"
