import math
import random
import re

import pytest

from fbt import braid as B
from fbt.braid import (
    B3,
    MOD_CENTER,
    BraidWord,
    braid_concat,
    braid_count_bound,
    braid_invert,
    census,
    equal,
    expand,
    format_braid,
    lambda_tr_lower,
    lemma3a_check,
    lemma4_admissible,
    matrix_image,
    normal_form,
    parse_braid,
    q,
    theta,
    theta_preimages,
)
from fbt.errors import ValidationError
from fbt.words import IDENTITY, l_minus, parse_word, word

LOG3 = math.log(3)
LOG6 = math.log(6)


def random_braid(rng, max_len=30, ambient=B3):
    letters = []
    for _ in range(rng.randrange(max_len + 1)):
        letters.append((rng.choice(("s1", "s2", "d")), rng.choice((1, -1, 2, -2))))
    return B.braid(letters, ambient)


def test_matrix_examples():
    assert equal(parse_braid("s1 s2 s1"), parse_braid("s2 s1 s2"))
    m = matrix_image(parse_braid("d^2"))
    assert m.entries() == (-1, 0, 0, -1)
    assert m.exponent_sum == 6
    m0 = matrix_image(parse_braid(""))
    assert m0.entries() == (1, 0, 0, 1) and m0.exponent_sum == 0


def letter_product(b):
    """Per-letter product over sigma_letters, independent of the syllable
    matrices in matrix_image."""
    gens = {(1, 1): (1, 1, 0, 1), (1, -1): (1, -1, 0, 1),
            (2, 1): (1, 0, -1, 1), (2, -1): (1, 0, 1, 1)}
    m = (1, 0, 0, 1)
    for letter in b.sigma_letters():
        a, b_, c, d = m
        e, f, g, h = gens[letter]
        m = (a * e + b_ * g, a * f + b_ * h, c * e + d * g, c * f + d * h)
    return m


def test_matrix_image_matches_letter_product():
    rng = random.Random(31)
    for _ in range(400):
        amb = rng.choice((B3, MOD_CENTER))
        letters = []
        for _ in range(rng.randrange(1, 12)):
            gen = rng.choice(("s1", "s2", "d"))
            letters.append((gen, rng.choice([e for e in range(-40, 41) if e])))
        # d exponents in every residue class mod 4
        letters += [("d", r + 4 * rng.randrange(-3, 3) or 4) for r in range(4)]
        rng.shuffle(letters)
        b = B.braid(letters, amb)
        m = matrix_image(b)
        assert m.entries() == letter_product(b)
        assert m.exponent_sum == sum(s for _, s in b.sigma_letters())


def test_matrix_image_matches_letter_product_long_syllables():
    # the one-loop matrix_image against the per-letter product: negative
    # exponents, every residue of a d power mod 4, exponents up to 1500
    rng = random.Random(57)
    for _ in range(60):
        amb = rng.choice((B3, MOD_CENTER))
        letters = [(rng.choice(("s1", "s2")), rng.choice((1, -1)) * rng.randrange(1, 1501))
                   for _ in range(rng.randrange(1, 4))]
        letters += [("d", sign * (4 * rng.randrange(0, 376) + r) or sign * 4)
                    for r in range(4) for sign in (1, -1)]
        rng.shuffle(letters)
        b = B.braid(letters, amb)
        m = matrix_image(b)
        assert m.entries() == letter_product(b)
        assert m.exponent_sum == sum(s for _, s in b.sigma_letters())


def test_normal_form_reuses_the_input_image(monkeypatch):
    calls = []
    real = B.matrix_image
    monkeypatch.setattr(B, "matrix_image", lambda b: calls.append(b) or real(b))
    for text in ("s1^3 s2^-2 d", "@mod-center s2 s1^4 d^-3", "d^6", ""):
        calls.clear()
        nf = normal_form(parse_braid(text))
        # M(b) once, and M(expand(nf)) for the round-trip oracle
        assert calls == [parse_braid(text), expand(nf)]


@pytest.mark.parametrize("ambient", [B3, MOD_CENTER])
def test_normal_form_oracle_catches_a_wrong_word(monkeypatch, ambient):
    # a decoded word with its generators swapped keeps the exponent sum and
    # the shape of a normal form, so only the round-trip oracle can see it
    real = B._matrix_to_word

    def swapped(m):
        w = real(m)
        if w.is_identity:
            return word((1, 1), (2, -1))
        return word(*((3 - g, e) for g, e in w.terms))

    monkeypatch.setattr(B, "_matrix_to_word", swapped)
    for text in ("s1^3 s2^-2 d", "s2 s1^4", "s1^2 s2^2 s1^-2 d^-1", "d^2", "s1^5"):
        with pytest.raises(AssertionError, match="round-trip oracle"):
            normal_form(parse_braid(text, ambient))


def test_normal_form_huge_exponent():
    nf = normal_form(parse_braid("s1^100000000 s2^4"))
    assert (nf.kind, nf.j, nf.k, nf.b1, nf.l) == ("general", 1, 10 ** 8,
                                                  word((2, 2)), 0)


def test_equal_examples():
    assert equal(parse_braid("s1 d"), parse_braid("d s2"))
    assert not equal(parse_braid("s1"), parse_braid("s2"))
    b = parse_braid("@mod-center s1^3 s2^-1")
    bc = braid_concat(b, parse_braid("@mod-center d^2"))
    assert equal(b, bc)
    assert not equal(parse_braid("s1^3 s2^-1"),
                     braid_concat(parse_braid("s1^3 s2^-1"), parse_braid("d^2")))
    with pytest.raises(ValidationError, match="ambient"):
        equal(parse_braid("s1"), parse_braid("@mod-center s1"))


def test_braid_relation_rewrites():
    rng = random.Random(11)
    for _ in range(10000):
        b = random_braid(rng, 30)
        sig = b.sigma_letters()
        # random application of the braid relation on a positive triple
        for _ in range(4):
            for i in range(len(sig) - 2):
                a, c, e = sig[i], sig[i + 1], sig[i + 2]
                if a == e and a[1] == c[1] and a[0] != c[0]:
                    sig[i], sig[i + 1], sig[i + 2] = c, a, c
                    break
        rewritten = B.braid([(f"s{g}", s) for g, s in sig])
        plain = B.braid([(f"s{g}", s) for g, s in b.sigma_letters()])
        assert equal(rewritten, plain)


def test_normal_form_conjugated_twist_families():
    for k in range(1, 6):
        b = parse_braid(f"s1^{-2 * k} d s1^{2 * k}")
        nf = normal_form(b)
        assert (nf.kind, nf.j, nf.k, nf.l) == ("general", 1, -2 * k, 1)
        assert nf.b1 == word((2, k))
        b = parse_braid(f"s2^{-2 * k} s1 s2 s2^{2 * k}")
        nf = normal_form(b)
        assert (nf.kind, nf.j, nf.k, nf.l) == ("general", 2, -2 * k - 1, 1)
        assert nf.b1 == word((1, k))


def test_normal_form_delta_power():
    nf = normal_form(parse_braid("d^5"))
    assert nf.kind == "delta-power" and nf.l == 5
    nf = normal_form(parse_braid("@mod-center d^5"))
    assert nf.kind == "delta-power" and nf.l == 1
    nf = normal_form(parse_braid("s1 s2"))
    assert nf.kind == "general"


def test_normal_form_round_trip_random():
    rng = random.Random(2)
    for _ in range(10000):
        amb = rng.choice((B3, MOD_CENTER))
        b = random_braid(rng, 30, amb)
        nf = normal_form(b)  # has a built-in round-trip oracle assert
        assert equal(expand(nf), b)
        assert normal_form(expand(nf)) == nf  # equal elements, equal forms


@pytest.mark.parametrize("call,message", [
    (lambda: BraidWord((), "B4"), "unknown ambient 'B4'"),
    (lambda: BraidWord((("s3", 1),)), "unknown braid generator 's3'"),
    (lambda: braid_concat(), "empty concat"),
    (lambda: braid_concat(parse_braid("s1"), parse_braid("@mod-center s1")),
     "ambient mismatch"),
    (lambda: B.MatrixImage(2, 0, 0, 1, 0), "matrix image must have determinant 1"),
    (lambda: B._matrix_to_word((1, 1, 0, 1)), "matrix is not in the pure-braid image"),
    (lambda: B._matrix_to_word((3, 0, 0, 1)), "matrix is not in the pure-braid image"),
    (lambda: B.BraidNormalForm(0, j=3, k=1), "j must be 0, 1 or 2"),
    (lambda: B.BraidNormalForm(1, j=0, k=3), "k must be nonzero exactly when j is"),
    (lambda: B.BraidNormalForm(1, b1=word((2, 1))), "b1 must be empty or start with"),
    (lambda: B.BraidNormalForm(0, j=1, k=0), "k must be nonzero exactly when j is"),
    (lambda: B.BraidNormalForm(0, j=1, k=1, b1=word((1, 1))), "b1 must be empty or start with"),
    (lambda: B.BraidNormalForm(2, ambient=MOD_CENTER), "l is reduced mod 2"),
], ids=("unknown-ambient", "unknown-generator", "empty-concat", "concat-ambients",
        "determinant", "odd-entry", "not-unimodular", "nf-j-3", "nf-d-power-with-k",
        "nf-d-power-with-b1", "nf-zero-k", "nf-b1-on-s_j", "nf-mod-center-l"))
def test_braid_refusals(call, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}"):
        call()


def test_normal_form_long_words_and_big_exponents():
    rng = random.Random(44)
    for _ in range(40):
        letters = [(rng.choice(("s1", "s2", "d")), rng.randrange(-40, 41) or 7)
                   for _ in range(200)]
        b = B.braid(letters)
        nf = normal_form(b)
        assert B.equal(expand(nf), b)


def test_q():
    assert q(2) == 2
    assert q(3) == 2
    assert q(-3) == -2
    assert q(1) == 0
    assert q(-1) == 0
    with pytest.raises(ValidationError):
        q(0)


def test_theta_examples():
    assert theta(parse_braid("d^7")) == IDENTITY
    for k in range(1, 51):
        th = theta(parse_braid(f"s1^{-2 * k} d s1^{2 * k}"))
        assert th == word((1, -k), (2, k))
        assert l_minus(th) == pytest.approx(2 * math.log(3 * k), abs=1e-12)
        th = theta(parse_braid(f"s2^{-2 * k} s1 s2 s2^{2 * k}"))
        assert th == word((2, -k), (1, k))
        assert l_minus(th) == pytest.approx(2 * math.log(3 * k), abs=1e-12)


def test_theta_well_defined_mod_center():
    rng = random.Random(6)
    for _ in range(400):
        b = random_braid(rng, 16)
        bc = braid_concat(b, parse_braid("d^2"))
        assert theta(b) == theta(bc)


def test_theta_mirror_symmetry():
    rng = random.Random(8)
    d = parse_braid("d")
    dinv = parse_braid("d^-1")
    for _ in range(400):
        b = random_braid(rng, 16)
        mirrored = braid_concat(d, b, dinv)
        assert l_minus(theta(mirrored)) == pytest.approx(l_minus(theta(b)), abs=1e-12)


def test_lambda_tr_lower():
    assert lambda_tr_lower(parse_braid("s1^5 d^3")) == 0.0
    assert lambda_tr_lower(parse_braid("d")) == 0.0
    val = lambda_tr_lower(parse_braid("s1^-4 d s1^4"))
    assert val == pytest.approx(math.log(6) / math.pi, abs=1e-12)


def test_lemma4_and_lemma3a():
    assert lemma4_admissible(parse_braid("d"), 0.0)
    assert lemma4_admissible(parse_braid("s1^7 d^2"), 0.0)
    b = parse_braid("s1^-4 d s1^4")
    lam = l_minus(theta(b)) / (2 * math.pi)
    assert lemma4_admissible(b, lam + 1e-9)
    assert not lemma4_admissible(b, lam - 1e-3)

    assert lemma3a_check(2, 2, 2 * LOG3 / math.pi + 0.01)
    assert not lemma3a_check(6, 6, 0.0)
    assert lemma3a_check(1, 1, 0.0)  # [1/2] = 0, log+ = 0
    with pytest.raises(ValidationError):
        lemma3a_check(0, 2, 1.0)


def brute_force_quotient(max_len):
    """All distinct B3-mod-center elements of words of length <= max_len."""
    seen = {}
    gens = [("s1", 1), ("s1", -1), ("s2", 1), ("s2", -1)]
    frontier = [()]
    key = lambda b: matrix_image(b).projective()
    seen[key(BraidWord((), MOD_CENTER))] = BraidWord((), MOD_CENTER)
    for _ in range(max_len):
        nxt = []
        for letters in frontier:
            for g in gens:
                cand = letters + (g,)
                b = B.braid(list(cand), MOD_CENTER)
                k = key(b)
                nxt.append(cand)
                if k not in seen:
                    seen[k] = b
        frontier = nxt
    return seen


def test_census_y0_matches_brute_force():
    elems = census(0.0)
    assert len(elems) == 10
    keys = {matrix_image(b).projective() for b in elems}
    assert len(keys) == 10
    brute = brute_force_quotient(4)
    brute_zero = {k for k, b in brute.items() if l_minus(theta(b)) <= 1e-12}
    assert brute_zero == keys


def test_census_log3_matches_brute_force():
    elems = census(LOG3)
    assert len(elems) == 42
    keys = {matrix_image(b).projective() for b in elems}
    brute = brute_force_quotient(6)
    brute_small = {k for k, b in brute.items() if l_minus(theta(b)) <= LOG3 + 1e-12}
    assert brute_small <= keys
    for b in elems:
        assert l_minus(theta(b)) <= LOG3 + 1e-12


def test_census_complete_against_normal_form_enumeration():
    # independent completeness check: enumerate quotient elements directly
    # by their normal forms (bounded pieces), filter by the theta budget,
    # and compare the key sets with the census in both directions
    from fbt.words import enumerate_words

    for budget in (0.0, LOG3):
        keys = set()
        for ell in (0, 1):
            delta = B.BraidNormalForm(ell, ambient=MOD_CENTER)
            keys.add(matrix_image(expand(delta)).projective())
        for j in (1, 2):
            for k in [x for x in range(-4, 5) if x != 0]:
                for b1 in enumerate_words(LOG6):
                    if b1.terms and b1.terms[0][0] == j:
                        continue
                    for ell in (0, 1):
                        nf = B.BraidNormalForm(ell, j, k, b1, MOD_CENTER)
                        b = expand(nf)
                        if l_minus(theta(b)) <= budget + 1e-12:
                            keys.add(matrix_image(b).projective())
        census_keys = {matrix_image(b).projective() for b in census(budget)}
        assert keys == census_keys


def test_census_bound_and_uniqueness():
    for budget, ceiling in ((0.0, 15.0), (LOG3, 15 * 27.0)):
        elems = census(budget)
        assert len(elems) <= ceiling
        assert math.log(len(elems)) <= braid_count_bound(budget).ln + 1e-12
        forms = [normal_form(b) for b in elems]
        keys = [matrix_image(b).projective() for b in elems]
        assert len(set(keys)) == len(elems)
        sigs = {(nf.kind, nf.j, nf.k, nf.b1.terms, nf.l) for nf in forms}
        assert len(sigs) == len(elems)
    assert braid_count_bound(0.0).to_float() == pytest.approx(15.0, rel=1e-12)


def test_census_deterministic_order():
    a = [format_braid(b) for b in census(LOG3)]
    b_ = [format_braid(b) for b in census(LOG3)]
    assert a == b_


def test_census_sort_key_orders_b1_by_its_letters():
    from fbt.words import enumerate_words

    forms = [nf for w in enumerate_words(4.2) for nf in B._preimage_forms(w)]
    assert len(forms) == 3626
    by_letters = sorted(forms, key=lambda nf: nf.sort_key()[:4] + (nf.b1.letters(),))
    assert sorted(forms, key=B.BraidNormalForm.sort_key) == by_letters


def test_theta_preimages_are_preimages():
    for w in (IDENTITY, word((1, 1)), word((2, -3)), word((1, 2), (2, -1))):
        pres = theta_preimages(w)
        assert len(pres) == (10 if w.is_identity else 8)
        for b in pres:
            assert theta(b) == w


def test_preimage_forms_are_normal_forms():
    from fbt.words import enumerate_words

    for w in enumerate_words(3.5):
        forms = B._preimage_forms(w)
        assert len(forms) == (10 if w.is_identity else 8)
        assert [expand(nf) for nf in forms] == theta_preimages(w)
        for nf in forms:
            b = expand(nf)
            assert normal_form(b) == nf
            assert theta(b) == w


def test_census_matches_normal_form_dedup_route():
    # the search the census replaced: the normal form of every preimage,
    # deduplicated by the projective matrix image, then sorted
    from fbt.words import enumerate_words

    for budget in (0.0, LOG3, 2.5, 3.5):
        seen = {}
        for w in enumerate_words(budget):
            for b in theta_preimages(w):
                seen.setdefault(matrix_image(b).projective(), normal_form(b))
        forms = sorted(seen.values(), key=B.BraidNormalForm.sort_key)
        assert census(budget) == [expand(nf) for nf in forms]


def test_grammar():
    rng = random.Random(4)
    for _ in range(300):
        b = random_braid(rng)
        again = parse_braid(format_braid(b), b.ambient)
        assert again.letters == b.letters and again.ambient == b.ambient
    assert parse_braid("@mod-center s1 d^-2").ambient == MOD_CENTER
    assert parse_braid("").letters == ()
    with pytest.raises(ValidationError):
        parse_braid("s3")
    with pytest.raises(ValidationError):
        parse_braid("s1^0")


# k, and the exponent both grammars read from it (None: both refuse it)
@pytest.mark.parametrize("k, want", [
    ("3", 3), ("-3", -3), ("+3", None), ("1_0", None), ("-0", None), ("\u0663", None),
    ("9" * 4000, int("9" * 4000)), ("9" * 4001, None), ("", None)])
def test_words_and_braids_read_the_same_exponents(k, want):
    def read(parse, text, term):
        try:
            return term(parse(text))[1]
        except ValidationError:
            return None

    assert read(parse_word, "a1^" + k, lambda w: w.terms[0]) == want
    assert read(parse_braid, "s1^" + k, lambda b: b.letters[0]) == want


def test_braid_json():
    data = B.braid_json(parse_braid("s1^-4 d s1^4"))
    assert data["theta"] == "a1^-2 a2^2"
    assert data["normal_form"] == {"kind": "general", "j": 1, "k": -4,
                                   "b1": "a2^2", "l": 1}
    assert data["exponent_sum"] == 3


def test_inverse_and_concat():
    rng = random.Random(12)
    e = B.braid("")
    for _ in range(200):
        b = random_braid(rng, 12)
        assert equal(braid_concat(b, braid_invert(b)), e)
