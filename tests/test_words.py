import math
import random
import re
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from fbt import words as W
from fbt.braid import census
from fbt.errors import ValidationError
from fbt.words import (
    ENUM_BUDGET_CAP,
    FreeWord,
    IDENTITY,
    MonodromyTuple,
    concat,
    conjugate,
    cyclic_canonical,
    enumerate_words,
    format_word,
    invert,
    is_primitive,
    l_minus,
    l_plus,
    parse_word,
    power,
    reduce,
    syllables,
    tuple_canonical,
    word,
    word_count_bound,
)

LOG3 = math.log(3)
LOG6 = math.log(6)
LOG9 = math.log(9)


def random_word(rng, max_len=40):
    letters = []
    for _ in range(rng.randrange(max_len + 1)):
        letters.append((rng.choice((1, 2)), rng.choice((1, -1))))
    return reduce(letters)


def test_reduce_examples():
    assert reduce([(1, 1), (1, -1)]) == IDENTITY
    assert reduce([(1, 1), (2, 1), (2, -1), (1, 1)]) == word((1, 2))
    already = word((1, 2), (2, -3))
    assert reduce(already.terms) == already


def test_reduce_idempotent_and_inverse():
    rng = random.Random(7)
    for _ in range(10000):
        w = random_word(rng)
        assert reduce(w.terms) == w
        assert concat(w, invert(w)) == IDENTITY


def test_concat_examples():
    assert concat(word((1, 1)), word((1, -1))) == IDENTITY
    assert concat(word((1, 2)), word((2, 3))) == word((1, 2), (2, 3))
    assert invert(word((1, 2), (2, 1))) == word((2, -1), (1, -2))


def test_syllable_examples():
    assert [(s.kind, s.degree) for s in syllables(word((1, 3), (2, -2)))] == \
        [("big-power", 3), ("big-power", 2)]
    assert [(s.kind, s.degree) for s in syllables(word((1, 1), (2, 1), (1, 1)))] == \
        [("plus-run", 3)]
    assert syllables(IDENTITY) == []


def test_syllable_spans_partition_letters():
    rng = random.Random(13)
    for _ in range(500):
        w = random_word(rng, 25)
        spans = [s.span for s in syllables(w)]
        pos = 0
        for lo, hi in spans:
            assert lo == pos and hi > lo
            pos = hi
        assert pos == w.letter_length()


def _ref_syllables(w):
    """The syllable state machine syllables replaced, kept as its reference:
    one pass over the terms that flushes the open run at each big power and
    at each change of sign."""
    out = []
    pos = 0
    run_start = None
    run_sign = 0
    run_len = 0

    def flush_run():
        nonlocal run_start, run_len
        if run_len:
            kind = "plus-run" if run_sign > 0 else "minus-run"
            out.append(W.Syllable(kind, run_len, (run_start, run_start + run_len)))
        run_start, run_len = None, 0

    for gen, exp in w.terms:
        n = abs(exp)
        sign = 1 if exp > 0 else -1
        if n >= 2:
            flush_run()
            out.append(W.Syllable("big-power", n, (pos, pos + n)))
        else:
            if run_len and sign != run_sign:
                flush_run()
            if not run_len:
                run_start, run_sign = pos, sign
            run_len += 1
        pos += n
    flush_run()
    return out


# exponents of a word on alternating generators, as blocks: runs of up to 40
# equal signs, and big powers up to 10^30
_RUN = st.builds(lambda sign, n: [sign] * n, st.sampled_from([1, -1]), st.integers(1, 40))
_BIG = st.builds(lambda n, sign: [sign * n],
                 st.one_of(st.integers(2, 9), st.integers(2, 10 ** 30)), st.sampled_from([1, -1]))
_EXPONENTS = st.lists(st.one_of(_RUN, _BIG), max_size=8).map(
    lambda blocks: [e for block in blocks for e in block])


@settings(derandomize=True, max_examples=500, deadline=None)
@given(first=st.sampled_from([1, 2]), exps=_EXPONENTS)
@example(first=1, exps=[])
def test_syllables_match_state_machine(first, exps):
    w = FreeWord(tuple((first if k % 2 == 0 else 3 - first, e) for k, e in enumerate(exps)))
    assert syllables(w) == _ref_syllables(w)


def test_l_values_examples():
    for k, kp in ((2, 3), (5, 2), (4, 4)):
        w = word((1, k), (2, kp))
        assert l_minus(w) == pytest.approx(math.log(3 * k) + math.log(3 * kp), abs=1e-12)
    assert l_minus(IDENTITY) == 0.0
    assert l_plus(IDENTITY) == 0.0
    assert l_minus(word((1, 1))) == pytest.approx(LOG3, abs=1e-15)


def test_l_invariance_under_inverse():
    rng = random.Random(99)
    for _ in range(2000):
        w = random_word(rng)
        assert sorted(W.syllable_degrees(w)) == sorted(W.syllable_degrees(invert(w)))
        assert l_minus(invert(w)) == pytest.approx(l_minus(w), abs=1e-12)
        assert l_plus(invert(w)) == pytest.approx(l_plus(w), abs=1e-12)


def test_l_plus_minus_relation():
    rng = random.Random(5)
    for _ in range(2000):
        w = random_word(rng)
        n = len(syllables(w))
        assert l_minus(w) <= l_plus(w) + 1e-12
        assert l_plus(w) - l_minus(w) == pytest.approx(n * math.log(4 / 3), abs=1e-9)
        if not w.is_identity:
            assert l_minus(w) >= n * LOG3 - 1e-12


def test_subadditivity_up_to_junction_split():
    # Exact subadditivity fails for this syllable convention: a junction
    # merge can split a run around a new big power (a1 * a1 a2 a1 gives
    # log 216 > log 81).  The split changes at most the two boundary
    # syllables, which bounds the excess by log 6.
    excess_cap = LOG6 + 1e-12
    words9 = enumerate_words(LOG9)
    worst = 0.0
    for w1 in words9:
        for w2 in words9:
            excess = l_minus(concat(w1, w2)) - l_minus(w1) - l_minus(w2)
            worst = max(worst, excess)
            assert excess <= excess_cap
    assert worst > 0.2  # the convention genuinely exceeds plain subadditivity
    rng = random.Random(31)
    for _ in range(10000):
        w1, w2 = random_word(rng, 20), random_word(rng, 20)
        assert l_minus(concat(w1, w2)) <= l_minus(w1) + l_minus(w2) + excess_cap


def test_enumeration_counts_match_pattern_oracle():
    for budget, expected in ((0.0, 1), (LOG3, 5), (LOG6, 13), (LOG9, 25)):
        ws = enumerate_words(budget)
        assert len(ws) == expected
        assert W.count_words_by_patterns(budget) == expected
        assert len(set(ws)) == len(ws)
        for w in ws:
            assert l_minus(w) <= budget + 1e-9


def _ref_enumerate_words(budget):
    """The enumeration the carried-state search replaced: every candidate
    is a FreeWord whose syllable degrees are recomputed from scratch."""
    found = [IDENTITY]
    limit = W._budget_limit(budget)
    stack = [IDENTITY]
    while stack:
        terms = stack.pop().terms
        last_gen = terms[-1][0] if terms else 0
        for gen in (1, 2):
            if gen == last_gen:
                continue
            for sign in (1, -1):
                for n in range(1, limit // 3 + 2):
                    w = FreeWord(terms + ((gen, sign * n),))
                    if math.prod(3 * d for d in W.syllable_degrees(w)) > limit:
                        break
                    found.append(w)
                    stack.append(w)
    found.sort(key=lambda w: (len(syllables(w)), w.letters()))
    return found


def _ref_count_words_by_patterns(budget):
    """The pattern walk that the memoized counter replaced: it builds every
    admissible syllable sequence (kind, sign, degree, boundary generators)
    and counts the reduced words realizing each, multiplying out the
    degrees at every node."""
    limit = W._budget_limit(budget)
    max_deg = limit // 3 + 1

    # syllable choices: ("big", sign, d>=2) with one generator choice fixed by
    # the boundary, ("run", sign, d) whose letters alternate generators, so a
    # run is pinned by its first generator.
    def count_from(prev_kind, prev_sign, prev_end_gen, degrees):
        # returns number of admissible continuations (including stopping here)
        n = 1
        for d in range(1, max_deg + 1):
            if math.prod(3 * e for e in degrees + [d]) > limit:
                break
            for sign in (1, -1):
                # big power of degree d (needs d >= 2): generator must differ
                # from the previous boundary letter's generator
                if d >= 2:
                    for gen in (1, 2):
                        if prev_end_gen and gen == prev_end_gen:
                            continue
                        n += count_from("big", sign, gen, degrees + [d])
                # run of length d and sign `sign`: may not follow a run of the
                # same sign (maximality); first generator differs from the
                # previous boundary generator
                if prev_kind == "run" and sign == prev_sign:
                    continue
                for first_gen in (1, 2):
                    if prev_end_gen and first_gen == prev_end_gen:
                        continue
                    end_gen = first_gen if d % 2 == 1 else 3 - first_gen
                    n += count_from("run", sign, end_gen, degrees + [d])
        return n

    return count_from(None, 0, 0, [])


def _neighbours(y):
    """y and the floats around it where the 1e-12 padding of the budget
    limit decides: one ulp, a relative 1e-12 and an absolute 1e-12 either
    side."""
    return [y, math.nextafter(y, 0.0), math.nextafter(y, math.inf),
            y * (1 - 1e-12), y * (1 + 1e-12), y - 1e-12, y + 1e-12]


# log n for every n < 200, the floats around the logarithms of products of
# factors 3 d, and budgets spread over [0, 5.5]
_COUNTER_BUDGETS = sorted(
    {math.log(n) for n in range(1, 200)}
    | {y for n in (3, 6, 9, 12, 18, 27, 36, 54, 81, 108, 162) for y in _neighbours(math.log(n))
       if y >= 0}
    | {k / 8 for k in range(45)})


def test_counter_matches_the_pattern_walk():
    for budget in _COUNTER_BUDGETS:
        assert W.count_words_by_patterns(budget) == _ref_count_words_by_patterns(budget), budget


@pytest.mark.parametrize("budget, count", [(7.0, 41_089), (9.0, 1_011_773)])
def test_counter_pins_and_the_word_bound(budget, count):
    assert W.count_words_by_patterns(budget) == count
    assert math.log(count) <= word_count_bound(budget).ln


@pytest.mark.parametrize("budget", [LOG3, 2.0, 4.2, 5.0, ENUM_BUDGET_CAP])
def test_enumeration_matches_reference(budget):
    got = enumerate_words(budget)
    assert got == _ref_enumerate_words(budget)
    assert len(got) == W.count_words_by_patterns(budget)
    assert all(type(w) is FreeWord for w in got)


def test_freeword_validation_message_order():
    # a bad generator or a zero exponent is named before a shared generator
    with pytest.raises(ValidationError, match="got 3"):
        FreeWord(((1, 1), (1, 2), (3, 1)))
    with pytest.raises(ValidationError, match="zero exponent"):
        FreeWord(((2, 1), (2, 2), (1, 0)))
    with pytest.raises(ValidationError, match="not reduced"):
        FreeWord(((2, 1), (1, 2), (1, -1)))


def test_enumeration_budget_y_log3_contents():
    got = {format_word(w) for w in enumerate_words(LOG3)}
    assert got == {"", "a1", "a1^-1", "a2", "a2^-1"}


def test_enumeration_matches_bound():
    for budget in (0.0, LOG3, LOG6, LOG9, 2 * LOG3 + math.log(2)):
        count = len(enumerate_words(budget))
        bound = word_count_bound(budget)
        assert math.log(count) <= bound.ln + 1e-12


def test_enumeration_deterministic_and_capped():
    a = [format_word(w) for w in enumerate_words(LOG9)]
    b = [format_word(w) for w in enumerate_words(LOG9)]
    assert a == b
    with pytest.raises(ValidationError, match="budget exceeded"):
        enumerate_words(ENUM_BUDGET_CAP + 1e-9)


@pytest.mark.parametrize("fn", [enumerate_words, census], ids=["enumerate", "census"])
def test_budget_above_the_cap_is_refused(fn):
    budget = ENUM_BUDGET_CAP + 1e-9
    message = (f"enumeration budget exceeded: {budget} is above "
               f"ENUM_BUDGET_CAP = {ENUM_BUDGET_CAP}")
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        fn(budget)


def test_budget_functions_refuse_non_finite():
    from fbt.braid import braid_count_bound

    for fn in (enumerate_words, W.count_words_by_patterns, word_count_bound,
               braid_count_bound):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValidationError, match="finite"):
                fn(bad)


#: e^Y is finite here, and e^Y (1 + 1e-12) is not
_OVERFLOW_WINDOW = math.log(sys.float_info.max)


@pytest.mark.parametrize("budget", [_OVERFLOW_WINDOW, 710.0, 1e300])
@pytest.mark.parametrize("fn", [W.count_words_by_patterns], ids=["count"])
def test_budget_functions_refuse_overflowing_budgets(fn, budget):
    assert math.isfinite(math.exp(_OVERFLOW_WINDOW))
    assert math.isinf(math.exp(_OVERFLOW_WINDOW) * (1 + 1e-12))
    message = f"enumeration budget {budget} overflows e^budget"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        fn(budget)


def test_power_matches_repeated_concat():
    rng = random.Random(21)
    for _ in range(300):
        w = random_word(rng, 12)
        if rng.random() < 0.5:
            # conjugate so that the ends cancel between copies
            u = random_word(rng, 4)
            w = conjugate(u, w)
        for k in range(-3, 6):
            want = IDENTITY
            for _ in range(abs(k)):
                want = concat(want, w if k > 0 else invert(w))
            assert power(w, k) == want


def test_word_count_bound_values():
    assert word_count_bound(0.0).to_float() == pytest.approx(1.5, rel=1e-12)
    assert word_count_bound(LOG3).to_float() == pytest.approx(14.5, rel=1e-12)
    assert word_count_bound(LOG6).to_float() == pytest.approx(109.0, rel=1e-12)


def test_cyclic_canonical_examples():
    assert cyclic_canonical(word((2, 1), (1, 1), (2, -1))) == word((1, 1))
    assert cyclic_canonical(word((1, 1), (2, 1))) == cyclic_canonical(word((2, 1), (1, 1)))
    w = word((1, 2), (2, 1), (1, -1))
    assert cyclic_canonical(w) == cyclic_canonical(word((1, 1), (2, 1)))


def test_cyclic_canonical_brute_force_conjugacy():
    # every conjugate by a word of length <= 3 lands on the same canonical form
    base = word((1, 1), (2, 1))
    rng = random.Random(3)
    conjugators = [random_word(rng, 3) for _ in range(50)]
    for u in conjugators:
        assert cyclic_canonical(conjugate(u, base)) == cyclic_canonical(base)


def test_cyclic_canonical_conjugation_invariant():
    rng = random.Random(17)
    for _ in range(2000):
        u, w = random_word(rng, 12), random_word(rng, 16)
        assert cyclic_canonical(conjugate(u, w)) == cyclic_canonical(w)


def _cyclically_reduce_oracle(w):
    # the letter-slicing reduction: strip one cancelling letter pair per step
    letters = list(w.letters())
    pre = []
    while len(letters) >= 2 and letters[0][0] == letters[-1][0] \
            and letters[0][1] == -letters[-1][1]:
        pre.append(letters[0])
        letters = letters[1:-1]
    return reduce(letters), reduce(pre)


def _least_rotation_oracle(seq):
    # brute force: the first of all n rotations that is lexicographically least
    return min(range(len(seq)), key=lambda i: seq[i:] + seq[:i]) if seq else 0


def _heavy_random_word(rng):
    """Random words with proper powers, heavy conjugates and big exponents."""
    w = random_word(rng, 14)
    kind = rng.randrange(4)
    if kind == 1:
        w = power(w, rng.randrange(2, 6))
    elif kind == 2:
        u = reduce([(rng.choice((1, 2)), rng.randrange(-9, 10))
                    for _ in range(rng.randrange(1, 6))])
        w = conjugate(u, power(w, rng.randrange(1, 4)))
    elif kind == 3:
        w = reduce([(rng.choice((1, 2)), rng.randrange(-6, 7))
                    for _ in range(rng.randrange(1, 8))])
    return w


def test_cyclic_reduction_and_rotation_match_oracles():
    rng = random.Random(2024)
    for _ in range(2500):
        w = _heavy_random_word(rng)
        v, c = W.cyclically_reduce(w)
        assert (v, c) == _cyclically_reduce_oracle(w)
        assert conjugate(c, v) == w
        letters = v.letters()
        assert W._least_rotation(letters) == _least_rotation_oracle(letters)
        rot = _least_rotation_oracle(letters)
        assert cyclic_canonical(w) == reduce(letters[rot:] + letters[:rot])
        if not w.is_identity:
            r, s = W.primitive_root(w)
            assert power(r, s) == w
            assert is_primitive(w) == (s == 1)
    # periodic sequences: the first of the equal least rotations
    for seq in ("abab", "aaaa", "baba", "abcabcab", "ba", "a", "cabcab"):
        assert W._least_rotation(seq) == _least_rotation_oracle(seq)


def test_cyclic_canonical_long_words():
    # linear time: the quadratic rotation scan takes minutes on these
    n = 100000
    big = word((1, n))
    assert cyclic_canonical(big) == big
    assert not is_primitive(big)
    assert W.primitive_root(big) == (word((1, 1)), n)
    conj = word((2, n), (1, 1), (2, -n))
    assert W.cyclically_reduce(conj) == (word((1, 1)), word((2, n)))
    assert cyclic_canonical(conj) == word((1, 1))
    assert is_primitive(conj)


def test_is_primitive():
    assert not is_primitive(word((1, 2)))
    assert is_primitive(word((1, 1), (2, 1)))
    assert not is_primitive(word((1, 1), (2, 1), (1, 1), (2, 1)))
    with pytest.raises(ValidationError, match="primitivity"):
        is_primitive(IDENTITY)


def test_primitive_root():
    r, s = W.primitive_root(word((1, 1), (2, 1), (1, 1), (2, 1)))
    assert (r, s) == (word((1, 1), (2, 1)), 2)
    w = conjugate(word((2, 3)), power(word((1, 1), (2, 2)), 3))
    r, s = W.primitive_root(w)
    assert s == 3 and power(r, 3) == w


def test_tuple_canonical_examples():
    t1 = MonodromyTuple((word((1, 1)), word((2, 1))), genus=1)
    t2 = MonodromyTuple((conjugate(word((2, 1)), word((1, 1))), word((2, 1))), genus=1)
    assert tuple_canonical(t1).entries == tuple_canonical(t2).entries

    ids = MonodromyTuple((IDENTITY, IDENTITY, IDENTITY), genus=1, holes_minus_one=1)
    assert tuple_canonical(ids) is ids

    a = MonodromyTuple((word((1, 2)),), genus=0, holes_minus_one=1)
    b = MonodromyTuple((word((2, 2)),), genus=0, holes_minus_one=1)
    assert tuple_canonical(a).entries != tuple_canonical(b).entries


def test_tuple_canonical_invariant_and_idempotent():
    rng = random.Random(41)
    for _ in range(300):
        entries = tuple(random_word(rng, 8) for _ in range(2))
        t = MonodromyTuple(entries, genus=1)
        u = random_word(rng, 6)
        conj = MonodromyTuple(tuple(conjugate(u, w) for w in entries), genus=1)
        canon = tuple_canonical(t)
        assert tuple_canonical(conj).entries == canon.entries
        assert tuple_canonical(canon).entries == canon.entries


def _scan_tuple_canonical(t):
    """The conjugator scan over a window of powers of the root, widened
    until the key-minimal k is interior (cubic in the letter length)."""
    entries = t.entries
    if all(w.is_identity for w in entries):
        return t
    w0 = next(w for w in entries if not w.is_identity)
    v, c = W.cyclically_reduce(w0)
    vlet = v.letters()
    rot = W._least_rotation(vlet)
    u0 = invert(concat(c, reduce(vlet[:rot])))
    root, _ = W.primitive_root(reduce(vlet[rot:] + vlet[:rot]))

    def conj_all(u):
        return tuple(conjugate(u, w) for w in entries)

    base = conj_all(u0)
    if all(conjugate(root, cw) == cw for cw in base):
        return MonodromyTuple(base, t.genus, t.holes_minus_one)
    window = max(2, sum(w.letter_length() for w in base)) + 1
    best, best_k = None, 0
    k_lo, k_hi = -window, window
    while True:
        for k in range(k_lo, k_hi + 1):
            cand = conj_all(concat(power(root, k), u0))
            key = W._tuple_key(cand)
            if best is None or key < best[0]:
                best, best_k = (key, cand), k
        if k_lo < best_k < k_hi:
            return MonodromyTuple(best[1], t.genus, t.holes_minus_one)
        k_lo, k_hi = k_lo - window, k_hi + window


def test_tuple_canonical_matches_scan():
    rng = random.Random(59)
    for _ in range(420):
        genus = rng.randrange(3)
        holes = rng.randrange(2) if genus else 1 + rng.randrange(2)
        entries = [random_word(rng, 6) for _ in range(2 * genus + holes)]
        if rng.random() < 0.5:
            # entries sharing a root, and a conjugator far along its axis
            r = random_word(rng, 3)
            entries[0] = power(r, rng.randrange(1, 4))
            u = concat(power(r, rng.randrange(-6, 7)), random_word(rng, 3))
            entries = [conjugate(u, w) for w in entries]
        t = MonodromyTuple(tuple(entries), genus, holes)
        assert tuple_canonical(t).entries == _scan_tuple_canonical(t).entries


def test_tuple_canonical_long_tuple():
    # a genus-2 tuple of about 160 letters: the window scan takes seconds here
    rng = random.Random(2)
    entries = tuple(random_word(rng, 30) for _ in range(4))
    u = concat(power(word((1, 1), (2, -1)), 8), random_word(rng, 10))
    t = MonodromyTuple(tuple(conjugate(u, w) for w in entries), genus=2)
    assert 140 <= sum(w.letter_length() for w in t.entries) <= 180
    canon = tuple_canonical(t)
    assert tuple_canonical(MonodromyTuple(entries, genus=2)).entries == canon.entries
    assert tuple_canonical(canon).entries == canon.entries


def test_tuple_canonical_huge_exponent():
    # the key-minimal tuple is chosen from the terms: a1^(10^8) is never
    # written out letter by letter
    t = MonodromyTuple((word((1, 10 ** 8)), word((2, 1))), genus=1)
    start = time.perf_counter()
    canon = tuple_canonical(t)
    assert time.perf_counter() - start < 1.0
    assert canon.entries == t.entries


_TERMS = st.lists(st.tuples(st.sampled_from([1, 2]), st.integers(-4, 4).filter(bool)),
                  max_size=5)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(head=_TERMS, tail1=_TERMS, tail2=_TERMS)
def test_order_key_orders_words_as_their_letters(head, tail1, tail2):
    # the two words share the head, so that they often differ only in the
    # length of one run, or one is a prefix of the other
    u, v = reduce(head + tail1), reduce(head + tail2)
    ku, kv = W._order_key(u), W._order_key(v)
    assert (ku < kv) == (u.letters() < v.letters())
    assert (ku == kv) == (u == v)


def test_order_key_sorts_the_enumerated_words_as_their_letters():
    words = enumerate_words(4.0)
    assert sorted(words, key=W._order_key) == sorted(words, key=FreeWord.letters)


def test_tuple_validation():
    with pytest.raises(ValidationError):
        MonodromyTuple((IDENTITY,), genus=1)


def test_grammar_round_trip():
    rng = random.Random(23)
    for _ in range(500):
        w = random_word(rng)
        assert parse_word(format_word(w)) == w
    assert parse_word("") == IDENTITY
    assert parse_word("a1") == word((1, 1))
    assert parse_word("a1^2 a2^-3") == word((1, 2), (2, -3))
    with pytest.raises(ValidationError):
        parse_word("a3")
    with pytest.raises(ValidationError):
        parse_word("a1^0")
    with pytest.raises(ValidationError):
        parse_word("a1 a1")


def test_word_json_schema():
    data = W.word_json(parse_word("a1^2 a2^-3"))
    assert set(data) == {"word", "l_minus", "l_plus", "syllables"}
    assert data["word"] == "a1^2 a2^-3"
    assert data["l_minus"] == pytest.approx(LOG6 + LOG9, abs=1e-12)
    assert data["syllables"] == [
        {"kind": "big-power", "degree": 2},
        {"kind": "big-power", "degree": 3},
    ]


def test_freeword_validation():
    with pytest.raises(ValidationError):
        FreeWord(((1, 0),))
    with pytest.raises(ValidationError):
        FreeWord(((1, 1), (1, 2)))
    with pytest.raises(ValidationError):
        FreeWord(((3, 1),))
