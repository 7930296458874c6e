"""Reduced words in the free group on two generators a1, a2.

The group is the fundamental group of the twice punctured plane C \\ {-1,1},
with a1 a counterclockwise loop around -1 and a2 one around 1.  A word is a
sequence of terms (generator, exponent) with adjacent terms on distinct
generators and no zero exponents.

The syllable decomposition splits the letter sequence of a reduced word into
- big powers: a single term a_j^k with |k| >= 2 (degree |k|),
- plus runs: maximal blocks of consecutive letters with exponent +1,
- minus runs: maximal blocks of consecutive letters with exponent -1,
with run degree the block length.  The invariants are

    L-(w) = sum log(3 d_k),    L+(w) = sum log(4 d_k)

over the syllable degrees d_k, and L-(Id) = L+(Id) = 0.  Since every
syllable contributes at least log 3, only finitely many reduced words
satisfy L-(w) <= Y, and the number is at most e^{3Y}/2 + 1.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from itertools import groupby
from typing import Iterable, Iterator, Sequence

from .errors import ValidationError, check_nonnegative
from .bounds import LogNumber

#: the largest half-integer budget Y at which `fbt braid census --budgets Y`
#: runs in under 1 s at under 100 MB peak RSS on a 2-vCPU VM (3,785 words)
ENUM_BUDGET_CAP = 5.5

Term = tuple[int, int]    # (generator index 1|2, nonzero exponent)
Letter = tuple[int, int]  # (generator index, +1|-1)


def _check_terms(terms: Sequence[Term]) -> None:
    """One pass; a bad generator or exponent anywhere is reported before
    a shared generator."""
    prev, shared = 0, False
    for gen, exp in terms:
        if gen not in (1, 2):
            raise ValidationError(f"generator index must be 1 or 2, got {gen}")
        if exp == 0:
            raise ValidationError("zero exponent in word term")
        if gen == prev:
            shared = True
        prev = gen
    if shared:
        raise ValidationError("adjacent terms share a generator; word is not reduced")


@dataclass(frozen=True)
class FreeWord:
    """A reduced word; the empty term sequence is the identity."""

    terms: tuple[Term, ...] = ()

    def __post_init__(self):
        _check_terms(self.terms)

    @property
    def is_identity(self) -> bool:
        return not self.terms

    def letters(self) -> tuple[Letter, ...]:
        out: list[Letter] = []
        for gen, exp in self.terms:
            sign = 1 if exp > 0 else -1
            out.extend((gen, sign) for _ in range(abs(exp)))
        return tuple(out)

    def letter_length(self) -> int:
        return sum(abs(exp) for _, exp in self.terms)

    def exponent_sums(self) -> tuple[int, int]:
        """Abelianization (total exponent of a1, of a2)."""
        s1 = sum(e for g, e in self.terms if g == 1)
        s2 = sum(e for g, e in self.terms if g == 2)
        return s1, s2

    def __str__(self) -> str:
        return format_word(self)


IDENTITY = FreeWord()


@dataclass(frozen=True)
class Syllable:
    kind: str       # "big-power" | "plus-run" | "minus-run"
    degree: int
    span: tuple[int, int]  # half-open letter index range in the parent word

    def __post_init__(self):
        if self.kind not in ("big-power", "plus-run", "minus-run"):
            raise ValidationError(f"unknown syllable kind {self.kind!r}")
        if self.kind == "big-power" and self.degree < 2:
            raise ValidationError("big-power degree must be >= 2")
        if self.degree < 1:
            raise ValidationError("syllable degree must be positive")


def _merge_syllables(items: Iterable[tuple]) -> tuple[tuple, ...]:
    """Free reduction of (generator, exponent) pairs over any generator
    labels: merge same-generator neighbours, drop zero exponents."""
    stack: list[list] = []
    for gen, exp in items:
        if exp == 0:
            continue
        if stack and stack[-1][0] == gen:
            stack[-1][1] += exp
            if stack[-1][1] == 0:
                stack.pop()
        else:
            stack.append([gen, exp])
    return tuple((g, e) for g, e in stack)


def reduce(items: Iterable[Term]) -> FreeWord:
    """Free reduction: merge same-generator neighbours, drop zero exponents.

    Accepts any term sequence (letters included); returns the unique reduced
    form.  Concatenating term lists and reducing is the group operation.
    """
    return FreeWord(_merge_syllables(items))


def word(*terms: Term) -> FreeWord:
    """Convenience constructor that reduces its argument list."""
    return reduce(terms)


def concat(w1: FreeWord, w2: FreeWord) -> FreeWord:
    return reduce(w1.terms + w2.terms)


def invert(w: FreeWord) -> FreeWord:
    return FreeWord(tuple((g, -e) for g, e in reversed(w.terms)))


def conjugate(u: FreeWord, w: FreeWord) -> FreeWord:
    """u w u^-1."""
    return reduce(u.terms + w.terms + invert(u).terms)


def power(w: FreeWord, k: int) -> FreeWord:
    """w^k as one free reduction of k copies of w (of w^-1 when k < 0)."""
    if k < 0:
        w, k = invert(w), -k
    return reduce(w.terms * k)


def syllables(w: FreeWord) -> list[Syllable]:
    """Left-to-right syllable decomposition with big powers split out first:
    each term of exponent +-n, n >= 2, is a big power, and each maximal group
    of exponent +1 (-1) terms is a plus-run (minus-run)."""
    out: list[Syllable] = []
    pos = 0
    for sign, group in groupby(w.terms, key=lambda t: t[1] if -1 <= t[1] <= 1 else 0):
        if sign:  # a run's terms alternate generators, so they are its letters
            n = len(list(group))
            out.append(Syllable("plus-run" if sign > 0 else "minus-run", n, (pos, pos + n)))
            pos += n
        else:
            for _, e in group:
                n = abs(e)
                out.append(Syllable("big-power", n, (pos, pos + n)))
                pos += n
    return out


def syllable_degrees(w: FreeWord) -> list[int]:
    return [s.degree for s in syllables(w)]


def l_minus(w: FreeWord) -> float:
    return sum(math.log(3 * d) for d in syllable_degrees(w))


def l_plus(w: FreeWord) -> float:
    return sum(math.log(4 * d) for d in syllable_degrees(w))


def cyclically_reduce(w: FreeWord) -> tuple[FreeWord, FreeWord]:
    """Return (v, c) with w = c v c^-1 and v cyclically reduced, peeling
    the cancelling end terms of w in O(terms)."""
    terms = list(w.terms)
    lo, hi, pre = 0, len(terms) - 1, []
    while (lo < hi and terms[lo][0] == terms[hi][0]
           and terms[lo][1] * terms[hi][1] < 0):
        (gen, e1), (_, e2) = terms[lo], terms[hi]
        k = min(e1, -e2) if e1 > 0 else max(e1, -e2)  # the cancelled part
        pre.append((gen, k))
        terms[lo], terms[hi] = (gen, e1 - k), (gen, e2 + k)
        lo, hi = lo + (e1 == k), hi - (e2 == -k)
    return reduce(terms[lo:hi + 1]), reduce(pre)


def _least_rotation(seq: Sequence) -> int:
    """First index i minimizing seq[i:] + seq[:i], in O(len(seq)): the
    two-pointer minimum-rotation scan, where a mismatch after k equal items
    rules out k + 1 starting points of the losing candidate."""
    n = len(seq)
    i, j, k = 0, 1, 0
    while i < n and j < n and k < n:
        a, b = seq[(i + k) % n], seq[(j + k) % n]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        k = 0
    return min(i, j)


def _split(w: FreeWord, k: int) -> tuple[tuple[Term, ...], tuple[Term, ...]]:
    """The terms of the first k letters of w and those of the other letters."""
    pos = 0
    for i, (gen, exp) in enumerate(w.terms):
        if pos + abs(exp) > k:
            cut = (k - pos) * (1 if exp > 0 else -1)
            return (w.terms[:i] + (((gen, cut),) if cut else ()),
                    ((gen, exp - cut),) + w.terms[i + 1:])
        pos += abs(exp)
    return w.terms, ()


def _cyclic_terms(v: FreeWord) -> tuple[list[Term], list[int]]:
    """The terms of the cyclically reduced v read as a cyclic word (the last
    term merged into the first when they share a generator, and then placed
    last) and the index in v of the first letter of each."""
    terms, starts, pos = list(v.terms), [], 0
    for _, exp in terms:
        starts.append(pos)
        pos += abs(exp)
    if len(terms) > 2 and terms[0][0] == terms[-1][0]:
        terms = terms[1:-1] + [(terms[0][0], terms[0][1] + terms[-1][1])]
        starts = starts[1:]
    return terms, starts


def _least_rotation_start(v: FreeWord) -> int:
    """The first letter index of the least letter rotation of the cyclically
    reduced v, in O(terms).  A least rotation starts a cyclic term (starting
    inside a run of the least letter is larger), and after two runs of the
    same letter the shorter one is followed by the other generator, larger
    after a1 and smaller after a2: so the runs compare by (generator, sign,
    -length for a1, length for a2)."""
    terms, starts = _cyclic_terms(v)
    if len(terms) < 2:
        return 0
    keys = [(gen, exp > 0, -abs(exp) if gen == 1 else abs(exp)) for gen, exp in terms]
    return starts[_least_rotation(keys)]


def _rotate_canonical(w: FreeWord) -> tuple[FreeWord, FreeWord]:
    """(r, u) with w = u r u^-1, r the least letter rotation of the cyclic
    reduction v = head tail of w: v = head (tail head) head^-1."""
    v, c = cyclically_reduce(w)
    head, tail = _split(v, _least_rotation_start(v))
    return reduce(tail + head), concat(c, reduce(head))


def cyclic_canonical(w: FreeWord) -> FreeWord:
    """Canonical conjugacy-class representative.

    Cyclically reduce, then take the least letter rotation, in linear time
    in the number of terms.  Two words map to equal outputs iff they are
    conjugate.
    """
    return _rotate_canonical(w)[0]


def is_primitive(w: FreeWord) -> bool:
    """True iff w is not a proper power u^k, k >= 2."""
    if w.is_identity:
        raise ValidationError("identity has no primitivity status")
    return primitive_root(w)[1] == 1


def primitive_root(w: FreeWord) -> tuple[FreeWord, int]:
    """Return (r, s) with w = r^s, s maximal (so r is primitive): s is the
    number of periods of the cyclic term sequence of w, or |k| for w
    conjugate to a single term g^k."""
    v, c = cyclically_reduce(w)
    if v.is_identity:
        raise ValidationError("identity has no primitive root")
    terms, _ = _cyclic_terms(v)
    t = len(terms)
    if t == 1:
        s = abs(terms[0][1])
    else:
        s = t // next(p for p in range(1, t + 1)
                      if t % p == 0 and terms[p:] + terms[:p] == terms)
    root, _ = _split(v, v.letter_length() // s)
    return conjugate(c, reduce(root)), s


def _budget_limit(budget: float) -> int:
    """The largest product of syllable factors 3 d that fits L- <= budget:
    floor(e^budget (1 + 1e-12)), padded so that budgets given as log(n)
    admit the product n."""
    try:
        return int(math.exp(budget) * (1.0 + 1e-12))
    except OverflowError:  # e^budget, or its padding, is beyond the float range
        raise ValidationError(f"enumeration budget {budget} overflows e^budget") from None


_LETTER_CHAR = {(1, -1): "a", (1, 1): "b", (2, -1): "c", (2, 1): "d"}


def enumerate_words(budget: float) -> list[FreeWord]:
    """All reduced words (identity included) with L-(w) <= budget.

    Deterministic order: (syllable count, letter sequence) lexicographic.
    Depth first over one-term extensions, each word carrying its syllable
    state down the stack: the product of 3 d over its closed syllables, the
    sign and length of its open run of exponents +-1 (0 when it ends in a
    big power), and its syllable count.  A word is kept while its product,
    open run included, is at most _budget_limit(budget).
    """
    check_nonnegative("enumeration budget", budget)
    if budget > ENUM_BUDGET_CAP:
        raise ValidationError(f"enumeration budget exceeded: {budget} is above "
                              f"ENUM_BUDGET_CAP = {ENUM_BUDGET_CAP}")
    limit = _budget_limit(budget)  # compared with exact integer products
    # the letters are spelled one character each, in the order of the
    # (generator, sign) pairs, so that strings compare as the letter tuples
    found: list[tuple[int, str, tuple[Term, ...]]] = [(0, "", ())]
    # (terms, letters, closed product, run sign, run length, syllable count)
    stack = [((), "", 1, 0, 0, 0)]
    while stack:
        terms, letters, closed, run_sign, run_len, count = stack.pop()
        last_gen = terms[-1][0] if terms else 0
        # appending a big power or a run of the other sign closes the open run
        shut = closed * 3 * run_len if run_len else closed
        for gen in (1, 2):
            if gen == last_gen:
                continue
            for sign in (1, -1):
                if sign == run_sign:
                    state = (closed, sign, run_len + 1, count)
                else:
                    state = (shut, sign, 1, count + 1)
                for n in range(1, limit // 3 + 1):
                    if n >= 2:
                        state = (shut * 3 * n, 0, 0, count + 1)
                    prod, rsign, rlen, k = state
                    if (prod * 3 * rlen if rlen else prod) > limit:
                        # appending letters only grows L-, so larger n is hopeless
                        break
                    w = terms + ((gen, sign * n),)
                    wl = letters + _LETTER_CHAR[gen, sign] * n
                    found.append((k, wl, w))
                    stack.append((w, wl, prod, rsign, rlen, k))
    found.sort(key=lambda item: item[:2])
    return [FreeWord(w) for _, _, w in found]


def count_words_by_patterns(budget: float) -> int:
    """Independent word counter: a memoized recursion over syllable ends.

    After the first syllable, each syllable's generator is forced by the
    letter before it, and a run's parity does not matter.  So the words
    that extend a word depend only on the kind of its last syllable (none
    yet, a big power or a run) and on the integer budget P left for the
    product of the factors 3 d:

        count(end, P) = 1 + sum over 3 d <= P of
                        c * (2 [d >= 2] count(big, P // 3d) + r count(run, P // 3d))

    with c = 2 at the start (the first syllable picks its generator), else
    1, and r = 1 after a run (the next run has the other sign), else 2.
    Never writes a word down; used as an oracle against enumerate_words.
    """
    check_nonnegative("enumeration budget", budget)

    @functools.cache
    def count(end: str, left: int) -> int:
        c = 2 if end == "start" else 1
        r = 1 if end == "run" else 2
        n = 1
        for d in range(1, left // 3 + 1):
            rest = left // (3 * d)
            n += c * ((2 * count("big", rest) if d >= 2 else 0) + r * count("run", rest))
        return n

    return count("start", _budget_limit(budget))


def word_count_bound(budget: float) -> LogNumber:
    """The bound e^{3Y}/2 + 1 on the number of words with L- <= Y."""
    check_nonnegative("budget", budget)
    return LogNumber(math.log(0.5) + 3.0 * budget) + LogNumber.from_value(1.0)


# ---------------------------------------------------------------------------
# simultaneous conjugacy of word tuples


@dataclass(frozen=True)
class MonodromyTuple:
    """Images of the 2g+m surface-group generators in the free group."""

    entries: tuple[FreeWord, ...]
    genus: int
    holes_minus_one: int = field(default=0)

    def __post_init__(self):
        if self.genus < 0 or self.holes_minus_one < 0:
            raise ValidationError("genus and hole count must be nonnegative")
        if len(self.entries) != 2 * self.genus + self.holes_minus_one:
            raise ValidationError(
                f"expected {2 * self.genus + self.holes_minus_one} entries, "
                f"got {len(self.entries)}")


def _order_key(w: FreeWord) -> tuple:
    """Orders words as their letter tuples do, in O(terms).  After the
    shorter of two runs of one letter comes the word's end, which is
    smallest, or the other generator: smaller after a2, larger after a1.
    So a word that ends in an a1 run sorts before one that goes on, and of
    two that go on, the one with the longer a1 run comes first."""
    last = len(w.terms) - 1
    return tuple((1, e > 0, i < last, -abs(e) if i < last else abs(e)) if g == 1
                 else (2, e > 0, abs(e)) for i, (g, e) in enumerate(w.terms))


def _tuple_key(entries: Sequence[FreeWord]):
    lengths = [w.letter_length() for w in entries]
    return (sum(lengths), tuple((n, _order_key(w)) for n, w in zip(lengths, entries)))


def tuple_canonical(t: MonodromyTuple) -> MonodromyTuple:
    """Canonical representative under simultaneous conjugation.

    Strategy: send the first non-identity entry to its cyclic canonical form;
    the remaining freedom is the centralizer of that form (powers of its
    primitive root), searched for the key-minimal tuple.  Outputs are equal
    iff the tuples are simultaneously conjugate.
    """
    entries = t.entries
    if all(w.is_identity for w in entries):
        return t
    i0 = next(i for i, w in enumerate(entries) if not w.is_identity)
    target, u = _rotate_canonical(entries[i0])
    u0 = invert(u)  # sends entries[i0] = u target u^-1 to target
    root, _ = primitive_root(target)
    base = tuple(conjugate(u0, w) for w in entries)
    if all(conjugate(root, cw) == cw for cw in base):
        # everything commutes with the root: the search is constant
        return MonodromyTuple(base, t.genus, t.holes_minus_one)

    # k -> total letter length of the tuple conjugated by root^k is convex:
    # each term is the distance between two points moving at equal speed
    # along geodesics of the Cayley tree.  Walk downhill both ways from
    # k = 0 over the flat minimum, then take the key-minimal tuple.
    def length(tup: tuple[FreeWord, ...]) -> int:
        return sum(w.letter_length() for w in tup)

    seen = [base]
    for r in (root, invert(root)):
        cur = base
        while length(nxt := tuple(conjugate(r, w) for w in cur)) <= length(cur):
            seen.append(nxt)
            cur = nxt
    return MonodromyTuple(min(seen, key=_tuple_key), t.genus, t.holes_minus_one)


# ---------------------------------------------------------------------------
# text grammar and JSON emission

#: most digits of an exponent in word or braid text: a sum of a few of them
#: still prints (int and str convert at most 4300 digits)
EXPONENT_DIGITS_MAX = 4000


def _tokens(toks: Iterable[str], names: str, what: str) -> Iterator[tuple[str, int]]:
    """(name, k) for each token name^k or name (k = 1), where names is a
    regex of the generator names and k an ASCII decimal of at most
    EXPONENT_DIGITS_MAX digits with an optional '-'."""
    token = re.compile(rf"({names})(?:\^(-?\d{{1,{EXPONENT_DIGITS_MAX}}}))?", re.ASCII)
    for tok in toks:
        m = token.fullmatch(tok)
        if not m:
            raise ValidationError(f"bad {what} token {tok[:60]!r}")
        name, k = m.groups()
        yield name, 1 if k is None else int(k)


def parse_word(text: str) -> FreeWord:
    """Parse whitespace separated tokens a1^k / a2^k (a1 means a1^1)."""
    terms = [(int(name[1]), k) for name, k in _tokens(text.split(), "a[12]", "word")]
    return FreeWord(tuple(terms))  # refuses zero exponents and unreduced text


def format_word(w: FreeWord) -> str:
    return " ".join(
        f"a{g}" if e == 1 else f"a{g}^{e}" for g, e in w.terms)


def word_json(w: FreeWord) -> dict:
    return {
        "word": format_word(w),
        "l_minus": l_minus(w),
        "l_plus": l_plus(w),
        "syllables": [{"kind": s.kind, "degree": s.degree} for s in syllables(w)],
    }
