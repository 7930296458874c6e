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

import math
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .errors import ValidationError
from .bounds import LogNumber

LOG3 = math.log(3.0)

#: default safety cap for enumeration budgets: 777 words at Y = 4.5, where
#: the bound e^{3Y}/2 + 1 allows about 3.6e5
ENUM_BUDGET_CAP = 4.5

Term = tuple[int, int]    # (generator index 1|2, nonzero exponent)
Letter = tuple[int, int]  # (generator index, +1|-1)


def _check_terms(terms: Sequence[Term]) -> None:
    for gen, exp in terms:
        if gen not in (1, 2):
            raise ValidationError(f"generator index must be 1 or 2, got {gen}")
        if exp == 0:
            raise ValidationError("zero exponent in word term")
    for (g1, _), (g2, _) in zip(terms, terms[1:]):
        if g1 == g2:
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
    """Left-to-right syllable decomposition with big powers split out first."""
    out: list[Syllable] = []
    pos = 0
    run_start = None
    run_sign = 0
    run_len = 0

    def flush_run():
        nonlocal run_start, run_len
        if run_len:
            kind = "plus-run" if run_sign > 0 else "minus-run"
            out.append(Syllable(kind, run_len, (run_start, run_start + run_len)))
        run_start, run_len = None, 0

    for gen, exp in w.terms:
        n = abs(exp)
        sign = 1 if exp > 0 else -1
        if n >= 2:
            flush_run()
            out.append(Syllable("big-power", n, (pos, pos + n)))
        else:
            if run_len and sign != run_sign:
                flush_run()
            if not run_len:
                run_start, run_sign = pos, sign
            run_len += 1
        pos += n
    flush_run()
    return out


def syllable_degrees(w: FreeWord) -> list[int]:
    return [s.degree for s in syllables(w)]


def l_minus(w: FreeWord) -> float:
    return sum(math.log(3 * d) for d in syllable_degrees(w))


def l_plus(w: FreeWord) -> float:
    return sum(math.log(4 * d) for d in syllable_degrees(w))


def cyclically_reduce(w: FreeWord) -> tuple[FreeWord, FreeWord]:
    """Return (v, c) with w = c v c^-1 and v cyclically reduced."""
    letters = list(w.letters())
    pre: list[Letter] = []
    while len(letters) >= 2 and letters[0][0] == letters[-1][0] \
            and letters[0][1] == -letters[-1][1]:
        pre.append(letters[0])
        letters = letters[1:-1]
    return reduce(letters), reduce(pre)


def _rotations(letters: tuple[Letter, ...]) -> Iterator[tuple[Letter, ...]]:
    n = len(letters)
    for i in range(n):
        yield letters[i:] + letters[:i]


def cyclic_canonical(w: FreeWord) -> FreeWord:
    """Canonical conjugacy-class representative.

    Cyclically reduce, then take the lexicographically least cyclic rotation
    of the letter sequence.  Two words map to equal outputs iff they are
    conjugate.
    """
    v, _ = cyclically_reduce(w)
    if v.is_identity:
        return IDENTITY
    best = min(_rotations(v.letters()))
    return reduce(best)


def is_primitive(w: FreeWord) -> bool:
    """True iff w is not a proper power u^k, k >= 2."""
    if w.is_identity:
        raise ValidationError("identity has no primitivity status")
    v, _ = cyclically_reduce(w)
    letters = v.letters()
    n = len(letters)
    for p in range(1, n):
        if n % p == 0 and letters[p:] + letters[:p] == letters:
            return False
    return True


def primitive_root(w: FreeWord) -> tuple[FreeWord, int]:
    """Return (r, s) with w = r^s, s maximal (so r is primitive)."""
    v, c = cyclically_reduce(w)
    letters = v.letters()
    n = len(letters)
    if n == 0:
        raise ValidationError("identity has no primitive root")
    for p in range(1, n + 1):
        if n % p == 0 and letters[p:] + letters[:p] == letters:
            root = reduce(letters[:p])
            return conjugate(c, root), n // p
    raise AssertionError("unreachable: trivial period always matches")


def _fits_budget(degrees: Sequence[int], budget: float) -> bool:
    # compare Pi(3 d_k) <= e^budget on exact integers against a slightly
    # padded exponential so that budgets given as log(n) behave exactly
    prod = 1
    for d in degrees:
        prod *= 3 * d
    return prod <= math.exp(budget) * (1.0 + 1e-12)


def check_budget(budget: float, what: str = "enumeration budget") -> None:
    """Refuse negative and non-finite L- budgets."""
    if not math.isfinite(budget):
        raise ValidationError(f"{what} must be finite")
    if budget < 0:
        raise ValidationError(f"{what} must be >= 0")


def enumerate_words(budget: float, cap: float = ENUM_BUDGET_CAP) -> list[FreeWord]:
    """All reduced words (identity included) with L-(w) <= budget.

    Deterministic order: (syllable count, letter sequence) lexicographic.
    """
    check_budget(budget)
    if not budget <= cap:  # a NaN cap refuses every budget
        raise ValidationError("enumeration budget exceeded")
    found: list[FreeWord] = [IDENTITY]
    max_deg = int(math.exp(budget) / 3 * (1 + 1e-12)) + 1

    def extend(terms: list[Term]):
        last_gen = terms[-1][0] if terms else 0
        for gen in (1, 2):
            if gen == last_gen:
                continue
            for sign in (1, -1):
                for n in range(1, max_deg + 1):
                    cand = terms + [(gen, sign * n)]
                    w = FreeWord(tuple(cand))
                    if not _fits_budget(syllable_degrees(w), budget):
                        # appending letters only grows L-, so larger n is hopeless
                        break
                    found.append(w)
                    extend(cand)

    extend([])
    found.sort(key=lambda w: (len(syllables(w)), w.letters()))
    return found


def count_words_by_patterns(budget: float) -> int:
    """Independent word counter: sums over syllable patterns.

    Recursively builds admissible syllable sequences (kind, degree, boundary
    generators) and counts the reduced words realizing each, without ever
    writing the words down.  Used as an oracle against enumerate_words.
    """
    check_budget(budget)
    max_deg = int(math.exp(budget) / 3 * (1 + 1e-12)) + 1

    # syllable choices: ("big", sign, d>=2) with one generator choice fixed by
    # the boundary, ("run", sign, d) whose letters alternate generators, so a
    # run is pinned by its first generator.
    total = 0

    def count_from(prev_kind: str | None, prev_sign: int, prev_end_gen: int,
                   degrees: list[int]) -> int:
        # returns number of admissible continuations (including stopping here)
        n = 1
        for d in range(1, max_deg + 1):
            if not _fits_budget(degrees + [d], budget):
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

    total = count_from(None, 0, 0, [])
    return total


def word_count_bound(budget: float) -> LogNumber:
    """The bound e^{3Y}/2 + 1 on the number of words with L- <= Y."""
    check_budget(budget, "budget")
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


def _tuple_key(entries: Sequence[FreeWord]):
    letters = [w.letters() for w in entries]
    return (sum(len(ls) for ls in letters), tuple((len(ls), ls) for ls in letters))


def tuple_canonical(t: MonodromyTuple) -> MonodromyTuple:
    """Canonical representative under simultaneous conjugation.

    Strategy: send the first non-identity entry to its cyclic canonical form;
    the remaining freedom is the centralizer of that form (powers of its
    primitive root), which is scanned for the key-minimal tuple.  Outputs are
    equal iff the tuples are simultaneously conjugate.
    """
    entries = t.entries
    if all(w.is_identity for w in entries):
        return t
    i0 = next(i for i, w in enumerate(entries) if not w.is_identity)
    w0 = entries[i0]
    v, c = cyclically_reduce(w0)
    target = cyclic_canonical(w0)
    # rotation index taking v to target
    vlet = v.letters()
    rot = min(range(len(vlet)), key=lambda i: vlet[i:] + vlet[:i])
    p = reduce(vlet[:rot])
    # w0 = conj(c, v) = conj(c p, target)  =>  u0 = (c p)^-1
    u0 = invert(concat(c, p))
    root, _ = primitive_root(target)

    def conj_all(u: FreeWord) -> tuple[FreeWord, ...]:
        return tuple(conjugate(u, w) for w in entries)

    base = conj_all(u0)
    if all(conjugate(root, cw) == cw for cw in base):
        # everything commutes with the root: the scan is constant
        return MonodromyTuple(base, t.genus, t.holes_minus_one)

    window = max(2, sum(w.letter_length() for w in base)) + 1
    best = None
    best_k = 0
    k_lo, k_hi = -window, window
    while True:
        for k in range(k_lo, k_hi + 1):
            cand = conj_all(concat(power(root, k), u0))
            key = _tuple_key(cand)
            if best is None or key < best[0]:
                best = (key, cand)
                best_k = k
        if k_lo < best_k < k_hi:
            break
        # widen until the minimizer is interior
        k_lo, k_hi = k_lo - window, k_hi + window
        if k_hi > 64 * window:
            raise AssertionError("conjugator scan failed to stabilize")
    return MonodromyTuple(best[1], t.genus, t.holes_minus_one)


# ---------------------------------------------------------------------------
# text grammar and JSON emission

_TOKEN = re.compile(r"^a([12])(?:\^(-?\d+))?$")


def parse_word(text: str) -> FreeWord:
    """Parse whitespace separated tokens a1^k / a2^k (a1 means a1^1)."""
    terms: list[Term] = []
    for tok in text.split():
        m = _TOKEN.match(tok)
        if not m:
            raise ValidationError(f"bad word token {tok!r}")
        exp = int(m.group(2)) if m.group(2) is not None else 1
        if exp == 0:
            raise ValidationError(f"zero exponent in token {tok!r}")
        terms.append((int(m.group(1)), exp))
    w = FreeWord(tuple(terms)) if _is_reduced(terms) else None
    if w is None:
        raise ValidationError("word text is not reduced")
    return w


def _is_reduced(terms: Sequence[Term]) -> bool:
    return all(g1 != g2 for (g1, _), (g2, _) in zip(terms, terms[1:]))


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
