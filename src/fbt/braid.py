"""The braid group B3 and its center quotient.

Generators are s1, s2 (Artin) and the half twist d = s1 s2 s1, whose square
generates the center Z3.  The word problem is solved through the exact
integer representation

    s1 -> [[1,1],[0,1]],   s2 -> [[1,0],[-1,1]],   d -> [[0,1],[-1,0]],

which identifies B3/Z3 with PSL(2,Z) and pure braids mod center with the
free group on a1 = s1^2, a2 = s2^2 (a congruence subgroup generated by
[[1,2],[0,1]] and [[1,0],[-2,1]]).  Equality in B3 itself additionally
compares exponent sums, since the representation kernel is the cyclic
group on d^4.

Every braid has one normal form

    s_j^k b1 d^l,   b1 a reduced word in s1^2, s2^2

with j in {1, 2}, k != 0 and b1 empty or starting on a power of s_{3-j};
or j = 0, k = 0 and b1 = Id (no prefix), which gives the powers of d.  The
projection theta sends it to s_j^{q(k)} b1 with q(k) the even neighbour of
k closest to zero, read as the reduced word a_j^{q(k)/2} b1 in the free
group; powers of d map to the identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from .bounds import LogNumber
from .errors import ValidationError, check_nonnegative
from .words import (
    FreeWord,
    IDENTITY,
    enumerate_words,
    format_word,
    l_minus,
    _merge_syllables,
    _order_key,
    _tokens,
    reduce as reduce_word,
    word_json,
)

B3 = "B3"
MOD_CENTER = "B3-mod-center"

GENS = ("s1", "s2", "d")

BraidLetter = tuple[str, int]


@dataclass(frozen=True)
class BraidWord:
    letters: tuple[BraidLetter, ...] = ()
    ambient: str = B3

    def __post_init__(self):
        if self.ambient not in (B3, MOD_CENTER):
            raise ValidationError(f"unknown ambient {self.ambient!r}")
        for gen, exp in self.letters:
            if gen not in GENS:
                raise ValidationError(f"unknown braid generator {gen!r}")
            if exp == 0:
                raise ValidationError("zero exponent in braid letter")

    def sigma_letters(self) -> list[tuple[int, int]]:
        """Expand d to s1 s2 s1; returns (generator index, +-1) letters."""
        out: list[tuple[int, int]] = []
        for gen, exp in self.letters:
            sign = 1 if exp > 0 else -1
            for _ in range(abs(exp)):
                if gen == "d":
                    seq = [(1, 1), (2, 1), (1, 1)]
                    out.extend(seq if sign > 0 else [(g, -1) for g, _ in reversed(seq)])
                else:
                    out.append((int(gen[1]), sign))
        return out

    def exponent_sum(self) -> int:
        return sum(3 * e if g == "d" else e for g, e in self.letters)

    def __str__(self) -> str:
        return format_braid(self)


def braid(text_or_letters, ambient: str = B3) -> BraidWord:
    if isinstance(text_or_letters, str):
        return parse_braid(text_or_letters, ambient)
    return BraidWord(tuple(text_or_letters), ambient)


def braid_concat(*parts: BraidWord) -> BraidWord:
    if not parts:
        raise ValidationError("empty concat")
    ambient = parts[0].ambient
    if any(p.ambient != ambient for p in parts):
        raise ValidationError("ambient mismatch")
    return BraidWord(_merge_syllables(x for p in parts for x in p.letters), ambient)


def braid_invert(b: BraidWord) -> BraidWord:
    return BraidWord(tuple((g, -e) for g, e in reversed(b.letters)), b.ambient)


# ---------------------------------------------------------------------------
# matrix oracle
#
# A syllable maps to the closed-form power of its generator's matrix,
# s1^k -> [[1,k],[0,1]], s2^k -> [[1,0],[-k,1]] and d^k -> D^(k mod 4)
# with D = [[0,1],[-1,0]], D^2 = -I, so matrix_image costs one 2x2 product
# per syllable whatever the exponents.  sigma_letters stays as the
# independent per-letter expansion.


@dataclass(frozen=True)
class MatrixImage:
    a: int
    b: int
    c: int
    d: int
    exponent_sum: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise ValidationError("matrix image must have determinant 1")

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def projective(self) -> tuple[int, int, int, int]:
        """Sign normalized so the first nonzero entry of the top row is positive."""
        lead = self.a if self.a != 0 else self.b
        s = 1 if lead > 0 else -1
        return (s * self.a, s * self.b, s * self.c, s * self.d)


def matrix_image(b: BraidWord) -> MatrixImage:
    """M(b), the product of the syllable matrices, and the exponent sum,
    both in one pass over the syllables."""
    a, b_, c, d, es = 1, 0, 0, 1, 0
    for gen, exp in b.letters:
        if gen == "s1":
            b_ += a * exp
            d += c * exp
            es += exp
        elif gen == "s2":
            a -= b_ * exp
            c -= d * exp
            es += exp
        else:
            es += 3 * exp
            r = exp % 4
            if r == 1:
                a, b_, c, d = -b_, a, -d, c
            elif r == 2:
                a, b_, c, d = -a, -b_, -c, -d
            elif r == 3:
                a, b_, c, d = b_, -a, d, -c
    return MatrixImage(a, b_, c, d, es)


def _same_element(m1: MatrixImage, m2: MatrixImage, ambient: str) -> bool:
    """Equality of the braids with images m1, m2: the entries and the
    exponent sum in B3, the projective entries mod center."""
    if ambient == B3:
        return m1.entries() == m2.entries() and m1.exponent_sum == m2.exponent_sum
    return m1.projective() == m2.projective()


def equal(b1: BraidWord, b2: BraidWord) -> bool:
    if b1.ambient != b2.ambient:
        raise ValidationError("ambient mismatch")
    return _same_element(matrix_image(b1), matrix_image(b2), b1.ambient)


# ---------------------------------------------------------------------------
# the twist-prefix normal form

#: most terms the peeling of a pure-braid matrix may produce
PEEL_LIMIT = 10 ** 6


def _nearest_int(p: int, q: int) -> int:
    """Exact nearest integer to p/q; callers guarantee no ties."""
    if q < 0:
        p, q = -p, -q
    return (2 * p + q) // (2 * q)


def _matrix_to_word(m: tuple[int, int, int, int]) -> FreeWord:
    """Decode a (projective) matrix of the free group on a1, a2.

    Continued-fraction peeling: while the lower-left entry is nonzero, strip
    the power of a1 or a2 that shrinks whichever of |a|, |c| dominates; the
    leftovers form the next letter.  Entries of the congruence subgroup have
    a, d odd and b, c even, so there are never ties.  A stretch of n pairs
    a1^eps a2^eps, where the entries shrink only linearly, is peeled in one
    step as T^n = (-1)^n (I - n (T + I)), so that a normal form longer than
    PEEL_LIMIT terms is refused without peeling them one by one.
    """
    a, b, c, d = m
    if a < 0 or (a == 0 and b < 0):
        a, b, c, d = -a, -b, -c, -d
    if a % 2 == 0 or d % 2 == 0 or b % 2 or c % 2:
        raise ValidationError("matrix is not in the pure-braid image")
    terms: list[tuple[int, int]] = []
    too_long = f"normal form has more than {PEEL_LIMIT} terms in a1, a2"
    while c != 0:
        if len(terms) >= PEEL_LIMIT:
            raise ValidationError(too_long)
        if abs(a) > abs(c) and 3 * abs(a) < 5 * abs(c):
            # n pairs a1^eps a2^eps, eps the sign of a c: each is the parabolic
            # T = [[1, -2 eps], [2 eps, -3]], which shrinks |a| and |c| by
            # 2 (|a| - |c|), and is taken while 1 < |a|/|c| < 5/3
            eps = 1 if (a > 0) == (c > 0) else -1
            n = (abs(a) + abs(c) - 1) // (4 * (abs(a) - abs(c)))
            if len(terms) + 2 * n > PEEL_LIMIT:
                raise ValidationError(too_long)
            sign = -1 if n % 2 else 1
            a, b, c, d = (sign * (a - 2 * n * (a - eps * c)), sign * (b - 2 * n * (b - eps * d)),
                          sign * (c - 2 * n * (eps * a - c)), sign * (d - 2 * n * (eps * b - d)))
            terms += [(1, eps), (2, eps)] * n
        elif abs(a) > abs(c):
            k = _nearest_int(a, 2 * c)
            terms.append((1, k))
            a, b = a - 2 * k * c, b - 2 * k * d
        else:
            k = -_nearest_int(c, 2 * a)
            terms.append((2, k))
            c, d = c + 2 * k * a, d + 2 * k * b
    if a < 0:
        a, b, c, d = -a, -b, -c, -d
    if (a, c, d) != (1, 0, 1):
        raise ValidationError("matrix is not in the pure-braid image")
    if b != 0:  # even: it is on entry, and each peeling step keeps it so
        terms.append((1, b // 2))
    w = reduce_word(terms)
    if len(w.terms) != len(terms):
        raise AssertionError("peeling produced a non-reduced word")
    return w


@dataclass(frozen=True)
class BraidNormalForm:
    l: int
    j: int = 0            # 0: no prefix s_j^k, the power d^l
    k: int = 0
    b1: FreeWord = IDENTITY
    ambient: str = B3

    def __post_init__(self):
        if self.j not in (0, 1, 2):
            raise ValidationError("j must be 0, 1 or 2")
        if (self.k == 0) != (self.j == 0):
            raise ValidationError("k must be nonzero exactly when j is")
        if self.b1.terms and self.b1.terms[0][0] != 3 - self.j:
            raise ValidationError("b1 must be empty or start with the generator other than s_j")
        if self.ambient == MOD_CENTER and self.l not in (0, 1):
            raise ValidationError("l is reduced mod 2 in the center quotient")

    @property
    def kind(self) -> str:
        return "general" if self.j else "delta-power"

    def sort_key(self):
        return (self.j > 0, self.l, self.j, self.k, _order_key(self.b1))


def expand(nf: BraidNormalForm) -> BraidWord:
    letters = [(f"s{nf.j}", nf.k), *((f"s{g}", 2 * e) for g, e in nf.b1.terms), ("d", nf.l)]
    return BraidWord(tuple((g, e) for g, e in letters if e), nf.ambient)


# The strand permutation of b is its matrix mod 2 (B3 / P3 = S3 = SL(2, Z/2),
# the pure braids being the preimage of the congruence subgroup of level 2),
# so it picks the prefix (j0, l0) with b = s_j0 p d^l0 and p pure; the six
# prefixes realise the six permutations.
def _prefix_table() -> dict[tuple[int, ...], tuple[int, int]]:
    table = {}
    for j0 in (0, 1, 2):
        for l0 in (0, 1):
            head = ((f"s{j0}", 1),) if j0 else ()
            tail = (("d", 1),) if l0 else ()
            m = matrix_image(BraidWord(head + tail)).entries()
            table[tuple(x % 2 for x in m)] = (j0, l0)
    return table


_PREFIX_OF_PARITY = _prefix_table()


def normal_form(b: BraidWord) -> BraidNormalForm:
    """Compute the unique normal form.

    The strand permutation picks the unique prefix (s_j0, d^l0) whose
    removal leaves a pure braid p = s_j0^-1 b d^-l0; its matrix
    S_j0^-1 M(b) D^-l0 is decoded into a word in a1, a2 plus a central
    power of d^2 recovered from the exponent sum.  The prefix s_j0 (none
    for j0 = 0) absorbs the first term a_g^e of that word as s_g^{2e} when
    g = j0 or there is no prefix.  The expansion is checked through the
    matrix oracle: its image must match the M(b) computed first.
    """
    mb = matrix_image(b)
    j0, l0 = _PREFIX_OF_PARITY[mb.a % 2, mb.b % 2, mb.c % 2, mb.d % 2]
    p11, p12, p21, p22 = (mb.b, -mb.a, mb.d, -mb.c) if l0 else mb.entries()  # D^-1 on the right
    if j0 == 1:    # S1^-1 = [[1,-1],[0,1]] on the left
        p11, p12 = p11 - p21, p12 - p22
    elif j0 == 2:  # S2^-1 = [[1,0],[1,1]] on the left
        p21, p22 = p21 + p11, p22 + p12
    w = _matrix_to_word((p11, p12, p21, p22))
    es = mb.exponent_sum - (j0 != 0) - 3 * l0
    two_t, rem = divmod(es - 2 * sum(e for _, e in w.terms), 6)
    if rem:
        raise AssertionError("pure part has inconsistent exponent sum")

    j, k, b1 = j0, int(j0 != 0), w
    if w.terms and (j0 == 0 or w.terms[0][0] == j0):
        (j, e), b1 = w.terms[0], FreeWord(w.terms[1:])
        k += 2 * e
    nf = BraidNormalForm(_reduce_l(2 * two_t + l0, b.ambient), j, k, b1, b.ambient)
    if not _same_element(matrix_image(expand(nf)), mb, b.ambient):
        raise AssertionError("normal form failed the round-trip oracle")
    return nf


def _reduce_l(ell: int, ambient: str) -> int:
    return ell % 2 if ambient == MOD_CENTER else ell


def q(k: int) -> int:
    """The even integer neighbour of k closest to zero (k itself if even)."""
    if k == 0:
        raise ValidationError("q(0) is undefined")
    return k if k % 2 == 0 else k - (1 if k > 0 else -1)


def theta(b: BraidWord) -> FreeWord:
    """theta(s_j^k b1 d^l) = s_j^{q(k)} b1 as a reduced word in a1, a2;
    powers of d map to the identity."""
    return theta_nf(normal_form(b))


def theta_nf(nf: BraidNormalForm) -> FreeWord:
    """theta read off a normal form already computed."""
    qk = q(nf.k) if nf.j else 0
    return FreeWord(((nf.j, qk // 2),) + nf.b1.terms) if qk else nf.b1


def lambda_tr_lower(b: BraidWord) -> float:
    """Lower bound L-(theta(b)) / (2 pi) for the transversal extremal
    length; zero for the exceptional braids s_j^k d^l and powers of d."""
    return lambda_tr_lower_nf(normal_form(b))


def lambda_tr_lower_nf(nf: BraidNormalForm) -> float:
    """lambda_tr_lower read off a normal form already computed."""
    if nf.b1.is_identity:
        return 0.0
    return l_minus(theta_nf(nf)) / (2.0 * math.pi)


def lemma4_admissible(b: BraidWord, lam: float) -> bool:
    """L-(theta(b)) <= 2 pi lambda, with braids s_j^k d^{2l} (and powers
    of d) vacuously admissible."""
    check_nonnegative("lambda", lam)
    nf = normal_form(b)
    if nf.b1.is_identity and nf.l % 2 == 0:
        return True
    return l_minus(theta_nf(nf)) <= 2.0 * math.pi * lam


def _log_plus(x: float) -> float:
    return math.log(x) if x > 1.0 else 0.0


def lemma3a_check(k: int, kp: int, lam: float) -> bool:
    """log+(3 [|k|/2]) + log+(3 [|k'|/2]) <= pi lambda."""
    if k == 0 or kp == 0:
        raise ValidationError("exponents must be nonzero")
    check_nonnegative("lambda", lam)
    lhs = _log_plus(3 * (abs(k) // 2)) + _log_plus(3 * (abs(kp) // 2))
    return lhs <= math.pi * lam


# ---------------------------------------------------------------------------
# census of quotient elements with small L-(theta)


def _preimage_forms(w: FreeWord) -> list[BraidNormalForm]:
    """Normal forms of the elements of B3 mod center with theta equal to w:
    for w != Id with first term a_j^m and rest b1, s_j^{2m} b1,
    s_j^{2m + sgn m} b1 and s_j'^{+-1} w; for w = Id, d^0 and s_j^{+-1};
    each times d^l, l in {0, 1}.  Normal forms are unique: no repeats."""
    if w.is_identity:
        heads = [(0, 0, IDENTITY)] + [(j, s, IDENTITY) for j in (1, 2) for s in (1, -1)]
    else:
        (j, m), b1 = w.terms[0], FreeWord(w.terms[1:])
        heads = [(j, 2 * m, b1), (j, 2 * m + (1 if m > 0 else -1), b1),
                 (3 - j, 1, w), (3 - j, -1, w)]
    return [BraidNormalForm(ell, j, k, rest, MOD_CENTER)
            for j, k, rest in heads for ell in (0, 1)]


def theta_preimages(w: FreeWord) -> list[BraidWord]:
    """All elements of B3 mod center with theta equal to w: eight, or ten
    for w = Id (see _preimage_forms)."""
    return [expand(nf) for nf in _preimage_forms(w)]


def census(budget: float) -> list[BraidWord]:
    """All elements b of B3 mod center with L-(theta(b)) <= budget, sorted
    by normal form; each is written down from the normal forms of the
    theta-preimages of an enumerated word."""
    forms = [nf for w in enumerate_words(budget) for nf in _preimage_forms(w)]
    forms.sort(key=BraidNormalForm.sort_key)
    return [expand(nf) for nf in forms]


def braid_count_bound(budget: float) -> LogNumber:
    """The census bound 15 e^{3Y}."""
    check_nonnegative("budget", budget)
    return LogNumber(math.log(15.0) + 3.0 * budget)


# ---------------------------------------------------------------------------
# text grammar and JSON emission


def parse_braid(text: str, ambient: str | None = None) -> BraidWord:
    """Whitespace separated tokens s1^k, s2^k, d^k with the words' k; a
    leading @mod-center directive selects the quotient."""
    toks = text.split()
    amb = ambient or B3
    if toks[:1] == ["@mod-center"]:
        amb, toks = MOD_CENTER, toks[1:]
    return BraidWord(tuple(_tokens(toks, "s[12]|d", "braid")), amb)  # refuses zero exponents


def format_braid(b: BraidWord) -> str:
    return " ".join(f"{g}" if e == 1 else f"{g}^{e}" for g, e in b.letters)


def normal_form_json(nf: BraidNormalForm) -> dict:
    if nf.j == 0:
        return {"kind": nf.kind, "l": nf.l}
    return {"kind": nf.kind, "j": nf.j, "k": nf.k, "b1": format_word(nf.b1), "l": nf.l}


def braid_json(b: BraidWord) -> dict:
    nf = normal_form(b)
    wj = word_json(theta_nf(nf))
    return {
        "braid": format_braid(b),
        "ambient": b.ambient,
        "exponent_sum": b.exponent_sum(),
        "theta": wj["word"],
        "l_minus": wj["l_minus"],
        "l_plus": wj["l_plus"],
        "syllables": wj["syllables"],
        "normal_form": normal_form_json(nf),
    }
