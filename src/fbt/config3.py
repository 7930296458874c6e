"""The 3-point configuration space and loop decoders.

Triples are unordered sets of three distinct complex numbers.  The
collinearity hypersurface consists of triples lying on a real line, cut
out by the vanishing of Im (z2-z1)/(z3-z1); the ratio is invariant under
diagonal complex affine maps, and the affine normalization sends a chosen
anchor pair to -1 and 1.

decode_word turns a sampled loop avoiding the punctures -1, 1 into the
reduced word it represents: the plane minus the real axis falls into two
simply connected half planes, so the word is read off from the signed
crossing sequence of the rays (-inf,-1), (1,inf) and the segment (-1,1),
with the segment acting as the spanning-tree edge (no letter emitted).
A counterclockwise loop around -1 crosses (-inf,-1) once downward and
reads a1; around 1 it crosses (1,inf) once upward and reads a2.

A loop is held as one read-only numpy array, checked in one vectorized
pass: a PlaneLoop as its 1-D complex samples, a ConfigLoop as an (n, 3)
complex array whose rows are configurations sorted by (Re, Im), as
Triple.points.  A Triple is the type of a single configuration only.

decode_braid reads a geometric braid from an (n, 3) array of strands,
labelled by matching each point to the nearest point of the next sample.
After a generic rotation, sign changes of the pairwise x-differences give
the crossing events of all steps in one pass; the strand arriving from the
right passing above the other yields a positive Artin letter.  Simultaneous
events (a collinear configuration rotating through vertical) are resolved
by bubble decomposition, well defined up to the braid relation.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .braid import B3, BraidWord
from .errors import ValidationError, check_nonnegative
from .words import FreeWord, _merge_syllables, reduce as reduce_word

CLEARANCE = 1e-9
IN_H_TOL = 1e-9
CLOSE_TOL = 1e-12  # plane loops, and the base points two loops share
CONFIG_CLOSE_TOL = 1e-9  # configuration loops, per point of the triple
_RETRIES = 8  # generic projection angles tried by decode_braid


def _refuse_overflow(fn):
    """Refuse finite coordinates whose differences or quotients overflow."""
    @functools.wraps(fn)
    def checked(*args, **kwargs):
        try:
            with np.errstate(over="raise", invalid="raise"):
                return fn(*args, **kwargs)
        except (OverflowError, FloatingPointError):
            raise ValidationError("coordinates too large: the arithmetic overflows") from None
    return checked


def _re_im(z: complex) -> tuple[float, float]:
    return z.real, z.imag


@dataclass(frozen=True)
class Triple:
    """Unordered triple of pairwise distinct points, stored sorted by (Re, Im)."""

    points: tuple[complex, complex, complex]

    def __post_init__(self):
        z1, z2, z3 = self.points
        if not (cmath.isfinite(z1) and cmath.isfinite(z2) and cmath.isfinite(z3)):
            raise ValidationError("triple points must be finite")
        a, b, c = pts = tuple(sorted(self.points, key=_re_im))
        object.__setattr__(self, "points", pts)
        # equal points sort next to each other (0j == complex(-0.0, 0.0))
        if a == b or b == c:
            raise ValidationError("triple points must be pairwise distinct")


def triple(z1: complex, z2: complex, z3: complex) -> Triple:
    return Triple((complex(z1), complex(z2), complex(z3)))


def in_h(t: Triple, tol: float = IN_H_TOL) -> bool:
    """True iff the three points lie on a real line, up to tol on
    Im (z2-z1)/(z3-z1) minimized over labellings."""
    check_nonnegative("tolerance", tol)
    return collinearity_defect(t) <= tol


@_refuse_overflow
def collinearity_defect(t: Triple) -> float:
    a, b, c = t.points
    # Python complex arithmetic overflows to inf or nan without raising; with
    # finite differences the minimizing quotient (longest side below) is at most 1
    if not all(cmath.isfinite(d) for d in (b - a, c - a, c - b)):
        raise OverflowError
    vals = []
    for z1, z2, z3 in ((a, b, c), (b, c, a), (c, a, b),
                       (a, c, b), (b, a, c), (c, b, a)):
        vals.append(abs(((z2 - z1) / (z3 - z1)).imag))
    return min(vals)


@dataclass(frozen=True)
class AffineMap:
    """z -> a z + b."""

    a: complex
    b: complex

    def __call__(self, z: complex) -> complex:
        return self.a * z + self.b


def affine_normalize(t: Triple, anchors: tuple[complex, complex]) -> tuple[Triple, AffineMap]:
    """Map the anchor pair to (-1, 1); returns the image triple and the map."""
    w1, w3 = complex(anchors[0]), complex(anchors[1])
    if w1 == w3:
        raise ValidationError("anchor points must be distinct")
    a = 2.0 / (w3 - w1)
    m = AffineMap(a, -1.0 - a * w1)
    return Triple(tuple(m(z) for z in t.points)), m


# ---------------------------------------------------------------------------
# plane loops and the word decoder


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class PlaneLoop:
    """A sampled loop: a read-only 1-D complex array."""

    samples: np.ndarray

    @_refuse_overflow
    def __post_init__(self):
        z = _read_only(np.array(self.samples, dtype=complex))
        object.__setattr__(self, "samples", z)
        if len(z) < 2:
            raise ValidationError("loop needs at least two samples")
        # in Python complex arithmetic: an overflowing difference is inf
        if abs(complex(z[0]) - complex(z[-1])) > CLOSE_TOL:
            raise ValidationError("loop is not closed")
        # all samples at once; the first bad one is reported, as not finite,
        # too large (its distance to a puncture overflows) or too close
        with np.errstate(over="ignore", invalid="ignore"):
            to_minus, to_plus = np.abs(z + 1.0), np.abs(z - 1.0)
        finite = np.isfinite(z)
        huge = finite & ~(np.isfinite(to_minus) & np.isfinite(to_plus))
        bad = ~finite | huge | (to_minus < CLEARANCE) | (to_plus < CLEARANCE)
        if bad.any():
            i = int(bad.argmax())
            if not finite[i]:
                raise ValidationError(f"sample {i} is not finite")
            if huge[i]:
                raise OverflowError
            raise ValidationError(f"sample {i} violates puncture clearance")


def plane_loop(samples: Sequence[complex] | np.ndarray) -> PlaneLoop:
    return PlaneLoop(samples)


@_refuse_overflow
def compose_loops(l1: PlaneLoop, l2: PlaneLoop) -> PlaneLoop:
    if abs(complex(l1.samples[-1]) - complex(l2.samples[0])) > CLOSE_TOL:
        raise ValidationError("loops do not share a base point")
    return PlaneLoop(np.concatenate([l1.samples, l2.samples[1:]]))


def reverse_loop(l: PlaneLoop) -> PlaneLoop:
    return PlaneLoop(l.samples[::-1])


@_refuse_overflow
def decode_word(loop: PlaneLoop) -> FreeWord:
    """Reduced word of the loop in pi_1 of the twice punctured plane."""
    z = loop.samples
    up = z.imag >= 0
    k = np.flatnonzero(up[:-1] != up[1:])
    a, b = z[k], z[k + 1]
    t = a.imag / (a.imag - b.imag)
    x = a.real + t * (b.real - a.real)
    if np.any((np.abs(x - 1.0) < CLEARANCE) | (np.abs(x + 1.0) < CLEARANCE)):
        raise ValidationError("crossing too close to a puncture")
    # a downward crossing reads a1 on (-inf,-1) and a2^-1 on (1,inf); the
    # middle segment is the spanning-tree edge: no letter
    sign, left = np.where(up[k], 1, -1), x < -1.0
    keep = left | (x > 1.0)
    return reduce_word(list(zip(np.where(left, 1, 2)[keep].tolist(),
                                np.where(left, sign, -sign)[keep].tolist())))


@_refuse_overflow
def winding_numbers(loop: PlaneLoop) -> tuple[int, int]:
    """Winding numbers about -1 and 1 (an independent abelianized oracle)."""
    z = loop.samples
    w1, w2 = (np.angle((z[1:] - p) / (z[:-1] - p)).sum() / (2 * math.pi)
              for p in (-1.0, 1.0))
    return round(w1), round(w2)


# ---------------------------------------------------------------------------
# configuration loops and the braid decoder


def _configurations(rows: np.ndarray) -> np.ndarray:
    """The rows as Triples would store them, checked in one pass: the first
    bad row is refused as Triple refuses it, and each row is sorted by
    (Re, Im) by a stable sort (-0.0 ties 0.0, as in sorted)."""
    if rows.ndim != 2 or rows.shape[1] != 3:
        raise ValidationError("configuration samples must be an (n, 3) array")
    order = np.lexsort((rows.imag, rows.real), axis=1)
    pts = np.take_along_axis(rows, order, axis=1)
    finite = np.isfinite(rows).all(axis=1)
    bad = ~finite | (pts[:, 0] == pts[:, 1]) | (pts[:, 1] == pts[:, 2])
    if bad.any():
        if not finite[bad.argmax()]:
            raise ValidationError("triple points must be finite")
        raise ValidationError("triple points must be pairwise distinct")
    return pts


def _config_gap(a: np.ndarray, b: np.ndarray) -> bool:
    """True iff two configurations differ by more than CONFIG_CLOSE_TOL in
    some point, compared in Python complex arithmetic (an overflowing
    difference is inf)."""
    return any(abs(x - y) > CONFIG_CLOSE_TOL for x, y in zip(a.tolist(), b.tolist()))


@dataclass(frozen=True, eq=False)
class ConfigLoop:
    """A sampled loop of configurations: a read-only (n, 3) complex array."""

    samples: np.ndarray

    @_refuse_overflow
    def __post_init__(self):
        pts = _read_only(_configurations(np.asarray(self.samples, dtype=complex)))
        object.__setattr__(self, "samples", pts)
        if len(pts) < 2:
            raise ValidationError("loop needs at least two samples")
        if _config_gap(pts[0], pts[-1]):
            raise ValidationError("configuration loop is not closed")


def config_loop(samples: Sequence[Triple] | np.ndarray) -> ConfigLoop:
    """A loop from Triples or from an (n, 3) array of points."""
    if not isinstance(samples, np.ndarray):
        samples = np.array([t.points for t in samples], dtype=complex).reshape(-1, 3)
    return ConfigLoop(samples)


@_refuse_overflow
def compose_config_loops(l1: ConfigLoop, l2: ConfigLoop) -> ConfigLoop:
    if _config_gap(l1.samples[-1], l2.samples[0]):
        raise ValidationError("loops do not share a base configuration")
    return ConfigLoop(np.concatenate([l1.samples, l2.samples[1:]]))


def reverse_config_loop(l: ConfigLoop) -> ConfigLoop:
    return ConfigLoop(l.samples[::-1])


_PAIRS = ((0, 1), (0, 2), (1, 2))


def _track_strands(pts: np.ndarray) -> np.ndarray:
    """Strands as rows of samples.  A step must match points to their nearest
    points bijectively, each moving less than half the smaller minimum gap
    of the two triples: then it is the only matching within that bound.  A
    step whose distances are not finite overflowed (np.abs of a complex
    difference goes to inf without raising)."""
    a, b, c = pts.T
    gap = np.minimum(np.minimum(np.abs(a - b), np.abs(a - c)), np.abs(b - c))
    dist = np.abs(pts[:-1, :, None] - pts[1:, None, :])
    finite = np.isfinite(dist).all(axis=(1, 2)) & np.isfinite(gap[:-1]) & np.isfinite(gap[1:])
    nearest = dist.argmin(axis=2)
    ok = finite & (np.sort(nearest, axis=1) == (0, 1, 2)).all(axis=1) & \
        (dist.min(axis=2).max(axis=1) < np.minimum(gap[:-1], gap[1:]) / 2)
    if not ok.all():
        k = int(ok.argmin())
        if not finite[k]:
            raise OverflowError
        raise ValidationError(f"tracking condition violated at sample {k + 1}")
    # compose the labels only where the matching permutes the points
    moved = (nearest != (0, 1, 2)).any(axis=1)
    perms = [np.arange(3)]
    for k in np.flatnonzero(moved):
        perms.append(nearest[k][perms[-1]])
    labels = np.array(perms)[np.r_[0, np.cumsum(moved)]]
    return np.take_along_axis(pts, labels, axis=1)


class _NonGeneric(Exception):
    pass


@_refuse_overflow
def decode_braid(loop: ConfigLoop, ambient: str = B3) -> BraidWord:
    """Braid of a sampled loop in the symmetrized configuration space."""
    tracks = _track_strands(loop.samples)
    for attempt in range(_RETRIES):
        # deterministic pseudo-random generic angles (golden-angle sequence)
        beta = 0.7548776662466927 + attempt * 2.399963229728653
        rotated = tracks * cmath.exp(-1j * beta)
        try:
            letters, start_order, final_order = _read_crossings(rotated)
            # closure consistency: the final x-order must be the initial one
            # relabelled by the strand permutation of the closed loop
            perm = np.abs(rotated[-1][:, None] - rotated[0]).argmin(axis=1).tolist()
            if sorted(perm) != [0, 1, 2]:
                raise ValidationError("loop endpoints do not match as configurations")
            if [perm[i] for i in final_order] != start_order:
                raise _NonGeneric("crossing count inconsistent with closure")
        except _NonGeneric:
            continue
        return BraidWord(letters, ambient)
    raise ValidationError(f"non-generic projection after {_RETRIES} retries")


def _read_crossings(tracks: np.ndarray):
    """Letters of the x-crossings, and the first and last x-orders of strands."""
    d = tracks.real[:, [0, 0, 1]] - tracks.real[:, [1, 2, 2]]  # the _PAIRS
    if not d[:-1].all():
        raise _NonGeneric("x-tie at a sample time")
    step, pair = np.nonzero(np.sign(d[:-1]) * np.sign(d[1:]) < 0)
    tau = d[step, pair] / (d[step, pair] - d[step + 1, pair])
    events = sorted(zip(step.tolist(), tau.tolist(), pair.tolist()))
    order = tracks[0].real.argsort().tolist()
    start_order = list(order)
    letters: list[tuple[str, int]] = []
    i = 0
    while i < len(events):
        # group events at equal times of a step (collinear configurations
        # rotating through vertical) and resolve the block by bubble swaps
        k, tau, _ = events[i]
        j = i + 1
        while j < len(events) and events[j][0] == k and events[j][1] - tau < 1e-12:
            j += 1
        block = {frozenset(_PAIRS[e[2]]) for e in events[i:j]}
        y0, y1 = tracks[k].imag.tolist(), tracks[k + 1].imag.tolist()
        progressed = True
        while block and progressed:
            progressed = False
            for pos in range(2):
                u, v = order[pos], order[pos + 1]
                if frozenset((u, v)) in block:
                    yu = (1 - tau) * y0[u] + tau * y1[u]
                    yv = (1 - tau) * y0[v] + tau * y1[v]
                    if yu == yv:
                        raise _NonGeneric("y-tie at a crossing")
                    sign = 1 if yv > yu else -1
                    letters.append((f"s{pos + 1}", sign))
                    order[pos], order[pos + 1] = v, u
                    block.remove(frozenset((u, v)))
                    progressed = True
        if block:
            raise _NonGeneric("non-adjacent swap; sampling too coarse")
        i = j
    return _merge_syllables(letters), start_order, order


# ---------------------------------------------------------------------------
# loop file formats (CSV)


def load_plane_loop(path: str) -> PlaneLoop:
    return PlaneLoop(_read_csv(path, ("t", "re", "im"))[:, 0])


def load_config_loop(path: str) -> ConfigLoop:
    # closure is checked on unordered triples (strands may permute)
    return ConfigLoop(_read_csv(path, ("t", "re1", "im1", "re2", "im2", "re3", "im3")))


def _read_csv(path: str, header: tuple[str, ...]) -> np.ndarray:
    """The points of a loop file: one row of complex numbers per sample."""
    import csv
    from array import array

    vals = array("d")
    # rows are converted as they are read, so that the field strings of a
    # whole file are never held at once; the first bad row is reported
    try:  # open() refuses a path with a NUL byte by a ValueError
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            head = next(reader, None)
            if head is None or [h.strip() for h in head] != list(header):
                raise ValueError(f"expected CSV header {','.join(header)}")
            for row in filter(None, reader):
                if len(row) != len(header):
                    raise ValueError(f"rows need {len(header)} fields")
                vals.extend(map(float, row))
    except (ValueError, csv.Error) as exc:  # also undecodable bytes
        raise ValidationError(f"bad loop file: {exc}") from None
    rows = np.frombuffer(vals).reshape(-1, len(header))
    if len(rows) < 2:
        raise ValidationError("loop file needs at least two rows")
    if not (rows[1:, 0] > rows[:-1, 0]).all():
        raise ValidationError("t column must be strictly increasing")
    return np.ascontiguousarray(rows[:, 1:]).view(complex)
