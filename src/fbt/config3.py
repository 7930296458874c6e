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

decode_braid reads a geometric braid from strand trajectories: after a
generic rotation of the plane, x-coordinate coincidences of linearly
interpolated strands give the crossing events; the strand arriving from
the right passing above the other yields a positive Artin letter.
Simultaneous events (a collinear configuration rotating through vertical)
are resolved by bubble decomposition, which is well defined up to the
braid relation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

from .braid import B3, BraidWord
from .errors import ValidationError
from .words import FreeWord, _merge_syllables, reduce as reduce_word

CLEARANCE = 1e-9
IN_H_TOL = 1e-9
CLOSE_TOL = 1e-12
_RETRIES = 8  # generic projection angles tried by decode_braid


@dataclass(frozen=True)
class Triple:
    """Unordered triple of pairwise distinct points, stored sorted by (Re, Im)."""

    points: tuple[complex, complex, complex]

    def __post_init__(self):
        if not all(cmath.isfinite(z) for z in self.points):
            raise ValidationError("triple points must be finite")
        pts = tuple(sorted(self.points, key=lambda z: (z.real, z.imag)))
        object.__setattr__(self, "points", pts)
        if len({(z.real, z.imag) for z in pts}) != 3:
            raise ValidationError("triple points must be pairwise distinct")

    def min_gap(self) -> float:
        a, b, c = self.points
        return min(abs(a - b), abs(a - c), abs(b - c))


def triple(z1: complex, z2: complex, z3: complex) -> Triple:
    return Triple((complex(z1), complex(z2), complex(z3)))


def in_h(t: Triple, tol: float = IN_H_TOL) -> bool:
    """True iff the three points lie on a real line, up to tol on
    Im (z2-z1)/(z3-z1) minimized over labellings."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ValidationError("tolerance must be finite and >= 0")
    return collinearity_defect(t) <= tol


def collinearity_defect(t: Triple) -> float:
    a, b, c = t.points
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


@dataclass(frozen=True)
class PlaneLoop:
    samples: tuple[complex, ...]

    def __post_init__(self):
        if len(self.samples) < 2:
            raise ValidationError("loop needs at least two samples")
        if abs(self.samples[0] - self.samples[-1]) > CLOSE_TOL:
            raise ValidationError("loop is not closed")
        for i, z in enumerate(self.samples):
            if not cmath.isfinite(z):
                raise ValidationError(f"sample {i} is not finite")
            if abs(z - 1.0) < CLEARANCE or abs(z + 1.0) < CLEARANCE:
                raise ValidationError(f"sample {i} violates puncture clearance")


def plane_loop(samples: Sequence[complex]) -> PlaneLoop:
    return PlaneLoop(tuple(complex(z) for z in samples))


def compose_loops(l1: PlaneLoop, l2: PlaneLoop) -> PlaneLoop:
    if abs(l1.samples[-1] - l2.samples[0]) > CLOSE_TOL:
        raise ValidationError("loops do not share a base point")
    return PlaneLoop(l1.samples + l2.samples[1:])


def reverse_loop(l: PlaneLoop) -> PlaneLoop:
    return PlaneLoop(tuple(reversed(l.samples)))


def decode_word(loop: PlaneLoop) -> FreeWord:
    """Reduced word of the loop in pi_1 of the twice punctured plane."""
    letters: list[tuple[int, int]] = []
    prev = loop.samples[0]
    prev_state = 1 if prev.imag >= 0 else -1
    for z in loop.samples[1:]:
        state = 1 if z.imag >= 0 else -1
        if state != prev_state:
            t = prev.imag / (prev.imag - z.imag)
            x = prev.real + t * (z.real - prev.real)
            if abs(x - 1.0) < CLEARANCE or abs(x + 1.0) < CLEARANCE:
                raise ValidationError("crossing too close to a puncture")
            down = prev_state > 0
            if x < -1.0:
                letters.append((1, 1 if down else -1))
            elif x > 1.0:
                letters.append((2, -1 if down else 1))
            # the middle segment is the spanning-tree edge: no letter
        prev, prev_state = z, state
    return reduce_word(letters)


def winding_numbers(loop: PlaneLoop) -> tuple[int, int]:
    """Winding numbers about -1 and 1 (an independent abelianized oracle)."""
    out = []
    for p in (-1.0, 1.0):
        total = 0.0
        for za, zb in zip(loop.samples, loop.samples[1:]):
            total += cmath.phase((zb - p) / (za - p))
        out.append(round(total / (2 * math.pi)))
    return out[0], out[1]


# ---------------------------------------------------------------------------
# configuration loops and the braid decoder


@dataclass(frozen=True)
class ConfigLoop:
    samples: tuple[Triple, ...]

    def __post_init__(self):
        if len(self.samples) < 2:
            raise ValidationError("loop needs at least two samples")
        first, last = self.samples[0].points, self.samples[-1].points
        if any(abs(a - b) > 1e-9 for a, b in zip(first, last)):
            raise ValidationError("configuration loop is not closed")


def config_loop(samples: Sequence[Triple]) -> ConfigLoop:
    return ConfigLoop(tuple(samples))


def compose_config_loops(l1: ConfigLoop, l2: ConfigLoop) -> ConfigLoop:
    a, b = l1.samples[-1].points, l2.samples[0].points
    if any(abs(x - y) > 1e-9 for x, y in zip(a, b)):
        raise ValidationError("loops do not share a base configuration")
    return ConfigLoop(l1.samples + l2.samples[1:])


def reverse_config_loop(l: ConfigLoop) -> ConfigLoop:
    return ConfigLoop(tuple(reversed(l.samples)))


_PERMS3 = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))


def _track_strands(samples: Sequence[Triple]) -> list[tuple[complex, complex, complex]]:
    """Assign consistent strand labels by nearest-point matching."""
    tracks = [samples[0].points]
    for idx in range(1, len(samples)):
        prev = tracks[-1]
        cur = samples[idx].points
        gap = min(samples[idx].min_gap(), samples[idx - 1].min_gap())
        best, best_cost = None, None
        for perm in _PERMS3:
            cost = max(abs(prev[i] - cur[perm[i]]) for i in range(3))
            if best_cost is None or cost < best_cost:
                best, best_cost = perm, cost
        if best_cost >= gap / 2:
            raise ValidationError(f"tracking condition violated at sample {idx}")
        tracks.append(tuple(cur[best[i]] for i in range(3)))
    return tracks


def _crossing_events(p0: Sequence[complex], p1: Sequence[complex]):
    """Pairwise x-coincidence times of linearly interpolated strands."""
    events = []
    for u in range(3):
        for v in range(u + 1, 3):
            d0 = p0[u].real - p0[v].real
            d1 = p1[u].real - p1[v].real
            if d0 == 0.0 and d1 == 0.0:
                raise _NonGeneric("parallel strands in projection")
            if d0 == 0.0:
                raise _NonGeneric("coincidence at a sample time")
            if d0 * d1 < 0.0:
                tau = d0 / (d0 - d1)
                events.append((tau, u, v))
    events.sort(key=lambda e: e[0])
    return events


class _NonGeneric(Exception):
    pass


def decode_braid(loop: ConfigLoop, ambient: str = B3) -> BraidWord:
    """Braid of a sampled loop in the symmetrized configuration space."""
    tracks = _track_strands(loop.samples)
    for attempt in range(_RETRIES):
        # deterministic pseudo-random generic angles (golden-angle sequence)
        beta = 0.7548776662466927 + attempt * 2.399963229728653
        rot = cmath.exp(-1j * beta)
        rotated = [tuple(rot * z for z in tri) for tri in tracks]
        try:
            letters, start_order, final_order = _read_crossings(rotated)
            # closure consistency: the final x-order must be the initial one
            # relabelled by the strand permutation of the closed loop
            perm = _closure_permutation(rotated[0], rotated[-1])
            if [perm[i] for i in final_order] != start_order:
                raise _NonGeneric("crossing count inconsistent with closure")
        except _NonGeneric:
            continue
        return BraidWord(letters, ambient)
    raise ValidationError(f"non-generic projection after {_RETRIES} retries")


def _closure_permutation(first, last) -> tuple[int, int, int]:
    perm = []
    for z in last:
        j = min(range(3), key=lambda i: abs(z - first[i]))
        perm.append(j)
    if sorted(perm) != [0, 1, 2]:
        raise ValidationError("loop endpoints do not match as configurations")
    return tuple(perm)


def _read_crossings(tracks: list[tuple[complex, complex, complex]]):
    order = sorted(range(3), key=lambda i: tracks[0][i].real)
    if tracks[0][order[0]].real == tracks[0][order[1]].real or \
            tracks[0][order[1]].real == tracks[0][order[2]].real:
        raise _NonGeneric("x-tie at the base point")
    start_order = list(order)
    letters: list[tuple[str, int]] = []
    for p0, p1 in zip(tracks, tracks[1:]):
        events = _crossing_events(p0, p1)
        i = 0
        while i < len(events):
            # group events at equal times (collinear configurations rotating
            # through vertical) and resolve the block by bubble swaps
            j = i + 1
            while j < len(events) and events[j][0] - events[i][0] < 1e-12:
                j += 1
            block = {frozenset(e[1:]) for e in events[i:j]}
            tau = events[i][0]
            progressed = True
            while block and progressed:
                progressed = False
                for pos in range(2):
                    u, v = order[pos], order[pos + 1]
                    if frozenset((u, v)) in block:
                        yu = (1 - tau) * p0[u].imag + tau * p1[u].imag
                        yv = (1 - tau) * p0[v].imag + tau * p1[v].imag
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
    rows = _read_csv(path, ("t", "re", "im"))
    if abs(rows[0][1] - rows[-1][1]) > CLOSE_TOL or \
            abs(rows[0][2] - rows[-1][2]) > CLOSE_TOL:
        raise ValidationError("first and last rows must agree")
    return plane_loop([complex(r[1], r[2]) for r in rows])


def load_config_loop(path: str) -> ConfigLoop:
    # closure is checked on unordered triples (strands may permute)
    rows = _read_csv(path, ("t", "re1", "im1", "re2", "im2", "re3", "im3"))
    return config_loop([
        triple(complex(r[1], r[2]), complex(r[3], r[4]), complex(r[5], r[6]))
        for r in rows])


def _read_csv(path: str, header: tuple[str, ...]) -> list[list[float]]:
    import csv

    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        head = next(reader, None)
        if head is None or [h.strip() for h in head] != list(header):
            raise ValidationError(f"expected CSV header {','.join(header)}")
        rows = [[float(x) for x in row] for row in reader if row]
    if len(rows) < 2:
        raise ValidationError("loop file needs at least two rows")
    ts = [r[0] for r in rows]
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValidationError("t column must be strictly increasing")
    return rows
