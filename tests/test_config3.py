import cmath
import contextlib
import io
import itertools
import math
import os
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fbt import braid as B
from fbt import config3 as C
from fbt.config3 import (
    AffineMap,
    affine_normalize,
    collinearity_defect,
    compose_config_loops,
    compose_loops,
    config_loop,
    decode_braid,
    decode_word,
    in_h,
    plane_loop,
    reverse_config_loop,
    reverse_loop,
    triple,
    winding_numbers,
)
from fbt.errors import ValidationError
from fbt.words import concat, invert, word


def circle(center, r, n=400, ccw=True, phase=0.0):
    sign = 1.0 if ccw else -1.0
    return [center + r * cmath.exp(1j * (phase + sign * 2 * math.pi * k / n))
            for k in range(n + 1)]


def rotation_loop(angle, n=720, points=(-1.0, 0.0, 1.0)):
    return config_loop([
        triple(*(p * cmath.exp(1j * angle * k / n) for p in points))
        for k in range(n + 1)])


def test_in_h_examples():
    assert in_h(triple(-1, 0, 1))
    assert not in_h(triple(-1, 1j, 1))
    assert in_h(triple(0, 1 + 1j, 2 + 2j))


def test_in_h_affine_invariance():
    rng = random.Random(19)
    for _ in range(1000):
        pts = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3)]
        try:
            t = triple(*pts)
        except ValidationError:
            continue
        if abs(collinearity_defect(t) - 1e-9) < 1e-10:
            continue  # keep clear of the tolerance boundary
        a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(a) < 0.1:
            continue
        b = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        m = AffineMap(a, b)
        t2 = triple(*(m(z) for z in t.points))
        assert in_h(t2) == in_h(t)


def test_affine_normalize():
    t, m = affine_normalize(triple(0, 1 + 1j, 2), (0, 2))
    assert t.points == (-1 + 0j, 1j, 1 + 0j)
    t2, m2 = affine_normalize(triple(-1, 0.5j, 1), (-1, 1))
    assert (m2.a, m2.b) == (1 + 0j, 0j)
    rng = random.Random(3)
    for _ in range(200):
        pts = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3)]
        try:
            t = triple(*pts)
        except ValidationError:
            continue
        tn, m = affine_normalize(t, (pts[0], pts[1]))
        assert abs(m(pts[0]) + 1) < 1e-12 and abs(m(pts[1]) - 1) < 1e-12
        if in_h(t):
            assert in_h(tn)
    with pytest.raises(ValidationError):
        affine_normalize(triple(0, 1, 2), (1, 1))


def test_decode_word_generators():
    for r in (0.1, 0.3):
        a2 = decode_word(plane_loop(circle(1.0, r, phase=math.pi)))
        assert a2 == word((2, 1))
        a2inv = decode_word(reverse_loop(plane_loop(circle(1.0, r, phase=math.pi))))
        assert a2inv == word((2, -1))
        a1 = decode_word(plane_loop(circle(-1.0, r)))
        assert a1 == word((1, 1))


def test_decode_word_composition():
    # figure: circle around -1 then circle around 1, joined at 0
    c1 = circle(-1.0, 1.0, phase=0.0)          # starts/ends at 0
    c2 = circle(1.0, 1.0, phase=math.pi)       # starts/ends at 0
    figure = compose_loops(plane_loop(c1), plane_loop(c2))
    w = decode_word(figure)
    assert w == word((1, 1), (2, 1))
    assert winding_numbers(figure) == (1, 1)
    rng = random.Random(8)
    loops = [plane_loop(circle(-1.0, 0.5)), plane_loop(circle(1.0, 0.5, phase=math.pi)),
             plane_loop(circle(-1.0, 0.5, ccw=False))]
    for l1 in loops:
        for l2 in loops:
            if abs(l1.samples[-1] - l2.samples[0]) > 1e-12:
                continue
            w12 = decode_word(compose_loops(l1, l2))
            assert w12 == concat(decode_word(l1), decode_word(l2))


def test_decode_word_inverse_and_refinement():
    for n in (300, 600):
        lp = plane_loop(circle(-1.0, 0.4, n=n))
        assert decode_word(lp) == word((1, 1))
        assert decode_word(reverse_loop(lp)) == invert(word((1, 1)))


def test_decode_word_winding_oracle():
    rng = random.Random(21)
    for _ in range(60):
        # random loop from composed puncture circles, all based at 0
        pieces = []
        for _ in range(rng.randrange(1, 4)):
            c = rng.choice((-1.0, 1.0))
            pieces.append(plane_loop(circle(c, 1.0, ccw=rng.random() < 0.5,
                                            phase=0.0 if c < 0 else math.pi)))
        loop = pieces[0]
        for p in pieces[1:]:
            loop = compose_loops(loop, p)
        w = decode_word(loop)
        s1, s2 = w.exponent_sums()
        assert (s1, s2) == winding_numbers(loop)


def test_decode_word_clearance():
    with pytest.raises(ValidationError, match="clearance"):
        plane_loop([1.0 + 5e-10j, 1.0 + 5e-10j])


def test_decode_braid_rotations():
    b = decode_braid(rotation_loop(math.pi))
    assert B.equal(b, B.parse_braid("d"))
    assert b.exponent_sum() == 3
    b2 = decode_braid(rotation_loop(2 * math.pi))
    assert B.equal(b2, B.parse_braid("d^2"))
    assert b2.exponent_sum() == 6
    const = config_loop([triple(-1, 0, 1)] * 8)
    assert B.equal(decode_braid(const), B.braid(""))


def test_decode_braid_generators():
    n = 500
    loop = config_loop([triple(-1, -1 + 0.3 * cmath.exp(2j * math.pi * k / n), 1)
                        for k in range(n + 1)])
    assert B.equal(decode_braid(loop), B.parse_braid("s1^2"))
    loop = config_loop([triple(-1, 1 + 0.3 * cmath.exp(2j * math.pi * k / n), 1)
                        for k in range(n + 1)])
    assert B.equal(decode_braid(loop), B.parse_braid("s2^2"))


def test_decode_braid_composition_and_inverse():
    half = rotation_loop(math.pi)
    second = config_loop([
        triple(*(p * cmath.exp(1j * (math.pi + math.pi * k / 720)) for p in (-1, 0, 1)))
        for k in range(721)])
    comp = compose_config_loops(half, second)
    assert B.equal(decode_braid(comp),
                   B.braid_concat(decode_braid(half), decode_braid(second)))
    rev = decode_braid(reverse_config_loop(half))
    assert B.equal(rev, B.braid_invert(decode_braid(half)))


def test_decode_braid_refinement_stable():
    for n in (360, 720, 1440):
        b = decode_braid(rotation_loop(math.pi, n=n))
        assert B.equal(b, B.parse_braid("d"))


def test_decode_braid_mod_center_ambient():
    b = decode_braid(rotation_loop(math.pi), ambient=B.MOD_CENTER)
    assert b.ambient == B.MOD_CENTER
    assert B.equal(b, B.parse_braid("@mod-center d"))


def test_tracking_violation():
    jumpy = [triple(-1, 0, 1), triple(-0.3, 0.7, 1.7), triple(-1, 0, 1)]
    with pytest.raises(ValidationError, match="tracking"):
        decode_braid(config_loop(jumpy))


def test_pure_braid_word_correspondence():
    # the center quotient of the pure braid group is the free group on
    # a1 = s1^2, a2 = s2^2: a loop whose middle point circles -1 k times,
    # slides along the axis, and circles 1 m times decodes to s1^{2k} s2^{2m};
    # the middle trajectory itself decodes to the word a1^k a2^m
    from fbt.words import word

    n = 360
    for k, m in ((1, 1), (2, -1), (-1, 2)):
        z2_path = []
        z2_path += [-1 + 0.3 * cmath.exp(2j * math.pi * k * i / n) for i in range(n + 1)]
        z2_path += [-0.7 + 1.4 * i / n for i in range(1, n + 1)]
        z2_path += [1 + 0.3 * cmath.exp(1j * (math.pi + 2 * math.pi * m * i / n))
                    for i in range(1, n + 1)]
        z2_path += [0.7 - 1.4 * i / n for i in range(1, n + 1)]
        loop = config_loop([triple(-1, z2, 1) for z2 in z2_path])
        b = decode_braid(loop)
        assert B.equal(b, B.parse_braid(f"s1^{2 * k} s2^{2 * m}"))
        w = decode_word(plane_loop(z2_path))
        assert w == word((1, k), (2, m))


def test_loops_avoiding_collinearity_are_periodic():
    # a loop that never meets the collinear hypersurface decodes to a power
    # of the period-3 rotation braid: its cube is the full twist
    n = 600
    base = [1j, 1j * cmath.exp(2j * math.pi / 3), 1j * cmath.exp(4j * math.pi / 3)]

    def third(start_thirds):
        phase = 2j * math.pi * start_thirds / 3
        return config_loop([
            triple(*(p * cmath.exp(phase) * cmath.exp(2j * math.pi * i / (3 * n))
                     for p in base))
            for i in range(n + 1)])

    loop = third(0)
    for row in loop.samples.tolist():
        assert not in_h(triple(*row))
    b = decode_braid(loop)
    assert b.exponent_sum() == 2
    cube = C.compose_config_loops(C.compose_config_loops(loop, third(1)), third(2))
    b3 = decode_braid(cube)
    assert B.equal(b3, B.parse_braid("d^2"))
    assert B.equal(B.braid_concat(b, b, b), b3)


def test_triple_validation():
    with pytest.raises(ValidationError):
        triple(0, 0, 1)


def test_triple_signed_zero_is_not_distinct():
    # -0.0 == 0.0: the two points are the same point of the plane
    with pytest.raises(ValidationError, match="pairwise distinct"):
        triple(0j, complex(-0.0, 0.0), 1)
    with pytest.raises(ValidationError, match="pairwise distinct"):
        triple(1, complex(2.0, -0.0), complex(2.0, 0.0))


def test_triple_messages_and_stored_order():
    # the finiteness check comes first, also when two points coincide
    with pytest.raises(ValidationError, match="finite"):
        triple(0, 0, complex(math.nan, 0.0))
    with pytest.raises(ValidationError, match="pairwise distinct"):
        triple(2, 1j, 2)
    t = triple(complex(1, 0), complex(-1, 2), complex(-1, -2))
    assert t.points == (complex(-1, -2), complex(-1, 2), complex(1, 0))
    assert type(t.points) is tuple


def test_loop_csv_round_trip(tmp_path):
    path = tmp_path / "plane.csv"
    samples = circle(-1.0, 0.5, n=64)
    with open(path, "w") as fh:
        fh.write("t,re,im\n")
        for k, z in enumerate(samples):
            fh.write(f"{k},{z.real!r},{z.imag!r}\n")
    loop = C.load_plane_loop(str(path))
    assert decode_word(loop) == word((1, 1))

    path2 = tmp_path / "config.csv"
    rot = rotation_loop(math.pi, n=256)
    with open(path2, "w") as fh:
        fh.write("t,re1,im1,re2,im2,re3,im3\n")
        for k, (a, b, c) in enumerate(rot.samples.tolist()):
            fh.write(f"{k},{a.real!r},{a.imag!r},{b.real!r},{b.imag!r},{c.real!r},{c.imag!r}\n")
    loop2 = C.load_config_loop(str(path2))
    assert B.equal(decode_braid(loop2), B.parse_braid("d"))

    bad = tmp_path / "bad.csv"
    with open(bad, "w") as fh:
        fh.write("x,y\n0,1\n")
    with pytest.raises(ValidationError, match="header"):
        C.load_plane_loop(str(bad))


# ---------------------------------------------------------------------------
# the per-sample decoders, kept as references for the array decoders

_PERMS3 = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))


def _ref_track_strands(samples):
    """Min-max matching over the six strand permutations, sample by sample."""
    samples = samples.tolist()

    def min_gap(t):
        a, b, c = t
        return min(abs(a - b), abs(a - c), abs(b - c))

    tracks = [tuple(samples[0])]
    for idx in range(1, len(samples)):
        prev, cur = tracks[-1], samples[idx]
        gap = min(min_gap(samples[idx]), min_gap(samples[idx - 1]))
        best, best_cost = None, None
        for perm in _PERMS3:
            cost = max(abs(prev[i] - cur[perm[i]]) for i in range(3))
            if best_cost is None or cost < best_cost:
                best, best_cost = perm, cost
        if best_cost >= gap / 2:
            raise ValidationError(f"tracking condition violated at sample {idx}")
        tracks.append(tuple(cur[best[i]] for i in range(3)))
    return tracks


def _ref_crossing_events(p0, p1):
    events = []
    for u in range(3):
        for v in range(u + 1, 3):
            d0 = p0[u].real - p0[v].real
            d1 = p1[u].real - p1[v].real
            if d0 == 0.0:
                raise C._NonGeneric("coincidence at a sample time")
            if d0 * d1 < 0.0:
                events.append((d0 / (d0 - d1), u, v))
    events.sort(key=lambda e: e[0])
    return events


def _ref_read_crossings(tracks):
    order = sorted(range(3), key=lambda i: tracks[0][i].real)
    if tracks[0][order[0]].real == tracks[0][order[1]].real or \
            tracks[0][order[1]].real == tracks[0][order[2]].real:
        raise C._NonGeneric("x-tie at the base point")
    start_order = list(order)
    letters = []
    for p0, p1 in zip(tracks, tracks[1:]):
        events = _ref_crossing_events(p0, p1)
        i = 0
        while i < len(events):
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
                            raise C._NonGeneric("y-tie at a crossing")
                        letters.append((f"s{pos + 1}", 1 if yv > yu else -1))
                        order[pos], order[pos + 1] = v, u
                        block.remove(frozenset((u, v)))
                        progressed = True
            if block:
                raise C._NonGeneric("non-adjacent swap; sampling too coarse")
            i = j
    return C._merge_syllables(letters), start_order, order


def _ref_decode_braid(loop):
    tracks = _ref_track_strands(loop.samples)
    for attempt in range(C._RETRIES):
        rot = cmath.exp(-1j * (0.7548776662466927 + attempt * 2.399963229728653))
        rotated = [tuple(rot * z for z in tri) for tri in tracks]
        try:
            letters, start_order, final_order = _ref_read_crossings(rotated)
            perm = [min(range(3), key=lambda i: abs(z - rotated[0][i]))
                    for z in rotated[-1]]
            if sorted(perm) != [0, 1, 2]:
                raise ValidationError("loop endpoints do not match as configurations")
            if [perm[i] for i in final_order] != start_order:
                raise C._NonGeneric("crossing count inconsistent with closure")
        except C._NonGeneric:
            continue
        return B.BraidWord(letters)
    raise ValidationError(f"non-generic projection after {C._RETRIES} retries")


def _ref_decode_word(loop):
    samples = loop.samples.tolist()
    letters = []
    prev = samples[0]
    prev_state = 1 if prev.imag >= 0 else -1
    for z in samples[1:]:
        state = 1 if z.imag >= 0 else -1
        if state != prev_state:
            t = prev.imag / (prev.imag - z.imag)
            x = prev.real + t * (z.real - prev.real)
            if abs(x - 1.0) < C.CLEARANCE or abs(x + 1.0) < C.CLEARANCE:
                raise ValidationError("crossing too close to a puncture")
            down = prev_state > 0
            if x < -1.0:
                letters.append((1, 1 if down else -1))
            elif x > 1.0:
                letters.append((2, -1 if down else 1))
        prev, prev_state = z, state
    return word(*letters)


def _ref_winding_numbers(loop):
    samples = loop.samples.tolist()
    out = []
    for p in (-1.0, 1.0):
        total = 0.0
        for za, zb in zip(samples, samples[1:]):
            total += cmath.phase((zb - p) / (za - p))
        out.append(round(total / (2 * math.pi)))
    return tuple(out)


def _outcome(fn, loop):
    try:
        return fn(loop)
    except ValidationError as exc:
        return str(exc)


def _half_twists(letters, per):
    """Strands in slots i, i+1 of (-1, 0, 1) turned by +-pi about their
    midpoint in `per` steps for each letter s_i^{+-1}."""
    base = (-1 + 0j, 0j, 1 + 0j)
    out = [base]
    for gen, exp in letters:
        mid = (base[gen - 1] + base[gen]) / 2
        for _ in range(abs(exp)):
            for step in range(1, per):
                rot = cmath.exp(1j * math.copysign(math.pi, exp) * step / per)
                pts = list(base)
                pts[gen - 1] = mid + (base[gen - 1] - mid) * rot
                pts[gen] = mid + (base[gen] - mid) * rot
                out.append(tuple(pts))
            out.append(base)
    return out


def _random_motion(rng):
    """Half twists of a random word, wobbled by a closed random path and
    sampled finely or coarsely (coarse samples break the tracking)."""
    letters = [(rng.choice((1, 2)), rng.choice((-2, -1, 1, 2)))
               for _ in range(rng.randrange(1, 5))]
    samples = _half_twists(letters, rng.choice((3, 8, 16, 32)))
    n = len(samples) - 1
    amp = rng.choice((0.0, 0.02, 0.06, 0.2))
    modes = [[complex(rng.gauss(0, amp), rng.gauss(0, amp)) for _ in range(3)]
             for _ in range(3)]
    out = []
    for k, pts in enumerate(samples):
        s = 2 * math.pi * k / n
        out.append(triple(*(z + sum(m[i] * (cmath.exp(1j * (f + 1) * s) - 1)
                                    for f, m in enumerate(modes))
                            for i, z in enumerate(pts))))
    return config_loop(out)


def test_decode_braid_matches_per_sample_reference():
    rng = random.Random(2024)
    decoded = failed = 0
    for _ in range(240):
        loop = _random_motion(rng)
        got, ref = _outcome(decode_braid, loop), _outcome(_ref_decode_braid, loop)
        if isinstance(ref, str):
            assert got == ref
            failed += 1
        else:
            assert got.letters == ref.letters
            decoded += 1
    assert decoded >= 100 and failed >= 100
    # the half-twist motions of the benchmark: collinear configurations
    # rotating through vertical give simultaneous events
    for per in (8, 9, 16, 60):
        letters = [(1 + k % 2, (-1) ** k * (1 + k % 3)) for k in range(7)]
        loop = config_loop([triple(*pts) for pts in _half_twists(letters, per)])
        got = decode_braid(loop)
        assert got.letters == _ref_decode_braid(loop).letters
        assert B.equal(got, B.BraidWord(tuple((f"s{g}", e) for g, e in letters)))


def test_decode_word_matches_per_sample_reference():
    rng = random.Random(77)
    for _ in range(320):
        n = rng.randrange(3, 60)
        pts = [complex(rng.uniform(-3, 3), rng.uniform(-2, 2)) for _ in range(n)]
        if rng.random() < 0.3:
            pts = [z.real + 0j if abs(z.real) > 0.5 else z for z in pts]
        loop = plane_loop(pts + pts[:1])
        assert _outcome(decode_word, loop) == _outcome(_ref_decode_word, loop)
        assert winding_numbers(loop) == _ref_winding_numbers(loop)


@pytest.mark.parametrize("k", [0, 1, 4, C._RETRIES - 1])
def test_decode_braid_retries_next_angle(monkeypatch, k):
    loop = rotation_loop(math.pi, n=90)
    read, seen = C._read_crossings, []

    def non_generic_first_k(rotated):
        seen.append(rotated[0])
        if len(seen) <= k:
            raise C._NonGeneric("forced")
        return read(rotated)

    monkeypatch.setattr(C, "_read_crossings", non_generic_first_k)
    assert B.equal(decode_braid(loop), B.parse_braid("d"))
    beta = 0.7548776662466927 + k * 2.399963229728653
    assert len(seen) == k + 1
    assert seen[-1].tolist() == [z * cmath.exp(-1j * beta) for z in loop.samples[0].tolist()]


def test_decode_braid_gives_up_after_all_angles(monkeypatch, tmp_path, capsys):
    def never_generic(rotated):
        raise C._NonGeneric("forced")

    monkeypatch.setattr(C, "_read_crossings", never_generic)
    loop = rotation_loop(math.pi, n=90)
    with pytest.raises(ValidationError, match="non-generic projection after 8 retries"):
        decode_braid(loop)
    path = tmp_path / "strands.csv"
    with open(path, "w") as fh:
        fh.write("t,re1,im1,re2,im2,re3,im3\n")
        for k, row in enumerate(loop.samples.tolist()):
            fh.write(",".join([str(k)] + [repr(x) for z in row
                                          for x in (z.real, z.imag)]) + "\n")
    from fbt import cli

    assert cli.main(["config3", "decode-braid", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: non-generic projection after 8 retries\n"


# ---------------------------------------------------------------------------
# the per-sample and per-row loop checks, kept as references for the array
# checks of PlaneLoop and _read_csv

@C._refuse_overflow
def _ref_check_plane_samples(samples):
    if len(samples) < 2:
        raise ValidationError("loop needs at least two samples")
    if abs(samples[0] - samples[-1]) > C.CLOSE_TOL:
        raise ValidationError("loop is not closed")
    for i, z in enumerate(samples):
        if not cmath.isfinite(z):
            raise ValidationError(f"sample {i} is not finite")
        if abs(z - 1.0) < C.CLEARANCE or abs(z + 1.0) < C.CLEARANCE:
            raise ValidationError(f"sample {i} violates puncture clearance")


def _ref_read_csv(path, header):
    import csv
    from array import array

    vals = array("d")
    with open(path, newline="") as fh:
        try:
            reader = csv.reader(fh)
            head = next(reader, None)
            if head is None or [h.strip() for h in head] != list(header):
                raise ValueError(f"expected CSV header {','.join(header)}")
            for row in filter(None, reader):
                if len(row) != len(header):
                    raise ValueError(f"rows need {len(header)} fields")
                vals.extend(map(float, row))
        except (ValueError, csv.Error) as exc:
            raise ValidationError(f"bad loop file: {exc}") from None
    rows = np.frombuffer(vals).reshape(-1, len(header))
    if len(rows) < 2:
        raise ValidationError("loop file needs at least two rows")
    ts = rows[:, 0].tolist()
    if not all(b > a for a, b in zip(ts, ts[1:])):
        raise ValidationError("t column must be strictly increasing")
    return np.ascontiguousarray(rows[:, 1:]).view(complex)


def _raised(fn, *args):
    """(type, message) of the exception fn(*args) raises, or its result."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


_BAD_SAMPLES = (complex(math.nan, 0.0), complex(0.0, -math.inf),
                complex(1.7e308, 1.7e308), complex(-1.7e308, 1e308),
                complex(1.0 + 5e-10, 0.0), complex(-1.0, -9.9e-10), 1000 + 0j)
_SAMPLE = st.one_of(
    st.complex_numbers(max_magnitude=3.0), st.complex_numbers(),
    st.sampled_from(_BAD_SAMPLES),
    # within about CLEARANCE of a puncture, on either side of it
    st.builds(lambda p, r, t: p + r * cmath.exp(1j * t), st.sampled_from([1.0, -1.0]),
              st.floats(0.0, 2e-9), st.floats(0.0, 2 * math.pi)))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(samples=st.lists(_SAMPLE, max_size=10), closed=st.sampled_from([True, True, False]))
def test_plane_loop_check_matches_per_sample_reference(samples, closed):
    samples = tuple(samples + samples[:1] if closed else samples)
    got = _raised(C.PlaneLoop, samples)
    want = _raised(_ref_check_plane_samples, samples)
    assert (None if isinstance(got, C.PlaneLoop) else got) == want


@pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
def test_plane_loop_reports_the_first_bad_sample(order):
    faults = [complex(math.inf, 0.0), complex(1.7e308, 1.7e308), complex(1.0, 1e-10)]
    messages = ["is not finite", None, "violates puncture clearance"]
    samples = [0.5j, 0.2 + 0.5j, faults[order[0]], 0.3, faults[order[1]],
               faults[order[2]], -0.5j, 0.5j]
    first = order[0]
    want = (f"sample 2 {messages[first]}" if messages[first]
            else "coordinates too large: the arithmetic overflows")
    with pytest.raises(ValidationError) as info:
        plane_loop(samples)
    assert str(info.value) == want
    assert _raised(_ref_check_plane_samples, tuple(samples)) == (ValidationError, want)


_CSV_CELLS = st.one_of(
    st.floats().map(repr), st.integers(-3, 3).map(str),
    st.sampled_from(["nan", "-inf", "inf", "1.7e308", "1e400", " 1.5 ", "\t2", "1_000",
                     "1__0", "", "abc", "1e", "0x1", '"2.5"', '"3', "١"]))


@st.composite
def _csv_file(draw):
    """A loop file: header, rows (t mostly increasing, now and then a field
    too few or too many) and sometimes a long well-formed prefix, blank
    lines, undecodable bytes or a field beyond the csv field limit."""
    width = draw(st.sampled_from([3, 7]))
    header = ("t", "re", "im") if width == 3 else \
        ("t", "re1", "im1", "re2", "im2", "re3", "im3")
    good = ",".join(header)
    head = draw(st.sampled_from([good, good, good, " " + good.replace(",", " , "),
                                 "t,x,y", ""]))
    lines = [",".join([str(k)] + ["0.25"] * (width - 1))
             for k in range(draw(st.sampled_from([0, 0, 400])))]
    start = len(lines)
    for k in range(draw(st.integers(0, 8))):
        cells = [str(start + k)] + [draw(st.sampled_from(["0.5", "-0.25", "2.0"]))
                                    for _ in range(width - 1)]
        for _ in range(draw(st.sampled_from([0, 0, 0, 0, 1, 2]))):
            cells[draw(st.integers(0, width - 1))] = draw(_CSV_CELLS)
        cut = draw(st.sampled_from([0] * 10 + [-1, 1]))
        cells = cells[:cut] if cut < 0 else cells + ["0"] * cut
        lines.append(",".join(cells))
        if draw(st.integers(0, 9)) == 0:
            lines.append("")
    data = "\n".join([head] + lines).encode() + b"\n"
    extra = draw(st.sampled_from([b"", b"", b"", b"\xff\xfe,1,2\n", b"0," + b"1" * 140000 + b",0\n"]))
    at = draw(st.integers(0, len(data)))
    at = data.rfind(b"\n", 0, at) + 1  # at a line start
    return header, data[:at] + extra + data[at:]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(case=_csv_file())
def test_read_csv_matches_per_row_reference(case):
    import tempfile
    from pathlib import Path

    header, data = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "loop.csv"
        path.write_bytes(data)
        got = _raised(C._read_csv, str(path), header)
        want = _raised(_ref_read_csv, str(path), header)
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray) and got.dtype == want.dtype
        assert np.array_equal(got.view(float), want.view(float), equal_nan=True)
    else:
        assert got == want


_GOOD_ROWS = "".join(f"{k},0.5,0.25\n" for k in range(2, 1502))  # past one read chunk


@pytest.mark.parametrize("body,message", [
    ("0,abc,0\n1,0.5\n", "could not convert string to float: 'abc'"),
    ("0,0.5\n1,abc,0\n", "rows need 3 fields"),
    ("0, 1_000 ,0\n1,0.5,x\n2,0.5\n", "could not convert string to float: 'x'"),
    ("0,0.5,0\n1,nan,inf,7\n2,y,0\n", "rows need 3 fields"),
    # a fault in the rows read before undecodable bytes or an oversized
    # field is reported first; after them, the reader's error is
    ("0,0.5,0\n1,z,0\n" + _GOOD_ROWS + "\udcff\n", "could not convert string to float: 'z'"),
    ("0,0.5,0\n1,0.5,0\n" + _GOOD_ROWS + "\udcff\n9,z,0\n", "'utf-8' codec can't decode"),
    ("0,0.5,0\n1,0.5\n" + "9," + "1" * 140000 + ",0\n", "rows need 3 fields"),
    ("0,0.5,0\n9," + "1" * 140000 + ",0\n1,0.5\n", "field larger than field limit"),
], ids=("float-then-short", "short-then-float", "padded-then-float", "long-then-float",
        "float-then-bytes", "bytes-then-float", "short-then-huge", "huge-then-short"))
def test_read_csv_reports_the_first_bad_row(tmp_path, body, message):
    path = tmp_path / "loop.csv"
    path.write_bytes(("t,re,im\n" + body).encode("utf-8", "surrogateescape"))
    got = _raised(C._read_csv, str(path), ("t", "re", "im"))
    assert got == _raised(_ref_read_csv, str(path), ("t", "re", "im"))
    assert got[0] is ValidationError and got[1].startswith("bad loop file: " + message)


# ---------------------------------------------------------------------------
# configuration loops held as arrays: the per-row Triple construction is the
# reference for the array checks of ConfigLoop

@C._refuse_overflow
def _ref_config_loop(rows):
    samples = [triple(*row) for row in rows.tolist()]
    if len(samples) < 2:
        raise ValidationError("loop needs at least two samples")
    first, last = samples[0].points, samples[-1].points
    if any(abs(a - b) > 1e-9 for a, b in zip(first, last)):
        raise ValidationError("configuration loop is not closed")
    return np.array([t.points for t in samples], dtype=complex)


_SIGNED_ZEROS = [complex(x, y) for x in (0.0, -0.0) for y in (0.0, -0.0)]
_POINT = st.one_of(
    st.complex_numbers(), st.complex_numbers(max_magnitude=2.0),
    # few values, so that points coincide, also as signed zeros
    st.sampled_from(_SIGNED_ZEROS + [1 + 0j, complex(1.0, -0.0), 1j, complex(-0.0, 1.0)]),
    st.sampled_from([complex(math.nan, 0.0), complex(0.0, -math.inf), complex(math.inf, 1.0),
                     complex(1.7e308, 1.7e308), complex(-1.7e308, 1e308), complex(1e308, 0.0),
                     complex(-1.7e308, 0.0)]))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(rows=st.lists(st.lists(_POINT, min_size=3, max_size=3), max_size=8),
       end=st.sampled_from(["open", "closed", "permuted"]))
def test_config_loop_array_matches_per_row_triples(rows, end):
    if rows and end != "open":
        rows = rows + [rows[0][::-1] if end == "permuted" else rows[0]]
    rows = np.array(rows, dtype=complex).reshape(-1, 3)
    got = _raised(lambda r: C.config_loop(r).samples, rows)
    want = _raised(_ref_config_loop, rows)
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray) and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    else:
        assert got == want


@pytest.mark.parametrize("rows,message", [
    ([[0, 1, 2], [0, 0, math.nan], [1, 1, 2]], "finite"),
    ([[0, 1, 2], [1, 1, 2], [0, 0, math.nan]], "pairwise distinct"),
    ([[0, 1, 2], [complex(-0.0, 0.0), 0j, 1], [math.inf, 0, 1]], "pairwise distinct"),
    ([[0, 1, 2], [2, 1j, complex(2.0, -0.0)], [0, 1, 2]], "pairwise distinct"),
])
def test_config_loop_reports_the_first_bad_row(rows, message):
    rows = np.array(rows, dtype=complex)
    with pytest.raises(ValidationError, match=message):
        C.config_loop(rows)
    assert _raised(_ref_config_loop, rows) == \
        (ValidationError, f"triple points must be {message}")


def test_loops_hold_read_only_arrays():
    points = [triple(-1, 0, 1), triple(1j, 2, -3), triple(-1, 0, 1)]
    loop = config_loop(points)
    same = config_loop(np.array([[1, 0, -1], [-3, 2, 1j], [0, 1, -1]], dtype=complex))
    assert loop.samples.tolist() == [list(t.points) for t in points]
    assert same.samples.tobytes() == loop.samples.tobytes()
    plane = plane_loop(circle(-1.0, 0.5, n=16))
    for arr in (loop.samples, reverse_config_loop(loop).samples, plane.samples,
                compose_loops(plane, plane).samples):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0
    with pytest.raises(ValidationError, match="an \\(n, 3\\) array"):
        config_loop(np.zeros((4, 2), dtype=complex))


def test_loop_file_path_builds_no_triple(tmp_path, monkeypatch):
    built = []
    post_init = C.Triple.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(C.Triple, "__post_init__", counted)
    triple(-1, 0, 1)
    assert len(built) == 1  # the counter sees every Triple
    letters = [(1 + k % 2, (-1) ** k * (1 + k % 3)) for k in range(42)]
    samples = _half_twists(letters, 120)
    path = tmp_path / "strands.csv"
    with open(path, "w") as fh:
        fh.write("t,re1,im1,re2,im2,re3,im3\n")
        for k, pts in enumerate(samples):
            fh.write(",".join([str(k)] + [repr(x) for z in pts for x in (z.real, z.imag)]) + "\n")
    built.clear()
    loop = C.load_config_loop(str(path))
    b = decode_braid(loop)
    assert built == [] and len(loop.samples) == len(samples) > 10000
    assert B.equal(b, B.BraidWord(tuple((f"s{g}", e) for g, e in letters)))

# ---------------------------------------------------------------------------
# the config3 CLI on fixed-seed loop files, well formed and malformed: stdout,
# stderr and exit codes are pinned to literals

def _golden_files():
    """{name: (header, rows)}: strands of wobbled half twists with shuffled
    points, and a wobbled plane loop around both punctures."""
    rng = random.Random(20)
    letters = [(1 + k % 2, rng.choice((-2, -1, 1, 2))) for k in range(6)]
    strands = _half_twists(letters, 24)
    n = len(strands) - 1
    wobble = [complex(rng.gauss(0, 0.03), rng.gauss(0, 0.03)) for _ in range(3)]
    rows = []
    for k, pts in enumerate(strands):
        bump = cmath.exp(2j * math.pi * k / n) - 1
        pts = [z + w * bump for z, w in zip(pts, wobble)]
        rng.shuffle(pts)
        rows.append([repr(x) for z in pts for x in (z.real, z.imag)])

    def edited(base, **cells):
        out = [list(r) for r in base]
        for k, row in cells.items():
            out[int(k[1:])] = row.split(",")
        return out

    head3 = "re1,im1,re2,im2,re3,im3"
    files = {
        "strands.csv": (head3, rows),
        "strands-nan-then-dup.csv": (head3, edited(
            rows, r40="0.5,nan,0.0,0.0,1.0,0.0", r90="-0.0,0.0,0.0,-0.0,1.0,0.0")),
        "strands-dup-then-nan.csv": (head3, edited(
            rows, r30="2.0,1.0,0.5,0.5,2.0,1.0", r70="0.5,0.0,inf,0.0,1.0,0.0")),
        "strands-nan-and-dup-in-one-row.csv": (head3, edited(
            rows, r60="0.5,0.5,0.5,0.5,nan,1.0")),
        "strands-open.csv": (head3, rows[:n // 2]),
        "strands-huge.csv": (head3, edited(
            rows, r0="0.0,0.0,1.0,0.0,1.5e308,1.5e308",
            **{f"r{n}": "0.0,0.0,1.0,0.0,2.0,0.0"})),
        "strands-huge-tracking.csv": (head3, edited(
            rows, r0="1.5e308,1.5e308,0.0,0.0,1.0,0.0",
            **{f"r{n}": "0.0,0.0,1.5e308,1.5e308,1.0,0.0"})),
    }
    m = 700
    modes = [complex(rng.gauss(0, 0.4), rng.gauss(0, 0.4)) for _ in range(4)]
    plane = []
    for k in range(m + 1):
        s = 2 * math.pi * k / m
        z = 1.6j * math.sin(s) + 1.5 * math.sin(2 * s) + sum(
            c * (cmath.exp(1j * (f + 3) * s) - 1) for f, c in enumerate(modes))
        plane.append([repr(z.real), repr(z.imag)])
    files.update({
        "loop.csv": ("re,im", plane),
        "loop-nan.csv": ("re,im", edited(plane, r50="nan,0.5", r80="1.0,0.0")),
        "loop-puncture.csv": ("re,im", edited(plane, r80="1.0,0.0")),
        "loop-open.csv": ("re,im", plane[:-3]),
        "loop-huge.csv": ("re,im", edited(plane, r33="1.7e308,1.7e308")),
    })
    return files


def _golden_outcomes(directory):
    from fbt import cli

    out = {}
    for name, (header, rows) in _golden_files().items():
        path = os.path.join(directory, name)
        with open(path, "w") as fh:
            fh.write("t," + header + "\n")
            fh.writelines(",".join([str(k)] + r) + "\n" for k, r in enumerate(rows))
        argvs = [["decode-word"]] if name.startswith("loop") else \
            [["decode-braid"], ["decode-braid", "--mod-center"]]
        for argv in argvs:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(["config3", *argv, path])
            out[" ".join(argv[1:] + [name])] = (code, stdout.getvalue(), stderr.getvalue())
    return out


# captured from the per-row Triple loader, before loops were held as arrays
_GOLDEN = {
    'strands.csv': (
        0, ('{"ambient": "B3", "braid": "s1^-1 s2 s1^-2 s2 s1^-1 s2^-2", '
            '"exponent_sum": -4, "l_minus": 4.68213122712422, '
            '"l_plus": 5.545177444479561, '
            '"normal_form": {"b1": "a2^-2 a1^-1 a2^-1", "j": 1, "k": -2, '
            '"kind": "general", "l": 2}, "syllables": [{"degree": 1, '
            '"kind": "minus-run"}, {"degree": 2, "kind": "big-power"}, '
            '{"degree": 2, "kind": "minus-run"}], '
            '"theta": "a1^-1 a2^-2 a1^-1 a2^-1"}\n'),
        ''),
    '--mod-center strands.csv': (
        0, ('{"ambient": "B3-mod-center", '
            '"braid": "s1^-1 s2 s1^-2 s2 s1^-1 s2^-2", "exponent_sum": -4, '
            '"l_minus": 4.68213122712422, "l_plus": 5.545177444479561, '
            '"normal_form": {"b1": "a2^-2 a1^-1 a2^-1", "j": 1, "k": -2, '
            '"kind": "general", "l": 0}, "syllables": [{"degree": 1, '
            '"kind": "minus-run"}, {"degree": 2, "kind": "big-power"}, '
            '{"degree": 2, "kind": "minus-run"}], '
            '"theta": "a1^-1 a2^-2 a1^-1 a2^-1"}\n'),
        ''),
    'strands-nan-then-dup.csv': (
        2, '',
        'error: triple points must be finite\n'),
    '--mod-center strands-nan-then-dup.csv': (
        2, '',
        'error: triple points must be finite\n'),
    'strands-dup-then-nan.csv': (
        2, '',
        'error: triple points must be pairwise distinct\n'),
    '--mod-center strands-dup-then-nan.csv': (
        2, '',
        'error: triple points must be pairwise distinct\n'),
    'strands-nan-and-dup-in-one-row.csv': (
        2, '',
        'error: triple points must be finite\n'),
    '--mod-center strands-nan-and-dup-in-one-row.csv': (
        2, '',
        'error: triple points must be finite\n'),
    'strands-open.csv': (
        2, '',
        'error: configuration loop is not closed\n'),
    '--mod-center strands-open.csv': (
        2, '',
        'error: configuration loop is not closed\n'),
    'strands-huge.csv': (
        2, '',
        'error: coordinates too large: the arithmetic overflows\n'),
    '--mod-center strands-huge.csv': (
        2, '',
        'error: coordinates too large: the arithmetic overflows\n'),
    'strands-huge-tracking.csv': (
        2, '',
        'error: coordinates too large: the arithmetic overflows\n'),
    '--mod-center strands-huge-tracking.csv': (
        2, '',
        'error: coordinates too large: the arithmetic overflows\n'),
    'loop.csv': (
        0, '{"windings": [1, 1], "word": "a1 a2"}\n',
        ''),
    'loop-nan.csv': (
        2, '',
        'error: sample 50 is not finite\n'),
    'loop-puncture.csv': (
        2, '',
        'error: sample 80 violates puncture clearance\n'),
    'loop-open.csv': (
        2, '',
        'error: loop is not closed\n'),
    'loop-huge.csv': (
        2, '',
        'error: coordinates too large: the arithmetic overflows\n'),
}


def test_config3_cli_golden(tmp_path):
    assert _golden_outcomes(str(tmp_path)) == _GOLDEN
