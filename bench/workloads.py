"""The benchmark's workloads: `exact` runs the enum_census and long_words
jobs, `numeric` the grid_solve and dbar_demo jobs, back to back in each pass.

Each job class builds its inputs from a seed in its constructor (the
set-up), runs one warm-up operation, and then does its fixed work once per
call of `run` (a pass).  Every call into an fbt layer sits inside a tracer span, every
result is checked against an independent oracle, and the sizes the program
reports are written into `counts`.  The program receives only the generated
inputs; the seed never reaches it.

The jobs are paired, not run as four workloads, because the host's speed
drifts in phases of 30 s to minutes: the fewer the workloads, the longer
each run can be within the benchmark's time budget, and the more of those
phases one run's median covers.  The full sizes keep one pass short (about
4 s for `exact` and 11 s for `numeric` on a 2-core shared host), so that
one run holds several passes.
"""

from __future__ import annotations

import cmath
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import random
import traceback

import numpy as np

from fbt import bounds as Bd
from fbt import braid as B
from fbt import cli
from fbt import config3 as C
from fbt import conformal as Cf
from fbt import dbar as D
from fbt import words as W


class OracleMismatch(Exception):
    pass


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise OracleMismatch(message)


class Checker:
    """Counts operations and the ones that raised or failed their oracle."""

    def __init__(self, keep: int = 10):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []  # the first `keep` distinct messages
        self._keep = keep

    @contextlib.contextmanager
    def op(self, label: str):
        self.attempted += 1
        try:
            yield
        except Exception as exc:  # a failed operation must not stop the run
            self.failed += 1
            message = f"{label}: {type(exc).__name__}: {exc}"
            if not isinstance(exc, OracleMismatch):
                where = traceback.extract_tb(exc.__traceback__)[-1]
                message += f" ({os.path.basename(where.filename)}:{where.lineno})"
            if message not in self.failures and len(self.failures) < self._keep:
                self.failures.append(message)


def digest(*parts) -> str:
    """sha256 over the generated inputs (arrays by their bytes)."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(part.tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def _signed_magnitudes(rng: random.Random, magnitudes: list[int]) -> list[int]:
    """A seeded shuffle of a fixed multiset with seeded signs, so that the
    total |exponent| (and with it the work) does not depend on the seed."""
    mags = list(magnitudes)
    rng.shuffle(mags)
    return [m if rng.random() < 0.5 else -m for m in mags]


def _alternating(rng: random.Random, exps: list[int], first: int | None = None):
    gen = first if first is not None else rng.choice((1, 2))
    out = []
    for e in exps:
        out.append((gen, e))
        gen = 3 - gen
    return out


# ---------------------------------------------------------------------------
# enum_census: many tiny exact operations


class EnumCensus:
    SIZES = {
        "full": {"budget": 4.2, "braids": 4000, "max_letters": 30},
        "toy": {"budget": 2.0, "braids": 200, "max_letters": 12},
    }

    def __init__(self, seed: int, size: str, workdir: str):
        self.p = p = self.SIZES[size]
        rng = random.Random(seed)
        self.braids = []
        for _ in range(p["braids"]):
            letters = [(rng.choice(B.GENS), rng.choice((1, -1)))
                       for _ in range(rng.randrange(1, p["max_letters"] + 1))]
            self.braids.append(B.braid(letters, rng.choice((B.B3, B.MOD_CENTER))))
        self.digest = digest(p, [(b.letters, b.ambient) for b in self.braids])

    def warm_up(self) -> None:
        B.census(math.log(3.0))

    def run(self, tr, counts: dict, chk: Checker) -> None:
        y = self.p["budget"]
        found: list = []
        with chk.op("enumerate_words"):
            with tr.span("words.enumerate"):
                found = W.enumerate_words(y)
            with tr.span("words.count_oracle"):
                expected = W.count_words_by_patterns(y)
            counts["words.enumerate.words"] = len(found)
            expect(len(found) == expected,
                   f"{len(found)} words, the pattern counter says {expected}")
            expect(len(set(found)) == len(found), "duplicate words")
            expect(max(W.l_minus(w) for w in found) <= y + 1e-12,
                   "a word exceeds the L- budget")

        with chk.op("census"):
            with tr.span("braid.census"):
                elems = B.census(y)
            with tr.span("braid.theta_preimages", calls=len(found)):
                preimages = sum(len(B.theta_preimages(w)) for w in found)
            with tr.span("braid.matrix_image", calls=len(elems)):
                keys = {B.matrix_image(e).projective() for e in elems}
            counts["braid.census.elements"] = len(elems)
            counts["braid.census.preimages"] = preimages
            expect(len(elems) <= 15.0 * math.exp(3.0 * y),
                   f"census size {len(elems)} above 15 e^(3Y)")
            expect(len(keys) == len(elems), "census elements share a matrix key")

        for b in self.braids:
            with chk.op("normal_form round trip"):
                with tr.span("braid.normal_form"):
                    nf = B.normal_form(b)
                with tr.span("braid.equal"):
                    same = B.equal(B.expand(nf), b)
                expect(same, f"expand(normal_form(b)) != b for {B.format_braid(b)}")


# ---------------------------------------------------------------------------
# long_words: few long inputs with big exponents, decoders, CLI and bounds


def _half_twists(letters, per: int) -> list[tuple[complex, complex, complex]]:
    """Strand motion realising a braid word in s1, s2.

    Each half twist s_i^{+-1} turns the strands in slots i, i+1 of the base
    configuration (-1, 0, 1) by +-pi about their midpoint in `per` steps,
    counter-clockwise for a positive letter.
    """
    base = (complex(-1.0), 0j, complex(1.0))
    out = [base]
    for gen, exp in letters:
        sign = 1 if exp > 0 else -1
        lo = gen - 1
        mid = (base[lo] + base[lo + 1]) / 2
        for _ in range(abs(exp)):
            for step in range(1, per):
                rot = cmath.exp(1j * sign * math.pi * step / per)
                pts = list(base)
                pts[lo] = mid + (base[lo] - mid) * rot
                pts[lo + 1] = mid + (base[lo + 1] - mid) * rot
                out.append(tuple(pts))
            out.append(base)  # the swapped pair lands exactly on the base
    return out


def _puncture_loop(word_terms, n: int) -> list[complex]:
    """Plane loop based at 0 realising a word: a_1^{+-1} is a circle of
    radius 1 about -1, a_2^{+-1} one about +1, counter-clockwise for +."""
    out = [0j]
    for gen, exp in word_terms:
        centre, phase = (-1.0, 0.0) if gen == 1 else (1.0, math.pi)
        sign = 1 if exp > 0 else -1
        for _ in range(abs(exp)):
            out.extend(centre + cmath.exp(1j * (phase + sign * 2 * math.pi * k / n))
                       for k in range(1, n))
            out.append(0j)
    return out


def _write_csv(path: str, header: str, rows) -> None:
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for t, row in enumerate(rows):
            fh.write(",".join([str(t)] + [repr(x) for x in row]) + "\n")


def _thm1_ln(rank: int, lam: float) -> float:
    return math.log(3.0) + rank * (math.log(1.5) + 24.0 * math.pi * lam)


def _prop1a_ln(alpha: float, sigma: float) -> float:
    return math.log(7.0) + 192.0 * math.pi * (2.0 * alpha + 1.0) / sigma


class LongWords:
    SIZES = {
        "full": {"long_braids": 1, "syllables": 40, "max_exp": 1500,
                 "powers": (200, 400), "canon_power": 100,
                 "motions": 2, "motion_syllables": 40, "per_half_twist": 125,
                 "plane_words": 3, "plane_syllables": 12, "circle_samples": 400,
                 "topologies": ((0, 1), (1, 0), (1, 1), (2, 3)), "torus_pairs": 20},
        "toy": {"long_braids": 1, "syllables": 6, "max_exp": 60,
                "powers": (10, 20), "canon_power": 5,
                "motions": 2, "motion_syllables": 6, "per_half_twist": 20,
                "plane_words": 2, "plane_syllables": 3, "circle_samples": 64,
                "topologies": ((0, 1),), "torus_pairs": 2},
    }

    def __init__(self, seed: int, size: str, workdir: str):
        self.p = p = self.SIZES[size]
        rng = random.Random(seed)

        # long braids s_j^k b1 d^l given directly in normal form
        n, top = p["syllables"], p["max_exp"]
        self.long = []
        for _ in range(p["long_braids"]):
            j = rng.choice((1, 2))
            k = _signed_magnitudes(rng, [top // 2 + 1])[0]
            exps = _signed_magnitudes(rng, [1 + (top * i) // n for i in range(n)])
            b1 = W.FreeWord(tuple(_alternating(rng, exps, first=3 - j)))
            ell = rng.randrange(-3, 4)
            letters = [(f"s{j}", k)] + [(f"s{g}", 2 * e) for g, e in b1.terms]
            if ell:
                letters.append(("d", ell))
            lam_scale = rng.choice((0.5, 2.0))
            self.long.append((B.BraidWord(tuple(letters)), (j, k, b1, ell), lam_scale))

        # powers of a cyclically reduced word, and a conjugate of one power
        self.base = W.FreeWord(tuple(_alternating(rng, _signed_magnitudes(rng, [1, 2, 3, 2]))))
        u = W.FreeWord(tuple(_alternating(rng, _signed_magnitudes(rng, [2, 1, 1]))))
        wk = self.base.terms * p["canon_power"]
        self.conjugated = W.reduce(u.terms + wk + W.invert(u).terms)
        letters = self.base.letters() * p["canon_power"]
        shift = rng.randrange(len(letters))
        self.rotated = W.reduce(letters[shift:] + letters[:shift])

        # strand motions realising known braids; the first goes through the CLI
        mags = [1 + i % 3 for i in range(p["motion_syllables"])]
        self.motions = []
        for _ in range(p["motions"]):
            letters = _alternating(rng, _signed_magnitudes(rng, mags))
            known = B.BraidWord(tuple((f"s{g}", e) for g, e in letters))
            samples = _half_twists(letters, p["per_half_twist"])
            loop = C.config_loop([C.triple(*pts) for pts in samples])
            self.motions.append((known, loop, samples))
        self.motion_csv = os.path.join(workdir, "strands.csv")
        _write_csv(self.motion_csv, "t,re1,im1,re2,im2,re3,im3",
                   ([c for z in pts for c in (z.real, z.imag)]
                    for pts in self.motions[0][2]))

        # plane loops realising known words; the first is read from CSV
        mags = [1 + i % 3 for i in range(p["plane_syllables"])]
        self.plane = []
        for _ in range(p["plane_words"]):
            known = W.FreeWord(tuple(_alternating(rng, _signed_magnitudes(rng, mags))))
            samples = _puncture_loop(known.terms, p["circle_samples"])
            self.plane.append((known, C.plane_loop(samples), samples))
        self.plane_csv = os.path.join(workdir, "loop.csv")
        _write_csv(self.plane_csv, "t,re,im",
                   ((z.real, z.imag) for z in self.plane[0][2]))

        self.torus = [(rng.uniform(1.0, 3.0), rng.uniform(0.01, 0.5))
                      for _ in range(p["torus_pairs"])]

        # the CSV files are renderings of the first motion's and loop's samples
        self.digest = digest(
            p, [(b.letters, nf) for b, nf, _ in self.long], self.base,
            self.conjugated, self.rotated, [m[2] for m in self.motions],
            [s for _, _, s in self.plane], self.torus)

    def warm_up(self) -> None:
        B.normal_form(B.parse_braid("s1^3 s2^-2 d"))
        C.decode_braid(C.config_loop([C.triple(*pts) for pts in
                                      _half_twists([(1, 1)], 8)]))

    def run(self, tr, counts: dict, chk: Checker) -> None:
        self._long_braids(tr, chk)
        self._powers(tr, chk)
        decoded = self._braid_decodes(tr, counts, chk)
        self._word_decodes(tr, counts, chk)
        self._bounds(tr, chk, decoded)

    def _long_braids(self, tr, chk: Checker) -> None:
        for b, (j, k, b1, ell), lam_scale in self.long:
            with chk.op("long normal_form"):
                with tr.span("braid.normal_form"):
                    nf = B.normal_form(b)
                expect((nf.kind, nf.j, nf.k, nf.b1, nf.l) == ("general", j, k, b1, ell),
                       "normal form differs from the generating data")
                with tr.span("braid.matrix_image", calls=2):
                    m_in = B.matrix_image(b)
                    m_nf = B.matrix_image(B.expand(nf))
                expect(m_in == m_nf, "matrix oracle rejects the normal form")
            with chk.op("long theta"):
                qk = B.q(k)
                want = W.FreeWord((((j, qk // 2),) if qk else ()) + b1.terms)
                with tr.span("braid.theta"):
                    got = B.theta(b)
                expect(got == want, "theta differs from s_j^q(k) b1")
            with chk.op("long lemma4"):
                lam = lam_scale * W.l_minus(want) / (2.0 * math.pi)
                with tr.span("braid.lemma4"):
                    admissible = B.lemma4_admissible(b, lam)
                expect(admissible == (lam_scale >= 1.0), "lemma 4 verdict is wrong")

    def _powers(self, tr, chk: Checker) -> None:
        for k in self.p["powers"]:
            with chk.op("power"):
                with tr.span("words.power"):
                    wk = W.power(self.base, k)
                expect(wk.terms == self.base.terms * k, f"power(w, {k}) is wrong")
        with chk.op("cyclic_canonical"):
            with tr.span("words.cyclic_canonical", calls=2):
                c1 = W.cyclic_canonical(self.conjugated)
                c2 = W.cyclic_canonical(self.rotated)
            expect(c1 == c2, "conjugate words have different canonical forms")
            expect(c1.letter_length() == self.base.letter_length() * self.p["canon_power"],
                   "canonical form changed the cyclically reduced length")

    def _braid_decodes(self, tr, counts: dict, chk: Checker) -> list:
        decoded = []
        known = self.motions[0][0]
        with chk.op("cli config3 decode-braid"):
            out, err = io.StringIO(), io.StringIO()
            with tr.span("cli.main"):
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(["config3", "decode-braid", self.motion_csv])
            expect(code == 0, f"exit code {code}: {err.getvalue().strip()}")
            got = B.parse_braid(json.loads(out.getvalue())["braid"])
            with tr.span("braid.equal"):
                same = B.equal(got, known)
            expect(same, "CLI decoded braid differs from the motion's braid")
            decoded.append(got)
        total = 0
        for known, loop, samples in self.motions[1:]:
            with chk.op("decode_braid"):
                with tr.span("config3.decode_braid"):
                    got = C.decode_braid(loop)
                total += len(samples)
                with tr.span("braid.equal"):
                    same = B.equal(got, known)
                expect(same, "decoded braid differs from the motion's braid")
                decoded.append(got)
        counts["config3.decode_braid.samples"] = total
        return decoded

    def _word_decodes(self, tr, counts: dict, chk: Checker) -> None:
        total = 0
        for i, (known, loop, samples) in enumerate(self.plane):
            with chk.op("decode_word"):
                if i == 0:
                    with tr.span("config3.load"):
                        loop = C.load_plane_loop(self.plane_csv)
                with tr.span("config3.decode_word"):
                    got = C.decode_word(loop)
                with tr.span("config3.winding_numbers"):
                    windings = C.winding_numbers(loop)
                total += len(loop.samples)
                expect(got == known, "decoded word differs from the loop's word")
                expect(tuple(windings) == known.exponent_sums(),
                       "winding numbers differ from the word's exponent sums")
        counts["config3.decode_word.samples"] = total

    def _bounds(self, tr, chk: Checker, decoded: list) -> None:
        tops = [Bd.SurfaceTopology(g, m) for g, m in self.p["topologies"]]
        for b in decoded:
            with chk.op("thm1 on decoded braid"):
                with tr.span("braid.lambda_tr"):
                    lam = B.lambda_tr_lower(b)
                with tr.span("bounds", calls=len(tops)):
                    got = [Bd.thm1_bound(t, lam).ln for t in tops]
                for t, ln in zip(tops, got):
                    want = _thm1_ln(t.rank, lam)
                    expect(abs(ln - want) <= 1e-12 * max(1.0, abs(want)),
                           f"thm1 ln {ln} != {want}")
        with chk.op("prop1a upper"):
            with tr.span("bounds", calls=len(self.torus)):
                got = [Bd.prop1a_upper(a, s).ln for a, s in self.torus]
            for (a, s), ln in zip(self.torus, got):
                want = _prop1a_ln(a, s)
                expect(abs(ln - want) <= 1e-12 * abs(want), f"prop1a ln {ln} != {want}")


# ---------------------------------------------------------------------------
# grid_solve: the conformal sparse solver ladder


class GridSolve:
    SIZES = {
        "full": {"annulus_h": (1 / 40, 1 / 80, 1 / 160), "cylinder_h": 1 / 250,
                 "rect_h": 1 / 100},
        "toy": {"annulus_h": (1 / 10, 1 / 20, 1 / 40), "cylinder_h": 1 / 40,
                "rect_h": 1 / 20},
    }

    def __init__(self, seed: int, size: str, workdir: str):
        self.p = p = self.SIZES[size]
        rng = random.Random(seed)
        # the seed picks the rectangle's vertical side; the annulus and
        # cylinder ladder is fixed, so its cost does not depend on the seed
        self.rect_a = round(rng.uniform(1.2, 2.0), 2)
        h_coarse, h_mid, h_fine = p["annulus_h"]
        ann = Cf.round_annulus(1.0, 2.0)
        self.ladder = [
            ("annulus_coarse", lambda: Cf.annulus_grid(1.0, 2.0, h_coarse), ann),
            ("annulus_mid", lambda: Cf.annulus_grid(1.0, 2.0, h_mid), ann),
            ("annulus_fine", lambda: Cf.annulus_grid(1.0, 2.0, h_fine), ann),
            ("cylinder", lambda: Cf.cylinder_grid(1.0, 1.0, p["cylinder_h"]),
             Cf.flat_cylinder(1.0, 1.0)),
            ("rect_h", lambda: Cf.rectangle_grid(self.rect_a, 1.0, p["rect_h"],
                                                 marked="horizontal"),
             Cf.rectangle(self.rect_a, 1.0)),
            ("rect_v", lambda: Cf.rectangle_grid(self.rect_a, 1.0, p["rect_h"],
                                                 marked="vertical"),
             Cf.rectangle(1.0, self.rect_a)),
        ]
        self.digest = digest(p, self.rect_a)

    def warm_up(self) -> None:
        Cf.grid_extremal_length(Cf.annulus_grid(1.0, 2.0, 1 / 20))
        Cf.grid_extremal_length(Cf.cylinder_grid(1.0, 1.0, 1 / 20))

    def run(self, tr, counts: dict, chk: Checker) -> None:
        lams: dict[str, float] = {}
        errs: dict[str, float] = {}
        for label, build, spec in self.ladder:
            with chk.op(f"grid {label}"):
                with tr.span("conformal.build"):
                    dom = build()
                with tr.span(f"conformal.solve.{label}"):
                    rep = Cf.grid_extremal_length(dom)
                exact = Cf.lambda_closed_form(spec)
                lams[label] = rep.lam
                errs[label] = float(abs(rep.lam - exact) / exact)
                unknowns = int(dom.inside.sum())
                counts[f"conformal.{label}.unknowns"] = unknowns
                counts[f"conformal.{label}.iterations"] = rep.iterations
                counts[f"conformal.{label}.residual"] = rep.residual
                counts[f"conformal.{label}.rel_err"] = errs[label]
                counts["conformal.unknowns"] = counts.get("conformal.unknowns", 0) + unknowns
                counts["conformal.iterations"] = (counts.get("conformal.iterations", 0)
                                                  + rep.iterations)
                expect(rep.residual <= 1e-9, f"residual {rep.residual:.2e}")
                expect(errs[label] <= 0.02, f"lambda {rep.lam} is {errs[label]:.2%} "
                                            f"from the closed form {exact}")
        with chk.op("grid refinement and duality"):
            expect(errs["annulus_coarse"] > errs["annulus_mid"] > errs["annulus_fine"],
                   "annulus error does not shrink under refinement")
            expect(abs(lams["rect_h"] * lams["rect_v"] - 1.0) <= 0.02,
                   "rectangle duality off by more than 2%")


# ---------------------------------------------------------------------------
# dbar_demo: the dbar pipeline end to end


class DbarDemo:
    SIZES = {
        "full": {"kernel_points": 120, "quad_n": 300, "lath_samples": 120,
                 "targets": 128, "steady_calls": 2, "demo_lath_samples": 64,
                 "demo_circle": 256},
        "toy": {"kernel_points": 20, "quad_n": 400, "lath_samples": 24,
                "targets": 16, "steady_calls": 1, "demo_lath_samples": 24,
                "demo_circle": 256},
    }
    ALPHA = 1.0
    SIGMA = 0.01

    def __init__(self, seed: int, size: str, workdir: str):
        self.p = p = self.SIZES[size]
        rng = np.random.default_rng(seed)
        self.params = D.KernelParams(self.ALPHA, trunc=50)
        # kernel points in the fundamental cell, clear of 0 and of nu
        n = p["kernel_points"]
        self.kernel_z = (rng.uniform(-0.45, 0.45, n)
                         + 1j * self.ALPHA * rng.uniform(0.05, 0.45, n))
        # the criterion-7 solve: blend of a winding-one map of seeded radius
        self.rho = float(rng.uniform(0.15, 0.25))
        self.cfg = D.DbarConfig(eps=0.01, delta=0.1, quad_n=p["quad_n"],
                                lath_samples=p["lath_samples"])
        cross = D.cross_grid(self.params, self.cfg)
        self.targets = cross[np.sort(rng.choice(cross.size, p["targets"], replace=False))]
        # the demo: a seeded single-generator square
        gen, sign = int(rng.integers(1, 3)), int(rng.choice((1, -1)))
        self.target = W.word((gen, 2 * sign))
        self.demo_cfg = dataclasses.replace(
            D.demo_config(self.ALPHA, self.SIGMA, 2 * sign),
            lath_samples=p["demo_lath_samples"])
        self.digest = digest(p, self.kernel_z, self.rho, self.targets,
                             self.target.terms)

    def warm_up(self) -> None:
        D.wp_nu(self.params, self.kernel_z[:4])

    def run(self, tr, counts: dict, chk: Checker) -> None:
        self._kernel(tr, counts, chk)
        self._solve(tr, counts, chk)
        self._demo(tr, counts, chk)

    def _kernel(self, tr, counts: dict, chk: Checker) -> None:
        # the truncated sums satisfy d/dz wp_nu(z) = -(wp(z) - wp(z - nu))
        # term by term; check it by a central difference
        z, nu, step = self.kernel_z, self.params.nu_value, 1e-4
        with chk.op("kernel derivative identity"):
            with tr.span("dbar.kernel", calls=2):
                nu_vals = D.wp_nu(self.params, np.concatenate([z + step, z - step]))
                wp_vals = D.wp(self.params, np.concatenate([z, z - nu]))
            counts["dbar.kernel.points"] = 4 * z.size
            n = z.size
            fd = (nu_vals[:n] - nu_vals[n:]) / (2 * step)
            exact = -(wp_vals[:n] - wp_vals[n:])
            err = float(np.abs(fd - exact).max() / np.abs(exact).max())
            expect(np.isfinite(nu_vals).all() and np.isfinite(wp_vals).all(),
                   "kernel returned non-finite values")
            expect(err < 1e-5, f"wp_nu' differs from -(wp(z) - wp(z-nu)) by {err:.2e}")

    def _solve(self, tr, counts: dict, chk: Checker) -> None:
        with chk.op("criterion-7 solve"):
            g = D.demo_g(self.ALPHA, 1, 1, self.rho)
            with tr.span("dbar.quadrature"):
                quad = D.quadrature_phi(g, self.cfg)
            with tr.span("dbar.solve"):
                sol = D.solve_dbar(quad, self.params, self.cfg)
            counts["dbar.cells"] = int(quad.centers.size)
            with tr.span("dbar.f_first"):
                first = sol.f(self.targets)
            for _ in range(self.p["steady_calls"]):
                with tr.span("dbar.f"):
                    again = sol.f(self.targets)
                expect(np.array_equal(first, again), "repeated f calls disagree")
            counts["dbar.targets"] = int(self.targets.size)
            with tr.span("dbar.diagnostics"):
                diag = D.solve_diagnostics(sol, g, complex(g(0j)))
            counts["dbar.sup_f"] = diag.sup_f
            counts["dbar.fd_residual"] = diag.fd_dbar_residual
            expect(diag.fd_dbar_residual < 1e-3, f"fd residual {diag.fd_dbar_residual:.2e}")
            expect(diag.periodic_defect < 1e-3, f"periodic defect {diag.periodic_defect:.2e}")
            expect(diag.sup_f < diag.budget, f"sup|f| {diag.sup_f:.3e} >= budget")

    def _demo(self, tr, counts: dict, chk: Checker) -> None:
        with chk.op("demo_construct"):
            with tr.span("dbar.demo"):
                res = D.demo_construct(self.ALPHA, self.SIGMA, self.target,
                                       cfg=self.demo_cfg,
                                       circle_samples=self.p["demo_circle"])
            counts["dbar.residual"] = res.dbar_residual
            expect(res.decoded == self.target,
                   f"demo decoded {W.format_word(res.decoded)}, "
                   f"wanted {W.format_word(self.target)}")
            expect(res.dbar_residual < 1e-3, f"demo residual {res.dbar_residual:.2e}")
            expect(res.sup_f < res.clearance, "sup|f| above the clearance")


def _paired(*jobs):
    """A workload that builds, warms up and runs the given jobs in order."""

    class Paired:
        def __init__(self, seed: int, size: str, workdir: str):
            self.jobs = [job(seed, size, workdir) for job in jobs]
            self.p = {type(job).__name__: job.p for job in self.jobs}
            self.digest = digest(*(job.digest for job in self.jobs))

        def warm_up(self) -> None:
            for job in self.jobs:
                job.warm_up()

        def run(self, tr, counts: dict, chk: Checker) -> None:
            for job in self.jobs:
                job.run(tr, counts, chk)

    return Paired


WORKLOADS = {
    "exact": _paired(EnumCensus, LongWords),
    "numeric": _paired(GridSolve, DbarDemo),
}
