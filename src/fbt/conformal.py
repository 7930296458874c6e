"""Extremal length: closed forms, certified bounds, and a grid solver.

Closed forms: a round annulus {r < |z| < R} has extremal length
2 pi / log(R/r) (of the family of closed curves separating the boundary
circles); a rectangle with horizontal side b and vertical side a has
extremal length a/b (curves joining the horizontal sides); a flat
cylinder of given circumference and height has circumference/height for
the core-curve family, via z -> exp(2 pi z / circumference).

T^{alpha,sigma} is the flat torus C/(Z + i alpha Z) minus a closed
(1-sigma) x (alpha-sigma) rectangle; its fundamental domain is a cross of
two laths of width sigma.  The embedded vertical lath is a flat cylinder
giving the certified upper bound alpha/sigma for the extremal length of
the annulus of the vertical generator, and 1/sigma for the horizontal
one.  Rounding the skeleton corners by quarter-circles and mapping a
sigma/2-thick band around the skeleton gives a 2-quasiconformal annulus
of extremal length at most 2(2 alpha + 1)/sigma around ANY primitive
class that is a product of at most three generators, hence the upper
bound 4(2 alpha + 1)/sigma for lambda_3.

The grid solver discretizes the Dirichlet energy with the 5-point
Laplacian on cell centers (a node belongs to the domain iff its cell
center does), unit interior conductances and conductance-2 half edges to
Dirichlet boundary values, and solves by conjugate gradients to a `1e-10`
relative residual, preconditioned by a plain-aggregation multigrid V-cycle
(2x2 lattice aggregates, Galerkin coarse matrices, damped Jacobi smoothing,
SuperLU on the coarsest level), whose iteration count grows only slowly
as h shrinks.  The curve family extremal length is the direct or reciprocal
effective conductance depending on the family orientation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NumericalError, ValidationError


def _check_positive(**values) -> None:
    """Refuse missing, non-finite or non-positive lengths."""
    for name, v in values.items():
        if v is None or not (math.isfinite(v) and v > 0):
            raise ValidationError(f"{name} must be given, finite and positive")


@dataclass(frozen=True)
class AnnulusSpec:
    kind: str  # "round" | "rectangle" | "flat-cylinder"
    params: tuple[float, float]

    def __post_init__(self):
        a, b = self.params
        if self.kind == "round":
            _check_positive(r=a, R=b)
            if not a < b:
                raise ValidationError("round annulus needs 0 < r < R")
        elif self.kind == "rectangle":
            _check_positive(a=a, b=b)
        elif self.kind == "flat-cylinder":
            _check_positive(circumference=a, height=b)
        else:
            raise ValidationError(f"unknown annulus kind {self.kind!r}")


def round_annulus(r: float, big_r: float) -> AnnulusSpec:
    return AnnulusSpec("round", (r, big_r))


def rectangle(a: float, b: float) -> AnnulusSpec:
    """Vertical side a, horizontal side b."""
    return AnnulusSpec("rectangle", (a, b))


def flat_cylinder(circumference: float, height: float) -> AnnulusSpec:
    return AnnulusSpec("flat-cylinder", (circumference, height))


def lambda_closed_form(spec: AnnulusSpec) -> float:
    if spec.kind == "round":
        r, big_r = spec.params
        return 2.0 * math.pi / math.log(big_r / r)
    if spec.kind == "rectangle":
        a, b = spec.params
        return a / b
    circ, height = spec.params
    return circ / height


@dataclass(frozen=True)
class TorusWithHole:
    alpha: float
    sigma: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha >= 1):
            raise ValidationError("alpha must be finite and >= 1")
        if not 0 < self.sigma < 1:
            raise ValidationError("sigma must lie in (0,1)")


def generator_upper_bounds(x: TorusWithHole) -> dict[str, float]:
    """Certified upper bounds for the generator annuli: the embedded
    vertical lath gives alpha/sigma, the horizontal one 1/sigma."""
    return {
        "e": lambda_closed_form(flat_cylinder(x.alpha, x.sigma)),
        "e_prime": lambda_closed_form(flat_cylinder(1.0, x.sigma)),
    }


def prop1a_lambda3_upper(x: TorusWithHole) -> float:
    """4(2 alpha + 1)/sigma: skeleton length 2 alpha + 1, quarter-circle
    corner rounding with Beltrami bound 1/3, dilatation K = 2, band width
    sigma/2."""
    return 4.0 * (2.0 * x.alpha + 1.0) / x.sigma


# ---------------------------------------------------------------------------
# grid solver

_RTOL = 1e-10       # relative residual of the conjugate gradients (README contract)
_MAX_ITER = 20000


@dataclass
class GridDomain:
    """Masked rectangular lattice of cell centers.

    mode "dirichlet": marked_a / marked_b hold boundary values 1 / 0 on
    cells OUTSIDE the domain mask (the Dirichlet contact happens across
    half edges of conductance 2).  mode "periodic-y": the strip is closed
    in y with a unit potential jump across the seam, which measures the
    harmonic 1-form of the wrapping family.
    """

    h: float
    x0: float
    y0: float
    inside: np.ndarray            # bool (ny, nx)
    mode: str = "dirichlet"
    marked_a: np.ndarray | None = None
    marked_b: np.ndarray | None = None
    family: str = "separating"    # which curve family the caller asks about
    x_guess: np.ndarray | None = None

    def __post_init__(self):
        if self.mode not in ("dirichlet", "periodic-y"):
            raise ValidationError(f"unknown grid mode {self.mode!r}")
        if self.family not in ("separating", "joining"):
            raise ValidationError(f"unknown family {self.family!r}")
        if not self.inside.any():
            raise ValidationError("empty grid domain")
        from scipy.ndimage import label

        _, ncomp = label(self.inside)
        if ncomp != 1:
            raise ValidationError("grid domain must be connected")
        if self.mode == "dirichlet":
            if self.marked_a is None or self.marked_b is None:
                raise ValidationError("dirichlet mode needs both marked families")
            if not self.marked_a.any() or not self.marked_b.any():
                raise ValidationError("marked families must be nonempty")
            if (self.marked_a & self.marked_b).any():
                raise ValidationError("marked families must be disjoint")


@dataclass
class SolverReport:
    lam: float
    h: float
    iterations: int
    residual: float
    conductance: float

    def to_json(self) -> dict:
        return {"lambda": self.lam, "h": self.h, "iterations": self.iterations,
                "residual": self.residual}


def grid_extremal_length(dom: GridDomain) -> SolverReport:
    """Solve the discrete Laplace problem to the relative residual _RTOL and
    convert the effective conductance into the requested curve-family
    extremal length."""
    a, rhs, const = _assemble(dom)
    x0 = None if dom.x_guess is None else dom.x_guess[dom.inside]
    u, iters, res = _cg(a, rhs, x0, dom.inside)
    energy = float(u @ (a @ u) - 2.0 * (rhs @ u)) + const
    if dom.mode == "dirichlet":
        lam = energy if dom.family == "separating" else 1.0 / energy
    else:
        energy -= float(u[0]) ** 2  # the gauge conductance holds no energy
        # the jump form measures the conductance of the wrapping cycle, the
        # reciprocal of the wrapping (separating) family's extremal length
        lam = 1.0 / energy if dom.family == "separating" else energy
    return SolverReport(lam, dom.h, iters, res, energy)


def _cg(a: sp.csr_matrix, rhs: np.ndarray, x0: np.ndarray | None,
        inside: np.ndarray) -> tuple[np.ndarray, int, float]:
    count = [0]

    def cb(_):
        count[0] += 1

    mg = _Multigrid(a, inside)
    precond = spla.LinearOperator(a.shape, matvec=mg.vcycle, dtype=float)
    kw = {"maxiter": _MAX_ITER, "M": precond, "x0": x0, "callback": cb}
    try:
        x, info = spla.cg(a, rhs, rtol=_RTOL, atol=0.0, **kw)
    except TypeError:  # scipy < 1.12 spelling
        x, info = spla.cg(a, rhs, tol=_RTOL, atol=0.0, **kw)
    res = float(np.linalg.norm(rhs - a @ x) / np.linalg.norm(rhs))
    if info != 0 or not np.isfinite(res) or res > 10 * _RTOL:
        raise NumericalError(
            f"conjugate gradients failed to converge: residual {res:.3e}")
    return x, count[0], res


def _shift(a: np.ndarray, dy: int, dx: int, fill,
           wrap_y: bool = False) -> np.ndarray:
    """out[y, x] = a[y + dy, x + dx], `fill` off the lattice; with wrap_y
    the y index wraps around instead."""
    if wrap_y:
        a, dy = np.roll(a, -dy, axis=0), 0
    ny, nx = a.shape
    out = np.full_like(a, fill)
    out[max(0, -dy):ny - max(0, dy), max(0, -dx):nx - max(0, dx)] = \
        a[max(0, dy):ny - max(0, -dy), max(0, dx):nx - max(0, -dx)]
    return out


def _assemble(dom: GridDomain) -> tuple[sp.csr_matrix, np.ndarray, float]:
    """Matrix A, right-hand side b and constant c of the discrete Dirichlet
    energy E(u) = u.Au - 2 b.u + c over the inside nodes (row-major order).

    Interior edges have unit conductance.  In dirichlet mode a node next to
    a marked cell has a conductance-2 half edge to that cell's value.  In
    periodic-y mode the edges across the seam carry the unit potential
    jump, and node 0 is grounded through a unit conductance: that fixes the
    free additive constant (the solution has u[0] = 0) without changing the
    minimal edge energy.
    """
    inside = dom.inside
    periodic = dom.mode == "periodic-y"
    if periodic and not (inside[0].any() and inside[-1].any()):
        raise ValidationError("periodic direction must touch both edges")
    n = int(inside.sum())
    idx = np.full(inside.shape, -1, dtype=np.int32)
    idx[inside] = np.arange(n, dtype=np.int32)
    # row i of A: neighbours below, left, the node itself, right, above
    cols = np.empty((n, 5), dtype=np.int32)
    cols[:, 2] = np.arange(n, dtype=np.int32)
    diag = np.zeros(n)
    rhs = np.zeros(n)
    const = 0.0
    for k, (dy, dx) in zip((0, 1, 3, 4), ((-1, 0), (0, -1), (0, 1), (1, 0))):
        nb = cols[:, k] = _shift(idx, dy, dx, -1, periodic and dy != 0)[inside]
        diag += nb >= 0
        if not periodic:
            for marked, value in ((dom.marked_a, 1.0), (dom.marked_b, 0.0)):
                touch = _shift(marked, dy, dx, False)[inside]
                diag += 2.0 * touch
                rhs += 2.0 * value * touch
                const += 2.0 * value * value * int(touch.sum())
        elif dy:
            # nodes are numbered row by row, so the seam rows are the
            # first and the last nodes
            seam = (slice(n - int(inside[-1].sum()), n) if dy > 0
                    else slice(0, int(inside[0].sum())))
            crossing = nb[seam] >= 0
            rhs[seam] += dy * crossing
            const += 0.5 * int(crossing.sum())
    if periodic:
        diag[0] += 1.0
    if (diag <= 0).any():
        raise ValidationError("grid has isolated nodes")
    keep = cols >= 0
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    data = np.full(int(indptr[-1]), -1.0)
    data[indptr[:-1] + keep[:, 0] + keep[:, 1]] = diag
    return sp.csr_matrix((data, cols[keep], indptr), shape=(n, n)), rhs, const


_COARSE_NODES = 4000  # the coarsest level is factorized directly
_OMEGA = 0.8          # damped Jacobi weight; 4/5 smooths the 5-point Laplacian best
_ALPHA = 1.7          # coarse correction scale, kept below 2 (see _Multigrid)


def _aggregate(inside: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group the lattice nodes in 2x2 blocks: the coarse lattice mask and,
    for each node (row-major), the index of its block among the coarse
    nodes."""
    ny, nx = inside.shape
    padded = np.zeros((ny + ny % 2, nx + nx % 2), dtype=bool)
    padded[:ny, :nx] = inside
    coarse = padded.reshape(padded.shape[0] // 2, 2,
                            padded.shape[1] // 2, 2).any(axis=(1, 3))
    cidx = np.full(coarse.shape, -1, dtype=np.int32)
    cidx[coarse] = np.arange(int(coarse.sum()), dtype=np.int32)
    return coarse, cidx.repeat(2, axis=0).repeat(2, axis=1)[:ny, :nx][inside]


class _Multigrid:
    """Plain-aggregation multigrid V-cycle, the CG preconditioner.

    Each level groups the nodes of the level above in 2x2 lattice blocks
    (Vanek, Mandel and Brezina 1996); the prolongation P is piecewise
    constant and the coarse matrix is the Galerkin product P^T A P, again a
    5-point matrix.  With piecewise-constant P that product weighs twice the
    coarse lattice's own Laplacian, so the coarse correction is scaled up by
    _ALPHA; at 2 the two-grid correction would no longer contract every
    error component.  A level smooths with one damped Jacobi sweep before
    and one after its coarse correction, which keeps the cycle symmetric;
    the coarsest level is factorized by SuperLU.  Nothing is random, so
    repeated solves agree to the bit.
    """

    def __init__(self, a: sp.csr_matrix, inside: np.ndarray):
        self.levels: list[tuple[sp.csr_matrix, np.ndarray, np.ndarray]] = []
        while a.shape[0] > _COARSE_NODES:
            inside, agg = _aggregate(inside)
            nc = int(inside.sum())
            rows = np.repeat(agg, np.diff(a.indptr))
            coarse = sp.csr_matrix((a.data, (rows, agg[a.indices])), shape=(nc, nc))
            self.levels.append((a, _OMEGA / a.diagonal(), agg))
            a = coarse
        try:
            self.coarse = spla.splu(a.tocsc())
        except RuntimeError as exc:
            raise NumericalError(
                f"multigrid coarse factorization failed: {exc}") from None

    def vcycle(self, r: np.ndarray, level: int = 0) -> np.ndarray:
        if level == len(self.levels):
            return self.coarse.solve(r)
        a, dinv, agg = self.levels[level]
        x = dinv * r
        xc = self.vcycle(np.bincount(agg, weights=r - a @ x), level + 1)
        x += _ALPHA * np.take(xc, agg)
        x += dinv * (r - a @ x)
        return x


# ---------------------------------------------------------------------------
# domain builders


def annulus_grid(r: float, big_r: float, h: float,
                 family: str = "separating") -> GridDomain:
    """Round annulus r < |z| < R; marked families are the inner and outer
    complements.  The analytic potential log(R/|z|)/log(R/r) seeds the CG
    iteration."""
    round_annulus(r, big_r)  # checks 0 < r < R
    _check_positive(h=h)
    half = big_r + 2 * h
    m = int(math.ceil(2 * half / h))
    xs = (np.arange(m) + 0.5) * h - half
    xx, yy = np.meshgrid(xs, xs)
    rr = np.hypot(xx, yy)
    inside = (rr > r) & (rr < big_r)
    marked_a = rr <= r
    marked_b = rr >= big_r
    guess = np.clip(np.log(big_r / np.maximum(rr, 1e-12)) / math.log(big_r / r),
                    0.0, 1.0)
    return GridDomain(h, -half, -half, inside, "dirichlet",
                      marked_a, marked_b, family, x_guess=guess)


def rectangle_grid(a: float, b: float, h: float,
                   marked: str = "horizontal",
                   family: str = "joining") -> GridDomain:
    """Rectangle with vertical side a and horizontal side b.

    marked="horizontal" marks the two horizontal sides (top/bottom), so the
    joining family runs vertically and has extremal length a/b.
    """
    _check_positive(a=a, b=b, h=h)
    nx = max(2, int(round(b / h)))
    ny = max(2, int(round(a / h)))
    inside = np.zeros((ny + 2, nx + 2), dtype=bool)
    inside[1:-1, 1:-1] = True
    marked_a = np.zeros_like(inside)
    marked_b = np.zeros_like(inside)
    if marked == "horizontal":
        marked_a[-1, 1:-1] = True
        marked_b[0, 1:-1] = True
        guess = np.tile(((np.arange(ny + 2) - 0.5) / ny)[:, None], (1, nx + 2))
    elif marked == "vertical":
        marked_a[1:-1, -1] = True
        marked_b[1:-1, 0] = True
        guess = np.tile((np.arange(nx + 2) - 0.5) / nx, (ny + 2, 1))
    else:
        raise ValidationError("marked must be horizontal or vertical")
    return GridDomain(h, 0.0, 0.0, inside, "dirichlet", marked_a, marked_b,
                      family, x_guess=np.clip(guess, 0.0, 1.0))


def cylinder_grid(circumference: float, height: float, h: float) -> GridDomain:
    """Flat cylinder, periodic in y (the circumference direction)."""
    _check_positive(circumference=circumference, height=height, h=h)
    nx = max(2, int(round(height / h)))
    ny = max(2, int(round(circumference / h)))
    inside = np.ones((ny, nx), dtype=bool)
    return GridDomain(h, 0.0, 0.0, inside, "periodic-y", family="separating")


# ---------------------------------------------------------------------------
# file formats


def spec_to_json(spec: AnnulusSpec) -> dict:
    if spec.kind == "round":
        params = {"r": spec.params[0], "R": spec.params[1]}
    elif spec.kind == "rectangle":
        params = {"a": spec.params[0], "b": spec.params[1]}
    else:
        params = {"circumference": spec.params[0], "height": spec.params[1]}
    return {"kind": spec.kind, "params": params}


def spec_from_json(data: dict) -> AnnulusSpec:
    try:
        kind = data["kind"]
        p = data["params"]
        if kind == "round":
            return round_annulus(float(p["r"]), float(p["R"]))
        if kind == "rectangle":
            return rectangle(float(p["a"]), float(p["b"]))
        if kind == "flat-cylinder":
            return flat_cylinder(float(p["circumference"]), float(p["height"]))
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"bad domain file: {exc}") from None
    raise ValidationError(f"unknown annulus kind {data.get('kind')!r}")


def dump_grid_csv(dom: GridDomain, path: str) -> None:
    """Node list: x,y,marked with marked in {a, b, none}."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x", "y", "marked"])
        ny, nx = dom.inside.shape
        for j in range(ny):
            for i in range(nx):
                if not dom.inside[j, i]:
                    continue
                x = dom.x0 + (i + 0.5) * dom.h
                y = dom.y0 + (j + 0.5) * dom.h
                mark = "none"
                if dom.marked_a is not None and _touches(dom.inside, dom.marked_a, j, i):
                    mark = "a"
                elif dom.marked_b is not None and _touches(dom.inside, dom.marked_b, j, i):
                    mark = "b"
                writer.writerow([repr(x), repr(y), mark])


def _touches(inside: np.ndarray, marked: np.ndarray, j: int, i: int) -> bool:
    ny, nx = inside.shape
    for dj, di in ((0, 1), (0, -1), (1, 0), (-1, 0)):
        jj, ii = j + dj, i + di
        if 0 <= jj < ny and 0 <= ii < nx and marked[jj, ii]:
            return True
    return False
