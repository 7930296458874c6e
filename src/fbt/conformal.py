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

The grid solver discretizes the Dirichlet energy between two marked cell
sets, held at 1 and 0, with the 5-point Laplacian on cell centers (a node
belongs to the domain iff its cell center does): interior edges have unit
conductance, and an edge from a node to a marked cell is cut where it
meets the true boundary, at the fraction theta in (0, 1] of its length,
and has conductance 1/theta (the symmetric second-order discretization of
Gibou, Fedkiw, Cheng and Kang, J. Comput. Phys. 176, 2002).  The round
annulus takes theta in closed form for both circles, so its error is
O(h^2) where a staircase boundary gave O(h); the rectangle and the flat
cylinder have their boundary on the cell faces, theta = 1/2.  A flat
cylinder is solved as a rectangle marked on its two ends: its potential
is constant along the circumference, so the seam carries no current.

The round annulus is mirror-symmetric about both lattice axes, and a
rectangle or flat cylinder about its midline joining the marked sides when
that line runs along cell faces.  Their builders build only the part that
the mirrors cut off (the annulus's lower-left quadrant, the strip's half
below that midline), and GridDomain.mirrored says across which of its
last row and last column the domain continues as its mirror image.  The
potential is then symmetric too, so the edges across a seam carry no
current and the energy is 2 or 4 times that of the part (Bossavit, CMAME
56, 1986).  A domain built by hand is solved as given.  The matrix is
symmetric positive definite, a 5-point stencil on the inside nodes; it is
solved by conjugate gradients to a `1e-10` relative residual,
preconditioned by a plain-aggregation multigrid V-cycle (2x2 lattice
aggregates, Galerkin coarse operators, two damped Jacobi sweeps before and
after each coarse correction, a dense Cholesky inverse on a coarsest level
of at most 150 nodes), whose iteration count does not grow as h shrinks:
7, 6 and 5 for annulus(1, 2) at h = 1/40, 1/80 and 1/160, whose quadrants
have 3,771, 15,086 and 60,311 unknowns.  The minimal energy is the
extremal length of the curves separating the marked sets, the reciprocal
of that of the curves joining them.  The solver needs numpy alone.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import NumericalError, ValidationError, check_alpha, check_positive, check_sigma


class Kind(NamedTuple):
    params: tuple[str, str]  # the names of the two parameters, in order
    closed_form: Callable[[float, float], float]  # the extremal length
    grid: Callable[..., GridDomain]  # builder(*params, h, family=...)
    family: str  # the curve family whose extremal length closed_form is


@dataclass(frozen=True)
class AnnulusSpec:
    kind: str  # a key of KINDS
    params: tuple[float, float]

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown annulus kind {self.kind!r}")
        check_positive(**dict(zip(KINDS[self.kind].params, self.params)))
        if self.kind == "round" and not self.params[0] < self.params[1]:
            raise ValidationError("round annulus needs 0 < r < R")


def round_annulus(r: float, big_r: float) -> AnnulusSpec:
    return AnnulusSpec("round", (r, big_r))


def rectangle(a: float, b: float) -> AnnulusSpec:
    """Vertical side a, horizontal side b."""
    return AnnulusSpec("rectangle", (a, b))


def flat_cylinder(circumference: float, height: float) -> AnnulusSpec:
    return AnnulusSpec("flat-cylinder", (circumference, height))


def lambda_closed_form(spec: AnnulusSpec) -> float:
    """The closed form, refused where it leaves the normal float range (a
    subnormal quotient has lost most of its bits)."""
    lam = KINDS[spec.kind].closed_form(*spec.params)
    if lam < sys.float_info.min:
        raise ValidationError("extremal length underflows the normal float range: "
                              "the lengths are too far apart")
    if lam == math.inf:
        raise ValidationError("extremal length overflows: the lengths are too far apart")
    return lam


@dataclass(frozen=True)
class TorusWithHole:
    alpha: float
    sigma: float

    def __post_init__(self):
        check_alpha(self.alpha)
        check_sigma(self.sigma)


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
    upper = 4.0 * (2.0 * x.alpha + 1.0) / x.sigma
    if upper == math.inf:
        raise ValidationError("lambda_3 upper bound overflows: alpha is too large for sigma")
    return upper


# ---------------------------------------------------------------------------
# grid solver

_RTOL = 1e-10       # relative residual of the conjugate gradients (README contract)
_MAX_ITER = 20000
#: the lattice directions (dy, dx) of a node's neighbours: below, left,
#: right, above
_DIRECTIONS = ((-1, 0), (0, -1), (0, 1), (1, 0))


@dataclass
class GridDomain:
    """Masked rectangular lattice of cell centers.

    marked_a / marked_b hold the boundary values 1 / 0 on cells OUTSIDE the
    domain mask.  The Dirichlet contact happens across the boundary edges,
    from an inside node to a marked neighbour: theta[k] holds, for the
    direction _DIRECTIONS[k], the fraction in (0, 1] of each such edge from
    the node to the true boundary, over the inside nodes next to a marked
    cell in that direction (row-major), and the edge has conductance
    1/theta.  The default None puts every boundary on the cell faces,
    theta = 1/2.

    mirrored (rows, columns) says whether the domain continues past its
    last row, and past its last column, as its mirror image: the lattice is
    then the part that the builder kept of a lattice twice as long on that
    axis, and the solve counts the part's energy once for each copy.  Such
    a part needs an inside node on each mirrored seam, or its copies would
    not touch.
    """

    h: float
    inside: np.ndarray            # bool (ny, nx)
    marked_a: np.ndarray          # bool (ny, nx)
    marked_b: np.ndarray          # bool (ny, nx)
    family: str = "separating"    # which curve family the caller asks about
    x_guess: np.ndarray | None = None
    theta: tuple[np.ndarray, ...] | None = None  # one float array per direction
    mirrored: tuple[bool, bool] = (False, False)

    def __post_init__(self):
        if self.family not in ("separating", "joining"):
            raise ValidationError(f"unknown family {self.family!r}")
        if not self.inside.any():
            raise ValidationError("empty grid domain")
        seams = (self.inside[-1], self.inside[:, -1])
        if not _connected(self.inside) or any(
                m and not seam.any() for m, seam in zip(self.mirrored, seams)):
            raise ValidationError("grid domain must be connected")
        if not self.marked_a.any() or not self.marked_b.any():
            raise ValidationError("marked families must be nonempty")
        if (self.marked_a & self.marked_b).any():
            raise ValidationError("marked families must be disjoint")
        if ((self.marked_a | self.marked_b) & self.inside).any():
            raise ValidationError("marked cells must lie outside the domain mask")
        # boundary edges to each family, per direction; their sums are the
        # theta lengths, since the families are disjoint
        edges = [[int(np.count_nonzero(_shift(m, dy, dx, False) & self.inside))
                  for m in (self.marked_a, self.marked_b)] for dy, dx in _DIRECTIONS]
        if not all(sum(family) for family in zip(*edges)):
            raise ValidationError("each marked family must border an inside node")
        counts = [a + b for a, b in edges]
        if self.x_guess is not None and (
                self.x_guess.shape != self.inside.shape
                or not np.isfinite(self.x_guess[self.inside]).all()):
            raise ValidationError("x_guess must be finite on the inside nodes "
                                  "of an array shaped like inside")
        if self.theta is None:
            self.theta = tuple(np.full(c, 0.5) for c in counts)
        elif ([len(t) for t in self.theta] != counts
              or not all(((t > 0) & (t <= 1)).all() for t in self.theta)):
            raise ValidationError("theta must hold one fraction in (0, 1] "
                                  "for each boundary edge")


def _connected(mask: np.ndarray) -> bool:
    """Whether the cells of a nonempty bool mask form one 4-connected set.

    The runs of cells in each row are the vertices of a graph, and each
    stretch of columns that two adjacent rows share joins their two runs.
    Each round hooks every component root onto the least root it is joined
    to and then points every run at its root, until no edge joins two
    components; each round removes a root, so this ends.
    """
    ny, nx = mask.shape
    cells = np.zeros((ny, nx + 1), dtype=bool)  # a free column opens each row
    cells[:, 1:] = mask
    flat = cells.ravel()
    starts = np.flatnonzero(flat[1:] & ~flat[:-1]) + 1
    shared = (cells[:-1] & cells[1:]).ravel()
    seams = np.flatnonzero(shared[1:] & ~shared[:-1]) + 1
    # the run in the row of each seam's first cell, and the run below it
    upper = np.searchsorted(starts, seams, side="right") - 1
    lower = np.searchsorted(starts, seams + nx + 1, side="right") - 1
    labels = np.arange(starts.size)
    while True:
        lu, ll = labels[upper], labels[lower]
        apart = lu != ll
        if not apart.any():
            return bool((labels == 0).all())
        np.minimum.at(labels, np.maximum(lu, ll)[apart], np.minimum(lu, ll)[apart])
        while True:
            root = labels[labels]
            if np.array_equal(root, labels):
                break
            labels = root


@dataclass
class SolverReport:
    lam: float
    h: float
    iterations: int
    residual: float

    def to_json(self) -> dict:
        return {"lambda": self.lam, "h": self.h, "iterations": self.iterations,
                "residual": self.residual}


def grid_extremal_length(dom: GridDomain) -> SolverReport:
    """Solve the discrete Laplace problem to the relative residual _RTOL and
    convert the effective conductance (the minimal energy) into the
    requested curve-family extremal length.  A part mirrored on k axes
    holds 1/2^k of the whole domain's energy, and its relative residual is
    the whole domain's."""
    a, g_a, g_b = _assemble(dom)
    x0 = None if dom.x_guess is None else dom.x_guess[dom.inside]
    u, iters, res = _cg(a, g_a, x0)
    energy = _energy(dom, a, u, g_a, g_b)
    lam = energy if dom.family == "separating" else 1.0 / energy
    return SolverReport(lam, dom.h, iters, res)


def _energy(dom: GridDomain, a: _Stencil, u: np.ndarray, g_a: np.ndarray,
            g_b: np.ndarray) -> float:
    """The Dirichlet energy of u over the whole domain, as the sum of squares
    sum_(inside edges) (u_i - u_j)^2 + sum g_a (u - 1)^2 + sum g_b u^2 of the
    part, times 2^k for a part mirrored on k axes.  Its terms are no larger
    than the energy, where those of u.Au - 2 b.u + c reach the conductance
    into family a and cancel."""
    across, down = a.differences(u)
    return 2 ** sum(dom.mirrored) * float(
        across @ across + down @ down + g_a @ (u - 1.0) ** 2 + g_b @ u ** 2)


def _cg(a: _Stencil, rhs: np.ndarray, x0: np.ndarray | None) -> tuple[np.ndarray, int, float]:
    """Multigrid-preconditioned conjugate gradients (Hestenes and Stiefel
    1952) on a from x0 (zero when None), until the residual is below _RTOL
    of rhs.  That test comes before each preconditioner application, and the
    hierarchy is built on its first use, so a seed that already meets _RTOL
    builds none."""
    x = np.zeros_like(rhs) if x0 is None else np.array(x0, dtype=float)
    r = rhs - a @ x if x.any() else rhs.copy()
    tol = _RTOL * np.linalg.norm(rhs)
    mg = p = rho_prev = None
    for iterations in range(_MAX_ITER + 1):
        norm = np.linalg.norm(r)
        if not norm >= tol or iterations == _MAX_ITER:  # met, or not a number
            break
        if mg is None:
            mg = _Multigrid(a)
        z = mg.vcycle(r)
        rho = r @ z
        if p is None:
            p = z
        else:
            p *= rho / rho_prev
            p += z
        q = a @ p
        step = rho / (p @ q)
        x += step * p
        r -= step * q
        rho_prev = rho
    res = float(np.linalg.norm(rhs - a @ x) / np.linalg.norm(rhs))
    if not norm < tol or not np.isfinite(res) or res > 10 * _RTOL:
        raise NumericalError(
            f"conjugate gradients failed to converge: residual {res:.3e}")
    return x, iterations, res


def _shift(a: np.ndarray, dy: int, dx: int, fill) -> np.ndarray:
    """out[y, x] = a[y + dy, x + dx], `fill` off the lattice."""
    ny, nx = a.shape
    out = np.full_like(a, fill)
    out[max(0, -dy):ny - max(0, dy), max(0, -dx):nx - max(0, dx)] = \
        a[max(0, dy):ny - max(0, -dy), max(0, dx):nx - max(0, -dx)]
    return out


class _Stencil:
    """A symmetric 5-point operator on the n inside nodes of a lattice mask
    (row-major): (A x)_i = diag_i x_i + sum_k weights[k, i] x[nbrs[k, i]]
    over the directions k of _DIRECTIONS, where nbrs[k, i] is the index of
    node i's neighbour in direction k, n when it has none, and weights[k, i]
    = 0 then.  weights None stands for -1 on every edge, the unit
    conductances of the fine level; the product then sums each row in the
    order below, left, self, right, above, the order of the row of a CSR
    matrix, and gives its bits.

    A node's left and right neighbours are the nodes before and after it, so
    the product reads them as shifted slices of x, zeroed at the starts and
    the ends of the rows' runs; it gathers the neighbours below and above
    from a copy of x whose pad slot n holds 0.
    """

    def __init__(self, inside: np.ndarray, diag: np.ndarray, weights: np.ndarray | None = None):
        n = len(diag)
        self.inside, self.diag, self.weights = inside, diag, weights
        idx = np.full(inside.shape, n, dtype=np.intp)
        idx[inside] = np.arange(n)
        self.nbrs = np.stack([_shift(idx, dy, dx, n)[inside] for dy, dx in _DIRECTIONS])
        self._padded = np.zeros(n + 1)
        self._starts, self._ends = (np.flatnonzero(nb == n) for nb in self.nbrs[1:3])

    def _neighbours(self, k: int, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out = x at each node's neighbour in direction k, 0 where it has none."""
        if k == 1:
            out[1:] = x[:-1]
            out[self._starts] = 0.0
        elif k == 2:
            out[:-1] = x[1:]
            out[self._ends] = 0.0
        else:
            np.take(self._padded, self.nbrs[k], mode="clip", out=out)
        return out

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        self._padded[:-1] = x
        y, t = np.empty_like(x), np.empty_like(x)
        if self.weights is None:
            np.subtract(0.0, self._neighbours(0, x, y), out=y)
            y -= self._neighbours(1, x, t)
            y += np.multiply(self.diag, x, out=t)
            y -= self._neighbours(2, x, t)
            y -= self._neighbours(3, x, t)
            return y
        np.multiply(self.diag, x, out=y)
        for k, w in enumerate(self.weights):
            t = self._neighbours(k, x, t)
            t *= w
            y += t
        return y

    def differences(self, u: np.ndarray) -> list[np.ndarray]:
        """u at the right and at the upper end of each edge between two
        inside nodes, minus u at its other end: the horizontal edges, then
        the vertical ones, each in the row-major order of that other end."""
        n = len(u)
        return [u[nb[nb < n]] - u[nb < n] for nb in self.nbrs[2:]]

    def edge_weights(self) -> np.ndarray:
        """weights, with the -1 and 0 that None stands for filled in."""
        if self.weights is None:
            return np.where(self.nbrs < len(self.diag), -1.0, 0.0)
        return self.weights

    def dense(self) -> np.ndarray:
        n = len(self.diag)
        m = np.zeros((n, n + 1))  # a last column for the pad slot
        rows = np.arange(n)
        m[rows, rows] = self.diag
        for nb, w in zip(self.nbrs, self.edge_weights()):
            m[rows, nb] = w
        return m[:, :n]


def _assemble(dom: GridDomain) -> tuple[_Stencil, np.ndarray, np.ndarray]:
    """The 5-point operator A and the per-node boundary conductances g_a and
    g_b to the two families, over the inside nodes (row-major order), of the
    discrete Dirichlet energy E(u) = u.Au - 2 g_a.u + sum g_a (see _energy).

    Interior edges have unit conductance, and the edge from a node to a
    marked cell has conductance 1/theta (see GridDomain).
    """
    inside = dom.inside
    n = int(np.count_nonzero(inside))
    diag = np.zeros(n)
    g_a, g_b = np.zeros(n), np.zeros(n)
    for (dy, dx), theta in zip(_DIRECTIONS, dom.theta):
        diag += _shift(inside, dy, dx, False)[inside]
        to_a = _shift(dom.marked_a, dy, dx, False)[inside]
        edge = to_a | _shift(dom.marked_b, dy, dx, False)[inside]
        g = 1.0 / theta
        diag[edge] += g
        g_a[edge] += np.where(to_a[edge], g, 0.0)  # the edges to the value 1
        g_b[edge] += np.where(to_a[edge], 0.0, g)
    return _Stencil(inside, diag), g_a, g_b


_COARSE_NODES = 150   # the coarsest level is factorized densely
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
    cidx = np.full(coarse.shape, -1, dtype=np.intp)
    cidx[coarse] = np.arange(int(coarse.sum()))
    return coarse, cidx.repeat(2, axis=0).repeat(2, axis=1)[:ny, :nx][inside]


def _galerkin(a: _Stencil, agg: np.ndarray, coarse_inside: np.ndarray) -> _Stencil:
    """P^T A P for the piecewise-constant prolongation P of the aggregates
    agg, on the coarse lattice mask coarse_inside: a 5-point operator
    again, since an edge that leaves a 2x2 block enters the next block in
    its direction.  A coarse node's diagonal sums its nodes' diagonals and
    the edges inside its block, each twice; its edge in a direction sums
    the edges that leave the block in that direction."""
    nc = int(np.count_nonzero(coarse_inside))
    fine = a.edge_weights()
    within = np.append(agg, -1)[a.nbrs] == agg  # the pad slot is no block
    diag = np.bincount(agg, weights=a.diag + (fine * within).sum(axis=0), minlength=nc)
    weights = np.stack([np.bincount(agg, weights=np.where(w_in, 0.0, w), minlength=nc)
                        for w, w_in in zip(fine, within)])
    return _Stencil(coarse_inside, diag, weights)


class _Multigrid:
    """Plain-aggregation multigrid V-cycle, the CG preconditioner.

    Each level groups the nodes of the level above in 2x2 lattice blocks
    (Vanek, Mandel and Brezina 1996); the prolongation P is piecewise
    constant and the coarse operator is the Galerkin product P^T A P, again
    a 5-point operator (_galerkin).  With piecewise-constant P that product
    weighs twice the coarse lattice's own Laplacian, so the coarse
    correction is scaled up by _ALPHA; at 2 the two-grid correction would
    no longer contract every error component.  A level smooths with two
    damped Jacobi sweeps before its coarse correction and two after it,
    which keeps the cycle symmetric.  The coarsest level, of at most
    _COARSE_NODES nodes, is symmetric positive definite (the domain is
    connected and borders a marked cell, and P has full column rank): it is
    inverted once through its Cholesky factor, and each cycle multiplies by
    that inverse.  Nothing is random, so repeated solves agree to the bit.
    `_cg` builds the hierarchy on first use, so a solve seeded at its
    solution skips the aggregation, the Galerkin products and the
    factorization.
    """

    def __init__(self, a: _Stencil):
        self.levels: list[tuple[_Stencil, np.ndarray, np.ndarray]] = []
        while len(a.diag) > _COARSE_NODES:
            inside, agg = _aggregate(a.inside)
            self.levels.append((a, _OMEGA / a.diag, agg))
            a = _galerkin(a, agg, inside)
        try:
            inv_l = np.linalg.inv(np.linalg.cholesky(a.dense()))
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"multigrid coarse factorization failed: {exc}") from None
        self.coarse = inv_l.T @ inv_l

    def vcycle(self, r: np.ndarray, level: int = 0) -> np.ndarray:
        if level == len(self.levels):
            return self.coarse @ r
        a, dinv, agg = self.levels[level]
        x = dinv * r
        self._smooth(a, dinv, r, x)
        xc = self.vcycle(np.bincount(agg, weights=r - a @ x), level + 1)
        xc *= _ALPHA
        x += np.take(xc, agg)
        self._smooth(a, dinv, r, x)
        self._smooth(a, dinv, r, x)
        return x

    @staticmethod
    def _smooth(a: _Stencil, dinv: np.ndarray, r: np.ndarray, x: np.ndarray) -> None:
        """One damped Jacobi sweep on A x = r, in place."""
        t = a @ x
        np.subtract(r, t, out=t)
        t *= dinv
        x += t


# ---------------------------------------------------------------------------
# domain builders

#: least boundary fraction: a node closer than this (in lattice units) to
#: its circle is held as if that far away, which bounds the conductance of
#: its boundary edge by 1000 and moves the boundary by less than h/1000;
#: a clamp at 0.1 would lose the second order
_THETA_MIN = 1e-3

#: most lattice cells of a grid domain, counted on the whole lattice: a
#: solve of a domain built whole peaks at about 167 bytes a cell (430 MB
#: peak RSS for annulus(1, 4, h = 1/200), 1604^2 cells), annulus_grid's
#: quadrant at about 48 (124 MB for the same annulus)
GRID_CELLS_MAX = 3_000_000


def _check_cells(*sides: float) -> None:
    """Refuse a lattice with sides (in cells, as floats, so that an
    overflowing length/h is refused too) of more than GRID_CELLS_MAX cells,
    before anything is allocated."""
    if not math.prod(sides) <= GRID_CELLS_MAX:
        raise ValidationError(f"grid larger than {GRID_CELLS_MAX} cells: increase h")


def _strip(nx: int, ny: int) -> tuple[tuple[np.ndarray, ...], bool]:
    """inside, marked_a, marked_b and the exact (linear) potential of ny rows
    of nx cells from a marked column b to a marked column a, between an
    empty row above and below, and whether the rows are mirrored: with ny
    even, only the rows below the midline are built."""
    mirrored = ny % 2 == 0
    shape = (ny // 2 + 1 if mirrored else ny + 2, nx + 2)
    inside, marked_a, marked_b = (np.zeros(shape, dtype=bool) for _ in range(3))
    rows = slice(1, None if mirrored else -1)
    inside[rows, 1:-1] = True
    marked_a[rows, -1] = True
    marked_b[rows, 0] = True
    guess = np.clip((np.arange(nx + 2) - 0.5) / nx, 0.0, 1.0)
    return (inside, marked_a, marked_b, np.broadcast_to(guess, shape)), mirrored


def annulus_grid(r: float, big_r: float, h: float,
                 family: str | None = None) -> GridDomain:
    """Round annulus r < |z| < R; marked families are the inner and outer
    complements, and each boundary edge is cut where it meets its circle.
    The analytic potential log(R/|z|)/log(R/r) seeds the CG iteration.  The
    domain is the lower-left quadrant of the lattice, mirrored on both
    axes."""
    round_annulus(r, big_r)  # checks 0 < r < R
    check_positive(h=h)
    half = big_r + 2 * h
    _check_cells(2 * (half / h + 1), 2 * (half / h + 1))
    # an even number of cells a side, centred on the origin: no node sits at
    # the centre, so an inner circle of radius below h/sqrt(2) marks no cell
    # and is refused rather than solved as a one-node hole
    m = 2 * math.ceil(half / h)
    # lattice units (h = 1): the coordinates are exact half-integers, and the
    # radii are at most about m/2, so no square can overflow
    xs = np.arange(m // 2) + 0.5 - m / 2
    s_r, s_big = r / h, big_r / h
    rr = np.hypot(xs[:, None], xs[None, :])
    inside = (rr > s_r) & (rr < s_big)
    marked_a = rr <= s_r
    marked_b = rr >= s_big
    guess = np.clip(np.log(s_big / rr) / math.log(big_r / r), 0.0, 1.0)  # rr >= 1/sqrt(2)
    theta = []
    for dy, dx in _DIRECTIONS:
        to_a = _shift(marked_a, dy, dx, False)
        # the edges' nodes in row-major order, as np.nonzero gives them but
        # through the flat index, which is about ten times faster
        edge = np.flatnonzero(inside & (to_a | _shift(marked_b, dy, dx, False)))
        ys, xs_i = np.divmod(edge, inside.shape[1])
        t = np.abs(xs[xs_i] if dx else xs[ys])   # along the edge
        u = np.abs(xs[ys] if dx else xs[xs_i])   # across it
        rho = rr[ys, xs_i]
        s = np.where(to_a[ys, xs_i], s_r, s_big)
        # the lattice line meets the circle in a chord of half-length
        # sqrt(s^2 - u^2) whose midpoint is t away from the node, so theta is
        # |t - sqrt(s^2 - u^2)| = |rho^2 - s^2| / (t + sqrt(s^2 - u^2))
        root = np.sqrt(np.maximum((s - u) * (s + u), 0.0))
        theta.append(np.clip(np.abs(rho - s) * (rho + s) / (root + t), _THETA_MIN, 1.0))
    return GridDomain(h, inside, marked_a, marked_b,
                      family=family or KINDS["round"].family, x_guess=guess,
                      theta=tuple(theta), mirrored=(True, True))


def rectangle_grid(a: float, b: float, h: float,
                   marked: str = "horizontal",
                   family: str | None = None) -> GridDomain:
    """Rectangle with vertical side a and horizontal side b.

    marked="horizontal" marks the two horizontal sides (top/bottom), so the
    joining family runs vertically and has extremal length a/b.
    """
    check_positive(a=a, b=b, h=h)
    _check_cells(b / h + 3, a / h + 3)
    nx, ny = round(b / h), round(a / h)
    if min(nx, ny) < 2:
        raise ValidationError("h must fit each side at least twice")
    if marked == "horizontal":  # the vertical marking, turned a quarter
        arrays, half = _strip(ny, nx)
        arrays, mirrored = [m.T for m in arrays], (False, half)
    elif marked == "vertical":
        arrays, half = _strip(nx, ny)
        mirrored = (half, False)
    else:
        raise ValidationError("marked must be horizontal or vertical")
    inside, marked_a, marked_b, guess = arrays
    return GridDomain(h, inside, marked_a, marked_b,
                      family=family or KINDS["rectangle"].family, x_guess=guess,
                      mirrored=mirrored)


def cylinder_grid(circumference: float, height: float, h: float,
                  family: str | None = None) -> GridDomain:
    """Flat cylinder: the rectangle of vertical side circumference and
    horizontal side height, marked on its two ends.  Its potential is
    constant along the circumference, so gluing the free sides would carry
    no current and change no energy."""
    flat_cylinder(circumference, height)  # checks the lengths
    return rectangle_grid(circumference, height, h, marked="vertical",
                          family=family or KINDS["flat-cylinder"].family)


def _round_closed_form(r: float, big_r: float) -> float:
    """2 pi / log(R/r), with log R - log r where the quotient R/r overflows."""
    q = big_r / r
    return 2.0 * math.pi / (math.log(q) if math.isfinite(q) else math.log(big_r) - math.log(r))


#: the analytic annulus kinds; the parameter names are also the CLI flags
#: and the keys of a JSON domain file
KINDS = {
    "round": Kind(("r", "R"), _round_closed_form, annulus_grid, "separating"),
    "rectangle": Kind(("a", "b"), lambda a, b: a / b, rectangle_grid, "joining"),
    "flat-cylinder": Kind(("circumference", "height"), lambda c, height: c / height,
                          cylinder_grid, "separating"),
}


# ---------------------------------------------------------------------------
# the domain file


def spec_from_json(data: dict) -> AnnulusSpec:
    """The spec of a JSON domain file, whose parameters are JSON numbers: a
    string, a boolean or any other value is refused, not converted.  Keys
    other than `kind`, `params` and the kind's parameter names are refused."""
    try:
        kind, p = data["kind"], data["params"]
        # an unknown kind is refused by the spec
        names = KINDS[kind].params if kind in KINDS else ()
        for n in names:
            if type(p[n]) not in (int, float):  # bool is a subclass of int
                raise TypeError(f"parameter {n} is not a JSON number")
        unknown = [k for k in data if k not in ("kind", "params")]
        unknown += [k for k in p if k not in names] if names else []
        if unknown:
            raise TypeError(f"unknown key {unknown[0]}")
        params = tuple(float(p[n]) for n in names)
    except (KeyError, TypeError, OverflowError) as exc:  # a huge integer
        raise ValidationError(f"bad domain file: {exc}") from None
    return AnnulusSpec(kind, params)
