"""Doubly periodic dbar machinery on the torus with a hole.

The flat torus is C/(Z + i alpha Z); T^{alpha,sigma} keeps the cross of
two width-sigma laths around the skeleton.  The construction takes a
holomorphic g on the vertical annulus {|Re z| < 5 delta/2}/(z ~ z+i
alpha), blends it to the constant g(0) across the window
delta/2 < |Re z| < 3 delta/2 with the C^2 cutoff chi, and corrects the
resulting smooth map g1 by the solution f of dbar f = phi := dbar g1.

The correction uses the doubly periodic kernels

  wp(z)    = 1/z^2 + sum' [ 1/(z-u)^2 - 1/u^2 ],
  wp_nu(z) = 1/z - 1/(z-nu) + sum' [ 1/(z-u) - 1/(z-u-nu) + nu/u^2 ],

with u running over the lattice Z + i alpha Z minus the origin and
nu = (1 + i alpha)/2.  `wp` and `wp_nu` truncate the sums to the box
|n|,|m| <= N, with documented tails O(1/N) for wp_nu and O(1/N^2) for wp
on compact pole-free sets; the solver uses the exact q-series form of
wp_nu (`ThetaKernel`).  The solution

  f(z) = -(1/pi) * int_{Q_eps} phi(zeta) wp_nu(zeta - z) dm(zeta)

is computed by a tensor midpoint rule with exact analytic integration of
the Cauchy factor over cells near the evaluation point; the smooth kernel
remainder wp_nu(w) - 1/w is summed over blocks of cells.

The cutoff profile chi0 integrates a C^1 trapezoid of height 3/2 (the
least possible maximum slope): chi0' rises along the cubic ramp
(3/2) p(3t), p(v) = 3v^2 - 2v^3, stays at 3/2 on [1/3, 2/3] and falls
symmetrically, making chi0 a piecewise quartic C^2 function with
chi0(0) = 0, chi0(1) = 1 and |chi0'| <= 3/2.
"""

from __future__ import annotations

import cmath
import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .words import FreeWord

TRUNC_MAX = 400  # (2N+1)^2 lattice terms per evaluation point
QUAD_N_MAX = 1000  # quad_n^2 quadrature cells


@dataclass(frozen=True)
class KernelParams:
    alpha: float
    nu: complex | None = None
    trunc: int = 50

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha >= 1):
            raise ValidationError("alpha must be finite and >= 1")
        if not 2 <= self.trunc <= TRUNC_MAX:
            raise ValidationError(f"truncation order must lie in [2, {TRUNC_MAX}]")
        if self.nu is not None and not cmath.isfinite(self.nu):
            raise ValidationError("nu must be finite")
        nv = self.nu_value
        n = round(nv.real)
        m = round(nv.imag / self.alpha)
        if abs(nv - (n + 1j * m * self.alpha)) < 1e-9:
            raise ValidationError("nu must avoid the lattice")

    @property
    def nu_value(self) -> complex:
        return self.nu if self.nu is not None else 0.5 + 0.5j * self.alpha


def _lattice(params: KernelParams) -> np.ndarray:
    n = params.trunc
    ns, ms = np.meshgrid(np.arange(-n, n + 1), np.arange(-n, n + 1))
    u = ns.ravel() + 1j * params.alpha * ms.ravel()
    return u[np.abs(u) > 0.5]


def _nearest_pole(z: complex, poles: np.ndarray) -> complex:
    return complex(poles[np.argmin(np.abs(poles - z))])


def _check_poles(params: KernelParams, z: np.ndarray, with_nu: bool) -> None:
    lat = np.concatenate([_lattice(params), [0.0]])
    poles = np.concatenate([lat, lat + params.nu_value]) if with_nu else lat
    flat = np.atleast_1d(z).ravel()
    if not np.isfinite(flat).all():
        raise ValidationError("evaluation points must be finite")
    d = np.abs(flat[:, None] - poles[None, :]).min(axis=1)
    if (d < 1e-6).any():
        bad = complex(flat[int(np.argmin(d))])
        raise ValidationError(
            f"evaluation point {bad} too close to kernel pole "
            f"{_nearest_pole(bad, poles)}")


@contextlib.contextmanager
def _raising(name: str):
    """Turn floating-point overflow or invalid results in the truncated
    lattice sums into a NumericalError."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise NumericalError(f"truncated {name} sum is not representable: {exc}") from None


def wp(params: KernelParams, z) -> np.ndarray | complex:
    """Truncated lattice sum for the double-pole kernel."""
    zz = np.asarray(z, dtype=complex)
    _check_poles(params, zz, with_nu=False)
    u = _lattice(params)
    with _raising("wp"):
        w = zz[..., None] - u
        out = 1.0 / zz ** 2 + (1.0 / w ** 2 - 1.0 / u ** 2).sum(axis=-1)
    return out if out.shape else complex(out)


def wp_nu(params: KernelParams, z) -> np.ndarray | complex:
    """Truncated lattice sum for the simple-pole kernel."""
    zz = np.asarray(z, dtype=complex)
    _check_poles(params, zz, with_nu=True)
    u = _lattice(params)
    nu = params.nu_value
    w = zz[..., None]
    with _raising("wp_nu"):
        out = (1.0 / (w - u) - 1.0 / (w - u - nu) + nu / u ** 2).sum(axis=-1)
        out = out + 1.0 / zz - 1.0 / (zz - nu)
    return out if out.shape else complex(out)


def wp_tail_bound(params: KernelParams, wmax: float) -> float:
    """Bound for |wp - wp_truncated| on {|z| <= wmax}: paired terms decay
    like |u|^-4, and the off-box lattice satisfies sum |u|^-4 <= 4/N^2."""
    n = params.trunc
    if wmax > n / 2:
        raise ValidationError("tail bound needs |z| <= N/2")
    c = 30.0 * wmax ** 2 * (1.0 + wmax)
    return c * 4.0 / n ** 2


def wp_nu_tail_bound(params: KernelParams, wmax: float) -> float:
    """Bound for |wp_nu - wp_nu_truncated| on {|z| <= wmax}: single terms
    decay like |u|^-3 and the off-box lattice satisfies sum |u|^-3 <= 8/N."""
    n = params.trunc
    nu = abs(params.nu_value)
    if 2.0 * (wmax + nu) > n:
        raise ValidationError("tail bound needs 2(|z|+|nu|) <= N")
    a = 4.0 * nu * (2.0 * wmax + nu)
    b = 4.0 * nu * wmax * (wmax + nu)
    return a * 8.0 / n + b * 4.0 / n ** 2


# ---------------------------------------------------------------------------
# the exact kernel


# Taylor coefficients of cot(v) - 1/v in v^11, v^9, ..., v, for np.polyval in
# v^2 (times v); the first omitted term is below 2e-16 on |v| < _SMALL_V.
_COT_TAYLOR = (-1382.0 / 638512875.0, -2.0 / 93555.0, -1.0 / 4725.0,
               -2.0 / 945.0, -1.0 / 45.0, -1.0 / 3.0)
_SMALL_V = 0.2


class ThetaKernel:
    """wp_nu evaluated exactly through the theta_1 log-derivative.

    The truncated sum converges absolutely to zeta(z) - zeta(z - nu), so
    wp_nu(z) = 2 eta1 nu + pi [L(pi z) - L(pi (z - nu))] with
    L(v) = theta_1'(v)/theta_1(v) = cot v + 4 sum q^{2n}/(1 - q^{2n}) sin 2nv,
    q = e^{-pi alpha} and eta1 = zeta(1/2) = (pi^2/6)(1 - 24 sum n q^{2n}/(1 - q^{2n}))
    (DLMF 20.5.10, 23.6.8).  Each argument is reduced into the strip
    |Im v| <= pi alpha/2 by L(v + i pi alpha) = L(v) - 2i, where the sine
    terms decay like e^{-n pi alpha}; ceil(38/(pi alpha)) terms (13 at
    alpha = 1) then reach double precision.
    """

    def __init__(self, params: KernelParams):
        a = params.alpha
        n = np.arange(1, math.ceil(38.0 / (math.pi * a)) + 1)
        ratio = 1.0 / np.expm1(2.0 * math.pi * a * n)  # q^{2n}/(1 - q^{2n})
        self.alpha, self.nu = a, params.nu_value
        self.coef = (4.0 * ratio)[::-1]  # highest order first, for np.polyval
        self.eta1 = math.pi ** 2 / 6.0 * (1.0 - 24.0 * float((n * ratio).sum()))

    def _sine_series(self, e: np.ndarray) -> np.ndarray:
        """4 sum q^{2n}/(1 - q^{2n}) sin 2nv = (P(e) - P(1/e))/(2i), where
        e = e^{2iv} and P(x) = sum 4 q^{2n}/(1 - q^{2n}) x^n."""
        return (e * np.polyval(self.coef, e) - np.polyval(self.coef, 1.0 / e) / e) / 2j

    def dlog_theta1(self, v) -> np.ndarray:
        """L(v) = theta_1'(v)/theta_1(v) for the nome q = e^{-pi alpha}."""
        v = np.asarray(v, dtype=complex)
        m = np.round(v.imag / (math.pi * self.alpha))
        em1 = np.expm1(2j * v + 2.0 * math.pi * self.alpha * m)  # e^{2iv} - 1, reduced
        # cot v = i (e^{2iv} + 1)/(e^{2iv} - 1)
        return 1j * (em1 + 2.0) / em1 + self._sine_series(em1 + 1.0) - 2j * m

    def wp_nu(self, z) -> np.ndarray:
        """The exact kernel wp_nu(z) (infinite at its poles)."""
        z = np.asarray(z, dtype=complex)
        return (2.0 * self.eta1 * self.nu + math.pi * (
            self.dlog_theta1(math.pi * z) - self.dlog_theta1(math.pi * (z - self.nu))))

    def regular(self, w) -> np.ndarray:
        """wp_nu(w) - 1/w, finite at w = 0: near the origin cot v - 1/v is
        summed from its Taylor series instead of cancelling two poles."""
        w = np.asarray(w, dtype=complex)
        v = math.pi * w
        small = np.abs(v) < _SMALL_V
        vs, far = v[small], ~small
        out = np.empty_like(w)
        out[small] = math.pi * (vs * np.polyval(_COT_TAYLOR, vs * vs)
                                + self._sine_series(np.exp(2j * vs)))
        out[far] = math.pi * self.dlog_theta1(v[far]) - 1.0 / w[far]
        out -= math.pi * self.dlog_theta1(v - math.pi * self.nu)
        return out + 2.0 * self.eta1 * self.nu


# ---------------------------------------------------------------------------
# cutoff


def _unbox(out: np.ndarray, t):
    """out for an array argument t, its one entry as a float for a scalar t
    (which is evaluated as a 1-element array, so both round alike)."""
    return out if np.ndim(t) else float(out[0])


def _fold(t) -> tuple[np.ndarray, np.ndarray]:
    """t checked to lie in [0,1], and t with (1/2, 1] mirrored onto [0, 1/2)."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if not ((t >= 0.0) & (t <= 1.0)).all():
        raise ValidationError("chi0 domain is [0,1]")
    return t, np.where(t > 0.5, 1.0 - t, t)


def chi0(t):
    """The cutoff profile on [0,1], elementwise; chi0(1 - t) = 1 - chi0(t)."""
    tt, s = _fold(t)
    v = 3.0 * s
    low = np.where(s <= 1.0 / 3.0, 0.5 * (v ** 3 - 0.5 * v ** 4),
                   0.25 + 1.5 * (s - 1.0 / 3.0))
    return _unbox(np.where(tt > 0.5, 1.0 - low, low), t)


def chi0_prime(t):
    """chi0' elementwise; chi0'(1 - t) = chi0'(t)."""
    _, s = _fold(t)
    v = 3.0 * s
    return _unbox(np.where(s <= 1.0 / 3.0, 1.5 * (3.0 * v ** 2 - 2.0 * v ** 3), 1.5), t)


def _ramp(delta: float, t) -> tuple[np.ndarray, np.ndarray]:
    """t as an array and the chi0 argument 3/2 - |t|/delta clamped to [0,1]."""
    if not delta > 0:
        raise ValidationError("delta must be positive")
    t = np.atleast_1d(np.asarray(t, dtype=float))
    return t, np.clip(1.5 - np.abs(t) / delta, 0.0, 1.0)


def chi(delta: float, t):
    """The C^2 cutoff: 1 on |t| <= delta/2, 0 at |t| = 3 delta/2."""
    tt, u = _ramp(delta, t)
    if (np.abs(tt) > 1.5 * delta * (1 + 1e-12)).any():
        raise ValidationError("chi argument outside [-3 delta/2, 3 delta/2]")
    return _unbox(np.where(np.abs(tt) <= 0.5 * delta, 1.0, chi0(u)), t)


def chi_prime(delta: float, t):
    """chi' on the whole line (0 beyond the window)."""
    tt, u = _ramp(delta, t)
    window = (np.abs(tt) > 0.5 * delta) & (np.abs(tt) <= 1.5 * delta)
    return _unbox(np.where(window, -np.sign(tt) * chi0_prime(u) / delta, 0.0), t)


# ---------------------------------------------------------------------------
# configuration and blending


@dataclass(frozen=True)
class DbarConfig:
    """Geometry and constants of one dbar run; sigma = eps * delta."""

    eps: float
    delta: float = 0.1
    quad_n: int = 400
    lath_samples: int = 360

    def __post_init__(self):
        if not 0 < self.eps < 1:
            raise ValidationError("eps must lie in (0,1)")
        if not 0 < self.delta <= 0.2:
            raise ValidationError("delta must lie in (0, 0.2]")
        if self.quad_n < 16:
            raise ValidationError("quadrature grid too coarse")
        if self.quad_n > QUAD_N_MAX:
            raise ValidationError(f"quadrature grid larger than {QUAD_N_MAX}^2")

    @property
    def sigma(self) -> float:
        return self.eps * self.delta


def blend(g_values, g_zero: complex, x, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """(g1, phi) from samples g(z) at points with real parts x:
    g1 = chi(Re z) g(z) + (1 - chi(Re z)) g(0) inside the window, the
    constant g(0) beyond it, and phi = dbar g1 = (1/2) chi'(Re z) (g(z) - g(0))."""
    inside = np.abs(x) < 1.5 * delta
    c = chi(delta, np.where(inside, x, 0.0))
    g1 = np.where(inside, c * g_values + (1.0 - c) * g_zero, g_zero)
    return g1, 0.5 * chi_prime(delta, x) * (g_values - g_zero)


def validate_analytic(xs: np.ndarray, ys: np.ndarray, values: np.ndarray,
                      tol: float = 1e-8) -> float:
    """Cauchy-Riemann finite-difference residual of samples on a grid;
    raises when it exceeds the second-order FD allowance (floor tol)."""
    if values.shape != (ys.size, xs.size):
        raise ValidationError("value grid shape mismatch")
    if xs.size < 3 or ys.size < 3:
        raise ValidationError("analyticity check needs a 3x3 grid")
    hx = xs[1] - xs[0]
    hy = ys[1] - ys[0]
    gx = (values[1:-1, 2:] - values[1:-1, :-2]) / (2 * hx)
    gy = (values[2:, 1:-1] - values[:-2, 1:-1]) / (2 * hy)
    res = float(np.abs(0.5 * (gx + 1j * gy)).max())
    scale = max(float(np.abs(values).max()), 1.0)
    # holomorphic samples leave an O(h^2 g''') discretization residual
    h2 = max(hx, hy) ** 2
    third = _third_difference_scale(values, hx, hy)
    if res > max(tol * scale, h2 * third):
        raise ValidationError(
            f"samples fail the analyticity check (CR residual {res:.3e})")
    return res


def _third_difference_scale(values: np.ndarray, hx: float, hy: float) -> float:
    dx = np.diff(values, n=3, axis=1) / hx ** 3 if values.shape[1] > 3 else np.zeros(1)
    dy = np.diff(values, n=3, axis=0) / hy ** 3 if values.shape[0] > 3 else np.zeros(1)
    return float(max(np.abs(dx).max(), np.abs(dy).max()))


def blend_and_phi(xs: np.ndarray, ys: np.ndarray, values: np.ndarray,
                  cfg: DbarConfig) -> tuple[np.ndarray, np.ndarray]:
    """Blend a holomorphic sample grid on the strip |Re z| < 3 delta/2 and
    return (g1, phi) on the same grid, after checking analyticity."""
    validate_analytic(xs, ys, values)
    g_zero = values[int(np.argmin(np.abs(ys))), int(np.argmin(np.abs(xs)))]
    return blend(values, g_zero, xs, cfg.delta)


# ---------------------------------------------------------------------------
# quadrature over Q_eps


@dataclass
class QuadratureData:
    centers: np.ndarray    # complex cell centers with phi != 0
    areas: np.ndarray
    phi: np.ndarray
    hx: float
    hy: float
    all_centers: np.ndarray  # every cell center of Q_eps (phi = 0 included)


def q_eps_cells(cfg: DbarConfig) -> tuple[np.ndarray, float, float]:
    """Cell centers of the quad_n x quad_n midpoint rule over the bounding
    box of Q, restricted to Q_eps."""
    d, s = cfg.delta, cfg.sigma
    n = cfg.quad_n
    hx = 3.0 * d / n
    hy = d / n
    cx = -1.5 * d + (np.arange(n) + 0.5) * hx
    cy = -0.5 * d + (np.arange(n) + 0.5) * hy
    xx, yy = np.meshgrid(cx, cy)
    keep = (np.abs(yy) < 0.5 * s) | (np.abs(xx) < 0.5 * s)
    return (xx[keep] + 1j * yy[keep]), hx, hy


def quadrature_phi(g, cfg: DbarConfig) -> QuadratureData:
    """Evaluate phi = dbar g1 on the Q_eps midpoint cells for a callable
    holomorphic g (periodic with period i alpha)."""
    centers, hx, hy = q_eps_cells(cfg)
    # an overflowing g leaves a non-finite phi, refused below
    with np.errstate(over="ignore", invalid="ignore"):
        _, phi = blend(g(centers), complex(g(0j)), centers.real, cfg.delta)
    if not np.isfinite(phi).all():
        raise ValidationError("g is not finite on the blending window")
    keep = phi != 0.0
    return QuadratureData(centers[keep], np.full(int(keep.sum()), hx * hy),
                          phi[keep], hx, hy, centers)


def rect_cauchy_integral(x0: float, x1: float, y0: float, y1: float,
                         w: complex) -> complex:
    """Exact integral over the rectangle of dm(zeta)/(zeta - w), by the
    Stokes identity with the bounded primitive (conj(zeta) - conj(w))/(zeta - w)."""
    corners = [complex(x0, y0), complex(x1, y0), complex(x1, y1), complex(x0, y1)]
    total = 0.0 + 0.0j
    for a, b in zip(corners, corners[1:] + corners[:1]):
        aa = a - w
        d = b - a
        if abs(aa) < 1e-14 or abs(aa + d) < 1e-14:
            w = w + (1e-12 + 1e-12j)
            return rect_cauchy_integral(x0, x1, y0, y1, w)
        ell = cmath.log((aa + d) / aa)
        total += ell * (aa.conjugate() - aa * d.conjugate() / d)
    return total / 2j


# ---------------------------------------------------------------------------
# the dbar solution

# Side, in cells, of the blocks that carry the smooth kernel remainder.
_REMAINDER_BLOCK = 4


class DbarSolution:
    """f(z) = -(1/pi) int_{Q_eps} phi(zeta) wp_nu(zeta - z) dm(zeta).

    wp_nu is doubly periodic, so each target is first reduced modulo the
    lattice; then only the kernel pole at 0 can come near the support.  The
    kernel splits into that Cauchy term, integrated exactly over cells
    within `sing_radius` of the target, and the smooth remainder
    wp_nu(w) - 1/w, summed over 4 x 4 blocks of cells.  Targets that bring
    a pole of the nu class within reach of the support are refused.
    """

    def __init__(self, quad: QuadratureData, params: KernelParams,
                 cfg: DbarConfig):
        self.quad = quad
        self.params = params
        self.cfg = cfg
        self.kernel = ThetaKernel(params)
        self._blocks = self._aggregate_blocks(_REMAINDER_BLOCK)

    def _aggregate_blocks(self, b: int) -> tuple[np.ndarray, np.ndarray]:
        """Group cells into b x b blocks for the smooth remainder part
        (mass-weighted centroids; the resulting error is holomorphic in the
        evaluation point and quartically small in the block size)."""
        c = self.quad.centers
        pa = self.quad.phi * self.quad.areas
        if c.size == 0:
            return c, pa
        kx = np.round(c.real / (b * self.quad.hx)).astype(np.int64)
        ky = np.round(c.imag / (b * self.quad.hy)).astype(np.int64)
        keys = kx * 10 ** 6 + ky
        order = np.argsort(keys, kind="stable")
        keys, c, pa = keys[order], c[order], pa[order]
        starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        sums = np.add.reduceat(pa, starts)
        weights = np.abs(pa) + 1e-300
        centroids = (np.add.reduceat(c * weights, starts)
                     / np.add.reduceat(weights, starts))
        return centroids, sums

    def _reduce(self, z: np.ndarray) -> np.ndarray:
        """z minus the nearest lattice point."""
        a = self.params.alpha
        z = z - 1j * a * np.round(z.imag / a)
        return z - np.round(z.real)

    def _check_nu_poles(self, zr: np.ndarray) -> None:
        """Refuse reduced targets z for which wp_nu(zeta - z) has a pole of
        the nu class, at zeta = z + nu (mod the lattice), within block or
        singular-cell reach of the bounding box of the support."""
        c, hx, hy = self.quad.centers, self.quad.hx, self.quad.hy
        if c.size == 0:
            return
        lo = complex(c.real.min() - hx / 2, c.imag.min() - hy / 2)
        hi = complex(c.real.max() + hx / 2, c.imag.max() + hy / 2)
        p = self._reduce(zr + self.params.nu_value - 0.5 * (lo + hi))
        half = 0.5 * (hi - lo)
        dist = np.hypot(np.maximum(np.abs(p.real) - half.real, 0.0),
                        np.maximum(np.abs(p.imag) - half.imag, 0.0))
        reach = max(2.5 * max(hx, hy), _REMAINDER_BLOCK * math.hypot(hx, hy))
        if (dist < reach).any():
            k = int(np.argmin(dist))
            raise ValidationError(
                f"evaluation point {complex(zr[k])} too close to kernel pole: "
                f"wp_nu(zeta - z) has a pole {dist[k]:.2e} from the phi "
                f"support (reach {reach:.2e})")

    def kernel_c2(self) -> float:
        """Numeric bound for |wp_nu(w) - 1/w| over the strips that hold the
        differences of points of the cross and of the support, away from
        the neighbouring lattice poles 1, -1, i alpha, -i alpha."""
        d, s, a = self.cfg.delta, self.cfg.sigma, self.params.alpha
        pad = 0.05
        if 1.5 * d + s + pad >= 0.5:
            raise ValidationError("c2 needs 3 delta/2 + sigma < 0.45: a wider sample "
                                  "strip holds the nu-class kernel poles at Re w = +-1/2")
        poles = np.array([1.0, -1.0, 1j * a, -1j * a])
        bound = 0.0
        for re_h, im_h in ((1.5 + 1.5 * d + pad, 0.5 * d + s + pad),
                           (1.5 * d + s + pad, 1.5 * a + 0.5 * d + pad)):
            xx, yy = np.meshgrid(np.linspace(-re_h, re_h, 160),
                                 np.linspace(-im_h, im_h, 40))
            w = (xx + 1j * yy).ravel()
            w = w[(np.abs(w[:, None] - poles) > 0.24).all(axis=1)]
            bound = max(bound, float(np.abs(self.kernel.regular(w)).max()))
        return 1.1 * bound

    def f(self, z) -> np.ndarray | complex:
        zz = np.atleast_1d(np.asarray(z, dtype=complex))
        flat = self._reduce(zz.ravel())
        self._check_nu_poles(flat)
        out = np.zeros(flat.shape, dtype=complex)
        centers = self.quad.centers
        phi_a = self.quad.phi * self.quad.areas
        hx, hy = self.quad.hx, self.quad.hy
        blk_c, blk_pa = self._blocks
        sing_radius = 2.5 * max(hx, hy)
        chunk = max(1, int(4e6 // max(1, centers.size)))
        for lo in range(0, flat.size, chunk):
            zc = flat[lo:lo + chunk]
            acc = (blk_pa * self.kernel.regular(blk_c[None, :] - zc[:, None])).sum(axis=1)
            w0 = centers[None, :] - zc[:, None]
            near = np.abs(w0) < sing_radius
            terms = phi_a[None, :] / np.where(near, 1.0, w0)
            for r, c in zip(*np.nonzero(near)):
                x, y = centers[c].real, centers[c].imag
                terms[r, c] = self.quad.phi[c] * rect_cauchy_integral(
                    x - hx / 2, x + hx / 2, y - hy / 2, y + hy / 2, zc[r])
            acc += terms.sum(axis=1)
            out[lo:lo + chunk] = -acc / math.pi
        out = out.reshape(zz.shape)
        return out if out.shape != (1,) or np.ndim(z) else complex(out[0])


def solve_dbar(quad: QuadratureData, params: KernelParams,
               cfg: DbarConfig) -> DbarSolution:
    if quad.centers.size and (np.abs(quad.centers.real) > 1.5 * cfg.delta + 1e-12).any():
        raise ValidationError("phi support must lie inside Q")
    min_h = min(quad.hx, quad.hy)
    if min_h > cfg.sigma / 2:
        raise NumericalError(
            f"quadrature grid too coarse to resolve the Cauchy singularity "
            f"(cell {min_h:.2e} vs sigma {cfg.sigma:.2e})")
    return DbarSolution(quad, params, cfg)


def sup_f_budget(c1: float, c2: float, eps: float, delta: float) -> float:
    """Supremum budget for |f|:
    6 C1 C2 eps delta / pi + (3 C1 / (pi delta)) (2 sqrt2 pi eps delta
    + 4 eps delta log(3/eps))."""
    ed = eps * delta
    return (6.0 * c1 * c2 * ed / math.pi
            + 3.0 * c1 / (math.pi * delta)
            * (2.0 * math.sqrt(2.0) * math.pi * ed + 4.0 * ed * math.log(3.0 / eps)))


# ---------------------------------------------------------------------------
# sampling grids and diagnostics


def cross_grid(params: KernelParams, cfg: DbarConfig,
               along: int | None = None, across: int = 7) -> np.ndarray:
    """Sample points on the fundamental cross of T^{alpha,sigma}."""
    a = params.alpha
    s = cfg.sigma
    along = along or cfg.lath_samples
    ts = np.linspace(-0.5 + 1e-3, 0.5 - 1e-3, along)
    us = np.linspace(-s / 2 + s / 64, s / 2 - s / 64, across)
    vert = (us[None, :] + 1j * a * ts[:, None]).ravel()
    horiz = (ts[:, None] + 1j * us[None, :]).ravel()
    return np.concatenate([vert, horiz])


@dataclass
class SolveDiagnostics:
    sup_f: float
    budget: float
    c1: float
    c2: float
    fd_dbar_residual: float
    off_support_residual: float
    periodic_defect: float


def fd_dbar(fvals: dict[str, np.ndarray], step_x: float, step_y: float) -> np.ndarray:
    """Central-difference dbar from f at z, z +- hx, z +- i hy."""
    gx = (fvals["xp"] - fvals["xm"]) / (2 * step_x)
    gy = (fvals["yp"] - fvals["ym"]) / (2 * step_y)
    return 0.5 * (gx + 1j * gy)


def _fd_values(fn, z: np.ndarray, sx: float, sy: float):
    """fn at the four points of the dbar stencil around z."""
    return {
        "xp": fn(z + sx), "xm": fn(z - sx),
        "yp": fn(z + 1j * sy), "ym": fn(z - 1j * sy),
    }


def _off_support_residual(fn, points: np.ndarray, cfg: DbarConfig) -> float:
    """max |dbar fn| by central differences of step sigma/8 at the first 240
    of the points well outside Q, where fn must be holomorphic."""
    off = points[(np.abs(points.real) > 1.6 * cfg.delta)
                 | (np.abs(points.imag) > 0.6 * cfg.delta)][:240]
    so = cfg.sigma / 8
    return float(np.abs(fd_dbar(_fd_values(fn, off, so, so), so, so)).max())


def fd_nodes(quad: QuadratureData, cfg: DbarConfig) -> np.ndarray:
    """Every third Q_eps cell center where a +-hy dbar stencil sees a smooth field:
    inside the lath where chi' can be nonzero (support edges at
    |Im z| = sigma/2 must not be crossed), and in the chi' = 0 band of the
    vertical strip away from the corner."""
    s, d = cfg.sigma, cfg.delta
    hy = quad.hy
    pts = quad.all_centers
    horiz = (np.abs(pts.imag) < s / 2 - hy) & (np.abs(pts.real) < 1.5 * d - 2 * hy)
    vert = (np.abs(pts.real) < s / 2) & \
           (np.abs(pts.imag) > s / 2 + 2 * hy) & \
           (np.abs(pts.imag) < 0.5 * d - 2 * hy)
    return pts[horiz | vert][::3]


def solve_diagnostics(sol: DbarSolution, g, g_zero: complex) -> SolveDiagnostics:
    cfg, params = sol.cfg, sol.params
    c2 = sol.kernel_c2()  # first, since it may refuse the geometry
    hy = sol.quad.hy

    nodes = fd_nodes(sol.quad, cfg)
    dbar_fd = fd_dbar(_fd_values(sol.f, nodes, hy, hy), hy, hy)
    _, phi_true = blend(g(nodes), g_zero, nodes.real, cfg.delta)
    fd_res = float(np.abs(dbar_fd - phi_true).max()) if nodes.size else 0.0

    off_res = _off_support_residual(sol.f, cross_grid(params, cfg, 120, 3), cfg)

    grid = cross_grid(params, cfg)
    sup_f = float(np.abs(sol.f(grid)).max())

    # the torus gluing shifts each lath along its own direction
    vert = grid[np.abs(grid.real) <= cfg.sigma / 2][::5]
    horiz = grid[np.abs(grid.imag) <= cfg.sigma / 2][::5]
    defect = max(
        float(np.abs(sol.f(horiz + 1.0) - sol.f(horiz)).max()),
        float(np.abs(sol.f(vert + 1j * params.alpha) - sol.f(vert)).max()))

    c1 = _c1_estimate(g, params, cfg)
    return SolveDiagnostics(sup_f, sup_f_budget(c1, c2, cfg.eps, cfg.delta),
                            c1, c2, fd_res, off_res, defect)


def _c1_estimate(g, params: KernelParams, cfg: DbarConfig) -> float:
    xs = np.linspace(-2.5 * cfg.delta, 2.5 * cfg.delta, 41)
    ys = np.linspace(0.0, params.alpha, 101)
    zz = xs[None, :] + 1j * ys[:, None]
    return 1.02 * float(np.abs(g(zz)).max())


# ---------------------------------------------------------------------------
# the end-to-end demo: single-generator-power monodromy


@dataclass
class DemoResult:
    alpha: float
    sigma: float
    target: FreeWord
    decoded: FreeWord
    sup_f: float
    clearance: float
    dbar_residual: float
    circle_samples: np.ndarray
    map_samples: np.ndarray

    def to_json(self) -> dict:
        from .words import format_word

        return {
            "alpha": self.alpha,
            "sigma": self.sigma,
            "target": format_word(self.target),
            "sup_f": self.sup_f,
            "clearance": self.clearance,
            "decoded": format_word(self.decoded),
            "dbar_residual": self.dbar_residual,
        }


def demo_g(alpha: float, gen: int, n: int, rho: float):
    """Holomorphic i*alpha-periodic map of the vertical annulus into a
    punctured disc around -1 (gen 1) or +1 (gen 2), winding n times."""
    center = -1.0 if gen == 1 else 1.0

    def g(z):
        return center + rho * np.exp(2.0 * math.pi * n * np.asarray(z) / alpha)

    return g


def demo_config(alpha: float, sigma: float, n: int) -> DbarConfig:
    """Blend width tuned so the winding-n growth across the window stays
    bounded: delta = min(1/10, alpha/(10 |n|))."""
    delta = min(0.1, alpha / (10.0 * abs(n)))
    return DbarConfig(eps=sigma / delta, delta=delta, quad_n=200)


def demo_construct(alpha: float, sigma: float, target: FreeWord,
                   cfg: DbarConfig | None = None,
                   circle_samples: int = 1024) -> DemoResult:
    """Build a holomorphic map T^{alpha,sigma} -> C minus {-1,1} whose
    monodromy along the vertical generator is the single-power target,
    and decode it back from samples."""
    if target.is_identity or len(target.terms) != 1:
        raise ValidationError("demo target must be a single power a1^n or a2^n")
    gen, n = target.terms[0]
    if n == 0:
        raise ValidationError("target exponent must be nonzero")
    cfg = cfg or demo_config(alpha, sigma, n)
    if abs(cfg.sigma - sigma) > 1e-12:
        raise ValidationError("config sigma does not match the requested sigma")
    params = KernelParams(alpha)

    growth = math.exp(2.0 * math.pi * abs(n) * (1.5 * cfg.delta) / alpha)
    rho = 0.5 / growth
    g = demo_g(alpha, gen, n, rho)
    g_zero = complex(g(0.0 + 0.0j))

    quad = quadrature_phi(g, cfg)
    sol = solve_dbar(quad, params, cfg)

    grid = cross_grid(params, cfg)
    g1, _ = blend(g(grid), g_zero, grid.real, cfg.delta)
    clearance = float(min(np.abs(g1 - 1.0).min(), np.abs(g1 + 1.0).min()))
    fvals = sol.f(grid)
    if not np.isfinite(fvals).all():
        raise NumericalError("dbar solution returned non-finite values")
    sup_f = float(np.abs(fvals).max())
    # pointwise puncture margin: h_t = g1 - t f stays clear of -1 and 1
    # for all t in [0,1], which keeps the monodromy of h that of g1
    margin = np.minimum(np.abs(g1 - 1.0), np.abs(g1 + 1.0)) - np.abs(fvals)
    if not float(margin.min()) > 0.0:
        raise ValidationError(
            f"eps too large: sup|f| {sup_f:.4e} vs clearance {clearance:.4e} "
            "(pointwise puncture margin exhausted)")

    def h(z):
        return blend(g(z), g_zero, z.real, cfg.delta)[0] - sol.f(z)

    residual = _off_support_residual(h, grid, cfg)

    ys = np.linspace(0.0, alpha, circle_samples, endpoint=False)
    circle = 1j * ys
    on_circle = g(circle) - sol.f(circle)
    samples = np.concatenate([on_circle, on_circle[:1]])

    from .config3 import decode_word, plane_loop

    decoded = decode_word(plane_loop(list(samples)))
    return DemoResult(alpha, sigma, target, decoded, sup_f, clearance,
                      residual, np.concatenate([circle, circle[:1]]), samples)
