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
nu = (1 + i alpha)/2.  `wp` and `wp_nu` truncate the sums to a box
(`_truncated_sum`); the solver uses the exact q-series form of wp_nu
(`ThetaKernel`).  The solution

  f(z) = -(1/pi) * int_{Q_eps} phi(zeta) wp_nu(zeta - z) dm(zeta)

is computed by a tensor midpoint rule in O(cells + targets).  The Cauchy
factor 1/(zeta - z) is summed by a one-level Laurent multipole of order
p = 30 over sub-boxes of the support of phi (Greengard-Rokhlin), directly
for the sub-boxes near the target and by exact analytic integration over
the cells nearest to it.  The smooth kernel remainder wp_nu(w) - 1/w is
summed exactly over Chebyshev proxy sources in the two support boxes of
phi, on which it is analytic (Fong-Darve), its theta q-series separated
into moments of the sources and its cotangent terms turned into Cauchy
sums over the sources, which one clustered multipole helper sums as it
sums the cells.

The cutoff profile chi0 integrates a C^1 trapezoid of height 3/2 (the
least possible maximum slope): chi0' rises along the cubic ramp
(3/2) p(3t), p(v) = 3v^2 - 2v^3, stays at 3/2 on [1/3, 2/3] and falls
symmetrically, making chi0 a piecewise quartic C^2 function with
chi0(0) = 0, chi0(1) = 1 and |chi0'| <= 3/2.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (NumericalError, ValidationError, check_alpha, check_nonnegative,
                     check_positive)
from .words import FreeWord

TRUNC_MAX = 400  # (2N+1)^2 lattice terms per evaluation point
QUAD_N_MAX = 1000  # quad_n^2 quadrature cells


@dataclass(frozen=True)
class KernelParams:
    alpha: float
    trunc: int = 50

    def __post_init__(self):
        check_alpha(self.alpha)
        if not 2 <= self.trunc <= TRUNC_MAX:
            raise ValidationError(f"truncation order must lie in [2, {TRUNC_MAX}]")

    @property
    def nu_value(self) -> complex:
        """The half period nu = (1 + i alpha)/2."""
        return 0.5 + 0.5j * self.alpha


def _nearest_lattice_point(z, alpha: float):
    """The point n + i alpha m of the lattice nearest to z: the lattice is
    rectangular, so each coordinate is rounded on its own."""
    return np.round(np.real(z)) + 1j * alpha * np.round(np.imag(z) / alpha)


def _check_poles(params: KernelParams, z: np.ndarray, with_nu: bool) -> None:
    """Refuse points within 1e-6 of a box pole u (and u + nu when with_nu),
    |n|, |m| <= N: poles lie 1 apart, so only the nearest can be that close."""
    flat = np.atleast_1d(z).ravel()
    if not np.isfinite(flat).all():
        raise ValidationError("evaluation points must be finite")
    a, n = params.alpha, params.trunc
    for shift in (0.0, params.nu_value) if with_nu else (0.0,):
        u = _nearest_lattice_point(flat - shift, a)
        in_box = (np.abs(u.real) <= n) & (np.abs(u.imag) <= a * n)
        d = np.where(in_box, np.abs(flat - (u + shift)), np.inf)
        k = int(np.argmin(d))
        if d[k] < 1e-6:
            raise ValidationError(
                f"evaluation point {complex(flat[k])} too close to kernel pole "
                f"{complex(u[k] + shift)}")


def _unbox(out: np.ndarray, t):
    """The scalar rule of every dbar point function: out for an array
    argument t, and for a scalar t the single entry of out (of shape () or
    (1,)) as a Python number."""
    return out if np.ndim(t) else out.item()


def _truncated_sum(name: str, with_nu: bool, params: KernelParams, z, row, closing):
    """The truncated kernel `name` at the points z: closing(zz, s), where s
    sums over the box |n|, |m| <= N of lattice points u = n + i alpha m != 0,
    m outer and n inner, the terms row(u)(w, spare) at each point z.  These
    work in place in two preallocated rows, w = z - u and a spare, so one
    point costs O((2N+1)^2) and the temporaries hold two rows; the values
    are the same bits as one broadcast sum over all points.  The tails are
    O(1/N^2) for wp and O(1/N) for wp_nu on compact pole-free sets
    (`wp_tail_bound`, `wp_nu_tail_bound`).  Points within 1e-6 of a box pole
    are refused; overflow or an invalid result is a NumericalError."""
    zz = np.asarray(z, dtype=complex)
    if zz.size == 0:
        return np.empty(zz.shape, dtype=complex)
    _check_poles(params, zz, with_nu)
    k = np.arange(-params.trunc, params.trunc + 1)
    try:
        with np.errstate(over="raise", invalid="raise"):
            u = (k + 1j * params.alpha * k[:, None]).ravel()
            u = u[np.abs(u) > 0.5]
            terms, w, spare = row(u), np.empty_like(u), np.empty_like(u)
            s = np.empty(zz.size, dtype=complex)
            for i, zi in enumerate(zz.ravel()):
                np.subtract(zi, u, out=w)
                s[i] = terms(w, spare).sum()
            out = closing(zz, s.reshape(zz.shape))
    except FloatingPointError as exc:
        raise NumericalError(f"truncated {name} sum is not representable: {exc}") from None
    return _unbox(out, z)


def wp(params: KernelParams, z) -> np.ndarray | complex:
    """Truncated lattice sum for the double-pole kernel."""
    def row(u):
        inv_u2 = 1.0 / u ** 2

        def terms(w, _):  # 1/w^2 - 1/u^2
            np.square(w, out=w)
            np.divide(1.0, w, out=w)
            return np.subtract(w, inv_u2, out=w)
        return terms

    return _truncated_sum("wp", False, params, z, row, lambda zz, s: 1.0 / zz ** 2 + s)


def wp_nu(params: KernelParams, z) -> np.ndarray | complex:
    """Truncated lattice sum for the simple-pole kernel."""
    nu = params.nu_value

    def row(u):
        nu_u2 = nu / u ** 2

        def terms(w, w_nu):  # 1/w - 1/(w - nu) + nu/u^2
            np.subtract(w, nu, out=w_nu)
            np.divide(1.0, w, out=w)
            np.divide(1.0, w_nu, out=w_nu)
            np.subtract(w, w_nu, out=w)
            return np.add(w, nu_u2, out=w)
        return terms

    return _truncated_sum("wp_nu", True, params, z, row,
                          lambda zz, s: s + 1.0 / zz - 1.0 / (zz - nu))


def wp_tail_bound(params: KernelParams, wmax: float) -> float:
    """Bound for |wp - wp_truncated| on {|z| <= wmax}: paired terms decay
    like |u|^-4, and the off-box lattice satisfies sum |u|^-4 <= 4/N^2."""
    check_nonnegative("radius", wmax)
    n = params.trunc
    if wmax > n / 2:
        raise ValidationError("tail bound needs |z| <= N/2")
    c = 30.0 * wmax ** 2 * (1.0 + wmax)
    return c * 4.0 / n ** 2


def wp_nu_tail_bound(params: KernelParams, wmax: float) -> float:
    """Bound for |wp_nu - wp_nu_truncated| on {|z| <= wmax}: single terms
    decay like |u|^-3 and the off-box lattice satisfies sum |u|^-3 <= 8/N."""
    check_nonnegative("radius", wmax)
    n = params.trunc
    nu = abs(params.nu_value)
    if 2.0 * (wmax + nu) > n:
        raise ValidationError("tail bound needs 2(|z|+|nu|) <= N")
    a = 4.0 * nu * (2.0 * wmax + nu)
    b = 4.0 * nu * wmax * (wmax + nu)
    return a * 8.0 / n + b * 4.0 / n ** 2


# ---------------------------------------------------------------------------
# clustered Cauchy sums

# Order of the Laurent expansion of a Cauchy sum about each cluster centre;
# beyond three cluster radii the tail is below about 1.5 * 3^-(p+1) of sum |W_j|/d.
_MULTIPOLE_P = 30


def _sum_rows(rows: np.ndarray, terms: np.ndarray, size: int) -> np.ndarray:
    """The complex terms summed per row index, for rows 0..size-1."""
    return np.bincount(rows, terms.real, size) + 1j * np.bincount(rows, terms.imag, size)


def _sign_halves(x: np.ndarray) -> np.ndarray:
    """Cluster labels 0..3 of points x: by the sign of Re x, then the lower
    or upper half of the range of |Re x| on that side."""
    side = (x.real > 0).astype(int)
    size = np.abs(x.real)
    lo, hi = np.full(2, np.inf), np.full(2, -np.inf)
    np.minimum.at(lo, side, size)
    np.maximum.at(hi, side, size)
    return 2 * side + (size > 0.5 * (lo + hi)[side])


class _Clusters:
    """A weighted point set x_j, W_j in clusters b, for the Cauchy sums
    S(y) = sum_j W_j/(x_j - y) (Greengard-Rokhlin, one level).

    The points are held sorted by cluster (`order` sorts the caller's
    companion arrays alike), with each cluster's CSR offsets, its centre x_b
    (by default the midpoint of its bounding box), its radius
    r_b = max |x_j - x_b| and its moments M_{b,k} = sum_{j in b} W_j (x_j - x_b)^k,
    k <= _MULTIPOLE_P.  A target y is far from a cluster beyond
    |y - x_b| > 3 r_b + pad; there the cluster's share of S(y) is
    -sum_k M_{b,k}/(y - x_b)^{k+1}.  The Laurent sum runs Horner on
    (cluster, target) arrays, so each step is one in-place pass along the
    targets, and copies the terms to (target, cluster) order for the
    per-target sum, so that numpy adds each target's row in its pairwise
    order and the bits do not depend on the layout.
    """

    def __init__(self, points: np.ndarray, weights: np.ndarray, labels: np.ndarray,
                 count: int, centres: np.ndarray | None = None):
        self.order = np.argsort(labels, kind="stable")
        labels = labels[self.order]
        self.points, self.weights = points[self.order], weights[self.order]
        self.offsets = np.searchsorted(labels, np.arange(count + 1))
        if centres is None:
            centres = np.array([0.5 * complex(x.real.min() + x.real.max(),
                                              x.imag.min() + x.imag.max()) if x.size else 0j
                                for x in np.split(self.points, self.offsets[1:-1])])
        self.centres = centres
        d = self.points - centres[labels]
        terms = self.weights[:, None] * np.vander(d, _MULTIPOLE_P + 1, increasing=True)
        spans = list(zip(self.offsets[:-1], self.offsets[1:]))
        self.radii = np.array([np.abs(d[lo:hi]).max(initial=0.0) for lo, hi in spans])
        # each cluster's rows added one after another from 0: a reduction
        # along the outer axis is sequential, not pairwise
        self.moments = np.array([np.add.reduce(terms[lo:hi], axis=0, initial=0)
                                 for lo, hi in spans])

    def far(self, y: np.ndarray, pad: float = 0.0) -> np.ndarray:
        """The (target, cluster) mask |y - x_b| > 3 r_b + pad."""
        return np.abs(y[:, None] - self.centres) > 3.0 * self.radii + pad

    def laurent(self, y: np.ndarray, far: np.ndarray, scale: np.ndarray | None = None):
        """scale(y) S_b(y) summed from the moments over the far clusters b of
        each target.  The scale enters after Horner: for |e| near 1e307,
        e S_E(e) is about M_0 while S_E(e) alone would be subnormal."""
        u = y - self.centres[:, None]
        u[~far.T] = 1.0
        np.divide(1.0, u, out=u)
        acc = np.zeros_like(u)
        for k in range(_MULTIPOLE_P, -1, -1):  # Horner in u from the highest order
            acc *= u
            acc += self.moments[:, k:k + 1]
        if scale is not None:
            u *= scale
        acc *= u
        terms = np.ascontiguousarray(acc.T)
        terms[~far] = 0.0
        return -terms.sum(axis=1)

    def near_pairs(self, far: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(rows, cols): the (target, point) pairs of the clusters that are
        not far from each target, from the CSR offsets."""
        t, b = np.nonzero(~far)
        start, count = self.offsets[b], self.offsets[b + 1] - self.offsets[b]
        rows = np.repeat(t, count)
        cols = np.arange(rows.size) + np.repeat(start - (np.cumsum(count) - count), count)
        return rows, cols


# ---------------------------------------------------------------------------
# the exact kernel


# Taylor coefficients of cot(v) - 1/v in v^11, v^9, ..., v, for np.polyval in
# v^2 (times v); the first omitted term is below 2e-16 on |v| < _SMALL_V.
_COT_TAYLOR = (-1382.0 / 638512875.0, -2.0 / 93555.0, -1.0 / 4725.0,
               -2.0 / 945.0, -1.0 / 45.0, -1.0 / 3.0)
_SMALL_V = 0.2
# Arguments are reduced to |Im v| <= pi alpha/2, so e^{2iv} and its reciprocal
# reach e^{pi alpha}: about 1/30 of the float maximum at alpha = 225.
THETA_ALPHA_MAX = 225.0


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
        if a > THETA_ALPHA_MAX:
            raise NumericalError(
                f"theta kernel needs alpha <= {THETA_ALPHA_MAX}: the reduced exponentials "
                f"e^(pi alpha) overflow from about alpha = 225.9")
        n = np.arange(1, math.ceil(38.0 / (math.pi * a)) + 1)
        with np.errstate(over="ignore"):  # beyond e^709, 1/inf = 0 is the exact limit
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
        x = 2j * v + 2.0 * math.pi * self.alpha * m  # 2iv, reduced
        em1 = np.expm1(x)
        # cot v = i (e^{2iv} + 1)/(e^{2iv} - 1); the series takes e^{2iv} itself,
        # since em1 + 1 loses it (down to 0) where |e^{2iv}| < 1e-16
        return 1j * (em1 + 2.0) / em1 + self._sine_series(np.exp(x)) - 2j * m

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

    def regular_sum(self, nodes: np.ndarray, weights: np.ndarray):
        """The function z -> sum_j W_j regular(xi_j - z) of reduced targets z
        (|Re z| <= 1/2, |Im z| <= alpha/2) away from the nu-class poles, for
        sources xi_j with |Re xi_j| < 1/2 and |Im xi_j| small against alpha.

        With E_j = e^{2 pi i xi_j} and e_z = e^{2 pi i z}, e^{2iv} = E_j/e_z
        at v = pi (xi_j - z), and the sine series of L separates:
        sum_j W_j (P(E_j/e_z) - P(e_z/E_j))/(2i) = sum_n c_n (A_n e_z^-n - B_n e_z^n)/(2i)
        with the moments A_n = sum_j W_j E_j^n, B_n = sum_j W_j E_j^-n taken
        here once.  The two cot terms are left, cot v = i + 2i/(e^{2iv} - 1):
        their constants i cancel, and 2i/(E_j/e - 1) = 2i e/(E_j - e), so
        the pair sum is 2 pi i [e_z S_E(e_z) - e_nu S_E(e_nu)] - S_xi(z) with
        the Cauchy sums S_x(y) = sum_j W_j/(x_j - y) over the sources, in
        four clusters: by the sign of Re xi_j, then two equal bins of
        |Re xi_j| per sign (`_Clusters`).  A (target, cluster) pair far in
        both the xi plane at z and the E plane at e_z is summed from the
        Laurent moments; otherwise each of its sources is summed directly,
        cot v - 1/v from its Taylor series where |v| < _SMALL_V.  The e_nu
        term has its own far test.  The nu term takes z + nu reduced per
        target to z' = z + nu - (n + i alpha m), where
        L(pi (xi_j - z - nu)) = L(pi (xi_j - z')) + 2i m."""
        n = np.arange(len(self.coef), 0, -1)  # the order of self.coef
        big_e = np.exp(2j * math.pi * nodes)
        a_n = self.coef * (big_e ** n[:, None] @ weights)
        b_n = self.coef * ((1.0 / big_e) ** n[:, None] @ weights)
        total = weights.sum()
        labels = _sign_halves(nodes)
        xi = _Clusters(nodes, weights, labels, 4)
        e_plane = _Clusters(big_e, weights, labels, 4)

        def series(e_z):
            """sum_j W_j (P(E_j/e_z) - P(e_z/E_j))/(2i), by Horner in 1/e_z and e_z."""
            return (np.polyval(a_n, 1.0 / e_z) / e_z - np.polyval(b_n, e_z) * e_z) / 2j

        def evaluate(z: np.ndarray) -> np.ndarray:
            z_nu = z + self.nu - _nearest_lattice_point(z + self.nu, self.alpha)
            m = np.round((z + self.nu).imag / self.alpha)
            e_z, e_nu = np.exp(2j * math.pi * z), np.exp(2j * math.pi * z_nu)
            far, far_nu = xi.far(z) & e_plane.far(e_z), e_plane.far(e_nu)
            s_xi, s_e = xi.laurent(z, far), e_plane.laurent(e_z, far, e_z)
            s_nu = e_plane.laurent(e_nu, far_nu, e_nu)
            (r, c), (r_nu, c_nu) = xi.near_pairs(far), e_plane.near_pairs(far_nu)
            # the pairs summed directly; each complex product has its temporary
            # operand first: numpy reuses a large temporary in place, which
            # would swap the factors (and the rounding) of a product with it
            # second, so a target's bits would depend on its chunk
            w = xi.points[c] - z[r]
            e = e_plane.points[c] * (1.0 / e_z)[r]
            small = np.abs(w) < _SMALL_V / math.pi
            v = math.pi * w[small]
            w[small], e[small] = 1.0, 0.0  # replaced below
            pair = 2j * math.pi / (e - 1.0) - 1.0 / w
            pair[small] = math.pi * (np.polyval(_COT_TAYLOR, v * v) * v - 1j)
            pair_nu = 2j * math.pi / (e_plane.points[c_nu] * (1.0 / e_nu)[r_nu] - 1.0)
            direct = _sum_rows(np.concatenate([r, r_nu]),
                               np.concatenate([xi.weights[c] * pair,
                                               -e_plane.weights[c_nu] * pair_nu]), z.size)
            return (2j * math.pi * (s_e - s_nu) - s_xi + direct
                    + math.pi * (series(e_z) - series(e_nu))
                    + (2.0 * self.eta1 * self.nu - 2j * math.pi * m) * total)

        return evaluate


# ---------------------------------------------------------------------------
# cutoff


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
    check_positive(delta=delta)
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


# ---------------------------------------------------------------------------
# quadrature over Q_eps


@dataclass
class QuadratureData:
    centers: np.ndarray    # complex cell centers with phi != 0 (each of area hx hy)
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
    return QuadratureData(centers[keep], phi[keep], hx, hy, centers)


def rect_cauchy_integral(x0, x1, y0, y1, w):
    """Exact integral over the rectangle of dm(zeta)/(zeta - w), by the
    Stokes identity with the bounded primitive (conj(zeta) - conj(w))/(zeta - w),
    elementwise; a w within 1e-14 of a corner is moved by 1e-12 (1 + i)."""
    corners = [x0 + 1j * y0, x1 + 1j * y0, x1 + 1j * y1, x0 + 1j * y1]
    on_corner = np.any([np.abs(c - w) < 1e-14 for c in corners], axis=0)
    w = np.where(on_corner, w + (1e-12 + 1e-12j), w)
    total = 0.0
    for a, b in zip(corners, corners[1:] + corners[:1]):
        aa = a - w
        d = b - a
        total += np.log((aa + d) / aa) * (np.conj(aa) - aa * np.conj(d) / d)
    return total / 2j


# ---------------------------------------------------------------------------
# the dbar solution

# Chebyshev nodes per phi support box in each direction: 100 proxy sources a box.
_PROXY_N = 10
# Targets per chunk of f: bounds the (target, source) temporaries.
_TARGET_CHUNK = 512


def _chebyshev(t: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The nodes x_j = cos(pi (j + 1/2)/n) and their Lagrange basis at t,
    ell_j(t) = (2/n) sum_{k<n} T_k(x_j) T_k(t), k = 0 halved (discrete orthogonality)."""
    x = np.cos(math.pi * (np.arange(n) + 0.5) / n)
    vx = np.polynomial.chebyshev.chebvander(x, n - 1)
    vx[:, 0] = 0.5
    return x, (2.0 / n) * np.polynomial.chebyshev.chebvander(t, n - 1) @ vx.T


class DbarSolution:
    """f(z) = -(1/pi) int_{Q_eps} phi(zeta) wp_nu(zeta - z) dm(zeta).

    wp_nu is doubly periodic, so each target is first reduced modulo the
    lattice; then only the kernel pole at 0 can come near the support.  The
    kernel splits into that Cauchy term and the smooth remainder
    wp_nu(w) - 1/w, analytic over each support box delta/2 <= |Re| <= 3 delta/2,
    |Im| <= sigma/2.

    The Cauchy sum sum_c a_c/(c - z), a_c = phi_c hx hy, runs over a grid of
    sub-boxes b of each support box, about square (`_Clusters`): a sub-box
    with |z - z_b| > 3 r_b + sing_radius is summed from its Laurent moments;
    the cells of nearer sub-boxes are summed directly, with the Cauchy
    factor integrated exactly over cells within `sing_radius` of the
    target.  The smooth remainder is summed over the
    tensor Chebyshev nodes xi_j of each box with weights
    W_j = sum_c phi_c hx hy ell_j(c) (`ThetaKernel.regular_sum`).  Targets
    that bring a pole of the nu class within reach of the support are refused.
    """

    def __init__(self, quad: QuadratureData, params: KernelParams,
                 cfg: DbarConfig):
        self.quad = quad
        self.params = params
        self.cfg = cfg
        self.kernel = ThetaKernel(params)
        # box coordinates (|Re| - delta)/(delta/2), Im/(sigma/2); Re < 0 is the mirror
        d, s, c = cfg.delta, cfg.sigma, quad.centers
        xn, lx = _chebyshev((np.abs(c.real) - d) / (d / 2), _PROXY_N)
        yn, ly = _chebyshev(c.imag / (s / 2), _PROXY_N)
        pa = quad.phi * (quad.hx * quad.hy)
        right = c.real > 0
        weights = [lx[m].T @ (pa[m, None] * ly[m]) for m in (~right, right)]
        box = (d + d / 2 * xn)[:, None] + 1j * s / 2 * yn
        self._proxies = (np.concatenate([-box.conj(), box]).ravel(),
                         np.concatenate(weights).ravel())
        self._smooth = self.kernel.regular_sum(*self._proxies)

        # nx x ny sub-boxes per box, about square, their count balancing the
        # p terms of each far sub-box against the direct pairs of the near ones
        count = math.sqrt(3.0 * c.size / 2 / _MULTIPOLE_P)
        ny = max(1, round(math.sqrt(count * s / d)))
        nx = max(1, round(count / ny))
        kx = np.clip(np.floor((np.abs(c.real) - d / 2) / (d / nx)), 0, nx - 1)
        ky = np.clip(np.floor((c.imag + s / 2) / (s / ny)), 0, ny - 1)
        sub = ((right * nx + kx) * ny + ky).astype(int)
        mid_x = d / 2 + (np.arange(nx) + 0.5) * d / nx
        mid_y = -s / 2 + (np.arange(ny) + 0.5) * s / ny
        self._cells = _Clusters(c, pa, sub, 2 * nx * ny,
                                (np.concatenate([-mid_x, mid_x])[:, None] + 1j * mid_y).ravel())
        self._phi = quad.phi[self._cells.order]

    def _reduce(self, z: np.ndarray) -> np.ndarray:
        """z minus the nearest lattice point."""
        return z - _nearest_lattice_point(z, self.params.alpha)

    def _check_nu_poles(self, zr: np.ndarray) -> None:
        """Refuse reduced targets z for which wp_nu(zeta - z) has a pole of
        the nu class, at zeta = z + nu (mod the lattice), within delta/2 of the
        support's bounding box, where the proxies converge slowly (like
        (1 + 2h/delta)^-10 for a pole at height h above a box)."""
        c, hx, hy = self.quad.centers, self.quad.hx, self.quad.hy
        if c.size == 0:
            return
        lo = complex(c.real.min() - hx / 2, c.imag.min() - hy / 2)
        hi = complex(c.real.max() + hx / 2, c.imag.max() + hy / 2)
        p = self._reduce(zr + self.params.nu_value - 0.5 * (lo + hi))
        half = 0.5 * (hi - lo)
        dist = np.hypot(np.maximum(np.abs(p.real) - half.real, 0.0),
                        np.maximum(np.abs(p.imag) - half.imag, 0.0))
        reach = 0.5 * self.cfg.delta
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
            sample = np.abs(self.kernel.regular(w))
            if not np.isfinite(sample).all():
                raise NumericalError("c2 sample of the theta kernel is not finite")
            bound = max(bound, float(sample.max()))
        return 1.1 * bound

    def _cauchy_sum(self, z: np.ndarray) -> np.ndarray:
        """sum_c a_c/(c - z) at reduced targets z: Laurent moments for the far
        sub-boxes, direct pairs (exact within sing_radius) for the near ones."""
        hx, hy = self.quad.hx, self.quad.hy
        sing_radius = 2.5 * max(hx, hy)
        cells = self._cells
        far = cells.far(z, sing_radius)
        out, (rows, cols) = cells.laurent(z, far), cells.near_pairs(far)
        w0 = cells.points[cols] - z[rows]
        near = np.abs(w0) < sing_radius
        terms = cells.weights[cols] / np.where(near, 1.0, w0)
        cn = cols[near]
        x, y = cells.points.real[cn], cells.points.imag[cn]
        terms[near] = self._phi[cn] * rect_cauchy_integral(
            x - hx / 2, x + hx / 2, y - hy / 2, y + hy / 2, z[rows[near]])
        return out + _sum_rows(rows, terms, z.size)

    def f(self, z) -> np.ndarray | complex:
        zz = np.atleast_1d(np.asarray(z, dtype=complex))
        flat = self._reduce(zz.ravel())
        self._check_nu_poles(flat)
        out = np.empty(flat.shape, dtype=complex)
        for lo in range(0, flat.size, _TARGET_CHUNK):
            zc = flat[lo:lo + _TARGET_CHUNK]
            out[lo:lo + _TARGET_CHUNK] = -(self._cauchy_sum(zc) + self._smooth(zc)) / math.pi
        out = out.reshape(zz.shape)
        return _unbox(out, z)


def solve_dbar(quad: QuadratureData, params: KernelParams,
               cfg: DbarConfig) -> DbarSolution:
    c, d = quad.centers, cfg.delta
    outside = np.maximum(np.abs(np.abs(c.real) - d) - d / 2, np.abs(c.imag) - cfg.sigma / 2)
    if (outside > 1e-12).any():
        raise ValidationError("phi support must lie inside the two blending boxes")
    if quad.hx * quad.hy < sys.float_info.min:
        # every weight phi hx hy, and so f, would be subnormal or 0
        raise ValidationError("quadrature cell area underflows: delta too small for --quad")
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
    """What solve_diagnostics measures of a solution.  periodic_defect, the
    largest jump of f across the torus gluing, cannot fail: f reduces each
    target modulo the lattice first, so it is only the rounding of that
    reduction (1.13e-17 for `fbt dbar solve --eps 0.01`)."""

    sup_f: float
    budget: float
    c1: float
    c2: float
    fd_dbar_residual: float
    off_support_residual: float
    periodic_defect: float


def _stencil(z: np.ndarray, step: float) -> np.ndarray:
    """The nodes z + step, z - step, z + i step, z - i step of the
    central-difference dbar at z, concatenated."""
    return np.concatenate([z + step, z - step, z + 1j * step, z - 1j * step])


def _central_dbar(values: np.ndarray, step: float) -> np.ndarray:
    """The central-difference dbar from a function's values at `_stencil`."""
    xp, xm, yp, ym = np.split(values, 4)
    gx = (xp - xm) / (2 * step)
    gy = (yp - ym) / (2 * step)
    return 0.5 * (gx + 1j * gy)


def _off_support(points: np.ndarray, cfg: DbarConfig) -> tuple[np.ndarray, float]:
    """(nodes, step): the dbar stencil of step sigma/8 at the first 240 of the
    points well outside Q, where the map must be holomorphic."""
    off = points[(np.abs(points.real) > 1.6 * cfg.delta)
                 | (np.abs(points.imag) > 0.6 * cfg.delta)][:240]
    step = cfg.sigma / 8
    return _stencil(off, step), step


def _batched(fn, *sets: np.ndarray) -> list[np.ndarray]:
    """fn at each point set, from one call on their concatenation.  For
    DbarSolution.f this changes no bit: f reduces and chunks its targets so
    that no target's value depends on the others."""
    return np.split(fn(np.concatenate(sets)), np.cumsum([s.size for s in sets[:-1]]))


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
    off, so = _off_support(cross_grid(params, cfg, 120, 3), cfg)
    grid = cross_grid(params, cfg)
    # the torus gluing shifts each lath along its own direction
    in_vert = np.abs(grid.real) <= cfg.sigma / 2
    in_horiz = np.abs(grid.imag) <= cfg.sigma / 2
    vert, horiz = grid[in_vert][::5], grid[in_horiz][::5]
    f_fd, f_off, f_grid, f_horiz_glued, f_vert_glued = _batched(
        sol.f, _stencil(nodes, hy), off, grid, horiz + 1.0, vert + 1j * params.alpha)

    _, phi_true = blend(g(nodes), g_zero, nodes.real, cfg.delta)
    fd_res = float(np.abs(_central_dbar(f_fd, hy) - phi_true).max()) if nodes.size else 0.0
    off_res = float(np.abs(_central_dbar(f_off, so)).max())
    sup_f = float(np.abs(f_grid).max())
    defect = max(float(np.abs(f_horiz_glued - f_grid[in_horiz][::5]).max()),
                 float(np.abs(f_vert_glued - f_grid[in_vert][::5]).max()))

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
    try:
        two_pi_n = 2.0 * math.pi * n
    except OverflowError:  # n beyond the float range
        raise ValidationError("winding too large: g overflows") from None

    def g(z):
        return center + rho * np.exp(two_pi_n * np.asarray(z) / alpha)

    return g


def demo_config(alpha: float, sigma: float, n: int) -> DbarConfig:
    """Blend width tuned so the winding-n growth across the window stays
    bounded: delta = min(1/10, alpha/(10 |n|))."""
    try:
        delta = min(0.1, alpha / (10.0 * abs(n)))
    except OverflowError:  # n beyond the float range
        raise ValidationError("target exponent too large") from None
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
    params = KernelParams(alpha)
    cfg = cfg or demo_config(alpha, sigma, n)
    if abs(cfg.sigma - sigma) > 1e-12:
        raise ValidationError("config sigma does not match the requested sigma")

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

    off, so = _off_support(grid, cfg)
    circle = 1j * np.linspace(0.0, alpha, circle_samples, endpoint=False)
    f_off, f_circle = _batched(sol.f, off, circle)
    h_off = blend(g(off), g_zero, off.real, cfg.delta)[0] - f_off
    residual = float(np.abs(_central_dbar(h_off, so)).max())
    on_circle = g(circle) - f_circle
    samples = np.concatenate([on_circle, on_circle[:1]])

    from .config3 import decode_word, plane_loop

    decoded = decode_word(plane_loop(samples))
    return DemoResult(alpha, sigma, target, decoded, sup_f, clearance,
                      residual, np.concatenate([circle, circle[:1]]), samples)
