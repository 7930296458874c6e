import cmath
import math
import re

import mpmath
import numpy as np
import pytest

from fbt import dbar as D
from fbt.dbar import (
    DbarConfig,
    KernelParams,
    blend,
    chi,
    chi0,
    chi0_prime,
    chi_prime,
    demo_construct,
    demo_g,
    sup_f_budget,
    quadrature_phi,
    rect_cauchy_integral,
    solve_dbar,
    solve_diagnostics,
    wp,
    wp_nu,
    wp_nu_tail_bound,
    wp_tail_bound,
)
from fbt.errors import NumericalError, ValidationError
from fbt.words import format_word, parse_word

TEST_POINTS = np.array([0.2 + 0.31j, -0.13 + 0.4j, 0.41 - 0.22j, 0.05 + 0.11j])


# ---------------------------------------------------------------------------
# kernels


def test_wp_even():
    for alpha in (1.0, 2.0):
        p = KernelParams(alpha, trunc=60)
        assert np.abs(wp(p, TEST_POINTS) - wp(p, -TEST_POINTS)).max() < 1e-8


def test_wp_principal_part_bounded():
    p = KernelParams(1.0, trunc=60)
    for r in (1e-3, 1e-4):
        z = r * np.exp(1j * np.array([0.3, 1.1, 2.9]))
        vals = wp(p, z) - 1.0 / z ** 2
        assert np.abs(vals).max() < 10.0


def test_wp_nu_periodicity_within_tail_bound():
    for alpha in (1.0, 2.0):
        for n in (30, 60):
            p = KernelParams(alpha, trunc=n)
            defect = np.abs(wp_nu(p, TEST_POINTS + 1.0) - wp_nu(p, TEST_POINTS)).max()
            assert defect <= 2 * wp_nu_tail_bound(p, 1.5)


def test_truncation_error_decreases_and_within_bound():
    ref = {a: KernelParams(a, trunc=240) for a in (1.0, 2.0)}
    for alpha in (1.0, 2.0):
        errs_nu = []
        errs_wp = []
        for n in (30, 60):
            p = KernelParams(alpha, trunc=n)
            e_nu = np.abs(wp_nu(p, TEST_POINTS) - wp_nu(ref[alpha], TEST_POINTS)).max()
            e_wp = np.abs(wp(p, TEST_POINTS) - wp(ref[alpha], TEST_POINTS)).max()
            assert e_nu <= wp_nu_tail_bound(p, 0.6)
            assert e_wp <= wp_tail_bound(p, 0.6)
            errs_nu.append(e_nu)
            errs_wp.append(e_wp)
        assert errs_nu[1] < errs_nu[0]
        assert errs_wp[1] < errs_wp[0]


def test_tail_bounds_refuse_radii_beyond_the_truncation():
    p = KernelParams(1.0, trunc=10)
    assert wp_tail_bound(p, 0.0) == 0.0 and wp_tail_bound(p, 5.0) > 0.0
    with pytest.raises(ValidationError, match=r"^tail bound needs \|z\| <= N/2$"):
        wp_tail_bound(p, 5.5)
    # |nu| = sqrt(1/2): 2(|z| + |nu|) <= 10 up to |z| = 4.29
    assert wp_nu_tail_bound(p, 4.2) > 0.0
    with pytest.raises(ValidationError, match=r"^tail bound needs 2\(\|z\|\+\|nu\|\) <= N$"):
        wp_nu_tail_bound(p, 4.3)


def _mp_kernel(alpha):
    """mpmath oracle for the exact kernel: L = theta_1'/theta_1,
    eta1 = zeta(1/2) and wp_nu = 2 eta1 nu + pi [L(pi z) - L(pi (z - nu))],
    optionally minus the pole 1/z, at the working precision."""
    q = mpmath.exp(-mpmath.pi * alpha)
    nu = mpmath.mpc(0.5, 0.5 * alpha)

    def L(v):
        return mpmath.jtheta(1, v, q, 1) / mpmath.jtheta(1, v, q)

    eta1 = -mpmath.pi ** 2 * mpmath.jtheta(1, 0, q, 3) / (6 * mpmath.jtheta(1, 0, q, 1))

    def kernel(z, minus_pole=False):
        z = mpmath.mpc(z.real, z.imag)
        if z == 0:  # the limit of wp_nu(z) - 1/z
            return complex(2 * eta1 * nu - mpmath.pi * L(-mpmath.pi * nu))
        val = 2 * eta1 * nu + mpmath.pi * (L(mpmath.pi * z) - L(mpmath.pi * (z - nu)))
        return complex(val - 1 / z if minus_pole else val)

    return L, kernel


def test_exact_kernel_matches_mpmath_theta():
    for alpha in (1.0, 2.0):
        ker = D.ThetaKernel(KernelParams(alpha))
        with mpmath.workdps(40):
            L, kernel = _mp_kernel(alpha)
            for z in TEST_POINTS:
                v = complex(math.pi * z)
                assert abs(ker.dlog_theta1(v) - complex(L(v))) <= 1e-13
                assert abs(ker.wp_nu(z) - kernel(z)) <= 1e-13
                # the pole-free remainder on both sides of its small-|w| branch
                for w in (z, 0.05 * z, 1e-9 * z, 0j):
                    want = kernel(w, minus_pole=True)
                    assert abs(ker.regular(w) - want) <= 1e-13


def test_truncated_wp_nu_converges_to_exact_kernel():
    for alpha in (1.0, 2.0):
        exact = D.ThetaKernel(KernelParams(alpha)).wp_nu(TEST_POINTS)
        sums, errs = {}, []
        for n in (60, 120, 240):
            p = KernelParams(alpha, trunc=n)
            sums[n] = wp_nu(p, TEST_POINTS)
            errs.append(np.abs(sums[n] - exact).max())
            assert errs[-1] <= wp_nu_tail_bound(p, 0.6)
        # the true tail is O(1/N^2): about 4x per doubling
        assert errs[0] >= 3 * errs[1] and errs[1] >= 3 * errs[2]
        richardson = (4 * sums[240] - sums[120]) / 3
        assert np.abs(richardson - exact).max() <= 1e-7


def test_exact_kernel_double_periodicity():
    for alpha in (1.0, 2.0):
        ker = D.ThetaKernel(KernelParams(alpha))
        base = ker.wp_nu(TEST_POINTS)
        for shift in (1.0, 1j * alpha, -1.0 - 1j * alpha, 5 + 7j * alpha):
            assert np.abs(ker.wp_nu(TEST_POINTS + shift) - base).max() <= 1e-12


def test_theta_kernel_large_alpha():
    # up to THETA_ALPHA_MAX the reduced exponentials e^(pi alpha) stay finite,
    # also on the edges |Im v| = pi alpha/2 of the reduction strip (L = -+i there)
    for alpha in (20.0, 120.0, D.THETA_ALPHA_MAX):
        ker = D.ThetaKernel(KernelParams(alpha))
        edge = 1j * math.pi * alpha / 2
        assert np.allclose(ker.dlog_theta1(np.array([edge, -edge, 0.3 + 0.999 * edge])),
                           [-1j, 1j, -1j])
        assert np.isfinite(ker.wp_nu(TEST_POINTS)).all() and math.isfinite(ker.eta1)
    with pytest.raises(NumericalError, match="alpha"):
        D.ThetaKernel(KernelParams(D.THETA_ALPHA_MAX + 0.5))


def test_kernel_c2_refuses_non_finite_samples(acceptance_solution, monkeypatch):
    sol, _ = acceptance_solution
    monkeypatch.setattr(sol.kernel, "regular", lambda w: np.full(w.shape, np.nan))
    with pytest.raises(NumericalError, match="c2"):
        sol.kernel_c2()


def test_pole_proximity_error():
    p = KernelParams(1.0, trunc=30)
    with pytest.raises(ValidationError, match="pole"):
        wp(p, 1.0 + 1e-9j)
    with pytest.raises(ValidationError, match="pole"):
        wp_nu(p, p.nu_value + 1e-8)


def _box_lattice(params):
    """The lattice points n + i alpha m != 0 with |n|, |m| <= N, m outer and
    n inner: the order the truncated sums add their terms in."""
    n = params.trunc
    ns, ms = np.meshgrid(np.arange(-n, n + 1), np.arange(-n, n + 1))
    u = ns.ravel() + 1j * params.alpha * ms.ravel()
    return u[u != 0]


def _all_poles_scan(params, z, with_nu):
    """The nearest box pole of the truncated sum to z and its distance, by
    measuring z against every pole (the former guard, kept as the oracle)."""
    lat = np.concatenate([_box_lattice(params), [0.0]])
    poles = np.concatenate([lat, lat + params.nu_value]) if with_nu else lat
    k = int(np.argmin(np.abs(poles - z)))
    return complex(poles[k]), float(abs(poles[k] - z))


def test_pole_guard_matches_all_poles_scan():
    # points at and around every lattice and nu-class point of the box and
    # of the ring just outside it, on both sides of the 1e-6 threshold
    p = KernelParams(1.3, trunc=6)
    n = p.trunc + 1
    offsets = (0.0, 4e-7 + 3e-7j, -9.99e-7j, 1.0001e-6, -2e-6 + 1e-6j)
    refused = 0
    for with_nu in (False, True):
        for shift in (0.0, p.nu_value) if with_nu else (0.0,):
            for i in range(-n, n + 1):
                for j in range(-n, n + 1):
                    for off in offsets:
                        z = i + 1j * p.alpha * j + shift + off
                        pole, dist = _all_poles_scan(p, z, with_nu)
                        if dist < 1e-6:
                            refused += 1
                            msg = re.escape(f"{z} too close to kernel pole {pole}")
                            with pytest.raises(ValidationError, match=msg):
                                D._check_poles(p, np.array([0.2 + 0.3j, z]), with_nu)
                        else:
                            D._check_poles(p, np.array([0.2 + 0.3j, z]), with_nu)
    assert refused == 3 * (2 * p.trunc + 1) ** 2 * 3
    with pytest.raises(ValidationError, match="finite"):
        D._check_poles(p, np.array([0.2, np.nan]), False)


def _broadcast_wp(params, z):
    """The truncated wp sum broadcast over all points at once (the former
    evaluator, kept as the reference)."""
    zz = np.asarray(z, dtype=complex)
    u = _box_lattice(params)
    w = zz[..., None] - u
    out = 1.0 / zz ** 2 + (1.0 / w ** 2 - 1.0 / u ** 2).sum(axis=-1)
    return out if out.shape else complex(out)


def _broadcast_wp_nu(params, z):
    """The truncated wp_nu sum broadcast over all points at once (the
    former evaluator, kept as the reference)."""
    zz = np.asarray(z, dtype=complex)
    u = _box_lattice(params)
    nu = params.nu_value
    w = zz[..., None]
    out = (1.0 / (w - u) - 1.0 / (w - u - nu) + nu / u ** 2).sum(axis=-1)
    out = out + 1.0 / zz - 1.0 / (zz - nu)
    return out if out.shape else complex(out)


# rows of 25 points, summed one point at a time against one broadcast
# over all of them; reference temporaries of at most about 23 MB at large N
@pytest.mark.parametrize("trunc, rows", [(2, 40), (7, 40), (50, 4), (120, 1)])
def test_blocked_sums_match_broadcast_reference(trunc, rows):
    rng = np.random.default_rng(trunc)
    for alpha in (1.0, 1.7, 3.0):
        p = KernelParams(alpha, trunc=trunc)
        for shape in ((), (1,), (3 * rows,), (rows, 25)):
            z = (rng.uniform(-0.45, 0.45, shape) + 0.02
                 + 1j * alpha * rng.uniform(-0.45, 0.45, shape))
            for fn, ref in ((wp, _broadcast_wp), (wp_nu, _broadcast_wp_nu)):
                got, want = fn(p, z), ref(p, z)
                assert type(got) is type(want)
                assert np.array_equal(got, want), (fn.__name__, alpha, shape)


@pytest.mark.parametrize("shape", [(0,), (0, 3), (2, 0)])
def test_truncated_sums_of_no_points(shape):
    p = KernelParams(1.7, trunc=7)
    for fn in (wp, wp_nu):
        out = fn(p, np.zeros(shape))
        assert out.shape == shape and out.dtype == complex


def test_truncated_sum_memory_does_not_grow_with_points():
    import tracemalloc

    p = KernelParams(1.7, trunc=50)
    z = np.linspace(0.1, 0.4, 1000) + 0.3j
    tracemalloc.start()
    try:
        wp_nu(p, z)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6


@pytest.mark.parametrize("alpha", [1e300, 1e308])  # 1e308: the lattice itself overflows
def test_truncated_sum_overflow_is_numerical_error_without_warnings(alpha):
    import warnings

    p = KernelParams(alpha, trunc=10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn in (wp, wp_nu):
            with pytest.raises(NumericalError, match="not representable"):
                fn(p, np.array([[0.2 + 0.3j, -0.1 + 0.25j], [0.3 + 0.1j, 0.15j + 0.1]]))


def test_kernel_params_validation():
    with pytest.raises(ValidationError):
        KernelParams(0.5)


# ---------------------------------------------------------------------------
# cutoff


def test_chi_values():
    d = 0.1
    assert chi(d, 0.0) == 1.0
    assert abs(chi(d, 1.5 * d)) < 1e-12
    assert abs(chi(d, -1.5 * d)) < 1e-12
    assert chi(d, -d) == chi0(0.5)
    assert chi(d, 0.3 * d) == 1.0
    with pytest.raises(ValidationError):
        chi(d, 0.2)


def test_chi0_profile():
    assert chi0(0.0) == 0.0
    assert chi0(1.0) == 1.0
    assert chi0_prime(0.0) == 0.0
    assert chi0_prime(1.0) == 0.0
    ts = np.linspace(0, 1, 4001)
    slopes = [abs(chi0_prime(t)) for t in ts]
    assert max(slopes) <= 1.5 + 1e-12
    assert max(slopes) == pytest.approx(1.5)
    # C^2: the derivative of chi0' is continuous across the joints
    for joint in (1 / 3, 1 / 2, 2 / 3):
        h = 1e-6
        left = (chi0_prime(joint) - chi0_prime(joint - h)) / h
        right = (chi0_prime(joint + h) - chi0_prime(joint)) / h
        assert abs(left - right) < 1e-4
    # consistency of the closed forms
    for t in np.linspace(0.001, 0.999, 57):
        h = 1e-7
        fd = (chi0(t + h) - chi0(t - h)) / (2 * h)
        assert fd == pytest.approx(chi0_prime(t), abs=1e-6)
    # whole arrays agree with the scalar calls; one entry off [0,1] refuses all
    for fn in (chi0, chi0_prime):
        vals = fn(ts)
        assert vals.shape == ts.shape
        assert np.array_equal(vals, [fn(float(t)) for t in ts])
        for bad in (-1e-9, 1.0 + 1e-9, np.nan):
            with pytest.raises(ValidationError):
                fn(np.append(ts, bad))


def test_chi_prime_support():
    d = 0.1
    for t in np.linspace(-0.049, 0.049, 11):
        assert chi_prime(d, t) == 0.0
    assert chi_prime(d, 0.08) != 0.0
    assert chi_prime(d, 0.2) == 0.0
    # whole arrays agree with the scalar calls; one entry out of the domain
    # (|t| > 3 delta/2 for chi, NaN for both) refuses all
    ts = np.linspace(-0.2, 0.2, 801)
    inner = ts[np.abs(ts) <= 1.5 * d]
    for fn, xs in ((chi_prime, ts), (chi, inner)):
        vals = fn(d, xs)
        assert vals.shape == xs.shape
        assert np.array_equal(vals, [fn(d, float(t)) for t in xs])
        with pytest.raises(ValidationError):
            fn(d, np.append(xs, np.nan))
    with pytest.raises(ValidationError):
        chi(d, np.append(inner, 0.2))


# ---------------------------------------------------------------------------
# blending


def _strip_grid(cfg, g, nx=121, ny=41):
    xs = np.linspace(-1.49 * cfg.delta, 1.49 * cfg.delta, nx)
    ys = np.linspace(-0.02, 0.02, ny)
    return xs, ys, g(xs[None, :] + 1j * ys[:, None])


def test_blend_constant_g():
    cfg = DbarConfig(eps=0.1)
    xs, _, vals = _strip_grid(cfg, lambda z: np.full(np.shape(z), 0.7 + 0.2j))
    g1, phi = blend(vals, 0.7 + 0.2j, xs, cfg.delta)
    assert np.abs(phi).max() == 0.0
    assert np.abs(g1 - (0.7 + 0.2j)).max() < 1e-12


def test_blend_linear_g_bound_and_support():
    cfg = DbarConfig(eps=0.1)
    xs, _, vals = _strip_grid(cfg, lambda z: np.asarray(z))
    g1, phi = blend(vals, 0j, xs, cfg.delta)
    assert np.abs(phi).max() <= 1.5 * 0.2 / cfg.delta + 1e-12
    inner = np.abs(xs) < cfg.delta / 2
    assert np.abs(phi[:, inner]).max() == 0.0


# ---------------------------------------------------------------------------
# quadrature and the solve


def test_rect_cauchy_integral_against_midpoint():
    for w in (0.3 + 0.2j, 0.5 + 0.25j, -0.2 + 0.1j, 1.7 - 0.4j):
        exact = rect_cauchy_integral(0.0, 1.0, 0.0, 0.5, w)
        n = 600
        xs = (np.arange(n) + 0.5) / n
        ys = 0.5 * (np.arange(n // 2) + 0.5) / (n // 2)
        zz = xs[None, :] + 1j * ys[:, None]
        brute = (1.0 / (zz - w)).sum() * (1.0 / n) * (0.5 / (n // 2))
        assert abs(exact - brute) < 5e-3 * max(1.0, abs(brute))


def _rect_cauchy_scalar(x0, x1, y0, y1, w):
    """The former scalar rect_cauchy_integral (cmath, recursive retry off a
    corner), kept as the oracle for the elementwise one."""
    corners = [complex(x0, y0), complex(x1, y0), complex(x1, y1), complex(x0, y1)]
    total = 0.0 + 0.0j
    for a, b in zip(corners, corners[1:] + corners[:1]):
        aa = a - w
        d = b - a
        if abs(aa) < 1e-14 or abs(aa + d) < 1e-14:
            return _rect_cauchy_scalar(x0, x1, y0, y1, w + (1e-12 + 1e-12j))
        total += cmath.log((aa + d) / aa) * (aa.conjugate() - aa * d.conjugate() / d)
    return total / 2j


def test_rect_cauchy_integral_elementwise():
    rng = np.random.default_rng(5)
    x0, y0 = rng.uniform(-1, 1, 40), rng.uniform(-1, 1, 40)
    x1, y1 = x0 + rng.uniform(0.01, 0.5, 40), y0 + rng.uniform(0.01, 0.5, 40)
    w = x0 + rng.uniform(-0.5, 1, 40) + 1j * (y0 + rng.uniform(-0.5, 1, 40))
    w[:4] = [x0[0] + 1j * y0[0], x1[1] + 1j * y1[1],  # on a corner
             0.5 * (x0[2] + x1[2]) + 1j * y0[2], x1[3] + 1j * (0.3 * y0[3] + 0.7 * y1[3])]
    vals = rect_cauchy_integral(x0, x1, y0, y1, w)
    assert vals.shape == w.shape
    for k in range(w.size):
        args = (x0[k], x1[k], y0[k], y1[k], w[k])
        # one dtype rounding apart: numpy's array and scalar loops may differ
        assert abs(vals[k] - rect_cauchy_integral(*args)) <= 1e-15 * max(1.0, abs(vals[k]))
        assert abs(vals[k] - _rect_cauchy_scalar(*args)) <= 1e-13 * max(1.0, abs(vals[k]))


def _per_cell_f(sol, z):
    """f with the exact smooth remainder on every cell and the exact Cauchy
    integral (scalar oracle) on every cell the solver treats as near."""
    q = sol.quad
    hx, hy = q.hx, q.hy
    w0 = q.centers[None, :] - z[:, None]
    near = np.abs(w0) < 2.5 * max(hx, hy)
    terms = q.phi * hx * hy * (sol.kernel.regular(w0) + 1.0 / np.where(near, 1.0, w0))
    for r, c in zip(*np.nonzero(near)):
        x, y = q.centers[c].real, q.centers[c].imag
        terms[r, c] = q.phi[c] * (hx * hy * sol.kernel.regular(w0[r, c]) + _rect_cauchy_scalar(
            x - hx / 2, x + hx / 2, y - hy / 2, y + hy / 2, z[r]))
    return -terms.sum(axis=1) / math.pi


def test_f_matches_per_cell_reference():
    cfg = DbarConfig(eps=0.05, delta=0.1, quad_n=120)
    params = KernelParams(1.0)
    sol = solve_dbar(quadrature_phi(demo_g(1.0, 1, 1, 0.2), cfg), params, cfg)
    z = D.cross_grid(params, cfg, along=41, across=5)
    assert sol.quad.centers.size == 480 and z.size == 410
    f = sol.f(z)
    assert np.abs(f - _per_cell_f(sol, z)).max() <= 1e-12 * np.abs(f).max()


def test_f_near_nu_pole_accurate_or_refused():
    # targets whose nu-class pole lies at height h above the middle of the
    # support: refused below delta/2, where the proxy sums converge slowly,
    # and close to the per-cell sum just beyond it
    cfg = DbarConfig(eps=0.05, delta=0.1, quad_n=120)
    params = KernelParams(1.0)
    sol = solve_dbar(quadrature_phi(demo_g(1.0, 1, 1, 0.2), cfg), params, cfg)
    top = sol.quad.centers.imag.max() + sol.quad.hy / 2
    for h in (0.45, 0.55, 0.8):
        z = np.array([0.1 + 1j * (top + h * cfg.delta)]) - params.nu_value
        if h < 0.5:
            with pytest.raises(ValidationError, match="too close to kernel pole"):
                sol.f(z)
            continue
        f = sol.f(z)
        assert np.abs(f - _per_cell_f(sol, z)).max() <= 1e-5 * np.abs(f).max()


def _dense_f(sol, z):
    """The former DbarSolution.f, kept as the reference: every target
    against every cell in chunks of 4e6 pairs (exact Cauchy integral within
    sing_radius) plus the theta kernel on every (target, proxy) pair."""
    flat = sol._reduce(np.asarray(z, dtype=complex).ravel())
    out = np.zeros(flat.shape, dtype=complex)
    centers, phi = sol.quad.centers, sol.quad.phi
    hx, hy = sol.quad.hx, sol.quad.hy
    nodes, weights = sol._proxies
    sing_radius = 2.5 * max(hx, hy)
    chunk = max(1, int(4e6 // max(1, centers.size)))
    for lo in range(0, flat.size, chunk):
        zc = flat[lo:lo + chunk]
        w0 = centers[None, :] - zc[:, None]
        near = np.abs(w0) < sing_radius
        terms = phi * (hx * hy) / np.where(near, 1.0, w0)
        r, c = np.nonzero(near)
        x, y = centers.real[c], centers.imag[c]
        terms[r, c] = phi[c] * rect_cauchy_integral(
            x - hx / 2, x + hx / 2, y - hy / 2, y + hy / 2, zc[r])
        acc = terms.sum(axis=1) + sol.kernel.regular(nodes - zc[:, None]) @ weights
        out[lo:lo + chunk] = -acc / math.pi
    return out


def _geometry(name):
    """(solution, alpha, cfg) for the bench solve, three demo maps and a wide lath."""
    if name == "bench":
        alpha, cfg, g = 1.0, DbarConfig(eps=0.01, delta=0.1, quad_n=300), demo_g(1.0, 1, 1, 0.2)
    elif name == "wide":
        alpha, cfg, g = 1.0, DbarConfig(eps=0.9, delta=0.2, quad_n=120), demo_g(1.0, 1, 1, 0.2)
    else:  # a demo map, as demo_construct builds it
        alpha, sigma, target = {"demo a1^2": (1.0, 0.01, "a1^2"),
                                "demo a2^-2": (1.0, 0.01, "a2^-2"),
                                "demo alpha 2": (2.0, 0.02, "a2^2")}[name]
        gen, n = parse_word(target).terms[0]
        cfg = D.demo_config(alpha, sigma, n)
        rho = 0.5 / math.exp(2.0 * math.pi * abs(n) * 1.5 * cfg.delta / alpha)
        g = demo_g(alpha, gen, n, rho)
    return solve_dbar(quadrature_phi(g, cfg), KernelParams(alpha), cfg), alpha, cfg


def _f_targets(sol, alpha, cfg):
    """The cross and its sigma/8 shifts, the demo circle, the fd nodes,
    lattice shifts, targets whose z + nu reduces with m = 0 and m = 1, and
    targets on the sub-box edges and inside the support; those the nu-pole
    guard refuses are dropped."""
    s, d = cfg.sigma, cfg.delta
    cross = D.cross_grid(sol.params, cfg, along=48, across=3)
    xs = np.linspace(-0.3, 0.3, 13)
    cells = sol._cells
    edges = np.unique(np.concatenate([cells.centres.real + cells.radii,
                                      cells.centres.real - cells.radii]))
    rng = np.random.default_rng(11)
    inside = (rng.choice((-1, 1), 64) * rng.uniform(d / 2, 1.5 * d, 64)
              + 1j * rng.uniform(-s / 2, s / 2, 64))
    z = np.concatenate([
        cross, cross + s / 8, cross - s / 8, cross + 1j * s / 8, cross - 1j * s / 8,
        1j * np.linspace(0.0, alpha, 128, endpoint=False),
        D.fd_nodes(sol.quad, cfg)[::4],
        cross[::9] + 1.0 - 2j * alpha, cross[::9] - 3.0 + 1j * alpha,
        xs + 1j * (alpha / 2 - 1e-3), xs - 1j * (alpha / 2 - 1e-3),
        xs + 1j * alpha / 2, xs - 1j * alpha / 2,
        (edges[:, None] + 1j * np.array([-s / 2, 0.0, s / 4, s / 2])).ravel(),
        cells.centres, sol.quad.centers[::37], inside])
    keep = []
    for k, zk in enumerate(z):
        try:
            sol._check_nu_poles(sol._reduce(np.array([zk])))
            keep.append(k)
        except ValidationError:
            pass
    return z[keep]


@pytest.mark.parametrize("name", ["bench", "demo a1^2", "demo a2^-2", "demo alpha 2", "wide"])
def test_f_matches_dense_reference(name):
    sol, alpha, cfg = _geometry(name)
    z = _f_targets(sol, alpha, cfg)
    assert z.size > 1500
    f = sol.f(z)
    ref = _dense_f(sol, z)
    assert np.abs(f - ref).max() <= 1e-12 * np.abs(ref).max()
    # scalars and shaped arrays go through the same chunks
    assert sol.f(complex(z[5])) == pytest.approx(complex(f[5]), abs=1e-15 * np.abs(ref).max())
    assert np.array_equal(sol.f(z[:600].reshape(20, 30)), f[:600].reshape(20, 30))


def test_theta_kernel_regular_sum_matches_regular():
    rng = np.random.default_rng(2)
    for alpha in (1.0, 1.3, 2.0):
        ker = D.ThetaKernel(KernelParams(alpha))
        nodes = (rng.choice((-1, 1), 200) * rng.uniform(0.05, 0.3, 200)
                 + 1j * rng.uniform(-0.1, 0.1, 200))
        weights = rng.normal(size=200) + 1j * rng.normal(size=200)
        z = np.concatenate([
            rng.uniform(-0.5, 0.5, 400) + 1j * alpha * rng.uniform(-0.5, 0.5, 400),
            nodes[:20], nodes[20:40] + 0.06, nodes[40:60] - 0.07j,  # |pi w| < _SMALL_V and not
            np.linspace(-0.5, 0.5, 11) + 0.5j * alpha, np.linspace(-0.5, 0.5, 11) - 0.5j * alpha])
        # targets whose nu-class pole z + nu (mod the lattice) lies near a
        # node are outside the contract: the guard of f keeps them delta/2 away
        z_nu = z + ker.nu - D._nearest_lattice_point(z + ker.nu, alpha)
        z = z[np.abs(z_nu[:, None] - nodes).min(axis=1) > 0.05]
        want = ker.regular(nodes - z[:, None]) @ weights
        got = ker.regular_sum(nodes, weights)(z)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def _ref_regular_sum(ker, nodes, weights, z):
    """The former ThetaKernel.regular_sum evaluation, kept as the reference:
    the (target, source) pair matrix of the two cot terms, cot v - 1/v from
    its Taylor series where |v| < _SMALL_V, times the weights; the q-series
    from the moments of the sources and the constants."""
    n = np.arange(len(ker.coef), 0, -1)
    big_e = np.exp(2j * math.pi * nodes)
    a_n = ker.coef * (big_e ** n[:, None] @ weights)
    b_n = ker.coef * ((1.0 / big_e) ** n[:, None] @ weights)

    def series(e_z):
        return (np.polyval(a_n, 1.0 / e_z) / e_z - np.polyval(b_n, e_z) * e_z) / 2j

    z_nu = z + ker.nu - D._nearest_lattice_point(z + ker.nu, ker.alpha)
    m = np.round((z + ker.nu).imag / ker.alpha)
    e_z, e_nu = np.exp(2j * math.pi * z), np.exp(2j * math.pi * z_nu)
    w = nodes - z[:, None]
    e = big_e * (1.0 / e_z)[:, None]
    r, c = np.nonzero(np.abs(w) < D._SMALL_V / math.pi)
    w[r, c], e[r, c] = 1.0, 0.0
    pair = 2j * math.pi * (1.0 / (e - 1.0)
                           - 1.0 / (big_e * (1.0 / e_nu)[:, None] - 1.0)) - 1.0 / w
    v = math.pi * (nodes[c] - z[r])
    pair[r, c] = (math.pi * (v * np.polyval(D._COT_TAYLOR, v * v) - 1j)
                  - 2j * math.pi / (big_e[c] / e_nu[r] - 1.0))
    return (pair @ weights + math.pi * (series(e_z) - series(e_nu))
            + (2.0 * ker.eta1 * ker.nu - 2j * math.pi * m) * weights.sum())


def _unguarded(sol, z):
    """The reduced targets among z that the nu-pole guard of f accepts."""
    z = sol._reduce(z)
    keep = []
    for k, zk in enumerate(z):
        try:
            sol._check_nu_poles(np.array([zk]))
            keep.append(k)
        except ValidationError:
            pass
    return z[keep]


@pytest.mark.parametrize("name", ["acceptance", "demo a1^2"])
def test_regular_sum_matches_the_pair_matrix(name, acceptance_solution):
    sol = acceptance_solution[0] if name == "acceptance" else _geometry(name)[0]
    cfg = sol.cfg
    nodes, weights = sol._proxies
    hy = sol.quad.hy
    # the four clusters in the xi plane and the E plane, and targets on both
    # sides of their far test |y - x_b| = 3 r_b (the E rim shifted by -nu
    # puts e_nu there); the nu-pole guard drops some of them
    labels = D._sign_halves(nodes)
    rim = np.exp(2j * math.pi * np.arange(16) / 16)
    rims = []
    for plane in (nodes, np.exp(2j * math.pi * nodes)):
        cl = D._Clusters(plane, weights, labels, 4)
        assert cl.offsets.tolist() == [0, 50, 100, 150, 200]
        y = (cl.centres[:, None, None] + 3.0 * cl.radii[:, None, None]
             * np.array([1 - 1e-9, 1 + 1e-9])[:, None] * rim).ravel()
        rims.append(y if plane is nodes else np.log(y) / (2j * math.pi))
    rng = np.random.default_rng(5)
    close = nodes[rng.integers(0, 200, 200)] + (D._SMALL_V / math.pi * rng.uniform(0, 1.2, 200)
                                                 * np.exp(2j * math.pi * rng.random(200)))
    fd = D.fd_nodes(sol.quad, cfg)
    z = _unguarded(sol, np.concatenate([
        D.cross_grid(sol.params, cfg), fd + hy, fd - hy, fd + 1j * hy, fd - 1j * hy,
        close, *rims, rims[1] - sol.params.nu_value]))
    assert z.size > 2000
    got = np.concatenate([sol._smooth(zc) for zc in np.array_split(z, z.size // 500)])
    want = _ref_regular_sum(sol.kernel, nodes, weights, z)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_regular_sum_keeps_its_digits_at_the_largest_alpha():
    # targets up to |Im z| = alpha/2 put e_z near e^(pi alpha), about 1e307
    # at THETA_ALPHA_MAX: e_z S_E(e_z) must not pass through a subnormal
    alpha = D.THETA_ALPHA_MAX
    cfg = DbarConfig(eps=0.01, delta=0.1, quad_n=300)
    sol = solve_dbar(quadrature_phi(demo_g(alpha, 1, 1, 0.2), cfg), KernelParams(alpha), cfg)
    z = _unguarded(sol, np.concatenate([
        D.cross_grid(sol.params, cfg), 0.3 + 1j * np.linspace(-alpha / 2, alpha / 2, 301)]))
    got = np.concatenate([sol._smooth(zc) for zc in np.array_split(z, z.size // 500)])
    want = _ref_regular_sum(sol.kernel, *sol._proxies, z)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def _ref_laurent(cl, y, far, scale=None):
    """The Laurent sum as a target-major Horner with fresh arrays at every
    step computed it, kept as the bit reference of `_Clusters.laurent`."""
    u = 1.0 / np.where(far, y[:, None] - cl.centres, 1.0)
    acc = np.zeros_like(u)
    for m in cl.moments.T[::-1]:
        acc = acc * u + m
    last = u if scale is None else u * scale[:, None]
    return -np.where(far, acc * last, 0.0).sum(axis=1)


@pytest.mark.parametrize("count", [4, 10, 32])
@pytest.mark.parametrize("plane", ["xi", "e"])
def test_cluster_moments_and_laurent_sum_keep_their_bits(plane, count):
    # clusters of 400 points with cluster 1 empty, so that the order of the
    # per-target sum shows even at 4 clusters; in the E plane the targets
    # reach |e| = 1e307 and the sum is scaled by e, as regular_sum scales it
    rng = np.random.default_rng(count)
    centres = rng.uniform(-1, 1, count) + 1j * rng.uniform(-1, 1, count)
    labels = rng.integers(0, count - 1, 400)
    labels[labels >= 1] += 1
    points = centres[labels] + 0.1 * (rng.uniform(-1, 1, 400) + 1j * rng.uniform(-1, 1, 400))
    weights = rng.normal(size=400) + 1j * rng.normal(size=400)
    cl = D._Clusters(points, weights, labels, count)
    assert cl.offsets[1] == cl.offsets[2]
    # the moments and radii, bit for bit, as np.add.at and np.maximum.at take them
    d = cl.points - cl.centres[labels[cl.order]]
    moments = np.zeros((count, D._MULTIPOLE_P + 1), dtype=complex)
    np.add.at(moments, labels[cl.order],
              weights[cl.order, None] * np.vander(d, D._MULTIPOLE_P + 1, increasing=True))
    radii = np.zeros(count)
    np.maximum.at(radii, labels[cl.order], np.abs(d))
    assert cl.moments.tobytes() == moments.tobytes() and cl.radii.tobytes() == radii.tobytes()
    y = 1.5 * (rng.uniform(-1, 1, 600) + 1j * rng.uniform(-1, 1, 600))
    scale = None
    if plane == "e":
        y = np.concatenate([y, 10.0 ** rng.uniform(0, 307, 600) * np.exp(2j * math.pi * rng.random(600))])
        scale = y
    far = cl.far(y)
    assert far.any() and (~far).any()
    assert cl.laurent(y, far, scale).tobytes() == _ref_laurent(cl, y, far, scale).tobytes()


def test_phi_zero_gives_f_zero():
    cfg = DbarConfig(eps=0.1, quad_n=64)
    quad = quadrature_phi(lambda z: np.full(np.shape(z), 0.5 + 0.0j), cfg)
    assert quad.centers.size == 0
    sol = solve_dbar(quad, KernelParams(1.0, trunc=20), cfg)
    z = np.array([0.0 + 0.1j, 0.2 + 0.0j])
    assert np.abs(sol.f(z)).max() == 0.0


def test_solve_resolution_guard():
    cfg = DbarConfig(eps=0.001, delta=0.1, quad_n=16)
    with pytest.raises((NumericalError, ValidationError)):
        g = demo_g(1.0, 1, 1, 0.2)
        solve_dbar(quadrature_phi(g, cfg), KernelParams(1.0, trunc=20), cfg)


def test_f_refuses_nu_pole_target():
    # at z = c - nu the kernel wp_nu(zeta - z) has a pole on the support cell c
    cfg = DbarConfig(eps=0.01, delta=0.1, quad_n=200)
    params = KernelParams(1.0)
    sol = solve_dbar(quadrature_phi(demo_g(1.0, 1, 1, 0.2), cfg), params, cfg)
    c = sol.quad.centers[0]
    for z in (c - params.nu_value, c - params.nu_value + 2.0 - 1j):
        with pytest.raises(ValidationError, match="too close to kernel pole"):
            sol.f(z)


@pytest.fixture(scope="module")
def acceptance_solution():
    cfg = DbarConfig(eps=0.01, delta=0.1, quad_n=400)
    params = KernelParams(1.0, trunc=50)
    g = demo_g(1.0, 1, 1, 0.2)
    quad = quadrature_phi(g, cfg)
    sol = solve_dbar(quad, params, cfg)
    diag = solve_diagnostics(sol, g, complex(g(0j)))
    return sol, diag


def test_fd_dbar_matches_phi(acceptance_solution):
    sol, diag = acceptance_solution
    assert diag.fd_dbar_residual < 1e-3
    # frozen golden constant: residual <= C (h_quad + 1/N) with C = 0.1
    # (observed C is about 0.03 at quad 400^2, N = 50)
    h_quad = max(sol.quad.hx, sol.quad.hy)
    assert diag.fd_dbar_residual <= 0.1 * (h_quad + 1.0 / sol.params.trunc)


def test_off_support_holomorphy(acceptance_solution):
    _, diag = acceptance_solution
    assert diag.off_support_residual < 1e-6


def test_periodicity_defect(acceptance_solution):
    _, diag = acceptance_solution
    assert diag.periodic_defect < 1e-3


@pytest.mark.parametrize("name", ["wp", "wp_nu", "f", "chi0", "chi0_prime", "chi",
                                  "chi_prime"])
def test_point_functions_return_a_number_for_a_scalar_only(acceptance_solution, name):
    sol, _ = acceptance_solution
    fn, x, number = {
        "wp": (lambda z: wp(sol.params, z), 0.2 + 0.3j, complex),
        "wp_nu": (lambda z: wp_nu(sol.params, z), 0.2 + 0.3j, complex),
        "f": (sol.f, 0.1 + 0.01j, complex),
        "chi0": (chi0, 0.3, float),
        "chi0_prime": (chi0_prime, 0.3, float),
        "chi": (lambda t: chi(0.1, t), 0.1, float),
        "chi_prime": (lambda t: chi_prime(0.1, t), 0.1, float),
    }[name]
    value = fn(x)
    assert type(value) is number
    assert type(fn(np.asarray(x))) is number and fn(np.asarray(x)) == value
    for arg, shape in (([x], (1,)), (np.full((2, 3), x), (2, 3))):
        got = fn(arg)
        assert type(got) is np.ndarray and got.shape == shape
        assert got.dtype == np.dtype(number) and (got == value).all()


def test_sup_f_within_budget(acceptance_solution):
    _, diag = acceptance_solution
    assert diag.sup_f < diag.budget
    assert diag.budget == pytest.approx(
        sup_f_budget(diag.c1, diag.c2, 0.01, 0.1), rel=1e-12)


def test_sup_f_scales_linearly_in_eps():
    # the log-log slope of sup|f| against eps tracks the budget formula
    params = KernelParams(1.0, trunc=30)
    eps_list = (0.02, 0.01, 0.005)
    sups = []
    buds = []
    for eps in eps_list:
        cfg = DbarConfig(eps=eps, delta=0.1, quad_n=400, lath_samples=160)
        g = demo_g(1.0, 1, 1, 0.2)
        quad = quadrature_phi(g, cfg)
        sol = solve_dbar(quad, params, cfg)
        grid = D.cross_grid(params, cfg)
        sups.append(float(np.abs(sol.f(grid)).max()))
        buds.append(sup_f_budget(2.0, 8.0, eps, 0.1))
    slope = (math.log(sups[0]) - math.log(sups[-1])) / \
        (math.log(eps_list[0]) - math.log(eps_list[-1]))
    budget_slope = (math.log(buds[0]) - math.log(buds[-1])) / \
        (math.log(eps_list[0]) - math.log(eps_list[-1]))
    assert slope == pytest.approx(budget_slope, rel=0.2)
    assert all(s < b for s, b in zip(sups, buds))


# ---------------------------------------------------------------------------
# demo


def test_demo_targets():
    for target, sigma in (("a1^2", 0.01), ("a1^-1", 0.01), ("a2", 0.02)):
        res = demo_construct(1.0, sigma, parse_word(target))
        assert format_word(res.decoded) == target
        assert res.dbar_residual < 1e-3
        assert res.sup_f < res.clearance


def test_demo_alpha_two():
    res = demo_construct(2.0, 0.02, parse_word("a2^2"))
    assert format_word(res.decoded) == "a2^2"
    assert res.dbar_residual < 1e-3


def test_demo_report_json():
    res = demo_construct(1.0, 0.02, parse_word("a2"))
    data = res.to_json()
    assert set(data) == {"alpha", "sigma", "target", "sup_f", "clearance",
                         "decoded", "dbar_residual"}
    assert data["decoded"] == "a2"


def test_demo_rejects_bad_targets():
    with pytest.raises(ValidationError):
        demo_construct(1.0, 0.01, parse_word(""))
    with pytest.raises(ValidationError):
        demo_construct(1.0, 0.01, parse_word("a1 a2"))


def test_demo_eps_too_large():
    with pytest.raises(ValidationError, match="eps too large"):
        demo_construct(1.0, 0.05, parse_word("a1^6"),
                       cfg=DbarConfig(eps=0.5, delta=0.1, quad_n=200))


def test_demo_sigma_mismatch():
    with pytest.raises(ValidationError, match="sigma"):
        demo_construct(1.0, 0.01, parse_word("a1"),
                       cfg=DbarConfig(eps=0.5, delta=0.1))


def test_demo_refuses_a_wide_lath_at_large_eps():
    with pytest.raises((ValidationError, NumericalError)):
        demo_construct(1.0, 0.19, parse_word("a1^6"),
                       cfg=DbarConfig(eps=0.95, delta=0.2, quad_n=128))


# ---------------------------------------------------------------------------
# batched calls of f


def _ref_fd_dbar(fn, z, step):
    """fd_dbar with one call of fn per shift."""
    gx = (fn(z + step) - fn(z - step)) / (2 * step)
    gy = (fn(z + 1j * step) - fn(z - 1j * step)) / (2 * step)
    return 0.5 * (gx + 1j * gy)


def _ref_off_support_residual(fn, points, cfg):
    off = points[(np.abs(points.real) > 1.6 * cfg.delta)
                 | (np.abs(points.imag) > 0.6 * cfg.delta)][:240]
    return float(np.abs(_ref_fd_dbar(fn, off, cfg.sigma / 8)).max())


def _ref_solve_diagnostics(sol, g, g_zero):
    """solve_diagnostics with one call of f per point set and shift."""
    cfg, params = sol.cfg, sol.params
    c2 = sol.kernel_c2()
    nodes = D.fd_nodes(sol.quad, cfg)
    _, phi_true = blend(g(nodes), g_zero, nodes.real, cfg.delta)
    fd_res = float(np.abs(_ref_fd_dbar(sol.f, nodes, sol.quad.hy) - phi_true).max())
    off_res = _ref_off_support_residual(sol.f, D.cross_grid(params, cfg, 120, 3), cfg)
    grid = D.cross_grid(params, cfg)
    f_grid = sol.f(grid)
    vert = np.abs(grid.real) <= cfg.sigma / 2
    horiz = np.abs(grid.imag) <= cfg.sigma / 2
    defect = max(
        float(np.abs(sol.f(grid[horiz][::5] + 1.0) - f_grid[horiz][::5]).max()),
        float(np.abs(sol.f(grid[vert][::5] + 1j * params.alpha) - f_grid[vert][::5]).max()))
    c1 = D._c1_estimate(g, params, cfg)
    return D.SolveDiagnostics(float(np.abs(f_grid).max()),
                              sup_f_budget(c1, c2, cfg.eps, cfg.delta),
                              c1, c2, fd_res, off_res, defect)


def _ref_demo(alpha, sigma, target):
    """(map_samples, sup_f, clearance, dbar_residual) of demo_construct with
    one call of f per point set and shift."""
    gen, n = parse_word(target).terms[0]
    cfg = D.demo_config(alpha, sigma, n)
    g = demo_g(alpha, gen, n, 0.5 / math.exp(2.0 * math.pi * abs(n) * (1.5 * cfg.delta) / alpha))
    g_zero = complex(g(0j))
    sol = solve_dbar(quadrature_phi(g, cfg), KernelParams(alpha), cfg)
    grid = D.cross_grid(sol.params, cfg)
    g1, _ = blend(g(grid), g_zero, grid.real, cfg.delta)
    clearance = float(min(np.abs(g1 - 1.0).min(), np.abs(g1 + 1.0).min()))
    sup_f = float(np.abs(sol.f(grid)).max())
    residual = _ref_off_support_residual(
        lambda z: blend(g(z), g_zero, z.real, cfg.delta)[0] - sol.f(z), grid, cfg)
    circle = 1j * np.linspace(0.0, alpha, 1024, endpoint=False)
    on_circle = g(circle) - sol.f(circle)
    return np.concatenate([on_circle, on_circle[:1]]), sup_f, clearance, residual


def test_f_of_a_batch_is_the_batch_of_f(acceptance_solution):
    # 700 + 300 targets: the batch straddles a chunk boundary of f
    sol, _ = acceptance_solution
    z = D.cross_grid(sol.params, sol.cfg)[::5]
    a, b = z[:700], z[700:1000]
    assert D._TARGET_CHUNK < a.size
    assert sol.f(np.concatenate([a, b])).tobytes() == np.concatenate([sol.f(a), sol.f(b)]).tobytes()


def test_batched_diagnostics_match_one_call_per_set(acceptance_solution):
    sol, diag = acceptance_solution
    g = demo_g(1.0, 1, 1, 0.2)
    assert diag == _ref_solve_diagnostics(sol, g, complex(g(0j)))


@pytest.mark.parametrize("alpha,sigma,target", [(1.0, 0.01, "a1^2"), (2.0, 0.02, "a2^-1")])
def test_batched_demo_matches_one_call_per_set(alpha, sigma, target):
    res = demo_construct(alpha, sigma, parse_word(target))
    samples, sup_f, clearance, residual = _ref_demo(alpha, sigma, target)
    assert res.map_samples.tobytes() == samples.tobytes()
    assert (res.sup_f, res.clearance, res.dbar_residual) == (sup_f, clearance, residual)


def test_diagnostics_and_demo_call_f_once_per_stage(acceptance_solution, monkeypatch):
    calls = []
    f = D.DbarSolution.f

    def counted(self, z):
        calls.append(np.size(z))
        return f(self, z)

    monkeypatch.setattr(D.DbarSolution, "f", counted)
    sol, diag = acceptance_solution
    g = demo_g(1.0, 1, 1, 0.2)
    assert solve_diagnostics(sol, g, complex(g(0j))) == diag
    assert len(calls) == 1
    calls.clear()
    demo_construct(1.0, 0.01, parse_word("a1^2"))
    assert len(calls) == 2
    calls.clear()
    # the margin refusal comes between the two calls
    with pytest.raises(ValidationError, match="eps too large"):
        demo_construct(1.0, 0.05, parse_word("a1^6"),
                       cfg=DbarConfig(eps=0.5, delta=0.1, quad_n=200))
    assert len(calls) == 1
