import math

import mpmath
import numpy as np
import pytest

from fbt import dbar as D
from fbt.dbar import (
    DbarConfig,
    KernelParams,
    blend_and_phi,
    chi,
    chi0,
    chi0_prime,
    chi_prime,
    demo_construct,
    demo_g,
    sup_f_budget,
    fd_dbar,
    quadrature_phi,
    rect_cauchy_integral,
    solve_dbar,
    solve_diagnostics,
    validate_analytic,
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


def test_pole_proximity_error():
    p = KernelParams(1.0, trunc=30)
    with pytest.raises(ValidationError, match="pole"):
        wp(p, 1.0 + 1e-9j)
    with pytest.raises(ValidationError, match="pole"):
        wp_nu(p, p.nu_value + 1e-8)


def test_kernel_params_validation():
    with pytest.raises(ValidationError):
        KernelParams(0.5)
    with pytest.raises(ValidationError):
        KernelParams(1.0, nu=1.0 + 0j)


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
    xs, ys, vals = _strip_grid(cfg, lambda z: np.full(np.shape(z), 0.7 + 0.2j))
    g1, phi = blend_and_phi(xs, ys, vals, cfg)
    assert np.abs(phi).max() == 0.0
    assert np.abs(g1 - (0.7 + 0.2j)).max() < 1e-12


def test_blend_linear_g_bound_and_support():
    cfg = DbarConfig(eps=0.1)
    xs, ys, vals = _strip_grid(cfg, lambda z: np.asarray(z))
    g1, phi = blend_and_phi(xs, ys, vals, cfg)
    assert np.abs(phi).max() <= 1.5 * 0.2 / cfg.delta + 1e-12
    inner = np.abs(xs) < cfg.delta / 2
    assert np.abs(phi[:, inner]).max() == 0.0


def test_blend_rejects_non_holomorphic():
    cfg = DbarConfig(eps=0.1)
    xs, ys, _ = _strip_grid(cfg, lambda z: np.asarray(z))
    zz = xs[None, :] + 1j * ys[:, None]
    with pytest.raises(ValidationError, match="analyticity"):
        blend_and_phi(xs, ys, np.conj(zz), cfg)


def test_validate_analytic_passes_holomorphic():
    xs = np.linspace(-0.1, 0.1, 81)
    ys = np.linspace(-0.05, 0.05, 41)
    zz = xs[None, :] + 1j * ys[:, None]
    validate_analytic(xs, ys, np.exp(2 * zz) + zz ** 3)


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


def test_remainder_table_pole_guard():
    with pytest.raises((ValidationError, NumericalError)):
        demo_construct(1.0, 0.19, parse_word("a1^6"),
                       cfg=DbarConfig(eps=0.95, delta=0.2, quad_n=128))
