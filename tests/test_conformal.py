import dataclasses
import math
import sys

import pytest

from fbt import conformal as Cf
from fbt.conformal import (
    TorusWithHole,
    annulus_grid,
    cylinder_grid,
    flat_cylinder,
    generator_upper_bounds,
    grid_extremal_length,
    lambda_closed_form,
    prop1a_lambda3_upper,
    rectangle,
    rectangle_grid,
    round_annulus,
)
from fbt.errors import NumericalError, ValidationError


def test_closed_forms():
    assert lambda_closed_form(round_annulus(1.0, math.exp(2 * math.pi))) == \
        pytest.approx(1.0, rel=1e-12)
    assert lambda_closed_form(rectangle(2.0, 1.0)) == 2.0
    assert lambda_closed_form(flat_cylinder(2.0, 0.1)) == pytest.approx(20.0, rel=1e-12)
    assert lambda_closed_form(round_annulus(1.0, 2.0)) == \
        pytest.approx(2 * math.pi / math.log(2), rel=1e-12)


@pytest.mark.parametrize("r,big_r", [(1e-300, 1e300), (1e-320, 1.0), (5e-324, 1.7e308),
                                     (1.0, 2.0), (1e-150, 1e150)])
def test_round_closed_form_matches_mpmath(r, big_r):
    # R/r overflows in the first three: the log is then log R - log r
    import mpmath

    with mpmath.workdps(50):
        want = 2 * mpmath.pi / mpmath.log(mpmath.mpf(big_r) / mpmath.mpf(r))
    assert lambda_closed_form(round_annulus(r, big_r)) == pytest.approx(float(want), rel=1e-15)


def test_round_closed_form_keeps_the_quotient_where_finite():
    for r, big_r in ((1.0, 2.0), (1e-300, 1e8), (0.3, 0.7)):
        assert lambda_closed_form(round_annulus(r, big_r)) == 2.0 * math.pi / math.log(big_r / r)


def test_closed_form_underflow_is_refused():
    for spec in (rectangle(1e-320, 1e300), flat_cylinder(1e-320, 1e300),
                 rectangle(1e-200, 1e200)):
        with pytest.raises(ValidationError, match="underflows"):
            lambda_closed_form(spec)


def test_closed_form_outside_the_normal_range_is_refused():
    # a subnormal quotient has lost bits: 1.2345678901234567e-323 would
    # print as 1e-323
    for spec in (rectangle(1.2345678901234567e-300, 1e23), flat_cylinder(1e-300, 1e10)):
        with pytest.raises(ValidationError, match="underflows the normal float range"):
            lambda_closed_form(spec)
    for spec in (rectangle(1e308, 1e-10), flat_cylinder(1e308, 0.1)):
        with pytest.raises(ValidationError, match="overflows"):
            lambda_closed_form(spec)
    smallest = sys.float_info.min
    assert lambda_closed_form(rectangle(smallest, 1.0)) == smallest
    assert lambda_closed_form(rectangle(sys.float_info.max, 1.0)) == sys.float_info.max
    with pytest.raises(ValidationError, match="overflows"):
        Cf.generator_upper_bounds(Cf.TorusWithHole(1e308, 0.1))
    with pytest.raises(ValidationError, match="lambda_3 upper bound overflows"):
        Cf.prop1a_lambda3_upper(Cf.TorusWithHole(1e307, 0.1))


def test_spec_validation():
    with pytest.raises(ValidationError):
        round_annulus(2.0, 1.0)
    with pytest.raises(ValidationError):
        rectangle(-1.0, 1.0)
    with pytest.raises(ValidationError):
        Cf.AnnulusSpec("weird", (1.0, 2.0))


def test_generator_upper_bounds():
    assert generator_upper_bounds(TorusWithHole(1.0, 0.1)) == \
        {"e": pytest.approx(10.0), "e_prime": pytest.approx(10.0)}
    got = generator_upper_bounds(TorusWithHole(2.0, 0.1))
    assert got["e"] == pytest.approx(20.0)
    assert got["e_prime"] == pytest.approx(10.0)
    small = generator_upper_bounds(TorusWithHole(2.0, 0.3))
    assert small["e"] < got["e"] and small["e_prime"] < got["e_prime"]


def test_prop1a_lambda3_upper():
    assert prop1a_lambda3_upper(TorusWithHole(1.0, 0.1)) == pytest.approx(120.0, rel=1e-12)
    assert prop1a_lambda3_upper(TorusWithHole(2.0, 0.2)) == pytest.approx(100.0, rel=1e-12)
    for alpha in (1.0, 1.5, 3.0):
        for sigma in (0.05, 0.1, 0.5):
            x = TorusWithHole(alpha, sigma)
            bounds = generator_upper_bounds(x)
            assert max(bounds.values()) <= prop1a_lambda3_upper(x)


def test_unit_square_grid():
    rep = grid_extremal_length(rectangle_grid(1.0, 1.0, 1 / 100))
    assert rep.lam == pytest.approx(1.0, rel=1e-2)
    assert rep.residual <= 1e-9


def test_rectangle_grid():
    rep = grid_extremal_length(rectangle_grid(2.0, 1.0, 1 / 100))
    assert rep.lam == pytest.approx(2.0, rel=1e-2)


def test_rectangle_duality():
    r1 = grid_extremal_length(rectangle_grid(1.7, 1.0, 1 / 100, marked="horizontal"))
    r2 = grid_extremal_length(rectangle_grid(1.7, 1.0, 1 / 100, marked="vertical"))
    assert r1.lam * r2.lam == pytest.approx(1.0, rel=2e-2)


def test_annulus_grid_accuracy_and_refinement():
    exact = lambda_closed_form(round_annulus(1.0, 2.0))
    errs = []
    iters = []
    for h in (1 / 50, 1 / 100, 1 / 200):
        rep = grid_extremal_length(annulus_grid(1.0, 2.0, h))
        errs.append(abs(rep.lam - exact) / exact)
        iters.append(rep.iterations)
    assert errs[-1] <= 2e-2
    assert errs[0] > errs[1] > errs[2]
    # a multigrid preconditioner keeps the iteration count nearly flat under
    # refinement; Jacobi-preconditioned CG roughly doubles it per halving of h
    assert iters[-1] <= 1.5 * iters[0]


def test_annulus_domain_monotonicity():
    lam_small = grid_extremal_length(annulus_grid(1.0, 2.0, 1 / 50)).lam
    lam_big = grid_extremal_length(annulus_grid(1.0, 2.5, 1 / 50)).lam
    assert lam_big < lam_small
    assert lambda_closed_form(round_annulus(1.0, 2.5)) < \
        lambda_closed_form(round_annulus(1.0, 2.0))


def test_cylinder_grid_matches_closed_form():
    rep = grid_extremal_length(cylinder_grid(2.0, 0.25, 1 / 40))
    assert rep.lam == pytest.approx(8.0, rel=1e-2)
    rep = grid_extremal_length(cylinder_grid(1.0, 0.1, 1 / 50))
    assert rep.lam == pytest.approx(10.0, rel=1e-2)


@pytest.mark.parametrize("dom,exact", [
    (cylinder_grid(2.0, 0.25, 1 / 40), 8.0),
    (rectangle_grid(1.0, 2.0, 1 / 20), 0.5),
])
def test_strip_grid_unseeded_solve_is_exact(dom, exact):
    # a strip's discrete conductance is rows/columns exactly; without the
    # linear seed the conjugate gradients must find it themselves
    rep = grid_extremal_length(dataclasses.replace(dom, x_guess=None))
    assert rep.iterations > 0
    assert rep.lam == pytest.approx(exact, rel=1e-9)


@pytest.mark.parametrize("family", ["separating", "joining"])
@pytest.mark.parametrize("kind,params,h,marking", [
    ("round", (1.0, 2.0), 1 / 50, {}),
    ("rectangle", (1.7, 1.0), 1 / 20, {"marked": "horizontal"}),
    ("rectangle", (1.7, 1.0), 1 / 20, {"marked": "vertical"}),
    ("flat-cylinder", (2.0, 0.5), 1 / 20, {}),
])
def test_grid_family_matches_closed_form(kind, params, h, marking, family):
    exact = lambda_closed_form(Cf.AnnulusSpec(kind, params))
    if marking.get("marked") == "vertical":  # the sides a and b swap roles
        exact = 1.0 / exact
    want = exact if family == Cf.KINDS[kind].family else 1.0 / exact
    rep = grid_extremal_length(Cf.KINDS[kind].grid(*params, h, family=family, **marking))
    assert rep.lam == pytest.approx(want, rel=2e-2)


def test_solver_report_json():
    rep = grid_extremal_length(rectangle_grid(1.0, 1.0, 1 / 20))
    data = rep.to_json()
    assert set(data) == {"lambda", "h", "iterations", "residual"}
    assert data["h"] == 1 / 20


def test_solver_deterministic():
    a = grid_extremal_length(annulus_grid(1.0, 2.0, 1 / 40))
    b = grid_extremal_length(annulus_grid(1.0, 2.0, 1 / 40))
    assert a.lam == b.lam and a.iterations == b.iterations


def test_coarse_factorization_failure_is_numerical_error(monkeypatch):
    def singular(_):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr("scipy.sparse.linalg.splu", singular)
    with pytest.raises(NumericalError, match="coarse factorization"):
        grid_extremal_length(annulus_grid(1.0, 2.0, 1 / 20))


@pytest.fixture
def multigrids(monkeypatch):
    """The _Multigrid hierarchies that the solves of a test build."""
    built = []

    class Recorded(Cf._Multigrid):
        def __init__(self, *args):
            built.append(self)
            super().__init__(*args)

    monkeypatch.setattr(Cf, "_Multigrid", Recorded)
    return built


def test_multigrid_built_on_first_preconditioner_use(multigrids):
    # seeded with its exact potential: CG stops before it preconditions
    rep = grid_extremal_length(rectangle_grid(1.0, 2.0, 1 / 40))
    assert rep.iterations == 0 and not multigrids
    # the quadrant of annulus(1, 2, 1/80) has 15,086 unknowns, so its
    # hierarchy keeps a V-cycle level above the SuperLU one
    rep = grid_extremal_length(annulus_grid(1.0, 2.0, 1 / 80))
    assert rep.iterations > 0 and len(multigrids) == 1
    assert len(multigrids[0].levels) >= 1


def test_multigrid_levels_on_an_unfolded_domain(multigrids):
    dom = _padded(annulus_grid(1.0, 2.0, 1 / 80), rows=1, cols=1)
    assert _unfolded(dom)
    rep = grid_extremal_length(dom)
    assert rep.iterations > 0 and len(multigrids[0].levels) >= 2
    assert (rep.lam, rep.iterations, rep.residual) == _whole_lattice(dom)


def test_torus_validation():
    with pytest.raises(ValidationError):
        TorusWithHole(0.5, 0.1)
    with pytest.raises(ValidationError):
        TorusWithHole(1.0, 1.1)


def test_grid_domain_validation():
    import numpy as np

    inside = np.zeros((6, 6), dtype=bool)
    inside[1, 1] = True
    inside[4, 4] = True
    marked = np.zeros_like(inside)
    marked_b = np.zeros_like(inside)
    marked[0, 1] = True
    marked_b[5, 4] = True
    with pytest.raises(ValidationError, match="connected"):
        Cf.GridDomain(0.1, 0.0, 0.0, inside, marked, marked_b)
    ok = np.zeros((6, 6), dtype=bool)
    ok[1:3, 1:3] = True
    with pytest.raises(ValidationError, match="disjoint"):
        Cf.GridDomain(0.1, 0.0, 0.0, ok, marked, marked)


def _spec_to_json(spec):
    """The domain file of a spec: the format spec_from_json reads."""
    return {"kind": spec.kind, "params": dict(zip(Cf.KINDS[spec.kind].params, spec.params))}


def test_spec_json_round_trip():
    for spec in (round_annulus(1.0, 2.0), rectangle(2.0, 1.0),
                 flat_cylinder(1.5, 0.2)):
        again = Cf.spec_from_json(_spec_to_json(spec))
        assert again == spec
    with pytest.raises(ValidationError):
        Cf.spec_from_json({"kind": "blob", "params": {}})


# ---------------------------------------------------------------------------
# the domain connectivity check


def test_connected_matches_ndimage_label():
    import numpy as np
    from scipy.ndimage import label  # the oracle only; fbt does not load it

    rng = np.random.default_rng(20261019)
    checked = 0
    while checked < 400:
        ny, nx = rng.integers(1, 25, size=2)
        mask = rng.random((ny, nx)) < rng.uniform(0.2, 1.0)
        if not mask.any():
            continue
        assert Cf._connected(mask) == (label(mask)[1] == 1), mask
        checked += 1


def test_connected_shapes():
    import numpy as np

    ring = np.ones((5, 5), dtype=bool)
    ring[2, 2] = False
    assert Cf._connected(ring)
    diagonal = np.eye(3, dtype=bool)  # corners do not connect
    assert not Cf._connected(diagonal)
    snake = np.zeros((5, 7), dtype=bool)  # a U whose arms meet only at the bottom
    snake[:, 0] = snake[:, 6] = snake[4] = True
    assert Cf._connected(snake)
    snake[4, 3] = False
    assert not Cf._connected(snake)
    assert Cf._connected(np.ones((1, 9), dtype=bool))
    assert not Cf._connected(np.array([[True, False, True]]))


def test_connected_large_random_mask_is_fast():
    import time

    import numpy as np
    from scipy.ndimage import label

    rng = np.random.default_rng(7)
    mask = rng.random((1000, 1000)) < 0.65
    lab, _ = label(mask)
    largest = lab == np.bincount(lab.ravel())[1:].argmax() + 1
    for m, want in ((mask, False), (largest, True)):
        t = time.perf_counter()
        assert Cf._connected(m) == want
        assert time.perf_counter() - t < 0.5


# ---------------------------------------------------------------------------
# the 1/theta boundary edges


def _staircase_assemble(dom):
    """The assembly with a conductance-2 half edge to every marked cell:
    the reference that theta = 1/2 must reproduce bit for bit."""
    import numpy as np
    import scipy.sparse as sp

    inside = dom.inside
    n = int(inside.sum())
    idx = np.full(inside.shape, -1, dtype=np.int32)
    idx[inside] = np.arange(n, dtype=np.int32)
    cols = np.empty((n, 5), dtype=np.int32)
    cols[:, 2] = np.arange(n, dtype=np.int32)
    diag = np.zeros(n)
    rhs = np.zeros(n)
    const = 0.0
    for k, (dy, dx) in zip((0, 1, 3, 4), ((-1, 0), (0, -1), (0, 1), (1, 0))):
        nb = cols[:, k] = Cf._shift(idx, dy, dx, -1)[inside]
        diag += nb >= 0
        for marked, value in ((dom.marked_a, 1.0), (dom.marked_b, 0.0)):
            touch = Cf._shift(marked, dy, dx, False)[inside]
            diag += 2.0 * touch
            rhs += 2.0 * value * touch
            const += 2.0 * value * value * int(touch.sum())
    keep = cols >= 0
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    data = np.full(int(indptr[-1]), -1.0)
    data[indptr[:-1] + keep[:, 0] + keep[:, 1]] = diag
    return sp.csr_matrix((data, cols[keep], indptr), shape=(n, n)), rhs, const


@pytest.mark.parametrize("dom", [
    rectangle_grid(1.7, 1.0, 1 / 20, marked="horizontal"),
    rectangle_grid(1.7, 1.0, 1 / 20, marked="vertical"),
    rectangle_grid(1.37, 1.0, 1 / 100),
    cylinder_grid(2.0, 0.25, 1 / 40),
    cylinder_grid(1.0, 1.0, 1 / 250),
], ids=["rect-h", "rect-v", "rect-100", "cyl-40", "cyl-250"])
def test_strips_assemble_as_the_staircase(dom):
    import numpy as np

    a, rhs, const = Cf._assemble(dom)
    ref, ref_rhs, ref_const = _staircase_assemble(dom)
    for got, want in ((a.data, ref.data), (a.indices, ref.indices),
                      (a.indptr, ref.indptr), (rhs, ref_rhs)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert const == ref_const


def _mp_theta(p, q, rho):
    """The root theta in [0, 1] of |p + theta (q - p)| = rho, in 50 digits."""
    import mpmath

    with mpmath.workdps(50):
        px, py = p
        ex, ey = q[0] - px, q[1] - py
        a = ex * ex + ey * ey
        b = 2 * (px * ex + py * ey)
        c = px * px + py * py - rho * rho
        disc = mpmath.sqrt(b * b - 4 * a * c)
        roots = [(-b - disc) / (2 * a), (-b + disc) / (2 * a)]
        return [t for t in roots if 0 <= t <= 1][0]


@pytest.mark.parametrize("r,big_r,h", [(1.0, 2.0, 1 / 40), (1e200, 2.5e200, 3e198),
                                       (0.37, 1.1, 0.03)])
def test_annulus_theta_matches_mpmath(r, big_r, h):
    import mpmath
    import numpy as np

    dom = annulus_grid(r, big_r, h)
    m = dom.inside.shape[0]
    mh = mpmath.mpf(h)
    # the lattice is centred on the origin: cell (j, i) has its center at
    # ((i + 1/2 - m/2) h, (j + 1/2 - m/2) h)
    assert dom.x0 == dom.y0 == -m / 2 * h

    def center(j, i):
        return ((i + mpmath.mpf(0.5) - mpmath.mpf(m) / 2) * mh,
                (j + mpmath.mpf(0.5) - mpmath.mpf(m) / 2) * mh)

    checked = 0
    for (dy, dx), theta in zip(Cf._DIRECTIONS, dom.theta):
        to_a = Cf._shift(dom.marked_a, dy, dx, False)
        ys, xs = np.nonzero(dom.inside & (to_a | Cf._shift(dom.marked_b, dy, dx, False)))
        assert len(ys) == len(theta)
        assert np.isfinite(theta).all()
        for k in range(0, len(ys), 7):
            j, i = int(ys[k]), int(xs[k])
            rho = mpmath.mpf(r if to_a[j, i] else big_r)
            want = _mp_theta(center(j, i), center(j + dy, i + dx), rho)
            want = min(max(want, mpmath.mpf(Cf._THETA_MIN)), 1)
            assert abs(theta[k] - want) <= 1e-12, (j, i, dy, dx)
            checked += 1
    assert checked > 40


def test_annulus_lattice_has_no_centre_node():
    # an even number of cells a side: a hole narrower than a cell marks no
    # cell and is refused, instead of being solved as a one-node hole
    for h in (0.06, 1 / 40, 0.07):
        assert annulus_grid(1.0, 2.0, h).inside.shape[0] % 2 == 0
    with pytest.raises(ValidationError, match="marked families must be nonempty"):
        annulus_grid(0.001, 2.0, 0.06)


def test_grid_domain_theta_validation():
    import numpy as np

    dom = rectangle_grid(1.0, 1.0, 1 / 10)
    assert [len(t) for t in dom.theta] == [10, 0, 0, 10]
    assert all((t == 0.5).all() for t in dom.theta)
    fields = (dom.h, dom.x0, dom.y0, dom.inside, dom.marked_a, dom.marked_b)
    for bad in ([np.full(10, 0.5), np.empty(0), np.empty(0), np.full(9, 0.5)],
                [np.full(10, 0.5), np.empty(0), np.empty(0), np.full(10, 1.5)],
                [np.full(10, 0.0), np.empty(0), np.empty(0), np.full(10, 0.5)],
                [np.full(10, np.nan), np.empty(0), np.empty(0), np.full(10, 0.5)]):
        with pytest.raises(ValidationError, match="theta"):
            Cf.GridDomain(*fields, theta=tuple(bad))


@pytest.mark.parametrize("big_r", [2.0, 4.0])
def test_annulus_grid_is_second_order(big_r):
    exact = lambda_closed_form(round_annulus(1.0, big_r))
    errs = [abs(grid_extremal_length(annulus_grid(1.0, big_r, h)).lam - exact) / exact
            for h in (1 / 25, 1 / 50, 1 / 100, 1 / 200)]
    assert all(coarse >= 3 * fine for coarse, fine in zip(errs, errs[1:])), errs


def test_annulus_benchmark_rungs():
    # the annulus(1, 2) ladder of the numeric benchmark
    exact = lambda_closed_form(round_annulus(1.0, 2.0))
    errs = []
    for h in (1 / 40, 1 / 80, 1 / 160):
        rep = grid_extremal_length(annulus_grid(1.0, 2.0, h))
        assert rep.iterations <= 9
        errs.append(abs(rep.lam - exact) / exact)
    assert errs[0] <= 5e-5 and errs[-1] <= 5e-6
    assert errs[0] > errs[1] > errs[2]


# ---------------------------------------------------------------------------
# the mirror fold


def _whole_lattice(dom):
    """The solve on the unfolded domain, the fold's reference: lambda,
    iterations and relative residual."""
    a, rhs, const = Cf._assemble(dom)
    x0 = None if dom.x_guess is None else dom.x_guess[dom.inside]
    u, iters, res = Cf._cg(a, rhs, x0, dom.inside)
    energy = float(u @ (a @ u) - 2.0 * (rhs @ u)) + const
    return (energy if dom.family == "separating" else 1.0 / energy), iters, res


def _agrees_with_whole_lattice(dom, copies):
    folded, got_copies = Cf._fold(dom)
    assert got_copies == copies
    rep = grid_extremal_length(dom)
    lam, _, res = _whole_lattice(dom)
    assert abs(rep.lam - lam) <= 1e-9 * lam
    assert rep.residual <= 1e-10 and res <= 1e-10
    return folded


def _unfolded(dom):
    """Whether _fold hands dom back as it is."""
    folded, copies = Cf._fold(dom)
    return folded is dom and copies == 1


def _padded(dom, rows=0, cols=0):
    """dom with empty rows and columns appended above and to the right: the
    same problem, with the theta lists in the same row-major order."""
    import numpy as np

    def pad(m):
        return None if m is None else np.pad(m, ((0, rows), (0, cols)))

    return dataclasses.replace(dom, inside=pad(dom.inside), marked_a=pad(dom.marked_a),
                               marked_b=pad(dom.marked_b), x_guess=pad(dom.x_guess))


def _edge_index(dom, k, y, x):
    """The position of node (y, x) in the theta list of direction k."""
    import numpy as np

    dy, dx = Cf._DIRECTIONS[k]
    ys, xs = np.nonzero(dom.inside & Cf._shift(dom.marked_a | dom.marked_b, dy, dx, False))
    return int(np.flatnonzero((ys == y) & (xs == x))[0])


def _nudged(dom, k, nodes):
    """dom with the theta of direction k at each of nodes moved up by one
    ulp (down where it is 1)."""
    import numpy as np

    theta = [t.copy() for t in dom.theta]
    for y, x in nodes:
        i = _edge_index(dom, k, y, x)
        theta[k][i] = np.nextafter(theta[k][i], 0.0 if theta[k][i] == 1.0 else 2.0)
    return dataclasses.replace(dom, theta=tuple(theta))


@pytest.mark.parametrize("family", ["separating", "joining"])
@pytest.mark.parametrize("r,big_r,h", [(1.0, 2.0, 1 / 40), (1.0, 2.0, 1 / 80),
                                       (1.0, 4.0, 1 / 50), (0.37, 1.1, 0.03),
                                       (0.5, 3.0, 0.07), (1e200, 2.5e200, 3e198)])
def test_fold_annulus_matches_whole_lattice(r, big_r, h, family):
    dom = annulus_grid(r, big_r, h, family=family)
    folded = _agrees_with_whole_lattice(dom, 4)
    assert folded.inside.shape == (dom.inside.shape[0] // 2, dom.inside.shape[1] // 2)


@pytest.mark.parametrize("dom,shape", [
    (rectangle_grid(1.7, 1.0, 1 / 20, marked="horizontal"), (36, 11)),
    (rectangle_grid(1.7, 1.0, 1 / 10, marked="vertical"), (19, 12)),
    (rectangle_grid(1.0, 2.0, 1 / 20), (22, 21)),
    (rectangle_grid(1.8, 1.0, 1 / 100, marked="vertical"), (91, 102)),
    (cylinder_grid(2.0, 0.25, 1 / 40), (41, 12)),
    (cylinder_grid(1.0, 1.0, 1 / 250), (126, 252)),
], ids=["rect-h", "rect-v-odd", "rect-h-2", "rect-v-100", "cyl-40", "cyl-250"])
def test_fold_unseeded_strips_match_whole_lattice(dom, shape):
    # a strip mirrors only along its marked ends (the two ends differ), so
    # it folds once where that extent is even
    dom = dataclasses.replace(dom, x_guess=None)
    copies = 2 if shape != dom.inside.shape else 1
    folded = _agrees_with_whole_lattice(dom, copies)
    assert folded.inside.shape == shape
    if copies == 1:
        assert grid_extremal_length(dom).lam == _whole_lattice(dom)[0]


def _symmetric_domain(rng):
    """A random connected domain on an even lattice with its marked sets and
    theta, all mirror-symmetric about both lattice axes, or None when the
    draw is not usable (disconnected, or a marked set that touches no
    node)."""
    import numpy as np
    from scipy.ndimage import label

    def mirrored(quad):
        return np.block([[quad, quad[:, ::-1]], [quad[::-1], quad[::-1, ::-1]]])

    qy, qx = (int(v) for v in rng.integers(1, 10, size=2))
    inside = np.pad(mirrored(rng.random((qy, qx)) < rng.uniform(0.4, 0.9)), 1)
    labels, count = label(inside)
    if count == 0:
        return None
    inside = labels == np.bincount(labels.ravel())[1:].argmax() + 1
    if not (np.array_equal(inside, inside[::-1]) and np.array_equal(inside, inside[:, ::-1])):
        return None  # the largest component is one of a mirror pair
    field = mirrored(rng.integers(0, 3, size=(qy + 1, qx + 1)))
    marked_a, marked_b = ~inside & (field == 1), ~inside & (field == 2)
    ny, nx = inside.shape
    ys, xs = np.mgrid[:ny, :nx]
    # the direction of an edge relative to the nearer lattice sides, which a
    # mirror keeps: theta depends only on that and the distance to the sides
    table = rng.uniform(0.01, 1.0, size=(ny // 2, nx // 2, 3, 3))
    theta = []
    for dy, dx in Cf._DIRECTIONS:
        edge = inside & Cf._shift(marked_a | marked_b, dy, dx, False)
        y, x = ys[edge], xs[edge]
        out_y = np.where(y < ny // 2, -dy, dy)
        out_x = np.where(x < nx // 2, -dx, dx)
        theta.append(table[np.minimum(y, ny - 1 - y), np.minimum(x, nx - 1 - x),
                           out_y + 1, out_x + 1])
    touches = [any(Cf._shift(m, dy, dx, False)[inside].any() for dy, dx in Cf._DIRECTIONS)
               for m in (marked_a, marked_b)]
    if not all(touches) or inside.sum() < 2:
        return None
    family = ("separating", "joining")[int(rng.integers(2))]
    return Cf.GridDomain(0.1, 0.0, 0.0, inside, marked_a, marked_b, family=family,
                         theta=tuple(theta))


def test_fold_random_symmetric_masks_match_whole_lattice():
    import numpy as np

    checked = 0
    seed = 0
    while checked < 120:
        seed += 1
        dom = _symmetric_domain(np.random.default_rng([20261019, seed]))
        if dom is None:
            continue
        folded, copies = Cf._fold(dom)
        assert copies == 4, seed
        rep = grid_extremal_length(dom)
        lam, _, res = _whole_lattice(dom)
        assert abs(rep.lam - lam) <= 1e-9 * lam, seed
        assert rep.residual <= 1e-10 and res <= 1e-10, seed
        checked += 1


def test_fold_refuses_odd_extents():
    dom = annulus_grid(1.0, 2.0, 1 / 20)
    ny, nx = dom.inside.shape
    # an odd number of rows: only the columns fold
    rows_odd = _padded(dom, rows=1)
    folded = _agrees_with_whole_lattice(rows_odd, 2)
    assert folded.inside.shape == (ny + 1, nx // 2)
    cols_odd = _padded(dom, cols=1)
    folded = _agrees_with_whole_lattice(cols_odd, 2)
    assert folded.inside.shape == (ny // 2, nx + 1)
    both = _padded(dom, rows=1, cols=1)
    assert _unfolded(both)
    rep = grid_extremal_length(both)
    assert (rep.lam, rep.iterations, rep.residual) == _whole_lattice(both)


def test_fold_refuses_an_asymmetric_mask_axis():
    dom = annulus_grid(1.0, 2.0, 1 / 20)
    ny, nx = dom.inside.shape
    # unmark the two bottom corner cells: the columns still mirror, the rows
    # no longer (the corners touch no node, so theta is unchanged)
    marked_b = dom.marked_b.copy()
    marked_b[0, 0] = marked_b[0, -1] = False
    one_axis = dataclasses.replace(dom, marked_b=marked_b)
    folded = _agrees_with_whole_lattice(one_axis, 2)
    assert folded.inside.shape == (ny, nx // 2)
    marked_b[0, -1] = True
    neither = dataclasses.replace(dom, marked_b=marked_b)
    assert _unfolded(neither)
    rep = grid_extremal_length(neither)
    assert (rep.lam, rep.iterations, rep.residual) == _whole_lattice(neither)


def test_fold_refuses_a_theta_one_ulp_off():
    dom = annulus_grid(1.0, 2.0, 1 / 20)
    ny, nx = dom.inside.shape
    k = 0  # below
    y, x = next((y, x) for y in range(ny) for x in range(nx // 2)
                if dom.inside[y, x] and dom.marked_a[y - 1, x])
    # one theta off: neither mirror maps theta onto itself
    one = _nudged(dom, k, [(y, x)])
    assert _unfolded(one)
    rep = grid_extremal_length(one)
    assert (rep.lam, rep.iterations, rep.residual) == _whole_lattice(one)
    # the same nudge at its column mirror too: only the columns fold
    pair = _nudged(dom, k, [(y, x), (y, nx - 1 - x)])
    folded = _agrees_with_whole_lattice(pair, 2)
    assert folded.inside.shape == (ny, nx // 2)
    # a strip folds only top to bottom; one theta off leaves it whole
    strip = rectangle_grid(1.0, 1.0, 1 / 10, marked="vertical")
    assert Cf._fold(strip)[1] == 2
    off = _nudged(strip, 2, [(3, 10)])  # right, into the marked column
    assert _unfolded(off)
    assert grid_extremal_length(off).lam == _whole_lattice(off)[0]


def test_fold_keeps_a_dirichlet_edge_across_the_cut():
    # two cells facing each other across the cut that are nodes and marked
    # too: the cut would drop the Dirichlet edge between them, so the rows
    # do not fold
    dom = rectangle_grid(1.0, 1.0, 1 / 10, marked="vertical")
    ny = dom.inside.shape[0]
    marked_a = dom.marked_a.copy()
    marked_a[ny // 2 - 1:ny // 2 + 1, 5] = True
    odd = dataclasses.replace(dom, marked_a=marked_a, theta=None)
    assert _unfolded(odd)
    assert grid_extremal_length(odd).lam == _whole_lattice(odd)[0]
