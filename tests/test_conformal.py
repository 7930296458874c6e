import dataclasses
import math
import sys

import pytest
from hypothesis import assume, given, settings, strategies as st

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


@pytest.mark.parametrize("dom,exact", [
    (cylinder_grid(1.0, 1.0, 1 / 250), 1.0),
    (rectangle_grid(1.7, 1.0, 1 / 100, marked="horizontal"), 1.7),
    (rectangle_grid(1.7, 1.0, 1 / 100, marked="vertical"), 1 / 1.7),
], ids=["cylinder-250", "rect-h-100", "rect-v-100"])
def test_benchmark_strips_solve_unseeded(dom, exact):
    # the benchmark's strips start at their exact seeds and take no
    # iteration; from zero the V-cycle must carry them, the largest (31,250
    # unknowns) in at most 15 iterations
    rep = grid_extremal_length(dataclasses.replace(dom, x_guess=None))
    assert rep.lam == pytest.approx(exact, rel=1e-9)
    assert 0 < rep.iterations <= 15
    assert rep.residual <= 1e-10


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
    import numpy as np

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr("numpy.linalg.cholesky", singular)
    with pytest.raises(NumericalError, match="coarse factorization"):
        grid_extremal_length(annulus_grid(1.0, 2.0, 1 / 20))


def test_cg_missing_its_tolerance_is_numerical_error(monkeypatch, capsys):
    # annulus(1, 2, 1/40) takes 7 iterations from its seed
    from fbt.cli import main

    monkeypatch.setattr(Cf, "_MAX_ITER", 2)
    with pytest.raises(NumericalError, match="conjugate gradients failed to converge"):
        grid_extremal_length(annulus_grid(1.0, 2.0, 1 / 40))
    code = main(["conformal", "grid", "--kind", "round", "--r", "1", "--R", "2",
                 "--h", "0.025"])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err.startswith("error: conjugate gradients failed") and err.count("\n") == 1


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
    # hierarchy keeps a V-cycle level above the dense one
    rep = grid_extremal_length(annulus_grid(1.0, 2.0, 1 / 80))
    assert rep.iterations > 0 and len(multigrids) == 1
    assert len(multigrids[0].levels) >= 1


def test_multigrid_levels_on_an_unfolded_domain(multigrids):
    # a domain built by hand is solved as given, mirror-symmetric or not
    dom = _unfold(annulus_grid(1.0, 2.0, 1 / 80))
    assert dom.mirrored == (False, False)
    rep = grid_extremal_length(dom)
    assert rep.iterations > 0 and len(multigrids[0].levels) >= 2
    assert len(multigrids[0].levels[0][0].diag) == int(dom.inside.sum())
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
        Cf.GridDomain(0.1, inside, marked, marked_b)
    ok = np.zeros((6, 6), dtype=bool)
    ok[1:3, 1:3] = True
    with pytest.raises(ValidationError, match="disjoint"):
        Cf.GridDomain(0.1, ok, marked, marked)
    with pytest.raises(ValidationError, match="^unknown family 'both'$"):
        Cf.GridDomain(0.1, ok, marked, marked_b, family="both")
    with pytest.raises(ValidationError, match="^empty grid domain$"):
        Cf.GridDomain(0.1, np.zeros_like(ok), marked, marked_b)
    with pytest.raises(ValidationError, match="^marked must be horizontal or vertical$"):
        rectangle_grid(1.0, 1.0, 0.1, marked="diagonal")


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


def _ref_csr_assemble(dom):
    """The CSR assembly that the 5-point operator replaced: the reference
    whose matrix-vector product the fine level must reproduce bit for bit."""
    import numpy as np
    import scipy.sparse as sp

    inside = dom.inside
    n = int(inside.sum())
    idx = np.full(inside.shape, -1, dtype=np.int32)
    idx[inside] = np.arange(n, dtype=np.int32)
    # row i of A: neighbours below, left, the node itself, right, above
    cols = np.empty((n, 5), dtype=np.int32)
    cols[:, 2] = np.arange(n, dtype=np.int32)
    diag = np.zeros(n)
    g_a, g_b = np.zeros(n), np.zeros(n)
    for k, (dy, dx), theta in zip((0, 1, 3, 4), Cf._DIRECTIONS, dom.theta):
        nb = cols[:, k] = Cf._shift(idx, dy, dx, -1)[inside]
        diag += nb >= 0
        to_a = Cf._shift(dom.marked_a, dy, dx, False)[inside]
        edge = to_a | Cf._shift(dom.marked_b, dy, dx, False)[inside]
        g = 1.0 / theta
        diag[edge] += g
        g_a[edge] += np.where(to_a[edge], g, 0.0)
        g_b[edge] += np.where(to_a[edge], 0.0, g)
    keep = cols >= 0
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    data = np.full(int(indptr[-1]), -1.0)
    data[indptr[:-1] + keep[:, 0] + keep[:, 1]] = diag
    return sp.csr_matrix((data, cols[keep], indptr), shape=(n, n)), g_a, g_b


def _csr(op):
    """The CSR matrix of a 5-point operator, each row in the order below,
    left, self, right, above, with int32 indices as the assembly had them."""
    import numpy as np
    import scipy.sparse as sp

    n = len(op.diag)
    cols = np.empty((n, 5), dtype=np.int32)
    data = np.empty((n, 5))
    cols[:, 2], data[:, 2] = np.arange(n), op.diag
    for k, nb, w in zip((0, 1, 3, 4), op.nbrs, op.edge_weights()):
        cols[:, k], data[:, k] = np.where(nb < n, nb, -1), w
    keep = cols >= 0
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    return sp.csr_matrix((data[keep], cols[keep], indptr), shape=(n, n))


def _product_domains():
    """The benchmark ladder, the README domain and the strips, then the
    seeded draws of _random_masks."""
    doms = [annulus_grid(1.0, 2.0, h) for h in (1 / 40, 1 / 80, 1 / 160, 0.005)]
    doms += [cylinder_grid(1.0, 1.0, 1 / 250), rectangle_grid(1.7, 1.0, 1 / 100),
             rectangle_grid(1.7, 1.0, 1 / 100, marked="vertical")]
    for seed in range(40):
        masks = _random_masks(8 + seed % 22, 29 - seed % 22, [20261020, seed])
        if masks is not None:
            doms.append(_masked_domain(*masks))
    return doms


def test_fine_product_matches_the_csr_product_bit_for_bit():
    import numpy as np

    for dom in _product_domains():
        a, g_a, g_b = Cf._assemble(dom)
        ref, ref_a, ref_b = _ref_csr_assemble(dom)
        assert g_a.tobytes() == ref_a.tobytes() and g_b.tobytes() == ref_b.tobytes()
        rng = np.random.default_rng(len(g_a))
        for x in (rng.standard_normal(len(g_a)), g_a, np.zeros(len(g_a)), -g_b):
            assert (a @ x).tobytes() == (ref @ x).tobytes()


def test_galerkin_levels_equal_the_triple_product():
    # each level's operator against P^T A P with the level above's CSR
    # matrix: the off-diagonals exactly, the diagonal to 1e-15 relative
    import numpy as np
    import scipy.sparse as sp

    checked = 0
    for dom in _product_domains():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Cf, "_COARSE_NODES", 40)
            a, _, _ = Cf._assemble(dom)
            mg = Cf._Multigrid(a)
        ops = [level[0] for level in mg.levels]
        for (fine, _, agg), coarse in zip(mg.levels, ops[1:] + [None]):
            p = sp.csr_matrix((np.ones(len(agg)), (np.arange(len(agg)), agg)))
            want = (p.T @ _csr(fine) @ p).tocsr()
            if coarse is None:  # the dense level, through its Cholesky inverse
                got = np.linalg.inv(mg.coarse)
                assert len(got) <= 40
                assert np.allclose(got, want.toarray(), rtol=0, atol=1e-12 * abs(want).max())
                continue
            got = _csr(coarse)
            off = (got - want).tolil()
            off.setdiag(0)
            assert off.count_nonzero() == 0
            assert np.allclose(got.diagonal(), want.diagonal(), rtol=1e-15, atol=0)
            checked += 1
    assert checked > 40


def test_coarse_products_match_the_gather_bit_for_bit():
    # each coarse level's product against diag x plus, direction by
    # direction, the neighbours' x gathered through a pad slot 0 times w
    import numpy as np

    checked = 0
    for dom in _product_domains():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Cf, "_COARSE_NODES", 40)
            a, _, _ = Cf._assemble(dom)
            mg = Cf._Multigrid(a)
        for op, _, _ in mg.levels[1:]:
            n = len(op.diag)
            rng = np.random.default_rng(n)
            for x in (rng.standard_normal(n), np.ones(n), np.zeros(n)):
                want = op.diag * x
                for k in range(len(Cf._DIRECTIONS)):
                    want = want + np.append(x, 0.0)[op.nbrs[k]] * op.weights[k]
                assert (op @ x).tobytes() == want.tobytes()
            checked += 1
    assert checked > 40


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
    g_a, g_b = np.zeros(n), np.zeros(n)
    for k, (dy, dx) in zip((0, 1, 3, 4), ((-1, 0), (0, -1), (0, 1), (1, 0))):
        nb = cols[:, k] = Cf._shift(idx, dy, dx, -1)[inside]
        diag += nb >= 0
        for marked, g in ((dom.marked_a, g_a), (dom.marked_b, g_b)):
            touch = Cf._shift(marked, dy, dx, False)[inside]
            diag += 2.0 * touch
            g += 2.0 * touch
    keep = cols >= 0
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    data = np.full(int(indptr[-1]), -1.0)
    data[indptr[:-1] + keep[:, 0] + keep[:, 1]] = diag
    return sp.csr_matrix((data, cols[keep], indptr), shape=(n, n)), g_a, g_b


@pytest.mark.parametrize("dom", [
    rectangle_grid(1.7, 1.0, 1 / 20, marked="horizontal"),
    rectangle_grid(1.7, 1.0, 1 / 20, marked="vertical"),
    rectangle_grid(1.37, 1.0, 1 / 100),
    cylinder_grid(2.0, 0.25, 1 / 40),
    cylinder_grid(1.0, 1.0, 1 / 250),
], ids=["rect-h", "rect-v", "rect-100", "cyl-40", "cyl-250"])
def test_strips_assemble_as_the_staircase(dom):
    import numpy as np

    a, g_a, g_b = Cf._assemble(dom)
    got, ref, ref_a, ref_b = _csr(a), *_staircase_assemble(dom)
    for got, want in ((got.data, ref.data), (got.indices, ref.indices),
                      (got.indptr, ref.indptr), (g_a, ref_a), (g_b, ref_b)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


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
    m = 2 * dom.inside.shape[0]  # the lattice side, twice the quadrant's
    mh = mpmath.mpf(h)
    # the lattice is centred on the origin: cell (j, i) has its center at
    # ((i + 1/2 - m/2) h, (j + 1/2 - m/2) h)

    def center(j, i):
        return ((i + mpmath.mpf(0.5) - mpmath.mpf(m) / 2) * mh,
                (j + mpmath.mpf(0.5) - mpmath.mpf(m) / 2) * mh)

    checked = 0
    for (dy, dx), theta in zip(Cf._DIRECTIONS, dom.theta):
        to_a = Cf._shift(dom.marked_a, dy, dx, False)
        ys, xs = np.nonzero(dom.inside & (to_a | Cf._shift(dom.marked_b, dy, dx, False)))
        assert len(ys) == len(theta)
        assert np.isfinite(theta).all()
        for k in range(0, len(ys), 2):  # a quadrant has a quarter of the edges
            j, i = int(ys[k]), int(xs[k])
            rho = mpmath.mpf(r if to_a[j, i] else big_r)
            want = _mp_theta(center(j, i), center(j + dy, i + dx), rho)
            want = min(max(want, mpmath.mpf(Cf._THETA_MIN)), 1)
            assert abs(theta[k] - want) <= 1e-12, (j, i, dy, dx)
            checked += 1
    assert checked > 40


def test_annulus_lattice_has_no_centre_node():
    # an even number of cells a side, twice the quadrant's: the quadrant
    # ends at the origin, so a hole narrower than a cell marks no cell and
    # is refused, instead of being solved as a one-node hole
    for h in (0.06, 1 / 40, 0.07):
        dom = annulus_grid(1.0, 2.0, h)
        assert dom.mirrored == (True, True)
        assert dom.inside.shape[0] == dom.inside.shape[1]
    with pytest.raises(ValidationError, match="marked families must be nonempty"):
        annulus_grid(0.001, 2.0, 0.06)


def test_grid_domain_theta_validation():
    import numpy as np

    dom = rectangle_grid(1.0, 1.0, 1 / 10)  # the left half of the square
    assert [len(t) for t in dom.theta] == [5, 0, 0, 5]
    assert all((t == 0.5).all() for t in dom.theta)
    fields = (dom.h, dom.inside, dom.marked_a, dom.marked_b)
    for bad in ([np.full(5, 0.5), np.empty(0), np.empty(0), np.full(4, 0.5)],
                [np.full(5, 0.5), np.empty(0), np.empty(0), np.full(5, 1.5)],
                [np.full(5, 0.0), np.empty(0), np.empty(0), np.full(5, 0.5)],
                [np.full(5, np.nan), np.empty(0), np.empty(0), np.full(5, 0.5)]):
        with pytest.raises(ValidationError, match="theta"):
            Cf.GridDomain(*fields, theta=tuple(bad))



def _square(n=90):
    """A square of n x n inside nodes, its left column of outside cells
    marked a; marked_b is left to the caller."""
    import numpy as np

    inside = np.zeros((n + 2, n + 2), dtype=bool)
    inside[1:-1, 1:-1] = True
    marked_a = np.zeros_like(inside)
    marked_a[1:-1, 0] = True
    return 1 / n, inside, marked_a


def test_grid_domain_refuses_marked_cells_inside_its_mask():
    # a 4 x 6 block marked on its two ends; also marking its last inside
    # column solved to lambda = 5.12 instead of 2/3
    import numpy as np

    inside = np.zeros((6, 8), dtype=bool)
    inside[1:5, 1:7] = True
    marked_a, marked_b = np.zeros_like(inside), np.zeros_like(inside)
    marked_a[1:5, 0] = True
    marked_b[1:5, 7] = True
    assert grid_extremal_length(Cf.GridDomain(0.25, inside, marked_a, marked_b)).lam == \
        pytest.approx(2 / 3, rel=1e-12)
    for overlap in (marked_a, marked_b):
        overlap[1:5, 6] = True
        with pytest.raises(ValidationError, match="outside the domain mask"):
            Cf.GridDomain(0.25, inside, marked_a, marked_b)
        overlap[1:5, 6] = False


@pytest.mark.parametrize("corner", [(0, 0), (0, -1), (-1, -1)])
def test_grid_domain_refuses_a_family_that_borders_no_inside_node(corner):
    # a corner cell has no inside neighbour: solved, it gave lambda <= 0
    import numpy as np

    h, inside, marked_a = _square()
    marked_b = np.zeros_like(inside)
    marked_b[corner] = True
    for a, b in ((marked_a, marked_b), (marked_b, marked_a)):
        with pytest.raises(ValidationError, match="each marked family must border"):
            Cf.GridDomain(h, inside, a, b)
    marked_b[1, -1] = True  # one boundary edge is enough
    dom = Cf.GridDomain(h, inside, marked_a, marked_b)
    assert [len(t) for t in dom.theta] == [0, 90, 1, 0]
    assert grid_extremal_length(dom).lam > 0


def test_grid_domain_refuses_a_bad_x_guess():
    import numpy as np

    h, inside, marked_a = _square(20)
    marked_b = marked_a[:, ::-1].copy()
    fields = (h, inside, marked_a, marked_b)
    outside_nan = np.where(inside, 0.5, np.nan)
    rep = grid_extremal_length(Cf.GridDomain(*fields, x_guess=outside_nan))
    assert rep.lam == pytest.approx(1.0, rel=1e-9)
    for bad in (np.zeros((3, 3)), np.zeros((len(inside), 5)),
                np.full(inside.shape, np.inf), np.where(inside, np.nan, 0.5),
                np.where(np.eye(*inside.shape, dtype=bool), -np.inf, 0.5)):
        with pytest.raises(ValidationError, match="x_guess must be finite"):
            Cf.GridDomain(*fields, x_guess=bad)

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
# the mirrored parts


def _whole_lattice(dom):
    """The solve on the whole lattice, the reference of a mirrored part:
    lambda, iterations and relative residual."""
    a, g_a, g_b = Cf._assemble(dom)
    x0 = None if dom.x_guess is None else dom.x_guess[dom.inside]
    u, iters, res = Cf._cg(a, g_a, x0)
    energy = Cf._energy(dom, a, u, g_a, g_b)
    return (energy if dom.family == "separating" else 1.0 / energy), iters, res


def _edges(inside, marked, k):
    """The inside nodes with a marked neighbour in direction k."""
    dy, dx = Cf._DIRECTIONS[k]
    return inside & Cf._shift(marked, dy, dx, False)


def _unfold(part):
    """The whole-lattice domain that a mirrored part stands for: the masks
    and x_guess joined to their mirror images on each mirrored axis, and
    each direction's theta scattered onto the lattice, joined to the
    mirror image of the mirrored direction's, and gathered back in
    row-major order."""
    import numpy as np

    dom = part
    for axis in (0, 1):
        if not dom.mirrored[axis]:
            continue

        def whole(m):
            return None if m is None else np.concatenate([m, np.flip(m, axis)], axis=axis)

        marked = dom.marked_a | dom.marked_b
        lattices = []
        for k, t in enumerate(dom.theta):
            lattice = np.full(dom.inside.shape, np.nan)
            lattice[_edges(dom.inside, marked, k)] = t
            lattices.append(lattice)
        inside, marked = whole(dom.inside), whole(marked)
        theta = []
        for k, (dy, dx) in enumerate(Cf._DIRECTIONS):
            mirror = Cf._DIRECTIONS.index((-dy, dx) if axis == 0 else (dy, -dx))
            lattice = np.concatenate([lattices[k], np.flip(lattices[mirror], axis)], axis=axis)
            theta.append(lattice[_edges(inside, marked, k)])
        mirrored = list(dom.mirrored)
        mirrored[axis] = False
        dom = dataclasses.replace(dom, inside=inside, marked_a=whole(dom.marked_a),
                                  marked_b=whole(dom.marked_b), x_guess=whole(dom.x_guess),
                                  theta=tuple(theta), mirrored=tuple(mirrored))
    return dom


def _whole_annulus(r, big_r, h, family=None):
    """The round annulus on its whole m x m lattice: the reference that the
    unfolded quadrant of annulus_grid must reproduce bit for bit."""
    import numpy as np

    m = 2 * math.ceil((big_r + 2 * h) / h)
    xs = np.arange(m) + 0.5 - m / 2
    s_r, s_big = r / h, big_r / h
    rr = np.hypot(xs[:, None], xs[None, :])
    inside = (rr > s_r) & (rr < s_big)
    marked_a = rr <= s_r
    marked_b = rr >= s_big
    guess = np.clip(np.log(s_big / rr) / math.log(big_r / r), 0.0, 1.0)
    theta = []
    for dy, dx in Cf._DIRECTIONS:
        to_a = Cf._shift(marked_a, dy, dx, False)
        ys, xs_i = np.nonzero(inside & (to_a | Cf._shift(marked_b, dy, dx, False)))
        t = np.abs(xs[xs_i] if dx else xs[ys])
        u = np.abs(xs[ys] if dx else xs[xs_i])
        rho = rr[ys, xs_i]
        s = np.where(to_a[ys, xs_i], s_r, s_big)
        root = np.sqrt(np.maximum((s - u) * (s + u), 0.0))
        theta.append(np.clip(np.abs(rho - s) * (rho + s) / (root + t), Cf._THETA_MIN, 1.0))
    return Cf.GridDomain(h, inside, marked_a, marked_b,
                         family=family or "separating", x_guess=guess, theta=tuple(theta))


def _whole_rectangle(a, b, h, marked="horizontal"):
    """The rectangle on its whole lattice: the reference for the unfolded
    half of rectangle_grid."""
    import numpy as np

    nx, ny = round(b / h), round(a / h)
    if marked == "horizontal":
        nx, ny = ny, nx
    shape = (ny + 2, nx + 2)
    inside, marked_a, marked_b = (np.zeros(shape, dtype=bool) for _ in range(3))
    inside[1:-1, 1:-1] = True
    marked_a[1:-1, -1] = True
    marked_b[1:-1, 0] = True
    guess = np.broadcast_to(np.clip((np.arange(nx + 2) - 0.5) / nx, 0.0, 1.0), shape)
    masks = (inside, marked_a, marked_b, guess)
    if marked == "horizontal":
        masks = tuple(m.T for m in masks)
    return Cf.GridDomain(h, *masks[:3], family="joining", x_guess=masks[3])


def _assert_same_domain(got, want):
    """Equal fields, with the arrays equal in shape, dtype and bits."""
    assert (got.h, got.family, got.mirrored) == (want.h, want.family, want.mirrored)
    for g, w in zip((got.inside, got.marked_a, got.marked_b, got.x_guess, *got.theta),
                    (want.inside, want.marked_a, want.marked_b, want.x_guess, *want.theta)):
        assert (g.shape, g.dtype) == (w.shape, w.dtype)
        assert g.tobytes() == w.tobytes()
    assert len(got.theta) == len(want.theta)


@pytest.mark.parametrize("family", ["separating", "joining"])
@pytest.mark.parametrize("r,big_r,h", [(1.0, 2.0, 1 / 40), (1.0, 2.0, 1 / 80),
                                       (1.0, 4.0, 1 / 50), (0.37, 1.1, 0.03),
                                       (0.5, 3.0, 0.07), (1e200, 2.5e200, 3e198)])
def test_annulus_quadrant_unfolds_to_the_whole_lattice(r, big_r, h, family):
    part = annulus_grid(r, big_r, h, family=family)
    assert part.mirrored == (True, True)
    whole = _whole_annulus(r, big_r, h, family=family)
    assert part.inside.shape == (whole.inside.shape[0] // 2, whole.inside.shape[1] // 2)
    _assert_same_domain(_unfold(part), whole)
    rep = grid_extremal_length(part)
    lam, _, res = _whole_lattice(whole)
    assert abs(rep.lam - lam) <= 1e-9 * lam
    assert rep.residual <= 1e-10 and res <= 1e-10


@pytest.mark.parametrize("args,marked,shape", [
    ((1.7, 1.0, 1 / 20), "horizontal", (36, 11)),
    ((1.7, 1.1, 1 / 10), "horizontal", (19, 13)),
    ((1.7, 1.0, 1 / 10), "vertical", (19, 12)),
    ((1.0, 2.0, 1 / 20), "horizontal", (22, 21)),
    ((1.8, 1.0, 1 / 100), "vertical", (91, 102)),
    ((2.0, 0.25, 1 / 40), "vertical", (41, 12)),  # cylinder_grid(2.0, 0.25, 1/40)
    ((1.0, 1.0, 1 / 250), "vertical", (126, 252)),  # cylinder_grid(1.0, 1.0, 1/250)
], ids=["rect-h", "rect-h-odd", "rect-v-odd", "rect-h-2", "rect-v-100", "cyl-40", "cyl-250"])
def test_strip_half_unfolds_to_the_whole_lattice(args, marked, shape):
    # a strip mirrors only along its marked ends (the two ends differ), so
    # its builder keeps half where that extent is even; an odd extent comes
    # back whole
    part = rectangle_grid(*args, marked=marked)
    whole = _whole_rectangle(*args, marked=marked)
    assert part.inside.shape == shape
    odd = shape == whole.inside.shape
    assert part.mirrored == ((False, False) if odd
                             else (False, True) if marked == "horizontal" else (True, False))
    _assert_same_domain(_unfold(part), whole)
    # unseeded, so that the conjugate gradients work on both
    rep = grid_extremal_length(dataclasses.replace(part, x_guess=None))
    lam, _, res = _whole_lattice(dataclasses.replace(whole, x_guess=None))
    assert abs(rep.lam - lam) <= 1e-9 * lam
    assert rep.residual <= 1e-10 and res <= 1e-10
    if odd:
        assert rep.lam == lam


def _random_part(rng):
    """A random connected part with random marked sets, theta and mirrored
    axes, each mirrored seam holding an inside node, or None when the draw
    is not usable (no node on a mirrored seam, or a marked set that touches
    no node)."""
    import numpy as np
    from scipy.ndimage import label

    mirrored = tuple(bool(v) for v in rng.integers(2, size=2))
    qy, qx = (int(v) for v in rng.integers(1, 10, size=2))
    # an empty frame, except along the seams
    pad = [(1, 0 if m else 1) for m in mirrored]
    inside = np.pad(rng.random((qy, qx)) < rng.uniform(0.4, 0.9), pad)
    labels, count = label(inside)
    if count == 0:
        return None
    inside = labels == np.bincount(labels.ravel())[1:].argmax() + 1
    field = rng.integers(0, 3, size=inside.shape)
    marked_a, marked_b = ~inside & (field == 1), ~inside & (field == 2)
    marked = marked_a | marked_b
    theta = tuple(rng.uniform(0.01, 1.0, size=int(_edges(inside, marked, k).sum()))
                  for k in range(4))
    touches = [any(Cf._shift(m, dy, dx, False)[inside].any() for dy, dx in Cf._DIRECTIONS)
               for m in (marked_a, marked_b)]
    if not all(touches):
        return None
    family = ("separating", "joining")[int(rng.integers(2))]
    try:
        return Cf.GridDomain(0.1, inside, marked_a, marked_b, family=family,
                             theta=theta, mirrored=mirrored)
    except ValidationError as exc:  # the largest component misses a seam
        assert "connected" in str(exc)
        return None


def test_random_parts_match_their_whole_lattice():
    import numpy as np

    checked = 0
    copies = set()
    seed = 0
    while checked < 120:
        seed += 1
        part = _random_part(np.random.default_rng([20261019, seed]))
        if part is None:
            continue
        rep = grid_extremal_length(part)
        lam, _, res = _whole_lattice(_unfold(part))
        assert abs(rep.lam - lam) <= 1e-9 * lam, seed
        assert rep.residual <= 1e-10 and res <= 1e-10, seed
        copies.add(2 ** sum(part.mirrored))
        checked += 1
    assert copies == {1, 2, 4}


def test_mirrored_part_needs_a_node_on_each_seam():
    import numpy as np

    inside = np.zeros((4, 4), dtype=bool)
    inside[1:3, 1:3] = True
    marked_a = np.zeros_like(inside)
    marked_b = np.zeros_like(inside)
    marked_a[1, 0] = True
    marked_b[2, 3] = True
    fields = (0.1, inside, marked_a, marked_b)
    Cf.GridDomain(*fields)
    # the part touches neither its last row nor its last column, so its
    # copies would not touch each other
    for mirrored in ((True, False), (False, True), (True, True)):
        with pytest.raises(ValidationError, match="grid domain must be connected"):
            Cf.GridDomain(*fields, mirrored=mirrored)
    touching = inside.copy()
    touching[3, 1] = True  # a node on the last row
    part = Cf.GridDomain(0.1, touching, marked_a, marked_b, mirrored=(True, False))
    assert Cf._connected(_unfold(part).inside)
    with pytest.raises(ValidationError, match="grid domain must be connected"):
        Cf.GridDomain(0.1, touching, marked_a, marked_b, mirrored=(True, True))


def test_annulus_build_keeps_to_the_quadrant():
    # the quadrant of annulus(1, 4, 1/200) peaks at about 16.6 MiB while it
    # is built, the whole 1604^2 lattice at about 66.3 MiB
    import tracemalloc

    tracemalloc.start()
    try:
        annulus_grid(1.0, 4.0, 1 / 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


# ---------------------------------------------------------------------------
# random masked domains against a dense solve


def _masked_domain(inside, marked_a, marked_b, theta_lattices):
    """The separating-family domain on these masks, each boundary edge in
    direction k taking its theta from the cell of theta_lattices[k] at its
    inside node, so that an edge keeps its theta when the masks change
    elsewhere."""
    marked = marked_a | marked_b
    theta = tuple(t[_edges(inside, marked, k)] for k, t in enumerate(theta_lattices))
    return Cf.GridDomain(0.1, inside, marked_a, marked_b, theta=theta)


def _random_masks(ny, nx, seed):
    """ny x nx masks: each cell inside with probability 0.75 (the largest
    4-connected component kept), column 0 in family a, the last column in
    family b, and a quarter of the other outside cells in family a; and a
    theta lattice in (0, 1] for each direction.  None when the component
    misses the column next to column 0 or the one next to the last."""
    import numpy as np
    from scipy.ndimage import label

    rng = np.random.default_rng(seed)
    inside = rng.random((ny, nx)) < 0.75
    inside[:, [0, -1]] = False
    labels, _ = label(inside)
    inside = labels == np.bincount(labels.ravel())[1:].argmax() + 1
    marked_a = ~inside & (rng.random((ny, nx)) < 0.25)
    marked_a[:, 0], marked_a[:, -1] = True, False
    marked_b = np.zeros_like(inside)
    marked_b[:, -1] = True
    theta_lattices = 1.0 - rng.random((4, ny, nx))  # in (0, 1]
    if not (inside[:, 1].any() and inside[:, -2].any()):
        return None
    return inside, marked_a, marked_b, theta_lattices


def _dense_energy(dom):
    """The minimal energy of dom from a dense solve of its graph Laplacian,
    assembled edge by edge (unit conductance between inside neighbours,
    1/theta from an inside node to a marked neighbour of value 1 in family
    a and 0 in family b, each direction's theta read in row-major order)."""
    import numpy as np

    ny, nx = dom.inside.shape
    nodes = [(y, x) for y in range(ny) for x in range(nx) if dom.inside[y, x]]
    index = {cell: i for i, cell in enumerate(nodes)}
    lap = np.zeros((len(nodes), len(nodes)))
    rhs = np.zeros(len(nodes))
    pairs, ends = [], []  # the inside edges (i, j), the boundary edges (i, g, value)
    used = [0, 0, 0, 0]
    for i, (y, x) in enumerate(nodes):
        for k, (dy, dx) in enumerate(Cf._DIRECTIONS):
            cell = (y + dy, x + dx)
            if not (0 <= cell[0] < ny and 0 <= cell[1] < nx):
                continue
            if dom.inside[cell]:
                j = index[cell]
                lap[i, i] += 1.0
                lap[i, j] -= 1.0
                if i < j:
                    pairs.append((i, j))
            elif dom.marked_a[cell] or dom.marked_b[cell]:
                g = 1.0 / dom.theta[k][used[k]]
                used[k] += 1
                value = 1.0 if dom.marked_a[cell] else 0.0
                lap[i, i] += g
                rhs[i] += g * value
                ends.append((i, g, value))
    assert used == [len(t) for t in dom.theta]
    u = np.linalg.solve(lap, rhs)
    # a sum of squares: the error of u enters only to second order
    energy = (sum((u[i] - u[j]) ** 2 for i, j in pairs)
              + sum(g * (u[i] - value) ** 2 for i, g, value in ends))
    return energy


def _slack(energy):
    """How far a solved energy may stray: 1e-12 of it.  The solver sums the
    energy as squares, so a small theta (a large conductance into family a)
    adds no cancellation; what is left is the error of the CG iterate, at
    most 9.1e-13 over 298 seeded domains of _random_masks."""
    return 1e-12 * energy


def _unmarked_neighbour(inside, marked, rng):
    """A random outside, unmarked cell next to an inside node, or None."""
    import numpy as np

    near = np.zeros_like(inside)
    for dy, dx in Cf._DIRECTIONS:
        near |= Cf._shift(inside, dy, dx, False)
    cells = np.argwhere(near & ~inside & ~marked)
    return None if len(cells) == 0 else tuple(cells[rng.integers(len(cells))])


@settings(derandomize=True, max_examples=40, deadline=None)
@given(ny=st.integers(8, 29), nx=st.integers(8, 29), seed=st.integers(0, 2**32 - 1))
def test_random_domains_match_a_dense_solve(ny, nx, seed):
    # Rayleigh monotonicity: a new inside node or a new marked cell only
    # adds conductance or constraints, so the energy never falls
    import numpy as np

    masks = _random_masks(ny, nx, seed)
    assume(masks is not None)
    inside, marked_a, marked_b, theta_lattices = masks
    rng = np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Cf, "_COARSE_NODES", 40)  # so that the V-cycle runs
        dom = _masked_domain(*masks)
        lam = grid_extremal_length(dom).lam
        energy = _dense_energy(dom)
        assert abs(lam - energy) <= _slack(energy)
        grown = _unmarked_neighbour(inside, marked_a | marked_b, rng)
        if grown is not None:
            more = inside.copy()
            more[grown] = True
            dom = _masked_domain(more, marked_a, marked_b, theta_lattices)
            assert grid_extremal_length(dom).lam >= lam - _slack(lam)
        marked = _unmarked_neighbour(inside, marked_a | marked_b, rng)
        if marked is not None:
            family = [marked_a.copy(), marked_b.copy()]
            family[int(rng.integers(2))][marked] = True
            dom = _masked_domain(inside, *family, theta_lattices)
            assert grid_extremal_length(dom).lam >= lam - _slack(lam)


def test_small_theta_domain_keeps_the_digits_of_its_energy():
    # a draw of _random_masks with theta down to 1.9e-5 (a boundary
    # conductance of 5e4): u.Au - 2 b.u + c cancelled to 3.5e-12 of lambda
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Cf, "_COARSE_NODES", 40)
        dom = _masked_domain(*_random_masks(23, 25, 181))
        lam = grid_extremal_length(dom).lam
    energy = _dense_energy(dom)
    assert abs(lam - energy) <= _slack(energy)


def test_random_symmetric_domain_matches_its_mirrored_part():
    # the part continues past its last row as its mirror image; the domain
    # built whole has both halves
    seed = 0
    while (masks := _random_masks(17, 23, [20261020, seed])) is None or not masks[0][-1].any():
        seed += 1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Cf, "_COARSE_NODES", 40)
        part = dataclasses.replace(_masked_domain(*masks), mirrored=(True, False))
        whole = _unfold(part)
        assert whole.inside.shape == (34, 23)
        lam = grid_extremal_length(whole).lam
        assert abs(grid_extremal_length(part).lam - lam) <= 1e-12 * lam
        energy = _dense_energy(whole)
        assert abs(lam - energy) <= _slack(energy)
