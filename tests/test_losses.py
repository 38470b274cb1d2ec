"""Fenchel-Young, suboptimality, and KKT-residual losses."""

import itertools

import numpy as np
import pytest

from fyinv import (
    Ball,
    Box,
    CostKind,
    CostMap,
    Dataset,
    ExampleSpec,
    FlowPolytope,
    ForwardProblem,
    Noiseless,
    NonNegL1Cap,
    Sense,
    UnsupportedRegionError,
    build_example,
    calibration_check,
    cost,
    decision_error,
    fy_grad,
    fy_loss,
    generate,
    grid_graph,
    kka_fit,
    kka_grad,
    kka_objective,
    parameter_error,
    regret,
    rng_stream,
    solve_exact,
    solve_regularized,
    subopt_loss,
    subopt_subgrad,
)
from fyinv.losses import _fy_batch, _kka_reduced, _subopt_batch
from fyinv.solvers import _linear_argmax_batch, _solve_reg_batch

from oracles import enum_paths, fd_grad, kkt_duals, kkt_residual, sample_region

TIGHT_GAP = 1e-12


def _flow_problem(m: int = 3) -> ForwardProblem:
    g = grid_graph(6, 7)
    return ForwardProblem(CostMap(CostKind.MATRIX_PRODUCT, g.num_edges, m), FlowPolytope(g), Sense.MIN)


def _example_problems():
    return [(k, build_example(ExampleSpec(k, p=6))[0]) for k in "ABCDE"]


# ---------------------------------------------------------------------------
# Fenchel-Young loss


def test_fy_loss_nonnegative_on_feasible_decisions():
    rng = rng_stream(60)
    for kind, fp in _example_problems():
        for _ in range(40):
            theta = rng.standard_normal(fp.cost_map.p)
            u = rng.uniform(-1, 1, fp.cost_map.m)
            y = sample_region(fp.region, fp.cost_map.d, rng)
            lam = float(rng.uniform(0.05, 2.0))
            assert fy_loss(fp, theta, u, y, lam) >= -1e-12, kind


def test_fy_loss_nonnegative_on_flow_mixtures():
    rng = rng_stream(61)
    fp = _flow_problem()
    paths = enum_paths(fp.region.graph)
    for _ in range(40):
        theta = rng.standard_normal(fp.cost_map.p)
        u = rng.uniform(-1, 1, fp.cost_map.m)
        w = rng.dirichlet(np.ones(paths.shape[0]))
        y = paths.T @ w
        assert fy_loss(fp, theta, u, y, 0.5, gap_tol=TIGHT_GAP) >= -1e-9


def test_fy_loss_zero_at_regularized_optimum():
    rng = rng_stream(62)
    for kind, fp in _example_problems():
        for _ in range(20):
            theta = rng.standard_normal(fp.cost_map.p)
            u = rng.uniform(-1, 1, fp.cost_map.m)
            lam = float(rng.uniform(0.1, 1.5))
            y = solve_regularized(fp, theta, u, lam)
            assert abs(fy_loss(fp, theta, u, y, lam)) <= 1e-10, kind
    fp = _flow_problem()
    for _ in range(10):
        theta = rng.standard_normal(fp.cost_map.p)
        u = rng.uniform(-1, 1, fp.cost_map.m)
        y = solve_regularized(fp, theta, u, 0.5, gap_tol=TIGHT_GAP)
        assert abs(fy_loss(fp, theta, u, y, 0.5, gap_tol=TIGHT_GAP)) <= 1e-9


def test_fy_grad_matches_finite_differences():
    rng = rng_stream(63)
    for kind, fp in _example_problems():
        for lam in (0.1, 1.0):
            for _ in range(4):
                theta = rng.standard_normal(fp.cost_map.p)
                u = rng.uniform(-1, 1, fp.cost_map.m)
                y = sample_region(fp.region, fp.cost_map.d, rng)
                got = fy_grad(fp, theta, u, y, lam)
                want = fd_grad(lambda v: fy_loss(fp, v, u, y, lam), theta)
                np.testing.assert_allclose(got, want, atol=1e-6, err_msg=f"{kind} lam={lam}")


def test_fy_grad_matches_finite_differences_on_flow():
    rng = rng_stream(64)
    fp = _flow_problem()
    paths = enum_paths(fp.region.graph)
    for lam in (0.1, 1.0):
        theta = rng.standard_normal(fp.cost_map.p)
        u = rng.uniform(-1, 1, fp.cost_map.m)
        y = paths[int(rng.integers(paths.shape[0]))].astype(float)
        got = fy_grad(fp, theta, u, y, lam, gap_tol=TIGHT_GAP)
        want = fd_grad(lambda v: fy_loss(fp, v, u, y, lam, gap_tol=TIGHT_GAP), theta)
        np.testing.assert_allclose(got, want, atol=1e-5)


def test_fy_loss_midpoint_convexity():
    rng = rng_stream(65)
    for kind, fp in _example_problems():
        for _ in range(15):
            a = rng.standard_normal(fp.cost_map.p)
            b = rng.standard_normal(fp.cost_map.p)
            u = rng.uniform(-1, 1, fp.cost_map.m)
            y = sample_region(fp.region, fp.cost_map.d, rng)
            lam = float(rng.uniform(0.1, 1.0))
            mid = fy_loss(fp, 0.5 * (a + b), u, y, lam)
            avg = 0.5 * (fy_loss(fp, a, u, y, lam) + fy_loss(fp, b, u, y, lam))
            assert mid <= avg + 1e-9, kind


def test_fy_batch_matches_scalar_means():
    rng = rng_stream(66)
    _, fp = _example_problems()[1]
    theta = rng.standard_normal(fp.cost_map.p)
    ctxs = rng.uniform(-1, 1, (20, fp.cost_map.m))
    ys = np.stack([sample_region(fp.region, fp.cost_map.d, rng) for _ in range(20)])
    loss, grad = _fy_batch(fp, theta, ctxs, ys, 0.3)
    xs = _solve_reg_batch(fp, fp._canonical_costs(theta, ctxs), 0.3)
    scal_losses = [fy_loss(fp, theta, ctxs[i], ys[i], 0.3) for i in range(20)]
    scal_grads = [fy_grad(fp, theta, ctxs[i], ys[i], 0.3) for i in range(20)]
    np.testing.assert_allclose(loss, np.mean(scal_losses), rtol=1e-12)
    np.testing.assert_allclose(grad, np.mean(scal_grads, axis=0), atol=1e-12)
    for i in range(20):
        np.testing.assert_allclose(xs[i], solve_regularized(fp, theta, ctxs[i], 0.3), atol=1e-12)


def test_fy_rejects_nonpositive_lam():
    _, fp = _example_problems()[2]
    u = np.zeros(fp.cost_map.m)
    y = np.zeros(fp.cost_map.d)
    theta = np.ones(fp.cost_map.p)
    for bad in (0.0, -0.5, np.inf, np.nan):
        with pytest.raises(ValueError):
            fy_loss(fp, theta, u, y, bad)
        with pytest.raises(ValueError):
            fy_grad(fp, theta, u, y, bad)


def test_tiny_lam_rejects_an_overflowing_target():
    # 0 < 1e-310 < inf passes the lam check, but hc / (base_quad + lam)
    # overflows: NaN on families A and E, an overflow warning on B and C.
    # Family D's base_quad = 2 keeps the target finite.
    for kind in "ABCDE":
        fp, theta, _ = build_example(kind)
        u = rng_stream(24).uniform(0.5, 1.5, fp.cost_map.m)
        y = np.zeros(fp.cost_map.d)
        if fp.base_quad > 0:
            np.testing.assert_array_equal(
                solve_regularized(fp, theta, u, 1e-310), solve_exact(fp, theta, u)
            )
            assert np.isfinite(fy_loss(fp, theta, u, y, 1e-310))
            continue
        for call in (
            lambda: solve_regularized(fp, theta, u, 1e-310),
            lambda: fy_loss(fp, theta, u, y, 1e-310),
            lambda: fy_grad(fp, theta, u, y, 1e-310),
        ):
            with pytest.raises(ValueError, match="overflows"):
                call()


def test_fy_shape_validation():
    _, fp = _example_problems()[0]
    theta = np.ones(fp.cost_map.p)
    with pytest.raises(ValueError):
        fy_loss(fp, theta, np.zeros(fp.cost_map.m + 1), np.zeros(fp.cost_map.d), 0.1)
    with pytest.raises(ValueError):
        fy_loss(fp, theta, np.zeros(fp.cost_map.m), np.zeros(fp.cost_map.d + 2), 0.1)


def test_single_sample_entry_points_reject_non_finite_context():
    fp, theta_star, _ = build_example("C")
    theta = theta_star.values
    u = np.full(fp.cost_map.m, 0.5)
    u[3] = np.nan
    y = solve_exact(fp, theta, np.full(fp.cost_map.m, 0.5))
    calls = [
        lambda: solve_exact(fp, theta, u),
        lambda: solve_regularized(fp, theta, u, 0.5),
        lambda: fy_loss(fp, theta, u, y, 0.5),
        lambda: subopt_loss(fp, theta, u, y),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()
    # a non-finite decision is rejected the same way
    y[0] = np.inf
    with pytest.raises(ValueError):
        subopt_loss(fp, theta, np.full(fp.cost_map.m, 0.5), y)


def _spoiled(theta: np.ndarray, how: str) -> np.ndarray:
    if how == "size":
        return np.zeros(theta.size + 1)
    bad = theta.copy()
    bad[0] = np.nan if how == "nan" else np.inf
    return bad


@pytest.mark.parametrize("how", ["nan", "inf", "size"])
def test_public_entry_points_reject_bad_theta(how):
    # Theta is checked by the public function that receives it and by
    # nothing after it: each call below would go on with NaNs, or fail in
    # numpy, if its own check were gone.
    fp, theta_star, law = build_example("C")
    good = theta_star.values
    ctxs = law.sample(rng_stream(5), 6)
    u = ctxs[0]
    y = solve_exact(fp, good, u)
    ds = Dataset(ctxs, np.stack([solve_exact(fp, good, c) for c in ctxs]))
    calls = {
        "cost": lambda t: cost(fp.cost_map, t, u),
        "canonical_cost": lambda t: fp.canonical_cost(t, u),
        "solve_exact": lambda t: solve_exact(fp, t, u),
        "solve_regularized": lambda t: solve_regularized(fp, t, u, 0.5),
        "fy_loss": lambda t: fy_loss(fp, t, u, y, 0.5),
        "fy_grad": lambda t: fy_grad(fp, t, u, y, 0.5),
        "subopt_loss": lambda t: subopt_loss(fp, t, u, y),
        "subopt_subgrad": lambda t: subopt_subgrad(fp, t, u, y),
        "kka_objective": lambda t: kka_objective(fp, t, ds),
        "kka_grad": lambda t: kka_grad(fp, t, ds),
        "decision_error/hat": lambda t: decision_error(fp, t, good, ctxs),
        "decision_error/star": lambda t: decision_error(fp, good, t, ctxs),
        "regret/hat": lambda t: regret(fp, t, good, ctxs),
        "regret/star": lambda t: regret(fp, good, t, ctxs),
        "calibration_check/theta": lambda t: calibration_check(fp, t, good, 0.5, ctxs),
        "calibration_check/star": lambda t: calibration_check(fp, good, t, 0.5, ctxs),
        "calibration_check/candidate": lambda t: calibration_check(fp, good, good, 0.5, ctxs, [t]),
        "parameter_error/hat": lambda t: parameter_error(t, good),
        "parameter_error/star": lambda t: parameter_error(good, t),
    }
    for name, call in calls.items():
        call(good)
        with pytest.raises(ValueError, match="parameter"):
            call(_spoiled(good, how))


@pytest.mark.parametrize(
    "kind,d,m",
    [
        (CostKind.ADDITIVE, 7, 7),
        (CostKind.HADAMARD, 7, 7),
        (CostKind.MATRIX_PRODUCT, 5, 6),
        (CostKind.IDENTITY, 7, 3),
    ],
)
def test_batch_losses_keep_the_bits_of_the_numpy_mean(kind, d, m):
    # _fy_batch and _subopt_batch skip the np.mean wrapper; their loss must
    # stay float(np.mean(per_row)) to the bit
    rng = rng_stream(0, 9)
    for region in (NonNegL1Cap(d, 2.0), Box.cube(d, -1, 1)):
        fp = ForwardProblem(CostMap(kind, d, m), region, Sense.MIN)
        theta = rng.standard_normal(fp.cost_map.p)
        ctxs = rng.uniform(-1, 1, (37, m))
        ys = np.stack([sample_region(region, d, rng) for _ in range(37)])
        ys += 0.3 * rng.standard_normal(ys.shape)  # some rows leave the region
        hcs = fp._canonical_costs(theta, ctxs)

        loss = _fy_batch(fp, theta, ctxs, ys, 0.3)[0]
        xs = _solve_reg_batch(fp, hcs, 0.3)
        per_row = fp._canonical_value(hcs, xs, 0.3) - fp._canonical_value(hcs, ys, 0.3)
        assert np.array_equal(loss, float(np.mean(per_row)))

        xs = _linear_argmax_batch(region, hcs)
        for hinge in (False, True):
            loss = _subopt_batch(fp, theta, ctxs, ys, hinge=hinge)[0]
            raw = np.einsum("ij,ij->i", hcs, xs - ys)
            per_row = np.where(raw >= 0.0, raw, 0.0) if hinge else raw
            assert np.array_equal(loss, float(np.mean(per_row)))


# ---------------------------------------------------------------------------
# suboptimality loss


def test_subopt_loss_is_duality_gap():
    rng = rng_stream(70)
    fp = ForwardProblem(CostMap(CostKind.ADDITIVE, 4, 4), Box.cube(4, -1, 1), Sense.MIN)
    for _ in range(50):
        theta = rng.standard_normal(4)
        u = rng.uniform(-1, 1, 4)
        y = sample_region(fp.region, 4, rng)
        hc = -(theta + u)  # additive cost, minimization
        x = _linear_argmax_batch(fp.region, hc[None])[0]
        want = float(hc @ (x - y))
        assert abs(subopt_loss(fp, theta, u, y) - want) < 1e-12
        assert want >= -1e-12


def test_subopt_loss_zero_at_exact_decision():
    # the gap is against the forward objective, base_quad included, so
    # every kind (D too) zeroes out at its exact decision
    rng = rng_stream(71)
    for kind, fp in _example_problems():
        theta = rng.standard_normal(fp.cost_map.p)
        u = rng.uniform(-1, 1, fp.cost_map.m)
        y = solve_exact(fp, theta, u)
        assert abs(subopt_loss(fp, theta, u, y)) <= 1e-10, kind


def test_baselines_fit_the_curved_problem_on_family_d():
    # Family D maximizes (theta + u) . x - ||x||^2.  On noiseless data the
    # gap and the KKT residual of that objective vanish at theta*; against
    # the linear objective they read 2.82 and 0.976.
    fp, theta_star, _ = build_example("D")
    ds = generate("D", 200, Noiseless(), 3)
    assert fp.base_quad == 2.0
    assert _subopt_batch(fp, theta_star.values, ds.contexts, ds.decisions, hinge=False)[0] == 0.0
    assert kka_objective(fp, theta_star, ds) == 0.0
    # the hinged gap is zero, so SUBOPT's subgradient is too
    np.testing.assert_array_equal(
        _subopt_batch(fp, theta_star.values, ds.contexts, ds.decisions, hinge=True)[1], 0.0
    )


def test_subopt_subgrad_matches_fd_at_generic_points():
    rng = rng_stream(72)
    for base_quad in (0.0, 2.0):
        cm = CostMap(CostKind.MATRIX_PRODUCT, 5, 3)
        fp = ForwardProblem(cm, Box.cube(5, -1, 1), Sense.MIN, base_quad=base_quad)
        for _ in range(20):
            theta = rng.standard_normal(fp.cost_map.p)
            u = rng.uniform(-1, 1, 3)
            y = sample_region(fp.region, 5, rng)
            got = subopt_subgrad(fp, theta, u, y)
            want = fd_grad(lambda v: subopt_loss(fp, v, u, y), theta, h=1e-7)
            np.testing.assert_allclose(got, want, atol=1e-6)


def test_subopt_batch_matches_scalar_and_hinges():
    rng = rng_stream(73)
    fp = ForwardProblem(CostMap(CostKind.ADDITIVE, 4, 4), Box.cube(4, -1, 1), Sense.MAX)
    theta = rng.standard_normal(4)
    ctxs = rng.uniform(-1, 1, (15, 4))
    # rows 0..4 overshoot the argmax along the cost direction, which makes
    # the raw loss negative (the points leave the box)
    ys = np.stack([sample_region(fp.region, 4, rng) for _ in range(15)])
    for i in range(5):
        hc = theta + ctxs[i]
        ys[i] = _linear_argmax_batch(fp.region, hc[None])[0] + hc
    loss_plain, grad_plain = _subopt_batch(fp, theta, ctxs, ys, hinge=False)
    xs = _linear_argmax_batch(fp.region, fp._canonical_costs(theta, ctxs))
    raw = [subopt_loss(fp, theta, ctxs[i], ys[i]) for i in range(15)]
    np.testing.assert_allclose(loss_plain, np.mean(raw), rtol=1e-12)
    assert min(raw[:5]) < 0
    loss_h, grad_h = _subopt_batch(fp, theta, ctxs, ys, hinge=True)
    np.testing.assert_allclose(loss_h, np.mean(np.maximum(raw, 0.0)), rtol=1e-12)
    active = np.array(raw) >= 0
    want = (xs - ys)[active].sum(axis=0) / 15.0  # additive: J = I
    np.testing.assert_allclose(grad_h, want, atol=1e-12)
    np.testing.assert_allclose(grad_plain, (xs - ys).mean(axis=0), atol=1e-12)


# ---------------------------------------------------------------------------
# KKT residual objective


def test_kka_dual_dim_by_region():
    box = ForwardProblem(CostMap(CostKind.ADDITIVE, 4, 4), Box.cube(4, -1, 1), Sense.MIN)
    cap = ForwardProblem(CostMap(CostKind.ADDITIVE, 4, 4), NonNegL1Cap(4, 2.0), Sense.MIN)
    ds4 = Dataset(np.zeros((3, 4)), np.zeros((3, 4)))
    assert kka_fit(box, ds4).meta["duals"].shape == (3, 8)
    assert kka_fit(cap, ds4).meta["duals"].shape == (3, 5)
    for bad_region in (Ball(4, 1.0), FlowPolytope(grid_graph(6, 7))):
        d = bad_region.dim
        fp = ForwardProblem(CostMap(CostKind.ADDITIVE, d, d), bad_region, Sense.MIN)
        ds = Dataset(np.zeros((1, d)), np.zeros((1, d)))
        for call in (lambda fp: kka_objective(fp, np.zeros(d), ds),
                     lambda fp: kka_grad(fp, np.zeros(d), ds), lambda fp: kka_fit(fp, ds)):
            with pytest.raises(UnsupportedRegionError):
                call(fp)


def test_kka_objective_zero_at_consistent_pair_box():
    rng = rng_stream(80)
    fp = ForwardProblem(CostMap(CostKind.ADDITIVE, 4, 4), Box.cube(4, -1, 1), Sense.MIN)
    theta = rng.standard_normal(4)
    u = rng.uniform(-1, 1, 4)
    hc = -(theta + u)
    y = np.where(hc > 0, 1.0, -1.0)
    assert kka_objective(fp, theta, Dataset(u[None, :], y[None, :])) <= 1e-20
    # the flipped vertex has no duals that satisfy the KKT system
    assert kka_objective(fp, theta, Dataset(u[None, :], -y[None, :])) > 1e-4


def test_kka_objective_zero_at_consistent_pair_cap():
    rng = rng_stream(81)
    fp = ForwardProblem(CostMap(CostKind.ADDITIVE, 3, 3), NonNegL1Cap(3, 2.0), Sense.MAX)
    theta = -np.abs(rng.standard_normal(3)) - 0.1
    u = np.zeros(3)
    hc = theta  # all negative, so y = 0 is the exact decision
    y = np.zeros(3)
    assert kka_objective(fp, theta, Dataset(u[None, :], y[None, :])) <= 1e-20


def _oracle_duals(fp, theta, ds):
    return np.stack([
        kkt_duals(fp.region, fp.canonical_cost(theta, u), y)
        for u, y in zip(ds.contexts, ds.decisions)
    ])


def _noisy_region_data(region, m, n, rng):
    ys = np.stack([sample_region(region, 3, rng) for _ in range(n)])
    return Dataset(rng.uniform(-1, 1, (n, m)), ys + 0.5 * rng.standard_normal((n, 3)))


def test_kka_closed_form_duals_match_support_enumeration():
    rng = rng_stream(84)
    regions = (
        Box.cube(3, -1, 1),
        Box(np.array([-2.0, 0.0, 0.5]), np.array([1.0, 0.5, 3.0])),
        NonNegL1Cap(3, 2.0),
    )
    for region in regions:
        for kind, m, sense in (
            (CostKind.MATRIX_PRODUCT, 2, Sense.MIN),
            (CostKind.ADDITIVE, 3, Sense.MAX),
        ):
            fp = ForwardProblem(CostMap(kind, 3, m), region, sense)
            ds = _noisy_region_data(region, m, 12, rng)
            for _ in range(3):
                theta = 2.0 * rng.standard_normal(fp.cost_map.p)
                got = _kka_reduced(fp, theta, ds)[2]
                np.testing.assert_allclose(got, _oracle_duals(fp, theta, ds), atol=1e-9)


def test_kka_closed_form_duals_on_vertex_data_with_tied_breakpoints():
    # Cap vertices: y = 0 (slack -cap) or cap * e_k (slack 0, other y_j 0).
    # Zero contexts and a constant theta make every breakpoint h_j tie, so
    # the root of the mu problem sits on a tied breakpoint.
    cap = ForwardProblem(CostMap(CostKind.ADDITIVE, 4, 4), NonNegL1Cap(4, 2.0), Sense.MAX)
    cap_ds = Dataset(np.zeros((5, 4)), np.vstack([np.zeros(4), 2.0 * np.eye(4)]))
    box = ForwardProblem(CostMap(CostKind.ADDITIVE, 3, 3), Box.cube(3, -1, 1), Sense.MAX)
    box_ds = Dataset(np.zeros((8, 3)), np.array(list(itertools.product((-1.0, 1.0), repeat=3))))
    cap_thetas = (np.full(4, -1.0), np.zeros(4), np.full(4, 0.5), np.array([0.5, 0.5, -1.0, 0.5]))
    box_thetas = (np.zeros(3), np.array([0.5, 0.0, -0.5]), np.full(3, 0.25))
    cases = ((cap, cap_ds, cap_thetas), (box, box_ds, box_thetas))
    for fp, ds, thetas in cases:
        for theta in thetas:
            got = _kka_reduced(fp, theta, ds)[2]
            assert np.isfinite(got).all()
            np.testing.assert_array_equal(got, _kka_reduced(fp, theta, ds)[2])
            np.testing.assert_allclose(got, _oracle_duals(fp, theta, ds), atol=1e-12)


def test_kka_reduced_gradient_matches_finite_differences():
    # Danskin: the KKT objective's theta-gradient at the closed-form duals
    # is the gradient of the objective minimized over the duals.  With
    # base_quad the objective's gradient at y, hc - base_quad y, takes the
    # place of hc in the linear problem's KKT system.
    rng = rng_stream(85)
    for region, bq in itertools.product((Box.cube(3, -1, 1), NonNegL1Cap(3, 2.0)), (0.0, 2.0)):
        fp = ForwardProblem(CostMap(CostKind.MATRIX_PRODUCT, 3, 2), region, Sense.MIN, base_quad=bq)
        ds = _noisy_region_data(region, 2, 5, rng)
        theta = rng.standard_normal(fp.cost_map.p)

        def lin_cost(t, u, y):
            return fp.canonical_cost(t, u) - bq * y

        def reduced(t):
            duals = [kkt_duals(region, lin_cost(t, u, y), y) for u, y in zip(ds.contexts, ds.decisions)]
            return np.mean([
                kkt_residual(region, lin_cost(t, u, y), y, z)
                for u, y, z in zip(ds.contexts, ds.decisions, duals)
            ])

        assert kka_objective(fp, theta, ds) == pytest.approx(reduced(theta), rel=1e-12)
        np.testing.assert_allclose(kka_grad(fp, theta, ds), fd_grad(reduced, theta), atol=1e-5)
