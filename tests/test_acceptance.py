"""End-to-end acceptance battery.

Each test is one pinned criterion with its tolerance and time budget in the
assertions; the verbose pytest line of each test is its pass/fail record.
"""

import time

import numpy as np

from fyinv import (
    Ball,
    Box,
    CostKind,
    CostMap,
    ExampleSpec,
    FlowPolytope,
    ForwardProblem,
    FwConfig,
    NoisyDecision,
    Noiseless,
    NonNegL1Cap,
    Sense,
    SgdConfig,
    build_example,
    cost,
    decision_error,
    fy_loss,
    generate,
    parameter_error,
    project,
    regret,
    regret_bound_check,
    rng_stream,
    solve_exact,
    solve_regularized,
    sp_run,
    subopt_fit,
    synth_graph_instance,
    fy_sgd_fit,
)
from fyinv.cli import calib_suite, grad_check

from oracles import (
    enum_paths,
    hull_project,
    newton_cap,
    pg_argmax,
    random_dag,
    rescale_ball,
    sample_region,
)

EVAL_BANK = 1000


def _fy_cfg(lam: float, seed: int) -> SgdConfig:
    return SgdConfig(
        learning_rate=0.1, batch_size=32, max_iters=2000, lam=lam, seed=seed, eval_every=200
    )


def _eval_ctxs(law, seed: int, n: int = EVAL_BANK) -> np.ndarray:
    return law.sample(rng_stream(seed, 99), n)


def test_gradient_matches_central_differences_on_all_families():
    """Max relative gradient error <= 1e-5 over 100 triples per family, < 30 s."""
    t0 = time.perf_counter()
    worst_by_kind = {}
    for kind in ("A", "B", "C", "D", "E", "SP"):
        worst, ok = grad_check(kind, trials=100, seed=0)
        worst_by_kind[kind] = worst
        assert ok, f"{kind}: max relative error {worst:.3e} exceeds 1e-5"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"gradient battery took {elapsed:.1f}s"
    assert max(worst_by_kind.values()) <= 1e-5


def test_regularized_solves_match_projected_gradient_oracle():
    """Closed-form solves agree with the 1e5-iteration PG oracle to 1e-6, < 2 min."""
    t0 = time.perf_counter()
    rng = rng_stream(200)
    u0 = np.zeros(1)
    configs = {
        "box": (lambda d: Box.cube(d, -1.5, 2.0), lambda x: np.clip(x, -1.5, 2.0), 0.0),
        "ball": (lambda d: Ball(d, 2.5), lambda x: rescale_ball(x, 2.5), 0.0),
        "cap": (lambda d: NonNegL1Cap(d, 2.0), lambda x: newton_cap(x, 2.0), 0.0),
        "base_quad": (lambda d: Box.cube(d, 0.0, 1.0), lambda x: np.clip(x, 0.0, 1.0), 2.0),
    }
    for name, (make_region, projector, q) in configs.items():
        dims = rng.integers(2, 6, size=50)
        hcs = rng.uniform(-3.0, 3.0, (50, 5))
        # lam >= 0.5 keeps the fixed-step oracle a strict contraction over
        # its pinned budget; the closed forms hold for any positive lam
        lams = rng.uniform(0.5, 2.5, 50)
        for d in np.unique(dims):
            rows = np.flatnonzero(dims == d)
            want = pg_argmax(
                projector, hcs[rows, :d], lams[rows] + q, step=1e-3, iters=100_000, restarts=10
            )
            fp = ForwardProblem(
                CostMap(CostKind.IDENTITY, int(d), 1), make_region(int(d)), Sense.MAX, q
            )
            for j, r in enumerate(rows):
                got = solve_regularized(fp, hcs[r, :d], u0, float(lams[r]))
                err = float(np.abs(got - want[j]).max())
                assert err <= 1e-6, f"{name} d={d}: max deviation {err:.2e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"projection battery took {elapsed:.1f}s"


def test_flow_projection_matches_enumerated_polytope_oracle():
    """project onto a FlowPolytope agrees to 1e-4 with a certified QP over
    all enumerated paths."""
    rng = rng_stream(201)
    cfg = FwConfig(max_iters=4000, gap_tol=1e-12)
    for trial in range(20):
        g = random_dag(rng, max_nodes=8)
        target = rng.uniform(-1.0, 2.0, g.num_edges)
        x = project(FlowPolytope(g), target, cfg)
        want, certified = hull_project(enum_paths(g), target)
        assert certified, f"trial {trial}: oracle failed to certify"
        err = float(np.abs(x - want).max())
        assert err <= 1e-4, f"trial {trial}: deviation {err:.2e}"


def test_ball_regularized_solution_distance_law():
    """1000 draws: distance 0 (to fp roundoff 1e-12) below the threshold,
    else bounded by lam a^2 / (2 ||h||) + 1e-12."""
    fp, theta_star, law = build_example("E")
    a = fp.region.radius
    for t in range(1000):
        rng = rng_stream(202, t)
        theta = theta_star.values + rng.standard_normal(fp.cost_map.p)
        u = law.sample(rng, 1)[0]
        lam = float(10.0 ** rng.uniform(-3, 1))
        h = float(np.linalg.norm(cost(fp.cost_map, theta, u)))
        if h < 1e-12:
            continue
        dist = float(
            np.linalg.norm(solve_regularized(fp, theta, u, lam) - solve_exact(fp, theta, u))
        )
        if lam <= h / a:
            # equal in exact arithmetic; the two solve paths normalize h at
            # different scales, which costs a few ulp
            assert dist <= 1e-12, f"draw {t}: inactive-regularization distance {dist:.2e}"
        else:
            assert dist <= lam * a**2 / (2 * h) + 1e-12, f"draw {t}: bound violated"


def test_sign_family_reproduction_and_baseline_collapse():
    """20 noisy reps: mean decision error and regret exactly 0, all signs
    recovered, while the unconstrained baseline collapses to ||theta|| < 0.05.
    Runtime < 2 min."""
    t0 = time.perf_counter()
    fp, theta_star, law = build_example("B")
    ctxs = _eval_ctxs(law, 0)
    dec_errs, regrets = [], []
    for r in range(20):
        seed = 1000 + r
        ds = generate("B", 100, NoisyDecision(1.0), seed)
        fit = fy_sgd_fit(fp, ds, _fy_cfg(0.1, seed))
        assert np.array_equal(np.sign(fit.theta.values), np.sign(theta_star.values)), (
            f"rep {r}: sign pattern wrong"
        )
        dec_errs.append(decision_error(fp, fit.theta, theta_star, ctxs))
        regrets.append(regret(fp, fit.theta, theta_star, ctxs))
        base = subopt_fit(
            fp,
            ds,
            SgdConfig(
                learning_rate=0.1,
                batch_size=32,
                max_iters=4000,
                step_decay="inv_sqrt",
                seed=seed,
                eval_every=400,
            ),
        )
        assert float(np.linalg.norm(base.theta.values)) < 0.05, f"rep {r}: no collapse"
    assert float(np.mean(dec_errs)) == 0.0
    assert float(np.mean(regrets)) == 0.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"family-B battery took {elapsed:.1f}s"


def test_additive_family_errors_shrink_with_sample_size():
    """20 noisy reps on the additive box family: at n=1000 parameter error
    <= 0.5, decision error <= 1.0, regret <= 0.05, and every mean metric is
    strictly below its n=50 value. Runtime < 5 min."""
    t0 = time.perf_counter()
    fp, theta_star, law = build_example("C")
    ctxs = _eval_ctxs(law, 1)
    metrics = {50: [], 1000: []}
    for r in range(20):
        seed = 2000 + r
        for n in (50, 1000):
            ds = generate("C", n, NoisyDecision(1.0), seed)
            fit = fy_sgd_fit(fp, ds, _fy_cfg(0.1, seed))
            metrics[n].append(
                (
                    parameter_error(fit.theta, theta_star),
                    decision_error(fp, fit.theta, theta_star, ctxs),
                    regret(fp, fit.theta, theta_star, ctxs),
                )
            )
    small = np.mean(metrics[50], axis=0)
    big = np.mean(metrics[1000], axis=0)
    assert big[0] <= 0.5, f"parameter error {big[0]:.3f} exceeds 0.5"
    assert big[1] <= 1.0, f"decision error {big[1]:.3f} exceeds 1.0"
    assert big[2] <= 0.05, f"regret {big[2]:.4f} exceeds 0.05"
    for i, name in enumerate(("parameter error", "decision error", "regret")):
        assert big[i] < small[i], f"{name} did not shrink: {big[i]:.4f} vs {small[i]:.4f}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"family-C battery took {elapsed:.1f}s"


def test_noiseless_decision_error_targets():
    """Noiseless fits at n=300 stay within +0.2 of the pinned per-family
    decision errors (A 0.76, B 0, C 0.03, D 0, E 0)."""
    targets = {"A": 0.76, "B": 0.0, "C": 0.03, "D": 0.0, "E": 0.0}
    for kind, target in targets.items():
        fp, theta_star, law = build_example(kind)
        ds = generate(kind, 300, Noiseless(), seed=42)
        # small lam: noiseless decisions are exact, so the fit should chase
        # the unregularized solutions as closely as the loss allows
        fit = fy_sgd_fit(fp, ds, _fy_cfg(0.01, 42))
        err = decision_error(fp, fit.theta, theta_star, _eval_ctxs(law, 2))
        assert err <= target + 0.2, f"{kind}: decision error {err:.3f} > {target + 0.2}"


def test_calibration_inequality_hold_rate():
    """The decision-error bound holds on >= 95% of 100 parameter perturbations."""
    frac, ball_worst, ok = calib_suite(lam=0.1, samples=100, seed=0)
    assert frac >= 0.95, f"bound held on only {100 * frac:.0f}% of samples"
    assert ok


def test_regret_bounded_by_cost_decision_product():
    """regret <= sqrt(mean ||h||^2 x decision error) + 1e-8 on 50 estimates each
    for the box and ball families."""
    for kind in ("C", "E"):
        fp, theta_star, law = build_example(kind)
        ctxs = law.sample(rng_stream(203, ord(kind)), 500)
        scales = (0.1, 0.5, 1.0, 2.0)
        for t in range(50):
            rng = rng_stream(204, ord(kind), t)
            theta_hat = theta_star.values + scales[t % 4] * rng.standard_normal(fp.cost_map.p)
            rep = regret_bound_check(fp, theta_hat, theta_star, ctxs)
            assert rep.holds, (
                f"{kind} draw {t}: regret {rep.regret:.4f} > bound {rep.bound:.4f}"
            )


def test_grid_pipeline_beats_subgradient_baseline():
    """Planted 45-node/93-edge grid, n=2000, sigma=0.1, 3 reps: mean relative
    regret <= 5%, strictly below the baseline's, and faster wall clock.
    Runtime < 10 min."""
    t0 = time.perf_counter()
    fy_ratio, fy_wall, sub_ratio, sub_wall = [], [], [], []
    for seed in range(3):
        sp = synth_graph_instance(num_nodes=45, num_edges=93, m=12, n=2000, sigma=0.1, seed=seed)
        rep_fy = sp_run(sp, "FY", None, seed=seed)
        rep_sub = sp_run(sp, "SUBOPT", None, seed=seed)
        fy_ratio.append(rep_fy.relative_regret_ratio)
        fy_wall.append(rep_fy.wall_time)
        sub_ratio.append(rep_sub.relative_regret_ratio)
        sub_wall.append(rep_sub.wall_time)
    mean_fy = float(np.mean(fy_ratio))
    mean_sub = float(np.mean(sub_ratio))
    assert mean_fy <= 5.0, f"relative regret {mean_fy:.2f}% exceeds 5%"
    assert mean_fy < mean_sub, f"no regret win: {mean_fy:.2f}% vs {mean_sub:.2f}%"
    assert float(np.mean(fy_wall)) < float(np.mean(sub_wall)), (
        f"no speed win: {np.mean(fy_wall):.2f}s vs {np.mean(sub_wall):.2f}s"
    )
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"grid battery took {elapsed:.1f}s"


def test_loss_property_suite_on_randomized_instances():
    """1000 random instances: loss nonnegative on feasible targets, zero at
    the regularized optimum, midpoint-convex, and generation deterministic."""
    kinds = ("A", "B", "C", "D", "E")
    problems = {k: build_example(ExampleSpec(k, p=4)) for k in kinds}
    for i in range(1000):
        rng = rng_stream(205, i)
        kind = kinds[i % 5]
        fp, theta_star, law = problems[kind]
        theta = theta_star.values + rng.standard_normal(4)
        u = law.sample(rng, 1)[0]
        lam = float(rng.uniform(0.05, 2.0))
        y = sample_region(fp.region, 4, rng)
        loss = fy_loss(fp, theta, u, y, lam)
        assert loss >= -1e-10, f"instance {i}: negative loss {loss:.2e}"
        at_opt = fy_loss(fp, theta, u, solve_regularized(fp, theta, u, lam), lam)
        assert abs(at_opt) <= 1e-10, f"instance {i}: nonzero at optimum {at_opt:.2e}"
        other = theta_star.values + rng.standard_normal(4)
        mid = fy_loss(fp, 0.5 * (theta + other), u, y, lam)
        avg = 0.5 * (loss + fy_loss(fp, other, u, y, lam))
        assert mid <= avg + 1e-9, f"instance {i}: convexity violated"
        if i % 50 == 0:
            a = generate(ExampleSpec(kind, p=4), 15, NoisyDecision(0.7), seed=i)
            b = generate(ExampleSpec(kind, p=4), 15, NoisyDecision(0.7), seed=i)
            assert np.array_equal(a.contexts, b.contexts)
            assert np.array_equal(a.decisions, b.decisions)
