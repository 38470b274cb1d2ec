"""SGD drivers, the KKT fitter, kernel denoising, and the two-stage baseline."""

import hashlib
import time
import tracemalloc

import numpy as np
import pytest

from fyinv import (
    Box,
    CostKind,
    CostMap,
    Dataset,
    DegenerateKernelError,
    DivergedError,
    EXAMPLE_KINDS,
    ExampleSpec,
    ForwardProblem,
    Noiseless,
    NoisyDecision,
    Parameter,
    Sense,
    SgdConfig,
    UnsupportedRegionError,
    build_example,
    fy_sgd_fit,
    generate,
    kka_fit,
    kka_grad,
    kka_objective,
    nw_denoise,
    rng_stream,
    spa_fit,
    subopt_fit,
)
import fyinv.train
from fyinv.cli import _SYNTH_CFG
from fyinv.losses import _fy_batch, _kka_reduced, _subopt_batch
from fyinv.train import _NW_BLOCK_ELEMS, _apply_space, _cv_bandwidth, _nw_weights, _run_sgd
from oracles import cv_bandwidth_scores, kkt_duals, kkt_residual, nw_weights_direct


def _noiseless_b(n=60, seed=3, p=4):
    fp, theta_star, _ = build_example(ExampleSpec("B", p=p))
    ds = generate(ExampleSpec("B", p=p), n, Noiseless(), seed)
    return fp, theta_star, ds


def _noisy_c(n=80, seed=4, p=5):
    fp, theta_star, _ = build_example(ExampleSpec("C", p=p))
    ds = generate(ExampleSpec("C", p=p), n, NoisyDecision(0.5), seed)
    return fp, theta_star, ds


# ---------------------------------------------------------------------------
# configs and parameter spaces


def test_sgd_config_validation():
    with pytest.raises(ValueError):
        SgdConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        SgdConfig(learning_rate=float("nan"))
    with pytest.raises(ValueError):
        SgdConfig(learning_rate=float("inf"))
    with pytest.raises(ValueError):
        SgdConfig(batch_size=0)
    with pytest.raises(ValueError):
        SgdConfig(max_iters=-1)
    with pytest.raises(ValueError):
        SgdConfig(step_decay="linear")
    with pytest.raises(ValueError):
        SgdConfig(eval_every=0)
    for key in ("batch_size", "eval_every"):
        for bad in (0, -1, 1.5, float("nan"), True):
            with pytest.raises(ValueError):
                SgdConfig(**{key: bad})
    for bad in (-1, 2.5, float("nan"), True):
        with pytest.raises(ValueError):
            SgdConfig(max_iters=bad)
    # these constructed and then failed inside numpy or at the first risk
    for bad in (2.5, -1, True, float("nan"), "0"):
        with pytest.raises(ValueError):
            SgdConfig(seed=bad)
    for bad in (float("nan"), -1.0, 0.0, float("inf")):
        with pytest.raises(ValueError):
            SgdConfig(lam=bad)
    for bad in (1, 0, None, "yes", np.bool_(True)):
        with pytest.raises(ValueError):
            SgdConfig(unit_norm=bad)
    cfg = SgdConfig(batch_size=np.int64(4), max_iters=0, eval_every=np.int64(2), seed=np.int64(3))
    assert (cfg.batch_size, cfg.max_iters, cfg.eval_every, cfg.seed) == (4, 0, 2, 3)


def test_apply_space_unit_sphere():
    v = np.array([3.0, 4.0])
    np.testing.assert_allclose(_apply_space(v, True), [0.6, 0.8])
    np.testing.assert_array_equal(_apply_space(np.zeros(3), True), [1.0, 0.0, 0.0])
    assert _apply_space(v, False) is v


# ---------------------------------------------------------------------------
# the shared SGD driver, exercised through the FY fitter


def test_fy_fit_deterministic():
    fp, _, ds = _noisy_c()
    cfg = SgdConfig(learning_rate=0.1, max_iters=120, eval_every=40, lam=0.3, seed=11)
    a = fy_sgd_fit(fp, ds, cfg)
    b = fy_sgd_fit(fp, ds, cfg)
    np.testing.assert_array_equal(a.theta.values, b.theta.values)
    np.testing.assert_array_equal(a.loss_trace, b.loss_trace)
    assert a.iterations == b.iterations


def test_fy_fit_best_risk_contract():
    fp, _, ds = _noisy_c()
    cfg = SgdConfig(learning_rate=0.1, max_iters=150, eval_every=30, lam=0.3)
    res = fy_sgd_fit(fp, ds, cfg)

    def risk(theta):
        return _fy_batch(fp, theta, ds.contexts, ds.decisions, cfg.lam)[0]

    assert res.meta["risk"] <= risk(np.zeros(fp.cost_map.p)) + 1e-15
    np.testing.assert_allclose(risk(res.theta.values), res.meta["risk"], rtol=1e-12)
    assert res.meta["risk"] < risk(np.zeros(fp.cost_map.p))  # it actually moved
    assert res.loss_trace.size in (res.iterations, res.iterations + 1)
    assert res.wall_time >= 0.0


def test_fy_fit_zero_iters_returns_start():
    fp, _, ds = _noisy_c()
    res = fy_sgd_fit(fp, ds, SgdConfig(max_iters=0))
    np.testing.assert_array_equal(res.theta.values, np.zeros(fp.cost_map.p))
    assert res.iterations == 0
    assert res.loss_trace.size == 0


def test_fy_fit_huge_tolerance_stops_immediately(monkeypatch):
    fp, _, ds = _noisy_c()
    monkeypatch.setattr(fyinv.train, "_GRAD_TOL", 1e9)
    res = fy_sgd_fit(fp, ds, SgdConfig(max_iters=500))
    assert res.iterations == 0
    assert res.loss_trace.size == 1
    np.testing.assert_array_equal(res.theta.values, np.zeros(fp.cost_map.p))


def test_driver_evaluates_each_checkpoint_once():
    # The start risk is checkpoint 0, so a run that ends before its first
    # step does not evaluate the same theta a second time.
    fp, _, ds = _noisy_c()
    evals = []

    def full_risk(theta):
        evals.append(theta.copy())
        return float(np.sum((theta - 1.0) ** 2))

    def stationary(theta, idx):
        return 0.0, np.zeros_like(theta)

    def descend(theta, idx):
        return 0.0, theta - 1.0

    for step, cfg, want in (
        (stationary, SgdConfig(max_iters=0), 1),
        (stationary, SgdConfig(max_iters=500), 1),
        (descend, SgdConfig(max_iters=100, eval_every=50), 3),  # start, 50, 100
        (descend, SgdConfig(max_iters=120, eval_every=50), 4),  # ... and 120
    ):
        evals.clear()
        _run_sgd(fp, ds, cfg, step, full_risk)
        assert len(evals) == want


def test_driver_raises_on_non_finite_risk():
    fp, _, ds = _noisy_c()

    def step(theta, idx):
        return 0.0, theta - 1.0

    for bad in (np.nan, np.inf):
        for at in (0, 1):  # the start risk, then the checkpoint at step 5
            risks = iter([0.0] * at + [bad] * 3)  # checkpoints: start, 5, 10
            with pytest.raises(DivergedError, match="risk"):
                _run_sgd(
                    fp, ds, SgdConfig(max_iters=10, eval_every=5), step, lambda t: next(risks)
                )


def test_sgd_fits_raise_on_overflowing_risk():
    # contexts near the float64 limit overflow the costs: FY used to return
    # risk NaN and SUBOPT risk inf, each with theta = 0 and no error
    fp, _, ds = _noisy_c()
    huge = Dataset(ds.contexts * 1e308, ds.decisions)
    with np.errstate(all="ignore"):
        for fit in (fy_sgd_fit, subopt_fit):
            with pytest.raises(DivergedError):
                fit(fp, huge, SgdConfig(max_iters=20))


def test_kka_and_spa_fit_huge_decisions():
    # squares of decisions near 1e154 overflow: KKA warned, and SPA's
    # overflowing held-out error read as "every candidate bandwidth isolated
    # some fold"
    cfg = SgdConfig(max_iters=50)
    for kind in "ABCD":
        fp, _, _ = build_example(kind)
        ds = generate(kind, 50, NoisyDecision(1e154), 0)
        assert np.all(np.isfinite(spa_fit(fp, ds, cfg).theta.values))
        if kind == "D":
            # base_quad = 2 leaves the stationarity residual near 1e154,
            # so the objective itself overflows
            with pytest.raises(DivergedError):
                kka_fit(fp, ds, cfg)
        else:
            assert np.all(np.isfinite(kka_fit(fp, ds, cfg).theta.values))
    # family A at a theta that zeroes the cost row of a point whose s^2
    # overflows: inf * 0 in _cap_kkt
    fp, _, _ = build_example("A")
    ds = generate("A", 50, NoisyDecision(1e154), 0)
    i = np.argmax(np.abs(ds.decisions.sum(axis=1)))
    assert np.isfinite(kka_objective(fp, -ds.contexts[i], ds))


def test_fy_fit_diverges_with_absurd_learning_rate():
    fp, _, ds = _noisy_c()
    with pytest.raises(DivergedError):
        fy_sgd_fit(fp, ds, SgdConfig(learning_rate=1e9, max_iters=50, eval_every=50))


def _nan_gradient(objective):
    """objective with its loss (first output) kept and its gradient (second
    output) replaced by NaN."""

    def nan_grad(*args, **kwargs):
        loss, grad, *rest = objective(*args, **kwargs)
        return (loss, np.full_like(grad, np.nan), *rest)

    return nan_grad


def test_sgd_fits_raise_on_nan_iterate(monkeypatch):
    # a NaN gradient steps to a NaN iterate, which the step guard rejects
    fp, _, ds = _noisy_c()
    for name, fit in (("_fy_batch", fy_sgd_fit), ("_subopt_batch", subopt_fit)):
        monkeypatch.setattr(fyinv.train, name, _nan_gradient(getattr(fyinv.train, name)))
        with pytest.raises(DivergedError, match="parameter norm"):
            fit(fp, ds, SgdConfig(max_iters=5))


def test_fy_fit_respects_unit_norm():
    fp, _, ds = _noisy_c()
    cfg = SgdConfig(learning_rate=0.1, max_iters=60, unit_norm=True, eval_every=20)
    res = fy_sgd_fit(fp, ds, cfg)
    assert abs(np.linalg.norm(res.theta.values) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# suboptimality baseline


def test_subopt_fit_collapses_on_multiplicative_costs():
    """theta = 0 zeroes the hinged risk, so the best-risk iterate is the start."""
    fp, _, ds = _noiseless_b()
    res = subopt_fit(fp, ds, SgdConfig(learning_rate=0.2, max_iters=300, eval_every=50))
    assert res.meta["risk"] == 0.0
    np.testing.assert_array_equal(res.theta.values, np.zeros(fp.cost_map.p))


def test_subopt_fit_normalized_escapes_collapse():
    fp, _, ds = _noiseless_b()
    cfg = SgdConfig(
        learning_rate=0.2,
        max_iters=300,
        eval_every=50,
        step_decay="inv_sqrt",
        unit_norm=True,
    )
    res = subopt_fit(fp, ds, cfg)
    assert abs(np.linalg.norm(res.theta.values) - 1.0) < 1e-12


def test_subopt_fit_risk_contract_under_noise():
    fp, _, ds = _noisy_c()
    res = subopt_fit(fp, ds, SgdConfig(learning_rate=0.1, max_iters=200, eval_every=40))
    loss0 = _subopt_batch(fp, np.zeros(fp.cost_map.p), ds.contexts, ds.decisions, hinge=True)[0]
    assert res.meta["risk"] <= loss0 + 1e-15


def test_sgd_fits_check_theta_once_not_per_step(monkeypatch):
    # Theta is checked (a Parameter built) at the fit's boundary only, so
    # the count of Parameters a fit builds does not grow with its steps.
    built = []
    post_init = Parameter.__post_init__

    def counted(self):
        built.append(1)
        post_init(self)

    fp, _, _ = build_example("A")
    ds = generate("A", 200, NoisyDecision(1.0), 0)
    monkeypatch.setattr(Parameter, "__post_init__", counted)
    for fit in (subopt_fit, fy_sgd_fit):
        counts = []
        for steps in (50, 500):
            built.clear()
            res = fit(fp, ds, SgdConfig(max_iters=steps))
            assert res.iterations == steps
            counts.append(len(built))
        assert counts[0] == counts[1], (fit.__name__, counts)


# ---------------------------------------------------------------------------
# KKT-residual fitter


def _kkt_oracle(fp, theta, ds):
    """Per-point optimal duals at theta and the mean KKT objective at them."""
    hcs = [fp.canonical_cost(theta, u) for u in ds.contexts]
    duals = np.stack([kkt_duals(fp.region, hc, y) for hc, y in zip(hcs, ds.decisions)])
    objs = [kkt_residual(fp.region, hc, y, z) for hc, y, z in zip(hcs, ds.decisions, duals)]
    return duals, float(np.mean(objs))


def test_kka_fit_decreases_objective():
    fp = ForwardProblem(CostMap(CostKind.ADDITIVE, 3, 3), Box.cube(3, -1, 1), Sense.MIN)
    ds = generate(ExampleSpec("C", p=3), 30, NoisyDecision(0.3), 5)
    cfg = SgdConfig(learning_rate=0.05, max_iters=600, eval_every=100)
    res = kka_fit(fp, ds, cfg)
    init = np.mean([  # zero duals
        kkt_residual(fp.region, fp.canonical_cost(np.zeros(3), u), y, np.zeros(6))
        for u, y in zip(ds.contexts, ds.decisions)
    ])
    _, start = _kkt_oracle(fp, np.zeros(3), ds)
    assert res.loss_trace[0] == pytest.approx(start)
    assert start <= init
    assert res.meta["risk"] < 0.5 * init
    assert res.meta["duals"].shape == (30, 6)
    assert res.meta["duals"].min() >= 0.0
    want, risk = _kkt_oracle(fp, res.theta, ds)
    np.testing.assert_allclose(res.meta["duals"], want, atol=1e-9)
    assert res.meta["risk"] == pytest.approx(risk)
    assert kka_objective(fp, res.theta.values, ds) == res.meta["risk"]  # bit for bit


def test_kka_fit_deterministic():
    fp = ForwardProblem(CostMap(CostKind.ADDITIVE, 3, 3), Box.cube(3, -1, 1), Sense.MIN)
    ds = generate(ExampleSpec("C", p=3), 20, NoisyDecision(0.3), 6)
    cfg = SgdConfig(learning_rate=0.05, max_iters=100)
    a = kka_fit(fp, ds, cfg)
    b = kka_fit(fp, ds, cfg)
    np.testing.assert_array_equal(a.theta.values, b.theta.values)
    np.testing.assert_array_equal(a.meta["duals"], b.meta["duals"])


def test_kka_fit_raises_on_nan_iterate(monkeypatch):
    # a NaN gradient would step to a NaN iterate: the fit raises first
    fp = ForwardProblem(CostMap(CostKind.ADDITIVE, 3, 3), Box.cube(3, -1, 1), Sense.MIN)
    ds = generate(ExampleSpec("C", p=3), 20, NoisyDecision(0.3), 6)
    monkeypatch.setattr(fyinv.train, "_kka_reduced", _nan_gradient(_kka_reduced))
    with pytest.raises(DivergedError, match="gradient is not finite"):
        kka_fit(fp, ds, SgdConfig(max_iters=5))


def test_kka_fit_raises_when_iterate_diverges():
    # no theta box: a step far past 2 / curvature makes the iterate oscillate
    # with growing amplitude until the norm guard trips
    fp, _, _ = build_example("C")
    ds = generate("C", 50, NoisyDecision(1.0), 0)
    with pytest.raises(DivergedError):
        kka_fit(fp, ds, SgdConfig(learning_rate=30, max_iters=2000))


def test_kka_fit_reaches_tolerance_on_family_a():
    # at the synth step 1/L the fit stops on the gradient tolerance in 29
    # steps on this draw; 4,000 joint projected-gradient steps over
    # (theta, duals) at step 0.05 stopped at a mean objective of 2.4263
    fp, _, _ = build_example("A")
    ds = generate("A", 1000, NoisyDecision(1.0), 0)
    cfg = _SYNTH_CFG["KKA"]
    res = kka_fit(fp, ds, cfg)
    assert res.iterations < 60
    assert res.grad_norm <= fyinv.train._GRAD_TOL
    assert res.meta["risk"] < 2.4263
    assert kka_objective(fp, res.theta, ds) == res.meta["risk"]  # bit for bit


def _kka_curvature_bound(fp, ctxs):
    """L = 2 lambda_max(mean J^T J) of the cost map over the contexts."""
    p = fp.cost_map.p
    base = fp._canonical_costs(np.zeros(p), ctxs)
    jac = np.stack([fp._canonical_costs(e, ctxs) - base for e in np.eye(p)], axis=2)
    jtj = np.einsum("idk,idl->kl", jac, jac) / len(ctxs)
    return 2.0 * float(np.linalg.eigvalsh(jtj).max())


def test_kka_reduced_objective_is_2_smooth():
    # The descent lemma with L = 2 lambda_max(mean J^T J) holds on every
    # family with a KKT form, and the synth step stays at or below 1/L, so
    # a family with a larger Jacobian fails here instead of diverging.
    lr = _SYNTH_CFG["KKA"].learning_rate
    checked = []
    for key, kind in enumerate(EXAMPLE_KINDS):
        fp, theta_star, law = build_example(kind)
        ds = generate(kind, 300, NoisyDecision(1.0), 11)
        try:
            kka_objective(fp, theta_star, ds)
        except UnsupportedRegionError:
            continue
        checked.append(kind)
        rng = rng_stream(11, key)
        assert lr * _kka_curvature_bound(fp, law.sample(rng, 2000)) <= 1.0 + 1e-12, kind
        big_l = _kka_curvature_bound(fp, ds.contexts)
        assert big_l <= 2.0 + 1e-12, kind
        p = fp.cost_map.p
        for _ in range(100):
            theta = rng.normal(0.0, 2.0, p)
            delta = rng.normal(0.0, 10.0 ** rng.uniform(-3, 1), p)
            f0, g0, _ = _kka_reduced(fp, theta, ds)
            f1, _, _ = _kka_reduced(fp, theta + delta, ds)
            bound = f0 + g0 @ delta + 0.5 * big_l * (delta @ delta)
            assert f1 <= bound + 1e-12 * (abs(f0) + abs(f1) + 1.0), kind
    assert checked == ["A", "B", "C", "D"]


def _digest(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=float).tobytes()).hexdigest()[:16]


# (family, n, seed) -> iterations, grad_norm.hex(), risk.hex(), then the
# first 16 hex digits of the sha256 of theta's, loss_trace's and the duals'
# float64 bytes.  Recorded from a fit that evaluated the costs twice per
# step and recomputed each checkpoint: sharing that work must not move a bit.
_KKA_SNAPSHOT = {
    ("A", 60, 3): (355, "0x1.065365eba01b2p-20", "0x1.9c83ac278ae24p+0",
                   "4ebe3cb5ad9ccf44", "efbb7f8011fa8f47", "9b84e1ed751a3f1a"),
    ("C", 40, 5): (328, "0x1.03df1891ff13bp-20", "0x1.3a1f7a8bd10abp+0",
                   "70ba1a353495cfb2", "40a399f467f69fd2", "e7d510abbff26a15"),
}


def test_kka_fit_matches_snapshot_and_evaluates_each_iterate_once(monkeypatch):
    # capped simplex (A) and box (C): one cost evaluation per iterate the
    # driver visits, checkpoints included, plus one for the returned duals
    calls = []
    costs = ForwardProblem._canonical_costs

    def counted(self, theta, ctxs):
        calls.append(1)
        return costs(self, theta, ctxs)

    monkeypatch.setattr(ForwardProblem, "_canonical_costs", counted)
    for (kind, n, seed), want in _KKA_SNAPSHOT.items():
        fp, _, _ = build_example(kind)
        ds = generate(kind, n, NoisyDecision(1.0), seed)
        calls.clear()
        res = kka_fit(fp, ds, SgdConfig(learning_rate=0.05, max_iters=4000, eval_every=50))
        got = (
            res.iterations,
            res.grad_norm.hex(),
            float(res.meta["risk"]).hex(),
            _digest(res.theta.values),
            _digest(res.loss_trace),
            _digest(res.meta["duals"]),
        )
        assert got == want, kind
        assert sorted(res.meta) == ["best_iteration", "duals", "risk"]
        assert len(calls) == len(res.loss_trace) + 1, kind


# ---------------------------------------------------------------------------
# kernel denoising


def _smooth_dataset(n=40, seed=7):
    rng = rng_stream(seed)
    ctxs = rng.uniform(-1, 1, (n, 2))
    ys = np.stack([np.sin(2 * ctxs[:, 0]), ctxs[:, 1] ** 2]).T
    return Dataset(ctxs, ys)


def test_fitters_reject_mismatched_dataset_widths():
    # kka_objective and kka_grad used to score these datasets on family C
    # and raise IndexError on family A
    calls = (
        fy_sgd_fit,
        subopt_fit,
        kka_fit,
        spa_fit,
        lambda fp, ds, _: kka_objective(fp, np.zeros(fp.cost_map.p), ds),
        lambda fp, ds, _: kka_grad(fp, np.zeros(fp.cost_map.p), ds),
    )
    sgd = SgdConfig(max_iters=5)
    for kind in ("A", "C"):
        fp, _, _ = build_example(kind)
        ds = generate(kind, 40, Noiseless(), 5)
        narrow = [
            Dataset(ds.contexts[:, :1], ds.decisions),
            Dataset(ds.contexts, ds.decisions[:, :1]),
        ]
        for bad in narrow:
            for call in calls:
                with pytest.raises(ValueError, match="width"):
                    call(fp, bad, sgd)


def test_nw_denoise_interpolates_at_tiny_bandwidth():
    ds = _smooth_dataset()
    gaps = np.sum((ds.contexts[:, None, :] - ds.contexts[None, :, :]) ** 2, axis=2)
    np.fill_diagonal(gaps, np.inf)
    # neighbor weights ~exp(-26): tiny against the unit self-weight but big
    # enough to survive the 1.0 + w float64 rounding in the isolation check
    bw = float(np.sqrt(gaps.min() / 52.0))
    out = nw_denoise(ds, bw)
    np.testing.assert_allclose(out, ds.decisions, atol=1e-9)


def test_nw_denoise_tends_to_mean_at_huge_bandwidth():
    ds = _smooth_dataset()
    mean = np.tile(ds.decisions.mean(axis=0), (len(ds), 1))
    np.testing.assert_allclose(nw_denoise(ds, 1e6), mean, atol=1e-8)
    # bw^2 overflows: every weight is 1, with no overflow warning
    np.testing.assert_allclose(nw_denoise(ds, 1e300), mean, rtol=1e-14)


def test_nw_denoise_actually_smooths():
    rng = rng_stream(8)
    ctxs = rng.uniform(-1, 1, (200, 1))
    clean = np.sin(3 * ctxs)
    noisy = clean + 0.3 * rng.standard_normal(clean.shape)
    ds = Dataset(ctxs, noisy)
    out = nw_denoise(ds, 0.15)
    assert np.mean((out - clean) ** 2) < 0.5 * np.mean((noisy - clean) ** 2)


def test_nw_denoise_degenerate_bandwidth_raises():
    ctxs = np.array([[0.0], [100.0], [200.0]])
    ds = Dataset(ctxs, np.ones((3, 1)))
    with pytest.raises(DegenerateKernelError):
        nw_denoise(ds, 1e-3)
    # 2 bw^2 underflows to 0: the self-weight was 0/0 and every row NaN
    with pytest.raises(DegenerateKernelError, match="underflow"):
        nw_denoise(ds, 1e-300)
    for bad in (0.0, [0.5], (0.5, 1.0), np.array([[0.5]])):
        with pytest.raises(ValueError, match="bandwidth"):
            nw_denoise(ds, bad)


def test_nw_weights_blocks_match_direct_formula_bitwise():
    rng = rng_stream(40)
    n_train, m = 300, 10
    train = rng.uniform(-1, 1, (n_train, m))
    block = _NW_BLOCK_ELEMS // (n_train * m)
    assert block > 1
    for rows in (1, block - 1, block, block + 1, 3 * block + 5):
        evl = rng.uniform(-1, 1, (rows, m))
        evl[-1] = train[rows]  # a self-distance row: d2 = 0, weight 1
        for bw in (0.5, (0.1, 0.25, 0.5, 1.0, 2.0)):
            got = _nw_weights(train, evl, bw)
            want = nw_weights_direct(train, evl, bw)
            assert got.shape == want.shape
            assert np.array_equal(got, want), (rows, bw)
            assert np.all(got[..., -1, rows] == 1.0)


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_nw_denoise_memory_is_flat_in_n():
    # rows stream through blocks of about 2 MiB: at n = 3000 the n x n
    # weights alone would take 72 MB
    n, m = 3000, 10
    rng = rng_stream(41)
    ds = Dataset(rng.uniform(-1, 1, (n, m)), rng.standard_normal((n, m)))
    assert _traced_peak(lambda: nw_denoise(ds, 0.5)) <= 12e6


def test_cv_bandwidth_memory_is_flat_in_n():
    # each fold keeps its K x hold x d predictions, not the K x hold x rest
    # weights (69 MB at n = 3000)
    n, m = 3000, 10
    rng = rng_stream(41)
    ds = Dataset(rng.uniform(-1, 1, (n, m)), rng.standard_normal((n, m)))
    assert _traced_peak(lambda: _cv_bandwidth(ds, 0)) <= 12e6


def test_nw_row_blocks_match_direct_weights(monkeypatch):
    rng = rng_stream(42)
    n, m = 50, 3
    ds = Dataset(rng.uniform(-1, 1, (n, m)), rng.standard_normal((n, 2)))
    # blocks of 1 row, then 7 blocks of 7 rows and a ragged one of 1
    for elems in (1, 7 * n):
        monkeypatch.setattr(fyinv.train, "_NW_BLOCK_ELEMS", elems)
        for bw in (0.25, 0.5, 2.0):
            w = nw_weights_direct(ds.contexts, ds.contexts, bw)
            want = (w @ ds.decisions) / w.sum(axis=1, keepdims=True)
            np.testing.assert_allclose(nw_denoise(ds, bw), want, rtol=1e-12)
        assert _cv_bandwidth(ds, 3) == _reference_choice(ds, 3)[0]


def test_cv_bandwidth_deterministic_member_of_grid():
    ds = _smooth_dataset(n=60)
    grid = fyinv.train._SPA_BANDWIDTHS
    bw = _cv_bandwidth(ds, 2)
    assert bw in grid
    assert _cv_bandwidth(ds, 2) == bw
    # smooth low-noise data should not pick the widest smoother
    assert bw < max(grid)


def _reference_choice(ds, seed):
    """The oracle's choice and scores on the grid and fold count in force."""
    grid = fyinv.train._SPA_BANDWIDTHS
    scores = cv_bandwidth_scores(ds.contexts, ds.decisions, grid, fyinv.train._SPA_FOLDS, seed)
    return grid[int(np.argmin(scores))], scores


def test_cv_bandwidth_matches_loop_reference(monkeypatch):
    chosen = set()
    for seed in (0, 2):
        rng = rng_stream(20 + seed)
        ctxs = rng.uniform(-1, 1, (60, 2))
        signal = np.stack([np.sin(2 * ctxs[:, 0]), ctxs[:, 1] ** 2]).T
        for ys in (
            signal + 0.3 * rng.standard_normal((60, 2)),
            signal + 1.0 * rng.standard_normal((60, 2)),
            rng.standard_normal((60, 2)),
        ):
            ds = Dataset(ctxs, ys)
            want, _ = _reference_choice(ds, seed)
            assert _cv_bandwidth(ds, seed) == want
            chosen.add(want)
    assert len(chosen) >= 3  # noise levels move the choice across the grid

    # 0.25 wins on this data until one context moves far away: then every
    # fold holding it is isolated below bandwidth ~26, and both small
    # bandwidths must score inf rather than win
    base = _smooth_dataset(n=40, seed=3)
    monkeypatch.setattr(fyinv.train, "_SPA_BANDWIDTHS", (0.25, 1.0, 100.0))
    assert _cv_bandwidth(base, 1) == _reference_choice(base, 1)[0] == 0.25
    ctxs = base.contexts.copy()
    ctxs[0] = 1000.0
    far = Dataset(ctxs, base.decisions)
    want, scores = _reference_choice(far, 1)
    assert scores[:2] == [np.inf, np.inf]
    assert _cv_bandwidth(far, 1) == want == 100.0


def test_cv_bandwidth_degenerate_grid_raises(monkeypatch):
    ctxs = np.array([[0.0], [500.0], [1000.0], [1500.0]])
    ds = Dataset(ctxs, np.ones((4, 1)))
    monkeypatch.setattr(fyinv.train, "_SPA_BANDWIDTHS", (1e-4, 1e-3))
    monkeypatch.setattr(fyinv.train, "_SPA_FOLDS", 2)
    assert _reference_choice(ds, 0)[1] == [np.inf, np.inf]
    with pytest.raises(DegenerateKernelError):
        _cv_bandwidth(ds, 0)


def test_spa_fit_end_to_end():
    fp, _, ds = _noisy_c(n=60)
    cfg = SgdConfig(learning_rate=0.1, max_iters=150, eval_every=50)
    res = spa_fit(fp, ds, cfg)
    assert res.meta["bandwidth"] in fyinv.train._SPA_BANDWIDTHS
    assert np.all(np.isfinite(res.theta.values))
    assert "risk" in res.meta
    a = spa_fit(fp, ds, cfg)
    np.testing.assert_array_equal(a.theta.values, res.theta.values)


def test_spa_fit_wall_time_covers_every_stage(monkeypatch):
    # denoising runs before the SUBOPT stage, whose driver keeps its own timer
    denoise = fyinv.train.nw_denoise

    def slow_denoise(ds, bandwidth):
        time.sleep(0.05)
        return denoise(ds, bandwidth)

    monkeypatch.setattr(fyinv.train, "nw_denoise", slow_denoise)
    fp, _, ds = _noisy_c(n=40)
    res = spa_fit(fp, ds, SgdConfig(max_iters=5))
    assert res.wall_time >= 0.05
