"""Decision metrics, the shortest-path regret ratio, and the calibration inequality."""

import numpy as np
import pytest

from fyinv import (
    Box,
    CostKind,
    CostMap,
    ExampleSpec,
    ForwardProblem,
    Parameter,
    Sense,
    build_example,
    calibration_check,
    decision_error,
    parameter_error,
    regret,
    rng_stream,
    solve_exact,
)
from fyinv.graphs import shortest_path_batch
from fyinv.metrics import _path_regret
from fyinv.spath import synth_graph_instance, _flow_problem


def _ctx_bank(fp, rng, n=60):
    return rng.uniform(-1, 1, (n, fp.cost_map.m))


def test_parameter_error_l1():
    assert parameter_error(np.array([1.0, 2.0]), np.array([0.0, 0.5])) == 2.5
    assert parameter_error(Parameter([1.0]), np.array([1.0])) == 0.0
    with pytest.raises(ValueError):
        parameter_error(np.zeros(2), np.zeros(3))


def test_decision_error_zero_at_truth():
    rng = rng_stream(100)
    for kind in "ABCDE":
        fp, theta_star, law = build_example(ExampleSpec(kind, p=5))
        ctxs = law.sample(rng, 40)
        assert decision_error(fp, theta_star, theta_star, ctxs) == 0.0


def test_decision_error_manual_two_contexts():
    fp, theta_star, _ = build_example(ExampleSpec("C", p=4))
    theta_hat = np.full(4, -2.0)  # flips every coordinate of the argmin
    ctxs = np.zeros((2, 4))
    want = np.mean(
        [
            float(np.sum((solve_exact(fp, theta_hat, u) - solve_exact(fp, theta_star.values, u)) ** 2))
            for u in ctxs
        ]
    )
    assert decision_error(fp, theta_hat, theta_star, ctxs) == pytest.approx(want)
    assert want == 16.0  # all 4 coords flip between the two box corners


def test_regret_nonnegative_and_zero_at_truth():
    rng = rng_stream(101)
    for kind in "ABCDE":
        fp, theta_star, law = build_example(ExampleSpec(kind, p=5))
        ctxs = law.sample(rng, 40)
        assert regret(fp, theta_star, theta_star, ctxs) == 0.0
        for _ in range(5):
            theta_hat = theta_star.values + rng.standard_normal(5)
            assert regret(fp, theta_hat, theta_star, ctxs) >= -1e-10, kind


def test_regret_manual_box_case():
    # d=1 box [0,1], true cost theta*+u = 1 at u=0, minimization: optimum 0.
    # an estimate with flipped sign picks x=1 and pays exactly 1.
    fp = ForwardProblem(CostMap(CostKind.ADDITIVE, 1, 1), Box.cube(1, 0, 1), Sense.MIN)
    got = regret(fp, np.array([-2.0]), np.array([1.0]), np.zeros((1, 1)))
    assert got == pytest.approx(1.0)


def test_regret_counts_base_quad_curvature():
    # max h x - x^2 on [0,1], h = theta + u: truth h=1 picks 0.5 (value .25);
    # estimate h=3 clamps to x=1 (true value 1-1=0), so regret is 0.25
    fp = ForwardProblem(
        CostMap(CostKind.ADDITIVE, 1, 1), Box.cube(1, 0, 1), Sense.MAX, base_quad=2.0
    )
    got = regret(fp, np.array([3.0]), np.array([1.0]), np.zeros((1, 1)))
    assert got == pytest.approx(0.25)


def _relative_regret(sp, theta):
    """Percent regret of theta's exact paths against the clairvoyant ones."""
    fp = _flow_problem(sp)
    xs_hat = np.stack([solve_exact(fp, theta, u) for u in sp.contexts])
    return _path_regret(sp.times, xs_hat, shortest_path_batch(sp.graph, sp.times))[1]


def test_relative_regret_ratio_zero_for_perfect_predictor():
    sp = synth_graph_instance(num_nodes=20, num_edges=35, m=4, n=40, sigma=0.0, seed=5)
    got = _relative_regret(sp, sp.theta_star)
    assert got == pytest.approx(0.0, abs=1e-9)


def test_relative_regret_ratio_positive_for_bad_predictor():
    sp = synth_graph_instance(num_nodes=20, num_edges=35, m=4, n=40, sigma=0.1, seed=6)
    rng = rng_stream(7)
    theta = sp.theta_star.values.reshape(35, 4)
    bad = theta + 3.0 * rng.standard_normal(theta.shape)
    good = _relative_regret(sp, sp.theta_star)
    worse = _relative_regret(sp, bad)
    assert worse >= good >= 0.0


def test_calibration_holds_at_truth():
    rng = rng_stream(102)
    fp, theta_star, law = build_example(ExampleSpec("C", p=5))
    ctxs = law.sample(rng, 50)
    rep = calibration_check(fp, theta_star, theta_star, 0.1, ctxs)
    assert rep.holds
    assert rep.lhs == 0.0
    assert rep.excess_risk_term == pytest.approx(0.0, abs=1e-12)
    assert rep.rhs >= 0.0


def test_calibration_holds_for_perturbations():
    rng = rng_stream(103)
    fp, theta_star, law = build_example(ExampleSpec("C", p=5))
    ctxs = law.sample(rng, 50)
    for _ in range(20):
        theta = theta_star.values + 0.3 * rng.standard_normal(5)
        rep = calibration_check(fp, theta, theta_star, 0.1, ctxs)
        assert rep.holds
        assert rep.rhs >= rep.lhs - 1e-8


def test_calibration_rejects_bad_lam():
    # lam = 0 divided by zero in the regularized solve of this base_quad = 0
    # family before the loss checked it
    fp, theta_star, law = build_example(ExampleSpec("C", p=4))
    ctxs = law.sample(rng_stream(105), 10)
    for lam in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="lam"):
            calibration_check(fp, theta_star, theta_star, lam, ctxs)


def test_calibration_candidates_only_tighten():
    rng = rng_stream(104)
    fp, theta_star, law = build_example(ExampleSpec("C", p=5))
    ctxs = law.sample(rng, 30)
    theta = theta_star.values + 0.5
    plain = calibration_check(fp, theta, theta_star, 0.1, ctxs)
    cands = [theta_star.values + 0.1 * rng.standard_normal(5) for _ in range(5)]
    rich = calibration_check(fp, theta, theta_star, 0.1, ctxs, candidates=cands)
    assert rich.rhs <= plain.rhs + 1e-12
    assert rich.lhs == plain.lhs


def test_metrics_reject_bad_contexts():
    fp, theta_star, law = build_example("C")
    theta = theta_star.values + 0.3
    ctxs = law.sample(rng_stream(104), 5)
    bad = []
    for v in (np.nan, np.inf, -np.inf):
        c = ctxs.copy()
        c[2, 4] = v
        bad.append(c)
    bad.append(ctxs[:, :1])  # width 1 would broadcast against the additive cost
    for c in bad:
        with pytest.raises(ValueError):
            decision_error(fp, theta, theta_star, c)
        with pytest.raises(ValueError):
            regret(fp, theta, theta_star, c)
        with pytest.raises(ValueError):
            calibration_check(fp, theta, theta_star, 0.5, c)
