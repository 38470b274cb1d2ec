"""Decision metrics, the calibration inequality, and the regret bound."""

import numpy as np
import pytest

from fyinv import (
    Box,
    CostKind,
    CostMap,
    ExampleSpec,
    FlowPolytope,
    ForwardProblem,
    Parameter,
    Sense,
    build_example,
    calibration_check,
    decision_error,
    grid_graph,
    parameter_error,
    regret,
    regret_bound_check,
    relative_regret_ratio,
    rng_stream,
    solve_exact,
)
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


def test_relative_regret_ratio_flow_only():
    fp, _, _ = build_example(ExampleSpec("C", p=4))
    with pytest.raises(ValueError):
        relative_regret_ratio(fp, np.zeros(4), np.zeros((2, 4)), np.ones((2, 4)))


def test_relative_regret_ratio_zero_for_perfect_predictor():
    sp = synth_graph_instance(num_nodes=20, num_edges=35, m=4, n=40, sigma=0.0, seed=5)
    fp = _flow_problem(sp)
    got = relative_regret_ratio(fp, sp.theta_star, sp.contexts, sp.times)
    assert got == pytest.approx(0.0, abs=1e-9)


def test_relative_regret_ratio_positive_for_bad_predictor():
    sp = synth_graph_instance(num_nodes=20, num_edges=35, m=4, n=40, sigma=0.1, seed=6)
    fp = _flow_problem(sp)
    rng = rng_stream(7)
    theta = sp.theta_star.values.reshape(35, 4)
    bad = theta + 3.0 * rng.standard_normal(theta.shape)
    good = relative_regret_ratio(fp, sp.theta_star, sp.contexts, sp.times)
    worse = relative_regret_ratio(fp, bad, sp.contexts, sp.times)
    assert worse >= good >= 0.0


def test_relative_regret_ratio_validates_record_count():
    sp = synth_graph_instance(num_nodes=12, num_edges=20, m=3, n=10, sigma=0.0, seed=8)
    fp = _flow_problem(sp)
    with pytest.raises(ValueError):
        relative_regret_ratio(fp, sp.theta_star, sp.contexts, sp.times[:-1])


def test_relative_regret_ratio_rejects_bad_times():
    sp = synth_graph_instance(num_nodes=6, num_edges=7, m=3, n=20, sigma=0.0, seed=8)
    fp = _flow_problem(sp)
    with pytest.raises(ValueError, match="times must have shape"):
        relative_regret_ratio(fp, sp.theta_star, sp.contexts, sp.times[:, :-1])
    for bad in (np.nan, np.inf):
        times = sp.times.copy()
        times[4, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            relative_regret_ratio(fp, sp.theta_star, sp.contexts, times)


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


def test_regret_bound_holds_on_random_estimates():
    rng = rng_stream(105)
    for kind in "CE":
        fp, theta_star, law = build_example(ExampleSpec(kind, p=5))
        ctxs = law.sample(rng, 60)
        for scale in (0.1, 0.5, 1.0, 2.0):
            theta_hat = theta_star.values + scale * rng.standard_normal(5)
            rep = regret_bound_check(fp, theta_hat, theta_star, ctxs)
            assert rep.holds, kind
            assert rep.regret <= rep.bound + 1e-8
            assert rep.cost_second_moment > 0.0


def test_regret_bound_report_fields():
    fp, theta_star, law = build_example(ExampleSpec("C", p=4))
    ctxs = law.sample(rng_stream(106), 20)
    rep = regret_bound_check(fp, theta_star, theta_star, ctxs)
    assert rep.decision_error == 0.0
    assert rep.regret == 0.0
    assert rep.bound == 0.0
    assert rep.holds


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
        with pytest.raises(ValueError):
            regret_bound_check(fp, theta, theta_star, c)
