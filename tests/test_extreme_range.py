"""Extreme-range battery: the public solves, losses and metrics at the
ground truth of each benchmark family and of a small path-polytope problem
scaled by +-10^k, the family generators at noise levels from 1e-300 to
1e300, and the suboptimality fit on decisions noised at 1e300.

Tier-1 turns every RuntimeWarning into an error, so an overflow or
underflow that numpy would only warn about fails here too.  Each call must
return finite output, each decision must lie in its region, and the exact
solve must do at least as well as a feasible decision.  At lam =
0.1 even the largest target hc / (base_quad + lam) stays finite, so no
call may raise the typed "lam too small" ValueError either.
"""

import itertools

import numpy as np
import pytest

from fyinv import (
    DivergedError,
    EXAMPLE_KINDS,
    NoisyDecision,
    NoisyObjective,
    SgdConfig,
    build_example,
    decision_error,
    fy_grad,
    fy_loss,
    generate,
    region_contains,
    regret,
    rng_stream,
    solve_exact,
    solve_regularized,
    subopt_fit,
    subopt_loss,
)
from fyinv.spath import _flow_problem, synth_graph_instance

EXPONENTS = (-300, -154, -17, 0, 17, 154, 300)
LAM = 0.1


def _finite_decision(fp, x):
    assert np.isfinite(x).all()
    assert region_contains(fp.region, x)


def _problem(kind):
    """(problem, ground truth, 3 contexts) of a family, or of the flow problem "SP"."""
    if kind == "SP":
        sp = synth_graph_instance(12, 20, 3, None, 3, 0.1, 5)
        return _flow_problem(sp), sp.theta_star, sp.contexts
    fp, theta_star, law = build_example(kind)
    return fp, theta_star, law.sample(rng_stream(5), 3)


@pytest.mark.parametrize("kind", (*EXAMPLE_KINDS, "SP"))
def test_entry_points_stay_finite_from_tiny_to_huge_theta(kind):
    fp, theta_star, ctxs = _problem(kind)
    ys = [solve_exact(fp, theta_star, u) for u in ctxs]
    for k, sign in itertools.product(EXPONENTS, (1.0, -1.0)):
        theta = theta_star.values * (sign * 10.0**k)
        for u, y in zip(ctxs, ys):
            _finite_decision(fp, solve_exact(fp, theta, u))
            _finite_decision(fp, solve_regularized(fp, theta, u, LAM))
            assert np.isfinite(fy_loss(fp, theta, u, y, LAM))
            assert np.isfinite(fy_grad(fp, theta, u, y, LAM)).all()
            # y is feasible, so the exact solve's value is at least its value
            gap = subopt_loss(fp, theta, u, y)
            assert -1e-9 * np.abs(fp.canonical_cost(theta, u)).sum() <= gap < np.inf
        assert np.isfinite(regret(fp, theta, theta_star, ctxs))
        assert np.isfinite(decision_error(fp, theta, theta_star, ctxs))


@pytest.mark.parametrize("kind", EXAMPLE_KINDS)
def test_generate_stays_finite_from_tiny_to_huge_sigma(kind):
    fp = build_example(kind)[0]
    for k in EXPONENTS:
        for noise in (NoisyDecision(10.0**k), NoisyObjective(10.0**k)):
            ds = generate(kind, 20, noise, seed=k + 300)
            assert np.isfinite(ds.decisions).all()
            if isinstance(noise, NoisyObjective):  # re-solved, so feasible
                for y in ds.decisions:
                    assert region_contains(fp.region, y)


@pytest.mark.parametrize("kind", ("A", "B", "C", "E"))
def test_subopt_fit_on_huge_noise_diverges_without_a_warning(kind):
    # the first step's gradient norm overflows: the fit must end in
    # DivergedError, not numpy's overflow warning (an error under tier-1)
    fp = build_example(kind)[0]
    ds = generate(kind, 50, NoisyDecision(1e300), 0)
    with pytest.raises(DivergedError):
        subopt_fit(fp, ds, SgdConfig(max_iters=50))
    # under unit_norm the overflowing iterate keeps its direction
    theta = subopt_fit(fp, ds, SgdConfig(max_iters=50, unit_norm=True)).theta.values
    assert np.isfinite(theta).all() and abs(np.linalg.norm(theta) - 1.0) <= 1e-12
