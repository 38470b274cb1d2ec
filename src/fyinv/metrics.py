"""Evaluation metrics and theorem-shaped diagnostic checks.

Decision error and regret are averages over a fixed bank of evaluation
contexts, always computed through the deterministic exact solver so that
tie-breaks cancel between the estimate and the truth.  Regret is the gap in
the full canonical objective (linear term plus any base_quad curvature), so
it is nonnegative by optimality of the truth and reduces to the usual
linear-cost regret when base_quad is zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import shortest_path_batch
from .losses import _fy_batch
from .model import (
    FlowPolytope,
    ForwardProblem,
    Parameter,
    _check_contexts,
    as_parameter,
)
from .solvers import _solve_exact_batch, _solve_reg_batch

# Roundoff allowance of the two inequality checks below.
_SLACK = 1e-8


def parameter_error(theta_hat, theta_star) -> float:
    """l1 distance between flattened parameter vectors."""
    a = theta_hat.values if isinstance(theta_hat, Parameter) else np.ravel(theta_hat)
    b = theta_star.values if isinstance(theta_star, Parameter) else np.ravel(theta_star)
    if a.size != b.size:
        raise ValueError("parameter dimensions disagree")
    return float(np.abs(a - b).sum())


def _exact_batch(fp: ForwardProblem, theta, ctxs: np.ndarray) -> np.ndarray:
    return _solve_exact_batch(fp, fp._canonical_costs(theta, ctxs))


def decision_error(fp: ForwardProblem, theta_hat, theta_star, ctxs) -> float:
    """Mean squared distance between estimated and true exact decisions."""
    ctxs = _check_contexts(fp.cost_map, ctxs)
    xs_hat = _exact_batch(fp, theta_hat, ctxs)
    xs_star = _exact_batch(fp, theta_star, ctxs)
    return float(np.mean(np.sum((xs_hat - xs_star) ** 2, axis=1)))


def regret(fp: ForwardProblem, theta_hat, theta_star, ctxs) -> float:
    """Mean true-objective gap of the estimated decisions.

    Positive when the decisions induced by theta_hat cost more (under the
    true parameter) than the optimal ones; zero iff they are equally good.
    """
    ctxs = _check_contexts(fp.cost_map, ctxs)
    hcs = fp._canonical_costs(theta_star, ctxs)
    xs_hat = _exact_batch(fp, theta_hat, ctxs)
    xs_star = _solve_exact_batch(fp, hcs)
    return float(np.mean(fp._canonical_value(hcs, xs_star) - fp._canonical_value(hcs, xs_hat)))


def _path_regret(times: np.ndarray, xs_hat: np.ndarray, xs_clair: np.ndarray):
    """Mean realized-cost excess of xs_hat over xs_clair, and that as a percent.

    Row i of ``times`` prices row i of both decision stacks; the percent is
    taken of the clairvoyant mean, which must be positive.
    """
    realized = np.einsum("ij,ij->i", times, xs_hat)
    clair = np.einsum("ij,ij->i", times, xs_clair)
    reg = float(np.mean(realized - clair))
    clair_mean = float(np.mean(clair))
    if clair_mean <= 0:
        raise ValueError("clairvoyant cost must be positive")
    return reg, 100.0 * reg / clair_mean


def relative_regret_ratio(fp: ForwardProblem, theta_hat, ctxs, times) -> float:
    """Percent excess realized cost of predicted paths over clairvoyant ones.

    ``times`` holds the realized edge costs of each evaluation record; the
    clairvoyant benchmark re-solves the shortest path under those costs.
    """
    if not isinstance(fp.region, FlowPolytope):
        raise ValueError("relative regret is defined for flow regions")
    ctxs = _check_contexts(fp.cost_map, ctxs)
    g = fp.region.graph
    times = np.atleast_2d(np.asarray(times, dtype=float))
    if times.shape != (ctxs.shape[0], g.num_edges):
        raise ValueError(f"times must have shape ({ctxs.shape[0]}, {g.num_edges})")
    if not np.isfinite(times).all():
        raise ValueError("times must be finite")
    xs_hat = _exact_batch(fp, theta_hat, ctxs)
    _, ratio = _path_regret(times, xs_hat, shortest_path_batch(g, times))
    return ratio


@dataclass(frozen=True)
class MetricsReport:
    parameter_error: float
    decision_error: float
    regret: float
    relative_regret_ratio: float | None
    n_test: int
    wall_time: float


# ---------------------------------------------------------------------------
# calibration bound check


@dataclass(frozen=True)
class CalibrationReport:
    lhs: float
    reg_error_term: float
    excess_risk_term: float
    rhs: float
    holds: bool


def calibration_check(
    fp: ForwardProblem,
    theta,
    theta_star,
    lam: float,
    ctxs,
    candidates=(),
) -> CalibrationReport:
    """Check the calibration inequality relating decision error to excess risk.

    On a noiseless conditional-mean surrogate (observations replaced by the
    true exact decisions) the decision error of theta is bounded by twice
    the regularization error plus 4/lam times its excess risk.  The infimum
    in the excess-risk term is approximated from below by the best candidate
    (theta_star is always included), which only shrinks the right-hand side,
    so the check is conservative and reported as a soft holds flag.
    """
    ctxs = _check_contexts(fp.cost_map, ctxs)
    theta = as_parameter(theta, fp.cost_map)
    theta_star = as_parameter(theta_star, fp.cost_map)

    lhs = decision_error(fp, theta, theta_star, ctxs)

    hcs = fp._canonical_costs(theta, ctxs)
    x_reg = _solve_reg_batch(fp, hcs, lam)
    x_exact = _solve_exact_batch(fp, hcs)
    reg_term = float(np.mean(np.sum((x_reg - x_exact) ** 2, axis=1)))

    surrogate = _exact_batch(fp, theta_star, ctxs)

    def risk(t):
        loss, _, _ = _fy_batch(fp, t, ctxs, surrogate, lam, want_grad=False)
        return loss

    pool = [theta_star] + [as_parameter(c, fp.cost_map) for c in candidates]
    best = min(risk(t) for t in pool)
    excess = risk(theta) - best
    rhs = 2.0 * reg_term + (4.0 / lam) * max(excess, 0.0)
    return CalibrationReport(
        lhs=lhs,
        reg_error_term=reg_term,
        excess_risk_term=excess,
        rhs=rhs,
        holds=bool(lhs <= rhs + _SLACK),
    )


# ---------------------------------------------------------------------------
# regret bound check


@dataclass(frozen=True)
class RegretBoundReport:
    regret: float
    cost_second_moment: float
    decision_error: float
    bound: float
    holds: bool


def regret_bound_check(fp: ForwardProblem, theta_hat, theta_star, ctxs) -> RegretBoundReport:
    """Cauchy-Schwarz regret bound: regret <= sqrt(mean ||h||^2 * decision error).

    Both moments are empirical means over the same contexts, which is what
    makes the inequality an identity-level consequence of Cauchy-Schwarz
    for linear objectives.
    """
    ctxs = _check_contexts(fp.cost_map, ctxs)
    hcs = fp._canonical_costs(theta_star, ctxs)
    b_hat = float(np.mean(np.sum(hcs**2, axis=1)))
    d_hat = decision_error(fp, theta_hat, theta_star, ctxs)
    reg = regret(fp, theta_hat, theta_star, ctxs)
    bound = float(np.sqrt(b_hat * d_hat))
    return RegretBoundReport(
        regret=reg,
        cost_second_moment=b_hat,
        decision_error=d_hat,
        bound=bound,
        holds=bool(reg <= bound + _SLACK),
    )
