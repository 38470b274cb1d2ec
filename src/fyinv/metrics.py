"""Evaluation metrics and the calibration check.

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

from .losses import _fy_batch
from .model import (
    ForwardProblem,
    Parameter,
    _check_contexts,
    as_parameter,
)
from .solvers import _solve_exact_batch, _solve_reg_batch

# Roundoff allowance of the calibration inequality.
_SLACK = 1e-8


def parameter_error(theta_hat, theta_star) -> float:
    """l1 distance between flattened parameter vectors; each must be finite."""
    a, b = (t if isinstance(t, Parameter) else Parameter(t) for t in (theta_hat, theta_star))
    if a.p != b.p:
        raise ValueError("parameter dimensions disagree")
    return float(np.abs(a.values - b.values).sum())


def _values(fp: ForwardProblem, theta) -> np.ndarray:
    """theta checked against fp's cost map, as flat values."""
    return as_parameter(theta, fp.cost_map).values


def _exact_batch(fp: ForwardProblem, t: np.ndarray, ctxs: np.ndarray) -> np.ndarray:
    return _solve_exact_batch(fp, fp._canonical_costs(t, ctxs))


def _mean_sq_dist(xs: np.ndarray, ys: np.ndarray) -> float:
    """Mean over rows of ||x_i - y_i||^2."""
    return float(np.mean(np.sum((xs - ys) ** 2, axis=1)))


def decision_error(fp: ForwardProblem, theta_hat, theta_star, ctxs) -> float:
    """Mean squared distance between estimated and true exact decisions."""
    ctxs = _check_contexts(fp.cost_map, ctxs)
    xs_hat = _exact_batch(fp, _values(fp, theta_hat), ctxs)
    return _mean_sq_dist(xs_hat, _exact_batch(fp, _values(fp, theta_star), ctxs))


def regret(fp: ForwardProblem, theta_hat, theta_star, ctxs) -> float:
    """Mean true-objective gap of the estimated decisions.

    Positive when the decisions induced by theta_hat cost more (under the
    true parameter) than the optimal ones; zero iff they are equally good.
    """
    ctxs = _check_contexts(fp.cost_map, ctxs)
    hcs = fp._canonical_costs(_values(fp, theta_star), ctxs)
    xs_hat = _exact_batch(fp, _values(fp, theta_hat), ctxs)
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
    if not 0 < lam < np.inf:
        raise ValueError("lam must be positive and finite")
    ctxs = _check_contexts(fp.cost_map, ctxs)
    theta = _values(fp, theta)
    theta_star = _values(fp, theta_star)

    hcs = fp._canonical_costs(theta, ctxs)
    x_exact = _solve_exact_batch(fp, hcs)
    surrogate = _exact_batch(fp, theta_star, ctxs)
    lhs = _mean_sq_dist(x_exact, surrogate)
    reg_term = _mean_sq_dist(_solve_reg_batch(fp, hcs, lam), x_exact)

    def risk(t):
        return _fy_batch(fp, t, ctxs, surrogate, lam)[0]

    pool = [theta_star] + [_values(fp, c) for c in candidates]
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
