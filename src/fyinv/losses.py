"""Training losses for inverse optimization.

The Fenchel-Young loss of a parameter theta at an observation (u, y) is

    L(theta) = max_{x in region} V(theta, x) - V(theta, y),
    V(theta, x) = hc(theta; u)^T x - ((base_quad + lam) / 2) ||x||^2,

which is convex in theta, nonnegative whenever y is feasible, zero exactly
when y is the regularized optimum, and differentiable with gradient
J_c(u)^T (x_lam(theta; u) - y) by Danskin's rule.

The suboptimality loss drops the quadratic part and compares y against the
best linear objective value; it is the classic duality-gap objective and is
degenerate at theta = 0 for purely multiplicative cost maps.  The KKT
objective measures squared stationarity and complementary-slackness
residuals with per-point dual variables.
"""

from __future__ import annotations

import numpy as np

from .errors import UnsupportedRegionError
from .model import (
    Box,
    CostKind,
    Dataset,
    ForwardProblem,
    NonNegL1Cap,
    _check_context,
    _cost_batch,
    _jac_t_mean,
    as_parameter,
)
from .solvers import FwConfig, _linear_argmax_batch, _solve_reg_batch, solve_exact


def _check_pair(fp: ForwardProblem, u, y):
    u = _check_context(fp.cost_map, u)
    y = np.asarray(y, dtype=float)
    if y.shape != (fp.cost_map.d,):
        raise ValueError(f"decision must have shape ({fp.cost_map.d},)")
    if not np.isfinite(y).all():
        raise ValueError("decision must be finite")
    return u, y


# ---------------------------------------------------------------------------
# Fenchel-Young loss


def fy_loss(fp: ForwardProblem, theta, u, y, lam: float, *, fw: FwConfig | None = None) -> float:
    """Fenchel-Young loss at one observation; lam must be positive."""
    u, y = _check_pair(fp, u, y)
    loss, _, _ = _fy_batch(fp, theta, u[None, :], y[None, :], lam, fw=fw, want_grad=False)
    return float(loss)


def fy_grad(fp: ForwardProblem, theta, u, y, lam: float, *, fw: FwConfig | None = None) -> np.ndarray:
    """Gradient of fy_loss in theta: J_c(u)^T (x_lam(theta; u) - y)."""
    u, y = _check_pair(fp, u, y)
    _, grad, _ = _fy_batch(fp, theta, u[None, :], y[None, :], lam, fw=fw)
    return grad


def _fy_batch(
    fp: ForwardProblem,
    theta,
    ctxs: np.ndarray,
    ys: np.ndarray,
    lam: float,
    *,
    fw: FwConfig | None = None,
    want_grad: bool = True,
):
    """Mean FY loss, mean gradient, and the regularized decisions of a batch."""
    if not lam > 0:
        raise ValueError("lam must be positive")
    theta = as_parameter(theta, fp.cost_map)
    hcs = fp.canonical_sign * _cost_batch(fp.cost_map, theta, ctxs)
    xs = _solve_reg_batch(fp, hcs, lam, fw)
    lam_eff = fp.base_quad + lam
    val = lambda z: np.einsum("ij,ij->i", hcs, z) - 0.5 * lam_eff * np.einsum("ij,ij->i", z, z)
    losses = val(xs) - val(ys)
    grad = None
    if want_grad:
        grad = fp.canonical_sign * _jac_t_mean(fp.cost_map, ctxs, xs - ys)
    return float(losses.mean()), grad, xs


# ---------------------------------------------------------------------------
# suboptimality (duality gap) loss


def subopt_loss(fp: ForwardProblem, theta, u, y) -> float:
    """Gap between the best and the observed linear objective value.

    Nonnegative for feasible y; can go negative when noisy observations
    leave the region.  Ignores base_quad: this is the linear-objective
    baseline, not a regularized quantity.
    """
    u, y = _check_pair(fp, u, y)
    loss, _, _ = _subopt_batch(fp, theta, u[None, :], y[None, :], hinge=False)
    return loss


def subopt_subgrad(fp: ForwardProblem, theta, u, y) -> np.ndarray:
    """A subgradient of subopt_loss via the tie-broken exact maximizer."""
    u, y = _check_pair(fp, u, y)
    _, grad, _ = _subopt_batch(fp, theta, u[None, :], y[None, :], hinge=False)
    return grad


def _subopt_batch(fp: ForwardProblem, theta, ctxs: np.ndarray, ys: np.ndarray, *, hinge: bool):
    """Mean (optionally hinged) suboptimality loss and one subgradient of it.

    The hinge clamps per-point losses at zero, which restores boundedness
    when observations are infeasible; points with positive or zero loss
    contribute their plain subgradient (a valid selection at the kink).
    """
    theta = as_parameter(theta, fp.cost_map)
    hcs = fp.canonical_sign * _cost_batch(fp.cost_map, theta, ctxs)
    xs = _linear_argmax_batch(fp.region, hcs)
    raw = np.einsum("ij,ij->i", hcs, xs - ys)
    if hinge:
        active = raw >= 0.0
        losses = np.where(active, raw, 0.0)
        resid = (xs - ys) * active[:, None]
    else:
        losses = raw
        resid = xs - ys
    grad = fp.canonical_sign * _jac_t_mean(fp.cost_map, ctxs, resid)
    return float(losses.mean()), grad, xs


# ---------------------------------------------------------------------------
# KKT-residual (estimate-then-check) objective


def kka_dual_dim(fp: ForwardProblem) -> int:
    """Number of dual variables per observation for the KKT objective."""
    r = fp.region
    if isinstance(r, Box):
        return 2 * fp.cost_map.d
    if isinstance(r, NonNegL1Cap):
        return fp.cost_map.d + 1
    raise UnsupportedRegionError(
        f"KKT objective supports Box and NonNegL1Cap regions, not {type(r).__name__}"
    )


def _kka_batch(fp: ForwardProblem, theta, duals: np.ndarray, ds: Dataset):
    """KKT objective and its (theta, duals) gradient from one residual pass.

    The objective sums the squared stationarity residuals, then each
    complementary-slackness block in turn.  ``duals`` must already have
    shape (len(ds), kka_dual_dim(fp)).
    """
    theta = as_parameter(theta, fp.cost_map)
    hcs = fp.canonical_sign * _cost_batch(fp.cost_map, theta, ds.contexts)
    ys = ds.decisions
    r = fp.region
    if isinstance(r, Box):
        d = fp.cost_map.d
        lam_hi, lam_lo = duals[:, :d], duals[:, d:]
        stat = lam_hi - lam_lo - hcs
        comp_a = lam_hi * (ys - r.hi)
        comp_b = lam_lo * (r.lo - ys)
        g_a = 2.0 * stat + 2.0 * comp_a * (ys - r.hi)
        g_b = -2.0 * stat + 2.0 * comp_b * (r.lo - ys)
    else:
        mu, nu = duals[:, :1], duals[:, 1:]
        stat = mu - nu - hcs
        slack = ys.sum(axis=1) - r.cap
        comp_a = mu[:, 0] * slack
        comp_b = nu * (-ys)
        g_a = (2.0 * stat.sum(axis=1) + 2.0 * comp_a * slack)[:, None]
        g_b = -2.0 * stat + 2.0 * comp_b * (-ys)
    # Diverging duals overflow here; the caller's DivergedError reports it.
    with np.errstate(over="ignore"):
        total = sum(float(np.sum(c**2)) for c in (stat, comp_a, comp_b))
    # d stat / d theta = -sign * J, so chain through the batched adjoint.
    g_theta = -2.0 * len(ds) * fp.canonical_sign * _jac_t_mean(fp.cost_map, ds.contexts, stat)
    return total, g_theta, np.concatenate([g_a, g_b], axis=1)


def _check_duals(fp: ForwardProblem, duals, n: int) -> np.ndarray:
    duals = np.asarray(duals, dtype=float)
    q = kka_dual_dim(fp)
    if duals.shape != (n, q):
        raise ValueError(f"duals must have shape ({n}, {q})")
    return duals


def kka_objective(fp: ForwardProblem, theta, duals, ds: Dataset) -> float:
    """Sum of squared KKT residuals of all observations.

    Zero exactly when every (y_i, duals_i) satisfies the KKT system of the
    linear forward problem at theta.  Noisy observations keep it bounded
    away from zero for any theta.
    """
    total, _, _ = _kka_batch(fp, theta, _check_duals(fp, duals, len(ds)), ds)
    return total


def kka_grad(fp: ForwardProblem, theta, duals, ds: Dataset):
    """Gradient of kka_objective in (theta, duals)."""
    _, g_theta, g_duals = _kka_batch(fp, theta, _check_duals(fp, duals, len(ds)), ds)
    return g_theta, g_duals


# ---------------------------------------------------------------------------
# distance-to-decision oracle


def dist_loss_oracle(fp: ForwardProblem, theta, u, y) -> float:
    """Squared distance between y and the tie-broken exact decision at theta.

    Evaluation-only oracle: it is discontinuous in theta, so nothing trains
    on it, but grid enumeration over low-dimensional parameters gives an
    independent consistency target for the fitters.
    """
    u, y = _check_pair(fp, u, y)
    x = solve_exact(fp, theta, u)
    return float(np.sum((y - x) ** 2))
