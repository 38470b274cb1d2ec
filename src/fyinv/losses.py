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
residuals with per-point dual variables; for fixed theta the minimizing
duals have a closed form, which leaves a convex objective in theta alone;
``kka_objective`` is its mean over the observations.

Theta is checked once, by the public function that receives it: non-finite
values or a wrong size raise ValueError there.  The ``_``-prefixed batch
functions take that checked flat (p,) array and do arithmetic only, so a
fitter's steps repeat no check.
"""

from __future__ import annotations

import numpy as np

from .errors import UnsupportedRegionError
from .model import (
    Box,
    Dataset,
    ForwardProblem,
    NonNegL1Cap,
    _check_context,
    _check_point,
    _check_widths,
    as_parameter,
)
from .solvers import FwConfig, _linear_argmax_batch, _solve_reg_batch


def _check_one(fp: ForwardProblem, theta, u, y):
    """Checked flat theta, context row and decision row of one observation."""
    u = _check_context(fp.cost_map, u)
    y = _check_point(fp.region, y)
    if not np.isfinite(y).all():
        raise ValueError("decision must be finite")
    return as_parameter(theta, fp.cost_map).values, u[None, :], y[None, :]


# ---------------------------------------------------------------------------
# Fenchel-Young loss


def fy_loss(fp: ForwardProblem, theta, u, y, lam: float, *, fw: FwConfig = FwConfig()) -> float:
    """Fenchel-Young loss at one observation; lam must be positive and finite."""
    return _fy_batch(fp, *_check_one(fp, theta, u, y), lam, fw=fw)[0]


def fy_grad(fp: ForwardProblem, theta, u, y, lam: float, *, fw: FwConfig = FwConfig()) -> np.ndarray:
    """Gradient of fy_loss in theta: J_c(u)^T (x_lam(theta; u) - y)."""
    return _fy_batch(fp, *_check_one(fp, theta, u, y), lam, fw=fw)[1]


def _fy_batch(
    fp: ForwardProblem,
    theta,
    ctxs: np.ndarray,
    ys: np.ndarray,
    lam: float,
    *,
    fw: FwConfig = FwConfig(),
):
    """Mean FY loss and mean gradient of a batch.

    ``theta`` is checked flat values (see the module docstring).
    """
    if not 0 < lam < np.inf:
        raise ValueError("lam must be positive and finite")
    hcs = fp._canonical_costs(theta, ctxs)
    xs = _solve_reg_batch(fp, hcs, lam, fw)
    losses = fp._canonical_value(hcs, xs, lam) - fp._canonical_value(hcs, ys, lam)
    # the bits of losses.mean(), without its Python wrapper
    return float(np.add.reduce(losses) / losses.shape[0]), fp._canonical_adjoint(ctxs, xs - ys)


# ---------------------------------------------------------------------------
# suboptimality (duality gap) loss


def subopt_loss(fp: ForwardProblem, theta, u, y) -> float:
    """Gap between the best and the observed linear objective value.

    Nonnegative for feasible y; can go negative when noisy observations
    leave the region.  Ignores base_quad: this is the linear-objective
    baseline, not a regularized quantity.
    """
    return _subopt_batch(fp, *_check_one(fp, theta, u, y), hinge=False)[0]


def subopt_subgrad(fp: ForwardProblem, theta, u, y) -> np.ndarray:
    """A subgradient of subopt_loss via the tie-broken exact maximizer."""
    return _subopt_batch(fp, *_check_one(fp, theta, u, y), hinge=False)[1]


def _subopt_batch(fp: ForwardProblem, theta, ctxs: np.ndarray, ys: np.ndarray, *, hinge: bool):
    """Mean (optionally hinged) suboptimality loss and one subgradient of it.

    The hinge clamps per-point losses at zero, which restores boundedness
    when observations are infeasible; points with positive or zero loss
    contribute their plain subgradient (a valid selection at the kink).
    ``theta`` is checked flat values (see the module docstring).
    """
    hcs = fp._canonical_costs(theta, ctxs)
    xs = _linear_argmax_batch(fp.region, hcs)
    resid = xs - ys
    raw = np.einsum("ij,ij->i", hcs, resid)
    if hinge:
        active = raw >= 0.0
        losses = np.where(active, raw, 0.0)
        resid *= active[:, None]
    else:
        losses = raw
    # the bits of losses.mean(), without its Python wrapper
    return float(np.add.reduce(losses) / losses.shape[0]), fp._canonical_adjoint(ctxs, resid)


# ---------------------------------------------------------------------------
# KKT-residual (estimate-then-check) objective


def _box_kkt(r: Box, hcs: np.ndarray, ys: np.ndarray):
    """Minimizing duals of the box KKT objective and its residual blocks.

    Per coordinate at most one of lam_hi, lam_lo is positive, with
    lam_hi = h / (1 + (y - hi)^2) if h > 0 and lam_lo = -h / (1 + (lo - y)^2)
    if h < 0.  The blocks are stationarity first, then complementary
    slackness of the upper and of the lower bounds.
    """
    lam_hi = np.maximum(hcs, 0.0) / (1.0 + (ys - r.hi) ** 2)
    lam_lo = np.maximum(-hcs, 0.0) / (1.0 + (r.lo - ys) ** 2)
    blocks = (lam_hi - lam_lo - hcs, lam_hi * (ys - r.hi), lam_lo * (r.lo - ys))
    return np.concatenate([lam_hi, lam_lo], axis=1), blocks


def _cap_kkt(r: NonNegL1Cap, hcs: np.ndarray, ys: np.ndarray):
    """Minimizing duals (mu, nu) of the capped-simplex KKT objective and its
    residual blocks, stationarity first.

    For fixed mu each nu_j = v_j max(0, mu - h_j) with v_j = 1 / (1 + y_j^2),
    which leaves the reduced objective in mu >= 0

        g(mu) = sum_j (1 - v_j [mu > h_j]) (mu - h_j)^2 + s^2 mu^2,

    with s = sum(y) - cap.  g is C^1 with breakpoints at the h_j, and
    strictly convex: its curvature can only vanish with every y_j = 0 and
    s = 0, which cap > 0 rules out.  Past the k smallest h_j,
    g'/2 = a_k mu - b_k with a_k = d + s^2 - (sum of their v) and
    b_k = sum(h) - (sum of their v h), so one sort and two cumulative sums
    give every segment.  mu is the root on the segment where g' changes
    sign, clipped at 0.
    """
    n, d = hcs.shape
    v = 1.0 / (1.0 + ys**2)
    rows = np.arange(n)[:, None]
    order = np.argsort(hcs, axis=1)
    hs, vs = hcs[rows, order], v[rows, order]
    s2 = (ys.sum(axis=1, keepdims=True) - r.cap) ** 2
    zero = np.zeros((n, 1))
    a = d + s2 - np.concatenate([zero, np.cumsum(vs, axis=1)], axis=1)
    b = hs.sum(axis=1, keepdims=True) - np.concatenate([zero, np.cumsum(vs * hs, axis=1)], axis=1)
    # g' is nondecreasing, so the breakpoints where it is negative form a
    # prefix of the sorted h; their count k names the root's segment
    k = np.count_nonzero(a[:, 1:] * hs < b[:, 1:], axis=1)[:, None]
    mu = np.maximum(b[rows, k] / a[rows, k], 0.0)
    nu = np.maximum(mu - hcs, 0.0) * v
    blocks = (mu - nu - hcs, mu[:, 0] * (ys.sum(axis=1) - r.cap), nu * (-ys))
    return np.concatenate([mu, nu], axis=1), blocks


_KKT_FORMS = {Box: _box_kkt, NonNegL1Cap: _cap_kkt}  # region type -> its KKT form


def _kkt_form(region):
    """The KKT form of the region's type; UnsupportedRegionError for any other."""
    if type(region) not in _KKT_FORMS:
        raise UnsupportedRegionError(
            f"KKT objective supports Box and NonNegL1Cap regions, not {type(region).__name__}"
        )
    return _KKT_FORMS[type(region)]


def kka_dual_dim(fp: ForwardProblem) -> int:
    """Number of dual variables per observation for the KKT objective."""
    r = fp.region
    # the count the region's KKT form returns, read off one zero observation
    return _kkt_form(r)(r, np.zeros((1, r.dim)), np.zeros((1, r.dim)))[0].shape[1]


def _kka_reduced(fp: ForwardProblem, t: np.ndarray, ds: Dataset):
    """Mean KKT objective at its minimizing duals, its theta-gradient, the duals.

    ``t`` is checked flat values.  The region's KKT form gives the duals in
    closed form; a region without one raises UnsupportedRegionError.  By
    Danskin's rule the theta-gradient at those duals is the gradient of the
    objective minimized over them.
    """
    form = _kkt_form(fp.region)
    hcs = fp._canonical_costs(t, ds.contexts)
    duals, blocks = form(fp.region, hcs, ds.decisions)
    # Huge duals overflow to inf here instead of warning; kka_fit turns a
    # non-finite objective into DivergedError.
    with np.errstate(over="ignore"):
        total = sum(float(np.sum(c**2)) for c in blocks)
    # d stat / d theta = -J_c, so chain through the batched (mean) adjoint;
    # the fit's pinned bits come from scaling it to a sum and back.
    n = len(ds)
    g_theta = -2.0 * n * fp._canonical_adjoint(ds.contexts, blocks[0])
    return total / n, g_theta / n, duals


def kka_objective(fp: ForwardProblem, theta, ds: Dataset) -> float:
    """Mean squared KKT residual of the observations, duals minimized out.

    Zero exactly when some nonnegative duals make every y_i satisfy the KKT
    system of the linear forward problem at theta; noisy observations keep
    it away from zero.  Equals ``kka_fit``'s ``meta["risk"]`` at its theta.
    """
    t = as_parameter(theta, fp.cost_map).values
    _check_widths(fp.cost_map, ds)
    return _kka_reduced(fp, t, ds)[0]


def kka_grad(fp: ForwardProblem, theta, ds: Dataset) -> np.ndarray:
    """Gradient of kka_objective in theta, shape (p,)."""
    t = as_parameter(theta, fp.cost_map).values
    _check_widths(fp.cost_map, ds)
    return _kka_reduced(fp, t, ds)[1]
