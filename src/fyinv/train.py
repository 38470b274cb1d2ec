"""Fitters that estimate forward-problem parameters from observed decisions.

All first-order fitters share one driver: epoch-shuffled without-replacement
minibatches, constant or 1/sqrt(t) step size, optional normalization of
the iterate to unit Euclidean norm (``SgdConfig.unit_norm``), a
gradient-norm stopping rule, and a divergence guard: DivergedError on a
parameter norm past 1e6 or a non-finite checkpoint risk.  The driver
checkpoints the full-data risk every ``eval_every`` updates (plus the start
and the end) and returns the best checkpoint, which makes the "risk at
theta_hat <= risk at theta0" contract hold by construction even for
nonsmooth objectives.  FY and SUBOPT run it through ``_fit_rows`` on their
row-mean objective.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DegenerateKernelError, DivergedError
from .losses import _fy_batch, _kka_reduced, _subopt_batch
from .graphs import _is_count
from .model import Dataset, ForwardProblem, Parameter, _check_widths, as_parameter, rng_stream
from .solvers import FwConfig, _project_region_batch

_DIVERGE_NORM = 1e6
METHODS = ("FY", "SUBOPT", "KKA", "SPA")


@dataclass(frozen=True)
class SgdConfig:
    """Hyperparameters shared by the first-order fitters.

    ``lam`` only matters to the Fenchel-Young fitter.  ``fw`` configures
    Frank-Wolfe wherever a fitter projects onto a flow polytope: the
    Fenchel-Young solves, and SPA's projection of its smoothed decisions.
    ``step_decay`` of "inv_sqrt" scales the step by 1/sqrt(t+1), useful for
    the nonsmooth subgradient objectives; the default constant step mirrors
    the plain SGD recipe.  ``unit_norm`` rescales theta0 and every iterate
    to unit Euclidean norm (zero maps to e_1): the normalization that keeps
    the suboptimality baseline off its trivial minimizer theta = 0 on
    multiplicative cost maps.
    """

    learning_rate: float = 0.05
    batch_size: int = 32
    max_iters: int = 10_000
    tolerance: float = 1e-6
    lam: float = 0.1
    seed: int = 0
    theta0: np.ndarray | None = None
    unit_norm: bool = False
    step_decay: str | None = None
    eval_every: int = 50
    fw: FwConfig = FwConfig()

    def __post_init__(self):
        if not 0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be positive and finite")
        for name, least in (("batch_size", 1), ("max_iters", 0), ("eval_every", 1)):
            if not _is_count(getattr(self, name), least):
                raise ValueError(f"{name} must be an integer >= {least}")
        if np.isnan(self.tolerance):
            raise ValueError("tolerance must not be NaN")
        if not 0 < self.lam < np.inf:
            raise ValueError("lam must be positive and finite")
        if not _is_count(self.seed, 0):
            raise ValueError("seed must be an integer >= 0")
        if not isinstance(self.unit_norm, bool):
            raise ValueError("unit_norm must be a bool")
        if self.step_decay not in (None, "inv_sqrt"):
            raise ValueError(f"unknown step_decay {self.step_decay!r}")


@dataclass(frozen=True)
class FitResult:
    theta: Parameter
    iterations: int
    grad_norm: float
    loss_trace: np.ndarray
    wall_time: float
    meta: dict = field(default_factory=dict)


def _apply_space(theta: np.ndarray, unit_norm: bool) -> np.ndarray:
    """theta itself, or with ``unit_norm`` theta / ||theta|| (zero maps to e_1)."""
    if not unit_norm:
        return theta
    nrm = float(np.linalg.norm(theta))
    if nrm < 1e-12:
        out = np.zeros_like(theta)
        out[0] = 1.0
        return out
    return theta / nrm


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-D float array: the bits of np.linalg.norm, which
    computes sqrt(v . v) the same way, minus its Python wrapper."""
    return math.sqrt(v.dot(v))


def _guard(theta: np.ndarray) -> np.ndarray:
    """The iterate itself, unless its norm is past _DIVERGE_NORM or NaN."""
    if not _norm(theta) <= _DIVERGE_NORM:
        raise DivergedError(f"parameter norm exceeded {_DIVERGE_NORM:g} or is not finite")
    return theta


def _start_theta(fp: ForwardProblem, ds: Dataset, cfg: SgdConfig) -> np.ndarray:
    """cfg.theta0 (zeros when unset), normalized if ``cfg.unit_norm`` and guarded.

    Also rejects a dataset whose context or decision width does not match
    the forward problem.
    """
    _check_widths(fp.cost_map, ds)
    p = fp.cost_map.p
    if cfg.theta0 is None:
        theta = np.zeros(p)
    else:
        theta = np.ravel(np.asarray(cfg.theta0, dtype=float)).copy()
        if theta.size != p:
            raise ValueError(f"theta0 must have {p} entries")
    return _guard(_apply_space(theta, cfg.unit_norm))


def _run_sgd(
    fp: ForwardProblem,
    ds: Dataset,
    cfg: SgdConfig,
    batch_step: Callable[[np.ndarray, np.ndarray], tuple[float, np.ndarray]],
    full_risk: Callable[[np.ndarray], float],
) -> FitResult:
    n = len(ds)
    theta = _start_theta(fp, ds, cfg)

    def checkpoint(theta):
        risk = full_risk(theta)
        if not math.isfinite(risk):
            raise DivergedError(f"full-data risk is {risk}")
        return risk

    rng = rng_stream(cfg.seed)
    b = min(cfg.batch_size, n)
    order = rng.permutation(n)
    pos = 0

    start = time.perf_counter()
    best_theta = theta.copy()
    best_risk = checkpoint(theta)
    trace: list[float] = []
    grad_norm = np.inf
    t = 0
    last_eval = 0  # the start risk is checkpoint 0
    while t < cfg.max_iters:
        if pos + b > n:
            order = rng.permutation(n)
            pos = 0
        idx = order[pos : pos + b]
        pos += b

        loss, grad = batch_step(theta, idx)
        trace.append(loss)
        grad_norm = _norm(grad)
        if grad_norm <= cfg.tolerance:
            break

        step = cfg.learning_rate
        if cfg.step_decay == "inv_sqrt":
            step /= math.sqrt(t + 1.0)
        theta = _guard(_apply_space(theta - step * grad, cfg.unit_norm))
        t += 1
        if t % cfg.eval_every == 0:
            risk = checkpoint(theta)
            last_eval = t
            if risk < best_risk:
                best_risk, best_theta = risk, theta.copy()

    if t != last_eval:
        risk = checkpoint(theta)
        if risk < best_risk:
            best_risk, best_theta = risk, theta.copy()
    return FitResult(
        theta=as_parameter(best_theta, fp.cost_map),
        iterations=t,
        grad_norm=grad_norm,
        loss_trace=np.asarray(trace),
        wall_time=time.perf_counter() - start,
        meta={"risk": best_risk},
    )


def _fit_rows(fp: ForwardProblem, ds: Dataset, cfg: SgdConfig, objective) -> FitResult:
    """Run the shared driver on a row-mean objective.

    ``objective(theta, ctxs, ys)`` returns the mean loss and mean gradient
    of the given rows.  Steps take it on the minibatch rows; risk
    checkpoints take its loss on every row.
    """
    ctxs, ys = ds.contexts, ds.decisions

    def batch_step(theta, idx):
        return objective(theta, ctxs.take(idx, axis=0), ys.take(idx, axis=0))

    def full_risk(theta):
        return objective(theta, ctxs, ys)[0]

    return _run_sgd(fp, ds, cfg, batch_step, full_risk)


def fy_sgd_fit(fp: ForwardProblem, ds: Dataset, cfg: SgdConfig | None = None) -> FitResult:
    """Minimize the empirical Fenchel-Young risk by minibatch SGD."""
    cfg = cfg or SgdConfig()
    return _fit_rows(
        fp, ds, cfg, lambda theta, ctxs, ys: _fy_batch(fp, theta, ctxs, ys, cfg.lam, fw=cfg.fw)
    )


def subopt_fit(fp: ForwardProblem, ds: Dataset, cfg: SgdConfig | None = None) -> FitResult:
    """Subgradient descent on the hinged suboptimality risk.

    Per-point losses are clamped at zero before averaging: with infeasible
    noisy observations the raw duality gap is unbounded below, and the
    clamp restores the degenerate-but-bounded objective the baseline is
    known for (any theta scaling a zero-loss fit stays zero-loss, and
    multiplicative cost maps admit the trivial minimizer theta = 0, which
    ``cfg.unit_norm`` rules out).
    """
    cfg = cfg or SgdConfig()
    return _fit_rows(
        fp, ds, cfg, lambda theta, ctxs, ys: _subopt_batch(fp, theta, ctxs, ys, hinge=True)
    )


def kka_fit(fp: ForwardProblem, ds: Dataset, cfg: SgdConfig | None = None) -> FitResult:
    """Gradient descent on the mean KKT-residual objective, duals minimized out.

    For fixed theta the per-point duals have a closed form per region
    (``losses._box_kkt``, ``losses._cap_kkt``; any other region raises
    UnsupportedRegionError), and by Danskin's rule the theta-gradient of the
    objective minimized over them is the KKT objective's theta-gradient at
    those duals.  That reduced objective is convex in theta, so the shared
    driver runs plain full-batch descent on it and stops on ``tolerance``.
    Every step reads the whole dataset in its stored order, so
    ``batch_size`` and ``seed`` do not change the fit.  Values and steps are
    per-point means, so the step size does not have to shrink with the
    sample count.

    Per point the KKT objective is quadratic in the canonical cost h with
    Hessian 2I (from the squared stationarity residual), so at the duals
    that minimize it at h, F(h') <= F(h) + grad F(h).(h' - h) + ||h' - h||^2.
    Through the cost map's Jacobian J (the identity on additive maps,
    diag(u) on Hadamard ones) the mean objective's theta-gradient is
    L-Lipschitz with L = 2 lambda_max(mean J^T J): any step below 2/L
    descends, and 1/L gives the largest guaranteed decrease.
    ``meta["duals"]`` holds the closed-form duals at the
    returned theta.  A non-finite objective or gradient raises
    DivergedError.
    """
    cfg = cfg or SgdConfig()
    n = len(ds)
    last: dict[bytes, tuple[float, np.ndarray]] = {}

    def reduced(theta):
        # The driver asks again for each checkpoint's theta (start and end
        # included) in the step that follows or precedes it: answer from the
        # last evaluation instead of redoing it.
        key = theta.tobytes()
        if key not in last:
            total, g_theta, _ = _kka_reduced(fp, theta, ds)
            if not (np.isfinite(total) and np.isfinite(g_theta).all()):
                raise DivergedError("KKT objective or gradient is not finite")
            last.clear()
            last[key] = (total, g_theta)
        return last[key]

    def batch_step(theta, idx):
        return reduced(theta)  # idx holds every row: the step is full-batch

    def full_risk(theta):
        return reduced(theta)[0]

    result = _run_sgd(fp, ds, dataclasses.replace(cfg, batch_size=n), batch_step, full_risk)
    duals = _kka_reduced(fp, result.theta.values, ds)[2]
    return dataclasses.replace(result, meta={**result.meta, "duals": duals})


# ---------------------------------------------------------------------------
# kernel denoising and the two-stage SPA baseline


# Float64 elements in the (rows x train x m) difference block that
# _sq_distances reduces at a time: about 2 MB.
_NW_BLOCK_ELEMS = 2**18


def _sq_distances(train_ctxs: np.ndarray, eval_ctxs: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, eval x train, summed over m for a block
    of evaluation rows at a time in one reused buffer of about
    _NW_BLOCK_ELEMS floats.

    Row blocks give the same bits as one (eval x train x m) reduction;
    blocks over m would not, because the reduction over m is pairwise.
    """
    n_eval, (n_train, m) = len(eval_ctxs), train_ctxs.shape
    d2 = np.empty((n_eval, n_train))
    rows = max(1, min(n_eval, _NW_BLOCK_ELEMS // max(1, n_train * m)))
    block = np.empty((rows, n_train, m))
    for i in range(0, n_eval, rows):
        diff = block[: min(rows, n_eval - i)]
        np.subtract(eval_ctxs[i : i + rows, None, :], train_ctxs, out=diff)
        np.sum(np.square(diff, out=diff), axis=2, out=d2[i : i + rows])
    return d2


def _nw_weights(train_ctxs: np.ndarray, eval_ctxs: np.ndarray, bandwidth) -> np.ndarray:
    """Gaussian kernel weights exp(-||u_i - v_j||^2 / (2 bw^2)), eval x train.

    A 1-D array of K bandwidths stacks one block per bandwidth on a single
    distance computation, giving K x eval x train.  Peak memory is the
    weights, the eval x train distances (reused as the weights for a
    scalar bandwidth) and one difference block of about 2 MB: never an
    (eval x train x m) temporary.
    """
    bw = np.asarray(bandwidth, dtype=float)
    if not np.all(bw > 0):
        raise ValueError("bandwidth must be positive")
    d2 = _sq_distances(train_ctxs, eval_ctxs)
    w = d2 if bw.ndim == 0 else np.empty(bw.shape + d2.shape)
    # d2 / -(2 bw^2) has the bits of -d2 / (2 bw^2): IEEE division is
    # sign-symmetric
    np.divide(d2, -(2.0 * bw[..., None, None] ** 2), out=w)
    return np.exp(w, out=w)


def nw_denoise(ds: Dataset, bandwidth: float) -> np.ndarray:
    """Nadaraya-Watson smoothing of the decisions with a Gaussian kernel.

    Each point keeps its own unit self-weight, so the estimate interpolates
    as bandwidth -> 0 and tends to the sample mean as bandwidth -> infinity.
    Raises DegenerateKernelError when the bandwidth is so small that no
    point receives any neighbor mass at all (the kernel carries no
    information beyond the identity).  Memory is O(n^2): the n x n weight
    matrix plus a difference block of about 2 MB, whatever the context
    width.
    """
    w = _nw_weights(ds.contexts, ds.contexts, bandwidth)
    off_mass = w.sum(axis=1) - np.diag(w)
    if np.max(off_mass) == 0.0:
        raise DegenerateKernelError(
            f"bandwidth {bandwidth:g} leaves every point isolated"
        )
    return (w @ ds.decisions) / w.sum(axis=1, keepdims=True)


# SPA's bandwidth grid and cross-validation fold count, fixed for every fit.
_SPA_BANDWIDTHS = (0.1, 0.25, 0.5, 1.0, 2.0)
_SPA_FOLDS = 5


def _cv_bandwidth(ds: Dataset, seed: int) -> float:
    """The member of _SPA_BANDWIDTHS with the least held-out reconstruction
    error over _SPA_FOLDS folds drawn from a shuffle seeded by ``seed``."""
    n = len(ds)
    folds = min(_SPA_FOLDS, n)
    assign = rng_stream(seed, 7).permutation(n) % folds
    sse = np.zeros(len(_SPA_BANDWIDTHS))
    count = 0
    for f in range(folds):
        hold = assign == f
        if not np.any(hold) or np.all(hold):
            continue
        ws = _nw_weights(ds.contexts[~hold], ds.contexts[hold], _SPA_BANDWIDTHS)
        for k, w in enumerate(ws):
            mass = w.sum(axis=1)
            if np.any(mass == 0.0):
                sse[k] = np.inf
                continue
            pred = (w @ ds.decisions[~hold]) / mass[:, None]
            sse[k] += float(np.sum((pred - ds.decisions[hold]) ** 2))
        # free this fold's stack before _nw_weights builds the next one
        del ws, w
        count += int(hold.sum())
    scores = sse / max(count, 1)
    if not np.isfinite(scores.min()):
        raise DegenerateKernelError("every candidate bandwidth isolated some fold")
    return _SPA_BANDWIDTHS[int(np.argmin(scores))]


def spa_fit(fp: ForwardProblem, ds: Dataset, cfg: SgdConfig | None = None) -> FitResult:
    """Denoise decisions, project them feasible, then fit by suboptimality.

    Stage one replaces each decision with its kernel-smoothed neighbor
    average.  The bandwidth is chosen from the fixed grid
    (0.1, 0.25, 0.5, 1.0, 2.0) by 5-fold cross-validation on held-out
    reconstruction error (_SPA_BANDWIDTHS, _SPA_FOLDS); the folds come from
    a shuffle seeded by ``cfg.seed``, so the whole pipeline is
    deterministic.  Stage two projects the smoothed decisions onto the
    feasible region (with ``cfg.fw`` on flow regions) so the suboptimality
    loss is meaningful; stage three runs subopt_fit with ``cfg`` on the
    cleaned dataset.  ``wall_time`` covers all three stages.
    """
    cfg = cfg or SgdConfig()
    start = time.perf_counter()
    # Fail on bad widths or theta0 before denoising: the projection below
    # would broadcast width-1 decisions back to the full width.
    _start_theta(fp, ds, cfg)
    bw = _cv_bandwidth(ds, cfg.seed)
    smoothed = nw_denoise(ds, bw)
    projected = _project_region_batch(fp.region, smoothed, cfg.fw)
    cleaned = Dataset(ds.contexts, projected)
    result = subopt_fit(fp, cleaned, cfg)
    return dataclasses.replace(
        result,
        wall_time=time.perf_counter() - start,
        meta={**result.meta, "bandwidth": bw},
    )
