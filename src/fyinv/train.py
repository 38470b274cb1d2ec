"""Fitters that estimate forward-problem parameters from observed decisions.

All first-order fitters share one driver: a start at theta = 0 (e_1 under
``SgdConfig.unit_norm``), epoch-shuffled without-replacement minibatches,
constant or 1/sqrt(t) step size, optional normalization of the iterate to
unit Euclidean norm, a stop once the step's gradient norm is at most
_GRAD_TOL, and a divergence guard: DivergedError on a parameter norm past
1e6 or a non-finite checkpoint risk.  The driver checkpoints the full-data
risk every ``eval_every`` updates (plus the start and the end) and returns
the best checkpoint, which makes the "risk at theta_hat <= risk at the
start" contract hold by construction even for nonsmooth objectives.  The
result's ``meta`` holds that checkpoint's ``risk`` and its
``best_iteration``, the update count at it: 0 says the fit returned its
start.  FY and SUBOPT run it through ``_fit_rows`` on their row-mean
objective.
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
from .solvers import _GAP_TOL, _check_gap_tol, _project_region_batch

_DIVERGE_NORM = 1e6
# The driver stops once a step's gradient norm is at most this.
_GRAD_TOL = 1e-6
METHODS = ("FY", "SUBOPT", "KKA", "SPA")


@dataclass(frozen=True)
class SgdConfig:
    """Hyperparameters shared by the first-order fitters.

    ``lam`` only matters to the Fenchel-Young fitter.  ``gap_tol`` is
    Frank-Wolfe's duality-gap tolerance wherever a fitter projects onto a
    flow polytope: the Fenchel-Young solves, and SPA's projection of its
    smoothed decisions.
    ``step_decay`` of "inv_sqrt" scales the step by 1/sqrt(t+1), useful for
    the nonsmooth subgradient objectives; the default constant step mirrors
    the plain SGD recipe.  Every fit starts at theta = 0; ``unit_norm``
    starts it at e_1 instead and rescales every iterate to unit Euclidean
    norm: the normalization that keeps the suboptimality baseline off its
    trivial minimizer theta = 0 on multiplicative cost maps.
    """

    learning_rate: float = 0.05
    batch_size: int = 32
    max_iters: int = 10_000
    lam: float = 0.1
    seed: int = 0
    unit_norm: bool = False
    step_decay: str | None = None
    eval_every: int = 50
    gap_tol: float = _GAP_TOL

    def __post_init__(self):
        if not 0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be positive and finite")
        for name, least in (("batch_size", 1), ("max_iters", 0), ("eval_every", 1), ("seed", 0)):
            if not _is_count(getattr(self, name), least):
                raise ValueError(f"{name} must be an integer >= {least}")
        if not 0 < self.lam < np.inf:
            raise ValueError("lam must be positive and finite")
        if not isinstance(self.unit_norm, bool):
            raise ValueError("unit_norm must be a bool")
        if self.step_decay not in (None, "inv_sqrt"):
            raise ValueError(f"unknown step_decay {self.step_decay!r}")
        _check_gap_tol(self.gap_tol)


@dataclass(frozen=True)
class FitResult:
    theta: Parameter
    iterations: int
    grad_norm: float
    loss_trace: np.ndarray
    wall_time: float
    meta: dict = field(default_factory=dict)


def _apply_space(theta: np.ndarray, unit_norm: bool) -> np.ndarray:
    """theta itself, or with ``unit_norm`` theta / ||theta|| (zero maps to e_1).
    A finite theta whose norm overflows is first divided by its largest
    magnitude, which keeps its direction."""
    if not unit_norm:
        return theta
    nrm = _norm(theta)
    if nrm == math.inf:
        theta = theta / np.abs(theta).max()
        nrm = _norm(theta)
    if nrm < 1e-12:
        out = np.zeros_like(theta)
        out[0] = 1.0
        return out
    return theta / nrm


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-D float array: the bits of np.linalg.norm, which
    computes sqrt(v . v) the same way, minus its Python wrapper.  np.vdot
    runs the same BLAS dot as v.dot(v) but reads no floating-point status,
    so a sum of squares that overflows reads inf, with no warning, and the
    driver's guards turn it into DivergedError."""
    return math.sqrt(np.vdot(v, v))


def _run_sgd(
    fp: ForwardProblem,
    ds: Dataset,
    cfg: SgdConfig,
    batch_step: Callable[[np.ndarray, np.ndarray], tuple[float, np.ndarray]],
    full_risk: Callable[[np.ndarray], float],
) -> FitResult:
    n = len(ds)
    _check_widths(fp.cost_map, ds)
    theta = _apply_space(np.zeros(fp.cost_map.p), cfg.unit_norm)
    best_theta, best_risk, best_t = theta, math.inf, 0

    def checkpoint(theta):
        """Keep theta, and the update count t that reached it, if its
        full-data risk beats the best so far (no copy: the driver never
        writes an iterate in place)."""
        nonlocal best_theta, best_risk, best_t
        risk = full_risk(theta)
        if not math.isfinite(risk):
            raise DivergedError(f"full-data risk is {risk}")
        if risk < best_risk:
            best_theta, best_risk, best_t = theta, risk, t

    rng = rng_stream(cfg.seed)
    b = min(cfg.batch_size, n)
    order = rng.permutation(n)
    pos = 0

    start = time.perf_counter()
    trace: list[float] = []
    grad_norm = np.inf
    t = last_eval = 0  # the start risk is checkpoint 0
    checkpoint(theta)
    while t < cfg.max_iters:
        if pos + b > n:
            order = rng.permutation(n)
            pos = 0
        idx = order[pos : pos + b]
        pos += b

        loss, grad = batch_step(theta, idx)
        trace.append(loss)
        grad_norm = _norm(grad)
        if grad_norm <= _GRAD_TOL:
            break

        step = cfg.learning_rate
        if cfg.step_decay == "inv_sqrt":
            step /= math.sqrt(t + 1.0)
        theta = _apply_space(theta - step * grad, cfg.unit_norm)
        if not _norm(theta) <= _DIVERGE_NORM:
            raise DivergedError(f"parameter norm exceeded {_DIVERGE_NORM:g} or is not finite")
        t += 1
        if t % cfg.eval_every == 0:
            checkpoint(theta)
            last_eval = t

    if t != last_eval:
        checkpoint(theta)
    return FitResult(
        theta=as_parameter(best_theta, fp.cost_map),
        iterations=t,
        grad_norm=grad_norm,
        loss_trace=np.asarray(trace),
        wall_time=time.perf_counter() - start,
        meta={"risk": best_risk, "best_iteration": best_t},
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
        fp, ds, cfg, lambda t, ctxs, ys: _fy_batch(fp, t, ctxs, ys, cfg.lam, gap_tol=cfg.gap_tol)
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
    driver runs plain full-batch descent on it and stops on _GRAD_TOL.
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


# Float64 elements in one block of the kernel smoother: the K x rows x
# train weights that _nw_predict holds at a time, and the rows x train x m
# difference block that _sq_distances reduces at a time.  About 2 MiB each.
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
    (eval x train x m) temporary.  A bandwidth whose 2 bw^2 underflows to 0
    raises DegenerateKernelError; one whose 2 bw^2 overflows gives every
    weight exp(-0) = 1.
    """
    bw = np.asarray(bandwidth, dtype=float)
    if not np.all(bw > 0):
        raise ValueError("bandwidth must be positive")
    with np.errstate(over="ignore"):
        scale = -(2.0 * bw[..., None, None] ** 2)
    if np.any(scale == 0.0):
        raise DegenerateKernelError(f"bandwidth {bandwidth} underflows the kernel scale 2 bw^2")
    d2 = _sq_distances(train_ctxs, eval_ctxs)
    w = d2 if bw.ndim == 0 else np.empty(bw.shape + d2.shape)
    # d2 / -(2 bw^2) has the bits of -d2 / (2 bw^2): IEEE division is
    # sign-symmetric
    np.divide(d2, scale, out=w)
    return np.exp(w, out=w)


def _nw_predict(
    train_ctxs: np.ndarray, train_ys: np.ndarray, eval_ctxs: np.ndarray, bandwidth
) -> tuple[np.ndarray, np.ndarray]:
    """Kernel mass and Nadaraya-Watson prediction of each evaluation row:
    eval and eval x d for a scalar bandwidth, K x eval and K x eval x d for
    a 1-D array of K bandwidths.

    The evaluation rows stream through _nw_weights in equal blocks of at
    most _NW_BLOCK_ELEMS weights (at least one row), so memory is the
    outputs plus one block.  Each row's mass and prediction come from its
    own weights alone; only the matrix product's BLAS kernel, which BLAS
    picks by the block's shape, can move their last bits.  A row with zero
    mass keeps its zero numerator: nothing divides by zero.
    """
    bw = np.asarray(bandwidth, dtype=float)
    n_eval, (n_train, d) = len(eval_ctxs), train_ys.shape
    mass = np.empty(bw.shape + (n_eval,))
    pred = np.empty(bw.shape + (n_eval, d))
    # blocks of equal size: a ragged tail of a few rows would send its
    # product through a different BLAS kernel and change its last bits
    blocks = -(-n_eval // max(1, _NW_BLOCK_ELEMS // (bw.size * n_train)))
    rows = -(-n_eval // blocks)
    for i in range(0, n_eval, rows):
        w = _nw_weights(train_ctxs, eval_ctxs[i : i + rows], bw)
        np.sum(w, axis=-1, out=mass[..., i : i + rows])
        np.matmul(w, train_ys, out=pred[..., i : i + rows, :])
    np.divide(pred, mass[..., None], out=pred, where=mass[..., None] > 0.0)
    return mass, pred


def nw_denoise(ds: Dataset, bandwidth: float) -> np.ndarray:
    """Nadaraya-Watson smoothing of the decisions with a Gaussian kernel.

    Each point keeps its own unit self-weight, so the estimate interpolates
    as bandwidth -> 0 and tends to the sample mean as bandwidth -> infinity
    (a bandwidth whose square overflows gives the sample mean).  Raises
    DegenerateKernelError when the bandwidth is so small that no point
    receives any neighbor mass at all (the kernel carries no information
    beyond the identity), or so small that 2 bw^2 underflows to 0; a
    bandwidth that is not one positive number raises ValueError.  Memory is
    O(n d) for the output plus blocks of about 2 MiB (see _nw_predict),
    whatever n and the context width.
    """
    bw = np.asarray(bandwidth, dtype=float)
    if bw.ndim != 0:
        raise ValueError(f"bandwidth must be one number, got {bandwidth!r}")
    mass, pred = _nw_predict(ds.contexts, ds.decisions, ds.contexts, bw)
    # the self-weight is exactly exp(-0 / (2 bw^2)) = 1.0, so mass - 1.0 is
    # the neighbor mass
    if np.max(mass - 1.0) == 0.0:
        raise DegenerateKernelError(f"bandwidth {float(bw):g} leaves every point isolated")
    return pred


# SPA's bandwidth grid and cross-validation fold count, fixed for every fit.
_SPA_BANDWIDTHS = (0.1, 0.25, 0.5, 1.0, 2.0)
_SPA_FOLDS = 5


def _cv_bandwidth(ds: Dataset, seed: int) -> float:
    """The member of _SPA_BANDWIDTHS with the least held-out reconstruction
    error over _SPA_FOLDS folds drawn from a shuffle seeded by ``seed``.

    A bandwidth that leaves some held-out point with zero kernel mass is
    out.  If an error overflows, every error is recomputed on the decisions
    divided by their largest magnitude, which scales them all alike.  Memory
    is the fold's K x hold x d predictions plus one block of _nw_predict.
    """
    n = len(ds)
    folds = min(_SPA_FOLDS, n)
    assign = rng_stream(seed, 7).permutation(n) % folds

    def errors(ys):
        sse = np.zeros(len(_SPA_BANDWIDTHS))
        isolated = np.zeros(len(_SPA_BANDWIDTHS), dtype=bool)
        for f in range(folds if folds > 1 else 0):  # one fold leaves no training rows
            hold = assign == f
            mass, pred = _nw_predict(ds.contexts[~hold], ys[~hold], ds.contexts[hold], _SPA_BANDWIDTHS)
            isolated |= np.any(mass == 0.0, axis=1)
            with np.errstate(over="ignore"):
                sse += [float(np.sum((p - ys[hold]) ** 2)) for p in pred]
        return sse, isolated

    sse, isolated = errors(ds.decisions)
    if isolated.all():
        raise DegenerateKernelError("every candidate bandwidth isolated some fold")
    if not np.isfinite(sse[~isolated]).all():
        sse = errors(ds.decisions / np.abs(ds.decisions).max())[0]
    # each point is held out once (with one fold, none: the errors stay 0)
    return _SPA_BANDWIDTHS[int(np.argmin(np.where(isolated, np.inf, sse / n)))]


def spa_fit(fp: ForwardProblem, ds: Dataset, cfg: SgdConfig | None = None) -> FitResult:
    """Denoise decisions, project them feasible, then fit by suboptimality.

    Stage one replaces each decision with its kernel-smoothed neighbor
    average.  The bandwidth is chosen from the fixed grid
    (0.1, 0.25, 0.5, 1.0, 2.0) by 5-fold cross-validation on held-out
    reconstruction error (_SPA_BANDWIDTHS, _SPA_FOLDS); the folds come from
    a shuffle seeded by ``cfg.seed``, so the whole pipeline is
    deterministic.  Stage two projects the smoothed decisions onto the
    feasible region (to ``cfg.gap_tol`` on flow regions) so the suboptimality
    loss is meaningful; stage three runs subopt_fit with ``cfg`` on the
    cleaned dataset.  ``wall_time`` covers all three stages.
    """
    cfg = cfg or SgdConfig()
    start = time.perf_counter()
    # Fail on bad widths before denoising: the projection below would
    # broadcast width-1 decisions back to the full width.
    _check_widths(fp.cost_map, ds)
    bw = _cv_bandwidth(ds, cfg.seed)
    smoothed = nw_denoise(ds, bw)
    projected = _project_region_batch(fp.region, smoothed, cfg.gap_tol)
    cleaned = Dataset(ds.contexts, projected)
    result = subopt_fit(fp, cleaned, cfg)
    return dataclasses.replace(
        result,
        wall_time=time.perf_counter() - start,
        meta={**result.meta, "bandwidth": bw},
    )
