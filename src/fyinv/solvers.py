"""Forward solvers: closed-form projections and Frank-Wolfe for flow regions.

Everything here works on the canonical max form

    max_{x in region}  hc^T x - (lam_eff / 2) ||x||^2

whose solution for lam_eff > 0 is the Euclidean projection of hc / lam_eff
onto the region, and for lam_eff = 0 an extreme point chosen by a
deterministic tie-break.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonConvergenceError
from .graphs import Graph, shortest_path, shortest_path_batch
from .model import (
    Ball,
    Box,
    FlowPolytope,
    ForwardProblem,
    NonNegL1Cap,
    Region,
    _is_count,
)

__all__ = [
    "FwConfig",
    "fw_project",
    "project_box",
    "project_ball",
    "project_nonneg_l1cap",
    "shortest_path",
    "solve_exact",
    "solve_regularized",
]


# ---------------------------------------------------------------------------
# projections (each accepts a single vector; batch variants are internal)


def project_box(v, lo, hi) -> np.ndarray:
    """Clip v into the box [lo, hi]."""
    return _project_box_batch(np.asarray(v, dtype=float)[None, :], lo, hi)[0]


def project_ball(v, radius: float) -> np.ndarray:
    """Scale v back onto the centered ball when it sticks out."""
    return _project_ball_batch(np.asarray(v, dtype=float)[None, :], radius)[0]


def project_nonneg_l1cap(v, cap: float) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum(x) <= cap}.

    When the clipped point already satisfies the cap it is the answer;
    otherwise the sum constraint is tight and the projection is the usual
    sorted-threshold shift max(v - tau, 0) with tau chosen so the coordinates
    sum to cap.  O(d log d).
    """
    return _project_nonneg_l1cap_batch(np.asarray(v, dtype=float)[None, :], cap)[0]


def _project_box_batch(vs: np.ndarray, lo, hi) -> np.ndarray:
    return np.clip(vs, lo, hi)


def _project_ball_batch(vs: np.ndarray, radius: float) -> np.ndarray:
    nrm = np.linalg.norm(vs, axis=1)
    scale = np.ones_like(nrm)
    outside = nrm > radius
    scale[outside] = radius / nrm[outside]
    return vs * scale[:, None]


def _project_nonneg_l1cap_batch(vs: np.ndarray, cap: float) -> np.ndarray:
    clipped = np.maximum(vs, 0.0)
    sums = clipped.sum(axis=1)
    out = clipped
    over = sums > cap
    if np.any(over):
        out = clipped.copy()
        v = vs[over]
        d = v.shape[1]
        u = -np.sort(-v, axis=1)
        css = np.cumsum(u, axis=1)
        j = np.arange(1, d + 1)
        cond = u - (css - cap) / j > 0
        # cond is True on a prefix; rho is the largest feasible j
        rho = cond.sum(axis=1)
        tau = (css[np.arange(v.shape[0]), rho - 1] - cap) / rho
        out[over] = np.maximum(v - tau[:, None], 0.0)
    return out


def _project_region_batch(region: Region, vs: np.ndarray, fw: "FwConfig | None") -> np.ndarray:
    if isinstance(region, Box):
        return _project_box_batch(vs, region.lo, region.hi)
    if isinstance(region, Ball):
        return _project_ball_batch(vs, region.radius)
    if isinstance(region, NonNegL1Cap):
        return _project_nonneg_l1cap_batch(vs, region.cap)
    cfg = fw if fw is not None else FwConfig()
    return _fw_project_batch(region.graph, np.asarray(vs, dtype=float), cfg)


# ---------------------------------------------------------------------------
# linear maximization over a region (the lam_eff = 0 branch)


def _linear_argmax_batch(region: Region, hcs: np.ndarray) -> np.ndarray:
    """argmax of hc^T x over the region for every row hc of hcs.

    The tie-break is deterministic: box ties sit at the coordinate midpoint,
    the cap region breaks argmax ties toward the lowest index, and flow
    regions inherit the shortest-path edge-order rule.  Zero cost is not an
    error, it just lands on the tie-broken point.
    """
    if isinstance(region, Box):
        mid = 0.5 * (region.lo + region.hi)
        return np.where(hcs > 0, region.hi, np.where(hcs < 0, region.lo, mid))
    if isinstance(region, Ball):
        nrm = np.linalg.norm(hcs, axis=1)
        safe = np.where(nrm > 0, nrm, 1.0)
        return np.where(nrm[:, None] > 0, (region.radius / safe)[:, None] * hcs, 0.0)
    if isinstance(region, NonNegL1Cap):
        k = np.argmax(hcs, axis=1)  # lowest index on ties
        x = np.zeros_like(hcs)
        rows = np.arange(hcs.shape[0])
        x[rows, k] = np.where(hcs[rows, k] > 0, region.cap, 0.0)
        return x
    return shortest_path_batch(region.graph, -hcs)


# ---------------------------------------------------------------------------
# forward solves


def solve_exact(fp: ForwardProblem, theta, u) -> np.ndarray:
    """Optimal decision of the forward problem at (theta, u).

    With base_quad = 0 this is a tie-broken extreme point; with base_quad > 0
    the objective is strongly concave and the optimum is the projection of
    hc / base_quad onto the region.
    """
    return _solve_exact_batch(fp, fp.canonical_cost(theta, u)[None, :])[0]


def solve_regularized(
    fp: ForwardProblem,
    theta,
    u,
    lam: float,
    *,
    fw: "FwConfig | None" = None,
) -> np.ndarray:
    """Unique optimum of the quadratically regularized forward problem.

    Solves max hc^T x - ((base_quad + lam)/2)||x||^2 over the region, i.e.
    projects hc / (base_quad + lam).  Requires lam > 0.
    """
    if not lam > 0:
        raise ValueError("lam must be positive")
    return _solve_reg_batch(fp, fp.canonical_cost(theta, u)[None, :], lam, fw)[0]


def _solve_exact_batch(fp: ForwardProblem, hcs: np.ndarray) -> np.ndarray:
    if fp.base_quad > 0:
        return _project_region_batch(fp.region, hcs / fp.base_quad, None)
    return _linear_argmax_batch(fp.region, hcs)


def _solve_reg_batch(fp: ForwardProblem, hcs: np.ndarray, lam: float, fw=None) -> np.ndarray:
    lam_eff = fp.base_quad + lam
    return _project_region_batch(fp.region, hcs / lam_eff, fw)


# ---------------------------------------------------------------------------
# Frank-Wolfe projection onto the path polytope


@dataclass(frozen=True)
class FwConfig:
    """Knobs for fw_project.

    The duality gap <= gap_tol certifies ||x - projection||^2 <= 2 * gap.
    Plain line-search Frank-Wolfe stalls at O(1/t) once the solution lies on
    a face, so every ``correct_every`` iterations each row's iterate is
    replaced by the exact projection onto the hull of the vertices it has
    visited, as one active-set solve (from the centroid) over all those rows
    padded to their largest vertex count (_correct_rows).  With the optimal
    face's vertices in hand that snaps the iterate onto the true projection
    and the gap collapses to roundoff.
    Bitwise-equal targets in one batch share one solve, and the output is
    bitwise identical to solving every row.  ``max_iters`` and
    ``correct_every`` are integers >= 1.
    """

    max_iters: int = 2000
    gap_tol: float = 1e-6
    correct_every: int = 8

    def __post_init__(self):
        for name in ("max_iters", "correct_every"):
            if not _is_count(getattr(self, name)):
                raise ValueError(f"{name} must be an integer >= 1")
        if not self.gap_tol > 0:
            raise ValueError("gap_tol must be positive")


def fw_project(g: Graph, target, cfg: FwConfig | None = None) -> np.ndarray:
    """Euclidean projection of ``target`` onto the graph's path polytope.

    Frank-Wolfe with shortest_path as the linear oracle and exact line search
    on the quadratic objective f(x) = 0.5 ||x - target||^2.  Every
    cfg.correct_every iterations the iterate is replaced by the exact
    projection onto the hull of the paths visited so far, computed by one
    batched active-set solve (see FwConfig).  Deterministic.

    Raises NonConvergenceError (carrying the final gap) if the budget runs
    out before the gap certificate reaches cfg.gap_tol.
    """
    cfg = cfg or FwConfig()
    target = np.asarray(target, dtype=float)
    if target.shape != (g.num_edges,):
        raise ValueError(f"target must have shape ({g.num_edges},)")
    return _fw_project_batch(g, target[None, :], cfg)[0]


def _fw_project_batch(g: Graph, targets: np.ndarray, cfg: FwConfig) -> np.ndarray:
    """fw_project across a batch, sharing each relaxation sweep.

    Per-row state (visited vertices and the iterate) lives in padded
    arrays; rows whose duality gap certificate is met drop out of the
    working set.  The gap is checked before stepping, so a row whose very
    first vertex is optimal is returned untouched, same as the scalar story.

    Bitwise-equal targets share one solve: only the distinct rows, in
    first-appearance order, run, and the result is expanded back.  A row's
    trajectory depends only on its own target and on batch-level values
    (the vertex cap, the padded width of each correction) that are the same
    for the distinct rows as for the whole batch, so the output is bitwise
    identical to solving every row.
    """
    first, inv = _distinct_rows(targets)
    if first is not None:
        targets = targets[first]
    nb = targets.shape[0]
    x = shortest_path_batch(g, -targets)
    cap = 8
    # Vertices are 0/1 paths, stored exactly as bytes.
    verts = np.zeros((nb, cap, targets.shape[1]), dtype=np.uint8)
    verts[:, 0] = x
    counts = np.ones(nb, dtype=np.int64)
    active = np.ones(nb, dtype=bool)

    for it in range(cfg.max_iters):
        rows = np.flatnonzero(active)
        if rows.size == 0:
            break
        grad = x[rows] - targets[rows]
        s = shortest_path_batch(g, grad)
        gap = np.einsum("ij,ij->i", grad, x[rows] - s)
        done = gap <= cfg.gap_tol
        if done.any():
            active[rows[done]] = False
            keep = ~done
            if not keep.any():
                continue
            rows, s, gap = rows[keep], s[keep], gap[keep]

        d = s - x[rows]
        denom = np.einsum("ij,ij->i", d, d)
        gamma = np.where(denom > 0, np.clip(gap / np.maximum(denom, 1e-300), 0.0, 1.0), 1.0)
        x[rows] += gamma[:, None] * d

        kmax = int(counts[rows].max())
        if kmax == cap:
            cap *= 2
            verts = np.concatenate([verts, np.zeros_like(verts)], axis=1)
        s = s.astype(np.uint8)  # from here on only matched and stored, as bytes
        sub = verts[rows, :kmax]
        hit = (sub == s[:, None, :]).all(axis=2)
        hit &= np.arange(kmax)[None, :] < counts[rows, None]
        found = hit.any(axis=1)
        fresh = rows[~found]
        verts[fresh, counts[fresh]] = s[~found]
        counts[fresh] += 1

        if (it + 1) % cfg.correct_every == 0:
            _correct_rows(verts, counts, x, targets, rows=rows)
    else:
        # Last chance: correct, then re-certify before giving up.
        rows = np.flatnonzero(active)
        _correct_rows(verts, counts, x, targets, rows=rows)
        grad = x[rows] - targets[rows]
        s = shortest_path_batch(g, grad)
        gap = np.einsum("ij,ij->i", grad, x[rows] - s)
        if np.any(gap > cfg.gap_tol):
            raise NonConvergenceError(float(gap.max()), cfg.max_iters)
    return x if inv is None else x[inv]


def _distinct_rows(a: np.ndarray):
    """Bitwise-distinct rows of a: their indices in first-appearance order
    and the inverse map that expands them back, or (None, None) when no row
    repeats.  Rows are keyed by their bytes, far cheaper than
    np.unique(axis=0).  Zero-width rows have no bytes to key by; they are
    left ungrouped and the oracle rejects them.
    """
    nb, width = a.shape
    if width == 0:
        return None, None
    keys = np.ascontiguousarray(a).view(np.dtype((np.void, a.itemsize * width)))[:, 0]
    _, first, inv = np.unique(keys, return_index=True, return_inverse=True)
    if first.size == nb:
        return None, None
    order = np.argsort(first)
    return first[order], np.argsort(order)[inv]


def _correct_rows(verts, counts, x, targets, rows) -> None:
    """Exact projection onto each row's visited-vertex hull, in place.

    Every row with more than one vertex joins one _simplex_lsq_batch stack,
    padded to the largest vertex count; slots past a row's count (which may
    still hold vertices left behind by earlier compactions) are masked out.
    A candidate only replaces the iterate when it does not worsen the
    objective, so a garbage solve from a near-singular system can never
    hurt.  Vertices whose weight drops to zero leave the row, and only the
    vertices behind them are moved.
    """
    grp = rows[counts[rows] > 1]
    if grp.size == 0:
        return
    k = int(counts[grp].max())
    valid = np.arange(k) < counts[grp, None]
    P = verts[grp, :k].astype(float)
    t = targets[grp]
    w = _simplex_lsq_batch(P, t, valid)
    x_new = (w[:, None, :] @ P)[:, 0]
    f_new = 0.5 * np.sum((x_new - t) ** 2, axis=1)
    ok = f_new <= 0.5 * np.sum((x[grp] - t) ** 2, axis=1) + 1e-15
    grp, w = grp[ok], w[ok]
    x[grp] = x_new[ok]
    keep = (w > 1e-14) & valid[ok]
    keep[np.arange(grp.size), w.argmax(axis=1)] = True  # never an empty row
    # Stable compaction: a kept vertex moves to the slot numbered by the
    # kept vertices before it, so only those behind a dropped one move.
    dst = np.cumsum(keep, axis=1) - 1
    i, j = np.nonzero(keep & (dst != np.arange(k)))
    verts[grp[i], dst[i, j]] = verts[grp[i], j]
    counts[grp] = dst[:, -1] + 1


def _simplex_lsq_batch(P: np.ndarray, t: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Minimize ||P[i]^T w[i] - t[i]||^2 over the probability simplex, per row.

    P stacks m rows of k vertex slots, shape (m, k, e); t is (m, e); the
    boolean (m, k) mask ``valid`` marks each row's real vertices, and the
    other slots (padding, whatever they hold) get weight exactly zero.
    Active-set scheme in the style of NNLS, run on all rows at once.  Each
    row's equality-constrained least squares on its current support is one
    (k+1)-square KKT system whose off-support weights are pinned to zero,
    so rows with different supports or vertex counts share one stacked
    solve.  The first pass uses every valid vertex.  A row whose candidate
    goes negative steps from its feasible weights (the centroid of its
    valid vertices at first) toward the candidate until a weight hits zero
    and drops that vertex; a row whose candidate is feasible admits its
    most violating valid vertex, and is done once none violates dual
    feasibility.  Exactly singular systems (affinely dependent paths) are
    solved with the pseudo-inverse instead (see _kkt_solve).
    """
    m, k, _ = P.shape
    G = P @ P.transpose(0, 2, 1)
    c = np.einsum("mke,me->mk", P, t)
    w = valid / valid.sum(axis=1, keepdims=True)
    support = valid.copy()
    idx = np.arange(m)
    out = np.empty((m, k))
    d = np.arange(k)
    # State arrays hold the unfinished rows only; idx maps them back.  A row
    # still cycling after 12 (k + 1) passes keeps its last feasible weights.
    for _ in range(12 * (k + 1)):
        if idx.size == 0:
            break
        n = idx.size
        kkt = np.zeros((n, k + 1, k + 1))
        kkt[:, :k, :k] = G
        kkt[:, :k, :k] *= support[:, :, None] & support[:, None, :]
        kkt[:, d, d] += ~support
        kkt[:, :k, k] = support
        kkt[:, k, :k] = support
        rhs = np.concatenate([np.where(support, c, 0.0), np.ones((n, 1))], axis=1)[:, :, None]
        sol = _kkt_solve(kkt, rhs)[:, :, 0]
        cand = np.where(support, sol[:, :k], 0.0)

        # Step from w toward an infeasible candidate until a weight hits zero.
        back = (cand < -1e-12).any(axis=1)
        diff = cand[back] - w[back]
        with np.errstate(divide="ignore", invalid="ignore"):
            alpha = np.where(diff < 0, -w[back] / diff, np.inf).min(axis=1)
        w[back] += np.clip(alpha, 0.0, 1.0)[:, None] * diff
        drop = back[:, None] & (w <= 1e-14)
        w[drop] = 0.0
        support &= ~drop

        # Dual feasibility: on the support the gradient equals -mu (the KKT
        # multiplier); no valid vertex off it may undercut that.
        w[~back] = cand[~back]
        grad = np.einsum("mij,mj->mi", G, w) - c
        viol = np.where(support | ~valid, np.inf, grad + sol[:, k, None])
        j = viol.argmin(axis=1)
        enter = ~back & (viol[np.arange(n), j] < -1e-12)
        support[enter, j[enter]] = True
        done = ~back & ~enter
        if done.any():
            out[idx[done]] = w[done]
            live = ~done
            idx, G, c, w = idx[live], G[live], c[live], w[live]
            support, valid = support[live], valid[live]
    out[idx] = w
    return np.maximum(out, 0.0)


def _kkt_solve(kkt: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a stack of KKT systems, sending only exactly singular ones to pinv.

    solve raises when any system's LU factorization meets an exact zero
    pivot; det meets the same pivot and reads 0 there.  When det flags no
    system, the whole stack goes through pinv, so this never raises.
    """
    try:
        return np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        sing = np.linalg.det(kkt) == 0.0
    if not sing.any():
        return np.linalg.pinv(kkt) @ rhs
    sol = np.empty_like(rhs)
    sol[sing] = np.linalg.pinv(kkt[sing]) @ rhs[sing]
    sol[~sing] = _kkt_solve(kkt[~sing], rhs[~sing])
    return sol
