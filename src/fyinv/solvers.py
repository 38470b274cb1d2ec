"""Forward solvers: closed-form projections and Frank-Wolfe for flow regions.

Everything here works on the canonical max form

    max_{x in region}  hc^T x - (lam_eff / 2) ||x||^2

whose solution for lam_eff > 0 is the Euclidean projection of hc / lam_eff
onto the region, and for lam_eff = 0 an extreme point chosen by a
deterministic tie-break.
"""

from __future__ import annotations

import numpy as np

from .errors import NonConvergenceError
from .graphs import Graph, shortest_path_batch
from .model import (
    Ball,
    Box,
    ForwardProblem,
    NonNegL1Cap,
    Region,
    _check_point,
)

__all__ = ["project", "solve_exact", "solve_regularized"]


# Frank-Wolfe's default duality-gap tolerance, and the iteration budget of
# every projection: far above the most any projection took in seed-0 grid
# replications (12 for FY at gap_tol 2e-1, its one zero target at theta = 0,
# in 14 oracle calls; 60 for SPA's 1,200 rows) or in grad-check SP (1).
_GAP_TOL = 1e-6
_FW_MAX_ITERS = 2000


def _check_gap_tol(gap_tol: float) -> None:
    if not 0 < gap_tol < np.inf:
        raise ValueError("gap_tol must be positive and finite")


# ---------------------------------------------------------------------------
# projection onto a region: one checked single-point entry, one batch path
# that dispatches to the closed forms or to Frank-Wolfe


def project(region: Region, v, gap_tol=_GAP_TOL) -> np.ndarray:
    """Euclidean projection of the point v onto the region.

    Box, Ball and NonNegL1Cap have closed forms (clipping, rescaling, the
    sorted-threshold shift onto the capped simplex); a FlowPolytope runs
    Frank-Wolfe to the duality gap ``gap_tol`` (see _fw_project_batch),
    which raises NonConvergenceError if its budget runs out.  v must be one
    finite 1-D point of the region's dimension, and gap_tol positive and
    finite; anything else raises ValueError.
    """
    _check_gap_tol(gap_tol)
    v = _check_point(region, v)
    if not np.isfinite(v).all():
        raise ValueError("v must be finite")
    return _project_region_batch(region, v[None, :], gap_tol)[0]


def _project_box_batch(vs: np.ndarray, lo, hi) -> np.ndarray:
    return np.clip(vs, lo, hi)


def _project_ball_batch(vs: np.ndarray, radius: float) -> np.ndarray:
    nrm = _row_norms(vs)
    scale = np.ones_like(nrm)
    outside = nrm > radius
    scale[outside] = radius / nrm[outside]
    return _rescale_overflowed(vs * scale[:, None], vs, nrm, radius)


def _row_norms(vs: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row: inf, with no warning, where it overflows."""
    with np.errstate(over="ignore"):
        return np.linalg.norm(vs, axis=1)


def _rescale_overflowed(out: np.ndarray, vs: np.ndarray, nrm: np.ndarray, radius: float) -> np.ndarray:
    """out, with each row whose norm nrm overflowed to inf replaced by
    radius * v / ||v||, the norm taken after dividing v by its largest
    magnitude.  Rows with a finite norm keep their bits."""
    huge = np.isinf(nrm)
    if huge.any():
        v = vs[huge]
        v = v / np.abs(v).max(axis=1, keepdims=True)
        out[huge] = (radius / np.linalg.norm(v, axis=1))[:, None] * v
    return out


def _project_nonneg_l1cap_batch(vs: np.ndarray, cap: float) -> np.ndarray:
    """Rows of vs projected onto {x >= 0, sum(x) <= cap}.

    A clipped row that satisfies the cap is the answer; otherwise the sum
    constraint is tight and the projection is max(v - tau, 0), with tau
    found from the sorted row so the coordinates sum to cap.  O(d log d).
    A tight projection is the same for v and v - c, so a row whose top
    entry swallows the cap in rounding (above about cap x 2^53) is solved
    as v - max(v), with entries below -cap (which project to 0 either way)
    raised to -cap so its sums stay finite; every other row keeps its bits.
    The projection is positively homogeneous, so a finite row whose clipped
    sum overflows is solved divided by the power of two s >= d, which keeps
    its sums finite and scales exactly, and multiplied back by s.
    """
    out = np.maximum(vs, 0.0)
    with np.errstate(over="ignore"):
        sums = out.sum(axis=1)
    over = sums > cap
    huge = np.isinf(sums)
    if huge.any():
        huge &= np.isfinite(vs).all(axis=1)
        over &= ~huge
        s = 2.0 ** (vs.shape[1] - 1).bit_length()
        out[huge] = s * _project_nonneg_l1cap_batch(vs[huge] / s, cap / s)
    if over.any():
        v = vs[over]
        css, rho = _cap_prefix(v, cap)
        lost = rho == 0
        if lost.any():
            with np.errstate(over="ignore"):  # -inf entries are raised to -cap
                shifted = v[lost] - v[lost].max(axis=1, keepdims=True)
            v[lost] = np.maximum(shifted, -cap)
            css[lost], rho[lost] = _cap_prefix(v[lost], cap)
        tau = (css[np.arange(v.shape[0]), rho - 1] - cap) / rho
        out[over] = np.maximum(v - tau[:, None], 0.0)
    return out


def _cap_prefix(v: np.ndarray, cap: float):
    """Cumulative sums of each row sorted in descending order, and rho: the
    count of leading sorted entries that stay above the threshold tau.

    The first entry's test u1 - (u1 - cap) > 0 is cap > 0 in exact
    arithmetic, but rounds to 0 when u1 dwarfs cap; such a row reads rho = 0.
    """
    u = -np.sort(-v, axis=1)
    css = np.cumsum(u, axis=1)
    # the test holds on a prefix; rho is the largest j that passes it
    rho = (u - (css - cap) / np.arange(1, v.shape[1] + 1) > 0).sum(axis=1)
    return css, rho


def _project_region_batch(
    region: Region, vs: np.ndarray, gap_tol=_GAP_TOL, *, batch_mean: bool = False
) -> np.ndarray:
    if isinstance(region, Box):
        return _project_box_batch(vs, region.lo, region.hi)
    if isinstance(region, Ball):
        return _project_ball_batch(vs, region.radius)
    if isinstance(region, NonNegL1Cap):
        return _project_nonneg_l1cap_batch(vs, region.cap)
    return _fw_project_batch(region.graph, np.asarray(vs, dtype=float), gap_tol, batch_mean=batch_mean)


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
        nrm = _row_norms(hcs)
        safe = np.where(nrm > 0, nrm, 1.0)
        out = np.where(nrm[:, None] > 0, (region.radius / safe)[:, None] * hcs, 0.0)
        return _rescale_overflowed(out, hcs, nrm, region.radius)
    if isinstance(region, NonNegL1Cap):
        k = hcs.argmax(axis=1)  # lowest index on ties
        x = np.zeros(hcs.shape)
        rows = np.arange(hcs.shape[0])
        x[rows, k] = region.cap * (hcs[rows, k] > 0)  # cap, or 0.0 (cap > 0)
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


def solve_regularized(fp: ForwardProblem, theta, u, lam: float, *, gap_tol=_GAP_TOL) -> np.ndarray:
    """Unique optimum of the quadratically regularized forward problem.

    Solves max hc^T x - ((base_quad + lam)/2)||x||^2 over the region, i.e.
    projects hc / (base_quad + lam).  Requires 0 < lam < inf, a lam that
    keeps hc / (base_quad + lam) finite, and a positive, finite gap_tol
    (Frank-Wolfe's tolerance on flow regions).
    """
    _check_gap_tol(gap_tol)
    hcs = fp.canonical_cost(theta, u)[None, :]
    _check_lam(fp, hcs, lam)
    return _solve_reg_batch(fp, hcs, lam, gap_tol)[0]


def _check_lam(fp: ForwardProblem, hcs: np.ndarray, lam: float) -> None:
    """ValueError unless 0 < lam < inf and finite costs hcs stay finite
    when scaled to the targets hc / (base_quad + lam).  Costs that are not
    finite already pass: the fits report them as DivergedError."""
    if not 0 < lam < np.inf:
        raise ValueError("lam must be positive and finite")
    with np.errstate(over="ignore"):
        targets = hcs / (fp.base_quad + lam)
    if np.isfinite(hcs).all() and not np.isfinite(targets).all():
        raise ValueError(f"lam = {lam:g} is too small: hc / (base_quad + lam) overflows")


def _solve_exact_batch(fp: ForwardProblem, hcs: np.ndarray) -> np.ndarray:
    if fp.base_quad > 0:
        return _project_region_batch(fp.region, hcs / fp.base_quad)
    return _linear_argmax_batch(fp.region, hcs)


def _solve_reg_batch(fp: ForwardProblem, hcs: np.ndarray, lam: float, gap_tol=_GAP_TOL) -> np.ndarray:
    """Regularized optima of a batch; on flow regions certified by the
    batch-mean duality gap (see _fw_project_batch).  Every caller averages
    the rows (the FY loss and gradient, calibration's mean distance), and
    that certificate keeps the per-row error bounds on those means while
    it stops the batch instead of running more rounds for its slowest few
    rows.  A single row stops exactly where the per-row rule does."""
    lam_eff = fp.base_quad + lam
    return _project_region_batch(fp.region, hcs / lam_eff, gap_tol, batch_mean=True)


# ---------------------------------------------------------------------------
# Frank-Wolfe projection onto the path polytope

# Frank-Wolfe iterations between corrections, for every projection; the
# first block goes uncorrected, so the first correction comes after
# iteration 2 x _CORRECT_EVERY.  A fully corrective step pays off only once
# plain Frank-Wolfe stalls on a face (Lacoste-Julien & Jaggi, NeurIPS 2015),
# and most batches certify before that.  In a seed-0 grid FY replication
# (batch-mean certificate, gap_tol 2e-1) 97 of its 100 training batches
# certify within 8 iterations, and skipping the first-block correction cut
# the corrections from 92 to 9 for 710 oracle calls instead of 699.  SPA's
# 1,200-row projection (per-row certificate, 1e-6) did not move: over
# seeds 100-111 its oracle calls changed by -4 to +4 and its time by a
# median ratio of 1.02 (IQR 0.97-1.08), inside the host's noise.  After
# the first block 4 beat 8 (SPA's projection took about 0.9 s against
# 1.6-2.0 s on 2 vCPUs), and 1, fully corrective, ran slower than 4
# (ROADMAP, "Already ruled out").
_CORRECT_EVERY = 4


def _fw_project_batch(
    g: Graph, targets: np.ndarray, gap_tol: float, *, batch_mean: bool = False
) -> np.ndarray:
    """Projection of each row of ``targets`` onto the graph's path polytope.

    Frank-Wolfe with the shortest-path oracle and exact line search.  A
    row's duality gap bounds the suboptimality of its objective
    0.5 ||x - t||^2, which is 1-strongly convex, so it certifies
    ||x - projection||^2 <= 2 * gap (Jaggi, ICML 2013).  Each row leaves
    the working set once its gap is at most gap_tol, and the call returns
    when every row has left: the per-row certificate.

    With ``batch_mean`` the whole batch also stops at the first pass where
    the mean of the rows' last measured gaps (each clamped at 0) is at most
    gap_tol: the batch certificate.  It keeps the per-row bounds on the
    row means a caller averages.  By Jensen,
    mean ||x_i - x_i*|| <= sqrt(mean ||x_i - x_i*||^2) <= sqrt(2 gap_tol);
    and at targets t = hc / lam_eff the regularized value
    hc . x - (lam_eff / 2) ||x||^2 is lam_eff (||t||^2 / 2 - 0.5 ||x - t||^2),
    so a mean of such values (the FY loss) is off by at most
    lam_eff * gap_tol.  A one-row batch stops exactly where the per-row
    rule does.

    The pass after _FW_MAX_ITERS iterations only certifies, and raises
    NonConvergenceError (carrying the final gap, the largest row's or the
    batch mean, and the budget) if the certificate still fails; the budget
    is a multiple of _CORRECT_EVERY larger than it, so its last iteration
    ends in a correction and that pass sees a corrected iterate.

    Plain line-search Frank-Wolfe stalls at O(1/t) once the solution lies on
    a face, so after iteration 2 x _CORRECT_EVERY, and every _CORRECT_EVERY
    iterations from there, each row's iterate is replaced by the exact
    projection onto the hull of the vertices it has visited, as an
    active-set solve (from the centroid) over all those rows padded to
    their largest vertex count (_correct_rows).  With the optimal face's
    vertices in hand that snaps the iterate onto the true projection and
    the gap collapses to roundoff.

    Per-row state (visited vertices and the iterate) lives in padded
    arrays, each vertex a 0/1 path packed 8 edges to a byte; rows whose
    duality gap certificate is met drop out of the working set.  The gap
    is checked before stepping, so a row whose very first vertex is
    optimal is returned untouched.  Only a correction reads the visited
    vertices, so each iteration's packed oracle paths wait in a list and
    are matched against the stored ones and stored, iteration by
    iteration with the same capacity doubling, right before the next
    correction.  That leaves the same vertices and counts, bit for bit, as
    storing them on every iteration, and a batch that certifies before its
    first correction never stores a path.

    Bitwise-equal targets share one solve: only the distinct rows, in
    first-appearance order, run, and the result is expanded back.  A row's
    trajectory depends only on its own target and on batch-level values
    (the vertex cap, the padded width of each correction, the batch mean
    gap, taken over the expanded rows) that are the same for the distinct
    rows as for the whole batch, so the output is bitwise identical to
    solving every row.  Corrections unpack the vertices in row
    blocks of about 2 MiB, each padded to the correction's group-wide width,
    so the block size does not change the bits either.
    """
    first, inv = _distinct_rows(targets)
    if first is not None:
        targets = targets[first]
    nb = targets.shape[0]
    x = shortest_path_batch(g, -targets)
    cap = 8
    # Vertices are 0/1 paths, stored exactly as packed bits.
    verts = np.zeros((nb, cap, -(-targets.shape[1] // 8)), dtype=np.uint8)
    verts[:, 0] = np.packbits(x.astype(bool), axis=1)
    counts = np.ones(nb, dtype=np.int64)
    active = np.ones(nb, dtype=bool)
    last_gap = np.empty(nb)  # each row's last measured gap, clamped at 0
    pending = []  # (rows, packed oracle paths) per iteration, not yet stored

    for it in range(_FW_MAX_ITERS + 1):
        rows = np.flatnonzero(active)
        if rows.size == 0:
            break
        grad = x[rows] - targets[rows]
        s = shortest_path_batch(g, grad)
        gap = np.einsum("ij,ij->i", grad, x[rows] - s)
        if batch_mean:
            last_gap[rows] = np.maximum(gap, 0.0)
            # a repeated target counts once per copy: the bits of the mean
            # over the undeduplicated batch
            mean_gap = float((last_gap if inv is None else last_gap[inv]).mean())
            if mean_gap <= gap_tol:
                break
        done = gap <= gap_tol
        if done.any():
            active[rows[done]] = False
            keep = ~done
            if not keep.any():
                break
            rows, s, gap = rows[keep], s[keep], gap[keep]
        if it == _FW_MAX_ITERS:
            raise NonConvergenceError(mean_gap if batch_mean else float(gap.max()), _FW_MAX_ITERS)

        d = s - x[rows]
        denom = np.einsum("ij,ij->i", d, d)
        gamma = np.where(denom > 0, np.clip(gap / np.maximum(denom, 1e-300), 0.0, 1.0), 1.0)
        x[rows] += gamma[:, None] * d
        pending.append((rows, np.packbits(s.astype(bool), axis=1)))
        del grad, d, s  # freed before a correction unpacks its block

        if (it + 1) % _CORRECT_EVERY == 0 and it + 1 > _CORRECT_EVERY:
            for step_rows, paths in pending:  # the store, in iteration order
                kmax = int(counts[step_rows].max())
                if kmax == cap:
                    cap *= 2
                    verts = np.concatenate([verts, np.zeros_like(verts)], axis=1)
                hit = (verts[step_rows, :kmax] == paths[:, None, :]).all(axis=2)
                hit &= np.arange(kmax)[None, :] < counts[step_rows, None]
                found = hit.any(axis=1)
                fresh = step_rows[~found]
                verts[fresh, counts[fresh]] = paths[~found]
                counts[fresh] += 1
            pending.clear()
            _correct_rows(verts, counts, x, targets, rows=rows)
    return x if inv is None else x[inv]


def _distinct_rows(a: np.ndarray):
    """Bitwise-distinct rows of a: their indices in first-appearance order
    and the inverse map that expands them back, or (None, None) when no row
    repeats.  Rows are keyed by their bytes, far cheaper than
    np.unique(axis=0); every graph has an edge, so every row has bytes.
    In a seed-0 grid FY replication (`sp_run`) at gap_tol 2e-1, with the
    first correction after two blocks, only 2 of 102 calls repeat a
    target, both at theta = 0 where every target is zero: the start
    checkpoint (1,200 rows) and the first step (96 rows).  That skips 1,294
    of the 12,000 rows.
    """
    nb, width = a.shape
    keys = np.ascontiguousarray(a).view(np.dtype((np.void, a.itemsize * width)))[:, 0]
    _, first, inv = np.unique(keys, return_index=True, return_inverse=True)
    if first.size == nb:
        return None, None
    order = np.argsort(first)
    return first[order], np.argsort(order)[inv]


# Float64 elements of the (rows x vertices x edges) vertex stack that one
# _correct_rows block unpacks at a time: about 2 MiB.
_CORRECT_BLOCK_ELEMS = 2**18


def _correct_rows(verts, counts, x, targets, rows) -> None:
    """Exact projection onto each row's visited-vertex hull, in place.

    Every row with more than one vertex is corrected, padded to the largest
    vertex count k among them; slots past a row's count (which may still
    hold vertices left behind by earlier compactions) are masked out.  The
    rows run in blocks of about _CORRECT_BLOCK_ELEMS unpacked floats, each
    block one _simplex_lsq_batch stack padded to that same k.  A row's
    result depends only on its own vertices, its target and k, so the
    blocks give the same bits as one stack.  A candidate only replaces the
    iterate when it does not worsen the objective, so a garbage solve from
    a near-singular system can never hurt.  Vertices whose weight drops to
    zero leave the row, and only the vertices behind them are moved.
    """
    grp = rows[counts[rows] > 1]
    if grp.size == 0:
        return
    k = int(counts[grp].max())
    e = targets.shape[1]
    step = max(1, _CORRECT_BLOCK_ELEMS // (k * e))
    for lo in range(0, grp.size, step):
        blk = grp[lo : lo + step]
        valid = np.arange(k) < counts[blk, None]
        P = np.unpackbits(verts[blk, :k], axis=2, count=e).astype(float)
        t = targets[blk]
        w = _simplex_lsq_batch(P, t, valid)
        x_new = (w[:, None, :] @ P)[:, 0]
        f_new = 0.5 * np.sum((x_new - t) ** 2, axis=1)
        ok = f_new <= 0.5 * np.sum((x[blk] - t) ** 2, axis=1) + 1e-15
        blk, w = blk[ok], w[ok]
        x[blk] = x_new[ok]
        keep = (w > 1e-14) & valid[ok]
        keep[np.arange(blk.size), w.argmax(axis=1)] = True  # never an empty row
        # Stable compaction: a kept vertex moves to the slot numbered by the
        # kept vertices before it, so only those behind a dropped one move.
        dst = np.cumsum(keep, axis=1) - 1
        i, j = np.nonzero(keep & (dst != np.arange(k)))
        verts[blk[i], dst[i, j]] = verts[blk[i], j]
        counts[blk] = dst[:, -1] + 1


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
