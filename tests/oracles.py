"""Independent reference implementations the tests check the package against.

Everything here favors obviousness over speed and shares no code with the
package: alternating projections (Dykstra), Newton/bisection on scalar
water-level equations, exhaustive path enumeration, a plain-Python
shortest-path sweep under the documented tie rule, plain or
accelerated projected gradient, a plain-loop kernel bandwidth
cross-validation, and support enumeration for the KKT-residual duals.
Where two oracles cover the same object (Newton vs Dykstra for the capped
orthant) the tests also cross-check them against each other.
"""

from __future__ import annotations

import math

import numpy as np

from fyinv import Ball, Box, Graph, NonNegL1Cap


# ---------------------------------------------------------------------------
# projections


def clip_box(vs: np.ndarray, lo, hi) -> np.ndarray:
    return np.minimum(np.maximum(vs, lo), hi)


def rescale_ball(vs: np.ndarray, radius: float) -> np.ndarray:
    nrm = np.sqrt((vs * vs).sum(axis=1))
    factor = np.where(nrm > radius, radius / np.where(nrm > 0, nrm, 1.0), 1.0)
    return vs * factor[:, None]


def newton_cap(vs: np.ndarray, cap: float) -> np.ndarray:
    """Projection onto {x >= 0, sum x <= cap} by Newton on the water level.

    s(tau) = sum max(v - tau, 0) is convex, decreasing, piecewise linear
    with at most d breakpoints, so Newton from tau = 0 walks monotonically
    up through the pieces and lands on the root exactly within d+1 steps.
    """
    x = np.maximum(vs, 0.0)
    over = x.sum(axis=1) > cap
    if not over.any():
        return x
    v = vs[over]
    tau = np.zeros(v.shape[0])
    for _ in range(v.shape[1] + 3):
        y = np.maximum(v - tau[:, None], 0.0)
        g = y.sum(axis=1) - cap
        m = np.maximum((y > 0.0).sum(axis=1), 1)
        tau = tau + g / m
    out = x.copy()
    out[over] = np.maximum(v - tau[:, None], 0.0)
    return out


def dykstra_cap(v: np.ndarray, cap: float, sweeps: int = 2000) -> np.ndarray:
    """Dykstra's alternating projection between the orthant and the
    halfspace {sum x <= cap}; converges to the exact projection onto the
    intersection."""
    v = np.asarray(v, dtype=float)
    d = v.size
    x = v.copy()
    p = np.zeros(d)
    q = np.zeros(d)
    for _ in range(sweeps):
        y = np.maximum(x + p, 0.0)
        p = x + p - y
        z = y + q
        excess = z.sum() - cap
        if excess > 0:
            z = z - excess / d
        q = y + q - z
        x = z
    return np.maximum(x, 0.0)


def simplex_project(w: np.ndarray) -> np.ndarray:
    """Projection onto {w >= 0, sum w = 1} by bisection on the shift."""
    lo = float(w.min()) - 1.0
    hi = float(w.max())
    for _ in range(70):
        mid = 0.5 * (lo + hi)
        if np.maximum(w - mid, 0.0).sum() > 1.0:
            lo = mid
        else:
            hi = mid
    return np.maximum(w - hi, 0.0)


# ---------------------------------------------------------------------------
# projected-gradient solver for max hc^T x - (lam/2) ||x||^2


def pg_argmax(
    project,
    hcs: np.ndarray,
    lams: np.ndarray,
    *,
    step: float = 1e-3,
    iters: int = 100_000,
    restarts: int = 10,
    seed: int = 0,
    span: float = 5.0,
) -> np.ndarray:
    """Projected gradient ascent from several random starts, best kept.

    ``project`` must project a (rows, d) batch onto the feasible region.
    All restarts of all instances advance as one array, so the pinned
    iteration count stays affordable.
    """
    hcs = np.asarray(hcs, dtype=float)
    lams = np.asarray(lams, dtype=float)
    n, d = hcs.shape
    rng = np.random.default_rng(seed)
    x = rng.uniform(-span, span, size=(restarts * n, d))
    hc_t = np.tile(hcs, (restarts, 1))
    lam_t = np.tile(lams, restarts)[:, None]
    x = project(x)
    for _ in range(iters):
        x = project(x + step * (hc_t - lam_t * x))
    obj = (hc_t * x).sum(axis=1) - 0.5 * lam_t[:, 0] * (x * x).sum(axis=1)
    best = obj.reshape(restarts, n).argmax(axis=0)
    return x.reshape(restarts, n, d)[best, np.arange(n)]


# ---------------------------------------------------------------------------
# path enumeration and the dense hull-projection QP


def enum_paths(g: Graph) -> np.ndarray:
    """All simple source->sink paths as 0/1 edge rows, DFS order."""
    by_tail: dict[int, list[tuple[int, int]]] = {}
    for e, (t, h) in enumerate(zip(g.tails.tolist(), g.heads.tolist())):
        by_tail.setdefault(t, []).append((e, h))
    rows: list[np.ndarray] = []

    def walk(v: int, seen: set[int], edges: list[int]) -> None:
        if v == g.sink:
            row = np.zeros(g.num_edges)
            row[edges] = 1.0
            rows.append(row)
            return
        for e, h in by_tail.get(v, ()):
            if h not in seen:
                walk(h, seen | {h}, edges + [e])

    walk(g.source, {g.source}, [])
    if not rows:
        return np.zeros((0, g.num_edges))
    return np.stack(rows)


def _hull_polish(G, c, supp):
    """Active-set finish for min 0.5 w'Gw - c'w on the simplex.

    Starts from a guessed support, drops negative-weight rows, pulls in
    dual-violating rows, and only returns weights that pass the full KKT
    certificate (stationarity on support, dual feasibility off it, both
    to 1e-9).  Returns None when the pivot budget runs out; lstsq keeps
    the singular supports of duplicated/affinely dependent rows solvable.
    """
    k = G.shape[0]
    supp = sorted(set(int(i) for i in supp)) or [0]
    for _ in range(3 * k + 12):
        idx = np.array(supp)
        kk = idx.size
        kkt = np.zeros((kk + 1, kk + 1))
        kkt[:kk, :kk] = G[np.ix_(idx, idx)]
        kkt[:kk, kk] = 1.0
        kkt[kk, :kk] = 1.0
        sol = np.linalg.lstsq(kkt, np.concatenate([c[idx], [1.0]]), rcond=None)[0]
        ws, mu = sol[:kk], float(sol[kk])
        if kk > 1 and float(ws.min()) < -1e-11:
            supp.pop(int(ws.argmin()))
            continue
        w = np.zeros(k)
        w[idx] = np.maximum(ws, 0.0)
        w /= w.sum()
        grad = G @ w - c
        if float(np.abs(grad[idx] + mu).max()) > 1e-9:
            return None
        dual = grad + mu
        j = int(dual.argmin())
        if float(dual[j]) >= -1e-9:
            return w
        if j in supp:
            return None
        supp.append(j)
        supp.sort()
    return None


def hull_project(P: np.ndarray, t: np.ndarray, max_iters: int = 400_000):
    """Projection of t onto conv(rows of P): FISTA plus exact KKT polish.

    Runs accelerated projected gradient on the simplex weights and every
    few hundred iterations hands the detected support to the active-set
    polish.  Returns (point, certified); certified means the polished
    weights passed the full KKT check.
    """
    k = P.shape[0]
    if k == 1:
        return P[0].copy(), True
    G = P @ P.T
    c = P @ t
    L = max(float(np.linalg.eigvalsh(G)[-1]), 1e-12)
    w = np.full(k, 1.0 / k)
    z = w.copy()
    s = 1.0
    for it in range(max_iters):
        w_new = simplex_project(z - (G @ z - c) / L)
        s_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * s * s))
        z = w_new + ((s - 1.0) / s_new) * (w_new - w)
        w, s = w_new, s_new
        if (it + 1) % 250 != 0:
            continue
        polished = _hull_polish(G, c, np.flatnonzero(w > 1e-9))
        if polished is not None:
            return P.T @ polished, True
    return P.T @ w, False


def vi_gap(P: np.ndarray, x: np.ndarray, t: np.ndarray) -> float:
    """Worst first-order improvement of any vertex over x for 0.5||x-t||^2.

    Nonpositive (up to roundoff) exactly when x is the projection of t
    onto conv(rows of P)."""
    return float(((P - x) @ (t - x)).max())


# ---------------------------------------------------------------------------
# the documented shortest-path tie-break, in plain Python


def tie_broken_paths(g: Graph, costs: np.ndarray) -> np.ndarray:
    """Row-by-row shortest paths under the documented scan-order tie rule.

    Node positions come from Kahn's algorithm with a FIFO queue (seeded
    with the in-degree-0 nodes in index order, out-edges released in edge
    index order), then one sweep runs over the edges sorted by (tail
    position, edge index).  A node's predecessor changes only on strict
    improvement, and the path is read back from the sink.
    """
    n, m = g.num_nodes, g.num_edges
    tails = [int(t) for t in g.tails]
    heads = [int(h) for h in g.heads]
    indeg = [0] * n
    out_edges: list[list[int]] = [[] for _ in range(n)]
    for e in range(m):
        indeg[heads[e]] += 1
        out_edges[tails[e]].append(e)
    queue = [v for v in range(n) if indeg[v] == 0]
    pos: dict[int, int] = {}
    while len(pos) < len(queue):
        v = queue[len(pos)]
        pos[v] = len(pos)
        for e in out_edges[v]:
            indeg[heads[e]] -= 1
            if indeg[heads[e]] == 0:
                queue.append(heads[e])
    assert len(pos) == n, "graph has a cycle"
    order = sorted(range(m), key=lambda e: (pos[tails[e]], e))

    rows = []
    for c in np.asarray(costs, dtype=float).tolist():
        dist = [float("inf")] * n
        dist[g.source] = 0.0
        pred = [-1] * n
        for e in order:
            cand = dist[tails[e]] + c[e]
            if cand < dist[heads[e]]:
                dist[heads[e]] = cand
                pred[heads[e]] = e
        x = np.zeros(m)
        v = g.sink
        while v != g.source:
            x[pred[v]] = 1.0
            v = tails[pred[v]]
        rows.append(x)
    return np.array(rows).reshape(len(rows), m)


# ---------------------------------------------------------------------------
# random graphs


def random_dag(rng: np.random.Generator, max_nodes: int = 8) -> Graph:
    """Backbone 0->1->...->V-1 plus random forward edges, shuffled ids."""
    v = int(rng.integers(3, max_nodes + 1))
    edges = [(i, i + 1) for i in range(v - 1)]
    for i in range(v):
        for j in range(i + 2, v):
            if rng.random() < 0.45:
                edges.append((i, j))
    perm = rng.permutation(len(edges))
    edges = [edges[i] for i in perm]
    tails = np.array([e[0] for e in edges])
    heads = np.array([e[1] for e in edges])
    return Graph(v, tails, heads, 0, v - 1)


def random_cyclic(rng: np.random.Generator, max_nodes: int = 7) -> Graph:
    """A DAG with a few back edges added, so cycles exist.

    Graph rejects every cycle, so each call raises UnsupportedRegionError
    after drawing from rng; tests call it to check the rejection and to
    keep later draws from the same rng as they were.
    """
    g = random_dag(rng, max_nodes)
    tails = g.tails.tolist()
    heads = g.heads.tolist()
    back = int(rng.integers(1, 4))
    for _ in range(back):
        j = int(rng.integers(1, g.num_nodes))
        i = int(rng.integers(0, j))
        tails.append(j)
        heads.append(i)
    return Graph(g.num_nodes, np.array(tails), np.array(heads), 0, g.num_nodes - 1)


def relabel_nodes(g: Graph, rng: np.random.Generator) -> Graph:
    """The same graph under a random permutation of the node ids."""
    perm = rng.permutation(g.num_nodes)
    return Graph(g.num_nodes, perm[g.tails], perm[g.heads], int(perm[g.source]), int(perm[g.sink]))


# ---------------------------------------------------------------------------
# kernel weights and bandwidth cross-validation


def nw_weights_direct(train_ctxs, eval_ctxs, bandwidth) -> np.ndarray:
    """Gaussian weights exp(-||u_i - v_j||^2 / (2 bw^2)), eval x train, from
    one (eval x train x m) difference tensor.  A 1-D array of bandwidths
    stacks one eval x train block per bandwidth."""
    bw = np.asarray(bandwidth, dtype=float)
    d2 = np.sum((eval_ctxs[:, None, :] - train_ctxs[None, :, :]) ** 2, axis=2)
    return np.exp(-d2 / (2.0 * bw[..., None, None] ** 2))


def cv_bandwidth_scores(contexts, decisions, bandwidths, folds: int, seed: int) -> list:
    """Held-out Nadaraya-Watson squared error per bandwidth, by plain loops.

    Point i sits in fold perm[i] % folds, where perm is the shuffle drawn
    from SeedSequence(seed, spawn_key=(7,)).  Each fold is predicted from
    the others with Gaussian weights exp(-||u_i - u_j||^2 / (2 bw^2)); the
    score is the summed squared error over the held-out points divided by
    their count.  A bandwidth that leaves some held-out point with zero
    kernel mass scores inf.
    """
    ctxs = np.asarray(contexts, dtype=float).tolist()
    ys = np.asarray(decisions, dtype=float).tolist()
    n = len(ctxs)
    folds = min(folds, n)
    perm = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(7,))).permutation(n)
    fold_of = [int(perm[i]) % folds for i in range(n)]
    scores = []
    for bw in bandwidths:
        sse, count = 0.0, 0
        for f in range(folds):
            held = [i for i in range(n) if fold_of[i] == f]
            train = [j for j in range(n) if fold_of[j] != f]
            if not held or not train:
                continue
            for i in held:
                ws = []
                for j in train:
                    d2 = sum((a - b) ** 2 for a, b in zip(ctxs[i], ctxs[j]))
                    ws.append(math.exp(-d2 / (2.0 * bw * bw)))
                mass = sum(ws)
                if mass == 0.0:
                    sse = math.inf
                    continue
                for c in range(len(ys[i])):
                    pred = sum(w * ys[j][c] for w, j in zip(ws, train)) / mass
                    sse += (pred - ys[i][c]) ** 2
            count += len(held)
        scores.append(sse / max(count, 1))
    return scores


# ---------------------------------------------------------------------------
# KKT-residual duals


def _kkt_system(region, hc: np.ndarray, y: np.ndarray):
    """(M, c) with the squared KKT residual of one observation = ||M z - c||^2.

    Rows are stationarity, then the two complementary-slackness blocks.
    Box duals are z = (lam_hi, lam_lo): lam_hi - lam_lo = hc,
    lam_hi (y - hi) = 0 and lam_lo (lo - y) = 0.  Capped-orthant duals are
    z = (mu, nu): mu - nu = hc, mu (sum y - cap) = 0 and nu y = 0.
    """
    d = hc.size
    eye = np.eye(d)
    zeros = np.zeros((d, d))
    if isinstance(region, Box):
        m = np.block([
            [eye, -eye],
            [np.diag(y - region.hi), zeros],
            [zeros, np.diag(region.lo - y)],
        ])
        return m, np.concatenate([hc, np.zeros(2 * d)])
    col = np.ones((d, 1))
    m = np.block([
        [col, -eye],
        [np.array([[y.sum() - region.cap]]), np.zeros((1, d))],
        [np.zeros((d, 1)), -np.diag(y)],
    ])
    return m, np.concatenate([hc, np.zeros(d + 1)])


def kkt_residual(region, hc, y, z) -> float:
    """Squared KKT residual of one observation at duals z."""
    m, c = _kkt_system(region, np.asarray(hc, dtype=float), np.asarray(y, dtype=float))
    r = m @ np.asarray(z, dtype=float) - c
    return float(r @ r)


def kkt_duals(region, hc, y) -> np.ndarray:
    """Nonnegative duals minimizing the squared KKT residual of one observation.

    A nonnegative least-squares problem solved by enumerating every support
    set: least squares on the support, kept when nonnegative, best residual
    wins.  The optimum's own support reproduces it, so this is exact up to
    the least-squares solve; it costs 2^(#duals) solves, so keep d small.
    """
    m, c = _kkt_system(region, np.asarray(hc, dtype=float), np.asarray(y, dtype=float))
    q = m.shape[1]
    best, best_z = math.inf, None
    for mask in range(1 << q):
        support = [i for i in range(q) if mask >> i & 1]
        z = np.zeros(q)
        if support:
            z[support] = np.linalg.lstsq(m[:, support], c, rcond=None)[0]
        if np.any(z < 0.0):
            continue
        r = m @ z - c
        if r @ r < best:
            best, best_z = float(r @ r), z
    return best_z


# ---------------------------------------------------------------------------
# misc helpers


def fd_grad(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Full central-difference gradient, one coordinate at a time."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def sample_region(region, d: int, rng: np.random.Generator) -> np.ndarray:
    """A random strictly feasible point of a Box, Ball, or NonNegL1Cap."""
    if isinstance(region, Box):
        return rng.uniform(region.lo, region.hi)
    if isinstance(region, Ball):
        z = rng.standard_normal(d)
        z /= max(np.linalg.norm(z), 1e-12)
        return region.radius * rng.random() ** (1.0 / d) * z
    if isinstance(region, NonNegL1Cap):
        w = rng.uniform(0.0, 1.0, d)
        return w / max(w.sum(), 1e-12) * region.cap * rng.random()
    raise ValueError(f"no sampler for {type(region).__name__}")
