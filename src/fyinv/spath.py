"""Contextual shortest-path estimation pipeline.

Ingests an edge list and per-trip travel records, derives observed optimal
paths by solving a shortest path under each record's realized edge times,
and fits a matrix cost parameter mapping trip context to edge costs.  The
trips live in ``SpDataset`` as three row-aligned arrays (contexts, realized
times, observed paths), validated once on construction.  A synthetic grid
generator with a planted parameter stands in for real trip data, which
cannot be bundled.

CSV formats:
  edges:   header ``edge_id,tail,head``; node ids are arbitrary strings;
           edge ids must be exactly 0..d-1 (any row order).
  records: header ``t_0,...,t_{d-1},f_1,...,f_{m-1}``; realized times must
           be strictly positive; an intercept feature fixed at 1 is
           appended automatically as the last context coordinate.
"""

from __future__ import annotations

import csv
import dataclasses
import time
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, UnsupportedRegionError
from .graphs import Graph, _is_count, shortest_path_batch
from .model import (
    CostKind,
    CostMap,
    Dataset,
    FlowPolytope,
    ForwardProblem,
    Parameter,
    Sense,
    _check_sigma,
    _frozen,
    as_parameter,
    rng_stream,
)
from .solvers import _solve_exact_batch
from .metrics import MetricsReport, _mean_sq_dist, _path_regret, parameter_error
from .train import METHODS, FitResult, SgdConfig, fy_sgd_fit, spa_fit, subopt_fit

@dataclass(frozen=True)
class SpDataset:
    """Graph plus per-trip arrays plus the derived observed paths.

    Row i of ``contexts`` holds trip i's features with the intercept, fixed
    at 1, last; row i of ``times`` holds the realized time of every edge
    during that trip; row i of ``observations`` is the 0/1 indicator of the
    shortest path under those times, the proxy for the decision a
    cost-aware traveler would have taken.  All three are validated once and
    stored as read-only copies.  ``theta_star`` is only set by the synthetic
    generator, as a parameter of num_edges * m entries; it stays None for
    ingested data.  The fit runs on the graph's ``FlowPolytope``; the graph
    is acyclic, as every ``Graph`` is.
    """

    graph: Graph
    contexts: np.ndarray
    times: np.ndarray
    observations: np.ndarray
    theta_star: Parameter | None = None

    def __post_init__(self):
        u, t, ys = (_frozen(a) for a in (self.contexts, self.times, self.observations))
        if u.ndim != 2 or t.ndim != 2 or ys.ndim != 2:
            raise ValueError("contexts, times and observations must be 2-D arrays")
        shape = (u.shape[0], self.graph.num_edges)
        if t.shape != shape or ys.shape != shape:
            raise ValueError(f"times and observations must have shape {shape}")
        if shape[0] == 0:
            raise ValueError("a dataset needs at least one trip")
        if u.shape[1] == 0 or np.any(u[:, -1] != 1.0):
            raise ValueError("contexts must end with an intercept equal to 1")
        if not np.isfinite(u).all():
            raise ValueError("contexts must be finite")
        if not (t.min() > 0 and t.max() < np.inf):  # a NaN fails both
            raise ValueError("realized edge times must be finite and strictly positive")
        object.__setattr__(self, "contexts", u)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "observations", ys)
        if self.theta_star is not None:
            cm = _flow_problem(self).cost_map
            object.__setattr__(self, "theta_star", as_parameter(self.theta_star, cm))

    def __len__(self) -> int:
        return self.contexts.shape[0]

    @property
    def m(self) -> int:
        return self.contexts.shape[1]

    def subset(self, idx) -> "SpDataset":
        idx = np.asarray(idx, dtype=int)
        return SpDataset(
            self.graph,
            self.contexts[idx],
            self.times[idx],
            self.observations[idx],
            self.theta_star,
        )


def load_graph(path, source: str, sink: str) -> Graph:
    """Read an edge CSV and return the graph with named source and sink.

    Node names are mapped to dense indices in order of first appearance;
    source and sink are looked up by name after reading all rows.  A cyclic
    edge list (a two-way street is a cycle) raises UnsupportedRegionError,
    and one with no path from source to sink raises UnreachableError.
    """
    rows: list[tuple[int, str, str]] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header] != ["edge_id", "tail", "head"]:
            raise ParseError("edge file header must be edge_id,tail,head", line=1)
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3:
                raise ParseError("expected 3 columns", line=lineno)
            try:
                eid = int(row[0])
            except ValueError:
                raise ParseError(f"bad edge_id {row[0]!r}", line=lineno) from None
            rows.append((eid, row[1].strip(), row[2].strip()))
    if not rows:
        raise ParseError("edge file has no edges")
    ids = sorted(e for e, _, _ in rows)
    if ids != list(range(len(rows))):
        raise ParseError("edge_id values must be exactly 0..d-1 with no gaps")

    names: dict[str, int] = {}
    for _, tail, head in rows:
        for nm in (tail, head):
            if nm not in names:
                names[nm] = len(names)
    for nm, role in ((source, "source"), (sink, "sink")):
        if nm not in names:
            raise ParseError(f"{role} node {nm!r} does not appear in the edge file")

    d = len(rows)
    tails = np.zeros(d, dtype=int)
    heads = np.zeros(d, dtype=int)
    for eid, tail, head in rows:
        tails[eid] = names[tail]
        heads[eid] = names[head]
    return Graph(len(names), tails, heads, names[source], names[sink])


def load_records(path, graph: Graph) -> SpDataset:
    """Read a records CSV and derive the observed paths.

    Any row with a nonpositive time, a non-numeric field, or the wrong
    column count is rejected with its line number.
    """
    d = graph.num_edges
    t_cols = [f"t_{i}" for i in range(d)]
    rows: list[np.ndarray] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError("records file is empty", line=1)
        header = [c.strip() for c in header]
        if header[:d] != t_cols:
            raise ParseError(f"first {d} columns must be t_0..t_{d - 1}", line=1)
        feat = header[d:]
        if feat != [f"f_{j + 1}" for j in range(len(feat))]:
            raise ParseError("feature columns must be f_1..f_{m-1}", line=1)
        width = len(header)
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != width:
                raise ParseError(f"expected {width} columns, got {len(row)}", line=lineno)
            try:
                vals = np.array([float(c) for c in row], dtype=float)
            except ValueError:
                raise ParseError("non-numeric field", line=lineno) from None
            if np.any(vals[:d] <= 0) or not np.all(np.isfinite(vals)):
                raise ParseError("times must be finite and strictly positive", line=lineno)
            rows.append(vals)
    if not rows:
        raise ParseError("records file has no data rows")
    vals = np.stack(rows)
    times = vals[:, :d]
    ctxs = np.column_stack([vals[:, d:], np.ones(len(rows))])
    return SpDataset(graph, ctxs, times, shortest_path_batch(graph, times))


# ---------------------------------------------------------------------------
# synthetic instance


def grid_graph(num_nodes: int = 45, num_edges: int = 93) -> Graph:
    """Directed grid from top-left to bottom-right with optional diagonals.

    Rows is the divisor of num_nodes nearest to (and at most) its square
    root, so 45 nodes form a 5 x 9 grid.  Edges are rightward, then
    downward, then the first row-major down-right diagonals until the
    requested count is reached.
    """
    if not _is_count(num_nodes, 2):
        raise ValueError("num_nodes must be an integer >= 2")
    if not _is_count(num_edges):
        raise ValueError("num_edges must be an integer >= 1")
    rows = max(r for r in range(1, int(num_nodes**0.5) + 1) if num_nodes % r == 0)
    cols = num_nodes // rows

    node = np.arange(num_nodes).reshape(rows, cols)
    base = rows * (cols - 1) + (rows - 1) * cols
    extra = num_edges - base
    diag = (rows - 1) * (cols - 1)
    if extra < 0 or extra > diag:
        raise ValueError(f"num_edges must be in [{base}, {base + diag}] for this grid")
    tails = np.concatenate([node[:, :-1].ravel(), node[:-1].ravel(), node[:-1, :-1].ravel()[:extra]])
    heads = np.concatenate([node[:, 1:].ravel(), node[1:].ravel(), node[1:, 1:].ravel()[:extra]])
    return Graph(num_nodes, tails, heads, 0, num_nodes - 1)


def planted_theta(graph: Graph, m: int = 12, seed: int = 0) -> np.ndarray:
    """Draw a d x m parameter whose predicted times are >= 1 on [0,1] features.

    Feature weights may be mildly negative; the intercept column absorbs
    the worst-case negative contribution so Theta u stays positive for
    every context in the unit cube.
    """
    if not _is_count(m, 2):
        raise ValueError("m must be an integer >= 2: one feature plus the intercept")
    rng = rng_stream(seed, 41)
    d = graph.num_edges
    w = rng.uniform(-0.3, 1.0, size=(d, m - 1))
    intercept = rng.uniform(1.0, 3.0, size=d) + np.clip(-w, 0.0, None).sum(axis=1)
    return np.column_stack([w, intercept])


def synth_graph_instance(
    num_nodes: int = 45,
    num_edges: int = 93,
    m: int = 12,
    theta_star=None,
    n: int = 2000,
    sigma: float = 0.1,
    seed: int = 0,
) -> SpDataset:
    """Generate a grid instance with planted parameter and multiplicative noise.

    Realized times are Theta* u scaled by a mean-one lognormal factor
    exp(sigma * z - sigma^2 / 2), clamped below at 0.01; observations are
    the shortest paths under those realized times.
    """
    _check_sigma(sigma)
    if float(sigma) * float(sigma) == np.inf:  # on Python floats: ** would raise, np.float64 warn
        raise ValueError("sigma is too large: its square overflows")
    if not _is_count(m, 2):
        raise ValueError("m must be an integer >= 2: one feature plus the intercept")
    if not _is_count(n):
        raise ValueError("n must be an integer >= 1")
    g = grid_graph(num_nodes, num_edges)
    if theta_star is None:
        theta = planted_theta(g, m, seed)
    else:
        theta = np.asarray(theta_star, dtype=float)
        if theta.shape != (g.num_edges, m):
            raise ValueError("theta_star must have shape (num_edges, m)")
    rng = rng_stream(seed, 42)
    feats = rng.uniform(0.0, 1.0, size=(n, m - 1))
    ctxs = np.column_stack([feats, np.ones(n)])
    mean_times = ctxs @ theta.T
    factor = np.exp(sigma * rng.standard_normal((n, g.num_edges)) - sigma**2 / 2)
    times = np.maximum(mean_times * factor, 0.01)
    ys = shortest_path_batch(g, times)
    return SpDataset(g, ctxs, times, ys, Parameter(theta))


# ---------------------------------------------------------------------------
# training and evaluation


def _flow_problem(sp: SpDataset) -> ForwardProblem:
    cm = CostMap(CostKind.MATRIX_PRODUCT, sp.graph.num_edges, sp.m)
    return ForwardProblem(cm, FlowPolytope(sp.graph), Sense.MIN)


# Budgets are asymmetric on purpose: the smooth FY risk plateaus within a
# few epochs of SGD, while the nonsmooth baseline gets the usual 10-20x
# sample budget a 1/sqrt(t) subgradient schedule needs to flatten out.
# FY here sees 100 x 96 sample gradients (8 epochs of a 1200-row train
# split), the baseline 12000 x 16 (160 epochs).  The two suboptimality fits
# keep theta on the unit sphere: on this multiplicative cost map theta = 0
# is a zero-risk minimizer they would otherwise never leave.
_DEFAULT_CFG = {
    "FY": SgdConfig(
        learning_rate=0.25,
        batch_size=96,
        max_iters=100,
        lam=0.5,
        eval_every=100,
        gap_tol=2e-2,
    ),
    "SUBOPT": SgdConfig(
        learning_rate=0.5,
        batch_size=16,
        max_iters=12000,
        step_decay="inv_sqrt",
        eval_every=1000,
        unit_norm=True,
    ),
    "SPA": SgdConfig(
        learning_rate=0.5,
        batch_size=16,
        max_iters=2000,
        step_decay="inv_sqrt",
        eval_every=1000,
        unit_norm=True,
    ),
}


def train_test_split(n: int, seed: int):
    """Deterministic shuffled index split, 60% train."""
    perm = rng_stream(seed, 43).permutation(n)
    k = int(round(0.6 * n))
    if k == 0 or k == n:
        raise ValueError("split leaves an empty side")
    return perm[:k], perm[k:]


def sp_fit(sp: SpDataset, method: str, cfg=None, seed: int = 0) -> FitResult:
    """Fit the edge-cost parameter on the full given dataset."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method == "KKA":
        raise UnsupportedRegionError(
            "KKA needs an explicit inequality description; flow regions have none here"
        )
    fp = _flow_problem(sp)
    ds = Dataset(sp.contexts, sp.observations)
    cfg = dataclasses.replace(_DEFAULT_CFG[method] if cfg is None else cfg, seed=seed)
    fitters = {"FY": fy_sgd_fit, "SUBOPT": subopt_fit, "SPA": spa_fit}
    return fitters[method](fp, ds, cfg)


def sp_run(sp: SpDataset, method: str, cfg=None, seed: int = 0) -> MetricsReport:
    """Split 60/40, fit, and score one method against the clairvoyant benchmark.

    Decision error compares predicted paths to the observed (clairvoyant)
    ones on the test split; regret is the mean realized-time excess of the
    predicted path, and the relative ratio expresses it as a percentage of
    the clairvoyant mean.  Parameter error is only available when the
    dataset carries a planted parameter.
    """
    t0 = time.perf_counter()
    tr_idx, te_idx = train_test_split(len(sp), seed)
    fit = sp_fit(sp.subset(tr_idx), method, cfg, seed)

    test = sp.subset(te_idx)
    fp = _flow_problem(sp)
    xs_hat = _solve_exact_batch(fp, fp._canonical_costs(fit.theta.values, test.contexts))
    ys = test.observations
    dec_err = _mean_sq_dist(xs_hat, ys)
    reg, ratio = _path_regret(test.times, xs_hat, ys)
    if sp.theta_star is not None:
        p_err = parameter_error(fit.theta, sp.theta_star)
    else:
        p_err = float("nan")
    return MetricsReport(
        parameter_error=p_err,
        decision_error=dec_err,
        regret=reg,
        relative_regret_ratio=ratio,
        n_test=len(te_idx),
        wall_time=time.perf_counter() - t0,
    )
