"""Span tracer for the benchmark, installed from outside the fyinv package.

Each traced call records one span: layer name, call site (the module whose
namespace the call went through), start, end, parent span, replication id,
batch rows in, and bytes of a computed temporary where one is named.  Spans
stay in memory and are written out when the run ends.

fyinv modules import names with ``from .x import y``, so a wrapper placed
only in the defining module would miss every call made through another
module's namespace.  ``Tracer.install`` therefore patches every ``fyinv``
namespace that holds the function, and ``uninstall`` puts the previous
objects back.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict
from functools import cached_property

import numpy as np

# Span record fields (lists, not objects: a traced pass holds ~50k spans).
NAME, SITE, START, END, PARENT, REP, ROWS, NBYTES, NESTED = range(9)

# Batch-size buckets for the shortest-path oracle: FY training (96) and the
# subgradient baseline (16) land in different buckets, risk evaluation and
# observation derivation (1200, 2000) in the large one.
SP_BUCKETS = (("b_small", 1, 16), ("b_mid", 17, 128), ("b_large", 129, None))


def _nrows(pos: int, key: str):
    def get(args, kwargs):
        return len(args[pos] if len(args) > pos else kwargs[key])

    return get


def _nw_temp_bytes(args, kwargs):
    """Bytes of the (eval x train x m) float64 temporary in _nw_weights."""
    train = args[0] if args else kwargs["train_ctxs"]
    evl = args[1] if len(args) > 1 else kwargs["eval_ctxs"]
    return evl.shape[0] * train.shape[0] * train.shape[1] * 8


# (defining module, attribute, layer name, rows-in getter)
TARGETS = (
    ("fyinv.graphs", "shortest_path_batch", "graphs.shortest_path_batch", _nrows(1, "costs")),
    ("fyinv.solvers", "_fw_project_batch", "solvers._fw_project_batch", _nrows(1, "targets")),
    ("fyinv.solvers", "_correct_rows", "solvers._correct_rows", _nrows(5, "rows")),
    ("fyinv.solvers", "_simplex_lsq", "solvers._simplex_lsq", None),
    ("fyinv.solvers", "_project_box_batch", "solvers.closed_form", _nrows(0, "vs")),
    ("fyinv.solvers", "_project_ball_batch", "solvers.closed_form", _nrows(0, "vs")),
    ("fyinv.solvers", "_project_nonneg_l1cap_batch", "solvers.closed_form", _nrows(0, "vs")),
    ("fyinv.losses", "_fy_batch", "losses._fy_batch", _nrows(2, "ctxs")),
    ("fyinv.losses", "_subopt_batch", "losses._subopt_batch", _nrows(2, "ctxs")),
    ("fyinv.losses", "kka_objective", "losses.kka", None),
    ("fyinv.losses", "kka_grad", "losses.kka", None),
    ("fyinv.train", "fy_sgd_fit", "train.fit", _nrows(1, "ds")),
    ("fyinv.train", "subopt_fit", "train.fit", _nrows(1, "ds")),
    ("fyinv.train", "kka_fit", "train.fit", _nrows(1, "ds")),
    ("fyinv.train", "spa_fit", "train.fit", _nrows(1, "ds")),
    ("fyinv.train", "nw_denoise", "train.nw", _nrows(0, "ds")),
    ("fyinv.train", "_cv_bandwidth", "train.nw", _nrows(0, "ds")),
    ("fyinv.metrics", "decision_error", "metrics.decision_error", None),
    ("fyinv.metrics", "regret", "metrics.regret", None),
    ("fyinv.spath", "sp_run", "spath.sp_run", None),
    ("fyinv.spath", "sp_fit", "spath.sp_fit", None),
    ("fyinv.spath", "synth_graph_instance", "spath.synth_graph_instance", None),
    ("fyinv.synth", "generate", "synth.generate", None),
    ("fyinv.cli", "main", "cli.main", None),
    ("fyinv.cli", "_execute", "cli._execute", None),
    ("fyinv.cli", "_run_cell", "cli._run_cell", None),
)


def _unwraps_to(obj, target) -> bool:
    while obj is not None:
        if obj is target:
            return True
        obj = getattr(obj, "__wrapped__", None)
    return False


def fyinv_sites(target):
    """(module, attribute) pairs of every fyinv namespace bound to ``target``.

    Objects that wrap ``target`` (through ``__wrapped__``) count too, so a
    capture wrapper the benchmark installed earlier gets traced around.
    """
    for modname in sorted(sys.modules):
        if modname != "fyinv" and not modname.startswith("fyinv."):
            continue
        mod = sys.modules[modname]
        for attr, val in list(vars(mod).items()):
            if callable(val) and _unwraps_to(val, target):
                yield mod, attr


class Tracer:
    """Records spans around calls into fyinv; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []
        self.rep = 0
        self.missing: list[str] = []
        self.sites: list[str] = []
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str, site: str, rows: int = 0, nbytes: int = 0) -> int:
        parent = self._stack[-1] if self._stack else -1
        nested = self._depth[name] > 0
        self._depth[name] += 1
        self.spans.append([name, site, time.perf_counter(), 0.0, parent, self.rep, rows, nbytes, nested])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        rec = self.spans[idx]
        rec[END] = time.perf_counter()
        self._stack.pop()
        self._depth[rec[NAME]] -= 1

    def call(self, name: str, site: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span recorded from the benchmark's own code."""
        idx = self._open(name, site)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def _wrap(self, fn, name: str, site: str, rows_of=None, bytes_of=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rows = rows_of(args, kwargs) if rows_of else 0
            nbytes = bytes_of(args, kwargs) if bytes_of else 0
            idx = self._open(name, site, rows, nbytes)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    # -- installation ----------------------------------------------------

    def _patch(self, module, attr: str, new) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        self.sites.append(f"{module.__name__}.{attr}")
        setattr(module, attr, new)

    def _resolve(self, modname: str, attr: str):
        fn = getattr(sys.modules[modname], attr, None)
        if fn is None:
            self.missing.append(f"{modname}.{attr}")
            return None
        return inspect.unwrap(fn)

    def install(self) -> None:
        """Wrap every target in every fyinv namespace that holds it."""
        self.missing, self.sites = [], []
        for modname, attr, name, rows_of in TARGETS:
            fn = self._resolve(modname, attr)
            if fn is None:
                continue
            for mod, local in fyinv_sites(fn):
                self._patch(mod, local, self._wrap(getattr(mod, local), name, mod.__name__, rows_of))
        self._install_special()

    def _install_special(self) -> None:
        fn = self._resolve("fyinv.solvers", "_linear_argmax_batch")
        if fn is not None:
            flow = sys.modules["fyinv.model"].FlowPolytope
            for mod, local in fyinv_sites(fn):
                self._patch(mod, local, self._argmax_wrapper(getattr(mod, local), mod.__name__, flow))

        fn = self._resolve("fyinv.train", "_nw_weights")
        if fn is not None:
            for mod, local in fyinv_sites(fn):
                self._patch(mod, local, self._wrap(
                    getattr(mod, local), "train.nw_weights", mod.__name__, _nrows(1, "eval_ctxs"), _nw_temp_bytes
                ))

        fn = self._resolve("fyinv.train", "_run_sgd")
        if fn is not None:
            for mod, local in fyinv_sites(fn):
                self._patch(mod, local, self._driver_wrapper(getattr(mod, local), mod.__name__))

        graph_cls = sys.modules["fyinv.graphs"].Graph
        prop = vars(graph_cls).get("_topo_edge_order")
        if isinstance(prop, cached_property):
            traced = cached_property(self._wrap(prop.func, "graphs.topo_order", "fyinv.graphs"))
            traced.__set_name__(graph_cls, "_topo_edge_order")
            self._patch(graph_cls, "_topo_edge_order", traced)
        else:
            self.missing.append("fyinv.graphs.Graph._topo_edge_order")

    def _argmax_wrapper(self, inner, site: str, flow_cls):
        # Non-flow linear argmax is closed form; on flow regions it only
        # forwards to the oracle, whose own span covers it.
        traced = self._wrap(inner, "solvers.closed_form", site, _nrows(1, "hcs"))

        @functools.wraps(inner)
        def pick(region, hcs):
            return (inner if isinstance(region, flow_cls) else traced)(region, hcs)

        return pick

    def _driver_wrapper(self, inner, site: str):
        # The shared SGD driver takes its step and risk closures as
        # arguments; wrapping them splits driver time into its two phases.
        @functools.wraps(inner)
        def driver(fp, ds, cfg, batch_step, full_risk):
            step = self._wrap(batch_step, "train.step", site, _nrows(1, "idx"))
            risk = self._wrap(full_risk, "train.risk_eval", site)
            return self.call("train.driver", site, inner, fp, ds, cfg, step, risk)

        return driver

    def uninstall(self) -> None:
        while self._patches:
            module, attr, old = self._patches.pop()
            setattr(module, attr, old)


# ---------------------------------------------------------------------------
# per-layer metrics of one traced replication

# name -> (unit, kind); "count" metrics must repeat exactly at a fixed seed,
# "time" metrics are reported as the median over traced passes.
LAYER_METRICS: dict[str, tuple[str, str]] = {}


def _metric(name: str, unit: str, kind: str) -> None:
    LAYER_METRICS[name] = (unit, kind)


for _layer in ("graphs.shortest_path_batch", "solvers._fw_project_batch", "solvers._correct_rows",
               "solvers.closed_form", "losses._fy_batch", "losses._subopt_batch"):
    _metric(f"{_layer}.calls", "count", "count")
    _metric(f"{_layer}.rows", "count", "count")
    _metric(f"{_layer}.busy_s", "s", "time")
    if _layer != "solvers.closed_form":
        _metric(f"{_layer}.self_s", "s", "time")
_metric("graphs.shortest_path_batch.solver_calls", "count", "count")
_metric("graphs.shortest_path_batch.solver_rows", "count", "count")
for _bucket, _, _ in SP_BUCKETS:
    _metric(f"graphs.shortest_path_batch.{_bucket}.calls", "count", "count")
    _metric(f"graphs.shortest_path_batch.{_bucket}.p50_us", "us", "time")
    _metric(f"graphs.shortest_path_batch.{_bucket}.p99_us", "us", "time")
_metric("graphs.topo_order.calls", "count", "count")
_metric("graphs.topo_order_s", "s", "time")
_metric("solvers.fw.oracle_rows_per_row", "ratio", "count")
_metric("solvers._simplex_lsq.calls", "count", "count")
_metric("solvers._simplex_lsq.busy_s", "s", "time")
_metric("solvers.fw.fallback_ratio", "ratio", "count")
_metric("losses.kka.calls", "count", "count")
_metric("losses.kka.busy_s", "s", "time")
_metric("train.fit.calls", "count", "count")
_metric("train.step.calls", "count", "count")
_metric("train.step_s", "s", "time")
_metric("train.risk_eval.calls", "count", "count")
_metric("train.risk_eval_s", "s", "time")
_metric("train.driver.self_s", "s", "time")
_metric("train.nw.calls", "count", "count")
_metric("train.nw.busy_s", "s", "time")
_metric("train.nw.temp_bytes_computed", "B", "count")
_metric("metrics.decision_error.calls", "count", "count")
_metric("metrics.decision_error.busy_s", "s", "time")
_metric("metrics.regret.calls", "count", "count")
_metric("metrics.regret.busy_s", "s", "time")
_metric("spath.sp_fit.busy_s", "s", "time")
_metric("spath.score_s", "s", "time")
_metric("spath.synth_graph_instance.busy_s", "s", "time")
_metric("synth.generate.calls", "count", "count")
_metric("synth.generate.busy_s", "s", "time")
_metric("cli._run_cell.calls", "count", "count")
_metric("cli.overhead_s", "s", "time")
_metric("trace.spans", "count", "count")
_metric("trace.replication_s", "s", "time")
_metric("trace.untraced_replication_s", "s", "time")
_metric("trace.overhead_s", "s", "time")


def pass_metrics(spans: list[list], rep: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (replication id ``rep``).

    busy_s sums the outermost span of each name, so a layer that re-enters
    itself is not counted twice; self_s subtracts the time covered by
    direct child spans.
    """
    idxs = [i for i, s in enumerate(spans) if s[REP] == rep]
    child = defaultdict(float)
    for i in idxs:
        s = spans[i]
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    calls, rows, busy, self_t = Counter(), Counter(), defaultdict(float), defaultdict(float)
    for i in idxs:
        s = spans[i]
        dur = s[END] - s[START]
        calls[s[NAME]] += 1
        rows[s[NAME]] += s[ROWS]
        if not s[NESTED]:
            busy[s[NAME]] += dur
        self_t[s[NAME]] += dur - child[i]

    out: dict[str, float] = {}
    for name in LAYER_METRICS:
        layer, _, field = name.rpartition(".")
        if field in ("calls", "rows", "busy_s", "self_s") and layer:
            out[name] = {"calls": calls, "rows": rows, "busy_s": busy, "self_s": self_t}[field][layer]

    sp = [spans[i] for i in idxs if spans[i][NAME] == "graphs.shortest_path_batch"]
    solver = [s for s in sp if s[SITE] == "fyinv.solvers"]
    out["graphs.shortest_path_batch.solver_calls"] = len(solver)
    out["graphs.shortest_path_batch.solver_rows"] = sum(s[ROWS] for s in solver)
    for bucket, lo, hi in SP_BUCKETS:
        us = [1e6 * (s[END] - s[START]) for s in sp if s[ROWS] >= lo and (hi is None or s[ROWS] <= hi)]
        out[f"graphs.shortest_path_batch.{bucket}.calls"] = len(us)
        out[f"graphs.shortest_path_batch.{bucket}.p50_us"] = float(np.percentile(us, 50)) if us else 0.0
        out[f"graphs.shortest_path_batch.{bucket}.p99_us"] = float(np.percentile(us, 99)) if us else 0.0
    out["graphs.topo_order_s"] = busy["graphs.topo_order"]

    fw_rows = rows["solvers._fw_project_batch"]
    fw_oracle = sum(s[ROWS] for s in sp if s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "solvers._fw_project_batch")
    out["solvers.fw.oracle_rows_per_row"] = fw_oracle / fw_rows if fw_rows else 0.0
    corrected = rows["solvers._correct_rows"]
    out["solvers.fw.fallback_ratio"] = calls["solvers._simplex_lsq"] / corrected if corrected else 0.0

    out["train.step_s"] = busy["train.step"]
    out["train.risk_eval_s"] = busy["train.risk_eval"]
    out["train.driver.self_s"] = self_t["train.driver"] + self_t["train.fit"]
    out["train.nw.temp_bytes_computed"] = max(
        (spans[i][NBYTES] for i in idxs if spans[i][NAME] == "train.nw_weights"), default=0
    )
    out["spath.score_s"] = busy["spath.sp_run"] - busy["spath.sp_fit"]
    out["cli.overhead_s"] = busy["cli._execute"] - busy["cli._run_cell"]
    out["trace.spans"] = len(idxs)
    return out
